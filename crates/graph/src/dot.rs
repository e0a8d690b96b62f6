//! Graphviz DOT export of mapping-space graphs.
//!
//! Small domains are best understood by looking at them — the
//! paper's Figure 3 is exactly such a drawing. [`to_dot`] renders
//! the bipartite graph with anonymized items on the left, original
//! items on the right, crack edges `(x', x)` highlighted, and
//! optional forced-pair emphasis from a propagation result.

use crate::dense::DenseBigraph;

/// Rendering options.
#[derive(Clone, Debug, Default)]
pub struct DotOptions {
    /// A title rendered as a graph label.
    pub title: Option<String>,
    /// Highlight forced pairs from a propagation run.
    pub forced: Option<Vec<(usize, usize)>>,
}

/// Renders the bipartite graph in DOT format.
///
/// Left nodes are written `a<i>` (labelled `i'`), right nodes `o<y>`.
/// Crack edges are drawn bold; forced pairs (when given) red.
pub fn to_dot(graph: &DenseBigraph, options: &DotOptions) -> String {
    let n = graph.n();
    let mut out = String::from("graph mapping_space {\n  rankdir=LR;\n");
    if let Some(title) = &options.title {
        out.push_str(&format!("  label=\"{}\";\n", title.replace('"', "\\\"")));
    }
    out.push_str("  subgraph cluster_anon {\n    label=\"anonymized (J)\";\n");
    for i in 0..n {
        out.push_str(&format!("    a{i} [label=\"{i}'\", shape=box];\n"));
    }
    out.push_str("  }\n  subgraph cluster_orig {\n    label=\"original (I)\";\n");
    for y in 0..n {
        out.push_str(&format!("    o{y} [label=\"{y}\", shape=ellipse];\n"));
    }
    out.push_str("  }\n");

    let forced = options.forced.as_deref().unwrap_or(&[]);
    for i in 0..n {
        for y in graph.neighbors(i) {
            let mut attrs: Vec<&str> = Vec::new();
            if i == y {
                attrs.push("style=bold");
            }
            if forced.contains(&(i, y)) {
                attrs.push("color=red");
            }
            if attrs.is_empty() {
                out.push_str(&format!("  a{i} -- o{y};\n"));
            } else {
                out.push_str(&format!("  a{i} -- o{y} [{}];\n", attrs.join(", ")));
            }
        }
    }
    // Forced pairs whose edges were consumed by propagation still
    // deserve rendering.
    for &(i, y) in forced {
        if !graph.has_edge(i, y) {
            out.push_str(&format!("  a{i} -- o{y} [color=red, style=dashed];\n"));
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::propagate::propagate;

    #[test]
    fn renders_nodes_and_edges() {
        let g = DenseBigraph::from_edges(3, &[(0, 0), (0, 1), (2, 2)]);
        let dot = to_dot(&g, &DotOptions::default());
        assert!(dot.starts_with("graph mapping_space {"));
        assert!(dot.contains("a0 [label=\"0'\""));
        assert!(dot.contains("o2 [label=\"2\""));
        assert!(dot.contains("a0 -- o1;"));
        // Crack edges are bold.
        assert!(dot.contains("a0 -- o0 [style=bold];"));
        assert!(dot.contains("a2 -- o2 [style=bold];"));
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn titles_are_escaped() {
        let g = DenseBigraph::new(1);
        let dot = to_dot(
            &g,
            &DotOptions {
                title: Some("say \"hi\"".into()),
                forced: None,
            },
        );
        assert!(dot.contains("label=\"say \\\"hi\\\"\""));
    }

    #[test]
    fn forced_pairs_are_red_even_after_removal() {
        // Staircase: propagation forces every pair, so the reduced
        // graph is edgeless and the forced pairs render dashed red.
        let mut g = DenseBigraph::new(3);
        for j in 0..3 {
            for i in 0..=j {
                g.add_edge(i, j);
            }
        }
        let p = propagate(&g);
        let options = DotOptions {
            title: None,
            forced: Some(p.forced),
        };
        let dot = to_dot(&DenseBigraph::new(3), &options);
        assert!(dot.contains("color=red"));
        assert!(dot.contains("style=dashed"));
    }
}
