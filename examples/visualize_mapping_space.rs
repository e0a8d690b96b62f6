//! Visualizing the mapping space: the paper's Figure 3, regenerated.
//!
//! Prints the Figure 3(b) group view of BigMart under the belief
//! function `h` (frequency groups × belief groups), and writes the
//! Figure 3(a) bipartite graph as Graphviz DOT to
//! `target/mapping_space.dot` (`dot -Tsvg` renders it).
//!
//! ```text
//! cargo run --example visualize_mapping_space
//! ```

use andi::graph::dot::{to_dot, DotOptions};
use andi::graph::propagate::propagate;
use andi::{bigmart, BeliefFunction};

fn main() {
    let db = bigmart();
    let supports = db.supports();
    // The belief function h of Figure 2 (0-based items).
    let h = BeliefFunction::from_intervals(vec![
        (0.0, 1.0),
        (0.4, 0.5),
        (0.5, 0.5),
        (0.4, 0.6),
        (0.1, 0.4),
        (0.5, 0.5),
    ])
    .expect("intervals are valid");
    let graph = h.build_graph(&supports, db.n_transactions() as u64);

    // ------------------------------------------------------------------
    // Figure 3(b): the group view.
    // ------------------------------------------------------------------
    println!("frequency groups (anonymized side):");
    for g in 0..graph.n_groups() {
        let members: Vec<String> = graph
            .group_members(g)
            .iter()
            .map(|&i| format!("{}'", i + 1)) // paper's 1-based labels
            .collect();
        println!(
            "  freq {:.1}: {{{}}}",
            graph.group_frequency(g),
            members.join(", ")
        );
    }
    println!("\nbelief groups (original side):");
    for bg in graph.belief_groups() {
        let members: Vec<String> = bg.members.iter().map(|&y| (y + 1).to_string()).collect();
        let kind = if bg.is_exclusive() {
            "exclusive"
        } else if bg.is_shared() {
            "shared"
        } else {
            "wide"
        };
        match bg.range {
            Some((lo, hi)) => println!(
                "  {{{}}} <- frequency groups {}..={} ({kind})",
                members.join(", "),
                lo,
                hi
            ),
            None => println!("  {{{}}} <- unmatchable", members.join(", ")),
        }
    }

    // ------------------------------------------------------------------
    // Figure 3(a): the bipartite graph, as DOT.
    // ------------------------------------------------------------------
    let dense = graph.to_dense();
    let prop = propagate(&dense);
    let dot = to_dot(
        &dense,
        &DotOptions {
            title: Some("BigMart under belief h (Figure 3)".into()),
            forced: Some(prop.forced.clone()),
        },
    );
    let path = std::path::Path::new("target").join("mapping_space.dot");
    std::fs::create_dir_all("target").expect("can create target/");
    std::fs::write(&path, &dot).expect("can write the DOT file");
    println!(
        "\nwrote {} ({} bytes) — render with `dot -Tsvg {} -o mapping.svg`",
        path.display(),
        dot.len(),
        path.display()
    );
}
