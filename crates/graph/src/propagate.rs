//! Degree-1 propagation (Figure 7).
//!
//! When a node of the mapping-space graph has degree 1, its sole
//! incident edge appears in *every* perfect matching. The forced pair
//! can be removed from the graph, which lowers other nodes' degrees
//! and may cascade — in Figure 6(a), propagation collapses the whole
//! staircase to the identity matching. The paper prescribes running
//! this to fixpoint before computing O-estimates (after step 4(a) of
//! Figure 5) and bounds it by `O(v·e)`; this implementation keeps
//! incremental degree counters and a worklist, so the common case is
//! one degree sweep plus work proportional to the cascade.

use std::collections::VecDeque;

use crate::dense::DenseBigraph;

/// Result of running propagation to fixpoint.
#[derive(Clone, Debug, PartialEq)]
pub struct Propagation {
    /// The reduced graph: forced nodes have empty rows/columns.
    pub graph: DenseBigraph,
    /// Forced pairs `(left, right)` in discovery order.
    pub forced: Vec<(usize, usize)>,
    /// Nodes discovered to have degree 0 (no perfect matching can
    /// exist): `(is_left_side, index)`.
    pub dead_nodes: Vec<(bool, usize)>,
    /// Number of propagation steps (forced pairs processed) plus one.
    pub rounds: usize,
}

impl Propagation {
    /// Forced pairs that are cracks, i.e. `(x, x)` edges: these items
    /// are identified with certainty by any consistent hacker.
    pub fn forced_cracks(&self) -> usize {
        self.forced.iter().filter(|&&(i, y)| i == y).count()
    }

    /// Whether propagation proves a perfect matching impossible.
    pub fn infeasible(&self) -> bool {
        !self.dead_nodes.is_empty()
    }
}

#[derive(Clone, Copy)]
enum Side {
    Left(usize),
    Right(usize),
}

/// Runs degree-1 propagation on `graph` until fixpoint and returns
/// the reduced graph inside the report. A caller that still needs
/// the original graph clones it at the call site.
///
/// # Examples
///
/// ```
/// use andi_graph::{propagate, DenseBigraph};
///
/// // Figure 6(a): the staircase collapses to the identity.
/// let mut g = DenseBigraph::new(4);
/// for j in 0..4 {
///     for i in 0..=j {
///         g.add_edge(i, j);
///     }
/// }
/// let p = propagate(g);
/// assert_eq!(p.forced_cracks(), 4);
/// ```
pub fn propagate(mut graph: DenseBigraph) -> Propagation {
    let n = graph.n();
    let mut left_deg = graph.left_degrees();
    let mut right_deg = graph.right_degrees();
    let mut left_settled = vec![false; n];
    let mut right_settled = vec![false; n];
    let mut forced = Vec::new();
    let mut dead = Vec::new();
    let mut queue: VecDeque<Side> = VecDeque::new();

    for i in 0..n {
        match left_deg[i] {
            0 => {
                dead.push((true, i));
                left_settled[i] = true;
            }
            1 => queue.push_back(Side::Left(i)),
            _ => {}
        }
    }
    for y in 0..n {
        match right_deg[y] {
            0 => {
                dead.push((false, y));
                right_settled[y] = true;
            }
            1 => queue.push_back(Side::Right(y)),
            _ => {}
        }
    }

    let mut steps = 0usize;
    while let Some(side) = queue.pop_front() {
        let (i, y) = match side {
            Side::Left(i) => {
                if left_settled[i] || left_deg[i] != 1 {
                    continue; // stale entry
                }
                let Some(y) = graph.unique_neighbor(i) else {
                    continue; // degree bookkeeping raced a removal
                };
                (i, y)
            }
            Side::Right(y) => {
                if right_settled[y] || right_deg[y] != 1 {
                    continue;
                }
                let Some(i) = (0..n).find(|&i| graph.has_edge(i, y)) else {
                    continue; // degree bookkeeping raced a removal
                };
                (i, y)
            }
        };
        steps += 1;
        forced.push((i, y));
        left_settled[i] = true;
        right_settled[y] = true;

        // Remove row i: decrement right degrees of its neighbors.
        let nbrs: Vec<usize> = graph.neighbors(i).collect();
        graph.clear_left(i);
        left_deg[i] = 0;
        for z in nbrs {
            if z == y || right_settled[z] {
                continue;
            }
            right_deg[z] -= 1;
            match right_deg[z] {
                0 => {
                    dead.push((false, z));
                    right_settled[z] = true;
                }
                1 => queue.push_back(Side::Right(z)),
                _ => {}
            }
        }
        // Remove column y: decrement left degrees of its users.
        for j in 0..n {
            if j == i || left_settled[j] || !graph.has_edge(j, y) {
                continue;
            }
            graph.remove_edge(j, y);
            left_deg[j] -= 1;
            match left_deg[j] {
                0 => {
                    dead.push((true, j));
                    left_settled[j] = true;
                }
                1 => queue.push_back(Side::Left(j)),
                _ => {}
            }
        }
        graph.clear_right(y);
        right_deg[y] = 0;
    }

    Propagation {
        graph,
        forced,
        dead_nodes: dead,
        rounds: steps + 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Figure 6(a): right j reachable from lefts 0..=j; the cascade
    /// forces the identity.
    fn staircase() -> DenseBigraph {
        let mut g = DenseBigraph::new(4);
        for j in 0..4 {
            for i in 0..=j {
                g.add_edge(i, j);
            }
        }
        g
    }

    #[test]
    fn staircase_cascades_to_identity() {
        let p = propagate(staircase());
        assert_eq!(p.forced.len(), 4);
        assert_eq!(p.forced_cracks(), 4, "all four items identified");
        assert!(!p.infeasible());
        assert_eq!(p.graph.n_edges(), 0);
    }

    #[test]
    fn complete_graph_is_a_fixpoint() {
        let g = DenseBigraph::complete(5);
        let p = propagate(g);
        assert!(p.forced.is_empty());
        assert_eq!(p.rounds, 1);
        assert_eq!(p.graph.n_edges(), 25);
    }

    #[test]
    fn figure_6b_is_not_reduced_by_degree_1() {
        // Figure 6(b): 1'->{1,2}, 2'->{1,2,3}, 3'->{3,4}, 4'->{3,4}.
        // No degree-1 node exists, so Figure 7 leaves the irrelevant
        // edge (2', 3) in place — exactly the paper's point about the
        // O-estimate's residual inexactness.
        let g = DenseBigraph::from_edges(
            4,
            &[
                (0, 0),
                (0, 1),
                (1, 0),
                (1, 1),
                (1, 2),
                (2, 2),
                (2, 3),
                (3, 2),
                (3, 3),
            ],
        );
        let p = propagate(g);
        assert!(p.forced.is_empty());
        assert!(
            p.graph.has_edge(1, 2),
            "edge (2',3) survives degree-1 propagation"
        );
    }

    #[test]
    fn detects_dead_nodes() {
        // Right 0 unreachable.
        let g = DenseBigraph::from_edges(2, &[(0, 1), (1, 1)]);
        let p = propagate(g);
        assert!(p.infeasible());
        assert!(p.dead_nodes.contains(&(false, 0)));
    }

    #[test]
    fn forced_noncrack_pairs_are_counted_separately() {
        // 0' can only map to 1, 1' can only map to 0: forced swaps,
        // zero cracks.
        let g = DenseBigraph::from_edges(2, &[(0, 1), (1, 0)]);
        let p = propagate(g);
        assert_eq!(p.forced.len(), 2);
        assert_eq!(p.forced_cracks(), 0);
    }

    #[test]
    fn partial_cascade_leaves_a_core() {
        // Items 0..2 form a staircase; items 3..5 a complete block.
        let mut g = DenseBigraph::new(6);
        for j in 0..3 {
            for i in 0..=j {
                g.add_edge(i, j);
            }
        }
        for i in 3..6 {
            for j in 3..6 {
                g.add_edge(i, j);
            }
        }
        let p = propagate(g);
        assert_eq!(p.forced_cracks(), 3);
        assert_eq!(p.graph.n_edges(), 9, "the complete block is untouched");
    }

    #[test]
    fn cascade_triggered_by_right_side() {
        // Left degrees all >= 2, but right 2 has a single incoming
        // edge: forcing it strands left 1 onto right 1, cascading.
        let g = DenseBigraph::from_edges(3, &[(0, 0), (0, 1), (1, 1), (1, 2), (2, 0), (2, 1)]);
        let p = propagate(g);
        // (1,2) forced, then left 1 gone; rights 0,1 shared by 0,2.
        assert!(p.forced.contains(&(1, 2)));
        assert!(!p.infeasible());
    }

    #[test]
    fn propagation_preserves_matching_count() {
        use crate::permanent::permanent;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // Forced edges belong to every perfect matching, so restoring
        // them into the reduced graph must reproduce the original
        // permanent exactly.
        let mut rng = StdRng::seed_from_u64(51);
        for trial in 0..60 {
            let n = rng.gen_range(2..=7);
            let mut g = DenseBigraph::new(n);
            for i in 0..n {
                for j in 0..n {
                    if rng.gen_bool(0.4) {
                        g.add_edge(i, j);
                    }
                }
            }
            let before = permanent(&g);
            let p = propagate(g);
            if p.infeasible() {
                assert_eq!(before, 0, "trial {trial}: dead node implies no matching");
                continue;
            }
            let mut restored = p.graph.clone();
            for &(i, y) in &p.forced {
                restored.add_edge(i, y);
            }
            assert_eq!(permanent(&restored), before, "trial {trial}");
        }
    }
}
