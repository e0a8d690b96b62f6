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
//!
//! The walk runs over *left units*, sets of interchangeable
//! anonymized items: a row of a [`DenseBigraph`], or a frequency group
//! of a [`GroupedBigraph`]. Twins keep identical neighbourhoods, so
//! forcing one of two or more strands the rest and the space is empty;
//! a feasible run forces only units of one item. On a grouped graph
//! the units of a right are its group range and the rights of a unit
//! a scan of the `n` ranges, so no dense matrix is built.

use std::collections::VecDeque;

use crate::dense::DenseBigraph;
use crate::grouped::GroupedBigraph;

/// Result of running propagation to fixpoint.
#[derive(Clone, Debug, PartialEq)]
pub struct Propagation {
    /// Residual out-degree `O_x` of every original (right) item once
    /// the forced pairs are removed: 0 for a forced or dead item.
    pub outdegrees: Vec<usize>,
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

/// Runs degree-1 propagation on a dense graph until fixpoint, one
/// unit per row.
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
/// let p = propagate(&g);
/// assert_eq!(p.forced_cracks(), 4);
/// ```
pub fn propagate(graph: &DenseBigraph) -> Propagation {
    let rows: Vec<usize> = (0..graph.n()).collect();
    walk(
        rows.iter().map(|&i| graph.left_degree(i)).collect(),
        graph.right_degrees(),
        |i| &rows[i..=i],
        |y| rows.iter().copied().filter(move |&i| graph.has_edge(i, y)),
        |i| graph.neighbors(i),
    )
}

/// Runs degree-1 propagation on a grouped interval graph until
/// fixpoint, one unit per frequency group, in `O(n + k)` memory.
pub fn propagate_grouped(graph: &GroupedBigraph) -> Propagation {
    let ranges = graph.right_ranges();
    // A group's degree counts the ranges covering it: a difference
    // array over the ranges, then a prefix sum.
    let mut diff = vec![0isize; graph.n_groups() + 1];
    for &(lo, hi) in ranges.iter().flatten() {
        diff[lo] += 1;
        diff[hi + 1] -= 1;
    }
    let mut covering = 0;
    walk(
        diff[..graph.n_groups()]
            .iter()
            .map(|d| {
                covering += d;
                covering as usize
            })
            .collect(),
        graph.outdegrees(),
        |g| graph.group_members(g),
        |y| ranges[y].into_iter().flat_map(|(lo, hi)| lo..=hi),
        |g| {
            (0..ranges.len())
                .filter(move |&y| matches!(ranges[y], Some((lo, hi)) if lo <= g && g <= hi))
        },
    )
}

#[derive(Clone, Copy)]
enum Side {
    Left(usize),
    Right(usize),
}

/// The Figure 7 worklist over left units, from each unit's and each
/// right's degree, a unit's members, the units of a right and the
/// rights of a unit. `open[u]` counts the members of unit `u` neither
/// forced nor dead; forcing takes them in order.
fn walk<'a, U, R>(
    mut unit_deg: Vec<usize>,
    mut right_deg: Vec<usize>,
    members: impl Fn(usize) -> &'a [usize],
    units_of: impl Fn(usize) -> U,
    rights_of: impl Fn(usize) -> R,
) -> Propagation
where
    U: Iterator<Item = usize>,
    R: Iterator<Item = usize>,
{
    let mut open: Vec<usize> = (0..unit_deg.len()).map(|u| members(u).len()).collect();
    let mut right_settled = vec![false; right_deg.len()];
    let (mut forced, mut dead) = (Vec::new(), Vec::new());
    // A node is queued while its degree is 1 or 0. A popped entry
    // re-reads the degree, so one that a later step made stale is
    // skipped.
    let mut queue: VecDeque<Side> = (0..unit_deg.len())
        .filter(|&u| unit_deg[u] <= 1)
        .map(Side::Left)
        .chain(
            (0..right_deg.len())
                .filter(|&y| right_deg[y] <= 1)
                .map(Side::Right),
        )
        .collect();
    let mut steps = 0usize;
    while let Some(side) = queue.pop_front() {
        let (u, y, rights) = match side {
            Side::Left(u) if open[u] > 0 && unit_deg[u] == 0 => {
                let m = members(u);
                dead.extend(m[m.len() - open[u]..].iter().map(|&i| (true, i)));
                open[u] = 0;
                continue;
            }
            Side::Right(y) if !right_settled[y] && right_deg[y] == 0 => {
                dead.push((false, y));
                right_settled[y] = true;
                continue;
            }
            // The forced unit's rights are read once per step: they
            // find the right of a degree-1 unit, then lose its row.
            Side::Left(u) if open[u] > 0 && unit_deg[u] == 1 => {
                let rights: Vec<usize> = rights_of(u).collect();
                let Some(&y) = rights.iter().find(|&&y| !right_settled[y]) else {
                    continue;
                };
                (u, y, rights)
            }
            Side::Right(y) if !right_settled[y] && right_deg[y] == 1 => {
                let Some(u) = units_of(y).find(|&u| open[u] > 0) else {
                    continue;
                };
                (u, y, rights_of(u).collect())
            }
            _ => continue, // stale entry
        };
        steps += 1;
        let m = members(u);
        forced.push((m[m.len() - open[u]], y));
        open[u] -= 1;
        right_settled[y] = true;
        right_deg[y] = 0;
        // Remove the forced member's row, then column y: the member's
        // twins lose y too.
        for z in rights.into_iter().filter(|&z| !right_settled[z]) {
            right_deg[z] -= 1;
            if right_deg[z] <= 1 {
                queue.push_back(Side::Right(z));
            }
        }
        for v in units_of(y).filter(|&v| open[v] > 0) {
            unit_deg[v] -= 1;
            if unit_deg[v] <= 1 {
                queue.push_back(Side::Left(v));
            }
        }
    }

    Propagation {
        outdegrees: right_deg,
        forced,
        dead_nodes: dead,
        rounds: steps + 1,
    }
}

/// The bitset walk the unit walk replaced, kept as the differential
/// tests' reference: it reduces a dense graph in place. Returns the
/// reduced graph next to the report.
#[cfg(test)]
pub(crate) fn propagate_bitset(mut graph: DenseBigraph) -> (DenseBigraph, Propagation) {
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
    }

    let report = Propagation {
        outdegrees: graph.right_degrees(),
        forced,
        dead_nodes: dead,
        rounds: steps + 1,
    };
    (graph, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    /// The reduced graph: `g` with every forced row and column
    /// cleared.
    fn reduced(g: &DenseBigraph, p: &Propagation) -> DenseBigraph {
        let mut r = g.clone();
        for &(i, y) in &p.forced {
            r.clear_left(i);
            r.clear_right(y);
        }
        r
    }

    #[test]
    fn staircase_cascades_to_identity() {
        let g = staircase();
        let p = propagate(&g);
        assert_eq!(p.forced.len(), 4);
        assert_eq!(p.forced_cracks(), 4, "all four items identified");
        assert!(!p.infeasible());
        assert_eq!(reduced(&g, &p).n_edges(), 0);
    }

    #[test]
    fn complete_graph_is_a_fixpoint() {
        let g = DenseBigraph::complete(5);
        let p = propagate(&g);
        assert!(p.forced.is_empty());
        assert_eq!(p.rounds, 1);
        assert_eq!(reduced(&g, &p).n_edges(), 25);
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
        let p = propagate(&g);
        assert!(p.forced.is_empty());
        assert!(
            reduced(&g, &p).has_edge(1, 2),
            "edge (2',3) survives degree-1 propagation"
        );
    }

    #[test]
    fn detects_dead_nodes() {
        // Right 0 unreachable.
        let g = DenseBigraph::from_edges(2, &[(0, 1), (1, 1)]);
        let p = propagate(&g);
        assert!(p.infeasible());
        assert!(p.dead_nodes.contains(&(false, 0)));
    }

    #[test]
    fn forced_noncrack_pairs_are_counted_separately() {
        // 0' can only map to 1, 1' can only map to 0: forced swaps,
        // zero cracks.
        let g = DenseBigraph::from_edges(2, &[(0, 1), (1, 0)]);
        let p = propagate(&g);
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
        let p = propagate(&g);
        assert_eq!(p.forced_cracks(), 3);
        assert_eq!(
            reduced(&g, &p).n_edges(),
            9,
            "the complete block is untouched"
        );
    }

    #[test]
    fn cascade_triggered_by_right_side() {
        // Left degrees all >= 2, but right 2 has a single incoming
        // edge: forcing it strands left 1 onto right 1, cascading.
        let g = DenseBigraph::from_edges(3, &[(0, 0), (0, 1), (1, 1), (1, 2), (2, 0), (2, 1)]);
        let p = propagate(&g);
        // (1,2) forced, then left 1 gone; rights 0,1 shared by 0,2.
        assert!(p.forced.contains(&(1, 2)));
        assert!(!p.infeasible());
    }

    #[test]
    fn propagation_preserves_matching_count() {
        use crate::permanent::permanent;
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
            let p = propagate(&g);
            if p.infeasible() {
                assert_eq!(before, 0, "trial {trial}: dead node implies no matching");
                continue;
            }
            let mut restored = reduced(&g, &p);
            for &(i, y) in &p.forced {
                restored.add_edge(i, y);
            }
            assert_eq!(permanent(&restored), before, "trial {trial}");
        }
    }

    fn sorted(mut pairs: Vec<(usize, usize)>) -> Vec<(usize, usize)> {
        pairs.sort_unstable();
        pairs
    }

    /// On dense graphs the unit walk is the bitset walk step for
    /// step: the same forced pairs in the same order, the same dead
    /// nodes, the same rounds and residual out-degrees equal to the
    /// reduced graph's column counts — feasible, non-perfect and
    /// empty spaces alike.
    #[test]
    fn differential_dense_walk_equals_bitset_reference() {
        let mut rng = StdRng::seed_from_u64(0xF167);
        let (mut feasible, mut infeasible) = (0, 0);
        for trial in 0..10_000 {
            let n = rng.gen_range(1..=24);
            let density = rng.gen_range(0.02..0.6);
            let mut g = DenseBigraph::new(n);
            for i in 0..n {
                for j in 0..n {
                    if rng.gen_bool(density) {
                        g.add_edge(i, j);
                    }
                }
            }
            let mut got = propagate(&g);
            let (reduced, mut want) = propagate_bitset(g.clone());
            // The reference records a dead node when its degree drops,
            // the unit walk when its queue entry is popped.
            got.dead_nodes.sort_unstable();
            want.dead_nodes.sort_unstable();
            assert_eq!(got, want, "trial {trial}: {g:?}");
            if !got.infeasible() {
                assert_eq!(got.outdegrees, reduced.right_degrees(), "trial {trial}");
                feasible += 1;
            } else {
                infeasible += 1;
            }
        }
        assert!(
            feasible > 1000 && infeasible > 1000,
            "{feasible} / {infeasible}"
        );
    }

    /// On interval graphs the group walk reaches the bitset walk's
    /// verdict on the dense rendering; when feasible, it forces the
    /// same pairs and leaves the same residual out-degrees. Beliefs
    /// mix truthful intervals with wrong ones, so non-compliant,
    /// non-perfect and empty spaces all occur.
    #[test]
    fn differential_group_walk_equals_bitset_reference() {
        let mut rng = StdRng::seed_from_u64(0x6A0F);
        let (mut forcing, mut infeasible, mut noncompliant) = (0, 0, 0);
        for trial in 0..20_000 {
            let n = rng.gen_range(1..=40);
            let m = rng.gen_range(n as u64..=4 * n as u64 + 8);
            let supports: Vec<u64> = (0..n).map(|_| rng.gen_range(1..=m)).collect();
            let wrong = rng.gen_range(0.0..0.3);
            let slack = rng.gen_range(0.0..0.2);
            let intervals: Vec<(f64, f64)> = supports
                .iter()
                .map(|&s| {
                    let f = if rng.gen_bool(wrong) {
                        rng.gen_range(0.0..1.0)
                    } else {
                        s as f64 / m as f64
                    };
                    let (a, b) = (rng.gen_range(0.0..slack), rng.gen_range(0.0..slack));
                    ((f - a).max(0.0), (f + b).min(1.0))
                })
                .collect();
            let g = GroupedBigraph::new(&supports, m, &intervals);
            let got = propagate_grouped(&g);
            let (_, want) = propagate_bitset(g.to_dense());
            assert_eq!(got.infeasible(), want.infeasible(), "trial {trial}: {g:?}");
            if (0..n).any(|x| !g.crack_edge_exists(x)) {
                noncompliant += 1;
            }
            if want.infeasible() {
                infeasible += 1;
                continue;
            }
            assert_eq!(
                sorted(got.forced.clone()),
                sorted(want.forced.clone()),
                "trial {trial}"
            );
            assert_eq!(got.outdegrees, want.outdegrees, "trial {trial}");
            if !want.forced.is_empty() {
                forcing += 1;
            }
        }
        assert!(
            forcing > 1000 && infeasible > 1000 && noncompliant > 1000,
            "{forcing} / {infeasible} / {noncompliant}"
        );
    }

    /// A frequency group of twins whose only candidate is one item:
    /// forcing one twin strands the other, so the group walk proves
    /// the space empty exactly as the bitset walk does.
    #[test]
    fn forcing_a_twin_strands_its_group() {
        // 0' and 1' share support 5 and only item 0 believes 0.5, so
        // both twins can only be item 0.
        let g = GroupedBigraph::new(&[5, 5, 3], 10, &[(0.5, 0.5), (0.3, 0.3), (0.3, 0.3)]);
        let got = propagate_grouped(&g);
        assert!(got.infeasible());
        assert!(propagate_bitset(g.to_dense()).1.infeasible());
    }
}
