//! Maximum bipartite matching (Hopcroft–Karp) on dense bigraphs.
//!
//! Decides whether the mapping space admits a perfect matching at
//! all — the paper notes it may not (end of Section 2.3) — apart from
//! the grouped deadline greedy ([`GroupedBigraph::walk_seed`]), as the
//! conformance oracle's independent feasibility check.
//!
//! [`GroupedBigraph::walk_seed`]: crate::GroupedBigraph::walk_seed

use crate::dense::DenseBigraph;
use crate::grouped::Matching;

const INF: u32 = u32::MAX;

/// Computes a maximum matching of `g` with Hopcroft–Karp
/// (`O(E sqrt(V))`).
/// # Examples
///
/// ```
/// use andi_graph::{hopcroft_karp, DenseBigraph};
///
/// let g = DenseBigraph::from_edges(3, &[(0, 1), (1, 0), (1, 2), (2, 2)]);
/// let m = hopcroft_karp(&g);
/// assert!(m.is_perfect());
/// ```
pub fn hopcroft_karp(g: &DenseBigraph) -> Matching {
    let n = g.n();
    // pair_left[i] = matched right node + 1 (0 = free); likewise for
    // pair_right.
    let mut pair_left = vec![0usize; n];
    let mut pair_right = vec![0usize; n];
    let mut dist = vec![INF; n + 1];
    let mut queue = std::collections::VecDeque::new();

    loop {
        // BFS layering from free left vertices. Index 0 in `dist` is
        // the sentinel "nil" vertex; left vertex i maps to i + 1.
        queue.clear();
        for i in 0..n {
            if pair_left[i] == 0 {
                dist[i + 1] = 0;
                queue.push_back(i + 1);
            } else {
                dist[i + 1] = INF;
            }
        }
        dist[0] = INF;
        while let Some(u) = queue.pop_front() {
            if dist[u] < dist[0] {
                for y in g.neighbors(u - 1) {
                    let w = pair_right[y];
                    if dist[w] == INF {
                        dist[w] = dist[u] + 1;
                        if w != 0 {
                            queue.push_back(w);
                        }
                    }
                }
            }
        }
        if dist[0] == INF {
            break;
        }
        // DFS augmentation along the layering.
        for i in 0..n {
            if pair_left[i] == 0 {
                augment(g, i + 1, &mut pair_left, &mut pair_right, &mut dist);
            }
        }
    }

    Matching {
        left_partner: pair_left
            .iter()
            .map(|&p| if p == 0 { None } else { Some(p - 1) })
            .collect(),
        right_partner: pair_right
            .iter()
            .map(|&p| if p == 0 { None } else { Some(p - 1) })
            .collect(),
    }
}

fn augment(
    g: &DenseBigraph,
    u: usize,
    pair_left: &mut [usize],
    pair_right: &mut [usize],
    dist: &mut [u32],
) -> bool {
    if u == 0 {
        return true;
    }
    for y in g.neighbors(u - 1) {
        let w = pair_right[y];
        if dist[w] == dist[u].wrapping_add(1) && augment(g, w, pair_left, pair_right, dist) {
            pair_right[y] = u;
            pair_left[u - 1] = y + 1;
            return true;
        }
    }
    dist[u] = INF;
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_graph_has_perfect_matching() {
        let g = DenseBigraph::complete(7);
        let m = hopcroft_karp(&g);
        assert!(m.is_perfect());
        // Every matched edge must exist.
        for (i, p) in m.left_partner.iter().enumerate() {
            assert!(g.has_edge(i, p.unwrap()));
        }
    }

    #[test]
    fn obstructed_graph_has_no_perfect_matching() {
        // Both 0' and 1' can only map to right 1 (the paper's
        // end-of-Section-2.3 example).
        let g = DenseBigraph::from_edges(2, &[(0, 1), (1, 1)]);
        assert!(!hopcroft_karp(&g).is_perfect());
        let m = hopcroft_karp(&g);
        assert_eq!(m.size(), 1);
    }

    #[test]
    fn staircase_has_unique_perfect_matching() {
        // Figure 6(a): i' -> {i, ..., 4}; unique perfect matching is
        // the identity.
        let mut edges = Vec::new();
        for i in 0..4usize {
            for y in 0..=i {
                edges.push((y, i)); // right i reachable from lefts 0..=i
            }
        }
        // Rebuild exactly per figure: 1'->1; 2'->{1,2}? The figure is
        // left 1'..4', right 1..4 with right j reachable from left
        // <= j. Identity forced.
        let g = DenseBigraph::from_edges(4, &edges);
        let m = hopcroft_karp(&g);
        assert!(m.is_perfect());
        assert_eq!(m.n_cracks(), 4, "the unique perfect matching cracks all");
    }

    #[test]
    fn matching_respects_edges() {
        let g = DenseBigraph::from_edges(3, &[(0, 1), (1, 0), (1, 2), (2, 2)]);
        let m = hopcroft_karp(&g);
        assert!(m.is_perfect());
        for (i, p) in m.left_partner.iter().enumerate() {
            assert!(g.has_edge(i, p.unwrap()));
        }
        // right_partner is the inverse of left_partner.
        for (i, p) in m.left_partner.iter().enumerate() {
            assert_eq!(m.right_partner[p.unwrap()], Some(i));
        }
    }

    #[test]
    fn empty_graph_matches_nothing() {
        let g = DenseBigraph::new(4);
        let m = hopcroft_karp(&g);
        assert_eq!(m.size(), 0);
    }

    #[test]
    fn large_word_boundary_graph() {
        let g = DenseBigraph::complete(130);
        assert!(hopcroft_karp(&g).is_perfect());
    }
}
