//! Dense bitset bipartite graphs.
//!
//! The space of consistent crack mappings is a bipartite graph
//! `G = (J ∪ I, E)` (Section 2.3): left nodes are anonymized items,
//! right nodes are original items, and the edge `(x', y)` says the
//! hacker may map `x'` to `y`. We store adjacency as one bitset row
//! per left node, which makes edge tests O(1), degree computations
//! popcounts, and the Ryser permanent's column masks free.
//!
//! Indexing convention used throughout the crate: the graph is
//! *aligned*, i.e. left index `i` is the anonymized counterpart of
//! right index `i`. A crack is then simply a matching edge `(i, i)`.
//! The core crate aligns real anonymization permutations before
//! building graphs.

/// A dense bipartite graph with `n` left and `n` right nodes.
/// # Examples
///
/// ```
/// use andi_graph::DenseBigraph;
///
/// let mut g = DenseBigraph::new(3);
/// g.add_edge(0, 1);
/// g.add_edge(1, 1);
/// assert!(g.has_edge(0, 1));
/// assert_eq!(g.right_degrees(), [0, 2, 0]); // the paper's O_x per item
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct DenseBigraph {
    n: usize,
    words_per_row: usize,
    /// Row-major bitsets: bit `y` of row `i` is edge `(i, y)`.
    rows: Vec<u64>,
}

impl DenseBigraph {
    /// Creates an edgeless graph on `n + n` nodes.
    pub fn new(n: usize) -> Self {
        let words_per_row = n.div_ceil(64);
        DenseBigraph {
            n,
            words_per_row,
            rows: vec![0; words_per_row * n],
        }
    }

    /// Creates the complete bipartite graph (the ignorant belief
    /// function's mapping space, Section 3.1).
    pub fn complete(n: usize) -> Self {
        let mut g = DenseBigraph::new(n);
        for i in 0..n {
            let row = g.row_mut(i);
            for (w, word) in row.iter_mut().enumerate() {
                let base = w * 64;
                let bits = n.saturating_sub(base).min(64);
                *word = if bits == 64 {
                    u64::MAX
                } else {
                    (1u64 << bits) - 1
                };
            }
        }
        g
    }

    /// Builds a graph from an explicit edge list.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Self {
        let mut g = DenseBigraph::new(n);
        for &(i, y) in edges {
            g.add_edge(i, y);
        }
        g
    }

    /// Number of nodes per side.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    #[inline]
    fn row(&self, i: usize) -> &[u64] {
        &self.rows[i * self.words_per_row..(i + 1) * self.words_per_row]
    }

    #[inline]
    fn row_mut(&mut self, i: usize) -> &mut [u64] {
        &mut self.rows[i * self.words_per_row..(i + 1) * self.words_per_row]
    }

    /// Adds edge `(left, right)`.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    #[inline]
    pub fn add_edge(&mut self, left: usize, right: usize) {
        assert!(
            left < self.n && right < self.n,
            "edge endpoint out of range"
        );
        self.row_mut(left)[right / 64] |= 1u64 << (right % 64);
    }

    /// Removes edge `(left, right)` if present.
    #[inline]
    pub fn remove_edge(&mut self, left: usize, right: usize) {
        assert!(
            left < self.n && right < self.n,
            "edge endpoint out of range"
        );
        self.row_mut(left)[right / 64] &= !(1u64 << (right % 64));
    }

    /// Whether edge `(left, right)` exists.
    #[inline]
    pub fn has_edge(&self, left: usize, right: usize) -> bool {
        self.row(left)[right / 64] & (1u64 << (right % 64)) != 0
    }

    /// Degree of a left node (number of right candidates of an
    /// anonymized item).
    pub fn left_degree(&self, left: usize) -> usize {
        self.row(left).iter().map(|w| w.count_ones() as usize).sum()
    }

    /// All right degrees in one pass (column popcounts): the paper's
    /// `O_x`, the number of anonymized items that can map to original
    /// item `x`.
    pub fn right_degrees(&self) -> Vec<usize> {
        let mut deg = vec![0usize; self.n];
        for i in 0..self.n {
            for (w, &word) in self.row(i).iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let b = bits.trailing_zeros() as usize;
                    deg[w * 64 + b] += 1;
                    bits &= bits - 1;
                }
            }
        }
        deg
    }

    /// Iterates the right neighbors of a left node.
    pub fn neighbors(&self, left: usize) -> impl Iterator<Item = usize> + '_ {
        self.row(left)
            .iter()
            .enumerate()
            .flat_map(|(w, &word)| BitIter { word, base: w * 64 })
    }

    /// The adjacency row of `left` as a raw bitmask word slice
    /// (used by the permanent and matching algorithms).
    #[inline]
    pub fn row_words(&self, left: usize) -> &[u64] {
        self.row(left)
    }
}

impl std::fmt::Debug for DenseBigraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "DenseBigraph(n={})", self.n)?;
        for i in 0..self.n {
            let nbrs: Vec<usize> = self.neighbors(i).collect();
            writeln!(f, "  {i}' -> {nbrs:?}")?;
        }
        Ok(())
    }
}

struct BitIter {
    word: u64,
    base: usize,
}

impl Iterator for BitIter {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.word == 0 {
            return None;
        }
        let b = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.base + b)
    }
}

/// Helpers of the bitset propagation walk, kept with it as the
/// reference of the unit walk's differential tests, and plain degree
/// and edge counts for the unit tests.
#[cfg(test)]
impl DenseBigraph {
    /// Degree of a right node, by a column scan.
    pub(crate) fn right_degree(&self, right: usize) -> usize {
        let word = right / 64;
        let bit = 1u64 << (right % 64);
        (0..self.n)
            .filter(|&i| self.rows[i * self.words_per_row + word] & bit != 0)
            .count()
    }

    /// Total edge count.
    pub(crate) fn n_edges(&self) -> usize {
        self.rows.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// All left degrees.
    pub(crate) fn left_degrees(&self) -> Vec<usize> {
        (0..self.n).map(|i| self.left_degree(i)).collect()
    }

    /// The sole neighbor of a left node, if its degree is exactly 1.
    pub(crate) fn unique_neighbor(&self, left: usize) -> Option<usize> {
        let mut found = None;
        for y in self.neighbors(left) {
            if found.is_some() {
                return None;
            }
            found = Some(y);
        }
        found
    }

    /// Clears an entire left row.
    pub(crate) fn clear_left(&mut self, left: usize) {
        self.row_mut(left).fill(0);
    }

    /// Clears an entire right column.
    pub(crate) fn clear_right(&mut self, right: usize) {
        let word = right / 64;
        let mask = !(1u64 << (right % 64));
        for i in 0..self.n {
            self.rows[i * self.words_per_row + word] &= mask;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_graph_has_all_edges() {
        let g = DenseBigraph::complete(70); // crosses a word boundary
        assert_eq!(g.n_edges(), 70 * 70);
        assert!(g.has_edge(0, 69));
        assert!(g.has_edge(69, 0));
        assert_eq!(g.left_degree(5), 70);
        assert_eq!(g.right_degree(65), 70);
    }

    #[test]
    fn add_remove_edges() {
        let mut g = DenseBigraph::new(5);
        assert!(!g.has_edge(1, 2));
        g.add_edge(1, 2);
        assert!(g.has_edge(1, 2));
        assert_eq!(g.n_edges(), 1);
        g.remove_edge(1, 2);
        assert!(!g.has_edge(1, 2));
        assert_eq!(g.n_edges(), 0);
    }

    #[test]
    fn degrees_and_neighbors() {
        let g = DenseBigraph::from_edges(4, &[(0, 0), (0, 1), (1, 1), (2, 1), (3, 3)]);
        assert_eq!(g.left_degrees(), vec![2, 1, 1, 1]);
        assert_eq!(g.right_degrees(), vec![1, 3, 0, 1]);
        assert_eq!(g.right_degree(1), 3);
        let nbrs: Vec<usize> = g.neighbors(0).collect();
        assert_eq!(nbrs, vec![0, 1]);
    }

    #[test]
    fn unique_neighbor_detection() {
        let g = DenseBigraph::from_edges(3, &[(0, 2), (1, 0), (1, 1)]);
        assert_eq!(g.unique_neighbor(0), Some(2));
        assert_eq!(g.unique_neighbor(1), None);
        assert_eq!(g.unique_neighbor(2), None); // degree 0
    }

    #[test]
    fn clear_operations() {
        let mut g = DenseBigraph::complete(3);
        g.clear_left(1);
        assert_eq!(g.left_degree(1), 0);
        assert_eq!(g.right_degree(0), 2);
        g.clear_right(0);
        assert_eq!(g.right_degree(0), 0);
        assert_eq!(g.left_degree(0), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn add_edge_bounds_checked() {
        let mut g = DenseBigraph::new(3);
        g.add_edge(0, 3);
    }

    #[test]
    fn word_boundary_columns() {
        let mut g = DenseBigraph::new(130);
        g.add_edge(129, 63);
        g.add_edge(129, 64);
        g.add_edge(129, 128);
        assert_eq!(g.left_degree(129), 3);
        let nbrs: Vec<usize> = g.neighbors(129).collect();
        assert_eq!(nbrs, vec![63, 64, 128]);
        assert_eq!(g.right_degrees()[64], 1);
    }
}
