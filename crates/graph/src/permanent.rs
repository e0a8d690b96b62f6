//! Permanent of the bipartite adjacency matrix.
//!
//! The size of the mapping space is the number of perfect matchings,
//! i.e. the permanent of the adjacency matrix (Section 4.1). The
//! permanent is #P-complete [Valiant 1979]; the paper dismisses even
//! the Jerrum–Sinclair–Vigoda approximation as impractical (O(n^22)).
//! For *small* domains, however, Ryser's inclusion–exclusion formula
//! with Gray-code subset enumeration computes it exactly in
//! `O(2^n · n)` — that is what our tests use as ground truth for the
//! O-estimate and the matching sampler.
//!
//! # Kernel layout
//!
//! The inner loop is branchless. Per-row intersection sums
//! `|row_i ∩ S|` live in a flat SoA array; when the Gray-code walk
//! toggles column `j`, every sum is updated with the delta
//! `(row_i >> j) & 1` — pre-transposed into a contiguous per-column
//! table and sign-applied by mask arithmetic, so the update is pure
//! streaming load/xor/sub/add with no branch (and no multiply) per
//! row, and the compiler vectorizes it. The per-subset
//! product runs as eight independent multiply chains that are folded
//! pairwise at the end (one widening `i128` multiply per subset), and
//! the Ryser sign `(-1)^(n - |S|)` comes from the identity
//! `popcount(gray(s)) ≡ s (mod 2)` — no popcount in the loop. Lane
//! products are plain `i64`s and the total a plain `i128`: the bounds
//! on [`MAX_PERMANENT_N`] prove neither can wrap, and the interval
//! prover checks them.
//!
//! The walk covers only *half* the subset lattice: Nijenhuis–Wilf
//! fold the last column into doubled row factors
//! `y_i(S) = 2·a_{i,n-1} - r_i + 2·|row_i ∩ S|` so that
//! `perm(A) = (-1)^(n-1) / 2^(n-1) · Σ_{S ⊆ [n-1]} (-1)^{|S|} Π y_i(S)`
//! — `2^(n-1)` subsets instead of `2^n - 1`, and `|y_i| ≤ n` keeps
//! the plain-Ryser overflow bounds intact.
//!
//! One execution strategy drives the kernel: the `2^(n-1)` walk
//! coordinates are split into a fixed layout of contiguous chunks of
//! at most `CHUNK_SUBSETS` — a function of `n` only — and each chunk
//! is one poll-free branchless block, run as one
//! [`crate::par::try_map_indexed`] task that seeds its factors from
//! the popcounts of its starting Gray code. The pool polls the budget
//! between tasks, never inside a block. Chunk sums are integers,
//! summed in chunk order, so the result is bit-identical at any
//! thread count (one worker simply runs the chunks in order).
//!
//! Inputs are hardened at the entry point: row masks are masked to
//! the low `n` bits once, so stray high bits (e.g. from a caller that
//! built minors by column deletion on an unmasked word) cannot leak
//! into the walk.

use crate::dense::DenseBigraph;
use crate::exact::{budgeted_permanent, exact_failure};
use crate::faults;
use crate::par;
use crate::par::{Budget, ExecError};

/// Hard cap on the domain size for exact permanents: up to here the
/// walk's plain `i64` lane products and `i128` total provably cannot
/// wrap. Two bounds must hold at `n = 22`:
///
/// * **lane products**: the eight multiply chains fold pairwise
///   through `i64`s; the widest intermediate holds at most
///   `ceil(n/2)` factors of magnitude at most `n`, and
///   `22^12 ≈ 1.2e16 < i64::MAX ≈ 9.2e18`;
/// * **total**: at most `2^(n-1)` terms of magnitude at most `n^n`
///   accumulate into the `i128` total, and
///   `22^22 · 2^21 ≈ 7.2e35 < i128::MAX ≈ 1.7e38`
///   (at `n = 24`, `24^24 · 2^23 ≈ 1.1e40` no longer fits).
///
/// The interval prover checks both. A 22-item walk (`2^21` subsets)
/// already prices above [`crate::exact::EXACT_PRICE_CAP`], so the
/// priced exact rung never walks more than 21 items. Row masks are
/// single `u64` words.
pub const MAX_PERMANENT_N: usize = 22;

/// Largest magnitude of a walk total: at most `2^(n-1)` half-space
/// terms of magnitude at most `n^n` each, maximized at
/// `n = MAX_PERMANENT_N`, i.e. `2^21 · 22^22`. Every block and chunk
/// sum, and every running total over them, sums a contiguous run of
/// walk terms, so the interval prover checks each against it (see the
/// `andi::assume`s in [`ryser_block_fixed`] and [`sum_chunks`]).
const FIXED_TOTAL_BOUND: i128 = 716_026_155_870_127_773_233_492_469_657_632_768;

/// Largest magnitude of one walk term: `|Π y_i| <= N^N` with
/// `N <= MAX_PERMANENT_N`, i.e. `22^22`.
const FIXED_TERM_BOUND: i128 = 341_427_877_364_219_557_396_646_723_584;

/// Computes the permanent of the 0/1 adjacency matrix of `g` with
/// Ryser's formula: [`try_permanent_of_rows_budgeted`] on the ambient
/// [`par::available_threads`] worker count and an unlimited budget.
///
/// # Panics
///
/// Panics if `g.n() > MAX_PERMANENT_N` or on a fault injected into a
/// chunk task.
/// # Examples
///
/// ```
/// use andi_graph::{permanent, DenseBigraph};
///
/// // perm(J_4) = 4! — the mapping space of an ignorant hacker.
/// assert_eq!(permanent(&DenseBigraph::complete(4)), 24);
/// ```
pub fn permanent(g: &DenseBigraph) -> u128 {
    let n = g.n();
    assert!(
        n <= MAX_PERMANENT_N,
        "permanent limited to n <= {MAX_PERMANENT_N}, got {n}"
    );
    // Rows as plain u64 masks (n <= MAX_PERMANENT_N fits one word).
    let rows: Vec<u64> = (0..n).map(|i| g.row_words(i)[0]).collect();
    match budgeted_permanent(&rows, n, par::available_threads(), &Budget::unlimited()) {
        Ok(v) => v,
        Err(e) => exact_failure(e),
    }
}

/// Walk-coordinate count of the exact kernel for domains of size
/// `n >= 1`: the Nijenhuis–Wilf half space, all `2^(n-1)` subsets of
/// the first `n-1` columns, empty set included.
pub(crate) fn walk_subsets(n: usize) -> u64 {
    1u64 << (n - 1)
}

/// Maps the signed walk total back to the permanent: the
/// Nijenhuis–Wilf total satisfies `perm = (-1)^(n-1) * total / 2^(n-1)`
/// with the division exact (the walk accumulates doubled factors
/// `y_i = 2a_{i,n-1} - r_i + 2s_i`).
fn finish_walk(n: usize, total: i128) -> u128 {
    let signed = if n.is_multiple_of(2) { -total } else { total };
    debug_assert!(signed >= 0, "permanent of a 0/1 matrix is non-negative");
    let v = signed.unsigned_abs();
    debug_assert!(
        v & ((1u128 << (n - 1)) - 1) == 0,
        "half-space total must divide by 2^(n-1) exactly"
    );
    v >> (n - 1)
}

/// Subset count per chunk of the walk — and its poll stride: `2^12`
/// keeps the chunk layout fixed (thread-count-independent) while
/// giving budget polls and fault probes useful granularity even at
/// moderate `n` (`n = 16` → 8 chunks). The branchless kernel burns a
/// chunk in tens of microseconds, so polling only between chunks
/// costs one chunk of overshoot at worst.
const CHUNK_SUBSETS: u64 = 1 << 12;

/// Ryser's formula over explicit row bitmasks — the one exact
/// permanent entry point. `rows[i]` has bit `j` set iff matrix entry
/// `(i, j)` is 1; bits at positions `>= n` are ignored (masked off
/// once at entry). The Gray-code walk is split into a *fixed* chunk
/// layout (at most `CHUNK_SUBSETS = 2^12` subsets per chunk,
/// independent of `threads`), each chunk runs as one poll-free
/// [`par::try_map_indexed`] task carrying the `permanent.chunk` fault
/// probe, and the pool polls `budget` between chunks. The result is
/// exact at any thread count.
///
/// # Errors
///
/// [`ExecError`] when the budget trips, the token fires, or an
/// injected fault panics a chunk task.
///
/// # Panics
///
/// Panics if `n > MAX_PERMANENT_N` or `rows.len() != n`.
pub fn try_permanent_of_rows_budgeted(
    rows: &[u64],
    n: usize,
    threads: usize,
    budget: &Budget,
) -> Result<u128, ExecError> {
    assert!(n <= MAX_PERMANENT_N);
    assert_eq!(rows.len(), n);
    if n == 0 {
        return Ok(1);
    }
    // Input hardening: drop stray bits >= n once, so the kernel only
    // ever sees in-range columns (callers that build minors by
    // column deletion can otherwise shift ghost bits into range).
    let rows: Vec<u64> = rows.iter().map(|&r| r & mask(n)).collect();
    // Quick zero: a row with no candidates kills every matching.
    if rows.contains(&0) {
        return Ok(0);
    }

    let subsets = walk_subsets(n);
    let n_chunks = subsets.div_ceil(CHUNK_SUBSETS) as usize;
    let chunks = par::chunk_ranges(subsets, n_chunks);
    let partials = par::try_map_indexed(threads, chunks.len(), budget, |c| {
        faults::probe("permanent.chunk", c);
        let (lo, hi) = chunks[c];
        ryser_block(&rows, n, lo, hi)
    })?;
    Ok(finish_walk(n, sum_chunks(&partials)))
}

/// Sums the chunk totals in chunk order. Each chunk total and each
/// running total is the sum of a contiguous run of walk terms, so
/// both stay inside [`FIXED_TOTAL_BOUND`].
fn sum_chunks(partials: &[i128]) -> i128 {
    // andi::prove_no_overflow — the chunk fold is machine-checked
    let mut total: i128 = 0;
    for &part in partials {
        debug_assert!(
            (-FIXED_TOTAL_BOUND..=FIXED_TOTAL_BOUND).contains(&part),
            "chunk total exceeds the 2^(n-1) * n^n walk bound"
        );
        // andi::assume(part in [-716026155870127773233492469657632768, 716026155870127773233492469657632768]) — a chunk sums at most 2^(N-1) <= 2^21 terms of magnitude <= N^N <= 22^22
        debug_assert!(
            (-FIXED_TOTAL_BOUND..=FIXED_TOTAL_BOUND).contains(&total),
            "running total exceeds the 2^(n-1) * n^n walk bound"
        );
        // andi::assume(total in [-716026155870127773233492469657632768, 716026155870127773233492469657632768]) — the chunks before this one sum a prefix of the walk, at most 2^21 terms of magnitude <= 22^22
        total += part;
    }
    total
}

/// One poll-free block of the walk over coordinates
/// `s ∈ [w_start, w_end) ⊆ [0, 2^(n-1))`: the Nijenhuis–Wilf
/// half-space sum `Σ (-1)^|S| Π_i y_i(S)` with `S = gray(s)` over the
/// first `n-1` columns and doubled factors
/// `y_i(S) = 2·a_{i,n-1} - r_i + 2·|row_i ∩ S|` (`|y_i| <= n`). The
/// factors seed from the block start, so any contiguous range can
/// begin mid-walk. Dispatches to a `const N` monomorphization so both
/// inner loops fully unroll and the factors live in registers.
fn ryser_block(rows: &[u64], n: usize, w_start: u64, w_end: u64) -> i128 {
    // Callers dispatch here only for 1 <= n <= MAX_PERMANENT_N (n == 0
    // returns before any walk), so the wildcard arm *is* the
    // `n = MAX_PERMANENT_N` monomorphization, not a fallback.
    debug_assert!((1..=MAX_PERMANENT_N).contains(&n));
    macro_rules! dispatch {
        ($($k:literal)+) => {
            match n {
                $($k => ryser_block_fixed::<$k>(rows, w_start, w_end),)+
                _ => ryser_block_fixed::<MAX_PERMANENT_N>(rows, w_start, w_end),
            }
        };
    }
    dispatch!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21)
}

/// The `const N` walk: compile-time trip counts let the
/// whole per-subset body unroll flat. Coordinate 0 (the empty set) is
/// the freshly seeded state itself, so its term is taken before any
/// advance.
fn ryser_block_fixed<const N: usize>(rows: &[u64], w_start: u64, w_end: u64) -> i128 {
    // andi::prove_no_overflow — the unchecked accumulation is machine-checked
    let first = w_start.max(1);
    let mut walk = FixedWalk::<N>::seeded(rows, first);
    let mut total: i128 = if w_start == 0 { walk.term() } else { 0 };
    for s in first..w_end {
        debug_assert!(
            (-FIXED_TOTAL_BOUND..=FIXED_TOTAL_BOUND).contains(&total),
            "walk total exceeds the 2^(n-1) * n^n walk bound"
        );
        // andi::assume(total in [-716026155870127773233492469657632768, 716026155870127773233492469657632768]) — at most 2^(N-1) <= 2^21 terms of magnitude <= N^N <= 22^22 accumulate per walk
        total += step_fixed(&mut walk, s);
    }
    total
}

/// One subset of the walk: advance, multiply, and apply the
/// half-space sign `(-1)^|S|` branchlessly via
/// `popcount(gray(s)) ≡ s (mod 2)`.
#[inline(always)]
fn step_fixed<const N: usize>(walk: &mut FixedWalk<N>, s: u64) -> i128 {
    // andi::prove_no_overflow — the branchless sign flip is machine-checked
    let gray = s ^ (s >> 1);
    walk.advance(gray);
    let term = walk.term();
    debug_assert!(
        (-FIXED_TERM_BOUND..=FIXED_TERM_BOUND).contains(&term),
        "walk term exceeds the n^n magnitude bound"
    );
    // andi::assume(term in [-341427877364219557396646723584, 341427877364219557396646723584]) — |Π y_i| <= N^N and N <= MAX_PERMANENT_N = 22
    // 0 for an even |S|, -1 for odd; `(x ^ m) - m` negates x exactly
    // when m is -1.
    let m = -(s as i128 & 1);
    (term ^ m) - m
}

/// Walk state with compile-time `N`: the transposed
/// per-column delta table and the SoA factors are fixed-size arrays,
/// so the advance and product loops unroll completely. The factors
/// are the doubled Nijenhuis–Wilf values
/// `y_i(S) = 2·a_{i,N-1} - r_i + 2·|row_i ∩ S|`; only the first
/// `N-1` columns ever toggle.
struct FixedWalk<const N: usize> {
    /// `cols[j][i]` is the column-`j` delta for row `i` (0 or 2 — the
    /// `y` factors move in doubled steps).
    cols: [[i32; N]; N],
    sums: [i32; N],
    prev_gray: u64,
}

impl<const N: usize> FixedWalk<N> {
    /// Seeds the factors at the subset `gray(s_first - 1)`
    /// (`s_first >= 1`; the empty set is `s_first = 1`, whose *seed
    /// state* is the `s = 0` term) and transposes the rows into the
    /// delta table (`N^2` ints, amortized over a
    /// [`CHUNK_SUBSETS`]-sized block).
    fn seeded(rows: &[u64], s_first: u64) -> Self {
        // andi::prove_no_overflow — the seeding arithmetic is machine-checked
        debug_assert_eq!(rows.len(), N);
        debug_assert!(
            (1..=MAX_PERMANENT_N).contains(&N),
            "monomorphizations stop at MAX_PERMANENT_N"
        );
        // andi::assume(N in [1, 22]) — ryser_block dispatches only N in 1..=MAX_PERMANENT_N
        debug_assert!(s_first >= 1, "coordinate 0 is the seed state itself");
        // andi::assume(s_first in [1, 18446744073709551615]) — callers clamp with w_start.max(1)
        let prev = s_first - 1;
        let prev_gray = prev ^ (prev >> 1);
        let mut cols = [[0i32; N]; N];
        for (j, col) in cols.iter_mut().enumerate().take(N - 1) {
            for (c, &row) in col.iter_mut().zip(rows) {
                *c = 2 * ((row >> j) & 1) as i32;
            }
        }
        let mut sums = [0i32; N];
        for (sum, &row) in sums.iter_mut().zip(rows) {
            let last = 2 * ((row >> (N - 1)) & 1) as i32;
            let r = row.count_ones() as i32;
            *sum = last - r + 2 * (row & prev_gray).count_ones() as i32;
        }
        FixedWalk {
            cols,
            sums,
            prev_gray,
        }
    }

    /// Advances to the subset `gray`: every factor moves by the
    /// toggled column's doubled delta, sign-applied with the mask
    /// identity `(c ^ m) - m` — load/xor/sub/add per row, no branch,
    /// no multiply.
    #[inline(always)]
    fn advance(&mut self, gray: u64) {
        // andi::prove_no_overflow — the branchless toggle update is machine-checked
        debug_assert!(
            (1..=MAX_PERMANENT_N).contains(&N),
            "monomorphizations stop at MAX_PERMANENT_N"
        );
        // andi::assume(N in [1, 22]) — ryser_block dispatches only N in 1..=MAX_PERMANENT_N
        let changed = gray ^ self.prev_gray;
        let col = (changed.trailing_zeros() as usize).min(N - 1);
        // 0 when the toggled column joined the subset, -1 when it
        // left.
        let m = (((gray >> col) & 1) as i32).wrapping_sub(1);
        let deltas = &self.cols[col];
        for (sum, &c) in self.sums.iter_mut().zip(deltas) {
            debug_assert!(c == 0 || c == 2, "cols holds doubled 0/1 row bits");
            // andi::assume(c in [0, 2]) — the delta table stores `2 * ((row >> j) & 1)`
            debug_assert!(
                *sum >= -(N as i32) && *sum <= N as i32,
                "|y_i| <= N by the Nijenhuis-Wilf factor bound"
            );
            // andi::assume(sum in [-22, 22]) — |y_i| <= N <= MAX_PERMANENT_N before every toggle
            *sum += (c ^ m) - m;
        }
        self.prev_gray = gray;
    }

    /// Product of the factors via eight independent multiply chains
    /// (for instruction-level parallelism), folded pairwise so only
    /// the final fold widens to `i128`. Unchecked: safe for
    /// `N <= MAX_PERMANENT_N` by the lane bounds documented there
    /// (`|y_i| <= N`, same magnitude as the plain-Ryser row sums).
    #[inline(always)]
    fn term(&self) -> i128 {
        // andi::prove_no_overflow — the unchecked multiply chains are machine-checked
        let mut lanes = [1i64; 8];
        let mut it = self.sums.chunks_exact(8);
        for q in it.by_ref() {
            for (lane, &v) in lanes.iter_mut().zip(q) {
                debug_assert!(v >= -(N as i32) && v <= N as i32, "|y_i| <= N");
                // andi::assume(v in [-22, 22]) — |y_i| <= N <= MAX_PERMANENT_N
                debug_assert!(
                    *lane >= -484 && *lane <= 484,
                    "at most two prior factors of magnitude <= 22 per lane"
                );
                // andi::assume(lane in [-484, 484]) — a lane holds at most 22^2 before its next multiply
                *lane *= i64::from(v);
            }
        }
        for (lane, &v) in lanes.iter_mut().zip(it.remainder()) {
            debug_assert!(v >= -(N as i32) && v <= N as i32, "|y_i| <= N");
            // andi::assume(v in [-22, 22]) — |y_i| <= N <= MAX_PERMANENT_N
            debug_assert!(
                *lane >= -484 && *lane <= 484,
                "at most two prior factors of magnitude <= 22 per lane"
            );
            // andi::assume(lane in [-484, 484]) — a lane holds at most 22^2 before its next multiply
            *lane *= i64::from(v);
        }
        // Pairwise fold: each i64 intermediate holds at most
        // ceil(N/2) factors of magnitude <= N.
        debug_assert!(
            lanes.iter().all(|l| (-10648..=10648).contains(l)),
            "at most three factors of magnitude <= 22 per lane"
        );
        // andi::assume(lanes in [-10648, 10648]) — ceil(22/8) = 3 factors of magnitude <= 22 per lane
        let q01 = lanes[0] * lanes[1];
        let q23 = lanes[2] * lanes[3];
        let q45 = lanes[4] * lanes[5];
        let q67 = lanes[6] * lanes[7];
        i128::from(q01 * q23) * i128::from(q45 * q67)
    }
}

#[inline]
fn mask(n: usize) -> u64 {
    if n == 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// Brute-force permanent by recursive expansion; exponential and only
/// for cross-checking Ryser in tests.
pub fn permanent_naive(g: &DenseBigraph) -> u128 {
    let n = g.n();
    assert!(n <= 12, "naive permanent only for tiny graphs");
    let rows: Vec<u64> = (0..n)
        .map(|i| g.row_words(i).first().copied().unwrap_or(0))
        .collect();
    fn rec(rows: &[u64], i: usize, used: u64) -> u128 {
        if i == rows.len() {
            return 1;
        }
        let mut total = 0;
        let mut avail = rows[i] & !used;
        while avail != 0 {
            let j = avail.trailing_zeros() as u64;
            avail &= avail - 1;
            total += rec(rows, i + 1, used | (1 << j));
        }
        total
    }
    rec(&rows, 0, 0)
}

/// The pre-rework scalar Gray-code walk, kept (minus budget polls)
/// as the reference for the kernel-equivalence differential tests:
/// the classic Ryser sum `Σ (-1)^(n-|S|) Π_i |row_i ∩ S|` over the
/// subsets `S = gray(s)`, `s ∈ [s_start, s_end)`, with one branchy
/// row-sum update and a sequential product per subset. Over
/// `[1, 2^n)` it is the permanent itself; for `n <= MAX_PERMANENT_N`
/// its `2^n - 1` terms of magnitude at most `n^n` fit `i128`.
#[cfg(test)]
pub(crate) fn ryser_range_reference(rows: &[u64], n: usize, s_start: u64, s_end: u64) -> i128 {
    let mut prev_gray = (s_start - 1) ^ ((s_start - 1) >> 1);
    let mut row_sums: Vec<i64> = rows
        .iter()
        .map(|&r| i64::from((r & prev_gray).count_ones()))
        .collect();
    let mut total: i128 = 0;
    for s in s_start..s_end {
        let gray = s ^ (s >> 1);
        let changed = gray ^ prev_gray;
        let col = changed.trailing_zeros() as usize;
        let added = gray & changed != 0;
        for (i, row) in rows.iter().enumerate() {
            if row & (1u64 << col) != 0 {
                row_sums[i] += if added { 1 } else { -1 };
            }
        }
        prev_gray = gray;

        let mut prod: i128 = 1;
        for &rs in &row_sums {
            if rs == 0 {
                prod = 0;
                break;
            }
            prod *= i128::from(rs);
        }
        if prod != 0 {
            let popcnt = gray.count_ones() as usize;
            if (n - popcnt).is_multiple_of(2) {
                total += prod;
            } else {
                total -= prod;
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn complete_graph_permanent_is_factorial() {
        for n in 1..=8usize {
            let g = DenseBigraph::complete(n);
            let fact: u128 = (1..=n as u128).product();
            assert_eq!(permanent(&g), fact, "perm(J_{n}) = {n}!");
        }
    }

    #[test]
    fn empty_and_identity() {
        assert_eq!(permanent(&DenseBigraph::new(0)), 1);
        let g = DenseBigraph::new(3);
        assert_eq!(permanent(&g), 0, "no edges, no matchings");
        let mut id = DenseBigraph::new(3);
        for i in 0..3 {
            id.add_edge(i, i);
        }
        assert_eq!(permanent(&id), 1);
    }

    #[test]
    fn staircase_has_unique_matching() {
        // Figure 6(a): right j reachable from lefts 0..=j.
        let mut g = DenseBigraph::new(4);
        for j in 0..4 {
            for i in 0..=j {
                g.add_edge(i, j);
            }
        }
        assert_eq!(permanent(&g), 1);
    }

    #[test]
    fn block_diagonal_multiplies() {
        // Two disjoint complete blocks of sizes 2 and 3: 2! * 3! = 12.
        let mut g = DenseBigraph::new(5);
        for i in 0..2 {
            for j in 0..2 {
                g.add_edge(i, j);
            }
        }
        for i in 2..5 {
            for j in 2..5 {
                g.add_edge(i, j);
            }
        }
        assert_eq!(permanent(&g), 12);
    }

    #[test]
    fn ryser_matches_naive_on_random_graphs() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(41);
        for trial in 0..30 {
            let n = rng.gen_range(1..=7);
            let mut g = DenseBigraph::new(n);
            for i in 0..n {
                for j in 0..n {
                    if rng.gen_bool(0.55) {
                        g.add_edge(i, j);
                    }
                }
            }
            assert_eq!(
                permanent(&g),
                permanent_naive(&g),
                "trial {trial}, n={n}, graph={g:?}"
            );
        }
    }

    #[test]
    fn missing_row_gives_zero_fast() {
        let mut g = DenseBigraph::complete(6);
        g.clear_left(3);
        assert_eq!(permanent(&g), 0);
    }

    #[test]
    #[should_panic(expected = "permanent limited")]
    fn oversize_is_rejected() {
        let g = DenseBigraph::new(MAX_PERMANENT_N + 1);
        let _ = permanent(&g);
    }

    #[test]
    fn stray_high_bits_are_masked_at_entry() {
        // Regression (input hardening): bits >= n in a row mask must
        // not perturb the result. Before the entry-point masking,
        // every consumer had to guarantee clean words itself — a
        // caller building minors by column deletion on a poisoned
        // word shifts a ghost bit INTO the active range, which the
        // kernel then counts as a real candidate.
        let clean: Vec<u64> = vec![0b011, 0b110, 0b101];
        let poisoned: Vec<u64> = clean.iter().map(|&r| r | (1u64 << 40)).collect();
        let b = Budget::unlimited();
        assert_eq!(
            try_permanent_of_rows_budgeted(&poisoned, 3, 1, &b),
            try_permanent_of_rows_budgeted(&clean, 3, 1, &b),
            "stray bit 40 leaked into the walk"
        );
        // A row whose only bits are stray must read as empty (zero
        // permanent), not as a live candidate set.
        let ghost_only: Vec<u64> = vec![0b011, 1u64 << 63, 0b101];
        assert_eq!(try_permanent_of_rows_budgeted(&ghost_only, 3, 1, &b), Ok(0));
    }

    #[test]
    fn mid_walk_seeding_is_consistent() {
        // Any split point of the walk must reproduce the full sum
        // (2^(n-1) = 8 half-space coordinates).
        let rows: Vec<u64> = vec![0b1011, 0b1110, 0b0111, 0b1101];
        let n = 4;
        let full = ryser_block(&rows, n, 0, 8);
        for split in 1..8 {
            let a = ryser_block(&rows, n, 0, split);
            let b = ryser_block(&rows, n, split, 8);
            assert_eq!(a + b, full, "split at {split}");
        }
        // And the finished value matches the brute-force count.
        let mut g = DenseBigraph::new(n);
        for (i, &row) in rows.iter().enumerate() {
            for j in 0..n {
                if row & (1 << j) != 0 {
                    g.add_edge(i, j);
                }
            }
        }
        assert_eq!(finish_walk(n, full), permanent_naive(&g));
    }

    #[test]
    fn chunked_walk_matches_reference_across_thread_counts() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(23);
        // n = 12 is a single chunk; 16 and 18 split into 8 and 32
        // chunk tasks, so the fan-out is genuinely exercised.
        for n in [12usize, 16, 18] {
            let rows: Vec<u64> = (0..n)
                .map(|i| {
                    let mut r = 1u64 << i; // keep feasible
                    for j in 0..n {
                        if rng.gen_bool(0.4) {
                            r |= 1 << j;
                        }
                    }
                    r
                })
                .collect();
            let reference = ryser_range_reference(&rows, n, 1, 1u64 << n);
            let reference = u128::try_from(reference).expect("a permanent is non-negative");
            for threads in 1..=8 {
                let b = Budget::unlimited();
                assert_eq!(
                    try_permanent_of_rows_budgeted(&rows, n, threads, &b),
                    Ok(reference),
                    "n={n}, threads={threads}"
                );
            }
        }
    }

    #[test]
    fn budgeted_zero_budget_trips_before_work() {
        let rows: Vec<u64> = (0..18).map(|i| (1u64 << i) | 1).collect();
        let b = Budget::with_deadline(std::time::Duration::ZERO);
        assert_eq!(
            try_permanent_of_rows_budgeted(&rows, 18, 4, &b),
            Err(ExecError::BudgetExceeded { budget_ms: 0 })
        );
    }

    #[test]
    fn the_cap_walks_the_half_space_at_the_proven_bound() {
        assert_eq!(MAX_PERMANENT_N, 22);
        for n in 1..=MAX_PERMANENT_N {
            assert_eq!(walk_subsets(n), 1u64 << (n - 1), "n={n}");
        }
        // perm(J_22) = 22!: every factor sits at its largest magnitude,
        // so the terms and totals reach the bounds the prover checks.
        let n = MAX_PERMANENT_N;
        let rows = vec![mask(n); n];
        let fact: u128 = (1..=n as u128).product();
        for threads in [1usize, 4] {
            assert_eq!(
                try_permanent_of_rows_budgeted(&rows, n, threads, &Budget::unlimited()),
                Ok(fact),
                "threads={threads}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Kernel-equivalence differential: the branchless SoA walk
        /// must be bit-identical to the pre-rework scalar reference
        /// on random bitmask matrices for n <= 20, at thread counts
        /// 1 and 4 (the CI sweep values).
        #[test]
        fn differential_new_kernel_equals_reference(
            n in 2usize..=20,
            seed in 0u64..1_000_000,
        ) {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let rows: Vec<u64> = (0..n)
                .map(|_| rng.gen_range(0..(1u64 << n)))
                .collect();
            let reference = ryser_range_reference(&rows, n, 1, 1u64 << n);
            let reference = u128::try_from(reference).expect("a permanent is non-negative");
            for threads in [1usize, 4] {
                prop_assert_eq!(
                    try_permanent_of_rows_budgeted(&rows, n, threads, &Budget::unlimited()),
                    Ok(reference),
                    "n={}, threads={}", n, threads
                );
            }
        }
    }
}
