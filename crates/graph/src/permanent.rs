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
//! `popcount(gray(s)) ≡ s (mod 2)` — no popcount in the loop. The
//! accumulator has two lanes:
//!
//! * **unchecked fast lane** (`n <= SAFE_UNCHECKED_N`): plain `i64`
//!   lane products and a plain `i128` total — the bounds below prove
//!   neither can wrap;
//! * **overflow-checked lane** (`n > SAFE_UNCHECKED_N`): lane
//!   products stay provably in-range `u64`s (lane width shrinks with
//!   `n`), lanes combine through `u128::checked_mul`, and the signed
//!   `i128` total uses `checked_add`; any trip reports `Ok(None)` from
//!   [`try_permanent_of_rows_budgeted`] instead of silently wrapping.
//!
//! The fast lane additionally walks only *half* the subset lattice:
//! Nijenhuis–Wilf fold the last column into doubled row factors
//! `y_i(S) = 2·a_{i,n-1} - r_i + 2·|row_i ∩ S|` so that
//! `perm(A) = (-1)^(n-1) / 2^(n-1) · Σ_{S ⊆ [n-1]} (-1)^{|S|} Π y_i(S)`
//! — `2^(n-1)` subsets instead of `2^n - 1`, and `|y_i| ≤ n` keeps
//! every fast-lane overflow bound above intact. The checked lane keeps
//! the plain Ryser walk (the doubled factors would be signed, which
//! the provably-in-range `u64` lane products rely on excluding).
//!
//! One execution strategy drives the kernel: the walk range
//! (`2^(n-1)` half-space subsets in the fast lane, `2^n - 1`
//! non-empty subsets in the checked lane) is split into a fixed layout
//! of contiguous `CHUNK_SUBSETS`-sized chunks — a function of `n`
//! only — and each chunk is one [`crate::par::try_map_indexed`] task
//! that seeds its row sums from the popcounts of its starting Gray
//! code. The budget is polled only at chunk boundaries, never inside
//! the branchless walk. Chunk sums are integers, reduced in chunk
//! order, so the result is bit-identical at any thread count (one
//! worker simply runs the chunks in order).
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

/// Hard cap on the domain size for exact permanents. `2^32` subset
/// iterations is the practical ceiling for the branchless kernel
/// (tens of seconds on one core — beyond it even the budgeted
/// ladder's exact rung cannot finish inside a realistic deadline).
/// Row masks stay single `u64` words far past this bound.
pub const MAX_PERMANENT_N: usize = 32;

/// Largest `n` the unchecked fast lane accepts. Two bounds must hold
/// and both are tight at `n = 22`:
///
/// * **lane products**: the eight multiply chains fold pairwise
///   through `i64`s; the widest intermediate holds at most
///   `ceil(n/2)` factors of magnitude at most `n`, and
///   `22^12 ≈ 1.2e16 < i64::MAX ≈ 9.2e18`;
/// * **total**: at most `2^n - 1` terms of magnitude at most `n^n`
///   accumulate into the `i128` total, and
///   `22^22 · 2^22 ≈ 1.5e36 < i128::MAX ≈ 1.7e38`
///   (`23^23 · 2^23 ≈ 1.8e38` already exceeds it).
///
/// Above this bound the overflow-checked lane runs instead.
const SAFE_UNCHECKED_N: usize = 22;

/// Largest magnitude the fast lane's block-local `i128` total can
/// reach: at most `2^(n-1)` half-space terms of magnitude at most
/// `n^n` each, maximized at `n = SAFE_UNCHECKED_N`, i.e.
/// `2^21 · 22^22`. The interval prover checks the running total stays
/// inside it (see the `andi::assume` in [`ryser_block_fixed`]).
const FIXED_TOTAL_BOUND: i128 = 716_026_155_870_127_773_233_492_469_657_632_768;

/// Largest magnitude of one fast-lane term: `|Π y_i| <= N^N` with
/// `N <= SAFE_UNCHECKED_N`, i.e. `22^22`.
const FIXED_TERM_BOUND: i128 = 341_427_877_364_219_557_396_646_723_584;

/// Largest checked-lane partial product *before* its next factor:
/// `p <= n^(lane_len - 1) < 2^(62 - bits(n)) <= 2^57` for
/// `n > SAFE_UNCHECKED_N` (so `bits(n) >= 5`), which keeps
/// `p · v <= 2^57 · MAX_PERMANENT_N < 2^62` inside `u64`.
const CHECKED_LANE_PARTIAL_MAX: u64 = (1 << 57) - 1;

/// Computes the permanent of the 0/1 adjacency matrix of `g` with
/// Ryser's formula: [`try_permanent_of_rows_budgeted`] on the ambient
/// [`par::available_threads`] worker count and an unlimited budget.
///
/// # Panics
///
/// Panics if `g.n() > MAX_PERMANENT_N` or if the overflow-checked
/// accumulator lane trips (dense graphs near the size cap overflow
/// the signed `i128` total even though the permanent itself may fit
/// `u128`); use [`try_permanent_of_rows_budgeted`] to observe
/// overflow as a value.
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
/// `n >= 1`: the fast lane iterates the Nijenhuis–Wilf half space
/// (all `2^(n-1)` subsets of the first `n-1` columns, empty set
/// included), the checked lane the classic `2^n - 1` non-empty Ryser
/// subsets.
pub(crate) fn walk_subsets(n: usize) -> u64 {
    if n <= SAFE_UNCHECKED_N {
        1u64 << (n - 1)
    } else {
        (1u64 << n) - 1
    }
}

/// Maps the signed walk total back to the permanent. The fast lane's
/// Nijenhuis–Wilf total satisfies
/// `perm = (-1)^(n-1) * total / 2^(n-1)` with the division exact (the
/// walk accumulates doubled factors `y_i = 2a_{i,n-1} - r_i + 2s_i`);
/// the checked lane's total *is* the permanent. `None` is the
/// (checked-lane-only) overflow report.
fn finish_walk(n: usize, total: i128) -> Option<u128> {
    let signed = if n <= SAFE_UNCHECKED_N && n.is_multiple_of(2) {
        -total
    } else {
        total
    };
    debug_assert!(signed >= 0, "permanent of a 0/1 matrix is non-negative");
    let v = u128::try_from(signed).ok()?;
    if n <= SAFE_UNCHECKED_N {
        debug_assert!(
            v & ((1u128 << (n - 1)) - 1) == 0,
            "half-space total must divide by 2^(n-1) exactly"
        );
        Some(v >> (n - 1))
    } else {
        Some(v)
    }
}

/// Subset count per chunk of the walk — and its poll stride: `2^12`
/// keeps the chunk layout fixed (thread-count-independent) while
/// giving budget polls and fault probes useful granularity even at
/// moderate `n` (`n = 16` → 8 half-space chunks). The branchless
/// kernel burns a block of this size in tens of microseconds, so
/// polling only at block boundaries costs one block of overshoot at
/// worst.
const CHUNK_SUBSETS: u64 = 1 << 12;

/// Ryser's formula over explicit row bitmasks — the one exact
/// permanent entry point. `rows[i]` has bit `j` set iff matrix entry
/// `(i, j)` is 1; bits at positions `>= n` are ignored (masked off
/// once at entry). The Gray-code walk is split into a *fixed* chunk
/// layout (`CHUNK_SUBSETS = 2^12` subsets per chunk, independent of
/// `threads`), each chunk runs as one [`par::try_map_indexed`] task
/// carrying the `permanent.chunk` fault probe, and `budget` is polled
/// once per chunk — the walk inside a chunk is a poll-free branchless
/// block.
///
/// `Ok(None)` is accumulator overflow: a `u128` lane-product combine
/// or the signed `i128` total would wrap (possible for dense graphs
/// from `n ≈ 23`, where per-subset terms approach `n^n`).
/// `Ok(Some(v))` is exact at any thread count.
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
) -> Result<Option<u128>, ExecError> {
    assert!(n <= MAX_PERMANENT_N);
    assert_eq!(rows.len(), n);
    if n == 0 {
        return Ok(Some(1));
    }
    // Input hardening: drop stray bits >= n once, so the kernel only
    // ever sees in-range columns (callers that build minors by
    // column deletion can otherwise shift ghost bits into range).
    let rows: Vec<u64> = rows.iter().map(|&r| r & mask(n)).collect();
    // Quick zero: a row with no candidates kills every matching.
    if rows.contains(&0) {
        return Ok(Some(0));
    }

    let subsets = walk_subsets(n);
    let n_chunks = subsets.div_ceil(CHUNK_SUBSETS).max(1) as usize;
    let chunks = par::chunk_ranges(subsets, n_chunks);
    let partials = par::try_map_indexed(threads, chunks.len(), budget, |c| {
        faults::probe("permanent.chunk", c);
        let (lo, hi) = chunks[c];
        ryser_range(&rows, n, lo, hi, budget)
    })?;
    let mut total: i128 = 0;
    for part in partials {
        let Some(v) = part? else { return Ok(None) };
        let Some(acc) = total.checked_add(v) else {
            return Ok(None);
        };
        total = acc;
    }
    Ok(finish_walk(n, total))
}

/// Signed contribution of the exact walk over the 0-based coordinate
/// range `[w_start, w_end) ⊆ [0, walk_subsets(n))`. In the fast lane
/// the coordinate `s` names the Nijenhuis–Wilf half-space subset
/// `S = gray(s)` of the first `n-1` columns (empty set included) and
/// the summand is `(-1)^|S| · Π_i y_i(S)`; in the checked lane it
/// names the classic non-empty Ryser subset `S = gray(s + 1)` with
/// summand `(-1)^(n-|S|) · Π_i |row_i ∩ S|`. Row sums seed from the
/// range start, so any contiguous range can begin mid-walk. The range
/// is processed in poll-free blocks of [`CHUNK_SUBSETS`]; `budget` is
/// polled once per block. `Ok(None)` is accumulator overflow.
fn ryser_range(
    rows: &[u64],
    n: usize,
    w_start: u64,
    w_end: u64,
    budget: &Budget,
) -> Result<Option<i128>, ExecError> {
    let mut total: i128 = 0;
    let mut lo = w_start;
    while lo < w_end {
        budget.check()?;
        let hi = w_end.min(lo.saturating_add(CHUNK_SUBSETS));
        let block = if n <= SAFE_UNCHECKED_N {
            Some(ryser_block_unchecked(rows, n, lo, hi))
        } else {
            ryser_block_checked(rows, n, lo + 1, hi + 1)
        };
        let Some(block) = block else { return Ok(None) };
        // Block partials are prefix-sum differences of the serial
        // walk; folding them with checked_add keeps overflow
        // detection thread-count-independent.
        let Some(next) = total.checked_add(block) else {
            return Ok(None);
        };
        total = next;
        lo = hi;
    }
    Ok(Some(total))
}

/// Branchless Gray-code walk state. The per-row intersection sums
/// live in a flat SoA array of `i32`s; the rows are pre-transposed
/// into a contiguous per-column delta table (`cols[j*n + i] =
/// (rows[i] >> j) & 1`) so the toggle loop is a pure streaming
/// load/xor/sub/add over `n` consecutive lanes — no shifts, no
/// multiplies, no branch per row, which lets the autovectorizer emit
/// wide integer SIMD even at the baseline target.
struct GrayWalk {
    n: usize,
    /// `cols[j*n + i]` is the column-`j` delta for row `i` (0 or 1).
    cols: Vec<i32>,
    sums: [i32; MAX_PERMANENT_N],
    prev_gray: u64,
}

impl GrayWalk {
    /// Seeds the row sums from `gray(s_first - 1)` so the walk can
    /// start at any mid-range `s_first`, and transposes the rows into
    /// the per-column delta table (`n^2` ints, amortized over a
    /// [`CHUNK_SUBSETS`]-sized block).
    fn seeded(rows: &[u64], s_first: u64) -> Self {
        let n = rows.len();
        let prev = s_first - 1;
        let prev_gray = prev ^ (prev >> 1);
        let mut cols = vec![0i32; n * n];
        for (j, chunk) in cols.chunks_exact_mut(n).enumerate() {
            for (c, &row) in chunk.iter_mut().zip(rows) {
                *c = ((row >> j) & 1) as i32;
            }
        }
        let mut sums = [0i32; MAX_PERMANENT_N];
        for (sum, &row) in sums.iter_mut().zip(rows) {
            *sum = (row & prev_gray).count_ones() as i32;
        }
        GrayWalk {
            n,
            cols,
            sums,
            prev_gray,
        }
    }

    /// Advances to the subset `gray`: exactly one column toggles, and
    /// every row sum moves by `delta_i = (rows[i] >> j) & 1` (read
    /// from the transposed table). The sign is applied with the mask
    /// identity `(c ^ m) - m` (`m = 0` keeps `c`, `m = -1` negates
    /// it), so the loop body is load/xor/sub/add — no branch and no
    /// multiply per row.
    #[inline(always)]
    fn advance(&mut self, gray: u64) {
        let changed = gray ^ self.prev_gray;
        let col = changed.trailing_zeros() as usize;
        // 0 when the toggled column joined the subset, -1 when it
        // left.
        let m = (((gray >> col) & 1) as i32).wrapping_sub(1);
        let deltas = &self.cols[col * self.n..col * self.n + self.n];
        for (sum, &c) in self.sums.iter_mut().zip(deltas) {
            *sum += (c ^ m) - m;
        }
        self.prev_gray = gray;
    }

    /// Overflow-checked magnitude of the row-sum product for the
    /// big-`n` lane: consecutive lanes of `lane_len` sums multiply
    /// inside provably in-range `u64`s, lanes combine through
    /// `u128::checked_mul`. `None` is overflow; a zero row sum makes
    /// the product an exact 0 without ever tripping the check.
    #[inline(always)]
    fn term_checked(&self, n: usize, lane_len: usize) -> Option<u128> {
        // andi::prove_no_overflow — the in-range u64 lane products are machine-checked
        let mut acc: u128 = 1;
        for q in self.sums[..n].chunks(lane_len) {
            let mut p: u64 = 1;
            for &v in q {
                debug_assert!(
                    v >= 0 && v <= MAX_PERMANENT_N as i32,
                    "row sums are set cardinalities bounded by n"
                );
                // andi::assume(v in [0, 32]) — |row_i ∩ S| <= n <= MAX_PERMANENT_N
                debug_assert!(
                    p <= CHECKED_LANE_PARTIAL_MAX,
                    "lane partial exceeds n^(lane_len - 1) < 2^57"
                );
                // andi::assume(p in [0, 144115188075855871]) — checked_lane_len keeps p < 2^(62 - bits(n)) <= 2^57 before each factor
                p *= v as u64;
            }
            acc = acc.checked_mul(u128::from(p))?;
        }
        Some(acc)
    }
}

/// Lane width for the checked product of domains of size `n`: the
/// largest `k` with `n^k < 2^62`, so a lane product of `k` factors
/// each `<= n` provably fits `u64`.
fn checked_lane_len(n: usize) -> usize {
    let bits = 64 - (n as u64).leading_zeros() as usize;
    (62 / bits).max(1)
}

/// One poll-free block of the fast lane over walk coordinates
/// `s ∈ [w_start, w_end) ⊆ [0, 2^(n-1))`, `n <= SAFE_UNCHECKED_N`:
/// the Nijenhuis–Wilf half-space sum `Σ (-1)^|S| Π_i y_i(S)` with
/// `S = gray(s)` over the first `n-1` columns and doubled factors
/// `y_i(S) = 2·a_{i,n-1} - r_i + 2·|row_i ∩ S|` (`|y_i| <= n`, so the
/// plain-Ryser overflow bounds carry over while the walk is half as
/// long). Dispatches to a `const N` monomorphization so both inner
/// loops fully unroll and the row sums live in registers.
fn ryser_block_unchecked(rows: &[u64], n: usize, w_start: u64, w_end: u64) -> i128 {
    // Callers dispatch here only for 1 <= n <= SAFE_UNCHECKED_N
    // (n == 0 returns before any walk), so the wildcard arm *is* the
    // `n = SAFE_UNCHECKED_N` monomorphization, not a fallback.
    debug_assert!((1..=SAFE_UNCHECKED_N).contains(&n));
    macro_rules! dispatch {
        ($($k:literal)+) => {
            match n {
                $($k => ryser_block_fixed::<$k>(rows, w_start, w_end),)+
                _ => ryser_block_fixed::<SAFE_UNCHECKED_N>(rows, w_start, w_end),
            }
        };
    }
    dispatch!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21)
}

/// The `const N` fast-lane walk: compile-time trip counts let the
/// whole per-subset body unroll flat. Coordinate 0 (the empty set) is
/// the freshly seeded state itself, so its term is taken before any
/// advance.
fn ryser_block_fixed<const N: usize>(rows: &[u64], w_start: u64, w_end: u64) -> i128 {
    // andi::prove_no_overflow — the fast lane's unchecked accumulation is machine-checked
    let first = w_start.max(1);
    let mut walk = FixedWalk::<N>::seeded(rows, first);
    let mut total: i128 = if w_start == 0 { walk.term() } else { 0 };
    for s in first..w_end {
        debug_assert!(
            (-FIXED_TOTAL_BOUND..=FIXED_TOTAL_BOUND).contains(&total),
            "fast-lane total exceeds the 2^(n-1) * n^n walk bound"
        );
        // andi::assume(total in [-716026155870127773233492469657632768, 716026155870127773233492469657632768]) — at most 2^(N-1) <= 2^21 terms of magnitude <= N^N <= 22^22 accumulate per walk
        total += step_fixed(&mut walk, s);
    }
    total
}

/// One subset of the fast lane: advance, multiply, and apply the
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
        "fast-lane term exceeds the n^n magnitude bound"
    );
    // andi::assume(term in [-341427877364219557396646723584, 341427877364219557396646723584]) — |Π y_i| <= N^N and N <= SAFE_UNCHECKED_N = 22
    // 0 for an even |S|, -1 for odd; `(x ^ m) - m` negates x exactly
    // when m is -1.
    let m = -(s as i128 & 1);
    (term ^ m) - m
}

/// Fast-lane walk state with compile-time `N`: the transposed
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
            (1..=SAFE_UNCHECKED_N).contains(&N),
            "fast-lane monomorphizations stop at SAFE_UNCHECKED_N"
        );
        // andi::assume(N in [1, 22]) — ryser_block_unchecked dispatches only N in 1..=SAFE_UNCHECKED_N
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
            (1..=SAFE_UNCHECKED_N).contains(&N),
            "fast-lane monomorphizations stop at SAFE_UNCHECKED_N"
        );
        // andi::assume(N in [1, 22]) — ryser_block_unchecked dispatches only N in 1..=SAFE_UNCHECKED_N
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
            // andi::assume(sum in [-22, 22]) — |y_i| <= N <= SAFE_UNCHECKED_N before every toggle
            *sum += (c ^ m) - m;
        }
        self.prev_gray = gray;
    }

    /// Product of the factors via eight independent multiply chains
    /// (for instruction-level parallelism), folded pairwise so only
    /// the final fold widens to `i128`. Unchecked: safe for
    /// `N <= SAFE_UNCHECKED_N` by the lane bounds documented there
    /// (`|y_i| <= N`, same magnitude as the plain-Ryser row sums).
    #[inline(always)]
    fn term(&self) -> i128 {
        // andi::prove_no_overflow — the unchecked multiply chains are machine-checked
        let mut lanes = [1i64; 8];
        let mut it = self.sums.chunks_exact(8);
        for q in it.by_ref() {
            for (lane, &v) in lanes.iter_mut().zip(q) {
                debug_assert!(v >= -(N as i32) && v <= N as i32, "|y_i| <= N");
                // andi::assume(v in [-22, 22]) — |y_i| <= N <= SAFE_UNCHECKED_N
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
            // andi::assume(v in [-22, 22]) — |y_i| <= N <= SAFE_UNCHECKED_N
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

/// One poll-free block of the overflow-checked lane:
/// `s ∈ [s_start, s_end)`, `n > SAFE_UNCHECKED_N`. `None` is
/// overflow — of a lane combine, of the `u128 → i128` narrowing, or
/// of the signed total.
fn ryser_block_checked(rows: &[u64], n: usize, s_start: u64, s_end: u64) -> Option<i128> {
    let lane_len = checked_lane_len(n);
    let mut walk = GrayWalk::seeded(rows, s_start);
    let mut total: i128 = 0;
    for s in s_start..s_end {
        total = total.checked_add(step_checked(&mut walk, n, lane_len, s)?)?;
    }
    Some(total)
}

/// One subset of the checked lane: `None` when the term magnitude
/// cannot be represented as a (positive) `i128`.
#[inline(always)]
fn step_checked(walk: &mut GrayWalk, n: usize, lane_len: usize, s: u64) -> Option<i128> {
    let gray = s ^ (s >> 1);
    walk.advance(gray);
    let magnitude = walk.term_checked(n, lane_len)?;
    let term = i128::try_from(magnitude).ok()?;
    let m = -((n as u64 ^ s) as i128 & 1);
    Some((term ^ m) - m)
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

/// The pre-rework scalar Gray-code walk, kept verbatim (minus budget
/// polls) as the reference for the kernel-equivalence differential
/// tests: one branchy row-sum update and a sequential checked
/// product per subset.
#[cfg(test)]
pub(crate) fn ryser_range_reference(
    rows: &[u64],
    n: usize,
    s_start: u64,
    s_end: u64,
) -> Option<i128> {
    let mut prev_gray = (s_start - 1) ^ ((s_start - 1) >> 1);
    let mut row_sums: Vec<i64> = rows
        .iter()
        .map(|&r| i64::from((r & prev_gray).count_ones()))
        .collect();
    let checked = n > SAFE_UNCHECKED_N;
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
            if checked {
                match prod.checked_mul(i128::from(rs)) {
                    Some(p) => prod = p,
                    None => return None,
                }
            } else {
                prod *= i128::from(rs);
            }
        }
        if prod != 0 {
            let popcnt = gray.count_ones() as usize;
            if checked {
                let next = if (n - popcnt).is_multiple_of(2) {
                    total.checked_add(prod)
                } else {
                    total.checked_sub(prod)
                };
                match next {
                    Some(t) => total = t,
                    None => return None,
                }
            } else if (n - popcnt).is_multiple_of(2) {
                total += prod;
            } else {
                total -= prod;
            }
        }
    }
    Some(total)
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
        assert_eq!(
            try_permanent_of_rows_budgeted(&ghost_only, 3, 1, &b),
            Ok(Some(0))
        );
    }

    #[test]
    fn mid_walk_seeding_is_consistent() {
        // Any split point of the walk must reproduce the full sum
        // (fast lane: 2^(n-1) = 8 half-space coordinates).
        let rows: Vec<u64> = vec![0b1011, 0b1110, 0b0111, 0b1101];
        let n = 4;
        let b0 = Budget::unlimited();
        let full = ryser_range(&rows, n, 0, 8, &b0).unwrap().unwrap();
        for split in 1..8 {
            let a = ryser_range(&rows, n, 0, split, &b0).unwrap().unwrap();
            let b = ryser_range(&rows, n, split, 8, &b0).unwrap().unwrap();
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
        assert_eq!(finish_walk(n, full), Some(permanent_naive(&g)));
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
            let reference =
                ryser_range_reference(&rows, n, 1, 1u64 << n).and_then(|t| u128::try_from(t).ok());
            assert!(reference.is_some(), "n={n} must not overflow");
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
    fn dense_overflow_near_the_cap_is_detected_not_wrapped() {
        // perm(J_27) = 27! fits u128 easily, but Ryser's signed
        // partial sums reach ~27^27 ≈ 4.4e38 > i128::MAX: the checked
        // path must report overflow instead of wrapping. The dense
        // overflow walk itself (~10^8 subsets, the expensive part)
        // now runs once in `exact::tests::
        // dense_overflow_is_a_structured_error_not_a_panic`, which
        // asserts the same overflow `Ok(None)` through the audited
        // structured-error caller; here we keep the cheap half.

        // A sparse graph at the same size stays exact: identity plus
        // one extra diagonal has permanent 1 (staircase argument) —
        // actually identity + superdiagonal: count matchings = F(n+1)
        // style; just cross-check against a block-diagonal value we
        // can compute: 13 disjoint complete 2-blocks + 1 singleton
        // inside n = 27 gives 2^13.
        let mut g = DenseBigraph::new(27);
        for b in 0..13 {
            for i in 0..2 {
                for j in 0..2 {
                    g.add_edge(2 * b + i, 2 * b + j);
                }
            }
        }
        g.add_edge(26, 26);
        assert_eq!(permanent(&g), 1 << 13);
    }

    #[test]
    fn factorial_stays_exact_in_checked_range() {
        // perm(J_23): n = 23 is the first checked-arithmetic size;
        // 23! must come out exactly (no overflow for the running
        // partial sums of the complete graph at this n... if the
        // checked path reports overflow the assertion fails loudly
        // rather than silently wrapping).
        let n = 23;
        let rows = vec![mask(n); n];
        let fact: u128 = (1..=n as u128).product();
        match try_permanent_of_rows_budgeted(&rows, n, 2, &Budget::unlimited()) {
            Ok(Some(v)) => assert_eq!(v, fact),
            other => panic!("23! must not overflow i128, got {other:?}"),
        }
    }

    #[test]
    fn raised_cap_is_exact_in_the_checked_lane() {
        // Block-diagonal structure inside the raised cap: 16 disjoint
        // complete 2-blocks at n = MAX_PERMANENT_N = 32 give exactly
        // 2^16 matchings — a full 2^32 walk would take tens of
        // seconds, so the oversize boundary is pinned structurally at
        // n = 24 instead (8 complete 3-blocks: 6^8).
        let n = 24;
        let mut rows = vec![0u64; n];
        for b in 0..8 {
            let block = 0b111u64 << (3 * b);
            for i in 0..3 {
                rows[3 * b + i] = block;
            }
        }
        assert_eq!(
            try_permanent_of_rows_budgeted(
                &rows,
                n,
                par::available_threads(),
                &Budget::unlimited()
            ),
            Ok(Some(6u128.pow(8)))
        );
    }

    #[test]
    fn checked_lane_width_is_safe() {
        for n in SAFE_UNCHECKED_N + 1..=MAX_PERMANENT_N {
            let k = checked_lane_len(n);
            // n^k must fit u64 comfortably (the documented 2^62
            // margin), and one extra factor must be the first that
            // could not.
            let lane_max = (n as u128).pow(k as u32);
            assert!(lane_max < (1u128 << 62), "n={n}, lane={k}");
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
            let subsets = (1u64 << n) - 1;
            let reference = ryser_range_reference(&rows, n, 1, subsets + 1)
                .and_then(|t| u128::try_from(t).ok());
            for threads in [1usize, 4] {
                prop_assert_eq!(
                    try_permanent_of_rows_budgeted(&rows, n, threads, &Budget::unlimited()),
                    Ok(reference),
                    "n={}, threads={}", n, threads
                );
            }
        }

        /// The checked lane agrees with the reference too (smaller n
        /// range: the reference walk is slow). Masks are forced
        /// feasible so the values are non-trivial.
        #[test]
        fn differential_checked_lane_equals_reference(
            seed in 0u64..1_000_000,
        ) {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let n = 23usize; // first checked-arithmetic size
            let mut rng = StdRng::seed_from_u64(seed);
            // Sparse rows keep the reference walk fast (most terms 0).
            let rows: Vec<u64> = (0..n)
                .map(|i| {
                    let mut r = 1u64 << i;
                    for _ in 0..3 {
                        r |= 1u64 << rng.gen_range(0..n);
                    }
                    r
                })
                .collect();
            // Sample a band of the walk rather than all 2^23 subsets
            // (walk coordinate w maps to Ryser subset s = w + 1 in
            // the checked lane).
            let lo = 1u64 << 18;
            let hi = lo + (1u64 << 15);
            let b = Budget::unlimited();
            let new = ryser_range(&rows, n, lo, hi, &b).unwrap();
            let reference = ryser_range_reference(&rows, n, lo + 1, hi + 1);
            prop_assert_eq!(new, reference);
        }
    }
}
