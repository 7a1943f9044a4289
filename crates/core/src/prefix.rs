//! 2D prefix sums (the paper's Γ array) and axis-oriented views.
//!
//! # Substrate layout (DESIGN.md §13)
//!
//! [`PrefixSum2D`] is a facade over two interchangeable backends behind
//! the [`GammaBackend`] query contract:
//!
//! * the **dense** array — `(rows+1)·(cols+1)` `u64`s, O(1) queries,
//!   built by one row-major pass of plain adds behind a single up-front
//!   overflow check (the per-cell-checked original survives as
//!   [`PrefixSum2D::try_new_reference`], the differential oracle and
//!   benchmark baseline);
//! * the **sparse** CSR-like [`SparsePrefixSum`] — per-row nonzero
//!   prefix runs, for zero-heavy instances.
//!
//! Backend choice is explicit ([`GammaMode`]), automatic above a
//! zero-density threshold ([`PrefixSum2D::try_new_auto`]), or forced
//! process-wide through the `RECTPART_GAMMA` environment variable (how
//! CI runs the whole differential suite against the sparse backend).
//! Queries are bit-identical across backends, so solver output never
//! depends on the choice.

use crate::error::RectpartError;
use crate::geometry::{Axis, Rect};
use crate::matrix::LoadMatrix;
use crate::sparse::SparsePrefixSum;

/// Query contract shared by every Γ backend: exact `u64` rectangle
/// loads over a fixed `rows × cols` matrix. Implementations must answer
/// bit-identically for the same matrix — the differential suite holds
/// the dense and sparse backends to that.
pub trait GammaBackend {
    /// Number of rows of the underlying matrix.
    fn rows(&self) -> usize;
    /// Number of columns of the underlying matrix.
    fn cols(&self) -> usize;
    /// Total load of the matrix.
    fn total(&self) -> u64;
    /// Load of rows `[r0, r1)` × cols `[c0, c1)`.
    fn sum4(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> u64;
    /// Load of a rectangle.
    fn sum(&self, r: &Rect) -> u64 {
        self.sum4(r.r0, r.r1, r.c0, r.c1)
    }
    /// Heap bytes held by the Γ representation.
    fn gamma_bytes(&self) -> usize;
}

/// Γ backend selection policy (CLI `--gamma dense|sparse|auto`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum GammaMode {
    /// The dense prefix array — the paper's Γ, O(1) queries.
    #[default]
    Dense,
    /// The CSR-like [`SparsePrefixSum`] — compact on zero-heavy input.
    Sparse,
    /// Dense below [`SPARSE_ZERO_FRACTION_PERCENT`] zero density, sparse above.
    Auto,
}

impl GammaMode {
    /// Parses `"dense"`, `"sparse"`, or `"auto"` (ASCII case-insensitive).
    pub fn parse(s: &str) -> Option<GammaMode> {
        let s = s.trim();
        if s.eq_ignore_ascii_case("dense") {
            Some(GammaMode::Dense)
        } else if s.eq_ignore_ascii_case("sparse") {
            Some(GammaMode::Sparse)
        } else if s.eq_ignore_ascii_case("auto") {
            Some(GammaMode::Auto)
        } else {
            None
        }
    }

    /// The process-wide override from the `RECTPART_GAMMA` environment
    /// variable, read once per process. Unset or unparsable → `None`.
    pub fn from_env() -> Option<GammaMode> {
        static MODE: std::sync::OnceLock<Option<GammaMode>> = std::sync::OnceLock::new();
        *MODE.get_or_init(|| {
            std::env::var("RECTPART_GAMMA")
                .ok()
                .and_then(|s| GammaMode::parse(&s))
        })
    }

    /// The lowercase name [`parse`](Self::parse) accepts — the spelling
    /// used in stats JSON and CLI output.
    pub fn as_str(self) -> &'static str {
        match self {
            GammaMode::Dense => "dense",
            GammaMode::Sparse => "sparse",
            GammaMode::Auto => "auto",
        }
    }
}

/// Zero-cell fraction above which [`PrefixSum2D::try_new_auto`] picks
/// the sparse backend. At 75% zeros the run storage is already well
/// under half the dense footprint; below it, dense O(1) queries win.
pub const SPARSE_ZERO_FRACTION_PERCENT: u32 = 75;

/// The two storage backends behind the facade.
#[derive(Clone, Debug)]
enum Repr {
    /// `(rows+1) × (cols+1)`, row-major, first row/col all zero.
    Dense(Vec<u64>),
    Sparse(SparsePrefixSum),
}

/// The 2D prefix-sum array Γ of a load matrix:
/// `Γ[r][c] = Σ_{r'<r, c'<c} A[r'][c']` with a zero border, so any
/// rectangle load is four lookups (paper §2.1).
///
/// Construction also records the matrix totals and extrema used by the
/// lower bounds and the Δ-based guarantee formulas.
///
/// ```
/// use rectpart_core::{LoadMatrix, PrefixSum2D, Rect};
///
/// let m = LoadMatrix::from_fn(4, 4, |r, c| (r * 4 + c) as u32);
/// let pfx = PrefixSum2D::new(&m);
/// assert_eq!(pfx.load(&Rect::new(1, 3, 1, 3)), 5 + 6 + 9 + 10);
/// assert_eq!(pfx.total(), m.total());
/// assert!(pfx.lower_bound(4) >= pfx.total() / 4);
/// ```
#[derive(Clone, Debug)]
pub struct PrefixSum2D {
    rows: usize,
    cols: usize,
    repr: Repr,
    total: u64,
    max_cell: u32,
    min_cell: u32,
}

/// Matrices of at most this many `u32` cells cannot overflow Γ:
/// `(2³² + 1) · (2³² − 1) = 2⁶⁴ − 1`.
const OVERFLOW_FREE_CELLS: u128 = (1 << 32) + 1;

/// `true` when a `rows × cols` matrix of `u32` cells is large enough
/// that its grand total — the largest Γ entry — could reach 2⁶⁴.
pub(crate) fn may_overflow(rows: usize, cols: usize) -> bool {
    rows as u128 * cols as u128 > OVERFLOW_FREE_CELLS
}

/// The overflow rule of every Γ build: errs iff the grand total reaches
/// 2⁶⁴. Every Γ entry is a partial sum of non-negative cells, so none
/// exceeds the total, and once this passes every later add is exact.
/// Only matrices above [`OVERFLOW_FREE_CELLS`] pay for a `u128` sum.
fn check_total(a: &LoadMatrix) -> Result<(), RectpartError> {
    if !may_overflow(a.rows(), a.cols()) {
        return Ok(());
    }
    let total: u128 = a.data().iter().map(|&v| u128::from(v)).sum();
    if total > u128::from(u64::MAX) {
        return Err(RectpartError::Overflow);
    }
    Ok(())
}

impl PrefixSum2D {
    /// Builds Γ, aborting on overflow. Thin shim over [`Self::try_new`]
    /// for tests and trusted callers; the fallible path is `try_new`.
    ///
    /// # Panics
    ///
    /// Panics if the running sum overflows `u64` (same condition on both
    /// paths: overflow of any Γ entry).
    pub fn new(a: &LoadMatrix) -> Self {
        // lint:allow(panic) -- boundary shim: trusted callers opt into abort-on-overflow; the fallible path is try_new
        Self::try_new(a).expect("2D prefix sum overflow")
    }

    /// Builds Γ, surfacing overflow as [`RectpartError::Overflow`]
    /// instead of aborting. Uses the dense backend unless the
    /// `RECTPART_GAMMA` environment variable overrides the choice; for
    /// explicit control use [`Self::try_new_with`].
    ///
    /// The dense build is one serial row-major pass, so the result is
    /// the same at any thread count. Overflow of any Γ entry —
    /// equivalently, the grand total reaching 2⁶⁴ — is decided once,
    /// before the pass.
    pub fn try_new(a: &LoadMatrix) -> Result<Self, RectpartError> {
        Self::try_new_with(a, GammaMode::from_env().unwrap_or(GammaMode::Dense))
    }

    /// [`Self::try_new`] with automatic backend selection: sparse above
    /// [`SPARSE_ZERO_FRACTION_PERCENT`] zero cells, dense otherwise.
    /// `RECTPART_GAMMA` still takes precedence when set.
    pub fn try_new_auto(a: &LoadMatrix) -> Result<Self, RectpartError> {
        Self::try_new_with(a, GammaMode::from_env().unwrap_or(GammaMode::Auto))
    }

    /// [`Self::try_new`] forcing the sparse backend (no env override).
    pub fn try_new_sparse(a: &LoadMatrix) -> Result<Self, RectpartError> {
        Self::try_new_with(a, GammaMode::Sparse)
    }

    /// Builds Γ with an explicit backend policy. `Sparse` falls back to
    /// the dense array when the matrix shape exceeds the sparse
    /// backend's `u32` indices (≥ 2³² cells).
    pub fn try_new_with(a: &LoadMatrix, mode: GammaMode) -> Result<Self, RectpartError> {
        rectpart_obs::incr(rectpart_obs::Counter::GammaBuilds);
        let _timer = rectpart_obs::phase(rectpart_obs::Phase::Gamma);
        let rows = a.rows();
        let cols = a.cols();
        let sparse = match mode {
            GammaMode::Dense => false,
            GammaMode::Sparse => SparsePrefixSum::indexable(rows, cols),
            GammaMode::Auto => Self::auto_picks_sparse(a),
        };
        let _span = rectpart_obs::span::enter(if sparse {
            rectpart_obs::span::SpanKind::GammaSparse
        } else {
            rectpart_obs::span::SpanKind::GammaDense
        });
        rectpart_obs::work::charge((rows * cols) as u64 + 1);
        #[cfg(feature = "faultinject")]
        if rectpart_obs::fault::gamma_should_overflow() {
            return Err(RectpartError::Overflow);
        }
        if sparse {
            let s = SparsePrefixSum::build(a)?;
            return Ok(Self {
                rows,
                cols,
                total: s.total(),
                max_cell: s.max_cell(),
                min_cell: s.min_cell(),
                repr: Repr::Sparse(s),
            });
        }
        Self::try_new_dense(a)
    }

    /// `true` when [`GammaMode::Auto`] selects the sparse backend: the
    /// zero-cell fraction reaches [`SPARSE_ZERO_FRACTION_PERCENT`] and
    /// the shape fits the sparse indices. One O(cells) scan — noise next
    /// to the build it steers.
    fn auto_picks_sparse(a: &LoadMatrix) -> bool {
        let cells = a.rows() * a.cols();
        if cells == 0 || !SparsePrefixSum::indexable(a.rows(), a.cols()) {
            return false;
        }
        let zeros = a.data().iter().filter(|&&v| v == 0).count();
        (zeros as u128) * 100 >= (cells as u128) * SPARSE_ZERO_FRACTION_PERCENT as u128
    }

    /// The original one-pass construction with **two checked additions
    /// per cell**, kept verbatim as the differential oracle for the
    /// dense build and as the substrate benchmark's "before" baseline.
    /// Produces bit-identical results to [`Self::try_new`] under the
    /// dense backend and errs under the identical condition.
    pub fn try_new_reference(a: &LoadMatrix) -> Result<Self, RectpartError> {
        rectpart_obs::incr(rectpart_obs::Counter::GammaBuilds);
        let rows = a.rows();
        let cols = a.cols();
        let w = cols + 1;
        let mut g = vec![0u64; (rows + 1) * w];
        let mut max_cell = 0u32;
        let mut min_cell = u32::MAX;
        for r in 0..rows {
            let mut row_sum = 0u64;
            let src = a.row(r);
            for c in 0..cols {
                let v = src[c];
                max_cell = max_cell.max(v);
                min_cell = min_cell.min(v);
                row_sum = row_sum
                    .checked_add(v as u64)
                    .ok_or(RectpartError::Overflow)?;
                let above = g[r * w + (c + 1)];
                g[(r + 1) * w + (c + 1)] =
                    above.checked_add(row_sum).ok_or(RectpartError::Overflow)?;
            }
        }
        if rows == 0 || cols == 0 {
            min_cell = 0;
        }
        let total = g[(rows + 1) * w - 1];
        Ok(Self::from_dense(rows, cols, g, total, max_cell, min_cell))
    }

    fn from_dense(
        rows: usize,
        cols: usize,
        g: Vec<u64>,
        total: u64,
        max_cell: u32,
        min_cell: u32,
    ) -> Self {
        Self {
            rows,
            cols,
            repr: Repr::Dense(g),
            total,
            max_cell,
            min_cell,
        }
    }

    /// The dense build: [`check_total`], then one plain row-major pass.
    /// Each Γ row is the row above plus the running prefix of its matrix
    /// row, `Γ[r+1][c+1] = Γ[r][c+1] + Σ_{c'≤c} A[r][c']`; the same loop
    /// takes the cell extrema. No add can overflow once the total fits
    /// `u64`, so this errs iff [`Self::try_new_reference`] errs and is
    /// bit-identical to it on success.
    fn try_new_dense(a: &LoadMatrix) -> Result<Self, RectpartError> {
        check_total(a)?;
        let rows = a.rows();
        let cols = a.cols();
        let mut g = vec![0u64; (rows + 1) * (cols + 1)];
        let mut max_cell = 0u32;
        let mut min_cell = u32::MAX;
        let mut grid = g.chunks_exact_mut(cols + 1);
        let mut prev: &[u64] = grid.next().map_or(&[], |border| border);
        // `chunks_exact(0)` panics; a 0-column matrix has no cells, so
        // chunks of 1 yield none.
        for (cur, src) in grid.zip(a.data().chunks_exact(cols.max(1))) {
            let mut rs = 0u64;
            let lanes = cur.iter_mut().zip(prev).skip(1).zip(src);
            for ((out, &above), &v) in lanes {
                max_cell = max_cell.max(v);
                min_cell = min_cell.min(v);
                rs += u64::from(v);
                *out = above + rs;
            }
            prev = cur;
        }
        if rows == 0 || cols == 0 {
            min_cell = 0;
        }
        let total = prev.last().copied().unwrap_or(0);
        Ok(Self::from_dense(rows, cols, g, total, max_cell, min_cell))
    }

    /// Number of rows of the underlying matrix.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns of the underlying matrix.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total load of the matrix.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Largest single-cell load (a lower bound on any `Lmax`).
    pub fn max_cell(&self) -> u32 {
        self.max_cell
    }

    /// Smallest single-cell load.
    pub fn min_cell(&self) -> u32 {
        self.min_cell
    }

    /// Δ = max/min cell load; `None` when a zero cell exists.
    pub fn delta(&self) -> Option<f64> {
        if self.min_cell == 0 {
            None
        } else {
            Some(self.max_cell as f64 / self.min_cell as f64)
        }
    }

    /// `true` when this instance holds the sparse backend.
    pub fn is_sparse(&self) -> bool {
        matches!(self.repr, Repr::Sparse(_))
    }

    /// The backend actually selected ([`GammaMode::Dense`] or
    /// [`GammaMode::Sparse`], never `Auto`).
    pub fn backend(&self) -> GammaMode {
        match self.repr {
            Repr::Dense(_) => GammaMode::Dense,
            Repr::Sparse(_) => GammaMode::Sparse,
        }
    }

    /// Heap bytes held by the Γ representation.
    pub fn gamma_bytes(&self) -> usize {
        match &self.repr {
            Repr::Dense(g) => g.len() * std::mem::size_of::<u64>(),
            Repr::Sparse(s) => s.gamma_bytes(),
        }
    }

    /// The dense Γ entries, when the dense backend is active (tests
    /// compare constructions entry by entry).
    #[cfg(test)]
    pub(crate) fn dense_entries(&self) -> Option<&[u64]> {
        match &self.repr {
            Repr::Dense(g) => Some(g),
            Repr::Sparse(_) => None,
        }
    }

    /// Load of rows `[r0, r1)` × cols `[c0, c1)`. O(1) on the dense
    /// backend; see [`SparsePrefixSum::sum4`] for the sparse costs.
    #[inline]
    pub fn load4(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> u64 {
        debug_assert!(r0 <= r1 && r1 <= self.rows && c0 <= c1 && c1 <= self.cols);
        match &self.repr {
            Repr::Dense(g) => {
                let w = self.cols + 1;
                // lint:allow(panic-reach) -- API contract (debug_assert
                // above): r* <= rows, c* <= cols, and g.len() = (rows+1)*w,
                // so every corner index r*w + c <= rows*w + cols < g.len()
                g[r1 * w + c1] + g[r0 * w + c0] - g[r0 * w + c1] - g[r1 * w + c0]
            }
            Repr::Sparse(s) => s.sum4(r0, r1, c0, c1),
        }
    }

    /// Load of a rectangle (O(1) on the dense backend).
    #[inline]
    pub fn load(&self, r: &Rect) -> u64 {
        self.load4(r.r0, r.r1, r.c0, r.c1)
    }

    /// The two classical lower bounds on the optimal maximum load
    /// (paper §2.1): `⌈total/m⌉` and the largest cell.
    pub fn lower_bound(&self, m: usize) -> u64 {
        assert!(m >= 1);
        let avg = self.total.div_ceil(m as u64);
        avg.max(self.max_cell as u64)
    }

    /// Average per-processor load `total / m` as a float (denominator of
    /// the load-imbalance metric).
    pub fn average_load(&self, m: usize) -> f64 {
        self.total as f64 / m as f64
    }

    /// An axis-oriented view with `axis` as the main dimension.
    pub fn view(&self, axis: Axis) -> View<'_> {
        View { pfx: self, axis }
    }

    /// Applies row-granular delta updates to `a` **and** patches this Γ
    /// in place, keeping the two consistent — the resident engine's
    /// alternative to a full rebuild when only a few rows moved.
    ///
    /// Each [`RowUpdate`] replaces one whole matrix row. Updates are
    /// applied in order (a later update to the same row wins). The
    /// patched Γ is **bit-identical** to a fresh build from the updated
    /// matrix on either backend:
    ///
    /// * **dense** — a changed row `r` shifts every Γ row `> r` by that
    ///   row's column-prefix delta. The deltas are folded into one
    ///   cumulative per-column correction and swept down the table once,
    ///   in two's-complement (`wrapping`) arithmetic: the true new
    ///   entries are exact sums below 2⁶⁴ (pre-checked), so arithmetic
    ///   mod 2⁶⁴ reproduces them exactly. O(changed·n + span·n) where
    ///   `span` is the distance from the first changed row to the
    ///   bottom, versus O(rows·n) for a rebuild — and no Γ allocation.
    /// * **sparse** — changed rows are rescanned, unchanged rows' run
    ///   storage is spliced over verbatim (within-row prefixes do not
    ///   depend on other rows), and the dense borders are recomputed in
    ///   the same accumulation order as a fresh
    ///   [`SparsePrefixSum::build`], so every array matches it
    ///   bit-for-bit.
    ///
    /// Overflow (new grand total ≥ 2⁶⁴) and validation errors are
    /// detected **before** anything is mutated: on `Err`, matrix, Γ, and
    /// `extrema` are all unchanged.
    ///
    /// `extrema` must describe `a` (build it once per resident matrix
    /// with [`RowExtrema::new`]); it is patched along with Γ so the
    /// facade's [`max_cell`](Self::max_cell)/[`min_cell`](Self::min_cell)
    /// stay exact in O(rows) instead of O(cells) per delta.
    ///
    /// Charges [`DeltaRowsPatched`](rectpart_obs::Counter::DeltaRowsPatched)
    /// and `changed·(cols+1) + 1` work units (the row-repair work proxy;
    /// a rebuild charges `rows·cols + 1`). Returns the number of rows
    /// patched (after de-duplication).
    pub fn apply_row_updates(
        &mut self,
        a: &mut LoadMatrix,
        updates: &[RowUpdate],
        extrema: &mut RowExtrema,
    ) -> Result<u64, RectpartError> {
        let rows = self.rows;
        let cols = self.cols;
        if a.rows() != rows || a.cols() != cols || extrema.max.len() != rows {
            return Err(RectpartError::DimMismatch {
                rows,
                cols,
                len: a.data().len(),
            });
        }
        // Validate, then de-duplicate keeping the last update per row.
        let mut slot: Vec<Option<&[u32]>> = vec![None; rows];
        for u in updates {
            if u.row >= rows {
                return Err(RectpartError::RowOutOfRange { row: u.row, rows });
            }
            if u.cells.len() != cols {
                return Err(RectpartError::RaggedRow {
                    row: u.row,
                    expected: cols,
                    got: u.cells.len(),
                });
            }
            // lint:allow(panic-reach) -- u.row < rows = slot.len() just checked
            slot[u.row] = Some(&u.cells);
        }
        let deduped: Vec<(usize, &[u32])> = slot
            .iter()
            .enumerate()
            .filter_map(|(r, c)| c.map(|cells| (r, cells)))
            .collect();
        if deduped.is_empty() {
            return Ok(0);
        }
        // Pre-check the new grand total so the patch cannot overflow
        // mid-sweep — the same error condition as a cold build (total
        // reaching 2⁶⁴), detected before any state changes.
        let mut new_total = self.total as i128;
        for &(r, cells) in &deduped {
            let old: i128 = a.row(r).iter().map(|&v| v as i128).sum();
            let new: i128 = cells.iter().map(|&v| v as i128).sum();
            new_total += new - old;
        }
        if new_total >= (1i128 << 64) {
            return Err(RectpartError::Overflow);
        }
        let k = deduped.len() as u64;
        let _timer = rectpart_obs::phase(rectpart_obs::Phase::Gamma);
        rectpart_obs::add(rectpart_obs::Counter::DeltaRowsPatched, k);
        rectpart_obs::work::charge(k * (cols as u64 + 1) + 1);

        if let Repr::Dense(g) = &mut self.repr {
            // Sweep once from the first changed row to the bottom,
            // folding each changed row's column-prefix delta into a
            // cumulative per-column correction as it is passed.
            let w = cols + 1;
            let mut cum = vec![0u64; w];
            let first = deduped[0].0;
            let mut next = 0usize;
            for i in (first + 1)..=rows {
                let r = i - 1;
                if next < deduped.len() && deduped[next].0 == r {
                    let cells = deduped[next].1;
                    next += 1;
                    let src = a.row(r);
                    let mut old_p = 0u64;
                    let mut new_p = 0u64;
                    for c in 0..cols {
                        old_p = old_p.wrapping_add(src[c] as u64);
                        new_p = new_p.wrapping_add(cells[c] as u64);
                        // lint:allow(panic-reach) -- c < cols < w = cum.len()
                        cum[c + 1] = cum[c + 1].wrapping_add(new_p.wrapping_sub(old_p));
                    }
                }
                // lint:allow(panic-reach) -- g.len() = (rows+1)*w and i <= rows
                let grow = &mut g[i * w..(i + 1) * w];
                for c in 1..w {
                    grow[c] = grow[c].wrapping_add(cum[c]);
                }
            }
        }
        // Commit the rows to the matrix and the extrema scratch.
        for &(r, cells) in &deduped {
            // lint:allow(panic-reach) -- r < rows, cells.len() == cols
            a.data_mut()[r * cols..(r + 1) * cols].copy_from_slice(cells);
            extrema.set_row(r, cells);
        }
        let (max_cell, min_cell) = extrema.fold(rows * cols);
        // Sparse backend: splice a fresh structure around the changed rows.
        if let Repr::Sparse(s) = &self.repr {
            let changed: Vec<usize> = deduped.iter().map(|&(r, _)| r).collect();
            self.repr = Repr::Sparse(s.patched_rows(a, &changed, max_cell, min_cell));
        }
        self.total = new_total as u64;
        self.max_cell = max_cell;
        self.min_cell = min_cell;
        Ok(k)
    }
}

/// One replaced row of a delta update (see
/// [`PrefixSum2D::apply_row_updates`]): the full new contents of
/// matrix row `row`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RowUpdate {
    /// Row index to replace.
    pub row: usize,
    /// New cell loads; must be exactly `cols` long.
    pub cells: Vec<u32>,
}

/// Per-row cell extrema of a resident matrix — the O(rows) scratch that
/// lets [`PrefixSum2D::apply_row_updates`] keep the global
/// `max_cell`/`min_cell` exact without rescanning the whole matrix
/// (the previous maximum may have lived in a row the delta shrank).
#[derive(Clone, Debug)]
pub struct RowExtrema {
    max: Vec<u32>,
    min: Vec<u32>,
}

impl RowExtrema {
    /// Scans `a` once and records each row's max and min cell.
    pub fn new(a: &LoadMatrix) -> Self {
        let rows = a.rows();
        let mut max = Vec::with_capacity(rows);
        let mut min = Vec::with_capacity(rows);
        for r in 0..rows {
            let (mut mx, mut mn) = (0u32, u32::MAX);
            for &v in a.row(r) {
                mx = mx.max(v);
                mn = mn.min(v);
            }
            max.push(mx);
            min.push(mn);
        }
        Self { max, min }
    }

    /// Re-records row `r` from its new contents.
    fn set_row(&mut self, r: usize, cells: &[u32]) {
        let (mut mx, mut mn) = (0u32, u32::MAX);
        for &v in cells {
            mx = mx.max(v);
            mn = mn.min(v);
        }
        // lint:allow(panic-reach) -- callers validate r against the row count
        self.max[r] = mx;
        self.min[r] = mn;
    }

    /// Global `(max_cell, min_cell)` under the build conventions:
    /// `(0, 0)` for a degenerate matrix.
    fn fold(&self, cells: usize) -> (u32, u32) {
        if cells == 0 {
            return (0, 0);
        }
        let mut mx = 0u32;
        let mut mn = u32::MAX;
        for i in 0..self.max.len() {
            mx = mx.max(self.max[i]);
            mn = mn.min(self.min[i]);
        }
        (mx, mn)
    }
}

impl GammaBackend for PrefixSum2D {
    fn rows(&self) -> usize {
        self.rows
    }

    fn cols(&self) -> usize {
        self.cols
    }

    fn total(&self) -> u64 {
        self.total
    }

    fn sum4(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> u64 {
        self.load4(r0, r1, c0, c1)
    }

    fn gamma_bytes(&self) -> usize {
        PrefixSum2D::gamma_bytes(self)
    }
}

/// A zero-cost re-orientation of a [`PrefixSum2D`]: algorithms written for
/// "main × auxiliary" coordinates work on either orientation (the paper's
/// `-HOR`/`-VER` variants) through this adapter.
#[derive(Clone, Copy)]
pub struct View<'a> {
    pfx: &'a PrefixSum2D,
    axis: Axis,
}

impl<'a> View<'a> {
    /// Length of the main dimension.
    pub fn n_main(&self) -> usize {
        match self.axis {
            Axis::Rows => self.pfx.rows(),
            Axis::Cols => self.pfx.cols(),
        }
    }

    /// Length of the auxiliary dimension.
    pub fn n_aux(&self) -> usize {
        match self.axis {
            Axis::Rows => self.pfx.cols(),
            Axis::Cols => self.pfx.rows(),
        }
    }

    /// The main axis of this view.
    pub fn axis(&self) -> Axis {
        self.axis
    }

    /// The underlying prefix sums.
    pub fn prefix(&self) -> &'a PrefixSum2D {
        self.pfx
    }

    /// Load of main `[m0, m1)` × aux `[a0, a1)`.
    #[inline]
    pub fn load(&self, m0: usize, m1: usize, a0: usize, a1: usize) -> u64 {
        match self.axis {
            Axis::Rows => self.pfx.load4(m0, m1, a0, a1),
            Axis::Cols => self.pfx.load4(a0, a1, m0, m1),
        }
    }

    /// Maps view coordinates back to a matrix-space rectangle.
    pub fn rect(&self, m0: usize, m1: usize, a0: usize, a1: usize) -> Rect {
        match self.axis {
            Axis::Rows => Rect::new(m0, m1, a0, a1),
            Axis::Cols => Rect::new(a0, a1, m0, m1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn prefix_matches_naive_on_random_matrix() {
        let mut rng = StdRng::seed_from_u64(7);
        let m = LoadMatrix::from_fn(13, 9, |_, _| rng.gen_range(0..50));
        let p = PrefixSum2D::new(&m);
        assert_eq!(p.total(), m.total());
        for _ in 0..200 {
            let r0 = rng.gen_range(0..=13);
            let r1 = rng.gen_range(r0..=13);
            let c0 = rng.gen_range(0..=9);
            let c1 = rng.gen_range(c0..=9);
            let rect = Rect::new(r0, r1, c0, c1);
            assert_eq!(p.load(&rect), m.load_naive(&rect), "{rect:?}");
        }
    }

    #[test]
    fn extrema_and_delta() {
        let m = LoadMatrix::from_vec(2, 2, vec![2, 8, 4, 6]);
        let p = PrefixSum2D::new(&m);
        assert_eq!(p.max_cell(), 8);
        assert_eq!(p.min_cell(), 2);
        assert_eq!(p.delta(), Some(4.0));
        assert_eq!(p.total(), 20);
    }

    #[test]
    fn lower_bound_combines_average_and_max_cell() {
        let m = LoadMatrix::from_vec(1, 4, vec![10, 1, 1, 1]);
        let p = PrefixSum2D::new(&m);
        assert_eq!(p.lower_bound(2), 10); // max cell dominates
        assert_eq!(p.lower_bound(1), 13);
        let u = LoadMatrix::from_vec(1, 4, vec![3, 3, 3, 3]);
        let pu = PrefixSum2D::new(&u);
        assert_eq!(pu.lower_bound(2), 6); // average dominates
        assert_eq!(pu.lower_bound(3), 4); // ceil(12/3)=4 > 3
    }

    #[test]
    fn view_reorients_coordinates() {
        let m = LoadMatrix::from_fn(3, 5, |r, c| (r * 5 + c) as u32);
        let p = PrefixSum2D::new(&m);
        let vr = p.view(Axis::Rows);
        let vc = p.view(Axis::Cols);
        assert_eq!(vr.n_main(), 3);
        assert_eq!(vr.n_aux(), 5);
        assert_eq!(vc.n_main(), 5);
        assert_eq!(vc.n_aux(), 3);
        // Same region through both views.
        let direct = p.load4(1, 3, 2, 4);
        assert_eq!(vr.load(1, 3, 2, 4), direct);
        assert_eq!(vc.load(2, 4, 1, 3), direct);
        assert_eq!(vr.rect(1, 3, 2, 4), Rect::new(1, 3, 2, 4));
        assert_eq!(vc.rect(2, 4, 1, 3), Rect::new(1, 3, 2, 4));
    }

    #[test]
    fn dense_build_is_bit_identical_to_reference() {
        let mut rng = StdRng::seed_from_u64(23);
        let mut cases: Vec<LoadMatrix> = [
            (1, 7),
            (3, 511),
            (3, 512),
            (3, 513),
            (2, 1029),
            (64, 1),
            (9, 300),
            (2, 2),
            (37, 53),
            (100, 257),
            (4, 1100),
            (0, 0),
            (0, 5),
            (5, 0),
            (1, 1),
        ]
        .into_iter()
        .map(|(rows, cols)| LoadMatrix::from_fn(rows, cols, |_, _| rng.gen_range(0..1000)))
        .collect();
        // The largest cells: every plain add of the pass at its extreme
        // (the `test-overflow` profile checks them).
        cases.push(LoadMatrix::from_fn(33, 65, |_, _| u32::MAX));
        for m in &cases {
            let (rows, cols) = (m.rows(), m.cols());
            let reference = PrefixSum2D::try_new_reference(m).unwrap();
            for t in [1, 2, 3, 8] {
                let dense = rectpart_parallel::with_threads(t, || {
                    PrefixSum2D::try_new_with(m, GammaMode::Dense).unwrap()
                });
                assert_eq!(
                    dense.dense_entries(),
                    reference.dense_entries(),
                    "{rows}x{cols} threads={t}"
                );
                assert_eq!(dense.max_cell, reference.max_cell);
                assert_eq!(dense.min_cell, reference.min_cell);
                assert_eq!(dense.total, reference.total);
            }
        }
    }

    #[test]
    fn overflow_bound_sits_at_two_pow_32_plus_one_cells() {
        // 2³² + 1 = 641 · 6 700 417 cells: the total of all-`u32::MAX`
        // cells is 2⁶⁴ − 1, which still fits.
        assert!(!may_overflow(641, 6_700_417));
        assert!(!may_overflow(6_700_417, 641));
        // 2³² + 2 = 2 · (2³¹ + 1) cells can reach 2⁶⁴.
        assert!(may_overflow(2, (1 << 31) + 1));
        assert!(may_overflow(usize::MAX, usize::MAX));
    }

    #[test]
    fn sparse_backend_answers_identically_through_the_facade() {
        let mut rng = StdRng::seed_from_u64(44);
        let m = LoadMatrix::from_fn(31, 57, |_, _| {
            if rng.gen_bool(0.9) {
                0
            } else {
                rng.gen_range(1..100)
            }
        });
        let dense = PrefixSum2D::try_new_with(&m, GammaMode::Dense).unwrap();
        let sparse = PrefixSum2D::try_new_with(&m, GammaMode::Sparse).unwrap();
        assert!(!dense.is_sparse());
        assert!(sparse.is_sparse());
        assert_eq!(sparse.backend(), GammaMode::Sparse);
        assert_eq!(dense.total(), sparse.total());
        assert_eq!(dense.max_cell(), sparse.max_cell());
        assert_eq!(dense.min_cell(), sparse.min_cell());
        assert!(sparse.gamma_bytes() < dense.gamma_bytes());
        for _ in 0..300 {
            let r0 = rng.gen_range(0..=31);
            let r1 = rng.gen_range(r0..=31);
            let c0 = rng.gen_range(0..=57);
            let c1 = rng.gen_range(c0..=57);
            assert_eq!(
                dense.load4(r0, r1, c0, c1),
                sparse.load4(r0, r1, c0, c1),
                "[{r0},{r1})x[{c0},{c1})"
            );
        }
    }

    #[test]
    fn auto_mode_obeys_the_zero_density_threshold() {
        let dense_m = LoadMatrix::from_fn(16, 16, |_, _| 1);
        let p = PrefixSum2D::try_new_with(&dense_m, GammaMode::Auto).unwrap();
        assert!(!p.is_sparse(), "no zeros must stay dense");
        let sparse_m =
            LoadMatrix::from_fn(16, 16, |r, c| if (r * 16 + c) % 10 == 0 { 5 } else { 0 });
        let p = PrefixSum2D::try_new_with(&sparse_m, GammaMode::Auto).unwrap();
        assert!(p.is_sparse(), "90% zeros must go sparse");
    }

    #[test]
    fn gamma_mode_parses() {
        assert_eq!(GammaMode::parse("dense"), Some(GammaMode::Dense));
        assert_eq!(GammaMode::parse(" SPARSE "), Some(GammaMode::Sparse));
        assert_eq!(GammaMode::parse("Auto"), Some(GammaMode::Auto));
        assert_eq!(GammaMode::parse("fast"), None);
    }

    #[test]
    fn empty_matrix() {
        let m = LoadMatrix::zeros(0, 0);
        let p = PrefixSum2D::new(&m);
        assert_eq!(p.total(), 0);
        assert_eq!(p.delta(), None);
        assert_eq!(p.min_cell(), 0);
    }

    fn random_updates(
        rng: &mut StdRng,
        rows: usize,
        cols: usize,
        k: usize,
        hi: u32,
    ) -> Vec<RowUpdate> {
        (0..k)
            .map(|_| RowUpdate {
                row: rng.gen_range(0..rows),
                cells: (0..cols).map(|_| rng.gen_range(0..hi)).collect(),
            })
            .collect()
    }

    #[test]
    fn dense_patch_is_bit_identical_to_rebuild() {
        let mut rng = StdRng::seed_from_u64(91);
        for (rows, cols, k) in [(1, 6, 1), (9, 13, 3), (40, 17, 8), (7, 7, 12)] {
            let mut m = LoadMatrix::from_fn(rows, cols, |_, _| rng.gen_range(0..500));
            let mut p = PrefixSum2D::try_new_with(&m, GammaMode::Dense).unwrap();
            let mut ex = RowExtrema::new(&m);
            let updates = random_updates(&mut rng, rows, cols, k, 500);
            p.apply_row_updates(&mut m, &updates, &mut ex).unwrap();
            let fresh = PrefixSum2D::try_new_with(&m, GammaMode::Dense).unwrap();
            assert_eq!(p.dense_entries(), fresh.dense_entries(), "{rows}x{cols}");
            assert_eq!(p.total(), fresh.total());
            assert_eq!(p.max_cell(), fresh.max_cell());
            assert_eq!(p.min_cell(), fresh.min_cell());
        }
    }

    #[test]
    fn sparse_patch_is_bit_identical_to_rebuild() {
        let mut rng = StdRng::seed_from_u64(92);
        for (rows, cols, k) in [(1, 6, 1), (11, 19, 4), (33, 24, 9)] {
            let mut m = LoadMatrix::from_fn(rows, cols, |_, _| {
                if rng.gen_bool(0.8) {
                    0
                } else {
                    rng.gen_range(1..100)
                }
            });
            let mut p = PrefixSum2D::try_new_with(&m, GammaMode::Sparse).unwrap();
            let mut ex = RowExtrema::new(&m);
            let mut updates = random_updates(&mut rng, rows, cols, k, 4);
            // Bias updates toward zeros so run structure genuinely changes.
            for u in &mut updates {
                for c in &mut u.cells {
                    if *c == 1 {
                        *c = 0;
                    }
                }
            }
            p.apply_row_updates(&mut m, &updates, &mut ex).unwrap();
            let fresh = PrefixSum2D::try_new_with(&m, GammaMode::Sparse).unwrap();
            let (Repr::Sparse(ps), Repr::Sparse(fs)) = (&p.repr, &fresh.repr) else {
                panic!("sparse backend expected");
            };
            assert_eq!(ps.raw_parts(), fs.raw_parts(), "{rows}x{cols}");
            assert_eq!(p.total(), fresh.total());
            assert_eq!(p.max_cell(), fresh.max_cell());
            assert_eq!(p.min_cell(), fresh.min_cell());
        }
    }

    #[test]
    fn patch_dedups_later_update_wins_and_shrinks_extrema() {
        let mut m = LoadMatrix::from_vec(3, 2, vec![9, 1, 2, 3, 4, 5]);
        let mut p = PrefixSum2D::try_new(&m).unwrap();
        let mut ex = RowExtrema::new(&m);
        assert_eq!(p.max_cell(), 9);
        let updates = vec![
            RowUpdate {
                row: 0,
                cells: vec![7, 7],
            },
            RowUpdate {
                row: 0,
                cells: vec![2, 2],
            },
        ];
        let n = p.apply_row_updates(&mut m, &updates, &mut ex).unwrap();
        assert_eq!(n, 1, "duplicates collapse to one patched row");
        assert_eq!(m.get(0, 0), 2);
        assert_eq!(p.max_cell(), 5, "old max row was overwritten");
        assert_eq!(p.total(), 2 + 2 + 2 + 3 + 4 + 5);
    }

    #[test]
    fn patch_validation_errors_leave_state_unchanged() {
        let mut m = LoadMatrix::from_vec(2, 2, vec![1, 2, 3, 4]);
        let mut p = PrefixSum2D::try_new(&m).unwrap();
        let mut ex = RowExtrema::new(&m);
        let bad_row = vec![RowUpdate {
            row: 5,
            cells: vec![0, 0],
        }];
        assert!(matches!(
            p.apply_row_updates(&mut m, &bad_row, &mut ex),
            Err(RectpartError::RowOutOfRange { row: 5, rows: 2 })
        ));
        let ragged = vec![RowUpdate {
            row: 0,
            cells: vec![0, 0, 0],
        }];
        assert!(matches!(
            p.apply_row_updates(&mut m, &ragged, &mut ex),
            Err(RectpartError::RaggedRow { .. })
        ));
        assert_eq!(m.data(), &[1, 2, 3, 4]);
        assert_eq!(p.total(), 10);
        assert_eq!(
            p.apply_row_updates(&mut m, &[], &mut ex).unwrap(),
            0,
            "empty delta is a no-op"
        );
    }

    #[test]
    fn try_new_surfaces_overflow_on_both_paths() {
        // Overflowing u64 genuinely needs more than 2³² + 1 max-load
        // cells (see the bound test above), so this test only pins the
        // Ok side and the charge; the Err side is exercised by fault
        // injection.
        let m = LoadMatrix::from_vec(2, 2, vec![u32::MAX; 4]);
        rectpart_obs::work::reset();
        let p = PrefixSum2D::try_new(&m).unwrap();
        assert_eq!(p.total(), 4 * u32::MAX as u64);
        assert!(rectpart_obs::work::spent() >= 5);
        let r = PrefixSum2D::try_new_reference(&m).unwrap();
        assert_eq!(r.total(), p.total());
    }
}
