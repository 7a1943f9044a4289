//! Sparse (CSR-like) prefix sums for zero-heavy load matrices.
//!
//! Dense Γ spends `8·(rows+1)·(cols+1)` bytes no matter how many cells
//! are zero; the SLAC-style projected meshes of the paper's experiments
//! are mostly zeros, and *Rectangle Tiling Binary Arrays* (arXiv
//! 2007.14142) shows how much structure that sparsity carries. A
//! [`SparsePrefixSum`] stores, per row, only the maximal **runs** of
//! consecutive nonzero cells, each cell carrying its within-row
//! cumulative prefix. A rectangle query sums per-row run lookups; the
//! two common degenerate shapes — full-width stripes (the main-dimension
//! projection every jagged solver cuts first) and full-height stripes —
//! are answered in O(1) from dense per-row / per-column prefix borders.
//!
//! Queries return **bit-identical** values to the dense backend: both
//! compute exact `u64` sums of the same non-negative cells. The `u32`
//! run indices cap a sparse matrix below 2³² cells, too few for the
//! grand total to reach 2⁶⁴, so no sum here can overflow; construction
//! honors the same fault-injection gate as the dense path.

use crate::error::RectpartError;
use crate::matrix::LoadMatrix;
use crate::prefix::GammaBackend;

/// CSR-like sparse Γ: per-row nonzero prefix runs.
///
/// Storage is ~16 bytes per nonzero cell in the worst case (isolated
/// nonzeros) plus small dense borders, versus 8 bytes per *cell* for the
/// dense array — a ≥5× saving at ≥90% zeros.
///
/// ```
/// use rectpart_core::{GammaBackend, LoadMatrix, Rect, SparsePrefixSum};
///
/// let m = LoadMatrix::from_fn(8, 8, |r, c| if (r + c) % 4 == 0 { 3 } else { 0 });
/// let s = SparsePrefixSum::try_new(&m).unwrap();
/// assert_eq!(s.sum(&Rect::new(0, 8, 0, 8)), m.total());
/// assert_eq!(s.sum(&Rect::new(1, 3, 2, 7)), 9);
/// ```
#[derive(Clone, Debug)]
pub struct SparsePrefixSum {
    rows: usize,
    cols: usize,
    /// `rows + 1` run-index bounds: row `r` owns runs
    /// `row_ptr[r]..row_ptr[r+1]`.
    row_ptr: Vec<u32>,
    /// First column of each run.
    run_col0: Vec<u32>,
    /// `runs + 1` offsets into `vals`: run `i` owns
    /// `vals[run_val0[i]..run_val0[i+1]]` (runs are laid out
    /// contiguously, so each run's end is the next run's start).
    run_val0: Vec<u32>,
    /// Within-row *inclusive* prefix sum at each nonzero cell, in row
    /// order (zeros between runs contribute nothing, so one running sum
    /// per row serves every run of that row).
    vals: Vec<u64>,
    /// `rows + 1` prefix of full row totals (`Γ[r][cols]`): O(1)
    /// full-width queries.
    row_pfx: Vec<u64>,
    /// `cols + 1` full-height column prefix (`Γ[rows][c]`): O(1)
    /// full-height queries.
    col_pfx: Vec<u64>,
    total: u64,
    max_cell: u32,
    min_cell: u32,
}

impl SparsePrefixSum {
    /// Builds the sparse representation. Errs with
    /// [`RectpartError::Overflow`] on matrices whose cell count does not
    /// fit the `u32` run indices (≥ 2³² cells — build Γ dense instead;
    /// 4-byte indices buy nothing there), and under the fault-injection
    /// gate like the dense [`PrefixSum2D`](crate::PrefixSum2D) path.
    ///
    /// Construction is a single serial O(cells) scan touching O(nnz)
    /// memory, so the result is trivially identical at any thread count.
    pub fn try_new(a: &LoadMatrix) -> Result<Self, RectpartError> {
        rectpart_obs::incr(rectpart_obs::Counter::GammaBuilds);
        let _timer = rectpart_obs::phase(rectpart_obs::Phase::Gamma);
        rectpart_obs::work::charge((a.rows() * a.cols()) as u64 + 1);
        #[cfg(feature = "faultinject")]
        if rectpart_obs::fault::gamma_should_overflow() {
            return Err(RectpartError::Overflow);
        }
        Self::build(a)
    }

    /// `true` when the matrix shape fits this backend's `u32` indices.
    pub(crate) fn indexable(rows: usize, cols: usize) -> bool {
        rows < u32::MAX as usize
            && cols < u32::MAX as usize
            && rows.saturating_mul(cols) < u32::MAX as usize
    }

    /// The scan proper; also used by the [`PrefixSum2D`] facade dispatch
    /// (which performs its own instrumentation and fault gating).
    ///
    /// Every sum is bounded by the grand total, and an indexable shape
    /// has fewer than 2³² + 1 cells, below the Γ overflow bound
    /// (`prefix::may_overflow`), so the adds are plain.
    ///
    /// [`PrefixSum2D`]: crate::PrefixSum2D
    pub(crate) fn build(a: &LoadMatrix) -> Result<Self, RectpartError> {
        let rows = a.rows();
        let cols = a.cols();
        if !Self::indexable(rows, cols) {
            return Err(RectpartError::Overflow);
        }
        debug_assert!(!crate::prefix::may_overflow(rows, cols));
        let mut row_ptr = Vec::with_capacity(rows + 1);
        row_ptr.push(0u32);
        let mut run_col0: Vec<u32> = Vec::new();
        let mut run_val0: Vec<u32> = Vec::new();
        let mut vals: Vec<u64> = Vec::new();
        let mut row_pfx = Vec::with_capacity(rows + 1);
        row_pfx.push(0u64);
        let mut col_pfx = vec![0u64; cols + 1];
        let mut max_cell = 0u32;
        let mut min_nonzero = u32::MAX;
        let mut running = 0u64;
        for r in 0..rows {
            let src = a.row(r);
            let mut row_sum = 0u64;
            let mut in_run = false;
            // Per-column totals (`col_pfx[c + 1]`) feed the full-height border.
            for ((c, &v), col) in src.iter().enumerate().zip(col_pfx.iter_mut().skip(1)) {
                if v == 0 {
                    in_run = false;
                    continue;
                }
                max_cell = max_cell.max(v);
                min_nonzero = min_nonzero.min(v);
                if !in_run {
                    run_col0.push(c as u32);
                    run_val0.push(vals.len() as u32);
                    in_run = true;
                }
                row_sum += v as u64;
                vals.push(row_sum);
                *col += v as u64;
            }
            row_ptr.push(run_col0.len() as u32);
            running += row_sum;
            row_pfx.push(running);
        }
        run_val0.push(vals.len() as u32);
        accumulate(&mut col_pfx);
        let cells = rows * cols;
        let nnz = vals.len();
        let min_cell = if cells == 0 || nnz < cells {
            0
        } else {
            min_nonzero
        };
        let max_cell = if cells == 0 { 0 } else { max_cell };
        rectpart_obs::add(
            rectpart_obs::Counter::SparseGammaRuns,
            run_col0.len() as u64,
        );
        Ok(Self {
            rows,
            cols,
            row_ptr,
            run_col0,
            run_val0,
            vals,
            row_pfx,
            col_pfx,
            total: running,
            max_cell,
            min_cell,
        })
    }

    /// Rebuilds the structure around a set of replaced rows: changed
    /// rows are rescanned from `a` (which must already hold the new
    /// contents), unchanged rows' run storage is spliced over verbatim —
    /// within-row prefixes depend on nothing outside their row — and the
    /// dense borders are recomputed in the same accumulation order as
    /// [`build`](Self::build), so the result is bit-identical to a fresh
    /// build of the updated matrix. `changed` must be sorted and
    /// de-duplicated; `max_cell`/`min_cell` are supplied by the caller
    /// (the facade tracks them via `RowExtrema`).
    ///
    /// Charges [`SparseGammaRuns`](rectpart_obs::Counter::SparseGammaRuns)
    /// only for the rescanned rows' runs — spliced runs are reused, not
    /// rebuilt. The shape was indexable at [`build`](Self::build), so the
    /// adds are plain for the same reason as there.
    pub(crate) fn patched_rows(
        &self,
        a: &LoadMatrix,
        changed: &[usize],
        max_cell: u32,
        min_cell: u32,
    ) -> Self {
        let rows = self.rows;
        let cols = self.cols;
        debug_assert!(changed.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(a.rows() == rows && a.cols() == cols);
        let mut row_ptr = Vec::with_capacity(rows + 1);
        row_ptr.push(0u32);
        let mut run_col0: Vec<u32> = Vec::with_capacity(self.run_col0.len());
        let mut run_val0: Vec<u32> = Vec::with_capacity(self.run_val0.len());
        let mut vals: Vec<u64> = Vec::with_capacity(self.vals.len());
        let mut row_pfx = Vec::with_capacity(rows + 1);
        row_pfx.push(0u64);
        let mut col_pfx = vec![0u64; cols + 1];
        let mut running = 0u64;
        let mut next = 0usize;
        let mut new_runs = 0u64;
        for r in 0..rows {
            if next < changed.len() && changed[next] == r {
                next += 1;
                // Rescan the replaced row exactly like `build` does.
                let src = a.row(r);
                let mut row_sum = 0u64;
                let mut in_run = false;
                for ((c, &v), col) in src.iter().enumerate().zip(col_pfx.iter_mut().skip(1)) {
                    if v == 0 {
                        in_run = false;
                        continue;
                    }
                    if !in_run {
                        run_col0.push(c as u32);
                        run_val0.push(vals.len() as u32);
                        in_run = true;
                        new_runs += 1;
                    }
                    row_sum += v as u64;
                    vals.push(row_sum);
                    *col += v as u64;
                }
                running += row_sum;
            } else {
                // Splice the old row's runs; cell values fall out of
                // within-row prefix differences for the column border.
                let lo = self.row_ptr[r] as usize;
                let hi = self.row_ptr[r + 1] as usize;
                for i in lo..hi {
                    let v0 = self.run_val0[i] as usize;
                    let v1 = self.run_val0[i + 1] as usize;
                    run_col0.push(self.run_col0[i]);
                    run_val0.push(vals.len() as u32);
                    vals.extend_from_slice(&self.vals[v0..v1]);
                    let c0 = self.run_col0[i] as usize;
                    let mut prev = if i > lo { self.vals[v0 - 1] } else { 0 };
                    for (j, &pv) in self.vals[v0..v1].iter().enumerate() {
                        let cell = pv - prev;
                        prev = pv;
                        col_pfx[c0 + j + 1] += cell;
                    }
                }
                let row_sum = self.row_pfx[r + 1] - self.row_pfx[r];
                running += row_sum;
            }
            row_ptr.push(run_col0.len() as u32);
            row_pfx.push(running);
        }
        run_val0.push(vals.len() as u32);
        accumulate(&mut col_pfx);
        rectpart_obs::add(rectpart_obs::Counter::SparseGammaRuns, new_runs);
        Self {
            rows,
            cols,
            row_ptr,
            run_col0,
            run_val0,
            vals,
            row_pfx,
            col_pfx,
            total: running,
            max_cell,
            min_cell,
        }
    }

    /// The raw CSR arrays, for bit-identity assertions in tests.
    #[cfg(test)]
    #[allow(clippy::type_complexity)]
    pub(crate) fn raw_parts(&self) -> (&[u32], &[u32], &[u32], &[u64], &[u64], &[u64]) {
        (
            &self.row_ptr,
            &self.run_col0,
            &self.run_val0,
            &self.vals,
            &self.row_pfx,
            &self.col_pfx,
        )
    }

    /// Number of stored nonzero cells.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Number of stored nonzero runs.
    pub fn runs(&self) -> usize {
        self.run_col0.len()
    }

    /// Largest single-cell load.
    pub fn max_cell(&self) -> u32 {
        self.max_cell
    }

    /// Smallest single-cell load (0 when any zero cell exists).
    pub fn min_cell(&self) -> u32 {
        self.min_cell
    }

    /// Sum of row `r`'s cells in columns `< c` — the within-row prefix.
    /// O(log runs-in-row) by binary search on run starts.
    #[inline]
    fn rowpfx(&self, r: usize, c: usize) -> u64 {
        let lo = self.row_ptr[r] as usize;
        let hi = self.row_ptr[r + 1] as usize;
        // Last run starting before column c, if any.
        let k = self.run_col0[lo..hi].partition_point(|&c0| (c0 as usize) < c);
        if k == 0 {
            return 0;
        }
        let i = lo + k - 1;
        let start = self.run_col0[i] as usize;
        let v0 = self.run_val0[i] as usize;
        let v1 = self.run_val0[i + 1] as usize;
        if c >= start + (v1 - v0) {
            // The whole run lies left of c.
            self.vals[v1 - 1]
        } else {
            // Run straddles c; c > start because run starts are < c.
            self.vals[v0 + (c - start) - 1]
        }
    }

    /// Load of rows `[r0, r1)` × cols `[c0, c1)`.
    ///
    /// O(1) for full-width and full-height queries (the border arrays),
    /// O((r1−r0)·log runs-per-row) otherwise. Values are bit-identical
    /// to the dense backend's `load4`.
    #[inline]
    pub fn sum4(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> u64 {
        debug_assert!(r0 <= r1 && r1 <= self.rows && c0 <= c1 && c1 <= self.cols);
        if c0 == 0 && c1 == self.cols {
            return self.row_pfx[r1] - self.row_pfx[r0];
        }
        if r0 == 0 && r1 == self.rows {
            return self.col_pfx[c1] - self.col_pfx[c0];
        }
        let mut acc = 0u64;
        for r in r0..r1 {
            if self.row_ptr[r] == self.row_ptr[r + 1] {
                continue; // empty row
            }
            acc += self.rowpfx(r, c1) - self.rowpfx(r, c0);
        }
        acc
    }

    /// Heap bytes held by the sparse representation (the Γ memory the
    /// substrate benchmark compares against the dense array).
    pub fn gamma_bytes(&self) -> usize {
        self.row_ptr.len() * 4
            + self.run_col0.len() * 4
            + self.run_val0.len() * 4
            + self.vals.len() * 8
            + self.row_pfx.len() * 8
            + self.col_pfx.len() * 8
    }
}

/// Column totals → the full-height prefix `Γ[rows][c]`, in place
/// (`col_pfx[0]` is the zero border).
fn accumulate(col_pfx: &mut [u64]) {
    let mut acc = 0u64;
    for x in col_pfx {
        acc += *x;
        *x = acc;
    }
}

impl GammaBackend for SparsePrefixSum {
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
        SparsePrefixSum::sum4(self, r0, r1, c0, c1)
    }

    fn gamma_bytes(&self) -> usize {
        SparsePrefixSum::gamma_bytes(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prefix::PrefixSum2D;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sparse_matrix(rows: usize, cols: usize, seed: u64, zero_p: f64) -> LoadMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        LoadMatrix::from_fn(rows, cols, |_, _| {
            if rng.gen_bool(zero_p) {
                0
            } else {
                rng.gen_range(1..100)
            }
        })
    }

    #[test]
    fn matches_dense_on_random_rects() {
        let mut rng = StdRng::seed_from_u64(31);
        for &(rows, cols, zero_p) in &[
            (1usize, 9usize, 0.5),
            (13, 7, 0.9),
            (40, 33, 0.95),
            (17, 64, 0.0),
            (5, 5, 1.0),
        ] {
            let m = sparse_matrix(rows, cols, 7 * rows as u64 + cols as u64, zero_p);
            let d = PrefixSum2D::try_new(&m).unwrap();
            let s = SparsePrefixSum::try_new(&m).unwrap();
            assert_eq!(s.total, d.total());
            assert_eq!(s.max_cell, d.max_cell());
            assert_eq!(s.min_cell, d.min_cell());
            for _ in 0..300 {
                let r0 = rng.gen_range(0..=rows);
                let r1 = rng.gen_range(r0..=rows);
                let c0 = rng.gen_range(0..=cols);
                let c1 = rng.gen_range(c0..=cols);
                assert_eq!(
                    s.sum4(r0, r1, c0, c1),
                    d.load4(r0, r1, c0, c1),
                    "{rows}x{cols} zero_p={zero_p} [{r0},{r1})x[{c0},{c1})"
                );
            }
        }
    }

    #[test]
    fn fast_paths_match_generic_path() {
        let m = sparse_matrix(20, 30, 99, 0.8);
        let s = SparsePrefixSum::try_new(&m).unwrap();
        for r0 in 0..20 {
            for r1 in r0..=20 {
                // full width
                let generic: u64 = (r0..r1).map(|r| s.rowpfx(r, 30) - s.rowpfx(r, 0)).sum();
                assert_eq!(s.sum4(r0, r1, 0, 30), generic);
            }
        }
        for c0 in 0..30 {
            for c1 in c0..=30 {
                let generic: u64 = (0..20).map(|r| s.rowpfx(r, c1) - s.rowpfx(r, c0)).sum();
                assert_eq!(s.sum4(0, 20, c0, c1), generic);
            }
        }
    }

    #[test]
    fn runs_and_nnz_counts() {
        let m = LoadMatrix::from_vec(2, 6, vec![1, 1, 0, 2, 0, 3, 0, 0, 0, 0, 0, 0]);
        let s = SparsePrefixSum::try_new(&m).unwrap();
        assert_eq!(s.nnz(), 4);
        assert_eq!(s.runs(), 3);
        assert_eq!(s.total, 7);
        assert_eq!(s.min_cell(), 0);
        assert_eq!(s.sum4(0, 1, 3, 6), 5);
        assert_eq!(s.sum4(1, 2, 0, 6), 0);
    }

    #[test]
    fn all_nonzero_min_cell() {
        let m = LoadMatrix::from_vec(2, 2, vec![4, 2, 9, 5]);
        let s = SparsePrefixSum::try_new(&m).unwrap();
        assert_eq!(s.min_cell(), 2);
        assert_eq!(s.runs(), 2); // one maximal run per row
    }

    #[test]
    fn empty_matrix() {
        let m = LoadMatrix::zeros(0, 0);
        let s = SparsePrefixSum::try_new(&m).unwrap();
        assert_eq!(s.total, 0);
        assert_eq!(s.min_cell(), 0);
        assert_eq!(s.max_cell(), 0);
        assert_eq!(s.sum4(0, 0, 0, 0), 0);
    }

    #[test]
    fn memory_beats_dense_on_sparse_instances() {
        let m = sparse_matrix(128, 128, 5, 0.95);
        let d = PrefixSum2D::try_new(&m).unwrap();
        let s = SparsePrefixSum::try_new(&m).unwrap();
        assert!(
            s.gamma_bytes() * 5 <= d.gamma_bytes(),
            "sparse {} vs dense {}",
            s.gamma_bytes(),
            d.gamma_bytes()
        );
    }
}
