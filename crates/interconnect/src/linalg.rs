//! Linear algebra for the nodal solver: a dense path and a banded path.
//!
//! The MNA matrix of a segmented coupled bus is constant across a
//! transient run, so both paths factor once and back-substitute every
//! timestep. The **dense** [`Matrix`]/[`LuFactors`] pair is the simple
//! O(N³)/O(N²) reference ("oracle") implementation; the **banded**
//! [`Banded`]/[`BandedLu`] pair exploits the nearest-neighbour coupling
//! structure of the bus — numbering the unknowns along the bus's shorter
//! axis gives half-bandwidth `b = O(min(wires, segments))`, an O(N·b²)
//! factor and an O(N·b) per-step solve (LAPACK `gbtrf`/`gbtrs` style
//! storage with `kl` extra superdiagonals reserved for partial-pivoting
//! fill-in). The per-step history product runs on [`Diagonals`], the
//! band's few nonzero diagonals, so its cost does not grow with `b`.
//!
//! Every kernel is allocation-free (`*_into`), so the timestep loop
//! never touches the allocator.

use crate::error::InterconnectError;
use std::fmt;

/// Pivot threshold below which a matrix is declared singular.
const PIVOT_TINY: f64 = 1e-300;

/// A dense row-major `n × n` matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    n: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates an `n × n` zero matrix.
    #[must_use]
    pub fn zeros(n: usize) -> Self {
        Matrix { n, data: vec![0.0; n * n] }
    }

    /// Creates the `n × n` identity.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Matrix dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// `Σ_j |a_ij|` for every row.
    pub(crate) fn row_abs_sums(&self) -> Vec<f64> {
        (0..self.n).map(|i| (0..self.n).map(|j| self[(i, j)].abs()).sum()).collect()
    }

    /// Matrix–vector product `self · x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    #[must_use]
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.n];
        self.mul_vec_into(x, &mut y);
        y
    }

    /// Matrix–vector product `y = self · x` without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` or `y.len()` differs from `self.dim()`.
    pub fn mul_vec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n, "dimension mismatch");
        assert_eq!(y.len(), self.n, "dimension mismatch");
        for (yi, row) in y.iter_mut().zip(self.data.chunks_exact(self.n)) {
            *yi = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
    }

    /// LU-factorises the matrix with partial pivoting.
    ///
    /// # Errors
    ///
    /// [`InterconnectError::SingularMatrix`] when a pivot underflows.
    pub fn lu(&self) -> Result<LuFactors, InterconnectError> {
        let n = self.n;
        let mut lu = self.data.clone();
        // Row-swap sequence (LAPACK `ipiv` convention): at step k, row k
        // was exchanged with row piv[k] >= k. Recording swaps rather
        // than the final permutation lets `solve_into` run in place.
        let mut piv: Vec<usize> = (0..n).collect();
        for k in 0..n {
            // Partial pivot: find the largest |entry| in column k at/below k.
            let mut pivot_row = k;
            let mut pivot_val = lu[k * n + k].abs();
            for r in k + 1..n {
                let v = lu[r * n + k].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            if pivot_val < PIVOT_TINY {
                return Err(InterconnectError::SingularMatrix);
            }
            piv[k] = pivot_row;
            if pivot_row != k {
                for c in 0..n {
                    lu.swap(k * n + c, pivot_row * n + c);
                }
            }
            let pivot = lu[k * n + k];
            for r in k + 1..n {
                let factor = lu[r * n + k] / pivot;
                lu[r * n + k] = factor;
                for c in k + 1..n {
                    lu[r * n + c] -= factor * lu[k * n + c];
                }
            }
        }
        Ok(LuFactors { n, lu, piv })
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        &self.data[r * self.n + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        &mut self.data[r * self.n + c]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.n {
            for c in 0..self.n {
                write!(f, "{:>12.4e} ", self[(r, c)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// The result of [`Matrix::lu`]: packed L/U factors plus the row-swap
/// sequence, reusable for many right-hand sides.
#[derive(Debug, Clone)]
pub struct LuFactors {
    n: usize,
    lu: Vec<f64>,
    piv: Vec<usize>,
}

impl LuFactors {
    /// Solves `A · x = b` for the factored `A`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from the matrix dimension.
    #[must_use]
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        self.solve_into(&mut x);
        x
    }

    /// Solves `A · x = b` in place: `b` holds the solution on return.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from the matrix dimension.
    pub fn solve_into(&self, b: &mut [f64]) {
        assert_eq!(b.len(), self.n, "dimension mismatch");
        let n = self.n;
        // Apply the recorded row swaps.
        for (k, &p) in self.piv.iter().enumerate() {
            if p != k {
                b.swap(k, p);
            }
        }
        // Forward substitution with unit-diagonal L.
        for i in 1..n {
            let (head, tail) = b.split_at_mut(i);
            let row = &self.lu[i * n..i * n + i];
            tail[0] -= row.iter().zip(head.iter()).map(|(l, x)| l * x).sum::<f64>();
        }
        // Backward substitution with U.
        for i in (0..n).rev() {
            let (head, tail) = b.split_at_mut(i + 1);
            let row = &self.lu[i * n + i + 1..(i + 1) * n];
            let s: f64 = row.iter().zip(tail.iter()).map(|(u, x)| u * x).sum();
            head[i] = (head[i] - s) / self.lu[i * n + i];
        }
    }
}

/// A banded `n × n` matrix with `kl` subdiagonals and `ku`
/// superdiagonals, stored as packed diagonals (LAPACK general-band
/// layout): entry `(i, j)` lives at `data[j * stride + kl + ku + i - j]`
/// and each column reserves `kl` extra superdiagonal slots for the
/// fill-in produced by row pivoting during factorisation.
#[derive(Debug, Clone, PartialEq)]
pub struct Banded {
    n: usize,
    kl: usize,
    ku: usize,
    /// Rows of packed storage per column: `2·kl + ku + 1`.
    stride: usize,
    data: Vec<f64>,
}

impl Banded {
    /// Creates an `n × n` zero matrix with bandwidths `kl`/`ku`
    /// (sub-/super-diagonal counts, clamped to `n − 1`).
    #[must_use]
    pub fn zeros(n: usize, kl: usize, ku: usize) -> Self {
        let kl = kl.min(n.saturating_sub(1));
        let ku = ku.min(n.saturating_sub(1));
        let stride = 2 * kl + ku + 1;
        Banded { n, kl, ku, stride, data: vec![0.0; n * stride] }
    }

    /// Matrix dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.n
    }

    #[inline]
    fn slot(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < self.n && j < self.n, "index out of range");
        debug_assert!(
            i <= j + self.kl && j <= i + self.ku,
            "({i}, {j}) outside band kl={} ku={}",
            self.kl,
            self.ku
        );
        j * self.stride + self.kl + self.ku + i - j
    }

    /// `Σ_j |a_ij|` for every row.
    pub(crate) fn row_abs_sums(&self) -> Vec<f64> {
        (0..self.n)
            .map(|i| {
                let band = i.saturating_sub(self.kl)..(i + self.ku + 1).min(self.n);
                band.map(|j| self.get(i, j).abs()).sum()
            })
            .collect()
    }

    /// Entry `(i, j)`; zero outside the band.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of range.
    #[must_use]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n && j < self.n, "index out of range");
        if i > j + self.kl || j > i + self.ku {
            0.0
        } else {
            self.data[self.slot(i, j)]
        }
    }

    /// Adds `v` to entry `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if `(i, j)` lies outside the band.
    pub fn add(&mut self, i: usize, j: usize, v: f64) {
        assert!(
            i < self.n && j < self.n && i <= j + self.kl && j <= i + self.ku,
            "({i}, {j}) outside band kl={} ku={} n={}",
            self.kl,
            self.ku,
            self.n
        );
        let s = self.slot(i, j);
        self.data[s] += v;
    }

    /// Banded matrix–vector product `y = self · x` without allocating:
    /// O(N·b) where `b = kl + ku + 1`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` or `y.len()` differs from `self.dim()`.
    pub fn mul_vec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n, "dimension mismatch");
        assert_eq!(y.len(), self.n, "dimension mismatch");
        y.fill(0.0);
        // Column sweep: contiguous walk down each packed column, with
        // slice-paired inner loops so the axpy vectorises.
        for (j, &xj) in x.iter().enumerate() {
            if xj == 0.0 {
                continue;
            }
            let lo = j.saturating_sub(self.ku);
            let hi = (j + self.kl).min(self.n - 1);
            let base = j * self.stride + self.kl + self.ku - j;
            let col = &self.data[base + lo..=base + hi];
            for (yi, &a) in y[lo..=hi].iter_mut().zip(col) {
                *yi += a * xj;
            }
        }
    }

    /// The band's structurally nonzero diagonals: every offset `j − i`
    /// holding at least one nonzero entry, ascending.
    #[must_use]
    pub fn diagonals(&self) -> Diagonals {
        let n = self.n as isize;
        let diags = (-(self.kl as isize)..=self.ku as isize)
            .filter_map(|d| {
                // Rows i with 0 <= i + d < n.
                let vals: Vec<f64> = (-d.min(0)..n - d.max(0))
                    .map(|i| self.get(i as usize, (i + d) as usize))
                    .collect();
                vals.iter().any(|&v| v != 0.0).then_some((d, vals))
            })
            .collect();
        Diagonals { n: self.n, diags }
    }


    /// Banded LU factorisation with partial pivoting (LAPACK `gbtrf`,
    /// unblocked): O(N·b²) time, fill-in confined to the `kl` reserved
    /// extra superdiagonals.
    ///
    /// # Errors
    ///
    /// [`InterconnectError::SingularMatrix`] when a pivot underflows.
    pub fn lu(&self) -> Result<BandedLu, InterconnectError> {
        let n = self.n;
        let (kl, ku, stride) = (self.kl, self.ku, self.stride);
        let kv = kl + ku; // superdiagonals of U including fill-in
        let mut ab = self.data.clone();
        let mut piv: Vec<usize> = (0..n).collect();
        // Last nonzero column of each working row, to track the actual
        // upper bandwidth of U: fill-in above the `ku`-th superdiagonal
        // only appears through pivot swaps, so diagonally dominant
        // circuit matrices keep `uw == ku` and the backward solves skip
        // the reserved-but-zero fill region entirely.
        let mut ends: Vec<usize> = (0..n).map(|i| (i + ku).min(n.saturating_sub(1))).collect();
        let mut uw = ku.min(n.saturating_sub(1));
        let at = |j: usize, i: usize| j * stride + kv + i - j;
        for k in 0..n {
            // Pivot search in column k, rows k..=k+kl.
            let km = kl.min(n - 1 - k);
            let mut p = 0usize;
            let mut best = ab[at(k, k)].abs();
            for r in 1..=km {
                let v = ab[at(k, k + r)].abs();
                if v > best {
                    best = v;
                    p = r;
                }
            }
            if best < PIVOT_TINY {
                return Err(InterconnectError::SingularMatrix);
            }
            piv[k] = k + p;
            let ju = (k + kv).min(n - 1); // last column touched by row k
            if p != 0 {
                for j in k..=ju {
                    ab.swap(at(j, k), at(j, k + p));
                }
                ends.swap(k, k + p);
            }
            uw = uw.max(ends[k] - k);
            let pivot = ab[at(k, k)];
            // Scale the multipliers (contiguous below the diagonal of
            // column k), then apply the rank-1 update column by column —
            // both the multiplier column and each updated column chunk
            // are contiguous in the packed layout.
            for r in 1..=km {
                ab[at(k, k + r)] /= pivot;
            }
            if km > 0 {
                let (left, right) = ab.split_at_mut((k + 1) * stride);
                let mults = &left[k * stride + kv + 1..k * stride + kv + 1 + km];
                for j in k + 1..=ju {
                    let off = (j - k - 1) * stride;
                    let head = off + kv + k - j; // slot of row k in column j
                    let x = right[head];
                    if x != 0.0 {
                        for (d, &m) in right[head + 1..=head + km].iter_mut().zip(mults) {
                            *d -= m * x;
                        }
                    }
                }
                let end_k = ends[k];
                for e in &mut ends[k + 1..=(k + km).min(n - 1)] {
                    *e = (*e).max(end_k);
                }
            }
        }
        let no_pivot = piv.iter().enumerate().all(|(k, &p)| p == k);
        Ok(BandedLu { n, kl, ku, uw, no_pivot, stride, ab, piv })
    }
}

/// A banded matrix kept as its nonzero diagonals only ([`Banded::diagonals`]):
/// `(d, vals)` holds entries `(i, i + d)`, `vals[0]` on the first row
/// the diagonal reaches. A product then costs one pass per nonzero
/// diagonal, however wide the band they sit in — the timestep history
/// matrices have three diagonals (0 and ±one neighbour stride) inside
/// a band up to the system's width.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagonals {
    n: usize,
    /// `(offset, values)`, offsets ascending.
    diags: Vec<(isize, Vec<f64>)>,
}

impl Diagonals {
    /// The stored offsets `j − i`, ascending.
    #[cfg(test)]
    pub(crate) fn offsets(&self) -> Vec<isize> {
        self.diags.iter().map(|&(d, _)| d).collect()
    }

    /// Matrix product over one `W`-interleaved lane block: `x`/`y` hold
    /// `W` vectors row-major (`x[i·W + c]` is row `i` of lane `c`), so
    /// every update is a `W`-wide contiguous multiply-add; `W = 1` is
    /// the plain product. Each row sums its terms from `+0.0` with `j`
    /// ascending — the diagonals are visited by ascending offset — which
    /// is exactly the per-row order of [`Banded::mul_vec_into`]'s column
    /// sweep. The terms that sweep adds and this one omits (in-band
    /// zeros, skipped `x_j == 0` columns) are `±0.0` for finite input
    /// and cannot change a bit of an accumulator that is never `-0.0`
    /// (it starts at `+0.0`, and IEEE-754 round-to-nearest addition only
    /// produces `-0.0` from two `-0.0` operands), so the results are
    /// bitwise identical lane for lane.
    ///
    /// # Panics
    ///
    /// Panics if either slice's length differs from the matrix
    /// dimension times `W`.
    pub fn mul_interleaved_into<const W: usize>(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n * W, "dimension mismatch");
        assert_eq!(y.len(), self.n * W, "dimension mismatch");
        y.fill(0.0);
        for &(d, ref vals) in &self.diags {
            let row0 = d.min(0).unsigned_abs();
            let col0 = row0.wrapping_add_signed(d);
            let len = vals.len();
            let ys = &mut y[row0 * W..(row0 + len) * W];
            let xs = &x[col0 * W..(col0 + len) * W];
            for ((yr, xr), &a) in ys.chunks_exact_mut(W).zip(xs.chunks_exact(W)).zip(vals) {
                let yr: &mut [f64; W] = yr.try_into().expect("lane width");
                let xr: &[f64; W] = xr.try_into().expect("lane width");
                for c in 0..W {
                    yr[c] += a * xr[c];
                }
            }
        }
    }
}

/// The result of [`Banded::lu`]: packed band factors plus the row-swap
/// sequence, reusable for many right-hand sides.
#[derive(Debug, Clone)]
pub struct BandedLu {
    n: usize,
    kl: usize,
    ku: usize,
    /// Actual upper bandwidth of U (`ku` when no pivot swap occurred);
    /// the backward solves walk only this far above the diagonal,
    /// skipping the reserved fill region when it stayed zero.
    uw: usize,
    /// True when no pivot swap occurred: every row of L below row `i`
    /// is final by the time row `i` is reached, which lets the lane
    /// solve run its forward pass in dot-product (row-oriented) form.
    no_pivot: bool,
    stride: usize,
    ab: Vec<f64>,
    piv: Vec<usize>,
}

impl BandedLu {
    /// Matrix dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Solves `A · x = b` for the factored `A`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from the matrix dimension.
    #[must_use]
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        self.solve_into(&mut x);
        x
    }

    /// Solves `A · x = b` in place without allocating: O(N·b) per call
    /// (`b` holds the solution on return).
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from the matrix dimension.
    pub fn solve_into(&self, b: &mut [f64]) {
        assert_eq!(b.len(), self.n, "dimension mismatch");
        let n = self.n;
        let kv = self.kl + self.ku;
        let stride = self.stride;
        // Forward: apply swaps and unit-diagonal L (bandwidth kl). The
        // multipliers of step k sit contiguously below column k's
        // diagonal slot.
        for k in 0..n {
            let p = self.piv[k];
            if p != k {
                b.swap(k, p);
            }
            let bk = b[k];
            if bk != 0.0 {
                let reach = self.kl.min(n - 1 - k);
                let base = k * stride + kv;
                let col = &self.ab[base + 1..=base + reach];
                for (bi, &l) in b[k + 1..=k + reach].iter_mut().zip(col) {
                    *bi -= l * bk;
                }
            }
        }
        // Backward with U (bandwidth kl + ku after fill-in), column
        // oriented: once x_j is known, its contribution is subtracted
        // from every earlier row in one contiguous walk up column j —
        // the row-oriented form would stride across columns instead.
        for j in (0..n).rev() {
            let base = j * stride + kv - j; // slot of row i in column j is base + i
            let xj = b[j] / self.ab[base + j];
            b[j] = xj;
            if xj != 0.0 && j > 0 {
                let lo = j.saturating_sub(self.uw);
                let col = &self.ab[base + lo..base + j];
                for (bi, &u) in b[lo..j].iter_mut().zip(col) {
                    *bi -= u * xj;
                }
            }
        }
    }

    /// Solves `A · X = B` over one `W`-interleaved lane block (`b[i·W + c]`
    /// is row `i` of lane `c`, the layout of [`Diagonals::mul_interleaved_into`]).
    /// Pivot swaps exchange whole `W`-rows and every substitution update
    /// is a `W`-wide contiguous fused-multiply-add on independent lanes,
    /// so the kernel is bound by arithmetic throughput where the scalar
    /// solve is latency-bound on its single substitution chain. Per lane
    /// the FLOP sequence is exactly [`BandedLu::solve_into`]'s, with its
    /// `b_k == 0` / `x_j == 0` skips dropped as in
    /// [`Diagonals::mul_interleaved_into`]: results are bitwise identical
    /// column for column for finite factors. Callers that may feed
    /// non-finite factors must fall back to the scalar path.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from `dim() · W`.
    pub fn solve_interleaved_into<const W: usize>(&self, b: &mut [f64]) {
        assert_eq!(b.len(), self.n * W, "dimension mismatch");
        let n = self.n;
        let kv = self.kl + self.ku;
        let stride = self.stride;
        if self.no_pivot {
            // Forward in dot-product (row-oriented) form: without pivot
            // swaps, b[k] for every k < i is final when row i is
            // reached, so row i can accumulate all its L subtractions
            // in registers and store once. The subtraction order over k
            // is ascending — exactly the column-oriented order — so the
            // per-lane FLOP sequence is unchanged. The multipliers
            // L(i, k) sit `stride - 1` slots apart in the packed
            // layout; they are broadcast once per W lanes, so the
            // strided scalar loads are amortised.
            for i in 1..n {
                let lo = i.saturating_sub(self.kl);
                let (head, tail) = b.split_at_mut(i * W);
                let row: &mut [f64; W] = (&mut tail[..W]).try_into().expect("lane width");
                let mut acc: [f64; W] = *row;
                let mut slot = lo * (stride - 1) + kv + i; // L(i, lo)
                for bk in head[lo * W..].chunks_exact(W) {
                    let bk: &[f64; W] = bk.try_into().expect("lane width");
                    let l = self.ab[slot];
                    for c in 0..W {
                        acc[c] -= l * bk[c];
                    }
                    slot += stride - 1;
                }
                *row = acc;
            }
        } else {
            // Forward with swaps: column oriented, all lanes per step k.
            for k in 0..n {
                let p = self.piv[k];
                if p != k {
                    for c in 0..W {
                        b.swap(k * W + c, p * W + c);
                    }
                }
                let reach = self.kl.min(n - 1 - k);
                if reach > 0 {
                    let base = k * stride + kv;
                    let lcol = &self.ab[base + 1..=base + reach];
                    let (head, tail) = b.split_at_mut((k + 1) * W);
                    let bk: [f64; W] = head[k * W..].try_into().expect("lane width");
                    for (row, &l) in tail.chunks_exact_mut(W).zip(lcol) {
                        let mut v: [f64; W] = row.try_into().expect("lane width");
                        for c in 0..W {
                            v[c] -= l * bk[c];
                        }
                        row.copy_from_slice(&v);
                    }
                }
            }
        }
        // Backward in dot-product form, valid with or without pivoting:
        // row i subtracts U(i, j)·x_j for j descending from `i + uw` —
        // the same order the column-oriented sweep applies them to
        // b[i] — then divides, accumulating in registers throughout.
        for i in (0..n).rev() {
            let hi = (i + self.uw).min(n - 1);
            let (head, tail) = b.split_at_mut((i + 1) * W);
            let row: &mut [f64; W] = (&mut head[i * W..]).try_into().expect("lane width");
            let mut acc: [f64; W] = *row;
            let mut slot = hi * (stride - 1) + kv + i; // U(i, hi)
            for xj in tail[..(hi - i) * W].chunks_exact(W).rev() {
                let xj: &[f64; W] = xj.try_into().expect("lane width");
                let u = self.ab[slot];
                for c in 0..W {
                    acc[c] -= u * xj[c];
                }
                slot -= stride - 1;
            }
            let d = self.ab[i * stride + kv];
            for v in &mut acc {
                *v /= d;
            }
            *row = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() < tol, "element {i}: {x} vs {y}");
        }
    }

    #[test]
    fn identity_solve_is_identity() {
        let m = Matrix::identity(4);
        let lu = m.lu().unwrap();
        let b = [1.0, -2.0, 3.5, 0.0];
        assert_close(&lu.solve(&b), &b, 1e-14);
    }

    #[test]
    fn solves_known_system() {
        // [[2,1],[1,3]] x = [3,5] → x = [4/5, 7/5]
        let mut m = Matrix::zeros(2);
        m[(0, 0)] = 2.0;
        m[(0, 1)] = 1.0;
        m[(1, 0)] = 1.0;
        m[(1, 1)] = 3.0;
        let x = m.lu().unwrap().solve(&[3.0, 5.0]);
        assert_close(&x, &[0.8, 1.4], 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        // [[0,1],[1,0]] is perfectly regular but needs a row swap.
        let mut m = Matrix::zeros(2);
        m[(0, 1)] = 1.0;
        m[(1, 0)] = 1.0;
        let x = m.lu().unwrap().solve(&[2.0, 3.0]);
        assert_close(&x, &[3.0, 2.0], 1e-14);
    }

    #[test]
    fn singular_matrix_detected() {
        let mut m = Matrix::zeros(3);
        // Rank 1: every row identical.
        for r in 0..3 {
            for c in 0..3 {
                m[(r, c)] = 1.0;
            }
        }
        assert_eq!(m.lu().unwrap_err(), InterconnectError::SingularMatrix);
    }

    #[test]
    fn solve_round_trips_with_mul_vec() {
        // Random-ish diagonally dominant SPD-like matrix.
        let n = 8;
        let mut m = Matrix::zeros(n);
        for r in 0..n {
            for c in 0..n {
                m[(r, c)] = if r == c { 10.0 + r as f64 } else { 1.0 / (1.0 + (r + 2 * c) as f64) };
            }
        }
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64) - 3.0).collect();
        let b = m.mul_vec(&x_true);
        let x = m.lu().unwrap().solve(&b);
        assert_close(&x, &x_true, 1e-10);
    }

    #[test]
    fn into_variants_match_allocating_ones() {
        let n = 6;
        let mut m = Matrix::zeros(n);
        for r in 0..n {
            for c in 0..n {
                m[(r, c)] = if r == c { 5.0 } else { ((r * 3 + c) as f64).sin() * 0.4 };
            }
        }
        let x: Vec<f64> = (0..n).map(|i| i as f64 - 2.5).collect();
        let mut y = vec![0.0; n];
        m.mul_vec_into(&x, &mut y);
        assert_eq!(y, m.mul_vec(&x), "mul_vec delegates to mul_vec_into");
        let lu = m.lu().unwrap();
        let mut in_place = y.clone();
        lu.solve_into(&mut in_place);
        assert_eq!(in_place, lu.solve(&y), "solve delegates to solve_into");
        assert_close(&in_place, &x, 1e-12);
    }

    #[test]
    fn display_renders_rows() {
        let m = Matrix::identity(2);
        let s = m.to_string();
        assert_eq!(s.lines().count(), 2);
    }

    // ---------------- banded ----------------

    /// A seeded pseudo-random banded test matrix with a dominant
    /// diagonal, returned in both banded and dense forms.
    fn random_band(n: usize, kl: usize, ku: usize, seed: u64) -> (Banded, Matrix) {
        let mut state = seed | 1;
        let mut next = move || {
            // SplitMix64-style scramble, mapped to [-1, 1).
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z >> 11) as f64 / (1u64 << 52) as f64 - 1.0
        };
        let mut band = Banded::zeros(n, kl, ku);
        let (kl, ku) = (band.kl, band.ku);
        let mut dense = Matrix::zeros(n);
        for i in 0..n {
            for j in i.saturating_sub(kl)..=(i + ku).min(n - 1) {
                let v = if i == j { 4.0 + next().abs() } else { next() };
                band.add(i, j, v);
                dense[(i, j)] = v;
            }
        }
        (band, dense)
    }

    #[test]
    fn banded_mul_vec_matches_dense() {
        for (n, kl, ku, seed) in [(1, 0, 0, 7), (5, 1, 2, 1), (9, 3, 1, 2), (16, 4, 4, 3)] {
            let (band, dense) = random_band(n, kl, ku, seed);
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos()).collect();
            let mut y = vec![0.0; n];
            band.mul_vec_into(&x, &mut y);
            assert_close(&y, &dense.mul_vec(&x), 1e-12);
        }
    }

    #[test]
    fn banded_solve_matches_dense() {
        for (n, kl, ku, seed) in [(1, 0, 0, 11), (4, 1, 1, 5), (12, 3, 2, 6), (24, 5, 5, 9)] {
            let (band, dense) = random_band(n, kl, ku, seed);
            let x_true: Vec<f64> = (0..n).map(|i| (i as f64) * 0.3 - 1.0).collect();
            let b = dense.mul_vec(&x_true);
            let mut x = b.clone();
            band.lu().unwrap().solve_into(&mut x);
            assert_close(&x, &x_true, 1e-9);
            assert_close(&x, &dense.lu().unwrap().solve(&b), 1e-9);
        }
    }

    #[test]
    fn banded_pivoting_handles_zero_diagonal() {
        // Tridiagonal with zero diagonal: [[0,1,0],[1,0,1],[0,1,0]] is
        // singular, but [[0,1,0],[1,0,1],[0,1,1]] is regular and needs
        // row exchanges throughout.
        let mut m = Banded::zeros(3, 1, 1);
        m.add(0, 1, 1.0);
        m.add(1, 0, 1.0);
        m.add(1, 2, 1.0);
        m.add(2, 1, 1.0);
        m.add(2, 2, 1.0);
        let x = m.lu().unwrap().solve(&[1.0, 2.0, 3.0]);
        let mut y = vec![0.0; 3];
        m.mul_vec_into(&x, &mut y);
        assert_close(&y, &[1.0, 2.0, 3.0], 1e-12);
    }

    #[test]
    fn banded_singular_detected() {
        let mut m = Banded::zeros(3, 1, 1);
        // Row 1 is all zeros inside the band.
        m.add(0, 0, 1.0);
        m.add(2, 2, 1.0);
        assert_eq!(m.lu().unwrap_err(), InterconnectError::SingularMatrix);
    }

    #[test]
    fn banded_accessors_and_outside_band() {
        let mut m = Banded::zeros(4, 1, 2);
        assert_eq!(m.dim(), 4);
        assert_eq!((m.kl, m.ku), (1, 2));
        m.add(1, 3, 2.5);
        assert_eq!(m.get(1, 3), 2.5);
        assert_eq!(m.get(3, 0), 0.0, "outside band reads as zero");
    }

    #[test]
    #[should_panic(expected = "outside band")]
    fn banded_add_outside_band_panics() {
        let mut m = Banded::zeros(4, 1, 1);
        m.add(3, 0, 1.0);
    }

    #[test]
    fn banded_bandwidths_clamped_to_dim() {
        let m = Banded::zeros(3, 10, 10);
        assert_eq!((m.kl, m.ku), (2, 2));
    }

    // ---------------- interleaved lane blocks ----------------

    /// Deterministic pseudo-random RHS value for (lane, row), with
    /// exact zeros sprinkled in to exercise the zero-skip paths the
    /// interleaved kernels drop.
    fn rhs_val(c: usize, i: usize) -> f64 {
        if (c + i).is_multiple_of(5) {
            0.0
        } else {
            ((c * 31 + i * 7) as f64 * 0.37).sin() * 2.0 - 0.3
        }
    }

    /// `W` lanes of dimension `n`, interleaved (`x[i·W + c]`), plus the
    /// same lanes as separate vectors.
    fn lanes<const W: usize>(n: usize, seed: usize) -> (Vec<f64>, Vec<Vec<f64>>) {
        let cols: Vec<Vec<f64>> =
            (0..W).map(|c| (0..n).map(|i| rhs_val(seed + c, i)).collect()).collect();
        let interleaved = (0..n * W).map(|at| cols[at % W][at / W]).collect();
        (interleaved, cols)
    }

    fn assert_lanes_bitwise<const W: usize>(got: &[f64], want: &[Vec<f64>], what: &str) {
        for (c, col) in want.iter().enumerate() {
            for (i, b) in col.iter().enumerate() {
                let a = got[i * W + c];
                assert_eq!(a.to_bits(), b.to_bits(), "{what} W={W} lane {c} row {i}: {a} vs {b}");
            }
        }
    }

    fn check_interleaved_solve<const W: usize>(lu: &BandedLu, n: usize, what: &str) {
        let (mut block, mut looped) = lanes::<W>(n, W);
        lu.solve_interleaved_into::<W>(&mut block);
        for col in &mut looped {
            lu.solve_into(col);
        }
        assert_lanes_bitwise::<W>(&block, &looped, what);
    }

    #[test]
    fn panel_solve_bitwise_matches_looped_scalar() {
        // Both forward-sweep forms: diagonally dominant factors take the
        // no-pivot dot-product form, weakened diagonals force row swaps.
        for (n, kl, ku, seed) in [(1, 0, 0, 3), (5, 1, 2, 4), (12, 3, 2, 8), (24, 5, 5, 13)] {
            let (band, _) = random_band(n, kl, ku, seed);
            let mut weak = band.clone();
            for i in (0..n).step_by(3) {
                weak.add(i, i, 0.01 - band.get(i, i));
            }
            for (what, m) in [("no-pivot", &band), ("pivoting", &weak)] {
                let lu = m.lu().unwrap();
                let what = format!("{what} n={n}");
                check_interleaved_solve::<1>(&lu, n, &what);
                check_interleaved_solve::<4>(&lu, n, &what);
                check_interleaved_solve::<8>(&lu, n, &what);
            }
        }
    }

    fn check_interleaved_mul<const W: usize>(band: &Banded, n: usize) {
        let (x, cols) = lanes::<W>(n, 2 * W);
        let mut y = vec![f64::NAN; n * W];
        band.diagonals().mul_interleaved_into::<W>(&x, &mut y);
        let want: Vec<Vec<f64>> = cols
            .iter()
            .map(|col| {
                let mut out = vec![0.0; n];
                band.mul_vec_into(col, &mut out);
                out
            })
            .collect();
        assert_lanes_bitwise::<W>(&y, &want, &format!("mul n={n}"));
    }

    #[test]
    fn panel_mul_bitwise_matches_looped_scalar() {
        for (n, kl, ku, seed) in [(1, 0, 0, 9), (6, 2, 1, 2), (16, 4, 4, 5), (23, 3, 6, 17)] {
            let (band, _) = random_band(n, kl, ku, seed);
            check_interleaved_mul::<1>(&band, n);
            check_interleaved_mul::<4>(&band, n);
            check_interleaved_mul::<8>(&band, n);
        }
    }

    #[test]
    fn diagonals_keep_only_nonzero_offsets() {
        // A 5-wide band with only offsets 0 and ±3 populated — the
        // shape of a wire-major history matrix — stores three diagonals
        // and still multiplies bitwise like the full band.
        let n = 11;
        let (full, _) = random_band(n, 5, 5, 21);
        let mut sparse = Banded::zeros(n, 5, 5);
        for i in 0..n {
            for j in [i.checked_sub(3), Some(i), Some(i + 3)].into_iter().flatten() {
                if j < n {
                    sparse.add(i, j, full.get(i, j));
                }
            }
        }
        assert_eq!(sparse.diagonals().offsets(), vec![-3, 0, 3]);
        assert_eq!(full.diagonals().offsets(), (-5..=5).collect::<Vec<_>>());
        assert_eq!(Banded::zeros(4, 1, 1).diagonals().offsets(), Vec::<isize>::new());
        check_interleaved_mul::<1>(&sparse, n);
        check_interleaved_mul::<4>(&sparse, n);
        check_interleaved_mul::<8>(&sparse, n);
    }
}
