//! A small dense `f64` matrix type sized for FlatCam optics (≤ a few hundred
//! rows/columns), plus conversions to the `f32` NCHW tensors used by the
//! neural pipeline.

use eyecod_tensor::simd::{self, Level};
use eyecod_tensor::{Shape, Tensor};
use std::fmt;

/// A dense row-major `f64` matrix.
///
/// # Example
///
/// ```
/// use eyecod_optics::mat::Mat;
/// let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = a.matmul(&Mat::identity(2));
/// assert_eq!(a, b);
/// ```
#[derive(Clone, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

/// Register-tile height of the blocked GEMM microkernel (output rows per
/// tile). A 4×4 f64 accumulator tile fits the 16 baseline x86-64 (SSE2)
/// vector registers with room for the `B` panel and the broadcast `A`
/// value, so the tile never spills even without AVX. The wider tiers keep
/// the height and widen the tile instead: under AVX-512 a 6-, 8- or 12-row
/// tile of this loop nest ran at about a tenth of the 4-row tile's speed,
/// and an 8-row variant that indexed `A` by stride was no faster than 4
/// rows.
const MR: usize = 4;
/// Register-tile width of the blocked GEMM microkernel (output columns)
/// in the portable instantiation; the AVX2 instantiation widens to 8 and
/// the AVX-512 one to 16.
const NR: usize = 4;

/// One blocked GEMM pass over output rows `rows` of `A · B` (see
/// [`Mat::matmul`] for the accumulation-order contract). Generic over the
/// register-tile width `NRT` so each tier's instantiation fills its
/// register file: 4×4 within SSE2's 16 xmm registers, 4×8 within AVX2's
/// 16 ymm, and 4×16 (two zmm per row) within AVX-512's 32 zmm. The
/// per-element math is the identical ascending-`l` IEEE mul-then-add
/// sequence for every `NRT`, so all instantiations produce bit-identical
/// results.
#[inline(always)]
fn gemm_rows_body<const NRT: usize>(
    a: &[f64],
    b: &[f64],
    k: usize,
    n: usize,
    rows: std::ops::Range<usize>,
    out: &mut [f64],
) {
    let row0 = rows.start;
    let mut i = rows.start;
    while i < rows.end {
        let mr = MR.min(rows.end - i);
        let mut j = 0;
        if mr == MR {
            // full MR×NRT tiles: fixed-size loops over fixed-size arrays,
            // so the whole accumulator tile lives in vector registers and
            // the inner body unrolls to MR·NRT FMAs per `l` with only
            // MR + NRT loads
            let a0 = &a[i * k..(i + 1) * k];
            let a1 = &a[(i + 1) * k..(i + 2) * k];
            let a2 = &a[(i + 2) * k..(i + 3) * k];
            let a3 = &a[(i + 3) * k..(i + 4) * k];
            while j + NRT <= n {
                let mut acc = [[0.0f64; NRT]; MR];
                for l in 0..k {
                    let bv: &[f64; NRT] = b[l * n + j..l * n + j + NRT].try_into().unwrap();
                    let av = [a0[l], a1[l], a2[l], a3[l]];
                    for ii in 0..MR {
                        for jj in 0..NRT {
                            acc[ii][jj] += av[ii] * bv[jj];
                        }
                    }
                }
                for (ii, accr) in acc.iter().enumerate() {
                    let o0 = (i + ii - row0) * n + j;
                    out[o0..o0 + NRT].copy_from_slice(accr);
                }
                j += NRT;
            }
        }
        // edge tiles (ragged rows and/or the column remainder)
        while j < n {
            let nr = NRT.min(n - j);
            let mut acc = [[0.0f64; NRT]; MR];
            for l in 0..k {
                let brow = &b[l * n + j..l * n + j + nr];
                for (ii, accr) in acc.iter_mut().enumerate().take(mr) {
                    let av = a[(i + ii) * k + l];
                    for (jj, &bval) in brow.iter().enumerate() {
                        accr[jj] += av * bval;
                    }
                }
            }
            for (ii, accr) in acc.iter().enumerate().take(mr) {
                let o0 = (i + ii - row0) * n + j;
                out[o0..o0 + nr].copy_from_slice(&accr[..nr]);
            }
            j += nr;
        }
        i += mr;
    }
}

/// [`gemm_rows_body`] compiled for AVX2 (256-bit lanes, 16 ymm registers),
/// where a full 4×8 f64 accumulator tile stays resident in registers. Same
/// IEEE operation sequence as the portable instantiation — only the
/// instruction selection differs — so results are bit-identical.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn gemm_rows_avx2(
    a: &[f64],
    b: &[f64],
    k: usize,
    n: usize,
    rows: std::ops::Range<usize>,
    out: &mut [f64],
) {
    gemm_rows_body::<8>(a, b, k, n, rows, out)
}

/// [`gemm_rows_body`] compiled for AVX-512 (512-bit lanes, 32 zmm
/// registers): a 4×16 f64 tile, two zmm per row, so each `l` step is two
/// `B` loads, four broadcasts and eight multiplies and adds. Bit-identical
/// to the other instantiations for the same reason.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn gemm_rows_avx512(
    a: &[f64],
    b: &[f64],
    k: usize,
    n: usize,
    rows: std::ops::Range<usize>,
    out: &mut [f64],
) {
    gemm_rows_body::<16>(a, b, k, n, rows, out)
}

impl Mat {
    /// Creates a zero matrix.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Mat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Creates a matrix by evaluating `f(row, col)` everywhere.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Mat { rows, cols, data }
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows are empty or ragged.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "need at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "rows must be non-empty");
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Mat {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element access.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Mutable element access.
    #[inline]
    pub fn at_mut(&mut self, r: usize, c: usize) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }

    /// Read-only view of the row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// One row as a slice.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Mat {
        Mat::from_fn(self.cols, self.rows, |r, c| self.at(c, r))
    }

    /// Reshapes this matrix in place without preserving contents, reusing
    /// the existing allocation when its capacity suffices. All kernels that
    /// write through `reset` matrices overwrite every element, so the zero
    /// fill is only a safety net for direct slice access.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
        self.rows = rows;
        self.cols = cols;
    }

    /// Makes this matrix an element-wise copy of `other`, reusing the
    /// existing allocation when possible.
    pub fn copy_from(&mut self, other: &Mat) {
        self.reset(other.rows, other.cols);
        self.data.copy_from_slice(&other.data);
    }

    /// Matrix product `self · other`.
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions disagree.
    pub fn matmul(&self, other: &Mat) -> Mat {
        assert_eq!(
            self.cols, other.rows,
            "matmul dimension mismatch: {}x{} · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Mat::zeros(self.rows, other.cols);
        self.matmul_rows(other, 0..self.rows, &mut out.data, simd::level());
        out
    }

    /// [`Mat::matmul`] writing into a caller-owned output matrix, which is
    /// resized (allocation-free once warm) rather than freshly allocated.
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions disagree or `out` aliases an operand.
    pub fn matmul_into(&self, other: &Mat, out: &mut Mat) {
        self.matmul_into_at(other, out, simd::level());
    }

    /// [`Mat::matmul_into`] on one named SIMD tier instead of the
    /// dispatched one — how the tests and benchmarks hold every tier the
    /// host supports against the others. Every tier produces the same
    /// bits.
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions disagree or the host does not support
    /// `level`.
    pub fn matmul_into_at(&self, other: &Mat, out: &mut Mat, level: Level) {
        assert_eq!(
            self.cols, other.rows,
            "matmul dimension mismatch: {}x{} · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        level.assert_supported();
        out.reset(self.rows, other.cols);
        self.matmul_rows(other, 0..self.rows, &mut out.data, level);
    }

    /// Matrix product `self · bᵀ` where `b` is handed over in its natural
    /// row-major layout — each output element is a dot product of two
    /// contiguous rows, so no transposed copy of `b` is ever materialised.
    /// The per-element accumulation order (ascending `k`) matches
    /// [`Mat::matmul`] against an explicit `b.transpose()`, keeping results
    /// bit-compatible with the allocating path.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions (`self.cols` vs `b.cols`) disagree.
    pub fn matmul_transposed_b_into(&self, b: &Mat, out: &mut Mat) {
        assert_eq!(
            self.cols, b.cols,
            "matmul_transposed_b dimension mismatch: {}x{} · ({}x{})ᵀ",
            self.rows, self.cols, b.rows, b.cols
        );
        out.reset(self.rows, b.rows);
        let (k, n) = (self.cols, b.rows);
        let mut i = 0;
        while i < self.rows {
            let mr = MR.min(self.rows - i);
            let mut j = 0;
            while j < n {
                let nr = NR.min(n - j);
                let mut acc = [[0.0f64; NR]; MR];
                for l in 0..k {
                    for (ii, accr) in acc.iter_mut().enumerate().take(mr) {
                        let a = self.data[(i + ii) * k + l];
                        for (jj, accv) in accr.iter_mut().enumerate().take(nr) {
                            *accv += a * b.data[(j + jj) * k + l];
                        }
                    }
                }
                for (ii, accr) in acc.iter().enumerate().take(mr) {
                    out.data[(i + ii) * n + j..(i + ii) * n + j + nr].copy_from_slice(&accr[..nr]);
                }
                j += nr;
            }
            i += mr;
        }
    }

    /// The pre-blocking reference GEMM: a streaming row-major kernel with
    /// no register tiling. Kept public as the differential baseline the
    /// blocked kernels are pinned against (and benchmarked against).
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions disagree.
    pub fn matmul_naive(&self, other: &Mat) -> Mat {
        assert_eq!(
            self.cols, other.rows,
            "matmul dimension mismatch: {}x{} · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Mat::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            let orow = &mut out.data[i * other.cols..(i + 1) * other.cols];
            for l in 0..self.cols {
                let a = self.data[i * self.cols + l];
                if a == 0.0 {
                    continue;
                }
                let brow = &other.data[l * other.cols..(l + 1) * other.cols];
                for j in 0..other.cols {
                    orow[j] += a * brow[j];
                }
            }
        }
        out
    }

    /// Computes output rows `rows` of `self · other` into `out`
    /// (row-major, `rows.len() * other.cols` long) with the cache-blocked
    /// register-tiled kernel of tier `level`, which the caller has checked
    /// the host supports.
    ///
    /// Each `MR × NR` output tile is accumulated in registers across the
    /// *full* `k` loop in ascending order, so every output element sees
    /// exactly the ascending-`k` addition sequence of the naive kernel and
    /// the results agree bit for bit (the naive kernel's skip of zero `a`
    /// values can at most flip the sign of a ±0.0 result, which `==`
    /// cannot observe). Tiling only reorders *which elements* are worked
    /// on, never the per-element accumulation order — while the `B` panel
    /// is streamed once per `MR` output rows instead of once per row.
    fn matmul_rows(
        &self,
        other: &Mat,
        rows: std::ops::Range<usize>,
        out: &mut [f64],
        level: Level,
    ) {
        let (k, n) = (self.cols, other.cols);
        debug_assert_eq!(out.len(), rows.len() * n);
        debug_assert!(level.supported());
        let (a, b) = (&self.data[..], &other.data[..]);
        match level {
            // SAFETY (both arms): every caller passes `simd::level()`,
            // which only returns tiers the host supports, or a tier it
            // checked with `Level::assert_supported`.
            #[cfg(target_arch = "x86_64")]
            Level::Avx512 => unsafe { gemm_rows_avx512(a, b, k, n, rows, out) },
            #[cfg(target_arch = "x86_64")]
            Level::Avx2 => unsafe { gemm_rows_avx2(a, b, k, n, rows, out) },
            _ => gemm_rows_body::<NR>(a, b, k, n, rows, out),
        }
    }

    /// Element-wise subtraction.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn sub(&self, other: &Mat) -> Mat {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "shape mismatch in sub"
        );
        Mat {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| a - b)
                .collect(),
        }
    }

    /// Element-wise addition.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add(&self, other: &Mat) -> Mat {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "shape mismatch in add"
        );
        Mat {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }

    /// Scales every element.
    pub fn scale(&self, s: f64) -> Mat {
        Mat {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|x| x * s).collect(),
        }
    }

    /// Frobenius norm.
    pub fn fro_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Maximum absolute element.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0f64, |m, &x| m.max(x.abs()))
    }

    /// Mean element value.
    pub fn mean(&self) -> f64 {
        self.data.iter().sum::<f64>() / self.data.len() as f64
    }

    /// Converts a single-channel `(1, 1, H, W)` (or any single-plane) tensor
    /// into a matrix.
    ///
    /// # Panics
    ///
    /// Panics if the tensor has more than one batch item or channel.
    pub fn from_tensor(t: &Tensor) -> Mat {
        let s = t.shape();
        assert_eq!(
            (s.n, s.c),
            (1, 1),
            "expected a single-plane tensor, got {s}"
        );
        Mat {
            rows: s.h,
            cols: s.w,
            data: t.as_slice().iter().map(|&x| x as f64).collect(),
        }
    }

    /// Converts this matrix to a `(1, 1, rows, cols)` tensor.
    pub fn to_tensor(&self) -> Tensor {
        Tensor::from_vec(
            Shape::new(1, 1, self.rows, self.cols),
            self.data.iter().map(|&x| x as f32).collect(),
        )
    }

    /// [`Mat::from_tensor`] writing into an existing matrix (reusing its
    /// allocation when possible).
    ///
    /// # Panics
    ///
    /// Panics if the tensor has more than one batch item or channel.
    pub fn assign_tensor(&mut self, t: &Tensor) {
        let s = t.shape();
        assert_eq!(
            (s.n, s.c),
            (1, 1),
            "expected a single-plane tensor, got {s}"
        );
        self.reset(s.h, s.w);
        for (d, &x) in self.data.iter_mut().zip(t.as_slice()) {
            *d = x as f64;
        }
    }

    /// [`Mat::to_tensor`] writing into an existing tensor (reusing its
    /// allocation when possible).
    pub fn write_tensor(&self, out: &mut Tensor) {
        out.reset(Shape::new(1, 1, self.rows, self.cols));
        for (o, &x) in out.as_mut_slice().iter_mut().zip(&self.data) {
            *o = x as f32;
        }
    }
}

impl fmt::Debug for Mat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Mat({}x{}, fro={:.4}, max|.|={:.4})",
            self.rows,
            self.cols,
            self.fro_norm(),
            self.max_abs()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocked_matmul_is_bit_identical_to_naive() {
        // edge sizes straddling the 4x4, 4x8 and 4x16 register tiles, plus
        // tile multiples and the working-scale solve shapes
        for (m, k, n) in [
            (1usize, 1usize, 1usize),
            (3, 5, 7),
            (4, 8, 8),
            (5, 9, 17),
            (6, 4, 16),
            (7, 3, 33),
            (48, 64, 48),
            (64, 48, 64),
            (13, 1, 9),
        ] {
            let a = Mat::from_fn(m, k, |r, c| ((r * 31 + c * 7) % 13) as f64 / 3.0 - 2.0);
            let b = Mat::from_fn(k, n, |r, c| ((r * 17 + c * 3) % 11) as f64 / 5.0 - 1.0);
            let naive = a.matmul_naive(&b);
            assert_eq!(
                a.matmul(&b).as_slice(),
                naive.as_slice(),
                "dispatched != naive at {m}x{k}x{n}"
            );
            let mut out = Mat::zeros(1, 1);
            for level in simd::supported_levels() {
                a.matmul_into_at(&b, &mut out, level);
                assert_eq!(
                    out.as_slice(),
                    naive.as_slice(),
                    "{} tile != naive at {m}x{k}x{n}",
                    level.name()
                );
            }
        }
    }

    #[test]
    fn matmul_into_matches_and_reuses_the_buffer() {
        let a = Mat::from_fn(5, 7, |r, c| (r * 7 + c) as f64 * 0.25);
        let b = Mat::from_fn(7, 9, |r, c| (r as f64) - (c as f64) * 0.5);
        let mut out = Mat::zeros(1, 1);
        a.matmul_into(&b, &mut out);
        assert_eq!(out.as_slice(), a.matmul(&b).as_slice());
        // a second, smaller product through the same buffer
        let c = Mat::from_fn(7, 2, |r, c| (r + c) as f64);
        a.matmul_into(&c, &mut out);
        assert_eq!(out.as_slice(), a.matmul(&c).as_slice());
    }

    #[test]
    fn transposed_b_product_matches_explicit_transpose() {
        for (m, k, n) in [(3usize, 5usize, 4usize), (9, 17, 13), (48, 64, 64)] {
            let a = Mat::from_fn(m, k, |r, c| ((r * 13 + c * 5) % 7) as f64 - 3.0);
            let b = Mat::from_fn(n, k, |r, c| ((r * 3 + c * 11) % 9) as f64 * 0.5);
            let mut out = Mat::zeros(1, 1);
            a.matmul_transposed_b_into(&b, &mut out);
            assert_eq!(
                out.as_slice(),
                a.matmul(&b.transpose()).as_slice(),
                "mismatch at {m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn reset_and_copy_reuse_capacity() {
        let mut m = Mat::zeros(8, 8);
        m.reset(4, 4);
        assert_eq!((m.rows(), m.cols()), (4, 4));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
        let src = Mat::from_fn(3, 5, |r, c| (r * 5 + c) as f64);
        m.copy_from(&src);
        assert_eq!(m, src);
    }

    #[test]
    fn tensor_assign_and_write_round_trip() {
        let m = Mat::from_fn(4, 6, |r, c| (r as f64) - (c as f64) * 0.5);
        let mut t = Tensor::zeros(Shape::new(1, 1, 1, 1));
        m.write_tensor(&mut t);
        assert_eq!(t.as_slice(), m.to_tensor().as_slice());
        let mut back = Mat::zeros(1, 1);
        back.assign_tensor(&t);
        assert_eq!(back.as_slice(), Mat::from_tensor(&t).as_slice());
    }

    #[test]
    fn identity_is_neutral() {
        let a = Mat::from_fn(3, 3, |r, c| (r * 3 + c) as f64);
        assert_eq!(a.matmul(&Mat::identity(3)), a);
        assert_eq!(Mat::identity(3).matmul(&a), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Mat::from_rows(&[&[1., 2.], &[3., 4.]]);
        let b = Mat::from_rows(&[&[5., 6.], &[7., 8.]]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[19., 22., 43., 50.]);
    }

    #[test]
    fn transpose_involution() {
        let a = Mat::from_fn(2, 5, |r, c| (r * 5 + c) as f64);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().at(3, 1), a.at(1, 3));
    }

    #[test]
    fn arithmetic_and_norms() {
        let a = Mat::from_rows(&[&[3., 4.]]);
        assert_eq!(a.fro_norm(), 5.0);
        assert_eq!(a.max_abs(), 4.0);
        assert_eq!(a.scale(2.0).as_slice(), &[6., 8.]);
        assert_eq!(a.sub(&a).fro_norm(), 0.0);
        assert_eq!(a.add(&a).mean(), 7.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matmul_rejects_mismatch() {
        Mat::zeros(2, 3).matmul(&Mat::zeros(2, 3));
    }

    #[test]
    fn tensor_round_trip() {
        let m = Mat::from_fn(4, 6, |r, c| (r as f64) - (c as f64) * 0.5);
        let t = m.to_tensor();
        assert_eq!(t.shape().dims(), (1, 1, 4, 6));
        let m2 = Mat::from_tensor(&t);
        assert!(m.sub(&m2).max_abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn from_rows_rejects_ragged() {
        Mat::from_rows(&[&[1.0], &[1.0, 2.0]]);
    }
}
