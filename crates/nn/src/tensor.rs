//! A minimal row-major 2-D `f32` tensor.

#![allow(clippy::needless_range_loop)] // index loops mirror the math

/// Output columns per register tile of the matmul kernels.
const TILE: usize = 16;
/// Output rows per register tile of the matmul kernels.
const ROWS: usize = 2;

/// `aᵀ · b` with both operands stored reduction-major: `a` is
/// `[red × rows]`, `b` is `[red × n]`, the result `[rows × n]`. The one
/// kernel behind all three matmuls.
///
/// Every output starts at `+0.0` and adds `a[p][i] · b[p][j]` in
/// ascending `p`; with `skip_zero`, a step whose `a[p][i]` is zero adds
/// nothing to row `i`. Outputs are computed in register tiles of up to
/// `ROWS` rows by `TILE` columns (the leftover `n % TILE` columns one at
/// a time): a tile's columns are independent lanes, so they vectorise,
/// and its rows reuse each loaded `b` slice. A tile only decides which
/// outputs share a loop; each output's own sum is fixed, so the bits do
/// not depend on the tiling.
fn matmul_reduction_major(a: &[f32], b: &[f32], rows: usize, n: usize, skip_zero: bool) -> Tensor {
    /// One `R × W` tile with top-left output `(i, j)`.
    #[inline(always)]
    fn tile<const R: usize, const W: usize>(
        a: &[f32],
        b: &[f32],
        (rows, n): (usize, usize),
        (i, j): (usize, usize),
        skip_zero: bool,
        out: &mut Tensor,
    ) {
        let mut acc = [[0.0f32; W]; R];
        for (ap, bp) in a.chunks_exact(rows).zip(b.chunks_exact(n)) {
            let ap: &[f32; R] = ap[i..i + R].try_into().expect("R rows");
            let bp: &[f32; W] = bp[j..j + W].try_into().expect("W columns");
            for (acc, &x) in acc.iter_mut().zip(ap) {
                if skip_zero && x == 0.0 {
                    continue;
                }
                for (o, &y) in acc.iter_mut().zip(bp) {
                    *o += x * y;
                }
            }
        }
        for (r, acc) in acc.iter().enumerate() {
            out.row_mut(i + r)[j..j + W].copy_from_slice(acc);
        }
    }
    /// Every tile of the `W` columns from `j`: `ROWS`-row blocks, then
    /// the leftover rows one at a time.
    #[inline(always)]
    fn columns<const W: usize>(
        a: &[f32],
        b: &[f32],
        dims: (usize, usize),
        j: usize,
        skip_zero: bool,
        out: &mut Tensor,
    ) {
        let blocked = dims.0 - dims.0 % ROWS;
        for i in (0..blocked).step_by(ROWS) {
            tile::<ROWS, W>(a, b, dims, (i, j), skip_zero, out);
        }
        for i in blocked..dims.0 {
            tile::<1, W>(a, b, dims, (i, j), skip_zero, out);
        }
    }
    let mut out = Tensor::zeros(rows, n);
    let tiled = n - n % TILE;
    for j in (0..tiled).step_by(TILE) {
        columns::<TILE>(a, b, (rows, n), j, skip_zero, &mut out);
    }
    for j in tiled..n {
        columns::<1>(a, b, (rows, n), j, skip_zero, &mut out);
    }
    out
}

/// A dense row-major matrix of `f32`.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    rows: usize,
    cols: usize,
}

impl Tensor {
    /// Creates a tensor from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn new(data: Vec<f32>, rows: usize, cols: usize) -> Self {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        Tensor { data, rows, cols }
    }

    /// An all-zeros tensor.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor { data: vec![0.0; rows * cols], rows, cols }
    }

    /// A scalar wrapped as a 1×1 tensor.
    pub fn scalar(v: f32) -> Self {
        Tensor::new(vec![v], 1, 1)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable element access.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Mutable element access.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// The raw row-major buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// The raw row-major buffer, mutably.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// One row as a slice.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// One row as a mutable slice.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The transpose, `[cols × rows]`. Source rows go four at a time, so
    /// each destination row takes four contiguous values per pass.
    fn transposed(&self) -> Tensor {
        let (rows, cols) = (self.rows, self.cols);
        let mut t = Tensor::zeros(cols, rows);
        let quads = rows - rows % 4;
        for r in (0..quads).step_by(4) {
            let src = [self.row(r), self.row(r + 1), self.row(r + 2), self.row(r + 3)];
            for (c, dst) in t.data.chunks_exact_mut(rows).enumerate() {
                dst[r..r + 4].copy_from_slice(&[src[0][c], src[1][c], src[2][c], src[3][c]]);
            }
        }
        for r in quads..rows {
            for (dst, &v) in t.data.iter_mut().skip(r).step_by(rows).zip(self.row(r)) {
                *dst = v;
            }
        }
        t
    }

    /// `self · otherᵀ`, where `self` is `[m × k]` and `other` is `[n × k]`.
    ///
    /// Each output starts at `+0.0` and adds its `k` products in
    /// ascending `k`. Both operands are transposed once per call into
    /// `[k × m]` and `[k × n]` scratch buffers, so a tile of outputs
    /// streams contiguous slices of each.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.cols, other.cols, "matmul_nt inner dims");
        let (xt, wt) = (self.transposed(), other.transposed());
        matmul_reduction_major(&xt.data, &wt.data, self.rows, other.rows, false)
    }

    /// `selfᵀ · other`, where `self` is `[m × k]` and `other` is `[m × n]`.
    ///
    /// Each output `[kk][j]` starts at `+0.0` and adds its products in
    /// ascending `i`, skipping every `i` whose `self[i][kk]` is zero.
    ///
    /// # Panics
    ///
    /// Panics on outer-dimension mismatch.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rows, other.rows, "matmul_tn outer dims");
        matmul_reduction_major(&self.data, &other.data, self.cols, other.cols, true)
    }

    /// `self · other`, where `self` is `[m × k]` and `other` is `[k × n]`.
    ///
    /// Each output starts at `+0.0` and adds its products in ascending
    /// `k`, skipping every `k` whose `self[i][k]` is zero. `self` is
    /// transposed once per call into a `[k × m]` scratch buffer.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul_nn(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.cols, other.rows, "matmul_nn inner dims");
        matmul_reduction_major(&self.transposed().data, &other.data, self.rows, other.cols, true)
    }

    /// Elementwise addition.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&self, other: &Tensor) -> Tensor {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "add shapes");
        let data = self.data.iter().zip(other.data.iter()).map(|(a, b)| a + b).collect();
        Tensor::new(data, self.rows, self.cols)
    }

    /// In-place `self += scale * other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_scaled(&mut self, other: &Tensor, scale: f32) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "add_scaled shapes");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += scale * b;
        }
    }

    /// Elementwise map.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor::new(self.data.iter().map(|&v| f(v)).collect(), self.rows, self.cols)
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// Reference `x · wᵀ`: one serial dot product per output.
    fn naive_nt(x: &Tensor, w: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(x.rows, w.rows);
        for i in 0..x.rows {
            for j in 0..w.rows {
                let mut acc = 0.0f32;
                for k in 0..x.cols {
                    acc += x.get(i, k) * w.get(j, k);
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    /// Reference `xᵀ · y`: rank-1 updates in ascending row order,
    /// skipping zero entries of `x`.
    fn naive_tn(x: &Tensor, y: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(x.cols, y.cols);
        for i in 0..x.rows {
            for k in 0..x.cols {
                let xik = x.get(i, k);
                if xik == 0.0 {
                    continue;
                }
                for j in 0..y.cols {
                    out.set(k, j, out.get(k, j) + xik * y.get(i, j));
                }
            }
        }
        out
    }

    /// Reference `x · w`: row updates in ascending `k`, skipping zero
    /// entries of `x`.
    fn naive_nn(x: &Tensor, w: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(x.rows, w.cols);
        for i in 0..x.rows {
            for k in 0..x.cols {
                let xik = x.get(i, k);
                if xik == 0.0 {
                    continue;
                }
                for j in 0..w.cols {
                    out.set(i, j, out.get(i, j) + xik * w.get(k, j));
                }
            }
        }
        out
    }

    /// A `[rows × cols]` tensor of values in `[-2, 2)`, sprinkled with
    /// `0.0`, `-0.0` and infinities (a zero times an infinity is where
    /// the zero skip shows in the bits).
    fn sprinkled(rng: &mut StdRng, rows: usize, cols: usize) -> Tensor {
        let data = (0..rows * cols)
            .map(|_| match rng.random_range(0u32..32) {
                0..=3 => 0.0,
                4..=7 => -0.0,
                8 => f32::INFINITY,
                9 => f32::NEG_INFINITY,
                _ => rng.random::<f32>() * 4.0 - 2.0,
            })
            .collect();
        Tensor::new(data, rows, cols)
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn tiled_kernels_match_naive_loops_bit_for_bit(
            m in 1usize..=70,
            k in 1usize..=70,
            n in 1usize..=70,
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let x = sprinkled(&mut rng, m, k);
            let w_nt = sprinkled(&mut rng, n, k);
            let w_nn = sprinkled(&mut rng, k, n);
            let y_tn = sprinkled(&mut rng, m, n);
            prop_assert_eq!(bits(&x.matmul_nt(&w_nt)), bits(&naive_nt(&x, &w_nt)), "nt");
            prop_assert_eq!(bits(&x.matmul_nn(&w_nn)), bits(&naive_nn(&x, &w_nn)), "nn");
            prop_assert_eq!(bits(&x.matmul_tn(&y_tn)), bits(&naive_tn(&x, &y_tn)), "tn");
        }
    }

    #[test]
    fn matmul_nt_matches_hand_computation() {
        // x = [[1,2],[3,4]], w = [[5,6],[7,8]] (rows are output neurons).
        let x = Tensor::new(vec![1.0, 2.0, 3.0, 4.0], 2, 2);
        let w = Tensor::new(vec![5.0, 6.0, 7.0, 8.0], 2, 2);
        let y = x.matmul_nt(&w);
        assert_eq!(y.data(), &[17.0, 23.0, 39.0, 53.0]);
    }

    #[test]
    fn matmul_tn_matches_definition() {
        let x = Tensor::new(vec![1.0, 2.0, 3.0, 4.0], 2, 2);
        let y = Tensor::new(vec![5.0, 6.0, 7.0, 8.0], 2, 2);
        // xᵀ·y = [[1,3],[2,4]]·[[5,6],[7,8]] = [[26,30],[38,44]].
        let z = x.matmul_tn(&y);
        assert_eq!(z.data(), &[26.0, 30.0, 38.0, 44.0]);
    }

    #[test]
    fn matmul_nn_matches_definition() {
        let x = Tensor::new(vec![1.0, 2.0, 3.0, 4.0], 2, 2);
        let y = Tensor::new(vec![5.0, 6.0, 7.0, 8.0], 2, 2);
        let z = x.matmul_nn(&y);
        assert_eq!(z.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn transpose_identities_hold() {
        // (x·wᵀ) computed two ways must agree: matmul_nt(x, w) ==
        // matmul_nn(x, w_transposed).
        let x = Tensor::new(vec![1.0, -2.0, 0.5, 3.0, 4.0, -1.0], 2, 3);
        let w = Tensor::new(vec![2.0, 0.0, 1.0, -1.0, 1.0, 0.5], 2, 3);
        let mut wt = Tensor::zeros(3, 2);
        for i in 0..2 {
            for j in 0..3 {
                wt.set(j, i, w.get(i, j));
            }
        }
        assert_eq!(x.matmul_nt(&w).data(), x.matmul_nn(&wt).data());
    }

    #[test]
    fn empty_dimensions_give_empty_or_zero_products() {
        let (e0x3, e2x0, e3x0) = (Tensor::zeros(0, 3), Tensor::zeros(2, 0), Tensor::zeros(3, 0));
        assert_eq!(e0x3.matmul_nt(&Tensor::zeros(2, 3)), Tensor::zeros(0, 2));
        assert_eq!(e2x0.matmul_nt(&e3x0), Tensor::zeros(2, 3));
        assert_eq!(e2x0.matmul_nn(&Tensor::zeros(0, 3)), Tensor::zeros(2, 3));
        assert_eq!(e0x3.matmul_tn(&Tensor::zeros(0, 2)), Tensor::zeros(3, 2));
        assert_eq!(Tensor::zeros(2, 3).matmul_nn(&e3x0), Tensor::zeros(2, 0));
    }

    #[test]
    fn add_and_scale() {
        let a = Tensor::new(vec![1.0, 2.0], 1, 2);
        let b = Tensor::new(vec![3.0, 4.0], 1, 2);
        assert_eq!(a.add(&b).data(), &[4.0, 6.0]);
        let mut c = a.clone();
        c.add_scaled(&b, 0.5);
        assert_eq!(c.data(), &[2.5, 4.0]);
        assert_eq!(a.map(|v| v * v).data(), &[1.0, 4.0]);
        assert_eq!(b.sum(), 7.0);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn bad_shape_rejected() {
        Tensor::new(vec![1.0, 2.0, 3.0], 2, 2);
    }
}
