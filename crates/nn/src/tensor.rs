//! The parameter tensor: a dense f32 matrix with gradient and Adam moments.

use rand::Rng;

/// Rows per register block of the matrix-vector kernel.
const BLOCK_ROWS: usize = 8;

/// A dense row-major f32 matrix carrying its gradient accumulator and Adam
/// optimiser moments.
///
/// Vectors are represented as single-column matrices. All the layers in this
/// crate own their parameters as `Tensor`s and hand them to
/// [`crate::adam::Adam::step`] for updates.
///
/// `data` is the only copy of the weights: no derived layout is cached, so
/// code may write `data` directly at any time.
///
/// # Examples
///
/// ```
/// use hfl_nn::Tensor;
///
/// let t = Tensor::zeros(2, 3);
/// assert_eq!(t.rows, 2);
/// assert_eq!(t.at(1, 2), 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Tensor {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Row-major values.
    pub data: Vec<f32>,
    /// Gradient accumulator (same shape as `data`).
    pub grad: Vec<f32>,
    /// Adam first moment.
    pub m: Vec<f32>,
    /// Adam second moment.
    pub v: Vec<f32>,
}

impl Tensor {
    /// An all-zero tensor.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Tensor {
        let n = rows * cols;
        Tensor {
            rows,
            cols,
            data: vec![0.0; n],
            grad: vec![0.0; n],
            m: vec![0.0; n],
            v: vec![0.0; n],
        }
    }

    /// Xavier/Glorot-uniform initialisation for a `rows x cols` weight.
    #[must_use]
    pub fn xavier<R: Rng>(rows: usize, cols: usize, rng: &mut R) -> Tensor {
        let mut t = Tensor::zeros(rows, cols);
        let bound = (6.0 / (rows + cols) as f32).sqrt();
        for w in &mut t.data {
            *w = rng.gen_range(-bound..bound);
        }
        t
    }

    /// Builds a tensor from a function of `(row, col)`.
    #[must_use]
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Tensor {
        let mut t = Tensor::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                t.data[r * cols + c] = f(r, c);
            }
        }
        t
    }

    /// Number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The element at `(row, col)`.
    ///
    /// # Panics
    /// Panics if the indices are out of bounds.
    #[must_use]
    pub fn at(&self, row: usize, col: usize) -> f32 {
        self.data[row * self.cols + col]
    }

    /// Mutable access to the element at `(row, col)`.
    ///
    /// # Panics
    /// Panics if the indices are out of bounds.
    pub fn at_mut(&mut self, row: usize, col: usize) -> &mut f32 {
        &mut self.data[row * self.cols + col]
    }

    /// One row as a slice.
    ///
    /// # Panics
    /// Panics if `row` is out of bounds.
    #[must_use]
    pub fn row(&self, row: usize) -> &[f32] {
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// One row as a mutable slice (used for embedding-table updates).
    ///
    /// # Panics
    /// Panics if `row` is out of bounds.
    pub fn row_mut(&mut self, row: usize) -> &mut [f32] {
        &mut self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// The gradient row for `row`.
    ///
    /// # Panics
    /// Panics if `row` is out of bounds.
    pub fn grad_row_mut(&mut self, row: usize) -> &mut [f32] {
        &mut self.grad[row * self.cols..(row + 1) * self.cols]
    }

    /// Matrix-vector product `self * x`.
    ///
    /// # Panics
    /// Panics if `x.len() != self.cols`.
    #[must_use]
    pub fn matvec(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        let mut y = vec![0.0f32; self.rows];
        self.matvec_into(x, &mut y);
        y
    }

    /// The matrix-vector kernel: writes `self * x` into `y`.
    ///
    /// Rows are taken [`BLOCK_ROWS`] at a time, each with its own
    /// accumulator, so the block's dot products form independent dependency
    /// chains instead of one serial one. Every accumulator still starts at
    /// `0.0` and adds its products in ascending column order, which keeps
    /// each output bit-identical to the plain serial dot product.
    fn matvec_into(&self, x: &[f32], y: &mut [f32]) {
        let cols = self.cols;
        debug_assert_eq!(x.len(), cols);
        debug_assert_eq!(y.len(), self.rows);
        debug_assert_eq!(self.data.len(), self.rows * cols);
        if cols == 0 {
            y.fill(0.0);
            return;
        }
        let mut blocks = self.data.chunks_exact(BLOCK_ROWS * cols);
        let mut outs = y.chunks_exact_mut(BLOCK_ROWS);
        for (block, out) in (&mut blocks).zip(&mut outs) {
            let rows: [&[f32]; BLOCK_ROWS] = std::array::from_fn(|r| &block[r * cols..][..cols]);
            let mut acc = [0.0f32; BLOCK_ROWS];
            for (c, &xc) in x.iter().enumerate() {
                for (a, row) in acc.iter_mut().zip(&rows) {
                    *a += row[c] * xc;
                }
            }
            out.copy_from_slice(&acc);
        }
        for (row, out) in blocks
            .remainder()
            .chunks_exact(cols)
            .zip(outs.into_remainder())
        {
            let mut acc = 0.0f32;
            for (w, xv) in row.iter().zip(x) {
                acc += w * xv;
            }
            *out = acc;
        }
    }

    /// Transposed matrix-vector product `selfᵀ * y` (used for input
    /// gradients).
    ///
    /// # Panics
    /// Panics if `y.len() != self.rows`.
    #[must_use]
    pub fn matvec_t(&self, y: &[f32]) -> Vec<f32> {
        assert_eq!(y.len(), self.rows, "matvec_t dimension mismatch");
        let mut x = vec![0.0f32; self.cols];
        for (r, &yr) in y.iter().enumerate() {
            let row = self.row(r);
            if yr == 0.0 {
                continue;
            }
            for (xc, w) in x.iter_mut().zip(row) {
                *xc += w * yr;
            }
        }
        x
    }

    /// Batched matrix-vector product: computes `self * x_b` for every
    /// `cols`-length chunk `x_b` of `xs_flat`, writing the results as
    /// consecutive `rows`-length chunks of `out` (cleared and resized).
    /// Each input goes through the same kernel as [`Tensor::matvec`], so
    /// the results are bit-identical to `batch` separate `matvec` calls.
    ///
    /// # Panics
    /// Panics if `xs_flat.len() != batch * self.cols`.
    pub fn matvec_batch(&self, xs_flat: &[f32], batch: usize, out: &mut Vec<f32>) {
        assert_eq!(
            xs_flat.len(),
            batch * self.cols,
            "matvec_batch dimension mismatch"
        );
        let (rows, cols) = (self.rows, self.cols);
        out.clear();
        out.resize(batch * rows, 0.0);
        for b in 0..batch {
            self.matvec_into(
                &xs_flat[b * cols..(b + 1) * cols],
                &mut out[b * rows..(b + 1) * rows],
            );
        }
    }

    /// Accumulates the outer product `y xᵀ` into the gradient (the weight
    /// gradient of `y = W x`).
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn grad_outer(&mut self, y: &[f32], x: &[f32]) {
        assert_eq!(y.len(), self.rows);
        assert_eq!(x.len(), self.cols);
        for (r, yr) in y.iter().enumerate() {
            if *yr == 0.0 {
                continue;
            }
            let grow = &mut self.grad[r * self.cols..(r + 1) * self.cols];
            for (g, xv) in grow.iter_mut().zip(x) {
                *g += yr * xv;
            }
        }
    }

    /// Clears the gradient accumulator.
    pub fn zero_grad(&mut self) {
        self.grad.iter_mut().for_each(|g| *g = 0.0);
    }

    /// Restores optimiser/gradient buffers sized to `data` (used after
    /// hand-built or partially populated tensors).
    pub fn ensure_buffers(&mut self) {
        let n = self.data.len();
        if self.grad.len() != n {
            self.grad = vec![0.0; n];
        }
        if self.m.len() != n {
            self.m = vec![0.0; n];
        }
        if self.v.len() != n {
            self.v = vec![0.0; n];
        }
    }

    /// Squared L2 norm of the gradient.
    #[must_use]
    pub fn grad_norm_sq(&self) -> f32 {
        self.grad.iter().map(|g| g * g).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zeros_and_indexing() {
        let mut t = Tensor::zeros(3, 4);
        assert_eq!(t.len(), 12);
        assert!(!t.is_empty());
        *t.at_mut(1, 2) = 5.0;
        assert_eq!(t.at(1, 2), 5.0);
        assert_eq!(t.row(1), &[0.0, 0.0, 5.0, 0.0]);
    }

    #[test]
    fn xavier_respects_bound_and_seed() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = Tensor::xavier(16, 16, &mut rng);
        let bound = (6.0 / 32.0f32).sqrt();
        assert!(t.data.iter().all(|w| w.abs() <= bound));
        let mut rng2 = StdRng::seed_from_u64(7);
        let t2 = Tensor::xavier(16, 16, &mut rng2);
        assert_eq!(t.data, t2.data, "seeded init is deterministic");
        assert!(t.data.iter().any(|w| *w != 0.0));
    }

    #[test]
    fn matvec_matches_manual_computation() {
        let t = Tensor::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
        // [[0,1,2],[3,4,5]] * [1,1,1] = [3,12]
        assert_eq!(t.matvec(&[1.0, 1.0, 1.0]), vec![3.0, 12.0]);
        // transpose: [[0,3],[1,4],[2,5]] * [1,2] = [6,9,12]
        assert_eq!(t.matvec_t(&[1.0, 2.0]), vec![6.0, 9.0, 12.0]);
    }

    #[test]
    fn grad_outer_accumulates() {
        let mut t = Tensor::zeros(2, 2);
        t.grad_outer(&[1.0, 2.0], &[3.0, 4.0]);
        t.grad_outer(&[1.0, 0.0], &[1.0, 1.0]);
        assert_eq!(t.grad, vec![4.0, 5.0, 6.0, 8.0]);
        assert!(t.grad_norm_sq() > 0.0);
        t.zero_grad();
        assert_eq!(t.grad_norm_sq(), 0.0);
    }

    #[test]
    fn matvec_batch_is_bitwise_identical_to_matvec() {
        let mut rng = StdRng::seed_from_u64(11);
        let t = Tensor::xavier(7, 5, &mut rng);
        let xs: Vec<f32> = (0..3 * 5).map(|i| (i as f32 * 0.61).sin()).collect();
        let mut out = Vec::new();
        t.matvec_batch(&xs, 3, &mut out);
        for (b, x) in xs.chunks_exact(5).enumerate() {
            let scalar = t.matvec(x);
            for (a, s) in out[b * 7..(b + 1) * 7].iter().zip(&scalar) {
                assert_eq!(a.to_bits(), s.to_bits(), "batch row {b}");
            }
        }
    }

    #[test]
    fn matvec_batch_sees_direct_data_writes() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut t = Tensor::xavier(4, 3, &mut rng);
        let x = vec![0.5f32, -0.25, 1.0];
        let mut out = Vec::new();
        t.matvec_batch(&x, 1, &mut out);
        t.data[0] = 42.0;
        t.matvec_batch(&x, 1, &mut out);
        assert_eq!(out, t.matvec(&x), "no stale weights after a direct write");
        assert_eq!(out[0], 42.0 * 0.5 + t.at(0, 1) * -0.25 + t.at(0, 2));
    }

    #[test]
    fn checkpoint_reload_restores_buffers() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = Tensor::xavier(4, 4, &mut rng);
        // A tensor with missing transient buffers gets them rebuilt.
        let mut stripped = t.clone();
        stripped.grad.clear();
        stripped.m.clear();
        stripped.v.clear();
        stripped.ensure_buffers();
        assert_eq!(stripped.grad.len(), t.len());
        assert_eq!(stripped.m.len(), t.len());
        assert_eq!(stripped.data, t.data);
    }
}
