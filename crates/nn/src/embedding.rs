//! Token embeddings for the instruction-sequence tokenisers.

use rand::Rng;

use crate::tensor::Tensor;

/// A lookup-table embedding: token id → dense vector.
///
/// The paper tokenises and encodes assembly instruction sequences before
/// feeding them to the LSTM (§IV-C); this layer is that encoder.
///
/// # Examples
///
/// ```
/// use hfl_nn::Embedding;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let emb = Embedding::new(100, 16, &mut rng);
/// assert_eq!(emb.forward(42).len(), 16);
/// ```
#[derive(Debug, Clone)]
pub struct Embedding {
    /// The table, `vocab x dim`.
    pub table: Tensor,
}

impl Embedding {
    /// Creates a table for `vocab` tokens of dimension `dim`.
    #[must_use]
    pub fn new<R: Rng>(vocab: usize, dim: usize, rng: &mut R) -> Embedding {
        Embedding {
            table: Tensor::xavier(vocab, dim, rng),
        }
    }

    /// Vocabulary size.
    #[must_use]
    pub fn vocab(&self) -> usize {
        self.table.rows
    }

    /// Embedding dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.table.cols
    }

    /// Looks a token up (ids wrap modulo the vocabulary).
    #[must_use]
    pub fn forward(&self, token: usize) -> Vec<f32> {
        self.table.row(token % self.table.rows).to_vec()
    }

    /// Scatters a gradient back into the table row for `token`.
    pub fn backward(&mut self, token: usize, dvec: &[f32]) {
        let row = token % self.table.rows;
        for (g, d) in self.table.grad_row_mut(row).iter_mut().zip(dvec) {
            *g += d;
        }
    }

    /// The parameter tensors (for the optimiser).
    pub fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.table]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn lookup_wraps_and_is_consistent() {
        let emb = Embedding::new(10, 4, &mut StdRng::seed_from_u64(0));
        assert_eq!(emb.vocab(), 10);
        assert_eq!(emb.dim(), 4);
        assert_eq!(emb.forward(3), emb.forward(13));
    }

    #[test]
    fn backward_scatters_into_the_right_row() {
        let mut emb = Embedding::new(5, 3, &mut StdRng::seed_from_u64(0));
        emb.backward(2, &[1.0, 2.0, 3.0]);
        emb.backward(2, &[1.0, 0.0, 0.0]);
        assert_eq!(&emb.table.grad[6..9], &[2.0, 2.0, 3.0]);
        assert!(emb.table.grad[..6].iter().all(|&g| g == 0.0));
        assert!(emb.table.grad[9..].iter().all(|&g| g == 0.0));
    }
}
