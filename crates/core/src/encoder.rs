//! The shared token encoder: per-component embeddings concatenated into
//! one LSTM input vector.

use hfl_nn::{Embedding, Tensor};
use rand::Rng;

use crate::tokens::{head_sizes, Tokens};

/// Embedding dimensions per instruction component.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncoderConfig {
    /// Opcode embedding width.
    pub opcode: usize,
    /// Register embedding width (shared table across the four slots).
    pub reg: usize,
    /// Immediate-bucket embedding width.
    pub imm: usize,
    /// Address-bucket embedding width.
    pub addr: usize,
}

impl EncoderConfig {
    /// Default widths (opcode 32, registers 8, immediate 8, address 8 →
    /// 80-dimensional LSTM input).
    #[must_use]
    pub fn default_dims() -> EncoderConfig {
        EncoderConfig {
            opcode: 32,
            reg: 8,
            imm: 8,
            addr: 8,
        }
    }

    /// Total input width.
    #[must_use]
    pub fn input_dim(&self) -> usize {
        self.opcode + 4 * self.reg + self.imm + self.addr
    }
}

impl Default for EncoderConfig {
    fn default() -> Self {
        EncoderConfig::default_dims()
    }
}

/// Embeds [`Tokens`] into a dense vector: `[opcode | rd | rs1 | rs2 | rs3 |
/// imm | addr]`. The register table is shared across the four slots.
#[derive(Debug, Clone)]
pub struct TokenEncoder {
    cfg: EncoderConfig,
    emb_op: Embedding,
    emb_reg: Embedding,
    emb_imm: Embedding,
    emb_addr: Embedding,
}

impl TokenEncoder {
    /// Creates an encoder with Xavier-initialised tables.
    #[must_use]
    pub fn new<R: Rng>(cfg: EncoderConfig, rng: &mut R) -> TokenEncoder {
        let sizes = head_sizes();
        TokenEncoder {
            cfg,
            emb_op: Embedding::new(sizes[0], cfg.opcode, rng),
            emb_reg: Embedding::new(32, cfg.reg, rng),
            emb_imm: Embedding::new(sizes[5], cfg.imm, rng),
            emb_addr: Embedding::new(sizes[6], cfg.addr, rng),
        }
    }

    /// The encoder configuration.
    #[must_use]
    pub fn config(&self) -> EncoderConfig {
        self.cfg
    }

    /// The four embedding tables (opcode, register, immediate, address),
    /// in checkpoint order.
    #[must_use]
    pub fn tables(&self) -> [&Embedding; 4] {
        [&self.emb_op, &self.emb_reg, &self.emb_imm, &self.emb_addr]
    }

    /// Rebuilds an encoder from persisted tables; `None` on shape
    /// mismatch.
    #[must_use]
    pub fn from_parts(
        cfg: EncoderConfig,
        emb_op: Embedding,
        emb_reg: Embedding,
        emb_imm: Embedding,
        emb_addr: Embedding,
    ) -> Option<TokenEncoder> {
        let sizes = head_sizes();
        let ok = emb_op.vocab() == sizes[0]
            && emb_op.dim() == cfg.opcode
            && emb_reg.vocab() == 32
            && emb_reg.dim() == cfg.reg
            && emb_imm.vocab() == sizes[5]
            && emb_imm.dim() == cfg.imm
            && emb_addr.vocab() == sizes[6]
            && emb_addr.dim() == cfg.addr;
        ok.then_some(TokenEncoder {
            cfg,
            emb_op,
            emb_reg,
            emb_imm,
            emb_addr,
        })
    }

    /// Width of the produced vectors.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.cfg.input_dim()
    }

    /// Embeds one token tuple.
    #[must_use]
    pub fn encode(&self, t: &Tokens) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.dim());
        out.extend(self.emb_op.forward(t.indices[0]));
        for slot in 1..=4 {
            out.extend(self.emb_reg.forward(t.indices[slot]));
        }
        out.extend(self.emb_imm.forward(t.indices[5]));
        out.extend(self.emb_addr.forward(t.indices[6]));
        out
    }

    /// Embeds a batch of token tuples, one [`TokenEncoder::encode`] per
    /// token.
    #[must_use]
    pub fn encode_batch(&self, ts: &[Tokens]) -> Vec<Vec<f32>> {
        ts.iter().map(|t| self.encode(t)).collect()
    }

    /// Scatters an input-vector gradient back into the embedding tables.
    ///
    /// # Panics
    /// Panics if `dvec.len() != self.dim()`.
    pub fn backward(&mut self, t: &Tokens, dvec: &[f32]) {
        assert_eq!(dvec.len(), self.dim());
        let mut off = 0;
        self.emb_op
            .backward(t.indices[0], &dvec[off..off + self.cfg.opcode]);
        off += self.cfg.opcode;
        for slot in 1..=4 {
            self.emb_reg
                .backward(t.indices[slot], &dvec[off..off + self.cfg.reg]);
            off += self.cfg.reg;
        }
        self.emb_imm
            .backward(t.indices[5], &dvec[off..off + self.cfg.imm]);
        off += self.cfg.imm;
        self.emb_addr
            .backward(t.indices[6], &dvec[off..off + self.cfg.addr]);
    }

    /// All parameter tensors (for the optimiser).
    pub fn params_mut(&mut self) -> Vec<&mut Tensor> {
        let mut v = self.emb_op.params_mut();
        v.extend(self.emb_reg.params_mut());
        v.extend(self.emb_imm.params_mut());
        v.extend(self.emb_addr.params_mut());
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfl_riscv::{Instruction, Opcode, Reg};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn dimensions_add_up() {
        let cfg = EncoderConfig::default_dims();
        assert_eq!(cfg.input_dim(), 32 + 32 + 8 + 8);
        let enc = TokenEncoder::new(cfg, &mut StdRng::seed_from_u64(0));
        let v = enc.encode(&Tokens::bos());
        assert_eq!(v.len(), enc.dim());
    }

    #[test]
    fn distinct_instructions_encode_distinctly() {
        let enc = TokenEncoder::new(EncoderConfig::default_dims(), &mut StdRng::seed_from_u64(1));
        let a = enc.encode(&Tokens::from_instruction(&Instruction::r(
            Opcode::Add,
            Reg::X1,
            Reg::X2,
            Reg::X3,
        )));
        let b = enc.encode(&Tokens::from_instruction(&Instruction::r(
            Opcode::Sub,
            Reg::X1,
            Reg::X2,
            Reg::X3,
        )));
        assert_ne!(a, b);
    }

    #[test]
    fn backward_routes_to_component_tables() {
        let mut enc =
            TokenEncoder::new(EncoderConfig::default_dims(), &mut StdRng::seed_from_u64(2));
        let t = Tokens::from_instruction(&Instruction::r(Opcode::Add, Reg::X1, Reg::X2, Reg::X3));
        let dvec = vec![1.0f32; enc.dim()];
        enc.backward(&t, &dvec);
        // The opcode row for `add` received gradient.
        let op_row = Opcode::Add.index();
        assert!(enc.emb_op.table.grad[op_row * 32..(op_row + 1) * 32]
            .iter()
            .all(|&g| g == 1.0));
        // The shared register table accumulated from multiple slots
        // (x2 appears once, x0 in the unused rs3 slot...).
        assert!(enc.emb_reg.table.grad.iter().any(|&g| g > 0.0));
    }

    #[test]
    fn params_cover_all_four_tables() {
        let mut enc =
            TokenEncoder::new(EncoderConfig::default_dims(), &mut StdRng::seed_from_u64(3));
        assert_eq!(enc.params_mut().len(), 4);
    }
}
