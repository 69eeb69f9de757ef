//! Checkpointing for the fuzzing loop's models and campaign state, built
//! on the [`hfl_nn::persist`] codec and snapshot container.
//!
//! A trained generator is a real artefact of an HFL campaign — it encodes
//! what the loop learned about the core. The [`Codec`] implementations
//! here serialise complete model state (config + parameters + optimiser
//! moments) plus the campaign-side collections (corpus, mismatch
//! signatures, instruction programs), so campaigns can be suspended,
//! resumed or transplanted across cores with bit-identical behaviour.
//!
//! Codec payloads are raw bodies with no framing; the versioned,
//! checksummed container ([`hfl_nn::persist::SnapshotWriter`]) is applied
//! at file boundaries (campaign checkpoints, standalone model snapshots).

use std::io::{Read, Write};

use hfl_nn::persist::{
    corrupt, read_bool, read_f32, read_string, read_u32, read_u64, read_usize, write_bool,
    write_f32, write_string, write_u32, write_u64, write_usize, Codec, PersistError,
};
use hfl_nn::{Embedding, Linear, Lstm};
use hfl_riscv::{Csr, Instruction, Opcode};

use crate::corpus::{Corpus, CorpusEntry, GlobalCorpus, GlobalCorpusStats, GlobalEntry};
use crate::correction::HeadOutputs;
use crate::difftest::{Signature, SignatureSet};
use crate::encoder::{EncoderConfig, TokenEncoder};
use crate::generator::{EpisodeStep, GeneratorConfig, InstructionGenerator, SampledAction};
use crate::predictor::{CoveragePredictor, PredictorConfig, ValuePredictor};
use crate::tokens::{head_sizes, Tokens};

/// Plausibility bound for model dimensions (hidden sizes, layer counts).
const MAX_DIM: u64 = 1 << 20;
/// Plausibility bound for program/sequence lengths.
const MAX_SEQ: u64 = 1 << 20;

// ---------------------------------------------------------------------------
// Instruction streams.
// ---------------------------------------------------------------------------

/// Writes one instruction as raw fields (opcode index, registers,
/// immediate, CSR address) — exact, unlike an asm-text round trip.
///
/// # Errors
/// Propagates I/O errors.
///
/// (`Instruction` lives in `hfl_riscv`, which the codec crate cannot
/// depend on, so this is a free function rather than a [`Codec`] impl.)
pub fn write_instruction<W: Write>(w: &mut W, inst: &Instruction) -> Result<(), PersistError> {
    write_u32(w, inst.opcode.index() as u32)?;
    w.write_all(&[inst.rd, inst.rs1, inst.rs2, inst.rs3])
        .map_err(PersistError::from)?;
    write_u64(w, inst.imm as u64)?;
    write_u32(w, u32::from(inst.csr.addr()))
}

/// Reads an instruction written by [`write_instruction`].
///
/// # Errors
/// Returns [`PersistError::Corrupt`] on out-of-range opcode, register or
/// CSR fields.
pub fn read_instruction<R: Read>(r: &mut R) -> Result<Instruction, PersistError> {
    let op = read_u32(r)? as usize;
    if op >= Opcode::COUNT {
        return Err(corrupt(format!("opcode index {op} out of range")));
    }
    let mut regs = [0u8; 4];
    r.read_exact(&mut regs)?;
    if regs.iter().any(|&x| x >= 32) {
        return Err(corrupt("register index out of range"));
    }
    let imm = read_u64(r)? as i64;
    let csr = read_u32(r)?;
    if csr > 0xFFF {
        return Err(corrupt(format!("csr address {csr:#x} out of range")));
    }
    Ok(Instruction::new(
        Opcode::from_index(op),
        regs[0],
        regs[1],
        regs[2],
        regs[3],
        imm,
        Csr::new(csr as u16),
    ))
}

/// Writes a length-prefixed instruction sequence.
///
/// # Errors
/// Propagates I/O errors.
pub fn write_program<W: Write>(w: &mut W, program: &[Instruction]) -> Result<(), PersistError> {
    write_usize(w, program.len())?;
    for inst in program {
        write_instruction(w, inst)?;
    }
    Ok(())
}

/// Reads a sequence written by [`write_program`].
///
/// # Errors
/// Returns a [`PersistError`] on implausible length or malformed
/// instructions.
pub fn read_program<R: Read>(r: &mut R) -> Result<Vec<Instruction>, PersistError> {
    let n = read_usize(r, MAX_SEQ, "program length")?;
    let mut program = Vec::with_capacity(n);
    for _ in 0..n {
        program.push(read_instruction(r)?);
    }
    Ok(program)
}

impl Codec for Tokens {
    fn save<W: Write>(&self, w: &mut W) -> Result<(), PersistError> {
        for idx in self.indices {
            write_usize(w, idx)?;
        }
        Ok(())
    }

    fn load<R: Read>(r: &mut R) -> Result<Self, PersistError> {
        let sizes = head_sizes();
        let mut indices = [0usize; 7];
        for (i, slot) in indices.iter_mut().enumerate() {
            *slot = read_usize(r, sizes[i] as u64 - 1, "token head index")?;
        }
        Ok(Tokens { indices })
    }
}

/// Writes a length-prefixed token sequence.
///
/// # Errors
/// Propagates I/O errors.
pub fn write_tokens_seq<W: Write>(w: &mut W, seq: &[Tokens]) -> Result<(), PersistError> {
    write_usize(w, seq.len())?;
    for t in seq {
        t.save(w)?;
    }
    Ok(())
}

/// Reads a sequence written by [`write_tokens_seq`].
///
/// # Errors
/// Returns a [`PersistError`] on implausible length or out-of-range
/// indices.
pub fn read_tokens_seq<R: Read>(r: &mut R) -> Result<Vec<Tokens>, PersistError> {
    let n = read_usize(r, MAX_SEQ, "token sequence length")?;
    let mut seq = Vec::with_capacity(n);
    for _ in 0..n {
        seq.push(Tokens::load(r)?);
    }
    Ok(seq)
}

// ---------------------------------------------------------------------------
// PPO episode state.
// ---------------------------------------------------------------------------

impl Codec for SampledAction {
    fn save<W: Write>(&self, w: &mut W) -> Result<(), PersistError> {
        for idx in self.outputs.indices {
            write_usize(w, idx)?;
        }
        for lp in self.log_probs {
            write_f32(w, lp)?;
        }
        Ok(())
    }

    fn load<R: Read>(r: &mut R) -> Result<Self, PersistError> {
        let mut indices = [0usize; 7];
        for slot in &mut indices {
            *slot = read_usize(r, MAX_DIM, "head output index")?;
        }
        let mut log_probs = [0f32; 7];
        for slot in &mut log_probs {
            *slot = read_f32(r)?;
        }
        Ok(SampledAction {
            outputs: HeadOutputs { indices },
            log_probs,
        })
    }
}

impl Codec for EpisodeStep {
    fn save<W: Write>(&self, w: &mut W) -> Result<(), PersistError> {
        self.input.save(w)?;
        self.action.save(w)?;
        for m in self.mask {
            write_bool(w, m)?;
        }
        write_f32(w, self.advantage)
    }

    fn load<R: Read>(r: &mut R) -> Result<Self, PersistError> {
        let input = Tokens::load(r)?;
        let action = SampledAction::load(r)?;
        let mut mask = [false; 7];
        for slot in &mut mask {
            *slot = read_bool(r)?;
        }
        Ok(EpisodeStep {
            input,
            action,
            mask,
            advantage: read_f32(r)?,
        })
    }
}

// ---------------------------------------------------------------------------
// Loop configuration and counters.
// ---------------------------------------------------------------------------

impl Codec for crate::fuzzer::HflConfig {
    fn save<W: Write>(&self, w: &mut W) -> Result<(), PersistError> {
        self.generator.save(w)?;
        self.predictor.save(w)?;
        write_f32(w, self.reward.alpha)?;
        write_f32(w, self.reward.r_bonus)?;
        write_f32(w, self.ppo.gamma)?;
        write_f32(w, self.ppo.epsilon)?;
        write_usize(w, self.test_len)?;
        write_usize(w, self.body_cap)?;
        write_u64(w, self.reset_patience)?;
        write_bool(w, self.use_instruction_mask)?;
        write_bool(w, self.use_reset)?;
        write_bool(w, self.use_value_baseline)?;
        write_bool(w, self.normalize_rewards)?;
        write_usize(w, self.screen_candidates)?;
        write_f32(w, self.exploration_epsilon)?;
        write_u64(w, self.seed)
    }

    fn load<R: Read>(r: &mut R) -> Result<Self, PersistError> {
        Ok(crate::fuzzer::HflConfig {
            generator: GeneratorConfig::load(r)?,
            predictor: PredictorConfig::load(r)?,
            reward: hfl_rl::RewardConfig {
                alpha: read_f32(r)?,
                r_bonus: read_f32(r)?,
            },
            ppo: hfl_rl::PpoConfig {
                gamma: read_f32(r)?,
                epsilon: read_f32(r)?,
            },
            test_len: read_usize(r, MAX_SEQ, "ppo window length")?,
            body_cap: read_usize(r, MAX_SEQ, "body cap")?,
            reset_patience: read_u64(r)?,
            use_instruction_mask: read_bool(r)?,
            use_reset: read_bool(r)?,
            use_value_baseline: read_bool(r)?,
            normalize_rewards: read_bool(r)?,
            screen_candidates: read_usize(r, MAX_DIM, "candidate count")?,
            exploration_epsilon: read_f32(r)?,
            seed: read_u64(r)?,
        })
    }
}

impl Codec for crate::fuzzer::HflStats {
    fn save<W: Write>(&self, w: &mut W) -> Result<(), PersistError> {
        write_u64(w, self.episodes)?;
        write_u64(w, self.cases)?;
        write_u64(w, self.resets)?;
        write_f32(w, self.best_coverage)?;
        write_f32(w, self.last_mean_ratio)?;
        write_f32(w, self.last_td_error)
    }

    fn load<R: Read>(r: &mut R) -> Result<Self, PersistError> {
        Ok(crate::fuzzer::HflStats {
            episodes: read_u64(r)?,
            cases: read_u64(r)?,
            resets: read_u64(r)?,
            best_coverage: read_f32(r)?,
            last_mean_ratio: read_f32(r)?,
            last_td_error: read_f32(r)?,
        })
    }
}

// ---------------------------------------------------------------------------
// Model configurations.
// ---------------------------------------------------------------------------

impl Codec for EncoderConfig {
    fn save<W: Write>(&self, w: &mut W) -> Result<(), PersistError> {
        write_usize(w, self.opcode)?;
        write_usize(w, self.reg)?;
        write_usize(w, self.imm)?;
        write_usize(w, self.addr)
    }

    fn load<R: Read>(r: &mut R) -> Result<Self, PersistError> {
        Ok(EncoderConfig {
            opcode: read_usize(r, MAX_DIM, "opcode embedding dim")?,
            reg: read_usize(r, MAX_DIM, "register embedding dim")?,
            imm: read_usize(r, MAX_DIM, "immediate embedding dim")?,
            addr: read_usize(r, MAX_DIM, "address embedding dim")?,
        })
    }
}

impl Codec for TokenEncoder {
    fn save<W: Write>(&self, w: &mut W) -> Result<(), PersistError> {
        self.config().save(w)?;
        for table in self.tables() {
            table.save(w)?;
        }
        Ok(())
    }

    fn load<R: Read>(r: &mut R) -> Result<Self, PersistError> {
        let cfg = EncoderConfig::load(r)?;
        let op = Embedding::load(r)?;
        let reg = Embedding::load(r)?;
        let imm = Embedding::load(r)?;
        let addr = Embedding::load(r)?;
        TokenEncoder::from_parts(cfg, op, reg, imm, addr)
            .ok_or_else(|| corrupt("encoder shape mismatch"))
    }
}

impl Codec for GeneratorConfig {
    fn save<W: Write>(&self, w: &mut W) -> Result<(), PersistError> {
        write_usize(w, self.hidden)?;
        write_usize(w, self.layers)?;
        write_usize(w, self.head_hidden)?;
        self.encoder.save(w)?;
        write_f32(w, self.temperature)?;
        write_f32(w, self.lr)
    }

    fn load<R: Read>(r: &mut R) -> Result<Self, PersistError> {
        Ok(GeneratorConfig {
            hidden: read_usize(r, MAX_DIM, "generator hidden size")?,
            layers: read_usize(r, 64, "generator layer count")?,
            head_hidden: read_usize(r, MAX_DIM, "generator head hidden size")?,
            encoder: EncoderConfig::load(r)?,
            temperature: read_f32(r)?,
            lr: read_f32(r)?,
        })
    }
}

impl Codec for PredictorConfig {
    fn save<W: Write>(&self, w: &mut W) -> Result<(), PersistError> {
        write_usize(w, self.hidden)?;
        write_usize(w, self.layers)?;
        self.encoder.save(w)?;
        write_f32(w, self.lr)
    }

    fn load<R: Read>(r: &mut R) -> Result<Self, PersistError> {
        Ok(PredictorConfig {
            hidden: read_usize(r, MAX_DIM, "predictor hidden size")?,
            layers: read_usize(r, 64, "predictor layer count")?,
            encoder: EncoderConfig::load(r)?,
            lr: read_f32(r)?,
        })
    }
}

// ---------------------------------------------------------------------------
// Models.
// ---------------------------------------------------------------------------

impl Codec for InstructionGenerator {
    fn save<W: Write>(&self, w: &mut W) -> Result<(), PersistError> {
        self.config().save(w)?;
        self.encoder_ref().save(w)?;
        self.lstm_ref().save(w)?;
        let heads = self.heads_ref();
        write_usize(w, heads.len())?;
        for (l1, l2) in heads {
            l1.save(w)?;
            l2.save(w)?;
        }
        Ok(())
    }

    fn load<R: Read>(r: &mut R) -> Result<Self, PersistError> {
        let cfg = GeneratorConfig::load(r)?;
        let encoder = TokenEncoder::load(r)?;
        let lstm = Lstm::load(r)?;
        let n = read_usize(r, 7, "generator head count")?;
        if n != 7 {
            return Err(corrupt("generator must have seven heads"));
        }
        let mut heads = Vec::with_capacity(n);
        for _ in 0..n {
            heads.push((Linear::load(r)?, Linear::load(r)?));
        }
        InstructionGenerator::from_parts(cfg, encoder, lstm, heads)
            .ok_or_else(|| corrupt("generator shape mismatch"))
    }
}

impl Codec for ValuePredictor {
    fn save<W: Write>(&self, w: &mut W) -> Result<(), PersistError> {
        self.config().save(w)?;
        self.encoder_ref().save(w)?;
        self.lstm_ref().save(w)?;
        self.out_ref().save(w)
    }

    fn load<R: Read>(r: &mut R) -> Result<Self, PersistError> {
        let cfg = PredictorConfig::load(r)?;
        let encoder = TokenEncoder::load(r)?;
        let lstm = Lstm::load(r)?;
        let out = Linear::load(r)?;
        ValuePredictor::from_parts(cfg, encoder, lstm, out)
            .ok_or_else(|| corrupt("predictor shape mismatch"))
    }
}

impl Codec for CoveragePredictor {
    fn save<W: Write>(&self, w: &mut W) -> Result<(), PersistError> {
        self.config().save(w)?;
        write_usize(w, self.n_points())?;
        self.encoder_ref().save(w)?;
        self.lstm_ref().save(w)?;
        self.out_ref().save(w)
    }

    fn load<R: Read>(r: &mut R) -> Result<Self, PersistError> {
        let cfg = PredictorConfig::load(r)?;
        let n_points = read_usize(r, MAX_DIM, "coverage predictor points")?;
        let encoder = TokenEncoder::load(r)?;
        let lstm = Lstm::load(r)?;
        let out = Linear::load(r)?;
        let model = CoveragePredictor::from_parts(cfg, encoder, lstm, out)
            .ok_or_else(|| corrupt("coverage predictor shape mismatch"))?;
        if model.n_points() != n_points {
            return Err(corrupt("coverage predictor output size mismatch"));
        }
        Ok(model)
    }
}

// ---------------------------------------------------------------------------
// Campaign collections.
// ---------------------------------------------------------------------------

impl Codec for Corpus {
    fn save<W: Write>(&self, w: &mut W) -> Result<(), PersistError> {
        let entries = self.entries();
        write_usize(w, entries.len())?;
        for entry in entries {
            write_string(w, &entry.name)?;
            write_program(w, &entry.body)?;
        }
        Ok(())
    }

    fn load<R: Read>(r: &mut R) -> Result<Self, PersistError> {
        let n = read_usize(r, MAX_SEQ, "corpus entry count")?;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let name = read_string(r)?;
            let body = read_program(r)?;
            entries.push(CorpusEntry { name, body });
        }
        Ok(entries.into_iter().collect())
    }
}

impl Codec for GlobalCorpus {
    fn save<W: Write>(&self, w: &mut W) -> Result<(), PersistError> {
        write_usize(w, self.capacity())?;
        write_u64(w, self.next_seq())?;
        let stats = self.stats();
        write_u64(w, stats.inserted)?;
        write_u64(w, stats.duplicates)?;
        write_u64(w, stats.evicted)?;
        write_usize(w, self.entries().len())?;
        for entry in self.entries() {
            write_string(w, &entry.name)?;
            write_program(w, &entry.body)?;
            write_usize(w, entry.coverage.len())?;
            hfl_nn::persist::write_u64_vec(w, entry.coverage.words())?;
            write_u64(w, entry.signature)?;
            write_u64(w, entry.seq)?;
        }
        Ok(())
    }

    fn load<R: Read>(r: &mut R) -> Result<Self, PersistError> {
        let capacity = read_usize(r, MAX_SEQ, "global corpus capacity")?;
        let next_seq = read_u64(r)?;
        let stats = GlobalCorpusStats {
            inserted: read_u64(r)?,
            duplicates: read_u64(r)?,
            evicted: read_u64(r)?,
        };
        let n = read_usize(r, MAX_SEQ, "global corpus entry count")?;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let name = read_string(r)?;
            let body = read_program(r)?;
            let len = read_usize(r, 1 << 28, "global entry coverage length")?;
            let words = hfl_nn::persist::read_u64_vec(r)?;
            let coverage = hfl_dut::CoverageSnapshot::from_words(len, words)
                .ok_or_else(|| corrupt("global entry coverage words do not fit the map"))?;
            entries.push(GlobalEntry {
                name,
                body,
                coverage,
                signature: read_u64(r)?,
                seq: read_u64(r)?,
            });
        }
        Ok(GlobalCorpus::from_parts(capacity, next_seq, entries, stats))
    }
}

impl Codec for SignatureSet {
    fn save<W: Write>(&self, w: &mut W) -> Result<(), PersistError> {
        write_u64(w, self.total_mismatches)?;
        let sigs = self.sorted_signatures();
        write_usize(w, sigs.len())?;
        for sig in sigs {
            write_u64(w, sig.0)?;
        }
        Ok(())
    }

    fn load<R: Read>(r: &mut R) -> Result<Self, PersistError> {
        let total = read_u64(r)?;
        let n = read_usize(r, MAX_SEQ, "signature count")?;
        let mut sigs = Vec::with_capacity(n);
        for _ in 0..n {
            sigs.push(Signature(read_u64(r)?));
        }
        Ok(SignatureSet::from_parts(sigs, total))
    }
}

// ---------------------------------------------------------------------------
// Shared fuzzer-state helpers (used by the `Fuzzer` checkpoint methods).
// ---------------------------------------------------------------------------

/// Writes a [`rand::rngs::StdRng`]'s exact stream position.
///
/// # Errors
/// Propagates I/O errors.
pub fn write_rng<W: Write>(w: &mut W, rng: &rand::rngs::StdRng) -> Result<(), PersistError> {
    for word in rng.state() {
        write_u64(w, word)?;
    }
    Ok(())
}

/// Reads an RNG written by [`write_rng`].
///
/// # Errors
/// Propagates I/O errors.
pub fn read_rng<R: Read>(r: &mut R) -> Result<rand::rngs::StdRng, PersistError> {
    let mut state = [0u64; 4];
    for word in &mut state {
        *word = read_u64(r)?;
    }
    Ok(rand::rngs::StdRng::from_state(state))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::difftest::Mismatch;
    use crate::tokens::Tokens;
    use hfl_nn::persist::{SnapshotReader, SnapshotWriter};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn generator_checkpoint_preserves_behaviour() {
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = GeneratorConfig {
            hidden: 16,
            ..GeneratorConfig::small()
        };
        let generator = InstructionGenerator::new(cfg, &mut rng);
        let restored = InstructionGenerator::from_bytes(&generator.to_bytes().unwrap()).unwrap();
        // Same seed, same samples on both models.
        let mut rng_a = StdRng::seed_from_u64(42);
        let mut rng_b = StdRng::seed_from_u64(42);
        let mut sa = generator.start_session();
        let mut sb = restored.start_session();
        for _ in 0..10 {
            let (ia, _) = generator.next_instruction(&mut sa, &mut rng_a);
            let (ib, _) = restored.next_instruction(&mut sb, &mut rng_b);
            assert_eq!(ia.instruction, ib.instruction);
        }
    }

    #[test]
    fn value_predictor_checkpoint_preserves_values() {
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = PredictorConfig {
            hidden: 16,
            ..PredictorConfig::small()
        };
        let vp = ValuePredictor::new(cfg, &mut rng);
        let restored = ValuePredictor::from_bytes(&vp.to_bytes().unwrap()).unwrap();
        let seq = vec![Tokens::bos(); 5];
        assert_eq!(vp.value_of(&seq), restored.value_of(&seq));
    }

    #[test]
    fn coverage_predictor_checkpoint_preserves_predictions() {
        let mut rng = StdRng::seed_from_u64(6);
        let cfg = PredictorConfig {
            hidden: 16,
            ..PredictorConfig::small()
        };
        let cp = CoveragePredictor::new(cfg, 48, &mut rng);
        let restored = CoveragePredictor::from_bytes(&cp.to_bytes().unwrap()).unwrap();
        assert_eq!(restored.n_points(), 48);
        let seq = vec![Tokens::bos(); 4];
        assert_eq!(cp.predict(&seq), restored.predict(&seq));
    }

    #[test]
    fn snapshot_wrapped_model_rejects_corruption() {
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = GeneratorConfig {
            hidden: 16,
            ..GeneratorConfig::small()
        };
        let generator = InstructionGenerator::new(cfg, &mut rng);
        let mut snap = SnapshotWriter::new("generator");
        snap.section("model", |buf| generator.save(buf)).unwrap();
        let mut bytes = Vec::new();
        snap.write_to(&mut bytes).unwrap();

        let back = SnapshotReader::read_from(&mut &bytes[..]).unwrap();
        assert!(back.decode::<InstructionGenerator>("model").is_ok());
        // Flip the magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(SnapshotReader::read_from(&mut &bad[..]).is_err());
        // Truncate.
        let mut bad = bytes.clone();
        bad.truncate(bad.len() / 2);
        assert!(SnapshotReader::read_from(&mut &bad[..]).is_err());
    }

    #[test]
    fn configs_round_trip() {
        let g = GeneratorConfig::paper_default();
        assert_eq!(
            GeneratorConfig::from_bytes(&g.to_bytes().unwrap()).unwrap(),
            g
        );
        let p = PredictorConfig::small();
        assert_eq!(
            PredictorConfig::from_bytes(&p.to_bytes().unwrap()).unwrap(),
            p
        );
    }

    #[test]
    fn instructions_round_trip_exactly() {
        let mut rng = StdRng::seed_from_u64(9);
        let program: Vec<Instruction> = (0..64)
            .map(|_| {
                Instruction::new(
                    Opcode::from_index(rng.gen_range(0..Opcode::COUNT)),
                    rng.gen_range(0..32),
                    rng.gen_range(0..32),
                    rng.gen_range(0..32),
                    rng.gen_range(0..32),
                    rng.gen_range(-4096..4096),
                    Csr::new(rng.gen_range(0..0x1000) as u16),
                )
            })
            .collect();
        let mut buf = Vec::new();
        write_program(&mut buf, &program).unwrap();
        assert_eq!(read_program(&mut &buf[..]).unwrap(), program);
    }

    #[test]
    fn malformed_instructions_are_rejected() {
        let inst = Instruction::new(Opcode::from_index(0), 1, 2, 3, 0, 5, Csr::new(0x300));
        let mut bytes = Vec::new();
        write_instruction(&mut bytes, &inst).unwrap();
        assert_eq!(read_instruction(&mut &bytes[..]).unwrap(), inst);
        // Opcode index out of range.
        let mut bad = bytes.clone();
        bad[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(read_instruction(&mut &bad[..]).is_err());
        // Register out of range.
        let mut bad = bytes.clone();
        bad[4] = 200;
        assert!(read_instruction(&mut &bad[..]).is_err());
        // Truncation.
        assert!(read_instruction(&mut &bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn corpus_round_trips_with_names_and_order() {
        let mut corpus = Corpus::new();
        corpus.push(
            "r1c2",
            vec![Instruction::new(
                Opcode::from_index(0),
                1,
                2,
                0,
                0,
                7,
                Csr::new(0),
            )],
        );
        corpus.push("r2c0", vec![]);
        let back = Corpus::from_bytes(&corpus.to_bytes().unwrap()).unwrap();
        assert_eq!(back.entries().len(), 2);
        assert_eq!(back.entries()[0].name, "r1c2");
        assert_eq!(back.entries()[0].body, corpus.entries()[0].body);
        assert_eq!(back.entries()[1].name, "r2c0");
    }

    #[test]
    fn global_corpus_round_trips_with_stats_and_order() {
        let mut corpus = GlobalCorpus::new(4);
        let cov = |bits: u64| hfl_dut::CoverageSnapshot::from_words(8, vec![bits]).unwrap();
        corpus.insert("a", vec![Instruction::NOP], cov(0b0011));
        corpus.insert("b", vec![], cov(0b1100));
        corpus.insert("a-dup", vec![], cov(0b0011));
        let back = GlobalCorpus::from_bytes(&corpus.to_bytes().unwrap()).unwrap();
        assert_eq!(back, corpus);
        assert_eq!(back.stats().duplicates, 1);
        assert_eq!(back.next_seq(), corpus.next_seq());
        // A restored corpus keeps deduplicating against its entries.
        let mut back = back;
        assert!(!back.insert("b-dup", vec![], cov(0b1100)));
    }

    #[test]
    fn signature_set_round_trips() {
        use crate::difftest::MismatchKind;
        let mut set = SignatureSet::new();
        for pc in [0x80000000u64, 0x80000004, 0x80000000] {
            set.insert(&Mismatch {
                kind: MismatchKind::RegWrite,
                pc,
                word: 0x13,
                opcode: None,
                detail: String::new(),
            });
        }
        let back = SignatureSet::from_bytes(&set.to_bytes().unwrap()).unwrap();
        assert_eq!(back.unique(), set.unique());
        assert_eq!(back.total_mismatches, 3);
        assert_eq!(back.sorted_signatures(), set.sorted_signatures());
    }

    #[test]
    fn tokens_and_episode_steps_round_trip() {
        let t = Tokens::bos();
        assert_eq!(Tokens::from_bytes(&t.to_bytes().unwrap()).unwrap(), t);

        let step = EpisodeStep {
            input: t,
            action: SampledAction {
                outputs: HeadOutputs {
                    indices: [3, 1, 4, 1, 5, 9, 2],
                },
                log_probs: [-0.5, -1.0, -1.5, -2.0, -2.5, -3.0, -3.5],
            },
            mask: [true, false, true, true, false, false, true],
            advantage: 0.75,
        };
        assert_eq!(
            EpisodeStep::from_bytes(&step.to_bytes().unwrap()).unwrap(),
            step
        );
    }

    #[test]
    fn rng_round_trip_continues_the_stream() {
        let mut rng = StdRng::seed_from_u64(11);
        let _: u64 = rng.gen();
        let mut buf = Vec::new();
        write_rng(&mut buf, &rng).unwrap();
        let mut back = read_rng(&mut &buf[..]).unwrap();
        let a: u64 = rng.gen();
        let b: u64 = back.gen();
        assert_eq!(a, b, "restored RNG continues the identical stream");
    }
}
