//! Differential testing and mismatch signature extraction (§V-B).
//!
//! Every test case runs on both the golden reference model (`hfl-grm`) and
//! the DUT (`hfl-dut`). Traces are compared entry by entry; the first
//! divergence and any final-state difference become [`Mismatch`]es. The
//! *signature extraction algorithm* then derives a register-independent
//! signature per mismatch (opcode + mismatch class + exception causes) so
//! that different manifestations of the same bug dedup to a single report —
//! the paper's device for taming "numerous mismatches, duplicates, or
//! false positives".

use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::fmt;
use std::hash::{Hash, Hasher};

use hfl_grm::cpu::{HaltReason, StepOutcome};
use hfl_grm::{ArchSnapshot, Cpu, PredecodedProgram, Program, Trace, TraceEntry};
use hfl_riscv::{decode, Opcode};

/// Classification of a GRM/DUT divergence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MismatchKind {
    /// A destination-register write differs (register file or value).
    RegWrite,
    /// A data-memory operation differs (address, size or stored value).
    MemOp,
    /// One side trapped and the other did not, or the causes differ.
    Trap {
        /// The GRM's exception cause, if it trapped.
        grm_cause: Option<u64>,
        /// The DUT's exception cause, if it trapped.
        dut_cause: Option<u64>,
    },
    /// The traces diverge in control flow (different pc).
    ControlFlow,
    /// The DUT crashed (e.g. the V1 cache-line defect) while the GRM ran on.
    Crash,
    /// Traces matched but the final architectural state differs.
    FinalState {
        /// Which state component differs (`"x"`, `"f"`, `"fcsr"`, …).
        field: &'static str,
    },
}

/// One observed divergence between the GRM and the DUT.
#[derive(Debug, Clone, PartialEq)]
pub struct Mismatch {
    /// What diverged.
    pub kind: MismatchKind,
    /// Program counter of the diverging instruction (0 for final-state
    /// mismatches).
    pub pc: u64,
    /// Raw instruction word at the divergence.
    pub word: u32,
    /// Decoded opcode, when the word decodes.
    pub opcode: Option<Opcode>,
    /// Human-readable detail.
    pub detail: String,
}

impl Mismatch {
    /// The register-independent signature (§V-B): opcode mnemonic +
    /// mismatch class + exception causes, hashed. Register *numbers* and
    /// concrete values are deliberately excluded so that the same bug
    /// triggered through different registers yields one signature.
    #[must_use]
    pub fn signature(&self) -> Signature {
        let mut hasher = DefaultHasher::new();
        self.opcode.map(Opcode::mnemonic).hash(&mut hasher);
        self.kind.hash(&mut hasher);
        Signature(hasher.finish())
    }
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let op = self.opcode.map_or("<raw>", Opcode::mnemonic);
        write!(
            f,
            "[{:?}] pc={:#x} op={} {}",
            self.kind, self.pc, op, self.detail
        )
    }
}

/// A deduplicated mismatch signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Signature(pub u64);

impl fmt::Display for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sig:{:016x}", self.0)
    }
}

/// The growing set of unique mismatch signatures seen during a campaign.
#[derive(Debug, Clone, Default)]
pub struct SignatureSet {
    seen: HashSet<Signature>,
    /// Total mismatches observed (including duplicates).
    pub total_mismatches: u64,
}

impl SignatureSet {
    /// Creates an empty set.
    #[must_use]
    pub fn new() -> SignatureSet {
        SignatureSet::default()
    }

    /// Records a mismatch; returns `true` when its signature is new.
    pub fn insert(&mut self, mismatch: &Mismatch) -> bool {
        self.total_mismatches += 1;
        self.seen.insert(mismatch.signature())
    }

    /// Number of unique signatures.
    #[must_use]
    pub fn unique(&self) -> usize {
        self.seen.len()
    }

    /// Whether a signature has been seen.
    #[must_use]
    pub fn contains(&self, sig: Signature) -> bool {
        self.seen.contains(&sig)
    }

    /// The unique signatures, sorted (checkpointing needs a stable order).
    #[must_use]
    pub fn sorted_signatures(&self) -> Vec<Signature> {
        let mut sigs: Vec<Signature> = self.seen.iter().copied().collect();
        sigs.sort_unstable();
        sigs
    }

    /// Rebuilds a set from checkpointed parts.
    #[must_use]
    pub fn from_parts(
        signatures: impl IntoIterator<Item = Signature>,
        total_mismatches: u64,
    ) -> SignatureSet {
        SignatureSet {
            seen: signatures.into_iter().collect(),
            total_mismatches,
        }
    }
}

/// Compares a GRM and a DUT execution of the same program.
///
/// The comparison stops at the first trace divergence (later state is
/// tainted); if the traces agree in full, final architectural state is
/// compared field by field. The `fcsr` comparison is what exposes
/// flag-only bugs like the paper's V4.
///
/// Campaigns record no GRM trace: the executor steps the GRM as a
/// checker over the DUT's trace instead, which returns the same
/// mismatches.
#[must_use]
pub fn compare(
    grm_trace: &Trace,
    grm_halt: HaltReason,
    grm_arch: &ArchSnapshot,
    dut_trace: &Trace,
    dut_halt: HaltReason,
    dut_arch: &ArchSnapshot,
) -> Vec<Mismatch> {
    if let Some(m) = grm_trace
        .iter()
        .zip(dut_trace)
        .find_map(|(g, d)| entry_mismatch(g, d))
    {
        return vec![m];
    }
    let tail = diverging_tail(grm_trace, dut_trace);
    run_end(
        (grm_halt, grm_trace.len(), grm_arch),
        (dut_halt, dut_trace.len(), dut_arch),
        tail,
    )
}

/// Checks the GRM against the DUT's trace of the same program as it runs:
/// a fresh GRM steps over `image` (the predecoded `program`) under the
/// same `max_steps` budget without recording a trace, and each entry it
/// logs is compared with the DUT's entry at the same index.
///
/// The run stops at the first divergent entry, since [`compare`] reports
/// nothing after it. When every entry both sides logged agrees, the GRM
/// runs to its own halt and the end-of-run rules of [`compare`] apply, so
/// the result equals [`compare`] over the two full traces.
pub(crate) fn check(
    program: &Program,
    image: &PredecodedProgram,
    max_steps: u64,
    dut_trace: &Trace,
    dut_halt: HaltReason,
    dut_arch: &ArchSnapshot,
) -> Vec<Mismatch> {
    let mut grm = Cpu::new();
    grm.trace_enabled = false;
    grm.load_program(program);
    let log = &dut_trace.entries;
    // Entries the GRM logged, and the `(pc, word)` of its entry at the
    // DUT log's length, or of its last entry when it logs no more.
    let mut logged = 0usize;
    let mut tail = (0, 0);
    let mut steps = 0u64;
    let grm_halt = loop {
        if steps >= max_steps {
            break HaltReason::StepBudget;
        }
        let info = grm.step_predecoded(image);
        if let Some(g) = info.trace_entry() {
            if let Some(d) = log.get(logged) {
                if let Some(m) = entry_mismatch(&g, d) {
                    return vec![m];
                }
            }
            if logged <= log.len() {
                tail = (g.pc, g.word);
            }
            logged += 1;
        }
        match info.outcome {
            StepOutcome::Halted(reason) => break reason,
            _ => steps += 1,
        }
    };
    if let Some(d) = log.get(logged) {
        tail = (d.pc, d.word);
    }
    run_end(
        (grm_halt, logged, &grm.arch_snapshot()),
        (dut_halt, log.len(), dut_arch),
        tail,
    )
}

/// The first difference between two entries at the same trace index, in
/// the order pc, trap, destination write, memory operation. The raw word
/// is not compared, and it is decoded only for a reported mismatch.
fn entry_mismatch(g: &TraceEntry, d: &TraceEntry) -> Option<Mismatch> {
    let (kind, detail) = if g.pc != d.pc {
        (
            MismatchKind::ControlFlow,
            format!("grm at {:#x}, dut at {:#x}", g.pc, d.pc),
        )
    } else if g.trap != d.trap {
        (
            MismatchKind::Trap {
                grm_cause: g.trap.map(|t| t.cause),
                dut_cause: d.trap.map(|t| t.cause),
            },
            format!("grm trap {:?}, dut trap {:?}", g.trap, d.trap),
        )
    } else if g.rd_write != d.rd_write {
        (
            MismatchKind::RegWrite,
            format!("grm wrote {:?}, dut wrote {:?}", g.rd_write, d.rd_write),
        )
    } else if g.mem != d.mem {
        (
            MismatchKind::MemOp,
            format!("grm mem {:?}, dut mem {:?}", g.mem, d.mem),
        )
    } else {
        return None;
    };
    Some(Mismatch {
        kind,
        pc: g.pc,
        word: g.word,
        opcode: opcode_of(g.word),
        detail,
    })
}

fn opcode_of(word: u32) -> Option<Opcode> {
    decode(word).ok().map(|i| i.opcode)
}

/// The end-of-run rules, once every entry both traces hold agrees. Each
/// side is `(halt, trace length, final state)`. If one trace is a strict
/// prefix of the other, or only the DUT crashed, the one mismatch sits
/// at `tail` (see [`diverging_tail`]); otherwise the final states are
/// compared.
fn run_end(
    (grm_halt, grm_len, grm_arch): (HaltReason, usize, &ArchSnapshot),
    (dut_halt, dut_len, dut_arch): (HaltReason, usize, &ArchSnapshot),
    (pc, word): (u64, u32),
) -> Vec<Mismatch> {
    let dut_crashed = matches!(dut_halt, HaltReason::Crash(_));
    if grm_len != dut_len || dut_crashed && !matches!(grm_halt, HaltReason::Crash(_)) {
        return vec![Mismatch {
            kind: if dut_crashed {
                MismatchKind::Crash
            } else {
                MismatchKind::ControlFlow
            },
            pc,
            word,
            opcode: opcode_of(word),
            detail: format!(
                "grm halted {grm_halt:?} after {grm_len} steps, dut halted {dut_halt:?} after {dut_len} steps"
            ),
        }];
    }
    let mut out = Vec::new();
    compare_final_state(grm_arch, dut_arch, &mut out);
    out
}

/// Where a strict-prefix or crash mismatch sits: the longer trace's
/// entry at the shorter one's length, or the GRM's last entry when the
/// lengths are equal.
fn diverging_tail(grm: &Trace, dut: &Trace) -> (u64, u32) {
    let shorter = if grm.len() < dut.len() { grm } else { dut };
    let longer = if grm.len() < dut.len() { dut } else { grm };
    longer
        .entries
        .get(shorter.len())
        .or_else(|| longer.entries.last())
        .map_or((0, 0), |e| (e.pc, e.word))
}

fn compare_final_state(grm: &ArchSnapshot, dut: &ArchSnapshot, out: &mut Vec<Mismatch>) {
    let mut push = |field: &'static str, detail: String| {
        out.push(Mismatch {
            kind: MismatchKind::FinalState { field },
            pc: 0,
            word: 0,
            opcode: None,
            detail,
        });
    };
    for i in 0..32 {
        if grm.x[i] != dut.x[i] {
            push(
                "x",
                format!("x{i}: grm {:#x}, dut {:#x}", grm.x[i], dut.x[i]),
            );
            break;
        }
    }
    for i in 0..32 {
        if grm.f[i] != dut.f[i] {
            push(
                "f",
                format!("f{i}: grm {:#x}, dut {:#x}", grm.f[i], dut.f[i]),
            );
            break;
        }
    }
    if grm.fcsr != dut.fcsr {
        push(
            "fcsr",
            format!("fcsr: grm {:#x}, dut {:#x}", grm.fcsr, dut.fcsr),
        );
    }
    if grm.mcause != dut.mcause {
        push(
            "mcause",
            format!("mcause: grm {}, dut {}", grm.mcause, dut.mcause),
        );
    }
    if grm.mtval != dut.mtval {
        push(
            "mtval",
            format!("mtval: grm {:#x}, dut {:#x}", grm.mtval, dut.mtval),
        );
    }
    if grm.instret != dut.instret {
        push(
            "instret",
            format!("instret: grm {}, dut {}", grm.instret, dut.instret),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfl_grm::{TraceEntry, Trap};

    fn entry(pc: u64, word: u32) -> TraceEntry {
        TraceEntry {
            pc,
            word,
            rd_write: None,
            mem: None,
            trap: None,
        }
    }

    fn arch() -> ArchSnapshot {
        ArchSnapshot {
            x: [0; 32],
            f: [0; 32],
            fcsr: 0,
            mcause: 0,
            mtval: 0,
            mepc: 0,
            instret: 0,
        }
    }

    fn trace(entries: Vec<TraceEntry>) -> Trace {
        Trace { entries }
    }

    #[test]
    fn identical_runs_have_no_mismatch() {
        let t = trace(vec![entry(0x8000_0000, 0x13)]);
        let m = compare(
            &t,
            HaltReason::ReachedHaltPc,
            &arch(),
            &t,
            HaltReason::ReachedHaltPc,
            &arch(),
        );
        assert!(m.is_empty());
    }

    #[test]
    fn reg_write_divergence_detected_once() {
        let mut g = trace(vec![entry(0x8000_0000, 0x0053_0333)]);
        let mut d = g.clone();
        g.entries[0].rd_write = Some((false, 6, 1));
        d.entries[0].rd_write = Some((false, 6, 2));
        let m = compare(
            &g,
            HaltReason::ReachedHaltPc,
            &arch(),
            &d,
            HaltReason::ReachedHaltPc,
            &arch(),
        );
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].kind, MismatchKind::RegWrite);
        assert_eq!(m[0].opcode, Some(Opcode::Add));
    }

    #[test]
    fn trap_divergence_detected() {
        let g = trace(vec![TraceEntry {
            trap: Some(Trap {
                cause: 0,
                tval: 0x8000_0002,
            }),
            ..entry(0x8000_0000, 0x67)
        }]);
        let d = trace(vec![entry(0x8000_0000, 0x67)]);
        let m = compare(
            &g,
            HaltReason::ReachedHaltPc,
            &arch(),
            &d,
            HaltReason::ReachedHaltPc,
            &arch(),
        );
        assert_eq!(m.len(), 1);
        assert!(matches!(
            m[0].kind,
            MismatchKind::Trap {
                grm_cause: Some(0),
                dut_cause: None
            }
        ));
    }

    #[test]
    fn crash_detected_on_short_dut_trace() {
        let g = trace(vec![entry(0x8000_0000, 0x13), entry(0x8000_0004, 0x13)]);
        let d = trace(vec![entry(0x8000_0000, 0x13)]);
        let m = compare(
            &g,
            HaltReason::ReachedHaltPc,
            &arch(),
            &d,
            HaltReason::Crash("store to executing cache line"),
            &arch(),
        );
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].kind, MismatchKind::Crash);
    }

    #[test]
    fn fcsr_divergence_caught_in_final_state() {
        let t = trace(vec![entry(0x8000_0000, 0x13)]);
        let mut dut_arch = arch();
        dut_arch.fcsr = 0; // DUT missed the NV flag
        let mut grm_arch = arch();
        grm_arch.fcsr = 0x10;
        let m = compare(
            &t,
            HaltReason::ReachedHaltPc,
            &grm_arch,
            &t,
            HaltReason::ReachedHaltPc,
            &dut_arch,
        );
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].kind, MismatchKind::FinalState { field: "fcsr" });
    }

    #[test]
    fn signatures_are_register_independent() {
        let mut a = Mismatch {
            kind: MismatchKind::RegWrite,
            pc: 0x8000_0010,
            word: 0x0053_0333,
            opcode: Some(Opcode::Add),
            detail: "x6".into(),
        };
        let b = Mismatch {
            pc: 0x8000_0440,
            detail: "x9 (different register, same bug)".into(),
            ..a.clone()
        };
        assert_eq!(a.signature(), b.signature());
        a.kind = MismatchKind::MemOp;
        assert_ne!(a.signature(), b.signature(), "kind participates");
    }

    #[test]
    fn signature_set_dedups() {
        let m = Mismatch {
            kind: MismatchKind::Crash,
            pc: 0,
            word: 0,
            opcode: Some(Opcode::Sw),
            detail: String::new(),
        };
        let mut set = SignatureSet::new();
        assert!(set.insert(&m));
        assert!(!set.insert(&m));
        assert_eq!(set.unique(), 1);
        assert_eq!(set.total_mismatches, 2);
        assert!(set.contains(m.signature()));
    }

    /// `check` equals `compare` over full traces for DUT logs edited from
    /// the GRM's own: a divergent entry in each compared field, every
    /// prefix and an extension, each under each halt reason (a crash
    /// included), and a different final state; at a budget that lets the
    /// program halt and at one that cuts it off. The single-hart cores
    /// never log past the GRM's halt, so only an edited log reaches that
    /// end.
    #[test]
    fn check_equals_compare_on_edited_dut_logs() {
        use hfl_grm::MemOp;
        use hfl_riscv::{Instruction, Reg};
        let program = Program::assemble(&[
            Instruction::i(Opcode::Addi, Reg::X10, Reg::X0, 7),
            Instruction::s(Opcode::Sd, Reg::X10, 0, Reg::X5),
            Instruction::i(Opcode::Ld, Reg::X6, Reg::X0, 3),
            Instruction::r(Opcode::Add, Reg::X11, Reg::X10, Reg::X10),
        ]);
        let image = PredecodedProgram::new(&program);
        for max_steps in [1_000, 3] {
            let mut grm = Cpu::new();
            grm.load_program(&program);
            let run = grm.run_predecoded(&image, max_steps);
            let (full, grm_arch) = (grm.trace.clone(), grm.arch_snapshot());
            let n = full.len();
            let mut logs = Vec::new();
            for i in 0..n {
                let edits: [fn(&mut TraceEntry); 5] = [
                    |e| e.pc += 4,
                    |e| e.trap = Some(Trap { cause: 9, tval: 0 }),
                    |e| e.rd_write = Some((false, 31, 1)),
                    |e| {
                        e.mem = Some(MemOp {
                            addr: 8,
                            size: 1,
                            is_store: true,
                            value: 0,
                        });
                    },
                    |e| e.word ^= 1,
                ];
                for edit in edits {
                    let mut log = full.clone();
                    edit(&mut log.entries[i]);
                    logs.push(log);
                }
            }
            for len in 0..n {
                logs.push(trace(full.entries[..len].to_vec()));
            }
            let mut longer = full.clone();
            longer
                .entries
                .extend([entry(0x8000_0100, 0x13), entry(0x8000_0104, 0x13)]);
            logs.extend([full.clone(), longer]);
            let mut changed = grm_arch.clone();
            changed.x[11] ^= 1;
            let halts = [
                run.reason,
                HaltReason::ReachedHaltPc,
                HaltReason::StepBudget,
                HaltReason::Crash("store to executing cache line"),
            ];
            for log in &logs {
                for dut_halt in halts {
                    for dut_arch in [&grm_arch, &changed] {
                        assert_eq!(
                            check(&program, &image, max_steps, log, dut_halt, dut_arch),
                            compare(&full, run.reason, &grm_arch, log, dut_halt, dut_arch),
                            "budget {max_steps}, dut halt {dut_halt:?}, log {log:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn control_flow_divergence_detected() {
        let g = trace(vec![entry(0x8000_0000, 0x13), entry(0x8000_0004, 0x13)]);
        let d = trace(vec![entry(0x8000_0000, 0x13), entry(0x8000_0010, 0x13)]);
        let m = compare(
            &g,
            HaltReason::ReachedHaltPc,
            &arch(),
            &d,
            HaltReason::ReachedHaltPc,
            &arch(),
        );
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].kind, MismatchKind::ControlFlow);
    }
}
