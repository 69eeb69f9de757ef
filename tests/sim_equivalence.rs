//! Differential lockdown of the predecoded simulator hot path.
//!
//! Every optimisation in the predecode overhaul — the dense decoded-op
//! image, the superinstruction block path, the per-worker cache — is
//! allowed exactly zero observable effect. Every simulator steps over the
//! predecoded image; the per-step fetch+decode loop `Cpu::run` survives as
//! the reference it is checked against. A step's record is fixed by its
//! fetched word, and everything before and after the fetch is shared code,
//! so the fetch source is the one thing the two can differ in.
//!
//! This suite drives randomly generated programs (valid instructions, raw
//! word soup, branches into the background, self-traps) through both
//! interpreters under each core's defect catalogue and under each
//! injected bug armed individually, and requires bit-identical registers,
//! pc, counters, CSRs and traces — then re-checks the whole pool at 1/2/8
//! worker threads.

use hfl::baselines::TestBody;
use hfl::exec::ExecPool;
use hfl::harness::{CaseResult, Executor};
use hfl_dut::{bugs, CoreKind, DutResult};
use hfl_grm::cpu::{Cpu, Quirks};
use hfl_grm::{PredecodedProgram, Program};
use hfl_riscv::{Instruction, Opcode, Reg};

const MAX_STEPS: u64 = 3_000;

/// Splitmix-style deterministic generator (the vendored proptest shim has
/// no collection strategies, so programs are expanded from a seed).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(0x5851_F42D_4C95_7F2D)
            .wrapping_add(0x1405_7B7E);
        self.0 >> 16
    }
}

/// A word-soup program: real encodings (ALU ops, branches, loads/stores,
/// jumps) interleaved with raw draws that may decode to anything or trap
/// as illegal. Branch/jump targets may leave the body into the
/// deterministic background pattern — that is the point: both dispatch
/// paths must agree wherever the PC ends up.
fn seeded_words(seed: u64, len: usize) -> Vec<u32> {
    let mut lcg = Lcg(seed | 1);
    (0..len)
        .map(|_| {
            let d = lcg.next();
            let rd = Reg::from_index((d >> 8) as u8);
            let rs1 = Reg::from_index((d >> 13) as u8);
            let rs2 = Reg::from_index((d >> 18) as u8);
            match d % 10 {
                0..=2 => Instruction::i(Opcode::Addi, rd, rs1, (d % 256) as i64 - 128),
                3 => {
                    let op =
                        [Opcode::Add, Opcode::Sub, Opcode::Xor, Opcode::Sltu][(d % 4) as usize];
                    Instruction::r(op, rd, rs1, rs2)
                }
                4 => {
                    let op = [Opcode::Beq, Opcode::Bne, Opcode::Bltu][(d % 3) as usize];
                    Instruction::b(op, rs1, rs2, 4 * ((d % 8) as i64 - 3))
                }
                5 => Instruction::j(Opcode::Jal, rd, 4 * ((d % 16) as i64 - 7)),
                6 => Instruction::i(Opcode::Lw, rd, rs1, (d % 64) as i64),
                7 => Instruction::s(Opcode::Sw, rs2, (d % 64) as i64, rs1),
                8 => Instruction::i(Opcode::Csrrs, rd, Reg::X0, 0xC00), // rdcycle
                _ => return lcg.next() as u32, // raw soup, possibly illegal
            }
            .encode()
        })
        .collect()
}

fn assert_dut_results_match(want: &DutResult, got: &DutResult, context: &str) {
    assert_eq!(want.halt, got.halt, "{context}: halt reason");
    assert_eq!(want.steps, got.steps, "{context}: retired steps");
    assert_eq!(want.cycles, got.cycles, "{context}: modelled cycles");
    assert_eq!(want.arch, got.arch, "{context}: architectural state");
    assert_eq!(want.trace, got.trace, "{context}: trace");
    assert_eq!(want.coverage, got.coverage, "{context}: coverage map");
}

/// Runs `program` with `quirks` on the reference loop `Cpu::run` and on
/// `Cpu::run_predecoded`, and requires bit-identical results.
fn assert_interpreters_match(program: &Program, quirks: &Quirks, context: &str) {
    let image = PredecodedProgram::new(program);
    let mut reference = Cpu::with_quirks(quirks.clone());
    reference.load_program(program);
    let reference_run = reference.run(MAX_STEPS);
    let mut fast = Cpu::with_quirks(quirks.clone());
    fast.load_program(program);
    let fast_run = fast.run_predecoded(&image, MAX_STEPS);
    assert_eq!(reference_run, fast_run, "{context}: run result");
    assert_eq!(reference.x, fast.x, "{context}: integer registers");
    assert_eq!(reference.f, fast.f, "{context}: FP registers");
    assert_eq!(reference.pc, fast.pc, "{context}: pc");
    assert_eq!(reference.cycle, fast.cycle, "{context}: cycle");
    assert_eq!(reference.instret, fast.instret, "{context}: instret");
    assert_eq!(reference.csrs, fast.csrs, "{context}: CSRs");
    assert_eq!(reference.trace, fast.trace, "{context}: trace");
}

/// The tentpole contract at the single-core level: for random programs,
/// the predecoded interpreter reproduces the reference loop bit for bit
/// under every core's shipped defect configuration and on the clean
/// golden model.
#[test]
fn predecoded_paths_match_legacy_on_all_cores() {
    for core in CoreKind::ALL {
        let quirks = bugs::quirks_for(core);
        for seed in 0..24u64 {
            let len = 4 + (seed as usize * 7) % 44;
            let program = Program::assemble_raw(&seeded_words(seed * 2 + 1, len));
            let context = format!("{core:?} seed {seed}");
            assert_interpreters_match(&program, &quirks, &context);
            assert_interpreters_match(&program, &Quirks::default(), &format!("{context} clean"));
        }
    }
}

/// Each catalogued injected bug, armed individually on its host core:
/// the quirk-bearing execution paths (traps, PMP grace windows, cache-line
/// crashes, flag bugs) must behave identically in both interpreters.
#[test]
fn injected_bugs_trap_identically_in_both_dispatch_paths() {
    for bug in bugs::CATALOG {
        for &core in bug.cores {
            let mut quirks = Quirks::default();
            bugs::enable(&mut quirks, bug.id, core);
            for seed in 0..8u64 {
                let len = 6 + (seed as usize * 5) % 30;
                let program = Program::assemble_raw(&seeded_words(seed ^ 0xB0B0, len));
                assert_interpreters_match(
                    &program,
                    &quirks,
                    &format!("bug {} on {core:?} seed {seed}", bug.id),
                );
            }
        }
    }
}

fn assert_cases_match(reference: &[CaseResult], got: &[CaseResult], context: &str) {
    assert_eq!(reference.len(), got.len(), "{context}: case count");
    for (i, (want, have)) in reference.iter().zip(got).enumerate() {
        assert_dut_results_match(&want.dut, &have.dut, &format!("{context} case {i}"));
        assert_eq!(want.grm_halt, have.grm_halt, "{context} case {i}: grm halt");
        assert_eq!(want.grm_arch, have.grm_arch, "{context} case {i}: grm arch");
        assert_eq!(
            want.grm_trace, have.grm_trace,
            "{context} case {i}: grm trace"
        );
        assert_eq!(
            want.mismatches, have.mismatches,
            "{context} case {i}: mismatches"
        );
    }
}

/// The pool-level contract: a batch of word-soup bodies yields identical
/// results at 1, 2 and 8 worker threads on every core — and those pooled
/// results equal a fresh single executor's, so neither the predecode
/// cache nor work stealing leaks into outputs.
#[test]
fn pool_results_are_identical_across_thread_counts() {
    for core in CoreKind::ALL {
        // Duplicated bodies on purpose: repeats exercise cache hits on
        // whichever worker the schedule lands them on.
        let bodies: Vec<TestBody> = (0..18u64)
            .map(|i| TestBody::Words(seeded_words(i / 2 + 100, 3 + (i as usize * 11) % 40)))
            .collect();
        let mut solo = Executor::builder(core).max_steps(MAX_STEPS).build();
        let reference: Vec<CaseResult> = bodies.iter().map(|b| solo.run(b)).collect();
        for threads in [1, 2, 8] {
            let prototype = Executor::builder(core).max_steps(MAX_STEPS).build();
            let mut pool = ExecPool::new(prototype, threads);
            let got = pool.run_batch(&bodies);
            assert_cases_match(&reference, &got, &format!("{core:?} threads {threads}"));
            let (hits, misses) = pool.predecode_stats();
            assert_eq!(
                hits + misses,
                bodies.len() as u64,
                "{core:?} threads {threads}: one cache lookup per case"
            );
        }
    }
}
