//! Correctness-oracle hardening: the signature extractor's dedup and
//! collision behaviour, triage's signature preservation and idempotence,
//! a clean-configuration DUT↔GRM lockstep property — with no injected
//! defects the two sides must agree on every random program, on every
//! core — and the campaign's checker against the full trace comparison.

use hfl::baselines::{random_instruction, Feedback, Fuzzer, TestBody};
use hfl::difftest::{compare, Mismatch, MismatchKind, Signature, SignatureSet};
use hfl::harness::{Executor, DEFAULT_MAX_STEPS};
use hfl::poc::poc_for;
use hfl::predecode::PreparedCase;
use hfl::spec::FuzzerKind;
use hfl::triage::minimize;
use hfl_dut::bugs::{bugs_for, enable, quirks_for, CATALOG};
use hfl_dut::{CoreKind, CoverageSnapshot, Dut};
use hfl_grm::cpu::{Cpu, Quirks};
use hfl_grm::{ArchSnapshot, PredecodedProgram, Program};
use hfl_riscv::{Instruction, Opcode, Reg};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

fn mismatch(kind: MismatchKind, opcode: Option<Opcode>, pc: u64, detail: &str) -> Mismatch {
    Mismatch {
        kind,
        pc,
        word: 0x13,
        opcode,
        detail: detail.to_owned(),
    }
}

#[test]
fn signatures_are_register_and_location_independent() {
    // §V-B: the same bug triggered through different registers, pcs or
    // concrete values must dedup to one signature.
    let a = mismatch(
        MismatchKind::RegWrite,
        Some(Opcode::Add),
        0x8000_0000,
        "x5 = 3 vs 4",
    );
    let b = mismatch(
        MismatchKind::RegWrite,
        Some(Opcode::Add),
        0x8000_0040,
        "x17 = 9 vs 0",
    );
    assert_eq!(a.signature(), b.signature());

    let mut set = SignatureSet::new();
    assert!(set.insert(&a), "first sighting is new");
    assert!(!set.insert(&b), "same signature dedups");
    assert_eq!(set.unique(), 1);
    assert_eq!(set.total_mismatches, 2);
    assert!(set.contains(a.signature()));
    assert!(!set.contains(Signature(!a.signature().0)));
}

#[test]
fn signatures_separate_what_must_not_collide() {
    let base = mismatch(MismatchKind::RegWrite, Some(Opcode::Add), 0, "");
    // A different opcode is a different bug report.
    let other_op = mismatch(MismatchKind::RegWrite, Some(Opcode::Sub), 0, "");
    assert_ne!(base.signature(), other_op.signature());
    // A different mismatch class is a different bug report.
    let other_kind = mismatch(MismatchKind::MemOp, Some(Opcode::Add), 0, "");
    assert_ne!(base.signature(), other_kind.signature());
    // Trap causes are part of the class: cause 2 vs cause 5 differ, and
    // which *side* trapped differs too.
    let trap = |grm, dut| {
        mismatch(
            MismatchKind::Trap {
                grm_cause: grm,
                dut_cause: dut,
            },
            Some(Opcode::Ld),
            0,
            "",
        )
    };
    assert_ne!(
        trap(Some(2), None).signature(),
        trap(Some(5), None).signature()
    );
    assert_ne!(
        trap(Some(2), None).signature(),
        trap(None, Some(2)).signature()
    );
    // Final-state fields distinguish x/f/fcsr reports.
    let fs = |field| mismatch(MismatchKind::FinalState { field }, None, 0, "");
    assert_ne!(fs("x").signature(), fs("fcsr").signature());
    // An undecodable word (no opcode) still has a stable signature.
    let raw = mismatch(MismatchKind::Crash, None, 0, "");
    assert_eq!(raw.signature(), raw.signature());

    let mut set = SignatureSet::new();
    for m in [&base, &other_op, &other_kind] {
        assert!(set.insert(m));
    }
    assert_eq!(set.unique(), 3);
}

#[test]
fn minimisation_preserves_the_signature_and_is_idempotent() {
    // Pad the K2 PoC with benign noise, minimise, and check that (a) the
    // minimised case still reproduces the *original* signature and (b)
    // minimising the already-minimal case is a fixed point.
    let mut rng = StdRng::seed_from_u64(17);
    let mut padded: Vec<Instruction> = Vec::new();
    for _ in 0..8 {
        let inst = random_instruction(&mut rng);
        if inst.opcode.is_memory_access() || inst.opcode.is_control_flow() {
            continue;
        }
        padded.push(inst);
    }
    padded.extend(poc_for("K2"));

    let mut executor = Executor::builder(CoreKind::Rocket).build();
    let signature = executor.run_case(&padded).mismatches[0].signature();

    let first = minimize(&mut executor, &padded, signature).expect("padded case reproduces");
    let replay = executor.run_case(&first.body);
    assert!(
        replay.mismatches.iter().any(|m| m.signature() == signature),
        "minimisation lost the original signature"
    );

    let second = minimize(&mut executor, &first.body, signature).expect("minimal reproduces");
    assert_eq!(
        second.body, first.body,
        "minimisation must be idempotent on its own output"
    );
    assert_eq!(second.original_len, first.body.len());
    assert_eq!(second.reduction(), 0.0, "nothing left to remove");
}

/// The GRM's final state for `body`, straight from the golden model: the
/// executor checks the GRM against the DUT and keeps no GRM state.
fn golden_arch(body: &[Instruction]) -> ArchSnapshot {
    let program = Program::assemble(body);
    let mut grm = Cpu::new();
    grm.load_program(&program);
    grm.run_predecoded(&PredecodedProgram::new(&program), DEFAULT_MAX_STEPS);
    grm.arch_snapshot()
}

/// Straight-line random body: memory/control flow excluded so the program
/// terminates fast; the remaining ALU/CSR mix still exercises decode,
/// writeback and the trace comparator on every instruction.
fn straight_line_body(seed: u64, len: usize) -> Vec<Instruction> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut body = Vec::with_capacity(len);
    while body.len() < len {
        let inst = random_instruction(&mut rng);
        if inst.opcode.is_control_flow() {
            continue;
        }
        body.push(inst);
    }
    body
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// With an empty defect configuration the DUT *is* the GRM: random
    /// programs must produce zero mismatches on all three cores.
    #[test]
    fn clean_config_runs_in_lockstep_on_every_core(seed in any::<u64>(), len in 4usize..24) {
        let body = straight_line_body(seed, len);
        for core in [CoreKind::Rocket, CoreKind::Boom, CoreKind::Cva6] {
            let mut executor = Executor::builder(core)
                .quirks(hfl_grm::cpu::Quirks::default())
                .build();
            let result = executor.run_case(&body);
            prop_assert!(
                result.mismatches.is_empty(),
                "{core:?}: clean DUT diverged: {:?}",
                result.mismatches
            );
            // And the lockstep really did execute the program.
            prop_assert_eq!(golden_arch(&body), result.dut.arch.clone());
        }
    }

    /// The same program on the same clean core is bit-stable across
    /// executors (no hidden state leaks between runs).
    #[test]
    fn clean_config_is_reproducible(seed in any::<u64>()) {
        let body = straight_line_body(seed, 8);
        let run = || {
            let mut executor = Executor::builder(CoreKind::Rocket)
                .quirks(hfl_grm::cpu::Quirks::default())
                .build();
            let r = executor.run_case(&body);
            (r.dut.arch.clone(), r.dut.coverage.clone())
        };
        prop_assert_eq!(run(), run());
    }
}

#[test]
fn clean_config_agrees_even_on_traps() {
    // A deliberate misaligned load traps on both sides identically — the
    // oracle must treat agreeing traps as agreement, not as a mismatch.
    let body = vec![
        Instruction::i(Opcode::Addi, Reg::X5, Reg::X0, 3),
        Instruction::i(Opcode::Ld, Reg::X6, Reg::X5, 0),
    ];
    for core in [CoreKind::Rocket, CoreKind::Boom, CoreKind::Cva6] {
        let mut executor = Executor::builder(core)
            .quirks(hfl_grm::cpu::Quirks::default())
            .build();
        let result = executor.run_case(&body);
        assert!(
            result.mismatches.is_empty(),
            "{core:?}: {:?}",
            result.mismatches
        );
        // No mismatch means every entry agreed, traps included.
        assert!(
            result.dut.trace.iter().any(|e| e.trap.is_some()),
            "{core:?}: expected the load to trap"
        );
    }
}

/// A word-soup body: encodings of random instructions (branches, jumps,
/// memory, CSRs) interleaved with raw draws that may decode to anything
/// or trap as illegal.
fn word_soup(seed: u64, len: usize) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|i| {
            if i % 3 == 2 {
                rng.gen::<u32>()
            } else {
                random_instruction(&mut rng).encode()
            }
        })
        .collect()
}

/// Bodies for the checker's lockdown on `core`: Cascade, DifuzzRTL and
/// TheHuzz cases, each fuzzer fed the coverage its cases gain on the
/// core's catalogue executor; word soup; and every catalogue PoC, alone
/// and followed by straight-line code that the GRM runs past a crash.
fn checker_corpus(core: CoreKind, per_source: usize) -> Vec<TestBody> {
    let mut executor = Executor::builder(core).build();
    let mut bodies = Vec::new();
    for (seed, kind) in [FuzzerKind::Cascade, FuzzerKind::Difuzz, FuzzerKind::TheHuzz]
        .into_iter()
        .enumerate()
    {
        let mut fuzzer = kind.build(seed as u64);
        let mut cumulative: Option<CoverageSnapshot> = None;
        for _ in 0..per_source {
            let body = fuzzer.next_case();
            let coverage = executor.run(&body).dut.coverage;
            let gained = cumulative.as_ref().is_none_or(|c| c.would_grow(&coverage));
            let total = cumulative.get_or_insert_with(|| coverage.clone());
            total.union_with(&coverage);
            fuzzer.feedback(&body, Feedback::scalar(gained, total.count() as f32));
            bodies.push(body);
        }
    }
    for seed in 0..per_source as u64 {
        bodies.push(TestBody::Words(word_soup(seed, 8 + seed as usize * 7 % 48)));
    }
    for (seed, bug) in CATALOG.iter().enumerate() {
        let poc = poc_for(bug.id);
        let mut padded = poc.clone();
        padded.extend(straight_line_body(seed as u64, 4));
        bodies.push(TestBody::Asm(poc));
        bodies.push(TestBody::Asm(padded));
    }
    bodies
}

/// The campaign's difftest steps the GRM as a checker over the DUT's
/// trace, stops at the first divergence and records no GRM trace. Its
/// mismatches, details included, must equal `compare` over a direct DUT
/// run and a full GRM run of the same prepared program: on every core,
/// under its catalogue and under each of its bugs armed alone, at the
/// default step budget and at one short enough to cut bodies off.
#[test]
fn checker_matches_the_full_trace_comparison() {
    let mut reached = BTreeSet::new();
    for core in CoreKind::ALL {
        let bodies = checker_corpus(core, 40);
        let mut configs = vec![("catalogue", quirks_for(core))];
        for bug in bugs_for(core) {
            let mut quirks = Quirks::default();
            enable(&mut quirks, bug.id, core);
            configs.push((bug.id, quirks));
        }
        for (config, quirks) in configs {
            for max_steps in [DEFAULT_MAX_STEPS, 37] {
                let mut executor = Executor::builder(core)
                    .quirks(quirks.clone())
                    .max_steps(max_steps)
                    .build();
                let mut dut = Dut::with_quirks(core, quirks.clone());
                for (i, body) in bodies.iter().enumerate() {
                    let got = executor.run(body).mismatches;
                    let prepared = PreparedCase::lower(body);
                    let d = dut.run_predecoded(&prepared.program, &prepared.image, max_steps);
                    let mut grm = Cpu::new();
                    grm.load_program(&prepared.program);
                    let run = grm.run_predecoded(&prepared.image, max_steps);
                    let want = compare(
                        &grm.trace,
                        run.reason,
                        &grm.arch_snapshot(),
                        &d.trace,
                        d.halt,
                        &d.arch,
                    );
                    assert_eq!(got, want, "{core:?} {config} budget {max_steps} body {i}");
                    reached.insert(match want.first().map(|m| m.kind) {
                        None => "agreement",
                        Some(MismatchKind::FinalState { .. }) => "final state",
                        Some(MismatchKind::Crash) if grm.trace.len() > d.trace.len() => {
                            "a crash the GRM runs past"
                        }
                        Some(MismatchKind::Crash) => "a crash at the GRM's last entry",
                        Some(_) => "a divergent entry",
                    });
                }
            }
        }
    }
    assert_eq!(reached.len(), 5, "the corpus reached only {reached:?}");
}
