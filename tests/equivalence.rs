//! The differential-testing soundness property: a DUT with *no* injected
//! defects is architecturally indistinguishable from the golden reference
//! model on arbitrary generated programs. Every mismatch the fuzzing
//! campaigns report is therefore attributable to an injected defect —
//! the "no false positives" guarantee behind the §VII tables.

use hfl::baselines::random_instruction;
use hfl::difftest::compare;
use hfl_dut::{CoreKind, Dut};
use hfl_grm::cpu::Quirks;
use hfl_grm::{Cpu, Program};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn assert_equivalent(core: CoreKind, body: &[hfl_riscv::Instruction], label: &str) {
    let program = Program::assemble(body);
    let mut dut = Dut::with_quirks(core, Quirks::default());
    let dut_result = dut.run_program(&program, 20_000);
    let mut grm = Cpu::new();
    grm.load_program(&program);
    let grm_run = grm.run(20_000);
    let mismatches = compare(
        &grm.trace,
        grm_run.reason,
        &grm.arch_snapshot(),
        &dut_result.trace,
        dut_result.halt,
        &dut_result.arch,
    );
    assert!(
        mismatches.is_empty(),
        "{label} on {core}: defect-free DUT diverged: {}",
        mismatches[0]
    );
}

#[test]
fn defect_free_dut_matches_grm_on_random_programs() {
    let mut rng = StdRng::seed_from_u64(0xE0);
    for core in CoreKind::ALL {
        for case in 0..60 {
            let body: Vec<_> = (0..16).map(|_| random_instruction(&mut rng)).collect();
            assert_equivalent(core, &body, &format!("random case {case}"));
        }
    }
}

#[test]
fn defect_free_dut_matches_grm_on_the_pocs() {
    // Even the directed vulnerability triggers are clean without the
    // defect injection.
    for bug in hfl_dut::CATALOG {
        for &core in bug.cores {
            assert_equivalent(core, &hfl::poc::poc_for(bug.id), bug.id);
        }
    }
}

#[test]
fn defect_free_dut_matches_grm_on_long_programs() {
    let mut rng = StdRng::seed_from_u64(0xE1);
    let body: Vec<_> = (0..180).map(|_| random_instruction(&mut rng)).collect();
    assert_equivalent(CoreKind::Cva6, &body, "long program");
}

#[test]
fn full_defect_config_still_matches_on_benign_programs() {
    // A program touching none of the defect triggers must not diverge even
    // with every bug injected.
    use hfl_riscv::{Instruction, Opcode, Reg};
    let body = vec![
        Instruction::i(Opcode::Addi, Reg::X10, Reg::X0, 11),
        Instruction::r(Opcode::Add, Reg::X11, Reg::X10, Reg::X10),
        Instruction::r(Opcode::Mul, Reg::X12, Reg::X11, Reg::X10),
        Instruction::s(Opcode::Sd, Reg::X12, 0, Reg::X5),
        Instruction::i(Opcode::Ld, Reg::X13, Reg::X5, 0),
        Instruction::b(Opcode::Beq, Reg::X12, Reg::X13, 8),
        // The taken branch must land on the halt pc, not past it —
        // otherwise execution falls into background memory, where garbage
        // words legitimately probe the injected CSR defects.
        Instruction::NOP,
    ];
    for core in CoreKind::ALL {
        let program = Program::assemble(&body);
        let mut dut = Dut::new(core);
        let result = dut.run_program(&program, 20_000);
        let mut grm = Cpu::new();
        grm.load_program(&program);
        let grm_run = grm.run(20_000);
        let mismatches = compare(
            &grm.trace,
            grm_run.reason,
            &grm.arch_snapshot(),
            &result.trace,
            result.halt,
            &result.arch,
        );
        assert!(mismatches.is_empty(), "{core}: {:?}", mismatches.first());
    }
}
