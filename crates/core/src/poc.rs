//! Proof-of-concept test cases for every catalogued defect (§VII).
//!
//! These reproduce the paper's listings: Listing 1 (V1, cache-line
//! self-modification) and Listing 2 (V2, delayed PMP enforcement), plus
//! directed triggers for V3/V4 and the known-bug catalogue. They serve the
//! vulnerability-detection experiments and double as regression tests for
//! the injected defects.

use hfl_grm::program::emit_li64;
use hfl_grm::Program;
use hfl_riscv::vocab::mem_map;
use hfl_riscv::{Csr, Instruction, Opcode, Reg};

/// The directed proof-of-concept body for a catalogued bug id
/// (`"V1"`–`"V4"`, `"K1"`–`"K8"`).
///
/// Each PoC, run through differential testing on the bug's core, produces
/// at least one mismatch; on a defect-free model it produces none.
///
/// # Panics
///
/// Panics on an unknown bug id.
#[must_use]
pub fn poc_for(bug_id: &str) -> Vec<Instruction> {
    match bug_id {
        // Listing 1: store into the cache line holding the executing
        // instruction. t1 (x6) holds CODE_BASE; the store targets its own
        // address.
        "V1" => {
            let prologue_words = Program::assemble(&[]).body_start;
            let store_offset = (prologue_words as i64 + 1) * 4;
            vec![
                Instruction::i(Opcode::Addi, Reg::X10, Reg::X0, 0x13),
                Instruction::s(Opcode::Sw, Reg::X10, store_offset, Reg::X6),
            ]
        }
        // Listing 2: configure a locked no-access PMP region, then read
        // inside its first 16 bytes. t2 (x7) holds PROTECTED_BASE.
        "V2" => {
            let napot = (mem_map::PROTECTED_BASE >> 2) | ((mem_map::PROTECTED_SIZE >> 3) - 1);
            let mut body = emit_li64(Reg::X10, napot);
            body.push(Instruction::csr_reg(
                Opcode::Csrrw,
                Reg::X0,
                Csr::PMPADDR0,
                Reg::X10,
            ));
            body.extend(emit_li64(Reg::X11, 0x98)); // L | NAPOT, no permissions
            body.push(Instruction::csr_reg(
                Opcode::Csrrw,
                Reg::X0,
                Csr::PMPCFG0,
                Reg::X11,
            ));
            body.push(Instruction::i(Opcode::Ld, Reg::X12, Reg::X7, 8));
            body.push(Instruction::csr_reg(
                Opcode::Csrrs,
                Reg::X13,
                Csr::MCAUSE,
                Reg::X0,
            ));
            body
        }
        // Jump to a misaligned address: spec demands a misaligned-fetch
        // exception.
        "V3" => vec![
            Instruction::i(Opcode::Jalr, Reg::X1, Reg::X6, 0x102),
            Instruction::i(Opcode::Addi, Reg::X11, Reg::X0, 7),
        ],
        // feq.s with a properly boxed signalling NaN against an improperly
        // boxed input: NV must be raised.
        "V4" => vec![
            Instruction::u(Opcode::Lui, Reg::X10, 0x7F800),
            Instruction::i(Opcode::Addi, Reg::X10, Reg::X10, 1), // sNaN bits
            Instruction::new(Opcode::FmvWX, 10, 10, 0, 0, 0, Csr::FFLAGS), // boxed
            Instruction::new(Opcode::FmvDX, 11, 10, 0, 0, 0, Csr::FFLAGS), // unboxed
            Instruction::new(Opcode::FeqS, 12, 10, 11, 0, 0, Csr::FFLAGS),
            Instruction::csr_reg(Opcode::Csrrs, Reg::X13, Csr::FFLAGS, Reg::X0),
        ],
        // fdiv.s by +0 must raise DZ.
        "K1" => vec![
            Instruction::i(Opcode::Addi, Reg::X10, Reg::X0, 1),
            Instruction::new(Opcode::FcvtSW, 1, 10, 0, 0, 0, Csr::FFLAGS),
            Instruction::new(Opcode::FmvWX, 2, 0, 0, 0, 0, Csr::FFLAGS),
            Instruction::new(Opcode::FdivS, 3, 1, 2, 0, 0, Csr::FFLAGS),
            Instruction::csr_reg(Opcode::Csrrs, Reg::X13, Csr::FFLAGS, Reg::X0),
        ],
        // sc.w without a reservation must fail (rd = 1).
        "K2" => vec![Instruction::new(Opcode::ScW, 11, 5, 10, 0, 0, Csr::FFLAGS)],
        // Accessing an unimplemented CSR must raise illegal-instruction.
        "K3" => vec![
            Instruction::csr_reg(Opcode::Csrrs, Reg::X10, Csr::new(0x453), Reg::X0),
            Instruction::i(Opcode::Addi, Reg::X11, Reg::X0, 9),
        ],
        // fmin.s with one NaN operand must return the other operand.
        "K4" => vec![
            Instruction::u(Opcode::Lui, Reg::X10, 0x7FC00), // canonical qNaN
            Instruction::new(Opcode::FmvWX, 1, 10, 0, 0, 0, Csr::FFLAGS),
            Instruction::i(Opcode::Addi, Reg::X11, Reg::X0, 1),
            Instruction::new(Opcode::FcvtSW, 2, 11, 0, 0, 0, Csr::FFLAGS),
            Instruction::new(Opcode::FminS, 3, 1, 2, 0, 0, Csr::FFLAGS),
            Instruction::new(Opcode::FmvXW, 12, 3, 0, 0, 0, Csr::FFLAGS),
        ],
        // mulhsu must treat rs2 as unsigned.
        "K5" => vec![
            Instruction::i(Opcode::Addi, Reg::X10, Reg::X0, -1),
            Instruction::i(Opcode::Addi, Reg::X11, Reg::X0, -1),
            Instruction::r(Opcode::Mulhsu, Reg::X12, Reg::X10, Reg::X11),
        ],
        // minstret must count each divide exactly once.
        "K6" => vec![
            Instruction::i(Opcode::Addi, Reg::X10, Reg::X0, 12),
            Instruction::r(Opcode::Div, Reg::X11, Reg::X10, Reg::X10),
            Instruction::csr_reg(Opcode::Csrrs, Reg::X12, Csr::MINSTRET, Reg::X0),
        ],
        // mtval must carry the faulting address after a misaligned store.
        "K7" => vec![
            Instruction::s(Opcode::Sw, Reg::X10, 1, Reg::X5),
            Instruction::csr_reg(Opcode::Csrrs, Reg::X13, Csr::MTVAL, Reg::X0),
        ],
        // Writing a read-only CSR must raise illegal-instruction.
        "K8" => vec![
            Instruction::csr_reg(Opcode::Csrrw, Reg::X10, Csr::MHARTID, Reg::X5),
            Instruction::i(Opcode::Addi, Reg::X11, Reg::X0, 2),
        ],
        // Concurrency PoCs: SPMD bodies for the two-hart system DUT
        // (`TestBody::Mhart`). Both harts run the whole body; x30 (t5)
        // carries the hart index, which is what makes the accesses race.
        // A single interleaving seed need not trigger the defect — the
        // campaign fuzzes seeds — so detection tests scan a seed range.
        //
        // C1: hart 0's lr/sc window races hart 1's plain store to the
        // reserved word. With the reservation incorrectly surviving the
        // remote store, the DUT's sc succeeds where the reference's fails.
        "C1" => vec![
            Instruction::r(Opcode::LrD, Reg::X10, Reg::X5, Reg::X0),
            Instruction::i(Opcode::Addi, Reg::X11, Reg::X0, 55),
            Instruction::NOP,
            Instruction::NOP,
            Instruction::NOP,
            Instruction::r(Opcode::ScD, Reg::X12, Reg::X5, Reg::X11),
            Instruction::s(Opcode::Sd, Reg::X30, 0, Reg::X5),
        ],
        // C2: each hart publishes a hart-dependent value then reads the
        // shared word back. With remote stores serving stale data, the
        // read returns old contents the sequential reference never sees.
        "C2" => vec![
            Instruction::i(Opcode::Addi, Reg::X11, Reg::X30, 1),
            Instruction::s(Opcode::Sd, Reg::X11, 0, Reg::X5),
            Instruction::NOP,
            Instruction::i(Opcode::Ld, Reg::X12, Reg::X5, 0),
            Instruction::NOP,
            Instruction::i(Opcode::Ld, Reg::X13, Reg::X5, 0),
        ],
        // C3: enable machine-timer interrupts, then sit in a window of
        // increments. Any delivered interrupt makes the handler read mepc
        // — pc + 4 under the defect — so x31 and the resume point diverge
        // from the reference immediately.
        "C3" => {
            let mut body = vec![
                Instruction::i(Opcode::Addi, Reg::X10, Reg::X0, 0x80), // mie.MTIE
                Instruction::csr_reg(Opcode::Csrrs, Reg::X0, Csr::MIE, Reg::X10),
                Instruction::i(Opcode::Addi, Reg::X10, Reg::X0, 0x8), // mstatus.MIE
                Instruction::csr_reg(Opcode::Csrrs, Reg::X0, Csr::MSTATUS, Reg::X10),
            ];
            body.extend((0..24).map(|_| Instruction::i(Opcode::Addi, Reg::X12, Reg::X12, 1)));
            body.push(Instruction::csr_reg(
                Opcode::Csrrs,
                Reg::X13,
                Csr::MEPC,
                Reg::X0,
            ));
            body
        }
        other => panic!("unknown bug id {other}"),
    }
}

/// The directed PoC as a ready-to-run [`TestBody`](crate::baselines::TestBody).
///
/// `sched_seed` is meaningful **only for concurrency bugs** (catalogue
/// entries with `concurrency: true`), whose PoC is a `Mhart`
/// (body, interleaving-seed) pair. Every other bug is a single-hart
/// `Asm` body with no schedule dimension, and the seed is *not* part of
/// the case: callers sweeping seeds over a non-concurrency bug would
/// re-run the identical case while believing they searched a space, so
/// passing a nonzero seed there is rejected in debug builds rather than
/// silently dropped.
///
/// The distinction survives corpus capture: `Mhart` PoCs are named with
/// a `+seed<hex>` suffix (the corpus text format stores only decodable
/// instructions, so the seed rides in the name), `Asm` PoCs are not —
/// see the name round-trip test below.
#[must_use]
pub fn poc_body_for(bug_id: &str, sched_seed: u64) -> crate::baselines::TestBody {
    let body = poc_for(bug_id);
    match hfl_dut::bugs::find(bug_id) {
        Some(bug) if bug.concurrency => crate::baselines::TestBody::Mhart { body, sched_seed },
        _ => {
            debug_assert_eq!(
                sched_seed, 0,
                "{bug_id} is not a concurrency bug: its PoC has no schedule \
                 dimension, so a nonzero sched_seed would be silently dropped"
            );
            crate::baselines::TestBody::Asm(body)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Executor;
    use hfl_dut::bugs;

    #[test]
    fn every_catalogued_bug_has_a_triggering_poc() {
        for bug in bugs::CATALOG.iter().filter(|b| !b.concurrency) {
            let body = poc_for(bug.id);
            assert!(!body.is_empty());
            for &core in bug.cores {
                let mut ex = Executor::builder(core).build();
                let result = ex.run_case(&body);
                assert!(
                    !result.mismatches.is_empty(),
                    "{} PoC found no mismatch on {core}",
                    bug.id
                );
            }
        }
    }

    #[test]
    fn every_concurrency_bug_has_a_triggering_mhart_poc() {
        use hfl_dut::CoreKind;
        // A concurrency PoC triggers only under interleavings that realise
        // the race, so scan a seed range; and it must stay silent for every
        // seed on a clean two-hart configuration.
        for bug in bugs::CATALOG.iter().filter(|b| b.concurrency) {
            let mut quirks = hfl_grm::cpu::Quirks::default();
            bugs::enable(&mut quirks, bug.id, CoreKind::Rocket);
            let mut buggy = Executor::builder(CoreKind::Rocket)
                .quirks(quirks)
                .mhart(true)
                .build();
            let mut clean = Executor::builder(CoreKind::Rocket)
                .quirks(hfl_grm::cpu::Quirks::default())
                .mhart(true)
                .build();
            let mut caught = false;
            for seed in 0..64u64 {
                let body = poc_body_for(bug.id, seed);
                caught |= !buggy.run(&body).mismatches.is_empty();
                let silent = clean.run(&body);
                assert!(
                    silent.mismatches.is_empty(),
                    "{} PoC mismatched on a clean config at seed {seed}: {:?}",
                    bug.id,
                    silent.mismatches
                );
            }
            assert!(caught, "{}: no seed in 0..64 exposed the defect", bug.id);
        }
    }

    #[test]
    fn pocs_are_clean_on_a_defect_free_model() {
        use hfl_grm::{Cpu, Program};
        // Run each PoC on two identical golden models: no divergence.
        for bug in bugs::CATALOG {
            let program = Program::assemble(&poc_for(bug.id));
            let mut a = Cpu::new();
            a.load_program(&program);
            let ra = a.run(50_000);
            let mut b = Cpu::new();
            b.load_program(&program);
            let rb = b.run(50_000);
            assert_eq!(ra, rb);
            let m = crate::difftest::compare(
                &a.trace,
                ra.reason,
                &a.arch_snapshot(),
                &b.trace,
                rb.reason,
                &b.arch_snapshot(),
            );
            assert!(
                m.is_empty(),
                "{}: golden model diverged from itself",
                bug.id
            );
        }
    }

    #[test]
    #[should_panic(expected = "unknown bug id")]
    fn unknown_id_panics() {
        let _ = poc_for("Z1");
    }

    #[test]
    fn poc_names_round_trip_the_schedule_seed_for_both_body_kinds() {
        use crate::campaign::poc_name;
        // Concurrency PoC: the Mhart body's seed must survive the trip
        // through the corpus name (the text format stores instructions
        // only, so the name is the seed's sole carrier).
        let mhart = poc_body_for("C1", 0x2a);
        assert!(matches!(mhart, crate::baselines::TestBody::Mhart { .. }));
        let name = poc_name("C1", &mhart);
        let (base, seed_hex) = name.split_once("+seed").expect("Mhart name carries a seed");
        assert_eq!(base, "C1");
        assert_eq!(u64::from_str_radix(seed_hex, 16), Ok(0x2a));
        // Single-hart PoC: no schedule dimension, no suffix — a replayer
        // must not invent a seed for it.
        let asm = poc_body_for("V1", 0);
        assert!(matches!(asm, crate::baselines::TestBody::Asm(_)));
        assert_eq!(poc_name("V1", &asm), "V1");
    }

    #[test]
    #[should_panic(expected = "not a concurrency bug")]
    #[cfg(debug_assertions)]
    fn nonzero_seed_for_a_single_hart_bug_is_rejected() {
        // V1's PoC has no interleaving dimension: a seed here would be
        // dropped on the floor, so debug builds refuse it loudly.
        let _ = poc_body_for("V1", 1);
    }

    #[test]
    fn v1_poc_matches_listing_one_shape() {
        // Listing 1: li + sw triggering the same-cache-line store.
        let body = poc_for("V1");
        assert_eq!(body.len(), 2);
        assert_eq!(body[1].opcode, Opcode::Sw);
    }
}
