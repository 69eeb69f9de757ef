//! Simulator hot-path baseline: the predecode overhaul's throughput
//! numbers with plain `Instant` timing, emitting / checking the
//! machine-readable `BENCH_sim.json` baseline.
//!
//! Measures the GRM interpreter both ways (per-step fetch+decode vs the
//! predecoded image with the superinstruction block path), the
//! instrumented DUT per core on the predecoded dispatch, and end-to-end
//! difftest cases/sec through the `Executor` (assemble + predecode + DUT
//! + the GRM checking the DUT's trace).
//!
//! ```text
//! cargo run --release -p hfl-bench --bin bench_sim -- \
//!     [--out BENCH_sim.json]         # write a fresh baseline
//!     [--check BENCH_sim.json]       # fail if predecoded steps/sec regresses > tolerance
//!     [--tolerance 0.20]             # regression budget for --check
//!     [--require-speedup 5.0]        # minimum predecode speedup on the GRM micro-bench
//!     [--iters-scale 1.0]            # scale iteration counts (CI smoke: < 1)
//!     [--mhart]                      # also time the two-hart system scheduler
//! ```
//!
//! `--mhart` adds `mhart_scheduled_steps_per_sec` — discrete-event
//! scheduler events processed per second on the two-hart machine
//! (hart steps + timer firings + reference replay) — to the report and
//! the JSON baseline.

use std::time::Instant;

use hfl::baselines::TestBody;
use hfl::harness::Executor;
use hfl_bench::{arg_num, arg_value};
use hfl_dut::{CoreKind, Dut, MhartMachine};
use hfl_grm::cpu::Cpu;
use hfl_grm::{PredecodedProgram, Program};
use hfl_riscv::{Instruction, Opcode, Reg};

/// Steps each timed GRM/DUT run retires (a looped straight-line body, so
/// the budget — not the program — ends the run).
const STEP_BUDGET: u64 = 200_000;
/// ALU ops per loop iteration before the back-edge.
const LOOP_BODY: usize = 256;
/// Distinct difftest bodies (each runs twice per timed pass).
const DIFFTEST_BODIES: usize = 32;

/// Median-of-runs seconds per call of `f`.
fn time_s<F: FnMut()>(mut f: F, runs: u32) -> f64 {
    f(); // warm-up
    let mut samples: Vec<f64> = (0..runs.max(1))
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// A tight loop: `LOOP_BODY` dependent ALU ops then a `jal` back to the
/// top, so the run always exhausts its step budget. Straight-line inside
/// the loop is exactly what the superinstruction block path fuses.
fn loop_program() -> Program {
    let mut body: Vec<Instruction> = (0..LOOP_BODY)
        .map(|i| {
            let rd = Reg::from_index(5 + (i % 8) as u8);
            Instruction::i(Opcode::Addi, rd, rd, 1)
        })
        .collect();
    body.push(Instruction::j(
        Opcode::Jal,
        Reg::X0,
        -((LOOP_BODY as i64) * 4),
    ));
    Program::assemble(&body)
}

/// Mixed short bodies for the difftest throughput measure.
fn difftest_bodies() -> Vec<TestBody> {
    (0..DIFFTEST_BODIES as u64)
        .map(|seed| {
            let mut state = seed * 2 + 1;
            let words: Vec<u32> = (0..24)
                .map(|_| {
                    state = state.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(1);
                    let d = state >> 16;
                    let rd = Reg::from_index(5 + (d % 8) as u8);
                    let rs = Reg::from_index(10 + ((d >> 3) % 4) as u8);
                    match d % 4 {
                        0 | 1 => Instruction::i(Opcode::Addi, rd, rs, (d % 128) as i64),
                        2 => Instruction::r(Opcode::Add, rd, rs, rd),
                        _ => Instruction::r(Opcode::Sltu, rd, rs, rd),
                    }
                    .encode()
                })
                .collect();
            TestBody::Words(words)
        })
        .collect()
}

#[derive(Debug, Clone, Copy)]
struct Baseline {
    grm_legacy_steps_per_sec: f64,
    grm_predecoded_steps_per_sec: f64,
    grm_speedup: f64,
    dut_rocket_steps_per_sec: f64,
    dut_boom_steps_per_sec: f64,
    dut_cva6_steps_per_sec: f64,
    difftest_cases_per_sec: f64,
    /// Two-hart scheduler events/sec; `None` unless `--mhart` was given.
    mhart_scheduled_steps_per_sec: Option<f64>,
}

impl Baseline {
    fn to_json(self) -> String {
        let mhart = self
            .mhart_scheduled_steps_per_sec
            .map(|v| format!(",\n  \"mhart_scheduled_steps_per_sec\": {v:.0}"))
            .unwrap_or_default();
        format!(
            "{{\n  \"grm_legacy_steps_per_sec\": {:.0},\n  \
             \"grm_predecoded_steps_per_sec\": {:.0},\n  \"grm_speedup\": {:.3},\n  \
             \"dut_rocket_steps_per_sec\": {:.0},\n  \"dut_boom_steps_per_sec\": {:.0},\n  \
             \"dut_cva6_steps_per_sec\": {:.0},\n  \"difftest_cases_per_sec\": {:.1}{mhart}\n}}\n",
            self.grm_legacy_steps_per_sec,
            self.grm_predecoded_steps_per_sec,
            self.grm_speedup,
            self.dut_rocket_steps_per_sec,
            self.dut_boom_steps_per_sec,
            self.dut_cva6_steps_per_sec,
            self.difftest_cases_per_sec,
        )
    }
}

/// Pulls `"key": <number>` out of the flat baseline JSON (no nesting, no
/// string values — a full parser would be overkill for our own format).
fn json_number(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\"");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| {
            c != '-' && c != '+' && c != '.' && c != 'e' && c != 'E' && !c.is_ascii_digit()
        })
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Scheduler events processed per second on the two-hart machine: runs
/// the shared loop program on both harts (plus the timer device and the
/// sequential reference replay) under a fixed interleaving seed.
fn measure_mhart(scale: f64) -> f64 {
    let budget = ((STEP_BUDGET as f64 * scale / 4.0).ceil() as u64).max(LOOP_BODY as u64 * 4);
    let program = loop_program();
    let mut machine = MhartMachine::new(hfl_grm::cpu::Quirks::default());
    let mut scheduled = 0u64;
    let spent = time_s(
        || {
            let result = machine.run(&program, 0xBE5C, budget);
            scheduled = result.scheduled_steps;
            std::hint::black_box(result);
        },
        5,
    );
    scheduled as f64 / spent
}

fn measure(scale: f64) -> Baseline {
    let budget = ((STEP_BUDGET as f64 * scale).ceil() as u64).max(LOOP_BODY as u64 * 4);
    let runs = 5;
    let program = loop_program();
    let image = PredecodedProgram::new(&program);

    // The micro-bench isolates the interpreter: trace capture off (the
    // difftest measure below times the traced path end to end).
    let grm_legacy_s = time_s(
        || {
            let mut cpu = Cpu::new();
            cpu.trace_enabled = false;
            cpu.load_program(&program);
            std::hint::black_box(cpu.run(budget));
        },
        runs,
    );
    let grm_predecoded_s = time_s(
        || {
            let mut cpu = Cpu::new();
            cpu.trace_enabled = false;
            cpu.load_program(&program);
            std::hint::black_box(cpu.run_predecoded(&image, budget));
        },
        runs,
    );

    let dut_steps = |core: CoreKind| -> f64 {
        let spent = time_s(
            || {
                let mut dut = Dut::new(core);
                std::hint::black_box(dut.run_predecoded(&program, &image, budget));
            },
            runs,
        );
        budget as f64 / spent
    };

    let bodies = difftest_bodies();
    let cases = ((bodies.len() * 2) as f64 * scale.max(0.1)).ceil() as usize;
    let difftest_s = time_s(
        || {
            let mut executor = Executor::builder(CoreKind::Rocket).build();
            for i in 0..cases {
                std::hint::black_box(executor.run(&bodies[i % bodies.len()]));
            }
        },
        runs,
    );

    Baseline {
        grm_legacy_steps_per_sec: budget as f64 / grm_legacy_s,
        grm_predecoded_steps_per_sec: budget as f64 / grm_predecoded_s,
        grm_speedup: grm_legacy_s / grm_predecoded_s,
        dut_rocket_steps_per_sec: dut_steps(CoreKind::Rocket),
        dut_boom_steps_per_sec: dut_steps(CoreKind::Boom),
        dut_cva6_steps_per_sec: dut_steps(CoreKind::Cva6),
        difftest_cases_per_sec: cases as f64 / difftest_s,
        mhart_scheduled_steps_per_sec: None,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale: f64 = arg_num(&args, "--iters-scale", 1.0);
    let tolerance: f64 = arg_num(&args, "--tolerance", 0.20);
    let require_speedup: f64 = arg_num(&args, "--require-speedup", 0.0);

    let mut b = measure(scale);
    if args.iter().any(|a| a == "--mhart") {
        b.mhart_scheduled_steps_per_sec = Some(measure_mhart(scale));
    }
    println!("simulator hot path ({LOOP_BODY}-op loop, {STEP_BUDGET} step budget):");
    println!(
        "  GRM steps/sec         {:>12.0} legacy / {:.0} predecoded ({:.2}x)",
        b.grm_legacy_steps_per_sec, b.grm_predecoded_steps_per_sec, b.grm_speedup
    );
    println!(
        "  DUT steps/sec Rocket  {:>12.0}",
        b.dut_rocket_steps_per_sec
    );
    println!("  DUT steps/sec Boom    {:>12.0}", b.dut_boom_steps_per_sec);
    println!("  DUT steps/sec CVA6    {:>12.0}", b.dut_cva6_steps_per_sec);
    println!("  difftest cases/sec    {:>12.1}", b.difftest_cases_per_sec);
    if let Some(v) = b.mhart_scheduled_steps_per_sec {
        println!("  mhart sched steps/sec {v:>12.0}");
    }

    let mut failed = false;
    if require_speedup > 0.0 && b.grm_speedup < require_speedup {
        eprintln!(
            "FAIL: predecode speedup {:.2}x below the required {require_speedup:.2}x",
            b.grm_speedup
        );
        failed = true;
    }
    if let Some(path) = arg_value(&args, "--check") {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let base = json_number(&text, "grm_predecoded_steps_per_sec")
            .unwrap_or_else(|| panic!("baseline {path} lacks grm_predecoded_steps_per_sec"));
        // Throughput: higher is better, so the floor is baseline − budget.
        let floor = base * (1.0 - tolerance);
        if b.grm_predecoded_steps_per_sec < floor {
            eprintln!(
                "FAIL: predecoded {:.0} steps/sec regressed below {floor:.0} \
                 (baseline {base:.0} − {:.0}% tolerance)",
                b.grm_predecoded_steps_per_sec,
                tolerance * 100.0
            );
            failed = true;
        } else {
            println!(
                "check ok: predecoded {:.0} steps/sec above the {floor:.0} floor \
                 (baseline {base:.0})",
                b.grm_predecoded_steps_per_sec
            );
        }
    }
    if let Some(path) = arg_value(&args, "--out") {
        std::fs::write(&path, b.to_json()).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("wrote {path}");
    }
    if failed {
        std::process::exit(1);
    }
}
