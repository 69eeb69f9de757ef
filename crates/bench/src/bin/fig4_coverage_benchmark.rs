//! Regenerates **Fig. 4**: cumulative coverage vs test cases, HFL against
//! Cascade and the GoldenFuzz generative baseline, on RocketChip / Boom /
//! CVA6 for condition, line and FSM coverage (nine panel triples).
//!
//! ```text
//! usage: fig4_coverage_benchmark [--cases 1500] [--hidden 64]
//!     [--test-len 32] [--lr 0.001] [--seed 7] [--threads 1] [--batch 1]
//!     [--core rocket|boom|cva6]
//! ```
//!
//! Without `--core` the sweep covers all three cores.

use hfl::cli::Args;
use hfl::spec::parse_core;
use hfl_bench::fig4::{run_fig4, Fig4Config};
use hfl_dut::CoverageKind;

fn main() {
    let mut args = Args::from_env();
    let mut cfg = Fig4Config::quick();
    cfg.cases = args.value("--cases", cfg.cases);
    cfg.hidden = args.value_in("--hidden", cfg.hidden, 1..);
    cfg.test_len = args.value("--test-len", cfg.test_len);
    cfg.lr = args.value("--lr", cfg.lr);
    cfg.seed = args.value("--seed", cfg.seed);
    cfg.threads = args.value("--threads", cfg.threads);
    cfg.batch = args.value("--batch", cfg.batch);
    let core: Option<String> = args.opt("--core", "rocket|boom|cva6");
    args.done();
    cfg.sample_every = (cfg.cases / 10).max(1);
    if let Some(name) = core {
        cfg.cores = vec![parse_core(&name).unwrap_or_else(|err| {
            eprintln!("fig4_coverage_benchmark: --core: {err}");
            std::process::exit(1)
        })];
    }
    hfl_bench::exit_if_invalid("fig4_coverage_benchmark", &[cfg.campaign()]);

    println!(
        "fig4: {} cases per fuzzer per core, HFL hidden {}",
        cfg.cases, cfg.hidden
    );
    let series = run_fig4(&cfg);

    for group in series.chunks(3) {
        let (hfl, cascade, golden) = (&group[0], &group[1], &group[2]);
        println!("\n==== {} ====", hfl.core);
        for kind in CoverageKind::ALL {
            let total = match kind {
                CoverageKind::Condition => hfl.totals.0,
                CoverageKind::Line => hfl.totals.1,
                CoverageKind::Fsm => hfl.totals.2,
            };
            let pick = |s: &hfl::CoverageSample| match kind {
                CoverageKind::Condition => s.condition,
                CoverageKind::Line => s.line,
                CoverageKind::Fsm => s.fsm,
            };
            println!("  {kind} coverage (of {total} points):");
            println!(
                "    {:>8} {:>8} {:>8} {:>10}",
                "cases", "HFL", "Cascade", "GoldenFuzz"
            );
            for ((h, c), g) in hfl.curve.iter().zip(&cascade.curve).zip(&golden.curve) {
                println!(
                    "    {:>8} {:>8} {:>8} {:>10}",
                    h.cases,
                    pick(h),
                    pick(c),
                    pick(g)
                );
            }
            let (h_final, c_final) = (
                hfl.curve.last().map_or(0, pick),
                cascade.curve.last().map_or(0, pick),
            );
            let verdict = match h_final.cmp(&c_final) {
                std::cmp::Ordering::Greater => "HFL ahead",
                std::cmp::Ordering::Equal => "tie",
                std::cmp::Ordering::Less => "Cascade ahead",
            };
            println!("    -> {verdict} ({h_final} vs {c_final})");
        }
        println!(
            "  mismatch signatures: HFL {} (from {} raw), Cascade {} (from {} raw), \
             GoldenFuzz {} (from {} raw)",
            hfl.unique_signatures,
            hfl.total_mismatches,
            cascade.unique_signatures,
            cascade.total_mismatches,
            golden.unique_signatures,
            golden.total_mismatches
        );
        println!(
            "  instructions executed: HFL {}, Cascade {} ({:.1}x more)",
            hfl.instructions_executed,
            cascade.instructions_executed,
            cascade.instructions_executed as f64 / hfl.instructions_executed.max(1) as f64
        );
    }
    println!(
        "\npaper shape: HFL wins every (core, metric) pair except FSM on \
         RocketChip (tie); Cascade plateaus early while HFL keeps growing."
    );
}
