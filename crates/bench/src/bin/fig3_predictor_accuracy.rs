//! Regenerates **Fig. 3**: validation accuracy of the LSTM hardware-coverage
//! predictor per coverage point on RocketChip.
//!
//! ```text
//! usage: fig3_predictor_accuracy [--paper] [--cases 600] [--epochs 15]
//!     [--hidden 48] [--seed 1]
//! ```
//!
//! `--paper` selects the paper-scale configuration (830 000 cases, 200
//! epochs, hidden 256) as the defaults of the other flags; the quick
//! defaults above finish in about a minute.

use hfl::cli::Args;
use hfl_bench::fig3::{run_fig3, Fig3Config};
use hfl_dut::CoverageKind;

fn main() {
    let mut args = Args::from_env();
    let mut cfg = if args.switch("--paper") {
        Fig3Config::paper()
    } else {
        Fig3Config::quick()
    };
    cfg.cases = args.value_in("--cases", cfg.cases, 1..);
    cfg.max_epochs = args.value("--epochs", cfg.max_epochs);
    cfg.hidden = args.value_in("--hidden", cfg.hidden, 1..);
    cfg.seed = args.value("--seed", cfg.seed);
    args.done();

    println!(
        "fig3: {} cases x {} instr on {}, hidden {}, <= {} epochs (patience {})",
        cfg.cases, cfg.body_len, cfg.core, cfg.hidden, cfg.max_epochs, cfg.patience
    );
    let result = run_fig3(&cfg);
    println!(
        "dead points removed: {:.1}% of the space (paper: >70%); {} live points; trained {} epochs",
        100.0 * result.dead_fraction,
        result.live_points,
        result.epochs_ran
    );

    println!("\nper-point validation accuracy (the Fig. 3 series):");
    for kind in CoverageKind::ALL {
        let series: Vec<f64> = result
            .per_point
            .iter()
            .filter(|p| p.kind == kind)
            .map(|p| p.accuracy)
            .collect();
        if series.is_empty() {
            continue;
        }
        println!("  {kind} coverage ({} points):", series.len());
        print!("    ");
        for (i, acc) in series.iter().enumerate() {
            print!("{:>3.0}", acc * 100.0);
            if (i + 1) % 20 == 0 {
                print!("\n    ");
            } else {
                print!(" ");
            }
        }
        println!();
    }

    println!("\nmean validation accuracy (paper: condition 94%, line 94%, fsm 97%):");
    for (kind, mean) in &result.mean {
        println!("  {kind:<10} {:>5.1}%", 100.0 * mean);
    }
}
