//! Ablates the loop's §IV-B design mechanisms — instruction mask, reset
//! module, value baseline and reward normalisation — under an identical
//! RocketChip budget.
//!
//! ```text
//! usage: ablation [--cases 600] [--hidden 48] [--seed N]
//! ```
//!
//! Without `--seed` each variant averages seeds 21, 22 and 23.

use hfl::cli::Args;
use hfl_bench::ablation::{run_ablation, AblationConfig};

fn main() {
    let mut args = Args::from_env();
    let mut cfg = AblationConfig::quick();
    cfg.cases = args.value("--cases", cfg.cases);
    cfg.hidden = args.value_in("--hidden", cfg.hidden, 1..);
    cfg.seeds = args.opt("--seed", "N").map_or(cfg.seeds, |seed| vec![seed]);
    args.done();
    hfl_bench::exit_if_invalid("ablation", &[cfg.campaign()]);

    println!(
        "ablation: {} cases per variant on RocketChip, hidden {}, {} seeds averaged",
        cfg.cases,
        cfg.hidden,
        cfg.seeds.len()
    );
    let rows = run_ablation(&cfg);

    println!("{:-<80}", "");
    println!(
        "{:<26} {:>10} {:>8} {:>8} {:>8} {:>12}",
        "variant", "condition", "line", "fsm", "resets", "signatures"
    );
    println!("{:-<80}", "");
    for row in &rows {
        println!(
            "{:<26} {:>10.1} {:>8.1} {:>8.1} {:>8} {:>12.1}",
            row.variant, row.condition, row.line, row.fsm, row.resets, row.unique_signatures
        );
    }
    println!("{:-<80}", "");
    println!(
        "the paper motivates the mask and reset module as the cure for the \
         'curse of exploitation' (§IV-B); the full configuration should \
         match or beat every ablated variant on coverage."
    );
}
