//! Regenerates the §VI in-text efficiency claim: HFL reaches each
//! baseline's saturated RocketChip condition coverage with a small
//! fraction of the baseline's test cases (the paper reports <1 % against
//! 100 k-case runs).
//!
//! ```text
//! usage: tab_efficiency [--baseline-cases 800] [--hfl-cases 400]
//!     [--hidden 64] [--seed 11] [--threads 1]
//! ```

use hfl::cli::Args;
use hfl_bench::efficiency::{run_efficiency, EfficiencyConfig};

fn main() {
    let mut args = Args::from_env();
    let mut cfg = EfficiencyConfig::quick();
    cfg.baseline_cases = args.value("--baseline-cases", cfg.baseline_cases);
    cfg.hfl_cases = args.value("--hfl-cases", cfg.hfl_cases);
    cfg.hidden = args.value_in("--hidden", cfg.hidden, 1..);
    cfg.seed = args.value("--seed", cfg.seed);
    cfg.threads = args.value("--threads", cfg.threads);
    args.done();
    hfl_bench::exit_if_invalid("tab_efficiency", &cfg.campaigns());

    println!(
        "efficiency: baselines {} cases each, HFL {} cases, RocketChip condition coverage",
        cfg.baseline_cases, cfg.hfl_cases
    );
    let (rows, hfl) = run_efficiency(&cfg);
    let hfl_final = hfl.final_counts().0;

    println!("{:-<78}", "");
    println!(
        "{:<10} {:>10} {:>12} {:>16} {:>12}",
        "baseline", "cond@end", "cases used", "HFL cases to tie", "ratio"
    );
    println!("{:-<78}", "");
    for row in &rows {
        let (tie, ratio) = match (row.hfl_cases_to_match, row.ratio) {
            (Some(c), Some(r)) => (c.to_string(), format!("{:.2}%", 100.0 * r)),
            _ => ("> budget".to_owned(), "-".to_owned()),
        };
        println!(
            "{:<10} {:>10} {:>12} {:>16} {:>12}",
            row.fuzzer, row.final_condition, row.cases_used, tie, ratio
        );
    }
    println!("{:-<78}", "");
    println!(
        "HFL final condition coverage: {} points after {} cases",
        hfl_final, cfg.hfl_cases
    );
    println!(
        "paper claim: HFL matches the baselines' saturated coverage with <1% \
         of their test cases (baselines run to 100k)."
    );
}
