//! Regenerates the **§VII vulnerability-detection table**: the four novel
//! CVA6 vulnerabilities (V1–V4) and the known-bug catalogue, each detected
//! (a) by its directed proof of concept and (b) by a fuzzing campaign
//! against a DUT carrying only that defect.
//!
//! ```text
//! usage: tab_vulnerabilities [--fuzz-cases 250] [--hidden 48] [--seed 13]
//! ```

use hfl::cli::Args;
use hfl_bench::vulns::{run_vuln_table, VulnConfig};

fn main() {
    let mut args = Args::from_env();
    let mut cfg = VulnConfig::quick();
    cfg.fuzz_cases = args.value("--fuzz-cases", cfg.fuzz_cases);
    cfg.hidden = args.value_in("--hidden", cfg.hidden, 1..);
    cfg.seed = args.value("--seed", cfg.seed);
    args.done();
    hfl_bench::exit_if_invalid("tab_vulnerabilities", &[cfg.campaign()]);

    println!(
        "vulnerability detection: PoC + HFL fuzzing ({} cases per single-defect DUT)",
        cfg.fuzz_cases
    );
    let rows = run_vuln_table(&cfg);

    println!("{:-<98}", "");
    println!(
        "{:<4} {:<42} {:<9} {:<6} {:<5} {:<5} fuzz cases to detect",
        "id", "name", "core", "cwe", "novel", "PoC"
    );
    println!("{:-<98}", "");
    let mut poc_hits = 0usize;
    let mut fuzz_hits = 0usize;
    for row in &rows {
        if row.poc_detected {
            poc_hits += 1;
        }
        if row.fuzz_cases_to_detect.is_some() {
            fuzz_hits += 1;
        }
        println!(
            "{:<4} {:<42} {:<9} {:<6} {:<5} {:<5} {}",
            row.bug.id,
            row.bug.name,
            row.bug.cores[0].name(),
            row.bug.cwe,
            if row.bug.novel { "yes" } else { "no" },
            if row.poc_detected { "yes" } else { "NO" },
            row.fuzz_cases_to_detect
                .map_or("> budget".to_owned(), |c| c.to_string()),
        );
    }
    println!("{:-<98}", "");
    println!(
        "PoC detection {}/{}; fuzzing detection {}/{} within {} cases",
        poc_hits,
        rows.len(),
        fuzz_hits,
        rows.len(),
        cfg.fuzz_cases
    );
    println!("\nfirst mismatch produced by each PoC:");
    for row in &rows {
        if let Some(m) = &row.poc_mismatch {
            println!("  {:<4} {m}", row.bug.id);
        }
    }
    println!(
        "\npaper claim: HFL detects all bugs found by prior fuzzers and four \
         novel high-severity CVA6 vulnerabilities."
    );
}
