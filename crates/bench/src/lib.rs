//! Benchmark and experiment harnesses for the HFL reproduction.
//!
//! One module per paper artefact (see `DESIGN.md`'s per-experiment index):
//!
//! | module | artefact | binary |
//! |---|---|---|
//! | [`fig3`] | Fig. 3 — coverage-predictor validation accuracy | `fig3_predictor_accuracy` |
//! | [`fig4`] | Fig. 4 — HFL vs Cascade coverage curves | `fig4_coverage_benchmark` |
//! | [`efficiency`] | §VI — test-case efficiency vs four fuzzers | `tab_efficiency` |
//! | [`vulns`] | §VII — vulnerability detection table | `tab_vulnerabilities` |
//! | [`ablation`] | design-choice ablations | `ablation` |
//!
//! Operational self-check binaries ride along: `smoke` (telemetry +
//! crash-resume round trip), `fleet` (ensemble runs with the shared
//! corpus, merged-vs-best-solo comparison and SIGKILL resume) and
//! `campaign_report` (JSONL replay, `--fleet` for epoch tables).
//!
//! The end-to-end throughput benchmark lives in the `e2ebench/` package at
//! the repository root.

pub mod ablation;
pub mod efficiency;
pub mod fig3;
pub mod fig4;
pub mod parallel;
pub mod vulns;

/// Parses `--key value` style overrides from a binary's argument list,
/// returning the value for `key` if present.
#[must_use]
pub fn arg_value(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Parses a numeric `--key value` override with a default.
///
/// A flag that is present with a missing or unparsable value ends the
/// process with exit status 2 and a message naming the flag and the
/// value, so a mistyped size never runs the default-sized experiment.
#[must_use]
pub fn arg_num<T: std::str::FromStr>(args: &[String], key: &str, default: T) -> T {
    let Some(at) = args.iter().position(|a| a == key) else {
        return default;
    };
    match args.get(at + 1) {
        Some(value) => value.parse().unwrap_or_else(|_| {
            eprintln!("{key}: {value:?} is not a valid number");
            std::process::exit(2)
        }),
        None => {
            eprintln!("{key}: missing value");
            std::process::exit(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arg_parsing() {
        let args: Vec<String> = ["--cases", "500", "--hidden", "128"]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        assert_eq!(arg_value(&args, "--cases").as_deref(), Some("500"));
        assert_eq!(arg_num(&args, "--cases", 10u64), 500);
        assert_eq!(arg_num(&args, "--hidden", 64usize), 128);
        assert_eq!(arg_num(&args, "--missing", 7i32), 7);
        assert_eq!(arg_value(&args, "--hidden").as_deref(), Some("128"));
    }
}
