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

/// Ends a harness binary with exit status 1 and `invalid spec: …` on
/// stderr, before it runs or prints anything, if a campaign config it
/// would run does not validate.
pub fn exit_if_invalid(bin: &str, campaigns: &[hfl::CampaignConfig]) {
    if let Some(err) = campaigns.iter().find_map(|c| c.validate().err()) {
        eprintln!("{bin}: invalid spec: {err}");
        std::process::exit(1);
    }
}
