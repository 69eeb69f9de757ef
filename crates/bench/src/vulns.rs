//! §VII reproduction: the vulnerability-detection table. For every
//! catalogued defect, two detection modes are measured:
//!
//! 1. **directed** — the proof-of-concept test case (the paper's Listings
//!    1/2 style) run through differential testing, and
//! 2. **fuzzing** — an HFL campaign against a DUT carrying *only* that
//!    defect, recording how many test cases the loop needed to first
//!    produce a mismatch.

use hfl::baselines::InterleaveFuzzer;
use hfl::campaign::{run_campaign, CampaignConfig, CampaignSpec};
use hfl::fuzzer::{HflConfig, HflFuzzer};
use hfl::harness::Executor;
use hfl::poc::{poc_body_for, poc_for};
use hfl_dut::bugs::{enable, InjectedBug, CATALOG};
use hfl_grm::cpu::Quirks;

/// Parameters of the detection experiment.
#[derive(Debug, Clone)]
pub struct VulnConfig {
    /// Fuzzing budget per (bug, core) pair.
    pub fuzz_cases: u64,
    /// HFL LSTM hidden size.
    pub hidden: usize,
    /// RNG seed.
    pub seed: u64,
}

impl VulnConfig {
    /// A configuration that finishes in a few minutes.
    #[must_use]
    pub fn quick() -> VulnConfig {
        VulnConfig {
            fuzz_cases: 250,
            hidden: 48,
            seed: 13,
        }
    }

    /// The campaign that fuzzes each single-defect DUT.
    #[must_use]
    pub fn campaign(&self) -> CampaignConfig {
        CampaignConfig {
            sample_every: self.fuzz_cases,
            ..CampaignConfig::quick(self.fuzz_cases)
        }
    }
}

/// One row of the detection table.
#[derive(Debug, Clone)]
pub struct VulnRow {
    /// The catalogued defect.
    pub bug: &'static InjectedBug,
    /// Whether the directed PoC produced a mismatch.
    pub poc_detected: bool,
    /// The first mismatch the PoC produced, rendered.
    pub poc_mismatch: Option<String>,
    /// Test cases until the fuzzing campaign first produced a mismatch
    /// (None = not within the budget).
    pub fuzz_cases_to_detect: Option<u64>,
}

/// Runs the detection table over the whole catalogue.
#[must_use]
pub fn run_vuln_table(cfg: &VulnConfig) -> Vec<VulnRow> {
    CATALOG
        .iter()
        .map(|bug| {
            let core = bug.cores[0];
            // Directed detection via the PoC. Concurrency defects only
            // manifest on the two-hart configuration, where the PoC is a
            // (body, interleaving-seed) pair — sweep the schedule space.
            let (poc_detected, poc_mismatch) = if bug.concurrency {
                let mut executor = Executor::builder(core).mhart(true).build();
                (0..64u64)
                    .find_map(|seed| {
                        let result = executor.run(&poc_body_for(bug.id, seed));
                        result
                            .mismatches
                            .first()
                            .map(|m| (true, Some(m.to_string())))
                    })
                    .unwrap_or((false, None))
            } else {
                let mut executor = Executor::builder(core).build();
                let result = executor.run_case(&poc_for(bug.id));
                (
                    !result.mismatches.is_empty(),
                    result.mismatches.first().map(ToString::to_string),
                )
            };

            // Fuzzing detection against a single-defect DUT (two-hart
            // cases via the interleave wrapper for concurrency defects).
            let mut quirks = Quirks::default();
            enable(&mut quirks, bug.id, core);
            let mut hfl_cfg = HflConfig::small().with_seed(cfg.seed);
            hfl_cfg.generator.hidden = cfg.hidden;
            hfl_cfg.predictor.hidden = cfg.hidden;
            let spec = CampaignSpec::builder(core, cfg.campaign())
                .mhart(bug.concurrency)
                .quirks(quirks)
                .build()
                .expect("valid campaign spec");
            let campaign = if bug.concurrency {
                let mut fuzzer = InterleaveFuzzer::new(cfg.seed, HflFuzzer::new(hfl_cfg));
                run_campaign(&mut fuzzer, &spec).expect("campaign runs")
            } else {
                let mut fuzzer = HflFuzzer::new(hfl_cfg);
                run_campaign(&mut fuzzer, &spec).expect("campaign runs")
            };
            let fuzz_cases_to_detect = campaign.first_detection.iter().map(|(_, case)| *case).min();

            VulnRow {
                bug,
                poc_detected,
                poc_mismatch,
                fuzz_cases_to_detect,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_poc_detects_its_bug() {
        let cfg = VulnConfig {
            fuzz_cases: 10,
            hidden: 16,
            seed: 3,
        };
        let rows = run_vuln_table(&cfg);
        assert_eq!(rows.len(), CATALOG.len());
        for row in &rows {
            assert!(row.poc_detected, "{} PoC failed", row.bug.id);
            assert!(row.poc_mismatch.is_some());
        }
        assert_eq!(rows.iter().filter(|r| r.bug.novel).count(), 4);
    }
}
