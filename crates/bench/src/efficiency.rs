//! §VI in-text claim reproduction: HFL reaches the coverage the
//! baselines saturate at using a small fraction of their test cases (the
//! paper reports <1 % against 100 k-case baseline runs on RocketChip
//! condition coverage). Besides the paper's four baselines the table
//! carries a GoldenFuzz row — the generative golden-reference baseline,
//! which generates from an ISA transition model with no coverage
//! feedback — to separate feedback learning from generative modelling.

use hfl::baselines::{
    CascadeFuzzer, ChatFuzzFuzzer, DifuzzRtlFuzzer, Fuzzer, GoldenFuzzFuzzer, TheHuzzFuzzer,
};
use hfl::campaign::{run_campaign, CampaignConfig, CampaignResult, CampaignSpec, RunConfig};
use hfl::fuzzer::{HflConfig, HflFuzzer};
use hfl_dut::CoreKind;

/// Parameters of the efficiency comparison.
#[derive(Debug, Clone)]
pub struct EfficiencyConfig {
    /// Test-case budget for each baseline (the paper: up to 100 000).
    pub baseline_cases: u64,
    /// Test-case budget for HFL.
    pub hfl_cases: u64,
    /// HFL LSTM hidden size.
    pub hidden: usize,
    /// RNG seed.
    pub seed: u64,
    /// Execution-pool workers per campaign (never changes the results).
    pub threads: usize,
}

impl EfficiencyConfig {
    /// A comparison that finishes in a few minutes.
    #[must_use]
    pub fn quick() -> EfficiencyConfig {
        EfficiencyConfig {
            baseline_cases: 800,
            hfl_cases: 400,
            hidden: 64,
            seed: 11,
            threads: 1,
        }
    }

    /// The campaigns the comparison runs: HFL's, then each baseline's.
    #[must_use]
    pub fn campaigns(&self) -> [CampaignConfig; 2] {
        let run = RunConfig::quick().with_threads(self.threads);
        [
            CampaignConfig {
                cases: self.hfl_cases,
                sample_every: 1,
                run,
            },
            CampaignConfig {
                cases: self.baseline_cases,
                sample_every: (self.baseline_cases / 100).max(1),
                run,
            },
        ]
    }
}

/// One row of the efficiency table.
#[derive(Debug, Clone)]
pub struct EfficiencyRow {
    /// Baseline fuzzer name.
    pub fuzzer: String,
    /// The baseline's final cumulative condition coverage (points).
    pub final_condition: usize,
    /// Test cases the baseline consumed.
    pub cases_used: u64,
    /// Test cases HFL needed to reach the same condition coverage, if it
    /// did within its budget.
    pub hfl_cases_to_match: Option<u64>,
    /// `hfl_cases_to_match / cases_used` (the paper claims < 1 %).
    pub ratio: Option<f64>,
}

/// Runs the comparison on RocketChip condition coverage.
#[must_use]
pub fn run_efficiency(cfg: &EfficiencyConfig) -> (Vec<EfficiencyRow>, CampaignResult) {
    let core = CoreKind::Rocket;
    let [hfl_campaign, baseline_campaign] = cfg.campaigns();
    let spec = |campaign| {
        CampaignSpec::builder(core, campaign)
            .build()
            .expect("valid campaign spec")
    };
    let mut hfl_cfg = HflConfig::small().with_seed(cfg.seed);
    hfl_cfg.generator.hidden = cfg.hidden;
    hfl_cfg.predictor.hidden = cfg.hidden;
    let mut hfl = HflFuzzer::new(hfl_cfg);
    let hfl_result = run_campaign(&mut hfl, &spec(hfl_campaign)).expect("campaign runs");

    let mut baselines: Vec<Box<dyn Fuzzer>> = vec![
        Box::new(DifuzzRtlFuzzer::new(cfg.seed, 20)),
        Box::new(TheHuzzFuzzer::new(cfg.seed, 20)),
        Box::new(ChatFuzzFuzzer::new(cfg.seed, 20)),
        Box::new(CascadeFuzzer::new(cfg.seed, 150)),
        Box::new(GoldenFuzzFuzzer::new(cfg.seed, 20)),
    ];
    let rows = baselines
        .iter_mut()
        .map(|fuzzer| {
            let result =
                run_campaign(fuzzer.as_mut(), &spec(baseline_campaign)).expect("campaign runs");
            let final_condition = result.final_counts().0;
            let hfl_cases_to_match = hfl_result.cases_to_reach_condition(final_condition);
            EfficiencyRow {
                fuzzer: result.fuzzer,
                final_condition,
                cases_used: cfg.baseline_cases,
                hfl_cases_to_match,
                ratio: hfl_cases_to_match.map(|c| c as f64 / cfg.baseline_cases as f64),
            }
        })
        .collect();
    (rows, hfl_result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiency_rows_cover_all_baselines() {
        let cfg = EfficiencyConfig {
            baseline_cases: 60,
            hfl_cases: 60,
            hidden: 16,
            seed: 2,
            threads: 2,
        };
        let (rows, hfl) = run_efficiency(&cfg);
        assert_eq!(rows.len(), 5);
        let names: Vec<&str> = rows.iter().map(|r| r.fuzzer.as_str()).collect();
        assert_eq!(
            names,
            ["DifuzzRTL", "TheHuzz", "ChatFuzz", "Cascade", "GoldenFuzz"]
        );
        assert_eq!(hfl.fuzzer, "HFL");
        for row in &rows {
            assert!(row.final_condition > 0);
            if let Some(r) = row.ratio {
                assert!(r > 0.0);
            }
        }
    }
}
