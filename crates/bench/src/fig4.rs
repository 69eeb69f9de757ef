//! Fig. 4 reproduction: cumulative coverage versus test cases, HFL against
//! Cascade, across the three cores and three metrics.
//!
//! The paper's Fig. 4 shows HFL out-covering Cascade on every
//! (core, metric) pair except FSM coverage on RocketChip (a tie), with
//! Cascade plateauing early while HFL keeps climbing. This harness also
//! carries a third series per core: the GoldenFuzz generative baseline
//! (candidates scored by a golden-reference transition model, no coverage
//! feedback), which separates "learns from hardware feedback" from
//! "models the ISA well" on the same axes.

use hfl::baselines::{CascadeFuzzer, GoldenFuzzFuzzer};
use hfl::campaign::{run_campaign, CampaignConfig, CampaignResult, CampaignSpec, RunConfig};
use hfl::fuzzer::{HflConfig, HflFuzzer};
use hfl_dut::CoreKind;

/// Parameters of the Fig. 4 sweep.
#[derive(Debug, Clone)]
pub struct Fig4Config {
    /// Test cases per fuzzer per core.
    pub cases: u64,
    /// Coverage-curve sampling interval.
    pub sample_every: u64,
    /// HFL LSTM hidden size (paper: 256).
    pub hidden: usize,
    /// HFL episode length (instructions per full test case).
    pub test_len: usize,
    /// HFL learning rate.
    pub lr: f32,
    /// Cascade program length (Cascade generates long programs).
    pub cascade_len: usize,
    /// RNG seed.
    pub seed: u64,
    /// Cores to sweep.
    pub cores: Vec<CoreKind>,
    /// Execution-pool workers per campaign (never changes the curves).
    pub threads: usize,
    /// Cases per execution batch (part of the campaign semantics).
    pub batch: usize,
}

impl Fig4Config {
    /// A sweep that finishes in a few minutes.
    #[must_use]
    pub fn quick() -> Fig4Config {
        Fig4Config {
            cases: 1500,
            sample_every: 150,
            hidden: 64,
            test_len: 32,
            lr: 1e-3,
            cascade_len: 120,
            seed: 7,
            cores: CoreKind::ALL.to_vec(),
            threads: 1,
            batch: 1,
        }
    }

    /// The campaign every series of the sweep runs.
    #[must_use]
    pub fn campaign(&self) -> CampaignConfig {
        CampaignConfig {
            cases: self.cases,
            sample_every: self.sample_every,
            run: RunConfig::quick()
                .with_batch(self.batch)
                .with_threads(self.threads),
        }
    }
}

/// One (fuzzer, core) series of the figure.
pub type Fig4Series = CampaignResult;

/// Runs the sweep: for each core, one HFL campaign, one Cascade campaign
/// and one GoldenFuzz campaign under identical budgets and measurement.
#[must_use]
pub fn run_fig4(cfg: &Fig4Config) -> Vec<Fig4Series> {
    let campaign = cfg.campaign();
    let spec = move |core| {
        CampaignSpec::builder(core, campaign)
            .build()
            .expect("valid campaign spec")
    };
    let mut jobs: Vec<Box<dyn FnOnce() -> CampaignResult + Send>> = Vec::new();
    for &core in &cfg.cores {
        let cfg = cfg.clone();
        jobs.push(Box::new(move || {
            let mut hfl_cfg = HflConfig::small().with_seed(cfg.seed);
            hfl_cfg.generator.hidden = cfg.hidden;
            hfl_cfg.predictor.hidden = cfg.hidden;
            hfl_cfg.generator.lr = cfg.lr;
            hfl_cfg.predictor.lr = cfg.lr;
            hfl_cfg.test_len = cfg.test_len;
            let mut hfl = HflFuzzer::new(hfl_cfg);
            run_campaign(&mut hfl, &spec(core)).expect("campaign runs")
        }));
        let seed = cfg.seed;
        let cascade_len = cfg.cascade_len;
        jobs.push(Box::new(move || {
            let mut cascade = CascadeFuzzer::new(seed, cascade_len);
            run_campaign(&mut cascade, &spec(core)).expect("campaign runs")
        }));
        let golden_len = cfg.test_len;
        jobs.push(Box::new(move || {
            let mut golden = GoldenFuzzFuzzer::new(seed, golden_len);
            run_campaign(&mut golden, &spec(core)).expect("campaign runs")
        }));
    }
    crate::parallel::run_parallel(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfl_dut::CoverageKind;

    #[test]
    fn quick_fig4_produces_paired_series() {
        let cfg = Fig4Config {
            cases: 60,
            sample_every: 15,
            hidden: 16,
            test_len: 8,
            lr: 1e-3,
            cascade_len: 60,
            seed: 5,
            cores: vec![CoreKind::Rocket],
            threads: 2,
            batch: 1,
        };
        let series = run_fig4(&cfg);
        assert_eq!(series.len(), 3);
        assert_eq!(series[0].fuzzer, "HFL");
        assert_eq!(series[1].fuzzer, "Cascade");
        assert_eq!(series[2].fuzzer, "GoldenFuzz");
        assert_eq!(series[0].totals, series[1].totals, "same coverage universe");
        assert_eq!(series[0].totals, series[2].totals, "same coverage universe");
        for s in &series {
            assert!(s.final_fraction(CoverageKind::Condition) > 0.0);
            assert!(!s.curve.is_empty());
        }
    }
}
