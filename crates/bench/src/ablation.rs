//! Ablation of the loop's design choices (the §IV-B mechanisms the paper
//! motivates but does not ablate in isolation; `DESIGN.md` calls these
//! out): instruction mask, reset module, value baseline and reward
//! normalisation.

use hfl::campaign::{run_campaign, CampaignConfig, CampaignSpec};
use hfl::fuzzer::{HflConfig, HflFuzzer};
use hfl_dut::CoreKind;

use crate::parallel::run_parallel;

/// Parameters of the ablation sweep.
#[derive(Debug, Clone)]
pub struct AblationConfig {
    /// Test cases per variant per seed.
    pub cases: u64,
    /// LSTM hidden size.
    pub hidden: usize,
    /// Seeds to average over (RL runs are noisy at small budgets).
    pub seeds: Vec<u64>,
}

impl AblationConfig {
    /// A sweep that finishes in a few minutes.
    #[must_use]
    pub fn quick() -> AblationConfig {
        AblationConfig {
            cases: 600,
            hidden: 48,
            seeds: vec![21, 22, 23],
        }
    }

    /// The campaign every variant runs on every seed.
    #[must_use]
    pub fn campaign(&self) -> CampaignConfig {
        CampaignConfig::quick(self.cases)
    }
}

/// One ablation variant's outcome (means over the configured seeds).
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Variant label.
    pub variant: &'static str,
    /// Mean final condition coverage (points).
    pub condition: f64,
    /// Mean final line coverage (points).
    pub line: f64,
    /// Mean final FSM coverage (points).
    pub fsm: f64,
    /// Total reset-module activations across seeds.
    pub resets: u64,
    /// Mean unique mismatch signatures.
    pub unique_signatures: f64,
}

/// One ablation variant: a label and the config tweak it applies.
pub type Variant = (&'static str, fn(&mut HflConfig));

/// The ablation variants, as `(label, configure)` pairs.
#[must_use]
pub fn variants() -> Vec<Variant> {
    vec![
        ("full", |_| {}),
        ("no-instruction-mask", |c| c.use_instruction_mask = false),
        ("no-reset-module", |c| c.use_reset = false),
        ("no-value-baseline", |c| c.use_value_baseline = false),
        ("no-reward-normalisation", |c| c.normalize_rewards = false),
    ]
}

/// Runs every variant on RocketChip under an identical budget, averaging
/// over the configured seeds (variants × seeds run in parallel).
#[must_use]
pub fn run_ablation(cfg: &AblationConfig) -> Vec<AblationRow> {
    let vars = variants();
    let mut jobs: Vec<Box<dyn FnOnce() -> (u64, hfl::CampaignResult) + Send>> = Vec::new();
    for (_, configure) in &vars {
        for &seed in &cfg.seeds {
            let configure = *configure;
            let campaign = cfg.campaign();
            let hidden = cfg.hidden;
            jobs.push(Box::new(move || {
                let mut hfl_cfg = HflConfig::small().with_seed(seed);
                hfl_cfg.generator.hidden = hidden;
                hfl_cfg.predictor.hidden = hidden;
                configure(&mut hfl_cfg);
                let mut hfl = HflFuzzer::new(hfl_cfg);
                let spec = CampaignSpec::builder(CoreKind::Rocket, campaign)
                    .build()
                    .expect("valid campaign spec");
                let result = run_campaign(&mut hfl, &spec).expect("campaign runs");
                (hfl.stats().resets, result)
            }));
        }
    }
    let results = run_parallel(jobs);

    let n_seeds = cfg.seeds.len();
    vars.iter()
        .enumerate()
        .map(|(vi, (variant, _))| {
            let slice = &results[vi * n_seeds..(vi + 1) * n_seeds];
            let n = n_seeds as f64;
            let mut row = AblationRow {
                variant,
                condition: 0.0,
                line: 0.0,
                fsm: 0.0,
                resets: 0,
                unique_signatures: 0.0,
            };
            for (resets, result) in slice {
                let (c, l, f) = result.final_counts();
                row.condition += c as f64 / n;
                row.line += l as f64 / n;
                row.fsm += f as f64 / n;
                row.resets += resets;
                row.unique_signatures += result.unique_signatures as f64 / n;
            }
            row
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_variants_run() {
        let rows = run_ablation(&AblationConfig {
            cases: 30,
            hidden: 16,
            seeds: vec![1, 2],
        });
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0].variant, "full");
        for row in &rows {
            assert!(row.condition > 0.0, "{}: no coverage", row.variant);
        }
        // The no-reset variant must never reset.
        let no_reset = rows
            .iter()
            .find(|r| r.variant == "no-reset-module")
            .unwrap();
        assert_eq!(no_reset.resets, 0);
    }
}
