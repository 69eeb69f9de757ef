//! One spec surface for every runner: the versioned [`RunRequest`].
//!
//! Before this module existed, three overlapping job descriptions
//! validated themselves independently — `CampaignSpec` (the in-process
//! builder), `FleetSpec` (the fleet builder) and `hfl-serve`'s
//! `JobSpec` (field-by-field checks sprinkled through the JSON parser).
//! [`RunRequest`] collapses them behind a single serializable enum with
//! **one** validation path ([`RunRequest::validate`], returning the
//! same typed [`SpecError`] the builders use), so a spec accepted here
//! is a spec the runners will accept, whether it arrived over HTTP, on
//! a CLI, or from a restart file.
//!
//! The flat-JSON wire format (`{"type":"job_spec","kind":...}`) is
//! unchanged from the `hfl-serve` dialect it replaces — existing
//! clients and `state.jsonl` files keep parsing.
//!
//! [`FuzzerKind`] and [`MemberSpec`] also serve the distributed fleet
//! (`crate::fleet_dist`): a coordinator describes a member as data and a
//! worker process reconstructs the identical fuzzer from it, because
//! [`FuzzerKind::build`] is the single construction convention (the
//! CI-sized models previously duplicated in `hfl-serve` and the bench
//! binaries).

use crate::baselines::{CascadeFuzzer, DifuzzRtlFuzzer, Fuzzer, GoldenFuzzFuzzer, TheHuzzFuzzer};
use crate::campaign::{CampaignConfig, RunConfig, SpecError};
use crate::fleet::{FleetConfig, FleetMember};
use crate::fuzzer::{HflConfig, HflFuzzer};
use crate::json::{Fields, ObjectWriter};
use crate::scenario::{ScenarioConfig, ScenarioFuzzer};
use hfl_dut::CoreKind;

/// The fuzzing strategies a spec can name. An enum rather than a free
/// string so an invalid strategy is unrepresentable once parsed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FuzzerKind {
    /// The DifuzzRTL coverage-guided baseline.
    Difuzz,
    /// The TheHuzz mutation baseline.
    TheHuzz,
    /// The Cascade program-generator baseline.
    Cascade,
    /// The paper's RL fuzzer.
    Hfl,
    /// The hierarchical scenario policy (UCB bandit over semantic
    /// scenarios steering the LSTM generator).
    Scenario,
    /// The generative golden-reference baseline (candidates scored by a
    /// transition model learned from GRM retire traces, no coverage
    /// feedback).
    GoldenFuzz,
}

impl FuzzerKind {
    /// Every kind, in wire order.
    pub const ALL: [FuzzerKind; 6] = [
        FuzzerKind::Difuzz,
        FuzzerKind::TheHuzz,
        FuzzerKind::Cascade,
        FuzzerKind::Hfl,
        FuzzerKind::Scenario,
        FuzzerKind::GoldenFuzz,
    ];

    /// Parses the spec-file name (`difuzz`, `thehuzz`, `cascade`,
    /// `hfl`, `scenario`, `goldenfuzz`).
    ///
    /// # Errors
    /// Names the unknown fuzzer (these become HTTP 400 bodies).
    pub fn parse(name: &str) -> Result<FuzzerKind, String> {
        match name {
            "difuzz" => Ok(FuzzerKind::Difuzz),
            "thehuzz" => Ok(FuzzerKind::TheHuzz),
            "cascade" => Ok(FuzzerKind::Cascade),
            "hfl" => Ok(FuzzerKind::Hfl),
            "scenario" => Ok(FuzzerKind::Scenario),
            "goldenfuzz" => Ok(FuzzerKind::GoldenFuzz),
            other => Err(format!("unknown fuzzer {other:?}")),
        }
    }

    /// The spec-file name ([`FuzzerKind::parse`]'s inverse).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            FuzzerKind::Difuzz => "difuzz",
            FuzzerKind::TheHuzz => "thehuzz",
            FuzzerKind::Cascade => "cascade",
            FuzzerKind::Hfl => "hfl",
            FuzzerKind::Scenario => "scenario",
            FuzzerKind::GoldenFuzz => "goldenfuzz",
        }
    }

    /// The canonical [`Fuzzer::name`] of the built fuzzer — what fleet
    /// checkpoints record for line-up validation.
    #[must_use]
    pub fn fuzzer_name(self) -> &'static str {
        match self {
            FuzzerKind::Difuzz => "DifuzzRTL",
            FuzzerKind::TheHuzz => "TheHuzz",
            FuzzerKind::Cascade => "Cascade",
            FuzzerKind::Hfl => "HFL",
            FuzzerKind::Scenario => "Scenario",
            FuzzerKind::GoldenFuzz => "GoldenFuzz",
        }
    }

    /// Builds the fuzzer with the shared CI-sized models. This is *the*
    /// construction convention: every entry point (serve, bench bins,
    /// fleet workers) building from the same kind and seed gets a
    /// bit-identical fuzzer.
    #[must_use]
    pub fn build(self, seed: u64) -> Box<dyn Fuzzer> {
        match self {
            FuzzerKind::Difuzz => Box::new(DifuzzRtlFuzzer::new(seed, 16)),
            FuzzerKind::TheHuzz => Box::new(TheHuzzFuzzer::new(seed, 16)),
            FuzzerKind::Cascade => Box::new(CascadeFuzzer::new(seed, 60)),
            FuzzerKind::Hfl => {
                let mut cfg = HflConfig::small().with_seed(seed);
                cfg.generator.hidden = 16;
                cfg.predictor.hidden = 16;
                cfg.test_len = 6;
                Box::new(HflFuzzer::new(cfg))
            }
            FuzzerKind::Scenario => {
                let mut cfg = ScenarioConfig::small().with_seed(seed);
                cfg.generator.hidden = 16;
                cfg.case_len = 6;
                Box::new(ScenarioFuzzer::new(cfg))
            }
            FuzzerKind::GoldenFuzz => Box::new(GoldenFuzzFuzzer::new(seed, 16)),
        }
    }
}

/// The spec-file name of a core (`rocket`, `boom`, `cva6`).
#[must_use]
pub fn core_name(core: CoreKind) -> &'static str {
    match core {
        CoreKind::Rocket => "rocket",
        CoreKind::Boom => "boom",
        CoreKind::Cva6 => "cva6",
    }
}

/// Parses a core's spec-file name.
///
/// # Errors
/// Names the unknown core (these become HTTP 400 bodies).
pub fn parse_core(name: &str) -> Result<CoreKind, String> {
    match name {
        "rocket" => Ok(CoreKind::Rocket),
        "boom" => Ok(CoreKind::Boom),
        "cva6" => Ok(CoreKind::Cva6),
        other => Err(format!("unknown core {other:?}")),
    }
}

/// One fleet member as data: everything a worker (in-process or remote)
/// needs to reconstruct the member identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemberSpec {
    /// The fuzzing strategy.
    pub fuzzer: FuzzerKind,
    /// The fuzzer's RNG seed.
    pub seed: u64,
    /// The core this member fuzzes.
    pub core: CoreKind,
}

impl MemberSpec {
    /// A member spec.
    #[must_use]
    pub fn new(fuzzer: FuzzerKind, seed: u64, core: CoreKind) -> MemberSpec {
        MemberSpec { fuzzer, seed, core }
    }

    /// The member's display name (`difuzz-5`), shared by every entry
    /// point so checkpoints from any of them line up.
    #[must_use]
    pub fn display_name(&self) -> String {
        format!("{}-{}", self.fuzzer.as_str(), self.seed)
    }

    /// Builds the in-process [`FleetMember`] this spec describes.
    #[must_use]
    pub fn build_member(&self) -> FleetMember {
        FleetMember::new(self.display_name(), self.core, self.fuzzer.build(self.seed))
    }

    /// Parses a `fuzzer:seed,…` member list (`difuzz:5,cascade:9`), every
    /// member on `core`.
    ///
    /// # Errors
    /// Names the entry that is not `fuzzer:seed`, the seed that is not a
    /// number, or the unknown fuzzer.
    pub fn parse_list(list: &str, core: CoreKind) -> Result<Vec<MemberSpec>, String> {
        list.split(',')
            .map(|pair| {
                let (name, seed) = pair
                    .split_once(':')
                    .ok_or_else(|| format!("member {pair:?} is not fuzzer:seed"))?;
                let seed = seed
                    .parse()
                    .map_err(|_| format!("member seed {seed:?} is not a number"))?;
                Ok(MemberSpec::new(FuzzerKind::parse(name)?, seed, core))
            })
            .collect()
    }
}

/// Spec fields for a single-fuzzer campaign run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignRequest {
    /// The fuzzing strategy.
    pub fuzzer: FuzzerKind,
    /// The fuzzer's RNG seed.
    pub seed: u64,
    /// The core to fuzz.
    pub core: CoreKind,
    /// Total case budget.
    pub cases: u64,
    /// Coverage-curve sampling stride (cases).
    pub sample_every: u64,
    /// Shared execution knobs (threads never affect outputs).
    pub run: RunConfig,
    /// Snapshot every this many rounds.
    pub checkpoint_every: u64,
}

impl CampaignRequest {
    /// The campaign's budget and execution knobs.
    #[must_use]
    pub fn config(&self) -> CampaignConfig {
        CampaignConfig {
            cases: self.cases,
            sample_every: self.sample_every,
            run: self.run,
        }
    }
}

/// Spec fields for a fleet run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetRequest {
    /// The member line-up (the flat-JSON encoding shares one core
    /// across members; the type itself allows heterogeneous cores).
    pub members: Vec<MemberSpec>,
    /// Number of epochs.
    pub epochs: u64,
    /// Fleet-wide case budget per epoch.
    pub cases_per_epoch: u64,
    /// Shared execution knobs.
    pub run: RunConfig,
    /// Snapshot every this many epochs.
    pub checkpoint_every: u64,
}

impl FleetRequest {
    /// The fleet's budget and execution knobs.
    #[must_use]
    pub fn config(&self) -> FleetConfig {
        FleetConfig {
            epochs: self.epochs,
            cases_per_epoch: self.cases_per_epoch,
            run: self.run,
        }
    }
}

/// The one versioned description of a run, whatever transport it
/// arrived on (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub enum RunRequest {
    /// A single-fuzzer campaign (`crate::campaign::run_campaign`).
    Campaign(CampaignRequest),
    /// A multi-member fleet (`crate::fleet::run_fleet` or the
    /// distributed `crate::fleet_dist::run_fleet_dist`).
    Fleet(FleetRequest),
}

impl RunRequest {
    /// `"campaign"` or `"fleet"`.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            RunRequest::Campaign(_) => "campaign",
            RunRequest::Fleet(_) => "fleet",
        }
    }

    /// The single validation path: every transport funnels through
    /// here, and the runners' spec builders enforce the same rules, so
    /// accept-here implies accept-there.
    ///
    /// # Errors
    /// The first violated rule, as the same typed [`SpecError`] the
    /// builders return.
    pub fn validate(&self) -> Result<(), SpecError> {
        match self {
            RunRequest::Campaign(job) => {
                job.config().validate()?;
                if job.checkpoint_every == 0 {
                    return Err(SpecError::ZeroCheckpointInterval);
                }
            }
            RunRequest::Fleet(job) => {
                if job.members.is_empty() {
                    return Err(SpecError::EmptyMembers);
                }
                job.config().validate()?;
                if job.checkpoint_every == 0 {
                    return Err(SpecError::ZeroCheckpointInterval);
                }
            }
        }
        Ok(())
    }

    /// Serialises the request as one flat JSON object (the `job_spec`
    /// dialect; fleet members as `"difuzz:5,cascade:9"`).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut w = ObjectWriter::with_type("job_spec");
        w.str("kind", self.kind());
        match self {
            RunRequest::Campaign(job) => {
                w.str("fuzzer", job.fuzzer.as_str());
                w.num("seed", job.seed);
                w.str("core", core_name(job.core));
                w.num("cases", job.cases);
                w.num("sample_every", job.sample_every);
                w.num("max_steps", job.run.max_steps);
                w.num("batch", job.run.batch as u64);
                w.num("threads", job.run.threads as u64);
                w.num("checkpoint_every", job.checkpoint_every);
            }
            RunRequest::Fleet(job) => {
                let members: Vec<String> = job
                    .members
                    .iter()
                    .map(|m| format!("{}:{}", m.fuzzer.as_str(), m.seed))
                    .collect();
                w.str("members", &members.join(","));
                let core = job.members.first().map_or(CoreKind::Rocket, |m| m.core);
                w.str("core", core_name(core));
                w.num("epochs", job.epochs);
                w.num("cases_per_epoch", job.cases_per_epoch);
                w.num("max_steps", job.run.max_steps);
                w.num("batch", job.run.batch as u64);
                w.num("threads", job.run.threads as u64);
                w.num("checkpoint_every", job.checkpoint_every);
            }
        }
        w.finish()
    }

    /// Parses a request document and runs it through
    /// [`RunRequest::validate`]. Every error message names the
    /// offending field or rule — these become HTTP 400 bodies.
    ///
    /// # Errors
    /// A message naming the problem.
    pub fn from_json(line: &str) -> Result<RunRequest, String> {
        let fields = Fields::parse(line).ok_or("body is not a flat JSON object")?;
        if fields.str("type") != Some("job_spec") {
            return Err(String::from("\"type\" must be \"job_spec\""));
        }
        let core = parse_core(fields.str("core").unwrap_or("rocket"))?;
        let run = RunConfig::quick()
            .with_max_steps(fields.u64("max_steps").unwrap_or(3_000))
            .with_batch(fields.usize("batch").unwrap_or(1))
            .with_threads(fields.usize("threads").unwrap_or(1));
        let checkpoint_every = fields.u64("checkpoint_every").unwrap_or(1).max(1);
        let request = match fields.str("kind") {
            Some("campaign") => {
                let fuzzer = FuzzerKind::parse(
                    fields
                        .str("fuzzer")
                        .ok_or("campaign spec needs \"fuzzer\"")?,
                )?;
                let cases = fields.u64("cases").ok_or("campaign spec needs \"cases\"")?;
                RunRequest::Campaign(CampaignRequest {
                    fuzzer,
                    seed: fields.u64("seed").unwrap_or(1),
                    core,
                    cases,
                    sample_every: fields.u64("sample_every").unwrap_or(cases).max(1),
                    run,
                    checkpoint_every,
                })
            }
            Some("fleet") => {
                let members = MemberSpec::parse_list(
                    fields
                        .str("members")
                        .ok_or("fleet spec needs \"members\"")?,
                    core,
                )?;
                let epochs = fields.u64("epochs").ok_or("fleet spec needs \"epochs\"")?;
                let cases_per_epoch = fields
                    .u64("cases_per_epoch")
                    .ok_or("fleet spec needs \"cases_per_epoch\"")?;
                RunRequest::Fleet(FleetRequest {
                    members,
                    epochs,
                    cases_per_epoch,
                    run,
                    checkpoint_every,
                })
            }
            Some(other) => return Err(format!("unknown job kind {other:?}")),
            None => return Err(String::from("spec needs \"kind\"")),
        };
        request.validate().map_err(|e| e.to_string())?;
        Ok(request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_through_json() {
        let campaign = RunRequest::Campaign(CampaignRequest {
            fuzzer: FuzzerKind::Difuzz,
            seed: 7,
            core: CoreKind::Rocket,
            cases: 40,
            sample_every: 10,
            run: RunConfig::quick().with_batch(4).with_threads(2),
            checkpoint_every: 2,
        });
        let fleet = RunRequest::Fleet(FleetRequest {
            members: vec![
                MemberSpec::new(FuzzerKind::Difuzz, 5, CoreKind::Boom),
                MemberSpec::new(FuzzerKind::Cascade, 9, CoreKind::Boom),
            ],
            epochs: 3,
            cases_per_epoch: 24,
            run: RunConfig::quick(),
            checkpoint_every: 1,
        });
        for request in [campaign, fleet] {
            let line = request.to_json();
            assert_eq!(RunRequest::from_json(&line), Ok(request), "{line}");
        }
    }

    #[test]
    fn invalid_requests_name_the_problem() {
        for (body, needle) in [
            ("nonsense", "flat JSON"),
            (r#"{"type":"other"}"#, "job_spec"),
            (r#"{"type":"job_spec"}"#, "kind"),
            (r#"{"type":"job_spec","kind":"campaign"}"#, "fuzzer"),
            (
                r#"{"type":"job_spec","kind":"campaign","fuzzer":"nope","cases":5}"#,
                "unknown fuzzer",
            ),
            (
                r#"{"type":"job_spec","kind":"campaign","fuzzer":"difuzz"}"#,
                "cases",
            ),
            (
                r#"{"type":"job_spec","kind":"campaign","fuzzer":"difuzz","cases":0}"#,
                "nonzero",
            ),
            (
                r#"{"type":"job_spec","kind":"campaign","fuzzer":"difuzz","cases":5,"threads":1000000}"#,
                "threads must be at most 64",
            ),
            (
                r#"{"type":"job_spec","kind":"campaign","fuzzer":"difuzz","cases":5,"core":"z80"}"#,
                "unknown core",
            ),
            (r#"{"type":"job_spec","kind":"fleet"}"#, "members"),
            (
                r#"{"type":"job_spec","kind":"fleet","members":"difuzz"}"#,
                "fuzzer:seed",
            ),
            (
                r#"{"type":"job_spec","kind":"fleet","members":"difuzz:x"}"#,
                "not a number",
            ),
            (
                r#"{"type":"job_spec","kind":"fleet","members":"difuzz:1,nope:2"}"#,
                "unknown fuzzer",
            ),
            (
                r#"{"type":"job_spec","kind":"fleet","members":"difuzz:1","epochs":0,"cases_per_epoch":4}"#,
                "epoch count must be nonzero",
            ),
            (r#"{"type":"job_spec","kind":"warp"}"#, "unknown job kind"),
        ] {
            let err = RunRequest::from_json(body).expect_err(body);
            assert!(err.contains(needle), "{body}: {err}");
        }
    }

    #[test]
    fn validate_is_the_single_path_for_every_zero_field() {
        let good = RunRequest::Campaign(CampaignRequest {
            fuzzer: FuzzerKind::Hfl,
            seed: 1,
            core: CoreKind::Rocket,
            cases: 10,
            sample_every: 5,
            run: RunConfig::quick(),
            checkpoint_every: 1,
        });
        assert_eq!(good.validate(), Ok(()));
        let mutate = |f: &mut CampaignRequest| f.cases = 0;
        let mut bad = good.clone();
        if let RunRequest::Campaign(job) = &mut bad {
            mutate(job);
        }
        assert_eq!(bad.validate(), Err(SpecError::ZeroCases));
        // Oversized too: validating a request starts no thread.
        let mut oversized = good.clone();
        if let RunRequest::Campaign(job) = &mut oversized {
            job.run = job.run.with_threads(crate::exec::MAX_THREADS + 1);
        }
        assert_eq!(oversized.validate(), Err(SpecError::TooManyThreads));

        let fleet = RunRequest::Fleet(FleetRequest {
            members: vec![],
            epochs: 1,
            cases_per_epoch: 4,
            run: RunConfig::quick(),
            checkpoint_every: 1,
        });
        assert_eq!(fleet.validate(), Err(SpecError::EmptyMembers));
        let oversized = RunRequest::Fleet(FleetRequest {
            members: vec![MemberSpec::new(FuzzerKind::Difuzz, 1, CoreKind::Rocket)],
            epochs: 1,
            cases_per_epoch: 4,
            run: RunConfig::quick().with_threads(1_000_000),
            checkpoint_every: 1,
        });
        assert_eq!(oversized.validate(), Err(SpecError::TooManyThreads));
    }

    #[test]
    fn fuzzer_kinds_build_their_canonical_fuzzers() {
        for kind in FuzzerKind::ALL {
            assert_eq!(FuzzerKind::parse(kind.as_str()), Ok(kind));
            assert_eq!(kind.build(3).name(), kind.fuzzer_name());
        }
        for core in CoreKind::ALL {
            assert_eq!(parse_core(core_name(core)), Ok(core));
        }
    }
}
