//! **HFL — Hardware Fuzzing Loop with Reinforcement Learning** (paper
//! reproduction).
//!
//! This crate implements the paper's contribution on top of the substrate
//! crates:
//!
//! - [`generator`]: the multi-head LSTM instruction generator (§IV-A,
//!   §V-A) — seven heads (opcode, four registers, immediate, address)
//!   over a shared two-layer LSTM,
//! - [`correction`]: the instruction-correction module producing valid
//!   instructions and the per-head *instruction mask* (§IV-B),
//! - [`predictor`]: the LSTM critic `V(S)` (Eqs. 2–3) and the §IV-C
//!   hardware-coverage predictor (one sigmoid per coverage point),
//! - [`fuzzer`]: the hardware fuzzing loop itself — incremental test
//!   construction, reward assignment (Eq. 1), PPO updates (Eq. 4), the
//!   instruction mask and the reset module,
//! - [`difftest`]: differential testing against the golden model with the
//!   §V-B register-independent signature extraction,
//! - [`baselines`]: DifuzzRTL/TheHuzz/Cascade/ChatFuzz analogues for the
//!   §VI comparisons,
//! - [`scenario`]: the hierarchical scenario policy — a UCB bandit over
//!   semantic fuzzing scenarios steering the generator through
//!   per-scenario opcode-logit biases refined online,
//! - [`campaign`]: the shared measurement harness behind every figure,
//! - [`exec`]: the batched parallel execution pool — cloned `(DUT, GRM)`
//!   workers with order-preserving result merging, so thread count never
//!   changes a campaign's outputs,
//! - [`corpus`]/[`triage`]/[`persist`]: trigger-case capture, test-case
//!   minimisation and model checkpoints — the operational tooling around
//!   a fuzzing campaign,
//! - [`obs`]: the observability layer — typed campaign events behind an
//!   [`obs::EventSink`] (JSONL file / in-memory ring), and the per-phase
//!   [`obs::Metrics`] registry snapshotted onto every `CampaignResult`,
//! - [`fleet`]: the multi-campaign orchestrator — epoch-based ensemble
//!   runs with a shared deduplicated corpus, deterministic per-core
//!   coverage merging and marginal-rate budget scheduling,
//! - [`spec`]: the one job-description surface — the versioned
//!   [`spec::RunRequest`] with a single validation path shared by
//!   `hfl-serve`, the bench bins and the distributed fleet,
//! - [`wire`]/[`fleet_dist`]: the distributed fleet — a versioned,
//!   checksummed frame protocol ([`wire::PROTOCOL_VERSION`]) and the
//!   coordinator/worker runtime that runs fleet members as separate
//!   processes with heartbeats, crash containment and asynchronous
//!   quorum/deadline epochs.
//!
//! # Examples
//!
//! Run a miniature fuzzing campaign end to end:
//!
//! ```
//! use hfl::campaign::{run_campaign, CampaignConfig, CampaignSpec};
//! use hfl::fuzzer::{HflConfig, HflFuzzer};
//! use hfl_dut::CoreKind;
//!
//! let mut cfg = HflConfig::small();
//! cfg.generator.hidden = 16;
//! cfg.predictor.hidden = 16;
//! let mut hfl = HflFuzzer::new(cfg);
//! let spec = CampaignSpec::builder(CoreKind::Rocket, CampaignConfig::quick(10))
//!     .build()
//!     .expect("valid spec");
//! let result = run_campaign(&mut hfl, &spec).expect("campaign runs");
//! assert!(result.final_counts().0 > 0);
//! ```

pub mod baselines;
pub mod campaign;
pub mod control;
pub mod corpus;
pub mod correction;
pub mod difftest;
pub mod encoder;
pub mod exec;
pub mod fleet;
pub mod fleet_dist;
pub mod fuzzer;
pub mod generator;
pub mod harness;
pub mod json;
pub mod obs;
pub mod persist;
pub mod poc;
pub mod predecode;
pub mod predictor;
pub mod scenario;
pub mod spec;
pub mod tokens;
pub mod triage;
pub mod wire;

pub use baselines::{ComposeError, Feedback, Fuzzer, TestBody};
pub use campaign::{
    run_campaign, CampaignConfig, CampaignResult, CampaignSpec, CampaignSpecBuilder,
    CheckpointPolicy, CoverageSample, HarvestedCase, RunConfig, RunError, SpecError,
};
pub use control::StopHandle;
pub use corpus::{coverage_signature, Corpus, GlobalCorpus, GlobalCorpusStats, GlobalEntry};
pub use difftest::{Mismatch, MismatchKind, Signature, SignatureSet};
pub use exec::{
    BatchStats, CaseOutcome, CoverageBatch, ExecPool, FaultKind, FaultPlan, FaultPolicy,
    Throughput, MAX_THREADS,
};
pub use fleet::{
    run_fleet, FleetConfig, FleetMember, FleetResult, FleetSample, FleetSpec, FleetSpecBuilder,
    MemberResult,
};
pub use fleet_dist::{
    run_fleet_dist, run_worker, DistConfig, ProcessLauncher, ThreadLauncher, WorkerFault,
    WorkerLauncher,
};
pub use fuzzer::{HflConfig, HflFuzzer, HflStats};
pub use generator::{GeneratorConfig, InstructionGenerator};
pub use harness::{CaseResult, CaseTiming, Executor, ExecutorBuilder};
pub use obs::{
    Event, EventSink, JsonlSink, Metrics, MetricsSnapshot, NullSink, RingSink, SinkHandle,
};
pub use predecode::PreparedCase;
pub use predictor::{CoveragePredictor, PredictorConfig, ValuePredictor};
pub use scenario::{Scenario, ScenarioConfig, ScenarioFuzzer};
pub use spec::{
    core_name, parse_core, CampaignRequest, FleetRequest, FuzzerKind, MemberSpec, RunRequest,
};
pub use tokens::Tokens;
pub use triage::{minimize, minimize_with_sink, Minimized};
pub use wire::{Frame, Payload, WireError, PROTOCOL_VERSION};
