//! The crash-safety contract, end to end: a campaign interrupted at an
//! arbitrary round boundary and resumed from its snapshot must replay the
//! uninterrupted run bit for bit — merged non-timing event stream and
//! final coverage curve — at any thread count, for the baselines and for
//! HFL (whose snapshot carries LSTM weights, Adam moments and RNG
//! streams). Also covers crash-mid-write leftovers and fault containment
//! interacting with resume.

use std::io::{Read, Write};
use std::path::PathBuf;
use std::sync::Arc;

use hfl::baselines::{DifuzzRtlFuzzer, Feedback, Fuzzer, TestBody};
use hfl::campaign::{run_campaign, CampaignConfig, CampaignResult, CampaignSpec, CheckpointPolicy};
use hfl::exec::{FaultKind, FaultPlan, FaultPolicy, Lane};
use hfl::fuzzer::{HflConfig, HflFuzzer};
use hfl::obs::{Event, RingSink, SinkHandle};
use hfl::StopHandle;
use hfl_dut::CoreKind;
use hfl_nn::PersistError;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hfl-crash-resume-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn non_timing(events: &[Event]) -> Vec<Event> {
    events.iter().filter(|e| !e.is_timing()).cloned().collect()
}

/// Delegates to an inner fuzzer and raises the campaign's stop flag after
/// a fixed number of generation rounds — a deterministic stand-in for an
/// operator (or the CI kill job) interrupting the run.
struct StopAfterRounds<F> {
    inner: F,
    rounds_left: u32,
    stop: StopHandle,
}

impl<F: Fuzzer> StopAfterRounds<F> {
    fn new(inner: F, rounds: u32, stop: StopHandle) -> StopAfterRounds<F> {
        StopAfterRounds {
            inner,
            rounds_left: rounds,
            stop,
        }
    }
}

impl<F: Fuzzer> Fuzzer for StopAfterRounds<F> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn next_case(&mut self) -> TestBody {
        self.inner.next_case()
    }
    fn next_round(&mut self, n: usize) -> Vec<TestBody> {
        if self.rounds_left > 0 {
            self.rounds_left -= 1;
            if self.rounds_left == 0 {
                self.stop.request_stop();
            }
        }
        self.inner.next_round(n)
    }
    fn feedback(&mut self, body: &TestBody, feedback: Feedback) {
        self.inner.feedback(body, feedback);
    }
    fn attach_sink(&mut self, sink: SinkHandle) {
        self.inner.attach_sink(sink);
    }
    fn attach_lane(&mut self, lane: Lane) {
        self.inner.attach_lane(lane);
    }
    fn save_state(&self, w: &mut dyn Write) -> Result<(), PersistError> {
        self.inner.save_state(w)
    }
    fn load_state(&mut self, r: &mut dyn Read) -> Result<(), PersistError> {
        self.inner.load_state(r)
    }
}

struct Observed {
    result: CampaignResult,
    events: Vec<Event>,
}

fn run_observed(
    fuzzer: &mut dyn Fuzzer,
    configure: impl FnOnce(hfl::campaign::CampaignSpecBuilder) -> hfl::campaign::CampaignSpecBuilder,
    config: CampaignConfig,
    threads: usize,
) -> Observed {
    let ring = Arc::new(RingSink::new(1_000_000));
    let builder = CampaignSpec::builder(CoreKind::Rocket, config)
        .threads(threads)
        .sink(SinkHandle::new(ring.clone()));
    let spec = configure(builder).build().expect("valid spec");
    let result = run_campaign(fuzzer, &spec).expect("campaign runs");
    Observed {
        result,
        events: ring.events(),
    }
}

/// Interrupts after `stop_rounds` rounds, resumes from the snapshot, and
/// checks the merged non-timing stream and every result field under the
/// determinism contract against an uninterrupted reference.
fn check_resume_matches<F: Fuzzer + 'static>(
    tag: &str,
    make_fuzzer: impl Fn() -> F,
    config: CampaignConfig,
    threads: usize,
    stop_rounds: u32,
    plan: Option<fn() -> FaultPlan>,
) {
    let dir = scratch_dir(tag);
    let with_plan = |builder: hfl::campaign::CampaignSpecBuilder| match plan {
        Some(make) => builder.fault_plan(make()).fault_policy(FaultPolicy {
            max_retries: 1,
            fuel: None,
        }),
        None => builder,
    };

    let mut reference_fuzzer = make_fuzzer();
    let reference = run_observed(&mut reference_fuzzer, with_plan, config, threads);
    assert!(reference.result.completed);

    let stop = StopHandle::new();
    let mut interrupted_fuzzer = StopAfterRounds::new(make_fuzzer(), stop_rounds, stop.clone());
    let partial = run_observed(
        &mut interrupted_fuzzer,
        |builder| {
            with_plan(
                builder
                    .checkpoint(CheckpointPolicy::new(&dir, 1))
                    .control(stop),
            )
        },
        config,
        threads,
    );
    assert!(!partial.result.completed, "{tag}: stop flag did not fire");

    let snapshot = CheckpointPolicy::latest_snapshot(&dir).expect("snapshot written");
    let mut resumed_fuzzer = make_fuzzer();
    let resumed = run_observed(
        &mut resumed_fuzzer,
        |builder| with_plan(builder.resume_from(snapshot)),
        config,
        threads,
    );
    assert!(resumed.result.completed);

    let mut merged = non_timing(&partial.events);
    merged.extend(non_timing(&resumed.events));
    assert_eq!(
        non_timing(&reference.events),
        merged,
        "{tag}: merged event stream diverged at {threads} threads"
    );
    assert_eq!(reference.result.curve, resumed.result.curve, "{tag}: curve");
    assert_eq!(reference.result.signatures, resumed.result.signatures);
    assert_eq!(
        reference.result.first_detection,
        resumed.result.first_detection
    );
    assert_eq!(reference.result.cumulative, resumed.result.cumulative);
    assert_eq!(
        reference.result.instructions_executed,
        resumed.result.instructions_executed
    );
    assert_eq!(
        reference.result.trigger_corpus,
        resumed.result.trigger_corpus
    );
    assert_eq!(reference.result.aborted_cases, resumed.result.aborted_cases);
    assert_eq!(reference.result.quarantined, resumed.result.quarantined);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn baseline_resume_is_bit_identical_at_any_thread_count() {
    let config = CampaignConfig::quick(40).with_batch(4);
    for threads in [1usize, 2, 8] {
        check_resume_matches(
            &format!("difuzz-t{threads}"),
            || DifuzzRtlFuzzer::new(17, 12),
            config,
            threads,
            3,
            None,
        );
    }
}

#[test]
fn hfl_resume_restores_models_optimizer_and_rng() {
    // HFL's snapshot must carry everything the learner touches: generator
    // and predictor LSTMs, Adam moments, episode buffers and RNG streams.
    // Any drift shows up as diverging PpoUpdate/PredictorEval events or a
    // different post-resume curve.
    let tiny = || {
        let mut cfg = HflConfig::small().with_seed(13);
        cfg.generator.hidden = 16;
        cfg.predictor.hidden = 16;
        cfg.test_len = 6;
        HflFuzzer::new(cfg)
    };
    let config = CampaignConfig::quick(40).with_batch(4);
    for threads in [1usize, 2, 8] {
        check_resume_matches(&format!("hfl-t{threads}"), tiny, config, threads, 4, None);
    }
}

#[test]
fn resume_replays_planned_faults_identically() {
    // The fault plan keys on the pool-lifetime global case index, which a
    // resume continues (restored pool counters): a fault planned beyond
    // the interruption point fires in the resumed process exactly where
    // the uninterrupted reference saw it.
    let config = CampaignConfig::quick(40).with_batch(4);
    check_resume_matches(
        "faulted",
        || DifuzzRtlFuzzer::new(19, 12),
        config,
        2,
        3,
        Some(|| {
            FaultPlan::new()
                .fail_at(5, FaultKind::Panic)
                .fail_at_persistent(23, FaultKind::Hang)
        }),
    );
}

#[test]
fn stray_temp_file_from_a_crash_mid_write_is_ignored() {
    let dir = scratch_dir("stray-tmp");
    let config = CampaignConfig::quick(24).with_batch(4);
    let stop = StopHandle::new();
    let mut fuzzer = StopAfterRounds::new(DifuzzRtlFuzzer::new(29, 12), 2, stop.clone());
    run_campaign(
        &mut fuzzer,
        &CampaignSpec::builder(CoreKind::Rocket, config)
            .checkpoint(CheckpointPolicy::new(&dir, 1))
            .control(stop)
            .build()
            .expect("valid spec"),
    )
    .expect("interrupted campaign runs");

    // A crash during a later checkpoint write leaves a half-written temp
    // file next to the (still intact) previous snapshot.
    std::fs::write(dir.join("campaign.ckpt.tmp"), b"half-written garbage").expect("write tmp");
    let snapshot = CheckpointPolicy::latest_snapshot(&dir).expect("snapshot still found");
    assert!(
        !snapshot.to_string_lossy().ends_with(".tmp"),
        "resume picked up the torn temp file"
    );

    let mut resumed = DifuzzRtlFuzzer::new(29, 12);
    let result = run_campaign(
        &mut resumed,
        &CampaignSpec::builder(CoreKind::Rocket, config)
            .resume_from(snapshot)
            .build()
            .expect("valid spec"),
    )
    .expect("resume runs");
    assert!(result.completed);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_snapshots_are_rejected_not_trusted() {
    let dir = scratch_dir("corrupt");
    let config = CampaignConfig::quick(16).with_batch(4);
    let mut fuzzer = DifuzzRtlFuzzer::new(31, 12);
    run_campaign(
        &mut fuzzer,
        &CampaignSpec::builder(CoreKind::Rocket, config)
            .checkpoint(CheckpointPolicy::new(&dir, 1))
            .build()
            .expect("valid spec"),
    )
    .expect("campaign runs");
    let snapshot = CheckpointPolicy::latest_snapshot(&dir).expect("snapshot written");

    // Flip one byte in the middle of the file: a section checksum (or the
    // global trailer) must catch it.
    let mut bytes = std::fs::read(&snapshot).expect("read snapshot");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&snapshot, &bytes).expect("rewrite snapshot");

    let mut resumed = DifuzzRtlFuzzer::new(31, 12);
    let err = run_campaign(
        &mut resumed,
        &CampaignSpec::builder(CoreKind::Rocket, config)
            .resume_from(&snapshot)
            .build()
            .expect("valid spec"),
    )
    .expect_err("corrupt snapshot must be rejected");
    let msg = err.to_string();
    assert!(
        msg.contains("checksum") || msg.contains("corrupt") || msg.contains("truncated"),
        "unexpected error: {msg}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sticky_faults_leave_a_poc_and_a_quarantine_file() {
    let dir = scratch_dir("quarantine");
    let config = CampaignConfig::quick(20).with_batch(4);
    let mut fuzzer = DifuzzRtlFuzzer::new(37, 12);
    let result = run_campaign(
        &mut fuzzer,
        &CampaignSpec::builder(CoreKind::Rocket, config)
            .checkpoint(CheckpointPolicy::new(&dir, 1))
            .fault_plan(FaultPlan::new().fail_at_persistent(7, FaultKind::Panic))
            .fault_policy(FaultPolicy {
                max_retries: 2,
                fuel: None,
            })
            .build()
            .expect("valid spec"),
    )
    .expect("campaign runs");
    assert!(
        result.completed,
        "a poisoned case must not end the campaign"
    );
    assert_eq!(result.aborted_cases, 1);
    assert_eq!(result.quarantined.entries().len(), 1);
    assert_eq!(result.quarantined.entries()[0].name, "case-7");

    // The PoC rides along on disk next to the snapshot, as replayable text.
    let text = std::fs::read_to_string(dir.join("quarantine.corpus")).expect("quarantine file");
    let reloaded = hfl::Corpus::from_text(&text).expect("quarantine parses");
    assert_eq!(reloaded, result.quarantined);
    let _ = std::fs::remove_dir_all(&dir);
}
