//! The distributed fleet's determinism contract, end to end: a fleet of
//! worker processes (here: worker threads over real TCP, same protocol)
//! must produce the same non-timing event stream, merged coverage curve
//! and per-member results as the in-process [`run_fleet`] on the same
//! spec — including across a killed-and-respawned worker, and across
//! checkpoints written on one side of the process split and resumed on
//! the other. Slow workers must not stall epoch close once a deadline
//! and quorum are configured.

use std::io::{Read, Write};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hfl::baselines::{DifuzzRtlFuzzer, Feedback, Fuzzer, TestBody};
use hfl::campaign::CheckpointPolicy;
use hfl::fleet::{run_fleet, FleetConfig, FleetMember, FleetResult, FleetSpec};
use hfl::fleet_dist::{run_fleet_dist, DistConfig, ThreadLauncher, WorkerFault};
use hfl::obs::{Event, RingSink, SinkHandle};
use hfl::spec::{FuzzerKind, MemberSpec};
use hfl::StopHandle;
use hfl_dut::CoreKind;
use hfl_nn::PersistError;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hfl-fleet-dist-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Three cheap, deterministic members with distinct strategies — the
/// same line-up `tests/fleet.rs` uses, expressed as specs so both the
/// in-process and the distributed fleet build identical fuzzers.
fn member_specs() -> Vec<MemberSpec> {
    vec![
        MemberSpec::new(FuzzerKind::Difuzz, 7, CoreKind::Rocket),
        MemberSpec::new(FuzzerKind::TheHuzz, 9, CoreKind::Rocket),
        MemberSpec::new(FuzzerKind::Cascade, 1, CoreKind::Rocket),
    ]
}

fn make_members(specs: &[MemberSpec]) -> Vec<FleetMember> {
    specs.iter().map(MemberSpec::build_member).collect()
}

struct Observed {
    result: FleetResult,
    events: Vec<Event>,
}

fn run_in_process(
    specs: &[MemberSpec],
    configure: impl FnOnce(hfl::fleet::FleetSpecBuilder) -> hfl::fleet::FleetSpecBuilder,
    config: FleetConfig,
) -> Observed {
    let ring = Arc::new(RingSink::new(1_000_000));
    let builder = FleetSpec::builder(config).sink(SinkHandle::new(ring.clone()));
    let spec = configure(builder).build().expect("valid spec");
    let mut members = make_members(specs);
    let result = run_fleet(&mut members, &spec).expect("fleet runs");
    Observed {
        result,
        events: ring.events(),
    }
}

fn run_distributed(
    specs: &[MemberSpec],
    configure: impl FnOnce(hfl::fleet::FleetSpecBuilder) -> hfl::fleet::FleetSpecBuilder,
    config: FleetConfig,
    dist: &DistConfig,
    mut launcher: ThreadLauncher,
) -> Observed {
    let ring = Arc::new(RingSink::new(1_000_000));
    let builder = FleetSpec::builder(config).sink(SinkHandle::new(ring.clone()));
    let spec = configure(builder).build().expect("valid spec");
    let result = run_fleet_dist(specs, &spec, dist, &mut launcher).expect("distributed fleet runs");
    Observed {
        result,
        events: ring.events(),
    }
}

fn assert_results_match(tag: &str, a: &FleetResult, b: &FleetResult) {
    assert_eq!(a.merged_curve, b.merged_curve, "{tag}: merged curve");
    assert_eq!(a.budgets, b.budgets, "{tag}: budget vector");
    assert_eq!(a.corpus.entries(), b.corpus.entries(), "{tag}: corpus");
    assert_eq!(a.corpus.stats(), b.corpus.stats(), "{tag}: corpus stats");
    assert_eq!(a.members.len(), b.members.len(), "{tag}: member count");
    for (ma, mb) in a.members.iter().zip(&b.members) {
        assert_eq!(ma.name, mb.name, "{tag}");
        assert_eq!(ma.fuzzer, mb.fuzzer, "{tag}: {} fuzzer", ma.name);
        assert_eq!(ma.cases, mb.cases, "{tag}: {} cases", ma.name);
        assert_eq!(ma.curve, mb.curve, "{tag}: {} curve", ma.name);
        assert_eq!(ma.cumulative, mb.cumulative, "{tag}: {} coverage", ma.name);
        assert_eq!(ma.signatures, mb.signatures, "{tag}: {} sigs", ma.name);
        assert_eq!(
            ma.first_detection, mb.first_detection,
            "{tag}: {} detections",
            ma.name
        );
        assert_eq!(
            ma.instructions_executed, mb.instructions_executed,
            "{tag}: {} retired",
            ma.name
        );
        assert_eq!(
            ma.aborted_cases, mb.aborted_cases,
            "{tag}: {} aborts",
            ma.name
        );
    }
    // The coordinator's accounting: counters and how often each
    // wall-clock phase was observed (the seconds themselves vary).
    for name in ["fleet.epochs", "fleet.cases"] {
        assert_eq!(
            a.metrics.counter(name),
            b.metrics.counter(name),
            "{tag}: {name}"
        );
    }
    for name in [
        "fleet.sync.seconds",
        "fleet.distill.seconds",
        "fleet.schedule.seconds",
    ] {
        let count = |r: &FleetResult| r.metrics.histogram(name).map(|h| h.count);
        assert_eq!(count(a), count(b), "{tag}: {name} observations");
    }
}

#[test]
fn distributed_fleet_is_bit_identical_to_in_process() {
    let config = FleetConfig::quick(3, 18).with_batch(2);
    let specs = member_specs();
    let reference = run_in_process(&specs, |b| b, config);
    assert!(reference.result.completed);
    assert!(reference.events.iter().all(|e| !e.is_timing()));
    assert!(!reference.events.is_empty());

    let dist = run_distributed(
        &specs,
        |b| b,
        config,
        &DistConfig::default(),
        ThreadLauncher::new(),
    );
    assert!(dist.result.completed);
    assert_eq!(
        reference.events, dist.events,
        "event stream diverged across the process split"
    );
    assert_results_match("distributed", &reference.result, &dist.result);
}

#[test]
fn a_killed_worker_respawns_and_the_stream_does_not_change() {
    let config = FleetConfig::quick(3, 18).with_batch(2);
    let specs = member_specs();
    let reference = run_in_process(&specs, |b| b, config);

    // Worker 1 drops its connection the instant epoch 1's grant arrives
    // — the coordinator-side equivalent of a SIGKILL mid-epoch. The
    // respawned worker replays the grant from the authoritative state
    // blobs, so nothing observable may change.
    let launcher = ThreadLauncher::new().with_fault(
        1,
        WorkerFault {
            die_at_epoch: Some(1),
            ..WorkerFault::default()
        },
    );
    let dist = run_distributed(&specs, |b| b, config, &DistConfig::default(), launcher);
    assert!(dist.result.completed);
    assert_eq!(
        reference.events, dist.events,
        "event stream diverged after a worker was killed and respawned"
    );
    assert_results_match("respawn", &reference.result, &dist.result);
}

#[test]
fn total_worker_loss_still_snapshots_the_last_epoch_close() {
    let dir = scratch_dir("loss");
    let config = FleetConfig::quick(3, 12).with_batch(2);
    let specs = vec![MemberSpec::new(FuzzerKind::Difuzz, 7, CoreKind::Rocket)];
    let reference = run_distributed(
        &specs,
        |b| b,
        config,
        &DistConfig::default(),
        ThreadLauncher::new(),
    );
    assert!(reference.result.completed);

    // The only worker vanishes on epoch 1's grant and may not respawn:
    // the fleet fails, but only after snapshotting its epoch-1 state
    // (the periodic cadence never fires in a 3-epoch run).
    let ring = Arc::new(RingSink::new(1_000_000));
    let spec = FleetSpec::builder(config)
        .sink(SinkHandle::new(ring.clone()))
        .checkpoint(CheckpointPolicy::new(&dir, 100))
        .build()
        .expect("valid spec");
    let dist = DistConfig {
        max_respawns: 0,
        ..DistConfig::default()
    };
    let mut launcher = ThreadLauncher::new().with_fault(
        0,
        WorkerFault {
            die_at_epoch: Some(1),
            ..WorkerFault::default()
        },
    );
    run_fleet_dist(&specs, &spec, &dist, &mut launcher).expect_err("every worker died");
    let mut partial = ring.events();
    let last_close = partial
        .iter()
        .rposition(|e| matches!(e, Event::EpochEnd { .. }))
        .expect("epoch 0 closed before the loss");
    assert!(
        matches!(partial[last_close], Event::EpochEnd { epoch: 0, .. }),
        "the loss came on epoch 1's grant"
    );
    partial.truncate(last_close + 1);

    let snapshot = CheckpointPolicy::latest_fleet_snapshot(&dir).expect("final snapshot written");
    let resumed = run_distributed(
        &specs,
        |b| b.resume_from(snapshot),
        config,
        &DistConfig::default(),
        ThreadLauncher::new(),
    );
    assert!(resumed.result.completed);
    partial.extend(resumed.events.iter().cloned());
    assert_eq!(reference.events, partial, "spliced stream diverged");
    assert_eq!(
        reference.result.merged_curve, resumed.result.merged_curve,
        "merged curve diverged"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn slow_workers_do_not_stall_epoch_close() {
    // Worker 1 stalls for far longer than the whole run should take.
    // With a 300 ms epoch deadline and a quorum one reporter satisfies,
    // every epoch must close without it, the fleet must complete, and
    // the scheduler's floor must keep the silent member schedulable.
    let sleep_millis = 30_000u64;
    let config = FleetConfig::quick(3, 8).with_batch(2);
    let specs = vec![
        MemberSpec::new(FuzzerKind::Difuzz, 7, CoreKind::Rocket),
        MemberSpec::new(FuzzerKind::Cascade, 1, CoreKind::Rocket),
    ];
    let dist_cfg = DistConfig {
        epoch_deadline_millis: 300,
        quorum_percent: 33,
        ..DistConfig::default()
    };
    let launcher = ThreadLauncher::new().with_fault(
        1,
        WorkerFault {
            sleep_at_epoch: Some(0),
            sleep_millis,
            ..WorkerFault::default()
        },
    );
    let started = Instant::now();
    let observed = run_distributed(&specs, |b| b, config, &dist_cfg, launcher);
    let elapsed = started.elapsed();
    assert!(
        observed.result.completed,
        "deadline epochs did not complete"
    );
    assert!(
        elapsed < Duration::from_millis(sleep_millis),
        "epoch close stalled behind the slow worker ({elapsed:?})"
    );
    // The fast member did all the reported work; the slow member never
    // reported, yet the budget vector still owes it at least the floor.
    assert_eq!(observed.result.budgets.iter().sum::<u64>(), 8);
    assert!(
        observed.result.budgets[1] >= 1,
        "slow member starved: {:?}",
        observed.result.budgets
    );
    assert_eq!(observed.result.merged_curve.len(), 3);
}

/// Delegates to an inner fuzzer and raises the fleet's stop flag after a
/// fixed number of generation rounds (same wrapper as `tests/fleet.rs`).
struct StopAfterRounds {
    inner: Box<dyn Fuzzer>,
    rounds_left: u32,
    stop: StopHandle,
}

impl Fuzzer for StopAfterRounds {
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
    fn save_state(&self, w: &mut dyn Write) -> Result<(), PersistError> {
        self.inner.save_state(w)
    }
    fn load_state(&mut self, r: &mut dyn Read) -> Result<(), PersistError> {
        self.inner.load_state(r)
    }
}

#[test]
fn distributed_fleet_resumes_an_in_process_checkpoint_bit_identically() {
    let dir = scratch_dir("resume");
    let config = FleetConfig::quick(4, 18).with_batch(2);
    let specs = member_specs();
    let reference = run_in_process(&specs, |b| b, config);
    assert!(reference.result.completed);

    // Interrupt an *in-process* fleet mid-run; member 0's wrapper
    // delegates `name()`, so the checkpoint's line-up matches the specs.
    let stop = StopHandle::new();
    let ring = Arc::new(RingSink::new(1_000_000));
    let spec = FleetSpec::builder(config)
        .sink(SinkHandle::new(ring.clone()))
        .checkpoint(CheckpointPolicy::new(&dir, 1))
        .control(stop.clone())
        .build()
        .expect("valid spec");
    let mut interrupted = make_members(&specs);
    interrupted[0] = FleetMember::new(
        "difuzz-7",
        CoreKind::Rocket,
        Box::new(StopAfterRounds {
            inner: Box::new(DifuzzRtlFuzzer::new(7, 16)),
            rounds_left: 4,
            stop: stop.clone(),
        }),
    );
    let partial = run_fleet(&mut interrupted, &spec).expect("fleet runs");
    assert!(!partial.completed, "stop flag did not fire");
    let partial_events = ring.events();
    assert!(partial.merged_curve.len() < 4);

    // Resume the snapshot on the *distributed* runtime: the stream must
    // pick up exactly where the in-process fleet left off.
    let snapshot = CheckpointPolicy::latest_fleet_snapshot(&dir).expect("snapshot written");
    let resumed = run_distributed(
        &specs,
        |b| b.resume_from(snapshot),
        config,
        &DistConfig::default(),
        ThreadLauncher::new(),
    );
    assert!(resumed.result.completed);

    let mut merged = partial_events;
    merged.extend(resumed.events.iter().cloned());
    assert_eq!(
        reference.events, merged,
        "stream diverged across checkpoint + process split"
    );
    assert_results_match("cross-runtime resume", &reference.result, &resumed.result);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn in_process_fleet_reads_a_distributed_checkpoint() {
    // The distributed coordinator writes its snapshots from the same
    // serialised member states the wire carries; the in-process fleet
    // must accept them and restore the identical fleet state.
    let dir = scratch_dir("dist-ckpt");
    let config = FleetConfig::quick(2, 12).with_batch(2);
    let specs = member_specs();
    let dist = run_distributed(
        &specs,
        |b| b.checkpoint(CheckpointPolicy::new(&dir, 1)),
        config,
        &DistConfig::default(),
        ThreadLauncher::new(),
    );
    assert!(dist.result.completed);

    // The final snapshot sits at the epoch budget, so the resumed fleet
    // returns the restored state without running further epochs.
    let snapshot = CheckpointPolicy::latest_fleet_snapshot(&dir).expect("snapshot written");
    let resumed = run_in_process(&specs, |b| b.resume_from(snapshot), config);
    assert!(resumed.result.completed);
    assert_results_match("dist checkpoint", &dist.result, &resumed.result);
    let _ = std::fs::remove_dir_all(&dir);
}
