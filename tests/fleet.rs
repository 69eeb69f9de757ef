//! The fleet contract, end to end: a heterogeneous ensemble's merged
//! non-timing event stream, merged coverage curve and per-member results
//! must be bit-identical at any thread count and across a mid-run
//! interrupt + resume, and the merged ensemble must cover at least as
//! much as the best single member given the same total case budget.

use std::io::{Read, Write};
use std::path::PathBuf;
use std::sync::Arc;

use hfl::baselines::{CascadeFuzzer, DifuzzRtlFuzzer, Feedback, Fuzzer, TestBody, TheHuzzFuzzer};
use hfl::campaign::{run_campaign, CampaignConfig, CampaignSpec, CheckpointPolicy, RunError};
use hfl::fleet::{run_fleet, FleetConfig, FleetMember, FleetResult, FleetSpec};
use hfl::obs::{replay_fleet, Event, RingSink, SinkHandle};
use hfl::StopHandle;
use hfl_dut::CoreKind;
use hfl_nn::PersistError;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hfl-fleet-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Three cheap, deterministic members with distinct strategies.
fn make_members() -> Vec<FleetMember> {
    vec![
        FleetMember::new(
            "difuzz-7",
            CoreKind::Rocket,
            Box::new(DifuzzRtlFuzzer::new(7, 16)),
        ),
        FleetMember::new(
            "thehuzz-9",
            CoreKind::Rocket,
            Box::new(TheHuzzFuzzer::new(9, 16)),
        ),
        FleetMember::new(
            "cascade-1",
            CoreKind::Rocket,
            Box::new(CascadeFuzzer::new(1, 60)),
        ),
    ]
}

struct Observed {
    result: FleetResult,
    events: Vec<Event>,
}

fn run_observed(
    members: &mut [FleetMember],
    configure: impl FnOnce(hfl::fleet::FleetSpecBuilder) -> hfl::fleet::FleetSpecBuilder,
    config: FleetConfig,
    threads: usize,
) -> Observed {
    let ring = Arc::new(RingSink::new(1_000_000));
    let builder = FleetSpec::builder(config)
        .threads(threads)
        .sink(SinkHandle::new(ring.clone()));
    let spec = configure(builder).build().expect("valid spec");
    let result = run_fleet(members, &spec).expect("fleet runs");
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
}

#[test]
fn merged_stream_and_curve_are_bit_identical_across_thread_counts() {
    let config = FleetConfig::quick(3, 18).with_batch(2);
    let mut reference_members = make_members();
    let reference = run_observed(&mut reference_members, |b| b, config, 1);
    assert!(reference.result.completed);
    // Every fleet event is non-timing by construction; the stream needs no
    // filtering before comparison.
    assert!(reference.events.iter().all(|e| !e.is_timing()));
    assert!(!reference.events.is_empty());

    for threads in [2usize, 8] {
        let mut members = make_members();
        let other = run_observed(&mut members, |b| b, config, threads);
        assert_eq!(
            reference.events, other.events,
            "event stream diverged at {threads} threads"
        );
        assert_results_match(
            &format!("{threads} threads"),
            &reference.result,
            &other.result,
        );
    }

    // The stream replays into per-epoch tables that agree with the
    // result's own merged curve and budget vector.
    let replay = replay_fleet(&reference.events);
    assert_eq!(replay.epochs.len(), reference.result.merged_curve.len());
    for (row, sample) in replay.epochs.iter().zip(&reference.result.merged_curve) {
        assert_eq!(row.epoch, sample.epoch);
        assert_eq!(row.cases, sample.cases);
        assert_eq!(row.condition, sample.condition as u64);
        assert_eq!(row.line, sample.line as u64);
        assert_eq!(row.fsm, sample.fsm as u64);
        assert_eq!(row.unique_signatures, sample.unique_signatures as u64);
    }
    let final_budgets: Vec<u64> = replay
        .members
        .iter()
        .filter(|m| m.epoch == 2)
        .map(|m| m.next_budget)
        .collect();
    assert_eq!(final_budgets, reference.result.budgets);
}

#[test]
fn fleet_accounting_adds_up() {
    let config = FleetConfig::quick(4, 21).with_batch(2);
    let mut members = make_members();
    let observed = run_observed(&mut members, |b| b, config, 1);
    let result = &observed.result;
    assert!(result.completed);

    // One merged sample per epoch; cases grow by exactly the epoch budget.
    assert_eq!(result.merged_curve.len(), 4);
    for (i, sample) in result.merged_curve.iter().enumerate() {
        assert_eq!(sample.epoch, i as u64);
        assert_eq!(sample.cases, (i as u64 + 1) * 21);
    }
    // Member cases sum to the fleet total, and the scheduler's next-epoch
    // budget vector still assigns every case.
    let total: u64 = result.members.iter().map(|m| m.cases).sum();
    assert_eq!(total, 4 * 21);
    assert_eq!(result.budgets.iter().sum::<u64>(), 21);
    assert!(result.budgets.iter().all(|&b| b >= 1));
    // Every member sampled its own curve once per epoch.
    for member in &result.members {
        assert_eq!(member.curve.len(), 4, "{}", member.name);
    }
    // The wall-clock phases were observed exactly once per epoch.
    for name in [
        "fleet.sync.seconds",
        "fleet.distill.seconds",
        "fleet.schedule.seconds",
    ] {
        let histogram = result.metrics.histogram(name).expect(name);
        assert_eq!(histogram.count, 4, "{name}");
    }
    assert_eq!(result.metrics.counter("fleet.epochs"), 4);
    assert_eq!(result.metrics.counter("fleet.cases"), 4 * 21);
    // The merged curve is monotone in every metric.
    for pair in result.merged_curve.windows(2) {
        assert!(pair[1].condition >= pair[0].condition);
        assert!(pair[1].line >= pair[0].line);
        assert!(pair[1].fsm >= pair[0].fsm);
        assert!(pair[1].unique_signatures >= pair[0].unique_signatures);
    }
}

#[test]
fn merged_coverage_dominates_the_best_single_member() {
    // Same total budget: the fleet splits 96 cases across two members,
    // each solo run gets all 96. The empirical claim the fleet exists
    // for: union of diverse strategies >= any one of them.
    let total = 96u64;
    let mut members = vec![
        FleetMember::new(
            "difuzz-7",
            CoreKind::Rocket,
            Box::new(DifuzzRtlFuzzer::new(7, 16)),
        ),
        FleetMember::new(
            "cascade-1",
            CoreKind::Rocket,
            Box::new(CascadeFuzzer::new(1, 60)),
        ),
    ];
    let config = FleetConfig::quick(4, 24).with_batch(4);
    let spec = FleetSpec::builder(config).build().expect("valid spec");
    let result = run_fleet(&mut members, &spec).expect("fleet runs");
    let (mc, ml, mf) = result.final_counts();

    let mut best = 0usize;
    let solo_config = CampaignConfig::quick(total).with_batch(4);
    let mut solos: Vec<Box<dyn Fuzzer>> = vec![
        Box::new(DifuzzRtlFuzzer::new(7, 16)),
        Box::new(CascadeFuzzer::new(1, 60)),
    ];
    for solo in &mut solos {
        let spec = CampaignSpec::builder(CoreKind::Rocket, solo_config)
            .build()
            .expect("valid spec");
        let outcome = run_campaign(solo.as_mut(), &spec).expect("solo runs");
        let (c, l, f) = outcome.final_counts();
        best = best.max(c + l + f);
    }
    assert!(
        mc + ml + mf >= best,
        "merged ({mc}, {ml}, {mf}) under best solo total {best}"
    );
}

/// Delegates to an inner fuzzer and raises the fleet's stop flag after a
/// fixed number of generation rounds — the fleet then finishes the
/// current epoch, checkpoints and returns.
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
fn interrupted_fleet_resumes_bit_identically() {
    let config = FleetConfig::quick(4, 18).with_batch(2);
    for threads in [1usize, 2] {
        let dir = scratch_dir(&format!("resume-t{threads}"));

        let mut reference_members = make_members();
        let reference = run_observed(&mut reference_members, |b| b, config, threads);
        assert!(reference.result.completed);

        // Interrupt: member 0's fuzzer raises the stop flag during epoch
        // 1's generation; the fleet finishes that epoch and checkpoints.
        // The wrapper delegates `name()`, so the checkpoint's member
        // line-up still matches the fresh members used to resume.
        let stop = StopHandle::new();
        let mut interrupted_members = make_members();
        interrupted_members[0] = FleetMember::new(
            "difuzz-7",
            CoreKind::Rocket,
            Box::new(StopAfterRounds {
                inner: Box::new(DifuzzRtlFuzzer::new(7, 16)),
                rounds_left: 4,
                stop: stop.clone(),
            }),
        );
        let partial = run_observed(
            &mut interrupted_members,
            |b| {
                b.checkpoint(CheckpointPolicy::new(&dir, 1))
                    .control(stop.clone())
            },
            config,
            threads,
        );
        assert!(!partial.result.completed, "stop flag did not fire");
        assert!(!partial.result.merged_curve.is_empty());
        assert!(partial.result.merged_curve.len() < 4);

        // Resume with fresh members: all state comes from the snapshot.
        let snapshot = CheckpointPolicy::latest_fleet_snapshot(&dir).expect("snapshot written");
        let mut resumed_members = make_members();
        let resumed = run_observed(
            &mut resumed_members,
            |b| b.resume_from(snapshot),
            config,
            threads,
        );
        assert!(resumed.result.completed);

        let mut merged = partial.events.clone();
        merged.extend(resumed.events.iter().cloned());
        assert_eq!(
            reference.events, merged,
            "merged event stream diverged at {threads} threads"
        );
        assert_results_match(
            &format!("resume-t{threads}"),
            &reference.result,
            &resumed.result,
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Delegates to an inner fuzzer, then composes an empty round once a
/// fixed number of rounds has run — the round engine turns that into
/// [`RunError::Compose`] in the middle of an epoch.
struct EmptyAfterRounds {
    inner: Box<dyn Fuzzer>,
    rounds_left: u32,
}

impl Fuzzer for EmptyAfterRounds {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn next_case(&mut self) -> TestBody {
        self.inner.next_case()
    }
    fn next_round(&mut self, n: usize) -> Vec<TestBody> {
        if self.rounds_left == 0 {
            return Vec::new();
        }
        self.rounds_left -= 1;
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
fn a_failed_member_round_leaves_the_last_epoch_snapshot_resumable() {
    let dir = scratch_dir("compose");
    let config = FleetConfig::quick(4, 18).with_batch(2);
    let mut reference_members = make_members();
    let reference = run_observed(&mut reference_members, |b| b, config, 1);
    assert!(reference.result.completed);

    // Member 0 runs three rounds in epoch 0 (6 cases at batch 2) and
    // fails on its second round of epoch 1, when its state has already
    // moved past the epoch boundary.
    let ring = Arc::new(RingSink::new(1_000_000));
    let spec = FleetSpec::builder(config)
        .sink(SinkHandle::new(ring.clone()))
        .checkpoint(CheckpointPolicy::new(&dir, 1))
        .build()
        .expect("valid spec");
    let mut failing = make_members();
    failing[0] = FleetMember::new(
        "difuzz-7",
        CoreKind::Rocket,
        Box::new(EmptyAfterRounds {
            inner: Box::new(DifuzzRtlFuzzer::new(7, 16)),
            rounds_left: 4,
        }),
    );
    let err = run_fleet(&mut failing, &spec).expect_err("an empty round fails the fleet");
    assert!(
        matches!(err, RunError::Compose(_)),
        "unexpected error: {err}"
    );

    // The snapshot on disk is the last epoch close, never the half-run
    // epoch: resuming it with fresh members reproduces the reference.
    let mut partial = ring.events();
    let last_close = partial
        .iter()
        .rposition(|e| matches!(e, Event::EpochEnd { .. }))
        .expect("epoch 0 closed before the failure");
    assert!(
        matches!(partial[last_close], Event::EpochEnd { epoch: 0, .. }),
        "the failure came in epoch 1"
    );
    partial.truncate(last_close + 1);
    let snapshot = CheckpointPolicy::latest_fleet_snapshot(&dir).expect("snapshot written");
    let mut resumed_members = make_members();
    let resumed = run_observed(&mut resumed_members, |b| b.resume_from(snapshot), config, 1);
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
fn resume_rejects_a_different_member_line_up() {
    let dir = scratch_dir("lineup");
    let config = FleetConfig::quick(2, 9).with_batch(2);
    let mut members = make_members();
    let spec = FleetSpec::builder(config)
        .checkpoint(CheckpointPolicy::new(&dir, 1))
        .build()
        .expect("valid spec");
    run_fleet(&mut members, &spec).expect("fleet runs");
    let snapshot = CheckpointPolicy::latest_fleet_snapshot(&dir).expect("snapshot written");

    // Same member count, different strategy in slot 1.
    let mut imposters = make_members();
    imposters[1] = FleetMember::new(
        "thehuzz-9",
        CoreKind::Rocket,
        Box::new(DifuzzRtlFuzzer::new(9, 16)),
    );
    let resume_spec = FleetSpec::builder(config)
        .resume_from(&snapshot)
        .build()
        .expect("valid spec");
    let err = run_fleet(&mut imposters, &resume_spec).expect_err("line-up mismatch");
    assert!(
        err.to_string().contains("line-up"),
        "unexpected error: {err}"
    );

    // A different fleet budget is rejected too.
    let other_config = FleetConfig::quick(3, 9).with_batch(2);
    let other_spec = FleetSpec::builder(other_config)
        .resume_from(&snapshot)
        .build()
        .expect("valid spec");
    let mut members = make_members();
    let err = run_fleet(&mut members, &other_spec).expect_err("spec mismatch");
    assert!(
        err.to_string().contains("different fleet spec"),
        "unexpected error: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_fleet_snapshots_are_rejected_not_trusted() {
    let dir = scratch_dir("corrupt");
    let config = FleetConfig::quick(2, 9).with_batch(2);
    let mut members = make_members();
    let spec = FleetSpec::builder(config)
        .checkpoint(CheckpointPolicy::new(&dir, 1))
        .build()
        .expect("valid spec");
    run_fleet(&mut members, &spec).expect("fleet runs");
    let snapshot = CheckpointPolicy::latest_fleet_snapshot(&dir).expect("snapshot written");

    let mut bytes = std::fs::read(&snapshot).expect("read snapshot");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&snapshot, &bytes).expect("rewrite snapshot");

    let resume_spec = FleetSpec::builder(config)
        .resume_from(&snapshot)
        .build()
        .expect("valid spec");
    let mut members = make_members();
    let err = run_fleet(&mut members, &resume_spec).expect_err("corrupt snapshot rejected");
    let msg = err.to_string();
    assert!(
        msg.contains("checksum") || msg.contains("corrupt") || msg.contains("truncated"),
        "unexpected error: {msg}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
