//! The two-hart system configuration, end to end: scheduler determinism
//! (fixed `sched_seed` ⇒ bit-identical non-timing event stream at any
//! thread count, and across checkpoint/resume), the clean-config
//! DUT/reference lockstep property, a digest pin of the schedules the
//! concurrency PoCs commit, and campaign-level detection plus
//! minimisation of every concurrency defect class.

use std::sync::Arc;

use hfl::baselines::{DifuzzRtlFuzzer, Feedback, Fuzzer, InterleaveFuzzer, TestBody};
use hfl::campaign::{run_campaign, CampaignConfig, CampaignResult, CampaignSpec, CheckpointPolicy};
use hfl::harness::Executor;
use hfl::obs::{Event, RingSink, SinkHandle};
use hfl::poc::{poc_body_for, poc_for};
use hfl::triage::minimize_body;
use hfl_dut::mhart::{CommitEvent, MhartMachine};
use hfl_dut::{bugs, CoreKind};
use hfl_grm::cpu::Quirks;
use hfl_grm::Program;
use hfl_nn::persist::fnv1a;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn non_timing(events: &[Event]) -> Vec<Event> {
    events.iter().filter(|e| !e.is_timing()).cloned().collect()
}

fn mhart_config() -> CampaignConfig {
    CampaignConfig::quick(24).with_batch(4)
}

fn run_mhart_campaign(threads: usize) -> (CampaignResult, Vec<Event>) {
    let ring = Arc::new(RingSink::new(100_000));
    let mut fuzzer = InterleaveFuzzer::new(5, DifuzzRtlFuzzer::new(7, 10));
    let spec = CampaignSpec::builder(CoreKind::Rocket, mhart_config())
        .mhart(true)
        .threads(threads)
        .sink(SinkHandle::new(ring.clone()))
        .build()
        .expect("valid spec");
    let result = run_campaign(&mut fuzzer, &spec).expect("campaign runs");
    (result, ring.events())
}

#[test]
fn mhart_event_stream_is_bit_identical_at_any_thread_count() {
    let (r1, e1) = run_mhart_campaign(1);
    let (r2, e2) = run_mhart_campaign(2);
    let (r8, e8) = run_mhart_campaign(8);
    for (result, label) in [(&r2, "2"), (&r8, "8")] {
        assert_eq!(r1.curve, result.curve, "curve changed at {label} threads");
        assert_eq!(r1.signatures, result.signatures);
        assert_eq!(r1.first_detection, result.first_detection);
        assert_eq!(r1.instructions_executed, result.instructions_executed);
    }
    let n1 = non_timing(&e1);
    assert_eq!(n1, non_timing(&e2), "event stream changed at 2 threads");
    assert_eq!(n1, non_timing(&e8), "event stream changed at 8 threads");
}

#[test]
fn mhart_campaign_resumes_bit_identically_from_a_checkpoint() {
    // The interrupted+resumed pair must replay the uninterrupted run's
    // non-timing stream and results (the crash_resume contract, in the
    // two-hart configuration — schedules are part of the replayed state).
    let dir = std::env::temp_dir().join(format!("hfl-mhart-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let make_fuzzer = || InterleaveFuzzer::new(3, DifuzzRtlFuzzer::new(11, 10));
    let run = |fuzzer: &mut dyn Fuzzer,
               configure: &dyn Fn(
        hfl::campaign::CampaignSpecBuilder,
    ) -> hfl::campaign::CampaignSpecBuilder| {
        let ring = Arc::new(RingSink::new(100_000));
        let builder = CampaignSpec::builder(CoreKind::Rocket, mhart_config())
            .mhart(true)
            .sink(SinkHandle::new(ring.clone()));
        let spec = configure(builder).build().expect("valid spec");
        let result = run_campaign(fuzzer, &spec).expect("campaign runs");
        (result, ring.events())
    };

    let (reference, reference_events) = run(&mut make_fuzzer(), &|b| b);
    assert!(reference.completed);

    let stop = hfl::StopHandle::new();
    let stop_for_fuzzer = stop.clone();
    // Interrupt after two generation rounds, mid-campaign.
    struct StopAfter<F> {
        inner: F,
        rounds_left: u32,
        stop: hfl::StopHandle,
    }
    impl<F: Fuzzer> Fuzzer for StopAfter<F> {
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
        fn save_state(&self, w: &mut dyn std::io::Write) -> Result<(), hfl_nn::PersistError> {
            self.inner.save_state(w)
        }
        fn load_state(&mut self, r: &mut dyn std::io::Read) -> Result<(), hfl_nn::PersistError> {
            self.inner.load_state(r)
        }
    }
    let mut interrupted = StopAfter {
        inner: make_fuzzer(),
        rounds_left: 2,
        stop: stop_for_fuzzer,
    };
    let (partial, partial_events) = run(&mut interrupted, &|b| {
        b.checkpoint(CheckpointPolicy::new(&dir, 1))
            .control(stop.clone())
    });
    assert!(!partial.completed, "the stop flag did not fire");

    let snapshot = CheckpointPolicy::latest_snapshot(&dir).expect("snapshot written");
    let (resumed, resumed_events) = run(&mut make_fuzzer(), &|b| b.resume_from(snapshot.clone()));
    assert!(resumed.completed);

    let mut merged = non_timing(&partial_events);
    merged.extend(non_timing(&resumed_events));
    assert_eq!(
        non_timing(&reference_events),
        merged,
        "merged mhart event stream diverged across resume"
    );
    assert_eq!(reference.curve, resumed.curve);
    assert_eq!(reference.signatures, resumed.signatures);
    assert_eq!(reference.cumulative, resumed.cumulative);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Replays interleaving seeds over one defect class's PoC body — the
/// degenerate schedule-space fuzzer the campaign-level detection test
/// drives (body fixed, schedule searched).
struct SeedSweepFuzzer {
    bug_id: &'static str,
    next_seed: u64,
}

impl Fuzzer for SeedSweepFuzzer {
    fn name(&self) -> &'static str {
        "SeedSweep"
    }
    fn next_case(&mut self) -> TestBody {
        let seed = self.next_seed;
        self.next_seed += 1;
        poc_body_for(self.bug_id, seed)
    }
    fn feedback(&mut self, _body: &TestBody, _feedback: Feedback) {}
}

#[test]
fn two_hart_campaign_finds_and_minimises_every_concurrency_class() {
    for bug in bugs::CATALOG.iter().filter(|b| b.concurrency) {
        let mut quirks = Quirks::default();
        bugs::enable(&mut quirks, bug.id, CoreKind::Rocket);
        let mut fuzzer = SeedSweepFuzzer {
            bug_id: bug.id,
            next_seed: 0,
        };
        let spec = CampaignSpec::builder(CoreKind::Rocket, CampaignConfig::quick(64).with_batch(8))
            .mhart(true)
            .quirks(quirks.clone())
            .build()
            .expect("valid spec");
        let result = run_campaign(&mut fuzzer, &spec).expect("campaign runs");
        assert!(
            result.unique_signatures >= 1,
            "{}: campaign found no PoC in 64 interleavings",
            bug.id
        );
        // The trigger corpus names carry the interleaving seed — without
        // it the PoC would not replay.
        let entry = &result.trigger_corpus.entries()[0];
        let (_, seed_hex) = entry
            .name
            .split_once("+seed")
            .unwrap_or_else(|| panic!("{}: PoC name {:?} lacks its seed", bug.id, entry.name));
        let seed = u64::from_str_radix(seed_hex, 16).expect("seed parses");

        // Minimisation holds that seed fixed and the result still triggers.
        let mut executor = Executor::builder(CoreKind::Rocket)
            .quirks(quirks)
            .mhart(true)
            .build();
        let body = poc_body_for(bug.id, seed);
        let case = executor.run(&body);
        assert!(
            !case.mismatches.is_empty(),
            "{}: corpus seed replays",
            bug.id
        );
        let signature = case.mismatches[0].signature();
        let minimized = minimize_body(&mut executor, &body, signature)
            .unwrap_or_else(|| panic!("{}: PoC does not reproduce for triage", bug.id));
        assert_eq!(minimized.sched_seed, Some(seed));
        assert!(!minimized.body.is_empty());
        let replay = TestBody::Mhart {
            body: minimized.body.clone(),
            sched_seed: seed,
        };
        assert!(
            executor
                .run(&replay)
                .mismatches
                .iter()
                .any(|m| m.signature() == signature),
            "{}: minimised case lost the defect",
            bug.id
        );
    }
}

/// Pins every interleaving the machine commits for the concurrency PoCs:
/// C1, C2 and C3, each enabled alone on Rocket, `poc_for(id)` bodies,
/// seeds 0..64 and a 3,000-step budget. Every `CommitEvent` and each
/// run's `scheduled_steps` feed one FNV-1a digest, so any change to the
/// event order, the rank mixer or the tick costs shows up here.
#[test]
fn committed_schedules_are_pinned() {
    let mut bytes = Vec::new();
    for id in ["C1", "C2", "C3"] {
        let mut quirks = Quirks::default();
        bugs::enable(&mut quirks, id, CoreKind::Rocket);
        let mut machine = MhartMachine::new(quirks);
        let program = Program::assemble(&poc_for(id));
        for seed in 0..64 {
            let run = machine.run(&program, seed, 3_000);
            for event in &run.schedule {
                bytes.extend_from_slice(&match *event {
                    CommitEvent::Step(h) => [0, h],
                    CommitEvent::Interrupt(h) => [1, h],
                });
            }
            bytes.extend_from_slice(&run.scheduled_steps.to_le_bytes());
        }
    }
    assert_eq!(
        (bytes.len(), fnv1a(&bytes)),
        (94_726, 0x1d60_9652_05cd_8d81),
        "committed two-hart schedules changed"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Lockdown: a defect-free two-hart configuration never diverges from
    /// the sequential reference, whatever the body or the interleaving.
    #[test]
    fn clean_two_hart_config_stays_in_lockstep(body_seed in any::<u64>(), sched_seed in any::<u64>(), len in 1usize..12) {
        let mut rng = StdRng::seed_from_u64(body_seed);
        let body: Vec<_> = (0..len)
            .map(|_| hfl::baselines::random_instruction(&mut rng))
            .collect();
        let mut executor = Executor::builder(CoreKind::Rocket)
            .quirks(Quirks::default())
            .mhart(true)
            .build();
        let result = executor.run(&TestBody::Mhart { body, sched_seed });
        prop_assert!(
            result.mismatches.is_empty(),
            "clean config diverged: {:?}",
            result.mismatches
        );
    }
}
