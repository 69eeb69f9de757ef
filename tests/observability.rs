//! The observability layer's determinism contract, end to end: telemetry
//! must never change campaign results, and the non-timing event stream
//! must be bit-identical at any thread count. Also exercises the JSONL
//! file sink round trip and the per-round replay table against a real
//! campaign.

use std::sync::Arc;

use hfl::baselines::{DifuzzRtlFuzzer, Fuzzer};
use hfl::campaign::{
    run_campaign, CampaignConfig, CampaignResult, CampaignSpec, CampaignSpecBuilder,
};
use hfl::fuzzer::{HflConfig, HflFuzzer};
use hfl::obs::{read_jsonl, replay_rounds, Event, JsonlSink, RingSink, SinkHandle};
use hfl::spec::FuzzerKind;
use hfl_dut::CoreKind;

fn config() -> CampaignConfig {
    CampaignConfig::quick(40).with_batch(4)
}

fn run_with_ring(threads: usize) -> (CampaignResult, Vec<Event>) {
    let ring = Arc::new(RingSink::new(100_000));
    let mut fuzzer = DifuzzRtlFuzzer::new(7, 12);
    let spec = CampaignSpec::builder(CoreKind::Rocket, config())
        .threads(threads)
        .sink(SinkHandle::new(ring.clone()))
        .build()
        .expect("valid spec");
    let result = run_campaign(&mut fuzzer, &spec).expect("campaign runs");
    (result, ring.events())
}

/// The event stream minus wall-clock events — the part under the
/// determinism contract.
fn non_timing(events: &[Event]) -> Vec<Event> {
    events.iter().filter(|e| !e.is_timing()).cloned().collect()
}

#[test]
fn event_stream_is_bit_identical_at_any_thread_count() {
    let (r1, e1) = run_with_ring(1);
    let (r2, e2) = run_with_ring(2);
    let (r8, e8) = run_with_ring(8);

    for (result, label) in [(&r2, "2"), (&r8, "8")] {
        assert_eq!(r1.curve, result.curve, "curve changed at {label} threads");
        assert_eq!(r1.signatures, result.signatures);
        assert_eq!(r1.first_detection, result.first_detection);
        assert_eq!(r1.instructions_executed, result.instructions_executed);
    }
    let n1 = non_timing(&e1);
    assert_eq!(n1, non_timing(&e2), "event stream changed at 2 threads");
    assert_eq!(n1, non_timing(&e8), "event stream changed at 8 threads");
    // Timing events exist but are excluded from the comparison — exactly
    // one PoolOccupancy per round, at every thread count.
    let rounds = e1
        .iter()
        .filter(|e| matches!(e, Event::RoundEnd { .. }))
        .count();
    for events in [&e1, &e2, &e8] {
        let timing = events.iter().filter(|e| e.is_timing()).count();
        assert_eq!(timing, rounds);
    }
}

#[test]
fn telemetry_does_not_change_results() {
    // A silent (default NullSink) campaign and a fully-instrumented one
    // must agree on everything the determinism contract covers — for the
    // learning fuzzer too, whose PredictorEval path must observe without
    // perturbing the models.
    let run = |sink: Option<SinkHandle>| {
        let mut cfg = HflConfig::small().with_seed(3);
        cfg.generator.hidden = 16;
        cfg.predictor.hidden = 16;
        cfg.test_len = 6;
        let mut hfl = HflFuzzer::new(cfg);
        let mut builder = CampaignSpec::builder(CoreKind::Rocket, config());
        if let Some(sink) = sink {
            builder = builder.sink(sink);
        }
        let spec = builder.build().expect("valid spec");
        run_campaign(&mut hfl, &spec).expect("campaign runs")
    };
    let silent = run(None);
    let ring = Arc::new(RingSink::new(100_000));
    let observed = run(Some(SinkHandle::new(ring.clone())));

    assert_eq!(silent.curve, observed.curve);
    assert_eq!(silent.signatures, observed.signatures);
    assert_eq!(silent.first_detection, observed.first_detection);
    assert_eq!(silent.instructions_executed, observed.instructions_executed);
    // The observed run actually produced learner telemetry.
    let events = ring.events();
    assert!(events.iter().any(|e| matches!(e, Event::PpoUpdate { .. })));
    assert!(events
        .iter()
        .any(|e| matches!(e, Event::PredictorEval { .. })));
}

#[test]
fn jsonl_log_replays_the_coverage_curve() {
    let path = std::env::temp_dir().join(format!("hfl-obs-test-{}.jsonl", std::process::id()));
    let sink = SinkHandle::new(Arc::new(JsonlSink::create(&path).expect("create log")));
    let mut fuzzer = DifuzzRtlFuzzer::new(11, 12);
    let spec = CampaignSpec::builder(CoreKind::Rocket, config())
        .threads(2)
        .sink(sink)
        .build()
        .expect("valid spec");
    let result = run_campaign(&mut fuzzer, &spec).expect("campaign runs");

    let events = read_jsonl(&path).expect("log parses");
    std::fs::remove_file(&path).ok();
    assert!(!events.is_empty());

    // Per-case events cover the whole campaign in order.
    let cases: Vec<u64> = events
        .iter()
        .filter_map(|e| match e {
            Event::CaseExecuted { case, .. } => Some(*case),
            _ => None,
        })
        .collect();
    assert_eq!(cases, (1..=40).collect::<Vec<u64>>());

    // The replayed table reconstructs the campaign's own curve at every
    // sample boundary (sample_every = 1 for quick(40), so every curve
    // sample lands on a case; rounds end every `batch` cases).
    let rows = replay_rounds(&events);
    assert_eq!(rows.len(), 10, "40 cases / batch 4");
    let end = rows.last().expect("non-empty");
    let (c, l, f) = result.final_counts();
    assert_eq!(
        (end.cases, end.condition, end.line, end.fsm),
        (40, c as u64, l as u64, f as u64)
    );
    assert_eq!(end.unique_signatures, result.unique_signatures as u64);
    assert_eq!(end.retired, result.instructions_executed);
    for row in &rows {
        let sample = result
            .curve
            .iter()
            .find(|s| s.cases == row.cases)
            .expect("round boundary is a curve sample");
        assert_eq!(
            (row.condition, row.line, row.fsm),
            (
                sample.condition as u64,
                sample.line as u64,
                sample.fsm as u64
            ),
            "replay diverged at {} cases",
            row.cases
        );
    }

    // Metrics snapshot rode along on the result.
    for phase in [
        "phase.generate.seconds",
        "phase.execute.seconds",
        "phase.difftest.seconds",
        "phase.train.seconds",
    ] {
        let hist = result
            .metrics
            .histogram(phase)
            .unwrap_or_else(|| panic!("{phase} missing"));
        assert_eq!(hist.count, 10, "{phase}: one observation per round");
        assert!(hist.sum >= 0.0 && hist.sum.is_finite());
    }
    assert_eq!(result.metrics.counter("campaign.cases"), 40);
    assert_eq!(result.metrics.counter("campaign.rounds"), 10);
}

/// The predecode cache surfaces lifetime hit/miss counters on the
/// metrics snapshot. At one thread the worker schedule is fixed, so the
/// split itself is deterministic — and whatever the schedule, the totals
/// must account for exactly one cache lookup per executed case.
#[test]
fn predecode_cache_metrics_ride_on_the_snapshot() {
    let run = || {
        let mut fuzzer = DifuzzRtlFuzzer::new(5, 12);
        let spec = CampaignSpec::builder(CoreKind::Rocket, config())
            .threads(1)
            .build()
            .expect("valid spec");
        let result = run_campaign(&mut fuzzer, &spec).expect("campaign runs");
        (
            result.metrics.counter("sim.predecode.hits"),
            result.metrics.counter("sim.predecode.misses"),
        )
    };
    let (hits, misses) = run();
    assert_eq!(hits + misses, 40, "one cache lookup per executed case");
    assert!(misses >= 1, "first sight of a body must miss");
    assert_eq!((hits, misses), run(), "split is deterministic at 1 thread");
}

/// Guard for interpreter changes: a pinned campaign spec must replay the
/// checked-in golden non-timing JSONL stream byte for byte. The golden
/// file was produced by the original per-step fetch+decode interpreters,
/// so any engine swap (predecode, dispatch, batching) that perturbs a
/// single event — coverage gained, retired counts, mismatch signatures —
/// fails here before it can corrupt a campaign.
///
/// Regenerate deliberately with `HFL_UPDATE_GOLDEN=1 cargo test -p hfl
/// --test observability golden_event_stream`.
#[test]
fn golden_event_stream_replays_byte_for_byte() {
    let mut fuzzer = DifuzzRtlFuzzer::new(1311, 10);
    let spec =
        CampaignSpec::builder(CoreKind::Cva6, CampaignConfig::quick(30).with_batch(6)).threads(2);
    assert_golden_stream(&mut fuzzer, spec, "campaign_events.jsonl");
}

/// Guard for learner changes: the HFL fuzzer's non-timing stream, with
/// the `PpoUpdate` and `PredictorEval` floats of every update, must replay
/// the checked-in golden file byte for byte. An NN kernel change that
/// moves a single weight bit (and with it a sampled instruction, a loss or
/// a ratio) fails here.
///
/// Regenerate deliberately with `HFL_UPDATE_GOLDEN=1 cargo test -p hfl
/// --test observability golden_hfl_event_stream`.
#[test]
fn golden_hfl_event_stream_replays_byte_for_byte() {
    let mut fuzzer = FuzzerKind::Hfl.build(7);
    let spec = CampaignSpec::builder(CoreKind::Rocket, CampaignConfig::quick(160).with_batch(8))
        .threads(2);
    assert_golden_stream(fuzzer.as_mut(), spec, "hfl_events.jsonl");
}

/// Runs `fuzzer` under `spec` with a ring sink and compares the non-timing
/// stream with `tests/golden/<file>`, or rewrites that file when
/// `HFL_UPDATE_GOLDEN` is set.
fn assert_golden_stream(fuzzer: &mut dyn Fuzzer, spec: CampaignSpecBuilder, file: &str) {
    let path = format!("{}/../../tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
    let ring = Arc::new(RingSink::new(100_000));
    let spec = spec
        .sink(SinkHandle::new(ring.clone()))
        .build()
        .expect("valid spec");
    run_campaign(fuzzer, &spec).expect("campaign runs");
    let got: String = non_timing(&ring.events())
        .iter()
        .map(|e| e.to_json() + "\n")
        .collect();
    if std::env::var("HFL_UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, &got).expect("write golden stream");
        return;
    }
    let want = std::fs::read_to_string(&path).expect("golden stream exists (see test docs)");
    let want_lines: Vec<&str> = want.lines().collect();
    let got_lines: Vec<&str> = got.lines().collect();
    assert_eq!(
        got_lines.len(),
        want_lines.len(),
        "event count diverged from the golden stream"
    );
    for (i, (g, w)) in got_lines.iter().zip(&want_lines).enumerate() {
        assert_eq!(g, w, "golden stream diverged at event {i}");
    }
}
