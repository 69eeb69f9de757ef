//! The observability layer's determinism contract, end to end: telemetry
//! must never change campaign results, and the non-timing event stream
//! must be bit-identical at any thread count. Also exercises the JSONL
//! file sink round trip and the per-round replay table against a real
//! campaign.

use std::sync::Arc;

use hfl::baselines::{CascadeFuzzer, DifuzzRtlFuzzer, Fuzzer, InterleaveFuzzer};
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
/// a ratio) fails here. The stream replays at two pool threads, where the
/// critic and the coverage predictor train on the pool's helper while PPO
/// runs on the campaign thread, and at one, where all three run on the
/// campaign thread.
///
/// Regenerate deliberately with `HFL_UPDATE_GOLDEN=1 cargo test -p hfl
/// --test observability golden_hfl_event_stream`.
#[test]
fn golden_hfl_event_stream_replays_byte_for_byte() {
    for threads in [2, 1] {
        let mut fuzzer = FuzzerKind::Hfl.build(7);
        let spec =
            CampaignSpec::builder(CoreKind::Rocket, CampaignConfig::quick(160).with_batch(8))
                .threads(threads);
        assert_golden_stream(fuzzer.as_mut(), spec, "hfl_events.jsonl");
    }
}

/// Guard for simulator changes on long self-modifying bodies: Cascade's
/// 60-instruction bodies on CVA6 (defects V1–V4) store into their own
/// code through `t1`, so this stream pins the predecoded image, the
/// dirty-word fallback, the RAM pages and the mismatch signatures they
/// produce.
///
/// Regenerate deliberately with `HFL_UPDATE_GOLDEN=1 cargo test -p hfl
/// --test observability golden_cascade_event_stream`.
#[test]
fn golden_cascade_event_stream_replays_byte_for_byte() {
    let mut fuzzer = FuzzerKind::Cascade.build(3);
    let spec =
        CampaignSpec::builder(CoreKind::Cva6, CampaignConfig::quick(96).with_batch(8)).threads(2);
    let stream = assert_golden_stream(fuzzer.as_mut(), spec, "cascade_events.jsonl");
    assert_has_new_signature(&stream);
}

/// Guard for the two-hart machine: interleaved Cascade bodies on the
/// two-hart Rocket system, where both harts and the replay reference
/// run on their own memories.
///
/// Regenerate deliberately with `HFL_UPDATE_GOLDEN=1 cargo test -p hfl
/// --test observability golden_mhart_event_stream`.
#[test]
fn golden_mhart_event_stream_replays_byte_for_byte() {
    let mut fuzzer = InterleaveFuzzer::new(3, CascadeFuzzer::new(3, 60));
    let spec = CampaignSpec::builder(CoreKind::Rocket, CampaignConfig::quick(96).with_batch(8))
        .mhart(true)
        .threads(2);
    let stream = assert_golden_stream(&mut fuzzer, spec, "mhart_events.jsonl");
    assert_has_new_signature(&stream);
}

/// Guard for the GRM dry runs inside a fuzzer and for Boom: GoldenFuzz
/// picks each case from candidates it first runs on the golden model, so
/// this stream pins those retire traces as well as Boom's DUT results.
///
/// Regenerate deliberately with `HFL_UPDATE_GOLDEN=1 cargo test -p hfl
/// --test observability golden_goldenfuzz_boom_event_stream`.
#[test]
fn golden_goldenfuzz_boom_event_stream_replays_byte_for_byte() {
    let mut fuzzer = FuzzerKind::GoldenFuzz.build(3);
    let spec =
        CampaignSpec::builder(CoreKind::Boom, CampaignConfig::quick(96).with_batch(8)).threads(2);
    let stream = assert_golden_stream(fuzzer.as_mut(), spec, "goldenfuzz_boom_events.jsonl");
    assert_has_new_signature(&stream);
}

/// A golden stream only pins mismatch signatures if some case found one.
fn assert_has_new_signature(stream: &str) {
    assert!(
        stream
            .lines()
            .any(|line| line.contains("\"type\":\"case_executed\"")
                && !line.contains("\"new_signature\":null")),
        "the golden stream should contain a case with a new signature"
    );
}

/// Runs `fuzzer` under `spec` with a ring sink and compares the non-timing
/// stream with `tests/golden/<file>`, or rewrites that file when
/// `HFL_UPDATE_GOLDEN` is set. Returns the stream.
fn assert_golden_stream(fuzzer: &mut dyn Fuzzer, spec: CampaignSpecBuilder, file: &str) -> String {
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
        return got;
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
    got
}
