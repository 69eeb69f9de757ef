//! Telemetry smoke campaign for CI: runs a short campaign with the JSONL
//! sink attached, then re-reads the log and verifies it is parseable and
//! that the replayed per-round table reconstructs the campaign's own
//! coverage curve. Exits non-zero on any disagreement.
//!
//! ```text
//! cargo run --release -p hfl-bench --bin smoke -- \
//!     [--seed N] [--fuzzer hfl|difuzz|thehuzz|cascade|scenario|goldenfuzz] \
//!     [--cases N] \
//!     [--batch N] [--threads N] [--log telemetry.jsonl] \
//!     [--checkpoint-dir DIR] [--checkpoint-every ROUNDS] [--resume] \
//!     [--fault-case N] [--fault-kind panic|hang|ioerror] [--fault-sticky] \
//!     [--max-retries N] [--mhart] [--bug ID]
//! ```
//!
//! With `--checkpoint-dir` the campaign snapshots into that directory
//! every `--checkpoint-every` rounds (default 1); `--resume` continues
//! from the latest snapshot there (the CI crash-resume job kills the
//! first run partway and then reruns with `--resume`). The `--fault-*`
//! flags inject a deterministic worker fault at the given global case
//! index to exercise the containment path.
//!
//! `--mhart` runs the campaign against the two-hart system DUT, wrapping
//! the chosen fuzzer in [`InterleaveFuzzer`] so every case carries an
//! interleaving seed. `--bug C1` (implies `--mhart`) instead enables that
//! concurrency defect and sweeps interleaving seeds over its trigger
//! body; the run fails unless the campaign finds at least one PoC whose
//! corpus name carries its `+seed` suffix.

use std::path::Path;
use std::sync::Arc;

use hfl::baselines::{Feedback, Fuzzer, InterleaveFuzzer, TestBody};
use hfl::campaign::{run_campaign, CampaignConfig, CampaignSpec, CheckpointPolicy};
use hfl::exec::{FaultKind, FaultPlan, FaultPolicy};
use hfl::obs::{read_jsonl, replay_rounds, Event, JsonlSink, SinkHandle};
use hfl::poc::poc_body_for;
use hfl::spec::FuzzerKind;
use hfl_bench::{arg_num, arg_value};
use hfl_dut::CoreKind;
use hfl_nn::persist::{read_u64, write_u64, PersistError};

/// Replays interleaving seeds 0, 1, 2, ... over one concurrency defect's
/// trigger body: the body is fixed, the schedule space is searched
/// (`--bug`). Checkpointable so the crash-resume path also covers it.
struct SeedSweepFuzzer {
    bug_id: String,
    next_seed: u64,
}

impl Fuzzer for SeedSweepFuzzer {
    fn name(&self) -> &'static str {
        "SeedSweep"
    }
    fn next_case(&mut self) -> TestBody {
        let seed = self.next_seed;
        self.next_seed += 1;
        poc_body_for(&self.bug_id, seed)
    }
    fn feedback(&mut self, _body: &TestBody, _feedback: Feedback) {}
    fn save_state(&self, mut w: &mut dyn std::io::Write) -> Result<(), PersistError> {
        write_u64(&mut w, self.next_seed)
    }
    fn load_state(&mut self, mut r: &mut dyn std::io::Read) -> Result<(), PersistError> {
        self.next_seed = read_u64(&mut r)?;
        Ok(())
    }
}

/// The named fuzzer as every entry point builds it, wrapped for the
/// two-hart system when `mhart` is set.
fn make_fuzzer(name: &str, seed: u64, mhart: bool) -> Result<Box<dyn Fuzzer>, String> {
    let fuzzer = FuzzerKind::parse(name)?.build(seed);
    Ok(if mhart {
        Box::new(InterleaveFuzzer::new(seed, fuzzer))
    } else {
        fuzzer
    })
}

fn fail(msg: &str) -> ! {
    eprintln!("smoke: FAIL: {msg}");
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seed: u64 = arg_num(&args, "--seed", 1);
    let cases: u64 = arg_num(&args, "--cases", 60);
    let batch: usize = arg_num(&args, "--batch", 4).max(1);
    let threads: usize = arg_num(&args, "--threads", 2).max(1);
    let fuzzer_name = arg_value(&args, "--fuzzer").unwrap_or_else(|| "hfl".to_owned());
    let log = arg_value(&args, "--log").unwrap_or_else(|| "telemetry.jsonl".to_owned());
    let checkpoint_dir = arg_value(&args, "--checkpoint-dir");
    let checkpoint_every: u64 = arg_num(&args, "--checkpoint-every", 1);
    let resume = args.iter().any(|a| a == "--resume");
    let fault_case = arg_value(&args, "--fault-case").map(|v| {
        v.parse::<u64>()
            .unwrap_or_else(|_| fail(&format!("--fault-case {v}: not a case index")))
    });
    let fault_sticky = args.iter().any(|a| a == "--fault-sticky");
    let max_retries: u32 = arg_num(&args, "--max-retries", 1);
    let bug = arg_value(&args, "--bug");
    let mhart = args.iter().any(|a| a == "--mhart") || bug.is_some();

    let mut fuzzer: Box<dyn Fuzzer> = match &bug {
        // The sweep always starts at interleaving seed 0: the defect
        // matrix guarantees every class is exposed within 0..64.
        Some(id) => {
            if !hfl_dut::bugs::find(id).is_some_and(|b| b.concurrency) {
                fail(&format!("--bug {id}: not a catalogued concurrency defect"));
            }
            Box::new(SeedSweepFuzzer {
                bug_id: id.clone(),
                next_seed: 0,
            })
        }
        None => make_fuzzer(&fuzzer_name, seed, mhart)
            .unwrap_or_else(|err| fail(&format!("--fuzzer: {err}"))),
    };
    let config = CampaignConfig::quick(cases).with_batch(batch);
    let mut builder = CampaignSpec::builder(CoreKind::Rocket, config)
        .mhart(mhart)
        .threads(threads);
    if let Some(id) = &bug {
        let mut quirks = hfl_grm::cpu::Quirks::default();
        hfl_dut::bugs::enable(&mut quirks, id, CoreKind::Rocket);
        builder = builder.quirks(quirks);
    }
    if let Some(dir) = &checkpoint_dir {
        builder = builder.checkpoint(CheckpointPolicy::new(dir, checkpoint_every));
        if resume {
            match CheckpointPolicy::latest_snapshot(Path::new(dir)) {
                Some(snapshot) => builder = builder.resume_from(snapshot),
                None => fail(&format!("--resume: no snapshot in {dir}")),
            }
        }
    } else if resume {
        fail("--resume needs --checkpoint-dir");
    }
    if let Some(case) = fault_case {
        let kind = match arg_value(&args, "--fault-kind").as_deref() {
            Some("hang") => FaultKind::Hang,
            Some("ioerror") => FaultKind::IoError,
            Some("panic") | None => FaultKind::Panic,
            Some(other) => fail(&format!("--fault-kind {other}: unknown kind")),
        };
        let plan = if fault_sticky {
            FaultPlan::new().fail_at_persistent(case, kind)
        } else {
            FaultPlan::new().fail_at(case, kind)
        };
        builder = builder.fault_plan(plan).fault_policy(FaultPolicy {
            max_retries,
            fuel: None,
        });
    }
    // Creating the log truncates an earlier one, so it waits until the
    // run is known to be valid.
    if let Err(err) = builder.clone().build() {
        fail(&format!("invalid spec: {err}"));
    }
    let sink = match JsonlSink::create(&log) {
        Ok(sink) => SinkHandle::new(Arc::new(sink)),
        Err(err) => fail(&format!("{log}: {err}")),
    };
    let spec = builder.sink(sink).build().expect("the spec was validated");
    let result = match run_campaign(fuzzer.as_mut(), &spec) {
        Ok(result) => result,
        Err(err) => fail(&format!("campaign failed: {err}")),
    };
    if let Some(err) = &result.sink_error {
        fail(&format!("telemetry sink failed: {err}"));
    }

    let events = match read_jsonl(&log) {
        Ok(events) => events,
        Err(err) => fail(&format!("log unparseable: {err}")),
    };
    if events.is_empty() {
        fail("log contains no events");
    }
    let executed = events
        .iter()
        .filter(|e| matches!(e, Event::CaseExecuted { .. }))
        .count() as u64;
    let aborted = events
        .iter()
        .filter(|e| matches!(e, Event::CaseAborted { .. }))
        .count() as u64;
    // A resumed run's log only holds the post-resume tail, so the exact
    // per-case counts are checked on uninterrupted runs only; the
    // round-replay checks below hold either way because `RoundEnd`
    // carries cumulative values.
    if !resume && executed + aborted != cases {
        fail(&format!(
            "{executed} case_executed + {aborted} case_aborted events, expected {cases}"
        ));
    }
    if !resume && aborted != result.aborted_cases {
        fail(&format!(
            "{aborted} case_aborted events, campaign reported {}",
            result.aborted_cases
        ));
    }
    let rows = replay_rounds(&events);
    if rows.is_empty() {
        fail("replayed table is empty");
    }
    // The replayed table must reconstruct the campaign's own coverage
    // curve: every curve sample falling on a round boundary appears in the
    // table with identical cumulative counts, and the final state matches.
    let end = rows.last().expect("non-empty");
    let (c, l, f) = result.final_counts();
    if (end.cases, end.condition, end.line, end.fsm) != (cases, c as u64, l as u64, f as u64) {
        fail(&format!(
            "replay end {:?} != campaign end {:?}",
            (end.cases, end.condition, end.line, end.fsm),
            (cases, c, l, f)
        ));
    }
    if end.unique_signatures != result.unique_signatures as u64 {
        fail("replayed signature count diverged");
    }
    if !resume && end.retired != result.instructions_executed {
        fail("replayed retired-instruction count diverged");
    }
    let mut matched = 0usize;
    for sample in &result.curve {
        if let Some(row) = rows.iter().find(|r| r.cases == sample.cases) {
            matched += 1;
            if (row.condition, row.line, row.fsm)
                != (
                    sample.condition as u64,
                    sample.line as u64,
                    sample.fsm as u64,
                )
            {
                fail(&format!(
                    "curve disagrees at {} cases: replay ({}, {}, {}) vs campaign \
                     ({}, {}, {})",
                    sample.cases,
                    row.condition,
                    row.line,
                    row.fsm,
                    sample.condition,
                    sample.line,
                    sample.fsm
                ));
            }
        }
    }
    if matched == 0 {
        fail("no curve sample fell on a round boundary");
    }
    let phases: Vec<&str> = [
        "phase.generate.seconds",
        "phase.execute.seconds",
        "phase.difftest.seconds",
        "phase.train.seconds",
    ]
    .into_iter()
    .filter(|name| result.metrics.histogram(name).is_none())
    .collect();
    if !phases.is_empty() {
        fail(&format!("missing phase metrics: {phases:?}"));
    }
    if let Some(id) = &bug {
        // The seed sweep must realise the race, and the PoC's corpus name
        // must carry the interleaving seed it replays under.
        if result.unique_signatures == 0 {
            fail(&format!(
                "--bug {id}: no PoC found in {cases} interleavings"
            ));
        }
        let entries = result.trigger_corpus.entries();
        let named = entries.iter().filter(|e| e.name.contains("+seed")).count();
        if named != entries.len() {
            fail(&format!(
                "--bug {id}: {named}/{} PoC names carry their +seed suffix",
                entries.len()
            ));
        }
        println!(
            "smoke: mhart: {id} exposed with {} signature(s), first PoC {:?}",
            result.unique_signatures, entries[0].name
        );
    }
    let label = match &bug {
        Some(id) => format!("seed-sweep {id}"),
        None if mhart => format!("mhart {fuzzer_name}"),
        None => fuzzer_name.clone(),
    };
    println!(
        "smoke: OK: {} ({label}, seed {seed}): {} events, {} rounds, {matched} curve \
         samples reconstructed, final coverage ({c}, {l}, {f}), {} signatures",
        log,
        events.len(),
        rows.len(),
        result.unique_signatures
    );
}
