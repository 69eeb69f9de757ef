//! Fleet smoke harness for CI: runs a multi-member fleet with the JSONL
//! sink attached, re-reads the log, and verifies the replayed epoch table
//! reconstructs the fleet's own merged coverage curve. With `--compare`
//! it additionally runs each member as a standalone campaign on the
//! fleet's **total** case budget and asserts the merged ensemble covers
//! at least as much as the best single member. Exits non-zero on any
//! disagreement.
//!
//! ```text
//! usage: fleet [--members difuzz:7,cascade:1] [--core rocket] [--epochs 4]
//!     [--cases-per-epoch 24] [--batch 4] [--threads 2] [--log fleet.jsonl]
//!     [--checkpoint-dir DIR] [--checkpoint-every 1] [--resume] [--compare]
//!     [--distributed] [--worker-bin FILE]
//! ```
//!
//! `--members` is a comma-separated list of `fuzzer:seed` pairs
//! (`hfl|difuzz|thehuzz|cascade`), and `--core` is one of `rocket`,
//! `boom` and `cva6`. With `--checkpoint-dir` the fleet snapshots every
//! `--checkpoint-every` epochs; `--resume` continues from `fleet.ckpt`
//! there — the CI job kills the first run partway and diffs the resumed
//! run's final line against an uninterrupted one.
//!
//! `--distributed` runs the fleet over the `hfl::wire` protocol instead
//! of in process: with `--worker-bin` each member is a separate
//! `fleet_worker` process (what the CI `fleet-dist-smoke` job SIGKILLs
//! mid-epoch), without it protocol-identical worker threads. The final
//! greppable line must be bit-identical either way.

use std::path::Path;
use std::sync::Arc;

use hfl::campaign::{run_campaign, CampaignConfig, CampaignSpec};
use hfl::cli::Args;
use hfl::fleet::{check_line_up, run_fleet, FleetConfig, FleetMember, FleetSpec};
use hfl::fleet_dist::{
    run_fleet_dist, DistConfig, ProcessLauncher, ThreadLauncher, WorkerLauncher,
};
use hfl::obs::{read_jsonl, replay_fleet, JsonlSink, SinkHandle};
use hfl::spec::{parse_core, MemberSpec};
use hfl::FleetResult;

fn fail(msg: &str) -> ! {
    eprintln!("fleet: FAIL: {msg}");
    std::process::exit(1);
}

fn main() {
    let mut args = Args::from_env();
    let members_spec: String = args.value("--members", "difuzz:7,cascade:1".to_owned());
    let core: String = args.value("--core", "rocket".to_owned());
    let epochs: u64 = args.value("--epochs", 4);
    let cases_per_epoch: u64 = args.value("--cases-per-epoch", 24);
    let batch: usize = args.value("--batch", 4);
    let threads: usize = args.value("--threads", 2);
    let log: String = args.value("--log", "fleet.jsonl".to_owned());
    let checkpoint_dir: Option<String> = args.opt("--checkpoint-dir", "DIR");
    let checkpoint_every: u64 = args.value("--checkpoint-every", 1);
    let resume = args.switch("--resume");
    let compare = args.switch("--compare");
    let distributed = args.switch("--distributed");
    let worker_bin: Option<String> = args.opt("--worker-bin", "FILE");
    args.done();
    let distributed = distributed || worker_bin.is_some();

    let core = parse_core(&core).unwrap_or_else(|err| fail(&format!("--core: {err}")));
    let specs = MemberSpec::parse_list(&members_spec, core)
        .unwrap_or_else(|err| fail(&format!("--members: {err}")));

    let config = FleetConfig::quick(epochs, cases_per_epoch).with_batch(batch);
    let mut builder = FleetSpec::builder(config).threads(threads);
    if let Some(dir) = &checkpoint_dir {
        builder = builder.checkpoint(hfl::campaign::CheckpointPolicy::new(dir, checkpoint_every));
        if resume {
            match hfl::campaign::CheckpointPolicy::latest_fleet_snapshot(Path::new(dir)) {
                Some(snapshot) => builder = builder.resume_from(snapshot),
                None => fail(&format!("--resume: no fleet.ckpt in {dir}")),
            }
        }
    } else if resume {
        fail("--resume needs --checkpoint-dir");
    }
    // Creating the log truncates an earlier one, so it waits until the
    // run is known to be valid.
    match builder.clone().build() {
        Ok(spec) => {
            if let Err(err) = check_line_up(specs.len(), &spec) {
                fail(&format!("fleet failed: {err}"));
            }
        }
        Err(err) => fail(&format!("invalid spec: {err}")),
    }
    let sink = match JsonlSink::create(&log) {
        Ok(sink) => SinkHandle::new(Arc::new(sink)),
        Err(err) => fail(&format!("{log}: {err}")),
    };
    let spec = builder.sink(sink).build().expect("the spec was validated");

    let result: FleetResult = if distributed {
        let mut launcher: Box<dyn WorkerLauncher> = match &worker_bin {
            Some(bin) => Box::new(ProcessLauncher::new(bin)),
            None => Box::new(ThreadLauncher::new()),
        };
        match run_fleet_dist(&specs, &spec, &DistConfig::default(), launcher.as_mut()) {
            Ok(result) => result,
            Err(err) => fail(&format!("distributed fleet failed: {err}")),
        }
    } else {
        let mut members: Vec<FleetMember> = specs.iter().map(MemberSpec::build_member).collect();
        match run_fleet(&mut members, &spec) {
            Ok(result) => result,
            Err(err) => fail(&format!("fleet failed: {err}")),
        }
    };
    if let Some(err) = &result.sink_error {
        fail(&format!("telemetry sink failed: {err}"));
    }

    // The replayed epoch table must reconstruct the fleet's merged curve.
    let events = match read_jsonl(&log) {
        Ok(events) => events,
        Err(err) => fail(&format!("log unparseable: {err}")),
    };
    let replay = replay_fleet(&events);
    if replay.epochs.is_empty() {
        fail("replayed fleet table is empty");
    }
    // A resumed run's log only holds the post-resume tail; replay checks
    // per-epoch rows that are present either way.
    for row in &replay.epochs {
        let Some(sample) = result.merged_curve.iter().find(|s| s.epoch == row.epoch) else {
            fail(&format!("replayed epoch {} not in merged curve", row.epoch));
        };
        if (row.cases, row.condition, row.line, row.fsm)
            != (
                sample.cases,
                sample.condition as u64,
                sample.line as u64,
                sample.fsm as u64,
            )
        {
            fail(&format!(
                "merged curve disagrees at epoch {}: replay ({}, {}, {}) vs fleet ({}, {}, {})",
                row.epoch,
                row.condition,
                row.line,
                row.fsm,
                sample.condition,
                sample.line,
                sample.fsm
            ));
        }
    }
    let per_member = replay.members.iter().filter(|m| m.member == 0).count();
    if per_member != replay.epochs.len() {
        fail(&format!(
            "{} member-0 progress rows for {} epochs",
            per_member,
            replay.epochs.len()
        ));
    }
    for name in [
        "fleet.sync.seconds",
        "fleet.distill.seconds",
        "fleet.schedule.seconds",
    ] {
        if result.metrics.histogram(name).is_none() {
            fail(&format!("missing fleet metric {name}"));
        }
    }

    let (mc, ml, mf) = result.final_counts();
    if compare {
        // Each member standalone, on the fleet's *total* budget.
        let total = epochs * cases_per_epoch;
        let mut best = (0usize, 0usize, 0usize, String::new());
        for member in &specs {
            let mut fuzzer = member.fuzzer.build(member.seed);
            let name = member.display_name();
            let spec = CampaignSpec::builder(core, CampaignConfig::quick(total).with_batch(batch))
                .threads(threads)
                .build()
                .unwrap_or_else(|err| fail(&format!("invalid compare spec: {err}")));
            let solo = run_campaign(fuzzer.as_mut(), &spec)
                .unwrap_or_else(|err| fail(&format!("compare campaign failed: {err}")));
            let (c, l, f) = solo.final_counts();
            println!("compare: {name} solo on {total} cases: coverage ({c}, {l}, {f})");
            if c + l + f > best.0 + best.1 + best.2 {
                best = (c, l, f, name);
            }
        }
        if mc + ml + mf < best.0 + best.1 + best.2 {
            fail(&format!(
                "merged coverage ({mc}, {ml}, {mf}) below best single member {} \
                 ({}, {}, {}) on the same total budget",
                best.3, best.0, best.1, best.2
            ));
        }
        println!(
            "compare: OK: merged ({mc}, {ml}, {mf}) >= best single {} ({}, {}, {})",
            best.3, best.0, best.1, best.2
        );
    }

    println!(
        "fleet: OK: {} members, {} epochs, {} corpus entries ({} inserted, {} duplicates)",
        result.members.len(),
        result.merged_curve.len(),
        result.corpus.len(),
        result.corpus.stats().inserted,
        result.corpus.stats().duplicates,
    );
    // Greppable by the CI resume-diff check: must be bit-identical across
    // interrupted-and-resumed and uninterrupted runs, and across the
    // in-process and distributed runtimes.
    println!(
        "final merged coverage ({mc}, {ml}, {mf}), {} unique signatures, {} cases",
        result
            .merged_curve
            .last()
            .map_or(0, |s| s.unique_signatures),
        result.merged_curve.last().map_or(0, |s| s.cases),
    );
}
