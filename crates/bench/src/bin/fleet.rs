//! Fleet smoke harness for CI: runs a multi-member fleet with the JSONL
//! sink attached, re-reads the log, and verifies the replayed epoch table
//! reconstructs the fleet's own merged coverage curve. With `--compare`
//! it additionally runs each member as a standalone campaign on the
//! fleet's **total** case budget and asserts the merged ensemble covers
//! at least as much as the best single member. Exits non-zero on any
//! disagreement.
//!
//! ```text
//! cargo run --release -p hfl-bench --bin fleet -- \
//!     [--members difuzz:5,thehuzz:9] [--core rocket|boom|cva6] \
//!     [--epochs N] [--cases-per-epoch N] [--batch N] [--threads N] \
//!     [--log fleet.jsonl] [--checkpoint-dir DIR] [--checkpoint-every E] \
//!     [--resume] [--compare] \
//!     [--distributed] [--worker-bin path/to/fleet_worker] \
//!     [--fault-worker I --fault-die-epoch N] \
//!     [--fault-worker I --fault-sleep-epoch N --fault-sleep-ms M]
//! ```
//!
//! `--members` is a comma-separated list of `fuzzer:seed` pairs
//! (`hfl|difuzz|thehuzz|cascade`). With `--checkpoint-dir` the fleet
//! snapshots every `--checkpoint-every` epochs (default 1); `--resume`
//! continues from `fleet.ckpt` there — the CI job kills the first run
//! partway and diffs the resumed run's final line against an
//! uninterrupted one.
//!
//! `--distributed` runs the fleet over the `hfl::wire` protocol instead
//! of in process: with `--worker-bin` each member is a separate
//! `fleet_worker` process (what the CI `fleet-dist-smoke` job SIGKILLs
//! mid-epoch), without it protocol-identical worker threads. The final
//! greppable line must be bit-identical either way. The `--fault-*`
//! flags inject a first-launch crash or stall into one worker to
//! exercise respawn and quorum/deadline epoch close.

use std::path::Path;
use std::sync::Arc;

use hfl::campaign::{run_campaign, CampaignConfig, CampaignSpec};
use hfl::fleet::{run_fleet, FleetConfig, FleetMember, FleetSpec};
use hfl::fleet_dist::{
    run_fleet_dist, DistConfig, ProcessLauncher, ThreadLauncher, WorkerFault, WorkerLauncher,
};
use hfl::obs::{read_jsonl, replay_fleet, JsonlSink, SinkHandle};
use hfl::spec::{parse_core, MemberSpec};
use hfl::FleetResult;
use hfl_bench::{arg_num, arg_value};
use hfl_dut::CoreKind;

fn fail(msg: &str) -> ! {
    eprintln!("fleet: FAIL: {msg}");
    std::process::exit(1);
}

/// The `--fault-*` flags as a [`WorkerFault`] plus its target index.
fn parse_fault(args: &[String]) -> Option<(usize, WorkerFault)> {
    let worker: Option<usize> = arg_value(args, "--fault-worker").map(|v| {
        v.parse()
            .unwrap_or_else(|_| fail(&format!("--fault-worker {v:?} is not an index")))
    });
    let fault = WorkerFault {
        die_at_epoch: arg_value(args, "--fault-die-epoch").map(|v| {
            v.parse()
                .unwrap_or_else(|_| fail(&format!("--fault-die-epoch {v:?} is not a number")))
        }),
        sleep_at_epoch: arg_value(args, "--fault-sleep-epoch").map(|v| {
            v.parse()
                .unwrap_or_else(|_| fail(&format!("--fault-sleep-epoch {v:?} is not a number")))
        }),
        sleep_millis: arg_num(args, "--fault-sleep-ms", 2_000),
    };
    match (
        worker,
        fault.die_at_epoch.is_some() || fault.sleep_at_epoch.is_some(),
    ) {
        (Some(index), true) => Some((index, fault)),
        (Some(_), false) => fail("--fault-worker needs --fault-die-epoch or --fault-sleep-epoch"),
        (None, true) => fail("--fault-die-epoch/--fault-sleep-epoch need --fault-worker"),
        (None, false) => None,
    }
}

/// The fault flags a `fleet_worker` process re-parses on launch.
fn fault_args(fault: &WorkerFault) -> Vec<String> {
    let mut args = Vec::new();
    if let Some(epoch) = fault.die_at_epoch {
        args.push(String::from("--fault-die-epoch"));
        args.push(epoch.to_string());
    }
    if let Some(epoch) = fault.sleep_at_epoch {
        args.push(String::from("--fault-sleep-epoch"));
        args.push(epoch.to_string());
        args.push(String::from("--fault-sleep-ms"));
        args.push(fault.sleep_millis.to_string());
    }
    args
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let members_spec =
        arg_value(&args, "--members").unwrap_or_else(|| "difuzz:7,cascade:1".to_owned());
    let core = match arg_value(&args, "--core") {
        Some(name) => parse_core(&name).unwrap_or_else(|err| fail(&format!("--core: {err}"))),
        None => CoreKind::Rocket,
    };
    let epochs: u64 = arg_num(&args, "--epochs", 4);
    let cases_per_epoch: u64 = arg_num(&args, "--cases-per-epoch", 24);
    let batch: usize = arg_num(&args, "--batch", 4).max(1);
    let threads: usize = arg_num(&args, "--threads", 2).max(1);
    let log = arg_value(&args, "--log").unwrap_or_else(|| "fleet.jsonl".to_owned());
    let checkpoint_dir = arg_value(&args, "--checkpoint-dir");
    let checkpoint_every: u64 = arg_num(&args, "--checkpoint-every", 1);
    let resume = args.iter().any(|a| a == "--resume");
    let compare = args.iter().any(|a| a == "--compare");
    let worker_bin = arg_value(&args, "--worker-bin");
    let distributed = args.iter().any(|a| a == "--distributed") || worker_bin.is_some();
    let fault = parse_fault(&args);
    if fault.is_some() && !distributed {
        fail("--fault-worker needs --distributed");
    }

    let specs = MemberSpec::parse_list(&members_spec, core)
        .unwrap_or_else(|err| fail(&format!("--members: {err}")));
    if specs.is_empty() {
        fail("--members is empty");
    }

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
    if let Err(err) = builder.clone().build() {
        fail(&format!("invalid spec: {err}"));
    }
    let sink = match JsonlSink::create(&log) {
        Ok(sink) => SinkHandle::new(Arc::new(sink)),
        Err(err) => fail(&format!("{log}: {err}")),
    };
    let spec = builder.sink(sink).build().expect("the spec was validated");

    let result: FleetResult = if distributed {
        let mut launcher: Box<dyn WorkerLauncher> = match &worker_bin {
            Some(bin) => {
                let mut launcher = ProcessLauncher::new(bin);
                if let Some((index, fault)) = &fault {
                    launcher = launcher.with_first_launch_args(*index, fault_args(fault));
                }
                Box::new(launcher)
            }
            None => {
                let mut launcher = ThreadLauncher::new();
                if let Some((index, fault)) = &fault {
                    launcher = launcher.with_fault(*index, *fault);
                }
                Box::new(launcher)
            }
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
    // A faulted worker may legitimately miss an epoch's progress row; only
    // the healthy path insists on one row per member per epoch.
    if fault.is_none() {
        let per_member = replay.members.iter().filter(|m| m.member == 0).count();
        if per_member != replay.epochs.len() {
            fail(&format!(
                "{} member-0 progress rows for {} epochs",
                per_member,
                replay.epochs.len()
            ));
        }
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
