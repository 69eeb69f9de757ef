//! Replays a campaign's JSONL telemetry log into a per-round
//! coverage/throughput table — Fig. 4-style curves from any past run,
//! without re-executing a single test case.
//!
//! ```text
//! usage: campaign_report [--log FILE] [--every 1] [--fleet] [--follow]
//!     [--sse HOST:PORT/jobs/ID/events]
//! ```
//!
//! A replay needs `--log`; `--follow` needs exactly one of `--log` and
//! `--sse`, and renders round tables only (no `--fleet`). `--every N`
//! prints every Nth round (plus the last) to keep long campaigns
//! readable. `--fleet` switches to fleet-log mode: the events are grouped
//! per member into a per-epoch progress table (with the scheduler's rate
//! estimates and next-epoch budgets), followed by the merged-coverage /
//! corpus-sync epoch table.
//!
//! `--follow` tails a live campaign instead of replaying a finished
//! one, printing each round row as the round completes. The source is
//! either a growing JSONL file (`--log`, like `tail -f`) or an
//! `hfl-serve` SSE endpoint (`--sse host:port/jobs/<id>/events`, the
//! same frames any other subscriber sees). File mode follows until
//! interrupted; SSE mode exits when the daemon sends the `end` frame.

use std::time::Duration;

use hfl::cli::Args;
use hfl::obs::{read_jsonl, replay_fleet, replay_rounds, Event};
use hfl_serve::SseClient;

fn fleet_report(path: &str, events: &[Event]) -> ! {
    let replay = replay_fleet(events);
    if replay.epochs.is_empty() && replay.members.is_empty() {
        eprintln!(
            "campaign_report: {path}: no fleet events in log ({} events); \
             is this a single-campaign log?",
            events.len()
        );
        std::process::exit(1);
    }
    let members = replay
        .members
        .iter()
        .map(|m| m.member)
        .max()
        .map_or(0, |m| m as usize + 1);
    println!(
        "{path}: {} events, {} epochs, {} members",
        events.len(),
        replay.epochs.len(),
        members
    );
    println!("{:-<86}", "");
    println!(
        "{:>6} {:>7} {:>9} {:>10} {:>8} {:>6} {:>6} {:>10} {:>11}",
        "epoch", "member", "executed", "condition", "line", "fsm", "sigs", "rate m/c", "next cases"
    );
    println!("{:-<86}", "");
    for row in &replay.members {
        println!(
            "{:>6} {:>7} {:>9} {:>10} {:>8} {:>6} {:>6} {:>10} {:>11}",
            row.epoch,
            row.member,
            row.executed,
            row.condition,
            row.line,
            row.fsm,
            row.unique_signatures,
            row.rate_milli,
            row.next_budget,
        );
    }
    println!("{:-<86}", "");
    println!(
        "{:>6} {:>8} {:>10} {:>8} {:>6} {:>6} {:>8} {:>6} {:>8} {:>9}",
        "epoch",
        "cases",
        "condition",
        "line",
        "fsm",
        "sigs",
        "inserted",
        "dups",
        "evicted",
        "distill"
    );
    println!("{:-<86}", "");
    for row in &replay.epochs {
        println!(
            "{:>6} {:>8} {:>10} {:>8} {:>6} {:>6} {:>8} {:>6} {:>8} {:>4}->{:>3}",
            row.epoch,
            row.cases,
            row.condition,
            row.line,
            row.fsm,
            row.unique_signatures,
            row.inserted,
            row.duplicates,
            row.evicted,
            row.distilled_from,
            row.distilled_to,
        );
    }
    println!("{:-<86}", "");
    if let Some(end) = replay.epochs.last() {
        println!(
            "final: {} cases, merged coverage ({}, {}, {}), {} unique signatures",
            end.cases, end.condition, end.line, end.fsm, end.unique_signatures
        );
    }
    std::process::exit(0);
}

/// The per-round table header (shared by replay and follow modes).
fn print_round_header() {
    println!("{:-<86}", "");
    println!(
        "{:>7} {:>8} {:>10} {:>8} {:>6} {:>6} {:>12} {:>10} {:>9}",
        "round", "cases", "condition", "line", "fsm", "sigs", "retired", "occupancy", "exec s"
    );
    println!("{:-<86}", "");
}

/// One formatted row of the per-round table.
fn print_round_row(row: &hfl::obs::RoundRow) {
    println!(
        "{:>7} {:>8} {:>10} {:>8} {:>6} {:>6} {:>12} {:>9.0}% {:>9.3}",
        row.round,
        row.cases,
        row.condition,
        row.line,
        row.fsm,
        row.unique_signatures,
        row.retired,
        100.0 * row.occupancy,
        row.exec_seconds,
    );
}

/// The closing summary under the table.
fn print_final(rows: &[hfl::obs::RoundRow]) {
    println!("{:-<86}", "");
    if let Some(end) = rows.last() {
        println!(
            "final: {} cases, coverage ({}, {}, {}), {} unique signatures, {} instructions retired",
            end.cases, end.condition, end.line, end.fsm, end.unique_signatures, end.retired
        );
    }
}

/// Prints any rounds beyond `printed` and returns the new high-water
/// mark — the incremental step both follow sources share.
fn print_new_rounds(events: &[Event], printed: usize) -> usize {
    let rows = replay_rounds(events);
    for row in &rows[printed.min(rows.len())..] {
        print_round_row(row);
    }
    rows.len()
}

/// Follows a growing JSONL file like `tail -f`, printing each round as
/// its `round_end` lands. Runs until interrupted.
fn follow_file(path: &str) -> ! {
    let mut events: Vec<Event> = Vec::new();
    let mut consumed = 0usize;
    let mut printed = 0usize;
    println!("{path}: following (Ctrl-C to stop)");
    print_round_header();
    loop {
        match std::fs::read_to_string(path) {
            Ok(text) => {
                for line in text.lines().skip(consumed) {
                    consumed += 1;
                    if let Some(event) = Event::from_json(line) {
                        events.push(event);
                    }
                }
                printed = print_new_rounds(&events, printed);
            }
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => {
                // The campaign may not have created the log yet.
            }
            Err(err) => {
                eprintln!("campaign_report: {path}: {err}");
                std::process::exit(1);
            }
        }
        std::thread::sleep(Duration::from_millis(250));
    }
}

/// Follows an `hfl-serve` SSE endpoint (`host:port/jobs/<id>/events`),
/// printing rounds live and exiting when the daemon ends the stream.
fn follow_sse(endpoint: &str) -> ! {
    let Some((addr, path)) = endpoint.split_once('/') else {
        eprintln!("campaign_report: --sse wants host:port/jobs/<id>/events, got {endpoint:?}");
        std::process::exit(2);
    };
    let path = format!("/{path}");
    let mut client = match SseClient::connect(addr, &path) {
        Ok(client) => client,
        Err(err) => {
            eprintln!("campaign_report: {endpoint}: {err}");
            std::process::exit(1);
        }
    };
    let mut events: Vec<Event> = Vec::new();
    let mut printed = 0usize;
    println!("{endpoint}: following live event stream");
    print_round_header();
    loop {
        match client.next_frame() {
            Ok(Some(frame)) => match frame.event.as_deref() {
                None => {
                    if let Some(event) = Event::from_json(&frame.data) {
                        events.push(event);
                        printed = print_new_rounds(&events, printed);
                    }
                }
                Some("lag") => {
                    eprintln!("campaign_report: warning: stream lagged, rounds may be missing");
                }
                Some("end") => {
                    print_final(&replay_rounds(&events));
                    std::process::exit(0);
                }
                Some(_) => {}
            },
            Ok(None) => {} // poll timeout; keep waiting
            Err(err) => {
                eprintln!("campaign_report: {endpoint}: {err}");
                std::process::exit(1);
            }
        }
    }
}

fn main() {
    let mut args = Args::from_env();
    let log: Option<String> = args.opt("--log", "FILE");
    let every: u64 = args.value_in("--every", 1, 1..);
    let fleet = args.switch("--fleet");
    let follow = args.switch("--follow");
    let sse: Option<String> = args.opt("--sse", "HOST:PORT/jobs/ID/events");
    args.done();
    let path = match (follow && !fleet, sse, log) {
        (true, Some(endpoint), None) => follow_sse(&endpoint),
        (true, None, Some(path)) => follow_file(&path),
        (false, None, Some(path)) if !follow => path,
        _ => {
            eprintln!("campaign_report: give --log, or --follow with --log or --sse (no --fleet)");
            std::process::exit(2);
        }
    };

    let events = match read_jsonl(&path) {
        Ok(events) => events,
        Err(err) => {
            eprintln!("campaign_report: {path}: {err}");
            std::process::exit(1);
        }
    };
    if fleet {
        fleet_report(&path, &events);
    }
    let rows = replay_rounds(&events);
    if rows.is_empty() {
        eprintln!(
            "campaign_report: {path}: no rounds in log ({} events)",
            events.len()
        );
        std::process::exit(1);
    }

    let ppo_updates = events
        .iter()
        .filter(|e| matches!(e, Event::PpoUpdate { .. }))
        .count();
    let predictor_evals = events
        .iter()
        .filter(|e| matches!(e, Event::PredictorEval { .. }))
        .count();
    let aborted = events
        .iter()
        .filter(|e| matches!(e, Event::CaseAborted { .. }))
        .count();
    println!(
        "{path}: {} events, {} rounds, {} ppo updates, {} predictor evals, {} aborted cases",
        events.len(),
        rows.len(),
        ppo_updates,
        predictor_evals,
        aborted
    );
    print_round_header();
    let last = rows.len() - 1;
    for (i, row) in rows.iter().enumerate() {
        if !(i as u64).is_multiple_of(every) && i != last {
            continue;
        }
        print_round_row(row);
    }
    print_final(&rows);
}
