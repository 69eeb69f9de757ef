//! End-to-end service tests: submit jobs to an in-process `hfl-serve`
//! daemon over real TCP, stream their event protocols via SSE, download
//! artifacts, and prove the two determinism contracts:
//!
//! 1. the SSE stream every subscriber receives is bit-identical (timing
//!    events aside) to the same spec run in-process with a plain
//!    `JsonlSink` — at two concurrent jobs with two subscribers each;
//! 2. a job interrupted by a daemon drain (the SIGTERM path) and
//!    resumed by a restarted daemon produces a combined event log and
//!    coverage curve bit-identical to an uninterrupted run.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use hfl::campaign::{run_campaign, CampaignConfig, CampaignSpec, RunConfig};
use hfl::fleet::{run_fleet, FleetConfig, FleetMember, FleetSpec};
use hfl::json::Fields;
use hfl::obs::JsonlSink;
use hfl::spec::{FuzzerKind, MemberSpec};
use hfl::SinkHandle;
use hfl_dut::CoreKind;
use hfl_serve::{http_request, spawn, DaemonConfig, SseParser};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("hfl-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Keeps the JSONL lines that take part in determinism comparisons
/// (everything but wall-clock `pool_occupancy` telemetry).
fn non_timing(lines: &str) -> Vec<String> {
    lines
        .lines()
        .filter(|l| !l.is_empty() && !l.contains("\"type\":\"pool_occupancy\""))
        .map(str::to_owned)
        .collect()
}

/// Subscribes to a job's SSE stream and collects every data frame until
/// the server's `end` frame (or panics after `deadline`).
fn subscribe(addr: &str, id: u64, deadline: Duration) -> (Vec<String>, u64) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_millis(500)))
        .expect("timeout");
    write!(
        stream,
        "GET /jobs/{id}/events HTTP/1.1\r\nHost: e2e\r\nConnection: close\r\n\r\n"
    )
    .expect("request");
    let started = Instant::now();
    let mut parser = SseParser::new();
    let mut lines = Vec::new();
    let mut dropped = 0;
    let mut buf = [0u8; 4096];
    let mut head = Vec::new();
    let mut head_done = false;
    loop {
        assert!(
            started.elapsed() < deadline,
            "job {id}: no end frame within {deadline:?} ({} lines so far)",
            lines.len()
        );
        let n = match stream.read(&mut buf) {
            Ok(0) => panic!("job {id}: connection closed before end frame"),
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(e) => panic!("job {id}: read: {e}"),
        };
        let chunk: Vec<u8> = if head_done {
            buf[..n].to_vec()
        } else {
            // Strip the HTTP response head before feeding the SSE parser.
            head.extend_from_slice(&buf[..n]);
            let Some(pos) = head.windows(4).position(|w| w == b"\r\n\r\n") else {
                continue;
            };
            let head_text = String::from_utf8_lossy(&head[..pos]).to_string();
            assert!(head_text.contains("200"), "job {id}: SSE head: {head_text}");
            assert!(head_text.contains("text/event-stream"), "{head_text}");
            head_done = true;
            head.split_off(pos + 4)
        };
        for frame in parser.push(&chunk) {
            match frame.event.as_deref() {
                None => lines.push(frame.data),
                Some("lag") => {
                    dropped += Fields::parse(&frame.data)
                        .and_then(|f| f.u64("missed"))
                        .unwrap_or(0);
                }
                Some("end") => return (lines, dropped),
                Some(other) => panic!("job {id}: unexpected event {other:?}"),
            }
        }
    }
}

/// Polls `/jobs/<id>` until its status is in `want` (or panics).
fn wait_status(addr: &str, id: u64, want: &[&str], deadline: Duration) -> Fields {
    let started = Instant::now();
    loop {
        let (status, body) =
            http_request(addr, "GET", &format!("/jobs/{id}"), None).expect("status request");
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
        let text = String::from_utf8_lossy(&body).to_string();
        let fields = Fields::parse(text.trim()).expect("status json");
        let current = fields.str("status").expect("status field").to_owned();
        if want.contains(&current.as_str()) {
            return fields;
        }
        assert!(
            started.elapsed() < deadline,
            "job {id}: stuck at {current:?}, wanted {want:?}"
        );
        thread::sleep(Duration::from_millis(25));
    }
}

/// The reference: the same campaign spec run in-process.
fn offline_campaign(dir: &Path, fuzzer: &str, seed: u64, cases: u64, batch: usize) -> Vec<String> {
    let log = dir.join("offline-campaign.jsonl");
    let sink = SinkHandle::new(Arc::new(JsonlSink::create(&log).expect("sink")));
    let config = CampaignConfig {
        cases,
        sample_every: cases,
        run: RunConfig::quick().with_batch(batch),
    };
    let spec = CampaignSpec::builder(CoreKind::Rocket, config)
        .sink(sink)
        .build()
        .expect("spec");
    let mut f = FuzzerKind::parse(fuzzer).expect("fuzzer").build(seed);
    run_campaign(f.as_mut(), &spec).expect("offline campaign");
    non_timing(&std::fs::read_to_string(&log).expect("offline log"))
}

/// The reference fleet run, mirroring the serve-side member convention.
fn offline_fleet(
    dir: &Path,
    members: &[(&str, u64)],
    epochs: u64,
    cases_per_epoch: u64,
    batch: usize,
) -> Vec<String> {
    let log = dir.join("offline-fleet.jsonl");
    let sink = SinkHandle::new(Arc::new(JsonlSink::create(&log).expect("sink")));
    let config = FleetConfig {
        epochs,
        cases_per_epoch,
        run: RunConfig::quick().with_batch(batch),
    };
    let spec = FleetSpec::builder(config).sink(sink).build().expect("spec");
    let mut fleet: Vec<FleetMember> = members
        .iter()
        .map(|(name, seed)| {
            let kind = FuzzerKind::parse(name).expect("fuzzer");
            MemberSpec::new(kind, *seed, CoreKind::Rocket).build_member()
        })
        .collect();
    run_fleet(&mut fleet, &spec).expect("offline fleet");
    non_timing(&std::fs::read_to_string(&log).expect("offline log"))
}

#[test]
fn concurrent_jobs_stream_bit_identical_to_in_process_runs() {
    let data_dir = temp_dir("stream");
    let shutdown = Arc::new(AtomicBool::new(false));
    let (addr, daemon) = spawn(
        DaemonConfig::new("127.0.0.1:0", data_dir.join("serve")).with_workers(2),
        Arc::clone(&shutdown),
    )
    .expect("daemon");
    let addr = addr.to_string();

    let (status, body) = http_request(&addr, "GET", "/healthz", None).expect("healthz");
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));

    // Submit one campaign and one fleet job; both run concurrently on
    // the two workers.
    let campaign_spec =
        r#"{"type":"job_spec","kind":"campaign","fuzzer":"difuzz","seed":7,"cases":40,"batch":4}"#;
    let (status, body) = http_request(&addr, "POST", "/jobs", Some(campaign_spec)).expect("submit");
    assert_eq!(status, 201, "{}", String::from_utf8_lossy(&body));
    let campaign_id = Fields::parse(String::from_utf8_lossy(&body).trim())
        .and_then(|f| f.u64("id"))
        .expect("campaign id");

    let fleet_spec = r#"{"type":"job_spec","kind":"fleet","members":"difuzz:5,cascade:1","epochs":2,"cases_per_epoch":16,"batch":4}"#;
    let (status, body) = http_request(&addr, "POST", "/jobs", Some(fleet_spec)).expect("submit");
    assert_eq!(status, 201, "{}", String::from_utf8_lossy(&body));
    let fleet_id = Fields::parse(String::from_utf8_lossy(&body).trim())
        .and_then(|f| f.u64("id"))
        .expect("fleet id");

    // Two subscribers per job, all streaming concurrently.
    let deadline = Duration::from_secs(120);
    let mut readers = Vec::new();
    for id in [campaign_id, campaign_id, fleet_id, fleet_id] {
        let addr = addr.clone();
        readers.push(thread::spawn(move || subscribe(&addr, id, deadline)));
    }
    let streams: Vec<(Vec<String>, u64)> = readers
        .into_iter()
        .map(|r| r.join().expect("subscriber"))
        .collect();

    // Both subscribers of a job saw the identical stream, no drops.
    assert_eq!(streams[0].0, streams[1].0, "campaign subscribers diverged");
    assert_eq!(streams[2].0, streams[3].0, "fleet subscribers diverged");
    for (_, dropped) in &streams {
        assert_eq!(*dropped, 0, "ample hub capacity, nothing may drop");
    }

    // Jobs completed.
    let campaign_status = wait_status(&addr, campaign_id, &["done"], Duration::from_secs(30));
    assert_eq!(campaign_status.str("kind"), Some("campaign"));
    wait_status(&addr, fleet_id, &["done"], Duration::from_secs(30));

    // The SSE stream matches the in-process reference bit for bit
    // (timing events aside).
    let offline = offline_campaign(&data_dir, "difuzz", 7, 40, 4);
    let campaign_stream: Vec<String> = non_timing(&streams[0].0.join("\n"));
    assert_eq!(campaign_stream, offline, "campaign stream != offline run");

    let offline = offline_fleet(&data_dir, &[("difuzz", 5), ("cascade", 1)], 2, 16, 4);
    let fleet_stream: Vec<String> = non_timing(&streams[2].0.join("\n"));
    assert_eq!(fleet_stream, offline, "fleet stream != offline run");

    // The downloadable log equals the stream, byte for byte.
    let (status, body) =
        http_request(&addr, "GET", &format!("/jobs/{campaign_id}/log"), None).expect("log");
    assert_eq!(status, 200);
    let log_lines: Vec<String> = String::from_utf8_lossy(&body)
        .lines()
        .map(str::to_owned)
        .collect();
    assert_eq!(log_lines, streams[0].0, "events.jsonl != SSE stream");

    // Artifacts: the snapshot container and the PoC quarantine corpus.
    let (status, body) = http_request(
        &addr,
        "GET",
        &format!("/jobs/{campaign_id}/checkpoint"),
        None,
    )
    .expect("checkpoint");
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    assert!(!body.is_empty(), "snapshot container must not be empty");
    let (status, _) = http_request(&addr, "GET", &format!("/jobs/{fleet_id}/checkpoint"), None)
        .expect("fleet ckpt");
    assert_eq!(status, 200);
    let (status, _) =
        http_request(&addr, "GET", &format!("/jobs/{campaign_id}/poc"), None).expect("poc request");
    assert!(
        status == 200 || status == 404,
        "poc endpoint must answer cleanly, got {status}"
    );

    // Error paths: bad spec -> 400, unknown job -> 404, cancel of a
    // finished job -> 409.
    let (status, _) =
        http_request(&addr, "POST", "/jobs", Some("{\"type\":\"nope\"}")).expect("bad");
    assert_eq!(status, 400);
    let (status, _) = http_request(&addr, "GET", "/jobs/999", None).expect("missing");
    assert_eq!(status, 404);
    let (status, _) = http_request(&addr, "POST", &format!("/jobs/{campaign_id}/cancel"), None)
        .expect("late cancel");
    assert_eq!(status, 409);

    shutdown.store(true, Ordering::SeqCst);
    daemon.join().expect("daemon thread").expect("daemon run");
    let _ = std::fs::remove_dir_all(&data_dir);
}

#[test]
fn drained_job_resumes_bit_identical_after_restart() {
    let data_dir = temp_dir("drain");
    let serve_dir = data_dir.join("serve");

    // First daemon: submit a long campaign, stream a few rounds, then
    // drain (the SIGTERM path sets the same flag).
    let shutdown = Arc::new(AtomicBool::new(false));
    let (addr, daemon) = spawn(
        DaemonConfig::new("127.0.0.1:0", &serve_dir).with_workers(1),
        Arc::clone(&shutdown),
    )
    .expect("daemon");
    let addr = addr.to_string();
    let spec = r#"{"type":"job_spec","kind":"campaign","fuzzer":"difuzz","seed":11,"cases":300,"batch":2,"checkpoint_every":1}"#;
    let (status, body) = http_request(&addr, "POST", "/jobs", Some(spec)).expect("submit");
    assert_eq!(status, 201, "{}", String::from_utf8_lossy(&body));
    let id = Fields::parse(String::from_utf8_lossy(&body).trim())
        .and_then(|f| f.u64("id"))
        .expect("id");

    // Wait until the job is demonstrably mid-run (some events exist).
    let started = Instant::now();
    loop {
        let fields = wait_status(&addr, id, &["running", "done"], Duration::from_secs(30));
        assert_ne!(
            fields.str("status"),
            Some("done"),
            "budget too small to drain mid-run"
        );
        if fields.u64("events").unwrap_or(0) > 20 {
            break;
        }
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "job produced no events"
        );
        thread::sleep(Duration::from_millis(20));
    }
    shutdown.store(true, Ordering::SeqCst);
    daemon.join().expect("daemon thread").expect("drain");

    // The drained state is on disk; the job is marked resumable.
    let state = std::fs::read_to_string(serve_dir.join("state.jsonl")).expect("state.jsonl");
    let line = state
        .lines()
        .find(|l| Fields::parse(l).and_then(|f| f.u64("id")) == Some(id))
        .expect("job in state.jsonl");
    let fields = Fields::parse(line).expect("state line");
    assert_eq!(fields.str("status"), Some("interrupted"));
    let partial = std::fs::read_to_string(serve_dir.join(format!("job-{id}/events.jsonl")))
        .expect("partial log");
    let partial_lines = non_timing(&partial);
    assert!(
        !partial_lines.is_empty(),
        "drain must leave the partial log"
    );

    // Second daemon on the same data dir: the job re-queues, resumes
    // from its snapshot, and runs to completion.
    let shutdown = Arc::new(AtomicBool::new(false));
    let (addr, daemon) = spawn(
        DaemonConfig::new("127.0.0.1:0", &serve_dir).with_workers(1),
        Arc::clone(&shutdown),
    )
    .expect("daemon restart");
    let addr = addr.to_string();
    let fields = wait_status(&addr, id, &["done"], Duration::from_secs(120));
    assert_eq!(fields.str("kind"), Some("campaign"));

    // The resumed SSE stream replays history + continuation — compare
    // the whole thing against an uninterrupted in-process run.
    let (stream, dropped) = subscribe(&addr, id, Duration::from_secs(60));
    assert_eq!(dropped, 0);
    let offline = offline_campaign(&data_dir, "difuzz", 11, 300, 2);
    let streamed = non_timing(&stream.join("\n"));
    assert_eq!(
        streamed, offline,
        "replayed stream after drain+resume != uninterrupted run"
    );

    // The on-disk combined log agrees too, and with it the coverage
    // curve (the coverage_sample events are part of the comparison).
    let combined = std::fs::read_to_string(serve_dir.join(format!("job-{id}/events.jsonl")))
        .expect("combined log");
    assert_eq!(
        non_timing(&combined),
        offline,
        "combined events.jsonl != uninterrupted run"
    );
    let curve = |lines: &[String]| -> Vec<String> {
        lines
            .iter()
            .filter(|l| l.contains("\"type\":\"round_end\""))
            .cloned()
            .collect()
    };
    assert_eq!(curve(&streamed), curve(&offline), "coverage curve diverged");
    assert!(
        combined.starts_with(&partial),
        "resume must append to the drained log, not rewrite it"
    );

    shutdown.store(true, Ordering::SeqCst);
    daemon.join().expect("daemon thread").expect("second drain");
    let _ = std::fs::remove_dir_all(&data_dir);
}

#[test]
fn an_unparsable_worker_count_exits_2_naming_the_flag() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_hfl-serve"))
        .args(["--addr", "127.0.0.1:0", "--workers", "2x"])
        .output()
        .expect("hfl-serve starts");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--workers") && stderr.contains("2x"),
        "{stderr}"
    );
}

#[test]
fn a_worker_count_above_the_thread_bound_exits_2_before_binding() {
    let too_many = (hfl::MAX_THREADS + 1).to_string();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_hfl-serve"))
        .args(["--addr", "127.0.0.1:0", "--workers", &too_many])
        .output()
        .expect("hfl-serve starts");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--workers")
            && stderr.contains(&too_many)
            && stderr.contains(&hfl::MAX_THREADS.to_string()),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "the daemon never bound: {out:?}");
}
