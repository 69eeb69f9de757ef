//! The HTTP daemon: accept loop, request routing and SSE streaming.
//!
//! Endpoints (all responses are flat JSON unless noted):
//!
//! | Method | Path                     | Meaning                                  |
//! |--------|--------------------------|------------------------------------------|
//! | GET    | `/healthz`               | liveness + job counts                    |
//! | POST   | `/jobs`                  | submit a `JobSpec` (body) → `201` + id   |
//! | GET    | `/jobs`                  | all jobs, one JSON object per line       |
//! | GET    | `/jobs/<id>`             | one job's status document                |
//! | POST   | `/jobs/<id>/cancel`      | stop at the next boundary                |
//! | POST   | `/jobs/<id>/checkpoint`  | snapshot at the next boundary            |
//! | GET    | `/jobs/<id>/events`      | live SSE stream of the job's JSONL log   |
//! | GET    | `/jobs/<id>/log`         | the raw `events.jsonl` (download)        |
//! | GET    | `/jobs/<id>/checkpoint`  | the latest snapshot container (binary)   |
//! | GET    | `/jobs/<id>/poc`         | the quarantine corpus (PoC test cases)   |
//!
//! Each accepted connection is handled on its own thread; the accept
//! loop polls a shutdown flag, so a SIGTERM turns into
//! [`JobTable::drain`] + `state.jsonl` within one poll interval.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use hfl::json::ObjectWriter;

use crate::http::{read_request, write_response, write_sse_head, Request};
use crate::hub::Recv;
use crate::jobs::{JobSpec, JobStatus, JobTable, DEFAULT_HUB_CAPACITY};
use crate::sse::encode_frame;

/// How the daemon is wired up.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Listen address, e.g. `127.0.0.1:7700` (`:0` picks a free port).
    pub addr: String,
    /// Root directory for job artifacts and `state.jsonl`.
    pub data_dir: PathBuf,
    /// Worker threads executing jobs (concurrent jobs); the daemon runs
    /// `1..=`[`hfl::MAX_THREADS`] of them, clamping this.
    pub workers: usize,
    /// Events retained per job for SSE subscribers.
    pub hub_capacity: usize,
    /// The `fleet_worker` binary fleet jobs run one process per member
    /// on; `None` runs worker threads in the daemon process instead.
    pub worker_bin: Option<PathBuf>,
}

impl DaemonConfig {
    /// A daemon on `addr` with artifacts under `data_dir`.
    #[must_use]
    pub fn new(addr: impl Into<String>, data_dir: impl Into<PathBuf>) -> DaemonConfig {
        DaemonConfig {
            addr: addr.into(),
            data_dir: data_dir.into(),
            workers: 2,
            hub_capacity: DEFAULT_HUB_CAPACITY,
            worker_bin: None,
        }
    }

    /// Sets the worker-pool size (builder style), clamped to
    /// `1..=`[`hfl::MAX_THREADS`].
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> DaemonConfig {
        self.workers = workers.clamp(1, hfl::MAX_THREADS);
        self
    }
}

/// A bound daemon, ready to [`Daemon::run`].
pub struct Daemon {
    listener: TcpListener,
    table: Arc<JobTable>,
    workers: usize,
    worker_bin: Option<PathBuf>,
}

impl Daemon {
    /// Binds the listener and opens (or restores) the job table.
    pub fn bind(config: &DaemonConfig) -> io::Result<Daemon> {
        let addr = config
            .addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "bad listen address"))?;
        let listener = TcpListener::bind(addr)?;
        let table = Arc::new(JobTable::open(&config.data_dir, config.hub_capacity)?);
        Ok(Daemon {
            listener,
            table,
            workers: config.workers.clamp(1, hfl::MAX_THREADS),
            worker_bin: config.worker_bin.clone(),
        })
    }

    /// The bound address (useful with `:0`).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The daemon's job table (tests drive it directly).
    #[must_use]
    pub fn table(&self) -> Arc<JobTable> {
        Arc::clone(&self.table)
    }

    /// Serves until `shutdown` goes true, then drains: running jobs
    /// stop at their next boundary (writing final snapshots), workers
    /// join, and `state.jsonl` records every job for the next daemon.
    pub fn run(self, shutdown: &Arc<AtomicBool>) -> io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let mut workers = Vec::new();
        for _ in 0..self.workers {
            let table = Arc::clone(&self.table);
            let bin = self.worker_bin.clone();
            workers.push(thread::spawn(move || table.worker_loop(bin.as_deref())));
        }
        let mut handlers: Vec<thread::JoinHandle<()>> = Vec::new();
        while !shutdown.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let table = Arc::clone(&self.table);
                    let shutdown = Arc::clone(shutdown);
                    handlers.push(thread::spawn(move || {
                        handle_connection(stream, &table, &shutdown);
                    }));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    thread::sleep(Duration::from_millis(25));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
            handlers.retain(|h| !h.is_finished());
        }
        // Graceful drain: stop the queue, stop running jobs at their
        // boundaries, then persist the table for the next daemon.
        self.table.drain();
        for worker in workers {
            let _ = worker.join();
        }
        self.table.save_state()?;
        for handler in handlers {
            let _ = handler.join();
        }
        Ok(())
    }
}

fn handle_connection(mut stream: TcpStream, table: &JobTable, shutdown: &Arc<AtomicBool>) {
    // A stalled peer must not pin the handler thread forever.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    let request = match read_request(&mut stream) {
        Ok(request) => request,
        Err(err) => {
            let _ = respond_error(&mut stream, err.status(), &err.to_string());
            return;
        }
    };
    let _ = route(&mut stream, &request, table, shutdown);
}

fn respond_error<W: Write>(stream: &mut W, status: u16, message: &str) -> io::Result<()> {
    let mut w = ObjectWriter::with_type("error");
    w.str("error", message);
    respond_json(stream, status, &w.finish())
}

fn respond_json<W: Write>(stream: &mut W, status: u16, body: &str) -> io::Result<()> {
    let body = format!("{body}\n");
    write_response(stream, status, "application/json", body.as_bytes())
}

fn route(
    stream: &mut TcpStream,
    request: &Request,
    table: &JobTable,
    shutdown: &Arc<AtomicBool>,
) -> io::Result<()> {
    let segments = request.segments();
    match (request.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => {
            let jobs = table.list();
            let running = jobs
                .iter()
                .filter(|j| j.status == JobStatus::Running)
                .count();
            let mut w = ObjectWriter::with_type("health");
            w.str("status", if table.draining() { "draining" } else { "ok" });
            w.num("jobs", jobs.len() as u64);
            w.num("running", running as u64);
            respond_json(stream, 200, &w.finish())
        }
        ("POST", ["jobs"]) => {
            if table.draining() {
                return respond_error(stream, 503, "daemon is draining");
            }
            let body = String::from_utf8_lossy(&request.body);
            match JobSpec::from_json(body.trim()) {
                Ok(spec) => match table.submit(spec) {
                    Ok(id) => {
                        let mut w = ObjectWriter::with_type("job");
                        w.num("id", id);
                        w.str("status", JobStatus::Queued.as_str());
                        respond_json(stream, 201, &w.finish())
                    }
                    Err(e) => respond_error(stream, 500, &e.to_string()),
                },
                Err(message) => respond_error(stream, 400, &message),
            }
        }
        ("GET", ["jobs"]) => {
            let mut body = String::new();
            for job in table.list() {
                body.push_str(&job.to_json());
                body.push('\n');
            }
            write_response(stream, 200, "application/jsonl", body.as_bytes())
        }
        ("GET", ["jobs", id]) => {
            with_job(stream, table, id, |stream, table, id| match table.get(id) {
                Some(job) => respond_json(stream, 200, &job.to_json()),
                None => respond_error(stream, 404, &format!("no job {id}")),
            })
        }
        ("POST", ["jobs", id, "cancel"]) => with_job(stream, table, id, |stream, table, id| {
            match table.cancel(id) {
                Ok(status) => {
                    let mut w = ObjectWriter::with_type("job");
                    w.num("id", id);
                    w.str("status", status.as_str());
                    w.bool("stopping", status == JobStatus::Running);
                    respond_json(stream, 202, &w.finish())
                }
                Err(message) => respond_error(stream, 409, &message),
            }
        }),
        ("POST", ["jobs", id, "checkpoint"]) => with_job(stream, table, id, |stream, table, id| {
            match table.checkpoint_now(id) {
                Ok(()) => {
                    let mut w = ObjectWriter::with_type("job");
                    w.num("id", id);
                    w.bool("checkpoint_requested", true);
                    respond_json(stream, 202, &w.finish())
                }
                Err(message) => respond_error(stream, 409, &message),
            }
        }),
        ("GET", ["jobs", id, "events"]) => with_job(stream, table, id, |stream, table, id| {
            stream_events(stream, table, id, request, shutdown)
        }),
        ("GET", ["jobs", id, "log"]) => with_job(stream, table, id, |stream, table, id| {
            serve_file(
                stream,
                table,
                id,
                table.events_path(id),
                "application/jsonl",
            )
        }),
        ("GET", ["jobs", id, "checkpoint"]) => with_job(stream, table, id, |stream, table, id| {
            let dir = table.checkpoint_dir(id);
            let snapshot = match table.get(id).map(|j| j.spec.kind()) {
                Some("fleet") => hfl::campaign::CheckpointPolicy::latest_fleet_snapshot(&dir),
                Some(_) => hfl::campaign::CheckpointPolicy::latest_snapshot(&dir),
                None => None,
            };
            match snapshot {
                Some(path) => serve_file(stream, table, id, path, "application/octet-stream"),
                None => respond_error(stream, 404, &format!("job {id} has no snapshot yet")),
            }
        }),
        ("GET", ["jobs", id, "poc"]) => with_job(stream, table, id, |stream, table, id| {
            let path = table.checkpoint_dir(id).join("quarantine.corpus");
            serve_file(stream, table, id, path, "text/plain")
        }),
        ("GET" | "POST", _) => respond_error(stream, 404, &format!("no route {}", request.path)),
        _ => respond_error(
            stream,
            405,
            &format!("method {} not allowed", request.method),
        ),
    }
}

/// Parses the `<id>` segment and forwards; non-numeric ids are 404s.
fn with_job<F>(stream: &mut TcpStream, table: &JobTable, id: &str, f: F) -> io::Result<()>
where
    F: FnOnce(&mut TcpStream, &JobTable, u64) -> io::Result<()>,
{
    match id.parse::<u64>() {
        Ok(id) => f(stream, table, id),
        Err(_) => respond_error(stream, 404, &format!("job id {id:?} is not a number")),
    }
}

fn serve_file(
    stream: &mut TcpStream,
    table: &JobTable,
    id: u64,
    path: PathBuf,
    content_type: &str,
) -> io::Result<()> {
    if table.get(id).is_none() {
        return respond_error(stream, 404, &format!("no job {id}"));
    }
    match std::fs::read(&path) {
        Ok(bytes) => write_response(stream, 200, content_type, &bytes),
        Err(e) if e.kind() == io::ErrorKind::NotFound => respond_error(
            stream,
            404,
            &format!(
                "job {id} has no {:?} yet",
                path.file_name().unwrap_or_default()
            ),
        ),
        Err(e) => respond_error(stream, 500, &e.to_string()),
    }
}

/// Streams a job's event hub as SSE until the stream closes (job done),
/// the client disconnects, or the daemon shuts down. `?tail=1` skips
/// the replay and follows from the current position.
fn stream_events(
    stream: &mut TcpStream,
    table: &JobTable,
    id: u64,
    request: &Request,
    shutdown: &Arc<AtomicBool>,
) -> io::Result<()> {
    let Some(hub) = table.hub(id) else {
        return respond_error(stream, 404, &format!("no job {id}"));
    };
    let mut subscriber = if request.query.split('&').any(|kv| kv == "tail=1") {
        hub.subscribe_tail()
    } else {
        hub.subscribe()
    };
    write_sse_head(stream)?;
    loop {
        if shutdown.load(Ordering::SeqCst) {
            stream.write_all(encode_frame(Some("end"), r#"{"reason":"shutdown"}"#).as_bytes())?;
            return stream.flush();
        }
        match subscriber.next(Duration::from_millis(250)) {
            Recv::Line { line, .. } => {
                stream.write_all(encode_frame(None, &line).as_bytes())?;
                stream.flush()?;
            }
            Recv::Lagged { missed } => {
                let mut w = ObjectWriter::with_type("lag");
                w.num("missed", missed);
                stream.write_all(encode_frame(Some("lag"), &w.finish()).as_bytes())?;
                stream.flush()?;
            }
            Recv::Closed => {
                let mut w = ObjectWriter::with_type("end");
                w.num("dropped", subscriber.total_dropped());
                stream.write_all(encode_frame(Some("end"), &w.finish()).as_bytes())?;
                return stream.flush();
            }
            Recv::TimedOut => {
                // Keep-alive comment; also detects dead clients so the
                // handler thread exits instead of waiting forever.
                stream.write_all(b": keep-alive\n")?;
                stream.flush()?;
            }
        }
    }
}

/// Convenience for the binary and tests: spawns the daemon on its own
/// thread and returns its address plus a join handle.
pub fn spawn(
    config: DaemonConfig,
    shutdown: Arc<AtomicBool>,
) -> io::Result<(SocketAddr, thread::JoinHandle<io::Result<()>>)> {
    let daemon = Daemon::bind(&config)?;
    let addr = daemon.local_addr()?;
    let handle = thread::spawn(move || daemon.run(&shutdown));
    Ok((addr, handle))
}

/// Minimal blocking HTTP client for the e2e tests, the CI smoke job and
/// `campaign_report --follow`: sends one request, returns
/// `(status, body)`. Not a general client — just enough for this
/// daemon's `Connection: close` responses.
pub fn http_request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> io::Result<(u16, Vec<u8>)> {
    let mut stream = TcpStream::connect(addr)?;
    let body_bytes = body.unwrap_or("").as_bytes();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body_bytes.len()
    )?;
    stream.write_all(body_bytes)?;
    stream.flush()?;
    let mut response = Vec::new();
    stream.read_to_end(&mut response)?;
    parse_http_response(&response)
}

/// Splits a full `Connection: close` response into status and body.
pub fn parse_http_response(raw: &[u8]) -> io::Result<(u16, Vec<u8>)> {
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no header terminator"))?;
    let head = String::from_utf8_lossy(&raw[..head_end]);
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no status code"))?;
    Ok((status, raw[head_end + 4..].to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_counts_are_clamped_to_the_thread_bound() {
        let config = |workers| DaemonConfig::new("127.0.0.1:0", "unused").with_workers(workers);
        assert_eq!(config(0).workers, 1);
        assert_eq!(config(3).workers, 3);
        assert_eq!(config(hfl::MAX_THREADS + 1).workers, hfl::MAX_THREADS);
        // `workers` is public, so binding clamps it again. Binding starts
        // no job threads; only `Daemon::run` does.
        let dir = std::env::temp_dir().join(format!("hfl-serve-clamp-{}", std::process::id()));
        let mut unclamped = DaemonConfig::new("127.0.0.1:0", &dir);
        for (workers, bound) in [(0, 1), (usize::MAX, hfl::MAX_THREADS)] {
            unclamped.workers = workers;
            let daemon = Daemon::bind(&unclamped).expect("bind");
            assert_eq!(daemon.workers, bound);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fleet_jobs_launch_the_configured_worker_bin() {
        let dir = std::env::temp_dir().join(format!("hfl-serve-bin-{}", std::process::id()));
        let mut config = DaemonConfig::new("127.0.0.1:0", &dir);
        config.worker_bin = Some(dir.join("no-such-worker"));
        let daemon = Daemon::bind(&config).expect("bind");
        let table = daemon.table();
        let spec = JobSpec::from_json(
            r#"{"type":"job_spec","kind":"fleet","members":"difuzz:5","epochs":1,"cases_per_epoch":4}"#,
        )
        .expect("valid");
        let id = table.submit(spec).expect("submit");
        let shutdown = Arc::new(AtomicBool::new(false));
        let stop = Arc::clone(&shutdown);
        let running = thread::spawn(move || daemon.run(&stop));
        while !table.get(id).expect("job").status.is_terminal() {
            thread::sleep(Duration::from_millis(10));
        }
        shutdown.store(true, Ordering::SeqCst);
        running.join().expect("daemon thread").expect("drain");
        // The one member's worker process cannot start, so the fleet
        // has no live worker.
        let job = table.get(id).expect("job");
        assert_eq!(job.status, JobStatus::Failed);
        let error = job.error.unwrap_or_default();
        assert!(error.contains("no live workers"), "{error}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
