//! Job specs, the job table, and the worker pool that executes them.
//!
//! A [`JobSpec`] is the serializable description of one campaign or
//! fleet run — it *is* [`hfl::spec::RunRequest`], the one job surface
//! shared with the bench binaries, serialised in the same flat-JSON
//! dialect as the telemetry schema (`hfl::json`), POSTed to `/jobs`
//! and persisted per job as `spec.json`. Validation happens once, in
//! [`RunRequest::validate`], during parse. Fleet jobs execute on the
//! distributed runtime ([`hfl::fleet_dist`]): worker processes when
//! the daemon was given a worker binary (`--worker-bin` /
//! `HFL_WORKER_BIN`), protocol-identical worker threads otherwise.
//! The [`JobTable`] owns every submitted job: a bounded
//! worker pool drains the queue, each running job streams its JSONL
//! events both to `events.jsonl` on disk and to an in-memory
//! [`EventHub`] for SSE subscribers, and a [`StopHandle`] per job wires
//! the cancel / checkpoint-now / drain endpoints to the runner's
//! round-boundary control points.
//!
//! On SIGTERM the daemon calls [`JobTable::drain`]: every running job
//! stops at its next boundary (writing a final snapshot via its
//! [`CheckpointPolicy`]), and [`JobTable::save_state`] records all jobs
//! in `state.jsonl` so a restarted daemon re-queues interrupted and
//! pending jobs — resumed runs append to `events.jsonl`, keeping the
//! concatenated stream bit-identical to an uninterrupted run.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use hfl::campaign::{run_campaign, CampaignSpec, CheckpointPolicy};
use hfl::fleet::FleetSpec;
use hfl::fleet_dist::{
    run_fleet_dist, DistConfig, ProcessLauncher, ThreadLauncher, WorkerLauncher,
};
use hfl::json::{Fields, ObjectWriter};
use hfl::obs::{Event, EventSink, JsonlSink, SinkHandle};
use hfl::StopHandle;

use crate::hub::EventHub;

pub use hfl::spec::{CampaignRequest, FleetRequest, MemberSpec, RunRequest};

/// Environment variable naming the `fleet_worker` binary fleet jobs
/// should spawn as worker processes (set by `--worker-bin`). Unset or
/// empty, fleet jobs run protocol-identical worker threads instead.
pub const WORKER_BIN_ENV: &str = "HFL_WORKER_BIN";

/// Events retained per job for late SSE subscribers. Small campaigns
/// fit entirely, so subscribing after completion still replays the full
/// stream; beyond this, subscribers get explicit lag accounting.
pub const DEFAULT_HUB_CAPACITY: usize = 64 * 1024;

/// The serializable description of one job: the crate-spanning
/// [`RunRequest`]. `JobSpec::Campaign` / `JobSpec::Fleet` pattern
/// matches, `kind()`, `to_json()` and `from_json()` all resolve to the
/// shared type — the service adds no spec dialect of its own.
pub type JobSpec = RunRequest;

/// Lifecycle of a job. Linear except that queued jobs can be cancelled
/// directly and any non-terminal job becomes `Interrupted` by a drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Submitted, waiting for a worker.
    Queued,
    /// A worker is executing it.
    Running,
    /// Ran its full budget.
    Done,
    /// The runner returned an error (message on the job record).
    Failed,
    /// Stopped early by `/cancel`.
    Cancelled,
    /// Stopped early by a daemon drain; resumable from its snapshot.
    Interrupted,
}

impl JobStatus {
    /// Wire name of the status.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Failed => "failed",
            JobStatus::Cancelled => "cancelled",
            JobStatus::Interrupted => "interrupted",
        }
    }

    fn parse(name: &str) -> Option<JobStatus> {
        Some(match name {
            "queued" => JobStatus::Queued,
            "running" => JobStatus::Running,
            "done" => JobStatus::Done,
            "failed" => JobStatus::Failed,
            "cancelled" => JobStatus::Cancelled,
            "interrupted" => JobStatus::Interrupted,
            _ => return None,
        })
    }

    /// Whether the job will never run again (short of a resubmit).
    #[must_use]
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobStatus::Done | JobStatus::Failed | JobStatus::Cancelled
        )
    }
}

/// Final coverage accounting copied off the runner's result.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobSummary {
    /// Whether the full budget ran.
    pub completed: bool,
    /// Final condition-coverage points.
    pub condition: usize,
    /// Final line-coverage points.
    pub line: usize,
    /// Final FSM-coverage points.
    pub fsm: usize,
    /// Unique mismatch signatures.
    pub unique_signatures: usize,
}

struct Job {
    id: u64,
    spec: JobSpec,
    status: JobStatus,
    resume: bool,
    cancel_requested: bool,
    error: Option<String>,
    summary: Option<JobSummary>,
    control: StopHandle,
    hub: Arc<EventHub>,
}

/// A read-only snapshot of one job for status endpoints.
#[derive(Debug, Clone)]
pub struct JobView {
    /// The job's id (assigned at submit, stable across restarts).
    pub id: u64,
    /// The spec as submitted.
    pub spec: JobSpec,
    /// Current lifecycle state.
    pub status: JobStatus,
    /// Whether this run resumed from a snapshot.
    pub resume: bool,
    /// The runner's error, if the job failed.
    pub error: Option<String>,
    /// Final accounting, once the job stopped.
    pub summary: Option<JobSummary>,
    /// Events published to the job's hub so far.
    pub events: u64,
}

impl JobView {
    /// Serialises the view as the `/jobs/<id>` status document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut w = ObjectWriter::with_type("job");
        w.num("id", self.id);
        w.str("kind", self.spec.kind());
        w.str("status", self.status.as_str());
        w.bool("resume", self.resume);
        w.num("events", self.events);
        if let Some(error) = &self.error {
            w.str("error", error);
        }
        if let Some(s) = &self.summary {
            w.bool("completed", s.completed);
            w.num("condition", s.condition as u64);
            w.num("line", s.line as u64);
            w.num("fsm", s.fsm as u64);
            w.num("unique_signatures", s.unique_signatures as u64);
        }
        w.finish()
    }
}

struct TableState {
    jobs: Vec<Job>,
    next_id: u64,
    draining: bool,
}

/// The daemon's job registry and work queue (see the module docs).
pub struct JobTable {
    data_dir: PathBuf,
    hub_capacity: usize,
    state: Mutex<TableState>,
    cond: Condvar,
}

impl JobTable {
    /// Opens (or creates) `data_dir` and re-queues whatever a previous
    /// daemon recorded in `state.jsonl`: terminal jobs are listed as-is
    /// (their hubs replay `events.jsonl`), queued and interrupted jobs
    /// go back on the queue, resuming from their latest snapshot.
    pub fn open(data_dir: impl Into<PathBuf>, hub_capacity: usize) -> io::Result<JobTable> {
        let data_dir = data_dir.into();
        fs::create_dir_all(&data_dir)?;
        let table = JobTable {
            data_dir,
            hub_capacity: hub_capacity.max(1),
            state: Mutex::new(TableState {
                jobs: Vec::new(),
                next_id: 1,
                draining: false,
            }),
            cond: Condvar::new(),
        };
        table.load_state()?;
        Ok(table)
    }

    /// The directory holding one job's artifacts.
    #[must_use]
    pub fn job_dir(&self, id: u64) -> PathBuf {
        self.data_dir.join(format!("job-{id}"))
    }

    /// The job's JSONL event log.
    #[must_use]
    pub fn events_path(&self, id: u64) -> PathBuf {
        self.job_dir(id).join("events.jsonl")
    }

    /// The job's checkpoint directory.
    #[must_use]
    pub fn checkpoint_dir(&self, id: u64) -> PathBuf {
        self.job_dir(id).join("ckpt")
    }

    /// Accepts a validated spec: assigns an id, persists `spec.json`,
    /// and queues it for the next free worker.
    pub fn submit(&self, spec: JobSpec) -> io::Result<u64> {
        let mut state = self.state.lock().expect("table lock");
        let id = state.next_id;
        state.next_id += 1;
        let dir = self.job_dir(id);
        fs::create_dir_all(&dir)?;
        fs::write(dir.join("spec.json"), format!("{}\n", spec.to_json()))?;
        state.jobs.push(Job {
            id,
            spec,
            status: JobStatus::Queued,
            resume: false,
            cancel_requested: false,
            error: None,
            summary: None,
            control: StopHandle::new(),
            hub: Arc::new(EventHub::new(self.hub_capacity)),
        });
        drop(state);
        self.cond.notify_all();
        Ok(id)
    }

    /// Snapshots of all jobs, id order.
    #[must_use]
    pub fn list(&self) -> Vec<JobView> {
        let state = self.state.lock().expect("table lock");
        state.jobs.iter().map(view).collect()
    }

    /// Snapshot of one job.
    #[must_use]
    pub fn get(&self, id: u64) -> Option<JobView> {
        let state = self.state.lock().expect("table lock");
        state.jobs.iter().find(|j| j.id == id).map(view)
    }

    /// The job's event hub (for SSE subscription).
    #[must_use]
    pub fn hub(&self, id: u64) -> Option<Arc<EventHub>> {
        let state = self.state.lock().expect("table lock");
        state
            .jobs
            .iter()
            .find(|j| j.id == id)
            .map(|j| Arc::clone(&j.hub))
    }

    /// Cancels a job: queued jobs terminate immediately, running jobs
    /// stop at their next round/epoch boundary. Terminal jobs error.
    pub fn cancel(&self, id: u64) -> Result<JobStatus, String> {
        let mut state = self.state.lock().expect("table lock");
        let job = state
            .jobs
            .iter_mut()
            .find(|j| j.id == id)
            .ok_or_else(|| format!("no job {id}"))?;
        match job.status {
            JobStatus::Queued => {
                job.status = JobStatus::Cancelled;
                job.hub.close();
                Ok(JobStatus::Cancelled)
            }
            JobStatus::Running => {
                job.cancel_requested = true;
                job.control.request_stop();
                Ok(JobStatus::Running)
            }
            terminal => Err(format!("job {id} is already {}", terminal.as_str())),
        }
    }

    /// Requests one snapshot of a running job at its next boundary.
    pub fn checkpoint_now(&self, id: u64) -> Result<(), String> {
        let state = self.state.lock().expect("table lock");
        let job = state
            .jobs
            .iter()
            .find(|j| j.id == id)
            .ok_or_else(|| format!("no job {id}"))?;
        if job.status != JobStatus::Running {
            return Err(format!("job {id} is {}, not running", job.status.as_str()));
        }
        job.control.request_checkpoint();
        Ok(())
    }

    /// Worker-thread main loop: claim queued jobs until a drain starts,
    /// then return once the queue holds no more runnable work.
    pub fn worker_loop(&self) {
        loop {
            let claimed = {
                let mut state = self.state.lock().expect("table lock");
                loop {
                    if state.draining {
                        return;
                    }
                    if let Some(job) = state
                        .jobs
                        .iter_mut()
                        .find(|j| j.status == JobStatus::Queued)
                    {
                        job.status = JobStatus::Running;
                        break Some((
                            job.id,
                            job.spec.clone(),
                            job.resume,
                            job.control.clone(),
                            Arc::clone(&job.hub),
                        ));
                    }
                    let (next, _timeout) = self
                        .cond
                        .wait_timeout(state, Duration::from_millis(200))
                        .expect("table lock");
                    state = next;
                }
            };
            let Some((id, spec, resume, control, hub)) = claimed else {
                return;
            };
            let outcome = run_job(&spec, &self.job_dir(id), resume, &control, &hub);
            hub.close();
            let mut state = self.state.lock().expect("table lock");
            let draining = state.draining;
            if let Some(job) = state.jobs.iter_mut().find(|j| j.id == id) {
                match outcome {
                    Ok(summary) => {
                        job.status = if summary.completed {
                            JobStatus::Done
                        } else if job.cancel_requested {
                            JobStatus::Cancelled
                        } else if draining {
                            JobStatus::Interrupted
                        } else {
                            // Stopped early without a cause we triggered;
                            // the snapshot still allows a resume.
                            JobStatus::Interrupted
                        };
                        job.summary = Some(summary);
                    }
                    Err(err) => {
                        job.status = JobStatus::Failed;
                        job.error = Some(err);
                    }
                }
            }
        }
    }

    /// Starts a graceful drain: stops accepting queue claims and asks
    /// every running job to stop (each writes a final snapshot at its
    /// boundary). Returns once the flag is set; callers join the worker
    /// threads, then call [`JobTable::save_state`].
    pub fn drain(&self) {
        let mut state = self.state.lock().expect("table lock");
        state.draining = true;
        for job in &state.jobs {
            match job.status {
                JobStatus::Running => job.control.request_stop(),
                JobStatus::Queued => job.hub.close(),
                _ => {}
            }
        }
        drop(state);
        self.cond.notify_all();
    }

    /// Whether a drain has started.
    #[must_use]
    pub fn draining(&self) -> bool {
        self.state.lock().expect("table lock").draining
    }

    /// Writes `state.jsonl`: one line per job (id, status, spec), so a
    /// restarted daemon can list finished jobs and re-queue unfinished
    /// ones. Call after the workers have joined.
    pub fn save_state(&self) -> io::Result<()> {
        let state = self.state.lock().expect("table lock");
        let mut out = String::new();
        for job in &state.jobs {
            let mut w = ObjectWriter::with_type("job_state");
            w.num("id", job.id);
            w.str("status", job.status.as_str());
            w.str("spec", &job.spec.to_json());
            out.push_str(&w.finish());
            out.push('\n');
        }
        let tmp = self.data_dir.join("state.jsonl.tmp");
        fs::write(&tmp, out)?;
        fs::rename(tmp, self.data_dir.join("state.jsonl"))
    }

    /// Loads `state.jsonl` (if present) into the table; unfinished jobs
    /// are re-queued with `resume = true`, terminal jobs get their hubs
    /// seeded from `events.jsonl` so late subscribers can still replay.
    fn load_state(&self) -> io::Result<()> {
        let path = self.data_dir.join("state.jsonl");
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(e),
        };
        let mut state = self.state.lock().expect("table lock");
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let Some(fields) = Fields::parse(line) else {
                continue;
            };
            if fields.str("type") != Some("job_state") {
                continue;
            }
            let (Some(id), Some(status), Some(spec_json)) = (
                fields.u64("id"),
                fields.str("status").and_then(JobStatus::parse),
                fields.str("spec"),
            ) else {
                continue;
            };
            let Ok(spec) = JobSpec::from_json(spec_json) else {
                continue;
            };
            let hub = Arc::new(EventHub::new(self.hub_capacity));
            let (status, resume) = if status.is_terminal() {
                // Replay the finished stream for late subscribers.
                if let Ok(text) = fs::read_to_string(self.events_path(id)) {
                    for event_line in text.lines().filter(|l| !l.is_empty()) {
                        hub.publish(event_line);
                    }
                }
                hub.close();
                (status, false)
            } else {
                (JobStatus::Queued, true)
            };
            state.next_id = state.next_id.max(id + 1);
            state.jobs.push(Job {
                id,
                spec,
                status,
                resume,
                cancel_requested: false,
                error: None,
                summary: None,
                control: StopHandle::new(),
                hub,
            });
        }
        Ok(())
    }
}

fn view(job: &Job) -> JobView {
    JobView {
        id: job.id,
        spec: job.spec.clone(),
        status: job.status,
        resume: job.resume,
        error: job.error.clone(),
        summary: job.summary,
        events: job.hub.published(),
    }
}

/// Streams every event both to the job's `events.jsonl` and to its
/// in-memory hub, so the SSE stream is bit-identical to the file.
struct TeeSink {
    file: JsonlSink,
    hub: Arc<EventHub>,
}

impl EventSink for TeeSink {
    fn emit(&self, event: &Event) {
        self.file.emit(event);
        self.hub.publish(&event.to_json());
    }

    fn flush(&self) {
        self.file.flush();
    }

    fn take_error(&self) -> Option<io::Error> {
        self.file.take_error()
    }
}

/// Executes one job in `dir`, honouring `control` and streaming through
/// `hub`. On resume, replays the existing `events.jsonl` into the hub
/// and appends to it, so both the file and any subscriber's stream stay
/// bit-identical to an uninterrupted run.
fn run_job(
    spec: &JobSpec,
    dir: &Path,
    resume: bool,
    control: &StopHandle,
    hub: &Arc<EventHub>,
) -> Result<JobSummary, String> {
    fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let ckpt_dir = dir.join("ckpt");
    let events = dir.join("events.jsonl");
    let snapshot = if resume {
        match spec {
            JobSpec::Campaign(_) => CheckpointPolicy::latest_snapshot(&ckpt_dir),
            JobSpec::Fleet(_) => CheckpointPolicy::latest_fleet_snapshot(&ckpt_dir),
        }
    } else {
        None
    };
    let file_sink = if snapshot.is_some() {
        // Seed the hub with the history so subscribers replay the whole
        // stream, then append — the concatenated log stays identical to
        // an uninterrupted run.
        if let Ok(text) = fs::read_to_string(&events) {
            for line in text.lines().filter(|l| !l.is_empty()) {
                hub.publish(line);
            }
        }
        JsonlSink::append(&events).map_err(|e| e.to_string())?
    } else {
        // Fresh start (including "resume" of a job that never reached
        // its first snapshot): truncate so no stale events linger.
        JsonlSink::create(&events).map_err(|e| e.to_string())?
    };
    let sink = SinkHandle::new(Arc::new(TeeSink {
        file: file_sink,
        hub: Arc::clone(hub),
    }));

    match spec {
        JobSpec::Campaign(job) => {
            let mut builder = CampaignSpec::builder(job.core, job.config())
                .sink(sink)
                .checkpoint(CheckpointPolicy::new(&ckpt_dir, job.checkpoint_every))
                .control(control.clone());
            if let Some(snapshot) = snapshot {
                builder = builder.resume_from(snapshot);
            }
            let spec = builder.build().map_err(|e| e.to_string())?;
            let mut fuzzer = job.fuzzer.build(job.seed);
            let result = run_campaign(fuzzer.as_mut(), &spec).map_err(|e| e.to_string())?;
            let (condition, line, fsm) = result.final_counts();
            Ok(JobSummary {
                completed: result.completed,
                condition,
                line,
                fsm,
                unique_signatures: result.unique_signatures,
            })
        }
        JobSpec::Fleet(job) => {
            let mut builder = FleetSpec::builder(job.config())
                .sink(sink)
                .checkpoint(CheckpointPolicy::new(&ckpt_dir, job.checkpoint_every))
                .control(control.clone());
            if let Some(snapshot) = snapshot {
                builder = builder.resume_from(snapshot);
            }
            let spec = builder.build().map_err(|e| e.to_string())?;
            // Fleet jobs always run on the distributed runtime; the
            // launcher decides process vs thread workers. Healthy runs
            // are bit-identical to the in-process fleet either way.
            let mut launcher: Box<dyn WorkerLauncher> = match std::env::var(WORKER_BIN_ENV) {
                Ok(bin) if !bin.is_empty() => Box::new(ProcessLauncher::new(bin)),
                _ => Box::new(ThreadLauncher::new()),
            };
            let result = run_fleet_dist(
                &job.members,
                &spec,
                &DistConfig::default(),
                launcher.as_mut(),
            )
            .map_err(|e| e.to_string())?;
            let (condition, line, fsm) = result.final_counts();
            Ok(JobSummary {
                completed: result.completed,
                condition,
                line,
                fsm,
                unique_signatures: result
                    .merged_curve
                    .last()
                    .map_or(0, |s| s.unique_signatures),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfl::campaign::RunConfig;
    use hfl::spec::FuzzerKind;
    use hfl_dut::CoreKind;

    #[test]
    fn specs_round_trip_through_json() {
        let campaign = JobSpec::Campaign(CampaignRequest {
            fuzzer: FuzzerKind::Difuzz,
            seed: 7,
            core: CoreKind::Rocket,
            cases: 40,
            sample_every: 10,
            run: RunConfig::quick().with_batch(4).with_threads(2),
            checkpoint_every: 2,
        });
        let fleet = JobSpec::Fleet(FleetRequest {
            members: vec![
                MemberSpec::new(FuzzerKind::Difuzz, 5, CoreKind::Boom),
                MemberSpec::new(FuzzerKind::Cascade, 9, CoreKind::Boom),
            ],
            epochs: 3,
            cases_per_epoch: 24,
            run: RunConfig::quick(),
            checkpoint_every: 1,
        });
        for spec in [campaign, fleet] {
            let line = spec.to_json();
            assert_eq!(JobSpec::from_json(&line), Ok(spec), "{line}");
        }
    }

    #[test]
    fn invalid_specs_name_the_problem() {
        // Error messages come from the one shared validation path
        // (`RunRequest::validate` / `from_json` in `hfl::spec`).
        for (body, needle) in [
            ("nonsense", "flat JSON"),
            (r#"{"type":"other"}"#, "job_spec"),
            (r#"{"type":"job_spec"}"#, "kind"),
            (r#"{"type":"job_spec","kind":"campaign"}"#, "fuzzer"),
            (
                r#"{"type":"job_spec","kind":"campaign","fuzzer":"nope","cases":5}"#,
                "unknown fuzzer",
            ),
            (
                r#"{"type":"job_spec","kind":"campaign","fuzzer":"difuzz"}"#,
                "cases",
            ),
            (
                r#"{"type":"job_spec","kind":"campaign","fuzzer":"difuzz","cases":0}"#,
                "nonzero",
            ),
            (
                r#"{"type":"job_spec","kind":"campaign","fuzzer":"difuzz","cases":5,"core":"z80"}"#,
                "unknown core",
            ),
            (r#"{"type":"job_spec","kind":"fleet"}"#, "members"),
            (
                r#"{"type":"job_spec","kind":"fleet","members":"difuzz"}"#,
                "fuzzer:seed",
            ),
            (
                r#"{"type":"job_spec","kind":"fleet","members":"difuzz:5","epochs":0,"cases_per_epoch":9}"#,
                "nonzero",
            ),
            (r#"{"type":"job_spec","kind":"warp"}"#, "unknown job kind"),
        ] {
            let err = JobSpec::from_json(body).expect_err(body);
            assert!(err.contains(needle), "{body}: {err}");
        }
    }

    #[test]
    fn table_tracks_submit_cancel_and_state_round_trip() {
        let dir = std::env::temp_dir().join(format!("hfl-serve-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let table = JobTable::open(&dir, 64).expect("open");
        let spec = JobSpec::from_json(
            r#"{"type":"job_spec","kind":"campaign","fuzzer":"difuzz","cases":8}"#,
        )
        .expect("valid");
        let id = table.submit(spec.clone()).expect("submit");
        assert_eq!(table.get(id).expect("job").status, JobStatus::Queued);
        assert!(table.checkpoint_now(id).is_err(), "not running yet");
        assert_eq!(table.cancel(id), Ok(JobStatus::Cancelled));
        assert!(table.cancel(id).is_err(), "already terminal");
        let id2 = table.submit(spec).expect("submit");
        table.drain();
        table.save_state().expect("save");

        let reloaded = JobTable::open(&dir, 64).expect("reopen");
        assert_eq!(
            reloaded.get(id).expect("job").status,
            JobStatus::Cancelled,
            "terminal status survives restart"
        );
        let job2 = reloaded.get(id2).expect("job2");
        assert_eq!(job2.status, JobStatus::Queued, "unfinished job re-queues");
        assert!(job2.resume);
        let id3 = reloaded.submit(job2.spec).expect("submit");
        assert!(id3 > id2, "ids stay unique across restarts");
        let _ = fs::remove_dir_all(&dir);
    }
}
