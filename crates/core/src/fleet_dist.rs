//! The distributed fleet: the fleet runtime's wire transport. The epoch
//! loop is the one [`crate::fleet::run_fleet`] uses; here each member
//! runs on a worker process, speaking [`crate::wire`] over TCP.
//!
//! The coordinator ([`run_fleet_dist`]) runs that loop and so owns
//! everything that defines the fleet's observable behaviour — the
//! shared corpus, the budget scheduler, the merged coverage curve, the
//! event stream and the checkpoints. Workers ([`run_worker`], usually
//! the bench `fleet_worker` binary) run epoch slices and return the
//! advanced campaign and fuzzer state, serialised, plus the harvested
//! cases. The coordinator keeps the fuzzer blobs, which every snapshot
//! and every full grant read; the driver keeps the decoded campaign
//! states, and a full grant encodes its member's state when it is sent.
//!
//! A worker also keeps the member live after it returns a result. While
//! the connection that delivered the result adopted at the member's last
//! epoch close is still open, and its `Hello` said protocol minor ≥ 1,
//! the next work order is a [`Payload::Continue`] naming that result's
//! epoch: the worker runs on from its live state, as the in-process fleet
//! runs on from its live fuzzers, and no state crosses the wire towards
//! it. Every other order is a full [`Payload::Grant`] carrying the
//! blobs: the first one on each connection (fresh, respawned or
//! reconnected workers, resumed runs) and every order to a 1.0 worker.
//! A worker asked to continue from a result it did not return last
//! answers [`Payload::Error`], and the coordinator respawns it with a
//! full grant. A full grant is self-contained, so a respawned worker
//! rerunning a lost epoch performs byte for byte the computation the
//! dead worker would have.
//!
//! # Determinism contract (async epochs)
//!
//! Epochs close on quorum/deadline instead of a barrier:
//!
//! - **Healthy fleet** (every worker reports before the deadline — the
//!   default deadline is effectively infinite): the non-timing event
//!   stream and merged coverage curve are bit-identical to the
//!   in-process [`crate::fleet::run_fleet`] on the same spec and
//!   member line-up, including across SIGKILL + respawn of any worker,
//!   at any worker placement or timing. Results are folded in member
//!   index order at the epoch close, never in arrival order.
//! - **Degraded fleet** (a deadline trips with a quorum, or a member
//!   exhausts its respawn budget): the fleet keeps going — late
//!   results fold into a *later* epoch close, non-reporting members
//!   score a zero marginal rate (the scheduler's per-member floor
//!   still guarantees them budget) and skip their `member_progress`
//!   event for that epoch. From that point the stream may diverge from
//!   the in-process reference; it remains deterministic given the same
//!   fault timeline.
//! - Fleet checkpoints are written from the same serialised member
//!   states the wire carries, so distributed and in-process snapshots
//!   of the same fleet state are interchangeable (and byte-identical).
//!
//! Wall-clock still never enters the stream: heartbeats, deadlines and
//! quorums only decide *when* to close an epoch, and in the healthy
//! case the close set is always "everyone".

use std::borrow::Cow;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use hfl_dut::CoverageMap;
use hfl_nn::persist::{corrupt, PersistError};

use crate::baselines::Fuzzer;
use crate::campaign::{CampaignState, HarvestedCase, RunConfig, RunError};
use crate::exec::ExecPool;
use crate::fleet::{
    check_line_up, drive, run_slice, FleetResult, FleetSpec, MemberIdent, Members, Slice,
};
use crate::harness::Executor;
use crate::obs::Metrics;
use crate::spec::MemberSpec;
use crate::wire::{Frame, Payload, WireError};

/// Liveness and epoch-close policy of a distributed fleet. The
/// defaults make healthy runs behave exactly like the barrier fleet
/// (the deadline is far beyond any realistic epoch), so bit-identity
/// holds unless an operator opts into aggressive deadlines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DistConfig {
    /// Cadence on which workers send heartbeats.
    pub heartbeat_millis: u64,
    /// A worker silent for this long is declared dead and respawned.
    pub heartbeat_timeout_millis: u64,
    /// An epoch may close without stragglers once this much time has
    /// passed since its grants went out *and* the quorum is met.
    pub epoch_deadline_millis: u64,
    /// Minimum percentage of the epoch's granted members that must
    /// have reported before a deadline close (at least one result is
    /// always required).
    pub quorum_percent: u64,
    /// How many times a dead worker is relaunched before its member is
    /// abandoned for the rest of the run.
    pub max_respawns: u32,
}

impl Default for DistConfig {
    fn default() -> DistConfig {
        DistConfig {
            heartbeat_millis: 500,
            heartbeat_timeout_millis: 10_000,
            epoch_deadline_millis: 600_000,
            quorum_percent: 50,
            max_respawns: 3,
        }
    }
}

/// Deterministic fault injection for worker tests: die or stall when a
/// specific epoch's grant arrives. Launchers apply a fault to the
/// *first* launch of a worker index only, so a respawned worker runs
/// clean.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerFault {
    /// Drop the connection (simulated SIGKILL) on this epoch's grant.
    pub die_at_epoch: Option<u64>,
    /// Sleep before working on this epoch's grant.
    pub sleep_at_epoch: Option<u64>,
    /// How long [`WorkerFault::sleep_at_epoch`] stalls, in millis.
    pub sleep_millis: u64,
}

/// How the coordinator starts and stops worker `index`. Implementations
/// must tolerate repeated `kill` calls and `launch` after `kill`
/// (respawn).
pub trait WorkerLauncher {
    /// Starts (or restarts) worker `index`, pointing it at the
    /// coordinator's listener.
    ///
    /// # Errors
    /// If the worker cannot be started; the member is then abandoned.
    fn launch(&mut self, index: usize, addr: &SocketAddr) -> io::Result<()>;
    /// Forcibly stops worker `index` (idempotent).
    fn kill(&mut self, index: usize);
    /// Final cleanup after the fleet completes (workers have already
    /// been told to shut down over the wire).
    fn shutdown(&mut self);
}

/// Launches each worker as a separate OS process running a worker
/// binary (`fleet_worker --connect ADDR --worker N ...`).
#[derive(Debug)]
pub struct ProcessLauncher {
    bin: PathBuf,
    children: Vec<Option<Child>>,
}

impl ProcessLauncher {
    /// A launcher for the given worker binary.
    #[must_use]
    pub fn new(bin: impl Into<PathBuf>) -> ProcessLauncher {
        ProcessLauncher {
            bin: bin.into(),
            children: Vec::new(),
        }
    }
}

impl WorkerLauncher for ProcessLauncher {
    fn launch(&mut self, index: usize, addr: &SocketAddr) -> io::Result<()> {
        if self.children.len() <= index {
            self.children.resize_with(index + 1, || None);
        }
        let child = Command::new(&self.bin)
            .arg("--connect")
            .arg(addr.to_string())
            .arg("--worker")
            .arg(index.to_string())
            .stdin(Stdio::null())
            .spawn()?;
        self.children[index] = Some(child);
        Ok(())
    }

    fn kill(&mut self, index: usize) {
        if let Some(Some(child)) = self.children.get_mut(index) {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(slot) = self.children.get_mut(index) {
            *slot = None;
        }
    }

    fn shutdown(&mut self) {
        // Workers exit on the Shutdown frame; give them a moment, then
        // make sure nothing lingers.
        let deadline = Instant::now() + Duration::from_secs(2);
        for slot in &mut self.children {
            if let Some(child) = slot {
                while Instant::now() < deadline {
                    match child.try_wait() {
                        Ok(Some(_)) | Err(_) => break,
                        Ok(None) => thread::sleep(Duration::from_millis(20)),
                    }
                }
                let _ = child.kill();
                let _ = child.wait();
            }
            *slot = None;
        }
    }
}

/// Launches each worker as an in-process thread running [`run_worker`]
/// over real TCP — same protocol, same codepaths, no process spawn
/// (used by tests and by `hfl-serve` when no worker binary is
/// configured).
#[derive(Debug, Default)]
pub struct ThreadLauncher {
    faults: Vec<Option<WorkerFault>>,
}

impl ThreadLauncher {
    /// A clean launcher.
    #[must_use]
    pub fn new() -> ThreadLauncher {
        ThreadLauncher::default()
    }

    /// Injects a fault into worker `index`'s first launch.
    #[must_use]
    pub fn with_fault(mut self, index: usize, fault: WorkerFault) -> ThreadLauncher {
        if self.faults.len() <= index {
            self.faults.resize(index + 1, None);
        }
        self.faults[index] = Some(fault);
        self
    }
}

impl WorkerLauncher for ThreadLauncher {
    fn launch(&mut self, index: usize, addr: &SocketAddr) -> io::Result<()> {
        let fault = self.faults.get_mut(index).and_then(Option::take);
        let addr = addr.to_string();
        let worker = index as u32;
        thread::Builder::new()
            .name(format!("fleet-worker-{index}"))
            .spawn(move || {
                let _ = run_worker(&addr, worker, fault);
            })?;
        Ok(())
    }

    fn kill(&mut self, _index: usize) {
        // A thread worker dies on its own (fault) or on connection
        // loss; there is nothing to kill from outside.
    }

    fn shutdown(&mut self) {}
}

fn send_frame(writer: &Mutex<TcpStream>, payload: Payload) -> Result<(), WireError> {
    let mut guard = writer
        .lock()
        .map_err(|_| WireError::Protocol(String::from("frame writer poisoned")))?;
    Frame::new(payload).write_to(&mut *guard)
}

/// Runs one worker: connect, introduce ourselves, receive the member
/// assignment, then run every granted epoch slice until told to shut
/// down. A `Grant` loads the member from the blobs it carries; a
/// `Continue` runs on from the state this worker kept live since the
/// result it names (see the module docs).
///
/// # Errors
/// Connection and protocol failures, among them an `Assign` whose
/// execution knobs [`RunConfig::validate`] rejects (more than
/// [`crate::exec::MAX_THREADS`] threads, say) and a `Continue` this
/// worker holds no state for; a failed work order is reported to the
/// coordinator as [`Payload::Error`] first. A lost coordinator simply
/// ends the worker cleanly (it holds nothing worth saving).
pub fn run_worker(addr: &str, worker: u32, fault: Option<WorkerFault>) -> Result<(), WireError> {
    let stream = TcpStream::connect(addr).map_err(WireError::Io)?;
    let _ = stream.set_nodelay(true);
    let mut reader = stream.try_clone().map_err(WireError::Io)?;
    let writer = Arc::new(Mutex::new(stream));
    send_frame(&writer, Payload::Hello { worker })?;

    let (member, core, kind, seed, max_steps, batch, threads, heartbeat_millis) =
        match Frame::read_from(&mut reader)?.payload {
            Payload::Assign {
                member,
                core,
                fuzzer,
                seed,
                max_steps,
                batch,
                threads,
                heartbeat_millis,
                ..
            } => (
                member,
                core,
                fuzzer,
                seed,
                max_steps,
                batch,
                threads,
                heartbeat_millis,
            ),
            Payload::Shutdown => {
                let _ = send_frame(&writer, Payload::Bye { worker });
                return Ok(());
            }
            other => {
                return Err(WireError::Protocol(format!(
                    "expected assign after hello, got {}",
                    other.name()
                )))
            }
        };

    let threads = usize::try_from(threads).unwrap_or(usize::MAX);
    let run = RunConfig::quick()
        .with_max_steps(max_steps)
        .with_batch(usize::try_from(batch).unwrap_or(usize::MAX))
        .with_threads(threads);
    // The coordinator's spec was validated, but the frame may come from
    // anywhere: check it before the pool exists.
    run.validate()
        .map_err(|e| WireError::Protocol(format!("assign rejected: {e}")))?;
    let executor = Executor::builder(core).max_steps(max_steps).build();
    let mut pool = ExecPool::new(executor, threads);
    let mut fuzzer = kind.build(seed);
    fuzzer.attach_lane(pool.lane());
    let mut slot = WorkerSlot {
        member,
        map_len: pool.coverage_map().len(),
        pool,
        run,
        fuzzer,
        metrics: Metrics::new(),
        live: None,
    };

    let stop = Arc::new(AtomicBool::new(false));
    {
        let writer = Arc::clone(&writer);
        let stop = Arc::clone(&stop);
        let cadence = Duration::from_millis(heartbeat_millis.clamp(10, 60_000));
        thread::spawn(move || loop {
            thread::sleep(cadence);
            if stop.load(Ordering::Relaxed) {
                break;
            }
            if send_frame(&writer, Payload::Heartbeat { worker }).is_err() {
                break;
            }
        });
    }
    let fault = fault.unwrap_or_default();

    let outcome = loop {
        let payload = match Frame::read_from(&mut reader) {
            Ok(frame) => frame.payload,
            // Coordinator went away mid-stream: nothing to save.
            Err(WireError::Truncated) => break Ok(()),
            Err(e) => break Err(e),
        };
        match payload {
            Payload::Grant { epoch, .. } | Payload::Continue { epoch, .. } => {
                if fault.die_at_epoch == Some(epoch) {
                    // Simulated SIGKILL: vanish without a word.
                    break Ok(());
                }
                if fault.sleep_at_epoch == Some(epoch) {
                    thread::sleep(Duration::from_millis(fault.sleep_millis));
                }
                match slot.work(payload) {
                    Ok(result) => {
                        if let Err(e) = send_frame(&writer, result) {
                            break Err(e);
                        }
                    }
                    Err(e) => {
                        // The coordinator answers an error by respawning
                        // this member with a full grant.
                        let message = e.to_string();
                        let _ = send_frame(&writer, Payload::Error { message });
                        break Err(e);
                    }
                }
            }
            Payload::Shutdown => {
                let _ = send_frame(&writer, Payload::Bye { worker });
                break Ok(());
            }
            Payload::Heartbeat { .. } => {}
            other => {
                break Err(WireError::Protocol(format!(
                    "unexpected {} frame on a worker",
                    other.name()
                )))
            }
        }
    };
    stop.store(true, Ordering::Relaxed);
    if let Ok(guard) = writer.lock() {
        let _ = guard.shutdown(std::net::Shutdown::Both);
    }
    outcome
}

/// The member a worker runs: its fuzzer and pool, and the campaign state
/// after the last result the worker returned.
struct WorkerSlot {
    member: u32,
    map_len: usize,
    pool: ExecPool,
    run: RunConfig,
    fuzzer: Box<dyn Fuzzer>,
    metrics: Metrics,
    /// The epoch of the last result this worker returned and the state
    /// after it: what a `Continue` runs from.
    live: Option<(u64, CampaignState)>,
}

impl WorkerSlot {
    /// Runs one work order (`Grant` or `Continue`) and returns its
    /// `EpochResult`.
    fn work(&mut self, order: Payload) -> Result<Payload, WireError> {
        let held = self.live.take();
        let (epoch, budget, mut state) = match order {
            Payload::Grant {
                epoch,
                budget,
                state,
                fuzzer_state,
            } => {
                let state = CampaignState::load(&mut state.as_slice(), self.map_len)?;
                self.fuzzer.load_state(&mut fuzzer_state.as_slice())?;
                (epoch, budget, state)
            }
            Payload::Continue {
                epoch,
                budget,
                after,
            } => match held {
                Some((last, state)) if last == after => (epoch, budget, state),
                held => {
                    let holds = match held {
                        Some((last, _)) => format!("this worker's last result is epoch {last}"),
                        None => String::from("this worker holds no member state"),
                    };
                    return Err(WireError::Protocol(format!(
                        "continue after epoch {after}, but {holds}"
                    )));
                }
            },
            other => {
                return Err(WireError::Protocol(format!(
                    "{} is not a work order",
                    other.name()
                )))
            }
        };
        // A composition failure is a protocol-level fault of this
        // worker's member pairing: report it upstream instead of
        // panicking the process.
        let harvest = run_slice(
            self.fuzzer.as_mut(),
            &mut self.pool,
            self.run,
            budget,
            &mut self.metrics,
            &mut state,
        )
        .map_err(|e| WireError::Protocol(e.to_string()))?;
        let mut state_blob = Vec::new();
        state.save(&mut state_blob)?;
        let mut fuzzer_blob = Vec::new();
        self.fuzzer.save_state(&mut fuzzer_blob)?;
        self.live = Some((epoch, state));
        Ok(Payload::EpochResult {
            epoch,
            member: self.member,
            state: state_blob,
            fuzzer_state: fuzzer_blob,
            harvest,
        })
    }
}

/// What a connection thread tells the coordinator. Each accepted
/// connection has its own id, so frames from a connection the coordinator
/// has replaced are recognised as stale.
enum Msg {
    /// A worker's `Hello` on connection `conn`, with the protocol minor
    /// the frame carried and the connection's writer.
    Hello {
        worker: u32,
        conn: u64,
        minor: u16,
        writer: Arc<Mutex<TcpStream>>,
    },
    /// Any later frame on connection `conn`.
    Frame(u32, u64, Payload),
    /// Connection `conn` failed or closed.
    Gone(u32, u64),
}

fn serve_connection(stream: TcpStream, conn: u64, tx: &Sender<Msg>) {
    let Ok(mut reader) = stream.try_clone() else {
        return;
    };
    // The handshake: the first frame must be Hello, and the protocol
    // version check happens inside Frame::read_from (a major mismatch
    // is a typed error, so the connection is dropped before the worker
    // is admitted).
    let (worker, minor) = match Frame::read_from(&mut reader) {
        Ok(Frame {
            payload: Payload::Hello { worker },
            version: (_, minor),
        }) => (worker, minor),
        _ => return,
    };
    let _ = stream.set_nodelay(true);
    let writer = Arc::new(Mutex::new(stream));
    let hello = Msg::Hello {
        worker,
        conn,
        minor,
        writer,
    };
    if tx.send(hello).is_err() {
        return;
    }
    loop {
        match Frame::read_from(&mut reader) {
            Ok(frame) => {
                if tx.send(Msg::Frame(worker, conn, frame.payload)).is_err() {
                    return;
                }
            }
            Err(_) => {
                let _ = tx.send(Msg::Gone(worker, conn));
                return;
            }
        }
    }
}

struct Slot {
    writer: Option<Arc<Mutex<TcpStream>>>,
    /// The connection `writer` belongs to.
    conn: Option<u64>,
    /// The protocol minor the worker on `conn` announced.
    minor: u16,
    /// The connection that delivered the result adopted at this member's
    /// last epoch close, and that result's epoch. While `conn` is still
    /// that connection, its worker holds the member live from there.
    adopted: Option<(u64, u64)>,
    /// Epoch of the grant this member is working on, if any.
    outstanding: Option<u64>,
    /// Budget waiting to be granted once the member has a connection.
    pending_grant: Option<u64>,
    /// Budget of the most recent grant (denominator of the member's
    /// marginal rate).
    granted: u64,
    respawns_left: u32,
    alive: bool,
    last_seen: Instant,
}

impl Slot {
    fn new(respawns_left: u32, now: Instant) -> Slot {
        Slot {
            writer: None,
            conn: None,
            minor: 0,
            adopted: None,
            outstanding: None,
            pending_grant: None,
            granted: 0,
            respawns_left,
            alive: true,
            last_seen: now,
        }
    }

    /// The epoch a work order may continue from instead of carrying the
    /// member's state: set when the worker on the current connection
    /// speaks minor ≥ 1 and returned the result adopted at the last
    /// epoch close. A new connection (a respawn or a reconnect) is cold.
    fn continues_after(&self) -> Option<u64> {
        let (conn, epoch) = self.adopted?;
        (self.minor >= 1 && self.conn == Some(conn)).then_some(epoch)
    }
}

struct WorkerEpoch {
    /// The connection that delivered the result.
    conn: u64,
    epoch: u64,
    state: CampaignState,
    fuzzer_blob: Vec<u8>,
    harvest: Vec<HarvestedCase>,
}

/// The wire transport: grants, heartbeats and respawns. Between epochs
/// it holds every member's fuzzer as the serialised blob the wire
/// carries, which a full grant and a snapshot read. The campaign states
/// stay decoded in the driver, and a full grant encodes its member's
/// state when it is sent.
struct Coordinator<'a> {
    specs: &'a [MemberSpec],
    spec: &'a FleetSpec,
    dist: &'a DistConfig,
    launcher: &'a mut dyn WorkerLauncher,
    addr: SocketAddr,
    rx: Receiver<Msg>,
    executors: Vec<Executor>,
    map_slot: Vec<usize>,
    slots: Vec<Slot>,
    fuzzer_blobs: Vec<Vec<u8>>,
    results: Vec<Option<WorkerEpoch>>,
    /// Which members the current epoch granted work.
    planned: Vec<bool>,
}

impl Coordinator<'_> {
    fn len(&self) -> usize {
        self.specs.len()
    }

    fn member_index(&self, worker: u32) -> Option<usize> {
        let index = worker as usize;
        (index < self.specs.len()).then_some(index)
    }

    /// The member `worker` runs, if `conn` is still its connection.
    fn current(&self, worker: u32, conn: u64) -> Option<usize> {
        let index = self.member_index(worker)?;
        (self.slots[index].conn == Some(conn)).then_some(index)
    }

    fn handle_hello(
        &mut self,
        worker: u32,
        conn: u64,
        minor: u16,
        writer: Arc<Mutex<TcpStream>>,
        states: &[CampaignState],
    ) {
        let Some(index) = self.member_index(worker) else {
            return;
        };
        let m = &self.specs[index];
        let cfg = self.spec.config();
        let assign = Payload::Assign {
            member: worker,
            name: m.display_name(),
            core: m.core,
            fuzzer: m.fuzzer,
            seed: m.seed,
            max_steps: cfg.run.max_steps,
            batch: cfg.run.batch as u64,
            threads: cfg.run.threads as u64,
            heartbeat_millis: self.dist.heartbeat_millis,
        };
        if send_frame(&writer, assign).is_err() {
            self.handle_death(index);
            return;
        }
        {
            let slot = &mut self.slots[index];
            slot.writer = Some(writer);
            slot.conn = Some(conn);
            slot.minor = minor;
            slot.alive = true;
            slot.last_seen = Instant::now();
        }
        // A reconnecting worker lost any in-flight grant with its old
        // process: reissue it, in full since the connection is new.
        // Pending (not yet issued) grants go out in the wait loop's pass.
        if let Some(epoch) = self.slots[index].outstanding {
            let budget = self.slots[index].granted;
            self.send_grant(index, epoch, budget, states);
        }
    }

    /// Sends member `index` its work order for `epoch`: a `Continue` when
    /// its worker holds the member live, a full `Grant` carrying
    /// `states[index]` and the fuzzer blob otherwise.
    fn send_grant(&mut self, index: usize, epoch: u64, budget: u64, states: &[CampaignState]) {
        let Some(writer) = self.slots[index].writer.clone() else {
            return;
        };
        let order = match self.slots[index].continues_after() {
            Some(after) => Payload::Continue {
                epoch,
                budget,
                after,
            },
            None => {
                let mut state = Vec::new();
                states[index]
                    .save(&mut state)
                    .expect("a fresh or decoded campaign state encodes into memory");
                Payload::Grant {
                    epoch,
                    budget,
                    state,
                    fuzzer_state: self.fuzzer_blobs[index].clone(),
                }
            }
        };
        if send_frame(&writer, order).is_err() {
            self.handle_death(index);
        }
    }

    /// Issues pending grants to members that have a connection.
    fn issue_pending(&mut self, epoch: u64, states: &[CampaignState]) {
        for index in 0..self.len() {
            if self.slots[index].writer.is_some() {
                if let Some(budget) = self.slots[index].pending_grant.take() {
                    self.slots[index].outstanding = Some(epoch);
                    self.slots[index].granted = budget;
                    self.send_grant(index, epoch, budget, states);
                }
            }
        }
    }

    /// Drops member `index`'s connection, which also makes it cold, and
    /// relaunches its worker while respawns are left.
    fn handle_death(&mut self, index: usize) {
        if !self.slots[index].alive {
            return;
        }
        self.slots[index].writer = None;
        self.slots[index].conn = None;
        self.launcher.kill(index);
        let slot = &mut self.slots[index];
        if slot.respawns_left > 0 {
            slot.respawns_left -= 1;
            slot.last_seen = Instant::now();
            if self.launcher.launch(index, &self.addr).is_err() {
                self.slots[index].alive = false;
            }
        } else {
            slot.alive = false;
        }
    }

    fn handle_frame(&mut self, index: usize, conn: u64, payload: Payload) {
        match payload {
            Payload::EpochResult {
                epoch,
                state,
                fuzzer_state,
                harvest,
                ..
            } => self.handle_result(index, conn, epoch, state, fuzzer_state, harvest),
            Payload::Heartbeat { .. } | Payload::Hello { .. } => {
                self.slots[index].last_seen = Instant::now();
            }
            Payload::Error { .. } => self.handle_death(index),
            _ => {}
        }
    }

    fn handle_result(
        &mut self,
        index: usize,
        conn: u64,
        epoch: u64,
        state: Vec<u8>,
        fuzzer_blob: Vec<u8>,
        harvest: Vec<HarvestedCase>,
    ) {
        if self.slots[index].outstanding != Some(epoch) {
            // Stale duplicate. The worker now holds a state the
            // coordinator does not, so it gets a full grant next.
            self.slots[index].adopted = None;
            return;
        }
        let map_len = self.map(index).len();
        let Ok(decoded) = CampaignState::load(&mut state.as_slice(), map_len) else {
            // A worker shipping an undecodable state is as good as
            // dead: drop it and recompute from the last good blobs.
            self.handle_death(index);
            return;
        };
        self.slots[index].outstanding = None;
        self.slots[index].last_seen = Instant::now();
        self.results[index] = Some(WorkerEpoch {
            conn,
            epoch,
            state: decoded,
            fuzzer_blob,
            harvest,
        });
    }

    fn check_heartbeats(&mut self) {
        let timeout = Duration::from_millis(self.dist.heartbeat_timeout_millis.max(1));
        for index in 0..self.len() {
            if self.slots[index].alive && self.slots[index].last_seen.elapsed() > timeout {
                self.handle_death(index);
            }
        }
    }

    /// Blocks until epoch `epoch` can close per the async contract:
    /// every live member planned for a grant reported, or the deadline
    /// passed with the quorum met, or only dead members remain.
    fn wait_for_epoch(&mut self, epoch: u64, states: &[CampaignState]) -> Result<(), RunError> {
        let deadline = Instant::now() + Duration::from_millis(self.dist.epoch_deadline_millis);
        loop {
            self.issue_pending(epoch, states);
            let (mut expected, mut reported, mut waiting) = (0usize, 0usize, 0usize);
            for index in (0..self.len()).filter(|&index| self.planned[index]) {
                expected += 1;
                if self.results[index].is_some() {
                    reported += 1;
                } else if self.slots[index].alive {
                    waiting += 1;
                }
            }
            if expected > 0 {
                if reported == expected || (waiting == 0 && reported > 0) {
                    return Ok(());
                }
                if waiting == 0 && reported == 0 {
                    return Err(RunError::WorkersLost { epoch });
                }
                if Instant::now() >= deadline
                    && reported >= 1
                    && reported as u64 * 100 >= self.dist.quorum_percent * expected as u64
                {
                    return Ok(());
                }
            } else {
                // Nothing newly granted (every member is either dead or
                // still busy with an old grant): close as soon as a
                // straggler reports.
                if self.results.iter().any(Option::is_some) {
                    return Ok(());
                }
                let busy_alive = (0..self.len())
                    .any(|i| self.slots[i].alive && self.slots[i].outstanding.is_some());
                if !busy_alive {
                    return Err(RunError::WorkersLost { epoch });
                }
            }
            match self.rx.recv_timeout(Duration::from_millis(50)) {
                Ok(Msg::Hello {
                    worker,
                    conn,
                    minor,
                    writer,
                }) => self.handle_hello(worker, conn, minor, writer, states),
                Ok(Msg::Frame(worker, conn, payload)) => {
                    if let Some(index) = self.current(worker, conn) {
                        self.handle_frame(index, conn, payload);
                    }
                }
                Ok(Msg::Gone(worker, conn)) => {
                    if let Some(index) = self.current(worker, conn) {
                        self.handle_death(index);
                    }
                }
                Err(RecvTimeoutError::Timeout) => self.check_heartbeats(),
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(corrupt("coordinator message channel closed").into())
                }
            }
        }
    }
}

impl Members for Coordinator<'_> {
    // Workers compute on copies of the blobs; nothing reaches the
    // driver's states until an epoch closes.
    const FAILED_EPOCH_KEEPS_BOUNDARY: bool = true;

    /// Coordinator-side reference executors (one per distinct core)
    /// provide the maps, identical to the ones worker pools build.
    fn map(&self, index: usize) -> &CoverageMap {
        self.executors[self.map_slot[index]].coverage_map()
    }

    fn start(&mut self, fuzzer_blobs: Option<Vec<Vec<u8>>>) -> Result<(), RunError> {
        self.fuzzer_blobs = match fuzzer_blobs {
            Some(blobs) => blobs,
            None => self
                .specs
                .iter()
                .map(|m| {
                    let mut blob = Vec::new();
                    m.fuzzer.build(m.seed).save_state(&mut blob).map(|()| blob)
                })
                .collect::<Result<_, PersistError>>()?,
        };
        for index in 0..self.len() {
            if self.launcher.launch(index, &self.addr).is_err() {
                self.slots[index].alive = false;
            }
        }
        Ok(())
    }

    fn grant(&mut self, epoch: u64, budgets: &[u64], states: &[CampaignState]) {
        // A member still busy with an older grant, or holding an
        // unfolded result, gets no new one this epoch.
        for (index, &budget) in budgets.iter().enumerate() {
            let slot = &mut self.slots[index];
            self.planned[index] =
                slot.alive && slot.outstanding.is_none() && self.results[index].is_none();
            if self.planned[index] {
                slot.pending_grant = Some(budget);
            }
        }
        self.issue_pending(epoch, states);
    }

    fn wait(
        &mut self,
        epoch: u64,
        _budgets: &[u64],
        states: &mut [CampaignState],
        _metrics: &mut Metrics,
    ) -> Result<Vec<Option<Slice>>, RunError> {
        self.wait_for_epoch(epoch, states)?;
        let slices = (0..self.len())
            .map(|index| {
                let res = self.results[index].take()?;
                states[index] = res.state;
                self.fuzzer_blobs[index] = res.fuzzer_blob;
                self.slots[index].adopted = Some((res.conn, res.epoch));
                Some(Slice {
                    granted: self.slots[index].granted,
                    harvest: res.harvest,
                })
            })
            .collect();
        Ok(slices)
    }

    fn fuzzer_blobs(&self) -> Result<Cow<'_, [Vec<u8>]>, RunError> {
        Ok(Cow::Borrowed(&self.fuzzer_blobs))
    }
}

/// Runs the fleet with one launcher-provided worker per member. The
/// observable outputs follow the module-level determinism contract;
/// the returned [`FleetResult`] means the same as
/// [`crate::fleet::run_fleet`]'s, except that its metrics hold no
/// member `phase.*` histograms (workers discard theirs).
///
/// # Errors
/// Invalid line-ups and budgets, checkpoint I/O and corrupt resume
/// snapshots (exactly as in the in-process fleet), plus
/// [`RunError::WorkersLost`] when an epoch's entire worker set dies
/// with respawns exhausted (after a final snapshot of the last epoch
/// close, when checkpointing is on).
pub fn run_fleet_dist(
    specs: &[MemberSpec],
    spec: &FleetSpec,
    dist: &DistConfig,
    launcher: &mut dyn WorkerLauncher,
) -> Result<FleetResult, RunError> {
    check_line_up(specs.len(), spec)?;
    let n = specs.len();

    // Coordinator-side reference executors: one per distinct core.
    let mut executors: Vec<Executor> = Vec::new();
    let map_slot: Vec<usize> = specs
        .iter()
        .map(|m| {
            let known = executors.iter().position(|e| e.core() == m.core);
            known.unwrap_or_else(|| {
                let max_steps = spec.config().run.max_steps;
                executors.push(Executor::builder(m.core).max_steps(max_steps).build());
                executors.len() - 1
            })
        })
        .collect();
    let idents: Vec<MemberIdent> = specs
        .iter()
        .map(|m| MemberIdent {
            core: m.core,
            name: m.display_name(),
            fuzzer: m.fuzzer.fuzzer_name().to_owned(),
        })
        .collect();

    let listener = TcpListener::bind(("127.0.0.1", 0)).map_err(PersistError::Io)?;
    let addr = listener.local_addr().map_err(PersistError::Io)?;
    listener.set_nonblocking(true).map_err(PersistError::Io)?;
    let (tx, rx) = channel::<Msg>();
    let stop_accept = Arc::new(AtomicBool::new(false));
    let accept_handle = {
        let stop = Arc::clone(&stop_accept);
        let tx = tx.clone();
        let mut next_conn = 0u64;
        thread::Builder::new()
            .name(String::from("fleet-accept"))
            .spawn(move || loop {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                match listener.accept() {
                    Ok((stream, _)) => {
                        let tx = tx.clone();
                        let conn = next_conn;
                        next_conn += 1;
                        thread::spawn(move || serve_connection(stream, conn, &tx));
                    }
                    Err(_) => thread::sleep(Duration::from_millis(10)),
                }
            })
            .map_err(PersistError::Io)?
    };

    let now = Instant::now();
    let mut coordinator = Coordinator {
        specs,
        spec,
        dist,
        launcher,
        addr,
        rx,
        executors,
        map_slot,
        slots: (0..n).map(|_| Slot::new(dist.max_respawns, now)).collect(),
        fuzzer_blobs: Vec::new(),
        results: (0..n).map(|_| None).collect(),
        planned: vec![false; n],
    };
    let result = drive(&mut coordinator, &idents, spec);
    // Dismiss the workers and stop accepting, whether the epochs
    // completed or errored (the driver has written its final snapshot).
    for slot in &coordinator.slots {
        if let Some(writer) = &slot.writer {
            let _ = send_frame(writer, Payload::Shutdown);
        }
    }
    coordinator.launcher.shutdown();
    stop_accept.store(true, Ordering::Relaxed);
    let _ = accept_handle.join();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{run_fleet, FleetConfig};
    use crate::obs::{Event, RingSink, SinkHandle};
    use crate::spec::FuzzerKind;
    use hfl_dut::CoreKind;

    #[test]
    fn only_a_warm_connection_that_speaks_minor_one_continues() {
        let mut slot = Slot::new(0, Instant::now());
        slot.conn = Some(4);
        slot.minor = 1;
        assert_eq!(slot.continues_after(), None, "nothing adopted yet");
        slot.adopted = Some((4, 7));
        assert_eq!(slot.continues_after(), Some(7));
        slot.minor = 0;
        assert_eq!(slot.continues_after(), None, "a 1.0 worker");
        slot.minor = 3;
        assert_eq!(slot.continues_after(), Some(7), "a later minor");
        slot.conn = Some(5);
        assert_eq!(slot.continues_after(), None, "a new connection");
        slot.conn = None;
        assert_eq!(slot.continues_after(), None, "a dead worker");
    }

    /// A worker connected to a hand-driven coordinator side.
    struct Peer {
        stream: TcpStream,
        worker: thread::JoinHandle<Result<(), WireError>>,
    }

    impl Peer {
        /// Starts a worker, reads its `Hello` and assigns it a Difuzz
        /// member on Rocket.
        fn assigned() -> Peer {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind a local port");
            let addr = listener.local_addr().expect("local address").to_string();
            let worker = thread::spawn(move || run_worker(&addr, 0, None));
            let (stream, _) = listener.accept().expect("the worker connects");
            let mut peer = Peer { stream, worker };
            let hello = peer.next();
            assert_eq!(hello, Payload::Hello { worker: 0 });
            peer.send(Payload::Assign {
                member: 0,
                name: String::from("difuzz-1"),
                core: CoreKind::Rocket,
                fuzzer: FuzzerKind::Difuzz,
                seed: 1,
                max_steps: 3_000,
                batch: 2,
                threads: 1,
                heartbeat_millis: 60_000,
            });
            peer
        }

        fn send(&mut self, payload: Payload) {
            Frame::new(payload)
                .write_to(&mut self.stream)
                .expect("send a frame");
        }

        /// The next frame that is not a heartbeat.
        fn next(&mut self) -> Payload {
            loop {
                match Frame::read_from(&mut self.stream).expect("a frame").payload {
                    Payload::Heartbeat { .. } => {}
                    payload => return payload,
                }
            }
        }

        /// Expects an `Error` frame naming `needle`, after which the
        /// worker returns the same protocol error.
        fn refused(mut self, needle: &str) {
            match self.next() {
                Payload::Error { message } => assert!(message.contains(needle), "{message}"),
                other => panic!("expected an error frame, got {}", other.name()),
            }
            match self.worker.join().expect("the worker returns") {
                Err(WireError::Protocol(message)) => assert!(message.contains(needle)),
                other => panic!("expected a protocol error, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_continue_before_any_grant_is_answered_with_an_error() {
        let mut peer = Peer::assigned();
        peer.send(Payload::Continue {
            epoch: 1,
            budget: 4,
            after: 0,
        });
        peer.refused("holds no member state");
    }

    #[test]
    fn a_continue_from_another_epoch_is_answered_with_an_error() {
        let mut peer = Peer::assigned();
        let mut state = Vec::new();
        let map_len = Executor::builder(CoreKind::Rocket)
            .build()
            .coverage_map()
            .len();
        CampaignState::fresh(map_len)
            .save(&mut state)
            .expect("saves");
        let mut fuzzer_state = Vec::new();
        FuzzerKind::Difuzz
            .build(1)
            .save_state(&mut fuzzer_state)
            .expect("saves");
        peer.send(Payload::Grant {
            epoch: 0,
            budget: 4,
            state,
            fuzzer_state,
        });
        assert!(matches!(peer.next(), Payload::EpochResult { epoch: 0, .. }));
        // The live state continues from epoch 0's result, not epoch 2's.
        peer.send(Payload::Continue {
            epoch: 3,
            budget: 4,
            after: 2,
        });
        peer.refused("last result is epoch 0");
    }

    /// Launches thread workers behind a relay that records the kind of
    /// every frame the coordinator sends and rewrites the minor version
    /// of each worker's frames to `minor`.
    struct Relay {
        minor: u16,
        kinds: Arc<Mutex<Vec<u32>>>,
        workers: Vec<thread::JoinHandle<Result<(), WireError>>>,
        pipes: Vec<thread::JoinHandle<()>>,
    }

    fn pipe(mut from: TcpStream, mut to: TcpStream, mut each: impl FnMut(&mut Frame)) {
        while let Ok(mut frame) = Frame::read_from(&mut from) {
            each(&mut frame);
            if frame.write_to(&mut to).is_err() {
                break;
            }
        }
        let _ = from.shutdown(std::net::Shutdown::Both);
        let _ = to.shutdown(std::net::Shutdown::Both);
    }

    impl WorkerLauncher for Relay {
        fn launch(&mut self, index: usize, addr: &SocketAddr) -> io::Result<()> {
            let upstream = TcpStream::connect(addr)?;
            let listener = TcpListener::bind("127.0.0.1:0")?;
            let local = listener.local_addr()?.to_string();
            let worker = thread::spawn(move || run_worker(&local, index as u32, None));
            self.workers.push(worker);
            let (downstream, _) = listener.accept()?;
            let (up, down) = (upstream.try_clone()?, downstream.try_clone()?);
            let minor = self.minor;
            self.pipes.push(thread::spawn(move || {
                pipe(downstream, upstream, |f| f.version.1 = minor);
            }));
            let kinds = Arc::clone(&self.kinds);
            self.pipes.push(thread::spawn(move || {
                pipe(up, down, |f| {
                    kinds.lock().expect("kinds").push(f.payload.kind());
                });
            }));
            Ok(())
        }

        fn kill(&mut self, _index: usize) {}

        // The workers have been sent `Shutdown`: each answers `Bye` and
        // returns, which closes its relay.
        fn shutdown(&mut self) {
            for worker in self.workers.drain(..) {
                let outcome = worker.join().expect("the worker returns");
                assert!(outcome.is_ok(), "{outcome:?}");
            }
            for pipe in self.pipes.drain(..) {
                pipe.join().expect("the relay ends");
            }
        }
    }

    #[test]
    fn minor_one_workers_continue_and_minor_zero_workers_get_full_grants() {
        let config = FleetConfig::quick(4, 12).with_batch(2);
        let specs = [
            MemberSpec::new(FuzzerKind::Difuzz, 7, CoreKind::Rocket),
            MemberSpec::new(FuzzerKind::Cascade, 1, CoreKind::Rocket),
        ];
        let observe = |run: &dyn Fn(&FleetSpec)| {
            let ring = Arc::new(RingSink::new(100_000));
            let spec = FleetSpec::builder(config)
                .sink(SinkHandle::new(ring.clone()))
                .build()
                .expect("valid spec");
            run(&spec);
            ring.events()
        };
        let reference: Vec<Event> = observe(&|spec| {
            let mut members: Vec<_> = specs.iter().map(MemberSpec::build_member).collect();
            run_fleet(&mut members, spec).expect("fleet runs");
        });
        for (minor, grants, continues) in [(1u16, 2usize, 6usize), (0, 8, 0)] {
            let kinds = Arc::new(Mutex::new(Vec::new()));
            let events = observe(&|spec| {
                let mut relay = Relay {
                    minor,
                    kinds: Arc::clone(&kinds),
                    workers: Vec::new(),
                    pipes: Vec::new(),
                };
                let dist = DistConfig::default();
                run_fleet_dist(&specs, spec, &dist, &mut relay).expect("fleet runs");
            });
            assert_eq!(events, reference, "minor {minor}: the stream changed");
            let kinds = kinds.lock().expect("kinds");
            let count = |kind: u32| kinds.iter().filter(|&&k| k == kind).count();
            assert_eq!(count(3), grants, "minor {minor}: grants");
            assert_eq!(count(9), continues, "minor {minor}: continues");
        }
    }
}
