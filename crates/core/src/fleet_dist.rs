//! The distributed fleet: the fleet runtime's wire transport. The epoch
//! loop is the one [`crate::fleet::run_fleet`] uses; here each member
//! runs on a worker process, speaking [`crate::wire`] over TCP.
//!
//! The coordinator ([`run_fleet_dist`]) runs that loop and so owns
//! everything that defines the fleet's observable behaviour — the
//! shared corpus, the budget scheduler, the merged coverage curve, the
//! event stream and the checkpoints. Workers ([`run_worker`], usually the bench
//! `fleet_worker` binary) are **stateless between epochs**: every
//! budget grant carries the member's full serialised campaign and
//! fuzzer state, the worker recomputes its epoch slice
//! deterministically and returns the advanced state plus harvested
//! cases. Because a grant is self-contained, a freshly respawned
//! worker rerunning a lost epoch is byte-for-byte the same computation
//! the dead worker would have performed — crash recovery *is* the
//! normal path.
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
/// assignment, then recompute every granted epoch slice until told to
/// shut down. See the module docs for why a worker holds no state a
/// grant doesn't carry.
///
/// # Errors
/// Connection and protocol failures, among them an `Assign` whose
/// execution knobs [`RunConfig::validate`] rejects (more than
/// [`crate::exec::MAX_THREADS`] threads, say); a lost coordinator
/// simply ends the worker cleanly (it holds nothing worth saving).
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
    let map_len = pool.coverage_map().len();
    let mut fuzzer = kind.build(seed);
    fuzzer.attach_lane(pool.lane());
    let mut metrics = Metrics::new();

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
            Payload::Grant {
                epoch,
                budget,
                state,
                fuzzer_state,
            } => {
                if fault.die_at_epoch == Some(epoch) {
                    // Simulated SIGKILL: vanish without a word.
                    break Ok(());
                }
                if fault.sleep_at_epoch == Some(epoch) {
                    thread::sleep(Duration::from_millis(fault.sleep_millis));
                }
                let mut st = CampaignState::load(&mut state.as_slice(), map_len)?;
                fuzzer.load_state(&mut fuzzer_state.as_slice())?;
                // A composition failure is a protocol-level fault of this
                // worker's member pairing: report it upstream instead of
                // panicking the process.
                let harvest = run_slice(
                    fuzzer.as_mut(),
                    &mut pool,
                    run,
                    budget,
                    &mut metrics,
                    &mut st,
                )
                .map_err(|e| WireError::Protocol(e.to_string()))?;
                let mut state_blob = Vec::new();
                st.save(&mut state_blob)?;
                let mut fuzzer_blob = Vec::new();
                fuzzer.save_state(&mut fuzzer_blob)?;
                send_frame(
                    &writer,
                    Payload::EpochResult {
                        epoch,
                        member,
                        state: state_blob,
                        fuzzer_state: fuzzer_blob,
                        harvest,
                    },
                )?;
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

enum Msg {
    Hello(u32, Arc<Mutex<TcpStream>>),
    Frame(u32, Payload),
    Gone(u32),
}

fn serve_connection(stream: TcpStream, tx: &Sender<Msg>) {
    let Ok(mut reader) = stream.try_clone() else {
        return;
    };
    // The handshake: the first frame must be Hello, and the protocol
    // version check happens inside Frame::read_from (a major mismatch
    // is a typed error, so the connection is dropped before the worker
    // is admitted).
    let worker = match Frame::read_from(&mut reader) {
        Ok(Frame {
            payload: Payload::Hello { worker },
            ..
        }) => worker,
        _ => return,
    };
    let _ = stream.set_nodelay(true);
    if tx
        .send(Msg::Hello(worker, Arc::new(Mutex::new(stream))))
        .is_err()
    {
        return;
    }
    loop {
        match Frame::read_from(&mut reader) {
            Ok(frame) => {
                if tx.send(Msg::Frame(worker, frame.payload)).is_err() {
                    return;
                }
            }
            Err(_) => {
                let _ = tx.send(Msg::Gone(worker));
                return;
            }
        }
    }
}

struct Slot {
    writer: Option<Arc<Mutex<TcpStream>>>,
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

struct WorkerEpoch {
    state: CampaignState,
    state_blob: Vec<u8>,
    fuzzer_blob: Vec<u8>,
    harvest: Vec<HarvestedCase>,
}

/// The wire transport: grants, heartbeats and respawns. Between epochs
/// it holds every member as the serialised blobs the wire carries.
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
    state_blobs: Vec<Vec<u8>>,
    fuzzer_blobs: Vec<Vec<u8>>,
    results: Vec<Option<WorkerEpoch>>,
}

impl Coordinator<'_> {
    fn len(&self) -> usize {
        self.specs.len()
    }

    fn member_index(&self, worker: u32) -> Option<usize> {
        let index = worker as usize;
        (index < self.specs.len()).then_some(index)
    }

    fn handle_hello(&mut self, worker: u32, writer: Arc<Mutex<TcpStream>>) {
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
            slot.alive = true;
            slot.last_seen = Instant::now();
        }
        // A reconnecting worker lost any in-flight grant with its old
        // process: reissue it from the authoritative blobs. Pending
        // (not yet issued) grants go out in the wait loop's pass.
        if let Some(epoch) = self.slots[index].outstanding {
            let budget = self.slots[index].granted;
            self.send_grant(index, epoch, budget);
        }
    }

    fn send_grant(&mut self, index: usize, epoch: u64, budget: u64) {
        let Some(writer) = self.slots[index].writer.clone() else {
            return;
        };
        let grant = Payload::Grant {
            epoch,
            budget,
            state: self.state_blobs[index].clone(),
            fuzzer_state: self.fuzzer_blobs[index].clone(),
        };
        if send_frame(&writer, grant).is_err() {
            self.handle_death(index);
        }
    }

    fn handle_death(&mut self, index: usize) {
        if !self.slots[index].alive {
            return;
        }
        self.slots[index].writer = None;
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

    fn handle_frame(&mut self, worker: u32, payload: Payload) {
        let Some(index) = self.member_index(worker) else {
            return;
        };
        match payload {
            Payload::EpochResult {
                epoch,
                state,
                fuzzer_state,
                harvest,
                ..
            } => self.handle_result(index, epoch, state, fuzzer_state, harvest),
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
        epoch: u64,
        state: Vec<u8>,
        fuzzer_blob: Vec<u8>,
        harvest: Vec<HarvestedCase>,
    ) {
        if self.slots[index].outstanding != Some(epoch) {
            return; // Stale duplicate (e.g. a result racing a respawn).
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
            state: decoded,
            state_blob: state,
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
    /// every live member `planned` for a grant reported, or the deadline
    /// passed with the quorum met, or only dead members remain.
    fn wait_for_epoch(&mut self, epoch: u64, planned: &[bool]) -> Result<(), RunError> {
        let deadline = Instant::now() + Duration::from_millis(self.dist.epoch_deadline_millis);
        loop {
            // Issue pending grants to members that have a connection.
            for index in 0..self.len() {
                if self.slots[index].writer.is_some() {
                    if let Some(budget) = self.slots[index].pending_grant {
                        self.slots[index].pending_grant = None;
                        self.slots[index].outstanding = Some(epoch);
                        self.slots[index].granted = budget;
                        self.send_grant(index, epoch, budget);
                    }
                }
            }
            let (mut expected, mut reported, mut waiting) = (0usize, 0usize, 0usize);
            for index in (0..self.len()).filter(|&index| planned[index]) {
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
                Ok(Msg::Hello(worker, writer)) => self.handle_hello(worker, writer),
                Ok(Msg::Frame(worker, payload)) => self.handle_frame(worker, payload),
                Ok(Msg::Gone(worker)) => {
                    if let Some(index) = self.member_index(worker) {
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

    fn start(
        &mut self,
        states: &[CampaignState],
        fuzzer_blobs: Option<Vec<Vec<u8>>>,
    ) -> Result<(), RunError> {
        self.state_blobs = states
            .iter()
            .map(|state| {
                let mut blob = Vec::new();
                state.save(&mut blob).map(|()| blob)
            })
            .collect::<Result<_, PersistError>>()?;
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

    fn run_epoch(
        &mut self,
        epoch: u64,
        budgets: &[u64],
        states: &mut [CampaignState],
        _metrics: &mut Metrics,
    ) -> Result<Vec<Option<Slice>>, RunError> {
        // A member still busy with an older grant, or holding an
        // unfolded result, gets no new one this epoch.
        let mut planned = vec![false; self.len()];
        for (index, &budget) in budgets.iter().enumerate() {
            let slot = &mut self.slots[index];
            planned[index] =
                slot.alive && slot.outstanding.is_none() && self.results[index].is_none();
            if planned[index] {
                slot.pending_grant = Some(budget);
            }
        }
        self.wait_for_epoch(epoch, &planned)?;
        let slices = (0..self.len())
            .map(|index| {
                let res = self.results[index].take()?;
                states[index] = res.state;
                self.state_blobs[index] = res.state_blob;
                self.fuzzer_blobs[index] = res.fuzzer_blob;
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
        thread::Builder::new()
            .name(String::from("fleet-accept"))
            .spawn(move || loop {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                match listener.accept() {
                    Ok((stream, _)) => {
                        let tx = tx.clone();
                        thread::spawn(move || serve_connection(stream, &tx));
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
        slots: (0..n)
            .map(|_| Slot {
                writer: None,
                outstanding: None,
                pending_grant: None,
                granted: 0,
                respawns_left: dist.max_respawns,
                alive: true,
                last_seen: now,
            })
            .collect(),
        state_blobs: Vec::new(),
        fuzzer_blobs: Vec::new(),
        results: (0..n).map(|_| None).collect(),
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
