//! Two-hart system DUT driven by a seeded three-slot event table.
//!
//! Single-hart difftest can never expose a concurrency defect: there is no
//! second agent to race against. This module builds the smallest system
//! that can — two harts executing the *same* program (SPMD, disambiguated
//! by the hart index in `x30`), a shared-memory bus that propagates each
//! committed store to the other hart, per-hart LR/SC reservations snooped
//! by that bus, and a machine-timer device that fires asynchronous
//! interrupts into the existing CSR/trap machinery.
//!
//! Interleavings are driven by the machine's event table: every hart step
//! and timer firing is a scheduled event, same-tick events fire in a
//! seeded permutation, and per-step tick costs are themselves derived from
//! the seed — so one `sched_seed` selects one exact interleaving, making
//! the schedule both reproducible and fuzzable (the seed joins the fuzzer
//! action space as `TestBody::Mhart { sched_seed, .. }`).
//!
//! # The oracle stays sound
//!
//! The machine records the order in which hart steps and interrupt
//! deliveries *committed* (the [`CommitEvent`] schedule). The reference
//! execution then replays exactly that schedule on defect-free GRM cores
//! with immediate store propagation — a sequentially consistent execution
//! of the same serialisation, which is an architecturally legal outcome
//! (the TheHuzz argument, arXiv:2201.09941). Any per-hart trace or final
//! state divergence is therefore a real defect, not a relaxed-memory
//! artefact.

use hfl_grm::cpu::{Quirks, StepOutcome};
use hfl_grm::{cause, ArchSnapshot, Cpu, HaltReason, PredecodedProgram, Program, Trace};

use crate::coverage::{CoverageKind, CoverageMap, CoverageSnapshot, PointId};

/// Number of harts in the system configuration.
pub const NUM_HARTS: usize = 2;

/// Event-table slot of the timer device; hart `h` owns slot `h`.
const TIMER_SLOT: usize = NUM_HARTS;

/// Register carrying the hart index (x30 / t5).
///
/// The CSR file models `mhartid` as a single-hart constant zero, and the
/// assembler prologue leaves x30 untouched, so the machine materialises
/// the hart index there after program load. SPMD test bodies branch on it
/// to break symmetry between the harts.
pub const HART_ID_REG: usize = 30;

/// Committed steps a remote store stays invisible under the C2 stale
/// shared-line defect.
pub const STALE_LINE_DELAY: u64 = 64;

/// One committed event of the system execution, in commit order.
///
/// This is the serialisation the reference replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommitEvent {
    /// Hart `h` retired (or trapped on) one instruction.
    Step(u8),
    /// The timer delivered a machine-timer interrupt to hart `h`.
    Interrupt(u8),
}

/// Final state of one hart after a system run.
#[derive(Debug, Clone)]
pub struct HartResult {
    /// Architectural trace of this hart's own instructions, in its program
    /// order (which is also its commit order).
    pub trace: Trace,
    /// Why the hart stopped.
    pub halt: HaltReason,
    /// Final architectural state.
    pub arch: ArchSnapshot,
    /// Instructions retired (including trapped ones).
    pub steps: u64,
}

/// Result of one two-hart system execution.
#[derive(Debug, Clone)]
pub struct MhartResult {
    /// Per-hart outcome on the (possibly defect-injected) DUT.
    pub harts: [HartResult; NUM_HARTS],
    /// Per-hart outcome of the defect-free sequential reference replaying
    /// the committed schedule.
    pub reference: [HartResult; NUM_HARTS],
    /// The committed serialisation.
    pub schedule: Vec<CommitEvent>,
    /// Coverage hit by this case (system-level points).
    pub coverage: CoverageSnapshot,
    /// Total events the machine popped (hart steps + timer firings).
    pub scheduled_steps: u64,
}

impl MhartResult {
    /// Whether any hart's DUT execution diverged from the reference.
    ///
    /// This is the raw oracle; `hfl`'s difftest layer refines it into
    /// classified, signature-deduplicated mismatches.
    #[must_use]
    pub fn diverged(&self) -> bool {
        self.harts.iter().zip(&self.reference).any(|(d, r)| {
            d.trace.entries != r.trace.entries || d.arch != r.arch || d.halt != r.halt
        })
    }
}

/// Coverage points the machine instruments.
#[derive(Debug, Clone)]
struct MhartPoints {
    hart_step: [PointId; NUM_HARTS],
    hart_trap: [PointId; NUM_HARTS],
    hart_halted: [PointId; NUM_HARTS],
    sc_success: [PointId; NUM_HARTS],
    sc_fail: [PointId; NUM_HARTS],
    bus_remote_store: PointId,
    bus_remote_code_store: PointId,
    bus_reservation_cleared: PointId,
    bus_stale_pending: PointId,
    timer_fired: PointId,
    timer_delivered: [PointId; NUM_HARTS],
    timer_masked: PointId,
    /// FSM over the last three committed hart choices (2^3 states).
    interleave: [PointId; 8],
}

impl MhartPoints {
    fn register(map: &mut CoverageMap) -> MhartPoints {
        fn per_hart(map: &mut CoverageMap, kind: CoverageKind, stem: &str) -> [PointId; NUM_HARTS] {
            std::array::from_fn(|h| map.register(kind, &format!("mhart:hart{h}:{stem}")))
        }
        MhartPoints {
            hart_step: per_hart(map, CoverageKind::Line, "step"),
            hart_trap: per_hart(map, CoverageKind::Line, "trap"),
            hart_halted: per_hart(map, CoverageKind::Line, "halted"),
            sc_success: per_hart(map, CoverageKind::Condition, "sc_success"),
            sc_fail: per_hart(map, CoverageKind::Condition, "sc_fail"),
            bus_remote_store: map.register(CoverageKind::Line, "mhart:bus:remote_store"),
            bus_remote_code_store: map.register(CoverageKind::Line, "mhart:bus:remote_code_store"),
            bus_reservation_cleared: map
                .register(CoverageKind::Condition, "mhart:bus:reservation_cleared"),
            bus_stale_pending: map.register(CoverageKind::Condition, "mhart:bus:stale_pending"),
            timer_fired: map.register(CoverageKind::Line, "mhart:timer:fired"),
            timer_delivered: per_hart(map, CoverageKind::Line, "timer_delivered"),
            timer_masked: map.register(CoverageKind::Condition, "mhart:timer:masked"),
            interleave: std::array::from_fn(|p| {
                map.register(CoverageKind::Fsm, &format!("mhart:interleave:{p:03b}"))
            }),
        }
    }
}

/// A remote store waiting in the bus (only delayed under C2).
#[derive(Debug, Clone, Copy)]
struct PendingStore {
    due_commit: u64,
    target: usize,
    addr: u64,
    size: u8,
    value: u64,
}

/// SplitMix64 finaliser: a cheap, high-quality 64-bit mixer.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Combines a seed with two coordinates into one mixed value: event
/// ranks, per-step tick costs and the timer's period and phase.
fn mix3(seed: u64, a: u64, b: u64) -> u64 {
    mix64(seed ^ mix64(a ^ mix64(b)))
}

/// The machine's pending events: one slot per hart plus one for the
/// timer, each holding at most one `(tick, rank)` event.
///
/// Events pop in `(tick, rank, slot)` order with
/// `rank = mix3(seed, tick, slot)`. Distinct ticks fire in time order;
/// events sharing a tick fire in a per-tick permutation that the seed
/// picks. The same seed therefore replays the same interleaving, while
/// another seed re-permutes every same-tick decision of the run. The slot
/// tail keeps the order total should two ranks ever collide.
struct EventTable {
    seed: u64,
    /// Tick of the most recently popped event (0 before the first pop).
    now: u64,
    /// Events popped so far.
    pops: u64,
    slots: [Option<(u64, u64)>; NUM_HARTS + 1],
}

impl EventTable {
    fn new(seed: u64) -> EventTable {
        EventTable {
            seed,
            now: 0,
            pops: 0,
            slots: [None; NUM_HARTS + 1],
        }
    }

    /// Enqueues `slot`'s next event at `tick`. A slot holds one event at a
    /// time — a hart is rescheduled only after its own step, the timer
    /// only after it fires — and no event lands in the past.
    fn schedule(&mut self, slot: usize, tick: u64) {
        debug_assert!(self.slots[slot].is_none(), "slot {slot} already pending");
        debug_assert!(tick >= self.now, "slot {slot} scheduled into the past");
        self.slots[slot] = Some((tick, mix3(self.seed, tick, slot as u64)));
    }

    /// Removes the least `(tick, rank, slot)` event, advances `now` to its
    /// tick and returns its slot.
    fn pop(&mut self) -> Option<usize> {
        let (tick, _, slot) = (0..self.slots.len())
            .filter_map(|slot| self.slots[slot].map(|(tick, rank)| (tick, rank, slot)))
            .min()?;
        self.slots[slot] = None;
        self.now = tick;
        self.pops += 1;
        Some(slot)
    }
}

/// The two-hart system machine.
///
/// Like [`crate::Dut`], the machine is reusable across test cases: the
/// coverage map persists (ids stay stable) while each run starts from
/// fresh architectural state.
///
/// # Examples
///
/// ```
/// use hfl_dut::mhart::MhartMachine;
/// use hfl_grm::cpu::Quirks;
/// use hfl_grm::Program;
/// use hfl_riscv::{Instruction, Opcode, Reg};
///
/// let mut machine = MhartMachine::new(Quirks::default());
/// let program = Program::assemble(&[Instruction::i(Opcode::Addi, Reg::X10, Reg::X0, 1)]);
/// let result = machine.run(&program, 0xFEED, 10_000);
/// assert!(!result.diverged(), "clean config must match the reference");
/// ```
#[derive(Debug, Clone)]
pub struct MhartMachine {
    quirks: Quirks,
    coverage: CoverageMap,
    points: MhartPoints,
}

impl MhartMachine {
    /// Builds a machine with the given defect injection (use
    /// [`Quirks::default`] for a clean configuration, or
    /// [`crate::bugs::quirks_for`]/[`crate::bugs::enable`] to inject
    /// catalogued defects).
    #[must_use]
    pub fn new(quirks: Quirks) -> MhartMachine {
        let mut coverage = CoverageMap::new();
        let points = MhartPoints::register(&mut coverage);
        MhartMachine {
            quirks,
            coverage,
            points,
        }
    }

    /// The machine's coverage-point database.
    #[must_use]
    pub fn coverage_map(&self) -> &CoverageMap {
        &self.coverage
    }

    /// Injected quirks.
    #[must_use]
    pub fn quirks(&self) -> &Quirks {
        &self.quirks
    }

    /// Runs one SPMD program on both harts under the interleaving selected
    /// by `sched_seed`, then replays the committed schedule on a clean
    /// sequential reference: lowers `program` into a predecoded image and
    /// runs [`MhartMachine::run_predecoded`].
    pub fn run(&mut self, program: &Program, sched_seed: u64, max_steps: u64) -> MhartResult {
        self.run_predecoded(
            program,
            &PredecodedProgram::new(program),
            sched_seed,
            max_steps,
        )
    }

    /// [`MhartMachine::run`] over `image`, the predecoded image of
    /// `program`. Both harts and the reference step over it. A window
    /// word that a store from either hart overwrites is fetched live from
    /// then on.
    ///
    /// `max_steps` bounds the *total* committed hart steps across the
    /// system (the analogue of the single-hart step budget).
    pub fn run_predecoded(
        &mut self,
        program: &Program,
        image: &PredecodedProgram,
        sched_seed: u64,
        max_steps: u64,
    ) -> MhartResult {
        let points = &self.points;

        // ---- DUT side: quirked harts under the event table ----
        let mut cpus: [Cpu; NUM_HARTS] = std::array::from_fn(|h| {
            let mut cpu = Cpu::with_quirks(self.quirks.clone());
            cpu.load_program(program);
            cpu.x[HART_ID_REG] = h as u64;
            cpu
        });
        let mut halted: [Option<HaltReason>; NUM_HARTS] = [None; NUM_HARTS];
        let mut hart_steps = [0u64; NUM_HARTS];
        let mut schedule = Vec::new();
        let mut pending: Vec<PendingStore> = Vec::new();
        let mut interleave_window = 0usize; // last 3 hart choices, 1 bit each
        let mut committed = 0u64;

        let mut events = EventTable::new(sched_seed);
        for h in 0..NUM_HARTS {
            events.schedule(h, 0);
        }
        // Timer period and phase derive from the seed so interleaving
        // fuzzing also explores interrupt placement.
        let timer_period = 7 + mix3(sched_seed, 0x7117, 0) % 9;
        events.schedule(TIMER_SLOT, timer_period);
        let mut timer_firings = 0u64;

        while let Some(slot) = events.pop() {
            if halted.iter().all(Option::is_some) {
                break;
            }
            // Deliver bus traffic that has become visible.
            let mut i = 0;
            while i < pending.len() {
                if pending[i].due_commit <= committed {
                    let p = pending.swap_remove(i);
                    apply_to_hart(&mut cpus, p, &mut self.coverage, points);
                } else {
                    i += 1;
                }
            }

            if slot == TIMER_SLOT {
                self.coverage.hit(points.timer_fired);
                // Alternate the target hart; seed picks the phase.
                let target =
                    ((timer_firings + mix3(sched_seed, 0x4242, 0)) % NUM_HARTS as u64) as usize;
                timer_firings += 1;
                if halted[target].is_none() && cpus[target].timer_interrupt_enabled() {
                    cpus[target].take_interrupt(cause::MACHINE_TIMER_INTERRUPT);
                    schedule.push(CommitEvent::Interrupt(target as u8));
                    self.coverage.hit(points.timer_delivered[target]);
                } else {
                    self.coverage.hit(points.timer_masked);
                }
                if halted.iter().any(Option::is_none) {
                    events.schedule(TIMER_SLOT, events.now + timer_period);
                }
                continue;
            }

            let h = slot;
            if halted[h].is_some() {
                continue;
            }
            if committed >= max_steps {
                for (h, slot) in halted.iter_mut().enumerate() {
                    if slot.is_none() {
                        *slot = Some(HaltReason::StepBudget);
                        self.coverage.hit(points.hart_halted[h]);
                    }
                }
                break;
            }

            let info = cpus[h].step_predecoded(image);
            match info.outcome {
                StepOutcome::Halted(reason) => {
                    halted[h] = Some(reason);
                    self.coverage.hit(points.hart_halted[h]);
                    continue;
                }
                StepOutcome::Trapped(_) => self.coverage.hit(points.hart_trap[h]),
                StepOutcome::Retired => {}
            }
            committed += 1;
            hart_steps[h] += 1;
            schedule.push(CommitEvent::Step(h as u8));
            self.coverage.hit(points.hart_step[h]);
            interleave_window = ((interleave_window << 1) | (h & 1)) & 0b111;
            if committed >= 3 {
                self.coverage.hit(points.interleave[interleave_window]);
            }

            // SC outcome coverage.
            if let (Some(inst), Some((false, rd, v))) = (info.inst, info.rd_write) {
                if matches!(inst.opcode, hfl_riscv::Opcode::ScW | hfl_riscv::Opcode::ScD) && rd != 0
                {
                    self.coverage
                        .hit_cond(v == 0, points.sc_success[h], points.sc_fail[h]);
                }
            }

            // Committed stores enter the bus towards the other hart.
            if let Some(mem) = info.mem {
                if mem.is_store {
                    let store = PendingStore {
                        due_commit: if self.quirks.stale_shared_line {
                            committed + STALE_LINE_DELAY
                        } else {
                            committed
                        },
                        target: 1 - h,
                        addr: mem.addr,
                        size: mem.size,
                        value: mem.value,
                    };
                    self.coverage.hit_cond(
                        self.quirks.stale_shared_line,
                        points.bus_stale_pending,
                        points.bus_remote_store,
                    );
                    if store.due_commit <= committed {
                        apply_to_hart(&mut cpus, store, &mut self.coverage, points);
                    } else {
                        pending.push(store);
                    }
                }
            }

            events.schedule(
                h,
                events.now + 1 + mix3(sched_seed, h as u64, hart_steps[h]) % 3,
            );
        }
        let scheduled_steps = events.pops;

        let harts = std::array::from_fn(|h| HartResult {
            trace: std::mem::take(&mut cpus[h].trace),
            halt: halted[h].unwrap_or(HaltReason::StepBudget),
            arch: cpus[h].arch_snapshot(),
            steps: hart_steps[h],
        });

        // ---- Reference: clean sequential replay of the schedule ----
        let reference = replay_reference(program, image, &schedule);

        MhartResult {
            harts,
            reference,
            schedule,
            coverage: self.coverage.take_snapshot(),
            scheduled_steps,
        }
    }
}

/// Applies one bus store to its target hart's view of memory. A halted
/// hart's memory is updated too: its arch snapshot ignores memory, so
/// skipping it would special-case nothing.
fn apply_to_hart(
    cpus: &mut [Cpu; NUM_HARTS],
    store: PendingStore,
    coverage: &mut CoverageMap,
    points: &MhartPoints,
) {
    let target = &mut cpus[store.target];
    let had_reservation = target.reservation() == Some(store.addr);
    target.apply_remote_store(store.addr, store.size, store.value);
    if had_reservation {
        coverage.hit_cond(
            target.reservation().is_none(),
            points.bus_reservation_cleared,
            points.bus_remote_store,
        );
    }
    if store.addr < hfl_riscv::vocab::mem_map::DATA_BASE {
        coverage.hit(points.bus_remote_code_store);
    }
}

/// Replays a committed schedule on defect-free GRM cores with immediate
/// store propagation: the sequential architectural reference.
fn replay_reference(
    program: &Program,
    image: &PredecodedProgram,
    schedule: &[CommitEvent],
) -> [HartResult; NUM_HARTS] {
    let mut cpus: [Cpu; NUM_HARTS] = std::array::from_fn(|h| {
        let mut cpu = Cpu::new();
        cpu.load_program(program);
        cpu.x[HART_ID_REG] = h as u64;
        cpu
    });
    let mut halted: [Option<HaltReason>; NUM_HARTS] = [None; NUM_HARTS];
    let mut steps = [0u64; NUM_HARTS];

    for &event in schedule {
        match event {
            CommitEvent::Step(h) => {
                let h = h as usize;
                if halted[h].is_some() {
                    // The quirked DUT ran further than the clean model
                    // does; the trace-length divergence is the finding.
                    continue;
                }
                let info = cpus[h].step_predecoded(image);
                if let StepOutcome::Halted(reason) = info.outcome {
                    halted[h] = Some(reason);
                    continue;
                }
                steps[h] += 1;
                if let Some(mem) = info.mem {
                    if mem.is_store {
                        cpus[1 - h].apply_remote_store(mem.addr, mem.size, mem.value);
                    }
                }
            }
            CommitEvent::Interrupt(h) => {
                let h = h as usize;
                if halted[h].is_none() {
                    cpus[h].take_interrupt(cause::MACHINE_TIMER_INTERRUPT);
                }
            }
        }
    }

    std::array::from_fn(|h| {
        let cpu = &mut cpus[h];
        let halt = halted[h].unwrap_or_else(|| {
            // Mirror what one more step would report without
            // executing it: budget ran out mid-program otherwise.
            if cpu.pc == program.halt_pc {
                HaltReason::ReachedHaltPc
            } else if !(hfl_riscv::vocab::mem_map::CODE_BASE..hfl_riscv::vocab::mem_map::DATA_BASE)
                .contains(&cpu.pc)
            {
                HaltReason::OutOfCode(cpu.pc)
            } else {
                HaltReason::StepBudget
            }
        });
        HartResult {
            trace: std::mem::take(&mut cpu.trace),
            halt,
            arch: cpu.arch_snapshot(),
            steps: steps[h],
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfl_riscv::{Instruction, Opcode, Reg};
    use proptest::prelude::*;

    /// Pops every event out of a table whose three slots all fire at
    /// `tick`, returning the slot order.
    fn tie_order(seed: u64, tick: u64) -> Vec<usize> {
        let mut events = EventTable::new(seed);
        for slot in 0..=TIMER_SLOT {
            events.schedule(slot, tick);
        }
        let order: Vec<usize> = std::iter::from_fn(|| events.pop()).collect();
        assert_eq!(events.now, tick);
        order
    }

    #[test]
    fn mixers_are_stable_and_spread() {
        // Regression-pin the mixer: ranks feed committed interleavings,
        // so a silent change to mix64 would invalidate recorded seeds.
        assert_eq!(mix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(mix3(1, 2, 3), mix3(1, 2, 3));
        let distinct: std::collections::HashSet<u64> = (0..1000).map(mix64).collect();
        assert_eq!(distinct.len(), 1000);
    }

    #[test]
    fn events_come_out_in_time_order() {
        let mut events = EventTable::new(0);
        events.schedule(0, 30);
        events.schedule(1, 10);
        events.schedule(TIMER_SLOT, 20);
        let popped: Vec<(usize, u64)> =
            std::iter::from_fn(|| events.pop().map(|slot| (slot, events.now))).collect();
        assert_eq!(popped, vec![(1, 10), (TIMER_SLOT, 20), (0, 30)]);
        assert_eq!(events.pops, 3);
    }

    #[test]
    fn same_seed_same_order() {
        for seed in [0, 1, 0xDEAD_BEEF] {
            assert_eq!(tie_order(seed, 0), tie_order(seed, 0));
        }
    }

    #[test]
    fn ties_are_permuted_by_the_seed() {
        // Every seed yields a permutation of the three slots...
        let mut reference = tie_order(0, 0);
        reference.sort_unstable();
        assert_eq!(reference, vec![0, 1, TIMER_SLOT]);
        // ...and the seeds disagree on the order (3! = 6 permutations
        // over 16 seeds: one order for all of them would mean the rank
        // mixing is broken).
        let orders: std::collections::HashSet<Vec<usize>> =
            (0..16).map(|seed| tie_order(seed, 0)).collect();
        assert!(orders.len() > 1, "seed must influence tie-breaking");
    }

    #[test]
    fn ties_at_different_ticks_permute_independently() {
        // The rank mixes the tick in, so one seed permutes the same slots
        // differently from tick to tick.
        let orders: std::collections::HashSet<Vec<usize>> =
            (0..32).map(|tick| tie_order(7, tick)).collect();
        assert!(orders.len() > 1, "per-tick permutations must vary");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn pop_order_is_deterministic_and_time_sorted(
            seed in any::<u64>(),
            event_seed in any::<u64>(),
            rounds in 1u64..16,
        ) {
            // Each slot fires `rounds` times and is rescheduled 0..8 ticks
            // after each of its pops, as the machine reschedules a hart
            // after its step and the timer after it fires; `event_seed`
            // draws the ticks.
            let run = |seed: u64| {
                let mut events = EventTable::new(seed);
                let mut fired = [0u64; NUM_HARTS + 1];
                for slot in 0..=TIMER_SLOT {
                    events.schedule(slot, mix3(event_seed, slot as u64, 0) % 8);
                }
                let mut out = Vec::new();
                while let Some(slot) = events.pop() {
                    out.push((events.now, slot));
                    fired[slot] += 1;
                    if fired[slot] < rounds {
                        let delay = mix3(event_seed, slot as u64, fired[slot]) % 8;
                        events.schedule(slot, events.now + delay);
                    }
                }
                (out, events.pops)
            };
            let (a, pops) = run(seed);
            prop_assert_eq!(&a, &run(seed).0, "same seed, same order");
            prop_assert_eq!(pops, a.len() as u64, "every pop is counted");
            for pair in a.windows(2) {
                prop_assert!(pair[0].0 <= pair[1].0, "time never regresses");
            }
            for slot in 0..=TIMER_SLOT {
                let pops = a.iter().filter(|(_, s)| *s == slot).count() as u64;
                prop_assert_eq!(pops, rounds, "every event pops once");
            }
        }
    }

    /// Both harts increment a private counter; no sharing, no races.
    fn independent_body() -> Vec<Instruction> {
        vec![
            Instruction::i(Opcode::Addi, Reg::X10, Reg::X0, 1),
            Instruction::i(Opcode::Addi, Reg::X10, Reg::X10, 1),
            Instruction::i(Opcode::Addi, Reg::X10, Reg::X10, 1),
        ]
    }

    /// Hart 0 stores a flag; hart 1 spins... kept bounded: both harts
    /// touch the same shared word without synchronisation.
    fn shared_store_body() -> Vec<Instruction> {
        vec![
            // x5 = DATA_BASE; both harts store their hart id + 1.
            Instruction::i(Opcode::Addi, Reg::X11, Reg::X30, 1),
            Instruction::s(Opcode::Sd, Reg::X11, 0, Reg::X5),
            Instruction::i(Opcode::Ld, Reg::X12, Reg::X5, 0),
        ]
    }

    #[test]
    fn clean_config_matches_reference() {
        let mut machine = MhartMachine::new(Quirks::default());
        for seed in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
            let program = Program::assemble(&shared_store_body());
            let result = machine.run(&program, seed, 10_000);
            assert!(
                !result.diverged(),
                "clean config diverged at seed {seed:#x}"
            );
            assert_eq!(result.harts.len(), NUM_HARTS);
            for hart in &result.harts {
                assert_eq!(hart.halt, HaltReason::ReachedHaltPc);
            }
        }
    }

    #[test]
    fn same_seed_reproduces_the_exact_schedule() {
        let program = Program::assemble(&shared_store_body());
        let mut machine = MhartMachine::new(Quirks::default());
        let a = machine.run(&program, 42, 10_000);
        let b = machine.run(&program, 42, 10_000);
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.scheduled_steps, b.scheduled_steps);
        for (x, y) in a.harts.iter().zip(&b.harts) {
            assert_eq!(x.trace.entries, y.trace.entries);
            assert_eq!(x.arch, y.arch);
        }
    }

    #[test]
    fn different_seeds_reach_different_interleavings() {
        let program = Program::assemble(&independent_body());
        let mut machine = MhartMachine::new(Quirks::default());
        let schedules: Vec<Vec<CommitEvent>> = (0..16)
            .map(|seed| machine.run(&program, seed, 10_000).schedule)
            .collect();
        let distinct: std::collections::HashSet<_> = schedules.iter().collect();
        assert!(
            distinct.len() > 1,
            "16 seeds produced a single interleaving"
        );
    }

    #[test]
    fn hart_id_register_differs_per_hart() {
        let body = vec![Instruction::i(Opcode::Addi, Reg::X10, Reg::X30, 0)];
        let program = Program::assemble(&body);
        let mut machine = MhartMachine::new(Quirks::default());
        let result = machine.run(&program, 7, 1_000);
        assert_eq!(result.harts[0].arch.x[10], 0);
        assert_eq!(result.harts[1].arch.x[10], 1);
    }

    #[test]
    fn c1_reservation_race_diverges_under_some_seed() {
        // Hart 0: lr / sc on the shared word. Hart 1: plain store to it.
        // Under C1 the DUT's reservation survives the remote store, so an
        // interleaving with the store inside the lr/sc window makes the
        // DUT's sc succeed where the reference's fails.
        let body = vec![
            Instruction::r(Opcode::LrD, Reg::X10, Reg::X5, Reg::X0),
            Instruction::i(Opcode::Addi, Reg::X11, Reg::X0, 55),
            Instruction::NOP,
            Instruction::NOP,
            Instruction::NOP,
            Instruction::r(Opcode::ScD, Reg::X12, Reg::X5, Reg::X11),
            // Hart 1 only: overwrite the reserved word mid-window.
            // (Both harts run everything; the store is what races.)
            Instruction::s(Opcode::Sd, Reg::X30, 0, Reg::X5),
        ];
        let program = Program::assemble(&body);
        let mut quirks = Quirks::default();
        crate::bugs::enable(&mut quirks, "C1", crate::CoreKind::Rocket);
        let mut machine = MhartMachine::new(quirks);
        let diverged = (0..64).any(|seed| machine.run(&program, seed, 10_000).diverged());
        assert!(diverged, "no seed exposed the C1 reservation race");
    }

    #[test]
    fn c2_stale_line_diverges_under_some_seed() {
        let program = Program::assemble(&shared_store_body());
        let mut quirks = Quirks::default();
        crate::bugs::enable(&mut quirks, "C2", crate::CoreKind::Rocket);
        let mut machine = MhartMachine::new(quirks);
        let diverged = (0..64).any(|seed| machine.run(&program, seed, 10_000).diverged());
        assert!(diverged, "no seed exposed the C2 stale shared line");
    }

    #[test]
    fn coverage_map_has_system_points() {
        let machine = MhartMachine::new(Quirks::default());
        let map = machine.coverage_map();
        assert!(map.find("mhart:bus:remote_store").is_some());
        assert!(map.find("mhart:timer:fired").is_some());
        assert!(map.find("mhart:interleave:000").is_some());
        assert!(map.len() >= 20);
    }

    #[test]
    fn committed_budget_bounds_the_run() {
        // An infinite loop on both harts: jal x0, 0 (self-jump).
        let body = vec![Instruction::j(Opcode::Jal, Reg::X0, 0)];
        let program = Program::assemble(&body);
        let mut machine = MhartMachine::new(Quirks::default());
        let result = machine.run(&program, 3, 200);
        assert!(result
            .harts
            .iter()
            .all(|h| h.halt == HaltReason::StepBudget));
        let total: u64 = result.harts.iter().map(|h| h.steps).sum();
        assert!(total <= 200 + NUM_HARTS as u64);
    }
}
