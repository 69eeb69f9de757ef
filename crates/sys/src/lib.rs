//! Discrete-event system-simulation substrate for the HFL reproduction.
//!
//! Single-hart fuzzing (the paper's setting) needs no notion of time
//! beyond "one instruction after another". Concurrency bugs do: an LR/SC
//! reservation race only exists if a *second* agent can slip a store
//! between the reservation and the conditional store, and an
//! interrupt-window bug only exists if a device can fire *between* two
//! instructions. This crate provides the minimal machinery for that: a
//! [`Scheduler`] that serialises the events of components (a hart, a
//! timer) identified by a [`ComponentId`]. It is a min-heap over pending
//! events keyed by `(tick, rank, id)`, where `rank` is a seeded hash of
//! `(seed, tick, id)`.
//!
//! The rank term is the load-bearing design decision. Events at *distinct*
//! ticks are ordered by time, as in any discrete-event simulator. Events
//! at the *same* tick — two harts both ready to commit — are ordered by a
//! per-tick pseudo-random permutation derived from the scheduler's seed.
//! That gives the two properties a concurrency fuzzer needs at once:
//!
//! 1. **Determinism**: the same seed always produces the same total event
//!    order, so a failing interleaving is a reproducible test input.
//! 2. **Fuzzability**: the seed is a dense, cheap knob; varying it
//!    re-permutes every simultaneous-event decision in the run, steering
//!    the system through different legal interleavings.
//!
//! The interleaving seed therefore joins the test body in the fuzzer's
//! action space: a concurrency test case is a `(program, seed)` pair.
//!
//! # Examples
//!
//! Two clocks, each acting every 10 ticks three times. Each pop returns
//! the next event; the loop reschedules the clock that acted.
//!
//! ```
//! use hfl_sys::{ComponentId, Scheduler};
//!
//! let mut fired = [0u64; 2];
//! let mut scheduler = Scheduler::new(42);
//! scheduler.schedule(ComponentId(0), 0);
//! scheduler.schedule(ComponentId(1), 0);
//! while let Some((now, id)) = scheduler.pop() {
//!     let count = &mut fired[id.0 as usize];
//!     *count += 1;
//!     if *count < 3 {
//!         scheduler.schedule(id, now + 10);
//!     }
//! }
//! assert_eq!(fired, [3, 3]);
//! assert_eq!(scheduler.processed(), 6);
//! assert_eq!(scheduler.now(), 20);
//! ```

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Identity of a scheduled component, unique within one [`Scheduler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ComponentId(pub u32);

impl std::fmt::Display for ComponentId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// SplitMix64 finaliser: a cheap, high-quality 64-bit mixer. Used to
/// derive per-event ranks and any other seed-indexed pseudo-random
/// quantity a system model needs (per-step tick costs, device periods).
#[must_use]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Combines a seed with up to two event coordinates into one mixed value.
#[must_use]
pub fn mix3(seed: u64, a: u64, b: u64) -> u64 {
    mix64(seed ^ mix64(a ^ mix64(b)))
}

/// One pending event: ordered by `(tick, rank, id)`. The id tail makes
/// the order total even in the astronomically unlikely event of a rank
/// collision, so the heap never falls back to insertion order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct EventKey {
    tick: u64,
    rank: u64,
    id: u32,
}

/// A deterministic, seed-permuted discrete-event scheduler (see the
/// module docs for the design rationale).
///
/// The scheduler itself is agnostic to what components *are*: it manages
/// `(tick, ComponentId)` events. Its owner drives the event loop with
/// [`Scheduler::schedule`] and [`Scheduler::pop`], as the multi-hart DUT
/// machine does, applying cross-component effects such as bus store
/// propagation between events.
#[derive(Debug, Clone)]
pub struct Scheduler {
    seed: u64,
    now: u64,
    heap: BinaryHeap<Reverse<EventKey>>,
    processed: u64,
}

impl Scheduler {
    /// Creates an empty scheduler with the given tie-break seed.
    #[must_use]
    pub fn new(seed: u64) -> Scheduler {
        Scheduler {
            seed,
            now: 0,
            heap: BinaryHeap::new(),
            processed: 0,
        }
    }

    /// Current simulation time: the tick of the most recently popped
    /// event (0 before the first pop).
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Events popped since construction.
    #[must_use]
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// The seeded tie-break rank of `(tick, id)`: events sharing a tick
    /// are processed in ascending rank, so each tick gets its own
    /// pseudo-random permutation of the simultaneous components.
    fn rank(&self, tick: u64, id: ComponentId) -> u64 {
        mix3(self.seed, tick, u64::from(id.0))
    }

    /// Enqueues an event. Scheduling into the past is clamped to `now`:
    /// time never runs backwards.
    pub fn schedule(&mut self, id: ComponentId, tick: u64) {
        let tick = tick.max(self.now);
        let rank = self.rank(tick, id);
        self.heap.push(Reverse(EventKey {
            tick,
            rank,
            id: id.0,
        }));
    }

    /// Removes and returns the next event in `(tick, rank, id)` order,
    /// advancing [`Scheduler::now`] to its tick.
    pub fn pop(&mut self) -> Option<(u64, ComponentId)> {
        let Reverse(key) = self.heap.pop()?;
        self.now = key.tick;
        self.processed += 1;
        Some((key.tick, ComponentId(key.id)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Pops everything out of a scheduler seeded with `n` simultaneous
    /// events at tick 0, returning the component order.
    fn tie_order(seed: u64, n: u32) -> Vec<u32> {
        let mut s = Scheduler::new(seed);
        for id in 0..n {
            s.schedule(ComponentId(id), 0);
        }
        let mut order = Vec::new();
        while let Some((tick, id)) = s.pop() {
            assert_eq!(tick, 0);
            order.push(id.0);
        }
        order
    }

    #[test]
    fn events_come_out_in_time_order() {
        let mut s = Scheduler::new(0);
        s.schedule(ComponentId(0), 30);
        s.schedule(ComponentId(1), 10);
        s.schedule(ComponentId(2), 20);
        let ticks: Vec<u64> = std::iter::from_fn(|| s.pop()).map(|(t, _)| t).collect();
        assert_eq!(ticks, vec![10, 20, 30]);
        assert_eq!(s.now(), 30);
        assert_eq!(s.processed(), 3);
    }

    #[test]
    fn ties_are_permuted_by_the_seed() {
        // Every seed yields a permutation of the same id set...
        let mut reference = tie_order(0, 8);
        reference.sort_unstable();
        assert_eq!(reference, (0..8).collect::<Vec<_>>());
        // ...and some pair of seeds disagrees on the order (8! = 40320
        // permutations over 16 seeds: a collision of all of them would
        // mean the rank mixing is broken).
        let orders: std::collections::HashSet<Vec<u32>> =
            (0..16).map(|seed| tie_order(seed, 8)).collect();
        assert!(orders.len() > 1, "seed must influence tie-breaking");
    }

    #[test]
    fn same_seed_same_order() {
        for seed in [0, 1, 0xDEAD_BEEF] {
            assert_eq!(tie_order(seed, 6), tie_order(seed, 6));
        }
    }

    #[test]
    fn ties_at_different_ticks_permute_independently() {
        // The per-tick permutation must not be a single static order: the
        // rank mixes the tick in, so different ticks see different
        // permutations of the same components.
        let mut orders = std::collections::HashSet::new();
        for tick in 0..32 {
            let mut s = Scheduler::new(7);
            for id in 0..4 {
                s.schedule(ComponentId(id), tick);
            }
            let order: Vec<u32> = std::iter::from_fn(|| s.pop()).map(|(_, id)| id.0).collect();
            orders.insert(order);
        }
        assert!(orders.len() > 1, "per-tick permutations must vary");
    }

    #[test]
    fn scheduling_into_the_past_is_clamped() {
        let mut s = Scheduler::new(3);
        s.schedule(ComponentId(0), 10);
        assert_eq!(s.pop(), Some((10, ComponentId(0))));
        s.schedule(ComponentId(1), 2);
        let (tick, id) = s.pop().expect("event pending");
        assert_eq!((tick, id), (10, ComponentId(1)), "clamped to now");
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn pop_order_is_deterministic_and_time_sorted(
            seed in any::<u64>(),
            event_seed in any::<u64>(),
            count in 1usize..64,
        ) {
            // Derive a deterministic event stream from the scalar seed
            // (the vendored proptest has no collection strategies).
            let events: Vec<(u32, u64)> = (0..count)
                .map(|i| {
                    let r = mix3(event_seed, i as u64, 0);
                    ((r % 8) as u32, (r >> 3) % 64)
                })
                .collect();
            let run = |seed: u64| {
                let mut s = Scheduler::new(seed);
                for (id, tick) in &events {
                    s.schedule(ComponentId(*id), *tick);
                }
                let mut out = Vec::new();
                while let Some(e) = s.pop() {
                    out.push(e);
                }
                out
            };
            let a = run(seed);
            let b = run(seed);
            prop_assert_eq!(&a, &b, "same seed, same order");
            for pair in a.windows(2) {
                prop_assert!(pair[0].0 <= pair[1].0, "time never regresses");
            }
            prop_assert_eq!(a.len(), events.len());
        }
    }
}
