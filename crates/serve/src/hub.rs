//! The per-job broadcast hub: one bounded ring of JSONL event lines,
//! fanned out to any number of SSE subscribers.
//!
//! The publisher (the job's worker thread) appends lines; each
//! subscriber holds only a cursor (a sequence number), so a slow or
//! stalled client never blocks the publisher or other subscribers.
//! When the ring wraps past a subscriber's cursor the overwritten lines
//! are gone — the subscriber's next read reports exactly how many lines
//! it missed ([`Recv::Lagged`]) and resumes from the oldest retained
//! line. Fast subscribers therefore see the stream bit-identical to the
//! job's `events.jsonl`; slow ones get explicit drop accounting instead
//! of silent gaps or unbounded buffering.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// What a subscriber read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Recv {
    /// The next line, with its absolute sequence number (0-based).
    Line {
        /// Position of this line in the full stream.
        seq: u64,
        /// The JSONL event line (no trailing newline).
        line: Arc<str>,
    },
    /// The ring overwrote `missed` lines this subscriber never saw; the
    /// cursor has been advanced to the oldest retained line.
    Lagged {
        /// How many lines were dropped for this subscriber.
        missed: u64,
    },
    /// The stream ended (job finished and the hub was closed); no more
    /// lines will ever arrive.
    Closed,
    /// Nothing new within the timeout; poll again.
    TimedOut,
}

#[derive(Debug)]
struct HubState {
    /// Retained lines; `ring[0]` has sequence number `base`.
    ring: VecDeque<Arc<str>>,
    /// Sequence number of the oldest retained line.
    base: u64,
    /// Sequence number the next published line will get.
    next: u64,
    closed: bool,
}

/// Bounded multi-subscriber broadcast ring (see the module docs).
#[derive(Debug)]
pub struct EventHub {
    state: Mutex<HubState>,
    cond: Condvar,
    capacity: usize,
}

impl EventHub {
    /// A hub retaining at most `capacity` lines (minimum 1).
    #[must_use]
    pub fn new(capacity: usize) -> EventHub {
        EventHub {
            state: Mutex::new(HubState {
                ring: VecDeque::new(),
                base: 0,
                next: 0,
                closed: false,
            }),
            cond: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Appends one line, evicting the oldest when full. No-op after
    /// [`EventHub::close`].
    pub fn publish(&self, line: &str) {
        let mut state = self.state.lock().expect("hub lock");
        if state.closed {
            return;
        }
        if state.ring.len() == self.capacity {
            state.ring.pop_front();
            state.base += 1;
        }
        state.ring.push_back(Arc::from(line));
        state.next += 1;
        self.cond.notify_all();
    }

    /// Marks the stream complete; subscribers drain what is retained and
    /// then read [`Recv::Closed`].
    pub fn close(&self) {
        let mut state = self.state.lock().expect("hub lock");
        state.closed = true;
        self.cond.notify_all();
    }

    /// Total lines ever published.
    #[must_use]
    pub fn published(&self) -> u64 {
        self.state.lock().expect("hub lock").next
    }

    /// A subscriber starting at the oldest retained line (for a freshly
    /// started job that is sequence 0, i.e. full replay).
    #[must_use]
    pub fn subscribe(self: &Arc<EventHub>) -> Subscriber {
        let cursor = self.state.lock().expect("hub lock").base;
        Subscriber {
            hub: Arc::clone(self),
            cursor,
            dropped: 0,
        }
    }

    /// A subscriber starting at the current tail (live tail only, no
    /// replay).
    #[must_use]
    pub fn subscribe_tail(self: &Arc<EventHub>) -> Subscriber {
        let cursor = self.state.lock().expect("hub lock").next;
        Subscriber {
            hub: Arc::clone(self),
            cursor,
            dropped: 0,
        }
    }
}

/// One subscriber's cursor into an [`EventHub`].
#[derive(Debug)]
pub struct Subscriber {
    hub: Arc<EventHub>,
    cursor: u64,
    dropped: u64,
}

impl Subscriber {
    /// Blocks up to `timeout` for the next line. Never blocks the
    /// publisher; a lagging cursor yields [`Recv::Lagged`] once per gap.
    pub fn next(&mut self, timeout: Duration) -> Recv {
        let mut state = self.hub.state.lock().expect("hub lock");
        loop {
            if self.cursor < state.base {
                let missed = state.base - self.cursor;
                self.cursor = state.base;
                self.dropped += missed;
                return Recv::Lagged { missed };
            }
            if self.cursor < state.next {
                let index = (self.cursor - state.base) as usize;
                let line = Arc::clone(&state.ring[index]);
                let seq = self.cursor;
                self.cursor += 1;
                return Recv::Line { seq, line };
            }
            if state.closed {
                return Recv::Closed;
            }
            let (next_state, result) = self
                .hub
                .cond
                .wait_timeout(state, timeout)
                .expect("hub lock");
            state = next_state;
            if result.timed_out() && self.cursor >= state.next && !state.closed {
                return Recv::TimedOut;
            }
        }
    }

    /// Total lines this subscriber has missed across all lag events.
    #[must_use]
    pub fn total_dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TICK: Duration = Duration::from_millis(10);

    #[test]
    fn delivers_in_order_and_reports_close() {
        let hub = Arc::new(EventHub::new(16));
        let mut sub = hub.subscribe();
        hub.publish("a");
        hub.publish("b");
        hub.close();
        assert!(matches!(sub.next(TICK), Recv::Line { seq: 0, ref line } if &**line == "a"));
        assert!(matches!(sub.next(TICK), Recv::Line { seq: 1, ref line } if &**line == "b"));
        assert_eq!(sub.next(TICK), Recv::Closed);
        assert_eq!(sub.next(TICK), Recv::Closed, "closed is terminal");
    }

    #[test]
    fn slow_subscriber_sees_explicit_lag() {
        let hub = Arc::new(EventHub::new(2));
        let mut sub = hub.subscribe();
        for i in 0..5 {
            hub.publish(&format!("line-{i}"));
        }
        // Ring holds only lines 3 and 4; the first read reports the gap.
        assert_eq!(sub.next(TICK), Recv::Lagged { missed: 3 });
        assert!(matches!(sub.next(TICK), Recv::Line { seq: 3, .. }));
        assert!(matches!(sub.next(TICK), Recv::Line { seq: 4, .. }));
        assert_eq!(sub.next(TICK), Recv::TimedOut);
        assert_eq!(sub.total_dropped(), 3);
    }

    #[test]
    fn tail_subscription_skips_history() {
        let hub = Arc::new(EventHub::new(8));
        hub.publish("old");
        let mut sub = hub.subscribe_tail();
        hub.publish("new");
        assert!(matches!(sub.next(TICK), Recv::Line { seq: 1, ref line } if &**line == "new"));
    }

    #[test]
    fn concurrent_subscribers_each_get_the_full_stream() {
        let hub = Arc::new(EventHub::new(1024));
        let mut readers = Vec::new();
        for _ in 0..3 {
            let mut sub = hub.subscribe();
            readers.push(std::thread::spawn(move || {
                let mut lines = Vec::new();
                loop {
                    match sub.next(Duration::from_secs(5)) {
                        Recv::Line { line, .. } => lines.push(line.to_string()),
                        Recv::Closed => return lines,
                        Recv::Lagged { .. } => panic!("capacity is ample"),
                        Recv::TimedOut => panic!("publisher stalled"),
                    }
                }
            }));
        }
        let expect: Vec<String> = (0..100).map(|i| format!("l{i}")).collect();
        for line in &expect {
            hub.publish(line);
        }
        hub.close();
        for reader in readers {
            assert_eq!(reader.join().expect("reader"), expect);
        }
    }
}
