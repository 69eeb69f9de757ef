//! A bench-side [`EventSink`] that times the closed loop's iterations.
//!
//! The campaign and fleet runners announce every iteration of their loop
//! on the event stream: `RoundStart`→`RoundEnd` brackets a campaign
//! round, `EpochStart`→`EpochEnd` a fleet epoch. Wrapping the workload's
//! own sink with [`LoopClock`] turns those brackets into wall-clock
//! samples without touching the runner. Every event is forwarded
//! unchanged, so the workload's JSONL log is exactly what it would be
//! without the clock.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use hfl::obs::{Event, EventSink};

/// What a [`LoopClock`] collected during one run.
pub struct LoopLog {
    /// Wall seconds of each completed loop iteration, in order.
    pub loops: Vec<f64>,
    /// Every non-timing event seen, when the clock had no inner sink to
    /// forward to (the replay checks then read these instead of a file).
    pub kept: Vec<Event>,
}

struct ClockState {
    opened: Option<Instant>,
    log: LoopLog,
}

/// Times loop iterations and forwards events to the workload's sink.
pub struct LoopClock {
    inner: Option<Arc<dyn EventSink>>,
    state: Mutex<ClockState>,
}

impl LoopClock {
    /// A clock forwarding to `inner`; with `None` it keeps the events
    /// itself.
    pub fn new(inner: Option<Arc<dyn EventSink>>) -> Arc<LoopClock> {
        Arc::new(LoopClock {
            inner,
            state: Mutex::new(ClockState {
                opened: None,
                log: LoopLog {
                    loops: Vec::new(),
                    kept: Vec::new(),
                },
            }),
        })
    }

    /// Takes what was collected so far.
    pub fn take(&self) -> LoopLog {
        let mut state = self.state.lock().expect("loop clock lock");
        state.opened = None;
        std::mem::replace(
            &mut state.log,
            LoopLog {
                loops: Vec::new(),
                kept: Vec::new(),
            },
        )
    }
}

impl EventSink for LoopClock {
    fn emit(&self, event: &Event) {
        let now = Instant::now();
        {
            let mut state = self.state.lock().expect("loop clock lock");
            match event {
                Event::RoundStart { .. } | Event::EpochStart { .. } => state.opened = Some(now),
                Event::RoundEnd { .. } | Event::EpochEnd { .. } => {
                    if let Some(opened) = state.opened.take() {
                        state.log.loops.push((now - opened).as_secs_f64());
                    }
                }
                _ => {}
            }
            if self.inner.is_none() && !event.is_timing() {
                state.log.kept.push(event.clone());
            }
        }
        if let Some(inner) = &self.inner {
            inner.emit(event);
        }
    }

    fn flush(&self) {
        if let Some(inner) = &self.inner {
            inner.flush();
        }
    }

    fn take_error(&self) -> Option<std::io::Error> {
        self.inner.as_ref().and_then(|inner| inner.take_error())
    }
}
