//! The shared control surface of a running campaign or fleet.
//!
//! A [`StopHandle`] is a cloneable handle an operator (or the
//! `hfl-serve` daemon) holds while [`crate::campaign::run_campaign`] or
//! a fleet ([`crate::fleet::run_fleet`], or
//! [`crate::fleet_dist::run_fleet_dist`], which `hfl-serve` runs fleets
//! through) executes on another thread. It carries two level-triggered
//! requests, both honoured at the next round (campaign) or epoch (fleet)
//! boundary — the only points where every fuzzer's pending queues are
//! empty and a snapshot is bit-identically resumable:
//!
//! - **stop**: finish the current round/epoch, write a final checkpoint
//!   (when a [`crate::campaign::CheckpointPolicy`] is attached) and
//!   return with `completed = false`;
//! - **checkpoint-now**: write a snapshot at the next boundary without
//!   stopping (a no-op when no checkpoint policy is attached).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Cloneable stop/checkpoint-now control handle (see the module docs).
///
/// # Examples
///
/// ```
/// use hfl::control::StopHandle;
///
/// let handle = StopHandle::new();
/// let runner_side = handle.clone();
/// assert!(!runner_side.stop_requested());
/// handle.request_stop();
/// assert!(runner_side.stop_requested());
/// ```
#[derive(Debug, Clone, Default)]
pub struct StopHandle {
    inner: Arc<Flags>,
}

#[derive(Debug, Default)]
struct Flags {
    stop: AtomicBool,
    checkpoint: AtomicBool,
}

impl StopHandle {
    /// A fresh handle with no pending requests.
    #[must_use]
    pub fn new() -> StopHandle {
        StopHandle::default()
    }

    /// Requests a graceful stop (level-triggered; idempotent).
    pub fn request_stop(&self) {
        self.inner.stop.store(true, Ordering::SeqCst);
    }

    /// Whether a stop was requested.
    #[must_use]
    pub fn stop_requested(&self) -> bool {
        self.inner.stop.load(Ordering::SeqCst)
    }

    /// Requests one snapshot at the next round/epoch boundary.
    pub fn request_checkpoint(&self) {
        self.inner.checkpoint.store(true, Ordering::SeqCst);
    }

    /// Whether a checkpoint-now request is pending (without claiming it).
    #[must_use]
    pub fn checkpoint_requested(&self) -> bool {
        self.inner.checkpoint.load(Ordering::SeqCst)
    }

    /// Claims a pending checkpoint-now request, if any (the runner calls
    /// this once per boundary; the request is edge-consumed so one
    /// request yields exactly one snapshot).
    #[must_use]
    pub fn take_checkpoint_request(&self) -> bool {
        self.inner.checkpoint.swap(false, Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_are_shared_across_clones_and_checkpoint_is_edge_consumed() {
        let a = StopHandle::new();
        let b = a.clone();
        assert!(!a.stop_requested() && !b.checkpoint_requested());
        b.request_stop();
        assert!(a.stop_requested());
        a.request_checkpoint();
        assert!(b.checkpoint_requested());
        assert!(b.take_checkpoint_request());
        assert!(!b.take_checkpoint_request(), "claimed exactly once");
        assert!(!a.checkpoint_requested());
    }
}
