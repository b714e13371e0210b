//! Deferred telemetry for clock-free simulation phases.
//!
//! A sharded timing simulator computes an actor's functional steps before
//! it knows *when* they happen: the stamp of a step is only known once the
//! timing replay reaches it. A staging handle ([`Telemetry::staging`])
//! shares its parent's metrics registry — counter and histogram updates
//! commute, so they apply at once from any thread — but holds back the two
//! operations whose outcome depends on order: trace events and gauge
//! stores. The simulator moves them out with [`Telemetry::take_staged`]
//! and applies them to the parent with [`Telemetry::replay_staged`] when
//! the replay reaches the step that staged them, so the parent sees them
//! in single-threaded order with single-threaded stamps.
//!
//! [`Telemetry::staging`]: crate::Telemetry::staging
//! [`Telemetry::take_staged`]: crate::Telemetry::take_staged
//! [`Telemetry::replay_staged`]: crate::Telemetry::replay_staged

use crate::event::Event;
use std::collections::VecDeque;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};

/// One held-back operation.
#[derive(Debug)]
pub(crate) enum StagedOp {
    /// A trace event; `Some` carries the explicit stamp of a `record_at`.
    Event(Option<u64>, Event),
    /// A gauge store into a registry cell.
    Gauge(Arc<AtomicU64>, u64),
}

/// The pending operations of one staging handle, in recording order.
#[derive(Debug, Default)]
pub(crate) struct Stage(Mutex<Vec<StagedOp>>);

impl Stage {
    pub(crate) fn push(&self, op: StagedOp) {
        self.0.lock().expect("stage poisoned").push(op);
    }

    pub(crate) fn len(&self) -> usize {
        self.0.lock().expect("stage poisoned").len()
    }

    /// Moves every pending operation to the back of `out`, keeping this
    /// stage's buffer for reuse.
    pub(crate) fn take_into(&self, out: &mut StagedOps) {
        out.0
            .extend(self.0.lock().expect("stage poisoned").drain(..));
    }
}

/// Operations taken from a staging handle, oldest first, waiting for the
/// replay to stamp them.
#[derive(Debug, Default)]
pub struct StagedOps(pub(crate) VecDeque<StagedOp>);

impl StagedOps {
    /// Number of waiting operations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether nothing is waiting.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}
