//! Sharded execution for the multi-actor simulators.
//!
//! One large topology cannot use more than one core with a fused event
//! loop: every step pops the globally earliest chip, steps it, and
//! re-queues it. The key observation that unlocks sharding is that the
//! fabric's *functional* state is perfectly partitioned by chip — the
//! workload generator, the private L1/L2, and every compression pipeline
//! a chip drives (each directional `(requester, home)` pipeline has
//! exactly one requester) — and no functional code can read a clock:
//! clocks live in the replay-owned timing state. Only the *timing*
//! resources (PTP wires, local wires, DRAM channels) are shared between
//! chips.
//!
//! So the fabric engine runs two activities per epoch, side by side:
//!
//! - **Functional phase (parallel).** Each chip not yet finished adds up
//!   to [`EPOCH_STEPS`] steps to its buffered
//!   [`StepTrace`](crate::fabric)s (fewer when the replay has not caught
//!   up, so a chip never buffers more than two epochs). Threads claim
//!   chips one at a time from a shared counter, so a slow chip never
//!   leaves the other threads waiting at the barrier behind a fixed
//!   chunk.
//! - **Timing replay (sequential, on the calling thread).** While the
//!   helpers compute epoch k+1, the caller replays the traces already
//!   buffered: a single [`Scheduler`] heap pops `(now_ps, chip)` exactly
//!   as the fused loop would and applies each popped chip's next trace to
//!   the shared resources. When a popped chip has no buffered trace left
//!   but is not finished, that chip *is* the epoch horizon: the replay
//!   stops and the caller joins the claiming. At the barrier the new
//!   traces join the buffers and the next epoch starts.
//!
//! Functional telemetry is staged per chip and replayed with the step that
//! staged it, stamped with the step's start time, ahead of the step's
//! wire and DRAM events — exactly what the fused loop records.
//!
//! Every functional step is chip-deterministic and every timing mutation
//! (and every trace event) happens on the calling thread in the heap's
//! total order, so no output depends on where an epoch is cut or on which
//! thread stepped a chip: the run is bit-identical to
//! [`FabricSim::run_linear`] for every worker count, telemetry included,
//! fault-injected frames included (their schedules are functional state).
//!
//! [`NumaSim::run_sharded`](crate::NumaSim::run_sharded) splits per link
//! instead: its per-link op queues are drained over the contiguous
//! [`ShardPlan`] chunks of `for_each_shard`.

use crate::fabric::{ChipNode, FabricResult, FabricSim, FixedLatencies, StepTrace, Timing};
use crate::sched::Scheduler;
use crate::SystemConfig;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Steps a chip may run functionally ahead of the timing replay per
/// epoch. Bounds buffered-trace memory at
/// `2 * nodes * EPOCH_STEPS * STEP_TRACE_BYTES`; the value does not
/// affect results, only wall-clock.
pub const EPOCH_STEPS: usize = 256;

/// Bytes of one buffered step trace.
pub const STEP_TRACE_BYTES: usize = std::mem::size_of::<StepTrace>();

/// A contiguous partition of `actors` (the NUMA study's links) into at
/// most `workers` shards.
///
/// Shards are index ranges, never interleavings: actors `[0, chunk)` form
/// shard 0, `[chunk, 2*chunk)` shard 1, and so on. Contiguity is what
/// makes the telemetry merge's `(now_ps, shard, seq)` order agree with
/// the actor order, and it lets the engine hand out disjoint `&mut`
/// chunks with no index remapping.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardPlan {
    actors: usize,
    chunk_len: usize,
}

impl ShardPlan {
    /// Partitions `actors` across up to `workers` shards (at least one;
    /// never more shards than actors).
    #[must_use]
    pub fn new(actors: usize, workers: usize) -> Self {
        let workers = workers.clamp(1, actors.max(1));
        ShardPlan {
            actors,
            chunk_len: actors.div_ceil(workers).max(1),
        }
    }

    /// Number of shards actually produced.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.actors.div_ceil(self.chunk_len)
    }

    /// Actors per shard (the last shard may be shorter).
    #[must_use]
    pub fn chunk_len(&self) -> usize {
        self.chunk_len
    }

    /// The shard owning `actor`.
    #[must_use]
    pub fn shard_of(&self, actor: usize) -> usize {
        actor / self.chunk_len
    }
}

/// Runs `f(shard_index, chunk)` over disjoint contiguous chunks of
/// `items`, on one scoped OS thread per chunk when there is more than
/// one (a single chunk runs inline — worker count 1 must not pay thread
/// overhead, and its results are identical anyway).
pub(crate) fn for_each_shard<T, F>(items: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if items.len() <= chunk_len {
        f(0, items);
        return;
    }
    std::thread::scope(|scope| {
        for (shard, chunk) in items.chunks_mut(chunk_len).enumerate() {
            let f = &f;
            scope.spawn(move || f(shard, chunk));
        }
    });
}

/// One chip's functional lane: the chip, the traces its current epoch
/// produced, and how far the epoch may take it.
struct Lane<'a> {
    chip: &'a mut ChipNode,
    fresh: Vec<StepTrace>,
    quota: usize,
    /// The chip reached its instruction target (functionally; the replay
    /// learns it at the next barrier).
    done: bool,
}

/// Every lane of a run plus the claim counter of the current functional
/// phase.
struct Lanes<'a> {
    lanes: Vec<Mutex<Lane<'a>>>,
    next: AtomicUsize,
    target: u64,
    config: SystemConfig,
    latencies: FixedLatencies,
}

impl Lanes<'_> {
    /// Claims lanes one at a time until the phase has none left, running
    /// each claimed chip up to its quota.
    fn work(&self) {
        let nodes = self.lanes.len();
        // `Relaxed`: the counter publishes no data — each lane has its own
        // mutex, and the crew's mutex orders a phase's reset of `next`
        // before any helper's first claim.
        while let Some(lane) = self.lanes.get(self.next.fetch_add(1, Ordering::Relaxed)) {
            let lane = &mut *lock_lane(lane);
            while lane.fresh.len() < lane.quota && !lane.done {
                let trace = lane
                    .chip
                    .step_functional(nodes, &self.config, &self.latencies);
                lane.fresh.push(trace);
                lane.done = lane.chip.retired() >= self.target;
            }
        }
    }
}

fn lock_lane<'m, 'a>(lane: &'m Mutex<Lane<'a>>) -> MutexGuard<'m, Lane<'a>> {
    lane.lock()
        .expect("a shard helper panicked while stepping this chip")
}

/// Locks the crew state. Each field update stands alone, so the state is
/// valid even if a holder panicked, and `PhaseDone::drop` (which runs
/// while a helper unwinds) must not panic.
fn lock(m: &Mutex<CrewState>) -> MutexGuard<'_, CrewState> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Releases the helper threads into each functional phase and waits for
/// them to finish it.
#[derive(Default)]
struct Crew {
    state: Mutex<CrewState>,
    wake: Condvar,
}

#[derive(Default)]
struct CrewState {
    phase: u64,
    /// Helpers still working on the current phase.
    busy: usize,
    stop: bool,
    /// A helper panicked.
    failed: bool,
}

impl Crew {
    /// Starts a phase on `helpers` threads.
    fn start(&self, helpers: usize) {
        let mut s = lock(&self.state);
        s.phase += 1;
        s.busy = helpers;
        self.wake.notify_all();
    }

    /// Waits until every helper finished the current phase.
    ///
    /// # Panics
    ///
    /// Panics if a helper panicked during it.
    fn finish(&self) {
        let mut s = lock(&self.state);
        while s.busy > 0 {
            s = self.wake.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
        assert!(!s.failed, "a shard helper thread panicked");
    }

    /// Lets every helper return once its current phase is done.
    fn stop(&self) {
        lock(&self.state).stop = true;
        self.wake.notify_all();
    }

    /// A helper's loop: run `work` once per started phase until stopped.
    fn serve(&self, work: impl Fn()) {
        let mut seen = 0;
        loop {
            {
                let mut s = lock(&self.state);
                while s.phase == seen && !s.stop {
                    s = self.wake.wait(s).unwrap_or_else(PoisonError::into_inner);
                }
                if s.stop {
                    return;
                }
                seen = s.phase;
            }
            let _done = PhaseDone(self);
            work();
        }
    }
}

/// Checks a helper out of its phase — also when `work` panics, so the
/// caller is never left waiting.
struct PhaseDone<'a>(&'a Crew);

impl Drop for PhaseDone<'_> {
    fn drop(&mut self) {
        let mut s = lock(&self.0.state);
        s.busy -= 1;
        s.failed |= std::thread::panicking();
        self.0.wake.notify_all();
    }
}

/// Stops the crew when the caller leaves the scope, normally or by panic,
/// so the scope can join the helpers.
struct StopOnDrop<'a>(&'a Crew);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.stop();
    }
}

/// The pipelined fabric engine behind [`FabricSim::run_sharded`].
pub(crate) fn run_fabric_sharded(
    sim: &mut FabricSim,
    instructions_per_chip: u64,
    workers: usize,
) -> FabricResult {
    let (chips, timing, config, latencies) = sim.split_mut();
    let nodes = chips.len();
    let mut sched = Scheduler::with_capacity(nodes);
    for (i, chip) in chips.iter().enumerate() {
        if chip.retired() < instructions_per_chip {
            sched.push(timing.clock(i), i);
        }
    }
    let lanes = Lanes {
        lanes: chips
            .iter_mut()
            .map(|chip| {
                let done = chip.retired() >= instructions_per_chip;
                Mutex::new(Lane {
                    chip,
                    fresh: Vec::new(),
                    quota: 0,
                    done,
                })
            })
            .collect(),
        next: AtomicUsize::new(0),
        target: instructions_per_chip,
        config,
        latencies,
    };
    // Replay-side state: the traces ready to replay, and whether each
    // chip's last trace is among them.
    let mut ready: Vec<VecDeque<StepTrace>> = (0..nodes).map(|_| VecDeque::new()).collect();
    let mut exhausted = vec![false; nodes];
    let helpers = workers.clamp(1, nodes.max(1)) - 1;
    let crew = Crew::default();

    std::thread::scope(|scope| {
        for _ in 0..helpers {
            scope.spawn(|| crew.serve(|| lanes.work()));
        }
        let _stop = StopOnDrop(&crew);
        loop {
            // Barrier: hand the finished phase's traces and staged
            // telemetry to the replay and size the next phase.
            let mut pending = false;
            for (i, lane) in lanes.lanes.iter().enumerate() {
                let lane = &mut *lock_lane(lane);
                ready[i].extend(lane.fresh.drain(..));
                timing.take_staged(i, lane.chip);
                exhausted[i] = lane.done;
                lane.quota = (2 * EPOCH_STEPS - ready[i].len()).min(EPOCH_STEPS);
                pending |= !lane.done;
            }
            if sched.is_empty() {
                break;
            }
            if pending {
                lanes.next.store(0, Ordering::Relaxed);
                crew.start(helpers);
            }
            replay(&mut sched, &mut ready, &exhausted, timing);
            if pending {
                lanes.work();
                crew.finish();
            }
        }
    });
    sim.result()
}

/// Replays buffered traces in global `(now_ps, chip)` order until every
/// chip is finished or the earliest one has no trace left (the epoch
/// horizon, left queued for the next epoch).
fn replay(
    sched: &mut Scheduler,
    ready: &mut [VecDeque<StepTrace>],
    exhausted: &[bool],
    timing: &mut Timing,
) {
    while let Some((now, idx)) = sched.pop() {
        let Some(trace) = ready[idx].pop_front() else {
            sched.push(now, idx);
            return;
        };
        timing.apply(idx, &trace);
        if !(ready[idx].is_empty() && exhausted[idx]) {
            sched.push(timing.clock(idx), idx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_plan_partitions_contiguously() {
        let plan = ShardPlan::new(10, 4);
        assert_eq!(plan.chunk_len(), 3);
        assert_eq!(plan.shards(), 4);
        assert_eq!(plan.shard_of(0), 0);
        assert_eq!(plan.shard_of(2), 0);
        assert_eq!(plan.shard_of(3), 1);
        assert_eq!(plan.shard_of(9), 3);
    }

    #[test]
    fn shard_plan_clamps_degenerate_inputs() {
        assert_eq!(ShardPlan::new(4, 0).shards(), 1);
        assert_eq!(ShardPlan::new(4, 99).shards(), 4);
        assert_eq!(ShardPlan::new(0, 2).shards(), 0);
        assert_eq!(ShardPlan::new(1, 8).shards(), 1);
    }

    #[test]
    fn for_each_shard_covers_every_item_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let mut items: Vec<usize> = (0..13).collect();
        let calls = AtomicUsize::new(0);
        for_each_shard(&mut items, 4, |shard, chunk| {
            calls.fetch_add(1, Ordering::SeqCst);
            for v in chunk.iter_mut() {
                assert_eq!(*v / 4, shard, "contiguous partition");
                *v += 100;
            }
        });
        assert_eq!(calls.load(Ordering::SeqCst), 4);
        assert!(items.iter().all(|&v| v >= 100), "every item visited");
    }

    #[test]
    fn crew_runs_every_helper_once_per_phase() {
        use std::sync::atomic::AtomicUsize;
        let crew = Crew::default();
        let runs = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    crew.serve(|| {
                        runs.fetch_add(1, Ordering::SeqCst);
                    });
                });
            }
            let _stop = StopOnDrop(&crew);
            for phase in 1..=4 {
                crew.start(3);
                crew.finish();
                assert_eq!(runs.load(Ordering::SeqCst), 3 * phase);
            }
        });
    }

    #[test]
    fn a_panicking_helper_fails_the_run_instead_of_hanging_it() {
        let crew = Crew::default();
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            std::thread::scope(|scope| {
                scope.spawn(|| crew.serve(|| panic!("helper failed")));
                let _stop = StopOnDrop(&crew);
                crew.start(1);
                crew.finish();
            });
        }));
        assert!(run.is_err());
    }

    #[test]
    fn single_chunk_runs_inline() {
        let outer = std::thread::current().id();
        let mut items = [1, 2, 3];
        for_each_shard(&mut items, 8, |_, chunk| {
            assert_eq!(std::thread::current().id(), outer);
            chunk[0] = 9;
        });
        assert_eq!(items[0], 9);
    }
}
