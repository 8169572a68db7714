//! Engine counters: process-wide cumulative totals plus a per-thread
//! attribution scope.
//!
//! Every successful [`crate::run_spmd`] adds its [`SimStats`] engine
//! counters to a set of global atomics (one relaxed add per *run*, not
//! per event — invisible next to the run itself) **and** to a
//! thread-local accumulator owned by the calling thread.
//!
//! The global atomics are *process totals*: they observe everything the
//! process simulated, whoever drove it. They are useless for attribution the moment two harness
//! threads run simulations concurrently — a before/after snapshot then
//! charges one thread with the other's events. Harnesses that need
//! per-phase attribution (the `observatory`'s per-experiment
//! self-metrics) use the thread-local scope instead: call
//! [`take_thread`] to drain the calling thread's accumulated totals,
//! run the phase, call [`take_thread`] again — the delta is exactly the
//! engine work of the runs *this thread* completed, regardless of what
//! any other thread did in the meantime. `run_spmd` blocks its caller
//! for the whole run and folds the stats in before returning, so a
//! run's work is always charged to the thread that asked for it.
//!
//! The module also keeps an in-flight gauge: how many `run_spmd` calls
//! are currently executing, and the high-water mark since the last
//! [`reset_peak_in_flight`] — the "peak concurrent simulations" number
//! the parallel sweep runner reports.
//!
//! Virtual-time results are unaffected — these counters observe the
//! engine, they never feed back into it.

use crate::chip::SimStats;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// The process totals, in [`EngineTotals::fields`] order.
static TOTALS: [AtomicU64; 6] = [const { AtomicU64::new(0) }; 6];

static IN_FLIGHT: AtomicU64 = AtomicU64::new(0);
static PEAK_IN_FLIGHT: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_TOTALS: Cell<EngineTotals> = const { Cell::new(EngineTotals::ZERO) };
}

/// Totals accumulated since process start (or the difference of two
/// snapshots, see [`EngineTotals::since`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineTotals {
    /// Completed `run_spmd` invocations.
    pub runs: u64,
    /// Events retired (popped + coalesced), summed over runs.
    pub events: u64,
    /// Timed RMA operations simulated.
    pub ops: u64,
    /// Events pushed onto the event queue.
    pub heap_pushes: u64,
    /// Event-queue round-trips elided by the coalesced fast path.
    pub coalesced_steps: u64,
    /// Changes of runnable core (handoffs).
    pub handoffs: u64,
}

impl EngineTotals {
    pub const ZERO: EngineTotals = EngineTotals::from_fields([0; 6]);

    /// Counter deltas between an `earlier` snapshot and this one.
    pub fn since(&self, earlier: &EngineTotals) -> EngineTotals {
        let (a, b) = (self.fields(), earlier.fields());
        EngineTotals::from_fields(std::array::from_fn(|i| a[i] - b[i]))
    }

    /// Element-wise sum of two totals.
    pub fn plus(&self, other: &EngineTotals) -> EngineTotals {
        let (a, b) = (self.fields(), other.fields());
        EngineTotals::from_fields(std::array::from_fn(|i| a[i] + b[i]))
    }

    fn fields(&self) -> [u64; 6] {
        [self.runs, self.events, self.ops, self.heap_pushes, self.coalesced_steps, self.handoffs]
    }

    const fn from_fields(
        [runs, events, ops, heap_pushes, coalesced_steps, handoffs]: [u64; 6],
    ) -> Self {
        EngineTotals { runs, events, ops, heap_pushes, coalesced_steps, handoffs }
    }

    fn of_run(s: &SimStats) -> EngineTotals {
        EngineTotals::from_fields([
            1,
            s.events,
            s.ops,
            s.heap_pushes,
            s.coalesced_steps,
            s.handoffs,
        ])
    }
}

/// Read the current process-wide totals.
pub fn snapshot() -> EngineTotals {
    EngineTotals::from_fields(TOTALS.each_ref().map(|total| total.load(Ordering::Relaxed)))
}

/// Drain the calling thread's accumulated totals: returns everything
/// the thread's completed `run_spmd` calls added since the previous
/// `take_thread` on this thread (or thread start) and resets the
/// accumulator to zero. Attribution-safe under any number of
/// concurrently simulating threads.
pub fn take_thread() -> EngineTotals {
    THREAD_TOTALS.with(|t| t.replace(EngineTotals::ZERO))
}

/// Fold one successful run's counters into the process totals and the
/// calling thread's attribution scope.
pub(crate) fn add_run(stats: &SimStats) {
    let run = EngineTotals::of_run(stats);
    for (total, n) in TOTALS.iter().zip(run.fields()) {
        total.fetch_add(n, Ordering::Relaxed);
    }
    THREAD_TOTALS.with(|t| t.set(t.get().plus(&run)));
}

/// RAII guard around one in-flight `run_spmd`; created at run start,
/// dropped on every exit path (success, error, panic unwind).
pub(crate) struct InFlightGuard;

impl InFlightGuard {
    pub(crate) fn enter() -> InFlightGuard {
        let now = IN_FLIGHT.fetch_add(1, Ordering::Relaxed) + 1;
        PEAK_IN_FLIGHT.fetch_max(now, Ordering::Relaxed);
        InFlightGuard
    }
}

impl Drop for InFlightGuard {
    fn drop(&mut self) {
        IN_FLIGHT.fetch_sub(1, Ordering::Relaxed);
    }
}

/// High-water mark of concurrently executing simulations since the
/// last [`reset_peak_in_flight`].
pub fn peak_in_flight() -> u64 {
    PEAK_IN_FLIGHT.load(Ordering::Relaxed)
}

/// Restart the peak gauge (e.g. at the start of a sweep) at the
/// current in-flight level.
pub fn reset_peak_in_flight() {
    PEAK_IN_FLIGHT.store(IN_FLIGHT.load(Ordering::Relaxed), Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_deltas_track_a_run() {
        let before = snapshot();
        let cfg = crate::SimConfig { num_cores: 2, mem_bytes: 4096, ..Default::default() };
        let rep = crate::run_spmd(&cfg, |c| {
            use scc_hal::{MpbAddr, Rma};
            if c.core().index() == 0 {
                c.put_from_mpb(0, MpbAddr::new(scc_hal::CoreId(1), 0), 4).unwrap();
            }
        })
        .unwrap();
        let delta = snapshot().since(&before);
        assert!(delta.runs >= 1);
        assert!(delta.events >= rep.stats.events);
        assert!(delta.ops >= rep.stats.ops);
    }

    #[test]
    fn thread_scope_charges_exactly_the_callers_runs() {
        let cfg = crate::SimConfig { num_cores: 2, mem_bytes: 4096, ..Default::default() };
        let prog = |c: &mut crate::SimCore| {
            use scc_hal::{MpbAddr, Rma};
            if c.core().index() == 0 {
                c.put_from_mpb(0, MpbAddr::new(scc_hal::CoreId(1), 0), 8).unwrap();
            }
        };
        let _ = take_thread();
        let rep = crate::run_spmd(&cfg, prog).unwrap();
        let mine = take_thread();
        assert_eq!(mine.runs, 1);
        assert_eq!(mine.events, rep.stats.events);
        assert_eq!(mine.ops, rep.stats.ops);
        assert_eq!(mine.heap_pushes, rep.stats.heap_pushes);
        // Drained: a second take sees nothing.
        assert_eq!(take_thread(), EngineTotals::ZERO);
    }

    #[test]
    fn peak_in_flight_tracks_at_least_one_run() {
        reset_peak_in_flight();
        let cfg = crate::SimConfig { num_cores: 1, mem_bytes: 4096, ..Default::default() };
        crate::run_spmd(&cfg, |_| ()).unwrap();
        assert!(peak_in_flight() >= 1);
    }
}
