//! SLO watchdogs: declarative per-protocol service-level objectives,
//! evaluated once per epoch from the streaming rollups.
//!
//! The soak workload runs thousands of back-to-back broadcasts; nobody
//! reads thousands of traces. The watchdog inverts the pipeline: every
//! epoch is reduced to an [`EpochRollup`] (exact per-epoch quantile,
//! makespan, recovery counters — a few words, not an event stream),
//! the [`SloPolicy`] checks each rollup against its budgets, and only
//! a *breach* triggers forensics — the caller freezes the flight
//! recorder's ring and dumps a Chrome trace + journey book for just
//! that window (see the `soak` experiment in `scc-bench`).
//!
//! Budgets are deliberately declarative data, not callbacks, so every
//! breach can be re-derived from the policy and the rollups.

use scc_hal::Time;

/// Which objective a breach violated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SloKind {
    /// The epoch's delivery-latency p99 exceeded its budget.
    DeliveryP99,
    /// The epoch's makespan exceeded its budget.
    Makespan,
    /// The epoch performed recoveries where the policy expected none.
    Recovery,
}

/// The per-epoch telemetry one broadcast reduces to: what the sketches
/// and the watchdog consume instead of the event stream.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EpochRollup {
    pub epoch: u32,
    /// Exact nearest-rank p99 over this epoch's per-destination
    /// delivered latencies (one epoch is few samples — exactness is
    /// free here; the *cross-epoch* quantiles are the sketch's job).
    pub p99: Time,
    pub makespan: Time,
    pub timeouts: u64,
    pub recoveries: u64,
}

/// Declarative budgets for one protocol under soak.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SloPolicy {
    /// Delivery-latency p99 budget per epoch; `None` disables.
    pub p99_budget: Option<Time>,
    /// Makespan budget per epoch; `None` disables.
    pub makespan_budget: Option<Time>,
    /// Expect zero recoveries (healthy traffic must never need the
    /// reliability layer's repair path).
    pub zero_recoveries: bool,
}

impl SloPolicy {
    /// Evaluate one epoch. Empty vec = the epoch met every objective.
    pub fn check(&self, e: &EpochRollup) -> Vec<SloBreach> {
        let mut out = Vec::new();
        if let Some(budget) = self.p99_budget {
            if e.p99 > budget {
                out.push(SloBreach {
                    epoch: e.epoch,
                    kind: SloKind::DeliveryP99,
                    observed: e.p99.as_ps(),
                    budget: budget.as_ps(),
                });
            }
        }
        if let Some(budget) = self.makespan_budget {
            if e.makespan > budget {
                out.push(SloBreach {
                    epoch: e.epoch,
                    kind: SloKind::Makespan,
                    observed: e.makespan.as_ps(),
                    budget: budget.as_ps(),
                });
            }
        }
        if self.zero_recoveries && e.recoveries > 0 {
            out.push(SloBreach {
                epoch: e.epoch,
                kind: SloKind::Recovery,
                observed: e.recoveries,
                budget: 0,
            });
        }
        out
    }
}

/// One violated objective in one epoch. `observed`/`budget` are
/// picoseconds for the time objectives and plain counts for
/// [`SloKind::Recovery`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SloBreach {
    pub epoch: u32,
    pub kind: SloKind,
    pub observed: u64,
    pub budget: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> Time {
        Time::US * v
    }

    fn policy() -> SloPolicy {
        SloPolicy {
            p99_budget: Some(us(100)),
            makespan_budget: Some(us(200)),
            zero_recoveries: true,
        }
    }

    #[test]
    fn healthy_epoch_passes() {
        let e = EpochRollup { epoch: 3, p99: us(50), makespan: us(80), ..Default::default() };
        assert!(policy().check(&e).is_empty());
    }

    #[test]
    fn each_objective_breaches_independently() {
        let e = EpochRollup {
            epoch: 7,
            p99: us(150),
            makespan: us(300),
            recoveries: 2,
            ..Default::default()
        };
        let breaches = policy().check(&e);
        let kinds: Vec<SloKind> = breaches.iter().map(|b| b.kind).collect();
        assert_eq!(kinds, vec![SloKind::DeliveryP99, SloKind::Makespan, SloKind::Recovery]);
        assert!(breaches.iter().all(|b| b.epoch == 7));
    }

    #[test]
    fn budgets_are_inclusive() {
        // Exactly on budget is within SLO; one ps over is not.
        let p = policy();
        let on = EpochRollup { epoch: 0, p99: us(100), makespan: us(200), ..Default::default() };
        assert!(p.check(&on).is_empty());
        let over = EpochRollup {
            epoch: 0,
            p99: us(100) + Time::from_ps(1),
            makespan: us(200),
            ..Default::default()
        };
        assert_eq!(p.check(&over).len(), 1);
    }

    #[test]
    fn disabled_objectives_never_fire() {
        let p = SloPolicy { p99_budget: None, makespan_budget: None, zero_recoveries: false };
        let e = EpochRollup {
            epoch: 1,
            p99: us(10_000),
            makespan: us(10_000),
            recoveries: 99,
            ..Default::default()
        };
        assert!(p.check(&e).is_empty());
    }
}
