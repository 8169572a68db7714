//! Delivery-skew analysis: who got the broadcast late, and why.
//!
//! From a [`JourneyBook`] this module derives the delivery-latency
//! distribution (exact nearest-rank p50/p99/max via
//! [`LatencyHistogram`]), identifies the *straggler* (the journey whose
//! delivery window closed last — by construction the broadcast's
//! makespan), and attributes its excess latency leg by leg against the
//! nearest-rank *median* journey. Because per-journey leg dwells are an
//! exact partition of the delivery latency (see [`crate::journey`]),
//! the per-leg deltas sum exactly to the straggler-minus-median latency
//! difference — the attribution cannot hide time.

use crate::hist::LatencyHistogram;
use crate::journey::{Journey, JourneyBook, LegKind};
use scc_hal::Time;
use std::fmt::Write as _;

/// Recovery-layer counters (`oc_bcast::RelStats` shaped — `scc-obs`
/// cannot depend on the collectives crate, so the caller copies the
/// fields over) attached to a skew report when the recorded run went
/// through the reliable protocols. A straggler that was *recovered* —
/// its notification dropped, found by a timeout probe — dwells in the
/// same legs as an ordinary slow delivery; these counters let the
/// report name the recovery instead of blaming the legs alone.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryCounters {
    pub timeouts: u64,
    pub probes: u64,
    pub recoveries: u64,
    pub renotifies: u64,
}

impl RecoveryCounters {
    /// Did the reliability layer repair anything at all?
    pub fn any(&self) -> bool {
        self.timeouts + self.probes + self.recoveries + self.renotifies > 0
    }
}

/// The skew digest of one scenario.
#[derive(Clone, Debug)]
pub struct SkewReport {
    pub scenario: String,
    /// Number of journeys in the distribution.
    pub count: usize,
    /// Nearest-rank quantiles of the delivery-latency distribution.
    pub p50: Time,
    pub p99: Time,
    pub max: Time,
    /// The journey that closed last (ties broken by lowest core id).
    pub straggler: Journey,
    /// The nearest-rank median journey by latency.
    pub median: Journey,
    /// The run's makespan, for the `straggler.end == makespan` check.
    pub makespan: Time,
    /// Recovery counters of the run, when the caller measured a
    /// reliable protocol. `None` renders nothing — plain reports are
    /// byte-identical to before the field existed.
    pub recovery: Option<RecoveryCounters>,
}

impl SkewReport {
    /// `None` when the book holds no journeys (recording was off, or
    /// the collective degenerated to a no-op).
    pub fn from_book(scenario: &str, book: &JourneyBook) -> Option<SkewReport> {
        if book.journeys.is_empty() {
            return None;
        }
        let mut hist = LatencyHistogram::new();
        for j in &book.journeys {
            hist.record(j.latency());
        }
        let p50 = hist.quantile(0.50)?;
        let p99 = hist.quantile(0.99)?;
        let max = hist.max()?;
        let straggler =
            book.journeys.iter().max_by_key(|j| (j.end, std::cmp::Reverse(j.core.0)))?.clone();
        // Nearest-rank median journey: sort by (latency, core), take
        // rank ceil(n/2).
        let mut by_latency: Vec<&Journey> = book.journeys.iter().collect();
        by_latency.sort_by_key(|j| (j.latency(), j.core.0));
        let median = by_latency[by_latency.len().div_ceil(2) - 1].clone();
        Some(SkewReport {
            scenario: scenario.to_string(),
            count: book.journeys.len(),
            p50,
            p99,
            max,
            straggler,
            median,
            makespan: book.makespan,
            recovery: None,
        })
    }

    /// Attach the run's recovery counters (builder style, for the
    /// reliable-path callers).
    pub fn with_recovery(mut self, rc: RecoveryCounters) -> SkewReport {
        self.recovery = Some(rc);
        self
    }

    /// Per-leg `(straggler dwell, median dwell)` pairs, report order.
    pub fn attribution(&self) -> Vec<(LegKind, Time, Time)> {
        LegKind::ALL.into_iter().map(|k| (k, self.straggler.leg(k), self.median.leg(k))).collect()
    }

    /// The leg with the largest straggler-over-median excess — the
    /// root cause the report leads with. `None` when the straggler is
    /// nowhere slower than the median.
    pub fn dominant_leg(&self) -> Option<(LegKind, Time)> {
        self.attribution()
            .into_iter()
            .filter(|&(_, s, m)| s > m)
            .map(|(k, s, m)| (k, s - m))
            .max_by_key(|&(k, d)| (d, std::cmp::Reverse(k.index())))
    }
}

/// Render the skew digest: one section per scenario, fully
/// deterministic (virtual times only). Each soak forensic dump writes
/// one as `<stem>_skew.md`.
pub fn render_skew_markdown(reports: &[SkewReport]) -> String {
    let us = |t: Time| format!("{:.3}", t.as_us_f64());
    let mut out = String::from("# Delivery skew\n\n");
    let _ = writeln!(
        out,
        "Per-destination delivery latency (window open at collective \
         entry, close when the core holds the full payload), with the \
         straggler's excess attributed leg by leg against the median \
         journey. Leg dwells partition each journey exactly, so the \
         `delta` column sums to the straggler-minus-median latency.\n"
    );
    for r in reports {
        let _ = writeln!(out, "## {}\n", r.scenario);
        let _ = writeln!(out, "| metric | value |");
        let _ = writeln!(out, "|---|---|");
        let _ = writeln!(out, "| journeys | {} |", r.count);
        let _ = writeln!(out, "| delivery p50 | {} us |", us(r.p50));
        let _ = writeln!(out, "| delivery p99 | {} us |", us(r.p99));
        let _ = writeln!(out, "| delivery max | {} us |", us(r.max));
        let _ = writeln!(
            out,
            "| straggler | C{} (closed at {} us; makespan {} us) |",
            r.straggler.core.index(),
            us(r.straggler.end),
            us(r.makespan),
        );
        match r.dominant_leg() {
            Some((k, d)) => {
                let _ = writeln!(out, "| root cause | {} (+{} us vs median) |", k.name(), us(d));
            }
            None => {
                let _ = writeln!(out, "| root cause | none (straggler matches median) |");
            }
        }
        if let Some(rc) = r.recovery {
            let verdict = if rc.any() {
                format!(
                    "{} timeouts, {} probes, {} recoveries, {} re-notifies — \
                     the tail includes repaired deliveries, not just queueing",
                    rc.timeouts, rc.probes, rc.recoveries, rc.renotifies
                )
            } else {
                "clean (no timeouts, no recoveries)".to_string()
            };
            let _ = writeln!(out, "| reliability | {verdict} |");
        }
        let _ = writeln!(
            out,
            "\n### C{} vs median C{}\n",
            r.straggler.core.index(),
            r.median.core.index()
        );
        let _ = writeln!(out, "| leg | straggler (us) | median (us) | delta (us) |");
        let _ = writeln!(out, "|---|---|---|---|");
        for (k, s, m) in r.attribution() {
            if s == Time::ZERO && m == Time::ZERO {
                continue;
            }
            let delta = s.as_us_f64() - m.as_us_f64();
            let _ = writeln!(out, "| {} | {} | {} | {delta:+.3} |", k.name(), us(s), us(m));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ObsEvent, OpKind};
    use scc_hal::CoreId;

    fn ps(v: u64) -> Time {
        Time::from_ps(v)
    }

    fn run_with_ends(ends: &[u64]) -> JourneyBook {
        let mut events = Vec::new();
        for (i, &e) in ends.iter().enumerate() {
            events.push(ObsEvent::DeliveryBegin { core: CoreId(i as u8), epoch: 0, at: ps(0) });
            // Give the straggler a distinctive poll leg.
            events.push(ObsEvent::Op {
                core: CoreId(i as u8),
                kind: OpKind::FlagRead,
                lines: 1,
                start: ps(0),
                end: ps(e / 2),
                msg: None,
            });
            events.push(ObsEvent::DeliveryEnd { core: CoreId(i as u8), epoch: 0, at: ps(e) });
            events.push(ObsEvent::Finish { core: CoreId(i as u8), at: ps(e) });
        }
        JourneyBook::from_events(&events)
    }

    #[test]
    fn straggler_is_last_delivery_and_equals_makespan() {
        let book = run_with_ends(&[300, 900, 500, 400]);
        let r = SkewReport::from_book("t", &book).unwrap();
        assert_eq!(r.straggler.core, CoreId(1));
        assert_eq!(r.straggler.end, book.makespan);
        assert_eq!(r.max, ps(900));
        assert_eq!(r.p50, ps(400), "nearest-rank median of 300/400/500/900");
        assert_eq!(r.median.latency(), ps(400));
        let (k, d) = r.dominant_leg().unwrap();
        assert_eq!(k, LegKind::FlagNotify, "straggler polls longest");
        assert_eq!(d, ps(450 - 200));
    }

    #[test]
    fn empty_book_has_no_report() {
        assert!(SkewReport::from_book("t", &JourneyBook::default()).is_none());
    }

    #[test]
    fn markdown_is_deterministic_and_names_the_root_cause() {
        let book = run_with_ends(&[100, 700, 200]);
        let r = SkewReport::from_book("oc-bcast", &book).unwrap();
        let md1 = render_skew_markdown(std::slice::from_ref(&r));
        let md2 = render_skew_markdown(std::slice::from_ref(&r));
        assert_eq!(md1, md2);
        assert!(md1.contains("## oc-bcast"), "{md1}");
        assert!(md1.contains("| root cause | flag-notify"), "{md1}");
        assert!(md1.contains("| delivery max | 0.001 us |"), "{md1}");
        assert!(!md1.contains("| reliability |"), "plain reports stay unchanged: {md1}");
    }

    #[test]
    fn recovery_counters_name_the_repair_when_attached() {
        let book = run_with_ends(&[100, 700, 200]);
        let r = SkewReport::from_book("oc-bcast", &book).unwrap().with_recovery(RecoveryCounters {
            timeouts: 2,
            probes: 2,
            recoveries: 1,
            renotifies: 0,
        });
        let md = render_skew_markdown(std::slice::from_ref(&r));
        assert!(md.contains("| reliability | 2 timeouts, 2 probes, 1 recoveries"), "{md}");
        let clean = SkewReport::from_book("oc-bcast", &book)
            .unwrap()
            .with_recovery(RecoveryCounters::default());
        let md = render_skew_markdown(std::slice::from_ref(&clean));
        assert!(md.contains("| reliability | clean (no timeouts, no recoveries) |"), "{md}");
    }
}
