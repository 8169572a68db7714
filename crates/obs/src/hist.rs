//! Latency distributions of a recorded run: per protocol phase and per
//! resource-wait class.
//!
//! The conformance gate compares *means*; when a mean moves, the first
//! question is whether the whole distribution shifted (a cost change)
//! or a tail appeared (new contention). [`RunHistograms`] answers it:
//! every matched `SpanBegin`/`SpanEnd` pair contributes one phase
//! sample, every [`crate::ObsEvent::Wait`] one queueing sample for its
//! resource class, and each series is summarized as exact quantiles
//! (nearest-rank over the stored samples — the simulator is
//! deterministic, so p50 == p99 on an uncontended run is a *testable*
//! statement, see `tests/observability.rs`) plus a log₂-bucketed shape
//! for rendering.

use crate::event::ObsEvent;
use crate::lanes::{Closed, Lanes};
use scc_hal::Time;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One latency series: exact samples for quantiles, log₂ buckets for
/// shape. Sample unit is virtual picoseconds.
#[derive(Clone, Debug, Default)]
pub struct LatencyHistogram {
    samples: Vec<u64>,
    sorted: bool,
}

impl LatencyHistogram {
    pub fn new() -> LatencyHistogram {
        LatencyHistogram::default()
    }

    pub fn record(&mut self, v: Time) {
        self.samples.push(v.as_ps());
        self.sorted = false;
    }

    pub fn count(&self) -> usize {
        self.samples.len()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
    }

    /// Nearest-rank quantile (`q` in 0..=1). Exact on the recorded
    /// samples: on a run where every sample is identical, every
    /// quantile equals that sample. `None` on an empty series.
    pub fn quantile(&mut self, q: f64) -> Option<Time> {
        if self.samples.is_empty() {
            return None;
        }
        self.sort();
        let n = self.samples.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        Some(Time::from_ps(self.samples[rank - 1]))
    }

    pub fn max(&mut self) -> Option<Time> {
        self.sort();
        self.samples.last().map(|&v| Time::from_ps(v))
    }

    pub fn total(&self) -> Time {
        Time::from_ps(self.samples.iter().sum())
    }

    /// Log₂ bucket counts: bucket `b` holds samples in
    /// `[2^(b-1), 2^b)` ps, with bucket 0 holding exact zeros. Sparse —
    /// only populated buckets appear.
    pub fn log2_buckets(&self) -> BTreeMap<u32, u64> {
        let mut out = BTreeMap::new();
        for &s in &self.samples {
            let b = if s == 0 { 0 } else { 64 - s.leading_zeros() };
            *out.entry(b).or_insert(0) += 1;
        }
        out
    }

    /// One-line ASCII shape of the log₂ buckets ("▁▃█…" scaled to the
    /// largest bucket), for compact table cells.
    pub fn sparkline(&self) -> String {
        const GLYPHS: [char; 5] = ['.', '▂', '▄', '▆', '█'];
        let buckets = self.log2_buckets();
        let (Some(&lo), Some(&hi)) = (buckets.keys().next(), buckets.keys().last()) else {
            return String::new();
        };
        let peak = buckets.values().copied().max().unwrap_or(1).max(1);
        (lo..=hi)
            .map(|b| {
                let n = buckets.get(&b).copied().unwrap_or(0);
                if n == 0 {
                    ' '
                } else {
                    GLYPHS[((n * (GLYPHS.len() as u64 - 1)).div_ceil(peak)) as usize]
                }
            })
            .collect()
    }
}

/// All latency series of one recorded run.
#[derive(Clone, Debug, Default)]
pub struct RunHistograms {
    /// Keyed by phase name (`Phase::name()` — span args are merged so
    /// "round 0..5" is one series).
    pub phases: BTreeMap<&'static str, LatencyHistogram>,
    /// Keyed by resource class ("port" / "router" / "mc"); samples are
    /// queueing waits `start - arrival`, zero included, so quantiles
    /// read as "how long did the p99 booking queue".
    pub waits: BTreeMap<&'static str, LatencyHistogram>,
}

impl RunHistograms {
    /// Build from an event stream. Spans pair by the [`Lanes`] rule: an
    /// unmatched `SpanEnd` is ignored, an unmatched `SpanBegin` simply
    /// never yields a sample — partial streams degrade, they don't
    /// panic.
    pub fn build(events: &[ObsEvent]) -> RunHistograms {
        let mut hg = RunHistograms::default();
        let mut lanes = Lanes::default();
        for ev in events {
            if let Some(Closed::Span { span, begin, end, .. }) = lanes.step(ev) {
                hg.phases.entry(span.phase.name()).or_default().record(end.saturating_sub(begin));
            }
            if let ObsEvent::Wait { resource, arrival, start, .. } = *ev {
                hg.waits.entry(resource.class()).or_default().record(start.saturating_sub(arrival));
            }
        }
        hg
    }

    /// Markdown table: one row per phase and per wait class with count,
    /// p50/p90/p99/max and the log₂ shape.
    pub fn render_markdown(&mut self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "| series | n | p50 | p90 | p99 | max | total | shape (log2 ps) |");
        let _ = writeln!(out, "|---|---:|---:|---:|---:|---:|---:|---|");
        let fmt = |t: Option<Time>| match t {
            Some(t) => format!("{:.3}us", t.as_us_f64()),
            None => "—".into(),
        };
        // Stable order: phases first (`BTreeMap` on the name is
        // alphabetical; fine for a report), then wait classes.
        let phases = self.phases.iter_mut().map(|(k, h)| (format!("phase {k}"), h));
        let waits = self.waits.iter_mut().map(|(k, h)| (format!("{k}-wait"), h));
        for (series, h) in phases.chain(waits) {
            let (p50, p90, p99) = (h.quantile(0.50), h.quantile(0.90), h.quantile(0.99));
            let (mx, total, spark) = (h.max(), h.total(), h.sparkline());
            let _ = writeln!(
                out,
                "| {series} | {} | {} | {} | {} | {} | {:.3}us | `{spark}` |",
                h.count(),
                fmt(p50),
                fmt(p90),
                fmt(p99),
                fmt(mx),
                total.as_us_f64(),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ResourceId;
    use scc_hal::{CoreId, Phase, Span};

    fn ns(v: u64) -> Time {
        Time::from_ns(v)
    }

    #[test]
    fn quantiles_are_nearest_rank_exact() {
        let mut h = LatencyHistogram::new();
        for v in [10u64, 20, 30, 40, 50, 60, 70, 80, 90, 100] {
            h.record(ns(v));
        }
        assert_eq!(h.quantile(0.50), Some(ns(50)));
        assert_eq!(h.quantile(0.90), Some(ns(90)));
        assert_eq!(h.quantile(0.99), Some(ns(100)));
        assert_eq!(h.quantile(0.0), Some(ns(10)));
        assert_eq!(h.max(), Some(ns(100)));
        assert_eq!(h.total(), ns(550));
    }

    #[test]
    fn identical_samples_collapse_all_quantiles() {
        let mut h = LatencyHistogram::new();
        for _ in 0..7 {
            h.record(ns(123));
        }
        assert_eq!(h.quantile(0.50), h.quantile(0.99));
        assert_eq!(h.quantile(0.99), Some(ns(123)));
    }

    #[test]
    fn empty_series_yields_none() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.max(), None);
        assert!(h.sparkline().is_empty());
    }

    #[test]
    fn log2_buckets_split_by_magnitude() {
        let mut h = LatencyHistogram::new();
        h.record(Time::from_ps(0));
        h.record(Time::from_ps(1)); // bucket 1: [1,2)
        h.record(Time::from_ps(3)); // bucket 2: [2,4)
        h.record(Time::from_ps(1024)); // bucket 11: [1024, 2048)
        let b = h.log2_buckets();
        assert_eq!(b[&0], 1);
        assert_eq!(b[&1], 1);
        assert_eq!(b[&2], 1);
        assert_eq!(b[&11], 1);
        assert_eq!(b.values().sum::<u64>(), 4);
    }

    #[test]
    fn build_pairs_spans_and_classifies_waits() {
        let sp = Span::of(Phase::Dissemination);
        let rd = Span::of(Phase::Round);
        let events = vec![
            ObsEvent::SpanBegin { core: CoreId(0), span: sp, at: ns(0) },
            // Nested inner span on the same core.
            ObsEvent::SpanBegin { core: CoreId(0), span: rd, at: ns(10) },
            ObsEvent::SpanEnd { core: CoreId(0), span: rd, at: ns(30) },
            ObsEvent::SpanEnd { core: CoreId(0), span: sp, at: ns(100) },
            // Another core's same-phase span lands in the same series.
            ObsEvent::SpanBegin { core: CoreId(1), span: sp, at: ns(50) },
            ObsEvent::SpanEnd { core: CoreId(1), span: sp, at: ns(150) },
            ObsEvent::Wait {
                core: CoreId(0),
                resource: ResourceId::Port(3),
                arrival: ns(5),
                start: ns(9),
                end: ns(12),
                link: None,
            },
            ObsEvent::Wait {
                core: CoreId(1),
                resource: ResourceId::Mc(0),
                arrival: ns(7),
                start: ns(7),
                end: ns(8),
                link: None,
            },
        ];
        let mut hg = RunHistograms::build(&events);
        assert_eq!(hg.phases["disseminate"].count(), 2);
        assert_eq!(hg.phases.get_mut("disseminate").unwrap().quantile(0.5), Some(ns(100)));
        assert_eq!(hg.phases.get_mut("round").unwrap().quantile(0.5), Some(ns(20)));
        assert_eq!(hg.waits.get_mut("port").unwrap().quantile(0.99), Some(ns(4)));
        assert_eq!(hg.waits.get_mut("mc").unwrap().quantile(0.99), Some(ns(0)));
        let md = hg.render_markdown();
        assert!(md.contains("| phase disseminate | 2 |"), "{md}");
        assert!(md.contains("port-wait"), "{md}");
    }

    #[test]
    fn unmatched_span_ends_are_ignored() {
        let events =
            vec![ObsEvent::SpanEnd { core: CoreId(0), span: Span::of(Phase::Ack), at: ns(10) }];
        let hg = RunHistograms::build(&events);
        assert!(hg.phases.is_empty());
    }
}
