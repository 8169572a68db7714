//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is (name, start, end, parent, unit id). Spans are recorded
//! only from the benchmark's own files — `unit` → `sim.run_spmd` →
//! per-core `core.*`, or `unit` → `obs.*`, or `unit` → `bench.*` —
//! kept in memory, folded into per-name totals after every traced
//! unit, and written out when the run ends.
//!
//! A span's *self time* is its duration minus the part of that interval
//! its child spans cover. Children may overlap each other (the 48
//! per-core spans of one simulated run are all open at once), so cover
//! is the length of the *union* of the child intervals.

use scc_obs::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span within its unit; [`SpanId::NONE`] for "no parent"
/// and for every span begun while tracing is off.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    pub const NONE: SpanId = SpanId(u32::MAX);

    pub fn index(self) -> Option<usize> {
        (self != SpanId::NONE).then_some(self.0 as usize)
    }
}

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `sim.run_spmd`.
    pub name: &'static str,
    /// Optional last name component (`bench.exp` + `fig3`).
    pub sub: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
}

impl Span {
    pub fn full_name(&self) -> String {
        if self.sub.is_empty() {
            self.name.to_string()
        } else {
            format!("{}.{}", self.name, self.sub)
        }
    }

    fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer a span belongs to: its name up to the first dot. The
    /// `unit` root span belongs to the harness.
    pub fn layer(&self) -> &'static str {
        match self.name.split('.').next() {
            Some("unit") | None => "harness",
            Some(l) => l,
        }
    }
}

/// Span recorder shared with the simulated cores' host threads.
pub struct Tracer {
    /// Only a switch: publishes no data (spans are behind the mutex).
    on: AtomicBool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { on: AtomicBool::new(false), epoch: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    /// Switch recording on or off; called between units only.
    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        // No code that can panic runs under this lock; a poisoned lock
        // would only mean a core closure panicked elsewhere, and the
        // unit that owns it is then counted as failed anyway.
        self.spans.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub fn begin(&self, name: &'static str, sub: &'static str, parent: SpanId) -> SpanId {
        if !self.on.load(Ordering::Relaxed) {
            return SpanId::NONE;
        }
        let start_ns = self.now_ns();
        let mut spans = self.lock();
        spans.push(Span { name, sub, start_ns, end_ns: start_ns, parent });
        SpanId((spans.len() - 1) as u32)
    }

    pub fn end(&self, id: SpanId) {
        if let Some(i) = id.index() {
            let end_ns = self.now_ns();
            if let Some(s) = self.lock().get_mut(i) {
                s.end_ns = end_ns;
            }
        }
    }

    /// Time `f` as one span.
    pub fn span<T>(
        &self,
        name: &'static str,
        sub: &'static str,
        parent: SpanId,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, sub, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Remove and return the spans recorded since the last call (one
    /// unit's worth: span ids restart at zero afterwards).
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.lock())
    }
}

/// Length of the union of `intervals`.
pub fn cover(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = 0;
    for (s, e) in intervals {
        let s = s.max(reach);
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

fn children_of(spans: &[Span]) -> Vec<Vec<usize>> {
    let mut kids = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent.index().filter(|&p| p < spans.len()) {
            kids[p].push(i);
        }
    }
    kids
}

/// Child intervals of `parent`, clipped to the parent's own interval.
fn clipped(spans: &[Span], parent: &Span, kids: &[usize]) -> Vec<(u64, u64)> {
    kids.iter()
        .map(|&k| (spans[k].start_ns.max(parent.start_ns), spans[k].end_ns.min(parent.end_ns)))
        .collect()
}

/// Self time of every span of one unit: duration minus child cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let kids = children_of(spans);
    spans
        .iter()
        .zip(&kids)
        .map(|(s, k)| s.dur().saturating_sub(cover(clipped(spans, s, k))))
        .collect()
}

/// Wall time of one unit attributed to layers, each instant counted
/// once: a span's self time goes to its own layer; where sibling spans
/// overlap each other (the per-core spans of one simulated run), their
/// *cover* — not the sum of their durations — goes to the siblings'
/// layer. The values sum to the root spans' total duration.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let kids = children_of(spans);
    let own = self_times(spans);
    let mut out = BTreeMap::new();
    // Spans below an overlapping sibling group are already accounted
    // for by the group's cover.
    let mut skip = vec![false; spans.len()];
    for i in 0..spans.len() {
        if skip[i] {
            for &k in &kids[i] {
                skip[k] = true;
            }
            continue;
        }
        *out.entry(spans[i].layer()).or_insert(0) += own[i];
        let iv = clipped(spans, &spans[i], &kids[i]);
        let summed: u64 = iv.iter().map(|&(s, e)| e.saturating_sub(s)).sum();
        let covered = cover(iv);
        if covered < summed {
            *out.entry(spans[kids[i][0]].layer()).or_insert(0) += covered;
            for &k in &kids[i] {
                skip[k] = true;
            }
        }
    }
    out
}

/// Per-name totals over every traced unit of a run.
#[derive(Default)]
pub struct SpanTotals {
    pub units: u64,
    /// Full span name → (count, summed duration ns, summed self ns).
    pub by_name: BTreeMap<String, (u64, u64, u64)>,
    /// Layer → attributed wall ns (see [`layer_times`]).
    pub by_layer: BTreeMap<&'static str, u64>,
}

impl SpanTotals {
    pub fn absorb(&mut self, spans: &[Span]) {
        self.units += 1;
        for (s, own) in spans.iter().zip(self_times(spans)) {
            let e = self.by_name.entry(s.full_name()).or_insert((0, 0, 0));
            e.0 += 1;
            e.1 += s.dur();
            e.2 += own;
        }
        for (layer, ns) in layer_times(spans) {
            *self.by_layer.entry(layer).or_insert(0) += ns;
        }
    }

    /// Mean self time per traced unit of all spans called `name`, ms.
    pub fn self_ms_per_unit(&self, name: &str) -> f64 {
        match (self.by_name.get(name), self.units) {
            (Some(&(_, _, own)), n) if n > 0 => own as f64 / 1e6 / n as f64,
            _ => 0.0,
        }
    }

    /// Share of the traced units' wall attributed to `layer`, percent.
    pub fn layer_pct(&self, layer: &str) -> f64 {
        let total: u64 = self.by_layer.values().sum();
        if total == 0 {
            return 0.0;
        }
        100.0 * self.by_layer.get(layer).copied().unwrap_or(0) as f64 / total as f64
    }
}

/// The trace file: the raw spans of the first traced units (ids made
/// unique across units) plus the per-name totals over all of them.
pub fn trace_json(workload: &str, seed: u64, kept: &[(u32, Vec<Span>)], tot: &SpanTotals) -> Json {
    let mut spans = Vec::new();
    let mut base = 0i64;
    for (unit, unit_spans) in kept {
        for (i, s) in unit_spans.iter().enumerate() {
            spans.push(
                Json::obj()
                    .set("id", Json::Int(base + i as i64))
                    .set("name", Json::Str(s.full_name()))
                    .set("start_ns", Json::Int(s.start_ns as i64))
                    .set("end_ns", Json::Int(s.end_ns as i64))
                    .set(
                        "parent",
                        s.parent.index().map_or(Json::Null, |p| Json::Int(base + p as i64)),
                    )
                    .set("unit", Json::Int(i64::from(*unit))),
            );
        }
        base += unit_spans.len() as i64;
    }
    let totals = tot
        .by_name
        .iter()
        .map(|(name, &(count, dur, own))| {
            Json::obj()
                .set("name", Json::Str(name.clone()))
                .set("count", Json::Int(count as i64))
                .set("total_ns", Json::Int(dur as i64))
                .set("self_ns", Json::Int(own as i64))
        })
        .collect();
    Json::obj()
        .set("workload", Json::Str(workload.to_string()))
        .set("seed", Json::Str(format!("{seed:#x}")))
        .set("traced_units", Json::Int(tot.units as i64))
        .set("units_with_raw_spans", Json::Int(kept.len() as i64))
        .set("totals", Json::Arr(totals))
        .set("spans", Json::Arr(spans))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start: u64, end: u64, parent: SpanId) -> Span {
        Span { name, sub: "", start_ns: start, end_ns: end, parent }
    }

    #[test]
    fn cover_is_the_union_length() {
        assert_eq!(cover(vec![]), 0);
        assert_eq!(cover(vec![(0, 10), (5, 15), (20, 30)]), 25);
        assert_eq!(cover(vec![(5, 15), (0, 10), (2, 4)]), 15);
    }

    #[test]
    fn self_time_subtracts_the_cover_of_overlapping_children() {
        // unit 0..100 → run 10..90 → three per-core spans that overlap.
        let spans = vec![
            sp("unit", 0, 100, SpanId::NONE),
            sp("sim.run_spmd", 10, 90, SpanId(0)),
            sp("core.bcast", 20, 60, SpanId(1)),
            sp("core.bcast", 30, 80, SpanId(1)),
            sp("core.bcast", 25, 40, SpanId(1)),
        ];
        let own = self_times(&spans);
        assert_eq!(own[0], 20, "unit: 100 minus the run's 80");
        assert_eq!(own[1], 20, "run: 80 minus cover 20..80, not minus 40+50+15");
        assert_eq!(&own[2..], &[40, 50, 15], "leaves keep their duration");

        let layers = layer_times(&spans);
        assert_eq!(layers["harness"], 20);
        assert_eq!(layers["sim"], 20);
        assert_eq!(layers["core"], 60, "overlapping siblings count their cover once");
        assert_eq!(layers.values().sum::<u64>(), 100, "every instant attributed once");
    }

    #[test]
    fn disjoint_children_are_attributed_one_by_one() {
        let spans = vec![
            sp("unit", 0, 100, SpanId::NONE),
            sp("sim.record_run", 0, 30, SpanId(0)),
            sp("obs.audit", 30, 90, SpanId(0)),
        ];
        let layers = layer_times(&spans);
        assert_eq!((layers["harness"], layers["sim"], layers["obs"]), (10, 30, 60));
    }

    #[test]
    fn a_child_reaching_past_its_parent_is_clipped() {
        let spans = vec![sp("unit", 10, 20, SpanId::NONE), sp("obs.audit", 5, 30, SpanId(0))];
        assert_eq!(self_times(&spans)[0], 0);
    }

    #[test]
    fn tracer_records_only_while_on_and_restarts_ids_per_unit() {
        let tr = Tracer::new();
        assert_eq!(tr.begin("unit", "", SpanId::NONE), SpanId::NONE);
        tr.set_on(true);
        let u = tr.begin("unit", "", SpanId::NONE);
        tr.span("bench.exp", "fig3", u, || ());
        tr.end(u);
        let spans = tr.take();
        assert_eq!((u, spans.len()), (SpanId(0), 2));
        assert_eq!(spans[1].full_name(), "bench.exp.fig3");
        assert_eq!(spans[1].parent, u);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert_eq!(tr.begin("unit", "", SpanId::NONE), SpanId(0));
    }

    #[test]
    fn totals_and_trace_file_round_trip() {
        let spans =
            vec![sp("unit", 0, 2_000_000, SpanId::NONE), sp("obs.audit", 0, 1_500_000, SpanId(0))];
        let mut tot = SpanTotals::default();
        tot.absorb(&spans);
        tot.absorb(&spans);
        assert_eq!(tot.self_ms_per_unit("obs.audit"), 1.5);
        assert_eq!(tot.self_ms_per_unit("missing"), 0.0);
        assert_eq!(tot.layer_pct("obs"), 75.0);
        let doc = trace_json("w", 7, &[(0, spans.clone()), (2, spans)], &tot).render();
        let back = Json::parse(&doc).expect("trace file parses");
        let arr = back.get("spans").and_then(Json::as_arr).expect("spans");
        assert_eq!(arr.len(), 4);
        assert_eq!(arr[3].get("parent").and_then(Json::as_i64), Some(2), "ids offset per unit");
        assert_eq!(arr[3].get("unit").and_then(Json::as_i64), Some(2));
    }
}
