//! One run of one workload: set-up (three times or more, median reported), the
//! closed loop of units for the requested seconds, the per-layer probes
//! and spans in a traced run, and the result line.
//!
//! End-to-end numbers come from an untraced run. A traced run gives the
//! per-layer numbers: it spends the first seconds on the probes, then
//! runs the loop in pairs of the same unit — one with spans off, one
//! with spans on, alternating which goes first — so the untraced and
//! traced medians it compares saw the same inputs under the same
//! conditions.

use crate::host;
use crate::manifest::{END_TO_END, PER_LAYER};
use crate::probes::{self, Probes};
use crate::span::{trace_json, Span, SpanId, SpanTotals, Tracer};
use crate::stats::{iqr_pct, median, percentile, tail};
use crate::workloads::{self, ChipWork, UnitOutcome, Workload};
use scc_obs::Json;
use scc_sim::telemetry::{snapshot, EngineTotals};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Set-ups per run: at least `MIN_SETUPS`, and more of a cheap one —
/// until `SETUP_BUDGET_S` is spent or `MAX_SETUPS` are done — because a
/// tenth of a second timed three times is not a steady number.
/// `setup_s` is their median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 15;
const SETUP_BUDGET_S: f64 = 2.0;

/// Traced units whose raw spans go into the trace file (the per-name
/// totals cover every traced unit).
const RAW_SPAN_UNITS: usize = 8;

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// The result line of one run, as the driver's contract defines it.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// (name, value, unit), in manifest order.
    pub metrics: Metrics,
}

impl RunResult {
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    pub fn to_json(&self) -> Json {
        let metrics = self.metrics.iter().fold(Json::obj(), |obj, (name, value, unit)| {
            obj.set(
                name,
                Json::obj().set("value", Json::Num(*value)).set("unit", Json::Str(unit.clone())),
            )
        });
        Json::obj()
            .set("correct", Json::Bool(self.correct))
            .set("attempted", Json::Int(self.attempted as i64))
            .set("failed", Json::Int(self.failed as i64))
            .set("metrics", metrics)
    }

    pub fn from_json(doc: &Json) -> Result<RunResult, String> {
        let count = |key: &str| {
            doc.get(key)
                .and_then(Json::as_i64)
                .filter(|n| *n >= 0)
                .ok_or(format!("no count `{key}`"))
        };
        let Some(Json::Obj(fields)) = doc.get("metrics") else { return Err("no `metrics`".into()) };
        let metrics = fields
            .iter()
            .map(|(name, m)| {
                let value =
                    m.get("value").and_then(Json::as_f64).ok_or(format!("{name}: no value"))?;
                let unit =
                    m.get("unit").and_then(Json::as_str).ok_or(format!("{name}: no unit"))?;
                Ok((name.clone(), value, unit.to_string()))
            })
            .collect::<Result<_, String>>()?;
        Ok(RunResult {
            correct: doc.get("correct").and_then(Json::as_bool).ok_or("no `correct`")?,
            attempted: count("attempted")? as u64,
            failed: count("failed")? as u64,
            metrics,
        })
    }
}

/// What one executed unit left behind.
struct Sample {
    wall_ns: f64,
    traced: bool,
    engine: EngineTotals,
    outcome: UnitOutcome,
}

fn run_unit(
    w: &mut dyn Workload,
    distinct: usize,
    tr: &Tracer,
    traced: bool,
) -> (Sample, Vec<Span>) {
    tr.set_on(traced);
    let before = snapshot();
    let t0 = Instant::now();
    let unit = tr.begin("unit", "", SpanId::NONE);
    let outcome = catch_unwind(AssertUnwindSafe(|| w.run_unit(distinct, tr, unit)));
    tr.end(unit);
    let wall_ns = t0.elapsed().as_nanos() as f64;
    let engine = snapshot().since(&before);
    tr.set_on(false);
    let outcome = outcome.unwrap_or_else(|panic| {
        let what = panic.downcast_ref::<String>().map(String::as_str);
        let what = what.or(panic.downcast_ref::<&str>().copied()).unwrap_or("non-string panic");
        UnitOutcome { errors: vec![format!("panicked: {what}")], ..UnitOutcome::default() }
    });
    (Sample { wall_ns, traced, engine, outcome }, tr.take())
}

/// Exact work of one cycle through the distinct units: engine counters
/// and chip work, summed over the first execution of each.
#[derive(Default)]
struct Cycle {
    units: u64,
    engine: EngineTotals,
    chip: ChipWork,
}

impl Cycle {
    fn add(&mut self, engine: &EngineTotals, chip: &ChipWork) {
        self.units += 1;
        self.engine = self.engine.plus(engine);
        self.chip.absorb(chip);
    }

    fn per_unit(&self, total: u64) -> f64 {
        total as f64 / self.units.max(1) as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

struct Loop {
    samples: Vec<Sample>,
    wall_s: f64,
    cycle: Cycle,
    totals: SpanTotals,
    raw_spans: Vec<(u32, Vec<Span>)>,
    /// Units whose outputs were wrong, with the first reason each.
    failures: Vec<String>,
    /// `VmHWM` when the first cycle through the distinct units was
    /// done. Read there, not at the end of the loop: the heap's
    /// high-water mark creeps up in steps with the number of units
    /// run, and that number depends on how fast the host happened to be.
    /// `None` when `/proc` would not say.
    peak_rss_mb: Option<f64>,
}

/// The closed loop: whole units, one after the other, until `deadline`
/// — and until every distinct unit has run, however short the run: the
/// exact counts and the memory reading are taken over one full cycle.
fn run_loop(w: &mut dyn Workload, trace: bool, deadline: Instant) -> Loop {
    let tr = Tracer::new();
    let distinct = w.distinct_units();
    let mut first: Vec<Option<(EngineTotals, ChipWork)>> = vec![None; distinct];
    let mut lp = Loop {
        samples: Vec::new(),
        wall_s: 0.0,
        cycle: Cycle::default(),
        totals: SpanTotals::default(),
        raw_spans: Vec::new(),
        failures: Vec::new(),
        peak_rss_mb: None,
    };
    let t0 = Instant::now();
    let mut i = 0usize;
    loop {
        let cycle_done = lp.cycle.units == distinct as u64;
        let pair_done = !trace || i.is_multiple_of(2);
        if cycle_done && pair_done && Instant::now() >= deadline {
            break;
        }
        // Traced runs go in pairs over the same distinct unit.
        let (d, traced) =
            if trace { ((i / 2) % distinct, (i + i / 2) % 2 == 1) } else { (i % distinct, false) };
        let (mut sample, spans) = run_unit(w, d, &tr, traced);
        let exact = (sample.engine, sample.outcome.chip.clone());
        match &first[d] {
            None => {
                lp.cycle.add(&exact.0, &exact.1);
                first[d] = Some(exact);
                if lp.cycle.units == distinct as u64 {
                    lp.peak_rss_mb = host::peak_rss_mb();
                }
            }
            Some(seen) if *seen != exact => sample
                .outcome
                .errors
                .push(format!("distinct unit {d} is not deterministic: {seen:?} then {exact:?}")),
            Some(_) => {}
        }
        if let Some(e) = sample.outcome.errors.first() {
            lp.failures.push(format!("unit {i}: {e}"));
        }
        if traced {
            lp.totals.absorb(&spans);
            if lp.raw_spans.len() < RAW_SPAN_UNITS {
                lp.raw_spans.push((i as u32, spans));
            }
        }
        lp.samples.push(sample);
        i += 1;
    }
    lp.wall_s = t0.elapsed().as_secs_f64();
    lp
}

fn walls_ms(lp: &Loop, traced: bool) -> Vec<f64> {
    lp.samples.iter().filter(|s| s.traced == traced).map(|s| s.wall_ns / 1e6).collect()
}

/// Measured (metric name, value) pairs, in no particular order.
type Rows = Vec<(&'static str, f64)>;

fn end_to_end(lp: &Loop, setup_s: f64, w: &dyn Workload) -> Rows {
    let events: u64 = lp.samples.iter().map(|s| s.engine.events).sum();
    vec![
        ("unit_wall_ms_p50", median(&walls_ms(lp, false)).unwrap_or(0.0)),
        ("units_per_s", ratio(lp.samples.len() as f64, lp.wall_s)),
        ("sim_events_per_s", ratio(events as f64, lp.wall_s)),
        ("peak_rss_mb", lp.peak_rss_mb.unwrap_or(f64::NAN)),
        ("setup_s", setup_s),
        ("model_err_pct", w.model_fit().err_pct),
        ("sim_makespan_rel", w.model_fit().sim_rel),
    ]
}

/// The untraced-unit diagnostics that stay outside the gate.
fn diagnostics(lp: &Loop) -> Rows {
    let walls = walls_ms(lp, false);
    let p50 = median(&walls).unwrap_or(0.0);
    // Too few samples for a tail: say so by reporting the median as p50.
    let (tail_pct, tail_ms) = tail(&walls).unwrap_or((50.0, p50));
    vec![
        ("harness.unit_wall_ms_p90", percentile(&walls, 90.0).unwrap_or(0.0)),
        ("harness.unit_wall_ms_tail", tail_ms),
        ("harness.unit_wall_tail_pct", tail_pct),
        ("harness.unit_wall_iqr_pct", iqr_pct(&walls).unwrap_or(0.0)),
        ("harness.samples", walls.len() as f64),
    ]
}

fn per_layer(lp: &Loop, probes: &Probes, pinned: Option<usize>, nproc: usize) -> Rows {
    let (c, e, chip) = (&lp.cycle, &lp.cycle.engine, &lp.cycle.chip);
    let untraced_ms = median(&walls_ms(lp, false)).unwrap_or(0.0);
    let traced_ms = median(&walls_ms(lp, true)).unwrap_or(0.0);
    let handoffs_per_unit = c.per_unit(e.handoffs);
    let roundtrip_ns = probes.get("sim.handoff.roundtrip_ns").unwrap_or(0.0);
    let per_unit_us = |t: scc_hal::Time| t.as_us_f64() / c.units.max(1) as f64;
    let port_util = ratio(chip.port_busy.as_us_f64(), 24.0 * chip.makespan.as_us_f64());

    let mut out = probes.values.clone();
    out.extend([
        ("sim.engine.events_per_unit", c.per_unit(e.events)),
        ("sim.engine.heap_pushes_per_unit", c.per_unit(e.heap_pushes)),
        ("sim.engine.coalesced_frac", ratio(e.coalesced_steps as f64, e.events as f64)),
        ("sim.engine.handoffs_per_event", ratio(e.handoffs as f64, e.events as f64)),
        ("sim.engine.parks_per_unit", c.per_unit(chip.parks)),
        ("sim.engine.runs_per_unit", c.per_unit(e.runs)),
        // Computed, not measured: each handoff costs half a round trip.
        (
            "sim.handoff.est_share_pct",
            100.0 * ratio(handoffs_per_unit * roundtrip_ns / 2.0, untraced_ms * 1e6),
        ),
        ("sim.chip.port_wait_us", per_unit_us(chip.port_wait)),
        ("sim.chip.router_wait_us", per_unit_us(chip.router_wait)),
        ("sim.chip.mc_wait_us", per_unit_us(chip.mc_wait)),
        ("sim.chip.port_util_pct", 100.0 * port_util),
        ("sim.ops.ops_per_unit", c.per_unit(e.ops)),
        ("sim.ops.lines_per_unit", c.per_unit(chip.lines)),
        ("core.sim_makespan_us", ratio(chip.makespan.as_us_f64(), chip.broadcasts as f64)),
    ]);

    // Mean self time per traced unit of each analysis and experiment
    // span; zero on a workload that never calls it.
    let t = &lp.totals;
    for name in PER_LAYER.iter().map(|m| m.name) {
        if let Some(span) = name.strip_suffix("_ms") {
            if span.starts_with("obs.") || span.starts_with("bench.") {
                out.push((name, t.self_ms_per_unit(span)));
            }
        }
    }
    let parsed: u64 = lp.samples.iter().filter(|s| s.traced).map(|s| s.outcome.json_bytes).sum();
    let parse_ns = t.by_name.get("obs.json_parse").map_or(0, |v| v.2);
    let obs_ns: u64 =
        t.by_name.iter().filter(|(n, _)| n.starts_with("obs.")).map(|(_, v)| v.2).sum();
    let obs_ns_per_unit = ratio(obs_ns as f64, t.units as f64);
    out.extend([
        ("obs.json_parse_mb_s", ratio(parsed as f64 / 1e6, parse_ns as f64 / 1e9)),
        ("obs.analysis_ns_per_obs_event", ratio(obs_ns_per_unit, c.per_unit(chip.obs_events))),
        ("span.sim_pct", t.layer_pct("sim")),
        ("span.core_pct", t.layer_pct("core")),
        ("span.obs_pct", t.layer_pct("obs")),
        ("span.bench_pct", t.layer_pct("bench")),
        ("span.harness_pct", t.layer_pct("harness")),
        ("harness.trace_overhead_pct", 100.0 * ratio(traced_ms - untraced_ms, untraced_ms)),
        ("harness.pinned_cpu", pinned.map_or(-1.0, |c| c as f64)),
        ("harness.nproc", nproc as f64),
        ("harness.loadavg1", host::loadavg1().unwrap_or(0.0)),
    ]);
    out.extend(diagnostics(lp));
    out
}

/// (name, value, unit) rows, as they are printed and reported.
type Metrics = Vec<(String, f64, String)>;

/// The declared metrics, in declared order, with their measured
/// values. A declared metric without a finite value reads 0 and is
/// named in `unmeasured`: the run reports it, and is not correct.
fn select<'a>(
    measured: &Rows,
    declared: impl Iterator<Item = (&'a str, &'a str)>,
    unmeasured: &mut Vec<&'a str>,
) -> Metrics {
    declared
        .map(|(name, unit)| {
            let value = measured.iter().find(|r| r.0 == name).map(|r| r.1);
            let value = value.filter(|v| v.is_finite()).unwrap_or_else(|| {
                unmeasured.push(name);
                0.0
            });
            (name.to_string(), value, unit.to_string())
        })
        .collect()
}

fn print_metrics(title: &str, metrics: &Metrics) {
    println!("# {title}");
    for (name, value, unit) in metrics {
        println!("{name:<44} {value:>18.6} {unit}");
    }
}

/// Run one workload once. `Err` means the run could not be set up at
/// all; a run that ran but produced wrong outputs, or whose numbers
/// cannot be compared with another run's, is `Ok` with
/// `correct == false`.
pub fn run_one(args: &RunArgs) -> Result<RunResult, String> {
    // Before anything can spawn a thread.
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let pinned = host::pin_to_one_cpu();
    // What is wrong with the run itself rather than with one of its units.
    let mut problems = Vec::new();
    match &pinned {
        Ok(cpu) => {
            println!("# pinned to CPU {cpu} of {nproc}; load average {:?}", host::loadavg1())
        }
        Err(e) => {
            println!("# NOT COMPARABLE: could not pin to one CPU ({e})");
            problems.push(format!(
                "not pinned to one CPU ({e}): timings depend on thread placement and are not \
                 comparable with a pinned run's"
            ));
        }
    }

    let mut setups = Vec::new();
    let mut w = loop {
        let t0 = Instant::now();
        let w = workloads::setup(&args.workload, args.seed)?;
        setups.push(t0.elapsed().as_secs_f64());
        let cheap = setups.iter().sum::<f64>() < SETUP_BUDGET_S && setups.len() < MAX_SETUPS;
        if setups.len() >= MIN_SETUPS && !cheap {
            break w;
        }
    };
    let setup_s = median(&setups).expect("at least one set-up");

    let t0 = Instant::now();
    let probes = if args.trace { probes::run(w.probe_lines()) } else { Probes::default() };
    let lp = run_loop(w.as_mut(), args.trace, t0 + Duration::from_secs_f64(args.seconds));
    problems.extend(probes.errors.iter().cloned());

    let head = format!("{} seed {:#x}", args.workload, args.seed);
    let per_layer_units = || PER_LAYER.iter().map(|m| (m.name, m.unit));
    let mut unmeasured = Vec::new();
    let metrics = if args.trace {
        let rows = per_layer(&lp, &probes, pinned.as_ref().ok().copied(), nproc);
        let metrics = select(&rows, per_layer_units(), &mut unmeasured);
        print_metrics(&format!("{head}: per-layer metrics (traced pass)"), &metrics);
        metrics
    } else {
        let rows = end_to_end(&lp, setup_s, w.as_ref());
        let declared = END_TO_END.iter().map(|m| (m.name, m.unit));
        let metrics = select(&rows, declared, &mut unmeasured);
        print_metrics(&format!("{head}: end-to-end metrics (untraced pass)"), &metrics);
        let diag = diagnostics(&lp);
        let declared = per_layer_units().filter(|d| diag.iter().any(|r| r.0 == d.0));
        print_metrics("diagnostics outside the gate", &select(&diag, declared, &mut unmeasured));
        metrics
    };
    problems.extend(unmeasured.iter().map(|name| format!("`{name}` was not measured")));

    if args.trace {
        let doc = trace_json(&args.workload, args.seed, &lp.raw_spans, &lp.totals).render();
        let path = format!("benchmark/out/trace_{}.json", args.workload);
        std::fs::create_dir_all("benchmark/out")
            .and_then(|()| std::fs::write(&path, doc))
            .map_err(|e| format!("{path}: {e}"))?;
        println!("# wrote {path}");
    }

    for e in problems.iter().chain(&lp.failures).take(10) {
        eprintln!("{}: FAILED {e}", args.workload);
    }
    // A run attempts one thing more than its units: to be a run whose
    // numbers count — pinned, every probe passed, every metric measured.
    let attempted = lp.samples.len() as u64 + 1;
    let failed = lp.failures.len() as u64 + u64::from(!problems.is_empty());
    Ok(RunResult { correct: failed == 0, attempted, failed, metrics })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_through_json() {
        let r = RunResult {
            correct: true,
            attempted: 912,
            failed: 0,
            metrics: vec![
                ("unit_wall_ms_p50".into(), 21.734_561_234, "ms".into()),
                ("setup_s".into(), 0.25, "s".into()),
                ("harness.pinned_cpu".into(), -1.0, "count".into()),
            ],
        };
        let line = r.to_json().render();
        assert!(!line.contains('\n'));
        let doc = Json::parse(&line).expect("the result line is JSON");
        let Json::Obj(fields) = &doc else { panic!("not an object") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(RunResult::from_json(&doc), Ok(r));
        assert!(RunResult::from_json(&Json::obj()).is_err());
    }

    #[test]
    fn a_short_traced_run_measures_every_declared_per_layer_metric() {
        // Not pinned and far too short to mean anything: checks only
        // that the names line up, that the loop pairs units, and that
        // a deadline already past still gets one full cycle.
        let mut w = workloads::setup("bcast_small", 5).expect("setup");
        let distinct = w.distinct_units();
        let lp = run_loop(w.as_mut(), true, Instant::now());
        assert_eq!(lp.samples.len(), 2 * distinct, "each distinct unit once, as a pair");
        assert_eq!(lp.samples.iter().filter(|s| s.traced).count(), distinct);
        // The engine's counters are process-wide and the other tests
        // simulate at the same time: only they may differ between the
        // two executions of a unit here.
        let real: Vec<_> = lp.failures.iter().filter(|f| !f.contains("EngineTotals")).collect();
        assert!(real.is_empty(), "{real:?}");
        assert_eq!(lp.cycle.units, distinct as u64);
        assert_eq!(lp.cycle.chip.broadcasts, 18 * distinct as u64);
        assert!(lp.peak_rss_mb.is_some_and(|mb| mb > 0.0));
        let rows = per_layer(&lp, &Probes::default(), None, 2);
        for m in PER_LAYER {
            let measured = rows.iter().filter(|r| r.0 == m.name).count();
            let probed = usize::from(probes::NAMES.contains(&m.name));
            assert_eq!(measured + probed, 1, "{} measured {measured}, probed {probed}", m.name);
        }
        let get = |name: &str| rows.iter().find(|r| r.0 == name).expect(name).1;
        assert!(get("span.core_pct") + get("span.sim_pct") > 50.0);
        assert_eq!(get("harness.pinned_cpu"), -1.0);
    }

    #[test]
    fn an_unmeasured_metric_reads_zero_and_is_named() {
        let rows: Rows = vec![("a", 1.5), ("b", f64::NAN)];
        let mut unmeasured = Vec::new();
        let declared = [("a", "ms"), ("b", "MB"), ("c", "s")];
        let metrics = select(&rows, declared.into_iter(), &mut unmeasured);
        let values: Vec<f64> = metrics.iter().map(|m| m.1).collect();
        assert_eq!(values, [1.5, 0.0, 0.0]);
        assert_eq!(unmeasured, ["b", "c"]);
    }
}
