//! Where one broadcast's time goes: record one broadcast per scenario
//! and run every observability exporter over the stream. The two
//! scenarios are the paper's default operating point (OC-Bcast k=7,
//! 96 cache lines, 48 cores — op service, not contention, §3.3/§5) and
//! the latency-bound extreme it contrasts (binomial, one cache line).
//!
//! * the classic text, per scenario: a Gantt chart, the per-core op
//!   summary, the resource utilization and the critical-path report
//!   (latency attributed to op service, port/router/MC queueing,
//!   compute and idle);
//! * `results/trace_<label>.json` — Chrome trace_event JSON, loadable
//!   in Perfetto (`ui.perfetto.dev`): one track per core with ops,
//!   parked intervals and protocol-phase spans, plus one track per
//!   contended resource;
//! * `results/util_<label>.csv` — bucketed busy-fraction / queue-depth
//!   time series per contended resource;
//! * `results/flame_<label>.txt` — collapsed stacks for
//!   inferno/speedscope.
//!
//! The shape check per scenario is the critical path's invariant: its
//! segments sum to its length, and it covers the whole makespan.

use super::{out, Point, Sweep};
use crate::{record_run, Scenario};
use oc_bcast::Algorithm;
use scc_hal::Time;
use scc_obs::{
    chrome_trace_json, critical_path, flamegraph_collapsed, render_gantt, summarize, validate_json,
    ObsEvent, UtilizationSeries,
};
use scc_sim::SimParams;
use std::fmt::Write as _;

/// Buckets of the utilization series; columns of the Gantt chart.
const BUCKETS: usize = 60;
const WIDTH: usize = 100;

/// A traced scenario and the collective name its artifacts carry.
impl Point for (&'static str, Scenario) {
    fn key(&self) -> String {
        self.1.label.clone()
    }
    fn cost(&self) -> u64 {
        self.1.lines as u64
    }
}

/// What one recorded scenario produced.
struct Traced {
    text: String,
    /// The Chrome trace, utilization CSV and flamegraph, `(path, contents)`.
    files: Vec<(String, String)>,
    /// Sum of the critical path's segments, its length, the makespan.
    cover: [Time; 3],
}

fn trace(&(collective, ref sc): &(&'static str, Scenario)) -> Result<Traced, String> {
    let (events, makespan) = record_run(sc, SimParams::default()).map_err(|e| e.to_string())?;
    let events = events.as_slice();
    let cp = critical_path(events).map_err(|e| format!("critical path: {e}"))?;
    let b = cp.breakdown();
    let text = quick_look(sc, events, makespan).map_err(|e| e.to_string())? + &cp.render() + "\n";

    let label = format!("{collective}_{}cl", sc.lines);
    let chrome = chrome_trace_json(events);
    validate_json(&chrome).map_err(|e| format!("chrome trace JSON: {e}"))?;
    let series = UtilizationSeries::build(events, makespan, BUCKETS).to_csv();
    let files = vec![
        (format!("results/trace_{label}.json"), chrome),
        (format!("results/util_{label}.csv"), series),
        (format!("results/flame_{label}.txt"), flamegraph_collapsed(events, &label)),
    ];
    Ok(Traced { text, files, cover: [b.total(), cp.total(), makespan] })
}

/// The Gantt chart, the per-core op summary and the utilization of
/// each contended resource class.
fn quick_look(
    sc: &Scenario,
    events: &[ObsEvent],
    makespan: Time,
) -> Result<String, std::fmt::Error> {
    let (mut s, p) = (String::new(), sc.cores);
    writeln!(s, "{} — {} cache lines, P={p}, one broadcast\n", sc.alg.label(), sc.lines)?;
    s += &render_gantt(events, p, WIDTH);
    writeln!(s, "\n{:>4} {:>6} {:>7} {:>12} {:>12}", "core", "ops", "lines", "busy", "polling")?;
    for (i, c) in summarize(events, p).iter().enumerate() {
        let (busy, polling) = (c.busy.to_string(), c.polling.to_string());
        writeln!(s, "{:>4} {:>6} {:>7} {busy:>12} {polling:>12}", format!("C{i}"), c.ops, c.lines)?;
    }
    writeln!(s, "\nmakespan: {makespan}  ({} events recorded)", events.len())?;
    // Service time booked on a resource class: the stream's `Wait`s
    // carry exactly what `SimStats::{port,router,mc}_busy` sum.
    let busy = |class: &str| -> f64 {
        let booked = events.iter().filter_map(|ev| match *ev {
            ObsEvent::Wait { resource, start, end, .. } if resource.class() == class => {
                Some(end - start)
            }
            _ => None,
        });
        booked.sum::<Time>().as_ns_f64()
    };
    let span = makespan.as_ns_f64();
    writeln!(
        s,
        "utilization — MPB ports: {:.1}%  routers: {:.2}%  memory controllers: {:.1}%\n",
        busy("port") / (span * 24.0) * 100.0,
        busy("router") / (span * 24.0) * 100.0,
        busy("mc") / (span * 4.0) * 100.0,
    )?;
    Ok(s)
}

pub(super) fn plan(_quick: bool) -> Sweep {
    let points = vec![
        ("ocbcast", Scenario::new(Algorithm::oc_with_k(7), 48, 96)),
        ("binomial", Scenario::new(Algorithm::Binomial, 48, 1)),
    ];
    Sweep::points(points, trace, |ctx, pairs| {
        for ((_, sc), t) in pairs {
            out!(ctx, "{}", t.text);
            let [sum, path, makespan] = t.cover;
            ctx.shape(
                &format!("{}: critical path sums to and covers the makespan", sc.label),
                sum == path && path == makespan,
                format!("segments sum to {sum}, path {path}, makespan {makespan}"),
            );
            for (path, contents) in t.files {
                ctx.artifact(path, contents);
            }
        }
    })
}
