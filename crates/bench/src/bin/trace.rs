//! Record one broadcast and emit every observability artifact at once:
//!
//! * a text Gantt + per-core op summary on stdout (the quick look);
//! * `results/trace_<label>.json` — Chrome trace_event JSON, loadable
//!   in Perfetto (`ui.perfetto.dev`): one track per core with ops,
//!   parked intervals and protocol-phase spans, plus one track per
//!   contended resource;
//! * `results/util_<label>.csv` — bucketed busy-fraction / queue-depth
//!   time series per contended resource;
//! * a critical-path report on stdout (latency attributed to op
//!   service, port/router/MC queueing, compute and idle), with the
//!   invariant `sum(segments) == makespan` asserted;
//! * `results/BENCH_obs.json` — the machine-readable roll-up.
//!
//! Run: `cargo run --release -p scc-bench --bin trace -- \
//!        --collective ocbcast --lines 96 [--cores 48] [--k 7] \
//!        [--buckets 60] [--width 100] [--out results]`

use oc_bcast::{Algorithm, OcConfig};
use scc_bench::{record_run, Scenario};
use scc_hal::Time;
use scc_obs::{
    chrome_trace_json, critical_path, flamegraph_collapsed, render_gantt, summarize, validate_json,
    Json, ObsEvent, UtilizationSeries, ARTIFACT_VERSION,
};
use scc_sim::SimParams;

struct Opts {
    collective: String,
    lines: usize,
    cores: usize,
    k: usize,
    buckets: usize,
    width: usize,
    out: String,
}

fn parse_opts() -> Opts {
    let mut o = Opts {
        collective: "ocbcast".into(),
        lines: 96,
        cores: 48,
        k: 7,
        buckets: 60,
        width: 100,
        out: "results".into(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut val = || args.next().unwrap_or_else(|| die(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--collective" => o.collective = val(),
            "--lines" => o.lines = parse_num(&flag, &val()),
            "--cores" => o.cores = parse_num(&flag, &val()),
            "--k" => o.k = parse_num(&flag, &val()),
            "--buckets" => o.buckets = parse_num(&flag, &val()),
            "--width" => o.width = parse_num(&flag, &val()),
            "--out" => o.out = val(),
            _ => die(&format!("unknown flag {flag} (see the doc comment for usage)")),
        }
    }
    if !(1..=48).contains(&o.cores) {
        die("--cores must be in 1..=48");
    }
    for (flag, v, min) in [("--k", o.k, 1), ("--buckets", o.buckets, 1), ("--width", o.width, 10)] {
        if v < min {
            die(&format!("{flag} must be at least {min}"));
        }
    }
    o
}

fn parse_num(flag: &str, s: &str) -> usize {
    s.parse().unwrap_or_else(|_| die(&format!("{flag}: bad number {s:?}")))
}

fn die(msg: &str) -> ! {
    eprintln!("trace: {msg}");
    std::process::exit(2);
}

/// Write an artifact; a read-only checkout is a `die`, not a backtrace.
fn write_artifact(path: &str, contents: &str) {
    std::fs::write(path, contents).unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
}

fn algorithm(o: &Opts) -> Algorithm {
    match o.collective.as_str() {
        "ocbcast" => Algorithm::OcBcast(OcConfig::with_k(o.k)),
        "binomial" => Algorithm::Binomial,
        "sag" => Algorithm::ScatterAllgather,
        "rma-sag" => Algorithm::RmaScatterAllgather,
        other => die(&format!("unknown collective {other:?} (ocbcast | binomial | sag | rma-sag)")),
    }
}

fn main() {
    let o = parse_opts();
    let alg = algorithm(&o);
    let p = o.cores;
    let label = format!("{}_{}cl", o.collective, o.lines);

    // An MPB layout that does not fit fails every core, not the process.
    let (events, makespan) = record_run(&Scenario::new(alg, p, o.lines), SimParams::default())
        .unwrap_or_else(|e| die(&format!("{} cannot run (is --k too large?): {e}", alg.label())));
    let events = events.as_slice();

    // ---- quick look: Gantt + per-core summary --------------------------
    println!("{} — {} cache lines, P={p}, one broadcast\n", alg.label(), o.lines);
    print!("{}", render_gantt(events, p, o.width));
    println!();
    println!("{:>4} {:>6} {:>7} {:>12} {:>12}", "core", "ops", "lines", "busy", "polling");
    for (i, s) in summarize(events, p).iter().enumerate() {
        println!(
            "{:>4} {:>6} {:>7} {:>12} {:>12}",
            format!("C{i}"),
            s.ops,
            s.lines,
            s.busy.to_string(),
            s.polling.to_string()
        );
    }
    println!();
    let span = makespan.as_ns_f64();
    println!("makespan: {makespan}  ({} events recorded)", events.len());
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
    println!(
        "utilization — MPB ports: {:.1}%  routers: {:.2}%  memory controllers: {:.1}%",
        busy("port") / (span * 24.0) * 100.0,
        busy("router") / (span * 24.0) * 100.0,
        busy("mc") / (span * 4.0) * 100.0,
    );

    // ---- critical path -------------------------------------------------
    let cp = critical_path(events).unwrap_or_else(|e| die(&format!("critical path: {e}")));
    println!();
    print!("{}", cp.render());
    let b = cp.breakdown();
    assert_eq!(b.total(), cp.total(), "critical-path segments must sum exactly to the path length");
    assert_eq!(cp.total(), makespan, "critical path must cover the whole broadcast");

    // ---- artifacts -----------------------------------------------------
    std::fs::create_dir_all(&o.out)
        .unwrap_or_else(|e| die(&format!("cannot create {}: {e}", o.out)));
    let chrome = chrome_trace_json(events);
    validate_json(&chrome).unwrap_or_else(|e| die(&format!("chrome trace JSON: {e}")));
    let trace_path = format!("{}/trace_{label}.json", o.out);
    write_artifact(&trace_path, &chrome);

    let series = UtilizationSeries::build(events, makespan, o.buckets);
    let csv_path = format!("{}/util_{label}.csv", o.out);
    write_artifact(&csv_path, &series.to_csv());

    let flame = flamegraph_collapsed(events, &label);
    let flame_path = format!("{}/flame_{label}.txt", o.out);
    write_artifact(&flame_path, &flame);

    let us = |t: Time| Json::Num(t.as_us_f64());
    let spans = events.iter().filter(|e| matches!(e, ObsEvent::SpanBegin { .. })).count();
    let mut peak = Json::obj();
    for (class, frac) in series.peak_busy() {
        peak = peak.set(class, Json::Num(frac));
    }
    let bench = Json::obj()
        .set("version", Json::Int(ARTIFACT_VERSION))
        .set("bench", Json::Str("trace".into()))
        .set("collective", Json::Str(o.collective.clone()))
        .set("label", Json::Str(alg.label()))
        .set("cores", Json::Int(p as i64))
        .set("lines", Json::Int(o.lines as i64))
        .set("makespan_us", us(makespan))
        .set("events", Json::Int(events.len() as i64))
        .set("spans", Json::Int(spans as i64))
        .set(
            "critical_path",
            Json::obj()
                .set("segments", Json::Int(cp.segments.len() as i64))
                .set("total_us", us(cp.total()))
                .set("op_service_us", us(b.op_service))
                .set("port_wait_us", us(b.port_wait))
                .set("router_wait_us", us(b.router_wait))
                .set("mc_wait_us", us(b.mc_wait))
                .set("compute_us", us(b.compute))
                .set("idle_us", us(b.idle)),
        )
        .set("peak_busy", peak)
        .set(
            "artifacts",
            Json::Arr([&trace_path, &csv_path, &flame_path].map(|p| Json::Str(p.clone())).into()),
        );
    let rendered = bench.render();
    validate_json(&rendered).unwrap_or_else(|e| die(&format!("BENCH_obs.json: {e}")));
    let bench_path = format!("{}/BENCH_obs.json", o.out);
    write_artifact(&bench_path, &(rendered + "\n"));

    println!();
    println!("# wrote {trace_path} (open in ui.perfetto.dev)");
    println!("# wrote {csv_path}");
    println!("# wrote {flame_path} (collapsed stacks for inferno/speedscope)");
    println!("# wrote {bench_path}");
}
