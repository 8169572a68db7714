//! The conformance observatory, the one entry point of the experiment
//! registry: run every registered experiment (all paper figures and
//! tables plus the observability workloads) or a subset, and write
//! everything the run produced under one directory — each experiment's
//! classic text and sidecars, the structured `BENCH_figures.json`, and
//! the human drift report `results/CONFORMANCE.md`. When a baseline is
//! supplied, gate on drift: per-row tolerance bands plus
//! shape-regression detection.
//!
//! ```text
//! cargo run --release -p scc-bench --bin observatory [--quick]
//!     [--jobs N]               host worker threads fanning out over
//!                              experiments AND their sweep units
//!                              (default: all host cores; every
//!                              artifact is byte-identical at any job
//!                              count)
//!     [--only fig3,fig8a]      run a subset of the registry
//!     [--artifact-dir DIR]     where everything lands (".", i.e. the
//!                              committed results/ tree):
//!                                results/<id>.txt        classic texts
//!                                BENCH_<x>.json, movies,
//!                                soak dumps, traces, …   sidecars of
//!                                                        whatif, skew,
//!                                                        faults, soak,
//!                                                        audit, trace
//!                                BENCH_figures.json      the report
//!                                results/CONFORMANCE.md  its digest
//!     [--baseline PATH]        drift-gate against this baseline
//!     [--list]                 print registry ids and exit
//! ```
//!
//! Reproducing the committed results is
//! `observatory --artifact-dir DIR && diff -r DIR/results results`;
//! refreshing the baseline is `cp DIR/BENCH_figures.json ci/baseline/`
//! after a full run.
//!
//! Exit status: `1` if any shape check failed (each is named on
//! stderr) or the drift gate tripped, `0` otherwise. A failing run
//! explains itself: it re-runs the failed experiments' scenarios with
//! recording on and writes results/DRIFT.md, results/flame_<id>.txt
//! and results/DRIFT_whatif.json (diagnosis only — it never changes
//! the verdict).

use scc_bench::{
    record_run, registry, representative_scenario, run_registry, whatif_artifact, whatif_profile,
};
use scc_obs::report::validate_json;
use scc_obs::{
    drift_gate, flamegraph_collapsed, ConformanceReport, DiffReport, DriftReport, PhaseProfile,
    RunHistograms,
};
use scc_sim::SimParams;
use std::fmt::Write as _;
use std::process::ExitCode;

struct Args {
    quick: bool,
    jobs: usize,
    only: Option<Vec<String>>,
    baseline: Option<String>,
    artifact_dir: String,
    list: bool,
}

impl Args {
    /// `rel` under the artifact directory.
    fn in_dir(&self, rel: &str) -> String {
        format!("{}/{rel}", self.artifact_dir)
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        quick: false,
        jobs: scc_bench::pool::jobs_default(),
        only: None,
        baseline: None,
        artifact_dir: ".".to_string(),
        list: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match a.as_str() {
            "--quick" => args.quick = true,
            "--jobs" => {
                args.jobs = value("--jobs")?
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or("--jobs needs a positive integer")?
            }
            "--list" => args.list = true,
            "--only" => {
                args.only =
                    Some(value("--only")?.split(',').map(|s| s.trim().to_string()).collect())
            }
            "--baseline" => args.baseline = Some(value("--baseline")?),
            "--artifact-dir" => args.artifact_dir = value("--artifact-dir")?,
            other => return Err(format!("unknown flag `{other}` (see --help in the doc comment)")),
        }
    }
    Ok(args)
}

/// Write `content`, creating parent directories as needed.
fn write_file(path: &str, content: &str) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
        }
    }
    std::fs::write(path, content).map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!("observatory: wrote {path}");
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("observatory: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The whole invocation; `Ok(conforms)`, or `Err` when it could not
/// run or write.
fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let reg = registry();
    if args.list {
        for e in &reg {
            println!("{:<12} {}", e.id, e.title);
        }
        return Ok(true);
    }
    if let Some(only) = &args.only {
        for id in only {
            if !reg.iter().any(|e| e.id == id) {
                return Err(format!("unknown experiment `{id}` (try --list)"));
            }
        }
    }
    let selected: Vec<_> = reg
        .into_iter()
        .filter(|e| args.only.as_ref().is_none_or(|only| only.iter().any(|id| id == e.id)))
        .collect();
    eprintln!("observatory: running {} experiments with --jobs {}", selected.len(), args.jobs);
    let run = run_registry(selected, args.quick, args.jobs);

    let mut report = ConformanceReport::new(args.quick);
    for out in run.outputs {
        let exp = out.report;
        eprintln!(
            "observatory: {:<12} {} ({:.1}s seq-equiv, {} units, {} sim runs, {} rows, {} shapes)",
            exp.id,
            if exp.shapes_pass() { "ok" } else { "SHAPE FAILURE" },
            exp.metrics.wall_s,
            exp.metrics.units,
            exp.metrics.sim_runs,
            exp.rows.len(),
            exp.shapes.len(),
        );
        for s in exp.shapes.iter().filter(|s| !s.pass) {
            eprintln!("[{}] shape check `{}` failed: {}", exp.id, s.name, s.detail);
        }
        for (rel, contents) in &out.outputs.files {
            write_file(&args.in_dir(rel), contents)?;
        }
        report.experiments.push(exp);
    }
    eprintln!(
        "observatory: wall {:.1}s vs {:.1}s sequential-equivalent ({:.2}x, {} units, \
         {:.1} units/s, peak {} sims in flight)",
        run.run.wall_s,
        run.run.seq_s,
        run.run.speedup(),
        run.run.units,
        run.run.units_per_sec(),
        run.run.peak_in_flight,
    );
    report.run = Some(run.run);

    let json = report.to_json().render();
    validate_json(&json).map_err(|e| format!("BUG: emitted JSON does not validate: {e}"))?;
    write_file(&args.in_dir("BENCH_figures.json"), &json)?;

    // The markdown drift report, with the gate verdict appended when a
    // baseline is available.
    let mut md = report.render_markdown();
    let mut failed = !report.shapes_pass();
    let mut gate_report: Option<DriftReport> = None;
    if let Some(path) = &args.baseline {
        match std::fs::read_to_string(path).map_err(|e| e.to_string()).and_then(|s| {
            ConformanceReport::from_json(&s).map_err(|e| format!("unparseable baseline: {e}"))
        }) {
            Ok(baseline) => {
                let gate = drift_gate(&report, &baseline);
                md.push_str("\n## Drift gate\n\n");
                md.push_str(&format!("Baseline: `{path}`\n\n"));
                md.push_str(&gate.render());
                eprint!("{}", gate.render());
                failed |= !gate.ok();
                gate_report = Some(gate);
            }
            Err(e) => {
                eprintln!("observatory: {e}");
                failed = true;
            }
        }
    }
    write_file(&args.in_dir("results/CONFORMANCE.md"), &md)?;

    // Drift explanation: re-run each failed experiment's representative
    // scenario with recording on and attribute where its time goes.
    if failed {
        let mut ids: Vec<String> = Vec::new();
        if let Some(g) = &gate_report {
            for v in &g.violations {
                if !v.experiment.is_empty() && !ids.contains(&v.experiment) {
                    ids.push(v.experiment.clone());
                }
            }
        }
        for e in &report.experiments {
            if !e.shapes_pass() && !ids.contains(&e.id) {
                ids.push(e.id.clone());
            }
        }
        const EXPLAIN_CAP: usize = 5;
        if ids.len() > EXPLAIN_CAP {
            eprintln!(
                "observatory: explain: {} drifted experiments, explaining the first {EXPLAIN_CAP}",
                ids.len()
            );
            ids.truncate(EXPLAIN_CAP);
        }
        if ids.is_empty() {
            eprintln!("observatory: explain: no experiment-level failure to explain");
        } else {
            explain(&ids, gate_report.as_ref(), &args).map_err(|e| format!("explain: {e}"))?;
        }
    }
    if failed {
        eprintln!("observatory: FAILED (shape check or drift gate)");
    } else {
        eprintln!("observatory: all experiments conform");
    }
    Ok(!failed)
}

/// Produce the drift explanation: for every drifted experiment, record
/// its representative scenario, scan the cost classes, and write the
/// what-if tables, differential critical path, latency histograms and
/// a flamegraph. Emits `results/DRIFT.md` plus `results/flame_<id>.txt`
/// per experiment and the scans as `results/DRIFT_whatif.json` (its own
/// path — `BENCH_whatif.json` belongs to the `whatif` experiment).
fn explain(ids: &[String], gate: Option<&DriftReport>, args: &Args) -> Result<(), String> {
    let quick = args.quick;
    let mut md = String::new();
    let _ = writeln!(md, "# Drift explanation\n");
    if let Some(g) = gate {
        let _ = writeln!(md, "```\n{}```\n", g.render());
    }
    // The per-experiment diagnoses are independent — fan them out on the
    // same worker budget as the registry run, then stitch the report
    // together in the caller's id order.
    type ExplainResult = Result<(String, String, scc_obs::WhatIfProfile), String>;
    let tasks: Vec<scc_bench::pool::Task<ExplainResult>> = ids
        .iter()
        .map(|id| {
            let id = id.clone();
            scc_bench::pool::Task { cost: 1, run: Box::new(move || explain_one(&id, quick)) }
        })
        .collect();
    let sections = scc_bench::pool::run_tasks(args.jobs, tasks);
    let mut profiles = Vec::new();
    for (id, section) in ids.iter().zip(sections) {
        let (section_md, flame, wi) = section?;
        md.push_str(&section_md);
        let rel = format!("results/flame_{id}.txt");
        write_file(&args.in_dir(&rel), &flame)?;
        let _ = writeln!(
            md,
            "\nflamegraph: `{rel}` ({} collapsed stacks — feed to inferno/speedscope)",
            flame.lines().count()
        );
        let _ = md.write_char('\n');
        profiles.push(wi);
    }
    write_file(&args.in_dir("results/DRIFT.md"), &md)?;
    write_file(&args.in_dir("results/DRIFT_whatif.json"), &whatif_artifact(&profiles, args.quick)?)
}

/// One experiment's drift diagnosis: the markdown section (sans the
/// flamegraph pointer, which the caller adds after writing the file),
/// the collapsed flamegraph text, and the what-if profile.
fn explain_one(id: &str, quick: bool) -> Result<(String, String, scc_obs::WhatIfProfile), String> {
    let mut md = String::new();
    let sc = representative_scenario(id);
    let _ = writeln!(md, "## {id} — scenario `{}`\n", sc.label);

    let (events, makespan) =
        record_run(&sc, SimParams::default()).map_err(|e| format!("{id}: record: {e}"))?;
    let _ = writeln!(md, "nominal makespan {makespan} over {} events\n", events.len());

    // Which cost class moves this scenario?
    let wi = whatif_profile(&sc, quick).map_err(|e| format!("{id}: what-if: {e}"))?;
    let _ = writeln!(md, "### What-if sensitivity\n");
    md.push_str(&wi.render_markdown());
    let _ = md.write_char('\n');

    // Fingerprint of the dominant hardware class: where time moves
    // when that class degrades 50%, phase by phase.
    if let Some(dom) = wi.dominant_hardware() {
        let _ = writeln!(md, "dominant hardware class: **{dom}**\n");
        let (slow, _) = record_run(&sc, SimParams::default().scaled(dom, 1.5))
            .map_err(|e| format!("{id}: scaled rerun: {e}"))?;
        match (PhaseProfile::build(&events), PhaseProfile::build(&slow)) {
            (Ok(base), Ok(cand)) => {
                let _ = writeln!(md, "### Differential critical path (nominal vs {dom} x1.5)\n");
                md.push_str(&DiffReport::between(&base, &cand).render_markdown());
            }
            (Err(e), _) | (_, Err(e)) => {
                let _ = writeln!(md, "(no critical path: {e})");
            }
        }
        let _ = md.write_char('\n');
    }

    let _ = writeln!(md, "### Phase latency histograms\n");
    md.push_str(&RunHistograms::build(&events).render_markdown());

    let flame = flamegraph_collapsed(&events, &sc.label);
    Ok((md, flame, wi))
}
