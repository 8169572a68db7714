//! The repo benchmark. `benchmark/run.sh` builds this in release and
//! runs it from the repo root.
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — one run of one
//!   workload in this process: pins to one CPU, measures, checks every
//!   output, prints every metric by name and unit, and ends with the
//!   one-line JSON result. This is the form the driver calls.
//! * no `--workload` — the whole benchmark: every workload, untraced
//!   then traced, each in a fresh process; writes
//!   `benchmark/out/results.json` and re-renders `BENCHMARK.json`.
//! * `--aa` — the whole benchmark twice, in alternating workload order,
//!   and the difference of the two beside each metric's bound.

mod harness;
mod host;
mod manifest;
mod probes;
mod span;
mod stats;
mod workloads;

use harness::{RunArgs, RunResult};
use manifest::{Better, DEFAULT_SEED, END_TO_END, PER_LAYER, RUN_SECONDS};
use scc_obs::Json;
use std::process::{Command, ExitCode, Stdio};
use workloads::WORKLOADS;

const USAGE: &str =
    "usage: benchmark/run.sh [--workload NAME --trace 0|1] [--seed N] [--seconds S] [--aa]";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    aa: bool,
}

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        aa: false,
    };
    let mut it = argv;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = parse_seed(&value()?).ok_or("--seed needs a u64")?,
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or("--seconds needs a positive number")?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".to_string()),
                }
            }
            "--aa" => args.aa = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// One (workload, traced?) run in a fresh process of this binary.
fn run_child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The child's table, without its machine-readable last line.
    let (table, last) = stdout.trim_end().rsplit_once('\n').unwrap_or(("", stdout.trim_end()));
    println!("{table}");
    let doc = Json::parse(last)
        .map_err(|e| format!("{workload}: no result line ({e}); exit {}", out.status))?;
    RunResult::from_json(&doc).map_err(|e| format!("{workload}: {e}"))
}

/// Results of one pass over every workload: (workload, untraced, traced).
type Pass = Vec<(&'static str, RunResult, RunResult)>;

fn run_pass(order: &[&'static str], seed: u64, seconds: f64) -> Result<Pass, String> {
    order
        .iter()
        .map(|&w| Ok((w, run_child(w, seed, seconds, false)?, run_child(w, seed, seconds, true)?)))
        .collect()
}

fn results_json(seed: u64, seconds: f64, passes: &[Pass]) -> Json {
    let runs = passes
        .iter()
        .enumerate()
        .flat_map(|(pass, p)| {
            p.iter().flat_map(move |(w, untraced, traced)| {
                [(false, untraced), (true, traced)].map(|(trace, r)| {
                    Json::obj()
                        .set("pass", Json::Int(pass as i64))
                        .set("workload", Json::Str(w.to_string()))
                        .set("trace", Json::Bool(trace))
                        .set("result", r.to_json())
                })
            })
        })
        .collect();
    Json::obj()
        .set("seed", Json::Str(format!("{seed:#x}")))
        .set("run_seconds", Json::Num(seconds))
        .set("runs", Json::Arr(runs))
}

/// Write the result file and read it back: a file this program cannot
/// parse again is a failed run.
fn write_results(doc: &Json) -> Result<(), String> {
    let path = "benchmark/out/results.json";
    let text = doc.render() + "\n";
    std::fs::create_dir_all("benchmark/out")
        .and_then(|()| std::fs::write(path, &text))
        .map_err(|e| format!("{path}: {e}"))?;
    let back = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    if Json::parse(&back).map(|j| j.render()) != Ok(doc.render()) {
        return Err(format!("{path} does not parse back to what was written"));
    }
    println!("# wrote {path}");
    Ok(())
}

/// What must hold for any correct pass; returns what does not.
fn pass_problems(pass: &Pass) -> Vec<String> {
    let mut problems = Vec::new();
    for (w, untraced, traced) in pass {
        for (kind, r) in [("untraced", untraced), ("traced", traced)] {
            if !r.correct || r.failed > 0 {
                problems.push(format!("{w} {kind}: {} of {} failed", r.failed, r.attempted));
            }
        }
    }
    // The workloads must separate the layers as designed.
    let traced = |w: &str, m: &str| pass.iter().find(|p| p.0 == w).and_then(|p| p.2.metric(m));
    let share = |w| traced(w, "sim.handoff.est_share_pct");
    if share("bcast_small") <= share("bcast_large") {
        problems.push(format!(
            "handoff share of bcast_small ({:?} %) is not above bcast_large's ({:?} %)",
            share("bcast_small"),
            share("bcast_large")
        ));
    }
    if traced("record_analyze", "span.obs_pct") <= Some(90.0) {
        problems.push(format!(
            "record_analyze spends {:?} % of a unit in obs.* spans, not over 90 %",
            traced("record_analyze", "span.obs_pct")
        ));
    }
    problems
}

/// Compare two passes of the same code: every end-to-end metric within
/// its bound, every exact metric identical.
fn aa_problems(a: &Pass, b: &Pass) -> Vec<String> {
    let mut problems = Vec::new();
    println!("# A/A: second pass relative to first (positive = worse), beside the bound");
    for (w, a_untraced, a_traced) in a {
        let Some((_, b_untraced, b_traced)) = b.iter().find(|p| p.0 == *w) else { continue };
        for m in &END_TO_END {
            let (Some(x), Some(y)) = (a_untraced.metric(m.name), b_untraced.metric(m.name)) else {
                continue;
            };
            // An end-to-end metric is never 0: no base to compare against.
            if x == 0.0 {
                problems.push(format!("{w} {}: the first pass read 0", m.name));
                continue;
            }
            let worse = match m.better {
                Better::Lower => (y - x) / x,
                Better::Higher => (x - y) / x,
            };
            let bad = if m.exact { x != y } else { worse > m.bound };
            let bound =
                if m.exact { "exact".to_string() } else { format!("{:.1} %", 100.0 * m.bound) };
            println!(
                "{w:<16} {:<20} {x:>16.4} {y:>16.4} {:>+8.2} %  bound {bound:>7}  {}",
                m.name,
                100.0 * worse,
                if bad { "EXCEEDS" } else { "ok" }
            );
            if bad {
                problems.push(format!("{w} {}: {x} then {y}, bound {bound}", m.name));
            }
        }
        for m in PER_LAYER.iter().filter(|m| m.exact) {
            let (x, y) = (a_traced.metric(m.name), b_traced.metric(m.name));
            if x != y {
                problems.push(format!("{w} {}: exact metric differs, {x:?} then {y:?}", m.name));
            }
        }
    }
    problems
}

fn whole_benchmark(args: &Args) -> Result<Vec<String>, String> {
    let forward: Vec<&'static str> = WORKLOADS.iter().map(|w| w.0).collect();
    let mut passes = vec![run_pass(&forward, args.seed, args.seconds)?];
    let mut problems = pass_problems(&passes[0]);
    if args.aa {
        let backward: Vec<&'static str> = forward.iter().rev().copied().collect();
        passes.push(run_pass(&backward, args.seed, args.seconds)?);
        problems.extend(pass_problems(&passes[1]));
        problems.extend(aa_problems(&passes[0], &passes[1]));
    }
    write_results(&results_json(args.seed, args.seconds, &passes))?;
    std::fs::write("BENCHMARK.json", manifest::benchmark_json())
        .map_err(|e| format!("BENCHMARK.json: {e}"))?;
    println!("# wrote BENCHMARK.json");
    Ok(problems)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(workload) = &args.workload {
        let run = RunArgs {
            workload: workload.clone(),
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
        };
        return match harness::run_one(&run) {
            Ok(result) => {
                println!("{}", result.to_json().render());
                if result.correct {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            // No result line: the run could not even be set up.
            Err(e) => {
                eprintln!("benchmark: {workload}: {e}");
                ExitCode::from(2)
            }
        };
    }
    match whole_benchmark(&args) {
        Ok(problems) if problems.is_empty() => {
            println!("# benchmark: every workload correct, failed_frac = 0");
            ExitCode::SUCCESS
        }
        Ok(problems) => {
            for p in &problems {
                eprintln!("benchmark: FAILED {p}");
            }
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        parse_args(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn the_driver_command_line_parses() {
        let a =
            args(&["--workload", "bcast_small", "--seed", "17", "--seconds", "20", "--trace", "1"])
                .expect("driver form");
        assert_eq!(a.workload.as_deref(), Some("bcast_small"));
        assert_eq!((a.seed, a.seconds, a.trace), (17, 20.0, true));
        assert_eq!(args(&["--seed", "0x10"]).expect("hex").seed, 16);
        assert_eq!(args(&[]).expect("defaults").seed, DEFAULT_SEED);
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--frobnicate"]).is_err());
    }

    fn result(metrics: &[(&str, f64)]) -> RunResult {
        RunResult {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: metrics.iter().map(|(n, v)| (n.to_string(), *v, "x".to_string())).collect(),
        }
    }

    #[test]
    fn aa_flags_a_metric_beyond_its_bound_and_an_exact_one_that_moved() {
        let a = vec![(
            "bcast_small",
            result(&[("unit_wall_ms_p50", 20.0), ("model_err_pct", 9.0)]),
            result(&[("core.sim_makespan_us", 9.0)]),
        )];
        let same = aa_problems(&a, &a);
        assert!(same.is_empty(), "{same:?}");
        let b = vec![(
            "bcast_small",
            result(&[("unit_wall_ms_p50", 30.0), ("model_err_pct", 8.999)]),
            result(&[("core.sim_makespan_us", 9.5)]),
        )];
        // An exact end-to-end metric may not move at all, not even to
        // the better and inside its bound.
        let diff = aa_problems(&a, &b);
        assert_eq!(diff.len(), 3, "{diff:?}");
        assert!(diff[0].contains("unit_wall_ms_p50") && diff[1].contains("model_err_pct"));
        assert!(diff[2].contains("core.sim_makespan_us"));
        // Faster is never a problem.
        assert!(aa_problems(&b, &a).iter().all(|p| !p.contains("unit_wall_ms_p50")));
        // A first pass that read 0 has no base.
        let zero = vec![("bcast_small", result(&[("unit_wall_ms_p50", 0.0)]), result(&[]))];
        assert!(aa_problems(&zero, &a)[0].contains("read 0"));
    }

    #[test]
    fn result_file_round_trips_through_json() {
        let pass =
            vec![("bcast_small", result(&[("setup_s", 0.125)]), result(&[("harness.nproc", 2.0)]))];
        let doc = results_json(0x5CC, 20.0, &[pass.clone(), pass]);
        let back = Json::parse(&doc.render()).expect("result file parses");
        assert_eq!(back.render(), doc.render());
        let runs = back.get("runs").and_then(Json::as_arr).expect("runs");
        assert_eq!(runs.len(), 4);
        let r =
            RunResult::from_json(runs[3].get("result").expect("result")).expect("result parses");
        assert_eq!(r.metric("harness.nproc"), Some(2.0));
        assert_eq!(runs[3].get("pass").and_then(Json::as_i64), Some(1));
    }
}
