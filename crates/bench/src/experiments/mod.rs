//! The typed experiment registry behind the `observatory` harness.
//!
//! Every paper figure/table is one [`Experiment`]: a *plan* function
//! that declares the experiment as a [`Sweep`] — its list of measurement
//! points, the function that measures one point, and one finalize step
//! that turns every `(point, value)` pair into everything the experiment
//! produces: the classic human-readable text (the committed
//! `results/<id>.txt`), the structured [`ExperimentRow`]s for the drift
//! gate, the [`ShapeCheck`]s for the paper's qualitative claims, and —
//! for the experiments that have them — forensic files a person opens in
//! a viewer (traces, movies, soak dumps). The experiment
//! owns all of these ([`Outputs`]); `observatory` only writes them under
//! `--artifact-dir`.
//!
//! Each point is one *unit*: the runner (`crate::runner`) may measure
//! the units on any host thread in any order, because a unit only
//! returns data — it writes no text, rows or files. Finalize is the one
//! writer and sees the values in declaration order, so the artifacts
//! are the same at any job count; a value depends only on its own
//! point, never on when or where it was measured. A unit that fails
//! (every measurement returns `Result`) becomes a failing shape check
//! named after its key, and its experiment's finalize does not run.
//!
//! Each unit is individually metered (its own wall time plus the engine
//! counters of exactly the `run_spmd` calls it made, via the
//! thread-local telemetry scope), so per-experiment [`SelfMetrics`]
//! stay exact even when experiments interleave across threads.

use crate::pool::Task;
use oc_bcast::Algorithm;
use scc_obs::{ExperimentReport, ExperimentRow, SelfMetrics, ShapeCheck};
use std::fmt::Display;
use std::sync::OnceLock;

mod ablation;
mod audit;
mod faults;
mod fig3;
mod fig4;
mod fig5;
mod fig6;
mod fig8a;
mod fig8b;
mod heatmap;
mod linkstress;
mod skew;
mod soak;
mod table1;
mod table2;
mod trace;
mod tune;
mod whatif;

pub use whatif::whatif_profile;

/// Append a formatted line (or a bare newline) to the experiment's
/// text buffer — the in-registry twin of `println!`.
macro_rules! outln {
    ($ctx:expr) => {
        $ctx.out.push('\n')
    };
    ($ctx:expr, $($arg:tt)*) => {{
        use std::fmt::Write as _;
        let _ = writeln!($ctx.out, $($arg)*);
    }};
}
/// `print!` twin of [`outln!`].
macro_rules! out {
    ($ctx:expr, $($arg:tt)*) => {{
        use std::fmt::Write as _;
        let _ = write!($ctx.out, $($arg)*);
    }};
}
pub(crate) use {out, outln};

/// Everything an experiment produced besides its structured report.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Outputs {
    /// Files to write under the artifact directory, `(relative path,
    /// contents)`: the classic text first (at [`text_path`]), then the
    /// experiment's forensic files in emission order.
    pub files: Vec<(String, String)>,
}

/// Where an experiment's classic text lives, relative to the artifact
/// directory.
pub fn text_path(id: &str) -> String {
    match id {
        "heatmap" => "results/heatmaps.txt".to_string(),
        _ => format!("results/{id}.txt"),
    }
}

/// What a finalize step fills in: the classic text output, the
/// structured rows and shape checks, and the experiment's other
/// [`Outputs`].
pub struct ExpCtx {
    /// Reduced sweeps (`observatory --quick`).
    pub quick: bool,
    /// The experiment's classic text, verbatim.
    pub out: String,
    /// Structured measurement points for the drift gate.
    pub rows: Vec<ExperimentRow>,
    /// The paper's qualitative claims, evaluated on this run.
    pub shapes: Vec<ShapeCheck>,
    /// Forensic files queued so far.
    pub outputs: Outputs,
}

impl ExpCtx {
    fn new(quick: bool) -> ExpCtx {
        ExpCtx {
            quick,
            out: String::new(),
            rows: Vec::new(),
            shapes: Vec::new(),
            outputs: Outputs::default(),
        }
    }

    /// Queue a forensic file, path relative to the artifact directory.
    pub fn artifact(&mut self, path: impl Into<String>, contents: String) {
        self.outputs.files.push((path.into(), contents));
    }

    /// Record one measured point.
    pub fn row(
        &mut self,
        point: impl Into<String>,
        paper_value: Option<f64>,
        model_prediction: Option<f64>,
        sim_measured: f64,
        tolerance: f64,
        unit: &str,
    ) {
        self.rows.push(ExperimentRow {
            point: point.into(),
            paper_value,
            model_prediction,
            sim_measured,
            tolerance,
            unit: unit.to_string(),
        });
    }

    /// Evaluate and record one shape claim; returns `pass` so callers
    /// can chain.
    pub fn shape(&mut self, name: &str, pass: bool, detail: String) -> bool {
        self.shapes.push(ShapeCheck::new(name, pass, detail));
        pass
    }

    /// Render rows of `(x, columns…)` as an aligned table with a CSV
    /// twin (the CSV block is what EXPERIMENTS.md embeds).
    pub fn series(
        &mut self,
        title: &str,
        x_label: &str,
        col_labels: &[String],
        rows: &[(usize, Vec<f64>)],
    ) {
        outln!(self, "# {title}");
        out!(self, "# {x_label:>8}");
        for l in col_labels {
            out!(self, " {l:>12}");
        }
        outln!(self);
        for (x, cols) in rows {
            out!(self, "{x:>10}");
            for v in cols {
                out!(self, " {v:>12.3}");
            }
            outln!(self);
        }
        outln!(self);
        outln!(self, "csv,{x_label},{}", col_labels.join(","));
        for (x, cols) in rows {
            let vals: Vec<String> = cols.iter().map(|v| format!("{v:.4}")).collect();
            outln!(self, "csv,{x},{}", vals.join(","));
        }
        outln!(self);
    }
}

/// One measurement point of a sweep: it names its unit and weighs it.
pub trait Point {
    /// Stable key, unique within the sweep; a failed unit's shape check
    /// carries it.
    fn key(&self) -> String;
    /// Relative weight for longest-task-first scheduling.
    fn cost(&self) -> u64 {
        1
    }
}

/// A single-unit sweep names its one point.
impl Point for &'static str {
    fn key(&self) -> String {
        self.to_string()
    }
}

/// One broadcast of `m` cache lines under one algorithm (Figures
/// 8a/8b), weighted by size so the heavy large-message runs start first.
impl Point for (Algorithm, usize) {
    fn key(&self) -> String {
        format!("{} m={}", self.0.label(), self.1)
    }
    fn cost(&self) -> u64 {
        self.1 as u64
    }
}

/// A sweep's typed points, measurement and finalize behind one
/// object-safe face — the registry's only type-erased hand-off.
trait Plan: Sync {
    /// Measure point `i` and keep its value; `Err` is the error text.
    fn run(&self, i: usize) -> Result<(), String>;
    /// Hand every `(point, value)` pair to finalize, in declaration
    /// order (no call when a value is missing).
    fn finalize(self: Box<Self>, ctx: &mut ExpCtx);
}

struct Typed<P, T, R, F> {
    points: Vec<P>,
    values: Vec<OnceLock<T>>,
    run: R,
    finalize: F,
}

impl<P, T, R, F> Plan for Typed<P, T, R, F>
where
    P: Sync,
    T: Send + Sync,
    R: Fn(&P) -> Result<T, String> + Sync,
    F: FnOnce(&mut ExpCtx, Vec<(P, T)>) + Sync,
{
    fn run(&self, i: usize) -> Result<(), String> {
        let _ = self.values[i].set((self.run)(&self.points[i])?);
        Ok(())
    }

    fn finalize(self: Box<Self>, ctx: &mut ExpCtx) {
        let Typed { points, values, finalize, .. } = *self;
        let pairs = points.into_iter().zip(values).map(|(p, v)| Some((p, v.into_inner()?)));
        if let Some(pairs) = pairs.collect() {
            finalize(ctx, pairs);
        }
    }
}

/// An experiment described as data: its points, one unit each, and the
/// finalize step that turns their values into its outputs.
pub struct Sweep {
    /// `(key, cost)` of every unit, in declaration order.
    units: Vec<(String, u64)>,
    plan: Box<dyn Plan>,
}

impl Sweep {
    /// Declare a sweep: `run` measures one point (any thread, any
    /// order), `finalize` receives every point with its value in
    /// declaration order and writes all of the experiment's output.
    pub fn points<P, T, E>(
        points: Vec<P>,
        run: impl Fn(&P) -> Result<T, E> + Sync + 'static,
        finalize: impl FnOnce(&mut ExpCtx, Vec<(P, T)>) + Sync + 'static,
    ) -> Sweep
    where
        P: Point + Sync + 'static,
        T: Send + Sync + 'static,
        E: Display,
    {
        Sweep {
            units: points.iter().map(|p| (p.key(), p.cost())).collect(),
            plan: Box::new(Typed {
                values: points.iter().map(|_| OnceLock::new()).collect(),
                points,
                run: move |p: &P| run(p).map_err(|e| e.to_string()),
                finalize,
            }),
        }
    }

    /// One metered task per unit, in declaration order.
    pub(crate) fn tasks(&self) -> impl Iterator<Item = Task<'_, UnitOutcome>> {
        self.units.iter().enumerate().map(move |(i, &(_, cost))| Task {
            cost,
            run: Box::new(move || metered(|| self.plan.run(i))) as Box<_>,
        })
    }

    pub(crate) fn len(&self) -> usize {
        self.units.len()
    }
}

/// One registered experiment.
pub struct Experiment {
    /// Registry id — `observatory --only <id>`; names the text file.
    pub id: &'static str,
    /// Human title used in `results/CONFORMANCE.md`.
    pub title: &'static str,
    /// Declare the experiment, full or reduced (`--quick`), as a
    /// [`Sweep`].
    pub plan: fn(bool) -> Sweep,
}

/// Every experiment the observatory knows, in paper order.
pub fn registry() -> Vec<Experiment> {
    type Entry = (&'static str, &'static str, fn(bool) -> Sweep);
    let table: [Entry; 18] = [
        ("table1", "Table 1 — fitted model parameters", table1::plan),
        ("fig3", "Figure 3 — put/get completion time vs distance", fig3::plan),
        ("fig4", "Figure 4 — MPB contention", fig4::plan),
        ("fig5", "Figure 5 — propagation and notification trees", fig5::plan),
        ("fig6", "Figure 6 — modeled broadcast latency", fig6::plan),
        ("table2", "Table 2 — modeled peak throughput", table2::plan),
        ("fig8a", "Figure 8a — measured broadcast latency", fig8a::plan),
        ("fig8b", "Figure 8b — measured broadcast throughput", fig8b::plan),
        ("linkstress", "Section 3.3 — mesh link stress", linkstress::plan),
        ("ablation", "Design-choice ablations", ablation::plan),
        ("heatmap", "Section 5 — per-link mesh occupancy heatmaps", heatmap::plan),
        ("whatif", "Causal what-if profiles — cost-class sensitivity", whatif::plan),
        ("skew", "Message journeys — delivery skew & straggler attribution", skew::plan),
        ("faults", "Reliable broadcast — degradation under injected faults", faults::plan),
        ("tune", "Configuration-space sweep — best (k, M_oc, fan-out, tree)", tune::plan),
        ("soak", "Soak — sustained reliable traffic under SLO watchdogs", soak::plan),
        ("audit", "Causal trace audit — happens-before conformance of recorded runs", audit::plan),
        ("trace", "One recorded broadcast — Gantt, utilization and critical path", trace::plan),
    ];
    table.into_iter().map(|(id, title, plan)| Experiment { id, title, plan }).collect()
}

/// What one executed unit produced: success or its error text, and its
/// own metered cost.
pub(crate) type UnitOutcome = (Result<(), String>, SelfMetrics);

/// Run `f` on the calling thread, metering its wall time and exactly
/// its own engine work (thread-local telemetry scope — safe under any
/// number of concurrently executing units).
fn metered<R>(f: impl FnOnce() -> R) -> (R, SelfMetrics) {
    let _ = scc_sim::telemetry::take_thread();
    let wall = std::time::Instant::now();
    let r = f();
    let wall_s = wall.elapsed().as_secs_f64();
    let d = scc_sim::telemetry::take_thread();
    let metrics = SelfMetrics {
        wall_s,
        sim_runs: d.runs,
        sim_events: d.events,
        heap_pushes: d.heap_pushes,
        coalesced_steps: d.coalesced_steps,
        units: 0, // `assemble` counts the experiment's units
    };
    (r, metrics)
}

/// Turn a sweep's executed units (in declaration order — the caller
/// must pass them so) into its report: a failing shape per failed unit,
/// else the finalize step. This is the deterministic-merge half of the
/// parallel runner: given the same unit values, the result is
/// byte-identical however the units were scheduled.
pub(crate) fn assemble(
    exp: &Experiment,
    quick: bool,
    sweep: Sweep,
    outcomes: Vec<UnitOutcome>,
) -> (ExperimentReport, String, Outputs) {
    let mut ctx = ExpCtx::new(quick);
    let mut metrics = SelfMetrics { units: outcomes.len() as u64, ..SelfMetrics::default() };
    for ((key, _), (result, m)) in sweep.units.iter().zip(outcomes) {
        metrics.absorb(&m);
        if let Err(e) = result {
            ctx.shape(&format!("unit `{key}`"), false, e);
        }
    }
    if ctx.shapes.is_empty() {
        let ((), m) = metered(|| sweep.plan.finalize(&mut ctx));
        metrics.absorb(&m);
    }
    let ExpCtx { out, rows, shapes, mut outputs, .. } = ctx;
    outputs.files.insert(0, (text_path(exp.id), out.clone()));
    let report = ExperimentReport {
        id: exp.id.to_string(),
        title: exp.title.to_string(),
        rows,
        shapes,
        metrics,
    };
    (report, out, outputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_experiment_jobs;

    #[test]
    fn registry_ids_are_unique_and_stable() {
        let reg = registry();
        let ids: Vec<&str> = reg.iter().map(|e| e.id).collect();
        for (i, id) in ids.iter().enumerate() {
            assert!(!ids[..i].contains(id), "duplicate id {id}");
        }
        for id in ["fig3", "fig8b", "table1", "table2", "linkstress", "ablation", "heatmap", "skew"]
        {
            assert!(ids.contains(&id), "missing {id}");
        }
    }

    #[test]
    fn run_experiment_attaches_metrics_and_text() {
        let reg = registry();
        let fig5 = reg.iter().find(|e| e.id == "fig5").unwrap();
        let (report, out, outputs) = crate::run_experiment_full(fig5, true);
        assert_eq!(report.id, "fig5");
        assert!(!out.is_empty());
        assert_eq!(outputs.files, vec![("results/fig5.txt".to_string(), out)]);
        assert!(report.shapes_pass(), "{:?}", report.shapes);
        assert!(report.metrics.wall_s > 0.0);
        assert!(report.metrics.units >= 1);
    }

    #[test]
    fn every_experiment_decomposes_into_units() {
        for exp in registry() {
            for quick in [true, false] {
                let sweep = (exp.plan)(quick);
                assert_ne!(sweep.len(), 0, "{}: empty sweep", exp.id);
                let mut keys: Vec<&str> = sweep.units.iter().map(|u| u.0.as_str()).collect();
                keys.sort_unstable();
                keys.dedup();
                assert_eq!(keys.len(), sweep.len(), "{}: duplicate keys", exp.id);
            }
        }
    }

    /// Per-experiment unit counts, quick and full, as planned before the
    /// sweeps became typed. `results/CONFORMANCE.md` prints the full
    /// ones; tier-1 never runs the full observatory, so a merged or
    /// split unit would otherwise surface only in CI.
    #[test]
    fn registry_unit_counts_are_pinned() {
        const COUNTS: [(&str, usize, usize); 18] = [
            ("table1", 18, 18),
            ("fig3", 26, 26),
            ("fig4", 8, 22),
            ("fig5", 1, 1),
            ("fig6", 1, 1),
            ("table2", 1, 1),
            ("fig8a", 16, 60),
            ("fig8b", 20, 60),
            ("linkstress", 2, 2),
            ("ablation", 21, 21),
            ("heatmap", 4, 4),
            ("whatif", 12, 12),
            ("skew", 3, 3),
            ("faults", 6, 12),
            ("tune", 2, 15),
            ("soak", 10, 60),
            ("audit", 9, 9),
            ("trace", 2, 2),
        ];
        let planned: Vec<(&str, usize, usize)> = registry()
            .iter()
            .map(|e| (e.id, (e.plan)(true).len(), (e.plan)(false).len()))
            .collect();
        assert_eq!(planned, COUNTS);
    }

    /// A test point with an explicit weight.
    struct Weighted(&'static str, u64);

    impl Point for Weighted {
        fn key(&self) -> String {
            self.0.to_string()
        }
        fn cost(&self) -> u64 {
            self.1
        }
    }

    #[test]
    fn values_flow_from_units_to_finalize_in_declaration_order() {
        // The heavy last point runs first at jobs = 2; finalize still
        // sees the declaration order.
        let exp = Experiment {
            id: "t",
            title: "t",
            plan: |_| {
                Sweep::points(
                    vec![Weighted("a", 1), Weighted("b", 1), Weighted("c", 99)],
                    |p| Ok::<_, String>(p.0.len() as u64 * if p.1 > 1 { 32 } else { 5 }),
                    |ctx, pairs| {
                        for (p, v) in &pairs {
                            out!(ctx, "{}={v} ", p.0);
                        }
                        outln!(ctx, "sum {}", pairs.iter().map(|(_, v)| v).sum::<u64>());
                    },
                )
            },
        };
        for jobs in [1, 2] {
            let (report, text, outputs) = run_experiment_jobs(&exp, true, jobs);
            assert_eq!(text, "a=5 b=5 c=32 sum 42\n");
            assert_eq!(outputs.files, vec![("results/t.txt".to_string(), text)]);
            assert_eq!(report.metrics.units, 3);
            assert!(report.shapes.is_empty());
        }
    }

    #[test]
    fn a_failing_unit_fails_its_experiment_not_the_process() {
        let exp = Experiment {
            id: "t",
            title: "t",
            plan: |_| {
                Sweep::points(
                    vec!["ok", "broken", "fine"],
                    |p| if *p == "broken" { Err(format!("{p}: no route")) } else { Ok(1u8) },
                    |ctx, _| outln!(ctx, "finalize ran"),
                )
            },
        };
        let (report, text, outputs) = run_experiment_jobs(&exp, true, 2);
        assert_eq!(text, "", "finalize must not run after a failed unit");
        assert_eq!(outputs.files, vec![("results/t.txt".to_string(), String::new())]);
        assert_eq!(report.metrics.units, 3);
        assert!(!report.shapes_pass());
        assert_eq!(report.shapes.len(), 1, "{:?}", report.shapes);
        assert!(report.shapes[0].name.contains("broken"), "{:?}", report.shapes[0]);
        assert_eq!(report.shapes[0].detail, "broken: no route");
    }
}
