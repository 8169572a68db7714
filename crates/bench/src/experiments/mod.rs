//! The typed experiment registry behind the `observatory` harness.
//!
//! Every paper figure/table is one [`Experiment`]: a *plan* function
//! that describes the experiment as a [`Sweep`] — an ordered list of
//! independent measurement [`Unit`]s plus one finalize step that turns
//! the units' values into everything the experiment produces: the
//! classic human-readable text (the committed `results/<id>.txt`), the
//! structured [`ExperimentRow`]s for the drift gate, the
//! [`ShapeCheck`]s for the paper's qualitative claims, and — for the
//! experiments that have them — sidecar files and a named summary
//! block for `BENCH_figures.json`. The experiment owns all of these
//! ([`Outputs`]); `observatory` only writes them under
//! `--artifact-dir`.
//!
//! Expressing sweeps as data is what makes the parallel runner
//! (`crate::runner`) possible: units carry no ordering dependencies, so
//! they can execute on any host thread in any order, and the merge —
//! unit outputs concatenated in declaration order, then finalize —
//! reconstructs exactly the sequential output. Determinism of the
//! artifacts follows from determinism of the simulator: a unit's value
//! depends only on its own configuration, never on when or where it
//! ran.
//!
//! Each unit is individually metered (its own wall time plus the engine
//! counters of exactly the `run_spmd` calls it made, via the
//! thread-local telemetry scope), so per-experiment [`SelfMetrics`]
//! stay exact even when experiments interleave across threads.

use scc_obs::{ExperimentReport, ExperimentRow, Json, SelfMetrics, ShapeCheck};
use std::any::Any;

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
mod tune;
mod whatif;

pub use whatif::whatif_artifact;

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
    /// experiment's sidecars in emission order.
    pub files: Vec<(String, String)>,
    /// Named summary blocks for `BENCH_figures.json` (top-level key,
    /// block), computed by the experiment from the same typed values
    /// its sidecars were rendered from.
    pub summaries: Vec<(String, Json)>,
}

/// Where an experiment's classic text lives, relative to the artifact
/// directory.
pub fn text_path(id: &str) -> String {
    match id {
        "heatmap" => "results/heatmaps.txt".to_string(),
        _ => format!("results/{id}.txt"),
    }
}

/// Mutable context a sweep unit (or finalize step) fills in: the
/// classic text output, the structured rows and shape checks, and the
/// experiment's other [`Outputs`].
pub struct ExpCtx {
    /// Reduced sweeps (`observatory --quick`).
    pub quick: bool,
    /// The experiment's classic text, verbatim.
    pub out: String,
    /// Structured measurement points for the drift gate.
    pub rows: Vec<ExperimentRow>,
    /// The paper's qualitative claims, evaluated on this run.
    pub shapes: Vec<ShapeCheck>,
    /// Sidecar files and summary blocks queued so far.
    pub outputs: Outputs,
}

impl ExpCtx {
    pub fn new(quick: bool) -> ExpCtx {
        ExpCtx {
            quick,
            out: String::new(),
            rows: Vec::new(),
            shapes: Vec::new(),
            outputs: Outputs::default(),
        }
    }

    /// Queue a sidecar file, path relative to the artifact directory.
    pub fn artifact(&mut self, path: impl Into<String>, contents: String) {
        self.outputs.files.push((path.into(), contents));
    }

    /// Attach the experiment's summary block: `fields` become the
    /// object written under the top-level key `name` of
    /// `BENCH_figures.json`.
    pub fn summary(&mut self, name: &str, fields: &[(&str, Json)]) {
        let block = fields.iter().fold(Json::obj(), |j, (k, v)| j.set(k, v.clone()));
        self.outputs.summaries.push((name.to_string(), block));
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

    /// [`crate::write_series`] into this context's text buffer.
    pub fn series(
        &mut self,
        title: &str,
        x_label: &str,
        col_labels: &[String],
        rows: &[(usize, Vec<f64>)],
    ) {
        crate::write_series(&mut self.out, title, x_label, col_labels, rows);
    }
}

/// Type-erased value a measurement unit hands to its sweep's finalize
/// step.
pub type UnitValue = Box<dyn Any + Send>;

/// Boxed unit body: writes into its own [`ExpCtx`], may return a value.
pub type UnitFn = Box<dyn FnOnce(&mut ExpCtx) -> Option<UnitValue> + Send>;

/// Boxed finalize step: consumes the units' values in declaration order.
pub type FinalizeFn = Box<dyn FnOnce(&mut ExpCtx, Values) + Send>;

/// One independently schedulable piece of an experiment: a closure that
/// may write output into its own [`ExpCtx`] and may return a value for
/// the finalize step. Units of one sweep must be mutually independent —
/// the runner may execute them in any order, on any thread.
pub struct Unit {
    /// Unique (within the sweep) stable key; merge order is declaration
    /// order, the key exists for debugging and duplicate detection.
    pub(crate) key: String,
    /// Relative weight for longest-task-first scheduling.
    pub(crate) cost: u64,
    pub(crate) run: UnitFn,
}

/// An experiment described as data: ordered units plus a finalize step.
pub struct Sweep {
    /// Reduced sweeps (`observatory --quick`).
    pub quick: bool,
    pub(crate) units: Vec<Unit>,
    pub(crate) finalize: Option<FinalizeFn>,
}

impl Sweep {
    pub fn new(quick: bool) -> Sweep {
        Sweep { quick, units: Vec::new(), finalize: None }
    }

    fn push(&mut self, key: String, cost: u64, run: UnitFn) {
        assert!(!self.units.iter().any(|u| u.key == key), "duplicate unit key `{key}`");
        self.units.push(Unit { key, cost, run });
    }

    /// Add a self-contained unit: it writes its own output and returns
    /// no value (its text/rows/shapes merge in declaration order).
    pub fn unit(&mut self, key: impl Into<String>, f: impl FnOnce(&mut ExpCtx) + Send + 'static) {
        self.push(
            key.into(),
            1,
            Box::new(move |ctx| {
                f(ctx);
                None
            }),
        );
    }

    /// Add a measurement unit whose value the finalize step consumes
    /// (in declaration order, via [`Values::next_as`]).
    pub fn value_unit<T: Send + 'static>(
        &mut self,
        key: impl Into<String>,
        f: impl FnOnce(&mut ExpCtx) -> T + Send + 'static,
    ) {
        self.value_unit_w(key, 1, f);
    }

    /// [`Self::value_unit`] with an explicit scheduling weight — use
    /// when units of one sweep differ wildly in runtime (e.g. message
    /// size in cache lines).
    pub fn value_unit_w<T: Send + 'static>(
        &mut self,
        key: impl Into<String>,
        cost: u64,
        f: impl FnOnce(&mut ExpCtx) -> T + Send + 'static,
    ) {
        self.push(key.into(), cost, Box::new(move |ctx| Some(Box::new(f(ctx)) as UnitValue)));
    }

    /// Set the finalize step: runs after every unit, receives the
    /// units' values in declaration order, and its output merges last.
    pub fn finalize(&mut self, f: impl FnOnce(&mut ExpCtx, Values) + Send + 'static) {
        assert!(self.finalize.is_none(), "a sweep has exactly one finalize step");
        self.finalize = Some(Box::new(f));
    }
}

/// The values the measurement units produced, in declaration order.
pub struct Values {
    items: std::vec::IntoIter<(String, Option<UnitValue>)>,
}

impl Values {
    /// Take the next value (skipping valueless units) as a `T`. Panics
    /// with the unit's key on a type mismatch — a plan/finalize bug.
    pub fn next_as<T: 'static>(&mut self) -> T {
        for (key, v) in self.items.by_ref() {
            if let Some(v) = v {
                return *v.downcast::<T>().unwrap_or_else(|_| {
                    panic!("unit `{key}`: finalize expected a {}", std::any::type_name::<T>())
                });
            }
        }
        panic!("finalize consumed more values than the sweep's units produced");
    }
}

/// One registered experiment.
pub struct Experiment {
    /// Registry id — `observatory --only <id>`; names the text file.
    pub id: &'static str,
    /// Human title used in `results/CONFORMANCE.md`.
    pub title: &'static str,
    /// Describe the experiment as a [`Sweep`].
    pub plan: fn(&mut Sweep),
}

/// Every experiment the observatory knows, in paper order.
pub fn registry() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "table1", title: "Table 1 — fitted model parameters", plan: table1::plan
        },
        Experiment {
            id: "fig3",
            title: "Figure 3 — put/get completion time vs distance",
            plan: fig3::plan,
        },
        Experiment { id: "fig4", title: "Figure 4 — MPB contention", plan: fig4::plan },
        Experiment {
            id: "fig5",
            title: "Figure 5 — propagation and notification trees",
            plan: fig5::plan,
        },
        Experiment {
            id: "fig6", title: "Figure 6 — modeled broadcast latency", plan: fig6::plan
        },
        Experiment {
            id: "table2", title: "Table 2 — modeled peak throughput", plan: table2::plan
        },
        Experiment {
            id: "fig8a",
            title: "Figure 8a — measured broadcast latency",
            plan: fig8a::plan,
        },
        Experiment {
            id: "fig8b",
            title: "Figure 8b — measured broadcast throughput",
            plan: fig8b::plan,
        },
        Experiment {
            id: "linkstress",
            title: "Section 3.3 — mesh link stress",
            plan: linkstress::plan,
        },
        Experiment { id: "ablation", title: "Design-choice ablations", plan: ablation::plan },
        Experiment {
            id: "heatmap",
            title: "Section 5 — per-link mesh occupancy heatmaps",
            plan: heatmap::plan,
        },
        Experiment {
            id: "whatif",
            title: "Causal what-if profiles — cost-class sensitivity",
            plan: whatif::plan,
        },
        Experiment {
            id: "skew",
            title: "Message journeys — delivery skew & straggler attribution",
            plan: skew::plan,
        },
        Experiment {
            id: "faults",
            title: "Reliable broadcast — degradation under injected faults",
            plan: faults::plan,
        },
        Experiment {
            id: "tune",
            title: "Configuration-space sweep — best (k, M_oc, fan-out, tree)",
            plan: tune::plan,
        },
        Experiment {
            id: "soak",
            title: "Soak — sustained reliable traffic under SLO watchdogs",
            plan: soak::plan,
        },
        Experiment {
            id: "audit",
            title: "Causal trace audit — happens-before conformance of recorded runs",
            plan: audit::plan,
        },
    ]
}

/// What one executed unit produced: its context (text/rows/shapes/
/// outputs), its value for finalize, and its own metered cost.
pub(crate) struct UnitOutcome {
    pub(crate) key: String,
    pub(crate) ctx: ExpCtx,
    pub(crate) value: Option<UnitValue>,
    pub(crate) metrics: SelfMetrics,
}

/// Execute one unit on the calling thread, metering its wall time and
/// exactly its own engine work (thread-local telemetry scope — safe
/// under any number of concurrently executing units).
pub(crate) fn execute_unit(unit: Unit, quick: bool) -> UnitOutcome {
    let mut ctx = ExpCtx::new(quick);
    let _ = scc_sim::telemetry::take_thread();
    let wall = std::time::Instant::now();
    let value = (unit.run)(&mut ctx);
    let wall_s = wall.elapsed().as_secs_f64();
    let d = scc_sim::telemetry::take_thread();
    UnitOutcome {
        key: unit.key,
        ctx,
        value,
        metrics: SelfMetrics {
            wall_s,
            sim_runs: d.runs,
            sim_events: d.events,
            heap_pushes: d.heap_pushes,
            coalesced_steps: d.coalesced_steps,
            units: 0, // set by `assemble` to the merged unit count
        },
    }
}

/// Merge executed units (in declaration order — the caller must pass
/// them so) and run the finalize step. This is the deterministic-merge
/// half of the parallel runner: given the same unit values, the result
/// is byte-identical however the units were scheduled.
pub(crate) fn assemble(
    exp: &Experiment,
    quick: bool,
    finalize: Option<FinalizeFn>,
    outcomes: Vec<UnitOutcome>,
) -> (ExperimentReport, String, Outputs) {
    let unit_count = outcomes.len() as u64;
    let mut text = String::new();
    let mut rows = Vec::new();
    let mut shapes = Vec::new();
    let mut outputs = Outputs::default();
    let mut metrics = SelfMetrics::default();
    let mut merge = |ctx: ExpCtx, m: &SelfMetrics| {
        text.push_str(&ctx.out);
        rows.extend(ctx.rows);
        shapes.extend(ctx.shapes);
        outputs.files.extend(ctx.outputs.files);
        outputs.summaries.extend(ctx.outputs.summaries);
        metrics.absorb(m);
    };
    let mut values = Vec::with_capacity(outcomes.len());
    for o in outcomes {
        merge(o.ctx, &o.metrics);
        values.push((o.key, o.value));
    }
    if let Some(f) = finalize {
        let values = Values { items: values.into_iter() };
        let fin = execute_unit(
            Unit {
                key: "finalize".to_string(),
                cost: 0,
                run: Box::new(move |ctx| {
                    f(ctx, values);
                    None
                }),
            },
            quick,
        );
        merge(fin.ctx, &fin.metrics);
    }
    metrics.units = unit_count;
    outputs.files.insert(0, (text_path(exp.id), text.clone()));
    let report = ExperimentReport {
        id: exp.id.to_string(),
        title: exp.title.to_string(),
        rows,
        shapes,
        metrics,
    };
    (report, text, outputs)
}

#[cfg(test)]
mod tests {
    use super::*;

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
            let mut sweep = Sweep::new(true);
            (exp.plan)(&mut sweep);
            assert!(!sweep.units.is_empty(), "{}: empty sweep", exp.id);
            // Keys are asserted unique at push time; re-check here so a
            // relaxed push never slips through.
            let mut keys: Vec<&str> = sweep.units.iter().map(|u| u.key.as_str()).collect();
            keys.sort_unstable();
            keys.dedup();
            assert_eq!(keys.len(), sweep.units.len(), "{}: duplicate keys", exp.id);
        }
    }

    #[test]
    fn values_flow_from_units_to_finalize_in_declaration_order() {
        let mut sweep = Sweep::new(true);
        sweep.value_unit("a", |_| 10u64);
        sweep.unit("textual", |ctx| outln!(ctx, "mid"));
        sweep.value_unit_w("b", 99, |_| 32u64);
        sweep.finalize(|ctx, mut values| {
            let a = values.next_as::<u64>();
            let b = values.next_as::<u64>();
            outln!(ctx, "sum {}", a + b);
        });
        let Sweep { units, finalize, .. } = sweep;
        let outcomes = units.into_iter().map(|u| execute_unit(u, true)).collect();
        let exp = Experiment { id: "t", title: "t", plan: |_| {} };
        let (report, text, outputs) = assemble(&exp, true, finalize, outcomes);
        assert_eq!(text, "mid\nsum 42\n");
        assert_eq!(outputs.files, vec![("results/t.txt".to_string(), text)]);
        assert_eq!(report.metrics.units, 3);
    }
}
