//! `registry_slice`: what people actually run. One unit is the
//! full-mode (not quick) experiment registry restricted to ten
//! experiments, sequentially (`jobs = 1`): ≈ 310 mostly tiny
//! simulations plus model fits, text rendering and JSON.
//!
//! The registry takes no inputs, so this workload's one unit is the same
//! for every seed. (Shuffling the experiments by seed was tried: the
//! peak resident set then depends on which experiment meets which heap
//! state and spreads by 28 % across seeds, which no memory regression
//! bound survives.)
//!
//! The outputs are checked against files that live *outside*
//! `benchmark/` — the committed `results/<id>.txt` and
//! `ci/baseline/BENCH_figures.json` — so a protocol PR that moves
//! simulated numbers updates them in place and this workload follows.

use super::{ChipWork, ModelFit, UnitOutcome, Workload};
use crate::span::{SpanId, Tracer};
use scc_bench::{registry, run_experiment_full, Experiment};
use scc_hal::Time;
use scc_obs::{drift_gate, ConformanceReport, ExperimentReport, Json};

/// The slice, in registry order.
pub const SLICE: [&str; 10] = [
    "table1",
    "fig3",
    "fig4",
    "fig8a",
    "linkstress",
    "heatmap",
    "whatif",
    "skew",
    "faults",
    "audit",
];

const BASELINE: &str = "ci/baseline/BENCH_figures.json";

/// The fig8a row reported as this workload's simulated makespan.
const MAKESPAN_ROW: &str = "latency k=7 m=1";

/// Where an experiment's committed text lives, if it has one.
fn results_path(id: &str) -> String {
    match id {
        "heatmap" => "results/heatmaps.txt".to_string(),
        _ => format!("results/{id}.txt"),
    }
}

pub struct RegistrySlice {
    /// The slice, each experiment with its committed text where the
    /// repo has one.
    experiments: Vec<(Experiment, Option<String>)>,
    /// The CI baseline restricted to the slice.
    baseline: ConformanceReport,
    /// Set by every unit from its own rows; set-up always runs one.
    model_fit: Option<ModelFit>,
}

/// Every row that carries both a model prediction and a measurement,
/// set against the model.
fn model_fit(reports: &[ExperimentReport]) -> Option<ModelFit> {
    let pairs: Vec<(f64, f64)> = reports
        .iter()
        .flat_map(|r| &r.rows)
        .filter_map(|row| Some((row.sim_measured, row.model_prediction.filter(|m| *m != 0.0)?)))
        .collect();
    ModelFit::of(&pairs)
}

impl RegistrySlice {
    pub fn new() -> Result<RegistrySlice, String> {
        let mut reg = registry();
        let mut experiments = Vec::new();
        for id in SLICE {
            let at =
                reg.iter().position(|e| e.id == id).ok_or(format!("registry has no `{id}`"))?;
            let committed = std::fs::read_to_string(results_path(id)).ok();
            experiments.push((reg.swap_remove(at), committed));
        }
        let text = std::fs::read_to_string(BASELINE).map_err(|e| format!("{BASELINE}: {e}"))?;
        let mut baseline =
            ConformanceReport::from_json(&text).map_err(|e| format!("{BASELINE}: {e}"))?;
        baseline.experiments.retain(|e| SLICE.contains(&e.id.as_str()));
        if baseline.experiments.len() != SLICE.len() {
            return Err(format!(
                "{BASELINE} covers {} of the slice's experiments",
                baseline.experiments.len()
            ));
        }
        Ok(RegistrySlice { experiments, baseline, model_fit: None })
    }
}

impl Workload for RegistrySlice {
    fn distinct_units(&self) -> usize {
        1
    }

    fn run_unit(&mut self, _i: usize, tr: &Tracer, unit: SpanId) -> UnitOutcome {
        let mut out = UnitOutcome::default();
        let mut report = ConformanceReport::new(false);
        for (exp, committed) in &self.experiments {
            let (exp_report, text, _artifacts) =
                tr.span("bench.exp", exp.id, unit, || run_experiment_full(exp, false));
            if committed.as_ref().is_some_and(|c| *c != text) {
                out.errors.push(format!("{}: text differs from {}", exp.id, results_path(exp.id)));
            }
            for s in exp_report.shapes.iter().filter(|s| !s.pass) {
                out.errors
                    .push(format!("{}: shape check `{}` failed: {}", exp.id, s.name, s.detail));
            }
            report.experiments.push(exp_report);
        }

        let (json, markdown) = tr.span("bench.render", "", unit, || {
            (report.to_json().render(), report.render_markdown())
        });
        if markdown.is_empty() {
            out.errors.push("empty conformance markdown".to_string());
        }
        match tr.span("obs.json_parse", "", unit, || Json::parse(&json)) {
            Ok(_) => out.json_bytes = json.len() as u64,
            Err(e) => out.errors.push(format!("emitted BENCH_figures JSON does not parse: {e}")),
        }

        let gate = tr.span("bench.gate", "", unit, || drift_gate(&report, &self.baseline));
        if !gate.ok() || gate.rows_checked == 0 {
            out.errors.push(format!("drift gate vs {BASELINE}: {}", gate.render().trim_end()));
        }

        self.model_fit = model_fit(&report.experiments);
        if self.model_fit.is_none() {
            out.errors.push("no row carries both model and sim".to_string());
        }
        let row = report
            .experiment("fig8a")
            .and_then(|e| e.rows.iter().find(|r| r.point == MAKESPAN_ROW));
        match row {
            Some(row) => {
                out.chip = ChipWork {
                    broadcasts: 1,
                    makespan: Time::from_us_f64(row.sim_measured),
                    ..ChipWork::default()
                }
            }
            None => out.errors.push(format!("fig8a has no row `{MAKESPAN_ROW}`")),
        }
        out
    }

    fn model_fit(&self) -> ModelFit {
        self.model_fit.unwrap_or(ModelFit { err_pct: f64::NAN, sim_rel: f64::NAN })
    }

    fn probe_lines(&self) -> usize {
        96
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scc_obs::ExperimentRow;

    #[test]
    fn every_slice_id_is_in_the_registry() {
        let reg = registry();
        for id in SLICE {
            assert!(reg.iter().any(|e| e.id == id), "{id}");
        }
    }

    #[test]
    fn model_fit_takes_the_rows_that_carry_both_values() {
        let row = |model, sim| ExperimentRow {
            point: "p".into(),
            paper_value: None,
            model_prediction: model,
            sim_measured: sim,
            tolerance: 0.02,
            unit: "us".into(),
        };
        let rep = ExperimentReport {
            id: "x".into(),
            title: "x".into(),
            rows: vec![
                row(Some(10.0), 11.0),
                row(Some(4.0), 3.0),
                row(None, 5.0),
                row(Some(0.0), 1.0),
            ],
            shapes: Vec::new(),
            metrics: Default::default(),
        };
        // The row without a model and the zero model are skipped.
        assert_eq!(model_fit(&[rep]), ModelFit::of(&[(11.0, 10.0), (3.0, 4.0)]));
        assert_eq!(model_fit(&[]), None);
    }
}
