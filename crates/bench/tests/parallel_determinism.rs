//! The parallel observatory's core guarantee: running the registry at
//! any `--jobs` count produces byte-identical artifacts. A
//! representative slice (model-only, multi-unit measured, and
//! finalize-heavy experiments) runs sequentially and at `--jobs 4`;
//! every experiment's legacy text must match byte for byte, and the
//! `ConformanceReport` JSON must be identical after zeroing the only
//! legitimately nondeterministic quantities (host wall-clock times).
//! Engine counters are compared *exactly* — that is what proves the
//! thread-local attribution charges each unit with precisely its own
//! simulator work, however the units were scheduled.

use scc_bench::{registry, run_registry, Experiment};
use scc_obs::ConformanceReport;

const SLICE: [&str; 4] = ["fig5", "fig6", "table2", "linkstress"];

fn slice() -> Vec<Experiment> {
    registry().into_iter().filter(|e| SLICE.contains(&e.id)).collect()
}

fn report_of(outputs: &[scc_bench::ExpOutput], quick: bool) -> ConformanceReport {
    let mut r = ConformanceReport::new(quick);
    for o in outputs {
        let mut exp = o.report.clone();
        // Wall time is host scheduling, not simulation — the one field
        // allowed to differ between job counts.
        exp.metrics.wall_s = 0.0;
        r.experiments.push(exp);
    }
    r
}

#[test]
fn jobs_4_output_is_byte_identical_to_sequential() {
    let seq = run_registry(slice(), true, 1);
    let par = run_registry(slice(), true, 4);

    assert_eq!(seq.outputs.len(), par.outputs.len());
    for (s, p) in seq.outputs.iter().zip(&par.outputs) {
        assert_eq!(s.report.id, p.report.id);
        assert_eq!(s.text, p.text, "{}: text diverged between --jobs 1 and --jobs 4", s.report.id);
        assert_eq!(
            s.outputs, p.outputs,
            "{}: files diverged between --jobs 1 and --jobs 4",
            s.report.id
        );
    }

    // The full structured reports — rows, shapes, and the *exact*
    // engine counters (runs/events/heap pushes/coalesced steps) — must
    // serialize identically once wall clocks are zeroed.
    let sj = report_of(&seq.outputs, true).to_json().render();
    let pj = report_of(&par.outputs, true).to_json().render();
    assert_eq!(sj, pj, "ConformanceReport JSON diverged between job counts");

    // Scheduling self-metrics describe the runs truthfully.
    assert_eq!(seq.run.jobs, 1);
    assert_eq!(par.run.jobs, 4);
    assert_eq!(seq.run.units, par.run.units, "unit decomposition must not depend on jobs");
    assert!(par.run.peak_in_flight >= 1);
}

#[test]
fn repeated_parallel_runs_agree_with_each_other() {
    let a = run_registry(slice(), true, 4);
    let b = run_registry(slice(), true, 4);
    for (x, y) in a.outputs.iter().zip(&b.outputs) {
        assert_eq!(x.text, y.text, "{}: parallel run is not reproducible", x.report.id);
    }
    let aj = report_of(&a.outputs, true).to_json().render();
    let bj = report_of(&b.outputs, true).to_json().render();
    assert_eq!(aj, bj);
}
