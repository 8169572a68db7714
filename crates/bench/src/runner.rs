//! The parallel registry runner: two-level fan-out with a
//! deterministic merge.
//!
//! The observatory's work is a forest — independent experiments, each
//! an ordered list of independent sweep units. This module flattens the
//! *entire* forest into one task list for [`crate::pool::run_tasks`],
//! so a wide experiment's units and a narrow experiment's units share
//! the same worker threads (level 1: across experiments, level 2:
//! within one experiment). Unit outcomes come back in submission order;
//! each experiment's chunk is then assembled — unit metrics absorbed,
//! finalize run over the values in declaration order — on the calling
//! thread, in registry order. Because every unit's value is a
//! pure function of its configuration (the simulator is deterministic),
//! the merged output is byte-identical at any `--jobs` count.
//!
//! There is one path: at `jobs = 1` the pool runs the same task list
//! inline, in submission order, on the calling thread.

use crate::experiments::{assemble, Experiment, Outputs, Sweep};
use crate::pool::run_tasks;
use scc_obs::{ExperimentReport, RunMetrics};

/// One experiment's merged output, exactly what
/// [`run_experiment_full`] returns.
pub struct ExpOutput {
    pub report: ExperimentReport,
    pub text: String,
    pub outputs: Outputs,
}

/// Everything one registry execution produced: per-experiment outputs
/// in registry order, plus the run's own scheduling self-metrics.
pub struct RegistryRun {
    pub outputs: Vec<ExpOutput>,
    pub run: RunMetrics,
}

/// Run one experiment with `jobs` workers fanning out over its sweep
/// units. Returns the structured report, the classic text, and the
/// experiment's other outputs.
pub fn run_experiment_jobs(
    exp: &Experiment,
    quick: bool,
    jobs: usize,
) -> (ExperimentReport, String, Outputs) {
    let sweep = (exp.plan)(quick);
    let outcomes = run_tasks(jobs, sweep.tasks().collect());
    assemble(exp, quick, sweep, outcomes)
}

/// [`run_experiment_jobs`] on the calling thread (`jobs = 1`).
pub fn run_experiment_full(exp: &Experiment, quick: bool) -> (ExperimentReport, String, Outputs) {
    run_experiment_jobs(exp, quick, 1)
}

/// Run a whole registry slice with `jobs` workers shared across *all*
/// experiments' units, merging each experiment deterministically.
pub fn run_registry(reg: Vec<Experiment>, quick: bool, jobs: usize) -> RegistryRun {
    scc_sim::telemetry::reset_peak_in_flight();
    let wall = std::time::Instant::now();

    // Plan every experiment, then flatten all units into ONE task list
    // so workers drain the global longest-first queue — a heavyweight
    // fig8b unit can overlap fig3's many light ones.
    let sweeps: Vec<Sweep> = reg.iter().map(|exp| (exp.plan)(quick)).collect();
    let mut rest = run_tasks(jobs, sweeps.iter().flat_map(Sweep::tasks).collect()).into_iter();
    // Unzip the flat outcome list back into per-experiment chunks
    // (submission order == registry-then-declaration order) and
    // finalize each on this thread, in registry order.
    let outputs: Vec<ExpOutput> = reg
        .iter()
        .zip(sweeps)
        .map(|(exp, sweep)| {
            let outcomes = rest.by_ref().take(sweep.len()).collect();
            let (report, text, outputs) = assemble(exp, quick, sweep, outcomes);
            ExpOutput { report, text, outputs }
        })
        .collect();

    let wall_s = wall.elapsed().as_secs_f64();
    let run = RunMetrics {
        jobs: jobs as u64,
        units: outputs.iter().map(|o| o.report.metrics.units).sum(),
        wall_s,
        seq_s: outputs.iter().map(|o| o.report.metrics.wall_s).sum(),
        peak_in_flight: scc_sim::telemetry::peak_in_flight(),
    };
    RegistryRun { outputs, run }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slice(ids: &[&str]) -> Vec<Experiment> {
        crate::registry().into_iter().filter(|e| ids.contains(&e.id)).collect()
    }

    #[test]
    fn single_experiment_parallel_matches_sequential() {
        let reg = crate::registry();
        let exp = reg.iter().find(|e| e.id == "linkstress").unwrap();
        let (r1, t1, a1) = run_experiment_full(exp, true);
        let (r4, t4, a4) = run_experiment_jobs(exp, true, 4);
        assert_eq!(t1, t4, "linkstress text must be byte-identical at jobs=4");
        assert_eq!(a1, a4);
        assert_eq!(r1.rows.len(), r4.rows.len());
        for (a, b) in r1.rows.iter().zip(&r4.rows) {
            assert_eq!(a.point, b.point);
            assert_eq!(a.sim_measured, b.sim_measured, "{}", a.point);
        }
    }

    #[test]
    fn registry_run_reports_scheduling_metrics() {
        let out = run_registry(slice(&["fig5", "fig6"]), true, 2);
        assert_eq!(out.outputs.len(), 2);
        assert_eq!(out.run.jobs, 2);
        assert!(out.run.units >= 2);
        assert!(out.run.wall_s > 0.0 && out.run.seq_s > 0.0);
        assert_eq!(out.run.units, out.outputs.iter().map(|o| o.report.metrics.units).sum::<u64>());
    }
}
