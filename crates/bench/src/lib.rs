//! # scc-bench — the experiment harness
//!
//! Every table/figure of the paper lives in the typed
//! [`experiments`] registry (see DESIGN.md §4 for the index). One
//! binary, `observatory`, runs the registry (or `--only ids`) and
//! writes everything the run produced under `--artifact-dir`: each
//! experiment's classic text at `results/<id>.txt` (the committed
//! files), its sidecars, `BENCH_figures.json` and
//! `results/CONFORMANCE.md`. Reproducing the committed results is
//! `observatory --artifact-dir DIR` followed by `diff -r`.
//!
//! An experiment is a [`Sweep`]: its measurement points, declared once
//! and typed, one unit each; units return data or an error (a failed
//! unit is a failed shape check, not a panic), and one finalize step
//! turns every `(point, value)` pair into all of the experiment's
//! output. [`runner`] fans the units of every selected experiment out
//! over `--jobs` host threads.
//!
//! | id          | reproduces                                    |
//! |-------------|-----------------------------------------------|
//! | `table1`    | Table 1 — fitted model parameters             |
//! | `fig3`      | Figure 3 — put/get completion vs distance     |
//! | `fig4`      | Figure 4 — MPB contention                     |
//! | `fig5`      | Figure 5 — propagation & notification trees   |
//! | `fig6`      | Figure 6 — modeled broadcast latency          |
//! | `table2`    | Table 2 — modeled peak throughput             |
//! | `fig8a`     | Figure 8a — measured broadcast latency        |
//! | `fig8b`     | Figure 8b — measured broadcast throughput     |
//! | `linkstress`| Section 3.3 — mesh link stress                |
//! | `ablation`  | design-choice ablations (DESIGN.md)           |
//! | `heatmap`   | Section 5 — per-link mesh occupancy (obs)     |
//! | `whatif`    | causal what-if profiles — cost-class sensitivity |
//! | `skew`      | message journeys — delivery skew & stragglers (obs) |
//! | `faults`    | reliable broadcast — degradation under injected faults |
//! | `tune`      | configuration-space sweep — best (k, M_oc, fan-out, tree) |
//! | `soak`      | sustained reliable traffic under SLO watchdogs |
//! | `audit`     | causal trace audit of recorded runs            |
//!
//! Latency is defined exactly as in the paper (Sections 5.2/6.1): the
//! time from the source's call of the broadcast until the last core
//! returns, measured with globally comparable clocks after aligning
//! the cores on a barrier.

use oc_bcast::{Algorithm, Broadcaster, Reliability, ReliableError};
use scc_hal::{CoreId, MemRange, Rma, RmaError, RmaResult, Time};
use scc_obs::{CostClass, ObsEvent, WhatIfPoint, WhatIfProfile};
use scc_rcce::{Barrier, MpbAllocator};
use scc_sim::{run_spmd, FaultPlan, SimConfig, SimError, SimParams};

pub mod experiments;
pub mod pool;
pub mod runner;
pub use experiments::{registry, text_path, whatif_artifact, ExpCtx, Experiment, Outputs, Sweep};
pub use runner::{run_experiment_full, run_experiment_jobs, run_registry, ExpOutput, RegistryRun};

/// Default simulator configuration for the paper's experiments: the
/// full 48-core chip.
pub fn paper_chip() -> SimConfig {
    SimConfig { num_cores: 48, mem_bytes: 4 << 20, ..SimConfig::default() }
}

/// Result of one latency measurement series.
#[derive(Clone, Debug)]
pub struct BcastTiming {
    /// Mean broadcast latency in microseconds.
    pub latency_us: f64,
    /// Corresponding throughput in MB/s (bytes per microsecond).
    pub throughput_mb_s: f64,
}

/// Measure broadcast latency on the simulator: `reps` timed broadcasts
/// (after `warmup` untimed ones), each preceded by a barrier; latency
/// of one repetition is `max_core(return time) − source(call time)`.
pub fn measure_bcast(
    cfg: &SimConfig,
    alg: Algorithm,
    root: CoreId,
    bytes: usize,
    warmup: usize,
    reps: usize,
) -> Result<BcastTiming, SimError> {
    assert!(reps >= 1 && bytes >= 1);
    let rep = run_spmd(cfg, move |c| -> RmaResult<(Vec<Time>, Vec<Time>)> {
        let mut alloc = MpbAllocator::new();
        let mut bar = setup(Barrier::new(&mut alloc, c.num_cores()))?;
        let mut b = setup(Broadcaster::new(&mut alloc, alg, c.num_cores()))?;
        let r = MemRange::new(0, bytes);
        if c.core() == root {
            // Deterministic payload so receivers could verify.
            let payload: Vec<u8> = (0..bytes).map(|i| (i % 253) as u8).collect();
            c.mem_write(0, &payload)?;
        }
        let mut starts = Vec::with_capacity(reps);
        let mut ends = Vec::with_capacity(reps);
        for it in 0..warmup + reps {
            bar.wait(c)?;
            let t0 = c.now();
            b.bcast(c, root, r)?;
            if it >= warmup {
                starts.push(t0);
                ends.push(c.now());
            }
        }
        Ok((starts, ends))
    })?;
    let per_core = core_results(rep.results)?;
    let mut total_us = 0.0;
    for i in 0..reps {
        let start = per_core[root.index()].0[i];
        // The root's own end is one of the ends, so folding from its
        // start takes the latest end.
        let end = per_core.iter().fold(start, |end, (_, e)| end.max(e[i]));
        total_us += (end - start).as_us_f64();
    }
    let latency_us = total_us / reps as f64;
    Ok(BcastTiming { latency_us, throughput_mb_s: bytes as f64 / latency_us })
}

/// Every core's result, or the first core's failure as the run's error.
pub(crate) fn core_results<T>(results: Vec<RmaResult<T>>) -> Result<Vec<T>, SimError> {
    results
        .into_iter()
        .map(|r| r.map_err(|e| SimError::Engine(format!("core failed: {e}"))))
        .collect()
}

/// A core's set-up failure — an MPB layout that does not fit, an
/// algorithm without a reliable variant — as the error its closure
/// returns.
pub(crate) fn setup<T>(r: Result<T, impl std::fmt::Display>) -> RmaResult<T> {
    r.map_err(|e| RmaError::Engine(e.to_string()))
}

/// One concrete broadcast setup the drift explainer can re-run: the
/// unit of recording, diffing, and what-if scanning.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Stable label used in reports and flamegraph root frames,
    /// e.g. `"ocbcast k=47 48c 96cl"`.
    pub label: String,
    pub alg: Algorithm,
    pub cores: usize,
    /// Message size in cache lines.
    pub lines: usize,
}

impl Scenario {
    pub fn new(alg: Algorithm, cores: usize, lines: usize) -> Scenario {
        Scenario { label: format!("{} {cores}c {lines}cl", alg.label()), alg, cores, lines }
    }

    fn config(&self, params: SimParams, record: bool) -> SimConfig {
        SimConfig {
            num_cores: self.cores,
            mem_bytes: ((self.lines * 32).next_power_of_two()).max(1 << 20),
            params,
            record,
            ..SimConfig::default()
        }
    }
}

/// The scenario the drift explainer re-runs to explain a drifted
/// experiment: cheap (one broadcast), representative of what the
/// experiment stresses. Experiments with no broadcast behind them
/// (pure-model tables) map to the default mid-size OC-Bcast.
pub fn representative_scenario(experiment_id: &str) -> Scenario {
    match experiment_id {
        // Contention experiments: the flat tree saturates the root port.
        "fig4" | "linkstress" | "heatmap" => Scenario::new(Algorithm::oc_with_k(47), 48, 96),
        // Latency experiments at small size: binomial at one line is the
        // latency-bound extreme the paper contrasts against.
        "fig5" => Scenario::new(Algorithm::Binomial, 48, 1),
        // Throughput experiments: large-message OC-Bcast.
        "fig8b" | "table2" => Scenario::new(Algorithm::oc_with_k(7), 48, 256),
        // Everything else: the paper's default operating point.
        _ => Scenario::new(Algorithm::oc_with_k(7), 48, 96),
    }
}

/// The reliability policy of every reliable run the harness makes
/// (`faults`, `soak`, `audit` and their tests):
/// [`Reliability::standard`] with the timeout raised above the longest
/// *legitimate* fault-free wait — the reliable binomial's deepest rank
/// waits ~450 µs for its first line at 96 cache lines on 48 cores.
/// Under that bound the policy fires on healthy waits (the full fault
/// sweep showed 42 spurious timeouts at rate 0); above it, every
/// timeout a report shows is fault-caused, which is what the fault-free
/// shape checks pin.
pub fn policy() -> Reliability {
    Reliability { timeout: Time::from_us_f64(600.0), ..Reliability::standard() }
}

/// The one SPMD body behind the three scenario runners: core 0 holds
/// the deterministic payload and broadcasts it, plainly or — under a
/// `policy` — through the reliable variant of `sc.alg`; an algorithm
/// without one fails the run with [`ReliableError`]'s message.
/// Deliberately no barrier before the broadcast: the plain barrier
/// signals through exactly the remote flag puts a fault plan drops, so
/// it would deadlock before the reliable protocol starts.
fn run_scenario(
    sc: &Scenario,
    cfg: SimConfig,
    policy: Option<Reliability>,
) -> Result<(Option<Vec<ObsEvent>>, Time), SimError> {
    let (alg, bytes) = (sc.alg, sc.lines * 32);
    let rep = run_spmd(&cfg, move |c| -> RmaResult<()> {
        let mut alloc = MpbAllocator::new();
        let r = MemRange::new(0, bytes);
        if c.core() == CoreId(0) {
            let payload: Vec<u8> = (0..bytes).map(|i| (i % 253) as u8).collect();
            c.mem_write(0, &payload)?;
        }
        let b = match policy {
            None => Broadcaster::new(&mut alloc, alg, c.num_cores()).map_err(ReliableError::from),
            Some(policy) => Broadcaster::new_reliable(&mut alloc, alg, c.num_cores(), policy),
        };
        setup(b)?.bcast(c, CoreId(0), r)
    })?;
    core_results(rep.results)?;
    Ok((rep.events, rep.makespan))
}

/// The stream of a run made with recording on.
fn recorded(events: Option<Vec<ObsEvent>>) -> Result<Vec<ObsEvent>, SimError> {
    events.ok_or_else(|| SimError::Engine("a recorded run returned no stream".to_string()))
}

/// Run one recorded broadcast of `sc` under `params` and return the
/// full event stream plus the makespan. The recorded stream is what
/// the diff/histogram/flamegraph layers consume.
pub fn record_run(sc: &Scenario, params: SimParams) -> Result<(Vec<ObsEvent>, Time), SimError> {
    let (events, makespan) = run_scenario(sc, sc.config(params, true), None)?;
    Ok((recorded(events)?, makespan))
}

/// Run one recorded *reliable* broadcast of `sc` under `policy` and an
/// optional fault plan, returning the full event stream plus the
/// makespan — the raw material of the causal audit's reliable and
/// faulted scenarios.
pub fn record_reliable_run(
    sc: &Scenario,
    params: SimParams,
    faults: FaultPlan,
    policy: Reliability,
) -> Result<(Vec<ObsEvent>, Time), SimError> {
    let cfg = SimConfig { faults, ..sc.config(params, true) };
    let (events, makespan) = run_scenario(sc, cfg, Some(policy))?;
    Ok((recorded(events)?, makespan))
}

/// Makespan of one unrecorded broadcast of `sc` under `params` — the
/// cheap measurement the what-if scan repeats per (class, factor).
pub fn measure_scenario(sc: &Scenario, params: SimParams) -> Result<Time, SimError> {
    run_scenario(sc, sc.config(params, false), None).map(|(_, makespan)| makespan)
}

/// Causal what-if scan of `sc`: rerun it with every [`CostClass`]
/// scaled by each of `factors` and collect the sensitivities.
pub fn whatif_profile(sc: &Scenario, factors: &[f64]) -> Result<WhatIfProfile, SimError> {
    let base = SimParams::default();
    let nominal = measure_scenario(sc, base)?;
    let mut points = Vec::with_capacity(CostClass::ALL.len() * factors.len());
    for class in CostClass::ALL {
        for &factor in factors {
            let makespan = measure_scenario(sc, base.scaled(class, factor))?;
            points.push(WhatIfPoint { class, factor, makespan });
        }
    }
    Ok(WhatIfProfile { scenario: sc.label.clone(), nominal, points })
}

/// The algorithm set of Figures 6/8: OC-Bcast k ∈ {2, 7, 47} plus one
/// baseline.
pub fn paper_algorithms(baseline: Algorithm) -> Vec<Algorithm> {
    vec![Algorithm::oc_with_k(2), Algorithm::oc_with_k(7), Algorithm::oc_with_k(47), baseline]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_bcast_produces_consistent_numbers() {
        let cfg = SimConfig { num_cores: 8, mem_bytes: 1 << 16, ..SimConfig::default() };
        let t = measure_bcast(&cfg, Algorithm::oc_default(), CoreId(0), 32, 1, 2).unwrap();
        assert!(t.latency_us > 1.0 && t.latency_us < 100.0, "{t:?}");
        assert!((t.throughput_mb_s - 32.0 / t.latency_us).abs() < 1e-9);
        // Determinism: a second identical measurement agrees exactly.
        let t2 = measure_bcast(&cfg, Algorithm::oc_default(), CoreId(0), 32, 1, 2).unwrap();
        assert_eq!(t.latency_us, t2.latency_us);
    }

    #[test]
    fn sweep_is_monotone_in_size_for_oc() {
        let cfg = SimConfig { num_cores: 8, mem_bytes: 1 << 18, ..SimConfig::default() };
        let s = [1, 8, 64, 128].map(|m| {
            measure_bcast(&cfg, Algorithm::oc_default(), CoreId(0), m * 32, 0, 1).unwrap()
        });
        for w in s.windows(2) {
            assert!(w[1].latency_us > w[0].latency_us);
        }
    }

    #[test]
    fn reliable_run_of_an_algorithm_without_a_reliable_variant_is_an_error() {
        for alg in [Algorithm::ScatterAllgather, Algorithm::RmaScatterAllgather] {
            let sc = Scenario::new(alg, 8, 4);
            let e = record_reliable_run(&sc, SimParams::default(), FaultPlan::default(), policy())
                .expect_err("no binomial stream under an s-ag label");
            assert!(e.to_string().contains("has no reliable variant"), "{e}");
        }
    }

    #[test]
    fn paper_algorithm_set() {
        let a = paper_algorithms(Algorithm::Binomial);
        assert_eq!(a.len(), 4);
        assert_eq!(a[1].label(), "k=7");
        assert_eq!(a[3].label(), "binomial");
    }
}
