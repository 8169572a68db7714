//! # scc-bench — the experiment harness
//!
//! Every table/figure of the paper lives in the typed
//! [`experiments`] registry (see DESIGN.md §4 for the index). One
//! binary, `observatory`, runs the registry (or `--only ids`) and
//! writes everything the run produced under `--artifact-dir`: each
//! experiment's classic text at `results/<id>.txt` (the committed
//! files), its forensic files, `BENCH_figures.json` and
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
//! | `trace`     | one recorded broadcast — Gantt, utilization, critical path |
//!
//! Every simulated broadcast the harness makes goes through one runner,
//! [`Scenario::run`]: a [`Run`] says how (cost parameters, fault plan,
//! recording, reliability policy, a barrier before every epoch, the
//! epochs), and the [`Outcome`] holds each core's call and return time
//! and recovery counters per epoch. Every core checks its bytes after
//! every epoch, and a wrong payload fails the run with an error naming
//! the core and the epoch — no experiment reports a number from a
//! broadcast that delivered the wrong data.
//!
//! Latency is defined exactly as in the paper (Sections 5.2/6.1): the
//! time from the source's call of the broadcast until the last core
//! returns, measured with globally comparable clocks after aligning
//! the cores on a barrier ([`Outcome::latency`]).

use oc_bcast::{Algorithm, Broadcaster, RelStats, Reliability, ReliableError};
use scc_hal::{CoreId, MemRange, Rma, RmaError, RmaResult, Time};
use scc_obs::ObsEvent;
use scc_rcce::{Barrier, MpbAllocator};
use scc_sim::{run_spmd, FaultPlan, SimConfig, SimError, SimParams, SimStats};
use std::ops::Range;

pub mod experiments;
pub mod pool;
pub mod runner;
pub use experiments::{registry, text_path, whatif_profile, ExpCtx, Experiment, Outputs, Sweep};
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

/// Measure broadcast latency of `lines` cache lines on the full chip:
/// `reps` timed epochs after `warmup` untimed ones, each after a
/// barrier; the result is the mean of [`Outcome::latency`] over the
/// timed epochs.
pub fn measure_bcast(
    alg: Algorithm,
    lines: usize,
    warmup: usize,
    reps: usize,
) -> Result<BcastTiming, SimError> {
    assert!(reps >= 1 && lines >= 1);
    let run = Run { aligned: true, epochs: 0..warmup + reps, ..Run::default() };
    let out = Scenario::new(alg, 48, lines).run(&run)?;
    let total_us: f64 = (warmup..warmup + reps).map(|e| out.latency(e).as_us_f64()).sum();
    let latency_us = total_us / reps as f64;
    Ok(BcastTiming { latency_us, throughput_mb_s: (lines * 32) as f64 / latency_us })
}

/// A core's set-up failure — an MPB layout that does not fit, an
/// algorithm without a reliable variant — as the error its closure
/// returns.
fn setup<T>(r: Result<T, impl std::fmt::Display>) -> RmaResult<T> {
    r.map_err(|e| RmaError::Engine(e.to_string()))
}

/// One concrete broadcast setup — the unit of measuring, recording,
/// diffing and what-if scanning. Core 0 is the root.
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

/// How a [`Scenario`] is run.
#[derive(Clone, Debug)]
pub struct Run {
    pub params: SimParams,
    pub faults: FaultPlan,
    /// Record the full event stream into [`Outcome::events`].
    pub record: bool,
    /// Flight-recorder window (see [`SimConfig::flight`]).
    pub flight: usize,
    /// Broadcast through the reliable variant of the algorithm under
    /// this policy; an algorithm without one fails the run with
    /// [`ReliableError`]'s message.
    pub policy: Option<Reliability>,
    /// A barrier before every epoch, allocated before the broadcaster.
    /// Only for fault-free runs: the plain barrier signals through
    /// exactly the remote flag puts a fault plan drops, so it would
    /// deadlock before the reliable protocol starts.
    pub aligned: bool,
    /// The epochs, back to back on one broadcast context; an epoch's id
    /// picks its payload.
    pub epochs: Range<usize>,
}

impl Default for Run {
    fn default() -> Run {
        let (params, faults) = (SimParams::default(), FaultPlan::default());
        Run { params, faults, record: false, flight: 0, policy: None, aligned: false, epochs: 0..1 }
    }
}

/// One core's view of one epoch.
#[derive(Debug)]
pub struct Epoch {
    /// When the core called the broadcast.
    pub call: Time,
    /// When the broadcast returned on the core.
    pub ret: Time,
    /// What the recovery machinery did during this epoch.
    pub rel: RelStats,
}

/// Everything a [`Scenario::run`] measured.
#[derive(Debug)]
pub struct Outcome {
    /// `cores[c][i]`: core `c` in the run's `i`-th epoch.
    pub cores: Vec<Vec<Epoch>>,
    pub stats: SimStats,
    /// The recorded stream or flight window, if the run kept one.
    pub events: Option<Vec<ObsEvent>>,
    pub makespan: Time,
}

impl Outcome {
    /// Broadcast latency of the `i`-th epoch as the paper defines it
    /// (Sections 5.2/6.1): the root's call until the last core returns.
    pub fn latency(&self, i: usize) -> Time {
        let call = self.cores[0][i].call;
        self.cores.iter().fold(call, |end, core| end.max(core[i].ret)) - call
    }

    /// Each destination's delivered latency in the `i`-th epoch: its
    /// return less the root's call, in core order.
    pub fn deliveries(&self, i: usize) -> impl Iterator<Item = Time> + '_ {
        let call = self.cores[0][i].call;
        self.cores[1..].iter().map(move |core| core[i].ret - call)
    }

    /// The stream and makespan of a recorded run.
    pub fn recorded(self) -> Result<(Vec<ObsEvent>, Time), SimError> {
        let missing = || SimError::Engine("a recorded run returned no stream".to_string());
        Ok((self.events.ok_or_else(missing)?, self.makespan))
    }
}

/// Epoch `epoch`'s payload, cut from `pattern` — the bytes `i % 251`
/// for `i` below the message length plus 251 — so that its byte `i` is
/// `(i + 17·epoch) mod 251`: epochs differ, and a stale buffer never
/// verifies.
fn payload(pattern: &[u8], epoch: usize) -> &[u8] {
    &pattern[17 * epoch % 251..][..pattern.len() - 251]
}

/// What is wrong with `core`'s private memory, read through `read`, if
/// it does not start with `want`, epoch `epoch`'s payload: the core, the
/// epoch and the first wrong byte.
fn check_payload(
    core: CoreId,
    epoch: usize,
    want: &[u8],
    mut read: impl FnMut(usize, &mut [u8]) -> RmaResult<()>,
) -> RmaResult<Option<String>> {
    let mut buf = [0; 4096];
    for (off, want) in (0..).step_by(buf.len()).zip(want.chunks(buf.len())) {
        let got = &mut buf[..want.len()];
        read(off, got)?;
        if got != want {
            let byte = off + got.iter().zip(want).take_while(|(g, w)| g == w).count();
            return Ok(Some(format!(
                "{core} holds a wrong payload after epoch {epoch} (byte {byte})"
            )));
        }
    }
    Ok(None)
}

/// The recovery work between two readings of a core's counters.
fn since(now: RelStats, before: RelStats) -> RelStats {
    RelStats {
        timeouts: now.timeouts - before.timeouts,
        probes: now.probes - before.probes,
        recoveries: now.recoveries - before.recoveries,
        renotifies: now.renotifies - before.renotifies,
    }
}

impl Scenario {
    pub fn new(alg: Algorithm, cores: usize, lines: usize) -> Scenario {
        Scenario { label: format!("{} {cores}c {lines}cl", alg.label()), alg, cores, lines }
    }

    /// The harness's one broadcast runner. Every epoch the root writes
    /// the epoch's payload, the cores meet at the barrier if the run is
    /// `aligned`, and all of them broadcast it on one shared context;
    /// then every core checks its bytes. A wrong payload anywhere makes
    /// the run an error naming the core and the epoch.
    pub fn run(&self, run: &Run) -> Result<Outcome, SimError> {
        let bytes = self.lines * 32;
        let cfg = SimConfig {
            num_cores: self.cores,
            mem_bytes: bytes,
            params: run.params,
            record: run.record,
            flight: run.flight,
            faults: run.faults.clone(),
            ..SimConfig::default()
        };
        let pattern: Vec<u8> = (0..bytes + 251).map(|i| (i % 251) as u8).collect();
        let (alg, policy, aligned, epochs) = (self.alg, run.policy, run.aligned, &run.epochs);
        let rep = run_spmd(&cfg, move |c| -> RmaResult<(Vec<Epoch>, Option<String>)> {
            let mut alloc = MpbAllocator::new();
            let n = c.num_cores();
            let mut bar = if aligned { Some(setup(Barrier::new(&mut alloc, n))?) } else { None };
            let b = match policy {
                None => Broadcaster::new(&mut alloc, alg, n).map_err(ReliableError::from),
                Some(policy) => Broadcaster::new_reliable(&mut alloc, alg, n, policy),
            };
            let mut b = setup(b)?;
            let (mut rel, mut wrong) = (RelStats::default(), None);
            let mut out = Vec::with_capacity(epochs.len());
            for e in epochs.clone() {
                let msg = payload(&pattern, e);
                if c.core() == CoreId(0) {
                    c.mem_write(0, msg)?;
                }
                if let Some(bar) = &mut bar {
                    bar.wait(c)?;
                }
                let call = c.now();
                b.bcast(c, CoreId(0), MemRange::new(0, bytes))?;
                let ret = c.now();
                let before = std::mem::replace(&mut rel, b.rel_stats());
                out.push(Epoch { call, ret, rel: since(rel, before) });
                // Private memory costs no simulated time. Keep going after
                // a wrong payload: a core that left early would deadlock
                // the others.
                let read = |off, buf: &mut [u8]| c.mem_read(off, buf);
                wrong = wrong.or(check_payload(c.core(), e, msg, read)?);
            }
            Ok((out, wrong))
        })?;
        let mut cores = Vec::with_capacity(self.cores);
        for r in rep.results {
            match r.map_err(|e| SimError::Engine(format!("core failed: {e}")))? {
                (_, Some(wrong)) => return Err(SimError::Engine(wrong)),
                (epochs, None) => cores.push(epochs),
            }
        }
        Ok(Outcome { cores, stats: rep.stats, events: rep.events, makespan: rep.makespan })
    }
}

/// Transfers hit by the harness's delay fault stall this long.
pub(crate) const FAULT_DELAY: Time = Time(5_000_000); // 5 µs

/// The harness's fault plan at one drop rate (`faults`, `soak`,
/// `audit`): remote notifications lost at `drop_ppm`, transfers delayed
/// [`FAULT_DELAY`] at half that rate.
pub(crate) fn fault_plan(drop_ppm: u32) -> FaultPlan {
    let (delay_ppm, delay) = (drop_ppm / 2, FAULT_DELAY);
    FaultPlan { drop_notification_ppm: drop_ppm, delay_ppm, delay, ..FaultPlan::default() }
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

/// Run one recorded broadcast of `sc` under `params` and return the
/// full event stream plus the makespan. The recorded stream is what
/// the diff/histogram/flamegraph layers consume.
pub fn record_run(sc: &Scenario, params: SimParams) -> Result<(Vec<ObsEvent>, Time), SimError> {
    sc.run(&Run { params, record: true, ..Run::default() })?.recorded()
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
        let t = measure_bcast(Algorithm::oc_default(), 1, 1, 2).unwrap();
        assert!(t.latency_us > 1.0 && t.latency_us < 100.0, "{t:?}");
        assert!((t.throughput_mb_s - 32.0 / t.latency_us).abs() < 1e-9);
        // Determinism: a second identical measurement agrees exactly.
        let t2 = measure_bcast(Algorithm::oc_default(), 1, 1, 2).unwrap();
        assert_eq!(t.latency_us, t2.latency_us);
    }

    #[test]
    fn sweep_is_monotone_in_size_for_oc() {
        let s = [1, 8, 64, 128].map(|m| measure_bcast(Algorithm::oc_default(), m, 0, 1).unwrap());
        for w in s.windows(2) {
            assert!(w[1].latency_us > w[0].latency_us);
        }
    }

    #[test]
    fn reliable_run_of_an_algorithm_without_a_reliable_variant_is_an_error() {
        for alg in [Algorithm::ScatterAllgather, Algorithm::RmaScatterAllgather] {
            let sc = Scenario::new(alg, 8, 4);
            let run = Run { policy: Some(policy()), record: true, ..Run::default() };
            let e = sc.run(&run).expect_err("no binomial stream under an s-ag label");
            assert!(e.to_string().contains("has no reliable variant"), "{e}");
        }
    }

    #[test]
    fn payload_differs_per_epoch() {
        let pattern: Vec<u8> = (0..100 + 251).map(|i| (i % 251) as u8).collect();
        let want = |e: usize| (0..100).map(|i| ((i + 17 * e) % 251) as u8).collect::<Vec<_>>();
        for e in [0, 1, 14, 15, 251, 1000] {
            assert_eq!(payload(&pattern, e), want(e), "epoch {e}");
        }
        assert_ne!(payload(&pattern, 0), payload(&pattern, 1));
    }

    #[test]
    fn a_core_holding_wrong_bytes_fails_the_run_naming_core_and_epoch() {
        // Core 1 after epoch 4 holds epoch 4's payload but for one stale
        // byte of epoch 3's, past the first 4 KiB.
        let pattern: Vec<u8> = (0..5000 + 251).map(|i| (i % 251) as u8).collect();
        let mut mem = payload(&pattern, 4).to_vec();
        let check = |mem: &[u8]| {
            let read = |off: usize, buf: &mut [u8]| {
                buf.copy_from_slice(&mem[off..off + buf.len()]);
                Ok(())
            };
            check_payload(CoreId(1), 4, payload(&pattern, 4), read).unwrap()
        };
        assert_eq!(check(&mem), None);
        mem[4097] = payload(&pattern, 3)[4097];
        let named = "C1 holds a wrong payload after epoch 4 (byte 4097)";
        assert_eq!(check(&mem).as_deref(), Some(named));
    }

    #[test]
    fn paper_algorithm_set() {
        let a = paper_algorithms(Algorithm::Binomial);
        assert_eq!(a.len(), 4);
        assert_eq!(a[1].label(), "k=7");
        assert_eq!(a[3].label(), "binomial");
    }
}
