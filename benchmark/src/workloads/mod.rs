//! The four workloads. Each is a closed loop of whole *units* run from
//! the one driver thread: the next unit starts when the previous one
//! has returned and been checked.
//!
//! A workload is built from the seed alone ([`setup`]): the seed draws
//! roots, payload bytes and the order of work within a unit, and the
//! program under test only ever sees those generated inputs (the
//! registry takes none, so `registry_slice` is the same for every seed).
//! Every
//! workload has a small fixed number of *distinct* units which the loop
//! cycles through, so the simulated numbers and exact counts of a run
//! are taken over one full cycle and do not depend on how many units
//! the host got through.

use crate::span::{SpanId, Tracer};
use scc_hal::Time;
use scc_sim::SimStats;

pub mod bcast;
pub mod record_analyze;
pub mod registry_slice;

/// Name and reason of every workload, in the order a full run uses.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "bcast_small",
        "latency regime: 18 separate 1-16 CL broadcasts per unit, so thread handoffs and run set-up dominate and the chip model does almost nothing",
    ),
    (
        "bcast_large",
        "throughput regime: four 768 CL broadcasts per unit, so event queue, calendars and chip model dominate; bypasses handoff work",
    ),
    (
        "record_analyze",
        "recording on: one recorded 96 CL broadcast then every scc-obs analysis, over 90 % of the time in the analysis stack",
    ),
    (
        "registry_slice",
        "what people run: ten full-mode registry experiments at jobs=1, checked against committed results and the CI baseline",
    ),
];

/// Simulated cores in every broadcast of the benchmark: the full chip.
pub const CORES: usize = 48;

/// SplitMix64: the benchmark's only source of randomness.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias at n ≤ 48 is below 2⁻⁵⁸).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&self.next_u64().to_le_bytes());
        }
        out.truncate(len);
        out
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// What the modelled chip did during one unit, summed over the unit's
/// own `run_spmd` calls. All of it is virtual time or exact counts.
/// `registry_slice` runs its simulations inside `scc-bench`, where the
/// per-run [`SimStats`] are not visible, and leaves the chip counters
/// at zero.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChipWork {
    /// Broadcasts whose makespan is summed in `makespan`.
    pub broadcasts: u64,
    pub makespan: Time,
    pub parks: u64,
    pub lines: u64,
    pub port_wait: Time,
    pub router_wait: Time,
    pub mc_wait: Time,
    pub port_busy: Time,
    /// `ObsEvent`s recorded (recording workloads only).
    pub obs_events: u64,
}

impl ChipWork {
    pub fn absorb(&mut self, o: &ChipWork) {
        self.broadcasts += o.broadcasts;
        self.makespan += o.makespan;
        self.parks += o.parks;
        self.lines += o.lines;
        self.port_wait += o.port_wait;
        self.router_wait += o.router_wait;
        self.mc_wait += o.mc_wait;
        self.port_busy += o.port_busy;
        self.obs_events += o.obs_events;
    }

    pub fn add_run(&mut self, makespan: Time, stats: &SimStats) {
        self.broadcasts += 1;
        self.makespan += makespan;
        self.parks += stats.parks;
        self.lines += stats.lines_moved;
        self.port_wait += stats.port_wait;
        self.router_wait += stats.router_wait;
        self.mc_wait += stats.mc_wait;
        self.port_busy += stats.port_busy;
    }
}

/// Result of one unit: what the chip did and everything that was wrong
/// with the unit's outputs (empty when the unit is correct).
#[derive(Debug, Default)]
pub struct UnitOutcome {
    pub chip: ChipWork,
    /// Bytes of emitted JSON the unit parsed back.
    pub json_bytes: u64,
    pub errors: Vec<String>,
}

/// How simulated makespans sit against `scc_model::Predictor` over a
/// workload's reference points. Virtual time on both sides: the two
/// numbers repeat exactly and do not depend on the seed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ModelFit {
    /// Mean |sim − model| ÷ |model|, percent.
    pub err_pct: f64,
    /// Mean sim ÷ model: rises whenever a reference point gets slower
    /// in simulated time, also when that brings it closer to the model.
    pub sim_rel: f64,
}

impl ModelFit {
    /// From (sim, model) pairs; `None` when there are none.
    pub fn of(pairs: &[(f64, f64)]) -> Option<ModelFit> {
        let mean = |f: &dyn Fn(f64, f64) -> f64| {
            pairs.iter().map(|&(sim, model)| f(sim, model)).sum::<f64>() / pairs.len() as f64
        };
        (!pairs.is_empty()).then(|| ModelFit {
            err_pct: 100.0 * mean(&|sim, model| (sim - model).abs() / model.abs()),
            sim_rel: mean(&|sim, model| sim / model),
        })
    }
}

pub trait Workload {
    /// Distinct units the loop cycles through.
    fn distinct_units(&self) -> usize;

    /// Run distinct unit `i` and check every output. Spans go under
    /// `unit` when tracing is on.
    fn run_unit(&mut self, i: usize, tr: &Tracer, unit: SpanId) -> UnitOutcome;

    /// The workload's reference points against the model.
    fn model_fit(&self) -> ModelFit;

    /// Message size the `core.*` probes use on this workload.
    fn probe_lines(&self) -> usize;
}

/// Everything before the timed loop: generate the inputs from `seed`,
/// run the reference simulations, warm the thread pool and caches with
/// a few untimed units. A warm-up unit that fails its checks fails
/// set-up.
pub fn setup(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    let (mut w, warmup): (Box<dyn Workload>, usize) = match name {
        "bcast_small" => (Box::new(bcast::Bcast::small(seed)?), 3),
        "bcast_large" => (Box::new(bcast::Bcast::large(seed)?), 3),
        "record_analyze" => (Box::new(record_analyze::RecordAnalyze::new(seed)?), 3),
        // One warm-up unit: a registry unit is seconds long.
        "registry_slice" => (Box::new(registry_slice::RegistrySlice::new()?), 1),
        other => {
            let known: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
            return Err(format!("unknown workload `{other}` (known: {})", known.join(", ")));
        }
    };
    let tr = Tracer::new();
    for i in 0..warmup {
        let out = w.run_unit(i % w.distinct_units(), &tr, SpanId::NONE);
        if let Some(e) = out.errors.first() {
            return Err(format!("warm-up unit {i}: {e}"));
        }
    }
    Ok(w)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_a_pure_function_of_the_seed() {
        let draw = |seed| {
            let mut r = Rng::new(seed);
            let mut order: Vec<usize> = (0..10).collect();
            r.shuffle(&mut order);
            (r.below(48), r.bytes(37), order)
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
        assert_eq!(draw(5).1.len(), 37);
    }

    #[test]
    fn model_fit_is_signed_where_the_error_is_not() {
        // One point 10 % above the model, one 25 % below.
        let fit = ModelFit::of(&[(11.0, 10.0), (3.0, 4.0)]).expect("two pairs");
        assert!((fit.err_pct - 17.5).abs() < 1e-12, "{}", fit.err_pct);
        assert_eq!(fit.sim_rel, (1.1 + 0.75) / 2.0);
        // The second point slows towards the model: the error improves,
        // the relative makespan gets worse.
        let slower = ModelFit::of(&[(11.0, 10.0), (3.5, 4.0)]).expect("two pairs");
        assert!(slower.err_pct < fit.err_pct && slower.sim_rel > fit.sim_rel);
        assert_eq!(ModelFit::of(&[]), None);
    }

    #[test]
    fn unknown_workload_is_an_error_naming_the_known_ones() {
        let e = setup("nope", 1).err().expect("unknown workload");
        assert!(e.contains("bcast_small") && e.contains("registry_slice"), "{e}");
    }
}
