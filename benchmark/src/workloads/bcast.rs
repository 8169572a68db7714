//! `bcast_small` and `bcast_large`: units of separate 48-core
//! broadcasts, one `run_spmd` each, payload checked at all 48 cores.
//!
//! Also home of [`sim_bcast`], the one place the benchmark drives a
//! broadcast through `scc_sim::run_spmd`; `record_analyze` and the
//! `core.*` probes reuse it.

use super::{ChipWork, ModelFit, Rng, UnitOutcome, Workload, CORES};
use crate::span::{SpanId, Tracer};
use oc_bcast::{Algorithm, Broadcaster};
use scc_hal::{CoreId, MemRange, Rma, RmaExt, Time, CACHE_LINE_BYTES};
use scc_model::Predictor;
use scc_obs::ObsEvent;
use scc_rcce::MpbAllocator;
use scc_sim::{run_spmd, SimConfig, SimStats};

/// Distinct units per seed the loop cycles through.
const DISTINCT_UNITS: usize = 8;

/// One broadcast: the generated input of one `run_spmd`.
#[derive(Clone, Debug, PartialEq)]
pub struct BcastSpec {
    pub alg: Algorithm,
    pub lines: usize,
    pub root: CoreId,
    pub payload: Vec<u8>,
}

impl BcastSpec {
    /// Seeded root and payload.
    pub fn draw(rng: &mut Rng, alg: Algorithm, lines: usize) -> BcastSpec {
        let root = CoreId(rng.below(CORES) as u8);
        BcastSpec { alg, lines, root, payload: rng.bytes(lines * CACHE_LINE_BYTES) }
    }

    /// The model's reference point: root 0, fixed payload.
    pub fn reference(alg: Algorithm, lines: usize) -> BcastSpec {
        let payload = (0..lines * CACHE_LINE_BYTES).map(|i| (i % 253) as u8).collect();
        BcastSpec { alg, lines, root: CoreId(0), payload }
    }
}

/// What the engine records during a run (`SimConfig::record` /
/// `SimConfig::flight`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Recording {
    Off,
    /// The full event stream.
    Full,
    /// The bounded flight-recorder ring of this capacity.
    Flight(usize),
}

pub struct BcastRun {
    pub makespan: Time,
    pub stats: SimStats,
    /// The recorded stream, when `record` was set.
    pub events: Option<Vec<ObsEvent>>,
}

/// Simulate one broadcast on the full chip and verify that every core
/// ends up with the root's payload. `span` names the span around the
/// `run_spmd` call; the per-core `core.broadcaster_new` / `core.bcast`
/// spans go under it.
pub fn sim_bcast(
    spec: &BcastSpec,
    rec: Recording,
    tr: &Tracer,
    span: &'static str,
    parent: SpanId,
) -> Result<BcastRun, String> {
    // 256 KB of private memory per core holds the largest message
    // (768 CL = 24 KB) and keeps chip construction cheap.
    let (record, flight) = match rec {
        Recording::Off => (false, 0),
        Recording::Full => (true, 0),
        Recording::Flight(capacity) => (false, capacity),
    };
    let cfg =
        SimConfig { num_cores: CORES, mem_bytes: 1 << 18, record, flight, ..SimConfig::default() };
    let (alg, root) = (spec.alg, spec.root);
    let payload = &spec.payload;
    let range = MemRange::new(0, payload.len());
    let run = tr.begin(span, "", parent);
    let rep = run_spmd(&cfg, |c| -> Result<bool, String> {
        let s = tr.begin("core.broadcaster_new", "", run);
        let mut alloc = MpbAllocator::new();
        let b = Broadcaster::new(&mut alloc, alg, CORES);
        tr.end(s);
        let mut b = b.map_err(|e| format!("{e:?}"))?;
        if c.core() == root {
            c.mem_write(0, payload).map_err(|e| format!("{e:?}"))?;
        }
        let s = tr.begin("core.bcast", "", run);
        let done = b.bcast(c, root, range);
        tr.end(s);
        done.map_err(|e| format!("{e:?}"))?;
        Ok(c.mem_to_vec(range).map_err(|e| format!("{e:?}"))? == *payload)
    });
    tr.end(run);
    let rep = rep.map_err(|e| e.to_string())?;
    for (core, r) in rep.results.iter().enumerate() {
        match r {
            Ok(true) => {}
            Ok(false) => return Err(format!("core {core} holds a wrong payload")),
            Err(e) => return Err(format!("core {core}: {e}")),
        }
    }
    Ok(BcastRun { makespan: rep.makespan, stats: rep.stats, events: rep.events })
}

/// Run `specs` in order, collecting chip work and errors.
pub fn run_specs(specs: &[BcastSpec], tr: &Tracer, unit: SpanId) -> UnitOutcome {
    let mut out = UnitOutcome::default();
    for spec in specs {
        match sim_bcast(spec, Recording::Off, tr, "sim.run_spmd", unit) {
            Ok(run) => out.chip.add_run(run.makespan, &run.stats),
            Err(e) => out.errors.push(format!(
                "{} {} CL root {}: {e}",
                spec.alg.label(),
                spec.lines,
                spec.root.0
            )),
        }
    }
    out
}

/// The model's latency for a root-0 broadcast, where it has one.
pub fn model_latency_us(alg: Algorithm, lines: usize) -> Option<f64> {
    let p = Predictor::paper();
    match alg {
        Algorithm::OcBcast(cfg) => Some(p.oc_latency_us(CORES, lines, cfg.k)),
        Algorithm::Binomial => Some(p.binomial_latency_us(CORES, lines)),
        Algorithm::ScatterAllgather | Algorithm::RmaScatterAllgather => None,
    }
}

/// Simulate the root-0 reference broadcast of every point the model
/// covers and set the makespans against the model's predictions.
pub fn model_fit(points: &[(Algorithm, usize)]) -> Result<ModelFit, String> {
    let mut pairs = Vec::new();
    for &(alg, lines) in points {
        let Some(model) = model_latency_us(alg, lines) else { continue };
        let spec = BcastSpec::reference(alg, lines);
        let sim = sim_bcast(&spec, Recording::Off, &Tracer::new(), "sim.run_spmd", SpanId::NONE)?;
        pairs.push((sim.makespan.as_us_f64(), model));
    }
    ModelFit::of(&pairs).ok_or("no reference point the model covers".to_string())
}

/// The seeded unit list: each unit holds every point `roots` times
/// with its own root and payload, in a seeded order.
pub fn generate(seed: u64, points: &[(Algorithm, usize)], roots: usize) -> Vec<Vec<BcastSpec>> {
    let mut rng = Rng::new(seed);
    (0..DISTINCT_UNITS)
        .map(|_| {
            let mut unit: Vec<BcastSpec> = points
                .iter()
                .flat_map(|&(alg, lines)| std::iter::repeat_n((alg, lines), roots))
                .map(|(alg, lines)| BcastSpec::draw(&mut rng, alg, lines))
                .collect();
            rng.shuffle(&mut unit);
            unit
        })
        .collect()
}

pub struct Bcast {
    units: Vec<Vec<BcastSpec>>,
    model_fit: ModelFit,
    probe_lines: usize,
}

impl Bcast {
    fn new(
        seed: u64,
        points: &[(Algorithm, usize)],
        roots: usize,
        probe_lines: usize,
    ) -> Result<Bcast, String> {
        Ok(Bcast {
            units: generate(seed, points, roots),
            model_fit: model_fit(points)?,
            probe_lines,
        })
    }

    /// {OC k=7, OC k=47, binomial} × {1, 4, 16 CL} × 2 seeded roots.
    pub fn small(seed: u64) -> Result<Bcast, String> {
        let algs = [Algorithm::oc_with_k(7), Algorithm::oc_with_k(47), Algorithm::Binomial];
        let points: Vec<_> = algs.iter().flat_map(|&a| [1, 4, 16].map(|m| (a, m))).collect();
        Bcast::new(seed, &points, 2, 4)
    }

    /// {OC k=2, k=7, k=47, binomial} at 768 CL, one seeded root each.
    /// Scatter-allgather is left out on purpose: its ~21 k handoffs at
    /// any size would turn this into a second handoff workload.
    pub fn large(seed: u64) -> Result<Bcast, String> {
        let points: Vec<_> = scc_bench::paper_algorithms(Algorithm::Binomial)
            .into_iter()
            .map(|a| (a, 768))
            .collect();
        Bcast::new(seed, &points, 1, 768)
    }
}

impl Workload for Bcast {
    fn distinct_units(&self) -> usize {
        self.units.len()
    }

    fn run_unit(&mut self, i: usize, tr: &Tracer, unit: SpanId) -> UnitOutcome {
        run_specs(&self.units[i], tr, unit)
    }

    fn model_fit(&self) -> ModelFit {
        self.model_fit
    }

    fn probe_lines(&self) -> usize {
        self.probe_lines
    }
}

/// Chip work of one run on its own (probes and `record_analyze`).
pub fn chip_work(run: &BcastRun) -> ChipWork {
    let mut w = ChipWork::default();
    w.add_run(run.makespan, &run.stats);
    w.obs_events = run.events.as_ref().map_or(0, |e| e.len() as u64);
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_points() -> Vec<(Algorithm, usize)> {
        vec![(Algorithm::oc_with_k(7), 1), (Algorithm::Binomial, 4)]
    }

    #[test]
    fn the_unit_list_is_a_pure_function_of_the_seed() {
        let a = generate(42, &small_points(), 2);
        assert_eq!(a, generate(42, &small_points(), 2));
        assert_ne!(a, generate(43, &small_points(), 2));
        assert_eq!(a.len(), DISTINCT_UNITS);
        for unit in &a {
            assert_eq!(unit.len(), 4, "every point, twice");
            assert!(unit.iter().all(|s| s.payload.len() == s.lines * CACHE_LINE_BYTES));
            assert!(unit.iter().all(|s| (s.root.0 as usize) < CORES));
        }
    }

    #[test]
    fn same_seed_gives_the_same_simulated_numbers() {
        let units = generate(7, &small_points(), 1);
        let tr = Tracer::new();
        let a = run_specs(&units[0], &tr, SpanId::NONE);
        let b = run_specs(&units[0], &tr, SpanId::NONE);
        assert!(a.errors.is_empty(), "{:?}", a.errors);
        assert_eq!(a.chip, b.chip);
        assert_eq!(a.chip.broadcasts, 2);
        assert!(a.chip.makespan > Time::ZERO);
    }

    #[test]
    fn a_failing_broadcast_is_an_error_not_a_panic() {
        // 9000 CL do not fit the 256 KB of private memory: the root is
        // refused and the run ends in an error (its own or a deadlock).
        let spec = BcastSpec::reference(Algorithm::Binomial, 9000);
        let e =
            sim_bcast(&spec, Recording::Off, &Tracer::new(), "sim.run_spmd", SpanId::NONE).err();
        let e = e.expect("an error");
        assert!(e.contains("deadlock") || e.contains("core 0"), "{e}");
    }

    #[test]
    fn traced_run_nests_per_core_spans_under_the_run() {
        let tr = Tracer::new();
        tr.set_on(true);
        let unit = tr.begin("unit", "", SpanId::NONE);
        let spec = BcastSpec::reference(Algorithm::oc_with_k(7), 1);
        sim_bcast(&spec, Recording::Off, &tr, "sim.run_spmd", unit).expect("broadcast");
        tr.end(unit);
        let spans = tr.take();
        let run = spans.iter().position(|s| s.name == "sim.run_spmd").expect("run span");
        let per_core = |name| spans.iter().filter(|s| s.name == name).count();
        assert_eq!(per_core("core.bcast"), CORES);
        assert_eq!(per_core("core.broadcaster_new"), CORES);
        assert!(spans
            .iter()
            .filter(|s| s.name.starts_with("core."))
            .all(|s| s.parent.index() == Some(run)));
    }
}
