//! `record_analyze`: the engine used the other way round. One recorded
//! OC-Bcast k=7, 48 cores, 96 CL broadcast (≈ 100 k `ObsEvent`s for
//! ≈ 10 k simulated events), then every post-hoc analysis `scc-obs`
//! offers, in a seeded order. Over 90 % of a unit is analysis, so a
//! faster unrecorded engine path that taxes recording shows here.

use super::bcast::{chip_work, model_fit, sim_bcast, BcastSpec, Recording};
use super::{ModelFit, Rng, UnitOutcome, Workload};
use crate::span::{SpanId, Tracer};
use oc_bcast::Algorithm;
use scc_hal::Time;
use scc_obs::{
    audit, chrome_trace_json, critical_path, flamegraph_collapsed, AuditSpec, CausalGraph,
    CongestionMovie, JourneyBook, Json, ObsEvent, PhaseProfile, RunHistograms, UtilizationSeries,
};
use std::hint::black_box;

const LINES: usize = 96;
const DISTINCT_UNITS: usize = 8;
const MOVIE_FRAMES: usize = 8;
const UTIL_BUCKETS: usize = 64;

fn alg() -> Algorithm {
    Algorithm::oc_with_k(7)
}

/// One post-hoc analysis of a recorded stream; its span is
/// `obs.<name>`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Analysis {
    CriticalPath,
    PhaseProfile,
    JourneyBook,
    CausalGraph,
    Audit,
    Hist,
    /// `chrome_trace_json`, then `Json::parse` of that trace.
    ChromeAndParse,
    Flame,
    Movie,
    UtilSeries,
}

impl Analysis {
    pub const ALL: [Analysis; 10] = [
        Analysis::CriticalPath,
        Analysis::PhaseProfile,
        Analysis::JourneyBook,
        Analysis::CausalGraph,
        Analysis::Audit,
        Analysis::Hist,
        Analysis::ChromeAndParse,
        Analysis::Flame,
        Analysis::Movie,
        Analysis::UtilSeries,
    ];

    /// Run the analysis and check what it returns, all of it under the
    /// analysis' span: building, checking and dropping the result are
    /// the analysis' cost, not the harness'. Returns the bytes of JSON
    /// it re-parsed (zero for all but one).
    fn run(
        self,
        events: &[ObsEvent],
        makespan: Time,
        tr: &Tracer,
        unit: SpanId,
    ) -> Result<usize, String> {
        let span = |name, body: &dyn Fn() -> Result<usize, String>| tr.span(name, "", unit, body);
        match self {
            Analysis::CriticalPath => span("obs.critical_path", &|| {
                let cp = critical_path(events).map_err(|e| format!("critical_path: {e:?}"))?;
                if cp.total() != makespan {
                    return Err(format!("critical path {} != makespan {makespan}", cp.total()));
                }
                Ok(0)
            }),
            Analysis::PhaseProfile => span("obs.phase_profile", &|| {
                black_box(
                    PhaseProfile::build(events).map_err(|e| format!("phase profile: {e:?}"))?,
                );
                Ok(0)
            }),
            Analysis::JourneyBook => span("obs.journey_book", &|| {
                // One delivery window per core, the root's included.
                match JourneyBook::from_events(events).journeys.len() {
                    super::CORES => Ok(0),
                    n => Err(format!("{n} journeys, expected 48")),
                }
            }),
            Analysis::CausalGraph => span("obs.causal_graph", &|| {
                CausalGraph::build(events).acyclic().map_err(|cycle| {
                    format!("causal graph: cycle through {} events", cycle.len())
                })?;
                Ok(0)
            }),
            Analysis::Audit => span("obs.audit", &|| {
                let rep = audit(events, &AuditSpec::plain().with_makespan(makespan));
                if !rep.ok() || rep.checked() == 0 {
                    return Err(format!("audit: {}", rep.summary()));
                }
                Ok(0)
            }),
            Analysis::Hist => span("obs.hist", &|| {
                black_box(RunHistograms::build(events));
                Ok(0)
            }),
            Analysis::ChromeAndParse => {
                let doc = tr.span("obs.chrome_json", "", unit, || chrome_trace_json(events));
                span("obs.json_parse", &|| {
                    black_box(Json::parse(&doc).map_err(|e| format!("chrome trace: {e}"))?);
                    Ok(doc.len())
                })
            }
            Analysis::Flame => {
                span("obs.flame", &|| match flamegraph_collapsed(events, "record_analyze")
                    .is_empty()
                {
                    true => Err("empty flamegraph".to_string()),
                    false => Ok(0),
                })
            }
            Analysis::Movie => {
                span("obs.movie", &|| match CongestionMovie::from_events(events, MOVIE_FRAMES)
                    .num_frames()
                {
                    MOVIE_FRAMES => Ok(0),
                    n => Err(format!("movie has {n} frames")),
                })
            }
            Analysis::UtilSeries => span("obs.util_series", &|| {
                black_box(UtilizationSeries::build(events, makespan, UTIL_BUCKETS));
                Ok(0)
            }),
        }
    }
}

pub struct RecordAnalyze {
    units: Vec<(BcastSpec, Vec<Analysis>)>,
    model_fit: ModelFit,
}

/// The seeded unit list: a root, a payload and an analysis order each.
pub fn generate(seed: u64) -> Vec<(BcastSpec, Vec<Analysis>)> {
    let mut rng = Rng::new(seed);
    (0..DISTINCT_UNITS)
        .map(|_| {
            let spec = BcastSpec::draw(&mut rng, alg(), LINES);
            let mut order = Analysis::ALL.to_vec();
            rng.shuffle(&mut order);
            (spec, order)
        })
        .collect()
}

impl RecordAnalyze {
    pub fn new(seed: u64) -> Result<RecordAnalyze, String> {
        Ok(RecordAnalyze { units: generate(seed), model_fit: model_fit(&[(alg(), LINES)])? })
    }
}

impl Workload for RecordAnalyze {
    fn distinct_units(&self) -> usize {
        self.units.len()
    }

    fn run_unit(&mut self, i: usize, tr: &Tracer, unit: SpanId) -> UnitOutcome {
        let (spec, order) = &self.units[i];
        let mut out = UnitOutcome::default();
        let run = match sim_bcast(spec, Recording::Full, tr, "sim.record_run", unit) {
            Ok(run) => run,
            Err(e) => {
                out.errors.push(format!("recorded broadcast: {e}"));
                return out;
            }
        };
        out.chip = chip_work(&run);
        let events = run.events.as_deref().unwrap_or_default();
        if events.is_empty() {
            out.errors.push("recording was on but no events came back".to_string());
        }
        for a in order {
            match a.run(events, run.makespan, tr, unit) {
                Ok(bytes) => out.json_bytes += bytes as u64,
                Err(e) => out.errors.push(e),
            }
        }
        out
    }

    fn model_fit(&self) -> ModelFit {
        self.model_fit
    }

    fn probe_lines(&self) -> usize {
        LINES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_unit_list_is_a_pure_function_of_the_seed() {
        assert_eq!(generate(9), generate(9));
        assert_ne!(generate(9), generate(10));
        for (spec, order) in generate(9) {
            assert_eq!(spec.lines, LINES);
            let mut sorted = order.clone();
            sorted.sort_by_key(|a| Analysis::ALL.iter().position(|b| a == b));
            assert_eq!(sorted, Analysis::ALL, "every analysis exactly once");
        }
    }

    #[test]
    fn a_unit_passes_its_checks_and_is_mostly_analysis() {
        let mut w = RecordAnalyze::new(3).expect("setup");
        let tr = Tracer::new();
        tr.set_on(true);
        let unit = tr.begin("unit", "", SpanId::NONE);
        let out = w.run_unit(0, &tr, unit);
        tr.end(unit);
        assert!(out.errors.is_empty(), "{:?}", out.errors);
        assert!(out.chip.obs_events > 10_000, "{} events", out.chip.obs_events);
        assert!(out.json_bytes > 0);
        let layers = crate::span::layer_times(&tr.take());
        assert!(layers["obs"] > layers["sim"] + layers["core"], "{layers:?}");
    }

    #[test]
    fn a_corrupted_stream_fails_the_checks() {
        let spec = BcastSpec::reference(alg(), 4);
        let run = sim_bcast(&spec, Recording::Full, &Tracer::new(), "sim.record_run", SpanId::NONE)
            .expect("run");
        let events = run.events.expect("recorded");
        let tr = Tracer::new();
        let wrong = run.makespan + Time::NS;
        assert!(Analysis::CriticalPath.run(&events, run.makespan, &tr, SpanId::NONE).is_ok());
        assert!(Analysis::CriticalPath.run(&events, wrong, &tr, SpanId::NONE).is_err());
        assert!(Analysis::Audit.run(&events, wrong, &tr, SpanId::NONE).is_err());
    }
}
