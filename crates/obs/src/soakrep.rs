//! Soak rollups: the structured record behind `BENCH_soak.json`.
//!
//! A soak run reduces thousands of back-to-back broadcasts to a few
//! [`SoakPhase`] rows per protocol: the phase's merged
//! [`QuantileSketch`] (delivery latencies across every epoch of the
//! phase), the recovery counters, the [`SloBreach`]es the watchdog
//! raised, and the forensic dump inventory. Everything is integer
//! picoseconds and exact counts — the same byte-identity contract as
//! the journey book and fault curves, at any `--jobs` setting.

use crate::artifact::record;
use crate::sketch::QuantileSketch;
use crate::slo::{SloBreach, SloPolicy};
use scc_hal::Time;

record! {
    /// One traffic phase of one protocol's soak: a contiguous run of
    /// epochs under one fault plan.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct SoakPhase {
        /// Stable id, e.g. `"healthy_a"` / `"faults"` / `"healthy_b"`.
        pub id: String => "id",
        /// Remote-notification drop rate this phase injects, ppm.
        pub drop_ppm: u64 => "drop_ppm",
        pub epochs: u64 => "epochs",
        /// Per-destination delivered latencies, every epoch of the phase.
        pub sketch: QuantileSketch => "sketch",
        /// Worst per-epoch makespan in the phase.
        pub makespan_max: Time => "makespan_max_ps",
        /// Recovery counters summed over the phase.
        pub timeouts: u64 => "timeouts",
        pub probes: u64 => "probes",
        pub recoveries: u64 => "recoveries",
        pub renotifies: u64 => "renotifies",
        /// Faults the plan injected during the phase.
        pub faults: u64 => "faults",
        /// Watchdog verdicts, epoch order.
        pub breaches: Vec<SloBreach> => "breaches",
        /// Repo-relative paths of the forensic dumps this phase produced.
        pub dumps: Vec<String> => "dumps",
    }
}

record! {
    /// One protocol's soak: its SLO policy and its phases in traffic
    /// order; `BENCH_soak.json` is `artifact::scenarios("soak", ..)` of
    /// these.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct SoakScenario {
        /// Stable id, e.g. `"oc_k7"`.
        pub id: String => "id",
        /// Human label, e.g. `"k=7 48c 8cl"`.
        pub label: String => "label",
        pub cores: u64 => "cores",
        pub policy: SloPolicy => "policy",
        pub phases: Vec<SoakPhase> => "phases",
    }
}

impl SoakScenario {
    pub fn epochs(&self) -> u64 {
        self.phases.iter().map(|p| p.epochs).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::scenarios;
    use crate::report::Json;
    use crate::slo::SloKind;

    fn sample() -> Vec<SoakScenario> {
        let mut healthy_sketch = QuantileSketch::new();
        let mut faulty_sketch = QuantileSketch::new();
        for i in 1..=100u64 {
            healthy_sketch.record_ps(60_000_000 + i * 1_000);
            faulty_sketch.record_ps(60_000_000 + i * 7_000_000);
        }
        vec![SoakScenario {
            id: "oc_k7".into(),
            label: "k=7 48c 8cl".into(),
            cores: 48,
            policy: SloPolicy {
                p99_budget: Some(Time::from_us_f64(100.0)),
                makespan_budget: Some(Time::from_us_f64(200.0)),
                zero_recoveries: true,
            },
            phases: vec![
                SoakPhase {
                    id: "healthy_a".into(),
                    drop_ppm: 0,
                    epochs: 100,
                    sketch: healthy_sketch,
                    makespan_max: Time::from_us_f64(80.0),
                    timeouts: 0,
                    probes: 0,
                    recoveries: 0,
                    renotifies: 0,
                    faults: 0,
                    breaches: vec![],
                    dumps: vec![],
                },
                SoakPhase {
                    id: "faults".into(),
                    drop_ppm: 50_000,
                    epochs: 100,
                    sketch: faulty_sketch,
                    makespan_max: Time::from_us_f64(900.0),
                    timeouts: 9,
                    probes: 9,
                    recoveries: 7,
                    renotifies: 2,
                    faults: 12,
                    breaches: vec![SloBreach {
                        epoch: 123,
                        kind: SloKind::Recovery,
                        observed: 7,
                        budget: 0,
                    }],
                    dumps: vec!["results/soak_dump_oc_k7_faults_0_trace.json".into()],
                },
            ],
        }]
    }

    #[test]
    fn artifact_round_trips_losslessly() {
        let text = scenarios("soak", &sample()).render();
        assert_eq!(Json::parse(&text).unwrap().render(), text);
        assert!(text.contains("\"kind\":\"recovery\""), "{text}");
    }
}
