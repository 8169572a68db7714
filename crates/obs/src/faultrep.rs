//! Degradation curves under injected faults: the structured record
//! behind `BENCH_faults.json`.
//!
//! One [`FaultCurve`] per broadcast scenario, one [`FaultPoint`] per
//! injected fault rate: how the *reliable* collectives' delivered
//! latency (per-destination p50/p99/max and the makespan) degrades as
//! remote notifications are dropped and transfers delayed, plus the
//! recovery-layer counters (timeouts, probes, recoveries, re-notifies)
//! that explain the slowdown. Everything is integer picoseconds and
//! exact counts, so the artifact is byte-identical across hosts and
//! `--jobs` settings — the same determinism contract as the journey
//! book.

use crate::artifact::record;
use scc_hal::Time;

record! {
    /// One operating point of one scenario: a fault rate and what the
    /// reliable broadcast delivered there.
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct FaultPoint {
        /// Injected drop probability for remote notification flags, ppm.
        pub drop_ppm: u64 => "drop_ppm",
        /// Injected transfer-delay probability, ppm.
        pub delay_ppm: u64 => "delay_ppm",
        /// Destinations that returned with a verified payload.
        pub delivered: u64 => "delivered",
        /// Per-destination delivered-latency percentiles (nearest-rank).
        pub p50: Time => "p50_ps",
        pub p99: Time => "p99_ps",
        /// Worst per-destination delivered latency.
        pub max: Time => "max_ps",
        /// Engine makespan of the run (includes the root's drain).
        pub makespan: Time => "makespan_ps",
        /// Faults the engine actually injected, and the virtual time they
        /// directly stole (drop detection lag is accounted by the recovery
        /// counters below, not here).
        pub faults: u64 => "faults",
        pub lost: Time => "lost_ps",
        /// Recovery-layer counters summed over every core.
        pub timeouts: u64 => "timeouts",
        pub probes: u64 => "probes",
        pub recoveries: u64 => "recoveries",
        pub renotifies: u64 => "renotifies",
    }
}

record! {
    /// One scenario's degradation curve, rate points in ascending
    /// order; `BENCH_faults.json` is `artifact::scenarios("faults", ..)`
    /// of these.
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct FaultCurve {
        /// Stable id, e.g. `"oc_k7"` — names the row keys and CI diffs.
        pub id: String => "id",
        /// Human label, e.g. `"k=7 48c 96cl"`.
        pub label: String => "label",
        pub cores: u64 => "cores",
        pub points: Vec<FaultPoint> => "points",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::scenarios;
    use crate::report::Json;

    fn sample() -> Vec<FaultCurve> {
        vec![
            FaultCurve {
                id: "oc_k7".into(),
                label: "k=7 48c 96cl".into(),
                cores: 48,
                points: vec![
                    FaultPoint {
                        delivered: 47,
                        p50: Time::from_us_f64(60.5),
                        p99: Time::from_us_f64(81.25),
                        max: Time::from_us_f64(82.0),
                        makespan: Time::from_us_f64(90.125),
                        ..FaultPoint::default()
                    },
                    FaultPoint {
                        drop_ppm: 50_000,
                        delay_ppm: 25_000,
                        delivered: 47,
                        p50: Time::from_us_f64(75.0),
                        p99: Time::from_us_f64(140.5),
                        max: Time::from_us_f64(151.0),
                        makespan: Time::from_us_f64(170.75),
                        faults: 12,
                        lost: Time::from_us_f64(33.0),
                        timeouts: 9,
                        probes: 9,
                        recoveries: 7,
                        renotifies: 2,
                    },
                ],
            },
            FaultCurve {
                id: "binomial".into(),
                label: "binomial 48c 96cl".into(),
                cores: 48,
                points: vec![FaultPoint { delivered: 47, ..FaultPoint::default() }],
            },
        ]
    }

    #[test]
    fn artifact_round_trips_losslessly() {
        let text = scenarios("faults", &sample()).render();
        assert_eq!(Json::parse(&text).unwrap().render(), text);
        assert!(text.contains("\"faults\":12"), "{text}");
    }
}
