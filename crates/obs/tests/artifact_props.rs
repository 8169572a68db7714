//! The writer's codec contract on random `BENCH_faults.json` and
//! `BENCH_soak.json` scenario lists: the rendered artifact is
//! versioned, parses, and renders back byte for byte. Sidecars are
//! written, never read back, so that is the whole contract; the audit
//! artifact gets the same property in `audit_props.rs`.

use proptest::prelude::*;
use proptest::TestRng;
use scc_hal::Time;
use scc_obs::artifact::{scenarios, Wire};
use scc_obs::{
    validate_artifact_version, FaultCurve, FaultPoint, Json, QuantileSketch, SloBreach, SloKind,
    SloPolicy, SoakPhase, SoakScenario,
};

fn check_codec<T: Wire>(bench: &str, items: &[T]) -> Result<(), String> {
    let text = scenarios(bench, items).render();
    let doc = Json::parse(&text).map_err(|e| format!("render does not parse: {e}"))?;
    validate_artifact_version(&doc)?;
    match doc.render() == text {
        true => Ok(()),
        false => Err("render -> parse -> render is not byte-stable".into()),
    }
}

/// Counts and picoseconds up to the largest value a JSON integer holds.
fn arb_u64(rng: &mut TestRng) -> u64 {
    rng.next_u64() >> (1 + rng.gen_range_u64(0, 63))
}

fn arb_time(rng: &mut TestRng) -> Time {
    Time::from_ps(arb_u64(rng))
}

fn arb_curve(rng: &mut TestRng, i: u64) -> FaultCurve {
    FaultCurve {
        id: format!("curve_{i}"),
        label: format!("scenario {i} \"48c\""),
        cores: rng.gen_range_u64(1, 49),
        points: (0..rng.gen_range_u64(0, 5))
            .map(|_| FaultPoint {
                drop_ppm: rng.gen_range_u64(0, 1_000_001),
                delay_ppm: rng.gen_range_u64(0, 1_000_001),
                delivered: rng.gen_range_u64(0, 48),
                p50: arb_time(rng),
                p99: arb_time(rng),
                max: arb_time(rng),
                makespan: arb_time(rng),
                faults: arb_u64(rng),
                lost: arb_time(rng),
                timeouts: arb_u64(rng),
                probes: arb_u64(rng),
                recoveries: arb_u64(rng),
                renotifies: arb_u64(rng),
            })
            .collect(),
    }
}

fn arb_phase(rng: &mut TestRng, i: u64) -> SoakPhase {
    let mut sketch = QuantileSketch::new();
    for _ in 0..rng.gen_range_u64(0, 40) {
        sketch.record_ps(rng.next_u64() >> rng.gen_range_u64(0, 64));
    }
    SoakPhase {
        id: format!("phase_{i}"),
        drop_ppm: rng.gen_range_u64(0, 1_000_001),
        epochs: arb_u64(rng),
        sketch,
        makespan_max: arb_time(rng),
        timeouts: arb_u64(rng),
        probes: arb_u64(rng),
        recoveries: arb_u64(rng),
        renotifies: arb_u64(rng),
        faults: arb_u64(rng),
        breaches: (0..rng.gen_range_u64(0, 4))
            .map(|_| SloBreach {
                epoch: rng.next_u64() as u32,
                kind: SloKind::ALL[rng.gen_range_u64(0, 3) as usize],
                observed: arb_u64(rng),
                budget: arb_u64(rng),
            })
            .collect(),
        dumps: (0..rng.gen_range_u64(0, 3)).map(|d| format!("results/soak_dump_{i}_{d}")).collect(),
    }
}

fn arb_soak(rng: &mut TestRng, i: u64) -> SoakScenario {
    let budget = |rng: &mut TestRng| (rng.gen_range_u64(0, 2) == 1).then(|| arb_time(rng));
    SoakScenario {
        id: format!("soak_{i}"),
        label: format!("scenario {i}"),
        cores: rng.gen_range_u64(1, 49),
        policy: SloPolicy {
            p99_budget: budget(rng),
            makespan_budget: budget(rng),
            zero_recoveries: rng.gen_range_u64(0, 2) == 1,
        },
        phases: (0..rng.gen_range_u64(0, 4)).map(|p| arb_phase(rng, p)).collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn faults_artifact_satisfies_the_codec_contract(seed in any::<u64>()) {
        let mut rng = TestRng::from_name(&format!("faults-{seed}"));
        let curves: Vec<FaultCurve> =
            (0..rng.gen_range_u64(0, 4)).map(|i| arb_curve(&mut rng, i)).collect();
        check_codec("faults", &curves).map_err(TestCaseError::fail)?;
    }

    #[test]
    fn soak_artifact_satisfies_the_codec_contract(seed in any::<u64>()) {
        let mut rng = TestRng::from_name(&format!("soak-{seed}"));
        let scenarios: Vec<SoakScenario> =
            (0..rng.gen_range_u64(0, 3)).map(|i| arb_soak(&mut rng, i)).collect();
        check_codec("soak", &scenarios).map_err(TestCaseError::fail)?;
    }
}
