//! Property test of the `BENCH_journeys.json` version gate: a document
//! in the schema's shape with a wrong or missing `"version"` stamp is
//! rejected, whatever the rest of it looks like.

use proptest::prelude::*;
use proptest::TestRng;
use scc_obs::{validate_artifact_version, Json, LegKind, ARTIFACT_VERSION};

/// One random journey object in the schema's shape.
fn arb_journey(rng: &mut TestRng) -> Json {
    let begin = rng.gen_range_u64(0, 1 << 40);
    let mut legs = Json::obj();
    for k in LegKind::ALL {
        legs = legs.set(k.name(), Json::Int(rng.gen_range_u64(0, 1 << 40) as i64));
    }
    Json::obj()
        .set("core", Json::Int(rng.gen_range_u64(0, 48) as i64))
        .set("epoch", Json::Int(rng.gen_range_u64(0, 1 << 20) as i64))
        .set("begin_ps", Json::Int(begin as i64))
        .set("end_ps", Json::Int((begin + rng.gen_range_u64(0, 1 << 40)) as i64))
        .set("transfers", Json::Int(rng.gen_range_u64(0, 1 << 16) as i64))
        .set("lines", Json::Int(rng.gen_range_u64(0, 1 << 20) as i64))
        .set("legs", legs)
}

fn arb_artifact(rng: &mut TestRng) -> Json {
    let scenarios = (0..rng.gen_range_u64(0, 4))
        .map(|i| {
            let journeys = (0..rng.gen_range_u64(0, 6)).map(|_| arb_journey(rng)).collect();
            Json::obj()
                .set("id", Json::Str(format!("scenario-{i}-{}", rng.gen_range_u64(0, 1000))))
                .set("makespan_ps", Json::Int(rng.gen_range_u64(0, 1 << 50) as i64))
                .set("journeys", Json::Arr(journeys))
        })
        .collect();
    Json::obj()
        .set("version", Json::Int(ARTIFACT_VERSION))
        .set("bench", Json::Str("journeys".into()))
        .set("scenarios", Json::Arr(scenarios))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// A wrong or missing version stamp is always rejected, whatever
    /// the rest of the document looks like.
    #[test]
    fn version_gate_rejects_foreign_documents(seed in any::<u64>()) {
        let mut rng = TestRng::from_name(&format!("vgate-{seed}"));
        let doc = arb_artifact(&mut rng);
        prop_assert!(validate_artifact_version(&doc).is_ok());
        let stale = rng.gen_range_u64(0, 1 << 30) as i64;
        if stale != ARTIFACT_VERSION {
            let bad = doc.clone().set("version", Json::Int(stale));
            prop_assert!(validate_artifact_version(&bad).is_err());
        }
        let missing = doc.set("version", Json::Null);
        prop_assert!(validate_artifact_version(&missing).is_err());
    }
}
