//! Property tests of the `BENCH_journeys.json` schema: any document in
//! the schema's shape parses into journey books that satisfy the codec
//! contract ([`check_codec`]: lossless, byte-stable, strict) — what the
//! observatory relies on when the artifacts are byte-diffed across
//! `--jobs` counts and read back by tooling.

use proptest::prelude::*;
use proptest::TestRng;
use scc_obs::artifact::{check_codec, parse_scenarios};
use scc_obs::{JourneyBook, Json, LegKind, ARTIFACT_VERSION};

fn parse_books(doc: &Json) -> Result<Vec<(String, JourneyBook)>, String> {
    parse_scenarios(doc)
}

/// One random journey object in the schema's shape. Leg dwells and the
/// window are drawn independently — the schema layer does not enforce
/// the conservation law (the reconstruction layer guarantees it), so
/// the round-trip must hold for arbitrary integer dwells.
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

    /// Any schema-shaped document parses, and what it parses to
    /// satisfies the codec contract.
    #[test]
    fn journeys_artifact_round_trips(seed in any::<u64>()) {
        let mut rng = TestRng::from_name(&format!("journeys-{seed}"));
        let doc = arb_artifact(&mut rng);
        let books = match parse_books(&doc) {
            Ok(b) => b,
            Err(e) => return Err(TestCaseError::fail(format!("parse failed: {e}"))),
        };
        check_codec("journeys", &books).map_err(TestCaseError::fail)?;
    }

    /// A wrong or missing version stamp is always rejected, whatever
    /// the rest of the document looks like.
    #[test]
    fn version_gate_rejects_foreign_documents(seed in any::<u64>()) {
        let mut rng = TestRng::from_name(&format!("vgate-{seed}"));
        let doc = arb_artifact(&mut rng);
        let stale = rng.gen_range_u64(0, 1 << 30) as i64;
        if stale != ARTIFACT_VERSION {
            let bad = doc.clone().set("version", Json::Int(stale));
            prop_assert!(parse_books(&bad).is_err());
        }
        let missing = doc.set("version", Json::Null);
        prop_assert!(parse_books(&missing).is_err());
    }

    /// Dropping any single leg key makes the strict parser fail — the
    /// schema has no optional dwells, so a truncated document can never
    /// masquerade as a complete one.
    #[test]
    fn missing_leg_keys_are_rejected(seed in any::<u64>()) {
        let mut rng = TestRng::from_name(&format!("legs-{seed}"));
        let dropped = LegKind::ALL[rng.gen_range_u64(0, LegKind::COUNT as u64) as usize];
        let mut legs = Json::obj();
        for k in LegKind::ALL {
            if k != dropped {
                legs = legs.set(k.name(), Json::Int(1));
            }
        }
        let journey = arb_journey(&mut rng).set("legs", legs);
        let doc = Json::obj()
            .set("version", Json::Int(ARTIFACT_VERSION))
            .set("bench", Json::Str("journeys".into()))
            .set("scenarios", Json::Arr(vec![Json::obj()
                .set("id", Json::Str("s".into()))
                .set("makespan_ps", Json::Int(0))
                .set("journeys", Json::Arr(vec![journey]))]));
        let err = parse_books(&doc).unwrap_err();
        prop_assert!(err.contains(dropped.name()), "error `{}` must name `{}`", err, dropped.name());
    }
}
