//! Shared plumbing for the versioned sidecar artifacts.
//!
//! Every machine-readable bench artifact (`BENCH_faults.json`,
//! `BENCH_soak.json`, `BENCH_journeys.json`, `BENCH_audit.json`, …) wears the same envelope: a `"version"` stamp
//! checked by [`crate::validate_artifact_version`], a `"bench"` name,
//! and usually a `"scenarios"` array. The writers and strict parsers
//! used to hand-roll that envelope (and the non-negative-integer /
//! picosecond field helpers) independently; this module is the one
//! copy they all share, so a new artifact cannot invent a subtly
//! different envelope.

use crate::conformance::{validate_artifact_version, ARTIFACT_VERSION};
use crate::report::Json;
use scc_hal::Time;

/// Start a versioned envelope: `{"version": N, "bench": <name>}`.
/// Callers chain `.set(...)` for their payload keys.
pub fn envelope(bench: &str) -> Json {
    Json::obj().set("version", Json::Int(ARTIFACT_VERSION)).set("bench", Json::Str(bench.into()))
}

/// The standard scenario-list envelope shared by the fault, soak,
/// journey, and audit artifacts.
pub fn scenario_envelope(bench: &str, scenarios: Vec<Json>) -> Json {
    envelope(bench).set("scenarios", Json::Arr(scenarios))
}

/// Open a scenario-list envelope: version gate first (so stale files
/// fail naming the mismatch), then the `"scenarios"` array.
pub fn open_scenarios(doc: &Json) -> Result<&[Json], String> {
    validate_artifact_version(doc)?;
    doc.get("scenarios")
        .and_then(Json::as_arr)
        .ok_or_else(|| "missing 'scenarios' array".to_string())
}

/// Integer picoseconds, the exactness contract of every artifact.
pub fn ps(t: Time) -> Json {
    Json::Int(t.as_ps() as i64)
}

/// An exact non-negative count.
pub fn count(v: u64) -> Json {
    Json::Int(v as i64)
}

/// Required non-negative integer field; negatives are parse errors,
/// never silent wraps.
pub fn req_u64(v: &Json, key: &str) -> Result<u64, String> {
    let raw = v.get(key).and_then(Json::as_i64).ok_or(format!("missing integer '{key}'"))?;
    u64::try_from(raw).map_err(|_| format!("key '{key}' must be non-negative, got {raw}"))
}

/// Required picosecond field (non-negative integer).
pub fn req_time(v: &Json, key: &str) -> Result<Time, String> {
    Ok(Time::from_ps(req_u64(v, key)?))
}

/// Required string field.
pub fn req_str(v: &Json, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string '{key}'"))
}

/// Required bool field.
pub fn req_bool(v: &Json, key: &str) -> Result<bool, String> {
    v.get(key).and_then(Json::as_bool).ok_or_else(|| format!("missing bool '{key}'"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_carries_version_and_bench() {
        let doc = scenario_envelope("demo", vec![Json::obj().set("id", Json::Str("a".into()))]);
        validate_artifact_version(&doc).unwrap();
        assert_eq!(doc.get("bench").and_then(Json::as_str), Some("demo"));
        assert_eq!(open_scenarios(&doc).unwrap().len(), 1);
    }

    #[test]
    fn open_rejects_stale_version_and_missing_scenarios() {
        let stale = scenario_envelope("demo", vec![]).set("version", Json::Int(999));
        assert!(open_scenarios(&stale).unwrap_err().contains("999"));
        let bare = envelope("demo");
        assert!(open_scenarios(&bare).unwrap_err().contains("scenarios"));
    }

    #[test]
    fn field_helpers_round_trip_and_reject_junk() {
        let doc = Json::obj()
            .set("n", count(7))
            .set("t", ps(Time::from_ns(3)))
            .set("s", Json::Str("x".into()))
            .set("b", Json::Bool(true));
        assert_eq!(req_u64(&doc, "n").unwrap(), 7);
        assert_eq!(req_time(&doc, "t").unwrap(), Time::from_ns(3));
        assert_eq!(req_str(&doc, "s").unwrap(), "x");
        assert!(req_bool(&doc, "b").unwrap());
        assert!(req_u64(&doc, "missing").unwrap_err().contains("missing"));
        let neg = Json::obj().set("n", Json::Int(-4));
        assert!(req_u64(&neg, "n").unwrap_err().contains("-4"));
    }
}
