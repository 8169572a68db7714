//! The fault sweep's determinism guarantee: injected faults are drawn
//! from a seeded generator in deterministic event order, so the
//! `faults` experiment — recovery counters, delivered-latency
//! percentiles, and its sidecar artifact — is byte-identical at any
//! `--jobs` count, and every shape check passes.

use scc_bench::{registry, run_registry, Experiment};
use scc_obs::{validate_artifact_version, Json};

fn faults_only() -> Vec<Experiment> {
    registry().into_iter().filter(|e| e.id == "faults").collect()
}

#[test]
fn faults_artifacts_are_byte_identical_at_any_jobs_count() {
    let seq = run_registry(faults_only(), true, 1);
    let par = run_registry(faults_only(), true, 4);

    assert_eq!(seq.outputs.len(), 1);
    assert_eq!(par.outputs.len(), 1);
    let (s, p) = (&seq.outputs[0], &par.outputs[0]);

    assert_eq!(s.text, p.text, "faults: text diverged between --jobs 1 and --jobs 4");
    assert_eq!(s.outputs, p.outputs, "faults: files diverged between job counts");

    // The sidecar exists, it is versioned, and it describes
    // verified delivery to all 47 destinations at every injected rate.
    let names: Vec<&str> = s.outputs.files.iter().map(|(n, _)| n.as_str()).collect();
    assert!(names.contains(&"results/faults.txt"), "missing classic text: {names:?}");
    assert!(names.contains(&"BENCH_faults.json"), "missing sidecar: {names:?}");

    let raw = &s.outputs.files.iter().find(|(n, _)| n == "BENCH_faults.json").unwrap().1;
    let doc = Json::parse(raw).expect("sidecar is valid JSON");
    validate_artifact_version(&doc).expect("versioned sidecar");
    let int = |v: &Json, key: &str| v.get(key).and_then(Json::as_i64).expect(key);
    let curves = doc.get("scenarios").and_then(Json::as_arr).expect("scenarios");
    assert_eq!(curves.len(), 3, "oc_k47, oc_k7, binomial");
    for c in curves {
        let id = c.get("id").and_then(Json::as_str).expect("id");
        let points = c.get("points").and_then(Json::as_arr).expect("points");
        assert!(!points.is_empty(), "{id}: empty curve");
        for pt in points {
            let drop = int(pt, "drop_ppm");
            assert_eq!(int(pt, "delivered"), 47, "{id} drop={drop}ppm: lost a destination");
        }
        let top = points.last().unwrap();
        assert!(int(top, "faults") > 0, "{id}: top rate injected nothing");
        assert!(int(top, "recoveries") > 0, "{id}: faults fired but nothing recovered");
    }

    // The shape checks the experiment declares must all hold.
    for sh in &s.report.shapes {
        assert!(sh.pass, "shape failed: {} ({})", sh.name, sh.detail);
    }
    assert!(s.report.shapes.len() >= 9, "3 scenarios x 3 shapes");
}
