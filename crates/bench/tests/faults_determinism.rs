//! The fault sweep's determinism guarantee: injected faults are drawn
//! from a seeded generator in deterministic event order, so the
//! `faults` experiment — recovery counters and delivered-latency
//! percentiles — is byte-identical at any `--jobs` count, and every
//! shape check passes.

use scc_bench::{registry, run_registry, Experiment};

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

    let names: Vec<&str> = s.outputs.files.iter().map(|(n, _)| n.as_str()).collect();
    assert!(names.contains(&"results/faults.txt"), "missing classic text: {names:?}");

    // The shape checks the experiment declares must all hold; among
    // them, each scenario's verified delivery to all 47 destinations at
    // every injected rate.
    for sh in &s.report.shapes {
        assert!(sh.pass, "shape failed: {} ({})", sh.name, sh.detail);
    }
    assert!(s.report.shapes.len() >= 9, "3 scenarios x 3 shapes");
    let delivery = s.report.shapes.iter().filter(|sh| {
        sh.name.ends_with(": every destination verifies delivery at every fault rate")
    });
    assert_eq!(delivery.count(), 3, "oc_k47, oc_k7, binomial");
}
