//! End-to-end conformance pipeline: run real registry experiments,
//! serialize the report, and prove the drift gate (a) accepts an
//! unperturbed re-run and (b) rejects deliberate perturbations —
//! out-of-band rows, flipped shapes, vanished experiments.

use scc_bench::{registry, run_experiment_full};
use scc_obs::report::validate_json;
use scc_obs::{drift_gate, ConformanceReport};

/// Run a cheap subset of the registry (the pure-model and tree
/// experiments — no 48-core sweeps) in quick mode.
fn small_report() -> ConformanceReport {
    let mut report = ConformanceReport::new(true);
    for exp in registry() {
        if ["fig5", "fig6", "table2", "linkstress"].contains(&exp.id) {
            let (r, text, _) = run_experiment_full(&exp, true);
            assert!(!text.is_empty(), "{} produced no text", exp.id);
            report.experiments.push(r);
        }
    }
    assert_eq!(report.experiments.len(), 4);
    report
}

#[test]
fn registry_report_round_trips_and_self_compares_clean() {
    let report = small_report();
    assert!(report.shapes_pass(), "registry experiments must pass on a healthy tree");

    let json = report.to_json().render();
    validate_json(&json).expect("emitted JSON must validate");
    let back = ConformanceReport::from_json(&json).expect("emitted JSON must parse");
    assert_eq!(back.experiments.len(), report.experiments.len());

    // The simulator is deterministic: a fresh run gates clean against
    // the round-tripped baseline.
    let fresh = small_report();
    let gate = drift_gate(&fresh, &back);
    assert!(gate.ok(), "unperturbed re-run must pass the gate:\n{}", gate.render());
    assert!(gate.rows_checked > 0 && gate.shapes_checked > 0);
}

#[test]
fn gate_rejects_deliberate_perturbations() {
    let baseline = small_report();
    let json = baseline.to_json().render();
    let baseline = ConformanceReport::from_json(&json).expect("parse");

    // Perturbation 1: one measurement drifts far outside its band.
    let mut drifted = baseline.clone();
    {
        let row = &mut drifted.experiments[1].rows[0];
        row.sim_measured *= 1.0 + 10.0 * row.tolerance.max(0.01);
    }
    let gate = drift_gate(&drifted, &baseline);
    assert!(!gate.ok(), "an out-of-band row must trip the gate");

    // Perturbation 2: a paper shape claim regresses.
    let mut broken = baseline.clone();
    broken.experiments[0].shapes[0].pass = false;
    let gate = drift_gate(&broken, &baseline);
    assert!(!gate.ok(), "a shape regression must trip the gate");
    assert!(gate.render().contains("shape regression"), "{}", gate.render());

    // Perturbation 3: an experiment silently disappears.
    let mut missing = baseline.clone();
    missing.experiments.remove(0);
    let gate = drift_gate(&missing, &baseline);
    assert!(!gate.ok(), "a vanished experiment must trip the gate");

    // Perturbation 4: quick run against a full baseline is refused.
    let mut wrong_mode = baseline.clone();
    wrong_mode.quick = !baseline.quick;
    let gate = drift_gate(&wrong_mode, &baseline);
    assert!(!gate.ok(), "mode mismatch must trip the gate");
}

/// The drift explainer every failing run triggers, end to end through
/// the real binary. Build a deliberately perturbed fig5 baseline, run
/// `observatory --quick --only fig5 --baseline <it>`, and
/// require (a) a failing exit status, (b) a `DRIFT.md` that names the
/// drifted experiment and the dominant hardware resource, (c) a
/// non-empty collapsed flamegraph, and (d) no JSON dump of the what-if
/// scans: `DRIFT.md` carries their tables.
#[test]
fn explain_names_the_drifted_experiment_and_dominant_resource() {
    let dir = std::env::temp_dir().join(format!("scc_obs_explain_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();

    // A fig5 baseline whose first row is 50% off what the simulator
    // actually produces — a fresh run must trip the gate against it.
    let mut baseline = ConformanceReport::new(true);
    let fig5 = registry().into_iter().find(|e| e.id == "fig5").expect("fig5 registered");
    let (mut rep, _, _) = run_experiment_full(&fig5, true);
    rep.rows[0].sim_measured *= 1.5;
    baseline.experiments.push(rep);
    std::fs::write(path("perturbed.json"), baseline.to_json().render()).expect("write baseline");

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_observatory"))
        .args([
            "--quick",
            "--only",
            "fig5",
            "--baseline",
            &path("perturbed.json"),
            "--artifact-dir",
            dir.to_str().unwrap(),
        ])
        .output()
        .expect("run observatory");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "perturbed baseline must fail the gate\n{stderr}");

    let drift = std::fs::read_to_string(path("results/DRIFT.md")).expect("DRIFT.md written");
    assert!(drift.contains("fig5"), "DRIFT.md must name the drifted experiment:\n{drift}");
    // fig5's representative scenario is the binomial 1CL baseline; its
    // dominant hardware class is the per-hop mesh latency.
    assert!(
        drift.contains("dominant hardware class: **router-hop**"),
        "DRIFT.md must name the dominant resource:\n{drift}"
    );
    assert!(drift.contains("conservative attribution"), "diff table missing:\n{drift}");
    assert!(drift.contains("| series |"), "histogram table missing:\n{drift}");

    let flame =
        std::fs::read_to_string(path("results/flame_fig5.txt")).expect("flamegraph written");
    assert!(!flame.trim().is_empty());
    for line in flame.lines() {
        let (_stack, count) = line.rsplit_once(' ').expect("collapsed format `stack count`");
        count.parse::<u64>().expect("counts are integers");
    }

    assert!(drift.contains("### What-if sensitivity"), "what-if table missing:\n{drift}");
    for unwritten in ["results/DRIFT_whatif.json", "BENCH_whatif.json"] {
        assert!(!dir.join(unwritten).exists(), "the explainer wrote {unwritten}");
    }
    for written in ["BENCH_figures.json", "results/CONFORMANCE.md", "results/fig5.txt"] {
        assert!(dir.join(written).exists(), "{written} missing from the artifact dir");
    }

    std::fs::remove_dir_all(&dir).ok();
}
