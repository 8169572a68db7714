//! The `trace` experiment, run in-process: its text (one section per
//! scenario) and its six forensic files are pinned byte for byte.
//!
//! The section and file digests were taken from the standalone
//! `trace` binary the experiment replaced: the OC-Bcast point from its
//! default run (k=7, 96 cache lines, 48 cores), the binomial point from
//! `--collective binomial --lines 1`, each section being that binary's
//! stdout up to its `# wrote` footer.

use oc_bcast::Algorithm;
use scc_bench::{record_run, registry, run_experiment_full, Scenario};
use scc_obs::{
    chrome_trace_json, critical_path, flamegraph_collapsed, render_gantt, Json, UtilizationSeries,
};
use scc_sim::SimParams;

/// FNV-1a-64, the digest of `one_loop_pin.rs`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// One traced scenario: the artifact label, and the digests of its text
/// section, Chrome trace, utilization CSV and collapsed flamegraph.
struct Pin {
    label: &'static str,
    digests: [u64; 4],
}

const PINS: [Pin; 2] = [
    Pin {
        label: "ocbcast_96cl",
        digests: [
            0x325e_284c_8e3c_fbfd,
            0x5854_4be8_5d73_d8de,
            0x7526_fd73_1d84_3bd2,
            0x1c41_da9d_4f16_7e33,
        ],
    },
    Pin {
        label: "binomial_1cl",
        digests: [
            0x2a08_fd36_2c6b_a7f0,
            0x6c9d_4ab3_bc9a_7013,
            0x1fad_5b51_d455_97e0,
            0x9d46_e624_cc39_747d,
        ],
    },
];

fn forensic_files(label: &str) -> [String; 3] {
    ["trace_{}.json", "util_{}.csv", "flame_{}.txt"]
        .map(|f| format!("results/{}", f.replace("{}", label)))
}

#[test]
fn stdout_and_artifacts_are_pinned_byte_for_byte() {
    let exp = registry().into_iter().find(|e| e.id == "trace").expect("trace registered");
    let (report, text, outputs) = run_experiment_full(&exp, false);
    assert!(report.shapes_pass(), "{:?}", report.shapes);
    assert_eq!(report.shapes.len(), 2, "one critical-path check per scenario");
    assert!(report.rows.is_empty(), "the committed text is the gate, not rows");

    // The classic text, then each scenario's three forensic files.
    let mut want = vec!["results/trace.txt".to_string()];
    want.extend(PINS.iter().flat_map(|p| forensic_files(p.label)));
    let written: Vec<&String> = outputs.files.iter().map(|f| &f.0).collect();
    assert_eq!(written, want.iter().collect::<Vec<_>>());
    let file = |name: &str| &outputs.files.iter().find(|f| f.0 == name).unwrap().1;

    let split = text.find("binomial — ").expect("a binomial section");
    for (pin, section) in PINS.iter().zip([&text[..split], &text[split..]]) {
        let [chrome, util, flame] = forensic_files(pin.label).map(|f| file(&f));
        let got = [section, chrome, util, flame].map(|s| fnv1a64(s.as_bytes()));
        for ((what, got), want) in
            ["text", "chrome", "util", "flame"].iter().zip(got).zip(pin.digests)
        {
            assert_eq!(got, want, "{} {what}: {got:#018x} != pinned {want:#018x}", pin.label);
        }

        // What the artifacts must hold, whatever their bytes.
        let chrome = Json::parse(chrome).expect("chrome JSON");
        let events = chrome.get("traceEvents").and_then(Json::as_arr).expect("traceEvents");
        for cat in ["phase", "op"] {
            let found = events.iter().any(|e| e.get("cat").and_then(Json::as_str) == Some(cat));
            assert!(found, "{}: no {cat:?} slice in the Chrome trace", pin.label);
        }
        assert!(!flame.is_empty());
        for line in flame.lines() {
            let (_stack, count) = line.rsplit_once(' ').expect("collapsed format `stack count`");
            count.parse::<u64>().expect("counts are integers");
        }
    }
}

/// The edges the standalone binary accepted still record and run
/// through every exporter: the largest fan-outs the MPB holds, and an
/// empty message.
#[test]
fn extreme_but_legal_scenarios_still_trace() {
    for (k, cores, lines) in [(60, 12, 96), (63, 48, 96), (7, 48, 0)] {
        let sc = Scenario::new(Algorithm::oc_with_k(k), cores, lines);
        let (events, makespan) =
            record_run(&sc, SimParams::default()).unwrap_or_else(|e| panic!("{}: {e}", sc.label));
        let cp = critical_path(&events).unwrap_or_else(|e| panic!("{}: {e}", sc.label));
        assert_eq!(cp.breakdown().total(), cp.total(), "{}", sc.label);
        assert_eq!(cp.total(), makespan, "{}", sc.label);
        assert!(!render_gantt(&events, cores, 100).is_empty());
        Json::parse(&chrome_trace_json(&events)).expect("chrome JSON");
        UtilizationSeries::build(&events, makespan, 60).to_csv();
        flamegraph_collapsed(&events, &sc.label);
    }
}
