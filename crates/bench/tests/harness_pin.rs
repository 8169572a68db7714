//! Tier-1 pin of the harness's broadcast runners: one small case of each
//! runner shape, reduced to exact values —
//!
//! * aligned multi-epoch latency (a barrier before every epoch): the
//!   quick `fig8a` and `heatmap` sweeps;
//! * a recorded single broadcast: makespan, stream length and the
//!   FNV-1a-64 of the events' `Debug` text (as `one_loop_pin` streams
//!   them);
//! * a reliable broadcast under injected faults: the quick `faults`
//!   sweep and its fault and recovery counters;
//! * multi-epoch reliable broadcasts with a flight-recorder window: the
//!   quick `soak` sweep, its forensic dumps included.
//!
//! The file drives only the registry and `record_run`, so it reads the
//! same against any runner behind them; a line that moves means virtual
//! time (or an artifact) moved.

use oc_bcast::Algorithm;
use scc_bench::{record_run, registry, run_experiment_full, Scenario};
use scc_sim::SimParams;
use std::fmt::{Display, Write};

/// FNV-1a-64 of `text` as displayed, without building the string.
fn fnv1a64(text: impl Display) -> u64 {
    struct Fnv(u64);
    impl Write for Fnv {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            for &b in s.as_bytes() {
                self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
            }
            Ok(())
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    write!(h, "{text}").expect("hashing cannot fail");
    h.0
}

/// Run the quick sweep `id` and reduce it to pinned fields: the rows
/// named in `show` with their exact measured values, the digest of every
/// row's value and each file's digest (the text first).
fn sweep_fields(id: &str, show: &[&str]) -> Vec<String> {
    let exp = registry().into_iter().find(|e| e.id == id).expect("registered");
    let (rep, _, outputs) = run_experiment_full(&exp, true);
    let failed: Vec<_> = rep.shapes.iter().filter(|s| !s.pass).collect();
    assert!(failed.is_empty(), "{id}: {failed:?}");
    let shown = rep.rows.iter().filter(|r| show.contains(&r.point.as_str()));
    let mut fields: Vec<String> =
        shown.map(|r| format!("{}={:?}", r.point, r.sim_measured)).collect();
    let rows = rep.rows.iter().map(|r| format!("{}={:?}\n", r.point, r.sim_measured));
    fields.push(format!("{} rows={:#018x}", rep.rows.len(), fnv1a64(rows.collect::<String>())));
    for (path, contents) in &outputs.files {
        fields.push(format!("{path}={:#018x}", fnv1a64(contents)));
    }
    fields
}

#[test]
fn aligned_multi_epoch_latency_is_pinned() {
    assert_eq!(
        sweep_fields("fig8a", &["latency k=7 m=1", "latency binomial m=192"]),
        [
            "latency k=7 m=1=6.573",
            "latency binomial m=192=886.835",
            "16 rows=0xa01d55afb1a48a4f",
            "results/fig8a.txt=0x68447e7967da5351",
        ]
    );
    assert_eq!(
        sweep_fields("heatmap", &["OC-Bcast k=7 peak link busy"]),
        [
            "OC-Bcast k=7 peak link busy=9.352",
            "12 rows=0xb1c82e16aadbe267",
            "results/heatmaps.txt=0x975a08472009f26f",
        ]
    );
}

#[test]
fn recorded_single_broadcast_is_pinned() {
    let sc = Scenario::new(Algorithm::oc_with_k(7), 12, 16);
    let (events, makespan) = record_run(&sc, SimParams::default()).expect("run");
    let line = format!(
        "{} makespan_ps={} events={} stream={:#018x}",
        sc.label,
        makespan.as_ps(),
        events.len(),
        fnv1a64(format_args!("{events:?}"))
    );
    assert_eq!(line, "k=7 12c 16cl makespan_ps=29406000 events=4362 stream=0x78fc165b0c41a26e");
}

#[test]
fn reliable_faulted_broadcast_is_pinned() {
    assert_eq!(
        sweep_fields("faults", &["oc_k7 drop=50000ppm makespan"]),
        [
            "oc_k7 drop=50000ppm makespan=1253.03",
            "18 rows=0xc19c63d48af59f85",
            "results/faults.txt=0x36ff4ec233324b5e",
            "BENCH_faults.json=0xbaa6b9d37ca56b59",
        ]
    );
}

#[test]
fn multi_epoch_reliable_broadcast_with_a_flight_window_is_pinned() {
    assert_eq!(
        sweep_fields("soak", &["oc_k7 faults makespan max"]),
        [
            "oc_k7 faults makespan max=1220.68",
            "18 rows=0xce78c7393d688cf5",
            "results/soak.txt=0x2a652817ef89c67a",
            "results/soak_dump_oc_k7_e00048-00071_trace.json=0x359975014988156c",
            "results/soak_dump_oc_k7_e00048-00071_journeys.json=0x8d4339a3531e77ed",
            "results/soak_dump_oc_k7_e00048-00071_skew.md=0x1a683a143b179a35",
            "results/soak_dump_binomial_e00040-00059_trace.json=0x1bb0002820563f2c",
            "results/soak_dump_binomial_e00040-00059_journeys.json=0x36d0d970a19c2fcc",
            "results/soak_dump_binomial_e00040-00059_skew.md=0xc9d1f63c47462295",
            "BENCH_soak.json=0x2a2a8488bed540da",
        ]
    );
}
