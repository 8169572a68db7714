//! Model ↔ simulator cross-validation: the paper's Section 3.2 loop
//! ("our model precisely estimates the communication performance")
//! plus coarse agreement between the analytical broadcast models and
//! measured broadcast behaviour.

use oc_bcast::Algorithm;
use scc_bench::{measure_bcast, paper_chip};
use scc_hal::{core_at_mpb_distance, core_with_mem_distance, CoreId};
use scc_model::bcast::FullModelCfg;
use scc_model::{ModelParams, P2p};
use scc_sim::{measure_p2p, P2pKind};

#[test]
fn p2p_ops_match_the_model_exactly() {
    // Contention-free put/get completion on the simulator equals
    // Formulas (7)–(12) with Table-1 parameters, at every distance and
    // for every size of Figure 3.
    let cfg = paper_chip();
    let model = P2p::new(ModelParams::paper());
    for m in [1usize, 4, 8, 16] {
        for d in 1..=9u32 {
            let exp = measure_p2p(&cfg, P2pKind::GetMpb, m, d, 1).expect("sim").as_us_f64();
            assert!((exp - model.c_get_mpb(m, d)).abs() < 1e-6, "get m={m} d={d}");
            let exp = measure_p2p(&cfg, P2pKind::PutMpb, m, d, 1).expect("sim").as_us_f64();
            assert!((exp - model.c_put_mpb(m, d)).abs() < 1e-6, "put m={m} d={d}");
        }
        for d in 1..=4u32 {
            let exp = measure_p2p(&cfg, P2pKind::GetMem, m, d, 1).expect("sim").as_us_f64();
            assert!((exp - model.c_get_mem(m, 1, d)).abs() < 1e-6, "get_mem m={m} d={d}");
            let exp = measure_p2p(&cfg, P2pKind::PutMem, m, d, 1).expect("sim").as_us_f64();
            assert!((exp - model.c_put_mem(m, d, 1)).abs() < 1e-6, "put_mem m={m} d={d}");
        }
    }
}

#[test]
fn distance_helpers_cover_the_chip() {
    for d in 1..=9 {
        assert!(core_at_mpb_distance(CoreId(0), d, 48).is_some());
    }
    for d in 1..=4 {
        assert!(core_with_mem_distance(d, 48).is_some());
    }
}

#[test]
fn measured_broadcast_sits_between_simplified_and_generous_model_bounds() {
    // The complete analytical model ignores MPB-distance spread
    // (assumes d = 1) and queueing, so it lower-bounds the simulator;
    // a generous multiple bounds it from above. This mirrors the
    // paper's Section 6.3 ("expected performance based on the model is
    // slightly better than the results we obtain").
    let params = ModelParams::paper();
    let mcfg = FullModelCfg::default();
    for (m, k) in [(1usize, 7usize), (32, 7), (96, 2), (96, 47)] {
        let measured = measure_bcast(Algorithm::oc_with_k(k), m, 1, 2).expect("sim").latency_us;
        let modeled = scc_model::oc_latency_full(&params, &mcfg, 48, m, k);
        assert!(
            measured >= modeled * 0.95,
            "m={m} k={k}: sim {measured:.2} must not beat the d=1 model {modeled:.2}"
        );
        assert!(
            measured <= modeled * 2.0,
            "m={m} k={k}: sim {measured:.2} too far above model {modeled:.2}"
        );
    }
}

#[test]
fn throughput_ratio_matches_table2_shape() {
    let lines = 48 * 96;
    let oc = measure_bcast(Algorithm::oc_with_k(7), lines, 0, 1).expect("sim").throughput_mb_s;
    let sag = measure_bcast(Algorithm::ScatterAllgather, lines, 0, 1).expect("sim").throughput_mb_s;
    // Paper Table 2 / Figure 8b: OC ~34-36 MB/s, s-ag ~13 MB/s, ~3x.
    assert!((25.0..45.0).contains(&oc), "OC throughput {oc:.1} MB/s out of band");
    assert!((9.0..17.0).contains(&sag), "s-ag throughput {sag:.1} MB/s out of band");
    let ratio = oc / sag;
    assert!((2.0..3.6).contains(&ratio), "OC/s-ag ratio {ratio:.2} out of band");
}

#[test]
fn latency_improvement_headline_holds() {
    let oc = measure_bcast(Algorithm::oc_with_k(7), 1, 1, 2).expect("sim").latency_us;
    let bin = measure_bcast(Algorithm::Binomial, 1, 1, 2).expect("sim").latency_us;
    assert!(
        oc < bin * 0.73,
        "OC-Bcast must improve 1-CL latency by at least 27%: {oc:.2} vs {bin:.2}"
    );
}
