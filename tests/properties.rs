//! Property-based tests over the public API: random configurations of
//! the collectives must always deliver, the trees must always be
//! well-formed, and the simulator must stay deterministic.

use oc_bcast::{Algorithm, Broadcaster, KaryTree, OcConfig};
use proptest::prelude::*;
use scc_hal::{CoreId, MemRange, Rma, RmaExt, RmaResult};
use scc_rcce::MpbAllocator;
use scc_sim::{run_spmd, SimConfig};

fn bcast_on_sim(p: usize, alg: Algorithm, root: u8, msg: Vec<u8>) -> Vec<Vec<u8>> {
    let cfg = SimConfig { num_cores: p, mem_bytes: 1 << 18, ..Default::default() };
    let rep = run_spmd(&cfg, move |c| -> RmaResult<Vec<u8>> {
        let mut alloc = MpbAllocator::new();
        let mut b = Broadcaster::new(&mut alloc, alg, c.num_cores()).expect("ctx");
        let r = MemRange::new(0, msg.len());
        if c.core() == CoreId(root) {
            c.mem_write(0, &msg)?;
        }
        b.bcast(c, CoreId(root), r)?;
        c.mem_to_vec(r)
    })
    .expect("sim run");
    rep.results.into_iter().map(|r| r.expect("core")).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    /// OC-Bcast delivers arbitrary payloads for arbitrary geometry.
    #[test]
    fn oc_bcast_delivers(
        p in 2usize..16,
        k in 1usize..12,
        root in 0u8..16,
        msg in proptest::collection::vec(any::<u8>(), 1..8000),
    ) {
        let root = root % p as u8;
        let got = bcast_on_sim(p, Algorithm::OcBcast(OcConfig::with_k(k)), root, msg.clone());
        for (i, g) in got.iter().enumerate() {
            prop_assert_eq!(g, &msg, "core {}", i);
        }
    }

    /// The two-sided baselines deliver under the same geometry.
    #[test]
    fn baselines_deliver(
        p in 2usize..12,
        root in 0u8..12,
        msg in proptest::collection::vec(any::<u8>(), 1..4000),
        binomial in any::<bool>(),
    ) {
        let root = root % p as u8;
        let alg = if binomial { Algorithm::Binomial } else { Algorithm::ScatterAllgather };
        let got = bcast_on_sim(p, alg, root, msg.clone());
        for (i, g) in got.iter().enumerate() {
            prop_assert_eq!(g, &msg, "core {}", i);
        }
    }

    /// Tree invariants: every non-root appears exactly once as a child,
    /// parent/child agree, depth bounded by ceil(log_k) levels.
    #[test]
    fn kary_tree_invariants(p in 1usize..49, k in 1usize..48, root in 0usize..48) {
        let root = root % p;
        let tree = KaryTree::new(p, k, CoreId(root as u8));
        let mut seen = vec![0u32; p];
        seen[root] += 1;
        for c in (0..p).map(|i| CoreId(i as u8)) {
            for ch in tree.children(c) {
                seen[ch.index()] += 1;
                prop_assert_eq!(tree.parent(ch), Some(c));
            }
        }
        prop_assert!(seen.iter().all(|&s| s == 1));
        for mut c in (0..p).map(|i| CoreId(i as u8)) {
            let mut depth = 0;
            while let Some(parent) = tree.parent(c) {
                (c, depth) = (parent, depth + 1);
            }
            prop_assert!(depth <= scc_model::tree_depth(p, k));
        }
    }

    /// Chunk accounting: an OC-Bcast context reserves exactly its
    /// notify line, `k` done flags and two chunk buffers, and is refused
    /// exactly when they do not fit one core's MPB.
    #[test]
    fn chunk_accounting(chunk_lines in 1usize..128) {
        let mut alloc = MpbAllocator::new();
        let cfg = OcConfig { k: 2, chunk_lines, ..OcConfig::default() };
        let need = 1 + 2 + 2 * chunk_lines;
        let fits = need <= scc_hal::MPB_LINES_PER_CORE;
        prop_assert_eq!(oc_bcast::OcBcast::new(&mut alloc, cfg).is_ok(), fits);
        if fits {
            prop_assert_eq!(alloc.lines_free(), scc_hal::MPB_LINES_PER_CORE - need);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, .. ProptestConfig::default() })]

    /// Determinism: the same program produces the identical report.
    #[test]
    fn simulator_is_deterministic(
        p in 2usize..10,
        k in 1usize..8,
        len in 1usize..3000,
    ) {
        let run = || {
            let cfg = SimConfig { num_cores: p, mem_bytes: 1 << 16, ..Default::default() };
            let rep = run_spmd(&cfg, move |c| -> RmaResult<scc_hal::Time> {
                let mut alloc = MpbAllocator::new();
                let mut b = Broadcaster::new(
                    &mut alloc,
                    Algorithm::OcBcast(OcConfig::with_k(k)),
                    c.num_cores(),
                )
                .expect("ctx");
                let r = MemRange::new(0, len);
                if c.core().index() == 0 {
                    c.mem_write(0, &vec![9u8; len])?;
                }
                b.bcast(c, CoreId(0), r)?;
                Ok(c.now())
            })
            .expect("sim");
            (rep.results.into_iter().map(|r| r.expect("t")).collect::<Vec<_>>(), rep.stats)
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a.0, b.0);
        prop_assert_eq!(a.1, b.1);
    }
}
