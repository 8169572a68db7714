//! Tier-1 pin of the simulator's virtual-time behaviour on the
//! throughput regime: a root-0 768-CL broadcast with each of the four
//! reference algorithms must reproduce these makespans and counters to
//! the picosecond: host-side optimisation of the engine, `Chip`,
//! `Calendar` or `ops` has to leave every one of them untouched. (The
//! `observatory` diff checks the same thing over every experiment, in
//! tens of seconds; this one runs with `cargo test`.)

use oc_bcast::{Algorithm, Broadcaster};
use scc_hal::{CoreId, MemRange, Rma, RmaExt, CACHE_LINE_BYTES};
use scc_rcce::MpbAllocator;
use scc_sim::{run_spmd, SimConfig};

const LINES: usize = 768;

/// `(makespan, events, lines_moved, port_wait, router_wait, mc_wait)`,
/// times in ps.
type Pin = (u64, u64, u64, u64, u64, u64);

fn bcast_768(alg: Algorithm) -> Pin {
    let cfg = SimConfig { mem_bytes: 1 << 18, ..SimConfig::default() };
    let payload: Vec<u8> = (0..LINES * CACHE_LINE_BYTES).map(|i| (i % 253) as u8).collect();
    let range = MemRange::new(0, payload.len());
    let rep = run_spmd(&cfg, |c| {
        let mut alloc = MpbAllocator::new();
        let mut b = Broadcaster::new(&mut alloc, alg, c.num_cores()).expect("bcast lines");
        if c.core() == CoreId(0) {
            c.mem_write(0, &payload).expect("payload fits");
        }
        b.bcast(c, CoreId(0), range).expect("broadcast completes");
        c.mem_to_vec(range).expect("range fits") == payload
    })
    .expect("run completes");
    assert!(rep.results.iter().all(|&ok| ok), "a core holds a wrong payload");
    let s = &rep.stats;
    (
        rep.makespan.as_ps(),
        s.events,
        s.lines_moved,
        s.port_wait.as_ps(),
        s.router_wait.as_ps(),
        s.mc_wait.as_ps(),
    )
}

#[test]
fn large_broadcasts_reproduce_the_pinned_virtual_times() {
    let pins: [(&str, Algorithm, Pin); 4] = [
        (
            "k=2",
            Algorithm::oc_with_k(2),
            (890_216_000, 77_258, 74_609, 221_774_000, 18_162_000, 242_491_000),
        ),
        (
            "k=7",
            Algorithm::oc_with_k(7),
            (814_654_000, 77_468, 74_679, 476_510_000, 25_601_000, 367_439_000),
        ),
        (
            "k=47",
            Algorithm::oc_with_k(47),
            (901_787_000, 77_447, 74_672, 5_607_508_000, 23_956_000, 412_772_000),
        ),
        (
            "binomial",
            Algorithm::Binomial,
            (4_219_731_000, 75_862, 73_650, 2_192_000, 495_000, 179_447_000),
        ),
    ];
    for (label, alg, pin) in pins {
        assert_eq!(bcast_768(alg), pin, "{label} x {LINES} CL moved in virtual time");
    }
}
