//! Bit-equality pin for the reliable/plain protocol matrix: OC-Bcast
//! k ∈ {2, 7, 47} and binomial × {plain, reliable fault-free, reliable
//! under the `audit` experiment's fault plan} × four message sizes ×
//! two roots, each recorded on the full chip and reduced to one line —
//! makespan (ps), `SimStats`, `RelStats` summed over the cores, and
//! the FNV-1a-64 of the Chrome trace document. The lines in
//! `one_loop_pin.txt` were taken (by this file's `pin_line`, driving
//! `OcBcast::bcast` / `bcast_reliable` / `binomial_bcast` /
//! `ReliableBinomial` by hand) while OC-Bcast still had a separate
//! reliable chunk loop; the single loop behind `Broadcaster` must
//! reproduce every one. A line that moves means virtual time moved.

use oc_bcast::{Algorithm, Broadcaster, RelStats, Reliability};
use scc_bench::policy;
use scc_hal::{CoreId, MemRange, Rma, RmaResult, Time};
use scc_obs::chrome_trace_json;
use scc_rcce::MpbAllocator;
use scc_sim::{run_spmd, FaultPlan, SimConfig};

const PINS: &str = include_str!("one_loop_pin.txt");

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// The `audit` experiment's fault plan.
fn faulty_plan() -> FaultPlan {
    FaultPlan {
        drop_notification_ppm: 50_000,
        delay_ppm: 25_000,
        delay: Time::from_us_f64(5.0),
        ..FaultPlan::default()
    }
}

/// `(name, reliability policy, fault plan)`.
fn modes() -> [(&'static str, Option<Reliability>, FaultPlan); 3] {
    [
        ("plain", None, FaultPlan::default()),
        ("reliable", Some(policy()), FaultPlan::default()),
        ("faulted", Some(policy()), faulty_plan()),
    ]
}

/// Record one broadcast and reduce it to its pin line.
fn pin_line(
    alg: Algorithm,
    mode: &(&str, Option<Reliability>, FaultPlan),
    lines: usize,
    root: u8,
) -> String {
    let (name, policy, faults) = mode.clone();
    let bytes = lines * 32;
    let cfg = SimConfig {
        num_cores: 48,
        mem_bytes: 1 << 20,
        record: true,
        faults,
        ..SimConfig::default()
    };
    let rep = run_spmd(&cfg, move |c| -> RmaResult<RelStats> {
        let mut alloc = MpbAllocator::new();
        let r = MemRange::new(0, bytes);
        let root = CoreId(root);
        if c.core() == root {
            let payload: Vec<u8> = (0..bytes).map(|i| (i % 253) as u8).collect();
            c.mem_write(0, &payload)?;
        }
        let n = c.num_cores();
        let mut b = match policy {
            None => Broadcaster::new(&mut alloc, alg, n).expect("MPB"),
            Some(policy) => Broadcaster::new_reliable(&mut alloc, alg, n, policy).expect("MPB"),
        };
        b.bcast(c, root, r)?;
        Ok(b.rel_stats())
    })
    .expect("run");
    let mut rel = RelStats::default();
    for r in &rep.results {
        rel.accumulate(*r.as_ref().expect("core result"));
    }
    let doc = chrome_trace_json(rep.events.as_deref().expect("recording was enabled"));
    format!(
        "{} {name} {lines}cl root={root} makespan_ps={} events={} ops={} stats={:#018x} \
         rel={}/{}/{}/{} chrome={:#018x}",
        alg.label(),
        rep.makespan.as_ps(),
        rep.stats.events,
        rep.stats.ops,
        fnv1a64(format!("{:?}", rep.stats).as_bytes()),
        rel.timeouts,
        rel.probes,
        rel.recoveries,
        rel.renotifies,
        fnv1a64(doc.as_bytes()),
    )
}

/// Re-run every case of `alg` and compare with its pinned lines.
fn check(alg: Algorithm) {
    let prefix = format!("{} ", alg.label());
    let mut pinned = PINS.lines().filter(|l| l.starts_with(&prefix));
    for mode in modes() {
        for lines in [1usize, 96, 97, 200] {
            for root in [0u8, 47] {
                assert_eq!(Some(pin_line(alg, &mode, lines, root).as_str()), pinned.next());
            }
        }
    }
    assert_eq!(pinned.next(), None, "{}: pinned cases nobody ran", alg.label());
}

#[test]
fn oc_k2_is_pinned() {
    check(Algorithm::oc_with_k(2));
}

#[test]
fn oc_k7_is_pinned() {
    check(Algorithm::oc_with_k(7));
}

#[test]
fn oc_k47_is_pinned() {
    check(Algorithm::oc_with_k(47));
}

#[test]
fn binomial_is_pinned() {
    check(Algorithm::Binomial);
}
