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
//!
//! The `rma-s-ag` lines were taken the same way while `RmaSag` still had
//! its own push/pull loops and MPB layout; `scc_rcce::Pipe` must
//! reproduce them. They end in `stream=` — the FNV-1a-64 of the
//! recorded events' `Debug` text — instead of `chrome=`, because the
//! Chrome document drops message tags and flag lines.

use oc_bcast::{Algorithm, Broadcaster, RelStats, Reliability};
use scc_bench::policy;
use scc_hal::{CoreId, MemRange, Rma, RmaResult, Time};
use scc_obs::chrome_trace_json;
use scc_rcce::MpbAllocator;
use scc_sim::{run_spmd, FaultPlan, SimConfig};
use std::fmt::{Display, Write};

const PINS: &str = include_str!("one_loop_pin.txt");

/// FNV-1a-64 of `text` as displayed, without building the string (the
/// `Debug` text of a 9 216 CL run's events is about a gigabyte).
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

/// Record `roots.len()` back-to-back broadcasts of `bytes` on one
/// `cores`-core context and reduce the run to its pin line, ending in
/// the digest of the Chrome document or, with `stream`, of the recorded
/// events themselves.
fn pin_line(
    alg: Algorithm,
    mode: &(&str, Option<Reliability>, FaultPlan),
    (cores, bytes): (usize, usize),
    roots: &[u8],
    stream: bool,
) -> String {
    let (name, policy, faults) = mode.clone();
    let cfg = SimConfig {
        num_cores: cores,
        mem_bytes: 1 << 20,
        record: true,
        faults,
        ..SimConfig::default()
    };
    let rounds = roots.to_vec();
    let rep = run_spmd(&cfg, move |c| -> RmaResult<RelStats> {
        let mut alloc = MpbAllocator::new();
        let r = MemRange::new(0, bytes);
        let n = c.num_cores();
        let mut b = match policy {
            None => Broadcaster::new(&mut alloc, alg, n).expect("MPB"),
            Some(policy) => Broadcaster::new_reliable(&mut alloc, alg, n, policy).expect("MPB"),
        };
        for &root in &rounds {
            let root = CoreId(root);
            if c.core() == root {
                let payload: Vec<u8> = (0..bytes).map(|i| (i % 253) as u8).collect();
                c.mem_write(0, &payload)?;
            }
            b.bcast(c, root, r)?;
        }
        Ok(b.rel_stats())
    })
    .expect("run");
    let mut rel = RelStats::default();
    for r in &rep.results {
        rel.accumulate(*r.as_ref().expect("core result"));
    }
    let events = rep.events.as_deref().expect("recording was enabled");
    let size = if bytes % 32 == 0 { format!("{}cl", bytes / 32) } else { format!("{bytes}b") };
    let roots = roots.iter().map(u8::to_string).collect::<Vec<_>>().join(",");
    // The event digest subsumes the Chrome one (the document is a
    // function of the events, ~0.8 GB of text at 9 216 CL).
    let digest = if stream {
        format!("cores={cores} stream={:#018x}", fnv1a64(format_args!("{events:?}")))
    } else {
        format!("chrome={:#018x}", fnv1a64(chrome_trace_json(events)))
    };
    format!(
        "{} {name} {size} root={roots} makespan_ps={} events={} ops={} stats={:#018x} \
         rel={}/{}/{}/{} {digest}",
        alg.label(),
        rep.makespan.as_ps(),
        rep.stats.events,
        rep.stats.ops,
        fnv1a64(format_args!("{:?}", rep.stats)),
        rel.timeouts,
        rel.probes,
        rel.recoveries,
        rel.renotifies,
    )
}

/// Re-run every case of `alg` and compare with its pinned lines.
fn check(alg: Algorithm) {
    let prefix = format!("{} ", alg.label());
    let mut pinned = PINS.lines().filter(|l| l.starts_with(&prefix));
    for mode in modes() {
        for lines in [1usize, 96, 97, 200] {
            for root in [0u8, 47] {
                let line = pin_line(alg, &mode, (48, lines * 32), &[root], false);
                assert_eq!(Some(line.as_str()), pinned.next());
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

/// The one-sided scatter-allgather through the shared `Pipe`: sizes up
/// to the last that fits the double-buffered window (48 × 192 CL), and
/// one context reused across three roots (what `quiesced()` guards).
#[test]
fn rma_s_ag_is_pinned() {
    let alg = Algorithm::RmaScatterAllgather;
    let plain = &modes()[0];
    let mut pinned = PINS.lines().filter(|l| l.starts_with("rma-s-ag "));
    for lines in [1usize, 96, 97, 3840, 9216] {
        for root in [0u8, 47] {
            let line = pin_line(alg, plain, (48, lines * 32), &[root], true);
            assert_eq!(Some(line.as_str()), pinned.next());
        }
    }
    let line = pin_line(alg, plain, (12, 7000), &[0, 5, 10], true);
    assert_eq!(Some(line.as_str()), pinned.next());
    assert_eq!(pinned.next(), None, "rma-s-ag: pinned cases nobody ran");
}
