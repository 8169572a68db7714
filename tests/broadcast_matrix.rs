//! Cross-crate integration matrix: every broadcast algorithm × both
//! execution engines × message sizes × core counts × sources — plain
//! and, where the algorithm has one, its reliable variant — always
//! verifying payload content at every core.

use oc_bcast::{Algorithm, Broadcaster, Reliability};
use scc_hal::{CoreId, MemRange, Rma, RmaError, RmaExt, RmaResult, Time};
use scc_rcce::MpbAllocator;

fn pattern(len: usize, seed: u8) -> Vec<u8> {
    (0..len).map(|i| (i as u8).wrapping_mul(131).wrapping_add(seed)).collect()
}

/// How a matrix point builds its [`Broadcaster`] and how often it
/// broadcasts on it.
#[derive(Clone, Copy)]
struct Setup {
    alg: Algorithm,
    /// `Some` runs the algorithm's reliable variant under this policy.
    reliability: Option<Reliability>,
    /// Back-to-back broadcasts on the one context.
    rounds: u8,
}

impl Setup {
    fn plain(alg: Algorithm) -> Setup {
        Setup { alg, reliability: None, rounds: 1 }
    }

    fn name(&self) -> String {
        let mode = if self.reliability.is_some() { " reliable" } else { "" };
        format!("{}{mode} x{}", self.alg.label(), self.rounds)
    }
}

/// The SPMD body shared by both engines: `rounds` broadcasts of `msg`
/// (round `i` adds `i` to every byte, so a stale buffer never
/// verifies) on one context, returning what the last one delivered.
fn body<R: Rma>(c: &mut R, setup: Setup, root: u8, msg: &[u8]) -> RmaResult<Vec<u8>> {
    let mut alloc = MpbAllocator::new();
    let (alg, n) = (setup.alg, c.num_cores());
    let mut b = match setup.reliability {
        None => Broadcaster::new(&mut alloc, alg, n).map_err(|e| e.to_string()),
        Some(policy) => {
            Broadcaster::new_reliable(&mut alloc, alg, n, policy).map_err(|e| e.to_string())
        }
    }
    .map_err(RmaError::Engine)?;
    let r = MemRange::new(0, msg.len());
    for round in 0..setup.rounds {
        let sent: Vec<u8> = msg.iter().map(|b| b.wrapping_add(round)).collect();
        if c.core() == CoreId(root) {
            c.mem_write(0, &sent)?;
        }
        b.bcast(c, CoreId(root), r)?;
        if round + 1 < setup.rounds && c.mem_to_vec(r)? != sent {
            return Err(RmaError::Engine(format!("round {round} delivered the wrong payload")));
        }
    }
    c.mem_to_vec(r)
}

fn algorithms() -> Vec<Algorithm> {
    vec![
        Algorithm::oc_default(),
        Algorithm::oc_with_k(2),
        Algorithm::oc_with_k(47),
        Algorithm::Binomial,
        Algorithm::ScatterAllgather,
        Algorithm::RmaScatterAllgather,
    ]
}

/// What every core must hold after `setup.rounds` rounds of `msg`.
fn expected(setup: Setup, msg: &[u8]) -> Vec<u8> {
    msg.iter().map(|b| b.wrapping_add(setup.rounds - 1)).collect()
}

fn check_sim(p: usize, setup: Setup, root: u8, len: usize) {
    let msg = pattern(len, root.wrapping_add(p as u8));
    let expect = expected(setup, &msg);
    let cfg = scc_sim::SimConfig { num_cores: p, mem_bytes: 1 << 20, ..Default::default() };
    let rep = scc_sim::run_spmd(&cfg, move |c| body(c, setup, root, &msg))
        .unwrap_or_else(|e| panic!("sim p={p} {} root={root} len={len}: {e}", setup.name()));
    for (i, r) in rep.results.iter().enumerate() {
        assert_eq!(
            r.as_ref().expect("core result"),
            &expect,
            "sim core {i}: p={p} {} root={root} len={len}",
            setup.name()
        );
    }
}

fn check_rt(p: usize, setup: Setup, root: u8, len: usize) {
    let msg = pattern(len, root.wrapping_mul(3));
    let expect = expected(setup, &msg);
    let cfg = scc_rt::RtConfig { num_cores: p, mem_bytes: 1 << 20 };
    let rep = scc_rt::run_spmd(&cfg, move |c| body(c, setup, root, &msg)).expect("rt run");
    for (i, r) in rep.results.iter().enumerate() {
        assert_eq!(
            r.as_ref().expect("core result"),
            &expect,
            "rt core {i}: p={p} {} root={root} len={len}",
            setup.name()
        );
    }
}

#[test]
fn sim_all_algorithms_all_sizes() {
    for alg in algorithms() {
        for len in [1usize, 31, 32, 33, 96 * 32, 97 * 32, 3 * 96 * 32 + 5] {
            check_sim(12, Setup::plain(alg), 0, len);
        }
    }
}

#[test]
fn sim_full_chip() {
    for alg in algorithms() {
        check_sim(48, Setup::plain(alg), 0, 2500);
    }
}

#[test]
fn sim_various_core_counts() {
    for p in [2usize, 3, 5, 8, 17, 31, 48] {
        for alg in [Algorithm::oc_default(), Algorithm::Binomial, Algorithm::ScatterAllgather] {
            check_sim(p, Setup::plain(alg), 0, 777);
        }
    }
}

#[test]
fn sim_various_roots() {
    for root in [1u8, 5, 11] {
        for alg in algorithms() {
            check_sim(12, Setup::plain(alg), root, 900);
        }
    }
}

#[test]
fn sim_one_megabyte() {
    // The largest message of Figure 8b: 2 731 CL per slice, far past
    // the two chunks a one-sided window holds.
    for alg in
        [Algorithm::oc_default(), Algorithm::ScatterAllgather, Algorithm::RmaScatterAllgather]
    {
        check_sim(12, Setup::plain(alg), 0, 1 << 20);
    }
}

#[test]
fn rt_all_algorithms() {
    for alg in algorithms() {
        check_rt(6, Setup::plain(alg), 0, 5000);
        // Slices longer than a double-buffered window, context reused.
        check_rt(4, Setup { rounds: 2, ..Setup::plain(alg) }, 1, 4 * 200 * 32);
    }
}

#[test]
fn rt_non_zero_root_and_odd_p() {
    check_rt(5, Setup::plain(Algorithm::oc_default()), 3, 1234);
    check_rt(3, Setup::plain(Algorithm::ScatterAllgather), 2, 4096);
    check_rt(7, Setup::plain(Algorithm::Binomial), 6, 64);
}

/// The reliable mode as one more input of the matrix: a 3-chunk
/// payload, three back-to-back broadcasts on one context. On threads a
/// deadline is wall-clock, so spurious timeouts (and the harmless
/// probes they trigger) are legal — delivery is what is asserted.
fn reliable_points() -> impl Iterator<Item = (usize, Setup)> {
    // Patient enough that an oversubscribed host never exhausts the
    // retry budget of a healthy wait.
    let policy = Reliability { timeout: Time::from_us_f64(2_000.0), ..Reliability::standard() };
    let algs = [Algorithm::oc_with_k(2), Algorithm::oc_with_k(7), Algorithm::Binomial];
    [2usize, 7, 24]
        .into_iter()
        .flat_map(move |p| algs.map(|alg| (p, Setup { alg, reliability: Some(policy), rounds: 3 })))
}

const THREE_CHUNKS: usize = 2 * 96 * 32 + 40;

#[test]
fn sim_reliable_mode() {
    for (p, setup) in reliable_points() {
        check_sim(p, setup, (p - 1) as u8, THREE_CHUNKS);
    }
}

#[test]
fn rt_reliable_mode() {
    for (p, setup) in reliable_points() {
        check_rt(p, setup, (p - 1) as u8, THREE_CHUNKS);
    }
}

#[test]
fn rt_repeated_broadcasts_rotating_roots() {
    let cfg = scc_rt::RtConfig { num_cores: 4, mem_bytes: 1 << 16 };
    let rep = scc_rt::run_spmd(&cfg, |c| -> RmaResult<bool> {
        let mut alloc = MpbAllocator::new();
        let mut b = Broadcaster::new(&mut alloc, Algorithm::oc_default(), 4).expect("ctx");
        let mut ok = true;
        for round in 0..16u8 {
            let root = CoreId(round % 4);
            let msg = pattern(100 + round as usize * 37, round);
            let r = MemRange::new(0, msg.len());
            if c.core() == root {
                c.mem_write(0, &msg)?;
            }
            b.bcast(c, root, r)?;
            ok &= c.mem_to_vec(r)? == msg;
        }
        Ok(ok)
    })
    .expect("rt");
    assert!(rep.results.into_iter().all(|r| r.expect("core")));
}
