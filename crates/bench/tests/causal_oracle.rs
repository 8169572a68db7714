//! `CausalGraph` keeps bookings as per-resource chains in service
//! order and certifies acyclicity in stream order. The builder it
//! replaced — one materialised edge per service link, `sort_unstable`
//! per resource, Kahn's algorithm over every node — is kept here as the
//! oracle: on recorded streams, their mutants and hand-built graphs,
//! both must report the same edges, the same backwards edges in the
//! same order and the same acyclicity verdict.

use oc_bcast::Algorithm;
use scc_bench::{policy, Run, Scenario};
use scc_hal::Time;
use scc_obs::{actor, mutate, CausalGraph, Edge, EdgeKind, MutationClass, ObsEvent, PerCore};
use scc_sim::FaultPlan;
use std::time::Instant;

/// `CausalGraph::build` as it was: every edge materialised, service
/// edges last, in resource order.
fn oracle_edges(events: &[ObsEvent]) -> Vec<Edge> {
    let mut edges = Vec::new();
    let mut prev: PerCore<Option<usize>> = PerCore::new();
    let mut pending_handoff: PerCore<Option<usize>> = PerCore::new();
    let mut last_commit: PerCore<Option<usize>> = PerCore::new();
    let mut service: Vec<Vec<(Time, usize)>> = vec![Vec::new(); scc_obs::ResourceId::SLOTS];
    let mut open_window: PerCore<Vec<(u32, usize)>> = PerCore::new();
    for (i, ev) in events.iter().enumerate() {
        match *ev {
            ObsEvent::Wait { resource, start, .. } => {
                service[resource.index()].push((start, i));
                continue;
            }
            ObsEvent::Handoff { to, .. } => {
                *pending_handoff.at(to) = Some(i);
                continue;
            }
            _ => {}
        }
        let a = actor(ev);
        if let Some(p) = prev.at(a).replace(i) {
            edges.push(Edge { from: p, to: i, kind: EdgeKind::Program });
        }
        if let Some(h) = pending_handoff.take(a) {
            edges.push(Edge { from: h, to: i, kind: EdgeKind::Handoff });
        }
        match *ev {
            ObsEvent::MpbWrite { writer, .. } => *last_commit.at(writer) = Some(i),
            ObsEvent::Wake { core, line, at, writer } if writer != core => {
                let commit = last_commit.at(writer).filter(|&c| {
                    matches!(events[c], ObsEvent::MpbWrite { owner, line: l, lines, at: w_at, .. }
                        if w_at == at && owner == core && (l..l + lines).contains(&line))
                });
                let fallback = || prev.at(writer).filter(|&p| events[p].at() <= at);
                if let Some(src) = commit.or_else(fallback) {
                    if src != i {
                        edges.push(Edge { from: src, to: i, kind: EdgeKind::Wake });
                    }
                }
            }
            ObsEvent::DeliveryBegin { core, epoch, .. } => {
                let open = open_window.at(core);
                match open.iter_mut().find(|w| w.0 == epoch) {
                    Some(w) => w.1 = i,
                    None => open.push((epoch, i)),
                }
            }
            ObsEvent::DeliveryEnd { core, epoch, .. } => {
                let open = open_window.at(core);
                if let Some(pos) = open.iter().position(|w| w.0 == epoch) {
                    let (_, b) = open.swap_remove(pos);
                    edges.push(Edge { from: b, to: i, kind: EdgeKind::Window });
                }
            }
            _ => {}
        }
    }
    for bookings in &mut service {
        bookings.sort_unstable();
        for w in bookings.windows(2) {
            edges.push(Edge { from: w[0].1, to: w[1].1, kind: EdgeKind::Service });
        }
    }
    edges
}

/// Kahn's algorithm over every node, as `acyclic` always ran it.
fn oracle_acyclic(n: usize, edges: &[Edge]) -> Result<(), Vec<usize>> {
    let mut indegree = vec![0usize; n];
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for e in edges {
        adj[e.from].push(e.to);
        indegree[e.to] += 1;
    }
    let mut stack: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
    while let Some(u) = stack.pop() {
        for &v in &adj[u] {
            indegree[v] -= 1;
            if indegree[v] == 0 {
                stack.push(v);
            }
        }
    }
    let stuck: Vec<usize> = (0..n).filter(|&i| indegree[i] > 0).collect();
    if stuck.is_empty() {
        Ok(())
    } else {
        Err(stuck)
    }
}

/// `time_violations` as it was: a filter over the materialised edges.
fn oracle_time_violations(events: &[ObsEvent], edges: &[Edge]) -> Vec<Edge> {
    let span = |ev: &ObsEvent| match *ev {
        ObsEvent::Wait { start, end, .. } => (start, end),
        _ => (ev.at(), ev.at()),
    };
    edges
        .iter()
        .copied()
        .filter(|e| match e.kind {
            EdgeKind::Service => span(&events[e.from]).1 > span(&events[e.to]).0,
            _ => events[e.from].at() > events[e.to].at(),
        })
        .collect()
}

/// The graph of `events` answers every question as the oracle does.
fn assert_agrees(events: &[ObsEvent], what: &str) {
    let want = oracle_edges(events);
    let g = CausalGraph::build(events);
    let (service, explicit): (Vec<Edge>, Vec<Edge>) =
        want.iter().partition(|e| e.kind == EdgeKind::Service);
    assert_eq!(g.edge_count(), want.len(), "{what}: edge count");
    assert!(g.edges == explicit, "{what}: explicit edges differ");
    assert!(g.service_edges().eq(service), "{what}: service edges differ");
    assert_eq!(g.time_violations(), oracle_time_violations(events, &want), "{what}");
    assert_eq!(g.acyclic(), oracle_acyclic(events.len(), &want), "{what}: acyclicity");
}

/// The `audit` experiment's nine scenarios at 16 cache lines, each
/// stream checked as recorded; the faulted one, which has a site for
/// every class, also under 20 seeds of each mutation class.
fn audit_scenarios_agree(alg: Algorithm, name: &str) {
    let faults = FaultPlan {
        drop_notification_ppm: 50_000,
        delay_ppm: 25_000,
        delay: Time::from_us_f64(5.0),
        ..FaultPlan::default()
    };
    let sc = Scenario::new(alg, 48, 16);
    let runs = [
        ("plain", Run { record: true, ..Run::default() }),
        ("reliable", Run { policy: Some(policy()), record: true, ..Run::default() }),
        ("faulted", Run { faults, policy: Some(policy()), record: true, ..Run::default() }),
    ];
    for (mode, run) in runs {
        let (events, _) = sc.run(&run).and_then(|o| o.recorded()).expect("run");
        assert_agrees(&events, &format!("{name} {mode}"));
        if mode != "faulted" {
            continue;
        }
        let mut corrupted = Vec::new();
        for class in MutationClass::ALL {
            for seed in (0..20u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xC0FFEE) {
                corrupted.clone_from(&events);
                let what = mutate(&mut corrupted, class, seed).expect("a site for every class");
                assert_agrees(&corrupted, &format!("{name} {class} seed {seed:#x}: {what}"));
            }
        }
    }
}

#[test]
fn oc_k47_streams_agree_with_the_oracle() {
    audit_scenarios_agree(Algorithm::oc_with_k(47), "oc_k47");
}

#[test]
fn oc_k7_streams_agree_with_the_oracle() {
    audit_scenarios_agree(Algorithm::oc_with_k(7), "oc_k7");
}

#[test]
fn binomial_streams_agree_with_the_oracle() {
    audit_scenarios_agree(Algorithm::Binomial, "binomial");
}

/// A booking of port `port` whose service starts at `start` ns.
fn booking_at(port: u8, start: u64) -> ObsEvent {
    ObsEvent::Wait {
        core: scc_hal::CoreId(0),
        resource: scc_obs::ResourceId::Port(port),
        arrival: Time::ZERO,
        start: Time::from_ns(start),
        end: Time::from_ns(start + 1),
        link: None,
    }
}

fn booking(start: u64) -> ObsEvent {
    booking_at(3, start)
}

#[test]
fn tied_and_late_bookings_agree_with_the_oracle() {
    // Three ports, starts tied in pairs, and every tenth booking served
    // early (a late arrival in a gap): ties are broken by stream index.
    let events: Vec<ObsEvent> = (0..3_000u64)
        .map(|i| booking_at(i as u8 % 3, (i / 6).saturating_sub(if i % 10 == 9 { 4 } else { 0 })))
        .collect();
    assert_agrees(&events, "tied and late bookings");
}

#[test]
fn a_reversed_booking_stream_builds_in_n_log_n() {
    // 50 000 bookings in reverse service order: insertion alone would
    // move 1.25 G entries; past its budget the chain is sorted instead.
    let events: Vec<ObsEvent> = (0..50_000u64).rev().map(booking).collect();
    let t = Instant::now();
    let g = CausalGraph::build(&events);
    let took = t.elapsed();
    assert!(took.as_secs_f64() < 2.0, "build took {took:?}");
    let want: Vec<usize> = (0..events.len()).rev().collect();
    let got: Vec<usize> = g.service_edges().map(|e| e.from).chain([0]).collect();
    assert!(got == want, "the chain is not in service order");
    assert_eq!(g.edge_count(), events.len() - 1);
    assert!(g.time_violations().is_empty());
    g.acyclic().unwrap();
}

#[test]
fn a_cycle_through_chain_members_is_reported() {
    // Three bookings of one port served in reverse stream order, so the
    // chain runs 2 → 1 → 0; an edge 0 → 2 runs forward in the stream
    // but closes the chain into a ring.
    let events = [booking(20), booking(10), booking(0)];
    let ring = Edge { from: 0, to: 2, kind: EdgeKind::Wake };
    let mut g = CausalGraph::build(&events);
    g.edges.push(ring);
    let mut want = oracle_edges(&events);
    want.push(ring);
    assert_eq!(g.acyclic(), Err(vec![0, 1, 2]));
    assert_eq!(g.acyclic(), oracle_acyclic(events.len(), &want));
    // The same pair along the chain is no cycle, though that edge runs
    // backwards in the stream.
    g.edges[0] = Edge { from: 2, to: 0, kind: EdgeKind::Wake };
    assert_eq!(g.acyclic(), Ok(()));
}
