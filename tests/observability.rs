//! Cross-crate checks of the observability layer (DESIGN.md
//! "Observability"): the critical-path extractor against the paper's
//! analytical model, the per-resource stats breakdowns against their
//! aggregates, and the Chrome-trace exporter on a real broadcast.

use oc_bcast::{Algorithm, Broadcaster, OcConfig};
use scc_hal::{
    delivering, spanned, tagged, CoreId, FlagValue, MemRange, MpbAddr, MsgId, Phase, Rma, RmaExt,
    RmaResult, Span, Time,
};
use scc_model::{ModelParams, P2p};
use scc_obs::{
    chrome_trace_json, critical_path, validate_json, CostClass, DiffReport, JourneyBook, ObsEvent,
    OpKind, PhaseProfile, RunHistograms, SegmentKind,
};
use scc_rcce::MpbAllocator;
use scc_sim::{run_spmd, SimConfig, SimParams, SimReport};

fn record_bcast(p: usize, alg: Algorithm, lines: usize) -> SimReport<RmaResult<()>> {
    let bytes = lines * 32;
    let cfg = SimConfig { num_cores: p, mem_bytes: 1 << 20, record: true, ..SimConfig::default() };
    run_spmd(&cfg, move |c| -> RmaResult<()> {
        let mut alloc = MpbAllocator::new();
        let mut b = Broadcaster::new(&mut alloc, alg, p).expect("MPB layout");
        let r = MemRange::new(0, bytes);
        if c.core().index() == 0 {
            c.mem_write(0, &vec![0xA5u8; bytes])?;
        }
        b.bcast(c, CoreId(0), r)
    })
    .expect("simulation")
}

/// Satellite: the critical path of an uncontended two-core exchange
/// equals the hand-computed model time. Core 0 `put`s `m` lines into
/// core 1's MPB and raises a flag; core 1 polls, parks, and re-polls on
/// the wake. The extracted path must be exactly
/// `C^mem_put(m, d_mem, d) + C^mpb_put(1, d) + C^mpb_r(1)` with
/// Table-1 parameters, and must cover the makespan with contiguous,
/// non-overlapping segments.
#[test]
fn critical_path_matches_logp_model_on_uncontended_exchange() {
    let m = 8usize;
    let flag_line = m;
    let cfg = SimConfig { num_cores: 2, mem_bytes: 4096, record: true, ..SimConfig::default() };
    let rep = run_spmd(&cfg, move |c| -> RmaResult<()> {
        if c.core().index() == 0 {
            c.mem_write(0, &vec![0x3Cu8; m * 32])?;
            c.put_from_mem(MemRange::new(0, m * 32), MpbAddr::new(CoreId(1), 0))?;
            c.flag_put(MpbAddr::new(CoreId(1), flag_line), FlagValue(1))?;
        } else {
            c.flag_wait_eq(flag_line, FlagValue(1))?;
        }
        Ok(())
    })
    .expect("simulation");
    let events = rep.events.as_deref().expect("recording enabled");
    let cp = critical_path(events).expect("non-empty stream");

    // Coverage: contiguous, non-overlapping, the whole run.
    assert_eq!(cp.start, Time::ZERO);
    assert_eq!(cp.end, rep.makespan);
    let mut cursor = cp.start;
    for s in &cp.segments {
        assert_eq!(s.start, cursor, "segments must be contiguous: {cp:?}");
        assert!(s.end > s.start, "segments must have positive length");
        cursor = s.end;
    }
    assert_eq!(cursor, cp.end);
    assert_eq!(cp.breakdown().total(), cp.total(), "breakdown must sum to the path");

    // The path is: C0's bulk put, C0's flag put, C1's wake re-poll.
    let kinds: Vec<(u8, SegmentKind)> = cp.segments.iter().map(|s| (s.core.0, s.kind)).collect();
    assert_eq!(
        kinds,
        vec![
            (0, SegmentKind::Op(OpKind::PutFromMem)),
            (0, SegmentKind::Op(OpKind::FlagPut)),
            (1, SegmentKind::Op(OpKind::FlagRead)),
        ],
        "{cp:?}"
    );

    // Hand-computed LogP time from the paper's formulas (Table 1).
    let model = P2p::new(ModelParams::paper());
    let d = CoreId(0).mpb_distance(CoreId(1));
    let d_mem = CoreId(0).mem_distance();
    let expect = model.c_put_mem(m, d_mem, d) + model.c_put_mpb(1, d) + model.c_mpb_r(1);
    assert!(
        (cp.total().as_us_f64() - expect).abs() < 1e-6,
        "critical path {} must equal the model's {expect:.6} us",
        cp.total()
    );
    // Per-segment agreement, too: each leg is the corresponding formula.
    let legs = [model.c_put_mem(m, d_mem, d), model.c_put_mpb(1, d), model.c_mpb_r(1)];
    for (s, leg) in cp.segments.iter().zip(legs) {
        assert!(
            (s.duration().as_us_f64() - leg).abs() < 1e-6,
            "segment {s:?} must take {leg:.6} us"
        );
    }
    // Uncontended: no queueing anywhere on the path.
    let b = cp.breakdown();
    assert_eq!(b.port_wait + b.router_wait + b.mc_wait, Time::ZERO);
    assert_eq!(b.idle, Time::ZERO);
}

/// Satellite: the per-tile / per-controller SimStats vectors partition
/// their aggregates exactly, on a contended full-chip broadcast.
#[test]
fn per_resource_stats_sum_to_aggregates() {
    let rep = record_bcast(48, Algorithm::OcBcast(OcConfig::with_k(7)), 96);
    for r in &rep.results {
        r.as_ref().unwrap();
    }
    let s = &rep.stats;
    let sum = |v: &[Time]| v.iter().fold(Time::ZERO, |a, &b| a + b);
    assert_eq!(s.port_wait_by_tile.len(), 24);
    assert_eq!(s.router_wait_by_tile.len(), 24);
    assert_eq!(s.mc_wait_by_ctrl.len(), 4);
    assert_eq!(sum(&s.port_wait_by_tile), s.port_wait, "port wait must partition");
    assert_eq!(sum(&s.port_busy_by_tile), s.port_busy, "port busy must partition");
    assert_eq!(sum(&s.router_wait_by_tile), s.router_wait, "router wait must partition");
    assert_eq!(sum(&s.router_busy_by_tile), s.router_busy, "router busy must partition");
    assert_eq!(sum(&s.mc_wait_by_ctrl), s.mc_wait, "mc wait must partition");
    assert_eq!(sum(&s.mc_busy_by_ctrl), s.mc_busy, "mc busy must partition");
    // The guard is only meaningful if the run actually contended.
    assert!(s.port_wait > Time::ZERO, "48-core k=7 broadcast must queue at ports");
    // And the recorded Wait events agree with the aggregate wait, class
    // by class (the chip books both from the same reservation).
    let events = rep.events.as_deref().unwrap();
    let mut by_class = [Time::ZERO; 3];
    for ev in events {
        if let ObsEvent::Wait { resource, arrival, start, .. } = *ev {
            let i = match resource.class() {
                "port" => 0,
                "router" => 1,
                _ => 2,
            };
            by_class[i] += start - arrival;
        }
    }
    assert_eq!(by_class[0], s.port_wait);
    assert_eq!(by_class[1], s.router_wait);
    assert_eq!(by_class[2], s.mc_wait);
}

/// Satellite: phase latency histograms on an uncontended two-core
/// exchange. Core 0 repeats the same `m`-line bulk put five times, each
/// wrapped in a `Dissemination` span; the simulator is deterministic
/// and nothing queues, so all five samples are identical —
/// p50 == p99 == max — and each equals the paper's `C^mem_put` formula.
#[test]
fn histogram_quantiles_collapse_to_the_model_on_uncontended_exchange() {
    let m = 8usize;
    let rounds = 5u32;
    let cfg = SimConfig { num_cores: 2, mem_bytes: 4096, record: true, ..SimConfig::default() };
    let rep = run_spmd(&cfg, move |c| -> RmaResult<()> {
        if c.core().index() == 0 {
            c.mem_write(0, &vec![0x3Cu8; m * 32])?;
            for i in 0..rounds {
                spanned(c, Span::new(Phase::Dissemination, i), |c| {
                    c.put_from_mem(MemRange::new(0, m * 32), MpbAddr::new(CoreId(1), 0))
                })?;
            }
        }
        Ok(())
    })
    .expect("simulation");
    let events = rep.events.as_deref().expect("recording enabled");
    let mut hg = RunHistograms::build(events);

    let h = hg.phases.get_mut("disseminate").expect("span samples recorded");
    assert_eq!(h.count(), rounds as usize);
    let (p50, p99) = (h.quantile(0.50).unwrap(), h.quantile(0.99).unwrap());
    assert_eq!(p50, p99, "deterministic uncontended samples must be identical");
    assert_eq!(p50, h.max().unwrap());

    // Each sample is exactly one bulk put: the LogP-style model formula.
    let model = P2p::new(ModelParams::paper());
    let d = CoreId(0).mpb_distance(CoreId(1));
    let d_mem = CoreId(0).mem_distance();
    let expect = model.c_put_mem(m, d_mem, d);
    assert!(
        (p50.as_us_f64() - expect).abs() < 1e-6,
        "phase p50 {} must equal the model's {expect:.6} us",
        p50
    );
    // Uncontended: whatever wait series exist, they never queued.
    for (class, h) in hg.waits.iter_mut() {
        assert_eq!(h.max(), Some(Time::ZERO), "{class} queued on an uncontended run");
    }
}

/// Tentpole invariant on real contended runs: a differential critical
/// path between the nominal flat-tree broadcast and the same scenario
/// with MPB port service scaled 1.5x must conserve the makespan delta
/// *exactly* — every picosecond of slowdown is attributed to some
/// (phase × resource) cell, none smoothed or dropped — and the dominant
/// cell must blame the ports.
#[test]
fn differential_critical_path_conserves_makespan_exactly() {
    let sc = scc_bench::representative_scenario("fig4"); // k=47, 48 cores, 96 CL
    let nominal = SimParams::default();
    let slowed = nominal.scaled(CostClass::PortService, 1.5);
    let (base_ev, base_mk) = scc_bench::record_run(&sc, nominal).expect("nominal run");
    let (cand_ev, cand_mk) = scc_bench::record_run(&sc, slowed).expect("slowed run");

    let base = PhaseProfile::build(&base_ev).expect("profile");
    let cand = PhaseProfile::build(&cand_ev).expect("profile");
    // Each profile's cells partition its own makespan...
    assert_eq!(base.cells.values().sum::<u64>(), base_mk.as_ps());
    assert_eq!(cand.cells.values().sum::<u64>(), cand_mk.as_ps());
    assert!(cand_mk > base_mk, "slowing the ports must slow a port-bound broadcast");

    // ...so the diff conserves the delta exactly, in integer ps.
    let diff = DiffReport::between(&base, &cand);
    assert_eq!(diff.cell_delta_sum_ps(), diff.delta_makespan_ps(), "conservation law");
    assert_eq!(diff.delta_makespan_ps(), cand_mk.as_ps() as i64 - base_mk.as_ps() as i64);

    // The explanation must point at the cause we injected: the largest
    // mover is port time (queueing for the root's port or the service
    // of the ops themselves, both scale with the port cost).
    let dom = &diff.cells[0];
    assert!(
        dom.dimension == "port-wait" || dom.dimension == "op-service",
        "dominant cell {dom:?} should reflect the injected port slowdown"
    );
    assert!(dom.delta_ps() > 0);
    let md = diff.render_markdown();
    assert!(md.contains("conservative attribution"), "{md}");
}

/// Tentpole conservation law on a real contended run: reconstructing
/// journeys from a 48-core flat-tree OC-Bcast (the port-saturating
/// extreme), every journey's leg dwells must sum *exactly* to its
/// delivery latency in integer picoseconds, the last delivery close
/// must equal the broadcast makespan, and every non-root destination
/// must have received tagged transfers inside its window.
#[test]
fn journey_legs_conserve_delivery_latency_on_contended_broadcast() {
    let rep = record_bcast(48, Algorithm::OcBcast(OcConfig::with_k(47)), 96);
    for r in &rep.results {
        r.as_ref().unwrap();
    }
    let events = rep.events.as_deref().expect("recording enabled");
    let book = JourneyBook::from_events(events);
    assert_eq!(book.journeys.len(), 48, "one journey per participating core");
    assert_eq!(book.makespan, rep.makespan);
    for j in &book.journeys {
        assert_eq!(
            j.legs_total(),
            j.latency(),
            "C{} epoch {}: legs must tile the delivery window exactly",
            j.core.index(),
            j.epoch
        );
        if j.core != CoreId(0) {
            assert!(j.transfers > 0, "C{} received no tagged transfers", j.core.index());
            assert!(j.lines >= 96, "C{} journeys must carry the payload", j.core.index());
        }
    }
    let last = book.journeys.iter().map(|j| j.end).max().unwrap();
    assert_eq!(last, rep.makespan, "the last delivery close is the makespan");
    // Contention actually showed up in the attribution: somebody spent
    // time queueing for the saturated root port.
    let port_wait: Time = book.journeys.iter().map(|j| j.leg(scc_obs::LegKind::PortWait)).sum();
    assert!(port_wait > Time::ZERO, "flat tree at 48 cores must queue at the root port");
}

/// Satellite: on an uncontended two-core exchange the receiver's
/// delivery latency equals the hand-computed LogP-model time
/// `C^mem_put(m, d_mem, d) + C^mpb_put(1, d) + C^mpb_r(1)` — the same
/// formula the critical-path test pins, now read off a journey.
#[test]
fn delivery_latency_matches_logp_model_on_uncontended_exchange() {
    let m = 8usize;
    let flag_line = m;
    let cfg = SimConfig { num_cores: 2, mem_bytes: 4096, record: true, ..SimConfig::default() };
    let rep = run_spmd(&cfg, move |c| -> RmaResult<()> {
        if c.core().index() == 0 {
            c.mem_write(0, &vec![0x3Cu8; m * 32])?;
            tagged(c, MsgId::new(0, CoreId(0), CoreId(1), 0), |c| {
                c.put_from_mem(MemRange::new(0, m * 32), MpbAddr::new(CoreId(1), 0))
            })?;
            c.flag_put(MpbAddr::new(CoreId(1), flag_line), FlagValue(1))?;
        } else {
            delivering(c, 0, |c| c.flag_wait_eq(flag_line, FlagValue(1)))?;
        }
        Ok(())
    })
    .expect("simulation");
    let events = rep.events.as_deref().expect("recording enabled");
    let book = JourneyBook::from_events(events);
    assert_eq!(book.journeys.len(), 1, "only the receiver opened a window");
    let j = &book.journeys[0];
    assert_eq!(j.core, CoreId(1));
    assert_eq!(j.begin, Time::ZERO);
    assert_eq!(j.end, rep.makespan, "the receiver's delivery closes the run");
    assert_eq!(j.legs_total(), j.latency());
    assert_eq!((j.transfers, j.lines), (1, m), "the tagged bulk put lands in the window");

    let model = P2p::new(ModelParams::paper());
    let d = CoreId(0).mpb_distance(CoreId(1));
    let d_mem = CoreId(0).mem_distance();
    let expect = model.c_put_mem(m, d_mem, d) + model.c_put_mpb(1, d) + model.c_mpb_r(1);
    assert!(
        (j.latency().as_us_f64() - expect).abs() < 1e-6,
        "delivery latency {} must equal the model's {expect:.6} us",
        j.latency()
    );
    // Uncontended: the whole wait is flag-notify (poll + park), with no
    // queueing legs at all.
    assert_eq!(j.leg(scc_obs::LegKind::PortWait), Time::ZERO);
    assert_eq!(j.leg(scc_obs::LegKind::RouterWait), Time::ZERO);
    assert!(j.leg(scc_obs::LegKind::FlagNotify) > Time::ZERO);
}

/// The Chrome exporter produces valid JSON with per-core tracks, phase
/// spans from the collective, and tracks for the contended resources.
#[test]
fn chrome_trace_is_valid_and_carries_phases() {
    let rep = record_bcast(12, Algorithm::OcBcast(OcConfig::with_k(3)), 96);
    let events = rep.events.as_deref().unwrap();
    let json = chrome_trace_json(events);
    validate_json(&json).expect("exporter must emit valid JSON");
    assert!(events.iter().any(|e| matches!(e, ObsEvent::Op { .. })));
    for needle in [
        "\"traceEvents\"",
        "\"disseminate", // phase spans from OcBcast
        "\"notify-wait",
        "\"cat\":\"op\"",
        "\"cat\":\"phase\"",
    ] {
        assert!(json.contains(needle), "chrome trace missing {needle}");
    }
    // Spans recorded by the collective made it into the stream.
    assert!(events.iter().any(|e| matches!(e, ObsEvent::SpanBegin { .. })));
}
