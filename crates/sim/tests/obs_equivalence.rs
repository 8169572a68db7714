//! Zero-cost guard for the observability layer: enabling the recorder
//! must not perturb the simulation in any observable way. A run with
//! `record: true` must produce exactly the same virtual times, engine
//! counters (including the fast-path accounting `events ==
//! heap_pushes + coalesced_steps` and the per-resource wait/busy
//! vectors) and per-op clock readings as a run with recording off — the
//! only difference allowed is the presence of the event stream itself.

use scc_hal::{CoreId, FlagValue, MemRange, MpbAddr, Phase, Rma, RmaExt, RmaResult, Span, Time};
use scc_obs::ObsEvent;
use scc_sim::engine::SimCore;
use scc_sim::{run_spmd, SimConfig, SimReport};

/// The messy SPMD program from the coalescing guard, plus protocol
/// spans: bulk puts (cached and uncached), port contention, flag
/// ping-pong with parking, gets, compute — every event source the
/// recorder taps. Returns the core's clock after each of its steps: an
/// unrecorded run keeps no per-op record, so the program's own
/// readings are what the three recording modes are compared on.
fn workload(c: &mut SimCore) -> RmaResult<Vec<Time>> {
    let me = c.core().index();
    let n = c.num_cores();
    let right = CoreId(((me + 1) % n) as u8);
    let payload = vec![me as u8 ^ 0x5A; 24 + 32 * (me % 5)];

    let mut clock = Vec::new();
    macro_rules! timed {
        ($step:expr) => {{
            $step;
            clock.push(c.now());
        }};
    }
    c.mem_write(0, &payload)?;
    c.span_begin(Span::of(Phase::Dissemination));
    if me != 0 {
        timed!(c.put_from_mem(
            MemRange::new(0, payload.len()),
            MpbAddr::new(CoreId(0), 2 + (me % 4))
        )?);
    }
    timed!(c.put_from_mem_cached(MemRange::new(0, payload.len()), MpbAddr::new(right, 8))?);
    c.span_end(Span::of(Phase::Dissemination));
    timed!(c.flag_put(MpbAddr::new(right, 0), FlagValue(1))?);
    c.span_begin(Span::of(Phase::NotifyWait));
    timed!(c.flag_wait_eq(0, FlagValue(1))?);
    c.span_end(Span::of(Phase::NotifyWait));
    timed!(c.get_to_mpb(MpbAddr::new(right, 8), 16, 1 + me % 3)?);
    timed!(c.compute(Time::from_ns(137 * (1 + me as u64 % 7))));
    timed!(c.get_to_mem(MpbAddr::new(right, 8), MemRange::new(512, payload.len()))?);
    timed!(c.flag_put(MpbAddr::new(right, 1), FlagValue(2))?);
    timed!(c.flag_wait_ge(1, FlagValue(2))?);
    Ok(clock)
}

type Report = SimReport<RmaResult<Vec<Time>>>;

fn run(record: bool, cores: usize) -> Report {
    let cfg = SimConfig { num_cores: cores, mem_bytes: 4096, record, ..SimConfig::default() };
    run_spmd(&cfg, workload).expect("workload must complete")
}

fn run_flight(capacity: usize, cores: usize) -> Report {
    let cfg =
        SimConfig { num_cores: cores, mem_bytes: 4096, flight: capacity, ..SimConfig::default() };
    run_spmd(&cfg, workload).expect("workload must complete")
}

#[test]
fn recording_is_free_of_observable_effects() {
    for cores in [2, 7, 24] {
        let on = run(true, cores);
        let off = run(false, cores);

        assert_eq!(on.end_times, off.end_times, "end_times diverged at P={cores}");
        assert_eq!(on.makespan, off.makespan, "makespan diverged at P={cores}");
        // SimStats is PartialEq over every counter, including the
        // per-tile / per-controller wait and busy vectors.
        assert_eq!(on.stats, off.stats, "SimStats diverged at P={cores}");
        assert_eq!(
            on.stats.events,
            on.stats.heap_pushes + on.stats.coalesced_steps,
            "fast-path accounting broken at P={cores}"
        );

        for (i, r) in on.results.iter().enumerate() {
            assert_eq!(
                r.as_ref().unwrap(),
                off.results[i].as_ref().unwrap(),
                "core {i} read a different clock after one of its ops at P={cores}"
            );
        }

        // The recorded run must actually carry the stream (otherwise
        // this test guards nothing) and the bare run must not.
        let events = on.events.as_deref().expect("recording enabled");
        assert!(!events.is_empty());
        assert!(off.events.is_none(), "recorder must stay off by default");
    }
}

/// Same zero-cost contract for the flight recorder: a bounded-ring run
/// must be indistinguishable from an unrecorded run in every virtual
/// observable, and its window must be byte-identical to the tail of a
/// full recording.
#[test]
fn flight_recording_is_free_and_matches_the_tail_window() {
    for cores in [2, 7, 24] {
        let full = run(true, cores);
        let off = run(false, cores);
        let events = full.events.as_deref().expect("full recording");

        for capacity in [1, 64, events.len(), events.len() + 100] {
            let flight = run_flight(capacity, cores);
            assert_eq!(flight.end_times, off.end_times, "end_times diverged at P={cores}");
            assert_eq!(flight.makespan, off.makespan, "makespan diverged at P={cores}");
            assert_eq!(flight.stats, off.stats, "SimStats diverged at P={cores}");
            for (i, r) in flight.results.iter().enumerate() {
                assert_eq!(
                    r.as_ref().unwrap(),
                    off.results[i].as_ref().unwrap(),
                    "core {i} diverged at P={cores} capacity={capacity}"
                );
            }

            // The retained window is exactly the last `capacity` events
            // of the full stream, in stream order.
            let window = flight.events.as_deref().expect("flight recording");
            let tail = &events[events.len().saturating_sub(capacity)..];
            assert_eq!(window, tail, "window != full-stream tail at P={cores} cap={capacity}");
        }
    }
}

/// `record: true` wins over a flight capacity: the full stream
/// subsumes any window.
#[test]
fn full_recording_takes_precedence_over_flight() {
    let cfg = SimConfig {
        num_cores: 4,
        mem_bytes: 4096,
        record: true,
        flight: 3,
        ..SimConfig::default()
    };
    let rep = run_spmd(&cfg, workload).expect("workload must complete");
    let full = run(true, 4);
    assert_eq!(rep.events, full.events);
}

/// The recorded stream agrees with the engine's own counters: one Op
/// event per op, one Park per park, one Handoff per handoff, and
/// balanced span brackets on every core.
#[test]
fn event_stream_is_complete_and_balanced() {
    let rep = run(true, 7);
    let events = rep.events.as_deref().unwrap();

    let ops = events.iter().filter(|e| matches!(e, ObsEvent::Op { .. })).count();
    assert_eq!(ops as u64, rep.stats.ops, "one Op event per op");

    let parks = events.iter().filter(|e| matches!(e, ObsEvent::Park { .. })).count();
    assert_eq!(parks as u64, rep.stats.parks);
    let handoffs = events.iter().filter(|e| matches!(e, ObsEvent::Handoff { .. })).count();
    assert_eq!(handoffs as u64, rep.stats.handoffs);
    let finishes = events.iter().filter(|e| matches!(e, ObsEvent::Finish { .. })).count();
    assert_eq!(finishes, 7, "every core records its finish");

    let mut depth = vec![0i64; 7];
    for ev in events {
        match *ev {
            ObsEvent::SpanBegin { core, .. } => depth[core.index()] += 1,
            ObsEvent::SpanEnd { core, .. } => {
                depth[core.index()] -= 1;
                assert!(depth[core.index()] >= 0, "span end without begin");
            }
            _ => {}
        }
    }
    assert!(depth.iter().all(|&d| d == 0), "unbalanced spans: {depth:?}");
    assert!(depth.len() == 7);

    // Timestamps in the stream are monotone per the event's own time.
    let mut last = Time::ZERO;
    for ev in events {
        assert!(ev.at() >= Time::ZERO);
        last = last.max(ev.at());
    }
    assert_eq!(last, rep.makespan, "latest event time is the makespan");
}
