//! Property tests of the causal auditor: randomly generated
//! well-formed streams must audit to zero violations (the checkers
//! accept everything the protocol allows), a random seeded mutation of
//! such a stream must be detected *and* carry the expected violation
//! class (the checkers reject what the protocol forbids).

use proptest::prelude::*;
use proptest::TestRng;
use scc_hal::{CoreId, MsgId, Phase, Span, Time};
use scc_obs::event::ResourceId;
use scc_obs::{audit, mutate, AuditSpec, MutationClass, ObsEvent, OpKind};

fn ns(v: u64) -> Time {
    Time::from_ns(v)
}

/// A random conformant stream: `cores` delivery windows, a random mix
/// of notify rounds (failed poll → park → remote commit+wake →
/// re-poll, all inside a span), resource bookings with disjoint
/// service intervals, and compute blocks — closed by delivery ends
/// whose last close is the makespan.
fn arb_stream(rng: &mut TestRng) -> (Vec<ObsEvent>, Time) {
    let cores = 2 + rng.gen_range_u64(0, 4) as u8; // 2..=5
    let line = |c: u8| c as usize + 2;
    let mut value = vec![0u32; cores as usize];
    let mut events = Vec::new();
    for c in 0..cores {
        events.push(ObsEvent::DeliveryBegin { core: CoreId(c), epoch: 0, at: ns(0) });
    }
    let mut t = 1u64;
    // Per-resource service cursor keeps bookings disjoint.
    let mut router_cursor = 0u64;
    let rounds = 4 + rng.gen_range_u64(0, 10);
    for r in 0..rounds {
        // The first four rounds are always two notifies + two bookings
        // so every fault-free mutation class has a site (cross-span
        // close needs two distinct closed spans, service swap two
        // bookings on one resource) whatever the dice say.
        let kind = match r {
            0 | 1 => 0,
            2 | 3 => 1,
            _ => rng.gen_range_u64(0, 3),
        };
        match kind {
            0 => {
                // Notify round: `w` commits a flag into `s`'s line.
                let s = rng.gen_range_u64(0, u64::from(cores)) as u8;
                let w = (s + 1 + rng.gen_range_u64(0, u64::from(cores) - 1) as u8) % cores;
                let span = Span::new(Phase::NotifyWait, r as u32);
                events.push(ObsEvent::SpanBegin { core: CoreId(s), span, at: ns(t) });
                events.push(ObsEvent::Op {
                    core: CoreId(s),
                    kind: OpKind::FlagRead,
                    lines: 1,
                    start: ns(t),
                    end: ns(t + 1),
                    msg: None,
                });
                events.push(ObsEvent::FlagSample {
                    core: CoreId(s),
                    line: line(s),
                    value: value[s as usize],
                    at: ns(t + 1),
                });
                events.push(ObsEvent::Park { core: CoreId(s), line: line(s), at: ns(t + 1) });
                events.push(ObsEvent::Op {
                    core: CoreId(w),
                    kind: OpKind::FlagPut,
                    lines: 1,
                    start: ns(t + 1),
                    end: ns(t + 5),
                    msg: Some(MsgId::new(0, CoreId(w), CoreId(s), r as u32)),
                });
                value[s as usize] += 1;
                events.push(ObsEvent::MpbWrite {
                    owner: CoreId(s),
                    line: line(s),
                    lines: 1,
                    writer: CoreId(w),
                    value: Some(value[s as usize]),
                    at: ns(t + 5),
                });
                events.push(ObsEvent::Wake {
                    core: CoreId(s),
                    line: line(s),
                    at: ns(t + 5),
                    writer: CoreId(w),
                });
                events.push(ObsEvent::Op {
                    core: CoreId(s),
                    kind: OpKind::FlagRead,
                    lines: 1,
                    start: ns(t + 5),
                    end: ns(t + 6),
                    msg: None,
                });
                events.push(ObsEvent::FlagSample {
                    core: CoreId(s),
                    line: line(s),
                    value: value[s as usize],
                    at: ns(t + 6),
                });
                events.push(ObsEvent::SpanEnd { core: CoreId(s), span, at: ns(t + 6) });
                t += 7;
            }
            1 => {
                // Booking round: disjoint service on the shared router.
                let c = rng.gen_range_u64(0, u64::from(cores)) as u8;
                let arrival = t;
                let start = arrival.max(router_cursor);
                let dur = 1 + rng.gen_range_u64(0, 5);
                events.push(ObsEvent::Wait {
                    core: CoreId(c),
                    resource: ResourceId::Router(0),
                    arrival: ns(arrival),
                    start: ns(start),
                    end: ns(start + dur),
                    link: None,
                });
                router_cursor = start + dur;
                t += 1;
            }
            _ => {
                let c = rng.gen_range_u64(0, u64::from(cores)) as u8;
                let dur = 1 + rng.gen_range_u64(0, 8);
                events.push(ObsEvent::Compute { core: CoreId(c), start: ns(t), end: ns(t + dur) });
                t += dur + 1;
            }
        }
    }
    t = t.max(router_cursor);
    let mut makespan = Time::ZERO;
    for c in 0..cores {
        let at = ns(t + u64::from(c));
        events.push(ObsEvent::DeliveryEnd { core: CoreId(c), epoch: 0, at });
        events.push(ObsEvent::Finish { core: CoreId(c), at });
        makespan = at;
    }
    (events, makespan)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// Soundness of the acceptance direction: whatever conformant
    /// interleaving the generator produces, the auditor finds nothing
    /// to complain about — and actually examined the stream.
    #[test]
    fn well_formed_streams_audit_clean(seed in any::<u64>()) {
        let mut rng = TestRng::from_name(&format!("clean-{seed}"));
        let (events, makespan) = arb_stream(&mut rng);
        let rep = audit(&events, &AuditSpec::plain().with_makespan(makespan));
        prop_assert!(rep.ok(), "{:?}", &rep.violations[..rep.violations.len().min(4)]);
        prop_assert!(rep.checked() > 0);
        prop_assert_eq!(rep.events, events.len() as u64);
    }

    /// Non-vacuity: a random single mutation of a clean stream is
    /// always detected, and the expected violation class is among
    /// what the auditor reports. (`DeleteFault` is exercised against
    /// recorded faulted runs elsewhere — a fault-free stream has no
    /// fault events to delete.)
    #[test]
    fn random_mutation_is_detected_and_classified(seed in any::<u64>()) {
        let mut rng = TestRng::from_name(&format!("mutate-{seed}"));
        let (events, makespan) = arb_stream(&mut rng);
        let spec = AuditSpec::plain().with_makespan(makespan);
        let classes = [
            MutationClass::DropWake,
            MutationClass::SwapService,
            MutationClass::CrossSpanClose,
            MutationClass::RetagEpoch,
        ];
        let class = classes[rng.gen_range_u64(0, classes.len() as u64) as usize];
        let mut corrupted = events.clone();
        let what = mutate(&mut corrupted, class, rng.next_u64());
        prop_assert!(what.is_some(), "{class}: generator must provide a site");
        let rep = audit(&corrupted, &spec);
        prop_assert!(!rep.ok(), "{class} ({:?}) went undetected", what);
        prop_assert!(
            rep.classes().contains(&class.expected()),
            "{class} ({:?}): expected {:?}, saw {:?}",
            what,
            class.expected(),
            rep.classes()
        );
    }
}
