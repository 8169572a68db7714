//! `scc_obs::mutate` picks its site by counting eligible pairs and
//! walking to the chosen one. The Vec-building selection it replaced is
//! kept here, verbatim in behaviour, as the oracle: on a recorded
//! faulted stream every class and many seeds must corrupt the same
//! events the same way and say so in the same words.

use oc_bcast::Algorithm;
use scc_bench::{policy, Outcome, Run, Scenario};
use scc_hal::{Span, Time};
use scc_obs::{mutate, FaultKind, MutationClass, ObsEvent};
use scc_sim::FaultPlan;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `mutate` as it was before the pair lists went.
fn oracle(events: &mut Vec<ObsEvent>, class: MutationClass, seed: u64) -> Option<String> {
    let mut rng = seed ^ 0xA076_1D64_78BD_642F;
    let pick = |rng: &mut u64, n: usize| (splitmix64(rng) % n as u64) as usize;
    let sites = |events: &[ObsEvent], keep: &dyn Fn(&ObsEvent) -> bool| -> Vec<usize> {
        events.iter().enumerate().filter(|(_, e)| keep(e)).map(|(i, _)| i).collect()
    };
    match class {
        MutationClass::DropWake => {
            let sites = sites(
                events,
                &|e| matches!(e, ObsEvent::Wake { core, writer, .. } if core != writer),
            );
            if sites.is_empty() {
                return None;
            }
            let i = sites[pick(&mut rng, sites.len())];
            let desc = format!("dropped {:?} at index {i}", events[i]);
            events.remove(i);
            Some(desc)
        }
        MutationClass::SwapService => {
            let waits = sites(events, &|e| matches!(e, ObsEvent::Wait { .. }));
            let mut pairs: Vec<(usize, usize)> = Vec::new();
            for (n, &i) in waits.iter().enumerate() {
                let ObsEvent::Wait { resource: ri, start: si, .. } = events[i] else { continue };
                for &j in waits.iter().skip(n + 1).take(64) {
                    let ObsEvent::Wait { resource: rj, arrival: aj, start: sj, .. } = events[j]
                    else {
                        continue;
                    };
                    if ri == rj && si < sj && aj > si {
                        pairs.push((i, j));
                    }
                }
            }
            if pairs.is_empty() {
                return None;
            }
            let (i, j) = pairs[pick(&mut rng, pairs.len())];
            let (
                ObsEvent::Wait { start: si, end: ei, .. },
                ObsEvent::Wait { start: sj, end: ej, .. },
            ) = (events[i], events[j])
            else {
                return None;
            };
            let set = |ev: &mut ObsEvent, s: Time, e: Time| {
                if let ObsEvent::Wait { start, end, .. } = ev {
                    *start = s;
                    *end = e;
                }
            };
            set(&mut events[i], sj, ej);
            set(&mut events[j], si, ei);
            Some(format!("swapped service intervals of bookings {i} and {j}"))
        }
        MutationClass::CrossSpanClose => {
            let closes: Vec<(usize, Span)> = events
                .iter()
                .enumerate()
                .filter_map(|(i, e)| match *e {
                    ObsEvent::SpanEnd { span, .. } => Some((i, span)),
                    _ => None,
                })
                .collect();
            let mut pairs: Vec<(usize, usize)> = Vec::new();
            for (n, &(i, si)) in closes.iter().enumerate() {
                for &(j, sj) in closes.iter().skip(n + 1).take(64) {
                    if si != sj {
                        pairs.push((i, j));
                    }
                }
            }
            if pairs.is_empty() {
                return None;
            }
            let (i, j) = pairs[pick(&mut rng, pairs.len())];
            let (ObsEvent::SpanEnd { span: si, .. }, ObsEvent::SpanEnd { span: sj, .. }) =
                (events[i], events[j])
            else {
                return None;
            };
            let set = |ev: &mut ObsEvent, s: Span| {
                if let ObsEvent::SpanEnd { span, .. } = ev {
                    *span = s;
                }
            };
            set(&mut events[i], sj);
            set(&mut events[j], si);
            Some(format!("crossed span closes {i} and {j}"))
        }
        MutationClass::RetagEpoch => {
            let sites = sites(events, &|e| matches!(e, ObsEvent::Op { msg: Some(_), .. }));
            if sites.is_empty() {
                return None;
            }
            let i = sites[pick(&mut rng, sites.len())];
            if let ObsEvent::Op { msg: Some(m), .. } = &mut events[i] {
                m.epoch = m.epoch.wrapping_add(1000);
                Some(format!("retagged op {i} to epoch {}", m.epoch))
            } else {
                None
            }
        }
        MutationClass::DeleteFault => {
            let sites = sites(events, &|e| {
                matches!(e, ObsEvent::Fault { kind: FaultKind::LostNotification, .. })
            });
            if sites.is_empty() {
                return None;
            }
            let i = sites[pick(&mut rng, sites.len())];
            let desc = format!("deleted {:?} at index {i}", events[i]);
            events.remove(i);
            Some(desc)
        }
    }
}

#[test]
fn mutate_picks_what_the_pair_lists_picked() {
    // The `audit` experiment's fault plan on a small chip: every class
    // has eligible sites, and the pair scans stay cheap in debug.
    let faults = FaultPlan {
        drop_notification_ppm: 50_000,
        delay_ppm: 15_000,
        delay: Time::from_us_f64(5.0),
        ..FaultPlan::default()
    };
    let sc = Scenario::new(Algorithm::oc_with_k(7), 24, 16);
    let run = Run { faults, policy: Some(policy()), record: true, ..Run::default() };
    let (events, _) = sc.run(&run).and_then(Outcome::recorded).expect("run");
    for class in MutationClass::ALL {
        for seed in (0..48u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xC0FFEE) {
            let (mut got, mut want) = (events.clone(), events.clone());
            let what = mutate(&mut got, class, seed);
            assert!(what.is_some(), "{class}: no eligible site in the faulted stream");
            assert_eq!(what, oracle(&mut want, class, seed), "{class} seed {seed:#x}");
            assert!(got == want, "{class} seed {seed:#x}: the streams differ");
        }
    }
}
