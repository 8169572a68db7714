//! The causal auditor against *real* recorded streams: every
//! representative protocol run — plain, reliable, faulted — must audit
//! to zero violations, and the seeded mutation harness must corrupt
//! those same streams detectably.

use oc_bcast::Algorithm;
use scc_bench::{policy, record_run, Outcome, Run, Scenario};
use scc_hal::Time;
use scc_obs::{audit, mutate, AuditSpec, MutationClass};
use scc_sim::{FaultPlan, SimParams};

const CORES: usize = 48;
const LINES: usize = 16;

fn faulty_plan() -> FaultPlan {
    FaultPlan {
        drop_notification_ppm: 30_000,
        delay_ppm: 15_000,
        delay: Time::from_us_f64(5.0),
        ..FaultPlan::default()
    }
}

#[test]
fn plain_runs_audit_clean() {
    for alg in [Algorithm::oc_with_k(7), Algorithm::Binomial] {
        let sc = Scenario::new(alg, CORES, LINES);
        let (events, makespan) = record_run(&sc, SimParams::default()).expect("run");
        let rep = audit(&events, &AuditSpec::plain().with_makespan(makespan));
        assert!(rep.ok(), "{}: {:?}", sc.label, &rep.violations[..rep.violations.len().min(5)]);
        assert!(rep.checked() > 100, "{}: vacuous audit: {}", sc.label, rep.summary());
    }
}

#[test]
fn reliable_healthy_runs_audit_clean() {
    let sc = Scenario::new(Algorithm::oc_with_k(7), CORES, LINES);
    let run = Run { policy: Some(policy()), record: true, ..Run::default() };
    let (events, makespan) = sc.run(&run).and_then(Outcome::recorded).expect("run");
    let rep = audit(&events, &AuditSpec::reliable().with_makespan(makespan));
    assert!(rep.ok(), "{:?}", &rep.violations[..rep.violations.len().min(5)]);
}

#[test]
fn faulted_runs_audit_clean() {
    let sc = Scenario::new(Algorithm::oc_with_k(7), CORES, LINES);
    let run = Run { faults: faulty_plan(), policy: Some(policy()), record: true, ..Run::default() };
    let (events, makespan) = sc.run(&run).and_then(Outcome::recorded).expect("run");
    let rep = audit(&events, &AuditSpec::faulted().with_makespan(makespan));
    assert!(rep.ok(), "{:?}", &rep.violations[..rep.violations.len().min(5)]);
}

#[test]
fn every_mutation_class_is_caught_and_classified() {
    // The faulted stream has eligible sites for all five classes
    // (wakes, bookings, span closes, tagged ops, fault events).
    let sc = Scenario::new(Algorithm::oc_with_k(7), CORES, LINES);
    let run = Run { faults: faulty_plan(), policy: Some(policy()), record: true, ..Run::default() };
    let (events, makespan) = sc.run(&run).and_then(Outcome::recorded).expect("run");
    let spec = AuditSpec::faulted().with_makespan(makespan);
    assert!(audit(&events, &spec).ok(), "baseline must be clean");
    for class in MutationClass::ALL {
        let mut corrupted = events.clone();
        let what = mutate(&mut corrupted, class, 0xC0FFEE)
            .unwrap_or_else(|| panic!("{class}: no eligible site in a faulted run"));
        let rep = audit(&corrupted, &spec);
        assert!(
            rep.classes().contains(&class.expected()),
            "{class} ({what}): expected {:?}, saw {:?} — {:?}",
            class.expected(),
            rep.classes(),
            &rep.violations[..rep.violations.len().min(5)]
        );
    }
}

#[test]
fn flight_window_suffix_audits_clean_in_window_mode() {
    let sc = Scenario::new(Algorithm::oc_with_k(7), CORES, LINES);
    let (events, _) = record_run(&sc, SimParams::default()).expect("run");
    // Emulate a flight-recorder dump: the last N events only.
    let n = events.len() / 3;
    let window = &events[events.len() - n..];
    let rep = audit(window, &AuditSpec::plain().windowed());
    assert!(rep.ok(), "{:?}", &rep.violations[..rep.violations.len().min(5)]);
    // Full-run strictness on the same suffix must complain (spans
    // opened before the window, etc. — the truncation is visible).
    assert!(!audit(window, &AuditSpec::plain()).ok());
}
