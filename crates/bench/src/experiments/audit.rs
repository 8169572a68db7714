//! Causal trace audit: every representative protocol run — the
//! contention spectrum {flat k=47, the paper's default k=7, binomial}
//! crossed with {plain, reliable-healthy, reliable-faulted} — is
//! recorded on the full 48-core chip and re-checked against the
//! happens-before invariants of [`scc_obs::audit`]: span nesting,
//! park/wake pairing with no lost wakeups, per-flag-line protocol
//! state machines, delivery-window containment with the last close on
//! the makespan, graph acyclicity, and commit/fault accounting. A
//! healthy run must audit to *zero* violations; that is pinned both as
//! shape checks and as zero-tolerance rows.
//!
//! Because "zero violations" is trivially satisfied by a checker that
//! checks nothing, the faulted streams are additionally corrupted by
//! the seeded mutation harness — one deterministic mutation per
//! [`MutationClass`] — and the auditor must detect each mutant *and*
//! name the expected violation class.
//!
//! Recording and mutation seeds are deterministic, so the text and rows
//! are byte-identical at any `--jobs` count.

use super::{outln, Point, Sweep};
use crate::{fault_plan, policy, Run, Scenario};
use oc_bcast::Algorithm;
use scc_obs::{audit, mutate, AuditSpec, MutationClass};
use scc_sim::SimError;

/// The paper's full chip; the auditor earns its keep at scale.
const CORES: usize = 48;

/// Base seed of the mutation harness; each trial folds in the
/// scenario and class indices so no two trials share a site draw.
const MUTATION_SEED: u64 = 0xC0FFEE;

/// How a scenario exercises the protocol stack.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// The plain collective, no reliability layer, no faults.
    Plain,
    /// The reliable collective on a healthy chip (timers armed, no
    /// recovery traffic expected).
    Reliable,
    /// The reliable collective under the deterministic fault plan —
    /// the only mode whose streams carry `Fault` events, so the only
    /// one the full five-class mutation matrix applies to.
    Faulted,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Plain => "plain",
            Mode::Reliable => "reliable",
            Mode::Faulted => "faulted",
        }
    }

    fn spec(self) -> AuditSpec {
        match self {
            Mode::Plain => AuditSpec::plain(),
            Mode::Reliable => AuditSpec::reliable(),
            Mode::Faulted => AuditSpec::faulted(),
        }
    }
}

/// One audited scenario: its stable id, the protocol run, the mode,
/// and its index among the nine (it seeds the mutation trials).
struct Audited {
    id: String,
    sc: Scenario,
    mode: Mode,
    index: u64,
}

impl Point for Audited {
    fn key(&self) -> String {
        format!("audit {}", self.id)
    }
    // Faulted units record, audit, and then re-audit five mutants of
    // the same stream — weight them accordingly.
    fn cost(&self) -> u64 {
        self.sc.lines as u64 * if self.mode == Mode::Faulted { 6 } else { 1 }
    }
}

/// One seeded mutation trial of the non-vacuity harness.
struct MutationTrial {
    /// [`MutationClass::name`] of the mutation applied.
    mutation: &'static str,
    /// The auditor reported at least one violation on the mutant.
    detected: bool,
    /// The expected violation class was among those reported.
    classified: bool,
}

/// One recorded scenario's audit outcome.
struct AuditScenario {
    /// Recorded events audited.
    events: u64,
    /// Happens-before edges the causal graph carries.
    edges: u64,
    /// Invariant instances examined, summed over every checker.
    checks: u64,
    /// Violations found (0 on a healthy run).
    violations: u64,
    /// Distinct violation class names found, sorted.
    classes: Vec<&'static str>,
    /// The mutation trials run against this scenario's stream.
    mutations: Vec<MutationTrial>,
}

impl AuditScenario {
    /// Every mutation trial was detected *and* correctly classified.
    fn mutations_all_caught(&self) -> bool {
        self.mutations.iter().all(|m| m.detected && m.classified)
    }
}

/// Record one scenario, audit it, and (for faulted streams) run the
/// five-class mutation matrix against the same events.
fn run_point(point: &Audited) -> Result<AuditScenario, SimError> {
    let Audited { sc, mode, index, .. } = point;
    let mode = *mode;
    let run = Run { record: true, ..Run::default() };
    let run = match mode {
        Mode::Plain => run,
        Mode::Reliable => Run { policy: Some(policy()), ..run },
        // The `faults` experiment's 50 000 ppm operating point: high
        // enough that every protocol actually loses notifications at both
        // message sizes, so every recovery path — and the mutation
        // harness's `DeleteFault` site pool — is exercised even in
        // `--quick` runs.
        Mode::Faulted => Run { faults: fault_plan(50_000), policy: Some(policy()), ..run },
    };
    let (events, makespan) = sc.run(&run)?.recorded()?;
    let spec = mode.spec().with_makespan(makespan);
    let rep = audit(&events, &spec);

    let mut mutations = Vec::new();
    if mode == Mode::Faulted {
        for (ci, class) in MutationClass::ALL.into_iter().enumerate() {
            let seed = MUTATION_SEED ^ (index << 8) ^ ci as u64;
            let mut corrupted = events.clone();
            // `mutate` returning None means the stream had no eligible
            // site — recorded as an undetected trial so the shape
            // check names the hole instead of silently shrinking the
            // matrix.
            let (detected, classified) = match mutate(&mut corrupted, class, seed) {
                Some(_) => {
                    let mrep = audit(&corrupted, &spec);
                    (!mrep.ok(), mrep.classes().contains(&class.expected()))
                }
                None => (false, false),
            };
            mutations.push(MutationTrial { mutation: class.name(), detected, classified });
        }
    }

    Ok(AuditScenario {
        events: rep.events,
        edges: rep.edges,
        checks: rep.checked(),
        violations: rep.violations.len() as u64,
        classes: rep.classes().iter().map(|c| c.name()).collect(),
        mutations,
    })
}

pub(super) fn plan(quick: bool) -> Sweep {
    let lines = if quick { 32 } else { 96 };
    let protos = [
        ("oc_k47", Algorithm::oc_with_k(47)),
        ("oc_k7", Algorithm::oc_with_k(7)),
        ("binomial", Algorithm::Binomial),
    ];
    // All nine audited scenarios: every protocol in every mode.
    let modes = [Mode::Plain, Mode::Reliable, Mode::Faulted];
    let points = protos.into_iter().flat_map(|(pid, alg)| modes.map(|mode| (pid, alg, mode)));
    let points = points.enumerate().map(|(i, (pid, alg, mode))| Audited {
        id: format!("{pid}_{}", mode.name()),
        sc: Scenario::new(alg, CORES, lines),
        mode,
        index: i as u64,
    });
    Sweep::points(points.collect(), run_point, move |ctx, pairs| {
        outln!(ctx, "# causal trace audit, {CORES}-core recorded broadcasts ({lines} cache lines)");
        outln!(ctx, "# healthy streams must show 0 violations; mutants must be caught");
        for (Audited { id, mode, .. }, s) in pairs {
            outln!(
                ctx,
                "{id:<18} {:>6} events {:>6} edges {:>7} checks  {} violation(s){}",
                s.events,
                s.edges,
                s.checks,
                s.violations,
                if s.mutations.is_empty() {
                    String::new()
                } else {
                    format!(
                        "  mutants {}/{} caught",
                        s.mutations.iter().filter(|m| m.detected && m.classified).count(),
                        s.mutations.len()
                    )
                },
            );
            ctx.row(format!("{id} violations"), None, None, s.violations as f64, 0.0, "count");
            ctx.shape(
                &format!("{id}: recorded stream audits to zero violations"),
                s.violations == 0,
                format!("{} checks over {} events: {}", s.checks, s.events, s.classes.join(", ")),
            );
            // A zero-violation verdict from a checker that examined
            // nothing proves nothing — pin non-vacuity per stream.
            ctx.shape(
                &format!("{id}: the audit examined the stream (non-vacuous)"),
                s.checks > 100 && s.edges > 0,
                format!("{} checks, {} edges", s.checks, s.edges),
            );
            if mode == Mode::Faulted {
                ctx.shape(
                    &format!("{id}: every mutation class is detected and classified"),
                    s.mutations.len() == MutationClass::ALL.len() && s.mutations_all_caught(),
                    s.mutations
                        .iter()
                        .map(|m| {
                            format!(
                                "{}:{}",
                                m.mutation,
                                match (m.detected, m.classified) {
                                    (true, true) => "caught",
                                    (true, false) => "misclassified",
                                    _ => "MISSED",
                                }
                            )
                        })
                        .collect::<Vec<_>>()
                        .join(" "),
                );
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trial(detected: bool, classified: bool) -> MutationTrial {
        MutationTrial { mutation: "drop-wake", detected, classified }
    }

    fn scenario(mutations: Vec<MutationTrial>) -> AuditScenario {
        AuditScenario {
            events: 19_752,
            edges: 19_749,
            checks: 41_338,
            violations: 0,
            classes: vec![],
            mutations,
        }
    }

    #[test]
    fn mutations_all_caught_requires_detection_and_class() {
        // The second trial was detected but misclassified.
        assert!(!scenario(vec![trial(true, true), trial(true, false)]).mutations_all_caught());
        assert!(!scenario(vec![trial(false, false)]).mutations_all_caught());
        assert!(scenario(vec![trial(true, true)]).mutations_all_caught());
        assert!(scenario(vec![]).mutations_all_caught(), "vacuously true with no trials");
    }
}
