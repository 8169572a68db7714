//! Causal-audit results: the structured record behind
//! `BENCH_audit.json`.
//!
//! One [`AuditScenario`] per recorded protocol run the `audit`
//! experiment re-audited: the happens-before graph size, how many
//! invariant instances each checker examined, every violation found
//! (zero on a healthy run), and the seeded mutation trials that prove
//! the checkers are not vacuous — each trial names the mutation class
//! applied, whether the auditor detected *anything*, and whether the
//! expected violation class was among what it reported. Counts and
//! names only — no floats, no timestamps — so the artifact is
//! byte-identical across hosts and `--jobs` settings.

use crate::artifact::{record, Hex64};

record! {
    /// One seeded mutation trial of the non-vacuity harness.
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct MutationTrial {
        /// [`crate::MutationClass::name`] of the mutation applied.
        pub mutation: String => "mutation",
        /// Seed the mutation site was drawn with.
        pub seed: Hex64 => "seed",
        /// The auditor reported at least one violation on the mutant.
        pub detected: bool => "detected",
        /// The expected [`crate::ViolationClass`] was among those reported.
        pub classified: bool => "classified",
    }
}

record! {
    /// One recorded scenario's audit outcome; `BENCH_audit.json` is
    /// `artifact::scenarios("audit", ..)` of these.
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct AuditScenario {
        /// Stable id, e.g. `"oc_k7_faulted"` — names the row keys and CI
        /// diffs.
        pub id: String => "id",
        /// Human label, e.g. `"k=7 48c 96cl reliable+faults"`.
        pub label: String => "label",
        pub cores: u64 => "cores",
        /// Recorded events audited.
        pub events: u64 => "events",
        /// Happens-before edges the causal graph carries.
        pub edges: u64 => "edges",
        /// Invariant instances examined, summed over every checker.
        pub checks: u64 => "checks",
        /// Violations found (must be 0 — the shape checks pin this).
        pub violations: u64 => "violations",
        /// Distinct [`crate::ViolationClass::name`]s found (empty when
        /// healthy; kept so a CI failure names the class in the diff).
        pub classes: Vec<String> => "classes",
        /// The mutation trials run against this scenario's stream.
        pub mutations: Vec<MutationTrial> => "mutations",
    }
}

impl AuditScenario {
    /// Every mutation trial was detected *and* correctly classified.
    pub fn mutations_all_caught(&self) -> bool {
        self.mutations.iter().all(|m| m.detected && m.classified)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::scenarios;
    use crate::report::Json;

    fn sample() -> Vec<AuditScenario> {
        vec![
            AuditScenario {
                id: "oc_k7_plain".into(),
                label: "k=7 48c 96cl".into(),
                cores: 48,
                events: 19_752,
                edges: 19_749,
                checks: 41_338,
                violations: 0,
                classes: vec![],
                mutations: vec![
                    MutationTrial {
                        mutation: "drop-wake".into(),
                        seed: Hex64(7),
                        detected: true,
                        classified: true,
                    },
                    MutationTrial {
                        mutation: "retag-epoch".into(),
                        seed: Hex64(8),
                        detected: true,
                        classified: false,
                    },
                ],
            },
            AuditScenario {
                id: "binomial_faulted".into(),
                label: "binomial 48c 96cl reliable+faults".into(),
                cores: 48,
                events: 30_001,
                edges: 29_980,
                checks: 60_002,
                violations: 2,
                classes: vec!["lost-wakeup".into()],
                mutations: vec![],
            },
        ]
    }

    #[test]
    fn artifact_round_trips_losslessly() {
        let text = scenarios("audit", &sample()).render();
        assert_eq!(Json::parse(&text).unwrap().render(), text);
        assert!(text.contains("\"violations\":2"), "{text}");
    }

    #[test]
    fn mutations_all_caught_requires_detection_and_class() {
        let s = sample();
        // The second trial was detected but misclassified.
        assert!(!s[0].mutations_all_caught());
        assert!(s[1].mutations_all_caught(), "vacuously true with no trials");
    }
}
