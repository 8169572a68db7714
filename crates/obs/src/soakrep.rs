//! Soak rollups: the structured record behind `BENCH_soak.json`,
//! `results/SOAK.md`, and the OpenMetrics exposition
//! `results/soak_metrics.txt`.
//!
//! A soak run reduces thousands of back-to-back broadcasts to a few
//! [`SoakPhase`] rows per protocol: the phase's merged
//! [`QuantileSketch`] (delivery latencies across every epoch of the
//! phase), the recovery counters, the [`SloBreach`]es the watchdog
//! raised, and the forensic dump inventory. Everything is integer
//! picoseconds and exact counts — the same byte-identity contract as
//! the journey book and fault curves, at any `--jobs` setting.

use crate::artifact::record;
use crate::sketch::QuantileSketch;
use crate::slo::{SloBreach, SloPolicy};
use scc_hal::Time;
use std::fmt::Write as _;

record! {
    /// One traffic phase of one protocol's soak: a contiguous run of
    /// epochs under one fault plan.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct SoakPhase {
        /// Stable id, e.g. `"healthy_a"` / `"faults"` / `"healthy_b"`.
        pub id: String => "id",
        /// Remote-notification drop rate this phase injects, ppm.
        pub drop_ppm: u64 => "drop_ppm",
        pub epochs: u64 => "epochs",
        /// Per-destination delivered latencies, every epoch of the phase.
        pub sketch: QuantileSketch => "sketch",
        /// Worst per-epoch makespan in the phase.
        pub makespan_max: Time => "makespan_max_ps",
        /// Recovery counters summed over the phase.
        pub timeouts: u64 => "timeouts",
        pub probes: u64 => "probes",
        pub recoveries: u64 => "recoveries",
        pub renotifies: u64 => "renotifies",
        /// Faults the plan injected during the phase.
        pub faults: u64 => "faults",
        /// Watchdog verdicts, epoch order.
        pub breaches: Vec<SloBreach> => "breaches",
        /// Repo-relative paths of the forensic dumps this phase produced.
        pub dumps: Vec<String> => "dumps",
    }
}

record! {
    /// One protocol's soak: its SLO policy and its phases in traffic
    /// order; `BENCH_soak.json` is `artifact::scenarios("soak", ..)` of
    /// these.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct SoakScenario {
        /// Stable id, e.g. `"oc_k7"`.
        pub id: String => "id",
        /// Human label, e.g. `"k=7 48c 8cl"`.
        pub label: String => "label",
        pub cores: u64 => "cores",
        pub policy: SloPolicy => "policy",
        pub phases: Vec<SoakPhase> => "phases",
    }
}

impl SoakScenario {
    pub fn epochs(&self) -> u64 {
        self.phases.iter().map(|p| p.epochs).sum()
    }

    pub fn breaches(&self) -> usize {
        self.phases.iter().map(|p| p.breaches.len()).sum()
    }

    pub fn dumps(&self) -> usize {
        self.phases.iter().map(|p| p.dumps.len()).sum()
    }
}

fn fmt_budget(t: Option<Time>) -> String {
    match t {
        Some(t) => format!("{:.3} µs", t.as_us_f64()),
        None => "—".to_string(),
    }
}

/// The human digest (`results/SOAK.md`): per-phase sketch quantiles,
/// SLO verdicts, and the dump inventory.
pub fn render_soak_markdown(scenarios: &[SoakScenario]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# Soak: sustained broadcast traffic under SLO watchdogs\n");
    let _ = writeln!(
        out,
        "Back-to-back reliable broadcasts through healthy and fault-plan \
         phases. Latency quantiles come from the streaming log₂ sketches \
         (upper-bound semantics: a reported quantile is at least the exact \
         nearest-rank value and less than 2× it); an SLO breach freezes the \
         flight-recorder ring and dumps forensics for just that window."
    );
    for s in scenarios {
        let _ = writeln!(
            out,
            "\n## {} (`{}`, {} cores, {} epochs)\n",
            s.label,
            s.id,
            s.cores,
            s.epochs()
        );
        let _ = writeln!(
            out,
            "SLO: delivery p99 ≤ {}, makespan ≤ {}, zero recoveries {}.\n",
            fmt_budget(s.policy.p99_budget),
            fmt_budget(s.policy.makespan_budget),
            if s.policy.zero_recoveries { "expected" } else { "not expected" },
        );
        let _ = writeln!(
            out,
            "| phase | drop ppm | epochs | p50 µs | p90 µs | p99 µs | p99.9 µs | \
             makespan max µs | timeouts | recoveries | faults | breaches |"
        );
        let _ = writeln!(out, "|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|");
        for p in &s.phases {
            let q = |q: f64| {
                p.sketch.quantile(q).map_or("—".to_string(), |t| format!("{:.3}", t.as_us_f64()))
            };
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {} | {} | {} | {:.3} | {} | {} | {} | {} |",
                p.id,
                p.drop_ppm,
                p.epochs,
                q(0.50),
                q(0.90),
                q(0.99),
                q(0.999),
                p.makespan_max.as_us_f64(),
                p.timeouts,
                p.recoveries,
                p.faults,
                p.breaches.len(),
            );
        }
        let breached: Vec<&SoakPhase> =
            s.phases.iter().filter(|p| !p.breaches.is_empty()).collect();
        if breached.is_empty() {
            let _ = writeln!(out, "\nEvery epoch met every objective; no dumps written.");
        } else {
            let _ = writeln!(out, "\n### Breaches and dumps\n");
            for p in breached {
                for b in &p.breaches {
                    let _ = writeln!(out, "- `{}/{}` {}", s.id, p.id, b.describe());
                }
                for d in &p.dumps {
                    let _ = writeln!(out, "- dump: `{d}`");
                }
            }
        }
    }
    out
}

/// The OpenMetrics-style text exposition (`results/soak_metrics.txt`):
/// counters and quantile gauges labelled by scenario and phase,
/// terminated by `# EOF`.
pub fn render_soak_openmetrics(scenarios: &[SoakScenario]) -> String {
    let mut out = String::new();
    let mut line = |s: &str| {
        out.push_str(s);
        out.push('\n');
    };
    line("# TYPE scc_soak_epochs counter");
    line("# HELP scc_soak_epochs Broadcast epochs completed in the phase.");
    for s in scenarios {
        for p in &s.phases {
            line(&format!(
                "scc_soak_epochs_total{{scenario=\"{}\",phase=\"{}\"}} {}",
                s.id, p.id, p.epochs
            ));
        }
    }
    line("# TYPE scc_soak_delivery_latency_us summary");
    line("# HELP scc_soak_delivery_latency_us Per-destination delivered latency (sketch upper bound).");
    for s in scenarios {
        for p in &s.phases {
            for (q, tag) in [(0.50, "0.5"), (0.90, "0.9"), (0.99, "0.99"), (0.999, "0.999")] {
                if let Some(t) = p.sketch.quantile(q) {
                    line(&format!(
                        "scc_soak_delivery_latency_us{{scenario=\"{}\",phase=\"{}\",quantile=\"{}\"}} {:.3}",
                        s.id, p.id, tag, t.as_us_f64()
                    ));
                }
            }
            line(&format!(
                "scc_soak_delivery_latency_us_count{{scenario=\"{}\",phase=\"{}\"}} {}",
                s.id,
                p.id,
                p.sketch.count()
            ));
        }
    }
    for (name, help, get) in [
        ("scc_soak_timeouts", "Reliability-layer timeouts.", 0usize),
        ("scc_soak_recoveries", "Reliability-layer recoveries.", 1),
        ("scc_soak_faults", "Faults injected by the plan.", 2),
        ("scc_soak_slo_breaches", "SLO objectives breached.", 3),
    ] {
        line(&format!("# TYPE {name} counter"));
        line(&format!("# HELP {name} {help}"));
        for s in scenarios {
            for p in &s.phases {
                let v = match get {
                    0 => p.timeouts,
                    1 => p.recoveries,
                    2 => p.faults,
                    _ => p.breaches.len() as u64,
                };
                line(&format!("{name}_total{{scenario=\"{}\",phase=\"{}\"}} {v}", s.id, p.id));
            }
        }
    }
    line("# EOF");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::scenarios;
    use crate::report::Json;
    use crate::slo::SloKind;

    fn sample() -> Vec<SoakScenario> {
        let mut healthy_sketch = QuantileSketch::new();
        let mut faulty_sketch = QuantileSketch::new();
        for i in 1..=100u64 {
            healthy_sketch.record_ps(60_000_000 + i * 1_000);
            faulty_sketch.record_ps(60_000_000 + i * 7_000_000);
        }
        vec![SoakScenario {
            id: "oc_k7".into(),
            label: "k=7 48c 8cl".into(),
            cores: 48,
            policy: SloPolicy {
                p99_budget: Some(Time::from_us_f64(100.0)),
                makespan_budget: Some(Time::from_us_f64(200.0)),
                zero_recoveries: true,
            },
            phases: vec![
                SoakPhase {
                    id: "healthy_a".into(),
                    drop_ppm: 0,
                    epochs: 100,
                    sketch: healthy_sketch,
                    makespan_max: Time::from_us_f64(80.0),
                    timeouts: 0,
                    probes: 0,
                    recoveries: 0,
                    renotifies: 0,
                    faults: 0,
                    breaches: vec![],
                    dumps: vec![],
                },
                SoakPhase {
                    id: "faults".into(),
                    drop_ppm: 50_000,
                    epochs: 100,
                    sketch: faulty_sketch,
                    makespan_max: Time::from_us_f64(900.0),
                    timeouts: 9,
                    probes: 9,
                    recoveries: 7,
                    renotifies: 2,
                    faults: 12,
                    breaches: vec![SloBreach {
                        epoch: 123,
                        kind: SloKind::Recovery,
                        observed: 7,
                        budget: 0,
                    }],
                    dumps: vec!["results/soak_dump_oc_k7_faults_0_trace.json".into()],
                },
            ],
        }]
    }

    #[test]
    fn artifact_round_trips_losslessly() {
        let text = scenarios("soak", &sample()).render();
        assert_eq!(Json::parse(&text).unwrap().render(), text);
        assert!(text.contains("\"kind\":\"recovery\""), "{text}");
    }

    #[test]
    fn markdown_digest_covers_phases_and_dumps() {
        let md = render_soak_markdown(&sample());
        assert!(md.contains("# Soak"), "{md}");
        assert!(md.contains("## k=7 48c 8cl (`oc_k7`, 48 cores, 200 epochs)"), "{md}");
        assert!(md.contains("| healthy_a | 0 | 100 |"), "{md}");
        assert!(md.contains("epoch 123: 7 recoveries (expected 0)"), "{md}");
        assert!(md.contains("soak_dump_oc_k7_faults_0_trace.json"), "{md}");
    }

    #[test]
    fn openmetrics_exposition_is_labelled_and_terminated() {
        let txt = render_soak_openmetrics(&sample());
        assert!(txt.ends_with("# EOF\n"), "{txt}");
        assert!(
            txt.contains("scc_soak_epochs_total{scenario=\"oc_k7\",phase=\"healthy_a\"} 100"),
            "{txt}"
        );
        assert!(
            txt.contains(
                "scc_soak_delivery_latency_us{scenario=\"oc_k7\",phase=\"faults\",quantile=\"0.99\"}"
            ),
            "{txt}"
        );
        assert!(txt.contains("scc_soak_slo_breaches_total{scenario=\"oc_k7\",phase=\"faults\"} 1"));
    }
}
