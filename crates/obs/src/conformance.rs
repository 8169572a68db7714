//! Conformance records: the structured side of every experiment the
//! `observatory` harness runs.
//!
//! Each experiment (one paper figure or table) yields a set of
//! [`ExperimentRow`]s — one per measured point, carrying the paper's
//! published value (when the paper prints one), the analytical model's
//! prediction, and the simulator's measurement — plus
//! [`ShapeCheck`]s, the qualitative claims the paper makes about each
//! figure (crossover positions, winners, knees, monotonicity) evaluated
//! against the fresh measurements, and [`SelfMetrics`] describing the
//! host-side cost of producing them.
//!
//! The whole bundle serializes to/from the `BENCH_figures.json`
//! artifact through the one wire codec ([`crate::artifact`]), and
//! [`drift_gate`]
//! compares a fresh report against a committed baseline: a CI run fails
//! if any measurement leaves its tolerance band, any shape check
//! regresses, or the run modes (quick vs. full) do not match.

use crate::artifact::{field, record, Wire};
use crate::report::Json;
use std::fmt::Write as _;

/// Schema version stamped into `BENCH_figures.json`; bump on breaking
/// layout changes so stale baselines fail loudly instead of weirdly.
pub const SCHEMA_VERSION: i64 = 1;

record! { parse
    /// One measured point of one experiment.
    #[derive(Clone, Debug, PartialEq)]
    pub struct ExperimentRow {
        /// Unique key within the experiment, e.g. `"latency k=7 bytes=32"`.
        /// The drift gate matches rows across runs by this string.
        pub point: String => "point",
        /// The value printed in the paper for this point, if any.
        pub paper_value: Option<f64> => "paper",
        /// The analytical model's prediction, if the model covers the point.
        pub model_prediction: Option<f64> => "model",
        /// What the simulator measured on this run.
        pub sim_measured: f64 => "sim",
        /// Relative tolerance band for the drift gate: a later run violates
        /// if `|new - old| > tolerance * max(|old|, 1e-9)`.
        pub tolerance: f64 => "tol",
        /// Unit label for reports ("us", "MB/s", ...).
        pub unit: String => "unit",
    }
}

impl ExperimentRow {
    /// Relative deviation of the simulator from the model, when the
    /// model covers this point.
    pub fn model_drift(&self) -> Option<f64> {
        self.model_prediction
            .map(|m| (self.sim_measured - m) / if m.abs() > 1e-9 { m.abs() } else { 1e-9 })
    }
}

record! { parse
    /// One qualitative claim about a figure, evaluated on this run.
    #[derive(Clone, Debug, PartialEq)]
    pub struct ShapeCheck {
        /// Stable name the drift gate matches across runs.
        pub name: String => "name",
        /// Human-readable evidence (the numbers behind the verdict).
        pub detail: String => "detail",
        pub pass: bool => "pass",
    }
}

impl ShapeCheck {
    /// Record an evaluated claim.
    pub fn new(name: &str, pass: bool, detail: String) -> ShapeCheck {
        ShapeCheck { name: name.to_string(), detail, pass }
    }
}

record! { parse
    /// Host-side cost of producing one experiment's measurements.
    ///
    /// The engine counters (`sim_runs`, `sim_events`, `heap_pushes`,
    /// `coalesced_steps`) are attributed per experiment by summing each
    /// sweep unit's own run stats, so they are exact and deterministic even
    /// when experiments execute concurrently. `wall_s` is the sum of the
    /// units' individual wall times — the *sequential-equivalent* cost —
    /// which keeps its meaning under a parallel runner (the whole-run wall
    /// clock lives in [`RunMetrics`] instead).
    #[derive(Clone, Debug, Default, PartialEq)]
    pub struct SelfMetrics {
        /// Sequential-equivalent wall-clock seconds: the sum over this
        /// experiment's sweep units of each unit's own elapsed time.
        pub wall_s: f64 => "wall_s",
        /// Simulator runs launched.
        pub sim_runs: u64 => "sim_runs",
        /// Events retired across those runs.
        pub sim_events: u64 => "sim_events",
        /// Event-queue pushes across those runs.
        pub heap_pushes: u64 => "heap_pushes",
        /// Event-queue round-trips elided by the coalescing fast path.
        pub coalesced_steps: u64 => "coalesced_steps",
        /// Independently schedulable sweep units the experiment
        /// decomposed into.
        pub units: u64 => "units",
    }
    derived { "events_per_sec" => SelfMetrics::events_per_sec }
}

impl SelfMetrics {
    /// Engine throughput while this experiment ran (against the
    /// sequential-equivalent time).
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.sim_events as f64 / self.wall_s
        } else {
            0.0
        }
    }

    /// Fold another metrics bundle into this one (used when merging
    /// sweep units into an experiment report).
    pub fn absorb(&mut self, other: &SelfMetrics) {
        self.wall_s += other.wall_s;
        self.sim_runs += other.sim_runs;
        self.sim_events += other.sim_events;
        self.heap_pushes += other.heap_pushes;
        self.coalesced_steps += other.coalesced_steps;
        self.units += other.units;
    }
}

record! { parse
    /// Whole-run self-metrics of one observatory invocation: how the
    /// parallel runner actually performed. Excluded from the drift gate and
    /// from `CONFORMANCE.md` (wall clock is host-dependent); carried in
    /// `BENCH_figures.json` so CI can track the speedup across PRs.
    #[derive(Clone, Debug, Default, PartialEq)]
    pub struct RunMetrics {
        /// Worker threads the runner was allowed (`--jobs`).
        pub jobs: u64 => "jobs",
        /// Sweep units executed across all experiments.
        pub units: u64 => "units",
        /// Actual wall-clock seconds for the whole registry run.
        pub wall_s: f64 => "wall_s",
        /// Sequential-equivalent seconds (sum of per-unit wall times).
        pub seq_s: f64 => "seq_s",
        /// High-water mark of concurrently executing simulations.
        pub peak_in_flight: u64 => "peak_in_flight",
    }
    derived {
        "speedup" => RunMetrics::speedup,
        "units_per_sec" => RunMetrics::units_per_sec,
    }
}

impl RunMetrics {
    /// Measured speedup over the sequential-equivalent cost.
    pub fn speedup(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.seq_s / self.wall_s
        } else {
            0.0
        }
    }

    /// Sweep units retired per wall-clock second.
    pub fn units_per_sec(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.units as f64 / self.wall_s
        } else {
            0.0
        }
    }
}

record! { parse
    /// Everything one experiment produced.
    #[derive(Clone, Debug, PartialEq)]
    pub struct ExperimentReport {
        /// Registry id, e.g. `"fig6"`.
        pub id: String => "id",
        /// Human title, e.g. `"Figure 6: OC-Bcast latency vs. message size"`.
        pub title: String => "title",
        pub rows: Vec<ExperimentRow> => "rows",
        pub shapes: Vec<ShapeCheck> => "shapes",
        pub metrics: SelfMetrics => "metrics",
    }
}

impl ExperimentReport {
    /// All shape claims held on this run.
    pub fn shapes_pass(&self) -> bool {
        self.shapes.iter().all(|s| s.pass)
    }
}

/// The full `BENCH_figures.json` payload.
#[derive(Clone, Debug, PartialEq)]
pub struct ConformanceReport {
    pub schema: i64,
    /// Whether the run used reduced sweeps (`observatory --quick`).
    /// Quick and full runs measure different points, so the drift gate
    /// refuses to compare across modes.
    pub quick: bool,
    pub experiments: Vec<ExperimentReport>,
    /// Whole-run runner metrics (absent in hand-assembled partial
    /// reports).
    pub run: Option<RunMetrics>,
}

impl ConformanceReport {
    pub fn new(quick: bool) -> ConformanceReport {
        ConformanceReport { schema: SCHEMA_VERSION, quick, experiments: Vec::new(), run: None }
    }

    pub fn experiment(&self, id: &str) -> Option<&ExperimentReport> {
        self.experiments.iter().find(|e| e.id == id)
    }

    /// All shape claims of all experiments held.
    pub fn shapes_pass(&self) -> bool {
        self.experiments.iter().all(|e| e.shapes_pass())
    }

    pub fn to_json(&self) -> Json {
        let mut doc = Json::obj()
            .set("schema", Json::Int(self.schema))
            .set("quick", self.quick.to_wire())
            .set("experiments", self.experiments.to_wire());
        if let Some(run) = &self.run {
            doc = doc.set("run", run.to_wire());
        }
        doc
    }

    /// Parse a rendered report back (e.g. the committed CI baseline).
    /// The schema is checked before any other field; top-level keys
    /// other than `schema`, `quick`, `experiments` and `run` are ignored.
    pub fn from_json(s: &str) -> Result<ConformanceReport, String> {
        let v = Json::parse(s)?;
        let schema = v.get("schema").and_then(Json::as_i64).ok_or("missing integer 'schema'")?;
        if schema != SCHEMA_VERSION {
            return Err(format!("schema {schema} != supported {SCHEMA_VERSION}"));
        }
        Ok(ConformanceReport {
            schema,
            quick: field(&v, "quick")?,
            experiments: field(&v, "experiments")?,
            run: v.get("run").map(|_| field(&v, "run")).transpose()?,
        })
    }

    /// The human-readable drift report (`results/CONFORMANCE.md`).
    ///
    /// Deliberately deterministic: only engine counters (exact on the
    /// deterministic simulator) appear, never wall-clock or derived
    /// rates, so the rendered file is byte-identical across hosts and
    /// across `--jobs` settings. Wall-clock self-metrics live in
    /// `BENCH_figures.json` only.
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        let shapes_total: usize = self.experiments.iter().map(|e| e.shapes.len()).sum();
        let shapes_fail: usize =
            self.experiments.iter().flat_map(|e| &e.shapes).filter(|s| !s.pass).count();
        let events: u64 = self.experiments.iter().map(|e| e.metrics.sim_events).sum();
        let _ = writeln!(out, "# Conformance report\n");
        let _ = writeln!(
            out,
            "Mode: **{}** · {} experiments · {} shape checks ({} failing) · \
             {:.1}M engine events\n",
            if self.quick { "quick" } else { "full" },
            self.experiments.len(),
            shapes_total,
            shapes_fail,
            events as f64 / 1e6,
        );
        for e in &self.experiments {
            let _ = writeln!(out, "## {} — {}\n", e.id, e.title);
            let m = &e.metrics;
            let _ = writeln!(
                out,
                "{} sim runs · {} sweep units · {:.2}M events · \
                 {:.2}M heap pushes · {:.2}M coalesced\n",
                m.sim_runs,
                m.units,
                m.sim_events as f64 / 1e6,
                m.heap_pushes as f64 / 1e6,
                m.coalesced_steps as f64 / 1e6,
            );
            if !e.rows.is_empty() {
                let _ = writeln!(out, "| point | paper | model | sim | model drift | unit |");
                let _ = writeln!(out, "|---|---:|---:|---:|---:|---|");
                for r in &e.rows {
                    let _ = writeln!(
                        out,
                        "| {} | {} | {} | {:.4} | {} | {} |",
                        r.point,
                        fmt_opt(r.paper_value),
                        fmt_opt(r.model_prediction),
                        r.sim_measured,
                        r.model_drift()
                            .map(|d| format!("{:+.1}%", d * 100.0))
                            .unwrap_or_else(|| "—".into()),
                        r.unit,
                    );
                }
                let _ = writeln!(out);
            }
            for s in &e.shapes {
                let _ = writeln!(
                    out,
                    "- {} **{}** — {}",
                    if s.pass { "✓" } else { "✗" },
                    s.name,
                    s.detail
                );
            }
            let _ = writeln!(out);
        }
        out
    }
}

fn fmt_opt(v: Option<f64>) -> String {
    v.map(|n| format!("{n:.4}")).unwrap_or_else(|| "—".into())
}

/// One reason the drift gate failed.
#[derive(Clone, Debug, PartialEq)]
pub struct DriftViolation {
    /// Experiment id the violation belongs to ("" for report-level).
    pub experiment: String,
    pub what: String,
}

/// Outcome of comparing a fresh run against a committed baseline.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DriftReport {
    pub violations: Vec<DriftViolation>,
    pub rows_checked: usize,
    pub shapes_checked: usize,
}

impl DriftReport {
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "drift gate: {} rows, {} shape checks compared — {}",
            self.rows_checked,
            self.shapes_checked,
            if self.ok() {
                "PASS".to_string()
            } else {
                format!("{} violation(s)", self.violations.len())
            }
        );
        for v in &self.violations {
            let _ = writeln!(
                out,
                "  [{}] {}",
                if v.experiment.is_empty() { "report" } else { &v.experiment },
                v.what
            );
        }
        out
    }
}

/// Compare a fresh conformance report against the committed baseline.
///
/// Fails (collects violations) when:
/// * the run modes differ (quick vs. full measure different points);
/// * a baseline experiment, row, or shape check disappeared;
/// * a measurement left its tolerance band
///   (`|new - old| > tol * max(|old|, 1e-9)`, `tol` from the baseline
///   row, so tolerances are versioned with the baseline);
/// * a shape check that passed in the baseline fails now (crossover
///   moved, winner flipped, knee shifted), or any current shape check
///   fails outright.
pub fn drift_gate(current: &ConformanceReport, baseline: &ConformanceReport) -> DriftReport {
    let mut rep = DriftReport::default();
    let mut fail = |exp: &str, what: String| {
        rep.violations.push(DriftViolation { experiment: exp.to_string(), what });
    };

    if current.quick != baseline.quick {
        fail(
            "",
            format!(
                "mode mismatch: baseline is {}, run is {}",
                if baseline.quick { "quick" } else { "full" },
                if current.quick { "quick" } else { "full" }
            ),
        );
        return rep;
    }

    for base in &baseline.experiments {
        let Some(cur) = current.experiment(&base.id) else {
            fail(&base.id, "experiment missing from this run".into());
            continue;
        };
        for brow in &base.rows {
            rep.rows_checked += 1;
            let Some(crow) = cur.rows.iter().find(|r| r.point == brow.point) else {
                fail(&base.id, format!("row '{}' missing from this run", brow.point));
                continue;
            };
            let scale = brow.sim_measured.abs().max(1e-9);
            let drift = (crow.sim_measured - brow.sim_measured).abs() / scale;
            if drift > brow.tolerance {
                fail(
                    &base.id,
                    format!(
                        "'{}' drifted {:.2}% (> {:.2}% band): {:.6} -> {:.6} {}",
                        brow.point,
                        drift * 100.0,
                        brow.tolerance * 100.0,
                        brow.sim_measured,
                        crow.sim_measured,
                        brow.unit,
                    ),
                );
            }
        }
        for bshape in &base.shapes {
            rep.shapes_checked += 1;
            match cur.shapes.iter().find(|s| s.name == bshape.name) {
                None => fail(&base.id, format!("shape check '{}' disappeared", bshape.name)),
                Some(cs) if bshape.pass && !cs.pass => fail(
                    &base.id,
                    format!("shape regression: '{}' now fails — {}", cs.name, cs.detail),
                ),
                Some(_) => {}
            }
        }
    }

    // Shape checks are correctness claims: a fresh failure is a gate
    // failure even if the baseline never saw that check (or saw it
    // failing — a red baseline must not launder a red run).
    for cur in &current.experiments {
        for s in cur.shapes.iter().filter(|s| !s.pass) {
            let regressed = baseline
                .experiment(&cur.id)
                .is_some_and(|b| b.shapes.iter().any(|bs| bs.name == s.name && bs.pass));
            if !regressed {
                fail(&cur.id, format!("shape check '{}' fails — {}", s.name, s.detail));
            }
        }
    }

    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::validate_json;

    fn sample() -> ConformanceReport {
        let mut r = ConformanceReport::new(false);
        r.experiments.push(ExperimentReport {
            id: "fig6".into(),
            title: "latency vs size".into(),
            rows: vec![
                ExperimentRow {
                    point: "k=7 bytes=32".into(),
                    paper_value: Some(12.0),
                    model_prediction: Some(11.5),
                    sim_measured: 11.8,
                    tolerance: 0.05,
                    unit: "us".into(),
                },
                ExperimentRow {
                    point: "k=7 bytes=8192".into(),
                    paper_value: None,
                    model_prediction: None,
                    sim_measured: 260.0,
                    tolerance: 0.05,
                    unit: "us".into(),
                },
            ],
            shapes: vec![ShapeCheck::new("monotone in size", true, "11.8 < 260.0".into())],
            metrics: SelfMetrics {
                wall_s: 2.0,
                sim_runs: 10,
                sim_events: 4_000_000,
                heap_pushes: 3_000_000,
                coalesced_steps: 1_000_000,
                units: 3,
            },
        });
        r.run = Some(RunMetrics { jobs: 4, units: 3, wall_s: 0.75, seq_s: 2.0, peak_in_flight: 4 });
        r
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let r = sample();
        let text = r.to_json().render();
        validate_json(&text).unwrap();
        let back = ConformanceReport::from_json(&text).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn from_json_rejects_schema_mismatch_and_junk() {
        assert!(ConformanceReport::from_json("{\"schema\":99}").is_err());
        assert!(ConformanceReport::from_json("not json").is_err());
        assert!(ConformanceReport::from_json("{}").is_err());
        // Counts are strict: negatives and fractions are parse errors
        // naming the key, never silently 0 or truncated.
        let good = sample().to_json().render();
        assert!(ConformanceReport::from_json(&good).is_ok());
        for (from, to, key) in [
            ("\"sim_runs\":10", "\"sim_runs\":-3", "sim_runs"),
            ("\"units\":3,\"events_per_sec\"", "\"units\":1.5,\"events_per_sec\"", "units"),
            ("\"peak_in_flight\":4", "\"peak_in_flight\":-1", "peak_in_flight"),
            ("\"units\":3,\"events_per_sec\"", "\"events_per_sec\"", "units"),
        ] {
            assert!(good.contains(from), "{from} not in {good}");
            let err = ConformanceReport::from_json(&good.replace(from, to)).unwrap_err();
            assert!(err.contains(key), "{to}: {err}");
        }
    }

    #[test]
    fn gate_passes_on_identical_reports() {
        let r = sample();
        let d = drift_gate(&r, &r);
        assert!(d.ok(), "{}", d.render());
        assert_eq!(d.rows_checked, 2);
        assert_eq!(d.shapes_checked, 1);
    }

    /// Baselines written while `BENCH_figures.json` still carried the
    /// `journeys`, `faults`, `soak` and `audit` summary blocks as
    /// top-level keys keep working. A block is self-description, not
    /// conformance: it is ignored on parse, so a report carrying it — or
    /// a wildly different one — gates clean against the same report
    /// without it, in both directions.
    fn gate_ignores_summary(key: &str, block: &str) {
        let r = sample();
        let text = r.to_json().render();
        let with_block = |b: &str| format!("{},\"{key}\":{b}}}", text.strip_suffix('}').unwrap());
        for b in [block, "{\"scenarios\":9223372036854775807}"] {
            let old_text = with_block(b);
            validate_json(&old_text).unwrap();
            let old = ConformanceReport::from_json(&old_text).unwrap();
            assert_eq!(old, r, "{key}: {b}");
            assert!(drift_gate(&old, &r).ok());
            assert!(drift_gate(&r, &old).ok());
        }
    }

    #[test]
    fn gate_ignores_journey_self_metrics() {
        gate_ignores_summary(
            "journeys",
            "{\"scenarios\":2,\"journeys\":96,\"max_delivery_us\":260.125}",
        );
    }

    #[test]
    fn gate_ignores_faults_self_metrics() {
        gate_ignores_summary("faults", "{\"scenarios\":3,\"recoveries\":31}");
    }

    #[test]
    fn gate_ignores_soak_self_metrics() {
        gate_ignores_summary("soak", "{\"epochs\":10000,\"dumps\":6}");
    }

    #[test]
    fn gate_ignores_audit_self_metrics() {
        gate_ignores_summary("audit", "{\"checks\":120000,\"violations\":0}");
    }

    #[test]
    fn gate_catches_out_of_band_drift() {
        let base = sample();
        let mut cur = sample();
        cur.experiments[0].rows[0].sim_measured *= 1.10; // 10% > 5% band
        let d = drift_gate(&cur, &base);
        assert_eq!(d.violations.len(), 1, "{}", d.render());
        assert!(d.violations[0].what.contains("drifted"));

        // In-band movement passes.
        let mut cur = sample();
        cur.experiments[0].rows[0].sim_measured *= 1.02;
        assert!(drift_gate(&cur, &base).ok());
    }

    #[test]
    fn gate_catches_shape_regression_and_fresh_failures() {
        let base = sample();
        let mut cur = sample();
        cur.experiments[0].shapes[0].pass = false;
        let d = drift_gate(&cur, &base);
        assert_eq!(d.violations.len(), 1, "{}", d.render());
        assert!(d.violations[0].what.contains("shape regression"));

        // A brand-new failing shape also fails the gate.
        let mut cur = sample();
        cur.experiments[0].shapes.push(ShapeCheck::new("new claim", false, "broke".into()));
        let d = drift_gate(&cur, &base);
        assert_eq!(d.violations.len(), 1, "{}", d.render());
        assert!(d.violations[0].what.contains("'new claim' fails"));
    }

    #[test]
    fn gate_catches_missing_pieces_and_mode_mismatch() {
        let base = sample();
        let d = drift_gate(&ConformanceReport::new(false), &base);
        assert!(d.violations.iter().any(|v| v.what.contains("experiment missing")));

        let mut cur = sample();
        cur.experiments[0].rows.remove(1);
        cur.experiments[0].shapes.clear();
        let d = drift_gate(&cur, &base);
        assert!(d.violations.iter().any(|v| v.what.contains("row 'k=7 bytes=8192' missing")));
        assert!(d.violations.iter().any(|v| v.what.contains("disappeared")));

        let mut cur = sample();
        cur.quick = true;
        let d = drift_gate(&cur, &base);
        assert_eq!(d.violations.len(), 1);
        assert!(d.violations[0].what.contains("mode mismatch"));
    }

    #[test]
    fn markdown_lists_rows_and_verdicts() {
        let mut r = sample();
        r.experiments[0].shapes.push(ShapeCheck::new("failing claim", false, "nope".into()));
        let md = r.render_markdown();
        assert!(md.contains("# Conformance report"));
        assert!(md.contains("## fig6 — latency vs size"));
        assert!(md.contains("| k=7 bytes=32 | 12.0000 | 11.5000 | 11.8000 |"));
        assert!(md.contains("✓ **monotone in size**"));
        assert!(md.contains("✗ **failing claim**"));
        assert!(md.contains("1 failing"));
    }
}
