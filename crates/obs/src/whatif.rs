//! Causal what-if profiles: which simulator cost class does a
//! scenario's makespan actually depend on?
//!
//! In the style of causal profiling (Coz), the question "is OC-Bcast
//! port-bound?" is answered experimentally: rerun the same scenario
//! with one cost class virtually scaled (±N% on the MPB-port service
//! time, the per-hop router latency, …) and measure how much the
//! makespan moves. The *sensitivity* of a class is the observed
//! relative makespan change per relative cost change — ~1.0 means the
//! class sits on the critical path end-to-end, ~0.0 means it is fully
//! hidden by overlap. The paper's claims map directly: OC-Bcast at
//! large message sizes should be most sensitive to MPB-port service
//! (Section 5's port-contention model), the binomial baseline at one
//! cache line to per-hop latency among the mesh/memory classes.
//!
//! This module is the data model and arithmetic; actually *running*
//! the scaled scenarios lives in `scc-bench` (which owns the
//! simulator), via [`scc-sim`]'s `SimParams::scaled` hook keyed by
//! [`CostClass`]. `CostClass` is defined here so both the simulator
//! hook and report consumers share one taxonomy without a dependency
//! cycle.

use crate::report::Json;
use scc_hal::Time;
use std::fmt;
use std::fmt::Write as _;

/// One knob of the simulator's cost model that a what-if run can scale
/// uniformly.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CostClass {
    /// MPB port service time per cache line (read and write sides).
    PortService,
    /// Per-hop mesh router forwarding latency.
    RouterHop,
    /// Memory-controller service time per cache line.
    McService,
    /// Core-side software overhead: per-op issue costs and per-line
    /// instruction overheads (the LogP `o`).
    CoreOverhead,
    /// Mesh link occupancy per packet — the inverse of link bandwidth.
    LinkBandwidth,
}

impl CostClass {
    /// Every class, in rendering order. Sweeps iterate this list so a
    /// new class cannot silently fall out of the profile.
    pub const ALL: [CostClass; 5] = [
        CostClass::PortService,
        CostClass::RouterHop,
        CostClass::McService,
        CostClass::CoreOverhead,
        CostClass::LinkBandwidth,
    ];

    /// Hardware-side classes — the subset that distinguishes *where in
    /// the fabric* a protocol is bound, excluding the software overhead
    /// that every operation pays on the issuing core.
    pub const HARDWARE: [CostClass; 4] = [
        CostClass::PortService,
        CostClass::RouterHop,
        CostClass::McService,
        CostClass::LinkBandwidth,
    ];

    pub const fn name(self) -> &'static str {
        match self {
            CostClass::PortService => "mpb-port-service",
            CostClass::RouterHop => "router-hop",
            CostClass::McService => "mc-service",
            CostClass::CoreOverhead => "core-overhead",
            CostClass::LinkBandwidth => "link-bandwidth",
        }
    }
}

impl fmt::Display for CostClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One measured point: the scenario rerun with `class` scaled by
/// `factor` (1.0 = nominal).
#[derive(Clone, Copy, Debug)]
pub struct WhatIfPoint {
    pub class: CostClass,
    pub factor: f64,
    pub makespan: Time,
}

impl WhatIfPoint {
    /// Observed sensitivity at this point: relative makespan change per
    /// relative cost change. 1.0 means the scaled class is fully on the
    /// critical path; 0.0 means scaling it changed nothing.
    pub fn sensitivity(&self, nominal: Time) -> f64 {
        let dc = self.factor - 1.0;
        if dc == 0.0 || nominal == Time::ZERO {
            return 0.0;
        }
        let dm = (self.makespan.as_ps() as f64 - nominal.as_ps() as f64) / nominal.as_ps() as f64;
        dm / dc
    }
}

/// The what-if profile of one scenario: its nominal makespan plus every
/// scaled rerun.
#[derive(Clone, Debug)]
pub struct WhatIfProfile {
    /// Scenario label, e.g. `"ocbcast k=47 48c 96CL"`.
    pub scenario: String,
    pub nominal: Time,
    pub points: Vec<WhatIfPoint>,
}

impl WhatIfProfile {
    /// Mean sensitivity of `class` over all its measured points
    /// (averaging a +N% and a −N% point cancels boundary effects).
    /// `None` if the class was not swept.
    pub fn sensitivity(&self, class: CostClass) -> Option<f64> {
        let s: Vec<f64> = self
            .points
            .iter()
            .filter(|p| p.class == class)
            .map(|p| p.sensitivity(self.nominal))
            .collect();
        if s.is_empty() {
            None
        } else {
            Some(s.iter().sum::<f64>() / s.len() as f64)
        }
    }

    fn dominant_among(&self, candidates: &[CostClass]) -> Option<CostClass> {
        candidates
            .iter()
            .copied()
            .filter_map(|c| self.sensitivity(c).map(|s| (c, s)))
            .max_by(|a, b| a.1.abs().partial_cmp(&b.1.abs()).expect("sensitivities are finite"))
            .map(|(c, _)| c)
    }

    /// The class with the largest absolute sensitivity.
    pub fn dominant(&self) -> Option<CostClass> {
        self.dominant_among(&CostClass::ALL)
    }

    /// The dominant class among [`CostClass::HARDWARE`] — "where in the
    /// fabric is this protocol bound", ignoring the core-side software
    /// overhead every message pays.
    pub fn dominant_hardware(&self) -> Option<CostClass> {
        self.dominant_among(&CostClass::HARDWARE)
    }

    /// Markdown table: one row per swept class with its per-factor
    /// makespans and the mean sensitivity, dominant class flagged.
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "scenario `{}`: nominal makespan {}", self.scenario, self.nominal);
        let _ = writeln!(out);
        let _ = writeln!(out, "| cost class | scaled makespans | sensitivity |  |");
        let _ = writeln!(out, "|---|---|---:|---|");
        let dom = self.dominant();
        for class in CostClass::ALL {
            let pts: Vec<&WhatIfPoint> = self.points.iter().filter(|p| p.class == class).collect();
            if pts.is_empty() {
                continue;
            }
            let runs = pts
                .iter()
                .map(|p| format!("x{:.2} -> {}", p.factor, p.makespan))
                .collect::<Vec<_>>()
                .join(", ");
            let s = self.sensitivity(class).unwrap_or(0.0);
            let flag = if Some(class) == dom { "**dominant**" } else { "" };
            let _ = writeln!(out, "| {class} | {runs} | {s:.3} | {flag} |");
        }
        out
    }

    /// JSON form for `BENCH_whatif.json`; the caller wraps profiles in
    /// a versioned envelope (see `conformance::ARTIFACT_VERSION`).
    pub fn to_json(&self) -> Json {
        let points = self
            .points
            .iter()
            .map(|p| {
                Json::obj()
                    .set("class", Json::Str(p.class.name().into()))
                    .set("factor", Json::Num(p.factor))
                    .set("makespan_ps", Json::Int(p.makespan.as_ps() as i64))
                    .set("sensitivity", Json::Num(p.sensitivity(self.nominal)))
            })
            .collect();
        let sens = CostClass::ALL
            .into_iter()
            .filter_map(|c| self.sensitivity(c).map(|s| (c, s)))
            .fold(Json::obj(), |j, (c, s)| j.set(c.name(), Json::Num(s)));
        let mut j = Json::obj()
            .set("scenario", Json::Str(self.scenario.clone()))
            .set("nominal_ps", Json::Int(self.nominal.as_ps() as i64))
            .set("points", Json::Arr(points))
            .set("sensitivity", sens);
        if let Some(d) = self.dominant() {
            j = j.set("dominant", Json::Str(d.name().into()));
        }
        if let Some(d) = self.dominant_hardware() {
            j = j.set("dominant_hardware", Json::Str(d.name().into()));
        }
        j
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: f64) -> Time {
        Time::from_us_f64(v)
    }

    fn profile() -> WhatIfProfile {
        WhatIfProfile {
            scenario: "test".into(),
            nominal: us(100.0),
            points: vec![
                // Port fully on the path: +10% cost -> +10% makespan.
                WhatIfPoint { class: CostClass::PortService, factor: 1.1, makespan: us(110.0) },
                WhatIfPoint { class: CostClass::PortService, factor: 0.9, makespan: us(90.0) },
                // Router half-hidden by overlap.
                WhatIfPoint { class: CostClass::RouterHop, factor: 1.1, makespan: us(105.0) },
                WhatIfPoint { class: CostClass::RouterHop, factor: 0.9, makespan: us(95.0) },
                // Mc irrelevant.
                WhatIfPoint { class: CostClass::McService, factor: 1.1, makespan: us(100.0) },
                // Overhead dominates everything.
                WhatIfPoint { class: CostClass::CoreOverhead, factor: 1.1, makespan: us(112.0) },
            ],
        }
    }

    #[test]
    fn sensitivity_is_relative_slope() {
        let p = profile();
        assert!((p.sensitivity(CostClass::PortService).unwrap() - 1.0).abs() < 1e-9);
        assert!((p.sensitivity(CostClass::RouterHop).unwrap() - 0.5).abs() < 1e-9);
        assert!(p.sensitivity(CostClass::McService).unwrap().abs() < 1e-9);
        assert_eq!(p.sensitivity(CostClass::LinkBandwidth), None);
    }

    #[test]
    fn dominant_respects_the_hardware_filter() {
        let p = profile();
        // Overall, core overhead moves the makespan the most…
        assert_eq!(p.dominant(), Some(CostClass::CoreOverhead));
        // …but among fabric classes the port dominates.
        assert_eq!(p.dominant_hardware(), Some(CostClass::PortService));
    }

    #[test]
    fn names_round_trip() {
        // Each name identifies exactly one class.
        for c in CostClass::ALL {
            assert_eq!(CostClass::ALL.iter().filter(|o| o.name() == c.name()).count(), 1);
        }
    }

    #[test]
    fn markdown_flags_the_dominant_class() {
        let md = profile().render_markdown();
        assert!(md.contains("| core-overhead |"), "{md}");
        assert!(
            md.lines().any(|l| l.contains("core-overhead") && l.contains("**dominant**")),
            "{md}"
        );
        assert!(!md.contains("link-bandwidth"), "unswept class should be omitted: {md}");
    }

    #[test]
    fn json_is_valid_and_carries_sensitivities() {
        let j = profile().to_json().render();
        assert!(crate::validate_json(&j).is_ok(), "{j}");
        for key in ["scenario", "nominal_ps", "points", "sensitivity", "dominant"] {
            assert!(j.contains(key), "missing {key}: {j}");
        }
    }

    #[test]
    fn zero_nominal_or_factor_yields_zero_sensitivity() {
        let pt = WhatIfPoint { class: CostClass::RouterHop, factor: 1.0, makespan: us(5.0) };
        assert_eq!(pt.sensitivity(us(5.0)), 0.0);
        assert_eq!(pt.sensitivity(Time::ZERO), 0.0);
    }
}
