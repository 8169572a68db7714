//! Causal what-if profiles: which cost class is each protocol actually
//! bound by?
//!
//! Coz-style causal profiling against the simulator's cost model: rerun
//! a scenario with one [`CostClass`] virtually scaled (±10%) and read
//! the makespan sensitivity off the reruns. The paper's two headline
//! characterizations become checkable shape claims:
//!
//! * OC-Bcast with a flat tree (k=47) at a large message is
//!   **port-bound** — 47 getters hammer the root's MPB port, so the
//!   port service time dominates every other hardware class
//!   (Section 5's contention model, Figure 4a's knee);
//! * the binomial-tree baseline at one cache line is **latency-bound**
//!   — nothing saturates, so among hardware classes the per-hop mesh
//!   latency `L_hop` dominates, while overall the per-message software
//!   overhead `o` dominates everything (the LogP structure of
//!   Section 4.4's baseline analysis).

use super::{outln, Point, Sweep};
use crate::{Run, Scenario};
use oc_bcast::Algorithm;
use scc_hal::Time;
use scc_obs::{CostClass, WhatIfPoint, WhatIfProfile};
use scc_sim::{SimError, SimParams};

/// The two extremes the paper contrasts.
fn scenarios() -> [Scenario; 2] {
    [Scenario::new(Algorithm::oc_with_k(47), 48, 96), Scenario::new(Algorithm::Binomial, 48, 1)]
}

/// Scale factors per class: a symmetric pair in full mode (averaging
/// +10% and −10% points cancels boundary effects), the cheap single
/// +10% point in quick mode.
fn factors(quick: bool) -> &'static [f64] {
    if quick {
        &[1.1]
    } else {
        &[0.9, 1.1]
    }
}

/// One unit of a scenario's scan: its nominal run (`class: None`) or
/// one cost class's scaled reruns, one per factor.
struct Scan {
    sc: Scenario,
    class: Option<CostClass>,
    factors: &'static [f64],
}

impl Point for Scan {
    fn key(&self) -> String {
        match self.class {
            None => format!("{} nominal", self.sc.label),
            Some(class) => format!("{} scale {}", self.sc.label, class.name()),
        }
    }
    fn cost(&self) -> u64 {
        self.sc.lines as u64 * if self.class.is_some() { self.factors.len() as u64 } else { 1 }
    }
}

/// The scan's makespans: the nominal one, or one per factor.
fn measure(scan: &Scan) -> Result<Vec<Time>, SimError> {
    let base = SimParams::default();
    let makespan = |params| scan.sc.run(&Run { params, ..Run::default() }).map(|o| o.makespan);
    match scan.class {
        None => Ok(vec![makespan(base)?]),
        Some(class) => scan.factors.iter().map(|&f| makespan(base.scaled(class, f))).collect(),
    }
}

/// A scenario's scan units: its nominal run, then one per cost class
/// in `CostClass::ALL` order.
fn scans(sc: Scenario, factors: &'static [f64]) -> impl Iterator<Item = Scan> {
    let classes = std::iter::once(None).chain(CostClass::ALL.map(Some));
    classes.map(move |class| Scan { sc: sc.clone(), class, factors })
}

/// One scenario's profile from its scans and their makespans.
fn profile(scans: &[(Scan, Vec<Time>)]) -> WhatIfProfile {
    let mut p = WhatIfProfile {
        scenario: scans[0].0.sc.label.clone(),
        nominal: Time::ZERO,
        points: Vec::new(),
    };
    for (scan, makespans) in scans {
        let Some(class) = scan.class else {
            p.nominal = makespans[0];
            continue;
        };
        let points = scan.factors.iter().zip(makespans);
        p.points.extend(points.map(|(&factor, &makespan)| WhatIfPoint { class, factor, makespan }));
    }
    p
}

/// Causal what-if scan of `sc` (the drift explainer of a failing
/// `observatory` run): rerun it with every [`CostClass`] scaled by each
/// factor of the `whatif` experiment and collect the sensitivities.
pub fn whatif_profile(sc: &Scenario, quick: bool) -> Result<WhatIfProfile, SimError> {
    let pairs = scans(sc.clone(), factors(quick))
        .map(|scan| measure(&scan).map(|makespans| (scan, makespans)))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(profile(&pairs))
}

pub(super) fn plan(quick: bool) -> Sweep {
    // The what-if scan decomposes naturally: one unit for each
    // scenario's nominal run, one per (scenario, cost class) for that
    // class's scaled reruns. Profiles reassemble in finalize exactly as
    // `whatif_profile` assembles them.
    let factors = factors(quick);
    let scans = scenarios().into_iter().flat_map(|sc| scans(sc, factors));
    Sweep::points(scans.collect(), measure, |ctx, pairs| {
        let mut profiles = Vec::new();
        for scans in pairs.chunk_by(|a, b| a.0.sc.label == b.0.sc.label) {
            let p = profile(scans);
            outln!(ctx, "{}", p.render_markdown());
            for class in CostClass::ALL {
                let Some(s) = p.sensitivity(class) else { continue };
                // Sensitivities are exact on the deterministic simulator;
                // the band exists to absorb deliberate cost-model retunes
                // on classes that barely matter (absolute movement of a
                // near-zero sensitivity is what we care about, so the band
                // is generous for small values via the gate's max(|old|,
                // 1e-9) scale — a 0.35 dominating sensitivity still may not
                // move 25% without tripping).
                ctx.row(
                    format!("{} sens {}", p.scenario, class.name()),
                    None,
                    None,
                    s,
                    0.25,
                    "dM/dc",
                );
            }
            profiles.push(p);
        }

        // The claims contrast the two scenarios; without both, their
        // shape checks are missing and the drift gate says so.
        let [oc, binomial] = &profiles[..] else { return };

        let sens = |p: &WhatIfProfile, c: CostClass| p.sensitivity(c).unwrap_or(0.0);
        let oc_port = sens(oc, CostClass::PortService);
        let oc_hop = sens(oc, CostClass::RouterHop);
        ctx.shape(
            "flat-tree OC-Bcast 96CL is port-bound",
            oc.dominant_hardware() == Some(CostClass::PortService) && oc_port > 2.0 * oc_hop,
            format!(
                "hardware sensitivities: port {oc_port:.3} vs hop {oc_hop:.3} (dominant: {:?})",
                oc.dominant_hardware().map(CostClass::name)
            ),
        );

        let bin_hop = sens(binomial, CostClass::RouterHop);
        let bin_port = sens(binomial, CostClass::PortService);
        ctx.shape(
            "binomial 1CL is latency-bound in the fabric",
            binomial.dominant_hardware() == Some(CostClass::RouterHop),
            format!(
                "hardware sensitivities: hop {bin_hop:.3} vs port {bin_port:.3} (dominant: {:?})",
                binomial.dominant_hardware().map(CostClass::name)
            ),
        );

        let bin_o = sens(binomial, CostClass::CoreOverhead);
        ctx.shape(
            "binomial 1CL overall cost is software overhead",
            binomial.dominant() == Some(CostClass::CoreOverhead) && bin_o > 0.5,
            format!(
                "core-overhead sensitivity {bin_o:.3} (LogP o dominates rounds of tiny messages)"
            ),
        );

        // Port scaling must *never* matter for the uncongested binomial the
        // way it does for the flat tree — the contrast itself is the claim.
        ctx.shape(
            "port sensitivity separates the two protocols",
            oc_port > 4.0 * bin_port,
            format!("flat-tree port sensitivity {oc_port:.3} vs binomial {bin_port:.3}"),
        );
    })
}

#[cfg(test)]
mod tests {
    use crate::representative_scenario;

    #[test]
    fn representative_scenarios_cover_the_registry() {
        for id in ["fig4", "fig5", "fig8b", "table1", "heatmap", "nonsense"] {
            let sc = representative_scenario(id);
            assert!((1..=48).contains(&sc.cores), "{id}: {sc:?}");
            assert!(sc.lines >= 1, "{id}: {sc:?}");
        }
        // The contention experiments map to the port-saturating flat tree.
        assert_eq!(representative_scenario("fig4").label, "k=47 48c 96cl");
        // The tree-latency experiment maps to the latency-bound baseline.
        assert_eq!(representative_scenario("fig5").label, "binomial 48c 1cl");
    }
}
