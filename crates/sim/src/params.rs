//! Micro-architecture parameters of the simulated chip.
//!
//! The analytical model of the paper (Table 1) describes *end-to-end*
//! costs; the simulator decomposes them into micro-parameters so that
//! contention can emerge mechanically from resource occupancy:
//!
//! ```text
//! C^mpb_r(d) = o_core_mpb_read  + d·Lhop + mpb_port_read  + d·Lhop
//! C^mpb_w(d) = o_core_mpb_write + d·Lhop + mpb_port_write + d·Lhop
//! C^mem_r(d) = o_core_mem_read  + d·Lhop + mc_read        + d·Lhop
//! C^mem_w(d) = o_core_mem_write + d·Lhop + mc_write       + d·Lhop
//! ```
//!
//! The defaults are chosen so a contention-free run reproduces Table 1
//! exactly (`o_core_* + service = o_*`), while the *service* components
//! make the shared resources (MPB ports, mesh routers, memory
//! controllers) saturate at realistic offered loads:
//!
//! * MPB port read service of 6 ns ⇒ with a per-line read cycle of
//!   ~0.17 µs a single MPB sustains ~28 concurrent getters before
//!   queueing — the paper's Figure 4a shows no measurable contention up
//!   to 24 accessors and clear contention at 48;
//! * port write service of 12 ns ⇒ the same knee for 1-line puts sits
//!   around 32 writers (Figure 4b);
//! * router occupancy of 1 ns ⇒ the mesh never saturates under
//!   core-driven load (Section 3.3: "the network cannot be a source of
//!   contention"), yet the mechanism exists and is measured;
//! * controller service of 8 ns ⇒ 12 cores per controller stay well
//!   under saturation ("no measurable performance degradation even when
//!   the 48 cores are accessing their private portion ... at the same
//!   time").

use scc_hal::Time;
use scc_obs::CostClass;

/// Timing parameters of the simulated SCC. All fields are per cache
/// line except the four per-operation software overheads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimParams {
    /// Time for a packet head to traverse one router (`L_hop`).
    pub l_hop: Time,
    /// How long a packet occupies a router before the next one may
    /// follow (virtual cut-through pipelining).
    pub router_occupancy: Time,

    /// MPB port service time for a line read (request + response turn).
    pub mpb_port_read: Time,
    /// MPB port service time for a line write (deposit + acknowledge).
    pub mpb_port_write: Time,
    /// Memory-controller service per line read.
    pub mc_read: Time,
    /// Memory-controller service per line write.
    pub mc_write: Time,

    /// Core-side per-line overhead of an MPB read (word-by-word copy
    /// into registers through the L1 miss path; see paper footnote 3).
    pub o_core_mpb_read: Time,
    /// Core-side per-line overhead of an MPB write.
    pub o_core_mpb_write: Time,
    /// Core-side per-line overhead of an off-chip read.
    pub o_core_mem_read: Time,
    /// Core-side per-line overhead of an off-chip write.
    pub o_core_mem_write: Time,

    /// Fixed software overhead of `put` between MPBs (`o^mpb_put`).
    pub o_put_mpb: Time,
    /// Fixed software overhead of `get` between MPBs (`o^mpb_get`).
    pub o_get_mpb: Time,
    /// Fixed software overhead of `put` sourced from off-chip memory.
    pub o_put_mem: Time,
    /// Fixed software overhead of `get` destined to off-chip memory.
    pub o_get_mem: Time,
}

impl Default for SimParams {
    fn default() -> Self {
        let ns = Time::from_ns;
        SimParams {
            l_hop: ns(5),
            router_occupancy: ns(1),
            mpb_port_read: ns(10),
            mpb_port_write: ns(18),
            mc_read: ns(8),
            mc_write: ns(8),
            // o^mpb = 0.126 µs split between core and port.
            o_core_mpb_read: ns(116),
            o_core_mpb_write: ns(108),
            // o^mem_r = 0.208 µs, o^mem_w = 0.461 µs.
            o_core_mem_read: ns(200),
            o_core_mem_write: ns(453),
            // Table 1 op overheads, verbatim.
            o_put_mpb: ns(69),
            o_get_mpb: ns(330),
            o_put_mem: ns(190),
            o_get_mem: ns(95),
        }
    }
}

impl SimParams {
    /// A copy of these parameters with one [`CostClass`] uniformly
    /// scaled by `factor` — the simulator-side hook of the causal
    /// what-if profiler (`scc_obs::whatif`). Scaling is applied to
    /// every micro-parameter in the class and rounded to the nearest
    /// picosecond, so `scaled(c, 1.0)` is the identity and results stay
    /// exactly reproducible.
    pub fn scaled(&self, class: CostClass, factor: f64) -> SimParams {
        assert!(factor.is_finite() && factor >= 0.0, "scale factor must be finite and >= 0");
        let s = |t: Time| Time::from_ps((t.as_ps() as f64 * factor).round() as u64);
        let mut p = *self;
        match class {
            CostClass::PortService => {
                p.mpb_port_read = s(p.mpb_port_read);
                p.mpb_port_write = s(p.mpb_port_write);
            }
            CostClass::RouterHop => p.l_hop = s(p.l_hop),
            CostClass::McService => {
                p.mc_read = s(p.mc_read);
                p.mc_write = s(p.mc_write);
            }
            CostClass::CoreOverhead => {
                p.o_core_mpb_read = s(p.o_core_mpb_read);
                p.o_core_mpb_write = s(p.o_core_mpb_write);
                p.o_core_mem_read = s(p.o_core_mem_read);
                p.o_core_mem_write = s(p.o_core_mem_write);
                p.o_put_mpb = s(p.o_put_mpb);
                p.o_get_mpb = s(p.o_get_mpb);
                p.o_put_mem = s(p.o_put_mem);
                p.o_get_mem = s(p.o_get_mem);
            }
            CostClass::LinkBandwidth => p.router_occupancy = s(p.router_occupancy),
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl SimParams {
        /// The end-to-end `o^mpb` this parameter set induces for reads
        /// (must equal Table 1's 0.126 µs with defaults).
        fn o_mpb_read_total(&self) -> Time {
            self.o_core_mpb_read + self.mpb_port_read
        }

        /// End-to-end `o^mpb` for writes.
        fn o_mpb_write_total(&self) -> Time {
            self.o_core_mpb_write + self.mpb_port_write
        }

        /// End-to-end `o^mem_r`.
        fn o_mem_read_total(&self) -> Time {
            self.o_core_mem_read + self.mc_read
        }

        /// End-to-end `o^mem_w`.
        fn o_mem_write_total(&self) -> Time {
            self.o_core_mem_write + self.mc_write
        }
    }

    #[test]
    fn defaults_recompose_table1() {
        let p = SimParams::default();
        assert_eq!(p.o_mpb_read_total(), Time::from_ns(126));
        assert_eq!(p.o_mpb_write_total(), Time::from_ns(126));
        assert_eq!(p.o_mem_read_total(), Time::from_ns(208));
        assert_eq!(p.o_mem_write_total(), Time::from_ns(461));
        assert_eq!(p.l_hop, Time::from_ns(5));
    }

    #[test]
    fn port_knee_sits_between_24_and_48_getters() {
        // Closed-loop utilization argument from the module docs: the
        // 128-CL concurrent-get experiment must saturate the port
        // somewhere past 24 but before 48 concurrent accessors. The
        // per-line cycle of a getter is C^mpb_r(d) + C^mpb_w(1) at an
        // average distance of d ≈ 5 hops; each such cycle presents one
        // read to the contended port.
        let p = SimParams::default();
        let cycle = p.o_core_mpb_read + p.mpb_port_read + p.l_hop * 10 // C_r(5)
            + p.o_core_mpb_write + p.mpb_port_write + p.l_hop * 2; // C_w(1)
        let knee = cycle.as_ns_f64() / p.mpb_port_read.as_ns_f64();
        assert!(
            (24.0..48.0).contains(&knee),
            "contention knee at {knee} concurrent getters is outside the Fig.4 band"
        );
    }

    #[test]
    fn scaled_touches_exactly_its_class() {
        let p = SimParams::default();
        // Identity at factor 1.0 for every class.
        for c in CostClass::ALL {
            assert_eq!(p.scaled(c, 1.0), p, "{c}");
        }
        let port = p.scaled(CostClass::PortService, 1.5);
        assert_eq!(port.mpb_port_read, Time::from_ns(15));
        assert_eq!(port.mpb_port_write, Time::from_ns(27));
        assert_eq!(
            SimParams { mpb_port_read: p.mpb_port_read, mpb_port_write: p.mpb_port_write, ..port },
            p
        );

        let hop = p.scaled(CostClass::RouterHop, 0.5);
        assert_eq!(hop.l_hop, Time::from_ns(2) + Time::from_ps(500));
        assert_eq!(SimParams { l_hop: p.l_hop, ..hop }, p);

        let mc = p.scaled(CostClass::McService, 2.0);
        assert_eq!(mc.mc_read, Time::from_ns(16));
        assert_eq!(SimParams { mc_read: p.mc_read, mc_write: p.mc_write, ..mc }, p);

        let bw = p.scaled(CostClass::LinkBandwidth, 3.0);
        assert_eq!(bw.router_occupancy, Time::from_ns(3));
        assert_eq!(SimParams { router_occupancy: p.router_occupancy, ..bw }, p);

        // Core overhead scales software costs but no hardware service.
        let o = p.scaled(CostClass::CoreOverhead, 1.1);
        assert_eq!(o.o_put_mpb, Time::from_ps(75_900));
        assert_eq!(o.mpb_port_read, p.mpb_port_read);
        assert_eq!(o.l_hop, p.l_hop);
        assert!(o.o_core_mem_write > p.o_core_mem_write);
    }

    #[test]
    fn put_knee_sits_between_20_and_48_writers() {
        // Same argument for the 1-CL concurrent-put experiment (Fig 4b):
        // per put the writer spends o_put + C_r(1) + C_w(d) and presents
        // one write to the contended port.
        let p = SimParams::default();
        let cycle = p.o_put_mpb
            + p.o_core_mpb_read + p.mpb_port_read + p.l_hop * 2 // C_r(1)
            + p.o_core_mpb_write + p.mpb_port_write + p.l_hop * 10; // C_w(5)
        let knee = cycle.as_ns_f64() / p.mpb_port_write.as_ns_f64();
        assert!(
            (20.0..48.0).contains(&knee),
            "put contention knee at {knee} concurrent writers is outside the Fig.4 band"
        );
    }
}
