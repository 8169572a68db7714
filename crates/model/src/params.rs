//! The eight parameters of the communication model (Table 1 of the
//! paper), in microseconds.
//!
//! The LogP model is adapted to the SCC in three ways (Section 3.1):
//! latency becomes a function of the router distance `d` (`Lhop` per
//! router), message size is counted in 32-byte cache lines, and the gap
//! parameter `g` disappears because a P54C core performs one memory
//! transaction at a time — transferring `m` lines costs `m` times one
//! line.

/// Model parameters, Table 1. All values in microseconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ModelParams {
    /// Time for one packet to traverse one router (`L_hop`).
    pub l_hop: f64,
    /// Core overhead of reading or writing one cache line on an MPB (`o^mpb`).
    pub o_mpb: f64,
    /// Overhead of writing one cache line to off-chip memory (`o^mem_w`),
    /// including the memory-controller time (Section 3.1.2).
    pub o_mem_w: f64,
    /// Overhead of reading one cache line from off-chip memory (`o^mem_r`).
    pub o_mem_r: f64,
    /// Fixed software overhead of a `put` between MPBs (`o^mpb_put`).
    pub o_mpb_put: f64,
    /// Fixed software overhead of a `get` between MPBs (`o^mpb_get`).
    pub o_mpb_get: f64,
    /// Fixed software overhead of a `put` whose source is off-chip memory.
    pub o_mem_put: f64,
    /// Fixed software overhead of a `get` whose destination is off-chip memory.
    pub o_mem_get: f64,
}

impl Default for ModelParams {
    /// The values measured on the SCC by the authors (Table 1).
    fn default() -> Self {
        ModelParams {
            l_hop: 0.005,
            o_mpb: 0.126,
            o_mem_w: 0.461,
            o_mem_r: 0.208,
            o_mpb_put: 0.069,
            o_mpb_get: 0.33,
            o_mem_put: 0.19,
            o_mem_get: 0.095,
        }
    }
}

impl ModelParams {
    /// Table 1 as published.
    pub fn paper() -> Self {
        Self::default()
    }

    /// Sanity predicate used by tests and by [`crate::fit`]: every
    /// parameter must be positive and finite.
    pub fn is_plausible(&self) -> bool {
        [
            self.l_hop,
            self.o_mpb,
            self.o_mem_w,
            self.o_mem_r,
            self.o_mpb_put,
            self.o_mpb_get,
            self.o_mem_put,
            self.o_mem_get,
        ]
        .iter()
        .all(|v| v.is_finite() && *v > 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values() {
        let p = ModelParams::paper();
        assert_eq!(p.l_hop, 0.005);
        assert_eq!(p.o_mpb, 0.126);
        assert_eq!(p.o_mem_w, 0.461);
        assert_eq!(p.o_mem_r, 0.208);
        assert_eq!(p.o_mpb_put, 0.069);
        assert_eq!(p.o_mpb_get, 0.33);
        assert_eq!(p.o_mem_put, 0.19);
        assert_eq!(p.o_mem_get, 0.095);
        assert!(p.is_plausible());
    }

    #[test]
    fn implausible_params_detected() {
        let mut p = ModelParams::paper();
        p.l_hop = 0.0;
        assert!(!p.is_plausible());
        p.l_hop = f64::NAN;
        assert!(!p.is_plausible());
    }
}
