//! Formulas (1)–(12): point-to-point model of MPB / off-chip read and
//! write and of the `put` / `get` primitives (Figure 2 of the paper).
//!
//! For each operation the paper models the **completion time** `C` (time
//! for the operation to return to the caller) and the **latency** `L`
//! (time until the data is visible at the destination). Completion of a
//! write includes the acknowledgment hop back; latency does not. The
//! broadcast models (Formulas 13–16) compose completion times only, so
//! only the `C` forms are kept here; the write and put latencies (1),
//! (4), (9) and (10) are not.
//!
//! `d` counts routers traversed; `m` counts cache lines.

use crate::params::ModelParams;

/// Point-to-point cost evaluator bound to a parameter set.
///
/// ```
/// use scc_model::{ModelParams, P2p};
/// let m = P2p::new(ModelParams::paper());
/// // One-cache-line MPB read at one hop: o^mpb + 2·Lhop = 0.136 µs.
/// assert!((m.c_mpb_r(1) - 0.136).abs() < 1e-12);
/// // A 96-line get into off-chip memory (the OC-Bcast leaf step).
/// assert!(m.c_get_mem(96, 1, 1) > 50.0);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct P2p {
    pub p: ModelParams,
}

impl P2p {
    pub fn new(p: ModelParams) -> P2p {
        P2p { p }
    }

    // ---- single-cache-line primitives --------------------------------

    /// (2) `C^mpb_w(d) = o^mpb + 2d·Lhop` — the write completes when the
    /// MPB's acknowledgment has travelled back.
    pub fn c_mpb_w(&self, d: u32) -> f64 {
        self.p.o_mpb + 2.0 * d as f64 * self.p.l_hop
    }

    /// (3) `L^mpb_r(d) = C^mpb_r(d) = o^mpb + 2d·Lhop` — a read sends a
    /// request and receives the line, so latency equals completion.
    pub fn c_mpb_r(&self, d: u32) -> f64 {
        self.p.o_mpb + 2.0 * d as f64 * self.p.l_hop
    }

    /// (5) `C^mem_w(d) = o^mem_w + 2d·Lhop`.
    pub fn c_mem_w(&self, d: u32) -> f64 {
        self.p.o_mem_w + 2.0 * d as f64 * self.p.l_hop
    }

    /// (6) `L^mem_r(d) = C^mem_r(d) = o^mem_r + 2d·Lhop`.
    pub fn c_mem_r(&self, d: u32) -> f64 {
        self.p.o_mem_r + 2.0 * d as f64 * self.p.l_hop
    }

    // ---- put ----------------------------------------------------------

    /// (7) completion of `put` from the caller's **local MPB** (`d_src = 1`)
    /// to an MPB at distance `d_dst`, `m` cache lines:
    /// `C^mpb_put = o^mpb_put + m·C^mpb_r(1) + m·C^mpb_w(d_dst)`.
    pub fn c_put_mpb(&self, m: usize, d_dst: u32) -> f64 {
        self.p.o_mpb_put + m as f64 * (self.c_mpb_r(1) + self.c_mpb_w(d_dst))
    }

    /// (8) completion of `put` from **private off-chip memory** at
    /// distance `d_src` (to the caller's memory controller) to an MPB at
    /// distance `d_dst`.
    pub fn c_put_mem(&self, m: usize, d_src: u32, d_dst: u32) -> f64 {
        self.p.o_mem_put + m as f64 * (self.c_mem_r(d_src) + self.c_mpb_w(d_dst))
    }

    // ---- get ----------------------------------------------------------

    /// (11) `get` from an MPB at distance `d_src` into the caller's local
    /// MPB (`d_dst = 1`); latency and completion coincide.
    pub fn c_get_mpb(&self, m: usize, d_src: u32) -> f64 {
        self.p.o_mpb_get + m as f64 * (self.c_mpb_r(d_src) + self.c_mpb_w(1))
    }

    /// (12) `get` from an MPB at distance `d_src` into private off-chip
    /// memory at distance `d_dst`; latency and completion coincide.
    pub fn c_get_mem(&self, m: usize, d_src: u32, d_dst: u32) -> f64 {
        self.p.o_mem_get + m as f64 * (self.c_mpb_r(d_src) + self.c_mem_w(d_dst))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p2p() -> P2p {
        P2p::new(ModelParams::paper())
    }

    #[test]
    fn single_line_primitives_at_table1_values() {
        let m = p2p();
        // d = 1: hand-computed from Table 1.
        assert!((m.c_mpb_w(1) - 0.136).abs() < 1e-12);
        assert!((m.c_mpb_r(1) - 0.136).abs() < 1e-12);
        assert!((m.c_mem_w(1) - 0.471).abs() < 1e-12);
        assert!((m.c_mem_r(1) - 0.218).abs() < 1e-12);
        // d = 9 (maximum on the mesh).
        assert!((m.c_mpb_r(9) - (0.126 + 0.09)).abs() < 1e-12);
    }

    #[test]
    fn one_hop_vs_nine_hop_gap_is_about_thirty_percent() {
        // Section 3.2: "the performance difference between the 1-hop
        // distance and the 9-hop distance is only 30%" for a given size.
        let m = p2p();
        for lines in [1usize, 4, 8, 16] {
            let near = m.c_get_mpb(lines, 1);
            let far = m.c_get_mpb(lines, 9);
            let ratio = far / near;
            assert!(
                ratio > 1.05 && ratio < 1.35,
                "distance penalty for {lines} CL out of range: {ratio}"
            );
        }
    }

    #[test]
    fn put_get_scale_linearly_in_lines() {
        let m = p2p();
        let c1 = m.c_get_mpb(1, 4);
        let c2 = m.c_get_mpb(2, 4);
        let c3 = m.c_get_mpb(3, 4);
        assert!((2.0 * c2 - c1 - c3).abs() < 1e-9, "per-line cost must be constant");
    }

    #[test]
    fn throughput_denominators_match_paper_table2_scale() {
        // Reconstructing the OC-Bcast peak-throughput figure from the
        // building blocks: 96-line chunk, d = 1 everywhere (Section 5.1).
        let m = p2p();
        let per_chunk = m.c_get_mpb(96, 1) + m.c_get_mem(96, 1, 1);
        let mb_per_s = 96.0 * 32.0 / per_chunk; // B/us == MB/s
        assert!((mb_per_s - 35.0).abs() < 2.5, "expected ~35 MB/s as in Table 2, got {mb_per_s}");
    }
}
