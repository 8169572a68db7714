//! Microbenchmarks on the simulated chip: the measurements behind
//! Table 1 and Figures 3 and 4 of the paper.
//!
//! Each function runs a small SPMD program on the simulator and returns
//! per-operation completion times measured with the virtual clock —
//! exactly how the authors measured the real chip with its global
//! counters, minus the noise (the simulator is deterministic).

use crate::engine::{run_spmd, SimConfig, SimError};
use scc_hal::{
    core_at_mpb_distance, core_with_mem_distance, CoreId, MemRange, MpbAddr, Rma, RmaError,
    RmaResult, Time, CACHE_LINE_BYTES,
};

/// Which point-to-point operation a microbenchmark measures (the four
/// panels of Figure 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum P2pKind {
    /// MPB → MPB `get` (distance = source MPB).
    GetMpb,
    /// MPB → MPB `put` (distance = destination MPB).
    PutMpb,
    /// MPB → private memory `get` (distance = memory controller).
    GetMem,
    /// private memory → MPB `put` (distance = memory controller).
    PutMem,
}

/// Completion time of one point-to-point operation of `lines` cache
/// lines at router distance `d`, measured contention-free on the
/// simulator (averaged over `reps` back-to-back repetitions).
pub fn measure_p2p(
    cfg: &SimConfig,
    kind: P2pKind,
    lines: usize,
    d: u32,
    reps: u32,
) -> Result<Time, SimError> {
    assert!(reps >= 1 && lines >= 1);
    let issuer = match kind {
        P2pKind::GetMpb | P2pKind::PutMpb => CoreId(0),
        // For memory ops the issuer determines the distance.
        P2pKind::GetMem | P2pKind::PutMem => core_with_mem_distance(d, cfg.num_cores)
            .ok_or_else(|| SimError::Engine(format!("no core with memory distance {d}")))?,
    };
    let peer = match kind {
        P2pKind::GetMpb | P2pKind::PutMpb => core_at_mpb_distance(CoreId(0), d, cfg.num_cores)
            .ok_or_else(|| SimError::Engine(format!("no core at MPB distance {d}")))?,
        // Memory panels keep the MPB side local (own MPB, d = 1).
        P2pKind::GetMem | P2pKind::PutMem => issuer,
    };
    let mut rep = run_spmd(cfg, move |c| -> RmaResult<Time> {
        if c.core() != issuer {
            return Ok(Time::ZERO);
        }
        let mem = MemRange::new(0, lines * CACHE_LINE_BYTES);
        let t0 = c.now();
        for _ in 0..reps {
            match kind {
                P2pKind::GetMpb => c.get_to_mpb(MpbAddr::new(peer, 0), 0, lines)?,
                P2pKind::PutMpb => c.put_from_mpb(0, MpbAddr::new(peer, 0), lines)?,
                P2pKind::GetMem => c.get_to_mem(MpbAddr::new(peer, 0), mem)?,
                P2pKind::PutMem => c.put_from_mem(mem, MpbAddr::new(peer, 0))?,
            }
        }
        Ok((c.now() - t0) / reps as u64)
    })?;
    rep.results.swap_remove(issuer.index()).map_err(refused)
}

/// A refused op, as the error a microbenchmark returns.
fn refused(e: RmaError) -> SimError {
    SimError::Engine(e.to_string())
}

/// Per-core completion times of the MPB-contention experiment of
/// Figure 4: `accessors` cores concurrently target core 0's MPB.
///
/// With `puts = false` every accessor repeatedly `get`s `lines` cache
/// lines from core 0's MPB (Fig. 4a uses 128); with `puts = true` every
/// accessor repeatedly `put`s `lines` cache lines into a private slot
/// of core 0's MPB (Fig. 4b uses 1). Returns the average per-op
/// completion time of each accessor.
pub fn measure_contention(
    cfg: &SimConfig,
    accessors: usize,
    lines: usize,
    puts: bool,
    reps: u32,
) -> Result<Vec<Time>, SimError> {
    assert!(accessors >= 1 && accessors < cfg.num_cores.max(2));
    // Accessors are the highest-numbered cores, so core 0 is never an
    // accessor of itself and tile 0's port serves only remote traffic.
    let first = cfg.num_cores - accessors;
    let rep = run_spmd(cfg, move |c| -> RmaResult<Option<Time>> {
        let me = c.core().index();
        if me < first {
            // Victim and idle cores return at once: RMA needs no
            // cooperation from the MPB's owner.
            return Ok(None);
        }
        let slot = 1 + (me - first); // distinct line per putter
        let t0 = c.now();
        for _ in 0..reps {
            if puts {
                c.put_from_mpb(0, MpbAddr::new(CoreId(0), slot), lines)?;
            } else {
                c.get_to_mpb(MpbAddr::new(CoreId(0), 0), 0, lines)?;
            }
        }
        Ok(Some((c.now() - t0) / reps as u64))
    })?;
    rep.results.into_iter().filter_map(Result::transpose).collect::<RmaResult<_>>().map_err(refused)
}

/// The Section 3.3 link-stress experiment: all cores outside tiles
/// (2,2) and (3,2) repeatedly get `lines` cache lines across the mesh
/// so every packet crosses the (2,2)–(3,2) link, while a probe on tile
/// (2,2) measures a get from tile (3,2).
///
/// Returns `(loaded_probe, idle_probe)` — the probe's per-op completion
/// with and without background load. The paper found no measurable
/// difference.
pub fn measure_link_stress(
    cfg: &SimConfig,
    lines: usize,
    reps: u32,
) -> Result<(Time, Time), SimError> {
    let probe_core = scc_hal::Tile::new(2, 2).cores()[0];
    let target_core = scc_hal::Tile::new(3, 2).cores()[0];

    let probe_once = |background: bool| -> Result<Time, SimError> {
        let rep = run_spmd(cfg, move |c| -> RmaResult<Option<Time>> {
            let me = c.core();
            let my_tile = me.tile();
            if me == probe_core {
                let t0 = c.now();
                for _ in 0..reps {
                    c.get_to_mpb(MpbAddr::new(target_core, 0), 0, lines)?;
                }
                return Ok(Some((c.now() - t0) / reps as u64));
            }
            if !background || my_tile.y == 2 && (my_tile.x == 2 || my_tile.x == 3) {
                return Ok(None);
            }
            // Pull data from the opposite side of the mesh in row 2, so
            // X-Y routing drives every packet through (2,2)-(3,2).
            let opposite_x = if my_tile.x >= 3 { 0 } else { 5 };
            let victim = scc_hal::Tile::new(opposite_x, 2).cores()[0];
            for _ in 0..3 * reps {
                c.get_to_mpb(MpbAddr::new(victim, 0), 0, 128)?;
            }
            Ok(None)
        })?;
        let times = rep.results.into_iter().collect::<RmaResult<Vec<_>>>().map_err(refused)?;
        times[probe_core.index()]
            .ok_or_else(|| SimError::Engine("the link-stress probe did not measure".into()))
    };

    let loaded = probe_once(true)?;
    let idle = probe_once(false)?;
    Ok((loaded, idle))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::SimParams;

    fn cfg() -> SimConfig {
        SimConfig {
            num_cores: 48,
            mem_bytes: 64 * 1024,
            params: SimParams::default(),
            ..SimConfig::default()
        }
    }

    #[test]
    fn p2p_sweep_is_linear_in_distance() {
        let cfg = cfg();
        let c1 = measure_p2p(&cfg, P2pKind::GetMpb, 4, 1, 3).unwrap();
        let c5 = measure_p2p(&cfg, P2pKind::GetMpb, 4, 5, 3).unwrap();
        let c9 = measure_p2p(&cfg, P2pKind::GetMpb, 4, 9, 3).unwrap();
        // Equal spacing: the model is linear in d.
        assert_eq!(c5 - c1, c9 - c5);
        assert!(c9 > c1);
        // 30%-ish penalty from 1 to 9 hops for small transfers.
        let ratio = c9.as_ns_f64() / c1.as_ns_f64();
        assert!(ratio < 1.4, "distance penalty too large: {ratio}");
    }

    #[test]
    fn p2p_matches_closed_form_for_put_mem() {
        let cfg = cfg();
        // d = 2: core with memory distance 2 exists.
        let c = measure_p2p(&cfg, P2pKind::PutMem, 8, 2, 1).unwrap();
        // o_put_mem + 8·(C_mem_r(2) + C_mpb_w(1))
        let expect = 190 + 8 * ((208 + 20) + (126 + 10));
        assert_eq!(c, Time::from_ns(expect));
    }

    #[test]
    fn a_missing_core_or_a_refused_op_is_an_error() {
        let cfg = cfg();
        let far = measure_p2p(&cfg, P2pKind::GetMpb, 1, 99, 1).unwrap_err();
        assert_eq!(far.to_string(), "engine failure: no core at MPB distance 99");
        let far = measure_p2p(&cfg, P2pKind::PutMem, 1, 99, 1).unwrap_err();
        assert_eq!(far.to_string(), "engine failure: no core with memory distance 99");
        // 4 KB of lines fit the MPB but not a 1 KB private memory.
        let small = SimConfig { mem_bytes: 1024, ..cfg.clone() };
        let e = measure_p2p(&small, P2pKind::GetMem, 128, 1, 1).unwrap_err();
        assert!(e.to_string().contains("private memory access out of range"), "{e}");
        let e = measure_contention(&cfg, 8, 300, false, 1).unwrap_err();
        assert!(e.to_string().contains("MPB access out of range"), "{e}");
        let e = measure_link_stress(&cfg, 300, 1).unwrap_err();
        assert!(e.to_string().contains("MPB access out of range"), "{e}");
    }

    #[test]
    fn contention_appears_past_the_knee() {
        let cfg = cfg();
        let few = measure_contention(&cfg, 8, 128, false, 2).unwrap();
        let many = measure_contention(&cfg, 47, 128, false, 2).unwrap();
        let avg = |v: &[Time]| v.iter().map(|t| t.as_ns_f64()).sum::<f64>() / v.len() as f64;
        let (a_few, a_many) = (avg(&few), avg(&many));
        assert!(
            a_many > a_few * 1.25,
            "47 concurrent getters must be visibly slower: {a_few} vs {a_many}"
        );
        // And below the knee the slowdown is negligible (paper: up to 24
        // accessors show no measurable contention).
        let t24 = avg(&measure_contention(&cfg, 24, 128, false, 2).unwrap());
        assert!(
            t24 < a_few * 1.10,
            "24 accessors should be virtually contention-free: {a_few} vs {t24}"
        );
    }

    #[test]
    fn link_stress_shows_no_measurable_mesh_contention() {
        let cfg = cfg();
        let (loaded, idle) = measure_link_stress(&cfg, 16, 2).unwrap();
        let ratio = loaded.as_ns_f64() / idle.as_ns_f64();
        assert!(
            ratio < 1.05,
            "mesh must not be a source of contention (Section 3.3): ratio {ratio}"
        );
    }
}
