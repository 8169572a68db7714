//! 1-D heat-diffusion stencil on the simulated SCC, a latency-bound
//! application: every time step the boundary controller (core 0)
//! broadcasts a *one-cache-line* control record (current boundary
//! drive + step scaling), and neighbouring cores exchange one-cell
//! halos over two-sided send/receive.
//!
//! With hundreds of steps, the small-message broadcast latency is on
//! the critical path, so OC-Bcast's ≥27% latency win over the binomial
//! tree (paper Section 6.2.1) shows up directly in total run time.
//!
//! Run: `cargo run --release --example stencil`

use oc_bcast::{binomial_bcast, OcBcast, OcConfig};
use scc_hal::{CoreId, MemRange, Rma, RmaResult, Time};
use scc_rcce::{MpbAllocator, RcceComm};
use scc_sim::{run_spmd, SimConfig};

const P: usize = 48;
const CELLS: usize = 128; // cells per core (i64 fixed-point temperature)
const STEPS: usize = 200;
const SCALE: i64 = 1 << 16;

/// Memory layout (bytes): control record, own cells, then separate
/// send/receive halo buffers (receives must not clobber values still
/// waiting to be sent) — all 32-byte aligned.
const CTRL_OFF: usize = 0;
const CELLS_OFF: usize = 32;
const SEND_L_OFF: usize = CELLS_OFF + CELLS * 8;
const SEND_R_OFF: usize = SEND_L_OFF + 32;
const RECV_L_OFF: usize = SEND_R_OFF + 32;
const RECV_R_OFF: usize = RECV_L_OFF + 32;

enum Bcast {
    Oc(OcBcast),
    Binomial(RcceComm),
}

fn step_broadcast<R: Rma>(c: &mut R, b: &mut Bcast, range: MemRange) -> RmaResult<()> {
    match b {
        Bcast::Oc(oc) => oc.bcast(c, CoreId(0), range),
        Bcast::Binomial(comm) => binomial_bcast(c, comm, CoreId(0), range),
    }
}

fn run(use_oc: bool) -> (Time, i64) {
    let cfg = SimConfig { num_cores: P, mem_bytes: 1 << 16, ..SimConfig::default() };
    let rep = run_spmd(&cfg, move |c| -> RmaResult<i64> {
        let me = c.core().index();
        let mut alloc = MpbAllocator::new();
        // Small dedicated channel for halo exchange.
        let halo = RcceComm::with_payload_lines(&mut alloc, P, 4).expect("halo ctx");
        let mut bc = if use_oc {
            Bcast::Oc(OcBcast::new(&mut alloc, OcConfig::default()).expect("oc ctx"))
        } else {
            Bcast::Binomial(RcceComm::with_payload_lines(&mut alloc, P, 4).expect("bcast ctx"))
        };

        // Initial temperature: a ramp per core.
        let mut cells: Vec<i64> = (0..CELLS).map(|i| (i as i64) * SCALE / CELLS as i64).collect();
        let ctrl = MemRange::new(CTRL_OFF, 16);

        for step in 0..STEPS {
            // 1. Core 0 publishes the control record: the oscillating
            //    boundary drive and the diffusion coefficient.
            if me == 0 {
                let drive = ((step as i64 * 7919) % (2 * SCALE)) - SCALE;
                let alpha = SCALE / 4 + ((step as i64 * 31) % (SCALE / 8));
                let mut rec = [0u8; 16];
                rec[..8].copy_from_slice(&drive.to_le_bytes());
                rec[8..].copy_from_slice(&alpha.to_le_bytes());
                c.mem_write(CTRL_OFF, &rec)?;
            }
            step_broadcast(c, &mut bc, ctrl)?;
            let mut rec = [0u8; 16];
            c.mem_read(CTRL_OFF, &mut rec)?;
            let drive = i64::from_le_bytes(rec[..8].try_into().expect("8B"));
            let alpha = i64::from_le_bytes(rec[8..].try_into().expect("8B"));

            // 2. Halo exchange with mesh neighbours (edge cores clamp
            //    to the broadcast boundary drive).
            c.mem_write(SEND_L_OFF, &cells[0].to_le_bytes())?;
            c.mem_write(SEND_R_OFF, &cells[CELLS - 1].to_le_bytes())?;
            // Parity-scheduled ring exchange of boundary cells.
            let left = if me > 0 { Some(CoreId((me - 1) as u8)) } else { None };
            let right = if me + 1 < P { Some(CoreId((me + 1) as u8)) } else { None };
            let send_first = me % 2 == 1;
            for phase in 0..2 {
                if (phase == 0) == send_first {
                    if let Some(l) = left {
                        halo.send(c, l, MemRange::new(SEND_L_OFF, 8))?;
                    }
                    if let Some(r) = right {
                        halo.send(c, r, MemRange::new(SEND_R_OFF, 8))?;
                    }
                } else {
                    if let Some(r) = right {
                        halo.recv(c, r, MemRange::new(RECV_R_OFF, 8))?;
                    }
                    if let Some(l) = left {
                        halo.recv(c, l, MemRange::new(RECV_L_OFF, 8))?;
                    }
                }
            }
            let mut buf = [0u8; 8];
            c.mem_read(RECV_L_OFF, &mut buf)?;
            let halo_l = if left.is_some() { i64::from_le_bytes(buf) } else { drive };
            c.mem_read(RECV_R_OFF, &mut buf)?;
            let halo_r = if right.is_some() { i64::from_le_bytes(buf) } else { drive };

            // 3. Local Jacobi update (host math, charged as compute).
            let mut next = cells.clone();
            for i in 0..CELLS {
                let l = if i == 0 { halo_l } else { cells[i - 1] };
                let r = if i == CELLS - 1 { halo_r } else { cells[i + 1] };
                next[i] = cells[i] + alpha * (l + r - 2 * cells[i]) / (2 * SCALE);
            }
            cells = next;
            c.compute(Time::from_ns(4 * CELLS as u64));
        }
        Ok(cells.iter().sum())
    })
    .expect("simulation");
    let checksum: i64 =
        rep.results.iter().map(|r| *r.as_ref().expect("core")).fold(0i64, i64::wrapping_add);
    (rep.makespan, checksum)
}

fn main() {
    println!("1-D heat stencil on the simulated SCC: P={P}, {CELLS} cells/core, {STEPS} steps");
    println!("per-step broadcast: 16 bytes (1 cache line)\n");

    let (t_oc, sum_oc) = run(true);
    let (t_bin, sum_bin) = run(false);

    println!("OC-Bcast (k=7) total virtual time: {t_oc}");
    println!("binomial tree  total virtual time: {t_bin}");
    println!("speedup from the RMA broadcast alone: {:.2}x", t_bin.as_ns_f64() / t_oc.as_ns_f64());
    assert_eq!(sum_oc, sum_bin, "both variants must compute the same field");
    println!("field checksum (identical for both): {sum_oc}");
    assert!(t_oc < t_bin, "OC-Bcast must win the latency-bound workload");
}
