//! Property-based tests of the communication layer: arbitrary message
//! sizes, chunkings and schedules must always deliver intact payloads.

use proptest::prelude::*;
use scc_hal::{CoreId, MemRange, Rma, RmaExt, RmaResult};
use scc_rcce::{Barrier, MpbAllocator, Pipe, RcceComm};
use scc_sim::{run_spmd, SimConfig};

fn cfg(n: usize) -> SimConfig {
    SimConfig { num_cores: n, mem_bytes: 1 << 18, ..SimConfig::default() }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    /// send/recv round-trips arbitrary payloads, chunked arbitrarily.
    #[test]
    fn sendrecv_roundtrip(msg in proptest::collection::vec(any::<u8>(), 1..20_000)) {
        let expect = msg.clone();
        let rep = run_spmd(&cfg(2), move |c| -> RmaResult<Option<Vec<u8>>> {
            let mut alloc = MpbAllocator::new();
            let comm = RcceComm::new(&mut alloc, 2).unwrap();
            let r = MemRange::new(0, msg.len());
            if c.core().index() == 0 {
                c.mem_write(0, &msg)?;
                comm.send(c, CoreId(1), r)?;
                Ok(None)
            } else {
                comm.recv(c, CoreId(0), r)?;
                Ok(Some(c.mem_to_vec(r)?))
            }
        }).unwrap();
        prop_assert_eq!(rep.results[1].as_ref().unwrap().as_ref().unwrap(), &expect);
    }

    /// The pipelined pipe agrees with send/recv for any half size.
    #[test]
    fn pipe_roundtrip(
        msg in proptest::collection::vec(any::<u8>(), 1..20_000),
        half in 1usize..120,
    ) {
        let expect = msg.clone();
        let rep = run_spmd(&cfg(2), move |c| -> RmaResult<Option<Vec<u8>>> {
            let mut alloc = MpbAllocator::new();
            let mut pipe = Pipe::new(&mut alloc, half).unwrap();
            let r = MemRange::new(0, msg.len());
            if c.core().index() == 0 {
                c.mem_write(0, &msg)?;
                pipe.push(c, CoreId(1), r, 0, false, None)?;
                Ok(None)
            } else {
                pipe.pull(c, CoreId(0), r, 0, None)?;
                Ok(Some(c.mem_to_vec(r)?))
            }
        }).unwrap();
        prop_assert_eq!(rep.results[1].as_ref().unwrap().as_ref().unwrap(), &expect);
    }

    /// A chain of sends with randomized per-hop staging buffers
    /// preserves the payload across multiple hops.
    #[test]
    fn multi_hop_relay(
        msg in proptest::collection::vec(any::<u8>(), 1..5_000),
        hops in 2usize..6,
    ) {
        let expect = msg.clone();
        let rep = run_spmd(&cfg(hops), move |c| -> RmaResult<Option<Vec<u8>>> {
            let mut alloc = MpbAllocator::new();
            let comm = RcceComm::new(&mut alloc, c.num_cores()).unwrap();
            let r = MemRange::new(0, msg.len());
            let me = c.core().index();
            let last = c.num_cores() - 1;
            if me == 0 {
                c.mem_write(0, &msg)?;
                comm.send(c, CoreId(1), r)?;
                Ok(None)
            } else {
                comm.recv(c, CoreId((me - 1) as u8), r)?;
                if me < last {
                    comm.send_cached(c, CoreId((me + 1) as u8), r)?;
                    Ok(None)
                } else {
                    Ok(Some(c.mem_to_vec(r)?))
                }
            }
        }).unwrap();
        let last = rep.results.len() - 1;
        prop_assert_eq!(rep.results[last].as_ref().unwrap().as_ref().unwrap(), &expect);
    }

    /// Barriers stay correct under arbitrary skew: after a barrier, all
    /// cores have observed every pre-barrier flag write.
    #[test]
    fn barrier_orders_flag_writes(skews in proptest::collection::vec(0u64..10_000, 6)) {
        let rep = run_spmd(&cfg(6), move |c| -> RmaResult<bool> {
            let mut alloc = MpbAllocator::new();
            let mark = alloc.alloc(6).unwrap();
            let mut bar = Barrier::new(&mut alloc, 6).unwrap();
            let me = c.core().index();
            c.compute(scc_hal::Time::from_ns(skews[me]));
            // Publish my mark to every peer, then barrier, then verify
            // I can see everyone's mark locally.
            for peer in 0..6 {
                c.flag_put(
                    scc_hal::MpbAddr::new(CoreId(peer as u8), mark.line(me)),
                    scc_hal::FlagValue(me as u32 + 1),
                )?;
            }
            bar.wait(c)?;
            let mut ok = true;
            for writer in 0..6 {
                ok &= c.flag_read_local(mark.line(writer))?.0 == writer as u32 + 1;
            }
            Ok(ok)
        }).unwrap();
        prop_assert!(rep.results.into_iter().all(|r| r.unwrap()));
    }
}
