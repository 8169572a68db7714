//! The two names the frozen repo benchmark (`benchmark/src/probes.rs`)
//! still imports from the OS-thread engine's handoff layer. The engine
//! uses neither — cores are coroutines on one thread, see [`crate::coro`]
//! — and both go when the next benchmark PR replaces `sim.handoff.*`.

use std::sync::{Mutex, MutexGuard};
use std::thread::Thread;

/// Error of cell operations after [`ParkCell::close`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Closed;

struct ParkState<T> {
    value: Option<T>,
    closed: bool,
    waiter: Option<Thread>,
}

/// A single-value rendezvous between two host threads: `take` blocks in
/// `thread::park`; `put` never blocks (a full cell is a protocol violation,
/// debug-asserted); a value deposited before `close` is still drained.
pub struct ParkCell<T>(Mutex<ParkState<T>>);

impl<T> Default for ParkCell<T> {
    fn default() -> Self {
        ParkCell(Mutex::new(ParkState { value: None, closed: false, waiter: None }))
    }
}

impl<T> ParkCell<T> {
    pub fn new() -> ParkCell<T> {
        ParkCell::default()
    }

    /// Release the lock, then unpark the waiter if there is one.
    fn wake(mut g: MutexGuard<'_, ParkState<T>>) {
        let waiter = g.waiter.take();
        drop(g);
        if let Some(w) = waiter {
            w.unpark();
        }
    }

    /// Deposit a value and wake the (at most one) parked consumer.
    pub fn put(&self, value: T) -> Result<(), Closed> {
        let mut g = self.0.lock().unwrap_or_else(|e| e.into_inner());
        if g.closed {
            return Err(Closed);
        }
        debug_assert!(g.value.is_none(), "rendezvous protocol violated: cell already full");
        g.value = Some(value);
        Self::wake(g);
        Ok(())
    }

    /// Remove the value, parking until one arrives or the cell closes.
    pub fn take(&self) -> Result<T, Closed> {
        loop {
            let mut g = self.0.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(v) = g.value.take() {
                return Ok(v);
            }
            if g.closed {
                return Err(Closed);
            }
            g.waiter = Some(std::thread::current());
            drop(g);
            // A stale unpark token only makes the loop re-check early.
            std::thread::park();
        }
    }

    /// Shut the cell: `put` fails from now on, `take` once it is empty.
    pub fn close(&self) {
        let mut g = self.0.lock().unwrap_or_else(|e| e.into_inner());
        g.closed = true;
        Self::wake(g);
    }
}

/// What the thread pool's counters became: the calling host thread's
/// coroutine stacks, mapped (pool misses) and leased warm (pool hits).
#[derive(Clone, Copy, Debug)]
pub struct PoolStats {
    pub spawned: u64,
    pub reused: u64,
}

pub fn pool_stats() -> PoolStats {
    PoolStats { spawned: crate::coro::stacks_mapped(), reused: crate::coro::stacks_reused() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parkcell_roundtrip_close_and_drain() {
        let c: ParkCell<u32> = ParkCell::new();
        assert!(c.put(7).is_ok());
        assert_eq!(c.take(), Ok(7));
        assert!(c.put(8).is_ok());
        c.close();
        assert_eq!(c.take(), Ok(8), "value deposited before close must survive it");
        assert_eq!(c.take(), Err(Closed));
        assert_eq!(c.put(9), Err(Closed));
    }

    #[test]
    fn parkcell_hands_off_across_threads() {
        let (a, b) = (ParkCell::<u64>::new(), ParkCell::<u64>::new());
        let sum: u64 = std::thread::scope(|s| {
            let echo = s.spawn(|| (0..100).map(|_| b.put(a.take().unwrap()).unwrap()).count());
            let sum = (0..100).map(|i| a.put(i).and_then(|()| b.take()).unwrap()).sum();
            echo.join().unwrap();
            sum
        });
        assert_eq!(sum, (0..100).sum());
    }
}
