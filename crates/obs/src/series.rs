//! Per-resource utilization and queue-depth time series.
//!
//! Every [`crate::ObsEvent::Wait`] carries the full booking —
//! `arrival`, service `start`, service `end` — so a resource's busy
//! fraction and its average queue depth over any interval are exact
//! integrals, not samples. The series buckets the run's horizon into
//! `buckets` equal windows and reports, per resource instance and
//! bucket: the fraction of the window the resource was serving, the
//! time-averaged number of packets waiting, and the number of packets
//! that arrived in the window. This reproduces the measurement behind
//! the paper's Figure 6 (MPB-port contention as the limiting factor at
//! the root) for *any* resource, not just the root port.

use crate::event::{ObsEvent, ResourceId};
use scc_hal::Time;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One bucket of one resource's series.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct UtilBucket {
    /// Fraction of the bucket the resource spent serving (0..=1).
    pub busy_frac: f64,
    /// Time-averaged queue depth (packets waiting, not being served).
    pub avg_queue_depth: f64,
    /// Packets whose service request arrived in this bucket.
    pub arrivals: u64,
}

/// The bucketed series for every resource that appeared in the stream.
#[derive(Clone, Debug)]
pub struct UtilizationSeries {
    pub horizon: Time,
    pub buckets: usize,
    /// Per resource, `buckets` entries. `BTreeMap` so iteration order is
    /// stable (ports, then routers, then MCs, by index).
    pub rows: BTreeMap<ResourceId, Vec<UtilBucket>>,
}

impl UtilizationSeries {
    /// Build the series from an event stream. `horizon` is typically the
    /// run's makespan; events past it are clipped. `buckets >= 1`.
    pub fn build(events: &[ObsEvent], horizon: Time, buckets: usize) -> UtilizationSeries {
        assert!(buckets >= 1);
        let mut rows: BTreeMap<ResourceId, Vec<UtilBucket>> = BTreeMap::new();
        let hz = horizon.as_ps();
        if hz == 0 {
            return UtilizationSeries { horizon, buckets, rows };
        }
        let edge = |i: usize| -> u64 { (hz as u128 * i as u128 / buckets as u128) as u64 };

        for ev in events {
            let ObsEvent::Wait { resource, arrival, start, end, .. } = *ev else { continue };
            let row = rows.entry(resource).or_insert_with(|| vec![UtilBucket::default(); buckets]);
            // Arrival count.
            let ai = (arrival.as_ps().min(hz.saturating_sub(1)) as u128 * buckets as u128
                / hz as u128) as usize;
            row[ai].arrivals += 1;
            // Busy integral over [start, end); queue integral over
            // [arrival, start).
            for (a, b, busy) in
                [(start.as_ps(), end.as_ps(), true), (arrival.as_ps(), start.as_ps(), false)]
            {
                let (a, b) = (a.min(hz), b.min(hz));
                if b <= a {
                    continue;
                }
                let i0 = (a as u128 * buckets as u128 / hz as u128) as usize;
                for (i, bucket) in row.iter_mut().enumerate().skip(i0) {
                    let (e0, e1) = (edge(i), edge(i + 1));
                    if e0 >= b {
                        break;
                    }
                    let overlap = b.min(e1).saturating_sub(a.max(e0)) as f64;
                    let width = (e1 - e0) as f64;
                    if width > 0.0 {
                        if busy {
                            bucket.busy_frac += overlap / width;
                        } else {
                            bucket.avg_queue_depth += overlap / width;
                        }
                    }
                }
            }
        }
        UtilizationSeries { horizon, buckets, rows }
    }

    /// Render as CSV: one row per (resource, bucket).
    pub fn to_csv(&self) -> String {
        let mut out =
            String::from("resource,bucket,t0_us,t1_us,busy_frac,avg_queue_depth,arrivals\n");
        let hz = self.horizon.as_ps();
        for (r, row) in &self.rows {
            for (i, b) in row.iter().enumerate() {
                let t0 = hz as u128 * i as u128 / self.buckets as u128;
                let t1 = hz as u128 * (i + 1) as u128 / self.buckets as u128;
                let _ = writeln!(
                    out,
                    "{r},{i},{:.6},{:.6},{:.6},{:.6},{}",
                    t0 as f64 / 1e6,
                    t1 as f64 / 1e6,
                    b.busy_frac,
                    b.avg_queue_depth,
                    b.arrivals
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scc_hal::CoreId;

    fn ns(v: u64) -> Time {
        Time::from_ns(v)
    }

    fn wait(res: ResourceId, arrival: u64, start: u64, end: u64) -> ObsEvent {
        ObsEvent::Wait {
            core: CoreId(0),
            resource: res,
            arrival: ns(arrival),
            start: ns(start),
            end: ns(end),
            link: None,
        }
    }

    #[test]
    fn busy_integral_is_exact() {
        // One port, horizon 100ns, 4 buckets of 25ns. Service [10,60]:
        // bucket 0 gets 15/25, bucket 1 full, bucket 2 gets 10/25.
        let events = vec![wait(ResourceId::Port(0), 10, 10, 60)];
        let s = UtilizationSeries::build(&events, ns(100), 4);
        let row = &s.rows[&ResourceId::Port(0)];
        assert!((row[0].busy_frac - 0.6).abs() < 1e-12);
        assert!((row[1].busy_frac - 1.0).abs() < 1e-12);
        assert!((row[2].busy_frac - 0.4).abs() < 1e-12);
        assert_eq!(row[3].busy_frac, 0.0);
        assert_eq!(row[0].arrivals, 1);
    }

    #[test]
    fn queue_depth_counts_overlapping_waiters() {
        // Two packets queue on the same router over [0,50): depth 2 in
        // bucket 0 ([0,50) of a 2x50ns split).
        let events =
            vec![wait(ResourceId::Router(7), 0, 50, 60), wait(ResourceId::Router(7), 0, 50, 70)];
        let s = UtilizationSeries::build(&events, ns(100), 2);
        let row = &s.rows[&ResourceId::Router(7)];
        assert!((row[0].avg_queue_depth - 2.0).abs() < 1e-12, "{row:?}");
        assert_eq!(row[1].avg_queue_depth, 0.0);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let events = vec![wait(ResourceId::Mc(1), 0, 0, 10)];
        let s = UtilizationSeries::build(&events, ns(100), 2);
        let csv = s.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "resource,bucket,t0_us,t1_us,busy_frac,avg_queue_depth,arrivals");
        assert_eq!(lines.len(), 3);
        assert!(lines[1].starts_with("mc[1],0,"));
    }

    #[test]
    fn zero_horizon_yields_empty() {
        let s = UtilizationSeries::build(&[], Time::ZERO, 4);
        assert!(s.rows.is_empty());
        assert_eq!(s.to_csv().lines().count(), 1);
    }
}
