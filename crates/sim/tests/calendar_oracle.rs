//! [`Calendar`] against a naive reference: an unpruned start-sorted
//! vector searched by a full forward scan. The calendar searches
//! backwards from the tail and forgets expired reservations lazily;
//! neither may change where a reservation is placed, and the forgetting
//! must keep storage bounded however long a run lasts.

use proptest::prelude::*;
use scc_hal::Time;
use scc_sim::chip::Calendar;

/// Service times of the chip's resources, and the degenerate zero.
const SERVICE_NS: [u64; 4] = [0, 1, 10, 18];

/// Same-instant arrivals that saturate a resource: k = 47 children
/// polling the root's MPB port form a 47-long back-to-back chain.
const SATURATED: usize = 47;

#[derive(Default)]
struct Reference {
    /// Every reservation ever made, start-sorted.
    slots: Vec<(Time, Time)>,
}

impl Reference {
    fn reserve(&mut self, arrival: Time, service: Time) -> Time {
        let mut start = arrival;
        let mut at = 0;
        for (i, &(s, e)) in self.slots.iter().enumerate() {
            if s >= start + service {
                break;
            }
            if e > start {
                start = e;
            }
            at = i + 1;
        }
        self.slots.insert(at, (start, start + service));
        start
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Random streams with a monotone horizon and arrivals at or after
    /// it, opened by a saturating burst: every reservation starts where
    /// the reference puts it.
    #[test]
    fn reservations_match_the_reference(
        burst in SATURATED..2 * SATURATED,
        stream in proptest::collection::vec((0u64..6, 0u64..60, 0usize..4), 1..400),
    ) {
        let ns = Time::from_ns;
        let (mut cal, mut oracle) = (Calendar::default(), Reference::default());
        let mut horizon = ns(100);
        for _ in 0..burst {
            prop_assert_eq!(
                cal.reserve(horizon, ns(18), horizon),
                oracle.reserve(horizon, ns(18))
            );
        }
        for &(advance, ahead, service) in &stream {
            horizon += ns(advance);
            let (arrival, service) = (horizon + ns(ahead), ns(SERVICE_NS[service]));
            prop_assert_eq!(
                cal.reserve(arrival, service, horizon),
                oracle.reserve(arrival, service),
                "arrival {:?} service {:?} horizon {:?}", arrival, service, horizon
            );
        }
    }
}

#[test]
fn storage_stays_bounded_as_time_moves_on() {
    let ns = Time::from_ns;
    let mut cal = Calendar::default();
    // The steady state of most resources: one booking outstanding.
    for i in 0..1_000_000 {
        let t = ns(100 * i);
        assert_eq!(cal.reserve(t, ns(10), t), t);
    }
    assert!(cal.capacity() <= 8, "capacity {}", cal.capacity());

    // A saturating burst may grow the calendar to a small multiple of
    // what is live at once; afterwards the storage is reused, not grown.
    let burst = ns(200_000_000);
    for i in 0..SATURATED as u64 {
        assert_eq!(cal.reserve(burst, ns(18), burst), burst + ns(18 * i));
    }
    let saturated = cal.capacity();
    assert!(saturated <= 4 * SATURATED, "capacity {saturated}");
    for i in 0..1_000_000 {
        let t = burst + ns(1_000 + 100 * i);
        assert_eq!(cal.reserve(t, ns(10), t), t);
    }
    assert_eq!(cal.capacity(), saturated);
}
