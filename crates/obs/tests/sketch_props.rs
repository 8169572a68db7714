//! Property tests of the streaming-telemetry layer: the quantile
//! sketch's merge algebra (merging is exactly concatenation, whatever
//! the split or order), its quantile error bound against the exact
//! nearest-rank value, its JSON round-trip, and the flight-recorder
//! ring's window equivalence (a bounded ring retains exactly the tail
//! of the stream it saw). These are the contracts the soak workload's
//! chunked, parallel accumulation rests on.

use proptest::prelude::*;
use proptest::TestRng;
use scc_hal::{CoreId, Time};
use scc_obs::{
    EventLog, FlightRecorder, Json, LatencyHistogram, ObsEvent, QuantileSketch, Recorder, Wire,
    SKETCH_BUCKETS,
};

/// Latencies spanning every bucket regime: zero, single-digit ps,
/// realistic µs-scale values, and near-`u64::MAX` extremes.
fn arb_latency(rng: &mut TestRng) -> u64 {
    match rng.gen_range_u64(0, 4) {
        0 => rng.gen_range_u64(0, 4),
        1 => rng.gen_range_u64(0, 1 << 12),
        2 => rng.gen_range_u64(1_000_000, 100_000_000_000),
        _ => u64::MAX - rng.gen_range_u64(0, 1 << 40),
    }
}

fn arb_samples(rng: &mut TestRng, max_len: u64) -> Vec<u64> {
    let n = rng.gen_range_u64(0, max_len + 1);
    (0..n).map(|_| arb_latency(rng)).collect()
}

fn sketch_of(samples: &[u64]) -> QuantileSketch {
    let mut s = QuantileSketch::new();
    for &v in samples {
        s.record_ps(v);
    }
    s
}

/// The sample count a sketch writes as its wire `total`.
fn total(s: &QuantileSketch) -> u64 {
    s.to_wire().get("total").and_then(Json::as_i64).unwrap() as u64
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Merging partial sketches equals sketching the concatenation —
    /// for ANY split of the stream. This is what lets the soak build
    /// per-chunk sketches on worker threads and fold them in
    /// declaration order with no loss.
    #[test]
    fn merge_is_exactly_concatenation(seed in any::<u64>()) {
        let mut rng = TestRng::from_name(&format!("merge-{seed}"));
        let samples = arb_samples(&mut rng, 200);
        let whole = sketch_of(&samples);
        let cut = rng.gen_range_u64(0, samples.len() as u64 + 1) as usize;
        let mut left = sketch_of(&samples[..cut]);
        left.merge(&sketch_of(&samples[cut..]));
        prop_assert_eq!(&left, &whole);
        prop_assert_eq!(total(&left), samples.len() as u64);
    }

    /// Merge is associative and commutative (it is per-bucket addition,
    /// so any parallel fold tree produces the same sketch).
    #[test]
    fn merge_is_associative_and_commutative(seed in any::<u64>()) {
        let mut rng = TestRng::from_name(&format!("assoc-{seed}"));
        let (a, b, c) = (
            sketch_of(&arb_samples(&mut rng, 60)),
            sketch_of(&arb_samples(&mut rng, 60)),
            sketch_of(&arb_samples(&mut rng, 60)),
        );
        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(&ab_c, &a_bc);
        let mut ba = b.clone();
        ba.merge(&a);
        let mut ab = a.clone();
        ab.merge(&b);
        prop_assert_eq!(&ab, &ba);
    }

    /// The documented error bound against the exact nearest-rank
    /// quantile: `exact <= reported < 2 * exact` (equal when exact is
    /// 0 or a power of two minus one — the bucket's upper edge).
    #[test]
    fn quantiles_stay_within_the_bucket_bound(seed in any::<u64>()) {
        let mut rng = TestRng::from_name(&format!("bound-{seed}"));
        let mut samples = arb_samples(&mut rng, 150);
        if samples.is_empty() {
            samples.push(arb_latency(&mut rng));
        }
        let sketch = sketch_of(&samples);
        let mut hist = LatencyHistogram::new();
        for &v in &samples {
            hist.record(Time::from_ps(v));
        }
        for q in [0.5, 0.9, 0.99, 0.999, 1.0] {
            let exact = hist.quantile(q).unwrap().as_ps();
            let got = sketch.quantile_ps(q).unwrap();
            prop_assert!(got >= exact, "q={q}: reported {got} < exact {exact}");
            if exact > 0 {
                // got < 2 * exact, written overflow-safe (exact can be
                // u64::MAX): got - exact < exact.
                prop_assert!(got - exact < exact, "q={q}: reported {got} >= 2x exact {exact}");
            } else {
                prop_assert_eq!(got, 0);
            }
        }
    }

    /// Sketches survive their JSON encoding exactly — bucket counts,
    /// total, and therefore every quantile: replaying each wire bucket's
    /// count at its upper edge rebuilds the same sketch.
    #[test]
    fn json_round_trips(seed in any::<u64>()) {
        let mut rng = TestRng::from_name(&format!("json-{seed}"));
        let sketch = sketch_of(&arb_samples(&mut rng, 120));
        let doc = Json::parse(&sketch.to_wire().render()).unwrap();
        let int = |v: &Json, k: &str| v.get(k).and_then(Json::as_i64).unwrap() as u64;
        let mut back = QuantileSketch::new();
        for b in doc.get("buckets").and_then(Json::as_arr).unwrap() {
            for _ in 0..int(b, "n") {
                back.record_ps(QuantileSketch::bucket_upper(int(b, "b") as usize));
            }
        }
        prop_assert_eq!(int(&doc, "total"), total(&back));
        prop_assert_eq!(back, sketch);
    }

    /// The flight ring's window is byte-identical to the tail of a
    /// full recording of the same stream, for any capacity — the
    /// equivalence the simulator-level guard pins, here for arbitrary
    /// event streams and capacities (including 0 and > stream length).
    #[test]
    fn ring_window_equals_full_log_tail(seed in any::<u64>()) {
        let mut rng = TestRng::from_name(&format!("ring-{seed}"));
        let n = rng.gen_range_u64(0, 300);
        let events: Vec<ObsEvent> = (0..n)
            .map(|i| ObsEvent::Finish {
                core: CoreId(rng.gen_range_u64(0, 48) as u8),
                at: Time::from_ps(rng.gen_range_u64(0, 1 << 40) + i),
            })
            .collect();
        let capacity = rng.gen_range_u64(0, n + 50) as usize;

        let mut full = EventLog::default();
        let mut ring = FlightRecorder::new(capacity);
        for ev in &events {
            full.record(*ev);
            ring.record(*ev);
        }
        let all = full.drain();
        let window = ring.drain();
        let tail = &all[all.len().saturating_sub(capacity)..];
        prop_assert_eq!(window.as_slice(), tail);
    }
}

/// Pinned edges the sampler could miss: the extreme buckets, the
/// exact-power-of-two boundaries, and saturation of the top bucket.
#[test]
fn pinned_bucket_edges() {
    let mut s = QuantileSketch::new();
    for v in [0u64, 1, 2, 3, 4, u64::MAX, u64::MAX - 1, 1 << 63] {
        s.record_ps(v);
    }
    assert_eq!(total(&s), 8);
    // Everything at or above 2^63 lands in the last bucket, whose
    // upper edge is u64::MAX.
    assert_eq!(s.quantile_ps(1.0), Some(u64::MAX));
    // Zero occupies its own exact bucket.
    assert_eq!(s.quantile_ps(0.01), Some(0));
    // Powers of two sit at the *lower* edge of their bucket: bucket
    // upper of 4 is 7.
    let mut p = QuantileSketch::new();
    p.record_ps(4);
    assert_eq!(p.quantile_ps(0.5), Some(7));
    assert_eq!(SKETCH_BUCKETS, 65);
}
