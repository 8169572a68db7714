//! Byte-identity pin for the Chrome trace writer: the document of one
//! fixed recorded run, by length and FNV-1a-64. The digest was taken
//! from the `format!`-based writer this one replaced, so any byte the
//! in-place writer prints differently — a timestamp digit, a comma, an
//! event order — fails here.

use oc_bcast::Algorithm;
use scc_bench::{record_run, Scenario};
use scc_obs::chrome_trace_json;
use scc_sim::SimParams;

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

#[test]
fn oc_k7_p48_96cl_chrome_doc_is_pinned() {
    let sc = Scenario::new(Algorithm::oc_with_k(7), 48, 96);
    let (events, _) = record_run(&sc, SimParams::default()).expect("run");
    let doc = chrome_trace_json(&events);
    assert_eq!(doc.len(), 12_458_974);
    assert_eq!(fnv1a64(doc.as_bytes()), 0x5854_4be8_5d73_d8de);
}
