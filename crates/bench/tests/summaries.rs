//! An experiment with no forensic files writes exactly one file, its
//! classic text at `text_path` — no JSON sidecar beside it.

use scc_bench::{registry, run_registry};

#[test]
fn experiments_without_sidecars_write_only_their_text() {
    let ids = ["fig5", "table2", "faults", "audit", "whatif"];
    let slice: Vec<_> = registry().into_iter().filter(|e| ids.contains(&e.id)).collect();
    assert_eq!(slice.len(), ids.len(), "every id is registered");
    for out in run_registry(slice, true, 1).outputs {
        assert_eq!(out.outputs.files, vec![(scc_bench::text_path(&out.report.id), out.text)]);
    }
}
