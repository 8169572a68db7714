//! An experiment with no sidecars writes exactly one file, its classic
//! text at `text_path`.

use scc_bench::{registry, run_registry};

#[test]
fn experiments_without_sidecars_write_only_their_text() {
    let slice = registry().into_iter().filter(|e| ["fig5", "table2"].contains(&e.id)).collect();
    for out in run_registry(slice, true, 1).outputs {
        assert_eq!(out.outputs.files, vec![(scc_bench::text_path(&out.report.id), out.text)]);
    }
}
