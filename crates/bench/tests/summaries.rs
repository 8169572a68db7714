//! Each experiment computes its own `BENCH_figures.json` summary block
//! from the typed values its sidecar is rendered from. Before, the
//! observatory re-parsed the rendered sidecar to count its rows; the
//! goldens below are what that path printed for a
//! `--quick --only skew,faults,audit` run at the commit that removed
//! it, so the two computations are pinned equal.

use scc_bench::{registry, run_registry};

#[test]
fn summary_blocks_equal_the_counts_of_the_re_parsed_sidecars() {
    let golden = [
        ("skew", "journeys", r#"{"scenarios":3,"journeys":144,"max_delivery_us":155.663}"#),
        ("faults", "faults", r#"{"scenarios":3,"points":6,"injected_faults":260,"recoveries":23}"#),
        (
            "audit",
            "audit",
            r#"{"scenarios":9,"checks":605797,"violations":0,"mutations":15,"mutations_caught":15}"#,
        ),
    ];
    let slice = registry().into_iter().filter(|e| golden.iter().any(|g| g.0 == e.id)).collect();
    let run = run_registry(slice, true, 2);
    assert_eq!(run.outputs.len(), golden.len());
    for (out, (id, key, block)) in run.outputs.iter().zip(golden) {
        assert_eq!(out.report.id, id);
        let [(name, got)] = &out.outputs.summaries[..] else {
            panic!("{id}: expected one summary block, got {:?}", out.outputs.summaries)
        };
        assert_eq!((name.as_str(), got.render().as_str()), (key, block), "{id}");
    }
}

#[test]
fn experiments_without_sidecars_attach_no_summary() {
    let slice = registry().into_iter().filter(|e| ["fig5", "table2"].contains(&e.id)).collect();
    for out in run_registry(slice, true, 1).outputs {
        assert!(out.outputs.summaries.is_empty(), "{}", out.report.id);
        assert_eq!(out.outputs.files, vec![(scc_bench::text_path(&out.report.id), out.text)]);
    }
}
