//! Figure 5: the k-ary message propagation tree and the binary
//! notification trees, printed for the paper's example (s = 0, P = 12,
//! k = 7) and for the full 48-core chip.

use super::{out, outln, ExpCtx, Sweep};
use oc_bcast::{KaryTree, NotifyGroup};
use scc_hal::CoreId;
use std::convert::Infallible;

/// Print one tree and return `(depth, cores seen across all levels)`.
fn print_tree(ctx: &mut ExpCtx, tree: &KaryTree) -> (usize, usize) {
    let (p, k, root) = (tree.num_cores(), tree.degree(), tree.root());
    outln!(ctx, "# message propagation tree: P = {p}, k = {k}, source C{}", root.index());
    let mut level: Vec<CoreId> = vec![root];
    let mut depth = 0;
    let mut seen = 0;
    while !level.is_empty() {
        let mut next = Vec::new();
        out!(ctx, "level {depth}:");
        for c in &level {
            out!(ctx, " {c}");
            seen += 1;
            next.extend(tree.children(*c));
        }
        outln!(ctx);
        level = next;
        depth += 1;
    }
    outln!(ctx, "# binary notification trees (parent → forwarded-to):");
    for c in (0..p).map(|i| CoreId(i as u8)) {
        if let Some(group) = NotifyGroup::of_parent(tree, c, 2) {
            outln!(ctx, "  group of {c}:");
            for (pos, m) in group.members().iter().enumerate() {
                let f = group.forwards(pos);
                if !f.is_empty() {
                    let list: Vec<String> = f.iter().map(|x| x.to_string()).collect();
                    outln!(ctx, "    {m} -> {}", list.join(", "));
                }
            }
        }
    }
    outln!(ctx);
    (depth, seen)
}

pub(super) fn plan(_quick: bool) -> Sweep {
    // Pure tree building — cheap enough to stay one unit: the paper's
    // figure, then the experimental configuration.
    Sweep::points(
        vec!["trees"],
        |_| Ok::<_, Infallible>([12, 48].map(|p| KaryTree::new(p, 7, CoreId(0)))),
        |ctx, pairs| {
            for (_, [t12, t48]) in pairs {
                let (d12, seen12) = print_tree(ctx, &t12);
                let (d48, seen48) = print_tree(ctx, &t48);
                ctx.row("levels P=12 k=7", None, Some(3.0), d12 as f64, 0.0, "levels");
                ctx.row("levels P=48 k=7", None, Some(3.0), d48 as f64, 0.0, "levels");
                ctx.shape(
                    "every core appears exactly once in each propagation tree",
                    seen12 == 12 && seen48 == 48,
                    format!("P=12 covered {seen12}, P=48 covered {seen48}"),
                );
                ctx.shape(
                    "k=7 reaches 48 cores in two forwarding hops (depth 2)",
                    d12 == 3 && d48 == 3,
                    format!("levels incl. root: P=12 -> {d12}, P=48 -> {d48}"),
                );
            }
        },
    )
}
