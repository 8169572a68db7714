//! Tree structures of the broadcast algorithms.
//!
//! * [`KaryTree`] — the message-propagation tree of OC-Bcast
//!   (Section 4.1): ranks form a k-ary heap rooted at the broadcast
//!   source; children of core `i` are the cores `(s + ik + 1) mod P`
//!   through `(s + (i+1)k) mod P`.
//! * [`NotifyGroup`] — the binary notification tree *within* a parent's
//!   group of children (Figure 5): the parent sits at heap position 0,
//!   its k children at positions 1..=k, and each member forwards the
//!   notification to positions `2j+1` and `2j+2`.
//! * [`binomial_parent`] / [`binomial_children`] — the recursive-halving
//!   binomial tree used by the RCCE_comm baseline (Section 5.2.2).

use scc_hal::CoreId;

/// The k-ary message propagation tree for `p` cores rooted at `root`.
///
/// ```
/// use oc_bcast::KaryTree;
/// use scc_hal::CoreId;
/// // The paper's Figure 5: P = 12, k = 7, source core 0.
/// let tree = KaryTree::new(12, 7, CoreId(0));
/// assert_eq!(tree.children(CoreId(0)).len(), 7);
/// assert_eq!(tree.children(CoreId(1)), (8..=11).map(CoreId).collect::<Vec<_>>());
/// assert_eq!(tree.parent(CoreId(9)), Some(CoreId(1)));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KaryTree {
    p: usize,
    k: usize,
    root: CoreId,
}

impl KaryTree {
    pub fn new(p: usize, k: usize, root: CoreId) -> KaryTree {
        assert!(p >= 1, "tree needs at least one core");
        assert!(k >= 1, "tree degree must be at least 1");
        assert!(root.index() < p, "root {root} outside the {p}-core run");
        KaryTree { p, k, root }
    }

    pub fn degree(&self) -> usize {
        self.k
    }

    pub fn num_cores(&self) -> usize {
        self.p
    }

    pub fn root(&self) -> CoreId {
        self.root
    }

    /// Rank of a core: its BFS position in the tree (root has rank 0).
    pub fn rank_of(&self, core: CoreId) -> usize {
        assert!(core.index() < self.p);
        (core.index() + self.p - self.root.index()) % self.p
    }

    /// Core holding a given rank.
    pub fn core_of(&self, rank: usize) -> CoreId {
        assert!(rank < self.p, "rank {rank} outside the {}-core run", self.p);
        CoreId(((self.root.index() + rank) % self.p) as u8)
    }

    /// The parent of `core`, or `None` for the root.
    pub fn parent(&self, core: CoreId) -> Option<CoreId> {
        let r = self.rank_of(core);
        if r == 0 {
            None
        } else {
            Some(self.core_of((r - 1) / self.k))
        }
    }

    /// The children of `core`, in rank order (at most `k`).
    pub fn children(&self, core: CoreId) -> Vec<CoreId> {
        self.child_ranks(core).map(|r| self.core_of(r)).collect()
    }

    /// The ranks of `core`'s children: `ik+1 ..= (i+1)k`, cut at `P`.
    fn child_ranks(&self, core: CoreId) -> std::ops::Range<usize> {
        let first = self.rank_of(core).saturating_mul(self.k).saturating_add(1);
        first.min(self.p)..first.saturating_add(self.k).min(self.p)
    }

    /// The position of `core` among its parent's children (0-based);
    /// `None` for the root. This indexes the child's `done` flag slot
    /// in the parent's MPB.
    pub fn child_index(&self, core: CoreId) -> Option<usize> {
        let r = self.rank_of(core);
        if r == 0 {
            None
        } else {
            Some((r - 1) % self.k)
        }
    }
}

/// A parent and at most 63 children: `k ≤ 63` is the most done-flag
/// lines an OC-Bcast context fits (see `OcBcast::new`).
const MAX_GROUP: usize = 64;

/// The notification group of one parent: the parent plus its (at most
/// k) propagation children, arranged as an f-ary heap for notification
/// forwarding. The paper uses `f = 2` ("binary notification tree"); the
/// fan-out is kept configurable for the ablation benches (`f >= k`
/// degenerates to the parent notifying every child itself). Members
/// live inline: building a group is `O(k)` and allocation-free.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NotifyGroup {
    /// `members[0]` is the parent; `members[1..len]` the children in
    /// rank order; the rest repeats the parent.
    members: [CoreId; MAX_GROUP],
    len: usize,
    fanout: usize,
}

impl NotifyGroup {
    /// Build the group for `parent` in `tree`. Returns `None` if the
    /// parent has no children (no notifications to send).
    pub fn of_parent(tree: &KaryTree, parent: CoreId, fanout: usize) -> Option<NotifyGroup> {
        Self::new(parent, tree.child_ranks(parent).map(|r| tree.core_of(r)), fanout)
    }

    /// Build the group from an explicit child list (any tree layout).
    pub fn new(
        parent: CoreId,
        children: impl IntoIterator<Item = CoreId>,
        fanout: usize,
    ) -> Option<NotifyGroup> {
        assert!(fanout >= 1);
        let mut group = NotifyGroup { members: [parent; MAX_GROUP], len: 1, fanout };
        for child in children {
            assert!(group.len < MAX_GROUP, "a notification group holds at most 63 children");
            group.members[group.len] = child;
            group.len += 1;
        }
        (group.len > 1).then_some(group)
    }

    /// The cores the member at heap position `pos` (parent = 0, child
    /// slot `i` = `i + 1`) forwards the notification to, in order.
    pub fn forwards(&self, pos: usize) -> &[CoreId] {
        let first = pos.saturating_mul(self.fanout).saturating_add(1).min(self.len);
        &self.members[first..first.saturating_add(self.fanout).min(self.len)]
    }

    pub fn members(&self) -> &[CoreId] {
        &self.members[..self.len]
    }

    /// The parent's children, in slot order.
    pub fn children(&self) -> &[CoreId] {
        &self.members[1..self.len]
    }
}

/// Parent of relative rank `rr` (> 0) in the binomial broadcast tree of
/// `p` nodes: clear the lowest set bit.
pub fn binomial_parent(rr: usize, p: usize) -> usize {
    assert!(rr > 0 && rr < p, "relative rank {rr} has no parent (p = {p})");
    rr & (rr - 1)
}

/// Children of relative rank `rr` in the binomial tree of `p` nodes, in
/// send order (largest stride first, as MPICH sends them).
pub fn binomial_children(rr: usize, p: usize) -> Vec<usize> {
    assert!(rr < p);
    // The masks rr can send to are the powers of two above its lowest
    // set bit (or all of them for the root), descending from the
    // highest power of two below p.
    let mut mask = p.next_power_of_two();
    if mask > p {
        mask >>= 1;
    }
    let own_low = if rr == 0 { usize::MAX } else { rr & rr.wrapping_neg() };
    let mut out = Vec::new();
    while mask > 0 {
        if mask < own_low && rr + mask < p {
            out.push(rr + mask);
        }
        mask >>= 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Depth of one core (root is 0).
    fn depth_of(t: &KaryTree, mut c: CoreId) -> usize {
        let mut d = 0;
        while let Some(p) = t.parent(c) {
            (c, d) = (p, d + 1);
        }
        d
    }

    /// Levels below the root.
    fn depth(t: &KaryTree) -> usize {
        (0..t.num_cores()).map(|i| depth_of(t, CoreId(i as u8))).max().unwrap_or(0)
    }

    /// Figure 5 of the paper: P = 12, k = 7, source core 0.
    #[test]
    fn figure5_propagation_tree() {
        let t = KaryTree::new(12, 7, CoreId(0));
        let c = |i: u8| CoreId(i);
        assert_eq!(t.children(c(0)), (1..=7).map(c).collect::<Vec<_>>());
        assert_eq!(t.children(c(1)), (8..=11).map(c).collect::<Vec<_>>());
        for i in 2..=11 {
            assert!(t.children(c(i)).is_empty(), "C{i} must be a leaf");
        }
        assert_eq!(t.parent(c(0)), None);
        for i in 1..=7 {
            assert_eq!(t.parent(c(i)), Some(c(0)));
        }
        for i in 8..=11 {
            assert_eq!(t.parent(c(i)), Some(c(1)));
        }
        assert_eq!(depth(&t), 2);
    }

    /// Figure 5's binary notification trees.
    #[test]
    fn figure5_notification_trees() {
        let t = KaryTree::new(12, 7, CoreId(0));
        let c = |i: u8| CoreId(i);
        // Group of C0: heap position = core id.
        let g0 = NotifyGroup::of_parent(&t, c(0), 2).unwrap();
        assert_eq!(g0.forwards(0), [c(1), c(2)]);
        assert_eq!(g0.forwards(1), [c(3), c(4)]);
        assert_eq!(g0.forwards(2), [c(5), c(6)]);
        assert_eq!(g0.forwards(3), [c(7)]);
        assert_eq!(g0.forwards(4), []);
        assert_eq!(g0.forwards(7), []);

        // Group of C1: C1, C8, C9, … at positions 0, 1, 2, ….
        let g1 = NotifyGroup::of_parent(&t, c(1), 2).unwrap();
        assert_eq!(g1.members(), [c(1), c(8), c(9), c(10), c(11)]);
        assert_eq!(g1.forwards(0), [c(8), c(9)]);
        assert_eq!(g1.forwards(1), [c(10), c(11)]);
        assert_eq!(g1.forwards(2), []);

        // Leaves have no group of their own.
        assert!(NotifyGroup::of_parent(&t, c(5), 2).is_none());
    }

    #[test]
    fn rotated_root_keeps_shape() {
        // The tree with source s is the source-0 tree with all ids
        // shifted by s modulo P.
        let s = 5u8;
        let t0 = KaryTree::new(12, 7, CoreId(0));
        let ts = KaryTree::new(12, 7, CoreId(s));
        for r in 0..12usize {
            let c0 = t0.core_of(r);
            let cs = ts.core_of(r);
            assert_eq!((c0.index() + s as usize) % 12, cs.index());
            let ch0: Vec<_> =
                t0.children(c0).iter().map(|c| (c.index() + s as usize) % 12).collect();
            let chs: Vec<_> = ts.children(cs).iter().map(|c| c.index()).collect();
            assert_eq!(ch0, chs);
        }
    }

    #[test]
    fn every_core_appears_exactly_once() {
        for p in [1usize, 2, 3, 7, 12, 48] {
            for k in [1usize, 2, 3, 7, 24, 47] {
                for root in [0u8, 1, (p - 1) as u8] {
                    if root as usize >= p {
                        continue;
                    }
                    let t = KaryTree::new(p, k, CoreId(root));
                    let mut seen = vec![0u32; p];
                    seen[root as usize] += 1;
                    for c in (0..p).map(|i| CoreId(i as u8)) {
                        for ch in t.children(c) {
                            seen[ch.index()] += 1;
                        }
                    }
                    assert!(
                        seen.iter().all(|&s| s == 1),
                        "p={p} k={k} root={root}: coverage {seen:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn parent_child_consistency() {
        let t = KaryTree::new(48, 7, CoreId(13));
        for i in 0..48u8 {
            let c = CoreId(i);
            for (idx, ch) in t.children(c).into_iter().enumerate() {
                assert_eq!(t.parent(ch), Some(c));
                assert_eq!(t.child_index(ch), Some(idx));
            }
            if let Some(p) = t.parent(c) {
                assert!(t.children(p).contains(&c));
                assert_eq!(depth_of(&t, c), depth_of(&t, p) + 1);
            }
        }
        assert_eq!(depth(&t), 2);
        assert_eq!(depth_of(&t, CoreId(13)), 0);
    }

    #[test]
    fn k47_star_and_k1_chain() {
        let star = KaryTree::new(48, 47, CoreId(0));
        assert_eq!(star.children(CoreId(0)).len(), 47);
        assert_eq!(depth(&star), 1);

        let chain = KaryTree::new(5, 1, CoreId(0));
        assert_eq!(depth(&chain), 4);
        assert_eq!(chain.children(CoreId(2)), vec![CoreId(3)]);
    }

    #[test]
    fn sequential_fanout_degenerates_to_parent_does_all() {
        let t = KaryTree::new(48, 7, CoreId(0));
        let g = NotifyGroup::of_parent(&t, CoreId(0), 64).unwrap();
        assert_eq!(g.forwards(0).len(), 7);
        assert!(g.forwards(1).is_empty());
    }

    #[test]
    fn binomial_tree_structure() {
        // p = 8: root 0 sends to 4, 2, 1; node 4 to 6, 5; node 2 to 3;
        // node 6 to 7.
        assert_eq!(binomial_children(0, 8), vec![4, 2, 1]);
        assert_eq!(binomial_children(4, 8), vec![6, 5]);
        assert_eq!(binomial_children(2, 8), vec![3]);
        assert_eq!(binomial_children(6, 8), vec![7]);
        assert_eq!(binomial_children(1, 8), Vec::<usize>::new());
        for rr in 1..8 {
            let p = binomial_parent(rr, 8);
            assert!(binomial_children(p, 8).contains(&rr), "rr={rr} parent={p}");
        }
    }

    #[test]
    fn binomial_tree_covers_non_power_of_two() {
        for p in [2usize, 3, 5, 12, 48] {
            let mut seen = vec![0u32; p];
            seen[0] += 1;
            for rr in 0..p {
                for ch in binomial_children(rr, p) {
                    assert!(ch < p);
                    seen[ch] += 1;
                }
            }
            assert!(seen.iter().all(|&s| s == 1), "p={p}: {seen:?}");
        }
    }

    #[test]
    fn binomial_depth_is_logarithmic() {
        // Longest root-to-leaf path: exactly log₂ p for powers of two
        // (the classic binomial tree), never more than ⌈log₂ p⌉.
        for p in [2usize, 3, 8, 12, 48, 64] {
            let depth_of = |mut rr: usize| {
                let mut d = 0;
                while rr != 0 {
                    rr = binomial_parent(rr, p);
                    d += 1;
                }
                d
            };
            let max_depth = (0..p).map(depth_of).max().unwrap();
            let ceil_log = (p as f64).log2().ceil() as usize;
            assert!(max_depth <= ceil_log, "p={p}: depth {max_depth} > {ceil_log}");
            if p.is_power_of_two() {
                assert_eq!(max_depth, ceil_log, "p={p}");
            }
        }
    }
}
