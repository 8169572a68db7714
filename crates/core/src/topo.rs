//! Tree layouts, including a topology-aware variant.
//!
//! The paper builds its k-ary tree from core ids and notes that
//! "finding an efficient k-ary tree taking into account the topology of
//! the NoC is a complex problem \[4\] and it is orthogonal to the design
//! of OC-Bcast". This module supplies that orthogonal piece as an
//! extension: [`TreeLayout::topology_aware`] lays the tree over the
//! mesh so children `get` from nearby MPBs (lower `d` in the model's
//! `C^mpb_r(d)` per-line cost), cutting aggregate child↔parent mesh
//! distance by ~40% on the full chip. The tree-building section of the
//! `ablation` bench binary quantifies the latency effect.

use crate::ocbcast::OcConfig;
use crate::tree::{KaryTree, NotifyGroup};
use scc_hal::CoreId;

/// Which propagation tree OC-Bcast builds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum TreeStrategy {
    /// The paper's id-based k-ary heap (Section 4.1).
    #[default]
    ById,
    /// Level-wise k-center hub selection plus minimum-distance
    /// matching (see [`TreeLayout::topology_aware`]).
    TopologyAware,
}

/// A fully materialized propagation tree (any shape, max degree `k`).
///
/// Computed identically on every core from `(P, k, root, strategy)` —
/// a pure function, so the symmetric-SPMD convention holds just as for
/// MPB allocation. Building one is `O(P²)` work, which OC-Bcast does
/// per call only for [`TreeStrategy::TopologyAware`] (no benchmark
/// workload runs it).
///
/// ```
/// use oc_bcast::{TreeLayout, TreeStrategy};
/// use scc_hal::CoreId;
/// let by_id = TreeLayout::build(TreeStrategy::ById, 48, 7, CoreId(0));
/// let topo = TreeLayout::build(TreeStrategy::TopologyAware, 48, 7, CoreId(0));
/// // The topology-aware layout cuts aggregate mesh distance ~40%.
/// assert!(topo.total_parent_distance() < by_id.total_parent_distance());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TreeLayout {
    parent: Vec<Option<CoreId>>,
    children: Vec<Vec<CoreId>>,
    child_index: Vec<Option<usize>>,
}

impl TreeLayout {
    /// Materialize the paper's id-based k-ary tree.
    pub fn from_kary(p: usize, k: usize, root: CoreId) -> TreeLayout {
        let tree = KaryTree::new(p, k, root);
        let mut layout = TreeLayout::empty(p);
        for c in (0..p).map(|i| CoreId(i as u8)) {
            layout.parent[c.index()] = tree.parent(c);
            layout.children[c.index()] = tree.children(c);
            layout.child_index[c.index()] = tree.child_index(c);
        }
        layout
    }

    /// Topology-aware construction, level by level:
    ///
    /// * if the next level does **not** exhaust the remaining cores,
    ///   its members are chosen by farthest-point traversal ("k-center"
    ///   seeding) so the level's cores act as well-spread hubs for the
    ///   levels below (a purely nearest-first choice clusters the hubs
    ///   around the root and makes the *next* level expensive — the
    ///   classic greedy myopia);
    /// * the chosen members are then attached to the previous level's
    ///   parents by greedy minimum-distance matching under the
    ///   degree-`k` capacity.
    ///
    /// The level-by-level fill keeps the depth equal to the id-based
    /// tree's; the heuristic cuts the total child↔parent mesh distance
    /// by ~40% on the 48-core chip (see `treebuild` in the ablation
    /// bench). Deterministic: all ties break on core id.
    pub fn topology_aware(p: usize, k: usize, root: CoreId) -> TreeLayout {
        assert!(p >= 1 && k >= 1 && root.index() < p);
        let mut layout = TreeLayout::empty(p);
        let mut unassigned: Vec<CoreId> =
            (0..p).map(|i| CoreId(i as u8)).filter(|&c| c != root).collect();
        let mut frontier = vec![root];
        while !unassigned.is_empty() {
            let need = unassigned.len().min(k * frontier.len());
            // Hub spreading applies to the root's own children only:
            // they become the regional anchors every deeper level
            // attaches to by plain nearest matching (spreading deeper
            // levels too was measured to *increase* the total).
            let pool: Vec<CoreId> = if frontier.len() == 1 && unassigned.len() > need {
                // Deeper levels follow: pick spread-out hubs.
                let mut cands = unassigned.clone();
                let seed = *cands
                    .iter()
                    .min_by_key(|&&c| (frontier[0].mpb_distance(c), c.index()))
                    .expect("cands nonempty");
                let mut hubs = vec![seed];
                cands.retain(|&c| c != seed);
                while hubs.len() < need {
                    let best = *cands
                        .iter()
                        .max_by_key(|&&c| {
                            let d = hubs
                                .iter()
                                .chain(frontier.iter())
                                .map(|&h| h.mpb_distance(c))
                                .min()
                                .expect("hubs nonempty");
                            (d, std::cmp::Reverse(c.index()))
                        })
                        .expect("cands nonempty");
                    hubs.push(best);
                    cands.retain(|&c| c != best);
                }
                hubs
            } else {
                unassigned.clone()
            };

            // Greedy minimum-distance matching of pool members to
            // frontier parents with capacity k.
            let mut pairs: Vec<(u32, CoreId, CoreId)> = frontier
                .iter()
                .flat_map(|&par| pool.iter().map(move |&c| (par.mpb_distance(c), par, c)))
                .collect();
            pairs.sort_by_key(|&(d, par, c)| (d, par.index(), c.index()));
            let mut capacity: Vec<usize> = vec![k; p];
            let mut taken = vec![false; p];
            let mut assigned: Vec<(CoreId, CoreId)> = Vec::with_capacity(need);
            for (_, par, c) in pairs {
                if assigned.len() == need {
                    break;
                }
                if capacity[par.index()] > 0 && !taken[c.index()] {
                    capacity[par.index()] -= 1;
                    taken[c.index()] = true;
                    assigned.push((par, c));
                }
            }
            // Record assignments in deterministic (child id) order.
            assigned.sort_by_key(|&(_, c)| c.index());
            for (par, c) in &assigned {
                let idx = layout.children[par.index()].len();
                layout.parent[c.index()] = Some(*par);
                layout.child_index[c.index()] = Some(idx);
                layout.children[par.index()].push(*c);
            }
            unassigned.retain(|c| !taken[c.index()]);
            frontier = assigned.iter().map(|&(_, c)| c).collect();
        }
        layout
    }

    /// Build per the chosen strategy.
    pub fn build(strategy: TreeStrategy, p: usize, k: usize, root: CoreId) -> TreeLayout {
        match strategy {
            TreeStrategy::ById => TreeLayout::from_kary(p, k, root),
            TreeStrategy::TopologyAware => TreeLayout::topology_aware(p, k, root),
        }
    }

    fn empty(p: usize) -> TreeLayout {
        TreeLayout {
            parent: vec![None; p],
            children: vec![Vec::new(); p],
            child_index: vec![None; p],
        }
    }

    pub fn num_cores(&self) -> usize {
        self.parent.len()
    }

    pub fn parent(&self, c: CoreId) -> Option<CoreId> {
        self.parent[c.index()]
    }

    pub fn children(&self, c: CoreId) -> &[CoreId] {
        &self.children[c.index()]
    }

    /// Slot of `c` among its parent's children (its done-flag index).
    pub fn child_index(&self, c: CoreId) -> Option<usize> {
        self.child_index[c.index()]
    }

    /// Sum over non-root cores of the mesh distance to their parent —
    /// the quantity the topology-aware builder minimizes greedily.
    pub fn total_parent_distance(&self) -> u32 {
        (0..self.num_cores())
            .filter_map(|i| {
                let c = CoreId(i as u8);
                self.parent(c).map(|p| p.mpb_distance(c))
            })
            .sum()
    }
}

/// One core's part of a propagation tree: its parent, its done slot
/// there, its children, and whom it forwards a notification to in its
/// parent's group (as child slot `i`, heap position `i + 1`) and in its
/// own (as the head) — all one `OcBcast::bcast` call needs.
#[derive(Debug)]
pub(crate) struct Neighbourhood {
    pub(crate) parent: Option<CoreId>,
    pub(crate) child_index: Option<usize>,
    parent_group: Option<NotifyGroup>,
    own_group: Option<NotifyGroup>,
}

impl Neighbourhood {
    /// `me`'s neighbourhood in `cfg`'s tree over `p` cores from `root`.
    pub(crate) fn of(cfg: &OcConfig, p: usize, root: CoreId, me: CoreId) -> Neighbourhood {
        let f = cfg.notify_fanout;
        let (parent, child_index, parent_group, own_group) = match cfg.strategy {
            TreeStrategy::ById => {
                let t = KaryTree::new(p, cfg.k, root);
                let group = |c| NotifyGroup::of_parent(&t, c, f);
                (t.parent(me), t.child_index(me), t.parent(me).and_then(group), group(me))
            }
            TreeStrategy::TopologyAware => {
                let t = TreeLayout::topology_aware(p, cfg.k, root);
                let group = |c| NotifyGroup::new(c, t.children(c).iter().copied(), f);
                (t.parent(me), t.child_index(me), t.parent(me).and_then(group), group(me))
            }
        };
        Neighbourhood { parent, child_index, parent_group, own_group }
    }

    /// The core's children, in done-slot order.
    pub(crate) fn children(&self) -> &[CoreId] {
        self.own_group.as_ref().map_or(&[], NotifyGroup::children)
    }

    /// Whom the core forwards a notification to in its parent's group.
    pub(crate) fn parent_forwards(&self) -> &[CoreId] {
        self.parent_group.as_ref().zip(self.child_index).map_or(&[], |(g, i)| g.forwards(i + 1))
    }

    /// Whom the core forwards a notification to in its own group.
    pub(crate) fn own_forwards(&self) -> &[CoreId] {
        self.own_group.as_ref().map_or(&[], |group| group.forwards(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scc_hal::NUM_CORES;

    /// The one core without a parent.
    fn root_of(l: &TreeLayout) -> CoreId {
        let mut roots =
            (0..l.num_cores()).map(|i| CoreId(i as u8)).filter(|&c| l.parent(c).is_none());
        let root = roots.next().expect("a root");
        assert_eq!(roots.next(), None, "one root");
        root
    }

    /// Levels below the root.
    fn depth(l: &TreeLayout) -> usize {
        let depth_of = |mut c: CoreId| {
            let mut d = 0;
            while let Some(p) = l.parent(c) {
                (c, d) = (p, d + 1);
            }
            d
        };
        (0..l.num_cores()).map(|i| depth_of(CoreId(i as u8))).max().unwrap_or(0)
    }

    fn check_well_formed(l: &TreeLayout, p: usize, k: usize) {
        let mut seen = vec![0u32; p];
        seen[root_of(l).index()] += 1;
        for i in 0..p {
            let c = CoreId(i as u8);
            assert!(l.children(c).len() <= k, "degree bound violated at {c}");
            for (idx, &ch) in l.children(c).iter().enumerate() {
                seen[ch.index()] += 1;
                assert_eq!(l.parent(ch), Some(c));
                assert_eq!(l.child_index(ch), Some(idx));
            }
        }
        assert!(seen.iter().all(|&s| s == 1), "coverage: {seen:?}");
    }

    #[test]
    fn both_strategies_are_well_formed() {
        for p in [1usize, 2, 5, 12, 48] {
            for k in [1usize, 2, 7, 47] {
                for root in [0usize, p - 1] {
                    for s in [TreeStrategy::ById, TreeStrategy::TopologyAware] {
                        let l = TreeLayout::build(s, p, k, CoreId(root as u8));
                        check_well_formed(&l, p, k);
                    }
                }
            }
        }
    }

    #[test]
    fn kary_layout_matches_kary_tree() {
        let l = TreeLayout::from_kary(12, 7, CoreId(0));
        assert_eq!(l.children(CoreId(0)), (1..=7).map(CoreId).collect::<Vec<_>>().as_slice());
        assert_eq!(l.children(CoreId(1)), (8..=11).map(CoreId).collect::<Vec<_>>().as_slice());
        assert_eq!(depth(&l), 2);
    }

    #[test]
    fn topology_aware_reduces_parent_distance() {
        for k in [2usize, 7, 24] {
            let by_id = TreeLayout::from_kary(NUM_CORES, k, CoreId(0));
            let topo = TreeLayout::topology_aware(NUM_CORES, k, CoreId(0));
            // ~40% aggregate mesh-distance reduction on the full chip.
            assert!(
                (topo.total_parent_distance() as f64) < 0.8 * by_id.total_parent_distance() as f64,
                "k={k}: topo {} vs id {}",
                topo.total_parent_distance(),
                by_id.total_parent_distance()
            );
        }
        // The star cannot be improved: the root must reach everyone.
        let by_id = TreeLayout::from_kary(NUM_CORES, 47, CoreId(0));
        let topo = TreeLayout::topology_aware(NUM_CORES, 47, CoreId(0));
        assert_eq!(topo.total_parent_distance(), by_id.total_parent_distance());
    }

    #[test]
    fn topology_aware_keeps_logarithmic_depth() {
        // Greedy BFS fills each level completely before descending, so
        // the depth matches the id tree's.
        for k in [2usize, 7, 24, 47] {
            let topo = TreeLayout::topology_aware(48, k, CoreId(0));
            let by_id = TreeLayout::from_kary(48, k, CoreId(0));
            assert_eq!(depth(&topo), depth(&by_id), "k={k}");
        }
    }

    #[test]
    fn root_keeps_its_tile_mate_as_a_child() {
        // The k-center seeding starts from the core nearest the root —
        // its tile mate (distance 1) — so that cheap hop is never lost.
        let topo = TreeLayout::topology_aware(48, 7, CoreId(0));
        assert!(topo.children(CoreId(0)).contains(&CoreId(1)));
        let topo5 = TreeLayout::topology_aware(48, 7, CoreId(5));
        assert!(topo5.children(CoreId(5)).contains(&CoreId(4)));
    }

    /// What the pre-arithmetic `OcBcast::bcast` derived from a whole
    /// layout: the group of `head` as a member list, and the slice its
    /// member `who` forwards to, found by scanning for it.
    fn oracle_forwards(l: &TreeLayout, head: CoreId, who: CoreId, f: usize) -> Vec<CoreId> {
        let members: Vec<CoreId> = std::iter::once(head).chain(l.children(head).to_vec()).collect();
        let pos = members.iter().position(|&m| m == who).expect("a member");
        members.iter().copied().skip(pos * f + 1).take(f).collect()
    }

    /// `me`'s neighbourhood under `strategy` against the layout's.
    fn check_neighbourhood(s: TreeStrategy, l: &TreeLayout, k: usize, me: CoreId, f: usize) {
        let (p, root) = (l.num_cores(), root_of(l));
        let cfg = OcConfig { k, notify_fanout: f, strategy: s, ..OcConfig::default() };
        let nb = Neighbourhood::of(&cfg, p, root, me);
        let at = format!("p={p} k={k} root={root} core={me} fanout={f}");
        assert_eq!(nb.parent, l.parent(me), "{at}");
        assert_eq!(nb.children(), l.children(me), "{at}");
        assert_eq!(nb.child_index, l.child_index(me), "{at}");
        match l.parent(me) {
            Some(par) => {
                let group = nb.parent_group.expect("a parent has a group");
                let members: Vec<CoreId> =
                    std::iter::once(par).chain(l.children(par).to_vec()).collect();
                assert_eq!(group.members(), members, "{at}");
                for (pos, &m) in members.iter().enumerate() {
                    assert_eq!(group.forwards(pos), oracle_forwards(l, par, m, f), "{at}");
                }
                assert_eq!(nb.parent_forwards(), oracle_forwards(l, par, me, f), "{at}");
            }
            None => assert!(nb.parent_group.is_none() && nb.parent_forwards().is_empty()),
        }
        match nb.own_group {
            Some(group) => {
                assert_eq!(group.members()[0], me, "{at}");
                assert_eq!(nb.own_forwards(), oracle_forwards(l, me, me, f), "{at}");
            }
            None => assert!(l.children(me).is_empty() && nb.own_forwards().is_empty(), "{at}"),
        }
    }

    #[test]
    fn neighbourhood_equals_the_materialised_layout() {
        let every_core = |p: usize| (0..p).map(|i| CoreId(i as u8));
        let small = (1..=12usize).flat_map(|p| (1..=p + 1).map(move |k| (p, k)));
        let full = [1usize, 2, 7, 47, 63].map(|k| (NUM_CORES, k));
        for (p, k) in small.chain(full) {
            for root in every_core(p) {
                let layout = TreeLayout::from_kary(p, k, root);
                for me in every_core(p) {
                    for f in 1..=3 {
                        check_neighbourhood(TreeStrategy::ById, &layout, k, me, f);
                    }
                }
            }
        }
        // The topology-aware tree is read back from its layout.
        for root in [CoreId(0), CoreId(13)] {
            let layout = TreeLayout::topology_aware(NUM_CORES, 7, root);
            for me in every_core(NUM_CORES) {
                check_neighbourhood(TreeStrategy::TopologyAware, &layout, 7, me, 2);
            }
        }
    }

    #[test]
    fn deterministic_across_calls() {
        let a = TreeLayout::topology_aware(48, 7, CoreId(13));
        let b = TreeLayout::topology_aware(48, 7, CoreId(13));
        assert_eq!(a, b);
    }
}
