//! The dense per-core table every stream walker keeps its per-core
//! state in.
//!
//! A [`CoreId`] is a small integer, so "state per core" is a `Vec`
//! indexed by it — one bounds check per access, no hashing — and the
//! order analyses report cores in is *structural*: [`PerCore::iter`]
//! walks rows in core order because that is how they are stored, not
//! because somebody remembered to sort. A row that was never touched
//! holds `T::default()` (growing to core 47 creates rows 0..=46 too),
//! so consumers test rows for content (`is_some`, `!is_empty`), never
//! for presence.

use scc_hal::CoreId;

/// A `Vec<T>` indexed by [`CoreId`], grown on demand.
#[derive(Clone, Debug, Default)]
pub struct PerCore<T> {
    rows: Vec<T>,
}

impl<T: Default> PerCore<T> {
    pub fn new() -> PerCore<T> {
        PerCore { rows: Vec::new() }
    }

    /// The row of `core`, default-created (with every lower-numbered
    /// row) on first use.
    #[inline]
    pub fn at(&mut self, core: CoreId) -> &mut T {
        let i = core.index();
        if i >= self.rows.len() {
            self.rows.resize_with(i + 1, T::default);
        }
        &mut self.rows[i]
    }

    /// The row of `core` if the table has grown that far.
    #[inline]
    pub fn get(&self, core: CoreId) -> Option<&T> {
        self.rows.get(core.index())
    }

    /// Move the row of `core` out, leaving `T::default()` behind.
    #[inline]
    pub fn take(&mut self, core: CoreId) -> T {
        self.rows.get_mut(core.index()).map(std::mem::take).unwrap_or_default()
    }

    /// Reset every row to `T::default()`; the table keeps its length.
    pub fn clear(&mut self) {
        self.rows.iter_mut().for_each(|row| *row = T::default());
    }

    /// Every row, in core order.
    pub fn iter(&self) -> impl Iterator<Item = (CoreId, &T)> {
        self.rows.iter().enumerate().map(|(i, row)| (CoreId(i as u8), row))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grows_on_demand_with_default_rows_below() {
        let mut t: PerCore<Vec<u32>> = PerCore::new();
        assert!(t.get(CoreId(0)).is_none());
        t.at(CoreId(47)).push(7);
        assert_eq!(t.get(CoreId(47)), Some(&vec![7]));
        assert_eq!(t.get(CoreId(3)), Some(&Vec::new()), "lower rows exist, empty");
        assert!(t.get(CoreId(48)).is_none());
        t.at(CoreId(3)).push(1);
        t.at(CoreId(255)).push(9);
        assert_eq!(t.iter().count(), 256);
        assert_eq!(t.get(CoreId(47)), Some(&vec![7]), "growth keeps earlier rows");
    }

    #[test]
    fn iterates_in_core_order_whatever_the_touch_order() {
        let mut t: PerCore<Option<&str>> = PerCore::new();
        for (core, name) in [(47, "last"), (3, "mid"), (0, "first")] {
            *t.at(CoreId(core)) = Some(name);
        }
        let seen: Vec<(u8, &str)> = t.iter().filter_map(|(c, v)| v.map(|v| (c.0, v))).collect();
        assert_eq!(seen, vec![(0, "first"), (3, "mid"), (47, "last")]);
    }

    #[test]
    fn take_empties_one_row_and_clear_empties_all() {
        let mut t: PerCore<Option<u64>> = PerCore::new();
        *t.at(CoreId(2)) = Some(20);
        *t.at(CoreId(5)) = Some(50);
        assert_eq!(t.take(CoreId(2)), Some(20));
        assert_eq!(t.take(CoreId(2)), None, "taken rows are back to default");
        assert_eq!(t.take(CoreId(200)), None, "beyond the table: default, no growth");
        assert_eq!(t.iter().count(), 6);
        t.clear();
        assert_eq!(t.iter().count(), 6, "clear keeps the rows");
        assert!(t.iter().all(|(_, v)| v.is_none()));
    }
}
