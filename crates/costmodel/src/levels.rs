//! [`Levels`]: the one fixed-capacity inline vector of per-level values.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};

/// Maximum number of cluster levels the model supports.
///
/// The paper's encoding shows 2 levels (a 2-D PE array); grow/aging can
/// insert a third (several 2-D arrays). Deeper stacks add nothing the
/// experiments need.
pub const MAX_LEVELS: usize = 3;

/// At most [`MAX_LEVELS`] per-level values, outermost first, held
/// inline and dereferencing to `[T]`. Every per-level field (mapping
/// levels, fan-outs, middle buffers, link traffic, level genes) is one,
/// so the types built from them are `Copy` and scoring a design
/// allocates nothing per level. Equality, hashing and `Debug` see only
/// the live items; growing past [`MAX_LEVELS`] items panics.
#[derive(Clone, Copy)]
pub struct Levels<T> {
    len: usize,
    items: [T; MAX_LEVELS],
}

impl<T: Copy> Levels<T> {
    /// Appends an item.
    ///
    /// # Panics
    ///
    /// Panics when [`MAX_LEVELS`] items are already present.
    pub fn push(&mut self, item: T) {
        self.insert(self.len, item);
    }

    /// Inserts an item at `index`, shifting the deeper ones inward.
    ///
    /// # Panics
    ///
    /// Panics when `index > len` or [`MAX_LEVELS`] items are already
    /// present.
    pub fn insert(&mut self, index: usize, item: T) {
        assert!(self.len < MAX_LEVELS, "at most MAX_LEVELS = {MAX_LEVELS} levels fit");
        assert!(index <= self.len, "insert index {index} past {} levels", self.len);
        self.items.copy_within(index..self.len, index + 1);
        self.items[index] = item;
        self.len += 1;
    }

    /// Removes and returns the item at `index`.
    ///
    /// # Panics
    ///
    /// Panics when `index >= len`.
    pub fn remove(&mut self, index: usize) -> T {
        let removed = self[index];
        self.items.copy_within(index + 1..self.len, index);
        self.len -= 1;
        removed
    }

    /// Keeps the outermost `len` items (no-op when there are fewer).
    pub fn truncate(&mut self, len: usize) {
        self.len = self.len.min(len);
    }
}

impl<T: Copy + Default> Default for Levels<T> {
    /// No items.
    fn default() -> Levels<T> {
        Levels { len: 0, items: [T::default(); MAX_LEVELS] }
    }
}

impl<T> Deref for Levels<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.items[..self.len]
    }
}

impl<T> DerefMut for Levels<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.items[..self.len]
    }
}

impl<T: PartialEq> PartialEq for Levels<T> {
    fn eq(&self, other: &Levels<T>) -> bool {
        **self == **other
    }
}

impl<T: Eq> Eq for Levels<T> {}

impl<T: Hash> Hash for Levels<T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl<T: fmt::Debug> fmt::Debug for Levels<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T: Copy + Default> FromIterator<T> for Levels<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Levels<T> {
        let mut levels = Levels::default();
        for item in iter {
            levels.push(item);
        }
        levels
    }
}

impl<T: Copy + Default, const N: usize> From<[T; N]> for Levels<T> {
    fn from(items: [T; N]) -> Levels<T> {
        items.into_iter().collect()
    }
}

impl<'a, T> IntoIterator for &'a Levels<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(levels: &Levels<u64>) -> u64 {
        let mut h = DefaultHasher::new();
        levels.hash(&mut h);
        h.finish()
    }

    #[test]
    #[should_panic(expected = "MAX_LEVELS = 3")]
    fn overflow_panics_naming_the_capacity() {
        let mut levels = Levels::from([1u64, 2, 3]);
        levels.push(4);
    }

    #[test]
    fn insert_remove_and_truncate_shift_the_live_items() {
        let mut levels = Levels::from([1u64, 3]);
        levels.insert(1, 2);
        assert_eq!(*levels, [1, 2, 3]);
        assert_eq!(levels.remove(0), 1);
        assert_eq!(*levels, [2, 3]);
        levels.insert(0, 9);
        assert_eq!(*levels, [9, 2, 3]);
        levels.truncate(5);
        assert_eq!(levels.len(), 3, "truncating past the end keeps every item");
        levels.truncate(1);
        assert_eq!(*levels, [9]);
        levels.push(7);
        assert_eq!(*levels, [9, 7]);
    }

    #[test]
    fn equality_and_hashing_see_only_the_live_items() {
        // Equal live items over different dead slots: one value.
        let mut shrunk = Levels::from([5u64, 6, 7]);
        shrunk.truncate(1);
        let mut removed = Levels::from([8u64, 5]);
        removed.remove(0);
        let fresh = Levels::from([5u64]);
        for levels in [shrunk, removed] {
            assert_eq!(levels, fresh);
            assert_eq!(hash_of(&levels), hash_of(&fresh));
            assert_eq!(format!("{levels:?}"), "[5]");
        }
        assert_ne!(fresh, Levels::from([5u64, 0]), "a live default item still counts");
        assert_ne!(hash_of(&fresh), hash_of(&Levels::from([5u64, 0])));
    }
}
