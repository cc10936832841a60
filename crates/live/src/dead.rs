//! The one in-memory form of deletes: per source (a sealed segment or
//! the write buffer), a bitmap over its local ids and its set-bit count.
//! Writer and snapshots share it; a delete copies only the touched
//! source's bitmap, once. The durable form is the tombstone log
//! (`tombstones.log`), appended per delete and rewritten from
//! [`DeadBits::iter`] at flush and compaction.

use std::sync::Arc;

/// The dead local ids of one source. Ids past the bitmap's end are
/// live, so the write buffer's grows only when a delete reaches them.
#[derive(Clone, Debug, Default)]
pub(crate) struct DeadBits {
    words: Arc<Vec<u64>>,
    count: usize,
}

impl DeadBits {
    /// Whether `local` is dead.
    pub(crate) fn contains(&self, local: usize) -> bool {
        self.words
            .get(local / 64)
            .is_some_and(|w| w >> (local % 64) & 1 == 1)
    }

    /// How many local ids are dead.
    pub(crate) fn count(&self) -> usize {
        self.count
    }

    /// How many local ids below `local` are dead.
    pub(crate) fn count_below(&self, local: usize) -> usize {
        let (full, bits) = (local / 64, local % 64);
        let whole: u32 = self.words.iter().take(full).map(|w| w.count_ones()).sum();
        let part = self
            .words
            .get(full)
            .map_or(0, |w| (w & ((1 << bits) - 1)).count_ones());
        (whole + part) as usize
    }

    /// Marks `local` dead, copying the bitmap first if a snapshot shares
    /// it and growing it to reach `local`; returns whether it was live.
    pub(crate) fn insert(&mut self, local: usize) -> bool {
        if self.contains(local) {
            return false;
        }
        let words = Arc::make_mut(&mut self.words);
        if words.len() <= local / 64 {
            words.resize(local / 64 + 1, 0);
        }
        words[local / 64] |= 1 << (local % 64);
        self.count += 1;
        true
    }

    /// The dead local ids, ascending.
    pub(crate) fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    i * 64 + bit
                })
            })
        })
    }

    /// The local id of live document `k` (counting from 0 in local-id
    /// order): `k` plus the dead ids before it. Costs a pass over the
    /// bitmap's words.
    pub(crate) fn nth_live(&self, mut k: usize) -> usize {
        for (i, &word) in self.words.iter().enumerate() {
            let live = word.count_zeros() as usize;
            if k < live {
                // Clear the lowest `k` live bits; the next is the one.
                let mut rest = !word;
                for _ in 0..k {
                    rest &= rest - 1;
                }
                return i * 64 + rest.trailing_zeros() as usize;
            }
            k -= live;
        }
        self.words.len() * 64 + k
    }

    /// Whether `self` and `other` share one bitmap (neither was copied
    /// since one was cloned from the other).
    #[cfg(test)]
    pub(crate) fn shares(&self, other: &DeadBits) -> bool {
        Arc::ptr_eq(&self.words, &other.words)
    }
}

#[cfg(test)]
mod tests {
    use super::DeadBits;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 256 }))]

        /// Against a `BTreeSet` model, over inserts spread across a
        /// growing id range and clones taken along the way: `contains`,
        /// `count`, `count_below`, ascending iteration and the k-th live
        /// id agree with the model, an insert reports whether the id was
        /// live, and a clone keeps the bits it was taken with.
        #[test]
        fn bitmap_is_a_set(
            inserts in prop::collection::vec(0usize..300, 0..120),
            clone_at in prop::collection::btree_set(0usize..120, 0..4),
        ) {
            let mut bits = DeadBits::default();
            let mut model = BTreeSet::new();
            let mut clones = Vec::new();
            for (i, &local) in inserts.iter().enumerate() {
                if clone_at.contains(&i) {
                    clones.push((bits.clone(), model.clone()));
                }
                prop_assert_eq!(bits.insert(local), model.insert(local));
            }
            clones.push((bits, model));
            for (bits, model) in &clones {
                let len = model.last().map_or(0, |&l| l + 1) + 70;
                for local in 0..len {
                    prop_assert_eq!(bits.contains(local), model.contains(&local), "{}", local);
                }
                prop_assert_eq!(bits.count(), model.len());
                for local in 0..len {
                    prop_assert_eq!(bits.count_below(local), model.range(..local).count());
                }
                let dead: Vec<usize> = model.iter().copied().collect();
                prop_assert_eq!(bits.iter().collect::<Vec<_>>(), dead);
                let live: Vec<usize> = (0..len).filter(|l| !model.contains(l)).collect();
                for (k, &local) in live.iter().enumerate() {
                    prop_assert_eq!(bits.nth_live(k), local, "k = {}", k);
                }
            }
        }
    }
}
