//! A sorted key directory held once in memory.
//!
//! [`KeyDirectory`] stores its keys' bytes back to back in one buffer,
//! with each key's `u32` end offset, plus an open-addressing table of key
//! positions for exact lookups. There is no allocation per key: a
//! directory of 23 k keys averaging 6 bytes holds about 0.35 MiB besides
//! what its owner keeps per entry, where a hash map and a sorted list of
//! boxed keys held each key twice and took 2.7-3.2 MiB. [`Keys`] is the
//! borrowed view callers see.

use crate::{Error, Key, Result};
use rustc_hash::FxHasher;
use std::fmt;
use std::hash::Hasher;

/// An empty slot of the position table.
const EMPTY: u32 = u32::MAX;

/// Keys in ascending order, stored once. Build it with
/// [`KeyDirectory::push`] and [`KeyDirectory::seal`] (or
/// [`KeyDirectory::from_sorted`]); read it through
/// [`KeyDirectory::keys`].
#[derive(Default)]
pub struct KeyDirectory {
    /// Every key's bytes, one after the other.
    bytes: Vec<u8>,
    /// `ends[i]` is one past key `i`'s last byte in `bytes`.
    ends: Vec<u32>,
    /// Key positions by hash, linear probing; a power of two long, with
    /// at least a quarter of the slots [`EMPTY`].
    slots: Vec<u32>,
}

impl KeyDirectory {
    /// An empty directory with room for `keys` keys.
    pub fn with_capacity(keys: usize) -> KeyDirectory {
        KeyDirectory {
            bytes: Vec::new(),
            ends: Vec::with_capacity(keys),
            slots: Vec::new(),
        }
    }

    /// A sealed directory over `keys`, which must ascend strictly (not
    /// checked; lookups of a duplicate find its first copy).
    // `expect`: keys already in memory as a slice stay far below the
    // 4 GiB the offsets address.
    #[allow(clippy::expect_used)]
    pub fn from_sorted<K: AsRef<[u8]>>(keys: &[K]) -> KeyDirectory {
        let mut dir = KeyDirectory::with_capacity(keys.len());
        for key in keys {
            dir.push(key.as_ref())
                .expect("in-memory keys fit the u32 offsets");
        }
        dir.seal();
        dir
    }

    /// Appends `key`, which must follow the keys before it. Fails when
    /// the keys' bytes would pass `u32::MAX`.
    pub fn push(&mut self, key: &[u8]) -> Result<()> {
        let end = u32::try_from(self.bytes.len() + key.len())
            .map_err(|_| Error::Corrupt("key directory passes 4 GiB of key bytes".into()))?;
        self.bytes.extend_from_slice(key);
        self.ends.push(end);
        Ok(())
    }

    /// Trims the buffers to size and builds the position table. Call once,
    /// after the last [`KeyDirectory::push`].
    pub fn seal(&mut self) {
        self.bytes.shrink_to_fit();
        self.ends.shrink_to_fit();
        let n = self.ends.len();
        if n == 0 {
            self.slots = Vec::new();
            return;
        }
        let len = (n + n / 3 + 1).next_power_of_two();
        let mut slots = vec![EMPTY; len];
        let view = Keys {
            bytes: &self.bytes,
            ends: &self.ends,
            slots: &[],
        };
        let mask = len - 1;
        for i in 0..n {
            let mut at = home(view.at(i), len);
            while slots[at] != EMPTY {
                at = (at + 1) & mask;
            }
            slots[at] = i as u32;
        }
        self.slots = slots;
    }

    /// The keys.
    pub fn keys(&self) -> Keys<'_> {
        Keys {
            bytes: &self.bytes,
            ends: &self.ends,
            slots: &self.slots,
        }
    }

    /// Heap bytes the directory holds.
    #[cfg(test)]
    pub(crate) fn resident_bytes(&self) -> usize {
        self.bytes.capacity() + 4 * (self.ends.capacity() + self.slots.capacity())
    }
}

/// The slot where the search for `key` starts in a table of `len` (a
/// power of two) slots: the top bits of a Fibonacci hash of its Fx hash,
/// which mixes every byte into them.
fn home(key: &[u8], len: usize) -> usize {
    let mut hasher = FxHasher::default();
    hasher.write(key);
    let mixed = hasher.finish().wrapping_mul(0x9e37_79b9_7f4a_7c15);
    (mixed >> (64 - len.trailing_zeros())) as usize & (len - 1)
}

/// A borrowed, sorted key directory: what [`KeyDirectory::keys`] and
/// `IndexReader::keys` return. Key `i` is [`Keys::at`]`(i)`; a key's
/// position, its dictionary id, is one table lookup away
/// ([`Keys::position`]).
#[derive(Clone, Copy)]
pub struct Keys<'a> {
    bytes: &'a [u8],
    ends: &'a [u32],
    slots: &'a [u32],
}

impl<'a> Keys<'a> {
    /// Number of keys.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether there are no keys.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Key `i`; panics past the last.
    pub fn at(&self, i: usize) -> &'a [u8] {
        let start = i.checked_sub(1).map_or(0, |p| self.ends[p]);
        &self.bytes[start as usize..self.ends[i] as usize]
    }

    /// Key `i`, if there is one.
    pub fn get(&self, i: usize) -> Option<&'a [u8]> {
        (i < self.len()).then(|| self.at(i))
    }

    /// The keys in ascending order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &'a [u8]> + 'a {
        let keys = *self;
        (0..keys.len()).map(move |i| keys.at(i))
    }

    /// The position of `key`, if it is a key.
    pub fn position(&self, key: &[u8]) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut at = home(key, self.slots.len());
        loop {
            match self.slots[at] {
                EMPTY => return None,
                i if self.at(i as usize) == key => return Some(i as usize),
                _ => at = (at + 1) & mask,
            }
        }
    }

    /// Whether `key` is a key.
    pub fn contains(&self, key: &[u8]) -> bool {
        self.position(key).is_some()
    }

    /// The keys, each copied into a [`Key`] of its own.
    pub fn to_vec(&self) -> Vec<Key> {
        self.iter().map(Key::from).collect()
    }
}

impl PartialEq for Keys<'_> {
    fn eq(&self, other: &Keys<'_>) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl fmt::Debug for Keys<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let printable = self.iter().map(String::from_utf8_lossy);
        f.debug_list().entries(printable).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_every_key_and_no_other() {
        let keys: Vec<Vec<u8>> = (0..5_000u32)
            .map(|i| format!("k{i:05}").into_bytes())
            .collect();
        let dir = KeyDirectory::from_sorted(&keys);
        let view = dir.keys();
        assert_eq!(view.len(), keys.len());
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(view.at(i), &key[..]);
            assert_eq!(view.position(key), Some(i), "{i}");
        }
        for absent in [&b""[..], b"k", b"k5000x", b"zz", b"k00001\0"] {
            assert_eq!(view.position(absent), None, "{absent:?}");
        }
        assert_eq!(view.get(keys.len() - 1), Some(&b"k04999"[..]));
        assert_eq!(view.to_vec().len(), keys.len());
    }

    #[test]
    fn short_keys_sharing_a_prefix_still_spread() {
        // Keys that differ only in their last byte: a hash whose table
        // index came from low bits alone would chain them all together.
        let keys: Vec<Vec<u8>> = (0..=255u8).map(|b| vec![b'a', b'b', b]).collect();
        let dir = KeyDirectory::from_sorted(&keys);
        let used: std::collections::HashSet<usize> =
            keys.iter().map(|k| home(k, dir.slots.len())).collect();
        assert!(used.len() > keys.len() / 2, "{} home slots", used.len());
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(dir.keys().position(key), Some(i));
        }
    }

    #[test]
    fn an_empty_directory_finds_nothing() {
        let dir = KeyDirectory::from_sorted::<&[u8]>(&[]);
        assert!(dir.keys().is_empty());
        assert_eq!(dir.keys().position(b"a"), None);
        assert_eq!(dir.keys().get(0), None);
        assert_eq!(dir.keys(), KeyDirectory::default().keys());
    }
}
