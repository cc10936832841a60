//! The counting kernel shared by the a-priori miner and complete
//! enumeration: two flat open-addressing tables and the corpus scan that
//! fills them.
//!
//! A counting pass looks at every position of every data unit. The
//! `(k-1)`-byte prefix at the position is looked up in a [`GramSet`] (the
//! *frontier*: the grams still worth extending), found by a rolling hash
//! so the probe costs the same for any gram length. Each gram of length
//! `k..=k_end` starting there is then one edge of a trie: *(parent,
//! byte)*, where the parent of the shortest gram is its frontier id and
//! the parent of every longer gram is the slot of the gram one byte
//! shorter. A [`GramCounter`] slot holds that edge and the gram's
//! document count in 16 bytes, so counting a gram is one probe of one
//! array with an exact fixed-width comparison — no key bytes are hashed,
//! stored or chased, whatever the gram length. Gram bytes are rebuilt
//! from the edges only for the grams a pass keeps.
//!
//! Both tables are sized by the grams actually seen. A frontier is
//! dropped with its pass; counters are cleared for the next pass and
//! dropped with the selection.
//!
//! A pass over a closed frontier sums over independent data units, so
//! [`count_ranges`] cuts the corpus into contiguous document ranges,
//! counts them at once (a thread and a counter each, the frontier shared)
//! and folds the counters into one.

use crate::apriori::GramFilter;
use crate::Result;
use free_corpus::{Corpus, DocId};
use std::ops::Range;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Multiplier of the Fibonacci hash that spreads a key over a table.
const MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// Base of the polynomial rolling hash (odd, so it is invertible mod 2^64).
const BASE: u64 = 0x0000_0100_0000_01B3;

/// A set of distinct grams of one length, each with a dense id in
/// insertion order.
pub(crate) struct GramSet {
    gram_len: usize,
    /// `BASE^(gram_len - 1)`: the weight of the byte leaving the window.
    out_weight: u64,
    /// Gram `id` is `arena[id * gram_len..][..gram_len]`.
    arena: Vec<u8>,
    /// `0` is empty; otherwise the low half of the gram's hash in the
    /// high 32 bits and `id + 1` in the low 32.
    table: Vec<u64>,
    /// `64 - log2(table.len())`.
    shift: u32,
    len: usize,
}

impl GramSet {
    /// An empty set of grams of `gram_len` bytes.
    pub(crate) fn new(gram_len: usize) -> GramSet {
        GramSet::with_table_bits(gram_len, 6)
    }

    /// As [`GramSet::new`], starting from `2^bits` table slots.
    pub(crate) fn with_table_bits(gram_len: usize, bits: u32) -> GramSet {
        let out_weight = (1..gram_len).fold(1u64, |w, _| w.wrapping_mul(BASE));
        let bits = bits.max(1);
        GramSet {
            gram_len,
            out_weight,
            arena: Vec::new(),
            table: vec![0; 1 << bits],
            shift: 64 - bits,
            len: 0,
        }
    }

    /// The length every gram of the set has.
    pub(crate) fn gram_len(&self) -> usize {
        self.gram_len
    }

    /// Whether the set holds no gram.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bytes of gram `id`.
    pub(crate) fn gram(&self, id: u32) -> &[u8] {
        let start = id as usize * self.gram_len;
        &self.arena[start..start + self.gram_len]
    }

    /// The hash of a whole gram.
    pub(crate) fn hash(&self, gram: &[u8]) -> u64 {
        debug_assert_eq!(gram.len(), self.gram_len);
        gram.iter().fold(0u64, |h, &b| {
            h.wrapping_mul(BASE).wrapping_add(u64::from(b))
        })
    }

    /// The hash of the window one byte to the right of the window whose
    /// hash is `h`: `out` leaves on the left, `inc` enters on the right.
    /// Only meaningful for `gram_len > 0`.
    #[inline]
    pub(crate) fn roll(&self, h: u64, out: u8, inc: u8) -> u64 {
        h.wrapping_sub(u64::from(out).wrapping_mul(self.out_weight))
            .wrapping_mul(BASE)
            .wrapping_add(u64::from(inc))
    }

    #[inline]
    fn slot_of(&self, hash: u64) -> usize {
        (hash.wrapping_mul(MIX) >> self.shift) as usize
    }

    /// The id of `gram` (whose hash is `hash`), if it is in the set.
    #[inline]
    pub(crate) fn find(&self, hash: u64, gram: &[u8]) -> Option<u32> {
        let mask = self.table.len() - 1;
        let mut i = self.slot_of(hash);
        loop {
            let entry = self.table[i];
            if entry == 0 {
                return None;
            }
            if (entry >> 32) as u32 == hash as u32 {
                let id = entry as u32 - 1;
                // Byte by byte: for grams this short a `memcmp` call costs
                // more than the comparison.
                if self.gram(id).iter().zip(gram).all(|(a, b)| a == b) {
                    return Some(id);
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// The id of `gram` (whose hash is `hash`), adding it if new.
    pub(crate) fn intern(&mut self, hash: u64, gram: &[u8]) -> u32 {
        if let Some(id) = self.find(hash, gram) {
            return id;
        }
        if (self.len + 1) * 2 > self.table.len() {
            self.grow();
        }
        let id = self.len as u32;
        self.arena.extend_from_slice(gram);
        self.len += 1;
        self.place(hash, id);
        id
    }

    fn place(&mut self, hash: u64, id: u32) {
        let mask = self.table.len() - 1;
        let mut i = self.slot_of(hash);
        while self.table[i] != 0 {
            i = (i + 1) & mask;
        }
        self.table[i] = (hash << 32) | u64::from(id + 1);
    }

    fn grow(&mut self) {
        // Ids are 32 bits; a table this large is 16 GiB of slots alone.
        assert!(self.table.len() < 1 << 31, "gram set exceeds 2^30 grams");
        self.table = vec![0; self.table.len() * 2];
        self.shift -= 1;
        for id in 0..self.len as u32 {
            self.place(self.hash(self.gram(id)), id);
        }
    }
}

/// Slot tag bit: the slot holds a gram.
const OCCUPIED: u32 = 1 << 31;
/// Slot tag bit: the gram was resolved as a useless candidate.
const USELESS: u32 = 1 << 30;
/// The level (gram length minus the pass's shortest length) sits above
/// the byte in the tag.
const LEVEL_SHIFT: u32 = 8;

/// One counted gram: the trie edge that names it and its count.
#[derive(Clone, Copy)]
struct Slot {
    /// Frontier id (level 0) or slot of the gram one byte shorter.
    parent: u32,
    /// `OCCUPIED | USELESS? | level << 8 | last byte`; `0` is empty.
    tag: u32,
    /// Number of data units containing the gram.
    count: u32,
    /// The last data unit that touched the slot, so each counts once.
    last_doc: DocId,
}

/// The level stored in a slot tag.
#[inline]
fn level_of(tag: u32) -> u32 {
    (tag & !(OCCUPIED | USELESS)) >> LEVEL_SHIFT
}

const EMPTY: Slot = Slot {
    parent: 0,
    tag: 0,
    count: 0,
    last_doc: 0,
};

/// A counted gram as the resolution step sees it.
pub(crate) struct Counted {
    /// Frontier id (level 0) or counter slot of the immediate prefix.
    pub(crate) parent: u32,
    /// Gram length minus the pass's shortest length.
    pub(crate) level: u32,
    /// Number of data units containing the gram.
    pub(crate) doc_count: u32,
}

/// Document frequencies of the grams of one counting pass (and, once
/// [cleared](Self::clear), of the next, in the same table).
pub(crate) struct GramCounter {
    slots: Vec<Slot>,
    /// `64 - log2(slots.len())`.
    shift: u32,
    len: usize,
}

impl GramCounter {
    /// Gram lengths one pass can count (the level field is 22 bits).
    pub(crate) const MAX_LEVELS: usize = 1 << 22;

    /// An empty counter.
    pub(crate) fn new() -> GramCounter {
        GramCounter::with_table_bits(10)
    }

    /// As [`GramCounter::new`], starting from `2^bits` slots.
    pub(crate) fn with_table_bits(bits: u32) -> GramCounter {
        let bits = bits.max(1);
        GramCounter {
            slots: vec![EMPTY; 1 << bits],
            shift: 64 - bits,
            len: 0,
        }
    }

    /// A counter of no slots, standing in for one away being grown.
    fn placeholder() -> GramCounter {
        GramCounter {
            slots: Vec::new(),
            shift: 64,
            len: 0,
        }
    }

    /// Number of distinct grams counted.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn slot_of(&self, parent: u32, tag: u32) -> usize {
        let key = u64::from(parent) << 32 | u64::from(tag);
        (key.wrapping_mul(MIX) >> self.shift) as usize
    }

    /// Whether `additional` new grams fit without growing.
    #[inline]
    fn has_room(&self, additional: usize) -> bool {
        (self.len + additional) * 2 <= self.slots.len()
    }

    /// Makes room for `additional` new grams. Growing moves slots, so
    /// this is called only while no slot index is held.
    pub(crate) fn reserve(&mut self, additional: usize) {
        while !self.has_room(additional) {
            self.grow();
        }
    }

    /// Counts data unit `doc` for the gram *(parent, level, byte)* and
    /// returns the gram's slot. The caller has [reserved](Self::reserve)
    /// room for it.
    #[inline]
    pub(crate) fn bump(&mut self, parent: u32, level: u32, byte: u8, doc: DocId) -> u32 {
        debug_assert!(self.len * 2 < self.slots.len(), "bump without reserve");
        let tag = OCCUPIED | level << LEVEL_SHIFT | u32::from(byte);
        let mask = self.slots.len() - 1;
        let mut i = self.slot_of(parent, tag);
        loop {
            let slot = &mut self.slots[i];
            if slot.tag == tag && slot.parent == parent {
                if slot.last_doc != doc {
                    slot.last_doc = doc;
                    slot.count += 1;
                }
                return i as u32;
            }
            if slot.tag == 0 {
                *slot = Slot {
                    parent,
                    tag,
                    count: 1,
                    last_doc: doc,
                };
                self.len += 1;
                return i as u32;
            }
            i = (i + 1) & mask;
        }
    }

    /// Doubles the table. Returns the old one, in which each gram's
    /// `last_doc` names the slot the gram moved to.
    fn grow(&mut self) -> GramCounter {
        // Slot indices are 32 bits; a table this large is 32 GiB.
        assert!(
            self.slots.len() < 1 << 31,
            "gram counter exceeds 2^30 grams"
        );
        let doubled = GramCounter::with_table_bits(65 - self.shift);
        let mut old = std::mem::replace(self, doubled);
        self.absorb(&mut old);
        old
    }

    /// Adds the counts of `other`, a counter of the same pass over other
    /// data units. A gram's key names its parent's slot, so grams go
    /// shortest first and each level is re-keyed by where its parents
    /// went. Afterwards each gram's `last_doc` in `other` (which no scan
    /// reads again) names the slot the gram went to.
    pub(crate) fn absorb(&mut self, other: &mut GramCounter) {
        let order = other.slots_by_level();
        for (done, &from) in order.iter().enumerate() {
            if !self.has_room(1) {
                let regrown = self.grow();
                for &seen in &order[..done] {
                    let went = &mut other.slots[seen as usize].last_doc;
                    *went = regrown.slots[*went as usize].last_doc;
                }
            }
            let slot = other.slots[from as usize];
            let parent = if level_of(slot.tag) == 0 {
                slot.parent
            } else {
                other.slots[slot.parent as usize].last_doc
            };
            let key = slot.tag & !USELESS;
            let mask = self.slots.len() - 1;
            let mut to = self.slot_of(parent, key);
            loop {
                let here = &mut self.slots[to];
                if here.tag == 0 {
                    *here = Slot {
                        parent,
                        count: 0,
                        ..slot
                    };
                    self.len += 1;
                }
                if here.tag & !USELESS == key && here.parent == parent {
                    here.count += slot.count;
                    break;
                }
                to = (to + 1) & mask;
            }
            other.slots[from as usize].last_doc = to as u32;
        }
    }

    /// Forgets every gram, keeping the table for the next pass.
    pub(crate) fn clear(&mut self) {
        self.slots.fill(EMPTY);
        self.len = 0;
    }

    /// The slots that hold a gram, shortest grams first (a counting sort
    /// by level, so the cost does not depend on how many lengths a pass
    /// counts).
    pub(crate) fn slots_by_level(&self) -> Vec<u32> {
        // ends[l + 1]: grams of level <= l, then, while placing, where
        // the next gram of level l + 1 goes.
        let mut ends: Vec<usize> = vec![0];
        for slot in self.slots.iter().filter(|s| s.tag != 0) {
            let level = level_of(slot.tag) as usize;
            if ends.len() < level + 2 {
                ends.resize(level + 2, 0);
            }
            ends[level + 1] += 1;
        }
        for level in 1..ends.len() {
            ends[level] += ends[level - 1];
        }
        let mut order = vec![0u32; self.len];
        for (i, slot) in self.slots.iter().enumerate() {
            if slot.tag != 0 {
                let next = &mut ends[level_of(slot.tag) as usize];
                order[*next] = i as u32;
                *next += 1;
            }
        }
        order
    }

    /// The gram in `slot`, which holds one.
    pub(crate) fn entry(&self, slot: u32) -> Counted {
        let s = &self.slots[slot as usize];
        debug_assert_ne!(s.tag, 0, "empty slot");
        Counted {
            parent: s.parent,
            level: level_of(s.tag),
            doc_count: s.count,
        }
    }

    /// Records that the gram in `slot` is a useless candidate.
    pub(crate) fn mark_useless(&mut self, slot: u32) {
        self.slots[slot as usize].tag |= USELESS;
    }

    /// Whether [`mark_useless`](Self::mark_useless) was called on `slot`.
    pub(crate) fn is_useless(&self, slot: u32) -> bool {
        self.slots[slot as usize].tag & USELESS != 0
    }

    /// Writes the bytes of the gram in `slot` to `out` (cleared first):
    /// the frontier gram its level-0 ancestor extends, then one byte per
    /// level.
    pub(crate) fn gram_bytes(&self, slot: u32, frontier: &GramSet, out: &mut Vec<u8>) {
        out.clear();
        let mut s = &self.slots[slot as usize];
        loop {
            out.push(s.tag as u8);
            if level_of(s.tag) == 0 {
                break;
            }
            s = &self.slots[s.parent as usize];
        }
        out.extend(frontier.gram(s.parent).iter().rev());
        out.reverse();
    }
}

/// The grams a counting pass extends: the frontier.
pub(crate) enum Prefixes<'a> {
    /// Only the grams in the set, which ranges counted at once share.
    In(&'a GramSet),
    /// Every gram of the set's length, each added to the set as the scan
    /// meets it.
    Any(&'a mut GramSet),
}

impl Prefixes<'_> {
    fn set(&self) -> &GramSet {
        match self {
            Prefixes::In(set) => set,
            Prefixes::Any(set) => set,
        }
    }
}

/// One corpus scan over the data units whose position in scan order is
/// in `docs`. At every position where a gram one byte longer than the
/// `prefixes` fits and whose prefix of their length is one of them,
/// counts the grams of each length up to `k_end` that fit, stopping at
/// the first one `filter` rejects. A `counter` without room for the
/// grams of a position is handed to `grow` (given how many), which must
/// leave it with that room. Returns the bytes of those data units.
pub(crate) fn count_pass(
    corpus: &dyn Corpus,
    mut prefixes: Prefixes<'_>,
    docs: Range<usize>,
    k_end: usize,
    filter: Option<GramFilter<'_>>,
    counter: &mut GramCounter,
    grow: &mut dyn FnMut(&mut GramCounter, usize),
) -> Result<u64> {
    let prefix_len = prefixes.set().gram_len();
    let k = prefix_len + 1;
    debug_assert!(k <= k_end && k_end - k < GramCounter::MAX_LEVELS);
    let mut bytes_read = 0u64;
    corpus.scan_range(docs, &mut |doc, bytes| {
        bytes_read += bytes.len() as u64;
        let Some(last_start) = bytes.len().checked_sub(k) else {
            return true;
        };
        let mut hash = prefixes.set().hash(&bytes[..prefix_len]);
        for i in 0..=last_start {
            if i > 0 && prefix_len > 0 {
                hash = prefixes
                    .set()
                    .roll(hash, bytes[i - 1], bytes[i + prefix_len - 1]);
            }
            let prefix = &bytes[i..i + prefix_len];
            let prefix_id = match &mut prefixes {
                Prefixes::In(set) => match set.find(hash, prefix) {
                    Some(id) => id,
                    None => continue,
                },
                Prefixes::Any(set) => set.intern(hash, prefix),
            };
            let longest = k_end.min(bytes.len() - i);
            if !counter.has_room(longest - prefix_len) {
                grow(counter, longest - prefix_len);
            }
            let mut parent = prefix_id;
            for m in k..=longest {
                if let Some(f) = filter {
                    // Substring closure: once a gram at this position is
                    // irrelevant, every extension contains it and is
                    // irrelevant too.
                    if !f(&bytes[i..i + m]) {
                        break;
                    }
                }
                parent = counter.bump(parent, (m - k) as u32, bytes[i + m - 1], doc);
            }
        }
        true
    })?;
    Ok(bytes_read)
}

/// One [`count_pass`] over the closed `frontier` with the corpus cut into
/// one contiguous document range per counter, counted at once, each by
/// its own thread into its own counter (cleared first); every thread
/// scans the corpus and skips the data units outside its range. The
/// counters are then folded into the first: counts stay exact because no
/// data unit is in two ranges. Returns the corpus bytes read and how long
/// the fold took.
///
/// The counters keep their tables from pass to pass, and the calling
/// thread allocates every table (see [`Handoff`]).
pub(crate) fn count_ranges(
    corpus: &dyn Corpus,
    frontier: &GramSet,
    counters: &mut [GramCounter],
    k_end: usize,
    filter: Option<GramFilter<'_>>,
) -> Result<(u64, Duration)> {
    let ranges = counters.len();
    let per_range = corpus.len().div_ceil(ranges.max(1));
    // The last range is open, whatever the scan turns out to visit.
    let docs = |r: usize| {
        let end = if r + 1 == ranges {
            usize::MAX
        } else {
            (r + 1) * per_range
        };
        r * per_range..end
    };
    let count =
        |r: usize, counter: &mut GramCounter, grow: &mut dyn FnMut(&mut GramCounter, usize)| {
            counter.clear();
            count_pass(
                corpus,
                Prefixes::In(frontier),
                docs(r),
                k_end,
                filter,
                counter,
                grow,
            )
        };
    let bytes: Vec<Result<u64>> = match counters {
        [counter] => vec![count(0, counter, &mut GramCounter::reserve)],
        _ => {
            let handoff = Handoff::new(ranges);
            std::thread::scope(|s| {
                // Threads waiting on a caller that unwinds are let go.
                let _closing = Closing(&handoff);
                let workers: Vec<_> = (counters.iter_mut().enumerate())
                    .map(|(r, counter)| {
                        let handoff = &handoff;
                        s.spawn(move || {
                            let _done = Done(handoff);
                            count(r, counter, &mut |counter, additional| {
                                handoff.grow(r, counter, additional);
                            })
                        })
                    })
                    .collect();
                handoff.serve();
                workers
                    .into_iter()
                    .map(|w| w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                    .collect()
            })
        }
    };
    let mut bytes_read = 0;
    for range in bytes {
        bytes_read += range?;
    }
    let started = Instant::now();
    if let Some((folded, others)) = counters.split_first_mut() {
        for other in others {
            folded.absorb(other);
        }
    }
    Ok((bytes_read, started.elapsed()))
}

/// Where the threads of [`count_ranges`] hand in a counter that filled,
/// and the calling thread hands it back grown.
///
/// A counting thread allocates nothing that outlives it. glibc gives each
/// thread a malloc arena of its own and keeps what is freed in it, and a
/// block one thread allocated and another freed can be reused, and grown,
/// by the freer inside the first thread's arena. Either way memory
/// allocated off the calling thread stays resident beside the caller's.
struct Handoff {
    state: Mutex<HandoffState>,
    /// A counter was handed in, or a thread is done.
    to_caller: Condvar,
    /// A counter was handed back, or the caller stopped serving.
    to_threads: Condvar,
}

struct HandoffState {
    /// Per range: a counter to grow, and the room it needs.
    full: Vec<Option<(GramCounter, usize)>>,
    /// Per range: the counter, grown.
    grown: Vec<Option<GramCounter>>,
    /// Threads still counting.
    counting: usize,
    /// The caller serves no more.
    closed: bool,
}

impl Handoff {
    fn new(ranges: usize) -> Handoff {
        Handoff {
            state: Mutex::new(HandoffState {
                full: (0..ranges).map(|_| None).collect(),
                grown: (0..ranges).map(|_| None).collect(),
                counting: ranges,
                closed: false,
            }),
            to_caller: Condvar::new(),
            to_threads: Condvar::new(),
        }
    }

    /// Every update of the state is one assignment, so a thread that
    /// panicked holding the lock left it valid.
    fn lock(&self) -> MutexGuard<'_, HandoffState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// On the thread counting range `r`: waits while the caller makes
    /// room in `counter` for `additional` grams.
    fn grow(&self, r: usize, counter: &mut GramCounter, additional: usize) {
        let full = std::mem::replace(counter, GramCounter::placeholder());
        let mut state = self.lock();
        state.full[r] = Some((full, additional));
        self.to_caller.notify_one();
        *counter = loop {
            if let Some(grown) = state.grown[r].take() {
                break grown;
            }
            assert!(!state.closed, "the calling thread stopped growing counters");
            state = self
                .to_threads
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        };
    }

    /// On the calling thread: grows what is handed in until every thread
    /// is done.
    fn serve(&self) {
        let mut state = self.lock();
        while state.counting > 0 {
            let handed =
                (state.full.iter_mut().enumerate()).find_map(|(r, full)| Some((r, full.take()?)));
            match handed {
                Some((r, (mut counter, additional))) => {
                    drop(state);
                    counter.reserve(additional);
                    state = self.lock();
                    state.grown[r] = Some(counter);
                    self.to_threads.notify_all();
                }
                None => {
                    state = self
                        .to_caller
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
    }
}

/// Tells the caller, when dropped, that one counting thread is done.
struct Done<'a>(&'a Handoff);

impl Drop for Done<'_> {
    fn drop(&mut self) {
        self.0.lock().counting -= 1;
        self.0.to_caller.notify_one();
    }
}

/// Tells the counting threads, when dropped, that the caller serves no
/// more.
struct Closing<'a>(&'a Handoff);

impl Drop for Closing<'_> {
    fn drop(&mut self) {
        self.0.lock().closed = true;
        self.0.to_threads.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::Prefixes::{Any, In};
    use super::*;
    use free_corpus::MemCorpus;
    use std::collections::{BTreeMap, BTreeSet};

    /// Every data unit of the corpus.
    const ALL: Range<usize> = 0..usize::MAX;
    /// Every gram of length `k..=k_end` starting at a position whose
    /// `(k-1)`-prefix is in `prefixes` (any prefix when `None`), with its
    /// document count: the definition `count_pass` implements.
    fn naive_counts(
        docs: &[Vec<u8>],
        prefixes: Option<&BTreeSet<Vec<u8>>>,
        k: usize,
        k_end: usize,
    ) -> BTreeMap<Vec<u8>, u32> {
        let mut seen: BTreeSet<(Vec<u8>, usize)> = BTreeSet::new();
        for (d, doc) in docs.iter().enumerate() {
            for i in 0..doc.len() {
                for m in k..=k_end.min(doc.len() - i) {
                    if prefixes.is_none_or(|p| p.contains(&doc[i..i + k - 1])) {
                        seen.insert((doc[i..i + m].to_vec(), d));
                    }
                }
            }
        }
        let mut counts = BTreeMap::new();
        for (gram, _) in seen {
            *counts.entry(gram).or_insert(0) += 1;
        }
        counts
    }

    fn counted(counter: &GramCounter, frontier: &GramSet) -> BTreeMap<Vec<u8>, u32> {
        let mut gram = Vec::new();
        counter
            .slots_by_level()
            .into_iter()
            .map(|slot| {
                counter.gram_bytes(slot, frontier, &mut gram);
                (gram.clone(), counter.entry(slot).doc_count)
            })
            .collect()
    }

    fn docs() -> Vec<Vec<u8>> {
        let words: [&[u8]; 6] = [
            b"abra",
            b"cadabra",
            b"abc",
            b"\x00\xffx",
            b"zzzzzz",
            b"bracadab",
        ];
        (0..40usize)
            .map(|i| {
                let mut d = Vec::new();
                for j in 0..(i % 7 + 1) {
                    d.extend_from_slice(words[(i * 7 + j * 3) % words.len()]);
                    d.push(b"ab "[(i + j) % 3]);
                }
                d
            })
            .collect()
    }

    #[test]
    fn rolling_hash_equals_direct_hash() {
        let text = b"the quick brown fox \x00\xff\xff jumps";
        for len in 1..12 {
            let set = GramSet::new(len);
            let mut h = set.hash(&text[..len]);
            for i in 1..=text.len() - len {
                h = set.roll(h, text[i - 1], text[i + len - 1]);
                assert_eq!(h, set.hash(&text[i..i + len]), "len {len} at {i}");
            }
        }
    }

    #[test]
    fn gram_set_grows_from_two_slots_and_keeps_ids() {
        for len in [0usize, 1, 3, 20] {
            let mut set = GramSet::with_table_bits(len, 1);
            let distinct = [1u32, 200, 700, 700][len.min(3)];
            let grams: Vec<Vec<u8>> = (0..distinct)
                .map(|i| (0..len).map(|j| (i >> (8 * (j % 2))) as u8).collect())
                .collect();
            for (i, g) in grams.iter().enumerate() {
                assert_eq!(set.find(set.hash(g), g), None);
                assert_eq!(set.intern(set.hash(g), g), i as u32);
                assert_eq!(
                    set.intern(set.hash(g), g),
                    i as u32,
                    "second intern is a lookup"
                );
            }
            for (i, g) in grams.iter().enumerate() {
                assert_eq!(set.find(set.hash(g), g), Some(i as u32));
                assert_eq!(set.gram(i as u32), &g[..]);
            }
            assert!(!set.is_empty());
        }
    }

    #[test]
    fn equal_fingerprints_are_told_apart_by_bytes() {
        // Grams interned under one hash: every probe collides, and a
        // lookup's fingerprint matches stored grams with different bytes.
        let mut set = GramSet::with_table_bits(2, 3);
        let a = set.intern(7, b"aa");
        let b = set.intern(7, b"bb");
        assert_ne!(a, b);
        assert_eq!(set.find(7, b"aa"), Some(a));
        assert_eq!(set.find(7, b"bb"), Some(b));
        assert_eq!(set.find(7, b"cc"), None);
    }

    #[test]
    fn counter_grows_from_two_slots_mid_scan() {
        let docs = docs();
        let corpus = MemCorpus::from_docs(docs.clone());
        // Closed frontier of the empty gram: every gram of length 1..=3,
        // three levels of parents that every doubling has to re-key.
        let mut frontier = GramSet::with_table_bits(0, 1);
        frontier.intern(0, &[]);
        let mut counter = GramCounter::with_table_bits(1);
        let bytes = count_pass(
            &corpus,
            In(&frontier),
            ALL,
            3,
            None,
            &mut counter,
            &mut GramCounter::reserve,
        )
        .unwrap();
        assert_eq!(bytes, docs.iter().map(|d| d.len() as u64).sum::<u64>());
        let want = naive_counts(&docs, None, 1, 3);
        assert_eq!(counted(&counter, &frontier), want);
        assert_eq!(counter.len(), want.len());
        assert!(
            counter.slots.len() >= 2 * counter.len(),
            "load stays at or below 1/2"
        );
    }

    #[test]
    fn closed_frontier_skips_positions_and_open_frontier_interns_them() {
        let docs = docs();
        let corpus = MemCorpus::from_docs(docs.clone());
        let prefixes: BTreeSet<Vec<u8>> = [
            b"ab".to_vec(),
            b"ra".to_vec(),
            b"zz".to_vec(),
            b"\x00\xff".to_vec(),
        ]
        .into();
        let mut frontier = GramSet::with_table_bits(2, 1);
        for p in &prefixes {
            frontier.intern(frontier.hash(p), p);
        }
        let mut counter = GramCounter::with_table_bits(1);
        count_pass(
            &corpus,
            In(&frontier),
            ALL,
            6,
            None,
            &mut counter,
            &mut GramCounter::reserve,
        )
        .unwrap();
        assert_eq!(
            counted(&counter, &frontier),
            naive_counts(&docs, Some(&prefixes), 3, 6)
        );

        let mut open = GramSet::with_table_bits(2, 1);
        let mut counter = GramCounter::with_table_bits(1);
        count_pass(
            &corpus,
            Any(&mut open),
            ALL,
            4,
            None,
            &mut counter,
            &mut GramCounter::reserve,
        )
        .unwrap();
        assert_eq!(counted(&counter, &open), naive_counts(&docs, None, 3, 4));
    }

    #[test]
    fn folding_disjoint_ranges_counts_their_union() {
        let docs = docs();
        let corpus = MemCorpus::from_docs(docs.clone());
        let mut frontier = GramSet::with_table_bits(0, 1);
        frontier.intern(0, &[]);
        let want = naive_counts(&docs, None, 1, 3);
        let total: u64 = docs.iter().map(|d| d.len() as u64).sum();
        // Ranges in scan order, one of them empty and the last one open.
        // Every counter starts from two slots, so the fold grows the first
        // while re-keying what it absorbs.
        let cuts = [0, 1, 1, 17, usize::MAX];
        let mut counters = cuts.windows(2).map(|cut| {
            let mut counter = GramCounter::with_table_bits(1);
            let bytes = count_pass(
                &corpus,
                In(&frontier),
                cut[0]..cut[1],
                3,
                None,
                &mut counter,
                &mut GramCounter::reserve,
            );
            (counter, bytes.unwrap())
        });
        let (mut folded, mut bytes) = counters.next().unwrap();
        let slots_before = folded.slots.len();
        for (mut counter, b) in counters {
            folded.absorb(&mut counter);
            bytes += b;
        }
        assert!(folded.slots.len() > slots_before, "the fold grew the table");
        assert_eq!(bytes, total);
        assert_eq!(counted(&folded, &frontier), want);
        assert_eq!(folded.len(), want.len());
        assert!(folded.slots.len() >= 2 * folded.len());

        // The same through the threaded pass, more ranges than documents
        // included, twice over the same counters: each pass starts clean.
        for ranges in [1, 2, 3, 4, docs.len() + 3] {
            let mut counters: Vec<GramCounter> = (0..ranges).map(|_| GramCounter::new()).collect();
            for pass in 0..2 {
                let (bytes, _) = count_ranges(&corpus, &frontier, &mut counters, 3, None).unwrap();
                assert_eq!(bytes, total, "{ranges} ranges, pass {pass}");
                assert_eq!(
                    counted(&counters[0], &frontier),
                    want,
                    "{ranges} ranges, pass {pass}"
                );
            }
        }
    }

    #[test]
    fn threads_hand_full_counters_to_the_caller_to_grow() {
        // Thousands of distinct grams per range: every thread's counter
        // fills its first table more than once.
        let mut x = 7u32;
        let docs: Vec<Vec<u8>> = (0..16)
            .map(|_| {
                (0..96)
                    .map(|_| {
                        x = x.wrapping_mul(1_103_515_245).wrapping_add(12_345);
                        (x >> 16) as u8
                    })
                    .collect()
            })
            .collect();
        let corpus = MemCorpus::from_docs(docs.clone());
        let mut frontier = GramSet::new(0);
        frontier.intern(0, &[]);
        let want = naive_counts(&docs, None, 1, 3);
        // A counter is full at half its slots.
        assert!(want.len() > 2 * GramCounter::new().slots.len());
        for ranges in [1, 2, 4] {
            let mut counters: Vec<GramCounter> = (0..ranges).map(|_| GramCounter::new()).collect();
            count_ranges(&corpus, &frontier, &mut counters, 3, None).unwrap();
            assert_eq!(counted(&counters[0], &frontier), want, "{ranges} ranges");
        }
    }

    #[test]
    fn filter_stops_a_position_at_the_first_rejected_length() {
        let docs = vec![b"abcabd".to_vec(), b"xabcx".to_vec()];
        let corpus = MemCorpus::from_docs(docs);
        let universe = b"abc";
        let filter = |g: &[u8]| universe.windows(g.len()).any(|w| w == g);
        let mut frontier = GramSet::new(0);
        frontier.intern(0, &[]);
        let mut counter = GramCounter::with_table_bits(1);
        count_pass(
            &corpus,
            In(&frontier),
            ALL,
            3,
            Some(&filter),
            &mut counter,
            &mut GramCounter::reserve,
        )
        .unwrap();
        let want: BTreeMap<Vec<u8>, u32> = [
            (&b"a"[..], 2),
            (b"ab", 2),
            (b"abc", 2),
            (b"b", 2),
            (b"bc", 2),
            (b"c", 2),
        ]
        .into_iter()
        .map(|(g, n)| (g.to_vec(), n))
        .collect();
        assert_eq!(counted(&counter, &frontier), want);
    }

    #[test]
    fn useless_marks_survive_and_do_not_alias_levels() {
        let mut counter = GramCounter::with_table_bits(1);
        counter.reserve(3);
        let a = counter.bump(0, 0, b'a', 0);
        let ab = counter.bump(a, 1, b'b', 0);
        // Same (parent id, byte) at level 0 is a different gram.
        let other = counter.bump(a, 0, b'b', 0);
        assert_ne!(ab, other);
        counter.mark_useless(a);
        assert!(counter.is_useless(a) && !counter.is_useless(ab));
        let c = counter.entry(ab);
        assert_eq!((c.parent, c.level, c.doc_count), (a, 1, 1));
        // A repeat in the same data unit does not count twice; a new one does.
        assert_eq!(counter.bump(a, 1, b'b', 0), ab);
        assert_eq!(counter.bump(a, 1, b'b', 1), ab);
        assert_eq!(counter.entry(ab).doc_count, 2);
    }
}
