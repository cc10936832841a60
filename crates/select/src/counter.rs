//! The counting kernel shared by the a-priori miner and complete
//! enumeration: two flat open-addressing tables and the corpus scan that
//! fills them.
//!
//! A counting pass looks at positions of data units. The `(k-1)`-byte
//! prefix at a position is looked up in a [`GramSet`] (the *frontier*: the
//! grams still worth extending), keyed by the prefix's first eight bytes
//! read as one integer, so a key can be read at any position and the
//! probe costs the same for any gram length; a longer prefix also
//! compares its remaining bytes. Each gram of length `k..=k_end` starting
//! there is then one edge of a trie: *(parent, byte)*, where the parent
//! of the shortest gram is its frontier id and the parent of every longer
//! gram is the slot of the gram one byte shorter. A [`GramCounter`] slot
//! holds that edge and the gram's document count in 16 bytes, so counting
//! a gram is one probe of one array with an exact fixed-width comparison
//! — no key bytes are hashed, stored or chased, whatever the gram length.
//! Gram bytes are rebuilt from the edges only for the grams a pass keeps.
//!
//! Every gram of a frontier extends a gram of the frontier before it, so
//! a pass need only visit the positions where the last pass found its
//! prefix: a range's [visit bitmap](RangeTables::marks) holds one bit per
//! corpus byte and each pass clears the bits of the positions it did not
//! find. The first pass extends the empty gram, found everywhere; it
//! counts its one- and two-byte grams in a [`Dense`] table indexed by the
//! bytes themselves and moves them into counter slots once the scan ends.
//!
//! Both hash tables are sized by the grams actually seen. A frontier is
//! dropped with its pass; counters are cleared for the next pass and
//! dropped with the selection.
//!
//! A pass over a closed frontier sums over independent data units, so
//! [`count_ranges`] cuts the corpus into contiguous document ranges,
//! counts them at once (a thread and the [`RangeTables`] of its range
//! each, the frontier shared) and folds the counters into one.

use crate::Result;
use free_corpus::{Corpus, DocId};
use std::ops::Range;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Multiplier of the Fibonacci hash that spreads a key over a table.
const MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// The first `min(len, 8)` bytes of `bytes[at..at + len]` read as one
/// little-endian integer, the bytes past them zero. A gram of up to eight
/// bytes is told apart from every other gram of its length by this alone.
#[inline]
pub(crate) fn head_at(bytes: &[u8], at: usize, len: usize) -> u64 {
    let take = len.min(8);
    match bytes.get(at..).and_then(<[u8]>::first_chunk::<8>) {
        Some(word) => {
            let keep = if take == 8 {
                u64::MAX
            } else {
                (1 << (8 * take)) - 1
            };
            u64::from_le_bytes(*word) & keep
        }
        None => {
            let mut word = [0u8; 8];
            word[..take].copy_from_slice(&bytes[at..at + take]);
            u64::from_le_bytes(word)
        }
    }
}

/// Spreads a head over all 64 bits: a table slot is read from the high
/// bits, a fingerprint from the low ones.
#[inline]
pub(crate) fn spread(head: u64) -> u64 {
    let h = head.wrapping_mul(MIX);
    h ^ (h >> 32)
}

/// A set of distinct grams of one length, each with a dense id in
/// insertion order.
pub(crate) struct GramSet {
    gram_len: usize,
    /// Gram `id` is `arena[id * gram_len..][..gram_len]`.
    arena: Vec<u8>,
    /// `0` is empty; otherwise the low half of the gram's spread head in
    /// the high 32 bits and `id + 1` in the low 32.
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
        let bits = bits.max(1);
        GramSet {
            gram_len,
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

    #[inline]
    fn slot_of(&self, spread: u64) -> usize {
        (spread >> self.shift) as usize
    }

    /// Whether gram `id` is `bytes[at..at + gram_len]`, whose head is
    /// `head`.
    #[inline]
    fn is_at(&self, id: u32, head: u64, bytes: &[u8], at: usize) -> bool {
        let start = id as usize * self.gram_len;
        // Byte by byte past the head: for grams this short a `memcmp`
        // call costs more than the comparison.
        head_at(&self.arena, start, self.gram_len) == head
            && (self.arena[start..start + self.gram_len].iter())
                .zip(&bytes[at..at + self.gram_len])
                .skip(8)
                .all(|(a, b)| a == b)
    }

    /// The id of the gram `bytes[at..at + gram_len]`, if it is in the set.
    #[inline(always)]
    pub(crate) fn find_at(&self, bytes: &[u8], at: usize) -> Option<u32> {
        if self.gram_len == 0 {
            // The empty gram is the only one of its length.
            return (self.len > 0).then_some(0);
        }
        let head = head_at(bytes, at, self.gram_len);
        let spread = spread(head);
        let mask = self.table.len() - 1;
        let mut i = self.slot_of(spread);
        loop {
            let entry = self.table[i];
            if entry == 0 {
                return None;
            }
            if (entry >> 32) as u32 == spread as u32 {
                let id = entry as u32 - 1;
                if self.is_at(id, head, bytes, at) {
                    return Some(id);
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// The id of `gram`, if it is in the set.
    #[cfg(test)]
    pub(crate) fn find(&self, gram: &[u8]) -> Option<u32> {
        self.find_at(gram, 0)
    }

    /// The id of the gram `bytes[at..at + gram_len]`, adding it if new.
    pub(crate) fn intern_at(&mut self, bytes: &[u8], at: usize) -> u32 {
        if let Some(id) = self.find_at(bytes, at) {
            return id;
        }
        if (self.len + 1) * 2 > self.table.len() {
            self.grow();
        }
        let id = self.len as u32;
        self.arena.extend_from_slice(&bytes[at..at + self.gram_len]);
        self.len += 1;
        self.place(id);
        id
    }

    /// The id of `gram`, adding it if new.
    pub(crate) fn intern(&mut self, gram: &[u8]) -> u32 {
        debug_assert_eq!(gram.len(), self.gram_len);
        self.intern_at(gram, 0)
    }

    fn place(&mut self, id: u32) {
        let spread = spread(head_at(
            &self.arena,
            id as usize * self.gram_len,
            self.gram_len,
        ));
        let mask = self.table.len() - 1;
        let mut i = self.slot_of(spread);
        while self.table[i] != 0 {
            i = (i + 1) & mask;
        }
        self.table[i] = (spread << 32) | u64::from(id + 1);
    }

    fn grow(&mut self) {
        // Ids are 32 bits; a table this large is 16 GiB of slots alone.
        assert!(self.table.len() < 1 << 31, "gram set exceeds 2^30 grams");
        self.table = vec![0; self.table.len() * 2];
        self.shift -= 1;
        for id in 0..self.len as u32 {
            self.place(id);
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

    /// An empty counter with room for `grams` grams.
    fn with_room(grams: usize) -> GramCounter {
        GramCounter::with_table_bits((2 * grams).max(2).next_power_of_two().trailing_zeros())
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
        self.absorb_above(other, 0, &|parent| parent);
    }

    /// [`absorb`](Self::absorb) with every gram of `other` moved `lift`
    /// levels up and each level-0 parent `p` read as `root(p)`.
    fn absorb_above(&mut self, other: &mut GramCounter, lift: u32, root: &dyn Fn(u32) -> u32) {
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
                root(slot.parent)
            } else {
                other.slots[slot.parent as usize].last_doc
            };
            let tag = (slot.tag & !USELESS) + (lift << LEVEL_SHIFT);
            let to = self.add(parent, tag, slot.count, slot.last_doc);
            other.slots[from as usize].last_doc = to;
        }
    }

    /// Adds `count` to the gram keyed *(parent, tag)*, a slot of its own
    /// (last touched by `last_doc`) if new, and returns its slot. The
    /// caller has made room for it.
    fn add(&mut self, parent: u32, tag: u32, count: u32, last_doc: DocId) -> u32 {
        let mask = self.slots.len() - 1;
        let mut to = self.slot_of(parent, tag);
        loop {
            let here = &mut self.slots[to];
            if here.tag == 0 {
                *here = Slot {
                    parent,
                    tag,
                    count: 0,
                    last_doc,
                };
                self.len += 1;
            }
            if here.tag & !USELESS == tag && here.parent == parent {
                here.count += count;
                return to as u32;
            }
            to = (to + 1) & mask;
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

/// The first pass's counts of its one-byte grams and, when it counts two
/// lengths or more, its two-byte grams, by index: gram `a` at `a`, gram
/// `ab` at `256 + (a << 8 | b)`. The grams it counts longer than those go
/// to the counter with the two-byte gram's index `a << 8 | b` as their
/// level-0 parent, until [`settle`](Dense::settle) moves everything into
/// counter slots.
pub(crate) struct Dense {
    /// `(count, last data unit that touched the gram)` per gram.
    grams: Vec<(u32, DocId)>,
    /// Gram lengths counted here: 1 or 2.
    levels: usize,
}

impl Dense {
    /// A table for a first pass counting `lengths` gram lengths.
    pub(crate) fn new(lengths: usize) -> Dense {
        let levels = lengths.clamp(1, 2);
        Dense {
            grams: vec![(0, DocId::MAX); if levels == 2 { 256 + (1 << 16) } else { 256 }],
            levels,
        }
    }

    #[inline]
    fn bump(&mut self, index: usize, doc: DocId) {
        let (count, last_doc) = &mut self.grams[index];
        if *last_doc != doc {
            *last_doc = doc;
            *count += 1;
        }
    }

    /// Counts data unit `doc` for the grams of its lengths at `bytes[at..]`
    /// and returns the counter's level-0 parent of the grams longer than
    /// them.
    #[inline]
    fn count(&mut self, bytes: &[u8], at: usize, doc: DocId) -> u32 {
        let a = bytes[at];
        self.bump(usize::from(a), doc);
        match bytes.get(at + 1) {
            Some(&b) if self.levels == 2 => {
                let code = u32::from(a) << 8 | u32::from(b);
                self.bump(256 + code as usize, doc);
                code
            }
            _ => u32::from(a),
        }
    }

    /// Adds the counts of `other`, a table of the same pass over other
    /// data units.
    fn absorb(&mut self, other: &Dense) {
        for (mine, theirs) in self.grams.iter_mut().zip(&other.grams) {
            mine.0 += theirs.0;
        }
    }

    /// Moves the counts into `counter`, which holds the pass's longer
    /// grams: every gram here gets a slot, shortest first (in the empty
    /// frontier gram's pass, so the one-byte grams' parent is frontier id
    /// 0), and the longer grams are re-keyed onto the slots of their
    /// two-byte prefixes. Runs on the calling thread: the counter's new
    /// table is allocated there.
    fn settle(mut self, counter: &mut GramCounter) {
        let seen = self.grams.iter().filter(|g| g.0 > 0).count();
        let mut above = std::mem::replace(counter, GramCounter::with_room(seen + counter.len()));
        // Each gram's `last_doc` becomes its slot.
        for index in 0..self.grams.len() {
            let (count, _) = self.grams[index];
            if count > 0 {
                let (parent, level, byte) = match index.checked_sub(256) {
                    None => (0, 0, index as u32),
                    Some(code) => (self.grams[code >> 8].1, 1, (code & 0xff) as u32),
                };
                let tag = OCCUPIED | level << LEVEL_SHIFT | byte;
                self.grams[index].1 = counter.add(parent, tag, count, 0);
            }
        }
        let levels = self.levels as u32;
        counter.absorb_above(&mut above, levels, &|code| {
            self.grams[256 + code as usize].1
        });
    }
}

/// What one document range of a counting pass counts into. The calling
/// thread allocates all of it (see [`Handoff`]); the mining passes keep
/// it from pass to pass.
pub(crate) struct RangeTables {
    pub(crate) counter: GramCounter,
    /// The first pass's table of its shortest grams, until that pass is
    /// folded.
    pub(crate) dense: Option<Dense>,
    /// The visit bitmap, bit `p` for the range's `p`-th byte in scan
    /// order: set where the last pass found the prefix at that position in
    /// its frontier. `None`: every position is visited.
    pub(crate) marks: Option<Vec<u64>>,
}

impl RangeTables {
    /// Tables that visit every position and count into `counter`.
    pub(crate) fn new(counter: GramCounter, dense: Option<Dense>) -> RangeTables {
        RangeTables {
            counter,
            dense,
            marks: None,
        }
    }
}

/// A visit bitmap of `bytes` positions, every one set.
pub(crate) fn all_marked(bytes: u64) -> Vec<u64> {
    let bytes = usize::try_from(bytes).unwrap_or(usize::MAX);
    let mut marks = vec![u64::MAX; bytes.div_ceil(64)];
    if let Some(last) = marks.last_mut() {
        *last >>= (64 - bytes % 64) % 64;
    }
    marks
}

/// What a counting pass read: corpus bytes and the positions it visited.
#[derive(Clone, Copy, Default)]
pub(crate) struct Scanned {
    pub(crate) bytes: u64,
    pub(crate) positions: u64,
}

/// Visits positions `0..len` of a data unit whose first byte is position
/// `start` of its range, the ones whose bit is set in `marks`, and clears
/// the bit where `visit` returns false. Returns how many it visited.
#[inline(always)]
fn visit_marked(
    marks: &mut [u64],
    start: usize,
    len: usize,
    mut visit: impl FnMut(usize) -> bool,
) -> u64 {
    if len == 0 {
        return 0;
    }
    let end = start + len;
    let mut visited = 0;
    for w in start / 64..end.div_ceil(64) {
        let Some(word) = marks.get_mut(w) else {
            break;
        };
        let base = w * 64;
        let lo = start.saturating_sub(base);
        let hi = (end - base).min(64);
        let mine = (u64::MAX >> (64 - (hi - lo))) << lo;
        let mut todo = *word & mine;
        visited += u64::from(todo.count_ones());
        let mut found = todo;
        while todo != 0 {
            let bit = todo.trailing_zeros();
            todo &= todo - 1;
            if !visit(base + bit as usize - start) {
                found &= !(1 << bit);
            }
        }
        *word = (*word & !mine) | found;
    }
    visited
}

/// One corpus scan over the data units whose position in scan order is
/// in `docs`. At every visited position (see [`RangeTables::marks`])
/// where a gram one byte longer than the `prefixes` fits and whose prefix
/// of their length is one of them, counts the grams of each length up to
/// `k_end` that fit, the shortest in `tables.dense` if it is there. A
/// counter without room for the grams of a position is handed to `grow`
/// (given how many), which must leave it with that room.
pub(crate) fn count_pass(
    corpus: &dyn Corpus,
    prefixes: Prefixes<'_>,
    docs: Range<usize>,
    k_end: usize,
    tables: &mut RangeTables,
    grow: &mut dyn FnMut(&mut GramCounter, usize),
) -> Result<Scanned> {
    let k = prefixes.set().gram_len() + 1;
    debug_assert!(
        (tables.dense.as_ref()).is_none_or(|d| k == 1 && d.levels <= k_end),
        "a dense table counts the shortest lengths of the empty gram's pass"
    );
    debug_assert!(k <= k_end && k_end - k < GramCounter::MAX_LEVELS);
    let mut pass = Pass {
        prefixes,
        base: k + tables.dense.as_ref().map_or(0, |d| d.levels),
        k,
        k_end,
        counter: &mut tables.counter,
        dense: tables.dense.as_mut(),
        grow,
    };
    let marks = &mut tables.marks;
    let mut scanned = Scanned::default();
    corpus.scan_range(docs, &mut |doc, bytes| {
        let start = scanned.bytes as usize;
        scanned.bytes += bytes.len() as u64;
        scanned.positions += match marks.as_deref_mut() {
            None => {
                for i in 0..bytes.len() {
                    pass.count_at(bytes, i, doc);
                }
                bytes.len() as u64
            }
            Some(marks) => {
                visit_marked(marks, start, bytes.len(), |i| pass.count_at(bytes, i, doc))
            }
        };
        true
    })?;
    Ok(scanned)
}

/// One counting pass's tables, as [`count_pass`] sees them.
struct Pass<'a, 'b> {
    prefixes: Prefixes<'a>,
    /// The length of the grams the pass extends, plus one.
    k: usize,
    /// The shortest length the counter counts.
    base: usize,
    k_end: usize,
    counter: &'b mut GramCounter,
    dense: Option<&'b mut Dense>,
    grow: &'b mut dyn FnMut(&mut GramCounter, usize),
}

impl Pass<'_, '_> {
    /// Counts data unit `doc` for the grams at `bytes[at..]`, if their
    /// prefix is one of the pass's; returns whether it is.
    #[inline(always)]
    fn count_at(&mut self, bytes: &[u8], at: usize, doc: DocId) -> bool {
        if at + self.k > bytes.len() {
            return false;
        }
        let prefix_id = match &mut self.prefixes {
            Prefixes::In(set) => match set.find_at(bytes, at) {
                Some(id) => id,
                None => return false,
            },
            Prefixes::Any(set) => set.intern_at(bytes, at),
        };
        let mut parent = match &mut self.dense {
            Some(dense) => dense.count(bytes, at, doc),
            None => prefix_id,
        };
        let longest = self.k_end.min(bytes.len() - at);
        if longest >= self.base {
            let counter = &mut *self.counter;
            if !counter.has_room(longest + 1 - self.base) {
                (self.grow)(counter, longest + 1 - self.base);
            }
            for m in self.base..=longest {
                parent = counter.bump(parent, (m - self.base) as u32, bytes[at + m - 1], doc);
            }
        }
        true
    }
}

/// What [`count_ranges`] read and how long its fold took.
pub(crate) struct RangesScanned {
    /// Per range, in range order.
    pub(crate) ranges: Vec<Scanned>,
    pub(crate) fold: Duration,
}

/// One [`count_pass`] over the closed `frontier` with the corpus cut into
/// one contiguous document range per [`RangeTables`], counted at once,
/// each by its own thread into its own tables (counter cleared first);
/// every thread scans the corpus and skips the data units outside its
/// range. The counters, and the dense tables of a first pass, are then
/// folded into the first range's counter: counts stay exact because no
/// data unit is in two ranges.
///
/// The tables are kept from pass to pass, and the calling thread
/// allocates every one (see [`Handoff`]).
pub(crate) fn count_ranges(
    corpus: &dyn Corpus,
    frontier: &GramSet,
    tables: &mut [RangeTables],
    k_end: usize,
) -> Result<RangesScanned> {
    let ranges = tables.len();
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
        |r: usize, tables: &mut RangeTables, grow: &mut dyn FnMut(&mut GramCounter, usize)| {
            tables.counter.clear();
            count_pass(corpus, Prefixes::In(frontier), docs(r), k_end, tables, grow)
        };
    let scanned: Vec<Result<Scanned>> = match tables {
        [tables] => vec![count(0, tables, &mut GramCounter::reserve)],
        _ => {
            let handoff = Handoff::new(ranges);
            std::thread::scope(|s| {
                // Threads waiting on a caller that unwinds are let go.
                let _closing = Closing(&handoff);
                let workers: Vec<_> = (tables.iter_mut().enumerate())
                    .map(|(r, tables)| {
                        let handoff = &handoff;
                        s.spawn(move || {
                            let _done = Done(handoff);
                            count(r, tables, &mut |counter, additional| {
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
    let scanned = scanned.into_iter().collect::<Result<Vec<Scanned>>>()?;
    let started = Instant::now();
    if let Some((folded, others)) = tables.split_first_mut() {
        for other in others {
            folded.counter.absorb(&mut other.counter);
            if let (Some(dense), Some(theirs)) = (&mut folded.dense, other.dense.take()) {
                dense.absorb(&theirs);
            }
        }
        if let Some(dense) = folded.dense.take() {
            dense.settle(&mut folded.counter);
        }
    }
    Ok(RangesScanned {
        ranges: scanned,
        fold: started.elapsed(),
    })
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
    fn head_keys_read_the_first_eight_bytes() {
        let text = b"the quick brown fox \x00\xff\xff jumps";
        for len in 0..12 {
            for at in 0..=text.len() - len {
                let mut word = [0u8; 8];
                let take = len.min(8);
                word[..take].copy_from_slice(&text[at..at + take]);
                let want = u64::from_le_bytes(word);
                assert_eq!(head_at(text, at, len), want, "len {len} at {at}");
                // Read from a slice that ends with the gram, too.
                assert_eq!(head_at(&text[..at + len], at, len), want);
            }
        }
    }

    #[test]
    fn gram_set_grows_from_two_slots_and_keeps_ids() {
        for (len, distinct) in [
            (0usize, 1u32),
            (1, 200),
            (3, 700),
            (8, 700),
            (9, 700),
            (20, 700),
        ] {
            let mut set = GramSet::with_table_bits(len, 1);
            // Bytes past the eighth vary too, so long grams differ in
            // their tails as well as their heads.
            let grams: Vec<Vec<u8>> = (0..distinct)
                .map(|i| {
                    (0..len)
                        .map(|j| (i >> (8 * (j % 2))) as u8 ^ (j as u8))
                        .collect()
                })
                .collect();
            for (i, g) in grams.iter().enumerate() {
                assert_eq!(set.find(g), None);
                assert_eq!(set.intern(g), i as u32);
                assert_eq!(set.intern(g), i as u32, "second intern is a lookup");
            }
            for (i, g) in grams.iter().enumerate() {
                assert_eq!(set.find(g), Some(i as u32));
                assert_eq!(set.gram(i as u32), &g[..]);
                // Found inside a longer text, at any offset.
                let text = [b"xyz", &g[..], b"q"].concat();
                assert_eq!(set.find_at(&text, 3), Some(i as u32));
            }
            assert!(!set.is_empty());
        }
    }

    #[test]
    fn equal_fingerprints_are_told_apart_by_bytes() {
        // Grams with one head: every probe lands on the same slot with
        // the same fingerprint, and only the bytes past the eighth differ.
        let mut set = GramSet::with_table_bits(11, 3);
        let a = set.intern(b"abcdefghaaa");
        let b = set.intern(b"abcdefghaab");
        let c = set.intern(b"abcdefghbaa");
        assert_eq!([a, b, c], [0, 1, 2]);
        assert_eq!(set.find(b"abcdefghaab"), Some(b));
        assert_eq!(set.find(b"abcdefghbaa"), Some(c));
        assert_eq!(set.find(b"abcdefghaaa"), Some(a));
        assert_eq!(set.find(b"abcdefghcaa"), None);
    }

    /// The empty gram's frontier, a first pass's.
    fn empty_frontier() -> GramSet {
        let mut frontier = GramSet::with_table_bits(0, 1);
        frontier.intern(&[]);
        frontier
    }

    /// One range's tables: a counter of two slots, and a dense table for
    /// a first pass of `dense` lengths.
    fn small_tables(dense: Option<usize>) -> RangeTables {
        RangeTables::new(GramCounter::with_table_bits(1), dense.map(Dense::new))
    }

    fn total_bytes(docs: &[Vec<u8>]) -> u64 {
        docs.iter().map(|d| d.len() as u64).sum()
    }

    #[test]
    fn counter_grows_from_two_slots_mid_scan() {
        let docs = docs();
        let corpus = MemCorpus::from_docs(docs.clone());
        // Closed frontier of the empty gram: every gram of length 1..=3,
        // three levels of parents that every doubling has to re-key.
        let frontier = empty_frontier();
        let mut tables = small_tables(None);
        let scanned = count_pass(
            &corpus,
            In(&frontier),
            ALL,
            3,
            &mut tables,
            &mut GramCounter::reserve,
        )
        .unwrap();
        assert_eq!(scanned.bytes, total_bytes(&docs));
        assert_eq!(scanned.positions, scanned.bytes, "no marks: every position");
        let want = naive_counts(&docs, None, 1, 3);
        let counter = &tables.counter;
        assert_eq!(counted(counter, &frontier), want);
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
            frontier.intern(p);
        }
        let mut tables = small_tables(None);
        count_pass(
            &corpus,
            In(&frontier),
            ALL,
            6,
            &mut tables,
            &mut GramCounter::reserve,
        )
        .unwrap();
        assert_eq!(
            counted(&tables.counter, &frontier),
            naive_counts(&docs, Some(&prefixes), 3, 6)
        );

        let mut open = GramSet::with_table_bits(2, 1);
        let mut tables = small_tables(None);
        count_pass(
            &corpus,
            Any(&mut open),
            ALL,
            4,
            &mut tables,
            &mut GramCounter::reserve,
        )
        .unwrap();
        assert_eq!(
            counted(&tables.counter, &open),
            naive_counts(&docs, None, 3, 4)
        );
    }

    #[test]
    fn marked_passes_visit_only_the_positions_the_last_pass_found() {
        let docs = docs();
        let corpus = MemCorpus::from_docs(docs.clone());
        let found_at = |prefixes: &BTreeSet<Vec<u8>>, k: usize| -> Vec<(usize, usize)> {
            let mut found = Vec::new();
            for (d, doc) in docs.iter().enumerate() {
                for i in 0..doc.len() {
                    if i + k <= doc.len() && prefixes.contains(&doc[i..i + k - 1]) {
                        found.push((d, i));
                    }
                }
            }
            found
        };
        // Each frontier extends the one before, as the miner's do.
        let frontiers: [&[&[u8]]; 3] = [
            &[b"ab", b"ra", b"zz", b"\x00\xff", b"br"],
            &[b"abr", b"rac", b"zzz", b"\x00\xffx", b"bra"],
            &[b"abra", b"zzzz", b"brac"],
        ];
        for ranges in [1, 2, 3, docs.len() + 1] {
            let mut tables: Vec<RangeTables> = (0..ranges).map(|_| small_tables(None)).collect();
            // The empty gram's pass finds every position.
            let scanned = count_ranges(&corpus, &empty_frontier(), &mut tables, 1).unwrap();
            for (tables, range) in tables.iter_mut().zip(&scanned.ranges) {
                tables.marks = Some(all_marked(range.bytes));
            }
            let mut last_found = total_bytes(&docs);
            for grams in frontiers {
                let prefixes: BTreeSet<Vec<u8>> = grams.iter().map(|g| g.to_vec()).collect();
                let k = grams[0].len() + 1;
                let mut frontier = GramSet::new(k - 1);
                for g in grams {
                    frontier.intern(g);
                }
                let scanned = count_ranges(&corpus, &frontier, &mut tables, k + 1).unwrap();
                let visited: u64 = scanned.ranges.iter().map(|r| r.positions).sum();
                assert_eq!(
                    counted(&tables[0].counter, &frontier),
                    naive_counts(&docs, Some(&prefixes), k, k + 1),
                    "{ranges} ranges, k {k}"
                );
                assert_eq!(visited, last_found, "{ranges} ranges, k {k}");
                let found = found_at(&prefixes, k);
                let set: u64 = (tables.iter().flat_map(|t| t.marks.iter().flatten()))
                    .map(|w| u64::from(w.count_ones()))
                    .sum();
                assert_eq!(set, found.len() as u64, "{ranges} ranges, k {k}");
                last_found = found.len() as u64;
            }
        }
    }

    #[test]
    fn visit_marked_keeps_the_bits_of_other_units() {
        for start in [0usize, 1, 63, 64, 65, 100] {
            for len in [0usize, 1, 2, 63, 64, 65, 130] {
                let mut marks = all_marked((start + len + 70) as u64);
                let before = marks.clone();
                let mut seen = Vec::new();
                let visited = visit_marked(&mut marks, start, len, |i| {
                    seen.push(i);
                    i % 3 == 0
                });
                assert_eq!(seen, (0..len).collect::<Vec<_>>());
                assert_eq!(visited, len as u64);
                for p in 0..marks.len() * 64 {
                    let bit = |m: &[u64]| m[p / 64] >> (p % 64) & 1;
                    let want = if (start..start + len).contains(&p) {
                        u64::from((p - start) % 3 == 0)
                    } else {
                        bit(&before)
                    };
                    assert_eq!(bit(&marks), want, "start {start} len {len} bit {p}");
                }
            }
        }
        assert_eq!(all_marked(0), Vec::<u64>::new());
        assert_eq!(all_marked(65), vec![u64::MAX, 1]);
    }

    #[test]
    fn a_dense_first_pass_counts_what_a_counter_counts() {
        let docs = docs();
        let corpus = MemCorpus::from_docs(docs.clone());
        let frontier = empty_frontier();
        for lengths in 1..=5 {
            let want = naive_counts(&docs, None, 1, lengths);
            for ranges in [1, 2, 3, docs.len() + 2] {
                let mut tables: Vec<RangeTables> =
                    (0..ranges).map(|_| small_tables(Some(lengths))).collect();
                let scanned = count_ranges(&corpus, &frontier, &mut tables, lengths).unwrap();
                let bytes: u64 = scanned.ranges.iter().map(|r| r.bytes).sum();
                assert_eq!(bytes, total_bytes(&docs));
                assert!(
                    tables.iter().all(|t| t.dense.is_none()),
                    "folded and dropped"
                );
                let counter = &tables[0].counter;
                assert_eq!(
                    counted(counter, &frontier),
                    want,
                    "{lengths} lengths, {ranges} ranges"
                );
                assert_eq!(counter.len(), want.len());
            }
        }
    }

    #[test]
    fn folding_disjoint_ranges_counts_their_union() {
        let docs = docs();
        let corpus = MemCorpus::from_docs(docs.clone());
        let frontier = empty_frontier();
        let want = naive_counts(&docs, None, 1, 3);
        let total = total_bytes(&docs);
        // Ranges in scan order, one of them empty and the last one open.
        // Every counter starts from two slots, so the fold grows the first
        // while re-keying what it absorbs.
        let cuts = [0, 1, 1, 17, usize::MAX];
        let mut counters = cuts.windows(2).map(|cut| {
            let mut tables = small_tables(None);
            let scanned = count_pass(
                &corpus,
                In(&frontier),
                cut[0]..cut[1],
                3,
                &mut tables,
                &mut GramCounter::reserve,
            );
            (tables.counter, scanned.unwrap().bytes)
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
            let mut tables: Vec<RangeTables> = (0..ranges)
                .map(|_| RangeTables::new(GramCounter::new(), None))
                .collect();
            for pass in 0..2 {
                let scanned = count_ranges(&corpus, &frontier, &mut tables, 3).unwrap();
                let bytes: u64 = scanned.ranges.iter().map(|r| r.bytes).sum();
                assert_eq!(bytes, total, "{ranges} ranges, pass {pass}");
                assert_eq!(
                    counted(&tables[0].counter, &frontier),
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
        let frontier = empty_frontier();
        let want = naive_counts(&docs, None, 1, 4);
        // A counter is full at half its slots.
        assert!(want.len() > 2 * GramCounter::new().slots.len());
        for ranges in [1, 2, 4] {
            // Without and with a dense table, which leaves the counter
            // the grams of three and four bytes.
            for dense in [None, Some(4)] {
                let mut tables: Vec<RangeTables> = (0..ranges)
                    .map(|_| RangeTables::new(GramCounter::new(), dense.map(Dense::new)))
                    .collect();
                count_ranges(&corpus, &frontier, &mut tables, 4).unwrap();
                assert_eq!(
                    counted(&tables[0].counter, &frontier),
                    want,
                    "{ranges} ranges"
                );
            }
        }
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
