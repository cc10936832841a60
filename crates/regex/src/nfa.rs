//! Thompson NFA construction (Thompson, CACM 1968 — reference \[25\] of the
//! paper).
//!
//! The compiled program is a flat vector of [`State`]s. Byte classes are
//! interned in a side table so states stay two words wide. The NFA also
//! precomputes a *byte equivalence partition*: bytes that no transition in
//! the program distinguishes are mapped to the same input class, shrinking
//! the effective alphabet for determinization (the classic trick from
//! RE2-family engines).

use crate::ast::Ast;
use crate::class::ByteClass;
use crate::error::{Error, ErrorKind, Result};
use rustc_hash::FxHashMap;

/// Identifier of an NFA state (index into [`Nfa::states`]).
pub type StateId = u32;

/// One NFA state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum State {
    /// Consume one byte in the interned class, then go to `next`.
    Class {
        /// Index into the NFA's interned class table.
        class: u32,
        /// Successor state.
        next: StateId,
    },
    /// Fork: try `a` and `b` (epsilon transitions).
    Split {
        /// First branch.
        a: StateId,
        /// Second branch.
        b: StateId,
    },
    /// Accepting state.
    Match,
}

/// A compiled Thompson NFA.
#[derive(Clone, Debug)]
pub struct Nfa {
    states: Vec<State>,
    classes: Vec<ByteClass>,
    start: StateId,
    /// The input equivalence classes, computed once per program.
    partition: Partition,
    /// Whether the pattern matches the empty string.
    nullable: bool,
}

/// Hard cap on compiled program size; protects against pathological
/// patterns like huge counted repetitions of large subtrees.
pub const DEFAULT_STATE_LIMIT: usize = 100_000;

impl Nfa {
    /// Compiles an AST into an NFA with the default state limit.
    pub fn compile(ast: &Ast) -> Result<Nfa> {
        Nfa::compile_with_limit(ast, DEFAULT_STATE_LIMIT)
    }

    /// Compiles an AST into an NFA, failing if more than `limit` states are
    /// required.
    pub fn compile_with_limit(ast: &Ast, limit: usize) -> Result<Nfa> {
        let mut c = Compiler {
            states: Vec::new(),
            classes: Vec::new(),
            class_ids: FxHashMap::default(),
            limit,
        };
        let frag = c.compile(ast)?;
        let match_id = c.push(State::Match)?;
        c.patch(frag.out, match_id);
        let partition = compute_byte_classes(&c.classes);
        Ok(Nfa {
            states: c.states,
            classes: c.classes,
            start: frag.start,
            partition,
            nullable: ast.is_nullable(),
        })
    }

    /// The start state.
    #[inline]
    pub fn start(&self) -> StateId {
        self.start
    }

    /// All states.
    #[inline]
    pub fn states(&self) -> &[State] {
        &self.states
    }

    /// Number of states.
    #[inline]
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether the program is empty (it never is after compilation).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Looks up an interned byte class.
    #[inline]
    pub fn class(&self, id: u32) -> &ByteClass {
        &self.classes[id as usize]
    }

    /// The state at `id`.
    #[inline]
    pub fn state(&self, id: StateId) -> State {
        self.states[id as usize]
    }

    /// Whether the pattern matches the empty string.
    #[inline]
    pub fn is_nullable(&self) -> bool {
        self.nullable
    }

    /// Every byte's input equivalence class, indexed by byte.
    #[inline]
    pub(crate) fn byte_classes(&self) -> &[u8; 256] {
        &self.partition.map
    }

    /// Number of distinct input equivalence classes (1..=256).
    #[inline]
    pub fn num_byte_classes(&self) -> u16 {
        self.partition.len
    }

    /// The first byte of each input equivalence class, by class id.
    #[inline]
    pub(crate) fn representatives(&self) -> &[u8] {
        &self.partition.reps[..usize::from(self.partition.len)]
    }

    /// Adds the epsilon closure of `id` to `set` (a sorted, deduped vector),
    /// using `seen` as a scratch bitmap sized to `self.len()` and `stack`
    /// as the work stack (taken and left empty, so a caller taking
    /// closures in a loop allocates it once).
    pub fn epsilon_closure_into(
        &self,
        id: StateId,
        set: &mut Vec<StateId>,
        seen: &mut [bool],
        stack: &mut Vec<StateId>,
    ) {
        stack.push(id);
        while let Some(s) = stack.pop() {
            if seen[s as usize] {
                continue;
            }
            seen[s as usize] = true;
            match self.state(s) {
                State::Split { a, b } => {
                    stack.push(a);
                    stack.push(b);
                }
                _ => set.push(s),
            }
        }
    }
}

/// A partially-built program fragment: entry state plus a list of dangling
/// out-pointers to be patched (encoded as state-id + which slot).
struct Fragment {
    start: StateId,
    out: Vec<Dangling>,
}

#[derive(Clone, Copy)]
enum Dangling {
    /// The `next` of a `Class` state.
    Next(StateId),
    /// Slot `a` of a `Split`.
    SplitA(StateId),
    /// Slot `b` of a `Split`.
    SplitB(StateId),
}

struct Compiler {
    states: Vec<State>,
    classes: Vec<ByteClass>,
    class_ids: FxHashMap<ByteClass, u32>,
    limit: usize,
}

const HOLE: StateId = u32::MAX;

impl Compiler {
    fn push(&mut self, s: State) -> Result<StateId> {
        if self.states.len() >= self.limit {
            return Err(Error::new(
                ErrorKind::ProgramTooLarge {
                    states: self.states.len(),
                    limit: self.limit,
                },
                0,
                "",
            ));
        }
        let id = self.states.len() as StateId;
        self.states.push(s);
        Ok(id)
    }

    fn intern(&mut self, c: &ByteClass) -> u32 {
        if let Some(&id) = self.class_ids.get(c) {
            return id;
        }
        let id = self.classes.len() as u32;
        self.classes.push(*c);
        self.class_ids.insert(*c, id);
        id
    }

    fn patch(&mut self, outs: Vec<Dangling>, target: StateId) {
        for o in outs {
            match o {
                Dangling::Next(id) => {
                    if let State::Class { next, .. } = &mut self.states[id as usize] {
                        debug_assert_eq!(*next, HOLE);
                        *next = target;
                    } else {
                        unreachable!("Next dangling points at non-Class state");
                    }
                }
                Dangling::SplitA(id) => {
                    if let State::Split { a, .. } = &mut self.states[id as usize] {
                        debug_assert_eq!(*a, HOLE);
                        *a = target;
                    } else {
                        unreachable!("SplitA dangling points at non-Split state");
                    }
                }
                Dangling::SplitB(id) => {
                    if let State::Split { b, .. } = &mut self.states[id as usize] {
                        debug_assert_eq!(*b, HOLE);
                        *b = target;
                    } else {
                        unreachable!("SplitB dangling points at non-Split state");
                    }
                }
            }
        }
    }

    // `expect`: the parser never emits empty `Concat`/`Alternate` nodes
    // (see `Ast::concat`/`Ast::alternate`), so both iterators yield.
    #[allow(clippy::expect_used)]
    fn compile(&mut self, ast: &Ast) -> Result<Fragment> {
        match ast {
            Ast::Empty => {
                // A single split with both arms dangling to the same place
                // acts as an epsilon node.
                let id = self.push(State::Split { a: HOLE, b: HOLE })?;
                // Patch b to point to a's eventual target by leaving only
                // one dangling arm; simplest is to make both dangle and
                // patch both to the same target.
                Ok(Fragment {
                    start: id,
                    out: vec![Dangling::SplitA(id), Dangling::SplitB(id)],
                })
            }
            Ast::Class(c) => {
                let class = self.intern(c);
                let id = self.push(State::Class { class, next: HOLE })?;
                Ok(Fragment {
                    start: id,
                    out: vec![Dangling::Next(id)],
                })
            }
            Ast::Concat(nodes) => {
                debug_assert!(!nodes.is_empty());
                let mut iter = nodes.iter();
                let first = iter.next().expect("concat is non-empty");
                let mut frag = self.compile(first)?;
                for node in iter {
                    let next = self.compile(node)?;
                    self.patch(frag.out, next.start);
                    frag.out = next.out;
                }
                Ok(frag)
            }
            Ast::Alternate(nodes) => {
                debug_assert!(nodes.len() >= 2);
                // Chain of splits: split(n1, split(n2, ... split(nk-1, nk)))
                let mut frags = Vec::with_capacity(nodes.len());
                for node in nodes {
                    frags.push(self.compile(node)?);
                }
                let mut out = Vec::new();
                let mut current: Option<StateId> = None;
                for frag in frags.into_iter().rev() {
                    out.extend(frag.out);
                    current = Some(match current {
                        None => frag.start,
                        Some(rest) => self.push(State::Split {
                            a: frag.start,
                            b: rest,
                        })?,
                    });
                }
                Ok(Fragment {
                    start: current.expect("at least one branch"),
                    out,
                })
            }
            Ast::Repeat { node, min, max } => self.compile_repeat(node, *min, *max),
        }
    }

    fn compile_repeat(&mut self, node: &Ast, min: u32, max: Option<u32>) -> Result<Fragment> {
        match (min, max) {
            (0, None) => self.compile_star(node),
            (1, None) => {
                // x+  =  x x*
                let first = self.compile(node)?;
                let star = self.compile_star(node)?;
                self.patch(first.out, star.start);
                Ok(Fragment {
                    start: first.start,
                    out: star.out,
                })
            }
            (0, Some(1)) => {
                // x?  =  split(x, ε)
                let frag = self.compile(node)?;
                let split = self.push(State::Split {
                    a: frag.start,
                    b: HOLE,
                })?;
                let mut out = frag.out;
                out.push(Dangling::SplitB(split));
                Ok(Fragment { start: split, out })
            }
            (min, max) => {
                // General {m,n}: m mandatory copies, then (n-m) optional
                // copies (or a star when unbounded).
                let mut head: Option<Fragment> = None;
                for _ in 0..min {
                    let frag = self.compile(node)?;
                    head = Some(match head {
                        None => frag,
                        Some(mut h) => {
                            self.patch(h.out, frag.start);
                            h.out = frag.out;
                            h
                        }
                    });
                }
                let tail = match max {
                    None => Some(self.compile_star(node)?),
                    Some(max) => {
                        debug_assert!(max >= min);
                        let mut tail: Option<Fragment> = None;
                        // Build optional copies from the inside out:
                        // opt_k = split(x opt_{k+1}, ε). Every copy's ε
                        // arm leaves the whole repetition, so the arms
                        // gather in the one list that started with the
                        // innermost copy's holes: linear in the copies.
                        for _ in min..max {
                            let frag = self.compile(node)?;
                            let split = self.push(State::Split {
                                a: frag.start,
                                b: HOLE,
                            })?;
                            let out = match tail {
                                None => frag.out,
                                Some(t) => {
                                    self.patch(frag.out, t.start);
                                    t.out
                                }
                            };
                            let mut t = Fragment { start: split, out };
                            t.out.push(Dangling::SplitB(split));
                            tail = Some(t);
                        }
                        tail
                    }
                };
                match (head, tail) {
                    (Some(mut h), Some(t)) => {
                        self.patch(h.out, t.start);
                        h.out = t.out;
                        Ok(h)
                    }
                    (Some(h), None) => Ok(h),
                    (None, Some(t)) => Ok(t),
                    (None, None) => self.compile(&Ast::Empty),
                }
            }
        }
    }

    fn compile_star(&mut self, node: &Ast) -> Result<Fragment> {
        // x* = split(x -> back-to-split, ε)
        let split = self.push(State::Split { a: HOLE, b: HOLE })?;
        let frag = self.compile(node)?;
        if let State::Split { a, .. } = &mut self.states[split as usize] {
            *a = frag.start;
        }
        self.patch(frag.out, split);
        Ok(Fragment {
            start: split,
            out: vec![Dangling::SplitB(split)],
        })
    }
}

/// The byte equivalence partition of a program's classes: two bytes share
/// an input class iff every transition class contains both or neither.
/// Classes are numbered in the order of their first byte.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Partition {
    /// Each byte's input class.
    map: [u8; 256],
    /// The first byte of each input class, by class id; the first `len`
    /// entries are meaningful, the rest stay 0.
    reps: [u8; 256],
    /// Number of input classes (1..=256).
    len: u16,
}

/// Computes the [`Partition`] of `classes` from the runs their bitmaps
/// cut the byte range into. A run starts where any class changes its
/// mind between a byte and the one before it; bytes inside a run share
/// every membership, so one representative byte gives a run's signature
/// (which classes contain it), and runs with equal signatures join one
/// input class. Signatures are deduplicated in one flat buffer through
/// a small open-addressed table; nothing is allocated or hashed per byte.
fn compute_byte_classes(classes: &[ByteClass]) -> Partition {
    // Bit `b` of `starts` is set when byte `b` starts a run: some class
    // holds `b` but not `b - 1`, or the other way round. Each word's
    // carry brings in the previous word's top byte; byte 0 always starts.
    let mut starts = [0u64; 4];
    for c in classes {
        let mut carry = 0;
        for (edges, &w) in starts.iter_mut().zip(c.words()) {
            *edges |= w ^ (w << 1 | carry);
            carry = w >> 63;
        }
    }
    starts[0] |= 1;
    let mut bounds = [0u16; 257];
    let mut runs = 0;
    for (w, &edges) in starts.iter().enumerate() {
        let mut e = edges;
        while e != 0 {
            bounds[runs] = (w * 64) as u16 + e.trailing_zeros() as u16;
            runs += 1;
            e &= e - 1;
        }
    }
    bounds[runs] = 256;

    let width = classes.len().div_ceil(64);
    // The distinct signatures, `width` words each, by input class id;
    // a run's signature is appended and dropped again if it is known.
    let mut sigs: Vec<u64> = Vec::with_capacity(width * (runs + 1));
    // Open addressing over at most 256 signatures: input class id + 1,
    // 0 for an empty slot.
    let mut slots = [0u16; 512];
    let mut p = Partition {
        map: [0; 256],
        reps: [0; 256],
        len: 0,
    };
    for run in bounds[..=runs].windows(2) {
        let (start, end) = (usize::from(run[0]), usize::from(run[1]));
        let (word, bit) = (start >> 6, start & 63);
        let at = sigs.len();
        sigs.extend(classes.chunks(64).map(|chunk| {
            chunk
                .iter()
                .enumerate()
                .fold(0u64, |sig, (i, c)| sig | (c.words()[word] >> bit & 1) << i)
        }));
        let mut slot = signature_slot(&sigs[at..]);
        let id = loop {
            match slots[slot] {
                0 => {
                    let id = p.len;
                    slots[slot] = id + 1;
                    p.reps[usize::from(id)] = start as u8;
                    p.len += 1;
                    break id;
                }
                known => {
                    let other = usize::from(known - 1) * width;
                    if sigs[other..other + width] == sigs[at..] {
                        sigs.truncate(at);
                        break known - 1;
                    }
                    slot = (slot + 1) % slots.len();
                }
            }
        };
        // At most 256 input classes, so every id fits a byte.
        p.map[start..end].fill(id as u8);
    }
    p
}

/// A signature's home slot in [`compute_byte_classes`]'s 512-slot table:
/// the top nine bits of an Fx-style multiplicative fold of its words.
fn signature_slot(sig: &[u64]) -> usize {
    let h = sig.iter().fold(0u64, |h, &w| {
        (h.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95)
    });
    (h >> 55) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use proptest::prelude::*;

    fn nfa(pattern: &str) -> Nfa {
        Nfa::compile(&parse(pattern).unwrap()).unwrap()
    }

    /// The per-byte signature-hash partition the run-boundary one
    /// replaced, kept only as the reference it is proven equal to: a
    /// bitmap of the classes holding each byte, interned by hash, ids in
    /// order of first byte.
    fn by_signature(classes: &[ByteClass]) -> Partition {
        let mut signature_ids: FxHashMap<Vec<u64>, u16> = FxHashMap::default();
        let mut p = Partition {
            map: [0; 256],
            reps: [0; 256],
            len: 0,
        };
        for b in 0..=255u8 {
            let mut sig = vec![0u64; classes.len().div_ceil(64)];
            for (i, c) in classes.iter().enumerate() {
                if c.contains(b) {
                    sig[i / 64] |= 1 << (i % 64);
                }
            }
            let id = *signature_ids.entry(sig).or_insert_with(|| {
                p.reps[usize::from(p.len)] = b;
                p.len += 1;
                p.len - 1
            });
            p.map[usize::from(b)] = id as u8;
        }
        p
    }

    fn assert_partition(classes: &[ByteClass]) -> Partition {
        let p = compute_byte_classes(classes);
        assert_eq!(p, by_signature(classes), "{classes:?}");
        p
    }

    #[test]
    fn compile_literal() {
        let n = nfa("abc");
        // 3 class states + match
        assert_eq!(n.len(), 4);
        assert!(!n.is_nullable());
    }

    #[test]
    fn compile_star_is_nullable() {
        let n = nfa("a*");
        assert!(n.is_nullable());
    }

    #[test]
    fn compile_alternation() {
        let n = nfa("a|b|c");
        // 3 class states, 2 splits, 1 match
        assert_eq!(n.len(), 6);
    }

    #[test]
    fn counted_repeat_expands() {
        let n3 = nfa("a{3}");
        let n1 = nfa("a");
        assert_eq!(n3.len(), n1.len() + 2); // two extra copies of the class state
        let n = nfa("a{2,4}");
        // 2 mandatory + 2 optional (each optional adds class + split) + match
        assert_eq!(n.len(), 2 + 4 + 1);
    }

    #[test]
    fn zero_repeat_matches_empty() {
        let n = nfa("a{0}");
        assert!(n.is_nullable());
    }

    #[test]
    fn state_limit_enforced() {
        let ast = parse("a{900}").unwrap();
        let err = Nfa::compile_with_limit(&ast, 100).unwrap_err();
        assert!(matches!(err.kind(), ErrorKind::ProgramTooLarge { .. }));
    }

    #[test]
    fn byte_classes_compress_alphabet() {
        let n = nfa("[a-c]x");
        // Input classes: {a,b,c}, {x}, everything else → 3.
        assert_eq!(n.num_byte_classes(), 3);
        let class = |b: u8| n.byte_classes()[usize::from(b)];
        assert_eq!(class(b'a'), class(b'b'));
        assert_ne!(class(b'a'), class(b'x'));
        assert_eq!(class(b'!'), class(b'z'));
        // Ids follow each class's first byte: 0x00.., then a-c, then x.
        assert_eq!(n.representatives(), &[0, b'a', b'x']);
        assert_eq!(class(b'y'), 0);
    }

    #[test]
    fn dot_collapses_to_one_class() {
        let n = nfa(".");
        assert_eq!(n.num_byte_classes(), 1);
        assert_eq!(n.representatives(), &[0]);
        assert_partition(&[ByteClass::ANY]);
    }

    #[test]
    fn no_classes_is_one_class() {
        let p = assert_partition(&[]);
        assert_eq!(p.len, 1);
        assert_eq!(p.map, [0; 256]);
    }

    #[test]
    fn runs_at_word_edges() {
        // Classes starting or ending on either side of each 64-byte word
        // boundary, and at both ends of the byte range.
        let edges = [
            0u8, 1, 62, 63, 64, 65, 126, 127, 128, 129, 190, 191, 192, 193, 254, 255,
        ];
        for &a in &edges {
            for &b in edges.iter().filter(|&&b| b >= a) {
                let range = ByteClass::range(a, b);
                assert_partition(&[range]);
                assert_partition(&[range.negate()]);
                assert_partition(&[ByteClass::singleton(a), ByteClass::singleton(b)]);
                assert_partition(&[range, ByteClass::singleton(b), ByteClass::ANY]);
            }
        }
        let p = assert_partition(&[ByteClass::range(63, 64), ByteClass::range(128, 191)]);
        assert_eq!(p.len, 3);
        assert_eq!(&p.reps[..3], &[0, 63, 128]);
        assert_eq!((p.map[62], p.map[63], p.map[64], p.map[65]), (0, 1, 1, 0));
        assert_eq!(
            (p.map[127], p.map[128], p.map[191], p.map[192]),
            (0, 2, 2, 0)
        );
    }

    #[test]
    fn every_byte_its_own_class() {
        let singletons: Vec<ByteClass> = (0..=255).map(ByteClass::singleton).collect();
        let p = assert_partition(&singletons);
        assert_eq!(p.len, 256);
        // Reversed, the ids still follow the bytes.
        let mut reversed = singletons;
        reversed.reverse();
        assert_eq!(assert_partition(&reversed).map[255], 255);
    }

    /// One random class: a singleton, a range, a sparse set, or the
    /// negation of any of them.
    fn class() -> impl Strategy<Value = ByteClass> {
        let base = prop_oneof![
            any::<u8>().prop_map(ByteClass::singleton),
            (any::<u8>(), any::<u8>()).prop_map(|(a, b)| ByteClass::range(a.min(b), a.max(b))),
            prop::collection::vec(any::<u8>(), 0..12).prop_map(|bytes| {
                let mut c = ByteClass::new();
                bytes.into_iter().for_each(|b| c.insert(b));
                c
            }),
        ];
        (base, any::<bool>()).prop_map(|(c, negate)| if negate { c.negate() } else { c })
    }

    proptest! {
        /// Up to 140 classes, so signatures span one, two and three
        /// words, and half the cases at most three, so that few classes
        /// cut the range and each cut shows: the same partition as the
        /// reference, ids included.
        #[test]
        fn partition_equals_the_signature_reference(
            classes in prop_oneof![
                prop::collection::vec(class(), 0..=3),
                prop::collection::vec(class(), 0..=140),
            ],
        ) {
            prop_assert_eq!(compute_byte_classes(&classes), by_signature(&classes));
        }
    }

    #[test]
    fn optional_copies_patch_like_before() {
        // The pinned program of `a{1,4}`: one mandatory copy, then three
        // optional ones built inside out, every ε arm to the match.
        let n = nfa("a{1,4}");
        let a = |next| State::Class { class: 0, next };
        let split = |a, b| State::Split { a, b };
        assert_eq!(
            n.states(),
            &[
                a(6),
                a(7),
                split(1, 7),
                a(2),
                split(3, 7),
                a(4),
                split(5, 7),
                State::Match
            ]
        );
        assert_eq!(n.start(), 0);
    }

    #[test]
    fn epsilon_closure_skips_splits() {
        let n = nfa("a*b");
        let mut seen = vec![false; n.len()];
        let mut set = Vec::new();
        n.epsilon_closure_into(n.start(), &mut set, &mut seen, &mut Vec::new());
        // Closure of start must contain the `a` class state and the `b`
        // class state (star is skippable), and no split states.
        assert_eq!(set.len(), 2);
        for &s in &set {
            assert!(matches!(n.state(s), State::Class { .. }));
        }
    }

    #[test]
    fn no_dangling_holes_after_compile() {
        for pat in [
            "a",
            "a*",
            "a|b",
            "(ab|cd)*ef",
            "a{2,5}",
            "a?b+c*",
            "",
            "a{0,1000}",
            "a{1000}",
            ".{0,200}sigmod",
            "(ab|c){3,300}",
        ] {
            let n = nfa(pat);
            for s in n.states() {
                match *s {
                    State::Class { next, .. } => assert_ne!(next, HOLE, "{pat}"),
                    State::Split { a, b } => {
                        assert_ne!(a, HOLE, "{pat}");
                        assert_ne!(b, HOLE, "{pat}");
                    }
                    State::Match => {}
                }
            }
        }
    }
}
