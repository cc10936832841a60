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
    /// Maps each byte to its input equivalence class.
    byte_class: [u16; 256],
    /// Number of distinct input equivalence classes.
    num_byte_classes: u16,
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
        let (byte_class, num_byte_classes) = compute_byte_classes(&c.classes);
        Ok(Nfa {
            states: c.states,
            classes: c.classes,
            start: frag.start,
            byte_class,
            num_byte_classes,
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

    /// Maps a haystack byte to its input equivalence class.
    #[inline]
    pub fn byte_class(&self, b: u8) -> u16 {
        self.byte_class[b as usize]
    }

    /// Number of distinct input equivalence classes (≤ 256).
    #[inline]
    pub fn num_byte_classes(&self) -> u16 {
        self.num_byte_classes
    }

    /// A representative byte for each input equivalence class.
    // `expect`: class ids are assigned from observed bytes, so every
    // class gains a representative in the loop above.
    #[allow(clippy::expect_used)]
    pub fn byte_class_representatives(&self) -> Vec<u8> {
        let mut reps = vec![None; self.num_byte_classes as usize];
        for b in 0..=255u8 {
            let c = self.byte_class[b as usize] as usize;
            if reps[c].is_none() {
                reps[c] = Some(b);
            }
        }
        reps.into_iter()
            .map(|r| r.expect("every class has a rep"))
            .collect()
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
                        // opt_k = split(x opt_{k+1}, ε)
                        for _ in min..max {
                            let frag = self.compile(node)?;
                            let split = self.push(State::Split {
                                a: frag.start,
                                b: HOLE,
                            })?;
                            let mut out = vec![Dangling::SplitB(split)];
                            match tail {
                                None => out.extend(frag.out),
                                Some(t) => {
                                    self.patch(frag.out, t.start);
                                    out.extend(t.out);
                                }
                            }
                            tail = Some(Fragment { start: split, out });
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

/// Computes the byte equivalence partition for a set of byte classes: two
/// bytes belong to the same input class iff every transition class either
/// contains both or neither.
fn compute_byte_classes(classes: &[ByteClass]) -> ([u16; 256], u16) {
    let mut signature_ids: FxHashMap<Vec<u64>, u16> = FxHashMap::default();
    let mut byte_class = [0u16; 256];
    let mut next_id = 0u16;
    for b in 0..=255u8 {
        // Signature: bitmap of which classes contain b.
        let mut sig = vec![0u64; classes.len().div_ceil(64)];
        for (i, c) in classes.iter().enumerate() {
            if c.contains(b) {
                sig[i / 64] |= 1 << (i % 64);
            }
        }
        let id = *signature_ids.entry(sig).or_insert_with(|| {
            let id = next_id;
            next_id += 1;
            id
        });
        byte_class[b as usize] = id;
    }
    (byte_class, next_id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn nfa(pattern: &str) -> Nfa {
        Nfa::compile(&parse(pattern).unwrap()).unwrap()
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
        assert_eq!(n.byte_class(b'a'), n.byte_class(b'b'));
        assert_ne!(n.byte_class(b'a'), n.byte_class(b'x'));
        assert_eq!(n.byte_class(b'!'), n.byte_class(b'z'));
        let reps = n.byte_class_representatives();
        assert_eq!(reps.len(), 3);
    }

    #[test]
    fn dot_collapses_to_one_class() {
        let n = nfa(".");
        assert_eq!(n.num_byte_classes(), 1);
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
        for pat in ["a", "a*", "a|b", "(ab|cd)*ef", "a{2,5}", "a?b+c*", ""] {
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
