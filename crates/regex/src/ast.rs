//! The abstract syntax tree produced by the parser.
//!
//! The tree deliberately mirrors the paper's normalized view of a regex:
//! characters (here: byte classes), concatenation, alternation (`|`) and
//! repetition. `+`, `?` and `{m,n}` are all represented by [`Ast::Repeat`];
//! the paper's Step \[1\] rewrite ("only OR and STAR connectives") is then a
//! structural property the index planner can rely on via
//! [`Ast::Repeat::min`].

use crate::class::ByteClass;
use core::fmt;

/// A parsed regular expression.
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum Ast {
    /// Matches the empty string.
    Empty,
    /// Matches any single byte in the class. Literal bytes are singleton
    /// classes; `.` is the full class.
    Class(ByteClass),
    /// Matches each child in sequence.
    Concat(Vec<Ast>),
    /// Matches any one child (the `|` connective).
    Alternate(Vec<Ast>),
    /// Matches `node` repeated between `min` and `max` times (inclusive);
    /// `max = None` means unbounded. `*` is `{0,}`, `+` is `{1,}`,
    /// `?` is `{0,1}`.
    Repeat {
        /// The repeated subexpression.
        node: Box<Ast>,
        /// Minimum repetition count.
        min: u32,
        /// Maximum repetition count; `None` means unbounded.
        max: Option<u32>,
    },
}

impl Ast {
    /// A single literal byte.
    pub fn byte(b: u8) -> Ast {
        Ast::Class(ByteClass::singleton(b))
    }

    /// A literal byte string (concatenation of singleton classes).
    pub fn literal(bytes: &[u8]) -> Ast {
        match bytes.len() {
            0 => Ast::Empty,
            1 => Ast::byte(bytes[0]),
            _ => Ast::Concat(bytes.iter().map(|&b| Ast::byte(b)).collect()),
        }
    }

    /// Zero-or-more repetition (`*`).
    pub fn star(node: Ast) -> Ast {
        Ast::Repeat {
            node: Box::new(node),
            min: 0,
            max: None,
        }
    }

    /// One-or-more repetition (`+`).
    pub fn plus(node: Ast) -> Ast {
        Ast::Repeat {
            node: Box::new(node),
            min: 1,
            max: None,
        }
    }

    /// Zero-or-one repetition (`?`).
    pub fn optional(node: Ast) -> Ast {
        Ast::Repeat {
            node: Box::new(node),
            min: 0,
            max: Some(1),
        }
    }

    /// Concatenation that flattens nested concats and drops `Empty` nodes.
    // `expect`: `pop()` happens in the `len == 1` match arm.
    #[allow(clippy::expect_used)]
    pub fn concat(nodes: Vec<Ast>) -> Ast {
        let mut out = Vec::with_capacity(nodes.len());
        for n in nodes {
            match n {
                Ast::Empty => {}
                Ast::Concat(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => Ast::Empty,
            1 => out.pop().expect("len checked"),
            _ => Ast::Concat(out),
        }
    }

    /// Alternation that flattens nested alternations.
    // `expect`: `pop()` happens in the `len == 1` match arm.
    #[allow(clippy::expect_used)]
    pub fn alternate(nodes: Vec<Ast>) -> Ast {
        let mut out = Vec::with_capacity(nodes.len());
        for n in nodes {
            match n {
                Ast::Alternate(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => Ast::Empty,
            1 => out.pop().expect("len checked"),
            _ => Ast::Alternate(out),
        }
    }

    /// Whether this expression can match the empty string.
    pub fn is_nullable(&self) -> bool {
        match self {
            Ast::Empty => true,
            Ast::Class(_) => false,
            Ast::Concat(ns) => ns.iter().all(Ast::is_nullable),
            Ast::Alternate(ns) => ns.iter().any(Ast::is_nullable),
            Ast::Repeat { node, min, .. } => *min == 0 || node.is_nullable(),
        }
    }

    /// The expression matching exactly the reversals of this one's
    /// matches: concatenations run back to front, everything else keeps
    /// its shape. With no anchors or look-around in the syntax the
    /// reversal is exact, which is what lets a right-to-left automaton
    /// over it find where matches *start* (see [`crate::dfa`]).
    pub fn reversed(&self) -> Ast {
        match self {
            Ast::Empty | Ast::Class(_) => self.clone(),
            Ast::Concat(ns) => Ast::Concat(ns.iter().rev().map(Ast::reversed).collect()),
            Ast::Alternate(ns) => Ast::Alternate(ns.iter().map(Ast::reversed).collect()),
            Ast::Repeat { node, min, max } => Ast::Repeat {
                node: Box::new(node.reversed()),
                min: *min,
                max: *max,
            },
        }
    }

    /// Number of nodes in the tree (used by compilation size limits).
    pub fn size(&self) -> usize {
        match self {
            Ast::Empty | Ast::Class(_) => 1,
            Ast::Concat(ns) | Ast::Alternate(ns) => 1 + ns.iter().map(Ast::size).sum::<usize>(),
            Ast::Repeat { node, .. } => 1 + node.size(),
        }
    }

    /// If this AST is a plain literal byte string, returns the bytes.
    pub fn as_literal(&self) -> Option<Vec<u8>> {
        match self {
            Ast::Empty => Some(Vec::new()),
            Ast::Class(c) => c.as_singleton().map(|b| vec![b]),
            Ast::Concat(ns) => {
                let mut out = Vec::with_capacity(ns.len());
                for n in ns {
                    match n {
                        Ast::Class(c) => out.push(c.as_singleton()?),
                        _ => return None,
                    }
                }
                Some(out)
            }
            _ => None,
        }
    }
}

impl fmt::Debug for Ast {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ast::Empty => write!(f, "ε"),
            Ast::Class(c) => match c.as_singleton() {
                Some(b) => write!(f, "{}", crate::class::display_byte(b)),
                None => write!(f, "{c:?}"),
            },
            Ast::Concat(ns) => {
                for n in ns {
                    match n {
                        Ast::Alternate(_) => write!(f, "({n:?})")?,
                        _ => write!(f, "{n:?}")?,
                    }
                }
                Ok(())
            }
            Ast::Alternate(ns) => {
                for (i, n) in ns.iter().enumerate() {
                    if i > 0 {
                        write!(f, "|")?;
                    }
                    write!(f, "{n:?}")?;
                }
                Ok(())
            }
            Ast::Repeat { node, min, max } => {
                match node.as_ref() {
                    Ast::Class(_) | Ast::Empty => write!(f, "{node:?}")?,
                    _ => write!(f, "({node:?})")?,
                }
                match (min, max) {
                    (0, None) => write!(f, "*"),
                    (1, None) => write!(f, "+"),
                    (0, Some(1)) => write!(f, "?"),
                    (m, None) => write!(f, "{{{m},}}"),
                    (m, Some(n)) if m == n => write!(f, "{{{m}}}"),
                    (m, Some(n)) => write!(f, "{{{m},{n}}}"),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_construction() {
        assert_eq!(Ast::literal(b""), Ast::Empty);
        assert_eq!(Ast::literal(b"a"), Ast::byte(b'a'));
        match Ast::literal(b"ab") {
            Ast::Concat(ns) => assert_eq!(ns.len(), 2),
            other => panic!("expected concat, got {other:?}"),
        }
    }

    #[test]
    fn concat_flattens_and_drops_empty() {
        let a = Ast::concat(vec![
            Ast::byte(b'a'),
            Ast::Empty,
            Ast::concat(vec![Ast::byte(b'b'), Ast::byte(b'c')]),
        ]);
        assert_eq!(a.as_literal(), Some(b"abc".to_vec()));
    }

    #[test]
    fn concat_of_nothing_is_empty() {
        assert_eq!(Ast::concat(vec![]), Ast::Empty);
        assert_eq!(Ast::concat(vec![Ast::Empty, Ast::Empty]), Ast::Empty);
    }

    #[test]
    fn alternate_flattens() {
        let a = Ast::alternate(vec![
            Ast::byte(b'a'),
            Ast::alternate(vec![Ast::byte(b'b'), Ast::byte(b'c')]),
        ]);
        match a {
            Ast::Alternate(ns) => assert_eq!(ns.len(), 3),
            other => panic!("expected alternate, got {other:?}"),
        }
    }

    #[test]
    fn nullable() {
        assert!(Ast::Empty.is_nullable());
        assert!(!Ast::byte(b'a').is_nullable());
        assert!(Ast::star(Ast::byte(b'a')).is_nullable());
        assert!(!Ast::plus(Ast::byte(b'a')).is_nullable());
        assert!(Ast::optional(Ast::byte(b'a')).is_nullable());
        assert!(Ast::alternate(vec![Ast::byte(b'a'), Ast::Empty]).is_nullable());
        assert!(!Ast::concat(vec![Ast::star(Ast::byte(b'a')), Ast::byte(b'b')]).is_nullable());
    }

    #[test]
    fn as_literal_rejects_classes_and_repeats() {
        assert_eq!(Ast::Class(ByteClass::digit()).as_literal(), None);
        assert_eq!(Ast::star(Ast::byte(b'a')).as_literal(), None);
        assert_eq!(
            Ast::alternate(vec![Ast::byte(b'a'), Ast::byte(b'b')]).as_literal(),
            None
        );
    }

    #[test]
    fn reversed_flips_concatenations_only() {
        let a = Ast::concat(vec![
            Ast::alternate(vec![Ast::literal(b"ab"), Ast::literal(b"cde")]),
            Ast::star(Ast::literal(b"xy")),
            Ast::byte(b'z'),
        ]);
        assert_eq!(format!("{:?}", a.reversed()), "z(yx)*(ba|edc)");
        assert_eq!(a.reversed().reversed(), a);
        assert_eq!(a.reversed().size(), a.size());
    }

    #[test]
    fn size_counts_nodes() {
        let a = Ast::concat(vec![Ast::byte(b'a'), Ast::star(Ast::byte(b'b'))]);
        // concat(1) + class(1) + repeat(1) + class(1)
        assert_eq!(a.size(), 4);
    }

    #[test]
    fn debug_rendering() {
        let a = Ast::concat(vec![
            Ast::alternate(vec![Ast::literal(b"Bill"), Ast::literal(b"William")]),
            Ast::star(Ast::Class(ByteClass::dot())),
            Ast::literal(b"Clinton"),
        ]);
        assert_eq!(format!("{a:?}"), "(Bill|William).*Clinton");
    }

    #[test]
    fn debug_counted_repeats() {
        let r = Ast::Repeat {
            node: Box::new(Ast::byte(b'a')),
            min: 2,
            max: Some(5),
        };
        assert_eq!(format!("{r:?}"), "a{2,5}");
        let r = Ast::Repeat {
            node: Box::new(Ast::byte(b'a')),
            min: 3,
            max: Some(3),
        };
        assert_eq!(format!("{r:?}"), "a{3}");
        let r = Ast::Repeat {
            node: Box::new(Ast::byte(b'a')),
            min: 2,
            max: None,
        };
        assert_eq!(format!("{r:?}"), "a{2,}");
    }
}
