//! Byte classes: sets of bytes represented as a 256-bit bitmap.
//!
//! The FREE paper's regex syntax (Table 1) includes `[...]`, `[^...]` and the
//! shorthands `\a` (alphabetic) and `\d` (numeric). We also provide the
//! conventional `\s` (whitespace) and `\w` (word) classes. All matching in
//! this crate is over raw bytes, so a class is simply a subset of `0..=255`.

use core::fmt;

/// A set of bytes, stored as a 256-bit bitmap.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct ByteClass {
    bits: [u64; 4],
}

impl ByteClass {
    /// The empty class (matches nothing).
    pub const EMPTY: ByteClass = ByteClass { bits: [0; 4] };

    /// The full class (matches any byte).
    pub const ANY: ByteClass = ByteClass {
        bits: [u64::MAX; 4],
    };

    /// Creates an empty class.
    #[inline]
    pub fn new() -> ByteClass {
        ByteClass::EMPTY
    }

    /// A class containing exactly one byte.
    #[inline]
    pub fn singleton(b: u8) -> ByteClass {
        let mut c = ByteClass::new();
        c.insert(b);
        c
    }

    /// A class containing every byte in the inclusive range `start..=end`.
    pub fn range(start: u8, end: u8) -> ByteClass {
        let mut c = ByteClass::new();
        c.insert_range(start, end);
        c
    }

    /// The `\a` shorthand from the paper: any ASCII alphabetic byte.
    pub fn alpha() -> ByteClass {
        let mut c = ByteClass::range(b'a', b'z');
        c.insert_range(b'A', b'Z');
        c
    }

    /// The `\d` shorthand: any ASCII digit.
    pub fn digit() -> ByteClass {
        ByteClass::range(b'0', b'9')
    }

    /// The `\s` shorthand: ASCII whitespace (space, tab, CR, LF, VT, FF).
    pub fn space() -> ByteClass {
        let mut c = ByteClass::singleton(b' ');
        c.insert(b'\t');
        c.insert(b'\r');
        c.insert(b'\n');
        c.insert(0x0b);
        c.insert(0x0c);
        c
    }

    /// The `\w` shorthand: alphanumeric plus underscore.
    pub fn word() -> ByteClass {
        let mut c = ByteClass::alpha();
        c = c.union(&ByteClass::digit());
        c.insert(b'_');
        c
    }

    /// The class used for `.`: any byte. The paper defines `.` as "any
    /// character"; FREE's data units are whole pages, so unlike line-oriented
    /// tools we do not exclude `\n`.
    pub fn dot() -> ByteClass {
        ByteClass::ANY
    }

    /// Adds a byte to the class.
    #[inline]
    pub fn insert(&mut self, b: u8) {
        self.bits[(b >> 6) as usize] |= 1u64 << (b & 63);
    }

    /// Adds the inclusive byte range `start..=end` to the class.
    pub fn insert_range(&mut self, start: u8, end: u8) {
        debug_assert!(start <= end);
        for b in start..=end {
            self.insert(b);
        }
    }

    /// Whether the class contains `b`.
    #[inline]
    pub fn contains(&self, b: u8) -> bool {
        self.bits[(b >> 6) as usize] & (1u64 << (b & 63)) != 0
    }

    /// The bitmap's four words: bit `b & 63` of word `b >> 6` is byte `b`.
    #[inline]
    pub(crate) fn words(&self) -> &[u64; 4] {
        &self.bits
    }

    /// The number of bytes in the class.
    pub fn len(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the class is empty.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    /// The complement of the class (all bytes not in it).
    pub fn negate(&self) -> ByteClass {
        ByteClass {
            bits: [!self.bits[0], !self.bits[1], !self.bits[2], !self.bits[3]],
        }
    }

    /// Union of two classes.
    pub fn union(&self, other: &ByteClass) -> ByteClass {
        ByteClass {
            bits: [
                self.bits[0] | other.bits[0],
                self.bits[1] | other.bits[1],
                self.bits[2] | other.bits[2],
                self.bits[3] | other.bits[3],
            ],
        }
    }

    /// Intersection of two classes.
    pub fn intersect(&self, other: &ByteClass) -> ByteClass {
        ByteClass {
            bits: [
                self.bits[0] & other.bits[0],
                self.bits[1] & other.bits[1],
                self.bits[2] & other.bits[2],
                self.bits[3] & other.bits[3],
            ],
        }
    }

    /// Extends the class with, for every ASCII letter present, the letter of
    /// the opposite case. Used for case-insensitive compilation.
    pub fn case_fold(&self) -> ByteClass {
        let mut out = *self;
        for b in b'a'..=b'z' {
            if self.contains(b) {
                out.insert(b - 32);
            }
        }
        for b in b'A'..=b'Z' {
            if self.contains(b) {
                out.insert(b + 32);
            }
        }
        out
    }

    /// Iterates over the bytes in the class in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u8> + '_ {
        (0u16..256).filter_map(move |b| {
            let b = b as u8;
            if self.contains(b) {
                Some(b)
            } else {
                None
            }
        })
    }

    /// If the class contains exactly one byte, returns it.
    pub fn as_singleton(&self) -> Option<u8> {
        if self.len() == 1 {
            self.iter().next()
        } else {
            None
        }
    }

    /// The maximal runs of consecutive bytes in the class, as inclusive
    /// `(start, end)` pairs. Useful for display.
    pub fn ranges(&self) -> Vec<(u8, u8)> {
        let mut out = Vec::new();
        let mut run: Option<(u8, u8)> = None;
        for b in self.iter() {
            match run {
                Some((s, e)) if e + 1 == b => run = Some((s, b)),
                Some(r) => {
                    out.push(r);
                    run = Some((b, b));
                }
                None => run = Some((b, b)),
            }
        }
        if let Some(r) = run {
            out.push(r);
        }
        out
    }
}

impl Default for ByteClass {
    fn default() -> Self {
        ByteClass::new()
    }
}

impl fmt::Debug for ByteClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == ByteClass::ANY {
            return write!(f, ".");
        }
        write!(f, "[")?;
        for (s, e) in self.ranges() {
            if s == e {
                write!(f, "{}", display_byte(s))?;
            } else {
                write!(f, "{}-{}", display_byte(s), display_byte(e))?;
            }
        }
        write!(f, "]")
    }
}

/// Renders a byte for human consumption: printable ASCII as-is, everything
/// else as a `\xNN` escape.
pub fn display_byte(b: u8) -> String {
    if (0x20..0x7f).contains(&b) {
        (b as char).to_string()
    } else {
        format!("\\x{b:02x}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singleton_and_contains() {
        let c = ByteClass::singleton(b'x');
        assert!(c.contains(b'x'));
        assert!(!c.contains(b'y'));
        assert_eq!(c.len(), 1);
        assert_eq!(c.as_singleton(), Some(b'x'));
    }

    #[test]
    fn range_covers_inclusive_bounds() {
        let c = ByteClass::range(b'a', b'c');
        assert!(c.contains(b'a'));
        assert!(c.contains(b'b'));
        assert!(c.contains(b'c'));
        assert!(!c.contains(b'd'));
        assert_eq!(c.len(), 3);
        assert_eq!(c.as_singleton(), None);
    }

    #[test]
    fn negate_roundtrip() {
        let c = ByteClass::range(b'0', b'9');
        let n = c.negate();
        assert!(!n.contains(b'5'));
        assert!(n.contains(b'a'));
        assert_eq!(n.len(), 256 - 10);
        assert_eq!(n.negate(), c);
    }

    #[test]
    fn union_and_intersect() {
        let a = ByteClass::range(b'a', b'f');
        let b = ByteClass::range(b'd', b'k');
        let u = a.union(&b);
        let i = a.intersect(&b);
        assert_eq!(u.len(), (b'k' - b'a' + 1) as usize);
        assert_eq!(i.len(), 3); // d, e, f
        assert!(i.contains(b'e'));
        assert!(!i.contains(b'g'));
    }

    #[test]
    fn shorthand_classes() {
        assert_eq!(ByteClass::digit().len(), 10);
        assert_eq!(ByteClass::alpha().len(), 52);
        assert_eq!(ByteClass::word().len(), 63);
        assert!(ByteClass::space().contains(b' '));
        assert!(ByteClass::space().contains(b'\n'));
        assert!(!ByteClass::space().contains(b'x'));
        assert_eq!(ByteClass::dot().len(), 256);
    }

    #[test]
    fn full_and_empty() {
        assert!(ByteClass::EMPTY.is_empty());
        assert_eq!(ByteClass::ANY.len(), 256);
        assert!(ByteClass::ANY.contains(0));
        assert!(ByteClass::ANY.contains(255));
    }

    #[test]
    fn edge_bytes_0_and_255() {
        let mut c = ByteClass::new();
        c.insert(0);
        c.insert(255);
        assert!(c.contains(0));
        assert!(c.contains(255));
        assert_eq!(c.len(), 2);
        assert_eq!(c.ranges(), vec![(0, 0), (255, 255)]);
    }

    #[test]
    fn case_fold() {
        let c = ByteClass::range(b'a', b'c').case_fold();
        assert!(c.contains(b'A'));
        assert!(c.contains(b'b'));
        assert!(c.contains(b'C'));
        assert_eq!(c.len(), 6);
        // Non-letters are unaffected.
        let d = ByteClass::digit().case_fold();
        assert_eq!(d, ByteClass::digit());
    }

    #[test]
    fn iter_is_sorted() {
        let c = ByteClass::range(b'p', b's');
        let v: Vec<u8> = c.iter().collect();
        assert_eq!(v, vec![b'p', b'q', b'r', b's']);
    }

    #[test]
    fn ranges_coalesce() {
        let mut c = ByteClass::range(b'a', b'c');
        c.insert_range(b'e', b'g');
        assert_eq!(c.ranges(), vec![(b'a', b'c'), (b'e', b'g')]);
    }

    #[test]
    fn debug_rendering() {
        let c = ByteClass::range(b'a', b'c');
        assert_eq!(format!("{c:?}"), "[a-c]");
        let s = ByteClass::singleton(b'\n');
        assert_eq!(format!("{s:?}"), "[\\x0a]");
        assert_eq!(format!("{:?}", ByteClass::ANY), ".");
    }
}
