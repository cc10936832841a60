//! **free-checksum** — a dependency-free CRC32 (IEEE 802.3) for the
//! engine's on-disk formats.
//!
//! Every persisted artifact (index files, corpus stores, segment
//! sequence maps, the live manifest, the tombstone log) protects its
//! bytes with this checksum so `free fsck` can distinguish "torn write
//! or bit flip" from "legitimately old format". The polynomial is the
//! reflected IEEE one (`0xEDB88320`) — the same CRC32 as gzip, PNG, and
//! zlib — so values can be cross-checked with any standard tool:
//!
//! ```text
//! crc32(b"123456789") == 0xCBF43926
//! ```
//!
//! The implementation is braided, as in zlib 1.2.12: a block of
//! four 8-byte words is folded by as many independent CRC registers,
//! one word each, so the lanes' table lookups overlap instead of waiting
//! on one register. Each step reads a word as a little-endian `u64` and
//! takes its bytes by shift through eight 256-entry tables (8 KiB, built
//! at compile time); the last block folds the lanes into one register,
//! and the classic one-table bytewise loop takes the tail and any input
//! shorter than two blocks. The value is bit-identical to the bytewise
//! loop (the tests prove it against a table-free bit-by-bit reference).
//! On a shared 2.1 GHz Xeon it reads one hot 2340-byte buffer (a
//! benchmark page) at 2.0-3.6 GiB/s and 1220 distinct ones at 1.7-2.0,
//! where the slicing-by-16 loop it replaced read 1.4-1.7 and 1.3-1.5.
//! The loop is bound by its table lookups: three and five lanes both
//! measured slower than four. No external crates, no `unsafe`.

/// The reflected IEEE 802.3 polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Independent CRC registers, one 8-byte word each per block (`c0` to
/// `c3` in [`Crc32::update`]).
const LANES: usize = 4;

/// Bytes one braided step folds: one word per lane.
const BLOCK: usize = LANES * 8;

/// The classic bytewise table: `BYTEWISE[b]` is the register after
/// feeding byte `b` into a zero register.
static BYTEWISE: [u32; 256] = bytewise_table();

/// `BRAID[k][b]` is the register after byte `b` at position `k` of a
/// lane's word is followed by the `7 - k` bytes after it in that word
/// and the `8 * (LANES - 1)` bytes of the other lanes' words, as zeros:
/// where the lane's next word starts.
static BRAID: [[u32; 256]; 8] = braid_tables();

const fn bytewise_table() -> [u32; 256] {
    let mut t = [0u32; 256];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[b] = crc;
        b += 1;
    }
    t
}

const fn braid_tables() -> [[u32; 256]; 8] {
    let t0 = bytewise_table();
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        // Byte 7 is followed by the other lanes' words only; each lower
        // byte by one zero byte more than the byte after it.
        let mut crc = t0[b];
        let mut zeros = 0;
        while zeros < 8 * (LANES - 1) {
            crc = (crc >> 8) ^ t0[(crc & 0xFF) as usize];
            zeros += 1;
        }
        let mut k = 8;
        while k > 0 {
            k -= 1;
            t[k][b] = crc;
            crc = (crc >> 8) ^ t0[(crc & 0xFF) as usize];
        }
        b += 1;
    }
    t
}

/// Feeds `bytes` through the bytewise loop.
fn bytewise(mut crc: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        crc = (crc >> 8) ^ BYTEWISE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    crc
}

/// The register after `word` (its bytes in order) is followed by the
/// other lanes' words as zeros.
#[inline(always)]
fn braid(word: u64) -> u32 {
    let mut crc = 0;
    for (k, table) in BRAID.iter().enumerate() {
        crc ^= table[((word >> (8 * k)) & 0xFF) as usize];
    }
    crc
}

/// Word `i` of a block, little-endian.
fn word_at(block: &[u8], i: usize) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(&block[8 * i..8 * i + 8]);
    u64::from_le_bytes(w)
}

/// Incremental CRC32 state, for checksumming streams without buffering
/// them (the index writer feeds postings through this as it spills).
#[derive(Clone, Copy, Debug)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// A fresh hasher (equivalent to having hashed zero bytes).
    pub fn new() -> Crc32 {
        Crc32 { state: !0 }
    }

    /// Feeds `bytes` into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        if bytes.len() < 2 * BLOCK {
            self.state = bytewise(self.state, bytes);
            return;
        }
        let mut blocks = bytes.chunks_exact(BLOCK);
        let tail = blocks.remainder();
        // The running register folds into lane 0's first word; the other
        // lanes start from zero.
        let (mut c0, mut c1, mut c2, mut c3) = (self.state, 0, 0, 0);
        let last = blocks.len() - 1;
        for block in blocks.by_ref().take(last) {
            c0 = braid(word_at(block, 0) ^ u64::from(c0));
            c1 = braid(word_at(block, 1) ^ u64::from(c1));
            c2 = braid(word_at(block, 2) ^ u64::from(c2));
            c3 = braid(word_at(block, 3) ^ u64::from(c3));
        }
        // Every lane's register now stands where its word of the last
        // block starts: fold them into one, word by word.
        let mut crc = 0;
        for (lane, word) in [c0, c1, c2, c3]
            .into_iter()
            .zip(blocks.flat_map(|b| b.chunks_exact(8)))
        {
            crc = bytewise(crc ^ lane, word);
        }
        self.state = bytewise(crc, tail);
    }

    /// The checksum of everything fed so far. Non-destructive: more
    /// bytes may still be fed afterwards.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Crc32 {
        Crc32::new()
    }
}

/// One-shot CRC32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The CRC computed one bit at a time from the polynomial, with no
    /// table: the reference the braided loop is proven equal to.
    fn bitwise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 == 1 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    /// A shared buffer with no period a block could hide in.
    fn buffer(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9u32;
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (x >> 24) as u8
            })
            .collect()
    }

    /// A CRC fed `whole` in the pieces `splits` cuts it into.
    fn pieces(whole: &[u8], splits: &[usize]) -> u32 {
        let mut c = Crc32::new();
        let mut from = 0;
        for &at in splits.iter().chain([&whole.len()]) {
            c.update(&whole[from..at]);
            from = at;
        }
        c.finish()
    }

    #[test]
    fn braided_equals_bitwise_at_every_length_and_offset() {
        let buf = buffer(16 + 300);
        for start in 0..16 {
            for len in 0..=300 {
                let piece = &buf[start..start + len];
                assert_eq!(crc32(piece), bitwise(piece), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn braided_equals_bitwise_at_every_split() {
        // Three blocks and a tail: pieces on both sides of the two-block
        // threshold, cut inside and at block boundaries.
        let whole = buffer(3 * BLOCK + 7);
        let want = bitwise(&whole);
        for a in 0..=whole.len() {
            assert_eq!(pieces(&whole, &[a]), want, "split {a}");
            for b in a..=whole.len() {
                assert_eq!(pieces(&whole, &[a, b]), want, "splits {a},{b}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random inputs up to 8 KiB, fed whole and in random pieces.
        #[test]
        fn braided_equals_bitwise_on_random_pieces(
            bytes in prop::collection::vec(any::<u8>(), 0..8192),
            cuts in prop::collection::vec(any::<u16>(), 0..6),
        ) {
            let want = bitwise(&bytes);
            prop_assert_eq!(crc32(&bytes), want);
            let mut splits: Vec<usize> =
                cuts.iter().map(|&c| usize::from(c) % (bytes.len() + 1)).collect();
            splits.sort_unstable();
            prop_assert_eq!(pieces(&bytes, &splits), want);
        }
    }

    #[test]
    fn known_vectors() {
        // The canonical CRC32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        // Long enough to take the braided loop.
        assert_eq!(crc32(&[0u8; 4096]), bitwise(&[0u8; 4096]));
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data = b"split across several update calls";
        let mut c = Crc32::new();
        c.update(&data[..7]);
        c.update(&data[7..20]);
        c.update(&data[20..]);
        assert_eq!(c.finish(), crc32(data));
        // finish() is non-destructive.
        assert_eq!(c.finish(), crc32(data));
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = b"some persisted record";
        let clean = crc32(data);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut corrupt = data.to_vec();
                corrupt[i] ^= 1 << bit;
                assert_ne!(crc32(&corrupt), clean, "flip at byte {i} bit {bit}");
            }
        }
    }
}
