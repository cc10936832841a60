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
//! The implementation is slicing-by-8 (Kounavis & Berry, 2008): eight
//! 256-entry tables generated at first use let the main loop fold eight
//! input bytes per step with independent lookups, about four times the
//! throughput of the one-table bytewise loop and bit-identical to it
//! (the bytewise loop survives as the test-only reference the sliced
//! one is proven equal to). No external crates, no `unsafe`.

use std::sync::OnceLock;

/// The reflected IEEE 802.3 polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `tables()[0]` is the classic bytewise table; `tables()[k][i]` is the
/// CRC of byte `i` followed by `k` zero bytes, which is what lets eight
/// bytes be folded in one step.
fn tables() -> &'static [[u32; 256]; 8] {
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, slot) in t[0].iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 == 1 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
            *slot = crc;
        }
        for k in 1..8 {
            for i in 0..256 {
                let prev = t[k - 1][i];
                t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            }
        }
        t
    })
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
        let t = tables();
        let mut crc = self.state;
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][usize::from(w[4])]
                ^ t[2][usize::from(w[5])]
                ^ t[1][usize::from(w[6])]
                ^ t[0][usize::from(w[7])];
        }
        for &b in words.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        self.state = crc;
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

    /// The one-table bytewise loop the sliced implementation replaced,
    /// kept only as the reference it is proven equal to.
    fn bytewise(bytes: &[u8]) -> u32 {
        let t = &tables()[0];
        let mut crc = !0u32;
        for &b in bytes {
            crc = (crc >> 8) ^ t[((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        !crc
    }

    /// A shared buffer with no period the slicing width could hide in.
    fn buffer() -> Vec<u8> {
        let mut x = 0x9E37_79B9u32;
        (0..96)
            .map(|_| {
                x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn sliced_equals_bytewise_at_every_length_and_offset() {
        let buf = buffer();
        for start in 0..8 {
            for len in 0..=64 {
                let piece = &buf[start..start + len];
                assert_eq!(crc32(piece), bytewise(piece), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn sliced_equals_bytewise_at_every_split_point() {
        let buf = buffer();
        let whole = &buf[3..3 + 64];
        let want = bytewise(whole);
        for split in 0..=whole.len() {
            let mut c = Crc32::new();
            c.update(&whole[..split]);
            c.update(&whole[split..]);
            assert_eq!(c.finish(), want, "split {split}");
        }
        // Three-way splits cover a middle piece shorter than one word.
        for a in 0..=16 {
            for b in a..=24 {
                let mut c = Crc32::new();
                c.update(&whole[..a]);
                c.update(&whole[a..b]);
                c.update(&whole[b..]);
                assert_eq!(c.finish(), want, "splits {a},{b}");
            }
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
