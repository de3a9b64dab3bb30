//! CRC32 (IEEE 802.3, reflected) — the checksum of every journal frame,
//! checkpoint and extent seal.
//!
//! Slicing-by-8: the main loop folds eight input bytes per step through
//! eight independent table lookups, where the bytewise loop chains one
//! dependent lookup per byte. The checksum is bit-identical to the
//! bytewise loop (the tests below hold the two to every length and
//! alignment), so journals and checkpoints written before and after
//! decode alike.

/// `TABLES[0]` is the classic bytewise table; `TABLES[k][i]` is the CRC
/// contribution of byte `i` followed by `k` zero bytes, so one step can
/// fold byte `j` of an eight-byte word through `TABLES[7 - j]`.
#[expect(clippy::indexing_slicing, reason = "const-evaluated at build time")]
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// `table`'s entry for the low byte of `x`.
#[inline(always)]
fn at(table: &[u32; 256], x: u32) -> u32 {
    // Masked to 0xFF, always < the 256-entry table.
    table.get((x & 0xFF) as usize).copied().unwrap_or(0)
}

/// CRC32 (IEEE) of `bytes`, as used for journal record framing.
pub fn crc32(bytes: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &TABLES;
    let (words, tail) = bytes.as_chunks::<8>();
    let mut crc = 0xFFFF_FFFFu32;
    for word in words {
        let w = u64::from_le_bytes(*word) ^ u64::from(crc);
        let (lo, hi) = (w as u32, (w >> 32) as u32);
        crc = at(t7, lo)
            ^ at(t6, lo >> 8)
            ^ at(t5, lo >> 16)
            ^ at(t4, lo >> 24)
            ^ at(t3, hi)
            ^ at(t2, hi >> 8)
            ^ at(t1, hi >> 16)
            ^ at(t0, hi >> 24);
    }
    for &b in tail {
        crc = (crc >> 8) ^ at(t0, crc ^ u32::from(b));
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bytewise loop slicing-by-8 replaced.
    fn bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        !crc
    }

    /// Deterministic pseudo-random bytes (xorshift64).
    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    #[test]
    fn standard_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn slicing_by_8_matches_bytewise_at_every_length_and_alignment() {
        let buf = noise(64 + 8);
        for start in 0..8 {
            for len in 0..=64 {
                let bytes = &buf[start..start + len];
                assert_eq!(crc32(bytes), bytewise(bytes), "start {start}, len {len}");
            }
        }
        let big = noise(1 << 20);
        assert_eq!(crc32(&big), bytewise(&big));
    }
}
