//! The seeded media-error map.
//!
//! A device's bad sectors are a pure function of `(seed, sector)`, so the
//! same seed always corrupts the same ranges. The map lives with the
//! device models because it is keyed by device LBA; `s4d-pfs` turns a hit
//! into a failed sub-request (`ServerFault::MediaErrors`), and every
//! other fault — degradation, stalls, crashes, space exhaustion — is
//! scripted there too, on the simulation clock (`FaultPlan`).

use s4d_sim::splitmix64;

/// Granularity of the seeded media-error map: device LBAs are grouped
/// into 4 KiB sectors and each sector is independently (but
/// deterministically) marked bad or good by [`sector_is_bad`].
pub const MEDIA_SECTOR_BYTES: u64 = 4096;

/// True if sector number `sector` is bad under `(seed, bad_ppm)`: each
/// sector draws a deterministic hash — purely arithmetic, so the same
/// seed gives the same bad sectors across runs and platforms — and is
/// bad with probability `bad_ppm` parts per million. `bad_ppm == 0`
/// marks nothing bad; `bad_ppm >= 1_000_000` marks everything bad.
pub fn sector_is_bad(seed: u64, sector: u64, bad_ppm: u32) -> bool {
    if bad_ppm == 0 {
        return false;
    }
    let h = splitmix64(seed ^ splitmix64(sector));
    (h % 1_000_000) < u64::from(bad_ppm)
}

/// True if any [`MEDIA_SECTOR_BYTES`]-aligned sector overlapping the
/// device range `[lba, lba + len)` is bad under `(seed, bad_ppm)`.
/// Zero-length ranges touch no sector.
pub fn range_has_bad_sector(seed: u64, bad_ppm: u32, lba: u64, len: u64) -> bool {
    if len == 0 || bad_ppm == 0 {
        return false;
    }
    let first = lba / MEDIA_SECTOR_BYTES;
    let last = (lba + len - 1) / MEDIA_SECTOR_BYTES;
    (first..=last).any(|sector| sector_is_bad(seed, sector, bad_ppm))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn media_map_is_deterministic_and_rate_shaped() {
        // Same (seed, sector, ppm) always agrees with itself.
        for sector in 0..256u64 {
            assert_eq!(
                sector_is_bad(42, sector, 5000),
                sector_is_bad(42, sector, 5000)
            );
        }
        // Extremes.
        assert!(!sector_is_bad(1, 7, 0));
        assert!(sector_is_bad(1, 7, 1_000_000));
        // Roughly ppm-shaped: at 100_000 ppm (10%) out of 10_000 sectors,
        // expect a few hundred to ~2000 bad, never zero or all.
        let bad = (0..10_000u64)
            .filter(|&s| sector_is_bad(9, s, 100_000))
            .count();
        assert!(bad > 200 && bad < 2_500, "bad sector count {bad}");
    }

    #[test]
    fn range_check_covers_partial_sectors() {
        // Find a bad and an adjacent good sector for a fixed seed.
        let seed = 3u64;
        let ppm = 50_000u32;
        let bad = (0..100_000u64)
            .find(|&s| sector_is_bad(seed, s, ppm) && !sector_is_bad(seed, s + 1, ppm))
            .expect("some bad sector followed by a good one");
        let lba = bad * MEDIA_SECTOR_BYTES;
        // A one-byte touch of the bad sector trips the range.
        assert!(range_has_bad_sector(seed, ppm, lba, 1));
        assert!(range_has_bad_sector(
            seed,
            ppm,
            lba + MEDIA_SECTOR_BYTES - 1,
            1
        ));
        // The good neighbor alone does not.
        assert!(!range_has_bad_sector(
            seed,
            ppm,
            lba + MEDIA_SECTOR_BYTES,
            MEDIA_SECTOR_BYTES
        ));
        // A range spanning both trips.
        assert!(range_has_bad_sector(
            seed,
            ppm,
            lba + MEDIA_SECTOR_BYTES - 1,
            2
        ));
        // Zero length and zero ppm never trip.
        assert!(!range_has_bad_sector(seed, ppm, lba, 0));
        assert!(!range_has_bad_sector(seed, 0, lba, MEDIA_SECTOR_BYTES));
    }
}
