//! Mechanical hard-drive service-time model.

use s4d_sim::{SimDuration, SimRng};

use crate::device::{DeviceKind, DeviceModel, IoKind};
use crate::seek::SeekProfile;

/// Configuration of a mechanical hard drive.
///
/// Build one with [`HddConfig::new`] and the `with_*` setters, or start from
/// a preset in [`crate::presets`].
#[derive(Debug, Clone, PartialEq)]
pub struct HddConfig {
    /// Spindle speed, revolutions per minute.
    rpm: u32,
    /// Sequential transfer rate, bytes per second (same for reads/writes).
    transfer_rate: f64,
    /// Usable capacity in bytes.
    capacity: u64,
    /// The fitted seek curve.
    seek: SeekProfile,
    /// Forward distance (bytes) within which an access still counts as a
    /// continuation of an active stream: it is absorbed by readahead, the
    /// track buffer, or write-back merging instead of paying a mechanical
    /// seek plus rotational delay.
    stream_window: u64,
    /// How many concurrent sequential streams the drive (plus the server's
    /// page cache) can keep warm. A parallel file server multiplexes many
    /// client processes onto one disk; each gets its own readahead context
    /// up to this bound.
    max_streams: usize,
}

impl HddConfig {
    /// Creates a configuration with the given mechanics.
    ///
    /// Defaults: a 1 MiB stream window and 64 concurrent streams; tune with
    /// [`HddConfig::with_stream_window`] / [`HddConfig::with_max_streams`].
    ///
    /// # Panics
    ///
    /// Panics if `rpm == 0`, `transfer_rate` is not positive and finite, or
    /// `capacity == 0`.
    pub fn new(rpm: u32, transfer_rate: f64, capacity: u64, seek: SeekProfile) -> Self {
        assert!(rpm > 0, "rpm must be positive");
        assert!(
            transfer_rate.is_finite() && transfer_rate > 0.0,
            "transfer_rate must be positive"
        );
        assert!(capacity > 0, "capacity must be positive");
        HddConfig {
            rpm,
            transfer_rate,
            capacity,
            seek,
            stream_window: 1024 * 1024,
            max_streams: 64,
        }
    }

    /// Sets the streaming window (see [`HddConfig`]).
    pub fn with_stream_window(mut self, bytes: u64) -> Self {
        self.stream_window = bytes;
        self
    }

    /// Sets the number of concurrently tracked streams.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn with_max_streams(mut self, n: usize) -> Self {
        assert!(n > 0, "max_streams must be positive");
        self.max_streams = n;
        self
    }

    /// Full-rotation period in seconds.
    pub fn rotation_secs(&self) -> f64 {
        60.0 / self.rpm as f64
    }

    /// Average rotational delay in seconds — the paper's parameter `R`.
    pub fn avg_rotation_secs(&self) -> f64 {
        self.rotation_secs() / 2.0
    }

    /// Full-stroke seek time in seconds — the paper's parameter `S`.
    pub fn max_seek_secs(&self) -> f64 {
        self.seek.max_seek_secs()
    }

    /// Cost of transferring one byte, in seconds — the paper's `β_D`.
    pub fn beta_secs_per_byte(&self) -> f64 {
        1.0 / self.transfer_rate
    }

    /// Sequential transfer rate, bytes per second.
    pub fn transfer_rate(&self) -> f64 {
        self.transfer_rate
    }

    /// Usable capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// The seek curve.
    pub fn seek_profile(&self) -> &SeekProfile {
        &self.seek
    }

    /// Finishes configuration, producing a model with the head parked at 0.
    pub fn build(self) -> HddModel {
        HddModel {
            head: 0,
            stream_ends: Vec::with_capacity(self.max_streams),
            stream_used: Vec::with_capacity(self.max_streams),
            config: self,
            clock: 0,
            ops: 0,
            seeks: 0,
        }
    }
}

/// A stateful hard-drive model.
///
/// The model remembers the physical head position *and* a bounded set of
/// active sequential streams (readahead / write-merge contexts). An access
/// continuing a tracked stream within the configured window costs transfer
/// time only; any other access pays `F(distance)` seek plus a uniformly
/// random rotational delay, then starts a new stream.
///
/// This multi-stream structure is what lets a simulated file server exhibit
/// the behaviour the paper's Figure 1 measures: many processes each reading
/// sequentially stay fast, while random access collapses to positioning-
/// dominated latency.
#[derive(Debug, Clone)]
pub struct HddModel {
    config: HddConfig,
    head: u64,
    /// The active streams, one index per stream across both vectors:
    /// where each ended, and the clock of its last use. Parallel arrays,
    /// so the continuation scan and the LRU scan each walk one dense
    /// `u64` slice.
    stream_ends: Vec<u64>,
    stream_used: Vec<u64>,
    clock: u64,
    ops: u64,
    seeks: u64,
}

impl HddModel {
    /// Current physical head byte address.
    pub fn head(&self) -> u64 {
        self.head
    }

    /// Total operations serviced.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Operations that required a mechanical seek.
    pub fn seeks(&self) -> u64 {
        self.seeks
    }

    /// The configuration this model was built from.
    pub fn config(&self) -> &HddConfig {
        &self.config
    }

    /// The first stream that `lba` continues: it starts at or after the
    /// stream's end, within the window. The test is branch-free, so the
    /// scan is a straight walk.
    fn find_stream(&self, lba: u64) -> Option<usize> {
        let window = self.config.stream_window;
        self.stream_ends
            .iter()
            .position(|&end| (lba >= end) & (lba.wrapping_sub(end) <= window))
    }

    /// The least recently used stream (clocks are unique per op).
    fn lru_stream(&self) -> Option<usize> {
        self.stream_used
            .iter()
            .enumerate()
            .min_by_key(|&(_, &used)| used)
            .map(|(i, _)| i)
    }
}

impl DeviceModel for HddModel {
    fn kind(&self) -> DeviceKind {
        DeviceKind::Hdd
    }

    fn service_time(&mut self, _kind: IoKind, lba: u64, len: u64, rng: &mut SimRng) -> SimDuration {
        self.ops += 1;
        self.clock += 1;
        let clock = self.clock;
        let positioning = match self.find_stream(lba) {
            Some(i) => {
                if let (Some(end), Some(used)) =
                    (self.stream_ends.get_mut(i), self.stream_used.get_mut(i))
                {
                    *end = lba.saturating_add(len);
                    *used = clock;
                }
                0.0
            }
            None => {
                self.seeks += 1;
                let distance = lba.abs_diff(self.head);
                let seek = self.config.seek.seek_secs(distance);
                let rotation = rng.f64() * self.config.rotation_secs();
                if self.stream_ends.len() == self.config.max_streams {
                    // Evict the least-recently-used stream context.
                    if let Some(lru) = self.lru_stream() {
                        self.stream_ends.swap_remove(lru);
                        self.stream_used.swap_remove(lru);
                    }
                }
                self.stream_ends.push(lba.saturating_add(len));
                self.stream_used.push(clock);
                seek + rotation
            }
        };
        let transfer = len as f64 * self.config.beta_secs_per_byte();
        self.head = lba.saturating_add(len);
        SimDuration::from_secs_f64(positioning + transfer)
    }

    fn transfer_rate(&self, _kind: IoKind) -> f64 {
        self.config.transfer_rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    const KIB: u64 = 1024;
    const GIB: u64 = 1024 * 1024 * 1024;

    fn model() -> HddModel {
        presets::hdd_seagate_st3250().build()
    }

    #[test]
    fn paper_parameters_are_sane() {
        let c = presets::hdd_seagate_st3250();
        // 7200 rpm: full rotation 8.33 ms, average delay 4.17 ms.
        assert!((c.rotation_secs() - 8.333e-3).abs() < 1e-4);
        assert!((c.avg_rotation_secs() - 4.167e-3).abs() < 1e-4);
        assert!(c.max_seek_secs() > 5e-3 && c.max_seek_secs() < 20e-3);
        // ~100 MB/s era drive: β_D near 10 ns/byte.
        let beta = c.beta_secs_per_byte();
        assert!(beta > 5e-9 && beta < 20e-9, "beta_D = {beta}");
    }

    #[test]
    fn sequential_run_streams_after_first_positioning() {
        let mut m = model();
        let mut rng = SimRng::seed(1);
        let first = m.service_time(IoKind::Write, 10 * GIB, 64 * KIB, &mut rng);
        let mut rest = SimDuration::ZERO;
        for i in 1..10u64 {
            rest += m.service_time(IoKind::Write, 10 * GIB + i * 64 * KIB, 64 * KIB, &mut rng);
        }
        // The 9 continuations together should cost less than the first op's
        // positioning-dominated time at this small request size.
        assert!(rest < first * 9, "first={first} rest={rest}");
        assert_eq!(m.seeks(), 1);
        assert_eq!(m.ops(), 10);
    }

    #[test]
    fn interleaved_streams_all_stay_warm() {
        // 32 processes each appending to their own region, interleaved:
        // after the first round every access is a continuation.
        let mut m = model();
        let mut rng = SimRng::seed(7);
        for round in 0..5u64 {
            for p in 0..32u64 {
                m.service_time(
                    IoKind::Write,
                    p * GIB + round * 16 * KIB,
                    16 * KIB,
                    &mut rng,
                );
            }
        }
        assert_eq!(m.seeks(), 32, "only the first round should seek");
        assert_eq!(m.stream_ends.len(), 32);
    }

    #[test]
    fn stream_capacity_evicts_lru() {
        let c = presets::hdd_seagate_st3250().with_max_streams(4);
        let mut m = c.build();
        let mut rng = SimRng::seed(8);
        for p in 0..5u64 {
            m.service_time(IoKind::Write, p * GIB, 4 * KIB, &mut rng);
        }
        assert_eq!(m.stream_ends.len(), 4);
        // Stream 0 was evicted: continuing it seeks again.
        let seeks_before = m.seeks();
        m.service_time(IoKind::Write, 4 * KIB, 4 * KIB, &mut rng);
        assert_eq!(m.seeks(), seeks_before + 1);
        // Stream 4 is still warm.
        let seeks_before = m.seeks();
        m.service_time(IoKind::Write, 4 * GIB + 4 * KIB, 4 * KIB, &mut rng);
        assert_eq!(m.seeks(), seeks_before, "warm stream must not seek");
    }

    #[test]
    fn random_access_pays_positioning_every_time() {
        let mut m = model();
        let mut rng = SimRng::seed(2);
        let mut total = SimDuration::ZERO;
        for i in 0..100u64 {
            let lba = (i * 7_919 % 97) * (2 * GIB);
            total += m.service_time(IoKind::Read, lba, 4 * KIB, &mut rng);
        }
        let avg = total / 100;
        // Average random 4 KiB access on a 7200 rpm disk: several ms.
        assert!(
            avg > SimDuration::from_millis(3),
            "avg random latency {avg} too low"
        );
        assert!(m.seeks() >= 95);
    }

    #[test]
    fn backward_access_is_not_a_continuation() {
        let mut m = model();
        let mut rng = SimRng::seed(9);
        m.service_time(IoKind::Read, 10 * GIB, 64 * KIB, &mut rng);
        // Re-reading the same spot moves backwards relative to the stream end.
        m.service_time(IoKind::Read, 10 * GIB, 64 * KIB, &mut rng);
        assert_eq!(m.seeks(), 2);
    }

    #[test]
    fn stream_window_tolerates_small_gaps() {
        let c = presets::hdd_seagate_st3250().with_stream_window(64 * KIB);
        let mut m = c.build();
        let mut rng = SimRng::seed(4);
        m.service_time(IoKind::Read, 0, 4 * KIB, &mut rng);
        // 10 KiB hole: within the window, still streaming.
        m.service_time(IoKind::Read, 14 * KIB, 4 * KIB, &mut rng);
        assert_eq!(m.seeks(), 1, "gap within stream window must not seek again");
        m.service_time(IoKind::Read, 10 * GIB, 4 * KIB, &mut rng);
        assert_eq!(m.seeks(), 2);
    }

    #[test]
    fn transfer_dominates_for_large_requests() {
        let mut m = model();
        let mut rng = SimRng::seed(5);
        let t = m.service_time(IoKind::Read, 100 * GIB, 32 * 1024 * KIB, &mut rng);
        let transfer_only =
            SimDuration::from_secs_f64(32.0 * 1024.0 * 1024.0 * m.config().beta_secs_per_byte());
        // Positioning adds at most ~20 ms on top of a ~320 ms transfer.
        assert!(t >= transfer_only);
        assert!(t < transfer_only + SimDuration::from_millis(20));
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut m = model();
            let mut rng = SimRng::seed(42);
            (0..50u64)
                .map(|i| m.service_time(IoKind::Read, i * 997 * KIB * KIB, 8 * KIB, &mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "rpm must be positive")]
    fn rejects_zero_rpm() {
        HddConfig::new(
            0,
            1e8,
            GIB,
            presets::hdd_seagate_st3250().seek_profile().clone(),
        );
    }
}
