//! Cost-model parameters (the paper's Table I).

use s4d_storage::{presets, HddConfig, IoKind, SeekProfile, SsdConfig};

/// The parameters of the data-access cost model.
///
/// Construct with [`CostParams::from_hardware`] to derive every value from
/// the same device configurations the simulator runs — the analogue of the
/// paper profiling its own testbed — then optionally adjust with the
/// `with_*` setters (used by the ablation benches).
#[derive(Debug, Clone, PartialEq)]
pub struct CostParams {
    /// `M`: number of HDD file servers.
    pub m: usize,
    /// `N`: number of SSD file servers (`N < M` in the paper's deployments,
    /// though the model does not require it).
    pub n: usize,
    /// `str`: stripe size of both parallel file systems, bytes.
    pub stripe: u64,
    /// `R`: average rotational delay of the HDDs, seconds.
    pub rotation: f64,
    /// `S`: maximum (full-stroke) seek time of the HDDs, seconds.
    pub max_seek: f64,
    /// `β_D`: cost of accessing one byte on a DServer, seconds.
    pub beta_d: f64,
    /// `β_C`: cost of accessing one byte on a CServer, seconds.
    pub beta_c: f64,
    /// `F`: the offline-profiled seek curve of the HDDs.
    pub seek: SeekProfile,
}

impl CostParams {
    /// Derives parameters from device configurations.
    ///
    /// * `R` and `S` come from the HDD's spindle speed and seek curve;
    /// * `β_D` is the HDD's per-byte sequential cost;
    /// * `β_C` is the SSD's per-byte *write* cost — the paper uses a single
    ///   `β_C`, and writes are the cache-admission direction, so this is the
    ///   conservative choice;
    /// * `F` is the HDD's seek curve.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`, `n == 0`, or `stripe == 0`.
    pub fn from_hardware(
        hdd: &HddConfig,
        ssd: &SsdConfig,
        m: usize,
        n: usize,
        stripe: u64,
    ) -> Self {
        assert!(m > 0, "M must be positive");
        assert!(n > 0, "N must be positive");
        assert!(stripe > 0, "stripe must be positive");
        CostParams {
            m,
            n,
            stripe,
            rotation: hdd.avg_rotation_secs(),
            max_seek: hdd.max_seek_secs(),
            beta_d: hdd.beta_secs_per_byte(),
            beta_c: ssd.beta_secs_per_byte(IoKind::Write),
            seek: hdd.seek_profile().clone(),
        }
    }

    /// Parameters of the small functional testbed the crash, scrub and
    /// chaos harnesses run on (2 DServers + 1 CServer of the paper's
    /// hardware, 64 KiB stripes, gigabit link, 300 µs per CServer op
    /// amortised over 16 KiB). The figures are literals on purpose: the
    /// same values derived from a network config differ in the last bit
    /// of `β_C`, and every recorded chaos fingerprint hangs on it.
    pub fn paper_testbed_small() -> Self {
        CostParams::from_hardware(
            &presets::hdd_seagate_st3250(),
            &presets::ssd_ocz_revodrive_x2(),
            2,
            1,
            64 * 1024,
        )
        .with_network_bandwidth(117.0e6)
        .with_cserver_op_overhead(300.0e-6, 16 * 1024)
    }

    /// Folds a network bottleneck into both per-byte costs: transfers
    /// cannot run faster than the link, so `β ← max(β, 1/bandwidth)`.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth` is not positive and finite.
    pub fn with_network_bandwidth(mut self, bandwidth: f64) -> Self {
        assert!(
            bandwidth.is_finite() && bandwidth > 0.0,
            "bandwidth must be positive"
        );
        let beta_net = 1.0 / bandwidth;
        self.beta_d = self.beta_d.max(beta_net);
        self.beta_c = self.beta_c.max(beta_net);
        self
    }

    /// Folds a per-operation overhead (RPC + device latency) into `β_C`,
    /// amortised over a reference request length — the request-level
    /// *effective* per-byte cost an offline profiling of CServer accesses
    /// observes. The paper's model carries a single `β_C` constant, which
    /// only reproduces its own redirection decisions (small requests
    /// benefit, multi-megabyte requests do not) if that constant reflects
    /// request-level cost rather than raw streaming bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if `per_op_secs` is negative/non-finite or
    /// `reference_len == 0`.
    pub fn with_cserver_op_overhead(mut self, per_op_secs: f64, reference_len: u64) -> Self {
        assert!(
            per_op_secs.is_finite() && per_op_secs >= 0.0,
            "per-op overhead must be non-negative"
        );
        assert!(reference_len > 0, "reference length must be positive");
        self.beta_c += per_op_secs / reference_len as f64;
        self
    }

    /// Converts a logical file-level distance to a per-server seek time:
    /// the file is spread over `M` servers, so logical distance `d` moves a
    /// server's head about `d / M` bytes.
    pub fn seek_time_for_logical_distance(&self, d: u64) -> f64 {
        self.seek.seek_secs(d / self.m as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> CostParams {
        CostParams::from_hardware(
            &presets::hdd_seagate_st3250(),
            &presets::ssd_ocz_revodrive_x2(),
            8,
            4,
            64 * 1024,
        )
    }

    #[test]
    fn derivation_matches_devices() {
        let p = params();
        let hdd = presets::hdd_seagate_st3250();
        let ssd = presets::ssd_ocz_revodrive_x2();
        assert_eq!(p.rotation, hdd.avg_rotation_secs());
        assert_eq!(p.max_seek, hdd.max_seek_secs());
        assert_eq!(p.beta_d, hdd.beta_secs_per_byte());
        assert_eq!(p.beta_c, ssd.beta_secs_per_byte(IoKind::Write));
        assert_eq!(p.m, 8);
        assert_eq!(p.n, 4);
    }

    #[test]
    fn network_caps_betas() {
        let p = params().with_network_bandwidth(50.0e6);
        assert!((p.beta_d - 2.0e-8).abs() < 1e-12);
        assert!(p.beta_c >= 2.0e-8);
        // A fast link changes nothing.
        let q = params().with_network_bandwidth(10.0e9);
        assert_eq!(q.beta_d, params().beta_d);
    }

    #[test]
    fn logical_distance_scales_by_m() {
        let p = params();
        let d = 8 * 1024 * 1024 * 1024u64;
        assert_eq!(p.seek_time_for_logical_distance(d), p.seek.seek_secs(d / 8));
        assert_eq!(p.seek_time_for_logical_distance(0), 0.0);
    }

    #[test]
    #[should_panic(expected = "M must be positive")]
    fn rejects_zero_m() {
        CostParams::from_hardware(
            &presets::hdd_seagate_st3250(),
            &presets::ssd_ocz_revodrive_x2(),
            0,
            4,
            64 * 1024,
        );
    }
}
