//! Per-stream benefit evaluation (the Data Identifier's arithmetic).

use std::collections::HashMap;
use std::hash::Hash;

use crate::model::{t_cservers, t_dservers};
use crate::params::CostParams;

/// The outcome of evaluating one request against the cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Benefit {
    /// Predicted DServer access time, seconds (Eq. 1).
    pub t_d_secs: f64,
    /// Predicted CServer access time, seconds (Eq. 7).
    pub t_c_secs: f64,
    /// `B = T_D − T_C` (Eq. 8); positive means the request is
    /// performance-critical.
    pub benefit_secs: f64,
    /// The logical distance `d` used for the seek estimate.
    pub distance: u64,
}

impl Benefit {
    /// True if the paper would classify the request as performance-critical
    /// (`B > 0`, §III.C).
    pub fn is_critical(&self) -> bool {
        self.benefit_secs > 0.0
    }
}

/// Evaluates request benefits while tracking, per stream key, the end
/// offset of the previous request — the source of the paper's logical
/// distance `d` (Table I).
///
/// The key is whatever identifies an I/O stream to the middleware; S4D-Cache
/// runs at the MPI-IO layer and keys by *(process rank, file)*, since that
/// is the granularity at which access patterns are coherent.
///
/// A stream's very first request has no predecessor; the evaluator
/// conservatively assumes a full-stroke distance (an unknown position is a
/// random position).
#[derive(Debug, Clone)]
pub struct BenefitEvaluator<K> {
    params: CostParams,
    last_end: HashMap<K, u64>,
}

impl<K: Eq + Hash + Clone> BenefitEvaluator<K> {
    /// Creates an evaluator using the paper's Table II closed form.
    pub fn new(params: CostParams) -> Self {
        BenefitEvaluator {
            params,
            last_end: HashMap::new(),
        }
    }

    /// The model parameters in use.
    pub fn params(&self) -> &CostParams {
        &self.params
    }

    /// Evaluates the benefit of a request at `offset` of `len` bytes on
    /// stream `key`, updating the stream's position.
    pub fn evaluate(&mut self, key: K, offset: u64, len: u64) -> Benefit {
        let distance = match self.last_end.get(&key) {
            Some(&end) => end.abs_diff(offset),
            // Unknown position: assume worst-case (full-stroke) distance.
            None => u64::MAX,
        };
        self.last_end.insert(key, offset + len);
        self.evaluate_at_distance(distance, offset, len)
    }

    /// Evaluates without touching stream state (used by tests and the
    /// overhead probe).
    pub fn evaluate_at_distance(&self, distance: u64, offset: u64, len: u64) -> Benefit {
        let t_d = t_dservers(&self.params, distance, offset, len);
        let t_c = t_cservers(&self.params, offset, len);
        Benefit {
            t_d_secs: t_d,
            t_c_secs: t_c,
            benefit_secs: t_d - t_c,
            distance,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s4d_storage::presets;

    const KIB: u64 = 1024;
    const MIB: u64 = 1024 * 1024;

    fn evaluator() -> BenefitEvaluator<(u32, u64)> {
        let params = CostParams::from_hardware(
            &presets::hdd_seagate_st3250(),
            &presets::ssd_ocz_revodrive_x2(),
            8,
            4,
            64 * KIB,
        )
        .with_network_bandwidth(117.0e6)
        .with_cserver_op_overhead(300.0e-6, 16 * KIB);
        BenefitEvaluator::new(params)
    }

    #[test]
    fn sequential_stream_sees_zero_distance() {
        let mut e = evaluator();
        e.evaluate((0, 0), 0, 16 * KIB);
        let b = e.evaluate((0, 0), 16 * KIB, 16 * KIB);
        assert_eq!(b.distance, 0);
        let b = e.evaluate((0, 0), 32 * KIB, 16 * KIB);
        assert_eq!(b.distance, 0);
    }

    #[test]
    fn random_jump_measures_distance() {
        let mut e = evaluator();
        e.evaluate((0, 0), 0, 16 * KIB);
        let b = e.evaluate((0, 0), 100 * MIB, 16 * KIB);
        assert_eq!(b.distance, 100 * MIB - 16 * KIB);
        // Backward jumps count too.
        let b = e.evaluate((0, 0), 50 * MIB, 16 * KIB);
        assert_eq!(b.distance, 50 * MIB + 16 * KIB);
    }

    #[test]
    fn first_request_is_worst_case() {
        let mut e = evaluator();
        let b = e.evaluate((1, 1), 0, 16 * KIB);
        assert_eq!(b.distance, u64::MAX);
        assert!(b.is_critical());
    }

    #[test]
    fn streams_are_independent() {
        let mut e = evaluator();
        e.evaluate((0, 0), 0, 16 * KIB);
        e.evaluate((1, 0), 64 * MIB, 16 * KIB);
        // Process 0 continues sequentially despite process 1's activity.
        let b = e.evaluate((0, 0), 16 * KIB, 16 * KIB);
        assert_eq!(b.distance, 0);
        assert_eq!(e.last_end.len(), 2);
    }

    #[test]
    fn small_random_is_critical_large_is_not() {
        let e = evaluator();
        let small = e.evaluate_at_distance(512 * MIB, 0, 16 * KIB);
        assert!(small.is_critical());
        assert!(small.t_d_secs > small.t_c_secs);
        let large = e.evaluate_at_distance(512 * MIB, 0, 4 * MIB);
        assert!(!large.is_critical());
    }

    #[test]
    fn benefit_fields_are_consistent() {
        let e = evaluator();
        let b = e.evaluate_at_distance(MIB, 4 * KIB, 32 * KIB);
        assert!((b.benefit_secs - (b.t_d_secs - b.t_c_secs)).abs() < 1e-15);
        assert_eq!(b.distance, MIB);
    }
}
