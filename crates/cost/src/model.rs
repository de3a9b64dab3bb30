//! Equations 1–8 and Table II of the paper.

use crate::params::CostParams;

/// The paper's Equation 6: number of file servers a request involves.
///
/// `B = ⌊f/str⌋`, `E = ⌊(f+r)/str⌋`, `m = min(E − B + 1, servers)`.
/// Note the paper's `E` counts the stripe *containing* `f + r`, so a
/// request ending exactly on a stripe boundary counts one extra server —
/// we follow the paper.
///
/// # Panics
///
/// Panics if `stripe == 0` or `servers == 0`.
pub fn involved_servers(offset: u64, len: u64, stripe: u64, servers: usize) -> usize {
    assert!(stripe > 0 && servers > 0, "bad geometry");
    if len == 0 {
        return 0;
    }
    let b = offset / stripe;
    let e = (offset + len) / stripe;
    ((e - b + 1) as usize).min(servers)
}

/// The paper's Table II: closed-form maximum sub-request size `s_m`.
///
/// With `Δ = E − B`, `b = str − f mod str` (beginning fragment) and
/// `e = (f + r) mod str` (ending fragment):
///
/// | case | condition | `s_m` |
/// |------|-----------|-------|
/// | 1 | `Δ = 0` | `r` |
/// | 2 | `Δ > 0 ∧ Δ mod M = 0` | `max{b + e + (⌈Δ/M⌉−1)·str, ⌈Δ/M⌉·str}` |
/// | 3 | `Δ > 0 ∧ Δ mod M = 1` | `max{b + (⌈Δ/M⌉−1)·str, e + (⌈Δ/M⌉−1)·str}` |
/// | 4 | otherwise | `⌈Δ/M⌉·str` |
///
/// # Panics
///
/// Panics if `stripe == 0` or `servers == 0`.
pub fn max_subrequest_table2(offset: u64, len: u64, stripe: u64, servers: usize) -> u64 {
    assert!(stripe > 0 && servers > 0, "bad geometry");
    if len == 0 {
        return 0;
    }
    let m = servers as u64;
    let b_stripe = offset / stripe;
    let e_stripe = (offset + len) / stripe;
    let delta = e_stripe - b_stripe;
    if delta == 0 {
        return len;
    }
    let begin_frag = stripe - offset % stripe;
    let end_frag = (offset + len) % stripe;
    let rounds = delta.div_ceil(m);
    match delta % m {
        0 => (begin_frag + end_frag + (rounds - 1) * stripe).max(rounds * stripe),
        1 => (begin_frag + (rounds - 1) * stripe).max(end_frag + (rounds - 1) * stripe),
        _ => rounds * stripe,
    }
}

/// Exact maximum per-server sub-request size by enumerating the round-robin
/// decomposition.
///
/// # Panics
///
/// Panics if `stripe == 0` or `servers == 0`.
pub fn max_subrequest_exact(offset: u64, len: u64, stripe: u64, servers: usize) -> u64 {
    assert!(stripe > 0 && servers > 0, "bad geometry");
    if len == 0 {
        return 0;
    }
    let end = offset + len;
    let first = offset / stripe;
    let last = (end - 1) / stripe;
    let mut per_server = vec![0u64; servers];
    for k in first..=last {
        let lo = (k * stripe).max(offset);
        let hi = ((k + 1) * stripe).min(end);
        if let Some(bytes) = per_server.get_mut((k % servers as u64) as usize) {
            *bytes += hi - lo;
        }
    }
    per_server.into_iter().max().unwrap_or(0)
}

/// The paper's Equation 4: expectation of the maximum of `m` startup times
/// drawn uniformly from `[a, b]`: `a + m/(m+1) · (b − a)`.
///
/// # Panics
///
/// Panics if `m == 0` or `a > b`.
pub fn max_startup_expectation(m: usize, a: f64, b: f64) -> f64 {
    assert!(m > 0, "m must be positive");
    assert!(a <= b, "startup interval inverted: [{a}, {b}]");
    a + (m as f64 / (m as f64 + 1.0)) * (b - a)
}

/// The paper's Equations 1–6: predicted access time on the DServers.
///
/// Startup is the expected maximum over the `m` involved servers of a
/// uniform draw from `[F(d) + R, S + R]`; transfer is `s_m · β_D`, with
/// `s_m` from Table II ([`max_subrequest_table2`]).
pub fn t_dservers(params: &CostParams, distance: u64, offset: u64, len: u64) -> f64 {
    if len == 0 {
        return 0.0;
    }
    let m = involved_servers(offset, len, params.stripe, params.m);
    let a = params.seek_time_for_logical_distance(distance) + params.rotation;
    let b = params.max_seek + params.rotation;
    // F is capped at S, so a ≤ b always holds; clamp defensively anyway.
    let t_s = max_startup_expectation(m, a.min(b), b);
    let s_m = max_subrequest_table2(offset, len, params.stripe, params.m);
    t_s + s_m as f64 * params.beta_d
}

/// The paper's Equation 7: predicted access time on the CServers.
///
/// SSDs are insensitive to spatial locality, so there is no startup term:
/// `T_C = S_n · β_C` where `S_n` is the maximum sub-request size when the
/// request is striped over the `N` CServers (Table II again).
pub fn t_cservers(params: &CostParams, offset: u64, len: u64) -> f64 {
    if len == 0 {
        return 0.0;
    }
    let s_n = max_subrequest_table2(offset, len, params.stripe, params.n);
    s_n as f64 * params.beta_c
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use s4d_storage::presets;

    const KIB: u64 = 1024;
    const MIB: u64 = 1024 * 1024;
    const STR: u64 = 64 * KIB;

    fn params() -> CostParams {
        CostParams::from_hardware(
            &presets::hdd_seagate_st3250(),
            &presets::ssd_ocz_revodrive_x2(),
            8,
            4,
            STR,
        )
        .with_network_bandwidth(117.0e6)
        // Request-level effective beta_C: 0.3 ms per-op overhead amortised
        // over 16 KiB, as the experiment harness profiles it.
        .with_cserver_op_overhead(300.0e-6, 16 * KIB)
    }

    #[test]
    fn involved_servers_eq6() {
        // Within one stripe.
        assert_eq!(involved_servers(0, 16 * KIB, STR, 8), 1);
        // Spans two stripes.
        assert_eq!(involved_servers(60 * KIB, 8 * KIB, STR, 8), 2);
        // Caps at M.
        assert_eq!(involved_servers(0, 100 * MIB, STR, 8), 8);
        // Zero length.
        assert_eq!(involved_servers(0, 0, STR, 8), 0);
        // Paper quirk: an exactly aligned request counts E's stripe.
        assert_eq!(involved_servers(0, STR, STR, 8), 2);
    }

    #[test]
    fn table2_case1_small_request() {
        assert_eq!(max_subrequest_table2(10 * KIB, 4 * KIB, STR, 8), 4 * KIB);
    }

    #[test]
    fn table2_case3_two_fragments() {
        // 32 KiB .. 160 KiB: Δ = 2 (B=0, E=2), Δ % 8 = 2 -> case 4.
        assert_eq!(max_subrequest_table2(32 * KIB, 128 * KIB, STR, 8), STR);
        // Δ % M == 1: f = 32 KiB, r = 96 KiB: B=0, E=2... Δ=2 again; pick
        // f = 32 KiB, r = 32 KiB + 64 KiB*0 + ... choose f=48K, r=80K:
        // B=0, E=2, Δ=2. For Δ%M==1 with M=8 need Δ=1 or 9:
        // f = 32 KiB, r = 48 KiB: B=0, E=1, Δ=1 -> case 3.
        let sm = max_subrequest_table2(32 * KIB, 48 * KIB, STR, 8);
        // b = 32 KiB, e = 16 KiB, rounds = 1: max{32 KiB, 16 KiB}.
        assert_eq!(sm, 32 * KIB);
        assert_eq!(max_subrequest_exact(32 * KIB, 48 * KIB, STR, 8), 32 * KIB);
    }

    #[test]
    fn table2_case2_full_rounds() {
        // Aligned 8-stripe request: Δ = 8, Δ % 8 == 0, b = str, e = 0.
        // max{str + 0 + 0, str} = str — each server one stripe.
        assert_eq!(max_subrequest_table2(0, 8 * STR, STR, 8), STR);
        assert_eq!(max_subrequest_exact(0, 8 * STR, STR, 8), STR);
    }

    #[test]
    fn table2_case4_middle() {
        // Δ = 4 (not 0 or 1 mod 8): s_m = ceil(4/8)*str = str.
        assert_eq!(max_subrequest_table2(0, 4 * STR + KIB, STR, 8), STR);
    }

    #[test]
    fn exact_matches_layout_semantics() {
        assert_eq!(max_subrequest_exact(0, 16 * STR, STR, 8), 2 * STR);
        assert_eq!(max_subrequest_exact(0, 16 * KIB, STR, 8), 16 * KIB);
    }

    #[test]
    fn startup_expectation_eq4() {
        // m = 1: midpoint.
        assert!((max_startup_expectation(1, 2.0, 4.0) - 3.0).abs() < 1e-12);
        // m -> large: approaches b.
        let big = max_startup_expectation(1000, 2.0, 4.0);
        assert!(big > 3.99 && big < 4.0);
        // Degenerate interval.
        assert_eq!(max_startup_expectation(5, 3.0, 3.0), 3.0);
    }

    #[test]
    #[should_panic(expected = "startup interval inverted")]
    fn startup_rejects_inverted() {
        max_startup_expectation(1, 4.0, 2.0);
    }

    #[test]
    fn small_random_requests_prefer_cservers() {
        let p = params();
        let far = 512 * MIB;
        for r in [4 * KIB, 8 * KIB, 16 * KIB, 32 * KIB, 64 * KIB] {
            let td = t_dservers(&p, far, 0, r);
            let tc = t_cservers(&p, 0, r);
            assert!(td > tc, "request {r}: T_D {td} should exceed T_C {tc}");
        }
    }

    #[test]
    fn large_requests_prefer_dservers() {
        let p = params();
        // 4 MiB requests (the paper's Fig. 6 crossover) must not benefit,
        // regardless of distance.
        for d in [0u64, 512 * MIB] {
            let td = t_dservers(&p, d, 0, 4 * MIB);
            let tc = t_cservers(&p, 0, 4 * MIB);
            assert!(
                tc >= td,
                "4 MiB @ d={d}: T_C {tc} should be at least T_D {td}"
            );
        }
    }

    #[test]
    fn crossover_lies_between_64kib_and_4mib() {
        let p = params();
        let d = 512 * MIB;
        let benefit = |r: u64| t_dservers(&p, d, 0, r) - t_cservers(&p, 0, r);
        assert!(benefit(64 * KIB) > 0.0);
        assert!(benefit(4 * MIB) <= 0.0);
        // Find the sign change; it must be monotone through the range.
        let mut crossed = false;
        let mut r = 64 * KIB;
        let mut prev = benefit(r);
        while r < 4 * MIB {
            r *= 2;
            let cur = benefit(r);
            if prev > 0.0 && cur <= 0.0 {
                crossed = true;
            }
            prev = cur;
        }
        assert!(crossed, "benefit must cross zero between 64 KiB and 4 MiB");
    }

    #[test]
    fn sequential_small_requests_still_benefit() {
        // Even at d = 0 the expected-maximum startup keeps T_D well above
        // T_C for small requests — the effect behind Table III where most
        // 16 KiB requests (sequential instances included) are redirected.
        let p = params();
        let td = t_dservers(&p, 0, 0, 16 * KIB);
        let tc = t_cservers(&p, 0, 16 * KIB);
        assert!(td > tc);
    }

    #[test]
    fn zero_length_costs_nothing() {
        let p = params();
        assert_eq!(t_dservers(&p, 0, 0, 0), 0.0);
        assert_eq!(t_cservers(&p, 0, 0), 0.0);
        assert_eq!(max_subrequest_table2(0, 0, STR, 8), 0);
        assert_eq!(max_subrequest_exact(5, 0, STR, 8), 0);
    }

    proptest! {
        /// Table II may over-estimate at aligned boundaries but must never
        /// under-estimate the exact maximum sub-request, and never by more
        /// than one stripe.
        #[test]
        fn prop_table2_bounds_exact(
            offset in 0u64..(1 << 22),
            len in 1u64..(1 << 23),
            servers in 1usize..10,
        ) {
            let t2 = max_subrequest_table2(offset, len, STR, servers);
            let exact = max_subrequest_exact(offset, len, STR, servers);
            prop_assert!(t2 + STR >= exact, "t2 {} far below exact {}", t2, exact);
            prop_assert!(t2 <= exact + STR, "t2 {} far above exact {}", t2, exact);
        }

        /// T_D grows (weakly) with distance; T_C is distance-free.
        #[test]
        fn prop_td_monotone_in_distance(
            d1 in 0u64..(1u64 << 34),
            d2 in 0u64..(1u64 << 34),
            len in 1u64..(1 << 22),
        ) {
            let p = params();
            let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
            let a = t_dservers(&p, lo, 0, len);
            let b = t_dservers(&p, hi, 0, len);
            prop_assert!(a <= b + 1e-12);
        }

        /// Exact s_m times server count covers the request.
        #[test]
        fn prop_exact_sm_is_a_true_max(
            offset in 0u64..(1 << 20),
            len in 1u64..(1 << 21),
            servers in 1usize..9,
        ) {
            let sm = max_subrequest_exact(offset, len, STR, servers);
            prop_assert!(sm * servers as u64 >= len);
            prop_assert!(sm <= len);
        }
    }
}
