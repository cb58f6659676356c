//! The hypergeometric distribution used by `HRMerge`.
//!
//! When merging two reservoir samples drawn from disjoint partitions `D1` and
//! `D2`, the number `L` of elements the merged sample of size `k` takes from
//! the first sample must follow (Eq. 2 of the paper)
//!
//! ```text
//! P(l) = C(|D1|, l) · C(|D2|, k−l) / C(|D1|+|D2|, k),   l = 0..k,
//! ```
//!
//! i.e. a hypergeometric distribution. The paper's Eq. (3) gives the
//! recurrence
//!
//! ```text
//! P(l+1) = (k−l)(|D1|−l) / ((l+1)(|D2|−k+l+1)) · P(l)
//! ```
//!
//! which we evaluate in log space for numerical robustness and then
//! normalize. Sampling is offered via inversion (the paper's default) or via
//! a Walker/Vose [`AliasTable`] for the repeated-symmetric-merge scenario the
//! paper describes in §4.2.

use crate::alias::AliasTable;
use crate::checked::{as_index, exact_f64, index_u64};
use crate::stats::ln_choose;
use rand::Rng;

/// Precomputed hypergeometric distribution `P(l)`, `l = 0..=k`.
///
/// Parameters mirror the paper's notation: `d1 = |D1|`, `d2 = |D2|`, and `k`
/// is the merged sample size with `k ≤ d1 + d2`.
///
/// ```
/// use swh_rand::{seeded_rng, Hypergeometric};
///
/// // How many of a 10-element SRS from a 60+40 union come from the
/// // 60-element side?
/// let h = Hypergeometric::new(60, 40, 10);
/// assert!((h.mean() - 6.0).abs() < 1e-12);
/// let mut rng = seeded_rng(7);
/// let l = h.sample(&mut rng);
/// assert!(l <= 10);
/// ```
#[derive(Debug, Clone)]
pub struct Hypergeometric {
    d1: u64,
    d2: u64,
    k: u64,
    /// Normalized pmf values; `probs[l] = P(L = l)`.
    probs: Vec<f64>,
    /// Cumulative distribution, for inversion sampling.
    cdf: Vec<f64>,
}

impl Hypergeometric {
    /// Build the pmf via the log-space recurrence of Eq. (3).
    ///
    /// # Panics
    /// Panics if `k > d1 + d2`.
    pub fn new(d1: u64, d2: u64, k: u64) -> Self {
        assert!(
            k <= d1 + d2,
            "merged size k={k} exceeds population {d1}+{d2}"
        );
        // Feasible support: max(0, k - d2) ..= min(k, d1).
        let lo = k.saturating_sub(d2);
        let hi = k.min(d1);
        debug_assert!(lo <= hi);

        // Log pmf via recurrence, anchored at lo with value 0 (unnormalized).
        let len = as_index(k + 1);
        let mut ln_p = vec![f64::NEG_INFINITY; len];
        ln_p[as_index(lo)] = 0.0;
        let mut cur = 0.0f64;
        for l in lo..hi {
            // Eq. (3): P(l+1)/P(l) = (k-l)(d1-l) / ((l+1)(d2-k+l+1)).
            let num = exact_f64(k - l) * exact_f64(d1 - l);
            let den = exact_f64(l + 1) * exact_f64(d2 + l + 1 - k);
            cur += (num / den).ln();
            ln_p[as_index(l + 1)] = cur;
        }
        // Exp-normalize.
        let max = ln_p[as_index(lo)..=as_index(hi)]
            .iter()
            .fold(f64::NEG_INFINITY, |a, &b| a.max(b));
        let mut probs = vec![0.0f64; len];
        let mut total = 0.0;
        for l in lo..=hi {
            let v = (ln_p[as_index(l)] - max).exp();
            probs[as_index(l)] = v;
            total += v;
        }
        let mut cdf = Vec::with_capacity(len);
        let mut acc = 0.0;
        for p in probs.iter_mut() {
            *p /= total;
            acc += *p;
            cdf.push(acc);
        }
        // Clamp the final cumulative value to exactly one.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        Self {
            d1,
            d2,
            k,
            probs,
            cdf,
        }
    }

    /// `P(L = l)`; zero outside the feasible support.
    pub fn pmf(&self, l: u64) -> f64 {
        usize::try_from(l)
            .ok()
            .and_then(|i| self.probs.get(i))
            .copied()
            .unwrap_or(0.0)
    }

    /// Exact pmf computed directly from Eq. (2) via log binomial
    /// coefficients. Exposed so tests and benchmarks can cross-check the
    /// recurrence.
    pub fn pmf_direct(&self, l: u64) -> f64 {
        if l > self.k {
            return 0.0;
        }
        (ln_choose(self.d1, l) + ln_choose(self.d2, self.k - l)
            - ln_choose(self.d1 + self.d2, self.k))
        .exp()
    }

    /// The full normalized probability vector (length `k + 1`).
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// Merged sample size `k`.
    pub fn k(&self) -> u64 {
        self.k
    }

    /// Expected value `k·d1/(d1+d2)`.
    pub fn mean(&self) -> f64 {
        exact_f64(self.k) * exact_f64(self.d1) / exact_f64(self.d1 + self.d2)
    }

    /// Draw `L` by inversion: binary search of the cumulative distribution.
    ///
    /// This is the paper's "straightforward inversion approach"; it costs
    /// `O(log k)` per draw after the `O(k)` table construction.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let u = rng.random::<f64>();
        // partition_point returns the count of elements < u, i.e. the first
        // index with cdf >= u.
        index_u64(self.cdf.partition_point(|&c| c < u))
    }

    /// Build an alias table for `O(1)` repeated draws (§4.2 of the paper:
    /// symmetric pairwise merge trees reuse a small set of distributions).
    pub fn alias_table(&self) -> AliasTable {
        AliasTable::new(&self.probs)
    }
}

/// Draw `L ~ HG(d1, d2, k)` (Eq. 2) without building the pmf: inversion
/// that starts at the mode and walks outward, alternating sides, stepping
/// with Eq. (3)'s ratio. The expected number of steps is of the order of
/// the standard deviation, `O(√k)`, against [`Hypergeometric::new`]'s
/// `k + 1` terms and three allocations.
///
/// The mode's probability comes from log binomial coefficients; if rounding
/// leaves the walked mass short of `u`, the draw restarts with a fresh `u`,
/// so the sampled law is exactly proportional to the computed terms.
///
/// # Panics
/// Panics if `k > d1 + d2`.
pub fn sample_hypergeometric<R: Rng + ?Sized>(rng: &mut R, d1: u64, d2: u64, k: u64) -> u64 {
    assert!(
        k <= d1 + d2,
        "merged size k={k} exceeds population {d1}+{d2}"
    );
    let lo = k.saturating_sub(d2);
    let hi = k.min(d1);
    if lo == hi {
        return lo;
    }
    // Mode of Eq. (2): floor((k+1)(d1+1) / (d1+d2+2)), inside the support.
    let wide = (u128::from(k) + 1) * (u128::from(d1) + 1) / (u128::from(d1) + u128::from(d2) + 2);
    let mode = u64::try_from(wide).unwrap_or(hi).clamp(lo, hi);
    let p_mode = (ln_choose(d1, mode) + ln_choose(d2, k - mode) - ln_choose(d1 + d2, k)).exp();
    // Eq. (3) and its inverse: P(l+1)/P(l) and P(l-1)/P(l).
    let up = |l: u64| {
        exact_f64(k - l) * exact_f64(d1 - l) / (exact_f64(l + 1) * exact_f64(d2 + l + 1 - k))
    };
    let down = |l: u64| {
        exact_f64(l) * exact_f64(d2 + l - k) / (exact_f64(k - l + 1) * exact_f64(d1 - l + 1))
    };
    loop {
        let mut u = rng.random::<f64>() - p_mode;
        if u < 0.0 {
            return mode;
        }
        let (mut above, mut p_above) = (mode, p_mode);
        let (mut below, mut p_below) = (mode, p_mode);
        while above < hi || below > lo {
            if above < hi {
                p_above *= up(above);
                above += 1;
                u -= p_above;
                if u < 0.0 {
                    return above;
                }
            }
            if below > lo {
                p_below *= down(below);
                below -= 1;
                u -= p_below;
                if u < 0.0 {
                    return below;
                }
            }
        }
    }
}

/// Draw a multivariate hypergeometric vector: the composition
/// `(L_1, ..., L_m)` of a simple random sample of size `k` drawn from the
/// union of `m` disjoint groups with sizes `populations[i]`.
///
/// Generalizes Eq. (2) to `m`-way merges: `L_i` counts how many of the `k`
/// merged elements come from group `i`. Sampled by the chain rule —
/// `L_1 ~ HG(N_1, N_2 + ... + N_m, k)`, then `L_2` from the remainder, etc. —
/// with every factor drawn by [`sample_hypergeometric`], so no pmf is built.
///
/// # Panics
/// Panics if `k` exceeds the total population.
pub fn sample_multivariate<R: Rng + ?Sized>(rng: &mut R, populations: &[u64], k: u64) -> Vec<u64> {
    let total: u64 = populations.iter().sum();
    assert!(k <= total, "draw {k} exceeds total population {total}");
    let mut remaining_total = total;
    let mut remaining_k = k;
    let mut out = Vec::with_capacity(populations.len());
    for &n_i in populations {
        let rest = remaining_total - n_i;
        let l = sample_hypergeometric(rng, n_i, rest, remaining_k);
        out.push(l);
        remaining_k -= l;
        remaining_total = rest;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seeded_rng;
    use crate::stats::{
        chi_square_p_value, chi_square_statistic, chi_square_two_sample, ln_choose,
    };

    #[test]
    fn pmf_sums_to_one() {
        for &(d1, d2, k) in &[(10u64, 10u64, 5u64), (100, 50, 30), (7, 3, 9), (1, 99, 1)] {
            let h = Hypergeometric::new(d1, d2, k);
            let s: f64 = h.probs().iter().sum();
            assert!((s - 1.0).abs() < 1e-12, "sum {s} for ({d1},{d2},{k})");
        }
    }

    #[test]
    fn recurrence_matches_direct_formula() {
        for &(d1, d2, k) in &[(20u64, 30u64, 10u64), (5, 5, 5), (1000, 2000, 100)] {
            let h = Hypergeometric::new(d1, d2, k);
            for l in 0..=k {
                let a = h.pmf(l);
                let b = h.pmf_direct(l);
                assert!((a - b).abs() < 1e-10, "({d1},{d2},{k}) l={l}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn support_respects_bounds() {
        // k - d2 > 0 forces a lower bound on l.
        let h = Hypergeometric::new(5, 3, 6);
        assert_eq!(h.pmf(0), 0.0);
        assert_eq!(h.pmf(1), 0.0);
        assert_eq!(h.pmf(2), 0.0);
        assert!(h.pmf(3) > 0.0);
        assert!(h.pmf(5) > 0.0);
        assert_eq!(h.pmf(6), 0.0); // l cannot exceed min(k, d1) = 5
    }

    #[test]
    fn degenerate_cases() {
        // All from D1.
        let h = Hypergeometric::new(10, 0, 4);
        assert!((h.pmf(4) - 1.0).abs() < 1e-12);
        // k = 0: always l = 0.
        let h = Hypergeometric::new(10, 10, 0);
        assert!((h.pmf(0) - 1.0).abs() < 1e-12);
        let mut rng = seeded_rng(3);
        assert_eq!(h.sample(&mut rng), 0);
    }

    #[test]
    fn large_populations_are_stable() {
        // Sizes comparable to the paper's 2^26 experiments.
        let h = Hypergeometric::new(1 << 26, 1 << 26, 8192);
        let s: f64 = h.probs().iter().sum();
        assert!((s - 1.0).abs() < 1e-9);
        let mean: f64 = h
            .probs()
            .iter()
            .enumerate()
            .map(|(l, p)| l as f64 * p)
            .sum();
        assert!((mean - h.mean()).abs() / h.mean() < 1e-6);
    }

    #[test]
    fn inversion_sampling_goodness_of_fit() {
        let h = Hypergeometric::new(30, 50, 20);
        let mut rng = seeded_rng(99);
        let trials = 40_000usize;
        let mut counts = [0u64; 21];
        for _ in 0..trials {
            counts[h.sample(&mut rng) as usize] += 1;
        }
        // Pool cells with expectation < 5.
        let mut obs = Vec::new();
        let mut exp = Vec::new();
        let (mut po, mut pe) = (0u64, 0.0f64);
        for l in 0..=20u64 {
            po += counts[l as usize];
            pe += h.pmf(l) * trials as f64;
            if pe >= 5.0 {
                obs.push(po);
                exp.push(pe);
                po = 0;
                pe = 0.0;
            }
        }
        if pe > 0.0 {
            *obs.last_mut().unwrap() += po;
            *exp.last_mut().unwrap() += pe;
        }
        let stat = chi_square_statistic(&obs, &exp);
        let pv = chi_square_p_value(stat, (obs.len() - 1) as f64);
        assert!(pv > 1e-4, "chi2={stat:.2} p={pv:.2e}");
    }

    #[test]
    fn alias_sampling_matches_inversion_distribution() {
        let h = Hypergeometric::new(25, 40, 15);
        let table = h.alias_table();
        let mut rng = seeded_rng(123);
        let trials = 40_000usize;
        let mut counts = [0u64; 16];
        for _ in 0..trials {
            counts[table.sample(&mut rng) as usize] += 1;
        }
        let mut obs = Vec::new();
        let mut exp = Vec::new();
        let (mut po, mut pe) = (0u64, 0.0f64);
        for l in 0..=15u64 {
            po += counts[l as usize];
            pe += h.pmf(l) * trials as f64;
            if pe >= 5.0 {
                obs.push(po);
                exp.push(pe);
                po = 0;
                pe = 0.0;
            }
        }
        if pe > 0.0 {
            *obs.last_mut().unwrap() += po;
            *exp.last_mut().unwrap() += pe;
        }
        let stat = chi_square_statistic(&obs, &exp);
        let pv = chi_square_p_value(stat, (obs.len() - 1) as f64);
        assert!(pv > 1e-4, "chi2={stat:.2} p={pv:.2e}");
    }

    #[test]
    #[should_panic(expected = "exceeds population")]
    fn rejects_oversized_k() {
        Hypergeometric::new(3, 3, 7);
    }

    // Eq. (3) edge cases: the recurrence must survive the boundary
    // configurations HRMerge can feed it.

    #[test]
    fn eq3_edge_k_zero_always_draws_zero() {
        let h = Hypergeometric::new(12, 7, 0);
        assert!((h.pmf(0) - 1.0).abs() < 1e-12);
        let mut rng = seeded_rng(41);
        for _ in 0..200 {
            assert_eq!(h.sample(&mut rng), 0);
        }
    }

    #[test]
    fn eq3_edge_k_equals_union_size_takes_everything() {
        // k = |S1| + |S2|: the merged sample is the whole union, so L = |S1|
        // with probability one.
        let h = Hypergeometric::new(6, 4, 10);
        assert!((h.pmf(6) - 1.0).abs() < 1e-12);
        for l in 0..6u64 {
            assert_eq!(h.pmf(l), 0.0, "pmf({l}) must vanish");
        }
        let mut rng = seeded_rng(42);
        for _ in 0..200 {
            assert_eq!(h.sample(&mut rng), 6);
        }
    }

    #[test]
    fn eq3_edge_empty_partition_contributes_nothing() {
        // |S1| = 0: every draw comes from the other side.
        let h = Hypergeometric::new(0, 8, 3);
        assert!((h.pmf(0) - 1.0).abs() < 1e-12);
        let mut rng = seeded_rng(43);
        for _ in 0..200 {
            assert_eq!(h.sample(&mut rng), 0);
        }
        // Symmetric case: |S2| = 0 forces L = k.
        let h = Hypergeometric::new(8, 0, 3);
        assert!((h.pmf(3) - 1.0).abs() < 1e-12);
        for _ in 0..200 {
            assert_eq!(h.sample(&mut rng), 3);
        }
    }

    #[test]
    fn eq3_edge_degenerate_single_point_support() {
        // N = n on both sides (k = d1 = d2 = 1 and friends): the support
        // collapses to one point and the recurrence must not divide by zero.
        for &(d1, d2, k) in &[(1u64, 1u64, 2u64), (1, 0, 1), (0, 1, 1), (2, 2, 4)] {
            let h = Hypergeometric::new(d1, d2, k);
            let s: f64 = h.probs().iter().sum();
            assert!((s - 1.0).abs() < 1e-12, "({d1},{d2},{k}) sum {s}");
            assert!((h.pmf(d1.min(k)) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn multivariate_sums_to_k_and_respects_bounds() {
        let mut rng = seeded_rng(31);
        let pops = [10u64, 0, 25, 5];
        for _ in 0..500 {
            let l = sample_multivariate(&mut rng, &pops, 12);
            assert_eq!(l.iter().sum::<u64>(), 12);
            for (li, ni) in l.iter().zip(&pops) {
                assert!(li <= ni, "{l:?} vs {pops:?}");
            }
            assert_eq!(l[1], 0, "empty group must contribute nothing");
        }
    }

    #[test]
    fn multivariate_k_zero_and_k_total() {
        let mut rng = seeded_rng(32);
        assert_eq!(sample_multivariate(&mut rng, &[3, 4], 0), vec![0, 0]);
        assert_eq!(sample_multivariate(&mut rng, &[3, 4], 7), vec![3, 4]);
    }

    #[test]
    fn multivariate_matches_joint_pmf() {
        // 3 groups of sizes (4, 3, 3), k = 4: chi-square the joint
        // distribution of (L1, L2) against the multivariate hypergeometric
        // pmf C(4,l1) C(3,l2) C(3,k-l1-l2) / C(10,4).
        let pops = [4u64, 3, 3];
        let k = 4u64;
        let mut rng = seeded_rng(33);
        let trials = 50_000usize;
        let mut counts = std::collections::HashMap::new();
        for _ in 0..trials {
            let l = sample_multivariate(&mut rng, &pops, k);
            *counts.entry((l[0], l[1])).or_insert(0u64) += 1;
        }
        let denom = ln_choose(10, k);
        let mut obs = Vec::new();
        let mut exp = Vec::new();
        for l1 in 0..=4u64 {
            for l2 in 0..=3u64 {
                if l1 + l2 > k || k - l1 - l2 > 3 {
                    continue;
                }
                let l3 = k - l1 - l2;
                let p = (ln_choose(4, l1) + ln_choose(3, l2) + ln_choose(3, l3) - denom).exp();
                let e = p * trials as f64;
                if e >= 5.0 {
                    obs.push(counts.get(&(l1, l2)).copied().unwrap_or(0));
                    exp.push(e);
                }
            }
        }
        let stat = chi_square_statistic(&obs, &exp);
        let pv = chi_square_p_value(stat, (obs.len() - 1) as f64);
        assert!(pv > 1e-4, "joint pmf mismatch: chi2={stat:.1} p={pv:.2e}");
    }

    /// Draws of `draw` tallied over `0..=k` and chi-squared against the
    /// Eq. (3) pmf of `HG(d1, d2, k)`, pooling cells below 5 expected.
    fn pmf_p_value(d1: u64, d2: u64, k: u64, draws: &[u64]) -> f64 {
        let h = Hypergeometric::new(d1, d2, k);
        let mut counts = vec![0u64; k as usize + 1];
        for &l in draws {
            counts[l as usize] += 1;
        }
        let trials = draws.len() as f64;
        let (mut obs, mut exp) = (Vec::new(), Vec::new());
        let (mut po, mut pe) = (0u64, 0.0f64);
        for l in 0..=k {
            po += counts[l as usize];
            pe += h.pmf(l) * trials;
            if pe >= 5.0 {
                obs.push(po);
                exp.push(pe);
                po = 0;
                pe = 0.0;
            }
        }
        if let (Some(o), Some(e)) = (obs.last_mut(), exp.last_mut()) {
            *o += po;
            *e += pe;
        }
        let stat = chi_square_statistic(&obs, &exp);
        chi_square_p_value(stat, (obs.len() - 1) as f64)
    }

    #[test]
    fn mode_walk_matches_eq3_pmf() {
        let mut rng = seeded_rng(34);
        for &(d1, d2, k) in &[
            (30u64, 50u64, 20u64),
            (1 << 20, 3 << 20, 512),
            (8_192, 15 * 8_192, 512),
            (5, 3, 6),
            (3, 400, 40),
            (400, 3, 40),
        ] {
            let draws: Vec<u64> = (0..40_000)
                .map(|_| sample_hypergeometric(&mut rng, d1, d2, k))
                .collect();
            let pv = pmf_p_value(d1, d2, k, &draws);
            assert!(pv > 1e-4, "({d1},{d2},{k}): p={pv:.2e}");
        }
    }

    #[test]
    fn mode_walk_degenerate_supports_draw_no_randomness() {
        // Single-point supports return it without touching the RNG.
        let mut rng = seeded_rng(35);
        let before = rng.clone().random::<u64>();
        assert_eq!(sample_hypergeometric(&mut rng, 12, 7, 0), 0);
        assert_eq!(sample_hypergeometric(&mut rng, 6, 4, 10), 6);
        assert_eq!(sample_hypergeometric(&mut rng, 0, 8, 3), 0);
        assert_eq!(sample_hypergeometric(&mut rng, 8, 0, 3), 3);
        assert_eq!(sample_hypergeometric(&mut rng, 1, 1, 2), 1);
        assert_eq!(rng.random::<u64>(), before);
    }

    /// Sixteen groups of unequal sizes, as a 16-way merge node over
    /// partitions of different lengths sees them.
    fn sixteen_groups() -> Vec<u64> {
        (0..16u64).map(|i| 2_000 + 700 * i + 37 * i * i).collect()
    }

    #[test]
    fn multivariate_moments_for_sixteen_unequal_groups() {
        let pops = sixteen_groups();
        let (k, trials) = (512u64, 20_000usize);
        let total: u64 = pops.iter().sum();
        let mut rng = seeded_rng(36);
        let mut sum = vec![0.0f64; pops.len()];
        let mut sum_sq = vec![0.0f64; pops.len()];
        for _ in 0..trials {
            let l = sample_multivariate(&mut rng, &pops, k);
            assert_eq!(l.iter().sum::<u64>(), k);
            for (i, &x) in l.iter().enumerate() {
                sum[i] += x as f64;
                sum_sq[i] += (x * x) as f64;
            }
        }
        let t = trials as f64;
        let (k, n) = (k as f64, total as f64);
        for (i, &n_i) in pops.iter().enumerate() {
            let share = n_i as f64 / n;
            let mean = k * share;
            let var = k * share * (1.0 - share) * (n - k) / (n - 1.0);
            let got_mean = sum[i] / t;
            let got_var = sum_sq[i] / t - got_mean * got_mean;
            assert!(
                (got_mean - mean).abs() < 4.0 * (var / t).sqrt(),
                "group {i}: mean {got_mean} vs {mean}"
            );
            assert!(
                (got_var - var).abs() < 5.0 * var * (2.0 / t).sqrt(),
                "group {i}: variance {got_var} vs {var}"
            );
        }
    }

    #[test]
    fn multivariate_matches_eq3_chain_rule() {
        // Oracle: the chain rule with every factor drawn by inversion of
        // the full Eq. (3) pmf. Partial sums L_1 + ... + L_j follow
        // HG(N_1 + ... + N_j, rest, k); compare them to that pmf and to
        // the oracle's partial sums.
        let pops = sixteen_groups();
        let (k, trials) = (512u64, 20_000usize);
        let total: u64 = pops.iter().sum();
        let oracle = |rng: &mut rand::rngs::SmallRng| -> Vec<u64> {
            let (mut rest_total, mut rest_k) = (total, k);
            pops.iter()
                .map(|&n_i| {
                    let l = Hypergeometric::new(n_i, rest_total - n_i, rest_k).sample(rng);
                    rest_total -= n_i;
                    rest_k -= l;
                    l
                })
                .collect()
        };
        let mut rng = seeded_rng(37);
        let fast: Vec<Vec<u64>> = (0..trials)
            .map(|_| sample_multivariate(&mut rng, &pops, k))
            .collect();
        let slow: Vec<Vec<u64>> = (0..trials).map(|_| oracle(&mut rng)).collect();
        for j in [1usize, 4, 8, 15] {
            let head: u64 = pops[..j].iter().sum();
            let partial = |draws: &[Vec<u64>]| -> Vec<u64> {
                draws.iter().map(|l| l[..j].iter().sum()).collect()
            };
            let (fast_j, slow_j) = (partial(&fast), partial(&slow));
            let pv = pmf_p_value(head, total - head, k, &fast_j);
            assert!(pv > 1e-4, "partial sum {j}: p={pv:.2e}");
            let tally = |xs: &[u64]| {
                let mut c = vec![0u64; k as usize + 1];
                for &x in xs {
                    c[x as usize] += 1;
                }
                c
            };
            let (stat, df) = chi_square_two_sample(&tally(&fast_j), &tally(&slow_j), 20);
            let pv = chi_square_p_value(stat, df);
            assert!(
                pv > 1e-4,
                "partial sum {j} vs oracle: chi2={stat:.1} p={pv:.2e}"
            );
        }
    }

    #[test]
    fn multivariate_exact_small_cases() {
        let mut rng = seeded_rng(38);
        // One group takes everything; empty groups take nothing.
        assert_eq!(sample_multivariate(&mut rng, &[5], 3), vec![3]);
        assert_eq!(sample_multivariate(&mut rng, &[0, 0, 4], 4), vec![0, 0, 4]);
        assert_eq!(sample_multivariate(&mut rng, &[2, 0, 2], 4), vec![2, 0, 2]);
        assert_eq!(sample_multivariate(&mut rng, &[2, 0, 2], 0), vec![0, 0, 0]);
        // Three singletons, k = 2: each of the three pairs w.p. 1/3.
        let trials = 30_000usize;
        let mut counts = [0u64; 3];
        for _ in 0..trials {
            let l = sample_multivariate(&mut rng, &[1, 1, 1], 2);
            let missing = l.iter().position(|&x| x == 0).unwrap();
            assert_eq!(l.iter().sum::<u64>(), 2);
            counts[missing] += 1;
        }
        let exp = [trials as f64 / 3.0; 3];
        let stat = chi_square_statistic(&counts, &exp);
        let pv = chi_square_p_value(stat, 2.0);
        assert!(pv > 1e-4, "chi2={stat:.2} p={pv:.2e}");
    }

    #[test]
    #[should_panic(expected = "exceeds total population")]
    fn multivariate_rejects_oversized_k() {
        sample_multivariate(&mut seeded_rng(1), &[2, 2], 5);
    }
}
