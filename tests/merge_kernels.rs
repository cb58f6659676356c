//! Smoke slice of the merge-kernel statistical tests, through the public
//! facade: positional subsampling against Fig. 4's pass, the pmf-free
//! multivariate hypergeometric split, and multiway `HBMerge` nodes (plain,
//! and forced to overflow). The full-size versions live in the unit suites
//! of `swh-core` (`purge`, `merge`) and `swh-rand` (`hypergeometric`).

use sample_warehouse::sampling::bernoulli::BernoulliSampler;
use sample_warehouse::sampling::merge::merge_tree_parallel;
use sample_warehouse::sampling::purge::{purge_reservoir, purge_reservoir_fig4};
use sample_warehouse::sampling::{
    q_approx, CompactHistogram, FootprintPolicy, Sample, SampleKind, Sampler,
};
use sample_warehouse::variates::hypergeometric::sample_multivariate;
use sample_warehouse::variates::seeded_rng;
use sample_warehouse::variates::stats::{chi_square_p_value, chi_square_statistic};

type Rng = rand::rngs::SmallRng;

fn plain_bernoulli(range: std::ops::Range<u64>, q: f64, n_f: u64, rng: &mut Rng) -> Sample<u64> {
    let policy = FootprintPolicy::with_value_budget(n_f);
    BernoulliSampler::new(q, policy, rng).sample_batch(range, rng)
}

#[test]
fn positional_purge_matches_fig4_per_value() {
    // 32 elements over 12 values with repeats. Both kernels must keep each
    // value in proportion to its count, for m = 1 and m = n/2 (the
    // positional kernel's range).
    let counts = [1u64, 2, 3, 1, 5, 1, 2, 4, 1, 1, 3, 8];
    let mut hist = CompactHistogram::new();
    for (v, &c) in counts.iter().enumerate() {
        hist.insert_count(v as u64, c);
    }
    let (n, trials) = (hist.total(), 4_000usize);
    let mut rng = seeded_rng(1);
    for m in [1u64, n / 2] {
        let expected: Vec<f64> = counts
            .iter()
            .map(|&c| trials as f64 * m as f64 * c as f64 / n as f64)
            .collect();
        for fig4 in [false, true] {
            let mut kept = vec![0u64; counts.len()];
            for _ in 0..trials {
                let mut h = hist.clone();
                if fig4 {
                    purge_reservoir_fig4(&mut h, m, &mut rng);
                } else {
                    purge_reservoir(&mut h, m, &mut rng);
                }
                assert_eq!(h.total(), m);
                for (v, c) in h.iter() {
                    kept[*v as usize] += c;
                }
            }
            let stat = chi_square_statistic(&kept, &expected);
            let pv = chi_square_p_value(stat, (counts.len() - 1) as f64);
            assert!(pv > 1e-4, "fig4={fig4} m={m}: chi2={stat:.1} p={pv:.2e}");
        }
    }
}

#[test]
fn multivariate_split_has_hypergeometric_means() {
    let pops: Vec<u64> = (0..16u64).map(|i| 2_000 + 700 * i + 37 * i * i).collect();
    let total: u64 = pops.iter().sum();
    let (k, trials) = (512u64, 2_000usize);
    let mut rng = seeded_rng(2);
    let mut sums = vec![0u64; pops.len()];
    for _ in 0..trials {
        let l = sample_multivariate(&mut rng, &pops, k);
        assert_eq!(l.iter().sum::<u64>(), k);
        for (s, x) in sums.iter_mut().zip(l) {
            *s += x;
        }
    }
    let (t, kf, nf) = (trials as f64, k as f64, total as f64);
    for (i, (&n_i, &s)) in pops.iter().zip(&sums).enumerate() {
        let share = n_i as f64 / nf;
        let var = kf * share * (1.0 - share) * (nf - kf) / (nf - 1.0);
        let mean = s as f64 / t;
        assert!(
            (mean - kf * share).abs() < 4.0 * (var / t).sqrt(),
            "group {i}: mean {mean} vs {}",
            kf * share
        );
    }
}

#[test]
fn hb_node_keeps_every_element_at_the_root_rate() {
    // Four Bernoulli partitions at unequal rates plan to one HB node, which
    // thins each once to q = min(q(ΣN, p, n_F), min q_i).
    let rates = [0.9, 0.5, 0.7, 0.6];
    let (per, n_f, trials) = (30u64, 128u64, 4_000usize);
    let n = per * rates.len() as u64;
    let q = q_approx(n, 1e-3, n_f).min(0.5);
    let mut rng = seeded_rng(3);
    let mut incl = vec![0u64; n as usize];
    for _ in 0..trials {
        let parts: Vec<Sample<u64>> = (0..rates.len() as u64)
            .map(|i| plain_bernoulli(i * per..(i + 1) * per, rates[i as usize], n_f, &mut rng))
            .collect();
        let m = merge_tree_parallel(parts, 1e-3, 1, &mut rng).unwrap();
        assert!(matches!(m.kind(), SampleKind::Bernoulli { .. }));
        for (v, _) in m.histogram().iter() {
            incl[*v as usize] += 1;
        }
    }
    let t = trials as f64;
    let stat: f64 = incl
        .iter()
        .map(|&x| {
            let d = x as f64 - t * q;
            d * d / (t * q * (1.0 - q))
        })
        .sum();
    let pv = chi_square_p_value(stat, n as f64);
    assert!(pv > 1e-4, "inclusion at q={q}: chi2={stat:.1} p={pv:.2e}");
}

#[test]
fn overflowing_bernoulli_plan_stays_uniform() {
    // 32 leaves, n_F = 8, p = 0.4: the two 16-way HB nodes overflow often,
    // so the root sees reservoirs and merges hypergeometrically.
    let rates = [0.4, 0.6, 0.8, 0.5];
    let (per, n_f, trials, leaves) = (10u64, 8u64, 1_500usize, 32u64);
    let n = per * leaves;
    let mut rng = seeded_rng(4);
    let mut incl = vec![0u64; n as usize];
    let mut reservoirs = 0usize;
    for _ in 0..trials {
        let parts: Vec<Sample<u64>> = (0..leaves)
            .map(|i| {
                plain_bernoulli(
                    i * per..(i + 1) * per,
                    rates[(i % 4) as usize],
                    n_f,
                    &mut rng,
                )
            })
            .collect();
        let m = merge_tree_parallel(parts, 0.4, 1, &mut rng).unwrap();
        assert!(m.size() <= n_f);
        reservoirs += usize::from(m.kind() == SampleKind::Reservoir);
        for (v, _) in m.histogram().iter() {
            incl[*v as usize] += 1;
        }
    }
    assert!(
        reservoirs > trials / 20,
        "only {reservoirs} overflowed unions"
    );
    let total: u64 = incl.iter().sum();
    let expected = vec![total as f64 / n as f64; n as usize];
    let stat = chi_square_statistic(&incl, &expected);
    let pv = chi_square_p_value(stat, (n - 1) as f64);
    assert!(pv > 1e-4, "not uniform: chi2={stat:.1} p={pv:.2e}");
}
