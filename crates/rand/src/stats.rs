//! Special functions used across the workspace: log-gamma, log binomial
//! coefficients, the regularized incomplete gamma function, and the
//! chi-square CDF (used by the uniformity test harnesses).

use crate::checked::{exact_eq, exact_f64, exact_f64_usize};

/// Natural log of the gamma function, via the Lanczos approximation.
///
/// Accurate to ~15 significant digits for `x > 0`, which is ample for the
/// probability computations in this workspace.
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    // Lanczos coefficients (g = 7, n = 9), standard published values.
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula keeps accuracy for small x.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    // swh-analyze: allow(panic) -- compile-time-constant index into the fixed 9-entry Lanczos table
    let mut a = COEF[0];
    let t = x + 7.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + exact_f64_usize(i));
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Natural log of the binomial coefficient `C(n, k)`.
///
/// Returns `f64::NEG_INFINITY` when `k > n` (the coefficient is zero).
pub fn ln_choose(n: u64, k: u64) -> f64 {
    if k > n {
        return f64::NEG_INFINITY;
    }
    if k == 0 || k == n {
        return 0.0;
    }
    ln_gamma(exact_f64(n) + 1.0) - ln_gamma(exact_f64(k) + 1.0) - ln_gamma(exact_f64(n - k) + 1.0)
}

/// Regularized lower incomplete gamma function `P(a, x)`.
///
/// Computed by the series expansion for `x < a + 1` and by the continued
/// fraction (Lentz's algorithm) otherwise, following Numerical Recipes.
pub fn regularized_gamma_p(a: f64, x: f64) -> f64 {
    assert!(a > 0.0 && x >= 0.0, "invalid arguments a={a}, x={x}");
    if exact_eq(x, 0.0) {
        return 0.0;
    }
    if x < a + 1.0 {
        // Series representation.
        let mut ap = a;
        let mut sum = 1.0 / a;
        let mut del = sum;
        for _ in 0..500 {
            ap += 1.0;
            del *= x / ap;
            sum += del;
            if del.abs() < sum.abs() * 1e-15 {
                break;
            }
        }
        sum * (-x + a * x.ln() - ln_gamma(a)).exp()
    } else {
        // Continued fraction for Q(a, x); P = 1 - Q.
        let mut b = x + 1.0 - a;
        let mut c = 1.0 / 1e-300;
        let mut d = 1.0 / b;
        let mut h = d;
        for i in 1..500u64 {
            let an = -exact_f64(i) * (exact_f64(i) - a);
            b += 2.0;
            d = an * d + b;
            if d.abs() < 1e-300 {
                d = 1e-300;
            }
            c = b + an / c;
            if c.abs() < 1e-300 {
                c = 1e-300;
            }
            d = 1.0 / d;
            let del = d * c;
            h *= del;
            if (del - 1.0).abs() < 1e-15 {
                break;
            }
        }
        1.0 - h * (-x + a * x.ln() - ln_gamma(a)).exp()
    }
}

/// Regularized incomplete beta function `I_x(a, b)`, via the continued
/// fraction of Numerical Recipes (`betacf`), with the symmetry transform for
/// fast convergence.
pub fn regularized_beta(a: f64, b: f64, x: f64) -> f64 {
    assert!(
        a > 0.0 && b > 0.0,
        "beta parameters must be positive (a={a}, b={b})"
    );
    assert!((0.0..=1.0).contains(&x), "x must lie in [0, 1], got {x}");
    if exact_eq(x, 0.0) {
        return 0.0;
    }
    if exact_eq(x, 1.0) {
        return 1.0;
    }
    let front =
        (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_cf(a, b, x) / a
    } else {
        1.0 - front * beta_cf(b, a, 1.0 - x) / b
    }
}

/// Lentz continued-fraction evaluation for the incomplete beta function.
fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < TINY {
        d = TINY;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..300u64 {
        let m = exact_f64(m);
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < 1e-15 {
            break;
        }
    }
    h
}

/// Exact binomial upper tail `P(X > m)` for `X ~ Binomial(n, q)`, via the
/// incomplete-beta identity `P(X ≤ m) = I_{1−q}(n−m, m+1)`.
///
/// This is the function `f(q)` of the paper (§4.1), whose root `f(q) = p`
/// defines the exact Bernoulli rate that Eq. (1) approximates.
pub fn binomial_tail_gt(n: u64, q: f64, m: u64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "q must lie in [0, 1], got {q}");
    if m >= n {
        return 0.0;
    }
    // P(X > m) = I_q(m+1, n-m).
    regularized_beta(exact_f64(m) + 1.0, exact_f64(n - m), q)
}

/// CDF of the chi-square distribution with `df` degrees of freedom.
pub fn chi_square_cdf(x: f64, df: f64) -> f64 {
    assert!(df > 0.0, "degrees of freedom must be positive");
    if x <= 0.0 {
        return 0.0;
    }
    regularized_gamma_p(df / 2.0, x / 2.0)
}

/// Pearson chi-square statistic for observed counts against expected counts.
///
/// Panics if the slices differ in length or any expected count is
/// non-positive.
pub fn chi_square_statistic(observed: &[u64], expected: &[f64]) -> f64 {
    assert_eq!(observed.len(), expected.len(), "length mismatch");
    observed
        .iter()
        .zip(expected)
        .map(|(&o, &e)| {
            assert!(e > 0.0, "expected counts must be positive");
            let d = exact_f64(o) - e;
            d * d / e
        })
        .sum()
}

/// p-value of a Pearson chi-square test with `df` degrees of freedom.
pub fn chi_square_p_value(statistic: f64, df: f64) -> f64 {
    1.0 - chi_square_cdf(statistic, df)
}

/// Two-sample (homogeneity) chi-square test of two count vectors over the
/// same ordered cells: do `a` and `b` come from one distribution? Adjacent
/// cells are pooled until each pooled cell holds at least `min_pooled`
/// counts of the two samples together (a trailing short cell joins its
/// predecessor), so expected counts stay large enough for the chi-square
/// approximation. Returns `(statistic, degrees of freedom)`.
///
/// # Panics
/// Panics if the slices differ in length or either sample is empty.
pub fn chi_square_two_sample(a: &[u64], b: &[u64], min_pooled: u64) -> (f64, f64) {
    assert_eq!(a.len(), b.len(), "length mismatch");
    let (total_a, total_b) = (a.iter().sum::<u64>(), b.iter().sum::<u64>());
    assert!(total_a > 0 && total_b > 0, "both samples must be non-empty");
    let mut cells: Vec<(u64, u64)> = Vec::new();
    let mut open = (0u64, 0u64);
    for (&x, &y) in a.iter().zip(b) {
        open = (open.0 + x, open.1 + y);
        if open.0 + open.1 >= min_pooled {
            cells.push(open);
            open = (0, 0);
        }
    }
    match cells.last_mut() {
        Some(last) => *last = (last.0 + open.0, last.1 + open.1),
        None => cells.push(open),
    }
    let share_a = exact_f64(total_a) / exact_f64(total_a + total_b);
    let statistic = cells
        .iter()
        .map(|&(x, y)| {
            let n = exact_f64(x + y);
            let (ea, eb) = (n * share_a, n * (1.0 - share_a));
            let (da, db) = (exact_f64(x) - ea, exact_f64(y) - eb);
            da * da / ea + db * db / eb
        })
        .sum();
    (statistic, exact_f64_usize(cells.len().saturating_sub(1)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} vs {b} (tol {tol})");
    }

    #[test]
    fn two_sample_chi_square_pools_and_separates() {
        // Identical samples: statistic 0, cells pooled to >= 20 counts.
        let a = [5u64, 5, 5, 5, 20, 1];
        let (stat, df) = chi_square_two_sample(&a, &a, 20);
        assert_close(stat, 0.0, 1e-12);
        // Pooled cells: (5+5)*2=20 | (5+5)*2=20 | 40+2 -> 3 cells, df 2.
        assert_close(df, 2.0, 1e-12);
        // Disjoint supports: a large statistic.
        let (stat, df) = chi_square_two_sample(&[100, 0], &[0, 100], 1);
        assert_close(df, 1.0, 1e-12);
        assert_close(stat, 200.0, 1e-9);
        assert!(chi_square_p_value(stat, df) < 1e-12);
    }

    #[test]
    fn ln_gamma_matches_factorials() {
        // Gamma(n) = (n-1)!
        let mut fact = 1.0f64;
        for n in 1..15u32 {
            if n > 1 {
                fact *= (n - 1) as f64;
            }
            assert_close(ln_gamma(n as f64), fact.ln(), 1e-9);
        }
    }

    #[test]
    fn ln_gamma_half_integer() {
        // Gamma(1/2) = sqrt(pi)
        assert_close(ln_gamma(0.5), std::f64::consts::PI.sqrt().ln(), 1e-10);
        // Gamma(3/2) = sqrt(pi)/2
        assert_close(
            ln_gamma(1.5),
            (std::f64::consts::PI.sqrt() / 2.0).ln(),
            1e-10,
        );
    }

    #[test]
    fn ln_choose_small_values() {
        assert_close(ln_choose(5, 2), 10.0f64.ln(), 1e-10);
        assert_close(ln_choose(10, 5), 252.0f64.ln(), 1e-10);
        assert_close(ln_choose(52, 5), 2_598_960.0f64.ln(), 1e-8);
        assert_eq!(ln_choose(3, 7), f64::NEG_INFINITY);
        assert_close(ln_choose(7, 0), 0.0, 1e-12);
        assert_close(ln_choose(7, 7), 0.0, 1e-12);
    }

    #[test]
    fn regularized_gamma_known_values() {
        // P(1, x) = 1 - exp(-x)
        for &x in &[0.1, 0.5, 1.0, 2.0, 5.0] {
            assert_close(regularized_gamma_p(1.0, x), 1.0 - (-x).exp(), 1e-12);
        }
        // P(a, 0) = 0; P(a, inf) -> 1
        assert_eq!(regularized_gamma_p(3.0, 0.0), 0.0);
        assert_close(regularized_gamma_p(3.0, 100.0), 1.0, 1e-12);
    }

    #[test]
    fn chi_square_cdf_known_values() {
        // chi2 with 2 df is Exp(1/2): CDF(x) = 1 - exp(-x/2).
        for &x in &[0.5, 1.0, 2.0, 4.0, 10.0] {
            assert_close(chi_square_cdf(x, 2.0), 1.0 - (-x / 2.0f64).exp(), 1e-12);
        }
        // Median of chi2(1) is ~0.4549.
        assert_close(chi_square_cdf(0.454_936, 1.0), 0.5, 1e-4);
        // 95th percentile of chi2(10) is ~18.307.
        assert_close(chi_square_cdf(18.307, 10.0), 0.95, 1e-4);
    }

    #[test]
    fn regularized_beta_known_values() {
        // I_x(1, 1) = x (uniform CDF).
        for &x in &[0.0, 0.25, 0.5, 0.75, 1.0] {
            assert_close(regularized_beta(1.0, 1.0, x), x, 1e-12);
        }
        // I_x(2, 2) = 3x^2 - 2x^3.
        for &x in &[0.1, 0.3, 0.5, 0.9] {
            assert_close(
                regularized_beta(2.0, 2.0, x),
                3.0 * x * x - 2.0 * x * x * x,
                1e-12,
            );
        }
        // Symmetry: I_x(a,b) = 1 - I_{1-x}(b,a).
        assert_close(
            regularized_beta(3.5, 2.2, 0.4),
            1.0 - regularized_beta(2.2, 3.5, 0.6),
            1e-12,
        );
    }

    #[test]
    fn binomial_tail_matches_direct_sum() {
        // Direct summation for a small case.
        let (n, q, m) = (20u64, 0.3f64, 8u64);
        let direct: f64 = (m + 1..=n)
            .map(|j| (ln_choose(n, j) + j as f64 * q.ln() + (n - j) as f64 * (1.0 - q).ln()).exp())
            .sum();
        assert_close(binomial_tail_gt(n, q, m), direct, 1e-12);
    }

    #[test]
    fn binomial_tail_monotone_in_q() {
        let mut prev = 0.0;
        for i in 1..20 {
            let q = i as f64 / 20.0;
            let t = binomial_tail_gt(100_000, q, 8192);
            assert!(t >= prev, "tail not monotone at q={q}");
            prev = t;
        }
    }

    #[test]
    fn binomial_tail_edges() {
        assert_eq!(binomial_tail_gt(10, 0.5, 10), 0.0);
        assert_eq!(binomial_tail_gt(10, 0.5, 15), 0.0);
        assert_close(binomial_tail_gt(10, 1.0, 5), 1.0, 1e-12);
        assert_close(binomial_tail_gt(10, 0.0, 5), 0.0, 1e-12);
    }

    #[test]
    fn chi_square_statistic_perfect_fit_is_zero() {
        let obs = [10u64, 20, 30];
        let exp = [10.0, 20.0, 30.0];
        assert_eq!(chi_square_statistic(&obs, &exp), 0.0);
    }

    #[test]
    fn chi_square_p_value_extremes() {
        assert!(chi_square_p_value(0.0, 5.0) > 0.999);
        assert!(chi_square_p_value(100.0, 5.0) < 1e-6);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn chi_square_statistic_length_mismatch_panics() {
        chi_square_statistic(&[1, 2], &[1.0]);
    }
}
