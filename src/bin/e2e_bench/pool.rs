//! The benchmark's only input: one pool of Zipf(4000, s = 1) rows generated
//! from the seed, plus prefix sums of the queried quantity. Every partition
//! is a slice of the pool, so each query's exact answer, parent size and
//! true standard error are known without keeping the ingested rows.

use std::ops::{Add, Sub};
use swh_workloads::{DataDistribution, DataSpec};

/// Every query estimates `SUM(v) WHERE v <= PRED_MAX`: with Zipf(4000, 1)
/// that predicate keeps about 58% of the mass, so the estimate is neither
/// trivial nor dominated by a handful of rows.
pub const PRED_MAX: u64 = 100;

/// The queried quantity for one row.
pub fn pred_value(v: u64) -> u64 {
    if v <= PRED_MAX {
        v
    } else {
        0
    }
}

/// Exact totals of [`pred_value`] over a set of rows: the query's answer
/// and the sum of squares that sizes a sample's standard error.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    pub sum: u64,
    pub sum_sq: u64,
}

impl Totals {
    fn of(v: u64) -> Totals {
        let y = pred_value(v);
        Totals {
            sum: y,
            sum_sq: y * y,
        }
    }
}

impl Add for Totals {
    type Output = Totals;
    fn add(self, o: Totals) -> Totals {
        Totals {
            sum: self.sum + o.sum,
            sum_sq: self.sum_sq + o.sum_sq,
        }
    }
}

impl Sub for Totals {
    type Output = Totals;
    fn sub(self, o: Totals) -> Totals {
        Totals {
            sum: self.sum - o.sum,
            sum_sq: self.sum_sq - o.sum_sq,
        }
    }
}

impl std::iter::Sum for Totals {
    fn sum<I: Iterator<Item = Totals>>(iter: I) -> Totals {
        iter.fold(Totals::default(), Add::add)
    }
}

/// Generated rows plus prefix sums of [`pred_value`].
#[derive(Debug)]
pub struct Pool {
    rows: Vec<u64>,
    /// `prefix[i]` is the sum of `pred_value` over `rows[..i]`.
    prefix: Vec<u64>,
}

impl Pool {
    /// `len` rows of Zipf(4000, 1), a pure function of `seed`.
    pub fn generate(len: u64, seed: u64) -> Pool {
        let spec = DataSpec::new(DataDistribution::PAPER_ZIPF, len, seed);
        let rows: Vec<u64> = spec.partition_stream(0, len).collect();
        let mut prefix = Vec::with_capacity(rows.len() + 1);
        let mut acc = 0u64;
        prefix.push(acc);
        for &v in &rows {
            acc += pred_value(v);
            prefix.push(acc);
        }
        Pool { rows, prefix }
    }

    /// Rows `[start, start + len)`.
    pub fn slice(&self, start: u64, len: u64) -> &[u64] {
        &self.rows[start as usize..(start + len) as usize]
    }

    /// Exact totals of `v WHERE v <= PRED_MAX` over rows
    /// `[start, start + len)`: the sum from the prefix sums, the sum of
    /// squares from a pass over the rows. Only set-up needs the latter, so
    /// the pool keeps one prefix array (64 MiB at 2²³ rows), not two.
    pub fn pred_sum(&self, start: u64, len: u64) -> Totals {
        Totals {
            sum: self.prefix[(start + len) as usize] - self.prefix[start as usize],
            sum_sq: self
                .slice(start, len)
                .iter()
                .map(|&v| Totals::of(v).sum_sq)
                .sum(),
        }
    }

    /// Exact totals over the rows of `[start, start + len)` that a
    /// round-robin split over `k` streams hands to stream `s` (offsets
    /// `s, s + k, ...`).
    pub fn strided_pred_sum(&self, start: u64, len: u64, k: u64, s: u64) -> Totals {
        self.slice(start, len)
            .iter()
            .skip(s as usize)
            .step_by(k as usize)
            .map(|&v| Totals::of(v))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_sums_match_brute_force() {
        let pool = Pool::generate(10_000, 7);
        assert_eq!(pool.rows.len(), 10_000);
        let brute = |rows: &mut dyn Iterator<Item = u64>| {
            rows.map(pred_value)
                .fold((0, 0), |(s, sq), y| (s + y, sq + y * y))
        };
        for (start, len) in [(0, 10_000), (0, 1), (17, 0), (123, 4567), (9_999, 1)] {
            let t = pool.pred_sum(start, len);
            let want = brute(&mut pool.slice(start, len).iter().copied());
            assert_eq!((t.sum, t.sum_sq), want, "[{start}, +{len})");
        }
        assert!(pool.pred_sum(0, 10_000).sum_sq > pool.pred_sum(0, 10_000).sum);
        // The strided shares of a slice partition it.
        let shares: Totals = (0..4).map(|s| pool.strided_pred_sum(256, 4096, 4, s)).sum();
        assert_eq!(shares, pool.pred_sum(256, 4096));
        let t = pool.strided_pred_sum(256, 4096, 4, 1);
        let want = brute(
            &mut (256..256 + 4096)
                .filter(|i| (i - 256) % 4 == 1)
                .map(|i| pool.rows[i as usize]),
        );
        assert_eq!((t.sum, t.sum_sq), want);
    }

    #[test]
    fn pool_is_a_function_of_the_seed() {
        assert_eq!(Pool::generate(1000, 3).rows, Pool::generate(1000, 3).rows);
        assert_ne!(Pool::generate(1000, 3).rows, Pool::generate(1000, 4).rows);
    }
}
