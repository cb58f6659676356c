//! The purge operators of Figs. 3 and 4: subsample a compact histogram in
//! place, without ever expanding it to a bag.
//!
//! * [`purge_bernoulli`] takes a `Bern(q)` subsample by thinning each
//!   `(value, count)` pair with a binomial draw (Fig. 3).
//! * [`purge_reservoir`] takes a simple random subsample of a given size by
//!   streaming reservoir sampling over the (implicitly expanded) pairs,
//!   using the skip function and count-weighted victim selection (Fig. 4).
//!   Victim lookup uses a Fenwick tree over the in-progress counts, so each
//!   eviction costs `O(log #pairs)` instead of the figure's linear scan.
//!   When it keeps at most half the elements it draws their positions
//!   instead ([`POSITIONAL_CUTOVER`]), so the cost follows the output.

use crate::fxhash::FxHashSet;
use crate::histogram::CompactHistogram;
use crate::invariant::invariant;
use crate::value::SampleValue;
use rand::Rng;
use swh_rand::binomial::BinomialRate;
use swh_rand::checked::index_u64;
use swh_rand::skip::{BernoulliSkip, ReservoirSkip};

/// Fig. 3 — `purgeBernoulli(S, q)`: replace each count `n` with a
/// `Binomial(n, q)` draw, dropping pairs that reach zero. The result is a
/// `Bern(q)` subsample of the bag `S` represents.
///
/// # Panics
/// Panics unless `0 ≤ q ≤ 1`.
pub fn purge_bernoulli<T: SampleValue, R: Rng + ?Sized>(
    hist: &mut CompactHistogram<T>,
    q: f64,
    rng: &mut R,
) {
    assert!((0.0..=1.0).contains(&q), "q must lie in [0, 1], got {q}");
    if q == 1.0 {
        return;
    }
    // One rate for every pair: precompute the waiting-time constants once.
    let rate = BinomialRate::new(q);
    hist.transform_counts(|_, n| rate.sample(rng, n));
}

/// Positional subsampling serves `m` of `n` elements when
/// `m ≤ n / POSITIONAL_CUTOVER`, i.e. when it keeps at most half of them.
/// There Floyd's method draws `m` positions in `O(m log m)` against Fig. 4's
/// `O(n)` pass with a Fenwick update per inclusion; nearer to `n`, Fig. 4's
/// pass keeps running.
pub const POSITIONAL_CUTOVER: u64 = 2;

/// Whether [`purge_reservoir`] and [`reservoir_subsample_ref`] keep `m` of
/// `n` elements by position rather than by Fig. 4's pass.
fn positional(m: u64, n: u64) -> bool {
    m <= n / POSITIONAL_CUTOVER
}

/// `m` distinct positions drawn uniformly from `0..n`, ascending (Floyd's
/// method: for `j` in `n-m..n`, take a uniform `t ≤ j`, or `j` itself when
/// `t` is already taken).
///
/// # Panics
/// Panics if `m > n`.
pub fn distinct_positions<R: Rng + ?Sized>(n: u64, m: u64, rng: &mut R) -> Vec<u64> {
    assert!(m <= n, "cannot draw {m} distinct positions from {n}");
    let mut taken: FxHashSet<u64> =
        FxHashSet::with_capacity_and_hasher(usize::try_from(m).unwrap_or(0), Default::default());
    for j in n - m..n {
        let t = rng.random_range(0..=j);
        if !taken.insert(t) {
            taken.insert(j);
        }
    }
    let mut positions: Vec<u64> = taken.into_iter().collect();
    positions.sort_unstable();
    positions
}

/// Walks a histogram's pairs in iteration order as consecutive runs of the
/// bag's positions and counts how many of the kept positions each run holds.
struct PositionCursor {
    positions: Vec<u64>,
    next: usize,
    start: u64,
}

impl PositionCursor {
    fn new(positions: Vec<u64>) -> Self {
        Self {
            positions,
            next: 0,
            start: 0,
        }
    }

    /// Kept elements among the next `count` positions.
    fn take(&mut self, count: u64) -> u64 {
        let end = self.start + count;
        let before = self.next;
        while self.positions.get(self.next).is_some_and(|&p| p < end) {
            self.next += 1;
        }
        self.start = end;
        index_u64(self.next - before)
    }
}

/// Fig. 4 — `purgeReservoir(S, M)`: take a simple random subsample of
/// exactly `m` data elements (no-op when `|S| ≤ m`), keeping `S` in compact
/// form throughout.
///
/// Up to `m ≤ n / POSITIONAL_CUTOVER` the subsample is drawn by position
/// instead: `m` distinct positions of the implicit bag
/// ([`distinct_positions`]), mapped to pairs by prefix counts in one pass
/// over the pairs, with only the survivors copied into a fresh histogram.
/// Every `m`-subset of the bag is equally likely either way;
/// [`purge_reservoir_fig4`] is the figure's pass alone.
pub fn purge_reservoir<T: SampleValue, R: Rng + ?Sized>(
    hist: &mut CompactHistogram<T>,
    m: u64,
    rng: &mut R,
) {
    let total = hist.total();
    if total <= m {
        return;
    }
    if positional(m, total) {
        *hist = reservoir_subsample_ref(hist, m, rng);
    } else {
        purge_reservoir_fig4(hist, m, rng);
    }
    invariant!(
        hist.total() == m,
        "purgeReservoir left {} elements, bound was {m}",
        hist.total()
    );
}

/// Fig. 4's reservoir pass on its own, for every `m`: the reference
/// [`purge_reservoir`] is checked against.
pub fn purge_reservoir_fig4<T: SampleValue, R: Rng + ?Sized>(
    hist: &mut CompactHistogram<T>,
    m: u64,
    rng: &mut R,
) {
    if hist.total() > m {
        *hist = reservoir_subsample_fig4(hist, m, rng);
    }
}

/// [`purge_reservoir`] against a borrowed histogram: take a simple random
/// subsample of exactly `m` elements (a full clone when `|S| ≤ m`) without
/// mutating `hist`, cloning only the values that survive. Borrow-side
/// counterpart used by the zero-copy merge path, where the input sample is
/// behind a shared reference. Same cut-over between positions and Fig. 4's
/// pass as [`purge_reservoir`].
pub fn reservoir_subsample_ref<T: SampleValue, R: Rng + ?Sized>(
    hist: &CompactHistogram<T>,
    m: u64,
    rng: &mut R,
) -> CompactHistogram<T> {
    let total = hist.total();
    if total <= m {
        return hist.clone();
    }
    if !positional(m, total) {
        return reservoir_subsample_fig4(hist, m, rng);
    }
    let distinct = u64::try_from(hist.distinct()).unwrap_or(u64::MAX);
    let mut out = CompactHistogram::with_slot_capacity(m.min(distinct));
    reservoir_subsample_into(hist, m, &mut out, rng);
    out
}

/// Add a simple random subsample of `min(m, |S|)` elements of `hist` to
/// `out`, cloning only the survivors: the kernel of the multiway merge
/// nodes, which gather every input's share into one histogram. Same
/// cut-over between positions and Fig. 4's pass as [`purge_reservoir`].
pub fn reservoir_subsample_into<T: SampleValue, R: Rng + ?Sized>(
    hist: &CompactHistogram<T>,
    m: u64,
    out: &mut CompactHistogram<T>,
    rng: &mut R,
) {
    let total = hist.total();
    #[cfg(feature = "debug_invariants")]
    let before = out.total();
    if total <= m {
        for (v, c) in hist.iter() {
            out.insert_count(v.clone(), c);
        }
    } else if positional(m, total) {
        let mut cursor = PositionCursor::new(distinct_positions(total, m, rng));
        for (v, c) in hist.iter() {
            let kept = cursor.take(c);
            if kept > 0 {
                out.insert_count(v.clone(), kept);
            }
        }
    } else {
        out.join(reservoir_subsample_fig4(hist, m, rng));
    }
    invariant!(
        out.total() - before == m.min(total),
        "reservoir subsample added {} elements, wanted {}",
        out.total() - before,
        m.min(total)
    );
}

/// Fig. 4's pass (with Fenwick victim lookup) over the borrowed pairs of
/// `hist`, which must hold more than `m` elements; values are cloned only on
/// insert into the output.
fn reservoir_subsample_fig4<T: SampleValue, R: Rng + ?Sized>(
    hist: &CompactHistogram<T>,
    m: u64,
    rng: &mut R,
) -> CompactHistogram<T> {
    let mut out = CompactHistogram::new();
    if m == 0 {
        return out;
    }
    // The stream order is the (arbitrary but fixed) iteration order, which
    // does not affect uniformity.
    let pairs: Vec<(&T, u64)> = hist.iter().collect();
    let mut new_counts = vec![0u64; pairs.len()];
    let mut tree = Fenwick::new(pairs.len());

    let mut skip_gen = ReservoirSkip::new(m, rng);
    // j: 1-based index of the next element of the implicit bag to include.
    let mut j: u64 = 1;
    // l: current number of elements in the reservoir.
    let mut level: u64 = 0;
    // b: upper bucket boundary of the current pair.
    let mut b: u64 = 0;

    for (i, (_, old_count)) in pairs.iter().enumerate() {
        b += old_count;
        while j <= b {
            if level == m {
                // Evict a uniformly chosen current reservoir element.
                let target = rng.random_range(1..=m);
                let victim = tree.find_prefix(target);
                tree.add(victim, -1);
                new_counts[victim] -= 1;
                level -= 1;
            }
            new_counts[i] += 1;
            tree.add(i, 1);
            level += 1;
            // Next inclusion: deterministic while filling, skip-based after.
            j += if level < m { 1 } else { skip_gen.skip(j, rng) };
        }
    }
    debug_assert_eq!(level, m);

    for ((v, _), n) in pairs.into_iter().zip(new_counts) {
        if n > 0 {
            out.insert_count(v.clone(), n);
        }
    }
    out
}

/// [`purge_bernoulli`] against a borrowed histogram: take a `Bern(q)`
/// subsample without mutating `hist`, cloning only surviving values (see
/// [`bernoulli_subsample_into`]).
///
/// # Panics
/// Panics unless `0 < q ≤ 1`.
pub fn bernoulli_subsample_ref<T: SampleValue, R: Rng + ?Sized>(
    hist: &CompactHistogram<T>,
    q: f64,
    rng: &mut R,
) -> CompactHistogram<T> {
    if q == 1.0 {
        return hist.clone();
    }
    let mut out = CompactHistogram::new();
    bernoulli_subsample_into(hist, q, &mut out, rng);
    out
}

/// Add a `Bern(q)` subsample of `hist` to `out`, cloning only surviving
/// values, and return how many elements survived. Instead of one binomial
/// draw per pair (Fig. 3), it walks the implicit bag with geometric gaps
/// between kept elements ([`BernoulliSkip`]), so the random draws follow
/// the output, not the input.
///
/// # Panics
/// Panics unless `0 < q ≤ 1`.
pub fn bernoulli_subsample_into<T: SampleValue, R: Rng + ?Sized>(
    hist: &CompactHistogram<T>,
    q: f64,
    out: &mut CompactHistogram<T>,
    rng: &mut R,
) -> u64 {
    let skip = BernoulliSkip::new(q);
    let before = out.total();
    // Elements still to pass over before the next kept one.
    let mut gap = skip.skip(rng);
    for (v, c) in hist.iter() {
        let (mut left, mut kept) = (c, 0u64);
        while gap < left {
            kept += 1;
            left -= gap + 1;
            gap = skip.skip(rng);
        }
        gap -= left;
        if kept > 0 {
            out.insert_count(v.clone(), kept);
        }
    }
    out.total() - before
}

/// Fenwick (binary indexed) tree over pair counts, supporting point update
/// and "find smallest index with prefix sum ≥ target" in `O(log n)`.
struct Fenwick {
    tree: Vec<i64>,
    /// Smallest power of two ≥ len, for the binary-lifting search.
    top: usize,
}

impl Fenwick {
    fn new(len: usize) -> Self {
        let top = len.next_power_of_two().max(1);
        Self {
            tree: vec![0; len + 1],
            top,
        }
    }

    /// Add `delta` at index `i` (0-based).
    fn add(&mut self, i: usize, delta: i64) {
        let mut i = i + 1;
        while i < self.tree.len() {
            self.tree[i] += delta;
            i += i & i.wrapping_neg();
        }
    }

    /// Smallest 0-based index `l` such that `sum(counts[0..=l]) ≥ target`
    /// (`target ≥ 1`).
    fn find_prefix(&self, target: u64) -> usize {
        let mut pos = 0usize;
        let mut remaining = target as i64;
        let mut step = self.top;
        while step > 0 {
            let next = pos + step;
            if next < self.tree.len() && self.tree[next] < remaining {
                remaining -= self.tree[next];
                pos = next;
            }
            step >>= 1;
        }
        pos // 0-based: pos is the count of indices fully skipped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swh_rand::seeded_rng;
    use swh_rand::stats::{chi_square_p_value, chi_square_statistic, chi_square_two_sample};

    #[test]
    fn fenwick_basic() {
        let mut f = Fenwick::new(5);
        for (i, c) in [3i64, 0, 2, 5, 1].iter().enumerate() {
            f.add(i, *c);
        }
        // counts: [3,0,2,5,1]; prefix sums: [3,3,5,10,11]
        assert_eq!(f.find_prefix(1), 0);
        assert_eq!(f.find_prefix(3), 0);
        assert_eq!(f.find_prefix(4), 2);
        assert_eq!(f.find_prefix(5), 2);
        assert_eq!(f.find_prefix(6), 3);
        assert_eq!(f.find_prefix(10), 3);
        assert_eq!(f.find_prefix(11), 4);
        f.add(0, -3);
        assert_eq!(f.find_prefix(1), 2);
    }

    #[test]
    fn bernoulli_purge_rate_one_is_identity() {
        let mut h = CompactHistogram::from_bag(vec![1u64, 1, 2, 3, 3, 3]);
        let before = h.clone();
        purge_bernoulli(&mut h, 1.0, &mut seeded_rng(1));
        assert_eq!(h, before);
    }

    #[test]
    fn bernoulli_purge_rate_zero_empties() {
        let mut h = CompactHistogram::from_bag(vec![1u64, 2, 3]);
        purge_bernoulli(&mut h, 0.0, &mut seeded_rng(1));
        assert!(h.is_empty());
        assert_eq!(h.slots(), 0);
    }

    #[test]
    fn bernoulli_purge_thins_at_rate_q() {
        let mut rng = seeded_rng(42);
        let q = 0.3;
        let trials = 2_000;
        let mut kept = 0u64;
        for _ in 0..trials {
            let mut h = CompactHistogram::new();
            h.insert_count(1u64, 50);
            h.insert_count(2u64, 30);
            h.insert_count(3u64, 20);
            purge_bernoulli(&mut h, q, &mut rng);
            kept += h.total();
        }
        let mean = kept as f64 / trials as f64;
        let expect = 100.0 * q;
        // Standard error of the mean ≈ sqrt(100·q(1−q)/trials) ≈ 0.10.
        assert!((mean - expect).abs() < 0.6, "mean {mean} vs {expect}");
    }

    #[test]
    fn bernoulli_purge_keeps_bookkeeping_consistent() {
        let mut rng = seeded_rng(3);
        let mut h = CompactHistogram::new();
        for v in 0..100u64 {
            h.insert_count(v, (v % 7) + 1);
        }
        purge_bernoulli(&mut h, 0.4, &mut rng);
        let rebuilt = CompactHistogram::from_bag(h.expand());
        assert_eq!(h, rebuilt);
        assert_eq!(h.total(), rebuilt.total());
        assert_eq!(h.slots(), rebuilt.slots());
    }

    #[test]
    fn reservoir_purge_yields_exact_size() {
        let mut rng = seeded_rng(5);
        for &m in &[1u64, 7, 50, 99] {
            let mut h = CompactHistogram::new();
            for v in 0..20u64 {
                h.insert_count(v, 5);
            }
            purge_reservoir(&mut h, m, &mut rng);
            assert_eq!(h.total(), m, "m={m}");
            // Rebuild check.
            let rebuilt = CompactHistogram::from_bag(h.expand());
            assert_eq!(h, rebuilt);
        }
    }

    #[test]
    fn reservoir_purge_noop_when_small() {
        let mut h = CompactHistogram::from_bag(vec![1u64, 2, 2]);
        let before = h.clone();
        purge_reservoir(&mut h, 10, &mut seeded_rng(1));
        assert_eq!(h, before);
    }

    #[test]
    fn reservoir_purge_to_zero() {
        let mut h = CompactHistogram::from_bag(vec![1u64, 2, 2]);
        purge_reservoir(&mut h, 0, &mut seeded_rng(1));
        assert!(h.is_empty());
    }

    #[test]
    fn reservoir_purge_subset_of_original() {
        let mut rng = seeded_rng(9);
        let mut h = CompactHistogram::new();
        h.insert_count(1u64, 10);
        h.insert_count(2u64, 3);
        let orig = h.clone();
        purge_reservoir(&mut h, 6, &mut rng);
        for (v, c) in h.iter() {
            assert!(c <= orig.count(v), "count inflated for {v:?}");
        }
    }

    #[test]
    fn reservoir_purge_is_uniform_over_elements() {
        // Bag of 20 distinct values, subsample 10; each element must appear
        // with frequency ~1/2.
        let mut rng = seeded_rng(11);
        let trials = 20_000usize;
        let mut incl = [0u64; 20];
        for _ in 0..trials {
            let mut h = CompactHistogram::from_bag((0..20u64).collect::<Vec<_>>());
            purge_reservoir(&mut h, 10, &mut rng);
            for (v, c) in h.iter() {
                assert_eq!(c, 1);
                incl[*v as usize] += 1;
            }
        }
        for (v, &c) in incl.iter().enumerate() {
            let freq = c as f64 / trials as f64;
            // sd of freq ≈ sqrt(0.25/20000) ≈ 0.0035; allow 5 sd.
            assert!((freq - 0.5).abs() < 0.02, "value {v}: freq {freq}");
        }
    }

    #[test]
    fn reservoir_purge_uniform_with_duplicates() {
        // Bag {a,a,a,b}: a subsample of size 2 contains b with probability
        // C(3,1)/C(4,2) = 3/6 = 1/2.
        let mut rng = seeded_rng(13);
        let trials = 20_000usize;
        let mut b_present = 0u64;
        for _ in 0..trials {
            let mut h = CompactHistogram::new();
            h.insert_count(0u64, 3);
            h.insert_count(1u64, 1);
            purge_reservoir(&mut h, 2, &mut rng);
            if h.count(&1) == 1 {
                b_present += 1;
            }
        }
        let freq = b_present as f64 / trials as f64;
        assert!((freq - 0.5).abs() < 0.02, "freq {freq}");
    }

    #[test]
    fn reservoir_subsample_ref_matches_purge_semantics() {
        let mut rng = seeded_rng(17);
        let mut h = CompactHistogram::new();
        for v in 0..20u64 {
            h.insert_count(v, 5);
        }
        for &m in &[0u64, 1, 7, 50, 99, 100, 200] {
            let out = reservoir_subsample_ref(&h, m, &mut rng);
            assert_eq!(out.total(), m.min(h.total()), "m={m}");
            // Subset property: no count inflated, source untouched.
            for (v, c) in out.iter() {
                assert!(c <= h.count(v), "count inflated for {v:?}");
            }
            assert_eq!(h.total(), 100);
        }
    }

    #[test]
    fn reservoir_subsample_ref_is_uniform() {
        let mut rng = seeded_rng(19);
        let trials = 20_000usize;
        let mut incl = [0u64; 20];
        let h = CompactHistogram::from_bag((0..20u64).collect::<Vec<_>>());
        for _ in 0..trials {
            let out = reservoir_subsample_ref(&h, 10, &mut rng);
            for (v, c) in out.iter() {
                assert_eq!(c, 1);
                incl[*v as usize] += 1;
            }
        }
        for (v, &c) in incl.iter().enumerate() {
            let freq = c as f64 / trials as f64;
            assert!((freq - 0.5).abs() < 0.02, "value {v}: freq {freq}");
        }
    }

    /// The positional kernel for any `m < |S|`, past the cut-over too.
    fn purge_by_position(hist: &mut CompactHistogram<u64>, m: u64, rng: &mut rand::rngs::SmallRng) {
        let mut out = CompactHistogram::new();
        let mut cursor = PositionCursor::new(distinct_positions(hist.total(), m, rng));
        for (v, c) in hist.iter() {
            let kept = cursor.take(c);
            if kept > 0 {
                out.insert_count(*v, kept);
            }
        }
        *hist = out;
    }

    /// Per-value inclusion totals of `trials` subsamples of `m` elements
    /// drawn by `subsample`, as the smaller side: kept elements when
    /// `m ≤ n/2`, dropped ones otherwise (a test on the larger side has
    /// almost no power).
    fn inclusion_counts(
        hist: &CompactHistogram<u64>,
        m: u64,
        trials: usize,
        rng: &mut rand::rngs::SmallRng,
        mut subsample: impl FnMut(
            &CompactHistogram<u64>,
            &mut rand::rngs::SmallRng,
        ) -> CompactHistogram<u64>,
    ) -> Vec<u64> {
        let values = hist.sorted_pairs();
        let mut kept = vec![0u64; values.len()];
        for _ in 0..trials {
            let out = subsample(hist, rng);
            assert_eq!(out.total(), m);
            for (i, (v, c)) in values.iter().enumerate() {
                assert!(out.count(v) <= *c, "count of {v} inflated");
                kept[i] += out.count(v);
            }
        }
        if 2 * m <= hist.total() {
            kept
        } else {
            let t = trials as u64;
            values
                .iter()
                .zip(kept)
                .map(|((_, c), k)| c * t - k)
                .collect()
        }
    }

    #[test]
    fn positional_subsample_matches_fig4_oracle_with_duplicates() {
        // A bag of 32 elements over 12 values with repeated counts. For m
        // of 1, n/2 and n-1, each value's inclusions must follow
        // m·c_v/n under both the positional kernel and Fig. 4's pass, and
        // the two per-value tallies must be homogeneous.
        let counts = [1u64, 2, 3, 1, 5, 1, 2, 4, 1, 1, 3, 8];
        let mut hist = CompactHistogram::new();
        for (v, &c) in counts.iter().enumerate() {
            hist.insert_count(v as u64, c);
        }
        let n = hist.total();
        assert_eq!(n, 32);
        let trials = 20_000usize;
        let mut rng = seeded_rng(29);
        for m in [1u64, n / 2, n - 1] {
            let positional = inclusion_counts(&hist, m, trials, &mut rng, |h, rng| {
                let mut out = h.clone();
                purge_by_position(&mut out, m, rng);
                out
            });
            let fig4 = inclusion_counts(&hist, m, trials, &mut rng, |h, rng| {
                reservoir_subsample_fig4(h, m, rng)
            });
            let side = m.min(n - m) as f64;
            let expected: Vec<f64> = counts
                .iter()
                .map(|&c| trials as f64 * side * c as f64 / n as f64)
                .collect();
            let df = (counts.len() - 1) as f64;
            for (name, observed) in [("positional", &positional), ("fig4", &fig4)] {
                let stat = chi_square_statistic(observed, &expected);
                let pv = chi_square_p_value(stat, df);
                assert!(pv > 1e-4, "{name} m={m}: chi2={stat:.1} p={pv:.2e}");
            }
            let (stat, df) = chi_square_two_sample(&positional, &fig4, 20);
            let pv = chi_square_p_value(stat, df);
            assert!(
                pv > 1e-4,
                "m={m}: positional vs fig4 chi2={stat:.1} p={pv:.2e}"
            );
        }
    }

    #[test]
    fn purge_reservoir_cuts_over_at_half() {
        // From equal RNG states, the public kernels must match the
        // positional kernel up to m = n/2 and Fig. 4's pass above it.
        let mut hist = CompactHistogram::new();
        for v in 0..40u64 {
            hist.insert_count(v, v % 3 + 1);
        }
        let n = hist.total();
        for m in [0u64, 1, n / 4, n / 2, n / 2 + 1, n - 1] {
            let mut public = hist.clone();
            purge_reservoir(&mut public, m, &mut seeded_rng(m));
            let mut reference = hist.clone();
            if m <= n / 2 {
                purge_by_position(&mut reference, m, &mut seeded_rng(m));
            } else {
                purge_reservoir_fig4(&mut reference, m, &mut seeded_rng(m));
                assert_eq!(
                    reservoir_subsample_ref(&hist, m, &mut seeded_rng(m)),
                    reference,
                    "borrowed m={m}"
                );
            }
            assert_eq!(public, reference, "m={m}");
            assert_eq!(public.total(), m);
            let borrowed = reservoir_subsample_ref(&hist, m, &mut seeded_rng(m));
            assert_eq!(borrowed.total(), m);
            assert!(borrowed.iter().all(|(v, c)| c <= hist.count(v)));
        }
    }

    #[test]
    fn distinct_positions_are_distinct_sorted_and_uniform() {
        let mut rng = seeded_rng(31);
        let (n, m, trials) = (20u64, 7u64, 20_000usize);
        let mut hits = vec![0u64; n as usize];
        for _ in 0..trials {
            let p = distinct_positions(n, m, &mut rng);
            assert_eq!(p.len() as u64, m);
            assert!(p.windows(2).all(|w| w[0] < w[1]), "{p:?}");
            for &x in &p {
                hits[x as usize] += 1;
            }
        }
        let expected = vec![trials as f64 * m as f64 / n as f64; n as usize];
        let stat = chi_square_statistic(&hits, &expected);
        let pv = chi_square_p_value(stat, (n - 1) as f64);
        assert!(pv > 1e-4, "chi2={stat:.1} p={pv:.2e}");
        assert_eq!(distinct_positions(5, 5, &mut rng), vec![0, 1, 2, 3, 4]);
        assert!(distinct_positions(5, 0, &mut rng).is_empty());
    }

    #[test]
    fn bernoulli_subsample_into_keeps_each_element_at_rate_q() {
        // Counts above one exercise gaps that end inside a pair. Each
        // value's kept total over the trials is Binomial(trials·c_v, q).
        let counts = [1u64, 1, 2, 5, 1, 3, 1, 8, 1, 2];
        let mut hist = CompactHistogram::new();
        for (v, &c) in counts.iter().enumerate() {
            hist.insert_count(v as u64, c);
        }
        let mut rng = seeded_rng(33);
        for q in [0.05, 0.3, 0.9, 1.0] {
            let trials = 20_000usize;
            let mut kept = vec![0u64; counts.len()];
            let mut out = CompactHistogram::new();
            for _ in 0..trials {
                out = CompactHistogram::new();
                let n = bernoulli_subsample_into(&hist, q, &mut out, &mut rng);
                assert_eq!(n, out.total());
                for (v, c) in out.iter() {
                    assert!(c <= hist.count(v));
                    kept[*v as usize] += c;
                }
            }
            if q == 1.0 {
                assert_eq!(out, hist);
                continue;
            }
            let t = trials as f64;
            let stat: f64 = counts
                .iter()
                .zip(&kept)
                .map(|(&c, &k)| {
                    let n = t * c as f64;
                    let d = k as f64 - n * q;
                    d * d / (n * q * (1.0 - q))
                })
                .sum();
            let pv = chi_square_p_value(stat, counts.len() as f64);
            assert!(pv > 1e-4, "q={q}: chi2={stat:.1} p={pv:.2e}");
        }
    }

    #[test]
    fn bernoulli_subsample_ref_thins_at_rate_q() {
        let mut rng = seeded_rng(23);
        let q = 0.3;
        let trials = 2_000;
        let mut h = CompactHistogram::new();
        h.insert_count(1u64, 50);
        h.insert_count(2u64, 30);
        h.insert_count(3u64, 20);
        let mut kept = 0u64;
        for _ in 0..trials {
            kept += bernoulli_subsample_ref(&h, q, &mut rng).total();
        }
        let mean = kept as f64 / trials as f64;
        assert!((mean - 30.0).abs() < 0.6, "mean {mean} vs 30");
        // Rate 1 is a plain clone.
        assert_eq!(bernoulli_subsample_ref(&h, 1.0, &mut rng), h);
    }

    use crate::histogram::CompactHistogram;
}
