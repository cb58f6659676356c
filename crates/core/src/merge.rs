//! Merging partition samples into a uniform sample of the union (§4).
//!
//! This module implements the paper's two merge functions and a provenance
//! dispatcher:
//!
//! * [`hb_merge`] — `HBMerge` (Fig. 6). Exhaustive inputs are re-streamed
//!   into a resumed Algorithm HB; two Bernoulli samples are rate-equalized
//!   with `purgeBernoulli` and joined (falling back to a bounded reservoir
//!   when the joined footprint would exceed `F`); reservoir inputs are
//!   delegated to `HRMerge`.
//! * [`hr_merge`] — `HRMerge` (Fig. 8). Exhaustive inputs are re-streamed
//!   into a resumed Algorithm HR; two simple random samples are merged by
//!   drawing the split `L` from the hypergeometric distribution of Eq. (2)
//!   and subsampling each side (`Theorem 1` guarantees the result is a
//!   simple random sample of size `k = min(|S1|, |S2|)` from `D1 ∪ D2`).
//! * [`merge`] — picks the right rule from the two samples' provenance, and
//!   [`merge_all`] folds it over any number of partition samples (the
//!   paper's serial pairwise merge).
//!
//! All rules require the two samples to share the same footprint policy and
//! refuse concise samples (not uniform, §3.3).

use crate::footprint::FootprintPolicy;
use crate::histogram::CompactHistogram;
use crate::hybrid_bernoulli::HybridBernoulli;
use crate::hybrid_reservoir::HybridReservoir;
use crate::invariant::invariant;
use crate::lineage::{merged_lineage, merged_lineage_with_purges, LineageEvent, PurgeKind};
use crate::planner::{plan_union, MergePlan, NodeShape, PlanOp};
use crate::purge::{
    bernoulli_subsample_into, bernoulli_subsample_ref, purge_bernoulli, purge_reservoir,
    reservoir_subsample_into, reservoir_subsample_ref,
};
use crate::qbound::q_approx;
use crate::sample::{Sample, SampleKind};
use crate::sampler::Sampler;
use crate::value::SampleValue;
use rand::Rng;
use std::sync::{Mutex, OnceLock, PoisonError};
use swh_obs::journal::EventKind;
use swh_obs::trace::{Op, Span};
use swh_obs::{profile, Gauge};
use swh_rand::checked::index_u64;
use swh_rand::hypergeometric::Hypergeometric;
use swh_rand::seeded_rng;
use swh_rand::skip::ReservoirSkip;

/// Record one completed merge in the journal under its own span.
fn note_merge(fan_in: u32, split_l: u64) {
    let span = Span::root(Op::Merge);
    span.event(EventKind::Merge, fan_in as u64, split_l);
    span.end();
}

/// Cumulative nanoseconds pool workers of the DAG executor spent *idle*
/// (queues empty, parked on the wake condvar) during parallel unions, as
/// opposed to computing merge nodes. Together with the `union/node/*`
/// profile scopes this splits union wall-clock into queue-wait vs.
/// compute, which is what makes scheduling gaps in
/// `BENCH_ingest_throughput.json` attributable from metrics alone.
fn merge_node_wait_gauge() -> &'static Gauge {
    static GAUGE: OnceLock<Gauge> = OnceLock::new();
    GAUGE.get_or_init(|| {
        swh_obs::global().gauge(
            "swh_merge_node_wait_ns",
            "cumulative ns merge executor workers spent idle waiting for ready nodes",
        )
    })
}

/// Number of log-2 size buckets a profile path can carry (`s0`..`s64`,
/// matching [`profile::size_bucket`]'s range).
const MERGE_BUCKETS: usize = 65;

/// Row index of the merge rule the dispatch will take for these inputs,
/// in [`merge_scope_paths`] order (`restream`, `hr`, `hb`).
fn merge_kind_index(k1: SampleKind, k2: SampleKind) -> usize {
    match (k1, k2) {
        (SampleKind::Exhaustive, _) | (_, SampleKind::Exhaustive) => 0,
        (SampleKind::Reservoir, _) | (_, SampleKind::Reservoir) => 1,
        _ => 2,
    }
}

/// Pre-rendered `merge/<rule>/s<bucket>` profile paths, row-major by
/// [`merge_kind_index`]. Built once, off the timed path: formatting these
/// per merge inside the scope used to cost more than small merges
/// themselves.
fn merge_scope_paths() -> &'static [String] {
    static PATHS: OnceLock<Vec<String>> = OnceLock::new();
    PATHS.get_or_init(|| {
        let mut paths = Vec::with_capacity(3 * MERGE_BUCKETS);
        for rule in ["restream", "hr", "hb"] {
            for bucket in 0..MERGE_BUCKETS {
                paths.push(format!("merge/{rule}/s{bucket}"));
            }
        }
        paths
    })
}

/// Profile scope for one pairwise merge, tagged with the rule and the
/// log-2 bucket of the combined input size — the raw material for
/// [`crate::costmodel::CostModel::fit`]. `None` when profiling is off, so
/// the disabled cost is one relaxed load. The path is looked up in a
/// pre-rendered table, never formatted here.
// swh-analyze: hot
fn merge_profile_scope(
    k1: SampleKind,
    k2: SampleKind,
    in_size: u64,
) -> Option<profile::ProfileScope> {
    if !profile::enabled() {
        return None;
    }
    let idx = merge_kind_index(k1, k2) * MERGE_BUCKETS + profile::size_bucket(in_size) as usize;
    Some(profile::scope_rooted(&merge_scope_paths()[idx]))
}

/// Why two samples could not be merged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// One of the inputs is a concise sample; concise sampling is not
    /// uniform (§3.3) so no uniform merge exists.
    ConciseNotMergeable,
    /// The inputs were collected under different footprint policies.
    PolicyMismatch,
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::ConciseNotMergeable => {
                write!(f, "concise samples are not uniform and cannot be merged")
            }
            MergeError::PolicyMismatch => {
                write!(
                    f,
                    "samples were collected under different footprint policies"
                )
            }
        }
    }
}

impl std::error::Error for MergeError {}

fn check_mergeable<T: SampleValue>(s1: &Sample<T>, s2: &Sample<T>) -> Result<(), MergeError> {
    if matches!(s1.kind(), SampleKind::Concise { .. })
        || matches!(s2.kind(), SampleKind::Concise { .. })
    {
        return Err(MergeError::ConciseNotMergeable);
    }
    if s1.policy() != s2.policy() {
        return Err(MergeError::PolicyMismatch);
    }
    Ok(())
}

/// Stream every data-element value represented by `hist` into `sampler`.
/// No expansion is materialized; pairs are walked in place (the paper: "no
/// expansion of S_i is required for such extraction").
fn stream_into<T: SampleValue, S: Sampler<T>, R: Rng + ?Sized>(
    sampler: &mut S,
    hist: &CompactHistogram<T>,
    rng: &mut R,
) {
    for (v, c) in hist.iter() {
        for _ in 0..c {
            sampler.observe(v.clone(), rng);
        }
    }
}

/// `HBMerge` (Fig. 6): merge two samples produced by Algorithm HB (or any
/// samples with the same provenance vocabulary) over disjoint partitions.
///
/// `p_bound` is the target exceedance probability used to derive the merged
/// Bernoulli rate `q(|D1| + |D2|, p, n_F)`.
pub fn hb_merge<T: SampleValue, R: Rng + ?Sized>(
    s1: Sample<T>,
    s2: Sample<T>,
    p_bound: f64,
    rng: &mut R,
) -> Result<Sample<T>, MergeError> {
    check_mergeable(&s1, &s2)?;
    let combined_n = s1.parent_size() + s2.parent_size();

    // Fig. 6 lines 1–4: at least one sample is exhaustive — re-stream its
    // values into Algorithm HB resumed from the other sample. When both are
    // exhaustive, stream the SMALLER one (the paper's figure is agnostic;
    // the cost of this branch is exactly the streamed sample's size).
    if s1.kind() == SampleKind::Exhaustive || s2.kind() == SampleKind::Exhaustive {
        let (exhaustive, other) = match (s1.kind(), s2.kind()) {
            (SampleKind::Exhaustive, SampleKind::Exhaustive) => {
                if s1.size() <= s2.size() {
                    (s1, s2)
                } else {
                    (s2, s1)
                }
            }
            (SampleKind::Exhaustive, _) => (s1, s2),
            _ => (s2, s1),
        };
        if other.kind() == SampleKind::Reservoir {
            // Resuming HB from a reservoir prior is legal, but HR handles
            // this case without needing a population-size estimate.
            return hr_merge_with_exhaustive(exhaustive, other, rng);
        }
        let ex_lineage = exhaustive.lineage().to_vec();
        let hist = exhaustive.into_histogram();
        let mut hb = HybridBernoulli::resume(other, combined_n, p_bound, rng);
        stream_into(&mut hb, &hist, rng);
        let merged = hb.finalize(rng);
        let lin = merged_lineage(&[&ex_lineage, merged.lineage()], 2, 0);
        note_merge(2, 0);
        return Ok(merged.with_lineage(lin));
    }

    // Fig. 6 lines 5–7: at least one reservoir sample — use HRMerge
    // (a Bernoulli sample is conditionally a simple random sample, §3.2).
    if s1.kind() == SampleKind::Reservoir || s2.kind() == SampleKind::Reservoir {
        return hr_merge_reservoirs(s1, s2, rng);
    }

    // Fig. 6 lines 8–16: both Bernoulli.
    let (q1, q2) = match (s1.kind(), s2.kind()) {
        (SampleKind::Bernoulli { q: a, .. }, SampleKind::Bernoulli { q: b, .. }) => (a, b),
        _ => unreachable!("all other kinds handled above"),
    };
    let policy = s1.policy();
    let n_f = policy.n_f();
    let q = q_approx(combined_n, p_bound, n_f).min(q1).min(q2);
    // Audit the q-decay trajectory: the merged rate must stay at or below
    // the Eq. 1 bound for the combined parent.
    crate::audit::global().note_q_decay(q, q_approx(combined_n, p_bound, n_f));
    let lin1 = s1.lineage().to_vec();
    let lin2 = s2.lineage().to_vec();
    let mut h1 = s1.into_histogram();
    let mut h2 = s2.into_histogram();
    // Equalize both samples to rate q: Bern(q/q_i) of a Bern(q_i) sample is
    // a Bern(q) sample (§3.1).
    purge_bernoulli(&mut h1, q / q1, rng);
    purge_bernoulli(&mut h2, q / q2, rng);
    let mut purges = vec![
        (PurgeKind::Bernoulli, h1.total()),
        (PurgeKind::Bernoulli, h2.total()),
    ];
    note_merge(2, 0);
    if h1.joined_slots(&h2) <= n_f && h1.total() + h2.total() <= n_f {
        h1.join(h2);
        let lineage = merged_lineage_with_purges(&[&lin1, &lin2], &purges, 2, 0);
        return Ok(Sample::from_parts(
            h1,
            SampleKind::Bernoulli { q, p_bound },
            combined_n,
            policy,
        )
        .with_lineage(lineage));
    }
    // Low-probability fallback (lines 14–16): reservoir of size n_F over
    // the concatenation of the two equalized samples. A simple random
    // subsample of a Bernoulli sample is uniform (§3.2).
    let hist = reservoir_of_concatenation(h1, h2, n_f, rng);
    purges.push((PurgeKind::Reservoir, hist.total()));
    let lineage = merged_lineage_with_purges(&[&lin1, &lin2], &purges, 2, 0);
    Ok(Sample::from_parts(hist, SampleKind::Reservoir, combined_n, policy).with_lineage(lineage))
}

/// `HRMerge` (Fig. 8): merge two samples produced by Algorithm HR over
/// disjoint partitions.
pub fn hr_merge<T: SampleValue, R: Rng + ?Sized>(
    s1: Sample<T>,
    s2: Sample<T>,
    rng: &mut R,
) -> Result<Sample<T>, MergeError> {
    check_mergeable(&s1, &s2)?;
    // Fig. 8 lines 1–4: at least one exhaustive sample (stream the smaller
    // when both are).
    if s1.kind() == SampleKind::Exhaustive || s2.kind() == SampleKind::Exhaustive {
        let (exhaustive, other) = match (s1.kind(), s2.kind()) {
            (SampleKind::Exhaustive, SampleKind::Exhaustive) => {
                if s1.size() <= s2.size() {
                    (s1, s2)
                } else {
                    (s2, s1)
                }
            }
            (SampleKind::Exhaustive, _) => (s1, s2),
            _ => (s2, s1),
        };
        return hr_merge_with_exhaustive(exhaustive, other, rng);
    }
    hr_merge_reservoirs(s1, s2, rng)
}

/// Re-stream an exhaustive sample's values into Algorithm HR resumed from
/// `other` (which must be exhaustive or reservoir; a Bernoulli sample is
/// first reinterpreted as a conditional simple random sample, §3.2).
fn hr_merge_with_exhaustive<T: SampleValue, R: Rng + ?Sized>(
    exhaustive: Sample<T>,
    other: Sample<T>,
    rng: &mut R,
) -> Result<Sample<T>, MergeError> {
    let other = match other.kind() {
        SampleKind::Bernoulli { .. } => {
            // Conditioned on its realized size, a Bernoulli sample is a
            // simple random sample of its parent.
            let policy = other.policy();
            let parent = other.parent_size();
            let lineage = other.lineage().to_vec();
            Sample::from_parts(
                other.into_histogram(),
                SampleKind::Reservoir,
                parent,
                policy,
            )
            .with_lineage(lineage)
        }
        _ => other,
    };
    let ex_lineage = exhaustive.lineage().to_vec();
    let hist = exhaustive.into_histogram();
    let mut hr = HybridReservoir::resume(other, rng);
    stream_into(&mut hr, &hist, rng);
    let merged = hr.finalize(rng);
    let lin = merged_lineage(&[&ex_lineage, merged.lineage()], 2, 0);
    note_merge(2, 0);
    Ok(merged.with_lineage(lin))
}

/// Fig. 8 lines 5–12: merge two simple random samples via the
/// hypergeometric split of Theorem 1. Bernoulli inputs are treated as
/// conditional simple random samples of their realized sizes.
fn hr_merge_reservoirs<T: SampleValue, R: Rng + ?Sized>(
    s1: Sample<T>,
    s2: Sample<T>,
    rng: &mut R,
) -> Result<Sample<T>, MergeError> {
    let policy = s1.policy();
    let (n1, n2) = (s1.parent_size(), s2.parent_size());
    // Degenerate cases: an empty *partition* contributes nothing.
    if n1 == 0 {
        return Ok(s2);
    }
    if n2 == 0 {
        return Ok(s1);
    }
    let k = s1.size().min(s2.size());
    let lin1 = s1.lineage().to_vec();
    let lin2 = s2.lineage().to_vec();
    let mut h1 = s1.into_histogram();
    let mut h2 = s2.into_histogram();
    // Fig. 8 lines 6–10: draw the split from Eq. (2) and subsample each
    // side to its share.
    let dist = Hypergeometric::new(n1, n2, k);
    let l = dist.sample(rng);
    invariant!(
        l <= k.min(h1.total()),
        "HRMerge split L = {l} exceeds min(k = {k}, |S1| = {})",
        h1.total()
    );
    purge_reservoir(&mut h1, l, rng);
    purge_reservoir(&mut h2, k - l, rng);
    let purges = [
        (PurgeKind::Reservoir, h1.total()),
        (PurgeKind::Reservoir, h2.total()),
    ];
    h1.join(h2);
    debug_assert_eq!(h1.total(), k);
    note_merge(2, l);
    crate::audit::global().note_split(n1, n2, k, l);
    Ok(
        Sample::from_parts(h1, SampleKind::Reservoir, n1 + n2, policy)
            .with_lineage(merged_lineage_with_purges(&[&lin1, &lin2], &purges, 2, l)),
    )
}

/// Reservoir sample of size `n_f` over the concatenation `h1 ++ h2`
/// (the fallback of Fig. 6, lines 15–16): first `purgeReservoir(h1, n_f)`,
/// then continue the same reservoir process over `h2`'s values.
fn reservoir_of_concatenation<T: SampleValue, R: Rng + ?Sized>(
    h1: CompactHistogram<T>,
    h2: CompactHistogram<T>,
    n_f: u64,
    rng: &mut R,
) -> CompactHistogram<T> {
    let n1 = h1.total();
    let mut h1 = h1;
    purge_reservoir(&mut h1, n_f, rng);
    let mut bag = h1.into_bag();
    let mut t = n1;
    let mut gen = ReservoirSkip::new(n_f, rng);
    let mut next = if bag.len() as u64 == n_f && t >= n_f {
        t + gen.skip(t, rng)
    } else {
        0 // still filling; set once full
    };
    for (v, c) in h2.iter() {
        for _ in 0..c {
            t += 1;
            if (bag.len() as u64) < n_f {
                bag.push(v.clone());
                if bag.len() as u64 == n_f {
                    next = t + gen.skip(t.max(n_f), rng);
                }
            } else if t == next {
                let victim = rng.random_range(0..bag.len());
                bag[victim] = v.clone();
                next = t + gen.skip(t, rng);
            }
        }
    }
    CompactHistogram::from_bag(bag)
}

/// Merge two partition samples, choosing `HBMerge` or `HRMerge` from their
/// provenance exactly as the paper's dispatch does.
///
/// ```
/// use swh_core::{merge, FootprintPolicy, HybridReservoir, Sampler};
/// use swh_rand::seeded_rng;
///
/// let mut rng = seeded_rng(1);
/// let policy = FootprintPolicy::with_value_budget(256);
/// let monday = HybridReservoir::new(policy).sample_batch(0..50_000u64, &mut rng);
/// let tuesday = HybridReservoir::new(policy).sample_batch(50_000..80_000u64, &mut rng);
/// let both = merge(monday, tuesday, 1e-3, &mut rng).unwrap();
/// assert_eq!(both.parent_size(), 80_000);   // uniform over the union
/// assert!(both.size() <= 256);              // still within the bound
/// ```
pub fn merge<T: SampleValue, R: Rng + ?Sized>(
    s1: Sample<T>,
    s2: Sample<T>,
    p_bound: f64,
    rng: &mut R,
) -> Result<Sample<T>, MergeError> {
    check_mergeable(&s1, &s2)?;
    let _prof = merge_profile_scope(s1.kind(), s2.kind(), s1.size() + s2.size());
    match (s1.kind(), s2.kind()) {
        (SampleKind::Reservoir, _) | (_, SampleKind::Reservoir) => {
            if s1.kind() == SampleKind::Exhaustive || s2.kind() == SampleKind::Exhaustive {
                hr_merge(s1, s2, rng)
            } else {
                hr_merge_reservoirs(s1, s2, rng)
            }
        }
        _ => hb_merge(s1, s2, p_bound, rng),
    }
}

/// Serial pairwise merge of any number of partition samples (the paper's
/// experimental setup executes "a sequence of pairwise merges (serially) to
/// create a uniform sample of the entire data set").
///
/// # Panics
/// Panics if `samples` is empty.
pub fn merge_all<T: SampleValue, R: Rng + ?Sized>(
    samples: Vec<Sample<T>>,
    p_bound: f64,
    rng: &mut R,
) -> Result<Sample<T>, MergeError> {
    let mut iter = samples.into_iter();
    let Some(mut acc) = iter.next() else {
        panic!("merge_all needs at least one sample");
    };
    for s in iter {
        acc = merge(acc, s, p_bound, rng)?;
    }
    Ok(acc)
}

/// [`merge`] with a borrowed right-hand sample: fold an owned accumulator
/// against `s` without cloning `s`'s histogram — only the elements that
/// actually survive into the result are cloned. This is the read-mostly
/// path (e.g. sliding-window queries merge the same resident samples on
/// every query).
///
/// Dispatch mirrors [`merge`] with one deviation: when the *accumulator*
/// is exhaustive and `s` is not, the owned re-stream path would need to
/// consume `s`, so the accumulator is instead treated as the simple random
/// sample it is (an exhaustive sample is an SRS of size `|D|`, Theorem 1)
/// and merged hypergeometrically. That can yield a smaller (still uniform)
/// result than re-streaming; callers that hold small exhaustive partitions
/// and want maximal merged sizes should use the owning [`merge_all`].
pub fn merge_borrowed<T: SampleValue, R: Rng + ?Sized>(
    acc: Sample<T>,
    s: &Sample<T>,
    p_bound: f64,
    rng: &mut R,
) -> Result<Sample<T>, MergeError> {
    check_mergeable(&acc, s)?;
    let _prof = merge_profile_scope(acc.kind(), s.kind(), acc.size() + s.size());
    let combined_n = acc.parent_size() + s.parent_size();

    // Borrowed exhaustive side: re-stream its values into a sampler
    // resumed from the owned accumulator (stream_into only borrows).
    if s.kind() == SampleKind::Exhaustive {
        let merged = if matches!(acc.kind(), SampleKind::Bernoulli { .. }) {
            let mut hb = HybridBernoulli::resume(acc, combined_n, p_bound, rng);
            stream_into(&mut hb, s.histogram(), rng);
            hb.finalize(rng)
        } else {
            let mut hr = HybridReservoir::resume(acc, rng);
            stream_into(&mut hr, s.histogram(), rng);
            hr.finalize(rng)
        };
        let lin = merged_lineage(&[s.lineage(), merged.lineage()], 2, 0);
        note_merge(2, 0);
        return Ok(merged.with_lineage(lin));
    }

    // Both Bernoulli: rate-equalize (Fig. 6 lines 8–16), thinning the
    // borrowed side by reference.
    if let (SampleKind::Bernoulli { q: q1, .. }, SampleKind::Bernoulli { q: q2, .. }) =
        (acc.kind(), s.kind())
    {
        let policy = acc.policy();
        let n_f = policy.n_f();
        let q = q_approx(combined_n, p_bound, n_f).min(q1).min(q2);
        // Audit the q-decay trajectory (see hb_merge above).
        crate::audit::global().note_q_decay(q, q_approx(combined_n, p_bound, n_f));
        let lin1 = acc.lineage().to_vec();
        let mut h1 = acc.into_histogram();
        purge_bernoulli(&mut h1, q / q1, rng);
        let h2 = bernoulli_subsample_ref(s.histogram(), q / q2, rng);
        let mut purges = vec![
            (PurgeKind::Bernoulli, h1.total()),
            (PurgeKind::Bernoulli, h2.total()),
        ];
        note_merge(2, 0);
        if h1.joined_slots(&h2) <= n_f && h1.total() + h2.total() <= n_f {
            h1.join(h2);
            let lineage = merged_lineage_with_purges(&[&lin1, s.lineage()], &purges, 2, 0);
            return Ok(Sample::from_parts(
                h1,
                SampleKind::Bernoulli { q, p_bound },
                combined_n,
                policy,
            )
            .with_lineage(lineage));
        }
        let hist = reservoir_of_concatenation(h1, h2, n_f, rng);
        purges.push((PurgeKind::Reservoir, hist.total()));
        let lineage = merged_lineage_with_purges(&[&lin1, s.lineage()], &purges, 2, 0);
        return Ok(
            Sample::from_parts(hist, SampleKind::Reservoir, combined_n, policy)
                .with_lineage(lineage),
        );
    }

    // Everything else involves a simple random sample on at least one
    // side (exhaustive accumulators are SRSs of their whole partition;
    // Bernoulli inputs are conditionally SRSs, §3.2): hypergeometric
    // split per Theorem 1.
    hr_merge_reservoirs_ref(acc, s, rng)
}

/// [`hr_merge_reservoirs`] with a borrowed right-hand sample: only `s`'s
/// surviving share of the split is cloned.
fn hr_merge_reservoirs_ref<T: SampleValue, R: Rng + ?Sized>(
    acc: Sample<T>,
    s: &Sample<T>,
    rng: &mut R,
) -> Result<Sample<T>, MergeError> {
    let policy = acc.policy();
    let (n1, n2) = (acc.parent_size(), s.parent_size());
    if n1 == 0 {
        return Ok(s.clone());
    }
    if n2 == 0 {
        return Ok(acc);
    }
    let k = acc.size().min(s.size());
    let lin1 = acc.lineage().to_vec();
    let mut h1 = acc.into_histogram();
    let dist = Hypergeometric::new(n1, n2, k);
    let l = dist.sample(rng);
    invariant!(
        l <= k.min(h1.total()),
        "HRMerge split L = {l} exceeds min(k = {k}, |S1| = {})",
        h1.total()
    );
    purge_reservoir(&mut h1, l, rng);
    let h2 = reservoir_subsample_ref(s.histogram(), k - l, rng);
    let purges = [
        (PurgeKind::Reservoir, h1.total()),
        (PurgeKind::Reservoir, h2.total()),
    ];
    h1.join(h2);
    debug_assert_eq!(h1.total(), k);
    note_merge(2, l);
    crate::audit::global().note_split(n1, n2, k, l);
    Ok(
        Sample::from_parts(h1, SampleKind::Reservoir, n1 + n2, policy).with_lineage(
            merged_lineage_with_purges(&[&lin1, s.lineage()], &purges, 2, l),
        ),
    )
}

/// Serial pairwise [`merge_borrowed`] over borrowed partition samples: the
/// first sample is cloned as the seed accumulator, every further input is
/// merged by reference. The companion of [`merge_all`] for callers that
/// keep their samples resident (sliding windows, catalog queries).
///
/// # Panics
/// Panics if `samples` is empty.
pub fn merge_all_borrowed<'a, T, R>(
    samples: impl IntoIterator<Item = &'a Sample<T>>,
    p_bound: f64,
    rng: &mut R,
) -> Result<Sample<T>, MergeError>
where
    T: SampleValue + 'a,
    R: Rng + ?Sized,
{
    let mut iter = samples.into_iter();
    let Some(first) = iter.next() else {
        panic!("merge_all_borrowed needs at least one sample");
    };
    let mut acc = first.clone();
    for s in iter {
        acc = merge_borrowed(acc, s, p_bound, rng)?;
    }
    Ok(acc)
}

/// Balanced binary merge tree: merges halves recursively instead of folding
/// left-to-right. Produces the same uniform distribution as [`merge_all`];
/// with equal-size partitions it also keeps every HB intermediate at a
/// higher Bernoulli rate (fewer rate reductions per element) and is the
/// shape the paper's §4.2 alias-table optimization targets.
///
/// # Panics
/// Panics if `samples` is empty.
pub fn merge_tree<T: SampleValue, R: Rng + ?Sized>(
    mut samples: Vec<Sample<T>>,
    p_bound: f64,
    rng: &mut R,
) -> Result<Sample<T>, MergeError> {
    assert!(!samples.is_empty(), "merge_tree needs at least one sample");
    while samples.len() > 1 {
        let mut next = Vec::with_capacity(samples.len().div_ceil(2));
        let mut iter = samples.into_iter();
        while let Some(a) = iter.next() {
            match iter.next() {
                Some(b) => next.push(merge(a, b, p_bound, rng)?),
                None => next.push(a),
            }
        }
        samples = next;
    }
    let Some(result) = samples.pop() else {
        panic!("merge_tree halving keeps the worklist non-empty");
    };
    Ok(result)
}

/// Deterministic RNG stream for plan node `idx`. Seeds are derived from a
/// base drawn once from the caller's RNG, decorrelated across node indices
/// by a golden-ratio odd multiplier, so every node's draws depend only on
/// the caller RNG state and the node's identity — never on which worker
/// runs the node or in what order.
fn plan_node_rng(base: u64, idx: usize) -> impl Rng {
    seeded_rng(base ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(index_u64(idx).wrapping_add(1)))
}

/// One input to a plan-node merge: either a sample owned by this union
/// (a leaf handed in by value, or an upstream node's result) or a borrowed
/// resident sample (the `*_borrowed` entry points).
enum PlanInput<'a, T: SampleValue> {
    Owned(Sample<T>),
    Borrowed(&'a Sample<T>),
}

impl<T: SampleValue> PlanInput<'_, T> {
    fn get(&self) -> &Sample<T> {
        match self {
            PlanInput::Owned(s) => s,
            PlanInput::Borrowed(s) => s,
        }
    }

    fn into_owned(self) -> Sample<T> {
        match self {
            PlanInput::Owned(s) => s,
            PlanInput::Borrowed(s) => s.clone(),
        }
    }

    /// Reservoir-subsample this input down to `m` elements, returning the
    /// resulting histogram and the input's lineage. Owned inputs are
    /// purged in place; borrowed inputs only clone their surviving share.
    fn subsampled_histogram<R: Rng + ?Sized>(
        self,
        m: u64,
        rng: &mut R,
    ) -> (CompactHistogram<T>, Vec<LineageEvent>) {
        match self {
            PlanInput::Owned(s) => {
                let lineage = s.lineage().to_vec();
                let mut h = s.into_histogram();
                purge_reservoir(&mut h, m, rng);
                (h, lineage)
            }
            PlanInput::Borrowed(s) => (
                reservoir_subsample_ref(s.histogram(), m, rng),
                s.lineage().to_vec(),
            ),
        }
    }
}

/// Pairwise merge of two plan inputs through the standard dispatch,
/// borrowing where the ownership combination allows it.
fn plan_pair_merge<T: SampleValue, R: Rng + ?Sized>(
    a: PlanInput<'_, T>,
    b: PlanInput<'_, T>,
    p_bound: f64,
    rng: &mut R,
) -> Result<Sample<T>, MergeError> {
    match (a, b) {
        (PlanInput::Owned(x), PlanInput::Owned(y)) => merge(x, y, p_bound, rng),
        (PlanInput::Owned(x), PlanInput::Borrowed(y)) => merge_borrowed(x, y, p_bound, rng),
        (PlanInput::Borrowed(x), PlanInput::Owned(y)) => merge_borrowed(y, x, p_bound, rng),
        (PlanInput::Borrowed(x), PlanInput::Borrowed(y)) => {
            merge_borrowed(x.clone(), y, p_bound, rng)
        }
    }
}

/// `HRMerge` of two equal-size simple random samples with the split served
/// from the union's shared [`HypergeometricCache`] (§4.2) — the executor's
/// `CachedPair` operator. Statistically identical to
/// [`hr_merge_reservoirs`]; only the split's sampling algorithm differs
/// (alias table vs. direct inversion), and cached table construction is
/// deterministic per key, so cache state never affects results.
fn plan_cached_merge<T: SampleValue, R: Rng + ?Sized>(
    a: PlanInput<'_, T>,
    b: PlanInput<'_, T>,
    cache: &Mutex<HypergeometricCache>,
    rng: &mut R,
) -> Result<Sample<T>, MergeError> {
    check_mergeable(a.get(), b.get())?;
    let _prof = merge_profile_scope(
        a.get().kind(),
        b.get().kind(),
        a.get().size() + b.get().size(),
    );
    let policy = a.get().policy();
    let (n1, n2) = (a.get().parent_size(), b.get().parent_size());
    if n1 == 0 {
        return Ok(b.into_owned());
    }
    if n2 == 0 {
        return Ok(a.into_owned());
    }
    let k = a.get().size().min(b.get().size());
    let l = {
        let mut tables = cache.lock().unwrap_or_else(PoisonError::into_inner);
        tables.split(n1, n2, k, rng)
    };
    invariant!(
        l <= k.min(a.get().size()),
        "HRMerge split L = {l} exceeds min(k = {k}, |S1| = {})",
        a.get().size()
    );
    let (mut h1, lin1) = a.subsampled_histogram(l, rng);
    let (h2, lin2) = b.subsampled_histogram(k - l, rng);
    let purges = [
        (PurgeKind::Reservoir, h1.total()),
        (PurgeKind::Reservoir, h2.total()),
    ];
    h1.join(h2);
    debug_assert_eq!(h1.total(), k);
    note_merge(2, l);
    crate::audit::global().note_split(n1, n2, k, l);
    Ok(
        Sample::from_parts(h1, SampleKind::Reservoir, n1 + n2, policy)
            .with_lineage(merged_lineage_with_purges(&[&lin1, &lin2], &purges, 2, l)),
    )
}

/// A multiway node's validated inputs: one input passes through unmerged.
enum MultiwayInputs<'a, T: SampleValue> {
    Single(Sample<T>),
    Merge(Vec<PlanInput<'a, T>>, FootprintPolicy),
}

/// Validate a multiway node's inputs as [`check_mergeable`] does a pair's.
fn multiway_inputs<T: SampleValue>(
    mut inputs: Vec<PlanInput<'_, T>>,
) -> Result<MultiwayInputs<'_, T>, MergeError> {
    let Some(first) = inputs.first() else {
        panic!("multiway merge needs at least one sample");
    };
    let policy = first.get().policy();
    if inputs.iter().any(|s| s.get().policy() != policy) {
        return Err(MergeError::PolicyMismatch);
    }
    if inputs
        .iter()
        .any(|s| matches!(s.get().kind(), SampleKind::Concise { .. }))
    {
        return Err(MergeError::ConciseNotMergeable);
    }
    if inputs.len() == 1 {
        let Some(only) = inputs.pop() else {
            panic!("a one-element vector pops an element");
        };
        return Ok(MultiwayInputs::Single(only.into_owned()));
    }
    Ok(MultiwayInputs::Merge(inputs, policy))
}

/// Shared implementation of the multiway hypergeometric merge over owned
/// and/or borrowed inputs; see [`hr_merge_multiway`] for the statistics.
fn hr_merge_multiway_inputs<T: SampleValue, R: Rng + ?Sized>(
    inputs: Vec<PlanInput<'_, T>>,
    rng: &mut R,
) -> Result<Sample<T>, MergeError> {
    let (inputs, policy) = match multiway_inputs(inputs)? {
        MultiwayInputs::Single(only) => return Ok(only),
        MultiwayInputs::Merge(inputs, policy) => (inputs, policy),
    };
    let total_in: u64 = inputs.iter().map(|s| s.get().size()).sum();
    let _prof = merge_profile_scope(SampleKind::Reservoir, SampleKind::Reservoir, total_in);
    // Drop empty partitions (they contribute nothing, and zero-size
    // samples of non-empty parents would needlessly force k = 0).
    let inputs: Vec<_> = inputs
        .into_iter()
        .filter(|s| s.get().parent_size() > 0)
        .collect();
    if inputs.is_empty() {
        return Ok(Sample::from_parts(
            CompactHistogram::new(),
            SampleKind::Reservoir,
            0,
            policy,
        ));
    }
    let k = inputs.iter().map(|s| s.get().size()).min().unwrap_or(0);
    let parents: Vec<u64> = inputs.iter().map(|s| s.get().parent_size()).collect();
    let total_parent: u64 = parents.iter().sum();
    let fan_in = inputs.len() as u32;
    let shares = swh_rand::hypergeometric::sample_multivariate(rng, &parents, k);
    // Every input adds its share straight into the merged histogram.
    let mut merged = CompactHistogram::with_slot_capacity(k);
    let mut purges = Vec::with_capacity(inputs.len());
    for (s, &share) in inputs.iter().zip(&shares) {
        reservoir_subsample_into(s.get().histogram(), share, &mut merged, rng);
        purges.push((PurgeKind::Reservoir, share));
    }
    debug_assert_eq!(merged.total(), k);
    let parent_lineages: Vec<&[LineageEvent]> = inputs.iter().map(|s| s.get().lineage()).collect();
    note_merge(fan_in, 0);
    Ok(
        Sample::from_parts(merged, SampleKind::Reservoir, total_parent, policy).with_lineage(
            merged_lineage_with_purges(&parent_lineages, &purges, fan_in, 0),
        ),
    )
}

/// Multiway `HBMerge` node (Fig. 6 lines 8–16 over any number of Bernoulli
/// samples). A pairwise tree re-derives the rate from Eq. 1 at every level,
/// and since `q(N, p, n_F)` falls as `N` grows the rates telescope to the
/// root's `q = min(q(ΣN_i, p, n_F), min_i q_i)`. So the node thins each
/// input once by `q/q_i` (a `Bern(q/q_i)` subsample of a `Bern(q_i)` sample
/// is a `Bern(q)` sample, §3.1), joins them once, and only if the join
/// overflows `n_F` purges it to an `n_F`-element reservoir. It differs from
/// the pairwise tree only on the overflow events Eq. 1 bounds by `p`.
///
/// An input that is not Bernoulli (an upstream node overflowed into a
/// reservoir) sends the node down the reservoir multiway rule, as
/// [`merge`] dispatches a Bernoulli–reservoir pair to `HRMerge`.
fn hb_merge_multiway_inputs<T: SampleValue, R: Rng + ?Sized>(
    inputs: Vec<PlanInput<'_, T>>,
    p_bound: f64,
    rng: &mut R,
) -> Result<Sample<T>, MergeError> {
    let (inputs, policy) = match multiway_inputs(inputs)? {
        MultiwayInputs::Single(only) => return Ok(only),
        MultiwayInputs::Merge(inputs, policy) => (inputs, policy),
    };
    let mut rates = Vec::with_capacity(inputs.len());
    for s in &inputs {
        match s.get().kind() {
            SampleKind::Bernoulli { q, .. } => rates.push(q),
            _ => return hr_merge_multiway_inputs(inputs, rng),
        }
    }
    let n_f = policy.n_f();
    let total_in: u64 = inputs.iter().map(|s| s.get().size()).sum();
    let hb = SampleKind::Bernoulli { q: 1.0, p_bound };
    let _prof = merge_profile_scope(hb, hb, total_in);
    let combined_n: u64 = inputs.iter().map(|s| s.get().parent_size()).sum();
    let q_root = q_approx(combined_n, p_bound, n_f);
    let q = rates.iter().copied().fold(q_root, f64::min);
    // Audit the q-decay trajectory: the merged rate must stay at or below
    // the Eq. 1 bound for the combined parent.
    crate::audit::global().note_q_decay(q, q_root);
    let fan_in = inputs.len() as u32;
    let mut purges = Vec::with_capacity(inputs.len() + 1);
    // Every input adds its thinned share straight into the merged
    // histogram, sized for the join the node expects to keep.
    let mut merged = CompactHistogram::with_slot_capacity(total_in.min(n_f));
    for (s, q_i) in inputs.iter().zip(rates) {
        let kept = bernoulli_subsample_into(s.get().histogram(), q / q_i, &mut merged, rng);
        purges.push((PurgeKind::Bernoulli, kept));
    }
    let kind = if merged.slots() <= n_f && merged.total() <= n_f {
        SampleKind::Bernoulli { q, p_bound }
    } else {
        // Low-probability fallback (Fig. 6 lines 14–16): a simple random
        // subsample of a Bernoulli sample is uniform (§3.2).
        purge_reservoir(&mut merged, n_f, rng);
        purges.push((PurgeKind::Reservoir, merged.total()));
        SampleKind::Reservoir
    };
    let parent_lineages: Vec<&[LineageEvent]> = inputs.iter().map(|s| s.get().lineage()).collect();
    note_merge(fan_in, 0);
    Ok(
        Sample::from_parts(merged, kind, combined_n, policy).with_lineage(
            merged_lineage_with_purges(&parent_lineages, &purges, fan_in, 0),
        ),
    )
}

/// Resolve one plan node's inputs: values the executor handed over for
/// executed dependencies, leaf samples fetched from the caller's store for
/// completed ones.
fn gather_inputs<'a, T: SampleValue>(
    plan: &MergePlan,
    children: &[usize],
    taken: Vec<Option<Sample<T>>>,
    fetch_leaf: &(dyn Fn(usize) -> PlanInput<'a, T> + Sync),
) -> Vec<PlanInput<'a, T>> {
    debug_assert_eq!(children.len(), taken.len());
    children
        .iter()
        .zip(taken)
        .map(|(&c, v)| match v {
            Some(s) => PlanInput::Owned(s),
            None => match &plan.nodes[c].op {
                PlanOp::Leaf { input } => fetch_leaf(*input),
                _ => panic!("executed dependency produced no value"),
            },
        })
        .collect()
}

/// Execute one merge-plan node under its profile scope with its own
/// deterministic RNG stream.
fn exec_plan_node<'a, T: SampleValue>(
    plan: &MergePlan,
    idx: usize,
    taken: Vec<Option<Sample<T>>>,
    fetch_leaf: &(dyn Fn(usize) -> PlanInput<'a, T> + Sync),
    cache: &Mutex<HypergeometricCache>,
    p_bound: f64,
    base: u64,
) -> Result<Sample<T>, MergeError> {
    let node = &plan.nodes[idx];
    let _node_scope = if profile::enabled() {
        Some(profile::scope_rooted(&node.label))
    } else {
        None
    };
    let mut rng = plan_node_rng(base, idx);
    let mut inputs = gather_inputs(plan, &plan.children(idx), taken, fetch_leaf);
    match &node.op {
        PlanOp::Leaf { .. } => panic!("leaf nodes are provided by the caller"),
        PlanOp::Pair { .. } => {
            let (Some(b), Some(a)) = (inputs.pop(), inputs.pop()) else {
                panic!("pair node needs two inputs");
            };
            plan_pair_merge(a, b, p_bound, &mut rng)
        }
        PlanOp::CachedPair { .. } => {
            let (Some(b), Some(a)) = (inputs.pop(), inputs.pop()) else {
                panic!("cached pair node needs two inputs");
            };
            plan_cached_merge(a, b, cache, &mut rng)
        }
        PlanOp::Multiway { .. } => hr_merge_multiway_inputs(inputs, &mut rng),
        PlanOp::HbMultiway { .. } => hb_merge_multiway_inputs(inputs, p_bound, &mut rng),
    }
}

/// Run a merge plan on the DAG executor with `workers` pool workers
/// (inline on the calling thread when `workers <= 1`).
fn execute_plan<'a, T: SampleValue>(
    plan: &MergePlan,
    fetch_leaf: &(dyn Fn(usize) -> PlanInput<'a, T> + Sync),
    p_bound: f64,
    workers: usize,
    base: u64,
) -> Result<Sample<T>, MergeError> {
    if let PlanOp::Leaf { input } = &plan.nodes[plan.root].op {
        return Ok(fetch_leaf(*input).into_owned());
    }
    let n = plan.nodes.len();
    let mut deps = Vec::with_capacity(n);
    let mut completed = Vec::with_capacity(n);
    for (i, node) in plan.nodes.iter().enumerate() {
        deps.push(plan.children(i));
        completed.push(matches!(node.op, PlanOp::Leaf { .. }));
    }
    let costs: Vec<u64> = plan.nodes.iter().map(|node| node.cost).collect();
    let cache = Mutex::new(HypergeometricCache::new());
    let exec = |idx: usize, taken: Vec<Option<Sample<T>>>| {
        exec_plan_node(plan, idx, taken, fetch_leaf, &cache, p_bound, base)
    };
    crate::executor::run_dag(
        &deps,
        &completed,
        &costs,
        plan.root,
        workers,
        &exec,
        &|ns| {
            merge_node_wait_gauge().add(i64::try_from(ns).unwrap_or(i64::MAX));
        },
    )
}

/// Planner-driven parallel union: [`plan_union`] lays out an explicit
/// merge DAG over the input shapes (alias-cached pairs on equal-size
/// siblings, multiway hypergeometric nodes on cheap fan-in, a descending
/// re-stream chain for exhaustive inputs), and the dependency-aware
/// work-stealing executor ([`crate::executor`]) runs it on at most
/// `threads` pool workers — inline on the calling thread when the plan is
/// too small for a pool to pay off.
///
/// One base seed is drawn from the caller's RNG up front; each plan node
/// then derives its own RNG stream via [`plan_node_rng`], so the result is
/// **byte-identical run to run, across thread counts, and across steal
/// orders** — `threads = 1` produces exactly the same sample as
/// `threads = 64` for the same caller RNG state. Lineage Merge/Purge
/// events are recorded per node exactly as the serial paths record them;
/// only the association order differs from [`merge_all`].
///
/// # Panics
/// Panics if `samples` is empty or `threads` is zero.
pub fn merge_tree_parallel<T: SampleValue, R: Rng + ?Sized>(
    samples: Vec<Sample<T>>,
    p_bound: f64,
    threads: usize,
    rng: &mut R,
) -> Result<Sample<T>, MergeError> {
    assert!(
        !samples.is_empty(),
        "merge_tree_parallel needs at least one sample"
    );
    assert!(threads > 0, "merge_tree_parallel needs at least one thread");
    let shapes: Vec<NodeShape> = samples.iter().map(NodeShape::of).collect();
    let n_f = samples.first().map(|s| s.policy().n_f()).unwrap_or(0);
    let plan = plan_union(&shapes, n_f);
    let base = rng.random::<u64>();
    let workers = threads.min(plan.merge_node_count().max(1));
    let leaves: Vec<Mutex<Option<Sample<T>>>> =
        samples.into_iter().map(|s| Mutex::new(Some(s))).collect();
    let fetch = |input: usize| -> PlanInput<'static, T> {
        let taken = {
            let mut slot = leaves[input].lock().unwrap_or_else(PoisonError::into_inner);
            slot.take()
        };
        match taken {
            Some(s) => PlanInput::Owned(s),
            None => panic!("plan leaf {input} consumed twice"),
        }
    };
    execute_plan(&plan, &fetch, p_bound, workers, base)
}

/// [`merge_tree_parallel`] over borrowed partition samples: leaf-level
/// merges go through [`merge_borrowed`] / reference subsampling (cloning
/// only surviving elements), inner nodes own their children's results.
/// Needs `T: Sync` because the borrowed samples are shared across the pool
/// workers.
///
/// Same determinism contract as the owned variant: byte-identical run to
/// run, across thread counts, and across steal orders for the same caller
/// RNG state.
///
/// # Panics
/// Panics if `samples` is empty or `threads` is zero.
pub fn merge_tree_parallel_borrowed<T, R>(
    samples: &[&Sample<T>],
    p_bound: f64,
    threads: usize,
    rng: &mut R,
) -> Result<Sample<T>, MergeError>
where
    T: SampleValue + Sync,
    R: Rng + ?Sized,
{
    assert!(
        !samples.is_empty(),
        "merge_tree_parallel_borrowed needs at least one sample"
    );
    assert!(
        threads > 0,
        "merge_tree_parallel_borrowed needs at least one thread"
    );
    let shapes: Vec<NodeShape> = samples.iter().map(|s| NodeShape::of(s)).collect();
    let n_f = samples.first().map(|s| s.policy().n_f()).unwrap_or(0);
    let plan = plan_union(&shapes, n_f);
    let base = rng.random::<u64>();
    let workers = threads.min(plan.merge_node_count().max(1));
    let fetch = |input: usize| PlanInput::Borrowed(samples[input]);
    execute_plan(&plan, &fetch, p_bound, workers, base)
}

/// Direct `m`-way generalization of `HRMerge` (Fig. 8 / Theorem 1): the
/// merged sample size is `k = min_i |S_i|`, and the per-partition shares
/// `(L_1, ..., L_m)` are drawn from the **multivariate** hypergeometric
/// distribution over the parent sizes, after which each sample is
/// subsampled to its share and all are joined.
///
/// Every input is treated as a simple random sample of its realized size
/// (exhaustive samples *are* simple random samples of size `|D_i|`;
/// Bernoulli samples are conditionally so, §3.2). Note that one tiny
/// partition therefore caps `k` — chained [`merge_all`] re-streams small
/// exhaustive partitions instead and usually yields larger samples.
///
/// # Panics
/// Panics if `samples` is empty.
pub fn hr_merge_multiway<T: SampleValue, R: Rng + ?Sized>(
    samples: Vec<Sample<T>>,
    rng: &mut R,
) -> Result<Sample<T>, MergeError> {
    assert!(
        !samples.is_empty(),
        "hr_merge_multiway needs at least one sample"
    );
    hr_merge_multiway_inputs(samples.into_iter().map(PlanInput::Owned).collect(), rng)
}

/// [`hr_merge_multiway`] over borrowed partition samples: each input only
/// clones the share of its elements that survives into the merged sample.
///
/// # Panics
/// Panics if `samples` is empty.
pub fn hr_merge_multiway_borrowed<T: SampleValue, R: Rng + ?Sized>(
    samples: &[&Sample<T>],
    rng: &mut R,
) -> Result<Sample<T>, MergeError> {
    assert!(
        !samples.is_empty(),
        "hr_merge_multiway_borrowed needs at least one sample"
    );
    hr_merge_multiway_inputs(
        samples.iter().map(|s| PlanInput::Borrowed(s)).collect(),
        rng,
    )
}

/// Cache of alias tables keyed by `(|D1|, |D2|, k)` for the repeated
/// symmetric merges of §4.2: "the alias method can be used to increase
/// generation efficiency" when "merges are performed in a symmetric
/// pairwise fashion", because a balanced merge tree over equal partitions
/// reuses one hypergeometric distribution per level.
#[derive(Debug, Default)]
pub struct HypergeometricCache {
    tables: crate::fxhash::FxHashMap<(u64, u64, u64), swh_rand::alias::AliasTable>,
}

impl HypergeometricCache {
    /// Empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct distributions cached.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Draw the left share `L` for a merge of simple random samples over
    /// parents of sizes `d1`, `d2` with merged size `k`, building (and
    /// caching) the alias table on first use.
    pub fn split<R: Rng + ?Sized>(&mut self, d1: u64, d2: u64, k: u64, rng: &mut R) -> u64 {
        let table = self
            .tables
            .entry((d1, d2, k))
            .or_insert_with(|| Hypergeometric::new(d1, d2, k).alias_table());
        table.sample(rng)
    }
}

/// `HRMerge` for two simple-random/Bernoulli samples with the split drawn
/// through a [`HypergeometricCache`] — the fast path for symmetric merge
/// trees. Exhaustive inputs are rejected (use [`hr_merge`], which
/// re-streams them).
pub fn hr_merge_cached<T: SampleValue, R: Rng + ?Sized>(
    s1: Sample<T>,
    s2: Sample<T>,
    cache: &mut HypergeometricCache,
    rng: &mut R,
) -> Result<Sample<T>, MergeError> {
    check_mergeable(&s1, &s2)?;
    let policy = s1.policy();
    let (n1, n2) = (s1.parent_size(), s2.parent_size());
    if n1 == 0 {
        return Ok(s2);
    }
    if n2 == 0 {
        return Ok(s1);
    }
    let k = s1.size().min(s2.size());
    let l = cache.split(n1, n2, k, rng);
    invariant!(
        l <= k.min(s1.size()),
        "HRMerge split L = {l} exceeds min(k = {k}, |S1| = {})",
        s1.size()
    );
    let lin1 = s1.lineage().to_vec();
    let lin2 = s2.lineage().to_vec();
    let mut h1 = s1.into_histogram();
    let mut h2 = s2.into_histogram();
    purge_reservoir(&mut h1, l, rng);
    purge_reservoir(&mut h2, k - l, rng);
    let purges = [
        (PurgeKind::Reservoir, h1.total()),
        (PurgeKind::Reservoir, h2.total()),
    ];
    h1.join(h2);
    note_merge(2, l);
    crate::audit::global().note_split(n1, n2, k, l);
    Ok(
        Sample::from_parts(h1, SampleKind::Reservoir, n1 + n2, policy)
            .with_lineage(merged_lineage_with_purges(&[&lin1, &lin2], &purges, 2, l)),
    )
}

/// Balanced merge tree over simple random samples using a shared
/// [`HypergeometricCache`]; with `2^j` equal partitions, only `j` alias
/// tables are ever built.
///
/// # Panics
/// Panics if `samples` is empty.
pub fn hr_merge_tree_cached<T: SampleValue, R: Rng + ?Sized>(
    mut samples: Vec<Sample<T>>,
    cache: &mut HypergeometricCache,
    rng: &mut R,
) -> Result<Sample<T>, MergeError> {
    assert!(!samples.is_empty(), "merge tree needs at least one sample");
    while samples.len() > 1 {
        let mut next = Vec::with_capacity(samples.len().div_ceil(2));
        let mut iter = samples.into_iter();
        while let Some(a) = iter.next() {
            match iter.next() {
                Some(b) => next.push(hr_merge_cached(a, b, cache, rng)?),
                None => next.push(a),
            }
        }
        samples = next;
    }
    let Some(result) = samples.pop() else {
        panic!("merge tree halving keeps the worklist non-empty");
    };
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::footprint::FootprintPolicy;
    use swh_rand::seeded_rng;
    use swh_rand::stats::{chi_square_p_value, chi_square_statistic};

    fn policy(n_f: u64) -> FootprintPolicy {
        FootprintPolicy::with_value_budget(n_f)
    }

    fn reservoir_sample(
        range: std::ops::Range<u64>,
        n_f: u64,
        rng: &mut rand::rngs::SmallRng,
    ) -> Sample<u64> {
        HybridReservoir::new(policy(n_f)).sample_batch(range, rng)
    }

    fn bernoulli_sample(
        range: std::ops::Range<u64>,
        n_f: u64,
        p: f64,
        rng: &mut rand::rngs::SmallRng,
    ) -> Sample<u64> {
        let n = range.end - range.start;
        HybridBernoulli::with_p_bound(policy(n_f), n, p).sample_batch(range, rng)
    }

    #[test]
    fn hr_merge_size_is_min_of_inputs() {
        let mut rng = seeded_rng(1);
        let s1 = reservoir_sample(0..10_000, 64, &mut rng);
        let s2 = reservoir_sample(10_000..50_000, 64, &mut rng);
        assert_eq!(s1.size(), 64);
        assert_eq!(s2.size(), 64);
        let m = hr_merge(s1, s2, &mut rng).unwrap();
        assert_eq!(m.size(), 64);
        assert_eq!(m.parent_size(), 50_000);
        assert_eq!(m.kind(), SampleKind::Reservoir);
    }

    #[test]
    fn hr_merge_is_uniform_over_union() {
        // Merge reservoir samples of two unequal partitions; every element
        // of the union must be included with probability k/(N1+N2).
        let mut rng = seeded_rng(2);
        let (n1, n2, n_f, trials) = (30u64, 90u64, 12u64, 20_000usize);
        let mut incl = vec![0u64; (n1 + n2) as usize];
        for _ in 0..trials {
            let s1 = reservoir_sample(0..n1, n_f, &mut rng);
            let s2 = reservoir_sample(n1..n1 + n2, n_f, &mut rng);
            let m = hr_merge(s1, s2, &mut rng).unwrap();
            assert_eq!(m.size(), n_f);
            for (v, c) in m.histogram().iter() {
                assert_eq!(c, 1);
                incl[*v as usize] += 1;
            }
        }
        let expect = trials as f64 * n_f as f64 / (n1 + n2) as f64;
        let exp: Vec<f64> = vec![expect; (n1 + n2) as usize];
        let stat = chi_square_statistic(&incl, &exp);
        let pv = chi_square_p_value(stat, (n1 + n2 - 1) as f64);
        assert!(pv > 1e-4, "HR merge not uniform: chi2={stat:.1} p={pv:.2e}");
    }

    #[test]
    fn hb_merge_bernoulli_pair_is_uniform() {
        let mut rng = seeded_rng(3);
        let (n1, n2, n_f, trials) = (60u64, 60u64, 16u64, 20_000usize);
        let mut incl = vec![0u64; (n1 + n2) as usize];
        let mut total = 0u64;
        for _ in 0..trials {
            let s1 = bernoulli_sample(0..n1, n_f, 1e-3, &mut rng);
            let s2 = bernoulli_sample(n1..n1 + n2, n_f, 1e-3, &mut rng);
            let m = hb_merge(s1, s2, 1e-3, &mut rng).unwrap();
            assert!(m.size() <= n_f);
            for (v, c) in m.histogram().iter() {
                assert_eq!(c, 1);
                incl[*v as usize] += 1;
                total += 1;
            }
        }
        let expect = total as f64 / (n1 + n2) as f64;
        let exp: Vec<f64> = vec![expect; (n1 + n2) as usize];
        let stat = chi_square_statistic(&incl, &exp);
        let pv = chi_square_p_value(stat, (n1 + n2 - 1) as f64);
        assert!(pv > 1e-4, "HB merge not uniform: chi2={stat:.1} p={pv:.2e}");
    }

    #[test]
    fn hb_merge_exhaustive_pair_stays_exhaustive_when_small() {
        let mut rng = seeded_rng(4);
        let s1 = bernoulli_sample(0..10, 64, 1e-3, &mut rng);
        let s2 = bernoulli_sample(10..20, 64, 1e-3, &mut rng);
        assert_eq!(s1.kind(), SampleKind::Exhaustive);
        assert_eq!(s2.kind(), SampleKind::Exhaustive);
        let m = hb_merge(s1, s2, 1e-3, &mut rng).unwrap();
        assert_eq!(m.kind(), SampleKind::Exhaustive);
        assert_eq!(m.size(), 20);
        assert_eq!(m.parent_size(), 20);
    }

    #[test]
    fn hb_merge_exhaustive_with_bernoulli() {
        let mut rng = seeded_rng(5);
        // Small exhaustive partition + large Bernoulli partition.
        let s1 = bernoulli_sample(0..20, 128, 1e-3, &mut rng);
        assert_eq!(s1.kind(), SampleKind::Exhaustive);
        let s2 = bernoulli_sample(1_000..60_000, 128, 1e-3, &mut rng);
        assert!(matches!(s2.kind(), SampleKind::Bernoulli { .. }));
        let m = hb_merge(s1, s2, 1e-3, &mut rng).unwrap();
        assert!(m.size() <= 128);
        assert_eq!(m.parent_size(), 20 + 59_000);
        assert!(matches!(
            m.kind(),
            SampleKind::Bernoulli { .. } | SampleKind::Reservoir
        ));
    }

    /// Plain `Bern(q)` sample with the given footprint policy — clean input
    /// for exercising the merge fallback without HB's phase machinery.
    fn plain_bernoulli(
        range: std::ops::Range<u64>,
        q: f64,
        n_f: u64,
        rng: &mut rand::rngs::SmallRng,
    ) -> Sample<u64> {
        let s =
            crate::bernoulli::BernoulliSampler::new(q, policy(n_f), rng).sample_batch(range, rng);
        // Rebrand through from_parts_unchecked so the policy check in merge
        // sees matching budgets (plain Bernoulli samples can exceed n_F; the
        // merge purges them down immediately).
        s
    }

    /// One multiway `HBMerge` node over owned inputs.
    fn hb_node(
        samples: Vec<Sample<u64>>,
        p_bound: f64,
        rng: &mut rand::rngs::SmallRng,
    ) -> Sample<u64> {
        let inputs = samples.into_iter().map(PlanInput::Owned).collect();
        hb_merge_multiway_inputs(inputs, p_bound, rng).unwrap()
    }

    /// The node's oracle: a balanced tree of pairwise [`hb_merge`]s.
    fn hb_pairwise_tree(
        mut level: Vec<Sample<u64>>,
        p_bound: f64,
        rng: &mut rand::rngs::SmallRng,
    ) -> Sample<u64> {
        while level.len() > 1 {
            let mut next = Vec::new();
            let mut iter = level.into_iter();
            while let Some(a) = iter.next() {
                match iter.next() {
                    Some(b) => next.push(hb_merge(a, b, p_bound, rng).unwrap()),
                    None => next.push(a),
                }
            }
            level = next;
        }
        level.pop().unwrap()
    }

    /// Plain Bernoulli inputs over consecutive `per`-element ranges, one per
    /// rate.
    fn bernoulli_inputs(
        rates: &[f64],
        per: u64,
        n_f: u64,
        rng: &mut rand::rngs::SmallRng,
    ) -> Vec<Sample<u64>> {
        (0..rates.len() as u64)
            .map(|i| plain_bernoulli(i * per..(i + 1) * per, rates[i as usize], n_f, rng))
            .collect()
    }

    #[test]
    fn hb_multiway_node_includes_every_element_at_q() {
        // Eight inputs at unequal rates: the node thins each once to
        // q = min(q(ΣN, p, n_F), min q_i), so every element of the union is
        // kept independently with probability q. n_F leaves no room for an
        // overflow.
        let rates = [0.85, 0.5, 0.7, 0.6, 0.8, 0.55, 0.75, 0.65];
        let (per, n_f, trials) = (40u64, 256u64, 20_000usize);
        let n = per * rates.len() as u64;
        let q = q_approx(n, 1e-3, n_f).min(0.5);
        let mut incl = vec![0u64; n as usize];
        let mut rng = seeded_rng(60);
        for _ in 0..trials {
            let m = hb_node(bernoulli_inputs(&rates, per, n_f, &mut rng), 1e-3, &mut rng);
            match m.kind() {
                SampleKind::Bernoulli { q: got, .. } => assert_eq!(got, q),
                other => panic!("node overflowed into {other:?}"),
            }
            assert_eq!(m.parent_size(), n);
            for (v, c) in m.histogram().iter() {
                assert_eq!(c, 1);
                incl[*v as usize] += 1;
            }
        }
        // Each element's tally is Binomial(trials, q).
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
    fn hb_multiway_node_sizes_match_pairwise_tree() {
        // Fixed inputs, fresh merge draws: the pairwise tree's rates
        // telescope to the node's, so without overflows both thin every
        // element to the same q and merged sizes share one law.
        let rates = [0.3, 0.65, 0.4, 0.5, 0.35, 0.6, 0.45, 0.55];
        let (per, n_f, trials) = (200u64, 1024u64, 10_000usize);
        let mut rng = seeded_rng(61);
        let parts = bernoulli_inputs(&rates, per, n_f, &mut rng);
        let mut node = vec![0u64; n_f as usize + 1];
        let mut tree = vec![0u64; n_f as usize + 1];
        for _ in 0..trials {
            let a = hb_node(parts.clone(), 1e-3, &mut rng);
            let b = hb_pairwise_tree(parts.clone(), 1e-3, &mut rng);
            assert!(matches!(a.kind(), SampleKind::Bernoulli { .. }));
            assert!(matches!(b.kind(), SampleKind::Bernoulli { .. }));
            assert_eq!(a.kind(), b.kind(), "rates must telescope to one q");
            node[a.size() as usize] += 1;
            tree[b.size() as usize] += 1;
        }
        let (stat, df) = swh_rand::stats::chi_square_two_sample(&node, &tree, 20);
        let pv = chi_square_p_value(stat, df);
        assert!(pv > 1e-4, "sizes differ: chi2={stat:.1} df={df} p={pv:.2e}");
    }

    #[test]
    fn hb_multiway_node_overflow_falls_back_to_uniform_reservoir() {
        // n_F = 16 with p = 0.4: the Eq. 1 rate lets the join overflow
        // often, and the one reservoir purge must leave a uniform sample of
        // exactly n_F elements. Unequal input rates make any thinning error
        // show up as unequal inclusion between the inputs' ranges.
        let rates = [0.3, 0.5, 0.7, 0.9];
        let (per, n_f, trials) = (40u64, 16u64, 20_000usize);
        let n = per * rates.len() as u64;
        let mut rng = seeded_rng(62);
        let mut incl = vec![0u64; n as usize];
        let mut fallbacks = 0usize;
        for _ in 0..trials {
            let m = hb_node(bernoulli_inputs(&rates, per, n_f, &mut rng), 0.4, &mut rng);
            assert!(m.size() <= n_f);
            if m.kind() == SampleKind::Reservoir {
                fallbacks += 1;
                assert_eq!(m.size(), n_f);
            }
            for (v, c) in m.histogram().iter() {
                assert_eq!(c, 1);
                incl[*v as usize] += 1;
            }
        }
        assert!(fallbacks > trials / 20, "fallback too rare ({fallbacks})");
        let total: u64 = incl.iter().sum();
        let exp = vec![total as f64 / n as f64; n as usize];
        let stat = chi_square_statistic(&incl, &exp);
        let pv = chi_square_p_value(stat, (n - 1) as f64);
        assert!(pv > 1e-4, "fallback not uniform: chi2={stat:.1} p={pv:.2e}");
    }

    #[test]
    fn hb_multiway_node_with_reservoir_input_takes_hypergeometric_rule() {
        // An upstream overflow hands the node a reservoir. Like a
        // Bernoulli–reservoir pair under `merge`, the node then merges
        // hypergeometrically: k = the smallest input, uniform over the union.
        let (n_f, trials) = (8u64, 20_000usize);
        let mut rng = seeded_rng(63);
        let mut incl = vec![0u64; 90];
        for _ in 0..trials {
            let parts = vec![
                plain_bernoulli(0..30, 0.5, n_f, &mut rng),
                reservoir_sample(30..60, n_f, &mut rng),
                plain_bernoulli(60..90, 0.8, n_f, &mut rng),
            ];
            let k = parts.iter().map(Sample::size).min().unwrap();
            let m = hb_node(parts, 1e-3, &mut rng);
            assert_eq!(m.kind(), SampleKind::Reservoir);
            assert_eq!(m.size(), k);
            assert_eq!(m.parent_size(), 90);
            for (v, _) in m.histogram().iter() {
                incl[*v as usize] += 1;
            }
        }
        let total: u64 = incl.iter().sum();
        let exp = vec![total as f64 / 90.0; 90];
        let stat = chi_square_statistic(&incl, &exp);
        let pv = chi_square_p_value(stat, 89.0);
        assert!(pv > 1e-4, "not uniform: chi2={stat:.1} p={pv:.2e}");
    }

    #[test]
    fn bernoulli_plan_with_forced_overflow_stays_uniform() {
        // 32 Bernoulli leaves plan to two 16-way HB nodes under a two-way
        // root. n_F = 8 with p = 0.4 overflows the lower nodes often, so the
        // root regularly receives a reservoir and takes the hypergeometric
        // rule — visible in its lineage as a reservoir split purge just
        // before the final Merge, where the HB rule records Bernoulli
        // thinning purges.
        let rates = [0.4, 0.6, 0.8, 0.5];
        let (per, n_f, trials) = (10u64, 8u64, 5_000usize);
        let leaves = 32u64;
        let n = leaves * per;
        let mut rng = seeded_rng(64);
        let mut incl = vec![0u64; n as usize];
        let mut hr_roots = 0usize;
        for _ in 0..trials {
            let parts: Vec<Sample<u64>> = (0..leaves)
                .map(|i| {
                    let rate = rates[(i % 4) as usize];
                    plain_bernoulli(i * per..(i + 1) * per, rate, n_f, &mut rng)
                })
                .collect();
            let m = merge_tree_parallel(parts, 0.4, 1, &mut rng).unwrap();
            assert!(m.size() <= n_f);
            assert_eq!(m.parent_size(), n);
            let lin = m.lineage();
            assert!(matches!(
                lin.last(),
                Some(LineageEvent::Merge { fan_in: 2, .. })
            ));
            if matches!(
                lin[lin.len() - 3],
                LineageEvent::Purge {
                    kind: PurgeKind::Reservoir,
                    ..
                }
            ) {
                hr_roots += 1;
            }
            for (v, c) in m.histogram().iter() {
                assert_eq!(c, 1);
                incl[*v as usize] += 1;
            }
        }
        assert!(
            hr_roots > trials / 20,
            "root took the HR rule {hr_roots} times"
        );
        let total: u64 = incl.iter().sum();
        let exp = vec![total as f64 / n as f64; n as usize];
        let stat = chi_square_statistic(&incl, &exp);
        let pv = chi_square_p_value(stat, (n - 1) as f64);
        assert!(pv > 1e-4, "not uniform: chi2={stat:.1} p={pv:.2e}");
    }

    #[test]
    fn hb_merge_fallback_to_reservoir_bounds_size() {
        // A loose target p makes the merged Bernoulli rate aggressive, so
        // the joined sample frequently exceeds n_F, exercising the
        // low-probability fallback (Fig. 6 lines 14–16).
        let mut rng = seeded_rng(6);
        let n_f = 32u64;
        let mut saw_fallback = false;
        for _ in 0..200 {
            let s1 = plain_bernoulli(0..500, 0.2, n_f, &mut rng);
            let s2 = plain_bernoulli(500..1_000, 0.2, n_f, &mut rng);
            let m = hb_merge(s1, s2, 0.4, &mut rng).unwrap();
            assert!(m.size() <= n_f, "size {} exceeds bound", m.size());
            if m.kind() == SampleKind::Reservoir {
                saw_fallback = true;
                assert_eq!(m.size(), n_f);
            }
        }
        assert!(
            saw_fallback,
            "expected the reservoir fallback to fire at p=0.4"
        );
    }

    #[test]
    fn hb_merge_fallback_is_uniform() {
        // Uniformity must survive the fallback path. Inputs are clean
        // Bern(q) samples so any bias would come from the merge itself.
        let mut rng = seeded_rng(7);
        let (n, n_f, trials) = (80u64, 16u64, 20_000usize);
        let mut incl = vec![0u64; n as usize];
        let mut total = 0u64;
        let mut fallbacks = 0usize;
        for _ in 0..trials {
            let s1 = plain_bernoulli(0..n / 2, 0.5, n_f, &mut rng);
            let s2 = plain_bernoulli(n / 2..n, 0.5, n_f, &mut rng);
            let m = hb_merge(s1, s2, 0.4, &mut rng).unwrap();
            if m.kind() == SampleKind::Reservoir {
                fallbacks += 1;
            }
            for (v, c) in m.histogram().iter() {
                assert_eq!(c, 1);
                incl[*v as usize] += 1;
                total += 1;
            }
        }
        assert!(
            fallbacks > trials / 20,
            "fallback too rare to test ({fallbacks})"
        );
        let expect = total as f64 / n as f64;
        let exp: Vec<f64> = vec![expect; n as usize];
        let stat = chi_square_statistic(&incl, &exp);
        let pv = chi_square_p_value(stat, (n - 1) as f64);
        assert!(pv > 1e-4, "fallback not uniform: chi2={stat:.1} p={pv:.2e}");
    }

    #[test]
    fn hr_merge_exhaustive_with_reservoir() {
        let mut rng = seeded_rng(8);
        let s1 = reservoir_sample(0..20, 64, &mut rng);
        assert_eq!(s1.kind(), SampleKind::Exhaustive);
        let s2 = reservoir_sample(20..10_000, 64, &mut rng);
        assert_eq!(s2.kind(), SampleKind::Reservoir);
        let m = hr_merge(s1, s2, &mut rng).unwrap();
        assert_eq!(m.size(), 64);
        assert_eq!(m.parent_size(), 10_000);
    }

    #[test]
    fn merge_dispatch_mixed_bernoulli_reservoir() {
        let mut rng = seeded_rng(9);
        let s1 = bernoulli_sample(0..50_000, 128, 1e-3, &mut rng);
        let s2 = reservoir_sample(50_000..100_000, 128, &mut rng);
        let m = merge(s1, s2, 1e-3, &mut rng).unwrap();
        assert_eq!(m.kind(), SampleKind::Reservoir);
        assert!(m.size() <= 128);
        assert_eq!(m.parent_size(), 100_000);
    }

    #[test]
    fn merge_all_chains_many_partitions() {
        let mut rng = seeded_rng(10);
        let parts: Vec<Sample<u64>> = (0..16u64)
            .map(|p| reservoir_sample(p * 1_000..(p + 1) * 1_000, 64, &mut rng))
            .collect();
        let m = merge_all(parts, 1e-3, &mut rng).unwrap();
        assert_eq!(m.parent_size(), 16_000);
        assert_eq!(m.size(), 64);
    }

    #[test]
    fn merge_all_uniform_across_four_partitions() {
        let mut rng = seeded_rng(11);
        let (n_parts, per, n_f, trials) = (4u64, 25u64, 10u64, 15_000usize);
        let n = n_parts * per;
        let mut incl = vec![0u64; n as usize];
        for _ in 0..trials {
            let parts: Vec<Sample<u64>> = (0..n_parts)
                .map(|p| reservoir_sample(p * per..(p + 1) * per, n_f, &mut rng))
                .collect();
            let m = merge_all(parts, 1e-3, &mut rng).unwrap();
            for (v, _) in m.histogram().iter() {
                incl[*v as usize] += 1;
            }
        }
        let expect = trials as f64 * n_f as f64 / n as f64;
        let exp: Vec<f64> = vec![expect; n as usize];
        let stat = chi_square_statistic(&incl, &exp);
        let pv = chi_square_p_value(stat, (n - 1) as f64);
        assert!(
            pv > 1e-4,
            "chained merge not uniform: chi2={stat:.1} p={pv:.2e}"
        );
    }

    /// The parallel tree must be a pure function of (inputs, caller RNG
    /// state): identical across runs AND across thread budgets.
    #[test]
    fn parallel_tree_deterministic_across_thread_counts() {
        let mut rng = seeded_rng(40);
        let parts: Vec<Sample<u64>> = (0..16u64)
            .map(|p| reservoir_sample(p * 1_000..(p + 1) * 1_000, 64, &mut rng))
            .collect();
        let run = |threads: usize| {
            let mut rng = seeded_rng(77);
            merge_tree_parallel(parts.clone(), 1e-3, threads, &mut rng).unwrap()
        };
        let serial = run(1);
        assert_eq!(serial, run(8), "thread count changed the result");
        assert_eq!(serial, run(3), "odd thread budget changed the result");
        assert_eq!(serial, run(1), "identical seeds must reproduce the sample");
        assert_eq!(serial.parent_size(), 16_000);
        assert_eq!(serial.size(), 64);

        let refs: Vec<&Sample<u64>> = parts.iter().collect();
        let run_borrowed = |threads: usize| {
            let mut rng = seeded_rng(78);
            merge_tree_parallel_borrowed(&refs, 1e-3, threads, &mut rng).unwrap()
        };
        let b = run_borrowed(1);
        assert_eq!(b, run_borrowed(8), "borrowed tree depends on thread count");
        assert_eq!(b.parent_size(), 16_000);
    }

    #[test]
    fn parallel_tree_handles_single_and_odd_inputs() {
        let mut rng = seeded_rng(42);
        let parts: Vec<Sample<u64>> = (0..5u64)
            .map(|p| reservoir_sample(p * 100..(p + 1) * 100, 16, &mut rng))
            .collect();
        let one = merge_tree_parallel(parts[..1].to_vec(), 1e-3, 4, &mut rng).unwrap();
        assert_eq!(one.parent_size(), 100);
        let odd = merge_tree_parallel(parts, 1e-3, 4, &mut rng).unwrap();
        assert_eq!(odd.parent_size(), 500);
        assert_eq!(odd.size(), 16);
    }

    #[test]
    fn parallel_tree_uniform_across_four_partitions() {
        // Mirror of merge_all_uniform_across_four_partitions through the
        // tree-parallel path: the documented uniformity contract must hold
        // regardless of merge association order or threading.
        let mut rng = seeded_rng(41);
        let (n_parts, per, n_f, trials) = (4u64, 25u64, 10u64, 15_000usize);
        let n = n_parts * per;
        let mut incl = vec![0u64; n as usize];
        for _ in 0..trials {
            let parts: Vec<Sample<u64>> = (0..n_parts)
                .map(|p| reservoir_sample(p * per..(p + 1) * per, n_f, &mut rng))
                .collect();
            let m = merge_tree_parallel(parts, 1e-3, 2, &mut rng).unwrap();
            for (v, _) in m.histogram().iter() {
                incl[*v as usize] += 1;
            }
        }
        let expect = trials as f64 * n_f as f64 / n as f64;
        let exp: Vec<f64> = vec![expect; n as usize];
        let stat = chi_square_statistic(&incl, &exp);
        let pv = chi_square_p_value(stat, (n - 1) as f64);
        assert!(
            pv > 1e-4,
            "tree-parallel merge not uniform: chi2={stat:.1} p={pv:.2e}"
        );
    }

    #[test]
    fn merge_rejects_concise() {
        let mut rng = seeded_rng(12);
        let c = Sample::from_parts_unchecked(
            CompactHistogram::from_bag(vec![1u64]),
            SampleKind::Concise { q: 0.5 },
            100,
            policy(8),
        );
        let s = reservoir_sample(0..100, 8, &mut rng);
        assert_eq!(
            merge(c, s, 1e-3, &mut rng).unwrap_err(),
            MergeError::ConciseNotMergeable
        );
    }

    #[test]
    fn merge_rejects_policy_mismatch() {
        let mut rng = seeded_rng(13);
        let s1 = reservoir_sample(0..100, 8, &mut rng);
        let s2 = reservoir_sample(100..200, 16, &mut rng);
        assert_eq!(
            merge(s1, s2, 1e-3, &mut rng).unwrap_err(),
            MergeError::PolicyMismatch
        );
    }

    #[test]
    fn merge_empty_reservoir_sample_with_exhaustive_does_not_panic() {
        // Regression: a size-0 sample with a NON-empty parent (possible
        // when a tiny partition's Bernoulli draw selects nothing and an
        // HR merge pins k at 0) used to panic when later merged with an
        // exhaustive sample (empty-bag victim selection).
        let mut rng = seeded_rng(30);
        let empty_nonempty_parent = Sample::from_parts(
            CompactHistogram::<u64>::new(),
            SampleKind::Reservoir,
            500,
            policy(8),
        );
        let exhaustive = reservoir_sample(0..6, 8, &mut rng);
        assert_eq!(exhaustive.kind(), SampleKind::Exhaustive);
        let m = merge(
            empty_nonempty_parent.clone(),
            exhaustive.clone(),
            1e-3,
            &mut rng,
        )
        .unwrap();
        assert_eq!(m.parent_size(), 506);
        // The degenerate capacity-0 reservoir stays empty.
        assert_eq!(m.size(), 0);
        // Symmetric order too.
        let m = merge(exhaustive, empty_nonempty_parent, 1e-3, &mut rng).unwrap();
        assert_eq!(m.parent_size(), 506);
    }

    #[test]
    fn merge_with_empty_partition_is_identity() {
        let mut rng = seeded_rng(14);
        let empty = Sample::from_parts(
            CompactHistogram::<u64>::new(),
            SampleKind::Reservoir,
            0,
            policy(8),
        );
        let s = reservoir_sample(0..1_000, 8, &mut rng);
        let expected_size = s.size();
        let m = hr_merge(empty, s, &mut rng).unwrap();
        assert_eq!(m.size(), expected_size);
        assert_eq!(m.parent_size(), 1_000);
    }

    #[test]
    fn hr_merge_degenerate_full_samples_cover_union() {
        // Degenerate N = n on both sides: each partition sample IS its
        // partition, and the union still fits the budget, so the merged
        // sample must be the whole union with every count 1.
        let mut rng = seeded_rng(31);
        let s1 = reservoir_sample(0..8, 64, &mut rng);
        let s2 = reservoir_sample(8..20, 64, &mut rng);
        assert_eq!(s1.size(), s1.parent_size());
        assert_eq!(s2.size(), s2.parent_size());
        let m = hr_merge(s1, s2, &mut rng).unwrap();
        assert_eq!(m.kind(), SampleKind::Exhaustive);
        assert_eq!(m.size(), 20);
        for v in 0..20u64 {
            assert_eq!(m.histogram().count(&v), 1);
        }
    }

    #[test]
    fn hr_merge_reservoir_full_parent_samples() {
        // Degenerate N = n with Reservoir provenance: each sample contains
        // its entire parent, so the Eq. (2) split runs with d1 = |D1| and
        // d2 = |D2|. The merge must still return an SRS of size
        // min(|S1|, |S2|) drawn from the union.
        let mut rng = seeded_rng(32);
        let full = |range: std::ops::Range<u64>| {
            Sample::from_parts(
                CompactHistogram::from_bag(range.clone().collect::<Vec<_>>()),
                SampleKind::Reservoir,
                range.end - range.start,
                policy(16),
            )
        };
        let m = hr_merge(full(0..10), full(10..16), &mut rng).unwrap();
        assert_eq!(m.kind(), SampleKind::Reservoir);
        assert_eq!(m.size(), 6);
        assert_eq!(m.parent_size(), 16);
        for (v, c) in m.histogram().iter() {
            assert_eq!(c, 1);
            assert!(*v < 16);
        }
    }

    #[test]
    fn merge_tree_matches_merge_all_semantics() {
        let mut rng = seeded_rng(20);
        let parts: Vec<Sample<u64>> = (0..16u64)
            .map(|p| reservoir_sample(p * 1_000..(p + 1) * 1_000, 64, &mut rng))
            .collect();
        let m = merge_tree(parts, 1e-3, &mut rng).unwrap();
        assert_eq!(m.parent_size(), 16_000);
        assert_eq!(m.size(), 64);
        assert_eq!(m.kind(), SampleKind::Reservoir);
    }

    #[test]
    fn merge_tree_odd_count() {
        let mut rng = seeded_rng(21);
        let parts: Vec<Sample<u64>> = (0..7u64)
            .map(|p| reservoir_sample(p * 500..(p + 1) * 500, 32, &mut rng))
            .collect();
        let m = merge_tree(parts, 1e-3, &mut rng).unwrap();
        assert_eq!(m.parent_size(), 3_500);
    }

    #[test]
    fn multiway_merge_size_and_domain() {
        let mut rng = seeded_rng(22);
        let parts: Vec<Sample<u64>> = (0..8u64)
            .map(|p| reservoir_sample(p * 2_000..(p + 1) * 2_000, 48, &mut rng))
            .collect();
        let m = hr_merge_multiway(parts, &mut rng).unwrap();
        assert_eq!(m.size(), 48);
        assert_eq!(m.parent_size(), 16_000);
        for (v, _) in m.histogram().iter() {
            assert!(*v < 16_000);
        }
    }

    #[test]
    fn multiway_merge_is_uniform() {
        // 3 partitions of 20 elements, samples of 8, merged directly:
        // every element included with probability 8/60.
        let mut rng = seeded_rng(23);
        let trials = 20_000usize;
        let mut incl = vec![0u64; 60];
        for _ in 0..trials {
            let parts: Vec<Sample<u64>> = (0..3u64)
                .map(|p| reservoir_sample(p * 20..(p + 1) * 20, 8, &mut rng))
                .collect();
            let m = hr_merge_multiway(parts, &mut rng).unwrap();
            assert_eq!(m.size(), 8);
            for (v, _) in m.histogram().iter() {
                incl[*v as usize] += 1;
            }
        }
        let expect = trials as f64 * 8.0 / 60.0;
        let exp = vec![expect; 60];
        let stat = chi_square_statistic(&incl, &exp);
        let pv = chi_square_p_value(stat, 59.0);
        assert!(pv > 1e-4, "multiway not uniform: chi2={stat:.1} p={pv:.2e}");
    }

    #[test]
    fn multiway_single_sample_passthrough() {
        let mut rng = seeded_rng(24);
        let s = reservoir_sample(0..1_000, 16, &mut rng);
        let expected = s.size();
        let m = hr_merge_multiway(vec![s], &mut rng).unwrap();
        assert_eq!(m.size(), expected);
    }

    #[test]
    fn cached_merge_tree_reuses_tables_and_is_uniform() {
        let mut rng = seeded_rng(25);
        // 8 equal partitions -> balanced tree has 3 levels -> exactly 3
        // distinct (d1, d2, k) triples.
        let trials = 15_000usize;
        let mut incl = vec![0u64; 80];
        let mut cache = HypergeometricCache::new();
        for _ in 0..trials {
            let parts: Vec<Sample<u64>> = (0..8u64)
                .map(|p| reservoir_sample(p * 10..(p + 1) * 10, 4, &mut rng))
                .collect();
            let m = hr_merge_tree_cached(parts, &mut cache, &mut rng).unwrap();
            assert_eq!(m.size(), 4);
            for (v, _) in m.histogram().iter() {
                incl[*v as usize] += 1;
            }
        }
        assert_eq!(cache.len(), 3, "one alias table per tree level");
        let expect = trials as f64 * 4.0 / 80.0;
        let exp = vec![expect; 80];
        let stat = chi_square_statistic(&incl, &exp);
        let pv = chi_square_p_value(stat, 79.0);
        assert!(
            pv > 1e-4,
            "cached tree not uniform: chi2={stat:.1} p={pv:.2e}"
        );
    }

    #[test]
    fn multiway_rejects_concise() {
        let mut rng = seeded_rng(26);
        let c = Sample::from_parts_unchecked(
            CompactHistogram::from_bag(vec![1u64]),
            SampleKind::Concise { q: 0.5 },
            100,
            policy(8),
        );
        let s = reservoir_sample(0..100, 8, &mut rng);
        assert_eq!(
            hr_merge_multiway(vec![c, s], &mut rng).unwrap_err(),
            MergeError::ConciseNotMergeable
        );
    }

    #[test]
    fn merge_borrowed_matches_owned_shapes() {
        // Same provenance combinations as the owned dispatcher; assert the
        // structural contract (size, parent, kind family, bounds).
        let mut rng = seeded_rng(40);
        // SRS × SRS.
        let s1 = reservoir_sample(0..10_000, 64, &mut rng);
        let s2 = reservoir_sample(10_000..50_000, 64, &mut rng);
        let m = merge_borrowed(s1, &s2, 1e-3, &mut rng).unwrap();
        assert_eq!(m.size(), 64);
        assert_eq!(m.parent_size(), 50_000);
        assert_eq!(m.kind(), SampleKind::Reservoir);
        // Borrowed exhaustive side re-streams: result as big as the union
        // allows, and an exhaustive pair stays exhaustive.
        let e1 = reservoir_sample(0..20, 64, &mut rng);
        let e2 = reservoir_sample(20..40, 64, &mut rng);
        assert_eq!(e1.kind(), SampleKind::Exhaustive);
        let m = merge_borrowed(e1, &e2, 1e-3, &mut rng).unwrap();
        assert_eq!(m.kind(), SampleKind::Exhaustive);
        assert_eq!(m.size(), 40);
        // Reservoir acc × exhaustive s re-streams into HR.
        let r = reservoir_sample(0..10_000, 64, &mut rng);
        let e = reservoir_sample(10_000..10_020, 64, &mut rng);
        let m = merge_borrowed(r, &e, 1e-3, &mut rng).unwrap();
        assert_eq!(m.size(), 64);
        assert_eq!(m.parent_size(), 10_020);
        // Bernoulli acc × exhaustive s resumes HB.
        let b = bernoulli_sample(0..60_000, 128, 1e-3, &mut rng);
        assert!(matches!(b.kind(), SampleKind::Bernoulli { .. }));
        let e = reservoir_sample(60_000..60_020, 128, &mut rng);
        let m = merge_borrowed(b, &e, 1e-3, &mut rng).unwrap();
        assert!(m.size() <= 128);
        assert_eq!(m.parent_size(), 60_020);
        // Bernoulli × Bernoulli equalizes rates.
        let b1 = bernoulli_sample(0..60_000, 128, 1e-3, &mut rng);
        let b2 = bernoulli_sample(60_000..120_000, 128, 1e-3, &mut rng);
        let m = merge_borrowed(b1, &b2, 1e-3, &mut rng).unwrap();
        assert!(m.size() <= 128);
        assert_eq!(m.parent_size(), 120_000);
        // Policy mismatch still rejected.
        let a = reservoir_sample(0..100, 8, &mut rng);
        let b = reservoir_sample(100..200, 16, &mut rng);
        assert_eq!(
            merge_borrowed(a, &b, 1e-3, &mut rng).unwrap_err(),
            MergeError::PolicyMismatch
        );
    }

    #[test]
    fn merge_borrowed_leaves_input_untouched() {
        let mut rng = seeded_rng(41);
        let s1 = reservoir_sample(0..5_000, 32, &mut rng);
        let s2 = reservoir_sample(5_000..9_000, 32, &mut rng);
        let snapshot = s2.clone();
        let _ = merge_borrowed(s1, &s2, 1e-3, &mut rng).unwrap();
        assert_eq!(s2, snapshot, "borrowed input mutated");
    }

    #[test]
    fn merge_all_borrowed_uniform_across_four_partitions() {
        // Mirror of merge_all_uniform_across_four_partitions through the
        // borrowed path: inclusion frequencies must stay uniform.
        let mut rng = seeded_rng(42);
        let (n_parts, per, n_f, trials) = (4u64, 25u64, 10u64, 15_000usize);
        let n = n_parts * per;
        let mut incl = vec![0u64; n as usize];
        for _ in 0..trials {
            let parts: Vec<Sample<u64>> = (0..n_parts)
                .map(|p| reservoir_sample(p * per..(p + 1) * per, n_f, &mut rng))
                .collect();
            let m = merge_all_borrowed(parts.iter(), 1e-3, &mut rng).unwrap();
            assert_eq!(m.size(), n_f);
            for (v, _) in m.histogram().iter() {
                incl[*v as usize] += 1;
            }
        }
        let expect = trials as f64 * n_f as f64 / n as f64;
        let exp: Vec<f64> = vec![expect; n as usize];
        let stat = chi_square_statistic(&incl, &exp);
        let pv = chi_square_p_value(stat, (n - 1) as f64);
        assert!(
            pv > 1e-4,
            "borrowed merge not uniform: chi2={stat:.1} p={pv:.2e}"
        );
    }

    #[test]
    fn merge_records_equalization_purges_in_lineage() {
        let mut rng = seeded_rng(50);
        // HR path: the two split purges land in the lineage right before
        // the Merge record, and their survivors sum to the merged size.
        let s1 = reservoir_sample(0..10_000, 64, &mut rng);
        let s2 = reservoir_sample(10_000..50_000, 64, &mut rng);
        let m = hr_merge(s1, s2, &mut rng).unwrap();
        let lin = m.lineage();
        assert!(matches!(lin.last(), Some(LineageEvent::Merge { .. })));
        let tail = &lin[lin.len() - 3..];
        let survivors: u64 = tail[..2]
            .iter()
            .map(|e| match e {
                LineageEvent::Purge {
                    kind: PurgeKind::Reservoir,
                    survivors,
                } => *survivors,
                other => panic!("expected split purge before merge, got {other:?}"),
            })
            .sum();
        assert_eq!(survivors, m.size());

        // HB path: rate equalization records a Bernoulli purge per input.
        let b1 = bernoulli_sample(0..60_000, 128, 1e-3, &mut rng);
        let b2 = bernoulli_sample(60_000..120_000, 128, 1e-3, &mut rng);
        assert!(matches!(b1.kind(), SampleKind::Bernoulli { .. }));
        let m = hb_merge(b1, b2, 1e-3, &mut rng).unwrap();
        let purges = m
            .lineage()
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    LineageEvent::Purge {
                        kind: PurgeKind::Bernoulli,
                        ..
                    }
                )
            })
            .count();
        assert!(
            purges >= 2,
            "equalization purges missing: {:?}",
            m.lineage()
        );

        // Multiway: one split purge per input partition.
        let parts: Vec<Sample<u64>> = (0..3u64)
            .map(|p| reservoir_sample(p * 1_000..(p + 1) * 1_000, 16, &mut rng))
            .collect();
        let m = hr_merge_multiway(parts, &mut rng).unwrap();
        let lin = m.lineage();
        let merge_at = lin
            .iter()
            .position(|e| matches!(e, LineageEvent::Merge { fan_in: 3, .. }))
            .unwrap();
        let split_survivors: u64 = lin[..merge_at]
            .iter()
            .rev()
            .take(3)
            .map(|e| match e {
                LineageEvent::Purge { survivors, .. } => *survivors,
                other => panic!("expected split purges before merge, got {other:?}"),
            })
            .sum();
        assert_eq!(split_survivors, m.size());
    }

    #[test]
    fn hypergeometric_split_respects_sizes() {
        // Repeated HR merges: left share L must average k·N1/(N1+N2).
        let mut rng = seeded_rng(15);
        let (n1, n2, n_f) = (1_000u64, 3_000u64, 32u64);
        let trials = 2_000;
        let mut left_total = 0u64;
        for _ in 0..trials {
            let s1 = reservoir_sample(0..n1, n_f, &mut rng);
            let s2 = reservoir_sample(n1..n1 + n2, n_f, &mut rng);
            let m = hr_merge(s1, s2, &mut rng).unwrap();
            left_total += m
                .histogram()
                .iter()
                .filter(|(v, _)| **v < n1)
                .map(|(_, c)| c)
                .sum::<u64>();
        }
        let mean_left = left_total as f64 / trials as f64;
        let expect = n_f as f64 * n1 as f64 / (n1 + n2) as f64; // 8
        assert!(
            (mean_left - expect).abs() < 0.3,
            "mean {mean_left} vs {expect}"
        );
    }
}
