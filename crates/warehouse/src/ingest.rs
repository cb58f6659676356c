//! Ingestion-side partitioning (§2 of the paper).
//!
//! * [`StreamRouter`] splits one incoming stream over `k` samplers, as when
//!   "the incoming stream could be split over a number of machines and
//!   samples from the concurrent sampling processes merged on demand".
//! * [`RatioBoundedPartitioner`] performs the on-the-fly temporal
//!   partitioning the paper describes for fluctuating arrival rates: a
//!   partition is finalized as soon as the sample-to-parent ratio falls to a
//!   specified lower bound, and a fresh partition (and sample) begins.
//! * [`SamplerConfig`] selects which bounded algorithm ingestion uses.

use rand::Rng;
use std::hash::{BuildHasher, BuildHasherDefault};
use swh_core::footprint::FootprintPolicy;
use swh_core::fxhash::FxHasher;
use swh_core::hybrid_bernoulli::HybridBernoulli;
use swh_core::hybrid_reservoir::HybridReservoir;
use swh_core::sample::Sample;
use swh_core::sampler::Sampler;
use swh_core::value::SampleValue;
use swh_core::SamplerStats;

/// Publish one finalized sampler's [`SamplerStats`] into a metrics registry
/// under the shared `swh_sampler_*` names, so any front end (CLI, bench
/// harnesses) exposes per-run sampler behaviour the same way.
pub fn publish_sampler_stats(registry: &swh_obs::Registry, stats: &SamplerStats) {
    registry
        .counter(
            "swh_sampler_inclusions_total",
            "elements included by finalized samplers",
        )
        .add(stats.inclusions);
    registry
        .counter(
            "swh_sampler_rejections_total",
            "elements rejected by finalized samplers",
        )
        .add(stats.rejections);
    registry
        .counter(
            "swh_sampler_purges_total",
            "footprint purges run by finalized samplers",
        )
        .add(stats.purges);
    registry
        .counter("swh_sampler_purge_ns_total", "nanoseconds spent purging")
        .add(stats.purge_ns);
    registry
        .gauge(
            "swh_sampler_footprint_hwm_slots",
            "high-water mark of occupied sample slots",
        )
        .record_max(i64::try_from(stats.footprint_hwm).unwrap_or(i64::MAX));
    if let Some(at) = stats.to_phase2_at {
        registry
            .gauge(
                "swh_sampler_phase2_transition_at",
                "element index of the phase 1 -> 2 switch",
            )
            .set(i64::try_from(at).unwrap_or(i64::MAX));
    }
    if let Some(at) = stats.to_phase3_at {
        registry
            .gauge(
                "swh_sampler_phase3_transition_at",
                "element index of the phase 2 -> 3 switch",
            )
            .set(i64::try_from(at).unwrap_or(i64::MAX));
    }
}

/// Which bounded-footprint algorithm ingestion should run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SamplerConfig {
    /// Algorithm HB with the given expected partition size and exceedance
    /// probability (requires the partition size a priori, §4.3).
    HybridBernoulli {
        /// Expected partition size `N`.
        expected_n: u64,
        /// Target `P{|S| > n_F}`.
        p_bound: f64,
    },
    /// Algorithm HR (no a priori size needed).
    HybridReservoir,
}

/// A sampler built from a [`SamplerConfig`] — the small closed set of
/// algorithms ingestion supports.
#[derive(Debug, Clone)]
pub enum ConfiguredSampler<T: SampleValue> {
    /// Algorithm HB.
    Hb(HybridBernoulli<T>),
    /// Algorithm HR.
    Hr(HybridReservoir<T>),
}

impl SamplerConfig {
    /// Instantiate a sampler for one partition.
    pub fn build<T: SampleValue>(&self, policy: FootprintPolicy) -> ConfiguredSampler<T> {
        match *self {
            SamplerConfig::HybridBernoulli {
                expected_n,
                p_bound,
            } => ConfiguredSampler::Hb(HybridBernoulli::with_p_bound(policy, expected_n, p_bound)),
            SamplerConfig::HybridReservoir => ConfiguredSampler::Hr(HybridReservoir::new(policy)),
        }
    }
}

impl<T: SampleValue> Sampler<T> for ConfiguredSampler<T> {
    fn observe<R: Rng + ?Sized>(&mut self, value: T, rng: &mut R) {
        match self {
            ConfiguredSampler::Hb(s) => s.observe(value, rng),
            ConfiguredSampler::Hr(s) => s.observe(value, rng),
        }
    }

    /// Dispatch the whole chunk with one `match`, so the phase-aware bulk
    /// paths in HB/HR run without a per-element enum branch.
    fn observe_batch<R: Rng + ?Sized>(&mut self, values: &[T], rng: &mut R) {
        match self {
            ConfiguredSampler::Hb(s) => s.observe_batch(values, rng),
            ConfiguredSampler::Hr(s) => s.observe_batch(values, rng),
        }
    }

    fn observed(&self) -> u64 {
        match self {
            ConfiguredSampler::Hb(s) => s.observed(),
            ConfiguredSampler::Hr(s) => s.observed(),
        }
    }

    fn current_size(&self) -> u64 {
        match self {
            ConfiguredSampler::Hb(s) => s.current_size(),
            ConfiguredSampler::Hr(s) => s.current_size(),
        }
    }

    fn finalize<R: Rng + ?Sized>(self, rng: &mut R) -> Sample<T> {
        match self {
            ConfiguredSampler::Hb(s) => s.finalize(rng),
            ConfiguredSampler::Hr(s) => s.finalize(rng),
        }
    }

    fn stats(&self) -> swh_core::stats::SamplerStats {
        match self {
            ConfiguredSampler::Hb(s) => s.stats(),
            ConfiguredSampler::Hr(s) => s.stats(),
        }
    }

    fn finalize_with_stats<R: Rng + ?Sized>(
        self,
        rng: &mut R,
    ) -> (Sample<T>, swh_core::stats::SamplerStats) {
        match self {
            ConfiguredSampler::Hb(s) => s.finalize_with_stats(rng),
            ConfiguredSampler::Hr(s) => s.finalize_with_stats(rng),
        }
    }
}

/// Element counters flush in batches of this size (a power of two). A
/// relaxed atomic increment per element roughly doubles the cost of the
/// cheap reservoir-phase observe path (~5 ns), while a batched flush is
/// unmeasurable; the counter lags the true count by at most one batch until
/// finalize.
const ELEMENT_FLUSH: u64 = 4096;

/// Cached counter handles shared by the ingestion-side components.
#[derive(Debug, Clone)]
struct IngestMetrics {
    elements: swh_obs::Counter,
    partitions: swh_obs::Counter,
    inclusions: swh_obs::Counter,
}

impl IngestMetrics {
    fn router(registry: &swh_obs::Registry) -> Self {
        Self {
            elements: registry.counter(
                "swh_router_elements_total",
                "Elements routed to parallel samplers",
            ),
            partitions: registry.counter(
                "swh_router_partitions_total",
                "Partition samples finalized by routers",
            ),
            inclusions: registry.counter(
                "swh_router_inclusions_total",
                "Elements included in samples across all routed partitions",
            ),
        }
    }

    fn partitioner(registry: &swh_obs::Registry) -> Self {
        Self {
            elements: registry.counter(
                "swh_partitioner_elements_total",
                "Elements observed by on-the-fly partitioners",
            ),
            partitions: registry.counter(
                "swh_partitioner_partitions_total",
                "Partitions closed by on-the-fly partitioners",
            ),
            inclusions: registry.counter(
                "swh_partitioner_inclusions_total",
                "Elements included in samples across all closed partitions",
            ),
        }
    }
}

/// How a stream is split across parallel samplers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitPolicy {
    /// Element `i` goes to sampler `i mod k`. Deterministic, perfectly
    /// balanced; the resulting partitions interleave the stream.
    RoundRobin,
    /// Element goes to sampler `hash(value) mod k`. Keeps equal values
    /// together (each sub-partition sees a disjoint *value* domain).
    ///
    /// Note: hash splitting makes partitions disjoint *bags* only if the
    /// domains are; equal values always land together, so the partitions
    /// are disjoint as value sets and their union reconstructs the stream.
    ByValueHash,
}

/// Routes one incoming stream over `k` parallel samplers (Fig. 1's
/// `D → D_1, D_2, ...` split) and finalizes them into per-partition
/// samples.
#[derive(Debug)]
pub struct StreamRouter<T: SampleValue> {
    samplers: Vec<ConfiguredSampler<T>>,
    policy_split: SplitPolicy,
    /// Per-sampler shares of the chunk being routed; emptied after every
    /// chunk with their capacity kept, so routing allocates nothing per
    /// chunk once they have grown.
    shares: Vec<Vec<T>>,
    /// Sampler the next round-robin element goes to (`routed mod k`).
    next_rr: usize,
    routed: u64,
    /// Elements already flushed into the metrics counter (`routed` minus the
    /// unflushed remainder); lets element-wise and chunked feeding compose.
    flushed: u64,
    hasher: BuildHasherDefault<FxHasher>,
    metrics: IngestMetrics,
}

impl<T: SampleValue> StreamRouter<T> {
    /// Create a router over `k` samplers built from `config`, reporting to
    /// the global [`swh_obs`] registry.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(
        k: usize,
        config: SamplerConfig,
        policy: FootprintPolicy,
        split: SplitPolicy,
    ) -> Self {
        Self::with_registry(swh_obs::global(), k, config, policy, split)
    }

    /// [`StreamRouter::new`] against an explicit metrics registry (tests use
    /// a private registry to assert exact counts).
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn with_registry(
        registry: &swh_obs::Registry,
        k: usize,
        config: SamplerConfig,
        policy: FootprintPolicy,
        split: SplitPolicy,
    ) -> Self {
        assert!(k > 0, "need at least one sampler");
        Self {
            samplers: (0..k).map(|_| config.build(policy)).collect(),
            policy_split: split,
            shares: (0..k).map(|_| Vec::new()).collect(),
            next_rr: 0,
            routed: 0,
            flushed: 0,
            hasher: BuildHasherDefault::default(),
            metrics: IngestMetrics::router(registry),
        }
    }

    /// Number of parallel samplers.
    pub fn fan_out(&self) -> usize {
        self.samplers.len()
    }

    /// Sampler index of the next arriving `value` (advances the round-robin
    /// cursor).
    fn route(&mut self, value: &T) -> usize {
        let k = self.samplers.len();
        match self.policy_split {
            SplitPolicy::RoundRobin => {
                let idx = self.next_rr;
                self.next_rr = if idx + 1 == k { 0 } else { idx + 1 };
                idx
            }
            SplitPolicy::ByValueHash => (self.hasher.hash_one(value) % k as u64) as usize,
        }
    }

    /// Route one arriving element to its sampler.
    pub fn observe<R: Rng + ?Sized>(&mut self, value: T, rng: &mut R) {
        let idx = self.route(&value);
        self.routed += 1;
        if self.routed - self.flushed >= ELEMENT_FLUSH {
            self.metrics.elements.add(self.routed - self.flushed);
            self.flushed = self.routed;
        }
        self.samplers[idx].observe(value, rng);
    }

    /// Route a chunk of arriving elements: each value is assigned to its
    /// sampler exactly as [`StreamRouter::observe`] would, the per-sampler
    /// shares are then drained with one [`Sampler::observe_batch`] call
    /// each, and metrics flush once for the whole chunk.
    ///
    /// The split (which value lands in which partition) is identical to the
    /// element-wise path, so chunked routing is deterministic for a fixed
    /// chunking. The per-sampler grouping does reorder RNG consumption
    /// relative to interleaved element-wise routing, so the two feeding
    /// styles draw different (equally uniform) samples.
    pub fn observe_chunk<R: Rng + ?Sized>(&mut self, values: &[T], rng: &mut R) {
        let mut shares = std::mem::take(&mut self.shares);
        for value in values {
            let idx = self.route(value);
            shares[idx].push(value.clone());
        }
        self.routed += values.len() as u64;
        for (sampler, share) in self.samplers.iter_mut().zip(&mut shares) {
            if !share.is_empty() {
                sampler.observe_batch(share, rng);
                share.clear();
            }
        }
        self.shares = shares;
        self.metrics.elements.add(self.routed - self.flushed);
        self.flushed = self.routed;
    }

    /// Total elements routed.
    pub fn observed(&self) -> u64 {
        self.routed
    }

    /// Finalize all samplers into per-partition samples (in sampler order).
    pub fn finalize<R: Rng + ?Sized>(self, rng: &mut R) -> Vec<Sample<T>> {
        let metrics = self.metrics;
        metrics.elements.add(self.routed - self.flushed);
        self.samplers
            .into_iter()
            .map(|s| {
                let (sample, stats) = s.finalize_with_stats(rng);
                metrics.partitions.inc();
                metrics.inclusions.add(stats.inclusions);
                sample
            })
            .collect()
    }
}

/// On-the-fly partitioner: finalizes the current partition whenever the
/// sample-to-parent ratio drops to `min_ratio` (§2: "we wait until the ratio
/// of sampled data to observed parent data hits the specified lower bound,
/// at which point we finalize the current data partition (and corresponding
/// sample), and begin a new partition").
///
/// Built on Algorithm HR, whose fixed-size sample makes the ratio monotone
/// within a partition.
#[derive(Debug)]
pub struct RatioBoundedPartitioner<T: SampleValue> {
    policy: FootprintPolicy,
    min_ratio: f64,
    current: HybridReservoir<T>,
    finished: Vec<Sample<T>>,
    /// Elements seen across all partitions (drives batched counter flushes).
    seen: u64,
    /// Elements already flushed into the metrics counter.
    flushed: u64,
    metrics: IngestMetrics,
}

impl<T: SampleValue> RatioBoundedPartitioner<T> {
    /// Create a partitioner that closes a partition once
    /// `sample_size / observed ≤ min_ratio`, reporting to the global
    /// [`swh_obs`] registry.
    ///
    /// # Panics
    /// Panics unless `0 < min_ratio ≤ 1`.
    pub fn new(policy: FootprintPolicy, min_ratio: f64) -> Self {
        Self::with_registry(swh_obs::global(), policy, min_ratio)
    }

    /// [`RatioBoundedPartitioner::new`] against an explicit metrics registry.
    ///
    /// # Panics
    /// Panics unless `0 < min_ratio ≤ 1`.
    pub fn with_registry(
        registry: &swh_obs::Registry,
        policy: FootprintPolicy,
        min_ratio: f64,
    ) -> Self {
        assert!(
            min_ratio > 0.0 && min_ratio <= 1.0,
            "ratio bound must lie in (0, 1], got {min_ratio}"
        );
        Self {
            policy,
            min_ratio,
            current: HybridReservoir::new(policy),
            finished: Vec::new(),
            seen: 0,
            flushed: 0,
            metrics: IngestMetrics::partitioner(registry),
        }
    }

    /// Boundary-checked element feed shared by the element-wise and chunked
    /// paths; metric flushing is the caller's job.
    fn observe_inner<R: Rng + ?Sized>(&mut self, value: T, rng: &mut R) {
        self.current.observe(value, rng);
        self.seen += 1;
        let observed = self.current.observed();
        let ratio = self.current.current_size() as f64 / observed as f64;
        if ratio <= self.min_ratio {
            let full = std::mem::replace(&mut self.current, HybridReservoir::new(self.policy));
            let (sample, stats) = full.finalize_with_stats(rng);
            self.metrics.partitions.inc();
            self.metrics.inclusions.add(stats.inclusions);
            self.finished.push(sample);
        }
    }

    /// Feed one arriving element.
    pub fn observe<R: Rng + ?Sized>(&mut self, value: T, rng: &mut R) {
        self.observe_inner(value, rng);
        if self.seen - self.flushed >= ELEMENT_FLUSH {
            self.metrics.elements.add(self.seen - self.flushed);
            self.flushed = self.seen;
        }
    }

    /// Feed a chunk of arriving elements, flushing metrics once for the
    /// whole chunk. The ratio boundary is still checked after every element
    /// (a partition must close at exactly the element that hits the bound),
    /// so this path is byte-identical to feeding the values one by one —
    /// only the metric flush cadence changes.
    pub fn observe_chunk<R: Rng + ?Sized>(&mut self, values: &[T], rng: &mut R) {
        for value in values {
            self.observe_inner(value.clone(), rng);
        }
        self.metrics.elements.add(self.seen - self.flushed);
        self.flushed = self.seen;
    }

    /// Partitions finalized so far.
    pub fn finished(&self) -> &[Sample<T>] {
        &self.finished
    }

    /// End the stream: finalize the in-progress partition (if non-empty)
    /// and return all partition samples in order.
    pub fn finish<R: Rng + ?Sized>(mut self, rng: &mut R) -> Vec<Sample<T>> {
        self.metrics.elements.add(self.seen - self.flushed);
        if self.current.observed() > 0 {
            let (sample, stats) = self.current.finalize_with_stats(rng);
            self.metrics.partitions.inc();
            self.metrics.inclusions.add(stats.inclusions);
            self.finished.push(sample);
        }
        self.finished
    }
}

/// Temporal partitioner: closes the current partition whenever the event
/// time crosses a window boundary (§2's "partition the incoming data stream
/// temporally, e.g., one partition per day"). The complement of
/// [`RatioBoundedPartitioner`]: partitions have fixed time spans and
/// variable sizes, instead of variable spans and bounded sampling ratios.
#[derive(Debug)]
pub struct TimePartitioner<T: SampleValue> {
    policy: FootprintPolicy,
    window: f64,
    /// Exclusive end time of the current window.
    current_end: f64,
    current: HybridReservoir<T>,
    finished: Vec<(u64, Sample<T>)>,
    next_seq: u64,
    /// Elements seen across all windows (drives batched counter flushes).
    seen: u64,
    /// Elements already flushed into the metrics counter.
    flushed: u64,
    metrics: IngestMetrics,
}

impl<T: SampleValue> TimePartitioner<T> {
    /// Partition a timestamped stream into windows of `window` time units
    /// (the first window is `[0, window)`), reporting to the global
    /// [`swh_obs`] registry.
    ///
    /// # Panics
    /// Panics unless `window` is finite and positive.
    pub fn new(policy: FootprintPolicy, window: f64) -> Self {
        Self::with_registry(swh_obs::global(), policy, window)
    }

    /// [`TimePartitioner::new`] against an explicit metrics registry.
    ///
    /// # Panics
    /// Panics unless `window` is finite and positive.
    pub fn with_registry(
        registry: &swh_obs::Registry,
        policy: FootprintPolicy,
        window: f64,
    ) -> Self {
        assert!(
            window.is_finite() && window > 0.0,
            "window must be positive"
        );
        Self {
            policy,
            window,
            current_end: window,
            current: HybridReservoir::new(policy),
            finished: Vec::new(),
            next_seq: 0,
            seen: 0,
            flushed: 0,
            metrics: IngestMetrics::partitioner(registry),
        }
    }

    /// Window-advancing element feed shared by the element-wise and chunked
    /// paths; metric flushing is the caller's job.
    fn observe_at_inner<R: Rng + ?Sized>(&mut self, time: f64, value: T, rng: &mut R) {
        assert!(
            time >= self.current_end - self.window,
            "event at t={time} belongs to an already-closed window \
             (current window starts at {})",
            self.current_end - self.window
        );
        while time >= self.current_end {
            self.close_current(rng);
        }
        self.current.observe(value, rng);
        self.seen += 1;
    }

    /// Feed one timestamped element. Timestamps must be non-decreasing.
    ///
    /// # Panics
    /// Panics if `time` lies before the current window (i.e. in a window
    /// that has already been closed).
    pub fn observe_at<R: Rng + ?Sized>(&mut self, time: f64, value: T, rng: &mut R) {
        self.observe_at_inner(time, value, rng);
        if self.seen - self.flushed >= ELEMENT_FLUSH {
            self.metrics.elements.add(self.seen - self.flushed);
            self.flushed = self.seen;
        }
    }

    /// Feed a chunk of timestamped elements (non-decreasing times),
    /// flushing metrics once for the whole chunk. Window boundaries are
    /// still applied per element, so this path is byte-identical to feeding
    /// the events one by one.
    ///
    /// # Panics
    /// Panics if any event lies before the current window.
    pub fn observe_at_chunk<R: Rng + ?Sized>(&mut self, events: &[(f64, T)], rng: &mut R) {
        for (time, value) in events {
            self.observe_at_inner(*time, value.clone(), rng);
        }
        self.metrics.elements.add(self.seen - self.flushed);
        self.flushed = self.seen;
    }

    fn close_current<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        let full = std::mem::replace(&mut self.current, HybridReservoir::new(self.policy));
        if full.observed() > 0 {
            let (sample, stats) = full.finalize_with_stats(rng);
            self.metrics.partitions.inc();
            self.metrics.inclusions.add(stats.inclusions);
            self.finished.push((self.next_seq, sample));
        }
        self.next_seq += 1;
        self.current_end += self.window;
    }

    /// Windows closed so far, as `(window_seq, sample)`.
    pub fn finished(&self) -> &[(u64, Sample<T>)] {
        &self.finished
    }

    /// End the stream: close the in-progress window (if non-empty) and
    /// return all `(window_seq, sample)` pairs in order. Empty windows are
    /// skipped but still consume sequence numbers, so `seq` reflects wall
    /// clock.
    pub fn finish<R: Rng + ?Sized>(mut self, rng: &mut R) -> Vec<(u64, Sample<T>)> {
        self.metrics.elements.add(self.seen - self.flushed);
        if self.current.observed() > 0 {
            let (sample, stats) = self.current.finalize_with_stats(rng);
            self.metrics.partitions.inc();
            self.metrics.inclusions.add(stats.inclusions);
            self.finished.push((self.next_seq, sample));
        }
        self.finished
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swh_rand::seeded_rng;

    fn policy(n_f: u64) -> FootprintPolicy {
        FootprintPolicy::with_value_budget(n_f)
    }

    #[test]
    fn time_partitioner_closes_on_boundaries() {
        let mut rng = seeded_rng(30);
        let mut p: TimePartitioner<u64> = TimePartitioner::new(policy(64), 1.0);
        // 10 events in window 0, 5 in window 1, none in window 2, 3 in 3.
        for i in 0..10u64 {
            p.observe_at(0.05 * i as f64, i, &mut rng);
        }
        for i in 0..5u64 {
            p.observe_at(1.1 + 0.1 * i as f64, 100 + i, &mut rng);
        }
        for i in 0..3u64 {
            p.observe_at(3.2 + 0.1 * i as f64, 200 + i, &mut rng);
        }
        let windows = p.finish(&mut rng);
        let seqs: Vec<u64> = windows.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![0, 1, 3], "empty window 2 skipped but numbered");
        assert_eq!(windows[0].1.parent_size(), 10);
        assert_eq!(windows[1].1.parent_size(), 5);
        assert_eq!(windows[2].1.parent_size(), 3);
    }

    #[test]
    fn time_partitioner_respects_footprint() {
        let mut rng = seeded_rng(31);
        let n_f = 16u64;
        let mut p: TimePartitioner<u64> = TimePartitioner::new(policy(n_f), 10.0);
        for i in 0..5_000u64 {
            p.observe_at(i as f64 * 0.001, i, &mut rng);
        }
        let windows = p.finish(&mut rng);
        assert_eq!(windows.len(), 1);
        assert!(windows[0].1.size() <= n_f);
        assert_eq!(windows[0].1.parent_size(), 5_000);
    }

    #[test]
    fn round_robin_balances_exactly() {
        let mut rng = seeded_rng(1);
        let mut router: StreamRouter<u64> = StreamRouter::new(
            4,
            SamplerConfig::HybridReservoir,
            policy(32),
            SplitPolicy::RoundRobin,
        );
        for v in 0..1000u64 {
            router.observe(v, &mut rng);
        }
        let samples = router.finalize(&mut rng);
        assert_eq!(samples.len(), 4);
        for s in &samples {
            assert_eq!(s.parent_size(), 250);
        }
    }

    #[test]
    fn hash_split_keeps_equal_values_together() {
        let mut rng = seeded_rng(2);
        let mut router: StreamRouter<u64> = StreamRouter::new(
            4,
            SamplerConfig::HybridReservoir,
            policy(1024),
            SplitPolicy::ByValueHash,
        );
        for v in (0..4000u64).map(|i| i % 100) {
            router.observe(v, &mut rng);
        }
        let samples = router.finalize(&mut rng);
        // Each distinct value appears in exactly one partition.
        let mut seen = std::collections::HashMap::new();
        for (i, s) in samples.iter().enumerate() {
            for (v, _) in s.histogram().iter() {
                if let Some(prev) = seen.insert(*v, i) {
                    panic!("value {v} in partitions {prev} and {i}");
                }
            }
        }
        assert_eq!(seen.len(), 100);
    }

    #[test]
    fn router_samples_union_covers_stream() {
        let mut rng = seeded_rng(3);
        let mut router: StreamRouter<u64> = StreamRouter::new(
            3,
            SamplerConfig::HybridReservoir,
            policy(4096),
            SplitPolicy::RoundRobin,
        );
        for v in 0..3000u64 {
            router.observe(v, &mut rng);
        }
        let samples = router.finalize(&mut rng);
        // Small stream: all samples exhaustive; union = stream.
        let total: u64 = samples.iter().map(Sample::size).sum();
        assert_eq!(total, 3000);
    }

    #[test]
    fn hb_config_builds_working_sampler() {
        let mut rng = seeded_rng(4);
        let cfg = SamplerConfig::HybridBernoulli {
            expected_n: 10_000,
            p_bound: 1e-3,
        };
        let mut s: ConfiguredSampler<u64> = cfg.build(policy(128));
        for v in 0..10_000u64 {
            s.observe(v, &mut rng);
        }
        let sample = s.finalize(&mut rng);
        assert!(sample.size() <= 128);
        assert_eq!(sample.parent_size(), 10_000);
    }

    #[test]
    fn ratio_partitioner_closes_partitions_at_bound() {
        let mut rng = seeded_rng(5);
        let n_f = 64u64;
        let min_ratio = 0.25;
        let mut p: RatioBoundedPartitioner<u64> =
            RatioBoundedPartitioner::new(policy(n_f), min_ratio);
        for v in 0..10_000u64 {
            p.observe(v, &mut rng);
        }
        let parts = p.finish(&mut rng);
        assert!(parts.len() > 1, "expected multiple partitions");
        // Every finalized partition respects the ratio bound.
        for s in &parts {
            let ratio = s.size() as f64 / s.parent_size() as f64;
            assert!(
                ratio >= min_ratio - 1e-9,
                "partition ratio {ratio} below bound (size {} parent {})",
                s.size(),
                s.parent_size()
            );
        }
        // Partitions cover the stream exactly.
        let covered: u64 = parts.iter().map(Sample::parent_size).sum();
        assert_eq!(covered, 10_000);
        // Partition size should be ~ n_f / min_ratio = 256 elements.
        let first = parts[0].parent_size();
        assert_eq!(first, (n_f as f64 / min_ratio) as u64);
    }

    #[test]
    fn ratio_partitioner_handles_short_stream() {
        let mut rng = seeded_rng(6);
        let mut p: RatioBoundedPartitioner<u64> = RatioBoundedPartitioner::new(policy(64), 0.25);
        for v in 0..10u64 {
            p.observe(v, &mut rng);
        }
        let parts = p.finish(&mut rng);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].size(), 10);
    }

    #[test]
    #[should_panic(expected = "ratio bound must lie in (0, 1]")]
    fn ratio_partitioner_rejects_bad_ratio() {
        RatioBoundedPartitioner::<u64>::new(policy(8), 0.0);
    }

    #[test]
    fn router_metrics_match_observed_and_finalized_counts() {
        let registry = swh_obs::Registry::new();
        let mut rng = seeded_rng(7);
        let mut router: StreamRouter<u64> = StreamRouter::with_registry(
            &registry,
            3,
            SamplerConfig::HybridReservoir,
            policy(64),
            SplitPolicy::RoundRobin,
        );
        for v in 0..5_000u64 {
            router.observe(v, &mut rng);
        }
        // Mid-stream the counter lags by at most one flush batch...
        let mid = registry.snapshot().counter("swh_router_elements_total");
        assert!(
            mid <= router.observed() && router.observed() - mid < 4096,
            "mid count {mid}"
        );
        let observed = router.observed();
        let samples = router.finalize(&mut rng);
        // ...and finalize flushes the remainder exactly.
        let snap = registry.snapshot();
        assert_eq!(snap.counter("swh_router_elements_total"), observed);
        assert_eq!(
            snap.counter("swh_router_partitions_total"),
            samples.len() as u64
        );
        // Every finalized sample's rows were counted as inclusions at some
        // point; the counter tracks gross inclusions (pre-eviction), so it
        // bounds the surviving sample sizes from above.
        let surviving: u64 = samples.iter().map(|s| s.size()).sum();
        assert!(
            snap.counter("swh_router_inclusions_total") >= surviving,
            "inclusions {} < surviving rows {surviving}",
            snap.counter("swh_router_inclusions_total")
        );
    }

    #[test]
    fn partitioner_metrics_match_finished_partitions() {
        let registry = swh_obs::Registry::new();
        let mut rng = seeded_rng(8);
        let mut p: RatioBoundedPartitioner<u64> =
            RatioBoundedPartitioner::with_registry(&registry, policy(64), 0.25);
        for v in 0..2_000u64 {
            p.observe(v, &mut rng);
        }
        let parts = p.finish(&mut rng);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("swh_partitioner_elements_total"), 2_000);
        assert_eq!(
            snap.counter("swh_partitioner_partitions_total"),
            parts.len() as u64
        );
    }

    #[test]
    fn router_chunk_splits_like_element_wise_and_flushes_per_chunk() {
        let registry = swh_obs::Registry::new();
        let mut rng = seeded_rng(10);
        let mut router: StreamRouter<u64> = StreamRouter::with_registry(
            &registry,
            4,
            SamplerConfig::HybridReservoir,
            policy(4096),
            SplitPolicy::RoundRobin,
        );
        let values: Vec<u64> = (0..1000).collect();
        for chunk in values.chunks(117) {
            router.observe_chunk(chunk, &mut rng);
        }
        // Chunked feeding flushes eagerly: the counter is exact mid-stream.
        assert_eq!(
            registry.snapshot().counter("swh_router_elements_total"),
            1000
        );
        let samples = router.finalize(&mut rng);
        // Round-robin assignment is unchanged by chunking: perfectly
        // balanced partitions, and (with an exhaustive budget) partition j
        // holds exactly the values congruent to j mod 4.
        assert_eq!(samples.len(), 4);
        for (j, s) in samples.iter().enumerate() {
            assert_eq!(s.parent_size(), 250);
            for (v, _) in s.histogram().iter() {
                assert_eq!(*v % 4, j as u64, "value {v} routed to partition {j}");
            }
        }
    }

    /// Reference split: fresh share vectors per chunk and a `routed % k` per
    /// row. `StreamRouter` must match it byte for byte.
    struct ReferenceRouter {
        samplers: Vec<ConfiguredSampler<u64>>,
        split: SplitPolicy,
        routed: u64,
    }

    impl ReferenceRouter {
        fn new(k: usize, split: SplitPolicy) -> Self {
            Self {
                samplers: (0..k)
                    .map(|_| SamplerConfig::HybridReservoir.build(policy(64)))
                    .collect(),
                split,
                routed: 0,
            }
        }

        fn index(&mut self, value: u64) -> usize {
            let k = self.samplers.len() as u64;
            let idx = match self.split {
                SplitPolicy::RoundRobin => self.routed % k,
                SplitPolicy::ByValueHash => {
                    BuildHasherDefault::<FxHasher>::default().hash_one(value) % k
                }
            };
            self.routed += 1;
            idx as usize
        }

        fn observe(&mut self, value: u64, rng: &mut rand::rngs::SmallRng) {
            let idx = self.index(value);
            self.samplers[idx].observe(value, rng);
        }

        fn observe_chunk(&mut self, values: &[u64], rng: &mut rand::rngs::SmallRng) {
            let mut shares: Vec<Vec<u64>> = vec![Vec::new(); self.samplers.len()];
            for &v in values {
                let idx = self.index(v);
                shares[idx].push(v);
            }
            for (idx, share) in shares.iter().enumerate() {
                if !share.is_empty() {
                    self.samplers[idx].observe_batch(share, rng);
                }
            }
        }

        fn finalize(self, rng: &mut rand::rngs::SmallRng) -> Vec<Sample<u64>> {
            self.samplers
                .into_iter()
                .map(|s| s.finalize_with_stats(rng).0)
                .collect()
        }
    }

    #[test]
    fn router_matches_reference_split_for_any_chunking() {
        // Chunk sizes not divisible by k, single rows between chunks, and
        // repeated values (so the hash split sends some rows together).
        let values: Vec<u64> = (0..3_000u64).map(|i| i * 7 % 1_500).collect();
        let chunk_sizes = [5usize, 117, 1, 256, 13, 64];
        for k in [1usize, 3, 4] {
            for split in [SplitPolicy::RoundRobin, SplitPolicy::ByValueHash] {
                let mut router: StreamRouter<u64> = StreamRouter::with_registry(
                    &swh_obs::Registry::new(),
                    k,
                    SamplerConfig::HybridReservoir,
                    policy(64),
                    split,
                );
                let mut reference = ReferenceRouter::new(k, split);
                let (mut rng_a, mut rng_b) = (seeded_rng(12), seeded_rng(12));
                let (mut at, mut step) = (0usize, 0usize);
                while at < values.len() {
                    if step % 2 == 1 {
                        router.observe(values[at], &mut rng_a);
                        reference.observe(values[at], &mut rng_b);
                        at += 1;
                    } else {
                        let end =
                            (at + chunk_sizes[step / 2 % chunk_sizes.len()]).min(values.len());
                        router.observe_chunk(&values[at..end], &mut rng_a);
                        reference.observe_chunk(&values[at..end], &mut rng_b);
                        at = end;
                    }
                    step += 1;
                }
                assert_eq!(router.observed(), values.len() as u64);
                assert_eq!(
                    router.finalize(&mut rng_a),
                    reference.finalize(&mut rng_b),
                    "k={k} split={split:?}"
                );
            }
        }
    }

    #[test]
    fn router_chunk_hash_split_keeps_equal_values_together() {
        let mut rng = seeded_rng(11);
        let mut router: StreamRouter<u64> = StreamRouter::new(
            4,
            SamplerConfig::HybridReservoir,
            policy(1024),
            SplitPolicy::ByValueHash,
        );
        let values: Vec<u64> = (0..4000).map(|i| i % 100).collect();
        for chunk in values.chunks(256) {
            router.observe_chunk(chunk, &mut rng);
        }
        let samples = router.finalize(&mut rng);
        let mut seen = std::collections::HashMap::new();
        for (i, s) in samples.iter().enumerate() {
            for (v, _) in s.histogram().iter() {
                if let Some(prev) = seen.insert(*v, i) {
                    panic!("value {v} in partitions {prev} and {i}");
                }
            }
        }
        assert_eq!(seen.len(), 100);
    }

    #[test]
    fn ratio_partitioner_chunk_is_byte_identical_to_element_wise() {
        let values: Vec<u64> = (0..5_000).collect();
        let run = |chunked: bool| {
            let mut rng = seeded_rng(12);
            let mut p: RatioBoundedPartitioner<u64> =
                RatioBoundedPartitioner::new(policy(64), 0.25);
            if chunked {
                for chunk in values.chunks(73) {
                    p.observe_chunk(chunk, &mut rng);
                }
            } else {
                for v in &values {
                    p.observe(*v, &mut rng);
                }
            }
            p.finish(&mut rng)
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn time_partitioner_chunk_is_byte_identical_to_element_wise() {
        let events: Vec<(f64, u64)> = (0..2_000u64).map(|i| (i as f64 * 0.01, i)).collect();
        let run = |chunked: bool| {
            let mut rng = seeded_rng(13);
            let mut p: TimePartitioner<u64> = TimePartitioner::new(policy(32), 1.0);
            if chunked {
                for chunk in events.chunks(41) {
                    p.observe_at_chunk(chunk, &mut rng);
                }
            } else {
                for (t, v) in &events {
                    p.observe_at(*t, *v, &mut rng);
                }
            }
            p.finish(&mut rng)
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn time_partitioner_metrics_match_windows() {
        let registry = swh_obs::Registry::new();
        let mut rng = seeded_rng(9);
        let mut p: TimePartitioner<u64> =
            TimePartitioner::with_registry(&registry, policy(64), 10.0);
        for t in 0..95u64 {
            p.observe_at(t as f64, t, &mut rng);
        }
        let windows = p.finish(&mut rng);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("swh_partitioner_elements_total"), 95);
        assert_eq!(
            snap.counter("swh_partitioner_partitions_total"),
            windows.len() as u64
        );
    }
}
