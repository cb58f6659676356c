//! The four workloads and the pipeline every one of them runs.
//!
//! Each run sets up a warehouse from the pool, then plays a fixed sequence
//! of simulated minutes. A minute ingests rows through a `StreamRouter` in
//! 256-row chunks, commits the finalized partitions to the catalog, runs the
//! lifecycle sweep every 15th minute, and issues the minute's union queries,
//! each followed by an estimate. After every sweep the warehouse is also
//! restarted from its store. The workloads differ only in the mix, so every
//! end-to-end metric exists on every workload.
//!
//! Hot per-minute partitions live in memory; the lifecycle sweep makes the
//! hourly (warm) roll-ups durable. On a filesystem mounted with `discard`,
//! unlinking an fsynced file costs tens of milliseconds, and compaction
//! unlinks every input it retires, so persisting hot partitions would turn
//! every workload into a measurement of the disk. For the same reason no
//! run measures a durable daily (cold) roll-up: see [`MAX_MINUTES`].

use crate::pool::{Pool, Totals, PRED_MAX};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use rand::rngs::SmallRng;
use rand::Rng;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use swh_aqp::{estimate_sum, Estimate};
use swh_core::sample::{Sample, SampleKind};
use swh_core::{FootprintPolicy, Sampler};
use swh_rand::{seeded_rng, Zipf};
use swh_warehouse::lifecycle::{
    raw_stream, recover_store, store_datasets, CompactionReport, LifecycleManager, LifecyclePolicy,
    UnionCache,
};
use swh_warehouse::warehouse::Algorithm;
use swh_warehouse::{
    Catalog, DatasetId, DiskStore, PartitionId, PartitionKey, SampleWarehouse, SamplerConfig,
    SplitPolicy, StreamRouter,
};

/// Merge probability bound used by every union and roll-up.
const P_BOUND: f64 = 1e-6;
/// Rows per `observe_chunk` call: the small-batch worst case.
const CHUNK: usize = 256;
/// Minutes between lifecycle sweeps.
const SWEEP_EVERY: u64 = 15;
const MINUTES_PER_HOUR: u64 = 60;
const MINUTES_PER_DAY: u64 = 1440;
/// Stream partitions land here, one per (stream, minute).
const INGEST: DatasetId = DatasetId(0);
/// The flat catalog of the two read-heavy workloads; never compacted.
const FLAT: DatasetId = DatasetId(1);
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// The minute counts in [`MIXES`] are calibrated to measure about this
/// long on a 2-core host; `--seconds` scales them.
pub const REFERENCE_SECONDS: f64 = 20.0;
/// The most minutes a run measures: one hour short of a day, so the
/// measured phase never runs a durable cold (day) compaction.
const MAX_MINUTES: u64 = MINUTES_PER_DAY - MINUTES_PER_HOUR;

/// Which union queries a workload issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum QueryKind {
    /// `union_seq_range` over hour- and day-aligned ranges of one stream.
    Ranges,
    /// Random spans of the flat catalog: widths spread log-uniformly over
    /// `[16, partitions]`, start uniform, so almost never aligned or
    /// repeated.
    AdHoc,
    /// Zipf(32, s = 1.1) draws from 32 fixed spans of the flat catalog.
    Dashboard,
}

/// One workload: the mix of operations and their sizes at the reference
/// duration.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    pub name: &'static str,
    /// Router fan-out: partitions per minute.
    streams: u64,
    /// Algorithm HB (with the partition size as `expected_n`) or HR.
    hb: bool,
    n_f: u64,
    minute_rows: u64,
    minutes: u64,
    /// Days of minutes ingested and compacted during set-up.
    history_days: u64,
    flat_parts: u64,
    flat_rows: u64,
    flat_n_f: u64,
    queries_per_minute: u64,
    query: QueryKind,
    cache_bytes: u64,
}

const MIB: u64 = 1 << 20;

pub const MIXES: [Mix; 4] = [
    Mix {
        name: "stream_ingest",
        streams: 4,
        hb: false,
        n_f: 1024,
        minute_rows: 1 << 23,
        minutes: 600,
        history_days: 0,
        flat_parts: 0,
        flat_rows: 0,
        flat_n_f: 0,
        queries_per_minute: 4,
        query: QueryKind::Ranges,
        cache_bytes: 64 * MIB,
    },
    Mix {
        name: "adhoc_union",
        streams: 1,
        hb: false,
        n_f: 512,
        minute_rows: 65_536,
        minutes: 1200,
        history_days: 0,
        flat_parts: 4096,
        flat_rows: 8192,
        flat_n_f: 512,
        queries_per_minute: 3,
        query: QueryKind::AdHoc,
        cache_bytes: 4 * MIB,
    },
    Mix {
        name: "dashboard_cached",
        streams: 1,
        hb: false,
        n_f: 512,
        minute_rows: 65_536,
        minutes: 1200,
        history_days: 0,
        flat_parts: 4096,
        flat_rows: 8192,
        flat_n_f: 512,
        queries_per_minute: 55,
        query: QueryKind::Dashboard,
        cache_bytes: 256 * MIB,
    },
    Mix {
        name: "live_mixed",
        streams: 4,
        hb: true,
        n_f: 1024,
        minute_rows: 65_536,
        minutes: 1320,
        history_days: 2,
        flat_parts: 0,
        flat_rows: 0,
        flat_n_f: 0,
        queries_per_minute: 4 * RANGE_KINDS,
        query: QueryKind::Ranges,
        cache_bytes: 64 * MIB,
    },
];

pub fn find_mix(name: &str) -> Option<&'static Mix> {
    MIXES.iter().find(|m| m.name == name)
}

/// Concrete sizes of one run.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pool_rows: u64,
    minute_rows: u64,
    /// A whole number of hours, at least two, so the last sweep compacts
    /// every ingested minute and both reported percentiles have samples.
    minutes: u64,
    history_days: u64,
    flat_parts: u64,
    flat_rows: u64,
    n_f: u64,
    flat_n_f: u64,
    queries_per_minute: u64,
}

impl Mix {
    /// Sizes for a run measuring about `seconds` on the reference host, up
    /// to [`MAX_MINUTES`].
    pub fn sizes(&self, seconds: f64) -> Sizes {
        let hours = (self.minutes as f64 * seconds / REFERENCE_SECONDS / 60.0).round();
        Sizes {
            pool_rows: 1 << 23,
            minute_rows: self.minute_rows,
            minutes: ((hours as u64).max(2) * MINUTES_PER_HOUR).min(MAX_MINUTES),
            history_days: self.history_days,
            flat_parts: self.flat_parts,
            flat_rows: self.flat_rows,
            n_f: self.n_f,
            flat_n_f: self.flat_n_f,
            queries_per_minute: self.queries_per_minute,
        }
    }

    /// A seconds-long version of the workload for tests: same pipeline and
    /// shape, small pool, partitions and footprints.
    #[cfg(test)]
    pub fn tiny_sizes(&self) -> Sizes {
        Sizes {
            pool_rows: 1 << 14,
            minute_rows: (self.minute_rows / 512).max(64),
            minutes: 2 * MINUTES_PER_HOUR,
            history_days: self.history_days.min(1),
            flat_parts: self.flat_parts.min(64),
            flat_rows: self.flat_rows.min(256),
            n_f: self.n_f / 16,
            flat_n_f: self.flat_n_f / 16,
            queries_per_minute: 1,
        }
    }

    fn sampler(&self, sz: &Sizes) -> SamplerConfig {
        if self.hb {
            SamplerConfig::HybridBernoulli {
                expected_n: sz.minute_rows / self.streams,
                p_bound: P_BOUND,
            }
        } else {
            SamplerConfig::HybridReservoir
        }
    }
}

fn key(dataset: DatasetId, partition: PartitionId) -> PartitionKey {
    PartitionKey { dataset, partition }
}

fn err(context: &str, e: impl std::fmt::Display) -> String {
    format!("{context}: {e}")
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

/// A warehouse ready for the measured minutes.
struct World {
    pool: Pool,
    /// `minute_sums[slot][stream]`: exact totals of the stream's share of the
    /// minute whose rows start at `slot * minute_rows`.
    minute_sums: Vec<Vec<Totals>>,
    /// `flat_prefix[i]`: exact totals over flat partitions `0..i`.
    flat_prefix: Vec<Totals>,
    catalog: Arc<Catalog<u64>>,
    cache: Arc<UnionCache<u64>>,
    mgr: LifecycleManager<u64>,
    dir: PathBuf,
    history_minutes: u64,
}

impl Sizes {
    /// First pool row of `minute`; minutes wrap around the pool.
    fn minute_start(&self, minute: u64) -> u64 {
        (minute * self.minute_rows) % self.pool_rows
    }
}

impl World {
    fn minute_sum(&self, sz: &Sizes, minute: u64, stream: u64) -> Totals {
        let slot = sz.minute_start(minute) / sz.minute_rows;
        self.minute_sums[slot as usize][stream as usize]
    }
}

/// Ingest one minute through a fresh router, `chunk` rows per call.
fn ingest_minute(
    mix: &Mix,
    sz: &Sizes,
    rows: &[u64],
    chunk: usize,
    rng: &mut SmallRng,
) -> StreamRouter<u64> {
    let policy = FootprintPolicy::with_value_budget(sz.n_f);
    let mut router = StreamRouter::new(
        mix.streams as usize,
        mix.sampler(sz),
        policy,
        SplitPolicy::RoundRobin,
    );
    for c in rows.chunks(chunk) {
        router.observe_chunk(c, rng);
    }
    router
}

fn roll_in_minute(
    catalog: &Catalog<u64>,
    minute: u64,
    samples: Vec<Sample<u64>>,
) -> Result<(), String> {
    for (s, sample) in samples.into_iter().enumerate() {
        catalog
            .roll_in(key(INGEST, PartitionId::new(s as u32, minute)), sample)
            .map_err(|e| err("roll_in", e))?;
    }
    Ok(())
}

fn setup(mix: &Mix, sz: &Sizes, seed: u64, dir: &Path) -> Result<World, String> {
    assert!(
        sz.pool_rows.is_multiple_of(sz.minute_rows) && sz.minute_rows.is_multiple_of(mix.streams)
    );
    let pool = Pool::generate(sz.pool_rows, seed);
    let minute_sums = (0..sz.pool_rows / sz.minute_rows)
        .map(|slot| {
            (0..mix.streams)
                .map(|s| {
                    pool.strided_pred_sum(slot * sz.minute_rows, sz.minute_rows, mix.streams, s)
                })
                .collect()
        })
        .collect();
    let catalog = Arc::new(Catalog::new());
    let cache = Arc::new(UnionCache::new(mix.cache_bytes));
    catalog.enable_union_cache(Arc::clone(&cache));
    let mut rng = seeded_rng(seed ^ 0x5E7u64.rotate_left(40));

    let mut flat_prefix = vec![Totals::default()];
    for i in 0..sz.flat_parts {
        let start = (i * sz.flat_rows) % sz.pool_rows;
        let policy = FootprintPolicy::with_value_budget(sz.flat_n_f);
        let mut s = SamplerConfig::HybridReservoir.build::<u64>(policy);
        s.observe_batch(pool.slice(start, sz.flat_rows), &mut rng);
        catalog
            .roll_in(key(FLAT, PartitionId::seq(i)), s.finalize(&mut rng))
            .map_err(|e| err("flat roll_in", e))?;
        flat_prefix.push(flat_prefix[i as usize] + pool.pred_sum(start, sz.flat_rows));
    }

    // History: whole days of minutes, compacted in memory hour by hour (so
    // at most an hour of hot samples is ever resident) into cold roll-ups,
    // which are then persisted.
    let history_minutes = sz.history_days * MINUTES_PER_DAY;
    let compactor = LifecycleManager::new(Arc::clone(&catalog), None, P_BOUND);
    for m in 0..history_minutes {
        let rows = pool.slice(sz.minute_start(m), sz.minute_rows);
        let router = ingest_minute(mix, sz, rows, rows.len(), &mut rng);
        roll_in_minute(&catalog, m, router.finalize(&mut rng))?;
        if (m + 1).is_multiple_of(MINUTES_PER_HOUR) {
            compactor
                .compact_dataset(INGEST, &mut rng)
                .map_err(|e| err("history compaction", e))?;
        }
    }
    let store = DiskStore::open(dir).map_err(|e| err("store open", e))?;
    if history_minutes > 0 {
        for p in catalog.partitions(INGEST).map_err(|e| err("history", e))? {
            let sample = catalog.get(key(INGEST, p)).map_err(|e| err("history", e))?;
            store
                .save(key(INGEST, p), &sample)
                .map_err(|e| err("history save", e))?;
        }
    }
    let mgr = LifecycleManager::new(Arc::clone(&catalog), Some(store), P_BOUND);
    if sz.flat_parts > 0 {
        mgr.set_policy(
            FLAT,
            LifecyclePolicy {
                warm_fan_in: 1,
                cold_fan_in: 1,
                ..LifecyclePolicy::default()
            },
        );
    }
    Ok(World {
        pool,
        minute_sums,
        flat_prefix,
        catalog,
        cache,
        mgr,
        dir: dir.to_path_buf(),
        history_minutes,
    })
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

/// What one query selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Target {
    /// Raw minutes `lo..=hi` of one stream.
    Range { stream: u32, lo: u64, hi: u64 },
    /// Flat partitions `lo..hi`.
    Flat { lo: u64, hi: u64 },
}

/// Number of distinct range shapes [`range_for`] produces.
const RANGE_KINDS: u64 = 16;

/// The `kind`-th hour- or day-aligned range ending at minute `now`, issued
/// after the sweep due at `now`. Starts fall on an hour boundary of the
/// current day or on a day boundary, and every range ends at `now` or at
/// the end of a complete hour or day, so no range cuts a compacted span in
/// two. Early in a day some shapes have no complete hour to end on and fall
/// back to the current hour; in a day's last minute, whose sweep compacts
/// the whole day, every shape inside the day widens to the day.
fn range_for(kind: u64, now: u64) -> (u64, u64) {
    let day = now / MINUTES_PER_DAY * MINUTES_PER_DAY;
    let (lo, hi) = shape(kind, now);
    if (now + 1).is_multiple_of(MINUTES_PER_DAY) && lo >= day {
        (day, now)
    } else {
        (lo, hi)
    }
}

fn shape(kind: u64, now: u64) -> (u64, u64) {
    let hour = now / MINUTES_PER_HOUR * MINUTES_PER_HOUR;
    let day = now / MINUTES_PER_DAY * MINUTES_PER_DAY;
    let hours_back = |n: u64| hour.saturating_sub(n * MINUTES_PER_HOUR).max(day);
    let days_back = |n: u64| day.saturating_sub(n * MINUTES_PER_DAY);
    let to_last_full_hour = |n: u64| {
        if hour > day {
            (hours_back(n), hour - 1)
        } else {
            (hour, now)
        }
    };
    match kind % RANGE_KINDS {
        1 => to_last_full_hour(1),
        2 => (hours_back(1), now),
        3 => (hours_back(2), now),
        4 => to_last_full_hour(2),
        5 => to_last_full_hour(3),
        6 => (hours_back(5), now),
        7 => (hours_back(11), now),
        8 => (day, now),
        9 if day > 0 => (days_back(1), day - 1),
        10 => to_last_full_hour(6),
        11 => to_last_full_hour(12),
        12 => (days_back(1), now),
        13 => (days_back(2), now),
        14 if day > MINUTES_PER_DAY => (days_back(2), days_back(1) - 1),
        15 => (0, now),
        _ => (hour, now),
    }
}

/// The 32 fixed spans of `dashboard_cached`, most popular first: widths
/// 60, 360, 1440 and 4096 partitions (scaled to the catalog) times eight
/// end offsets near the newest partition.
fn dashboard_spans(parts: u64) -> Vec<(u64, u64)> {
    let step = (parts / 512).max(1);
    let mut spans = Vec::new();
    for w in [60, 360, 1440, 4096] {
        let width = (w * parts / 4096).max(1);
        for j in 0..8 {
            let hi = parts - j * step;
            spans.push((hi.saturating_sub(width), hi));
        }
    }
    spans
}

/// One planned query with its exact answer.
#[derive(Debug, Clone, Copy)]
struct Plan {
    target: Target,
    rows: u64,
    exact: Totals,
    n_f: u64,
}

/// Step of the ad-hoc width sequence: the golden ratio's fractional part,
/// whose multiples mod 1 cover `[0, 1)` evenly at every length.
const WIDTH_STEP: f64 = 0.618_033_988_749_894_8;

struct Planner {
    rng: SmallRng,
    zipf: Zipf,
    spans: Vec<(u64, u64)>,
    issued: u64,
    /// Position in `[0, 1)` of the last ad-hoc width on the log scale.
    width_phase: f64,
}

impl Planner {
    fn new(mix: &Mix, sz: &Sizes, seed: u64) -> Planner {
        let mut rng = seeded_rng(seed ^ 0x9E3u64.rotate_left(52));
        let width_phase = rng.random::<f64>();
        Planner {
            rng,
            zipf: Zipf::new(32, 1.1),
            spans: if mix.query == QueryKind::Dashboard {
                dashboard_spans(sz.flat_parts)
            } else {
                Vec::new()
            },
            issued: 0,
            width_phase,
        }
    }

    /// The next ad-hoc span width in `[16, parts]`. Widths step through
    /// the log range by [`WIDTH_STEP`] from a seeded start rather than
    /// being drawn independently, so every run's widths are log-uniform,
    /// not only in expectation, and the median query is as wide on every
    /// seed.
    fn adhoc_width(&mut self, parts: u64) -> u64 {
        let min = 16.min(parts);
        self.width_phase = (self.width_phase + WIDTH_STEP).fract();
        let (ln_min, ln_max) = ((min as f64).ln(), (parts as f64).ln());
        let ln = ln_min + self.width_phase * (ln_max - ln_min);
        (ln.exp().round() as u64).clamp(min, parts)
    }

    fn plan(&mut self, mix: &Mix, sz: &Sizes, world: &World, now: u64) -> Plan {
        self.issued += 1;
        match mix.query {
            QueryKind::Ranges => {
                // Each stream in turn gets all the range shapes, so a
                // minute's queries repeat no (stream, range) pair.
                let stream = (self.issued - 1) / RANGE_KINDS % mix.streams;
                let (lo, hi) = range_for(self.issued, now);
                let exact = (lo..=hi).map(|m| world.minute_sum(sz, m, stream)).sum();
                Plan {
                    target: Target::Range {
                        stream: stream as u32,
                        lo,
                        hi,
                    },
                    rows: (hi - lo + 1) * (sz.minute_rows / mix.streams),
                    exact,
                    n_f: sz.n_f,
                }
            }
            QueryKind::AdHoc | QueryKind::Dashboard => {
                let f = sz.flat_parts;
                let (lo, hi) = if mix.query == QueryKind::AdHoc {
                    let width = self.adhoc_width(f);
                    let lo = self.rng.random_range(0..f - width + 1);
                    (lo, lo + width)
                } else {
                    let rank = self.zipf.sample(&mut self.rng) as usize;
                    self.spans[(rank - 1).min(self.spans.len() - 1)]
                };
                Plan {
                    target: Target::Flat { lo, hi },
                    rows: (hi - lo) * sz.flat_rows,
                    exact: world.flat_prefix[hi as usize] - world.flat_prefix[lo as usize],
                    n_f: sz.flat_n_f,
                }
            }
        }
    }
}

/// How many design standard errors an estimate may miss the exact answer
/// by. A run checks up to 85,000 estimates, and the unions over one hour
/// share its stored roll-up, so their errors move together: on
/// `live_mixed` seed 26 the worst of 84,480 was 4.7 and errors beyond 4
/// came three times as often as for independent normal ones. At 8 a miss
/// is out of reach of chance but not of a wrong sample.
const MAX_ERROR_SE: f64 = 8.0;

/// Whether a query result is right: within the footprint bound, covering
/// exactly the selected rows, and with an estimate within
/// [`MAX_ERROR_SE`] standard errors of the exact answer.
fn result_ok(sample: &Sample<u64>, est: &Estimate, plan: &Plan) -> bool {
    let bounded = sample.slots() <= plan.n_f
        && (sample.size() <= plan.n_f || sample.kind() == SampleKind::Exhaustive);
    let exact = plan.exact.sum as f64;
    let miss = (est.value - exact).abs();
    let close = miss <= MAX_ERROR_SE * design_std_error(sample, plan) + 1e-9 * exact.max(1.0);
    bounded && sample.parent_size() == plan.rows && close
}

/// The true standard error of the SUM estimate from a sample of the
/// selected rows, under the sample's design (Bernoulli(q) or a simple random
/// sample of its size), from the rows' exact totals. The estimator's own
/// `std_error` is computed from the sample and shrinks with the estimate on
/// skewed data, so measured against it the error has a heavy lower tail: one
/// query in 84,480 on `live_mixed` fell 6.1 of them below the exact sum.
fn design_std_error(sample: &Sample<u64>, plan: &Plan) -> f64 {
    let (sum, sum_sq) = (plan.exact.sum as f64, plan.exact.sum_sq as f64);
    match sample.kind() {
        SampleKind::Bernoulli { q, .. } => ((1.0 - q) / q * sum_sq).sqrt(),
        SampleKind::Reservoir => {
            let (n, k) = (plan.rows as f64, sample.size() as f64);
            let variance = (sum_sq - sum * sum / n).max(0.0) / (n - 1.0).max(1.0);
            n * ((1.0 - k / n) * variance / k.max(1.0)).sqrt()
        }
        // An exhaustive sample answers exactly; a concise one is not
        // uniform, so it passes only if it happens to be exact.
        SampleKind::Exhaustive | SampleKind::Concise { .. } => 0.0,
    }
}

// ---------------------------------------------------------------------------
// The measured phase
// ---------------------------------------------------------------------------

/// Everything one pass of measured minutes and restarts produced.
#[derive(Debug, Default)]
struct Measured {
    wall_ns: u64,
    rows: u64,
    attempted: u64,
    failed: u64,
    ingest_ms: Vec<f64>,
    commit_ms: Vec<f64>,
    query_ms: Vec<f64>,
    reload_ms: Vec<f64>,
    rel_ci: Vec<f64>,
    store_files: u64,
    store_bytes: u64,
    store_rows: u64,
    // Counts at layer boundaries.
    chunks: u64,
    sweeps: CompactionReport,
    scanned: u64,
    selected: u64,
    fill: f64,
    cache_lookups: u64,
    cache_hits: u64,
    cache_bytes_end: u64,
    registry: [u64; 4],
}

/// Registry counters read by name around the measured minutes; a counter
/// the library no longer registers reads as 0.
const REGISTRY_COUNTERS: [&str; 4] = [
    "swh_store_fsync_total",
    "swh_union_cache_evictions_total",
    "swh_catalog_union_serial_total",
    "swh_catalog_union_parallel_total",
];

fn registry_counters() -> [u64; 4] {
    let snap = swh_obs::global().snapshot();
    REGISTRY_COUNTERS.map(|name| snap.counter(name))
}

fn store_usage(dir: &Path) -> (u64, u64) {
    let mut files = 0;
    let mut bytes = 0;
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.flatten() {
            match entry.metadata() {
                Ok(m) if m.is_dir() => stack.push(entry.path()),
                Ok(m) => {
                    files += 1;
                    bytes += m.len();
                }
                Err(_) => {}
            }
        }
    }
    (files, bytes)
}

fn measure(mix: &Mix, sz: &Sizes, world: &World, seed: u64, tr: &mut Tracer) -> Measured {
    let mut out = Measured::default();
    let mut ingest_rng = seeded_rng(seed ^ 0x1A6u64.rotate_left(44));
    let mut merge_rng = seeded_rng(seed ^ 0x3E6u64.rotate_left(48));
    let mut planner = Planner::new(mix, sz, seed);
    let registry_before = registry_counters();
    let (lookups_before, hits_before) = world.cache.stats();
    let started = Instant::now();

    for m in 0..sz.minutes {
        let now = world.history_minutes + m;
        let rows = world.pool.slice(sz.minute_start(now), sz.minute_rows);
        let (router, ms) = tr.op("op.ingest", |tr| {
            tr.layer("ingest.observe", || {
                ingest_minute(mix, sz, rows, CHUNK, &mut ingest_rng)
            })
        });
        out.ingest_ms.push(ms);
        out.rows += sz.minute_rows;
        out.chunks += sz.minute_rows.div_ceil(CHUNK as u64);

        let (committed, ms) = tr.op("op.commit", |tr| -> Result<CompactionReport, String> {
            let samples = tr.layer("ingest.finalize", || router.finalize(&mut ingest_rng));
            tr.layer("catalog.roll_in", || {
                roll_in_minute(&world.catalog, now, samples)
            })?;
            if (m + 1).is_multiple_of(SWEEP_EVERY) {
                tr.layer("lifecycle.sweep", || world.mgr.sweep(&mut ingest_rng))
                    .map_err(|e| err("sweep", e))
            } else {
                Ok(CompactionReport::default())
            }
        });
        out.commit_ms.push(ms);
        out.attempted += 1;
        match committed {
            Ok(report) => out.sweeps.absorb(report),
            Err(e) => {
                eprintln!("minute {now}: {e}");
                out.failed += 1;
            }
        }
        if (m + 1).is_multiple_of(SWEEP_EVERY) {
            // The sweep made every complete hour durable; after the last
            // minute, which ends an hour, that is every ingested row.
            let compacted = (now + 1) / MINUTES_PER_HOUR * MINUTES_PER_HOUR;
            restart(world, sz, compacted * sz.minute_rows, tr, &mut out);
        }

        for _ in 0..sz.queries_per_minute {
            let plan = tr.layer("bench.plan", || planner.plan(mix, sz, world, now));
            let mut scanned = 0u64;
            let (answer, ms) = tr.op("op.query", |tr| {
                let sample = tr.layer("catalog.union", || match plan.target {
                    Target::Range { stream, lo, hi } => world
                        .mgr
                        .union_seq_range(INGEST, stream, lo..=hi, &mut merge_rng)
                        .map_err(|e| err("union_seq_range", e)),
                    Target::Flat { lo, hi } => world
                        .catalog
                        .union_sample(
                            FLAT,
                            |p| {
                                scanned += 1;
                                (lo..hi).contains(&p.seq)
                            },
                            P_BOUND,
                            &mut merge_rng,
                        )
                        .map_err(|e| err("union_sample", e)),
                })?;
                let est = tr.layer("aqp.estimate", || {
                    estimate_sum::<u64>(&sample, |v| *v <= PRED_MAX)
                });
                Ok::<_, String>((sample, est))
            });
            out.query_ms.push(ms);
            out.attempted += 1;
            let ok = tr.layer("bench.check", || match &answer {
                Ok((sample, est)) => {
                    let rel = est.relative_error(0.95);
                    if rel.is_finite() {
                        out.rel_ci.push(rel);
                    }
                    out.fill += sample.size() as f64 / plan.n_f.min(plan.rows) as f64;
                    let ok = result_ok(sample, est, &plan);
                    if !ok {
                        eprintln!(
                            "query {:?}: {:?} sample of {} (parent {}) estimates {} against {}",
                            plan.target,
                            sample.kind(),
                            sample.size(),
                            sample.parent_size(),
                            est.value,
                            plan.exact.sum
                        );
                    }
                    ok
                }
                Err(e) => {
                    eprintln!("query {:?}: {e}", plan.target);
                    false
                }
            });
            if !ok {
                out.failed += 1;
            }
            if tr.enabled() {
                let (scan, sel) = tr.layer("bench.count", || count_partitions(world, &plan));
                out.scanned += if scanned > 0 { scanned } else { scan };
                out.selected += sel;
            }
        }
    }
    out.registry = registry_counters();
    for (after, before) in out.registry.iter_mut().zip(registry_before) {
        *after = after.saturating_sub(before);
    }
    let (lookups, hits) = world.cache.stats();
    out.cache_lookups = lookups - lookups_before;
    out.cache_hits = hits - hits_before;
    out.cache_bytes_end = world.cache.bytes();
    out.store_rows = (world.history_minutes + sz.minutes) * sz.minute_rows;
    out.wall_ns = started.elapsed().as_nanos() as u64;
    (out.store_files, out.store_bytes) = store_usage(&world.dir);
    out
}

/// Restart the warehouse from its store: open, crash recovery, and a load
/// of every stored dataset into a fresh `SampleWarehouse`. The reloaded
/// samples must cover exactly `expected_rows`, the rows of every minute
/// compacted so far.
fn restart(world: &World, sz: &Sizes, expected_rows: u64, tr: &mut Tracer, out: &mut Measured) {
    let (loaded, ms) = tr.op("op.reload", |tr| {
        let store = tr
            .layer("store.open", || DiskStore::open(&world.dir))
            .map_err(|e| err("open", e))?;
        tr.layer("lifecycle.recover", || recover_store(&store))
            .map_err(|e| err("recover", e))?;
        tr.layer("warehouse.load_dataset", || {
            let wh = SampleWarehouse::<u64>::new(
                FootprintPolicy::with_value_budget(sz.n_f),
                Algorithm::HybridReservoir,
                P_BOUND,
            );
            for ds in store_datasets(&store).map_err(|e| err("list", e))? {
                wh.load_dataset(&store, ds).map_err(|e| err("load", e))?;
            }
            Ok::<_, String>(wh)
        })
    });
    out.reload_ms.push(ms);
    out.attempted += 1;
    let ok = tr.layer("bench.check", || {
        let wh = loaded.map_err(|e| err("reload", e))?;
        let mut rows = 0;
        for p in wh.catalog().partitions(INGEST).unwrap_or_default() {
            let s = wh
                .catalog()
                .get(key(INGEST, p))
                .map_err(|e| err("reload", e))?;
            if s.slots() > sz.n_f {
                return Err(format!("reloaded {p} exceeds the footprint bound"));
            }
            rows += s.parent_size();
        }
        if rows == expected_rows {
            Ok(())
        } else {
            Err(format!(
                "reload covers {rows} rows, {expected_rows} compacted"
            ))
        }
    });
    if let Err(e) = ok {
        eprintln!("{e}");
        out.failed += 1;
    }
}

/// Partitions the union scanned (the dataset's resident count) and
/// selected, for the trace.
fn count_partitions(world: &World, plan: &Plan) -> (u64, u64) {
    match plan.target {
        Target::Flat { lo, hi } => (0, hi - lo),
        Target::Range { stream, lo, hi } => {
            let parts = world.catalog.partitions(INGEST).unwrap_or_default();
            let policy = world.mgr.policy(INGEST);
            let selected = parts
                .iter()
                .filter(|p| raw_stream(p.stream) == stream)
                .filter(|p| {
                    let (plo, phi) = policy.span_of(**p);
                    plo >= lo && phi <= hi
                })
                .count();
            (parts.len() as u64, selected as u64)
        }
    }
}

// ---------------------------------------------------------------------------
// Runs
// ---------------------------------------------------------------------------

/// A metric as printed: name, unit, value.
pub type Metric = (&'static str, &'static str, f64);

/// What a run reports.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// The traced pass, when tracing.
    pub tracer: Option<Tracer>,
    pub wall_ns: u64,
}

/// Peak resident set size in MB (`VmHWM`), when the platform reports it.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn remove_store(dir: &Path) {
    if let Err(e) = std::fs::remove_dir_all(dir) {
        eprintln!("warning: could not remove {}: {e}", dir.display());
    }
}

fn sum(values: &[f64]) -> f64 {
    values.iter().sum()
}

/// The metrics of `list` that have a finite value.
fn finite(list: Vec<(&'static str, &'static str, Option<f64>)>) -> Vec<Metric> {
    list.into_iter()
        .filter_map(|(name, unit, v)| Some((name, unit, v.filter(|v| v.is_finite())?)))
        .collect()
}

fn end_to_end(m: &Measured, setup_s: &[f64]) -> Vec<Metric> {
    let write_s = (sum(&m.ingest_ms) + sum(&m.commit_ms)) / 1e3;
    let rows_per_s = m.rows as f64 / write_s;
    let queries_per_s = m.query_ms.len() as f64 / (sum(&m.query_ms) / 1e3);
    let bytes_per_krow = m.store_bytes as f64 / (m.store_rows as f64 / 1e3);
    finite(vec![
        ("setup_s", "s", median(setup_s)),
        ("ingest_rows_per_s", "rows/s", Some(rows_per_s)),
        ("commit_ms_p50", "ms", percentile(&m.commit_ms, 0.5)),
        ("query_ms_p50", "ms", percentile(&m.query_ms, 0.5)),
        ("query_ms_p90", "ms", percentile(&m.query_ms, 0.9)),
        ("queries_per_s", "1/s", Some(queries_per_s)),
        ("est_rel_ci_p50", "ratio", percentile(&m.rel_ci, 0.5)),
        ("store_bytes_per_krow", "B/krow", Some(bytes_per_krow)),
        ("peak_rss_mb", "MB", peak_rss_mb()),
    ])
}

fn per_layer(m: &Measured, tr: &Tracer, untraced_wall_ns: u64) -> Vec<Metric> {
    let us = |name: &str| median(&tr.durations_ms(name)).map(|v| v * 1e3);
    let ms = |name: &str| median(&tr.durations_ms(name));
    let queries = m.query_ms.len().max(1) as f64;
    let [fsyncs, evictions, serial, parallel] = m.registry.map(|v| v as f64);
    let observe_ns = sum(&tr.durations_ms("ingest.observe")) * 1e6;
    let sweeps = tr.durations_ms("lifecycle.sweep");
    let unions = tr.durations_ms("catalog.union");
    let built = m.sweeps.warm_built + m.sweeps.cold_built;
    let hit_rate = m.cache_hits as f64 / m.cache_lookups.max(1) as f64;
    let unattributed = m.wall_ns.saturating_sub(tr.attributed_ns()) as f64 / m.wall_ns as f64;
    let overhead = (m.wall_ns as f64 / untraced_wall_ns as f64 - 1.0) * 100.0;
    finite(vec![
        (
            "ingest.observe_ns_per_row",
            "ns",
            Some(observe_ns / m.rows as f64),
        ),
        ("ingest.chunks", "count", Some(m.chunks as f64)),
        ("op.commit_ms_p90", "ms", percentile(&m.commit_ms, 0.9)),
        ("ingest.finalize_us_p50", "us", us("ingest.finalize")),
        ("catalog.roll_in_us_p50", "us", us("catalog.roll_in")),
        ("lifecycle.sweep_ms_p50", "ms", median(&sweeps)),
        (
            "lifecycle.sweep_ms_max",
            "ms",
            sweeps.iter().copied().reduce(f64::max),
        ),
        ("lifecycle.sweeps", "count", Some(sweeps.len() as f64)),
        ("lifecycle.rollups_built", "count", Some(built as f64)),
        (
            "lifecycle.inputs_retired",
            "count",
            Some(m.sweeps.inputs_retired as f64),
        ),
        ("store.fsyncs", "count", Some(fsyncs)),
        ("store.files_end", "count", Some(m.store_files as f64)),
        ("store.bytes_end", "B", Some(m.store_bytes as f64)),
        ("catalog.union_ms_p50", "ms", percentile(&unions, 0.5)),
        ("catalog.union_ms_p90", "ms", percentile(&unions, 0.9)),
        (
            "catalog.partitions_scanned_mean",
            "count",
            Some(m.scanned as f64 / queries),
        ),
        (
            "catalog.partitions_selected_mean",
            "count",
            Some(m.selected as f64 / queries),
        ),
        (
            "catalog.union_parallel_frac",
            "ratio",
            Some(parallel / (serial + parallel).max(1.0)),
        ),
        ("lifecycle.cache_hit_rate", "ratio", Some(hit_rate)),
        ("lifecycle.cache_evictions", "count", Some(evictions)),
        (
            "lifecycle.cache_bytes_end",
            "B",
            Some(m.cache_bytes_end as f64),
        ),
        ("aqp.estimate_us_p50", "us", us("aqp.estimate")),
        ("union.sample_fill_mean", "ratio", Some(m.fill / queries)),
        ("op.reload_ms", "ms", median(&m.reload_ms)),
        ("store.open_ms", "ms", ms("store.open")),
        ("lifecycle.recover_ms", "ms", ms("lifecycle.recover")),
        (
            "warehouse.load_dataset_ms",
            "ms",
            ms("warehouse.load_dataset"),
        ),
        ("bench.unattributed_frac", "ratio", Some(unattributed)),
        ("bench.trace_overhead_pct", "%", Some(overhead)),
    ])
}

/// Run one workload. The store lives in a fresh directory under
/// `store_root`, removed before returning. With `traced`, the measured
/// minutes run twice, untraced and then traced, and the per-layer metrics
/// come from the traced pass; otherwise the end-to-end metrics come from
/// one untraced pass after [`SETUPS`] timed set-ups.
pub fn run(
    mix: &Mix,
    sz: &Sizes,
    seed: u64,
    traced: bool,
    store_root: &Path,
) -> Result<Outcome, String> {
    std::fs::create_dir_all(store_root).map_err(|e| err("store root", e))?;
    // The profiler is on by default, and every parallel union's fresh worker
    // threads register new profile shards that are never freed: left on,
    // it adds its own cost and grows the heap with the number of parallel
    // unions. Only the traced pass turns it on.
    swh_obs::profile::set_enabled(false);
    let dir_for =
        |attempt: usize| store_root.join(format!("{}-{}-{attempt}", mix.name, std::process::id()));
    let mut setup_s = Vec::new();
    let mut world: Option<World> = None;
    for attempt in 0..if traced { 1 } else { SETUPS } {
        if let Some(old) = world.take() {
            remove_store(&old.dir);
        }
        let t = Instant::now();
        world = Some(setup(mix, sz, seed, &dir_for(attempt))?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let world = world.ok_or("no set-up ran")?;
    let mut tracer = Tracer::new(false);
    let first = measure(mix, sz, &world, seed, &mut tracer);
    remove_store(&world.dir);
    drop(world);
    if !traced {
        return Ok(Outcome {
            attempted: first.attempted,
            failed: first.failed,
            metrics: end_to_end(&first, &setup_s),
            tracer: None,
            wall_ns: first.wall_ns,
        });
    }

    let world = setup(mix, sz, seed, &dir_for(SETUPS))?;
    let mut tracer = Tracer::new(true);
    swh_obs::profile::set_enabled(true);
    let second = measure(mix, sz, &world, seed, &mut tracer);
    swh_obs::profile::set_enabled(false);
    remove_store(&world.dir);
    Ok(Outcome {
        attempted: first.attempted + second.attempted,
        failed: first.failed + second.failed,
        metrics: per_layer(&second, &tracer, first.wall_ns),
        tracer: Some(tracer),
        wall_ns: second.wall_ns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use swh_warehouse::lifecycle::LifecycleError;

    /// Over a simulated 3-day timeline with a sweep every 15 minutes, no
    /// range the query generator yields is refused as misaligned.
    #[test]
    fn range_queries_never_cut_a_compacted_span() {
        let catalog = Arc::new(Catalog::<u64>::new());
        let mgr = LifecycleManager::new(Arc::clone(&catalog), None, P_BOUND);
        let mut rng = seeded_rng(5);
        let policy = FootprintPolicy::with_value_budget(4);
        let days = 3;
        for now in 0..days * MINUTES_PER_DAY {
            let mut s = SamplerConfig::HybridReservoir.build::<u64>(policy);
            s.observe_batch(&[now, now + 1], &mut rng);
            catalog
                .roll_in(key(INGEST, PartitionId::new(0, now)), s.finalize(&mut rng))
                .unwrap();
            if (now + 1).is_multiple_of(SWEEP_EVERY) {
                mgr.sweep(&mut rng).unwrap();
            }
            // Every kind at the minutes around each sweep and boundary,
            // a rotating kind elsewhere, to keep the test fast.
            let near_sweep = (now + 2) % SWEEP_EVERY < 3;
            let kinds = if near_sweep {
                0..RANGE_KINDS
            } else {
                now % RANGE_KINDS..now % RANGE_KINDS + 1
            };
            for kind in kinds {
                let (lo, hi) = range_for(kind, now);
                assert!(lo <= hi && hi <= now);
                match mgr.union_seq_range(INGEST, 0, lo..=hi, &mut rng) {
                    Ok(s) => assert_eq!(s.parent_size(), 2 * (hi - lo + 1)),
                    Err(e @ LifecycleError::MisalignedSpan { .. }) => {
                        panic!("minute {now}, kind {kind}: [{lo}, {hi}]: {e}")
                    }
                    Err(e) => panic!("minute {now}: {e}"),
                }
            }
        }
        assert!(
            catalog.partitions(INGEST).unwrap().len() < 200,
            "compaction ran"
        );
    }

    /// Over repeated HR (reservoir) and HB (Bernoulli) samples of one
    /// skewed population, the estimate's error measured in design standard
    /// errors has mean 0 and spread 1.
    #[test]
    fn design_std_error_matches_the_spread_of_estimates() {
        let rows = 2048;
        let pool = Pool::generate(rows, 3);
        let plan = Plan {
            target: Target::Flat { lo: 0, hi: 1 },
            rows,
            exact: pool.pred_sum(0, rows),
            n_f: 128,
        };
        let configs = [
            SamplerConfig::HybridReservoir,
            SamplerConfig::HybridBernoulli {
                expected_n: rows,
                p_bound: 1e-3,
            },
        ];
        for config in configs {
            let mut rng = seeded_rng(11);
            let z: Vec<f64> = (0..1000)
                .map(|_| {
                    let mut s = config.build::<u64>(FootprintPolicy::with_value_budget(plan.n_f));
                    s.observe_batch(pool.slice(0, rows), &mut rng);
                    let sample = s.finalize(&mut rng);
                    let est = estimate_sum::<u64>(&sample, |v| *v <= PRED_MAX);
                    assert!(result_ok(&sample, &est, &plan));
                    (est.value - plan.exact.sum as f64) / design_std_error(&sample, &plan)
                })
                .collect();
            let mean = z.iter().sum::<f64>() / z.len() as f64;
            let sd = (z.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / z.len() as f64).sqrt();
            assert!(
                mean.abs() < 0.15 && (0.9..1.1).contains(&sd),
                "{config:?}: {mean} {sd}"
            );
        }
    }

    /// Any run of ad-hoc widths splits evenly around the geometric middle
    /// of `[16, 4096]` (256), whatever the seed.
    #[test]
    fn adhoc_widths_are_log_uniform_on_every_seed() {
        let mix = find_mix("adhoc_union").unwrap();
        let sz = mix.sizes(REFERENCE_SECONDS);
        for seed in 1..=5 {
            let mut planner = Planner::new(mix, &sz, seed);
            let widths: Vec<u64> = (0..1000).map(|_| planner.adhoc_width(4096)).collect();
            assert!(widths.iter().all(|w| (16..=4096).contains(w)));
            let narrow = widths.iter().filter(|&&w| w < 256).count();
            assert!((495..=505).contains(&narrow), "seed {seed}: {narrow}");
        }
    }

    #[test]
    fn dashboard_spans_are_distinct_and_in_range() {
        for parts in [64, 4096] {
            let spans = dashboard_spans(parts);
            assert_eq!(spans.len(), 32);
            let mut sorted = spans.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 32, "{parts}");
            assert!(spans.iter().all(|&(lo, hi)| lo < hi && hi <= parts));
        }
    }
}
