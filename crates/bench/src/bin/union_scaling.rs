//! Union cost versus time-span with the partition lifecycle on (the PR-10
//! acceptance experiment, not a paper figure): a flat union over N hot
//! per-minute partitions pays O(N) merge work, while the same span rolled
//! into warm/cold tiers by the compactor touches O(log time-span) resident
//! roll-ups, and a repeat union served from the merged-union cache skips
//! planning and merging entirely.
//!
//! Four rows at every scale, N ∈ {64, 256, 1024, 4096} partitions:
//!
//! * `leaf_ms`  — flat union over the raw hot partitions (no lifecycle);
//! * `cold_ms`  — union over the compacted catalog (policy 64×64), cache
//!   off: the compaction claim;
//! * `warm_ms`  — repeat union served by the merged-union cache on the
//!   flat catalog: the cache claim;
//! * `flat_ratio`    — `cold_ms` relative to the 64-partition row: the
//!   4096-partition compacted union must cost ≤ 3× the 64-partition one;
//! * `cache_speedup` — `leaf_ms / warm_ms`: a warm-cache repeat union
//!   must be ≥ 10× faster than the cold (computed) one.
//!
//! Both `r3` figures are gated in-binary under `SWH_PERF_ASSERT` and
//! pinned in `bench_results/baselines.json` for `swh bench history --check`.
//!
//! Two more rows time single merge-plan nodes in microseconds (`node_us`,
//! not gated), at every scale:
//!
//! * `hr16_node` — a 16-way hypergeometric node over 16 reservoirs of 512
//!   elements, each from a parent of 8192 (the `adhoc_union` shape);
//! * `hb16_node` — a 16-way `HBMerge` node over Bernoulli samples of about
//!   940 elements (HB at n_F = 1024, p = 1e-6 over 16384-row partitions,
//!   the `live_mixed` shape).

use std::hint::black_box;
use std::sync::Arc;
use swh_bench::{section, time_secs, CsvOut, Scale};
use swh_core::footprint::FootprintPolicy;
use swh_core::hybrid_bernoulli::HybridBernoulli;
use swh_core::hybrid_reservoir::HybridReservoir;
use swh_core::merge::merge_tree_parallel;
use swh_core::planner::{plan_union, NodeShape};
use swh_core::sample::Sample;
use swh_core::sampler::Sampler;
use swh_rand::seeded_rng;
use swh_warehouse::catalog::Catalog;
use swh_warehouse::ids::{DatasetId, PartitionId, PartitionKey};
use swh_warehouse::lifecycle::{LifecycleManager, LifecyclePolicy, UnionCache};

const DS: DatasetId = DatasetId(1);
/// Same partition counts at every scale so `bench history` compares rows
/// one-to-one; scale only changes the per-partition population and n_F.
const COUNTS: [u64; 4] = [64, 256, 1024, 4096];
/// Hot partitions per warm roll-up and warm roll-ups per cold one: 4096
/// per-minute partitions collapse to a single cold span.
const FAN_IN: u64 = 64;

fn build_catalog(parts: u64, per_part: u64, n_f: u64, seed: u64) -> Arc<Catalog<u64>> {
    let mut rng = seeded_rng(seed);
    let catalog = Arc::new(Catalog::new());
    for seq in 0..parts {
        let lo = seq * per_part;
        let sample = HybridReservoir::new(FootprintPolicy::with_value_budget(n_f))
            .sample_batch(lo..lo + per_part, &mut rng);
        catalog
            .roll_in(
                PartitionKey {
                    dataset: DS,
                    partition: PartitionId::seq(seq),
                },
                sample,
            )
            .expect("roll_in");
    }
    catalog
}

/// Best-of-`reps` wall time of a full-span union, in milliseconds. The
/// merged size feeds the return value so the optimizer cannot drop the
/// work; every reps draws from a distinct RNG so cache-off runs never
/// replay identical randomness.
fn best_union_ms(catalog: &Catalog<u64>, reps: usize, seed: u64) -> (f64, u64) {
    let mut best = f64::INFINITY;
    let mut size = 0;
    for rep in 0..reps {
        let mut rng = seeded_rng(seed + rep as u64);
        let (merged, t) = time_secs(|| {
            catalog
                .union_sample(DS, |_| true, 1e-3, &mut rng)
                .expect("union")
        });
        best = best.min(t * 1e3);
        size = merged.size();
    }
    (best, size)
}

/// Microseconds per node of a one-node merge plan over `inputs`, run on
/// one thread as the catalog runs it: best of 20 batches of 32 unions, each
/// over its own copy of the inputs (copied before the batch is timed).
fn node_us(inputs: &[Sample<u64>], p_bound: f64, seed: u64) -> f64 {
    const PER_BATCH: usize = 32;
    let shapes: Vec<NodeShape> = inputs.iter().map(NodeShape::of).collect();
    let n_f = inputs.first().map_or(0, |s| s.policy().n_f());
    assert_eq!(plan_union(&shapes, n_f).merge_node_count(), 1);
    let mut rng = seeded_rng(seed);
    let mut best = f64::INFINITY;
    for _ in 0..20 {
        let batch: Vec<Vec<Sample<u64>>> = (0..PER_BATCH).map(|_| inputs.to_vec()).collect();
        let (sizes, t) = time_secs(|| {
            batch
                .into_iter()
                .map(|parts| {
                    merge_tree_parallel(parts, p_bound, 1, &mut rng)
                        .expect("merge")
                        .size()
                })
                .sum::<u64>()
        });
        black_box(sizes);
        best = best.min(t * 1e6 / PER_BATCH as f64);
    }
    best
}

/// The two probe shapes of `node_us`, as `(name, inputs, p_bound)`.
fn probe_shapes() -> Vec<(&'static str, Vec<Sample<u64>>, f64)> {
    let mut rng = seeded_rng(0x16);
    let hr = (0..16u64)
        .map(|i| {
            HybridReservoir::new(FootprintPolicy::with_value_budget(512))
                .sample_batch(i * 8192..(i + 1) * 8192, &mut rng)
        })
        .collect();
    let hb = (0..16u64)
        .map(|i| {
            HybridBernoulli::with_p_bound(FootprintPolicy::with_value_budget(1024), 16_384, 1e-6)
                .sample_batch(i * 16_384..(i + 1) * 16_384, &mut rng)
        })
        .collect();
    vec![("hr16_node", hr, 1e-3), ("hb16_node", hb, 1e-6)]
}

fn main() {
    let scale = Scale::from_env();
    let (per_part, n_f) = match scale {
        Scale::Smoke => (512u64, 128u64),
        _ => (4096, 512),
    };
    let reps = 5usize;

    section(&format!(
        "Union scaling under the partition lifecycle: {per_part} rows/partition, n_F = {n_f}, \
         compaction fan-in {FAN_IN}x{FAN_IN}, best of {reps}, scale = {scale}"
    ));
    println!(
        "{:>10} {:>10} {:>10} {:>10} {:>7} {:>11} {:>14}",
        "partitions", "leaf_ms", "cold_ms", "warm_ms", "nodes", "flat_ratio", "cache_speedup"
    );

    let mut csv = CsvOut::new(
        "union_scaling",
        "shape,partitions,leaf_ms,cold_ms,warm_ms,nodes,flat_ratio,cache_speedup,node_us",
    );
    let mut base_cold_ms = f64::NAN;
    let mut gate = (f64::NAN, f64::NAN);
    for (row, parts) in COUNTS.into_iter().enumerate() {
        // Flat leaf union: the O(N) baseline.
        let flat = build_catalog(parts, per_part, n_f, 0x1000 + parts);
        let (leaf_ms, leaf_size) = best_union_ms(&flat, reps, 0x51ED + parts);

        // Compacted union: same span rolled into warm/cold tiers.
        let compacted = build_catalog(parts, per_part, n_f, 0x1000 + parts);
        let manager = LifecycleManager::new(Arc::clone(&compacted), None, 1e-3);
        manager.set_policy(
            DS,
            LifecyclePolicy {
                warm_fan_in: FAN_IN,
                cold_fan_in: FAN_IN,
                max_age: None,
                footprint_budget: None,
            },
        );
        let mut sweep_rng = seeded_rng(0xC0DE + parts);
        manager.sweep(&mut sweep_rng).expect("sweep");
        let nodes = compacted.partitions(DS).expect("partitions").len();
        let (cold_ms, cold_size) = best_union_ms(&compacted, reps, 0xC1ED + parts);
        assert_eq!(
            cold_size, leaf_size,
            "compacted union must draw the same sample size"
        );

        // Warm-cache repeat union on the flat catalog: first call misses
        // and populates, the timed repeats hit.
        flat.enable_union_cache(Arc::new(UnionCache::new(64 << 20)));
        let mut warm_rng = seeded_rng(0xAB1E + parts);
        let _ = flat
            .union_sample(DS, |_| true, 1e-3, &mut warm_rng)
            .expect("populate");
        let (warm_ms, _) = best_union_ms(&flat, reps, 0xFA57 + parts);

        if row == 0 {
            base_cold_ms = cold_ms;
        }
        let flat_ratio = cold_ms / base_cold_ms;
        let cache_speedup = leaf_ms / warm_ms;
        if row == COUNTS.len() - 1 {
            gate = (flat_ratio, cache_speedup);
        }
        println!(
            "{parts:>10} {leaf_ms:>10.3} {cold_ms:>10.3} {warm_ms:>10.4} {nodes:>7} \
             {flat_ratio:>11.2} {cache_speedup:>14.1}"
        );
        csv.row(format!(
            "span,{parts},{leaf_ms:.4},{cold_ms:.4},{warm_ms:.5},{nodes},{flat_ratio:.3},\
             {cache_speedup:.2},-"
        ));
    }
    println!(
        "\n{:>10} {:>10} {:>14} {:>10}",
        "node", "fan_in", "mean_input", "node_us"
    );
    for (name, inputs, p_bound) in probe_shapes() {
        let mean_input = inputs.iter().map(Sample::size).sum::<u64>() / inputs.len() as u64;
        let us = node_us(&inputs, p_bound, 0x5EED);
        println!(
            "{name:>10} {:>10} {mean_input:>14} {us:>10.2}",
            inputs.len()
        );
        csv.row(format!("{name},{},-,-,-,1,-,-,{us:.3}", inputs.len()));
    }
    csv.finish();
    println!(
        "\nExpect: 4096-partition compacted union <= 3x the 64-partition one, and warm-cache \
         repeats >= 10x faster than computed unions (both gated under SWH_PERF_ASSERT)."
    );

    let assert_perf = std::env::var("SWH_PERF_ASSERT").is_ok_and(|v| !v.is_empty() && v != "0");
    if assert_perf {
        let (flat_ratio, cache_speedup) = gate;
        assert!(
            flat_ratio <= 3.0,
            "compacted 4096-partition union is {flat_ratio:.2}x the 64-partition one \
             (budget 3.0x)"
        );
        assert!(
            cache_speedup >= 10.0,
            "warm-cache repeat union only {cache_speedup:.1}x faster than cold (budget 10x)"
        );
        println!(
            "SWH_PERF_ASSERT: flat_ratio {flat_ratio:.2} <= 3.0, cache_speedup \
             {cache_speedup:.1} >= 10.0 ok"
        );
    }
}
