//! Merge-cost micro-benchmarks: the HBMerge-vs-HRMerge trade-off of §4.3
//! ("samples produced by Algorithm HB are much less expensive to merge than
//! those produced by Algorithm HR").

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use swh_core::footprint::FootprintPolicy;
use swh_core::hybrid_bernoulli::HybridBernoulli;
use swh_core::hybrid_reservoir::HybridReservoir;
use swh_core::merge::{hb_merge, hr_merge, merge_all, merge_tree_parallel};
use swh_core::sample::Sample;
use swh_core::sampler::Sampler;
use swh_rand::seeded_rng;

fn hb_samples(n_f: u64, parts: u64, per: u64) -> Vec<Sample<u64>> {
    let policy = FootprintPolicy::with_value_budget(n_f);
    let mut rng = seeded_rng(1);
    (0..parts)
        .map(|p| HybridBernoulli::new(policy, per).sample_batch(p * per..(p + 1) * per, &mut rng))
        .collect()
}

fn hr_samples(n_f: u64, parts: u64, per: u64) -> Vec<Sample<u64>> {
    let policy = FootprintPolicy::with_value_budget(n_f);
    let mut rng = seeded_rng(2);
    (0..parts)
        .map(|p| HybridReservoir::new(policy).sample_batch(p * per..(p + 1) * per, &mut rng))
        .collect()
}

fn bench_pairwise(c: &mut Criterion) {
    let per = 1 << 15;
    let mut group = c.benchmark_group("pairwise_merge");
    for n_f in [1024u64, 4096, 8192] {
        let hb = hb_samples(n_f, 2, per);
        group.bench_with_input(BenchmarkId::new("HBMerge", n_f), &hb, |b, samples| {
            let mut rng = seeded_rng(3);
            b.iter(|| {
                let m = hb_merge(samples[0].clone(), samples[1].clone(), 1e-3, &mut rng)
                    .expect("merge");
                black_box(m.size())
            })
        });
        let hr = hr_samples(n_f, 2, per);
        group.bench_with_input(BenchmarkId::new("HRMerge", n_f), &hr, |b, samples| {
            let mut rng = seeded_rng(4);
            b.iter(|| {
                let m = hr_merge(samples[0].clone(), samples[1].clone(), &mut rng).expect("merge");
                black_box(m.size())
            })
        });
    }
    group.finish();
}

/// The paper's serial pairwise fold against the planned merge DAG run on
/// one thread (multiway `HBMerge` / hypergeometric nodes), over the same
/// partition samples.
fn bench_merge_chain(c: &mut Criterion) {
    let per = 1 << 13;
    let n_f = 2048;
    let mut group = c.benchmark_group("serial_merge_chain");
    group.sample_size(10);
    for parts in [8u64, 32, 128] {
        for (name, samples, seed) in [
            ("HB", hb_samples(n_f, parts, per), 5),
            ("HR", hr_samples(n_f, parts, per), 6),
        ] {
            group.bench_with_input(BenchmarkId::new(name, parts), &samples, |b, samples| {
                let mut rng = seeded_rng(seed);
                b.iter(|| {
                    let m = merge_all(samples.clone(), 1e-3, &mut rng).expect("merge");
                    black_box(m.size())
                })
            });
            group.bench_with_input(
                BenchmarkId::new(format!("{name}_planned"), parts),
                &samples,
                |b, samples| {
                    let mut rng = seeded_rng(seed);
                    b.iter(|| {
                        let m =
                            merge_tree_parallel(samples.clone(), 1e-3, 1, &mut rng).expect("merge");
                        black_box(m.size())
                    })
                },
            );
        }
    }
    group.finish();
}

/// §4.2 ablation: symmetric balanced merge trees with per-merge inversion
/// vs. a shared alias-table cache for the hypergeometric splits.
fn bench_tree_alias_cache(c: &mut Criterion) {
    use swh_core::merge::{hr_merge_tree_cached, merge_tree, HypergeometricCache};
    let per = 1 << 13;
    let n_f = 2048;
    let mut group = c.benchmark_group("symmetric_tree_alias_ablation");
    group.sample_size(10);
    for parts in [16u64, 64] {
        let samples = hr_samples(n_f, parts, per);
        group.bench_with_input(
            BenchmarkId::new("inversion_per_merge", parts),
            &samples,
            |b, samples| {
                let mut rng = seeded_rng(7);
                b.iter(|| {
                    let m = merge_tree(samples.clone(), 1e-3, &mut rng).expect("merge");
                    black_box(m.size())
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("shared_alias_cache", parts),
            &samples,
            |b, samples| {
                let mut rng = seeded_rng(8);
                // The cache persists across iterations, modeling the
                // paper's scenario of many merges over fixed partition
                // sizes.
                let mut cache = HypergeometricCache::new();
                b.iter(|| {
                    let m =
                        hr_merge_tree_cached(samples.clone(), &mut cache, &mut rng).expect("merge");
                    black_box(m.size())
                })
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_pairwise, bench_merge_chain, bench_tree_alias_cache
}
criterion_main!(benches);
