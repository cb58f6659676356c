//! Tour of the merge operators: serial fold (the paper's setup), balanced
//! tree, alias-cached symmetric tree (§4.2), direct multiway merge
//! (Theorem 1 generalized), and the planned merge DAG on one thread — all
//! producing uniform samples of the same union.
//!
//! ```sh
//! cargo run --release --example merge_strategies
//! ```

use sample_warehouse::sampling::merge::merge_tree_parallel;
use sample_warehouse::sampling::{
    hr_merge_multiway, hr_merge_tree_cached, merge_all, merge_tree, FootprintPolicy,
    HybridReservoir, HypergeometricCache, Sample, Sampler,
};
use sample_warehouse::variates::seeded_rng;
use std::time::Instant;

fn partitions(parts: u64, per: u64, n_f: u64, rng: &mut rand::rngs::SmallRng) -> Vec<Sample<u64>> {
    let policy = FootprintPolicy::with_value_budget(n_f);
    (0..parts)
        .map(|p| HybridReservoir::new(policy).sample_batch(p * per..(p + 1) * per, rng))
        .collect()
}

fn main() {
    let mut rng = seeded_rng(4);
    let (parts, per, n_f) = (64u64, 32_768u64, 4_096u64);
    println!("{} partitions x {} elements, n_F = {}\n", parts, per, n_f);
    println!(
        "{:<28} {:>10} {:>12} {:>10}",
        "strategy", "time", "sample size", "covers"
    );

    let mut cache = HypergeometricCache::new();
    type Runner<'a> =
        Box<dyn FnMut(Vec<Sample<u64>>, &mut rand::rngs::SmallRng) -> Sample<u64> + 'a>;
    let strategies: Vec<(&str, Runner)> = vec![
        (
            "serial fold (paper)",
            Box::new(|s, rng| merge_all(s, 1e-3, rng).unwrap()),
        ),
        (
            "balanced tree",
            Box::new(|s, rng| merge_tree(s, 1e-3, rng).unwrap()),
        ),
        (
            "cached symmetric tree",
            Box::new(|s, rng| hr_merge_tree_cached(s, &mut cache, rng).unwrap()),
        ),
        (
            "direct multiway",
            Box::new(|s, rng| hr_merge_multiway(s, rng).unwrap()),
        ),
        (
            "planned DAG, one thread",
            Box::new(|s, rng| merge_tree_parallel(s, 1e-3, 1, rng).unwrap()),
        ),
    ];

    for (name, mut run) in strategies {
        let samples = partitions(parts, per, n_f, &mut rng);
        let start = Instant::now();
        let merged = run(samples, &mut rng);
        let t = start.elapsed();
        println!(
            "{name:<28} {:>10.2?} {:>12} {:>10}",
            t,
            merged.size(),
            merged.parent_size()
        );
        assert_eq!(merged.parent_size(), parts * per);
    }
    println!(
        "\nAll strategies yield a statistically identical uniform sample of the union;\n\
         they differ only in cost (and the alias cache now holds {} table(s)).",
        cache.len()
    );
}
