//! Schedule-independence contract of the planner-driven parallel union:
//! for a fixed caller RNG state the union result is **byte-identical**
//! across thread counts (`1, 2, 8, 64`) and across repeated runs (whose
//! steal orders differ), for both the owned and borrowed entry points and
//! for all-Bernoulli plans of multiway `HBMerge` nodes — and a
//! planner-driven multiway union remains statistically uniform.

use std::collections::BTreeSet;
use swh_core::merge::{merge_tree_parallel, merge_tree_parallel_borrowed};
use swh_core::planner::{plan_union, NodeShape, PlanOp};
use swh_core::{
    CompactHistogram, FootprintPolicy, HybridBernoulli, HybridReservoir, Sample, SampleKind,
    Sampler,
};
use swh_rand::seeded_rng;
use swh_rand::stats::{chi_square_p_value, chi_square_statistic};

fn policy(n_f: u64) -> FootprintPolicy {
    FootprintPolicy::with_value_budget(n_f)
}

/// A shape-diverse union input: equal-size reservoirs (alias-cached
/// pairs), distinct-size reservoirs (multiway fan-in), small exhaustive
/// partitions (re-stream chain), and Bernoulli-phase hybrids (pairwise
/// rate equalization). Deterministic: every call builds the same samples.
fn mixed_partitions(n_f: u64) -> Vec<Sample<u64>> {
    let mut rng = seeded_rng(0xC0FFEE);
    let mut parts = Vec::new();
    // Eighteen equal-size reservoir partitions (all at the `n_f` cap, the
    // largest bounded size, so they sort adjacent): one fan-in-16 multiway
    // forms plus a leftover equal pair through the alias cache.
    for p in 0..18u64 {
        let lo = p * 4_000;
        parts.push(HybridReservoir::new(policy(n_f)).sample_batch(lo..lo + 4_000, &mut rng));
    }
    // Five distinct-size full reservoir samples (degenerate |S| = |D|).
    for (i, len) in [9u64, 11, 13, 17, 23].into_iter().enumerate() {
        let lo = 50_000 + (i as u64) * 100;
        parts.push(Sample::from_parts(
            CompactHistogram::from_bag((lo..lo + len).collect::<Vec<_>>()),
            SampleKind::Reservoir,
            len,
            policy(n_f),
        ));
    }
    // Three small exhaustive partitions.
    for p in 0..3u64 {
        let lo = 100_000 + p * 40;
        parts.push(HybridReservoir::new(policy(n_f)).sample_batch(lo..lo + 20, &mut rng));
    }
    // Two Bernoulli-phase hybrids.
    for p in 0..2u64 {
        let lo = 200_000 + p * 4_000;
        parts.push(HybridBernoulli::new(policy(n_f), 4_000).sample_batch(lo..lo + 4_000, &mut rng));
    }
    parts
}

#[test]
fn mixed_plan_exercises_every_operator() {
    let parts = mixed_partitions(64);
    assert!(parts.iter().any(|s| s.kind() == SampleKind::Exhaustive));
    let shapes: Vec<NodeShape> = parts.iter().map(NodeShape::of).collect();
    let plan = plan_union(&shapes, 64);
    let ops: BTreeSet<&'static str> = plan
        .nodes
        .iter()
        .map(|n| match &n.op {
            PlanOp::Leaf { .. } => "leaf",
            PlanOp::Pair { .. } => "pair",
            PlanOp::CachedPair { .. } => "cached",
            PlanOp::Multiway { .. } => "multiway",
            PlanOp::HbMultiway { .. } => "hb_multiway",
        })
        .collect();
    for op in ["leaf", "pair", "cached", "multiway"] {
        assert!(ops.contains(op), "plan never uses {op}: {ops:?}");
    }
}

#[test]
fn union_is_byte_identical_across_thread_counts_and_runs() {
    let parts = mixed_partitions(64);
    let run = |threads: usize| {
        let mut rng = seeded_rng(911);
        merge_tree_parallel(parts.clone(), 1e-3, threads, &mut rng).expect("union merges")
    };
    let reference = run(1);
    for threads in [2usize, 8, 64] {
        assert_eq!(run(threads), reference, "threads={threads} diverged");
    }
    // Steal orders differ run to run; results must not.
    for rep in 0..5 {
        assert_eq!(run(8), reference, "repetition {rep} diverged");
    }
}

#[test]
fn borrowed_union_is_byte_identical_across_thread_counts_and_runs() {
    let parts = mixed_partitions(64);
    let refs: Vec<&Sample<u64>> = parts.iter().collect();
    let run = |threads: usize| {
        let mut rng = seeded_rng(417);
        merge_tree_parallel_borrowed(&refs, 1e-3, threads, &mut rng).expect("union merges")
    };
    let reference = run(1);
    for threads in [2usize, 8, 64] {
        assert_eq!(run(threads), reference, "threads={threads} diverged");
    }
    for rep in 0..5 {
        assert_eq!(run(8), reference, "repetition {rep} diverged");
    }
}

/// Bernoulli-phase hybrids over disjoint ranges: their union plans to a
/// tree of multiway `HBMerge` nodes only.
fn bernoulli_partitions(count: u64, n_f: u64) -> Vec<Sample<u64>> {
    let mut rng = seeded_rng(0xB0B);
    (0..count)
        .map(|p| {
            let lo = p * 4_000;
            HybridBernoulli::new(policy(n_f), 4_000).sample_batch(lo..lo + 4_000, &mut rng)
        })
        .collect()
}

#[test]
fn all_bernoulli_union_is_byte_identical_across_thread_counts() {
    let parts = bernoulli_partitions(40, 64);
    assert!(parts
        .iter()
        .all(|s| matches!(s.kind(), SampleKind::Bernoulli { .. })));
    let shapes: Vec<NodeShape> = parts.iter().map(NodeShape::of).collect();
    let plan = plan_union(&shapes, 64);
    // 40 leaves: three nodes of fan-in 14, 13 and 13, then one over them.
    assert_eq!(plan.merge_node_count(), 4);
    assert!(plan
        .nodes
        .iter()
        .filter(|n| !matches!(n.op, PlanOp::Leaf { .. }))
        .all(|n| matches!(n.op, PlanOp::HbMultiway { .. })));
    let refs: Vec<&Sample<u64>> = parts.iter().collect();
    // p_bound 0.4 makes the nodes overflow often enough that some upper
    // node receives a reservoir and takes the hypergeometric rule.
    for p_bound in [1e-3, 0.4] {
        let run = |threads: usize| {
            let mut rng = seeded_rng(2024);
            merge_tree_parallel(parts.clone(), p_bound, threads, &mut rng).expect("union merges")
        };
        let run_borrowed = |threads: usize| {
            let mut rng = seeded_rng(2025);
            merge_tree_parallel_borrowed(&refs, p_bound, threads, &mut rng).expect("union merges")
        };
        let (reference, borrowed) = (run(1), run_borrowed(1));
        assert_eq!(reference.parent_size(), 40 * 4_000);
        assert_eq!(borrowed.parent_size(), 40 * 4_000);
        for threads in [2usize, 8] {
            assert_eq!(run(threads), reference, "p={p_bound} threads={threads}");
            assert_eq!(
                run_borrowed(threads),
                borrowed,
                "borrowed p={p_bound} threads={threads}"
            );
        }
        for rep in 0..3 {
            assert_eq!(run(8), reference, "p={p_bound} repetition {rep}");
        }
    }
}

#[test]
fn planner_driven_multiway_union_is_uniform() {
    // Five full reservoir samples of distinct sizes over disjoint ranges:
    // the planner collapses these into a single multiway node, so every
    // element of the 40-element union must appear with probability
    // k/N = 6/40 in the merged sample.
    let ranges: [(u64, u64); 5] = [(0, 6), (6, 13), (13, 21), (21, 30), (30, 40)];
    let build = || -> Vec<Sample<u64>> {
        ranges
            .iter()
            .map(|&(lo, hi)| {
                Sample::from_parts(
                    CompactHistogram::from_bag((lo..hi).collect::<Vec<_>>()),
                    SampleKind::Reservoir,
                    hi - lo,
                    policy(16),
                )
            })
            .collect()
    };
    let shapes: Vec<NodeShape> = build().iter().map(NodeShape::of).collect();
    let plan = plan_union(&shapes, 16);
    assert_eq!(plan.merge_node_count(), 1);
    assert!(matches!(
        plan.nodes[plan.root].op,
        PlanOp::Multiway { ref children } if children.len() == 5
    ));

    let trials = 20_000usize;
    let mut incl = vec![0u64; 40];
    let mut rng = seeded_rng(7);
    for _ in 0..trials {
        let m = merge_tree_parallel(build(), 1e-3, 2, &mut rng).expect("union merges");
        assert_eq!(m.size(), 6, "multiway k = min sample size");
        assert_eq!(m.parent_size(), 40);
        for (v, c) in m.histogram().iter() {
            assert_eq!(c, 1, "union of distinct values stays distinct");
            incl[*v as usize] += u64::from(c > 0);
        }
    }
    let total: u64 = incl.iter().sum();
    let expect = total as f64 / 40.0;
    let exp = vec![expect; 40];
    let stat = chi_square_statistic(&incl, &exp);
    let pv = chi_square_p_value(stat, 39.0);
    assert!(
        pv > 1e-4,
        "multiway union not uniform: chi2={stat:.1} p={pv:.2e}"
    );
}
