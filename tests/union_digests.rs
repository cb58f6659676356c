//! Pinned realizations of the one union path. `Catalog::union_sample` and
//! the plan it runs (`merge_tree_parallel` over borrowed leaves, at 1, 2
//! and 8 workers) must reproduce, byte for byte, the union results recorded
//! when the catalog still deep-cloned its selection before merging. The
//! digests cover four plan shapes: a multiway hypergeometric node, a tree
//! of multiway `HBMerge` nodes (also forced to overflow), an exhaustive
//! re-stream chain of pairwise merges, and a mixed plan of pairwise,
//! alias-cached and multiway nodes. A digest hashes the kind, parent size,
//! `n_F`, the sorted `(value, count)` pairs and the lineage.

use sample_warehouse::sampling::merge::merge_tree_parallel;
use sample_warehouse::sampling::planner::{plan_union, NodeShape, PlanOp};
use sample_warehouse::sampling::{
    CompactHistogram, FootprintPolicy, HybridBernoulli, HybridReservoir, Sample, SampleKind,
    Sampler,
};
use sample_warehouse::variates::seeded_rng;
use sample_warehouse::warehouse::catalog::Catalog;
use sample_warehouse::warehouse::{DatasetId, PartitionId, PartitionKey};
use std::collections::BTreeSet;

const N_F: u64 = 64;
const DS: DatasetId = DatasetId(3);

fn policy() -> FootprintPolicy {
    FootprintPolicy::with_value_budget(N_F)
}

/// Twelve HR reservoirs at the `n_F` cap: one 12-way hypergeometric node.
fn hr_multiway() -> Vec<Sample<u64>> {
    let mut rng = seeded_rng(0xA1);
    (0..12u64)
        .map(|p| HybridReservoir::new(policy()).sample_batch(p * 5_000..(p + 1) * 5_000, &mut rng))
        .collect()
}

/// Twenty Bernoulli-phase HB samples: two 10-way `HBMerge` nodes under a
/// two-way one.
fn hb_multiway() -> Vec<Sample<u64>> {
    let mut rng = seeded_rng(0xB2);
    (0..20u64)
        .map(|p| {
            HybridBernoulli::with_p_bound(policy(), 4_000, 1e-6)
                .sample_batch(p * 4_000..(p + 1) * 4_000, &mut rng)
        })
        .collect()
}

/// Six samples of low-cardinality partitions, five of them exhaustive, whose
/// union outgrows `n_F`: a descending re-stream chain of four pairwise
/// merges, then one that re-streams it into the sixth.
fn restream_chain() -> Vec<Sample<u64>> {
    let mut rng = seeded_rng(0xC3);
    [
        (300u64, 10u64),
        (120, 30),
        (500, 8),
        (90, 45),
        (60, 20),
        (200, 25),
    ]
    .into_iter()
    .enumerate()
    .map(|(i, (rows, distinct))| {
        let lo = i as u64 * 1_000;
        HybridReservoir::new(policy()).sample_batch((0..rows).map(|r| lo + r % distinct), &mut rng)
    })
    .collect()
}

/// Equal-size reservoirs (a multiway node and an alias-cached pair),
/// degenerate full reservoirs, exhaustive samples and Bernoulli-phase
/// hybrids, which the mixed branch merges pairwise.
fn mixed() -> Vec<Sample<u64>> {
    let mut rng = seeded_rng(0xD4);
    let mut parts = Vec::new();
    for p in 0..18u64 {
        let lo = p * 4_000;
        parts.push(HybridReservoir::new(policy()).sample_batch(lo..lo + 4_000, &mut rng));
    }
    for (i, len) in [9u64, 11, 13, 17, 23].into_iter().enumerate() {
        let lo = 80_000 + (i as u64) * 100;
        parts.push(Sample::from_parts(
            CompactHistogram::from_bag((lo..lo + len).collect::<Vec<_>>()),
            SampleKind::Reservoir,
            len,
            policy(),
        ));
    }
    for p in 0..3u64 {
        let lo = 100_000 + p * 40;
        parts.push(HybridReservoir::new(policy()).sample_batch(lo..lo + 20, &mut rng));
    }
    for p in 0..2u64 {
        let lo = 200_000 + p * 4_000;
        parts.push(HybridBernoulli::new(policy(), 4_000).sample_batch(lo..lo + 4_000, &mut rng));
    }
    parts
}

/// FNV-1a over the sample's kind, parent size, `n_F`, sorted pairs and
/// lineage.
fn digest(s: &Sample<u64>) -> u64 {
    let mut pairs: Vec<(u64, u64)> = s.histogram().iter().map(|(v, c)| (*v, c)).collect();
    pairs.sort_unstable();
    let text = format!(
        "{:?}|{}|{}|{:?}|{:?}",
        s.kind(),
        s.parent_size(),
        s.policy().n_f(),
        pairs,
        s.lineage()
    );
    text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn catalog_of(parts: &[Sample<u64>]) -> Catalog<u64> {
    let catalog = Catalog::new();
    for (seq, s) in parts.iter().enumerate() {
        catalog
            .roll_in(
                PartitionKey {
                    dataset: DS,
                    partition: PartitionId::seq(seq as u64),
                },
                s.clone(),
            )
            .expect("distinct keys");
    }
    catalog
}

/// The plan's merge operators, by name.
fn operators(parts: &[Sample<u64>]) -> BTreeSet<&'static str> {
    let shapes: Vec<NodeShape> = parts.iter().map(NodeShape::of).collect();
    plan_union(&shapes, N_F)
        .nodes
        .iter()
        .filter_map(|n| match &n.op {
            PlanOp::Leaf { .. } => None,
            PlanOp::Pair { .. } => Some("pair"),
            PlanOp::CachedPair { .. } => Some("cached"),
            PlanOp::Multiway { .. } => Some("multiway"),
            PlanOp::HbMultiway { .. } => Some("hb_multiway"),
        })
        .collect()
}

/// Union `parts` through the catalog and through the plan at 1, 2 and 8
/// workers, each from `seeded_rng(seed)`, and check every digest.
fn check(parts: &[Sample<u64>], p_bound: f64, seed: u64, pinned: u64) {
    let catalog = catalog_of(parts);
    let union = catalog
        .union_sample(DS, |_| true, p_bound, &mut seeded_rng(seed))
        .expect("union");
    assert_eq!(digest(&union), pinned, "catalog union");
    let leaves: Vec<&Sample<u64>> = parts.iter().collect();
    for threads in [1usize, 2, 8] {
        let merged =
            merge_tree_parallel(&leaves, p_bound, threads, &mut seeded_rng(seed)).expect("union");
        assert_eq!(digest(&merged), pinned, "plan at {threads} workers");
    }
}

#[test]
fn hr_multiway_union_is_pinned() {
    let parts = hr_multiway();
    assert_eq!(operators(&parts), BTreeSet::from(["multiway"]));
    check(&parts, 1e-3, 101, 0xAC16_12D0_E8FB_DEF6);
}

#[test]
fn hb_multiway_union_is_pinned() {
    let parts = hb_multiway();
    assert_eq!(operators(&parts), BTreeSet::from(["hb_multiway"]));
    check(&parts, 1e-3, 102, 0xD082_154A_723B_D05A);
    // p = 0.4 overflows the nodes into reservoirs.
    check(&parts, 0.4, 103, 0x771F_0906_A924_234B);
}

#[test]
fn restream_chain_union_is_pinned() {
    let parts = restream_chain();
    let exhaustive = parts
        .iter()
        .filter(|s| s.kind() == SampleKind::Exhaustive)
        .count();
    assert_eq!(exhaustive, 5, "one input overflows into a reservoir");
    assert_eq!(operators(&parts), BTreeSet::from(["pair"]));
    check(&parts, 1e-3, 104, 0x9378_65F3_E78D_6606);
}

#[test]
fn mixed_plan_union_is_pinned() {
    let parts = mixed();
    assert_eq!(
        operators(&parts),
        BTreeSet::from(["cached", "multiway", "pair"])
    );
    check(&parts, 1e-3, 105, 0xDCCA_1A8A_38E2_6E80);
}

#[test]
fn one_partition_union_is_pinned_with_the_union_after_it() {
    // A one-partition union hands out the resident sample and still draws
    // the plan's base seed, so the next union on the same RNG is unchanged.
    let catalog = catalog_of(&hr_multiway());
    let mut rng = seeded_rng(106);
    let one = catalog
        .union_sample(DS, |p| p.seq == 4, 1e-3, &mut rng)
        .expect("union");
    let next = catalog
        .union_sample(DS, |p| p.seq < 6, 1e-3, &mut rng)
        .expect("union");
    assert_eq!(digest(&one), 0x124E_27EC_1085_7F03);
    assert_eq!(digest(&next), 0x4341_EAE8_87C6_7BD7);
}
