//! Cost-aware merge planning.
//!
//! The paper's experiments merge serially in arrival order, which is fine
//! for homogeneous partitions. Real catalogs are skewed: exhaustive samples
//! of big low-cardinality partitions (whose merge cost is *re-streaming*
//! one side element by element, Fig. 6 line 3) sit next to bounded samples
//! (whose merge cost is ~`n_F`). Since a merge of two exhaustive samples
//! streams the smaller one, the cheapest order for the exhaustive group is
//! a **descending-size fold**: build the accumulator from the biggest
//! sample so every other exhaustive sample is streamed exactly once, when
//! it is the smaller side. Arrival-order folds can instead stream large
//! accumulated histograms over and over.
//!
//! [`plan_union`] turns that grouping into an explicit merge **DAG**
//! ([`MergePlan`]) that the work-stealing executor ([`crate::executor`])
//! runs, on one thread or many: equal-size simple-random siblings become
//! alias-cached symmetric merges (§4.2), runs of distinct-size bounded
//! samples become multiway hypergeometric nodes
//! ([`crate::merge::hr_merge_multiway`]), groups of Bernoulli samples
//! become multiway `HBMerge` nodes that thin each input once, and
//! exhaustive samples keep the descending re-stream chain. Plans carry
//! per-node costs so [`MergePlan::best_threads`] can pick a worker count
//! from the *measured* cost model ([`crate::costmodel`]) when a snapshot is
//! installed, falling back to the element-count model otherwise. The plan
//! is a pure function of the input shapes and `n_F` — never of the cost
//! model or thread count — so planned results stay byte-identical across
//! machines and schedules. All plans produce the same uniform distribution
//! as the paper's serial fold; planning only changes the work.

use crate::costmodel::CostModel;
use crate::sample::{Sample, SampleKind};
use crate::value::SampleValue;

/// Abstract cost of merging two samples, in "elements touched":
/// an exhaustive–exhaustive merge streams the smaller side; a mixed merge
/// streams the exhaustive side; bounded merges purge/join both samples.
pub fn pair_cost(size_a: u64, exhaustive_a: bool, size_b: u64, exhaustive_b: bool) -> u64 {
    match (exhaustive_a, exhaustive_b) {
        (true, true) => size_a.min(size_b),
        (true, false) => size_a,
        (false, true) => size_b,
        (false, false) => size_a + size_b,
    }
}

/// Fallback cost per input element (ns) when no measured cost model is
/// installed. Calibrated to the order of magnitude of a hypergeometric
/// split + purge over `n_F`-sized reservoirs on commodity hardware; only
/// relative magnitudes matter for scheduling decisions.
pub const FALLBACK_NS_PER_ELEMENT: f64 = 40.0;

/// Estimated one-off cost (ns) of spawning and parking one pool worker.
/// Charged per extra worker in [`MergePlan::best_threads`] so tiny unions
/// never pay thread-spawn latency for microseconds of merge work.
pub const WORKER_SPAWN_NS: f64 = 60_000.0;

/// Largest fan-in [`plan_union`] gives a multiway node, hypergeometric or
/// `HBMerge`. Beyond this the work saved over a tree of pairwise merges no
/// longer pays for the loss of parallelism (a multiway node is a
/// serialization point).
pub const MAX_MULTIWAY_FAN_IN: usize = 16;

/// Statistical provenance class of a (planned) sample, refining
/// [`Skeleton`]'s boolean: Bernoulli-phase hybrids merge by rate
/// equalization, so the planner must not route them through the
/// reservoir-only alias-cached path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShapeKind {
    /// Exhaustive histogram of its partition.
    Exhaustive,
    /// Bernoulli-phase bounded sample (merge = rate equalization).
    Bernoulli,
    /// Reservoir-phase bounded sample (merge = hypergeometric split).
    Reservoir,
}

/// Where a planned input sample came from. Statistically every source is
/// just a uniform sample (compaction and caching preserve uniformity by
/// construction), so the planner groups them identically — but the tag lets
/// plans report the mix of raw leaves, compacted interior partitions, and
/// memoized union results they were built over, which is what the lifecycle
/// layer's O(log time-span) claim is measured by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NodeSource {
    /// A leaf partition sample straight from ingest.
    #[default]
    Raw,
    /// A background-compacted merged partition (warm/cold tier): a merge
    /// DAG interior node persisted back as a first-class partition.
    Compacted,
    /// A memoized union result served by the merged-union cache.
    Cached,
}

/// Size/provenance shape of a plan node's (predicted) sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeShape {
    /// Number of data elements the sample holds (predicted for inner nodes).
    pub size: u64,
    /// Provenance class driving the merge-operator choice.
    pub kind: ShapeKind,
    /// Storage provenance of the sample (raw / compacted / cached).
    pub source: NodeSource,
}

impl NodeShape {
    /// Shape of a live sample. Concise samples are classified as
    /// [`ShapeKind::Reservoir`] for costing; execution rejects them with
    /// [`MergeError::ConciseNotMergeable`] just as the pairwise paths do.
    pub fn of<T: SampleValue>(s: &Sample<T>) -> Self {
        let kind = match s.kind() {
            SampleKind::Exhaustive => ShapeKind::Exhaustive,
            SampleKind::Bernoulli { .. } => ShapeKind::Bernoulli,
            SampleKind::Reservoir | SampleKind::Concise { .. } => ShapeKind::Reservoir,
        };
        Self {
            size: s.size(),
            kind,
            source: NodeSource::Raw,
        }
    }

    /// The same shape tagged with an explicit [`NodeSource`] (the lifecycle
    /// layer tags compacted partitions and cache hits before planning).
    pub fn sourced(mut self, source: NodeSource) -> Self {
        self.source = source;
        self
    }

    fn exhaustive(self) -> bool {
        self.kind == ShapeKind::Exhaustive
    }

    /// Predicted shape of merging two nodes, mirroring the runtime rules:
    /// exhaustive+exhaustive stays exhaustive until `n_F` forces sampling;
    /// Bernoulli+Bernoulli equalizes rates (size ~ sum, capped); any
    /// reservoir involvement yields a reservoir of `k = min(sizes)`.
    fn merged_with(self, other: Self, n_f: u64) -> Self {
        use ShapeKind::*;
        // Interior merge results are freshly computed, whatever their
        // children's storage provenance.
        let source = NodeSource::Raw;
        match (self.kind, other.kind) {
            (Exhaustive, Exhaustive) => {
                let total = self.size + other.size;
                if total <= n_f {
                    Self {
                        size: total,
                        kind: Exhaustive,
                        source,
                    }
                } else {
                    Self {
                        size: total.min(n_f.max(1)),
                        kind: Reservoir,
                        source,
                    }
                }
            }
            (Exhaustive, k) | (k, Exhaustive) => Self {
                size: (self.size + other.size).min(n_f.max(1)),
                kind: k,
                source,
            },
            (Bernoulli, Bernoulli) => Self {
                size: (self.size + other.size).min(n_f.max(1)),
                kind: Bernoulli,
                source,
            },
            _ => Self {
                size: self.size.min(other.size),
                kind: Reservoir,
                source,
            },
        }
    }
}

/// Operator of one [`MergePlan`] node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanOp {
    /// Input sample `input` (index into the union's sample list), provided
    /// by the caller — never executed.
    Leaf {
        /// Index into the caller's sample list.
        input: usize,
    },
    /// Pairwise merge via the standard dispatch ([`crate::merge::merge`]).
    Pair {
        /// Left child node index.
        left: usize,
        /// Right child node index.
        right: usize,
    },
    /// Alias-cached symmetric reservoir merge (§4.2): both children are
    /// equal-size simple-random samples, so the hypergeometric split can be
    /// served from a shared [`crate::merge::HypergeometricCache`].
    CachedPair {
        /// Left child node index.
        left: usize,
        /// Right child node index.
        right: usize,
    },
    /// Multiway hypergeometric merge
    /// ([`crate::merge::hr_merge_multiway`]) over 3..=[`MAX_MULTIWAY_FAN_IN`]
    /// bounded children.
    Multiway {
        /// Child node indices, in draw order.
        children: Vec<usize>,
    },
    /// Multiway `HBMerge` over 2..=[`MAX_MULTIWAY_FAN_IN`] Bernoulli
    /// children: each is thinned once to the node's rate and all are joined,
    /// with one reservoir purge to `n_F` if the join overflows. A child that
    /// arrives as a reservoir (an upstream overflow) switches the node to
    /// the [`PlanOp::Multiway`] rule.
    HbMultiway {
        /// Child node indices, in thinning order.
        children: Vec<usize>,
    },
}

/// One node of a [`MergePlan`]: its operator, predicted output shape,
/// abstract element cost, and the profile-scope label the executor opens
/// while running it (empty for leaves).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanNode {
    /// What to execute.
    pub op: PlanOp,
    /// Predicted output shape.
    pub shape: NodeShape,
    /// Abstract cost in elements touched (0 for leaves).
    pub cost: u64,
    /// Rooted profile-scope path, e.g. `union/node/cp7` (empty for leaves).
    pub label: String,
}

impl PlanNode {
    fn is_leaf(&self) -> bool {
        matches!(self.op, PlanOp::Leaf { .. })
    }
}

/// Explicit merge DAG for one union. Nodes are stored in topological
/// order: every child index is strictly less than its parent's index, and
/// `nodes[root]` is the union result. The plan is a pure function of the
/// input shapes and `n_F`, never of the cost model or thread count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergePlan {
    /// All nodes, children before parents.
    pub nodes: Vec<PlanNode>,
    /// Index of the result node.
    pub root: usize,
    /// Footprint bound the plan was built for.
    pub n_f: u64,
}

/// Plan a union of `shapes` into a merge DAG.
///
/// Grouping rules (deterministic in the input shapes only):
/// - exhaustive inputs form a descending-size re-stream chain (`rs*`
///   labels), so each is streamed exactly once as the smaller side;
/// - if every bounded input is Bernoulli, they form a tree of multiway
///   `HBMerge` nodes (`hb*`) of up to [`MAX_MULTIWAY_FAN_IN`] children per
///   node, level by level in input order, in as few nodes per level as the
///   cap allows and with fan-ins that differ by at most one;
/// - otherwise, per level: consecutive runs of three or more reservoir
///   nodes collapse into multiway nodes (`mw*`) of up to
///   [`MAX_MULTIWAY_FAN_IN`] children — one multivariate hypergeometric
///   draw replaces `fan_in - 1` pairwise redistributions, which is where
///   the plan's serial work reduction over the fold comes from; a
///   leftover reservoir pair merges pairwise, through the shared alias
///   cache (`cp*`) when the siblings are equal-size and plain (`pw*`)
///   otherwise; a level of mutually unmergeable singles (e.g. reservoir
///   next to Bernoulli) merges its two smallest via the standard dispatch;
/// - the bounded root and the exhaustive chain combine in a final `rs`
///   pair (bounded side left, so the exhaustive side is the one
///   re-streamed).
///
/// # Panics
/// Panics if `shapes` is empty.
pub fn plan_union(shapes: &[NodeShape], n_f: u64) -> MergePlan {
    assert!(!shapes.is_empty(), "plan_union needs at least one input");
    let mut nodes: Vec<PlanNode> = shapes
        .iter()
        .enumerate()
        .map(|(i, &shape)| PlanNode {
            op: PlanOp::Leaf { input: i },
            shape,
            cost: 0,
            label: String::new(),
        })
        .collect();

    fn push_pair(
        nodes: &mut Vec<PlanNode>,
        left: usize,
        right: usize,
        cached: bool,
        prefix: &str,
        n_f: u64,
    ) -> usize {
        let (a, b) = (nodes[left].shape, nodes[right].shape);
        let idx = nodes.len();
        let op = if cached {
            PlanOp::CachedPair { left, right }
        } else {
            PlanOp::Pair { left, right }
        };
        nodes.push(PlanNode {
            op,
            shape: a.merged_with(b, n_f),
            cost: pair_cost(a.size, a.exhaustive(), b.size, b.exhaustive()),
            label: format!("union/node/{prefix}{idx}"),
        });
        idx
    }

    fn push_hb_multiway(nodes: &mut Vec<PlanNode>, children: &[usize], n_f: u64) -> usize {
        let idx = nodes.len();
        let size: u64 = children.iter().map(|&c| nodes[c].shape.size).sum();
        let fan_in = children.len();
        nodes.push(PlanNode {
            op: PlanOp::HbMultiway {
                children: children.to_vec(),
            },
            shape: NodeShape {
                size: size.min(n_f.max(1)),
                kind: ShapeKind::Bernoulli,
                source: NodeSource::Raw,
            },
            cost: size,
            label: format!("union/node/hb{idx}f{fan_in}"),
        });
        idx
    }

    fn push_multiway(nodes: &mut Vec<PlanNode>, children: &[usize]) -> usize {
        let idx = nodes.len();
        let shape = NodeShape {
            // k = min over children, like every reservoir merge.
            size: children
                .iter()
                .map(|&c| nodes[c].shape.size)
                .min()
                .unwrap_or(0),
            kind: ShapeKind::Reservoir,
            source: NodeSource::Raw,
        };
        let cost = children.iter().map(|&c| nodes[c].shape.size).sum();
        let fan_in = children.len();
        nodes.push(PlanNode {
            op: PlanOp::Multiway {
                children: children.to_vec(),
            },
            shape,
            cost,
            label: format!("union/node/mw{idx}f{fan_in}"),
        });
        idx
    }

    // Exhaustive group: descending-size re-stream chain.
    let mut exhaustive: Vec<usize> = (0..shapes.len())
        .filter(|&i| shapes[i].kind == ShapeKind::Exhaustive)
        .collect();
    exhaustive.sort_by_key(|&i| (std::cmp::Reverse(shapes[i].size), i));
    let mut chain: Option<usize> = None;
    for i in exhaustive {
        chain = Some(match chain {
            None => i,
            Some(acc) => push_pair(&mut nodes, acc, i, false, "rs", n_f),
        });
    }

    // Bounded group.
    let mut level: Vec<usize> = (0..shapes.len())
        .filter(|&i| shapes[i].kind != ShapeKind::Exhaustive)
        .collect();
    let all_bernoulli = level
        .iter()
        .all(|&i| shapes[i].kind == ShapeKind::Bernoulli);
    if all_bernoulli {
        while level.len() > 1 {
            let groups = level.len().div_ceil(MAX_MULTIWAY_FAN_IN);
            let (base, extra) = (level.len() / groups, level.len() % groups);
            let mut next = Vec::with_capacity(groups);
            let mut start = 0;
            for g in 0..groups {
                let end = start + base + usize::from(g < extra);
                next.push(push_hb_multiway(&mut nodes, &level[start..end], n_f));
                start = end;
            }
            level = next;
        }
    } else {
        while level.len() > 1 {
            // Sort by (size, index) so reservoir runs and equal-size
            // siblings are adjacent; ties break on node index for
            // determinism.
            level.sort_by_key(|&i| (nodes[i].shape.size, i));
            let mut next = Vec::with_capacity(level.len());
            let mut merged_any = false;
            let mut j = 0;
            while j < level.len() {
                // Maximal consecutive run of reservoir nodes starting at j.
                let run = level[j..]
                    .iter()
                    .take_while(|&&i| nodes[i].shape.kind == ShapeKind::Reservoir)
                    .count();
                if run >= 3 {
                    let take = run.min(MAX_MULTIWAY_FAN_IN);
                    next.push(push_multiway(&mut nodes, &level[j..j + take]));
                    merged_any = true;
                    j += take;
                } else if run == 2 {
                    let (a, b) = (level[j], level[j + 1]);
                    let cached = nodes[a].shape.size == nodes[b].shape.size;
                    let prefix = if cached { "cp" } else { "pw" };
                    next.push(push_pair(&mut nodes, a, b, cached, prefix, n_f));
                    merged_any = true;
                    j += 2;
                } else {
                    next.push(level[j]);
                    j += 1;
                }
            }
            if !merged_any {
                // Progress guarantee for levels of carried singles (e.g.
                // a reservoir node next to a Bernoulli node): merge the
                // two smallest via the standard dispatch.
                if let [a, b, ..] = *next.as_slice() {
                    let merged = push_pair(&mut nodes, a, b, false, "pw", n_f);
                    next.splice(0..2, [merged]);
                }
            }
            level = next;
        }
    }
    let bounded_root = level.pop();

    let root = match (chain, bounded_root) {
        // Bounded side left, exhaustive side right, so the exhaustive side
        // is the one re-streamed.
        (Some(c), Some(b)) => push_pair(&mut nodes, b, c, false, "rs", n_f),
        (Some(c), None) => c,
        (None, Some(b)) => b,
        (None, None) => unreachable!("input was non-empty"),
    };
    MergePlan { nodes, root, n_f }
}

impl MergePlan {
    /// Child node indices of node `i` (empty for leaves).
    pub fn children(&self, i: usize) -> Vec<usize> {
        match &self.nodes[i].op {
            PlanOp::Leaf { .. } => Vec::new(),
            PlanOp::Pair { left, right } | PlanOp::CachedPair { left, right } => {
                vec![*left, *right]
            }
            PlanOp::Multiway { children } | PlanOp::HbMultiway { children } => children.clone(),
        }
    }

    /// Number of merge (non-leaf) nodes.
    pub fn merge_node_count(&self) -> usize {
        self.nodes.iter().filter(|n| !n.is_leaf()).count()
    }

    /// How many leaf inputs came from each [`NodeSource`]:
    /// `(raw, compacted, cached)`. A compaction-backed union of a wide
    /// time span should show few raw leaves and mostly compacted ones —
    /// this is the observable form of the O(log time-span) claim.
    pub fn leaf_source_counts(&self) -> (usize, usize, usize) {
        let (mut raw, mut compacted, mut cached) = (0, 0, 0);
        for n in self.nodes.iter().filter(|n| n.is_leaf()) {
            match n.shape.source {
                NodeSource::Raw => raw += 1,
                NodeSource::Compacted => compacted += 1,
                NodeSource::Cached => cached += 1,
            }
        }
        (raw, compacted, cached)
    }

    /// Profile-scope labels of the merge nodes, in topological order.
    pub fn merge_node_labels(&self) -> impl Iterator<Item = &str> {
        self.nodes
            .iter()
            .filter(|n| !n.is_leaf())
            .map(|n| n.label.as_str())
    }

    /// Cost-model tag of node `i`'s merge, matching
    /// `merge_profile_scope`'s classification: `restream` if any child is
    /// exhaustive, `hb` if all children are Bernoulli, `hr` otherwise.
    fn node_tag(&self, i: usize) -> &'static str {
        let children = self.children(i);
        if children
            .iter()
            .any(|&c| self.nodes[c].shape.kind == ShapeKind::Exhaustive)
        {
            "restream"
        } else if children
            .iter()
            .all(|&c| self.nodes[c].shape.kind == ShapeKind::Bernoulli)
        {
            "hb"
        } else {
            "hr"
        }
    }

    /// Predicted wall time (ns) of node `i`: the measured cost model's
    /// per-merge mean at the node's input-size bucket when available,
    /// otherwise the element-count fallback.
    pub fn node_cost_ns(&self, i: usize, model: Option<&CostModel>) -> f64 {
        let node = &self.nodes[i];
        if node.is_leaf() {
            return 0.0;
        }
        let in_size: u64 = self
            .children(i)
            .iter()
            .map(|&c| self.nodes[c].shape.size)
            .sum();
        model
            .and_then(|m| m.predict("merge", self.node_tag(i), in_size))
            .unwrap_or(node.cost as f64 * FALLBACK_NS_PER_ELEMENT)
    }

    /// Predicted total work (ns) of executing every merge node.
    pub fn serial_cost_ns(&self, model: Option<&CostModel>) -> f64 {
        (0..self.nodes.len())
            .map(|i| self.node_cost_ns(i, model))
            .sum()
    }

    /// Predicted critical-path length (ns): the longest root-to-leaf chain
    /// of node costs — a lower bound on wall time at any thread count.
    pub fn critical_path_ns(&self, model: Option<&CostModel>) -> f64 {
        let mut path = vec![0.0f64; self.nodes.len()];
        for i in 0..self.nodes.len() {
            let longest = self
                .children(i)
                .iter()
                .map(|&c| path[c])
                .fold(0.0f64, f64::max);
            path[i] = self.node_cost_ns(i, model) + longest;
        }
        path[self.root]
    }

    /// Predicted wall time (ns) on `workers` pool workers: the classic LPT
    /// bound `max(critical path, total work / workers)`.
    pub fn parallel_estimate_ns(&self, workers: usize, model: Option<&CostModel>) -> f64 {
        let workers = workers.max(1);
        let total = self.serial_cost_ns(model);
        let cp = self.critical_path_ns(model);
        cp.max(total / workers as f64)
    }

    /// Worker count (1..=`budget`) minimizing predicted wall time plus
    /// per-worker spawn cost ([`WORKER_SPAWN_NS`]). Returns 1 when the
    /// union is too small for a pool to pay off — the caller should then
    /// take the serial path. Affects scheduling only, never results.
    pub fn best_threads(&self, budget: usize, model: Option<&CostModel>) -> usize {
        let budget = budget.max(1).min(self.merge_node_count().max(1));
        let mut best = (1usize, self.serial_cost_ns(model));
        for t in 2..=budget {
            let est = self.parallel_estimate_ns(t, model) + WORKER_SPAWN_NS * (t - 1) as f64;
            if est < best.1 {
                best = (t, est);
            }
        }
        best.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::footprint::FootprintPolicy;
    use crate::hybrid_reservoir::HybridReservoir;
    use crate::merge::merge_tree_parallel;
    use crate::sampler::Sampler;
    use swh_rand::seeded_rng;
    use swh_rand::stats::{chi_square_p_value, chi_square_statistic};

    fn policy(n_f: u64) -> FootprintPolicy {
        FootprintPolicy::with_value_budget(n_f)
    }

    #[test]
    fn exhaustive_chain_streams_each_sample_once() {
        // Exhaustive sizes arriving ascending: an arrival-order fold would
        // stream the (growing) accumulator at almost every step, while the
        // descending chain streams each sample once, as the smaller side.
        let shapes: Vec<NodeShape> = (0..16)
            .map(|i| NodeShape {
                size: 1u64 << i,
                kind: ShapeKind::Exhaustive,
                source: NodeSource::Raw,
            })
            .collect();
        let plan = plan_union(&shapes, 1 << 30); // stays exhaustive throughout
        assert_eq!(plan.merge_node_count(), 15);
        let cost: u64 = plan.nodes.iter().map(|n| n.cost).sum();
        // Cost = sum of all non-largest sizes.
        assert_eq!(cost, (1u64 << 15) - 1);
    }

    #[test]
    fn planned_union_matches_merge_all_semantics() {
        let mut rng = seeded_rng(1);
        // Mixed provenance: 2 exhaustive (few distinct values) + 6 bounded.
        let mut samples = Vec::new();
        for p in 0..2u64 {
            samples.push(
                HybridReservoir::new(policy(64))
                    .sample_batch((0..3_000).map(move |i| p * 10 + i % 5), &mut rng),
            );
        }
        for p in 0..6u64 {
            let lo = 1_000 + p * 2_000;
            samples.push(HybridReservoir::new(policy(64)).sample_batch(lo..lo + 2_000, &mut rng));
        }
        let total: u64 = samples.iter().map(Sample::parent_size).sum();
        let m = merge_tree_parallel(samples, 1e-3, 1, &mut rng).unwrap();
        assert_eq!(m.parent_size(), total);
        assert!(m.size() <= 64);
    }

    #[test]
    fn planned_union_is_uniform() {
        let mut rng = seeded_rng(2);
        let (trials, n_f) = (15_000usize, 8u64);
        let mut incl = vec![0u64; 60];
        for _ in 0..trials {
            let samples = vec![
                HybridReservoir::new(policy(n_f)).sample_batch(0..20u64, &mut rng),
                HybridReservoir::new(policy(n_f)).sample_batch(20..40u64, &mut rng),
                HybridReservoir::new(policy(n_f)).sample_batch(40..60u64, &mut rng),
            ];
            let m = merge_tree_parallel(samples, 1e-3, 1, &mut rng).unwrap();
            for (v, _) in m.histogram().iter() {
                incl[*v as usize] += 1;
            }
        }
        let total: u64 = incl.iter().sum();
        let expect = total as f64 / 60.0;
        let exp = vec![expect; 60];
        let stat = chi_square_statistic(&incl, &exp);
        let pv = chi_square_p_value(stat, 59.0);
        assert!(
            pv > 1e-4,
            "planned merge not uniform: chi2={stat:.1} p={pv:.2e}"
        );
    }

    #[test]
    fn single_sample_passthrough() {
        let mut rng = seeded_rng(3);
        let s = HybridReservoir::new(policy(16)).sample_batch(0..100u64, &mut rng);
        let expected = s.clone();
        let m = merge_tree_parallel(vec![s], 1e-3, 1, &mut rng).unwrap();
        assert_eq!(m, expected);
    }

    fn reservoir_shape(size: u64) -> NodeShape {
        NodeShape {
            size,
            kind: ShapeKind::Reservoir,
            source: NodeSource::Raw,
        }
    }

    #[test]
    fn equal_reservoirs_plan_to_multiway_fan_in() {
        // 64 equal reservoirs collapse into two multiway levels (4 nodes
        // of fan-in 16, then their 4 outputs into the root): 5 merge nodes
        // touching ~68 leaf-sizes of input where the pairwise tree's 63
        // nodes touch ~126.
        let shapes = vec![reservoir_shape(512); 64];
        let plan = plan_union(&shapes, 512);
        assert_eq!(plan.merge_node_count(), 5);
        assert!(
            plan.nodes
                .iter()
                .filter(|n| !matches!(n.op, PlanOp::Leaf { .. }))
                .all(|n| matches!(n.op, PlanOp::Multiway { .. })),
            "wide equal-reservoir unions should use multiway fan-in"
        );
        assert_eq!(plan.nodes[plan.root].shape, reservoir_shape(512));
        // Labels are unique and live under union/node/.
        let labels: std::collections::BTreeSet<&str> = plan.merge_node_labels().collect();
        assert_eq!(labels.len(), 5);
        assert!(labels.iter().all(|l| l.starts_with("union/node/mw")));
    }

    #[test]
    fn leftover_equal_pair_uses_the_alias_cache() {
        // 18 equal reservoirs: one fan-in-16 multiway plus the leftover
        // equal-size pair through the shared alias cache, then the two
        // equal outputs pair through the cache again at the root.
        let shapes = vec![reservoir_shape(512); 18];
        let plan = plan_union(&shapes, 512);
        assert_eq!(plan.merge_node_count(), 3);
        let cached = plan
            .nodes
            .iter()
            .filter(|n| matches!(n.op, PlanOp::CachedPair { .. }))
            .count();
        let multiway = plan
            .nodes
            .iter()
            .filter(|n| matches!(n.op, PlanOp::Multiway { .. }))
            .count();
        assert_eq!((cached, multiway), (2, 1));
        assert!(plan.nodes[plan.root].label.starts_with("union/node/cp"));
    }

    #[test]
    fn distinct_reservoirs_plan_to_multiway() {
        let shapes: Vec<NodeShape> = (0..5).map(|i| reservoir_shape(100 + i * 7)).collect();
        let plan = plan_union(&shapes, 1024);
        assert_eq!(plan.merge_node_count(), 1);
        let root = &plan.nodes[plan.root];
        assert!(matches!(&root.op, PlanOp::Multiway { children } if children.len() == 5));
        assert_eq!(root.shape.size, 100, "multiway k = min child size");
        assert!(root.label.starts_with("union/node/mw"));
    }

    fn bernoulli_shapes(count: u64) -> Vec<NodeShape> {
        (0..count)
            .map(|i| NodeShape {
                size: 200 + i,
                kind: ShapeKind::Bernoulli,
                source: NodeSource::Raw,
            })
            .collect()
    }

    #[test]
    fn all_bernoulli_plans_to_multiway_hb_nodes() {
        // Up to the fan-in cap: one node thins and joins every input.
        let plan = plan_union(&bernoulli_shapes(16), 4096);
        assert_eq!(plan.merge_node_count(), 1);
        let root = &plan.nodes[plan.root];
        assert!(matches!(&root.op, PlanOp::HbMultiway { children } if children.len() == 16));
        assert_eq!(root.shape.kind, ShapeKind::Bernoulli);
        assert_eq!(root.shape.size, (200..216).sum::<u64>());
        assert!(root.label.starts_with("union/node/hb"));
        // 64 inputs: four full nodes, then one over their outputs.
        let plan = plan_union(&bernoulli_shapes(64), 4096);
        assert_eq!(plan.merge_node_count(), 5);
        assert!(plan
            .nodes
            .iter()
            .filter(|n| !matches!(n.op, PlanOp::Leaf { .. }))
            .all(|n| matches!(n.op, PlanOp::HbMultiway { .. })));
        // 17 inputs split 9 + 8 rather than 16 + 1, then a two-way root.
        let plan = plan_union(&bernoulli_shapes(17), 4096);
        let fan_ins: Vec<usize> = (0..plan.nodes.len())
            .filter(|&i| !plan.nodes[i].is_leaf())
            .map(|i| plan.children(i).len())
            .collect();
        assert_eq!(fan_ins, vec![9, 8, 2]);
    }

    #[test]
    fn mixed_exhaustive_and_bounded_combine_once_at_the_root() {
        let mut shapes = vec![
            NodeShape {
                size: 100,
                kind: ShapeKind::Exhaustive,
                source: NodeSource::Raw,
            },
            NodeShape {
                size: 50,
                kind: ShapeKind::Exhaustive,
                source: NodeSource::Raw,
            },
        ];
        shapes.extend((0..4).map(|_| reservoir_shape(256)));
        let plan = plan_union(&shapes, 256);
        // 1 exhaustive chain merge + 1 fan-in-4 multiway + final combine.
        assert_eq!(plan.merge_node_count(), 3);
        let root = &plan.nodes[plan.root];
        assert!(root.label.starts_with("union/node/rs"));
        let children = plan.children(plan.root);
        // Bounded side left (index 0), exhaustive side right.
        assert_eq!(plan.nodes[children[1]].shape.kind, ShapeKind::Exhaustive);
    }

    #[test]
    fn plan_is_topologically_ordered_and_deterministic() {
        let shapes: Vec<NodeShape> = (0..23)
            .map(|i| match i % 3 {
                0 => NodeShape {
                    size: 1000 + i,
                    kind: ShapeKind::Exhaustive,
                    source: NodeSource::Raw,
                },
                1 => reservoir_shape(300),
                _ => reservoir_shape(100 + i),
            })
            .collect();
        let plan = plan_union(&shapes, 300);
        for (i, _) in plan.nodes.iter().enumerate() {
            for c in plan.children(i) {
                assert!(c < i, "child {c} not before parent {i}");
            }
        }
        assert_eq!(plan, plan_union(&shapes, 300));
    }

    #[test]
    fn best_threads_scales_with_work() {
        // 64 large reservoirs: plenty of independent cached pairs → a pool
        // pays off under the element-cost fallback.
        let big = plan_union(&vec![reservoir_shape(8192); 64], 8192);
        assert!(big.best_threads(8, None) > 1);
        // 4 tiny samples: spawn cost dwarfs the merge work.
        let small = plan_union(&[reservoir_shape(32); 4], 32);
        assert_eq!(small.best_threads(8, None), 1);
        // Budget 1 is always honored.
        assert_eq!(big.best_threads(1, None), 1);
        // Critical path bounds the estimate from below.
        let model = None;
        assert!(big.parallel_estimate_ns(64, model) >= big.critical_path_ns(model) - 1e-9);
    }

    #[test]
    fn source_tags_survive_planning_and_are_counted() {
        // A lifecycle-backed union: one cold + two warm compacted nodes, a
        // cached sub-span, and three raw hot leaves. Sources change neither
        // the structure nor the costs — only the reported mix.
        let mut shapes = vec![
            reservoir_shape(512).sourced(NodeSource::Compacted),
            reservoir_shape(512).sourced(NodeSource::Compacted),
            reservoir_shape(512).sourced(NodeSource::Compacted),
            reservoir_shape(512).sourced(NodeSource::Cached),
        ];
        shapes.extend((0..3).map(|_| reservoir_shape(512)));
        let plan = plan_union(&shapes, 512);
        assert_eq!(plan.leaf_source_counts(), (3, 3, 1));
        // Identical structure to the untagged plan.
        let untagged: Vec<NodeShape> = shapes.iter().map(|s| s.sourced(NodeSource::Raw)).collect();
        let base = plan_union(&untagged, 512);
        assert_eq!(plan.merge_node_count(), base.merge_node_count());
        assert_eq!(plan.nodes[plan.root].shape, base.nodes[base.root].shape);
    }

    #[test]
    fn node_costs_use_installed_model_when_present() {
        use crate::costmodel::{CostEntry, CostModel};
        let plan = plan_union(&[reservoir_shape(512), reservoir_shape(512)], 512);
        let fallback = plan.serial_cost_ns(None);
        assert!(fallback > 0.0);
        let mut model = CostModel::default();
        model.entries.push(CostEntry {
            op: "merge".into(),
            sampler: "hr".into(),
            size_bucket: 11, // 1024 elements in
            size_hint: 1024,
            mean_ns: 123_456.0,
            count: 10,
        });
        let modeled = plan.serial_cost_ns(Some(&model));
        assert!((modeled - 123_456.0).abs() < 1e-6, "modeled {modeled}");
    }
}
