#![warn(missing_docs)]

//! Core sampling algorithms of *Techniques for Warehousing of Sample Data*
//! (Brown & Haas, ICDE 2006).
//!
//! The crate provides the paper's two new bounded-footprint **uniform**
//! sampling schemes and their merge operators, alongside the classical
//! schemes they are built from and compared against:
//!
//! | Scheme | Type | Uniform? | Bounded footprint? | Compact storage? |
//! |---|---|---|---|---|
//! | [`BernoulliSampler`] | `Bern(q)` | yes | **no** | yes |
//! | [`ReservoirSampler`] | simple random sample | yes | yes | no (bag) |
//! | [`ConciseSampler`] | Gibbons–Matias concise | **no** (§3.3) | yes | yes |
//! | [`HybridBernoulli`] (HB) | exhaustive → `Bern(q)` → reservoir | yes | yes | yes |
//! | [`HybridReservoir`] (HR) | exhaustive → reservoir | yes | yes | yes |
//! | [`StratifiedBernoulli`] (SB) | fixed-rate baseline | yes | no | no |
//!
//! Samples produced by HB and HR are [`Sample`] values carrying the
//! provenance (`Exhaustive`, `Bernoulli{q}`, or `Reservoir`) needed to merge
//! them: [`merge::hb_merge`] implements Fig. 6, [`merge::hr_merge`]
//! implements Fig. 8 (hypergeometric split, Theorem 1), and [`merge::merge`]
//! dispatches on provenance exactly as the paper prescribes.

pub mod audit;
pub mod bernoulli;
pub mod bilevel;
pub mod concise;
pub mod costmodel;
pub mod counting;
pub mod distinct_sampler;
pub mod executor;
pub mod footprint;
pub mod fxhash;
pub mod histogram;
pub mod hybrid_bernoulli;
pub mod hybrid_reservoir;
pub(crate) mod invariant;
pub mod lineage;
pub mod merge;
pub mod planner;
pub mod purge;
pub mod qbound;
pub mod reservoir;
pub mod sample;
pub mod sampler;
pub mod sb;
pub mod stats;
pub mod stratified;
pub mod systematic;
pub mod value;
pub mod weighted;

pub use bernoulli::BernoulliSampler;
pub use bilevel::BiLevelBernoulli;
pub use concise::ConciseSampler;
pub use costmodel::{CostEntry, CostModel};
pub use counting::CountingSampler;
pub use distinct_sampler::DistinctSampler;
pub use footprint::FootprintPolicy;
pub use histogram::CompactHistogram;
pub use hybrid_bernoulli::HybridBernoulli;
pub use hybrid_reservoir::HybridReservoir;
pub use lineage::{LineageEvent, PurgeKind};
pub use merge::{
    hb_merge, hr_merge, hr_merge_cached, hr_merge_multiway, hr_merge_multiway_borrowed,
    hr_merge_tree_cached, merge, merge_all, merge_all_borrowed, merge_borrowed, merge_tree,
    HypergeometricCache, MergeError,
};
pub use planner::{plan_union, MergePlan, NodeShape, PlanNode, PlanOp, ShapeKind};
pub use qbound::{q_approx, q_exact};
pub use reservoir::ReservoirSampler;
pub use sample::{Sample, SampleKind};
pub use sampler::Sampler;
pub use sb::StratifiedBernoulli;
pub use stats::SamplerStats;
pub use stratified::StratifiedSample;
pub use systematic::SystematicSampler;
pub use value::SampleValue;
pub use weighted::WeightedReservoir;
