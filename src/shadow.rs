//! The complete Fig. 1 architecture in one object: a full-scale warehouse
//! of partition data files, *shadowed* by a sample warehouse whose bounded
//! samples answer queries approximately — with the full scan available to
//! measure exactly what the approximation trades away.

use std::path::Path;
use std::sync::Arc;
use swh_aqp::estimators::Estimate;
use swh_aqp::query::Query;
use swh_core::footprint::FootprintPolicy;
use swh_core::sample::Sample;
use swh_rand::seeded_rng;
use swh_warehouse::fullstore::FullStore;
use swh_warehouse::ids::{DatasetId, PartitionKey};
use swh_warehouse::store::StoreError;
use swh_warehouse::warehouse::{Algorithm, SampleWarehouse, WarehouseError};

/// Errors from shadowed-warehouse operations.
#[derive(Debug)]
pub enum ShadowError {
    /// The full-scale side failed.
    Full(StoreError),
    /// The sample side failed.
    Sample(WarehouseError),
}

impl std::fmt::Display for ShadowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShadowError::Full(e) => write!(f, "full-scale store: {e}"),
            ShadowError::Sample(e) => write!(f, "sample warehouse: {e}"),
        }
    }
}

impl std::error::Error for ShadowError {}

impl From<StoreError> for ShadowError {
    fn from(e: StoreError) -> Self {
        ShadowError::Full(e)
    }
}

impl From<WarehouseError> for ShadowError {
    fn from(e: WarehouseError) -> Self {
        ShadowError::Sample(e)
    }
}

/// One approximate-vs-exact comparison row.
#[derive(Debug, Clone)]
pub struct AccuracyRow {
    /// The query that was run.
    pub query: Query,
    /// Approximate answer with its interval.
    pub estimate: Estimate,
    /// Exact answer from the full scan.
    pub exact: f64,
    /// `|estimate − exact| / |exact|` (0 when both are 0; infinite when
    /// only the exact answer is 0).
    pub relative_error: f64,
    /// Whether the exact answer lies in the 95% confidence interval.
    pub covered_95: bool,
}

/// A full-scale warehouse plus its sample shadow.
#[derive(Debug)]
pub struct ShadowedWarehouse {
    full: FullStore,
    samples: SampleWarehouse<i64>,
    seed: u64,
}

impl ShadowedWarehouse {
    /// Open (creating if needed) both sides under `root`: data files in
    /// `root/full`, and an in-memory sample catalog built with the given
    /// policy and algorithm.
    pub fn open(
        root: impl AsRef<Path>,
        policy: FootprintPolicy,
        algorithm: Algorithm,
        seed: u64,
    ) -> Result<Self, ShadowError> {
        let full = FullStore::open(root.as_ref().join("full"))?;
        Ok(Self {
            full,
            samples: SampleWarehouse::new(policy, algorithm, 1e-3),
            seed,
        })
    }

    /// The full-scale side.
    pub fn full(&self) -> &FullStore {
        &self.full
    }

    /// The sample side.
    pub fn samples(&self) -> &SampleWarehouse<i64> {
        &self.samples
    }

    /// Ingest one partition: values are written to the full-scale store
    /// **and** sampled into the shadow in the same pass (the values are
    /// buffered once).
    pub fn ingest_partition<I: IntoIterator<Item = i64>>(
        &mut self,
        key: PartitionKey,
        values: I,
    ) -> Result<u64, ShadowError> {
        let values: Vec<i64> = values.into_iter().collect();
        let n = self.full.write_partition(key, values.iter().copied())?;
        self.seed = self.seed.wrapping_add(0x9E37_79B9);
        let mut rng = seeded_rng(self.seed);
        self.samples
            .ingest_partition(key, values, Some(n), &mut rng)?;
        Ok(n)
    }

    /// Roll a partition out of both sides.
    pub fn roll_out(&mut self, key: PartitionKey) -> Result<(), ShadowError> {
        self.full.remove(key)?;
        self.samples.roll_out(key)?;
        Ok(())
    }

    /// Uniform sample of the whole dataset from the shadow.
    pub fn dataset_sample(&mut self, dataset: DatasetId) -> Result<Arc<Sample<i64>>, ShadowError> {
        self.seed = self.seed.wrapping_add(1);
        let mut rng = seeded_rng(self.seed);
        Ok(self.samples.query_all(dataset, &mut rng)?)
    }

    /// Answer a query approximately from the shadow.
    pub fn answer_approx(
        &mut self,
        dataset: DatasetId,
        query: &Query,
    ) -> Result<Estimate, ShadowError> {
        let sample = self.dataset_sample(dataset)?;
        Ok(query.estimate(&sample))
    }

    /// Answer a query exactly by scanning the full-scale store.
    pub fn answer_exact(&self, dataset: DatasetId, query: &Query) -> Result<f64, ShadowError> {
        // Materialize with error propagation (a torn partition must fail
        // the query, not be silently dropped mid-scan).
        let values: Result<Vec<i64>, _> = self.full.scan_dataset::<i64>(dataset)?.collect();
        Ok(query.exact(values?))
    }

    /// Run a batch of queries both ways and report accuracy.
    pub fn accuracy_report(
        &mut self,
        dataset: DatasetId,
        queries: &[Query],
    ) -> Result<Vec<AccuracyRow>, ShadowError> {
        let sample = self.dataset_sample(dataset)?;
        let mut rows = Vec::with_capacity(queries.len());
        for query in queries {
            let estimate = query.estimate(&sample);
            let exact = self.answer_exact(dataset, query)?;
            let relative_error = if exact == 0.0 {
                if estimate.value == 0.0 {
                    0.0
                } else {
                    f64::INFINITY
                }
            } else {
                (estimate.value - exact).abs() / exact.abs()
            };
            let (lo, hi) = estimate.confidence_interval(0.95);
            rows.push(AccuracyRow {
                query: query.clone(),
                estimate,
                exact,
                relative_error,
                covered_95: (lo..=hi).contains(&exact),
            });
        }
        Ok(rows)
    }
}
