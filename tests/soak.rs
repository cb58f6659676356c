//! Churn/soak testing: long randomized sequences of warehouse operations
//! (ingest, roll-out, window maintenance, union queries, persistence
//! round-trips) with invariants checked continuously.
//!
//! The default test runs a short soak; `cargo test --test soak -- --ignored`
//! runs the long one.

use rand::Rng;
use sample_warehouse::sampling::FootprintPolicy;
use sample_warehouse::variates::seeded_rng;
use sample_warehouse::warehouse::warehouse::Algorithm;
use sample_warehouse::warehouse::window::SlidingWindow;
use sample_warehouse::warehouse::{
    DatasetId, DiskStore, PartitionId, PartitionKey, SampleWarehouse,
};

fn churn(cycles: u64, seed: u64) {
    let mut rng = seeded_rng(seed);
    let n_f = 128u64;
    let policy = FootprintPolicy::with_value_budget(n_f);
    let wh: SampleWarehouse<u64> = SampleWarehouse::new(policy, Algorithm::HybridReservoir, 1e-3);
    let dataset = DatasetId(1);
    let mut window = SlidingWindow::new(5);
    let dir = std::env::temp_dir().join(format!("swh-soak-{seed}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = DiskStore::open(&dir).expect("store");

    let mut next_seq = 0u64;
    let mut live: Vec<u64> = Vec::new();
    let mut covered = 0u64;

    #[allow(clippy::explicit_counter_loop)] // next_seq outlives evictions, not a pure counter
    for cycle in 0..cycles {
        // Ingest a new partition of random size and cardinality.
        let size = rng.random_range(50..3_000u64);
        let domain = rng.random_range(5..2_000u64);
        let base = next_seq * 10_000;
        let key = PartitionKey {
            dataset,
            partition: PartitionId::seq(next_seq),
        };
        wh.ingest_partition(key, (0..size).map(|i| base + i % domain), None, &mut rng)
            .expect("ingest");
        let sample = wh.catalog().get(key).expect("present");
        assert!(sample.slots() <= n_f, "cycle {cycle}: footprint violated");
        window.roll_in(next_seq, sample.clone());
        store.save(key, &sample).expect("persist");
        live.push(next_seq);
        covered += size;
        next_seq += 1;

        // Occasionally roll the oldest partition out everywhere.
        if live.len() > 8 {
            let seq = live.remove(0);
            let key = PartitionKey {
                dataset,
                partition: PartitionId::seq(seq),
            };
            let out = wh.roll_out(key).expect("roll out");
            covered -= out.parent_size();
            store.remove(key).expect("store remove");
        }

        // Union query must cover exactly the live partitions.
        let s = wh.query_all(dataset, &mut rng).expect("query");
        assert_eq!(s.parent_size(), covered, "cycle {cycle}: coverage drifted");
        assert!(s.slots() <= n_f);

        // Window sample covers at most the last 5 partitions.
        let w = window.window_sample(1e-3, &mut rng).expect("window");
        assert!(
            w.parent_size() <= covered + 30_000,
            "window larger than plausible"
        );

        // Periodic persistence check: reload one random live partition and
        // compare bit-for-bit.
        if cycle % 7 == 0 {
            let seq = live[rng.random_range(0..live.len())];
            let key = PartitionKey {
                dataset,
                partition: PartitionId::seq(seq),
            };
            let reloaded = store.load::<u64>(key).expect("load");
            assert_eq!(
                reloaded,
                *wh.catalog().get(key).expect("live"),
                "cycle {cycle}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn short_soak() {
    churn(60, 1);
}

#[test]
#[ignore = "long soak; run explicitly with --ignored"]
fn long_soak() {
    churn(2_000, 2);
}
