//! The paper's warehousing scenario (§2): daily partitions are sampled as
//! they arrive and rolled into the sample warehouse; weekly and monthly
//! samples are produced on demand by merging; a 7-day sliding window
//! approximates a moving-window stream sample as old days roll out.
//!
//! ```sh
//! cargo run --release --example daily_rollup
//! ```

use sample_warehouse::aqp::estimators::estimate_count;
use sample_warehouse::sampling::FootprintPolicy;
use sample_warehouse::variates::seeded_rng;
use sample_warehouse::warehouse::warehouse::Algorithm;
use sample_warehouse::warehouse::window::SlidingWindow;
use sample_warehouse::warehouse::{DatasetId, PartitionId, PartitionKey, SampleWarehouse};
use sample_warehouse::workloads::{DataDistribution, DataSpec};

fn main() {
    let mut rng = seeded_rng(7);
    let policy = FootprintPolicy::with_value_budget(2048);
    let warehouse: SampleWarehouse<u64> =
        SampleWarehouse::new(policy, Algorithm::HybridReservoir, 1e-3);
    let orders = DatasetId(1);

    // 30 days of "order amounts": uniform integers in 1..=1_000_000, with
    // per-day volume that fluctuates.
    let mut window = SlidingWindow::new(7);
    let mut total_rows = 0u64;
    for day in 0..30u64 {
        let volume = 40_000 + 17_000 * (day % 3); // fluctuating arrival rate
        let spec = DataSpec::new(DataDistribution::PAPER_UNIFORM, volume, 100 + day);
        let key = PartitionKey {
            dataset: orders,
            partition: PartitionId::seq(day),
        };
        warehouse
            .ingest_partition(key, spec.stream(), None, &mut rng)
            .expect("roll-in");
        total_rows += volume;

        // Maintain the 7-day moving window alongside the full catalog; both
        // hold the same shared sample.
        let daily = warehouse.catalog().get(key).expect("just ingested");
        window.roll_in(day, daily);
    }
    println!("ingested 30 daily partitions, {total_rows} rows total");

    // Weekly sample: merge days 0..7 on demand.
    let week1 = warehouse
        .query_union(orders, |p| p.seq < 7, &mut rng)
        .expect("week query");
    println!(
        "week 1  : uniform sample of {} rows -> {} values",
        week1.parent_size(),
        week1.size()
    );

    // Monthly sample: all 30 days.
    let month = warehouse.query_all(orders, &mut rng).expect("month query");
    let high = estimate_count(&month, |v| *v > 900_000);
    let (lo, hi) = high.confidence_interval(0.95);
    println!(
        "month   : sample of {} rows -> {} values; COUNT(amount > 900k) ~ {:.0} \
         (95% CI [{:.0}, {:.0}]; truth ~ {:.0})",
        month.parent_size(),
        month.size(),
        high.value,
        lo,
        hi,
        total_rows as f64 * 0.1
    );

    // Moving window: covers only the 7 most recent days.
    let moving = window.window_sample(1e-3, &mut rng).expect("window sample");
    println!(
        "window  : days {:?}, {} rows -> {} values",
        window.seqs(),
        moving.parent_size(),
        moving.size()
    );

    // Roll out the oldest week from the warehouse proper, as the full-scale
    // warehouse drops those partitions.
    for day in 0..7u64 {
        warehouse
            .roll_out(PartitionKey {
                dataset: orders,
                partition: PartitionId::seq(day),
            })
            .expect("roll-out");
    }
    let trimmed = warehouse
        .query_all(orders, &mut rng)
        .expect("post roll-out");
    println!(
        "rolled out week 1: remaining coverage {} rows -> {} values",
        trimmed.parent_size(),
        trimmed.size()
    );
}
