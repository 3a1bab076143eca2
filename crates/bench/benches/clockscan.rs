//! Criterion micro benchmark of the ClockScan shared scan: cycle time as a
//! function of the number of concurrent queries in the batch. The key
//! property is that the cycle time grows far slower than linearly with the
//! query count (the scan over the data is shared; only the predicate-index
//! probes grow).
//!
//! The `range_batch` group measures the index-assisted pass on a table
//! shaped like TPC-W's ORDER_LINE (90 000 rows, eight per order): a batch of
//! best-seller-style `ORDER >= ?` queries, all with the same threshold, on
//! the indexed `ORDER` column versus its unindexed twin `ORDER_TWIN`. The
//! `selectivity` sweep runs 16 such queries at growing selectivities; past
//! the gather cap (a quarter of the versions) the indexed column falls back
//! to the sequential pass plus an abandoned gather.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use shareddb_common::{tuple, DataType, Expr, QueryId};
use shareddb_storage::{Catalog, ClockScan, IndexDef, ScanQuery, TableDef};
use std::sync::Arc;

fn build_catalog(rows: i64) -> Arc<Catalog> {
    let catalog = Catalog::new();
    catalog
        .create_table(
            TableDef::new("T")
                .column("ID", DataType::Int)
                .column("CATEGORY", DataType::Int)
                .column("PRICE", DataType::Float)
                .primary_key(&["ID"]),
        )
        .unwrap();
    catalog
        .bulk_load(
            "T",
            (0..rows)
                .map(|i| tuple![i, i % 100, (i % 1000) as f64])
                .collect(),
        )
        .unwrap();
    Arc::new(catalog)
}

fn bench_clockscan(c: &mut Criterion) {
    let catalog = build_catalog(20_000);
    let scan = ClockScan::new(catalog.table("T").unwrap(), catalog.oracle());
    let mut group = c.benchmark_group("clockscan_cycle");
    group.sample_size(10);
    for &queries in &[1usize, 16, 128, 512] {
        // Equality predicates on CATEGORY: indexable by the predicate index.
        let batch: Vec<ScanQuery> = (0..queries)
            .map(|q| {
                ScanQuery::new(
                    QueryId(q as u32 + 1),
                    Expr::col(1).eq(Expr::lit((q % 100) as i64)),
                )
            })
            .collect();
        group.bench_with_input(
            BenchmarkId::new("equality_batch", queries),
            &queries,
            |b, _| b.iter(|| scan.execute_batch(&batch).unwrap().len()),
        );
    }
    group.finish();
}

/// ORDER_LINE-like rows `(ID, ORDER, ORDER_TWIN)`, eight lines per order,
/// with a secondary index on `ORDER` only.
fn build_order_lines(rows: i64) -> Arc<Catalog> {
    let catalog = Catalog::new();
    catalog
        .create_table(
            TableDef::new("OL")
                .column("ID", DataType::Int)
                .column("ORDER", DataType::Int)
                .column("ORDER_TWIN", DataType::Int)
                .primary_key(&["ID"]),
        )
        .unwrap();
    catalog
        .create_index(IndexDef {
            name: "OL_ORDER".into(),
            table: "OL".into(),
            column: "ORDER".into(),
        })
        .unwrap();
    catalog
        .bulk_load("OL", (0..rows).map(|i| tuple![i, i / 8, i / 8]).collect())
        .unwrap();
    Arc::new(catalog)
}

fn bench_range_batch(c: &mut Criterion) {
    const ROWS: i64 = 90_000;
    let catalog = build_order_lines(ROWS);
    let scan = ClockScan::new(catalog.table("OL").unwrap(), catalog.oracle());
    // `queries` queries selecting the newest `percent`% of the orders.
    let batch = |column: usize, queries: usize, percent: i64| -> Vec<ScanQuery> {
        let threshold = ROWS / 8 * (100 - percent) / 100;
        (0..queries)
            .map(|q| {
                ScanQuery::new(
                    QueryId(q as u32 + 1),
                    Expr::col(column).gt_eq(Expr::lit(threshold)),
                )
            })
            .collect()
    };
    let mut group = c.benchmark_group("range_batch");
    group.sample_size(50);
    for (name, column) in [("indexed", 1), ("unindexed", 2)] {
        for queries in [1usize, 16, 128] {
            let queries = batch(column, queries, 13);
            group.bench_with_input(
                BenchmarkId::new(name, queries.len()),
                &queries,
                |b, queries| b.iter(|| scan.execute_batch(queries).unwrap().len()),
            );
        }
        for percent in [13, 20, 25, 33, 50] {
            let queries = batch(column, 16, percent);
            group.bench_with_input(
                BenchmarkId::new(format!("{name}_selectivity"), format!("{percent}%")),
                &queries,
                |b, queries| b.iter(|| scan.execute_batch(queries).unwrap().len()),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_clockscan, bench_range_batch);
criterion_main!(benches);
