//! Criterion micro benchmark of the ClockScan shared scan: cycle time as a
//! function of the number of concurrent queries in the batch. The key
//! property is that the cycle time grows far slower than linearly with the
//! query count (the scan over the data is shared; only the predicate-index
//! probes grow).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use shareddb_common::{tuple, DataType, Expr, QueryId};
use shareddb_storage::{Catalog, ClockScan, ScanQuery, TableDef};
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

criterion_group!(benches, bench_clockscan);
criterion_main!(benches);
