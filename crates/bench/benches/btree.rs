//! Criterion micro benchmark of the B+-tree index and of shared index probes
//! (batched look-ups, Section 4.4).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use shareddb_common::{tuple, DataType, QueryId, Value};
use shareddb_storage::table::RowId;
use shareddb_storage::{BTreeIndex, Catalog, IndexProbe, ProbeQuery, TableDef};
use std::sync::Arc;

fn bench_btree_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("btree");
    group.sample_size(10);
    group.bench_function("insert_100k", |b| {
        b.iter(|| {
            let mut idx = BTreeIndex::new();
            for i in 0..100_000i64 {
                idx.insert(Value::Int((i * 7919) % 100_000), RowId(i as u64));
            }
            idx.entry_count()
        })
    });
    let mut idx = BTreeIndex::new();
    for i in 0..100_000i64 {
        idx.insert(Value::Int(i), RowId(i as u64));
    }
    group.bench_function("point_lookup", |b| {
        let mut k = 0i64;
        b.iter(|| {
            k = (k + 7919) % 100_000;
            idx.get(&Value::Int(k)).len()
        })
    });
    group.bench_function("range_1k", |b| {
        b.iter(|| {
            idx.range(
                std::ops::Bound::Included(&Value::Int(40_000)),
                std::ops::Bound::Excluded(&Value::Int(41_000)),
            )
            .len()
        })
    });
    group.finish();
}

fn bench_shared_probe(c: &mut Criterion) {
    let catalog = Catalog::new();
    catalog
        .create_table(
            TableDef::new("T")
                .column("ID", DataType::Int)
                .column("PAYLOAD", DataType::Text)
                .primary_key(&["ID"]),
        )
        .unwrap();
    catalog
        .bulk_load(
            "T",
            (0..50_000i64)
                .map(|i| tuple![i, format!("row{i}")])
                .collect(),
        )
        .unwrap();
    catalog
        .create_index(shareddb_storage::IndexDef {
            name: "T_ID".into(),
            table: "T".into(),
            column: "ID".into(),
        })
        .unwrap();
    let catalog = Arc::new(catalog);
    let probe = IndexProbe::new(catalog.table("T").unwrap(), catalog.oracle());

    let mut group = c.benchmark_group("shared_index_probe");
    group.sample_size(10);
    for &batch in &[1usize, 64, 512] {
        let queries: Vec<ProbeQuery> = (0..batch)
            .map(|q| {
                ProbeQuery::key(
                    QueryId(q as u32 + 1),
                    0,
                    Value::Int((q as i64 * 97) % 50_000),
                )
            })
            .collect();
        group.bench_with_input(BenchmarkId::new("lookups", batch), &batch, |b, _| {
            b.iter(|| probe.execute_batch(&queries).unwrap().len())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_btree_ops, bench_shared_probe);
criterion_main!(benches);
