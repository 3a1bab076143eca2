//! Criterion micro benchmarks of the shared operators: one shared join/sort
//! for N concurrent queries versus N per-query joins/sorts (the core claim of
//! Sections 3.3 and 3.4 — shared execution bounds the work).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use shareddb_common::{tuple, QTuple, QueryId, SortKey, Value};
use shareddb_core::batch::Activation;
use shareddb_core::operators::{execute_operator, ExecContext};
use shareddb_core::plan::OperatorSpec;
use shareddb_storage::Catalog;

const ROWS: i64 = 2_000;

/// Builds the R side of the join: every row subscribed by a slice of queries.
fn build_side(queries: u32) -> Vec<QTuple> {
    (0..ROWS)
        .map(|i| {
            QTuple::new(
                tuple![i, format!("r{i}")],
                // Each query is interested in half of the rows (high overlap).
                (0..queries).filter(|q| (i + *q as i64) % 2 == 0).collect(),
            )
        })
        .collect()
}

fn probe_side(queries: u32) -> Vec<QTuple> {
    (0..ROWS)
        .map(|i| {
            QTuple::new(
                tuple![i % (ROWS / 2), i],
                (0..queries).filter(|q| (i + *q as i64) % 3 != 0).collect(),
            )
        })
        .collect()
}

fn bench_shared_join(c: &mut Criterion) {
    let catalog = Catalog::new();
    let ctx = ExecContext {
        catalog: &catalog,
        snapshot: catalog.oracle().read_ts(),
    };
    let mut group = c.benchmark_group("shared_hash_join");
    group.sample_size(10);
    for &queries in &[1u32, 16, 64, 256] {
        let build = build_side(queries);
        let probe = probe_side(queries);
        let activations: Vec<(QueryId, Activation)> = (0..queries)
            .map(|q| (QueryId(q + 1), Activation::Participate))
            .collect();
        // One big shared join serving all queries at once.
        group.bench_with_input(BenchmarkId::new("shared", queries), &queries, |b, _| {
            b.iter(|| {
                execute_operator(
                    &OperatorSpec::HashJoin {
                        build_key: 0,
                        probe_key: 0,
                    },
                    &activations,
                    &[&build, &probe],
                    &ctx,
                )
                .unwrap()
            })
        });
        // The query-at-a-time equivalent: one small join per query.
        group.bench_with_input(BenchmarkId::new("per_query", queries), &queries, |b, _| {
            b.iter(|| {
                let mut total = 0usize;
                for q in 0..queries {
                    let act = vec![(QueryId(q + 1), Activation::Participate)];
                    let build_q: Vec<QTuple> = build
                        .iter()
                        .filter(|t| t.queries.contains(QueryId(q + 1)))
                        .cloned()
                        .collect();
                    let probe_q: Vec<QTuple> = probe
                        .iter()
                        .filter(|t| t.queries.contains(QueryId(q + 1)))
                        .cloned()
                        .collect();
                    total += execute_operator(
                        &OperatorSpec::HashJoin {
                            build_key: 0,
                            probe_key: 0,
                        },
                        &act,
                        &[&build_q, &probe_q],
                        &ctx,
                    )
                    .unwrap()
                    .len();
                }
                total
            })
        });
    }
    group.finish();
}

fn bench_shared_sort(c: &mut Criterion) {
    let catalog = Catalog::new();
    let ctx = ExecContext {
        catalog: &catalog,
        snapshot: catalog.oracle().read_ts(),
    };
    let mut group = c.benchmark_group("shared_sort");
    group.sample_size(10);
    for &queries in &[1u32, 16, 64, 256] {
        let input: Vec<QTuple> = (0..ROWS)
            .map(|i| {
                QTuple::new(
                    tuple![(i * 7919) % ROWS, Value::Int(i)],
                    (0..queries).filter(|q| (i + *q as i64) % 2 == 0).collect(),
                )
            })
            .collect();
        let activations: Vec<(QueryId, Activation)> = (0..queries)
            .map(|q| (QueryId(q + 1), Activation::Participate))
            .collect();
        group.bench_with_input(BenchmarkId::new("shared", queries), &queries, |b, _| {
            b.iter(|| {
                execute_operator(
                    &OperatorSpec::Sort {
                        keys: vec![SortKey::asc(0)],
                    },
                    &activations,
                    &[&input],
                    &ctx,
                )
                .unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("per_query", queries), &queries, |b, _| {
            b.iter(|| {
                let mut total = 0usize;
                for q in 0..queries {
                    let act = vec![(QueryId(q + 1), Activation::Participate)];
                    let input_q: Vec<QTuple> = input
                        .iter()
                        .filter(|t| t.queries.contains(QueryId(q + 1)))
                        .cloned()
                        .collect();
                    total += execute_operator(
                        &OperatorSpec::Sort {
                            keys: vec![SortKey::asc(0)],
                        },
                        &act,
                        &[&input_q],
                        &ctx,
                    )
                    .unwrap()
                    .len();
                }
                total
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_shared_join, bench_shared_sort);
criterion_main!(benches);
