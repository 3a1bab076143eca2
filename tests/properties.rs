//! Property-based tests over the core data structures and invariants:
//!
//! * the NF² query-set algebra (union / intersection laws),
//! * the B+-tree index against a model (`BTreeMap`),
//! * the equivalence of the *shared* join/sort/top-N/group-by execution with
//!   per-query execution — the central correctness claim of the paper: routing
//!   a single big shared operator by query id returns exactly what each query
//!   would have computed on its own.

use proptest::prelude::*;
use shareddb::common::agg::AggregateFunction;
use shareddb::common::{QTuple, QueryId, QuerySet, SortKey, Tuple, Value};
use shareddb::core::batch::Activation;
use shareddb::core::operators::{execute_operator, ExecContext};
use shareddb::core::plan::{AggregateSpec, OperatorSpec};
use shareddb::storage::table::RowId;
use shareddb::storage::{BTreeIndex, Catalog};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// QuerySet laws
// ---------------------------------------------------------------------------

fn qs(ids: &[u32]) -> QuerySet {
    ids.iter().copied().collect()
}

proptest! {
    #[test]
    fn queryset_union_and_intersection_match_btreeset(a in proptest::collection::vec(0u32..200, 0..40),
                                                      b in proptest::collection::vec(0u32..200, 0..40)) {
        let sa: BTreeSet<u32> = a.iter().copied().collect();
        let sb: BTreeSet<u32> = b.iter().copied().collect();
        let qa = qs(&a);
        let qb = qs(&b);
        let union: Vec<u32> = qa.union(&qb).iter().map(|q| q.raw()).collect();
        let expect_union: Vec<u32> = sa.union(&sb).copied().collect();
        prop_assert_eq!(union, expect_union);
        let inter: Vec<u32> = qa.intersect(&qb).iter().map(|q| q.raw()).collect();
        let expect_inter: Vec<u32> = sa.intersection(&sb).copied().collect();
        prop_assert_eq!(&inter, &expect_inter);
        prop_assert_eq!(qa.intersects(&qb), !expect_inter.is_empty());
        // Commutativity.
        prop_assert_eq!(qa.intersect(&qb), qb.intersect(&qa));
        prop_assert_eq!(qa.union(&qb), qb.union(&qa));
    }

    #[test]
    fn queryset_insert_remove_contains(ops in proptest::collection::vec((0u32..100, any::<bool>()), 0..200)) {
        let mut set = QuerySet::new();
        let mut model: BTreeSet<u32> = BTreeSet::new();
        for (id, insert) in ops {
            if insert {
                prop_assert_eq!(set.insert(QueryId(id)), model.insert(id));
            } else {
                prop_assert_eq!(set.remove(QueryId(id)), model.remove(&id));
            }
        }
        let got: Vec<u32> = set.iter().map(|q| q.raw()).collect();
        let expect: Vec<u32> = model.iter().copied().collect();
        prop_assert_eq!(got, expect);
    }
}

// ---------------------------------------------------------------------------
// B+-tree vs model
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn btree_matches_model(ops in proptest::collection::vec((0i64..500, 0u64..50), 1..400),
                           lo in 0i64..500, len in 0i64..100) {
        let mut tree = BTreeIndex::new();
        let mut model: BTreeMap<i64, BTreeSet<u64>> = BTreeMap::new();
        for (key, row) in ops {
            tree.insert(Value::Int(key), RowId(row));
            model.entry(key).or_default().insert(row);
        }
        tree.check_invariants().unwrap();
        // Point lookups.
        for (key, rows) in &model {
            let got: BTreeSet<u64> = tree.get(&Value::Int(*key)).iter().map(|r| r.0).collect();
            prop_assert_eq!(&got, rows);
        }
        prop_assert_eq!(tree.entry_count(), model.values().map(|s| s.len()).sum::<usize>());
        // Range scan.
        let hi = lo + len;
        let got: Vec<i64> = tree
            .range(Bound::Included(&Value::Int(lo)), Bound::Excluded(&Value::Int(hi)))
            .into_iter()
            .map(|(k, _)| k.as_int().unwrap())
            .collect();
        let expect: Vec<i64> = model
            .range(lo..hi)
            .flat_map(|(k, rows)| std::iter::repeat_n(*k, rows.len()))
            .collect();
        prop_assert_eq!(got, expect);
    }
}

// ---------------------------------------------------------------------------
// Shared execution == per-query execution
// ---------------------------------------------------------------------------

/// Strategy: a small relation where every row is subscribed to a random
/// subset of `queries` queries.
fn annotated_rows(queries: u32) -> impl Strategy<Value = Vec<(i64, i64, Vec<u32>)>> {
    proptest::collection::vec(
        (
            0i64..20,
            0i64..50,
            proptest::collection::vec(0..queries, 0..queries as usize),
        ),
        0..60,
    )
}

fn to_qtuples(rows: &[(i64, i64, Vec<u32>)]) -> Vec<QTuple> {
    rows.iter()
        .map(|(k, v, subs)| {
            QTuple::new(
                Tuple::new(vec![Value::Int(*k), Value::Int(*v)]),
                subs.iter().map(|q| QueryId(*q + 1)).collect(),
            )
        })
        .collect()
}

fn rows_for_query(out: &[QTuple], q: u32) -> Vec<Tuple> {
    out.iter()
        .filter(|t| t.queries.contains(QueryId(q + 1)))
        .map(|t| t.tuple.clone())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn shared_join_equals_per_query_join(left in annotated_rows(4), right in annotated_rows(4)) {
        let catalog = Catalog::new();
        let ctx = ExecContext { catalog: &catalog, snapshot: catalog.oracle().read_ts() };
        let spec = OperatorSpec::HashJoin { build_key: 0, probe_key: 0 };
        let all: Vec<(QueryId, Activation)> =
            (0..4u32).map(|q| (QueryId(q + 1), Activation::Participate)).collect();
        let shared = execute_operator(&spec, &all, &[&to_qtuples(&left), &to_qtuples(&right)], &ctx).unwrap();
        for q in 0..4u32 {
            // Per-query execution: restrict the inputs to query q only.
            let lq: Vec<QTuple> = to_qtuples(&left)
                .into_iter()
                .filter(|t| t.queries.contains(QueryId(q + 1)))
                .map(|t| QTuple::new(t.tuple, QuerySet::singleton(QueryId(q + 1))))
                .collect();
            let rq: Vec<QTuple> = to_qtuples(&right)
                .into_iter()
                .filter(|t| t.queries.contains(QueryId(q + 1)))
                .map(|t| QTuple::new(t.tuple, QuerySet::singleton(QueryId(q + 1))))
                .collect();
            let solo = execute_operator(
                &spec,
                &[(QueryId(q + 1), Activation::Participate)],
                &[&lq, &rq],
                &ctx,
            )
            .unwrap();
            let mut shared_rows = rows_for_query(&shared, q);
            let mut solo_rows = rows_for_query(&solo, q);
            shared_rows.sort();
            solo_rows.sort();
            prop_assert_eq!(shared_rows, solo_rows, "query {} differs", q);
        }
    }

    #[test]
    fn shared_topn_equals_per_query_topn(input in annotated_rows(3), limit in 1usize..8) {
        let catalog = Catalog::new();
        let ctx = ExecContext { catalog: &catalog, snapshot: catalog.oracle().read_ts() };
        let spec = OperatorSpec::TopN { keys: vec![SortKey::desc(1), SortKey::asc(0)] };
        let all: Vec<(QueryId, Activation)> =
            (0..3u32).map(|q| (QueryId(q + 1), Activation::TopN { limit })).collect();
        let shared = execute_operator(&spec, &all, &[&to_qtuples(&input)], &ctx).unwrap();
        for q in 0..3u32 {
            let iq: Vec<QTuple> = to_qtuples(&input)
                .into_iter()
                .filter(|t| t.queries.contains(QueryId(q + 1)))
                .map(|t| QTuple::new(t.tuple, QuerySet::singleton(QueryId(q + 1))))
                .collect();
            let solo = execute_operator(
                &spec,
                &[(QueryId(q + 1), Activation::TopN { limit })],
                &[&iq],
                &ctx,
            )
            .unwrap();
            // Top-N results are ordered: compare in order.
            prop_assert_eq!(rows_for_query(&shared, q), rows_for_query(&solo, q));
        }
    }

    #[test]
    fn shared_group_by_equals_per_query_group_by(input in annotated_rows(3)) {
        let catalog = Catalog::new();
        let ctx = ExecContext { catalog: &catalog, snapshot: catalog.oracle().read_ts() };
        let spec = OperatorSpec::GroupBy {
            group_columns: vec![0],
            aggregates: vec![
                AggregateSpec { function: AggregateFunction::Sum, column: 1, output_name: "S".into() },
                AggregateSpec { function: AggregateFunction::Count, column: 1, output_name: "C".into() },
            ],
        };
        let all: Vec<(QueryId, Activation)> =
            (0..3u32).map(|q| (QueryId(q + 1), Activation::Having { predicate: None, partial: false })).collect();
        let shared = execute_operator(&spec, &all, &[&to_qtuples(&input)], &ctx).unwrap();
        for q in 0..3u32 {
            let iq: Vec<QTuple> = to_qtuples(&input)
                .into_iter()
                .filter(|t| t.queries.contains(QueryId(q + 1)))
                .map(|t| QTuple::new(t.tuple, QuerySet::singleton(QueryId(q + 1))))
                .collect();
            let solo = execute_operator(
                &spec,
                &[(QueryId(q + 1), Activation::Having { predicate: None, partial: false })],
                &[&iq],
                &ctx,
            )
            .unwrap();
            let mut shared_rows = rows_for_query(&shared, q);
            let mut solo_rows = rows_for_query(&solo, q);
            shared_rows.sort();
            solo_rows.sort();
            prop_assert_eq!(shared_rows, solo_rows, "query {} differs", q);
        }
    }
}

// ---------------------------------------------------------------------------
// Storage: snapshot isolation under random update batches
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn old_snapshots_are_immutable(deletes in proptest::collection::vec(0i64..100, 1..20)) {
        use shareddb::common::{DataType, Expr};
        use shareddb::storage::{TableDef, UpdateOp};
        let catalog = Catalog::new();
        catalog
            .create_table(
                TableDef::new("T")
                    .column("ID", DataType::Int)
                    .column("V", DataType::Int)
                    .primary_key(&["ID"]),
            )
            .unwrap();
        catalog
            .bulk_load("T", (0..100i64).map(|i| shareddb::common::tuple![i, i]).collect())
            .unwrap();
        let before = catalog.oracle().read_ts();
        for key in deletes {
            catalog
                .apply_batch(&[(
                    "T".into(),
                    UpdateOp::Delete { predicate: Expr::col(0).eq(Expr::lit(key)) },
                )])
                .unwrap();
        }
        // The old snapshot still sees all 100 rows, regardless of what was
        // deleted afterwards.
        let table = catalog.table("T").unwrap();
        prop_assert_eq!(table.read().scan(before).count(), 100);
    }
}

// ---------------------------------------------------------------------------
// Storage: index probes follow SQL `=` exactly like scans
// ---------------------------------------------------------------------------

/// A row value for a column of `data_type` (the schema admits `Int` in
/// `Float`/`Date` columns and `Date`/`Float` in `Int` columns).
fn column_value(data_type: shareddb::common::DataType, kind: u8, v: i64) -> Value {
    use shareddb::common::DataType;
    match (kind, data_type) {
        (0, _) => Value::Null,
        (1, DataType::Date) => Value::Date(v),
        (1, _) | (2, DataType::Date) => Value::Int(v),
        (2, DataType::Int) => Value::Date(v),
        (2, _) => Value::Float(v as f64),
        (_, DataType::Date) => Value::Date(v),
        (_, _) => Value::Float(v as f64 + 0.5),
    }
}

/// A probe key: NULL, or a number, fraction, date or text near `v`.
fn probe_key(kind: u8, v: i64) -> Value {
    match kind {
        0 => Value::Null,
        1 => Value::Int(v),
        2 => Value::Float(v as f64),
        3 => Value::Float(v as f64 + 0.5),
        4 => Value::Date(v),
        _ => Value::text(v.to_string()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn index_probe_equals_scan_under_sql_equality(
        rows in proptest::collection::vec((0u8..4, 0i64..6), 1..40),
        updates in proptest::collection::vec((0i64..8, 0u8..4, 0i64..6), 0..8),
        probes in proptest::collection::vec((0usize..4, 0u8..6, 0i64..6), 1..12),
    ) {
        use shareddb::common::{DataType, Expr};
        use shareddb::storage::{ClockScan, IndexDef, IndexProbe, ProbeQuery, ScanQuery, TableDef, UpdateOp};
        let types = [DataType::Int, DataType::Float, DataType::Date, DataType::Int];
        let catalog = Catalog::new();
        catalog
            .create_table(
                TableDef::new("T")
                    .column("ID", DataType::Int)
                    .nullable_column("F", DataType::Float)
                    .nullable_column("D", DataType::Date)
                    .nullable_column("I", DataType::Int)
                    .primary_key(&["ID"]),
            )
            .unwrap();
        for column in ["F", "D", "I"] {
            catalog
                .create_index(IndexDef {
                    name: format!("T_{column}"),
                    table: "T".into(),
                    column: column.into(),
                })
                .unwrap();
        }
        let tuples = rows
            .iter()
            .enumerate()
            .map(|(id, &(kind, v))| {
                let mut values = vec![Value::Int(id as i64)];
                values.extend(types[1..].iter().map(|&t| column_value(t, kind, v)));
                Tuple::new(values)
            })
            .collect();
        catalog.bulk_load("T", tuples).unwrap();
        // Writes after `pinned` leave the primary-key hash ahead of it.
        let pinned = catalog.oracle().read_ts();
        for (id, kind, v) in updates {
            catalog
                .apply_batch(&[(
                    "T".into(),
                    UpdateOp::Update {
                        assignments: (1..4).map(|c| (c, Expr::Literal(column_value(types[c], kind, v)))).collect(),
                        predicate: Expr::col(0).eq(Expr::lit(id)),
                    },
                )])
                .unwrap();
        }
        let table = catalog.table("T").unwrap();
        let probe = IndexProbe::new(Arc::clone(&table), catalog.oracle());
        let scan = ClockScan::new(table, catalog.oracle());
        for snapshot in [pinned, catalog.oracle().read_ts()] {
            let keys: Vec<(usize, Value)> = probes.iter().map(|&(c, kind, v)| (c, probe_key(kind, v))).collect();
            let probed = probe
                .execute_batch(
                    &keys
                        .iter()
                        .enumerate()
                        .map(|(q, (c, key))| ProbeQuery::key(QueryId(q as u32), *c, key.clone()).at_snapshot(Some(snapshot)))
                        .collect::<Vec<_>>(),
                )
                .unwrap();
            let scanned = scan
                .execute_batch(
                    &keys
                        .iter()
                        .enumerate()
                        .map(|(q, (c, key))| {
                            ScanQuery::new(QueryId(q as u32), Expr::col(*c).eq(Expr::Literal(key.clone())))
                                .at_snapshot(Some(snapshot))
                        })
                        .collect::<Vec<_>>(),
                )
                .unwrap();
            for (q, (c, key)) in keys.iter().enumerate() {
                let rows_of = |tuples: &[QTuple]| -> Vec<String> {
                    let mut rows: Vec<String> = tuples
                        .iter()
                        .filter(|t| t.queries.contains(QueryId(q as u32)))
                        .map(|t| format!("{:?}", t.tuple))
                        .collect();
                    rows.sort();
                    rows
                };
                let want = rows_of(&scanned);
                prop_assert_eq!(rows_of(&probed), want.clone(), "column {} = {:?}", c, key);
                if key.is_null() {
                    prop_assert!(want.is_empty());
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Storage: a ClockScan pass equals evaluating every visible row
// ---------------------------------------------------------------------------

/// `e` with every `Int` literal replaced by the equal `Float`: `==` to `e`
/// as an expression, yet `ID / 2` and `ID / 2.0` divide differently.
fn float_twin(e: &shareddb::common::Expr) -> shareddb::common::Expr {
    use shareddb::common::Expr;
    match e {
        Expr::Literal(Value::Int(i)) => Expr::Literal(Value::Float(*i as f64)),
        Expr::Binary { op, left, right } => float_twin(left).binary(*op, float_twin(right)),
        Expr::Like {
            expr,
            pattern,
            negated,
        } => Expr::Like {
            expr: Box::new(float_twin(expr)),
            pattern: pattern.clone(),
            negated: *negated,
        },
        other => other.clone(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn clockscan_pass_equals_evaluating_every_visible_row(
        rows in proptest::collection::vec((0u8..4, 0i64..32, 0usize..5), 8..80),
        writes in proptest::collection::vec((0u8..4, 0i64..80, (0u8..4, 0i64..32, 0usize..5)), 0..16),
        queries in proptest::collection::vec((0u8..10, 0u8..6, 0usize..80, 0usize..5), 1..5),
    ) {
        use shareddb::common::{BinaryOp, DataType, Expr, Tuple};
        use shareddb::storage::{ClockScan, IndexDef, ScanQuery, SegmentView, TableDef, UpdateOp};
        const TEXTS: [&str; 5] = ["a", "ab", "b", "ba", "c"];
        const OPS: [BinaryOp; 5] =
            [BinaryOp::Eq, BinaryOp::Lt, BinaryOp::LtEq, BinaryOp::Gt, BinaryOp::GtEq];
        // ID (pk), N (indexed; NULL, Int, Date or Float), S (indexed text or
        // NULL), U (N's unindexed twin).
        let catalog = Catalog::new();
        catalog
            .create_table(
                TableDef::new("T")
                    .column("ID", DataType::Int)
                    .nullable_column("N", DataType::Int)
                    .nullable_column("S", DataType::Text)
                    .nullable_column("U", DataType::Int)
                    .primary_key(&["ID"]),
            )
            .unwrap();
        for column in ["N", "S"] {
            catalog
                .create_index(IndexDef { name: format!("T_{column}"), table: "T".into(), column: column.into() })
                .unwrap();
        }
        let payload = |(kind, v, text): (u8, i64, usize)| -> Vec<Value> {
            let n = column_value(DataType::Int, kind, v);
            let s = if kind == 0 { Value::Null } else { Value::text(TEXTS[text]) };
            vec![n.clone(), s, n]
        };
        let row = |id: i64, cells: (u8, i64, usize)| {
            let mut values = vec![Value::Int(id)];
            values.extend(payload(cells));
            Tuple::new(values)
        };
        catalog
            .bulk_load("T", rows.iter().enumerate().map(|(id, &cells)| row(id as i64, cells)).collect())
            .unwrap();
        // Every write commits on its own; the pinned snapshot sits halfway.
        let mut pinned = catalog.oracle().read_ts();
        for (i, &(action, id, cells)) in writes.iter().enumerate() {
            let op = match action {
                0 => UpdateOp::Delete { predicate: Expr::col(0).eq(Expr::lit(id)) },
                1 => UpdateOp::Insert { values: row(100 + i as i64, cells) },
                _ => UpdateOp::Update {
                    assignments: payload(cells).into_iter().enumerate().map(|(c, v)| (c + 1, Expr::Literal(v))).collect(),
                    predicate: Expr::col(0).eq(Expr::lit(id)),
                },
            };
            catalog.apply_batch(&[("T".into(), op)]).unwrap();
            if i == writes.len() / 2 {
                pinned = catalog.oracle().read_ts();
            }
        }
        // Predicates: indexed comparisons with mixed-type and NULL literals
        // (both ways round), text comparisons, a LIKE residual, an
        // unindexed-only comparison, an `ID / 2` conjunct, exact duplicates
        // and `Int`-to-`Float` twins of the previous predicate. Literals
        // are near a loaded row's value, so ranges of every selectivity and
        // equalities that hit both come up.
        let mut predicates: Vec<Expr> = Vec::new();
        for &(shape, kind, pick, text) in &queries {
            let v = rows[pick % rows.len()].1;
            let literal = Expr::Literal(probe_key(kind, v));
            let op = OPS[text];
            let indexed = Expr::col(1).binary(op, literal.clone());
            let predicate = match (shape, predicates.last()) {
                (0 | 1, _) => indexed,
                (2, _) => literal.binary(op, Expr::col(1)),
                (3, _) => {
                    let literal = if kind % 2 == 1 { Expr::lit(TEXTS[v as usize % 5]) } else { literal };
                    Expr::col(2).binary(op, literal)
                }
                (4, _) => indexed.and(Expr::col(2).like(Expr::lit("a%"))),
                (5, _) => Expr::col(3).binary(op, literal),
                (6, _) => indexed.and(Expr::col(0).binary(BinaryOp::Div, Expr::lit(2i64)).eq(Expr::lit(v))),
                (7 | 8, Some(last)) => last.clone(),
                (_, Some(last)) => float_twin(last),
                (_, None) => indexed,
            };
            predicates.push(predicate);
        }
        let table = catalog.table("T").unwrap();
        let scan = ClockScan::new(table.clone(), catalog.oracle());
        let views = [None, Some((0, 2)), Some((1, 2)), Some((2, 3))];
        for snapshot in [pinned, catalog.oracle().read_ts()] {
            let batch: Vec<ScanQuery> = predicates
                .iter()
                .enumerate()
                .map(|(q, p)| ScanQuery::new(QueryId(q as u32), p.clone()).at_snapshot(Some(snapshot)))
                .collect();
            for view in views {
                let view = view.map(|(index, of)| SegmentView { index, of, key_columns: vec![0] });
                let got: Vec<(String, Vec<u32>)> = scan
                    .execute_batch_segmented(&batch, view.as_ref())
                    .unwrap()
                    .iter()
                    .map(|t| (format!("{:?}", t.tuple), t.queries.iter().map(|q| q.raw()).collect()))
                    .collect();
                let guard = table.read();
                let want: Vec<(String, Vec<u32>)> = guard
                    .scan(snapshot)
                    .filter(|(_, r)| view.as_ref().is_none_or(|view| view.contains(r)))
                    .filter_map(|(_, r)| {
                        let ids: Vec<u32> = (0..predicates.len() as u32)
                            .filter(|&q| predicates[q as usize].eval_predicate(r).unwrap())
                            .collect();
                        (!ids.is_empty()).then(|| (format!("{r:?}"), ids))
                    })
                    .collect();
                prop_assert_eq!(got, want, "predicates {:?}, view {:?}", predicates, view);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// LIKE: the linear matcher agrees with a dynamic-programming reference
// ---------------------------------------------------------------------------

/// `s LIKE pattern` by the textbook O(|s| · |pattern|) table: `m[i][j]` is
/// true when the first `i` characters of `s` match the first `j` of
/// `pattern`.
fn like_reference(s: &[char], pattern: &[char]) -> bool {
    let mut m = vec![vec![false; pattern.len() + 1]; s.len() + 1];
    m[0][0] = true;
    for i in 0..=s.len() {
        for j in 1..=pattern.len() {
            m[i][j] = match pattern[j - 1] {
                '%' => m[i][j - 1] || (i > 0 && m[i - 1][j]),
                '_' => i > 0 && m[i - 1][j - 1],
                c => i > 0 && s[i - 1] == c && m[i - 1][j - 1],
            };
        }
    }
    m[s.len()][pattern.len()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]
    #[test]
    fn like_match_equals_dynamic_programming_reference(
        s in proptest::collection::vec(0usize..5, 0..9),
        pattern in proptest::collection::vec(0usize..5, 0..7),
    ) {
        const ALPHABET: [char; 5] = ['a', 'b', 'é', '%', '_'];
        let s: Vec<char> = s.into_iter().map(|i| ALPHABET[i]).collect();
        let pattern: Vec<char> = pattern.into_iter().map(|i| ALPHABET[i]).collect();
        let (text, pat): (String, String) = (s.iter().collect(), pattern.iter().collect());
        prop_assert_eq!(
            shareddb::common::expr::like_match(&text, &pat),
            like_reference(&s, &pattern),
            "{:?} LIKE {:?}",
            text,
            pat
        );
    }
}
