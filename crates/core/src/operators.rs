//! The shared relational operators.
//!
//! Every operator processes **one batch per cycle**: it receives the tuples of
//! all its inputs for the current batch (already in the NF² data-query model)
//! plus the per-query activations, and produces the output tuples of the batch
//! (Algorithm 1 of the paper; the engine drives the cycles and the channels).
//!
//! Operators are implemented as pure functions over `(activations, inputs)` so
//! they can be unit-tested without threads. The engine wraps them in operator
//! threads (see [`crate::engine`]). Inputs are borrowed: every consumer of a
//! producer reads the producer's one output vector, and the rows it keeps are
//! reference-counted [`Tuple`]s, so passing a row on copies no values.
//!
//! The unifying rule (Section 3.3/3.4): each operator restricts incoming
//! tuples to the queries *activated at this operator* in the current batch,
//! performs its relational work **once** over the union of all interesting
//! tuples, and annotates outputs with the queries they belong to. Joins amend
//! their predicate with the query-set intersection, which prevents tuples of
//! unrelated queries from combining.

use crate::batch::Activation;
use crate::plan::{AggregateSpec, OperatorSpec};
use shareddb_common::agg::{Accumulator, AggregateFunction};
use shareddb_common::sort::compare_tuples;
use shareddb_common::{Error, Expr, QTuple, QueryId, QuerySet, Result, SortKey, Tuple, Value};
use shareddb_storage::mvcc::Snapshot;
use shareddb_storage::Catalog;
use std::collections::HashMap;

/// Context handed to operator execution: the catalog (for index nested-loops
/// joins that probe base tables) and the snapshot of the current batch.
pub struct ExecContext<'a> {
    /// The storage catalog.
    pub catalog: &'a Catalog,
    /// Snapshot all storage reads of this batch use.
    pub snapshot: Snapshot,
}

/// Executes one non-storage operator over the inputs of the current batch.
///
/// `inputs[i]` holds the tuples produced by the operator's `i`-th input for
/// this batch. Storage operators (scans, probes) are executed by
/// [`crate::storage_ops`] instead.
pub fn execute_operator(
    spec: &OperatorSpec,
    activations: &[(QueryId, Activation)],
    inputs: &[&[QTuple]],
    ctx: &ExecContext<'_>,
) -> Result<Vec<QTuple>> {
    match spec {
        OperatorSpec::TableScan { .. } | OperatorSpec::IndexProbe { .. } => Err(Error::Internal(
            "storage operators are executed by the storage layer".into(),
        )),
        OperatorSpec::Filter => execute_filter(activations, one_input(inputs)?),
        OperatorSpec::HashJoin {
            build_key,
            probe_key,
        } => {
            let (build, probe) = two_inputs(inputs);
            execute_hash_join(activations, build, probe, *build_key, *probe_key)
        }
        OperatorSpec::NestedLoopJoin => {
            let (build, probe) = two_inputs(inputs);
            execute_nested_loop_join(activations, build, probe)
        }
        OperatorSpec::IndexNlJoin {
            table,
            outer_key,
            inner_column,
        } => execute_index_nl_join(
            activations,
            one_input(inputs)?,
            table,
            *outer_key,
            *inner_column,
            ctx,
        ),
        OperatorSpec::Sort { keys } => execute_sort(activations, one_input(inputs)?, keys),
        OperatorSpec::TopN { keys } => execute_top_n(activations, one_input(inputs)?, keys),
        OperatorSpec::GroupBy {
            group_columns,
            aggregates,
        } => execute_group_by(activations, one_input(inputs)?, group_columns, aggregates),
        OperatorSpec::Distinct => execute_distinct(activations, one_input(inputs)?),
        OperatorSpec::Union => execute_union(activations, inputs),
    }
}

fn one_input<'a>(inputs: &[&'a [QTuple]]) -> Result<&'a [QTuple]> {
    match inputs {
        [input] => Ok(input),
        _ => Err(Error::Internal(format!(
            "operator expected exactly one input, got {}",
            inputs.len()
        ))),
    }
}

/// The build and probe inputs of a join; a missing input is empty.
fn two_inputs<'a>(inputs: &[&'a [QTuple]]) -> (&'a [QTuple], &'a [QTuple]) {
    let input = |i: usize| inputs.get(i).copied().unwrap_or_default();
    (input(0), input(1))
}

/// The set of queries activated at this operator in the current batch.
fn active_set(activations: &[(QueryId, Activation)]) -> QuerySet {
    activations.iter().map(|(q, _)| *q).collect()
}

/// Restricts a tuple to the queries activated at this operator; returns `None`
/// when no activated query is interested.
fn restrict(tuple: &QTuple, active: &QuerySet) -> Option<QTuple> {
    let queries = tuple.queries.intersect(active);
    if queries.is_empty() {
        None
    } else {
        Some(QTuple::new(tuple.tuple.clone(), queries))
    }
}

// ---------------------------------------------------------------------------
// Filter
// ---------------------------------------------------------------------------

fn execute_filter(activations: &[(QueryId, Activation)], input: &[QTuple]) -> Result<Vec<QTuple>> {
    let active = active_set(activations);
    // query -> residual predicate
    let mut predicates: HashMap<QueryId, &Expr> = HashMap::new();
    for (q, a) in activations {
        if let Activation::Filter { predicate } = a {
            predicates.insert(*q, predicate);
        }
    }
    let mut out = Vec::new();
    for tuple in input {
        let Some(restricted) = restrict(tuple, &active) else {
            continue;
        };
        let mut keep = QuerySet::new();
        for q in restricted.queries.iter() {
            match predicates.get(&q) {
                Some(p) => {
                    if p.eval_predicate(&restricted.tuple)? {
                        keep.insert(q);
                    }
                }
                // A query that participates without a predicate keeps the
                // tuple unconditionally.
                None => {
                    keep.insert(q);
                }
            }
        }
        if !keep.is_empty() {
            out.push(QTuple::new(restricted.tuple, keep));
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Hash join
// ---------------------------------------------------------------------------

fn execute_hash_join(
    activations: &[(QueryId, Activation)],
    build: &[QTuple],
    probe: &[QTuple],
    build_key: usize,
    probe_key: usize,
) -> Result<Vec<QTuple>> {
    let active = active_set(activations);
    // Build phase: hash the (restricted) build side on its join key.
    let mut table: HashMap<Value, Vec<QTuple>> = HashMap::new();
    for tuple in build {
        if let Some(restricted) = restrict(tuple, &active) {
            let key = restricted.tuple[build_key].clone();
            if key.is_null() {
                continue; // NULL never joins
            }
            table.entry(key).or_default().push(restricted);
        }
    }
    // Probe phase: the effective join predicate is
    // `build_key = probe_key AND build.query_id ∩ probe.query_id ≠ ∅`.
    let mut out = Vec::new();
    for tuple in probe {
        let Some(restricted) = restrict(tuple, &active) else {
            continue;
        };
        let key = &restricted.tuple[probe_key];
        if key.is_null() {
            continue;
        }
        if let Some(matches) = table.get(key) {
            for build_tuple in matches {
                if let Some(joined) = build_tuple.join(&restricted) {
                    out.push(joined);
                }
            }
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Nested-loop join (cross product)
// ---------------------------------------------------------------------------

/// Tuples per block of the block-nested loop. Each outer block is combined
/// with the whole inner side before the next outer block starts, keeping the
/// working set of the quadratic pass cache-sized while still performing it
/// once for *all* statements of the batch.
const NL_BLOCK: usize = 256;

fn execute_nested_loop_join(
    activations: &[(QueryId, Activation)],
    build: &[QTuple],
    probe: &[QTuple],
) -> Result<Vec<QTuple>> {
    let active = active_set(activations);
    // Restrict both sides once; the pairing below only has to intersect the
    // two per-tuple query sets (the shared-join rule of Section 3.3 with the
    // key predicate dropped: `build.query_id ∩ probe.query_id ≠ ∅`).
    let build: Vec<QTuple> = build.iter().filter_map(|t| restrict(t, &active)).collect();
    let probe: Vec<QTuple> = probe.iter().filter_map(|t| restrict(t, &active)).collect();
    let mut out = Vec::new();
    for build_block in build.chunks(NL_BLOCK) {
        for probe_tuple in &probe {
            for build_tuple in build_block {
                if let Some(joined) = build_tuple.join(probe_tuple) {
                    out.push(joined);
                }
            }
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Index nested-loops join
// ---------------------------------------------------------------------------

fn execute_index_nl_join(
    activations: &[(QueryId, Activation)],
    outer: &[QTuple],
    table: &str,
    outer_key: usize,
    inner_column: usize,
    ctx: &ExecContext<'_>,
) -> Result<Vec<QTuple>> {
    let active = active_set(activations);
    let handle = ctx.catalog.table(table)?;
    let inner = handle.read();
    let mut out = Vec::new();
    for tuple in outer {
        let Some(restricted) = restrict(tuple, &active) else {
            continue;
        };
        let key = &restricted.tuple[outer_key];
        if key.is_null() {
            continue;
        }
        for (_, inner_row) in inner.lookup_eq(inner_column, key, ctx.snapshot) {
            out.push(QTuple::new(
                restricted.tuple.concat(inner_row),
                restricted.queries.clone(),
            ));
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Sort / Top-N
// ---------------------------------------------------------------------------

fn execute_sort(
    activations: &[(QueryId, Activation)],
    input: &[QTuple],
    keys: &[SortKey],
) -> Result<Vec<QTuple>> {
    let active = active_set(activations);
    let mut tuples: Vec<QTuple> = input.iter().filter_map(|t| restrict(t, &active)).collect();
    // One shared sort over the union of all interested tuples (Figure 4).
    tuples.sort_by(|a, b| compare_tuples(&a.tuple, &b.tuple, keys));
    Ok(tuples)
}

/// Shared Top-N: the result of sorting every interesting tuple once and then
/// keeping, per query, its first `limit` rows — computed without sorting
/// every row. Each query selects its first `limit` rows in (sort keys,
/// input position) order, the order a stable sort produces, and only the
/// union of the selections is sorted and emitted.
fn execute_top_n(
    activations: &[(QueryId, Activation)],
    input: &[QTuple],
    keys: &[SortKey],
) -> Result<Vec<QTuple>> {
    let active = active_set(activations);
    let limits: HashMap<QueryId, usize> = activations
        .iter()
        .filter_map(|(q, a)| match a {
            Activation::TopN { limit } => Some((*q, *limit)),
            _ => None,
        })
        .collect();
    let mut rows_of: HashMap<QueryId, Vec<usize>> = HashMap::new();
    for (position, tuple) in input.iter().enumerate() {
        for q in tuple.queries.iter().filter(|q| active.contains(*q)) {
            rows_of.entry(q).or_default().push(position);
        }
    }
    let order = |a: &usize, b: &usize| {
        compare_tuples(&input[*a].tuple, &input[*b].tuple, keys).then(a.cmp(b))
    };
    // Phase 1 (per query): select the query's first `limit` rows.
    let mut selected: HashMap<usize, QuerySet> = HashMap::new();
    for (q, mut rows) in rows_of {
        let limit = limits.get(&q).copied().unwrap_or(usize::MAX);
        if rows.len() > limit {
            if limit > 0 {
                rows.select_nth_unstable_by(limit - 1, order);
            }
            rows.truncate(limit);
        }
        for position in rows {
            selected.entry(position).or_default().insert(q);
        }
    }
    // Phase 2 (shared): one sort over the union of the selections.
    let mut selected: Vec<(usize, QuerySet)> = selected.into_iter().collect();
    selected.sort_by(|(a, _), (b, _)| order(a, b));
    Ok(selected
        .into_iter()
        .map(|(position, queries)| QTuple::new(input[position].tuple.clone(), queries))
        .collect())
}

// ---------------------------------------------------------------------------
// Group-by
// ---------------------------------------------------------------------------

fn execute_group_by(
    activations: &[(QueryId, Activation)],
    input: &[QTuple],
    group_columns: &[usize],
    aggregates: &[AggregateSpec],
) -> Result<Vec<QTuple>> {
    let active = active_set(activations);
    let mut having: HashMap<QueryId, Option<&Expr>> = HashMap::new();
    // Queries in partial-aggregation mode (fanned-out group-by roots): their
    // AVG output columns carry the partial sum, with one hidden count column
    // per AVG appended to the row so the cluster merge step can recombine
    // exact averages across partitions.
    let mut partials: HashMap<QueryId, bool> = HashMap::new();
    for (q, a) in activations {
        if let Activation::Having { predicate, partial } = a {
            having.insert(*q, predicate.as_ref());
            partials.insert(*q, *partial);
        }
    }

    // Phase 1 (shared): group all interesting tuples once, regardless of which
    // query they belong to.
    struct GroupState {
        key: Vec<Value>,
        /// Per query: one accumulator per aggregate.
        per_query: HashMap<QueryId, Vec<Accumulator>>,
    }
    let mut groups: HashMap<Vec<Value>, GroupState> = HashMap::new();
    for tuple in input {
        let Some(restricted) = restrict(tuple, &active) else {
            continue;
        };
        let key: Vec<Value> = group_columns
            .iter()
            .map(|&c| restricted.tuple[c].clone())
            .collect();
        let state = groups.entry(key.clone()).or_insert_with(|| GroupState {
            key,
            per_query: HashMap::new(),
        });
        // Phase 2 (per query): aggregation state is per query because each
        // query may aggregate a different subset of the group.
        for q in restricted.queries.iter() {
            let accumulators = state.per_query.entry(q).or_insert_with(|| {
                aggregates
                    .iter()
                    .map(|a| a.function.accumulator())
                    .collect()
            });
            for (acc, spec) in accumulators.iter_mut().zip(aggregates) {
                acc.update(&restricted.tuple[spec.column])?;
            }
        }
    }

    // Emit one output row per (group, query), applying the per-query HAVING.
    let mut states: Vec<&GroupState> = groups.values().collect();
    states.sort_by(|a, b| a.key.cmp(&b.key));
    let mut out = Vec::new();
    for state in states {
        let mut queries: Vec<QueryId> = state.per_query.keys().copied().collect();
        queries.sort_unstable();
        for q in queries {
            let accumulators = &state.per_query[&q];
            let partial = partials.get(&q).copied().unwrap_or(false);
            let mut values = state.key.clone();
            if partial {
                values.extend(accumulators.iter().map(|a| {
                    if a.function() == AggregateFunction::Avg {
                        a.partial_sum()
                    } else {
                        a.finish()
                    }
                }));
                // Hidden AVG count columns, in aggregate order.
                values.extend(
                    accumulators
                        .iter()
                        .filter(|a| a.function() == AggregateFunction::Avg)
                        .map(|a| Value::Int(a.count() as i64)),
                );
            } else {
                values.extend(accumulators.iter().map(|a| a.finish()));
            }
            let row = Tuple::new(values);
            // HAVING evaluates over *final* aggregate values; a query in
            // partial mode ships partial groups, so its predicate is applied
            // after recombination (the cluster merge), not here.
            if !partial {
                if let Some(Some(pred)) = having.get(&q) {
                    if !pred.eval_predicate(&row)? {
                        continue;
                    }
                }
            }
            out.push(QTuple::new(row, QuerySet::singleton(q)));
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Distinct / Union
// ---------------------------------------------------------------------------

fn execute_distinct(
    activations: &[(QueryId, Activation)],
    input: &[QTuple],
) -> Result<Vec<QTuple>> {
    let active = active_set(activations);
    let mut seen: HashMap<Tuple, QuerySet> = HashMap::new();
    let mut order: Vec<Tuple> = Vec::new();
    for tuple in input {
        let Some(restricted) = restrict(tuple, &active) else {
            continue;
        };
        match seen.get_mut(&restricted.tuple) {
            Some(set) => set.union_in_place(&restricted.queries),
            None => {
                order.push(restricted.tuple.clone());
                seen.insert(restricted.tuple.clone(), restricted.queries);
            }
        }
    }
    Ok(order
        .into_iter()
        .map(|t| {
            let queries = seen.remove(&t).unwrap_or_default();
            QTuple::new(t, queries)
        })
        .collect())
}

fn execute_union(
    activations: &[(QueryId, Activation)],
    inputs: &[&[QTuple]],
) -> Result<Vec<QTuple>> {
    let active = active_set(activations);
    let mut out = Vec::new();
    for input in inputs {
        for tuple in *input {
            if let Some(restricted) = restrict(tuple, &active) {
                out.push(restricted);
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use shareddb_common::agg::AggregateFunction;
    use shareddb_common::tuple;
    use shareddb_storage::TableDef;

    fn ctx(catalog: &Catalog) -> ExecContext<'_> {
        ExecContext {
            catalog,
            snapshot: catalog.oracle().read_ts(),
        }
    }

    fn qt(values: Tuple, queries: &[u32]) -> QTuple {
        QTuple::new(values, queries.iter().copied().collect())
    }

    fn participate(ids: &[u32]) -> Vec<(QueryId, Activation)> {
        ids.iter()
            .map(|&i| (QueryId(i), Activation::Participate))
            .collect()
    }

    #[test]
    fn filter_applies_per_query_predicates() {
        let catalog = Catalog::new();
        let activations = vec![
            (
                QueryId(1),
                Activation::Filter {
                    predicate: Expr::col(1).like(Expr::lit("%DB%")),
                },
            ),
            (
                QueryId(2),
                Activation::Filter {
                    predicate: Expr::col(1).like(Expr::lit("%Paper%")),
                },
            ),
        ];
        let input = vec![
            qt(tuple![1i64, "SharedDB Paper"], &[1, 2, 9]),
            qt(tuple![2i64, "Another Paper"], &[1, 2]),
            qt(tuple![3i64, "Unrelated"], &[1, 2]),
        ];
        let out = execute_operator(
            &OperatorSpec::Filter,
            &activations,
            &[&input],
            &ctx(&catalog),
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        // Row 1 satisfies both; query 9 is not active here and is dropped.
        assert_eq!(out[0].queries, [1u32, 2].into_iter().collect());
        // Row 2 satisfies only query 2.
        assert_eq!(out[1].queries, [2u32].into_iter().collect());
    }

    #[test]
    fn hash_join_amends_predicate_with_query_sets() {
        let catalog = Catalog::new();
        // Figure 3: an R tuple only relevant for Q1 must not join an S tuple
        // only relevant for Q2, even when the keys match.
        let build = vec![
            qt(tuple![1i64, "r1"], &[1]),
            qt(tuple![2i64, "r2"], &[1, 2]),
        ];
        let probe = vec![
            qt(tuple![1i64, "s1"], &[2]),
            qt(tuple![2i64, "s2"], &[2]),
            qt(tuple![2i64, "s3"], &[1]),
            qt(tuple![3i64, "s4"], &[1, 2]),
        ];
        let out = execute_operator(
            &OperatorSpec::HashJoin {
                build_key: 0,
                probe_key: 0,
            },
            &participate(&[1, 2]),
            &[&build, &probe],
            &ctx(&catalog),
        )
        .unwrap();
        // key 1: R{1} x S{2} -> empty intersection, no output.
        // key 2: R{1,2} x S{2} -> {2}; R{1,2} x S{1} -> {1}.
        assert_eq!(out.len(), 2);
        assert!(out
            .iter()
            .any(|t| t.tuple[3] == Value::text("s2") && t.queries == [2u32].into_iter().collect()));
        assert!(out
            .iter()
            .any(|t| t.tuple[3] == Value::text("s3") && t.queries == [1u32].into_iter().collect()));
    }

    #[test]
    fn hash_join_null_keys_never_match() {
        let catalog = Catalog::new();
        let build = vec![qt(tuple![Value::Null, "r"], &[1])];
        let probe = vec![qt(tuple![Value::Null, "s"], &[1])];
        let out = execute_operator(
            &OperatorSpec::HashJoin {
                build_key: 0,
                probe_key: 0,
            },
            &participate(&[1]),
            &[&build, &probe],
            &ctx(&catalog),
        )
        .unwrap();
        assert!(out.is_empty());
    }

    /// The cross-product operator combines every pair whose query sets
    /// intersect — and only those pairs (the shared-join rule without the
    /// key predicate).
    #[test]
    fn nested_loop_join_is_a_query_set_aware_cross_product() {
        let catalog = Catalog::new();
        let build = vec![
            qt(tuple![1i64, "r1"], &[1]),
            qt(tuple![2i64, "r2"], &[1, 2]),
        ];
        let probe = vec![qt(tuple![10i64], &[2]), qt(tuple![20i64], &[1, 2])];
        let out = execute_operator(
            &OperatorSpec::NestedLoopJoin,
            &participate(&[1, 2]),
            &[&build, &probe],
            &ctx(&catalog),
        )
        .unwrap();
        // r1×10 has empty intersection; the other three pairs survive.
        assert_eq!(out.len(), 3);
        for t in &out {
            assert_eq!(t.tuple.len(), 3);
        }
        assert!(out
            .iter()
            .any(|t| t.tuple[1] == Value::text("r1") && t.queries == [1u32].into_iter().collect()));
        assert!(out.iter().any(|t| t.tuple[0] == Value::Int(2)
            && t.tuple[2] == Value::Int(10)
            && t.queries == [2u32].into_iter().collect()));
    }

    /// Blocking must not change the result: a build side wider than one
    /// block produces exactly |build| × |probe| pairs.
    #[test]
    fn nested_loop_join_blocks_cover_everything() {
        let catalog = Catalog::new();
        let n = NL_BLOCK + 17;
        let build: Vec<QTuple> = (0..n as i64).map(|i| qt(tuple![i], &[1])).collect();
        let probe = vec![qt(tuple![100i64], &[1]), qt(tuple![200i64], &[1])];
        let out = execute_operator(
            &OperatorSpec::NestedLoopJoin,
            &participate(&[1]),
            &[&build, &probe],
            &ctx(&catalog),
        )
        .unwrap();
        assert_eq!(out.len(), n * 2);
    }

    /// Partial mode defers HAVING to the merge step: partial groups must not
    /// be filtered on their (incomplete) aggregate values.
    #[test]
    fn group_by_partial_mode_defers_having() {
        let catalog = Catalog::new();
        let input = vec![
            qt(tuple!["CH", 100i64], &[1]),
            qt(tuple!["DE", 300i64], &[1]),
        ];
        let spec = OperatorSpec::GroupBy {
            group_columns: vec![0],
            aggregates: vec![AggregateSpec {
                function: AggregateFunction::Sum,
                column: 1,
                output_name: "S".into(),
            }],
        };
        // HAVING SUM > 200 would drop CH locally; in partial mode another
        // partition may complete the group, so both rows must ship.
        let having = Some(Expr::col(1).gt(Expr::lit(200i64)));
        let partial = vec![(
            QueryId(1),
            Activation::Having {
                predicate: having.clone(),
                partial: true,
            },
        )];
        let out = execute_operator(&spec, &partial, &[&input], &ctx(&catalog)).unwrap();
        assert_eq!(out.len(), 2, "partial mode filtered partial groups");
        // The same activation without partial mode filters as usual.
        let final_mode = vec![(
            QueryId(1),
            Activation::Having {
                predicate: having,
                partial: false,
            },
        )];
        let out = execute_operator(&spec, &final_mode, &[&input], &ctx(&catalog)).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].tuple[0], Value::text("DE"));
    }

    #[test]
    fn index_nl_join_probes_base_table() {
        let catalog = Catalog::new();
        catalog
            .create_table(
                TableDef::new("ITEM")
                    .column("I_ID", shareddb_common::DataType::Int)
                    .column("I_TITLE", shareddb_common::DataType::Text)
                    .primary_key(&["I_ID"]),
            )
            .unwrap();
        catalog
            .bulk_load(
                "ITEM",
                (0..10i64).map(|i| tuple![i, format!("title{i}")]).collect(),
            )
            .unwrap();
        // Outer tuples reference items 3 and 7.
        let outer = vec![
            qt(tuple![100i64, 3i64], &[1]),
            qt(tuple![101i64, 7i64], &[1, 2]),
            qt(tuple![102i64, 999i64], &[2]), // no match
        ];
        let out = execute_operator(
            &OperatorSpec::IndexNlJoin {
                table: "ITEM".into(),
                outer_key: 1,
                inner_column: 0,
            },
            &participate(&[1, 2]),
            &[&outer],
            &ctx(&catalog),
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].tuple.len(), 4);
        assert_eq!(out[0].tuple[3], Value::text("title3"));
        assert_eq!(out[1].queries, [1u32, 2].into_iter().collect());
    }

    #[test]
    fn shared_sort_matches_figure_4() {
        let catalog = Catalog::new();
        // USERS(Name, Account, Birthdate) — queries A=1 and B=2.
        let input = vec![
            qt(tuple!["John Smith", 3000i64, 19800305i64], &[1, 2]),
            qt(tuple!["Kate Johnson", 800i64, 19760411i64], &[]),
            qt(tuple!["Bill Harisson", 1230i64, 19780302i64], &[2]),
            qt(tuple!["Nick Lee", 540i64, 19820209i64], &[1]),
            qt(tuple!["James Meyer", 2300i64, 19810309i64], &[1, 2]),
        ];
        let out = execute_operator(
            &OperatorSpec::Sort {
                keys: vec![SortKey::asc(2)],
            },
            &participate(&[1, 2]),
            &[&input],
            &ctx(&catalog),
        )
        .unwrap();
        // Kate is dropped (no interested query); the rest is sorted by date.
        let names: Vec<String> = out
            .iter()
            .map(|t| t.tuple[0].as_text().unwrap().to_string())
            .collect();
        assert_eq!(
            names,
            vec!["Bill Harisson", "John Smith", "James Meyer", "Nick Lee"]
        );
        assert_eq!(out[0].queries, [2u32].into_iter().collect());
        assert_eq!(out[1].queries, [1u32, 2].into_iter().collect());
    }

    #[test]
    fn top_n_shares_sort_and_limits_per_query() {
        let catalog = Catalog::new();
        let input: Vec<QTuple> = (0..20i64)
            .map(|i| {
                let subscribers: &[u32] = if i % 2 == 0 { &[1, 2] } else { &[1] };
                qt(tuple![i], subscribers)
            })
            .collect();
        let activations = vec![
            (QueryId(1), Activation::TopN { limit: 3 }),
            (QueryId(2), Activation::TopN { limit: 5 }),
        ];
        let out = execute_operator(
            &OperatorSpec::TopN {
                keys: vec![SortKey::desc(0)],
            },
            &activations,
            &[&input],
            &ctx(&catalog),
        )
        .unwrap();
        let q1: Vec<i64> = out
            .iter()
            .filter(|t| t.queries.contains(QueryId(1)))
            .map(|t| t.tuple[0].as_int().unwrap())
            .collect();
        let q2: Vec<i64> = out
            .iter()
            .filter(|t| t.queries.contains(QueryId(2)))
            .map(|t| t.tuple[0].as_int().unwrap())
            .collect();
        assert_eq!(q1, vec![19, 18, 17]);
        assert_eq!(q2, vec![18, 16, 14, 12, 10]);
    }

    /// Top-N equals sorting every interesting row once (stably) and keeping
    /// each query's first `limit` rows, ties at the cut included, for
    /// different limits per query and a participating query without one.
    #[test]
    fn top_n_equals_stable_sort_then_per_query_limit() {
        let catalog = Catalog::new();
        let keys = vec![SortKey::desc(1)];
        // Few distinct sort values: many ties, broken by input position.
        let input: Vec<QTuple> = (0..60i64)
            .map(|i| {
                let subscribers: Vec<u32> =
                    (1..=4u32).filter(|q| (i + *q as i64) % 3 != 0).collect();
                qt(tuple![i, (i * 7) % 5], &subscribers)
            })
            .collect();
        let activations = vec![
            (QueryId(1), Activation::TopN { limit: 0 }),
            (QueryId(2), Activation::TopN { limit: 4 }),
            (QueryId(3), Activation::TopN { limit: 100 }),
            (QueryId(4), Activation::Participate),
        ];
        let out = execute_operator(
            &OperatorSpec::TopN { keys: keys.clone() },
            &activations,
            &[&input],
            &ctx(&catalog),
        )
        .unwrap();
        let mut sorted: Vec<&QTuple> = input.iter().collect();
        sorted.sort_by(|a, b| compare_tuples(&a.tuple, &b.tuple, &keys));
        for (q, limit) in [(1u32, 0usize), (2, 4), (3, 100), (4, usize::MAX)] {
            let want: Vec<i64> = sorted
                .iter()
                .filter(|t| t.queries.contains(QueryId(q)))
                .take(limit)
                .map(|t| t.tuple[0].as_int().unwrap())
                .collect();
            let got: Vec<i64> = out
                .iter()
                .filter(|t| t.queries.contains(QueryId(q)))
                .map(|t| t.tuple[0].as_int().unwrap())
                .collect();
            assert_eq!(got, want, "query {q}");
        }
        // Rows no query keeps are not emitted.
        assert!(out.iter().all(|t| !t.queries.is_empty()));
    }

    #[test]
    fn group_by_shared_grouping_per_query_aggregates() {
        let catalog = Catalog::new();
        // (COUNTRY, ACCOUNT): query 1 sees all rows, query 2 only some.
        let input = vec![
            qt(tuple!["CH", 100i64], &[1, 2]),
            qt(tuple!["CH", 200i64], &[1]),
            qt(tuple!["DE", 300i64], &[1, 2]),
            qt(tuple!["DE", 400i64], &[2]),
        ];
        let spec = OperatorSpec::GroupBy {
            group_columns: vec![0],
            aggregates: vec![
                AggregateSpec {
                    function: AggregateFunction::Sum,
                    column: 1,
                    output_name: "SUM_ACCOUNT".into(),
                },
                AggregateSpec {
                    function: AggregateFunction::Count,
                    column: 1,
                    output_name: "CNT".into(),
                },
            ],
        };
        let activations = vec![
            (
                QueryId(1),
                Activation::Having {
                    predicate: None,
                    partial: false,
                },
            ),
            (
                QueryId(2),
                Activation::Having {
                    // HAVING SUM(ACCOUNT) > 150
                    predicate: Some(Expr::col(1).gt(Expr::lit(150i64))),
                    partial: false,
                },
            ),
        ];
        let out = execute_operator(&spec, &activations, &[&input], &ctx(&catalog)).unwrap();
        // Query 1: CH -> 300 (2 rows), DE -> 300 (1 row).
        // Query 2: CH -> 100 (fails HAVING), DE -> 700 (passes).
        let find = |q: u32, country: &str| {
            out.iter()
                .find(|t| t.queries.contains(QueryId(q)) && t.tuple[0] == Value::text(country))
        };
        assert_eq!(find(1, "CH").unwrap().tuple[1], Value::Int(300));
        assert_eq!(find(1, "CH").unwrap().tuple[2], Value::Int(2));
        assert_eq!(find(1, "DE").unwrap().tuple[1], Value::Int(300));
        assert!(find(2, "CH").is_none());
        assert_eq!(find(2, "DE").unwrap().tuple[1], Value::Int(700));
    }

    /// Partial-aggregation mode (fanout): AVG columns ship the partial sum
    /// with a hidden count column appended; other aggregates and non-partial
    /// queries of the same batch are untouched.
    #[test]
    fn group_by_partial_mode_ships_avg_sum_and_count() {
        let catalog = Catalog::new();
        let input = vec![
            qt(tuple!["CH", 100i64], &[1, 2]),
            qt(tuple!["CH", 200i64], &[1, 2]),
        ];
        let spec = OperatorSpec::GroupBy {
            group_columns: vec![0],
            aggregates: vec![
                AggregateSpec {
                    function: AggregateFunction::Avg,
                    column: 1,
                    output_name: "AVG_ACCOUNT".into(),
                },
                AggregateSpec {
                    function: AggregateFunction::Sum,
                    column: 1,
                    output_name: "SUM_ACCOUNT".into(),
                },
            ],
        };
        let activations = vec![
            (
                QueryId(1),
                Activation::Having {
                    predicate: None,
                    partial: true,
                },
            ),
            (
                QueryId(2),
                Activation::Having {
                    predicate: None,
                    partial: false,
                },
            ),
        ];
        let out = execute_operator(&spec, &activations, &[&input], &ctx(&catalog)).unwrap();
        let row = |q: u32| out.iter().find(|t| t.queries.contains(QueryId(q))).unwrap();
        // Partial query: [key, partial AVG sum, SUM, hidden AVG count].
        let partial = row(1);
        assert_eq!(partial.tuple.len(), 4);
        assert_eq!(partial.tuple[1], Value::Float(300.0));
        assert_eq!(partial.tuple[2], Value::Int(300));
        assert_eq!(partial.tuple[3], Value::Int(2));
        // Normal query: final values, no hidden columns.
        let normal = row(2);
        assert_eq!(normal.tuple.len(), 3);
        assert_eq!(normal.tuple[1], Value::Float(150.0));
        assert_eq!(normal.tuple[2], Value::Int(300));
    }

    #[test]
    fn distinct_merges_query_sets() {
        let catalog = Catalog::new();
        let input = vec![
            qt(tuple!["A"], &[1]),
            qt(tuple!["A"], &[2]),
            qt(tuple!["B"], &[1, 2]),
            qt(tuple!["B"], &[1]),
        ];
        let out = execute_operator(
            &OperatorSpec::Distinct,
            &participate(&[1, 2]),
            &[&input],
            &ctx(&catalog),
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].tuple, tuple!["A"]);
        assert_eq!(out[0].queries, [1u32, 2].into_iter().collect());
        assert_eq!(out[1].queries, [1u32, 2].into_iter().collect());
    }

    #[test]
    fn union_concatenates_inputs() {
        let catalog = Catalog::new();
        let a = vec![qt(tuple![1i64], &[1])];
        let b = vec![qt(tuple![2i64], &[1]), qt(tuple![3i64], &[7])];
        let out = execute_operator(
            &OperatorSpec::Union,
            &participate(&[1]),
            &[&a, &b],
            &ctx(&catalog),
        )
        .unwrap();
        // The tuple subscribed only by inactive query 7 is dropped.
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn storage_specs_rejected_here() {
        let catalog = Catalog::new();
        let err = execute_operator(
            &OperatorSpec::TableScan { table: "X".into() },
            &[],
            &[],
            &ctx(&catalog),
        )
        .unwrap_err();
        assert!(matches!(err, Error::Internal(_)));
    }

    #[test]
    fn wrong_input_arity_is_an_error() {
        let catalog = Catalog::new();
        assert!(execute_operator(&OperatorSpec::Filter, &[], &[&[], &[]], &ctx(&catalog)).is_err());
    }
}
