//! Predicate indexing: the "query-data join" of ClockScan.
//!
//! The key trick of the Crescando ClockScan algorithm (Section 4.4, [28]) is
//! to index the *query predicates* of a batch instead of the data, and to
//! treat the scan as a join between data tuples and queries. While a cycle
//! sweeps over the table, each row is probed against the predicate index to
//! find the queries that select it — instead of evaluating every query
//! predicate against every row.
//!
//! The index distinguishes three classes of per-query predicates:
//!
//! * **Equality-indexable** — the query has a conjunct `col = literal`; such
//!   queries are stored in a hash map keyed by `(col, literal)`.
//! * **Range-indexable** — the query has a conjunct `col <op> literal` with a
//!   comparison operator; such queries are grouped per column so a single
//!   value extraction serves all of them.
//! * **Residual** — everything else (LIKE-only predicates, disjunctions, ...);
//!   these are evaluated row by row, but still only once per row for the whole
//!   batch.
//!
//! In all three classes, after the candidate set is found the query's *full*
//! predicate is re-evaluated to confirm the match, so indexing is purely an
//! optimisation and never changes results.

use shareddb_common::{BinaryOp, Expr, QueryId, QuerySet, Result, Tuple, Value};
use std::collections::HashMap;

/// One query registered for a scan cycle.
#[derive(Debug, Clone)]
pub struct IndexedQuery {
    /// The id of the active query.
    pub query_id: QueryId,
    /// The full (bound, resolved) predicate of the query on this table.
    pub predicate: Expr,
}

/// An entry of the per-column range lists.
#[derive(Debug, Clone)]
struct RangeEntry {
    op: BinaryOp,
    literal: Value,
    query_idx: usize,
}

/// The predicate index for one scan cycle.
#[derive(Debug, Default)]
pub struct PredicateIndex {
    queries: Vec<IndexedQuery>,
    /// column -> (value -> indices into `queries` with an equality conjunct).
    /// Values are [`Value::sql_key`]s, so a literal finds every row value
    /// SQL `=` equates with it (`Int` against `Date`, say).
    equality: HashMap<usize, HashMap<Value, Vec<usize>>>,
    /// column -> range conjuncts on that column.
    ranges: HashMap<usize, Vec<RangeEntry>>,
    /// Indices of queries that could not be indexed at all.
    residual: Vec<usize>,
}

impl PredicateIndex {
    /// Builds the index for a batch of queries.
    pub fn build(queries: Vec<IndexedQuery>) -> Self {
        let mut index = PredicateIndex {
            queries,
            ..Default::default()
        };
        for i in 0..index.queries.len() {
            let predicate = index.queries[i].predicate.clone();
            let conjuncts = predicate.split_conjuncts();
            // Prefer an equality conjunct; fall back to a range conjunct.
            let mut eq: Option<(usize, Value)> = None;
            let mut range: Option<(usize, BinaryOp, Value)> = None;
            for c in &conjuncts {
                if let Some((col, op, lit)) = c.as_column_literal_cmp() {
                    match op {
                        BinaryOp::Eq => {
                            eq = Some((col, lit.clone()));
                            break;
                        }
                        BinaryOp::Lt | BinaryOp::LtEq | BinaryOp::Gt | BinaryOp::GtEq
                            if range.is_none() =>
                        {
                            range = Some((col, op, lit.clone()));
                        }
                        _ => {}
                    }
                }
            }
            if let Some((col, value)) = eq {
                index
                    .equality
                    .entry(col)
                    .or_default()
                    .entry(value.sql_key().into_owned())
                    .or_default()
                    .push(i);
            } else if let Some((col, op, literal)) = range {
                index.ranges.entry(col).or_default().push(RangeEntry {
                    op,
                    literal,
                    query_idx: i,
                });
            } else {
                index.residual.push(i);
            }
        }
        index
    }

    /// Number of registered queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// True when no query is registered.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Number of queries that could not use any index class (diagnostics).
    pub fn residual_count(&self) -> usize {
        self.residual.len()
    }

    /// Probes the index with one data tuple and returns the set of queries
    /// that select it.
    pub fn matching_queries(&self, tuple: &Tuple) -> Result<QuerySet> {
        // Matches are accumulated in a plain vector and turned into a sorted
        // set once at the end: a query belongs to exactly one index class, so
        // no duplicates can arise, and building the set in one pass keeps the
        // per-row cost O(k log k) even when thousands of queries match.
        let mut out: Vec<QueryId> = Vec::new();
        let verify = |idx: usize, out: &mut Vec<QueryId>| -> Result<()> {
            let q = &self.queries[idx];
            if q.predicate.eval_predicate(tuple)? {
                out.push(q.query_id);
            }
            Ok(())
        };
        // 1. Equality candidates: one hash probe per indexed column, using the
        //    row's value in that column as the key (the query-data join).
        for (col, by_value) in &self.equality {
            let Some(v) = tuple.get(*col) else { continue };
            if let Some(candidates) = by_value.get(&*v.sql_key()) {
                for &idx in candidates {
                    verify(idx, &mut out)?;
                }
            }
        }
        // 2. Range candidates.
        for (col, entries) in &self.ranges {
            let Some(v) = tuple.get(*col) else { continue };
            for entry in entries {
                let cmp = v.sql_cmp(&entry.literal);
                let hit = match (entry.op, cmp) {
                    (_, None) => false,
                    (BinaryOp::Lt, Some(o)) => o == std::cmp::Ordering::Less,
                    (BinaryOp::LtEq, Some(o)) => o != std::cmp::Ordering::Greater,
                    (BinaryOp::Gt, Some(o)) => o == std::cmp::Ordering::Greater,
                    (BinaryOp::GtEq, Some(o)) => o != std::cmp::Ordering::Less,
                    _ => false,
                };
                if hit {
                    verify(entry.query_idx, &mut out)?;
                }
            }
        }
        // 3. Residual queries are evaluated directly.
        for &idx in &self.residual {
            verify(idx, &mut out)?;
        }
        Ok(QuerySet::from_ids(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shareddb_common::tuple;

    fn q(id: u32, predicate: Expr) -> IndexedQuery {
        IndexedQuery {
            query_id: QueryId(id),
            predicate,
        }
    }

    /// The equality class finds every row value SQL `=` equates with the
    /// literal, across `Int`, `Float` and `Date`; NULL matches nothing.
    #[test]
    fn equality_literals_match_sql_equal_values_of_other_types() {
        let index = PredicateIndex::build(vec![
            q(1, Expr::col(0).eq(Expr::lit(5i64))),
            q(2, Expr::col(0).eq(Expr::Literal(Value::Date(5)))),
            q(3, Expr::col(0).eq(Expr::Literal(Value::Null))),
        ]);
        for v in [Value::Date(5), Value::Int(5), Value::Float(5.0)] {
            let m = index.matching_queries(&tuple![v]).unwrap();
            assert!(m.contains(QueryId(1)) && m.contains(QueryId(2)));
            assert!(!m.contains(QueryId(3)));
        }
        assert!(index
            .matching_queries(&tuple![Value::Null])
            .unwrap()
            .is_empty());
    }

    #[test]
    fn equality_indexed_queries() {
        // Two queries on CATEGORY (= col 1), one on ID (= col 0).
        let index = PredicateIndex::build(vec![
            q(1, Expr::col(1).eq(Expr::lit("FICTION"))),
            q(2, Expr::col(1).eq(Expr::lit("HISTORY"))),
            q(3, Expr::col(0).eq(Expr::lit(7i64))),
        ]);
        assert_eq!(index.residual_count(), 0);
        let t = tuple![7i64, "FICTION"];
        let m = index.matching_queries(&t).unwrap();
        assert!(m.contains(QueryId(1)));
        assert!(!m.contains(QueryId(2)));
        assert!(m.contains(QueryId(3)));
        let t = tuple![9i64, "COOKING"];
        assert!(index.matching_queries(&t).unwrap().is_empty());
    }

    #[test]
    fn equality_with_residual_conjunct_still_verified() {
        // col1 = 'X' AND col0 > 5: indexed on the equality, verified fully.
        let index = PredicateIndex::build(vec![q(
            1,
            Expr::col(1)
                .eq(Expr::lit("X"))
                .and(Expr::col(0).gt(Expr::lit(5i64))),
        )]);
        assert!(index
            .matching_queries(&tuple![9i64, "X"])
            .unwrap()
            .contains(QueryId(1)));
        assert!(index
            .matching_queries(&tuple![3i64, "X"])
            .unwrap()
            .is_empty());
    }

    #[test]
    fn range_indexed_queries() {
        let index = PredicateIndex::build(vec![
            q(1, Expr::col(0).gt(Expr::lit(10i64))),
            q(2, Expr::col(0).lt_eq(Expr::lit(3i64))),
            q(3, Expr::col(2).gt_eq(Expr::lit(1.5f64))),
        ]);
        let m = index.matching_queries(&tuple![11i64, "x", 2.0f64]).unwrap();
        assert_eq!(m, [1u32, 3].into_iter().collect());
        let m = index.matching_queries(&tuple![2i64, "x", 0.0f64]).unwrap();
        assert_eq!(m, [2u32].into_iter().collect());
    }

    #[test]
    fn residual_queries_like() {
        let index = PredicateIndex::build(vec![
            q(1, Expr::col(1).like(Expr::lit("%DB%"))),
            q(2, Expr::col(1).like(Expr::lit("%XYZ%"))),
        ]);
        assert_eq!(index.residual_count(), 2);
        let m = index
            .matching_queries(&tuple![1i64, "SharedDB paper"])
            .unwrap();
        assert_eq!(m, [1u32].into_iter().collect());
    }

    #[test]
    fn disjunction_is_residual_but_correct() {
        let index = PredicateIndex::build(vec![q(
            5,
            Expr::col(0)
                .eq(Expr::lit(1i64))
                .or(Expr::col(0).eq(Expr::lit(2i64))),
        )]);
        assert_eq!(index.residual_count(), 1);
        assert!(index
            .matching_queries(&tuple![2i64])
            .unwrap()
            .contains(QueryId(5)));
        assert!(index.matching_queries(&tuple![3i64]).unwrap().is_empty());
    }

    #[test]
    fn many_queries_same_value_share_probe() {
        // 100 queries all asking for the same category: one probe finds all.
        let queries: Vec<_> = (0..100)
            .map(|i| q(i, Expr::col(0).eq(Expr::lit("C"))))
            .collect();
        let index = PredicateIndex::build(queries);
        let m = index.matching_queries(&tuple!["C"]).unwrap();
        assert_eq!(m.len(), 100);
    }

    #[test]
    fn empty_index() {
        let index = PredicateIndex::build(vec![]);
        assert!(index.is_empty());
        assert!(index.matching_queries(&tuple![1i64]).unwrap().is_empty());
    }
}
