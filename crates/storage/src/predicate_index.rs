//! Predicate indexing: the "query-data join" of ClockScan.
//!
//! The key trick of the Crescando ClockScan algorithm (Section 4.4, [28]) is
//! to index the *query predicates* of a batch instead of the data, and to
//! treat the scan as a join between data tuples and queries. While a pass
//! sweeps over the table, each row is probed against the predicate index to
//! find the queries that select it — instead of evaluating every query
//! predicate against every row.
//!
//! **Predicate groups.** Queries whose bound predicates are strictly
//! identical — the same tree, with literals equal in variant and value —
//! form one group, which is indexed and evaluated once per row; a match
//! selects every query of the group. Identity is stricter than
//! `Expr: PartialEq`, which equates `Int(2)` with `Float(2.0)` although
//! `col / 2` and `col / 2.0` evaluate differently. In a TPC-W batch most
//! best-seller queries carry the same `OL_O_ID >= ?` threshold, so they
//! cost the scan one evaluation, not one each.
//!
//! The index places each group in one of three classes:
//!
//! * **Equality-indexable** — the predicate has a conjunct `col = literal`;
//!   such groups are stored in a hash map keyed by `(col, literal)`.
//! * **Range-indexable** — the predicate has a conjunct `col <op> literal`
//!   with a comparison operator; such groups are listed per column so a
//!   single value extraction serves all of them.
//! * **Residual** — everything else (LIKE-only predicates, disjunctions,
//!   ...); these are evaluated row by row, but still only once per row for
//!   the whole batch.
//!
//! After the index finds a candidate group, the group's *full* predicate is
//! evaluated to confirm the match, so indexing never changes results. The
//! one exception is an **exact** group, whose whole predicate is the single
//! conjunct it is indexed under: there the index hit *is* the evaluation.
//! A range hit applies the evaluator's own [`Value::sql_cmp`] table, and an
//! equality hit with a non-NULL literal matches exactly the row values SQL
//! `=` equates with it (see [`Value::sql_key`]). An indexed group is only
//! evaluated on rows its conjunct admits, so a predicate that would fail to
//! evaluate on other rows does not fail the pass.

use shareddb_common::{BinaryOp, Expr, QueryId, QuerySet, Result, Tuple, Value};
use std::collections::HashMap;
use std::mem::Discriminant;

/// Queries sharing one strictly identical predicate.
#[derive(Debug)]
struct Group<'a> {
    predicate: &'a Expr,
    queries: Vec<QueryId>,
    /// The predicate is the single conjunct it is indexed under, so an index
    /// hit is a match without evaluating it.
    exact: bool,
}

/// An entry of the per-column range lists.
#[derive(Debug)]
struct RangeEntry<'a> {
    op: BinaryOp,
    literal: &'a Value,
    group: usize,
}

/// The predicate index for one scan pass, borrowing the batch's predicates.
#[derive(Debug, Default)]
pub struct PredicateIndex<'a> {
    groups: Vec<Group<'a>>,
    /// column -> (value -> groups with an equality conjunct). Values are
    /// [`Value::sql_key`]s, so a literal finds every row value SQL `=`
    /// equates with it (`Int` against `Date`, say).
    equality: HashMap<usize, HashMap<Value, Vec<usize>>>,
    /// column -> range conjuncts on that column.
    ranges: HashMap<usize, Vec<RangeEntry<'a>>>,
    /// Groups that could not be indexed at all.
    residual: Vec<usize>,
}

/// The group key of a predicate: the tree under `==` plus the variant of
/// each of its literals. `==` equates the literals pairwise, and equal
/// values of one variant are identical (`Float` compares by `total_cmp`).
fn group_key(predicate: &Expr) -> (&Expr, Vec<Discriminant<Value>>) {
    let mut variants = Vec::new();
    predicate.visit(&mut |node| {
        if let Expr::Literal(v) = node {
            variants.push(std::mem::discriminant(v));
        }
    });
    (predicate, variants)
}

impl<'a> PredicateIndex<'a> {
    /// Builds the index for a batch of `(query, bound predicate)` pairs.
    pub fn build(queries: impl IntoIterator<Item = (QueryId, &'a Expr)>) -> Self {
        let mut index = PredicateIndex::default();
        let mut by_predicate = HashMap::new();
        for (query_id, predicate) in queries {
            let next = index.groups.len();
            let group = *by_predicate.entry(group_key(predicate)).or_insert(next);
            if group == next {
                index.add_group(predicate);
            }
            index.groups[group].queries.push(query_id);
        }
        index
    }

    /// Registers a new, still empty group for `predicate`.
    fn add_group(&mut self, predicate: &'a Expr) {
        let group = self.groups.len();
        let conjuncts = predicate.split_conjuncts();
        // Prefer an equality conjunct; fall back to a range conjunct.
        let mut eq: Option<(usize, &Value)> = None;
        let mut range: Option<(usize, BinaryOp, &Value)> = None;
        for c in &conjuncts {
            if let Some((col, op, lit)) = c.as_column_literal_cmp() {
                match op {
                    BinaryOp::Eq => {
                        eq = Some((col, lit));
                        break;
                    }
                    BinaryOp::Lt | BinaryOp::LtEq | BinaryOp::Gt | BinaryOp::GtEq
                        if range.is_none() =>
                    {
                        range = Some((col, op, lit));
                    }
                    _ => {}
                }
            }
        }
        let single = conjuncts.len() == 1;
        let exact = if let Some((col, value)) = eq {
            self.equality
                .entry(col)
                .or_default()
                .entry(value.sql_key().into_owned())
                .or_default()
                .push(group);
            // A NULL key is equal to itself in the hash map, but SQL `=`
            // equates NULL with nothing.
            single && !value.is_null()
        } else if let Some((col, op, literal)) = range {
            self.ranges
                .entry(col)
                .or_default()
                .push(RangeEntry { op, literal, group });
            single
        } else {
            self.residual.push(group);
            false
        };
        self.groups.push(Group {
            predicate,
            queries: Vec::new(),
            exact,
        });
    }

    /// The distinct predicates of the batch, one per group.
    pub(crate) fn predicates(&self) -> impl Iterator<Item = &'a Expr> + '_ {
        self.groups.iter().map(|g| g.predicate)
    }

    /// Number of groups that could not use any index class (diagnostics).
    pub fn residual_count(&self) -> usize {
        self.residual.len()
    }

    /// Probes the index with one data tuple and returns the set of queries
    /// that select it.
    pub fn matching_queries(&self, tuple: &Tuple) -> Result<QuerySet> {
        // Matches are accumulated in a plain vector and turned into a sorted
        // set once at the end: a group belongs to exactly one index class, so
        // no group is matched twice, and building the set in one pass keeps
        // the per-row cost O(k log k) even when thousands of queries match.
        let mut out: Vec<QueryId> = Vec::new();
        let hit = |group: usize, out: &mut Vec<QueryId>| -> Result<()> {
            let g = &self.groups[group];
            if g.exact || g.predicate.eval_predicate(tuple)? {
                out.extend_from_slice(&g.queries);
            }
            Ok(())
        };
        // 1. Equality candidates: one hash probe per indexed column, using the
        //    row's value in that column as the key (the query-data join).
        for (col, by_value) in &self.equality {
            let Some(v) = tuple.get(*col) else { continue };
            if let Some(candidates) = by_value.get(&*v.sql_key()) {
                for &group in candidates {
                    hit(group, &mut out)?;
                }
            }
        }
        // 2. Range candidates, tested with the comparison table of the
        //    expression evaluator.
        for (col, entries) in &self.ranges {
            let Some(v) = tuple.get(*col) else { continue };
            for entry in entries {
                let admits = match (entry.op, v.sql_cmp(entry.literal)) {
                    (_, None) => false,
                    (BinaryOp::Lt, Some(o)) => o == std::cmp::Ordering::Less,
                    (BinaryOp::LtEq, Some(o)) => o != std::cmp::Ordering::Greater,
                    (BinaryOp::Gt, Some(o)) => o == std::cmp::Ordering::Greater,
                    (BinaryOp::GtEq, Some(o)) => o != std::cmp::Ordering::Less,
                    _ => false,
                };
                if admits {
                    hit(entry.group, &mut out)?;
                }
            }
        }
        // 3. Residual groups are evaluated directly.
        for &group in &self.residual {
            hit(group, &mut out)?;
        }
        Ok(QuerySet::from_ids(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shareddb_common::tuple;

    fn build(queries: &[(u32, Expr)]) -> PredicateIndex<'_> {
        PredicateIndex::build(queries.iter().map(|(id, p)| (QueryId(*id), p)))
    }

    /// The equality class finds every row value SQL `=` equates with the
    /// literal, across `Int`, `Float` and `Date`; NULL matches nothing.
    #[test]
    fn equality_literals_match_sql_equal_values_of_other_types() {
        let queries = [
            (1, Expr::col(0).eq(Expr::lit(5i64))),
            (2, Expr::col(0).eq(Expr::Literal(Value::Date(5)))),
            (3, Expr::col(0).eq(Expr::Literal(Value::Null))),
        ];
        let index = build(&queries);
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
        let queries = [
            (1, Expr::col(1).eq(Expr::lit("FICTION"))),
            (2, Expr::col(1).eq(Expr::lit("HISTORY"))),
            (3, Expr::col(0).eq(Expr::lit(7i64))),
        ];
        let index = build(&queries);
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
        let queries = [(
            1,
            Expr::col(1)
                .eq(Expr::lit("X"))
                .and(Expr::col(0).gt(Expr::lit(5i64))),
        )];
        let index = build(&queries);
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
        let queries = [
            (1, Expr::col(0).gt(Expr::lit(10i64))),
            (2, Expr::col(0).lt_eq(Expr::lit(3i64))),
            (3, Expr::col(2).gt_eq(Expr::lit(1.5f64))),
        ];
        let index = build(&queries);
        let m = index.matching_queries(&tuple![11i64, "x", 2.0f64]).unwrap();
        assert_eq!(m, [1u32, 3].into_iter().collect());
        let m = index.matching_queries(&tuple![2i64, "x", 0.0f64]).unwrap();
        assert_eq!(m, [2u32].into_iter().collect());
    }

    #[test]
    fn residual_queries_like() {
        let queries = [
            (1, Expr::col(1).like(Expr::lit("%DB%"))),
            (2, Expr::col(1).like(Expr::lit("%XYZ%"))),
        ];
        let index = build(&queries);
        assert_eq!(index.residual_count(), 2);
        let m = index
            .matching_queries(&tuple![1i64, "SharedDB paper"])
            .unwrap();
        assert_eq!(m, [1u32].into_iter().collect());
    }

    #[test]
    fn disjunction_is_residual_but_correct() {
        let queries = [(
            5,
            Expr::col(0)
                .eq(Expr::lit(1i64))
                .or(Expr::col(0).eq(Expr::lit(2i64))),
        )];
        let index = build(&queries);
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
            .map(|i| (i, Expr::col(0).eq(Expr::lit("C"))))
            .collect();
        let index = build(&queries);
        let m = index.matching_queries(&tuple!["C"]).unwrap();
        assert_eq!(m.len(), 100);
    }

    #[test]
    fn empty_index() {
        let index = build(&[]);
        assert_eq!(index.predicates().count(), 0);
        assert!(index.matching_queries(&tuple![1i64]).unwrap().is_empty());
    }

    /// Predicates group by strict identity: `col0 / 2` and `col0 / 2.0` are
    /// `==` as expressions but divide differently, so they stay apart, while
    /// every query of a duplicated predicate receives its match.
    #[test]
    fn groups_are_strictly_identical_predicates() {
        let half = |two: Expr| Expr::col(0).binary(BinaryOp::Div, two);
        let int_div = || half(Expr::lit(2i64)).eq(Expr::lit(2i64));
        let float_div = half(Expr::lit(2.0f64)).eq(Expr::lit(2i64));
        assert_eq!(int_div(), float_div, "Expr == equates the two literals");
        let queries = [(1, int_div()), (2, float_div), (3, int_div())];
        let index = build(&queries);
        assert_eq!(index.predicates().count(), 2);
        // 5 / 2 = 2, but 5 / 2.0 = 2.5.
        let m = index.matching_queries(&tuple![5i64]).unwrap();
        assert_eq!(m, [1u32, 3].into_iter().collect());
        let m = index.matching_queries(&tuple![4i64]).unwrap();
        assert_eq!(m, [1u32, 2, 3].into_iter().collect());
    }

    /// An exact group skips the re-evaluation, so its index hit must be the
    /// evaluator's verdict: a `col op literal` predicate matches the row
    /// exactly when evaluating it says so, for every pair of values —
    /// including NULL, NaN, -0.0, and `Int`/`Float`/`Date` mixes.
    #[test]
    fn exact_hits_agree_with_evaluation() {
        let values = [
            Value::Null,
            Value::Int(0),
            Value::Int(2),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(2.0),
            Value::Float(2.5),
            Value::Float(f64::NAN),
            Value::Float(-f64::NAN),
            Value::Date(0),
            Value::Date(2),
            Value::text("2"),
            Value::Bool(true),
        ];
        let ops = [
            BinaryOp::Eq,
            BinaryOp::Lt,
            BinaryOp::LtEq,
            BinaryOp::Gt,
            BinaryOp::GtEq,
        ];
        for literal in &values {
            let queries: Vec<(u32, Expr)> = ops
                .iter()
                .enumerate()
                .flat_map(|(i, &op)| {
                    let lit = Expr::Literal(literal.clone());
                    [
                        (2 * i as u32, Expr::col(0).binary(op, lit.clone())),
                        (2 * i as u32 + 1, lit.binary(op, Expr::col(0))),
                    ]
                })
                .collect();
            let index = build(&queries);
            for v in &values {
                let row = tuple![v.clone()];
                let m = index.matching_queries(&row).unwrap();
                for (id, predicate) in &queries {
                    assert_eq!(
                        m.contains(QueryId(*id)),
                        predicate.eval_predicate(&row).unwrap(),
                        "{predicate:?} on {v:?}"
                    );
                }
            }
        }
    }
}
