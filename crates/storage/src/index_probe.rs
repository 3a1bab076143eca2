//! Shared index probes.
//!
//! For point and small-range accesses a full ClockScan cycle is wasteful, so
//! SharedDB extends Crescando with B-tree indexes and a *shared index probe*
//! operator (Section 4.4): "look-ups are enqueued in the pending query queue
//! which is emptied at the beginning of each cycle. During the cycle, the
//! updates are executed in the arrival order and multiple B-tree look-ups are
//! used to evaluate all the select queries. [...] Just as the (shared) full
//! table scan, the index probe operator guarantees that all select queries
//! will read a consistent snapshot." Here the engine forms the batch and
//! applies its updates through [`crate::Catalog::apply_batch`]; the probe
//! runs the batch's look-ups against one snapshot that includes them.
//!
//! Executing many look-ups per cycle gives the instruction- and data-cache
//! locality benefits of batched information filters (Fischer & Kossmann,
//! ICDE 2005 — reference [12] of the paper).

use crate::mvcc::TimestampOracle;
use crate::table::{RowId, Table};
use parking_lot::RwLock;
use shareddb_common::{Expr, QTuple, QueryId, QuerySet, Result, Tuple, Value};
use std::ops::Bound;
use std::sync::Arc;

/// The key range of one probe.
#[derive(Debug, Clone)]
pub enum ProbeRange {
    /// Exact-match probe (`col = key`).
    Key(Value),
    /// Range probe with inclusive/exclusive bounds.
    Range {
        /// Lower bound.
        low: Bound<Value>,
        /// Upper bound.
        high: Bound<Value>,
    },
}

impl ProbeRange {
    /// Probe for all keys greater than `v`.
    pub fn greater_than(v: Value) -> Self {
        ProbeRange::Range {
            low: Bound::Excluded(v),
            high: Bound::Unbounded,
        }
    }

    /// Probe for all keys less than `v`.
    pub fn less_than(v: Value) -> Self {
        ProbeRange::Range {
            low: Bound::Unbounded,
            high: Bound::Excluded(v),
        }
    }

    /// Probe for all keys in `[low, high]`.
    pub fn between(low: Value, high: Value) -> Self {
        ProbeRange::Range {
            low: Bound::Included(low),
            high: Bound::Included(high),
        }
    }
}

/// One index look-up registered for a probe cycle.
#[derive(Debug, Clone)]
pub struct ProbeQuery {
    /// Id of the active query.
    pub query_id: QueryId,
    /// The indexed column to probe.
    pub column: usize,
    /// The key or key range to look up.
    pub range: ProbeRange,
    /// Optional residual predicate evaluated on the fetched rows.
    pub residual: Option<Expr>,
    /// Optional pinned read snapshot (`None` = the batch's own snapshot; see
    /// [`crate::clockscan::ScanQuery::snapshot`]).
    pub snapshot: Option<crate::mvcc::Snapshot>,
}

impl ProbeQuery {
    /// An exact-match probe.
    pub fn key(query_id: QueryId, column: usize, key: Value) -> Self {
        ProbeQuery {
            query_id,
            column,
            range: ProbeRange::Key(key),
            residual: None,
            snapshot: None,
        }
    }

    /// A range probe.
    pub fn range(query_id: QueryId, column: usize, range: ProbeRange) -> Self {
        ProbeQuery {
            query_id,
            column,
            range,
            residual: None,
            snapshot: None,
        }
    }

    /// Attaches a residual predicate.
    pub fn with_residual(mut self, residual: Expr) -> Self {
        self.residual = Some(residual);
        self
    }

    /// Pins the probe to a fixed read snapshot.
    pub fn at_snapshot(mut self, snapshot: Option<crate::mvcc::Snapshot>) -> Self {
        self.snapshot = snapshot;
        self
    }
}

/// The shared index-probe operator for one table.
pub struct IndexProbe {
    table: Arc<RwLock<Table>>,
    oracle: Arc<TimestampOracle>,
}

impl IndexProbe {
    /// Creates an index-probe operator over a table. Probed columns should
    /// be the primary key or have a secondary index; otherwise the probe
    /// falls back to a (correct but slow) scan of the table. Probes follow
    /// SQL comparison ([`Table::lookup_eq`], [`Table::lookup_range`]).
    pub fn new(table: Arc<RwLock<Table>>, oracle: Arc<TimestampOracle>) -> Self {
        IndexProbe { table, oracle }
    }

    /// Executes a batch of look-ups against one consistent snapshot (pinned
    /// probes read their own) and returns the fetched rows, each annotated
    /// with the probes that selected it. Rows fetched by several probes of
    /// the batch are emitted once (NF² sharing), in version order.
    pub fn execute_batch(&self, queries: &[ProbeQuery]) -> Result<Vec<QTuple>> {
        let mut tuples = Vec::new();
        if queries.is_empty() {
            return Ok(tuples);
        }
        let groups = crate::mvcc::group_by_snapshot(queries, self.oracle.read_ts(), |q| q.snapshot);
        let table = self.table.read();
        for (snapshot, members) in groups {
            probe_group(&table, snapshot, &members, &mut tuples)?;
        }
        Ok(tuples)
    }
}

/// Executes one snapshot group of probes: every look-up reads `snapshot`,
/// and rows fetched by several probes of the group are emitted once.
fn probe_group(
    table: &Table,
    snapshot: crate::mvcc::Snapshot,
    queries: &[&ProbeQuery],
    tuples: &mut Vec<QTuple>,
) -> Result<()> {
    // Deduplicate fetched rows across all probes of the batch: the NF²
    // data-query model stores each row once with the union of interested
    // queries, emitted in version order.
    let mut hits: Vec<(RowId, QueryId, &Tuple)> = Vec::new();
    for q in queries {
        let rows = match &q.range {
            ProbeRange::Key(key) => table.lookup_eq(q.column, key, snapshot),
            ProbeRange::Range { low, high } => {
                table.lookup_range(q.column, low.as_ref(), high.as_ref(), snapshot)
            }
        };
        for (rid, row) in rows {
            if let Some(residual) = &q.residual {
                if !residual.eval_predicate(row)? {
                    continue;
                }
            }
            hits.push((rid, q.query_id, row));
        }
    }
    hits.sort_unstable_by_key(|(rid, q, _)| (*rid, *q));
    for group in hits.chunk_by(|a, b| a.0 == b.0) {
        let queries = QuerySet::from_ids(group.iter().map(|(_, q, _)| *q));
        tuples.push(QTuple::new(group[0].2.clone(), queries));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Catalog, IndexDef, TableDef};
    use crate::update::UpdateOp;
    use shareddb_common::{tuple, DataType};

    /// 200 rows `(ID, "row{ID}", ID % 20)` with indexes on ID and QTY.
    fn setup() -> (Catalog, IndexProbe) {
        let catalog = Catalog::new();
        catalog
            .create_table(
                TableDef::new("T")
                    .column("ID", DataType::Int)
                    .column("NAME", DataType::Text)
                    .column("QTY", DataType::Int)
                    .primary_key(&["ID"]),
            )
            .unwrap();
        for (name, column) in [("T_ID", "ID"), ("T_QTY", "QTY")] {
            catalog
                .create_index(IndexDef {
                    name: name.into(),
                    table: "T".into(),
                    column: column.into(),
                })
                .unwrap();
        }
        catalog
            .bulk_load(
                "T",
                (0..200i64)
                    .map(|i| tuple![i, format!("row{i}"), i % 20])
                    .collect(),
            )
            .unwrap();
        let probe = IndexProbe::new(catalog.table("T").unwrap(), catalog.oracle());
        (catalog, probe)
    }

    #[test]
    fn batched_point_lookups_share_rows() {
        let (_catalog, probe) = setup();
        // Three queries, two of which ask for the same key.
        let tuples = probe
            .execute_batch(&[
                ProbeQuery::key(QueryId(1), 0, Value::Int(5)),
                ProbeQuery::key(QueryId(2), 0, Value::Int(5)),
                ProbeQuery::key(QueryId(3), 0, Value::Int(7)),
            ])
            .unwrap();
        // Row 5 appears once, subscribed by queries 1 and 2.
        assert_eq!(tuples.len(), 2);
        let row5 = tuples.iter().find(|t| t.tuple[0] == Value::Int(5)).unwrap();
        assert_eq!(row5.queries.len(), 2);
    }

    #[test]
    fn range_probe_and_residual() {
        let (_catalog, probe) = setup();
        let tuples = probe
            .execute_batch(&[ProbeQuery::range(
                QueryId(1),
                2,
                ProbeRange::between(Value::Int(18), Value::Int(19)),
            )
            .with_residual(Expr::col(0).lt(Expr::lit(100i64)))])
            .unwrap();
        // QTY in {18, 19} occurs for 20 rows; residual keeps ids < 100 → 10.
        assert_eq!(tuples.len(), 10);
        assert!(tuples
            .iter()
            .all(|t| t.tuple[2] >= Value::Int(18) && t.tuple[0] < Value::Int(100)));
    }

    /// Look-ups read a snapshot that includes the updates applied before
    /// them: an UPDATE's new value, and no row a DELETE removed.
    #[test]
    fn lookups_see_updates_applied_before_them() {
        let (catalog, probe) = setup();
        let results = catalog
            .apply_batch(&[
                (
                    "T".into(),
                    UpdateOp::Update {
                        assignments: vec![(2, Expr::lit(999i64))],
                        predicate: Expr::col(0).eq(Expr::lit(3i64)),
                    },
                ),
                (
                    "T".into(),
                    UpdateOp::Delete {
                        predicate: Expr::col(0).eq(Expr::lit(10i64)),
                    },
                ),
            ])
            .unwrap();
        assert_eq!(results[0].rows_affected, 1);
        assert_eq!(results[1].rows_affected, 1);
        let tuples = probe
            .execute_batch(&[
                ProbeQuery::key(QueryId(1), 0, Value::Int(3)),
                ProbeQuery::key(QueryId(2), 0, Value::Int(10)),
            ])
            .unwrap();
        assert_eq!(tuples.len(), 1);
        assert_eq!(tuples[0].tuple[2], Value::Int(999));
        assert!(tuples[0].queries.contains(QueryId(1)));
    }

    #[test]
    fn probe_on_unindexed_column_falls_back_to_scan() {
        let (_catalog, probe) = setup();
        let tuples = probe
            .execute_batch(&[ProbeQuery::key(QueryId(1), 1, Value::text("row42"))])
            .unwrap();
        assert_eq!(tuples.len(), 1);
        assert_eq!(tuples[0].tuple[0], Value::Int(42));
    }

    #[test]
    fn greater_and_less_than_ranges() {
        let (_catalog, probe) = setup();
        let tuples = probe
            .execute_batch(&[
                ProbeQuery::range(QueryId(1), 0, ProbeRange::greater_than(Value::Int(195))),
                ProbeQuery::range(QueryId(2), 0, ProbeRange::less_than(Value::Int(2))),
            ])
            .unwrap();
        let count = |q: u32| {
            tuples
                .iter()
                .filter(|t| t.queries.contains(QueryId(q)))
                .count()
        };
        assert_eq!(count(1), 4); // 196..199
        assert_eq!(count(2), 2); // 0, 1
    }
}
