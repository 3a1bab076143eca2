//! The ClockScan shared table scan.
//!
//! ClockScan (Unterbrunner et al., "Predictable Performance for Unpredictable
//! Workloads", VLDB 2009 — reference [28] of the SharedDB paper) processes a
//! whole batch of queries within a single pass over the table. SharedDB uses
//! it as its shared-scan access path (Section 4.4):
//!
//! * The engine forms the batch: queries that arrive while a batch runs wait
//!   for the next one, exactly the batching model of the rest of SharedDB.
//! * Query predicates are indexed (see [`crate::predicate_index`]) and the
//!   scan performs a *query-data join* between rows and queries.
//! * The batch's updates are applied in arrival order beforehand, through
//!   [`crate::Catalog::apply_batch`], and all select queries of the batch
//!   read one consistent snapshot that includes them.
//!
//! The scan produces tuples in the data-query model ([`QTuple`]): each emitted
//! row carries the set of queries that selected it. Emitted rows share their
//! values with the stored version, so emitting one copies no values.
//!
//! **Index-assisted passes.** When every distinct predicate of a snapshot
//! group has a conjunct `col op literal` (`=`, `<`, `<=`, `>`, `>=`) on a
//! column with a secondary index, the pass visits only the candidate
//! versions those indexes yield, in row-id order — the sequential pass's
//! order — so it emits the same rows, in the same order, with the same
//! query sets, at the cost of what the batch can select. A batch with an
//! unindexed-only query (a title `LIKE`, say), or whose candidates pass a
//! quarter of the table's versions, sweeps the whole table instead.

use crate::mvcc::{Snapshot, TimestampOracle};
use crate::predicate_index::PredicateIndex;
use crate::table::{RowId, Table};
use parking_lot::RwLock;
use shareddb_common::{tuple_partition, BinaryOp, Expr, QTuple, QueryId, Result, Tuple, Value};
use std::mem::discriminant;
use std::ops::Bound;
use std::sync::Arc;

/// A segment-view cursor over the table: restricts one scan pass to the rows
/// of one stable hash segment (`tuple_partition(row, key_columns, of) ==
/// index`). The engine's intra-engine segment parallelism runs one pass per
/// segment concurrently; filtering here — *before* the predicate index
/// evaluates a row against the whole query batch — means each segment pass
/// pays the query-data join only for its own slice of the table, which is
/// what makes N segment passes over 1/N of the rows each add up to roughly
/// one unsegmented pass of work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentView {
    /// Segment index in `0..of`.
    pub index: u32,
    /// Total number of segments.
    pub of: u32,
    /// Columns hashed to place a row (empty = whole tuple).
    pub key_columns: Vec<usize>,
}

impl SegmentView {
    /// True when `row` belongs to this segment.
    pub fn contains(&self, row: &Tuple) -> bool {
        tuple_partition(row, &self.key_columns, self.of) == self.index
    }
}

/// A query registered with a ClockScan operator for one cycle.
#[derive(Debug, Clone)]
pub struct ScanQuery {
    /// Id of the active query.
    pub query_id: QueryId,
    /// Bound selection predicate on the scanned table (use
    /// `Expr::lit(true)` for a full scan).
    pub predicate: Expr,
    /// Optional pinned read snapshot. `None` (the default) reads the batch's
    /// own snapshot — the latest committed state.
    /// A pinned snapshot lets a caller that spreads one logical query over
    /// several scan cycles (e.g. the cluster fanout) give every part the same
    /// consistent view.
    pub snapshot: Option<Snapshot>,
}

impl ScanQuery {
    /// Creates a scan query.
    pub fn new(query_id: QueryId, predicate: Expr) -> Self {
        ScanQuery {
            query_id,
            predicate,
            snapshot: None,
        }
    }

    /// A full-table scan for the given query.
    pub fn full_scan(query_id: QueryId) -> Self {
        ScanQuery::new(query_id, Expr::lit(true))
    }

    /// Pins the query to a fixed read snapshot.
    pub fn at_snapshot(mut self, snapshot: Option<Snapshot>) -> Self {
        self.snapshot = snapshot;
        self
    }
}

/// The shared-scan operator for one table.
pub struct ClockScan {
    table: Arc<RwLock<Table>>,
    oracle: Arc<TimestampOracle>,
}

impl ClockScan {
    /// Creates a ClockScan operator over a table.
    pub fn new(table: Arc<RwLock<Table>>, oracle: Arc<TimestampOracle>) -> Self {
        ClockScan { table, oracle }
    }

    /// Evaluates a batch of queries in one shared pass and returns every row
    /// selected by at least one of them, annotated with the queries that
    /// selected it.
    pub fn execute_batch(&self, queries: &[ScanQuery]) -> Result<Vec<QTuple>> {
        self.execute_batch_segmented(queries, None)
    }

    /// Like [`ClockScan::execute_batch`], over one segment view of the table
    /// (`None` scans every row).
    ///
    /// All queries read one consistent snapshot, the latest committed state.
    /// Queries pinned to an explicit snapshot read that version set instead;
    /// the pass groups queries by effective snapshot so each group still
    /// shares one table scan (with no pinned queries — the common case —
    /// this is exactly one pass).
    pub fn execute_batch_segmented(
        &self,
        queries: &[ScanQuery],
        view: Option<&SegmentView>,
    ) -> Result<Vec<QTuple>> {
        let mut tuples = Vec::new();
        if queries.is_empty() {
            return Ok(tuples);
        }
        let groups = crate::mvcc::group_by_snapshot(queries, self.oracle.read_ts(), |q| q.snapshot);
        let table = self.table.read();
        for (snapshot, members) in groups {
            let index = PredicateIndex::build(members.iter().map(|q| (q.query_id, &q.predicate)));
            let mut emit = |row: &Tuple| -> Result<()> {
                // The segment-view cursor: rows outside the view are skipped
                // before the query-data join even looks at them.
                if view.is_some_and(|view| !view.contains(row)) {
                    return Ok(());
                }
                let matches = index.matching_queries(row)?;
                if !matches.is_empty() {
                    tuples.push(QTuple::new(row.clone(), matches));
                }
                Ok(())
            };
            match index_candidates(&table, &index) {
                Some(candidates) => {
                    for rid in candidates {
                        if let Some(row) = table.read(rid, snapshot) {
                            emit(row)?;
                        }
                    }
                }
                None => {
                    for (_, row) in table.scan(snapshot) {
                        emit(row)?;
                    }
                }
            }
        }
        Ok(tuples)
    }
}

/// Largest share of the table's versions an index-assisted pass may visit:
/// `version_count() / GATHER_CAP_DIVISOR`. Gathering, sorting and reading
/// candidates costs more per row than the sequential pass, so a wide enough
/// range is cheaper to sweep. On a 90 000-row table (the `range_batch` group
/// of `crates/bench/benches/clockscan.rs`, with the cap lifted) the gather
/// still won at 33% selectivity and lost at 50%, both with rows in index
/// order and with rows scattered; a quarter keeps a margin below that.
const GATHER_CAP_DIVISOR: usize = 4;

/// The versions an index-assisted pass visits, ascending and distinct, or
/// `None` when the pass must be sequential.
///
/// Every distinct predicate must have a conjunct `col op literal` (`op` one
/// of `=`, `<`, `<=`, `>`, `>=`) on a column with a secondary index; its
/// first such conjunct, an equality preferred, names one index range. The
/// union of the ranges, one look-up per distinct range, holds every row any
/// query can select. Sorted by row id, the candidates come in the order the
/// sequential pass visits them, so both passes emit the same tuples in the
/// same order. Past the cap the gather gives up, having read at most a
/// [`GATHER_CAP_DIVISOR`]th of the versions.
fn index_candidates(table: &Table, index: &PredicateIndex<'_>) -> Option<Vec<RowId>> {
    let mut lookups: Vec<(usize, BinaryOp, &Value)> = Vec::new();
    for predicate in index.predicates() {
        let lookup = predicate
            .split_conjuncts()
            .into_iter()
            .filter_map(Expr::as_column_literal_cmp)
            .filter(|&(col, op, _)| op != BinaryOp::NotEq && table.has_index_on(col))
            .min_by_key(|&(_, op, _)| op != BinaryOp::Eq)?;
        // Literals `==` in one variant are identical.
        let same = |&(col, op, lit): &(usize, BinaryOp, &Value)| {
            (col, op, lit) == lookup && discriminant(lit) == discriminant(lookup.2)
        };
        if !lookups.iter().any(same) {
            lookups.push(lookup);
        }
    }
    let cap = table.version_count() / GATHER_CAP_DIVISOR;
    let mut candidates = Vec::new();
    for (col, op, literal) in lookups {
        let (low, high) = match op {
            BinaryOp::Eq => (Bound::Included(literal), Bound::Included(literal)),
            BinaryOp::Lt => (Bound::Unbounded, Bound::Excluded(literal)),
            BinaryOp::LtEq => (Bound::Unbounded, Bound::Included(literal)),
            BinaryOp::Gt => (Bound::Excluded(literal), Bound::Unbounded),
            _ => (Bound::Included(literal), Bound::Unbounded),
        };
        let budget = cap - candidates.len();
        if !table.index_range(col, low, high, budget, &mut candidates) {
            return None;
        }
    }
    candidates.sort_unstable();
    candidates.dedup();
    Some(candidates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Catalog, TableDef};
    use crate::update::UpdateOp;
    use shareddb_common::{tuple, DataType, Value};

    /// 100 rows `(ID, "EVEN"|"ODD", ID % 10)`.
    fn setup() -> (Catalog, ClockScan) {
        let catalog = Catalog::new();
        catalog
            .create_table(
                TableDef::new("T")
                    .column("ID", DataType::Int)
                    .column("CATEGORY", DataType::Text)
                    .column("PRICE", DataType::Float)
                    .primary_key(&["ID"]),
            )
            .unwrap();
        catalog
            .bulk_load(
                "T",
                (0..100i64)
                    .map(|i| tuple![i, if i % 2 == 0 { "EVEN" } else { "ODD" }, (i % 10) as f64])
                    .collect(),
            )
            .unwrap();
        let scan = ClockScan::new(catalog.table("T").unwrap(), catalog.oracle());
        (catalog, scan)
    }

    fn apply(catalog: &Catalog, ops: Vec<UpdateOp>) -> Vec<usize> {
        let ops: Vec<(String, UpdateOp)> = ops.into_iter().map(|op| ("T".into(), op)).collect();
        catalog
            .apply_batch(&ops)
            .unwrap()
            .iter()
            .map(|r| r.rows_affected)
            .collect()
    }

    fn count(tuples: &[QTuple], q: u32) -> usize {
        tuples
            .iter()
            .filter(|t| t.queries.contains(QueryId(q)))
            .count()
    }

    #[test]
    fn queries_are_batched_and_share_the_pass() {
        let (_catalog, scan) = setup();
        let tuples = scan
            .execute_batch(&[
                ScanQuery::new(QueryId(1), Expr::col(1).eq(Expr::lit("EVEN"))),
                ScanQuery::new(QueryId(2), Expr::col(2).gt_eq(Expr::lit(8.0f64))),
            ])
            .unwrap();
        // 50 even rows, 20 rows with price >= 8 (10 of which are even).
        assert_eq!(count(&tuples, 1), 50);
        assert_eq!(count(&tuples, 2), 20);
        // Shared representation: total emitted tuples is the size of the
        // union, not the sum.
        assert_eq!(tuples.len(), 50 + 20 - 10);
    }

    #[test]
    fn updates_apply_in_arrival_order() {
        let (catalog, scan) = setup();
        // Set price to 100 for ID 1, then delete ID 1: the delete wins.
        let affected = apply(
            &catalog,
            vec![
                UpdateOp::Update {
                    assignments: vec![(2, Expr::lit(100.0f64))],
                    predicate: Expr::col(0).eq(Expr::lit(1i64)),
                },
                UpdateOp::Delete {
                    predicate: Expr::col(0).eq(Expr::lit(1i64)),
                },
            ],
        );
        assert_eq!(affected, vec![1, 1]);
        // The scan after the batch's updates reads the post-update
        // snapshot: the row is gone.
        let tuples = scan
            .execute_batch(&[ScanQuery::new(QueryId(9), Expr::col(0).eq(Expr::lit(1i64)))])
            .unwrap();
        assert!(tuples.is_empty());
    }

    #[test]
    fn inserts_visible_to_same_batch_queries() {
        let (catalog, scan) = setup();
        apply(
            &catalog,
            vec![UpdateOp::Insert {
                values: tuple![1000i64, "NEW", 1.0f64],
            }],
        );
        let tuples = scan
            .execute_batch(&[ScanQuery::new(
                QueryId(3),
                Expr::col(1).eq(Expr::lit("NEW")),
            )])
            .unwrap();
        assert_eq!(tuples.len(), 1);
        assert_eq!(tuples[0].tuple[0], Value::Int(1000));
    }

    #[test]
    fn hundreds_of_concurrent_queries_bounded_output() {
        let (_catalog, scan) = setup();
        // 500 concurrent queries, each with a different predicate on PRICE.
        let queries: Vec<ScanQuery> = (0..500u32)
            .map(|i| {
                ScanQuery::new(
                    QueryId(i + 1),
                    Expr::col(2).gt_eq(Expr::lit((i % 10) as f64)),
                )
            })
            .collect();
        let tuples = scan.execute_batch(&queries).unwrap();
        // The number of emitted tuples is bounded by the table size (100),
        // independent of the number of queries — the core SharedDB claim.
        assert_eq!(tuples.len(), 100);
        // Every tuple is annotated with all queries that want it.
        let total_subscriptions: usize = tuples.iter().map(|t| t.queries.len()).sum();
        assert!(total_subscriptions >= 500);
    }

    /// A query pinned to an older snapshot reads that version set even when
    /// the latest snapshot has moved on; unpinned queries of the same batch
    /// read the current state.
    #[test]
    fn pinned_snapshot_reads_older_version_set() {
        let (catalog, scan) = setup();
        let pinned = catalog.oracle().read_ts();
        apply(
            &catalog,
            vec![UpdateOp::Delete {
                predicate: Expr::lit(true),
            }],
        );
        let tuples = scan
            .execute_batch(&[
                ScanQuery::full_scan(QueryId(1)).at_snapshot(Some(pinned)),
                ScanQuery::full_scan(QueryId(2)),
            ])
            .unwrap();
        assert_eq!(
            count(&tuples, 1),
            100,
            "pinned query lost the old version set"
        );
        assert_eq!(count(&tuples, 2), 0, "unpinned query saw resurrected rows");
    }

    /// Segment views split one scan pass into disjoint, complete slices of
    /// the table.
    #[test]
    fn segment_views_are_disjoint_and_complete() {
        let (_catalog, scan) = setup();
        const OF: u32 = 4;
        let mut seen = std::collections::HashSet::new();
        for index in 0..OF {
            let view = SegmentView {
                index,
                of: OF,
                key_columns: vec![0],
            };
            let tuples = scan
                .execute_batch_segmented(&[ScanQuery::full_scan(QueryId(1))], Some(&view))
                .unwrap();
            for t in &tuples {
                assert!(view.contains(&t.tuple));
                assert!(seen.insert(t.tuple[0].clone()), "row in two segments");
            }
        }
        assert_eq!(seen.len(), 100, "segments did not cover the table");
    }

    /// A batch whose every predicate has an indexed conjunct visits only the
    /// index candidates; an unindexed-only query or a range past the cap
    /// sends the batch to the sequential pass.
    #[test]
    fn index_pass_visits_only_candidates() {
        let (catalog, scan) = setup();
        catalog
            .create_index(crate::catalog::IndexDef {
                name: "T_PRICE".into(),
                table: "T".into(),
                column: "PRICE".into(),
            })
            .unwrap();
        let table = scan.table.read();
        let gather = |predicates: &[Expr]| {
            let index = PredicateIndex::build(predicates.iter().map(|p| (QueryId(1), p)));
            index_candidates(&table, &index).map(|c| c.len())
        };
        let price = |op: BinaryOp, v: f64| Expr::col(2).binary(op, Expr::lit(v));
        // Prices 9 and 7 take 10 rows each. The two `>= 9` share a look-up:
        // three look-ups would gather 30 ids, past the cap of 25.
        let selective = [
            price(BinaryOp::GtEq, 9.0),
            price(BinaryOp::GtEq, 9.0).and(Expr::col(1).like(Expr::lit("E%"))),
            price(BinaryOp::Eq, 7.0),
        ];
        assert_eq!(gather(&selective), Some(20));
        let with_unindexed = [price(BinaryOp::Eq, 7.0), Expr::col(1).eq(Expr::lit("ODD"))];
        assert_eq!(gather(&with_unindexed), None);
        // 30 rows pass a quarter of the table's 100 versions.
        assert_eq!(gather(&[price(BinaryOp::Gt, 6.5)]), None);
        assert_eq!(gather(&[price(BinaryOp::Gt, 7.5)]), Some(20));
    }

    #[test]
    fn snapshot_isolation_across_batches() {
        let (catalog, scan) = setup();
        let before = catalog.oracle().read_ts();
        assert_eq!(
            apply(
                &catalog,
                vec![UpdateOp::Delete {
                    predicate: Expr::lit(true),
                }]
            ),
            vec![100]
        );
        // The old snapshot still sees all 100 rows, a new one sees none.
        let at = |snapshot| {
            scan.execute_batch(&[ScanQuery::full_scan(QueryId(1)).at_snapshot(snapshot)])
                .unwrap()
                .len()
        };
        assert_eq!(at(Some(before)), 100);
        assert_eq!(at(None), 0);
    }
}
