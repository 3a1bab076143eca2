//! Update operations.
//!
//! SharedDB batches updates together with queries: "updates are executed in
//! arrival order as part of the same scan that executes the queries"
//! (Section 4.4). An [`UpdateOp`] is one statement of a batch's writes;
//! [`crate::Catalog::apply_batch`] applies a batch's updates in arrival order
//! under one commit timestamp before the batch's scans and probes read.
//! Writes never touch a stored version in place: an UPDATE installs a new
//! version and a DELETE ends the old one, so rows already handed out keep
//! their values.

use crate::table::{RowId, Table};
use shareddb_common::{BinaryOp, Expr, Result, Tuple, Value};

/// A single data-modification operation against one table.
#[derive(Debug, Clone, PartialEq)]
pub enum UpdateOp {
    /// Insert a fully materialised row.
    Insert {
        /// The row to insert; must match the table schema.
        values: Tuple,
    },
    /// Update all rows matching `predicate`, applying the assignments.
    Update {
        /// `(column index, value expression)` pairs evaluated against the
        /// *old* row.
        assignments: Vec<(usize, Expr)>,
        /// Row filter (bound expression, no parameters).
        predicate: Expr,
    },
    /// Delete all rows matching `predicate`.
    Delete {
        /// Row filter (bound expression, no parameters).
        predicate: Expr,
    },
}

impl UpdateOp {
    /// Short human-readable tag used by logging and statistics.
    pub fn kind(&self) -> &'static str {
        match self {
            UpdateOp::Insert { .. } => "INSERT",
            UpdateOp::Update { .. } => "UPDATE",
            UpdateOp::Delete { .. } => "DELETE",
        }
    }
}

/// Outcome of applying one [`UpdateOp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UpdateResult {
    /// Number of rows inserted, modified or deleted.
    pub rows_affected: usize,
}

impl UpdateResult {
    /// Creates a result.
    pub fn new(rows_affected: usize) -> Self {
        UpdateResult { rows_affected }
    }
}

/// Applies one update to a table at `commit_ts`. Row selection for UPDATE and
/// DELETE statements acts on the *live* (newest) versions — updates are
/// applied in arrival order against the latest state, so an update sees the
/// effect of all earlier updates of the same batch.
pub(crate) fn apply_update(
    table: &mut Table,
    update: &UpdateOp,
    commit_ts: shareddb_common::ids::Timestamp,
) -> Result<UpdateResult> {
    match update {
        UpdateOp::Insert { values } => {
            table.insert(values.clone(), commit_ts)?;
            Ok(UpdateResult::new(1))
        }
        UpdateOp::Update {
            assignments,
            predicate,
        } => {
            // Collect matching live rows first (borrow rules: read
            // immutably, then mutate).
            let matching: Vec<(RowId, Tuple)> = matching_live_rows(table, predicate)
                .into_iter()
                .map(|(rid, row)| (rid, row.clone()))
                .collect();
            let mut affected = 0;
            for (rid, old_row) in matching {
                let mut new_values = old_row.values().to_vec();
                for (col, expr) in assignments {
                    new_values[*col] = expr.eval(&old_row)?;
                }
                table.update_row(rid, Tuple::new(new_values), commit_ts)?;
                affected += 1;
            }
            Ok(UpdateResult::new(affected))
        }
        UpdateOp::Delete { predicate } => {
            let matching: Vec<RowId> = matching_live_rows(table, predicate)
                .into_iter()
                .map(|(rid, _)| rid)
                .collect();
            let mut affected = 0;
            for rid in matching {
                table.delete_row(rid, commit_ts)?;
                affected += 1;
            }
            Ok(UpdateResult::new(affected))
        }
    }
}

/// The live rows, in version order, on which the bound `predicate` of an
/// UPDATE or DELETE holds. A top-level conjunct `column = literal` on the
/// single-column primary key (preferred) or on an indexed column finds the
/// candidates through that index; without one every live row is a
/// candidate. Either way the whole predicate is evaluated on each candidate,
/// and a row the conjunct rejects cannot satisfy the conjunction, so both
/// paths select the same rows.
fn matching_live_rows<'t>(table: &'t Table, predicate: &Expr) -> Vec<(RowId, &'t Tuple)> {
    let matches = |(_, row): &(RowId, &Tuple)| predicate.eval_predicate(row).unwrap_or(false);
    let equalities: Vec<(usize, &Value)> = predicate
        .split_conjuncts()
        .into_iter()
        .filter_map(|c| match c.as_column_literal_cmp() {
            Some((column, BinaryOp::Eq, key)) => Some((column, key)),
            _ => None,
        })
        .collect();
    let columns: Vec<usize> = equalities.iter().map(|(column, _)| *column).collect();
    match table.equality_access(&columns) {
        Some(i) => table
            .lookup_eq(equalities[i].0, equalities[i].1, table.live_snapshot())
            .into_iter()
            .filter(matches)
            .collect(),
        None => table.scan_live().filter(matches).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Catalog, TableDef};
    use crate::{ClockScan, IndexProbe, ProbeQuery, ScanQuery};
    use shareddb_common::{tuple, DataType, QueryId};
    use std::sync::Arc;

    #[test]
    fn kinds() {
        assert_eq!(
            UpdateOp::Insert {
                values: tuple![1i64]
            }
            .kind(),
            "INSERT"
        );
        assert_eq!(
            UpdateOp::Delete {
                predicate: Expr::lit(true)
            }
            .kind(),
            "DELETE"
        );
        assert_eq!(
            UpdateOp::Update {
                assignments: vec![],
                predicate: Expr::lit(true)
            }
            .kind(),
            "UPDATE"
        );
    }

    #[test]
    fn result_accessor() {
        assert_eq!(UpdateResult::new(3).rows_affected, 3);
        assert_eq!(UpdateResult::default().rows_affected, 0);
    }

    /// Scans and probes hand out rows that share their values with the
    /// stored versions. Later writes must not reach those rows: an UPDATE and
    /// a DELETE after the read leave the handed-out rows, and the version set
    /// of the snapshot they were read at, exactly as they were.
    #[test]
    fn writes_leave_rows_already_handed_out_unchanged() {
        let catalog = Catalog::new();
        catalog
            .create_table(
                TableDef::new("T")
                    .column("ID", DataType::Int)
                    .column("NAME", DataType::Text)
                    .primary_key(&["ID"]),
            )
            .unwrap();
        catalog
            .bulk_load("T", vec![tuple![1i64, "one"], tuple![2i64, "two"]])
            .unwrap();
        let table = catalog.table("T").unwrap();
        let scan = ClockScan::new(Arc::clone(&table), catalog.oracle());
        let probe = IndexProbe::new(table, catalog.oracle());
        let s = catalog.oracle().read_ts();
        let scan_at_s = || {
            scan.execute_batch(&[ScanQuery::full_scan(QueryId(1)).at_snapshot(Some(s))])
                .unwrap()
                .into_iter()
                .map(|t| t.tuple)
                .collect::<Vec<Tuple>>()
        };
        let scanned = scan_at_s();
        let probed = probe
            .execute_batch(&[ProbeQuery::key(QueryId(2), 0, Value::Int(2))])
            .unwrap();
        let original = vec![tuple![1i64, "one"], tuple![2i64, "two"]];
        assert_eq!(scanned, original);
        assert_eq!(probed[0].tuple, original[1]);

        catalog
            .apply_batch(&[
                (
                    "T".into(),
                    UpdateOp::Update {
                        assignments: vec![(1, Expr::lit("uno"))],
                        predicate: Expr::col(0).eq(Expr::lit(1i64)),
                    },
                ),
                (
                    "T".into(),
                    UpdateOp::Update {
                        assignments: vec![(1, Expr::lit("dos"))],
                        predicate: Expr::col(0).eq(Expr::lit(2i64)),
                    },
                ),
                (
                    "T".into(),
                    UpdateOp::Delete {
                        predicate: Expr::lit(true),
                    },
                ),
            ])
            .unwrap();

        assert_eq!(scanned, original);
        assert_eq!(probed[0].tuple, original[1]);
        assert_eq!(scan_at_s(), original);
        // The latest snapshot sees the delete.
        assert!(scan
            .execute_batch(&[ScanQuery::full_scan(QueryId(3))])
            .unwrap()
            .is_empty());
    }
}
