//! Multi-versioned, main-memory tables.
//!
//! Tables store every row version in an append-only arena. A version carries a
//! `[begin, end)` timestamp interval; reads at a snapshot only observe
//! versions whose interval contains the snapshot timestamp (snapshot
//! isolation, Section 4.4). Updates never modify a version in place: they end
//! the old version and append a new one, which keeps concurrent readers of an
//! older snapshot consistent without any locking during the scan itself.

use crate::btree::BTreeIndex;
use crate::mvcc::{Snapshot, TS_INFINITY};
use shareddb_common::ids::Timestamp;
use shareddb_common::{Error, Result, Schema, Tuple, Value};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::ops::{Bound, ControlFlow};

/// Index of a row *version* in the table's version arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RowId(pub u64);

impl RowId {
    #[inline]
    fn idx(self) -> usize {
        self.0 as usize
    }
}

/// One stored row version.
#[derive(Debug, Clone)]
pub struct StoredRow {
    /// The row payload.
    pub values: Tuple,
    /// Commit timestamp of the write that created this version.
    pub begin: Timestamp,
    /// Commit timestamp of the write that superseded / deleted this version
    /// (`TS_INFINITY` while live).
    pub end: Timestamp,
}

impl StoredRow {
    /// True when the version is visible in the given snapshot.
    #[inline]
    pub fn visible(&self, snapshot: Snapshot) -> bool {
        snapshot.sees(self.begin, self.end)
    }

    /// True when the version has not been superseded by any write.
    #[inline]
    pub fn is_live(&self) -> bool {
        self.end == TS_INFINITY
    }
}

/// A secondary index maintained by the table.
struct SecondaryIndex {
    name: String,
    column: usize,
    tree: BTreeIndex,
}

/// A main-memory, multi-versioned table with an optional primary key and any
/// number of secondary B-tree indexes.
pub struct Table {
    name: String,
    schema: Schema,
    /// Columns forming the primary key (empty = no primary key).
    primary_key: Vec<usize>,
    /// Append-only arena of row versions.
    rows: Vec<StoredRow>,
    /// Maps a primary-key value vector to the row id of its *latest* version.
    pk_index: HashMap<Vec<Value>, RowId>,
    /// Secondary indexes. Indexes contain entries for every version; probes
    /// filter by visibility.
    indexes: Vec<SecondaryIndex>,
    /// Largest commit timestamp of any write to the table. A snapshot at or
    /// after it sees exactly the live versions, which is when the
    /// latest-version `pk_index` answers for that snapshot.
    last_commit: Timestamp,
}

impl Table {
    /// Creates an empty table.
    pub fn new(name: impl Into<String>, schema: Schema, primary_key: Vec<usize>) -> Self {
        Table {
            name: name.into(),
            schema,
            primary_key,
            rows: Vec::new(),
            pk_index: HashMap::new(),
            indexes: Vec::new(),
            last_commit: Timestamp(0),
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The primary-key column indices.
    pub fn primary_key(&self) -> &[usize] {
        &self.primary_key
    }

    /// Number of row versions stored (including superseded ones).
    pub fn version_count(&self) -> usize {
        self.rows.len()
    }

    /// Number of live rows.
    pub fn live_count(&self) -> usize {
        self.rows.iter().filter(|r| r.is_live()).count()
    }

    /// Creates a secondary index over a single column and backfills it with
    /// all existing versions.
    pub fn create_index(&mut self, name: impl Into<String>, column: usize) -> Result<()> {
        if column >= self.schema.len() {
            return Err(Error::UnknownColumn(format!("column #{column}")));
        }
        let mut tree = BTreeIndex::new();
        for (i, row) in self.rows.iter().enumerate() {
            tree.insert(row.values[column].sql_key().into_owned(), RowId(i as u64));
        }
        self.indexes.push(SecondaryIndex {
            name: name.into(),
            column,
            tree,
        });
        Ok(())
    }

    /// Names of the secondary indexes.
    pub fn index_names(&self) -> Vec<&str> {
        self.indexes.iter().map(|i| i.name.as_str()).collect()
    }

    /// Returns the column a named index is built on.
    pub fn index_column(&self, name: &str) -> Option<usize> {
        self.indexes
            .iter()
            .find(|i| i.name.eq_ignore_ascii_case(name))
            .map(|i| i.column)
    }

    /// True when some index covers `column`.
    pub fn has_index_on(&self, column: usize) -> bool {
        self.indexes.iter().any(|i| i.column == column)
    }

    /// Position in `columns` of the column an equality look-up should go
    /// through: the single-column primary key when it is there (its hash is
    /// the cheapest path), else the first column with a secondary index;
    /// `None` when no column is indexed.
    pub fn equality_access(&self, columns: &[usize]) -> Option<usize> {
        columns
            .iter()
            .position(|&c| self.primary_key == [c])
            .or_else(|| columns.iter().position(|&c| self.has_index_on(c)))
    }

    /// The `pk_index` key of a row: its primary-key values as
    /// [`Value::sql_key`]s, so keys equal under SQL `=` collide.
    fn pk_values(&self, values: &Tuple) -> Vec<Value> {
        self.primary_key
            .iter()
            .map(|&i| values[i].sql_key().into_owned())
            .collect()
    }

    /// Inserts a new row with the given commit timestamp.
    ///
    /// Fails when the tuple does not match the schema or when a live row with
    /// the same primary key already exists.
    pub fn insert(&mut self, values: Tuple, ts: Timestamp) -> Result<RowId> {
        self.schema.check_tuple(values.values())?;
        if !self.primary_key.is_empty() {
            let key = self.pk_values(&values);
            if let Some(&existing) = self.pk_index.get(&key) {
                if self.rows[existing.idx()].is_live() {
                    return Err(Error::ConstraintViolation(format!(
                        "duplicate primary key in table {}: {:?}",
                        self.name, key
                    )));
                }
            }
        }
        let row_id = RowId(self.rows.len() as u64);
        for index in &mut self.indexes {
            index
                .tree
                .insert(values[index.column].sql_key().into_owned(), row_id);
        }
        if !self.primary_key.is_empty() {
            let key = self.pk_values(&values);
            self.pk_index.insert(key, row_id);
        }
        self.rows.push(StoredRow {
            values,
            begin: ts,
            end: TS_INFINITY,
        });
        self.last_commit = self.last_commit.max(ts);
        Ok(row_id)
    }

    /// Replaces the row version `row_id` with `new_values` at timestamp `ts`.
    /// Returns the id of the new version.
    pub fn update_row(&mut self, row_id: RowId, new_values: Tuple, ts: Timestamp) -> Result<RowId> {
        self.schema.check_tuple(new_values.values())?;
        let old = self
            .rows
            .get(row_id.idx())
            .ok_or_else(|| Error::Internal(format!("invalid row id {row_id:?}")))?;
        if !old.is_live() {
            return Err(Error::Internal(format!(
                "update of non-live row version {row_id:?} in table {}",
                self.name
            )));
        }
        let old_key = self.pk_values(&old.values);
        let new_key = self.pk_values(&new_values);
        if !self.primary_key.is_empty() && old_key != new_key {
            // Primary-key update: treat as delete + insert, enforcing
            // uniqueness of the new key.
            if let Some(&existing) = self.pk_index.get(&new_key) {
                if self.rows[existing.idx()].is_live() && existing != row_id {
                    return Err(Error::ConstraintViolation(format!(
                        "duplicate primary key in table {}: {:?}",
                        self.name, new_key
                    )));
                }
            }
        }
        // End the old version and append the new one.
        self.rows[row_id.idx()].end = ts;
        let new_id = RowId(self.rows.len() as u64);
        for index in &mut self.indexes {
            index
                .tree
                .insert(new_values[index.column].sql_key().into_owned(), new_id);
        }
        if !self.primary_key.is_empty() {
            self.pk_index.insert(new_key, new_id);
            if old_key != self.pk_values(&new_values) {
                // Only remap; the old key still points at the old version for
                // older snapshots, but lookups of the latest state should no
                // longer find it.
                self.pk_index.remove(&old_key);
            }
        }
        self.rows.push(StoredRow {
            values: new_values,
            begin: ts,
            end: TS_INFINITY,
        });
        self.last_commit = self.last_commit.max(ts);
        Ok(new_id)
    }

    /// Deletes the row version `row_id` at timestamp `ts`.
    pub fn delete_row(&mut self, row_id: RowId, ts: Timestamp) -> Result<()> {
        let row = self
            .rows
            .get_mut(row_id.idx())
            .ok_or_else(|| Error::Internal(format!("invalid row id {row_id:?}")))?;
        if !row.is_live() {
            return Err(Error::Internal(format!(
                "delete of non-live row version {row_id:?} in table {}",
                self.name
            )));
        }
        row.end = ts;
        self.last_commit = self.last_commit.max(ts);
        Ok(())
    }

    /// Returns the stored row for a version id.
    pub fn row(&self, row_id: RowId) -> Option<&StoredRow> {
        self.rows.get(row_id.idx())
    }

    /// Returns the visible tuple for a version id under a snapshot.
    pub fn read(&self, row_id: RowId, snapshot: Snapshot) -> Option<&Tuple> {
        self.rows
            .get(row_id.idx())
            .filter(|r| r.visible(snapshot))
            .map(|r| &r.values)
    }

    /// Iterates over all row versions visible in the snapshot.
    pub fn scan(&self, snapshot: Snapshot) -> impl Iterator<Item = (RowId, &Tuple)> + '_ {
        self.rows
            .iter()
            .enumerate()
            .filter(move |(_, r)| r.visible(snapshot))
            .map(|(i, r)| (RowId(i as u64), &r.values))
    }

    /// Iterates over all *live* row versions (the newest state), regardless of
    /// snapshots. Updates and deletes act on live versions because updates are
    /// applied in arrival order against the latest state (Section 4.4).
    pub fn scan_live(&self) -> impl Iterator<Item = (RowId, &Tuple)> + '_ {
        self.rows
            .iter()
            .enumerate()
            .filter(|(_, r)| r.is_live())
            .map(|(i, r)| (RowId(i as u64), &r.values))
    }

    /// Looks up the latest version for a primary key and returns it if it is
    /// visible in the snapshot. Key values match as [`Value::sql_key`]s.
    pub fn lookup_pk(&self, key: &[Value], snapshot: Snapshot) -> Option<(RowId, &Tuple)> {
        let row_id = if key.iter().any(|v| matches!(v.sql_key(), Cow::Owned(_))) {
            let folded: Vec<Value> = key.iter().map(|v| v.sql_key().into_owned()).collect();
            *self.pk_index.get(&folded)?
        } else {
            *self.pk_index.get(key)?
        };
        self.read(row_id, snapshot).map(|t| (row_id, t))
    }

    /// The snapshot that sees exactly the live versions: updates and deletes
    /// select their rows here, because they act on the newest state.
    pub(crate) fn live_snapshot(&self) -> Snapshot {
        Snapshot::at(self.last_commit)
    }

    /// Rows visible in `snapshot` whose `column` is equal to `key` under SQL
    /// `=` ([`Value::sql_eq`]): a NULL key matches nothing, and keys of
    /// comparable types match across types (`Int` against `Date` or
    /// `Float`). Rows come in version order.
    ///
    /// The access path is the primary-key hash when `column` is the
    /// single-column primary key and no write is newer than `snapshot` (the
    /// hash maps keys to their latest version only), else a secondary index
    /// on `column`, else a scan of the snapshot.
    pub fn lookup_eq(
        &self,
        column: usize,
        key: &Value,
        snapshot: Snapshot,
    ) -> Vec<(RowId, &Tuple)> {
        if key.is_null() {
            return Vec::new();
        }
        if self.primary_key == [column] && snapshot.ts >= self.last_commit {
            self.lookup_pk(std::slice::from_ref(key), snapshot)
                .into_iter()
                .collect()
        } else if let Some(index) = self.index_on(column) {
            index
                .tree
                .get(&key.sql_key())
                .iter()
                .filter_map(|&rid| self.read(rid, snapshot).map(|t| (rid, t)))
                .collect()
        } else {
            self.scan(snapshot)
                .filter(|(_, row)| row[column].sql_eq(key))
                .collect()
        }
    }

    /// Rows visible in `snapshot` whose `column` lies between `low` and
    /// `high` under SQL comparison ([`Value::sql_cmp`]): a NULL bound
    /// matches nothing and NULL column values never match. Uses a secondary
    /// index on `column` when there is one (rows in key order), else scans
    /// the snapshot (rows in version order).
    pub fn lookup_range(
        &self,
        column: usize,
        low: Bound<&Value>,
        high: Bound<&Value>,
        snapshot: Snapshot,
    ) -> Vec<(RowId, &Tuple)> {
        let in_range = |row: &Tuple| sql_in_range(&row[column], low, high);
        let mut ids = Vec::new();
        if !self.index_range(column, low, high, usize::MAX, &mut ids) {
            return self
                .scan(snapshot)
                .filter(|(_, row)| in_range(row))
                .collect();
        }
        // The index orders comparable keys as SQL does; the re-check drops
        // NULL keys and keys no bound compares with.
        ids.into_iter()
            .filter_map(|rid| self.read(rid, snapshot).map(|t| (rid, t)))
            .filter(|(_, row)| in_range(row))
            .collect()
    }

    /// Appends to `out`, in key order, the ids of the versions — visible or
    /// not — that the secondary index on `column` files between `low` and
    /// `high`: a superset of the rows [`Table::lookup_range`] returns at any
    /// snapshot. A NULL bound appends nothing, since nothing matches it.
    ///
    /// Returns `false` and leaves `out` as it was when `column` has no
    /// secondary index, or when the range holds more than `cap` versions;
    /// the walk then gives up after reading at most `cap` of them.
    pub(crate) fn index_range(
        &self,
        column: usize,
        low: Bound<&Value>,
        high: Bound<&Value>,
        cap: usize,
        out: &mut Vec<RowId>,
    ) -> bool {
        if [low, high]
            .iter()
            .any(|b| matches!(b, Bound::Included(v) | Bound::Excluded(v) if v.is_null()))
        {
            return true;
        }
        let Some(index) = self.index_on(column) else {
            return false;
        };
        let key = |b: Bound<&Value>| b.map(|v| v.sql_key().into_owned());
        let start = out.len();
        let mut budget = cap;
        let walk =
            index
                .tree
                .visit_range(key(low).as_ref(), key(high).as_ref(), &mut |_, posting| {
                    let Some(left) = budget.checked_sub(posting.len()) else {
                        return ControlFlow::Break(());
                    };
                    budget = left;
                    out.extend_from_slice(posting);
                    ControlFlow::Continue(())
                });
        if walk.is_break() {
            out.truncate(start);
        }
        walk.is_continue()
    }

    fn index_on(&self, column: usize) -> Option<&SecondaryIndex> {
        self.indexes.iter().find(|i| i.column == column)
    }

    /// Approximate memory footprint in bytes (payloads only).
    pub fn heap_size(&self) -> usize {
        self.rows.iter().map(|r| r.values.heap_size()).sum()
    }
}

/// True when `v` lies within the bounds under SQL comparison (NULL never
/// does).
fn sql_in_range(v: &Value, low: Bound<&Value>, high: Bound<&Value>) -> bool {
    if v.is_null() {
        return false;
    }
    let above = match low {
        Bound::Unbounded => true,
        Bound::Included(l) => matches!(v.sql_cmp(l), Some(Ordering::Greater | Ordering::Equal)),
        Bound::Excluded(l) => v.sql_cmp(l) == Some(Ordering::Greater),
    };
    let below = match high {
        Bound::Unbounded => true,
        Bound::Included(h) => matches!(v.sql_cmp(h), Some(Ordering::Less | Ordering::Equal)),
        Bound::Excluded(h) => v.sql_cmp(h) == Some(Ordering::Less),
    };
    above && below
}

impl fmt::Debug for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Table")
            .field("name", &self.name)
            .field("columns", &self.schema.len())
            .field("versions", &self.rows.len())
            .field("indexes", &self.indexes.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shareddb_common::{tuple, Column, DataType};

    fn items_table() -> Table {
        let schema = Schema::new(vec![
            Column::new("ITEM_ID", DataType::Int).with_qualifier("ITEM"),
            Column::new("TITLE", DataType::Text).with_qualifier("ITEM"),
            Column::new("PRICE", DataType::Float).with_qualifier("ITEM"),
        ]);
        Table::new("ITEM", schema, vec![0])
    }

    #[test]
    fn insert_and_snapshot_scan() {
        let mut t = items_table();
        t.insert(tuple![1i64, "Book A", 10.0f64], Timestamp(1))
            .unwrap();
        t.insert(tuple![2i64, "Book B", 20.0f64], Timestamp(2))
            .unwrap();
        // A snapshot at ts=1 sees only the first row.
        assert_eq!(t.scan(Snapshot::at(Timestamp(1))).count(), 1);
        assert_eq!(t.scan(Snapshot::at(Timestamp(2))).count(), 2);
        assert_eq!(t.live_count(), 2);
    }

    #[test]
    fn primary_key_uniqueness() {
        let mut t = items_table();
        t.insert(tuple![1i64, "A", 1.0f64], Timestamp(1)).unwrap();
        let err = t
            .insert(tuple![1i64, "B", 2.0f64], Timestamp(2))
            .unwrap_err();
        assert!(matches!(err, Error::ConstraintViolation(_)));
    }

    #[test]
    fn update_creates_new_version_old_snapshot_unaffected() {
        let mut t = items_table();
        let r1 = t.insert(tuple![1i64, "A", 1.0f64], Timestamp(1)).unwrap();
        let r2 = t
            .update_row(r1, tuple![1i64, "A", 9.0f64], Timestamp(5))
            .unwrap();
        assert_ne!(r1, r2);
        // Old snapshot still reads the old price.
        let old = t.read(r1, Snapshot::at(Timestamp(3))).unwrap();
        assert_eq!(old[2], Value::Float(1.0));
        assert!(t.read(r2, Snapshot::at(Timestamp(3))).is_none());
        // New snapshot reads the new price and exactly one visible version.
        let snap = Snapshot::at(Timestamp(5));
        let visible: Vec<_> = t.scan(snap).collect();
        assert_eq!(visible.len(), 1);
        assert_eq!(visible[0].1[2], Value::Float(9.0));
        // Updating a superseded version is a bug.
        assert!(t
            .update_row(r1, tuple![1i64, "A", 2.0f64], Timestamp(6))
            .is_err());
    }

    #[test]
    fn delete_hides_row_from_later_snapshots() {
        let mut t = items_table();
        let r = t.insert(tuple![1i64, "A", 1.0f64], Timestamp(1)).unwrap();
        t.delete_row(r, Timestamp(4)).unwrap();
        assert_eq!(t.scan(Snapshot::at(Timestamp(3))).count(), 1);
        assert_eq!(t.scan(Snapshot::at(Timestamp(4))).count(), 0);
        assert_eq!(t.live_count(), 0);
        assert!(t.delete_row(r, Timestamp(5)).is_err());
    }

    #[test]
    fn pk_lookup_follows_versions() {
        let mut t = items_table();
        let r1 = t.insert(tuple![7i64, "A", 1.0f64], Timestamp(1)).unwrap();
        t.update_row(r1, tuple![7i64, "A", 2.0f64], Timestamp(3))
            .unwrap();
        let (rid, row) = t
            .lookup_pk(&[Value::Int(7)], Snapshot::at(Timestamp(3)))
            .unwrap();
        assert_eq!(row[2], Value::Float(2.0));
        assert!(rid != r1);
        // At an old snapshot the *latest* version is invisible; the lookup
        // reports nothing (index probes fall back to scans for time travel).
        assert!(t
            .lookup_pk(&[Value::Int(7)], Snapshot::at(Timestamp(2)))
            .is_none());
        assert!(t
            .lookup_pk(&[Value::Int(99)], Snapshot::at(Timestamp(9)))
            .is_none());
    }

    #[test]
    fn secondary_index_lookup_and_range() {
        let mut t = items_table();
        t.create_index("ITEM_PRICE", 2).unwrap();
        for i in 0..100i64 {
            t.insert(
                tuple![i, format!("Book {i}"), (i % 10) as f64],
                Timestamp(1),
            )
            .unwrap();
        }
        let snap = Snapshot::at(Timestamp(1));
        let hits = t.lookup_eq(2, &Value::Float(3.0), snap);
        assert_eq!(hits.len(), 10);
        assert!(hits.iter().all(|(_, r)| r[2] == Value::Float(3.0)));
        let ranged = t.lookup_range(
            2,
            Bound::Included(&Value::Float(8.0)),
            Bound::Unbounded,
            snap,
        );
        assert_eq!(ranged.len(), 20); // prices 8 and 9
        assert!(t.has_index_on(2));
        assert!(!t.has_index_on(1));
        assert_eq!(t.index_column("item_price"), Some(2));
    }

    #[test]
    fn index_respects_visibility() {
        let mut t = items_table();
        t.create_index("ITEM_PRICE", 2).unwrap();
        let r = t.insert(tuple![1i64, "A", 5.0f64], Timestamp(1)).unwrap();
        t.update_row(r, tuple![1i64, "A", 6.0f64], Timestamp(5))
            .unwrap();
        // At ts=2, only the old version (price 5.0) is visible.
        let snap = Snapshot::at(Timestamp(2));
        assert_eq!(t.lookup_eq(2, &Value::Float(5.0), snap).len(), 1);
        assert_eq!(t.lookup_eq(2, &Value::Float(6.0), snap).len(), 0);
        // At ts=5 the situation flips.
        let snap = Snapshot::at(Timestamp(5));
        assert_eq!(t.lookup_eq(2, &Value::Float(5.0), snap).len(), 0);
        assert_eq!(t.lookup_eq(2, &Value::Float(6.0), snap).len(), 1);
    }

    /// Probe look-ups follow SQL `=` and SQL comparison on every access
    /// path: NULL keys and bounds match nothing, NULL values never match,
    /// and an `Int` key finds the `Date` (and `Float`) values it equals.
    #[test]
    fn lookups_follow_sql_comparison() {
        let schema = Schema::new(vec![
            Column::new("ID", DataType::Int),
            Column::nullable("D", DataType::Date),
            Column::nullable("D2", DataType::Date),
        ]);
        let mut t = Table::new("T", schema, vec![0]);
        t.create_index("T_D", 1).unwrap();
        // The schema admits `Int` values in a `Date` column.
        let values = [Value::Date(5), Value::Int(5), Value::Null, Value::Date(9)];
        for (i, v) in values.iter().enumerate() {
            t.insert(
                Tuple::new(vec![Value::Int(i as i64), v.clone(), v.clone()]),
                Timestamp(1),
            )
            .unwrap();
        }
        let snap = Snapshot::at(Timestamp(1));
        let ids = |rows: Vec<(RowId, &Tuple)>| -> Vec<i64> {
            rows.iter().map(|(_, r)| r[0].as_int().unwrap()).collect()
        };
        // Column 1 is indexed, column 2 is not: both paths must agree.
        for column in [1, 2] {
            assert!(t.lookup_eq(column, &Value::Null, snap).is_empty());
            assert_eq!(ids(t.lookup_eq(column, &Value::Int(5), snap)), vec![0, 1]);
            assert_eq!(ids(t.lookup_eq(column, &Value::Date(5), snap)), vec![0, 1]);
            assert_eq!(
                ids(t.lookup_eq(column, &Value::Float(5.0), snap)),
                vec![0, 1]
            );
            assert!(t.lookup_eq(column, &Value::text("5"), snap).is_empty());
            let mut all = ids(t.lookup_range(column, Bound::Unbounded, Bound::Unbounded, snap));
            all.sort_unstable();
            assert_eq!(all, vec![0, 1, 3], "NULL values never lie in a range");
            let low = Value::Int(6);
            assert_eq!(
                ids(t.lookup_range(column, Bound::Included(&low), Bound::Unbounded, snap)),
                vec![3]
            );
            assert!(t
                .lookup_range(
                    column,
                    Bound::Included(&Value::Null),
                    Bound::Unbounded,
                    snap
                )
                .is_empty());
        }
        // `Int` and `Date` primary keys SQL `=` equates collide.
        assert!(t
            .insert(
                tuple![Value::Date(0), Value::Null, Value::Null],
                Timestamp(2)
            )
            .is_err());
        assert_eq!(ids(t.lookup_eq(0, &Value::Date(3), snap)), vec![3]);
    }

    /// The primary-key hash only knows each key's latest version, so a
    /// look-up at a snapshot older than the table's last write reads the
    /// snapshot instead and still finds the version visible there.
    #[test]
    fn pk_lookup_at_an_older_snapshot_finds_the_visible_version() {
        let mut t = items_table();
        let r1 = t.insert(tuple![7i64, "A", 1.0f64], Timestamp(1)).unwrap();
        t.update_row(r1, tuple![7i64, "A", 2.0f64], Timestamp(3))
            .unwrap();
        let old = t.lookup_eq(0, &Value::Int(7), Snapshot::at(Timestamp(2)));
        assert_eq!(old.len(), 1);
        assert_eq!(old[0].1[2], Value::Float(1.0));
        let new = t.lookup_eq(0, &Value::Int(7), t.live_snapshot());
        assert_eq!(new.len(), 1);
        assert_eq!(new[0].1[2], Value::Float(2.0));
        assert!(t.lookup_eq(0, &Value::Int(8), t.live_snapshot()).is_empty());
    }

    #[test]
    fn index_on_unknown_column_fails() {
        let mut t = items_table();
        assert!(t.create_index("BAD", 17).is_err());
    }

    #[test]
    fn schema_validation_on_insert() {
        let mut t = items_table();
        assert!(t.insert(tuple!["oops", "A", 1.0f64], Timestamp(1)).is_err());
        assert!(t.insert(tuple![1i64], Timestamp(1)).is_err());
    }
}
