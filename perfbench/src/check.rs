//! Correctness checks run after the window, against an independent path:
//! the baseline engine on TPC-W, direct `Table` reads on `adhoc_sql`, and
//! the acknowledged-insert ledger after a restart on the durable workload.

use crate::closed_loop::K;
use crate::workload::{Call, Generator, Request, ADHOC_LIMIT_ROWS};
use shareddb_baseline::{ClassicEngine, EngineProfile};
use shareddb_client::{Connection, Outcome, Prepared};
use shareddb_common::{Error, Result, Value};
use shareddb_storage::Catalog;
use shareddb_tpcw::register_baseline_statements;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Read statements compared per run.
pub const SAMPLED_READS: usize = 200;

/// ITEM column positions used by the ad-hoc check.
const I_ID: usize = 0;
const I_TITLE: usize = 1;
const I_SUBJECT: usize = 3;
const I_COST: usize = 4;
const I_PUB_DATE: usize = 5;

/// Sends every call through the connection, K at a time, and returns the
/// rows.
fn server_rows(
    conn: &mut Connection,
    prepared: &[Prepared],
    calls: &[Call],
) -> Result<Vec<Vec<Vec<Value>>>> {
    let mut out = Vec::with_capacity(calls.len());
    for chunk in calls.chunks(K) {
        let mut tickets = Vec::with_capacity(chunk.len());
        for call in chunk {
            tickets.push(match &call.request {
                Request::Prepared { statement, params } => {
                    conn.submit(&prepared[*statement], params)?
                }
                Request::Sql(sql) => conn.submit_query(sql)?,
            });
        }
        for ticket in tickets {
            out.push(match conn.wait(ticket)? {
                Outcome::Rows(rs) => rs.rows,
                Outcome::Updated { .. } => {
                    return Err(Error::Internal("read answered as update".into()))
                }
            });
        }
    }
    Ok(out)
}

fn sorted(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort();
    rows
}

/// Sampled TPC-W reads: the server over the wire against the baseline engine
/// on the same catalog, compared as multisets. Returns the mismatches.
pub fn tpcw_against_baseline(
    conn: &mut Connection,
    prepared: &[Prepared],
    catalog: &Arc<Catalog>,
    generator: &mut Generator,
) -> Result<Vec<String>> {
    let calls = generator.read_calls(SAMPLED_READS);
    let got = server_rows(conn, prepared, &calls)?;
    let mut baseline = ClassicEngine::start(Arc::clone(catalog), EngineProfile::Tuned, 1);
    register_baseline_statements(&baseline);
    let mut mismatches = Vec::new();
    for (call, rows) in calls.iter().zip(got) {
        let Request::Prepared { statement, params } = &call.request else {
            continue;
        };
        let name = generator.statement_names()[*statement];
        let expected: Vec<Vec<Value>> = baseline
            .execute_sync(name, params)?
            .into_iter()
            .map(|t| t.into_values())
            .collect();
        if sorted(rows.clone()) != sorted(expected.clone()) {
            mismatches.push(format!(
                "{name}{params:?}: server {} rows, baseline {} rows",
                rows.len(),
                expected.len()
            ));
        }
    }
    baseline.shutdown();
    Ok(mismatches)
}

/// Sampled ad-hoc reads against direct reads of the ITEM table. A subject
/// search must return the newest `LIMIT` items of the subject: every item
/// newer than the last returned date, and only items of the subject, in
/// non-increasing date order (ties at the cut may be any of the tied items).
pub fn adhoc_against_table(
    conn: &mut Connection,
    catalog: &Catalog,
    generator: &mut Generator,
) -> Result<Vec<String>> {
    let calls = generator.read_calls(SAMPLED_READS);
    let got = server_rows(conn, &[], &calls)?;
    let table = catalog.table("ITEM")?;
    let table = table.read();
    let snapshot = catalog.snapshot();
    let items: BTreeMap<i64, Vec<Value>> = table
        .scan(snapshot)
        .filter_map(|(_, t)| match t.values()[I_ID] {
            Value::Int(id) => Some((id, t.values().to_vec())),
            _ => None,
        })
        .collect();
    let project =
        |row: &[Value]| vec![row[I_ID].clone(), row[I_TITLE].clone(), row[I_COST].clone()];
    let mut mismatches = Vec::new();
    for (call, rows) in calls.iter().zip(got) {
        let Request::Sql(sql) = &call.request else {
            continue;
        };
        let literal = sql.rsplit(" = ").next().unwrap_or_default();
        if sql.contains("I_SUBJECT") {
            let subject = literal
                .split('\'')
                .nth(1)
                .ok_or_else(|| Error::Internal(format!("no subject in {sql}")))?;
            let subject = Value::text(subject);
            let mut expected: Vec<&Vec<Value>> = items
                .values()
                .filter(|row| row[I_SUBJECT] == subject)
                .collect();
            expected.sort_by(|a, b| b[I_PUB_DATE].cmp(&a[I_PUB_DATE]));
            if let Some(problem) = check_top_n(&rows, &expected, &items, project) {
                mismatches.push(format!("{sql}: {problem}"));
            }
        } else {
            let id: i64 = literal
                .trim()
                .parse()
                .map_err(|_| Error::Internal(format!("no key in {sql}")))?;
            let expected: Vec<Vec<Value>> =
                items.get(&id).map(|r| project(r)).into_iter().collect();
            if rows != expected {
                mismatches.push(format!("{sql}: got {rows:?}, table has {expected:?}"));
            }
        }
    }
    Ok(mismatches)
}

fn check_top_n(
    rows: &[Vec<Value>],
    expected: &[&Vec<Value>],
    items: &BTreeMap<i64, Vec<Value>>,
    project: impl Fn(&[Value]) -> Vec<Value>,
) -> Option<String> {
    let want = expected.len().min(ADHOC_LIMIT_ROWS);
    if rows.len() != want {
        return Some(format!("{} rows, want {want}", rows.len()));
    }
    let last = expected.get(want.wrapping_sub(1))?;
    let cut = &last[I_PUB_DATE];
    let mut previous: Option<&Value> = None;
    for row in rows {
        let full = match row.first() {
            Some(Value::Int(id)) => items.get(id),
            _ => None,
        };
        let Some(full) = full.filter(|f| project(f) == *row) else {
            return Some(format!("row {row:?} is not an item of the table"));
        };
        let date = &full[I_PUB_DATE];
        if !expected.iter().any(|e| e[I_ID] == full[I_ID]) || date < cut {
            return Some(format!("row {row:?} is outside the newest {want}"));
        }
        if previous.is_some_and(|p| p < date) {
            return Some("rows are not in descending date order".into());
        }
        previous = Some(date);
    }
    let newer = expected.iter().filter(|e| &e[I_PUB_DATE] > cut);
    for row in newer {
        let projected = project(row);
        if !rows.contains(&projected) {
            return Some(format!("newer item {projected:?} is missing"));
        }
    }
    None
}

/// Every acknowledged insert must be readable from `catalog`. Returns the
/// missing `(table, key)` pairs, at most a few.
pub fn ledger_readable(catalog: &Catalog, ledger: &[(&'static str, i64)]) -> Result<Vec<String>> {
    let snapshot = catalog.snapshot();
    let mut missing = Vec::new();
    let mut by_table: BTreeMap<&str, Vec<i64>> = BTreeMap::new();
    for (table, key) in ledger {
        by_table.entry(table).or_default().push(*key);
    }
    for (name, keys) in by_table {
        let table = catalog.table(name)?;
        let table = table.read();
        for key in keys {
            if table.lookup_pk(&[Value::Int(key)], snapshot).is_none() {
                missing.push(format!("{name} key {key}"));
            }
        }
    }
    Ok(missing)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(id: i64, date: i64) -> Vec<Value> {
        vec![
            Value::Int(id),
            Value::text(format!("T{id}")),
            Value::Int(0),
            Value::text("ARTS"),
            Value::Float(1.0),
            Value::Date(date),
        ]
    }

    fn project(row: &[Value]) -> Vec<Value> {
        vec![row[I_ID].clone(), row[I_TITLE].clone(), row[I_COST].clone()]
    }

    #[test]
    fn top_n_accepts_any_tie_at_the_cut_and_rejects_a_missing_newer_row() {
        // 49 items newer than the cut date, three tied at it: any one of the
        // tied items may fill the 50th place.
        let mut all: Vec<Vec<Value>> = (0..49).map(|i| item(i, 1000 + i)).collect();
        all.extend((49..52).map(|i| item(i, 10)));
        let items: BTreeMap<i64, Vec<Value>> = all
            .iter()
            .map(|r| match r[0] {
                Value::Int(id) => (id, r.clone()),
                _ => unreachable!(),
            })
            .collect();
        let mut expected: Vec<&Vec<Value>> = all.iter().collect();
        expected.sort_by(|a, b| b[I_PUB_DATE].cmp(&a[I_PUB_DATE]));
        let mut rows: Vec<Vec<Value>> = expected[..49].iter().map(|r| project(r)).collect();
        rows.push(project(&all[51]));
        assert_eq!(check_top_n(&rows, &expected, &items, project), None);

        // Ordered and all from the subject, but the newest item is missing.
        let mut missing_newer = rows[1..].to_vec();
        missing_newer.push(project(&all[50]));
        assert!(check_top_n(&missing_newer, &expected, &items, project).is_some());

        let mut unordered = rows.clone();
        unordered.swap(0, 1);
        assert!(check_top_n(&unordered, &expected, &items, project).is_some());

        assert!(check_top_n(&rows[..49], &expected, &items, project).is_some());
    }
}
