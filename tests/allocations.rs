//! Rejecting a row allocates nothing.
//!
//! A shared scan tests every row of its table against the batch's
//! predicates, so any allocation made per *tested* row scales with the table
//! rather than with the answer. This file installs an allocator that counts
//! the allocations of the current thread and checks that one ClockScan pass
//! with an equality, a range and a `LIKE '%x%'` query allocates as much over
//! 10 000 rows as over 1 000 when both tables produce the same matches.

use shareddb::common::{tuple, DataType, Expr, QueryId};
use shareddb::storage::{Catalog, ClockScan, ScanQuery, TableDef};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting each thread's allocations.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // A const-initialised `Cell` has no destructor, so this neither allocates
    // nor fails during thread teardown.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// meets the `GlobalAlloc` contract; counting touches only a thread-local
// `Cell` and never re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Scans a table of `rows` rows once and returns `(allocations made by the
/// scan, rows emitted)`. Whatever `rows` is, the equality query matches row
/// 7, the range query rows 0–4 and the LIKE query the three rows named
/// `box …`.
fn scan_allocations(rows: i64) -> (u64, usize) {
    let catalog = Catalog::new();
    catalog
        .create_table(
            TableDef::new("T")
                .column("ID", DataType::Int)
                .column("NAME", DataType::Text)
                .column("PRICE", DataType::Float)
                .primary_key(&["ID"]),
        )
        .unwrap();
    catalog
        .bulk_load(
            "T",
            (0..rows)
                .map(|i| {
                    let name = if matches!(i, 299 | 599 | 899) {
                        format!("box {i}")
                    } else {
                        format!("item {i}")
                    };
                    tuple![i, name, (i % 100) as f64]
                })
                .collect(),
        )
        .unwrap();
    let scan = ClockScan::new(catalog.table("T").unwrap(), catalog.oracle());
    let queries = [
        ScanQuery::new(QueryId(1), Expr::col(0).eq(Expr::lit(7i64))),
        ScanQuery::new(QueryId(2), Expr::col(0).lt(Expr::lit(5i64))),
        ScanQuery::new(QueryId(3), Expr::col(1).like(Expr::lit("%x%"))),
    ];
    let before = allocations();
    let tuples = scan.execute_batch(&queries).unwrap();
    let allocated = allocations() - before;
    (allocated, tuples.len())
}

#[test]
fn rejected_rows_allocate_nothing() {
    let (small, small_rows) = scan_allocations(1_000);
    let (large, large_rows) = scan_allocations(10_000);
    assert_eq!(small_rows, 1 + 5 + 3);
    assert_eq!(
        large_rows, small_rows,
        "both tables must produce the same matches"
    );
    assert!(
        large <= small + 8,
        "a scan of 10 000 rows allocated {large} times, one of 1 000 rows {small} times: \
         rejected rows allocate"
    );
}
