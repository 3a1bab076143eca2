//! Per-layer numbers, measured only from outside the program: counters the
//! modules already expose, read at the window boundaries, and timed calls
//! into the modules' public functions.

use crate::stats::{mean, reduce_name};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shareddb_common::metrics::HistogramSnapshot;
use shareddb_common::Value;
use shareddb_core::stats::{EngineStatsSnapshot, StatementPhaseSnapshot};
use shareddb_core::{AttributionEntry, Phase, IDLE_STATEMENT};
use shareddb_server::Server;
use shareddb_storage::{Catalog, WalStatsSnapshot};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Operators whose busy time per operation is reported, as metric names
/// (`core.op_busy_us.` + the reduced operator name): together they cover at
/// least 90% of operator busy time on some workload.
pub const OPERATOR_METRICS: [&str; 13] = [
    "core.op_busy_us.scan_item_0",
    "core.op_busy_us.scan_author_1",
    "core.op_busy_us.scan_order_line_2",
    "core.op_busy_us.scan_shopping_cart_line_3",
    "core.op_busy_us.probe_item_4",
    "core.op_busy_us.indexnljoin_author_7",
    "core.op_busy_us.topn_8",
    "core.op_busy_us.topn_9",
    "core.op_busy_us.indexnljoin_item_10",
    "core.op_busy_us.hashjoin_12",
    "core.op_busy_us.groupby_13",
    "core.op_busy_us.indexnljoin_author_15",
    "core.op_busy_us.sort_1",
];

/// Counters read at one window boundary.
struct Boundary {
    rejected: u64,
    wal: WalStatsSnapshot,
    versions: BTreeMap<String, (usize, usize)>,
}

impl Boundary {
    fn read(server: &Server, catalog: &Catalog) -> Boundary {
        let versions = catalog
            .table_names()
            .into_iter()
            .filter_map(|name| {
                let table = catalog.table(&name).ok()?;
                let table = table.read();
                let counts = (table.version_count(), table.live_count());
                Some((name, counts))
            })
            .collect();
        Boundary {
            rejected: server.stats().rejected,
            wal: catalog.wal().stats_snapshot(),
            versions,
        }
    }
}

/// What the engine reported for exactly the window.
struct EngineWindow {
    stats: EngineStatsSnapshot,
    phases: Vec<StatementPhaseSnapshot>,
    flush: Vec<StatementPhaseSnapshot>,
    attribution: Vec<AttributionEntry>,
}

/// Reads the window's counters: resets the engine's statistics at window
/// start and snapshots them, and the counters that cannot be reset, at
/// window end.
pub struct Collector<'a> {
    server: &'a Server,
    catalog: &'a Catalog,
    start: Option<Boundary>,
    end: Option<(Boundary, EngineWindow)>,
}

impl<'a> Collector<'a> {
    pub fn new(server: &'a Server, catalog: &'a Catalog) -> Collector<'a> {
        Collector {
            server,
            catalog,
            start: None,
            end: None,
        }
    }
}

impl crate::closed_loop::WindowHooks for Collector<'_> {
    fn window_start(&mut self) {
        self.server.reset_stats();
        self.start = Some(Boundary::read(self.server, self.catalog));
    }

    fn window_end(&mut self) {
        let engine = EngineWindow {
            stats: self.server.engine_stats().unwrap_or_default(),
            phases: merge_replicas(self.server.replica_phase_stats().unwrap_or_default()),
            flush: self.server.flush_phase_stats(),
            attribution: self.server.attribution_stats().unwrap_or_default(),
        };
        self.end = Some((Boundary::read(self.server, self.catalog), engine));
    }
}

fn merge_replicas(replicas: Vec<Vec<StatementPhaseSnapshot>>) -> Vec<StatementPhaseSnapshot> {
    replicas.into_iter().flatten().collect()
}

/// Sum of one phase over every statement type, as exact count and sum.
fn phase_total(snapshots: &[StatementPhaseSnapshot], phase: Phase) -> HistogramSnapshot {
    let mut total = HistogramSnapshot::default();
    for snapshot in snapshots {
        total.merge_from(snapshot.phase(phase));
    }
    total
}

fn hist_mean(h: &HistogramSnapshot) -> f64 {
    mean(h.sum_us as f64, h.count)
}

/// Client-side inputs to the per-layer numbers.
pub struct ClientSide {
    pub window_s: f64,
    pub ops: u64,
    pub stmt_latency_mean_us: f64,
    pub submit_mean_us: f64,
}

/// Computes the per-layer metrics the window's counters give. Returns
/// `(name, value)` pairs; names are completed with the set-up and floor
/// measurements by the caller.
pub fn window_metrics(collector: Collector<'_>, client: &ClientSide) -> Vec<(String, f64)> {
    let (Some(start), Some((end, engine))) = (collector.start, collector.end) else {
        return Vec::new();
    };
    let mut out: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, value: f64| out.push((name.to_string(), value));

    put("client.submit_us", client.submit_mean_us);
    let total = phase_total(&engine.phases, Phase::Total);
    put(
        "server.outside_engine_us",
        client.stmt_latency_mean_us - hist_mean(&total),
    );
    put(
        "server.flush_us",
        hist_mean(&phase_total(&engine.flush, Phase::Flush)),
    );
    put(
        "server.rejected",
        end.rejected.saturating_sub(start.rejected) as f64,
    );

    put(
        "core.admission_us",
        hist_mean(&phase_total(&engine.phases, Phase::Admission)),
    );
    put(
        "core.batch_wait_us",
        hist_mean(&phase_total(&engine.phases, Phase::BatchWait)),
    );
    put(
        "core.execute_us",
        hist_mean(&phase_total(&engine.phases, Phase::Execute)),
    );
    let batches = engine.stats.batches;
    put(
        "core.stmts_per_batch",
        mean(
            (engine.stats.queries + engine.stats.updates) as f64,
            batches,
        ),
    );
    let mut busy_by_op: BTreeMap<String, f64> = BTreeMap::new();
    let mut busy_us = 0.0;
    let mut idle_us = 0.0;
    for entry in &engine.attribution {
        let us = entry.busy.as_secs_f64() * 1e6;
        busy_us += us;
        if entry.statement == IDLE_STATEMENT {
            idle_us += us;
        }
        *busy_by_op.entry(reduce_name(&entry.operator)).or_default() += us;
    }
    put("core.op_busy_per_batch_us", mean(busy_us, batches));
    put(
        "core.idle_busy_frac",
        if busy_us > 0.0 {
            idle_us / busy_us
        } else {
            0.0
        },
    );
    for metric in OPERATOR_METRICS {
        let op = metric.trim_start_matches("core.op_busy_us.");
        let us = busy_by_op.get(op).copied().unwrap_or(0.0);
        put(metric, mean(us, client.ops));
    }
    let mut shares: Vec<(f64, &String)> = busy_by_op.iter().map(|(k, v)| (*v, k)).collect();
    shares.sort_by(|a, b| b.0.total_cmp(&a.0));
    for (us, op) in shares {
        eprintln!(
            "  operator busy share {op}: {:.1}%",
            100.0 * us / busy_us.max(1e-9)
        );
    }

    let fsync = end.wal.fsync_us.diff(&start.wal.fsync_us);
    let group = end.wal.group_commit_size.diff(&start.wal.group_commit_size);
    put("storage.wal_fsync_us", hist_mean(&fsync));
    put(
        "storage.wal_syncs_per_s",
        (end.wal.syncs - start.wal.syncs) as f64 / client.window_s,
    );
    put(
        "storage.wal_bytes_per_update",
        mean(
            (end.wal.appended_bytes - start.wal.appended_bytes) as f64,
            engine.stats.updates,
        ),
    );
    put("storage.group_commit_size", hist_mean(&group));
    let (versions, live) = end
        .versions
        .iter()
        .filter(|(name, counts)| start.versions.get(*name) != Some(counts))
        .fold((0usize, 0usize), |(v, l), (_, (cv, cl))| (v + cv, l + cl));
    put(
        "storage.versions_per_live_row",
        if live > 0 {
            versions as f64 / live as f64
        } else {
            0.0
        },
    );
    out
}

/// Useful-work floors of the storage layer, timed after the window:
/// `Table::lookup_pk` on sampled ITEM keys and one full `Table::scan` of
/// ITEM. Returns `(pk_lookup_us, item_scan_us)`.
pub fn storage_floors(catalog: &Catalog, seed: u64) -> shareddb_common::Result<(f64, f64)> {
    const PROBES: usize = 2_000;
    let table = catalog.table("ITEM")?;
    let table = table.read();
    let snapshot = catalog.snapshot();
    let items = table.live_count() as i64;
    let mut rng = StdRng::seed_from_u64(seed);
    let keys: Vec<[Value; 1]> = (0..PROBES)
        .map(|_| [Value::Int(rng.gen_range(0..items.max(1)))])
        .collect();
    let begun = Instant::now();
    for key in &keys {
        black_box(table.lookup_pk(black_box(key), snapshot));
    }
    let lookup_us = begun.elapsed().as_secs_f64() * 1e6 / PROBES as f64;
    let begun = Instant::now();
    let values: usize = table.scan(snapshot).map(|(_, t)| black_box(t).len()).sum();
    let scan_us = begun.elapsed().as_secs_f64() * 1e6;
    black_box(values);
    Ok((lookup_us, scan_us))
}
