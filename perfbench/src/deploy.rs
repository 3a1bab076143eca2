//! Setting up and restarting the system under test: catalog load, plan
//! build, server start, connect and prepare, each timed.

use crate::closed_loop::K;
use crate::workload::{scale, Workload, ADHOC_STATEMENTS};
use shareddb_client::{Connection, Prepared};
use shareddb_common::Result;
use shareddb_core::EngineConfig;
use shareddb_server::{Server, ServerConfig};
use shareddb_storage::{Catalog, SyncPolicy};
use shareddb_tpcw::{build_catalog, build_shared_plan, create_schema, statement_names};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// WAL flush policy of the durable workload.
pub const WAL_SYNC: SyncPolicy = SyncPolicy::EveryBatch;

/// Times of the set-up pieces, seconds. They add up to `total_s`.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `build_catalog` (or, on restart, `create_schema`).
    pub load_s: f64,
    /// `build_shared_plan` (0 on `adhoc_sql`, whose plan is compiled inside
    /// `Server::start_sql`).
    pub plan_s: f64,
    /// `Server::start` / `Server::start_sql`, including WAL recovery and
    /// compaction on the durable workload.
    pub start_s: f64,
    /// Connect and prepare every statement.
    pub connect_s: f64,
    pub total_s: f64,
}

/// A running server with one connected, prepared client.
pub struct Deployment {
    pub catalog: Arc<Catalog>,
    pub server: Server,
    pub conn: Connection,
    /// Prepared statements in `statement_names()` order (empty on
    /// `adhoc_sql`, which sends SQL text).
    pub prepared: Vec<Prepared>,
    pub times: SetupTimes,
}

fn server_config(data_dir: Option<&Path>) -> ServerConfig {
    ServerConfig {
        // Above K, so the closed loop is never refused by the session limit.
        max_inflight_per_session: 2 * K,
        data_dir: data_dir.map(Path::to_path_buf),
        wal_sync: WAL_SYNC,
        ..ServerConfig::default()
    }
}

/// Builds the workload's catalog from the seed and starts a server over it.
pub fn deploy(workload: Workload, seed: u64, data_dir: Option<&Path>) -> Result<Deployment> {
    let begun = Instant::now();
    let catalog = Arc::new(build_catalog(&scale(seed))?);
    let loaded = Instant::now();
    start(workload, catalog, data_dir, begun, loaded)
}

/// Starts a server over a fresh catalog holding only the TPC-W schema, so
/// that all data comes back from `data_dir`: the clean restart of the
/// durable workload.
pub fn restart_durable(workload: Workload, data_dir: &Path) -> Result<Deployment> {
    let begun = Instant::now();
    let catalog = Catalog::new();
    create_schema(&catalog)?;
    let loaded = Instant::now();
    start(workload, Arc::new(catalog), Some(data_dir), begun, loaded)
}

fn start(
    workload: Workload,
    catalog: Arc<Catalog>,
    data_dir: Option<&Path>,
    begun: Instant,
    loaded: Instant,
) -> Result<Deployment> {
    let config = server_config(data_dir);
    let (server, planned) = if workload.tpcw() {
        let (plan, registry) = build_shared_plan(&catalog)?;
        let planned = Instant::now();
        let server = Server::start(
            Arc::clone(&catalog),
            plan,
            registry,
            EngineConfig::default(),
            config,
        )?;
        (server, planned)
    } else {
        let server = Server::start_sql(
            Arc::clone(&catalog),
            &ADHOC_STATEMENTS,
            EngineConfig::default(),
            config,
        )?;
        (server, loaded)
    };
    let started = Instant::now();
    let mut conn = Connection::connect_named(server.local_addr(), "perfbench")?;
    let prepared = if workload.tpcw() {
        statement_names()
            .into_iter()
            .map(|name| conn.prepare(name))
            .collect::<Result<Vec<_>>>()?
    } else {
        Vec::new()
    };
    let connected = Instant::now();
    Ok(Deployment {
        catalog,
        server,
        conn,
        prepared,
        times: SetupTimes {
            load_s: (loaded - begun).as_secs_f64(),
            plan_s: (planned - loaded).as_secs_f64(),
            start_s: (started - planned).as_secs_f64(),
            connect_s: (connected - started).as_secs_f64(),
            total_s: (connected - begun).as_secs_f64(),
        },
    })
}

impl Deployment {
    /// Closes the connection and shuts the server down.
    pub fn stop(self) -> Arc<Catalog> {
        let Deployment {
            catalog,
            mut server,
            conn,
            ..
        } = self;
        let _ = conn.close();
        server.shutdown();
        catalog
    }
}

/// Where runs write their data directories and span files: `out/` beside
/// this package's manifest.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A scratch directory under [`out_dir`], removed on drop.
pub struct ScratchDir {
    pub path: PathBuf,
}

impl ScratchDir {
    pub fn new(name: &str) -> std::io::Result<ScratchDir> {
        let path = out_dir().join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir { path })
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}
