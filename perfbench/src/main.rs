//! One-command SharedDB benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <browsing|ordering|item_lookup|adhoc_sql> --seed N --seconds S --trace 0|1
//! ```
//!
//! Starts the TPC-W server in-process, drives one workload over the wire as
//! a closed loop of K = 64 operations in flight on one pipelined connection,
//! checks the answers, and prints every metric by name with its unit. The
//! last line of standard output is one JSON object: with `--trace 0` it
//! holds the end-to-end metrics, with `--trace 1` the per-layer metrics of a
//! traced run, whose spans are written to `perfbench/out/`. See
//! `perfbench/README.md` for the workloads and metric definitions.

mod check;
mod closed_loop;
mod deploy;
mod layers;
mod stats;
mod workload;

use closed_loop::{ClosedLoop, Record, Span, SpanKind};
use deploy::{deploy, out_dir, restart_durable, Deployment, ScratchDir, SetupTimes};
use layers::{ClientSide, Collector};
use stats::{interquartile_mean, mean, median, parts_percentile};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use workload::{Generator, Workload, ADHOC_STATEMENTS};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Clean restarts per in-memory run; `restart_s` is their median.
const RESTARTS: usize = 3;
/// Load before the window, excluded from every number.
const WARM_UP: Duration = Duration::from_secs(2);

/// End-to-end metrics, printed with `--trace 0`, in this order.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("light_p99_ms", "ms"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
    ("restart_s", "s"),
];

/// Per-layer metrics, printed with `--trace 1`, in this order. The
/// `core.op_busy_us.*` entries follow [`layers::OPERATOR_METRICS`].
const PER_LAYER: [(&str, &str); 30] = [
    ("client.submit_us", "us"),
    ("client.failed_frac", "ratio"),
    ("client.latency_samples", "count"),
    ("client.light_samples", "count"),
    ("server.outside_engine_us", "us"),
    ("server.flush_us", "us"),
    ("server.rejected", "count"),
    ("server.start_s", "s"),
    ("core.admission_us", "us"),
    ("core.batch_wait_us", "us"),
    ("core.execute_us", "us"),
    ("core.stmts_per_batch", "count"),
    ("core.op_busy_per_batch_us", "us"),
    ("core.idle_busy_frac", "ratio"),
    ("storage.wal_fsync_us", "us"),
    ("storage.wal_syncs_per_s", "1/s"),
    ("storage.wal_bytes_per_update", "B"),
    ("storage.group_commit_size", "count"),
    ("storage.versions_per_live_row", "ratio"),
    ("storage.pk_lookup_us", "us"),
    ("storage.item_scan_us", "us"),
    ("sql.canonicalize_us", "us"),
    ("sql.compile_s", "s"),
    ("tpcw.load_s", "s"),
    ("tpcw.plan_s", "s"),
    ("trace.ops_per_s_traced", "1/s"),
    ("trace.ops_per_s_untraced", "1/s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.latency_p50_ms", "ms"),
    ("trace.spans", "count"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let workload = Workload::parse(workload).ok_or(format!(
        "unknown workload {workload}; one of: {}",
        Workload::ALL.map(|w| w.name()).join(", ")
    ))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be between 1 and 600".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(result) => {
            let ok = result.correct;
            print!("{}", result.render());
            let _ = std::io::stdout().flush();
            std::process::exit(if ok { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

impl RunResult {
    /// A readable table, then the JSON result as the last line.
    fn render(&self) -> String {
        let mut out = String::new();
        for (name, unit, value) in &self.metrics {
            let _ = writeln!(out, "{name:<42} {value:>16.6} {unit}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
        out
    }
}

/// Looks up every declared metric in `values`, in declared order.
fn declared(
    spec: &[(&'static str, &'static str)],
    values: &[(String, f64)],
) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
    spec.iter()
        .map(|(name, unit)| {
            let value = values
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .ok_or(format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            Ok((*name, *unit, value))
        })
        .collect()
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn run(args: &Args) -> Result<RunResult, String> {
    let workload = args.workload;
    let scratch = ScratchDir::new(workload.name()).map_err(err)?;
    eprintln!(
        "perfbench: {} seed {} for {} s (trace {}), K = {}, {} items, {} replica, heartbeat {}, {}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        closed_loop::K,
        workload::ITEMS,
        1,
        shareddb_core::EngineConfig::default().heartbeat,
        if workload.durable() {
            format!("durable ({:?})", deploy::WAL_SYNC)
        } else {
            "in memory".into()
        },
    );

    let (mut d, setups, data_dir) = set_up(workload, args.seed, &scratch)?;
    let setup_median =
        |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    eprintln!(
        "perfbench: set-up medians: load {:.3} s + plan {:.3} s + start {:.3} s + connect {:.3} s",
        setup_median(|t| t.load_s),
        setup_median(|t| t.plan_s),
        setup_median(|t| t.start_s),
        setup_median(|t| t.connect_s),
    );

    // The window.
    let mut generator = Generator::new(workload, args.seed);
    let mut collector = Collector::new(&d.server, &d.catalog);
    let record = {
        let mut driver = ClosedLoop::new(&mut d.conn, &d.prepared, &mut generator);
        driver.trace = args.trace;
        driver
            .run(WARM_UP, Duration::from_secs(args.seconds), &mut collector)
            .map_err(err)?
    };
    eprintln!(
        "perfbench: window {:.3} s, {} operations attempted, {} failed, {} late",
        record.window_s, record.counts.attempted, record.counts.failed, record.counts.late
    );
    eprintln!(
        "perfbench: ok operations per second: {:?}",
        record.ok_per_second
    );
    for e in &record.error_samples {
        eprintln!("perfbench: error: {e}");
    }

    // Correctness: sampled reads against an independent path.
    let mut check_generator = Generator::new(workload, args.seed.wrapping_add(1));
    let mut mismatches = if workload.tpcw() {
        check::tpcw_against_baseline(&mut d.conn, &d.prepared, &d.catalog, &mut check_generator)
    } else {
        check::adhoc_against_table(&mut d.conn, &d.catalog, &mut check_generator)
    }
    .map_err(err)?;
    mismatches.extend(record.shape_errors.iter().cloned());

    let client = ClientSide {
        window_s: record.window_s,
        ops: record.counts.attempted,
        stmt_latency_mean_us: mean(record.stmt_latency_sum_us, record.stmts),
        submit_mean_us: mean(record.submit_sum_us, record.submits),
    };
    let mut values: Vec<(String, f64)> = Vec::new();
    if args.trace {
        values = layers::window_metrics(collector, &client);
        let (pk_lookup_us, item_scan_us) =
            layers::storage_floors(&d.catalog, args.seed).map_err(err)?;
        let (canonicalize_us, compile_s) = sql_layer(workload, &d, &record)?;
        values.extend([
            ("storage.pk_lookup_us".into(), pk_lookup_us),
            ("storage.item_scan_us".into(), item_scan_us),
            ("sql.canonicalize_us".into(), canonicalize_us),
            ("sql.compile_s".into(), compile_s),
        ]);
    }

    let restart_s = restart(
        workload,
        args.seed,
        d,
        data_dir.as_deref(),
        &record,
        &mut mismatches,
    )?;
    for m in mismatches.iter().take(8) {
        eprintln!("perfbench: MISMATCH {m}");
    }

    let (p50, _, _) = parts_percentile(&record.op_latency_us, 0.50)?;
    let (p99, p99_parts, p99_beyond) = parts_percentile(&record.op_latency_us, 0.99)?;
    let (light_p99, light_parts, light_beyond) = parts_percentile(&record.light_latency_us, 0.99)?;
    let whole_seconds = record.window_s.floor() as usize;
    let per_second: Vec<f64> = (0..whole_seconds)
        .map(|s| record.ok_per_second.get(s).copied().unwrap_or(0) as f64)
        .collect();
    let ops_per_s = interquartile_mean(&per_second);
    eprintln!(
        "perfbench: {} latency samples (p99 median of {} parts, each with at least {} beyond), \
         {} light samples (p99 median of {} parts, each with at least {} beyond), \
         failed_frac {} ({} of {})",
        record.op_latency_us.len(),
        p99_parts,
        p99_beyond,
        record.light_latency_us.len(),
        light_parts,
        light_beyond,
        record.counts.failed_frac(),
        record.counts.failed,
        record.counts.attempted
    );

    if args.trace {
        let spans_path = write_spans(workload, args.seed, &record.spans).map_err(err)?;
        eprintln!(
            "perfbench: wrote {} spans to {}",
            record.spans.len(),
            spans_path.display()
        );
        let traced = record.ok_traced as f64 / record.traced_s.max(1e-9);
        let untraced = record.ok_untraced as f64 / record.untraced_s.max(1e-9);
        values.extend([
            ("client.failed_frac".into(), record.counts.failed_frac()),
            (
                "client.latency_samples".into(),
                record.op_latency_us.len() as f64,
            ),
            (
                "client.light_samples".into(),
                record.light_latency_us.len() as f64,
            ),
            ("server.start_s".into(), setup_median(|t| t.start_s)),
            ("tpcw.load_s".into(), setup_median(|t| t.load_s)),
            ("tpcw.plan_s".into(), setup_median(|t| t.plan_s)),
            ("trace.ops_per_s_traced".into(), traced),
            ("trace.ops_per_s_untraced".into(), untraced),
            (
                "trace.overhead_frac".into(),
                1.0 - traced / untraced.max(1e-9),
            ),
            ("trace.latency_p50_ms".into(), p50 / 1e3),
            ("trace.spans".into(), record.spans.len() as f64),
        ]);
    } else {
        values.extend([
            ("setup_s".into(), setup_median(|t| t.total_s)),
            ("ops_per_s".into(), ops_per_s),
            ("latency_p50_ms".into(), p50 / 1e3),
            ("latency_p99_ms".into(), p99 / 1e3),
            ("light_p99_ms".into(), light_p99 / 1e3),
            ("ok_frac".into(), record.counts.ok_frac()),
            ("peak_rss_mb".into(), peak_rss_mb()?),
            ("restart_s".into(), restart_s),
        ]);
    }
    let spec: Vec<(&'static str, &'static str)> = if args.trace {
        let mut spec = PER_LAYER.to_vec();
        let operators: Vec<(&'static str, &'static str)> = layers::OPERATOR_METRICS
            .iter()
            .map(|name| (*name, "us"))
            .collect();
        spec.extend(operators);
        spec
    } else {
        END_TO_END.to_vec()
    };
    Ok(RunResult {
        correct: mismatches.is_empty(),
        attempted: record.counts.attempted,
        failed: record.counts.failed,
        metrics: declared(&spec, &values)?,
    })
}

/// Sets up [`SETUPS`] times, stopping each deployment before the next, and
/// returns the last one with every set-up's times and its data directory.
fn set_up(
    workload: Workload,
    seed: u64,
    scratch: &ScratchDir,
) -> Result<(Deployment, Vec<SetupTimes>, Option<PathBuf>), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last: Option<(Deployment, Option<PathBuf>)> = None;
    for i in 0..SETUPS {
        if let Some((previous, dir)) = last.take() {
            drop(previous.stop());
            if let Some(dir) = dir {
                let _ = std::fs::remove_dir_all(dir);
            }
        }
        let dir = workload
            .durable()
            .then(|| scratch.path.join(format!("data-{i}")));
        let d = deploy(workload, seed, dir.as_deref()).map_err(err)?;
        times.push(d.times);
        last = Some((d, dir));
    }
    let (d, dir) = last.expect("SETUPS is at least one");
    Ok((d, times, dir))
}

/// Stops the deployment and restarts the server cleanly; returns
/// `restart_s`. The durable workload recovers from its data directory into a
/// schema-only catalog, and every ledgered insert must be readable there. An
/// in-memory server keeps nothing across a restart, so it reloads its data
/// set from the seed, like a set-up.
fn restart(
    workload: Workload,
    seed: u64,
    d: Deployment,
    data_dir: Option<&Path>,
    record: &Record,
    mismatches: &mut Vec<String>,
) -> Result<f64, String> {
    drop(d.stop());
    let Some(dir) = data_dir else {
        let mut times = Vec::with_capacity(RESTARTS);
        for _ in 0..RESTARTS {
            let restarted = deploy(workload, seed, None).map_err(err)?;
            times.push(restarted.times.total_s);
            drop(restarted.stop());
        }
        return Ok(median(&times));
    };
    let restarted = restart_durable(workload, dir).map_err(err)?;
    let missing = check::ledger_readable(&restarted.catalog, &record.ledger).map_err(err)?;
    eprintln!(
        "perfbench: restart recovered {} acknowledged inserts, {} missing",
        record.ledger.len() - missing.len(),
        missing.len()
    );
    if record.ledger.is_empty() {
        mismatches.push("the durable workload acknowledged no inserts".into());
    }
    mismatches.extend(
        missing
            .into_iter()
            .take(8)
            .map(|m| format!("lost insert: {m}")),
    );
    let restart_s = restarted.times.total_s;
    drop(restarted.stop());
    Ok(restart_s)
}

/// `sql` layer: mean `canonicalize` time over the window's SQL texts and the
/// time of `compile_workload` on the ad-hoc statements (0 on TPC-W, which
/// sends no SQL text and compiles nothing).
fn sql_layer(workload: Workload, d: &Deployment, record: &Record) -> Result<(f64, f64), String> {
    if workload.tpcw() {
        return Ok((0.0, 0.0));
    }
    let begun = Instant::now();
    for sql in &record.sql_texts {
        std::hint::black_box(shareddb_sql::compile::canonicalize(std::hint::black_box(
            sql,
        )))
        .map_err(err)?;
    }
    let canonicalize_us =
        begun.elapsed().as_secs_f64() * 1e6 / record.sql_texts.len().max(1) as f64;
    let begun = Instant::now();
    std::hint::black_box(shareddb_sql::compile_workload(
        &d.catalog,
        &ADHOC_STATEMENTS,
    ))
    .map_err(err)?;
    Ok((canonicalize_us, begun.elapsed().as_secs_f64()))
}

/// Writes the spans as JSON lines: an operation span, its statement spans
/// (parent: the operation) and their `client.submit` spans (parent: the
/// statement), all sharing the operation id.
fn write_spans(
    workload: Workload,
    seed: u64,
    spans: &[Span],
) -> std::io::Result<std::path::PathBuf> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("spans-{}-seed{seed}.jsonl", workload.name()));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for span in spans {
        let parent = match span.kind {
            SpanKind::Operation => "null".to_string(),
            SpanKind::Statement => format!("\"operation:{}\"", span.op),
            SpanKind::Submit => format!("\"statement:{}.{}\"", span.op, span.call),
        };
        let id = match span.kind {
            SpanKind::Operation => format!("operation:{}", span.op),
            SpanKind::Statement => format!("statement:{}.{}", span.op, span.call),
            SpanKind::Submit => format!("client.submit:{}.{}", span.op, span.call),
        };
        writeln!(
            out,
            "{{\"name\": \"{}\", \"id\": \"{id}\", \"op\": {}, \"parent\": {parent}, \
             \"start_us\": {:.3}, \"end_us\": {:.3}}}",
            span.kind.name(),
            span.op,
            span.start.as_secs_f64() * 1e6,
            span.end.as_secs_f64() * 1e6
        )?;
    }
    out.flush()?;
    Ok(path)
}

/// Process `VmHWM` (peak resident set), MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(err)?;
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metrics each mode prints are exactly those `BENCHMARK.json`
    /// declares, with the same units.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str| -> String {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let end = json[start..].find(']').expect("section ends") + start;
            json[start..end].to_string()
        };
        let check = |key: &str, spec: &[(&str, &str)]| {
            let text = section(key);
            assert_eq!(text.matches("\"name\"").count(), spec.len(), "{key}");
            for (name, unit) in spec {
                let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(text.contains(&entry), "{key} lacks {entry}");
            }
        };
        check("end_to_end", &END_TO_END);
        let mut per_layer = PER_LAYER.to_vec();
        per_layer.extend(layers::OPERATOR_METRICS.iter().map(|name| (*name, "us")));
        check("per_layer", &per_layer);
        let workloads = section("workloads");
        assert_eq!(workloads.matches("\"name\"").count(), 2);
        for name in workloads.split("\"name\": \"").skip(1) {
            let name = &name[..name.find('"').expect("quoted name")];
            assert!(Workload::parse(name).is_some(), "unknown workload {name}");
        }
    }
}
