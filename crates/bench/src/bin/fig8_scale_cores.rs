//! Figure 8: maximum throughput as a function of the number of CPU cores,
//! for all three mixes and all three systems.
//!
//! The paper varies the server's cores from 1 to 48 with the `maxcpus` kernel
//! parameter; SharedDB uses at most 32 (one per operator). The reproduction
//! varies the engine's core budget (SharedDB) / worker count (baselines) and
//! drives each configuration at a high offered load to measure the maximum
//! sustainable WIPS. SharedDB's core budget sizes its worker pool, which never
//! exceeds the machine's available parallelism, so its points above that
//! count run the same pool. Override points with `FIG8_CORES`
//! (comma-separated).

use shareddb_bench::{bench_duration, bench_scale, env_usize, print_header, SystemUnderTest};
use shareddb_tpcw::{run_workload, DriverConfig, Mix};
use std::time::Duration;

fn core_points() -> Vec<usize> {
    match std::env::var("FIG8_CORES") {
        Ok(v) => v.split(',').filter_map(|s| s.trim().parse().ok()).collect(),
        Err(_) => vec![1, 2, 4, 8, 16, 24],
    }
}

fn main() {
    let scale = bench_scale();
    let duration = bench_duration();
    // Saturating load: enough emulated browsers that every configuration is
    // driven at (or beyond) its capacity.
    let ebs = env_usize("FIG8_EBS", 2_000);
    let think = Duration::from_millis(env_usize("FIG8_THINK_MS", 1_000) as u64);

    eprintln!(
        "# fig8: items={}, duration={:?}, saturating ebs={}",
        scale.items, duration, ebs
    );
    print_header(&["mix", "system", "cores", "max_wips", "timed_out", "failed"]);

    for mix in [Mix::Browsing, Mix::Ordering, Mix::Shopping] {
        for system in SystemUnderTest::all() {
            for &cores in &core_points() {
                let db = system.build(&scale, cores);
                let config = DriverConfig {
                    mix,
                    emulated_browsers: ebs,
                    think_time: think,
                    duration,
                    client_threads: 24,
                    time_limit_scale: 1.0,
                    seed: 8,
                };
                let report = run_workload(db.as_ref(), &scale, &config);
                println!(
                    "{},{},{},{:.1},{},{}",
                    mix.name(),
                    system.label(),
                    cores,
                    report.wips,
                    report.timed_out,
                    report.failed,
                );
            }
        }
    }
}
