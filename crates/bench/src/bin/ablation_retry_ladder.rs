//! E4 (ablation): the constrained-transaction retry ladder (§III.E).
//!
//! Millicode escalates retries of a struggling constrained transaction:
//! random back-off → disable speculative fetching → broadcast-stop all
//! other CPUs. This ablation measures an adversarial high-conflict kernel
//! (2 variables from a pool of 8 hot lines — cross-holding deadlocks occur,
//! and prefetched neighbors are hot lines the transaction does not need)
//! under each ladder configuration.

#![forbid(unsafe_code)]

use std::time::Instant;
use ztm_bench::{
    bench_tag, print_header, print_row, quick, sweep, write_bench_json_sweep, SweepTable, Timing,
};
use ztm_core::RetryLadderConfig;
use ztm_sim::{System, SystemConfig};
use ztm_workloads::pool::{PoolLayout, PoolWorkload, SyncMethod};

/// The `RejectHang` abort code (§III.C): a cross-held line that neither
/// side releases ends in one, and the ladder climbs from there.
const REJECT_HANG: u64 = 16;

fn main() {
    println!("E4: constrained-retry ladder ablation — 2 vars, pool 8, TBEGINC");
    println!();
    // 16 CPUs even in quick mode: fewer never climb to the broadcast stage.
    let cpus = 16;
    let ops = if quick() { 40 } else { 80 };
    let configs: [(&str, RetryLadderConfig); 3] = [
        (
            "backoff-only",
            RetryLadderConfig {
                enable_speculation_stage: false,
                enable_broadcast_stage: false,
                ..RetryLadderConfig::zec12()
            },
        ),
        (
            "+no-spec",
            RetryLadderConfig {
                enable_broadcast_stage: false,
                ..RetryLadderConfig::zec12()
            },
        ),
        ("+broadcast", RetryLadderConfig::zec12()),
    ];
    print_header("ladder", &["thpt(x1e4)", "aborts/op", "bcasts"]);
    let results = sweep(configs.to_vec(), |(_, ladder)| {
        let t0 = Instant::now();
        let mut cfg = SystemConfig::with_cpus(cpus).seed(42);
        cfg.engine.retry_ladder = ladder.clone();
        let mut sys = System::new(cfg);
        let wl = PoolWorkload::new(PoolLayout::new(8, 2), SyncMethod::Tbeginc, 42);
        (wl.run(&mut sys, ops), t0.elapsed())
    });
    let mut timing = Timing::default();
    let mut rows = Vec::new();
    for (stages, ((name, _), (rep, wall))) in configs.iter().zip(&results).enumerate() {
        timing.add_run(*wall, &rep.system);
        let row = vec![
            rep.throughput() * 1e4,
            rep.system.tx.aborts as f64 / rep.committed_ops() as f64,
            rep.system.tx.broadcast_stops as f64,
        ];
        print_row(name, &row);
        // Beyond the printed columns: the stiff-armed retries and the
        // hang-avoidance aborts that feed the ladder.
        let hangs = rep.system.tx.aborts_by_code.get(&REJECT_HANG);
        let mut row = row;
        row.extend([rep.system.stalls as f64, hangs.copied().unwrap_or(0) as f64]);
        rows.push((stages + 1, row));
    }
    println!();
    println!("Expected: the no-spec stage cuts aborts per commit (over-marked");
    println!("prefetches stop colliding); broadcast-stop trades a little");
    println!("throughput here for the forward-progress guarantee that");
    println!("dominates under extreme contention (see fig5c).");
    let (backoff, full) = (rows[0].1[0], rows[2].1[0]);
    let sweep_table = SweepTable {
        x: "ladder_stages",
        series: &[
            "thpt",
            "aborts_per_op",
            "broadcast_stops",
            "stalls",
            "reject_hangs",
        ],
        rows,
    };
    match write_bench_json_sweep(
        &bench_tag("ablation_retry_ladder"),
        &[
            ("cpus", cpus as f64),
            ("backoff_only_thpt", backoff),
            ("full_ladder_thpt", full),
        ],
        Some(&sweep_table),
        None,
        Some(&timing),
    ) {
        Ok(path) => println!("metrics: {}", path.display()),
        Err(e) => eprintln!("metrics export failed: {e}"),
    }
}
