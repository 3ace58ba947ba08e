//! E3 (ablation): XI rejection ("stiff-arming", §III.C) on vs off.
//!
//! The paper: "This stiff-arming is very efficient in highly contended
//! transactions." With it disabled, every conflicting XI aborts the target
//! immediately instead of letting it finish.

#![forbid(unsafe_code)]

use std::time::Instant;
use ztm_bench::{
    bench_tag, ops_for, print_header, print_row, quick, sweep, write_bench_json_sweep, SweepTable,
    Timing,
};
use ztm_sim::{System, SystemConfig};
use ztm_workloads::pool::{PoolLayout, PoolWorkload, SyncMethod};

/// The `RejectHang` abort code (§III.C).
const REJECT_HANG: u64 = 16;

fn main() {
    println!("E3: stiff-arming ablation — single variable, pool 10, TBEGIN");
    println!();
    let counts: Vec<usize> = if quick() {
        vec![2, 4, 8]
    } else {
        vec![2, 4, 8, 16, 32]
    };
    let points: Vec<(bool, usize)> = counts
        .iter()
        .flat_map(|&n| [(true, n), (false, n)])
        .collect();
    let results = sweep(points, |&(stiff, cpus)| {
        let t0 = Instant::now();
        let mut cfg = SystemConfig::with_cpus(cpus).seed(42);
        cfg.geometry.stiff_arm = stiff;
        let mut sys = System::new(cfg);
        let wl = PoolWorkload::new(PoolLayout::new(10, 1), SyncMethod::Tbegin, 42);
        let rep = wl.run(&mut sys, ops_for(cpus));
        (rep, t0.elapsed())
    });
    let mut timing = Timing::default();
    for (rep, wall) in &results {
        timing.add_run(*wall, &rep.system);
    }
    print_header("CPUs", &["with (thpt)", "without", "abrt% w", "abrt% w/o"]);
    let mut rows = Vec::new();
    for (i, &n) in counts.iter().enumerate() {
        let [(with, _), (without, _)] = &results[2 * i..2 * i + 2] else {
            unreachable!()
        };
        let row = vec![
            with.throughput() * 1e4,
            without.throughput() * 1e4,
            100.0 * with.abort_rate(),
            100.0 * without.abort_rate(),
        ];
        print_row(n, &row);
        // Beyond the printed columns: the stiff-armed retries and the
        // hang-avoidance aborts they end in, with stiff-arming on.
        let hangs = with.system.tx.aborts_by_code.get(&REJECT_HANG);
        let mut row = row;
        row.extend([
            with.system.stalls as f64,
            hangs.copied().unwrap_or(0) as f64,
        ]);
        rows.push((n, row));
    }
    println!();
    println!("Expected: disabling XI rejection raises the abort rate and lowers");
    println!("throughput under contention.");
    let top = rows.last().expect("non-empty sweep").clone();
    let sweep_table = SweepTable {
        x: "cpus",
        series: &[
            "thpt_with",
            "thpt_without",
            "abort_pct_with",
            "abort_pct_without",
            "stalls_with",
            "reject_hangs_with",
        ],
        rows,
    };
    match write_bench_json_sweep(
        &bench_tag("ablation_stiffarm"),
        &[
            ("cpus_max", top.0 as f64),
            ("with_top", top.1[0]),
            ("without_top", top.1[1]),
        ],
        Some(&sweep_table),
        None,
        Some(&timing),
    ) {
        Ok(path) => println!("metrics: {}", path.display()),
        Err(e) => eprintln!("metrics export failed: {e}"),
    }
}
