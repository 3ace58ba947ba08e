//! Figure 5(b): TX vs locks, single variable, pool size 10.
//!
//! Expected shape (paper): coarse locking yields very poor throughput; fine
//! locking is better but flat/declining beyond ~10 CPUs; transactions grow
//! up to the MCM size (24 CPUs in the tested system), hold steady beyond,
//! and win across the whole range.

#![forbid(unsafe_code)]

use std::time::Instant;
use ztm_bench::{
    bench_tag, cpu_counts, print_header, print_row, reference_throughput, run_pool, sweep,
    write_bench_json_sweep, SweepTable, Timing,
};
use ztm_workloads::pool::SyncMethod;

const METHODS: [SyncMethod; 4] = [
    SyncMethod::CoarseLock,
    SyncMethod::FineLock,
    SyncMethod::Tbeginc,
    SyncMethod::Tbegin,
];

fn main() {
    println!("Fig 5(b): TX vs locks, single variable, pool size 10");
    println!("(normalized: 100 = 2 CPUs, single variable, pool of 1)");
    println!();
    let reference = reference_throughput(42);
    print_header("CPUs", &["CoarseLock", "FineLock", "TBEGINC", "TBEGIN"]);
    let points: Vec<(SyncMethod, usize)> = cpu_counts()
        .into_iter()
        .flat_map(|cpus| METHODS.map(|m| (m, cpus)))
        .collect();
    let results = sweep(points, |&(m, cpus)| {
        let t0 = Instant::now();
        let rep = run_pool(m, cpus, 10, 1, 42);
        (rep, t0.elapsed())
    });
    let mut timing = Timing::default();
    for (rep, wall) in &results {
        timing.add_run(*wall, &rep.system);
    }
    let mut rows = Vec::new();
    for (i, cpus) in cpu_counts().into_iter().enumerate() {
        let row: Vec<f64> = results[4 * i..4 * i + 4]
            .iter()
            .map(|(rep, _)| rep.normalized_throughput(reference))
            .collect();
        print_row(cpus, &row);
        rows.push((cpus, row));
    }
    // The printed figure, exported verbatim (see fig5c).
    let top = rows.last().expect("non-empty sweep").clone();
    let sweep_table = SweepTable {
        x: "cpus",
        series: &["coarse_lock", "fine_lock", "tbeginc", "tbegin"],
        rows,
    };
    println!();
    match write_bench_json_sweep(
        &bench_tag("fig5b_pools"),
        &[
            ("cpus_max", top.0 as f64),
            ("coarse_lock_top", top.1[0]),
            ("fine_lock_top", top.1[1]),
            ("tbeginc_top", top.1[2]),
            ("tbegin_top", top.1[3]),
        ],
        Some(&sweep_table),
        None,
        Some(&timing),
    ) {
        Ok(path) => println!("metrics: {}", path.display()),
        Err(e) => eprintln!("metrics export failed: {e}"),
    }
}
