//! Figure 5(d): read-write lock vs constrained transactions, four variables
//! read, pool size 10k.
//!
//! Expected shape (paper): the rwlock's reader-count updates ping-pong the
//! lock-word line between CPUs and cap throughput; transactional readers
//! share everything read-only and scale almost linearly.

#![forbid(unsafe_code)]

use std::time::Instant;
use ztm_bench::{
    bench_tag, cpu_counts, ops_for, print_header, print_row, quick, reference_throughput, sweep,
    write_bench_json_sweep, SweepTable, Timing,
};
use ztm_sim::{System, SystemConfig};
use ztm_workloads::rwlock::{ReadMethod, ReadWorkload};

fn main() {
    let pool: u64 = if quick() { 1_000 } else { 10_000 };
    println!("Fig 5(d): R/W lock vs TBEGINC, 4 variables read, pool {pool}");
    println!("(normalized: 100 = 2 CPUs, single variable, pool of 1)");
    println!();
    let reference = reference_throughput(42);
    print_header("CPUs", &["R/W Lock", "TBEGINC"]);
    let points: Vec<(ReadMethod, usize)> = cpu_counts()
        .into_iter()
        .flat_map(|cpus| [(ReadMethod::RwLock, cpus), (ReadMethod::Tbeginc, cpus)])
        .collect();
    let results = sweep(points, |&(m, cpus)| {
        let t0 = Instant::now();
        let wl = ReadWorkload::new(pool, m);
        let mut sys = System::new(SystemConfig::with_cpus(cpus).seed(42));
        let rep = wl.run(&mut sys, ops_for(cpus));
        (rep, t0.elapsed())
    });
    let mut timing = Timing::default();
    for (rep, wall) in &results {
        timing.add_run(*wall, &rep.system);
    }
    let mut rows = Vec::new();
    for (i, cpus) in cpu_counts().into_iter().enumerate() {
        let row: Vec<f64> = results[2 * i..2 * i + 2]
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
        series: &["rwlock", "tbeginc"],
        rows,
    };
    println!();
    match write_bench_json_sweep(
        &bench_tag("fig5d_reads"),
        &[
            ("cpus_max", top.0 as f64),
            ("pool", pool as f64),
            ("rwlock_top", top.1[0]),
            ("tbeginc_top", top.1[1]),
        ],
        Some(&sweep_table),
        None,
        Some(&timing),
    ) {
        Ok(path) => println!("metrics: {}", path.display()),
        Err(e) => eprintln!("metrics export failed: {e}"),
    }
}
