//! Figure 5(c): TX vs coarse lock, four variables, pool size 10.
//!
//! Expected shape (paper): transactions win slightly up to ~6 CPUs, but as
//! contention grows the lock wins — a transaction must collect all four
//! lines before committing and is vulnerable while waiting, wasting cache
//! transfers on aborts, whereas a lock holder always finishes. Under
//! extreme contention TBEGINC degrades more gracefully than TBEGIN because
//! the millicode retry ladder turns speculative fetching off (§IV).

#![forbid(unsafe_code)]

use std::time::Instant;
use ztm_bench::{
    bench_tag, cpu_counts, print_header, print_row, reference_throughput, run_pool, sweep,
    write_bench_json_sweep, SweepTable, Timing,
};
use ztm_workloads::pool::SyncMethod;

fn main() {
    println!("Fig 5(c): TX vs coarse lock, 4 variables, pool size 10");
    println!("(normalized: 100 = 2 CPUs, single variable, pool of 1)");
    println!();
    let reference = reference_throughput(42);
    print_header("CPUs", &["Lock", "TBEGINC", "TBEGIN", "abrt%C", "abrt%N"]);
    let points: Vec<(SyncMethod, usize)> = cpu_counts()
        .into_iter()
        .flat_map(|cpus| {
            [
                (SyncMethod::CoarseLock, cpus),
                (SyncMethod::Tbeginc, cpus),
                (SyncMethod::Tbegin, cpus),
            ]
        })
        .collect();
    let results = sweep(points, |&(m, cpus)| {
        let t0 = Instant::now();
        let rep = run_pool(m, cpus, 10, 4, 42);
        (rep, t0.elapsed())
    });
    let mut timing = Timing::default();
    for (rep, wall) in &results {
        timing.add_run(*wall, &rep.system);
    }
    let mut rows = Vec::new();
    for (i, cpus) in cpu_counts().into_iter().enumerate() {
        let [(lock, _), (tbc, _), (tbn, _)] = &results[3 * i..3 * i + 3] else {
            unreachable!()
        };
        let row = vec![
            lock.normalized_throughput(reference),
            tbc.normalized_throughput(reference),
            tbn.normalized_throughput(reference),
            100.0 * tbc.abort_rate(),
            100.0 * tbn.abort_rate(),
        ];
        print_row(cpus, &row);
        rows.push((cpus, row));
    }
    // The printed figure, exported verbatim; CI diffs its non-timing
    // fields against the committed artifact. The headline is the top CPU
    // count's row (series names stay distinct from headline keys).
    let top = rows.last().expect("non-empty sweep").clone();
    let sweep_table = SweepTable {
        x: "cpus",
        series: &[
            "lock",
            "tbeginc",
            "tbegin",
            "abort_pct_tbeginc",
            "abort_pct_tbegin",
        ],
        rows,
    };
    println!();
    match write_bench_json_sweep(
        &bench_tag("fig5c_pools"),
        &[
            ("cpus_max", top.0 as f64),
            ("lock_top", top.1[0]),
            ("tbeginc_top", top.1[1]),
            ("tbegin_top", top.1[2]),
        ],
        Some(&sweep_table),
        None,
        Some(&timing),
    ) {
        Ok(path) => println!("metrics: {}", path.display()),
        Err(e) => eprintln!("metrics export failed: {e}"),
    }
}
