//! Running one point the way the figure binaries do, and checking it.
//!
//! A point is one `System` stepped through the workload's own `run`
//! (`PoolWorkload::run`, `HashTable::run`), i.e. `run_until_halt` and one
//! `step_one` per step, on the calling thread.

use crate::points::{
    Kind, Point, POOL_VARS, TABLE_BUCKETS, TABLE_KEYS, TABLE_POPULATED, TABLE_PUT_PERCENT,
};
use crate::spans::Spans;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use ztm_sim::{System, SystemConfig, SystemReport};
use ztm_trace::{Metrics, Recorder, Tracer};
use ztm_workloads::hashtable::HashTable;
use ztm_workloads::pool::{PoolLayout, PoolWorkload};
use ztm_workloads::WorkloadReport;

/// Which points get a recording tracer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tracing {
    /// As the figure binaries do: only the hashtable points.
    Figure,
    /// No point (the hashtable points with their tracer detached).
    Detached,
    /// Every point: the count pass, whose timings are discarded.
    Count,
}

/// What one point produced.
#[derive(Debug, Clone)]
pub struct PointRun {
    /// `System::new` + tracer attach + `program()` + `populate`.
    pub setup: Duration,
    /// The workload's `run` call.
    pub run: Duration,
    /// `Recorder::metrics_json` + `digest` (zero without a recorder).
    pub export: Duration,
    /// The system's counters after the run.
    pub report: SystemReport,
    /// Operations all CPUs completed.
    pub ops: u64,
    /// The recorder's full-stream metrics, when one was attached.
    pub metrics: Option<Metrics>,
    /// Events the ring dropped (zero without a recorder).
    pub dropped: u64,
    /// Fingerprint of the simulated outcome, trace digest included.
    pub fingerprint: u64,
    /// The same without the trace digest: equal with and without a tracer.
    pub sim_fingerprint: u64,
    /// Output checks that failed, one line each.
    pub failures: Vec<String>,
}

/// Runs point `id` with `seed`. `expected` is the fingerprint the point
/// must reproduce, when one is known: the full fingerprint under
/// [`Tracing::Figure`], the simulated-outcome part under the other modes
/// (their recorder set differs, so their digests do).
pub fn run_point(
    id: usize,
    p: &Point,
    seed: u64,
    tracing: Tracing,
    expected: Option<u64>,
    spans: &mut Spans,
) -> PointRun {
    let t0 = Instant::now();
    let cfg = SystemConfig::with_cpus(p.cpus).seed(seed);
    let (mut sys, new_t) = spans.time(id, "sim", "new", || System::new(cfg));
    let attach = match tracing {
        Tracing::Figure => p.traced(),
        Tracing::Detached => false,
        Tracing::Count => true,
    };
    let mut setup = new_t;
    let recorder = attach.then(|| {
        let (tracer, rec) = Tracer::recording(Recorder::DEFAULT_CAPACITY);
        setup += spans
            .time(id, "sim", "set_tracer", || sys.set_tracer(tracer))
            .1;
        rec
    });
    let mut failures = Vec::new();
    let (rep, run) = match p.kind {
        Kind::Pool {
            method,
            pool,
            read_only,
        } => {
            let mut wl = PoolWorkload::new(PoolLayout::new(pool, POOL_VARS), method, seed);
            if read_only {
                wl = wl.read_only();
            }
            setup += spans
                .time(id, "isa", "assemble", || black_box(wl.program(p.ops)))
                .1;
            let (rep, run) = spans.time(id, "sim", "run", || wl.run(&mut sys, p.ops));
            let (sum, _) = spans.time(id, "workloads", "pool_sum", || wl.pool_sum(&sys));
            let want = if read_only {
                0
            } else {
                rep.committed_ops() * POOL_VARS as u64
            };
            if sum != want {
                failures.push(format!("pool sum {sum}, expected {want}"));
            }
            (rep, run)
        }
        Kind::Table { method } => {
            let t = HashTable::new(TABLE_BUCKETS, TABLE_KEYS, TABLE_PUT_PERCENT, method);
            setup += spans
                .time(id, "isa", "assemble", || black_box(t.program(p.ops)))
                .1;
            let keys: Vec<u64> = (0..TABLE_POPULATED).collect();
            setup += spans
                .time(id, "workloads", "populate", || t.populate(&mut sys, &keys))
                .1;
            let (rep, run) = spans.time(id, "sim", "run", || t.run(&mut sys, p.ops));
            let (lost, _) = spans.time(id, "workloads", "lookup", || {
                keys.iter()
                    .filter(|&&k| t.lookup(&sys, k).is_none())
                    .count()
            });
            if lost > 0 {
                failures.push(format!("{lost} populated keys no longer found"));
            }
            (rep, run)
        }
    };
    let (report, _) = spans.time(id, "sim", "report", || sys.report());
    check_ops(p, &rep, &mut failures);
    let (metrics, dropped, digest, export) = match &recorder {
        Some(rec) => export_and_check(id, rec, spans, &mut failures),
        None => (None, 0, 0, Duration::ZERO),
    };
    let (sim_fingerprint, _) =
        spans.time(id, "bench", "fingerprint", || fingerprint(&report, &rep));
    let fingerprint = mix(sim_fingerprint, digest);
    let got = match tracing {
        Tracing::Figure => fingerprint,
        Tracing::Detached | Tracing::Count => sim_fingerprint,
    };
    if let Some(want) = expected.filter(|&want| want != got) {
        failures.push(format!("fingerprint {got:016x}, expected {want:016x}"));
    }
    spans.time(id, "sim", "drop", || drop(sys));
    spans.close_point(id, t0.elapsed());
    PointRun {
        setup,
        run,
        export,
        ops: rep.committed_ops(),
        report,
        metrics,
        dropped,
        fingerprint,
        sim_fingerprint,
        failures,
    }
}

/// Every CPU completed exactly its requested operations.
fn check_ops(p: &Point, rep: &WorkloadReport, failures: &mut Vec<String>) {
    if rep.per_cpu.len() != p.cpus {
        failures.push(format!(
            "{} CPUs reported, {} run",
            rep.per_cpu.len(),
            p.cpus
        ));
    }
    for (cpu, m) in rep.per_cpu.iter().enumerate() {
        if m.ops != p.ops {
            failures.push(format!("cpu {cpu} completed {} of {} ops", m.ops, p.ops));
        }
    }
}

/// The recorder exports the figure binaries write, then the trace
/// invariants on the retained events — only when the ring dropped
/// nothing, since a wrapped ring starts mid-transaction.
fn export_and_check(
    id: usize,
    rec: &Arc<Mutex<Recorder>>,
    spans: &mut Spans,
    failures: &mut Vec<String>,
) -> (Option<Metrics>, u64, u64, Duration) {
    let rec = rec
        .lock()
        .expect("recorder lock poisoned by a panicking run");
    let (json, json_t) = spans.time(id, "trace", "metrics_json", || rec.metrics_json());
    let (digest, digest_t) = spans.time(id, "trace", "digest", || rec.digest());
    black_box(json);
    if rec.dropped() == 0 {
        let (verdict, _) = spans.time(id, "trace", "check_invariants", || {
            ztm_trace::check_invariants(&rec.snapshot())
        });
        if let Err(violations) = verdict {
            failures.push(format!(
                "{} trace invariant violations, first: {}",
                violations.len(),
                violations[0]
            ));
        }
    }
    (
        Some(rec.metrics().clone()),
        rec.dropped(),
        digest,
        json_t + digest_t,
    )
}

/// FNV-1a over the simulated outcome: steps, instructions, cycles, stalls,
/// transaction, XI and STM counters, and every CPU's op count and timed
/// cycles.
pub fn fingerprint(r: &SystemReport, rep: &WorkloadReport) -> u64 {
    let tx = &r.tx;
    let stm = &r.stm;
    let mut words = vec![
        r.steps,
        r.total_instructions,
        r.elapsed_cycles,
        r.stalls,
        tx.tbegins,
        tx.tbegincs,
        tx.nested_begins,
        tx.commits,
        tx.aborts,
        tx.filtered_exceptions,
        tx.os_interruptions,
        tx.broadcast_stops,
        stm.begins,
        stm.commits,
        stm.aborts,
        stm.validation_failures,
        stm.lock_acquires,
        stm.fallbacks,
    ];
    words.extend(r.xi_counts);
    for (code, n) in &tx.aborts_by_code {
        words.extend([*code, *n]);
    }
    for (code, n) in &stm.fallback_codes {
        words.extend([u64::from(*code), *n]);
    }
    for m in &rep.per_cpu {
        words.extend([m.ops, m.op_cycles]);
    }
    words.into_iter().fold(FNV_OFFSET, mix)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn mix(h: u64, word: u64) -> u64 {
    word.to_le_bytes()
        .into_iter()
        .fold(h, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}
