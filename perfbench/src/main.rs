//! Host-speed benchmark of the ztm simulator.
//!
//! ```text
//! perfbench --workload <lock_spin|tx_pool|hashtable_traced> --seed <n>
//!           --seconds <s> --trace <0|1> [--fingerprints]
//! ```
//!
//! Runs the workload's fixed point list (see `points.rs`) in passes, one
//! point after another on this thread, until `--seconds` have elapsed, and
//! prints one JSON object as the last line of standard output:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` runs the span run and reports the
//! per-layer metrics. `--fingerprints` prints the workload's fingerprint
//! line for `fingerprints.txt` instead. README.md describes every metric.

mod points;
mod probes;
mod report;
mod run;
mod spans;

use points::{Point, Workload};
use run::{run_point, PointRun, Tracing};
use spans::Spans;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Fingerprints recorded per workload and seed, one line each:
/// `<workload> <seed> <hex fingerprint per point...>`.
const RECORDED: &str = include_str!("../fingerprints.txt");

/// Passes every run makes at least, however short `--seconds` is.
const MIN_PASSES: usize = 3;
/// Rounds of (plain, span[, detached]) passes the span run makes at least.
const MIN_ROUNDS: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    fingerprints: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut fingerprints = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--fingerprints" {
            fingerprints = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        fingerprints,
    })
}

/// `System::new` and the figure helpers read `ZTM_*` variables that change
/// what is simulated or how; a run under any of them measures something
/// else, so refuse it.
fn check_environment(names: impl Iterator<Item = String>) -> Result<(), String> {
    let set: Vec<String> = names.filter(|k| k.starts_with("ZTM_")).collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {} set: the benchmark fixes its configuration itself",
            set.join(", ")
        ))
    }
}

/// The fingerprints `table` records for `workload` at `seed`, if any.
fn recorded(table: &str, workload: Workload, seed: u64, points: usize) -> Option<Vec<u64>> {
    table.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        if f.next() != Some(workload.name()) || f.next()? != seed.to_string() {
            return None;
        }
        let fps: Vec<u64> = f
            .map(|h| u64::from_str_radix(h, 16).ok())
            .collect::<Option<_>>()?;
        (fps.len() == points).then_some(fps)
    })
}

/// One pass over the point list.
pub struct Pass {
    /// Per-point results, in list order.
    pub points: Vec<PointRun>,
}

impl Pass {
    fn run(
        list: &[Point],
        seed: u64,
        tracing: Tracing,
        expected: &[Option<u64>],
        spans: &mut Spans,
    ) -> Pass {
        let points = list
            .iter()
            .enumerate()
            .map(|(id, p)| run_point(id, p, seed, tracing, expected[id], spans))
            .collect();
        Pass { points }
    }

    /// Summed `run` wall time.
    pub fn run_s(&self) -> f64 {
        self.points.iter().map(|p| p.run.as_secs_f64()).sum()
    }

    /// Summed set-up wall time.
    pub fn setup_s(&self) -> f64 {
        self.points.iter().map(|p| p.setup.as_secs_f64()).sum()
    }

    /// Summed recorder export time.
    pub fn export_s(&self) -> f64 {
        self.points.iter().map(|p| p.export.as_secs_f64()).sum()
    }

    /// Points that failed any check.
    pub fn failed(&self) -> usize {
        self.points
            .iter()
            .filter(|p| !p.failures.is_empty())
            .count()
    }
}

/// Checks every pass's outcome: later passes must reproduce the first
/// pass's fingerprints when none were recorded for the seed.
struct Expectations {
    full: Vec<Option<u64>>,
    sim: Vec<Option<u64>>,
}

impl Expectations {
    fn new(recorded: Option<Vec<u64>>, points: usize) -> Expectations {
        Expectations {
            full: match recorded {
                Some(fps) => fps.into_iter().map(Some).collect(),
                None => vec![None; points],
            },
            sim: vec![None; points],
        }
    }

    fn for_mode(&self, tracing: Tracing) -> &[Option<u64>] {
        match tracing {
            Tracing::Figure => &self.full,
            Tracing::Detached | Tracing::Count => &self.sim,
        }
    }

    /// Adopts a figure-mode pass's fingerprints where none are set yet.
    fn learn(&mut self, pass: &Pass) {
        for (i, p) in pass.points.iter().enumerate() {
            self.full[i].get_or_insert(p.fingerprint);
            self.sim[i].get_or_insert(p.sim_fingerprint);
        }
    }
}

/// Tallies checks across passes and logs each failure to stderr.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, list: &[Point], pass: &Pass) {
        self.attempted += pass.points.len() as u64;
        self.failed += pass.failed() as u64;
        for (p, r) in list.iter().zip(&pass.points) {
            for f in &r.failures {
                eprintln!("check failed: {}: {f}", p.label());
            }
        }
    }
}

fn main() -> ExitCode {
    let names = std::env::vars_os().filter_map(|(k, _)| k.into_string().ok());
    let args = match check_environment(names).and_then(|()| parse_args()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let list = args.workload.points();
    let recorded = recorded(RECORDED, args.workload, args.seed, list.len());
    let have_recorded = recorded.is_some();
    let mut expect = Expectations::new(recorded, list.len());
    let mut tally = Tally::default();
    let budget = Duration::from_secs_f64(args.seconds);
    let run_pass = |tracing, expect: &Expectations, spans: &mut Spans| {
        Pass::run(&list, args.seed, tracing, expect.for_mode(tracing), spans)
    };

    if args.fingerprints {
        // What this build produces, whatever was recorded before.
        let unrecorded = Expectations::new(None, list.len());
        let pass = run_pass(Tracing::Figure, &unrecorded, &mut Spans::off());
        tally.add(&list, &pass);
        let hex: Vec<String> = pass
            .points
            .iter()
            .map(|p| format!("{:016x}", p.fingerprint))
            .collect();
        println!("{} {} {}", args.workload.name(), args.seed, hex.join(" "));
        return if tally.failed == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let t0 = Instant::now();
    let line = if args.trace {
        let mut plain = Vec::new();
        let mut spanned = Vec::new();
        let mut detached = Vec::new();
        let has_tracer = list.iter().any(Point::traced);
        // Stop before a round would overrun the budget, keeping room for
        // the count pass and the probes (about one more round).
        let mut round = Duration::ZERO;
        while plain.len() < MIN_ROUNDS || t0.elapsed() + 2 * round <= budget {
            let round_start = Instant::now();
            let pass = run_pass(Tracing::Figure, &expect, &mut Spans::off());
            tally.add(&list, &pass);
            expect.learn(&pass);
            plain.push(pass);
            let mut spans = Spans::recording();
            let pass = run_pass(Tracing::Figure, &expect, &mut spans);
            tally.add(&list, &pass);
            spanned.push((pass, spans));
            if has_tracer {
                let pass = run_pass(Tracing::Detached, &expect, &mut Spans::off());
                tally.add(&list, &pass);
                detached.push(pass);
            }
            round = round_start.elapsed();
        }
        // The self-time check: each point's child spans must cover its wall
        // time within the stated tolerance.
        for (_, spans) in &spanned {
            tally.attempted += 1;
            let coverage = spans.min_coverage();
            if coverage < 1.0 - spans::SELF_TIME_TOLERANCE {
                tally.failed += 1;
                eprintln!("check failed: spans cover only {coverage:.4} of a point's wall time");
            }
        }
        let count = run_pass(Tracing::Count, &expect, &mut Spans::off());
        tally.add(&list, &count);
        let probes = probes::run_all(args.seed);
        for p in &probes {
            tally.attempted += 1;
            if let Some(f) = &p.failure {
                tally.failed += 1;
                eprintln!("probe failed: {f}");
            }
        }
        let layers = report::LayerInputs {
            plain: &plain,
            spanned: &spanned,
            detached: &detached,
            count: &count,
            probes: &probes,
            check_fail_share: tally.failed as f64 / tally.attempted as f64,
            fingerprint_recorded: have_recorded,
        };
        report::per_layer(&layers)
    } else {
        let mut passes: Vec<Pass> = Vec::new();
        let mut peak_rss_mb = 0.0;
        // Stop before a pass would overrun the budget.
        let mut last = Duration::ZERO;
        while passes.len() < MIN_PASSES || t0.elapsed() + last <= budget {
            let start = Instant::now();
            let pass = run_pass(Tracing::Figure, &expect, &mut Spans::off());
            last = start.elapsed();
            tally.add(&list, &pass);
            expect.learn(&pass);
            passes.push(pass);
            if passes.len() == 1 {
                // One pass over the list is what a user running it sees;
                // later passes only add allocator fragmentation.
                peak_rss_mb = report::peak_rss_mb();
            }
        }
        report::end_to_end(
            &list,
            &passes,
            peak_rss_mb,
            tally.failed as f64 / tally.attempted as f64,
        )
    };
    eprintln!(
        "perfbench: {} seed {} ({} recorded fingerprints), {} checks, {} failed, {:.1}s",
        args.workload.name(),
        args.seed,
        if have_recorded { "with" } else { "without" },
        tally.attempted,
        tally.failed,
        t0.elapsed().as_secs_f64()
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        line
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use points::Kind;
    use ztm_workloads::hashtable::TableMethod;
    use ztm_workloads::pool::SyncMethod;

    /// Small points of every kind the workloads use, one traced.
    fn tiny() -> Vec<Point> {
        let pool = |method, pool, read_only| Point {
            kind: Kind::Pool {
                method,
                pool,
                read_only,
            },
            cpus: 4,
            ops: 12,
        };
        vec![
            pool(SyncMethod::CoarseLock, 10, false),
            pool(SyncMethod::Tbegin, 10, false),
            pool(SyncMethod::Tbeginc, 1_000, false),
            pool(SyncMethod::Tbeginc, 10, true),
            Point {
                kind: Kind::Table {
                    method: TableMethod::HtmStmFallback,
                },
                cpus: 4,
                ops: 12,
            },
        ]
    }

    fn pass(list: &[Point], seed: u64, expected: &[Option<u64>]) -> Pass {
        Pass::run(list, seed, Tracing::Figure, expected, &mut Spans::off())
    }

    fn fingerprints(p: &Pass) -> Vec<u64> {
        p.points.iter().map(|r| r.fingerprint).collect()
    }

    #[test]
    fn the_same_seed_gives_identical_fingerprints() {
        let list = tiny();
        let none = vec![None; list.len()];
        let a = pass(&list, 7, &none);
        let b = pass(&list, 7, &none);
        assert_eq!(fingerprints(&a), fingerprints(&b));
        assert_eq!(a.failed() + b.failed(), 0);
    }

    #[test]
    fn another_seed_changes_the_fingerprint_and_passes_every_check() {
        let list = tiny();
        let none = vec![None; list.len()];
        let a = pass(&list, 7, &none);
        let b = pass(&list, 8, &none);
        assert_ne!(fingerprints(&a), fingerprints(&b));
        for (p, r) in list.iter().zip(&b.points) {
            assert!(r.failures.is_empty(), "{}: {:?}", p.label(), r.failures);
        }
        // The traced point's invariants were checked, not skipped.
        let traced = b.points.last().expect("a traced point");
        assert!(traced.metrics.is_some() && traced.dropped == 0);
    }

    #[test]
    fn a_corrupted_expectation_is_a_counted_failure() {
        let list = tiny();
        let good = fingerprints(&pass(&list, 7, &vec![None; list.len()]));
        let mut expected: Vec<Option<u64>> = good.into_iter().map(Some).collect();
        expected[1] = expected[1].map(|f| f ^ 1);
        let corrupted = pass(&list, 7, &expected);
        let mut tally = Tally::default();
        tally.add(&list, &corrupted);
        assert_eq!((tally.attempted, tally.failed), (list.len() as u64, 1));
        assert!(corrupted.points[1].failures[0].contains("fingerprint"));
    }

    #[test]
    fn a_detached_tracer_leaves_the_simulated_outcome_unchanged() {
        let list = tiny();
        let none = vec![None; list.len()];
        let figure = pass(&list, 7, &none);
        let expected: Vec<Option<u64>> = figure
            .points
            .iter()
            .map(|r| Some(r.sim_fingerprint))
            .collect();
        let detached = Pass::run(&list, 7, Tracing::Detached, &expected, &mut Spans::off());
        let count = Pass::run(&list, 7, Tracing::Count, &expected, &mut Spans::off());
        assert_eq!(detached.failed() + count.failed(), 0);
    }

    #[test]
    fn recorded_fingerprints_are_found_by_workload_and_seed() {
        let table = "# comment\nlock_spin 3 00000000000000ff 0a\ntx_pool 3 01\n";
        assert_eq!(
            recorded(table, Workload::LockSpin, 3, 2),
            Some(vec![0xff, 0x0a])
        );
        assert_eq!(recorded(table, Workload::LockSpin, 4, 2), None);
        // A line for another point count is stale, not a match.
        assert_eq!(recorded(table, Workload::TxPool, 3, 2), None);
    }

    #[test]
    fn every_recorded_line_names_a_workload_and_matches_its_point_count() {
        for line in RECORDED.lines().filter(|l| !l.starts_with('#')) {
            let mut f = line.split_whitespace();
            let w = Workload::from_name(f.next().expect("workload")).expect("known workload");
            let seed: u64 = f.next().expect("seed").parse().expect("numeric seed");
            assert!(
                recorded(RECORDED, w, seed, w.points().len()).is_some(),
                "{line}"
            );
        }
    }

    #[test]
    fn ztm_variables_refuse_the_run() {
        let ok = ["PATH", "HOME"].map(String::from);
        assert!(check_environment(ok.into_iter()).is_ok());
        let bad = ["PATH", "ZTM_QUICK"].map(String::from);
        let err = check_environment(bad.into_iter()).unwrap_err();
        assert!(err.contains("ZTM_QUICK"), "{err}");
    }
}
