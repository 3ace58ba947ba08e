//! Spin parking: a CPU spinning on an unchanged L1 line is taken off the
//! scheduling heap and its repeated loop iterations are retired in closed
//! form. It is a host-speed optimization with *zero* simulated effect, and
//! these tests pin that. Each run is compared against a reference run of
//! the same system with the step log on, which keeps parking off: the
//! system reports (bar `parked_steps`), every core's registers, condition
//! code, program counter, clock and instruction count, pool sums and
//! per-CPU op cycles must all be equal — and the parked run must actually
//! have parked.

use std::panic::AssertUnwindSafe;
use ztm::core::{GrSaveMask, TbeginParams};
use ztm::isa::gr::*;
use ztm::isa::{Assembler, MemOperand, Program};
use ztm::mem::Address;
use ztm::sim::{System, SystemConfig, SystemReport};
use ztm::workloads::pool::{PoolLayout, PoolWorkload, SyncMethod};

/// Everything a run leaves behind that parking must not change.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    report: SystemReport,
    cores: Vec<([u64; 16], u8, usize, u64, u64, bool)>,
}

/// The outcome of `sys`, and its `parked_steps` (zeroed in the outcome).
fn outcome(sys: &System) -> (Outcome, u64) {
    let report = sys.report();
    let parked = report.parked_steps;
    let cores = (0..sys.cpus())
        .map(|i| {
            let c = sys.core(i);
            (c.grs, c.cc, c.pc, c.clock, c.instructions, c.is_running())
        })
        .collect();
    let report = SystemReport {
        parked_steps: 0,
        ..report
    };
    (Outcome { report, cores }, parked)
}

/// A system for `cpus` CPUs; `reference` turns the step log on.
fn system(cfg: SystemConfig, reference: bool) -> System {
    let mut sys = System::new(cfg);
    sys.set_step_log(reference);
    sys
}

/// Runs one pool point twice — reference and parked — and checks they
/// agree. Returns the parked run's `parked_steps`.
fn pool_point(method: SyncMethod, vars: usize, pool: u64, cpus: usize, ops: u64) -> u64 {
    let run = |reference: bool| {
        let wl = PoolWorkload::new(PoolLayout::new(pool, vars), method, 7);
        let mut sys = system(SystemConfig::with_cpus(cpus).seed(7), reference);
        let rep = wl.run(&mut sys, ops);
        let (out, parked) = outcome(&sys);
        (out, wl.pool_sum(&sys), rep.per_cpu, parked)
    };
    let (want, want_sum, want_cpu, none) = run(true);
    let (got, sum, per_cpu, parked) = run(false);
    let point = format!("{method:?} pool {pool} x{vars} at {cpus} CPUs");
    assert_eq!(none, 0, "{point}: the step log must keep parking off");
    assert_eq!(got, want, "{point}");
    assert_eq!(sum, want_sum, "{point}: pool sum");
    assert_eq!(per_cpu, want_cpu, "{point}: per-CPU ops and op cycles");
    assert!(parked > 0, "{point}: nothing parked");
    parked
}

#[test]
fn coarse_lock_points_match_stepping() {
    for (pool, cpus, ops) in [(10, 2, 40), (10, 20, 6), (10, 100, 1), (1_000, 40, 2)] {
        pool_point(SyncMethod::CoarseLock, 4, pool, cpus, ops);
    }
}

#[test]
fn coarse_lock_on_a_sparse_pool_parks_most_steps() {
    // The lock holder's pool lines miss; its spinners keep their last
    // non-transactional stores in the gathering store cache all along.
    let parked = pool_point(SyncMethod::CoarseLock, 4, 10_000, 60, 1);
    let steps = {
        let wl = PoolWorkload::new(PoolLayout::new(10_000, 4), SyncMethod::CoarseLock, 7);
        let mut sys = System::new(SystemConfig::with_cpus(60).seed(7));
        wl.run(&mut sys, 1).system.steps
    };
    assert!(parked * 2 > steps, "{parked} of {steps} steps parked");
}

#[test]
fn fine_lock_points_match_stepping() {
    for (pool, cpus, ops) in [(10, 10, 20), (10, 100, 2)] {
        pool_point(SyncMethod::FineLock, 1, pool, cpus, ops);
    }
}

#[test]
fn tbegin_fallback_points_match_stepping() {
    // At >= 20 CPUs on pool 10 the Figure 1 ladder falls back to the lock,
    // and waiting CPUs spin on it outside any transaction.
    for (cpus, ops) in [(20, 6), (100, 1)] {
        pool_point(SyncMethod::Tbegin, 4, 10, cpus, ops);
    }
}

const LOCK: u64 = 0x80_0000;
const FLAG: u64 = 0x90_0000;

/// Holds `LOCK` for `hold` cycles, then releases it and halts.
fn holder(hold: u64) -> Program {
    let mut a = Assembler::new(0);
    a.lghi(R1, 1);
    a.stg(R1, MemOperand::absolute(LOCK));
    a.delay(hold);
    a.lghi(R1, 0);
    a.stg(R1, MemOperand::absolute(LOCK));
    a.halt();
    a.assemble().unwrap()
}

/// Waits for `LOCK` to become free with the Figure 1 loop, then halts
/// with `R9 = 1`. Starts late so the holder takes the lock first.
fn waiter() -> Program {
    let mut a = Assembler::new(0);
    a.delay(200);
    a.label("wait");
    a.ltg(R1, MemOperand::absolute(LOCK));
    a.jz("free");
    a.delay(24);
    a.j("wait");
    a.label("free");
    a.lghi(R9, 1);
    a.halt();
    a.assemble().unwrap()
}

/// Polls `FLAG` until it reads non-zero, then halts with the value in R9.
fn poller() -> Program {
    let mut a = Assembler::new(0);
    a.label("poll");
    a.ltg(R1, MemOperand::absolute(FLAG));
    a.jnz("set");
    a.delay(24);
    a.j("poll");
    a.label("set");
    a.lgr(R9, R1);
    a.halt();
    a.assemble().unwrap()
}

#[test]
fn io_store_after_a_livelock_panic_releases_the_pollers() {
    // Nothing ever sets the flag, so every poller parks and the run panics
    // as a livelock. The panic leaves each poller requeued at the loop head
    // it parked at; an I/O store to the polled line then releases them.
    let mut sys = System::new(SystemConfig::with_cpus(3));
    sys.load_program_all(&poller());
    std::panic::catch_unwind(AssertUnwindSafe(|| sys.run_until_halt(1_000_000)))
        .expect_err("pollers of a flag nothing sets must panic");
    let report = sys.report();
    assert!(report.parked_steps == 0 && report.steps < 100, "{report:?}");
    let head = sys.core(0).pc;
    assert!((0..3).all(|i| sys.core(i).is_running() && sys.core(i).pc == head));
    sys.io_store(Address::new(FLAG), 0x5EED);
    sys.run_until_halt(1_000_000);
    assert!((0..3).all(|i| sys.core(i).gr(R9) == 0x5EED));
}

#[test]
fn tdb_store_to_a_polled_line_releases_the_pollers() {
    // CPU 0 aborts a transaction whose TDB address is the polled line: the
    // TDB store reaches memory without an XI to the pollers' cached copies.
    let aborter = {
        let mut a = Assembler::new(0);
        a.delay(3_000);
        let mut params = TbeginParams::new();
        params.tdb = Some(Address::new(FLAG));
        a.tbegin(params);
        a.jnz("out");
        a.tabort(300);
        a.label("out");
        a.halt();
        a.assemble().unwrap()
    };
    let poller = poller();
    let run = |reference: bool| {
        let mut sys = system(SystemConfig::with_cpus(3), reference);
        sys.load_program(0, &aborter);
        sys.load_program(1, &poller);
        sys.load_program(2, &poller);
        sys.run_until_halt(1_000_000);
        outcome(&sys)
    };
    let (want, _) = run(true);
    let (got, parked) = run(false);
    assert!(parked > 0, "the pollers never parked");
    assert_eq!(got, want);
    assert!(got.cores[1..].iter().all(|c| c.0[9] != 0));
}

#[test]
fn broadcast_stop_wakes_parked_cpus() {
    // CPUs 0-3 run adversarial constrained kernels (two lines updated in
    // opposite orders) that escalate to the broadcast-stop quiesce; CPU 4
    // holds the lock and CPUs 5-7 wait for it, parked meanwhile.
    let kernel = |first: u64, second: u64| {
        let mut a = Assembler::new(0);
        a.lghi(R6, 10);
        a.label("loop");
        a.tbeginc(GrSaveMask::ALL);
        a.lg(R2, MemOperand::absolute(first));
        a.aghi(R2, 1);
        a.stg(R2, MemOperand::absolute(first));
        a.lg(R3, MemOperand::absolute(second));
        a.aghi(R3, 1);
        a.stg(R3, MemOperand::absolute(second));
        a.tend();
        a.brctg(R6, "loop");
        a.halt();
        a.assemble().unwrap()
    };
    let (x, y) = (0xE0_000, 0xE0_100);
    let run = |reference: bool| {
        let mut cfg = SystemConfig::with_cpus(8);
        cfg.engine.retry_ladder.broadcast_stop_after = 2;
        let mut sys = system(cfg, reference);
        for i in 0..4 {
            sys.load_program(
                i,
                &if i % 2 == 0 {
                    kernel(x, y)
                } else {
                    kernel(y, x)
                },
            );
        }
        sys.load_program(4, &holder(200_000));
        for i in 5..8 {
            sys.load_program(i, &waiter());
        }
        sys.run_until_halt(20_000_000);
        outcome(&sys)
    };
    let (want, _) = run(true);
    let (got, parked) = run(false);
    assert!(got.report.tx.broadcast_stops > 0, "no quiesce was taken");
    assert!(parked > 0, "nothing parked");
    assert_eq!(got, want);
}

#[test]
fn a_never_released_lock_still_panics() {
    // CPU 0 takes the lock and halts holding it; CPU 1 spins forever. Once
    // only the parked spinner is left, the run is a livelock and must panic
    // as it always has — without first spinning through the budget.
    let mut a = Assembler::new(0);
    a.lghi(R1, 1);
    a.stg(R1, MemOperand::absolute(LOCK));
    a.halt();
    let mut sys = System::new(SystemConfig::with_cpus(2));
    sys.load_program(0, &a.assemble().unwrap());
    sys.load_program(1, &waiter());
    let budget = 50_000_000;
    let err = std::panic::catch_unwind(AssertUnwindSafe(|| sys.run_until_halt(budget)))
        .expect_err("a livelocked system must panic");
    let msg = err
        .downcast_ref::<String>()
        .expect("formatted panic message");
    assert_eq!(msg, &format!("system did not halt within {budget} steps"));
    assert!(sys.report().steps < budget / 1_000);
    // The spinner is back on the heap: the system can still be stepped.
    assert_eq!(sys.step_many(100), 100);
    assert!(sys.core(1).is_running());
}

/// A one-instruction program halts in exactly one step, which a budget of
/// one step allows ("more than `max_steps`" panics, not "`max_steps`").
#[test]
fn run_until_halt_allows_exactly_max_steps() {
    let mut a = Assembler::new(0);
    a.halt();
    let mut sys = System::new(SystemConfig::with_cpus(1));
    sys.load_program(0, &a.assemble().unwrap());
    sys.run_until_halt(1);
    assert_eq!(sys.report().steps, 1);
    assert!(!sys.any_running());
}

#[test]
#[should_panic(expected = "system did not halt within 1 steps")]
fn run_until_halt_panics_past_max_steps() {
    let mut a = Assembler::new(0);
    a.lghi(R1, 1);
    a.halt();
    let mut sys = System::new(SystemConfig::with_cpus(1));
    sys.load_program(0, &a.assemble().unwrap());
    sys.run_until_halt(1);
}
