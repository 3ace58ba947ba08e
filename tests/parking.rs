//! Parking: a CPU spinning on an unchanged L1 line is taken off the
//! scheduling heap and its repeated loop iterations are retired in closed
//! form; a CPU whose data access was stiff-armed has its identical retries
//! retired in closed form up to its holder's reject budget. It is a
//! host-speed optimization with *zero* simulated effect, and these tests
//! pin that. Each run is compared against a reference run of the same
//! system with the step log on, which keeps parking off: the system
//! reports (bar the parking counters), every core's registers, condition
//! code, program counter, clock, instruction count and stall count, pool
//! sums and per-CPU op cycles must all be equal — and the parked run must
//! actually have parked.

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
    cores: Vec<CoreEnd>,
}

/// One core's end state and its stall count.
#[derive(Debug, PartialEq, Eq)]
struct CoreEnd {
    grs: [u64; 16],
    cc: u8,
    pc: usize,
    clock: u64,
    instructions: u64,
    running: bool,
    stalls: u64,
}

/// A run's host-speed parking counters (zeroed in its [`Outcome`]).
#[derive(Debug, Clone, Copy)]
struct Parking {
    steps: u64,
    loop_parks: u64,
    reparks: u64,
    wakes: u64,
}

/// The outcome of `sys`, and its parking counters.
fn outcome(sys: &System) -> (Outcome, Parking) {
    let report = sys.report();
    let parked = Parking {
        steps: report.parked_steps,
        loop_parks: report.loop_parks,
        reparks: report.reparks,
        wakes: report.wakes,
    };
    let cores = (0..sys.cpus())
        .map(|i| {
            let c = sys.core(i);
            CoreEnd {
                grs: c.grs,
                cc: c.cc,
                pc: c.pc,
                clock: c.clock,
                instructions: c.instructions,
                running: c.is_running(),
                stalls: sys.stalls(i),
            }
        })
        .collect();
    let report = SystemReport {
        parked_steps: 0,
        loop_parks: 0,
        reparks: 0,
        wakes: 0,
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
/// agree. Returns the parked run's parking counters and stall retries.
fn pool_point(method: SyncMethod, vars: usize, pool: u64, cpus: usize, ops: u64) -> (Parking, u64) {
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
    assert_eq!(none.steps, 0, "{point}: the step log must keep parking off");
    assert_eq!(got, want, "{point}");
    assert_eq!(sum, want_sum, "{point}: pool sum");
    assert_eq!(per_cpu, want_cpu, "{point}: per-CPU ops and op cycles");
    assert!(parked.steps > 0, "{point}: nothing parked");
    (parked, got.report.stalls)
}

#[test]
fn coarse_lock_points_match_stepping() {
    for (pool, cpus, ops) in [(10, 2, 40), (10, 20, 6), (10, 100, 1), (1_000, 40, 2)] {
        pool_point(SyncMethod::CoarseLock, 4, pool, cpus, ops);
    }
}

#[test]
fn a_lock_herd_parks_again_from_its_templates() {
    // Each lock handoff wakes the spinners; the losers of the CSG race
    // come back to the loop they confirmed and park again at once.
    let (parked, _) = pool_point(SyncMethod::CoarseLock, 4, 10, 100, 3);
    assert!(parked.reparks > parked.loop_parks, "{parked:?}");
    assert!(parked.wakes >= parked.reparks, "{parked:?}");
}

#[test]
fn coarse_lock_on_a_sparse_pool_parks_most_steps() {
    // The lock holder's pool lines miss; its spinners keep their last
    // non-transactional stores in the gathering store cache all along.
    let (parked, _) = pool_point(SyncMethod::CoarseLock, 4, 10_000, 60, 1);
    let parked = parked.steps;
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

#[test]
fn tbeginc_points_match_stepping() {
    // Contended constrained transactions: most steps are stiff-armed
    // retries, which stall-park.
    for (cpus, ops) in [(6, 12), (20, 4), (40, 2)] {
        pool_point(SyncMethod::Tbeginc, 4, 10, cpus, ops);
    }
}

#[test]
fn tbegin_points_match_stepping() {
    for (cpus, ops) in [(6, 12), (10, 6)] {
        pool_point(SyncMethod::Tbegin, 4, 10, cpus, ops);
    }
}

#[test]
fn tbeginc_at_twenty_cpus_parks_most_stalls() {
    let (parked, stalls) = pool_point(SyncMethod::Tbeginc, 4, 10, 20, 4);
    let parked = parked.steps;
    assert!(parked * 2 > stalls, "{parked} parked of {stalls} stalls");
}

const X: u64 = 0xA0_0000;
const Y: u64 = 0xB0_0000;
const W: u64 = 0xC0_0000;

/// Runs `progs` (one per CPU) to the end twice — reference and parked —
/// and checks they agree. Returns the parked run's outcome and parking
/// counters.
fn compare(progs: &[Program]) -> (Outcome, Parking) {
    let run = |reference: bool| {
        let mut sys = system(SystemConfig::with_cpus(progs.len()), reference);
        for (i, p) in progs.iter().enumerate() {
            sys.load_program(i, p);
        }
        sys.run_until_halt(1_000_000);
        outcome(&sys)
    };
    let (want, none) = run(true);
    let (got, parked) = run(false);
    assert_eq!(none.steps, 0, "the step log must keep parking off");
    assert_eq!(got, want);
    (got, parked)
}

/// In a transaction, stores to `mine`, then loads `theirs` and commits;
/// on abort, halts with the abort-handler clock in R8 and R9 = 1.
fn cross_holder(mine: u64, theirs: u64) -> Program {
    let mut a = Assembler::new(0);
    a.tbegin(TbeginParams::new());
    a.jnz("aborted");
    a.lghi(R1, 1);
    a.stg(R1, MemOperand::absolute(mine));
    a.delay(50);
    a.lg(R2, MemOperand::absolute(theirs));
    a.tend();
    a.halt();
    a.label("aborted");
    a.rdclk(R8);
    a.lghi(R9, 1);
    a.halt();
    a.assemble().unwrap()
}

#[test]
fn a_cross_hold_ends_in_the_same_reject_hang() {
    // Each CPU holds its own line tx-dirty and requests the other's:
    // neither completes an instruction, both stall-park on each other, and
    // only the reject budget ends it — one side's XI is accepted as a
    // `RejectHang` (code 16) and aborts the other at the same clock and
    // step as in the stepped reference.
    let (got, parked) = compare(&[cross_holder(X, Y), cross_holder(Y, X)]);
    assert_eq!(got.report.tx.aborts_by_code.get(&16), Some(&1), "{got:?}");
    assert!(parked.steps > 0, "nothing stall-parked");
    let aborted: Vec<_> = got.cores.iter().filter(|c| c.grs[9] == 1).collect();
    assert!(aborted.len() == 1 && aborted[0].grs[8] > 0, "{got:?}");
    let threshold = u64::from(SystemConfig::with_cpus(2).geometry.xi_reject_threshold);
    assert!(got.report.stalls > threshold, "{got:?}");
}

#[test]
fn a_budget_panic_mid_stall_leaves_a_steppable_system() {
    // The step budget runs out while one side of a cross-hold is still
    // stall-parked: the panic requeues it at its first closed-form retry,
    // retiring none, and running on reaches the stepped reference.
    let progs = [cross_holder(X, Y), cross_holder(Y, X)];
    let (want, _) = compare(&progs);
    let mut sys = System::new(SystemConfig::with_cpus(2));
    for (i, p) in progs.iter().enumerate() {
        sys.load_program(i, p);
    }
    // Ten steps in, CPU 0 is still stall-parked on CPU 1.
    std::panic::catch_unwind(AssertUnwindSafe(|| sys.run_until_halt(10)))
        .expect_err("a 10-step budget must run out");
    assert!(sys.report().steps < want.report.steps);
    assert!((0..2).all(|i| sys.core(i).is_running()));
    sys.run_until_halt(1_000_000);
    assert_eq!(outcome(&sys).0, want);
}

#[test]
fn an_accepted_xi_wakes_a_stalled_cpu() {
    // CPU 0 holds X tx-dirty through a long DELAY (one step, so its reject
    // budget against CPU 1 is not reset). CPU 1 reads W in a transaction,
    // then stalls on X and parks. CPU 2's store to W sends CPU 1 a
    // read-only XI it cannot reject: CPU 1 accepts it, which must wake it
    // so that its next retry takes the conflict abort at the reference's
    // clock — not at its deadline.
    let holder = {
        let mut a = Assembler::new(0);
        a.tbegin(TbeginParams::new());
        a.jnz("out");
        a.lghi(R1, 1);
        a.stg(R1, MemOperand::absolute(X));
        a.delay(5_000);
        a.tend();
        a.label("out");
        a.halt();
        a.assemble().unwrap()
    };
    let reader = {
        let mut a = Assembler::new(0);
        a.delay(1_000);
        a.tbegin(TbeginParams::new());
        a.jnz("aborted");
        a.lg(R2, MemOperand::absolute(W));
        a.lg(R3, MemOperand::absolute(X));
        a.tend();
        a.halt();
        a.label("aborted");
        a.rdclk(R8);
        a.halt();
        a.assemble().unwrap()
    };
    let writer = {
        let mut a = Assembler::new(0);
        a.delay(1_800);
        a.lghi(R1, 7);
        a.stg(R1, MemOperand::absolute(W));
        a.halt();
        a.assemble().unwrap()
    };
    let (got, parked) = compare(&[holder, reader, writer]);
    assert!(parked.steps > 0, "nothing stall-parked");
    // The reader parks at ~1,660 with its deadline at ~2,280; the store
    // to W lands at ~1,810, and the abort handler runs ~270 cycles later.
    let reader = &got.cores[1];
    assert!((1_800..2_300).contains(&reader.grs[8]), "{got:?}");
    assert!(!got.report.tx.aborts_by_code.contains_key(&16), "{got:?}");
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
    assert!(parked.steps > 0, "the pollers never parked");
    assert_eq!(got, want);
    assert!(got.cores[1..].iter().all(|c| c.grs[9] != 0));
}

#[test]
fn a_poller_whose_period_depends_on_the_value_it_discards() {
    // The poller overwrites the value it reads, so every loop head has the
    // same registers whatever `FLAG` holds; only the loop's period (the
    // `DELAY 10`, skipped when it reads 3) tells the values apart. Storing
    // the same value again wakes the pollers, and they park again at once;
    // storing a new one must not let them park again on the old period.
    let poller = {
        let mut a = Assembler::new(0);
        a.label("poll");
        a.lg(R1, MemOperand::absolute(FLAG));
        a.cghi(R1, 9);
        a.jz("out");
        a.cghi(R1, 3);
        a.jz("skip");
        a.delay(10);
        a.label("skip");
        a.lghi(R1, 0);
        a.ltgr(R0, R0);
        a.j("poll");
        a.label("out");
        a.halt();
        a.assemble().unwrap()
    };
    let writer = {
        let mut a = Assembler::new(0);
        for v in [0, 3, 3, 9] {
            a.delay(1_000);
            a.lghi(R1, v);
            a.stg(R1, MemOperand::absolute(FLAG));
        }
        a.halt();
        a.assemble().unwrap()
    };
    let (got, parked) = compare(&[writer, poller.clone(), poller]);
    assert!(parked.reparks >= 2 && parked.loop_parks >= 4, "{parked:?}");
    assert!(got.cores.iter().all(|c| !c.running));
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
    assert!(parked.steps > 0, "nothing parked");
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

/// The fuzzer's data lines (two), and the shared counter its lock and
/// transaction sections update.
const DATA: u64 = 0xD0_0000;
const SHARED: u64 = 0xD1_0000;

/// Lowers a random op stream into CPU `cpu`'s halting program. The body
/// holds access and ALU bursts over the two data lines, transaction
/// begin/end, forward-only conditional branches (labels sit at every op
/// boundary, so targets land anywhere ahead), Figure 1 lock sections and
/// contended TBEGINC and TBEGIN read-modify-writes of `SHARED`; a bounded
/// outer `brctg` loop re-runs it a few times. Every CPU but CPU 0 polls
/// `FLAG` until it reads 2 before starting; CPU 0 stores 0, 1, 1, 0 and 0
/// to it after `lead` cycles, some time apart, and then 2. So multi-CPU
/// cases start with spinners that each store wakes — and then contend on
/// the lock and `SHARED`.
fn random_program(cpu: usize, lead: u64, ops: &[(u8, u8)]) -> Program {
    let mut a = Assembler::new(0);
    if cpu == 0 {
        // Many-waiter release: each store wakes every poller, and one that
        // repeats the value they last read lets them park again at once.
        a.delay(lead);
        for v in [0, 1, 1, 0, 0] {
            a.lghi(R1, v);
            a.stg(R1, MemOperand::absolute(FLAG));
            a.delay(100 + lead / 8);
        }
        a.lghi(R1, 2);
        a.stg(R1, MemOperand::absolute(FLAG));
    } else {
        a.label("flag");
        a.ltg(R1, MemOperand::absolute(FLAG));
        a.cghi(R1, 2);
        a.jz("go");
        a.delay(24);
        a.j("flag");
        a.label("go");
    }
    let mut depth = 0u32;
    a.lghi(R6, 3);
    a.label("loop");
    for (j, &(kind, off)) in ops.iter().enumerate() {
        a.label(&format!("p{j}"));
        let at = |base: u64| MemOperand::absolute(base + (off % 32) as u64 * 8);
        let shared = MemOperand::absolute(SHARED);
        match kind {
            0 => {
                a.lg(R1, at(DATA));
            }
            1 => {
                a.stg(R1, at(DATA));
            }
            2 => {
                a.lg(R2, at(DATA + 0x100));
            }
            3 => {
                a.stg(R2, at(DATA + 0x100));
            }
            4 => {
                a.tbegin(TbeginParams::new());
                depth += 1;
            }
            5 if depth > 0 => {
                a.tend();
                depth -= 1;
            }
            6 if depth == 0 => {
                // Forward-only branch (the program always halts): keyed on
                // the outer loop counter, so the same site is taken in
                // early iterations and falls through in the last one. Only
                // outside a transaction, so a skipped TEND cannot leave one
                // open around a lock section: a transaction spinning on the
                // lock would stiff-arm its holder forever.
                let t = j + 1 + off as usize % (ops.len() - j);
                if t < ops.len() {
                    a.cgij_ge(R6, 2, &format!("p{t}"));
                } else {
                    a.cgij_ge(R6, 2, "end");
                }
            }
            7 if depth == 0 => {
                // Lock section: wait for the lock, take it, update, release.
                let (wait, take) = (format!("w{j}"), format!("t{j}"));
                a.label(&wait);
                a.ltg(R4, MemOperand::absolute(LOCK));
                a.jz(&take);
                a.delay(24);
                a.j(&wait);
                a.label(&take);
                a.lghi(R4, 0);
                a.lghi(R5, 1);
                a.csg(R4, R5, MemOperand::absolute(LOCK));
                a.jnz(&wait);
                a.lg(R5, shared);
                a.aghi(R5, 1);
                a.stg(R5, shared);
                a.lghi(R4, 0);
                a.stg(R4, MemOperand::absolute(LOCK));
            }
            8 if depth == 0 => {
                a.tbeginc(GrSaveMask::ALL);
                a.lg(R5, shared);
                a.aghi(R5, 1);
                a.stg(R5, shared);
                a.tend();
            }
            9 if depth == 0 => {
                let out = format!("x{j}");
                a.tbegin(TbeginParams::new());
                a.jnz(&out);
                a.lg(R5, shared);
                a.aghi(R5, 1);
                a.stg(R5, shared);
                a.tend();
                a.label(&out);
            }
            _ => {
                a.aghi(R3, 1);
            }
        }
    }
    a.label("end");
    while depth > 0 {
        a.tend();
        depth -= 1;
    }
    a.brctg(R6, "loop");
    a.halt();
    a.assemble().expect("random program assembles")
}

/// Every doubleword of the lines the fuzzer's programs touch.
fn touched_memory(sys: &System) -> Vec<u64> {
    [DATA, DATA + 0x100, SHARED, LOCK, FLAG]
        .iter()
        .flat_map(|&line| (0..32).map(move |k| line + k * 8))
        .map(|addr| sys.mem().load_u64(Address::new(addr)))
        .collect()
}

/// Random programs over one to four CPUs must reach the same outcome and
/// memory through `run_until_halt`, which parks, as through a step-logged
/// `step_one` loop, which does not — and enough cases must park that the
/// comparison is not vacuous.
#[test]
fn random_programs_agree_with_stepping() {
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    const CASES: u64 = 96;
    let mut rng = SmallRng::seed_from_u64(0x9A4C);
    let (mut parking_cases, mut reparks) = (0, 0);
    for case in 0..CASES {
        let len = rng.gen_range(1..80usize);
        let ops: Vec<(u8, u8)> = (0..len)
            .map(|_| (rng.gen_range(0..12u8), rng.gen_range(0..=255u8)))
            .collect();
        let cpus = rng.gen_range(1..5usize);
        let lead = rng.gen_range(0..2_000u64);
        let progs: Vec<Program> = (0..cpus).map(|i| random_program(i, lead, &ops)).collect();
        let load = || {
            let mut sys = System::new(SystemConfig::with_cpus(cpus).seed(case));
            for (i, p) in progs.iter().enumerate() {
                sys.load_program(i, p);
            }
            sys
        };
        let mut stepped = load();
        stepped.set_step_log(true);
        let mut steps = 0u64;
        while stepped.step_one().is_some() {
            steps += 1;
            assert!(steps < 2_000_000, "case {case}: failed to halt");
        }
        let mut parked = load();
        parked.run_until_halt(2_000_000);
        let (want, none) = outcome(&stepped);
        let (got, parking) = outcome(&parked);
        assert_eq!(
            none.steps, 0,
            "case {case}: the step log must keep parking off"
        );
        assert_eq!(got, want, "case {case}: {cpus} CPUs, ops {ops:?}");
        assert_eq!(
            touched_memory(&parked),
            touched_memory(&stepped),
            "case {case}: memory"
        );
        parking_cases += u64::from(parking.steps > 0);
        reparks += parking.reparks;
    }
    assert!(
        parking_cases * 3 >= CASES * 2,
        "only {parking_cases} of {CASES} cases parked"
    );
    assert!(reparks > 0, "no case parked again from a template");
}
