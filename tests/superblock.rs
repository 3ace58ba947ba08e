//! Differential tests for superblock stepping.
//!
//! Superblock stepping (`System::set_superblocks`, escape hatch
//! `ZTM_NO_SUPERBLOCK=1`) executes a straight-line decoded region as one
//! scheduler event instead of one event per instruction. It is a host-speed
//! optimization with *zero* simulated effect, and these tests pin that: a
//! superblock system and a scalar system must agree on every single step
//! (scheduled CPU, `StepOutcome`, broadcast-stop), on the full
//! `StepLogEntry` stream, and on the trace digest — including when a
//! `step_many` budget or a `run_for_cycles` horizon lands in the middle of
//! a block.

use proptest::prelude::*;
use std::sync::{Arc, Mutex};
use ztm::core::TbeginParams;
use ztm::isa::gr::*;
use ztm::isa::{Assembler, MemOperand, Program};
use ztm::sim::{System, SystemConfig};
use ztm::trace::{Recorder, Tracer};
use ztm::workloads::hashtable::{HashTable, TableMethod};

/// A program shaped to exercise every superblock boundary: long
/// straight-line bursts (the batched case), contended read-modify-writes
/// (stalls break blocks), a transaction with an abort fallback (TX ops are
/// singleton blocks; aborts bail mid-block), taken and fall-through
/// branches, and a delay (a large clock jump that crosses stop keys).
fn mixed_program() -> Program {
    let mut a = Assembler::new(0);
    a.lghi(R6, 200);
    a.label("loop");
    // A long straight-line burst over one line — the batched case.
    for k in 0..6 {
        a.lg(R1, MemOperand::absolute(0x8000 + k * 8));
    }
    // Contended read-modify-write on a shared line (XI stalls mid-block).
    a.lg(R2, MemOperand::absolute(0x1000));
    a.aghi(R2, 1);
    a.stg(R2, MemOperand::absolute(0x1000));
    // The Figure 1 elision shape: TX boundaries are singleton blocks and
    // the abort path branches out of the straight line.
    a.tbegin(TbeginParams::new());
    a.jnz("fallback");
    a.ltg(R3, MemOperand::absolute(0x2000));
    a.jnz("fallback");
    a.lg(R4, MemOperand::absolute(0x3000));
    a.aghi(R4, 1);
    a.stg(R4, MemOperand::absolute(0x3000));
    a.tend();
    a.j("joined");
    a.label("fallback");
    a.ppa(R0);
    a.delay(16);
    a.label("joined");
    a.brctg(R6, "loop");
    a.halt();
    a.assemble().expect("mixed program assembles")
}

/// Builds a multi-CPU system running [`mixed_program`] with a recording
/// tracer, superblocks on or off.
fn mixed_system(cpus: usize, superblocks: bool) -> (System, Arc<Mutex<Recorder>>) {
    let mut sys = System::new(SystemConfig::with_cpus(cpus).seed(42));
    sys.set_superblocks(superblocks);
    let (tracer, recorder) = Tracer::recording(Recorder::DEFAULT_CAPACITY);
    sys.set_tracer(tracer);
    sys.load_program_all(&mixed_program());
    (sys, recorder)
}

/// Runs the system to halt through `step_many` with an unbounded budget
/// (each call executes one scheduler batch), returning total steps.
fn drain(sys: &mut System, cap: u64) -> u64 {
    let mut steps = 0u64;
    loop {
        let k = sys.step_many(u64::MAX);
        if k == 0 {
            return steps;
        }
        steps += k;
        assert!(steps < cap, "program failed to halt within {cap} steps");
    }
}

/// The superblock and scalar paths must agree on every single step: same
/// CPU scheduled, same [`ztm::isa::StepOutcome`], and the same trace digest
/// at the end. A `step_one` loop never takes the fast path — a one-step
/// budget cannot amortize a block's heap churn — so the superblock side's
/// step log is also matched against the same system batched through
/// `step_many` budgets, where blocks do engage.
#[test]
fn superblock_and_scalar_step_identically() {
    let (mut fast, fast_rec) = mixed_system(4, true);
    let (mut slow, slow_rec) = mixed_system(4, false);
    fast.set_step_log(true);
    slow.set_step_log(true);
    let mut steps = 0u64;
    loop {
        let a = fast.step_one();
        let b = slow.step_one();
        assert_eq!(a, b, "divergence at step {steps}");
        steps += 1;
        if a.is_none() {
            break;
        }
        assert!(steps < 2_000_000, "mixed program failed to halt");
    }
    assert!(
        steps > 10_000,
        "program too short to be a meaningful differential"
    );
    assert_eq!(
        fast_rec.lock().unwrap().digest(),
        slow_rec.lock().unwrap().digest()
    );
    assert_eq!(fast.superblock_steps(), 0, "step_one took the fast path");
    assert_eq!(slow.superblock_steps(), 0);
    let fast_log = fast.take_step_log();
    assert_eq!(fast_log, slow.take_step_log());

    let (mut batched, batched_rec) = mixed_system(4, true);
    batched.set_step_log(true);
    while batched.step_many(16) > 0 {}
    assert!(
        batched.superblock_steps() > 0,
        "the superblock side never took the fast path"
    );
    assert_eq!(batched.take_step_log(), fast_log);
    assert_eq!(
        batched_rec.lock().unwrap().digest(),
        fast_rec.lock().unwrap().digest()
    );
}

/// Unconstrained batching (a huge `step_many` budget, so blocks only break
/// at real boundaries) produces the identical step log and digest — on one
/// CPU and across two chips (12 CPUs) — and the fast path carries the bulk
/// of a straight-line-heavy single-CPU run.
#[test]
fn superblock_batches_bulk_of_straight_line_run() {
    let run = |cpus: usize, superblocks: bool| {
        let (mut sys, rec) = mixed_system(cpus, superblocks);
        sys.set_step_log(true);
        drain(&mut sys, 5_000_000);
        let digest = rec.lock().unwrap().digest();
        (sys.take_step_log(), digest, sys.superblock_steps())
    };
    let (wide_log, wide_digest, wide_sb) = run(12, true);
    let (scalar_log, scalar_digest, _) = run(12, false);
    assert!(wide_sb > 0);
    assert_eq!(wide_log, scalar_log);
    assert_eq!(wide_digest, scalar_digest);

    let (fast_log, fast_digest, fast_sb) = run(1, true);
    let (slow_log, slow_digest, slow_sb) = run(1, false);
    assert_eq!(fast_log, slow_log);
    assert_eq!(fast_digest, slow_digest);
    assert_eq!(slow_sb, 0);
    // The 9-instruction load burst batches every iteration; the short
    // blocks between branches and TX boundaries stay scalar by design.
    assert!(
        fast_sb > fast_log.len() as u64 / 3,
        "superblocks covered only {fast_sb} of {} steps",
        fast_log.len()
    );
}

/// `step_many` budgets that land mid-superblock must stop at exactly the
/// budgeted step: after every chunk both systems agree on the executed
/// count, every core's clock and pc, and the full step log.
#[test]
fn step_many_budget_lands_mid_superblock() {
    let (mut fast, fast_rec) = mixed_system(2, true);
    let (mut slow, slow_rec) = mixed_system(2, false);
    fast.set_step_log(true);
    slow.set_step_log(true);
    // Odd, prime-ish chunk sizes so budget boundaries sweep across every
    // offset inside the 6-load burst block.
    for chunk in (0..).map(|i| 1 + (i * 7) % 13) {
        let a = fast.step_many(chunk);
        let b = slow.step_many(chunk);
        assert_eq!(a, b, "executed counts diverge at chunk size {chunk}");
        for cpu in 0..2 {
            assert_eq!(fast.core(cpu).clock, slow.core(cpu).clock);
            assert_eq!(fast.core(cpu).pc, slow.core(cpu).pc);
        }
        if a == 0 {
            break;
        }
    }
    assert_eq!(fast.take_step_log(), slow.take_step_log());
    assert_eq!(
        fast_rec.lock().unwrap().digest(),
        slow_rec.lock().unwrap().digest()
    );
    assert!(fast.superblock_steps() > 0);
}

/// `run_for_cycles` horizons that land mid-superblock must stop exactly at
/// the horizon: no step whose pre-step clock is past it may execute, and
/// sweeping the horizon forward in odd increments keeps both systems in
/// lockstep on clocks and the step log.
#[test]
fn run_for_cycles_horizon_lands_mid_superblock() {
    let (mut fast, fast_rec) = mixed_system(2, true);
    let (mut slow, slow_rec) = mixed_system(2, false);
    fast.set_step_log(true);
    slow.set_step_log(true);
    let mut horizon = 0u64;
    for _ in 0..300 {
        horizon += 97;
        fast.run_for_cycles(horizon);
        slow.run_for_cycles(horizon);
        for cpu in 0..2 {
            assert_eq!(fast.core(cpu).clock, slow.core(cpu).clock);
            assert_eq!(fast.core(cpu).pc, slow.core(cpu).pc);
        }
        let log = fast.take_step_log();
        assert_eq!(&log, &slow.take_step_log(), "diverged at horizon {horizon}");
        // The stopping rule itself: nothing past the horizon executed.
        assert!(log.iter().all(|e| e.clock < horizon));
    }
    assert_eq!(
        fast_rec.lock().unwrap().digest(),
        slow_rec.lock().unwrap().digest()
    );
    assert!(fast.superblock_steps() > 0);
}

/// Full workload check (the lock-elided hashtable of Fig 5(e)), where
/// aborts, retries, and the fallback lock all fire. The workload's own
/// `run` steps one instruction per pick, which never takes a superblock,
/// so both sides are drained through unbounded `step_many` budgets instead;
/// `run` itself must retire the same schedule.
#[test]
fn superblock_and_scalar_agree_on_the_elision_hashtable() {
    let t = HashTable::new(512, 2048, 20, TableMethod::Elision);
    let setup = |superblocks: bool| {
        let mut sys = System::new(SystemConfig::with_cpus(4).seed(42));
        sys.set_superblocks(superblocks);
        sys.set_step_log(true);
        let (tracer, recorder) = Tracer::recording(Recorder::DEFAULT_CAPACITY);
        sys.set_tracer(tracer);
        t.populate(&mut sys, &(0..256).collect::<Vec<_>>());
        (sys, recorder)
    };
    let drained = |superblocks: bool| {
        let (mut sys, recorder) = setup(superblocks);
        t.load(&mut sys, 60);
        drain(&mut sys, 10_000_000);
        let digest = recorder.lock().unwrap().digest();
        (sys, digest)
    };
    let (mut fast, fast_digest) = drained(true);
    let (mut slow, slow_digest) = drained(false);
    assert!(
        fast.superblock_steps() > 0,
        "the superblock side never took the fast path"
    );
    assert_eq!(slow.superblock_steps(), 0);
    assert!(fast.report().tx.aborts > 0, "no transaction aborted");
    assert_eq!(fast.report().steps, slow.report().steps);
    assert_eq!(fast_digest, slow_digest);
    let log = fast.take_step_log();
    assert_eq!(log, slow.take_step_log());

    let (mut stepped, recorder) = setup(true);
    t.run(&mut stepped, 60);
    assert_eq!(stepped.take_step_log(), log);
    assert_eq!(recorder.lock().unwrap().digest(), fast_digest);
}

/// Lowers a random op stream into a halting program: straight-line access
/// and ALU bursts over two lines, transaction begin/end, and forward-only
/// conditional branches (labels sit at every op boundary, so targets land
/// anywhere ahead — including mid-block, splitting blocks statically).
/// A bounded outer `brctg` loop re-runs the whole body a few times so
/// backward-branch block boundaries are exercised too.
fn random_program(ops: &[(u8, u8)]) -> Program {
    let mut a = Assembler::new(0);
    let mut depth = 0u32;
    a.lghi(R6, 3);
    a.label("loop");
    for (j, &(kind, off)) in ops.iter().enumerate() {
        a.label(&format!("p{j}"));
        let at = |base: u64| MemOperand::absolute(base + (off % 32) as u64 * 8);
        match kind {
            0 => {
                a.lg(R1, at(0x8000));
            }
            1 => {
                a.stg(R1, at(0x8000));
            }
            2 => {
                a.lg(R2, at(0x8100));
            }
            3 => {
                a.stg(R2, at(0x8100));
            }
            4 => {
                a.tbegin(TbeginParams::new());
                depth += 1;
            }
            5 => {
                if depth > 0 {
                    a.tend();
                    depth -= 1;
                }
            }
            6 => {
                // Forward-only branch (the program always halts): keyed on
                // the outer loop counter, so the same site is taken in
                // early iterations and falls through in the last one.
                let t = j + 1 + off as usize % (ops.len() - j);
                if t < ops.len() {
                    a.cgij_ge(R6, 2, &format!("p{t}"));
                } else {
                    a.cgij_ge(R6, 2, "end");
                }
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

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 96,
        .. ProptestConfig::default()
    })]

    /// Random programs over one to three CPUs (XI stalls break blocks at
    /// random points) must produce the identical per-step `StepLogEntry`
    /// stream and trace digest with superblocks on and off.
    #[test]
    fn random_programs_agree_per_step(
        ops in proptest::collection::vec((0u8..8, any::<u8>()), 1..80),
        cpus in 1usize..4,
    ) {
        let prog = random_program(&ops);
        let run = |superblocks: bool| {
            let mut sys = System::new(SystemConfig::with_cpus(cpus).seed(42));
            sys.set_superblocks(superblocks);
            let (tracer, recorder) = Tracer::recording(Recorder::DEFAULT_CAPACITY);
            sys.set_tracer(tracer);
            sys.load_program_all(&prog);
            sys.set_step_log(true);
            let mut steps = 0u64;
            loop {
                let k = sys.step_many(u64::MAX);
                if k == 0 {
                    break;
                }
                steps += k;
                assert!(steps < 500_000, "random program failed to halt");
            }
            let digest = recorder.lock().unwrap().digest();
            (sys.take_step_log(), digest)
        };
        let (fast_log, fast_digest) = run(true);
        let (slow_log, slow_digest) = run(false);
        prop_assert_eq!(fast_log.len(), slow_log.len());
        prop_assert_eq!(fast_log, slow_log);
        prop_assert_eq!(fast_digest, slow_digest);
    }
}
