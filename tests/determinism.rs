//! Cycle-for-cycle determinism regressions for the event-heap scheduler.
//!
//! The first two digests below are the ones committed in `results/BENCH_*.json`
//! when the simulator still used the per-step linear scan over all cores.
//! The heap-based scheduler (and every bookkeeping optimization since) must
//! reproduce them bit-for-bit: any scheduling or coherence divergence —
//! a different CPU picked on a clock tie, a stale heap entry acted on, a
//! missed quiesce clock bump — lands here before it lands in a figure.

use ztm::sim::{StepLogEntry, System, SystemConfig};
use ztm::trace::{Recorder, Tracer};
use ztm::workloads::bank::{Bank, BankMethod};
use ztm::workloads::hashtable::{HashTable, TableMethod};
use ztm::workloads::pool::{PoolLayout, PoolWorkload, SyncMethod};

/// `results/BENCH_E1_uncontended.json`: TBEGIN, 1 CPU, pool 1, 400 ops
/// (the default-mode op count of the `fig_uncontended` binary).
const E1_DIGEST: u64 = 0xb6c503adfc7f7c55;

/// `results/BENCH_fig5e_hashtable.json`: lock-elided hashtable, 6 CPUs,
/// 1024 keys, 150 ops/CPU (the quick-mode traced point of `fig5e`).
const FIG5E_DIGEST: u64 = 0x6a19de9389368382;

/// The event count committed beside [`FIG5E_DIGEST`].
const FIG5E_EVENTS: u64 = 14299;

#[test]
fn e1_trace_digest_matches_the_committed_baseline() {
    let wl = PoolWorkload::new(PoolLayout::new(1, 1), SyncMethod::Tbegin, 42);
    let mut sys = System::new(SystemConfig::with_cpus(1).seed(42));
    let (tracer, recorder) = Tracer::recording(Recorder::DEFAULT_CAPACITY);
    sys.set_tracer(tracer);
    wl.run(&mut sys, 400);
    assert_eq!(recorder.lock().unwrap().digest(), E1_DIGEST);
}

#[test]
fn fig5e_trace_digest_matches_the_committed_baseline() {
    let t = HashTable::new(512, 2048, 20, TableMethod::Elision);
    let mut sys = System::new(SystemConfig::with_cpus(6).seed(42));
    let (tracer, recorder) = Tracer::recording(Recorder::DEFAULT_CAPACITY);
    sys.set_tracer(tracer);
    t.populate(&mut sys, &(0..1024).collect::<Vec<_>>());
    t.run(&mut sys, 150);
    let rec = recorder.lock().unwrap();
    assert_eq!(rec.digest(), FIG5E_DIGEST);
    assert_eq!(rec.metrics().events, FIG5E_EVENTS);
}

/// The digest-only sink (no ring, no metrics, no event materialization)
/// must reproduce both committed digests bit-for-bit: it folds the same
/// byte stream as the recorder, only cheaper.
#[test]
fn e1_digest_matches_through_the_digest_only_sink() {
    let wl = PoolWorkload::new(PoolLayout::new(1, 1), SyncMethod::Tbegin, 42);
    let mut sys = System::new(SystemConfig::with_cpus(1).seed(42));
    let (tracer, sink) = Tracer::digest_only();
    sys.set_tracer(tracer);
    wl.run(&mut sys, 400);
    assert_eq!(sink.digest(), E1_DIGEST);
    assert!(sink.events() > 0);
}

#[test]
fn fig5e_digest_matches_through_the_digest_only_sink() {
    let t = HashTable::new(512, 2048, 20, TableMethod::Elision);
    let mut sys = System::new(SystemConfig::with_cpus(6).seed(42));
    let (tracer, sink) = Tracer::digest_only();
    sys.set_tracer(tracer);
    t.populate(&mut sys, &(0..1024).collect::<Vec<_>>());
    t.run(&mut sys, 150);
    assert_eq!(sink.digest(), FIG5E_DIGEST);
    assert_eq!(sink.events(), FIG5E_EVENTS);
}

/// Broadcast-stop quiesce (§III.E) under the heap scheduler: the quiescing
/// core is scheduled *outside* the heap while every other core's entry goes
/// stale, and `release_quiesce` re-enters them with bumped clocks. The
/// adversarial cross-holding kernel from the E4 ablation reliably escalates
/// to the broadcast stage; two identically seeded runs must agree exactly.
#[test]
fn quiesce_under_heap_scheduling_is_exercised_and_deterministic() {
    let run = || {
        let mut sys = System::new(SystemConfig::with_cpus(16).seed(42));
        let (tracer, recorder) = Tracer::recording(Recorder::DEFAULT_CAPACITY);
        sys.set_tracer(tracer);
        let wl = PoolWorkload::new(PoolLayout::new(8, 2), SyncMethod::Tbeginc, 42);
        let rep = wl.run(&mut sys, 80);
        let digest = recorder.lock().unwrap().digest();
        (
            rep.system.tx.broadcast_stops,
            rep.committed_ops(),
            rep.system.steps,
            digest,
        )
    };
    let a = run();
    assert!(a.0 > 0, "kernel must escalate to broadcast-stop: {a:?}");
    assert!(a.1 > 0, "every CPU must finish its ops: {a:?}");
    assert_eq!(a, run());
}

/// A two-chip (12-CPU) elided-hashtable run: cross-chip XIs and L3
/// traffic that the single-chip baselines above never reach. Pinned
/// through both the recording and the digest-only sinks.
const TWO_CHIP_HT12_DIGEST: u64 = 0xc79e7c937476240f;

#[test]
fn two_chip_hashtable_digest_matches_the_pinned_baseline() {
    let t = HashTable::new(512, 2048, 20, TableMethod::Elision);
    let mut sys = System::new(SystemConfig::with_cpus(12).seed(42));
    let (tracer, recorder) = Tracer::recording(Recorder::DEFAULT_CAPACITY);
    sys.set_tracer(tracer);
    t.populate(&mut sys, &(0..1024).collect::<Vec<_>>());
    t.run(&mut sys, 100);
    assert_eq!(recorder.lock().unwrap().digest(), TWO_CHIP_HT12_DIGEST);

    // The digest-only sink folds the identical byte stream.
    let t = HashTable::new(512, 2048, 20, TableMethod::Elision);
    let mut sys = System::new(SystemConfig::with_cpus(12).seed(42));
    let (tracer, sink) = Tracer::digest_only();
    sys.set_tracer(tracer);
    t.populate(&mut sys, &(0..1024).collect::<Vec<_>>());
    t.run(&mut sys, 100);
    assert_eq!(sink.digest(), TWO_CHIP_HT12_DIGEST);
}

/// Runs the 12-CPU transfer bank with the step log armed, driving the
/// scheduler through `drive`, and returns the step log plus the report.
fn bank_run(drive: impl FnOnce(&mut System)) -> (Vec<StepLogEntry>, String) {
    let bank = Bank::new(64, BankMethod::Tbegin);
    let mut sys = System::new(SystemConfig::with_cpus(12).seed(9));
    sys.set_step_log(true);
    sys.load_program_all(&bank.program(25));
    drive(&mut sys);
    let report = format!("{:?}", sys.report());
    (sys.take_step_log(), report)
}

/// `step_many` budgets end wherever they land; any chunking must retire
/// the identical step sequence.
#[test]
fn step_budget_boundaries_do_not_disturb_the_sequence() {
    let whole = bank_run(|sys| sys.run_until_halt(10_000_000));
    assert!(!whole.0.is_empty());
    for chunk in [1u64, 64, 997] {
        let chunked = bank_run(|sys| while sys.step_many(chunk) > 0 {});
        assert_eq!(whole, chunked, "chunk {chunk}");
    }
}

/// `run_for_cycles` horizons stop every CPU at exactly the serial rule (no
/// step whose start clock reaches the horizon executes), wherever the
/// chunk boundaries land.
#[test]
fn cycle_horizons_do_not_disturb_the_sequence() {
    let whole = bank_run(|sys| sys.run_until_halt(10_000_000));
    for chunk in [113u64, 1009] {
        let chunked = bank_run(|sys| {
            let mut horizon = chunk;
            while sys.any_running() {
                sys.run_for_cycles(horizon);
                horizon += chunk;
            }
        });
        assert_eq!(whole, chunked, "chunk {chunk}");
    }
}
