//! Layer probes: small fixed programs in the shapes `stepbench` uses, driven
//! through `run_until_halt` and reported in ns/step, plus direct calls into
//! the cache, core and mem crates.
//!
//! Each program probe checks that it ran its full step count: a program
//! that halts early would otherwise divide the elapsed time by steps it
//! never took (`stepbench`'s early-halt lesson).

use std::hint::black_box;
use std::time::Instant;
use ztm_cache::{AccessClass, CacheGeometry, CohState, LocalHit, PrivateCache};
use ztm_core::{TbeginParams, TendOutcome, TxEngine, TxEngineConfig};
use ztm_isa::{gr::*, Assembler, MemOperand, Program};
use ztm_mem::{Address, LineAddr, MainMemory};
use ztm_sim::{System, SystemConfig};

/// Repetitions of each probe; the median is reported.
const REPS: usize = 3;

/// A probe's result: its median cost and whether every repetition did the
/// full amount of work.
#[derive(Debug, Clone)]
pub struct Probe {
    /// Metric name, e.g. `isa.probe_alu_ns`.
    pub name: &'static str,
    /// Median ns per step (or per call for the direct probes).
    pub ns: f64,
    /// Why a repetition fell short, if one did.
    pub failure: Option<String>,
}

/// A fixed program and the work it must do.
struct Shape {
    name: &'static str,
    cpus: usize,
    program: Program,
    /// Lines written host-side before the run, so loads hit allocated memory.
    lines: u64,
    /// Loop iterations each CPU runs.
    iterations: u64,
    /// Instructions each CPU retires per iteration.
    body: u64,
    /// Transactional aborts the whole run must take.
    aborts: u64,
}

/// `lghi R6, n; loop: <body>; brctg R6, loop; halt`.
fn looped(n: u64, body: impl FnOnce(&mut Assembler)) -> Program {
    let mut a = Assembler::new(0);
    a.lghi(R6, n as i64);
    a.label("loop");
    body(&mut a);
    a.brctg(R6, "loop");
    a.halt();
    a.assemble().expect("probe program assembles")
}

const SPIN_LINE: u64 = 0xF000;
const DATA_BASE: u64 = 0x10_0000;
/// Lines of the missing-stride probe: 2.5 MB, past the 96 KB L1 and 1 MB L2.
const STRIDE_LINES: u64 = 10_000;

fn shapes() -> Vec<Shape> {
    let alu_n = 100_000;
    let spin_n = 100_000;
    let walk_n = 40_000;
    let stride_n = 3;
    let cas_n = 1_000;
    let abort_n = 40_000;
    vec![
        // Interpreter floor: no data accesses.
        Shape {
            name: "isa.probe_alu_ns",
            cpus: 1,
            program: looped(alu_n, |a| {
                a.aghi(R2, 1);
                a.aghi(R2, 1);
                a.aghi(R2, 1);
            }),
            lines: 0,
            iterations: alu_n,
            body: 4,
            aborts: 0,
        },
        // The coarse-lock spin shape on one line.
        Shape {
            name: "cache.probe_spin_ns",
            cpus: 1,
            program: looped(spin_n, |a| {
                a.ltg(R1, MemOperand::absolute(SPIN_LINE));
                a.jnz("loop");
                a.delay(24);
            }),
            lines: 0,
            iterations: spin_n,
            body: 4,
            aborts: 0,
        },
        // Eight loads rotating over eight L1-resident lines: the directory
        // walk on hits.
        Shape {
            name: "cache.probe_walk_ns",
            cpus: 1,
            program: looped(walk_n, |a| {
                for k in 0..8 {
                    a.lg(R1, MemOperand::absolute(DATA_BASE + k * 256));
                }
            }),
            lines: 8,
            iterations: walk_n,
            body: 9,
            aborts: 0,
        },
        // One load per line across 10k lines: every access misses.
        Shape {
            name: "cache.probe_miss_ns",
            cpus: 1,
            program: looped(stride_n, |a| {
                a.lghi(R5, DATA_BASE as i64);
                a.lghi(R7, STRIDE_LINES as i64);
                a.label("line");
                a.lg(R1, MemOperand::based(R5, 0));
                a.aghi(R5, 256);
                a.brctg(R7, "line");
            }),
            lines: STRIDE_LINES,
            iterations: stride_n,
            body: 3 + 3 * STRIDE_LINES,
            aborts: 0,
        },
        // 36 CPUs handing one line around with CSG/STG: the XI storm.
        Shape {
            name: "cache.probe_xi_ns",
            cpus: 36,
            program: looped(cas_n, |a| {
                a.lghi(R2, 0);
                a.lghi(R3, 1);
                a.csg(R2, R3, MemOperand::absolute(SPIN_LINE));
                a.lghi(R2, 0);
                a.stg(R2, MemOperand::absolute(SPIN_LINE));
            }),
            lines: 0,
            iterations: cas_n,
            body: 6,
            aborts: 0,
        },
        // TBEGIN immediately TABORTed: the abort and millicode path.
        Shape {
            name: "core.probe_abort_ns",
            cpus: 1,
            program: looped(abort_n, |a| {
                a.tbegin(TbeginParams::new());
                a.jnz("aborted");
                a.tabort(256);
                a.label("aborted");
            }),
            lines: 0,
            iterations: abort_n,
            // Four retire per iteration as the simulator counts an aborted
            // transaction's instructions.
            body: 4,
            aborts: abort_n,
        },
    ]
}

/// Runs `s` once: ns per step, or why it fell short.
fn run_shape(s: &Shape, seed: u64) -> Result<f64, String> {
    let mut sys = System::new(SystemConfig::with_cpus(s.cpus).seed(seed));
    for k in 0..s.lines {
        sys.mem_mut()
            .store_u64(Address::new(DATA_BASE + k * 256), k + 1);
    }
    sys.load_program_all(&s.program);
    let t0 = Instant::now();
    sys.run_until_halt(u64::MAX);
    let wall = t0.elapsed().as_secs_f64();
    let r = sys.report();
    // The prologue `lghi` on top of the loop (`halt` retires nothing).
    let want = s.cpus as u64 * (1 + s.iterations * s.body);
    if r.total_instructions != want {
        return Err(format!(
            "{}: retired {} of {want} instructions",
            s.name, r.total_instructions
        ));
    }
    if r.tx.aborts != s.aborts {
        return Err(format!(
            "{}: {} aborts, expected {}",
            s.name, r.tx.aborts, s.aborts
        ));
    }
    Ok(wall * 1e9 / r.steps as f64)
}

/// The median of `REPS` timings of `f`, or its first failure.
fn median_of(name: &'static str, mut f: impl FnMut() -> Result<f64, String>) -> Probe {
    let mut ns = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        match f() {
            Ok(v) => ns.push(v),
            Err(failure) => {
                return Probe {
                    name,
                    ns: 0.0,
                    failure: Some(failure),
                }
            }
        }
    }
    ns.sort_by(f64::total_cmp);
    Probe {
        name,
        ns: ns[REPS / 2],
        failure: None,
    }
}

/// `PrivateCache::lookup` on eight L1-resident lines.
fn lookup_probe() -> Result<f64, String> {
    const N: u64 = 2_000_000;
    let mut cache = PrivateCache::new(CacheGeometry::zec12());
    let lines: Vec<LineAddr> = (0..8).map(|k| LineAddr::new(0x1000 + k)).collect();
    for &l in &lines {
        cache.install(l, CohState::Exclusive, AccessClass::Fetch, false);
    }
    let t0 = Instant::now();
    let mut hits = 0u64;
    for i in 0..N {
        let hit = cache.lookup(black_box(lines[(i % 8) as usize]), AccessClass::Fetch);
        hits += u64::from(matches!(black_box(hit), LocalHit::L1));
    }
    let wall = t0.elapsed().as_secs_f64();
    if hits != N {
        return Err(format!("cache.lookup_ns: {hits} of {N} lookups hit the L1"));
    }
    Ok(wall * 1e9 / N as f64)
}

/// `TxEngine::begin` + `tend`: one outermost transaction per pair.
fn begin_commit_probe(seed: u64) -> Result<f64, String> {
    use rand::SeedableRng;
    const N: u64 = 1_000_000;
    let mut engine = TxEngine::new(TxEngineConfig::default());
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    let grs = [0u64; 16];
    let t0 = Instant::now();
    for _ in 0..N {
        engine
            .begin(TbeginParams::new(), false, black_box(&grs), 0, 6, &mut rng)
            .map_err(|cause| format!("core.begin_commit_ns: begin aborted: {cause:?}"))?;
        if !matches!(black_box(engine.tend()), TendOutcome::Commit { .. }) {
            return Err("core.begin_commit_ns: tend did not commit".to_string());
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    let commits = engine.stats().commits;
    if commits != N {
        return Err(format!("core.begin_commit_ns: {commits} of {N} commits"));
    }
    Ok(wall * 1e9 / N as f64)
}

/// `MainMemory::store_u64` + `load_u64` over 64 resident lines.
fn mem_probe() -> Result<f64, String> {
    const N: u64 = 2_000_000;
    let mut mem = MainMemory::new();
    let t0 = Instant::now();
    let mut sum = 0u64;
    for i in 0..N {
        let addr = Address::new(DATA_BASE + (i % 64) * 256);
        mem.store_u64(addr, black_box(i));
        sum = sum.wrapping_add(mem.load_u64(black_box(addr)));
    }
    let wall = t0.elapsed().as_secs_f64();
    if sum != (0..N).fold(0u64, u64::wrapping_add) {
        return Err("mem.load_store_ns: loads did not return the stored values".to_string());
    }
    Ok(wall * 1e9 / N as f64)
}

/// Every probe, in a fixed order.
pub fn run_all(seed: u64) -> Vec<Probe> {
    let mut out: Vec<Probe> = shapes()
        .iter()
        .map(|s| median_of(s.name, || run_shape(s, seed)))
        .collect();
    out.push(median_of("cache.lookup_ns", lookup_probe));
    out.push(median_of("core.begin_commit_ns", || {
        begin_commit_probe(seed)
    }));
    out.push(median_of("mem.load_store_ns", mem_probe));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_program_that_halts_early_fails_its_probe() {
        let mut s = shapes().remove(0);
        // Claim twice the iterations the program actually runs.
        s.iterations *= 2;
        let err = run_shape(&s, 1).unwrap_err();
        assert!(err.contains("retired"), "{err}");
    }
}
