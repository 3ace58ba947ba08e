//! The multi-CPU system simulator: wires CPU cores, private caches, the
//! coherence fabric, and per-CPU transaction engines into one deterministic
//! discrete-event machine.

mod io;
mod park;
mod view;

#[cfg(test)]
mod tests;

use self::park::{Spin, Waiters, Wakes};
use self::view::{LineWindow, View};
use crate::config::SystemConfig;
use crate::report::SystemReport;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use ztm_cache::{Fabric, PrivateCache};
use ztm_core::{TxEngine, TxStats};
use ztm_isa::{CpuCore, Program, StepEvent, StepOutcome};
use ztm_mem::{Address, LineAddr, MainMemory, PageTable};
use ztm_trace::{Event, Tracer};

/// Per-CPU memory-side state.
#[derive(Debug)]
struct Node {
    cache: PrivateCache,
    /// Instruction cache directory (zEC12: separate 64 KB L1-I; modeled as
    /// 64 sets × 4 ways of text lines, misses served by the L2-I at the
    /// L2 latency). Instruction lines never join the transactional
    /// footprint — tx-read tracking is an L1-D mechanism (§III.C).
    icache: ztm_cache::SetAssoc<()>,
    engine: TxEngine,
    rng: SmallRng,
    prefix_area: Address,
    last_timer: u64,
    /// XI-stall retries observed (statistics).
    stalls: u64,
    /// Same-line ifetch fast path: the text line the previous instruction
    /// fetched from, valid while the install counter and page-residency
    /// epoch below still match. Instruction lines receive no XIs (the
    /// i-cache is outside the coherence protocol), and the i-cache is only
    /// mutated by this CPU's own fetch misses — which reset this snapshot —
    /// so a match means the directory walk would return the identical hit.
    last_ifetch: Option<LineAddr>,
    /// I-cache installs performed (fetch misses).
    icache_installs: u64,
    /// Value of `icache_installs` observed at the `last_ifetch` fetch.
    last_ifetch_installs: u64,
    /// Page-residency epoch observed at the `last_ifetch` fetch.
    last_ifetch_page_epoch: u64,
    /// The line window armed by the last completed full data-access walk,
    /// feeding the same-line coalescing fast path in `View::prepare` (see
    /// there for the validity argument).
    last_data: Option<LineWindow>,
    /// Data accesses served by the line window without a directory walk.
    coalesced: u64,
    /// Software-TM statistics observed via `STMNOTE` markers.
    stm: crate::report::StmCounts,
    /// Parking state (see [`park`]).
    spin: Spin,
}

impl Node {
    /// Whether an instruction fetch from text `line` takes the same-line
    /// i-cache fast path: `line` is the one the previous fetch read, and
    /// no i-cache install or page-residency change (`page_epoch` is the
    /// current epoch) happened since.
    fn ifetch_repeats(&self, line: LineAddr, page_epoch: u64) -> bool {
        self.last_ifetch == Some(line)
            && self.icache_installs == self.last_ifetch_installs
            && self.last_ifetch_page_epoch == page_epoch
    }
}

/// One record of the per-CPU execution trace (see [`System::set_trace`]).
#[derive(Debug, Clone)]
pub struct TraceRecord {
    /// The CPU that stepped.
    pub cpu: usize,
    /// The CPU's clock before the step.
    pub clock: u64,
    /// Byte address of the instruction.
    pub ia: u64,
    /// Disassembled instruction text.
    pub text: String,
    /// What the step did (executed, stalled, committed, aborted).
    pub event: StepEvent,
    /// Cycles the step consumed.
    pub cycles: u64,
}

/// One entry of the lightweight step log (see [`System::set_step_log`]):
/// which CPU stepped at which pre-step clock, what the step did, and how
/// many cycles it took. Every stepping mode (coalescing, the legacy
/// interpreter, the issue window at width 1) must produce identical logs —
/// the lockstep differentials in `tests/` diff them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepLogEntry {
    /// The CPU's local clock before the step.
    pub clock: u64,
    /// The CPU that stepped.
    pub cpu: usize,
    /// What the step did.
    pub event: StepEvent,
    /// Cycles the step consumed.
    pub cycles: u64,
}

/// The full simulated SMP system.
///
/// Owns everything: committed memory, the page table, the coherence fabric,
/// and per CPU a [`CpuCore`] (architectural registers), a
/// [`PrivateCache`] (L1/L2/store cache) and a [`TxEngine`].
///
/// Simulation is deterministic: a single thread steps the CPU with the
/// smallest local clock, one instruction at a time; cross-interrogates are
/// delivered synchronously at instruction boundaries, which realizes the
/// paper's rule that instruction completion stalls while XIs are pending
/// (§III.C).
///
/// # Examples
///
/// ```
/// use ztm_sim::{System, SystemConfig};
/// use ztm_isa::{Assembler, MemOperand, gr::*};
///
/// let mut sys = System::new(SystemConfig::with_cpus(2));
/// let mut a = Assembler::new(0);
/// a.lghi(R1, 1);
/// a.stg(R1, MemOperand::absolute(0x100));
/// a.halt();
/// let prog = a.assemble()?;
/// sys.load_program_all(&prog);
/// sys.run_until_halt(10_000);
/// assert_eq!(sys.mem().load_u64(ztm_mem::Address::new(0x100)), 1);
/// # Ok::<(), ztm_isa::AsmError>(())
/// ```
#[derive(Debug)]
pub struct System {
    config: SystemConfig,
    mem: MainMemory,
    pages: PageTable,
    fabric: Fabric,
    nodes: Vec<Node>,
    cores: Vec<CpuCore>,
    /// Node-major mirror of each core's clock — the scheduler reads clocks
    /// on every step, and a [`CpuCore`] is several hundred bytes (registers,
    /// PER state), so striding across `Vec<CpuCore>` costs one host cache
    /// line per CPU touched. The hot fields live contiguously here instead;
    /// the cold architectural state stays in `cores`.
    hot_clock: Vec<u64>,
    /// Node-major mirror of each core's running/halted tag (same rationale).
    hot_running: Vec<bool>,
    /// Set when [`core_mut`](Self::core_mut) hands out direct mutable access
    /// to a core (tests poke clocks and states); the next scheduling
    /// decision resynchronizes the mirrors first.
    hot_dirty: bool,
    /// Route steps through [`ztm_isa::step_legacy`] (the original
    /// `Instr`-enum walk) instead of the predecoded dispatch — the
    /// differential determinism tests run both.
    use_legacy_interpreter: bool,
    programs: Vec<Option<Arc<Program>>>,
    /// CPU currently holding the broadcast-stop quiesce (§III.E).
    quiesce: Option<usize>,
    /// Lazy scheduling heap of `(clock, cpu)` candidates. Invariant: every
    /// CPU that is running, has a program, and is not the quiesce holder has
    /// at least one entry carrying its *current* clock; entries whose clock
    /// no longer matches the CPU (or whose CPU halted) are stale and are
    /// skipped on pop. This makes picking the next CPU O(log n) instead of
    /// the former O(n) scan per instruction. Entries are `(clock, cpu)`
    /// packed into one `u64` (see [`Self::pack_entry`]) so heap sifts
    /// compare single words.
    ready: BinaryHeap<Reverse<u64>>,
    /// Per-MCM fabric channel: the virtual time until which it is busy.
    fabric_busy: Vec<u64>,
    /// CPUs whose steps are being traced.
    traced: Vec<bool>,
    /// Bounded execution trace (most recent `trace_capacity` records).
    trace: std::collections::VecDeque<TraceRecord>,
    trace_capacity: usize,
    /// Event tracer ([`ztm_trace`]); disabled by default.
    tracer: Tracer,
    steps: u64,
    /// Per-core in-order issue windows. `None` (the default) routes steps
    /// through the scalar retirement path; engaged by `ZTM_ISSUE_WIDTH` > 1
    /// or [`set_issue_width`](Self::set_issue_width). Functional execution
    /// is identical either way — the window only re-times retirement
    /// (see `ztm_isa::step_pipelined`).
    pipeline: Option<PipelineState>,
    /// Same-line access coalescing (the line-window fast path in
    /// `View::prepare`). On by default; the test hook
    /// [`set_coalescing`](Self::set_coalescing) forces every data access
    /// through the full directory walk. Results are identical either way —
    /// only host speed differs (pinned by `tests/coalesce.rs`).
    coalesce: bool,
    /// Optional full step log ([`set_step_log`](Self::set_step_log)) — the
    /// differential-test hook proving every stepping mode retires the same
    /// step order.
    step_log: Option<Vec<StepLogEntry>>,
    /// Whether the current run may park CPUs: set for the length
    /// of a [`run_until_halt`](Self::run_until_halt) call when nothing
    /// observes individual steps (see
    /// [`parking_allowed`](Self::parking_allowed)). `step_one`, `step_many`
    /// and `run_for_cycles` never park.
    parking: bool,
    /// Parked CPUs and the CPUs woken during the current step.
    wakes: Wakes,
    /// Steps retired in closed form by parking (both kinds).
    parked_steps: u64,
}

/// The pipeline width a `ZTM_ISSUE_WIDTH` setting engages: absent or `1` →
/// `None`, since the scalar path is already exactly width 1.
fn issue_width(setting: Option<usize>) -> Option<u64> {
    setting.filter(|&w| w > 1).map(|w| w as u64)
}

/// The issue windows plus the width they were built with (cached for trace
/// emission without re-asking each window).
#[derive(Debug)]
struct PipelineState {
    width: u64,
    windows: Vec<ztm_isa::IssueWindow>,
}

impl PipelineState {
    fn new(width: u64, cpus: usize, lsu_ports: u64) -> PipelineState {
        PipelineState {
            width,
            windows: (0..cpus)
                .map(|_| ztm_isa::IssueWindow::new(width, lsu_ports))
                .collect(),
        }
    }
}

impl System {
    /// Builds a system from a configuration.
    pub fn new(config: SystemConfig) -> Self {
        let cpus = config.topology.cpus();
        let nodes = (0..cpus)
            .map(|i| Node {
                cache: PrivateCache::with_cpu_count(config.geometry.clone(), cpus),
                icache: ztm_cache::SetAssoc::new(64, 4),
                engine: TxEngine::new(config.engine.clone()),
                rng: SmallRng::seed_from_u64(
                    config.seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1),
                ),
                prefix_area: Address::new(0xFFFF_0000 + (i as u64) * 4096),
                last_timer: 0,
                stalls: 0,
                last_ifetch: None,
                icache_installs: 0,
                last_ifetch_installs: 0,
                last_ifetch_page_epoch: 0,
                last_data: None,
                coalesced: 0,
                stm: crate::report::StmCounts::default(),
                spin: Spin::Idle,
            })
            .collect();
        let fabric = match config.l3_geometry {
            Some((sets, ways)) => Fabric::with_l3_geometry(config.topology.clone(), sets, ways),
            None => Fabric::new(config.topology.clone()),
        };
        System {
            fabric,
            mem: MainMemory::new(),
            pages: PageTable::all_resident(),
            nodes,
            cores: (0..cpus).map(|_| CpuCore::new()).collect(),
            hot_clock: vec![0; cpus],
            hot_running: vec![true; cpus],
            hot_dirty: false,
            use_legacy_interpreter: false,
            programs: vec![None; cpus],
            quiesce: None,
            ready: BinaryHeap::with_capacity(cpus + 1),
            fabric_busy: vec![0; config.topology.mcm_count().max(1)],
            traced: vec![false; cpus],
            trace: std::collections::VecDeque::new(),
            trace_capacity: 10_000,
            tracer: Tracer::disabled(),
            steps: 0,
            pipeline: issue_width(crate::env_usize("ZTM_ISSUE_WIDTH"))
                .map(|w| PipelineState::new(w, cpus, config.latency.lsu_ports)),
            coalesce: true,
            step_log: None,
            parking: false,
            wakes: Wakes {
                waiters: Waiters::new(cpus),
                stall_entry: vec![0; cpus],
                ..Wakes::default()
            },
            parked_steps: 0,
            config,
        }
    }

    /// Number of CPUs.
    pub fn cpus(&self) -> usize {
        self.cores.len()
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Committed memory (read).
    pub fn mem(&self) -> &MainMemory {
        &self.mem
    }

    /// Committed memory (write — for workload setup).
    pub fn mem_mut(&mut self) -> &mut MainMemory {
        &mut self.mem
    }

    /// The page table (evict pages to inject faults).
    pub fn pages_mut(&mut self) -> &mut PageTable {
        &mut self.pages
    }

    /// A CPU's architectural core state.
    pub fn core(&self, cpu: usize) -> &CpuCore {
        &self.cores[cpu]
    }

    /// Mutable core state (set up registers, PER controls).
    pub fn core_mut(&mut self, cpu: usize) -> &mut CpuCore {
        // The caller may change the clock or run state behind the
        // scheduler's back; resynchronize the hot mirrors lazily.
        self.hot_dirty = true;
        &mut self.cores[cpu]
    }

    /// Selects the interpreter: `true` routes steps through the original
    /// `Instr`-enum walk ([`ztm_isa::step_legacy`]), `false` (the default)
    /// through the predecoded micro-op dispatch. Both must produce
    /// identical outcomes — a test hook: the differential tests flip this
    /// switch to use the legacy walk as the reference.
    pub fn set_legacy_interpreter(&mut self, legacy: bool) {
        self.use_legacy_interpreter = legacy;
    }

    /// Enables or disables same-line access coalescing (on by default).
    /// Either setting produces byte-identical simulations — the lockstep
    /// differential in `tests/coalesce.rs` pins that — so this is a test
    /// hook that makes the full directory walk the reference, not a
    /// behavior switch.
    pub fn set_coalescing(&mut self, on: bool) {
        self.coalesce = on;
        if !on {
            for n in &mut self.nodes {
                n.last_data = None;
            }
        }
    }

    /// Sets the in-order issue width (§II.B: the zEC12 core decodes three
    /// instructions per cycle). Width 1 still routes through the pipeline
    /// window — it must reduce exactly to the scalar path, and the lockstep
    /// differential test pins that; widths above 1 let independent micro-ops
    /// share a cycle so IPC becomes a measured output. Resets any existing
    /// window state.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn set_issue_width(&mut self, width: u64) {
        self.pipeline = Some(PipelineState::new(
            width,
            self.cores.len(),
            self.config.latency.lsu_ports,
        ));
    }

    /// Enables or disables the full step log: every executed step is
    /// recorded as a [`StepLogEntry`] in scheduling order. This is the
    /// lockstep hook for the stepping-mode differential tests; unbounded,
    /// so keep runs short while enabled.
    pub fn set_step_log(&mut self, enabled: bool) {
        self.step_log = if enabled { Some(Vec::new()) } else { None };
    }

    /// Takes the accumulated step log, leaving an empty one behind (empty
    /// `Vec` if logging was never enabled).
    pub fn take_step_log(&mut self) -> Vec<StepLogEntry> {
        match self.step_log.as_mut() {
            Some(log) => std::mem::take(log),
            None => Vec::new(),
        }
    }

    /// Rebuilds the node-major hot mirrors from the cores.
    fn sync_hot(&mut self) {
        for (i, c) in self.cores.iter().enumerate() {
            self.hot_clock[i] = c.clock;
            self.hot_running[i] = c.is_running();
        }
        self.hot_dirty = false;
    }

    /// A CPU's transaction engine (set diagnostic control, read stats).
    pub fn engine_mut(&mut self, cpu: usize) -> &mut TxEngine {
        &mut self.nodes[cpu].engine
    }

    /// A CPU's transactional statistics.
    pub fn tx_stats(&self, cpu: usize) -> &TxStats {
        self.nodes[cpu].engine.stats()
    }

    /// A CPU's private cache unit (inspect footprint state).
    pub fn cache(&self, cpu: usize) -> &PrivateCache {
        &self.nodes[cpu].cache
    }

    /// XI-stall retries a CPU has performed, including the ones a stall
    /// park retired in closed form.
    pub fn stalls(&self, cpu: usize) -> u64 {
        self.nodes[cpu].stalls
    }

    /// Loads a program onto one CPU.
    pub fn load_program(&mut self, cpu: usize, prog: &Program) {
        self.programs[cpu] = Some(Arc::new(prog.clone()));
        self.ready
            .push(Reverse(Self::pack_entry(self.cores[cpu].clock, cpu)));
    }

    /// Loads the same program onto every CPU.
    pub fn load_program_all(&mut self, prog: &Program) {
        let p = Arc::new(prog.clone());
        for cpu in 0..self.programs.len() {
            self.programs[cpu] = Some(Arc::clone(&p));
            self.ready
                .push(Reverse(Self::pack_entry(self.cores[cpu].clock, cpu)));
        }
    }

    /// Whether any CPU is still running.
    pub fn any_running(&self) -> bool {
        self.cores.iter().any(|c| c.is_running())
    }

    /// Enables or disables execution tracing for one CPU. Traced steps are
    /// recorded (bounded ring of the most recent 10 000) with disassembled
    /// instruction text — the simulator-side analog of the paper's
    /// instruction-trace debugging workflows.
    pub fn set_trace(&mut self, cpu: usize, enabled: bool) {
        self.traced[cpu] = enabled;
    }

    /// Attaches an event tracer ([`ztm_trace`]): every CPU's data cache,
    /// store cache, transaction engine and millicode retry ladder emit to a
    /// per-CPU clone, and the fabric emits requester-attributed XI-issue
    /// events. The instruction cache is deliberately left untraced so
    /// `Access` events count data-side activity exactly once.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        for (i, node) in self.nodes.iter_mut().enumerate() {
            let t = tracer.for_cpu(i as u16);
            node.cache.set_tracer(t.clone());
            node.engine.set_tracer(t);
        }
        self.fabric.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    /// The recorded execution trace, oldest first.
    pub fn trace(&self) -> impl Iterator<Item = &TraceRecord> {
        self.trace.iter()
    }

    /// Renders the recorded trace as a listing.
    pub fn trace_listing(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for r in &self.trace {
            let _ = writeln!(
                out,
                "cpu{:<3} {:>10}  {:#08x}  {:<28} {:?} (+{})",
                r.cpu, r.clock, r.ia, r.text, r.event, r.cycles
            );
        }
        out
    }

    /// Packs a `(clock, cpu)` scheduling candidate into one `u64` whose
    /// natural ordering matches the tuple's: smallest clock first, ties
    /// toward the lowest CPU index. Clocks fit comfortably in 48 bits (a
    /// simulation would need ~3 × 10¹⁴ cycles to overflow), but an
    /// overflowing clock would shift bits into the CPU field and silently
    /// corrupt heap ordering — so the bound is a hard invariant, checked in
    /// release builds too.
    fn pack_entry(clock: u64, cpu: usize) -> u64 {
        assert!(
            clock < 1 << 48,
            "scheduler clock {clock} exceeds the 48-bit heap key range"
        );
        debug_assert!(cpu < 1 << 16);
        clock << 16 | cpu as u64
    }

    fn unpack_entry(entry: u64) -> (u64, usize) {
        (entry >> 16, (entry & 0xffff) as usize)
    }

    /// Whether a heap entry still describes a schedulable CPU at that clock.
    /// Reads only the node-major mirrors — no stride into `Vec<CpuCore>`.
    fn entry_fresh(&self, clock: u64, cpu: usize) -> bool {
        self.hot_running[cpu] && self.programs[cpu].is_some() && self.hot_clock[cpu] == clock
    }

    /// The smallest local clock among runnable CPUs (discarding stale heap
    /// entries), or `None` when every CPU has halted. A broadcast-stop
    /// holder is scheduled outside the heap, so its clock is merged in
    /// explicitly.
    fn peek_next_clock(&mut self) -> Option<u64> {
        if self.hot_dirty {
            self.sync_hot();
        }
        let holder = match self.quiesce {
            Some(h) if self.hot_running[h] && self.programs[h].is_some() => Some(self.hot_clock[h]),
            _ => None,
        };
        let queued = self.peek_fresh_entry().map(|e| Self::unpack_entry(e).0);
        match (holder, queued) {
            (Some(h), Some(q)) => Some(h.min(q)),
            (h, q) => h.or(q),
        }
    }

    /// Discards stale entries from the top of the heap and returns the
    /// packed entry of the runnable CPU with the smallest `(clock, cpu)` —
    /// ties break toward the lowest CPU index, exactly like the former
    /// linear scan. The entry is *left on the heap*: `step_one` refreshes it
    /// in place after the step (one sift instead of a pop + push).
    fn peek_fresh_entry(&mut self) -> Option<u64> {
        loop {
            let &Reverse(entry) = self.ready.peek()?;
            let (clock, cpu) = Self::unpack_entry(entry);
            if self.entry_fresh(clock, cpu) {
                return Some(entry);
            }
            self.ready.pop();
        }
    }

    /// Steps the runnable CPU with the smallest local clock — or the
    /// broadcast-stop holder, which is scheduled outside the heap. Returns
    /// the CPU index and outcome, or `None` when every CPU has halted. This
    /// is the only code that picks a CPU: `run_until_halt`, `step_many` and
    /// `run_for_cycles` are loops over it.
    pub fn step_one(&mut self) -> Option<(usize, StepOutcome)> {
        if self.hot_dirty {
            self.sync_hot();
        }
        // `my_entry` is the (still-enqueued) heap entry the CPU was
        // scheduled from; a broadcast-stop holder bypasses the heap.
        let (i, my_entry) = match self.quiesce {
            Some(holder) if self.hot_running[holder] => (holder, None),
            _ => {
                self.quiesce = None;
                let entry = self.peek_fresh_entry()?;
                (Self::unpack_entry(entry).1, Some(entry))
            }
        };
        let (out, parked) = if self.parking {
            self.exec_step_parking(i)
        } else {
            (self.exec_step(i), false)
        };
        // Keep this CPU's heap entry fresh. While it holds the quiesce it is
        // scheduled directly (its stale entry is skipped lazily), so pushing
        // waits until the quiesce releases — the release path falls through
        // here. When the CPU was scheduled from the heap and its (now stale)
        // entry is still on top, refresh it in place: one sift-down instead
        // of a pop + push. (A release_quiesce or a wake above may have
        // pushed other entries, so the top is re-checked rather than
        // assumed.) A CPU that just parked leaves the heap until it is woken.
        if self.quiesce != Some(i) && self.hot_running[i] && !parked {
            let fresh = Reverse(Self::pack_entry(self.hot_clock[i], i));
            let mut replaced = false;
            if let Some(mut top) = self.ready.peek_mut() {
                if Some(top.0) == my_entry {
                    *top = fresh;
                    replaced = true;
                }
            }
            if !replaced {
                self.ready.push(fresh);
            }
        } else if let Some(entry) = my_entry {
            // The stepped CPU halted, parked or took the quiesce: drop its
            // entry eagerly while it is still (usually) on top.
            if let Some(top) = self.ready.peek_mut() {
                if top.0 == entry {
                    std::collections::binary_heap::PeekMut::pop(top);
                }
            }
        }
        Some((i, out))
    }

    /// Executes exactly one instruction on CPU `i` and performs every
    /// per-step obligation: timer interruptions, tracing, the hot-mirror
    /// writeback, statistics, and broadcast-stop quiesce management.
    /// [`step_one`](Self::step_one) picks `i` and maintains the heap.
    fn exec_step(&mut self, i: usize) -> StepOutcome {
        // Timer interruptions (abort any running transaction, §II.A).
        if let Some(t) = self.config.timer_interval {
            if self.hot_clock[i] - self.nodes[i].last_timer >= t {
                self.nodes[i].last_timer = self.hot_clock[i];
                self.nodes[i].engine.raise_async_interruption();
            }
        }

        let prog: &Arc<Program> = self.programs[i].as_ref().expect("program loaded");
        self.tracer.set_clock(self.hot_clock[i]);
        let mut view = View {
            cpu: i,
            now: self.hot_clock[i],
            tracer: &self.tracer,
            nodes: &mut self.nodes,
            fabric: &mut self.fabric,
            mem: &mut self.mem,
            pages: &mut self.pages,
            fabric_busy: &mut self.fabric_busy,
            config: &self.config,
            coalesce: self.coalesce,
            hit_slot: None,
            wakes: &mut self.wakes,
        };
        let traced = self.traced[i];
        let (pre_clock, pre_pc) = (self.hot_clock[i], self.cores[i].pc);
        let out = if let Some(pl) = self.pipeline.as_mut() {
            ztm_isa::step_pipelined(&mut self.cores[i], prog, &mut view, &mut pl.windows[i])
        } else if self.use_legacy_interpreter {
            ztm_isa::step_legacy(&mut self.cores[i], prog, &mut view)
        } else {
            ztm_isa::step(&mut self.cores[i], prog, &mut view)
        };
        // Pipeline trace events carry the retire-time clock. Only widths
        // above 1 emit — the width-1 window is byte-identical to the
        // scalar path and must leave digests untouched.
        if let Some(pl) = self.pipeline.as_mut() {
            if pl.width > 1 && self.tracer.is_enabled() {
                let rep = pl.windows[i].take_report();
                self.tracer.set_clock(self.cores[i].clock);
                if let Some(size) = rep.closed_group {
                    let width = pl.width.min(255) as u8;
                    self.tracer
                        .emit_at(i as u16, || Event::IssueGroup { width, size });
                }
                if let Some((reason, waited)) = rep.stall {
                    self.tracer.emit_at(i as u16, || Event::IssueStall {
                        reason: reason.code(),
                        waited,
                    });
                }
            }
        }
        // Mirror the stepped core's hot state back into the node-major
        // arrays before any scheduling decision reads them.
        self.hot_clock[i] = self.cores[i].clock;
        self.hot_running[i] = self.cores[i].is_running();
        self.steps += 1;
        if let Some(log) = self.step_log.as_mut() {
            log.push(StepLogEntry {
                clock: pre_clock,
                cpu: i,
                event: out.event,
                cycles: out.cycles,
            });
        }
        if traced {
            if self.trace.len() == self.trace_capacity {
                self.trace.pop_front();
            }
            self.trace.push_back(TraceRecord {
                cpu: i,
                clock: pre_clock,
                ia: prog.addr_of(pre_pc),
                text: prog.instr(pre_pc).to_string(),
                event: out.event,
                cycles: out.cycles,
            });
        }

        if !self.wakes.woken.is_empty() {
            self.drain_woken();
        }
        if out.event == StepEvent::Stalled {
            self.nodes[i].stalls += 1;
        }
        // Broadcast-stop quiesce management (§III.E).
        if out.broadcast_stop {
            self.quiesce = Some(i);
        } else if self.quiesce == Some(i)
            && matches!(out.event, StepEvent::Committed | StepEvent::Halted)
        {
            self.release_quiesce(i);
        }
        if self.quiesce == Some(i) && !self.hot_running[i] {
            self.release_quiesce(i);
        }
        out
    }

    /// Runs until every CPU halts, parking CPUs that spin on an unchanged
    /// line or retry a stiff-armed access (see the crate docs); the outcome
    /// is identical to a [`step_one`](Self::step_one) loop.
    ///
    /// # Panics
    ///
    /// Panics if more than `max_steps` instructions execute system-wide
    /// (guards against livelock in tests) — including when only parked
    /// spinners are left, which spin forever on lines nothing will write
    /// again. A stall-parked CPU never counts as livelocked: it keeps its
    /// heap entry at its deadline, where its reject budget runs out. A
    /// caller that catches the panic gets a consistent system: every parked
    /// CPU is back on the heap where it parked — a spinner at its loop
    /// head, a stalled CPU at its first closed-form retry.
    pub fn run_until_halt(&mut self, max_steps: u64) {
        let start = self.steps;
        self.parking = self.parking_allowed();
        while self.step_one().is_some() {
            if self.steps - start > max_steps {
                break;
            }
        }
        self.parking = false;
        // With the heap empty, only spinners can be left parked.
        let livelock = self.wakes.parked > 0;
        self.stop_parking();
        if livelock || self.steps - start > max_steps {
            panic!("system did not halt within {max_steps} steps");
        }
    }

    /// Steps up to `limit` instructions through [`step_one`](Self::step_one),
    /// returning how many executed: `limit` unless every CPU halts first,
    /// and 0 when every CPU has already halted.
    pub fn step_many(&mut self, limit: u64) -> u64 {
        let mut done = 0;
        while done < limit && self.step_one().is_some() {
            done += 1;
        }
        done
    }

    /// Runs until every running CPU's clock reaches `horizon` (or all halt):
    /// no step whose pre-step clock is `>= horizon` executes.
    pub fn run_for_cycles(&mut self, horizon: u64) {
        while self.peek_next_clock().is_some_and(|t| t < horizon) {
            self.step_one();
        }
    }

    /// Aggregated system report.
    pub fn report(&self) -> SystemReport {
        let mut tx = TxStats::new();
        let mut stm = crate::report::StmCounts::default();
        for n in &self.nodes {
            tx.merge(n.engine.stats());
            stm.merge(&n.stm);
        }
        SystemReport {
            elapsed_cycles: self.cores.iter().map(|c| c.clock).max().unwrap_or(0),
            total_instructions: self.cores.iter().map(|c| c.instructions).sum(),
            steps: self.steps,
            stalls: self.nodes.iter().map(|n| n.stalls).sum(),
            tx,
            xi_counts: self.fabric.xi_counts(),
            coalesced_accesses: self.nodes.iter().map(|n| n.coalesced).sum(),
            parked_steps: self.parked_steps,
            stm,
        }
    }
}
