//! The multi-CPU system simulator: wires CPU cores, private caches, the
//! coherence fabric, and per-CPU transaction engines into one deterministic
//! discrete-event machine.

use crate::config::SystemConfig;
use crate::park::{self, Loop, LoopHead, LoopStep, Park, Retired, Spin, Stall, Waiters};
use crate::report::SystemReport;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use ztm_cache::{
    AccessClass, CohState, CpuId, Fabric, FetchKind, FootprintEvent, LocalHit, PrivateCache, Xi,
    XiKind, XiResponse,
};
use ztm_core::{
    AbortCause, ProgramException, TbeginParams, TendOutcome, TxEngine, TxStats, TDB_SIZE,
};
use ztm_isa::{
    finish_abort, AbortApply, AccessResult, CasResult, CpuCore, EndResult, ExceptionDisposition,
    Machine, Program, StepEvent, StepOutcome,
};
use ztm_mem::{Address, LineAddr, MainMemory, PageTable, HALF_LINE_SIZE};
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
    /// Parking state (see [`crate::park`]).
    spin: Spin,
}

/// Parked-CPU bookkeeping shared between the scheduler and [`View`].
#[derive(Debug, Default)]
struct Wakes {
    /// CPUs currently parked (both kinds).
    parked: usize,
    /// CPUs woken during the current step, retired on the memory side and
    /// waiting for [`System::resume`].
    woken: Vec<Woken>,
    /// The holder and XI kind of the last fetch plan whose *first* XI was
    /// stiff-armed (`None` when a later one was): a stalled step's
    /// candidate for a stall park.
    rejected: Option<(usize, XiKind)>,
    /// The CPUs stall-parked on each CPU's XI rejects.
    waiters: Waiters,
    /// Per CPU, the latest deadline a stall park queued it at. An early
    /// wake leaves that heap entry behind, stale until the clock reaches it
    /// again; a loop park, which must leave the heap, never starts at or
    /// before it.
    stall_entry: Vec<u64>,
}

impl Wakes {
    /// Takes CPU `j` off its park, retiring on the memory side the
    /// closed-form steps whose pre-step clock is below `bound`: for a loop,
    /// their line-window hits and XI-reject epoch ticks; for a stall, the
    /// stall count, the holder's reject count against `j` and the fabric's
    /// XI count. The core side is [`System::resume`]'s.
    fn unpark(&mut self, nodes: &mut [Node], fabric: &mut Fabric, j: usize, bound: u64) -> Woken {
        let Spin::Parked(park) = std::mem::replace(&mut nodes[j].spin, Spin::Idle) else {
            unreachable!("unpark of a CPU that is not parked");
        };
        self.parked -= 1;
        let retired = match &park {
            Park::Loop(l) => {
                let r = l.retire_below(bound);
                nodes[j].coalesced += r.hits;
                nodes[j].cache.note_instructions_complete(r.steps);
                r
            }
            Park::Stall(s) => {
                let r = s.retire_below(bound);
                nodes[j].stalls += r.steps;
                self.waiters.remove(s.holder, j);
                nodes[s.holder].cache.add_rejects(CpuId(j), r.steps as u32);
                fabric.add_xi_count(s.kind, r.steps);
                r
            }
        };
        Woken {
            cpu: j,
            park,
            retired,
        }
    }
}

/// A CPU taken off its park (see [`Wakes::unpark`]).
#[derive(Debug)]
struct Woken {
    cpu: usize,
    park: Park,
    retired: Retired,
}

/// A per-core *line window*: the data line the previous full directory walk
/// resolved, plus the snapshots that keep its "an access to this line would
/// hit the L1 with nothing to re-stamp" verdict valid. Armed only when the
/// line ended the walk as the hot (MRU) slot of both private directories;
/// any offset or length within the line is then served without walking.
#[derive(Debug, Clone, Copy)]
struct LineWindow {
    line: LineAddr,
    /// Ownership level the arming walk established: an exclusive window
    /// (`true`) serves stores and fetches, a shared one only fetches.
    excl: bool,
    /// [`PrivateCache::generation`] observed when the walk completed.
    gen: u64,
    /// [`PageTable::epoch`] observed when the walk completed.
    page_epoch: u64,
    /// [`MainMemory::line_slot`] of the window line, resolved lazily on the
    /// first window hit (`None` = not looked up yet) so arming a window
    /// that never gets hit costs no memory index probe. Slots are immutable
    /// once allocated, so the resolved handle needs no revalidation: a
    /// full-width load served by the window reads straight from the
    /// committed arena. `Some(None)` means the line had never been stored
    /// to at resolution time — such reads keep the normal zero-fill path,
    /// which also stays correct if the line is allocated later.
    slot: Option<Option<u32>>,
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

    /// Whether a run may park CPUs: nothing observes individual steps (no
    /// event tracer, no step log) and every step is a plain scalar step (no
    /// issue windows, legacy walk or timer ticks). The per-CPU conditions
    /// live in [`loop_head`](Self::loop_head) and
    /// [`stall_park`](Self::stall_park).
    fn parking_allowed(&self) -> bool {
        !self.tracer.is_enabled()
            && self.step_log.is_none()
            && self.pipeline.is_none()
            && !self.use_legacy_interpreter
            && self.config.timer_interval.is_none()
    }

    /// Ends a parking run: requeues every parked CPU where it parked — a
    /// spinner at its loop head, a stalled CPU at its first closed-form
    /// retry `c1` — retiring none of its closed-form steps, and forgets
    /// every candidate loop (steps taken outside a parking run are not
    /// recorded). A requeued CPU merely lags: its unretired steps touch
    /// only its own core, its own line and counters (a stall's holder
    /// reject count and the fabric's XI count), so they commute with every
    /// step taken since it parked, and stepping on from here reaches the
    /// same outcome.
    fn stop_parking(&mut self) {
        for j in 0..self.nodes.len() {
            if matches!(self.nodes[j].spin, Spin::Parked(_)) {
                let woken = self.wakes.unpark(&mut self.nodes, &mut self.fabric, j, 0);
                self.resume(woken);
                self.requeue(j);
            } else {
                self.nodes[j].spin = Spin::Idle;
            }
        }
        debug_assert!(self.wakes.waiters.is_empty());
    }

    /// Requeues every CPU woken during the step that just completed.
    fn drain_woken(&mut self) {
        while let Some(woken) = self.wakes.woken.pop() {
            let j = woken.cpu;
            self.resume(woken);
            self.requeue(j);
        }
    }

    /// Wakes the CPUs stall-parked on CPU `h`'s rejects after `h` took a
    /// real step at pre-step clock `now` that did not stall: completing an
    /// instruction moves `h`'s reject epoch, and a transaction begin,
    /// commit or abort changes its footprint, so their next retries may not
    /// repeat. Their retries keyed before `h`'s step `(now, h)` are retired
    /// ([`View::wake`]'s tie rule); the rejects they charge `h` land in the
    /// epoch they were made in (see [`PrivateCache::add_rejects`]).
    ///
    /// A stalled step of `h` changes nothing its waiters read — its own
    /// directory, reject epoch and transaction state stay as they were —
    /// so it wakes nobody: a stall chain parks as a whole, and so does a
    /// cross-hold whose two sides stiff-arm each other.
    fn wake_waiters(&mut self, h: usize, now: u64) {
        while let Some(w) = self.wakes.waiters.pop(h) {
            let bound = now + u64::from(w < h);
            let woken = self
                .wakes
                .unpark(&mut self.nodes, &mut self.fabric, w, bound);
            self.resume(woken);
            self.requeue(w);
        }
    }

    /// The core side of waking a parked CPU: leaves the core in the
    /// post-state of its last retired step (or untouched where it parked
    /// when none retired) and counts the steps. The caller requeues it.
    fn resume(&mut self, woken: Woken) {
        let Woken {
            cpu: j,
            park,
            retired,
        } = woken;
        let core = &mut self.cores[j];
        if let (Park::Loop(l), Some(m)) = (&park, retired.last) {
            let s = &l.steps[m];
            core.pc = s.pc;
            core.cc = s.cc;
            core.grs = s.grs;
            core.instructions += retired.steps;
        }
        core.clock = retired.clock;
        self.hot_clock[j] = retired.clock;
        self.steps += retired.steps;
        self.parked_steps += retired.steps;
    }

    /// Pushes CPU `j`'s heap entry at its current clock.
    fn requeue(&mut self, j: usize) {
        self.ready
            .push(Reverse(Self::pack_entry(self.hot_clock[j], j)));
    }

    /// [`exec_step`](Self::exec_step) in a parking run. Returns the outcome
    /// and whether the CPU parked off the heap (a loop park; a stall-parked
    /// CPU stays on the heap at its deadline).
    fn exec_step_parking(&mut self, i: usize) -> (StepOutcome, bool) {
        let (pre_clock, pre_pc) = (self.hot_clock[i], self.cores[i].pc);
        let out = match self.nodes[i].spin {
            Spin::Confirm { next, .. } => self.exec_step_recorded(i, next),
            Spin::Parked(_) => {
                // Only a stall park keeps a heap entry, at its deadline:
                // every certain reject precedes this retry, which runs for
                // real.
                debug_assert!(matches!(
                    &self.nodes[i].spin,
                    Spin::Parked(Park::Stall(s)) if s.deadline() == self.hot_clock[i]
                ));
                let woken =
                    self.wakes
                        .unpark(&mut self.nodes, &mut self.fabric, i, self.hot_clock[i]);
                self.resume(woken);
                self.exec_step(i)
            }
            _ => self.exec_step(i),
        };
        if self.wakes.waiters.any(i) && out.event != StepEvent::Stalled {
            self.wake_waiters(i, pre_clock);
        }
        let parked = self.after_step(i, pre_pc, &out);
        (out, parked)
    }

    /// [`exec_step`](Self::exec_step) for a CPU confirming a loop: the step
    /// is checked and recorded. `next` is the pre-step clock that continues
    /// the iteration's clock chain.
    fn exec_step_recorded(&mut self, i: usize, next: u64) -> StepOutcome {
        // A recordable step continues the clock chain, fetches through the
        // same-line i-cache fast path, and is on the whitelist.
        let (pre_clock, pre_pc) = (self.hot_clock[i], self.cores[i].pc);
        let d = *self.programs[i]
            .as_ref()
            .expect("program loaded")
            .decoded(pre_pc);
        let node = &self.nodes[i];
        let recordable = next == pre_clock
            && park::parkable(d.op)
            && node.last_ifetch == Some(Address::new(d.addr).line())
            && node.icache_installs == node.last_ifetch_installs
            && node.last_ifetch_page_epoch == self.pages.epoch();
        let (hits, instructions) = (node.coalesced, self.cores[i].instructions);
        let out = self.exec_step(i);
        // It must also retire exactly one instruction, and a data read must
        // be a line-window hit.
        let core = &self.cores[i];
        let node = &mut self.nodes[i];
        let hit = node.coalesced - hits;
        let ok = recordable
            && out.event == StepEvent::Executed
            && !out.broadcast_stop
            && core.is_running()
            && core.instructions == instructions + 1
            && hit == u64::from(park::reads_memory(d.op));
        match &mut node.spin {
            Spin::Confirm {
                start, next, steps, ..
            } if ok && steps.len() < park::MAX_LOOP_STEPS => {
                steps.push(LoopStep {
                    offset: pre_clock - *start,
                    pc: core.pc,
                    cc: core.cc,
                    grs: core.grs,
                    hit: hit == 1,
                });
                *next = core.clock;
            }
            spin => *spin = Spin::Idle,
        }
        out
    }

    /// Parking bookkeeping after CPU `i` executed the step at `pre_pc`: a
    /// taken backward branch lands on a loop head (see
    /// [`loop_head`](Self::loop_head)), and a stalled step may start a
    /// stall park ([`stall_park`](Self::stall_park)). Returns whether the
    /// CPU left the heap.
    #[inline]
    fn after_step(&mut self, i: usize, pre_pc: usize, out: &StepOutcome) -> bool {
        match out.event {
            StepEvent::Executed => self.cores[i].pc <= pre_pc && self.loop_head(i),
            StepEvent::Stalled => {
                self.stall_park(i);
                false
            }
            _ => false,
        }
    }

    /// CPU `i`'s data access was just stiff-armed by holder `H`. When `H`
    /// was the fetch plan's first target, the step changed nothing but
    /// counters: `i`'s clock, stall and step counts, `H`'s reject count
    /// against `i` (now `c`) and the fabric's XI count. Every later retry
    /// then costs `1 + xi_reject_retry` cycles (a same-line ifetch, the
    /// idempotent constrained checks, the rejected access) and changes the
    /// same counters the same way, until something it reads changes — and
    /// each such change wakes it ([`View::xi_accepted`],
    /// [`wake_waiters`](Self::wake_waiters), [`View::wake_all`]) — or `H`'s
    /// budget runs out: the next `threshold − c` retries are certain
    /// rejects. The CPU parks with its heap entry at the retry after them,
    /// which runs for real.
    ///
    /// Only a CPU whose op makes one data access ([`park::single_access`]),
    /// with an inert diagnostic control, no pending abort, no PER controls
    /// or execution trace and no quiesce in force parks.
    fn stall_park(&mut self, i: usize) {
        let Some((h, kind)) = self.wakes.rejected.take() else {
            return;
        };
        let core = &self.cores[i];
        let node = &self.nodes[i];
        let d = self.programs[i]
            .as_ref()
            .expect("program loaded")
            .decoded(core.pc);
        let c = self.nodes[h].cache.rejects_of(CpuId(i));
        let threshold = self.config.geometry.xi_reject_threshold;
        if c >= threshold
            || !park::single_access(d.op)
            || self.quiesce.is_some()
            || self.traced[i]
            || core.per.enabled
            || node.engine.pending_abort().is_some()
            || !node.engine.tdc_inert()
            || node.last_ifetch != Some(Address::new(d.addr).line())
            || node.icache_installs != node.last_ifetch_installs
            || node.last_ifetch_page_epoch != self.pages.epoch()
        {
            return;
        }
        let stall = Stall {
            c1: self.hot_clock[i],
            period: 1 + self.config.latency.xi_reject_retry,
            retries: u64::from(threshold - c),
            holder: h,
            kind,
        };
        let deadline = stall.deadline();
        self.wakes.waiters.add(h, i);
        let node = &mut self.nodes[i];
        node.spin = Spin::Parked(Park::Stall(stall));
        self.wakes.stall_entry[i] = self.wakes.stall_entry[i].max(deadline);
        self.wakes.parked += 1;
        // The heap entry the scheduler refreshes after this step.
        self.hot_clock[i] = deadline;
    }

    /// CPU `i` is at a loop head. The first arrival watches it; an
    /// identical second arrival starts the confirming iteration, which runs
    /// for real and is recorded step by step
    /// ([`exec_step_parking`](Self::exec_step_parking)); a third identical
    /// arrival after a fully recordable iteration parks the CPU, since
    /// every later iteration starts from the same state and so repeats the
    /// recorded one exactly until something the CPU can observe changes —
    /// and each such change wakes it first (see [`View::wake`]).
    ///
    /// Only a CPU outside any transaction, with no pending abort, no PER
    /// controls or execution trace, and no quiesce in force is watched, and
    /// it parks only past its last stall deadline (see
    /// [`Wakes::stall_entry`]). Its
    /// store cache may hold non-transactional entries (the gathering cache
    /// keeps a lock holder's last stores until an XI drains them): their
    /// bytes are already in committed memory, a parked load forwards them
    /// unchanged, and only a store, a transaction boundary or an XI — none
    /// of which a parked CPU meets without being woken — changes them.
    /// Returns whether the CPU parked.
    fn loop_head(&mut self, i: usize) -> bool {
        let core = &self.cores[i];
        let node = &mut self.nodes[i];
        if self.quiesce.is_some()
            || self.traced[i]
            || core.per.enabled
            || !core.is_running()
            || node.engine.in_tx()
            || node.engine.pending_abort().is_some()
        {
            node.spin = Spin::Idle;
            return false;
        }
        let head = LoopHead {
            pc: core.pc,
            cc: core.cc,
            grs: core.grs,
            gen: node.cache.generation(),
            window: node
                .last_data
                .map(|w| (w.line, w.excl, w.gen, w.page_epoch)),
            ifetch: (
                node.last_ifetch,
                node.last_ifetch_installs,
                node.last_ifetch_page_epoch,
                node.icache_installs,
            ),
        };
        let clock = core.clock;
        match std::mem::replace(&mut node.spin, Spin::Idle) {
            Spin::Confirm {
                head: first,
                start,
                steps,
                ..
            } if first == head && clock > self.wakes.stall_entry[i] => {
                // Every recorded hit was served by the window in `head`,
                // which is still valid: the generation is unchanged, and a
                // page-residency change would have failed a recorded fetch.
                let hits = steps.iter().filter(|s| s.hit).count() as u64;
                node.spin = Spin::Parked(Park::Loop(Loop {
                    c0: clock,
                    period: clock - start,
                    line: head.window.filter(|_| hits > 0).map(|w| w.0),
                    hits,
                    steps,
                }));
                self.wakes.parked += 1;
                true
            }
            Spin::Watch(prev) if prev == head => {
                node.spin = Spin::Confirm {
                    head,
                    start: clock,
                    next: clock,
                    steps: Vec::new(),
                };
                false
            }
            _ => {
                node.spin = Spin::Watch(head);
                false
            }
        }
    }

    fn release_quiesce(&mut self, holder: usize) {
        // Taking the quiesce woke every parked CPU (spinners and stalled
        // CPUs alike), and none parks while it is held, so every clock
        // below is current.
        debug_assert_eq!(self.wakes.parked, 0);
        self.quiesce = None;
        let t = self.hot_clock[holder];
        for j in 0..self.cores.len() {
            if j == holder || !self.hot_running[j] || self.hot_clock[j] >= t {
                continue;
            }
            self.cores[j].clock = t;
            self.hot_clock[j] = t;
            // The bumped clock invalidates the CPU's heap entries.
            if self.programs[j].is_some() {
                self.ready.push(Reverse(Self::pack_entry(t, j)));
            }
        }
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
    /// head, a stalled CPU at its first closed-form retry (see
    /// [`stop_parking`](Self::stop_parking)).
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

    /// Performs a store from the I/O subsystem: invalidates every cached
    /// copy of the line (aborting transactions whose footprint it hits —
    /// §II.A requires isolation against I/O too) and updates committed
    /// memory.
    pub fn io_store(&mut self, addr: Address, value: u64) {
        // Public calls return with nothing parked (no spinner and no
        // stalled CPU), so the XIs below meet fully stepped CPUs and need
        // no wake.
        debug_assert_eq!(self.wakes.parked, 0);
        let line = addr.line();
        let (owner, sharers) = self.fabric.holders(line);
        for (cpu, kind) in owner
            .into_iter()
            .map(|c| (c, ztm_cache::XiKind::Exclusive))
            .chain(
                sharers
                    .into_iter()
                    .map(|c| (c, ztm_cache::XiKind::ReadOnly)),
            )
        {
            // I/O XIs carry no requester id and cannot be stiff-armed.
            let out = self.nodes[cpu.0].cache.handle_xi(Xi {
                kind,
                line,
                from: None,
            });
            debug_assert_eq!(out.response, XiResponse::Accept);
            self.fabric.apply_xi_result(cpu, line, kind, true);
            for ev in out.events {
                self.nodes[cpu.0].engine.note_footprint_event(ev);
            }
        }
        self.mem.store_u64(addr, value);
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

/// The per-step [`Machine`] view: disjoint borrows of the system's fields
/// excluding the stepped CPU's core (borrowed by the interpreter).
struct View<'a> {
    cpu: usize,
    /// The stepped CPU's local clock at instruction start (for fabric
    /// bandwidth queueing).
    now: u64,
    tracer: &'a Tracer,
    nodes: &'a mut [Node],
    fabric: &'a mut Fabric,
    mem: &'a mut MainMemory,
    pages: &'a mut PageTable,
    fabric_busy: &'a mut [u64],
    config: &'a SystemConfig,
    /// Same-line coalescing switch ([`System::set_coalescing`]).
    coalesce: bool,
    /// Committed-arena slot of the line the most recent [`View::prepare`]
    /// served via the line window. Lets the data read that follows skip
    /// the memory index probe; reset at the top of every `prepare`, so it
    /// never outlives its access.
    hit_slot: Option<u32>,
    /// Parked CPUs, woken before this step does anything they could
    /// observe.
    wakes: &'a mut Wakes,
}

impl View<'_> {
    fn me(&mut self) -> &mut Node {
        &mut self.nodes[self.cpu]
    }

    fn node(&self) -> &Node {
        &self.nodes[self.cpu]
    }

    /// Wakes CPU `j` if it is parked, retiring its closed-form steps that
    /// precede this step in the serial schedule: a step of `j` at pre-step
    /// clock `c` comes before this one (key `(now, cpu)`) iff `c < now`,
    /// or `c == now` and `j < cpu`. Called before anything `j` could
    /// observe happens; the core side completes after this step
    /// ([`System::resume`] — `j`'s core is not part of any `View`).
    fn wake(&mut self, j: usize) {
        if self.wakes.parked > 0 && matches!(self.nodes[j].spin, Spin::Parked(_)) {
            let bound = self.now + u64::from(j < self.cpu);
            let woken = self.wakes.unpark(self.nodes, self.fabric, j, bound);
            self.wakes.woken.push(woken);
        }
    }

    /// CPU `t` accepted an XI: its directory changed (and it may now have
    /// a pending abort), so it and the CPUs stall-parked on its rejects are
    /// woken. A spinner always accepts — it holds no transactional
    /// footprint — and reads nothing the XI handling changed before this
    /// wake. An XI that `t` *rejects* wakes nobody: the reject changes only
    /// `t`'s reject count against the requester, which neither `t` nor its
    /// waiters read.
    fn xi_accepted(&mut self, t: usize) {
        if self.wakes.parked > 0 {
            self.wake(t);
            while let Some(w) = self.wakes.waiters.pop(t) {
                self.wake(w);
            }
        }
    }

    /// Wakes every parked CPU (a page-residency change or a broadcast stop).
    fn wake_all(&mut self) {
        for j in 0..self.nodes.len() {
            self.wake(j);
        }
    }

    /// A committed-memory write to `[addr, addr + len)` that bypasses
    /// coherence — no XI reaches the lines' sharers: wakes the CPUs parked
    /// on those lines, and drops confirming iterations that read them (the
    /// steps recorded before the write would not repeat after it).
    fn bypass_write(&mut self, addr: Address, len: u64) {
        let (first, last) = (addr.line(), addr.add(len - 1).line());
        let hit = |l: LineAddr| first <= l && l <= last;
        for j in 0..self.nodes.len() {
            match &self.nodes[j].spin {
                Spin::Parked(Park::Loop(p)) if p.line.is_some_and(hit) => self.wake(j),
                Spin::Confirm { head, .. } if head.window.is_some_and(|w| hit(w.0)) => {
                    self.nodes[j].spin = Spin::Idle;
                }
                _ => {}
            }
        }
    }

    /// Delivers the LRU XIs produced by an L3 associativity overflow: the
    /// victim line leaves every private cache under the overflowing L3,
    /// aborting transactions whose footprint it carried (§III.A/§III.C).
    fn deliver_lru_xis(&mut self, xis: Vec<(CpuId, LineAddr)>) {
        for (cpu, vline) in xis {
            let out = self.nodes[cpu.0].cache.handle_xi(Xi {
                kind: XiKind::Lru,
                line: vline,
                from: None,
            });
            debug_assert_eq!(
                out.response,
                XiResponse::Accept,
                "LRU XIs are not rejectable"
            );
            self.fabric.apply_xi_result(cpu, vline, XiKind::Lru, true);
            for ev in out.events {
                self.nodes[cpu.0].engine.note_footprint_event(ev);
            }
            self.xi_accepted(cpu.0);
        }
    }

    /// Delivers a fetch plan's XIs to their targets in plan order: each
    /// target's response is reported to the fabric and the footprint
    /// consequences are forwarded to that target's engine. Returns `false`
    /// the moment a target stiff-arms — the remaining XIs are not delivered
    /// and the caller abandons the fetch (retry or silent drop).
    fn deliver_plan_xis(&mut self, line: LineAddr, xis: Vec<(CpuId, XiKind)>) -> bool {
        for (n, (target, xikind)) in xis.into_iter().enumerate() {
            let out = self.nodes[target.0].cache.handle_xi(Xi {
                kind: xikind,
                line,
                from: Some(CpuId(self.cpu)),
            });
            let accepted = out.response == XiResponse::Accept;
            self.fabric.apply_xi_result(target, line, xikind, accepted);
            for ev in out.events {
                self.nodes[target.0].engine.note_footprint_event(ev);
            }
            if !accepted {
                self.wakes.rejected = (n == 0).then_some((target.0, xikind));
                return false;
            }
            self.xi_accepted(target.0);
        }
        true
    }

    /// Reserves a slot on this CPU's MCM fabric channel for one line
    /// transfer and returns the queueing delay incurred.
    fn occupy_fabric(&mut self) -> u64 {
        let busy = &mut *self.fabric_busy;
        let mcm = self
            .fabric
            .topology()
            .mcm_of(CpuId(self.cpu))
            .0
            .min(busy.len() - 1);
        let start = self.now.max(busy[mcm]);
        busy[mcm] = start + self.config.fabric_occupancy;
        let queued = start - self.now;
        self.tracer
            .emit_at(self.cpu as u16, || Event::FabricOccupy { queued });
        queued
    }

    /// Fetches `line` through the fabric. `Err(stall)` when an XI was
    /// stiff-armed and the access must retry.
    fn fetch_line(
        &mut self,
        line: LineAddr,
        excl: bool,
        class: AccessClass,
        tx: bool,
    ) -> Result<u64, u64> {
        let kind = if excl {
            FetchKind::Exclusive
        } else {
            FetchKind::Shared
        };
        let who = CpuId(self.cpu);
        let plan = self.fabric.plan_fetch(who, line, kind);
        if !self.deliver_plan_xis(line, plan.xis) {
            return Err(self.config.latency.xi_reject_retry);
        }
        let lru = self.fabric.grant(who, line, kind);
        self.deliver_lru_xis(lru);
        let base = self
            .config
            .latency
            .fetch(self.fabric.topology(), who, plan.source);
        let cycles = base + self.occupy_fabric();
        let state = if excl {
            CohState::Exclusive
        } else {
            CohState::ReadOnly
        };
        let inst = self.me().cache.install(line, state, class, tx);
        for l in inst.lost_lines {
            self.fabric.drop_holder(who, l);
        }
        for ev in inst.events {
            self.me().engine.note_footprint_event(ev);
        }
        Ok(cycles)
    }

    /// Speculative next-line prefetch; with the configured probability it
    /// represents a wrong-path load and over-marks the line tx-read
    /// (§III.C). Abandoned silently when anybody stiff-arms.
    fn speculative_prefetch(&mut self, line: LineAddr) {
        let next = LineAddr::new(line.index() + 1);
        if self.node().cache.state_of(next).is_some() {
            return;
        }
        let overmark = {
            let p = self.config.overmark_probability;
            self.me().rng.gen_bool(p)
        };
        let who = CpuId(self.cpu);
        let plan = self.fabric.plan_fetch(who, next, FetchKind::Shared);
        if !self.deliver_plan_xis(next, plan.xis) {
            return;
        }
        let lru = self.fabric.grant(who, next, FetchKind::Shared);
        self.deliver_lru_xis(lru);
        self.occupy_fabric(); // speculative transfers consume bandwidth too
        let inst = self
            .me()
            .cache
            .install(next, CohState::ReadOnly, AccessClass::Fetch, overmark);
        for l in inst.lost_lines {
            self.fabric.drop_holder(who, l);
        }
        for ev in inst.events {
            self.me().engine.note_footprint_event(ev);
        }
    }

    /// Common access preparation: faults, constrained footprint, ownership.
    /// `want_excl` requests exclusive ownership even for fetches (load with
    /// intent to update). `Err` carries an early [`AccessResult`].
    fn prepare(
        &mut self,
        addr: Address,
        len: u8,
        class: AccessClass,
        want_excl: bool,
    ) -> Result<u64, AccessResult> {
        let excl = class == AccessClass::Store || want_excl;
        if !addr.fits_in_line(len as u64) {
            return Err(AccessResult::Fault(ProgramException::Specification));
        }
        let line = addr.line();
        self.hit_slot = None;
        // Line-window coalescing: consecutive accesses to the same data line
        // (field-by-field struct reads, adjacent stack pushes, spin polls)
        // repeat the directory walk the previous access just completed. The
        // walk can be skipped when its verdict provably recurs:
        //
        // - the window's line ended the arming walk as the hot (MRU) slot of
        //   *both* private directories, and repeat lookups of the hot line
        //   re-stamp nothing (`SetAssoc`'s hot-slot invariant), so the
        //   elided walk is LRU-pure;
        // - no XI, transaction boundary, or store-cache drain intervened on
        //   this CPU since (`PrivateCache::generation`), and page residency
        //   is unchanged (`PageTable::epoch`) — same line means same 4K
        //   page, so the elided page check would succeed again;
        // - the window's established ownership covers this access
        //   (`w.excl || !excl`): an exclusive window serves stores and
        //   fetches, a shared one only fetches;
        // - inside a transaction, the line's L1 entry must already carry the
        //   tx mark this access class would set, so the elided marking
        //   transition and journal push are no-ops. The constrained-footprint
        //   noting and the speculative-prefetch dice roll are NOT elidable —
        //   they run here exactly as the full walk runs them.
        //
        // Only the `Access` trace event remains observable; emit it and skip
        // the walk. `set_coalescing(false)` forces the full walk;
        // `tests/coalesce.rs` pins both paths to each other per-step. A window can only exist while coalescing is enabled
        // (arming is gated and `set_coalescing(false)` clears them), so the
        // window presence check doubles as the switch check.
        if let Some(w) = self.nodes[self.cpu].last_data {
            let node = &mut self.nodes[self.cpu];
            let tx = node.engine.in_tx();
            let valid = w.line == line
                && (w.excl || !excl)
                && w.gen == node.cache.generation()
                && w.page_epoch == self.pages.epoch()
                && (!tx
                    || node
                        .cache
                        .l1_tx_marks(line)
                        .is_some_and(|(read, dirty)| match class {
                            AccessClass::Fetch => read,
                            AccessClass::Store => dirty,
                        }));
            if valid {
                node.cache.emit_repeat_access(line, excl);
                node.coalesced += 1;
                self.hit_slot = match w.slot {
                    Some(resolved) => resolved,
                    None => {
                        let resolved = self.mem.line_slot(line);
                        if let Some(win) = self.me().last_data.as_mut() {
                            win.slot = Some(resolved);
                        }
                        resolved
                    }
                };
                if tx {
                    if self.me().engine.note_data_access(addr, len as u64).is_err() {
                        self.me()
                            .engine
                            .set_pending(AbortCause::UnfilteredProgramException(
                                ProgramException::ConstraintViolation,
                            ));
                    }
                    // The full walk would roll the speculative-prefetch dice
                    // after resolving the access; the RNG stream (and any
                    // resulting prefetch) must be preserved exactly. The
                    // prefetch install can evict this very line without a
                    // generation bump (it is this CPU's own access path), so
                    // it drops the window.
                    let prefetch_p = self.config.prefetch_probability;
                    if class == AccessClass::Fetch
                        && self.config.speculative_prefetch
                        && prefetch_p > 0.0
                        && !self.me().engine.speculation_disabled()
                        && self.me().rng.gen_bool(prefetch_p)
                    {
                        self.speculative_prefetch(line);
                        self.me().last_data = None;
                    }
                }
                return Ok(self.config.latency.l1_hit);
            }
        }
        if self.pages.access(addr).is_err() {
            return Err(AccessResult::Fault(ProgramException::PageFault {
                address: addr.raw(),
            }));
        }
        let tx = self.me().engine.in_tx();
        if tx && self.me().engine.note_data_access(addr, len as u64).is_err() {
            self.me()
                .engine
                .set_pending(AbortCause::UnfilteredProgramException(
                    ProgramException::ConstraintViolation,
                ));
        }
        let (hit, out) = self.me().cache.access_local(line, class, excl, tx);
        let cycles = match hit {
            LocalHit::L1 => {
                debug_assert!(out.lost_lines.is_empty() && out.events.is_empty());
                self.config.latency.l1_hit
            }
            LocalHit::L2 => {
                // An L2 hit re-installs into the L1 only, which drops no L2
                // lines — `lost_lines` is empty here.
                let who = CpuId(self.cpu);
                for l in out.lost_lines {
                    self.fabric.drop_holder(who, l);
                }
                for ev in out.events {
                    self.me().engine.note_footprint_event(ev);
                }
                self.config.latency.l2_hit
            }
            LocalHit::Miss { .. } => match self.fetch_line(line, excl, class, tx) {
                Ok(c) => c,
                Err(stall) => return Err(AccessResult::Stall { cycles: stall }),
            },
        };
        let prefetch_p = self.config.prefetch_probability;
        if class == AccessClass::Fetch
            && tx
            && self.config.speculative_prefetch
            && prefetch_p > 0.0
            && !self.me().engine.speculation_disabled()
            && self.me().rng.gen_bool(prefetch_p)
        {
            self.speculative_prefetch(line);
        }
        // Arm the line window (see the fast path above), but only when
        // coalescing is enabled (the escape hatch must step the exact
        // pre-window path) and the line verifiably ended this walk as the
        // hot slot of both directories. Two walks end otherwise: an ownership upgrade that
        // found the line already L1-resident (the install early-returns
        // without re-stamping the L1), and a speculative prefetch that left
        // the *next* line hot — arming either would let a repeat elide
        // stamps the full walk applies. Transactional boundaries need no
        // disarm of their own: TBEGIN/TEND bump the cache generation, which
        // already invalidates any window armed across them.
        let window = if self.coalesce && self.node().cache.line_is_hot(line) {
            Some(LineWindow {
                line,
                excl,
                gen: self.node().cache.generation(),
                page_epoch: self.pages.epoch(),
                slot: None,
            })
        } else {
            None
        };
        self.me().last_data = window;
        Ok(cycles)
    }

    fn read_value(&self, addr: Address, len: u8) -> u64 {
        // Common shape: a full-width load with no buffered stores to overlay
        // (spinners and read-mostly code never populate the store cache).
        // One fixed-size memory read, no forwarding scan, no byte loop.
        if len == 8 && self.node().cache.store_cache().is_empty() {
            // The window (or its arming walk) already resolved the line's
            // committed-arena slot; slots never move, so the value is one
            // array read away — no memory index probe.
            if let Some(slot) = self.hit_slot {
                return self
                    .mem
                    .load_u64_at_slot(slot, addr.offset_in_line() as usize);
            }
            return self.mem.load_u64(addr);
        }
        let mut buf = [0u8; 8];
        self.mem.load_bytes(addr, &mut buf[..len as usize]);
        self.node().cache.forward(addr, &mut buf[..len as usize]);
        let mut v = 0u64;
        for b in &buf[..len as usize] {
            v = v << 8 | *b as u64;
        }
        v
    }

    /// Buffers store data (splitting at the 128-byte granule) and applies it
    /// to committed memory when non-transactional.
    fn write_value(&mut self, addr: Address, len: u8, value: u64, ntstg: bool) {
        let tx = self.me().engine.in_tx();
        let bytes = value.to_be_bytes();
        let data = &bytes[8 - len as usize..];
        let split = (HALF_LINE_SIZE - addr.offset_in_half_line()).min(len as u64) as usize;
        let mut overflow = false;
        let out1 = self
            .me()
            .cache
            .buffer_store(addr, &data[..split], tx, ntstg);
        overflow |= out1 == ztm_cache::StoreOutcome::Overflow;
        if split < len as usize {
            let out2 =
                self.me()
                    .cache
                    .buffer_store(addr.add(split as u64), &data[split..], tx, ntstg);
            overflow |= out2 == ztm_cache::StoreOutcome::Overflow;
        }
        if overflow {
            self.me()
                .engine
                .note_footprint_event(FootprintEvent::StoreOverflow {
                    line: Some(addr.line()),
                });
        }
        if !tx {
            self.mem.store_bytes(addr, data);
        }
    }
}

impl Machine for View<'_> {
    fn ifetch(&mut self, addr: Address) -> AccessResult {
        let line = addr.line();
        let page_epoch = self.pages.epoch();
        let node = &mut self.nodes[self.cpu];
        // Same-line fast path: straight-line code fetches the same 256-byte
        // text line many instructions in a row. If nothing installed into
        // this i-cache and no page residency changed since the previous
        // fetch of this line, the directory walk would return the identical
        // hit (0 cycles) — skip it. LRU order is unaffected: repeat `get`s
        // of the directory-wide MRU line do not re-stamp (see
        // `SetAssoc::hot`), and a successful page access has no side
        // effects, so the elided calls are pure.
        if node.last_ifetch == Some(line)
            && node.icache_installs == node.last_ifetch_installs
            && node.last_ifetch_page_epoch == page_epoch
        {
            return AccessResult::Done {
                value: 0,
                cycles: 0,
            };
        }
        if self.pages.access(addr).is_err() {
            node.last_ifetch = None;
            return AccessResult::Fault(ProgramException::PageFault {
                address: addr.raw(),
            });
        }
        let cycles = if node.icache.get(line).is_some() {
            0
        } else {
            node.icache.insert(line, (), |_, _| 0);
            node.icache_installs += 1;
            self.config.latency.l2_hit
        };
        node.last_ifetch = Some(line);
        node.last_ifetch_installs = node.icache_installs;
        node.last_ifetch_page_epoch = page_epoch;
        AccessResult::Done { value: 0, cycles }
    }

    fn load(&mut self, addr: Address, len: u8, for_update: bool) -> AccessResult {
        match self.prepare(addr, len, AccessClass::Fetch, for_update) {
            Ok(cycles) => AccessResult::Done {
                value: self.read_value(addr, len),
                cycles,
            },
            Err(early) => early,
        }
    }

    fn store(&mut self, addr: Address, len: u8, value: u64) -> AccessResult {
        match self.prepare(addr, len, AccessClass::Store, true) {
            Ok(cycles) => {
                self.write_value(addr, len, value, false);
                AccessResult::Done { value: 0, cycles }
            }
            Err(early) => early,
        }
    }

    fn store_nontx(&mut self, addr: Address, value: u64) -> AccessResult {
        if !addr.is_aligned(8) {
            return AccessResult::Fault(ProgramException::Specification);
        }
        match self.prepare(addr, 8, AccessClass::Store, true) {
            Ok(cycles) => {
                let in_tx = self.me().engine.in_tx();
                self.write_value(addr, 8, value, in_tx);
                AccessResult::Done { value: 0, cycles }
            }
            Err(early) => early,
        }
    }

    fn compare_and_swap(&mut self, addr: Address, expected: u64, new: u64) -> CasResult {
        match self.prepare(addr, 8, AccessClass::Store, true) {
            Ok(cycles) => {
                let old = self.read_value(addr, 8);
                let swapped = old == expected;
                if swapped {
                    self.write_value(addr, 8, new, false);
                }
                CasResult::Done {
                    swapped,
                    old,
                    // Interlocked update: the serialization penalty of CSG
                    // is what makes uncontended transactions ~30% cheaper
                    // than lock acquire/release (§IV).
                    cycles: cycles + 12,
                }
            }
            Err(AccessResult::Stall { cycles }) => CasResult::Stall { cycles },
            Err(AccessResult::Fault(pe)) => CasResult::Fault(pe),
            Err(AccessResult::Done { .. }) => unreachable!("prepare never returns Done"),
        }
    }

    fn tx_begin(
        &mut self,
        constrained: bool,
        params: TbeginParams,
        grs: &[u64; 16],
        ia: u64,
        next_ia: u64,
    ) -> u64 {
        let node = self.me();
        let rng = &mut node.rng;
        match node
            .engine
            .begin(params, constrained, grs, ia, next_ia, rng)
        {
            Ok(ztm_core::BeginOutcome::Outermost { cycles }) => {
                node.cache.begin_outermost_tx();
                cycles
            }
            Ok(ztm_core::BeginOutcome::Nested) => 2,
            Err(cause) => {
                node.engine.set_pending(cause);
                1
            }
        }
    }

    fn tx_end(&mut self) -> EndResult {
        let node = self.me();
        if node.engine.in_tx() && node.engine.tdc_forces_abort_at_tend() {
            node.engine.set_pending(AbortCause::Diagnostic);
            return EndResult::AbortPending;
        }
        match node.engine.tend() {
            TendOutcome::NotInTx => EndResult::NotInTx,
            TendOutcome::Inner => EndResult::Inner { cycles: 1 },
            TendOutcome::Commit { cycles } => {
                for w in node.cache.commit_tx() {
                    w.apply_to(self.mem);
                }
                EndResult::Commit { cycles }
            }
        }
    }

    fn tx_abort_request(&mut self, code: u64) {
        self.me()
            .engine
            .set_pending(AbortCause::Tabort(code.max(256)));
    }

    fn tx_depth(&self) -> u64 {
        self.node().engine.depth() as u64
    }

    fn in_tx(&self) -> bool {
        self.node().engine.in_tx()
    }

    fn check_instruction(&mut self, class: ztm_core::InstrClass, ia: u64, len: u64) {
        let node = self.me();
        if let Err(cause) = node.engine.check_instruction(class, ia, len) {
            node.engine.set_pending(cause);
            return;
        }
        let rng = &mut node.rng;
        if let Some(cause) = node.engine.tdc_tick(rng) {
            node.engine.set_pending(cause);
        }
    }

    fn instruction_retired(&mut self) {
        self.me().cache.note_instruction_complete();
    }

    fn pending_abort(&self) -> bool {
        self.node().engine.pending_abort().is_some()
    }

    fn take_abort(&mut self, grs: &[u64; 16], atia: u64) -> AbortApply {
        let cause = self
            .node()
            .engine
            .pending_abort()
            .expect("take_abort without pending abort");
        let ntstg_writes = self.me().cache.abort_tx();
        for w in ntstg_writes {
            // NTSTG data drains at abort with no XI to the line's sharers.
            self.bypass_write(w.half_line().base(), HALF_LINE_SIZE);
            w.apply_to(self.mem);
        }
        let node = &mut self.nodes[self.cpu];
        let out = node.engine.process_abort(cause, grs, atia, &mut node.rng);
        let prefix_area = node.prefix_area;
        // So do the TDB stores.
        if let Some((addr, _)) = out.tdb {
            self.bypass_write(addr, TDB_SIZE as u64);
        }
        if out.prefix_tdb.is_some() {
            self.bypass_write(prefix_area, TDB_SIZE as u64);
        }
        let epoch = self.pages.epoch();
        let apply = finish_abort(out, self.mem, self.pages, &self.config.os, prefix_area);
        // A page-in invalidates every CPU's fast-path verdicts; a broadcast
        // stop holds every other CPU at this step's serial key.
        if apply.broadcast_stop || self.pages.epoch() != epoch {
            self.wake_all();
        }
        apply
    }

    fn report_exception(
        &mut self,
        pe: ProgramException,
        instruction_fetch: bool,
    ) -> ExceptionDisposition {
        let node = self.me();
        if node.engine.in_tx() {
            let cause = node.engine.classify_exception(pe, instruction_fetch);
            node.engine.set_pending(cause);
            return ExceptionDisposition::PendingAbort;
        }
        match self.config.os.disposition(pe) {
            ztm_isa::OsDisposition::PageIn(page) => {
                self.pages.page_in(page);
                self.wake_all();
                ExceptionDisposition::Retry {
                    cycles: self.config.os.page_in_cost,
                }
            }
            ztm_isa::OsDisposition::Observe => ExceptionDisposition::Retry {
                cycles: self.config.os.observe_cost,
            },
            ztm_isa::OsDisposition::Terminate(msg) => ExceptionDisposition::Terminate(msg),
        }
    }

    fn ppa(&mut self, abort_count: u64) -> u64 {
        let node = self.me();
        let rng = &mut node.rng;
        node.engine.ppa_tx_assist(abort_count, rng)
    }

    fn stm_note(&mut self, kind: u8, value: u64) {
        use ztm_isa::stm_note as k;
        let cpu = self.cpu as u16;
        let node = &mut self.nodes[self.cpu];
        let ev = match kind {
            k::BEGIN => {
                node.stm.begins += 1;
                Event::StmTx {
                    phase: 0,
                    info: value,
                }
            }
            k::COMMIT => {
                node.stm.commits += 1;
                Event::StmTx {
                    phase: 1,
                    info: value,
                }
            }
            k::ABORT => {
                node.stm.aborts += 1;
                Event::StmTx {
                    phase: 2,
                    info: value,
                }
            }
            k::LOCK_ACQ => {
                node.stm.lock_acquires += 1;
                Event::StmLock {
                    acquired: true,
                    addr: value,
                }
            }
            k::LOCK_REL => Event::StmLock {
                acquired: false,
                addr: value,
            },
            k::VAL_PASS => Event::StmValidation {
                ok: true,
                info: value,
            },
            k::VAL_FAIL => {
                node.stm.validation_failures += 1;
                Event::StmValidation {
                    ok: false,
                    info: value,
                }
            }
            k::FALLBACK => {
                // The note marks the HTM→STM transition; the hardware abort
                // that forced it is the engine's most recent abort.
                let code = node.engine.last_abort_code();
                node.stm.fallbacks += 1;
                *node.stm.fallback_codes.entry(code).or_insert(0) += 1;
                Event::StmFallback {
                    attempt: value as u32,
                    code,
                }
            }
            _ => return,
        };
        self.tracer.emit_at(cpu, || ev);
    }

    fn rand(&mut self, bound: u64) -> u64 {
        if bound <= 1 {
            0
        } else {
            self.me().rng.gen_range(0..bound)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SystemConfig;
    use ztm_isa::{gr::*, Assembler, MemOperand};

    #[test]
    fn pack_entry_round_trips_up_to_the_48_bit_boundary() {
        let max_clock = (1u64 << 48) - 1;
        assert_eq!(System::unpack_entry(System::pack_entry(0, 0)), (0, 0));
        assert_eq!(
            System::unpack_entry(System::pack_entry(max_clock, 0xffff)),
            (max_clock, 0xffff)
        );
        // Ordering: smallest clock first, ties toward the lowest CPU.
        assert!(System::pack_entry(1, 0xffff) < System::pack_entry(2, 0));
        assert!(System::pack_entry(5, 3) < System::pack_entry(5, 4));
    }

    /// `ZTM_ISSUE_WIDTH=` (empty) reads as unset, as `ztm_bench` reads it,
    /// instead of failing every `System::new`.
    #[test]
    fn issue_width_maps_values_through_the_shared_parser() {
        let width = |v: &str| issue_width(crate::parse_usize("ZTM_ISSUE_WIDTH", v));
        assert_eq!(width(""), None);
        assert_eq!(width("1"), None);
        assert_eq!(width("3"), Some(3));
    }

    #[test]
    #[should_panic(expected = "48-bit heap key range")]
    fn pack_entry_rejects_an_overflowing_clock() {
        System::pack_entry(1 << 48, 0);
    }

    /// Each CPU transactionally increments a shared counter `n` times,
    /// retrying forever on abort. Total must be exactly `cpus * n`.
    fn tx_increment_program(var: u64, n: i64) -> Program {
        let mut a = Assembler::new(0);
        a.lghi(R6, n); // iterations
        a.lghi(R0, 0); // abort count for PPA
        a.label("loop");
        a.tbegin(TbeginParams::new());
        a.jnz("aborted");
        a.lg(R2, MemOperand::absolute(var));
        a.aghi(R2, 1);
        a.stg(R2, MemOperand::absolute(var));
        a.tend();
        a.lghi(R0, 0);
        a.brctg(R6, "loop");
        a.halt();
        a.label("aborted");
        a.aghi(R0, 1);
        a.ppa(R0);
        a.j("loop");
        a.assemble().unwrap()
    }

    #[test]
    fn transactional_atomicity_across_cpus() {
        let var = 0x10_000u64;
        let mut sys = System::new(SystemConfig::with_cpus(4));
        let prog = tx_increment_program(var, 50);
        sys.load_program_all(&prog);
        sys.run_until_halt(3_000_000);
        assert_eq!(
            sys.mem().load_u64(Address::new(var)),
            4 * 50,
            "no increment lost or duplicated despite conflicts"
        );
        let r = sys.report();
        assert_eq!(r.tx.commits, 4 * 50);
        // Contention is resolved by stiff-arming (stalls) and, rarely,
        // aborts; either way there must be evidence of conflicts.
        assert!(
            r.stalls + r.tx.aborts > 0,
            "contention must cause stalls or aborts"
        );
    }

    #[test]
    fn cas_lock_mutual_exclusion() {
        // Classic test-and-CAS spinlock protecting an increment.
        let lock = 0x20_000u64;
        let var = 0x20_100u64;
        let mut a = Assembler::new(0);
        a.lghi(R6, 30);
        a.label("loop");
        a.lghi(R3, 0);
        a.lghi(R4, 1);
        a.label("acquire");
        a.ltg(R1, MemOperand::absolute(lock));
        a.jnz("acquire"); // spin while held
        a.lgr(R5, R3);
        a.csg(R5, R4, MemOperand::absolute(lock));
        a.jnz("acquire");
        a.lg(R2, MemOperand::absolute(var));
        a.aghi(R2, 1);
        a.stg(R2, MemOperand::absolute(var));
        a.lghi(R7, 0);
        a.stg(R7, MemOperand::absolute(lock));
        a.brctg(R6, "loop");
        a.halt();
        let prog = a.assemble().unwrap();

        let mut sys = System::new(SystemConfig::with_cpus(3));
        sys.load_program_all(&prog);
        sys.run_until_halt(3_000_000);
        assert_eq!(sys.mem().load_u64(Address::new(var)), 3 * 30);
    }

    #[test]
    fn constrained_transactions_make_forward_progress() {
        // Adversarial: every CPU hammers the same two lines constrained.
        let var = 0x30_000u64;
        let mut a = Assembler::new(0);
        a.lghi(R6, 25);
        a.label("loop");
        a.tbeginc(ztm_core::GrSaveMask::ALL);
        a.lg(R2, MemOperand::absolute(var));
        a.aghi(R2, 1);
        a.stg(R2, MemOperand::absolute(var));
        a.tend();
        a.brctg(R6, "loop");
        a.halt();
        let prog = a.assemble().unwrap();

        let mut sys = System::new(SystemConfig::with_cpus(6));
        sys.load_program_all(&prog);
        sys.run_until_halt(8_000_000);
        assert_eq!(
            sys.mem().load_u64(Address::new(var)),
            6 * 25,
            "constrained transactions eventually succeed (§II.D)"
        );
    }

    #[test]
    fn read_sharing_causes_no_aborts() {
        let var = 0x40_000u64;
        let mut a = Assembler::new(0);
        a.lghi(R6, 100);
        a.label("loop");
        a.tbegin(TbeginParams::new());
        a.jnz("aborted");
        a.lg(R2, MemOperand::absolute(var));
        a.tend();
        a.brctg(R6, "loop");
        a.halt();
        a.label("aborted");
        a.j("loop");
        let prog = a.assemble().unwrap();

        let mut cfg = SystemConfig::with_cpus(8);
        cfg.speculative_prefetch = false; // pure read-sharing
        let mut sys = System::new(cfg);
        sys.load_program_all(&prog);
        sys.run_until_halt(3_000_000);
        let r = sys.report();
        assert_eq!(r.tx.commits, 8 * 100);
        assert_eq!(r.tx.aborts, 0, "read-read sharing never conflicts");
    }

    #[test]
    fn stiff_arm_rejects_appear_under_contention() {
        let var = 0x50_000u64;
        let mut sys = System::new(SystemConfig::with_cpus(8));
        let prog = tx_increment_program(var, 40);
        sys.load_program_all(&prog);
        sys.run_until_halt(8_000_000);
        let r = sys.report();
        assert!(r.stalls > 0, "XI rejects must stall requesters");
        assert_eq!(sys.mem().load_u64(Address::new(var)), 8 * 40);
    }

    #[test]
    fn timer_interruption_aborts_transactions() {
        let var = 0x60_000u64;
        let mut cfg = SystemConfig::with_cpus(1);
        cfg.timer_interval = Some(2_000);
        let mut sys = System::new(cfg);
        let prog = tx_increment_program(var, 200);
        sys.load_program_all(&prog);
        sys.run_until_halt(3_000_000);
        let r = sys.report();
        assert_eq!(sys.mem().load_u64(Address::new(var)), 200);
        assert!(
            r.tx.aborts_by_code.contains_key(&2),
            "some aborts from async interruptions: {:?}",
            r.tx.aborts_by_code
        );
    }

    #[test]
    fn broadcast_stop_quiesces_and_resynchronizes_clocks() {
        // An adversarial constrained kernel: half the CPUs update the two
        // lines in one order, half in the other — cross-holding deadlocks
        // force RejectHang aborts, escalating to broadcast-stop.
        let var = 0xE0_000u64;
        let build = |first: u64, second: u64| {
            let mut a = Assembler::new(0);
            a.lghi(R6, 30);
            a.label("loop");
            a.tbeginc(ztm_core::GrSaveMask::ALL);
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
        let fwd = build(var, var + 256);
        let rev = build(var + 256, var);
        let mut cfg = SystemConfig::with_cpus(10);
        // Make the ladder escalate quickly.
        cfg.engine.retry_ladder.broadcast_stop_after = 2;
        let mut sys = System::new(cfg);
        for i in 0..10 {
            sys.load_program(i, if i % 2 == 0 { &fwd } else { &rev });
        }
        sys.run_until_halt(80_000_000);
        assert_eq!(sys.mem().load_u64(Address::new(var)), 10 * 30);
        assert_eq!(sys.mem().load_u64(Address::new(var + 256)), 10 * 30);
        let r = sys.report();
        assert!(
            r.tx.broadcast_stops > 0,
            "the last-resort quiesce must have fired"
        );
    }

    #[test]
    fn run_for_cycles_stops_at_the_horizon() {
        let var = 0xD0_000u64;
        let mut sys = System::new(SystemConfig::with_cpus(2));
        let prog = tx_increment_program(var, 1_000_000); // effectively endless
        sys.load_program_all(&prog);
        sys.run_for_cycles(5_000);
        let r = sys.report();
        assert!(r.elapsed_cycles >= 5_000);
        assert!(r.elapsed_cycles < 20_000, "stops near the horizon");
        assert!(sys.any_running());
        // Resuming continues cleanly.
        sys.run_for_cycles(10_000);
        assert!(sys.report().elapsed_cycles >= 10_000);
    }

    #[test]
    fn io_store_aborts_conflicting_transaction() {
        // §II.A: "the transaction cannot observe changes made by other CPUs
        // or the I/O subsystem" — an I/O store to a tx-read line aborts the
        // transaction, and the target cannot stiff-arm the channel.
        let var = 0xC0_000u64;
        let mut a = Assembler::new(0);
        a.tbegin(TbeginParams::new());
        a.jnz("aborted");
        a.lg(R2, MemOperand::absolute(var));
        a.label("spin");
        a.lg(R3, MemOperand::absolute(var));
        a.cghi(R3, 0);
        a.jz("spin");
        a.tend();
        a.halt();
        a.label("aborted");
        a.lghi(R9, 1);
        a.halt();
        let p = a.assemble().unwrap();
        let mut cfg = SystemConfig::with_cpus(1);
        cfg.speculative_prefetch = false;
        let mut sys = System::new(cfg);
        sys.load_program(0, &p);
        for _ in 0..8 {
            sys.step_one();
        }
        sys.io_store(Address::new(var), 0xD1A0);
        sys.run_until_halt(100_000);
        assert_eq!(sys.core(0).gr(R9), 1, "transaction aborted by I/O");
        assert_eq!(sys.mem().load_u64(Address::new(var)), 0xD1A0);
        // The abort is a plain fetch conflict (code 9) with no CPU id.
        assert_eq!(sys.tx_stats(0).aborts_by_code.get(&9), Some(&1));
    }

    #[test]
    fn io_store_to_uncached_line_is_plain() {
        let mut sys = System::new(SystemConfig::with_cpus(2));
        sys.io_store(Address::new(0x123450), 7);
        assert_eq!(sys.mem().load_u64(Address::new(0x123450)), 7);
        assert_eq!(sys.report().tx.aborts, 0);
    }

    #[test]
    fn fabric_bandwidth_queueing_slows_parallel_misses() {
        // Two CPUs streaming disjoint misses: with a huge per-transfer
        // occupancy the shared channel serializes them.
        let prog = |base: u64| {
            let mut a = Assembler::new(0);
            a.lghi(R6, 50);
            a.lghi(R5, base as i64);
            a.label("stream");
            a.lg(R1, MemOperand::based(R5, 0));
            a.aghi(R5, 256);
            a.brctg(R6, "stream");
            a.halt();
            a.assemble().unwrap()
        };
        let run = |occupancy: u64| {
            let mut cfg = SystemConfig::with_cpus(2);
            cfg.fabric_occupancy = occupancy;
            let mut sys = System::new(cfg);
            sys.load_program(0, &prog(0x100_0000));
            sys.load_program(1, &prog(0x200_0000));
            sys.run_until_halt(100_000);
            sys.report().elapsed_cycles
        };
        let free = run(0);
        let contended = run(2_000);
        // 100 transfers × 2000 cycles of channel time ≈ 200k cycles lower
        // bound when serialized.
        assert!(
            contended > free + 100_000,
            "queueing must dominate: {free} vs {contended}"
        );
    }

    #[test]
    fn tracing_records_disassembled_steps() {
        let mut a = Assembler::new(0);
        a.lghi(R1, 5);
        a.tbegin(TbeginParams::new());
        a.jnz("out");
        a.tend();
        a.label("out");
        a.halt();
        let p = a.assemble().unwrap();
        let mut sys = System::new(SystemConfig::with_cpus(2));
        sys.load_program_all(&p);
        sys.set_trace(0, true); // only CPU 0
        sys.run_until_halt(1_000);
        let records: Vec<_> = sys.trace().collect();
        assert!(records.iter().all(|r| r.cpu == 0));
        assert!(records.iter().any(|r| r.text.starts_with("TBEGIN")));
        assert!(records
            .iter()
            .any(|r| matches!(r.event, StepEvent::Committed)));
        let listing = sys.trace_listing();
        assert!(listing.contains("LGHI    r1,5"));
    }

    #[test]
    fn event_tracer_captures_a_contended_run() {
        let var = 0x88_000u64;
        let (tracer, recorder) = Tracer::recording(1 << 16);
        let mut sys = System::new(SystemConfig::with_cpus(4));
        sys.set_tracer(tracer);
        let prog = tx_increment_program(var, 20);
        sys.load_program_all(&prog);
        sys.run_until_halt(3_000_000);

        let rec = recorder.lock().unwrap();
        assert_eq!(rec.dropped(), 0, "ring must be large enough for the run");
        let m = rec.metrics();
        let report = sys.report();
        assert_eq!(m.tx_commits, report.tx.commits);
        assert_eq!(m.tx_aborts, report.tx.aborts);
        assert_eq!(
            m.xi_issued.iter().sum::<u64>(),
            report.xi_counts.iter().sum::<u64>()
        );
        assert!(m.accesses.iter().sum::<u64>() > 0 && m.store_new > 0);
        // The recorded stream must satisfy every trace invariant.
        let events = rec.snapshot();
        if let Err(violations) = ztm_trace::check_invariants(&events) {
            panic!("invariant violations: {violations:#?}");
        }
    }

    #[test]
    fn l3_capacity_eviction_aborts_transactions() {
        // Shrink the shared L3 to 4 lines. CPU 0 opens a transaction over
        // one line and spins; CPU 1 (same chip) streams through enough
        // lines to evict CPU 0's footprint from the L3 — the resulting LRU
        // XI must abort CPU 0 (§III.A "LRU XIs" as an abort cause).
        let txline = 0xA0_000u64;
        let mut a0 = Assembler::new(0);
        a0.tbegin(TbeginParams::new());
        a0.jnz("aborted");
        a0.lg(R2, MemOperand::absolute(txline));
        a0.label("spin");
        a0.lg(R3, MemOperand::absolute(txline));
        a0.cghi(R3, 0);
        a0.jz("spin");
        a0.tend();
        a0.halt();
        a0.label("aborted");
        a0.lghi(R9, 1);
        a0.halt();
        let p0 = a0.assemble().unwrap();

        let mut a1 = Assembler::new(0x1000);
        a1.delay(2_000);
        a1.lghi(R6, 32);
        a1.lghi(R5, 0xB0_000);
        a1.label("stream");
        a1.lg(R1, MemOperand::based(R5, 0));
        a1.aghi(R5, 256);
        a1.brctg(R6, "stream");
        a1.halt();
        let p1 = a1.assemble().unwrap();

        let mut cfg = SystemConfig::with_cpus(2);
        cfg.l3_geometry = Some((1, 4));
        cfg.speculative_prefetch = false;
        let mut sys = System::new(cfg);
        sys.load_program(0, &p0);
        sys.load_program(1, &p1);
        sys.run_until_halt(1_000_000);
        assert_eq!(sys.core(0).gr(R9), 1, "transaction aborted by LRU XI");
        assert!(sys.tx_stats(0).aborts >= 1);
    }

    #[test]
    fn full_zec12_topology_smoke() {
        // All 144 cores of the real machine, hammering a small pool.
        let var = 0x90_000u64;
        let mut cfg = SystemConfig::with_cpus(1);
        cfg.topology = ztm_cache::Topology::zec12(144);
        let mut sys = System::new(cfg);
        let prog = tx_increment_program(var, 5);
        sys.load_program_all(&prog);
        sys.run_until_halt(80_000_000);
        assert_eq!(sys.mem().load_u64(Address::new(var)), 144 * 5);
    }

    #[test]
    fn non_tx_store_conflicts_with_tx_reader() {
        // Strong atomicity (§II.A): CPU 1's plain store aborts CPU 0's
        // transaction that read the line.
        let var = 0x70_000u64;
        // CPU 0: long transaction reading var then spinning on a flag.
        let mut a0 = Assembler::new(0);
        a0.tbegin(TbeginParams::new());
        a0.jnz("aborted");
        a0.lg(R2, MemOperand::absolute(var));
        a0.label("wait"); // poll a flag inside the tx until aborted
        a0.lg(R3, MemOperand::absolute(var + 8));
        a0.cghi(R3, 0);
        a0.jz("wait");
        a0.tend();
        a0.halt();
        a0.label("aborted");
        a0.lghi(R9, 1);
        a0.halt();
        let p0 = a0.assemble().unwrap();
        // CPU 1: wait a bit, then store to var (plain store).
        let mut a1 = Assembler::new(0x1000);
        a1.lghi(R6, 50);
        a1.label("delay");
        a1.brctg(R6, "delay");
        a1.lghi(R1, 99);
        a1.stg(R1, MemOperand::absolute(var));
        a1.halt();
        let p1 = a1.assemble().unwrap();

        let mut cfg = SystemConfig::with_cpus(2);
        cfg.speculative_prefetch = false;
        let mut sys = System::new(cfg);
        sys.load_program(0, &p0);
        sys.load_program(1, &p1);
        sys.run_until_halt(1_000_000);
        assert_eq!(sys.core(0).gr(R9), 1, "reader transaction aborted");
        assert_eq!(sys.mem().load_u64(Address::new(var)), 99);
        let r = sys.report();
        assert!(r.tx.aborts >= 1);
    }
}
