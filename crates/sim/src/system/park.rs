//! Parking: a CPU whose next steps provably repeat its last ones leaves
//! the scheduler's per-step work, and the scheduler later retires the
//! repeated steps in closed form. Two kinds of CPU park:
//!
//! - a *spinner* on an unchanged L1 line — the paper's Figure 1 "wait for
//!   lock to become free" loop — repeats one loop iteration exactly, step
//!   for step, until something it can observe changes ([`Loop`]);
//! - a CPU whose data access was just *stiff-armed* (§III.C) retries it
//!   every `1 + xi_reject_retry` cycles and is rejected the same way each
//!   time, until the holder moves or its reject budget runs out
//!   ([`Stall`]).
//!
//! A woken spinner that comes back to the loop it last confirmed parks
//! again at once from that loop's [`Template`].
//!
//! This module holds the per-CPU detection state, the waiter bookkeeping
//! and the closed-form arithmetic, and the glue through which the
//! scheduler parks CPUs and the memory ports wake them (see DESIGN.md
//! "Parking" for the exactness arguments).

use super::view::View;
use super::{Node, System};
use std::cmp::Reverse;
use ztm_cache::{CpuId, Fabric, XiKind};
use ztm_isa::{Op, StepEvent, StepOutcome};
use ztm_mem::{Address, LineAddr, LINE_SIZE};

/// Most steps one parkable loop iteration may have. The Figure 1 spin
/// loop has four; longer loops are left to ordinary stepping.
pub(crate) const MAX_LOOP_STEPS: usize = 16;

/// Everything the next iteration of a loop depends on, sampled at its head
/// (the landing point of a taken backward branch). Two equal heads with
/// nothing observed in between mean the iterations that follow them are
/// identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LoopHead {
    pub pc: usize,
    pub cc: u8,
    pub grs: [u64; 16],
    /// The private cache's XI/TX-boundary generation.
    pub gen: u64,
    /// The line window: `(line, exclusive, generation, page epoch)`.
    pub window: Option<(LineAddr, bool, u64, u64)>,
    /// The same-line ifetch snapshot: `(line, installs at that fetch, page
    /// epoch at that fetch, installs now)`.
    pub ifetch: (Option<LineAddr>, u64, u64, u64),
}

/// One step of the confirming iteration, replayed in closed form.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LoopStep {
    /// Pre-step clock minus the iteration's loop-head clock.
    pub offset: u64,
    /// Post-step program counter, condition code and registers.
    pub pc: usize,
    pub cc: u8,
    pub grs: [u64; 16],
    /// Whether the step's data access was a line-window hit (counted in
    /// the node's `coalesced` statistic).
    pub hit: bool,
}

/// A CPU's parking state.
#[derive(Debug)]
pub(crate) enum Spin {
    /// No candidate loop head.
    Idle,
    /// The last loop head reached; reaching an identical one next starts
    /// the confirming iteration.
    Watch(LoopHead),
    /// Recording the confirming iteration that began at `head` at clock
    /// `start` into `steps`; `next` is the pre-step clock the next recorded
    /// step must have (a quiesce release that bumps the clock breaks the
    /// chain).
    Confirm {
        head: LoopHead,
        start: u64,
        next: u64,
        steps: Vec<LoopStep>,
    },
    /// Parked: its steps are retired in closed form.
    Parked(Park),
}

/// The two kinds of park.
#[derive(Debug)]
pub(crate) enum Park {
    /// Off the scheduling heap, repeating a confirmed loop iteration.
    Loop(Loop),
    /// On the heap at its deadline, retrying a stiff-armed access.
    Stall(Stall),
}

/// A CPU parked on a loop: iteration `n ≥ 0` runs step `m` at pre-step
/// clock `c0 + n·period + steps[m].offset`.
#[derive(Debug)]
pub(crate) struct Loop {
    pub c0: u64,
    pub period: u64,
    pub steps: Vec<LoopStep>,
    /// Line-window hits per iteration.
    pub hits: u64,
    /// The polled line, when the loop reads memory.
    pub line: Option<LineAddr>,
}

/// A CPU's last confirmed loop park, kept across its wakes: the loop
/// head's registers, the polled line as the loop's loads read it, and —
/// while the CPU is not parked on it — the confirmed [`Loop`] itself. A
/// woken CPU that reaches a loop head where the template provably repeats
/// parks again at once (see [`System::loop_head`]).
#[derive(Debug)]
pub(super) struct Template {
    pc: usize,
    cc: u8,
    grs: [u64; 16],
    /// When the loop reads memory: the polled line, whether the confirming
    /// iteration's window on it was exclusive (a load for update hits only
    /// an exclusive window), and the line's bytes as a load read them.
    polled: Option<(LineAddr, bool, [u8; LINE_SIZE as usize])>,
    /// The confirmed loop, moved here when the CPU is woken off it.
    idle: Option<Loop>,
}

/// The closed-form steps of a [`Park`] below some bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Retired {
    pub steps: u64,
    pub hits: u64,
    /// Index into [`Loop::steps`] of the last retired step, whose post-step
    /// registers the core takes on. `None` leaves the registers as they
    /// are: no loop step retired (the core is still at the loop head at
    /// `c0`), or the steps were stall retries, which change only the clock.
    pub last: Option<usize>,
    /// The core clock after the last retired step.
    pub clock: u64,
}

impl Loop {
    /// The steps whose pre-step clock is below `bound`: with
    /// `d = bound − c0 − 1`, `q = d / period` full iterations plus the
    /// steps of iteration `q` whose offset is at most `d mod period`.
    pub fn retire_below(&self, bound: u64) -> Retired {
        if bound <= self.c0 {
            return Retired {
                steps: 0,
                hits: 0,
                last: None,
                clock: self.c0,
            };
        }
        let d = bound - self.c0 - 1;
        let (q, r) = (d / self.period, d % self.period);
        // Offsets strictly increase from 0, so at least step 0 counts.
        let k = self.steps.partition_point(|s| s.offset <= r);
        let len = self.steps.len() as u64;
        let next = self.steps.get(k).map_or(self.period, |s| s.offset);
        Retired {
            steps: q * len + k as u64,
            hits: q * self.hits + self.steps[..k].iter().filter(|s| s.hit).count() as u64,
            last: Some(k - 1),
            clock: (self.c0 + q * self.period).saturating_add(next),
        }
    }
}

/// A CPU stall-parked on a stiff-armed data access: its retry `n ≥ 0`
/// runs at pre-step clock `c1 + n·period`, and `holder` rejects retries
/// `0..retries` for certain (they exhaust the holder's reject budget
/// against this CPU). Retry `retries`, at the [`deadline`](Self::deadline),
/// is accepted as a `RejectHang` and runs for real.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Stall {
    pub c1: u64,
    /// `1 + xi_reject_retry`: a retry's fetch takes the same-line fast
    /// path (0 cycles) and the rejected access costs the retry delay.
    pub period: u64,
    /// `xi_reject_threshold − c`, where `c` is the holder's reject count
    /// against this CPU when it parked.
    pub retries: u64,
    pub holder: usize,
    /// The kind of the rejected XI, counted once per retry by the fabric.
    pub kind: XiKind,
}

impl Stall {
    /// The pre-step clock of the first retry that is not a certain reject.
    pub fn deadline(&self) -> u64 {
        self.c1 + self.retries * self.period
    }

    /// The retries whose pre-step clock is below `bound`: with
    /// `d = bound − c1 − 1`, `d / period + 1` of them, capped at `retries`.
    pub fn retire_below(&self, bound: u64) -> Retired {
        let steps = match bound.checked_sub(self.c1 + 1) {
            Some(d) => (d / self.period + 1).min(self.retries),
            None => 0,
        };
        Retired {
            steps,
            hits: 0,
            last: None,
            clock: self.c1 + steps * self.period,
        }
    }
}

/// Which CPUs are stall-parked on which holder's rejects: one doubly
/// linked list per holder, threaded through per-CPU links so that parking
/// allocates nothing (a CPU waits on one holder at a time). Any real step
/// of a holder that does not stall wakes its list (see
/// `System::wake_waiters`).
#[derive(Debug, Default)]
pub(crate) struct Waiters {
    /// Per holder, its first waiter.
    head: Vec<u32>,
    /// Per waiter, its neighbours in its holder's list.
    next: Vec<u32>,
    prev: Vec<u32>,
}

const NONE: u32 = u32::MAX;

impl Waiters {
    pub fn new(cpus: usize) -> Self {
        Waiters {
            head: vec![NONE; cpus],
            next: vec![NONE; cpus],
            prev: vec![NONE; cpus],
        }
    }

    /// Whether any CPU waits on `holder`.
    pub fn any(&self, holder: usize) -> bool {
        self.head[holder] != NONE
    }

    /// Whether no CPU waits on anyone.
    pub fn is_empty(&self) -> bool {
        self.head.iter().all(|&h| h == NONE)
    }

    pub fn add(&mut self, holder: usize, cpu: usize) {
        let first = self.head[holder];
        debug_assert!(first != cpu as u32 && self.prev[cpu] == NONE);
        self.next[cpu] = first;
        if first != NONE {
            self.prev[first as usize] = cpu as u32;
        }
        self.head[holder] = cpu as u32;
    }

    /// Unlinks `cpu` from `holder`'s list if it is there.
    pub fn remove(&mut self, holder: usize, cpu: usize) {
        let (p, n) = (self.prev[cpu], self.next[cpu]);
        if p != NONE {
            self.next[p as usize] = n;
        } else if self.head[holder] == cpu as u32 {
            self.head[holder] = n;
        } else {
            return;
        }
        if n != NONE {
            self.prev[n as usize] = p;
        }
        self.prev[cpu] = NONE;
        self.next[cpu] = NONE;
    }

    /// Unlinks and returns the first CPU waiting on `holder`.
    pub fn pop(&mut self, holder: usize) -> Option<usize> {
        let first = self.head[holder];
        (first != NONE).then(|| {
            self.remove(holder, first as usize);
            first as usize
        })
    }
}

/// Whether a parked loop may contain `op`: loads, compares, branches,
/// `DELAY` and register ALU ops — steps whose only effects are on the
/// core's registers, condition code and clock plus one L1 read. Stores,
/// CS, RAND, RDCLK, PPA, STMNOTE, TX ops and the faulting divide are out.
pub(crate) fn parkable(op: Op) -> bool {
    matches!(
        op,
        Op::Lg
            | Op::Ltg
            | Op::Cg
            | Op::Lghi
            | Op::Lgr
            | Op::La
            | Op::Agr
            | Op::Sgr
            | Op::Aghi
            | Op::Ngr
            | Op::Xgr
            | Op::Msgr
            | Op::Sllg
            | Op::Srlg
            | Op::Ltgr
            | Op::Cgr
            | Op::Cghi
            | Op::Brc
            | Op::Cgij
            | Op::Brctg
            | Op::Br
            | Op::Delay
            | Op::Nop
    )
}

/// Whether `op` (a [`parkable`] op) reads data memory.
pub(crate) fn reads_memory(op: Op) -> bool {
    matches!(op, Op::Lg | Op::Ltg | Op::Cg)
}

/// Whether a stiff-armed `op` may stall-park: it makes exactly one data
/// access, so a rejected retry stops at that access with nothing done
/// before it but the instruction fetch and the idempotent constrained
/// checks. Loads, compares, stores, NTSTG, CSG and STCKF (whose stored
/// clock value is computed but never used by a rejected retry).
pub(crate) fn single_access(op: Op) -> bool {
    matches!(
        op,
        Op::Lg | Op::Ltg | Op::Cg | Op::Stg | Op::Ntstg | Op::Csg | Op::Stckf
    )
}

/// Parked-CPU bookkeeping shared between the scheduler and [`View`].
#[derive(Debug, Default)]
pub(super) struct Wakes {
    /// CPUs currently parked (both kinds).
    pub(super) parked: usize,
    /// CPUs woken during the current step, retired on the memory side and
    /// waiting for [`System::resume`].
    pub(super) woken: Vec<Woken>,
    /// The holder and XI kind of the last fetch plan whose *first* XI was
    /// stiff-armed (`None` when a later one was): a stalled step's
    /// candidate for a stall park.
    pub(super) rejected: Option<(usize, XiKind)>,
    /// The CPUs stall-parked on each CPU's XI rejects.
    pub(super) waiters: Waiters,
    /// Per CPU, the latest deadline a stall park queued it at. An early
    /// wake leaves that heap entry behind, stale until the clock reaches it
    /// again; a loop park, which must leave the heap, never starts at or
    /// before it.
    pub(super) stall_entry: Vec<u64>,
    /// Per CPU, its last confirmed loop park.
    pub(super) templates: Vec<Option<Template>>,
    /// Loop parks that confirmed an iteration, loop parks taken straight
    /// from a template, and loop parks ended by a wake.
    pub(super) loop_parks: u64,
    pub(super) reparks: u64,
    pub(super) wakes: u64,
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
pub(super) struct Woken {
    cpu: usize,
    park: Park,
    retired: Retired,
}

impl System {
    /// Whether a run may park CPUs: nothing observes individual steps (no
    /// event tracer, no step log) and every step is a plain scalar step (no
    /// issue windows, legacy walk or timer ticks). The per-CPU conditions
    /// live in [`loop_head`](Self::loop_head) and
    /// [`stall_park`](Self::stall_park).
    pub(super) fn parking_allowed(&self) -> bool {
        !self.tracer.is_enabled()
            && self.step_log.is_none()
            && self.pipeline.is_none()
            && !self.use_legacy_interpreter
            && self.config.timer_interval.is_none()
    }

    /// Ends a parking run: requeues every parked CPU where it parked — a
    /// spinner at its loop head, a stalled CPU at its first closed-form
    /// retry `c1` — retiring none of its closed-form steps, and forgets
    /// every candidate loop and template (steps taken outside a parking
    /// run are not recorded). A requeued CPU merely lags: its unretired
    /// steps touch only its own core, its own line and counters (a stall's
    /// holder reject count and the fabric's XI count), so they commute with
    /// every step taken since it parked, and stepping on from here reaches
    /// the same outcome.
    pub(super) fn stop_parking(&mut self) {
        for j in 0..self.nodes.len() {
            if matches!(self.nodes[j].spin, Spin::Parked(_)) {
                let woken = self.wakes.unpark(&mut self.nodes, &mut self.fabric, j, 0);
                self.resume(woken);
                self.requeue(j);
            } else {
                self.nodes[j].spin = Spin::Idle;
            }
        }
        self.wakes.templates.iter_mut().for_each(|t| *t = None);
        debug_assert!(self.wakes.waiters.is_empty());
    }

    /// Requeues every CPU woken during the step that just completed.
    pub(super) fn drain_woken(&mut self) {
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
    /// when none retired), counts the steps and hands a loop back to the
    /// CPU's template. The caller requeues it.
    fn resume(&mut self, woken: Woken) {
        let Woken {
            cpu: j,
            park,
            retired,
        } = woken;
        let core = &mut self.cores[j];
        if let Park::Loop(l) = park {
            if let Some(m) = retired.last {
                let s = &l.steps[m];
                core.pc = s.pc;
                core.cc = s.cc;
                core.grs = s.grs;
                core.instructions += retired.steps;
            }
            if let Some(t) = &mut self.wakes.templates[j] {
                t.idle = Some(l);
            }
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
    pub(super) fn exec_step_parking(&mut self, i: usize) -> (StepOutcome, bool) {
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
            && parkable(d.op)
            && node.ifetch_repeats(Address::new(d.addr).line(), self.pages.epoch());
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
            && hit == u64::from(reads_memory(d.op));
        match &mut node.spin {
            Spin::Confirm {
                start, next, steps, ..
            } if ok && steps.len() < MAX_LOOP_STEPS => {
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

    /// The conditions both kinds of park share on CPU `i`: no quiesce in
    /// force, no execution trace or PER controls, and no pending abort.
    fn may_park(&self, i: usize) -> bool {
        self.quiesce.is_none()
            && !self.traced[i]
            && !self.cores[i].per.enabled
            && self.nodes[i].engine.pending_abort().is_none()
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
    /// Only a CPU whose op makes one data access ([`single_access`]) and
    /// whose diagnostic control is inert parks, and only when
    /// [`may_park`](Self::may_park).
    fn stall_park(&mut self, i: usize) {
        let Some((h, kind)) = self.wakes.rejected.take() else {
            return;
        };
        let node = &self.nodes[i];
        let d = self.programs[i]
            .as_ref()
            .expect("program loaded")
            .decoded(self.cores[i].pc);
        let c = self.nodes[h].cache.rejects_of(CpuId(i));
        let threshold = self.config.geometry.xi_reject_threshold;
        if c >= threshold
            || !single_access(d.op)
            || !self.may_park(i)
            || !node.engine.tdc_inert()
            || !node.ifetch_repeats(Address::new(d.addr).line(), self.pages.epoch())
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
    /// and each such change wakes it first (see [`View::wake`]). That park
    /// becomes the CPU's [`Template`], and a woken CPU parks on it again
    /// at the first loop head where it provably repeats
    /// ([`repark`](Self::repark)), skipping the watching and confirming
    /// iterations.
    ///
    /// Only a running CPU outside any transaction is watched, and only when
    /// [`may_park`](Self::may_park); it parks only past its last stall
    /// deadline (see [`Wakes::stall_entry`]). Its store cache may hold
    /// non-transactional entries (the gathering cache
    /// keeps a lock holder's last stores until an XI drains them): their
    /// bytes are already in committed memory, a parked load forwards them
    /// unchanged, and only a store, a transaction boundary or an XI — none
    /// of which a parked CPU meets without being woken — changes them.
    /// Returns whether the CPU parked.
    fn loop_head(&mut self, i: usize) -> bool {
        if !self.may_park(i) || !self.cores[i].is_running() || self.nodes[i].engine.in_tx() {
            self.nodes[i].spin = Spin::Idle;
            return false;
        }
        let l = match self.repark(i) {
            Some(mut l) => {
                l.c0 = self.cores[i].clock;
                self.wakes.reparks += 1;
                l
            }
            None => {
                let Some((head, l)) = self.watch(i) else {
                    return false;
                };
                let polled = head
                    .window
                    .filter(|_| l.line.is_some())
                    .map(|(line, excl, ..)| (line, excl, self.loaded_line(i, line)));
                self.wakes.templates[i] = Some(Template {
                    pc: head.pc,
                    cc: head.cc,
                    grs: head.grs,
                    polled,
                    idle: None,
                });
                self.wakes.loop_parks += 1;
                l
            }
        };
        self.nodes[i].spin = Spin::Parked(Park::Loop(l));
        self.wakes.parked += 1;
        true
    }

    /// Advances CPU `i`'s watch of the loop head it is at (see
    /// [`loop_head`](Self::loop_head)). Returns the head and the confirmed
    /// loop, starting at the current clock, when the confirming iteration
    /// just completed; the caller parks the CPU on it.
    fn watch(&mut self, i: usize) -> Option<(LoopHead, Loop)> {
        let core = &self.cores[i];
        let node = &mut self.nodes[i];
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
                let l = Loop {
                    c0: clock,
                    period: clock - start,
                    line: head.window.filter(|_| hits > 0).map(|w| w.0),
                    hits,
                    steps,
                };
                return Some((head, l));
            }
            Spin::Watch(prev) if prev == head => {
                node.spin = Spin::Confirm {
                    head,
                    start: clock,
                    next: clock,
                    steps: Vec::new(),
                };
            }
            _ => node.spin = Spin::Watch(head),
        }
        None
    }

    /// CPU `i`'s confirmed loop, taken from its template, when the CPU is
    /// at a loop head from which that loop provably repeats step for step:
    /// - the registers and condition code equal the template's, and the
    ///   clock is past the CPU's last stall deadline;
    /// - when the loop reads memory, the line window is on the polled line,
    ///   covers the template's ownership and is valid now, so every load
    ///   hits it at `l1_hit`, and a load of the line reads the template's
    ///   bytes;
    /// - the head instruction fetches through the same-line fast path, as
    ///   every recorded step did from that one text line.
    ///
    /// The iteration then starts from the same state and reads the same
    /// values at the same cost, so it repeats the recorded one until
    /// something the CPU can observe changes — which wakes it first, as
    /// for any loop park. Registers alone are not enough: a loop that
    /// overwrites the value it polls reaches the same registers whatever
    /// the line holds, and a write that bypasses coherence changes the
    /// line but leaves the window valid.
    fn repark(&mut self, i: usize) -> Option<Loop> {
        let t = self.wakes.templates[i].as_ref()?;
        let core = &self.cores[i];
        if t.pc != core.pc
            || t.cc != core.cc
            || t.grs != core.grs
            || core.clock <= self.wakes.stall_entry[i]
        {
            return None;
        }
        let node = &self.nodes[i];
        let epoch = self.pages.epoch();
        if let Some((line, excl, bytes)) = &t.polled {
            let windowed = node
                .last_data
                .is_some_and(|w| w.serves(*line, *excl, node.cache.generation(), epoch));
            if !windowed || self.loaded_line(i, *line) != *bytes {
                return None;
            }
        }
        let d = self.programs[i]
            .as_ref()
            .expect("program loaded")
            .decoded(core.pc);
        if !node.ifetch_repeats(Address::new(d.addr).line(), epoch) {
            return None;
        }
        self.wakes.templates[i].as_mut()?.idle.take()
    }

    /// The bytes of `line` as CPU `i`'s loads read them: committed memory
    /// overlaid with the CPU's own store cache.
    fn loaded_line(&self, i: usize, line: LineAddr) -> [u8; LINE_SIZE as usize] {
        let mut bytes = self.mem.line_contents(line);
        self.nodes[i].cache.forward(line.base(), &mut bytes);
        bytes
    }
}

impl View<'_> {
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
            self.wakes.wakes += u64::from(matches!(woken.park, Park::Loop(_)));
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
    pub(super) fn xi_accepted(&mut self, t: usize) {
        if self.wakes.parked > 0 {
            self.wake(t);
            while let Some(w) = self.wakes.waiters.pop(t) {
                self.wake(w);
            }
        }
    }

    /// Wakes every parked CPU (a page-residency change or a broadcast stop).
    pub(super) fn wake_all(&mut self) {
        for j in 0..self.nodes.len() {
            self.wake(j);
        }
    }

    /// A committed-memory write to `[addr, addr + len)` that bypasses
    /// coherence — no XI reaches the lines' sharers: wakes the CPUs parked
    /// on those lines, and drops confirming iterations that read them (the
    /// steps recorded before the write would not repeat after it).
    pub(super) fn bypass_write(&mut self, addr: Address, len: u64) {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(offset: u64, hit: bool) -> LoopStep {
        LoopStep {
            offset,
            pc: offset as usize,
            cc: 0,
            grs: [0; 16],
            hit,
        }
    }

    /// The Figure 1 loop's shape: LTG (hit), JZ, DELAY, J at offsets
    /// 0/2/4/29, period 31.
    fn spin() -> Loop {
        Loop {
            c0: 100,
            period: 31,
            steps: vec![
                step(0, true),
                step(2, false),
                step(4, false),
                step(29, false),
            ],
            hits: 1,
            line: None,
        }
    }

    /// Brute-force enumeration of the serial schedule the closed form
    /// replaces.
    fn enumerate(p: &Loop, bound: u64) -> Retired {
        let mut r = Retired {
            steps: 0,
            hits: 0,
            last: None,
            clock: p.c0,
        };
        for n in 0.. {
            for (m, s) in p.steps.iter().enumerate() {
                if p.c0 + n * p.period + s.offset >= bound {
                    return r;
                }
                r.steps += 1;
                r.hits += u64::from(s.hit);
                r.last = Some(m);
                r.clock = p.c0 + n * p.period + p.steps.get(m + 1).map_or(p.period, |t| t.offset);
            }
        }
        unreachable!()
    }

    #[test]
    fn closed_form_matches_enumeration() {
        let p = spin();
        for bound in 0..600 {
            assert_eq!(p.retire_below(bound), enumerate(&p, bound), "bound {bound}");
        }
    }

    /// Brute-force enumeration of the stall retries the closed form
    /// replaces.
    fn enumerate_stall(s: &Stall, bound: u64) -> Retired {
        let mut r = Retired {
            steps: 0,
            hits: 0,
            last: None,
            clock: s.c1,
        };
        while r.steps < s.retries && s.c1 + r.steps * s.period < bound {
            r.steps += 1;
            r.clock += s.period;
        }
        r
    }

    #[test]
    fn stall_closed_form_matches_enumeration() {
        for (c1, period, retries) in [(100, 41, 15), (0, 1, 16), (7, 3, 0), (50, 41, 1)] {
            let s = Stall {
                c1,
                period,
                retries,
                holder: 0,
                kind: XiKind::Exclusive,
            };
            for bound in 0..s.deadline() + 2 * period + 2 {
                assert_eq!(
                    s.retire_below(bound),
                    enumerate_stall(&s, bound),
                    "{s:?} bound {bound}"
                );
            }
            assert_eq!(s.retire_below(u64::MAX).steps, retries);
            assert_eq!(s.retire_below(s.deadline()).clock, s.deadline());
        }
    }

    #[test]
    fn waiter_lists_link_and_unlink() {
        let mut w = Waiters::new(4);
        w.add(0, 1);
        w.add(0, 2);
        w.add(3, 0);
        assert!(w.any(0) && w.any(3) && !w.any(1));
        w.remove(0, 1);
        w.remove(0, 1);
        assert_eq!(w.pop(0), Some(2));
        assert_eq!(w.pop(0), None);
        w.add(0, 1);
        w.add(0, 2);
        w.add(0, 3);
        w.remove(0, 2);
        assert_eq!((w.pop(0), w.pop(0), w.pop(0)), (Some(3), Some(1), None));
        assert_eq!(w.pop(3), Some(0));
        assert!(w.is_empty());
    }

    #[test]
    fn whitelist_excludes_side_effects() {
        for op in [
            Op::Stg,
            Op::Csg,
            Op::RandMod,
            Op::Rdclk,
            Op::Ppa,
            Op::StmNote,
            Op::Tbegin,
        ] {
            assert!(!parkable(op), "{op:?}");
        }
        assert!(parkable(Op::Ltg) && reads_memory(Op::Ltg));
        assert!(parkable(Op::Delay) && !reads_memory(Op::Delay));
        for op in [Op::Tbeginc, Op::Tend, Op::Ppa, Op::RandMod, Op::StmNote] {
            assert!(!single_access(op), "{op:?}");
        }
        assert!(single_access(Op::Stg) && single_access(Op::Csg));
    }
}
