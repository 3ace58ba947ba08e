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
//! This module holds the per-CPU detection state, the waiter bookkeeping
//! and the closed-form arithmetic; the scheduler in `system.rs` drives them
//! (see DESIGN.md "Parking" for the exactness arguments).

use ztm_cache::XiKind;
use ztm_isa::Op;
use ztm_mem::LineAddr;

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
