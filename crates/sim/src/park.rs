//! Spin parking: a CPU that spins on an unchanged L1 line — the paper's
//! Figure 1 "wait for lock to become free" loop — repeats one loop
//! iteration exactly, step for step, until something it can observe
//! changes. Instead of paying one scheduler event per repeated step, the
//! scheduler takes such a CPU off its heap and later retires the repeated
//! steps in closed form (see `System`'s scheduler for when, and DESIGN.md
//! "Spin parking" for the exactness argument).
//!
//! This module holds the per-CPU detection state and the closed-form
//! arithmetic; the scheduler in `system.rs` drives both.

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

/// A CPU's spin-parking state.
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
    /// Off the scheduling heap, repeating the confirmed iteration.
    Parked(Park),
}

/// A parked CPU: iteration `n ≥ 0` runs step `m` at pre-step clock
/// `c0 + n·period + steps[m].offset`.
#[derive(Debug)]
pub(crate) struct Park {
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
    /// Index into [`Park::steps`] of the last retired step (`None` when no
    /// step retired: the core is still at the loop head at `c0`).
    pub last: Option<usize>,
    /// The core clock after the last retired step.
    pub clock: u64,
}

impl Park {
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
    fn spin() -> Park {
        Park {
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
    fn enumerate(p: &Park, bound: u64) -> Retired {
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
    }
}
