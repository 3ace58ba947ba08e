//! The CPU interpreter: executes one instruction per [`step`] against a
//! [`Machine`].

use crate::asm::Program;
use crate::decoded::{DecodedInstr, Op, FLAG_FOR_UPDATE, FLAG_OPERAND_REG, NO_REG};
use crate::instr::{Instr, MemOperand, RegOrImm};
use crate::machine::{AccessResult, CasResult, EndResult, ExceptionDisposition, Machine};
use crate::reg::{CpuCore, CpuState, HaltReason, Reg};
use ztm_core::ProgramException;
use ztm_mem::Address;

/// What happened during one [`step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepEvent {
    /// An instruction completed normally.
    Executed,
    /// A memory access stalled (stiff-armed XI); the instruction will retry.
    Stalled,
    /// The outermost TEND committed a transaction.
    Committed,
    /// A transaction aborted (millicode ran; execution resumed at the abort
    /// handler or the TBEGINC).
    Aborted,
    /// The CPU is halted (no work performed).
    Halted,
}

/// Result of one [`step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepOutcome {
    /// Cycles consumed.
    pub cycles: u64,
    /// What happened.
    pub event: StepEvent,
    /// The constrained-retry ladder requests quiescing all other CPUs for
    /// the next retry (§III.E last resort).
    pub broadcast_stop: bool,
}

impl StepOutcome {
    fn executed(cycles: u64) -> Self {
        StepOutcome {
            cycles,
            event: StepEvent::Executed,
            broadcast_stop: false,
        }
    }
}

/// Store-hit-load-miss merge scan (§III.C) — the predecode pass computes
/// this once per program; the legacy walk re-derives it per execution.
fn store_follows(prog: &Program, idx: usize, mem: &MemOperand) -> bool {
    crate::decoded::store_follows(prog.raw_instrs(), idx, mem)
}

fn effective_address(core: &CpuCore, mem: &MemOperand) -> Address {
    let mut a = mem.disp as u64;
    if let Some(b) = mem.base {
        a = a.wrapping_add(core.gr(b));
    }
    if let Some(x) = mem.index {
        a = a.wrapping_add(core.gr(x));
    }
    Address::new(a)
}

/// Effective address from a decoded record: displacement in `imm`, register
/// slots resolved — same base-then-index wrapping order as the legacy path.
#[inline]
fn effective_address_decoded(core: &CpuCore, d: &DecodedInstr) -> Address {
    let mut a = d.imm as u64;
    if d.base != NO_REG {
        a = a.wrapping_add(core.grs[d.base as usize]);
    }
    if d.index != NO_REG {
        a = a.wrapping_add(core.grs[d.index as usize]);
    }
    Address::new(a)
}

fn take_abort(core: &mut CpuCore, prog: &Program, m: &mut impl Machine, atia: u64) -> StepOutcome {
    let apply = m.take_abort(&core.grs, atia);
    for (r, v) in &apply.gr_restores {
        core.grs[*r] = *v;
    }
    if let Some(msg) = apply.terminated {
        core.state = CpuState::Halted(HaltReason::Terminated(msg));
        return StepOutcome {
            cycles: apply.cycles,
            event: StepEvent::Aborted,
            broadcast_stop: false,
        };
    }
    core.cc = apply.cc;
    core.pc = prog
        .index_of_addr(apply.resume_ia)
        .expect("abort resume address must map to a program instruction");
    StepOutcome {
        cycles: apply.cycles,
        event: StepEvent::Aborted,
        broadcast_stop: apply.broadcast_stop,
    }
}

/// Handles a program-exception condition raised mid-instruction.
/// Returns the outcome; the program counter is left unchanged for retries.
fn handle_fault(
    core: &mut CpuCore,
    prog: &Program,
    m: &mut impl Machine,
    pe: ProgramException,
    atia: u64,
) -> StepOutcome {
    match m.report_exception(pe, false) {
        ExceptionDisposition::Retry { cycles } => StepOutcome {
            cycles,
            event: StepEvent::Executed,
            broadcast_stop: false,
        },
        ExceptionDisposition::PendingAbort => take_abort(core, prog, m, atia),
        ExceptionDisposition::Terminate(msg) => {
            core.state = CpuState::Halted(HaltReason::Terminated(msg));
            StepOutcome {
                cycles: 1,
                event: StepEvent::Executed,
                broadcast_stop: false,
            }
        }
    }
}

/// Executes one instruction of `prog` on `core` against machine `m`.
///
/// Advances `core.clock` by the consumed cycles. Aborts, faults, PER events
/// and stalls are handled internally per §II/§III of the paper; the caller
/// only needs to keep stepping until the CPU halts.
pub fn step(core: &mut CpuCore, prog: &Program, m: &mut impl Machine) -> StepOutcome {
    let out = step_inner(core, prog, m);
    core.clock += out.cycles;
    out
}

/// Executes one instruction via the original `Instr`-enum walk (cloning the
/// instruction and re-deriving lengths, classes and branch directions every
/// execution). Kept as the reference interpreter: the differential tests run
/// workloads through both paths and require identical outcomes and digests.
pub fn step_legacy(core: &mut CpuCore, prog: &Program, m: &mut impl Machine) -> StepOutcome {
    let out = step_inner_legacy(core, prog, m);
    core.clock += out.cycles;
    out
}

pub(crate) fn step_inner(core: &mut CpuCore, prog: &Program, m: &mut impl Machine) -> StepOutcome {
    if !core.is_running() {
        return StepOutcome {
            cycles: 0,
            event: StepEvent::Halted,
            broadcast_stop: false,
        };
    }

    let idx = core.pc;
    let d = *prog.decoded(idx);
    let ia = d.addr;

    // Asynchronous pending aborts (XI conflicts delivered between
    // instructions — completion stalls against XIs, §III.C).
    if m.pending_abort() {
        return take_abort(core, prog, m, ia);
    }

    let len = d.len as u64;
    let mut cycles: u64 = 1;

    // Instruction fetch through the i-cache; ifetch exceptions are never
    // filtered (§II.C), which `report_exception(…, true)` enforces.
    match m.ifetch(Address::new(ia)) {
        AccessResult::Done { cycles: c, .. } => cycles += c,
        AccessResult::Stall { cycles: c } => {
            return StepOutcome {
                cycles: cycles + c,
                event: StepEvent::Stalled,
                broadcast_stop: false,
            }
        }
        AccessResult::Fault(pe) => {
            return match m.report_exception(pe, true) {
                ExceptionDisposition::Retry { cycles } => StepOutcome {
                    cycles,
                    event: StepEvent::Executed,
                    broadcast_stop: false,
                },
                ExceptionDisposition::PendingAbort => take_abort(core, prog, m, ia),
                ExceptionDisposition::Terminate(msg) => {
                    core.state = CpuState::Halted(HaltReason::Terminated(msg));
                    StepOutcome {
                        cycles: 1,
                        event: StepEvent::Executed,
                        broadcast_stop: false,
                    }
                }
            }
        }
    }

    // PER instruction-fetch monitoring (§II.E.2).
    if core.per.enabled && core.per.ifetch_event(ia, m.in_tx()) {
        core.per_events += 1;
        if m.in_tx() {
            // PER event in a transaction: abort + non-filterable
            // interruption into the OS.
            let disp = m.report_exception(ProgramException::PerEvent, true);
            if disp == ExceptionDisposition::PendingAbort {
                return take_abort(core, prog, m, ia);
            }
        } else if let ExceptionDisposition::Retry { cycles: c } =
            m.report_exception(ProgramException::PerEvent, true)
        {
            // Debugger observed the fetch; the instruction then executes.
            cycles += c;
        }
    }

    // Transactional legality + constrained constraints + diagnostic tick.
    // The class (backward bit included) was folded in at predecode time.
    m.check_instruction(d.class, ia, len);
    if m.pending_abort() {
        return take_abort(core, prog, m, ia);
    }

    let mut next_pc = idx + 1;
    let mut event = StepEvent::Executed;

    macro_rules! mem_load {
        ($ea:expr, $len:expr, $upd:expr) => {
            match m.load($ea, $len, $upd) {
                AccessResult::Done { value, cycles: c } => {
                    cycles += c;
                    value
                }
                AccessResult::Stall { cycles: c } => {
                    return StepOutcome {
                        cycles: cycles + c,
                        event: StepEvent::Stalled,
                        broadcast_stop: false,
                    }
                }
                AccessResult::Fault(pe) => return handle_fault(core, prog, m, pe, ia),
            }
        };
    }
    macro_rules! mem_store {
        ($ea:expr, $len:expr, $val:expr) => {{
            match m.store($ea, $len, $val) {
                AccessResult::Done { cycles: c, .. } => cycles += c,
                AccessResult::Stall { cycles: c } => {
                    return StepOutcome {
                        cycles: cycles + c,
                        event: StepEvent::Stalled,
                        broadcast_stop: false,
                    }
                }
                AccessResult::Fault(pe) => return handle_fault(core, prog, m, pe, ia),
            }
            if core.per.enabled && core.per.store_event($ea.raw(), $len as u64, m.in_tx()) {
                core.per_events += 1;
                match m.report_exception(ProgramException::PerEvent, false) {
                    ExceptionDisposition::PendingAbort => return take_abort(core, prog, m, ia),
                    ExceptionDisposition::Retry { cycles: c } => cycles += c,
                    ExceptionDisposition::Terminate(msg) => {
                        core.state = CpuState::Halted(HaltReason::Terminated(msg));
                    }
                }
            }
        }};
    }

    match d.op {
        Op::Lghi => core.set_gr(Reg(d.r1), d.imm as u64),
        Op::Lgr => core.set_gr(Reg(d.r1), core.grs[d.r2 as usize]),
        Op::La => core.set_gr(Reg(d.r1), effective_address_decoded(core, &d).raw()),
        Op::Lg => {
            let ea = effective_address_decoded(core, &d);
            let upd = d.flags & FLAG_FOR_UPDATE != 0;
            let v = mem_load!(ea, 8, upd);
            core.set_gr(Reg(d.r1), v);
        }
        Op::Ltg => {
            let ea = effective_address_decoded(core, &d);
            let v = mem_load!(ea, 8, false);
            core.set_gr(Reg(d.r1), v);
            core.set_cc_value(v as i64);
        }
        Op::Stg => {
            let ea = effective_address_decoded(core, &d);
            mem_store!(ea, 8, core.grs[d.r1 as usize]);
        }
        Op::Ntstg => {
            let ea = effective_address_decoded(core, &d);
            match m.store_nontx(ea, core.grs[d.r1 as usize]) {
                AccessResult::Done { cycles: c, .. } => cycles += c,
                AccessResult::Stall { cycles: c } => {
                    return StepOutcome {
                        cycles: cycles + c,
                        event: StepEvent::Stalled,
                        broadcast_stop: false,
                    }
                }
                AccessResult::Fault(pe) => return handle_fault(core, prog, m, pe, ia),
            }
        }
        Op::Csg => {
            let ea = effective_address_decoded(core, &d);
            match m.compare_and_swap(ea, core.grs[d.r1 as usize], core.grs[d.r2 as usize]) {
                CasResult::Done {
                    swapped,
                    old,
                    cycles: c,
                } => {
                    cycles += c;
                    if swapped {
                        core.cc = 0;
                    } else {
                        core.set_gr(Reg(d.r1), old);
                        core.cc = 1;
                    }
                }
                CasResult::Stall { cycles: c } => {
                    return StepOutcome {
                        cycles: cycles + c,
                        event: StepEvent::Stalled,
                        broadcast_stop: false,
                    }
                }
                CasResult::Fault(pe) => return handle_fault(core, prog, m, pe, ia),
            }
        }
        Op::Agr => {
            let v = core.grs[d.r1 as usize].wrapping_add(core.grs[d.r2 as usize]);
            core.set_gr(Reg(d.r1), v);
            core.set_cc_value(v as i64);
        }
        Op::Sgr => {
            let v = core.grs[d.r1 as usize].wrapping_sub(core.grs[d.r2 as usize]);
            core.set_gr(Reg(d.r1), v);
            core.set_cc_value(v as i64);
        }
        Op::Aghi => {
            let v = core.grs[d.r1 as usize].wrapping_add(d.imm as u64);
            core.set_gr(Reg(d.r1), v);
            core.set_cc_value(v as i64);
        }
        Op::Ngr => {
            let v = core.grs[d.r1 as usize] & core.grs[d.r2 as usize];
            core.set_gr(Reg(d.r1), v);
            core.set_cc_value(v as i64);
        }
        Op::Xgr => {
            let v = core.grs[d.r1 as usize] ^ core.grs[d.r2 as usize];
            core.set_gr(Reg(d.r1), v);
            core.set_cc_value(v as i64);
        }
        Op::Msgr => {
            let v = core.grs[d.r1 as usize].wrapping_mul(core.grs[d.r2 as usize]);
            core.set_gr(Reg(d.r1), v);
        }
        Op::Dsgr => {
            let divisor = core.grs[d.r2 as usize];
            if divisor == 0 {
                return handle_fault(core, prog, m, ProgramException::FixedPointDivide, ia);
            }
            let v = (core.grs[d.r1 as usize] as i64).wrapping_div(divisor as i64) as u64;
            core.set_gr(Reg(d.r1), v);
            cycles += 20;
        }
        Op::Sllg => core.set_gr(Reg(d.r1), core.grs[d.r2 as usize] << d.aux),
        Op::Srlg => core.set_gr(Reg(d.r1), core.grs[d.r2 as usize] >> d.aux),
        Op::Ltgr => {
            let v = core.grs[d.r2 as usize];
            core.set_gr(Reg(d.r1), v);
            core.set_cc_value(v as i64);
        }
        Op::Cgr => core.set_cc_cmp(
            core.grs[d.r1 as usize] as i64,
            core.grs[d.r2 as usize] as i64,
        ),
        Op::Cghi => core.set_cc_cmp(core.grs[d.r1 as usize] as i64, d.imm),
        Op::Cg => {
            let ea = effective_address_decoded(core, &d);
            let v = mem_load!(ea, 8, false);
            core.set_cc_cmp(core.grs[d.r1 as usize] as i64, v as i64);
        }
        Op::Brc => {
            if d.aux >> (3 - core.cc) & 1 == 1 {
                next_pc = d.target as usize;
            }
        }
        Op::Cgij => {
            if crate::decoded::decode_cond(d.aux).eval(core.grs[d.r1 as usize] as i64, d.imm) {
                next_pc = d.target as usize;
            }
        }
        Op::Brctg => {
            let v = core.grs[d.r1 as usize].wrapping_sub(1);
            core.set_gr(Reg(d.r1), v);
            if v != 0 {
                next_pc = d.target as usize;
            }
        }
        Op::Br => next_pc = core.grs[d.r1 as usize] as usize,
        Op::Tbegin => {
            let params = *prog.tbegin_params(d.params);
            cycles += m.tx_begin(false, params, &core.grs, ia, ia + len);
            if m.pending_abort() {
                return take_abort(core, prog, m, ia);
            }
            core.cc = 0;
        }
        Op::Tbeginc => {
            // The side-table entry is already `TbeginParams::constrained`.
            let params = *prog.tbegin_params(d.params);
            cycles += m.tx_begin(true, params, &core.grs, ia, ia + len);
            if m.pending_abort() {
                return take_abort(core, prog, m, ia);
            }
            core.cc = 0;
        }
        Op::Tend => match m.tx_end() {
            EndResult::NotInTx => core.cc = 2,
            EndResult::Inner { cycles: c } => {
                cycles += c;
                core.cc = 0;
            }
            EndResult::Commit { cycles: c } => {
                cycles += c;
                core.cc = 0;
                event = StepEvent::Committed;
                if core.per.tend_event_fires() {
                    core.per_events += 1;
                    if let ExceptionDisposition::Retry { cycles: c } =
                        m.report_exception(ProgramException::PerEvent, false)
                    {
                        cycles += c;
                    }
                }
            }
            EndResult::AbortPending => return take_abort(core, prog, m, ia),
        },
        Op::Tabort => {
            if !m.in_tx() {
                return handle_fault(core, prog, m, ProgramException::Specification, ia);
            }
            let code = if d.flags & FLAG_OPERAND_REG != 0 {
                core.grs[d.r2 as usize]
            } else {
                d.imm as u64
            };
            m.tx_abort_request(code);
            return take_abort(core, prog, m, ia);
        }
        Op::Etnd => {
            core.set_gr(Reg(d.r1), m.tx_depth());
            cycles += 10; // millicoded, not performance critical (§III.E)
        }
        Op::Ppa => {
            cycles += m.ppa(core.grs[d.r1 as usize]);
        }
        Op::Stckf => {
            let ea = effective_address_decoded(core, &d);
            let clk = core.clock;
            mem_store!(ea, 8, clk);
        }
        Op::Rdclk => core.set_gr(Reg(d.r1), core.clock),
        Op::RandMod => {
            let b = if d.flags & FLAG_OPERAND_REG != 0 {
                core.grs[d.r2 as usize]
            } else {
                d.imm as u64
            };
            core.set_gr(Reg(d.r1), m.rand(b));
            cycles = 0; // RNG overhead is excluded from measurements (§IV)
        }
        Op::Sar => core.ars[d.r1 as usize] = core.grs[d.r2 as usize] as u32,
        Op::Ear => core.set_gr(Reg(d.r1), core.ars[d.r2 as usize] as u64),
        Op::Adbr => {
            let a = f64::from_bits(core.fprs[d.r1 as usize]);
            let b = f64::from_bits(core.fprs[d.r2 as usize]);
            core.fprs[d.r1 as usize] = (a + b).to_bits();
        }
        Op::StmNote => {
            m.stm_note(d.aux, core.grs[d.r1 as usize]);
            cycles = 0; // observability only — must not perturb STM timing
        }
        Op::Decimal | Op::Nop => {}
        Op::Delay => cycles += d.imm as u64,
        Op::Privileged => cycles += 10,
        Op::Halt => {
            core.state = CpuState::Halted(HaltReason::Completed);
            return StepOutcome {
                cycles,
                event: StepEvent::Halted,
                broadcast_stop: false,
            };
        }
    }

    core.pc = next_pc;
    core.instructions += 1;
    m.instruction_retired();
    if event == StepEvent::Committed {
        StepOutcome {
            cycles,
            event,
            broadcast_stop: false,
        }
    } else {
        StepOutcome::executed(cycles)
    }
}

fn step_inner_legacy(core: &mut CpuCore, prog: &Program, m: &mut impl Machine) -> StepOutcome {
    if !core.is_running() {
        return StepOutcome {
            cycles: 0,
            event: StepEvent::Halted,
            broadcast_stop: false,
        };
    }

    let idx = core.pc;
    let ia = prog.addr_of(idx);

    // Asynchronous pending aborts (XI conflicts delivered between
    // instructions — completion stalls against XIs, §III.C).
    if m.pending_abort() {
        return take_abort(core, prog, m, ia);
    }

    let instr = prog.instr(idx).clone();
    let len = instr.len();
    let mut cycles: u64 = 1;

    // Instruction fetch through the i-cache; ifetch exceptions are never
    // filtered (§II.C), which `report_exception(…, true)` enforces.
    match m.ifetch(Address::new(ia)) {
        AccessResult::Done { cycles: c, .. } => cycles += c,
        AccessResult::Stall { cycles: c } => {
            return StepOutcome {
                cycles: cycles + c,
                event: StepEvent::Stalled,
                broadcast_stop: false,
            }
        }
        AccessResult::Fault(pe) => {
            return match m.report_exception(pe, true) {
                ExceptionDisposition::Retry { cycles } => StepOutcome {
                    cycles,
                    event: StepEvent::Executed,
                    broadcast_stop: false,
                },
                ExceptionDisposition::PendingAbort => take_abort(core, prog, m, ia),
                ExceptionDisposition::Terminate(msg) => {
                    core.state = CpuState::Halted(HaltReason::Terminated(msg));
                    StepOutcome {
                        cycles: 1,
                        event: StepEvent::Executed,
                        broadcast_stop: false,
                    }
                }
            }
        }
    }

    // PER instruction-fetch monitoring (§II.E.2).
    if core.per.ifetch_event(ia, m.in_tx()) {
        core.per_events += 1;
        if m.in_tx() {
            // PER event in a transaction: abort + non-filterable
            // interruption into the OS.
            let d = m.report_exception(ProgramException::PerEvent, true);
            if d == ExceptionDisposition::PendingAbort {
                return take_abort(core, prog, m, ia);
            }
        } else if let ExceptionDisposition::Retry { cycles: c } =
            m.report_exception(ProgramException::PerEvent, true)
        {
            // Debugger observed the fetch; the instruction then executes.
            cycles += c;
        }
    }

    // Transactional legality + constrained constraints + diagnostic tick.
    let backward = instr
        .branch_target()
        .map(|t| prog.is_backward(idx, t))
        .unwrap_or(false);
    m.check_instruction(instr.class(backward), ia, len);
    if m.pending_abort() {
        return take_abort(core, prog, m, ia);
    }

    let mut next_pc = idx + 1;
    let mut event = StepEvent::Executed;

    macro_rules! mem_load {
        ($ea:expr, $len:expr, $upd:expr) => {
            match m.load($ea, $len, $upd) {
                AccessResult::Done { value, cycles: c } => {
                    cycles += c;
                    value
                }
                AccessResult::Stall { cycles: c } => {
                    return StepOutcome {
                        cycles: cycles + c,
                        event: StepEvent::Stalled,
                        broadcast_stop: false,
                    }
                }
                AccessResult::Fault(pe) => return handle_fault(core, prog, m, pe, ia),
            }
        };
    }
    macro_rules! mem_store {
        ($ea:expr, $len:expr, $val:expr) => {{
            match m.store($ea, $len, $val) {
                AccessResult::Done { cycles: c, .. } => cycles += c,
                AccessResult::Stall { cycles: c } => {
                    return StepOutcome {
                        cycles: cycles + c,
                        event: StepEvent::Stalled,
                        broadcast_stop: false,
                    }
                }
                AccessResult::Fault(pe) => return handle_fault(core, prog, m, pe, ia),
            }
            if core.per.store_event($ea.raw(), $len as u64, m.in_tx()) {
                core.per_events += 1;
                match m.report_exception(ProgramException::PerEvent, false) {
                    ExceptionDisposition::PendingAbort => return take_abort(core, prog, m, ia),
                    ExceptionDisposition::Retry { cycles: c } => cycles += c,
                    ExceptionDisposition::Terminate(msg) => {
                        core.state = CpuState::Halted(HaltReason::Terminated(msg));
                    }
                }
            }
        }};
    }

    match instr {
        Instr::Lghi(r, imm) => core.set_gr(r, imm as u64),
        Instr::Lgr(r1, r2) => core.set_gr(r1, core.gr(r2)),
        Instr::La(r, mem) => core.set_gr(r, effective_address(core, &mem).raw()),
        Instr::Lg(r, mem) => {
            let ea = effective_address(core, &mem);
            let upd = store_follows(prog, idx, &mem);
            let v = mem_load!(ea, 8, upd);
            core.set_gr(r, v);
        }
        Instr::Ltg(r, mem) => {
            let ea = effective_address(core, &mem);
            let v = mem_load!(ea, 8, false);
            core.set_gr(r, v);
            core.set_cc_value(v as i64);
        }
        Instr::Stg(r, mem) => {
            let ea = effective_address(core, &mem);
            mem_store!(ea, 8, core.gr(r));
        }
        Instr::Ntstg(r, mem) => {
            let ea = effective_address(core, &mem);
            match m.store_nontx(ea, core.gr(r)) {
                AccessResult::Done { cycles: c, .. } => cycles += c,
                AccessResult::Stall { cycles: c } => {
                    return StepOutcome {
                        cycles: cycles + c,
                        event: StepEvent::Stalled,
                        broadcast_stop: false,
                    }
                }
                AccessResult::Fault(pe) => return handle_fault(core, prog, m, pe, ia),
            }
        }
        Instr::Csg(r1, r3, mem) => {
            let ea = effective_address(core, &mem);
            match m.compare_and_swap(ea, core.gr(r1), core.gr(r3)) {
                CasResult::Done {
                    swapped,
                    old,
                    cycles: c,
                } => {
                    cycles += c;
                    if swapped {
                        core.cc = 0;
                    } else {
                        core.set_gr(r1, old);
                        core.cc = 1;
                    }
                }
                CasResult::Stall { cycles: c } => {
                    return StepOutcome {
                        cycles: cycles + c,
                        event: StepEvent::Stalled,
                        broadcast_stop: false,
                    }
                }
                CasResult::Fault(pe) => return handle_fault(core, prog, m, pe, ia),
            }
        }
        Instr::Agr(r1, r2) => {
            let v = core.gr(r1).wrapping_add(core.gr(r2));
            core.set_gr(r1, v);
            core.set_cc_value(v as i64);
        }
        Instr::Sgr(r1, r2) => {
            let v = core.gr(r1).wrapping_sub(core.gr(r2));
            core.set_gr(r1, v);
            core.set_cc_value(v as i64);
        }
        Instr::Aghi(r, imm) => {
            let v = core.gr(r).wrapping_add(imm as u64);
            core.set_gr(r, v);
            core.set_cc_value(v as i64);
        }
        Instr::Ngr(r1, r2) => {
            let v = core.gr(r1) & core.gr(r2);
            core.set_gr(r1, v);
            core.set_cc_value(v as i64);
        }
        Instr::Xgr(r1, r2) => {
            let v = core.gr(r1) ^ core.gr(r2);
            core.set_gr(r1, v);
            core.set_cc_value(v as i64);
        }
        Instr::Msgr(r1, r2) => {
            let v = core.gr(r1).wrapping_mul(core.gr(r2));
            core.set_gr(r1, v);
        }
        Instr::Dsgr(r1, r2) => {
            let d = core.gr(r2);
            if d == 0 {
                return handle_fault(core, prog, m, ProgramException::FixedPointDivide, ia);
            }
            core.set_gr(r1, (core.gr(r1) as i64).wrapping_div(d as i64) as u64);
            cycles += 20;
        }
        Instr::Sllg(r1, r2, n) => core.set_gr(r1, core.gr(r2) << n),
        Instr::Srlg(r1, r2, n) => core.set_gr(r1, core.gr(r2) >> n),
        Instr::Ltgr(r1, r2) => {
            let v = core.gr(r2);
            core.set_gr(r1, v);
            core.set_cc_value(v as i64);
        }
        Instr::Cgr(r1, r2) => core.set_cc_cmp(core.gr(r1) as i64, core.gr(r2) as i64),
        Instr::Cghi(r, imm) => core.set_cc_cmp(core.gr(r) as i64, imm),
        Instr::Cg(r, mem) => {
            let ea = effective_address(core, &mem);
            let v = mem_load!(ea, 8, false);
            core.set_cc_cmp(core.gr(r) as i64, v as i64);
        }
        Instr::Brc(mask, target) => {
            if mask >> (3 - core.cc) & 1 == 1 {
                next_pc = target;
            }
        }
        Instr::Cgij(r, imm, cond, target) => {
            if cond.eval(core.gr(r) as i64, imm) {
                next_pc = target;
            }
        }
        Instr::Brctg(r, target) => {
            let v = core.gr(r).wrapping_sub(1);
            core.set_gr(r, v);
            if v != 0 {
                next_pc = target;
            }
        }
        Instr::Br(r) => next_pc = core.gr(r) as usize,
        Instr::Tbegin(params) => {
            cycles += m.tx_begin(false, params, &core.grs, ia, ia + len);
            if m.pending_abort() {
                return take_abort(core, prog, m, ia);
            }
            core.cc = 0;
        }
        Instr::Tbeginc(grsm) => {
            let params = ztm_core::TbeginParams::constrained(grsm);
            cycles += m.tx_begin(true, params, &core.grs, ia, ia + len);
            if m.pending_abort() {
                return take_abort(core, prog, m, ia);
            }
            core.cc = 0;
        }
        Instr::Tend => match m.tx_end() {
            EndResult::NotInTx => core.cc = 2,
            EndResult::Inner { cycles: c } => {
                cycles += c;
                core.cc = 0;
            }
            EndResult::Commit { cycles: c } => {
                cycles += c;
                core.cc = 0;
                event = StepEvent::Committed;
                if core.per.tend_event_fires() {
                    core.per_events += 1;
                    if let ExceptionDisposition::Retry { cycles: c } =
                        m.report_exception(ProgramException::PerEvent, false)
                    {
                        cycles += c;
                    }
                }
            }
            EndResult::AbortPending => return take_abort(core, prog, m, ia),
        },
        Instr::Tabort(code) => {
            if !m.in_tx() {
                return handle_fault(core, prog, m, ProgramException::Specification, ia);
            }
            let code = match code {
                RegOrImm::Reg(r) => core.gr(r),
                RegOrImm::Imm(v) => v,
            };
            m.tx_abort_request(code);
            return take_abort(core, prog, m, ia);
        }
        Instr::Etnd(r) => {
            core.set_gr(r, m.tx_depth());
            cycles += 10; // millicoded, not performance critical (§III.E)
        }
        Instr::Ppa(r) => {
            cycles += m.ppa(core.gr(r));
        }
        Instr::Stckf(mem) => {
            let ea = effective_address(core, &mem);
            let clk = core.clock;
            mem_store!(ea, 8, clk);
        }
        Instr::Rdclk(r) => core.set_gr(r, core.clock),
        Instr::RandMod(r, bound) => {
            let b = match bound {
                RegOrImm::Reg(rb) => core.gr(rb),
                RegOrImm::Imm(v) => v,
            };
            core.set_gr(r, m.rand(b));
            cycles = 0; // RNG overhead is excluded from measurements (§IV)
        }
        Instr::Sar(ar, r) => core.ars[ar as usize] = core.gr(r) as u32,
        Instr::Ear(r, ar) => core.set_gr(r, core.ars[ar as usize] as u64),
        Instr::Adbr(f1, f2) => {
            let a = f64::from_bits(core.fprs[f1 as usize]);
            let b = f64::from_bits(core.fprs[f2 as usize]);
            core.fprs[f1 as usize] = (a + b).to_bits();
        }
        Instr::StmNote(kind, r) => {
            m.stm_note(kind, core.gr(r));
            cycles = 0; // observability only — must not perturb STM timing
        }
        Instr::Decimal | Instr::Nop => {}
        Instr::Delay(n) => cycles += n,
        Instr::Privileged => cycles += 10,
        Instr::Halt => {
            core.state = CpuState::Halted(HaltReason::Completed);
            return StepOutcome {
                cycles,
                event: StepEvent::Halted,
                broadcast_stop: false,
            };
        }
    }

    core.pc = next_pc;
    core.instructions += 1;
    m.instruction_retired();
    if event == StepEvent::Committed {
        StepOutcome {
            cycles,
            event,
            broadcast_stop: false,
        }
    } else {
        StepOutcome::executed(cycles)
    }
}

/// Runs a fresh CPU over `prog` until it halts or `max_steps` is exceeded.
///
/// # Panics
///
/// Panics if the CPU does not halt within `max_steps` (guards tests against
/// livelock).
pub fn run_to_halt(prog: &Program, m: &mut impl Machine, max_steps: u64) -> CpuCore {
    let mut core = CpuCore::new();
    for _ in 0..max_steps {
        if !core.is_running() {
            return core;
        }
        step(&mut core, prog, m);
    }
    panic!("program did not halt within {max_steps} steps");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Assembler;
    use crate::machine::SimpleMachine;
    use crate::reg::gr::*;
    use ztm_core::{DiagnosticControl, GrSaveMask, Pifc, TbeginParams, TxEngine, TxEngineConfig};

    fn machine() -> SimpleMachine {
        SimpleMachine::new(99)
    }

    #[test]
    fn straight_line_arithmetic() {
        let mut a = Assembler::new(0);
        a.lghi(R1, 5);
        a.lghi(R2, 7);
        a.agr(R1, R2);
        a.halt();
        let p = a.assemble().unwrap();
        let mut m = machine();
        let core = run_to_halt(&p, &mut m, 100);
        assert_eq!(core.gr(R1), 12);
        assert_eq!(core.cc, 2); // positive result
    }

    #[test]
    fn loop_with_brctg() {
        let mut a = Assembler::new(0);
        a.lghi(R1, 10);
        a.lghi(R2, 0);
        a.label("loop");
        a.aghi(R2, 3);
        a.brctg(R1, "loop");
        a.halt();
        let p = a.assemble().unwrap();
        let core = run_to_halt(&p, &mut machine(), 1000);
        assert_eq!(core.gr(R2), 30);
    }

    #[test]
    fn committed_transaction_updates_memory() {
        let mut a = Assembler::new(0);
        a.tbegin(TbeginParams::new());
        a.jnz("out");
        a.lghi(R1, 42);
        a.stg(R1, MemOperand::absolute(0x1000));
        a.tend();
        a.label("out");
        a.halt();
        let p = a.assemble().unwrap();
        let mut m = machine();
        let core = run_to_halt(&p, &mut m, 100);
        assert_eq!(m.mem.load_u64(Address::new(0x1000)), 42);
        assert_eq!(core.cc, 0);
        assert_eq!(m.engine.stats().commits, 1);
    }

    #[test]
    fn tabort_rolls_back_and_branches_to_handler() {
        let mut a = Assembler::new(0);
        a.lghi(R5, 1); // survives: pair 2 not in mask below
        let params = TbeginParams {
            grsm: GrSaveMask::new(0b0000_0001), // only GRs 0,1 restored
            ..TbeginParams::new()
        };
        a.tbegin(params);
        a.jnz("handler");
        a.lghi(R0, 77); // will be rolled back
        a.lghi(R5, 99); // will NOT be rolled back (not in mask)
        a.lghi(R9, 1);
        a.stg(R9, MemOperand::absolute(0x2000)); // rolled back
        a.tabort(256); // transient
        a.tend();
        a.halt();
        a.label("handler");
        a.halt();
        let p = a.assemble().unwrap();
        let mut m = machine();
        let core = run_to_halt(&p, &mut m, 100);
        assert_eq!(core.cc, 2, "TABORT 256 (even) is transient");
        assert_eq!(core.gr(R0), 0, "masked pair restored");
        assert_eq!(core.gr(R5), 99, "unmasked register keeps modified value");
        assert_eq!(m.mem.load_u64(Address::new(0x2000)), 0, "store rolled back");
        assert_eq!(m.engine.stats().aborts, 1);
    }

    #[test]
    fn tabort_odd_code_is_permanent() {
        let mut a = Assembler::new(0);
        a.tbegin(TbeginParams::new());
        a.jnz("handler");
        a.tabort(257);
        a.label("handler");
        a.halt();
        let p = a.assemble().unwrap();
        let core = run_to_halt(&p, &mut machine(), 100);
        assert_eq!(core.cc, 3);
    }

    #[test]
    fn etnd_reports_depth() {
        let mut a = Assembler::new(0);
        a.tbegin(TbeginParams::new());
        a.jnz("out");
        a.tbegin(TbeginParams::new());
        a.jnz("out");
        a.etnd(R3);
        a.tend();
        a.tend();
        a.label("out");
        a.halt();
        let p = a.assemble().unwrap();
        let core = run_to_halt(&p, &mut machine(), 100);
        assert_eq!(core.gr(R3), 2);
    }

    #[test]
    fn restricted_instruction_aborts_with_cc3() {
        let mut a = Assembler::new(0);
        a.tbegin(TbeginParams::new());
        a.jnz("handler");
        a.push(Instr::Privileged);
        a.tend();
        a.halt();
        a.label("handler");
        a.halt();
        let p = a.assemble().unwrap();
        let mut m = machine();
        let core = run_to_halt(&p, &mut m, 100);
        assert_eq!(core.cc, 3, "restricted instruction is permanent");
        assert_eq!(m.engine.stats().aborts_by_code.get(&11), Some(&1));
    }

    #[test]
    fn fpr_modification_control_blocks_adbr() {
        let mut a = Assembler::new(0);
        a.tbegin(TbeginParams::new()); // allow_fp_mod = false
        a.jnz("handler");
        a.push(Instr::Adbr(0, 1));
        a.tend();
        a.halt();
        a.label("handler");
        a.halt();
        let p = a.assemble().unwrap();
        let core = run_to_halt(&p, &mut machine(), 100);
        assert_eq!(core.cc, 3);
    }

    #[test]
    fn constrained_transaction_commits() {
        let mut a = Assembler::new(0);
        a.tbeginc(GrSaveMask::ALL);
        a.lghi(R1, 5);
        a.stg(R1, MemOperand::absolute(0x3000));
        a.tend();
        a.halt();
        let p = a.assemble().unwrap();
        let mut m = machine();
        run_to_halt(&p, &mut m, 100);
        assert_eq!(m.mem.load_u64(Address::new(0x3000)), 5);
        assert_eq!(m.engine.stats().tbegincs, 1);
    }

    #[test]
    fn constrained_violation_terminates_via_os() {
        // A backward branch inside TBEGINC is a constraint violation; the
        // OS terminates the program (§II.D non-filterable interruption).
        let mut a = Assembler::new(0);
        a.label("spin");
        a.tbeginc(GrSaveMask::ALL);
        a.j("spin"); // backward!
        let p = a.assemble().unwrap();
        let mut m = machine();
        let core = run_to_halt(&p, &mut m, 1000);
        match core.state {
            CpuState::Halted(HaltReason::Terminated(msg)) => {
                assert!(msg.contains("constraint"), "{msg}");
            }
            other => panic!("expected termination, got {other:?}"),
        }
    }

    #[test]
    fn filtered_page_fault_loops_forever_without_nontx_touch() {
        // §II.C: a filtered page fault never reaches the OS; if the program
        // only touches the page transactionally, it can never make progress.
        let mut a = Assembler::new(0);
        a.lghi(R7, 20); // bounded retry so the test halts
        a.label("retry");
        let params = TbeginParams {
            pifc: Pifc::DataAndAccess,
            ..TbeginParams::new()
        };
        a.tbegin(params);
        a.jnz("aborted");
        a.lg(R1, MemOperand::absolute(0x9000)); // faults every time
        a.tend();
        a.halt();
        a.label("aborted");
        a.brctg(R7, "retry");
        a.halt();
        let p = a.assemble().unwrap();
        let mut m = machine();
        m.pages.evict(Address::new(0x9000).page());
        let core = run_to_halt(&p, &mut m, 10_000);
        assert_eq!(core.gr(R7), 0, "every retry aborted");
        assert_eq!(m.engine.stats().filtered_exceptions, 20);
        assert!(!m.pages.is_resident(Address::new(0x9000).page()));
    }

    #[test]
    fn unfiltered_page_fault_is_serviced_and_retried() {
        let mut a = Assembler::new(0);
        a.label("retry");
        a.tbegin(TbeginParams::new()); // PIFC 0: no filtering
        a.jnz("aborted");
        a.lg(R1, MemOperand::absolute(0x9008));
        a.tend();
        a.halt();
        a.label("aborted");
        a.j("retry");
        let p = a.assemble().unwrap();
        let mut m = machine();
        m.mem.store_u64(Address::new(0x9008), 1234);
        m.pages.evict(Address::new(0x9008).page());
        let core = run_to_halt(&p, &mut m, 10_000);
        assert_eq!(core.gr(R1), 1234, "OS paged in; retry succeeded");
        assert_eq!(m.engine.stats().os_interruptions, 1);
        assert!(m.pages.is_resident(Address::new(0x9008).page()));
    }

    #[test]
    fn figure1_lock_elision_with_fallback() {
        // The complete Figure 1 kernel: transactional path with lock test,
        // retry counter, PPA back-off, and a CS-based fallback lock path.
        // Forced aborts (diagnostic control AlwaysAbort) push it down the
        // fallback path, proving the whole structure works.
        let lock = 0x4000u64;
        let var = 0x4100u64;
        let mut a = Assembler::new(0);
        a.lghi(R0, 0); // retry count = 0
        a.label("loop");
        a.tbegin(TbeginParams::new());
        a.jnz("abort");
        a.ltg(R1, MemOperand::absolute(lock)); // lock free?
        a.jnz("lckbzy");
        a.lg(R2, MemOperand::absolute(var));
        a.aghi(R2, 1);
        a.stg(R2, MemOperand::absolute(var));
        a.tend();
        a.j("done");
        a.label("lckbzy");
        a.tabort(257); // permanent: go to fallback
        a.label("abort");
        a.jo("fallback"); // CC3 → no retry
        a.aghi(R0, 1);
        a.cgij_ge(R0, 6, "fallback"); // give up after 6 attempts
        a.ppa(R0);
        a.j("loop");
        a.label("fallback");
        a.lghi(R3, 0); // expected: lock free
        a.lghi(R4, 1); // lock value
        a.label("spin");
        a.lgr(R5, R3);
        a.csg(R5, R4, MemOperand::absolute(lock));
        a.jnz("spin");
        a.lg(R2, MemOperand::absolute(var));
        a.aghi(R2, 1);
        a.stg(R2, MemOperand::absolute(var));
        a.lghi(R6, 0);
        a.stg(R6, MemOperand::absolute(lock)); // release
        a.label("done");
        a.halt();
        let p = a.assemble().unwrap();

        // Run once normally: the transactional path commits.
        let mut m = machine();
        run_to_halt(&p, &mut m, 10_000);
        assert_eq!(m.mem.load_u64(Address::new(var)), 1);
        assert_eq!(m.engine.stats().commits, 1);

        // Run with forced aborts: the fallback path completes the update.
        let mut m2 = machine();
        m2.engine = TxEngine::new(TxEngineConfig {
            diagnostic: DiagnosticControl::AlwaysAbort { max_point: 3 },
            ..TxEngineConfig::default()
        });
        let core = run_to_halt(&p, &mut m2, 100_000);
        assert_eq!(m2.mem.load_u64(Address::new(var)), 1, "fallback updated");
        assert_eq!(m2.mem.load_u64(Address::new(lock)), 0, "lock released");
        assert!(m2.engine.stats().aborts >= 1);
        assert_eq!(m2.engine.stats().commits, 0);
        assert!(core.is_running() || matches!(core.state, CpuState::Halted(HaltReason::Completed)));
    }

    #[test]
    fn br_jumps_via_register_instruction_index() {
        let mut a = Assembler::new(0);
        a.lghi(R1, 4); // instruction index of the target
        a.push(Instr::Br(R1));
        a.lghi(R9, 1); // skipped
        a.halt();
        a.lghi(R9, 2); // index 4
        a.halt();
        let p = a.assemble().unwrap();
        let core = run_to_halt(&p, &mut machine(), 100);
        assert_eq!(core.gr(R9), 2);
    }

    #[test]
    fn br_is_restricted_in_constrained_transactions() {
        let mut a = Assembler::new(0);
        a.lghi(R1, 5);
        a.tbeginc(GrSaveMask::ALL);
        a.push(Instr::Br(R1)); // non-relative branch: constraint violation
        a.tend();
        a.halt();
        a.halt();
        let p = a.assemble().unwrap();
        let mut m = machine();
        let core = run_to_halt(&p, &mut m, 1000);
        assert!(matches!(
            core.state,
            CpuState::Halted(HaltReason::Terminated(_))
        ));
    }

    #[test]
    fn access_register_instructions() {
        let mut a = Assembler::new(0);
        a.lghi(R1, 0x1234);
        a.push(Instr::Sar(3, R1));
        a.push(Instr::Ear(R2, 3));
        a.halt();
        let p = a.assemble().unwrap();
        let core = run_to_halt(&p, &mut machine(), 100);
        assert_eq!(core.ars[3], 0x1234);
        assert_eq!(core.gr(R2), 0x1234);
    }

    #[test]
    fn ar_modification_blocked_in_tx_but_extraction_allowed() {
        let mut a = Assembler::new(0);
        a.tbegin(TbeginParams::new()); // allow_ar_mod = false
        a.jnz("handler");
        a.push(Instr::Ear(R2, 0)); // reading an AR is fine
        a.push(Instr::Sar(0, R1)); // modifying aborts
        a.tend();
        a.halt();
        a.label("handler");
        a.lghi(R9, 1);
        a.halt();
        let p = a.assemble().unwrap();
        let core = run_to_halt(&p, &mut machine(), 100);
        assert_eq!(core.gr(R9), 1);
        assert_eq!(core.cc, 3);
    }

    #[test]
    fn adbr_adds_fprs_outside_tx() {
        let mut a = Assembler::new(0);
        a.push(Instr::Adbr(0, 1));
        a.halt();
        let p = a.assemble().unwrap();
        let mut m = machine();
        let mut core = CpuCore::new();
        core.fprs[0] = 1.5f64.to_bits();
        core.fprs[1] = 2.25f64.to_bits();
        while core.is_running() {
            step(&mut core, &p, &mut m);
        }
        assert_eq!(f64::from_bits(core.fprs[0]), 3.75);
    }

    #[test]
    fn stckf_and_rdclk() {
        let mut a = Assembler::new(0);
        a.lghi(R1, 1);
        a.rdclk(R2);
        a.stckf(MemOperand::absolute(0x500));
        a.halt();
        let p = a.assemble().unwrap();
        let mut m = machine();
        let core = run_to_halt(&p, &mut m, 100);
        assert!(core.gr(R2) > 0);
        assert!(m.mem.load_u64(Address::new(0x500)) >= core.gr(R2));
    }

    #[test]
    fn per_tend_event_counts() {
        let mut a = Assembler::new(0);
        a.tbegin(TbeginParams::new());
        a.jnz("out");
        a.tend();
        a.label("out");
        a.halt();
        let p = a.assemble().unwrap();
        let mut m = machine();
        let mut core = CpuCore::new();
        core.per.enabled = true;
        core.per.tend_event = true;
        while core.is_running() {
            step(&mut core, &p, &mut m);
        }
        assert_eq!(core.per_events, 1);
    }

    #[test]
    fn per_suppression_makes_tx_a_big_instruction() {
        // Instruction-fetch PER across the whole range: without suppression
        // the transaction can never commit; with suppression it commits.
        let mut a = Assembler::new(0);
        a.lghi(R7, 3);
        a.label("retry");
        a.tbegin(TbeginParams::new());
        a.jnz("aborted");
        a.lghi(R1, 1);
        a.tend();
        a.halt();
        a.label("aborted");
        a.brctg(R7, "retry");
        a.halt();
        let p = a.assemble().unwrap();

        let run = |suppress: bool| {
            let mut m = machine();
            let mut core = CpuCore::new();
            core.per.enabled = true;
            core.per.event_suppression = suppress;
            core.per.ifetch_range = Some((0, u64::MAX));
            for _ in 0..10_000 {
                if !core.is_running() {
                    break;
                }
                step(&mut core, &p, &mut m);
            }
            (m.engine.stats().commits, m.engine.stats().aborts)
        };
        let (commits_no_sup, aborts_no_sup) = run(false);
        assert_eq!(commits_no_sup, 0);
        assert!(aborts_no_sup > 0);
        let (commits_sup, _) = run(true);
        assert_eq!(commits_sup, 1);
    }

    #[test]
    fn nesting_depth_overflow_aborts_whole_nest() {
        let mut a = Assembler::new(0);
        a.lghi(R7, 0);
        for _ in 0..17 {
            a.tbegin(TbeginParams::new());
            a.jnz("handler");
        }
        a.halt();
        a.label("handler");
        a.etnd(R7);
        a.halt();
        let p = a.assemble().unwrap();
        let mut m = machine();
        let core = run_to_halt(&p, &mut m, 1000);
        assert_eq!(core.cc, 3);
        assert_eq!(core.gr(R7), 0, "nest flattened to depth 0");
        assert_eq!(m.engine.stats().aborts_by_code.get(&13), Some(&1));
    }

    #[test]
    fn tend_outside_tx_sets_cc2() {
        let mut a = Assembler::new(0);
        a.tend();
        a.halt();
        let p = a.assemble().unwrap();
        let core = run_to_halt(&p, &mut machine(), 10);
        assert_eq!(core.cc, 2);
    }

    #[test]
    fn divide_by_zero_outside_tx_terminates() {
        let mut a = Assembler::new(0);
        a.lghi(R1, 10);
        a.lghi(R2, 0);
        a.push(Instr::Dsgr(R1, R2));
        a.halt();
        let p = a.assemble().unwrap();
        let core = run_to_halt(&p, &mut machine(), 100);
        assert!(matches!(
            core.state,
            CpuState::Halted(HaltReason::Terminated(_))
        ));
    }

    #[test]
    fn filtered_divide_by_zero_reaches_abort_handler() {
        let mut a = Assembler::new(0);
        let params = TbeginParams {
            pifc: Pifc::Data,
            ..TbeginParams::new()
        };
        a.tbegin(params);
        a.jnz("handler");
        a.lghi(R1, 10);
        a.lghi(R2, 0);
        a.push(Instr::Dsgr(R1, R2));
        a.tend();
        a.halt();
        a.label("handler");
        a.lghi(R9, 1);
        a.halt();
        let p = a.assemble().unwrap();
        let mut m = machine();
        let core = run_to_halt(&p, &mut m, 100);
        assert_eq!(core.gr(R9), 1, "handler ran");
        assert_eq!(core.cc, 3, "filtered exception is permanent");
        assert_eq!(m.engine.stats().filtered_exceptions, 1);
        assert_eq!(m.engine.stats().os_interruptions, 0);
    }

    #[test]
    fn ntstg_breadcrumbs_survive_abort() {
        let mut a = Assembler::new(0);
        a.tbegin(TbeginParams::new());
        a.jnz("out");
        a.lghi(R1, 0xAA);
        a.ntstg(R1, MemOperand::absolute(0x6000));
        a.lghi(R2, 0xBB);
        a.stg(R2, MemOperand::absolute(0x6100));
        a.tabort(256);
        a.label("out");
        a.halt();
        let p = a.assemble().unwrap();
        let mut m = machine();
        run_to_halt(&p, &mut m, 100);
        assert_eq!(m.mem.load_u64(Address::new(0x6000)), 0xAA, "breadcrumb");
        assert_eq!(m.mem.load_u64(Address::new(0x6100)), 0, "normal store gone");
    }
}
