use super::park::Wakes;
use super::Node;
use crate::config::SystemConfig;
use rand::Rng;
use ztm_cache::{
    AccessClass, CohState, CpuId, Fabric, FetchKind, FootprintEvent, LocalHit, Xi, XiKind,
    XiResponse,
};
use ztm_core::{AbortCause, ProgramException, TbeginParams, TendOutcome, TDB_SIZE};
use ztm_isa::{
    finish_abort, AbortApply, AccessResult, CasResult, EndResult, ExceptionDisposition, Machine,
};
use ztm_mem::{Address, LineAddr, MainMemory, PageTable, HALF_LINE_SIZE};
use ztm_trace::{Event, Tracer};

/// A per-core *line window*: the data line the previous full directory walk
/// resolved, plus the snapshots that keep its "an access to this line would
/// hit the L1 with nothing to re-stamp" verdict valid. Armed only when the
/// line ended the walk as the hot (MRU) slot of both private directories;
/// any offset or length within the line is then served without walking.
#[derive(Debug, Clone, Copy)]
pub(super) struct LineWindow {
    pub(super) line: LineAddr,
    /// Ownership level the arming walk established: an exclusive window
    /// (`true`) serves stores and fetches, a shared one only fetches.
    pub(super) excl: bool,
    /// [`PrivateCache::generation`] observed when the walk completed.
    pub(super) gen: u64,
    /// [`PageTable::epoch`] observed when the walk completed.
    pub(super) page_epoch: u64,
    /// [`MainMemory::line_slot`] of the window line, resolved lazily on the
    /// first window hit (`None` = not looked up yet) so arming a window
    /// that never gets hit costs no memory index probe. Slots are immutable
    /// once allocated, so the resolved handle needs no revalidation: a
    /// full-width load served by the window reads straight from the
    /// committed arena. `Some(None)` means the line had never been stored
    /// to at resolution time — such reads keep the normal zero-fill path,
    /// which also stays correct if the line is allocated later.
    pub(super) slot: Option<Option<u32>>,
}

/// The per-step [`Machine`] view: disjoint borrows of the system's fields
/// excluding the stepped CPU's core (borrowed by the interpreter).
pub(super) struct View<'a> {
    pub(super) cpu: usize,
    /// The stepped CPU's local clock at instruction start (for fabric
    /// bandwidth queueing).
    pub(super) now: u64,
    pub(super) tracer: &'a Tracer,
    pub(super) nodes: &'a mut [Node],
    pub(super) fabric: &'a mut Fabric,
    pub(super) mem: &'a mut MainMemory,
    pub(super) pages: &'a mut PageTable,
    pub(super) fabric_busy: &'a mut [u64],
    pub(super) config: &'a SystemConfig,
    /// Same-line coalescing switch ([`System::set_coalescing`]).
    pub(super) coalesce: bool,
    /// Committed-arena slot of the line the most recent [`View::prepare`]
    /// served via the line window. Lets the data read that follows skip
    /// the memory index probe; reset at the top of every `prepare`, so it
    /// never outlives its access.
    pub(super) hit_slot: Option<u32>,
    /// Parked CPUs, woken before this step does anything they could
    /// observe.
    pub(super) wakes: &'a mut Wakes,
}

/// Delivers `xi` to CPU `target`: its cache answers, the fabric records
/// the response, and the footprint consequences go to its engine. Returns
/// whether `target` accepted.
pub(super) fn deliver_xi(nodes: &mut [Node], fabric: &mut Fabric, target: CpuId, xi: Xi) -> bool {
    let node = &mut nodes[target.0];
    let out = node.cache.handle_xi(xi);
    let accepted = out.response == XiResponse::Accept;
    fabric.apply_xi_result(target, xi.line, xi.kind, accepted);
    for ev in out.events {
        node.engine.note_footprint_event(ev);
    }
    accepted
}

impl View<'_> {
    fn me(&mut self) -> &mut Node {
        &mut self.nodes[self.cpu]
    }

    fn node(&self) -> &Node {
        &self.nodes[self.cpu]
    }

    /// Delivers the LRU XIs produced by an L3 associativity overflow: the
    /// victim line leaves every private cache under the overflowing L3,
    /// aborting transactions whose footprint it carried (§III.A/§III.C).
    fn deliver_lru_xis(&mut self, xis: Vec<(CpuId, LineAddr)>) {
        for (cpu, line) in xis {
            let xi = Xi {
                kind: XiKind::Lru,
                line,
                from: None,
            };
            let accepted = deliver_xi(self.nodes, self.fabric, cpu, xi);
            debug_assert!(accepted, "LRU XIs are not rejectable");
            self.xi_accepted(cpu.0);
        }
    }

    /// Delivers a fetch plan's XIs to their targets in plan order. Returns
    /// `false` the moment a target stiff-arms — the remaining XIs are not
    /// delivered and the caller abandons the fetch (retry or silent drop).
    fn deliver_plan_xis(&mut self, line: LineAddr, xis: Vec<(CpuId, XiKind)>) -> bool {
        for (n, (target, kind)) in xis.into_iter().enumerate() {
            let xi = Xi {
                kind,
                line,
                from: Some(CpuId(self.cpu)),
            };
            if !deliver_xi(self.nodes, self.fabric, target, xi) {
                self.wakes.rejected = (n == 0).then_some((target.0, kind));
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

    /// Fetches `line` through the fabric: delivers the fetch plan's XIs,
    /// takes the grant and delivers the LRU XIs it causes, occupies the
    /// MCM channel and installs the line. Returns the fetch latency, or
    /// `None` when an XI was stiff-armed and the fetch is abandoned.
    fn fetch_line(
        &mut self,
        line: LineAddr,
        excl: bool,
        class: AccessClass,
        tx: bool,
    ) -> Option<u64> {
        let (kind, state) = if excl {
            (FetchKind::Exclusive, CohState::Exclusive)
        } else {
            (FetchKind::Shared, CohState::ReadOnly)
        };
        let who = CpuId(self.cpu);
        let plan = self.fabric.plan_fetch(who, line, kind);
        if !self.deliver_plan_xis(line, plan.xis) {
            return None;
        }
        let lru = self.fabric.grant(who, line, kind);
        self.deliver_lru_xis(lru);
        let base = self
            .config
            .latency
            .fetch(self.fabric.topology(), who, plan.source);
        let cycles = base + self.occupy_fabric();
        let inst = self.me().cache.install(line, state, class, tx);
        for l in inst.lost_lines {
            self.fabric.drop_holder(who, l);
        }
        for ev in inst.events {
            self.me().engine.note_footprint_event(ev);
        }
        Some(cycles)
    }

    /// Rolls the speculative-prefetch dice after a transactional access of
    /// `class` to `line`. On a hit, a fetch prefetches the next line; with
    /// the configured probability it represents a wrong-path load and
    /// over-marks that line tx-read (§III.C). The prefetch is abandoned
    /// silently when anybody stiff-arms, and speculative transfers consume
    /// fabric bandwidth too. Returns whether the dice hit.
    fn speculative_prefetch(&mut self, line: LineAddr, class: AccessClass) -> bool {
        let p = self.config.prefetch_probability;
        let hit = class == AccessClass::Fetch
            && self.config.speculative_prefetch
            && p > 0.0
            && !self.me().engine.speculation_disabled()
            && self.me().rng.gen_bool(p);
        let next = LineAddr::new(line.index() + 1);
        if hit && self.node().cache.state_of(next).is_none() {
            let overmark = {
                let p = self.config.overmark_probability;
                self.me().rng.gen_bool(p)
            };
            self.fetch_line(next, false, AccessClass::Fetch, overmark);
        }
        hit
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
                    if self.speculative_prefetch(line, class) {
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
            LocalHit::Miss { .. } => {
                self.fetch_line(line, excl, class, tx)
                    .ok_or(AccessResult::Stall {
                        cycles: self.config.latency.xi_reject_retry,
                    })?
            }
        };
        if tx {
            self.speculative_prefetch(line, class);
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
        if node.ifetch_repeats(line, page_epoch) {
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
