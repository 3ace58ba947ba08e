//! The system-wide operations outside any one CPU's step: stores from the
//! I/O subsystem and the end of a broadcast-stop quiesce.

use super::view::deliver_xi;
use super::System;
use std::cmp::Reverse;
use ztm_cache::{Xi, XiKind};
use ztm_mem::{Address, LineAddr};

impl System {
    /// Ends CPU `holder`'s broadcast-stop quiesce (§III.E): every other
    /// running CPU, held while the holder retried, resumes at the holder's
    /// clock.
    pub(super) fn release_quiesce(&mut self, holder: usize) {
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

    /// Performs a doubleword store from the I/O subsystem: invalidates
    /// every cached copy of each line the doubleword touches (aborting
    /// transactions whose footprint it hits — §II.A requires isolation
    /// against I/O too) and updates committed memory.
    pub fn io_store(&mut self, addr: Address, value: u64) {
        // Public calls return with nothing parked (no spinner and no
        // stalled CPU), so the XIs below meet fully stepped CPUs and need
        // no wake.
        debug_assert_eq!(self.wakes.parked, 0);
        let (first, last) = (addr.line().index(), addr.add(7).line().index());
        for line in (first..=last).map(LineAddr::new) {
            let (owner, sharers) = self.fabric.holders(line);
            let owner = owner.into_iter().map(|c| (c, XiKind::Exclusive));
            let sharers = sharers.into_iter().map(|c| (c, XiKind::ReadOnly));
            for (cpu, kind) in owner.chain(sharers) {
                // I/O XIs carry no requester id and cannot be stiff-armed.
                let xi = Xi {
                    kind,
                    line,
                    from: None,
                };
                let accepted = deliver_xi(&mut self.nodes, &mut self.fabric, cpu, xi);
                debug_assert!(accepted);
            }
        }
        self.mem.store_u64(addr, value);
    }
}
