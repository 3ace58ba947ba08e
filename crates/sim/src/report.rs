//! Aggregated system statistics.

use std::collections::BTreeMap;
use ztm_core::TxStats;

/// Software-TM (TL2) statistics, accumulated from the `STMNOTE` markers the
/// emitted STM programs execute (see `ztm_stm`). All zero for workloads that
/// never run the software path.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StmCounts {
    /// STM transaction attempts begun (including retries).
    pub begins: u64,
    /// STM transactions committed.
    pub commits: u64,
    /// STM-level aborts: stripe-acquire or read-validation failures that
    /// rolled back and retried.
    pub aborts: u64,
    /// TL2 read-set validations that failed (a subset of `aborts` causes).
    pub validation_failures: u64,
    /// Stripe write-locks acquired at commit.
    pub lock_acquires: u64,
    /// HTM→STM fallback transitions (hybrid mode only).
    pub fallbacks: u64,
    /// Abort code of the final hardware attempt at each fallback
    /// transition, keyed by the engine's abort code (e.g. 8 = store
    /// footprint overflow, ≥256 = TABORT).
    pub fallback_codes: BTreeMap<u16, u64>,
}

impl StmCounts {
    /// Accumulates another CPU's counters into this one.
    pub fn merge(&mut self, other: &StmCounts) {
        self.begins += other.begins;
        self.commits += other.commits;
        self.aborts += other.aborts;
        self.validation_failures += other.validation_failures;
        self.lock_acquires += other.lock_acquires;
        self.fallbacks += other.fallbacks;
        for (code, n) in &other.fallback_codes {
            *self.fallback_codes.entry(*code).or_insert(0) += n;
        }
    }
}

/// A snapshot of system-wide counters, produced by
/// [`crate::System::report`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SystemReport {
    /// Maximum per-CPU clock — the elapsed virtual time of the run.
    pub elapsed_cycles: u64,
    /// Instructions completed across all CPUs.
    pub total_instructions: u64,
    /// Simulator steps taken (instructions + stalls + aborts).
    pub steps: u64,
    /// XI-stall retries across all CPUs (stiff-arming at work, §III.C).
    pub stalls: u64,
    /// Merged transactional statistics.
    pub tx: TxStats,
    /// XIs sent, by kind: `[exclusive, demote, read-only, lru]`.
    pub xi_counts: [u64; 4],
    /// Data accesses served by the line-window coalescing fast path without
    /// a directory walk (zero after `System::set_coalescing(false)`). A
    /// host-speed statistic: coalescing changes no simulated outcome.
    pub coalesced_accesses: u64,
    /// Steps retired in closed form by parking: spin-loop iterations and
    /// stiff-armed stall retries (zero for runs that never park: anything
    /// but `run_until_halt`, or a tracer, step log, issue window, timer or
    /// legacy interpreter attached). Host-speed statistics like
    /// `coalesced_accesses`: parking changes no simulated outcome, and
    /// these steps are included in `steps` (and the stall retries in
    /// `stalls`).
    pub parked_steps: u64,
    /// Loop parks entered by confirming an iteration (Watch → Confirm →
    /// Parked). Like the next two, a host-speed statistic like
    /// `parked_steps`.
    pub loop_parks: u64,
    /// Loop parks entered straight from the CPU's last confirmed loop,
    /// skipping the watching and confirming iterations.
    pub reparks: u64,
    /// Loop parks (of either kind) ended by a wake.
    pub wakes: u64,
    /// Merged software-TM statistics (all zero unless an STM or hybrid
    /// sync mode ran).
    pub stm: StmCounts,
}

impl SystemReport {
    /// System-wide abort rate (see [`TxStats::abort_rate`]).
    pub fn abort_rate(&self) -> f64 {
        self.tx.abort_rate()
    }

    /// Instructions per elapsed cycle. With the pipeline window engaged
    /// (`ZTM_ISSUE_WIDTH` > 1) this is a *measured* output of the issue
    /// model, not a configured constant; above 1.0 it demonstrates
    /// same-cycle co-issue. Note it aggregates across CPUs against the
    /// single max clock, so on multi-CPU runs it is `cpus ×` the per-core
    /// rate. Zero when nothing has run.
    pub fn ipc(&self) -> f64 {
        if self.elapsed_cycles == 0 {
            0.0
        } else {
            self.total_instructions as f64 / self.elapsed_cycles as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_zeroed() {
        let r = SystemReport::default();
        assert_eq!(r.elapsed_cycles, 0);
        assert_eq!(r.abort_rate(), 0.0);
    }
}
