//! # ztm — the IBM zEC12 Transactional Execution facility, reproduced in Rust
//!
//! This umbrella crate re-exports the whole ztm workspace, a
//! simulator-based reproduction of
//! *"Transactional Memory Architecture and Implementation for IBM System z"*
//! (Jacobi, Slegel, Greiner — MICRO-45, 2012).
//!
//! The workspace layers are re-exported under their short names:
//!
//! * [`mem`] — simulated physical memory and addressing.
//! * [`cache`] — the zEC12 cache hierarchy, coherence fabric with
//!   cross-interrogates (XIs), and the gathering store cache.
//! * [`core`] — the Transactional Execution facility itself: transaction
//!   state machine, constrained transactions, TDB, abort handling, millicode.
//! * [`isa`] — a z-flavored instruction set, assembler and CPU interpreter.
//! * [`sim`] — the multi-CPU discrete-event system simulator.
//! * [`trace`] — deterministic event tracing, metrics, trace digests, and
//!   the trace-replay invariant checker.
//! * [`workloads`] — the paper's microbenchmarks and lock implementations.
//!
//! # Quickstart
//!
//! ```
//! use ztm::sim::{System, SystemConfig};
//! use ztm::workloads::pool::{PoolLayout, PoolWorkload, SyncMethod};
//!
//! // Two CPUs transactionally incrementing random variables from a pool.
//! let layout = PoolLayout::new(16, 1);
//! let wl = PoolWorkload::new(layout, SyncMethod::Tbegin, 7);
//! let mut system = System::new(SystemConfig::with_cpus(2));
//! let report = wl.run(&mut system, 200);
//! assert!(report.committed_ops() > 0);
//! ```

#![forbid(unsafe_code)]

pub use ztm_cache as cache;
pub use ztm_core as core;
pub use ztm_isa as isa;
pub use ztm_mem as mem;
pub use ztm_sim as sim;
pub use ztm_stm as stm;
pub use ztm_trace as trace;
pub use ztm_workloads as workloads;
