//! The three workloads as fixed lists of figure-suite points.
//!
//! Every point is one independent `System`. The lists and op counts live
//! here, not in `ztm_bench`'s `cpu_counts`/`ops_for`, so that no
//! environment variable can change what a run simulates. README.md records
//! why each workload exists.

use ztm_workloads::hashtable::TableMethod;
use ztm_workloads::pool::SyncMethod;

/// Variables updated per pool operation (Fig 5(a)/(c)/(d) use four).
pub const POOL_VARS: usize = 4;
/// Hashtable shape of the Fig 5(e) and hybrid binaries.
pub const TABLE_BUCKETS: u64 = 512;
/// Random-key space of the hashtable operations.
pub const TABLE_KEYS: u64 = 2048;
/// Percent of hashtable operations that are puts.
pub const TABLE_PUT_PERCENT: u64 = 20;
/// Keys `0..TABLE_POPULATED` are inserted before the run.
pub const TABLE_POPULATED: u64 = 1024;

/// What one point simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `PoolWorkload` over `pool` variables, 4 per op.
    Pool {
        /// Concurrency control.
        method: SyncMethod,
        /// Pool size (variables, one 256-byte line each).
        pool: u64,
        /// `PoolWorkload::read_only()`: reads instead of increments.
        read_only: bool,
    },
    /// `HashTable` with 20 % puts, recording tracer attached.
    Table {
        /// Concurrency control.
        method: TableMethod,
    },
}

/// One figure-suite point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Point {
    /// What runs.
    pub kind: Kind,
    /// Simulated CPUs.
    pub cpus: usize,
    /// Operations each CPU performs.
    pub ops: u64,
}

impl Point {
    /// Whether the figure binaries attach `Tracer::recording` to this point.
    pub fn traced(&self) -> bool {
        matches!(self.kind, Kind::Table { .. })
    }

    /// A short stable label, e.g. `lock/p10/40cpu`.
    pub fn label(&self) -> String {
        match self.kind {
            Kind::Pool {
                method,
                pool,
                read_only,
            } => format!(
                "{}{}/p{pool}/{}cpu",
                pool_method_name(method),
                if read_only { "-read" } else { "" },
                self.cpus
            ),
            Kind::Table { method } => format!("{}/{}cpu", table_method_name(method), self.cpus),
        }
    }
}

fn pool_method_name(m: SyncMethod) -> &'static str {
    match m {
        SyncMethod::CoarseLock => "lock",
        SyncMethod::FineLock => "fine",
        SyncMethod::Tbegin => "tbegin",
        SyncMethod::Tbeginc => "tbeginc",
        SyncMethod::None => "unsync",
    }
}

fn table_method_name(m: TableMethod) -> &'static str {
    match m {
        TableMethod::GlobalLock => "global-lock",
        TableMethod::Elision => "elision",
        TableMethod::PureStm => "purestm",
        TableMethod::HtmStmFallback => "hybrid",
        TableMethod::Unsync => "unsync",
    }
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// CPUs spinning on the coarse-lock line.
    LockSpin,
    /// Transactions on contended and sparse pools.
    TxPool,
    /// The traced hashtable under HTM, STM and hybrid synchronization.
    HashtableTraced,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::LockSpin,
        Workload::TxPool,
        Workload::HashtableTraced,
    ];

    /// The name used on the command line and in the fingerprint file.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LockSpin => "lock_spin",
            Workload::TxPool => "tx_pool",
            Workload::HashtableTraced => "hashtable_traced",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The fixed point list. Op counts space the points' host times apart
    /// around the median point, so that `point_s_p50` does not jump between
    /// points when host noise swaps two of them, and put a compute-bound
    /// point in the middle: the sparse-pool points are memory-bound and
    /// swing most with other tenants of a shared host.
    pub fn points(self) -> Vec<Point> {
        let pool = |method, pool, cpus, ops| Point {
            kind: Kind::Pool {
                method,
                pool,
                read_only: false,
            },
            cpus,
            ops,
        };
        let read = |method, pool, cpus, ops| Point {
            kind: Kind::Pool {
                method,
                pool,
                read_only: true,
            },
            cpus,
            ops,
        };
        let table = |method, cpus, ops| Point {
            kind: Kind::Table { method },
            cpus,
            ops,
        };
        use SyncMethod::{CoarseLock, Tbegin, Tbeginc};
        match self {
            // Fig 5(a)/(c) lock columns, and TBEGIN once its Figure 1
            // ladder has fallen back to the lock (>= 20 CPUs on pool 10).
            Workload::LockSpin => vec![
                pool(CoarseLock, 10, 2, 1_500),
                pool(CoarseLock, 10, 6, 500),
                pool(CoarseLock, 10, 10, 300),
                pool(CoarseLock, 10, 20, 100),
                pool(CoarseLock, 10, 40, 40),
                pool(CoarseLock, 10, 60, 24),
                pool(CoarseLock, 10, 100, 12),
                pool(Tbegin, 10, 20, 100),
                pool(Tbegin, 10, 40, 40),
                pool(Tbegin, 10, 100, 12),
                pool(CoarseLock, 1_000, 40, 30),
                pool(CoarseLock, 10_000, 100, 8),
            ],
            // Contended pool 10 and sparse pools 1k/10k, updates and reads.
            Workload::TxPool => vec![
                pool(Tbeginc, 10, 2, 3_600),
                pool(Tbeginc, 10, 6, 1_200),
                pool(Tbeginc, 10, 20, 480),
                pool(Tbeginc, 10, 40, 150),
                pool(Tbeginc, 10, 100, 54),
                pool(Tbegin, 10, 2, 3_600),
                pool(Tbegin, 10, 6, 1_200),
                pool(Tbegin, 10, 10, 1_080),
                pool(Tbeginc, 1_000, 20, 540),
                pool(Tbeginc, 1_000, 100, 360),
                pool(Tbeginc, 10_000, 40, 900),
                pool(Tbeginc, 10_000, 100, 360),
                pool(Tbegin, 10_000, 10, 5_000),
                read(Tbeginc, 10, 20, 720),
                read(Tbeginc, 10_000, 40, 360),
            ],
            // Fig 5(e) elision plus the hybrid study's STM modes.
            Workload::HashtableTraced => vec![
                table(TableMethod::Elision, 12, 600),
                table(TableMethod::Elision, 36, 600),
                table(TableMethod::PureStm, 12, 600),
                table(TableMethod::PureStm, 36, 600),
                table(TableMethod::HtmStmFallback, 12, 600),
                table(TableMethod::HtmStmFallback, 36, 600),
            ],
        }
    }
}
