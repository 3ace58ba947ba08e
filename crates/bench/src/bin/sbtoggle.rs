//! Same-system superblock A/B probe.
//!
//! Separate-`System` benchmark rows (the `stepbench` brackets) carry ±10 %
//! allocation-layout luck: two fresh systems place their heaps differently
//! and the difference survives min-of-5. This probe instead toggles
//! [`System::set_superblocks`] on ONE long-lived system mid-run, so both
//! modes step the identical heap, caches, and program state — any stable
//! ns/step delta between adjacent rounds is genuinely attributable to the
//! superblock fast path. Used to validate the numbers quoted in DESIGN.md
//! ("Superblock stepping"); the simulated schedule is byte-identical in
//! both modes, so toggling mid-run is safe.

#![forbid(unsafe_code)]
use std::time::Instant;
use ztm_isa::gr::*;
use ztm_sim::{System, SystemConfig};
use ztm_workloads::hashtable::{HashTable, TableMethod};

fn main() {
    let table = HashTable::new(256, 1024, 20, TableMethod::Elision);
    let mut sys = System::new(SystemConfig::with_cpus(36).seed(42));
    table.populate(&mut sys, &(0..1024).collect::<Vec<_>>());
    let prog = table.program(1_000_000);
    sys.load_program_all(&prog);
    for i in 0..sys.cpus() {
        let arena = 0x2000_0000u64 + i as u64 * 0x10_0000;
        sys.core_mut(i).set_gr(R7, arena);
    }
    // Warm up past the cold-start transient before timing anything.
    sys.step_many(200_000);
    let n = 2_000_000u64;
    for round in 0..4 {
        for sb in [true, false] {
            sys.set_superblocks(sb);
            let t = Instant::now();
            let mut left = n;
            while left > 0 {
                let k = sys.step_many(left);
                if k == 0 {
                    println!("system halted; grow the per-op count");
                    return;
                }
                left -= k;
            }
            let el = t.elapsed().as_secs_f64();
            println!(
                "round {round} sb={sb:<5} {:.1} ns/step",
                el / n as f64 * 1e9
            );
        }
    }
    println!("superblock steps total: {}", sys.superblock_steps());
}
