//! Ablation: the General Register Save Mask cost (§II.B/§III.B).
//!
//! "Saving only a subset of GRs during TBEGIN speeds up execution" — the
//! outermost TBEGIN is cracked into one FXU micro-op per saved pair, two
//! per cycle. This sweep measures uncontended cycles/update for 0…8 saved
//! pairs.

#![forbid(unsafe_code)]

use ztm_bench::{print_header, print_row, sweep};
use ztm_core::{GrSaveMask, TbeginParams};
use ztm_isa::{gr::*, Assembler, MemOperand};
use ztm_sim::{System, SystemConfig};
use ztm_workloads::harness::{convention, WorkloadReport};

fn run(pairs: u32) -> f64 {
    let mask = GrSaveMask::new(((1u16 << pairs) - 1) as u8);
    let var = 0x1_0000u64;
    let mut a = Assembler::new(0);
    a.lghi(convention::OPS_LEFT, 2_000);
    a.lghi(convention::OP_CYCLES, 0);
    a.lghi(convention::OPS_DONE, 0);
    a.label("op_loop");
    a.rdclk(convention::T_START);
    a.tbegin(TbeginParams {
        grsm: mask,
        ..TbeginParams::new()
    });
    a.jnz("op_loop"); // uncontended: aborts cannot happen
    a.lg(R2, MemOperand::absolute(var));
    a.aghi(R2, 1);
    a.stg(R2, MemOperand::absolute(var));
    a.tend();
    a.rdclk(convention::T_END);
    a.sgr(convention::T_END, convention::T_START);
    a.agr(convention::OP_CYCLES, convention::T_END);
    a.aghi(convention::OPS_DONE, 1);
    a.brctg(convention::OPS_LEFT, "op_loop");
    a.halt();
    let prog = a.assemble().expect("assembles");
    let mut sys = System::new(SystemConfig::with_cpus(1));
    sys.load_program(0, &prog);
    sys.run_until_halt(10_000_000);
    WorkloadReport::collect(&sys).avg_op_cycles()
}

fn main() {
    println!("GRSM ablation: TBEGIN cost vs saved GR pairs (1 CPU, uncontended)");
    println!();
    print_header("pairs", &["cycles/update"]);
    let results = sweep((0..=8u32).collect(), |&pairs| run(pairs));
    let (none, full) = (results[0], results[8]);
    for (pairs, &cycles) in results.iter().enumerate() {
        print_row(pairs, &[cycles]);
    }
    println!();
    println!(
        "saving nothing is {:.1}% faster than saving all 16 GRs (§II.B)",
        100.0 * (full / none - 1.0)
    );
}
