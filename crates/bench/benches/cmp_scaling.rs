//! CMP scaling: the machine model scaled along the scale-out axis —
//! 1/2/4 SMT cores with private L1 levels sharing one L2/DRAM backend,
//! swept over both ISAs at 1 and 2 thread contexts per core.
//!
//! This is the scenario family the paper stops short of: vector-heavy
//! media kernels are low-operational-intensity workloads, so shared-L2
//! contention (bank slots, MSHRs, the DRDRAM channel) decides how far
//! core count scales throughput. The single-core column reproduces the
//! paper's machine unchanged.

use medsim_bench::{spec_from_env, timed};
use medsim_core::experiments::cmp_scaling;
use medsim_core::report::format_cmp_curves;

fn main() {
    let spec = spec_from_env();
    let curves = timed("cmp_scaling", || cmp_scaling(&spec));
    println!(
        "{}",
        format_cmp_curves(
            "CMP scaling: cores sharing one L2/DRAM backend (conventional hierarchy)",
            &curves
        )
    );
    for c in &curves {
        let (Some(one), Some(four)) = (c.at(1), c.at(4)) else {
            continue;
        };
        println!(
            "CMP+{} {}thr/core: 4-core scaling {:.2}x over 1 core",
            c.isa,
            c.threads,
            four / one.max(1e-12),
        );
    }
}
