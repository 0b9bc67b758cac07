//! A CMP run: four SMT cores with private L1 levels sharing one
//! L2/DRAM backend, stepped in fixed core order. Prints the run's
//! wall-clock time and the machine's statistics.
//!
//! ```sh
//! cargo run --release --example cmp_run
//! # bigger machine / bigger run:
//! MEDSIM_CORES=4 MEDSIM_SCALE=0.01 MEDSIM_JOBS=8 cargo run --release --example cmp_run
//! ```

use medsim::core::frontend::Frontend;
use medsim::core::machine;
use medsim::core::runner::TraceCache;
use medsim::core::sim::{SimConfig, Simulation};
use medsim::workloads::{trace::SimdIsa, WorkloadSpec};
use std::time::Instant;

fn main() {
    let scale = std::env::var("MEDSIM_SCALE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(2e-3);
    // Honor MEDSIM_CORES when set; a 1-core machine has nothing to
    // demo, so only then fall back to four cores.
    let cores = match machine::cores_from_env() {
        1 => 4,
        n => n,
    };
    let spec = WorkloadSpec::new(scale);
    let config = SimConfig::new(SimdIsa::Mom, 2)
        .with_cores(cores)
        .with_spec(spec);
    println!(
        "CMP of {cores} SMT cores x {} thread contexts at scale {scale:.0e} \
         (one shared L2/DRAM backend)",
        config.threads,
    );
    if machine::cores_from_env() == 1 {
        println!("(MEDSIM_CORES unset or 1: demoing a 4-core machine)");
    }
    println!();

    // One host thread steps every core in fixed core order (the bus
    // arbiter that keeps results seed-stable); each context's
    // instructions are produced by the sharded frontend.
    let start = Instant::now();
    let r = Simulation::run_fronted(&config, &TraceCache::from_env(), &Frontend::from_env());
    let wall_s = start.elapsed().as_secs_f64();
    println!(
        "run: {wall_s:.2}s, {:.2}M cycles ({:.2}M cycles/s)",
        r.cycles as f64 / 1e6,
        r.cycles as f64 / 1e6 / wall_s.max(1e-9),
    );
    println!(
        "machine: {} programs completed over {} contexts, IPC {:.2}, EIPC {:.2}, \
         shared L2 hit rate {:.1}%, mem stalls {}, DRAM {:.1} MiB",
        r.programs_completed,
        cores * config.threads,
        r.ipc(),
        r.equiv_ipc(),
        r.l2_hit_rate * 100.0,
        r.mem_stalls,
        r.dram_bytes as f64 / (1024.0 * 1024.0),
    );
}
