//! Differential proof for the CMP machine layer.
//!
//! 1. The 1-core machine must be **stat-for-stat identical** to the
//!    pre-refactor single-pipeline run loop on the figure-5 grid: the
//!    reference implementation below is the old `Simulation` body,
//!    verbatim, driving one `Cpu` directly.
//! 2. The machine-level idle fast-forward (the whole chip jumps to the
//!    earliest per-core wakeup) must be stats-invisible.
//! 3. The model-deadlock diagnostic must reach the caller even while
//!    sharded frontend producers are live.
//!
//! Multi-core results are pinned by `tests/golden.rs`.

use medsim::core::frontend::{Frontend, JobBudget};
use medsim::core::machine::{self, PROGRAMS_TO_COMPLETE};
use medsim::core::runner::TraceCache;
use medsim::core::sim::{SimConfig, Simulation};
use medsim::core::RunResult;
use medsim::cpu::{Cpu, CpuConfig};
use medsim::mem::{HierarchyKind, MemConfig, MemSystem};
use medsim::workloads::trace::SimdIsa;
use medsim::workloads::WorkloadSpec;

fn spec() -> WorkloadSpec {
    WorkloadSpec {
        scale: 1.0e-5,
        seed: 4242,
    }
}

/// The pre-refactor `Simulation::run_fronted` body, verbatim: one
/// `Cpu`, `cycle()` with its internal fast-forward, and the §5.1
/// program-list refill loop — no machine layer anywhere.
fn pre_refactor_reference(config: &SimConfig, cache: &TraceCache) -> RunResult {
    let mem_config = MemConfig::paper_with(config.hierarchy);
    let cpu_config = CpuConfig::paper(config.threads, config.isa)
        .with_policy(config.fetch_policy)
        .with_scheduler(config.scheduler)
        .with_stream_batch(config.stream_batch);
    let mut cpu = Cpu::new(cpu_config, MemSystem::new(mem_config));

    let source_for = |slot: usize| cache.source_for(&config.spec, slot, config.isa);

    let n = config.threads;
    let mut ctx_slot: Vec<usize> = (0..n).collect();
    let mut next_slot = n;
    let mut completed = [false; PROGRAMS_TO_COMPLETE];
    for tid in 0..n {
        cpu.attach_source(tid, source_for(tid));
    }

    let all_done = |c: &[bool; PROGRAMS_TO_COMPLETE]| c.iter().all(|&x| x);
    loop {
        cpu.cycle();
        for (tid, slot) in ctx_slot.iter_mut().enumerate() {
            if !cpu.thread_idle(tid) {
                continue;
            }
            if *slot < PROGRAMS_TO_COMPLETE {
                completed[*slot] = true;
            }
            cpu.note_program_completed(tid);
            if all_done(&completed) {
                continue;
            }
            cpu.attach_source(tid, source_for(next_slot));
            *slot = next_slot;
            next_slot += 1;
        }
        if all_done(&completed) {
            break;
        }
        assert!(cpu.now() < config.max_cycles, "reference deadlocked");
    }
    RunResult::collect(config, &cpu)
}

#[test]
fn one_core_machine_matches_the_pre_refactor_pipeline_on_the_fig5_grid() {
    // The figure-5 grid: ideal + conventional hierarchies, both ISAs,
    // the paper's four thread counts — all at one core. Every statistic
    // must match the direct single-pipeline loop exactly.
    let cache = TraceCache::from_env();
    for &h in &[HierarchyKind::Ideal, HierarchyKind::Conventional] {
        for &isa in &SimdIsa::ALL {
            for &threads in &[1usize, 2, 4, 8] {
                let config = SimConfig::new(isa, threads)
                    .with_cores(1)
                    .with_hierarchy(h)
                    .with_spec(spec());
                let want = pre_refactor_reference(&config, &cache);
                let got = Simulation::run_fronted(&config, &cache, &Frontend::inline());
                assert_eq!(
                    got, want,
                    "1-core machine diverges from the pre-refactor pipeline at \
                     {isa:?} {h:?} {threads} threads"
                );
            }
        }
    }
}

#[test]
fn machine_fast_forward_is_invisible() {
    // The conventional hierarchy at a small thread count has long DRAM
    // gaps — plenty of chip-idle cycles to jump. Disabling the
    // machine-level fast-forward must not change a single statistic.
    let cache = TraceCache::from_env();
    for &cores in &[2usize, 4] {
        let config = SimConfig::new(SimdIsa::Mmx, 1)
            .with_cores(cores)
            .with_spec(spec());
        let fast = machine::run_with(&config, &cache, &Frontend::inline(), true);
        let slow = machine::run_with(&config, &cache, &Frontend::inline(), false);
        assert_eq!(fast, slow, "machine fast-forward visible at {cores} cores");
    }
}

#[test]
#[should_panic(expected = "model deadlock")]
fn parallel_max_cycles_assert_panics_instead_of_hanging() {
    // Four cores, each context fed by a sharded producer thread running
    // in parallel with the machine. The model-deadlock assert unwinds
    // out of the run's thread scope: the cores are dropped inside it,
    // which detaches every ring consumer, so producers blocked on full
    // rings exit and the scope join cannot wedge. The panic must reach
    // the harness instead of hanging it.
    let cache = TraceCache::from_env();
    let mut config = SimConfig::new(SimdIsa::Mmx, 2)
        .with_cores(4)
        .with_spec(spec());
    config.max_cycles = 10;
    let budget = JobBudget::new(8);
    let _ = Simulation::run_fronted(&config, &cache, &Frontend::sharded_with(&budget));
}

#[test]
fn cmp_shares_one_l2_backend() {
    // Every core of a CMP reports the same (chip-wide) L2 and DRAM
    // statistics, and the machine completes the same §5.1 workload.
    let config = SimConfig::new(SimdIsa::Mom, 2)
        .with_cores(4)
        .with_spec(spec());
    let r = Simulation::run(&config);
    assert_eq!(r.cores, 4);
    assert!(r.programs_completed >= 8, "{}", r.programs_completed);
    // A 4-core × 2-thread machine runs 8 contexts: at least the first
    // eight list entries were spread across them at start.
    assert!(r.committed > 0 && r.cycles > 0);
}
