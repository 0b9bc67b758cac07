//! The benchmark's three workloads, their set-up and their unit of work.
//!
//! Every workload sets only model inputs (ISA, threads, cores,
//! hierarchy, scale and seed). Host-side choices — job count, frontend,
//! CMP stepping mode, quantum — stay at the program's defaults, so a
//! change to a default shows up in the numbers.

use medsim_core::runner::{effective_jobs, run_grid_resulted};
use medsim_core::{EipcFactor, ResultCache, RunResult, SimConfig, TraceCache};
use medsim_cpu::FetchPolicy;
use medsim_mem::HierarchyKind;
use medsim_workloads::trace::SimdIsa;
use medsim_workloads::WorkloadSpec;

/// The program's default workload seed; benchmark seed `n` runs the
/// workload seeded `DEFAULT_SEED + n`, so seed 0 is the default.
pub const DEFAULT_SEED: u64 = 0x5eed_2001;

/// Figure 5's thread counts.
pub const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figure 5's 16-run grid through the runner's fan-out.
    Fig5Sweep,
    /// One 8-thread MOM run on the Decoupled hierarchy.
    Smt8MomDecoupled,
    /// Four 2-thread MOM cores sharing the Conventional L2.
    Cmp4SharedL2,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::Fig5Sweep,
        Workload::Smt8MomDecoupled,
        Workload::Cmp4SharedL2,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig5Sweep => "fig5_sweep",
            Workload::Smt8MomDecoupled => "smt8_mom_decoupled",
            Workload::Cmp4SharedL2 => "cmp4_shared_l2",
        }
    }

    /// Look a workload up by name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Fraction of the paper's instruction counts simulated.
    #[must_use]
    pub fn scale(self) -> f64 {
        match self {
            // The scale the repository's reference figure-5 table is
            // pinned at.
            Workload::Fig5Sweep => 2e-4,
            Workload::Smt8MomDecoupled => 1e-3,
            Workload::Cmp4SharedL2 => 5e-4,
        }
    }

    /// The workload spec for benchmark seed `seed`.
    #[must_use]
    pub fn spec(self, seed: u64) -> WorkloadSpec {
        WorkloadSpec {
            scale: self.scale(),
            seed: DEFAULT_SEED.wrapping_add(seed),
        }
    }

    /// The simulation runs of one repetition, in a fixed order.
    #[must_use]
    pub fn configs(self, spec: WorkloadSpec) -> Vec<SimConfig> {
        match self {
            Workload::Fig5Sweep => [HierarchyKind::Ideal, HierarchyKind::Conventional]
                .into_iter()
                .flat_map(|h| {
                    SimdIsa::ALL.into_iter().flat_map(move |isa| {
                        THREAD_COUNTS.into_iter().map(move |t| {
                            SimConfig::new(isa, t)
                                .with_hierarchy(h)
                                .with_policy(FetchPolicy::RoundRobin)
                                .with_spec(spec)
                        })
                    })
                })
                .collect(),
            Workload::Smt8MomDecoupled => vec![SimConfig::new(SimdIsa::Mom, 8)
                .with_hierarchy(HierarchyKind::Decoupled)
                .with_spec(spec)],
            Workload::Cmp4SharedL2 => vec![SimConfig::new(SimdIsa::Mom, 2)
                .with_cores(4)
                .with_hierarchy(HierarchyKind::Conventional)
                .with_spec(spec)],
        }
    }
}

/// What one cold set-up produces: a trace cache holding every trace the
/// workload reads, packed, and the EIPC factor computed from it.
pub struct Prepared {
    /// The warm trace cache every repetition draws from.
    pub cache: TraceCache,
    /// `I_MMX / I_MOM` for the spec.
    pub factor: EipcFactor,
}

/// One cold set-up: a fresh trace cache (no persistent store — the
/// environment is cleared first) and the EIPC factor, which synthesizes
/// and packs all eight program slots under both ISAs.
#[must_use]
pub fn set_up(spec: &WorkloadSpec) -> Prepared {
    let cache = TraceCache::from_env();
    let factor = EipcFactor::compute_cached(spec, &cache);
    Prepared { cache, factor }
}

/// One repetition of the workload's unit through the public API, at
/// the default job count and with the result cache off, so every run
/// is simulated.
#[must_use]
pub fn run_unit(configs: &[SimConfig], cache: &TraceCache) -> Vec<RunResult> {
    run_grid_resulted(
        configs,
        effective_jobs(configs.len()),
        cache,
        &ResultCache::disabled(),
    )
}

/// Simulated cycles of one repetition (summed over its runs).
#[must_use]
pub fn sim_cycles(results: &[RunResult]) -> u64 {
    results.iter().map(|r| r.cycles).sum()
}

/// Geometric mean of the paper's figure of merit over a repetition's
/// runs: IPC for MMX runs, EIPC for MOM runs.
#[must_use]
pub fn eipc(results: &[RunResult], factor: &EipcFactor) -> f64 {
    let foms: Vec<f64> = results.iter().map(|r| r.figure_of_merit(factor)).collect();
    crate::stats::geomean(&foms)
}
