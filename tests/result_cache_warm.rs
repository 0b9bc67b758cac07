//! Warm sweeps are free: a result-cache-backed grid re-run is bitwise
//! identical to the cold run and performs **zero pipeline cycles** —
//! proven by the machine layer's process-global run counter, which is
//! why this binary holds exactly one test (integration tests in one
//! binary run concurrently and would race the counter).

use medsim::core::machine;
use medsim::core::runner::{run_grid_resulted, TraceCache};
use medsim::core::sim::SimConfig;
use medsim::core::ResultCache;
use medsim::mem::HierarchyKind;
use medsim::workloads::{trace::SimdIsa, WorkloadSpec};

#[test]
fn warm_grid_is_bitwise_identical_with_zero_pipeline_cycles() {
    let spec = WorkloadSpec {
        scale: 1.0e-5,
        seed: 4242,
    };
    let configs: Vec<SimConfig> = [
        HierarchyKind::Ideal,
        HierarchyKind::Conventional,
        HierarchyKind::Decoupled,
    ]
    .iter()
    .flat_map(|&h| {
        SimdIsa::ALL.iter().flat_map(move |&isa| {
            [1usize, 2].map(move |t| SimConfig::new(isa, t).with_hierarchy(h).with_spec(spec))
        })
    })
    .collect();
    assert_eq!(
        configs.len(),
        12,
        "3 hierarchies x 2 ISAs x 2 thread counts"
    );

    let dir = std::env::temp_dir().join(format!("medsim-warm-grid-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let traces = TraceCache::from_env();

    // Cold: every point simulates and writes the store back.
    let cold_cache = ResultCache::at(&dir);
    let before_cold = machine::runs_executed();
    let cold = run_grid_resulted(&configs, 2, &traces, &cold_cache);
    assert_eq!(
        machine::runs_executed() - before_cold,
        12,
        "cold grid ran every pipeline"
    );
    let cold_stats = cold_cache.stats();
    assert_eq!(cold_stats.writes, 12, "every cold result persisted");

    // Warm: a fresh cache (fresh process, same directory) serves the
    // whole grid from disk.
    let warm_cache = ResultCache::at(&dir);
    let before_warm = machine::runs_executed();
    let warm = run_grid_resulted(&configs, 2, &traces, &warm_cache);
    assert_eq!(warm, cold, "warm grid is bitwise identical");
    for (w, c) in warm.iter().zip(&cold) {
        assert_eq!(w.sched, c.sched, "advisory counters round-trip too");
    }
    let warm_stats = warm_cache.stats();
    assert_eq!(warm_stats.hits, 12, "every point served from the store");
    assert_eq!(warm_stats.fallbacks(), 0, "no fallback on a warm store");
    assert_eq!(
        machine::runs_executed() - before_warm,
        0,
        "warm grid performed zero pipeline cycles"
    );

    std::fs::remove_dir_all(&dir).ok();
}
