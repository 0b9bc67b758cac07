//! End-to-end result-store proofs.
//!
//! 1. A warm result cache round-trips a simulation bitwise — including
//!    the advisory scheduling counters that sit outside `RunResult`
//!    equality.
//! 2. Damaged or stale store files (truncation, flipped payload bytes,
//!    wrong magic, bumped format version) fall back to simulation with
//!    per-reason counters and self-heal on the next write-back.
//! 3. Hash sensitivity: flipping *any* identity knob — every
//!    `SimConfig` field, the mem-override contents, the process-frozen
//!    wheel-slots horizon, the workload content checksum, any packed
//!    trace byte — changes the `ResultKey`; re-hashing is stable.
//! 4. Multi-process safety: several processes hammering one store
//!    directory never publish a torn file, never leave temp files, and
//!    a second wave is served entirely from disk.

use medsim::core::resultstore::workload_checksum;
use medsim::core::runner::{run_grid_resulted, TraceCache};
use medsim::core::sim::{SimConfig, Simulation};
use medsim::core::{ResultCache, ResultKey, ResultStore};
use medsim::cpu::{FetchPolicy, SchedulerKind};
use medsim::isa::prelude::*;
use medsim::mem::{HierarchyKind, MemConfig};
use medsim::trace::PackedTrace;
use medsim::workloads::{trace::SimdIsa, WorkloadSpec};
use std::sync::atomic::{AtomicU64, Ordering};

fn unique_dir(tag: &str) -> std::path::PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "medsim-result-e2e-{tag}-{}-{n}",
        std::process::id()
    ))
}

fn spec() -> WorkloadSpec {
    WorkloadSpec {
        scale: 1.0e-5,
        seed: 31,
    }
}

fn small_config() -> SimConfig {
    SimConfig::new(SimdIsa::Mmx, 1).with_spec(spec())
}

#[test]
fn warm_cache_round_trips_bitwise_including_advisory_counters() {
    let dir = unique_dir("roundtrip");
    let traces = TraceCache::from_env();
    let config = small_config();

    let cold_cache = ResultCache::at(&dir);
    let cold = Simulation::run_resulted(&config, &traces, &cold_cache);
    let cold_stats = cold_cache.stats();
    assert_eq!(cold_stats.misses, 1, "cold lookup missed");
    assert_eq!(cold_stats.writes, 1, "cold run wrote back");

    // Fresh cache over the same directory: models a fresh process.
    let warm_cache = ResultCache::at(&dir);
    let warm = Simulation::run_resulted(&config, &traces, &warm_cache);
    assert_eq!(warm, cold, "warm hit is bitwise identical");
    assert_eq!(warm.sched, cold.sched, "advisory counters survive disk");
    let warm_stats = warm_cache.stats();
    assert_eq!(warm_stats.hits, 1);
    assert_eq!(warm_stats.fallbacks(), 0, "no fallback on a warm store");
    assert_eq!(warm_stats.writes, 0, "write-once: nothing rewritten");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn damaged_and_stale_files_fall_back_and_self_heal() {
    let dir = unique_dir("heal");
    let traces = TraceCache::from_env();
    let config = small_config();

    let cache = ResultCache::at(&dir);
    let cold = Simulation::run_resulted(&config, &traces, &cache);
    let key = ResultKey::of(&config, &traces);
    let path = ResultStore::at(&dir).path_for(&key);
    let good = std::fs::read(&path).expect("stored file readable");

    // Truncation: shorter than the header.
    std::fs::write(&path, &good[..10]).expect("truncate");
    let store = ResultStore::at(&dir);
    assert!(store.load(&key).is_none(), "truncated file must not load");
    assert_eq!(store.stats().corrupt, 1);
    assert!(!path.exists(), "self-heal removed the truncated file");

    // Flipped payload byte: checksum mismatch.
    let mut flipped = good.clone();
    let last = flipped.len() - 1;
    flipped[last] ^= 0x01;
    std::fs::write(&path, &flipped).expect("flip");
    let store = ResultStore::at(&dir);
    assert!(
        store.load(&key).is_none(),
        "checksum mismatch must not load"
    );
    assert_eq!(store.stats().corrupt, 1);
    assert!(!path.exists(), "self-heal removed the corrupt file");

    // Wrong magic.
    let mut bad_magic = good.clone();
    bad_magic[0] ^= 0xFF;
    std::fs::write(&path, &bad_magic).expect("bad magic");
    let store = ResultStore::at(&dir);
    assert!(store.load(&key).is_none(), "foreign file must not load");
    assert_eq!(store.stats().corrupt, 1);

    // Bumped format version (a file from a future build): counted
    // separately from corruption.
    let mut future = good.clone();
    future[4] = future[4].wrapping_add(1);
    std::fs::write(&path, &future).expect("version bump");
    let store = ResultStore::at(&dir);
    assert!(store.load(&key).is_none(), "version mismatch must not load");
    let stats = store.stats();
    assert_eq!(stats.version_mismatch, 1);
    assert_eq!(stats.corrupt, 0);
    assert!(!path.exists(), "self-heal removed the stale file");

    // End to end: with the file gone, the read-through layer simulates
    // and writes the store back — healed, and bitwise equal.
    let heal_cache = ResultCache::at(&dir);
    let healed = Simulation::run_resulted(&config, &traces, &heal_cache);
    assert_eq!(healed, cold, "healed run matches the original");
    assert_eq!(heal_cache.stats().writes, 1, "heal rewrote the file");
    let reread = ResultStore::at(&dir);
    assert_eq!(reread.load(&key).expect("healed file loads"), cold);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_identity_knob_perturbs_the_key() {
    const WHEEL: usize = 1024;
    const WORKLOAD: u64 = 0xABCD_EF01_2345_6789;
    let base = SimConfig::new(SimdIsa::Mmx, 2)
        .with_cores(1)
        .with_hierarchy(HierarchyKind::Conventional)
        .with_policy(FetchPolicy::RoundRobin)
        .with_scheduler(SchedulerKind::Wheel)
        .with_spec(spec());
    let key_of = |c: &SimConfig| ResultKey::with_parts(c, WHEEL, WORKLOAD);
    let base_key = key_of(&base);
    assert_eq!(base_key, key_of(&base.clone()), "re-hash is stable");

    // One mutation per SimConfig field (every EnvKnobs-backed knob —
    // scheduler, stream_batch, decouple, decouple_depth —
    // included; wheel_slots, the one knob SimConfig does not carry, is
    // covered below via the explicit parameter).
    type KnobFlip = (&'static str, Box<dyn Fn(&mut SimConfig)>);
    let mutations: Vec<KnobFlip> = vec![
        ("isa", Box::new(|c| c.isa = SimdIsa::Mom)),
        ("threads", Box::new(|c| c.threads = 4)),
        ("cores", Box::new(|c| c.cores = 2)),
        (
            "hierarchy",
            Box::new(|c| c.hierarchy = HierarchyKind::Decoupled),
        ),
        (
            "fetch_policy",
            Box::new(|c| c.fetch_policy = FetchPolicy::ICount),
        ),
        ("spec.scale", Box::new(|c| c.spec.scale *= 2.0)),
        ("spec.seed", Box::new(|c| c.spec.seed += 1)),
        (
            "max_cycles",
            Box::new(|c| c.max_cycles = c.max_cycles.wrapping_add(1)),
        ),
        (
            "mem_override",
            Box::new(|c| c.mem_override = Some(MemConfig::paper_with(c.hierarchy))),
        ),
        (
            "max_stream_len",
            Box::new(|c| c.max_stream_len = c.max_stream_len.wrapping_sub(1)),
        ),
        ("scheduler", Box::new(|c| c.scheduler = SchedulerKind::Heap)),
        (
            "stream_batch",
            Box::new(|c| c.stream_batch = !c.stream_batch),
        ),
        ("decouple", Box::new(|c| c.decouple = !c.decouple)),
        (
            "decouple_depth",
            Box::new(|c| c.decouple_depth = c.decouple_depth.wrapping_add(1)),
        ),
    ];
    let mut keys = vec![("base", base_key)];
    for (label, mutate) in &mutations {
        let mut c = base.clone();
        mutate(&mut c);
        let k = key_of(&c);
        assert_ne!(k, base_key, "{label} must perturb the key");
        assert_eq!(k, key_of(&c.clone()), "{label} re-hash is stable");
        keys.push((label, k));
    }
    // Knobs inside an ablation override participate individually.
    let mut with_mem = base.clone();
    with_mem.mem_override = Some(MemConfig::paper_with(with_mem.hierarchy));
    let mem_key = key_of(&with_mem);
    for (label, tweak) in [
        (
            "override.l1_latency",
            Box::new(|m: &mut MemConfig| m.l1_latency += 1) as Box<dyn Fn(&mut MemConfig)>,
        ),
        (
            "override.l1d.size_bytes",
            Box::new(|m: &mut MemConfig| m.l1d.size_bytes /= 2),
        ),
        (
            "override.dram.row_bytes",
            Box::new(|m: &mut MemConfig| m.dram.row_bytes *= 2),
        ),
        ("override.mshrs", Box::new(|m: &mut MemConfig| m.mshrs += 1)),
    ] {
        let mut c = with_mem.clone();
        tweak(c.mem_override.as_mut().expect("override present"));
        assert_ne!(key_of(&c), mem_key, "{label} must perturb the key");
    }

    // The two non-SimConfig identity inputs.
    assert_ne!(
        ResultKey::with_parts(&base, WHEEL + 1, WORKLOAD),
        base_key,
        "wheel_slots participates"
    );
    assert_ne!(
        ResultKey::with_parts(&base, WHEEL, WORKLOAD ^ 1),
        base_key,
        "workload checksum participates"
    );

    // Every key produced above is pairwise distinct (no accidental
    // collisions among single-knob flips).
    for (i, (la, ka)) in keys.iter().enumerate() {
        for (lb, kb) in &keys[i + 1..] {
            assert_ne!(ka, kb, "{la} and {lb} collided");
        }
    }
}

#[test]
fn trace_bytes_feed_the_workload_checksum() {
    // PackedTrace::content_checksum is what TraceCache::trace_checksum
    // draws per slot: any instruction change must move it; re-packing
    // identical content must not.
    let insts: Vec<Inst> = (0..64)
        .map(|i| Inst::int_rri(IntOp::Addi, int((i % 28) as u8 + 1), int(0), i).at(4 * i as u64))
        .collect();
    let a = PackedTrace::pack(insts.clone());
    let b = PackedTrace::pack(insts.clone());
    assert_eq!(
        a.content_checksum(),
        b.content_checksum(),
        "identical content hashes identically"
    );
    let mut tweaked = insts;
    tweaked[17] = Inst::int_rri(IntOp::Addi, int(18), int(0), 9999).at(17 * 4);
    let c = PackedTrace::pack(tweaked);
    assert_ne!(
        a.content_checksum(),
        c.content_checksum(),
        "one changed instruction moves the checksum"
    );

    // And the combined workload checksum is what keys draw: flipping
    // the spec flips it (full sensitivity is proven per-knob above).
    let traces = TraceCache::disabled();
    let base = small_config();
    let mut reseeded = base.clone();
    reseeded.spec.seed += 1;
    assert_ne!(
        workload_checksum(&base, &traces),
        workload_checksum(&reseeded, &traces)
    );
}

/// The grid one stress-test process runs: 2 ISAs × {1, 2} threads.
fn stress_grid() -> Vec<SimConfig> {
    SimdIsa::ALL
        .iter()
        .flat_map(|&isa| [1usize, 2].map(|t| SimConfig::new(isa, t).with_spec(spec())))
        .collect()
}

/// Inner half of `multi_process_stress_shares_one_store_dir`: run the
/// small grid against the store directory named by
/// `MEDSIM_RESULT_STRESS_DIR` and report what the cache did.
/// `#[ignore]`d so plain `cargo test` never runs it directly.
#[test]
#[ignore = "spawned by multi_process_stress_shares_one_store_dir"]
fn result_store_hammer() {
    let dir = std::env::var("MEDSIM_RESULT_STRESS_DIR").expect("stress dir env var");
    let traces = TraceCache::from_env();
    let results = ResultCache::at(&dir);
    let configs = stress_grid();
    let outcomes = run_grid_resulted(&configs, 2, &traces, &results);
    assert_eq!(outcomes.len(), configs.len());
    let stats = results.stats();
    println!("HAMMER hits={} simulated={}", stats.hits, stats.fallbacks());
}

#[test]
fn multi_process_stress_shares_one_store_dir() {
    const PROCS: usize = 4;
    let dir = unique_dir("stress");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let exe = std::env::current_exe().expect("test binary path");
    let spawn = || {
        std::process::Command::new(&exe)
            .args(["--exact", "result_store_hammer", "--ignored", "--nocapture"])
            .env("MEDSIM_RESULT_STRESS_DIR", &dir)
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("spawn hammer child")
    };
    let parse_marker = |stdout: &str| -> (u64, u64) {
        // With --nocapture the marker can share a line with the
        // harness's own "test ... " prefix; slice from the marker.
        let line = stdout
            .lines()
            .find_map(|l| l.find("HAMMER ").map(|at| &l[at..]))
            .unwrap_or_else(|| panic!("no HAMMER marker in child output: {stdout:?}"));
        let field = |key: &str| {
            line.split_whitespace()
                .find_map(|w| w.strip_prefix(key))
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or_else(|| panic!("bad HAMMER marker: {line:?}"))
        };
        (field("hits="), field("simulated="))
    };

    // Wave 1: PROCS concurrent processes race on a cold directory.
    let children: Vec<_> = (0..PROCS).map(|_| spawn()).collect();
    let (mut hits, mut simulated) = (0u64, 0u64);
    for child in children {
        let out = child.wait_with_output().expect("child exits");
        assert!(out.status.success(), "hammer child failed: {}", out.status);
        let (h, s) = parse_marker(&String::from_utf8_lossy(&out.stdout));
        hits += h;
        simulated += s;
    }
    let grid = stress_grid().len() as u64;
    let total = PROCS as u64 * grid;
    assert_eq!(hits + simulated, total, "every grid point hit or simulated");
    assert!(
        simulated >= grid,
        "each distinct key simulated at least once"
    );

    // The store holds exactly one valid file per distinct key, no torn
    // files, no abandoned temp files.
    let store = ResultStore::at(&dir);
    assert_eq!(
        store.validate_all(),
        (grid as usize, 0),
        "one valid file per key, zero invalid"
    );
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .expect("dir")
        .map(|e| e.expect("entry").file_name().into_string().expect("utf8"))
        .filter(|n| n.starts_with(".tmp-"))
        .collect();
    assert!(
        leftovers.is_empty(),
        "temp files left behind: {leftovers:?}"
    );

    // Wave 2: a fresh process is served entirely from disk.
    let out = spawn().wait_with_output().expect("wave-2 child exits");
    assert!(out.status.success(), "wave-2 child failed: {}", out.status);
    let (h2, s2) = parse_marker(&String::from_utf8_lossy(&out.stdout));
    assert_eq!((h2, s2), (grid, 0), "wave 2 is all warm hits");

    std::fs::remove_dir_all(&dir).ok();
}
