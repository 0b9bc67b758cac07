//! The persistent content-addressed **result** store.
//!
//! The simulator is deterministic: a run's outcome is a pure function
//! of its complete configuration and workload content. A
//! [`ResultStore`] exploits that — a flat directory (pointed at by the
//! `MEDSIM_RESULT_DIR` environment variable) of write-once result
//! files, one per [`ResultKey`]: a stable 64-bit content hash of the
//! *entire* simulation identity. The key covers every [`SimConfig`]
//! field, the derived [`CpuConfig`] the machine would build (including
//! the process-frozen `MEDSIM_WHEEL_SLOTS` horizon — the one
//! [`EnvKnobs`] field `SimConfig` does not carry), the resolved
//! [`MemConfig`] (ablation override or paper defaults), and the
//! packed-trace checksums of the eight workload programs. Two runs
//! with equal keys are bitwise identical, so a stored [`RunResult`]
//! stands in for ~seconds of simulation at the cost of one file read.
//!
//! File layout, all little-endian:
//!
//! ```text
//! offset  size  field
//!      0     4  magic  b"MRES"
//!      4     4  format version (RESULT_FORMAT_VERSION)
//!      8     8  FNV-1a checksum of the payload
//!     16   218  payload: the RunResult, fixed-width fields in
//!               declaration order (enums as u8 tags, f64 as raw bits,
//!               SchedCounters last as an advisory block)
//! ```
//!
//! Like the trace store, this is a *cache*, never a source of truth:
//! loads verify magic, version, exact length and checksum; any
//! mismatch counts as a fallback (per-reason [`StoreStats`] counters)
//! and deletes the offending file so the caller's write-back
//! self-heals it. Writes land through a uniquely named temp file plus
//! an atomic rename ([`medsim_trace::unique_tmp_name`]), so concurrent
//! writers — racing threads or racing *processes* sharing one
//! directory — never publish a torn file: every rename installs a
//! complete file, and because producers are deterministic the losers'
//! bytes equal the winner's.
//!
//! The inert [`SchedCounters`] block (all zeros) is still stored, so
//! the file format is unchanged.
//!
//! [`ResultCache`] is the read-through/write-back layer
//! [`crate::sim::Simulation::run_resulted`] and
//! [`crate::runner::run_grid`] use. It deliberately re-reads the
//! environment per construction (no `OnceLock`): benches and tests
//! point `MEDSIM_RESULT_DIR` at scratch directories mid-process. It
//! also stands down whenever observability output is active
//! ([`medsim_obs::observing`]) — a run that never executes has no
//! timeline, samples or roofline to emit.

use crate::metrics::{RunResult, SchedCounters, VfetchCounters};
use crate::runner::TraceCache;
use crate::sim::SimConfig;
use medsim_cpu::{CpuConfig, EnvKnobs, FetchPolicy, SchedulerKind, SizingParams};
use medsim_mem::{CacheConfig, DramConfig, HierarchyKind, MemConfig};
use medsim_trace::{unique_tmp_name, StoreStats};
use medsim_workloads::trace::SimdIsa;
use medsim_workloads::Benchmark;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// On-disk format version of result files; bump on any change to the
/// header or the [`RunResult`] encoding. Mismatching files are ignored
/// and self-healed (simulation fallback + write-back).
pub const RESULT_FORMAT_VERSION: u32 = 1;

const MAGIC: [u8; 4] = *b"MRES";
const HEADER_LEN: usize = 16;
/// Serialized [`RunResult`] size: every field is fixed-width, so any
/// other payload length is corruption by construction.
const PAYLOAD_LEN: usize = 218;

/// Content key of one stored result: the FNV-1a hash of the complete
/// simulation identity. See [`ResultKey::of`] for what participates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ResultKey {
    /// The 64-bit content hash (also the file-name stem).
    pub hash: u64,
}

impl ResultKey {
    /// The key of `config`'s run, drawing workload content checksums
    /// through `traces`. Covers, in order: every [`SimConfig`] field
    /// (enums as tags, floats as raw bits), the resolved [`MemConfig`]
    /// (ablation override when present, else the paper hierarchy's
    /// defaults — resolved exactly as the machine layer does), the
    /// derived [`CpuConfig`] including the process-frozen
    /// `MEDSIM_WHEEL_SLOTS` horizon, and the combined packed-trace
    /// checksum of the eight program slots. Like
    /// [`medsim_trace::TraceKey::content_hash`], the format version is
    /// deliberately *not* hashed: a key must map to the same file
    /// across format bumps so the header check can self-heal stale
    /// files instead of orphaning them.
    ///
    /// # Panics
    ///
    /// Panics if `config.threads` is not 1, 2, 4 or 8 (the same bound
    /// the machine layer enforces when it builds the cores).
    #[must_use]
    pub fn of(config: &SimConfig, traces: &TraceCache) -> Self {
        ResultKey::with_parts(
            config,
            EnvKnobs::get().wheel_slots,
            workload_checksum(config, traces),
        )
    }

    /// [`ResultKey::of`] with the two non-`SimConfig` inputs — the
    /// calendar-queue horizon and the combined workload checksum —
    /// supplied explicitly, so property tests can prove each
    /// participates in the hash without mutating process state.
    ///
    /// # Panics
    ///
    /// Panics if `config.threads` is not 1, 2, 4 or 8.
    #[must_use]
    pub fn with_parts(config: &SimConfig, wheel_slots: usize, workload_checksum: u64) -> Self {
        let mut h = Fnv::new();
        // Every SimConfig field, in declaration order. Exhaustive
        // destructuring: adding a field without deciding whether it is
        // part of the simulation identity must not compile.
        let SimConfig {
            isa,
            threads,
            cores,
            hierarchy,
            fetch_policy,
            spec,
            max_cycles,
            mem_override,
            max_stream_len,
            scheduler,
            stream_batch,
            decouple,
            decouple_depth,
        } = config;
        h.u8(isa_tag(*isa));
        h.usz(*threads);
        h.usz(*cores);
        h.u8(hierarchy_tag(*hierarchy));
        h.u8(policy_tag(*fetch_policy));
        h.u64(spec.scale.to_bits());
        h.u64(spec.seed);
        h.u64(*max_cycles);
        h.u8(u8::from(mem_override.is_some()));
        h.u8(*max_stream_len);
        h.u8(scheduler_tag(*scheduler));
        h.u8(u8::from(*stream_batch));
        h.u8(u8::from(*decouple));
        h.usz(*decouple_depth);
        // The memory system the run would actually simulate, resolved
        // the same way the machine builds its cores — so an ablation
        // override and an identical explicit config hash identically.
        hash_mem(&mut h, &crate::machine::mem_config_of(config));
        // The derived per-core pipeline, built exactly as
        // machine::build_cores does, with the calendar-queue horizon
        // (the one EnvKnobs field SimConfig does not carry) overridden
        // by the caller.
        let mut cpu = CpuConfig::paper(config.threads, config.isa)
            .with_policy(config.fetch_policy)
            .with_scheduler(config.scheduler)
            .with_stream_batch(config.stream_batch)
            .with_decouple(config.decouple)
            .with_decouple_depth(config.decouple_depth);
        cpu.wheel_slots = wheel_slots;
        hash_cpu(&mut h, &cpu);
        // Workload content: what the traces *are*, not just how they
        // were asked for — a change to trace generation invalidates
        // results even at an identical spec.
        h.u64(workload_checksum);
        ResultKey { hash: h.finish() }
    }

    /// File name of this key inside a store directory, e.g.
    /// `run-9f1c2a338e55d01b.mres`.
    #[must_use]
    pub fn file_name(&self) -> String {
        format!("run-{:016x}.mres", self.hash)
    }
}

/// Combined content checksum of the packed program traces a §5.1 run
/// consumes (the eight list slots), drawn through `traces` so a warm
/// trace store or grid-shared memo pays for each at most once.
#[must_use]
pub fn workload_checksum(config: &SimConfig, traces: &TraceCache) -> u64 {
    let mut h = Fnv::new();
    for slot in 0..Benchmark::PAPER_ORDER.len() {
        h.u64(traces.trace_checksum(&config.spec, slot, config.isa));
    }
    h.finish()
}

/// A write-once directory of serialized [`RunResult`]s. See the module
/// docs for the protocol; [`StoreStats`] (shared with the trace store)
/// is the counter snapshot type.
#[derive(Debug)]
pub struct ResultStore {
    dir: PathBuf,
    stats: StatCells,
}

#[derive(Debug, Default)]
struct StatCells {
    hits: AtomicU64,
    misses: AtomicU64,
    corrupt: AtomicU64,
    version_mismatch: AtomicU64,
    writes: AtomicU64,
    io_errors: AtomicU64,
}

impl ResultStore {
    /// A store rooted at `dir` (created on first write).
    #[must_use]
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        ResultStore {
            dir: dir.into(),
            stats: StatCells::default(),
        }
    }

    /// The store configured by `MEDSIM_RESULT_DIR`, or `None` when the
    /// variable is unset or empty (persistence disabled).
    #[must_use]
    pub fn from_env() -> Option<Self> {
        match std::env::var("MEDSIM_RESULT_DIR") {
            Ok(dir) if !dir.is_empty() => Some(ResultStore::at(dir)),
            _ => None,
        }
    }

    /// The directory this store reads and writes.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file path a key maps to.
    #[must_use]
    pub fn path_for(&self, key: &ResultKey) -> PathBuf {
        self.dir.join(key.file_name())
    }

    /// Snapshot of the store counters.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.stats.hits.load(Ordering::Relaxed),
            misses: self.stats.misses.load(Ordering::Relaxed),
            corrupt: self.stats.corrupt.load(Ordering::Relaxed),
            version_mismatch: self.stats.version_mismatch.load(Ordering::Relaxed),
            writes: self.stats.writes.load(Ordering::Relaxed),
            io_errors: self.stats.io_errors.load(Ordering::Relaxed),
        }
    }

    /// Load the result stored under `key`, or `None` — counting the
    /// reason — when the file is absent, unreadable, corrupt or from a
    /// different format version. Never panics, never errors: the
    /// caller falls back to simulating (and writes the store back,
    /// healing whatever was wrong).
    #[must_use]
    pub fn load(&self, key: &ResultKey) -> Option<RunResult> {
        let path = self.path_for(key);
        let mut file = match std::fs::File::open(&path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            Err(_) => {
                self.stats.io_errors.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        let mut bytes = Vec::new();
        if file.read_to_end(&mut bytes).is_err() {
            self.stats.io_errors.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        match parse_result(&bytes) {
            Ok(result) => {
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                Some(result)
            }
            Err(ParseError::VersionMismatch) => {
                self.stats.version_mismatch.fetch_add(1, Ordering::Relaxed);
                // Self-heal: drop the stale file so the caller's
                // write-back replaces it with the current format.
                std::fs::remove_file(&path).ok();
                None
            }
            Err(ParseError::Corrupt) => {
                self.stats.corrupt.fetch_add(1, Ordering::Relaxed);
                std::fs::remove_file(&path).ok();
                None
            }
        }
    }

    /// Persist `result` under `key` (write-once: an existing file is
    /// kept as-is). The bytes land via a uniquely named temp file plus
    /// an atomic rename, so a reader — in this process or another —
    /// only ever observes complete files.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors (also counted in
    /// [`StoreStats::io_errors`]).
    pub fn store(&self, key: &ResultKey, result: &RunResult) -> std::io::Result<()> {
        let path = self.path_for(key);
        if path.exists() {
            return Ok(());
        }
        let outcome = (|| {
            std::fs::create_dir_all(&self.dir)?;
            let tmp = self.dir.join(unique_tmp_name(&key.file_name()));
            {
                let mut f = std::fs::File::create(&tmp)?;
                f.write_all(&serialize_result(result))?;
                f.sync_all()?;
            }
            std::fs::rename(&tmp, &path)
        })();
        match outcome {
            Ok(()) => {
                self.stats.writes.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(e) => {
                self.stats.io_errors.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    /// Parse every `.mres` file in the directory, returning
    /// `(valid, invalid)` counts. Invalid files are left in place (the
    /// keyed load path self-heals them); the multi-process stress test
    /// uses this to prove no writer ever published a torn file.
    #[must_use]
    pub fn validate_all(&self) -> (usize, usize) {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return (0, 0);
        };
        let (mut valid, mut invalid) = (0, 0);
        for entry in entries.flatten() {
            let name = entry.file_name();
            if !name.to_string_lossy().ends_with(".mres") {
                continue;
            }
            match std::fs::read(entry.path()) {
                Ok(bytes) if parse_result(&bytes).is_ok() => valid += 1,
                _ => invalid += 1,
            }
        }
        (valid, invalid)
    }
}

/// The read-through/write-back layer in front of a [`ResultStore`]:
/// what [`crate::sim::Simulation::run_resulted`] and the grid runner
/// consult. Inactive (every run simulates) unless a store directory is
/// configured, `MEDSIM_RESULT_CACHE` is not `0`, and no observability
/// output is requested.
#[derive(Debug)]
pub struct ResultCache {
    enabled: bool,
    store: Option<ResultStore>,
}

impl ResultCache {
    /// The cache the environment asks for: backed by
    /// `MEDSIM_RESULT_DIR` when set, disabled entirely by
    /// `MEDSIM_RESULT_CACHE=0`. Deliberately re-read per call — no
    /// process-wide freeze — so benches and tests can retarget the
    /// store directory mid-process.
    #[must_use]
    pub fn from_env() -> Self {
        let enabled = std::env::var("MEDSIM_RESULT_CACHE").map_or(true, |v| v != "0");
        ResultCache {
            enabled,
            store: if enabled {
                ResultStore::from_env()
            } else {
                None
            },
        }
    }

    /// A cache that never hits and never stores (the default when no
    /// store directory is configured).
    #[must_use]
    pub fn disabled() -> Self {
        ResultCache {
            enabled: false,
            store: None,
        }
    }

    /// A cache backed by a store at `dir` (tests and benches).
    #[must_use]
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        ResultCache {
            enabled: true,
            store: Some(ResultStore::at(dir)),
        }
    }

    /// Whether lookups and write-backs will happen at all. `false`
    /// when disabled or storeless — and whenever observability output
    /// is active ([`medsim_obs::observing`]): a warm hit performs zero
    /// pipeline cycles, so it has no events, samples or report to
    /// emit, and serving one would silently produce empty artifacts.
    #[must_use]
    pub fn active(&self) -> bool {
        self.enabled && self.store.is_some() && !medsim_obs::observing()
    }

    /// Counter snapshot of the underlying store (all zeros when
    /// storeless).
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        self.store
            .as_ref()
            .map(ResultStore::stats)
            .unwrap_or_default()
    }

    /// Read-through lookup; `None` when inactive or on any fallback.
    #[must_use]
    pub fn load(&self, key: &ResultKey) -> Option<RunResult> {
        if !self.active() {
            return None;
        }
        self.store.as_ref()?.load(key)
    }

    /// Write-back after a cold simulation. I/O errors are absorbed
    /// into the store counters: failing to cache must never fail the
    /// run that produced the result.
    pub fn save(&self, key: &ResultKey, result: &RunResult) {
        if !self.active() {
            return;
        }
        if let Some(store) = &self.store {
            store.store(key, result).ok();
        }
    }
}

enum ParseError {
    VersionMismatch,
    Corrupt,
}

fn serialize_result(r: &RunResult) -> Vec<u8> {
    let mut p = Vec::with_capacity(PAYLOAD_LEN);
    // Exhaustive destructuring: a new RunResult field must be given a
    // slot in the encoding (and RESULT_FORMAT_VERSION bumped) before
    // this compiles again.
    let RunResult {
        isa,
        threads,
        cores,
        hierarchy,
        cycles,
        committed,
        committed_equiv,
        programs_completed,
        mispredict_rate,
        icache_hit_rate,
        l1_hit_rate,
        l1_avg_latency,
        l2_hit_rate,
        vector_only_cycles,
        mem_stalls,
        dram_bytes,
        vfetch,
        sched,
    } = r;
    p.push(isa_tag(*isa));
    p.extend_from_slice(&(*threads as u64).to_le_bytes());
    p.extend_from_slice(&(*cores as u64).to_le_bytes());
    p.push(hierarchy_tag(*hierarchy));
    for v in [cycles, committed, committed_equiv, programs_completed] {
        p.extend_from_slice(&v.to_le_bytes());
    }
    for v in [
        mispredict_rate,
        icache_hit_rate,
        l1_hit_rate,
        l1_avg_latency,
        l2_hit_rate,
    ] {
        p.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    for v in [vector_only_cycles, mem_stalls, dram_bytes] {
        p.extend_from_slice(&v.to_le_bytes());
    }
    let VfetchCounters {
        runahead_elems,
        drains,
        max_runahead,
        flushes,
        flushed_elems,
        busy_cycles,
        occupancy_sum,
    } = vfetch;
    for v in [
        runahead_elems,
        drains,
        max_runahead,
        flushes,
        flushed_elems,
        busy_cycles,
        occupancy_sum,
    ] {
        p.extend_from_slice(&v.to_le_bytes());
    }
    // The inert scheduling tail (all zeros), kept so the file format
    // does not change.
    let SchedCounters {
        lockstep_rounds,
        quantum_rounds,
        quantum_cycles,
        parks_backend_reply,
        parks_store_evict,
        deferred_replays,
    } = sched;
    for v in [
        lockstep_rounds,
        quantum_rounds,
        quantum_cycles,
        parks_backend_reply,
        parks_store_evict,
        deferred_replays,
    ] {
        p.extend_from_slice(&v.to_le_bytes());
    }
    debug_assert_eq!(p.len(), PAYLOAD_LEN, "PAYLOAD_LEN is stale");
    let mut out = Vec::with_capacity(HEADER_LEN + PAYLOAD_LEN);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&RESULT_FORMAT_VERSION.to_le_bytes());
    let mut h = Fnv::new();
    h.bytes(&p);
    out.extend_from_slice(&h.finish().to_le_bytes());
    out.extend_from_slice(&p);
    out
}

fn parse_result(bytes: &[u8]) -> Result<RunResult, ParseError> {
    let header = bytes.get(..HEADER_LEN).ok_or(ParseError::Corrupt)?;
    if header[..4] != MAGIC {
        return Err(ParseError::Corrupt);
    }
    let version = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
    if version != RESULT_FORMAT_VERSION {
        return Err(ParseError::VersionMismatch);
    }
    let checksum = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
    if bytes.len() != HEADER_LEN + PAYLOAD_LEN {
        return Err(ParseError::Corrupt);
    }
    let payload = &bytes[HEADER_LEN..];
    let mut h = Fnv::new();
    h.bytes(payload);
    if h.finish() != checksum {
        return Err(ParseError::Corrupt);
    }
    let mut c = Cursor { payload, pos: 0 };
    let result = RunResult {
        isa: match c.u8() {
            0 => SimdIsa::Mmx,
            1 => SimdIsa::Mom,
            _ => return Err(ParseError::Corrupt),
        },
        threads: c.u64() as usize,
        cores: c.u64() as usize,
        hierarchy: match c.u8() {
            0 => HierarchyKind::Ideal,
            1 => HierarchyKind::Conventional,
            2 => HierarchyKind::Decoupled,
            _ => return Err(ParseError::Corrupt),
        },
        cycles: c.u64(),
        committed: c.u64(),
        committed_equiv: c.u64(),
        programs_completed: c.u64(),
        mispredict_rate: c.f64(),
        icache_hit_rate: c.f64(),
        l1_hit_rate: c.f64(),
        l1_avg_latency: c.f64(),
        l2_hit_rate: c.f64(),
        vector_only_cycles: c.u64(),
        mem_stalls: c.u64(),
        dram_bytes: c.u64(),
        vfetch: VfetchCounters {
            runahead_elems: c.u64(),
            drains: c.u64(),
            max_runahead: c.u64(),
            flushes: c.u64(),
            flushed_elems: c.u64(),
            busy_cycles: c.u64(),
            occupancy_sum: c.u64(),
        },
        sched: SchedCounters {
            lockstep_rounds: c.u64(),
            quantum_rounds: c.u64(),
            quantum_cycles: c.u64(),
            parks_backend_reply: c.u64(),
            parks_store_evict: c.u64(),
            deferred_replays: c.u64(),
        },
    };
    debug_assert_eq!(c.pos, PAYLOAD_LEN, "PAYLOAD_LEN is stale");
    Ok(result)
}

/// Fixed-offset payload reader. The exact-length check in
/// [`parse_result`] runs before any read, so the slices cannot overrun.
struct Cursor<'a> {
    payload: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn u8(&mut self) -> u8 {
        let v = self.payload[self.pos];
        self.pos += 1;
        v
    }

    fn u64(&mut self) -> u64 {
        let v = u64::from_le_bytes(
            self.payload[self.pos..self.pos + 8]
                .try_into()
                .expect("8 bytes"),
        );
        self.pos += 8;
        v
    }

    fn f64(&mut self) -> f64 {
        f64::from_bits(self.u64())
    }
}

fn isa_tag(isa: SimdIsa) -> u8 {
    match isa {
        SimdIsa::Mmx => 0,
        SimdIsa::Mom => 1,
    }
}

fn hierarchy_tag(h: HierarchyKind) -> u8 {
    match h {
        HierarchyKind::Ideal => 0,
        HierarchyKind::Conventional => 1,
        HierarchyKind::Decoupled => 2,
    }
}

fn policy_tag(p: FetchPolicy) -> u8 {
    match p {
        FetchPolicy::RoundRobin => 0,
        FetchPolicy::ICount => 1,
        FetchPolicy::OCount => 2,
        FetchPolicy::Balance => 3,
    }
}

fn scheduler_tag(s: SchedulerKind) -> u8 {
    match s {
        SchedulerKind::Wheel => 0,
        SchedulerKind::Heap => 1,
    }
}

fn hash_mem(h: &mut Fnv, mem: &MemConfig) {
    // Exhaustive destructuring: a new memory knob must be hashed (or
    // consciously skipped here) before this compiles.
    let MemConfig {
        hierarchy,
        l1d,
        l1i,
        l2,
        l1_latency,
        l2_latency,
        mshrs,
        write_buffer_depth,
        general_ports,
        scalar_ports,
        vector_ports,
        coherence_probe_penalty,
        dram,
    } = mem;
    h.u8(hierarchy_tag(*hierarchy));
    for cache in [l1d, l1i, l2] {
        let CacheConfig {
            size_bytes,
            ways,
            line_bytes,
            banks,
            write_back,
        } = cache;
        h.u64(*size_bytes);
        h.usz(*ways);
        h.u64(*line_bytes);
        h.usz(*banks);
        h.u8(u8::from(*write_back));
    }
    h.u64(*l1_latency);
    h.u64(*l2_latency);
    h.usz(*mshrs);
    h.usz(*write_buffer_depth);
    h.usz(*general_ports);
    h.usz(*scalar_ports);
    h.usz(*vector_ports);
    h.u64(*coherence_probe_penalty);
    let DramConfig {
        devices,
        row_bytes,
        bytes_per_cycle,
        row_hit_latency,
        row_miss_latency,
    } = dram;
    h.usz(*devices);
    h.u64(*row_bytes);
    h.u64(*bytes_per_cycle);
    h.u64(*row_hit_latency);
    h.u64(*row_miss_latency);
}

fn hash_cpu(h: &mut Fnv, cpu: &CpuConfig) {
    let CpuConfig {
        threads,
        isa,
        fetch_policy,
        fetch_threads,
        fetch_width,
        decode_width,
        int_issue,
        mem_issue,
        fp_issue,
        simd_issue,
        vector_lanes,
        commit_width,
        sizing,
        mispredict_penalty,
        lat_int_mul,
        lat_int_div,
        lat_fp_add,
        lat_fp_mul,
        lat_fp_div,
        lat_simd_mul,
        scheduler,
        wheel_slots,
        stream_batch,
        decouple,
        decouple_depth,
    } = cpu;
    h.usz(*threads);
    h.u8(isa_tag(*isa));
    h.u8(policy_tag(*fetch_policy));
    for v in [
        fetch_threads,
        fetch_width,
        decode_width,
        int_issue,
        mem_issue,
        fp_issue,
        simd_issue,
        vector_lanes,
        commit_width,
    ] {
        h.usz(*v);
    }
    let SizingParams {
        int_regs,
        fp_regs,
        simd_regs,
        stream_regs,
        acc_regs,
        queue_entries,
        rob_per_thread,
    } = sizing;
    for v in [
        int_regs,
        fp_regs,
        simd_regs,
        stream_regs,
        acc_regs,
        queue_entries,
        rob_per_thread,
    ] {
        h.usz(*v);
    }
    for v in [
        mispredict_penalty,
        lat_int_mul,
        lat_int_div,
        lat_fp_add,
        lat_fp_mul,
        lat_fp_div,
        lat_simd_mul,
    ] {
        h.u64(*v);
    }
    h.u8(scheduler_tag(*scheduler));
    h.usz(*wheel_slots);
    h.u8(u8::from(*stream_batch));
    h.u8(u8::from(*decouple));
    h.usz(*decouple_depth);
}

/// FNV-1a 64-bit — same function and constants as the trace store's,
/// kept private to each store module (it is an implementation detail
/// of the file format, not an API).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u8(&mut self, v: u8) {
        self.bytes(&[v]);
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn usz(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medsim_workloads::WorkloadSpec;

    fn unique_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "medsim-result-test-{tag}-{}-{n}",
            std::process::id()
        ))
    }

    fn sample_result() -> RunResult {
        RunResult {
            isa: SimdIsa::Mom,
            threads: 4,
            cores: 2,
            hierarchy: HierarchyKind::Decoupled,
            cycles: 123_456,
            committed: 98_765,
            committed_equiv: 143_210,
            programs_completed: 8,
            mispredict_rate: 0.031_25,
            icache_hit_rate: 0.998,
            l1_hit_rate: 0.942,
            l1_avg_latency: 1.375,
            l2_hit_rate: 0.874,
            vector_only_cycles: 4_242,
            mem_stalls: 1_717,
            dram_bytes: 9_000_000,
            vfetch: VfetchCounters {
                runahead_elems: 11,
                drains: 22,
                max_runahead: 3,
                flushes: 4,
                flushed_elems: 5,
                busy_cycles: 66,
                occupancy_sum: 77,
            },
            sched: SchedCounters {
                lockstep_rounds: 1,
                quantum_rounds: 2,
                quantum_cycles: 24,
                parks_backend_reply: 3,
                parks_store_evict: 4,
                deferred_replays: 5,
            },
        }
    }

    fn key() -> ResultKey {
        ResultKey {
            hash: 0x1234_5678_9abc_def0,
        }
    }

    #[test]
    fn payload_is_exactly_the_declared_length() {
        let bytes = serialize_result(&sample_result());
        assert_eq!(bytes.len(), HEADER_LEN + PAYLOAD_LEN);
    }

    #[test]
    fn round_trip_preserves_every_field_including_advisory_sched() {
        let r = sample_result();
        let Ok(back) = parse_result(&serialize_result(&r)) else {
            panic!("round trip failed to parse");
        };
        assert_eq!(back, r, "every field, the sched block included");
    }

    #[test]
    fn store_round_trip_and_stats() {
        let dir = unique_dir("roundtrip");
        let store = ResultStore::at(&dir);
        let r = sample_result();
        assert!(store.load(&key()).is_none(), "empty store misses");
        store.store(&key(), &r).expect("write");
        let back = store.load(&key()).expect("warm load");
        assert_eq!(back, r);
        let stats = store.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.writes, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.fallbacks(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn writes_are_write_once() {
        let dir = unique_dir("once");
        let store = ResultStore::at(&dir);
        let r = sample_result();
        store.store(&key(), &r).expect("first write");
        store.store(&key(), &r).expect("second write is a no-op");
        assert_eq!(store.stats().writes, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_writers_race_to_one_valid_file() {
        let dir = unique_dir("race");
        let store = ResultStore::at(&dir);
        let r = sample_result();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..16 {
                        store.store(&key(), &r).expect("racing write");
                    }
                });
            }
        });
        assert_eq!(store.load(&key()).expect("winner is valid"), r);
        let (valid, invalid) = store.validate_all();
        assert_eq!((valid, invalid), (1, 0));
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .expect("dir")
            .map(|e| e.expect("entry").file_name().into_string().expect("utf8"))
            .filter(|n| n.starts_with(".tmp-"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn disabled_cache_never_hits_or_stores() {
        let cache = ResultCache::disabled();
        assert!(!cache.active());
        assert!(cache.load(&key()).is_none());
        cache.save(&key(), &sample_result());
        assert_eq!(cache.stats(), StoreStats::default());
    }

    #[test]
    fn workload_checksum_distinguishes_isas_and_specs() {
        let traces = TraceCache::disabled();
        let spec = WorkloadSpec {
            scale: 1.0e-5,
            seed: 7,
        };
        let base = SimConfig::new(SimdIsa::Mmx, 1).with_spec(spec);
        let mut other_isa = base.clone();
        other_isa.isa = SimdIsa::Mom;
        let other_seed = base.clone().with_spec(WorkloadSpec {
            scale: 1.0e-5,
            seed: 8,
        });
        let a = workload_checksum(&base, &traces);
        assert_eq!(a, workload_checksum(&base, &traces), "stable");
        assert_ne!(a, workload_checksum(&other_isa, &traces));
        assert_ne!(a, workload_checksum(&other_seed, &traces));
    }
}
