//! The traced run: per-layer numbers, measured from outside the program.
//!
//! Each of the workload's simulation runs executes once through a copy
//! of the machine layer's serial loop that lives here and is built only
//! from public pieces (`MemSystem`/`SharedL2`, `Cpu::new`,
//! `attach_source`, the three `cycle_*` phases, `fast_forward_wake` /
//! `apply_fast_forward`). Two wrappers do the timing: [`TimedMem`], a
//! `MemPort` that forwards every trait method to the real `MemSystem`,
//! and [`TimedSource`], which wraps each instruction supply.
//!
//! Spans (name, start, end, parent, run) are kept in memory and written
//! out when the run ends. Cycle-level spans — the three phases and the
//! memory calls inside phase B — are taken on one stepped cycle in
//! [`SAMPLE_EVERY`] and scaled up; supply spans and all counts are taken
//! on every cycle. A span's self time is its length minus its direct
//! children's. Every measured interval also holds about one clock read,
//! and a parent holds two more per child; the cost of a read is
//! calibrated when the recorder starts and taken off every total
//! reported, so sampled per-cycle figures are not inflated by it.
//!
//! The copy's results must equal the untraced public-API run's bit for
//! bit, or its runs count as failed. Every other number here comes from
//! the public API with tracing off: the runner's fan-out, the frontend's
//! sharding counters and the CMP machine's schedule.

use crate::host::timed;
use crate::report::Report;
use crate::stats;
use crate::workloads::{run_unit, set_up, Workload};
use medsim_core::frontend::{self, Frontend};
use medsim_core::machine::PROGRAMS_TO_COMPLETE;
use medsim_core::runner::effective_jobs;
use medsim_core::{
    ExecMode, JobBudget, RunResult, SchedCounters, SimConfig, TraceCache, VfetchCounters,
};
use medsim_cpu::{Cpu, CpuConfig, MemPort};
use medsim_isa::Inst;
use medsim_mem::{
    AccessKind, L2Backend, MemConfig, MemReply, MemRequest, MemSystem, Stall, StreamReply,
    StreamRequest,
};
use medsim_trace::{PackedStream, PackedTrace};
use medsim_workloads::trace::{ClampSource, InstSource, SimdIsa, StreamIter};
use medsim_workloads::{Workload as Programs, WorkloadSpec};
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// One stepped cycle in this many gets cycle-level spans.
pub const SAMPLE_EVERY: u64 = 64;

/// Timing rounds (one default-schedule unit, then every run alone under
/// the serial schedule), at least, however long they take.
const MIN_ROUNDS: usize = 3;

const NO_PARENT: u32 = u32::MAX;

/// What a span measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    /// Synthesizing one program trace (`workloads`).
    Synth,
    /// Packing one trace (`trace`).
    Pack,
    /// Decoding one packed trace end to end (`trace`).
    Decode,
    /// One simulation run through the loop copy.
    Run,
    /// Phase A of one core-cycle (`cpu`).
    Compute,
    /// Phase B of one core-cycle (`cpu`; parent of the memory and supply
    /// spans inside it).
    MemFrontend,
    /// Closing one core-cycle (`cpu`).
    Finish,
    /// One call into the memory port (`mem`).
    Mem,
    /// One `next_block` call on an instruction supply (`frontend`).
    Supply,
}

impl Name {
    fn label(self) -> &'static str {
        match self {
            Name::Synth => "workloads.synth",
            Name::Pack => "trace.pack",
            Name::Decode => "trace.decode",
            Name::Run => "run",
            Name::Compute => "cpu.compute",
            Name::MemFrontend => "cpu.mem_frontend",
            Name::Finish => "cpu.finish",
            Name::Mem => "mem.call",
            Name::Supply => "frontend.supply",
        }
    }
}

/// One recorded interval, in nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What it measured.
    pub name: Name,
    /// Start.
    pub start: u64,
    /// End.
    pub end: u64,
    /// Index of the enclosing span, or `u32::MAX`.
    pub parent: u32,
    /// Which simulation run (or trace, for set-up spans) it belongs to.
    pub run: u32,
}

impl Span {
    fn len(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// The time base every span of one traced invocation shares.
#[derive(Debug, Clone, Copy)]
struct Clock(Instant);

impl Clock {
    fn ns(self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.0).as_nanos()).unwrap_or(u64::MAX)
    }

    fn span(self, name: Name, start: Instant, end: Instant, parent: u32, run: u32) -> Span {
        Span {
            name,
            start: self.ns(start),
            end: self.ns(end),
            parent,
            run,
        }
    }
}

/// The span store of one traced invocation. Memory and supply spans are
/// gathered by their wrappers and appended when each run ends; their
/// parent indices point at spans already here.
#[derive(Debug)]
pub struct Recorder {
    clock: Clock,
    /// Host cost of one `Instant::now()`, in nanoseconds.
    read_ns: i64,
    spans: Vec<Span>,
    run: u32,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Recorder {
            clock: Clock(Instant::now()),
            read_ns: clock_read_ns(),
            spans: Vec::new(),
            run: 0,
        }
    }

    /// Record a span of the current run; returns its index.
    pub fn push(&mut self, name: Name, start: Instant, end: Instant, parent: u32) -> u32 {
        self.spans
            .push(self.clock.span(name, start, end, parent, self.run));
        u32::try_from(self.spans.len() - 1).expect("fewer than 2^32 spans")
    }

    /// Set the end of span `idx`.
    pub fn end(&mut self, idx: u32, end: Instant) {
        self.spans[idx as usize].end = self.clock.ns(end);
    }

    /// The spans so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Median cost of one clock read on this host, in nanoseconds.
fn clock_read_ns() -> i64 {
    const READS: u32 = 10_000;
    let batches: Vec<f64> = (0..9)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..READS {
                std::hint::black_box(Instant::now());
            }
            t.elapsed().as_nanos() as f64 / f64::from(READS)
        })
        .collect();
    stats::median(&batches).round() as i64
}

/// Each span's net duration (its length less the clock reads inside it:
/// one of its own and two per child) and its self time (net less its
/// direct children's net), given the cost of one clock read. Single
/// spans can come out slightly negative; sums over many are unbiased.
#[must_use]
pub fn net_and_self(spans: &[Span], read_ns: i64) -> (Vec<i64>, Vec<i64>) {
    let len = |s: &Span| i64::try_from(s.len()).unwrap_or(i64::MAX);
    let mut net: Vec<i64> = spans.iter().map(|s| len(s) - read_ns).collect();
    for s in spans.iter().filter(|s| s.parent != NO_PARENT) {
        net[s.parent as usize] -= 2 * read_ns;
    }
    let mut own = net.clone();
    for (i, s) in spans.iter().enumerate() {
        if s.parent != NO_PARENT {
            own[s.parent as usize] -= net[i];
        }
    }
    (net, own)
}

/// Sum of `per_span` over the spans named `name`, in seconds, never
/// below zero.
fn total_s(spans: &[Span], per_span: &[i64], name: Name) -> f64 {
    let ns: i64 = spans
        .iter()
        .zip(per_span)
        .filter(|(s, _)| s.name == name)
        .map(|(_, v)| *v)
        .sum();
    ns.max(0) as f64 * 1e-9
}

/// The memory port of a traced core: forwards every `MemPort` method to
/// the real hierarchy, counts the data-path calls, and times them on
/// sampled cycles.
pub struct TimedMem {
    inner: MemSystem,
    clock: Clock,
    run: u32,
    /// `Some(phase-B span)` while a sampled cycle is in phase B.
    sampling: Option<u32>,
    spans: Vec<Span>,
    /// Data-path calls (ifetch, request, streams).
    pub calls: u64,
    /// Calls made on sampled cycles.
    pub sampled_calls: u64,
    /// `request` calls.
    pub requests: u64,
    /// `request` calls answered with a `Stall`.
    pub stalls: u64,
}

impl TimedMem {
    fn new(inner: MemSystem, clock: Clock, run: u32) -> Self {
        TimedMem {
            inner,
            clock,
            run,
            sampling: None,
            spans: Vec::new(),
            calls: 0,
            sampled_calls: 0,
            requests: 0,
            stalls: 0,
        }
    }

    fn timed<T>(&mut self, f: impl FnOnce(&mut MemSystem) -> T) -> T {
        self.calls += 1;
        let Some(parent) = self.sampling else {
            return f(&mut self.inner);
        };
        self.sampled_calls += 1;
        let t0 = Instant::now();
        let out = f(&mut self.inner);
        let t1 = Instant::now();
        self.spans
            .push(self.clock.span(Name::Mem, t0, t1, parent, self.run));
        out
    }
}

impl MemPort for TimedMem {
    fn ifetch(&mut self, now: u64, tid: u8, addr: u64) -> u64 {
        self.timed(|m| m.ifetch(now, tid, addr))
    }

    fn request(&mut self, now: u64, req: MemRequest) -> Result<MemReply, Stall> {
        self.requests += 1;
        let out = self.timed(|m| m.request(now, req));
        self.stalls += u64::from(out.is_err());
        out
    }

    fn request_stream(&mut self, now: u64, req: StreamRequest) -> StreamReply {
        self.timed(|m| m.request_stream(now, req))
    }

    fn request_would_defer(&self, addr: u64, kind: AccessKind) -> bool {
        MemPort::request_would_defer(&self.inner, addr, kind)
    }

    fn ifetch_would_defer(&self, addr: u64) -> bool {
        MemPort::ifetch_would_defer(&self.inner, addr)
    }

    fn store_would_evict_set(&self, addr: u64) -> Option<u64> {
        MemPort::store_would_evict_set(&self.inner, addr)
    }

    fn l1d_set_of(&self, addr: u64) -> u64 {
        MemPort::l1d_set_of(&self.inner, addr)
    }

    fn request_stream_runahead(&mut self, now: u64, req: StreamRequest) -> StreamReply {
        self.timed(|m| m.request_stream_runahead(now, req))
    }

    fn set_obs_lane(&mut self, lane: u32) {
        MemPort::set_obs_lane(&mut self.inner, lane);
    }
}

/// Supply spans of one run, shared by its sources (which must be `Send`).
struct SupplyLog {
    clock: Clock,
    run: u32,
    /// The span supply spans nest under: phase B on a sampled cycle,
    /// else the run. Only the loop's thread writes it.
    parent: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

/// An instruction supply whose every `next_block` call is a span.
pub struct TimedSource {
    inner: Box<dyn InstSource>,
    log: Arc<SupplyLog>,
}

impl InstSource for TimedSource {
    fn next_block(&mut self, out: &mut Vec<Inst>) -> bool {
        let t0 = Instant::now();
        let more = self.inner.next_block(out);
        let t1 = Instant::now();
        let log = &self.log;
        let span = log.clock.span(
            Name::Supply,
            t0,
            t1,
            log.parent.load(Ordering::Relaxed),
            log.run,
        );
        // Pushing leaves the list valid at every step, so a lock
        // poisoned by a panicking run can be read on.
        log.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(span);
        more
    }
}

/// Exact counts from one traced run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoopCounts {
    /// Core-cycles stepped through the three phases.
    pub stepped: u64,
    /// Core-cycles stepped with spans.
    pub sampled: u64,
    /// Core-cycles jumped over by the idle fast-forward.
    pub skipped: u64,
    /// Memory data-path calls.
    pub mem_calls: u64,
    /// Memory calls on sampled cycles.
    pub mem_sampled_calls: u64,
    /// `request` calls.
    pub requests: u64,
    /// `request` calls that stalled.
    pub stalls: u64,
    /// L1D read hits and reads.
    pub l1d: (u64, u64),
    /// L2 read hits and reads.
    pub l2: (u64, u64),
}

impl LoopCounts {
    fn add(&mut self, o: &LoopCounts) {
        self.stepped += o.stepped;
        self.sampled += o.sampled;
        self.skipped += o.skipped;
        self.mem_calls += o.mem_calls;
        self.mem_sampled_calls += o.mem_sampled_calls;
        self.requests += o.requests;
        self.stalls += o.stalls;
        self.l1d.0 += o.l1d.0;
        self.l1d.1 += o.l1d.1;
        self.l2.0 += o.l2.0;
        self.l2.1 += o.l2.1;
    }
}

/// The §5.1 program list (a copy of the machine layer's private one):
/// contexts cycle through the list until its first eight entries have
/// completed.
struct ProgramList {
    ctx_slot: Vec<usize>,
    next_slot: usize,
    completed: [bool; PROGRAMS_TO_COMPLETE],
}

impl ProgramList {
    fn new(contexts: usize) -> Self {
        ProgramList {
            ctx_slot: (0..contexts).collect(),
            next_slot: contexts,
            completed: [false; PROGRAMS_TO_COMPLETE],
        }
    }

    fn all_done(&self) -> bool {
        self.completed.iter().all(|&x| x)
    }

    fn refill(
        &mut self,
        core: usize,
        threads: usize,
        cpu: &mut Cpu<TimedMem>,
        source_for: &impl Fn(usize) -> Box<dyn InstSource>,
    ) {
        for tid in 0..threads {
            if !cpu.thread_idle(tid) {
                continue;
            }
            let ctx = core * threads + tid;
            let slot = self.ctx_slot[ctx];
            if slot < PROGRAMS_TO_COMPLETE {
                self.completed[slot] = true;
            }
            cpu.note_program_completed(tid);
            if self.all_done() {
                continue;
            }
            cpu.attach_source(tid, source_for(self.next_slot));
            self.ctx_slot[ctx] = self.next_slot;
            self.next_slot += 1;
        }
    }
}

/// Run one configuration through the traced copy of the serial machine
/// loop, recording its spans in `rec`. `reference` is the untraced run
/// of the same configuration: fields the copy does not collect are
/// carried over from it (none today).
pub fn traced_run(
    config: &SimConfig,
    cache: &TraceCache,
    rec: &mut Recorder,
    reference: &RunResult,
) -> (RunResult, LoopCounts) {
    let n_cores = config.cores.max(1);
    let mem_config = config
        .mem_override
        .clone()
        .unwrap_or_else(|| MemConfig::paper_with(config.hierarchy));
    let cpu_config = CpuConfig::paper(config.threads, config.isa)
        .with_policy(config.fetch_policy)
        .with_scheduler(config.scheduler)
        .with_stream_batch(config.stream_batch)
        .with_decouple(config.decouple)
        .with_decouple_depth(config.decouple_depth);
    let frontend = Frontend::from_env();
    let (clock, run) = (rec.clock, rec.run);
    let start = Instant::now();
    let run_span = rec.push(Name::Run, start, start, NO_PARENT);
    let log = Arc::new(SupplyLog {
        clock,
        run,
        parent: AtomicU32::new(run_span),
        spans: Mutex::new(Vec::new()),
    });
    let mut counts = LoopCounts::default();
    let result = std::thread::scope(|scope| {
        let mut cores: Vec<Cpu<TimedMem>> = if n_cores == 1 {
            let mem = TimedMem::new(MemSystem::new(mem_config), clock, run);
            vec![Cpu::new(cpu_config, mem)]
        } else {
            let shared = L2Backend::shared(&mem_config);
            (0..n_cores)
                .map(|_| {
                    let mem = MemSystem::with_shared_backend(mem_config.clone(), shared.clone());
                    Cpu::new(cpu_config.clone(), TimedMem::new(mem, clock, run))
                })
                .collect()
        };
        for (i, cpu) in cores.iter_mut().enumerate() {
            cpu.set_obs_lane(u32::try_from(i).expect("few cores"));
        }
        let source_for = |slot: usize| -> Box<dyn InstSource> {
            let (spec, isa, cap) = (config.spec, config.isa, config.max_stream_len);
            let inner = frontend.source(scope, move || {
                let s = cache.source_for(&spec, slot, isa);
                if cap < medsim_isa::MAX_STREAM_LEN {
                    Box::new(ClampSource::new(s, cap))
                } else {
                    s
                }
            });
            Box::new(TimedSource {
                inner,
                log: Arc::clone(&log),
            })
        };
        let mut list = ProgramList::new(n_cores * config.threads);
        for (core, cpu) in cores.iter_mut().enumerate() {
            for tid in 0..config.threads {
                cpu.attach_source(tid, source_for(core * config.threads + tid));
            }
        }
        let mut step = 0u64;
        loop {
            let sampled = step.is_multiple_of(SAMPLE_EVERY);
            step += 1;
            let mut any_activity = false;
            for cpu in &mut cores {
                if sampled {
                    any_activity |= sampled_cycle(cpu, rec, &log, run_span);
                } else {
                    cpu.cycle_compute();
                    cpu.cycle_mem_frontend();
                    any_activity |= cpu.cycle_finish();
                }
            }
            if !any_activity {
                let wake = cores.iter().filter_map(Cpu::fast_forward_wake).min();
                if let Some(w) = wake {
                    let before = cores[0].now();
                    for cpu in &mut cores {
                        cpu.apply_fast_forward(w);
                    }
                    counts.skipped += (cores[0].now() - before) * n_cores as u64;
                }
            }
            for (core, cpu) in cores.iter_mut().enumerate() {
                list.refill(core, config.threads, cpu, &source_for);
            }
            if list.all_done() {
                break;
            }
            assert!(
                cores[0].now() < config.max_cycles,
                "simulation exceeded {} cycles — model deadlock?",
                config.max_cycles
            );
        }
        counts.stepped = step * n_cores as u64;
        counts.sampled = step.div_ceil(SAMPLE_EVERY) * n_cores as u64;
        for cpu in &mut cores {
            let m = cpu.mem_mut();
            counts.mem_calls += m.calls;
            counts.mem_sampled_calls += m.sampled_calls;
            counts.requests += m.requests;
            counts.stalls += m.stalls;
            let d = m.inner.l1d_stats();
            counts.l1d.0 += d.hits;
            counts.l1d.1 += d.reads();
            rec.spans.append(&mut m.spans);
        }
        // The L2 is chip-wide when shared: read it once.
        let l2 = cores[0].mem().inner.l2_stats();
        counts.l2 = (l2.hits, l2.reads());
        collect(config, &cores, reference)
        // The cores drop here, inside the scope, which disconnects any
        // sharded producer still blocked on a full ring.
    });
    rec.end(run_span, Instant::now());
    rec.spans
        .append(&mut log.spans.lock().unwrap_or_else(PoisonError::into_inner));
    (result, counts)
}

/// One core-cycle with its three phases as spans; memory and supply
/// calls in phase B nest under it. The span indices are fixed before
/// the clock starts and the spans are stored after it stops, so no
/// bookkeeping falls inside a measured interval. Phase A never calls
/// the memory port or a supply, so arming both before it is harmless.
fn sampled_cycle(
    cpu: &mut Cpu<TimedMem>,
    rec: &mut Recorder,
    log: &SupplyLog,
    run_span: u32,
) -> bool {
    let phase_b = u32::try_from(rec.spans.len() + 1).expect("fewer than 2^32 spans");
    cpu.mem_mut().sampling = Some(phase_b);
    log.parent.store(phase_b, Ordering::Relaxed);
    let t0 = Instant::now();
    cpu.cycle_compute();
    let t1 = Instant::now();
    cpu.cycle_mem_frontend();
    let t2 = Instant::now();
    let active = cpu.cycle_finish();
    let t3 = Instant::now();
    cpu.mem_mut().sampling = None;
    log.parent.store(run_span, Ordering::Relaxed);
    rec.push(Name::Compute, t0, t1, run_span);
    let b = rec.push(Name::MemFrontend, t1, t2, run_span);
    debug_assert_eq!(b, phase_b);
    rec.push(Name::Finish, t2, t3, run_span);
    active
}

/// The run's `RunResult`, gathered the way `RunResult::collect_cores`
/// gathers it (that function takes cores over the plain `MemSystem`, so
/// it cannot read these wrapped ones). Any field of `reference` not set
/// below is carried over unchanged.
fn collect(config: &SimConfig, cores: &[Cpu<TimedMem>], reference: &RunResult) -> RunResult {
    let sum = |f: &dyn Fn(&Cpu<TimedMem>) -> u64| -> u64 { cores.iter().map(f).sum() };
    let rate = |num: u64, den: u64, empty: f64| {
        if den == 0 {
            empty
        } else {
            num as f64 / den as f64
        }
    };
    let branches = sum(&|c| c.stats().threads.iter().map(|t| t.branches).sum());
    let mispredicts = sum(&|c| c.stats().threads.iter().map(|t| t.mispredicts).sum());
    let ihits = sum(&|c| c.mem().inner.l1i_stats().hits);
    let ireads = sum(&|c| c.mem().inner.l1i_stats().reads());
    let dhits = sum(&|c| c.mem().inner.l1d_stats().hits);
    let dreads = sum(&|c| c.mem().inner.l1d_stats().reads());
    let lat_sum = sum(&|c| c.mem().inner.private_stats().l1_latency_sum);
    let lat_n = sum(&|c| c.mem().inner.private_stats().l1_accesses);
    let mut r = reference.clone();
    r.isa = config.isa;
    r.threads = config.threads;
    r.cores = cores.len();
    r.hierarchy = config.hierarchy;
    r.cycles = cores[0].stats().cycles;
    r.committed = sum(&|c| c.stats().committed());
    r.committed_equiv = sum(&|c| c.stats().committed_equiv());
    r.programs_completed = sum(&|c| c.stats().threads.iter().map(|t| t.programs_completed).sum());
    r.mispredict_rate = rate(mispredicts, branches, 0.0);
    r.icache_hit_rate = rate(ihits, ireads, 1.0);
    r.l1_hit_rate = rate(dhits, dreads, 1.0);
    r.l1_avg_latency = rate(lat_sum, lat_n, 0.0);
    r.l2_hit_rate = cores[0].mem().inner.l2_stats().hit_rate();
    r.vector_only_cycles = sum(&|c| c.stats().vector_only_cycles);
    r.mem_stalls = sum(&|c| c.stats().mem_stalls);
    r.dram_bytes = cores[0].mem().inner.dram_stats().bytes;
    r.vfetch = VfetchCounters {
        runahead_elems: sum(&|c| c.stats().vfetch_runahead_elems),
        drains: sum(&|c| c.stats().vfetch_drains),
        max_runahead: cores
            .iter()
            .map(|c| c.stats().vfetch_max_runahead)
            .max()
            .unwrap_or(0),
        flushes: sum(&|c| c.stats().vfetch_flushes),
        flushed_elems: sum(&|c| c.stats().vfetch_flushed_elems),
        busy_cycles: sum(&|c| c.stats().vfetch_cycles),
        occupancy_sum: sum(&|c| c.stats().vfetch_occupancy_sum),
    };
    r.sched = SchedCounters {
        parks_backend_reply: sum(&|c| c.stats().parks_backend_reply),
        parks_store_evict: sum(&|c| c.stats().parks_store_evict),
        ..SchedCounters::default()
    };
    r
}

/// Set-up layer totals: every trace the workload's set-up reads (both
/// ISAs, all eight slots), synthesized, packed and decoded once.
#[derive(Debug, Clone, Copy, Default)]
struct SetupLayer {
    insts: u64,
    packed_bytes: u64,
}

fn measure_setup_layer(spec: WorkloadSpec, rec: &mut Recorder) -> SetupLayer {
    let programs = Programs::new(spec);
    let mut out = SetupLayer::default();
    let mut block = Vec::new();
    for isa in SimdIsa::ALL {
        for slot in 0..PROGRAMS_TO_COMPLETE {
            let t0 = Instant::now();
            let insts: Vec<Inst> = StreamIter(programs.stream_for_slot(slot, isa)).collect();
            let t1 = Instant::now();
            let packed = Arc::new(PackedTrace::pack(insts.iter().copied()));
            let t2 = Instant::now();
            let mut decoded = 0usize;
            let mut stream = PackedStream::new(Arc::clone(&packed));
            while stream.next_block(&mut block) {
                decoded += std::hint::black_box(&block).len();
            }
            let t3 = Instant::now();
            assert_eq!(
                decoded,
                insts.len(),
                "decode returns every packed instruction"
            );
            rec.push(Name::Synth, t0, t1, NO_PARENT);
            rec.push(Name::Pack, t1, t2, NO_PARENT);
            rec.push(Name::Decode, t2, t3, NO_PARENT);
            rec.run += 1;
            out.insts += insts.len() as u64;
            out.packed_bytes += packed.packed_bytes() as u64;
        }
    }
    out
}

/// The traced invocation: per-layer metrics for one workload.
#[must_use]
pub fn run(workload: Workload, seed: u64, seconds: f64) -> Report {
    let spec = workload.spec(seed);
    let configs = workload.configs(spec);
    let n = configs.len();
    println!(
        "traced workload {} seed {seed} (workload seed {:#x}, scale {:e}): {n} run(s), \
         cycle spans sampled 1 in {SAMPLE_EVERY}",
        workload.name(),
        spec.seed,
        spec.scale
    );
    let mut rec = Recorder::new();
    let setup = measure_setup_layer(spec, &mut rec);

    // The untraced public-API reference, with the frontend's sharding
    // counters around it.
    let prepared = set_up(&spec);
    let fe0 = frontend::stats();
    let reference = catch_unwind(AssertUnwindSafe(|| run_unit(&configs, &prepared.cache))).ok();
    let fe1 = frontend::stats();
    let mut attempted = n as u64;
    let mut failed = 0u64;
    let Some(reference) = reference.filter(|r| r.len() == n) else {
        println!("oracle: the untraced reference run panicked");
        return Report {
            correct: false,
            attempted,
            failed: attempted,
            metrics: Vec::new(),
        };
    };
    for (c, r) in configs.iter().zip(&reference) {
        if let Some(why) = crate::oracle::check_run(c, r) {
            println!("oracle: {why}");
            failed += 1;
        }
    }

    // Host timings with tracing off: the unit under the default
    // schedule, and each run alone under the serial schedule, in
    // alternating rounds.
    let serial: Vec<SimConfig> = configs
        .iter()
        .map(|c| c.clone().with_exec(ExecMode::Serial))
        .collect();
    let mut unit_walls = Vec::new();
    let mut solo_walls: Vec<Vec<f64>> = vec![Vec::new(); n];
    let started = Instant::now();
    while unit_walls.len() < MIN_ROUNDS || started.elapsed().as_secs_f64() < seconds {
        let (rs, wall) =
            timed(|| catch_unwind(AssertUnwindSafe(|| run_unit(&configs, &prepared.cache))).ok());
        attempted += n as u64;
        failed += count_mismatches(rs.as_deref(), &reference);
        unit_walls.push(wall);
        for (k, c) in serial.iter().enumerate() {
            let (rs, wall) = timed(|| {
                catch_unwind(AssertUnwindSafe(|| {
                    run_unit(std::slice::from_ref(c), &prepared.cache)
                }))
                .ok()
            });
            attempted += 1;
            failed += count_mismatches(rs.as_deref(), &reference[k..=k]);
            solo_walls[k].push(wall);
        }
    }
    let unit_s = stats::median(&unit_walls);
    let solo_s: Vec<f64> = solo_walls.iter().map(|w| stats::median(w)).collect();
    let solo_sum: f64 = solo_s.iter().sum();

    // The traced loop copy. A grid holds the budget its workers took,
    // so its runs' supplies are produced inline; hold the same claim.
    let grid_claim = (n > 1).then(|| JobBudget::global().claim_up_to(effective_jobs(n) - 1));
    let mut counts = LoopCounts::default();
    let mut traced_s = 0.0;
    for (k, c) in configs.iter().enumerate() {
        rec.run = u32::try_from(k).expect("few runs");
        let (out, wall) = timed(|| {
            catch_unwind(AssertUnwindSafe(|| {
                traced_run(c, &prepared.cache, &mut rec, &reference[k])
            }))
            .ok()
        });
        traced_s += wall;
        attempted += 1;
        match out {
            Some((r, cnt)) if r == reference[k] => counts.add(&cnt),
            Some(_) => {
                println!("oracle: traced run {k} differs from the untraced run");
                failed += 1;
            }
            None => {
                println!("oracle: traced run {k} panicked");
                failed += 1;
            }
        }
    }
    drop(grid_claim);

    let spans = rec.spans();
    let (net, own) = net_and_self(spans, rec.read_ns);
    let exact = |name: Name| total_s(spans, &net, name);
    // Sampled spans stand for all stepped core-cycles.
    let scale = counts.stepped as f64 / counts.sampled.max(1) as f64;
    let phases_s = exact(Name::Compute) + exact(Name::MemFrontend) + exact(Name::Finish);
    let sched = |f: fn(&SchedCounters) -> u64| -> f64 {
        reference.iter().map(|r| f(&r.sched)).sum::<u64>() as f64
    };
    let grid = n > 1;
    let cmp = configs.iter().any(|c| c.cores > 1);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let mut report = Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics: Vec::new(),
    };
    let m = &mut report;
    m.metric("workloads.synth_s", exact(Name::Synth), "s");
    m.metric("workloads.insts", setup.insts as f64, "count");
    m.metric("trace.pack_s", exact(Name::Pack), "s");
    m.metric(
        "trace.bytes_per_inst",
        ratio(setup.packed_bytes as f64, setup.insts as f64),
        "B/inst",
    );
    m.metric(
        "trace.decode_minst_per_s",
        ratio(setup.insts as f64, exact(Name::Decode)) * 1e-6,
        "Minst/s",
    );
    m.metric("frontend.supply_s", exact(Name::Supply), "s");
    m.metric(
        "frontend.sharded_sources",
        (fe1.sharded - fe0.sharded) as f64,
        "count",
    );
    m.metric(
        "frontend.inline_sources",
        (fe1.inline - fe0.inline) as f64,
        "count",
    );
    m.metric(
        "runner.grid_efficiency",
        if grid {
            ratio(solo_sum, effective_jobs(n) as f64 * unit_s)
        } else {
            0.0
        },
        "ratio",
    );
    m.metric(
        "runner.critical_run_s",
        if grid {
            solo_s.iter().copied().fold(0.0, f64::max)
        } else {
            0.0
        },
        "s",
    );
    m.metric(
        "runner.trace_cache_mib",
        prepared.cache.stats().bytes_used as f64 / (1024.0 * 1024.0),
        "MiB",
    );
    m.metric("cpu.compute_s", exact(Name::Compute) * scale, "s");
    m.metric(
        "cpu.mem_frontend_self_s",
        total_s(spans, &own, Name::MemFrontend) * scale,
        "s",
    );
    m.metric("cpu.finish_s", exact(Name::Finish) * scale, "s");
    m.metric("cpu.cycles_stepped", counts.stepped as f64, "count");
    m.metric("cpu.cycles_skipped", counts.skipped as f64, "count");
    m.metric(
        "cpu.ns_per_stepped_cycle",
        ratio(phases_s * 1e9, counts.sampled as f64),
        "ns",
    );
    m.metric("mem.busy_s", exact(Name::Mem) * scale, "s");
    m.metric("mem.calls", counts.mem_calls as f64, "count");
    m.metric(
        "mem.ns_per_call",
        ratio(exact(Name::Mem) * 1e9, counts.mem_sampled_calls as f64),
        "ns",
    );
    m.metric(
        "mem.stall_frac",
        ratio(counts.stalls as f64, counts.requests as f64),
        "ratio",
    );
    m.metric(
        "mem.l1d_hit_rate",
        ratio(counts.l1d.0 as f64, counts.l1d.1 as f64),
        "ratio",
    );
    m.metric(
        "mem.l2_hit_rate",
        ratio(counts.l2.0 as f64, counts.l2.1 as f64),
        "ratio",
    );
    m.metric("machine.rounds", sched(SchedCounters::rounds), "count");
    m.metric(
        "machine.mean_quantum_cycles",
        ratio(sched(|s| s.quantum_cycles), sched(|s| s.quantum_rounds)),
        "cycles",
    );
    m.metric("machine.parks", sched(SchedCounters::parks), "count");
    m.metric(
        "machine.parallel_over_serial",
        if cmp { ratio(unit_s, solo_sum) } else { 0.0 },
        "ratio",
    );
    m.metric(
        "bench.trace_overhead_pct",
        (ratio(traced_s, solo_sum) - 1.0) * 100.0,
        "%",
    );

    println!(
        "untraced: unit {unit_s:.4} s (median of {}), runs alone under the serial schedule \
         {solo_sum:.4} s; traced loop {traced_s:.4} s; {} spans",
        unit_walls.len(),
        spans.len()
    );
    for (name, value, unit) in &report.metrics {
        println!("  {name:<28} {value:>16.6} {unit}");
    }
    write_spans(workload, spans);
    report
}

fn count_mismatches(got: Option<&[RunResult]>, want: &[RunResult]) -> u64 {
    match got {
        Some(rs) if rs == want => 0,
        _ => {
            println!("oracle: a timing repetition differs from the reference");
            want.len() as u64
        }
    }
}

/// Write the spans as TSV under `perfbench/out/` (relative to the
/// directory the benchmark runs from, the repository root). A failure
/// to write is reported and does not fail the run.
fn write_spans(workload: Workload, spans: &[Span]) {
    let dir = std::path::Path::new("perfbench").join("out");
    let path = dir.join(format!("spans-{}.tsv", workload.name()));
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(&dir)?;
        let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
        writeln!(w, "name\tstart_ns\tend_ns\tparent\trun")?;
        for s in spans {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                w,
                "{}\t{}\t{}\t{parent}\t{}",
                s.name.label(),
                s.start,
                s.end,
                s.run
            )?;
        }
        w.flush()
    };
    match write() {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => println!("spans not written to {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medsim_workloads::WorkloadSpec;

    #[test]
    fn net_and_self_time_take_off_clock_reads_and_direct_children() {
        let s = |name, start, end, parent| Span {
            name,
            start,
            end,
            parent,
            run: 0,
        };
        let spans = [
            s(Name::Run, 0, 100, NO_PARENT),
            s(Name::MemFrontend, 10, 50, 0),
            s(Name::Mem, 20, 30, 1),
            s(Name::Supply, 30, 45, 1),
            s(Name::Compute, 50, 60, 0),
        ];
        let (net, own) = net_and_self(&spans, 0);
        assert_eq!(net, vec![100, 40, 10, 15, 10]);
        assert_eq!(own, vec![50, 15, 10, 15, 10]);
        // With a 1 ns clock read: each span loses one read, and each
        // parent two more per child.
        let (net, own) = net_and_self(&spans, 1);
        assert_eq!(net, vec![95, 35, 9, 14, 9]);
        assert_eq!(own, vec![51, 12, 9, 14, 9]);
    }

    /// The traced loop copy reproduces the public API's results bit for
    /// bit, on one core and on a CMP, at a tiny scale.
    #[test]
    fn traced_equals_untraced_at_a_tiny_scale() {
        let spec = WorkloadSpec {
            scale: 2e-5,
            seed: 5,
        };
        for w in Workload::ALL {
            let configs = w.configs(spec);
            let p = set_up(&spec);
            let untraced = run_unit(&configs, &p.cache);
            let mut rec = Recorder::new();
            for (c, want) in configs.iter().zip(&untraced) {
                let (got, counts) = traced_run(c, &p.cache, &mut rec, want);
                assert_eq!(&got, want, "{} {}x{}t", w.name(), c.cores, c.threads);
                assert!(counts.stepped > 0 && counts.sampled > 0);
                assert_eq!(counts.stepped + counts.skipped, got.cycles * c.cores as u64);
                assert!(counts.mem_calls >= counts.mem_sampled_calls);
            }
            let spans = rec.spans();
            assert!(spans.iter().any(|s| s.name == Name::Mem));
            assert!(spans.iter().any(|s| s.name == Name::Supply));
            assert!(spans.iter().all(|s| s.end >= s.start));
        }
    }
}
