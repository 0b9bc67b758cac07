//! The assembled SMT out-of-order pipeline.
//!
//! Cycle phases, in order: **complete** (finished executions wake their
//! dependents and resolve branches), **commit** (per-thread in-order
//! graduation), **issue** (oldest-first from the four queues, within
//! per-queue widths and functional-unit occupancy), **dispatch**
//! (rename + queue insertion, up to the decode width), **fetch** (up to
//! two thread groups of four, chosen by the fetch policy, through the
//! I-cache).
//!
//! MOM stream instructions occupy the single media unit for
//! `⌈stream_length / lanes⌉` cycles (two parallel vector pipes); stream
//! memory instructions issue their element-group accesses over multiple
//! cycles through the memory ports — the latency-tolerance mechanism the
//! paper's §5.4 exploits with the decoupled cache hierarchy.

use crate::config::CpuConfig;
use crate::events::CompletionQueue;
use crate::fetch::{select_threads_into, ThreadFetchInfo};
use crate::predictor::Predictor;
use crate::rename::{PhysReg, RenameFile};
use crate::stats::CpuStats;
use crate::Cycle;
use medsim_isa::{Inst, MomOp, Op, QueueKind};
use medsim_mem::{AccessKind, MemReply, MemRequest, MemSystem, Stall, StreamReply, StreamRequest};
use medsim_workloads::trace::{InstSource, InstStream, SimdIsa, StreamSource};
use std::collections::VecDeque;

const DECODE_BUF_CAP: usize = 16;
const ICACHE_LINE: u64 = 32;

/// The pipeline's window onto the memory hierarchy.
///
/// The CPU model is written against this trait rather than a concrete
/// [`MemSystem`], so a core can be timed over an exclusively owned
/// hierarchy (the single-core case), over per-core private levels
/// backed by a CMP's shared L2 ([`MemSystem::with_shared_backend`]),
/// or over a mock in tests. All three calls carry the current cycle
/// and must be made with non-decreasing `now` values.
pub trait MemPort {
    /// Instruction fetch of one cache line for thread `tid`; returns
    /// the cycle the line is available.
    fn ifetch(&mut self, now: Cycle, tid: u8, addr: u64) -> Cycle;

    /// Issue a data access, or report back-pressure.
    ///
    /// # Errors
    ///
    /// Returns a [`Stall`] when no port is free, the MSHRs are
    /// exhausted (load miss) or the write buffer is full (store).
    fn request(&mut self, now: Cycle, req: MemRequest) -> Result<MemReply, Stall>;

    /// Issue one stream instruction's element group for this cycle in
    /// a single call (see [`MemSystem::request_stream`]).
    fn request_stream(&mut self, now: Cycle, req: StreamRequest) -> StreamReply;

    /// Inert (always `false`): kept for the benchmark harness's
    /// forwarding port.
    fn request_would_defer(&self, _addr: u64, _kind: AccessKind) -> bool {
        false
    }

    /// Inert (always `false`): kept for the benchmark harness's
    /// forwarding port.
    fn ifetch_would_defer(&self, _addr: u64) -> bool {
        false
    }

    /// Inert (always `None`): kept for the benchmark harness's
    /// forwarding port.
    fn store_would_evict_set(&self, _addr: u64) -> Option<u64> {
        None
    }

    /// Inert (always `0`): kept for the benchmark harness's forwarding
    /// port.
    fn l1d_set_of(&self, _addr: u64) -> u64 {
        0
    }

    /// Run-ahead variant of [`MemPort::request_stream`], used by the
    /// decoupled vector-fetch unit: loads only, and the port may hold
    /// the whole request back (issuing nothing) to keep MSHR headroom
    /// for demand traffic. The default has no headroom policy and just
    /// issues the stream.
    fn request_stream_runahead(&mut self, now: Cycle, req: StreamRequest) -> StreamReply {
        self.request_stream(now, req)
    }

    /// Tell the port which observability lane (core index) its trace
    /// events belong to. Cosmetic; the default ignores it.
    fn set_obs_lane(&mut self, _lane: u32) {}
}

impl MemPort for MemSystem {
    #[inline]
    fn ifetch(&mut self, now: Cycle, tid: u8, addr: u64) -> Cycle {
        MemSystem::ifetch(self, now, tid, addr)
    }

    #[inline]
    fn request(&mut self, now: Cycle, req: MemRequest) -> Result<MemReply, Stall> {
        MemSystem::request(self, now, req)
    }

    #[inline]
    fn request_stream(&mut self, now: Cycle, req: StreamRequest) -> StreamReply {
        MemSystem::request_stream(self, now, req)
    }

    #[inline]
    fn request_stream_runahead(&mut self, now: Cycle, req: StreamRequest) -> StreamReply {
        MemSystem::request_stream_runahead(self, now, req)
    }

    #[inline]
    fn set_obs_lane(&mut self, lane: u32) {
        MemSystem::set_obs_lane(self, lane);
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InstState {
    InQueue,
    Executing,
    Done,
}

/// One vector load tracked by the decoupled vector-fetch unit, in
/// dispatch order. The entry stays queued until execute drains the
/// instruction, so fully issued streams hold their window slot — that
/// is the vector-data-queue backpressure: at most
/// [`CpuConfig::decouple_depth`] streams can be ahead of execute.
#[derive(Debug, Clone, Copy)]
struct VFetchEntry {
    id: u32,
    tid: usize,
    /// The run-ahead unit issued elements for this entry (as opposed
    /// to the demand path). Flushed entries re-issue on demand.
    early: bool,
}

#[derive(Debug)]
struct DynInst {
    inst: Inst,
    tid: usize,
    dst: Option<PhysReg>,
    prev_dst: Option<PhysReg>,
    srcs: [Option<PhysReg>; 4],
    state: InstState,
    mem_elems_issued: u8,
    mem_done: Cycle,
    mispredicted: bool,
}

struct ThreadCtx {
    /// Block-oriented instruction supply (a generator adapter, a packed
    /// trace decoder, or a sharded frontend's ring consumer).
    source: Option<Box<dyn InstSource>>,
    /// Current decoded block; the per-instruction hot path is an
    /// indexed read from here — no virtual dispatch per instruction.
    block: Vec<Inst>,
    /// Read position inside `block`.
    block_pos: usize,
    lookahead: Option<Inst>,
    decode_buf: VecDeque<Inst>,
    fetch_blocked_until: Cycle,
    blocked_on_branch: Option<u32>,
    last_fetch_line: u64,
    exhausted: bool,
    in_flight: usize,
    icount: usize,
    ocount: u64,
    fetched_vector_last: bool,
}

impl ThreadCtx {
    fn empty() -> Self {
        ThreadCtx {
            source: None,
            block: Vec::new(),
            block_pos: 0,
            lookahead: None,
            decode_buf: VecDeque::new(),
            fetch_blocked_until: 0,
            blocked_on_branch: None,
            last_fetch_line: u64::MAX,
            exhausted: true,
            in_flight: 0,
            icount: 0,
            ocount: 0,
            fetched_vector_last: false,
        }
    }

    /// Next instruction from the current block, refilling from the
    /// source at block boundaries. `None` means the program ended.
    #[inline]
    fn next_from_block(&mut self) -> Option<Inst> {
        loop {
            if let Some(&inst) = self.block.get(self.block_pos) {
                self.block_pos += 1;
                return Some(inst);
            }
            let src = self.source.as_mut()?;
            self.block_pos = 0;
            if !src.next_block(&mut self.block) {
                self.block.clear();
                return None;
            }
        }
    }
}

/// Per-cycle activity carried between the pipeline's phase methods
/// (see [`Cpu::cycle_compute`]): callers may step the phases one at a
/// time, so the counts cannot live on the stack of one `cycle()` call.
#[derive(Debug, Clone, Copy, Default)]
struct PhaseScratch {
    completed: usize,
    committed: usize,
    issued: [usize; 4],
    dispatched: usize,
    fetched: u64,
    fetch_active: bool,
    /// Stream elements the decoupled vector-fetch unit issued early
    /// this cycle (activity: the cycle moved architectural state).
    vfetch_issued: u64,
}

/// The SMT processor, timed over any [`MemPort`].
pub struct Cpu<M: MemPort = MemSystem> {
    config: CpuConfig,
    now: Cycle,
    mem: M,
    rename: RenameFile,
    slab: Vec<Option<DynInst>>,
    free_slots: Vec<u32>,
    queues: [Vec<u32>; 4],
    robs: Vec<VecDeque<u32>>,
    threads: Vec<ThreadCtx>,
    predictors: Vec<Predictor>,
    completions: CompletionQueue,
    stats: CpuStats,
    rr_cursor: usize,
    media_unit_free: Cycle,
    int_div_free: Cycle,
    fp_div_free: Cycle,
    /// Per-queue ready cursor: entries before it are known to be
    /// waiting on source registers, so the issue scan resumes here.
    /// Valid until any register becomes ready (then reset to 0).
    scan_from: [usize; 4],
    /// A register was marked ready since the last issue scan.
    ready_event: bool,
    /// Issue saw an entry with ready sources that still could not
    /// (fully) issue this cycle — port or media-unit pressure, so the
    /// idle fast-forward must not skip ahead.
    issue_blocked_ready: bool,
    /// Event-driven idle skip enabled (identical results either way;
    /// see [`Cpu::set_fast_forward`]).
    fast_forward: bool,
    /// Observability lane (core index) trace events report under;
    /// cosmetic, never read by the timing model.
    obs_lane: u32,
    /// Decoupled vector-fetch access queue (dispatch-ordered vector
    /// loads still ahead of execute). Empty unless
    /// [`CpuConfig::decouple`] is set.
    vfetch: VecDeque<VFetchEntry>,
    /// Scratch for fetch-policy inputs (reused every cycle).
    fetch_infos: Vec<ThreadFetchInfo>,
    /// Scratch for the fetch thread selection (reused every cycle).
    fetch_sel: Vec<usize>,
    /// Activity counters of the phase currently in flight.
    phase: PhaseScratch,
}

impl<M: MemPort> Cpu<M> {
    /// Build a processor over a memory port.
    #[must_use]
    pub fn new(config: CpuConfig, mem: M) -> Self {
        let threads = config.threads;
        let rename = RenameFile::new(threads, &config.sizing);
        Cpu {
            stats: CpuStats::new(threads),
            rename,
            mem,
            now: 0,
            slab: Vec::new(),
            free_slots: Vec::new(),
            queues: Default::default(),
            robs: (0..threads).map(|_| VecDeque::new()).collect(),
            threads: (0..threads).map(|_| ThreadCtx::empty()).collect(),
            predictors: (0..threads).map(|_| Predictor::new(12)).collect(),
            completions: CompletionQueue::new(config.scheduler, config.wheel_slots),
            rr_cursor: 0,
            media_unit_free: 0,
            int_div_free: 0,
            fp_div_free: 0,
            scan_from: [0; 4],
            ready_event: false,
            issue_blocked_ready: false,
            fast_forward: true,
            obs_lane: 0,
            vfetch: VecDeque::new(),
            fetch_infos: Vec::with_capacity(threads),
            fetch_sel: Vec::with_capacity(threads),
            phase: PhaseScratch::default(),
            config,
        }
    }

    /// Enable or disable the event-driven idle fast-forward (on by
    /// default). When every fetch unit is stalled and no instruction
    /// can issue, the model jumps straight to the next completion or
    /// I-fetch wakeup instead of ticking empty cycles. Results are
    /// cycle-for-cycle identical either way (enforced by the
    /// `fast_forward_is_invisible` test); the switch exists for that
    /// test and for profiling.
    pub fn set_fast_forward(&mut self, enabled: bool) {
        self.fast_forward = enabled;
    }

    /// Current cycle.
    #[must_use]
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Statistics so far.
    #[must_use]
    pub fn stats(&self) -> &CpuStats {
        &self.stats
    }

    /// The memory port (for its statistics).
    #[must_use]
    pub fn mem(&self) -> &M {
        &self.mem
    }

    /// Mutable access to the memory port.
    pub fn mem_mut(&mut self) -> &mut M {
        &mut self.mem
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &CpuConfig {
        &self.config
    }

    /// Set the observability lane (core index) this core and its
    /// memory port report trace events under. Cosmetic; the timing
    /// model never reads it.
    pub fn set_obs_lane(&mut self, lane: u32) {
        self.obs_lane = lane;
        self.mem.set_obs_lane(lane);
    }

    /// Attach a block-oriented instruction source to hardware context
    /// `tid` — the primary attach path.
    ///
    /// # Panics
    ///
    /// Panics if the context still has instructions in flight.
    pub fn attach_source(&mut self, tid: usize, source: Box<dyn InstSource>) {
        assert!(self.thread_idle(tid), "context {tid} still busy");
        let t = &mut self.threads[tid];
        t.source = Some(source);
        t.block.clear();
        t.block_pos = 0;
        t.exhausted = false;
        t.lookahead = None;
        t.last_fetch_line = u64::MAX;
        t.fetch_blocked_until = self.now;
        t.blocked_on_branch = None;
    }

    /// Attach a per-instruction stream to hardware context `tid`
    /// (wrapped into blocks; see [`Cpu::attach_source`]).
    ///
    /// # Panics
    ///
    /// Panics if the context still has instructions in flight.
    pub fn attach_thread(&mut self, tid: usize, stream: Box<dyn InstStream>) {
        self.attach_source(tid, Box::new(StreamSource::new(stream)));
    }

    /// Drop every context's instruction source (ring consumers of a
    /// sharded frontend included), unblocking any producer thread still
    /// waiting to ship blocks into a full ring. The machine layer calls
    /// this once a run completes, before its thread scope joins the
    /// producers; all statistics stay intact. The core must not be
    /// cycled afterwards.
    pub fn detach_sources(&mut self) {
        for t in &mut self.threads {
            t.source = None;
        }
    }

    /// Whether context `tid` has fully drained (stream ended, no
    /// buffered or in-flight instructions).
    #[must_use]
    pub fn thread_idle(&self, tid: usize) -> bool {
        let t = &self.threads[tid];
        t.exhausted && t.lookahead.is_none() && t.decode_buf.is_empty() && t.in_flight == 0
    }

    /// Whether every context is idle.
    #[must_use]
    pub fn all_idle(&self) -> bool {
        (0..self.threads.len()).all(|t| self.thread_idle(t))
    }

    /// Record that the program in context `tid` completed (§5.1
    /// program-list scheduling bookkeeping).
    pub fn note_program_completed(&mut self, tid: usize) {
        self.stats.threads[tid].programs_completed += 1;
    }

    /// Advance one cycle (plus any provably idle cycles after it —
    /// see [`Cpu::set_fast_forward`]).
    pub fn cycle(&mut self) {
        let any_activity = self.cycle_no_ff();
        if self.fast_forward && !any_activity {
            self.fast_forward_idle();
        }
    }

    /// Advance exactly one cycle — no idle fast-forward — returning
    /// whether anything moved. A CMP machine steps every core with this
    /// and applies a machine-level fast-forward only when *no* core had
    /// activity (all cores share one clock, so no core may jump alone).
    pub fn cycle_no_ff(&mut self) -> bool {
        self.cycle_compute();
        self.cycle_mem_frontend();
        self.cycle_finish()
    }

    /// Phase A of one cycle: **complete**, **commit** and issue from
    /// the integer/FP/SIMD queues — every stage that touches only
    /// core-private state, never the [`MemPort`]. Must be followed by
    /// [`Cpu::cycle_mem_frontend`] then [`Cpu::cycle_finish`].
    pub fn cycle_compute(&mut self) {
        self.phase = PhaseScratch {
            completed: self.complete(),
            ..PhaseScratch::default()
        };
        self.phase.committed = self.commit();
        // A completion marked registers ready: every queue prefix that
        // was known-blocked must be rescanned.
        if self.ready_event {
            self.scan_from = [0; 4];
            self.ready_event = false;
        }
        self.issue_blocked_ready = false;
        self.phase.issued[0] = self.issue_queue(QueueKind::Int, self.config.int_issue);
        self.phase.issued[2] = self.issue_queue(QueueKind::Fp, self.config.fp_issue);
        self.phase.issued[3] = self.issue_queue(QueueKind::Simd, self.config.simd_issue);
        self.stats.issued[0] += self.phase.issued[0] as u64;
        self.stats.issued[2] += self.phase.issued[2] as u64;
        self.stats.issued[3] += self.phase.issued[3] as u64;
    }

    /// Phase B of one cycle: memory issue, dispatch and fetch — the
    /// stages that talk to the [`MemPort`]. In a CMP the machine layer
    /// is the bus arbiter: it steps its cores in **fixed core order**,
    /// so the shared L2/DRAM backend sees a deterministic request
    /// sequence.
    pub fn cycle_mem_frontend(&mut self) {
        self.phase.issued[1] = self.issue_mem();
        self.stats.issued[1] += self.phase.issued[1] as u64;
        // The decoupled vector-fetch unit runs after demand issue (it
        // uses whatever ports demand traffic left free) and before
        // dispatch (entries dispatched this cycle wait a cycle before
        // running ahead).
        self.vfetch_run();
        self.phase.dispatched = self.dispatch();
        let fetched_before = self.stats.fetched;
        self.phase.fetch_active = self.fetch();
        self.phase.fetched = self.stats.fetched - fetched_before;
    }

    /// Close the cycle opened by [`Cpu::cycle_compute`]: per-cycle
    /// diagnostics, the clock tick, and the activity verdict (`false`
    /// means nothing moved and nothing can move until a completion or
    /// an I-fetch wakeup — the fast-forward precondition).
    pub fn cycle_finish(&mut self) -> bool {
        let [int_i, mem_i, fp_i, simd_i] = self.phase.issued;
        // §5.3 diagnostic: cycles where only the vector pipe issued.
        if simd_i > 0 && int_i == 0 && fp_i == 0 && mem_i == 0 {
            self.stats.vector_only_cycles += 1;
        }
        if simd_i + int_i + fp_i + mem_i == 0 {
            self.stats.idle_cycles += 1;
        }
        if medsim_obs::tracing() {
            use medsim_obs::EventKind;
            medsim_obs::note_cycle(self.now);
            if self.phase.fetched > 0 {
                medsim_obs::emit(
                    self.now,
                    self.obs_lane,
                    EventKind::Fetch,
                    self.phase.fetched,
                );
            }
            let issued = (int_i + mem_i + fp_i + simd_i) as u64;
            if issued > 0 {
                medsim_obs::emit(self.now, self.obs_lane, EventKind::Issue, issued);
            }
            if self.phase.committed > 0 {
                medsim_obs::emit(
                    self.now,
                    self.obs_lane,
                    EventKind::Commit,
                    self.phase.committed as u64,
                );
            }
        }
        self.now += 1;
        self.stats.cycles = self.now;
        self.phase.completed + self.phase.committed + self.phase.dispatched != 0
            || int_i + mem_i + fp_i + simd_i != 0
            || self.phase.fetch_active
            || self.phase.vfetch_issued > 0
            || self.issue_blocked_ready
    }

    /// Jump from the current (already advanced) cycle to the next cycle
    /// at which the machine state can change: the earliest pending
    /// completion or the earliest I-fetch unblock. Replicates exactly
    /// the per-cycle statistics the skipped idle cycles would have
    /// accumulated, so results are identical to ticking through them.
    fn fast_forward_idle(&mut self) {
        if let Some(wake) = self.fast_forward_wake() {
            self.apply_fast_forward(wake);
        }
    }

    /// The next cycle at which this core's state can change, given the
    /// cycle just finished had no activity: the earliest pending
    /// completion or I-fetch unblock. `None` when nothing is pending
    /// (the core is drained, or blocked solely on branch resolution
    /// that will never come — impossible after a no-activity cycle).
    #[must_use]
    pub fn fast_forward_wake(&self) -> Option<Cycle> {
        let mut wake: Option<Cycle> = self.completions.next_due();
        let prev = self.now - 1; // the idle cycle just simulated
        for t in &self.threads {
            if t.exhausted || t.blocked_on_branch.is_some() {
                continue;
            }
            if t.fetch_blocked_until > prev {
                wake = Some(wake.map_or(t.fetch_blocked_until, |w| w.min(t.fetch_blocked_until)));
            }
        }
        wake
    }

    /// Skip idle cycles up to `wake` (at most this core's own
    /// [`Cpu::fast_forward_wake`] — a CMP machine passes the minimum
    /// over its cores so the chip stays in lockstep), replicating the
    /// per-cycle statistics the skipped cycles would have accumulated.
    pub fn apply_fast_forward(&mut self, wake: Cycle) {
        let mut branch_blocked = 0u64;
        let mut time_blocked = 0u64;
        let prev = self.now - 1; // the idle cycle just simulated
        for t in &self.threads {
            if t.exhausted {
                continue;
            }
            if t.blocked_on_branch.is_some() {
                branch_blocked += 1;
            } else if t.fetch_blocked_until > prev {
                time_blocked += 1;
            }
        }
        let Some(skipped) = wake.checked_sub(self.now) else {
            return;
        };
        if skipped == 0 {
            return;
        }
        // Stall accounting the skipped fetch stages would have done.
        self.stats.fetch_branch_stalls += skipped * branch_blocked;
        self.stats.fetch_icache_stalls += skipped * time_blocked;
        // Dispatch would have re-hit the same head-of-buffer stall.
        let (rob, queue, reg) = self.dispatch_stall_profile();
        self.stats.dispatch_rob_stalls += skipped * rob;
        self.stats.dispatch_queue_stalls += skipped * queue;
        self.stats.dispatch_reg_stalls += skipped * reg;
        self.stats.idle_cycles += skipped;
        // The vector-fetch occupancy gauge the skipped cycles would
        // have sampled (their queue composition cannot change during
        // an idle stretch: draining an entry is issue activity).
        if self.config.decouple && !self.vfetch.is_empty() {
            self.stats.vfetch_cycles += skipped;
            self.stats.vfetch_occupancy_sum += skipped * self.vfetch.len() as u64;
        }
        self.rr_cursor = (self.rr_cursor + skipped as usize) % self.threads.len();
        self.now = wake;
        self.stats.cycles = self.now;
    }

    /// The per-cycle dispatch stall counters an idle cycle produces:
    /// one per thread whose decode buffer head cannot enter the window,
    /// by stall reason. Read-only twin of the bookkeeping in
    /// [`Cpu::dispatch`] for the fast-forward path.
    fn dispatch_stall_profile(&self) -> (u64, u64, u64) {
        let (mut rob, mut queue, mut reg) = (0u64, 0u64, 0u64);
        for (tid, t) in self.threads.iter().enumerate() {
            let Some(inst) = t.decode_buf.front() else {
                continue;
            };
            if self.robs[tid].len() >= self.config.sizing.rob_per_thread {
                rob += 1;
            } else if self.queues[Self::queue_idx(inst.queue())].len()
                >= self.config.sizing.queue_entries
            {
                queue += 1;
            } else {
                // The head must be blocked on a free physical register:
                // were it dispatchable, the cycle would have dispatched
                // it and fast-forward would not have been entered.
                reg += 1;
            }
        }
        (rob, queue, reg)
    }

    /// Run until all attached threads drain or `max_cycles` elapse.
    /// Returns `true` if everything drained.
    pub fn run_to_idle(&mut self, max_cycles: u64) -> bool {
        let limit = self.now + max_cycles;
        while !self.all_idle() {
            if self.now >= limit {
                return false;
            }
            self.cycle();
        }
        true
    }

    // ---- pipeline phases -------------------------------------------------

    fn complete(&mut self) -> usize {
        let mut processed = 0;
        while let Some(id) = self.completions.pop_due(self.now) {
            processed += 1;
            let d = self.slab[id as usize]
                .as_mut()
                .expect("completing instruction exists");
            debug_assert_eq!(d.state, InstState::Executing);
            d.state = InstState::Done;
            let tid = d.tid;
            let dst = d.dst;
            let mispredicted = d.mispredicted;
            if let Some(p) = dst {
                self.rename.mark_ready(p);
                // Waiters anywhere in the queues may now be issuable:
                // invalidate the ready cursors.
                self.ready_event = true;
            }
            // Branch resolution unblocks fetch (plus redirect penalty).
            if mispredicted && self.threads[tid].blocked_on_branch == Some(id) {
                self.threads[tid].blocked_on_branch = None;
                self.threads[tid].fetch_blocked_until = self.now + self.config.mispredict_penalty;
                // A redirect discards the thread's run-ahead state: the
                // buffered vector data is stale, so its loads re-issue
                // on the demand path.
                if self.config.decouple {
                    self.vfetch_flush(tid);
                }
            }
        }
        processed
    }

    fn commit(&mut self) -> usize {
        let n = self.threads.len();
        let mut committed = 0;
        let mut budget = self.config.commit_width;
        // Rotate the starting thread for fairness.
        for off in 0..n {
            let tid = (self.rr_cursor + off) % n;
            while budget > 0 {
                let Some(&head) = self.robs[tid].front() else {
                    break;
                };
                let done = matches!(
                    self.slab[head as usize]
                        .as_ref()
                        .expect("rob entry exists")
                        .state,
                    InstState::Done
                );
                if !done {
                    break;
                }
                self.robs[tid].pop_front();
                let d = self.slab[head as usize].take().expect("rob entry exists");
                self.free_slots.push(head);
                if let Some(prev) = d.prev_dst {
                    self.rename.release(prev);
                }
                let t = &mut self.threads[tid];
                t.in_flight -= 1;
                let equiv = d.inst.equivalent_count();
                self.stats.threads[tid].committed += 1;
                self.stats.threads[tid].committed_equiv += equiv;
                self.stats.record_commit_kind(d.inst.kind(), equiv);
                if d.inst.branch.is_some() {
                    self.stats.threads[tid].branches += 1;
                    if d.mispredicted {
                        self.stats.threads[tid].mispredicts += 1;
                    }
                }
                committed += 1;
                budget -= 1;
            }
        }
        committed
    }

    fn sources_ready(&self, d: &DynInst) -> bool {
        d.srcs.iter().flatten().all(|&p| self.rename.is_ready(p))
    }

    fn queue_idx(q: QueueKind) -> usize {
        match q {
            QueueKind::Int => 0,
            QueueKind::Mem => 1,
            QueueKind::Fp => 2,
            QueueKind::Simd => 3,
        }
    }

    /// Execution latency of a non-memory instruction, plus any
    /// unpipelined-unit occupancy bookkeeping.
    fn exec_latency(&mut self, inst: &Inst) -> Cycle {
        use medsim_isa::{FpOp, IntOp};
        match inst.op {
            Op::Int(o) => match o {
                IntOp::Mul | IntOp::Mulh => self.config.lat_int_mul,
                IntOp::Div | IntOp::Rem => {
                    let start = self.int_div_free.max(self.now);
                    self.int_div_free = start + self.config.lat_int_div;
                    (start - self.now) + self.config.lat_int_div
                }
                _ => 1,
            },
            Op::Ctl(_) => 1,
            Op::Fp(o) => match o {
                FpOp::FDiv | FpOp::FSqrt => {
                    let start = self.fp_div_free.max(self.now);
                    self.fp_div_free = start + self.config.lat_fp_div;
                    (start - self.now) + self.config.lat_fp_div
                }
                FpOp::FMul | FpOp::FMadd => self.config.lat_fp_mul,
                _ => self.config.lat_fp_add,
            },
            Op::Mmx(o) => {
                if o.is_mul() {
                    self.config.lat_simd_mul
                } else {
                    1
                }
            }
            Op::Mom(o) => {
                let base = if o.is_mul() {
                    self.config.lat_simd_mul
                } else {
                    1
                };
                let occupancy = Cycle::from(inst.slen)
                    .div_ceil(self.config.vector_lanes as u64)
                    .max(1);
                occupancy + base - 1
            }
            Op::Mem(_) => unreachable!("memory ops issue via issue_mem"),
        }
    }

    /// Issue from one of the non-memory queues, oldest first.
    ///
    /// Steady-state allocation-free: issued entries are compacted out
    /// of the queue in place (no scratch `Vec`, no O(n²) `retain`), and
    /// the scan resumes at [`Cpu::scan_from`] — the prefix before it is
    /// known to be waiting on source registers, which can only change
    /// through a completion (tracked by `ready_event`).
    fn issue_queue(&mut self, q: QueueKind, width: usize) -> usize {
        let qi = Self::queue_idx(q);
        let len = self.queues[qi].len();
        let start = self.scan_from[qi].min(len);
        if start >= len || width == 0 {
            return 0;
        }
        let mom_isa = self.config.isa == SimdIsa::Mom;
        let mut issued = 0usize;
        let mut write = start;
        let mut pos = start;
        // First kept entry that is ready but resource-blocked (the scan
        // must come back to it even without a new ready event).
        let mut cursor_stop: Option<usize> = None;
        while pos < len {
            if issued >= width {
                break;
            }
            let id = self.queues[qi][pos];
            let d = self.slab[id as usize]
                .as_ref()
                .expect("queued instruction exists");
            if d.state != InstState::InQueue || !self.sources_ready(d) {
                self.queues[qi][write] = id;
                write += 1;
                pos += 1;
                continue;
            }
            // The MOM media unit is a single occupied resource.
            let is_stream = matches!(d.inst.op, Op::Mom(_));
            if q == QueueKind::Simd && mom_isa && is_stream && self.media_unit_free > self.now {
                cursor_stop.get_or_insert(write);
                self.issue_blocked_ready = true;
                self.queues[qi][write] = id;
                write += 1;
                pos += 1;
                continue;
            }
            let inst = d.inst;
            let tid = d.tid;
            let lat = self.exec_latency(&inst);
            if q == QueueKind::Simd && mom_isa && is_stream {
                let occupancy = Cycle::from(inst.slen)
                    .div_ceil(self.config.vector_lanes as u64)
                    .max(1);
                self.media_unit_free = self.now + occupancy;
            }
            let d = self.slab[id as usize]
                .as_mut()
                .expect("queued instruction exists");
            d.state = InstState::Executing;
            self.completions.push(self.now + lat, id);
            self.threads[tid].icount -= 1;
            self.threads[tid].ocount -= inst.equivalent_count();
            issued += 1;
            pos += 1; // issued: hole closed by the compaction below
        }
        // Resume point: the first ready-but-blocked survivor, else the
        // first unexamined entry (which lands at `write` after the tail
        // is compacted down).
        let resume = cursor_stop.unwrap_or(write);
        while pos < len {
            self.queues[qi][write] = self.queues[qi][pos];
            write += 1;
            pos += 1;
        }
        self.queues[qi].truncate(write);
        self.scan_from[qi] = resume;
        issued
    }

    /// Issue element-group accesses from the memory queue. Same
    /// in-place compaction and ready-cursor scheme as
    /// [`Cpu::issue_queue`]; partially issued stream accesses stay at
    /// the front and pin the cursor (ports free up over time, not
    /// through ready events).
    fn issue_mem(&mut self) -> usize {
        let qi = Self::queue_idx(QueueKind::Mem);
        let len = self.queues[qi].len();
        let start = self.scan_from[qi].min(len);
        if start >= len {
            return 0;
        }
        let mut slots = self.config.mem_issue;
        let mut issued_count = 0;
        let mut write = start;
        let mut pos = start;
        let mut cursor_stop: Option<usize> = None;
        while pos < len {
            if slots == 0 {
                break;
            }
            let id = self.queues[qi][pos];
            let d = self.slab[id as usize]
                .as_ref()
                .expect("queued instruction exists");
            if d.state != InstState::InQueue || !self.sources_ready(d) {
                self.queues[qi][write] = id;
                write += 1;
                pos += 1;
                continue;
            }
            let Some(mem) = d.inst.mem else {
                // Dispatch routes an instruction to the memory queue
                // only for memory opcodes, and every constructor of
                // those carries a MemRef.
                unreachable!("memory-queue instruction without an access: {:?}", d.inst)
            };
            let tid = d.tid;
            let kind = access_kind(&d.inst);
            let elems_before = d.mem_elems_issued;
            // Decoupled drain: the run-ahead unit already issued the
            // whole stream, so execute consumes the buffered replies
            // in order — one issue slot, no memory port.
            if self.config.decouple && elems_before == mem.count {
                let equiv = d.inst.equivalent_count();
                let mem_done = d.mem_done;
                let d = self.slab[id as usize].as_mut().expect("exists");
                d.state = InstState::Executing;
                self.completions.push(mem_done.max(self.now + 1), id);
                self.threads[tid].icount -= 1;
                self.threads[tid].ocount -= equiv;
                self.vfetch_forget(id);
                self.stats.vfetch_drains += 1;
                issued_count += 1;
                slots -= 1;
                pos += 1;
                continue;
            }
            let mut elems = elems_before;
            let mut mem_done = d.mem_done;
            if self.config.stream_batch && mem.count > 1 {
                // Batched path: hand the whole element group for this
                // cycle to the memory system in one call (identical
                // timing and statistics to the per-element loop below —
                // enforced by the differential suite).
                let want = (mem.count - elems).min(slots.min(usize::from(u8::MAX)) as u8);
                let reply = self.mem.request_stream(
                    self.now,
                    StreamRequest {
                        tid: tid as u8,
                        base: mem.elem_addr(elems),
                        stride: mem.stride,
                        count: want,
                        size: mem.size,
                        kind,
                    },
                );
                elems += reply.issued;
                slots -= reply.issued as usize;
                mem_done = mem_done.max(reply.done_at);
                match reply.stall {
                    Some(Stall::PortBusy) => {
                        self.stats.mem_stalls += 1;
                        slots = 0; // ports exhausted this cycle
                    }
                    Some(_) => self.stats.mem_stalls += 1,
                    None => {}
                }
            } else {
                while elems < mem.count && slots > 0 {
                    let req = MemRequest {
                        tid: tid as u8,
                        addr: mem.elem_addr(elems),
                        size: mem.size,
                        kind,
                    };
                    match self.mem.request(self.now, req) {
                        Ok(reply) => {
                            elems += 1;
                            slots -= 1;
                            mem_done = mem_done.max(reply.done_at);
                        }
                        Err(Stall::PortBusy) => {
                            self.stats.mem_stalls += 1;
                            slots = 0; // ports exhausted this cycle
                            break;
                        }
                        Err(_) => {
                            self.stats.mem_stalls += 1;
                            break;
                        }
                    }
                }
            }
            let d = self.slab[id as usize].as_mut().expect("exists");
            d.mem_elems_issued = elems;
            d.mem_done = mem_done;
            if elems > elems_before {
                issued_count += 1;
            }
            if elems == mem.count {
                d.state = InstState::Executing;
                self.completions.push(mem_done.max(self.now + 1), id);
                self.threads[tid].icount -= 1;
                self.threads[tid].ocount -= d.inst.equivalent_count();
                // Fully issued: drop from the queue (hole compacted).
                // A partially run-ahead stream finished on the demand
                // path leaves the access queue here.
                if self.config.decouple {
                    self.vfetch_forget(id);
                }
            } else {
                // Ready but port/MSHR/write-buffer limited: keep, and
                // make sure the next scan starts at or before it.
                cursor_stop.get_or_insert(write);
                self.issue_blocked_ready = true;
                self.queues[qi][write] = id;
                write += 1;
            }
            pos += 1;
        }
        let resume = cursor_stop.unwrap_or(write);
        while pos < len {
            self.queues[qi][write] = self.queues[qi][pos];
            write += 1;
            pos += 1;
        }
        self.queues[qi].truncate(write);
        self.scan_from[qi] = resume;
        issued_count
    }

    /// Step the decoupled vector-fetch unit: issue stream element
    /// groups for the oldest queued vector loads ahead of execute,
    /// strictly in order, through whatever memory ports demand issue
    /// left free this cycle. Only the first
    /// [`CpuConfig::decouple_depth`] entries — the run-ahead window,
    /// which doubles as the vector-data-queue capacity since a fully
    /// issued stream keeps its slot until execute drains it — are
    /// eligible; a stalled entry (ports, MSHR headroom) blocks the
    /// younger entries behind it.
    fn vfetch_run(&mut self) {
        self.phase.vfetch_issued = 0;
        if !self.config.decouple || self.vfetch.is_empty() {
            return;
        }
        self.stats.vfetch_cycles += 1;
        self.stats.vfetch_occupancy_sum += self.vfetch.len() as u64;
        let window = self.config.decouple_depth.min(self.vfetch.len());
        let mut issued_total = 0u64;
        for i in 0..window {
            let e = self.vfetch[i];
            let d = self.slab[e.id as usize]
                .as_ref()
                .expect("vfetch entry exists");
            debug_assert_eq!(
                d.state,
                InstState::InQueue,
                "drained entries leave the access queue"
            );
            let Some(mem) = d.inst.mem else {
                continue;
            };
            if d.mem_elems_issued >= mem.count {
                continue; // buffered, waiting for execute to drain
            }
            let want = mem.count - d.mem_elems_issued;
            let reply = self.mem.request_stream_runahead(
                self.now,
                StreamRequest {
                    tid: e.tid as u8,
                    base: mem.elem_addr(d.mem_elems_issued),
                    stride: mem.stride,
                    count: want,
                    size: mem.size,
                    kind: AccessKind::VectorLoad,
                },
            );
            let d = self.slab[e.id as usize]
                .as_mut()
                .expect("vfetch entry exists");
            d.mem_elems_issued += reply.issued;
            d.mem_done = d.mem_done.max(reply.done_at);
            if reply.issued > 0 {
                self.vfetch[i].early = true;
                issued_total += u64::from(reply.issued);
            }
            if self.slab[e.id as usize]
                .as_ref()
                .expect("vfetch entry exists")
                .mem_elems_issued
                < mem.count
            {
                // Port or MSHR-headroom stall: strictly in order, so
                // nothing younger runs ahead past this entry — and the
                // idle fast-forward must not skip the retry cycles.
                self.issue_blocked_ready = true;
                break;
            }
        }
        self.stats.vfetch_runahead_elems += issued_total;
        self.phase.vfetch_issued = issued_total;
        // Run-ahead distance: entries holding early-issued elements
        // ahead of execute. Entries only move toward the queue front,
        // so every flagged entry sits inside the window — the distance
        // is bounded by the configured depth (property-tested).
        let dist = self.vfetch.iter().filter(|e| e.early).count() as u64;
        self.stats.vfetch_max_runahead = self.stats.vfetch_max_runahead.max(dist);
        if issued_total > 0 && medsim_obs::tracing() {
            medsim_obs::emit(
                self.now,
                self.obs_lane,
                medsim_obs::EventKind::VfetchIssue,
                issued_total,
            );
        }
    }

    /// Remove a drained (completed) vector load from the access queue.
    fn vfetch_forget(&mut self, id: u32) {
        self.vfetch.retain(|e| e.id != id);
    }

    /// Precise redirect flush: discard thread `tid`'s run-ahead state.
    /// Entries stay queued (this model redirects by stalling fetch —
    /// the queued instructions themselves are not squashed), but their
    /// early-issued elements are discarded and re-issue on the demand
    /// path, modelling the re-fetch of a buffered stream the redirect
    /// invalidated.
    fn vfetch_flush(&mut self, tid: usize) {
        let mut flushed = 0u64;
        for i in 0..self.vfetch.len() {
            let e = self.vfetch[i];
            if e.tid != tid || !e.early {
                continue;
            }
            let d = self.slab[e.id as usize]
                .as_mut()
                .expect("vfetch entry exists");
            debug_assert_eq!(d.state, InstState::InQueue);
            flushed += u64::from(d.mem_elems_issued);
            d.mem_elems_issued = 0;
            d.mem_done = 0;
            self.vfetch[i].early = false;
        }
        if flushed > 0 {
            self.stats.vfetch_flushes += 1;
            self.stats.vfetch_flushed_elems += flushed;
            if medsim_obs::tracing() {
                medsim_obs::emit(
                    self.now,
                    self.obs_lane,
                    medsim_obs::EventKind::VfetchFlush,
                    flushed,
                );
            }
        }
    }

    fn dispatch(&mut self) -> usize {
        let n = self.threads.len();
        let mut dispatched = 0;
        let mut budget = self.config.decode_width;
        for off in 0..n {
            let tid = (self.rr_cursor + off) % n;
            while budget > 0 {
                let Some(&inst) = self.threads[tid].decode_buf.front() else {
                    break;
                };
                if self.robs[tid].len() >= self.config.sizing.rob_per_thread {
                    self.stats.dispatch_rob_stalls += 1;
                    break;
                }
                let qi = Self::queue_idx(inst.queue());
                if self.queues[qi].len() >= self.config.sizing.queue_entries {
                    self.stats.dispatch_queue_stalls += 1;
                    break;
                }
                // Rename sources first (they must see the old mappings),
                // then the destination.
                let mut srcs: [Option<PhysReg>; 4] = [None; 4];
                for (i, s) in inst.sources().enumerate() {
                    if !s.is_zero() {
                        srcs[i] = Some(self.rename.lookup(tid, s));
                    }
                }
                // MOM instructions implicitly read the stream-length
                // register (integer r31, renamed through the int pool).
                if let Op::Mom(o) = inst.op {
                    if o != MomOp::SetVl {
                        srcs[3] =
                            Some(self.rename.lookup(
                                tid,
                                medsim_isa::regs::int(medsim_isa::regs::STREAM_LEN_REG),
                            ));
                    }
                }
                let (dst, prev_dst) = match inst.dst {
                    Some(dreg) if !dreg.is_zero() => match self.rename.allocate(tid, dreg) {
                        Some((new, prev)) => (Some(new), Some(prev)),
                        None => {
                            self.stats.dispatch_reg_stalls += 1;
                            break;
                        }
                    },
                    _ => (None, None),
                };
                self.threads[tid].decode_buf.pop_front();

                // Branch prediction at decode: a wrong prediction blocks
                // this thread's fetch until the branch resolves.
                let mut mispredicted = false;
                if let (Op::Ctl(c), Some(b)) = (inst.op, inst.branch) {
                    if c.is_conditional() {
                        mispredicted = !self.predictors[tid].predict_conditional(inst.pc, b.taken);
                    } else if c.is_indirect() {
                        mispredicted = !self.predictors[tid].predict_indirect(inst.pc, b.target);
                    }
                }

                let d = DynInst {
                    inst,
                    tid,
                    dst,
                    prev_dst,
                    srcs,
                    state: InstState::InQueue,
                    mem_elems_issued: 0,
                    mem_done: 0,
                    mispredicted,
                };
                let id = match self.free_slots.pop() {
                    Some(slot) => {
                        self.slab[slot as usize] = Some(d);
                        slot
                    }
                    None => {
                        self.slab.push(Some(d));
                        (self.slab.len() - 1) as u32
                    }
                };
                self.queues[qi].push(id);
                self.robs[tid].push_back(id);
                self.threads[tid].in_flight += 1;
                // Stream loads also enter the decoupled vector-fetch
                // unit's access queue (stream addresses are known at
                // dispatch — source operands gate execute, not fetch).
                // Only MOM stream instructions decouple: a single
                // packed MMX load is one demand access with nothing to
                // run ahead of, and on the conventional hierarchy it
                // would only fight demand misses for MSHR headroom.
                // An empty window (depth 0) keeps the unit fully
                // dormant — nothing is enqueued, so not even the
                // occupancy bookkeeping can diverge from the coupled
                // machine.
                if self.config.decouple
                    && self.config.decouple_depth > 0
                    && inst.op.is_stream()
                    && inst.queue() == QueueKind::Mem
                    && matches!(access_kind(&inst), AccessKind::VectorLoad)
                {
                    self.vfetch.push_back(VFetchEntry {
                        id,
                        tid,
                        early: false,
                    });
                }
                if mispredicted {
                    self.threads[tid].blocked_on_branch = Some(id);
                }
                dispatched += 1;
                budget -= 1;
            }
        }
        dispatched
    }

    /// Fetch into the decode buffers. Returns whether anything moved:
    /// a thread was selected (even a fruitless selection touches the
    /// I-cache or exhausts a stream) — when `false`, fetch is fully
    /// stalled and contributes nothing until a wakeup time.
    fn fetch(&mut self) -> bool {
        // Build the selection inputs and account stall reasons in one
        // pass over the thread contexts.
        let mut infos = std::mem::take(&mut self.fetch_infos);
        infos.clear();
        let mut any_runnable = false;
        for t in &self.threads {
            let runnable = !t.exhausted
                && t.blocked_on_branch.is_none()
                && t.fetch_blocked_until <= self.now
                && t.decode_buf.len() + self.config.fetch_width <= DECODE_BUF_CAP;
            any_runnable |= runnable;
            infos.push(ThreadFetchInfo {
                runnable,
                icount: t.icount,
                ocount: t.ocount,
                fetched_vector_last: t.fetched_vector_last,
            });
            if !t.exhausted {
                if t.blocked_on_branch.is_some() {
                    self.stats.fetch_branch_stalls += 1;
                } else if t.fetch_blocked_until > self.now {
                    self.stats.fetch_icache_stalls += 1;
                }
            }
        }
        let mut chosen = std::mem::take(&mut self.fetch_sel);
        chosen.clear();
        // The selection policies only ever pick runnable threads, so
        // with none runnable the sort-and-pick is a no-op — skip it.
        if any_runnable {
            let vector_pipe_empty = self.queues[Self::queue_idx(QueueKind::Simd)].is_empty();
            select_threads_into(
                self.config.fetch_policy,
                &infos,
                self.rr_cursor,
                self.config.fetch_threads,
                vector_pipe_empty,
                &mut chosen,
            );
        }
        self.fetch_infos = infos;
        let any_chosen = !chosen.is_empty();
        for &tid in &chosen {
            let mut any_vector = false;
            for _ in 0..self.config.fetch_width {
                // Peek the next instruction.
                let next = match self.threads[tid].lookahead.take() {
                    Some(i) => Some(i),
                    None => {
                        let t = &mut self.threads[tid];
                        match t.next_from_block() {
                            Some(i) => Some(i),
                            None => {
                                t.exhausted = true;
                                t.source = None;
                                None
                            }
                        }
                    }
                };
                let Some(inst) = next else { break };
                // I-cache: a new line must be fetched before its
                // instructions can be consumed.
                let line = inst.pc & !(ICACHE_LINE - 1);
                if line != self.threads[tid].last_fetch_line {
                    let ready = self.mem.ifetch(self.now, tid as u8, line);
                    self.threads[tid].last_fetch_line = line;
                    if ready > self.now + 1 {
                        self.threads[tid].fetch_blocked_until = ready;
                        self.threads[tid].lookahead = Some(inst);
                        break;
                    }
                }
                any_vector |= inst.op.is_simd();
                let t = &mut self.threads[tid];
                t.decode_buf.push_back(inst);
                t.icount += 1;
                t.ocount += inst.equivalent_count();
                self.stats.fetched += 1;
                // Fetch stops at a taken control transfer.
                if inst.branch.map(|b| b.taken).unwrap_or(false) {
                    break;
                }
            }
            self.threads[tid].fetched_vector_last = any_vector;
        }
        self.fetch_sel = chosen;
        self.rr_cursor = (self.rr_cursor + 1) % self.threads.len();
        any_chosen
    }
}

fn access_kind(inst: &Inst) -> AccessKind {
    let is_store = inst.op.is_store();
    match inst.op {
        Op::Mem(medsim_isa::MemOp::Prefetch) => AccessKind::Prefetch,
        Op::Mom(MomOp::Vprefetch) => AccessKind::Prefetch,
        Op::Mem(_) => {
            if is_store {
                AccessKind::ScalarStore
            } else {
                AccessKind::ScalarLoad
            }
        }
        _ => {
            // MMX and MOM packed/stream accesses use the vector path.
            if is_store {
                AccessKind::VectorStore
            } else {
                AccessKind::VectorLoad
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medsim_isa::prelude::*;
    use medsim_mem::MemConfig;
    use medsim_workloads::trace::VecStream;

    fn cpu(threads: usize, isa: SimdIsa) -> Cpu {
        Cpu::new(
            CpuConfig::paper(threads, isa),
            MemSystem::new(MemConfig::ideal()),
        )
    }

    fn independent_ints(n: usize) -> Vec<Inst> {
        (0..n)
            .map(|i| {
                Inst::int_rrr(IntOp::Add, int(1 + (i % 8) as u8), int(10), int(11))
                    .at(0x1000 + 4 * i as u64)
            })
            .collect()
    }

    #[test]
    fn runs_a_simple_program_to_completion() {
        let mut c = cpu(1, SimdIsa::Mmx);
        c.attach_thread(0, Box::new(VecStream::new(independent_ints(100))));
        assert!(c.run_to_idle(10_000));
        assert_eq!(c.stats().committed(), 100);
        assert!(
            c.stats().cycles < 200,
            "100 independent adds shouldn't take {} cycles",
            c.stats().cycles
        );
    }

    #[test]
    fn ipc_bounded_by_int_issue_width() {
        let mut c = cpu(1, SimdIsa::Mmx);
        c.attach_thread(0, Box::new(VecStream::new(independent_ints(4000))));
        assert!(c.run_to_idle(100_000));
        let ipc = c.stats().ipc();
        assert!(ipc <= 4.05, "int issue width is 4: {ipc}");
        assert!(ipc > 2.0, "independent adds should flow: {ipc}");
    }

    #[test]
    fn dependent_chain_executes_serially() {
        // r1 = r1 + r1, repeated: one per cycle at best.
        let insts: Vec<Inst> = (0..500)
            .map(|i| Inst::int_rrr(IntOp::Add, int(1), int(1), int(1)).at(0x1000 + 4 * i as u64))
            .collect();
        let mut c = cpu(1, SimdIsa::Mmx);
        c.attach_thread(0, Box::new(VecStream::new(insts)));
        assert!(c.run_to_idle(100_000));
        assert!(
            c.stats().cycles >= 500,
            "dependent chain is serial: {}",
            c.stats().cycles
        );
    }

    #[test]
    fn per_thread_retirement_is_in_order() {
        // A long-latency divide followed by a cheap add: the add must not
        // commit before the divide (same thread, program order).
        let insts = vec![
            Inst::int_rrr(IntOp::Div, int(1), int(2), int(3)).at(0x1000),
            Inst::int_rrr(IntOp::Add, int(4), int(5), int(6)).at(0x1004),
        ];
        let mut c = cpu(1, SimdIsa::Mmx);
        // Step true single cycles: the idle fast-forward would jump
        // straight over the divide's latency.
        c.set_fast_forward(false);
        c.attach_thread(0, Box::new(VecStream::new(insts)));
        // Run a few cycles: the add finishes fast but cannot commit alone.
        for _ in 0..6 {
            c.cycle();
        }
        assert_eq!(
            c.stats().committed(),
            0,
            "nothing commits before the divide resolves"
        );
        assert!(c.run_to_idle(1000));
        assert_eq!(c.stats().committed(), 2);
    }

    #[test]
    fn two_threads_beat_one_on_throughput() {
        let run = |threads: usize| {
            let mut c = cpu(threads, SimdIsa::Mmx);
            for t in 0..threads {
                // Dependent chains: single-thread IPC ≈ 1, leaving room.
                let insts: Vec<Inst> = (0..2000)
                    .map(|i| {
                        Inst::int_rrr(IntOp::Add, int(1), int(1), int(2))
                            .at(0x1000 + 4 * (i % 64) as u64)
                    })
                    .collect();
                c.attach_thread(t, Box::new(VecStream::new(insts)));
            }
            assert!(c.run_to_idle(1_000_000));
            c.stats().ipc()
        };
        let one = run(1);
        let two = run(2);
        assert!(
            two > one * 1.6,
            "SMT hides dependency stalls: {one} vs {two}"
        );
    }

    #[test]
    fn mom_stream_occupies_media_unit() {
        // Two independent full streams: ⌈16/2⌉ = 8 cycles each, serialized
        // on the single media unit.
        let insts = vec![
            Inst::mom(MomOp::VaddW, stream(0), stream(1), stream(2), 16).at(0x1000),
            Inst::mom(MomOp::VaddW, stream(3), stream(4), stream(5), 16).at(0x1004),
        ];
        let mut c = cpu(1, SimdIsa::Mom);
        c.attach_thread(0, Box::new(VecStream::new(insts)));
        assert!(c.run_to_idle(1000));
        assert!(
            c.stats().cycles >= 16,
            "two 8-cycle streams serialize: {}",
            c.stats().cycles
        );
        assert_eq!(c.stats().committed_equiv(), 32, "16 + 16 equivalent ops");
    }

    #[test]
    fn mmx_pair_issues_in_parallel() {
        let insts: Vec<Inst> = (0..512)
            .map(|i| {
                Inst::mmx(MmxOp::PaddW, simd((i % 12) as u8), simd(20), simd(21))
                    .at(0x1000 + 4 * (i % 32) as u64)
            })
            .collect();
        let mut c = cpu(1, SimdIsa::Mmx);
        c.attach_thread(0, Box::new(VecStream::new(insts)));
        assert!(c.run_to_idle(100_000));
        // 512 ops at 2/cycle ≥ 256 cycles, but well under serial 512.
        assert!(
            c.stats().cycles < 450,
            "MMX dual issue: {}",
            c.stats().cycles
        );
    }

    #[test]
    fn branch_mispredictions_are_counted_and_resolved() {
        // Alternating taken/not-taken pattern on one PC is hard for the
        // first iterations; the pipeline must keep making progress.
        let mut insts = Vec::new();
        for i in 0..200 {
            insts.push(Inst::int_rrr(IntOp::Add, int(1), int(2), int(3)).at(0x1000 + (i % 4) * 16));
            insts.push(
                Inst::branch(CtlOp::Bne, int(1), i % 3 == 0, 0x1000).at(0x1004 + (i % 4) * 16),
            );
        }
        let mut c = cpu(1, SimdIsa::Mmx);
        c.attach_thread(0, Box::new(VecStream::new(insts)));
        assert!(c.run_to_idle(1_000_000));
        assert_eq!(c.stats().committed(), 400);
        assert!(c.stats().threads[0].branches == 200);
        assert!(
            c.stats().threads[0].mispredicts > 0,
            "pattern must cost something"
        );
        assert!(c.stats().mispredict_rate() < 0.9);
    }

    #[test]
    fn memory_loads_flow_through_the_cache() {
        let insts: Vec<Inst> = (0..256)
            .map(|i| {
                Inst::load(
                    MemOp::LoadW,
                    int(1 + (i % 8) as u8),
                    int(10),
                    0x10_0000 + (i as u64) * 4,
                )
                .at(0x1000 + 4 * (i % 16) as u64)
            })
            .collect();
        let mut c = Cpu::new(
            CpuConfig::paper(1, SimdIsa::Mmx),
            MemSystem::new(MemConfig::paper()),
        );
        c.attach_thread(0, Box::new(VecStream::new(insts)));
        assert!(c.run_to_idle(1_000_000));
        assert_eq!(c.stats().committed(), 256);
        assert!(c.mem().l1d_stats().accesses() >= 256);
    }

    #[test]
    fn mom_stream_load_issues_elements_over_cycles() {
        let insts = vec![Inst::mom_load(stream(0), int(1), 0x10_0000, 8, 16).at(0x1000)];
        let mut c = Cpu::new(
            CpuConfig::paper(1, SimdIsa::Mom),
            MemSystem::new(MemConfig::paper()),
        );
        c.attach_thread(0, Box::new(VecStream::new(insts)));
        assert!(c.run_to_idle(100_000));
        assert_eq!(c.stats().committed(), 1);
        assert_eq!(c.stats().committed_equiv(), 16);
        // 16 element accesses through at most 4 ports/cycle ⇒ ≥ 4 cycles.
        assert!(c.stats().cycles >= 4);
    }

    #[test]
    fn attach_after_drain_reuses_context() {
        let mut c = cpu(1, SimdIsa::Mmx);
        c.attach_thread(0, Box::new(VecStream::new(independent_ints(10))));
        assert!(c.run_to_idle(10_000));
        assert!(c.thread_idle(0));
        c.attach_thread(0, Box::new(VecStream::new(independent_ints(10))));
        assert!(!c.all_idle());
        assert!(c.run_to_idle(10_000));
        assert_eq!(c.stats().committed(), 20);
    }

    #[test]
    #[should_panic(expected = "still busy")]
    fn attach_to_busy_context_panics() {
        let mut c = cpu(1, SimdIsa::Mmx);
        c.attach_thread(0, Box::new(VecStream::new(independent_ints(100))));
        c.cycle();
        c.cycle();
        c.attach_thread(0, Box::new(VecStream::new(independent_ints(1))));
    }

    #[test]
    fn setvl_serializes_following_stream_ops() {
        // SetVl writes r31; the stream op implicitly reads it.
        let insts = vec![
            Inst::new(Op::Mom(MomOp::SetVl))
                .with_dst(int(31))
                .with_imm(8)
                .at(0x1000),
            Inst::mom(MomOp::VaddW, stream(0), stream(1), stream(2), 8).at(0x1004),
        ];
        let mut c = cpu(1, SimdIsa::Mom);
        c.attach_thread(0, Box::new(VecStream::new(insts)));
        assert!(c.run_to_idle(1000));
        assert_eq!(c.stats().committed(), 2);
    }

    #[test]
    fn fast_forward_is_invisible() {
        // A latency-heavy mix under the real memory system (long DRAM
        // gaps ⇒ plenty of idle cycles to skip): every statistic must
        // be identical with the fast-forward on and off.
        let program = || -> Vec<Inst> {
            let mut insts = Vec::new();
            for i in 0..120u64 {
                insts.push(
                    Inst::load(
                        MemOp::LoadW,
                        int(1 + (i % 6) as u8),
                        int(10),
                        0x30_0000 + i * 512,
                    )
                    .at(0x1000 + 4 * (i % 32)),
                );
                insts.push(Inst::int_rrr(IntOp::Div, int(7), int(1), int(2)).at(0x1100));
                insts.push(Inst::int_rrr(IntOp::Add, int(8), int(7), int(7)).at(0x1104));
                insts.push(Inst::branch(CtlOp::Bne, int(8), i % 3 == 0, 0x1000).at(0x1108));
            }
            insts
        };
        let run = |fast_forward: bool| {
            let mut c = Cpu::new(
                CpuConfig::paper(2, SimdIsa::Mmx),
                MemSystem::new(MemConfig::paper()),
            );
            c.set_fast_forward(fast_forward);
            c.attach_thread(0, Box::new(VecStream::new(program())));
            c.attach_thread(1, Box::new(VecStream::new(program())));
            assert!(c.run_to_idle(1_000_000));
            (
                c.stats().clone(),
                c.mem().l1d_stats().accesses(),
                c.mem().stats().l1_latency_sum,
            )
        };
        let (slow, slow_l1, slow_lat) = run(false);
        let (fast, fast_l1, fast_lat) = run(true);
        assert!(
            slow.idle_cycles > 0,
            "the mix must actually have idle cycles"
        );
        assert_eq!(slow, fast, "fast-forward must not change any statistic");
        assert_eq!(slow_l1, fast_l1);
        assert_eq!(slow_lat, fast_lat);
    }

    #[test]
    fn equivalent_counting_matches_kind_buckets() {
        let insts = vec![
            Inst::int_rrr(IntOp::Add, int(1), int(2), int(3)).at(0x1000),
            Inst::mom(MomOp::VaddW, stream(0), stream(1), stream(2), 10).at(0x1004),
            Inst::mom_load(stream(3), int(1), 0x20_0000, 8, 12).at(0x1008),
        ];
        let mut c = cpu(1, SimdIsa::Mom);
        c.attach_thread(0, Box::new(VecStream::new(insts)));
        assert!(c.run_to_idle(10_000));
        assert_eq!(c.stats().committed_by_kind[0], 1);
        assert_eq!(c.stats().committed_by_kind[2], 10);
        assert_eq!(c.stats().committed_by_kind[3], 12);
        assert_eq!(c.stats().committed_equiv(), 23);
    }
}
