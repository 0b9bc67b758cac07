//! The assembled memory system: ports, banks, caches, MSHRs, write
//! buffers and DRAM behind one request interface.
//!
//! The CPU model calls [`MemSystem::request`] at issue time with the
//! current cycle; the reply carries the completion cycle, computed
//! through every contention point on the path. A request can instead be
//! rejected with a [`Stall`] (no free port, MSHRs exhausted, write buffer
//! full) in which case the CPU retries on a later cycle — exactly the
//! back-pressure the paper's §5.3 attributes the 8-thread slowdown to.
//!
//! Calls must be made with non-decreasing `now` values (the resource
//! reservation counters advance monotonically).
//!
//! A `MemSystem` is one core's view of the hierarchy: the L1 levels
//! (data and instruction caches, MSHRs, write buffer, ports, banks) are
//! owned privately, while the L2/DRAM levels live in an
//! [`L2Backend`](crate::backend::L2Backend) that is either owned
//! exclusively (the single-core case — exactly the pre-CMP layout) or
//! shared with the other cores of a CMP through
//! [`MemSystem::with_shared_backend`]. Sharing cores must serialize
//! their backend-touching calls (the machine layer's per-cycle bus
//! arbiter drains requests in fixed core order), preserving the
//! non-decreasing-`now` contract across the whole chip.

use crate::backend::{L2Backend, SharedL2};
use crate::cache::Cache;
use crate::config::{HierarchyKind, MemConfig};
use crate::mshr::{MshrFile, MshrOutcome};
use crate::stats::MemStats;
use crate::wbuf::{WriteBuffer, WriteOutcome};
use crate::Cycle;
use serde::{Deserialize, Serialize};

/// Classification of a data access, determining its path through the
/// hierarchy (scalar ports vs vector ports in the decoupled organization).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessKind {
    /// Scalar integer/FP load.
    ScalarLoad,
    /// Scalar integer/FP store.
    ScalarStore,
    /// Packed/stream load (MMX `ldq.m`, MOM `vld*`).
    VectorLoad,
    /// Packed/stream store.
    VectorStore,
    /// Software prefetch (no consumer waits on it).
    Prefetch,
}

impl AccessKind {
    /// Whether this access writes memory.
    #[must_use]
    pub const fn is_store(self) -> bool {
        matches!(self, AccessKind::ScalarStore | AccessKind::VectorStore)
    }

    /// Whether this access uses the vector path in the decoupled
    /// organization.
    #[must_use]
    pub const fn is_vector(self) -> bool {
        matches!(self, AccessKind::VectorLoad | AccessKind::VectorStore)
    }
}

/// One data access request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemRequest {
    /// Requesting hardware thread (statistics only).
    pub tid: u8,
    /// Effective virtual address.
    pub addr: u64,
    /// Access size in bytes.
    pub size: u8,
    /// Access classification.
    pub kind: AccessKind,
}

/// A successfully issued request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemReply {
    /// Cycle at which the value is available (loads) or the store is
    /// globally performed enough to retire.
    pub done_at: Cycle,
    /// Whether the access hit in the first cache it consulted.
    pub l1_hit: bool,
}

/// One strided multi-element (vector/stream) access request: the whole
/// element group a stream memory instruction wants to issue this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamRequest {
    /// Requesting hardware thread (statistics only).
    pub tid: u8,
    /// Effective address of the first element in this group.
    pub base: u64,
    /// Byte distance between consecutive elements.
    pub stride: i64,
    /// Elements to attempt in this call (the caller caps it by its
    /// per-cycle issue budget).
    pub count: u8,
    /// Size of each element access in bytes.
    pub size: u8,
    /// Access classification (applies to every element).
    pub kind: AccessKind,
}

impl StreamRequest {
    /// The `i`-th element as a single-access request.
    #[must_use]
    fn elem(&self, i: u8) -> MemRequest {
        MemRequest {
            tid: self.tid,
            addr: (self.base as i64).wrapping_add(self.stride.wrapping_mul(i64::from(i))) as u64,
            size: self.size,
            kind: self.kind,
        }
    }
}

/// Outcome of a [`MemSystem::request_stream`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamReply {
    /// Elements accepted this cycle (a prefix of the request).
    pub issued: u8,
    /// Latest completion cycle among the accepted elements (`0` when
    /// none were accepted).
    pub done_at: Cycle,
    /// Why issuing stopped before `count` elements, if it did.
    pub stall: Option<Stall>,
}

/// Reasons a request could not be accepted this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stall {
    /// Every suitable memory port is busy this cycle.
    PortBusy,
    /// All MSHRs are in flight; the miss cannot be tracked.
    MshrFull,
    /// The coalescing write buffer is full.
    WriteBufferFull,
}

impl core::fmt::Display for Stall {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            Stall::PortBusy => "all memory ports busy",
            Stall::MshrFull => "MSHRs exhausted",
            Stall::WriteBufferFull => "write buffer full",
        };
        f.write_str(s)
    }
}

impl std::error::Error for Stall {}

/// Widest port pool the inline reservation array holds. The paper's
/// widest is 4 (conventional general-purpose ports); 8 leaves sweep
/// headroom without growing the struct past one cache line.
const MAX_PORTS: usize = 8;

/// A pool of identical memory ports as an inline fixed array of
/// busy-until cycles — no heap indirection on the per-access claim
/// path (the seed kept these in `Vec<Cycle>`s).
#[derive(Debug, Clone, Copy)]
struct PortSet {
    busy_until: [Cycle; MAX_PORTS],
    len: u8,
}

impl PortSet {
    fn new(n: usize) -> Self {
        assert!(n <= MAX_PORTS, "port pools are at most {MAX_PORTS} wide");
        #[allow(clippy::cast_possible_truncation)]
        PortSet {
            busy_until: [0; MAX_PORTS],
            len: n as u8,
        }
    }

    #[inline]
    fn slots(&self) -> &[Cycle] {
        &self.busy_until[..usize::from(self.len)]
    }

    /// Whether any port is free at `now`.
    #[inline]
    fn any_free(&self, now: Cycle) -> bool {
        self.slots().iter().any(|&p| p <= now)
    }

    /// Ports still free at `now`.
    #[inline]
    fn free_count(&self, now: Cycle) -> usize {
        self.slots().iter().filter(|&&p| p <= now).count()
    }

    /// Claim the first free port (busy until `now + 1`). Returns whether
    /// one was free.
    #[inline]
    fn claim(&mut self, now: Cycle) -> bool {
        for p in &mut self.busy_until[..usize::from(self.len)] {
            if *p <= now {
                *p = now + 1;
                return true;
            }
        }
        false
    }

    /// Claim `n` ports at once: identical final state to `n` sequential
    /// [`PortSet::claim`] calls at the same cycle.
    #[inline]
    fn claim_bulk(&mut self, now: Cycle, n: usize) {
        let mut left = n;
        for p in &mut self.busy_until[..usize::from(self.len)] {
            if left == 0 {
                break;
            }
            if *p <= now {
                *p = now + 1;
                left -= 1;
            }
        }
        debug_assert_eq!(left, 0, "bulk claim exceeded the free-port count");
    }
}

/// The L2/DRAM levels behind one core's private levels: owned
/// exclusively (single core — a zero-overhead match) or shared with the
/// other cores of a CMP (serialized by the machine layer's bus
/// arbiter).
#[derive(Debug)]
enum Backend {
    Owned(Box<L2Backend>),
    Shared(SharedL2),
}

/// One core's view of the full memory hierarchy: private L1 levels plus
/// an owned or shared L2/DRAM backend.
#[derive(Debug)]
pub struct MemSystem {
    config: MemConfig,
    l1d: Cache,
    l1i: Cache,
    d_mshrs: MshrFile,
    v_mshrs: MshrFile,
    i_mshrs: MshrFile,
    wbuf: WriteBuffer,
    general_ports: PortSet,
    scalar_ports: PortSet,
    vector_ports: PortSet,
    l1d_banks: Box<[Cycle]>,
    l1i_banks: Box<[Cycle]>,
    backend: Backend,
    /// Observability lane (core index in a CMP) this system's trace
    /// events report under; cosmetic, never read by the timing model.
    obs_lane: u32,
    stats: MemStats,
}

impl MemSystem {
    /// Build the memory system from a configuration, owning its
    /// L2/DRAM backend exclusively (the single-core case).
    #[must_use]
    pub fn new(config: MemConfig) -> Self {
        let backend = Backend::Owned(Box::new(L2Backend::new(&config)));
        MemSystem::assemble(config, backend)
    }

    /// Build one core's memory system over a **shared** L2/DRAM backend
    /// (the CMP case). The caller is responsible for serializing the
    /// cores' backend-touching calls in a deterministic order with
    /// non-decreasing cycles — the machine layer's per-cycle bus
    /// arbiter does exactly that.
    #[must_use]
    pub fn with_shared_backend(config: MemConfig, backend: SharedL2) -> Self {
        MemSystem::assemble(config, Backend::Shared(backend))
    }

    fn assemble(config: MemConfig, backend: Backend) -> Self {
        MemSystem {
            l1d: Cache::new(config.l1d),
            l1i: Cache::new(config.l1i),
            d_mshrs: MshrFile::new(config.mshrs),
            v_mshrs: MshrFile::new(config.mshrs),
            i_mshrs: MshrFile::new(config.mshrs),
            // The write buffer drains one entry per L2-bank occupancy
            // slot (2 cycles), not a full L2 access — stores are fire
            // and forget once buffered.
            wbuf: WriteBuffer::new(config.write_buffer_depth, 2),
            general_ports: PortSet::new(config.general_ports),
            scalar_ports: PortSet::new(config.scalar_ports),
            vector_ports: PortSet::new(config.vector_ports),
            l1d_banks: vec![0; config.l1d.banks].into_boxed_slice(),
            l1i_banks: vec![0; config.l1i.banks].into_boxed_slice(),
            backend,
            obs_lane: 0,
            stats: MemStats::default(),
            config,
        }
    }

    /// Set the observability lane (core index) this memory system's
    /// trace events report under. Purely cosmetic for the event trace;
    /// the timing model never reads it.
    pub fn set_obs_lane(&mut self, lane: u32) {
        self.obs_lane = lane;
    }

    /// Write-buffer occupancy at `now` as `(entries, capacity)` —
    /// interval-sampler fodder. Retires already-drained entries first,
    /// which the next store admission would do anyway.
    pub fn wbuf_occupancy(&mut self, now: Cycle) -> (usize, usize) {
        (self.wbuf.occupancy(now), self.wbuf.capacity())
    }

    /// Scalar-data MSHR occupancy at `now` as `(outstanding misses,
    /// capacity)` — interval-sampler fodder.
    pub fn dmshr_occupancy(&mut self, now: Cycle) -> (usize, usize) {
        (self.d_mshrs.outstanding(now), self.d_mshrs.capacity())
    }

    /// Run `f` over the (owned or shared) backend.
    fn with_backend<R>(&mut self, f: impl FnOnce(&mut L2Backend) -> R) -> R {
        match &mut self.backend {
            Backend::Owned(b) => f(b),
            Backend::Shared(m) => f(&mut m.lock().expect("L2 backend poisoned")),
        }
    }

    /// Run `f` over the backend read-only.
    fn backend_ref<R>(&self, f: impl FnOnce(&L2Backend) -> R) -> R {
        match &self.backend {
            Backend::Owned(b) => f(b),
            Backend::Shared(m) => f(&m.lock().expect("L2 backend poisoned")),
        }
    }

    /// The L2-line-aligned address of `addr` (pure geometry — no
    /// backend access).
    fn l2_line_addr(&self, addr: u64) -> u64 {
        addr & !(self.config.l2.line_bytes - 1)
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &MemConfig {
        &self.config
    }

    /// Aggregate statistics: the core-private counters merged with the
    /// backend-side ones (L2 bank conflicts, L2 MSHR exhaustion, DRAM
    /// traffic). With a shared backend the latter cover the whole chip,
    /// so sum the *private* sides across cores and add the backend once.
    #[must_use]
    pub fn stats(&self) -> MemStats {
        self.stats.merged(&self.backend_ref(L2Backend::stats))
    }

    /// Core-private counters only (excludes the L2/DRAM backend side) —
    /// what a CMP sums per core before adding the shared backend once.
    #[must_use]
    pub fn private_stats(&self) -> MemStats {
        self.stats
    }

    /// Backend-side counters only (see [`MemSystem::stats`]).
    #[must_use]
    pub fn backend_stats(&self) -> MemStats {
        self.backend_ref(L2Backend::stats)
    }

    /// L1 data-cache statistics (Table 4's "L1 hit rate" row).
    #[must_use]
    pub fn l1d_stats(&self) -> &crate::stats::CacheStats {
        self.l1d.stats()
    }

    /// Instruction-cache statistics (Table 4's "I hit rate" row).
    #[must_use]
    pub fn l1i_stats(&self) -> &crate::stats::CacheStats {
        self.l1i.stats()
    }

    /// L2 statistics (chip-wide when the backend is shared).
    #[must_use]
    pub fn l2_stats(&self) -> crate::stats::CacheStats {
        self.backend_ref(L2Backend::l2_stats)
    }

    /// DRAM statistics (chip-wide when the backend is shared).
    #[must_use]
    pub fn dram_stats(&self) -> crate::dram::DramStats {
        self.backend_ref(L2Backend::dram_stats)
    }

    /// Instruction fetch of one cache line for thread `tid`. Returns the
    /// cycle the line is available. The fetch engine has a dedicated path
    /// into the banked I-cache, so fetches never compete for data ports.
    pub fn ifetch(&mut self, now: Cycle, _tid: u8, addr: u64) -> Cycle {
        if self.config.hierarchy == HierarchyKind::Ideal {
            return now + 1;
        }
        let bank = self.l1i.bank_of(addr);
        let start = self.l1i_banks[bank].max(now);
        self.l1i_banks[bank] = start + 1;
        let line = self.l1i.line_addr(addr);
        let acc = self.l1i.access(start, addr, false);
        if acc.hit {
            return start + self.config.l1_latency;
        }
        if medsim_obs::tracing() {
            medsim_obs::emit(start, self.obs_lane, medsim_obs::EventKind::L1Miss, addr);
        }
        if let Some(ready) = acc.pending {
            return ready.max(start + self.config.l1_latency);
        }
        match self.i_mshrs.register(start, line) {
            MshrOutcome::Coalesced(t) => t,
            MshrOutcome::Full => {
                // The fetch engine simply retries; model as waiting out a
                // full L2 round-trip.
                self.stats.mshr_full_stalls += 1;
                start + self.config.l2_latency + self.config.l1_latency
            }
            MshrOutcome::Allocated => {
                let fill = self.access_l2(start + self.config.l1_latency, line, false);
                self.i_mshrs.set_fill_time(line, fill);
                self.l1i.set_fill_time(line, fill);
                fill
            }
        }
    }

    /// Access the L2 for a full line fill (L1 misses, I-misses).
    fn access_l2(&mut self, at: Cycle, addr: u64, is_store: bool) -> Cycle {
        let bytes = self.config.l1d.line_bytes;
        self.with_backend(|b| b.access_sized(at, addr, is_store, bytes))
    }

    /// Issue a data access. `now` is the issue cycle; calls must use
    /// non-decreasing `now`.
    ///
    /// # Errors
    ///
    /// Returns a [`Stall`] when no port is free, the MSHRs are exhausted
    /// (load miss) or the write buffer is full (store).
    pub fn request(&mut self, now: Cycle, req: MemRequest) -> Result<MemReply, Stall> {
        if self.config.hierarchy == HierarchyKind::Ideal {
            self.stats.l1_accesses += 1;
            self.stats.l1_latency_sum += 1;
            return Ok(MemReply {
                done_at: now + 1,
                l1_hit: true,
            });
        }
        let use_vector_path =
            self.config.hierarchy == HierarchyKind::Decoupled && req.kind.is_vector();
        if use_vector_path {
            self.vector_request(now, req)
        } else {
            self.l1_request(now, req)
        }
    }

    /// Whether a port of the right kind is free at `now` (lets the CPU
    /// check before committing issue slots).
    #[must_use]
    pub fn port_available(&self, now: Cycle, kind: AccessKind) -> bool {
        self.ports_for(kind).any_free(now)
    }

    fn ports_for(&self, kind: AccessKind) -> &PortSet {
        match self.config.hierarchy {
            HierarchyKind::Ideal | HierarchyKind::Conventional => &self.general_ports,
            HierarchyKind::Decoupled => {
                if kind.is_vector() {
                    &self.vector_ports
                } else {
                    &self.scalar_ports
                }
            }
        }
    }

    fn ports_for_mut(&mut self, kind: AccessKind) -> &mut PortSet {
        match self.config.hierarchy {
            HierarchyKind::Ideal | HierarchyKind::Conventional => &mut self.general_ports,
            HierarchyKind::Decoupled => {
                if kind.is_vector() {
                    &mut self.vector_ports
                } else {
                    &mut self.scalar_ports
                }
            }
        }
    }

    fn claim_port(&mut self, now: Cycle, kind: AccessKind) -> Result<(), Stall> {
        if self.ports_for_mut(kind).claim(now) {
            Ok(())
        } else {
            Err(Stall::PortBusy)
        }
    }

    /// Ports of the right kind still free at `now`.
    fn ports_free_count(&self, now: Cycle, kind: AccessKind) -> usize {
        self.ports_for(kind).free_count(now)
    }

    /// Claim `n` ports at once: identical final state to `n` sequential
    /// [`MemSystem::claim_port`] calls at the same cycle (each claim
    /// takes the first free port and busies it until `now + 1`).
    fn claim_ports_bulk(&mut self, now: Cycle, kind: AccessKind, n: usize) {
        self.ports_for_mut(kind).claim_bulk(now, n);
    }

    /// Issue one stream memory instruction's element group for this
    /// cycle in a single call: semantically **identical** to calling
    /// [`MemSystem::request`] once per element (same completion cycles,
    /// same statistics, same stall behavior, bit for bit — the
    /// differential suite enforces it), but with the per-element
    /// overheads amortized per touched cache line. Elements that stay
    /// within the line the previous element already walked skip the tag
    /// walk, MSHR scan, write-buffer scan and per-element port scan; the
    /// first element of each line pays the full path. Issuing stops at
    /// the first back-pressure stall, which is reported in the reply
    /// exactly as `request` would have returned it.
    pub fn request_stream(&mut self, now: Cycle, req: StreamRequest) -> StreamReply {
        if self.config.hierarchy == HierarchyKind::Ideal {
            self.stats.l1_accesses += u64::from(req.count);
            self.stats.l1_latency_sum += u64::from(req.count);
            return StreamReply {
                issued: req.count,
                done_at: if req.count == 0 { 0 } else { now + 1 },
                stall: None,
            };
        }
        let use_vector_path =
            self.config.hierarchy == HierarchyKind::Decoupled && req.kind.is_vector();
        if use_vector_path {
            return self.vector_request_stream(now, req);
        }
        if req.kind.is_store() {
            // Through-L1 store admission rides on write-buffer drain
            // timing element by element; the batched fast path covers
            // the latency-critical load side. Delegate faithfully.
            let mut reply = StreamReply {
                issued: 0,
                done_at: 0,
                stall: None,
            };
            for i in 0..req.count {
                match self.l1_request(now, req.elem(i)) {
                    Ok(r) => {
                        reply.issued += 1;
                        reply.done_at = reply.done_at.max(r.done_at);
                    }
                    Err(e) => {
                        reply.stall = Some(e);
                        break;
                    }
                }
            }
            return reply;
        }
        self.l1_request_stream(now, req)
    }

    /// [`MemSystem::request_stream`] for the decoupled vector-fetch
    /// unit's run-ahead requests. Timing-identical to the demand path —
    /// a run-ahead element is the *same* access, just issued earlier —
    /// with one admission difference: on MSHR-tracked paths the unit
    /// must **coexist with scalar traffic**, so it keeps one MSHR of
    /// headroom free for demand misses. When the relevant file is down
    /// to its last free entry the request is held (an `MshrFull` stall
    /// the pipeline retries next cycle) instead of racing demand loads
    /// for it. Loads only — stores are never issued ahead.
    pub fn request_stream_runahead(&mut self, now: Cycle, req: StreamRequest) -> StreamReply {
        debug_assert!(!req.kind.is_store(), "run-ahead never issues stores");
        let mshr_tracked = match self.config.hierarchy {
            // Ideal has no MSHRs; the decoupled vector path goes
            // straight to L2 without touching the L1 miss machinery.
            HierarchyKind::Ideal => false,
            HierarchyKind::Decoupled if req.kind.is_vector() => false,
            _ => true,
        };
        if mshr_tracked {
            let mshrs = if req.kind.is_vector() {
                &mut self.v_mshrs
            } else {
                &mut self.d_mshrs
            };
            let free = mshrs.capacity().saturating_sub(mshrs.outstanding(now));
            if free <= 1 {
                self.stats.runahead_mshr_holds += 1;
                return StreamReply {
                    issued: 0,
                    done_at: 0,
                    stall: Some(Stall::MshrFull),
                };
            }
        }
        let reply = self.request_stream(now, req);
        self.stats.runahead_elems += u64::from(reply.issued);
        reply
    }

    /// Batched through-L1 loads/prefetches: one full reference-path
    /// access per touched line, then the rest of that line's run in
    /// bulk arithmetic. A repeat access is fully determined by the
    /// line's fill time (`hit` once it has passed, delayed hit before —
    /// both count as cache hits) and its bank-arbitrated start, which
    /// advances by exactly one slot per element; the LRU/statistics
    /// effects of the whole run collapse into one `retouch_many` and
    /// one write-buffer retirement sweep.
    fn l1_request_stream(&mut self, now: Cycle, req: StreamRequest) -> StreamReply {
        debug_assert!(!req.kind.is_store());
        let lat = self.config.l1_latency;
        let track_stats = req.kind != AccessKind::Prefetch;
        let mut avail = self.ports_free_count(now, req.kind);
        let mut used = 0usize;
        let mut reply = StreamReply {
            issued: 0,
            done_at: 0,
            stall: None,
        };
        let mut i = 0u8;
        while i < req.count {
            // First element of a line: the full reference path —
            // admission (stats on rejection), port, bank, selective
            // flush, tag walk, miss handling.
            let r = req.elem(i);
            if let Err(e) = self.l1_admission(now, r) {
                reply.stall = Some(e);
                break;
            }
            if avail == 0 {
                reply.stall = Some(Stall::PortBusy);
                break;
            }
            avail -= 1;
            used += 1;
            let elem_reply = self.l1_data_access(now, r);
            reply.issued += 1;
            reply.done_at = reply.done_at.max(elem_reply.done_at);
            i += 1;
            // Length of the same-line run that follows.
            let line = self.l1d.line_addr(r.addr);
            let mut run = 0u8;
            while i + run < req.count && self.l1d.line_addr(req.elem(i + run).addr) == line {
                run += 1;
            }
            if run == 0 {
                continue;
            }
            let k = u64::from(run).min(avail as u64);
            if k > 0 {
                // The k repeats start at consecutive bank slots s, s+1,
                // …: the first element already pushed the bank counter
                // past `now`, so every one of them is a bank conflict —
                // exactly as the per-element walk would count them.
                let ready_at = self.l1d.fill_time_of(r.addr).expect("line just accessed");
                let bank = self.l1d.bank_of(r.addr);
                let s = self.l1d_banks[bank].max(now);
                debug_assert!(s > now);
                self.stats.bank_conflicts += k;
                self.l1d_banks[bank] = s + k;
                // The per-element selective-flush scans find nothing
                // (the first touch flushed or found nothing), but their
                // retirement sweeps are observable state: the last one
                // subsumes the rest.
                self.wbuf.retire_until(s + k - 1);
                self.l1d.retouch_many(r.addr, false, k);
                for t in 0..k {
                    // hit once ready_at <= start (done = start + lat);
                    // delayed hit before that (done = fill time).
                    let done = ready_at.max(s + t + lat);
                    if track_stats {
                        self.stats.l1_accesses += 1;
                        self.stats.l1_latency_sum += done - now;
                    }
                    reply.done_at = reply.done_at.max(done);
                }
                #[allow(clippy::cast_possible_truncation)]
                {
                    reply.issued += k as u8;
                    i += k as u8;
                }
                avail -= k as usize;
                used += k as usize;
            }
            if k < u64::from(run) {
                // The next repeat would have found every port busy.
                reply.stall = Some(Stall::PortBusy);
                break;
            }
        }
        if used > 0 {
            self.claim_ports_bulk(now, req.kind, used);
        }
        reply
    }

    /// Batched decoupled vector accesses (loads and stores): the L2 tag
    /// walk, coherence probe and write-buffer scan are per-line; repeat
    /// elements pay only the L2 bank slot and LRU/dirty bookkeeping.
    fn vector_request_stream(&mut self, now: Cycle, req: StreamRequest) -> StreamReply {
        let is_store = req.kind.is_store();
        let mut avail = self.ports_free_count(now, req.kind);
        let mut used = 0usize;
        // (L1 line, L2 line, L2 fill time, L2 bank) of the previous element.
        let mut memo: Option<(u64, u64, Cycle, usize)> = None;
        let mut reply = StreamReply {
            issued: 0,
            done_at: 0,
            stall: None,
        };
        for i in 0..req.count {
            let r = req.elem(i);
            let l1_line = self.l1d.line_addr(r.addr);
            let l2_line = self.l2_line_addr(r.addr);
            if avail == 0 {
                reply.stall = Some(Stall::PortBusy);
                break;
            }
            avail -= 1;
            used += 1;
            let same_l2 = memo.is_some_and(|(_, l2, _, _)| l2 == l2_line);
            let done = if let (true, Some((prev_l1, _, ready_at, bank))) = (same_l2, memo) {
                self.stats.vector_bypasses += 1;
                let mut start = now;
                if prev_l1 != l1_line {
                    // Crossed into a new L1 line within the same L2
                    // line: the coherence probe and selective flush are
                    // keyed on L1 lines, so they run for real.
                    if self.l1d.probe(r.addr) {
                        self.l1d.invalidate(r.addr);
                        self.stats.coherence_invalidation += 1;
                        start += self.config.coherence_probe_penalty;
                    }
                    if let Some(ready) = self.wbuf.selective_flush(start, l1_line) {
                        self.stats.selective_flushes += 1;
                        start = start.max(ready);
                    }
                    memo = Some((l1_line, l2_line, ready_at, bank));
                } else {
                    // Same L1 line as the previous element: the flush
                    // scan finds nothing, but replicate its retirement.
                    self.wbuf.retire_until(start);
                }
                // The L2 side of the sized access on a resident line:
                // bank slot, LRU/dirty touch, hit or delayed hit.
                self.with_backend(|b| {
                    b.repeat_access(start, r.addr, is_store, req.size, ready_at, bank)
                })
            } else {
                let elem_reply = self.vector_data_access(now, r);
                let (ready_at, bank) = self.with_backend(|b| {
                    (
                        b.fill_time_of(r.addr).expect("access allocates the line"),
                        b.bank_of(r.addr),
                    )
                });
                memo = Some((l1_line, l2_line, ready_at, bank));
                elem_reply.done_at
            };
            reply.issued += 1;
            reply.done_at = reply.done_at.max(done);
        }
        if used > 0 {
            self.claim_ports_bulk(now, req.kind, used);
        }
        reply
    }

    /// The normal (through-L1) data path.
    fn l1_request(&mut self, now: Cycle, req: MemRequest) -> Result<MemReply, Stall> {
        self.l1_admission(now, req)?;
        self.claim_port(now, req.kind)?;
        Ok(self.l1_data_access(now, req))
    }

    /// Admission checks for the through-L1 path, made before any state
    /// is mutated (back-pressure stalls the requester, stats included).
    fn l1_admission(&mut self, now: Cycle, req: MemRequest) -> Result<(), Stall> {
        let line = self.l1d.line_addr(req.addr);
        if req.kind.is_store() {
            if !self.wbuf_would_accept(now, line) {
                self.stats.write_buffer_full_stalls += 1;
                return Err(Stall::WriteBufferFull);
            }
        } else if !self.l1d.probe(req.addr)
            && self.mshr_would_reject(now, line, req.kind.is_vector())
        {
            self.stats.mshr_full_stalls += 1;
            return Err(Stall::MshrFull);
        }
        Ok(())
    }

    /// The through-L1 access proper: everything [`MemSystem::l1_request`]
    /// does after admission and port claim.
    fn l1_data_access(&mut self, now: Cycle, req: MemRequest) -> MemReply {
        let line = self.l1d.line_addr(req.addr);
        let is_store = req.kind.is_store();

        // Bank arbitration.
        let bank = self.l1d.bank_of(req.addr);
        let mut start = self.l1d_banks[bank].max(now);
        if start > now {
            self.stats.bank_conflicts += 1;
        }
        self.l1d_banks[bank] = start + 1;

        if is_store {
            match self.wbuf.push(start, line) {
                WriteOutcome::Full => unreachable!("admission checked"),
                WriteOutcome::Coalesced => self.stats.write_coalesced += 1,
                WriteOutcome::Accepted => {
                    // Write-through traffic drains into the L2: each
                    // buffered line consumes an L2 bank slot, contending
                    // with read misses. This is the bandwidth wall the
                    // decoupled hierarchy's port split alleviates (§5.4).
                    self.with_backend(|b| b.store_drain_slot(line, start));
                }
            }
            // Write-through: update L1 if present (no allocate on miss).
            let _ = self.l1d.access(start, req.addr, true);
            let done = start + self.config.l1_latency;
            return MemReply {
                done_at: done,
                l1_hit: true,
            };
        }

        // Loads must see buffered stores to the same line: selective flush.
        if let Some(ready) = self.wbuf.selective_flush(start, line) {
            self.stats.selective_flushes += 1;
            start = start.max(ready);
        }

        let lookup = self.l1d.access(start, req.addr, false);
        if medsim_obs::tracing() && !lookup.hit {
            medsim_obs::emit(
                start,
                self.obs_lane,
                medsim_obs::EventKind::L1Miss,
                req.addr,
            );
        }
        let done = if lookup.hit {
            start + self.config.l1_latency
        } else if let Some(ready) = lookup.pending {
            ready.max(start + self.config.l1_latency)
        } else {
            // Vector fills run through their own MSHRs (the stream
            // engine's fill path), so a long stream of misses cannot
            // starve scalar miss handling.
            let mshrs = if req.kind.is_vector() {
                &mut self.v_mshrs
            } else {
                &mut self.d_mshrs
            };
            match mshrs.register(start, line) {
                MshrOutcome::Coalesced(t) => t.max(start + self.config.l1_latency),
                MshrOutcome::Full => unreachable!("admission checked"),
                MshrOutcome::Allocated => {
                    let fill = self.access_l2(start + self.config.l1_latency, line, false);
                    let mshrs = if req.kind.is_vector() {
                        &mut self.v_mshrs
                    } else {
                        &mut self.d_mshrs
                    };
                    mshrs.set_fill_time(line, fill);
                    self.l1d.set_fill_time(line, fill);
                    fill
                }
            }
        };
        if req.kind != AccessKind::Prefetch {
            self.stats.l1_accesses += 1;
            self.stats.l1_latency_sum += done - now;
        }
        MemReply {
            done_at: done,
            l1_hit: lookup.hit,
        }
    }

    /// The decoupled vector path: bypass L1, access L2 directly through
    /// the vector ports and crossbar, keeping coherence with the
    /// exclusive-bit policy.
    fn vector_request(&mut self, now: Cycle, req: MemRequest) -> Result<MemReply, Stall> {
        self.claim_port(now, req.kind)?;
        Ok(self.vector_data_access(now, req))
    }

    /// The decoupled vector access proper: everything
    /// [`MemSystem::vector_request`] does after the port claim.
    fn vector_data_access(&mut self, now: Cycle, req: MemRequest) -> MemReply {
        self.stats.vector_bypasses += 1;
        let line = self.l1d.line_addr(req.addr);
        let mut start = now;

        // Exclusive-bit coherence: if L1 may hold the line, probe and
        // invalidate it (write-through L1 ⇒ L2/write-buffer has the data).
        if self.l1d.probe(req.addr) {
            self.l1d.invalidate(req.addr);
            self.stats.coherence_invalidation += 1;
            start += self.config.coherence_probe_penalty;
        }
        // Buffered scalar stores to the line must drain first.
        if let Some(ready) = self.wbuf.selective_flush(start, line) {
            self.stats.selective_flushes += 1;
            start = start.max(ready);
        }

        let is_store = req.kind.is_store();
        let bytes = u64::from(req.size);
        let done = self.with_backend(|b| b.access_sized(start, req.addr, is_store, bytes));
        let hit_l2 = done <= start + self.config.l2_latency + 2;
        MemReply {
            done_at: done,
            l1_hit: hit_l2,
        }
    }

    fn wbuf_would_accept(&mut self, now: Cycle, line: u64) -> bool {
        // Coalescing writes are always accepted; otherwise a slot is needed.
        self.wbuf.occupancy(now) < self.wbuf.capacity() || {
            // occupancy() already retired entries; re-push probing is not
            // available, so test coalescing via a selective peek: pushing
            // is safe because a Coalesced outcome does not take a slot.
            matches!(self.wbuf.push(now, line), WriteOutcome::Coalesced)
        }
    }

    fn mshr_would_reject(&mut self, now: Cycle, line: u64, vector: bool) -> bool {
        let mshrs = if vector {
            &mut self.v_mshrs
        } else {
            &mut self.d_mshrs
        };
        if mshrs.outstanding(now) < mshrs.capacity() {
            return false;
        }
        // Full, but a coalescing miss is still acceptable.
        !matches!(mshrs.register(now, line), MshrOutcome::Coalesced(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys(h: HierarchyKind) -> MemSystem {
        MemSystem::new(MemConfig::paper_with(h))
    }

    fn load(addr: u64) -> MemRequest {
        MemRequest {
            tid: 0,
            addr,
            size: 8,
            kind: AccessKind::ScalarLoad,
        }
    }

    fn store(addr: u64) -> MemRequest {
        MemRequest {
            tid: 0,
            addr,
            size: 8,
            kind: AccessKind::ScalarStore,
        }
    }

    fn vload(addr: u64) -> MemRequest {
        MemRequest {
            tid: 0,
            addr,
            size: 8,
            kind: AccessKind::VectorLoad,
        }
    }

    #[test]
    fn ideal_memory_single_cycle() {
        let mut m = sys(HierarchyKind::Ideal);
        for i in 0..100 {
            let r = m.request(i, load(i * 4096)).unwrap();
            assert_eq!(r.done_at, i + 1);
            assert!(r.l1_hit);
        }
        assert_eq!(m.stats().avg_l1_latency(), 1.0);
    }

    #[test]
    fn cold_miss_then_warm_hit() {
        let mut m = sys(HierarchyKind::Conventional);
        let miss = m.request(0, load(0x10000)).unwrap();
        assert!(!miss.l1_hit);
        assert!(
            miss.done_at > 50,
            "cold miss goes to DRAM: {}",
            miss.done_at
        );
        let hit = m.request(miss.done_at, load(0x10000)).unwrap();
        assert!(hit.l1_hit);
        assert_eq!(hit.done_at, miss.done_at + 1);
    }

    #[test]
    fn l2_hit_is_cheaper_than_dram() {
        let mut m = sys(HierarchyKind::Conventional);
        let a = m.request(0, load(0x20000)).unwrap(); // DRAM
                                                      // A different L1 set mapping to the same L2 line: 0x20000 + 32
                                                      // shares the L2 128B line but is a different L1 32B line.
        let b = m.request(a.done_at, load(0x20020)).unwrap();
        assert!(!b.l1_hit);
        assert!(
            b.done_at - a.done_at < a.done_at,
            "L2 hit: {} vs {}",
            b.done_at - a.done_at,
            a.done_at
        );
    }

    #[test]
    fn port_limit_enforced() {
        let mut m = sys(HierarchyKind::Conventional);
        let n_ports = m.config().general_ports;
        let mut issued = 0;
        for i in 0..8 {
            if m.request(0, load(0x1000 + i * 32)).is_ok() {
                issued += 1;
            }
        }
        assert_eq!(issued, n_ports, "only {n_ports} requests per cycle");
        // Next cycle the ports are free again.
        assert!(m.request(1, load(0x9000)).is_ok());
    }

    #[test]
    fn bank_conflicts_detected() {
        let mut m = sys(HierarchyKind::Conventional);
        // Same L1 bank: same line twice in one cycle (second waits).
        let a = m.request(0, load(0x4000)).unwrap();
        let _ = a;
        let before = m.stats().bank_conflicts;
        let _ = m.request(0, load(0x4000 + 256)).unwrap(); // 8 banks × 32B = 256 stride → same bank
        assert!(m.stats().bank_conflicts > before);
    }

    #[test]
    fn mshr_exhaustion_stalls() {
        let mut m = sys(HierarchyKind::Conventional);
        let mshrs = m.config().mshrs;
        let mut stalled = false;
        // Issue misses to distinct lines over several cycles so ports are
        // not the limit; lines are distinct so no coalescing.
        let mut issued = 0;
        for i in 0..(mshrs + 4) {
            let addr = 0x100_0000 + (i as u64) * 4096;
            match m.request(i as u64, load(addr)) {
                Ok(_) => issued += 1,
                Err(Stall::MshrFull) => {
                    stalled = true;
                    break;
                }
                Err(_) => {}
            }
        }
        assert!(stalled, "issued {issued} misses without MSHR back-pressure");
        assert!(m.stats().mshr_full_stalls > 0);
    }

    #[test]
    fn same_line_misses_coalesce_without_new_mshr() {
        let mut m = sys(HierarchyKind::Conventional);
        let a = m.request(0, load(0x50000)).unwrap();
        let b = m.request(1, load(0x50008)).unwrap(); // same 32B line
        assert!(!b.l1_hit);
        assert!(
            b.done_at <= a.done_at,
            "coalesced fill: {} vs {}",
            b.done_at,
            a.done_at
        );
        assert_eq!(m.stats().dram_reads, 1, "one line fetch serves both");
    }

    #[test]
    fn write_buffer_fills_under_store_burst() {
        let mut m = sys(HierarchyKind::Conventional);
        let mut full_seen = false;
        let mut cycle = 0;
        for i in 0..64u64 {
            match m.request(cycle, store(0x8000 + i * 64)) {
                Ok(_) => {}
                Err(Stall::WriteBufferFull) => {
                    full_seen = true;
                    break;
                }
                Err(Stall::PortBusy) => cycle += 1,
                Err(e) => panic!("unexpected stall {e:?}"),
            }
            // two stores per cycle keeps ports available but outruns drain
            if i % 2 == 1 {
                cycle += 1;
            }
        }
        assert!(full_seen, "write buffer should fill under a store burst");
    }

    #[test]
    fn stores_to_same_line_coalesce() {
        let mut m = sys(HierarchyKind::Conventional);
        m.request(0, store(0x6000)).unwrap();
        m.request(1, store(0x6008)).unwrap();
        assert_eq!(m.stats().write_coalesced, 1);
    }

    #[test]
    fn load_after_store_selectively_flushes() {
        let mut m = sys(HierarchyKind::Conventional);
        m.request(0, store(0x7000)).unwrap();
        let r = m.request(1, load(0x7000)).unwrap();
        assert_eq!(m.stats().selective_flushes, 1);
        assert!(r.done_at > 2, "the load waits for the flushed write");
    }

    #[test]
    fn decoupled_vector_bypasses_l1() {
        let mut m = sys(HierarchyKind::Decoupled);
        let r = m.request(0, vload(0x9000)).unwrap();
        assert!(m.stats().vector_bypasses == 1);
        assert!(r.done_at > 12, "vector access pays at least L2 latency");
        // L1 never saw the access.
        assert_eq!(m.l1d_stats().accesses(), 0);
    }

    #[test]
    fn decoupled_coherence_invalidates_l1_copy() {
        let mut m = sys(HierarchyKind::Decoupled);
        // Scalar load brings the line into L1.
        let a = m.request(0, load(0xa000)).unwrap();
        // Vector access to the same line must invalidate it.
        let _ = m.request(a.done_at, vload(0xa000)).unwrap();
        assert_eq!(m.stats().coherence_invalidation, 1);
        // Scalar load again: L1 miss (line was invalidated) but L2 hit.
        let c = m.request(a.done_at + 100, load(0xa000)).unwrap();
        assert!(!c.l1_hit);
    }

    #[test]
    fn decoupled_separates_port_pools() {
        let mut m = sys(HierarchyKind::Decoupled);
        // 2 scalar ports: the 3rd scalar access in one cycle stalls...
        assert!(m.request(0, load(0x100)).is_ok());
        assert!(m.request(0, load(0x200)).is_ok());
        assert_eq!(m.request(0, load(0x300)), Err(Stall::PortBusy));
        // ...but vector ports are still free that same cycle.
        assert!(m.request(0, vload(0x400)).is_ok());
        assert!(m.request(0, vload(0x500)).is_ok());
        assert_eq!(m.request(0, vload(0x600)), Err(Stall::PortBusy));
    }

    #[test]
    fn conventional_vector_accesses_share_l1_ports() {
        let mut m = sys(HierarchyKind::Conventional);
        for i in 0..4u64 {
            assert!(m.request(0, vload(0x1000 + 32 * i)).is_ok());
        }
        assert_eq!(m.request(0, load(0x2000)), Err(Stall::PortBusy));
        assert_eq!(m.stats().vector_bypasses, 0);
    }

    #[test]
    fn ifetch_hits_after_fill() {
        let mut m = sys(HierarchyKind::Conventional);
        let t1 = m.ifetch(0, 0, 0x400000);
        assert!(t1 > 1, "cold I-miss");
        let t2 = m.ifetch(t1, 0, 0x400000);
        assert_eq!(t2, t1 + 1);
        assert_eq!(m.l1i_stats().misses, 1);
        assert_eq!(m.l1i_stats().hits, 1);
    }

    #[test]
    fn dirty_l2_victim_writes_back_to_dram() {
        let mut m = sys(HierarchyKind::Decoupled);
        // Vector stores dirty L2 lines; walk enough distinct lines to
        // force evictions from the 1MB 2-way L2 (8192 sets → same set
        // stride = 8192 × 128B = 1 MiB / 2... walk 3 lines in one set).
        let set_stride = (1024 * 1024 / 2) as u64; // sets × line
        let mut now = 0;
        for i in 0..3u64 {
            let r = m
                .request(
                    now,
                    MemRequest {
                        tid: 0,
                        addr: i * set_stride,
                        size: 8,
                        kind: AccessKind::VectorStore,
                    },
                )
                .unwrap();
            now = r.done_at + 1;
        }
        assert!(m.stats().dram_writes >= 1, "a dirty victim must reach DRAM");
    }

    #[test]
    fn latency_statistics_accumulate() {
        let mut m = sys(HierarchyKind::Conventional);
        let a = m.request(0, load(0x123400)).unwrap();
        let _ = m.request(a.done_at, load(0x123400)).unwrap();
        assert_eq!(m.stats().l1_accesses, 2);
        assert!(m.stats().avg_l1_latency() > 1.0);
    }

    #[test]
    fn port_available_matches_claim() {
        let mut m = sys(HierarchyKind::Conventional);
        assert!(m.port_available(0, AccessKind::ScalarLoad));
        for i in 0..4u64 {
            m.request(0, load(0x100 + i * 32)).unwrap();
        }
        assert!(!m.port_available(0, AccessKind::ScalarLoad));
        assert!(m.port_available(1, AccessKind::ScalarLoad));
    }
}
