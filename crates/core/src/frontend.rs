//! Decoupled per-thread frontends: trace synthesis and packed-trace
//! decode sharded across host cores.
//!
//! The paper's machine runs up to eight independent media-program
//! instruction streams (§5.1). The cycle loop consumes those streams
//! as blocks of decoded [`Inst`]s ([`InstSource`]); this module moves
//! the *production* of those blocks — workload synthesis on a cache
//! miss, packed-trace decode on replay — onto worker threads, one per
//! attached program, feeding the cycle loop through bounded SPSC ring
//! buffers. Decode overlaps simulation instead of stalling it, and the
//! consumer observes the **exact same instruction sequence** either
//! way, so results are bitwise identical to the inline path (enforced
//! by `tests/frontend_equivalence.rs`).
//!
//! The worker pool is a process-wide **job budget** shared with
//! [`crate::runner::run_grid`]: grid workers and frontend shards draw
//! permits from the same `MEDSIM_JOBS` pool, so a figure-5 grid does
//! not oversubscribe the host while a lone big run finally uses its
//! idle cores. When no permit is available, a shard falls back to
//! producing inline on the consumer thread — same sequence, no extra
//! thread.
//!
//! Environment knobs (resolved once per process):
//!
//! * `MEDSIM_FRONTEND` — `inline` forces the serial reference path
//!   (the differential baseline); anything else, or unset, shards;
//! * `MEDSIM_PREFETCH_BLOCKS` — ring depth in decoded blocks per
//!   shard (default 4, clamped to `1..=64`);
//! * `MEDSIM_JOBS` — the shared worker pool size (default: available
//!   parallelism).

use medsim_isa::Inst;
use medsim_workloads::trace::InstSource;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicIsize, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::Scope;

/// Which frontend feeds the cycle loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrontendKind {
    /// Blocks are produced inline on the simulation thread (the
    /// differential reference path).
    Inline,
    /// Blocks are produced by budgeted worker threads and shipped over
    /// bounded rings (falling back to inline when the budget is dry).
    Sharded,
}

impl FrontendKind {
    /// Frontend selected by `MEDSIM_FRONTEND` (`inline` for the serial
    /// reference; anything else, or unset, shards). Resolved once per
    /// process.
    #[must_use]
    pub fn from_env() -> Self {
        static KIND: OnceLock<FrontendKind> = OnceLock::new();
        *KIND.get_or_init(|| match std::env::var("MEDSIM_FRONTEND") {
            Ok(v) if v.eq_ignore_ascii_case("inline") => FrontendKind::Inline,
            _ => FrontendKind::Sharded,
        })
    }
}

/// Ring depth in blocks from `MEDSIM_PREFETCH_BLOCKS` (default 4,
/// clamped to `1..=64`). Resolved once per process.
#[must_use]
pub fn prefetch_blocks_from_env() -> usize {
    static DEPTH: OnceLock<usize> = OnceLock::new();
    *DEPTH.get_or_init(|| {
        std::env::var("MEDSIM_PREFETCH_BLOCKS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .map_or(4, |n| n.clamp(1, 64))
    })
}

/// Total worker budget of the process: `MEDSIM_JOBS` if set, else the
/// machine's available parallelism. Resolved once per process.
#[must_use]
pub fn total_workers() -> usize {
    static TOTAL: OnceLock<usize> = OnceLock::new();
    *TOTAL.get_or_init(|| {
        std::env::var("MEDSIM_JOBS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&j| j > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
            })
    })
}

/// A counting pool of *extra* worker threads (beyond the thread doing
/// the asking). [`crate::runner::run_grid`] claims permits for its grid
/// workers and frontend shards claim one per producer, so the two
/// levels of parallelism share one `MEDSIM_JOBS` budget instead of
/// multiplying.
#[derive(Debug)]
pub struct JobBudget {
    permits: AtomicIsize,
}

impl JobBudget {
    /// A budget of `extra` worker threads.
    #[must_use]
    pub fn new(extra: usize) -> Self {
        JobBudget {
            permits: AtomicIsize::new(extra.try_into().unwrap_or(isize::MAX)),
        }
    }

    /// The process-wide budget: [`total_workers`]` - 1` extra threads
    /// (the calling thread is the first worker).
    #[must_use]
    pub fn global() -> &'static JobBudget {
        static GLOBAL: OnceLock<JobBudget> = OnceLock::new();
        GLOBAL.get_or_init(|| JobBudget::new(total_workers().saturating_sub(1)))
    }

    /// Permits currently available (snapshot; racy by nature).
    #[must_use]
    pub fn available(&self) -> usize {
        self.permits.load(Ordering::Relaxed).max(0) as usize
    }

    /// Try to take one permit. The permit returns to the pool on drop.
    #[must_use]
    pub fn try_acquire(&self) -> Option<JobPermit<'_>> {
        let prev = self.permits.fetch_sub(1, Ordering::AcqRel);
        if prev <= 0 {
            self.permits.fetch_add(1, Ordering::AcqRel);
            return None;
        }
        Some(JobPermit { budget: self })
    }

    /// Take up to `want` permits as one claim (for a batch of grid
    /// workers). The claim returns its permits on drop.
    #[must_use]
    pub fn claim_up_to(&self, want: usize) -> BudgetClaim<'_> {
        let mut taken = 0usize;
        while taken < want {
            let prev = self.permits.fetch_sub(1, Ordering::AcqRel);
            if prev <= 0 {
                self.permits.fetch_add(1, Ordering::AcqRel);
                break;
            }
            taken += 1;
        }
        BudgetClaim {
            budget: self,
            taken,
        }
    }
}

/// One held worker permit (see [`JobBudget::try_acquire`]).
#[derive(Debug)]
pub struct JobPermit<'b> {
    budget: &'b JobBudget,
}

impl Drop for JobPermit<'_> {
    fn drop(&mut self) {
        self.budget.permits.fetch_add(1, Ordering::AcqRel);
    }
}

/// A batch of held permits (see [`JobBudget::claim_up_to`]).
#[derive(Debug)]
pub struct BudgetClaim<'b> {
    budget: &'b JobBudget,
    taken: usize,
}

impl BudgetClaim<'_> {
    /// How many permits the claim actually obtained.
    #[must_use]
    pub fn taken(&self) -> usize {
        self.taken
    }
}

impl Drop for BudgetClaim<'_> {
    fn drop(&mut self) {
        self.budget.permits.fetch_add(
            self.taken.try_into().unwrap_or(isize::MAX),
            Ordering::AcqRel,
        );
    }
}

/// Process-wide frontend counters (diagnostics — deliberately *not*
/// part of [`crate::metrics::RunResult`], which must stay bitwise
/// identical across frontends).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontendStats {
    /// Program attaches served by a dedicated producer thread.
    pub sharded: u64,
    /// Program attaches produced inline (inline frontend, or budget
    /// exhausted).
    pub inline: u64,
}

static SHARDED_SOURCES: AtomicU64 = AtomicU64::new(0);
static INLINE_SOURCES: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the process-wide frontend counters.
#[must_use]
pub fn stats() -> FrontendStats {
    FrontendStats {
        sharded: SHARDED_SOURCES.load(Ordering::Relaxed),
        inline: INLINE_SOURCES.load(Ordering::Relaxed),
    }
}

/// Frontend selection for one simulation run: the kind, the ring depth
/// and the worker budget the shards draw from.
#[derive(Debug, Clone, Copy)]
pub struct Frontend<'b> {
    /// Sharded or inline.
    pub kind: FrontendKind,
    /// Ring capacity in decoded blocks per shard.
    pub prefetch_blocks: usize,
    /// Worker pool the shards draw permits from.
    pub budget: &'b JobBudget,
}

impl Frontend<'static> {
    /// The environment-selected frontend over the global budget (what
    /// [`crate::sim::Simulation::run`] uses).
    #[must_use]
    pub fn from_env() -> Self {
        Frontend {
            kind: FrontendKind::from_env(),
            prefetch_blocks: prefetch_blocks_from_env(),
            budget: JobBudget::global(),
        }
    }

    /// The serial inline reference frontend.
    #[must_use]
    pub fn inline() -> Self {
        Frontend {
            kind: FrontendKind::Inline,
            prefetch_blocks: prefetch_blocks_from_env(),
            budget: JobBudget::global(),
        }
    }
}

impl<'b> Frontend<'b> {
    /// A sharded frontend over an explicit budget (tests, benches —
    /// independent of the global pool and the environment).
    #[must_use]
    pub fn sharded_with(budget: &'b JobBudget) -> Self {
        Frontend {
            kind: FrontendKind::Sharded,
            prefetch_blocks: prefetch_blocks_from_env(),
            budget,
        }
    }

    /// Realize one program's instruction supply under this frontend.
    ///
    /// `make` builds the underlying source (workload synthesis or
    /// packed-trace decode). Sharded with a permit available: `make`
    /// runs on a new scoped producer thread that fills a bounded ring
    /// of blocks, and the returned source is the ring consumer.
    /// Otherwise `make` runs right here and its source is returned
    /// unwrapped. Either way the consumer sees the identical
    /// instruction sequence.
    pub fn source<'scope>(
        &self,
        scope: &'scope Scope<'scope, '_>,
        make: impl FnOnce() -> Box<dyn InstSource> + Send + 'scope,
    ) -> Box<dyn InstSource>
    where
        'b: 'scope,
    {
        if self.kind == FrontendKind::Inline {
            INLINE_SOURCES.fetch_add(1, Ordering::Relaxed);
            return make();
        }
        let Some(permit) = self.budget.try_acquire() else {
            INLINE_SOURCES.fetch_add(1, Ordering::Relaxed);
            if medsim_obs::tracing() {
                // The budget was dry: this shard degrades to inline
                // production on the consumer thread.
                medsim_obs::emit(
                    medsim_obs::approx_now(),
                    medsim_obs::LANE_FRONTEND,
                    medsim_obs::EventKind::BudgetWait,
                    0,
                );
            }
            return make();
        };
        SHARDED_SOURCES.fetch_add(1, Ordering::Relaxed);
        // JobPermit borrows the budget for 'b; the producer thread only
        // needs it for 'scope, which `source` callers guarantee is
        // outlived by the budget ('b: 'scope via the `self` borrow).
        let ring = Ring::new(self.prefetch_blocks);
        let producer = RingProducer {
            ring: Arc::clone(&ring),
        };
        scope.spawn(move || {
            let _permit = permit;
            let mut source = make();
            loop {
                // Reuse a spent buffer from the consumer when one is
                // waiting; steady state allocates nothing.
                let mut block = producer.take_spare();
                if !source.next_block(&mut block) {
                    break;
                }
                if producer.send(block).is_err() {
                    // Consumer gone (the run finished early, or its
                    // thread is unwinding through an abort): stop
                    // producing.
                    break;
                }
            }
        });
        Box::new(RingSource { ring })
    }
}

/// Shared state of one shard's bounded SPSC ring: decoded blocks in
/// flight, spent buffers headed back for reuse, and the two disconnect
/// flags.
///
/// Both disconnects (producer exhausted its source; consumer dropped —
/// possibly mid-panic while an abort guard unwinds the simulation) are
/// a flag write plus a `notify_all` **under the same mutex the other
/// side waits on**, so a park/detach interleaving that loses the
/// wakeup cannot be expressed: either the waiter re-checks the flag
/// before sleeping, or it is woken by the notify. Every lock
/// acquisition is poison-tolerant — the whole point of the disconnect
/// path is surviving a panicking peer.
struct RingState {
    blocks: VecDeque<Vec<Inst>>,
    spares: Vec<Vec<Inst>>,
    producer_done: bool,
    consumer_gone: bool,
}

struct Ring {
    capacity: usize,
    state: Mutex<RingState>,
    cond: Condvar,
}

impl Ring {
    fn new(capacity: usize) -> Arc<Ring> {
        Arc::new(Ring {
            capacity: capacity.max(1),
            state: Mutex::new(RingState {
                blocks: VecDeque::new(),
                spares: Vec::new(),
                producer_done: false,
                consumer_gone: false,
            }),
            cond: Condvar::new(),
        })
    }

    fn lock(&self) -> MutexGuard<'_, RingState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'g>(&self, guard: MutexGuard<'g, RingState>) -> MutexGuard<'g, RingState> {
        self.cond
            .wait(guard)
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// Producer half of one shard's ring (owned by the producer thread).
struct RingProducer {
    ring: Arc<Ring>,
}

impl RingProducer {
    /// A spent buffer returned by the consumer, if one is waiting
    /// (never blocks).
    fn take_spare(&self) -> Vec<Inst> {
        self.ring.lock().spares.pop().unwrap_or_default()
    }

    /// Ship one decoded block, blocking while the ring is full.
    /// `Err` when the consumer is gone (the block is dropped).
    fn send(&self, block: Vec<Inst>) -> Result<(), ()> {
        let mut st = self.ring.lock();
        loop {
            if st.consumer_gone {
                return Err(());
            }
            if st.blocks.len() < self.ring.capacity {
                let was_empty = st.blocks.is_empty();
                st.blocks.push_back(block);
                if was_empty {
                    // The consumer only ever waits on an empty ring.
                    self.ring.cond.notify_all();
                }
                return Ok(());
            }
            st = self.ring.wait(st);
        }
    }
}

impl Drop for RingProducer {
    fn drop(&mut self) {
        let mut st = self.ring.lock();
        st.producer_done = true;
        self.ring.cond.notify_all();
    }
}

/// Consumer half of one shard's ring: hands decoded blocks to the
/// cycle loop, returning spent buffers for reuse.
struct RingSource {
    ring: Arc<Ring>,
}

impl InstSource for RingSource {
    fn next_block(&mut self, out: &mut Vec<Inst>) -> bool {
        let mut st = self.ring.lock();
        let mut stalled = false;
        loop {
            if let Some(mut block) = st.blocks.pop_front() {
                let was_full = st.blocks.len() + 1 == self.ring.capacity;
                // `out` holds the spent previous block; swap it to the
                // producer for reuse and hand its replacement back.
                std::mem::swap(out, &mut block);
                st.spares.push(block);
                if was_full {
                    // The producer only ever waits on a full ring.
                    self.ring.cond.notify_all();
                }
                return true;
            }
            if st.producer_done {
                // Producer finished and the ring drained.
                out.clear();
                return false;
            }
            if !stalled && medsim_obs::tracing() {
                // Under-run: the cycle loop is about to block on the
                // producer. Emitted once per under-run, like the old
                // probe-then-recv shape.
                medsim_obs::emit(
                    medsim_obs::approx_now(),
                    medsim_obs::LANE_FRONTEND,
                    medsim_obs::EventKind::RingStall,
                    0,
                );
            }
            stalled = true;
            st = self.ring.wait(st);
        }
    }
}

impl Drop for RingSource {
    fn drop(&mut self) {
        let mut st = self.ring.lock();
        st.consumer_gone = true;
        self.ring.cond.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medsim_isa::prelude::*;
    use medsim_workloads::trace::{BlockStream, StreamIter, VecSource};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn program(rng: &mut SmallRng, n: usize) -> Vec<Inst> {
        (0..n)
            .map(|i| {
                let imm: i32 = rng.gen_range(-8000..8000);
                Inst::int_rri(IntOp::Addi, int((i % 28) as u8 + 1), int(0), imm).at(4 * i as u64)
            })
            .collect()
    }

    #[test]
    fn budget_counts_and_restores_permits() {
        let budget = JobBudget::new(2);
        assert_eq!(budget.available(), 2);
        let a = budget.try_acquire().expect("first permit");
        let b = budget.try_acquire().expect("second permit");
        assert!(budget.try_acquire().is_none(), "pool exhausted");
        drop(a);
        assert_eq!(budget.available(), 1);
        let claim = budget.claim_up_to(5);
        assert_eq!(claim.taken(), 1, "claims are best-effort");
        drop(claim);
        drop(b);
        assert_eq!(budget.available(), 2, "all permits restored");
    }

    #[test]
    fn budget_never_oversubscribes_under_concurrent_claim_release() {
        // Property: across racing acquirers, the permits in flight
        // never exceed the pool, and every permit returns — including
        // permits dropped early, batch claims dropped unused, and
        // claims that raced to a partial take.
        use std::sync::atomic::AtomicUsize;
        const POOL: usize = 3;
        let budget = JobBudget::new(POOL);
        let in_flight = AtomicUsize::new(0);
        let max_seen = AtomicUsize::new(0);
        let track = |n: usize| {
            let now = in_flight.fetch_add(n, Ordering::SeqCst) + n;
            max_seen.fetch_max(now, Ordering::SeqCst);
        };
        std::thread::scope(|scope| {
            for t in 0..6u64 {
                let budget = &budget;
                let in_flight = &in_flight;
                let track = &track;
                scope.spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(0xb06e7 + t);
                    for _ in 0..500 {
                        match rng.gen_range(0..3) {
                            0 => {
                                if let Some(permit) = budget.try_acquire() {
                                    track(1);
                                    if rng.gen_range(0..2) == 0 {
                                        std::thread::yield_now();
                                    }
                                    in_flight.fetch_sub(1, Ordering::SeqCst);
                                    drop(permit);
                                }
                            }
                            1 => {
                                let want = rng.gen_range(0..POOL + 2);
                                let claim = budget.claim_up_to(want);
                                assert!(claim.taken() <= want);
                                track(claim.taken());
                                in_flight.fetch_sub(claim.taken(), Ordering::SeqCst);
                                drop(claim);
                            }
                            _ => {
                                // Early drop: take and abandon immediately.
                                let claim = budget.claim_up_to(1);
                                track(claim.taken());
                                in_flight.fetch_sub(claim.taken(), Ordering::SeqCst);
                            }
                        }
                    }
                });
            }
        });
        assert!(
            max_seen.load(Ordering::SeqCst) <= POOL,
            "permits in flight exceeded the pool: {}",
            max_seen.load(Ordering::SeqCst)
        );
        assert!(
            max_seen.load(Ordering::SeqCst) > 0,
            "the property run must actually acquire permits"
        );
        assert_eq!(
            budget.available(),
            POOL,
            "every permit restored after the storm"
        );
    }

    #[test]
    fn ring_replays_any_source_exactly() {
        // Property-style: random programs of random sizes through a
        // real producer thread + ring must equal the inline sequence,
        // at several ring depths (including depth 1, maximal
        // backpressure).
        let mut rng = SmallRng::seed_from_u64(0x51a6);
        for case in 0..12 {
            let n = rng.gen_range(0..6000);
            let insts = program(&mut rng, n);
            let depth = [1usize, 2, 7][case % 3];
            let budget = JobBudget::new(1);
            let frontend = Frontend {
                kind: FrontendKind::Sharded,
                prefetch_blocks: depth,
                budget: &budget,
            };
            let got: Vec<Inst> = std::thread::scope(|scope| {
                let feed = insts.clone();
                let source = frontend.source(scope, move || Box::new(VecSource::new(feed)));
                StreamIter(BlockStream::new(source)).collect()
            });
            assert_eq!(got, insts, "case {case} depth {depth}");
        }
    }

    #[test]
    fn exhausted_budget_falls_back_inline() {
        let budget = JobBudget::new(0);
        let frontend = Frontend {
            kind: FrontendKind::Sharded,
            prefetch_blocks: 4,
            budget: &budget,
        };
        let before = stats();
        let mut rng = SmallRng::seed_from_u64(9);
        let insts = program(&mut rng, 500);
        let got: Vec<Inst> = std::thread::scope(|scope| {
            let feed = insts.clone();
            let source = frontend.source(scope, move || Box::new(VecSource::new(feed)));
            StreamIter(BlockStream::new(source)).collect()
        });
        assert_eq!(got, insts, "inline fallback replays exactly");
        // The counters are process-global and other tests in this
        // binary run concurrently, so only monotonic facts are safe to
        // assert: the fallback was counted, and this frontend never
        // took a permit from its (empty) pool.
        assert!(stats().inline > before.inline, "fallback counted");
        assert_eq!(budget.available(), 0, "no permit was ever available");
    }

    #[test]
    fn dropping_the_consumer_unblocks_the_producer() {
        // A consumer that stops mid-program: the scope must still join
        // (the producer's send fails once the receiver is gone).
        let budget = JobBudget::new(1);
        let frontend = Frontend {
            kind: FrontendKind::Sharded,
            prefetch_blocks: 1,
            budget: &budget,
        };
        let mut rng = SmallRng::seed_from_u64(77);
        let insts = program(&mut rng, 50_000);
        std::thread::scope(|scope| {
            let mut source = frontend.source(scope, move || Box::new(VecSource::new(insts)));
            let mut block = Vec::new();
            assert!(source.next_block(&mut block));
            drop(source);
            // Scope exit joins the producer; a deadlock here fails the
            // test by hanging.
        });
        assert_eq!(budget.available(), 1, "permit returned");
    }

    #[test]
    fn consumer_detach_always_wakes_a_parked_producer() {
        // Pins the ring's disconnect guarantee: a producer parked on a
        // full ring must always observe the consumer's detach (the
        // machine's abort guard relies on this to unwedge producers
        // when a run unwinds). The race window for a lost wakeup would
        // be one park/detach interleaving, so loop many times with a
        // depth-1 ring (the producer parks after the second block) and
        // a consumer that detaches while the producer is (probably)
        // parked.
        let block = program(&mut SmallRng::seed_from_u64(5), 4);
        for round in 0..300 {
            let ring = Ring::new(1);
            let producer = RingProducer {
                ring: Arc::clone(&ring),
            };
            let mut consumer = RingSource {
                ring: Arc::clone(&ring),
            };
            let payload = block.clone();
            let handle = std::thread::spawn(move || {
                let mut sent = 0u32;
                while producer.send(payload.clone()).is_ok() {
                    sent += 1;
                }
                sent
            });
            // Vary how far the consumer gets before detaching so the
            // drop lands on every producer state: mid-send, parked on
            // full, and between sends.
            let mut out = Vec::new();
            for _ in 0..(round % 4) {
                if !consumer.next_block(&mut out) {
                    break;
                }
            }
            if round % 2 == 0 {
                std::thread::yield_now();
            }
            drop(consumer);
            let sent = handle.join().expect("producer exits after detach");
            assert!(sent >= 1 || round % 4 == 0, "producer made progress");
        }
    }

    #[test]
    fn env_knobs_freeze() {
        let kind = FrontendKind::from_env();
        let depth = prefetch_blocks_from_env();
        crate::testenv::with_env_vars(
            &[
                ("MEDSIM_FRONTEND", "inline"),
                ("MEDSIM_PREFETCH_BLOCKS", "63"),
            ],
            || {
                assert_eq!(FrontendKind::from_env(), kind);
                assert_eq!(prefetch_blocks_from_env(), depth);
            },
        );
    }
}
