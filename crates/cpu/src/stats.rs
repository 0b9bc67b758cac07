//! Pipeline statistics.

use medsim_isa::OpKind;
use serde::{Deserialize, Serialize};

/// Counters kept per hardware thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ThreadStats {
    /// Instructions committed (raw — what the pipeline processed).
    pub committed: u64,
    /// Equivalent instructions committed (MOM × stream length).
    pub committed_equiv: u64,
    /// Conditional/indirect branches committed.
    pub branches: u64,
    /// Mispredicted branches.
    pub mispredicts: u64,
    /// Programs completed in this hardware context (§5.1 scheduling).
    pub programs_completed: u64,
}

/// Aggregate pipeline statistics.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CpuStats {
    /// Cycles simulated.
    pub cycles: u64,
    /// Per-thread counters.
    pub threads: Vec<ThreadStats>,
    /// Committed equivalent instructions by reporting class.
    pub committed_by_kind: [u64; 4],
    /// Instructions fetched.
    pub fetched: u64,
    /// Fetch-cycle slots lost to I-cache misses.
    pub fetch_icache_stalls: u64,
    /// Fetch-cycle slots lost waiting on unresolved mispredictions.
    pub fetch_branch_stalls: u64,
    /// Dispatch stalls: no free physical register.
    pub dispatch_reg_stalls: u64,
    /// Dispatch stalls: target instruction queue full.
    pub dispatch_queue_stalls: u64,
    /// Dispatch stalls: graduation window (ROB) full.
    pub dispatch_rob_stalls: u64,
    /// Issue slots actually used, by queue (int, mem, fp, simd).
    pub issued: [u64; 4],
    /// Memory issue attempts rejected by the memory system.
    pub mem_stalls: u64,
    /// Cycles in which *only* vector (SIMD-queue) instructions issued —
    /// the §5.3 scalar/vector mixing diagnostic.
    pub vector_only_cycles: u64,
    /// Cycles in which nothing issued at all.
    pub idle_cycles: u64,
    /// Inert (always 0): kept for the benchmark harness.
    pub parks_backend_reply: u64,
    /// Inert (always 0): kept for the benchmark harness.
    pub parks_store_evict: u64,
    /// Decoupled vector fetch: sum of the access queue's occupancy over
    /// [`CpuStats::vfetch_cycles`] (occupancy_sum / cycles = average
    /// queue depth while the unit had work). Zero with the unit off.
    pub vfetch_occupancy_sum: u64,
    /// Cycles the vector access queue was non-empty.
    pub vfetch_cycles: u64,
    /// Stream elements issued early by the run-ahead unit (before the
    /// memory-issue stage reached the instruction).
    pub vfetch_runahead_elems: u64,
    /// Vector loads whose stream was fully issued by the run-ahead unit
    /// before execute reached them — execute drained the buffered reply
    /// without touching a memory port.
    pub vfetch_drains: u64,
    /// Maximum run-ahead distance observed: queued vector loads with
    /// early-issued elements ahead of the execute stage. Bounded by the
    /// configured queue depth (property-tested).
    pub vfetch_max_runahead: u64,
    /// Redirect flushes of the access queue (a resolved misprediction
    /// on the owning thread discards its run-ahead state).
    pub vfetch_flushes: u64,
    /// Early-issued stream elements discarded by redirect flushes.
    pub vfetch_flushed_elems: u64,
}

impl CpuStats {
    /// Initialize for `threads` contexts.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        CpuStats {
            threads: vec![ThreadStats::default(); threads],
            ..Default::default()
        }
    }

    /// Total raw committed instructions.
    #[must_use]
    pub fn committed(&self) -> u64 {
        self.threads.iter().map(|t| t.committed).sum()
    }

    /// Total equivalent committed instructions (the paper's comparison
    /// currency).
    #[must_use]
    pub fn committed_equiv(&self) -> u64 {
        self.threads.iter().map(|t| t.committed_equiv).sum()
    }

    /// Raw instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed() as f64 / self.cycles as f64
        }
    }

    /// Equivalent instructions per cycle (the basis of the EIPC metric).
    #[must_use]
    pub fn equiv_ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed_equiv() as f64 / self.cycles as f64
        }
    }

    /// Branch misprediction rate over committed branches.
    #[must_use]
    pub fn mispredict_rate(&self) -> f64 {
        let b: u64 = self.threads.iter().map(|t| t.branches).sum();
        let m: u64 = self.threads.iter().map(|t| t.mispredicts).sum();
        if b == 0 {
            0.0
        } else {
            m as f64 / b as f64
        }
    }

    /// Record a committed instruction's class contribution.
    pub fn record_commit_kind(&mut self, kind: OpKind, equiv: u64) {
        let idx = match kind {
            OpKind::Integer => 0,
            OpKind::Fp => 1,
            OpKind::SimdArith => 2,
            OpKind::Memory => 3,
        };
        self.committed_by_kind[idx] += equiv;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_edges() {
        let s = CpuStats::new(2);
        assert_eq!(s.ipc(), 0.0);
        let mut s = CpuStats::new(2);
        s.cycles = 100;
        s.threads[0].committed = 150;
        s.threads[1].committed = 250;
        assert_eq!(s.ipc(), 4.0);
    }

    #[test]
    fn equiv_ipc_differs_for_mom() {
        let mut s = CpuStats::new(1);
        s.cycles = 10;
        s.threads[0].committed = 10;
        s.threads[0].committed_equiv = 80;
        assert_eq!(s.ipc(), 1.0);
        assert_eq!(s.equiv_ipc(), 8.0);
    }

    #[test]
    fn mispredict_rate() {
        let mut s = CpuStats::new(1);
        s.threads[0].branches = 200;
        s.threads[0].mispredicts = 10;
        assert!((s.mispredict_rate() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn commit_kind_buckets() {
        let mut s = CpuStats::new(1);
        s.record_commit_kind(OpKind::Integer, 1);
        s.record_commit_kind(OpKind::SimdArith, 16);
        assert_eq!(s.committed_by_kind, [1, 0, 16, 0]);
        s.record_commit_kind(OpKind::Fp, 2);
        s.record_commit_kind(OpKind::Memory, 3);
        assert_eq!(s.committed_by_kind, [1, 2, 16, 3]);
    }

    /// Accessor sweep: every derived-rate accessor against a stats
    /// block with all inputs populated, including the zero-denominator
    /// edges the accessors guard.
    #[test]
    fn accessor_sweep() {
        let mut s = CpuStats::new(2);
        s.cycles = 1000;
        s.threads[0] = ThreadStats {
            committed: 300,
            committed_equiv: 900,
            branches: 40,
            mispredicts: 4,
            programs_completed: 2,
        };
        s.threads[1] = ThreadStats {
            committed: 200,
            committed_equiv: 600,
            branches: 10,
            mispredicts: 1,
            programs_completed: 1,
        };

        assert_eq!(s.committed(), 500);
        assert_eq!(s.committed_equiv(), 1500);
        assert!((s.ipc() - 0.5).abs() < 1e-12);
        assert!((s.equiv_ipc() - 1.5).abs() < 1e-12);
        assert!((s.mispredict_rate() - 0.1).abs() < 1e-12);

        // Zero-denominator guards.
        let z = CpuStats::new(1);
        assert_eq!(z.committed(), 0);
        assert_eq!(z.committed_equiv(), 0);
        assert_eq!(z.ipc(), 0.0);
        assert_eq!(z.equiv_ipc(), 0.0);
        assert_eq!(z.mispredict_rate(), 0.0);
    }
}
