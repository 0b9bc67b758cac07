//! The shared L2/DRAM backend of the hierarchy.
//!
//! A CMP machine gives every core its own private L1 levels (data and
//! instruction caches, MSHRs, write buffer, ports, banks — the fields
//! [`crate::MemSystem`] keeps) while the unified L2, its MSHRs and bank
//! reservation counters, and the Direct Rambus channel are **one**
//! structure all cores contend on. This module is that structure,
//! factored out of `MemSystem` so it can sit behind an
//! [`SharedL2`] handle: a single-core `MemSystem` owns its backend
//! exclusively (zero-overhead, exactly the pre-split layout), while the
//! cores of a CMP share one through the machine layer's per-cycle bus
//! arbiter — requests drain in fixed core order within a cycle, so the
//! backend only ever sees a deterministic, monotonic access sequence.

use crate::cache::Cache;
use crate::config::MemConfig;
use crate::dram::{Dram, DramStats};
use crate::mshr::{MshrFile, MshrOutcome};
use crate::stats::{CacheStats, MemStats};
use crate::Cycle;
use medsim_obs::EventKind;
use std::sync::{Arc, Mutex};

/// A shared handle to one [`L2Backend`]: what the machine layer hands
/// to every core's `MemSystem` in a CMP. Accesses are serialized by the
/// machine's per-cycle bus arbiter (fixed core-order draining), so the
/// mutex is never contended — it exists to make the sharing safe, not
/// to schedule it.
pub type SharedL2 = Arc<Mutex<L2Backend>>;

/// The L2 cache, its MSHRs and banks, and the DRAM channel — the levels
/// of the hierarchy a CMP shares between cores.
#[derive(Debug)]
pub struct L2Backend {
    l2: Cache,
    l2_mshrs: MshrFile,
    l2_banks: Box<[Cycle]>,
    dram: Dram,
    l2_latency: u64,
    /// Backend-side counters only (L2 bank conflicts, L2 MSHR
    /// exhaustion, DRAM traffic); the L1-side counters live in each
    /// core's `MemSystem` and the two are merged for reporting.
    stats: MemStats,
}

impl L2Backend {
    /// Build the backend from a memory configuration (its `l2`, `dram`,
    /// `mshrs` and `l2_latency` fields).
    #[must_use]
    pub fn new(config: &MemConfig) -> Self {
        L2Backend {
            l2: Cache::new(config.l2),
            l2_mshrs: MshrFile::new(config.mshrs),
            l2_banks: vec![0; config.l2.banks].into_boxed_slice(),
            dram: Dram::new(config.dram),
            l2_latency: config.l2_latency,
            stats: MemStats::default(),
        }
    }

    /// A backend wrapped for sharing between the cores of a CMP.
    #[must_use]
    pub fn shared(config: &MemConfig) -> SharedL2 {
        Arc::new(Mutex::new(L2Backend::new(config)))
    }

    /// L2 cache statistics.
    #[must_use]
    pub fn l2_stats(&self) -> CacheStats {
        *self.l2.stats()
    }

    /// DRAM statistics.
    #[must_use]
    pub fn dram_stats(&self) -> DramStats {
        *self.dram.stats()
    }

    /// Backend-side memory-system counters (merged with the L1-side
    /// counters by [`crate::MemSystem::stats`]).
    #[must_use]
    pub fn stats(&self) -> MemStats {
        self.stats
    }

    /// The L2 bank serving `addr`.
    #[must_use]
    pub fn bank_of(&self, addr: u64) -> usize {
        self.l2.bank_of(addr)
    }

    /// Fill time of the L2 line holding `addr`, if resident.
    #[must_use]
    pub fn fill_time_of(&self, addr: u64) -> Option<Cycle> {
        self.l2.fill_time_of(addr)
    }

    /// One write-buffer drain slot into the L2: each buffered
    /// write-through line consumes a bank slot, contending with read
    /// misses (the bandwidth wall the decoupled hierarchy's port split
    /// alleviates, §5.4).
    pub fn store_drain_slot(&mut self, line: u64, start: Cycle) {
        let bank = self.l2.bank_of(line);
        let slot = self.l2_banks[bank].max(start);
        self.l2_banks[bank] = slot + 2;
    }

    /// A repeat access to a resident L2 line (the memoized fast path of
    /// the batched vector stream): bank slot, LRU/dirty touch, hit or
    /// delayed hit against the known fill time.
    pub fn repeat_access(
        &mut self,
        start: Cycle,
        addr: u64,
        is_store: bool,
        size: u8,
        ready_at: Cycle,
        bank: usize,
    ) -> Cycle {
        let s = self.l2_banks[bank].max(start);
        if s > start {
            self.stats.bank_conflicts += 1;
        }
        let occupancy = u64::from(size).div_ceil(8).clamp(1, 4);
        self.l2_banks[bank] = s + occupancy;
        self.l2.retouch(addr, is_store);
        ready_at.max(s + self.l2_latency)
    }

    /// Access the L2, going to DRAM on a miss. Returns the completion
    /// cycle (data at the requester). Bank occupancy scales with the
    /// transfer size: a 32-byte line fill holds a bank four cycles, a
    /// direct 8-byte vector element access only one — the effective
    /// bandwidth the decoupled organization exploits.
    pub fn access_sized(&mut self, at: Cycle, addr: u64, is_store: bool, bytes: u64) -> Cycle {
        let bank = self.l2.bank_of(addr);
        let start = self.l2_banks[bank].max(at);
        if start > at {
            self.stats.bank_conflicts += 1;
        }
        let occupancy = bytes.div_ceil(8).clamp(1, 4);
        self.l2_banks[bank] = start + occupancy;
        let line = self.l2.line_addr(addr);
        let line_bytes = self.l2.config().line_bytes;
        let lookup = self.l2.access(start, addr, is_store);
        if let Some(victim) = lookup.writeback {
            let _ = self
                .dram
                .access(start + self.l2_latency, victim, line_bytes);
            self.stats.dram_writes += 1;
            if medsim_obs::tracing() {
                medsim_obs::emit(start, medsim_obs::LANE_SHARED_MEM, EventKind::DramAccess, 1);
            }
        }
        if lookup.hit {
            return start + self.l2_latency;
        }
        if medsim_obs::tracing() {
            medsim_obs::emit(start, medsim_obs::LANE_SHARED_MEM, EventKind::L2Miss, line);
        }
        if let Some(ready) = lookup.pending {
            return ready.max(start + self.l2_latency);
        }
        match self.l2_mshrs.register(start, line) {
            MshrOutcome::Coalesced(t) => t.max(start + self.l2_latency),
            MshrOutcome::Full => {
                self.stats.mshr_full_stalls += 1;
                // Wait out a DRAM round trip before the retry succeeds.
                let fill = self.dram.access(start + self.l2_latency, line, line_bytes);
                self.stats.dram_reads += 1;
                if medsim_obs::tracing() {
                    medsim_obs::emit(start, medsim_obs::LANE_SHARED_MEM, EventKind::DramAccess, 0);
                }
                fill + self.l2_latency
            }
            MshrOutcome::Allocated => {
                let fill = self.dram.access(start + self.l2_latency, line, line_bytes);
                self.stats.dram_reads += 1;
                if medsim_obs::tracing() {
                    medsim_obs::emit(start, medsim_obs::LANE_SHARED_MEM, EventKind::DramAccess, 0);
                }
                self.l2_mshrs.set_fill_time(line, fill);
                self.l2.set_fill_time(line, fill);
                fill
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_access_goes_to_dram_and_warm_hits() {
        let mut b = L2Backend::new(&MemConfig::paper());
        let cold = b.access_sized(0, 0x40_0000, false, 32);
        assert!(cold > 12, "cold miss pays DRAM: {cold}");
        assert_eq!(b.dram_stats().row_hits + b.dram_stats().row_misses, 1);
        let warm = b.access_sized(cold, 0x40_0000, false, 32);
        assert_eq!(warm, cold + 12, "resident line pays L2 latency only");
        assert_eq!(b.stats().dram_reads, 1);
    }

    #[test]
    fn store_drain_consumes_bank_slots() {
        let mut b = L2Backend::new(&MemConfig::paper());
        b.store_drain_slot(0x1000, 0);
        // The drained bank is busy: an access right behind it conflicts.
        let before = b.stats().bank_conflicts;
        let _ = b.access_sized(0, 0x1000, false, 32);
        assert_eq!(b.stats().bank_conflicts, before + 1);
    }

    #[test]
    fn shared_handle_is_send_and_clonable() {
        let shared = L2Backend::shared(&MemConfig::paper());
        let other = Arc::clone(&shared);
        std::thread::scope(|s| {
            s.spawn(move || {
                let mut b = other.lock().expect("backend");
                let _ = b.access_sized(0, 0x2000, false, 32);
            });
        });
        assert_eq!(shared.lock().expect("backend").stats().dram_reads, 1);
    }
}
