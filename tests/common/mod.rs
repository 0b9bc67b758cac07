//! Helpers shared by the integration suites.

use medsim::core::RunResult;

/// FNV-1a over the architectural outcome of a run: every `RunResult`
/// field except the inert `sched` block. The fields are listed
/// explicitly, so adding one to `RunResult` does not move existing
/// pins.
#[must_use]
pub fn run_digest(r: &RunResult) -> u64 {
    let words = [
        r.cores as u64,
        r.threads as u64,
        r.cycles,
        r.committed,
        r.committed_equiv,
        r.programs_completed,
        r.mispredict_rate.to_bits(),
        r.icache_hit_rate.to_bits(),
        r.l1_hit_rate.to_bits(),
        r.l1_avg_latency.to_bits(),
        r.l2_hit_rate.to_bits(),
        r.vector_only_cycles,
        r.mem_stalls,
        r.dram_bytes,
        r.vfetch.runahead_elems,
        r.vfetch.drains,
        r.vfetch.max_runahead,
        r.vfetch.flushes,
        r.vfetch.flushed_elems,
        r.vfetch.busy_cycles,
        r.vfetch.occupancy_sum,
    ];
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut write = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    write(format!("{:?}/{:?}", r.isa, r.hierarchy).as_bytes());
    for w in words {
        write(&w.to_le_bytes());
    }
    h
}
