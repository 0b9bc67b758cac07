//! Correctness checks on the simulator's outputs: result digests pinned
//! per workload and seed, the repository's reference figure-5 table,
//! and invariants every run must satisfy.

use crate::workloads::{Workload, THREAD_COUNTS};
use medsim_core::{EipcFactor, RunResult, SimConfig};
use medsim_mem::HierarchyKind;
use medsim_workloads::trace::SimdIsa;

/// The pinned digests (`<workload> <seed> <digest>` lines).
const PINS: &str = include_str!("../pins.txt");

/// Figure-of-merit table at scale 2e-4 and the default seed, conventional
/// hierarchy, threads 1/2/4/8 — the repository's own earlier output, not
/// a hardware measurement.
const FIG5_CONVENTIONAL: [(SimdIsa, [&str; 4]); 2] = [
    (SimdIsa::Mmx, ["1.63", "2.97", "5.09", "6.01"]),
    (SimdIsa::Mom, ["1.87", "3.19", "5.79", "7.33"]),
];

/// The paper's headline average degradation from ideal to real memory.
pub const PAPER_DEGRADATION: [(SimdIsa, f64); 2] = [(SimdIsa::Mmx, 0.30), (SimdIsa::Mom, 0.15)];

/// FNV-1a over the architectural outcome of a run. The fields are listed
/// explicitly (host scheduling counters left out, as `RunResult`'s own
/// equality does), so a field added to `RunResult` later does not move
/// existing pins.
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
    let mut h = Fnv::new();
    h.write(format!("{}/{:?}", r.isa, r.hierarchy).as_bytes());
    for w in words {
        h.write(&w.to_le_bytes());
    }
    h.finish()
}

/// Digest of a whole repetition (its runs' digests in order).
#[must_use]
pub fn unit_digest(results: &[RunResult]) -> u64 {
    let mut h = Fnv::new();
    for r in results {
        h.write(&run_digest(r).to_le_bytes());
    }
    h.finish()
}

/// One pinned digest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pin {
    /// Workload name.
    pub workload: String,
    /// Benchmark seed.
    pub seed: u64,
    /// Expected [`unit_digest`].
    pub digest: u64,
}

/// Parse pin lines: `<workload> <seed> <16 hex digits>`; blank lines and
/// `#` comments are skipped.
///
/// # Errors
///
/// Returns the offending line when a line does not have that shape.
pub fn parse_pins(text: &str) -> Result<Vec<Pin>, String> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|line| {
            let bad = || format!("malformed pin line: {line:?}");
            let mut fields = line.split_whitespace();
            let (Some(workload), Some(seed), Some(digest), None) =
                (fields.next(), fields.next(), fields.next(), fields.next())
            else {
                return Err(bad());
            };
            if Workload::parse(workload).is_none() || digest.len() != 16 {
                return Err(bad());
            }
            Ok(Pin {
                workload: workload.to_string(),
                seed: seed.parse().map_err(|_| bad())?,
                digest: u64::from_str_radix(digest, 16).map_err(|_| bad())?,
            })
        })
        .collect()
}

/// The pinned digest for `(workload, seed)`, if there is one.
///
/// # Panics
///
/// Panics if the compiled-in pin file is malformed.
#[must_use]
pub fn pinned(workload: Workload, seed: u64) -> Option<u64> {
    parse_pins(PINS)
        .expect("pins.txt is well formed")
        .into_iter()
        .find(|p| p.workload == workload.name() && p.seed == seed)
        .map(|p| p.digest)
}

/// Invariants every finished run satisfies, whatever the seed. Returns
/// the first one violated.
#[must_use]
pub fn check_run(config: &SimConfig, r: &RunResult) -> Option<String> {
    let unit = |x: f64| (0.0..=1.0).contains(&x);
    let checks = [
        (r.isa == config.isa, "isa"),
        (r.threads == config.threads, "threads"),
        (r.cores == config.cores, "cores"),
        (r.hierarchy == config.hierarchy, "hierarchy"),
        (r.cycles > 0, "cycles > 0"),
        (
            r.programs_completed >= 8,
            "all eight list entries completed",
        ),
        (r.committed > 0, "committed > 0"),
        (r.committed_equiv >= r.committed, "equivalent >= raw"),
        (unit(r.mispredict_rate), "mispredict rate in [0,1]"),
        (unit(r.icache_hit_rate), "icache hit rate in [0,1]"),
        (unit(r.l1_hit_rate), "l1 hit rate in [0,1]"),
        (unit(r.l2_hit_rate), "l2 hit rate in [0,1]"),
    ];
    checks.iter().find(|(ok, _)| !ok).map(|(_, what)| {
        format!(
            "{} {}x{}t {:?}: {what}",
            r.isa, r.cores, r.threads, r.hierarchy
        )
    })
}

/// Figure 5's conventional-hierarchy figures of merit, two decimals,
/// per ISA in thread order.
#[must_use]
pub fn fig5_table(results: &[RunResult], factor: &EipcFactor) -> Vec<(SimdIsa, Vec<String>)> {
    SimdIsa::ALL
        .into_iter()
        .map(|isa| {
            let row = THREAD_COUNTS
                .iter()
                .map(|&t| {
                    results
                        .iter()
                        .find(|r| {
                            r.isa == isa
                                && r.threads == t
                                && r.hierarchy == HierarchyKind::Conventional
                        })
                        .map_or_else(
                            || "-".into(),
                            |r| format!("{:.2}", r.figure_of_merit(factor)),
                        )
                })
                .collect();
            (isa, row)
        })
        .collect()
}

/// Check a default-seed figure-5 repetition against the reference table.
#[must_use]
pub fn check_fig5_reference(results: &[RunResult], factor: &EipcFactor) -> Option<String> {
    let table = fig5_table(results, factor);
    FIG5_CONVENTIONAL.iter().find_map(|(isa, want)| {
        let got = &table.iter().find(|(i, _)| i == isa)?.1;
        (got.iter().map(String::as_str).ne(want.iter().copied()))
            .then(|| format!("figure 5 {isa} conventional {got:?}, reference {want:?}"))
    })
}

/// Average ideal→conventional degradation of the figure of merit over
/// the thread counts, per ISA.
#[must_use]
pub fn fig5_degradation(results: &[RunResult], factor: &EipcFactor) -> Vec<(SimdIsa, f64)> {
    SimdIsa::ALL
        .into_iter()
        .map(|isa| {
            let fom = |h: HierarchyKind, t: usize| {
                results
                    .iter()
                    .find(|r| r.isa == isa && r.threads == t && r.hierarchy == h)
                    .map_or(f64::NAN, |r| r.figure_of_merit(factor))
            };
            let sum: f64 = THREAD_COUNTS
                .iter()
                .map(|&t| 1.0 - fom(HierarchyKind::Conventional, t) / fom(HierarchyKind::Ideal, t))
                .sum();
            (isa, sum / THREAD_COUNTS.len() as f64)
        })
        .collect()
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pin_file_parses_and_covers_every_workload_at_two_seeds() {
        let pins = parse_pins(PINS).expect("well formed");
        for w in Workload::ALL {
            let seeds: Vec<u64> = pins
                .iter()
                .filter(|p| p.workload == w.name())
                .map(|p| p.seed)
                .collect();
            assert!(
                seeds.contains(&0),
                "{} pinned at the default seed",
                w.name()
            );
            assert!(seeds.len() >= 2, "{} pinned at a held-out seed", w.name());
        }
    }

    #[test]
    fn pin_lines_are_parsed_strictly() {
        let ok = parse_pins("# comment\n\nfig5_sweep 3 00000000deadbeef\n").expect("valid");
        assert_eq!(
            ok,
            vec![Pin {
                workload: "fig5_sweep".into(),
                seed: 3,
                digest: 0xdead_beef,
            }]
        );
        for bad in [
            "fig5_sweep 3",
            "fig5_sweep 3 deadbeef",
            "fig5_sweep x 00000000deadbeef",
            "nope 3 00000000deadbeef",
            "fig5_sweep 3 00000000deadbeef extra",
            "fig5_sweep 3 zzzzzzzzzzzzzzzz",
        ] {
            assert!(parse_pins(bad).is_err(), "{bad:?} rejected");
        }
    }
}
