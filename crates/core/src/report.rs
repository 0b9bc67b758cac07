//! Plain-text rendering of experiment results in the paper's shapes.

use crate::experiments::{
    CmpCurve, Curve, DecoupleRow, Headline, Table3Row, Table4Row, CORE_COUNTS, THREAD_COUNTS,
};
use crate::metrics::EipcFactor;
use medsim_workloads::trace::SimdIsa;
use medsim_workloads::Benchmark;
use std::fmt::Write as _;

/// Render a set of performance curves as a table with one column per
/// thread count (the shape of figures 4, 5, 6, 8, 9).
#[must_use]
pub fn format_curves(title: &str, curves: &[Curve]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {title} ==");
    let _ = write!(out, "{:<28}", "configuration");
    for t in THREAD_COUNTS {
        let _ = write!(out, "{t:>9} thr");
    }
    let _ = writeln!(out);
    for c in curves {
        let label = format!("{}+{} {} [{}]", "SMT", c.isa, c.hierarchy, c.policy);
        let _ = write!(out, "{label:<28}");
        for t in THREAD_COUNTS {
            match c.at(t) {
                Some(v) => {
                    let _ = write!(out, "{v:>12.2}");
                }
                None => {
                    let _ = write!(out, "{:>12}", "-");
                }
            }
        }
        let _ = writeln!(out);
    }
    out
}

/// Render a set of CMP scaling curves as a table with one column per
/// core count.
#[must_use]
pub fn format_cmp_curves(title: &str, curves: &[CmpCurve]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {title} ==");
    let _ = write!(out, "{:<28}", "configuration");
    for c in CORE_COUNTS {
        let _ = write!(out, "{c:>8} core");
    }
    let _ = writeln!(out);
    for c in curves {
        let label = format!("CMP+{} {}thr/core [{}]", c.isa, c.threads, c.hierarchy);
        let _ = write!(out, "{label:<28}");
        for n in CORE_COUNTS {
            match c.at(n) {
                Some(v) => {
                    let _ = write!(out, "{v:>12.2}");
                }
                None => {
                    let _ = write!(out, "{:>12}", "-");
                }
            }
        }
        let _ = writeln!(out);
    }
    out
}

/// Render the decoupled-vs-coupled sweep: per configuration, the IPC
/// and the achieved fraction of the DRAM roofline side by side, plus
/// the run-ahead unit's own counters. A `-` in a roofline column means
/// the run produced no DRAM traffic.
#[must_use]
pub fn format_decoupled_sweep(rows: &[DecoupleRow]) -> String {
    fn pct(p: Option<f64>) -> String {
        p.map_or_else(|| format!("{:>8}", "-"), |p| format!("{:>7.1}%", p * 100.0))
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Decoupled run-ahead vector fetch vs the coupled machine =="
    );
    let _ = writeln!(
        out,
        "{:<24} {:>9} {:>9} {:>8}  {:>8} {:>8}  {:>10} {:>8}",
        "configuration",
        "IPC off",
        "IPC on",
        "speedup",
        "roof off",
        "roof on",
        "ran-ahead",
        "flushes"
    );
    for r in rows {
        let label = format!("{} {} {}thr", r.isa, r.hierarchy, r.threads);
        let _ = writeln!(
            out,
            "{:<24} {:>9.2} {:>9.2} {:>7.2}x  {} {}  {:>10} {:>8}",
            label,
            r.coupled.ipc(),
            r.decoupled.ipc(),
            r.speedup(),
            pct(r.coupled_pct_of_roof()),
            pct(r.decoupled_pct_of_roof()),
            r.decoupled.vfetch.runahead_elems,
            r.decoupled.vfetch.flushes,
        );
    }
    out
}

/// Render Table 2 (the workload description).
#[must_use]
pub fn format_table2() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== Table 2: multiprogrammed workload ==");
    let _ = writeln!(
        out,
        "{:<10} {:<55} {:<42} characteristics",
        "program", "description", "data set"
    );
    for b in Benchmark::ALL {
        let instances = Benchmark::PAPER_ORDER.iter().filter(|&&x| x == b).count();
        let name = format!("{} x{}", b.name(), instances);
        let _ = writeln!(
            out,
            "{:<10} {:<55} {:<42} {}",
            name,
            b.description(),
            b.data_set(),
            b.characteristics()
        );
    }
    out
}

/// Render Table 3 (instruction breakdown) with paper values alongside.
#[must_use]
pub fn format_table3(rows: &[Table3Row], suite_mmx: u64, suite_mom: u64) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== Table 3: instruction breakdown (%) and counts ==");
    let _ = writeln!(
        out,
        "{:<10} {:>4}  {:>6} {:>6} {:>6} {:>6}  {:>12}  {:>10}",
        "program", "isa", "INT%", "FP%", "SIMD%", "MEM%", "#ins (model)", "paper (M)"
    );
    for r in rows {
        let b = r.breakdown;
        let _ = writeln!(
            out,
            "{:<10} {:>4}  {:>6.1} {:>6.1} {:>6.1} {:>6.1}  {:>12}  {:>10.1}",
            r.benchmark.name(),
            r.isa.label(),
            b.integer_pct,
            b.fp_pct,
            b.simd_pct,
            b.memory_pct,
            b.total_insts,
            r.benchmark.paper_minsts(r.isa),
        );
    }
    let _ = writeln!(
        out,
        "suite totals: MMX {suite_mmx} / MOM {suite_mom} (paper: 1429M / 1087M, ratio 1.31)"
    );
    let _ = writeln!(
        out,
        "model ratio: {:.2}",
        suite_mmx as f64 / suite_mom.max(1) as f64
    );
    out
}

/// Render Table 4 (cache behaviour vs thread count).
#[must_use]
pub fn format_table4(rows: &[Table4Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Table 4: cache behaviour under the real memory system =="
    );
    let _ = write!(out, "{:<24}", "metric / ISA");
    for t in THREAD_COUNTS {
        let _ = write!(out, "{t:>9} thr");
    }
    let _ = writeln!(out);
    for (metric, get) in [
        ("I-cache hit rate", 0usize),
        ("L1 hit rate", 1),
        ("L1 latency (cycles)", 2),
    ] {
        for isa in SimdIsa::ALL {
            let label = format!("{metric} {}", isa.label());
            let _ = write!(out, "{label:<24}");
            for t in THREAD_COUNTS {
                if let Some(r) = rows.iter().find(|r| r.isa == isa && r.threads == t) {
                    let v = match get {
                        0 => r.icache_hit_rate * 100.0,
                        1 => r.l1_hit_rate * 100.0,
                        _ => r.l1_avg_latency,
                    };
                    if get == 2 {
                        let _ = write!(out, "{v:>12.2}");
                    } else {
                        let _ = write!(out, "{v:>11.1}%");
                    }
                } else {
                    let _ = write!(out, "{:>12}", "-");
                }
            }
            let _ = writeln!(out);
        }
    }
    out
}

/// Render the headline summary (abstract numbers).
#[must_use]
pub fn format_headline(h: &Headline, factor: &EipcFactor) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Headline (paper: MMX 2.1x, MOM 3.3x; degradation 30% / 15%) =="
    );
    let _ = writeln!(
        out,
        "baseline 1-thread MMX IPC          : {:.2}",
        h.baseline_ipc
    );
    let _ = writeln!(
        out,
        "SMT+MMX 8-thread speedup           : {:.2}x",
        h.mmx_speedup
    );
    let _ = writeln!(
        out,
        "SMT+MOM 8-thread EIPC speedup      : {:.2}x",
        h.mom_speedup
    );
    let _ = writeln!(
        out,
        "MMX degradation vs ideal memory    : {:.0}%",
        h.mmx_degradation * 100.0
    );
    let _ = writeln!(
        out,
        "MOM degradation vs ideal memory    : {:.0}%",
        h.mom_degradation * 100.0
    );
    let _ = writeln!(
        out,
        "workload instruction ratio I_MMX/I_MOM: {:.2} (paper 1.31)",
        factor.ratio()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use medsim_cpu::FetchPolicy;
    use medsim_mem::HierarchyKind;

    fn fake_curve(isa: SimdIsa) -> Curve {
        Curve {
            isa,
            hierarchy: HierarchyKind::Ideal,
            policy: FetchPolicy::RoundRobin,
            points: THREAD_COUNTS.iter().map(|&t| (t, t as f64)).collect(),
            runs: Vec::new(),
        }
    }

    #[test]
    fn curves_table_contains_all_columns() {
        let s = format_curves(
            "Figure 4",
            &[fake_curve(SimdIsa::Mmx), fake_curve(SimdIsa::Mom)],
        );
        assert!(s.contains("Figure 4"));
        assert!(s.contains("MMX"));
        assert!(s.contains("MOM"));
        assert!(s.contains("8 thr"));
        assert_eq!(s.lines().count(), 4, "title + header + 2 curves");
    }

    #[test]
    fn cmp_curves_table_contains_core_columns() {
        let curve = CmpCurve {
            isa: SimdIsa::Mom,
            threads: 2,
            hierarchy: HierarchyKind::Conventional,
            points: CORE_COUNTS.iter().map(|&c| (c, c as f64)).collect(),
            runs: Vec::new(),
        };
        let s = format_cmp_curves("CMP scaling", &[curve]);
        assert!(s.contains("CMP scaling"));
        assert!(s.contains("4 core"));
        assert!(s.contains("2thr/core"));
        assert_eq!(s.lines().count(), 3, "title + header + 1 curve");
    }

    #[test]
    fn table2_lists_all_programs() {
        let s = format_table2();
        for b in Benchmark::ALL {
            assert!(s.contains(b.name()), "{}", b.name());
        }
        assert!(
            s.contains("mpeg2dec x2"),
            "MPEG-2 decode appears twice in the list"
        );
    }

    #[test]
    fn headline_mentions_paper_targets() {
        let h = Headline {
            baseline_ipc: 2.4,
            mmx_speedup: 2.1,
            mom_speedup: 3.3,
            mmx_degradation: 0.3,
            mom_degradation: 0.15,
        };
        let f = EipcFactor {
            mmx_insts: 1429,
            mom_insts: 1087,
        };
        let s = format_headline(&h, &f);
        assert!(s.contains("2.10x"));
        assert!(s.contains("3.30x"));
        assert!(s.contains("1.31"));
    }

    #[test]
    fn decoupled_sweep_renders_ipc_and_roofline_side_by_side() {
        use crate::sim::SimConfig;
        let config = SimConfig::new(SimdIsa::Mom, 4);
        let cpu = medsim_cpu::Cpu::new(
            medsim_cpu::CpuConfig::paper(4, SimdIsa::Mom),
            medsim_mem::MemSystem::new(medsim_mem::MemConfig::ideal()),
        );
        let mut coupled = crate::metrics::RunResult::collect(&config, &cpu);
        coupled.cycles = 1000;
        coupled.committed = 2400;
        coupled.dram_bytes = 2000;
        let mut decoupled = coupled.clone();
        decoupled.cycles = 800;
        decoupled.vfetch.runahead_elems = 512;
        let row = DecoupleRow {
            isa: SimdIsa::Mom,
            hierarchy: HierarchyKind::Conventional,
            threads: 4,
            peak_bytes_per_cycle: 4.0,
            coupled,
            decoupled,
        };
        let s = format_decoupled_sweep(&[row]);
        assert!(s.contains("roof off"), "{s}");
        assert!(s.contains("2.40"), "coupled IPC: {s}");
        assert!(s.contains("3.00"), "decoupled IPC: {s}");
        assert!(s.contains("1.25x"), "speedup: {s}");
        assert!(s.contains("50.0%"), "coupled roofline fraction: {s}");
        assert!(s.contains("62.5%"), "decoupled roofline fraction: {s}");
        assert!(s.contains("512"), "run-ahead elements: {s}");
    }
}
