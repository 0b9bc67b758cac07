//! Golden result digests for the CMP machine.
//!
//! Each case runs one shared-L2 machine at a fixed small scale and seed
//! and compares the digest of its architectural outcome against a value
//! pinned when the machine still had a second, quantum-parallel
//! schedule proven bitwise identical to the serial one. The table is
//! the oracle that replaced that differential proof: any change to the
//! pipeline or the memory system that moves a CMP result fails here.
//! A change that moves results on purpose must re-pin the table (the
//! failure message lists every case's new digest) and say so.
//!
//! The environment-defaulted inputs that change results (`decouple`
//! and its depth) are pinned, so the CI knob axes re-run this suite
//! without moving a digest.

mod common;

use medsim::core::frontend::{Frontend, JobBudget};
use medsim::core::runner::TraceCache;
use medsim::core::sim::{SimConfig, Simulation};
use medsim::mem::HierarchyKind;
use medsim::workloads::trace::SimdIsa;
use medsim::workloads::WorkloadSpec;

/// One case: `(cores, threads, hierarchy, isa, decouple)`.
type Case = (usize, usize, HierarchyKind, SimdIsa, bool);

/// The pinned cases and the digest of each run.
const GOLDEN: &[(Case, u64)] = &[
    (
        (2, 1, HierarchyKind::Conventional, SimdIsa::Mmx, false),
        0xdf068692330ccffb,
    ),
    (
        (2, 1, HierarchyKind::Conventional, SimdIsa::Mom, false),
        0x892b443d8ecc0aff,
    ),
    (
        (2, 1, HierarchyKind::Decoupled, SimdIsa::Mmx, false),
        0x386649f4180f7ef2,
    ),
    (
        (2, 1, HierarchyKind::Decoupled, SimdIsa::Mom, false),
        0x7d0bc7d47db0005f,
    ),
    (
        (2, 2, HierarchyKind::Conventional, SimdIsa::Mmx, false),
        0x64eb05f3cd0301de,
    ),
    (
        (2, 2, HierarchyKind::Conventional, SimdIsa::Mom, false),
        0xffc8a26e4d7b2660,
    ),
    (
        (2, 2, HierarchyKind::Decoupled, SimdIsa::Mmx, false),
        0x7ac1e20504d00d87,
    ),
    (
        (2, 2, HierarchyKind::Decoupled, SimdIsa::Mom, false),
        0x738199cdf435b0e5,
    ),
    (
        (4, 1, HierarchyKind::Conventional, SimdIsa::Mmx, false),
        0xbeeae328157e7171,
    ),
    (
        (4, 1, HierarchyKind::Conventional, SimdIsa::Mom, false),
        0x86ae03d4bcf8c77a,
    ),
    (
        (4, 1, HierarchyKind::Decoupled, SimdIsa::Mmx, false),
        0x897d9f9e2e20f834,
    ),
    (
        (4, 1, HierarchyKind::Decoupled, SimdIsa::Mom, false),
        0xfa98100323a7dc55,
    ),
    (
        (4, 2, HierarchyKind::Conventional, SimdIsa::Mmx, false),
        0x24f873d6edf6bc77,
    ),
    (
        (4, 2, HierarchyKind::Conventional, SimdIsa::Mom, false),
        0x500892134165f674,
    ),
    (
        (4, 2, HierarchyKind::Decoupled, SimdIsa::Mmx, false),
        0xbbe0ecd198fd46d3,
    ),
    (
        (4, 2, HierarchyKind::Decoupled, SimdIsa::Mom, false),
        0x47946e7801709981,
    ),
    // The decoupled vector-fetch unit on a CMP: run-ahead stream issues
    // share the L2 with the other cores' traffic.
    (
        (4, 2, HierarchyKind::Decoupled, SimdIsa::Mom, true),
        0x70931297f1b6003a,
    ),
];

fn config(
    cores: usize,
    threads: usize,
    h: HierarchyKind,
    isa: SimdIsa,
    decouple: bool,
) -> SimConfig {
    SimConfig::new(isa, threads)
        .with_cores(cores)
        .with_hierarchy(h)
        .with_decouple(decouple)
        .with_decouple_depth(8)
        .with_spec(WorkloadSpec {
            scale: 2.0e-5,
            seed: 0x5eed_2001,
        })
}

#[test]
fn cmp_results_match_their_golden_digests() {
    let cache = TraceCache::from_env();
    // Sharded frontends with producers to spare: the supply path must
    // not move a digest either.
    let budget = JobBudget::new(4);
    let mut wrong = Vec::new();
    for &((cores, threads, h, isa, decouple), want) in GOLDEN {
        let cfg = config(cores, threads, h, isa, decouple);
        let r = Simulation::run_fronted(&cfg, &cache, &Frontend::sharded_with(&budget));
        if decouple {
            assert!(
                r.vfetch.runahead_elems > 0,
                "the decoupled case must run ahead"
            );
        }
        let got = common::run_digest(&r);
        if got != want {
            wrong.push(format!(
                "    (({cores}, {threads}, HierarchyKind::{h:?}, SimdIsa::{isa:?}, {decouple}), {got:#018x}),"
            ));
        }
    }
    assert!(
        wrong.is_empty(),
        "{} of {} CMP digests moved; the current values are:\n{}",
        wrong.len(),
        GOLDEN.len(),
        wrong.join("\n")
    );
}
