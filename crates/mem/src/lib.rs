//! # medsim-mem — cycle-level memory hierarchy model
//!
//! Implements the memory system of *"DLP + TLP Processors for the Next
//! Generation of Media Workloads"* (HPCA 2001, §3):
//!
//! * **L1 data cache** — 32 KB, direct-mapped, write-through, 32-byte
//!   lines, interleaved among 8 banks, 1-cycle latency;
//! * **L1 instruction cache** — 64 KB, 2-way, 32-byte lines, 4 banks;
//! * **L2 cache** — 1 MB, 2-way, write-back, 128-byte lines, 12-cycle
//!   latency, on-chip (as in the Alpha 21364);
//! * **8 MSHRs** per cache and **8-deep coalescing write buffers** with a
//!   selective-flush policy;
//! * **Direct Rambus DRAM** — a DRDRAM controller driving 8 devices over
//!   a 128-bit (16-byte) 200 MHz bi-directional channel feeding an
//!   800 MHz processor: 3.2 GB/s peak = 4 bytes per CPU cycle;
//! * two **hierarchy organizations** (§5.4, figure 7): the conventional
//!   one (4 general-purpose L1 ports) and the *decoupled* one (2 scalar
//!   ports into L1 + 2 vector ports straight into a 2-banked L2 through a
//!   crossbar, with exclusive-bit coherence between the levels).
//!
//! The model is tick-free: requests are timed at issue using per-resource
//! reservation counters (ports, banks, MSHRs, DRAM channel), which
//! reproduces the contention phenomenology the paper studies — hit-rate
//! degradation under multithreading, latency growth from bank conflicts
//! and MSHR pressure, and bandwidth recovery from the decoupled
//! organization — while staying fast enough to sweep every experiment.
//!
//! ## Example
//!
//! ```
//! use medsim_mem::{AccessKind, MemConfig, MemRequest, MemSystem};
//!
//! let mut mem = MemSystem::new(MemConfig::paper());
//! let req = MemRequest { tid: 0, addr: 0x10_0000, size: 8, kind: AccessKind::ScalarLoad };
//! let reply = mem.request(0, req).expect("a port is free at cycle 0");
//! assert!(reply.done_at > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod cache;
pub mod config;
pub mod dram;
pub mod mshr;
pub mod stats;
pub mod system;
pub mod wbuf;

pub use backend::{L2Backend, SharedL2};
pub use cache::{Cache, CacheConfig, CacheModel};
pub use config::{HierarchyKind, MemConfig};
pub use dram::{Dram, DramConfig};
pub use mshr::MshrFile;
pub use stats::{CacheStats, MemStats};
pub use system::{AccessKind, MemReply, MemRequest, MemSystem, Stall, StreamReply, StreamRequest};
pub use wbuf::WriteBuffer;

/// Simulation time in CPU cycles.
pub type Cycle = u64;
