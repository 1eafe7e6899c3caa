//! # perfbench
//!
//! The repository's end-to-end and per-layer benchmark. `src/main.rs` runs
//! the workloads; this library holds the parts that are tested on their
//! own: the open-loop load generator, the order statistics and the CPU
//! clock.

pub mod cpu;
pub mod loadgen;
pub mod stats;
