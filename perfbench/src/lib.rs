//! Benchmark driver for the WCET analyzer: seeded inputs, drift-normalised
//! timing, in-memory spans and the three workloads (see `README.md`).

pub mod analysis;
pub mod clock;
pub mod gen;
pub mod metrics;
pub mod serve;
pub mod stats;
pub mod trace;
