//! Benchmark of the OctoCache mapping system; see `README.md`.

pub mod drive;
pub mod run;
pub mod stats;
pub mod workload;
