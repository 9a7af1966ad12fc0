//! The repository benchmark: four seeded workloads driven through the
//! public API of the simulator and the chaos executor, end-to-end host
//! and virtual-time metrics, per-layer counts and probes, and a traced
//! run with benchmark-side spans. See `README.md` in this directory.

pub mod clock;
pub mod probes;
pub mod report;
pub mod speed;
pub mod workloads;
