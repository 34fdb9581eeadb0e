#![forbid(unsafe_code)]
#![deny(missing_docs)]
//! The repository benchmark: seeded workloads driven against the serving
//! stack from outside, with end-to-end metrics, per-layer metrics from a
//! traced run, and a correctness gate on every reply.
//!
//! Run one workload with
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- --workload <name> --seed <n> --seconds <s> --trace <0|1>`;
//! `BENCHMARK.json` at the repository root declares the workloads and
//! metrics, and `perfbench/README.md` says why each exists.

pub mod gate;
pub mod gen;
pub mod host;
pub mod layers;
pub mod quantile;
pub mod report;
pub mod tally;
pub mod trace;
pub mod workloads;
