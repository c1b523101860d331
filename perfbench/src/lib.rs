//! End-to-end benchmark of the TMO simulator.
//!
//! The benchmark drives the repository's crates through their public
//! functions only. Its layers are the crates: every span it records
//! wraps one call into a crate, made from the benchmark's own files.
//! See `README.md` for the workloads, the metrics and how to read a
//! traced run.

// A timing harness reads the host clock by design; it never feeds a
// clock reading back into a simulation, and the output digests checked
// on every run would show it if it did.
#![allow(clippy::disallowed_methods)]

pub mod host;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workload;
