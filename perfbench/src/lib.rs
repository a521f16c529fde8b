//! A seeded, answer-checked benchmark of the shiftsplit stack: bulk
//! ingest, pool-resident and out-of-pool serving over TCP, and live
//! updates beside reads. See `README.md` beside this crate for the
//! workloads, the metrics and how to run it.

pub mod gen;
pub mod load;
pub mod oracle;
pub mod replay;
pub mod report;
pub mod span;
pub mod stack;
pub mod timed;
pub mod workload;
