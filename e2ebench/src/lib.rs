//! The end-to-end and per-layer benchmark of the `decisive` toolchain.
//!
//! Four seeded workloads exercise the four ways the tool is used: the
//! iterative design loop on System B (`design-loop`), a fleet sweep over
//! many models (`fleet-sweep`), Monte-Carlo reliability campaigns
//! (`montecarlo`) and a warm daemon serving independent tools
//! (`serve-mixed`). A timed run spawns the release `decisive` binary as a
//! user does and reports the end-to-end metrics; a traced run replays the
//! same operations in-process with harness-side spans and reports the
//! per-layer metrics. Every run checks the program's outputs against an
//! independent in-process route. See `README.md` for how to run it.

#![warn(missing_docs)]

pub mod compare;
pub mod inproc;
pub mod proc;
pub mod report;
pub mod rng;
pub mod stats;
pub mod subjects;
pub mod trace;
pub mod workloads;
