//! End-to-end CVS benchmark for trusted-cvs: real `tcvs_cvs::Cvs`
//! commands (`checkout`, `commit`, `log`) from two closed-loop users,
//! through verifying `NetClient1`/`NetClient2` handles, a `NetServer`, and
//! a `DurableServer` over fsync'd `DurableStorage<FileMedium>`.
//!
//! See `README.md` beside this crate for the workloads, the metrics, and
//! what each per-layer number should move.

pub mod layers;
pub mod report;
pub mod rig;
pub mod workload;
