//! The API fence: every call into the repo's crates lives under this
//! module, so a PR that moves modules or reshapes `Topology` has one place
//! to look and the rest of `iwbench` deals in plain data.
//!
//! * [`campaign`] — build and run whole campaigns through the public
//!   runner API (`ScanRunner`), census the ground truth;
//! * [`traced`] — the same campaign re-driven through `Sim` with timing
//!   shims around every call into `core`, `hoststack` and `internet`;
//! * [`layers`] — micro-drivers over each layer's public functions.

pub mod campaign;
mod churn;
pub mod layers;
pub mod traced;
