//! `iwbench`: how this repository's performance is measured.
//!
//! Whole campaigns through the public runner API in fresh child processes
//! give the end-to-end numbers ([`e2e`]); the same campaigns re-driven with
//! timing shims around every layer boundary, and micro-drivers over each
//! layer's public functions, give the per-layer numbers ([`perlayer`]).
//! Every call into the repo's crates is under [`adapter`]; the rest deals
//! in plain data. See `README.md` for the metric and workload tables.

#![forbid(unsafe_code)]

pub mod adapter;
pub mod check;
pub mod cli;
pub mod e2e;
pub mod json;
pub mod measure;
pub mod perlayer;
pub mod report;
pub mod spec;
pub mod sys;
