//! # iwscan — the command-line front end
//!
//! A small, dependency-free argument layer over the library: build a
//! world, scan it, probe single hosts, export traces. Run
//! `iwscan help` for usage. The parsing lives in the library so it can
//! be unit-tested; `main.rs` is a thin shell.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod commands;
pub mod output;

pub use args::{Cli, Command, ParseError};

/// Entry point shared by the binary and tests: parse and dispatch.
pub fn run(argv: &[String]) -> Result<i32, String> {
    let cli = match args::Cli::parse(argv) {
        Ok(cli) => cli,
        Err(ParseError::HelpRequested) => {
            iw_core::telemetry::print_line(args::USAGE);
            return Ok(0);
        }
        Err(e) => return Err(format!("{e}\n\n{}", args::USAGE)),
    };
    commands::dispatch(&cli).map_err(|e| e.to_string())
}
