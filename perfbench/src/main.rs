//! The letdma benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <table1|explore|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the named workload's inputs from the seed, runs its closed loop
//! for the given wall clock, checks every output, and prints one JSON
//! result line last: the end-to-end metrics with `--trace 0`, the per-layer
//! ledger with `--trace 1` (which also writes a Chrome trace under
//! `perfbench/traces/`). See `perfbench/README.md`.

mod explore;
mod harness;
mod serve;
mod stats;
mod table1;
mod trace;

use std::process::ExitCode;

use harness::Args;

fn main() -> ExitCode {
    let result =
        Args::parse(std::env::args().skip(1)).and_then(|args| match args.workload.as_str() {
            "table1" => harness::run::<table1::Table1>(&args),
            "explore" => harness::run::<explore::Explore>(&args),
            "serve" => harness::run::<serve::Serve>(&args),
            other => Err(format!(
                "unknown workload {other:?} (table1, explore or serve)"
            )),
        });
    match result {
        Ok(lines) => {
            for line in lines {
                println!("{line}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
