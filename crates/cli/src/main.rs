//! `cable` — command-line interface to the CABLE link-compression library.
//!
//! ```text
//! cable workloads                       list the synthetic benchmarks
//! cable bench <workload> [n]           per-scheme compression ratios
//! cable record <workload> <n> <file>   capture a trace (CBTR format)
//! cable replay <file>                  evaluate schemes on a trace
//! cable throughput <workload> [threads] Fig. 14-style speedups
//! cable area                           Table III-style area report
//! ```

mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", commands::USAGE_HINT);
            ExitCode::FAILURE
        }
    }
}
