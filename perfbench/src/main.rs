//! Benchmark runner.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <encode|mesh|starved> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Prints provenance, the simulated-output digest, any failed check and
//! every metric on stdout, and as the last line one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`. A traced run also
//! writes its spans to `perfbench/out/spans-<workload>.jsonl`.

use cable_perfbench::metrics::{digest, END_TO_END, PER_LAYER};
use cable_perfbench::{run, RunConfig, Size, WORKLOADS};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, ExitCode};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> String {
    format!(
        "usage: --workload <{}> --seed <u64> --seconds <1..=60> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(1..=60).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 1..=60"));
    }
    let trace = match trace.ok_or("missing --trace")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace {t} must be 0 or 1")),
    };
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace,
    })
}

/// First line of a command's stdout, or `unavailable`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unavailable".to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unavailable".to_string())
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let cfg = RunConfig {
        seed: args.seed,
        size: Size::Seconds(args.seconds),
        trace: args.trace,
    };
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "provenance {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host_cores\": {cores}, \"cpu\": {}, \"rustc\": {}, \"git\": {}, \"build_profile\": \"{profile}\"}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        json_str(&cpu_model()),
        json_str(&command_line("rustc", &["-V"])),
        json_str(&command_line("git", &["describe", "--always", "--dirty", "--tags"])),
    );

    let outcome = match catch_unwind(AssertUnwindSafe(|| run(&args.workload, &cfg))) {
        Ok(Ok(o)) => o,
        Ok(Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
        Err(_) => {
            println!("check failed: the run panicked (see stderr)");
            println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
            return ExitCode::SUCCESS;
        }
    };

    let params: Vec<String> = outcome
        .params
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    println!("params {{{}}}", params.join(", "));
    println!("sim_digest {:016x}", digest(&outcome.sim_outputs));
    let mut failures = outcome.failures.clone();
    if let Some(tr) = &outcome.spans {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/spans-{}.jsonl", args.workload);
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tr.to_jsonl())) {
            Ok(()) => println!("spans {} written to {path}", tr.spans().len()),
            Err(e) => failures.push(format!("cannot write {path}: {e}")),
        }
    }
    for f in &failures {
        println!("check failed: {f}");
    }
    let (defs, zero_missing) = if args.trace {
        (PER_LAYER, true)
    } else {
        (END_TO_END, false)
    };
    for d in defs {
        let value = outcome.metrics.get(d.name).unwrap_or(0.0);
        println!("metric {:<44} {value:>16.6} {}", d.name, d.unit);
    }
    let metrics = match outcome.metrics.to_json(defs, zero_missing) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(3);
        }
    };
    let correct = failures.is_empty();
    let attempted = outcome.attempted.max(1);
    let failed = if correct { 0 } else { attempted };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}"
    );
    ExitCode::SUCCESS
}
