//! End-to-end and per-layer benchmark of the CABLE workspace.
//!
//! Three workloads drive the program's public API from outside:
//!
//! - [`encode`]: `CompressedLink::request_batch` for CABLE+LBE on dealII —
//!   the codec search path, no simulator;
//! - [`mesh`]: `FabricSim::run_sharded` on the 71-chip mcf fabric with two
//!   workers — the sharded engine and fabric set-up;
//! - [`starved`]: `run_group_telemetry` at 2048 threads on mcf, both
//!   Uncompressed and CABLE+LBE, then the report flow — the paper's
//!   bandwidth-starved regime.
//!
//! An untraced run reports the [`metrics::END_TO_END`] metrics; a traced
//! run reports the [`metrics::PER_LAYER`] metrics from in-memory spans
//! ([`spans`]). `NOTES.md` explains the choices.

#![forbid(unsafe_code)]

pub mod clock;
pub mod encode;
pub mod mesh;
pub mod metrics;
pub mod spans;
pub mod starved;

use metrics::Metrics;
use spans::{Tracer, LAYERS};

/// The workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["encode", "mesh", "starved"];

/// How much work a run does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// Full size, scaled so the timed region lasts about this many
    /// seconds on a 2-core x86 host.
    Seconds(u64),
    /// A few milliseconds of work, for the benchmark's own tests.
    Tiny,
}

/// Arguments of one run.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Workload seed (reaches `WorkloadGen::new` in `encode` only).
    pub seed: u64,
    /// Work per run.
    pub size: Size,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// What one run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations (simulated or encoded accesses) attempted.
    pub attempted: u64,
    /// Messages of the output checks that failed.
    pub failures: Vec<String>,
    /// Measured values.
    pub metrics: Metrics,
    /// Canonical text of every simulated output; its digest must not
    /// depend on host speed, worker count or tracing.
    pub sim_outputs: String,
    /// Workload parameters, for provenance.
    pub params: Vec<(&'static str, String)>,
    /// Spans of the traced pass (empty for untraced runs).
    pub spans: Option<Tracer>,
}

impl Outcome {
    /// Records a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Adds one simulated output to the digest text.
    pub fn sim(&mut self, name: &str, value: impl std::fmt::Debug) {
        use std::fmt::Write as _;
        let _ = writeln!(self.sim_outputs, "{name}={value:?}");
    }

    /// Sets the per-layer attribution metrics from a traced pass.
    pub fn attribute(&mut self, tr: &Tracer) {
        let (wall, layers) = tr.attribute();
        let wall_s = wall as f64 * 1e-9;
        self.metrics.set("traced_wall_s", wall_s);
        for (layer, ns) in LAYERS.iter().zip(layers) {
            let s = ns as f64 * 1e-9;
            self.metrics.set(format!("{layer}.self_s"), s);
            self.metrics
                .set(format!("{layer}.share"), metrics::ratio(s, wall_s));
        }
    }

    /// Sets the tracing-overhead metrics from the untraced and traced
    /// rates of the same timed work.
    pub fn tracing_overhead(&mut self, untraced: f64, traced: f64) {
        self.metrics.set("tracing.untraced_acc_per_s", untraced);
        self.metrics.set("tracing.traced_acc_per_s", traced);
        self.metrics.set(
            "tracing.overhead_share",
            1.0 - metrics::ratio(traced, untraced),
        );
    }
}

/// Runs `workload`.
///
/// # Errors
///
/// Unknown workload names.
pub fn run(workload: &str, cfg: &RunConfig) -> Result<Outcome, String> {
    match workload {
        "encode" => Ok(encode::run(cfg)),
        "mesh" => Ok(mesh::run(cfg)),
        "starved" => Ok(starved::run(cfg)),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Sets the `core.link` count metrics from link statistics.
pub fn link_layer_metrics(out: &mut Outcome, s: &cable_core::LinkStats) {
    let m = &mut out.metrics;
    m.set("core.link.diff_transfers", s.diff_transfers as f64);
    m.set("core.link.raw_transfers", s.raw_transfers as f64);
    m.set("core.link.unseeded_transfers", s.unseeded_transfers as f64);
    m.set("core.link.remote_hits", s.remote_hits as f64);
    m.set(
        "core.link.data_array_reads_per_fill",
        metrics::ratio(s.data_array_reads as f64, s.fills as f64),
    );
    m.set(
        "core.link.diff_yield",
        metrics::ratio(s.diff_transfers as f64, s.fills as f64),
    );
}

/// Sets `setup_s` and `peak_rss_mib`, the end-to-end metrics every
/// workload measures the same way.
pub fn common_end_to_end(out: &mut Outcome, setup_norm_s: &[f64]) {
    out.metrics.set("setup_s", metrics::median(setup_norm_s));
    match peak_rss_mib() {
        Ok(mib) => out.metrics.set("peak_rss_mib", mib),
        Err(e) => out.failures.push(e),
    }
}
