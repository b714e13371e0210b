//! The metric catalogue and the result record of one run.
//!
//! `BENCHMARK.json` at the repository root must list exactly the metrics
//! below, with the same units and directions (a test checks it). Bounds
//! live only in `BENCHMARK.json`.

use std::fmt::Write as _;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric of the catalogue.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit label.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// Metrics of an untraced run (`--trace 0`), printed for every workload.
pub const END_TO_END: &[MetricDef] = &[
    m("host_acc_per_s", "acc/s", Higher),
    m("setup_s", "s", Lower),
    m("peak_rss_mib", "MiB", Lower),
    m("sim_wire_bits_per_access", "bits/acc", Lower),
];

/// Metrics of a traced run (`--trace 1`). A workload that does not reach
/// a layer reports its metrics as 0.
pub const PER_LAYER: &[MetricDef] = &[
    // Attribution of the traced pass: self time and share per layer.
    m("traced_wall_s", "s", Lower),
    m("trace.gen.self_s", "s", Lower),
    m("trace.gen.share", "ratio", Lower),
    m("core.link.self_s", "s", Lower),
    m("core.link.share", "ratio", Lower),
    m("sim.fabric.self_s", "s", Lower),
    m("sim.fabric.share", "ratio", Lower),
    m("sim.shard.self_s", "s", Lower),
    m("sim.shard.share", "ratio", Lower),
    m("sim.throughput.self_s", "s", Lower),
    m("sim.throughput.share", "ratio", Lower),
    m("sim.resources.self_s", "s", Lower),
    m("sim.resources.share", "ratio", Lower),
    m("telemetry.self_s", "s", Lower),
    m("telemetry.share", "ratio", Lower),
    m("bench.self_s", "s", Lower),
    m("bench.share", "ratio", Lower),
    m("unattributed.self_s", "s", Lower),
    m("unattributed.share", "ratio", Lower),
    // Tracing overhead: the same timed work with and without spans.
    m("tracing.untraced_acc_per_s", "acc/s", Higher),
    m("tracing.traced_acc_per_s", "acc/s", Higher),
    m("tracing.overhead_share", "ratio", Lower),
    // Host speed behind the scaled times.
    m("host.raw_acc_per_s", "acc/s", Higher),
    m("host.speed", "ratio", Higher),
    // core.link (encode, mesh).
    m("core.link.ns_per_access", "ns", Lower),
    m("core.link.diff_transfers", "count", Higher),
    m("core.link.raw_transfers", "count", Lower),
    m("core.link.unseeded_transfers", "count", Lower),
    m("core.link.remote_hits", "count", Higher),
    m("core.link.data_array_reads_per_fill", "reads/fill", Lower),
    m("core.link.diff_yield", "ratio", Higher),
    // sim.fabric and sim.shard (mesh).
    m("sim.fabric.construct_s", "s", Lower),
    m("sim.fabric.hop_busy_max_permille", "permille", Lower),
    m("sim.shard.run_s", "s", Lower),
    m("sim.shard.slice_p50_ms", "ms", Lower),
    m("sim.shard.slice_p99_ms", "ms", Lower),
    m("sim.shard.speedup_vs_1w", "ratio", Higher),
    // Simulated-time results (mesh, starved).
    m("sim_ips", "inst/s", Higher),
    m("sim_speedup", "ratio", Higher),
    m("sim_lat_mean_ps", "ps", Lower),
    // sim.throughput and sim.resources (starved).
    m("sim.throughput.warm_s", "s", Lower),
    m("sim.throughput.run_s.cable", "s", Lower),
    m("sim.throughput.run_s.uncompressed", "s", Lower),
    m("sim.resources.queue_mean_ps.cable", "ps", Lower),
    m("sim.resources.queue_mean_ps.uncompressed", "ps", Lower),
    m("sim.resources.queue_p99_ps.cable", "ps", Lower),
    m("sim.resources.queue_p99_ps.uncompressed", "ps", Lower),
    m("sim.resources.dram_p99_ps.cable", "ps", Lower),
    m("sim.resources.dram_p99_ps.uncompressed", "ps", Lower),
    m("sim.resources.total_p99_ps.cable", "ps", Lower),
    m("sim.resources.total_p99_ps.uncompressed", "ps", Lower),
    // telemetry (starved).
    m("telemetry.overhead_share", "ratio", Lower),
    m("telemetry.events_recorded", "count", Higher),
    m("telemetry.events_dropped", "count", Lower),
    m("telemetry.drop_ratio", "ratio", Lower),
    m("telemetry.from_telemetry_s", "s", Lower),
    m("telemetry.export_jsonl_s", "s", Lower),
    m("telemetry.from_jsonl_s", "s", Lower),
    m("telemetry.slo_check_s", "s", Lower),
];

/// Named values gathered by a workload.
#[derive(Clone, Debug, Default)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    /// Sets `name` to `value` (last write wins).
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    /// The value of `name`, if set.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// The `"metrics"` JSON object over `defs`, in catalogue order. Set
    /// metrics outside `defs` are left out; metrics the workload did not
    /// set read 0 when `zero_missing`.
    ///
    /// # Errors
    ///
    /// Names a metric that is in no catalogue (a misspelt name), unset and
    /// not zero-filled, or not a finite number.
    pub fn to_json(&self, defs: &[MetricDef], zero_missing: bool) -> Result<String, String> {
        let known = |n: &str| END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == n);
        if let Some((extra, _)) = self.0.iter().find(|(n, _)| !known(n)) {
            return Err(format!("metric `{extra}` is not in the catalogue"));
        }
        let mut out = String::from("{");
        for (i, d) in defs.iter().enumerate() {
            let value = match self.get(d.name) {
                Some(v) => v,
                None if zero_missing => 0.0,
                None => return Err(format!("metric `{}` was not measured", d.name)),
            };
            if !value.is_finite() {
                return Err(format!("metric `{}` is not finite ({value})", d.name));
            }
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                d.name, value, d.unit
            );
        }
        out.push('}');
        Ok(out)
    }
}

/// The median of `values` (mean of the middle pair for even lengths);
/// 0 for an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The nearest-rank `q`-quantile of `values` (`0 < q <= 1`); 0 for an
/// empty slice.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Ratio of two counts, 0 when the denominator is 0.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// FNV-1a over `text`: the digest of a run's simulated outputs.
#[must_use]
pub fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.99), 4.0);
    }

    #[test]
    fn json_rejects_unknown_missing_and_nonfinite() {
        let mut m = Metrics::default();
        m.set("setup_s", 1.5);
        assert!(m.to_json(END_TO_END, false).is_err());
        assert!(m
            .to_json(END_TO_END, true)
            .unwrap()
            .contains("\"setup_s\": {\"value\": 1.5"));
        m.set("nope", 1.0);
        assert!(m.to_json(END_TO_END, true).is_err());
        let mut bad = Metrics::default();
        bad.set("setup_s", f64::NAN);
        assert!(bad.to_json(END_TO_END, true).is_err());
    }
}
