//! `starved`: the paper's bandwidth-starved regime (Fig. 14b).
//!
//! One group of eight mcf threads in a 2048-thread system shares 1/256 of
//! the quad-channel link, once uncompressed and once with CABLE+LBE, with
//! telemetry enabled. Each run is followed by the user's report flow:
//! `Report::from_telemetry`, `jsonl` export, `Report::from_jsonl` and an
//! `SloSpec::check`. The timed region includes the group warm-up, because
//! no public call separates it from the measured run.

use crate::clock::{HostClock, Lap};
use crate::metrics::{median, ratio};
use crate::spans::Tracer;
use crate::{common_end_to_end, Outcome, RunConfig, Size};
use cable_compress::EngineKind;
use cable_sim::{run_group_telemetry, Scheme, SimArena, SystemConfig, ThroughputResult};
use cable_telemetry::{jsonl, HistogramReport, Report, SloSpec, Telemetry, LATENCY_SPAN_STAGES};

/// The simulated workload profile.
pub const PROFILE: &str = "mcf";

/// Modelled system size: 256 groups of eight share the link.
pub const THREADS: usize = 2048;

/// The SLO gate of the report flow. CABLE+LBE meets it at full size;
/// Uncompressed, queueing on the starved link, does not.
pub const SLO: &str = "total.p99<=1_000_000_ps";

/// The compared schemes, their metric-name suffixes and the spans of
/// their simulations.
const SCHEMES: [(Scheme, &str, &str); 2] = [
    (
        Scheme::Uncompressed,
        "uncompressed",
        "sim.throughput.run_group_telemetry.uncompressed",
    ),
    (
        Scheme::Cable(EngineKind::Lbe),
        "cable",
        "sim.throughput.run_group_telemetry.cable",
    ),
];

struct Plan {
    warm: u64,
    instrs: u64,
    iterations: u64,
    setup_reps: usize,
}

fn plan(size: Size) -> Plan {
    match size {
        Size::Seconds(s) => Plan {
            warm: 20_000,
            instrs: 10_000,
            iterations: (s * 7 / 10).max(3),
            setup_reps: 3,
        },
        Size::Tiny => Plan {
            warm: 1_000,
            instrs: 2_000,
            iterations: 1,
            setup_reps: 1,
        },
    }
}

/// What a user builds before the first simulation: the profile, the
/// system configuration, the SLO gate and one telemetry handle per scheme.
struct Setup {
    profile: &'static cable_trace::WorkloadProfile,
    config: SystemConfig,
    slo: SloSpec,
    tels: [Telemetry; 2],
}

fn setup() -> Setup {
    Setup {
        profile: cable_trace::by_name(PROFILE).expect("mcf is a built-in profile"),
        config: SystemConfig::paper_defaults(),
        slo: SloSpec::parse(SLO).expect("the SLO spec is well formed"),
        tels: [Telemetry::enabled(), Telemetry::enabled()],
    }
}

/// One scheme's simulation and report flow.
struct SchemeRun {
    result: ThroughputResult,
    live: Report,
    parsed: Report,
    live_breaches: Result<Vec<(String, u64)>, String>,
    breaches: Result<Vec<(String, u64)>, String>,
    wire_bits: u64,
    events: u64,
    dropped: u64,
}

struct Iteration {
    runs: Vec<SchemeRun>,
    accesses: u64,
    /// Every timed call's lap, in call order.
    laps: Vec<Lap>,
}

/// Runs `f` as one timed call inside a span named `name`, adding its lap
/// to the iteration.
fn timed<T>(
    it: &mut Iteration,
    clock: &mut HostClock,
    tr: &mut Tracer,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    let (out, lap) = clock.time(tr, |tr| tr.span(name, |_| f()));
    it.laps.push(lap);
    out
}

/// Both schemes' simulations and report flows on fresh telemetry from
/// `set`, each call timed on `clock`.
fn iteration(
    set: &Setup,
    warm: u64,
    instrs: u64,
    clock: &mut HostClock,
    tr: &mut Tracer,
) -> Iteration {
    let mut it = Iteration {
        runs: Vec::new(),
        accesses: 0,
        laps: Vec::new(),
    };
    for ((scheme, _, run_span), tel) in SCHEMES.iter().zip(&set.tels) {
        let result = timed(&mut it, clock, tr, run_span, || {
            run_group_telemetry(
                set.profile,
                *scheme,
                THREADS,
                warm,
                instrs,
                &set.config,
                tel,
            )
        });
        let live = timed(&mut it, clock, tr, "telemetry.from_telemetry", || {
            Report::from_telemetry(tel)
        });
        let text = timed(&mut it, clock, tr, "telemetry.export_jsonl", || jsonl(tel));
        let parsed = timed(&mut it, clock, tr, "telemetry.from_jsonl", || {
            Report::from_jsonl(&text)
        })
        .unwrap_or_else(|e| panic!("exported trace does not parse: {e}"));
        let breaches = timed(&mut it, clock, tr, "telemetry.slo_check", || {
            set.slo.check(&parsed)
        });
        let run = SchemeRun {
            result,
            live_breaches: set.slo.check(&live),
            breaches,
            wire_bits: tel.snapshot().counter("link.wire_bits").unwrap_or(0),
            events: tel.events().len() as u64,
            dropped: tel.dropped_events(),
            live,
            parsed,
        };
        it.accesses += latency(&run.parsed, *scheme, "total").map_or(0, |h| h.count);
        it.runs.push(run);
    }
    it
}

/// Both schemes with telemetry disabled, for the telemetry overhead.
fn disabled_runs(set: &Setup, plan: &Plan, tr: &mut Tracer) -> Vec<ThroughputResult> {
    tr.span("sim.throughput.run_group_disabled", |_| {
        SCHEMES
            .iter()
            .map(|(scheme, _, _)| {
                let tel = Telemetry::disabled();
                run_group_telemetry(
                    set.profile,
                    *scheme,
                    THREADS,
                    plan.warm,
                    plan.instrs,
                    &set.config,
                    &tel,
                )
            })
            .collect()
    })
}

/// The `lat.<scheme>.measure.<stage>` histogram of a report.
fn latency<'a>(report: &'a Report, scheme: Scheme, stage: &str) -> Option<&'a HistogramReport> {
    let id = format!("lat.{}.measure.{stage}", scheme.label().replace('.', "-"));
    report.histograms.iter().find(|h| h.id == id)
}

fn mean(h: Option<&HistogramReport>) -> f64 {
    h.map_or(0.0, |h| ratio(h.sum as f64, h.count as f64))
}

/// Output checks of one iteration; returns its simulated-output text.
fn check(out: &mut Outcome, it: &Iteration) -> String {
    use std::fmt::Write as _;
    let mut sim = String::new();
    for ((scheme, key, _), run) in SCHEMES.iter().zip(&it.runs) {
        let Some(total) = latency(&run.parsed, *scheme, "total") else {
            out.failures
                .push(format!("{key}: no total latency histogram"));
            continue;
        };
        let mut stage_sum = 0u64;
        for stage in LATENCY_SPAN_STAGES {
            match latency(&run.parsed, *scheme, stage.as_str()) {
                Some(h) => {
                    out.check(h.count == total.count, || {
                        format!(
                            "{key}/{}: {} samples, total has {}",
                            stage.as_str(),
                            h.count,
                            total.count
                        )
                    });
                    stage_sum += h.sum;
                }
                None => out
                    .failures
                    .push(format!("{key}: no {} latency histogram", stage.as_str())),
            }
        }
        out.check(stage_sum == total.sum, || {
            format!("{key}: stage sums {stage_sum} != total sum {}", total.sum)
        });
        out.check(total.count > 0, || format!("{key}: no latency samples"));
        out.check(run.live.histograms == run.parsed.histograms, || {
            format!("{key}: histograms changed in the JSONL round trip")
        });
        out.check(run.breaches.is_ok(), || {
            format!("{key}: SLO check failed: {:?}", run.breaches)
        });
        out.check(run.breaches == run.live_breaches, || {
            format!("{key}: SLO verdict changed in the JSONL round trip")
        });
        let _ = writeln!(
            sim,
            "{key} result={:?} wire_bits={}",
            run.result, run.wire_bits
        );
        for h in run
            .parsed
            .histograms
            .iter()
            .filter(|h| h.id.starts_with("lat."))
        {
            let _ = writeln!(
                sim,
                "{} {} {} {} {} {} {}",
                h.id, h.count, h.sum, h.p50, h.p90, h.p99, h.p999
            );
        }
    }
    let queue = |i: usize| mean(latency(&it.runs[i].parsed, SCHEMES[i].0, "queue"));
    let (uncompressed, cable) = (queue(0), queue(1));
    out.check(uncompressed > 0.0 && uncompressed > cable, || {
        format!(
            "link is not starved: Uncompressed queue mean {uncompressed} ps, CABLE+LBE {cable} ps"
        )
    });
    sim
}

/// Host accesses per second of a pass: each call's median time over the
/// iterations, summed, so one slow call does not sink an iteration.
fn pass_rate(its: &[Iteration], time: impl Fn(&Lap) -> f64) -> f64 {
    let per_call: f64 = (0..its[0].laps.len())
        .map(|c| median(&its.iter().map(|it| time(&it.laps[c])).collect::<Vec<_>>()))
        .sum();
    ratio(its[0].accesses as f64, per_call)
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let plan = plan(cfg.size);
    let mut out = Outcome {
        params: vec![
            ("profile", PROFILE.to_string()),
            ("schemes", "Uncompressed, CABLE+LBE".to_string()),
            ("threads", THREADS.to_string()),
            ("warm_accesses_per_thread", plan.warm.to_string()),
            ("instructions_per_thread", plan.instrs.to_string()),
            ("iterations", plan.iterations.to_string()),
            ("slo", SLO.to_string()),
            (
                "seed",
                format!("{} (not used: instance ids are fixed)", cfg.seed),
            ),
        ],
        ..Outcome::default()
    };
    let mut clock = HostClock::new();
    let mut off = Tracer::new(false);
    // No public call separates set-up from the simulation, so set-up is
    // the user's handles plus one priming pass at a tenth of the budget,
    // which settles lazily built state before timing.
    let mut setups = Vec::new();
    for _ in 0..plan.setup_reps {
        let (set, lap) = clock.time(&mut off, |_| setup());
        let prime = iteration(&set, plan.warm / 10, plan.instrs / 10, &mut clock, &mut off);
        setups.push(lap.norm_s + prime.laps.iter().map(|l| l.norm_s).sum::<f64>());
    }

    let mut passes: Vec<Vec<Iteration>> = Vec::new();
    let mut sim_texts: Vec<String> = Vec::new();
    let mut disabled = Vec::new();
    let mut tr = Tracer::new(cfg.trace);
    for pass in 0..if cfg.trace { 2 } else { 1 } {
        let traced = pass == 1;
        let tr = if traced { &mut tr } else { &mut off };
        tr.enter("run");
        let mut its = Vec::new();
        for _ in 0..plan.iterations {
            let set = tr.span("telemetry.setup", |_| setup());
            let mut it = iteration(&set, plan.warm, plan.instrs, &mut clock, tr);
            tr.span("bench.check", |_| sim_texts.push(check(&mut out, &it)));
            if traced {
                disabled.push(disabled_runs(&set, &plan, tr));
            }
            // Only the first iteration's reports feed metrics; dropping
            // the rest keeps peak memory independent of the run length.
            if !passes.is_empty() || !its.is_empty() {
                it.runs.clear();
            }
            its.push(it);
        }
        if traced {
            let set = setup();
            tr.span("sim.throughput.warmed_group", |_| {
                SimArena::new().warmed_group(set.profile, SCHEMES[1].0, plan.warm, &set.config)
            });
        }
        tr.exit();
        passes.push(its);
    }

    out.check(sim_texts.windows(2).all(|w| w[0] == w[1]), || {
        "iterations disagree on simulated outputs".to_string()
    });
    out.sim_outputs = sim_texts.first().cloned().unwrap_or_default();
    for (d, run) in disabled
        .iter()
        .flatten()
        .zip(passes[0][0].runs.iter().cycle())
    {
        out.check(format!("{d:?}") == format!("{:?}", run.result), || {
            format!(
                "telemetry changed the simulation: {d:?} vs {:?}",
                run.result
            )
        });
    }

    let first_pass = &passes[0];
    out.attempted = first_pass.iter().map(|it| it.accesses).sum();
    let it = &first_pass[0];
    let cable = &it.runs[1];
    let cable_total = latency(&cable.parsed, SCHEMES[1].0, "total");
    out.metrics.set(
        "sim_wire_bits_per_access",
        ratio(
            cable.wire_bits as f64,
            cable_total.map_or(0, |h| h.count) as f64,
        ),
    );
    if cfg.trace {
        let traced = &passes[1];
        out.attribute(&tr);
        out.tracing_overhead(
            pass_rate(first_pass, |l| l.norm_s),
            pass_rate(traced, |l| l.norm_s),
        );
        out.metrics
            .set("host.raw_acc_per_s", pass_rate(first_pass, |l| l.raw_s));
        out.metrics.set("host.speed", median(clock.speeds()));
        let per_iteration = |name: &str| tr.total_ns(name) as f64 * 1e-9 / plan.iterations as f64;
        for (name, span) in [
            ("telemetry.from_telemetry_s", "telemetry.from_telemetry"),
            ("telemetry.export_jsonl_s", "telemetry.export_jsonl"),
            ("telemetry.from_jsonl_s", "telemetry.from_jsonl"),
            ("telemetry.slo_check_s", "telemetry.slo_check"),
        ] {
            out.metrics.set(name, per_iteration(span));
        }
        let mut enabled = 0.0;
        for ((scheme, key, run_span), run) in SCHEMES.iter().zip(&it.runs) {
            enabled += per_iteration(run_span);
            out.metrics.set(
                format!("sim.throughput.run_s.{key}"),
                per_iteration(run_span),
            );
            let h = |stage| latency(&run.parsed, *scheme, stage);
            let p99 = |stage| h(stage).map_or(0.0, |h| h.p99 as f64);
            let prefix = "sim.resources";
            out.metrics
                .set(format!("{prefix}.queue_mean_ps.{key}"), mean(h("queue")));
            out.metrics
                .set(format!("{prefix}.queue_p99_ps.{key}"), p99("queue"));
            out.metrics
                .set(format!("{prefix}.dram_p99_ps.{key}"), p99("dram"));
            out.metrics
                .set(format!("{prefix}.total_p99_ps.{key}"), p99("total"));
        }
        let disabled = per_iteration("sim.throughput.run_group_disabled");
        out.metrics
            .set("telemetry.overhead_share", 1.0 - ratio(disabled, enabled));
        out.metrics.set(
            "sim.throughput.warm_s",
            tr.total_ns("sim.throughput.warmed_group") as f64 * 1e-9,
        );
        out.metrics.set("sim_ips", cable.result.system_ips());
        out.metrics.set(
            "sim_speedup",
            ratio(cable.result.system_ips(), it.runs[0].result.system_ips()),
        );
        out.metrics.set("sim_lat_mean_ps", mean(cable_total));
        let events: u64 = it.runs.iter().map(|r| r.events).sum();
        let dropped: u64 = it.runs.iter().map(|r| r.dropped).sum();
        out.metrics.set("telemetry.events_recorded", events as f64);
        out.metrics.set("telemetry.events_dropped", dropped as f64);
        out.metrics.set(
            "telemetry.drop_ratio",
            ratio(dropped as f64, (events + dropped) as f64),
        );
        out.spans = Some(tr);
    } else {
        out.metrics
            .set("host_acc_per_s", pass_rate(first_pass, |l| l.norm_s));
        common_end_to_end(&mut out, &setups);
    }
    out
}
