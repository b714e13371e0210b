//! `mesh`: the sharded fabric engine and fabric set-up.
//!
//! `FabricSim::run_sharded` with two workers on the 71-chip (10,082
//! endpoint) mcf fabric, telemetry off, advanced in fixed instruction
//! slices. mcf is zero-dominant, so codec work is light and the engine and
//! `FabricSim::with_config` dominate. Per-chip caches are scaled far below
//! Table IV so 71 x 71 link pipelines fit in memory.

use crate::clock::HostClock;
use crate::metrics::{median, quantile, ratio};
use crate::spans::Tracer;
use crate::{common_end_to_end, link_layer_metrics, Outcome, RunConfig, Size};
use cable_compress::EngineKind;
use cable_core::LinkStats;
use cable_sim::{FabricResult, FabricSim, Scheme, SystemConfig};

/// The simulated workload profile.
pub const PROFILE: &str = "mcf";

/// Shard workers: the host's two cores.
pub const WORKERS: usize = 2;

/// PTP bandwidth per mesh wire (QPI-class).
const PTP_BYTES_PER_SEC: f64 = 19.2e9;

struct Plan {
    nodes: usize,
    slice: u64,
    slices: u64,
    setup_reps: usize,
}

fn plan(size: Size) -> Plan {
    match size {
        Size::Seconds(s) => Plan {
            nodes: 71,
            slice: 3_000,
            slices: 5 * s.max(1),
            setup_reps: 3,
        },
        Size::Tiny => Plan {
            nodes: 4,
            slice: 200,
            slices: 3,
            setup_reps: 1,
        },
    }
}

/// Per-chip geometry of the mesh (the 10k-endpoint operating point).
fn system_config() -> SystemConfig {
    SystemConfig {
        l1_bytes: 4 << 10,
        l1_ways: 2,
        l2_bytes: 8 << 10,
        l2_ways: 4,
        llc_bytes: 8 << 10,
        llc_ways: 4,
        l4_bytes: 16 << 10,
        l4_ways: 8,
        ..SystemConfig::paper_defaults()
    }
}

fn build(nodes: usize, tr: &mut Tracer) -> FabricSim {
    let profile = cable_trace::by_name(PROFILE).expect("mcf is a built-in profile");
    tr.span("sim.fabric.with_config", |_| {
        FabricSim::with_config(
            profile,
            Scheme::Cable(EngineKind::Lbe),
            nodes,
            PTP_BYTES_PER_SEC,
            &system_config(),
        )
    })
}

struct Pass {
    norm_rates: Vec<f64>,
    raw_rates: Vec<f64>,
    raw_s: f64,
    result: FabricResult,
}

/// Advances `sim` through the plan's slices with `workers` workers.
fn timed_pass(
    sim: &mut FabricSim,
    workers: usize,
    clock: &mut HostClock,
    tr: &mut Tracer,
    plan: &Plan,
) -> Pass {
    let mut pass = Pass {
        norm_rates: Vec::new(),
        raw_rates: Vec::new(),
        raw_s: 0.0,
        result: FabricResult {
            instructions: 0,
            elapsed_ps: 0,
        },
    };
    for k in 1..=plan.slices {
        let before = sim.total_accesses();
        let (result, lap) = clock.time(tr, |tr| {
            tr.span("sim.shard.run_sharded", |_| {
                sim.run_sharded(k * plan.slice, workers)
            })
        });
        let accesses = (sim.total_accesses() - before) as f64;
        pass.norm_rates.push(accesses / lap.norm_s);
        pass.raw_rates.push(accesses / lap.raw_s);
        pass.raw_s += lap.raw_s;
        pass.result = result;
    }
    pass
}

/// Sum of every coherence pipeline's and local link's statistics.
fn link_totals(sim: &FabricSim) -> LinkStats {
    let mut t = LinkStats::default();
    for s in sim.pipeline_stats().iter().chain(&sim.local_link_stats()) {
        t.fills += s.fills;
        t.remote_hits += s.remote_hits;
        t.writebacks += s.writebacks;
        t.raw_transfers += s.raw_transfers;
        t.unseeded_transfers += s.unseeded_transfers;
        t.diff_transfers += s.diff_transfers;
        t.wire_bits += s.wire_bits;
        t.data_array_reads += s.data_array_reads;
    }
    t
}

/// Output checks and simulated outputs of a finished pass.
fn finish(out: &mut Outcome, sim: &FabricSim, pass: &Pass, plan: &Plan) -> LinkStats {
    let target = plan.slice * plan.slices;
    let totals = link_totals(sim);
    let coherence_bits: u64 = sim.pipeline_stats().iter().map(|s| s.wire_bits).sum();
    let hop_bits: u64 = sim.hop_stats().iter().map(|h| h.bits_sent).sum();
    out.check(
        pass.result.instructions >= plan.nodes as u64 * target,
        || {
            format!(
                "{} instructions retired, expected at least {} x {target}",
                pass.result.instructions, plan.nodes
            )
        },
    );
    out.check(hop_bits == coherence_bits, || {
        format!("mesh wires carried {hop_bits} bits, coherence links sent {coherence_bits}")
    });
    out.check(
        totals.raw_transfers + totals.unseeded_transfers + totals.diff_transfers
            == totals.fills + totals.writebacks,
        || format!("transfer kinds do not add up to fills + write-backs in {totals:?}"),
    );
    out.sim("result", pass.result);
    out.sim("accesses", sim.total_accesses());
    out.sim(
        "fingerprint",
        crate::metrics::digest(&format!("{:?}", sim.timing_fingerprint())),
    );
    out.sim("link_totals", totals);
    totals
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let plan = plan(cfg.size);
    let mut out = Outcome {
        params: vec![
            ("profile", PROFILE.to_string()),
            ("scheme", "CABLE+LBE".to_string()),
            ("chips", plan.nodes.to_string()),
            ("endpoints", (2 * plan.nodes * plan.nodes).to_string()),
            ("workers", WORKERS.to_string()),
            ("slice_instructions_per_chip", plan.slice.to_string()),
            ("slices", plan.slices.to_string()),
            ("ptp_bytes_per_s", PTP_BYTES_PER_SEC.to_string()),
            (
                "seed",
                format!("{} (not used: instance ids are fixed)", cfg.seed),
            ),
        ],
        ..Outcome::default()
    };
    let mut clock = HostClock::new();
    let mut off = Tracer::new(false);
    let (sim, pass) = if cfg.trace {
        let mut sim = build(plan.nodes, &mut off);
        let untraced = timed_pass(&mut sim, WORKERS, &mut clock, &mut off, &plan);
        let fingerprint = sim.timing_fingerprint();
        drop(sim);

        let mut one = build(plan.nodes, &mut off);
        let single = timed_pass(&mut one, 1, &mut clock, &mut off, &plan);
        out.check(one.timing_fingerprint() == fingerprint, || {
            "2-worker timing fingerprint differs from the 1-worker run".to_string()
        });
        drop(one);

        let mut tr = Tracer::new(true);
        tr.enter("run");
        let mut sim = build(plan.nodes, &mut tr);
        let traced = timed_pass(&mut sim, WORKERS, &mut clock, &mut tr, &plan);
        let hops = tr.span("sim.fabric.hop_stats", |_| sim.hop_stats());
        tr.exit();
        out.check(sim.timing_fingerprint() == fingerprint, || {
            "traced timing fingerprint differs from the untraced run".to_string()
        });

        out.attribute(&tr);
        out.tracing_overhead(median(&untraced.norm_rates), median(&traced.norm_rates));
        out.metrics
            .set("host.raw_acc_per_s", median(&untraced.raw_rates));
        out.metrics.set("host.speed", median(clock.speeds()));
        out.metrics.set(
            "sim.fabric.construct_s",
            tr.total_ns("sim.fabric.with_config") as f64 * 1e-9,
        );
        let slices_ms: Vec<f64> = tr
            .spans()
            .iter()
            .filter(|s| s.name == "sim.shard.run_sharded")
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-6)
            .collect();
        out.metrics
            .set("sim.shard.run_s", slices_ms.iter().sum::<f64>() * 1e-3);
        out.metrics
            .set("sim.shard.slice_p50_ms", quantile(&slices_ms, 0.5));
        out.metrics
            .set("sim.shard.slice_p99_ms", quantile(&slices_ms, 0.99));
        out.metrics.set(
            "sim.shard.speedup_vs_1w",
            ratio(single.raw_s, untraced.raw_s),
        );
        let elapsed = traced.result.elapsed_ps as f64;
        let busiest = hops.iter().map(|h| h.busy_ps).max().unwrap_or(0) as f64;
        out.metrics.set(
            "sim.fabric.hop_busy_max_permille",
            ratio(1000.0 * busiest, elapsed),
        );
        out.metrics.set("sim_ips", traced.result.ips());
        out.spans = Some(tr);
        (sim, traced)
    } else {
        let mut setups = Vec::new();
        let mut built = None;
        for _ in 0..plan.setup_reps {
            // Drop the previous fabric first so peak memory holds one.
            drop(built.take());
            let (sim, lap) = clock.time(&mut off, |tr| build(plan.nodes, tr));
            setups.push(lap.norm_s);
            built = Some(sim);
        }
        let mut sim = built.expect("at least one set-up");
        let pass = timed_pass(&mut sim, WORKERS, &mut clock, &mut off, &plan);
        out.metrics.set("host_acc_per_s", median(&pass.norm_rates));
        common_end_to_end(&mut out, &setups);
        (sim, pass)
    };
    let totals = finish(&mut out, &sim, &pass, &plan);
    link_layer_metrics(&mut out, &totals);
    out.attempted = sim.total_accesses();
    out.metrics.set(
        "sim_wire_bits_per_access",
        ratio(totals.wire_bits as f64, sim.total_accesses() as f64),
    );
    out
}
