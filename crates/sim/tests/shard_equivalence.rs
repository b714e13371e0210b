//! Sharded engine ⇔ single-threaded determinism.
//!
//! The pipelined engine (`cable_sim::shard`) must be *bit-identical* to
//! the fused single-threaded loop for every worker count — results,
//! per-pipeline `LinkStats`, shared-resource busy time, DRAM access
//! counts, fault-mode frames, and the exported telemetry bytes. These
//! tests sweep worker counts {1, 2, 4, 8} against the in-tree oracle (the
//! seed linear scan `run_linear`) over randomized topologies, schemes,
//! bandwidths, and fault schedules.

use cable_common::SplitMix64;
use cable_compress::EngineKind;
use cable_core::{BaselineKind, FaultConfig, LinkStats};
use cable_sim::{DegradeLevel, DegradePolicy, FabricSim, NumaSim, Scheme, SystemConfig};
use cable_telemetry::{Telemetry, TracerConfig};
use cable_trace::{by_name, WorkloadProfile, ALL_WORKLOADS};
use proptest::prelude::*;

const WORKER_SWEEP: [usize; 4] = [1, 2, 4, 8];

// The replay streams one trace per simulated access: keep it a cache line.
const _: () = assert!(cable_sim::shard::STEP_TRACE_BYTES <= 64);

/// A scaled-down Table IV: small geometries force LLC/L4 evictions and
/// dirty write-backs (the trickiest replay paths — zero-bit wire calls
/// included) within a few thousand accesses, and keep a fabric cheap
/// enough to build five times per case.
fn small_config() -> SystemConfig {
    SystemConfig {
        l1_bytes: 4 << 10,
        l1_ways: 2,
        l2_bytes: 16 << 10,
        l2_ways: 4,
        llc_bytes: 16 << 10,
        llc_ways: 4,
        l4_bytes: 64 << 10,
        l4_ways: 8,
        ..SystemConfig::paper_defaults()
    }
}

fn scheme_for(pick: u64) -> Scheme {
    match pick % 4 {
        0 => Scheme::Uncompressed,
        1 => Scheme::Baseline(BaselineKind::Cpack),
        2 => Scheme::Cable(EngineKind::Lbe),
        _ => Scheme::Cable(EngineKind::Cpack128),
    }
}

fn profile_for(pick: u64) -> &'static WorkloadProfile {
    &ALL_WORKLOADS[(pick % ALL_WORKLOADS.len() as u64) as usize]
}

/// Everything observable about a finished fabric run, flattened for one
/// `assert_eq!`.
#[derive(Debug, PartialEq)]
struct FabricDigest {
    instructions: u64,
    elapsed_ps: u64,
    accesses: u64,
    coherence: LinkStats,
    pipelines: Vec<LinkStats>,
    locals: Vec<LinkStats>,
    fingerprint: Vec<u64>,
    fault: Option<String>,
    degradation: Option<String>,
    degrade_levels: Vec<DegradeLevel>,
    /// Per-hop wire occupancy and fault frames ([`FabricSim::hop_stats`]),
    /// one row per mesh wire in triangular order.
    hops: Vec<String>,
}

fn digest(sim: &FabricSim, r: cable_sim::FabricResult) -> FabricDigest {
    FabricDigest {
        instructions: r.instructions,
        elapsed_ps: r.elapsed_ps,
        accesses: sim.total_accesses(),
        coherence: sim.coherence_stats(),
        pipelines: sim.pipeline_stats(),
        locals: sim.local_link_stats(),
        fingerprint: sim.timing_fingerprint(),
        fault: sim.fault_stats().map(|fs| format!("{fs:?}")),
        degradation: sim.degradation_stats().map(|d| format!("{d:?}")),
        degrade_levels: sim.degrade_levels(),
        hops: sim.hop_stats().iter().map(|h| format!("{h:?}")).collect(),
    }
}

fn run_fabric_case(cfg: &SystemConfig, seed: u64, instructions: u64) {
    let mut rng = SplitMix64::new(seed);
    let profile = profile_for(rng.next_u64());
    let scheme = scheme_for(rng.next_u64());
    let nodes = 2 + (rng.next_bounded(4) as usize); // 2..=5
    let ptp = 19.2e9 / (1 << rng.next_bounded(5)) as f64;

    let build = || FabricSim::with_config(profile, scheme, nodes, ptp, cfg);

    let oracle = {
        let mut sim = build();
        let r = sim.run_linear(instructions);
        digest(&sim, r)
    };
    for workers in WORKER_SWEEP {
        let mut sim = build();
        let r = sim.run_sharded(instructions, workers);
        let sharded = digest(&sim, r);
        assert_eq!(
            oracle, sharded,
            "{}/{scheme:?}/{nodes}n: sharded({workers}) diverged from run_linear",
            profile.name
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn prop_fabric_sharded_is_bit_identical_across_worker_counts(seed in any::<u64>()) {
        run_fabric_case(&small_config(), seed, 4_000);
    }

    #[test]
    fn prop_fabric_sharded_matches_oracles_under_fault_injection(seed in any::<u64>()) {
        let mut rng = SplitMix64::new(seed);
        let cfg = SystemConfig {
            fault: Some(FaultConfig::with_rate(rng.next_u64(), 2e-3)),
            ..small_config()
        };
        run_fabric_case(&cfg, rng.next_u64(), 3_000);
    }

    #[test]
    fn prop_fabric_sharded_matches_oracles_under_mesh_faults(seed in any::<u64>()) {
        // The mesh-only fault override arms the directional coherence
        // pipelines with per-(hop, direction) seeds — chip-private state,
        // so per-hop fault frames and wire counters must replay
        // bit-identically for every worker count, whether the schedule
        // covers the whole mesh or is pinned to one wire.
        let mut rng = SplitMix64::new(seed);
        let pinned = (rng.next_bounded(2) == 0).then_some(0u32);
        let cfg = SystemConfig {
            mesh_fault: Some(FaultConfig::with_rate(rng.next_u64(), 5e-3)),
            mesh_fault_hop: pinned,
            ..small_config()
        };
        run_fabric_case(&cfg, rng.next_u64(), 3_000);
    }

    #[test]
    fn prop_fabric_sharded_matches_oracles_with_degradation(seed in any::<u64>()) {
        // The closed fault loop is purely functional (op-count windows,
        // never sim time), so ladder transitions and scheduled resyncs
        // must replay bit-identically for every worker count.
        let mut rng = SplitMix64::new(seed);
        let cfg = SystemConfig {
            fault: Some(FaultConfig::with_rate(rng.next_u64(), 5e-3)),
            degrade: Some(DegradePolicy {
                window_ops: 64,
                resync_interval_ops: 256,
                ..DegradePolicy::paper_defaults()
            }),
            ..small_config()
        };
        run_fabric_case(&cfg, rng.next_u64(), 3_000);
    }

    #[test]
    fn prop_numa_sharded_is_bit_identical_across_worker_counts(seed in any::<u64>()) {
        let mut rng = SplitMix64::new(seed);
        let profile = profile_for(rng.next_u64());
        let scheme = scheme_for(rng.next_u64());
        let nodes = 2 + (rng.next_bounded(7) as usize); // 2..=8
        let accesses = 6_000;

        let (oracle_stats, oracle_split, oracle_now) = {
            let mut sim = NumaSim::new(profile, scheme, nodes);
            sim.run_linear(accesses);
            (sim.combined_stats(), sim.access_split(), sim.now_ps())
        };
        for workers in WORKER_SWEEP {
            let mut sim = NumaSim::new(profile, scheme, nodes);
            sim.run_sharded(accesses, workers);
            assert_eq!(
                (oracle_stats, oracle_split, oracle_now),
                (sim.combined_stats(), sim.access_split(), sim.now_ps()),
                "{}/{scheme:?}/{nodes}n: sharded({workers}) diverged",
                profile.name
            );
        }
    }

    #[test]
    fn prop_numa_sharded_with_degradation_matches_oracles(seed in any::<u64>()) {
        // NUMA controllers sample per-link op counts; fault schedules and
        // ladder state must agree between run_linear and run_sharded.
        let mut rng = SplitMix64::new(seed);
        let profile = profile_for(rng.next_u64());
        let nodes = 2 + (rng.next_bounded(4) as usize); // 2..=5
        let cfg = SystemConfig {
            fault: Some(FaultConfig::with_rate(rng.next_u64(), 5e-3)),
            degrade: Some(DegradePolicy {
                window_ops: 64,
                resync_interval_ops: 256,
                ..DegradePolicy::paper_defaults()
            }),
            ..SystemConfig::paper_defaults()
        };
        let scheme = Scheme::Cable(EngineKind::Lbe);
        let accesses = 6_000;

        let build = || NumaSim::with_config(profile, scheme, nodes, &cfg);
        let digest = |sim: &NumaSim| {
            (
                sim.combined_stats(),
                sim.access_split(),
                sim.now_ps(),
                sim.fault_stats().map(|fs| format!("{fs:?}")),
                sim.degradation_stats().map(|d| format!("{d:?}")),
                sim.degrade_levels(),
            )
        };
        let oracle = {
            let mut sim = build();
            sim.run_linear(accesses);
            digest(&sim)
        };
        for workers in WORKER_SWEEP {
            let mut sim = build();
            sim.run_sharded(accesses, workers);
            assert_eq!(
                oracle,
                digest(&sim),
                "{}/{nodes}n: sharded({workers}) diverged under degradation",
                profile.name
            );
        }
    }
}

#[test]
fn fabric_paper_config_sharded_matches_run_linear() {
    // One full-geometry spot check (the proptest sweep uses the small
    // config to afford many cases).
    let build = || {
        FabricSim::new(
            by_name("mcf").unwrap(),
            Scheme::Cable(EngineKind::Lbe),
            4,
            3e8,
        )
    };
    let mut a = build();
    let ra = a.run_linear(6_000);
    let mut b = build();
    let rb = b.run_sharded(6_000, 3);
    assert_eq!(digest(&a, ra), digest(&b, rb));
}

/// Everything a traced fabric run exports: the JSONL bytes (metrics
/// snapshot plus every event with its stamp), the drop count, and the
/// run's digest.
#[derive(Debug, PartialEq)]
struct TracedRun {
    jsonl: String,
    dropped: u64,
    digest: FabricDigest,
}

/// Runs a 4-chip mcf fabric under `cfg` with telemetry on a ring of
/// `capacity` events per track, through `run_linear` (`None`) or
/// `run_sharded` with the given worker count.
fn traced_run(cfg: &SystemConfig, capacity: usize, workers: Option<usize>) -> TracedRun {
    let mut sim = FabricSim::with_config(
        by_name("mcf").unwrap(),
        Scheme::Cable(EngineKind::Lbe),
        4,
        19.2e9,
        cfg,
    );
    let tel = Telemetry::with_config(TracerConfig::with_capacity(capacity));
    sim.set_telemetry(tel.clone());
    let r = match workers {
        Some(w) => sim.run_sharded(3_000, w),
        None => sim.run_linear(3_000),
    };
    TracedRun {
        jsonl: tel.export_jsonl(),
        dropped: tel.dropped_events(),
        digest: digest(&sim, r),
    }
}

/// Asserts every worker count exports exactly what `run_linear` exports.
fn assert_traces_match_run_linear(what: &str, cfg: &SystemConfig, capacity: usize) -> TracedRun {
    let oracle = traced_run(cfg, capacity, None);
    for workers in WORKER_SWEEP {
        let sharded = traced_run(cfg, capacity, Some(workers));
        assert!(
            sharded == oracle,
            "{what}: sharded({workers}) telemetry diverged from run_linear"
        );
    }
    oracle
}

#[test]
fn sharded_telemetry_matches_run_linear_byte_for_byte() {
    // Pipeline events are stamped at replay time with the step's start,
    // so the exported trace equals the fused loop's event for event —
    // stamps, order and the metrics snapshot (latency histograms
    // included) alike.
    let run = assert_traces_match_run_linear("plain", &small_config(), 1 << 20);
    assert_eq!(run.dropped, 0);
    assert!(
        run.jsonl.contains("\"lat.CABLE+LBE.measure.total\""),
        "the snapshot must carry populated latency histograms"
    );
    assert!(run.jsonl.contains("\"mesh_hop\""), "PTP traffic traces");
}

#[test]
fn overflowing_ring_evicts_the_same_events_for_every_worker_count() {
    // A ring far smaller than the run: eviction follows recording order,
    // which is run_linear's order for every worker count.
    let cfg = SystemConfig {
        fault: Some(FaultConfig::with_rate(0xFA17, 8e-3)),
        ..small_config()
    };
    let run = assert_traces_match_run_linear("overflow", &cfg, 64);
    assert!(run.dropped > 0, "the ring must overflow");
}

#[test]
fn mesh_faulted_hop_metrics_match_run_linear() {
    // The per-hop surface end to end: `mesh.hop.*` registry metrics (wire
    // occupancy from the shared links, fault counters from the armed
    // pipelines), the `hop_stats()` rollup and the trace must be
    // bit-identical to `run_linear` for every worker count.
    let cfg = SystemConfig {
        mesh_fault: Some(FaultConfig::with_rate(0xFA17, 5e-3)),
        mesh_fault_hop: Some(1),
        ..small_config()
    };
    let run = assert_traces_match_run_linear("mesh faults", &cfg, 1 << 16);
    assert!(
        run.jsonl.contains("\"mesh.hop.1.faults\""),
        "the pinned wire must surface hop-keyed fault counters"
    );
}

#[test]
fn degradation_telemetry_matches_run_linear() {
    // Ladder markers (degrade.demote/promote), reliable-mode phases, the
    // adaptive counters and the last-value `adaptive.degrade_level`
    // gauge are staged with the step that produced them, so the trace
    // and snapshot are the same bytes for every worker count — with the
    // default ring, whether or not a fault storm overflows it.
    let ladder = |rate: f64, window_ops: u32, quiet_windows: u32| SystemConfig {
        fault: Some(FaultConfig::with_rate(0, rate)),
        degrade: Some(DegradePolicy {
            window_ops,
            quiet_windows,
            resync_interval_ops: 256,
            ..DegradePolicy::paper_defaults()
        }),
        ..small_config()
    };
    let storm = assert_traces_match_run_linear(
        "fault storm",
        &ladder(8e-3, 64, DegradePolicy::paper_defaults().quiet_windows),
        TracerConfig::default().capacity,
    );
    assert!(
        storm.jsonl.contains("\"adaptive.demotions\""),
        "the storm must surface ladder counters"
    );
    assert!(storm.digest.degradation.is_some());
    // A sparse fault rate with one-window re-arming keeps the ladders
    // moving both ways to the end, so the last gauge store in replay
    // order differs from the last one any functional thread made: a
    // gauge stored when stepped, not when replayed, fails here.
    let oscillating = assert_traces_match_run_linear(
        "oscillating ladder",
        &ladder(3e-4, 32, 1),
        TracerConfig::default().capacity,
    );
    assert!(oscillating.jsonl.contains("\"adaptive.promotions\""));
}

#[test]
fn numa_sharded_telemetry_matches_sequential_run_exactly() {
    // NUMA dispatch stamps every queued op with its sequential clock, so
    // the merged sharded trace equals the sequential trace event for
    // event — stamps included — not just statistically.
    let run_events = |workers: Option<usize>| {
        let mut sim = NumaSim::new(by_name("gcc").unwrap(), Scheme::Cable(EngineKind::Lbe), 4);
        let tel = Telemetry::enabled();
        sim.set_telemetry(tel.clone());
        match workers {
            Some(w) => sim.run_sharded(3_000, w),
            None => sim.run_linear(3_000),
        }
        tel.events()
            .iter()
            .map(|te| (te.now_ps, te.event))
            .collect::<Vec<_>>()
    };
    let sequential = run_events(None);
    assert!(!sequential.is_empty());
    for workers in WORKER_SWEEP {
        assert_eq!(sequential, run_events(Some(workers)), "workers={workers}");
    }
}

#[test]
fn sim_types_are_send() {
    fn assert_send<T: Send>() {}
    assert_send::<FabricSim>();
    assert_send::<NumaSim>();
    assert_send::<cable_sim::ThreadSim>();
    assert_send::<cable_sim::CompressedLink>();
}
