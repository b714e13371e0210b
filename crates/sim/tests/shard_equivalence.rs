//! Sharded engine ⇔ single-threaded determinism.
//!
//! The epoch-parallel engine (`cable_sim::shard`) must be *bit-identical*
//! to the single-threaded event loop for every worker count — results,
//! per-pipeline `LinkStats`, shared-resource busy time, DRAM access
//! counts, and fault-mode frames. These property tests sweep worker
//! counts {1, 2, 4, 8} against the in-tree oracles (the seed linear scan
//! `run_linear`, plus the event-driven `FabricSim::run`) over randomized
//! topologies, schemes, bandwidths, and fault schedules.

use cable_common::SplitMix64;
use cable_compress::EngineKind;
use cable_core::{BaselineKind, FaultConfig, LinkStats};
use cable_sim::{DegradeLevel, DegradePolicy, FabricSim, NumaSim, Scheme, SystemConfig};
use cable_telemetry::Telemetry;
use cable_trace::{by_name, WorkloadProfile, ALL_WORKLOADS};
use proptest::prelude::*;

const WORKER_SWEEP: [usize; 4] = [1, 2, 4, 8];

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
        let r = sim.run(instructions);
        digest(&sim, r)
    };
    let linear = {
        let mut sim = build();
        let r = sim.run_linear(instructions);
        digest(&sim, r)
    };
    assert_eq!(
        oracle, linear,
        "{}/{scheme:?}/{nodes}n: event vs linear oracle",
        profile.name
    );
    for workers in WORKER_SWEEP {
        let mut sim = build();
        let r = sim.run_sharded(instructions, workers);
        let sharded = digest(&sim, r);
        assert_eq!(
            oracle, sharded,
            "{}/{scheme:?}/{nodes}n: sharded({workers}) diverged from single-threaded",
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
fn fabric_paper_config_sharded_matches_run() {
    // One full-geometry spot check (the proptest sweep uses the small
    // config to afford many cases).
    let mut a = FabricSim::new(
        by_name("mcf").unwrap(),
        Scheme::Cable(EngineKind::Lbe),
        4,
        3e8,
    );
    let ra = a.run(6_000);
    let mut b = FabricSim::new(
        by_name("mcf").unwrap(),
        Scheme::Cable(EngineKind::Lbe),
        4,
        3e8,
    );
    let rb = b.run_sharded(6_000, 3);
    assert_eq!(digest(&a, ra), digest(&b, rb));
}

#[test]
fn sharded_telemetry_is_deterministic_across_worker_counts() {
    // Shard forks stamp functional events on per-shard clocks and merge
    // in (now_ps, shard, seq) order; worker count must not change the
    // merged trace or the shared metrics registry.
    let trace_of = |workers: usize| {
        let mut sim = FabricSim::with_config(
            by_name("mcf").unwrap(),
            Scheme::Cable(EngineKind::Lbe),
            4,
            19.2e9,
            &small_config(),
        );
        let tel = Telemetry::enabled();
        sim.set_telemetry(tel.clone());
        sim.run_sharded(3_000, workers);
        let events: Vec<(u64, cable_telemetry::Event)> = tel
            .events()
            .iter()
            .map(|te| (te.now_ps, te.event))
            .collect();
        let mut metrics: Vec<String> = tel
            .snapshot()
            .metrics
            .iter()
            .map(|m| format!("{m:?}"))
            .collect();
        metrics.sort();
        // The equality below must cover the latency-attribution state:
        // guard that the snapshot actually carries populated `lat.*`
        // histograms, so percentile tables are provably bit-identical
        // between single-threaded and sharded runs.
        assert!(
            tel.snapshot().metrics.iter().any(|m| {
                m.id().starts_with("lat.")
                    && matches!(m, cable_telemetry::MetricValue::Histogram { count, .. } if *count > 0)
            }),
            "snapshot must include populated latency histograms"
        );
        (events, metrics)
    };
    let one = trace_of(1);
    for workers in [2, 4, 8] {
        assert_eq!(one, trace_of(workers), "workers={workers}");
    }
}

#[test]
fn mesh_faulted_hop_metrics_are_worker_count_invariant() {
    // The per-hop surface end to end: `mesh.hop.*` registry metrics (wire
    // occupancy from the shared links, fault counters from the armed
    // pipelines) and the `hop_stats()` rollup must be bit-identical
    // between `run` and `run_sharded` for every worker count.
    let cfg = SystemConfig {
        mesh_fault: Some(FaultConfig::with_rate(0xFA17, 5e-3)),
        mesh_fault_hop: Some(1),
        ..small_config()
    };
    let hop_view = |workers: Option<usize>| {
        let mut sim = FabricSim::with_config(
            by_name("mcf").unwrap(),
            Scheme::Cable(EngineKind::Lbe),
            4,
            19.2e9,
            &cfg,
        );
        let tel = Telemetry::enabled();
        sim.set_telemetry(tel.clone());
        match workers {
            Some(w) => sim.run_sharded(3_000, w),
            None => sim.run(3_000),
        };
        let mut metrics: Vec<String> = tel
            .snapshot()
            .metrics
            .iter()
            .map(|m| format!("{m:?}"))
            .filter(|m| m.contains("mesh.hop."))
            .collect();
        metrics.sort();
        let hops: Vec<String> = sim.hop_stats().iter().map(|h| format!("{h:?}")).collect();
        (metrics, hops)
    };
    let sequential = hop_view(None);
    assert!(
        sequential.0.iter().any(|m| m.contains("mesh.hop.1.faults")),
        "the pinned wire must surface hop-keyed fault counters: {:?}",
        sequential.0
    );
    for workers in WORKER_SWEEP {
        assert_eq!(sequential, hop_view(Some(workers)), "workers={workers}");
    }
}

#[test]
fn degradation_telemetry_is_deterministic_across_worker_counts() {
    // Ladder markers (degrade.demote/promote), reliable-mode phases, and
    // the adaptive counters ride the same fork/merge path as link
    // telemetry; a fault burst must not make them worker-count dependent.
    //
    // Fault storms emit far more events than the default bounded ring
    // holds, and ring *eviction* order depends on how chips share fork
    // rings — so the determinism contract is exact only while nothing is
    // dropped. Size the ring for the whole run and assert that premise.
    let cfg = SystemConfig {
        fault: Some(FaultConfig::with_rate(0xFA17, 8e-3)),
        degrade: Some(DegradePolicy {
            window_ops: 64,
            resync_interval_ops: 256,
            ..DegradePolicy::paper_defaults()
        }),
        ..small_config()
    };
    let trace_of = |workers: usize| {
        let mut sim = FabricSim::with_config(
            by_name("mcf").unwrap(),
            Scheme::Cable(EngineKind::Lbe),
            4,
            19.2e9,
            &cfg,
        );
        let tel = Telemetry::with_config(cable_telemetry::TracerConfig::with_capacity(1 << 20));
        sim.set_telemetry(tel.clone());
        sim.run_sharded(3_000, workers);
        assert_eq!(tel.dropped_events(), 0, "ring must hold the whole run");
        let events: Vec<(u64, cable_telemetry::Event)> = tel
            .events()
            .iter()
            .map(|te| (te.now_ps, te.event))
            .collect();
        let mut metrics: Vec<String> = tel
            .snapshot()
            .metrics
            .iter()
            .map(|m| format!("{m:?}"))
            .collect();
        metrics.sort();
        (events, metrics, sim.degrade_levels())
    };
    let one = trace_of(1);
    assert!(
        one.1.iter().any(|m| m.contains("adaptive.demotions")),
        "burst must surface ladder counters: {:?}",
        one.1
    );
    for workers in [2, 4, 8] {
        assert_eq!(one, trace_of(workers), "workers={workers}");
    }
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
