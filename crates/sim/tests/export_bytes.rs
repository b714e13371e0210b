//! The exported bytes of fixed small runs, pinned by hash: the JSONL and
//! Chrome-trace writers, and the simulators feeding them, must keep
//! producing exactly these files.

use cable_compress::EngineKind;
use cable_core::FaultConfig;
use cable_sim::throughput::run_group_telemetry;
use cable_sim::{DegradePolicy, FabricSim, Scheme, SystemConfig};
use cable_telemetry::{chrome_trace, jsonl, Telemetry};
use cable_trace::by_name;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A 64-thread dealII CABLE+LBE group on a faulty channel, so the trace
/// carries encode, search, fault-recovery, link and DRAM events.
fn dealii_trace() -> Telemetry {
    let mut cfg = SystemConfig::paper_defaults();
    cfg.fault = Some(FaultConfig {
        bit_flip_per_bit: 1e-4,
        truncate_prob: 0.01,
        drop_notice_prob: 0.01,
        ..FaultConfig::lossless(7)
    });
    let tel = Telemetry::enabled();
    let profile = by_name("dealII").expect("dealII is a built-in profile");
    let _ = run_group_telemetry(
        profile,
        Scheme::Cable(EngineKind::Lbe),
        64,
        500,
        2_000,
        &cfg,
        &tel,
    );
    tel
}

#[test]
fn dealii_exports_are_byte_stable() {
    let tel = dealii_trace();
    let (jsonl, chrome) = (jsonl(&tel), chrome_trace(&tel));
    for name in ["encode", "nack", "link_busy", "dram_busy", "phase"] {
        assert!(
            jsonl.contains(&format!("\"name\":\"{name}\"")),
            "the trace lacks {name} events"
        );
    }
    assert_eq!(
        (jsonl.len(), fnv1a(jsonl.as_bytes())),
        (1_534_537, 0x5143_311c_3bbc_293c),
        "JSONL bytes changed"
    );
    assert_eq!(
        (chrome.len(), fnv1a(chrome.as_bytes())),
        (1_652_856, 0xb17a_cc8a_f223_29a4),
        "Chrome-trace bytes changed"
    );
}

/// A 4-chip mcf fabric with lossy links, a lossier mesh wire and the
/// degradation ladder armed, so the trace carries pipeline, fault,
/// ladder-marker, mesh-hop and DRAM events and the snapshot the
/// last-value ladder gauges.
fn fabric_trace(workers: usize) -> Telemetry {
    let cfg = SystemConfig {
        l1_bytes: 4 << 10,
        l1_ways: 2,
        l2_bytes: 16 << 10,
        l2_ways: 4,
        llc_bytes: 16 << 10,
        llc_ways: 4,
        l4_bytes: 64 << 10,
        l4_ways: 8,
        fault: Some(FaultConfig::with_rate(0xB0B, 2e-3)),
        mesh_fault: Some(FaultConfig::with_rate(0xFA17, 5e-3)),
        mesh_fault_hop: Some(1),
        degrade: Some(DegradePolicy {
            window_ops: 64,
            resync_interval_ops: 256,
            ..DegradePolicy::paper_defaults()
        }),
        ..SystemConfig::paper_defaults()
    };
    let profile = by_name("mcf").expect("mcf is a built-in profile");
    let mut sim = FabricSim::with_config(profile, Scheme::Cable(EngineKind::Lbe), 4, 19.2e9, &cfg);
    let tel = Telemetry::enabled();
    sim.set_telemetry(tel.clone());
    sim.run_sharded(3_000, workers);
    tel
}

#[test]
fn fabric_exports_are_the_fused_loops_bytes() {
    // The hash was taken from the fused loop that stepped a chip and then
    // replayed it with the telemetry clock set in between; pipeline events
    // staged per chip and stamped at replay must reproduce it exactly, for
    // every worker count.
    for workers in [1, 2, 4] {
        let jsonl = jsonl(&fabric_trace(workers));
        for name in ["encode", "nack", "mesh_hop", "dram_busy", "marker"] {
            assert!(
                jsonl.contains(&format!("\"name\":\"{name}\"")),
                "the trace lacks {name} events"
            );
        }
        assert_eq!(
            (jsonl.len(), fnv1a(jsonl.as_bytes())),
            (2_826_543, 0x6518_060b_3c53_2d8d),
            "JSONL bytes changed with {workers} workers"
        );
    }
}
