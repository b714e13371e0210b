//! The exported bytes of a fixed small run, pinned by hash: the JSONL
//! and Chrome-trace writers must keep producing exactly these files.

use cable_compress::EngineKind;
use cable_core::FaultConfig;
use cable_sim::throughput::run_group_telemetry;
use cable_sim::{Scheme, SystemConfig};
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
