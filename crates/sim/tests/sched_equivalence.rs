//! Event-driven scheduler ⇔ seed linear-scan equivalence.
//!
//! The heap scheduler must reproduce the seed `min_by_key` schedule *step
//! for step* — including lowest-index-first tie-breaking on equal
//! `now_ps` — so every figure number stays bit-identical. These tests run
//! both implementations over every workload × scheme combination and
//! demand identical results, and pin the busy-time accounting of the two
//! shared resources the schedule is built on.

use cable_compress::EngineKind;
use cable_core::BaselineKind;
use cable_sim::throughput::{run_group_arena, run_group_warmed, run_group_warmed_linear};
use cable_sim::{DramModel, FabricSim, Scheme, SharedLink, SimArena, SystemConfig};
use cable_trace::ALL_WORKLOADS;

fn all_schemes() -> Vec<Scheme> {
    let mut schemes = vec![Scheme::Uncompressed];
    schemes.extend(BaselineKind::ALL.iter().map(|&k| Scheme::Baseline(k)));
    schemes.extend(EngineKind::ALL.iter().map(|&k| Scheme::Cable(k)));
    schemes
}

#[test]
fn run_group_heap_matches_linear_scan_everywhere() {
    // Small budgets keep the full cross product fast while still forcing
    // thousands of scheduling decisions (and plenty of now_ps ties right
    // after warm-up, when all eight threads sit at t=0).
    let cfg = SystemConfig::paper_defaults();
    for profile in ALL_WORKLOADS {
        for scheme in all_schemes() {
            let heap = run_group_warmed(profile, scheme, 256, 64, 96, &cfg);
            let linear = run_group_warmed_linear(profile, scheme, 256, 64, 96, &cfg);
            assert_eq!(
                heap.group_instructions, linear.group_instructions,
                "{}/{scheme:?}: instruction totals diverge",
                profile.name
            );
            assert_eq!(
                heap.elapsed_ps, linear.elapsed_ps,
                "{}/{scheme:?}: elapsed time diverges",
                profile.name
            );
            assert_eq!(heap.threads, linear.threads);
        }
    }
}

#[test]
fn arena_restore_matches_linear_scan_across_a_sweep() {
    // The SimArena path stacks snapshot/restore on top of the heap
    // scheduler; both must still agree with the seed implementation at
    // every sweep point, with warm-up paid only once per scheme.
    let cfg = SystemConfig::paper_defaults();
    let profile = &ALL_WORKLOADS[0];
    let mut arena = SimArena::new();
    for scheme in [
        Scheme::Uncompressed,
        Scheme::Cable(EngineKind::Lbe),
        Scheme::Baseline(BaselineKind::Cpack),
    ] {
        for threads in [256, 512, 2048] {
            let arena_r = run_group_arena(&mut arena, profile, scheme, threads, 200, 150, &cfg);
            let linear = run_group_warmed_linear(profile, scheme, threads, 200, 150, &cfg);
            assert_eq!(arena_r.group_instructions, linear.group_instructions);
            assert_eq!(arena_r.elapsed_ps, linear.elapsed_ps);
        }
    }
    let (hits, misses) = arena.stats();
    assert_eq!(
        (hits, misses),
        (6, 3),
        "one warm-up per scheme, rest restored"
    );
}

#[test]
fn fabric_heap_matches_linear_scan() {
    // FabricSim's loop differs from run_group's: finished chips drop out
    // of scheduling instead of running on. Same seeds → same FabricResult.
    for profile in [&ALL_WORKLOADS[1], &ALL_WORKLOADS[5]] {
        for scheme in [Scheme::Uncompressed, Scheme::Cable(EngineKind::Lbe)] {
            for nodes in [2usize, 4] {
                let mut heap = FabricSim::new(profile, scheme, nodes, 12.8e9);
                let mut linear = FabricSim::new(profile, scheme, nodes, 12.8e9);
                let h = heap.run_sharded(400, 1);
                let l = linear.run_linear(400);
                assert_eq!(
                    h.instructions, l.instructions,
                    "{}/{scheme:?}/{nodes} nodes: instruction totals diverge",
                    profile.name
                );
                assert_eq!(
                    h.elapsed_ps, l.elapsed_ps,
                    "{}/{scheme:?}/{nodes} nodes: elapsed time diverges",
                    profile.name
                );
            }
        }
    }
}

#[test]
fn shared_link_busy_time_accounting_is_pinned() {
    // 19.2 GB/s ⇒ 1e12 / (19.2e9 · 8) ps per bit; setup latency is added
    // to the returned completion time but does not occupy the wire.
    let mut link = SharedLink::new(19.2e9, 20_000);
    assert_eq!(link.transfer(0, 1_536), 10_000 + 20_000);
    assert_eq!(link.busy_until(), 10_000);
    // Issued mid-flight: queues FCFS behind the first transfer.
    assert_eq!(link.transfer(5_000, 1_536), 20_000 + 20_000);
    // Issued after an idle gap: starts at its own now_ps, the gap is not
    // counted as busy time.
    assert_eq!(link.transfer(100_000, 768), 105_000 + 20_000);
    assert_eq!(link.busy_until(), 105_000);
    assert_eq!(link.bits_sent(), 3_840);
    assert_eq!(link.busy_ps_total(), 25_000);
}

#[test]
fn dram_busy_time_accounting_is_pinned() {
    // Paper defaults: 20 ns controller, 11.25 ns ACT = CAS, 5 ns burst at
    // 12.8 GB/s, banks = line_number mod dram_banks.
    let cfg = SystemConfig::paper_defaults();
    let mut dram = DramModel::from_config(&cfg);
    let a = |n: u64| cable_common::Address::from_line_number(n);
    // Cold bank: 20_000 + 2·11_250 + 5_000.
    assert_eq!(dram.access(0, a(0)), 47_500);
    // Different bank, same instant: ACT+CAS overlap, the shared data bus
    // serializes the bursts — exactly one burst later.
    assert_eq!(dram.access(0, a(1)), 52_500);
    // Same bank as the first access: waits out burst + precharge
    // (bank free at 47_500 + 11_250), then pays ACT+CAS and queues its
    // burst behind the bus.
    assert_eq!(dram.access(0, a(cfg.dram_banks as u64)), 86_250);
    assert_eq!(dram.accesses(), 3);
}
