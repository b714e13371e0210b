//! `request_batch` ⇔ per-call loop.
//!
//! Both link models promise that one `request_batch` call behaves exactly
//! like issuing its elements one by one through `request` /
//! `request_exclusive` / `remote_store`; the batch form only adds cache
//! warming of the next element's tag sets. These properties push a random
//! Read/Exclusive/Write mix through both forms, cut into random-sized
//! batches, and demand the same `Transfer`s, `LinkStats` and telemetry
//! trace. `LinkStats::bit_toggles` counts every bit transition between
//! consecutive flits, so equal stats also pin the wire bit stream.

use cable_cache::CacheGeometry;
use cable_common::{Address, LineData, SplitMix64};
use cable_compress::EngineKind;
use cable_core::{
    BaselineKind, BaselineLink, BatchAccess, BatchOp, CableConfig, CableLink, FaultConfig, Transfer,
};
use cable_telemetry::{Event, Telemetry, TracerConfig};
use proptest::prelude::*;

/// A seeded access mix over a few hundred lines of near-duplicate content,
/// so small caches hit, miss, evict, upgrade and write back.
fn access_mix(rng: &mut SplitMix64, n: usize) -> Vec<BatchAccess> {
    let bases: Vec<LineData> = (0..6u32)
        .map(|b| {
            LineData::from_words(core::array::from_fn(|i| {
                0x0400_0000 ^ (b << 10) ^ ((i as u32) * 0x0111)
            }))
        })
        .collect();
    let line = |rng: &mut SplitMix64| {
        let mut l = bases[rng.next_bounded(6) as usize];
        for _ in 0..rng.next_bounded(4) {
            l.set_word(rng.next_bounded(16) as usize, rng.next_u32());
        }
        l
    };
    (0..n)
        .map(|_| {
            let memory = line(rng);
            let store = line(rng);
            let addr = Address::from_line_number(rng.next_bounded(384));
            match rng.next_bounded(8) {
                0..=4 => BatchAccess::read(addr, memory),
                5 => BatchAccess::exclusive(addr, memory),
                _ => BatchAccess::write(addr, memory, store),
            }
        })
        .collect()
}

/// Random batch lengths (1..=48) that exactly cover `len` accesses.
fn batch_cuts(rng: &mut SplitMix64, len: usize) -> Vec<usize> {
    let mut cuts = Vec::new();
    let mut left = len;
    while left > 0 {
        let n = (1 + rng.next_bounded(48) as usize).min(left);
        cuts.push(n);
        left -= n;
    }
    cuts
}

fn traced() -> Telemetry {
    Telemetry::with_config(TracerConfig::with_capacity(1 << 16))
}

fn trace_of(tel: &Telemetry) -> Vec<(u64, Event)> {
    assert_eq!(tel.dropped_events(), 0, "ring must hold the whole run");
    tel.events()
        .iter()
        .map(|te| (te.now_ps, te.event))
        .collect()
}

/// The per-call reference for one element, written against whichever
/// link type `$link` is.
macro_rules! one_by_one {
    ($link:expr, $a:expr) => {
        match $a.op {
            BatchOp::Read => $link.request($a.addr, $a.memory),
            BatchOp::Exclusive => $link.request_exclusive($a.addr, $a.memory),
            BatchOp::Write(store) => {
                let t = $link.request_exclusive($a.addr, $a.memory);
                $link.remote_store($a.addr, store);
                t
            }
        }
    };
}

fn cable_link(rng: &mut SplitMix64) -> CableLink {
    let engine = EngineKind::ALL[rng.next_bounded(EngineKind::ALL.len() as u64) as usize];
    // 12-bit flits take the scalar toggle loop; the rest the lane path.
    let width = [8, 12, 16, 32, 64][rng.next_bounded(5) as usize];
    let mut link = CableLink::new(CableConfig {
        home_geometry: CacheGeometry::new(32 << 10, 4),
        remote_geometry: CacheGeometry::new(8 << 10, 2),
        engine,
        link_width_bits: width,
        ..CableConfig::memory_link_default()
    });
    if rng.next_bounded(2) == 0 {
        link.enable_fault_injection(FaultConfig::with_rate(rng.next_u64(), 2e-3));
    }
    link
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_cable_request_batch_matches_per_call_loop(seed in any::<u64>()) {
        let mut rng = SplitMix64::new(seed);
        let mut batched = cable_link(&mut SplitMix64::new(seed ^ 0x5eed));
        let mut looped = batched.clone();
        let (tel_b, tel_l) = (traced(), traced());
        batched.set_telemetry(tel_b.clone());
        looped.set_telemetry(tel_l.clone());

        let accesses = access_mix(&mut rng, 1_200);
        let mut from_batch = Vec::new();
        let mut start = 0;
        for n in batch_cuts(&mut rng, accesses.len()) {
            batched.request_batch(&accesses[start..start + n], &mut from_batch);
            start += n;
        }
        let from_loop: Vec<Transfer> =
            accesses.iter().map(|a| one_by_one!(looped, a)).collect();

        let keys = |ts: &[Transfer]| ts.iter().map(|t| format!("{t:?}")).collect::<Vec<_>>();
        prop_assert_eq!(keys(&from_batch), keys(&from_loop));
        prop_assert_eq!(batched.stats(), looped.stats());
        prop_assert_eq!(
            batched.fault_stats().map(|f| format!("{f:?}")),
            looped.fault_stats().map(|f| format!("{f:?}"))
        );
        prop_assert_eq!(trace_of(&tel_b), trace_of(&tel_l));
        prop_assert!(batched.stats().diff_transfers > 0, "mix must exercise DIFFs");
    }

    #[test]
    fn prop_baseline_request_batch_matches_per_call_loop(seed in any::<u64>()) {
        let mut rng = SplitMix64::new(seed);
        let kinds = [
            BaselineKind::Uncompressed,
            BaselineKind::Bdi,
            BaselineKind::Cpack,
            BaselineKind::Cpack128,
            BaselineKind::Lbe256,
            BaselineKind::Gzip,
        ];
        let kind = kinds[rng.next_bounded(kinds.len() as u64) as usize];
        let width = [8, 12, 16, 64][rng.next_bounded(4) as usize];
        let build = || {
            BaselineLink::new(
                kind,
                CacheGeometry::new(32 << 10, 4),
                CacheGeometry::new(8 << 10, 2),
                width,
            )
        };
        let (mut batched, mut looped) = (build(), build());
        let (tel_b, tel_l) = (traced(), traced());
        batched.set_telemetry(tel_b.clone());
        looped.set_telemetry(tel_l.clone());

        let accesses = access_mix(&mut rng, 600);
        let mut from_batch = Vec::new();
        let mut start = 0;
        for n in batch_cuts(&mut rng, accesses.len()) {
            batched.request_batch(&accesses[start..start + n], &mut from_batch);
            start += n;
        }
        let from_loop: Vec<Transfer> =
            accesses.iter().map(|a| one_by_one!(looped, a)).collect();

        let keys = |ts: &[Transfer]| ts.iter().map(|t| format!("{t:?}")).collect::<Vec<_>>();
        prop_assert_eq!(keys(&from_batch), keys(&from_loop));
        prop_assert_eq!(batched.stats(), looped.stats());
        prop_assert_eq!(trace_of(&tel_b), trace_of(&tel_l));
        prop_assert!(batched.stats().fills > 0);
    }
}
