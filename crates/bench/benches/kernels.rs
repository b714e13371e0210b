//! Criterion micro-benchmarks for the hot kernels: each compression
//! engine, the signature/search pipeline, the end-to-end link request, the
//! set-associative cache and mesh link construction, and the telemetry
//! report flow.
//!
//! These measure the *host* cost of the model (lines/second of simulation),
//! not the modelled hardware latency — Table IV cycle counts cover that.

use cable_common::{Address, BitWriter, LineData, SplitMix64};
use cable_compress::{Bdi, Compressor, Cpack, EngineKind, Lbe, Lzss, Oracle, SeededCompressor};
use cable_core::codec::{ParsedPayload, PayloadCodec};
use cable_core::{CableConfig, CableLink};
use cable_trace::WorkloadGen;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

fn test_lines(n: usize, seed: u64) -> Vec<LineData> {
    let p = cable_trace::by_name("gcc").expect("gcc profile");
    let gen = WorkloadGen::new(p, seed);
    (0..n as u64)
        .map(|i| gen.content(Address::from_line_number(i)))
        .collect()
}

fn bench_engines(c: &mut Criterion) {
    let lines = test_lines(256, 0);
    let mut group = c.benchmark_group("compress_line");
    group.throughput(Throughput::Bytes(64));

    group.bench_function("cpack_per_line", |b| {
        let mut enc = Cpack::per_line();
        let mut i = 0;
        b.iter(|| {
            let out = enc.compress(&lines[i % lines.len()]);
            i += 1;
            out.len_bits()
        });
    });
    group.bench_function("cpack128_streaming", |b| {
        let mut enc = Cpack::streaming(128);
        let mut i = 0;
        b.iter(|| {
            let out = enc.compress(&lines[i % lines.len()]);
            i += 1;
            out.len_bits()
        });
    });
    group.bench_function("bdi", |b| {
        let mut enc = Bdi::new();
        let mut i = 0;
        b.iter(|| {
            let out = enc.compress(&lines[i % lines.len()]);
            i += 1;
            out.len_bits()
        });
    });
    group.bench_function("lbe256_streaming", |b| {
        let mut enc = Lbe::streaming(256);
        let mut i = 0;
        b.iter(|| {
            let out = enc.compress(&lines[i % lines.len()]);
            i += 1;
            out.len_bits()
        });
    });
    group.bench_function("lzss_32k", |b| {
        let mut enc = Lzss::new(32 << 10);
        let mut i = 0;
        b.iter(|| {
            let out = enc.compress(&lines[i % lines.len()]);
            i += 1;
            out.len_bits()
        });
    });
    group.finish();
}

fn bench_seeded(c: &mut Criterion) {
    let lines = test_lines(64, 1);
    let refs = [lines[0], lines[1], lines[2]];
    let target = {
        let mut t = lines[0];
        t.set_word(5, 0x0123_4567);
        t
    };
    let mut group = c.benchmark_group("seeded_diff");
    group.throughput(Throughput::Bytes(64));
    let engines: [(&str, Box<dyn SeededCompressor>); 3] = [
        ("lbe", Box::new(Lbe::seeded())),
        ("cpack128", Box::new(Cpack::seeded())),
        ("oracle", Box::new(Oracle::new())),
    ];
    for (name, engine) in &engines {
        // One reused writer, as a link reuses its DIFF buffer.
        let mut out = BitWriter::new();
        group.bench_function(name, |b| {
            b.iter(|| {
                out.clear();
                engine.compress_seeded(&refs, &target, &mut out);
                out.len_bits()
            });
        });
    }
    group.finish();
}

/// Framing plus in-place parsing of one DIFF payload: the per-transfer
/// bitstream work a CABLE link does around the engine call.
fn bench_payload_codec(c: &mut Criterion) {
    let lines = test_lines(64, 1);
    let refs = [lines[0], lines[1], lines[2]];
    let mut target = lines[0];
    target.set_word(5, 0x0123_4567);
    let mut diff = BitWriter::new();
    Lbe::seeded().compress_seeded(&refs, &target, &mut diff);
    let codec = PayloadCodec::new(17, 16);
    let mut frame = BitWriter::new();
    let mut group = c.benchmark_group("payload_codec");
    group.throughput(Throughput::Bytes(64));
    group.bench_function("frame_and_parse_diff", |b| {
        b.iter(|| {
            frame.clear();
            codec.encode_compressed(&[3, 0x1_0000, 42], &diff, &mut frame);
            match codec.parse(frame.as_slice(), frame.len_bits()) {
                Ok(ParsedPayload::Compressed { diff, .. }) => diff.remaining_bits(),
                _ => unreachable!("a compressed frame parses as compressed"),
            }
        });
    });
    group.finish();
}

fn bench_link(c: &mut Criterion) {
    let mut group = c.benchmark_group("cable_link");
    group.throughput(Throughput::Bytes(64));
    group.bench_function("request_end_to_end", |b| {
        b.iter_batched(
            || {
                let mut cfg = CableConfig::memory_link_default();
                cfg.engine = EngineKind::Lbe;
                let link = CableLink::new(cfg);
                let p = cable_trace::by_name("dealII").expect("profile");
                (link, WorkloadGen::new(p, 0))
            },
            |(mut link, mut gen)| {
                for _ in 0..512 {
                    let a = gen.next_access();
                    let m = gen.content(a.addr);
                    link.request(a.addr, m);
                }
                link.stats().wire_bits
            },
            BatchSize::LargeInput,
        );
    });
    group.finish();
}

fn bench_search(c: &mut Criterion) {
    use cable_cache::{CacheGeometry, CoherenceState, SetAssocCache};
    use cable_core::hash_table::SignatureTable;
    use cable_core::search::search_references;
    use cable_core::SignatureExtractor;

    // A populated cache + table, then time the search pipeline alone.
    let geometry = CacheGeometry::new(1 << 20, 8);
    let extractor = SignatureExtractor::new(1);
    let mut cache = SetAssocCache::new(geometry);
    let mut table = SignatureTable::new(geometry.lines() / 2, 2);
    let lines = test_lines(4096, 3);
    for (i, line) in lines.iter().enumerate() {
        let outcome = cache.insert(
            Address::from_line_number(i as u64),
            *line,
            CoherenceState::Shared,
        );
        let packed = outcome.line_id.pack(&geometry) as u32;
        for sig in extractor.insert_signatures(line) {
            table.insert(sig, packed);
        }
    }
    let mut rng = SplitMix64::new(9);
    let mut group = c.benchmark_group("search_pipeline");
    group.bench_function("search_references_6", |b| {
        b.iter(|| {
            let target = lines[rng.next_bounded(4096) as usize];
            search_references(&target, &extractor, &table, &cache, None, 6, 3).1
        });
    });
    group.bench_function("search_references_64", |b| {
        b.iter(|| {
            let target = lines[rng.next_bounded(4096) as usize];
            search_references(&target, &extractor, &table, &cache, None, 64, 3).1
        });
    });
    group.finish();
}

fn bench_set_assoc(c: &mut Criterion) {
    use cable_cache::{CacheGeometry, CoherenceState, SetAssocCache};
    use cable_sim::{CompressedLink, Scheme, SystemConfig};

    // Warmed caches at the memory link's 4 MiB 16-way L4 and at the 16 KiB
    // 8-way home slice of the 10k-endpoint mesh. Addresses span four times
    // the capacity, so about a quarter of the lookups hit. One iteration is
    // a burst of 256 operations: a single tag scan is shorter than the
    // timer read around it.
    const ADDRS: usize = 4096;
    const BURST: usize = 256;
    let mut group = c.benchmark_group("set_assoc");
    for (label, geometry) in [
        ("l4_4m_16way", CacheGeometry::new(4 << 20, 16)),
        ("mesh_16k_8way", CacheGeometry::new(16 << 10, 8)),
    ] {
        let span = geometry.lines() * 4;
        let mut rng = SplitMix64::new(5);
        let mut cache = SetAssocCache::new(geometry);
        for _ in 0..geometry.lines() * 2 {
            let addr = Address::from_line_number(rng.next_bounded(span));
            cache.insert(addr, LineData::zeroed(), CoherenceState::Shared);
        }
        let addrs: Vec<Address> = (0..ADDRS)
            .map(|_| Address::from_line_number(rng.next_bounded(span)))
            .collect();
        let mut at = 0;
        let mut burst = || {
            at = (at + BURST) % ADDRS;
            &addrs[at..at + BURST]
        };
        group.bench_function(&format!("lookup_{BURST}_{label}"), |b| {
            b.iter(|| burst().iter().filter_map(|&a| cache.lookup(a)).count())
        });
        group.bench_function(&format!("access_{BURST}_{label}"), |b| {
            b.iter(|| burst().iter().filter_map(|&a| cache.access(a)).count())
        });
        group.bench_function(&format!("insert_{BURST}_{label}"), |b| {
            b.iter(|| {
                burst()
                    .iter()
                    .filter_map(|&a| {
                        cache
                            .insert(a, LineData::zeroed(), CoherenceState::Shared)
                            .evicted
                    })
                    .count()
            })
        });
    }
    // One pipeline of the mesh: what `FabricSim::with_config` builds
    // 5,041 times for 71 chips.
    let (home, remote) = (
        CacheGeometry::new(16 << 10, 8),
        CacheGeometry::new(8 << 10, 4),
    );
    let width = SystemConfig::paper_defaults().link_width_bits;
    group.bench_function("build_mesh_link", |b| {
        b.iter(|| CompressedLink::build(Scheme::Cable(EngineKind::Lbe), home, remote, width))
    });
    group.finish();
}

fn bench_workload_gen(c: &mut Criterion) {
    // Building the 71 chip generators of the full-size mesh: one walk of
    // the instance family against replaying every phase lag from scratch.
    const COPIES: usize = 71;
    let p = cable_trace::by_name("mcf").expect("mcf profile");
    let first_line = |mut g: WorkloadGen| g.next_access().addr.line_number();
    let mut group = c.benchmark_group("workload_gen");
    group.bench_function("instances_71", |b| {
        b.iter(|| {
            WorkloadGen::instances(p)
                .take(COPIES)
                .map(first_line)
                .sum::<u64>()
        });
    });
    group.bench_function("new_loop_71", |b| {
        b.iter(|| {
            (0..COPIES as u64)
                .map(|i| first_line(WorkloadGen::new(p, i)))
                .sum::<u64>()
        });
    });
    group.finish();
}

fn bench_report_flow(c: &mut Criterion) {
    use cable_sim::{run_group_telemetry, Scheme, SystemConfig};
    use cable_telemetry::{jsonl, Report, Telemetry};

    // A fixed dealII CABLE+LBE group trace (25,485 events, 2.9 MB of
    // JSONL), then each step of the report flow on it.
    let tel = Telemetry::enabled();
    let profile = cable_trace::by_name("dealII").expect("dealII profile");
    let config = SystemConfig::paper_defaults();
    let _ = run_group_telemetry(
        profile,
        Scheme::Cable(EngineKind::Lbe),
        256,
        2_000,
        4_000,
        &config,
        &tel,
    );
    let text = jsonl(&tel);
    let mut group = c.benchmark_group("report_flow");
    group.bench_function("events", |b| b.iter(|| tel.events().len()));
    group.bench_function("jsonl", |b| b.iter(|| jsonl(&tel).len()));
    group.bench_function("from_telemetry", |b| {
        b.iter(|| Report::from_telemetry(&tel).events)
    });
    group.bench_function("from_jsonl", |b| {
        b.iter(|| Report::from_jsonl(&text).map(|r| r.events))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_engines,
    bench_seeded,
    bench_payload_codec,
    bench_link,
    bench_search,
    bench_set_assoc,
    bench_workload_gen,
    bench_report_flow
);
criterion_main!(benches);
