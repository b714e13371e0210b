//! Scalar-vs-vectorized microbenchmarks for the four encode-path kernels:
//! signature extraction, H3 hashing, the LBE DIFF line encode, and the
//! CPACK dictionary probe.
//!
//! Each pair runs the lane-parallel kernel next to the scalar oracle it is
//! proven bit-identical to (see the proptest equivalence suites), so
//! kernel-level wins stay visible independently of the end-to-end
//! `perf_smoke` numbers. The lane kernels are the only encode path the
//! library runs; the scalar entries time the hidden test oracles.

use cable_common::{Address, LineData};
use cable_compress::{Compressor, Cpack, Lbe, SeededCompressor};
use cable_core::h3::H3;
use cable_core::{SignatureBuf, SignatureExtractor};
use cable_trace::WorkloadGen;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};

fn test_lines(n: usize, seed: u64) -> Vec<LineData> {
    let p = cable_trace::by_name("gcc").expect("gcc profile");
    let gen = WorkloadGen::new(p, seed);
    (0..n as u64)
        .map(|i| gen.content(Address::from_line_number(i)))
        .collect()
}

fn bench_signature_extract(c: &mut Criterion) {
    let extractor = SignatureExtractor::new(1);
    let lines = test_lines(256, 0);
    let mut group = c.benchmark_group("signature_extract");
    group.throughput(Throughput::Bytes(64));
    group.bench_function("search_vectorized", |b| {
        let mut i = 0;
        b.iter(|| {
            let mut sigs = SignatureBuf::new();
            extractor.search_signatures_into(&lines[i % lines.len()], &mut sigs);
            i += 1;
            sigs.len()
        });
    });
    group.bench_function("search_scalar", |b| {
        let mut i = 0;
        b.iter(|| {
            let mut sigs = SignatureBuf::new();
            extractor.search_signatures_into_scalar(&lines[i % lines.len()], &mut sigs);
            i += 1;
            sigs.len()
        });
    });
    group.bench_function("insert_vectorized", |b| {
        let mut i = 0;
        b.iter(|| {
            let mut sigs = SignatureBuf::new();
            extractor.insert_signatures_into(&lines[i % lines.len()], 2, &mut sigs);
            i += 1;
            sigs.len()
        });
    });
    group.bench_function("insert_scalar", |b| {
        let mut i = 0;
        b.iter(|| {
            let mut sigs = SignatureBuf::new();
            extractor.insert_signatures_into_scalar(&lines[i % lines.len()], 2, &mut sigs);
            i += 1;
            sigs.len()
        });
    });
    group.finish();
}

fn bench_h3(c: &mut Criterion) {
    let h = H3::new(0xcab1e, 32);
    let lines = test_lines(256, 1);
    let words: Vec<[u32; 16]> = lines.iter().map(LineData::to_words).collect();
    let mut group = c.benchmark_group("h3_hash");
    group.throughput(Throughput::Bytes(64));
    group.bench_function("hash_line", |b| {
        let mut i = 0;
        b.iter(|| {
            let hs = h.hash_line(&words[i % words.len()]);
            i += 1;
            hs.iter().fold(0u64, |a, &x| a ^ x)
        });
    });
    group.bench_function("hash_per_word", |b| {
        let mut i = 0;
        b.iter(|| {
            let ws = &words[i % words.len()];
            i += 1;
            ws.iter().fold(0u64, |a, &w| a ^ h.hash(w))
        });
    });
    group.bench_function("hash_reference", |b| {
        let mut i = 0;
        b.iter(|| {
            let ws = &words[i % words.len()];
            i += 1;
            ws.iter().fold(0u64, |a, &w| a ^ h.hash_reference(w))
        });
    });
    group.finish();
}

fn bench_diff_encode(c: &mut Criterion) {
    let lines = test_lines(64, 2);
    let refs = [lines[0], lines[1], lines[2]];
    let target = {
        let mut t = lines[0];
        t.set_word(5, 0x0123_4567);
        t.set_word(11, 0x89ab_cdef);
        t
    };
    let engine = Lbe::seeded();
    let mut group = c.benchmark_group("diff_line_encode");
    group.throughput(Throughput::Bytes(64));
    group.bench_function("lbe_vectorized", |b| {
        b.iter(|| engine.encode_seeded(&refs, &target).len_bits());
    });
    group.bench_function("lbe_scalar", |b| {
        b.iter(|| engine.compress_seeded_scalar(&refs, &target).len_bits());
    });
    group.finish();
}

fn bench_cpack_probe(c: &mut Criterion) {
    let lines = test_lines(256, 3);
    let mut group = c.benchmark_group("cpack_dict_probe");
    group.throughput(Throughput::Bytes(64));
    group.bench_function("probe_vectorized", |b| {
        let mut enc = Cpack::streaming(128);
        let mut i = 0;
        b.iter(|| {
            let out = enc.compress(&lines[i % lines.len()]);
            i += 1;
            out.len_bits()
        });
    });
    group.bench_function("probe_scalar", |b| {
        let mut enc = Cpack::streaming(128);
        let mut i = 0;
        b.iter(|| {
            let out = enc.compress_scalar(&lines[i % lines.len()]);
            i += 1;
            out.len_bits()
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_signature_extract,
    bench_h3,
    bench_diff_encode,
    bench_cpack_probe
);
criterion_main!(benches);
