//! Wire-level equivalence: the vectorized encode kernels must produce
//! byte-identical *encoded wire output* to their scalar oracles — not just
//! decode back to the same line. Any tie-break or ordering drift in the
//! lane kernels would silently change every committed figure; these tests
//! pin the bytes for the line classes the ISSUE calls out: random lines,
//! all-zero lines, all-exception lines, and fault-mode CRC-framed payloads.

use cable_common::{crc32, BitWriter, LineData, SplitMix64};
use cable_compress::{Cpack, Encoded, Lbe, SeededCompressor};
use cable_core::codec::{ParsedPayload, PayloadCodec};
use cable_core::{SignatureBuf, SignatureExtractor};
use proptest::prelude::*;

fn assert_same_wire(label: &str, vec: &Encoded, scalar: &Encoded) {
    assert_eq!(
        vec.len_bits(),
        scalar.len_bits(),
        "{label}: bit length diverged"
    );
    assert_eq!(vec.as_bytes(), scalar.as_bytes(), "{label}: bytes diverged");
}

/// Lines whose words collide with the references often enough to exercise
/// zero runs, repeats, copies, and literals in one encode.
fn clashy_line(rng: &mut SplitMix64, base: &LineData) -> LineData {
    LineData::from_words(core::array::from_fn(|i| match rng.next_bounded(4) {
        0 => 0,
        1 => base.word(i),
        2 => base.word(rng.next_bounded(16) as usize),
        _ => rng.next_u32(),
    }))
}

/// A line sharing no word (and no CPACK high-byte pattern) with `refs`:
/// every position becomes an exception/literal.
fn all_exception_line(rng: &mut SplitMix64) -> LineData {
    // High byte 0xa5 never appears in `ref_lines` (they use 0x04xx_xxxx),
    // is non-trivial, and defeats the hi24/hi16 dictionary classes.
    LineData::from_words(core::array::from_fn(|_| {
        0xa500_0000 | (rng.next_u32() & 0x00ff_ffff)
    }))
}

fn ref_lines(rng: &mut SplitMix64) -> [LineData; 3] {
    core::array::from_fn(|_| {
        LineData::from_words(core::array::from_fn(|i| {
            0x0400_0000 ^ ((i as u32) * 0x0101) ^ (rng.next_u32() & 0x0000_ffff)
        }))
    })
}

/// Frames a seeded encode both ways — vectorized and scalar oracle —
/// through the full fault-mode path (payload framing + line CRC + frame
/// CRC) and demands byte-identical frames plus a clean round-trip.
fn assert_guarded_equivalence(engine: &dyn SeededCompressor, refs: &[LineData], line: &LineData) {
    let codec = PayloadCodec::new(10, 16);
    let lids = &[0, 1, 2][..refs.len()];
    let mut vec = BitWriter::new();
    engine.compress_seeded(refs, line, &mut vec);
    let mut framed = BitWriter::new();
    codec.encode_compressed(lids, &vec, &mut framed);
    let guarded = codec.encode_guarded(&framed, line);

    let scalar = scalar_seeded(engine, refs, line);
    let mut framed_s = BitWriter::new();
    codec.encode_compressed(lids, scalar.bits(), &mut framed_s);
    let guarded_s = codec.encode_guarded(&framed_s, line);

    assert_eq!(
        guarded.len_bits(),
        guarded_s.len_bits(),
        "guarded frame length diverged"
    );
    assert_eq!(
        guarded.as_slice(),
        guarded_s.as_slice(),
        "guarded frame bytes diverged"
    );

    // The CRC-framed payload still decodes back to the exact line.
    let (parsed, line_crc) = codec
        .parse_guarded(guarded.as_slice(), guarded.len_bits())
        .expect("self-produced frame verifies");
    let ParsedPayload::Compressed { mut diff, .. } = parsed else {
        panic!("compressed payload parsed as raw");
    };
    let decoded = engine
        .decompress_seeded(refs, &mut diff)
        .expect("self-produced diff decodes");
    assert_eq!(&decoded, line, "round-trip through guarded frame");
    assert_eq!(
        line_crc,
        crc32(line.as_bytes()),
        "line CRC covers the decoded bytes"
    );
}

fn scalar_seeded(engine: &dyn SeededCompressor, refs: &[LineData], line: &LineData) -> Encoded {
    // Downcast-free dispatch: the two seeded engines expose their scalar
    // oracles as inherent methods, selected by name.
    match engine.name() {
        "LBE" => Lbe::seeded().compress_seeded_scalar(refs, line),
        "CPACK128" => Cpack::seeded().compress_seeded_scalar(refs, line),
        other => panic!("no scalar oracle wired for {other}"),
    }
}

fn engines() -> Vec<Box<dyn SeededCompressor + Send + Sync>> {
    vec![Box::new(Lbe::seeded()), Box::new(Cpack::seeded())]
}

#[test]
fn all_zero_lines_match_scalar_wire_bytes() {
    let mut rng = SplitMix64::new(1);
    let refs = ref_lines(&mut rng);
    for engine in engines() {
        let vec = engine.encode_seeded(&refs, &LineData::zeroed());
        let scalar = scalar_seeded(engine.as_ref(), &refs, &LineData::zeroed());
        assert_same_wire(engine.name(), &vec, &scalar);
        assert_guarded_equivalence(engine.as_ref(), &refs, &LineData::zeroed());
    }
}

#[test]
fn all_exception_lines_match_scalar_wire_bytes() {
    let mut rng = SplitMix64::new(2);
    for case in 0..32 {
        let refs = ref_lines(&mut rng);
        let line = all_exception_line(&mut rng);
        for engine in engines() {
            let vec = engine.encode_seeded(&refs, &line);
            let scalar = scalar_seeded(engine.as_ref(), &refs, &line);
            assert_same_wire(&format!("{} case {case}", engine.name()), &vec, &scalar);
        }
    }
}

#[test]
fn signature_extraction_matches_scalar_on_special_lines() {
    let extractor = SignatureExtractor::new(0xcab1e);
    let mut rng = SplitMix64::new(3);
    let mut lines = vec![LineData::zeroed()];
    for _ in 0..16 {
        lines.push(all_exception_line(&mut rng));
        let refs = ref_lines(&mut rng);
        lines.push(clashy_line(&mut rng, &refs[0]));
    }
    for line in &lines {
        let (mut vec, mut scalar) = (SignatureBuf::new(), SignatureBuf::new());
        extractor.search_signatures_into(line, &mut vec);
        extractor.search_signatures_into_scalar(line, &mut scalar);
        assert_eq!(vec.as_slice(), scalar.as_slice(), "search diverged");
        for count in 1..=16 {
            let (mut vec, mut scalar) = (SignatureBuf::new(), SignatureBuf::new());
            extractor.insert_signatures_into(line, count, &mut vec);
            extractor.insert_signatures_into_scalar(line, count, &mut scalar);
            assert_eq!(vec.as_slice(), scalar.as_slice(), "insert({count})");
        }
    }
}

proptest! {
    #[test]
    fn prop_random_lines_match_scalar_wire_bytes(seed in any::<u64>()) {
        let mut rng = SplitMix64::new(seed);
        let refs = ref_lines(&mut rng);
        let base = refs[rng.next_bounded(3) as usize];
        let line = clashy_line(&mut rng, &base);
        for engine in engines() {
            let vec = engine.encode_seeded(&refs, &line);
            let scalar = scalar_seeded(engine.as_ref(), &refs, &line);
            assert_same_wire(engine.name(), &vec, &scalar);
        }
    }

    #[test]
    fn prop_guarded_frames_match_scalar_byte_for_byte(seed in any::<u64>()) {
        let mut rng = SplitMix64::new(seed);
        let refs = ref_lines(&mut rng);
        let line = match rng.next_bounded(3) {
            0 => LineData::zeroed(),
            1 => all_exception_line(&mut rng),
            _ => clashy_line(&mut rng, &refs[0]),
        };
        for engine in engines() {
            assert_guarded_equivalence(engine.as_ref(), &refs, &line);
        }
    }
}
