//! Golden regression tests: exact payload and wire sizes for scripted
//! scenarios. Any unintentional change to a codec's bit format, the payload
//! framing, or the flit quantization shows up here as an exact-value
//! mismatch (intentional format changes must update these numbers and the
//! format documentation together).

use cable::common::{Address, LineData};
use cable::compress::{
    Bdi, Compressor, Cpack, EngineKind, Lbe, Lzss, Oracle, SeededCompressor, Zce,
};
use cable::core::{CableConfig, CableLink, TransferKind};

fn object_line() -> LineData {
    LineData::from_words(core::array::from_fn(|i| 0x0400_0000 + (i as u32) * 0x111))
}

#[test]
fn golden_engine_payload_bits() {
    let zero = LineData::zeroed();
    let splat = LineData::splat_word(0xdead_beef);
    let object = object_line();

    // CPACK per-line.
    let mut cpack = Cpack::per_line();
    assert_eq!(cpack.compress(&zero).len_bits(), 32); // 16 x zzzz
    assert_eq!(cpack.compress(&splat).len_bits(), 34 + 15 * 6); // literal + mmmm
                                                                // First word is a literal; the rest share high-16 bits (mmxx, 24 bits).
    assert_eq!(cpack.compress(&object).len_bits(), 34 + 15 * 24);

    // BDI.
    let mut bdi = Bdi::new();
    assert_eq!(bdi.compress(&zero).len_bits(), 4);
    assert_eq!(bdi.compress(&splat).len_bits(), 4 + 64);

    // ZCE.
    let mut zce = Zce::new();
    assert_eq!(zce.compress(&zero).len_bits(), 16);
    assert_eq!(zce.compress(&splat).len_bits(), 16 + 16 * 32);

    // LBE unseeded.
    let lbe = Lbe::seeded();
    assert_eq!(lbe.encode_seeded(&[], &zero).len_bits(), 6); // one zero run
    assert_eq!(lbe.encode_seeded(&[], &splat).len_bits(), 35 + 7); // literal + repeat

    // LBE seeded with an exact duplicate: one copy command.
    assert_eq!(lbe.encode_seeded(&[object], &object).len_bits(), 12);

    // ORACLE picks LBE's word coding for the exact duplicate (+1 mode bit).
    let oracle = Oracle::new();
    assert_eq!(oracle.encode_seeded(&[object], &object).len_bits(), 13);

    // LZSS streaming: second occurrence of a line is one 24-bit token.
    let mut lzss = Lzss::new(32 << 10);
    lzss.compress(&object);
    assert_eq!(lzss.compress(&object).len_bits(), 24);
}

#[test]
fn golden_cable_wire_sizes() {
    let mut link = CableLink::new(CableConfig::memory_link_default());

    // Zero line: flag(1) + count(2) + LBE zero run(6) = 9 bits -> 1 flit.
    let t = link.request(Address::new(0x0000), LineData::zeroed());
    assert_eq!(t.kind(), TransferKind::Unseeded);
    assert_eq!(t.payload_bits(), 9);
    assert_eq!(t.wire_bits(), 16);

    // Incompressible line: raw flag + 512 bits -> 33 flits.
    let mut rng = cable::common::SplitMix64::new(5);
    let mut words = [0u32; 16];
    for w in &mut words {
        *w = rng.next_u32();
    }
    let t = link.request(Address::new(0x0040), LineData::from_words(words));
    assert_eq!(t.kind(), TransferKind::Raw);
    assert_eq!(t.payload_bits(), 513);
    assert_eq!(t.wire_bits(), 528);

    // Exact duplicate of a cached object: flag(1) + count(2) + one 14-bit
    // RemoteLID (1 MB 8-way remote = 2^14 lines) + 12-bit LBE copy
    // = 29 bits -> 2 flits.
    let object = object_line();
    link.request(Address::new(0x0080), object);
    let t = link.request(Address::new(0x9000), object);
    assert_eq!(t.kind(), TransferKind::Diff);
    assert_eq!(t.refs(), 1);
    assert_eq!(t.payload_bits(), 1 + 2 + 14 + 12);
    assert_eq!(t.wire_bits(), 32);

    // One-word edit: copy + wide literal + copy = 12 + 35 + 12 DIFF bits.
    let mut edited = object;
    edited.set_word(7, 0x0123_4567);
    let t = link.request(Address::new(0xa000), edited);
    assert_eq!(t.kind(), TransferKind::Diff);
    assert_eq!(t.payload_bits(), 1 + 2 + 14 + 59);
    assert_eq!(t.wire_bits(), 80);
}

#[test]
fn golden_line_id_widths() {
    use cable::cache::CacheGeometry;
    // The paper's pointer-size arithmetic, pinned exactly (§III-D).
    assert_eq!(CacheGeometry::new(8 << 20, 8).line_id_bits(), 17);
    assert_eq!(CacheGeometry::new(16 << 20, 8).line_id_bits(), 18);
    assert_eq!(CacheGeometry::new(1 << 20, 8).line_id_bits(), 14);
    assert_eq!(CacheGeometry::new(4 << 20, 16).line_id_bits(), 16);
}

#[test]
fn golden_engine_dispatch_sizes_are_stable() {
    // The same scripted sequence under every CABLE engine: sizes may only
    // change with a deliberate codec revision.
    let object = object_line();
    let mut edited = object;
    edited.set_word(3, 0x0999_9999);
    let expect = [
        // CPACK's seeded dictionary indexes 32 words (5 bits): a full
        // match costs 7 bits; the edited word is a 34-bit literal that
        // also shifts later indices into mmxx patterns.
        (EngineKind::Cpack128, 16 * 7, 139),
        (EngineKind::Lbe, 12, 59),
        (EngineKind::Lzss, 24, 84),
        (EngineKind::Oracle, 13, 60),
    ];
    for (kind, dup_bits, edit_bits) in expect {
        let engine = kind.build();
        let dup = engine.encode_seeded(&[object], &object).len_bits();
        let edit = engine.encode_seeded(&[object], &edited).len_bits();
        assert_eq!(dup, dup_bits, "{kind} duplicate payload");
        assert_eq!(edit, edit_bits, "{kind} edited payload");
    }
}
