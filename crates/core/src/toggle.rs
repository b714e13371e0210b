//! Wire bit-toggle accounting (toggle energy, §VI-D), shared by both link
//! models.
//!
//! A payload crosses the link as consecutive `width`-bit flits, the last
//! one zero-padded; each flit is compared with the one before it (the
//! previous payload's last flit for the first), and every differing bit
//! is one toggle. Links wider than 64 bits are accounted in 64-bit
//! sub-words.

use cable_common::BitReader;

/// Counts the toggles of the payload `bytes[..len_bits]` sent in
/// `width`-bit flits after `last_flit`, updates `last_flit`, and returns
/// `(toggles, flits)`.
///
/// Byte-aligned widths (every shipped config) take the lane kernel;
/// other widths take the per-flit [`count_toggles_scalar`] loop. Bits past
/// `len_bits` in the final byte must be zero, as `BitWriter` leaves them.
pub(crate) fn count_toggles(
    bytes: &[u8],
    len_bits: usize,
    width: u32,
    last_flit: &mut u64,
) -> (u64, u64) {
    if width.is_multiple_of(8) {
        count_toggles_lanes(bytes, len_bits, width, last_flit)
    } else {
        count_toggles_scalar(bytes, len_bits, width, last_flit)
    }
}

/// The per-flit BitReader loop: the oracle the lane kernel is tested
/// against, and the path for widths that are not a whole number of bytes.
pub(crate) fn count_toggles_scalar(
    bytes: &[u8],
    len_bits: usize,
    width: u32,
    last_flit: &mut u64,
) -> (u64, u64) {
    let mut reader = BitReader::new(bytes, len_bits);
    let (mut toggles, mut flits) = (0, 0);
    loop {
        let take = reader.remaining_bits().min(width as usize);
        if take == 0 {
            break;
        }
        let flit = reader.read_bits(take as u32).expect("sized read") << (width as usize - take);
        toggles += u64::from((flit ^ *last_flit).count_ones());
        flits += 1;
        *last_flit = flit;
    }
    (toggles, flits)
}

/// Lane kernel: flit `i` XOR flit `i-1` compares stream byte `k` with
/// byte `k - width/8`, and the final flit's zero padding matches the
/// payload's zeroed tail bits, so the toggle count is one shifted
/// self-XOR popcount over the zero-padded payload bytes.
fn count_toggles_lanes(
    bytes: &[u8],
    len_bits: usize,
    width: u32,
    last_flit: &mut u64,
) -> (u64, u64) {
    if len_bits == 0 {
        return (0, 0);
    }
    let bytes = &bytes[..len_bits.div_ceil(8)];
    debug_assert!(
        len_bits.is_multiple_of(8) || bytes[bytes.len() - 1] << (len_bits % 8) == 0,
        "bits past the payload must be zero"
    );
    let wb = (width / 8) as usize;
    let flits = len_bits.div_ceil(width as usize);
    let padded_len = flits * wb;
    // 8 zero-padded payload bytes starting at `k`, big-endian (stream
    // order), matching the MSB-first flit values of the scalar loop.
    let load8 = |k: usize| -> u64 {
        let mut b = [0u8; 8];
        if k < bytes.len() {
            let n = (bytes.len() - k).min(8);
            b[..n].copy_from_slice(&bytes[k..k + n]);
        }
        u64::from_be_bytes(b)
    };
    let flit_shift = 8 * (8 - wb as u32);
    let first = load8(0) >> flit_shift;
    let mut toggles = u64::from((first ^ *last_flit).count_ones());
    let mut k = wb;
    while k < padded_len {
        let valid = (padded_len - k).min(8);
        let mut x = load8(k) ^ load8(k - wb);
        if valid < 8 {
            // Mask the overshoot: positions past the padded end would
            // otherwise compare real last-flit bytes against zeros.
            x &= u64::MAX << (8 * (8 - valid));
        }
        toggles += u64::from(x.count_ones());
        k += 8;
    }
    *last_flit = load8(padded_len - wb) >> flit_shift;
    (toggles, flits as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cable_common::{BitWriter, SplitMix64};
    use proptest::prelude::*;

    /// A random payload of up to 600 bits, written in random-sized chunks.
    fn random_payload(rng: &mut SplitMix64) -> BitWriter {
        let mut payload = BitWriter::new();
        let mut left = rng.next_bounded(600) as u32;
        while left > 0 {
            let take = left.min(1 + (rng.next_bounded(64) as u32).min(63));
            payload.write_bits(rng.next_u64() >> (64 - take), take);
            left -= take;
        }
        payload
    }

    #[test]
    fn known_flit_sequences_toggle_as_expected() {
        // 0xFF then 0x00 on an 8-bit link: 8 toggles in, 8 toggles out.
        let mut last = 0;
        assert_eq!(count_toggles(&[0xff, 0x00], 16, 8, &mut last), (16, 2));
        assert_eq!(last, 0);
        // A 12-bit payload on a 16-bit link is one padded flit.
        let mut last = 0;
        assert_eq!(count_toggles(&[0xab, 0xc0], 12, 16, &mut last), (7, 1));
        assert_eq!(last, 0xabc0);
        let mut last = 5;
        assert_eq!(count_toggles(&[], 0, 32, &mut last), (0, 0));
        assert_eq!(last, 5, "an empty payload leaves the wire as it was");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_lanes_match_scalar_oracle(seed in any::<u64>()) {
            // The lane kernel must match the flit-by-flit walk exactly:
            // toggles, flit count, and the carried last flit (which chains
            // into the next payload's first XOR).
            let mut rng = SplitMix64::new(seed);
            for width in [8u32, 16, 24, 32, 40, 48, 56, 64] {
                let start = rng.next_u64() >> (64 - width);
                let (mut lanes, mut scalar) = (start, start);
                for _ in 0..8 {
                    let payload = random_payload(&mut rng);
                    let (bytes, len) = (payload.as_slice(), payload.len_bits());
                    prop_assert_eq!(
                        count_toggles(bytes, len, width, &mut lanes),
                        count_toggles_scalar(bytes, len, width, &mut scalar),
                        "width {}", width
                    );
                    prop_assert_eq!(lanes, scalar);
                }
            }
        }

        #[test]
        fn prop_whole_lines_match_scalar_oracle(
            line in proptest::collection::vec(any::<u8>(), 64..=64),
            width_idx in 0usize..4,
        ) {
            // Raw fallbacks send the line's own 64 bytes.
            let width = [8u32, 16, 32, 64][width_idx];
            let (mut lanes, mut scalar) = (0, 0);
            for _ in 0..2 {
                prop_assert_eq!(
                    count_toggles(&line, 512, width, &mut lanes),
                    count_toggles_scalar(&line, 512, width, &mut scalar)
                );
                prop_assert_eq!(lanes, scalar);
            }
        }
    }
}
