//! Bit-granular serialization for compressed payloads.
//!
//! CABLE payloads are not byte-aligned: a CPACK `zzzz` code is 2 bits, a
//! RemoteLID is 17 bits, the compressed/uncompressed flag is a single bit
//! (§III-E). [`BitWriter`] and [`BitReader`] provide an MSB-first bitstream
//! so codecs can measure and round-trip payloads at bit precision.

use std::fmt;

/// Widest field one 8-byte window can take at any bit offset: a write or
/// read starts at bit offset 0..=7 of its first byte, so 56 bits always fit
/// the 64-bit window. Wider fields split in two.
const WINDOW_BITS: u32 = 56;

/// Size of a writer's first allocation: a raw payload frame (1 + 512 bits,
/// 65 bytes) or the widest per-line engine payload (LBE's 16 wide literals,
/// 70 bytes), plus the 8-byte write window, rounded up to 16 bytes. A
/// reused writer then never grows on the link's reliable path.
const MIN_STORE_BYTES: usize = 80;

/// An append-only, MSB-first bit sink.
///
/// The backing store is zero past the used prefix, and every write makes
/// sure 8 bytes exist from its first byte, so a field of up to 56 bits is a
/// single unaligned big-endian read-modify-write (`OR` into the zero tail)
/// instead of a per-byte loop. [`BitWriter::clear`] re-zeroes the used
/// prefix and keeps the allocation, so a reused writer never allocates once
/// it has grown to its working size.
///
/// # Examples
///
/// ```
/// use cable_common::{BitReader, BitWriter};
///
/// let mut w = BitWriter::new();
/// w.write_bits(0b101, 3);
/// w.write_bits(0xdead_beef, 32);
/// let len = w.len_bits();
/// let mut r = BitReader::new(w.as_slice(), len);
/// assert_eq!(r.read_bits(3), Some(0b101));
/// assert_eq!(r.read_bits(32), Some(0xdead_beef));
/// assert_eq!(r.read_bits(1), None);
/// ```
#[derive(Clone, Default)]
pub struct BitWriter {
    /// Used prefix (`bit_len.div_ceil(8)` bytes, zero-padded in the final
    /// byte's low bits) followed by zero bytes only.
    bytes: Vec<u8>,
    /// Total number of bits written.
    bit_len: usize,
}

impl BitWriter {
    /// Creates an empty writer (no allocation until the first write).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends the low `count` bits of `value`, most significant first.
    ///
    /// # Panics
    ///
    /// Panics if `count > 64`.
    #[inline]
    pub fn write_bits(&mut self, value: u64, count: u32) {
        assert!(count <= 64, "cannot write more than 64 bits at once");
        if count > WINDOW_BITS {
            self.write_bits(value >> 32, count - 32);
            self.write_bits(value & 0xffff_ffff, 32);
            return;
        }
        if count == 0 {
            return;
        }
        // Mask to the low `count` bits so stray high bits cannot leak in.
        let value = value & ((1u64 << count) - 1);
        let shift = 64 - (self.bit_len % 8) as u32 - count;
        let window = self.window_mut(self.bit_len / 8);
        *window = (u64::from_be_bytes(*window) | (value << shift)).to_be_bytes();
        self.bit_len += count as usize;
    }

    /// Appends a single bit.
    #[inline]
    pub fn write_bit(&mut self, bit: bool) {
        let offset = self.bit_len % 8;
        self.window_mut(self.bit_len / 8)[0] |= u8::from(bit) << (7 - offset);
        self.bit_len += 1;
    }

    /// Appends the first `len_bits` bits of `bytes` (an MSB-first bitstream,
    /// e.g. another writer's backing store), 56 bits per step.
    ///
    /// # Panics
    ///
    /// Panics if `len_bits` exceeds the capacity of `bytes`.
    pub fn append_bits(&mut self, bytes: &[u8], len_bits: usize) {
        let mut r = BitReader::new(bytes, len_bits);
        self.append_from_reader(&mut r);
    }

    /// Drains every remaining bit of `r` into this writer, 56 bits per step.
    pub fn append_from_reader(&mut self, r: &mut BitReader<'_>) {
        loop {
            let take = r.remaining_bits().min(WINDOW_BITS as usize) as u32;
            if take == 0 {
                return;
            }
            let chunk = r.read_bits(take).expect("sized by remaining_bits");
            self.write_bits(chunk, take);
        }
    }

    /// Appends whole bytes (8 bits each).
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        if self.bit_len.is_multiple_of(8) {
            let start = self.bit_len / 8;
            self.reserve_len(start + bytes.len());
            self.bytes[start..start + bytes.len()].copy_from_slice(bytes);
            self.bit_len += bytes.len() * 8;
        } else {
            for chunk in bytes.chunks(7) {
                let value = chunk.iter().fold(0u64, |v, &b| v << 8 | u64::from(b));
                self.write_bits(value, 8 * chunk.len() as u32);
            }
        }
    }

    /// Empties the writer, re-zeroing the used prefix and keeping the
    /// allocation for reuse.
    pub fn clear(&mut self) {
        let used = self.used_bytes();
        self.bytes[..used].fill(0);
        self.bit_len = 0;
    }

    /// Total number of bits written.
    #[must_use]
    pub fn len_bits(&self) -> usize {
        self.bit_len
    }

    /// True if no bits have been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bit_len == 0
    }

    /// The used bytes; the last byte is zero-padded in its low bits.
    #[must_use]
    pub fn as_slice(&self) -> &[u8] {
        &self.bytes[..self.used_bytes()]
    }

    /// Consumes the writer, returning the used bytes.
    #[must_use]
    pub fn into_bytes(mut self) -> Vec<u8> {
        self.bytes.truncate(self.used_bytes());
        self.bytes
    }

    /// A reader over the written bits. It sees the zero tail of the
    /// backing store, so every read up to the last bit takes the one-load
    /// fast path.
    #[must_use]
    pub fn reader(&self) -> BitReader<'_> {
        BitReader::new(&self.bytes, self.bit_len)
    }

    fn used_bytes(&self) -> usize {
        self.bit_len.div_ceil(8)
    }

    /// The 8-byte window starting at `byte`, growing the zero tail first
    /// if the store is too short.
    #[inline]
    fn window_mut(&mut self, byte: usize) -> &mut [u8; 8] {
        self.reserve_len(byte + 8);
        (&mut self.bytes[byte..byte + 8])
            .try_into()
            .expect("8-byte window")
    }

    #[inline]
    fn reserve_len(&mut self, len: usize) {
        if self.bytes.len() < len {
            self.grow(len);
        }
    }

    /// Doubles the zero-filled store (at least to `len` bytes), so appends
    /// reallocate a logarithmic number of times, as `Vec::push` would. The
    /// first allocation already holds a whole raw payload frame.
    #[cold]
    fn grow(&mut self, len: usize) {
        let new_len = len.max(2 * self.bytes.len()).max(MIN_STORE_BYTES);
        self.bytes.resize(new_len, 0);
    }
}

impl PartialEq for BitWriter {
    fn eq(&self, other: &Self) -> bool {
        self.bit_len == other.bit_len && self.as_slice() == other.as_slice()
    }
}

impl Eq for BitWriter {}

impl fmt::Debug for BitWriter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitWriter({} bits)", self.bit_len)
    }
}

/// An MSB-first bit source over a byte slice.
///
/// A read of up to 56 bits is one unaligned 8-byte big-endian load plus a
/// shift whenever 8 bytes remain from the read position; near the end of
/// the slice the remaining bytes are zero-padded into the same window.
/// Bits past `len_bits` are never returned, whatever the slice holds there.
///
/// See [`BitWriter`] for a round-trip example.
#[derive(Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    len_bits: usize,
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `bytes` containing `len_bits` valid bits.
    ///
    /// # Panics
    ///
    /// Panics if `len_bits` exceeds the capacity of `bytes`.
    #[must_use]
    pub fn new(bytes: &'a [u8], len_bits: usize) -> Self {
        assert!(
            len_bits <= bytes.len() * 8,
            "len_bits {} exceeds byte capacity {}",
            len_bits,
            bytes.len() * 8
        );
        BitReader {
            bytes,
            len_bits,
            pos: 0,
        }
    }

    /// Fallible variant of [`BitReader::new`] for untrusted wire input:
    /// returns `None` instead of panicking when `len_bits` exceeds the
    /// capacity of `bytes`.
    #[must_use]
    pub fn try_new(bytes: &'a [u8], len_bits: usize) -> Option<Self> {
        if len_bits > bytes.len() * 8 {
            return None;
        }
        Some(BitReader {
            bytes,
            len_bits,
            pos: 0,
        })
    }

    /// Reads `count` bits, MSB first. Returns `None` if fewer than `count`
    /// bits remain.
    ///
    /// # Panics
    ///
    /// Panics if `count > 64`.
    #[inline]
    pub fn read_bits(&mut self, count: u32) -> Option<u64> {
        assert!(count <= 64, "cannot read more than 64 bits at once");
        if self.pos + count as usize > self.len_bits {
            return None;
        }
        if count > WINDOW_BITS {
            let hi = self.read_bits(count - 32)?;
            let lo = self.read_bits(32)?;
            return Some(hi << 32 | lo);
        }
        if count == 0 {
            return Some(0);
        }
        let byte = self.pos / 8;
        let word = match self.bytes.get(byte..byte + 8) {
            Some(window) => u64::from_be_bytes(window.try_into().expect("8-byte window")),
            None => {
                let mut window = [0u8; 8];
                let tail = &self.bytes[byte..];
                window[..tail.len()].copy_from_slice(tail);
                u64::from_be_bytes(window)
            }
        };
        let value = (word << (self.pos % 8)) >> (64 - count);
        self.pos += count as usize;
        Some(value)
    }

    /// Reads a single bit.
    #[inline]
    pub fn read_bit(&mut self) -> Option<bool> {
        self.read_bits(1).map(|b| b == 1)
    }

    /// Advances past `count` bits without reading them. Returns `None` (and
    /// stays put) if fewer than `count` bits remain.
    pub fn skip_bits(&mut self, count: usize) -> Option<()> {
        if count > self.remaining_bits() {
            return None;
        }
        self.pos += count;
        Some(())
    }

    /// Number of unread bits.
    #[must_use]
    pub fn remaining_bits(&self) -> usize {
        self.len_bits - self.pos
    }

    /// Current read position in bits from the start.
    #[must_use]
    pub fn position_bits(&self) -> usize {
        self.pos
    }
}

impl fmt::Debug for BitReader<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitReader({}/{} bits)", self.pos, self.len_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_bits_round_trip() {
        let mut w = BitWriter::new();
        let pattern = [true, false, true, true, false, false, true, false, true];
        for &b in &pattern {
            w.write_bit(b);
        }
        assert_eq!(w.len_bits(), 9);
        let mut r = BitReader::new(w.as_slice(), w.len_bits());
        for &b in &pattern {
            assert_eq!(r.read_bit(), Some(b));
        }
        assert_eq!(r.read_bit(), None);
    }

    #[test]
    fn multi_bit_fields_round_trip() {
        let mut w = BitWriter::new();
        w.write_bits(0x1ffff, 17); // a RemoteLID-sized field
        w.write_bits(0, 2);
        w.write_bits(u64::MAX, 64);
        let mut r = BitReader::new(w.as_slice(), w.len_bits());
        assert_eq!(r.read_bits(17), Some(0x1ffff));
        assert_eq!(r.read_bits(2), Some(0));
        assert_eq!(r.read_bits(64), Some(u64::MAX));
        assert_eq!(r.remaining_bits(), 0);
    }

    #[test]
    fn write_bytes_matches_write_bits() {
        let mut a = BitWriter::new();
        a.write_bytes(&[0xab, 0xcd]);
        let mut b = BitWriter::new();
        b.write_bits(0xabcd, 16);
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn append_bits_matches_bit_by_bit_copy() {
        let mut src = BitWriter::new();
        src.write_bits(0b1_0110, 5);
        src.write_bits(0xdead_beef_cafe_f00d, 64);
        src.write_bits(0x3, 7);
        // Reference: copy one bit at a time into a misaligned destination.
        let mut slow = BitWriter::new();
        slow.write_bits(0b101, 3);
        let mut r = BitReader::new(src.as_slice(), src.len_bits());
        while let Some(bit) = r.read_bit() {
            slow.write_bit(bit);
        }
        let mut fast = BitWriter::new();
        fast.write_bits(0b101, 3);
        fast.append_bits(src.as_slice(), src.len_bits());
        assert_eq!(fast.as_slice(), slow.as_slice());
        assert_eq!(fast.len_bits(), slow.len_bits());
    }

    #[test]
    fn append_from_reader_respects_position() {
        let mut src = BitWriter::new();
        src.write_bits(0xffff, 16);
        src.write_bits(0b0101, 4);
        let mut r = BitReader::new(src.as_slice(), src.len_bits());
        r.read_bits(16).unwrap();
        let mut w = BitWriter::new();
        w.append_from_reader(&mut r);
        assert_eq!(w.len_bits(), 4);
        assert_eq!(w.as_slice(), &[0b0101_0000]);
        assert_eq!(r.remaining_bits(), 0);
    }

    #[test]
    fn reader_rejects_overrun_reads() {
        let mut w = BitWriter::new();
        w.write_bits(0b11, 2);
        let mut r = BitReader::new(w.as_slice(), 2);
        assert_eq!(r.read_bits(3), None);
        assert_eq!(r.read_bits(2), Some(0b11));
    }

    #[test]
    #[should_panic(expected = "exceeds byte capacity")]
    fn reader_len_validation() {
        let _ = BitReader::new(&[0u8], 9);
    }

    #[test]
    fn try_new_rejects_overrun_without_panicking() {
        assert!(BitReader::try_new(&[0u8], 9).is_none());
        let mut r = BitReader::try_new(&[0b1010_0000], 3).expect("in range");
        assert_eq!(r.read_bits(3), Some(0b101));
    }

    /// The byte-at-a-time writer and reader this module shipped before the
    /// word-at-a-time rewrite, kept verbatim (minus docs) as the
    /// specification the fast paths are checked against.
    mod byte_oracle {
        use super::BitReader as FastReader;

        #[derive(Clone, Default, PartialEq, Eq, Debug)]
        pub struct BitWriter {
            bytes: Vec<u8>,
            bit_len: usize,
        }

        impl BitWriter {
            pub fn new() -> Self {
                Self::default()
            }

            pub fn write_bits(&mut self, value: u64, count: u32) {
                assert!(count <= 64, "cannot write more than 64 bits at once");
                if count == 0 {
                    return;
                }
                let value = if count == 64 {
                    value
                } else {
                    value & ((1u64 << count) - 1)
                };
                let mut remaining = count;
                let offset = (self.bit_len % 8) as u32;
                if offset != 0 {
                    let room = 8 - offset;
                    let take = room.min(remaining);
                    let chunk = ((value >> (remaining - take)) as u16 & ((1u16 << take) - 1)) as u8;
                    let last = self.bytes.last_mut().expect("partial byte exists");
                    *last |= chunk << (room - take);
                    self.bit_len += take as usize;
                    remaining -= take;
                }
                while remaining >= 8 {
                    remaining -= 8;
                    self.bytes.push((value >> remaining) as u8);
                    self.bit_len += 8;
                }
                if remaining > 0 {
                    let chunk = (value as u16 & ((1u16 << remaining) - 1)) as u8;
                    self.bytes.push(chunk << (8 - remaining));
                    self.bit_len += remaining as usize;
                }
            }

            pub fn write_bit(&mut self, bit: bool) {
                let offset = self.bit_len % 8;
                if offset == 0 {
                    self.bytes.push(0);
                }
                if bit {
                    let last = self.bytes.last_mut().expect("just pushed");
                    *last |= 1 << (7 - offset);
                }
                self.bit_len += 1;
            }

            pub fn append_bits(&mut self, bytes: &[u8], len_bits: usize) {
                let mut r = BitReader::new(bytes, len_bits);
                loop {
                    let take = r.remaining_bits().min(64) as u32;
                    if take == 0 {
                        return;
                    }
                    let chunk = r.read_bits(take).expect("sized by remaining_bits");
                    self.write_bits(chunk, take);
                }
            }

            pub fn write_bytes(&mut self, bytes: &[u8]) {
                if self.bit_len.is_multiple_of(8) {
                    self.bytes.extend_from_slice(bytes);
                    self.bit_len += bytes.len() * 8;
                } else {
                    for &b in bytes {
                        self.write_bits(u64::from(b), 8);
                    }
                }
            }

            pub fn len_bits(&self) -> usize {
                self.bit_len
            }

            pub fn as_slice(&self) -> &[u8] {
                &self.bytes
            }

            pub fn into_bytes(self) -> Vec<u8> {
                self.bytes
            }
        }

        pub struct BitReader<'a> {
            bytes: &'a [u8],
            len_bits: usize,
            pos: usize,
        }

        impl<'a> BitReader<'a> {
            pub fn new(bytes: &'a [u8], len_bits: usize) -> Self {
                assert!(len_bits <= bytes.len() * 8);
                BitReader {
                    bytes,
                    len_bits,
                    pos: 0,
                }
            }

            pub fn read_bits(&mut self, count: u32) -> Option<u64> {
                assert!(count <= 64, "cannot read more than 64 bits at once");
                if self.pos + count as usize > self.len_bits {
                    return None;
                }
                let mut value = 0u64;
                let mut remaining = count;
                while remaining > 0 {
                    let byte = self.bytes[self.pos / 8];
                    let avail = 8 - (self.pos % 8) as u32;
                    let take = avail.min(remaining);
                    let chunk = (u16::from(byte >> (avail - take)) & ((1u16 << take) - 1)) as u8;
                    value = (value << take) | u64::from(chunk);
                    self.pos += take as usize;
                    remaining -= take;
                }
                Some(value)
            }

            pub fn remaining_bits(&self) -> usize {
                self.len_bits - self.pos
            }
        }

        /// Reads `widths` from a fast and an oracle reader in lockstep,
        /// then reads past the end; both must agree on every value and on
        /// `None`.
        pub fn assert_same_reads(
            fast: &mut FastReader<'_>,
            slow: &mut BitReader<'_>,
            widths: &[u32],
        ) {
            for &w in widths.iter().cycle().take(4 * widths.len()) {
                let (f, s) = (fast.read_bits(w), slow.read_bits(w));
                assert_eq!(f, s, "read_bits({w}) diverged");
                assert_eq!(fast.remaining_bits(), slow.remaining_bits());
            }
            while fast.remaining_bits() > 0 {
                let w = fast.remaining_bits().min(64) as u32;
                assert_eq!(fast.read_bits(w), slow.read_bits(w), "drain diverged");
            }
            assert_eq!(slow.remaining_bits(), 0);
            for w in 1..=64 {
                assert_eq!(fast.read_bits(w), None, "read past the end");
                assert_eq!(slow.read_bits(w), None);
            }
        }
    }

    /// One random writer operation for the oracle proptests.
    #[derive(Clone, Debug)]
    enum Op {
        Bits(u64, u32),
        Bit(bool),
        Bytes(Vec<u8>),
        Append(Vec<u8>, usize),
        Clear,
    }

    fn op_from((kind, value, count, bytes): (u8, u64, u32, Vec<u8>)) -> Op {
        match kind {
            0..=3 => Op::Bits(value, count),
            4 | 5 => Op::Bit(value & 1 == 1),
            6 => Op::Bytes(bytes),
            7 | 8 => {
                let len = (value as usize) % (bytes.len() * 8 + 1);
                Op::Append(bytes, len)
            }
            _ => Op::Clear,
        }
    }

    /// Applies `ops` to a fast writer and to the oracle (a `Clear` resets
    /// the fast writer in place and replaces the oracle with a fresh one).
    fn apply(ops: &[Op], fast: &mut BitWriter, slow: &mut byte_oracle::BitWriter) {
        for op in ops {
            match op {
                Op::Bits(v, c) => {
                    fast.write_bits(*v, *c);
                    slow.write_bits(*v, *c);
                }
                Op::Bit(b) => {
                    fast.write_bit(*b);
                    slow.write_bit(*b);
                }
                Op::Bytes(b) => {
                    fast.write_bytes(b);
                    slow.write_bytes(b);
                }
                Op::Append(b, len) => {
                    fast.append_bits(b, *len);
                    slow.append_bits(b, *len);
                }
                Op::Clear => {
                    fast.clear();
                    *slow = byte_oracle::BitWriter::new();
                }
            }
        }
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Any sequence of (value, width) fields written MSB-first reads
            /// back identically — the invariant every codec rests on.
            #[test]
            fn prop_field_sequences_round_trip(
                fields in proptest::collection::vec((any::<u64>(), 1u32..=64), 0..64)
            ) {
                let mut w = BitWriter::new();
                for &(value, width) in &fields {
                    w.write_bits(value, width);
                }
                let total: usize = fields.iter().map(|&(_, wd)| wd as usize).sum();
                prop_assert_eq!(w.len_bits(), total);
                let mut r = BitReader::new(w.as_slice(), w.len_bits());
                for &(value, width) in &fields {
                    let mask = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
                    prop_assert_eq!(r.read_bits(width), Some(value & mask));
                }
                prop_assert_eq!(r.remaining_bits(), 0);
            }

            /// Random op sequences (including `clear`-then-reuse) leave the
            /// word-at-a-time writer byte-identical to the byte-at-a-time
            /// oracle, and both readers agree on every read, the fast one
            /// over the used prefix (tail path) and over the zero-padded
            /// store (window path).
            #[test]
            fn prop_writer_and_reader_match_byte_oracle(
                raw_ops in proptest::collection::vec(
                    (0u8..10, any::<u64>(), 0u32..=64, proptest::collection::vec(any::<u8>(), 0..12)),
                    0..48,
                ),
                widths in proptest::collection::vec(0u32..=64, 1..16),
            ) {
                let ops: Vec<Op> = raw_ops.into_iter().map(op_from).collect();
                let mut fast = BitWriter::new();
                let mut slow = byte_oracle::BitWriter::new();
                apply(&ops, &mut fast, &mut slow);
                prop_assert_eq!(fast.len_bits(), slow.len_bits());
                prop_assert_eq!(fast.as_slice(), slow.as_slice());

                let mut oracle_reader = byte_oracle::BitReader::new(slow.as_slice(), slow.len_bits());
                byte_oracle::assert_same_reads(
                    &mut BitReader::new(fast.as_slice(), fast.len_bits()),
                    &mut oracle_reader,
                    &widths,
                );
                let mut oracle_reader = byte_oracle::BitReader::new(slow.as_slice(), slow.len_bits());
                byte_oracle::assert_same_reads(&mut fast.reader(), &mut oracle_reader, &widths);

                prop_assert_eq!(fast.into_bytes(), slow.into_bytes());
            }

            /// A writer reused through `clear` equals a fresh writer fed the
            /// same ops: `clear` must re-zero every byte it had used, or the
            /// `OR`-into-zero-tail writes would pick up stale bits.
            #[test]
            fn prop_reused_writer_matches_fresh(
                first in proptest::collection::vec((any::<u64>(), 0u32..=64), 1..24),
                second in proptest::collection::vec((any::<u64>(), 0u32..=64), 0..24),
            ) {
                let mut reused = BitWriter::new();
                for &(v, c) in &first {
                    reused.write_bits(v | 1 << 63, c);
                }
                reused.clear();
                prop_assert!(reused.is_empty());
                let mut fresh = BitWriter::new();
                for &(v, c) in &second {
                    reused.write_bits(v, c);
                    fresh.write_bits(v, c);
                }
                prop_assert_eq!(&reused, &fresh);
                prop_assert_eq!(reused.as_slice(), fresh.as_slice());
                prop_assert_eq!(reused.into_bytes(), fresh.into_bytes());
            }

            /// The final byte's unused low bits are always zero (padding is
            /// deterministic, so payload bytes are comparable).
            #[test]
            fn prop_padding_is_zero(bits in proptest::collection::vec(any::<bool>(), 1..64)) {
                let mut w = BitWriter::new();
                for &b in &bits {
                    w.write_bit(b);
                }
                let last = *w.as_slice().last().unwrap();
                let used = w.len_bits() % 8;
                if used != 0 {
                    prop_assert_eq!(last & ((1u8 << (8 - used)) - 1), 0);
                }
            }
        }
    }
}
