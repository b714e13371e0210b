//! Cache geometry arithmetic and the `index + way` LineID coordinate.

use cable_common::{bits_for, Address, LINE_BYTES};
use std::fmt;

/// Capacity and associativity of a set-associative cache with 64-byte lines.
///
/// All CABLE pointer-size claims fall out of this arithmetic: an 8 MB 8-way
/// cache has 2^17 lines so its LineIDs are 17 bits — a 57.5% saving over
/// 40-bit tags (§III-D).
///
/// # Examples
///
/// ```
/// use cable_cache::CacheGeometry;
///
/// let llc = CacheGeometry::new(8 << 20, 8); // 8 MB, 8-way
/// assert_eq!(llc.sets(), 16384);
/// assert_eq!(llc.lines(), 1 << 17);
/// assert_eq!(llc.line_id_bits(), 17);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheGeometry {
    size_bytes: u64,
    ways: u32,
    /// log2 of the set count (a function of the other two fields): set
    /// indexing is a mask and a shift, never a division.
    set_bits: u32,
}

impl CacheGeometry {
    /// Creates a geometry from total capacity in bytes and associativity.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not a positive multiple of
    /// `ways * LINE_BYTES`, or if the resulting set count is not a power of
    /// two (required for the paper's index/alias bit manipulation).
    #[must_use]
    pub fn new(size_bytes: u64, ways: u32) -> Self {
        assert!(ways > 0, "cache must have at least one way");
        assert!(
            size_bytes > 0 && size_bytes.is_multiple_of(u64::from(ways) * LINE_BYTES as u64),
            "capacity {size_bytes} is not a multiple of ways * line size"
        );
        let sets = size_bytes / (u64::from(ways) * LINE_BYTES as u64);
        assert!(
            sets.is_power_of_two(),
            "set count {sets} must be a power of two"
        );
        CacheGeometry {
            size_bytes,
            ways,
            set_bits: sets.trailing_zeros(),
        }
    }

    /// Total capacity in bytes.
    #[must_use]
    pub fn size_bytes(&self) -> u64 {
        self.size_bytes
    }

    /// Associativity (ways per set).
    #[must_use]
    pub fn ways(&self) -> u32 {
        self.ways
    }

    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> u64 {
        1 << self.set_bits
    }

    /// Total number of cache lines.
    #[must_use]
    pub fn lines(&self) -> u64 {
        self.size_bytes / LINE_BYTES as u64
    }

    /// Bits needed for a set index.
    #[must_use]
    pub fn index_bits(&self) -> u32 {
        bits_for(self.sets())
    }

    /// Bits needed for a way number.
    #[must_use]
    pub fn way_bits(&self) -> u32 {
        bits_for(u64::from(self.ways))
    }

    /// Bits needed for a LineID (`index + way`), the CABLE pointer width.
    #[must_use]
    pub fn line_id_bits(&self) -> u32 {
        self.index_bits() + self.way_bits()
    }

    /// Set index for an address.
    #[must_use]
    pub fn index_of(&self, addr: Address) -> u64 {
        addr.line_number() & (self.sets() - 1)
    }

    /// Tag (the line-number bits above the index) for an address. Line
    /// numbers are below 2^58, so tags are too.
    #[must_use]
    pub fn tag_of(&self, addr: Address) -> u64 {
        addr.line_number() >> self.set_bits
    }

    /// The line number of the line with `tag` in set `index`: the inverse
    /// of [`CacheGeometry::tag_of`] and [`CacheGeometry::index_of`].
    #[must_use]
    pub(crate) fn line_number_of(&self, tag: u64, index: u64) -> u64 {
        tag << self.set_bits | index
    }
}

impl fmt::Debug for CacheGeometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CacheGeometry({} KB, {}-way, {} sets)",
            self.size_bytes / 1024,
            self.ways,
            self.sets()
        )
    }
}

impl fmt::Display for CacheGeometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// An `index + way` coordinate locating a line within a specific cache.
///
/// LineIDs are what CABLE transmits instead of tags: a *HomeLID* locates a
/// reference in the home cache, a *RemoteLID* in the remote cache (Table I).
///
/// # Examples
///
/// ```
/// use cable_cache::{CacheGeometry, LineId};
///
/// let geom = CacheGeometry::new(1 << 20, 8);
/// let lid = LineId::new(100, 3);
/// let packed = lid.pack(&geom);
/// assert_eq!(LineId::unpack(packed, &geom), lid);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LineId {
    index: u32,
    way: u8,
}

impl LineId {
    /// Creates a LineID from a set index and way number.
    #[must_use]
    pub fn new(index: u32, way: u8) -> Self {
        LineId { index, way }
    }

    /// Set index component.
    #[must_use]
    pub fn index(&self) -> u32 {
        self.index
    }

    /// Way component.
    #[must_use]
    pub fn way(&self) -> u8 {
        self.way
    }

    /// Packs into the dense integer `index * ways + way`, suitable for
    /// transmitting in `geometry.line_id_bits()` bits.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate lies outside `geometry`.
    #[must_use]
    pub fn pack(&self, geometry: &CacheGeometry) -> u64 {
        assert!(
            u64::from(self.index) < geometry.sets(),
            "index out of range"
        );
        assert!(u32::from(self.way) < geometry.ways(), "way out of range");
        u64::from(self.index) * u64::from(geometry.ways()) + u64::from(self.way)
    }

    /// Inverse of [`LineId::pack`].
    ///
    /// # Panics
    ///
    /// Panics if `packed` is out of range for `geometry`.
    #[must_use]
    pub fn unpack(packed: u64, geometry: &CacheGeometry) -> Self {
        assert!(packed < geometry.lines(), "packed LineID out of range");
        LineId {
            index: (packed / u64::from(geometry.ways())) as u32,
            way: (packed % u64::from(geometry.ways())) as u8,
        }
    }
}

impl fmt::Debug for LineId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LineId({}.{})", self.index, self.way)
    }
}

impl fmt::Display for LineId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_geometry_bit_widths() {
        // §III-D / Table III: 8-way 8MB LLC -> 17-bit LIDs,
        // 8-way 16MB DRAM buffer -> 18-bit HomeLIDs.
        let llc = CacheGeometry::new(8 << 20, 8);
        assert_eq!(llc.line_id_bits(), 17);
        let buffer = CacheGeometry::new(16 << 20, 8);
        assert_eq!(buffer.line_id_bits(), 18);
        // 16-way DRAM buffer per Table IV still addresses the same lines.
        let buffer16 = CacheGeometry::new(16 << 20, 16);
        assert_eq!(buffer16.line_id_bits(), 18);
    }

    #[test]
    fn index_and_tag_partition_the_line_number() {
        let geom = CacheGeometry::new(128 << 10, 8); // 128KB L2, 256 sets
        assert_eq!(geom.sets(), 256);
        let addr = Address::from_line_number(0x12345);
        let rebuilt = geom.tag_of(addr) * geom.sets() + geom.index_of(addr);
        assert_eq!(rebuilt, addr.line_number());
    }

    #[test]
    fn pack_unpack_round_trip() {
        let geom = CacheGeometry::new(64 << 10, 4);
        for index in [0u32, 1, 255] {
            for way in 0..4u8 {
                let lid = LineId::new(index, way);
                assert_eq!(LineId::unpack(lid.pack(&geom), &geom), lid);
            }
        }
    }

    #[test]
    #[should_panic(expected = "index out of range")]
    fn pack_validates_range() {
        let geom = CacheGeometry::new(64 << 10, 4);
        let _ = LineId::new(geom.sets() as u32, 0).pack(&geom);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_rejected() {
        let _ = CacheGeometry::new(3 * 64 * 8, 8);
    }
}
