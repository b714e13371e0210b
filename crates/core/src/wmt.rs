//! The Way-Map Table (WMT, §III-D).
//!
//! Cache tags could serve as reference pointers, but at ~40 bits they are
//! expensive. The WMT lets the home cache translate a *HomeLID* into the
//! much shorter *RemoteLID* (17–18 bits): it "mirrors the layout of the
//! remote cache such that a tag hit in the WMT indicates the index and way
//! of the remote cache", while the entries themselves are *normalized*
//! HomeLIDs (`alias + home way`, where alias is the home index minus the
//! remote index bits) — 4 bits per entry in the paper's off-chip
//! configuration.
//!
//! The WMT also gives the home cache precise knowledge of remote residency:
//! when a fill displaces a remote way, the overwritten WMT entry names the
//! home line whose signatures must be invalidated (§III-F), and for
//! write-back compression it translates the remote cache's own LineIDs back
//! into HomeLIDs (§III-G).

use cable_cache::{CacheGeometry, LineId};
use std::fmt;

/// A WMT entry: a valid bit over the normalized HomeLID, `alias` in the
/// bits above the home way. 0 is an empty slot.
///
/// `u32` rather than `u16` although the paper's entries need 3–5 bits:
/// with 2-byte entries the Table IV table is 32 KiB, and that size alone
/// changed glibc's heap layout enough to double the page faults of
/// repeatedly building and dropping thread groups (`starved` in
/// perfbench: 49k → 103k minor faults, `setup_s` +65%).
type Entry = u32;

/// The valid bit of an [`Entry`].
const VALID: Entry = 1 << (Entry::BITS - 1);

/// The Way-Map Table of one home cache tracking one remote cache.
///
/// # Examples
///
/// ```
/// use cable_cache::{CacheGeometry, LineId};
/// use cable_core::wmt::WayMapTable;
///
/// let home = CacheGeometry::new(16 << 20, 8);
/// let remote = CacheGeometry::new(8 << 20, 8);
/// let mut wmt = WayMapTable::new(home, remote);
/// assert_eq!(wmt.entry_bits(), 4); // 1 alias bit + 3 way bits (§IV-D)
///
/// // A line homed at (set 20000, way 5) installed remotely at (set 3616, way 2):
/// let home_lid = LineId::new(20_000, 5);
/// let remote_lid = LineId::new(20_000 % 16_384, 2);
/// wmt.update(remote_lid, home_lid);
/// assert_eq!(wmt.remote_lid_of(home_lid), Some(remote_lid));
/// assert_eq!(wmt.home_lid_of(remote_lid), Some(home_lid));
/// ```
#[derive(Clone)]
pub struct WayMapTable {
    home: CacheGeometry,
    remote: CacheGeometry,
    /// Remote set-index bits: the low bits of a home index name the
    /// remote set, the bits above them are the alias.
    remote_set_bits: u32,
    /// Home way bits: the low bits of an entry's payload.
    way_bits: u32,
    /// One entry per remote slot, set-major.
    entries: Vec<Entry>,
}

impl WayMapTable {
    /// Creates an empty WMT for a `home` cache tracking a `remote` cache.
    ///
    /// # Panics
    ///
    /// Panics if the home cache has fewer sets than the remote cache (the
    /// alias construction requires `home_sets >= remote_sets`), or if a
    /// normalized HomeLID is wider than an entry's 31 payload bits (the
    /// paper's configurations need 3–5).
    #[must_use]
    pub fn new(home: CacheGeometry, remote: CacheGeometry) -> Self {
        assert!(
            home.sets() >= remote.sets(),
            "home cache must have at least as many sets as the remote cache"
        );
        let wmt = WayMapTable {
            home,
            remote,
            remote_set_bits: remote.index_bits(),
            way_bits: home.way_bits(),
            entries: vec![0; (remote.sets() * u64::from(remote.ways())) as usize],
        };
        assert!(
            wmt.entry_bits() < Entry::BITS,
            "a {}-bit normalized HomeLID does not fit a WMT entry",
            wmt.entry_bits()
        );
        wmt
    }

    /// The remote geometry this WMT mirrors.
    #[must_use]
    pub fn remote_geometry(&self) -> &CacheGeometry {
        &self.remote
    }

    fn slot(&self, remote_lid: LineId) -> usize {
        remote_lid.index() as usize * self.remote.ways() as usize + remote_lid.way() as usize
    }

    /// Splits a HomeLID into its remote set index and the entry naming it
    /// there: `alias` (the home index bits above the remote index) over
    /// the home way, plus the valid bit.
    fn normalize(&self, home_lid: LineId) -> (u32, Entry) {
        let index = home_lid.index();
        let remote_index = index & ((1 << self.remote_set_bits) - 1);
        let alias = index >> self.remote_set_bits;
        let entry = VALID | (alias << self.way_bits) | Entry::from(home_lid.way());
        (remote_index, entry)
    }

    /// The HomeLID a valid `entry` of remote set `remote_index` names.
    fn denormalize(&self, remote_index: u32, entry: Entry) -> LineId {
        let payload = entry & !VALID;
        let alias = payload >> self.way_bits;
        let way = payload & ((1 << self.way_bits) - 1);
        LineId::new((alias << self.remote_set_bits) | remote_index, way as u8)
    }

    /// The HomeLID an entry of remote set `remote_index` names, if valid.
    fn stored(&self, remote_index: u32, entry: Entry) -> Option<LineId> {
        (entry & VALID != 0).then(|| self.denormalize(remote_index, entry))
    }

    /// Records that the remote slot `remote_lid` now holds the line homed at
    /// `home_lid`. Returns the HomeLID of the line the slot previously
    /// tracked, if any — the displaced line whose hash-table signatures must
    /// be invalidated (§III-F).
    ///
    /// # Panics
    ///
    /// Panics if `home_lid` does not map to `remote_lid`'s set (home and
    /// remote indices of the same address always agree in their low bits).
    pub fn update(&mut self, remote_lid: LineId, home_lid: LineId) -> Option<LineId> {
        let (remote_index, entry) = self.normalize(home_lid);
        assert_eq!(
            remote_index,
            remote_lid.index(),
            "home line {home_lid:?} cannot reside in remote set {}",
            remote_lid.index()
        );
        let slot = self.slot(remote_lid);
        let old = std::mem::replace(&mut self.entries[slot], entry);
        self.stored(remote_index, old)
    }

    /// Clears the WMT entry for `remote_lid` (snoop invalidation or
    /// back-invalidation), returning the HomeLID it tracked.
    pub fn invalidate(&mut self, remote_lid: LineId) -> Option<LineId> {
        let slot = self.slot(remote_lid);
        let old = std::mem::take(&mut self.entries[slot]);
        self.stored(remote_lid.index(), old)
    }

    /// The §III-D lookup: is the line at `home_lid` present in the remote
    /// cache, and at which RemoteLID? "If not found, the line is not
    /// guaranteed to exist in the remote cache."
    #[must_use]
    pub fn remote_lid_of(&self, home_lid: LineId) -> Option<LineId> {
        let (remote_index, entry) = self.normalize(home_lid);
        let first = self.slot(LineId::new(remote_index, 0));
        let set = &self.entries[first..first + self.remote.ways() as usize];
        let way = set.iter().position(|&e| e == entry)?;
        Some(LineId::new(remote_index, way as u8))
    }

    /// The §III-G reverse translation for write-back compression: the
    /// HomeLID stored for a remote slot.
    #[must_use]
    pub fn home_lid_of(&self, remote_lid: LineId) -> Option<LineId> {
        self.stored(remote_lid.index(), self.entries[self.slot(remote_lid)])
    }

    /// Iterates every valid mapping as `(remote_lid, home_lid)` pairs — the
    /// resync audit walks this to find mappings that outlived their lines.
    pub fn iter_mapped(&self) -> impl Iterator<Item = (LineId, LineId)> + '_ {
        let ways = self.remote.ways() as usize;
        self.entries
            .iter()
            .enumerate()
            .filter_map(move |(slot, &e)| {
                let remote_lid = LineId::new((slot / ways) as u32, (slot % ways) as u8);
                let home_lid = self.stored(remote_lid.index(), e)?;
                Some((remote_lid, home_lid))
            })
    }

    /// Bits per WMT entry: `alias + home way` (§IV-D: 4 bits for the
    /// off-chip configuration).
    #[must_use]
    pub fn entry_bits(&self) -> u32 {
        let alias_bits = self.home.index_bits() - self.remote.index_bits();
        alias_bits + self.home.way_bits()
    }

    /// Total WMT storage in bits (the Table III area input).
    #[must_use]
    pub fn storage_bits(&self) -> u64 {
        self.entries.len() as u64 * u64::from(self.entry_bits())
    }

    /// Number of valid entries (tests and occupancy studies).
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.entries.iter().filter(|&&e| e & VALID != 0).count()
    }
}

impl fmt::Debug for WayMapTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "WayMapTable({} entries x {} bits, {} valid)",
            self.entries.len(),
            self.entry_bits(),
            self.occupancy()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn paper_wmt() -> WayMapTable {
        WayMapTable::new(
            CacheGeometry::new(16 << 20, 8),
            CacheGeometry::new(8 << 20, 8),
        )
    }

    #[test]
    fn paper_entry_width_and_overhead() {
        let wmt = paper_wmt();
        assert_eq!(wmt.entry_bits(), 4);
        // §IV-D: "the storage overhead is 0.4% at the home cache".
        let overhead = wmt.storage_bits() as f64 / ((16u64 << 20) * 8) as f64;
        assert!((overhead - 0.004).abs() < 0.0005, "overhead {overhead}");
    }

    #[test]
    fn update_lookup_round_trip() {
        let mut wmt = paper_wmt();
        let home_lid = LineId::new(30_000, 7);
        let remote_lid = LineId::new(30_000 % 16_384, 1);
        assert_eq!(wmt.update(remote_lid, home_lid), None);
        assert_eq!(wmt.remote_lid_of(home_lid), Some(remote_lid));
        assert_eq!(wmt.home_lid_of(remote_lid), Some(home_lid));
    }

    #[test]
    fn displacement_returns_previous_home_lid() {
        let mut wmt = paper_wmt();
        let remote_lid = LineId::new(100, 3);
        let first = LineId::new(100, 2); // alias 0
        let second = LineId::new(100 + 16_384, 5); // alias 1, same remote set
        wmt.update(remote_lid, first);
        let displaced = wmt.update(remote_lid, second);
        assert_eq!(displaced, Some(first));
        assert_eq!(wmt.remote_lid_of(first), None, "displaced line unmapped");
        assert_eq!(wmt.remote_lid_of(second), Some(remote_lid));
    }

    #[test]
    fn invalidate_clears_entry() {
        let mut wmt = paper_wmt();
        let remote_lid = LineId::new(5, 0);
        let home_lid = LineId::new(5, 4);
        wmt.update(remote_lid, home_lid);
        assert_eq!(wmt.invalidate(remote_lid), Some(home_lid));
        assert_eq!(wmt.remote_lid_of(home_lid), None);
        assert_eq!(wmt.invalidate(remote_lid), None);
        assert_eq!(wmt.occupancy(), 0);
    }

    #[test]
    fn miss_is_not_guaranteed_present() {
        let wmt = paper_wmt();
        assert_eq!(wmt.remote_lid_of(LineId::new(1234, 0)), None);
        assert_eq!(wmt.home_lid_of(LineId::new(1234, 0)), None);
    }

    #[test]
    #[should_panic(expected = "cannot reside")]
    fn mismatched_set_rejected() {
        let mut wmt = paper_wmt();
        // Home index 5 can only live in remote set 5.
        wmt.update(LineId::new(6, 0), LineId::new(5, 0));
    }

    #[test]
    #[should_panic(expected = "does not fit a WMT entry")]
    fn too_wide_a_homelid_is_rejected() {
        // 30 home index bits over a one-set remote, plus 4 way bits.
        let _ = WayMapTable::new(CacheGeometry::new(1 << 40, 16), CacheGeometry::new(64, 1));
    }

    #[test]
    fn multichip_wmt_width() {
        // Coherence use case: equal-size LLCs on two chips (§IV-D's 0.58%
        // per-WMT figure uses an 8MB LLC pair: 0 alias bits + 3 way bits).
        let llc = CacheGeometry::new(8 << 20, 8);
        let wmt = WayMapTable::new(llc, llc);
        assert_eq!(wmt.entry_bits(), 3);
        let overhead = wmt.storage_bits() as f64 / ((8u64 << 20) * 8) as f64;
        assert!(overhead < 0.006, "overhead {overhead}");
    }

    #[test]
    fn iter_mapped_enumerates_valid_pairs() {
        let mut wmt = paper_wmt();
        let pairs = [
            (LineId::new(10, 0), LineId::new(10, 3)),
            (LineId::new(20, 5), LineId::new(20 + 16_384, 1)),
        ];
        for &(rlid, hlid) in &pairs {
            wmt.update(rlid, hlid);
        }
        let mut seen: Vec<(LineId, LineId)> = wmt.iter_mapped().collect();
        seen.sort_by_key(|(r, _)| (r.index(), r.way()));
        assert_eq!(seen, pairs);
    }

    /// The unpacked WMT representation (`alias` and home way as separate
    /// fields, `None` for an empty slot, `%` and `/` arithmetic): the
    /// oracle the packed entries must agree with.
    struct OracleWmt {
        remote: CacheGeometry,
        entries: Vec<Option<(u32, u8)>>,
    }

    impl OracleWmt {
        fn new(remote: CacheGeometry) -> Self {
            OracleWmt {
                remote,
                entries: vec![None; (remote.sets() * u64::from(remote.ways())) as usize],
            }
        }

        fn slot(&self, r: LineId) -> usize {
            r.index() as usize * self.remote.ways() as usize + r.way() as usize
        }

        fn normalize(&self, h: LineId) -> (u64, (u32, u8)) {
            let index = u64::from(h.index());
            (
                index % self.remote.sets(),
                ((index / self.remote.sets()) as u32, h.way()),
            )
        }

        fn denormalize(&self, remote_index: u64, (alias, way): (u32, u8)) -> LineId {
            LineId::new(
                (u64::from(alias) * self.remote.sets() + remote_index) as u32,
                way,
            )
        }

        fn update(&mut self, r: LineId, h: LineId) -> Option<LineId> {
            let (remote_index, n) = self.normalize(h);
            let slot = self.slot(r);
            let old = self.entries[slot].replace(n);
            old.map(|n| self.denormalize(remote_index, n))
        }

        fn invalidate(&mut self, r: LineId) -> Option<LineId> {
            let slot = self.slot(r);
            self.entries[slot]
                .take()
                .map(|n| self.denormalize(u64::from(r.index()), n))
        }

        fn remote_lid_of(&self, h: LineId) -> Option<LineId> {
            let (remote_index, n) = self.normalize(h);
            (0..self.remote.ways() as u8).find_map(|way| {
                let r = LineId::new(remote_index as u32, way);
                (self.entries[self.slot(r)] == Some(n)).then_some(r)
            })
        }

        fn home_lid_of(&self, r: LineId) -> Option<LineId> {
            let n = self.entries[self.slot(r)]?;
            Some(self.denormalize(u64::from(r.index()), n))
        }
    }

    proptest! {
        #[test]
        fn prop_packed_entries_match_the_unpacked_oracle(
            remote_sets_log in 0u32..8,
            alias_bits in 0u32..6,
            home_ways_log in 0u32..5,
            remote_ways_log in 0u32..4,
            ops in proptest::collection::vec(
                (any::<u8>(), any::<u64>(), any::<u64>(), any::<u64>()),
                1..200,
            ),
        ) {
            let remote_ways = 1u32 << remote_ways_log;
            let home_ways = 1u32 << home_ways_log;
            let remote_sets = 1u64 << remote_sets_log;
            let home_sets = remote_sets << alias_bits;
            let remote = CacheGeometry::new(remote_sets * u64::from(remote_ways) * 64, remote_ways);
            let home = CacheGeometry::new(home_sets * u64::from(home_ways) * 64, home_ways);
            let mut wmt = WayMapTable::new(home, remote);
            let mut oracle = OracleWmt::new(remote);
            for (kind, a, b, c) in ops {
                let home_lid = LineId::new((a % home_sets) as u32, (b % u64::from(home_ways)) as u8);
                let remote_lid = LineId::new(
                    (u64::from(home_lid.index()) % remote_sets) as u32,
                    (c % u64::from(remote_ways)) as u8,
                );
                match kind % 3 {
                    0 => prop_assert_eq!(
                        wmt.update(remote_lid, home_lid),
                        oracle.update(remote_lid, home_lid)
                    ),
                    1 => prop_assert_eq!(
                        wmt.invalidate(remote_lid),
                        oracle.invalidate(remote_lid)
                    ),
                    _ => {}
                }
                prop_assert_eq!(wmt.remote_lid_of(home_lid), oracle.remote_lid_of(home_lid));
                prop_assert_eq!(wmt.home_lid_of(remote_lid), oracle.home_lid_of(remote_lid));
            }
            let mapped: Vec<(LineId, LineId)> = wmt.iter_mapped().collect();
            let expected: Vec<(LineId, LineId)> = (0..oracle.entries.len())
                .filter_map(|slot| {
                    let ways = remote_ways as usize;
                    let r = LineId::new((slot / ways) as u32, (slot % ways) as u8);
                    oracle.home_lid_of(r).map(|h| (r, h))
                })
                .collect();
            prop_assert_eq!(wmt.occupancy(), expected.len());
            prop_assert_eq!(mapped, expected);
        }

        #[test]
        fn prop_round_trip(
            home_index in 0u32..32_768,
            home_way in 0u8..8,
            remote_way in 0u8..8,
        ) {
            let mut wmt = paper_wmt();
            let home_lid = LineId::new(home_index, home_way);
            let remote_lid = LineId::new(home_index % 16_384, remote_way);
            wmt.update(remote_lid, home_lid);
            prop_assert_eq!(wmt.remote_lid_of(home_lid), Some(remote_lid));
            prop_assert_eq!(wmt.home_lid_of(remote_lid), Some(home_lid));
        }
    }
}
