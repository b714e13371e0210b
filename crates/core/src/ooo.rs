//! Out-of-order link transport and the eviction race (§IV-A).
//!
//! The synchronous [`crate::CableLink`] assumes point-to-point *ordered*
//! links (§II-C). Real transports like Intel QPI can reorder messages, which
//! exposes the race the paper describes: "the home cache selects a
//! reference, and concurrently it is being evicted from the remote cache —
//! CABLE cannot decompress a response that points to missing (evicted)
//! references."
//!
//! [`OooLink`] models that transport: compressed responses sit in a
//! delivery queue and may arrive *after* the remote cache has already
//! reused the referenced slot for another line. The fix is the paper's
//! eviction buffer with EvictSeq acknowledgements
//! ([`crate::evict_buffer::EvictionBuffer`]): the remote keeps a copy of
//! every unacknowledged eviction and resolves stale references from it;
//! entries are dropped only when the home echoes the EvictSeq, i.e. when no
//! in-flight response can still name them.

use crate::evict_buffer::EvictionBuffer;
use cable_cache::{CacheGeometry, CoherenceState, LineId, SetAssocCache};
use cable_common::{Address, BitWriter, LineData};
use cable_compress::{EngineKind, SeededCompressor};
use std::collections::VecDeque;
use std::fmt;

/// A compressed response in flight on the out-of-order link.
#[derive(Clone, Debug)]
pub struct InFlightResponse {
    /// The requested address this response fills.
    pub addr: Address,
    /// Reference slots (RemoteLIDs) the DIFF points at.
    pub ref_lids: Vec<LineId>,
    /// Reference payloads as the home cache saw them (used only to check
    /// the resolution — a real response carries the DIFF instead).
    ref_data: Vec<LineData>,
    /// The DIFF payload.
    diff: BitWriter,
    /// The EvictSeq the home has processed up to (echoed acknowledgement).
    pub acked_evict_seq: u64,
}

/// Outcome of delivering one response at the remote end.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Resolution {
    /// All references read directly from the remote cache.
    FromCache,
    /// At least one reference was resolved from the eviction buffer.
    FromEvictionBuffer,
    /// A reference was missing entirely (only possible *without* the
    /// buffer) — decompression would be incorrect.
    Lost,
}

/// A deliberately reorderable home→remote link for studying the §IV-A race.
///
/// This is a protocol test-bench, not a timing model: it exposes explicit
/// `send`/`deliver` steps so tests can interleave evictions with in-flight
/// responses in any order.
pub struct OooLink {
    engine: Box<dyn SeededCompressor + Send + Sync>,
    remote: SetAssocCache,
    buffer: EvictionBuffer,
    in_flight: VecDeque<InFlightResponse>,
    home_acked_seq: u64,
    resolutions: [u64; 3],
}

impl OooLink {
    /// Creates the test-bench with a remote cache of the given geometry and
    /// an eviction buffer of `buffer_capacity` entries.
    #[must_use]
    pub fn new(remote: CacheGeometry, buffer_capacity: usize) -> Self {
        OooLink {
            engine: EngineKind::Lbe.build(),
            remote: SetAssocCache::new(remote),
            buffer: EvictionBuffer::new(buffer_capacity),
            in_flight: VecDeque::new(),
            home_acked_seq: 0,
            resolutions: [0; 3],
        }
    }

    /// The remote cache under test.
    #[must_use]
    pub fn remote(&self) -> &SetAssocCache {
        &self.remote
    }

    /// Installs a line in the remote cache directly (test setup for
    /// already-resident references). A displaced victim is routed through
    /// the eviction buffer — in hardware *every* remote eviction is
    /// buffered until acknowledged, including capacity victims of fills.
    ///
    /// Returns the slot used and the address of the displaced line, if any.
    pub fn install(&mut self, addr: Address, data: LineData) -> (LineId, Option<Address>) {
        let outcome = self.remote.insert(addr, data, CoherenceState::Shared);
        let displaced = outcome.evicted.map(|victim| {
            self.buffer.insert(victim.addr, victim.line_id, victim.data);
            victim.addr
        });
        (outcome.line_id, displaced)
    }

    /// The home side sends a compressed response for `line`, referencing
    /// the given remote slots whose contents it believes are `ref_data`.
    /// The response enters the in-flight queue instead of applying
    /// immediately.
    pub fn send(&mut self, addr: Address, line: LineData, refs: &[(LineId, LineData)]) {
        let ref_data: Vec<LineData> = refs.iter().map(|(_, d)| *d).collect();
        let mut diff = BitWriter::new();
        self.engine.compress_seeded(&ref_data, &line, &mut diff);
        self.in_flight.push_back(InFlightResponse {
            addr,
            ref_lids: refs.iter().map(|(l, _)| *l).collect(),
            ref_data,
            diff,
            acked_evict_seq: self.home_acked_seq,
        });
    }

    /// The remote cache evicts `addr` (capacity or snoop), inserting the
    /// copy into the eviction buffer and returning its EvictSeq.
    pub fn evict_remote(&mut self, addr: Address) -> Option<u64> {
        let victim = self.remote.invalidate(addr)?;
        Some(self.buffer.insert(victim.addr, victim.line_id, victim.data))
    }

    /// The home cache acknowledges evictions up to `seq` (it has processed
    /// the notices and will no longer emit references to those lines); the
    /// next response delivered carries the echo.
    pub fn home_acknowledge(&mut self, seq: u64) {
        self.home_acked_seq = self.home_acked_seq.max(seq);
    }

    /// Delivers the in-flight response at `index` (out of order when
    /// `index > 0`). Decompresses at the remote, resolving stale references
    /// from the eviction buffer, then installs the line and processes the
    /// echoed EvictSeq acknowledgement.
    ///
    /// Returns the resolution and the reconstructed line (`None` when a
    /// reference was lost).
    pub fn deliver(&mut self, index: usize) -> Option<(Resolution, Option<LineData>)> {
        let response = self.in_flight.remove(index)?;
        let mut resolution = Resolution::FromCache;
        let mut refs = Vec::with_capacity(response.ref_lids.len());
        for (lid, expected) in response.ref_lids.iter().zip(&response.ref_data) {
            // A slot read is only trustworthy if it still holds the same
            // line; a recycled slot is detected by content ownership in
            // this bench (in hardware, by the eviction notice ordering).
            let cached = self.remote.read_by_id(*lid).filter(|d| d == expected);
            match cached {
                Some(d) => refs.push(d),
                None => {
                    // The slot may have been recycled several times while
                    // this response was in flight; find the buffered
                    // generation this DIFF was built against (in hardware,
                    // the EvictSeq window disambiguates generations).
                    let buffered = self
                        .buffer
                        .iter()
                        .rev()
                        .find(|e| e.line_id == *lid && e.data == *expected);
                    match buffered {
                        Some(entry) => {
                            resolution = Resolution::FromEvictionBuffer;
                            refs.push(entry.data);
                        }
                        None => {
                            self.resolutions[2] += 1;
                            return Some((Resolution::Lost, None));
                        }
                    }
                }
            }
        }
        let line = self
            .engine
            .decompress_seeded(&refs, &mut response.diff.reader())
            .expect("references resolved; DIFF must decode");
        // The fill's own capacity victim is buffered too (every remote
        // eviction is, until acknowledged).
        self.install(response.addr, line);
        // Process the piggy-backed acknowledgement: buffered evictions at or
        // below the echoed EvictSeq can no longer be referenced.
        self.buffer.acknowledge(response.acked_evict_seq);
        match resolution {
            Resolution::FromCache => self.resolutions[0] += 1,
            Resolution::FromEvictionBuffer => self.resolutions[1] += 1,
            Resolution::Lost => unreachable!("returned above"),
        }
        Some((resolution, Some(line)))
    }

    /// Responses still in flight.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// `(from_cache, from_buffer, lost)` delivery counts.
    #[must_use]
    pub fn resolution_counts(&self) -> (u64, u64, u64) {
        (
            self.resolutions[0],
            self.resolutions[1],
            self.resolutions[2],
        )
    }

    /// The eviction buffer (for occupancy inspection).
    #[must_use]
    pub fn buffer(&self) -> &EvictionBuffer {
        &self.buffer
    }
}

impl fmt::Debug for OooLink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "OooLink({} in flight, buffer {:?})",
            self.in_flight.len(),
            self.buffer
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cable_common::SplitMix64;

    fn bench() -> OooLink {
        OooLink::new(CacheGeometry::new(16 << 10, 4), 16)
    }

    fn line(tag: u32) -> LineData {
        LineData::from_words(core::array::from_fn(|i| {
            0x0400_0000 + (tag << 8) + i as u32
        }))
    }

    #[test]
    fn ordered_delivery_reads_from_cache() {
        let mut l = bench();
        let r = line(1);
        let (lid, _) = l.install(Address::new(0x1000), r);
        let mut target = r;
        target.set_word(3, 0x0999_9999);
        l.send(Address::new(0x2000), target, &[(lid, r)]);
        let (res, data) = l.deliver(0).unwrap();
        assert_eq!(res, Resolution::FromCache);
        assert_eq!(data, Some(target));
        assert!(l.remote().lookup(Address::new(0x2000)).is_some());
    }

    #[test]
    fn race_resolves_from_eviction_buffer() {
        // The §IV-A scenario: reference selected at home, then evicted at
        // the remote while the response is in flight.
        let mut l = bench();
        let r = line(2);
        let (lid, _) = l.install(Address::new(0x1000), r);
        let mut target = r;
        target.set_word(0, 0x0123_4567);
        l.send(Address::new(0x2000), target, &[(lid, r)]);
        // The eviction happens before delivery...
        l.evict_remote(Address::new(0x1000)).unwrap();
        // ...and the slot is even recycled by another line.
        l.install(Address::new(0x1000 + 16 * 1024), line(9));
        let (res, data) = l.deliver(0).unwrap();
        assert_eq!(res, Resolution::FromEvictionBuffer);
        assert_eq!(data, Some(target));
    }

    #[test]
    fn without_buffer_the_race_loses_data() {
        // Capacity 1 with two interleaved evictions overflows the buffer:
        // the first eviction's copy is gone when its reference arrives.
        let mut l = OooLink::new(CacheGeometry::new(16 << 10, 4), 1);
        let r1 = line(3);
        let r2 = line(4);
        let (lid1, _) = l.install(Address::new(0x1000), r1);
        l.install(Address::new(0x2000), r2);
        l.send(Address::new(0x3000), r1, &[(lid1, r1)]);
        l.evict_remote(Address::new(0x1000));
        l.evict_remote(Address::new(0x2000)); // overflows the 1-entry buffer
        let (res, data) = l.deliver(0).unwrap();
        assert_eq!(res, Resolution::Lost);
        assert_eq!(data, None);
        assert_eq!(l.resolution_counts().2, 1);
    }

    #[test]
    fn acknowledged_evictions_are_dropped() {
        let mut l = bench();
        let r = line(5);
        let (lid, _) = l.install(Address::new(0x1000), r);
        let seq = l.evict_remote(Address::new(0x1000)).unwrap();
        assert_eq!(l.buffer().len(), 1);
        // The home acknowledges the eviction; its next response carries the
        // echo and the buffer entry is freed on delivery.
        l.home_acknowledge(seq);
        l.send(Address::new(0x4000), line(6), &[]);
        l.deliver(0).unwrap();
        assert_eq!(l.buffer().len(), 0);
        let _ = lid;
    }

    #[test]
    fn out_of_order_delivery_interleaves_safely() {
        // Several responses delivered in reverse order, with evictions
        // between sends: every delivery must still reconstruct its line.
        let mut l = bench();
        let mut rng = SplitMix64::new(7);
        let mut expected = Vec::new();
        for i in 0..6u32 {
            let r = line(10 + i);
            let (lid, _) = l.install(Address::from_line_number(u64::from(i) * 64), r);
            let mut target = r;
            target.set_word(
                (rng.next_bounded(16)) as usize,
                rng.next_u32() | 0x0100_0000,
            );
            l.send(
                Address::from_line_number(1000 + u64::from(i)),
                target,
                &[(lid, r)],
            );
            expected.push(target);
            if i % 2 == 1 {
                l.evict_remote(Address::from_line_number(u64::from(i) * 64));
            }
        }
        // Deliver newest-first.
        for i in (0..6usize).rev() {
            let (res, data) = l.deliver(i).unwrap();
            assert_ne!(res, Resolution::Lost, "response {i} lost its reference");
            assert_eq!(data, Some(expected[i]));
        }
        let (_, from_buffer, lost) = l.resolution_counts();
        assert!(from_buffer >= 2, "evicted references must use the buffer");
        assert_eq!(lost, 0);
    }
}
