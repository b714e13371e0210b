//! Access-stream generation.
//!
//! [`WorkloadGen`] produces the memory side of a benchmark: a stream of
//! line-granular loads and stores over the profile's working set, with the
//! profile's spatial locality and write fraction, plus the number of
//! non-memory instructions preceding each access (which the timing model
//! charges at 1 CPI, Table IV).

use crate::content::ContentSynthesizer;
use crate::profile::WorkloadProfile;
use cable_common::{Address, LineData, SplitMix64};

/// One memory access of the synthetic instruction stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Access {
    /// Line-aligned address.
    pub addr: Address,
    /// True for stores.
    pub is_write: bool,
    /// Non-memory instructions executed before this access.
    pub compute_gap: u32,
}

/// Generates the access stream of one program instance.
///
/// # Examples
///
/// ```
/// use cable_trace::{by_name, WorkloadGen};
///
/// let mut gen = WorkloadGen::new(by_name("mcf").unwrap(), 0);
/// let a = gen.next_access();
/// let line = gen.content(a.addr); // the bytes living at that address
/// assert_eq!(line, gen.content(a.addr));
/// ```
#[derive(Clone, Debug)]
pub struct WorkloadGen {
    profile: &'static WorkloadProfile,
    content: ContentSynthesizer,
    rng: SplitMix64,
    /// Current line-number cursor within the working set.
    cursor: u64,
    /// Cold-sweep cursor (kept separate so hot-set visits do not reset the
    /// streaming pattern).
    cold_cursor: u64,
    /// Remaining accesses to the current line before moving on.
    line_repeats_left: u32,
    /// First line number of this instance's address-space window.
    base_line: u64,
    accesses: u64,
    instructions: u64,
    /// Memo of the last synthesized line (`local line number -> bytes`).
    /// Word-granular reuse revisits the same line several times in a row,
    /// and synthesis costs dozens of RNG draws; `content` is deterministic
    /// per address, so the memo is observationally pure.
    last_content: std::cell::Cell<Option<(u64, LineData)>>,
}

/// Lines reserved per program instance (1 << 30 lines = 64 GB of space);
/// instances and mix members never alias.
pub const INSTANCE_SPACE_LINES: u64 = 1 << 30;

/// Phase lag between consecutive instances of one benchmark: instance `i`
/// starts `i * PHASE_LAG_ACCESSES` accesses into the shared sequence. The
/// lag is more than one content region, so co-scheduled copies never hand
/// gzip in-window duplicates, while a cache-sized dictionary still holds
/// them (Fig. 15's contrast).
pub const PHASE_LAG_ACCESSES: u64 = 19_997;

impl WorkloadGen {
    /// Creates instance `instance` of the benchmark. Distinct instances
    /// have disjoint address spaces; whether their *content* matches is
    /// the profile's `content_diverges` choice.
    ///
    /// Instances of the same benchmark execute the *same access sequence*
    /// with a small per-instance phase lag ([`PHASE_LAG_ACCESSES`]) —
    /// SPECrate-style copies progress through aligned program phases,
    /// which is what makes cooperative multiprogramming compress better
    /// (Fig. 15); "threads can desynchronize and execute dissimilar
    /// program phases" is modelled by the lag.
    ///
    /// This replays `instance * PHASE_LAG_ACCESSES` accesses; to build
    /// several instances of one profile, walk [`WorkloadGen::instances`]
    /// instead.
    #[must_use]
    pub fn new(profile: &'static WorkloadProfile, instance: u64) -> Self {
        let n = usize::try_from(instance).expect("instance index fits in usize");
        Self::instances(profile)
            .nth(n)
            .expect("the instance family is endless")
    }

    /// Instances `0, 1, 2, …` of the benchmark, in order, from one walk
    /// of the shared access sequence: instance `i` equals
    /// `WorkloadGen::new(profile, i)`, but the `n` first instances cost
    /// `n * PHASE_LAG_ACCESSES` generator steps in total rather than
    /// `n² / 2 * PHASE_LAG_ACCESSES`.
    ///
    /// The walk is exact because [`WorkloadGen::next_access`] never reads
    /// the instance's content synthesizer or address-space base, and the
    /// lag never calls [`WorkloadGen::store_data`] (the only other RNG
    /// consumer). So each instance is the walker, stopped at its lag
    /// boundary and rebased into its own address space, with zeroed
    /// progress and an empty content memo. The iterator is lazy, endless
    /// and allocates nothing.
    ///
    /// # Examples
    ///
    /// ```
    /// use cable_trace::{by_name, WorkloadGen};
    ///
    /// let p = by_name("gcc").unwrap();
    /// let mut copies: Vec<WorkloadGen> = WorkloadGen::instances(p).take(4).collect();
    /// let mut third = WorkloadGen::new(p, 3);
    /// assert_eq!(copies[3].next_access(), third.next_access());
    /// ```
    pub fn instances(profile: &'static WorkloadProfile) -> impl Iterator<Item = WorkloadGen> {
        let mut walker = WorkloadGen {
            profile,
            content: ContentSynthesizer::new(profile, 0),
            rng: SplitMix64::new(0xacce55),
            cursor: 0,
            cold_cursor: 0,
            line_repeats_left: 0,
            base_line: 0,
            accesses: 0,
            instructions: 0,
            last_content: std::cell::Cell::new(None),
        };
        (0..).map(move |instance: u64| {
            if instance > 0 {
                for _ in 0..PHASE_LAG_ACCESSES {
                    walker.next_access();
                }
            }
            WorkloadGen {
                content: ContentSynthesizer::new(profile, instance),
                base_line: instance * INSTANCE_SPACE_LINES,
                accesses: 0,
                instructions: 0,
                last_content: std::cell::Cell::new(None),
                ..walker.clone()
            }
        })
    }

    /// The profile driving this generator.
    #[must_use]
    pub fn profile(&self) -> &'static WorkloadProfile {
        self.profile
    }

    /// The content synthesizer (shared address→bytes mapping).
    #[must_use]
    pub fn synthesizer(&self) -> &ContentSynthesizer {
        &self.content
    }

    /// Produces the next memory access.
    pub fn next_access(&mut self) -> Access {
        let p = self.profile;
        if self.line_repeats_left > 0 {
            // Word-granular reuse: a 64-byte line is touched several times
            // (sequential scans hit every word; pointer chases only a few).
            self.line_repeats_left -= 1;
        } else if p.hot_frac > 0.0 && self.rng.next_bool(p.hot_frac) {
            // Cache-resident hot set: compute-bound programs spend almost
            // all their accesses here.
            self.cursor = self.rng.next_bounded(p.hot_lines.min(p.working_set_lines));
            self.line_repeats_left = (p.locality * p.locality * 8.0).round() as u32;
        } else {
            // Spatial locality: continue the cold sweep or jump.
            if self.rng.next_bool(p.locality) {
                self.cold_cursor = (self.cold_cursor + 1) % p.working_set_lines;
            } else {
                self.cold_cursor = self.rng.next_bounded(p.working_set_lines);
            }
            self.cursor = self.cold_cursor;
            self.line_repeats_left = (p.locality * p.locality * 8.0).round() as u32;
        }
        // Writes concentrate on the program's *mutable* lines (~write_frac
        // of the footprint); read-only code/data stays clean and thus
        // usable as CABLE references. ~80% of touches to a mutable line
        // are stores.
        let is_write = self.line_is_mutable(self.cursor) && self.rng.next_bool(0.8);
        // Non-memory instructions between accesses: geometric-ish with
        // mean (1 - mem_ratio) / mem_ratio.
        let mean_gap = (1.0 - p.mem_ratio) / p.mem_ratio;
        let u = self.rng.next_f64();
        let compute_gap = (-mean_gap * (1.0 - u).ln()).round().min(10_000.0) as u32;
        self.accesses += 1;
        self.instructions += u64::from(compute_gap) + 1;
        Access {
            addr: Address::from_line_number(self.base_line + self.cursor),
            is_write,
            compute_gap,
        }
    }

    /// True if the working-set line at `offset` belongs to the mutable
    /// subset (a pure hash of the offset; fraction = the profile's
    /// `write_frac`).
    fn line_is_mutable(&self, offset: u64) -> bool {
        let mut h = SplitMix64::new(0x3717_ab1e ^ offset.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        h.next_f64() < self.profile.write_frac
    }

    /// The memory content at `addr` (pure; see [`ContentSynthesizer`]).
    #[must_use]
    pub fn content(&self, addr: Address) -> LineData {
        // Map back into the shared per-benchmark content space so that
        // instances of the same benchmark see identical bytes at the same
        // working-set offset.
        let local = Address::from_line_number(addr.line_number() % INSTANCE_SPACE_LINES);
        if let Some((n, line)) = self.last_content.get() {
            if n == local.line_number() {
                return line;
            }
        }
        let line = self.content.line(local);
        self.last_content.set(Some((local.line_number(), line)));
        line
    }

    /// Store data for a write to `addr`: the resident content with one
    /// mutated word — dirty lines stay *similar* to clean data but are
    /// "harder to compress" (§VI-B's coherence-link observation).
    pub fn store_data(&mut self, addr: Address) -> LineData {
        let mut line = self.content(addr);
        let pos = self.rng.next_bounded(16) as usize;
        line.set_word(pos, self.rng.next_u32() | 0x0100_0000);
        line
    }

    /// `(memory accesses, total instructions)` generated so far.
    #[must_use]
    pub fn progress(&self) -> (u64, u64) {
        (self.accesses, self.instructions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::by_name;

    #[test]
    fn addresses_stay_in_instance_window() {
        let p = by_name("gcc").unwrap();
        let mut g = WorkloadGen::new(p, 2);
        for _ in 0..5_000 {
            let a = g.next_access();
            let line = a.addr.line_number();
            assert!(line >= 2 * INSTANCE_SPACE_LINES);
            assert!(line < 2 * INSTANCE_SPACE_LINES + p.working_set_lines);
        }
    }

    #[test]
    fn mem_ratio_drives_instruction_mix() {
        for name in ["povray", "lbm"] {
            let p = by_name(name).unwrap();
            let mut g = WorkloadGen::new(p, 0);
            for _ in 0..20_000 {
                g.next_access();
            }
            let (accesses, instructions) = g.progress();
            let ratio = accesses as f64 / instructions as f64;
            assert!(
                (ratio - p.mem_ratio).abs() < 0.03,
                "{name}: measured {ratio}, profile {}",
                p.mem_ratio
            );
        }
    }

    #[test]
    fn write_fraction_holds() {
        // Writes hit ~80% of touches to the mutable `write_frac` of lines,
        // so the overall store rate is ~0.8 x write_frac.
        let p = by_name("lbm").unwrap();
        let mut g = WorkloadGen::new(p, 0);
        let writes = (0..40_000).filter(|_| g.next_access().is_write).count() as f64 / 40_000.0;
        assert!(
            (writes - 0.8 * p.write_frac).abs() < 0.06,
            "writes {writes} vs expected {}",
            0.8 * p.write_frac
        );
    }

    #[test]
    fn writes_concentrate_on_mutable_lines() {
        // A line is either consistently written or consistently clean.
        let p = by_name("gcc").unwrap();
        let mut g = WorkloadGen::new(p, 0);
        use std::collections::HashMap;
        let mut per_line: HashMap<u64, (u64, u64)> = HashMap::new();
        for _ in 0..50_000 {
            let a = g.next_access();
            let e = per_line.entry(a.addr.line_number()).or_insert((0, 0));
            if a.is_write {
                e.0 += 1;
            } else {
                e.1 += 1;
            }
        }
        // Lines with both many reads and many writes should be rare among
        // well-sampled lines.
        let mixed = per_line
            .values()
            .filter(|(w, r)| *w >= 3 && *r >= 3)
            .count();
        let sampled = per_line.values().filter(|(w, r)| w + r >= 6).count();
        assert!(
            sampled > 100 && (mixed as f64) < 0.3 * sampled as f64,
            "mixed {mixed} of {sampled}"
        );
    }

    #[test]
    fn locality_produces_sequential_runs() {
        let p = by_name("libquantum").unwrap(); // locality 0.95
        let mut g = WorkloadGen::new(p, 0);
        let mut prev = g.next_access().addr.line_number();
        let mut local = 0;
        let total = 10_000;
        for _ in 0..total {
            let cur = g.next_access().addr.line_number();
            // Same line (word reuse) or the sequential neighbour.
            if cur == prev || cur == prev + 1 {
                local += 1;
            }
            prev = cur;
        }
        assert!(
            local as f64 / total as f64 > 0.9,
            "local fraction {}",
            local as f64 / total as f64
        );
    }

    #[test]
    fn instances_share_content_at_same_offset() {
        let p = by_name("gcc").unwrap();
        let g0 = WorkloadGen::new(p, 0);
        let g1 = WorkloadGen::new(p, 5);
        let off = 1234u64;
        let a0 = Address::from_line_number(off);
        let a1 = Address::from_line_number(5 * INSTANCE_SPACE_LINES + off);
        assert_eq!(g0.content(a0), g1.content(a1));
    }

    #[test]
    fn store_data_is_similar_to_clean_content() {
        let p = by_name("dealII").unwrap();
        let mut g = WorkloadGen::new(p, 0);
        let addr = Address::from_line_number(42);
        let clean = g.content(addr);
        let dirty = g.store_data(addr);
        assert_ne!(clean, dirty);
        assert!(clean.matching_words(&dirty) >= 15);
    }

    /// The per-instance replay `WorkloadGen::new` performed before the
    /// instances of a profile were walked as one family: a fresh generator
    /// in the instance's address space, stepped through the whole lag of
    /// its instance index. The oracle for [`WorkloadGen::instances`].
    fn replayed_instance(profile: &'static WorkloadProfile, instance: u64) -> WorkloadGen {
        let mut gen = WorkloadGen {
            profile,
            content: ContentSynthesizer::new(profile, instance),
            rng: SplitMix64::new(0xacce55),
            cursor: 0,
            cold_cursor: 0,
            line_repeats_left: 0,
            base_line: instance * INSTANCE_SPACE_LINES,
            accesses: 0,
            instructions: 0,
            last_content: std::cell::Cell::new(None),
        };
        for _ in 0..instance * 19_997 {
            gen.next_access();
        }
        gen.accesses = 0;
        gen.instructions = 0;
        gen
    }

    #[test]
    fn instance_family_matches_per_instance_replay() {
        let checked = |i: u64| i <= 16 || i == 70;
        for p in crate::ALL_WORKLOADS {
            let family = (0u64..=70).zip(WorkloadGen::instances(p));
            for (i, mut walked) in family.filter(|&(i, _)| checked(i)) {
                let mut replayed = replayed_instance(p, i);
                assert_eq!(
                    format!("{walked:?}"),
                    format!("{replayed:?}"),
                    "{} instance {i}: state",
                    p.name
                );
                for step in 0..2_000 {
                    let a = walked.next_access();
                    assert_eq!(a, replayed.next_access(), "{} #{i} step {step}", p.name);
                    assert_eq!(walked.content(a.addr), replayed.content(a.addr));
                    if a.is_write {
                        assert_eq!(walked.store_data(a.addr), replayed.store_data(a.addr));
                    }
                }
                assert_eq!(walked.progress(), replayed.progress());
            }
        }
    }

    #[test]
    fn generator_is_deterministic() {
        let p = by_name("bzip2").unwrap();
        let mut a = WorkloadGen::new(p, 0);
        let mut b = WorkloadGen::new(p, 0);
        for _ in 0..1000 {
            assert_eq!(a.next_access(), b.next_access());
        }
    }
}
