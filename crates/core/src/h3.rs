//! The H3 universal hash family.
//!
//! CABLE's Verilog implementation computes signatures with H3 (Carter &
//! Wegman 1979; Ramakrishna et al. 1997), "a simple yet high performance
//! hash function" (§IV-D). H3 hashes an n-bit input by XOR-ing together one
//! pre-chosen random mask per set input bit — in hardware, one XOR tree per
//! output bit; here, a loop over set bits.
//!
//! An H3 function is a pure function of its seed and output width, and
//! every link of a fabric uses the same seed, so the masks and byte tables
//! (about 8 KiB) are built once per `(seed, out_bits)` and shared: a
//! process-wide intern hands every [`H3::new`] with equal arguments the
//! same immutable table set. The intern's lock is taken only at
//! construction; hashing reads the shared tables directly.

use cable_common::SplitMix64;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, Weak};

/// The immutable part of an H3 function: its per-bit masks and the
/// byte-indexed lookup tables derived from them.
struct Tables {
    masks: [u64; 32],
    /// `bytes[b][v]` is the XOR of the masks selected by byte value `v` at
    /// byte position `b`. H3 is linear over XOR, so four table reads
    /// replace the per-set-bit mask loop on the hot signature path — with
    /// bit-identical output.
    bytes: [[u64; 256]; 4],
}

impl Tables {
    fn build(seed: u64, out_bits: u32) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mask = if out_bits == 64 {
            u64::MAX
        } else {
            (1u64 << out_bits) - 1
        };
        let mut masks = [0u64; 32];
        for m in &mut masks {
            *m = rng.next_u64() & mask;
        }
        let mut bytes = [[0u64; 256]; 4];
        for (byte, table) in bytes.iter_mut().enumerate() {
            for v in 1usize..256 {
                // Incremental build: drop the lowest set bit, XOR its mask.
                let low = v.trailing_zeros() as usize;
                table[v] = table[v & (v - 1)] ^ masks[byte * 8 + low];
            }
        }
        Tables { masks, bytes }
    }
}

/// Table sets built so far, process-wide (see [`tables_built`]).
static TABLES_BUILT: AtomicU64 = AtomicU64::new(0);

/// The live table set for `(seed, out_bits)`, built on first use.
///
/// The intern holds weak references, so a table set is freed with its last
/// user and a process that sweeps many seeds does not keep them all.
fn interned(seed: u64, out_bits: u32) -> Arc<Tables> {
    type Intern = Mutex<HashMap<(u64, u32), Weak<Tables>>>;
    static INTERN: OnceLock<Intern> = OnceLock::new();
    // Every update leaves the map consistent, so a lock poisoned by a
    // panicking holder has nothing to repair.
    let mut intern = INTERN
        .get_or_init(Intern::default)
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    if let Some(tables) = intern.get(&(seed, out_bits)).and_then(Weak::upgrade) {
        return tables;
    }
    // A miss is rare (once per distinct seed in use): drop the entries
    // whose tables have been freed, so their weak handles release them.
    intern.retain(|_, tables| tables.strong_count() > 0);
    let tables = Arc::new(Tables::build(seed, out_bits));
    TABLES_BUILT.fetch_add(1, Ordering::Relaxed);
    intern.insert((seed, out_bits), Arc::downgrade(&tables));
    tables
}

/// How many H3 table sets this process has built. Equal `(seed, out_bits)`
/// pairs share one live set, so constructing a link next to a live link
/// with the same seed leaves this unchanged.
#[doc(hidden)]
#[must_use]
pub fn tables_built() -> u64 {
    TABLES_BUILT.load(Ordering::Relaxed)
}

/// An H3 hash function over 32-bit inputs.
///
/// Cloning is cheap: clones, and every function built from the same
/// `(seed, out_bits)`, share one immutable table set.
///
/// # Examples
///
/// ```
/// use cable_core::h3::H3;
///
/// let h = H3::new(0xcab1e, 16);
/// assert_eq!(h.hash(0xdead_beef), h.hash(0xdead_beef)); // deterministic
/// assert!(h.hash(0x1234) < (1 << 16));
/// ```
#[derive(Clone)]
pub struct H3 {
    tables: Arc<Tables>,
    out_bits: u32,
}

impl H3 {
    /// Creates an H3 function with `out_bits` output bits from a seed.
    ///
    /// Equal seeds produce identical functions, which is how the two ends of
    /// a CABLE link agree on signatures without communicating. They also
    /// share one table set: only the first live function for a given
    /// `(seed, out_bits)` builds it.
    ///
    /// # Panics
    ///
    /// Panics if `out_bits` is 0 or greater than 64.
    #[must_use]
    pub fn new(seed: u64, out_bits: u32) -> Self {
        assert!((1..=64).contains(&out_bits), "out_bits must be in 1..=64");
        H3 {
            tables: interned(seed, out_bits),
            out_bits,
        }
    }

    /// Output width in bits.
    #[must_use]
    pub fn out_bits(&self) -> u32 {
        self.out_bits
    }

    /// True if `self` and `other` read the same table set in memory.
    #[cfg(test)]
    pub(crate) fn shares_tables(&self, other: &H3) -> bool {
        Arc::ptr_eq(&self.tables, &other.tables)
    }

    /// Hashes a 32-bit word: XOR of the masks selected by its set bits,
    /// computed one byte at a time from the precomputed tables.
    #[must_use]
    pub fn hash(&self, x: u32) -> u64 {
        let t = &self.tables.bytes;
        t[0][(x & 0xff) as usize]
            ^ t[1][((x >> 8) & 0xff) as usize]
            ^ t[2][((x >> 16) & 0xff) as usize]
            ^ t[3][(x >> 24) as usize]
    }

    /// Hashes all 16 words of a line in one pass.
    ///
    /// Each output is four independent table lookups XOR-ed together, so
    /// iterating the whole line in one loop lets the sixteen hashes pipeline
    /// (no per-call overhead, loads from the four tables interleave). Output
    /// `i` is bit-identical to `hash(words[i])`.
    #[must_use]
    pub fn hash_line(&self, words: &[u32; 16]) -> [u64; 16] {
        let [t0, t1, t2, t3] = &self.tables.bytes;
        let mut out = [0u64; 16];
        for (o, &x) in out.iter_mut().zip(words.iter()) {
            *o = t0[(x & 0xff) as usize]
                ^ t1[((x >> 8) & 0xff) as usize]
                ^ t2[((x >> 16) & 0xff) as usize]
                ^ t3[(x >> 24) as usize];
        }
        out
    }

    /// Reference implementation: the per-set-bit mask loop the hardware's
    /// XOR trees correspond to. Kept as the specification `hash` is tested
    /// against.
    #[must_use]
    pub fn hash_reference(&self, x: u32) -> u64 {
        let mut acc = 0u64;
        let mut bits = x;
        while bits != 0 {
            let i = bits.trailing_zeros();
            acc ^= self.tables.masks[i as usize];
            bits &= bits - 1;
        }
        acc
    }
}

impl fmt::Debug for H3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "H3({} output bits)", self.out_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zero_hashes_to_zero() {
        // XOR of no masks — the identity of the H3 family.
        assert_eq!(H3::new(1, 32).hash(0), 0);
    }

    #[test]
    fn same_seed_same_function() {
        let a = H3::new(42, 20);
        let b = H3::new(42, 20);
        for x in [1u32, 0xffff_ffff, 0x8000_0001, 12345] {
            assert_eq!(a.hash(x), b.hash(x));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = H3::new(1, 32);
        let b = H3::new(2, 32);
        let diffs = (1u32..100).filter(|&x| a.hash(x) != b.hash(x)).count();
        assert!(diffs > 90);
    }

    #[test]
    fn equal_arguments_share_one_table_set() {
        let a = H3::new(0x5eed, 32);
        let b = H3::new(0x5eed, 32);
        assert!(a.shares_tables(&b));
        assert!(a.shares_tables(&a.clone()));
        assert!(!a.shares_tables(&H3::new(0x5eee, 32)));
        // The width is part of the key: masks are truncated to it.
        assert!(!a.shares_tables(&H3::new(0x5eed, 31)));
    }

    #[test]
    fn freed_table_sets_are_rebuilt_identically() {
        let x = 0x0123_4567;
        let before = H3::new(0xf4ee, 24).hash(x);
        // The first function is gone, so this one builds a fresh set.
        let after = H3::new(0xf4ee, 24);
        assert_eq!(after.hash(x), before);
        assert_eq!(after.hash(x), after.hash_reference(x));
    }

    #[test]
    fn linearity_over_xor() {
        // H3 is linear: h(a ^ b) == h(a) ^ h(b).
        let h = H3::new(7, 32);
        for (a, b) in [(3u32, 5u32), (0xdead, 0xbeef), (1 << 31, 1)] {
            assert_eq!(h.hash(a ^ b), h.hash(a) ^ h.hash(b));
        }
    }

    #[test]
    fn output_distribution_is_roughly_uniform() {
        let h = H3::new(11, 8);
        let mut counts = [0u32; 256];
        for x in 0u32..65_536 {
            counts[h.hash(x) as usize] += 1;
        }
        let (min, max) = counts
            .iter()
            .fold((u32::MAX, 0), |(lo, hi), &c| (lo.min(c), hi.max(c)));
        // Perfectly linear functions give exactly uniform buckets over the
        // full input space; allow slack for the truncated sample.
        assert!(min > 100 && max < 500, "min {min} max {max}");
    }

    proptest! {
        #[test]
        fn prop_output_in_range(x in any::<u32>(), bits in 1u32..=63) {
            let h = H3::new(9, bits);
            prop_assert!(h.hash(x) < (1u64 << bits));
        }

        #[test]
        fn prop_linear(a in any::<u32>(), b in any::<u32>()) {
            let h = H3::new(13, 24);
            prop_assert_eq!(h.hash(a ^ b), h.hash(a) ^ h.hash(b));
        }

        #[test]
        fn prop_hash_line_matches_hash(words in proptest::array::uniform16(any::<u32>())) {
            let h = H3::new(0xcab1e, 32);
            let hashes = h.hash_line(&words);
            for (i, &w) in words.iter().enumerate() {
                prop_assert_eq!(hashes[i], h.hash(w));
            }
        }

        #[test]
        fn prop_interned_tables_match_mask_loop(x in any::<u32>(), bits in 1u32..=64) {
            // A function served from the intern (its tables built by an
            // earlier, still-live function) hashes exactly as specified.
            let first = H3::new(0xcab1e, bits);
            let shared = H3::new(0xcab1e, bits);
            prop_assert!(shared.shares_tables(&first));
            prop_assert_eq!(shared.hash(x), first.hash_reference(x));
            prop_assert_eq!(shared.hash(x), shared.hash_reference(x));
        }

        #[test]
        fn prop_table_matches_mask_loop(x in any::<u32>(), seed in any::<u32>()) {
            // The byte tables must reproduce the per-set-bit specification
            // exactly, or signatures (and every downstream figure) drift.
            let h = H3::new(u64::from(seed), 33);
            prop_assert_eq!(h.hash(x), h.hash_reference(x));
        }
    }
}
