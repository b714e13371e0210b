//! The packed slot encoding loses nothing.
//!
//! A `SetAssocCache` slot keeps its coherence state in the top bits of
//! the tag word, and `CacheGeometry` indexes sets with a mask and a shift.
//! For any line number a 64-bit byte address can name (below 2^58), every
//! coherence state and several power-of-two geometries, a line must read
//! back exactly as inserted through every accessor, and the shift-and-mask
//! indexing must equal the division formulas it replaced.

use cable_cache::{CacheGeometry, CoherenceState, LineId, SetAssocCache};
use cable_common::{Address, LineData};
use proptest::prelude::*;

/// `(capacity, ways)`: a single set, the mesh slices (16 KiB 8-way home,
/// 8 KiB 4-way remote), the 4 MiB 16-way L4 and the 8 MiB 8-way LLC.
const GEOMETRIES: [(u64, u32); 5] = [
    (64, 1),
    (16 << 10, 8),
    (8 << 10, 4),
    (4 << 20, 16),
    (8 << 20, 8),
];

const STATES: [CoherenceState; 4] = [
    CoherenceState::Invalid,
    CoherenceState::Shared,
    CoherenceState::Exclusive,
    CoherenceState::Modified,
];

/// Line numbers of 64-bit byte addresses: below 2^58.
const LINE_LIMIT: u64 = 1 << 58;

fn geometry(pick: usize) -> CacheGeometry {
    let (size, ways) = GEOMETRIES[pick % GEOMETRIES.len()];
    CacheGeometry::new(size, ways)
}

/// The set count by the division formula.
fn sets_by_division(g: &CacheGeometry) -> u64 {
    g.size_bytes() / (u64::from(g.ways()) * 64)
}

/// Checks a line just inserted valid into `cache` at `lid` through every
/// accessor, then evicts it and checks what leaves.
fn assert_reads_back(
    mut cache: SetAssocCache,
    lid: LineId,
    line: u64,
    state: CoherenceState,
    data: LineData,
) {
    let g = *cache.geometry();
    let addr = Address::from_line_number(line);
    assert_eq!(cache.lookup(addr), Some(lid));
    assert_eq!(cache.state_by_id(lid), state);
    assert_eq!(cache.addr_by_id(lid), Some(addr));
    assert_eq!(cache.read_by_id(lid), Some(data));
    assert_eq!(
        cache.iter_valid().collect::<Vec<_>>(),
        vec![(lid, addr, state)]
    );

    // State changes keep the tag.
    for next in &STATES[1..] {
        let prev = cache.state_by_id(lid);
        assert_eq!(cache.set_state(addr, *next), Some(prev));
        assert_eq!(cache.state_by_id(lid), *next);
        assert_eq!(cache.lookup(addr), Some(lid));
        assert_eq!(cache.addr_by_id(lid), Some(addr));
    }
    cache.set_state(addr, state);

    // Fill the rest of the set with other tags; the next insert then
    // evicts the LRU line, which is the first one, whole.
    let sets = sets_by_division(&g);
    let (index, tag) = (line % sets, line / sets);
    let mut evicted = None;
    for k in 1..=u64::from(g.ways()) {
        let other = Address::from_line_number((tag ^ k) * sets + index);
        if let Some(e) = cache
            .insert(other, LineData::zeroed(), CoherenceState::Shared)
            .evicted
        {
            assert!(evicted.is_none(), "only one eviction expected");
            evicted = Some(e);
        }
    }
    let e = evicted.expect("the set overflowed by one line");
    assert_eq!(e.addr, addr);
    assert_eq!(e.data, data);
    assert_eq!(e.state, state);
    assert_eq!(e.line_id, lid);
    assert_eq!(cache.lookup(addr), None);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn index_and_tag_match_division(line in 0u64..LINE_LIMIT, pick in 0usize..5) {
        let g = geometry(pick);
        let sets = sets_by_division(&g);
        let addr = Address::from_line_number(line);
        prop_assert_eq!(g.sets(), sets);
        prop_assert_eq!(g.index_of(addr), line % sets);
        prop_assert_eq!(g.tag_of(addr), line / sets);
        prop_assert_eq!(g.lines(), sets * u64::from(g.ways()));
    }

    #[test]
    fn a_line_reads_back_exactly_as_inserted(
        line in 0u64..LINE_LIMIT,
        pick in 0usize..5,
        state_pick in 0usize..4,
        word in any::<u32>(),
    ) {
        let g = geometry(pick);
        let state = STATES[state_pick];
        let addr = Address::from_line_number(line);
        let data = LineData::splat_word(word);
        let mut cache = SetAssocCache::new(g);
        let lid = cache.insert(addr, data, state).line_id;
        prop_assert_eq!(u64::from(lid.index()), g.index_of(addr));

        if state == CoherenceState::Invalid {
            // An Invalid insert leaves an empty slot behind.
            prop_assert_eq!(cache.lookup(addr), None);
            prop_assert_eq!(cache.addr_by_id(lid), None);
            prop_assert_eq!(cache.read_by_id(lid), None);
            prop_assert_eq!(cache.valid_lines(), 0);
        } else {
            assert_reads_back(cache, lid, line, state, data);
        }
    }
}

#[test]
fn the_highest_line_number_round_trips() {
    let addr = Address::from_line_number(LINE_LIMIT - 1);
    for (size, ways) in GEOMETRIES {
        let mut cache = SetAssocCache::new(CacheGeometry::new(size, ways));
        for state in &STATES[1..] {
            let lid = cache.insert(addr, LineData::zeroed(), *state).line_id;
            assert_eq!(cache.addr_by_id(lid), Some(addr));
            assert_eq!(cache.state_by_id(lid), *state);
            assert_eq!(
                cache.invalidate(addr).map(|e| (e.addr, e.state)),
                Some((addr, *state))
            );
        }
    }
}
