//! Paging over a base image is an optimisation only: it must produce
//! exactly what a full content intern of the same bytes produces — the
//! same page keys, the same build stats, the same store counter deltas
//! and the same bytes — for any base, including an empty one, one paged
//! at another page size, or one that lives in another store.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use fixd_store::{PageStats, PageStore, PagedImage, StoreStats};

/// The store counters a build changes, as deltas.
fn delta(before: StoreStats, after: StoreStats) -> [u64; 5] {
    [
        after.hits - before.hits,
        after.misses - before.misses,
        after.deduped_bytes - before.deduped_bytes,
        (after.live_pages - before.live_pages) as u64,
        (after.live_bytes - before.live_bytes) as u64,
    ]
}

/// Build `new` in `store`, over `base` or in full, and report what the
/// build did.
fn build(
    store: &PageStore,
    new: &[u8],
    page: usize,
    base: Option<&PagedImage>,
) -> (PagedImage, Vec<u64>, PageStats, [u64; 5]) {
    let before = store.stats();
    let img = PagedImage::from_bytes_over(store, new, page, base);
    let keys = img.page_keys().collect();
    let stats = img.build_stats();
    (img, keys, stats, delta(before, store.stats()))
}

/// Page `old` then `new` into two fresh stores with identical histories:
/// in one, `new` is paged over `base` (the store's own image of `old`,
/// or one from a third store when `foreign`); in the other it is built in
/// full. Both builds must agree on everything observable.
fn check_equivalent(
    old: &[u8],
    new: &[u8],
    base_page: usize,
    new_page: usize,
    foreign: bool,
) -> Result<(), TestCaseError> {
    let over = PageStore::new();
    let full = PageStore::new();
    let own_base = PagedImage::from_bytes_with(&over, old, base_page);
    let _full_base = PagedImage::from_bytes_with(&full, old, base_page);
    let foreign_base = PagedImage::from_bytes_with(&PageStore::new(), old, base_page);
    let base = if foreign { &foreign_base } else { &own_base };

    let (a, a_keys, a_stats, a_delta) = build(&over, new, new_page, Some(base));
    let (b, b_keys, b_stats, b_delta) = build(&full, new, new_page, None);
    prop_assert_eq!(a_keys, b_keys);
    prop_assert_eq!(a_stats, b_stats);
    prop_assert_eq!(a_delta, b_delta);
    prop_assert_eq!(a.to_bytes(), new.to_vec());
    prop_assert_eq!(b.to_bytes(), new.to_vec());
    prop_assert_eq!(a.identity(), b.identity());
    // The store states stay in step too: refcounts of every page agree.
    for key in a.page_keys() {
        prop_assert_eq!(over.refs_of(key), full.refs_of(key));
    }
    prop_assert_eq!(over.stats(), full.stats());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `kind` picks the mutation from `old` to `new`: one page, many
    /// pages, growth, shrink, an empty base, a different page size, a
    /// base from another store, or none at all. Small alphabets and page
    /// sizes make repeated pages within one image common.
    #[test]
    fn paging_over_a_base_equals_a_full_build(
        old in proptest::collection::vec(0u8..4, 0..1200),
        kind in 0u8..8,
        page in 1usize..300,
        other_page in 1usize..300,
        at in proptest::collection::vec(0usize..1200, 1..12),
        tail in proptest::collection::vec(any::<u8>(), 1..600),
    ) {
        let mut new = old.clone();
        let mut base_old = old.clone();
        let mut new_page = page;
        match kind {
            0 if !new.is_empty() => {
                let i = at[0] % new.len();
                new[i] ^= 0x5a;
            }
            1 if !new.is_empty() => {
                for &i in &at {
                    let i = i % new.len();
                    new[i] = new[i].wrapping_add(1);
                }
            }
            2 => new.extend_from_slice(&tail),
            3 => new.truncate(at[0] % (new.len() + 1)),
            4 => base_old.clear(),
            5 => new_page = other_page,
            _ => {}
        }
        check_equivalent(&base_old, &new, page, new_page, kind == 6)?;
    }
}
