//! The [`PageStore`]: interned, refcounted, content-addressed pages.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use parking_lot::Mutex;

/// Content key of a page: FNV-1a over the bytes, mixed with the length
/// (so a page of `n` zero bytes and one of `m` zero bytes never probe
/// the same chain start).
pub fn page_hash(bytes: &[u8]) -> u64 {
    let h = crate::fnv1a(bytes);
    // Avalanche the length in (splitmix-style) for cheap separation.
    let mut x = h ^ (bytes.len() as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^ (x >> 33)
}

/// On the (astronomically unlikely) event of two different pages hashing
/// to one key, the store probes deterministically to the next key.
fn next_probe(key: u64) -> u64 {
    key.wrapping_mul(0x2545_f491_4f6c_dd1d).wrapping_add(1)
}

/// Counters of one store. `live_*` describe the current contents;
/// the rest are cumulative over the store's lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Pages currently interned.
    pub live_pages: usize,
    /// Bytes currently interned (the real resident footprint).
    pub live_bytes: usize,
    /// Interns that found the page already present (bytes NOT copied).
    pub hits: u64,
    /// Interns that inserted a fresh page.
    pub misses: u64,
    /// Bytes deduplicated by hits: what a non-shared layout would have
    /// allocated on top of `live_bytes`.
    pub deduped_bytes: u64,
    /// Bytes physically freed by dropping the last handle to a page —
    /// what GC passes actually returned.
    pub freed_bytes: u64,
}

struct Slot {
    data: Arc<[u8]>,
    refs: u64,
}

/// Pass-through hasher for the slot map: its keys are [`page_hash`]
/// outputs (or probes of them), already avalanche-mixed, so hashing them
/// again would only cost time.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only `u64` keys reach this map; fold anything else anyway.
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }
}

#[derive(Default)]
struct Inner {
    slots: HashMap<u64, Slot, BuildHasherDefault<KeyHasher>>,
    stats: StoreStats,
}

impl std::fmt::Debug for Inner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageStoreInner")
            .field("live_pages", &self.stats.live_pages)
            .field("live_bytes", &self.stats.live_bytes)
            .finish()
    }
}

/// A shared content-addressed page store. Cloning the store handle
/// shares the underlying pages — one store can back every process of a
/// world, every speculation branch, and (when passed explicitly) many
/// worlds at once.
#[derive(Clone, Debug, Default)]
pub struct PageStore {
    inner: Arc<Mutex<Inner>>,
}

impl PageStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Do two handles name the same store?
    pub fn ptr_eq(&self, other: &PageStore) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Intern `bytes` as a page. Returns the handle and whether the page
    /// was `fresh` (inserted now) as opposed to already present.
    pub fn intern(&self, bytes: &[u8]) -> (PageHandle, bool) {
        let mut key = page_hash(bytes);
        let mut inner = self.inner.lock();
        loop {
            match inner.slots.get_mut(&key) {
                Some(slot) if slot.data.as_ref() == bytes => {
                    slot.refs += 1;
                    let data = Arc::clone(&slot.data);
                    inner.stats.hits += 1;
                    inner.stats.deduped_bytes += bytes.len() as u64;
                    drop(inner);
                    return (
                        PageHandle {
                            store: Arc::clone(&self.inner),
                            key,
                            data,
                        },
                        false,
                    );
                }
                Some(_) => {
                    // True 64-bit collision: probe deterministically.
                    key = next_probe(key);
                }
                None => {
                    let data: Arc<[u8]> = Arc::from(bytes);
                    inner.slots.insert(
                        key,
                        Slot {
                            data: Arc::clone(&data),
                            refs: 1,
                        },
                    );
                    inner.stats.misses += 1;
                    inner.stats.live_pages += 1;
                    inner.stats.live_bytes += bytes.len();
                    drop(inner);
                    return (
                        PageHandle {
                            store: Arc::clone(&self.inner),
                            key,
                            data,
                        },
                        true,
                    );
                }
            }
        }
    }

    /// Share `page` — a handle already in this store whose bytes are the
    /// ones being interned — without hashing them again. Counts exactly
    /// as an [`PageStore::intern`] hit on that content: one more
    /// reference, one more `hits`, `page.len()` more `deduped_bytes`.
    pub(crate) fn share(&self, page: &PageHandle) -> PageHandle {
        debug_assert!(page.in_store(self), "shared page from another store");
        let mut inner = self.inner.lock();
        if let Some(slot) = inner.slots.get_mut(&page.key) {
            slot.refs += 1;
        }
        inner.stats.hits += 1;
        inner.stats.deduped_bytes += page.len() as u64;
        drop(inner);
        PageHandle {
            store: Arc::clone(&self.inner),
            key: page.key,
            data: Arc::clone(&page.data),
        }
    }

    /// Bytes currently interned, each distinct page counted once — the
    /// resident footprint of everything referencing this store.
    pub fn unique_bytes(&self) -> usize {
        self.inner.lock().stats.live_bytes
    }

    /// Pages currently interned.
    pub fn page_count(&self) -> usize {
        self.inner.lock().stats.live_pages
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StoreStats {
        self.inner.lock().stats
    }

    /// Reference count of the page under `key` (0 when absent) —
    /// accounting introspection for GC tests.
    pub fn refs_of(&self, key: u64) -> u64 {
        self.inner.lock().slots.get(&key).map_or(0, |s| s.refs)
    }
}

/// A reference-counted handle to one interned page. Cloning bumps the
/// store refcount; dropping the last handle removes the page and counts
/// its bytes as freed. Reads never lock: the handle caches the `Arc` to
/// the page bytes.
pub struct PageHandle {
    store: Arc<Mutex<Inner>>,
    key: u64,
    data: Arc<[u8]>,
}

impl PageHandle {
    /// The page's content key in its store.
    pub fn key(&self) -> u64 {
        self.key
    }

    /// The page bytes.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.data
    }

    /// Page length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True for the (unusual) zero-length page.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Is this page interned in `store`?
    pub(crate) fn in_store(&self, store: &PageStore) -> bool {
        Arc::ptr_eq(&self.store, &store.inner)
    }
}

impl std::ops::Deref for PageHandle {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl std::fmt::Debug for PageHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PageHandle({:#018x}, {}B)", self.key, self.data.len())
    }
}

impl Clone for PageHandle {
    fn clone(&self) -> Self {
        // A clone is a share, not an intern: bump the refcount only
        // (hits/deduped_bytes track content-level dedup at intern time).
        let mut inner = self.store.lock();
        if let Some(slot) = inner.slots.get_mut(&self.key) {
            slot.refs += 1;
        }
        drop(inner);
        Self {
            store: Arc::clone(&self.store),
            key: self.key,
            data: Arc::clone(&self.data),
        }
    }
}

impl Drop for PageHandle {
    fn drop(&mut self) {
        let mut inner = self.store.lock();
        if let Some(slot) = inner.slots.get_mut(&self.key) {
            slot.refs -= 1;
            if slot.refs == 0 {
                let len = slot.data.len();
                inner.slots.remove(&self.key);
                inner.stats.live_pages -= 1;
                inner.stats.live_bytes -= len;
                inner.stats.freed_bytes += len as u64;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_dedups_equal_content() {
        let store = PageStore::new();
        let (a, fresh_a) = store.intern(b"same bytes");
        let (b, fresh_b) = store.intern(b"same bytes");
        assert!(fresh_a);
        assert!(!fresh_b);
        assert_eq!(a.key(), b.key());
        assert_eq!(store.page_count(), 1);
        assert_eq!(store.unique_bytes(), 10);
        assert_eq!(store.refs_of(a.key()), 2);
        let s = store.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.deduped_bytes, 10);
    }

    #[test]
    fn distinct_content_distinct_pages() {
        let store = PageStore::new();
        let (a, _) = store.intern(b"alpha");
        let (b, _) = store.intern(b"bravo");
        assert_ne!(a.key(), b.key());
        assert_eq!(store.page_count(), 2);
        assert_eq!(a.as_slice(), b"alpha");
        assert_eq!(&b[..], b"bravo");
    }

    #[test]
    fn drop_of_last_handle_frees_and_reports() {
        let store = PageStore::new();
        let (a, _) = store.intern(&[7u8; 64]);
        let b = a.clone();
        assert_eq!(store.refs_of(a.key()), 2);
        drop(a);
        assert_eq!(store.unique_bytes(), 64, "one handle still live");
        assert_eq!(store.stats().freed_bytes, 0);
        drop(b);
        assert_eq!(store.unique_bytes(), 0);
        assert_eq!(store.page_count(), 0);
        assert_eq!(store.stats().freed_bytes, 64);
    }

    #[test]
    fn reintern_after_free_is_fresh() {
        let store = PageStore::new();
        let (a, _) = store.intern(b"page");
        drop(a);
        let (_b, fresh) = store.intern(b"page");
        assert!(fresh, "freed page must be re-inserted");
        assert_eq!(store.stats().misses, 2);
    }

    #[test]
    fn clones_of_store_share_contents() {
        let store = PageStore::new();
        let alias = store.clone();
        let (_h, _) = store.intern(b"shared");
        assert_eq!(alias.unique_bytes(), 6);
        assert!(store.ptr_eq(&alias));
        assert!(!store.ptr_eq(&PageStore::new()));
    }

    #[test]
    fn empty_page_interns() {
        let store = PageStore::new();
        let (h, fresh) = store.intern(&[]);
        assert!(fresh);
        assert!(h.is_empty());
        assert_eq!(h.len(), 0);
        assert_eq!(store.unique_bytes(), 0);
        assert_eq!(store.page_count(), 1);
    }
}
