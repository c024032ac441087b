//! Per-process checkpoint stores over the shared content-addressed
//! page store.

use fixd_runtime::{
    DetRng, MsgMeta, Pid, ProcCheckpoint, SnapshotImage, VTime, VectorClock, World,
};

use crate::page::{PageStats, PageStore, PagedImage};

/// A Time-Machine checkpoint: the runtime context of
/// [`fixd_runtime::ProcCheckpoint`] with the state bytes held as a
/// [`PagedImage`] whose pages are interned in the Time Machine's shared
/// [`PageStore`] — so equal pages dedup across checkpoint generations,
/// across processes, and across speculation branches.
#[derive(Clone, Debug)]
pub struct TmCheckpoint {
    pub pid: Pid,
    /// Checkpoint index = the interval this checkpoint *starts*.
    pub index: u64,
    pub image: PagedImage,
    pub vc: VectorClock,
    pub lamport: u64,
    pub rng: DetRng,
    pub delivered: u64,
    pub meta: MsgMeta,
    pub taken_at: VTime,
    pub next_msg_id: u64,
    pub next_timer_id: u64,
    /// Handler events this process had executed when the checkpoint was
    /// taken (rollback-depth accounting for F6).
    pub events_at: u64,
    /// Page-sharing stats of this checkpoint relative to its predecessor.
    pub stats: PageStats,
}

impl TmCheckpoint {
    /// Convert back to a runtime checkpoint for [`World::restore_checkpoint`].
    /// The state travels as a paged snapshot (refcount bumps, no copy);
    /// the restore path materializes bytes exactly once.
    pub fn to_proc_checkpoint(&self) -> ProcCheckpoint {
        ProcCheckpoint {
            pid: self.pid,
            state: SnapshotImage::Paged(self.image.clone()),
            vc: self.vc.clone(),
            lamport: self.lamport,
            rng: self.rng.clone(),
            delivered: self.delivered,
            meta: self.meta,
            taken_at: self.taken_at,
            next_msg_id: self.next_msg_id,
            next_timer_id: self.next_timer_id,
        }
    }
}

/// The checkpoint history of one process. All page data lives in the
/// [`PageStore`] handed in at construction; `CheckpointStore`s of
/// different processes (and of different worlds, when the caller shares
/// one store) deduplicate equal pages against each other.
#[derive(Clone, Debug)]
pub struct CheckpointStore {
    pid: Pid,
    checkpoints: Vec<TmCheckpoint>,
    page_size: usize,
    pages: PageStore,
}

impl CheckpointStore {
    /// An empty store for `pid` backed by a private page store. Prefer
    /// [`CheckpointStore::with_store`] so processes share pages.
    pub fn new(pid: Pid, page_size: usize) -> Self {
        Self::with_store(pid, page_size, PageStore::new())
    }

    /// An empty store for `pid` interning pages into `pages`.
    pub fn with_store(pid: Pid, page_size: usize, pages: PageStore) -> Self {
        Self {
            pid,
            checkpoints: Vec::new(),
            page_size,
            pages,
        }
    }

    /// The backing page store handle.
    pub fn page_store(&self) -> &PageStore {
        &self.pages
    }

    /// Take a checkpoint of `pid`'s current state in `world`, paging it
    /// over the latest checkpoint's image: a page equal to the one at the
    /// same index there is shared after a `memcmp`, any other page is
    /// interned by content (a page already present — from this history,
    /// another process, or another branch — is reused without a copy).
    /// After [`CheckpointStore::restore`] the latest checkpoint is the
    /// restored one, which is exactly the world's state; a GC tombstone
    /// holds no pages and simply yields a full intern. Returns the new
    /// index.
    pub fn take(&mut self, world: &World, events_at: u64) -> u64 {
        let base = self.checkpoints.last().map(|c| &c.image);
        let pc = world.checkpoint_process_in(self.pid, &self.pages, self.page_size, base);
        let SnapshotImage::Paged(image) = pc.state else {
            unreachable!("checkpoint_process_in always pages the state")
        };
        let stats = image.build_stats();
        let index = self.checkpoints.len() as u64;
        self.checkpoints.push(TmCheckpoint {
            pid: self.pid,
            index,
            image,
            vc: pc.vc,
            lamport: pc.lamport,
            rng: pc.rng,
            delivered: pc.delivered,
            meta: pc.meta,
            taken_at: pc.taken_at,
            next_msg_id: pc.next_msg_id,
            next_timer_id: pc.next_timer_id,
            events_at,
            stats,
        });
        index
    }

    /// The checkpoint at `index` (indices are dense from 0).
    pub fn get(&self, index: u64) -> Option<&TmCheckpoint> {
        self.checkpoints.get(index as usize)
    }

    /// Latest checkpoint, if any.
    pub fn latest(&self) -> Option<&TmCheckpoint> {
        self.checkpoints.last()
    }

    /// Latest index, if any.
    pub fn latest_index(&self) -> Option<u64> {
        self.checkpoints.last().map(|c| c.index)
    }

    /// Number of checkpoints retained.
    pub fn len(&self) -> usize {
        self.checkpoints.len()
    }

    /// True when no checkpoints exist.
    pub fn is_empty(&self) -> bool {
        self.checkpoints.is_empty()
    }

    /// Restore the process in `world` to checkpoint `index`. Later
    /// checkpoints are discarded (they describe an undone future).
    /// Returns the restored checkpoint's `events_at`, or `None` (leaving
    /// the world untouched) when `index` does not exist or was GC'd.
    pub fn restore(&mut self, world: &mut World, index: u64) -> Option<u64> {
        if !self.is_live(index) {
            return None;
        }
        let ck = &self.checkpoints[index as usize];
        world.restore_checkpoint(&ck.to_proc_checkpoint());
        let events_at = ck.events_at;
        self.checkpoints.truncate(index as usize + 1);
        Some(events_at)
    }

    /// Drop checkpoints with `index < keep_from` (garbage collection).
    /// Indices cannot be renumbered — message metadata references them —
    /// so a dropped checkpoint stays in place as a tombstone: its image
    /// is emptied (releasing its page references) and `next_msg_id` is
    /// set to `u64::MAX`. [`CheckpointStore::is_live`] reports tombstones
    /// and [`CheckpointStore::restore`] of one returns `None`. Returns the
    /// number of checkpoints newly dropped.
    pub fn gc_before(&mut self, keep_from: u64) -> usize {
        let drop_n = (keep_from as usize).min(self.checkpoints.len());
        let mut dropped = 0;
        for ck in &mut self.checkpoints[..drop_n] {
            if !ck.image.is_empty() || ck.next_msg_id != u64::MAX {
                // Dropping the image releases its page refcounts; pages
                // no longer referenced anywhere are freed by the store
                // (and counted in `StoreStats::freed_bytes`).
                ck.image = PagedImage::empty();
                ck.next_msg_id = u64::MAX; // tombstone marker
                dropped += 1;
            }
        }
        dropped
    }

    /// Is checkpoint `index` still restorable (not GC'd)?
    pub fn is_live(&self, index: u64) -> bool {
        self.get(index).is_some_and(|c| c.next_msg_id != u64::MAX)
    }

    /// Distinct bytes held by the whole history (content-dedup-aware,
    /// within this process only — the per-process baseline figure).
    pub fn unique_bytes(&self) -> usize {
        PagedImage::unique_bytes(self.checkpoints.iter().map(|c| &c.image))
    }

    /// The images of the retained checkpoints (for cross-store dedup
    /// accounting).
    pub fn images(&self) -> impl Iterator<Item = &PagedImage> {
        self.checkpoints.iter().map(|c| &c.image)
    }

    /// Sum of page-sharing stats across the history.
    pub fn total_stats(&self) -> PageStats {
        let mut s = PageStats::default();
        for c in &self.checkpoints {
            s.reused += c.stats.reused;
            s.fresh += c.stats.fresh;
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fixd_runtime::{Context, Message, Program, World, WorldConfig};

    /// State: a sizable buffer where each message mutates one cell —
    /// ideal for observing COW sharing.
    struct BigState {
        buf: Vec<u8>,
        writes: u64,
    }
    impl Program for BigState {
        fn on_start(&mut self, ctx: &mut Context) {
            if ctx.pid() == Pid(0) {
                for i in 0..5u8 {
                    ctx.send(Pid(1), 1, vec![i]);
                }
            }
        }
        fn on_message(&mut self, _ctx: &mut Context, msg: &Message) {
            let i = usize::from(msg.payload[0]) * 97 % self.buf.len();
            self.buf[i] = self.buf[i].wrapping_add(1);
            self.writes += 1;
        }
        fn snapshot(&self) -> Vec<u8> {
            let mut b = self.writes.to_le_bytes().to_vec();
            b.extend_from_slice(&self.buf);
            b
        }
        fn restore(&mut self, b: &[u8]) {
            self.writes = u64::from_le_bytes(b[0..8].try_into().unwrap());
            self.buf = b[8..].to_vec();
        }
        fn clone_program(&self) -> Box<dyn Program> {
            Box::new(BigState {
                buf: self.buf.clone(),
                writes: self.writes,
            })
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    fn world() -> World {
        let mut w = World::new(WorldConfig::seeded(5));
        w.add_process(Box::new(BigState {
            buf: vec![0; 4096],
            writes: 0,
        }));
        w.add_process(Box::new(BigState {
            buf: vec![0; 4096],
            writes: 0,
        }));
        w
    }

    #[test]
    fn incremental_checkpoints_share_pages() {
        let mut w = world();
        let mut store = CheckpointStore::new(Pid(1), 256);
        store.take(&w, 0);
        w.run_to_quiescence(1_000);
        store.take(&w, 5);
        let last = store.latest().unwrap();
        assert!(last.stats.reused > 0, "most pages unchanged");
        assert!(last.stats.fresh >= 1, "mutated pages copied");
        assert!(last.stats.reused > last.stats.fresh);
        // COW history is much smaller than eager copies.
        let eager = 2 * (4096 + 8);
        assert!(store.unique_bytes() < eager);
    }

    #[test]
    fn restore_returns_exact_state() {
        let mut w = world();
        let mut store = CheckpointStore::new(Pid(1), 256);
        w.run_steps(3);
        let fp_then = w.checkpoint_process(Pid(1)).fingerprint();
        let idx = store.take(&w, 3);
        w.run_to_quiescence(1_000);
        assert_ne!(w.checkpoint_process(Pid(1)).fingerprint(), fp_then);
        let events_at = store.restore(&mut w, idx).unwrap();
        assert_eq!(events_at, 3);
        assert_eq!(w.checkpoint_process(Pid(1)).fingerprint(), fp_then);
    }

    #[test]
    fn restore_truncates_future_checkpoints() {
        let mut w = world();
        let mut store = CheckpointStore::new(Pid(1), 256);
        store.take(&w, 0);
        w.run_steps(4);
        store.take(&w, 4);
        w.run_to_quiescence(1_000);
        store.take(&w, 9);
        assert_eq!(store.len(), 3);
        store.restore(&mut w, 1);
        assert_eq!(store.len(), 2);
        assert_eq!(store.latest_index(), Some(1));
    }

    #[test]
    fn gc_tombstones_old_checkpoints() {
        let mut w = world();
        let mut store = CheckpointStore::new(Pid(1), 256);
        for i in 0..4 {
            store.take(&w, i);
            w.run_steps(2);
        }
        let dropped = store.gc_before(2);
        assert_eq!(dropped, 2);
        assert!(!store.is_live(0));
        assert!(!store.is_live(1));
        assert!(store.is_live(2));
        assert!(store.is_live(3));
        // Indices unchanged for live checkpoints.
        assert_eq!(store.get(3).unwrap().index, 3);
        // Second gc is a no-op.
        assert_eq!(store.gc_before(2), 0);
    }

    #[test]
    fn restore_of_collected_checkpoint_is_refused() {
        let mut w = world();
        let mut store = CheckpointStore::new(Pid(1), 256);
        for i in 0..3 {
            store.take(&w, i);
            w.run_steps(2);
        }
        store.gc_before(2);
        let fp = w.checkpoint_process(Pid(1)).fingerprint();
        assert_eq!(store.restore(&mut w, 0), None, "GC'd checkpoint restored");
        assert_eq!(store.restore(&mut w, 1), None, "GC'd checkpoint restored");
        assert_eq!(store.restore(&mut w, 7), None, "absent checkpoint restored");
        assert_eq!(w.checkpoint_process(Pid(1)).fingerprint(), fp);
        assert_eq!(store.len(), 3, "a refused restore truncates nothing");
        assert_eq!(store.restore(&mut w, 2), Some(2));
    }

    #[test]
    fn first_checkpoint_interns_constant_pages_once() {
        // The 4 KiB zero buffer is 16 identical pages: content
        // addressing stores one and reuses it 15 times even on the very
        // first checkpoint.
        let w = world();
        let mut store = CheckpointStore::new(Pid(0), 256);
        store.take(&w, 0);
        let c = store.latest().unwrap();
        assert!(c.stats.fresh >= 1, "first distinct page is fresh");
        assert!(c.stats.reused >= 15, "constant region collapses");
        assert!(store.unique_bytes() < 4096 + 8);
    }

    #[test]
    fn two_processes_share_one_store() {
        // Identical initial states across pids: the shared store holds
        // one set of pages, the per-process sum counts them twice.
        let w = world();
        let pages = PageStore::new();
        let mut s0 = CheckpointStore::with_store(Pid(0), 256, pages.clone());
        let mut s1 = CheckpointStore::with_store(Pid(1), 256, pages.clone());
        s0.take(&w, 0);
        s1.take(&w, 0);
        let per_process = s0.unique_bytes() + s1.unique_bytes();
        assert_eq!(pages.unique_bytes() * 2, per_process);
        assert!(pages.unique_bytes() < per_process);
    }
}
