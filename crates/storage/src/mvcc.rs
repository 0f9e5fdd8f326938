//! MVCC snapshot bookkeeping: epoch pins and retained page versions.
//!
//! The non-blocking read path: every committed state of the shared store
//! carries a monotone *root epoch*. A read view pins the epoch current
//! at open ([`Snapshots::pin`]) and keeps serving it while writers build
//! and publish later epochs. Writers never overwrite a page a pinned
//! reader still needs without first retaining the page's pre-image here
//! ([`Snapshots::retain`]); a pinned read of a since-overwritten page is
//! served from the retained version, with the same counter delta a
//! quiesced read would have charged — so snapshot reads stay
//! bit-identical, rows *and* costs, to a single-threaded run.
//!
//! Retained versions are reference-counted by the pins that can still
//! see them and garbage-collected on unpin: with no readers in flight
//! the whole structure is empty and the write path pays nothing.

use crate::pager::{PageId, PagerStats};
use ironsafe_obs::{Counter, Registry};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Live telemetry counters for the snapshot machinery (`mvcc.*` names).
#[derive(Clone, Default)]
pub struct MvccMetrics {
    /// Snapshot pins taken (`mvcc.pin`).
    pub pins: Counter,
    /// Page pre-images retained for pinned readers (`mvcc.retain`).
    pub retained: Counter,
    /// Retained versions garbage-collected on unpin (`mvcc.gc`).
    pub gc: Counter,
    /// Pinned reads served from a retained version (`mvcc.read.retained`).
    pub retained_reads: Counter,
}

impl MvccMetrics {
    /// Attach every cell to `registry` under its `mvcc.*` name.
    pub fn register(&self, registry: &Registry) {
        registry.register_counter("mvcc.pin", &self.pins);
        registry.register_counter("mvcc.retain", &self.retained);
        registry.register_counter("mvcc.gc", &self.gc);
        registry.register_counter("mvcc.read.retained", &self.retained_reads);
    }
}

/// One retained pre-image: the page's payload as it was for every epoch
/// strictly below `ceiling`, plus the counter delta its first read cost
/// (replayed verbatim to pinned readers, like [`crate::view::PageCache`]
/// hits).
#[derive(Clone)]
struct Version {
    ceiling: u64,
    payload: Arc<[u8]>,
    delta: PagerStats,
}

#[derive(Default)]
struct SnapState {
    /// Latest published (committed) epoch.
    committed_epoch: u64,
    /// Page count of the committed state (pinned views bound their id
    /// space to the value captured at pin time).
    committed_pages: u64,
    /// Per-page versions, ascending by ceiling.
    versions: HashMap<PageId, Vec<Version>>,
    /// Active pin count per epoch.
    pins: HashMap<u64, usize>,
}

impl SnapState {
    fn min_pinned(&self) -> Option<u64> {
        self.pins.keys().copied().min()
    }

    /// Drop every version no reader can still see. A version with
    /// ceiling `c` serves epochs `< c`. The committed epoch counts as an
    /// implicit pin: a flush retains a pre-image with ceiling
    /// `committed + 1` *before* it publishes, and a reader may still pin
    /// the committed epoch in that window — so with `m` the smaller of
    /// the smallest pinned epoch and the committed epoch, only versions
    /// with `c <= m` are dead.
    fn collect(&mut self, metrics: &MvccMetrics) {
        let floor = self.min_pinned().map_or(self.committed_epoch, |m| m.min(self.committed_epoch));
        let mut freed = 0u64;
        self.versions.retain(|_, vs| {
            let before = vs.len();
            vs.retain(|v| v.ceiling > floor);
            freed += (before - vs.len()) as u64;
            !vs.is_empty()
        });
        if freed > 0 {
            metrics.gc.add(freed);
        }
    }
}

/// Shared snapshot registry: one per shared base pager.
#[derive(Clone, Default)]
pub struct Snapshots {
    state: Arc<Mutex<SnapState>>,
    metrics: MvccMetrics,
}

/// A pinned snapshot: holds its epoch visible until dropped.
pub struct SnapshotPin {
    snapshots: Snapshots,
    epoch: u64,
    base_pages: u64,
}

impl SnapshotPin {
    /// The pinned root epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Page count of the pinned state: ids at or above this are
    /// invisible to the pinned view regardless of later allocations.
    pub(crate) fn base_pages(&self) -> u64 {
        self.base_pages
    }

    /// The registry this pin belongs to.
    pub fn snapshots(&self) -> &Snapshots {
        &self.snapshots
    }
}

impl Drop for SnapshotPin {
    fn drop(&mut self) {
        let mut st = self.snapshots.state.lock();
        if let Some(n) = st.pins.get_mut(&self.epoch) {
            *n -= 1;
            if *n == 0 {
                st.pins.remove(&self.epoch);
            }
        }
        st.collect(&self.snapshots.metrics);
    }
}

impl Snapshots {
    /// Fresh registry at epoch 0 over an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Handles onto the live `mvcc.*` telemetry counters.
    pub fn metrics(&self) -> &MvccMetrics {
        &self.metrics
    }

    /// Publish `epoch` (with its page count) as the committed state.
    /// Called by the writer after a flush lands; also used at attach
    /// time to seed the initial state. Collects versions no pin needs —
    /// a flush retains unconditionally (a reader may pin the old epoch
    /// at any point up to this publish), and the publish immediately
    /// frees whatever turned out to have no audience.
    pub fn publish(&self, epoch: u64, pages: u64) {
        let mut st = self.state.lock();
        debug_assert!(epoch >= st.committed_epoch, "epochs are monotone");
        st.committed_epoch = epoch;
        st.committed_pages = pages;
        st.collect(&self.metrics);
    }

    /// The committed epoch readers currently pin.
    pub fn committed_epoch(&self) -> u64 {
        self.state.lock().committed_epoch
    }

    /// Pin the committed epoch for a new read view.
    pub fn pin(&self) -> SnapshotPin {
        let (epoch, pages) = {
            let mut st = self.state.lock();
            let epoch = st.committed_epoch;
            *st.pins.entry(epoch).or_insert(0) += 1;
            (epoch, st.committed_pages)
        };
        self.metrics.pins.inc();
        SnapshotPin { snapshots: self.clone(), epoch, base_pages: pages }
    }

    /// Retain `payload` as page `id`'s image for every epoch `< ceiling`
    /// (the epoch the overwriting commit publishes). `delta` is the
    /// counter cost a first read of this version charged; pinned readers
    /// replay it verbatim. The writer calls this *before* the overwrite
    /// lands on the base pager, holding the base lock across both, and
    /// retains *unconditionally*: a reader can pin the pre-publish epoch
    /// right up to the publish, so "no pins right now" proves nothing.
    /// [`Snapshots::publish`] collects versions that found no audience.
    pub fn retain(&self, id: PageId, payload: Arc<[u8]>, delta: PagerStats, ceiling: u64) {
        let mut st = self.state.lock();
        let vs = st.versions.entry(id).or_default();
        if vs.last().is_some_and(|v| v.ceiling >= ceiling) {
            return; // already retained for this ceiling
        }
        vs.push(Version { ceiling, payload, delta });
        self.metrics.retained.inc();
    }

    /// The payload page `id` had at `epoch`, if a retained version
    /// covers it (i.e. the page was overwritten after `epoch`). `None`
    /// means the base pager's current image *is* the `epoch` image.
    pub fn lookup(&self, id: PageId, epoch: u64) -> Option<(Arc<[u8]>, PagerStats)> {
        let st = self.state.lock();
        let vs = st.versions.get(&id)?;
        // Smallest ceiling still above the pinned epoch is the image the
        // pin saw (versions are pushed in ascending ceiling order).
        let v = vs.iter().find(|v| v.ceiling > epoch)?;
        self.metrics.retained_reads.inc();
        Some((Arc::clone(&v.payload), v.delta))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Snapshots {
        /// True when some active pin is below `epoch` — i.e. overwriting a
        /// page at `epoch` requires retaining its pre-image first.
        fn has_pins_below(&self, epoch: u64) -> bool {
            self.state.lock().min_pinned().is_some_and(|m| m < epoch)
        }

        /// Number of active pins (diagnostics/tests).
        fn active_pins(&self) -> usize {
            self.state.lock().pins.values().sum()
        }

        /// Number of retained versions (diagnostics/tests).
        fn retained_versions(&self) -> usize {
            self.state.lock().versions.values().map(Vec::len).sum()
        }
    }

    fn payload(tag: u8) -> Arc<[u8]> {
        Arc::from(vec![tag; 8].into_boxed_slice())
    }

    #[test]
    fn pin_sees_retained_pre_image_until_dropped() {
        let snaps = Snapshots::new();
        snaps.publish(1, 4);
        let pin = snaps.pin();
        assert_eq!((pin.epoch(), pin.base_pages()), (1, 4));
        // Writer overwrites page 2 while the pin is live.
        snaps.retain(2, payload(0xaa), PagerStats::default(), 2);
        snaps.publish(2, 4);
        let (img, _) = snaps.lookup(2, pin.epoch()).expect("pre-image retained");
        assert_eq!(&img[..], &[0xaa; 8]);
        assert_eq!(snaps.retained_versions(), 1);
        drop(pin);
        assert_eq!(snaps.retained_versions(), 0, "GC on unpin");
        assert_eq!(snaps.metrics().gc.get(), 1);
    }

    #[test]
    fn publish_collects_versions_with_no_audience() {
        let snaps = Snapshots::new();
        snaps.publish(1, 4);
        // Flush retains unconditionally (a pin could still arrive)...
        snaps.retain(0, payload(1), PagerStats::default(), 2);
        assert_eq!(snaps.retained_versions(), 1, "held until publish");
        // ...and publish frees it when no pin materialized.
        snaps.publish(2, 4);
        assert_eq!(snaps.retained_versions(), 0, "nobody can see below the ceiling");
        // A pin at the *new* epoch does not hold later retentions either.
        let _pin = snaps.pin();
        snaps.retain(0, payload(1), PagerStats::default(), 3);
        snaps.publish(3, 4);
        assert_eq!(snaps.retained_versions(), 1, "pin at 2 needs the <3 image");
    }

    #[test]
    fn multiple_versions_resolve_by_smallest_covering_ceiling() {
        let snaps = Snapshots::new();
        snaps.publish(1, 4);
        let old = snaps.pin(); // epoch 1
        snaps.retain(3, payload(0x11), PagerStats::default(), 2);
        snaps.publish(2, 4);
        let mid = snaps.pin(); // epoch 2
        snaps.retain(3, payload(0x22), PagerStats::default(), 3);
        snaps.publish(3, 4);
        let (img_old, _) = snaps.lookup(3, old.epoch()).unwrap();
        assert_eq!(&img_old[..], &[0x11; 8], "epoch-1 pin sees the first pre-image");
        let (img_mid, _) = snaps.lookup(3, mid.epoch()).unwrap();
        assert_eq!(&img_mid[..], &[0x22; 8], "epoch-2 pin sees the second pre-image");
        assert!(snaps.lookup(3, 3).is_none(), "current epoch reads the base");
        drop(old);
        assert_eq!(snaps.retained_versions(), 1, "only the version mid still needs");
        drop(mid);
        assert_eq!(snaps.retained_versions(), 0);
    }

    #[test]
    fn unpin_during_a_flush_keeps_the_in_flight_pre_image() {
        // A flush sits between `retain(.., committed + 1)` and
        // `publish(committed + 1)` when the last reader unpins: the GC
        // must not free the pre-image, because the next reader still
        // pins the committed epoch and the base page is already
        // overwritten.
        let snaps = Snapshots::new();
        snaps.publish(1, 4);
        let pin = snaps.pin();
        snaps.retain(2, payload(0xaa), PagerStats::default(), 2);
        drop(pin);
        let pin = snaps.pin();
        assert_eq!(pin.epoch(), 1, "the flush has not published yet");
        let (img, _) = snaps.lookup(2, pin.epoch()).expect("in-flight pre-image kept");
        assert_eq!(&img[..], &[0xaa; 8]);
        snaps.publish(2, 4);
        assert_eq!(snaps.retained_versions(), 1, "the epoch-1 pin still reads it");
        drop(pin);
        assert_eq!(snaps.retained_versions(), 0);
    }

    #[test]
    fn pins_count_and_unpin() {
        let snaps = Snapshots::new();
        snaps.publish(5, 1);
        let a = snaps.pin();
        let b = snaps.pin();
        assert_eq!(snaps.active_pins(), 2);
        assert!(snaps.has_pins_below(6));
        assert!(!snaps.has_pins_below(5));
        drop(a);
        assert_eq!(snaps.active_pins(), 1);
        drop(b);
        assert_eq!(snaps.active_pins(), 0);
        assert_eq!(snaps.metrics().pins.get(), 2);
    }

    #[test]
    fn duplicate_retain_for_same_ceiling_is_idempotent() {
        let snaps = Snapshots::new();
        snaps.publish(1, 2);
        let _pin = snaps.pin();
        snaps.retain(0, payload(7), PagerStats::default(), 2);
        snaps.retain(0, payload(8), PagerStats::default(), 2);
        assert_eq!(snaps.retained_versions(), 1, "first capture wins");
        let (img, _) = snaps.lookup(0, 1).unwrap();
        assert_eq!(&img[..], &[7; 8]);
    }
}
