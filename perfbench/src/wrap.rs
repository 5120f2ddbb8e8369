//! Timing and counting wrappers over the public `Disk`, `LogStore` and
//! `SegmentStore` traits, installed only in traced runs. They forward
//! every call unchanged and add up calls, bytes and time spent inside.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use storage::{Disk, IoStats, LogStore, PageId};

/// Calls, bytes and nanoseconds of one kind of operation, plus the
/// individual durations (for medians).
#[derive(Default)]
pub struct OpTally {
    calls: AtomicU64,
    units: AtomicU64,
    ns: AtomicU64,
    each_ns: Mutex<Vec<u64>>,
}

/// A copy of an [`OpTally`] at one moment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub calls: u64,
    /// Pages or bytes, depending on the operation.
    pub units: u64,
    pub ns: u64,
}

impl Tally {
    pub fn since(self, earlier: Tally) -> Tally {
        Tally {
            calls: self.calls - earlier.calls,
            units: self.units - earlier.units,
            ns: self.ns - earlier.ns,
        }
    }
}

impl OpTally {
    fn time<R>(&self, units: u64, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        let ns = t.elapsed().as_nanos() as u64;
        self.calls.fetch_add(1, Relaxed);
        self.units.fetch_add(units, Relaxed);
        self.ns.fetch_add(ns, Relaxed);
        self.each_ns.lock().expect("tally lock").push(ns);
        r
    }

    pub fn get(&self) -> Tally {
        Tally {
            calls: self.calls.load(Relaxed),
            units: self.units.load(Relaxed),
            ns: self.ns.load(Relaxed),
        }
    }

    /// Take the individual durations recorded so far, in nanoseconds.
    pub fn take_each(&self) -> Vec<u64> {
        std::mem::take(&mut *self.each_ns.lock().expect("tally lock"))
    }
}

/// A `Disk` that times its reads and writes.
pub struct TimedDisk {
    inner: Arc<dyn Disk>,
    pub reads: OpTally,
    pub writes: OpTally,
}

impl TimedDisk {
    pub fn new(inner: Arc<dyn Disk>) -> Arc<Self> {
        Arc::new(Self {
            inner,
            reads: OpTally::default(),
            writes: OpTally::default(),
        })
    }
}

impl Disk for TimedDisk {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }

    fn allocate(&self) -> storage::Result<PageId> {
        self.inner.allocate()
    }

    fn allocate_run(&self, n: u64) -> storage::Result<PageId> {
        self.inner.allocate_run(n)
    }

    fn read_page(&self, id: PageId, buf: &mut [u8]) -> storage::Result<()> {
        self.reads.time(1, || self.inner.read_page(id, buf))
    }

    fn write_page(&self, id: PageId, buf: &[u8]) -> storage::Result<()> {
        self.writes.time(1, || self.inner.write_page(id, buf))
    }

    fn write_pages(&self, first: PageId, buf: &[u8]) -> storage::Result<()> {
        let pages = (buf.len() / self.inner.page_size().max(1)) as u64;
        self.writes
            .time(pages, || self.inner.write_pages(first, buf))
    }

    fn stats(&self) -> &IoStats {
        self.inner.stats()
    }

    fn sync(&self) -> storage::Result<()> {
        self.inner.sync()
    }
}

/// A `LogStore` (the WAL's device) that times appends and syncs.
pub struct TimedLog {
    inner: Arc<dyn LogStore>,
    pub appends: OpTally,
    pub syncs: OpTally,
}

impl TimedLog {
    pub fn new(inner: Arc<dyn LogStore>) -> Arc<Self> {
        Arc::new(Self {
            inner,
            appends: OpTally::default(),
            syncs: OpTally::default(),
        })
    }
}

impl LogStore for TimedLog {
    fn list(&self) -> storage::Result<Vec<u64>> {
        self.inner.list()
    }

    fn read(&self, seg: u64) -> storage::Result<Vec<u8>> {
        self.inner.read(seg)
    }

    fn append(&self, seg: u64, bytes: &[u8]) -> storage::Result<()> {
        self.appends
            .time(bytes.len() as u64, || self.inner.append(seg, bytes))
    }

    fn truncate(&self, seg: u64, len: u64) -> storage::Result<()> {
        self.inner.truncate(seg, len)
    }

    fn delete(&self, seg: u64) -> storage::Result<()> {
        self.inner.delete(seg)
    }

    fn sync(&self) -> storage::Result<()> {
        self.syncs.time(0, || self.inner.sync())
    }
}

/// A `SegmentStore` (the LSM's segment device) that counts bytes put
/// and times syncs.
pub struct TimedSegments {
    inner: Arc<dyn lsm::SegmentStore>,
    pub puts: OpTally,
    pub syncs: OpTally,
}

impl TimedSegments {
    pub fn new(inner: Arc<dyn lsm::SegmentStore>) -> Arc<Self> {
        Arc::new(Self {
            inner,
            puts: OpTally::default(),
            syncs: OpTally::default(),
        })
    }
}

impl lsm::SegmentStore for TimedSegments {
    fn list(&self) -> storage::Result<Vec<u64>> {
        self.inner.list()
    }

    fn put(&self, id: u64, bytes: &[u8]) -> storage::Result<()> {
        self.puts
            .time(bytes.len() as u64, || self.inner.put(id, bytes))
    }

    fn read(&self, id: u64) -> storage::Result<Option<Vec<u8>>> {
        self.inner.read(id)
    }

    fn delete(&self, id: u64) -> storage::Result<()> {
        self.inner.delete(id)
    }

    fn sync(&self) -> storage::Result<()> {
        self.syncs.time(0, || self.inner.sync())
    }
}
