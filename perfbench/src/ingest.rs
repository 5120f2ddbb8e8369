//! The `ingest` phase: rectangles of the workload's family from one
//! fixed map arrive in random spatial order and go through
//! `LsmTree::insert_batch` in 256-entry batches on real files —
//! `FileDisk`, a `FileLogStore` that fsyncs every commit and a
//! `FileSegmentStore` — with the `LsmOptions` defaults `rtree-cli build
//! --lsm` uses (inline compaction, one drain thread) at node capacity
//! 100. After every batch one window query from the `query` phase's
//! distribution runs on the tree.
//!
//! Setup preloads an untimed base, so reads always see flat levels plus
//! a memtable. Each pass starts from a copy of that base and ingests the
//! same stream, so every pass does the same work however long the run.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use geom::Rect2;
use rtree::{NodeCapacity, SpatialIndex};
use storage::{Disk, FileDisk, FileLogStore, LogStore, DEFAULT_PAGE_SIZE};

use crate::common::{
    brute_force, copy_dir, disk_bytes, median, micros, percentile, secs, sync_tree, timed, Context,
    Family, Rng, Windows, MAP_SEED,
};
use crate::tracing::Rollup;
use crate::wrap::{TimedLog, TimedSegments};
use crate::{Config, Report};

const BATCH: usize = 256;
/// Entries preloaded before the first timed batch.
const BASE: usize = 1 << 16;
/// The preload commits memtable-sized batches: the base ends in the same
/// levels and memtable as with 256-entry batches, with 16 WAL syncs
/// instead of 256, so set-up time depends less on the disk's fsync
/// latency.
const PRELOAD_BATCH: usize = 4096;
/// Batches per pass: four rounds of 64 batches (16 384 inserts each).
const ROUND_BATCHES: usize = 64;
const PASS_ROUNDS: usize = 4;
const PASS_BATCHES: usize = ROUND_BATCHES * PASS_ROUNDS;
const STREAM: usize = PASS_BATCHES * BATCH;
const CAP: usize = 100;
/// Passes for more than 1 000 batches behind a p99.
pub const MIN_PASSES: usize = 4;
/// Every `ORACLE_EVERY`-th read is checked by brute force.
const ORACLE_EVERY: usize = 4;

fn options() -> lsm::LsmOptions {
    lsm::LsmOptions {
        capacity: NodeCapacity::new(CAP).expect("capacity 100 is valid"),
        ..lsm::LsmOptions::default()
    }
}

/// The wrappers of a traced pass.
struct Wrappers {
    log: Arc<TimedLog>,
    segs: Arc<TimedSegments>,
}

/// Open (or create) the LSM tree stored under `dir`, as `rtree-cli`
/// does, optionally with its log and segment stores timed.
fn open_lsm(dir: &Path, wrap: bool) -> Result<(lsm::LsmTree<2>, Option<Wrappers>), String> {
    std::fs::create_dir_all(dir).ctx("create lsm dir")?;
    let index = dir.join("index.v2");
    let file = if index.exists() {
        FileDisk::open(&index, DEFAULT_PAGE_SIZE)
    } else {
        FileDisk::create(&index, DEFAULT_PAGE_SIZE)
    }
    .ctx("index.v2")?;
    let disk: Arc<dyn Disk> = Arc::new(file);
    let mut log: Arc<dyn LogStore> = FileLogStore::open(dir.join("wal")).ctx("wal")?;
    let mut segs: Arc<dyn lsm::SegmentStore> =
        Arc::new(lsm::FileSegmentStore::open(dir.join("segments")).ctx("segments")?);
    let mut wrappers = None;
    if wrap {
        let l = TimedLog::new(log);
        let s = TimedSegments::new(segs);
        log = l.clone();
        segs = s.clone();
        wrappers = Some(Wrappers { log: l, segs: s });
    }
    let tree = lsm::LsmTree::open(disk, log, segs, options()).ctx("open lsm")?;
    Ok((tree, wrappers))
}

/// The seeded arrival stream: the map's shapes shuffled out of spatial
/// order, ids equal to arrival position.
fn generate(family: Family, seed: u64) -> Vec<(Rect2, u64)> {
    let mut rects: Vec<Rect2> = family
        .generate(BASE + STREAM, MAP_SEED)
        .into_iter()
        .map(|(r, _)| r)
        .collect();
    Rng::new(seed ^ 0x696e_6765_7374).shuffle(&mut rects);
    rects.into_iter().zip(0u64..).collect()
}

/// One batch and the read after it.
struct Batch {
    insert_us: f64,
    read_us: f64,
    inserted: bool,
    read_ok: bool,
    compacted: bool,
    levels: usize,
    memtable_items: u64,
    hilbert_ns: f64,
}

/// One pass over the stream from the base state.
struct Pass {
    traced: bool,
    batches: Vec<Batch>,
    /// Sampled reads: window, entries acknowledged before it, hits.
    reads: Vec<(Rect2, usize, u64)>,
    /// Whole-space query correct before and after reopening.
    whole_ok: [bool; 2],
    dir_bytes: u64,
    compactions: u64,
    wal_syncs: u64,
    wal_sync_us: Vec<f64>,
    wal_bytes: u64,
    seg_bytes: u64,
    seg_sync_us: Vec<f64>,
    sort_ns: u64,
    drains: u64,
}

/// The preloaded base and the passes run from it.
pub struct Ingest {
    base_dir: PathBuf,
    work_dir: PathBuf,
    items: Vec<(Rect2, u64)>,
    windows: Windows,
    passes: Vec<Pass>,
    rollup: Rollup,
    /// Time of the generator call.
    pub gen_s: f64,
}

impl Ingest {
    /// Generate the arrival stream and preload its base.
    pub fn setup(cfg: &Config, family: Family) -> Result<Self, String> {
        let dir = cfg.dir.join("ingest");
        let base_dir = dir.join("base");
        let (items, d) = timed(|| generate(family, cfg.seed));
        let _ = std::fs::remove_dir_all(&base_dir);
        let (tree, _) = open_lsm(&base_dir, false)?;
        for batch in items[..BASE].chunks(PRELOAD_BATCH) {
            tree.insert_batch(batch).ctx("preload")?;
        }
        drop(tree);
        Ok(Self {
            base_dir,
            work_dir: dir.join("work"),
            items,
            windows: Windows::new(cfg.seed ^ 0x7175_6572_795f_7731),
            passes: Vec::new(),
            rollup: Rollup::default(),
            gen_s: secs(d),
        })
    }

    pub fn rollup(&self) -> &Rollup {
        &self.rollup
    }

    /// One pass over the stream from a copy of the base.
    pub fn pass(&mut self, cfg: &Config) -> Result<(), String> {
        // Traced runs alternate traced and untraced passes, for the
        // tracing-overhead ratio.
        let traced = cfg.traced && self.passes.len().is_multiple_of(2);
        let _ = std::fs::remove_dir_all(&self.work_dir);
        copy_dir(&self.base_dir, &self.work_dir).ctx("copy base")?;
        // The copy, and the base and work directories themselves.
        let dir = self.work_dir.parent().expect("work dir has a parent");
        sync_tree(dir).ctx("sync ingest dir")?;
        let pass = run_pass(
            cfg,
            traced,
            &self.work_dir,
            &self.items,
            &mut self.windows,
            &mut self.rollup,
        )?;
        self.passes.push(pass);
        Ok(())
    }

    /// Check sampled reads against a brute-force count over the entries
    /// acknowledged before each, count the operations and set the
    /// phase's metrics.
    pub fn finish(&self, cfg: &Config, report: &mut Report) {
        let (passes, items) = (&self.passes, &self.items);
        let mut checked = 0;
        for p in passes {
            let mut read_fail = vec![false; p.batches.len()];
            for (i, (w, acked, got)) in p.reads.iter().enumerate() {
                let want = brute_force(&items[..*acked], w).count;
                checked += 1;
                if want != *got {
                    eprintln!("read after {acked} entries: {got} hits, brute force {want}");
                    read_fail[i * ORACLE_EVERY] = true;
                }
            }
            for (b, bad) in p.batches.iter().zip(read_fail) {
                report.op(b.inserted);
                report.op(b.read_ok && !bad);
            }
            for ok in p.whole_ok {
                report.op(ok);
            }
        }
        report.correct &= checked > 0;

        let batches = |traced: Option<bool>| -> Vec<&Batch> {
            passes
                .iter()
                .filter(|p| traced.is_none_or(|t| p.traced == t))
                .flat_map(|p| p.batches.iter())
                .collect()
        };
        if cfg.traced {
            let first = passes.iter().find(|p| p.traced).expect("a traced pass");
            let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
            let tb = batches(Some(true));
            let entries = STREAM as f64;
            let of = |bs: &[&Batch], f: &dyn Fn(&Batch) -> f64| {
                bs.iter().map(|b| f(b)).collect::<Vec<f64>>()
            };
            let compaction: Vec<&Batch> = tb.iter().copied().filter(|b| b.compacted).collect();
            let plain: Vec<&Batch> = tb.iter().copied().filter(|b| !b.compacted).collect();
            let first_batches: Vec<&Batch> = first.batches.iter().collect();
            let flat_list = |f: &dyn Fn(&Pass) -> &Vec<f64>| -> Vec<f64> {
                traced.iter().flat_map(|p| f(p).iter().copied()).collect()
            };
            let (sort_ns, drains) = traced
                .iter()
                .fold((0, 0), |(s, d), p| (s + p.sort_ns, d + p.drains));

            report.set("hilbert.key_ns", median(&of(&tb, &|b| b.hilbert_ns)));
            report.set(
                "storage.wal_fsync_us",
                median(&flat_list(&|p| &p.wal_sync_us)),
            );
            report.set(
                "storage.wal_syncs_per_batch",
                first.wal_syncs as f64 / PASS_BATCHES as f64,
            );
            report.set(
                "storage.wal_bytes_per_entry",
                first.wal_bytes as f64 / entries,
            );
            report.set(
                "extsort.drain_sort_s",
                sort_ns as f64 / 1e9 / drains.max(1) as f64,
            );
            report.set("lsm.compactions", first.compactions as f64);
            report.set(
                "lsm.compaction_batch_us",
                median(&of(&compaction, &|b| b.insert_us)),
            );
            report.set("lsm.plain_batch_us", median(&of(&plain, &|b| b.insert_us)));
            report.set(
                "lsm.segment_bytes_per_entry",
                first.seg_bytes as f64 / entries,
            );
            report.set(
                "lsm.segment_sync_us",
                median(&flat_list(&|p| &p.seg_sync_us)),
            );
            let mean = |v: Vec<f64>| v.iter().sum::<f64>() / v.len() as f64;
            report.set(
                "lsm.levels_per_read",
                mean(of(&first_batches, &|b| b.levels as f64)),
            );
            report.set(
                "lsm.memtable_items_per_read",
                mean(of(&first_batches, &|b| b.memtable_items as f64)),
            );
            report.set(
                "obs.trace_overhead_ingest",
                median(&of(&tb, &|b| b.insert_us))
                    / median(&of(&batches(Some(false)), &|b| b.insert_us)),
            );
            let ops = tb.len() as u64;
            self.rollup
                .report(report, crate::metrics::INGEST, "ingest batch", ops);
        } else {
            let all = batches(None);
            let insert_us: Vec<f64> = all.iter().map(|b| b.insert_us).collect();
            let read_us: Vec<f64> = all.iter().map(|b| b.read_us).collect();
            let per_round: Vec<f64> = insert_us
                .chunks(ROUND_BATCHES)
                .map(|c| (c.len() * BATCH) as f64 / (c.iter().sum::<f64>() / 1e6))
                .collect();
            report.set("insert_entries_per_s", median(&per_round));
            report.set("insert_batch_p99_us", percentile(&insert_us, 0.99));
            report.set("lsm_query_p50_us", percentile(&read_us, 0.5));
            report.set("lsm_query_p99_us", percentile(&read_us, 0.99));
            let last = passes.last().expect("a pass");
            report.set(
                "lsm_bytes_per_entry",
                last.dir_bytes as f64 / (BASE + STREAM) as f64,
            );
        }
        println!(
            "# ingest: {} passes of {PASS_BATCHES} batches of {BATCH}, {checked} reads checked by brute force",
            passes.len()
        );
    }
}

fn run_pass(
    cfg: &Config,
    traced: bool,
    dir: &Path,
    items: &[(Rect2, u64)],
    windows: &mut Windows,
    rollup: &mut Rollup,
) -> Result<Pass, String> {
    let (tree, wrappers) = open_lsm(dir, cfg.traced)?;
    let mut pass = Pass {
        traced,
        batches: Vec::with_capacity(PASS_BATCHES),
        reads: Vec::new(),
        whole_ok: [false; 2],
        dir_bytes: 0,
        compactions: 0,
        wal_syncs: 0,
        wal_sync_us: Vec::new(),
        wal_bytes: 0,
        seg_bytes: 0,
        seg_sync_us: Vec::new(),
        sort_ns: 0,
        drains: 0,
    };
    let before = wrappers.as_ref().map(|w| {
        w.log.syncs.take_each();
        w.segs.syncs.take_each();
        (w.log.syncs.get(), w.log.appends.get(), w.segs.puts.get())
    });
    let sort_before = registry_hist("external.sort_ns");
    let compactions_before = tree.stats().compactions;
    if traced {
        Rollup::set_enabled(true);
    }
    let index: &dyn SpatialIndex<2> = &tree;
    for (b, batch) in items[BASE..].chunks(BATCH).enumerate() {
        // The memtable's key computation, repeated outside the batch
        // with no span, so the rollup holds only time the program spends.
        let hilbert_ns = if traced {
            let (keys, d) = timed(|| {
                batch
                    .iter()
                    .map(|(r, _)| {
                        hilbert::hilbert_index_f64(&[r.center_coord(0), r.center_coord(1)])
                    })
                    .fold(0u128, |acc, k| acc ^ k)
            });
            std::hint::black_box(keys);
            d.as_nanos() as f64 / batch.len() as f64
        } else {
            0.0
        };
        let c0 = tree.stats().compactions;
        let s = obs::trace::span("bench.insert_batch");
        let t = Instant::now();
        let res = tree.insert_batch(batch);
        let insert_us = micros(t.elapsed());
        drop(s);
        if let Err(e) = &res {
            eprintln!("insert_batch {b}: {e}");
        }
        let acked = BASE + (b + 1) * BATCH;
        let st = tree.stats();
        // The first read after the batch is the timed one: on one thread
        // it pays for waking from the batch's fsync, as a caller that
        // writes and then reads does.
        let w = windows.next_window();
        let s = obs::trace::span("bench.lsm_read");
        let t = Instant::now();
        let hits = index.query(&w);
        let read_us = micros(t.elapsed());
        drop(s);
        let read_ok = match hits {
            Ok(h) => {
                if b % ORACLE_EVERY == 0 {
                    pass.reads.push((w, acked, h.len() as u64));
                }
                true
            }
            Err(e) => {
                eprintln!("read after batch {b}: {e}");
                false
            }
        };
        pass.batches.push(Batch {
            insert_us,
            read_us,
            inserted: res.is_ok(),
            read_ok,
            compacted: st.compactions > c0,
            levels: st.levels,
            memtable_items: st.memtable_items,
            hilbert_ns,
        });
        if traced && b % ROUND_BATCHES == ROUND_BATCHES - 1 {
            rollup.drain();
        }
    }
    if traced {
        Rollup::set_enabled(false);
        rollup.drain();
        let (count, sum) = registry_hist("external.sort_ns");
        pass.drains = count - sort_before.0;
        pass.sort_ns = sum - sort_before.1;
    }
    pass.compactions = tree.stats().compactions - compactions_before;
    if let (Some(w), Some((syncs, appends, puts))) = (&wrappers, before) {
        pass.wal_syncs = w.log.syncs.get().since(syncs).calls;
        pass.wal_bytes = w.log.appends.get().since(appends).units;
        pass.seg_bytes = w.segs.puts.get().since(puts).units;
        pass.wal_sync_us = w
            .log
            .syncs
            .take_each()
            .iter()
            .map(|&ns| ns as f64 / 1e3)
            .collect();
        pass.seg_sync_us = w
            .segs
            .syncs
            .take_each()
            .iter()
            .map(|&ns| ns as f64 / 1e3)
            .collect();
    }
    pass.dir_bytes = disk_bytes(dir);

    // Every acknowledged id exactly once, before and after a reopen.
    let total = BASE + STREAM;
    pass.whole_ok[0] = whole_space_ok(&tree, total);
    drop(tree);
    let (reopened, _) = open_lsm(dir, false)?;
    pass.whole_ok[1] = whole_space_ok(&reopened, total);
    Ok(pass)
}

/// Count and sum of a registry histogram.
fn registry_hist(name: &str) -> (u64, u64) {
    match obs::snapshot().get(name) {
        Some(obs::MetricValue::Histogram(h)) => (h.count(), h.sum()),
        _ => (0, 0),
    }
}

/// A whole-space query returns ids 0..n, each exactly once.
fn whole_space_ok(tree: &lsm::LsmTree<2>, n: usize) -> bool {
    let everything = Rect2::new([-1.0, -1.0], [2.0, 2.0]);
    let mut seen = vec![false; n];
    let mut count = 0;
    let res = tree.for_each_intersecting(&everything, &mut |_, id| {
        count += 1;
        if let Some(s) = seen.get_mut(id as usize) {
            *s = true;
        }
    });
    let ok = res.is_ok() && count == n && seen.iter().all(|&s| s);
    if !ok {
        eprintln!("whole-space query: {count} hits for {n} entries ({res:?})");
    }
    ok
}
