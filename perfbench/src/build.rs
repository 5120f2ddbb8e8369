//! The `build` phase: each round makes 10⁶ rectangles of the workload's
//! family into a durable index three ways — the in-memory STR pack plus
//! `persist` that `rtree-cli build` runs, the out-of-core pack at one
//! thread with a sort budget of a tenth of the data, and the flat image
//! that `rtree-cli flatten` writes.

use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use geom::Rect2;
use rtree::{Entry, NodeCapacity, RTree, DEFAULT_TREE};
use storage::{BufferPool, Disk, FileDisk, MemDisk, DEFAULT_PAGE_SIZE};
use str_core::{ExternalPackOptions, PackingOrder, StrPacker};

use crate::common::{file_hash, median, registry_total, secs, sync_tree, timed, Context, Family};
use crate::tracing::Rollup;
use crate::wrap::TimedDisk;
use crate::{Config, Report};

const N: usize = 1_000_000;
const CAP: usize = 100;
/// Frames of the build-time buffer pool, as `rtree-cli build` uses.
const BUILD_POOL: usize = 1024;

/// The three operations of a round.
const STEPS: usize = 3;
const INMEM: usize = 0;
const EXTERNAL: usize = 1;
const FLATTEN: usize = 2;

/// What one round measured. Layer fields stay zero in untraced runs.
#[derive(Default)]
struct Round {
    ok: [bool; STEPS],
    time: [Duration; STEPS],
    /// Hashes of the three output files, to compare rounds.
    hashes: [u64; STEPS],
    leaf_order: Duration,
    bulk_load: Duration,
    sort_ns: u64,
    scratch_pages: u64,
    pages_written: u64,
    disk_write_ns: u64,
    lower: Duration,
    write: Duration,
}

struct Paths {
    dir: PathBuf,
    inmem: PathBuf,
    ext: PathBuf,
    flat: PathBuf,
}

/// The phase's input and the rounds it has run.
pub struct Build {
    items: Vec<(Rect2, u64)>,
    paths: Paths,
    cap: NodeCapacity,
    rounds: Vec<Round>,
    rollup: Rollup,
    /// Time of the generator call.
    pub gen_s: f64,
}

impl Build {
    /// Generate the seeded input; the index files are made by each round.
    pub fn setup(cfg: &Config, family: Family) -> Result<Self, String> {
        let dir = cfg.dir.join("build");
        std::fs::create_dir_all(&dir).ctx("create build dir")?;
        let (items, d) = timed(|| family.generate(N, cfg.seed));
        Ok(Self {
            items,
            paths: Paths {
                dir: dir.clone(),
                inmem: dir.join("inmem.idx"),
                ext: dir.join("ext.idx"),
                flat: dir.join(format!("ext.idx.{DEFAULT_TREE}.flat")),
            },
            cap: NodeCapacity::new(CAP).expect("capacity 100 is valid"),
            rounds: Vec::new(),
            rollup: Rollup::default(),
            gen_s: secs(d),
        })
    }

    pub fn rollup(&self) -> &Rollup {
        &self.rollup
    }

    /// One round: the three builds from empty files.
    pub fn round(&mut self, cfg: &Config) {
        let paths = &self.paths;
        let mut r = Round::default();
        // Each round writes fresh files, as a build to a new path does;
        // dropping the previous round's files stays out of the timings.
        for p in [&paths.inmem, &paths.ext, &paths.flat] {
            let _ = std::fs::remove_file(p);
        }
        if let Err(e) = sync_tree(&paths.dir) {
            eprintln!("sync {}: {e}", paths.dir.display());
        }
        if cfg.traced {
            Rollup::set_enabled(true);
        }
        step_inmem(cfg, &self.items, self.cap, &paths.inmem, &mut r);
        step_external(cfg, &self.items, self.cap, &paths.ext, &mut r);
        step_flatten(&paths.ext, &paths.flat, &mut r);
        if cfg.traced {
            Rollup::set_enabled(false);
            self.rollup.drain();
        }
        for (i, p) in [&paths.inmem, &paths.ext, &paths.flat].iter().enumerate() {
            r.hashes[i] = file_hash(p).unwrap_or(0);
        }
        self.rounds.push(r);
    }

    /// Check the outputs, count the operations and set the phase's
    /// metrics.
    pub fn finish(&self, cfg: &Config, report: &mut Report) {
        let rounds = &self.rounds;
        // Checks, on the last round's files; every round must have
        // written the same bytes, so the verdict holds for each of them.
        let last = rounds.last().expect("at least one round");
        let deep = deep_checks(&self.items, &self.paths);
        for r in rounds {
            for s in 0..STEPS {
                report.op(r.ok[s] && r.hashes[s] == last.hashes[s] && deep.ok[s]);
            }
        }
        report.correct &= deep.ran;
        for e in &deep.errors {
            eprintln!("build check failed: {e}");
        }

        let per_round =
            |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
        let n = N as f64;
        if cfg.traced {
            report.set("core.str_order_s", per_round(&|r| secs(r.leaf_order)));
            report.set("rtree.bulk_load_s", per_round(&|r| secs(r.bulk_load)));
            report.set(
                "core.external_pack_s",
                per_round(&|r| secs(r.time[EXTERNAL]) - r.sort_ns as f64 / 1e9),
            );
            report.set("extsort.sort_s", per_round(&|r| r.sort_ns as f64 / 1e9));
            report.set(
                "extsort.scratch_pages_per_entry",
                last.scratch_pages as f64 / n,
            );
            report.set(
                "storage.pages_written_per_entry",
                last.pages_written as f64 / n,
            );
            report.set(
                "storage.disk_write_s",
                per_round(&|r| r.disk_write_ns as f64 / 1e9),
            );
            report.set("flat.lower_s", per_round(&|r| secs(r.lower)));
            report.set("flat.write_s", per_round(&|r| secs(r.write)));
            self.rollup.report(
                report,
                crate::metrics::BUILD,
                "build round",
                rounds.len() as u64,
            );
        } else {
            report.set(
                "build_entries_per_s",
                per_round(&|r| n / secs(r.time[INMEM])),
            );
            report.set(
                "external_build_entries_per_s",
                per_round(&|r| n / secs(r.time[EXTERNAL])),
            );
            report.set(
                "flatten_entries_per_s",
                per_round(&|r| n / secs(r.time[FLATTEN])),
            );
        }
        println!("# build: {} rounds of {N} entries", rounds.len());
    }
}

/// A disk, and the timing wrapper it goes through in traced runs.
type Dest = (Arc<dyn Disk>, Option<Arc<TimedDisk>>);

/// The destination disk of a build; timed in traced runs.
fn dest(cfg: &Config, path: &Path) -> Result<Dest, String> {
    let file: Arc<dyn Disk> =
        Arc::new(FileDisk::create(path, DEFAULT_PAGE_SIZE).ctx(&path.display().to_string())?);
    if cfg.traced {
        let timed = TimedDisk::new(file);
        Ok((timed.clone(), Some(timed)))
    } else {
        Ok((file, None))
    }
}

/// In-memory STR pack into a file, then `persist` — `rtree-cli build`.
fn step_inmem(cfg: &Config, items: &[(Rect2, u64)], cap: NodeCapacity, path: &Path, r: &mut Round) {
    let input = items.to_vec();
    let order = TimedOrder::default();
    let _s = obs::trace::span("bench.build_inmem");
    let t = Instant::now();
    let res = (|| -> Result<Option<Arc<TimedDisk>>, String> {
        let (disk, timed_disk) = dest(cfg, path)?;
        let pool = Arc::new(BufferPool::new(disk, BUILD_POOL));
        let _b = obs::trace::span("rtree.bulk_load");
        let (tree, load) = timed(|| str_core::pack_named(pool, DEFAULT_TREE, input, cap, &order));
        let mut tree = tree.ctx("pack")?;
        drop(_b);
        r.bulk_load = load - order.total.get();
        let _p = obs::trace::span("rtree.persist");
        tree.persist().ctx("persist")?;
        Ok(timed_disk)
    })();
    r.time[INMEM] = t.elapsed();
    r.leaf_order = order.leaf.get();
    match res {
        Ok(timed_disk) => {
            r.ok[INMEM] = true;
            if let Some(d) = timed_disk {
                r.pages_written = d.stats().writes();
                r.disk_write_ns += d.writes.get().ns;
            }
        }
        Err(e) => eprintln!("in-memory build failed: {e}"),
    }
}

/// STR ordering with each level's call timed and wrapped in a
/// `core.str_order` span; `pack_named` calls it once per level.
#[derive(Default)]
struct TimedOrder {
    leaf: Cell<Duration>,
    total: Cell<Duration>,
}

impl PackingOrder<2> for TimedOrder {
    fn name(&self) -> &'static str {
        "STR"
    }

    fn order_level(&self, entries: &mut Vec<Entry<2>>, level: u32, cap: NodeCapacity) {
        let _o = obs::trace::span("core.str_order");
        let (_, d) = timed(|| StrPacker::new().order_level(entries, level, cap));
        self.total.set(self.total.get() + d);
        if level == 0 {
            self.leaf.set(d);
        }
    }
}

/// Out-of-core STR pack (1 thread, budget N/10) plus `persist` —
/// `rtree-cli build --external`.
fn step_external(
    cfg: &Config,
    items: &[(Rect2, u64)],
    cap: NodeCapacity,
    path: &Path,
    r: &mut Round,
) {
    let input = items.to_vec();
    let scratch = Arc::new(MemDisk::default_size());
    let sort_before = if cfg.traced {
        registry_total("external.sort_ns")
    } else {
        0
    };
    let _s = obs::trace::span("bench.build_external");
    let t = Instant::now();
    let res = (|| -> Result<Option<Arc<TimedDisk>>, String> {
        let (disk, timed_disk) = dest(cfg, path)?;
        let pool = Arc::new(BufferPool::new(disk, BUILD_POOL));
        let opts = ExternalPackOptions::new(N / 10).threads(1);
        let mut tree = str_core::pack_str_external_opts(
            pool,
            DEFAULT_TREE,
            scratch.clone() as Arc<dyn Disk>,
            input,
            cap,
            opts,
        )
        .ctx("external pack")?;
        tree.persist().ctx("persist")?;
        Ok(timed_disk)
    })();
    r.time[EXTERNAL] = t.elapsed();
    match res {
        Ok(timed_disk) => {
            r.ok[EXTERNAL] = true;
            if let Some(d) = timed_disk {
                r.disk_write_ns += d.writes.get().ns;
                r.sort_ns = registry_total("external.sort_ns") - sort_before;
                r.scratch_pages = scratch.stats().reads() + scratch.stats().writes();
            }
        }
        Err(e) => eprintln!("external build failed: {e}"),
    }
}

/// `FlatTree::write_file` of the out-of-core tree — `rtree-cli flatten` —
/// made as its two calls, lowering and the checked write, to time each.
fn step_flatten(index: &Path, out: &Path, r: &mut Round) {
    let res = (|| -> Result<(), String> {
        let tree = open_tree(index)?;
        let _s = obs::trace::span("bench.flatten");
        let t = Instant::now();
        let _l = obs::trace::span("flat.lower");
        let (bytes, lower) = timed(|| flat::flatten_to_bytes(&tree));
        drop(_l);
        let _w = obs::trace::span("flat.write");
        let (res, write) =
            timed(|| flat::FlatTree::<2>::persist(bytes.ctx("lower")?, out, false).ctx("write"));
        drop(_w);
        res?;
        r.time[FLATTEN] = t.elapsed();
        r.lower = lower;
        r.write = write;
        Ok(())
    })();
    match res {
        Ok(()) => r.ok[FLATTEN] = true,
        Err(e) => eprintln!("flatten failed: {e}"),
    }
}

/// Open the default tree of an index file behind a build-sized pool.
fn open_tree(path: &Path) -> Result<RTree<2>, String> {
    let disk = Arc::new(FileDisk::open(path, DEFAULT_PAGE_SIZE).ctx(&path.display().to_string())?);
    let pool = Arc::new(BufferPool::new(disk, BUILD_POOL));
    RTree::open_named(pool, DEFAULT_TREE).ctx("open tree")
}

struct Deep {
    /// Per step: its output passed every check.
    ok: [bool; STEPS],
    /// Every check ran to the end.
    ran: bool,
    errors: Vec<String>,
}

/// Properties the method guarantees, checked on the last round's files:
/// the out-of-core tree equals the in-memory one level by level, level
/// sizes are Σ⌈N/100ˡ⌉ with every leaf but the last full, `validate` and
/// `check` are clean, and the tree and flat image hold ids 0..N once.
fn deep_checks(items: &[(Rect2, u64)], paths: &Paths) -> Deep {
    let mut d = Deep {
        ok: [true; STEPS],
        ran: false,
        errors: Vec::new(),
    };
    fn fail(d: &mut Deep, step: usize, msg: String) {
        d.ok[step] = false;
        d.errors.push(msg);
    }
    let res = (|| -> Result<(), String> {
        let inmem = open_tree(&paths.inmem)?;
        let ext = open_tree(&paths.ext)?;
        for (step, tree) in [(INMEM, &inmem), (EXTERNAL, &ext)] {
            if let Err(e) = tree.validate(false) {
                fail(&mut d, step, format!("validate: {e}"));
            }
            let report = tree.check();
            if !report.is_clean() {
                fail(&mut d, step, format!("check: {report:?}"));
            }
        }

        let a = inmem.level_order().ctx("level order")?;
        let b = ext.level_order().ctx("level order")?;
        if let Some(msg) = levels_differ(&a, &b) {
            fail(&mut d, EXTERNAL, format!("out-of-core tree differs: {msg}"));
        }
        let mut want = Vec::new();
        let mut n = items.len();
        loop {
            n = n.div_ceil(CAP);
            want.push(n);
            if n == 1 {
                break;
            }
        }
        let got: Vec<usize> = a.iter().rev().map(|l| l.nodes.len()).collect();
        if got != want {
            fail(&mut d, INMEM, format!("level sizes {got:?}, want {want:?}"));
        }
        let leaves = &a.last().expect("a leaf level").nodes;
        if leaves[..leaves.len() - 1].iter().any(|n| n.len() != CAP) {
            fail(
                &mut d,
                INMEM,
                "a leaf other than the last is not full".into(),
            );
        }

        let ids = inmem.all_entries().ctx("all entries")?;
        if let Some(msg) = ids_differ(items.len(), ids.iter().map(|&(_, id)| id)) {
            fail(&mut d, INMEM, format!("tree ids: {msg}"));
        }
        let flat = flat::FlatTree::<2>::open(&paths.flat).ctx("open flat")?;
        if let Some(msg) = ids_differ(items.len(), flat.items().map(|(_, id)| id)) {
            fail(&mut d, FLATTEN, format!("flat ids: {msg}"));
        }
        Ok(())
    })();
    match res {
        Ok(()) => d.ran = true,
        Err(e) => {
            d.ok = [false; STEPS];
            d.errors.push(e);
        }
    }
    d
}

fn levels_differ(a: &[rtree::LevelNodes<2>], b: &[rtree::LevelNodes<2>]) -> Option<String> {
    if a.len() != b.len() {
        return Some(format!("{} levels vs {}", a.len(), b.len()));
    }
    for (la, lb) in a.iter().zip(b) {
        if la.nodes.len() != lb.nodes.len() {
            return Some(format!("level {}: node counts differ", la.level));
        }
        for (i, (na, nb)) in la.nodes.iter().zip(&lb.nodes).enumerate() {
            let same = na.entries.len() == nb.entries.len()
                && na.entries.iter().zip(&nb.entries).all(|(ea, eb)| {
                    // Child page numbers may differ; MBRs, and ids at the
                    // leaves, may not.
                    ea.rect == eb.rect && (la.level > 0 || ea.payload == eb.payload)
                });
            if !same {
                return Some(format!("level {} node {i}", la.level));
            }
        }
    }
    None
}

/// `None` if `ids` is exactly 0..n, each once.
fn ids_differ(n: usize, ids: impl Iterator<Item = u64>) -> Option<String> {
    let mut seen = vec![false; n];
    let mut count = 0usize;
    for id in ids {
        count += 1;
        match seen.get_mut(id as usize) {
            Some(s) if !*s => *s = true,
            Some(_) => return Some(format!("id {id} twice")),
            None => return Some(format!("id {id} out of range")),
        }
    }
    (count != n).then(|| format!("{count} ids, want {n}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_check_catches_gaps_and_repeats() {
        assert_eq!(ids_differ(3, [2, 0, 1].into_iter()), None);
        assert!(ids_differ(3, [0, 1].into_iter()).is_some());
        assert!(ids_differ(3, [0, 1, 1].into_iter()).is_some());
        assert!(ids_differ(3, [0, 1, 3].into_iter()).is_some());
    }
}
