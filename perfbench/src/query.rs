//! The `query` phase: 10⁶ rectangles of the workload's family on one
//! fixed map, STR-packed at the paper's node capacity of 100 into a file
//! (`rtree-cli build`) and flattened to an mmap'ed image (`rtree-cli
//! flatten`). A seeded stream of square windows, log-uniform in area from
//! 10⁻⁶ to 10⁻² of the space, runs on the paged tree behind the paper's
//! 250-page LRU buffer (cold at the first window, kept across the stream)
//! and on the flat image, alternating which backend goes first.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use geom::{Rect2, SoaRects};
use rtree::{NodeCapacity, RTree, SpatialIndex, DEFAULT_TREE};
use storage::{BufferPool, Disk, FileDisk, DEFAULT_PAGE_SIZE};
use str_core::StrPacker;

use crate::common::{
    brute_force, disk_bytes, median, micros, percentile, registry_total, secs, sync_tree, timed,
    Context, Digest, Family, Windows, MAP_SEED,
};
use crate::tracing::Rollup;
use crate::wrap::TimedDisk;
use crate::{Config, Report};

const N: usize = 1_000_000;
const CAP: usize = 100;
/// The paper's LRU buffer, in pages.
const BUFFER_PAGES: usize = 250;
const BUILD_POOL: usize = 1024;
const ROUND: usize = 500;
/// `disk_reads_per_query` and the traced counts cover the first
/// `COUNTED_ROUNDS` rounds (untraced) or traced rounds, which every run
/// completes, so they repeat exactly for a seed whatever the run length.
pub const COUNTED_ROUNDS: usize = 20;

/// The serving state a setup produces.
struct Served {
    items: Vec<(Rect2, u64)>,
    paged: RTree<2>,
    disk: Arc<FileDisk>,
    timed_disk: Option<Arc<TimedDisk>>,
    flat: flat::FlatTree<'static, 2>,
    bytes: u64,
}

type Opened = (RTree<2>, Arc<FileDisk>, Option<Arc<TimedDisk>>);

/// Open the index's default tree behind a pool of `frames`, through the
/// timing wrapper when `timed`.
fn open_paged(path: &Path, frames: usize, timed: bool) -> Result<Opened, String> {
    let file = Arc::new(FileDisk::open(path, DEFAULT_PAGE_SIZE).ctx("open index")?);
    let timed_disk = timed.then(|| TimedDisk::new(file.clone() as Arc<dyn Disk>));
    let disk: Arc<dyn Disk> = match &timed_disk {
        Some(t) => t.clone(),
        None => file.clone(),
    };
    let pool = Arc::new(BufferPool::new(disk, frames));
    let tree = RTree::open_named(pool, DEFAULT_TREE).ctx("open tree")?;
    Ok((tree, file, timed_disk))
}

/// One round of windows.
#[derive(Default)]
struct Round {
    traced: bool,
    paged_us: Vec<f64>,
    flat_us: Vec<f64>,
    /// Per paged window: time inside `Disk` reads (traced runs).
    read_us: Vec<f64>,
    /// Individual `Disk` read durations (traced runs).
    each_read_us: Vec<f64>,
    /// Paged and flat ops that errored or disagreed.
    failed_ops: u64,
    pool_hits: u64,
    pool_misses: u64,
    /// Physical reads by `IoStats`, by the wrapper and by the registry.
    io_reads: u64,
    wrapper_reads: u64,
    registry_reads: u64,
    nodes_visited: u64,
    slots_scanned: u64,
    /// Accounting agreed: reads == misses (and wrapper/registry, traced).
    accounting_ok: bool,
}

/// The served index and the rounds of windows run on it.
pub struct Query {
    served: Served,
    windows: Windows,
    rounds: Vec<Round>,
    /// One window per round with the answer both backends agreed on.
    oracle: Vec<(Rect2, Digest)>,
    rollup: Rollup,
    /// Time of the generator call.
    pub gen_s: f64,
    /// Time of `FlatTree::open`.
    pub open_s: f64,
}

impl Query {
    /// Generate the map, pack, persist and flatten it, and open both
    /// backends, the paged one behind the cold LRU buffer.
    pub fn setup(cfg: &Config, family: Family) -> Result<Self, String> {
        let dir = cfg.dir.join("query");
        std::fs::create_dir_all(&dir).ctx("create query dir")?;
        let (items, gen) = timed(|| family.generate(N, MAP_SEED));
        let index = dir.join("map.idx");
        let flat_path = dir.join(format!("map.idx.{DEFAULT_TREE}.flat"));
        {
            let disk = Arc::new(FileDisk::create(&index, DEFAULT_PAGE_SIZE).ctx("create index")?);
            let pool = Arc::new(BufferPool::new(disk, BUILD_POOL));
            let cap = NodeCapacity::new(CAP).expect("capacity 100 is valid");
            let mut tree =
                str_core::pack_named(pool, DEFAULT_TREE, items.clone(), cap, &StrPacker::new())
                    .ctx("pack")?;
            tree.persist().ctx("persist")?;
        }
        {
            let tree = open_paged(&index, BUILD_POOL, false)?.0;
            flat::FlatTree::<2>::write_file(&tree, &flat_path).ctx("flatten")?;
        }
        // `write_file` does not fsync; without this, the image's
        // writeback would fall into the timed phase.
        sync_tree(&dir).ctx("sync query dir")?;
        let (paged, disk, timed_disk) = open_paged(&index, BUFFER_PAGES, cfg.traced)?;
        let (flat, open) = timed(|| flat::FlatTree::<2>::open(&flat_path));
        let flat = flat.ctx("open flat")?;
        let bytes = disk_bytes(&index) + disk_bytes(&flat_path);
        Ok(Self {
            served: Served {
                items,
                paged,
                disk,
                timed_disk,
                flat,
                bytes,
            },
            windows: Windows::new(cfg.seed ^ 0x7175_6572_795f_7731),
            rounds: Vec::new(),
            oracle: Vec::new(),
            rollup: Rollup::default(),
            gen_s: secs(gen),
            open_s: secs(open),
        })
    }

    pub fn rollup(&self) -> &Rollup {
        &self.rollup
    }

    /// Size on disk of the paged file plus the flat image, per entry.
    pub fn bytes_per_entry(&self) -> f64 {
        self.served.bytes as f64 / N as f64
    }

    /// One round of `ROUND` windows, each on both backends.
    pub fn round(&mut self, cfg: &Config) {
        let served = &self.served;
        let pool = served.paged.pool().clone();
        let paged: &dyn SpatialIndex<2> = &served.paged;
        let flat: &dyn SpatialIndex<2> = &served.flat;
        let n = self.rounds.len();
        // Traced runs alternate traced and untraced rounds, for the
        // tracing-overhead ratio.
        let traced = cfg.traced && n.is_multiple_of(2);
        let mut r = Round {
            traced,
            ..Round::default()
        };
        let pool_before = pool.stats();
        let io_before = served.disk.stats().reads();
        let wrap_before = served.timed_disk.as_ref().map(|t| t.reads.get());
        if let Some(t) = &served.timed_disk {
            t.reads.take_each();
        }
        let (reg_reads, reg_nodes, reg_slots) = if traced {
            Rollup::set_enabled(true);
            (
                registry_total("disk.reads"),
                registry_total("rtree.query.nodes_visited"),
                registry_total("flat.query.slots_scanned"),
            )
        } else {
            (0, 0, 0)
        };
        for i in 0..ROUND {
            let k = n * ROUND + i;
            let w = self.windows.next_window();
            let paged_first = k.is_multiple_of(2);
            let mut results: [(Result<Digest, String>, f64); 2] =
                [(Ok(Digest::default()), 0.0), (Ok(Digest::default()), 0.0)];
            let mut read_ns = 0;
            for pass in 0..2 {
                let is_paged = (pass == 0) == paged_first;
                let reads_before = served.timed_disk.as_ref().map_or(0, |t| t.reads.get().ns);
                let _s = obs::trace::span(if is_paged {
                    "bench.paged_window"
                } else {
                    "bench.flat_window"
                });
                let backend = if is_paged { paged } else { flat };
                let t = Instant::now();
                let hits = backend.query(&w);
                let us = micros(t.elapsed());
                drop(_s);
                let slot = usize::from(!is_paged);
                results[slot] = (hits.map(|h| Digest::of(&h)).map_err(|e| e.to_string()), us);
                if is_paged {
                    read_ns =
                        served.timed_disk.as_ref().map_or(0, |t| t.reads.get().ns) - reads_before;
                }
            }
            let [(p, p_us), (f, f_us)] = results;
            r.paged_us.push(p_us);
            r.flat_us.push(f_us);
            if traced {
                r.read_us.push(read_ns as f64 / 1e3);
            }
            match (&p, &f) {
                (Ok(pd), Ok(fd)) if pd == fd => {
                    // One window per round, at a position that moves from
                    // round to round, is kept for the brute-force check.
                    if i == (n * 37) % ROUND {
                        self.oracle.push((w, *pd));
                    }
                }
                _ => {
                    eprintln!("window {k}: paged {p:?} vs flat {f:?}");
                    r.failed_ops += 2;
                }
            }
        }
        if traced {
            Rollup::set_enabled(false);
            r.registry_reads = registry_total("disk.reads") - reg_reads;
            r.nodes_visited = registry_total("rtree.query.nodes_visited") - reg_nodes;
            r.slots_scanned = registry_total("flat.query.slots_scanned") - reg_slots;
            self.rollup.drain();
        }
        let io = pool.stats().since(&pool_before);
        r.pool_hits = io.hits;
        r.pool_misses = io.misses;
        r.io_reads = served.disk.stats().reads() - io_before;
        r.accounting_ok = r.io_reads == r.pool_misses;
        if let (Some(t), Some(before)) = (&served.timed_disk, wrap_before) {
            r.wrapper_reads = t.reads.get().since(before).calls;
            r.each_read_us = t
                .reads
                .take_each()
                .iter()
                .map(|&ns| ns as f64 / 1e3)
                .collect();
            if traced {
                r.accounting_ok &=
                    r.wrapper_reads == r.pool_misses && r.registry_reads == r.pool_misses;
            }
        }
        if !r.accounting_ok {
            eprintln!(
                "round {n}: {} disk reads, {} pool misses, wrapper {}, registry {}",
                r.io_reads, r.pool_misses, r.wrapper_reads, r.registry_reads
            );
        }
        self.rounds.push(r);
    }

    /// Check a sample of windows by brute force, count the operations and
    /// set the phase's metrics.
    pub fn finish(&self, cfg: &Config, report: &mut Report) {
        let rounds = &self.rounds;
        let items = &self.served.items;
        let mut oracle_failed = 0u64;
        for (w, got) in &self.oracle {
            let want = brute_force(items, w);
            if want != *got {
                eprintln!("window {w:?}: index gave {got:?}, brute force {want:?}");
                oracle_failed += 1;
            }
        }
        for r in rounds {
            for _ in 0..2 * ROUND {
                report.op(true);
            }
            report.op(r.accounting_ok);
            report.failed += r.failed_ops;
        }
        // A window both backends agreed on but the oracle refutes is two
        // failed operations.
        report.failed += 2 * oracle_failed;
        report.correct &= !self.oracle.is_empty();

        let all = |f: &dyn Fn(&Round) -> &Vec<f64>, traced: Option<bool>| -> Vec<f64> {
            rounds
                .iter()
                .filter(|r| traced.is_none_or(|t| r.traced == t))
                .flat_map(|r| f(r).iter().copied())
                .collect()
        };
        if cfg.traced {
            let traced_rounds: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
            let counted = &traced_rounds[..COUNTED_ROUNDS];
            let windows = (COUNTED_ROUNDS * ROUND) as f64;
            let sum = |f: &dyn Fn(&Round) -> u64| counted.iter().map(|r| f(r)).sum::<u64>() as f64;
            let paged_t = all(&|r| &r.paged_us, Some(true));
            let read_t = all(&|r| &r.read_us, Some(true));
            let self_us: Vec<f64> = paged_t.iter().zip(&read_t).map(|(p, r)| p - r).collect();
            let flat_t = all(&|r| &r.flat_us, Some(true));
            let slots_t: u64 = traced_rounds.iter().map(|r| r.slots_scanned).sum();

            report.set("geom.soa_ns_per_rect", soa_ns_per_rect(items, cfg.seed));
            report.set(
                "rtree.nodes_visited_per_query",
                sum(&|r| r.nodes_visited) / windows,
            );
            report.set("rtree.query_self_us", median(&self_us));
            let (hits, misses) = (sum(&|r| r.pool_hits), sum(&|r| r.pool_misses));
            report.set("storage.buffer_hit_ratio", hits / (hits + misses));
            report.set(
                "storage.disk_read_us",
                median(&all(&|r| &r.each_read_us, Some(true))),
            );
            report.set(
                "storage.disk_read_share",
                read_t.iter().sum::<f64>() / paged_t.iter().sum::<f64>(),
            );
            report.set(
                "flat.slots_scanned_per_query",
                sum(&|r| r.slots_scanned) / windows,
            );
            report.set(
                "flat.ns_per_slot",
                flat_t.iter().sum::<f64>() * 1e3 / slots_t.max(1) as f64,
            );
            report.set(
                "obs.trace_overhead_query",
                median(&paged_t) / median(&all(&|r| &r.paged_us, Some(false))),
            );
            let ops = paged_t.len() as u64;
            self.rollup
                .report(report, crate::metrics::QUERY, "query window", ops);
        } else {
            let paged_us = all(&|r| &r.paged_us, None);
            let flat_us = all(&|r| &r.flat_us, None);
            let misses: u64 = rounds[..COUNTED_ROUNDS].iter().map(|r| r.pool_misses).sum();
            report.set("paged_query_p50_us", percentile(&paged_us, 0.5));
            report.set("paged_query_p99_us", percentile(&paged_us, 0.99));
            report.set("flat_query_p50_us", percentile(&flat_us, 0.5));
            report.set("flat_query_p99_us", percentile(&flat_us, 0.99));
            report.set(
                "disk_reads_per_query",
                misses as f64 / (COUNTED_ROUNDS * ROUND) as f64,
            );
        }
        println!(
            "# query: {} windows in {} rounds, {} checked by brute force",
            rounds.len() * ROUND,
            rounds.len(),
            self.oracle.len()
        );
    }
}

/// Median time per rectangle of `SoaRects::count_intersecting` over the
/// query data's coordinates, for a seeded sample of windows.
fn soa_ns_per_rect(items: &[(Rect2, u64)], seed: u64) -> f64 {
    let cols: [Vec<f64>; 4] = [
        items.iter().map(|(r, _)| r.lo(0)).collect(),
        items.iter().map(|(r, _)| r.lo(1)).collect(),
        items.iter().map(|(r, _)| r.hi(0)).collect(),
        items.iter().map(|(r, _)| r.hi(1)).collect(),
    ];
    let soa = SoaRects::new([&cols[0], &cols[1]], [&cols[2], &cols[3]]);
    let mut windows = Windows::new(seed ^ 0x0073_6f61);
    let mut per_rect = Vec::new();
    for _ in 0..64 {
        let w = windows.next_window();
        let (n, d) = timed(|| soa.count_intersecting(0, soa.len(), std::hint::black_box(&w)));
        std::hint::black_box(n);
        per_rect.push(d.as_nanos() as f64 / soa.len() as f64);
    }
    median(&per_rect)
}
