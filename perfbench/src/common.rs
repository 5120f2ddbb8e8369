//! Helpers every workload shares: the seeded generator, window
//! distribution, percentiles, the brute-force oracle and file sizes.

use std::path::Path;
use std::time::{Duration, Instant};

use geom::Rect2;

/// Seed of the fixed maps the `query` and `ingest` phases serve. Like
/// the paper's single TIGER and CIF files, each workload serves one map
/// of its family; `--seed` draws the window stream and the arrival
/// order. With a map per seed, the p99s followed each map's densest core
/// (quartile spread 0.16–0.19 of the median over seeds 1–10), which
/// would hide real changes.
pub const MAP_SEED: u64 = 1;

/// Density of the uniform family's squares (paper §4.1).
const DENSITY: f64 = 5.0;

/// A data family of the paper (§4), one per workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Uniform squares at density 5.
    Uniform,
    /// TIGER-like street segments.
    Tiger,
    /// VLSI-like chip shapes.
    Vlsi,
}

impl Family {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "uniform" => Some(Self::Uniform),
            "tiger" => Some(Self::Tiger),
            "vlsi" => Some(Self::Vlsi),
            _ => None,
        }
    }

    /// `n` rectangles of the family in the unit square, ids 0..n.
    pub fn generate(self, n: usize, seed: u64) -> Vec<(Rect2, u64)> {
        match self {
            Self::Uniform => datagen::synthetic::synthetic_squares(n, DENSITY, seed).items(),
            Self::Tiger => datagen::tiger::tiger_like(n, seed).items(),
            Self::Vlsi => datagen::vlsi::vlsi_like(n, seed).items(),
        }
    }
}

/// splitmix64: a tiny seeded generator for windows and shuffles, so the
/// benchmark's own streams do not depend on the library's RNG.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

/// The splitmix64 finaliser, also used to hash ids.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The stream of seeded square windows. A window's area is log-uniform
/// between 10⁻⁶ and 10⁻² of the unit square, from about one hit up to
/// the paper's 1%-of-space window, and its position is uniform.
///
/// The (log-area, x, y) triples follow the R₃ low-discrepancy sequence
/// (additive recurrence by the powers of 1/φ₃, φ₃⁴ = φ₃ + 1) from a
/// seeded start: each window is uniform over that cube, as a random one
/// is, but a stream of thousands covers it evenly. With independent
/// draws, the few large windows that land on a map's dense core made
/// the p99s and `disk_reads_per_query` depend on the seed.
pub struct Windows {
    u: [f64; 3],
}

/// 1/φ₃, 1/φ₃², 1/φ₃³ for φ₃ = 1.2207440846057596.
const R3: [f64; 3] = [
    0.819_172_513_396_164_4,
    0.671_043_606_703_789_4,
    0.549_700_477_901_970_4,
];

impl Windows {
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        Self {
            u: [rng.next_f64(), rng.next_f64(), rng.next_f64()],
        }
    }

    pub fn next_window(&mut self) -> Rect2 {
        for (u, a) in self.u.iter_mut().zip(R3) {
            *u = (*u + a).fract();
        }
        let area = 10f64.powf(-6.0 + 4.0 * self.u[0]);
        let side = area.sqrt();
        let x = self.u[1] * (1.0 - side);
        let y = self.u[2] * (1.0 - side);
        Rect2::new([x, y], [x + side, y + side])
    }
}

/// Order-independent digest of a result set: its size and the wrapping
/// sum of the mixed ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Digest {
    pub count: u64,
    pub sum: u64,
}

impl Digest {
    pub fn of(hits: &[(Rect2, u64)]) -> Self {
        let mut d = Digest::default();
        for &(_, id) in hits {
            d.add(id);
        }
        d
    }

    pub fn add(&mut self, id: u64) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(mix(id));
    }
}

/// Brute-force answer to a window query over `items`, written with plain
/// `f64` comparisons (closed boundaries) and no `geom` predicate.
pub fn brute_force(items: &[(Rect2, u64)], w: &Rect2) -> Digest {
    let (wx0, wy0, wx1, wy1) = (w.lo(0), w.lo(1), w.hi(0), w.hi(1));
    let mut d = Digest::default();
    for (r, id) in items {
        if r.lo(0) <= wx1 && wx0 <= r.hi(0) && r.lo(1) <= wy1 && wy0 <= r.hi(1) {
            d.add(*id);
        }
    }
    d
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median as Python's `statistics.median` computes it.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (the default "exclusive" method); needs two samples.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    assert!(samples.len() >= 2, "quartiles need two samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len() as i64;
    let (n, m) = (4i64, ld + 1);
    let q = |i: i64| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = i * m - j * n;
        (v[j as usize - 1] * (n - delta) as f64 + v[j as usize] * delta as f64) / n as f64
    };
    (q(1), q(3))
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Run `f`, returning its result and how long it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed())
}

/// Total size in bytes of a file, or of every file below a directory.
pub fn disk_bytes(path: &Path) -> u64 {
    let Ok(meta) = std::fs::metadata(path) else {
        return 0;
    };
    if meta.is_file() {
        return meta.len();
    }
    std::fs::read_dir(path)
        .map(|rd| rd.flatten().map(|e| disk_bytes(&e.path())).sum())
        .unwrap_or(0)
}

/// Copy a directory tree (regular files only).
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let dest = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &dest)?;
        } else {
            std::fs::copy(entry.path(), dest)?;
        }
    }
    Ok(())
}

/// `sync_all` every file and directory below `path`, then `path` itself.
/// Called outside the timings after the benchmark deletes or copies
/// files, so that the journal commit of that churn (with the discards of
/// the freed blocks, on a filesystem mounted with `discard`) and the
/// writeback of the copies do not land in a later timed fsync.
pub fn sync_tree(path: &Path) -> std::io::Result<()> {
    if std::fs::metadata(path)?.is_dir() {
        for entry in std::fs::read_dir(path)? {
            sync_tree(&entry?.path())?;
        }
    }
    std::fs::File::open(path)?.sync_all()
}

/// Word-at-a-time hash of a file's bytes, to compare one round's output
/// with another's.
pub fn file_hash(path: &Path) -> std::io::Result<u64> {
    let bytes = std::fs::read(path)?;
    let mut h = bytes.len() as u64;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let w = u64::from_le_bytes(c.try_into().expect("chunk of 8"));
        h = (h ^ w).wrapping_mul(0x100_0000_01B3).rotate_left(29);
    }
    for &b in chunks.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3);
    }
    Ok(h)
}

/// Attach context to any displayable error.
pub trait Context<T> {
    fn ctx(self, what: &str) -> Result<T, String>;
}

impl<T, E: std::fmt::Display> Context<T> for Result<T, E> {
    fn ctx(self, what: &str) -> Result<T, String> {
        self.map_err(|e| format!("{what}: {e}"))
    }
}

/// Sum of a registry histogram, or a counter's value; 0 if absent.
pub fn registry_total(name: &str) -> u64 {
    match obs::snapshot().get(name) {
        Some(obs::MetricValue::Histogram(h)) => h.sum(),
        Some(obs::MetricValue::Counter(c)) => *c,
        _ => 0,
    }
}

/// Peak resident memory of this process in MiB (VmHWM).
pub fn peak_rss_mb() -> Result<f64, String> {
    obs::rss::peak_bytes()
        .map(|b| b as f64 / (1u64 << 20) as f64)
        .ok_or_else(|| "VmHWM unavailable".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_and_quartiles_on_a_known_vector() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
    }

    #[test]
    fn brute_force_on_a_hand_built_case() {
        let items = vec![
            (Rect2::new([0.0, 0.0], [0.1, 0.1]), 1),
            (Rect2::new([0.2, 0.2], [0.3, 0.3]), 2),
            (Rect2::new([0.5, 0.5], [0.5, 0.5]), 3), // a point
            (Rect2::new([0.9, 0.0], [1.0, 0.05]), 4),
        ];
        // Touching boundaries count as intersecting.
        let w = Rect2::new([0.1, 0.1], [0.5, 0.5]);
        let d = brute_force(&items, &w);
        let mut want = Digest::default();
        for id in [1, 2, 3] {
            want.add(id);
        }
        assert_eq!(d, want);
        assert_eq!(
            brute_force(&items, &Rect2::new([0.6, 0.6], [0.8, 0.8])).count,
            0
        );
        assert_eq!(brute_force(&items, &Rect2::unit()).count, 4);
        // Digest is order-independent.
        let mut rev = items.clone();
        rev.reverse();
        assert_eq!(Digest::of(&rev), Digest::of(&items));
    }

    #[test]
    fn r3_constants_are_powers_of_the_inverse_plastic_root() {
        let phi: f64 = 1.220_744_084_605_759_6;
        assert!((phi.powi(4) - phi - 1.0).abs() < 1e-12);
        for (i, a) in R3.iter().enumerate() {
            assert!((a - phi.powi(-(i as i32 + 1))).abs() < 1e-12);
        }
    }

    #[test]
    fn windows_stay_in_the_unit_square_and_cover_the_areas_evenly() {
        let mut windows = Windows::new(7);
        let mut decades = [0usize; 4];
        for _ in 0..10_000 {
            let w = windows.next_window();
            let area = (w.hi(0) - w.lo(0)) * (w.hi(1) - w.lo(1));
            assert!(w.lo(0) >= 0.0 && w.hi(0) <= 1.0 && w.lo(1) >= 0.0 && w.hi(1) <= 1.0);
            assert!((0.99e-6..=1.01e-2).contains(&area), "area {area}");
            decades[((area.log10() + 6.0) as usize).min(3)] += 1;
        }
        // Each decade of area gets a quarter of the windows, to within a
        // few: the stream is even, not merely random.
        for d in decades {
            assert!((2_490..=2_510).contains(&d), "{decades:?}");
        }
    }
}
