//! End-to-end and per-layer benchmark of the STR R-tree stack.
//!
//! ```text
//! perfbench --workload uniform|tiger|vlsi --seed N --seconds S --trace 0|1
//! perfbench steady [--runs K] [--seconds S] [--workload W ...]
//! ```
//!
//! A workload is one of the paper's data families. Each runs the
//! `build`, `query` and `ingest` phases on its family, single-threaded in
//! its own process over real files in a scratch directory below the
//! working directory, and interleaves them in cycles until the run's time
//! is up. Its last line of output is one JSON object: `correct`,
//! `attempted`, `failed` and every end-to-end metric (`--trace 0`) or
//! every per-layer metric (`--trace 1`). See README.md for the phases and
//! metrics.

mod build;
mod common;
mod ingest;
mod metrics;
mod query;
mod steady;
mod tracing;
mod wrap;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use build::Build;
use common::{median, peak_rss_mb, secs, Family};
use ingest::Ingest;
use query::Query;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Units of each phase in one cycle: one build round (~1.5 s) and about
/// as long of each other phase.
const QUERY_ROUNDS: usize = 6;
const INGEST_PASSES: usize = 2;

/// What a workload run is asked to do.
pub struct Config {
    pub seed: u64,
    pub run_for: Duration,
    pub traced: bool,
    /// Scratch directory for the workload's index files.
    pub dir: PathBuf,
    /// Where the traced run writes its Chrome trace.
    pub trace_path: PathBuf,
    /// Process start, for `setup_s`.
    pub t0: Instant,
}

/// The outcome of one workload run.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Every check the workload owes ran to completion.
    pub correct: bool,
    metrics: Vec<(&'static str, f64)>,
}

impl Default for Report {
    fn default() -> Self {
        Self {
            attempted: 0,
            failed: 0,
            correct: true,
            metrics: Vec::new(),
        }
    }
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            metrics::spec(name).is_some(),
            "metric {name} is not in the metric tables"
        );
        self.metrics.push((name, value));
    }

    /// Count one operation, failed or not.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    json_number(*v),
                    metrics::spec(name).expect("checked in set").0
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace,
    })
}

fn main() -> ExitCode {
    let t0 = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("steady") {
        return match steady::run(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench steady: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(family) = Family::parse(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {} (uniform, tiger, vlsi)",
            args.workload
        );
        return ExitCode::from(2);
    };
    if args.trace {
        // Rings are drained after every unit of work; this only bounds
        // the largest unit (one build round).
        obs::trace::set_ring_capacity(1 << 20);
    }
    let dir = PathBuf::from(".bench_tmp").join(format!("{}-{}", args.workload, std::process::id()));
    let cfg = Config {
        seed: args.seed,
        run_for: Duration::from_secs(args.seconds),
        traced: args.trace,
        dir: dir.clone(),
        trace_path: PathBuf::from(".bench_out")
            .join(format!("trace-{}-seed{}.json", args.workload, args.seed)),
        t0,
    };
    let result = std::fs::create_dir_all(&dir)
        .map_err(|e| format!("{}: {e}", dir.display()))
        .and_then(|()| run(&cfg, family));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(".bench_tmp"); // only if no other run uses it
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };

    let mut printed: Vec<&str> = report.metrics.iter().map(|(n, _)| *n).collect();
    let mut want = metrics::expected(args.trace);
    printed.sort_unstable();
    want.sort_unstable();
    if printed != want {
        eprintln!("perfbench: printed metrics {printed:?} differ from the table {want:?}");
        return ExitCode::FAILURE;
    }
    for (name, v) in &report.metrics {
        let (unit, better) = metrics::spec(name).expect("checked in set");
        println!("{name:<34} {v:>16.4} {unit:<6} ({better} is better)");
    }
    println!(
        "# {} operations attempted, {} failed",
        report.attempted, report.failed
    );
    println!("{}", report.json());
    ExitCode::SUCCESS
}

/// Set up all three phases (`SETUP_REPS` times, keeping the last), then
/// run whole cycles of them until the run's time is up.
fn run(cfg: &Config, family: Family) -> Result<Report, String> {
    let mut setups = Vec::new();
    let mut gens = Vec::new();
    let mut opens = Vec::new();
    let mut phases = None;
    for rep in 0..SETUP_REPS {
        let start = if rep == 0 { cfg.t0 } else { Instant::now() };
        drop(phases.take()); // release the previous indexes before rebuilding them
        let b = Build::setup(cfg, family)?;
        let q = Query::setup(cfg, family)?;
        let i = Ingest::setup(cfg, family)?;
        setups.push(secs(start.elapsed()));
        gens.push(b.gen_s + q.gen_s + i.gen_s);
        opens.push(q.open_s);
        phases = Some((b, q, i));
    }
    let (mut b, mut q, mut i) = phases.expect("at least one set-up");

    // Enough cycles for the counted query rounds (traced runs alternate
    // traced and untraced rounds) and the ingest p99's batches.
    let counted = query::COUNTED_ROUNDS * if cfg.traced { 2 } else { 1 };
    let min_cycles = counted
        .div_ceil(QUERY_ROUNDS)
        .max(ingest::MIN_PASSES.div_ceil(INGEST_PASSES));
    let start = Instant::now();
    let mut cycles = 0;
    while cycles < min_cycles || start.elapsed() < cfg.run_for {
        b.round(cfg);
        for _ in 0..QUERY_ROUNDS {
            q.round(cfg);
        }
        for _ in 0..INGEST_PASSES {
            i.pass(cfg)?;
        }
        cycles += 1;
    }

    let mut report = Report::default();
    b.finish(cfg, &mut report);
    q.finish(cfg, &mut report);
    i.finish(cfg, &mut report);
    if cfg.traced {
        report.set("datagen.gen_s", median(&gens));
        report.set("flat.open_s", median(&opens));
        let events = tracing::write_chrome(&[b.rollup(), q.rollup(), i.rollup()], &cfg.trace_path);
        report.op(events.is_ok());
        match events {
            Ok(n) => println!("# trace: {} ({n} events)", cfg.trace_path.display()),
            Err(e) => eprintln!("trace export failed: {e}"),
        }
    } else {
        report.set("setup_s", median(&setups));
        report.set("bytes_per_entry", q.bytes_per_entry());
        report.set("peak_rss_mb", peak_rss_mb()?);
    }
    println!("# {cycles} cycles in {:.1} s", secs(start.elapsed()));
    Ok(report)
}
