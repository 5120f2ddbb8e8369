//! `perfbench steady`: run each workload K times, one process per run
//! and a new seed each time, and print every end-to-end metric's median,
//! quartiles and spread (quartile distance ÷ median) beside its bound.
//! The bounds in `BENCHMARK.json` are set from this output.

use std::collections::BTreeMap;
use std::process::Command;

use str_bench::schema::{parse, Value};

use crate::common::{median, quartiles};
use crate::metrics::{END_TO_END, WORKLOADS};

pub fn run(args: &[String]) -> Result<(), String> {
    let mut runs = 10u64;
    let mut seconds = 30u64;
    let mut workloads: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--runs" => runs = value.parse().map_err(|e| format!("--runs: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--workload" => workloads.push(value.clone()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if runs < 2 {
        return Err("--runs must be at least 2".into());
    }
    if workloads.is_empty() {
        workloads = WORKLOADS.iter().map(|(w, _)| w.to_string()).collect();
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    for w in &workloads {
        let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        let mut shares = Vec::new();
        for seed in 1..=runs {
            let out = Command::new(&exe)
                .args(["--workload", w, "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", "0"])
                .output()
                .map_err(|e| e.to_string())?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let last = stdout.lines().last().unwrap_or("");
            if !out.status.success() {
                return Err(format!(
                    "{w} seed {seed} exited with {}: {}",
                    out.status,
                    String::from_utf8_lossy(&out.stderr)
                ));
            }
            let doc = parse(last).map_err(|e| format!("{w} seed {seed}: {e}"))?;
            let obj = doc.as_object().ok_or("result is not an object")?;
            let num = |k: &str| obj.get(k).and_then(Value::as_number).unwrap_or(f64::NAN);
            shares.push(num("failed") / num("attempted"));
            let metrics = obj
                .get("metrics")
                .and_then(Value::as_object)
                .ok_or("no metrics")?;
            for (name, m) in metrics {
                let v = m
                    .as_object()
                    .and_then(|o| o.get("value"))
                    .and_then(Value::as_number)
                    .unwrap_or(f64::NAN);
                values.entry(name.clone()).or_default().push(v);
            }
            eprintln!("{w} seed {seed}: {last}");
        }
        println!("## {w}: {runs} runs of {seconds} s, seeds 1..{runs}");
        println!(
            "{:<30} {:>14} {:>14} {:>14} {:>8} {:>6}",
            "metric", "median", "q1", "q3", "spread", "bound"
        );
        // The bounds hold when every spread but set-up time's is below
        // a third of its bound.
        for m in END_TO_END {
            let Some(v) = values.get(m.name) else {
                continue;
            };
            let med = median(v);
            let (q1, q3) = quartiles(v);
            let spread = (q3 - q1) / med;
            let flag = if m.name != "setup_s" && spread > m.bound / 3.0 {
                "  above a third of the bound"
            } else {
                ""
            };
            println!(
                "{:<30} {:>14.4} {:>14.4} {:>14.4} {:>8.4} {:>6}{flag}",
                m.name, med, q1, q3, spread, m.bound
            );
        }
        println!("failed share per run: {shares:?}");
    }
    Ok(())
}
