//! Compares two sets of benchmark runs.
//!
//! ```text
//! compare BASE_DIR CHANGE_DIR [--benchmark BENCHMARK.json]
//! ```
//!
//! Each directory holds the run documents `hdpbench --out DIR` wrote.
//! Prints, for every workload × end-to-end metric, each set's median
//! and quartiles, the pairs the change won and a verdict (see
//! `hdpbench::compare`). Exits with 1 when any verdict is `worse`, when
//! the change fails a larger share of its operations than the base, or
//! when any run of either set reports wrong outputs.

use hdpbench::compare::{bounds, compare, load_runs};
use hdpbench::json::Value;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("compare: {e}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<bool, String> {
    let mut dirs = Vec::new();
    let mut benchmark = PathBuf::from("BENCHMARK.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--benchmark" {
            benchmark = PathBuf::from(args.next().ok_or("--benchmark needs a path")?);
        } else {
            dirs.push(PathBuf::from(a));
        }
    }
    let [base_dir, change_dir] = <[PathBuf; 2]>::try_from(dirs)
        .map_err(|_| "usage: compare BASE_DIR CHANGE_DIR [--benchmark BENCHMARK.json]")?;
    let text =
        std::fs::read_to_string(&benchmark).map_err(|e| format!("{}: {e}", benchmark.display()))?;
    let bounds = bounds(&Value::parse(&text)?)?;
    let base = load_runs(&base_dir)?;
    let change = load_runs(&change_dir)?;
    let rows = compare(&base, &change, &bounds);
    println!(
        "{:<10} {:<13} {:>34} {:>34} {:>6}  verdict",
        "workload", "metric", "base q1 / median / q3", "change q1 / median / q3", "wins"
    );
    let mut ok = true;
    for r in &rows {
        println!(
            "{:<10} {:<13} {:>10.4} {:>11.4} {:>11.4} {:>10.4} {:>11.4} {:>11.4} {:>3}/{:<2}  {}",
            r.workload,
            r.metric,
            r.base[0],
            r.base[1],
            r.base[2],
            r.change[0],
            r.change[1],
            r.change[2],
            r.wins.0,
            r.wins.1,
            r.verdict
        );
        ok &= r.verdict != "worse";
    }
    for (workload, &(a0, f0)) in &base.accounting {
        if let Some(&(a1, f1)) = change.accounting.get(workload) {
            #[allow(clippy::cast_precision_loss)]
            let (s0, s1) = (f0 as f64 / a0.max(1) as f64, f1 as f64 / a1.max(1) as f64);
            println!("{workload}: failed share base {s0:.6} change {s1:.6}");
            // Shares are exact fractions of whole passes; compare them
            // exactly as integers. Fewer failures (a mended fault) pass.
            if u128::from(f1) * u128::from(a0) > u128::from(f0) * u128::from(a1) {
                println!("{workload}: the change fails a larger share of operations");
                ok = false;
            }
        }
    }
    for (name, set) in [("base", &base), ("change", &change)] {
        for path in &set.incorrect {
            println!("{name}: wrong outputs in {path}");
            ok = false;
        }
    }
    if rows.is_empty() {
        return Err("no workload appears in both sets".into());
    }
    Ok(ok)
}
