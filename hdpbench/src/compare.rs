//! Comparison of two sets of runs (a parent and a change) metric by
//! metric, with the bounds `BENCHMARK.json` fixes.
//!
//! For every workload × end-to-end metric the verdict is:
//!
//! * `better` — the change wins at least 9 of every 10 pairs (runs
//!   paired by seed; ties count for neither side) and the medians
//!   differ by more than the parent's quartile spread;
//! * `unresolved` — the quartile spread of either set, as a share of
//!   its median, is wider than the bound, and not every change run
//!   beats every parent run;
//! * `worse` — the change's median is worse than the parent's by more
//!   than the bound;
//! * `within bound` — otherwise.

use crate::json::Value;
use crate::report;
use crate::stats;
use std::collections::BTreeMap;
use std::path::Path;

/// Direction and bound of one end-to-end metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
    /// Largest tolerated worsening, as a share of the parent's median.
    pub bound: f64,
}

/// Reads the end-to-end bounds from a `BENCHMARK.json` document.
///
/// # Errors
///
/// A malformed document.
pub fn bounds(benchmark: &Value) -> Result<Vec<Bound>, String> {
    benchmark
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("metric without a name")?;
            let better = m.get("better").and_then(Value::as_str);
            let bound = m.get("bound").and_then(Value::as_f64);
            match (better, bound) {
                (Some(b @ ("higher" | "lower")), Some(bound)) => Ok(Bound {
                    name: name.to_owned(),
                    higher_is_better: b == "higher",
                    bound,
                }),
                _ => Err(format!(
                    "metric {name}: needs better=higher|lower and a bound"
                )),
            }
        })
        .collect()
}

/// One set of untraced runs: workload → seed → (metric → value), plus
/// per-workload (attempted, failed) totals and the runs whose outputs
/// were wrong.
#[derive(Debug, Default)]
pub struct RunSet {
    /// Metric values by workload and seed.
    pub values: BTreeMap<String, BTreeMap<u64, BTreeMap<String, f64>>>,
    /// Summed (attempted, failed) by workload.
    pub accounting: BTreeMap<String, (u64, u64)>,
    /// Documents (traced ones too) that report `correct: false`.
    pub incorrect: Vec<String>,
}

/// Loads every untraced run document in `dir`.
///
/// # Errors
///
/// Unreadable files and documents that fail the schema check.
pub fn load_runs(dir: &Path) -> Result<RunSet, String> {
    let mut set = RunSet::default();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    for path in paths {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Value::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        report::validate_document(&doc)
            .map_err(|errs| format!("{}: {}", path.display(), errs.join("; ")))?;
        let result = doc.get("result").expect("validated");
        if result.get("correct").and_then(Value::as_bool) != Some(true) {
            set.incorrect.push(path.display().to_string());
        }
        if doc.get("trace").and_then(Value::as_bool) == Some(true) {
            continue;
        }
        let workload = doc
            .get("workload")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_owned();
        let seed = doc.get("seed").and_then(Value::as_u64).unwrap_or(0);
        let metrics = result
            .get("metrics")
            .and_then(Value::as_obj)
            .expect("validated")
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect();
        set.values
            .entry(workload.clone())
            .or_default()
            .insert(seed, metrics);
        let acc = set.accounting.entry(workload).or_default();
        acc.0 += result.get("attempted").and_then(Value::as_u64).unwrap_or(0);
        acc.1 += result.get("failed").and_then(Value::as_u64).unwrap_or(0);
    }
    Ok(set)
}

/// The verdict for one workload × metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload.
    pub workload: String,
    /// Metric.
    pub metric: String,
    /// Parent quartiles (q1, median, q3).
    pub base: [f64; 3],
    /// Change quartiles (q1, median, q3).
    pub change: [f64; 3],
    /// Pairs the change won, and pairs compared.
    pub wins: (usize, usize),
    /// `better`, `worse`, `unresolved` or `within bound`.
    pub verdict: &'static str,
}

/// Applies the verdict rule to one metric's paired values.
#[must_use]
pub fn verdict(base: &[f64], change: &[f64], pairs: &[(f64, f64)], b: &Bound) -> Option<Row> {
    let qb = stats::quartiles(base)?;
    let qc = stats::quartiles(change)?;
    let better = |c: f64, p: f64| if b.higher_is_better { c > p } else { c < p };
    let wins = pairs.iter().filter(|(p, c)| better(*c, *p)).count();
    let (mb, mc) = (qb[1], qc[1]);
    let worsening = if b.higher_is_better {
        (mb - mc) / mb
    } else {
        (mc - mb) / mb
    };
    let spread = |q: [f64; 3]| (q[2] - q[0]) / q[1].abs();
    let all_better = change.iter().all(|&c| base.iter().all(|&p| better(c, p)));
    let verdict = if !pairs.is_empty()
        && wins * 10 >= pairs.len() * 9
        && better(mc, mb)
        && (mc - mb).abs() > qb[2] - qb[0]
    {
        "better"
    } else if (spread(qb) > b.bound || spread(qc) > b.bound) && !all_better {
        "unresolved"
    } else if worsening > b.bound {
        "worse"
    } else {
        "within bound"
    };
    Some(Row {
        workload: String::new(),
        metric: b.name.clone(),
        base: qb,
        change: qc,
        wins: (wins, pairs.len()),
        verdict,
    })
}

/// Compares two run sets over every workload they share and every
/// bounded metric. Runs are paired by seed.
#[must_use]
pub fn compare(base: &RunSet, change: &RunSet, bounds: &[Bound]) -> Vec<Row> {
    let mut rows = Vec::new();
    for (workload, base_runs) in &base.values {
        let Some(change_runs) = change.values.get(workload) else {
            continue;
        };
        for b in bounds {
            let col = |runs: &BTreeMap<u64, BTreeMap<String, f64>>| -> Vec<f64> {
                runs.values()
                    .filter_map(|m| m.get(&b.name).copied())
                    .collect()
            };
            let pairs: Vec<(f64, f64)> = base_runs
                .iter()
                .filter_map(|(seed, m)| {
                    Some((*m.get(&b.name)?, *change_runs.get(seed)?.get(&b.name)?))
                })
                .collect();
            if let Some(mut row) = verdict(&col(base_runs), &col(change_runs), &pairs, b) {
                row.workload.clone_from(workload);
                rows.push(row);
            }
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(higher: bool) -> Bound {
        Bound {
            name: "m".into(),
            higher_is_better: higher,
            bound: 0.1,
        }
    }

    fn paired(base: &[f64], change: &[f64]) -> Vec<(f64, f64)> {
        base.iter().copied().zip(change.iter().copied()).collect()
    }

    #[test]
    fn verdicts_follow_the_rule() {
        let base: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i % 3)).collect();
        // Same distribution: within bound.
        let row = verdict(&base, &base, &paired(&base, &base), &bound(true)).unwrap();
        assert_eq!(row.verdict, "within bound");
        // 20% higher throughput in every pair: better.
        let up: Vec<f64> = base.iter().map(|v| v * 1.2).collect();
        assert_eq!(
            verdict(&base, &up, &paired(&base, &up), &bound(true))
                .unwrap()
                .verdict,
            "better"
        );
        // 20% slower latency (higher is worse): worse.
        assert_eq!(
            verdict(&base, &up, &paired(&base, &up), &bound(false))
                .unwrap()
                .verdict,
            "worse"
        );
        // Spread wider than the bound and overlapping sets: unresolved.
        let wide: Vec<f64> = (0..10).map(|i| 50.0 + 10.0 * f64::from(i)).collect();
        let shifted: Vec<f64> = wide.iter().rev().copied().collect();
        assert_eq!(
            verdict(&wide, &shifted, &paired(&wide, &shifted), &bound(true))
                .unwrap()
                .verdict,
            "unresolved"
        );
    }

    #[test]
    fn reads_bounds_from_the_committed_benchmark() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = Value::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let b = bounds(&doc).unwrap();
        assert_eq!(b.len(), report::END_TO_END.len());
        assert!(b.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }
}
