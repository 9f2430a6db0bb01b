//! `--repeat N --agree`: do N sets of runs of the same code agree within
//! the benchmark's own bounds?

use crate::json::Json;
use crate::spec::{END_TO_END, WORKLOADS};
use crate::stats::{median, quartiles, spread};
use std::path::Path;

/// Read `dir/set-<i>/<workload>.json` for `i` in `1..=sets` and each of
/// `selected` (all workloads when empty), print median and quartiles per
/// workload and end-to-end metric, and return whether every spread
/// (`stats::spread`) stays within its metric's bound.
pub fn agree(dir: &Path, sets: usize, selected: &[String]) -> Result<bool, String> {
    if sets < 2 {
        return Err("--agree compares at least two sets".to_owned());
    }
    let mut ok = true;
    println!(
        "{:<14} {:<22} {:<7} {:>14} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "better", "q1", "median", "q3", "spread", "bound"
    );
    if let Some(name) = selected.iter().find(|name| crate::spec::workload(name).is_none()) {
        return Err(format!("unknown workload {name:?}"));
    }
    let chosen = |name: &str| selected.is_empty() || selected.iter().any(|s| s == name);
    for w in WORKLOADS.iter().filter(|w| chosen(w.name)) {
        let mut docs = Vec::new();
        for set in 1..=sets {
            let path = dir.join(format!("set-{set}")).join(format!("{}.json", w.name));
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            docs.push(Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?);
        }
        for d in &END_TO_END {
            let values: Vec<f64> = docs
                .iter()
                .map(|doc| {
                    doc.get("metrics")
                        .and_then(|m| m.get(d.name))
                        .and_then(|m| m.get("value"))
                        .and_then(Json::as_f64)
                })
                .collect::<Option<_>>()
                .ok_or(format!("{}: metric {} missing from a set", w.name, d.name))?;
            let (q1, q3) = quartiles(&values);
            let s = spread(&values);
            let within = s <= d.bound;
            ok &= within;
            println!(
                "{:<14} {:<22} {:<7} {:>14.6} {:>14.6} {:>14.6} {:>8.4} {:>6.2}{}",
                w.name,
                d.name,
                d.better,
                q1,
                median(&values),
                q3,
                s,
                d.bound,
                if within { "" } else { "  <-- DISAGREE" }
            );
        }
    }
    Ok(ok)
}
