//! Same-code agreement (`--compare`) and the `BENCHMARK.json` cross-check
//! (`--check-manifest`).

use std::collections::BTreeMap;
use std::path::Path;

use gsampler_obs::json::Json;

use crate::schema::{self, Metric};
use crate::stats::{median, quantile};

/// Regression bounds of the end-to-end metrics, in [`schema::END_TO_END`]
/// order: the share of the parent's median a metric may worsen by.
pub const BOUNDS: [f64; 4] = [0.25, 0.25, 0.15, 0.25];

/// Per workload, per end-to-end metric, the values of every untraced run
/// recorded in a set file (one JSON record per line, as `run.sh --sets`
/// appends them).
fn read_set(path: &Path) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut set: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let record =
            Json::parse(line).map_err(|e| format!("{} line {}: {e}", path.display(), i + 1))?;
        let workload = record
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{} line {}: no workload", path.display(), i + 1))?;
        let metrics = record.get("metrics").and_then(Json::as_obj).unwrap_or(&[]);
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                set.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(set)
}

struct Side {
    n: usize,
    median: f64,
    q1: f64,
    q3: f64,
}

impl Side {
    fn of(values: &[f64]) -> Side {
        Side {
            n: values.len(),
            median: median(values),
            q1: quantile(values, 0.25),
            q3: quantile(values, 0.75),
        }
    }

    fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }
}

/// Print, per workload and end-to-end metric, both sets' medians with
/// quartiles and n, the ratio B/A, how much worse B is in the metric's
/// direction, the bound and the verdict: `unresolved` when either set's
/// own spread is wider than the bound, else `within` or `exceeds`.
/// Returns whether every row is `within`.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let (set_a, set_b) = (read_set(a)?, read_set(b)?);
    println!(
        "{:<15} {:<12} {:>34} {:>34} {:>7} {:>7} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3] n", "B median [q1, q3] n", "B/A", "worse", "bound"
    );
    let mut all_within = true;
    for workload in schema::WORKLOADS {
        for (metric, bound) in schema::END_TO_END.iter().zip(BOUNDS) {
            let key = (workload.to_string(), metric.name.to_string());
            let (Some(va), Some(vb)) = (set_a.get(&key), set_b.get(&key)) else {
                println!("{workload:<15} {:<12} missing from a set", metric.name);
                all_within = false;
                continue;
            };
            let (sa, sb) = (Side::of(va), Side::of(vb));
            let ratio = sb.median / sa.median;
            let worse = if metric.better == "lower" {
                ratio - 1.0
            } else {
                1.0 - ratio
            };
            let verdict = if sa.spread() > bound || sb.spread() > bound {
                "unresolved"
            } else if worse <= bound {
                "within"
            } else {
                "exceeds"
            };
            all_within &= verdict == "within";
            let show = |s: &Side| format!("{:.4} [{:.4}, {:.4}] {}", s.median, s.q1, s.q3, s.n);
            println!(
                "{workload:<15} {:<12} {:>34} {:>34} {ratio:>7.4} {worse:>+7.4} {bound:>6.2}  {verdict}",
                metric.name,
                show(&sa),
                show(&sb),
            );
        }
    }
    Ok(all_within)
}

/// Check that `BENCHMARK.json` lists exactly the gated workloads and the
/// metrics the tables in [`schema`] define, with the same units,
/// directions and bounds, and that every name stays inside the allowed
/// alphabet.
pub fn check_manifest(path: &Path) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let manifest = Json::parse(&text)?;
    let list = |key: &str| -> Result<&[Json], String> {
        manifest
            .get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{key} is not a list"))
    };
    let field = |entry: &Json, key: &str| -> String {
        entry
            .get(key)
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string()
    };
    let mut problems = Vec::new();

    let names: Vec<String> = list("workloads")?
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    if names != schema::WORKLOADS[..schema::GATED] {
        problems.push(format!("workloads are {names:?}"));
    }
    let mut check_table = |key: &str, table: &[Metric], bounds: Option<&[f64]>| {
        let entries = match list(key) {
            Ok(e) => e,
            Err(e) => return problems.push(e),
        };
        if entries.len() != table.len() {
            problems.push(format!(
                "{key} lists {} metrics, the table has {}",
                entries.len(),
                table.len()
            ));
        }
        for (i, (entry, metric)) in entries.iter().zip(table).enumerate() {
            let listed = (
                field(entry, "name"),
                field(entry, "unit"),
                field(entry, "better"),
            );
            if listed != (metric.name.into(), metric.unit.into(), metric.better.into()) {
                problems.push(format!(
                    "{key}[{i}] is {listed:?}, the table has {}",
                    metric.name
                ));
            }
            if !schema::name_ok(metric.name) {
                problems.push(format!("{} is outside the name alphabet", metric.name));
            }
            if let Some(bounds) = bounds {
                if entry.get("bound").and_then(Json::as_f64) != Some(bounds[i]) {
                    problems.push(format!("{key}[{i}] bound differs from {}", bounds[i]));
                }
            }
        }
    };
    check_table("end_to_end", &schema::END_TO_END, Some(&BOUNDS));
    check_table("per_layer", schema::PER_LAYER, None);
    if problems.is_empty() {
        println!(
            "{}: {} workloads, {} end-to-end and {} per-layer metrics match the tables",
            path.display(),
            schema::GATED,
            schema::END_TO_END.len(),
            schema::PER_LAYER.len()
        );
        Ok(())
    } else {
        // One shifted entry misaligns every later one; the first few say
        // where it starts.
        let shown = problems.len().min(5);
        Err(format!(
            "{} ({} problems in all)",
            problems[..shown].join("; "),
            problems.len()
        ))
    }
}
