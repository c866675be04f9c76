//! `perf-gate` — diff two bench artifact JSON files and fail on
//! regressions, so a PR cannot silently slow down what
//! the committed `results/BENCH_*.json` artifacts record.
//!
//! ```text
//! perf-gate <baseline.json> <current.json> [options]
//!   --threshold F        allowed relative slowdown (default 0.25 = +25%)
//!   --min-ms F           ignore absolute deltas below this (default 0.05)
//!   --inject-slowdown F  multiply current's gated values by F first
//!                        (the CI self-test: the gate must then fail)
//!   --json-out FILE      also write the comparison as a JSON report
//!                        (per-leaf baseline/current/relative delta and
//!                        regression flags, plus the totals) — written on
//!                        both the pass and fail paths, so CI can archive
//!                        the verdict either way
//! ```
//!
//! Gated values are the numeric leaves under any
//! `median_wall_ms_by_threads` object (lower is better); other fields —
//! speedups, host parallelism, notes — are informational and not gated,
//! because their direction or meaning is host-dependent. A leaf present
//! in only one file is reported but does not fail the gate (benches may
//! gain or lose sections across PRs).
//!
//! Exit codes: 0 = within threshold, 1 = regression, 2 = usage/IO error.

use gsampler_obs::json::Json;

/// A flattened `path → milliseconds` view of the gated leaves.
fn gated_leaves(v: &Json, path: &str, out: &mut Vec<(String, f64)>) {
    match v {
        Json::Obj(fields) => {
            for (k, child) in fields {
                let child_path = if path.is_empty() {
                    k.clone()
                } else {
                    format!("{path}.{k}")
                };
                if k == "median_wall_ms_by_threads" {
                    if let Json::Obj(entries) = child {
                        for (threads, val) in entries {
                            if let Some(ms) = val.as_f64() {
                                out.push((format!("{child_path}.{threads}"), ms));
                            }
                        }
                    }
                } else {
                    gated_leaves(child, &child_path, out);
                }
            }
        }
        Json::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                gated_leaves(item, &format!("{path}[{i}]"), out);
            }
        }
        _ => {}
    }
}

fn load(path: &str) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("perf-gate: cannot read {path}: {e}");
        std::process::exit(2);
    });
    Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("perf-gate: {path} is not valid JSON: {e}");
        std::process::exit(2);
    })
}

fn flag_value<'a>(args: &'a [String], i: usize, name: &str) -> &'a str {
    args.get(i + 1).map(String::as_str).unwrap_or_else(|| {
        eprintln!("perf-gate: {name} needs a value");
        std::process::exit(2);
    })
}

fn num_value(args: &[String], i: usize, name: &str) -> f64 {
    flag_value(args, i, name).parse().unwrap_or_else(|_| {
        eprintln!("perf-gate: {name} needs a numeric value");
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut files: Vec<String> = Vec::new();
    let mut threshold = 0.25f64;
    let mut min_ms = 0.05f64;
    let mut inject = 1.0f64;
    let mut json_out: Option<String> = None;
    let mut i = 0usize;
    while i < args.len() {
        match args[i].as_str() {
            "--threshold" => {
                threshold = num_value(&args, i, "--threshold");
                i += 1;
            }
            "--min-ms" => {
                min_ms = num_value(&args, i, "--min-ms");
                i += 1;
            }
            "--inject-slowdown" => {
                inject = num_value(&args, i, "--inject-slowdown");
                i += 1;
            }
            "--json-out" => {
                json_out = Some(flag_value(&args, i, "--json-out").to_string());
                i += 1;
            }
            other if other.starts_with("--") => {
                eprintln!("perf-gate: unknown flag {other}");
                std::process::exit(2);
            }
            path => files.push(path.to_string()),
        }
        i += 1;
    }
    if files.len() != 2 {
        eprintln!(
            "usage: perf-gate <baseline.json> <current.json> [--threshold F] [--min-ms F] \
             [--inject-slowdown F] [--json-out FILE]"
        );
        std::process::exit(2);
    }

    let mut base = Vec::new();
    gated_leaves(&load(&files[0]), "", &mut base);
    let mut cur = Vec::new();
    gated_leaves(&load(&files[1]), "", &mut cur);
    if inject != 1.0 {
        for (_, ms) in &mut cur {
            *ms *= inject;
        }
        println!("perf-gate: self-test mode, current values x{inject}");
    }
    if base.is_empty() {
        eprintln!("perf-gate: {} has no gated leaves", files[0]);
        std::process::exit(2);
    }

    let mut regressions = Vec::new();
    let mut rows: Vec<Json> = Vec::new();
    let mut compared = 0usize;
    println!(
        "{:<44} {:>12} {:>12} {:>9}",
        "leaf", "baseline ms", "current ms", "delta"
    );
    for (path, base_ms) in &base {
        let Some((_, cur_ms)) = cur.iter().find(|(p, _)| p == path) else {
            println!("{path:<44} {base_ms:>12.4} {:>12} {:>9}", "absent", "-");
            continue;
        };
        compared += 1;
        let rel = cur_ms / base_ms.max(f64::MIN_POSITIVE) - 1.0;
        let regressed = *cur_ms > base_ms * (1.0 + threshold) && cur_ms - base_ms > min_ms;
        let flag = if regressed {
            regressions.push((path.clone(), *base_ms, *cur_ms, rel));
            "  <-- REGRESSION"
        } else {
            ""
        };
        rows.push(Json::Obj(vec![
            ("leaf".into(), Json::Str(path.clone())),
            ("baseline_ms".into(), Json::Num(*base_ms)),
            ("current_ms".into(), Json::Num(*cur_ms)),
            ("rel_change".into(), Json::Num(rel)),
            ("regression".into(), Json::Bool(regressed)),
        ]));
        let rel_pct = format!("{:+.1}%", rel * 100.0);
        println!("{path:<44} {base_ms:>12.4} {cur_ms:>12.4} {rel_pct:>9}{flag}");
    }
    for (path, cur_ms) in &cur {
        if !base.iter().any(|(p, _)| p == path) {
            println!("{path:<44} {:>12} {cur_ms:>12.4} {:>9}", "absent", "-");
        }
    }

    if compared == 0 {
        eprintln!("perf-gate: no leaf appears in both files; nothing gated");
        std::process::exit(2);
    }
    if let Some(out) = &json_out {
        let report = Json::Obj(vec![
            ("baseline".into(), Json::Str(files[0].clone())),
            ("current".into(), Json::Str(files[1].clone())),
            ("threshold".into(), Json::Num(threshold)),
            ("min_ms".into(), Json::Num(min_ms)),
            ("inject_slowdown".into(), Json::Num(inject)),
            ("compared".into(), Json::Num(compared as f64)),
            (
                "regression_count".into(),
                Json::Num(regressions.len() as f64),
            ),
            ("leaves".into(), Json::Arr(rows)),
        ]);
        match std::fs::write(out, format!("{report}\n")) {
            Ok(()) => println!("perf-gate: wrote report to {out}"),
            Err(e) => {
                eprintln!("perf-gate: cannot write {out}: {e}");
                std::process::exit(2);
            }
        }
    }
    if regressions.is_empty() {
        println!(
            "perf-gate: OK — {compared} leaves within +{:.0}% (min {min_ms} ms)",
            threshold * 100.0
        );
    } else {
        eprintln!(
            "perf-gate: FAIL — {} of {compared} leaves regressed past +{:.0}%:",
            regressions.len(),
            threshold * 100.0
        );
        for (path, b, c, rel) in &regressions {
            eprintln!("  {path}: {b:.4} ms -> {c:.4} ms ({:+.1}%)", rel * 100.0);
        }
        std::process::exit(1);
    }
}
