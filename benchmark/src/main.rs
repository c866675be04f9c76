//! The repo benchmark: six sampling workloads measured end to end and,
//! in a separate traced run, layer by layer — always from outside the
//! program, through its public functions and what they return.
//!
//! `run.sh` is the one command; this binary is one run of one workload
//! (or one of the small tools: `--compare`, `--check-manifest`, `--list`).
//! See `README.md` for the definitions.

mod checks;
mod compare;
mod json;
mod probes;
mod schema;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use gsampler_obs::json::Json;

use schema::Metrics;
use stats::{SchedSnapshot, UnitSummary};
use workloads::{Checks, UnitOut, Workload};

/// Pool width on the reference host (`nproc` = 2).
const THREADS: usize = 2;
/// Complete set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPEATS: u64 = 3;
/// Discarded units before the timed region.
const WARMUP_UNITS: u64 = 2;
/// Timed units of a traced run (`serve_burst_lj`'s are ~25 ms, so it
/// takes more to collect thousands of request latencies).
const TRACED_UNITS: u64 = 10;
const TRACED_UNITS_SERVE: u64 = 200;
/// Untraced units a traced run times first, for `obs.trace_overhead_frac`.
const BASELINE_UNITS: u64 = 5;
/// Units per child process of `runtime.pool.speedup_t2`.
const SPEEDUP_UNITS: u64 = 5;
const DEFAULT_SEED: u64 = 2023;
const DEFAULT_SECONDS: f64 = 26.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Run exactly this many timed units instead of filling `seconds`.
    units: Option<u64>,
    /// One set-up, one warm-up, one baseline and speed-up unit: `--smoke`.
    quick: bool,
    out: PathBuf,
    /// Child of `runtime.pool.speedup_t2`: pool width to run at.
    child_threads: Option<usize>,
    compare: Option<(PathBuf, PathBuf)>,
    check_manifest: Option<PathBuf>,
    list: bool,
}

impl Args {
    /// `full` repeats of a set-up, warm-up or baseline step; one in
    /// `--quick` runs.
    fn repeats(&self, full: u64) -> u64 {
        if self.quick {
            1
        } else {
            full
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        units: None,
        quick: false,
        out: PathBuf::from("benchmark/out"),
        child_threads: None,
        compare: None,
        check_manifest: None,
        list: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        fn num<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
            v.parse().map_err(|_| format!("{flag}: cannot parse {v:?}"))
        }
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => args.seed = num(&flag, value("a number")?)?,
            "--seconds" => args.seconds = num(&flag, value("a number")?)?,
            "--trace" => args.trace = num::<u8>(&flag, value("0 or 1")?)? != 0,
            "--units" => args.units = Some(num(&flag, value("a count")?)?),
            "--quick" => args.quick = true,
            "--out" => args.out = PathBuf::from(value("a directory")?),
            "--child-threads" => args.child_threads = Some(num(&flag, value("a count")?)?),
            "--compare" => {
                args.compare = Some((
                    PathBuf::from(value("two files")?),
                    PathBuf::from(value("two files")?),
                ))
            }
            "--check-manifest" => args.check_manifest = Some(PathBuf::from(value("a file")?)),
            "--list" => args.list = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// Refuse to measure on a host or in an environment the definitions do
/// not cover, then pin the pool width before the pool is first used.
fn pin_environment(threads: usize) -> Result<(), String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if nproc < THREADS {
        return Err(format!(
            "nproc is {nproc}; the benchmark is defined for at least {THREADS}"
        ));
    }
    if let Some((key, _)) =
        std::env::vars_os().find(|(k, _)| k.to_str().is_some_and(|k| k.starts_with("GSAMPLER_")))
    {
        return Err(format!(
            "{} is set; unset every GSAMPLER_* override before measuring",
            key.to_string_lossy()
        ));
    }
    std::env::set_var("GSAMPLER_THREADS", threads.to_string());
    Ok(())
}

/// One timed unit.
#[derive(Clone, Copy)]
struct UnitRecord {
    wall: Duration,
    out: UnitOut,
}

/// Run units `0..` back to back until `units` have run or, without a
/// count, `seconds` have passed. Nothing here prints, checks or grows a
/// buffer; `prepare` builds a unit's inputs outside its clock.
fn timed_units(
    w: &mut dyn Workload,
    units: Option<u64>,
    seconds: f64,
    root_span: bool,
) -> Vec<UnitRecord> {
    let mut records = Vec::with_capacity(1 << 16);
    let start = Instant::now();
    let mut u = 0u64;
    loop {
        let done = match units {
            Some(n) => u >= n,
            None => u > 0 && start.elapsed().as_secs_f64() >= seconds,
        };
        if done {
            return records;
        }
        w.prepare(u);
        let _span = if root_span {
            gsampler_obs::span("bench", "bench.unit")
        } else {
            gsampler_obs::SpanGuard::inert()
        };
        let t = Instant::now();
        let out = w.run(u);
        records.push(UnitRecord {
            wall: t.elapsed(),
            out,
        });
        u += 1;
    }
}

fn walls_ms(records: &[UnitRecord]) -> Vec<f64> {
    records.iter().map(|r| r.wall.as_secs_f64() * 1e3).collect()
}

/// The run qualifiers every run reports (`bench.*` minus the traced-only
/// ones).
fn sentinel_metrics(m: &mut Metrics, units: &UnitSummary, sched: &SchedSnapshot, checks: &Checks) {
    m.set("bench.units", units.n as f64);
    m.set("bench.unit_median_ms", units.median);
    m.set("bench.unit_q1_ms", units.q1);
    m.set("bench.unit_q3_ms", units.q3);
    m.set("bench.unit_tail_ms", units.tail);
    m.set("bench.unit_iqr_frac", units.iqr_frac());
    m.set("bench.runq_wait_frac", sched.runq_wait_frac());
    m.set("bench.invol_ctxsw", sched.invol_ctxsw as f64);
    m.set("bench.checks", checks.run as f64);
    m.set("bench.checks_failed", checks.failures.len() as f64);
}

/// `(name, value, unit)`.
type Row = (String, f64, &'static str);

struct RunResult {
    rows: Vec<Row>,
    /// Printed and written to the run's JSON, but not part of the
    /// contract line.
    extras: Vec<Row>,
    units_timed: usize,
    ops_total: u64,
    ops_failed: u64,
    checks: Checks,
    checksum: u64,
    /// Metric-table violations (missing, undefined or non-finite).
    problems: Option<String>,
}

fn ops(records: &[UnitRecord]) -> (u64, u64) {
    records.iter().fold((0, 0), |(ops, failed), r| {
        (ops + r.out.ops, failed + r.out.failed)
    })
}

fn end_to_end_run(args: &Args, workload: &str) -> Result<RunResult, String> {
    // Set-up, several times over, each dropped before the next; the last
    // one is kept for the run.
    let mut setup_s = Vec::new();
    let mut kept: Option<Box<dyn Workload>> = None;
    for _ in 0..args.repeats(SETUP_REPEATS) {
        drop(kept.take());
        let start = Instant::now();
        kept = Some(workloads::build(workload, args.seed)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut w = kept.expect("at least one set-up ran");
    for u in 0..args.repeats(WARMUP_UNITS) {
        w.prepare(u);
        w.run(u);
    }

    let before = SchedSnapshot::read();
    let records = timed_units(w.as_mut(), args.units, args.seconds, false);
    let sched = SchedSnapshot::read().since(&before);
    // Read before the checks run: their sorted edge lists are the
    // harness's memory, not the program's.
    let peak_rss_mb = stats::peak_rss_mb();

    let mut checks = Checks::default();
    let checksum = w.check(&mut checks);

    let walls = walls_ms(&records);
    let units = UnitSummary::of(&walls);
    // Disturbance on the reference host only ever slows a unit down, and
    // it switches units between a fast and a ~1.4x slower mode for seconds
    // at a time; the 5th percentile stays in the fast mode whatever the
    // mix, so it repeats better from run to run than the median or the
    // lower quartile (README, "Noise"). Throughput is the same percentile
    // seen as a rate.
    let items: Vec<f64> = records.iter().map(|r| r.out.items as f64).collect();
    let mut m = Metrics::default();
    m.set("unit_ms", units.p05);
    m.set("work_per_s", stats::median(&items) / (units.p05 / 1e3));
    m.set("setup_s", stats::median(&setup_s));
    m.set("peak_rss_mb", peak_rss_mb);

    let mut sentinels = Metrics::default();
    sentinel_metrics(&mut sentinels, &units, &sched, &checks);
    let mut extras: Vec<Row> = schema::PER_LAYER
        .iter()
        .filter_map(|d| Some((d.name.to_string(), sentinels.get(d.name)?, d.unit)))
        .collect();
    extras.push(("bench.unit_tail_pct".to_string(), units.tail_pct, "%"));
    let modeled: Vec<f64> = records.iter().map(|r| r.out.modeled_s * 1e3).collect();
    if modeled.iter().any(|&v| v > 0.0) {
        extras.push((
            "engine.modeled_ms".to_string(),
            stats::median(&modeled),
            "ms",
        ));
    }

    let (ops_total, ops_failed) = ops(&records);
    let (rows, problems) = match m.resolve(&schema::END_TO_END, workload) {
        Ok(rows) => (rows, None),
        Err(e) => (Vec::new(), Some(e)),
    };
    Ok(RunResult {
        rows,
        extras,
        units_timed: units.n,
        ops_total,
        ops_failed,
        checks,
        checksum,
        problems,
    })
}

/// Median unit time in ms of `SPEEDUP_UNITS` units in a child process at
/// pool width `threads`.
fn child_unit_ms(args: &Args, workload: &str, threads: usize) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let units = args.repeats(SPEEDUP_UNITS);
    let output = std::process::Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--units", &units.to_string()])
        .args(["--child-threads", &threads.to_string()])
        .env_remove("GSAMPLER_THREADS")
        .output()
        .map_err(|e| format!("spawn child: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "child at {threads} threads failed: {}",
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    String::from_utf8_lossy(&output.stdout)
        .trim()
        .parse()
        .map_err(|e| format!("child output: {e}"))
}

/// The child side of [`child_unit_ms`]: one set-up, one warm-up, the
/// units, and the median on stdout.
fn child_run(args: &Args, workload: &str) -> Result<(), String> {
    let mut w = workloads::build(workload, args.seed)?;
    w.prepare(0);
    w.run(0);
    let records = timed_units(
        w.as_mut(),
        Some(args.units.unwrap_or(SPEEDUP_UNITS)),
        0.0,
        false,
    );
    println!("{}", stats::median(&walls_ms(&records)));
    Ok(())
}

fn traced_run(args: &Args, workload: &str) -> Result<RunResult, String> {
    gsampler_obs::enable();
    let mut w = workloads::build(workload, args.seed)?;
    for u in 0..args.repeats(WARMUP_UNITS) {
        w.prepare(u);
        w.run(u);
    }

    // The same units untraced first: the difference is the tracing
    // overhead.
    gsampler_obs::disable();
    let baseline = timed_units(w.as_mut(), Some(args.repeats(BASELINE_UNITS)), 0.0, false);
    gsampler_obs::enable();

    let default_units = if workload == "serve_burst_lj" {
        TRACED_UNITS_SERVE
    } else {
        TRACED_UNITS
    };
    let before = SchedSnapshot::read();
    let records = timed_units(
        w.as_mut(),
        Some(args.units.unwrap_or(default_units)),
        0.0,
        true,
    );
    let sched = SchedSnapshot::read().since(&before);

    // Unit 0 once more, on its own: every count below is of this unit, so
    // it repeats exactly for a seed whatever the run length was.
    let mut m = Metrics::default();
    w.prepare(0);
    let pool_before = gsampler_runtime::pool_metrics();
    let arena_before = gsampler_runtime::arena_metrics();
    let count_unit = {
        let _span = gsampler_obs::span("bench", "bench.count_unit");
        let t = Instant::now();
        w.run(0);
        t.elapsed().as_secs_f64() * 1e3
    };
    let pool = gsampler_runtime::pool_metrics().since(&pool_before);
    let arena = gsampler_runtime::arena_metrics().since(&arena_before);
    w.layer_metrics(&mut m);
    m.set("runtime.threads", gsampler_runtime::num_threads() as f64);
    m.set("runtime.pool.regions", pool.regions as f64);
    m.set("runtime.pool.avg_threads", pool.avg_threads());
    m.set("runtime.pool.efficiency", pool.efficiency());
    m.set("runtime.arena.takes", arena.takes as f64);
    m.set("runtime.arena.hit_rate", arena.hit_rate());
    m.set(
        "runtime.arena.reused_mb",
        arena.bytes_reused as f64 / (1u64 << 20) as f64,
    );

    let (graph, window) = w.probe_inputs();
    probes::matrix(&mut m, &graph, &window)?;
    probes::pool_dispatch(&mut m);
    let t1 = child_unit_ms(args, workload, 1)?;
    let t2 = child_unit_ms(args, workload, THREADS)?;
    m.set("runtime.pool.speedup_t2", t1 / t2);

    gsampler_obs::disable();
    let mut checks = Checks::default();
    let checksum = w.check(&mut checks);

    // The timeline: written out as a Chrome trace, then read back.
    let text = gsampler_obs::export_chrome_trace();
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let trace_path = args.out.join(format!("{workload}.trace.json"));
    std::fs::write(&trace_path, &text).map_err(|e| format!("{}: {e}", trace_path.display()))?;
    let timeline = trace::Timeline::parse(&text)?;
    m.set("obs.events", timeline.events as f64);
    m.set("obs.trace_mb", text.len() as f64 / (1u64 << 20) as f64);

    let walls = walls_ms(&records);
    let units = UnitSummary::of(&walls);
    let unit_spans: Vec<&trace::Span> = timeline.named("bench", "bench.unit").collect();
    let driver_tid = unit_spans.first().map_or(0, |s| s.tid);
    let in_units = || unit_spans.iter().flat_map(|unit| timeline.within(unit));
    let driver_self_ms: f64 = in_units()
        .filter(|s| s.tid == driver_tid)
        .map(|s| s.self_us / 1e3)
        .sum();
    let layer_sum_frac = driver_self_ms / walls.iter().sum::<f64>();
    m.set("obs.layer_sum_frac", layer_sum_frac);
    checks.expect((0.95..=1.05).contains(&layer_sum_frac), || {
        format!("layer self times sum to {layer_sum_frac:.4} of the traced units' wall time")
    });
    m.set("bench.traced_unit_ms", units.median);
    m.set(
        "obs.trace_overhead_frac",
        units.median / stats::median(&walls_ms(&baseline)) - 1.0,
    );

    let count_span = timeline.named("bench", "bench.count_unit").last();
    if workload == "deepwalk_lj" {
        let driver: Vec<f64> = in_units()
            .filter(|s| s.cat == "bench" && s.name == "algos.run_walk_epoch")
            .map(|s| s.self_us / 1e3)
            .collect();
        m.set("algos.driver_self_ms", stats::median(&driver));
    }
    if workload == "serve_burst_lj" {
        // The server keeps its samplers to itself; its kernels show only
        // on the timeline, as `kernel/<kernel>::<op>` spans.
        let mut by_op: std::collections::BTreeMap<&str, (u64, f64)> = Default::default();
        for s in count_span.iter().flat_map(|unit| timeline.within(unit)) {
            // `<kernel>::<op>(<params>)`; the zero-cost `inputs::*` nodes
            // are not dispatcher kernels. The dispatcher files `row_nodes`
            // under `vector_op`.
            let Some((kernel, op)) = s.name.split_once("::") else {
                continue;
            };
            if s.cat == "kernel" && kernel != "inputs" {
                let op = match op.split('(').next().unwrap_or(op) {
                    "row_nodes" => "vector_op",
                    op => op,
                };
                let agg = by_op.entry(op).or_default();
                agg.0 += 1;
                agg.1 += s.dur / 1e6;
            }
        }
        trace::kernel_metrics(
            &mut m,
            by_op.iter().map(|(op, (n, wall))| (*op, *n, *wall, 0.0)),
        );
        trace::nonkernel_metrics(&mut m, count_unit);
        let packs: Vec<f64> = timeline
            .instants
            .iter()
            .filter(|(cat, name, _)| cat == "serve" && name == "pack")
            .filter_map(|(_, _, a)| a.get("size").and_then(Json::as_f64))
            .collect();
        m.set(
            "serve.pack_size_mean",
            packs.iter().sum::<f64>() / packs.len().max(1) as f64,
        );
    }

    sentinel_metrics(&mut m, &units, &sched, &checks);
    // Mean per traced unit; the driver thread's rows sum to the unit's
    // wall time, the other threads' (the server's scheduler) ran beside it.
    let per_unit = |table: std::collections::BTreeMap<String, f64>, prefix: &'static str| {
        let n = units.n.max(1) as f64;
        table
            .into_iter()
            .map(move |(layer, ms)| (format!("{prefix}.{layer}"), ms / n, "ms"))
    };
    let mut extras: Vec<Row> = per_unit(
        trace::layer_self_ms(in_units().filter(|s| s.tid == driver_tid)),
        "layer_self_ms",
    )
    .chain(per_unit(
        trace::layer_self_ms(in_units().filter(|s| s.tid != driver_tid)),
        "layer_self_ms.other_threads",
    ))
    .collect();
    extras.push(("bench.count_unit_ms".to_string(), count_unit, "ms"));

    let (ops_total, ops_failed) = ops(&records);
    let (rows, problems) = match m.resolve(schema::PER_LAYER, workload) {
        Ok(rows) => (rows, None),
        Err(e) => (Vec::new(), Some(e)),
    };
    Ok(RunResult {
        rows,
        extras,
        units_timed: units.n,
        ops_total,
        ops_failed,
        checks,
        checksum,
        problems,
    })
}

/// Print every metric by name with its unit, write the run's JSON record,
/// and end with the one-line result the benchmark contract asks for.
fn report(args: &Args, workload: &str, result: &RunResult) -> Result<bool, String> {
    let correct = result.checks.failures.is_empty() && result.problems.is_none();
    println!(
        "# {workload} seed={} trace={} threads={THREADS}",
        args.seed,
        u8::from(args.trace)
    );
    for (name, value, unit) in &result.rows {
        println!("{name} = {value} {unit}");
    }
    for (name, value, unit) in &result.extras {
        println!("{name} = {value} {unit}");
    }
    println!("ops_total = {} count", result.ops_total);
    println!("ops_failed = {} count", result.ops_failed);
    println!("checksum = {:016x}", result.checksum);
    for failure in &result.checks.failures {
        println!("CHECK FAILED: {failure}");
    }
    if let Some(problems) = &result.problems {
        println!("METRIC TABLE: {problems}");
    }

    let metric_obj = |rows: &[Row]| {
        Json::Obj(
            rows.iter()
                .map(|(name, value, unit)| {
                    (
                        name.clone(),
                        Json::Obj(vec![
                            ("value".to_string(), Json::Num(*value)),
                            ("unit".to_string(), Json::Str(unit.to_string())),
                        ]),
                    )
                })
                .collect(),
        )
    };
    let metrics = metric_obj(&result.rows);
    let text = |s: String| Json::Str(s);
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".to_string());
    let record = Json::Obj(vec![
        ("workload".to_string(), text(workload.to_string())),
        ("seed".to_string(), Json::Num(args.seed as f64)),
        ("trace".to_string(), Json::Bool(args.trace)),
        ("correct".to_string(), Json::Bool(correct)),
        ("ops_total".to_string(), Json::Num(result.ops_total as f64)),
        (
            "ops_failed".to_string(),
            Json::Num(result.ops_failed as f64),
        ),
        (
            "checksum".to_string(),
            text(format!("{:016x}", result.checksum)),
        ),
        ("metrics".to_string(), metrics.clone()),
        ("extras".to_string(), metric_obj(&result.extras)),
        (
            "provenance".to_string(),
            Json::Obj(vec![
                (
                    "nproc".to_string(),
                    Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
                ),
                (
                    "GSAMPLER_THREADS".to_string(),
                    text(env("GSAMPLER_THREADS")),
                ),
                ("rustc".to_string(), text(env("BENCH_RUSTC"))),
                ("git_commit".to_string(), text(env("BENCH_COMMIT"))),
                (
                    "units_timed".to_string(),
                    Json::Num(result.units_timed as f64),
                ),
            ]),
        ),
    ]);
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let kind = if args.trace { "layers" } else { "e2e" };
    let path = args.out.join(format!("{workload}.{kind}.json"));
    std::fs::write(&path, format!("{record}\n")).map_err(|e| format!("{}: {e}", path.display()))?;

    println!(
        "{}",
        Json::Obj(vec![
            ("correct".to_string(), Json::Bool(correct)),
            (
                "attempted".to_string(),
                Json::Num(result.ops_total.max(1) as f64)
            ),
            ("failed".to_string(), Json::Num(result.ops_failed as f64)),
            ("metrics".to_string(), metrics),
        ])
    );
    Ok(correct && result.ops_failed == 0)
}

fn real_main() -> Result<bool, String> {
    let args = parse_args()?;
    if args.list {
        for w in schema::WORKLOADS {
            println!("{w}");
        }
        return Ok(true);
    }
    if let Some((a, b)) = &args.compare {
        return compare::compare(a, b);
    }
    if let Some(path) = &args.check_manifest {
        return compare::check_manifest(path).map(|()| true);
    }
    let workload = args
        .workload
        .clone()
        .ok_or("--workload is required (see --list)")?;
    if schema::mask_of(&workload).is_none() {
        return Err(format!("unknown workload {workload} (see --list)"));
    }
    pin_environment(args.child_threads.unwrap_or(THREADS))?;
    if args.child_threads.is_some() {
        return child_run(&args, &workload).map(|()| true);
    }
    let result = if args.trace {
        traced_run(&args, &workload)?
    } else {
        end_to_end_run(&args, &workload)?
    };
    report(&args, &workload, &result)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
