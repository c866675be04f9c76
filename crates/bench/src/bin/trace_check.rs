//! `trace-check` — validate a `--trace-out` Chrome-trace JSON file with
//! [`gsampler_obs::check_trace`]: it must parse, every event must carry the
//! fields the viewers expect, and it must contain at least one event per
//! required category and per required `cat/name`.
//!
//! ```text
//! trace-check <trace.json> [--require cat1,cat2,...]
//!                          [--require-event cat/name]...
//! ```
//!
//! Default required categories: `pass` (IR pass timings), `kernel`
//! (dispatches), `pool` (worker-pool regions). `--require-event`
//! (repeatable) demands at least one event with an exact category *and*
//! name, e.g. `degrade/superbatch.factor` to prove a recovery action
//! happened.
//!
//! Exit codes: 0 = valid, 1 = missing layer or malformed event,
//! 2 = usage/IO error.

fn usage(err: &str) -> ! {
    eprintln!("trace-check: {err}");
    eprintln!(
        "usage: trace-check <trace.json> [--require cat1,cat2,...] [--require-event cat/name]..."
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut path: Option<String> = None;
    let mut required = "pass,kernel,pool".to_string();
    let mut events: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--require" => {
                required = it.next().cloned().unwrap_or_else(|| {
                    usage("--require needs a comma-separated list");
                })
            }
            "--require-event" => match it.next() {
                Some(spec) if spec.contains('/') => events.push(spec.trim().to_string()),
                _ => usage("--require-event wants cat/name"),
            },
            other if other.starts_with("--") => usage(&format!("unknown flag {other}")),
            p => path = Some(p.to_string()),
        }
    }
    let Some(path) = path else {
        usage("no trace file given")
    };
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| usage(&format!("cannot read {path}: {e}")));
    let categories: Vec<&str> = required.split(',').map(str::trim).collect();
    let events: Vec<&str> = events.iter().map(String::as_str).collect();
    match gsampler_obs::check_trace(&text, &categories, &events) {
        Ok(counts) => {
            println!("trace-check: {path}: {} events", counts.events);
            for (cat, (spans, instants)) in &counts.categories {
                println!("  {cat:<10} {spans:>6} spans  {instants:>6} instants");
            }
            for event in &events {
                let n = counts.event(event);
                println!("  required event {event}: {n} occurrences");
            }
            println!("trace-check: OK — all required layers present ({required})");
        }
        Err(e) => {
            eprintln!("trace-check: FAIL — {path}: {e}");
            std::process::exit(1);
        }
    }
}
