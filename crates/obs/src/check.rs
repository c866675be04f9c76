//! The one trace checker: what `trace-check` runs on a `--trace-out` file
//! and what the in-process smokes run on [`export_chrome_trace`]'s text.
//!
//! [`export_chrome_trace`]: crate::export_chrome_trace

use std::collections::BTreeMap;

use crate::json::Json;

/// What a valid trace holds, by category and by `cat/name`.
#[derive(Debug, Default)]
pub struct TraceCounts {
    /// Events in the trace.
    pub events: usize,
    /// `(spans, instants)` per category.
    pub categories: BTreeMap<String, (usize, usize)>,
    /// Events per `cat/name`.
    pub names: BTreeMap<String, usize>,
}

impl TraceCounts {
    /// Events of category `cat`, spans and instants.
    pub fn category(&self, cat: &str) -> usize {
        self.categories.get(cat).map_or(0, |(s, i)| s + i)
    }

    /// Events named `cat/name`.
    pub fn event(&self, cat_name: &str) -> usize {
        self.names.get(cat_name).copied().unwrap_or(0)
    }
}

/// Check a Chrome-trace JSON document: it parses, every event carries
/// `cat`, `ph`, `name`, `ts`, `pid` and `tid` (and a complete `X` event a
/// numeric `dur`), every category in `categories` has at least one event,
/// and every `cat/name` in `events` occurs. The error names the malformed
/// event, or everything missing next to the categories present.
pub fn check_trace(
    text: &str,
    categories: &[&str],
    events: &[&str],
) -> Result<TraceCounts, String> {
    let doc = Json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let list = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("no traceEvents array")?;
    let mut counts = TraceCounts {
        events: list.len(),
        ..TraceCounts::default()
    };
    for (i, ev) in list.iter().enumerate() {
        let field = |key: &str| ev.get(key).and_then(Json::as_str);
        let cat = field("cat").ok_or(format!("event {i} has no cat"))?;
        let ph = field("ph").ok_or(format!("event {i} ({cat}) has no ph"))?;
        for key in ["name", "ts", "pid", "tid"] {
            ev.get(key)
                .ok_or(format!("event {i} ({cat}) is missing {key}"))?;
        }
        if ph == "X" && ev.get("dur").and_then(Json::as_f64).is_none() {
            return Err(format!("complete event {i} ({cat}) has no dur"));
        }
        let entry = counts.categories.entry(cat.to_string()).or_default();
        match ph {
            "X" => entry.0 += 1,
            _ => entry.1 += 1,
        }
        if let Some(name) = field("name") {
            *counts.names.entry(format!("{cat}/{name}")).or_default() += 1;
        }
    }
    let missing: Vec<&str> = categories
        .iter()
        .filter(|c| counts.category(c) == 0)
        .chain(events.iter().filter(|e| counts.event(e) == 0))
        .copied()
        .collect();
    if missing.is_empty() {
        return Ok(counts);
    }
    let present: Vec<String> = counts
        .categories
        .keys()
        .map(|c| format!("{c} ({})", counts.category(c)))
        .collect();
    Err(format!(
        "no events in: {}; present: {}",
        missing.join(", "),
        present.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    const TRACE: &str = r#"{"traceEvents": [
        {"cat": "pass", "ph": "X", "name": "fusion", "ts": 1, "dur": 2, "pid": 1, "tid": 1},
        {"cat": "plan", "ph": "i", "name": "superbatch", "ts": 3, "pid": 1, "tid": 1}
    ]}"#;

    #[test]
    fn counts_categories_and_events() {
        let counts = check_trace(TRACE, &["pass", "plan"], &["plan/superbatch"]).unwrap();
        assert_eq!(counts.events, 2);
        assert_eq!(counts.categories["pass"], (1, 0));
        assert_eq!(counts.event("plan/superbatch"), 1);
        assert_eq!(counts.category("kernel"), 0);
    }

    #[test]
    fn names_what_is_missing_or_malformed() {
        let err = check_trace(TRACE, &["kernel"], &["plan/layout"]).unwrap_err();
        assert!(err.contains("kernel, plan/layout"), "{err}");
        let no_dur = TRACE.replace(r#""dur": 2, "#, "");
        let err = check_trace(&no_dur, &[], &[]).unwrap_err();
        assert!(err.contains("has no dur"), "{err}");
        assert!(check_trace("{", &[], &[]).is_err());
    }
}
