//! Architecture invariants of the source tree, each a named assertion that
//! states its reason: what the code is allowed to contain, not what it
//! computes. They read the workspace's source text, so they hold for every
//! build and cost no run time.

use std::path::Path;

/// The workspace root.
fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The text of `path`, relative to the workspace root.
fn source(path: &str) -> String {
    let full = root().join(path);
    std::fs::read_to_string(&full).unwrap_or_else(|e| panic!("{}: {e}", full.display()))
}

/// `path`'s text above its first `#[cfg(test)]` line: the non-test code.
fn non_test(path: &str) -> String {
    let text = source(path);
    match text.find("\n#[cfg(test)]") {
        Some(at) => text[..at].to_string(),
        None => text,
    }
}

/// Every `.rs` file under `dir` (relative to the workspace root), sorted.
fn rust_files(dir: &str) -> Vec<String> {
    let mut files = Vec::new();
    let mut pending = vec![root().join(dir)];
    while let Some(at) = pending.pop() {
        for entry in std::fs::read_dir(&at).unwrap_or_else(|e| panic!("{}: {e}", at.display())) {
            let path = entry.unwrap().path();
            if path.is_dir() {
                pending.push(path);
            } else if path.extension().is_some_and(|x| x == "rs") {
                files.push(path.strip_prefix(root()).unwrap().display().to_string());
            }
        }
    }
    files.sort();
    files
}

/// The library sources of every workspace crate, non-test parts only.
fn library_sources() -> Vec<(String, String)> {
    let crates = std::fs::read_dir(root().join("crates")).unwrap();
    let mut dirs: Vec<String> = crates
        .map(|e| format!("crates/{}/src", e.unwrap().file_name().to_string_lossy()))
        .filter(|d| root().join(d).is_dir())
        .collect();
    dirs.sort();
    let files = dirs.iter().flat_map(|d| rust_files(d));
    files
        .map(|f| (non_test(&f), f))
        .map(|(text, f)| (f, text))
        .collect()
}

/// The calls of the free function `name` in `text`: `name(` not preceded
/// by an identifier character, a `.` or `fn `.
fn calls(text: &str, name: &str) -> usize {
    let pattern = format!("{name}(");
    text.match_indices(&pattern)
        .filter(|&(at, _)| {
            let before = &text[..at];
            let ident = before
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_' || c == '.');
            !ident && !before.ends_with("fn ")
        })
        .count()
}

/// The top-level items of `text` by name (`fn`, `struct`, `trait`, `impl`
/// lines at column 0 start one), each with its code, comments left out.
fn items(text: &str) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = Vec::new();
    for line in text.lines() {
        let head = line
            .trim_start_matches("pub ")
            .trim_start_matches("pub(crate) ");
        let name = ["fn ", "struct ", "trait ", "impl"]
            .iter()
            .find_map(|kw| head.strip_prefix(kw))
            .map(|rest| rest.split(['(', '<', ' ', '{']).find(|s| !s.is_empty()));
        match name {
            Some(name) if !line.starts_with(' ') => {
                out.push((name.unwrap_or("impl").to_string(), String::new()))
            }
            _ => {}
        }
        match out.last_mut() {
            Some((_, body)) if !line.trim_start().starts_with("//") => {
                body.push_str(line);
                body.push('\n');
            }
            _ => {}
        }
    }
    out
}

const SAMPLE: &str = "crates/matrix/src/sample.rs";

#[test]
fn selection_draws_in_one_routine() {
    // Both of Table 4's select operators draw through `sample::select`: the
    // draw primitives are called from it and from the primitives
    // themselves only (`weighted_sample_without_replacement` is the ES
    // selection in key order, the reference the select is tested against),
    // so a second select routine with its own draw loop fails here.
    let primitives = ["smallest_keys", "fill_uniform_sample_without_replacement"];
    let allowed = ["select", "weighted_sample_without_replacement"];
    for (item, body) in items(&non_test(SAMPLE)) {
        for p in primitives {
            let ok = calls(&body, p) == 0
                || allowed.contains(&item.as_str())
                || primitives.contains(&item.as_str());
            assert!(
                ok,
                "`{item}` in {SAMPLE} calls the draw primitive `{p}`: draw through `select`"
            );
        }
        let draws = body.contains(".unit(") || body.contains(".below(") || body.contains(".draw(");
        assert!(
            !draws || item == "select" || primitives.contains(&item.as_str()),
            "`{item}` in {SAMPLE} draws from a key itself: draw through `select`"
        );
    }
    // Floyd's selection runs in place in `select` alone; its `HashSet`
    // reference lives in the matrix crate's property tests.
    let sources = library_sources();
    let floyd: usize = sources
        .iter()
        .map(|(_, text)| calls(text, "fill_uniform_sample_without_replacement"))
        .sum();
    assert_eq!(
        floyd, 1,
        "calls of Floyd's selection in the library sources"
    );
    let reference = "fn uniform_sample_without_replacement";
    let copies = sources.iter().filter(|(_, text)| text.contains(reference));
    assert_eq!(copies.count(), 0, "a library copy of Floyd's reference");
}

#[test]
fn one_select_and_one_collective_routine_are_defined() {
    // One `fn select` in the workspace, one collective selector and one
    // collective entry over segments: a copy beside them is a second way
    // to select, and nothing keeps the two in step.
    let sources = library_sources();
    let count =
        |what: &str| -> usize { sources.iter().map(|(_, t)| t.matches(what).count()).sum() };
    for (what, n) in [
        ("fn select<", 1),
        ("fn select(", 1),
        ("fn collective_select(", 1),
        ("fn collective_sample_segments(", 1),
        ("fn pick_columns", 0),
    ] {
        assert_eq!(count(what), n, "`{what}` in the library sources");
    }
    // The `fn select(` is the eager baseline's method, which runs the
    // registry's select kernel.
    let eager = non_test("crates/baselines/src/eager.rs");
    assert_eq!(eager.matches("fn select(").count(), 1, "the eager `select`");
}

#[test]
fn the_select_kernels_call_the_one_select() {
    // The node-wise kernels reach `select` through `sample_columns` (the
    // matrix's own columns, a materialized or per-edge bias) and the fused
    // extract-select (the frontiers' columns); the collective selector
    // calls it once. No other library code picks.
    let kernels = non_test("crates/core/src/kernels/slice_sample.rs");
    assert_eq!(
        calls(&kernels, "select"),
        1,
        "the fused extract-select's select"
    );
    assert_eq!(
        calls(&kernels, "sample_columns"),
        1,
        "the fused bias select's pick"
    );
    assert_eq!(
        calls(&kernels, "individual_sample"),
        1,
        "`Op::IndividualSample`'s pick"
    );
    let sample = non_test(SAMPLE);
    for (item, body) in items(&sample) {
        let n = calls(&body, "select");
        let expected = usize::from(item == "sample_columns" || item == "collective_select");
        assert_eq!(n, expected, "`select` calls in `{item}`");
    }
    for (file, text) in library_sources() {
        if file != SAMPLE && !file.ends_with("kernels/slice_sample.rs") {
            assert_eq!(calls(&text, "select"), 0, "{file} calls `select`");
        }
    }
}

#[test]
fn no_select_takes_replace() {
    // Every select is without replacement; a `replace` flag on a select op
    // or routine is a second semantics that no program reaches.
    let op = non_test("crates/ir/src/op.rs");
    for variant in [
        "IndividualSample {",
        "FusedExtractSelect {",
        "FusedBiasSelect {",
    ] {
        let at = op
            .find(&format!("    {variant}\n"))
            .unwrap_or_else(|| panic!("`Op::{variant}` not found"));
        let fields = &op[at..at + op[at..].find("\n    },").unwrap()];
        assert!(
            !fields.contains("replace"),
            "`Op::{variant} .. }}` has a `replace` field: selection is without replacement"
        );
    }
    for (file, text) in library_sources() {
        assert!(
            !text.contains("replace: bool"),
            "{file} takes `replace: bool`: selection is without replacement"
        );
    }
}

#[test]
fn selection_keeps_no_per_segment_lists() {
    // The select and the layer-wise kernels fill one flat buffer segment by
    // segment (count -> prefix sum -> fill): a list per column, segment or
    // group is an allocation per item that the flat buffer exists to avoid.
    for file in [
        SAMPLE,
        "crates/core/src/kernels/slice_sample.rs",
        "crates/matrix/src/reduce.rs",
    ] {
        let text = source(file);
        for nested in ["Vec<Vec<usize>>", "Vec<Vec<NodeId>>"] {
            assert!(!text.contains(nested), "{file} builds a `{nested}`");
        }
    }
}
