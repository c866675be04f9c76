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
    // segment (count -> prefix sum -> fill), and slicing the index axis
    // reads one flat table: a list per column, segment, group or id is an
    // allocation per item that the flat buffer exists to avoid.
    for file in [
        SAMPLE,
        "crates/core/src/kernels/slice_sample.rs",
        "crates/matrix/src/reduce.rs",
        "crates/matrix/src/slice.rs",
    ] {
        let text = source(file);
        for nested in ["Vec<Vec<usize>>", "Vec<Vec<NodeId>>"] {
            assert!(!text.contains(nested), "{file} builds a `{nested}`");
        }
    }
}

/// The full text (tests included) of every `.rs` file under `dirs`, each
/// relative to the workspace root; this file is left out, since it names
/// what it bans.
fn sources_under(dirs: &[&str]) -> Vec<(String, String)> {
    let mut files: Vec<String> = Vec::new();
    for dir in dirs {
        if let Some(sub) = dir.strip_prefix("crates/*/") {
            let crates = std::fs::read_dir(root().join("crates")).unwrap();
            for krate in crates {
                let src = format!(
                    "crates/{}/{sub}",
                    krate.unwrap().file_name().to_string_lossy()
                );
                if root().join(&src).is_dir() {
                    files.extend(rust_files(&src));
                }
            }
        } else {
            files.extend(rust_files(dir));
        }
    }
    files.sort();
    files.dedup();
    files.retain(|f| f != "tests/architecture.rs");
    files
        .into_iter()
        .map(|f| (source(&f), f))
        .map(|(t, f)| (f, t))
        .collect()
}

/// Lines of `text` that contain `needle` (`grep -c`).
fn lines_with(text: &str, needle: &str) -> usize {
    text.lines().filter(|l| l.contains(needle)).count()
}

/// The item of `text` whose first line starts with `head`, through its
/// closing `}` at column 0.
fn item<'a>(text: &'a str, head: &str) -> &'a str {
    let at = text
        .find(&format!("\n{head}"))
        .unwrap_or_else(|| panic!("no item `{head}`"))
        + 1;
    let end = text[at..].find("\n}").map_or(text.len(), |e| at + e + 2);
    &text[at..end]
}

const EVERYWHERE: &[&str] = &["crates", "src", "tests", "examples"];
const LIBRARIES: &[&str] = &["crates/*/src", "src"];

#[test]
fn one_environment_knob() {
    // A `GSAMPLER_*` variable is an option: the one left is the pool width
    // (`GSAMPLER_THREADS`). A fault schedule is `gsample --faults`, not a
    // second way in through the environment.
    let mut knobs: Vec<String> = Vec::new();
    for (_, text) in sources_under(LIBRARIES) {
        for (at, _) in text.match_indices("GSAMPLER_") {
            let name: String = text[at..]
                .chars()
                .take_while(|c| c.is_ascii_uppercase() || *c == '_')
                .collect();
            knobs.push(name);
        }
    }
    knobs.sort();
    knobs.dedup();
    assert_eq!(knobs, ["GSAMPLER_THREADS"], "the GSAMPLER_* knobs");
}

#[test]
fn deleted_mechanisms_stay_deleted() {
    // Each of these was a second way to do one job, or a mechanism no
    // workload needed; each was deleted with its callers.
    let banned: &[(&[&str], &[&str], &str)] = &[
        (
            &["watchdog", "WorkerFault::Hang", "WorkerHang"],
            LIBRARIES,
            "a share doing real work cannot be abandoned: slow shares are only observed (pool.region spans), no stall watchdog and no infinite-stall fault",
        ),
        (
            &["prefetch_node_feats", "charge_hidden", "Residency::Partial", "hetero::", "metapath", "to_message_flow_graph"],
            &["crates/*/src", "src", "examples"],
            "one block conversion (`train::sage::blocks_from_sample`), one typed-neighbourhood path (`drivers::hetgnn_neighbors`), no feature prefetch that discards its gather, one host residency variant",
        ),
        (
            &["relabel_rows", "relabel_cols", "survivor_offsets"],
            &["crates", "src", "tests"],
            "the layer-wise path compacts one way: a rename in the input's own format",
        ),
        (
            &["FusedEdgeCombine", "combine_edge_values", "combine_chain", "edge_combine"],
            EVERYWHERE,
            "a bias chain only the node-wise select reads is evaluated inside the pick (`Op::FusedBiasSelect`): no standalone attention-combine kernel, routine or fusion rule",
        ),
        (
            &["prefetch_read", "_mm_prefetch", "calibrated_block", "spmm_with_block", "spmm_baseline"],
            &["crates", "src"],
            "SpMM is one plain traversal: no cache blocking, host cache probe, software prefetch or second kernel kept as a speed reference",
        ),
        (
            &["fn static_set", "fn block_space", "fn superbatch_compatible", "fn block_proof", "fn graph_resident_set", "fn check_inputs"],
            &["crates/*/src"],
            "kind, row/column space, variance, residency and super-batch legality are reads of `gsampler_ir::facts`, never a walk of their own",
        ),
        (
            &["precomputed: Vec<Arc<Value>>"],
            &["crates/core/src"],
            "one memo of hoisted values (`core::hoist::Hoist`): no compiled layer or plan keeps a value list of its own",
        ),
        (
            &["StreamSource", "ColStreams", "segment_subpools", "struct RngPool", "fn subpool("],
            &["crates/*/src"],
            "one counter-based draw (`Key`): no RNG streams or per-column stream bookkeeping",
        ),
        (
            &["fn fold_identity"],
            &["crates/ir/src"],
            "CSE, the plan key and hoist sharing decide \"the same\" by `gsampler_ir::identity`, not an operator byte fold",
        ),
        (
            &["CompactCols", "ReduceAll"],
            &["crates/*/src"],
            "no IR operator that nothing emits",
        ),
        (
            &["proptest!", "prop_assert", "prop_oneof!"],
            EVERYWHERE,
            "one way to write a property test: a seeded `StdRng` case loop",
        ),
        (
            &["arm_deadline", "fn remaining", "deadline_shed"],
            &["crates/*/src"],
            "one way to stop a run, the caller's token in scope: no token re-arming, time-left query or deadline-aware retry shed",
        ),
    ];
    for (names, dirs, reason) in banned {
        for (file, text) in sources_under(dirs) {
            for name in *names {
                assert!(!text.contains(name), "{file} names `{name}`: {reason}");
            }
        }
    }
}

#[test]
fn super_batch_outputs_are_split_not_resliced() {
    // `split_outputs` un-blocks a super-batch's outputs by offsets; slicing
    // or compacting them again would redo work the launch already did.
    let text = source("crates/core/src/kernels/superbatch.rs");
    let split = &text[text.find("\npub fn split_outputs").expect("split_outputs")..];
    for call in ["slice_cols(", "compact_rows(", "global_row_ids("] {
        assert!(
            !split.contains(call),
            "super-batch un-blocking calls `{call}`"
        );
    }
}

#[test]
fn gathers_and_scatters_share_one_loop() {
    // One gather loop (`slice::gather_cols`) and a bounded number of
    // two-buffer scatters: a kernel that scatters for itself is a second
    // gather beside the shared one.
    let count = |dirs: &[&str], what: &str| -> usize {
        sources_under(dirs)
            .iter()
            .map(|(_, t)| lines_with(t, what))
            .sum()
    };
    let select_side = ["crates/matrix/src/sample.rs", "crates/core/src/kernels"];
    let scatters = count(&["crates/core/src/kernels"], "parallel_scatter2(")
        + lines_with(&source(select_side[0]), "parallel_scatter2(");
    assert!(
        scatters <= 1,
        "{scatters} two-buffer scatters in the select and the kernels"
    );
    let everywhere = count(
        &["crates/matrix/src", "crates/core/src"],
        "parallel_scatter2(",
    );
    assert!(
        everywhere <= 8,
        "{everywhere} two-buffer scatters in matrix and core"
    );
    let gathers = count(&["crates/matrix/src", "crates/core/src"], "fn gather_cols");
    assert_eq!(gathers, 1, "the one gather loop, `slice::gather_cols`");
}

#[test]
fn layer_wise_kernels_work_in_their_input_format() {
    // Compaction is a rename in the input's own format (no conversion);
    // `gather_row_bias` hashes nothing; the edge-map-reduce chain clones no
    // structure (`Op::FusedEdgeMap`'s output *is* a matrix: the one clone);
    // reduce and broadcast walk the storage arrays, not the boxed
    // `iter_edges()`.
    let compact = non_test("crates/matrix/src/compact.rs");
    for conversion in ["to_coo()", "into_format", "to_format"] {
        assert!(
            !compact.contains(conversion),
            "compaction converts: `{conversion}`"
        );
    }
    let eltwise = "crates/core/src/kernels/eltwise.rs";
    assert!(!non_test(eltwise).contains("HashMap"), "{eltwise} hashes");
    assert_eq!(
        lines_with(&source(eltwise), "m.data.clone()"),
        1,
        "{eltwise}'s one clone"
    );
    for file in [
        "crates/matrix/src/reduce.rs",
        "crates/matrix/src/broadcast.rs",
    ] {
        assert!(
            !non_test(file).contains("iter_edges()"),
            "{file} walks `iter_edges()`"
        );
    }
    // Pre-processing sinks LADIES' `A ** 2` below the extraction.
    let preprocess = non_test("crates/ir/src/passes/preprocess.rs");
    assert!(
        !preprocess.contains("not implemented"),
        "a pre-processing rule is a stub"
    );
}

#[test]
fn model_driven_path_has_one_sddmm_and_shares_its_inputs() {
    // One SDDMM (`spmm::sddmm_by_id`; `sddmm(pattern` is its identity-ID
    // entry) that walks no boxed edge iterator and clones no old values; a
    // named input is a shared handle (`run_input` copies no table, vector
    // or node list); the unfused edge-value plumbing writes slices, not
    // `Dense::set` per element.
    let spmm = non_test("crates/matrix/src/spmm.rs");
    assert_eq!(lines_with(&spmm, "fn sddmm"), 2, "`fn sddmm*` in spmm.rs");
    let entries: usize = sources_under(&["crates/matrix/src", "crates/core/src"])
        .iter()
        .map(|(_, t)| lines_with(t, "pub fn sddmm(pattern"))
        .sum();
    assert_eq!(entries, 1, "the identity-ID SDDMM entry");
    let matmul = non_test("crates/core/src/kernels/matmul.rs");
    for what in ["fn sddmm", "iter_edges()", "data.clone()"] {
        assert!(!matmul.contains(what), "kernels/matmul.rs has `{what}`");
    }
    let kernels = source("crates/core/src/kernels/mod.rs");
    let run_input = item(&kernels, "pub(crate) fn run_input");
    assert_eq!(
        lines_with(run_input, "Arc<Value>"),
        1,
        "`run_input` returns the shared handle"
    );
    for copy in ["Value::", "to_vec()"] {
        assert!(
            !run_input.contains(copy),
            "`run_input` builds a value: `{copy}`"
        );
    }
    let eltwise = non_test("crates/matrix/src/eltwise.rs");
    assert!(
        !eltwise.contains("out.set("),
        "edge values written one `set` at a time"
    );
}

#[test]
fn bias_on_the_fly_has_one_dot_loop() {
    // The attention dots are the one `dense::dots` the SDDMM runs; the
    // bias a select evaluates draws nothing and folds no maximum itself.
    let dots: usize = library_sources()
        .iter()
        .map(|(_, t)| lines_with(t, "fn dots"))
        .sum();
    assert_eq!(dots, 1, "`fn dots` in the library sources");
    let bias = non_test("crates/matrix/src/bias.rs");
    for what in ["fold(-0", "Rng", "sample_without"] {
        assert!(!bias.contains(what), "bias.rs has `{what}`");
    }
}

#[test]
fn spmm_is_one_plain_traversal() {
    // `spmm` and `spmm_t` over `spmm_lines`, nothing else.
    let spmm = non_test("crates/matrix/src/spmm.rs");
    assert_eq!(lines_with(&spmm, "fn spmm"), 3, "`fn spmm*` in spmm.rs");
}

#[test]
fn one_fact_table_per_program() {
    let facts: usize = library_sources()
        .iter()
        .map(|(_, t)| lines_with(t, "pub fn facts"))
        .sum();
    assert_eq!(facts, 1, "`pub fn facts`: the one fact table");
}

#[test]
fn one_pool_discipline() {
    // Every parallel region claims ranges from one `WorkQueue` in one
    // claim loop, nothing splits work by the thread count, and at most 7
    // `unsafe` lines remain, each directly under a `// SAFETY:` comment.
    let pool = non_test("crates/runtime/src/parallel.rs");
    assert_eq!(lines_with(&pool, "WorkQueue::new()"), 1, "work queues");
    assert_eq!(lines_with(&pool, ".claim("), 1, "claim loops");
    assert!(
        !pool.contains("div_ceil(threads)"),
        "work split by the thread count"
    );
    let (mut unsafe_lines, mut safety) = (0, false);
    for line in pool.lines() {
        if line.trim_start().starts_with("//") {
            safety |= line.contains("SAFETY:");
            continue;
        }
        if line.contains("unsafe") {
            unsafe_lines += 1;
            assert!(
                safety,
                "`unsafe` without a `// SAFETY:` comment above: {line}"
            );
        }
        safety = false;
    }
    assert!(
        unsafe_lines <= 7,
        "{unsafe_lines} `unsafe` lines in the pool"
    );
    // One SplitMix64, under the one counter-based draw.
    let mixers: usize = library_sources()
        .iter()
        .map(|(_, t)| lines_with(t, "fn splitmix64"))
        .sum();
    assert_eq!(mixers, 1, "`fn splitmix64`");
}

#[test]
fn one_window_and_one_ladder() {
    // Every recovery decision (retry, halve, one run per group, streaming,
    // quarantine) lives in `core::window`; serve runs lone requests and
    // packs alike as one window over one `sample_groups` call; `compile.rs`
    // keeps config -> compile -> the single-batch API.
    let serve: String = rust_files("crates/serve/src")
        .iter()
        .map(|f| non_test(f))
        .collect();
    assert!(
        !serve.contains("sample_batch_seeded("),
        "serve runs a batch outside the window"
    );
    assert_eq!(
        lines_with(&serve, "sample_groups("),
        1,
        "serve's `sample_groups` calls"
    );
    let recovering: Vec<String> = sources_under(LIBRARIES)
        .into_iter()
        .filter(|(_, t)| t.contains("fn execute_recovering") || t.contains("degrade_steps += 1"))
        .map(|(f, _)| f)
        .collect();
    assert_eq!(
        recovering,
        ["crates/core/src/window.rs"],
        "where recovery is decided"
    );
    let compile = non_test("crates/core/src/compile.rs").lines().count();
    assert!(
        compile <= 500,
        "compile.rs has {compile} non-test lines (<= 500)"
    );
}

#[test]
fn one_program_identity() {
    // CSE, the plan key and hoist sharing decide "the same" by
    // `gsampler_ir::identity` (the `Debug` rendering); what is left of
    // `fingerprint` is a digest of the rendering.
    let program = source("crates/ir/src/program.rs");
    let at = program.find("pub fn fingerprint").expect("`fingerprint`");
    let two_lines: String = program[at..].lines().take(2).collect();
    assert!(
        two_lines.contains(r#"format!("{self:?}")"#),
        "`fingerprint` digests the rendering"
    );
    for file in [
        "crates/ir/src/program.rs",
        "crates/core/src/plandb.rs",
        "crates/core/src/compile.rs",
    ] {
        let text = source(file);
        let calls = text.match_indices("identity(").filter(|&(at, _)| {
            let before = text[..at].chars().next_back();
            !before.is_some_and(|c| c == '_' || c.is_ascii_lowercase())
        });
        assert!(calls.count() > 0, "{file} does not decide by `identity`");
    }
    let plandb = non_test("crates/core/src/plandb.rs").lines().count();
    assert!(
        plandb <= 240,
        "plandb.rs has {plandb} non-test lines (<= 240)"
    );
}

#[test]
fn only_two_offline_stand_ins() {
    // The only offline stand-ins are for `rand` and `parking_lot`, and no
    // manifest names a property-testing framework.
    let mut compat: Vec<String> = std::fs::read_dir(root().join("crates/compat"))
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    compat.sort();
    assert_eq!(compat, ["parking_lot", "rand"], "crates/compat");
    let mut pending = vec![root().to_path_buf()];
    while let Some(dir) = pending.pop() {
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if path.is_dir() {
                if name != "target" && !name.starts_with('.') {
                    pending.push(path);
                }
            } else if name == "Cargo.toml" || name == "Cargo.lock" {
                let text = std::fs::read_to_string(&path).unwrap();
                assert!(
                    !text.contains("proptest"),
                    "{} names proptest",
                    path.display()
                );
            }
        }
    }
}

#[test]
fn one_stop_path() {
    // The caller's token installed with `cancel::scope` is the one way to
    // stop a run: no deadline or token in the sampler config, and a
    // transient failure is retried at once (no backoff sleep). `gsample`
    // installs its `--deadline-ms` token once, around each epoch.
    let compile = source("crates/core/src/compile.rs");
    let config = item(&compile, "pub struct SamplerConfig");
    for field in ["pub deadline", "pub cancel"] {
        assert!(!config.contains(field), "`SamplerConfig` has `{field}`");
    }
    for (file, text) in sources_under(&["crates/core/src"]) {
        for wait in ["backoff", "thread::sleep"] {
            assert!(!text.contains(wait), "{file} waits: `{wait}`");
        }
    }
    let gsample = source("crates/bench/src/bin/gsample.rs");
    assert_eq!(
        lines_with(&gsample, "cancel::scope("),
        1,
        "`gsample`'s deadline scopes"
    );
}

#[test]
fn one_drive_per_algorithm() {
    // `gsampler_algos::registry` is the one place that binds and drives an
    // algorithm (`AlgoSpec::bindings`, `AlgoSpec::drive`). Elsewhere a
    // `Driver` variant is only compared against, never matched, and no
    // algorithm that shares its driver with another is picked out by name:
    // those are the names a copy of the drive would have to compare.
    const REGISTRY: &str = "crates/algos/src/registry.rs";
    let told_apart = [
        "DeepWalk", "Node2Vec", "PinSAGE", "HetGNN", "SEAL", "ShaDow", "GCN-BS", "Thanos", "PASS",
        "AS-GCN",
    ];
    let scope = ["crates/*/src", "crates/*/tests", "tests", "src", "examples"];
    for (file, text) in sources_under(&scope) {
        if file == REGISTRY {
            continue;
        }
        let code: Vec<&str> = (text.lines())
            .filter(|l| !l.trim_start().starts_with("//"))
            .collect();
        let code = code.join("\n");
        for (at, _) in code.match_indices("Driver::") {
            let before = code[..at].trim_end();
            let before = before.strip_suffix("Some(").unwrap_or(before).trim_end();
            let line = code[at..].lines().next().unwrap_or_default();
            assert!(
                before.ends_with("==") || before.ends_with("!="),
                "{file} matches a `Driver` variant outside the registry: `{line}`"
            );
        }
        for name in told_apart {
            let quoted = format!("\"{name}\"");
            for (at, _) in code.match_indices(&quoted) {
                let before = code[..at].trim_end();
                let after = code[at + quoted.len()..].trim_start();
                let picked =
                    before.ends_with("==") || before.ends_with("!=") || after.starts_with("=>");
                assert!(!picked, "{file} picks {name} by name");
            }
        }
    }
}
