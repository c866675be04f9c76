//! Edge-list file I/O.
//!
//! A plain-text interchange format so users can bring their own graphs:
//! one edge per line, `src dst [weight]`, `#`-prefixed comment lines and
//! blank lines ignored — the format SNAP distributes its datasets in.

use std::io::{BufRead, Write};
use std::path::Path;

use gsampler_core::Graph;
use gsampler_matrix::NodeId;

/// Result of parsing an edge list: `(num_nodes, edges, any_weighted)`.
pub type ParsedEdgeList = (usize, Vec<(NodeId, NodeId, f32)>, bool);

/// Node-count hint from a `# <N> nodes, <M> edges` header comment (the
/// header [`save_graph`] writes). Returns `None` for ordinary comments.
fn header_num_nodes(comment: &str) -> Option<usize> {
    let mut parts = comment.trim_start_matches('#').split_whitespace();
    let n = parts.next()?.parse::<usize>().ok()?;
    let unit = parts.next()?;
    (unit == "nodes" || unit == "nodes,").then_some(n)
}

fn bad_line(lineno: usize, what: impl std::fmt::Display) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("line {}: {what}", lineno + 1),
    )
}

/// Parse an edge list from a reader. Node count is `max(node id) + 1`,
/// unless `num_nodes` or a `# <N> nodes, ...` header comment (the form
/// [`save_graph`] writes) forces a larger space — the header is what
/// keeps trailing isolated nodes across a save/load round trip.
pub(crate) fn read_edge_list(
    reader: impl BufRead,
    num_nodes: Option<usize>,
) -> std::io::Result<ParsedEdgeList> {
    let mut edges = Vec::new();
    let mut max_node = 0usize;
    let mut header_nodes = 0usize;
    let mut any_weight = false;
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            if let Some(n) = header_num_nodes(trimmed) {
                header_nodes = header_nodes.max(n);
            }
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let parse = |s: Option<&str>, what: &str| -> std::io::Result<u32> {
            let s = s.ok_or_else(|| bad_line(lineno, format_args!("missing {what}")))?;
            s.parse().map_err(|_| {
                // Distinguish a well-formed but too-large id from garbage.
                if !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit()) {
                    bad_line(
                        lineno,
                        format_args!("{what} {s} out of range (node ids must be <= {})", u32::MAX),
                    )
                } else {
                    bad_line(lineno, format_args!("invalid {what}"))
                }
            })
        };
        let u = parse(parts.next(), "source id")?;
        let v = parse(parts.next(), "destination id")?;
        let w = match parts.next() {
            Some(s) => {
                any_weight = true;
                s.parse::<f32>().map_err(|_| {
                    std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("line {}: invalid weight", lineno + 1),
                    )
                })?
            }
            None => 1.0,
        };
        max_node = max_node.max(u as usize).max(v as usize);
        edges.push((u, v, w));
    }
    let n = num_nodes
        .unwrap_or(0)
        .max(header_nodes)
        .max(if edges.is_empty() { 0 } else { max_node + 1 });
    Ok((n, edges, any_weight))
}

/// Load a graph from an edge-list file.
pub fn load_graph(path: impl AsRef<Path>) -> std::io::Result<Graph> {
    let path = path.as_ref();
    let file = std::fs::File::open(path)?;
    let (n, edges, weighted) = read_edge_list(std::io::BufReader::new(file), None)?;
    let name = path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "graph".to_string());
    Graph::from_edges(name, n, &edges, weighted)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
}

/// Write a graph as an edge list (weights included when present).
pub fn save_graph(graph: &Graph, path: impl AsRef<Path>) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "# {} nodes, {} edges",
        graph.num_nodes(),
        graph.num_edges()
    )?;
    let weighted = graph.matrix.data.is_weighted();
    for (r, c, v) in graph.matrix.global_edges() {
        if weighted {
            writeln!(out, "{r} {c} {v}")?;
        } else {
            writeln!(out, "{r} {c}")?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_with_comments_and_weights() {
        let text = "# a comment\n0 1 0.5\n\n2 0\n1 2 2.5\n";
        let (n, edges, weighted) = read_edge_list(text.as_bytes(), None).unwrap();
        assert_eq!(n, 3);
        assert_eq!(edges.len(), 3);
        assert!(weighted);
        assert_eq!(edges[0], (0, 1, 0.5));
        assert_eq!(edges[1], (2, 0, 1.0));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(read_edge_list("0 x\n".as_bytes(), None).is_err());
        assert!(read_edge_list("0\n".as_bytes(), None).is_err());
        assert!(read_edge_list("0 1 nope\n".as_bytes(), None).is_err());
    }

    #[test]
    fn num_nodes_override() {
        let (n, _, _) = read_edge_list("0 1\n".as_bytes(), Some(100)).unwrap();
        assert_eq!(n, 100);
    }

    #[test]
    fn header_preserves_trailing_isolated_nodes() {
        // Regression: `save_graph` writes the node count in a header
        // comment, but `read_edge_list` used to ignore it, so a graph
        // whose highest-ID nodes have no edges shrank on reload.
        let text = "# 7 nodes, 2 edges\n0 1\n2 3\n";
        let (n, edges, _) = read_edge_list(text.as_bytes(), None).unwrap();
        assert_eq!(n, 7);
        assert_eq!(edges.len(), 2);
        // An explicit larger override still wins; the header never
        // shrinks a space the edges require.
        let (n, _, _) = read_edge_list(text.as_bytes(), Some(10)).unwrap();
        assert_eq!(n, 10);
        let (n, _, _) = read_edge_list("# 1 nodes, 1 edges\n0 5\n".as_bytes(), None).unwrap();
        assert_eq!(n, 6);
        // Ordinary comments are not headers.
        let (n, _, _) = read_edge_list("# snap dataset\n0 1\n".as_bytes(), None).unwrap();
        assert_eq!(n, 2);
    }

    #[test]
    fn out_of_range_id_gets_distinct_error() {
        // Regression: ids above u32::MAX were reported as
        // "missing/invalid source id", indistinguishable from garbage.
        let big = (u32::MAX as u64) + 1;
        let err = read_edge_list(format!("{big} 0\n").as_bytes(), None).unwrap_err();
        assert!(
            err.to_string().contains("out of range") && err.to_string().contains("4294967295"),
            "unexpected message: {err}"
        );
        let err = read_edge_list(format!("0 {big}\n").as_bytes(), None).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
        // Ids far beyond u64 are still "out of range", not garbage.
        let err =
            read_edge_list("123456789012345678901234567890 0\n".as_bytes(), None).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
        // Garbage keeps the invalid message.
        let err = read_edge_list("x 0\n".as_bytes(), None).unwrap_err();
        assert!(err.to_string().contains("invalid source id"), "{err}");
        // In-range boundary still parses.
        let (n, _, _) = read_edge_list(format!("{} 0\n", u32::MAX).as_bytes(), None).unwrap();
        assert_eq!(n, u32::MAX as usize + 1);
    }

    #[test]
    fn roundtrip_keeps_isolated_max_id_node() {
        let dir = std::env::temp_dir().join("gsampler_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("isolated.txt");
        // Node 4 (the max ID) has no edges at all.
        let g = Graph::from_edges("iso", 5, &[(0, 1, 1.0), (2, 3, 1.0)], false).unwrap();
        save_graph(&g, &path).unwrap();
        let loaded = load_graph(&path).unwrap();
        assert_eq!(loaded.num_nodes(), 5);
        assert_eq!(loaded.matrix.global_edges(), g.matrix.global_edges());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn roundtrip_through_file() {
        let dir = std::env::temp_dir().join("gsampler_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("toy.txt");
        let g =
            Graph::from_edges("toy", 4, &[(0, 1, 0.5), (2, 3, 1.5), (3, 0, 2.0)], true).unwrap();
        save_graph(&g, &path).unwrap();
        let loaded = load_graph(&path).unwrap();
        assert_eq!(loaded.num_nodes(), 4);
        assert_eq!(loaded.matrix.global_edges(), g.matrix.global_edges());
        std::fs::remove_file(&path).ok();
    }
}
