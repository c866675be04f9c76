//! Replayable failure corpus.
//!
//! Every fuzz failure is persisted as a small `key=value` text fixture
//! under `tests/corpus/` (no serde in the offline workspace — the format
//! is deliberately trivial). A fixture pins everything needed to re-run
//! the exact oracle check that failed: the shrunk [`GraphSpec`], the
//! algorithm, the harness seed, and the divergence it reproduced.

use std::fs;
use std::path::{Path, PathBuf};

use crate::gen::{GraphSpec, Topology};
use crate::oracle::{Divergence, Oracle};

/// One persisted failing case.
#[derive(Debug, Clone)]
pub struct Case {
    /// The (shrunk) graph that reproduces the failure.
    pub spec: GraphSpec,
    /// Algorithm under test.
    pub algo: String,
    /// Harness seed (sampler seed for the oracle run).
    pub seed: u64,
    /// Frontier count used when driving.
    pub frontier_count: usize,
    /// What diverged when the case was recorded (informational).
    pub note: String,
}

/// Default corpus directory: `tests/corpus/` at the repository root.
pub fn default_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus")
}

impl Case {
    /// Serialize to the fixture format.
    pub fn to_text(&self) -> String {
        format!(
            "# gsampler-fuzz corpus case; replay with:\n\
             #   cargo run -p gsampler-testkit --bin gsampler-fuzz -- --replay <this file>\n\
             topology={}\nnodes={}\nedges={}\nweighted={}\nself_loops={}\n\
             duplicate_edges={}\ndangling={}\ngraph_seed={:#018x}\n\
             algo={}\nseed={:#018x}\nfrontier_count={}\nnote={}\n",
            self.spec.topology.name(),
            self.spec.nodes,
            self.spec.edges,
            self.spec.weighted,
            self.spec.self_loops,
            self.spec.duplicate_edges,
            self.spec.dangling,
            self.spec.seed,
            self.algo,
            self.seed,
            self.frontier_count,
            self.note.replace('\n', " "),
        )
    }

    /// Parse a fixture.
    pub(crate) fn from_text(text: &str) -> Result<Case, String> {
        let get = |key: &str| -> Result<String, String> {
            text.lines()
                .filter(|l| !l.starts_with('#'))
                .find_map(|l| l.strip_prefix(&format!("{key}=")))
                .map(|v| v.trim().to_string())
                .ok_or_else(|| format!("corpus case missing key `{key}`"))
        };
        let parse_u64 = |s: &str| -> Result<u64, String> {
            let t = s.trim_start_matches("0x");
            u64::from_str_radix(t, if s.starts_with("0x") { 16 } else { 10 })
                .map_err(|e| format!("bad number {s}: {e}"))
        };
        let parse_bool =
            |s: &str| -> Result<bool, String> { s.parse().map_err(|_| format!("bad bool {s}")) };
        let spec = GraphSpec {
            topology: Topology::parse(&get("topology")?)
                .ok_or_else(|| "bad topology".to_string())?,
            nodes: parse_u64(&get("nodes")?)? as usize,
            edges: parse_u64(&get("edges")?)? as usize,
            weighted: parse_bool(&get("weighted")?)?,
            self_loops: parse_bool(&get("self_loops")?)?,
            duplicate_edges: parse_bool(&get("duplicate_edges")?)?,
            dangling: parse_bool(&get("dangling")?)?,
            seed: parse_u64(&get("graph_seed")?)?,
        };
        Ok(Case {
            spec,
            algo: get("algo")?,
            seed: parse_u64(&get("seed")?)?,
            frontier_count: parse_u64(&get("frontier_count")?)? as usize,
            note: get("note").unwrap_or_default(),
        })
    }

    /// Stable fixture filename for this case.
    pub fn filename(&self) -> String {
        let mut f = crate::fingerprint::Fingerprint::new();
        f.bytes(self.to_text().as_bytes());
        format!(
            "{}-{:016x}.case",
            self.algo.to_lowercase().replace([' ', '/'], "-"),
            f.finish()
        )
    }

    /// Write the fixture into `dir`, returning its path.
    pub fn save(&self, dir: &Path) -> std::io::Result<PathBuf> {
        fs::create_dir_all(dir)?;
        let path = dir.join(self.filename());
        fs::write(&path, self.to_text())?;
        Ok(path)
    }

    /// Load a fixture file.
    pub fn load(path: &Path) -> Result<Case, String> {
        let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Case::from_text(&text)
    }

    /// Re-run the recorded oracle check (clean pipeline — a replay
    /// passing means the underlying bug is fixed; tests keep replaying
    /// committed fixtures as regression guards).
    pub fn replay(&self) -> Result<(), Divergence> {
        let graph = self.spec.build();
        let frontiers = self.spec.frontiers(self.frontier_count);
        Oracle::new(graph, self.seed).check_algorithm(&self.algo, &frontiers, None)
    }
}

/// Load and replay every `.case` fixture in `dir` (sorted for stable
/// output). Returns the failures.
pub fn replay_all(dir: &Path) -> Result<Vec<(PathBuf, Divergence)>, String> {
    let mut paths: Vec<PathBuf> = match fs::read_dir(dir) {
        Ok(rd) => rd
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "case"))
            .collect(),
        Err(_) => return Ok(Vec::new()), // no corpus yet
    };
    paths.sort();
    let mut failures = Vec::new();
    for path in paths {
        let case = Case::load(&path)?;
        if let Err(d) = case.replay() {
            failures.push((path, d));
        }
    }
    Ok(failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_round_trips() {
        let case = Case {
            spec: GraphSpec {
                topology: Topology::PowerLaw,
                nodes: 24,
                edges: 60,
                weighted: true,
                self_loops: false,
                duplicate_edges: true,
                dangling: false,
                seed: 0xDEAD_BEEF,
            },
            algo: "GraphSAGE".into(),
            seed: 7,
            frontier_count: 8,
            note: "ablation no-fusion diverged".into(),
        };
        let parsed = Case::from_text(&case.to_text()).unwrap();
        assert_eq!(parsed.spec, case.spec);
        assert_eq!(parsed.algo, case.algo);
        assert_eq!(parsed.seed, case.seed);
        assert_eq!(parsed.frontier_count, case.frontier_count);
    }
}
