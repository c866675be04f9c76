//! The window executor, the one owner of recovery. A window of
//! mini-batches runs as one block-diagonal task (gSampler §4.4):
//! `execute_recovering` retries one execution and streams a lone group
//! that does not fit (§4.5), [`Sampler::window`] splits a failed window
//! and answers per group, and [`Sampler::drive_epoch`] cuts epochs into
//! windows. Epochs, walk epochs and serve packs all run on the window.

use std::sync::Arc;
use std::time::Instant;

use gsampler_engine::{Device, ExecStats, FaultReport, MemoryTracker};
use gsampler_ir::Facts;
use gsampler_matrix::NodeId;
use rand::rngs::StdRng;

use crate::compile::{GraphSample, Sampler};
use crate::error::{Error, Result};
use crate::exec::{self, Bindings};
use crate::graph::Graph;
use crate::value::Value;

/// How the epoch drivers respond to faults: bounded retry for transient
/// failures, a degradation ladder for memory pressure, and optional
/// quarantine of batches that exhaust both.
///
/// Recovery is invisible in the samples by construction: a retried
/// execution restores the RNG checkpoint taken before the failed attempt,
/// and every mini-batch keeps its own RNG stream when its window is
/// regrouped, so a run that retries, degrades or quarantines delivers the
/// clean run's samples (see [`Sampler`]) for every batch it delivers.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryPolicy {
    /// Maximum plain retries per execution for transient faults
    /// (injected kernel failures, worker-pool panics), each run at once
    /// from the RNG checkpoint. 0 = fail fast.
    pub max_retries: u32,
    /// Allow the degradation ladder: halve the super-batch factor down to
    /// per-minibatch execution under memory pressure (then fall back to
    /// the streaming (spill) layout), and run a window's mini-batches
    /// alone when the window fails otherwise.
    pub allow_degrade: bool,
    /// Skip (rather than fail the epoch on) a mini-batch that exhausts
    /// retries and degradation.
    pub quarantine: bool,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_retries: 3,
            allow_degrade: true,
            quarantine: false,
        }
    }
}

impl RecoveryPolicy {
    /// Fail-fast policy: no retries, no degradation, no quarantine —
    /// pre-recovery behavior, and what strict benchmarking wants.
    pub fn disabled() -> RecoveryPolicy {
        RecoveryPolicy {
            max_retries: 0,
            allow_degrade: false,
            quarantine: false,
        }
    }
}

/// Everything one epoch produced: modeled device time plus session stats.
#[derive(Debug, Clone)]
pub struct EpochReport {
    /// Modeled device time for the epoch, in seconds — the headline
    /// "sampling time" quantity of the paper's figures.
    pub modeled_time: f64,
    /// Host wall-clock time actually spent emulating, in seconds.
    pub wall_time: f64,
    /// Number of mini-batches processed.
    pub batches: usize,
    /// Execution statistics (kernel launches, bytes, SM utilization).
    pub stats: ExecStats,
    /// Device memory accounting (peak = paper Table 9's "Memory").
    pub memory: MemoryTracker,
    /// Super-batch factor used.
    pub super_batch: usize,
    /// Injected faults and recovery actions observed during the epoch
    /// (a copy of `stats.faults`; all zero on a healthy run).
    pub faults: FaultReport,
}

/// Run one program execution under `policy`: bounded retry, at once, for
/// transient faults, and — for single-group executions, the bottom of
/// the degradation ladder — a switch to the streaming (spill) layout on
/// memory pressure. Every retry first restores the RNG checkpoint taken
/// before the attempt, so a recovered execution is bit-identical to a
/// clean one.
#[allow(clippy::too_many_arguments)]
pub(crate) fn execute_recovering(
    policy: &RecoveryPolicy,
    program: &gsampler_ir::Program,
    facts: &[Facts],
    graph: &Graph,
    graph_value: &Arc<Value>,
    groups: &[Vec<NodeId>],
    bindings: &Bindings,
    precomputed: &[Arc<Value>],
    device: &Device,
    rngs: &mut [StdRng],
) -> Result<Vec<Vec<Value>>> {
    let checkpoint = rngs.to_vec();
    let mut retries = 0u32;
    let mut tried_spill = false;
    loop {
        match exec::execute(
            program,
            facts,
            graph,
            graph_value,
            groups,
            bindings,
            precomputed,
            device,
            rngs,
        ) {
            Ok(out) => return Ok(out),
            Err(e) if e.is_transient() && retries < policy.max_retries => {
                // A fired cancel token outranks the retry budget: restore
                // the RNG (a later rerun of this execution is bit-identical
                // to a clean run) and surface the cancellation, not the
                // fault it interrupted.
                if let Some(cause) = gsampler_runtime::cancel::poll() {
                    rngs.clone_from_slice(&checkpoint);
                    return Err(Error::from_cancel(cause));
                }
                retries += 1;
                device.note_faults(|f| f.kernel_retries += 1);
                gsampler_obs::event(
                    "fault",
                    "retry",
                    &[("attempt", gsampler_obs::Arg::from(retries as f64))],
                );
                rngs.clone_from_slice(&checkpoint);
            }
            Err(Error::Oom(oom))
                if policy.allow_degrade
                    && groups.len() <= 1
                    && !tried_spill
                    && !device.spill_enabled() =>
            {
                // Bottom rung of the ladder: per-minibatch execution still
                // does not fit, so stream over-budget values host-side at
                // PCIe cost (gSampler §4.5's UVA fallback) and re-run.
                tried_spill = true;
                device.enter_spill();
                device.note_faults(|f| f.degrade_steps += 1);
                gsampler_obs::event(
                    "degrade",
                    "streaming",
                    &[(
                        "requested_bytes",
                        gsampler_obs::Arg::from(oom.requested as f64),
                    )],
                );
                rngs.clone_from_slice(&checkpoint);
            }
            Err(e) => return Err(e),
        }
    }
}

impl Sampler {
    /// Run one window of groups `0..rngs.len()` and return one result per
    /// group, in order. `run(idx, streams)` executes groups `idx` together
    /// on fresh copies of their `rngs` and returns one item per group, so
    /// a group's item never depends on the rung that produced it. A failed
    /// run is answered under the configured [`RecoveryPolicy`]:
    ///
    /// 1. if the caller's cancel token has fired, each of its groups gets
    ///    the cancellation;
    /// 2. on memory pressure over several groups, `*factor` is halved (and
    ///    stays halved for the caller's later windows) and the groups
    ///    re-run in chunks of the new factor;
    /// 3. on any other failure over several groups, each runs alone;
    /// 4. otherwise — one group, or no `allow_degrade` — the run's error is
    ///    each of its groups' result.
    pub fn window<T>(
        &self,
        rngs: &[StdRng],
        factor: &mut usize,
        mut run: impl FnMut(&[usize], &mut [StdRng]) -> Result<Vec<T>>,
    ) -> Vec<Result<T>> {
        let groups: Vec<usize> = (0..rngs.len()).collect();
        let mut out = Vec::with_capacity(groups.len());
        self.rung(&groups, rngs, factor, &mut run, &mut out);
        out
    }

    /// Run `chunk` once and, if it fails, walk the rest of the ladder for
    /// it, appending one result per group of `chunk` to `out`.
    fn rung<T>(
        &self,
        chunk: &[usize],
        rngs: &[StdRng],
        factor: &mut usize,
        run: &mut impl FnMut(&[usize], &mut [StdRng]) -> Result<Vec<T>>,
        out: &mut Vec<Result<T>>,
    ) {
        let mut streams: Vec<StdRng> = chunk.iter().map(|&g| rngs[g].clone()).collect();
        let e = match run(chunk, &mut streams) {
            Ok(items) => {
                assert_eq!(items.len(), chunk.len(), "one item per group");
                return out.extend(items.into_iter().map(Ok));
            }
            Err(e) => e,
        };
        let cancel = gsampler_runtime::cancel::poll();
        if chunk.len() == 1 || !self.config.recovery.allow_degrade || cancel.is_some() {
            let e = cancel.map_or(e, Error::from_cancel);
            return out.extend(chunk.iter().map(|_| Err(e.clone())));
        }
        if e.is_oom() {
            let from = *factor;
            *factor = (from / 2).max(1);
            self.device.note_faults(|f| {
                f.degrade_steps += 1;
                f.batch_retries += 1;
            });
            gsampler_obs::event(
                "degrade",
                "superbatch.factor",
                &[
                    ("from", gsampler_obs::Arg::from(from as f64)),
                    ("to", gsampler_obs::Arg::from(*factor as f64)),
                ],
            );
        }
        // Re-run one group at a time, or under memory pressure in chunks of
        // the factor current when each starts: a chunk that halves again
        // shrinks the ones after it too.
        let mut rest = chunk;
        while !rest.is_empty() {
            let size = if e.is_oom() { *factor } else { 1 };
            let (head, tail) = rest.split_at(size.min(rest.len()));
            self.rung(head, rngs, factor, run, out);
            rest = tail;
        }
    }

    /// Run one epoch: go through `seeds` once in mini-batches of the
    /// configured size, sampling `super_batch` batches per execution
    /// ([`Sampler::drive_epoch`] is the window loop). `consume` is called
    /// once per mini-batch with its sample. Mini-batch `b` always draws
    /// from `pool.subpool(epoch).stream(b)`, so super-batched, degraded
    /// and quarantining epochs deliver the plain factor-1 epoch's samples.
    pub fn run_epoch_with(
        &self,
        seeds: &[NodeId],
        bindings: &Bindings,
        epoch: u64,
        consume: impl FnMut(usize, GraphSample),
    ) -> Result<EpochReport> {
        self.drive_epoch(
            seeds,
            epoch,
            |groups, rngs| self.sample_groups(groups, bindings, rngs),
            consume,
        )
    }

    /// The epoch driver: cut `seeds` into mini-batches of the configured
    /// size and hand `run_window` up to `super_batch` of them at a time,
    /// as one frontier group per batch plus one RNG stream per group —
    /// batch `b`'s is always `pool.subpool(epoch).stream(b)`, however
    /// windows are regrouped. `run_window` returns one item per group,
    /// each passed to `consume` with its mini-batch index.
    ///
    /// Each window runs on [`Sampler::window`]. A mini-batch that still
    /// fails is quarantined (skipped, counted in the [`FaultReport`]) when
    /// the policy allows; otherwise it fails the epoch, after the batches
    /// before it were consumed. A cancellation always stops the epoch.
    /// Mini-batch indices stay stable across quarantines.
    pub fn drive_epoch<T>(
        &self,
        seeds: &[NodeId],
        epoch: u64,
        mut run_window: impl FnMut(Vec<Vec<NodeId>>, &mut [StdRng]) -> Result<Vec<T>>,
        mut consume: impl FnMut(usize, T),
    ) -> Result<EpochReport> {
        self.device.reset();
        let mut epoch_span = gsampler_obs::span("epoch", "run_epoch");
        epoch_span.arg("epoch", epoch);
        epoch_span.arg("seeds", seeds.len());
        epoch_span.arg("super_batch", self.super_batch);
        // Deadline plane: the caller's scoped token bounds the epoch. Every
        // window boundary, kernel dispatch and pool chunk claim below polls
        // it; pool workers inherit it through the dispatched job.
        stop_bracket(|| {
            let wall_start = Instant::now();
            let batch = self.config.batch_size.max(1);
            let quarantine = self.config.recovery.quarantine;
            let pool = self.pool.subpool(epoch);
            let mut factor = self.super_batch.max(1);
            let mut batch_idx = 0usize;
            let mut start = 0usize;
            while start < seeds.len() {
                // Window boundary is the coarse cancellation check point: RNG
                // streams are derived fresh per batch, so stopping here needs
                // no RNG restore — a rerun replays the remaining batches
                // bit-identically.
                if let Some(cause) = gsampler_runtime::cancel::poll() {
                    return Err(Error::from_cancel(cause));
                }
                let groups: Vec<&[NodeId]> = seeds[start..].chunks(batch).take(factor).collect();
                start += groups.iter().map(|g| g.len()).sum::<usize>();
                let rngs: Vec<StdRng> = (batch_idx..batch_idx + groups.len())
                    .map(|b| pool.stream(b as u64))
                    .collect();
                let results = self.window(&rngs, &mut factor, |idx, rngs| {
                    run_window(idx.iter().map(|&g| groups[g].to_vec()).collect(), rngs)
                });
                for result in results {
                    match result {
                        Ok(item) => consume(batch_idx, item),
                        Err(e) if quarantine && !e.is_cancelled() => {
                            // The batch exhausted retries and degradation: skip
                            // it, keep the epoch alive. Batch numbering stays
                            // stable — the skipped index is simply never given
                            // to `consume`.
                            self.device.note_faults(|f| f.quarantined_batches += 1);
                            gsampler_obs::event(
                                "degrade",
                                "quarantine",
                                &[
                                    ("batch", gsampler_obs::Arg::from(batch_idx as f64)),
                                    ("error", gsampler_obs::Arg::from(e.to_string())),
                                ],
                            );
                        }
                        Err(e) => return Err(e),
                    }
                    batch_idx += 1;
                }
            }
            epoch_span.arg("final_super_batch", factor);
            let mut stats = self.device.stats();
            // Compile-time counters survive the per-epoch device reset.
            stats.plan_db = self.plan_db_stats;
            Ok(EpochReport {
                modeled_time: stats.total_time,
                wall_time: wall_start.elapsed().as_secs_f64(),
                batches: batch_idx,
                faults: stats.faults,
                stats,
                memory: self.device.memory(),
                super_batch: self.super_batch,
            })
        })
    }

    /// Run one epoch, discarding the samples (pure timing runs).
    pub fn run_epoch(
        &self,
        seeds: &[NodeId],
        bindings: &Bindings,
        epoch: u64,
    ) -> Result<EpochReport> {
        self.run_epoch_with(seeds, bindings, epoch, |_, _| {})
    }
}

/// Run one epoch, `run`, under the stop token the caller installed with
/// `cancel::scope`: a `deadline/set` event when that token carries a
/// budget, then a `deadline/exceeded` or `cancel/fired` event if `run`
/// stops on it. Every epoch driver brackets its run with this —
/// [`Sampler::drive_epoch`] and the walk epochs alike — so a stopped run
/// leaves the same post-mortem whichever loop it ran.
pub fn stop_bracket<T>(run: impl FnOnce() -> Result<T>) -> Result<T> {
    if let Some(budget_ms) = gsampler_runtime::cancel::current().and_then(|t| t.budget_ms()) {
        gsampler_obs::event(
            "deadline",
            "set",
            &[("budget_ms", gsampler_obs::Arg::from(budget_ms as f64))],
        );
    }
    run().map_err(note_stop)
}

/// Trace why an epoch stopped early (deadline or cancel) and pass the
/// error through.
fn note_stop(e: Error) -> Error {
    match &e {
        Error::DeadlineExceeded {
            budget_ms,
            elapsed_ms,
        } => gsampler_obs::event(
            "deadline",
            "exceeded",
            &[
                ("budget_ms", gsampler_obs::Arg::from(*budget_ms as f64)),
                ("elapsed_ms", gsampler_obs::Arg::from(*elapsed_ms as f64)),
            ],
        ),
        Error::Cancelled(_) => gsampler_obs::event(
            "cancel",
            "fired",
            &[("error", gsampler_obs::Arg::from(e.to_string()))],
        ),
        _ => {}
    }
    e
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;

    use rand::Rng;

    use super::*;
    use crate::builder::LayerBuilder;
    use crate::compile::{compile, SamplerConfig};

    fn sampler(recovery: RecoveryPolicy) -> Sampler {
        let graph = Graph::from_edges("toy", 3, &[(1, 0, 1.0), (2, 1, 1.0)], false).unwrap();
        let b = LayerBuilder::new();
        let sample = b
            .graph()
            .slice_cols(&b.frontiers())
            .individual_sample(1, None);
        b.output(&sample);
        let config = SamplerConfig {
            recovery,
            ..SamplerConfig::new()
        };
        compile(Arc::new(graph), vec![b.build()], config).unwrap()
    }

    fn streams(n: u64) -> Vec<StdRng> {
        let pool = gsampler_engine::RngPool::new(7);
        (0..n).map(|b| pool.stream(b)).collect()
    }

    fn oom() -> Error {
        Error::Oom(gsampler_engine::OomError {
            requested: 2,
            live: 1,
            budget: 2,
        })
    }

    /// Runs the ladder with `fail(chunk)` deciding each call's error,
    /// recording every call's chunk; a group's item is its index.
    fn ladder(
        s: &Sampler,
        groups: u64,
        factor: &mut usize,
        fail: impl Fn(&[usize]) -> Option<Error>,
    ) -> (Vec<Result<usize>>, Vec<Vec<usize>>) {
        let calls = RefCell::new(Vec::new());
        let results = s.window(&streams(groups), factor, |idx, _| {
            calls.borrow_mut().push(idx.to_vec());
            fail(idx).map_or_else(|| Ok(idx.to_vec()), Err)
        });
        (results, calls.into_inner())
    }

    #[test]
    fn an_oom_halves_the_factor_once_and_reruns_in_halves() {
        let s = sampler(RecoveryPolicy::default());
        let mut factor = 4;
        let (results, calls) = ladder(&s, 4, &mut factor, |idx| (idx.len() > 2).then(oom));
        assert_eq!(factor, 2, "the factor stays halved");
        assert_eq!(calls, [vec![0, 1, 2, 3], vec![0, 1], vec![2, 3]]);
        assert_eq!(
            results.into_iter().map(Result::unwrap).collect::<Vec<_>>(),
            [0, 1, 2, 3]
        );
        let faults = s.device().stats().faults;
        assert_eq!((faults.degrade_steps, faults.batch_retries), (1, 1));
    }

    #[test]
    fn any_other_failure_isolates_the_failing_group() {
        let s = sampler(RecoveryPolicy::default());
        let mut factor = 3;
        let (results, calls) = ladder(&s, 3, &mut factor, |idx| {
            idx.contains(&1)
                .then(|| Error::Transient("poisoned".into()))
        });
        assert_eq!(calls, [vec![0, 1, 2], vec![0], vec![1], vec![2]]);
        assert!(matches!(
            results[..],
            [Ok(0), Err(Error::Transient(_)), Ok(2)]
        ));
        assert_eq!(factor, 3, "only memory pressure halves the factor");
        assert!(!s.device().stats().faults.any());
    }

    #[test]
    fn a_fired_caller_token_stops_the_ladder() {
        let s = sampler(RecoveryPolicy::default());
        let token = gsampler_runtime::CancelToken::new();
        token.cancel();
        let _scope = gsampler_runtime::cancel::scope(token);
        let mut factor = 4;
        let (results, calls) = ladder(&s, 4, &mut factor, |_| Some(oom()));
        assert_eq!(calls.len(), 1, "no rung after a cancellation");
        assert!(results
            .iter()
            .all(|r| r.as_ref().is_err_and(Error::is_cancelled)));
        assert_eq!(factor, 4);
    }

    #[test]
    fn every_rung_starts_from_the_checkpointed_streams() {
        let s = sampler(RecoveryPolicy::default());
        let checkpoint = streams(4);
        let firsts: Vec<u64> = checkpoint.iter().map(|r| r.clone().gen()).collect();
        let mut seen = Vec::new();
        let mut factor = 4;
        s.window(&checkpoint, &mut factor, |idx, rngs| {
            for (&g, rng) in idx.iter().zip(rngs.iter_mut()) {
                seen.push((g, rng.gen::<u64>()));
            }
            match idx.len() {
                4 => Err(oom()),
                2 => Err(Error::Transient("again".into())),
                _ => Ok(idx.to_vec()),
            }
        });
        // One full run, two halves, then four lone runs.
        assert_eq!(seen.len(), 4 + 4 + 4);
        assert!(seen.iter().all(|&(g, first)| first == firsts[g]));
    }

    #[test]
    fn a_disabled_policy_never_splits_a_window() {
        let s = sampler(RecoveryPolicy::disabled());
        let mut factor = 4;
        let (results, calls) = ladder(&s, 4, &mut factor, |_| Some(oom()));
        assert_eq!(calls.len(), 1);
        assert!(results.iter().all(|r| r.as_ref().is_err_and(Error::is_oom)));
        assert_eq!(factor, 4);
    }
}
