//! The epoch server: a single scheduler thread drains a shared queue of
//! admitted requests and serves them, coalescing packable requests from
//! different tenants into one block-diagonal super-batch.
//!
//! Correctness contract: every reply is **bit-identical** to what the
//! tenant would get calling [`Sampler::sample_batch_seeded`] directly on
//! its own session, regardless of which co-tenants shared the
//! super-batch. This holds because:
//!
//! - packing only groups requests whose sessions compiled structurally
//!   identical plans (same algorithm, same batch size, same opt config,
//!   shared plan database), and whose programs pass
//!   [`Sampler::pack_exact`] (every output provably scatters back
//!   exactly);
//! - [`Sampler::sample_groups`] gives every group its own RNG stream:
//!   group `b` draws only from that tenant's own `RngPool` stream, the
//!   same stream a solo call would use.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Instant;

use gsampler_core::Graph;
use gsampler_core::{Bindings, DeviceProfile, GraphSample, PlanDb, PlanDbStats, RecoveryPolicy};
use gsampler_engine::faults::{self, FaultSpec};
use gsampler_matrix::NodeId;

use crate::admission::Admission;
use crate::error::{Result, ServeError};
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::session::{Session, TenantSpec};

/// Server construction knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Admission budget in bytes: the sum of estimated transient bytes of
    /// all queued-or-executing requests may not exceed this.
    pub budget_bytes: u64,
    /// Enable cross-request super-batching. Off, every request runs solo
    /// (the ablation baseline for the serving benchmark).
    pub batching: bool,
    /// Most requests packed into one super-batch execution.
    pub max_pack: usize,
    /// Fault-recovery policy installed into every tenant session. With
    /// `quarantine` set, a session whose request exhausts recovery is
    /// quarantined (subsequent requests get a typed error) instead of
    /// poisoning the server.
    pub recovery: RecoveryPolicy,
    /// Device profile every tenant session models.
    pub device: DeviceProfile,
    /// Deadline applied to every request that does not carry its own
    /// (via [`EpochServer::submit_with_deadline`]). A request past its
    /// deadline is shed from the queue without running, and one that
    /// expires mid-execution is stopped cooperatively at the next check
    /// point; both get [`ServeError::DeadlineExceeded`]. `None` (the
    /// default) leaves requests unbounded.
    pub default_deadline: Option<std::time::Duration>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            budget_bytes: 1 << 30,
            batching: true,
            max_pack: 16,
            recovery: RecoveryPolicy::default(),
            device: DeviceProfile::v100(),
            default_deadline: None,
        }
    }
}

/// Graph metadata served without charging the memory budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphMetadata {
    /// Node count of the shared graph.
    pub num_nodes: usize,
    /// Edge count of the shared graph.
    pub num_edges: usize,
}

/// Whole-server observability snapshot.
#[derive(Debug, Clone)]
pub struct ServerSnapshot {
    /// Per-tenant latency/throughput counters.
    pub metrics: MetricsSnapshot,
    /// Bytes currently reserved by admission.
    pub reserved_bytes: u64,
    /// Peak bytes ever reserved at once.
    pub peak_bytes: u64,
    /// The admission budget.
    pub budget_bytes: u64,
    /// Shared plan-database counters (hits across all tenant compiles).
    pub plan_db: PlanDbStats,
}

/// Handle to an in-flight request.
pub struct Ticket {
    rx: mpsc::Receiver<Result<GraphSample>>,
}

impl Ticket {
    /// Block until the request completes.
    pub fn wait(self) -> Result<GraphSample> {
        self.rx.recv().unwrap_or(Err(ServeError::Shutdown))
    }
}

struct QueuedRequest {
    session: Arc<Session>,
    seeds: Vec<NodeId>,
    stream: u64,
    bytes: u64,
    reply: mpsc::Sender<Result<GraphSample>>,
    submitted_at: Instant,
    /// (expiry instant, original budget in ms); `None` = unbounded.
    deadline: Option<(Instant, u64)>,
}

#[derive(Default)]
struct QueueState {
    items: VecDeque<QueuedRequest>,
    shutdown: bool,
}

struct Inner {
    graph: Arc<Graph>,
    config: ServeConfig,
    plan_db: Arc<PlanDb>,
    sessions: RwLock<HashMap<String, Arc<Session>>>,
    admission: Admission,
    metrics: Metrics,
    queue_depth: AtomicU64,
    queue: Mutex<QueueState>,
    queue_cv: Condvar,
    // Tenant → one-shot fault plane spec, installed around that tenant's
    // next (solo-forced) execution. Process-global faults plus the
    // single scheduler thread make the blast radius exactly one request.
    pending_faults: Mutex<HashMap<String, FaultSpec>>,
}

/// A concurrent multi-tenant epoch server over one shared immutable
/// graph.
pub struct EpochServer {
    inner: Arc<Inner>,
    handle: Mutex<Option<JoinHandle<()>>>,
}

impl EpochServer {
    /// Start a server over `graph` and spawn the scheduler thread.
    pub fn start(graph: Arc<Graph>, config: ServeConfig) -> EpochServer {
        let inner = Arc::new(Inner {
            graph,
            admission: Admission::new(config.budget_bytes),
            config,
            plan_db: Arc::new(PlanDb::in_memory()),
            sessions: RwLock::new(HashMap::new()),
            metrics: Metrics::new(),
            queue_depth: AtomicU64::new(0),
            queue: Mutex::new(QueueState::default()),
            queue_cv: Condvar::new(),
            pending_faults: Mutex::new(HashMap::new()),
        });
        let worker = Arc::clone(&inner);
        let handle = std::thread::Builder::new()
            .name("gsampler-serve-scheduler".to_string())
            .spawn(move || scheduler_loop(&worker))
            .expect("spawn scheduler");
        EpochServer {
            inner,
            handle: Mutex::new(Some(handle)),
        }
    }

    /// Register a tenant: compile its session over the shared graph,
    /// routing the plan search through the server's shared [`PlanDb`].
    pub fn register(&self, spec: TenantSpec) -> Result<()> {
        let name = spec.name.clone();
        {
            let sessions = self.inner.sessions.read().unwrap();
            if sessions.contains_key(&name) {
                return Err(ServeError::DuplicateTenant(name));
            }
        }
        let session = Session::compile(
            Arc::clone(&self.inner.graph),
            Arc::clone(&self.inner.plan_db),
            spec,
            &self.inner.config,
        )?;
        let mut sessions = self.inner.sessions.write().unwrap();
        if sessions.contains_key(&name) {
            return Err(ServeError::DuplicateTenant(name));
        }
        sessions.insert(name, Arc::new(session));
        Ok(())
    }

    fn session(&self, tenant: &str) -> Result<Arc<Session>> {
        self.inner
            .sessions
            .read()
            .unwrap()
            .get(tenant)
            .cloned()
            .ok_or_else(|| ServeError::UnknownTenant(tenant.to_string()))
    }

    /// The admission charge in bytes a request with `cols` frontier
    /// seeds from `tenant` would incur (the §4.4 analytic size model).
    /// Clients can use this to size requests to the server's budget.
    pub fn estimate(&self, tenant: &str, cols: usize) -> Result<u64> {
        Ok(self.session(tenant)?.sampler.estimate_request_bytes(cols))
    }

    /// Submit a sampling request: `tenant` samples one mini-batch from
    /// `seeds` on RNG stream `stream`. The reply is bit-identical to
    /// `session.sampler.sample_batch_seeded(&seeds, &Bindings::new(),
    /// stream)` run alone.
    pub fn submit(&self, tenant: &str, seeds: Vec<NodeId>, stream: u64) -> Result<Ticket> {
        self.submit_with_deadline(tenant, seeds, stream, self.inner.config.default_deadline)
    }

    /// [`EpochServer::submit`] with an explicit per-request deadline
    /// (overriding [`ServeConfig::default_deadline`]; `None` = this
    /// request is unbounded even if the server has a default). The
    /// deadline clock starts now — queue wait counts against it.
    pub fn submit_with_deadline(
        &self,
        tenant: &str,
        seeds: Vec<NodeId>,
        stream: u64,
        deadline: Option<std::time::Duration>,
    ) -> Result<Ticket> {
        let (request, ticket) = self.prepare(tenant, seeds, stream, deadline)?;
        let mut queue = self.inner.queue.lock().unwrap();
        if queue.shutdown {
            drop(queue);
            self.inner.release(&request);
            self.inner.metrics.note_failed(tenant);
            return Err(ServeError::Shutdown);
        }
        queue.items.push_back(request);
        drop(queue);
        self.inner.queue_cv.notify_one();
        Ok(ticket)
    }

    /// Submit a whole burst of requests atomically: every admitted
    /// request is enqueued under a single queue lock and the scheduler
    /// is woken once, so the burst arrives as one batch and
    /// cross-request packing is deterministic rather than a race
    /// against the scheduler draining early arrivals solo. Admission is
    /// charged per request; an entry that fails admission gets its
    /// error in the returned vector without unwinding its siblings.
    pub fn submit_burst(&self, requests: Vec<(String, Vec<NodeId>, u64)>) -> Vec<Result<Ticket>> {
        let mut out: Vec<Result<Ticket>> = Vec::with_capacity(requests.len());
        let mut admitted: Vec<(usize, QueuedRequest)> = Vec::new();
        let deadline = self.inner.config.default_deadline;
        for (slot, (tenant, seeds, stream)) in requests.into_iter().enumerate() {
            match self.prepare(&tenant, seeds, stream, deadline) {
                Ok((request, ticket)) => {
                    admitted.push((slot, request));
                    out.push(Ok(ticket));
                }
                Err(e) => out.push(Err(e)),
            }
        }
        let mut queue = self.inner.queue.lock().unwrap();
        if queue.shutdown {
            drop(queue);
            for (slot, request) in admitted {
                self.inner.release(&request);
                self.inner.metrics.note_failed(&request.session.spec.name);
                out[slot] = Err(ServeError::Shutdown);
            }
        } else {
            for (_, request) in admitted {
                queue.items.push_back(request);
            }
            drop(queue);
            self.inner.queue_cv.notify_one();
        }
        out
    }

    /// Admission + bookkeeping shared by [`EpochServer::submit`] and
    /// [`EpochServer::submit_burst`]: quarantine check, §4.4 byte
    /// estimate, budget reservation, counters. Does not enqueue.
    fn prepare(
        &self,
        tenant: &str,
        seeds: Vec<NodeId>,
        stream: u64,
        deadline: Option<std::time::Duration>,
    ) -> Result<(QueuedRequest, Ticket)> {
        let session = self.session(tenant)?;
        if session.is_quarantined() {
            return Err(ServeError::TenantQuarantined(tenant.to_string()));
        }
        let bytes = session.sampler.estimate_request_bytes(seeds.len());
        self.inner.admission.reserve(tenant, bytes)?;
        session.submitted.fetch_add(1, Ordering::Relaxed);
        let depth = self.inner.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.inner.metrics.note_submitted(tenant, depth);
        let (reply, rx) = mpsc::channel();
        let now = Instant::now();
        let request = QueuedRequest {
            session,
            seeds,
            stream,
            bytes,
            reply,
            submitted_at: now,
            deadline: deadline.map(|d| (now + d, d.as_millis() as u64)),
        };
        Ok((request, Ticket { rx }))
    }

    /// [`EpochServer::submit`] then block for the reply.
    pub fn request_sync(
        &self,
        tenant: &str,
        seeds: Vec<NodeId>,
        stream: u64,
    ) -> Result<GraphSample> {
        self.submit(tenant, seeds, stream)?.wait()
    }

    /// Serve graph metadata. Charged zero bytes: metadata must be
    /// admitted even when the budget is exactly exhausted.
    pub fn metadata(&self, tenant: &str) -> Result<GraphMetadata> {
        self.session(tenant)?;
        self.inner.admission.reserve(tenant, 0)?;
        let meta = GraphMetadata {
            num_nodes: self.inner.graph.num_nodes(),
            num_edges: self.inner.graph.num_edges(),
        };
        self.inner.admission.release(0);
        Ok(meta)
    }

    /// Cancel every request still queued (not yet picked up by the
    /// scheduler): each gets [`ServeError::Drained`] and its admission
    /// reservation is released, returning the tracker toward baseline.
    /// Returns how many requests were cancelled.
    pub fn drain(&self) -> usize {
        let drained: Vec<QueuedRequest> = {
            let mut queue = self.inner.queue.lock().unwrap();
            queue.items.drain(..).collect()
        };
        let n = drained.len();
        for request in drained {
            let tenant = request.session.spec.name.clone();
            let _ = request.reply.send(Err(ServeError::Drained));
            self.inner.admission.release(request.bytes);
            self.inner.queue_depth.fetch_sub(1, Ordering::Relaxed);
            self.inner.metrics.note_failed(&tenant);
        }
        if n > 0 {
            gsampler_obs::event(
                "serve",
                "drain",
                &[("cancelled", gsampler_obs::Arg::from(n))],
            );
        }
        n
    }

    /// Graceful drain: wait up to `timeout` for the queue (queued *and*
    /// executing requests) to empty naturally, then cancel whatever is
    /// still queued via [`EpochServer::drain`]. Returns how many requests
    /// were forcibly cancelled — 0 means the drain completed cleanly
    /// within the timeout.
    pub fn drain_with_timeout(&self, timeout: std::time::Duration) -> usize {
        let start = Instant::now();
        while start.elapsed() < timeout {
            if self.queue_depth() == 0 {
                return 0;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let n = self.drain();
        if n > 0 {
            gsampler_obs::event(
                "serve",
                "drain.timeout",
                &[
                    (
                        "timeout_ms",
                        gsampler_obs::Arg::from(timeout.as_millis() as f64),
                    ),
                    ("cancelled", gsampler_obs::Arg::from(n)),
                ],
            );
        }
        n
    }

    /// Arm a one-shot fault (grammar of the engine's fault plane, e.g.
    /// `"oom:at=1"`) against `tenant`'s next request. The request is
    /// excluded from packing and runs solo with the fault installed, so
    /// co-tenants never observe it. Chaos tests must serialize on the
    /// global fault plane (`testkit::chaos::chaos_lock`).
    pub fn inject_fault(&self, tenant: &str, spec: &str) -> Result<()> {
        self.session(tenant)?;
        let spec = FaultSpec::parse(spec).map_err(ServeError::Execution)?;
        self.inner
            .pending_faults
            .lock()
            .unwrap()
            .insert(tenant.to_string(), spec);
        Ok(())
    }

    /// Counters: per-tenant latency/throughput, queue depth, admission
    /// watermarks, shared plan-database hits.
    pub fn snapshot(&self) -> ServerSnapshot {
        ServerSnapshot {
            metrics: self
                .inner
                .metrics
                .snapshot(self.inner.queue_depth.load(Ordering::Relaxed)),
            reserved_bytes: self.inner.admission.reserved(),
            peak_bytes: self.inner.admission.peak(),
            budget_bytes: self.inner.admission.budget(),
            plan_db: self.inner.plan_db.stats(),
        }
    }

    /// Requests queued or executing right now.
    pub fn queue_depth(&self) -> u64 {
        self.inner.queue_depth.load(Ordering::Relaxed)
    }

    /// Stop the scheduler: queued requests get [`ServeError::Shutdown`],
    /// then the thread is joined. Idempotent.
    pub fn shutdown(&self) {
        {
            let mut queue = self.inner.queue.lock().unwrap();
            queue.shutdown = true;
            for request in queue.items.drain(..) {
                let tenant = request.session.spec.name.clone();
                let _ = request.reply.send(Err(ServeError::Shutdown));
                self.inner.admission.release(request.bytes);
                self.inner.queue_depth.fetch_sub(1, Ordering::Relaxed);
                self.inner.metrics.note_failed(&tenant);
            }
        }
        self.inner.queue_cv.notify_all();
        if let Some(handle) = self.handle.lock().unwrap().take() {
            let _ = handle.join();
        }
    }
}

impl Drop for EpochServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Inner {
    fn release(&self, request: &QueuedRequest) {
        self.admission.release(request.bytes);
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
    }
}

fn scheduler_loop(inner: &Inner) {
    loop {
        let batch: Vec<QueuedRequest> = {
            let mut queue = inner.queue.lock().unwrap();
            while queue.items.is_empty() && !queue.shutdown {
                queue = inner.queue_cv.wait(queue).unwrap();
            }
            if queue.items.is_empty() && queue.shutdown {
                return;
            }
            queue.items.drain(..).collect()
        };
        run_batch(inner, batch);
    }
}

/// Partition a drained batch into packable groups and solo runs, then
/// execute each.
fn run_batch(inner: &Inner, batch: Vec<QueuedRequest>) {
    let mut solo: Vec<(QueuedRequest, Option<FaultSpec>)> = Vec::new();
    let mut groups: HashMap<(String, usize), Vec<QueuedRequest>> = HashMap::new();
    for request in batch {
        // Shed requests that expired while queued: they never run, so a
        // backlog burns no execution time on replies nobody is waiting
        // for — the bounded-tail-latency half of the deadline plane.
        if request
            .deadline
            .is_some_and(|(expiry, _)| Instant::now() >= expiry)
        {
            shed(inner, request);
            continue;
        }
        let tenant = request.session.spec.name.clone();
        let fault = inner.pending_faults.lock().unwrap().remove(&tenant);
        if fault.is_some() || !inner.config.batching || !request.session.sampler.pack_exact() {
            solo.push((request, fault));
            continue;
        }
        let key = (
            request.session.spec.algorithm.pack_key(),
            request.session.spec.batch_size,
        );
        groups.entry(key).or_default().push(request);
    }
    // Deterministic service order regardless of HashMap iteration.
    let mut keyed: Vec<_> = groups.into_iter().collect();
    keyed.sort_by(|a, b| a.0.cmp(&b.0));
    for (_, mut members) in keyed {
        while !members.is_empty() {
            let take = members.len().min(inner.config.max_pack.max(1));
            let chunk: Vec<QueuedRequest> = members.drain(..take).collect();
            if chunk.len() == 1 {
                for request in chunk {
                    run_solo(inner, request, None);
                }
            } else {
                run_packed(inner, chunk);
            }
        }
    }
    for (request, fault) in solo {
        run_solo(inner, request, fault);
    }
}

/// Execute a packed group as one block-diagonal super-batch on the first
/// member's sampler (all members compiled structurally identical plans),
/// with one independent RNG stream per member. Falls back to solo runs if
/// the packed execution fails — per-group RNG isolation means the
/// fallback is still bit-identical for every member.
/// Reply [`ServeError::DeadlineExceeded`] to a request that expired
/// before (or without) running, and release its reservation.
fn shed(inner: &Inner, request: QueuedRequest) {
    let tenant = request.session.spec.name.clone();
    let budget_ms = request.deadline.map_or(0, |(_, b)| b);
    inner.metrics.note_deadline_missed(&tenant, true);
    inner.release(&request);
    let _ = request.reply.send(Err(ServeError::DeadlineExceeded {
        tenant,
        budget_ms,
        elapsed_ms: request.submitted_at.elapsed().as_millis() as u64,
    }));
}

/// The cancel token for one execution covering `deadlines` (the earliest
/// expiry wins), installed as the scheduler thread's current token so
/// kernels and pool workers under this run poll it.
fn deadline_token(
    deadlines: impl Iterator<Item = Option<(Instant, u64)>>,
) -> Option<gsampler_runtime::CancelToken> {
    let earliest = deadlines.flatten().map(|(e, _)| e).min()?;
    Some(gsampler_runtime::CancelToken::with_deadline(
        earliest.saturating_duration_since(Instant::now()),
    ))
}

fn run_packed(inner: &Inner, group: Vec<QueuedRequest>) {
    let executor = Arc::clone(&group[0].session.sampler);
    let seeds: Vec<Vec<NodeId>> = group.iter().map(|r| r.seeds.clone()).collect();
    let mut rngs: Vec<rand::rngs::StdRng> = group
        .iter()
        .map(|r| r.session.pool.stream(r.stream))
        .collect();
    gsampler_obs::event(
        "serve",
        "pack",
        &[
            ("size", gsampler_obs::Arg::from(group.len())),
            (
                "tenants",
                gsampler_obs::Arg::Str(
                    group
                        .iter()
                        .map(|r| r.session.spec.name.as_str())
                        .collect::<Vec<_>>()
                        .join(","),
                ),
            ),
        ],
    );
    let result = {
        // Earliest member deadline bounds the whole pack; a mid-run expiry
        // aborts the packed execution and each member retries solo below,
        // where expired members shed and live ones run bit-identically
        // (per-group RNG isolation makes the fallback invisible).
        let token = deadline_token(group.iter().map(|r| r.deadline));
        let _scope = token
            .as_ref()
            .map(|t| gsampler_runtime::cancel::scope(t.clone()));
        executor.sample_groups(seeds, &Bindings::new(), &mut rngs)
    };
    match result {
        Ok(samples) => {
            for (request, sample) in group.into_iter().zip(samples) {
                finish(inner, request, Ok(sample), true);
            }
        }
        Err(_) => {
            for request in group {
                run_solo(inner, request, None);
            }
        }
    }
}

/// Execute one request alone on its own session, optionally with a
/// one-shot fault installed around it (the scheduler is single-threaded,
/// so the process-global fault plane touches exactly this request).
fn run_solo(inner: &Inner, request: QueuedRequest, fault: Option<FaultSpec>) {
    // The packed→solo fallback can arrive here after the deadline that
    // aborted the pack; shed instead of starting a run that cannot finish.
    if request
        .deadline
        .is_some_and(|(expiry, _)| Instant::now() >= expiry)
    {
        shed(inner, request);
        return;
    }
    let injected = fault.is_some();
    if let Some(spec) = fault {
        faults::install(spec);
    }
    let result = {
        let token = deadline_token(std::iter::once(request.deadline));
        let _scope = token
            .as_ref()
            .map(|t| gsampler_runtime::cancel::scope(t.clone()));
        request.session.sampler.sample_batch_seeded(
            &request.seeds,
            &Bindings::new(),
            request.stream,
        )
    };
    if injected {
        faults::clear();
    }
    match result {
        Ok(sample) => finish(inner, request, Ok(sample), false),
        Err(e) if e.is_cancelled() => {
            // Deadline expiry mid-execution: a latency event, not a fault
            // — no quarantine, and the typed reply carries the original
            // budget so the client can distinguish shed from slow.
            let tenant = request.session.spec.name.clone();
            let budget_ms = request.deadline.map_or(0, |(_, b)| b);
            inner.metrics.note_deadline_missed(&tenant, false);
            inner.release(&request);
            let _ = request.reply.send(Err(ServeError::DeadlineExceeded {
                tenant,
                budget_ms,
                elapsed_ms: request.submitted_at.elapsed().as_millis() as u64,
            }));
        }
        Err(e) => {
            if inner.config.recovery.quarantine {
                request.session.quarantine();
                gsampler_obs::event(
                    "serve",
                    "quarantine",
                    &[(
                        "tenant",
                        gsampler_obs::Arg::Str(request.session.spec.name.clone()),
                    )],
                );
            }
            finish(
                inner,
                request,
                Err(ServeError::Execution(e.to_string())),
                false,
            );
        }
    }
}

fn finish(inner: &Inner, request: QueuedRequest, result: Result<GraphSample>, batched: bool) {
    let tenant = request.session.spec.name.clone();
    let latency_us = request.submitted_at.elapsed().as_micros() as u64;
    match &result {
        Ok(_) => inner.metrics.note_completed(&tenant, latency_us, batched),
        Err(_) => inner.metrics.note_failed(&tenant),
    }
    inner.release(&request);
    let _ = request.reply.send(result);
}
