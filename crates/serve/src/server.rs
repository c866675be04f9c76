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
//! - [`Sampler::sample_groups`] gives every group its own key: group `b`
//!   draws only with its tenant's `Sampler::key`, the key a solo call
//!   would use;
//! - a pack runs as one `Sampler::window`, whose recovery ladder (halve
//!   on memory pressure, one run per member on any other failure) restarts
//!   every rung from those streams.

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
    /// `seeds` on RNG stream `stream`. The reply is bit-identical to the
    /// tenant's own sampler's `sample_batch_seeded` of `seeds` on `stream`
    /// with no bindings, run alone.
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
            finish(&self.inner, request, Err(ServeError::Drained), false);
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
                finish(&self.inner, request, Err(ServeError::Shutdown), false);
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
            deadline_missed(inner, request, true);
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
            run_chunk(inner, members.drain(..take).collect(), None);
        }
    }
    for (request, fault) in solo {
        run_chunk(inner, vec![request], fault);
    }
}

/// Reply [`ServeError::DeadlineExceeded`] to a request whose deadline
/// passed, before it ran (`shed`) or during its run, and release its
/// reservation. A miss is a latency event, not a fault: it never
/// quarantines, and the reply carries the original budget so the client
/// can tell shed from slow.
fn deadline_missed(inner: &Inner, request: QueuedRequest, shed: bool) {
    let tenant = request.session.spec.name.clone();
    let budget_ms = request.deadline.map_or(0, |(_, b)| b);
    inner.metrics.note_deadline_missed(&tenant, shed);
    inner.release(&request);
    let _ = request.reply.send(Err(ServeError::DeadlineExceeded {
        tenant,
        budget_ms,
        elapsed_ms: request.submitted_at.elapsed().as_millis() as u64,
    }));
}

/// Serve `chunk` — one request, or a pack of requests whose sessions
/// compiled structurally identical plans — as one window on the first
/// member's sampler, each member with its own session's key, so
/// every reply is the member's solo sample however the window ran. A
/// failed pack is split by `Sampler::window`'s ladder; the run it makes
/// for one member alone sheds that member if it already expired.
/// `fault` is installed around a lone request's run (the scheduler is
/// single-threaded, so the process-global fault plane touches exactly
/// that request).
fn run_chunk(inner: &Inner, chunk: Vec<QueuedRequest>, fault: Option<FaultSpec>) {
    if chunk.len() > 1 {
        let tenants: Vec<&str> = chunk.iter().map(|r| r.session.spec.name.as_str()).collect();
        gsampler_obs::event(
            "serve",
            "pack",
            &[
                ("size", gsampler_obs::Arg::from(chunk.len())),
                ("tenants", gsampler_obs::Arg::Str(tenants.join(","))),
            ],
        );
    }
    let executor = Arc::clone(&chunk[0].session.sampler);
    let keys: Vec<_> = (chunk.iter())
        .map(|r| r.session.sampler.key(r.stream))
        .collect();
    let mut unrun = vec![false; chunk.len()];
    let injected = fault.is_some();
    if let Some(spec) = fault {
        faults::install(spec);
    }
    let mut factor = chunk.len();
    let results = executor.window(&keys, &mut factor, |idx, keys| {
        if let [g] = *idx {
            if let Some((_, budget_ms)) = chunk[g].deadline.filter(|&(e, _)| Instant::now() >= e) {
                unrun[g] = true;
                let elapsed_ms = chunk[g].submitted_at.elapsed().as_millis() as u64;
                return Err(gsampler_core::Error::DeadlineExceeded {
                    budget_ms,
                    elapsed_ms,
                });
            }
        }
        // The earliest member deadline bounds the run; a pack it cancels
        // falls to one run per member, under each member's own deadline.
        let earliest = idx.iter().filter_map(|&g| chunk[g].deadline).min();
        let _scope = earliest.map(|(expiry, _)| {
            let left = expiry.saturating_duration_since(Instant::now());
            gsampler_runtime::cancel::scope(gsampler_runtime::CancelToken::with_deadline(left))
        });
        let seeds = idx.iter().map(|&g| chunk[g].seeds.clone()).collect();
        let samples = executor.sample_groups(seeds, &Bindings::new(), keys)?;
        Ok(samples.into_iter().map(|s| (s, idx.len() > 1)).collect())
    });
    if injected {
        faults::clear();
    }
    for ((request, result), unrun) in chunk.into_iter().zip(results).zip(unrun) {
        match result {
            Ok((sample, batched)) => finish(inner, request, Ok(sample), batched),
            Err(e) if e.is_cancelled() => deadline_missed(inner, request, unrun),
            Err(e) => {
                if inner.config.recovery.quarantine {
                    request.session.quarantine();
                    let tenant = gsampler_obs::Arg::Str(request.session.spec.name.clone());
                    gsampler_obs::event("serve", "quarantine", &[("tenant", tenant)]);
                }
                let reply = Err(ServeError::Execution(e.to_string()));
                finish(inner, request, reply, false);
            }
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
