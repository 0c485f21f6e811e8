//! Real-thread transport: reactor + fixed worker pool.
//!
//! Used by the concurrency integration tests to exercise the same node
//! logic as [`crate::SimNetwork`] but with genuine parallelism. Earlier
//! versions dedicated one mailbox thread to every `(node, service)`
//! pair, which made thread count grow linearly with cluster size — a
//! 10k-node cluster would try to spawn ~30k OS threads. This version is
//! event-driven: requests are queued on per-`(node, service)` *actors*
//! and a small fixed pool of reactor workers (`max(4, cores)`, capped
//! at 64) drains whichever actors have work. Thread count is a function
//! of the host, not the cluster.
//!
//! Dispatch is continuation-style: [`ThreadedNetwork::call_async`]
//! (via the [`Network`] trait) enqueues the request and returns a
//! [`CallCompletion`](crate::network::CallCompletion) immediately;
//! `call` is now a blocking shim that issues and waits. A single caller
//! thread can therefore put hundreds of RPCs in flight at once.
//!
//! Actor discipline: each actor serves its queue FIFO and is held by at
//! most one worker at a time, so requests to one `(node, service)`
//! serialize exactly as they did behind the old per-service mailbox
//! thread (each daemon — nfsd, koshad, the overlay — is one event loop
//! on a real machine). Requests to *different* actors run on distinct
//! workers and genuinely overlap.
//!
//! Deadlock discipline: handlers issue nested blocking RPCs while
//! running on pool workers, so a fixed pool must not wedge when every
//! worker is parked in a wait. Two rules prevent that:
//!
//! * A worker blocked in a completion wait *helps*, but only with the
//!   actor its own reply depends on: if that actor is sitting runnable
//!   on the run queue, the waiter pulls it and serves it in place.
//!   Driving one's own dependency chain is deadlock-free (the chain
//!   mirrors the nested-call chain, which the service discipline keeps
//!   acyclic), so a fully blocked pool still makes progress. Helping
//!   with *unrelated* actors would not be safe: the helped handler can
//!   call back into an actor owned lower on the helper's own stack,
//!   inverting the dependency into a wedge.
//! * As before, nested calls may revisit a node only on a *different*
//!   service — `client → koshad(A) → control(B) → nfsd(A)` is fine; a
//!   same-service cycle such as `koshad(A) → … → koshad(A)` is not
//!   (the actor is busy serving the outer request and the inner one
//!   would wait on it forever, surfacing as a timeout).
//!
//! Periodic maintenance ([`PumpHook`]s) shares one `kosha-timer` thread
//! for the whole transport instead of one thread per hook; it doubles
//! as the flight-recorder sampling tick.

use crate::clock::{Clock, WallClock};
use crate::metrics::{InflightGuard, NetMetrics};
use crate::network::{
    CallCompletion, Network, NodeAddr, PumpHook, RpcError, RpcRequest, RpcResponse, ServiceId,
    ServiceMux, TraceHeader,
};
use crossbeam::channel::{bounded, RecvTimeoutError, Sender, TryRecvError};
use kosha_obs::{trace, Counter, Gauge, Histogram, Obs};
use parking_lot::{Mutex, RwLock};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

type ReplyTx = Sender<Result<RpcResponse, RpcError>>;

/// One queued request awaiting dispatch on an actor.
struct WorkItem {
    from: NodeAddr,
    req: RpcRequest,
    reply: ReplyTx,
    /// Transport-clock reading at enqueue, for the reactor's
    /// dispatch-latency histogram.
    enqueued_nanos: u64,
}

/// Mutable half of an actor: its FIFO request queue plus scheduling
/// state. `running` is true while some worker owns the actor (it is
/// either executing a request or queued on the run queue), which is
/// what guarantees per-actor serialization.
#[derive(Default)]
struct ActorInner {
    q: VecDeque<WorkItem>,
    running: bool,
    closed: bool,
}

/// One `(node, service)` endpoint: the handler plus its request queue.
struct ServiceActor {
    handler: Arc<dyn crate::network::RpcHandler>,
    inner: Mutex<ActorInner>,
}

/// What a worker pulls off the run queue.
enum RunItem {
    Actor(Arc<ServiceActor>),
    Shutdown,
}

/// The reactor's MPMC run queue of runnable actors. Hand-rolled on
/// `std` `Mutex`/`Condvar` because the vendored crossbeam shim's
/// `Receiver` is single-consumer.
struct RunQueue {
    items: std::sync::Mutex<VecDeque<RunItem>>,
    ready: std::sync::Condvar,
}

impl RunQueue {
    fn new() -> Self {
        RunQueue {
            items: std::sync::Mutex::new(VecDeque::new()),
            ready: std::sync::Condvar::new(),
        }
    }

    fn push(&self, item: RunItem) {
        if let Ok(mut q) = self.items.lock() {
            q.push_back(item);
        }
        self.ready.notify_one();
    }

    /// Blocks until an item is available.
    fn pop_wait(&self) -> RunItem {
        let Ok(mut q) = self.items.lock() else {
            return RunItem::Shutdown;
        };
        loop {
            if let Some(item) = q.pop_front() {
                return item;
            }
            q = match self.ready.wait(q) {
                Ok(g) => g,
                Err(_) => return RunItem::Shutdown,
            };
        }
    }

    /// Non-blocking removal of one *specific* runnable actor, used by
    /// helping waiters: a blocked worker may only pull the actor its
    /// own reply depends on (see the module docs — popping unrelated
    /// actors can re-enter an actor owned lower on the helper's stack
    /// and invert the dependency into a deadlock). `Shutdown` items are
    /// left for real workers to consume.
    fn try_pop_specific(&self, target: &Arc<ServiceActor>) -> Option<Arc<ServiceActor>> {
        let mut q = self.items.lock().ok()?;
        let pos = q
            .iter()
            .position(|item| matches!(item, RunItem::Actor(a) if Arc::ptr_eq(a, target)))?;
        match q.remove(pos) {
            Some(RunItem::Actor(a)) => Some(a),
            _ => None,
        }
    }
}

/// State shared between the transport handle, its workers, and deferred
/// completion waits: the run queue plus reactor self-observability.
struct ReactorShared {
    runq: RunQueue,
    clock: Arc<WallClock>,
    /// Requests dispatched to handlers (`kosha_reactor_events_total`).
    events_total: Arc<Counter>,
    /// Enqueue→dispatch sojourn per request, wall nanos.
    dispatch_latency: Arc<Histogram>,
    /// Requests currently queued across all actors.
    queue_depth: Arc<Gauge>,
}

thread_local! {
    /// Set once on each pool worker: which reactor it belongs to.
    /// Completion waits consult this to decide whether they may help
    /// drain the run queue (only on a worker of the *same* reactor —
    /// helping across transports would run foreign handlers on this
    /// pool and confuse both sides' accounting).
    static WORKER_REACTOR: RefCell<Option<std::sync::Weak<ReactorShared>>> =
        const { RefCell::new(None) };
}

/// The reactor shared-state of the current thread's pool, if this
/// thread is a pool worker of `shared`'s reactor.
fn helping_reactor(shared: &Arc<ReactorShared>) -> Option<Arc<ReactorShared>> {
    WORKER_REACTOR
        .with(|w| w.borrow().clone())
        .and_then(|w| w.upgrade())
        .filter(|s| Arc::ptr_eq(s, shared))
}

/// Serves one queued request of `actor`, then re-queues the actor if
/// more work arrived meanwhile (one item per turn keeps the pool fair
/// under load; FIFO order within the actor is preserved because only
/// one worker owns it at a time).
fn run_one(shared: &Arc<ReactorShared>, actor: Arc<ServiceActor>) {
    let item = {
        let mut inner = actor.inner.lock();
        if inner.closed {
            inner.q.clear();
            inner.running = false;
            return;
        }
        match inner.q.pop_front() {
            Some(item) => item,
            None => {
                inner.running = false;
                return;
            }
        }
        // Lock released before dispatch: the handler may issue nested
        // RPCs back into this transport (L001 discipline).
    };
    shared.queue_depth.add(-1);
    shared.events_total.inc();
    let now = shared.clock.now().0;
    shared
        .dispatch_latency
        .record(now.saturating_sub(item.enqueued_nanos));
    // Bridge the caller's trace onto this worker from the wire header.
    let ctx = item.req.trace.map(TraceHeader::ctx);
    let handler = Arc::clone(&actor.handler);
    let resp = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        trace::with_context(ctx, || handler.handle_frame(item.from, &item.req.body))
    }))
    .unwrap_or_else(|_| Err(RpcError::Remote("handler panicked".to_string())));
    // The caller may have timed out; ignore send failure.
    let _ = item.reply.send(resp);
    let more = {
        let mut inner = actor.inner.lock();
        if inner.closed {
            inner.q.clear();
        }
        if inner.q.is_empty() {
            inner.running = false;
            false
        } else {
            true
        }
    };
    if more {
        shared.runq.push(RunItem::Actor(actor));
    }
}

/// Queues `item` on `actor`, scheduling the actor onto the run queue if
/// it was idle. Returns `false` if the actor is closed (detached).
fn enqueue(shared: &ReactorShared, actor: &Arc<ServiceActor>, item: WorkItem) -> bool {
    let newly_runnable = {
        let mut inner = actor.inner.lock();
        if inner.closed {
            return false;
        }
        inner.q.push_back(item);
        if inner.running {
            false
        } else {
            inner.running = true;
            true
        }
    };
    shared.queue_depth.add(1);
    if newly_runnable {
        shared.runq.push(RunItem::Actor(Arc::clone(actor)));
    }
    true
}

/// A periodic hook registration on the shared timer thread.
struct TimerEntry {
    hook: Weak<dyn PumpHook>,
    interval: Duration,
    since: Duration,
}

/// Reactor + fixed-worker-pool transport. Nodes are attached with their
/// [`ServiceMux`]; attaching allocates per-service actors (no threads)
/// served by the pool until the network is dropped or the node is
/// detached.
pub struct ThreadedNetwork {
    clock: Arc<WallClock>,
    shared: Arc<ReactorShared>,
    actors: RwLock<HashMap<(NodeAddr, ServiceId), Arc<ServiceActor>>>,
    down: RwLock<HashSet<NodeAddr>>,
    /// How long callers wait for a reply before declaring the node dead.
    call_timeout: Duration,
    metrics: Arc<NetMetrics>,
    worker_count: usize,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Every OS thread this transport has ever spawned
    /// (`kosha_reactor_threads_spawned_total`) — the sched bench uses it
    /// to prove attach does not spawn.
    threads_spawned: Arc<Counter>,
    /// Raised on drop; the timer thread exits at its next tick.
    pump_stop: Arc<AtomicBool>,
    timers: Arc<Mutex<Vec<TimerEntry>>>,
    timer_thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

/// Pool sizing: one worker per hardware thread, floored at 4 so nested
/// blocking RPCs and small fan-outs overlap even on tiny hosts, capped
/// at 64 (beyond that, contention on the run queue outweighs
/// parallelism for RPC-sized work).
fn worker_pool_size() -> usize {
    std::thread::available_parallelism()
        .map_or(4, std::num::NonZeroUsize::get)
        .clamp(4, 64)
}

impl ThreadedNetwork {
    /// New threaded network with the given caller-side timeout. Spawns
    /// the fixed worker pool immediately; nothing else ever spawns per
    /// node.
    #[must_use]
    pub fn new(call_timeout: Duration) -> Arc<Self> {
        let clock = WallClock::new();
        let metrics = Arc::new(NetMetrics::new());
        let obs = metrics.obs();
        let events_total = obs.registry.counter("kosha_reactor_events_total");
        let dispatch_latency = obs
            .registry
            .histogram("kosha_reactor_dispatch_latency_nanos");
        let queue_depth = obs.registry.gauge("kosha_reactor_queue_depth");
        let workers_gauge = obs.registry.gauge("kosha_reactor_workers");
        let threads_spawned = obs.registry.counter("kosha_reactor_threads_spawned_total");
        obs.recorder
            .watch_gauge("kosha_reactor_queue_depth", &queue_depth);
        obs.recorder
            .watch_counter("kosha_reactor_events_total", &events_total);
        obs.recorder.watch_histogram_pct(
            "kosha_reactor_dispatch_latency_nanos:p99",
            &dispatch_latency,
            99,
        );
        let shared = Arc::new(ReactorShared {
            runq: RunQueue::new(),
            clock: Arc::clone(&clock),
            events_total,
            dispatch_latency,
            queue_depth,
        });
        let worker_count = worker_pool_size();
        workers_gauge.set(worker_count as i64);
        let mut workers = Vec::with_capacity(worker_count);
        for i in 0..worker_count {
            threads_spawned.inc();
            let shared = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("kosha-worker-{i}"))
                .spawn(move || {
                    WORKER_REACTOR.with(|w| *w.borrow_mut() = Some(Arc::downgrade(&shared)));
                    while let RunItem::Actor(actor) = shared.runq.pop_wait() {
                        run_one(&shared, actor);
                    }
                })
                .expect("spawn reactor worker");
            workers.push(handle);
        }
        let net = Arc::new(ThreadedNetwork {
            clock,
            shared,
            actors: RwLock::new(HashMap::new()),
            down: RwLock::new(HashSet::new()),
            call_timeout,
            metrics,
            worker_count,
            workers: Mutex::new(workers),
            threads_spawned,
            pump_stop: Arc::new(AtomicBool::new(false)),
            timers: Arc::new(Mutex::new(Vec::new())),
            timer_thread: Mutex::new(None),
        });
        #[cfg(feature = "lockcheck")]
        crate::lockcheck_gate::install_cycle_hook(Arc::downgrade(&net.metrics.obs()), {
            let clock = Arc::clone(&net.clock);
            move || clock.now().0
        });
        net
    }

    /// Transport-level observability: per-service call/byte counters and
    /// latency histograms (`rpc_*{service=...}`) plus the reactor's own
    /// `kosha_reactor_*` series, timestamped on the monotonic wall clock.
    #[must_use]
    pub fn obs(&self) -> Arc<Obs> {
        self.metrics.obs()
    }

    /// Size of the fixed worker pool (constant for the transport's
    /// lifetime, independent of how many nodes are attached).
    #[must_use]
    pub fn worker_threads(&self) -> usize {
        self.worker_count
    }

    /// Total OS threads this transport has spawned so far (workers +
    /// the shared timer). Attaching nodes never moves this.
    #[must_use]
    pub fn threads_spawned(&self) -> u64 {
        self.threads_spawned.get()
    }

    /// Attaches a node, allocating one actor per registered service
    /// (services registered after attach are not served — register
    /// everything first, as [`ServiceMux`] users do). No threads are
    /// spawned: the shared pool serves the new actors.
    pub fn attach(&self, addr: NodeAddr, mux: Arc<ServiceMux>) {
        let mut replaced = Vec::new();
        for service in mux.services() {
            let Some(handler) = mux.handler(service) else {
                continue;
            };
            let actor = Arc::new(ServiceActor {
                handler,
                inner: Mutex::new(ActorInner::default()),
            });
            if let Some(prev) = self.actors.write().insert((addr, service), actor) {
                replaced.push(prev);
            }
        }
        self.down.write().remove(&addr);
        for prev in replaced {
            let mut inner = prev.inner.lock();
            inner.closed = true;
            // Dropping queued items drops their reply senders; waiters
            // observe the disconnect as Unreachable.
            inner.q.clear();
        }
    }

    /// Detaches a node, closing all of its actors. Requests already
    /// queued are dropped (their callers observe `Unreachable`). The
    /// departed peer's latency gauge, recorder series, and crash marker
    /// are pruned with it, so churn does not grow any per-peer state
    /// without bound.
    pub fn detach(&self, addr: NodeAddr) {
        let removed: Vec<Arc<ServiceActor>> = {
            let mut actors = self.actors.write();
            let keys: Vec<_> = actors.keys().filter(|(a, _)| *a == addr).copied().collect();
            keys.into_iter().filter_map(|k| actors.remove(&k)).collect()
        };
        for actor in removed {
            let mut inner = actor.inner.lock();
            inner.closed = true;
            inner.q.clear();
        }
        self.down.write().remove(&addr);
        self.metrics.prune_peer(addr);
    }

    /// Simulates a crash: the node stops answering (actors keep their
    /// state, but calls are rejected at the transport).
    pub fn fail_node(&self, addr: NodeAddr) {
        self.down.write().insert(addr);
    }

    /// Revives a crashed node.
    pub fn recover_node(&self, addr: NodeAddr) {
        self.down.write().remove(&addr);
    }

    /// The issue half of an RPC: validate the destination, enqueue on
    /// its actor, and build the deferred completion that waits (with
    /// helping), accounts the result, and returns it. `req.trace` must
    /// already be stamped by the caller (`call`, `call_many`, or the
    /// ambient-context shim in `call_async`).
    fn issue(&self, from: NodeAddr, to: NodeAddr, req: RpcRequest) -> CallCompletion {
        let service = req.service;
        let svc = self.metrics.svc(service);
        svc.calls.inc();
        let inflight = InflightGuard::enter(&svc.inflight);
        if from == to {
            svc.local.inc();
        }
        if self.down.read().contains(&to) {
            svc.failed.inc();
            return CallCompletion::ready(Err(RpcError::Unreachable(to)));
        }
        let actor = match self.actors.read().get(&(to, service)) {
            Some(a) => Arc::clone(a),
            None => {
                svc.failed.inc();
                // Distinguish "node exists but lacks the service" from a
                // dead node, mirroring SimNetwork semantics.
                let node_known = self.actors.read().keys().any(|(a, _)| *a == to);
                return CallCompletion::ready(Err(if node_known {
                    RpcError::NoService(service)
                } else {
                    RpcError::Unreachable(to)
                }));
            }
        };
        let req_bytes = req.wire_size();
        let awaited = Arc::clone(&actor);
        let start = self.clock.now();
        let (rtx, rrx) = bounded(1);
        let item = WorkItem {
            from,
            req,
            reply: rtx,
            enqueued_nanos: start.0,
        };
        if !enqueue(&self.shared, &actor, item) {
            svc.failed.inc();
            return CallCompletion::ready(Err(RpcError::Unreachable(to)));
        }
        let clock = Arc::clone(&self.clock);
        let shared = Arc::clone(&self.shared);
        let metrics = Arc::clone(&self.metrics);
        let timeout = self.call_timeout;
        CallCompletion::deferred(Box::new(move || {
            // The call counts as in flight until its completion is
            // redeemed (or abandoned: dropping the closure unredeemed
            // drops the guard too).
            let _inflight = inflight;
            let deadline = start
                .0
                .saturating_add(timeout.as_nanos().min(u128::from(u64::MAX)) as u64);
            let help = helping_reactor(&shared);
            let result = loop {
                match rrx.try_recv() {
                    Ok(resp) => break resp,
                    Err(TryRecvError::Disconnected) => break Err(RpcError::Unreachable(to)),
                    Err(TryRecvError::Empty) => {}
                }
                let now = clock.now().0;
                if now >= deadline {
                    break Err(RpcError::Unreachable(to));
                }
                if let Some(reactor) = &help {
                    // Pool worker blocked on a nested RPC: drive the
                    // actor this reply depends on while waiting, so a
                    // saturated pool cannot starve itself (see the
                    // module docs' deadlock discipline).
                    if let Some(target) = reactor.runq.try_pop_specific(&awaited) {
                        run_one(reactor, target);
                        continue;
                    }
                    match rrx.recv_timeout(Duration::from_micros(500)) {
                        Ok(resp) => break resp,
                        Err(RecvTimeoutError::Timeout) => {}
                        Err(RecvTimeoutError::Disconnected) => {
                            break Err(RpcError::Unreachable(to))
                        }
                    }
                } else {
                    // Plain caller thread: park straight to the deadline.
                    match rrx.recv_timeout(Duration::from_nanos(deadline - now)) {
                        Ok(resp) => break resp,
                        Err(RecvTimeoutError::Timeout) => break Err(RpcError::Unreachable(to)),
                        Err(RecvTimeoutError::Disconnected) => {
                            break Err(RpcError::Unreachable(to))
                        }
                    }
                }
            };
            let svc = metrics.svc(service);
            match &result {
                Ok(resp) => svc.bytes.add((req_bytes + resp.wire_size()) as u64),
                Err(_) => svc.failed.inc(),
            }
            let elapsed = clock.now().since_nanos(start);
            svc.latency.record(elapsed);
            metrics.note_peer_latency(from, to, elapsed);
            result
        }))
    }
}

impl Drop for ThreadedNetwork {
    fn drop(&mut self) {
        self.pump_stop.store(true, Ordering::SeqCst);
        // The last reference may be released on one of the transport's
        // own threads (a worker that was the last holder of a detached
        // node's handler, the timer after upgrading a hook). Joining
        // oneself fails with EDEADLK, so that handle is dropped instead:
        // the thread exits by itself at its queued `Shutdown` (or at its
        // next tick) once this `drop` returns.
        let this_thread = std::thread::current().id();
        let join = |h: std::thread::JoinHandle<()>| {
            if h.thread().id() != this_thread {
                let _ = h.join();
            }
        };
        if let Some(h) = self.timer_thread.lock().take() {
            join(h);
        }
        for _ in 0..self.worker_count {
            self.shared.runq.push(RunItem::Shutdown);
        }
        for h in self.workers.lock().drain(..) {
            join(h);
        }
        for (_, actor) in self.actors.write().drain() {
            let mut inner = actor.inner.lock();
            inner.closed = true;
            inner.q.clear();
        }
    }
}

impl Network for ThreadedNetwork {
    /// Blocking shim over [`Network::call_async`]: when a trace is
    /// active on this thread, the RPC is wrapped in a client span
    /// (wall-clock timed) whose context is stamped into the wire header
    /// so the serving worker can pick it up.
    fn call(
        &self,
        from: NodeAddr,
        to: NodeAddr,
        mut req: RpcRequest,
    ) -> Result<RpcResponse, RpcError> {
        #[cfg(feature = "lockcheck")]
        crate::lockcheck_gate::rpc_gate(
            &self.metrics.obs(),
            self.clock.now().0,
            from,
            "ThreadedNetwork::call",
        );
        let span_name = req.service.rpc_span_name();
        self.metrics.tracer().child_with(
            || span_name.to_string(),
            from.0,
            || self.clock.now().0,
            |ctx| {
                req.trace = ctx.map(TraceHeader::from_ctx);
                self.issue(from, to, req).wait()
            },
        )
    }

    /// Continuation-style dispatch: enqueue on the destination actor
    /// and return immediately. If no span context has been stamped, the
    /// ambient trace (if any) is propagated; callers that want a
    /// per-call client span stamp one themselves (as `call` and
    /// `call_many` do).
    fn call_async(&self, from: NodeAddr, to: NodeAddr, mut req: RpcRequest) -> CallCompletion {
        if req.trace.is_none() {
            req.trace = trace::current().map(TraceHeader::from_ctx);
        }
        self.issue(from, to, req)
    }

    /// Concurrent fan-out without fan-out threads: every entry is
    /// issued through `call_async` up front — putting the whole batch
    /// in flight across the worker pool — then the completions are
    /// redeemed in batch order. Calls to distinct `(node, service)`
    /// actors genuinely overlap; calls sharing an actor still serialize
    /// behind it, as on a real machine. Traced fan-outs record one
    /// client span per entry (opened before issue, closed at
    /// completion), so sibling spans overlap in the trace exactly as
    /// the RPCs did on the wire.
    fn call_many(
        &self,
        from: NodeAddr,
        batch: Vec<(NodeAddr, RpcRequest)>,
    ) -> Vec<Result<RpcResponse, RpcError>> {
        // The caller's held-lock set must be checked before the batch
        // blocks on redemption.
        #[cfg(feature = "lockcheck")]
        crate::lockcheck_gate::rpc_gate(
            &self.metrics.obs(),
            self.clock.now().0,
            from,
            "ThreadedNetwork::call_many",
        );
        self.metrics.fanout_batch.record(batch.len() as u64);
        if batch.len() <= 1 {
            return batch
                .into_iter()
                .map(|(to, req)| self.call(from, to, req))
                .collect();
        }
        let tracer = self.metrics.tracer();
        let issued: Vec<_> = batch
            .into_iter()
            .map(|(to, mut req)| {
                let span = tracer.open_child(from.0, self.clock.now().0);
                if let Some(s) = &span {
                    req.trace = Some(TraceHeader::from_ctx(s.ctx()));
                }
                let name = req.service.rpc_span_name();
                (span, name, self.call_async(from, to, req))
            })
            .collect();
        issued
            .into_iter()
            .map(|(span, name, completion)| {
                let result = completion.wait();
                if let Some(s) = span {
                    tracer.close(s, name, self.clock.now().0);
                }
                result
            })
            .collect()
    }

    fn clock(&self) -> Arc<dyn Clock> {
        Arc::clone(&self.clock) as Arc<dyn Clock>
    }

    fn is_up(&self, addr: NodeAddr) -> bool {
        !self.down.read().contains(&addr) && self.actors.read().keys().any(|(a, _)| *a == addr)
    }

    /// Registers the hook on the transport's shared timer thread
    /// (spawned lazily on the first registration, never per hook).
    /// Returns `true`: on real threads the transport owns pump timing.
    /// The timer doubles as this transport's flight-recorder ticker
    /// (SimNetwork ticks in `run_pumps` instead).
    fn schedule_pump(&self, hook: Weak<dyn PumpHook>, interval: Duration) -> bool {
        self.timers.lock().push(TimerEntry {
            hook,
            interval,
            since: Duration::ZERO,
        });
        let mut timer = self.timer_thread.lock();
        if timer.is_none() {
            let stop = Arc::clone(&self.pump_stop);
            let timers = Arc::clone(&self.timers);
            let obs = self.metrics.obs();
            let clock = Arc::clone(&self.clock);
            self.threads_spawned.inc();
            // Tick every 2ms so Drop never blocks behind a long flush
            // interval and short test intervals still fire promptly.
            let tick = Duration::from_millis(2);
            let handle = std::thread::Builder::new()
                .name("kosha-timer".to_string())
                .spawn(move || loop {
                    if stop.load(Ordering::SeqCst) {
                        return;
                    }
                    std::thread::sleep(tick);
                    // Collect due hooks under the lock, fire them
                    // outside it: pumps issue RPCs.
                    let due: Vec<Arc<dyn PumpHook>> = {
                        let mut entries = timers.lock();
                        let mut fired = Vec::new();
                        entries.retain_mut(|e| {
                            e.since += tick;
                            if e.since < e.interval {
                                return true;
                            }
                            e.since = Duration::ZERO;
                            match e.hook.upgrade() {
                                Some(h) => {
                                    fired.push(h);
                                    true
                                }
                                None => false,
                            }
                        });
                        fired
                    };
                    if due.is_empty() {
                        continue;
                    }
                    for hook in due {
                        hook.pump();
                    }
                    obs.export_self_gauges();
                    obs.recorder.sample_all(clock.now().0);
                })
                .expect("spawn timer thread");
            *timer = Some(handle);
        }
        true
    }

    fn peer_latency_nanos(&self, from: NodeAddr, to: NodeAddr) -> Option<u64> {
        self.metrics.peer_latency(from, to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::RpcHandler;
    use bytes::Bytes;
    use std::sync::atomic::{AtomicU64, Ordering};

    struct Counter(AtomicU64);
    impl RpcHandler for Counter {
        fn handle(&self, _from: NodeAddr, body: &[u8]) -> Result<RpcResponse, RpcError> {
            let n = self.0.fetch_add(1, Ordering::SeqCst);
            let _ = body;
            Ok(RpcResponse::new(&n))
        }
    }

    fn req() -> RpcRequest {
        RpcRequest {
            service: ServiceId::Kosha,
            trace: None,
            body: Bytes::new(),
        }
    }

    #[test]
    fn concurrent_callers_are_all_served() {
        let net = ThreadedNetwork::new(Duration::from_secs(5));
        let mux = Arc::new(ServiceMux::new());
        mux.register(ServiceId::Kosha, Arc::new(Counter(AtomicU64::new(0))));
        net.attach(NodeAddr(7), mux);

        let mut joins = vec![];
        for c in 0..8u64 {
            let net = Arc::clone(&net);
            joins.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    net.call(NodeAddr(100 + c), NodeAddr(7), req()).unwrap();
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let resp = net.call(NodeAddr(1), NodeAddr(7), req()).unwrap();
        assert_eq!(resp.decode::<u64>().unwrap(), 400);
    }

    #[test]
    fn last_reference_dropped_inside_a_handler_does_not_join_itself() {
        // The handler's node holds the transport (as every KoshaNode
        // does). When the outside world lets go while a request is in
        // service, the worker serving it releases the last reference and
        // runs `ThreadedNetwork::drop` on a pool thread.
        struct LastHolder {
            net: Mutex<Option<Arc<ThreadedNetwork>>>,
            released: Mutex<crossbeam::channel::Receiver<()>>,
        }
        impl RpcHandler for LastHolder {
            fn handle(&self, _from: NodeAddr, _body: &[u8]) -> Result<RpcResponse, RpcError> {
                self.released
                    .lock()
                    .recv()
                    .expect("the test releases first");
                let net = self.net.lock().take().expect("wired");
                assert_eq!(Arc::strong_count(&net), 1);
                drop(net);
                Ok(RpcResponse::new(&1u8))
            }
        }
        let net = ThreadedNetwork::new(Duration::from_secs(5));
        let (release, released) = bounded(1);
        let holder = Arc::new(LastHolder {
            net: Mutex::new(Some(Arc::clone(&net))),
            released: Mutex::new(released),
        });
        let mux = Arc::new(ServiceMux::new());
        mux.register(ServiceId::Kosha, holder);
        net.attach(NodeAddr(7), mux);

        let pending = net.call_async(NodeAddr(1), NodeAddr(7), req());
        drop(net);
        release.send(()).expect("handler is waiting");
        // A panic in the handler (the self-join) would come back as
        // `RpcError::Remote("handler panicked")`.
        let resp = pending
            .wait()
            .expect("served by the worker that dropped the transport");
        assert_eq!(resp.decode::<u8>().unwrap(), 1);
    }

    #[test]
    fn cross_service_self_call_does_not_deadlock() {
        // A service that, while handling a request, calls a *different*
        // service on the same node — the koshad loopback pattern. The
        // nested call runs from a pool worker, exercising the helping
        // path when the pool is small.
        struct Outer {
            net: RwLock<Option<Arc<ThreadedNetwork>>>,
        }
        impl RpcHandler for Outer {
            fn handle(&self, _from: NodeAddr, _body: &[u8]) -> Result<RpcResponse, RpcError> {
                let net = self.net.read().clone().expect("wired");
                net.call(
                    NodeAddr(1),
                    NodeAddr(1),
                    RpcRequest {
                        service: ServiceId::Nfs,
                        trace: None,
                        body: Bytes::new(),
                    },
                )
            }
        }
        let net = ThreadedNetwork::new(Duration::from_secs(2));
        let outer = Arc::new(Outer {
            net: RwLock::new(None),
        });
        *outer.net.write() = Some(net.clone());
        let mux = Arc::new(ServiceMux::new());
        mux.register(ServiceId::KoshaFs, outer);
        mux.register(ServiceId::Nfs, Arc::new(Counter(AtomicU64::new(7))));
        net.attach(NodeAddr(1), mux);

        let resp = net
            .call(
                NodeAddr(9),
                NodeAddr(1),
                RpcRequest {
                    service: ServiceId::KoshaFs,
                    trace: None,
                    body: Bytes::new(),
                },
            )
            .unwrap();
        assert_eq!(resp.decode::<u64>().unwrap(), 7);
    }

    #[test]
    fn call_many_is_truly_concurrent() {
        // Each target's handler blocks on a shared barrier sized to the
        // batch: the batch completes only if all three calls are in
        // flight at once. A serial implementation would stall the first
        // call forever (surfacing as a timeout error here). Under the
        // reactor this also proves distinct actors really run on
        // distinct pool workers.
        struct Rendezvous(Arc<std::sync::Barrier>);
        impl RpcHandler for Rendezvous {
            fn handle(&self, _from: NodeAddr, _body: &[u8]) -> Result<RpcResponse, RpcError> {
                self.0.wait();
                Ok(RpcResponse::new(&1u64))
            }
        }
        let net = ThreadedNetwork::new(Duration::from_secs(10));
        let barrier = Arc::new(std::sync::Barrier::new(3));
        for a in [1, 2, 3] {
            let mux = Arc::new(ServiceMux::new());
            mux.register(ServiceId::Kosha, Arc::new(Rendezvous(Arc::clone(&barrier))));
            net.attach(NodeAddr(a), mux);
        }
        let out = net.call_many(
            NodeAddr(9),
            vec![
                (NodeAddr(1), req()),
                (NodeAddr(2), req()),
                (NodeAddr(3), req()),
            ],
        );
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(Result::is_ok));
    }

    #[test]
    fn failed_node_rejects_and_recovers() {
        let net = ThreadedNetwork::new(Duration::from_secs(1));
        let mux = Arc::new(ServiceMux::new());
        mux.register(ServiceId::Kosha, Arc::new(Counter(AtomicU64::new(0))));
        net.attach(NodeAddr(3), mux);
        net.fail_node(NodeAddr(3));
        assert!(net.call(NodeAddr(1), NodeAddr(3), req()).is_err());
        net.recover_node(NodeAddr(3));
        assert!(net.call(NodeAddr(1), NodeAddr(3), req()).is_ok());
    }

    #[test]
    fn detach_stops_service() {
        let net = ThreadedNetwork::new(Duration::from_millis(200));
        let mux = Arc::new(ServiceMux::new());
        mux.register(ServiceId::Kosha, Arc::new(Counter(AtomicU64::new(0))));
        net.attach(NodeAddr(4), mux);
        net.detach(NodeAddr(4));
        assert!(matches!(
            net.call(NodeAddr(1), NodeAddr(4), req()),
            Err(RpcError::Unreachable(NodeAddr(4)))
        ));
    }

    #[test]
    fn trace_context_crosses_threads_and_fanout() {
        // A handler that proves it ran under the caller's trace by
        // echoing the ambient trace id back.
        struct EchoTrace;
        impl RpcHandler for EchoTrace {
            fn handle(&self, _from: NodeAddr, _body: &[u8]) -> Result<RpcResponse, RpcError> {
                let tid = kosha_obs::trace::current().map_or(0, |c| c.trace_id);
                Ok(RpcResponse::new(&tid))
            }
        }

        let net = ThreadedNetwork::new(Duration::from_secs(5));
        let mux = Arc::new(ServiceMux::new());
        mux.register(ServiceId::Kosha, Arc::new(EchoTrace));
        mux.register(ServiceId::KoshaReplica, Arc::new(EchoTrace));
        net.attach(NodeAddr(1), mux);

        let obs = net.obs();
        let now = std::time::Instant::now();
        let wall = move || now.elapsed().as_nanos() as u64;
        let (single, many) = obs.tracer.root("op", 0, wall, || {
            let tid = kosha_obs::trace::current().unwrap().trace_id;
            let single = net
                .call(NodeAddr(0), NodeAddr(1), req())
                .unwrap()
                .decode::<u64>()
                .unwrap();
            let batch = (0..3)
                .map(|_| (NodeAddr(1), RpcRequest::new(ServiceId::KoshaReplica, &0u64)))
                .collect();
            let many: Vec<u64> = net
                .call_many(NodeAddr(0), batch)
                .into_iter()
                .map(|r| r.unwrap().decode::<u64>().unwrap())
                .collect();
            assert!(many.iter().all(|&t| t == tid));
            (single == tid, many.len())
        });
        assert!(single, "pool worker must see the caller's trace");
        assert_eq!(many, 3);

        // Root + one rpc:kosha + three rpc:replica client spans, on the
        // wall clock, all in one trace.
        let spans = obs.tracer.take();
        assert_eq!(spans.len(), 5);
        let tid = spans[0].trace_id;
        assert!(spans.iter().all(|s| s.trace_id == tid));
        assert_eq!(spans.iter().filter(|s| s.name == "rpc:replica").count(), 3);
    }

    #[test]
    fn missing_service_reported_distinctly() {
        let net = ThreadedNetwork::new(Duration::from_millis(200));
        let mux = Arc::new(ServiceMux::new());
        mux.register(ServiceId::Kosha, Arc::new(Counter(AtomicU64::new(0))));
        net.attach(NodeAddr(5), mux);
        assert!(matches!(
            net.call(
                NodeAddr(1),
                NodeAddr(5),
                RpcRequest {
                    service: ServiceId::Nfs,
                    trace: None,
                    body: Bytes::new(),
                }
            ),
            Err(RpcError::NoService(ServiceId::Nfs))
        ));
    }

    #[test]
    fn pool_is_fixed_while_1k_async_calls_complete() {
        // ISSUE 7 satellite: worker-pool size stays fixed while 1k
        // concurrent call_async RPCs complete, and attaching nodes
        // spawns no threads.
        let net = ThreadedNetwork::new(Duration::from_secs(10));
        let pool = net.worker_threads();
        let spawned_at_start = net.threads_spawned();
        assert_eq!(spawned_at_start, pool as u64);

        let served = Arc::new(AtomicU64::new(0));
        struct Count(Arc<AtomicU64>);
        impl RpcHandler for Count {
            fn handle(&self, _from: NodeAddr, _body: &[u8]) -> Result<RpcResponse, RpcError> {
                let n = self.0.fetch_add(1, Ordering::SeqCst);
                Ok(RpcResponse::new(&n))
            }
        }
        for a in 0..50u64 {
            let mux = Arc::new(ServiceMux::new());
            mux.register(ServiceId::Kosha, Arc::new(Count(Arc::clone(&served))));
            net.attach(NodeAddr(a), mux);
        }
        assert_eq!(net.threads_spawned(), spawned_at_start, "attach spawned");

        let completions: Vec<_> = (0..1000u64)
            .map(|i| net.call_async(NodeAddr(999), NodeAddr(i % 50), req()))
            .collect();
        for c in completions {
            c.wait().unwrap();
        }
        assert_eq!(served.load(Ordering::SeqCst), 1000);
        assert_eq!(net.worker_threads(), pool);
        assert_eq!(net.threads_spawned(), spawned_at_start);
    }

    #[test]
    fn panicking_handler_fails_one_call_not_the_pool() {
        // A handler panic must surface as an RPC error to its caller
        // and leave the shared pool serving everyone else.
        struct Boom;
        impl RpcHandler for Boom {
            fn handle(&self, _from: NodeAddr, _body: &[u8]) -> Result<RpcResponse, RpcError> {
                panic!("boom");
            }
        }
        let net = ThreadedNetwork::new(Duration::from_secs(2));
        let mux = Arc::new(ServiceMux::new());
        mux.register(ServiceId::Kosha, Arc::new(Boom));
        mux.register(ServiceId::Nfs, Arc::new(Counter(AtomicU64::new(0))));
        net.attach(NodeAddr(1), mux);
        assert!(matches!(
            net.call(NodeAddr(2), NodeAddr(1), req()),
            Err(RpcError::Remote(_))
        ));
        let ok = net.call(
            NodeAddr(2),
            NodeAddr(1),
            RpcRequest {
                service: ServiceId::Nfs,
                trace: None,
                body: Bytes::new(),
            },
        );
        assert!(ok.is_ok());
    }
}
