//! Real-thread transport: a caller-runs reactor over a fixed worker pool.
//!
//! Used by the concurrency integration tests and the wall-clock
//! benchmark to exercise the same node logic as [`crate::SimNetwork`]
//! with genuine parallelism. Every `(node, service)` pair is an
//! *actor*: a handler, a FIFO queue of requests, and an ownership flag.
//! No thread belongs to an actor, so thread count is a function of the
//! host (`max(4, cores)` pool workers, capped at 64, plus one timer),
//! not of the cluster.
//!
//! # Who may serve an actor
//!
//! An actor is *owned* by at most one thread at a time (`running`), and
//! only its owner runs its handler, so requests to one `(node,
//! service)` serialize exactly as they would behind one daemon's event
//! loop (nfsd, koshad, the overlay), in arrival order. Three kinds of
//! thread take ownership, all through the one [`serve`] routine:
//!
//! * **The caller.** A blocking [`Network::call`] that finds its
//!   destination idle claims it and runs the handler on its own stack:
//!   no run queue, no wake-up, no reply channel, no thread change. This
//!   is the common case — an uncontended RPC costs a lock, the handler,
//!   and the accounting — and it nests: a handler's own blocking calls
//!   claim their idle destinations the same way, so a whole
//!   `client → koshad → control → replica` chain runs on the client's
//!   thread as it does under `SimNetwork`.
//! * **A pool worker.** A request that finds its actor owned, or that
//!   was issued with [`Network::call_async`], is queued on the actor;
//!   an actor with queued work and no owner goes onto the run queue,
//!   and a worker serves one request of it per turn. Requests to
//!   *different* actors genuinely overlap.
//! * **A helping waiter.** Any thread blocked on a reply (a caller
//!   queued behind a busy actor, or whoever redeems a
//!   [`CallCompletion`]) may pull *the one actor its reply depends on*
//!   off the run queue and serve it while it waits.
//!
//! [`Network::call_many`] is the trait's serial fan-out: each entry is a
//! blocking `call`, in batch order, so a batch of idle destinations runs
//! on its caller and wakes nobody. A caller that wants its RPCs in
//! flight at once asks for that by name, with [`Network::call_async`].
//!
//! # Deadlock discipline
//!
//! Handlers issue nested blocking RPCs while they own an actor, so a
//! fixed set of threads must not wedge when all of them wait. Two rules
//! prevent that, and neither depends on *which* thread serves:
//!
//! * A waiter helps only with the actor its own reply depends on.
//!   Driving one's own dependency chain is deadlock-free: the chain
//!   mirrors the nested-call chain, which the service discipline keeps
//!   acyclic, so the helped handler never needs an actor owned lower on
//!   the helper's stack. Every waiter helps — pool worker or not — so
//!   a reply is reachable even when every worker is parked. Helping
//!   with *unrelated* actors would not be safe: the helped handler can
//!   call back into an actor the helper owns, inverting the dependency
//!   into a wedge.
//! * Nested calls may revisit a node only on a *different* service —
//!   `client → koshad(A) → control(B) → nfsd(A)` is fine; a
//!   same-service cycle such as `koshad(A) → … → koshad(A)` is not: the
//!   actor is owned by the outer request, the inner one queues behind
//!   it and surfaces as a timeout. The caller never recurses into an
//!   actor that is already owned, its own included.
//!
//! One behavioural difference from a hand-off design: a request being
//! served in place cannot be abandoned at `call_timeout`, because the
//! thread that would give up is the one running the handler. Its nested
//! calls still time out, which bounds it exactly as it bounds a handler
//! on a worker.
//!
//! Periodic maintenance ([`PumpHook`]s) shares one `kosha-timer` thread
//! for the whole transport; it doubles as the flight-recorder sampling
//! tick.

use crate::clock::{Clock, SimTime, WallClock};
use crate::metrics::{CallAccount, NetMetrics};
use crate::network::{
    CallCompletion, Network, NodeAddr, PumpHook, RpcError, RpcRequest, RpcResponse, ServiceId,
    ServiceMux, TraceHeader,
};
use kosha_obs::{trace, Counter, Gauge, Histogram, Obs};
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TryRecvError};
use std::sync::{Arc, Weak};
use std::time::Duration;

type CallResult = Result<RpcResponse, RpcError>;

/// One queued request awaiting dispatch on an actor.
struct WorkItem {
    from: NodeAddr,
    req: RpcRequest,
    reply: SyncSender<CallResult>,
    /// Transport-clock reading at enqueue, for the reactor's
    /// dispatch-latency histogram.
    enqueued_nanos: u64,
}

/// Mutable half of an actor: its FIFO request queue plus scheduling
/// state. `running` is true while some thread owns the actor (it is
/// serving a request, or the actor sits on the run queue for the next
/// owner), which is what guarantees per-actor serialization. A
/// non-empty queue implies `running`.
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
/// `std` `Mutex`/`Condvar` because an `std::sync::mpsc` `Receiver` is
/// single-consumer.
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
    /// helping waiters: a blocked thread may only pull the actor its
    /// own reply depends on (see the module docs — popping unrelated
    /// actors can re-enter an actor owned lower on the helper's stack
    /// and invert the dependency into a deadlock). `Shutdown` items are
    /// left for the workers to consume.
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
/// completion waits: the run queue, the clock and the metrics.
struct ReactorShared {
    runq: RunQueue,
    clock: Arc<WallClock>,
    metrics: Arc<NetMetrics>,
    /// Requests dispatched to handlers (`kosha_reactor_events_total`).
    events_total: Arc<Counter>,
    /// Of those, the ones served on their caller's thread without ever
    /// being queued (`kosha_reactor_inline_total`).
    inline_total: Arc<Counter>,
    /// Enqueue→dispatch sojourn per request, wall nanos; 0 for a
    /// request served in place.
    dispatch_latency: Arc<Histogram>,
    /// Requests currently queued across all actors.
    queue_depth: Arc<Gauge>,
}

/// Serves one request of `actor` on the calling thread, which owns the
/// actor for the duration: `claimed` if the caller took the idle actor
/// for a request of its own (returned: its result), else the head of
/// the queue (answered through its reply channel). Afterwards the actor
/// is released, or handed to the run queue if work arrived meanwhile
/// (one request per turn keeps the pool fair under load; FIFO order
/// within the actor is preserved because only the owner pops).
fn serve(
    shared: &ReactorShared,
    actor: &Arc<ServiceActor>,
    claimed: Option<(NodeAddr, RpcRequest)>,
) -> Option<CallResult> {
    let (from, req, reply, waited_nanos) = match claimed {
        Some((from, req)) => {
            shared.inline_total.inc();
            (from, req, None, 0)
        }
        None => {
            let item = {
                let mut inner = actor.inner.lock();
                if inner.closed {
                    inner.q.clear();
                }
                let Some(item) = inner.q.pop_front() else {
                    inner.running = false;
                    return None;
                };
                item
                // Lock released before dispatch: the handler may issue
                // nested RPCs back into this transport (L001 discipline).
            };
            shared.queue_depth.add(-1);
            let waited = shared.clock.now().0.saturating_sub(item.enqueued_nanos);
            (item.from, item.req, Some(item.reply), waited)
        }
    };
    shared.events_total.inc();
    shared.dispatch_latency.record(waited_nanos);
    // Bridge the caller's trace onto the handler from the wire header
    // (and restore this thread's own context afterwards, panic or not).
    let resp = trace::with_context(req.trace.map(TraceHeader::ctx), || {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            actor.handler.handle_frame(from, req.frame())
        }))
    })
    .unwrap_or_else(|_| Err(RpcError::Remote("handler panicked".to_string())));
    let result = match reply {
        Some(reply) => {
            // The caller may have timed out; ignore send failure.
            let _ = reply.send(resp);
            None
        }
        None => Some(resp),
    };
    let more = {
        let mut inner = actor.inner.lock();
        if inner.closed {
            inner.q.clear();
        }
        inner.running = !inner.q.is_empty();
        inner.running
    };
    if more {
        shared.runq.push(RunItem::Actor(Arc::clone(actor)));
    }
    result
}

/// How a request entered its actor, decided under the actor's lock.
enum Admitted {
    /// The actor was idle and the caller is going to block anyway: the
    /// caller owns the actor now and serves the request itself.
    InPlace(RpcRequest),
    /// Queued behind the actor's owner, or (if it had none) handed to
    /// the pool along with the actor.
    Queued(Receiver<CallResult>),
    /// The actor is detached.
    Closed,
}

/// Admits one request to `actor`: claims the idle actor for a blocking
/// caller, otherwise queues the request and, if the actor had no owner,
/// schedules the actor onto the run queue.
fn admit(
    shared: &ReactorShared,
    actor: &Arc<ServiceActor>,
    from: NodeAddr,
    req: RpcRequest,
    now: SimTime,
    blocking: bool,
) -> Admitted {
    let (reply, newly_runnable) = {
        let mut inner = actor.inner.lock();
        if inner.closed {
            return Admitted::Closed;
        }
        let idle = !inner.running && inner.q.is_empty();
        inner.running = true;
        if idle && blocking {
            return Admitted::InPlace(req);
        }
        let (tx, rx) = sync_channel(1);
        inner.q.push_back(WorkItem {
            from,
            req,
            reply: tx,
            enqueued_nanos: now.0,
        });
        (rx, idle)
    };
    shared.queue_depth.add(1);
    if newly_runnable {
        shared.runq.push(RunItem::Actor(Arc::clone(actor)));
    }
    Admitted::Queued(reply)
}

/// Blocks until the queued request whose reply arrives on `reply` has
/// been served, helping with `awaited` (the actor it is queued on)
/// whenever that actor is runnable and nobody has picked it up.
fn await_reply(
    shared: &ReactorShared,
    awaited: &Arc<ServiceActor>,
    reply: &Receiver<CallResult>,
    deadline_nanos: u64,
    to: NodeAddr,
) -> CallResult {
    loop {
        match reply.try_recv() {
            Ok(resp) => return resp,
            Err(TryRecvError::Disconnected) => return Err(RpcError::Unreachable(to)),
            Err(TryRecvError::Empty) => {}
        }
        let now = shared.clock.now().0;
        if now >= deadline_nanos {
            return Err(RpcError::Unreachable(to));
        }
        // Drive the actor this reply depends on while waiting, so that
        // a saturated pool cannot starve the waiter (see the module
        // docs' deadlock discipline).
        if let Some(target) = shared.runq.try_pop_specific(awaited) {
            serve(shared, &target, None);
            continue;
        }
        let nap = Duration::from_nanos(deadline_nanos - now).min(Duration::from_micros(500));
        match reply.recv_timeout(nap) {
            Ok(resp) => return resp,
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return Err(RpcError::Unreachable(to)),
        }
    }
}

/// One attached address: its actors by [`ServiceId::index`], and whether
/// the machine is up. An address that is not attached is not up, and
/// `attach` brings a machine up, so a crash needs remembering only for
/// addresses in this table.
struct Registered {
    actors: [Option<Arc<ServiceActor>>; ServiceId::ALL.len()],
    up: bool,
}

impl Registered {
    /// Closes every actor of a node that has left the table. Dropping
    /// queued items drops their reply senders; waiters observe the
    /// disconnect as `Unreachable`.
    fn close(self) {
        for actor in self.actors.into_iter().flatten() {
            let mut inner = actor.inner.lock();
            inner.closed = true;
            inner.q.clear();
        }
    }
}

/// A periodic hook registration on the shared timer thread.
struct TimerEntry {
    hook: Weak<dyn PumpHook>,
    interval: Duration,
    since: Duration,
}

/// Caller-runs reactor transport. Nodes are attached with their
/// [`ServiceMux`]; attaching allocates per-service actors (no threads),
/// served by their callers and by the pool until the network is dropped
/// or the node is detached.
pub struct ThreadedNetwork {
    shared: Arc<ReactorShared>,
    nodes: RwLock<HashMap<NodeAddr, Registered>>,
    /// How long callers wait for a reply before declaring the node dead.
    call_timeout: Duration,
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
        let inline_total = obs.registry.counter("kosha_reactor_inline_total");
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
        obs.recorder
            .watch_counter("kosha_reactor_inline_total", &inline_total);
        obs.recorder.watch_histogram_pct(
            "kosha_reactor_dispatch_latency_nanos:p99",
            &dispatch_latency,
            99,
        );
        let shared = Arc::new(ReactorShared {
            runq: RunQueue::new(),
            clock,
            metrics,
            events_total,
            inline_total,
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
                    while let RunItem::Actor(actor) = shared.runq.pop_wait() {
                        serve(&shared, &actor, None);
                    }
                })
                .expect("spawn reactor worker");
            workers.push(handle);
        }
        let net = Arc::new(ThreadedNetwork {
            shared,
            nodes: RwLock::new(HashMap::new()),
            call_timeout,
            worker_count,
            workers: Mutex::new(workers),
            threads_spawned,
            pump_stop: Arc::new(AtomicBool::new(false)),
            timers: Arc::new(Mutex::new(Vec::new())),
            timer_thread: Mutex::new(None),
        });
        #[cfg(feature = "lockcheck")]
        crate::lockcheck_gate::install_cycle_hook(Arc::downgrade(&net.obs()), {
            let clock = Arc::clone(&net.shared.clock);
            move || clock.now().0
        });
        net
    }

    /// Transport-level observability: per-service call/byte counters and
    /// latency histograms (`rpc_*{service=...}`) plus the reactor's own
    /// `kosha_reactor_*` series, timestamped on the monotonic wall clock.
    #[must_use]
    pub fn obs(&self) -> Arc<Obs> {
        self.shared.metrics.obs()
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
    /// spawned: the shared pool serves the new actors. Re-attaching
    /// replaces the previous registration and closes its actors.
    pub fn attach(&self, addr: NodeAddr, mux: Arc<ServiceMux>) {
        let actors = ServiceId::ALL.map(|service| {
            mux.handler(service).map(|handler| {
                Arc::new(ServiceActor {
                    handler,
                    inner: Mutex::new(ActorInner::default()),
                })
            })
        });
        let node = Registered { actors, up: true };
        let replaced = self.nodes.write().insert(addr, node);
        if let Some(prev) = replaced {
            prev.close();
        }
    }

    /// Detaches a node, closing all of its actors. Requests already
    /// queued are dropped (their callers observe `Unreachable`). The
    /// departed peer's latency gauge, recorder series, and crash marker
    /// are pruned with it, so churn does not grow any per-peer state
    /// without bound.
    pub fn detach(&self, addr: NodeAddr) {
        let removed = self.nodes.write().remove(&addr);
        if let Some(node) = removed {
            node.close();
        }
        self.shared.metrics.prune_peer(addr);
    }

    /// Simulates a crash: the node stops answering (actors keep their
    /// state, but calls are rejected at the transport). A no-op for an
    /// address that is not attached.
    pub fn fail_node(&self, addr: NodeAddr) {
        self.set_up(addr, false);
    }

    /// Revives a crashed node.
    pub fn recover_node(&self, addr: NodeAddr) {
        self.set_up(addr, true);
    }

    fn set_up(&self, addr: NodeAddr, up: bool) {
        if let Some(node) = self.nodes.write().get_mut(&addr) {
            node.up = up;
        }
    }

    /// The one way into the transport: validate the destination, admit
    /// the request to its actor, and account the result once it is in.
    /// With `blocking`, the caller is about to wait for the result
    /// anyway, so it serves an idle actor itself, waits inline behind a
    /// busy one, and the completion comes back ready; without, the
    /// request always goes to the pool and the completion defers the
    /// wait. `req.trace` must already be stamped by the caller (`call`,
    /// or the ambient-context shim in `call_async`).
    fn issue(
        &self,
        from: NodeAddr,
        to: NodeAddr,
        req: RpcRequest,
        blocking: bool,
    ) -> CallCompletion {
        let service = req.service;
        let shared = &self.shared;
        let start = shared.clock.now();
        let account = CallAccount::enter(&shared.metrics, from, to, &req, start);
        let refuse = |err| {
            shared.metrics.svc(service).failed.inc();
            CallCompletion::ready(Err(err))
        };
        // One look at the table: a down or unknown node is unreachable,
        // a live one that lacks the service says so, mirroring
        // SimNetwork semantics.
        let actor = match self.nodes.read().get(&to) {
            Some(node) if node.up => node.actors[service.index()]
                .clone()
                .ok_or(RpcError::NoService(service)),
            _ => Err(RpcError::Unreachable(to)),
        };
        // No transport lock is held from here on: the handler may run
        // on this very stack.
        let actor = match actor {
            Ok(actor) => actor,
            Err(err) => return refuse(err),
        };
        let reply = match admit(shared, &actor, from, req, start, blocking) {
            Admitted::Closed => return refuse(RpcError::Unreachable(to)),
            Admitted::InPlace(req) => {
                let result = serve(shared, &actor, Some((from, req)))
                    .expect("a claimed request is answered to its caller");
                return CallCompletion::ready(account.finish(
                    &shared.metrics,
                    shared.clock.now(),
                    result,
                ));
            }
            Admitted::Queued(reply) => reply,
        };
        let timeout = self.call_timeout.as_nanos().min(u128::from(u64::MAX)) as u64;
        let deadline = start.0.saturating_add(timeout);
        let shared = Arc::clone(shared);
        let wait = move || {
            let result = await_reply(&shared, &actor, &reply, deadline, to);
            account.finish(&shared.metrics, shared.clock.now(), result)
        };
        if blocking {
            CallCompletion::ready(wait())
        } else {
            CallCompletion::deferred(Box::new(wait))
        }
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
        for (_, node) in self.nodes.write().drain() {
            node.close();
        }
    }
}

impl Network for ThreadedNetwork {
    /// Blocking RPC, served on this thread if the destination is idle
    /// (see the module docs). When a trace is active on this thread,
    /// the RPC is wrapped in a client span (wall-clock timed) whose
    /// context is stamped into the wire header, so the handler picks it
    /// up on whichever thread serves it.
    fn call(
        &self,
        from: NodeAddr,
        to: NodeAddr,
        mut req: RpcRequest,
    ) -> Result<RpcResponse, RpcError> {
        #[cfg(feature = "lockcheck")]
        crate::lockcheck_gate::rpc_gate(
            &self.shared.metrics.obs(),
            self.shared.clock.now().0,
            from,
            "ThreadedNetwork::call",
        );
        let span_name = req.service.rpc_span_name();
        self.shared.metrics.tracer().child_with(
            || span_name.to_string(),
            from.0,
            || self.shared.clock.now().0,
            |ctx| {
                req.trace = ctx.map(TraceHeader::from_ctx);
                self.issue(from, to, req, true).wait()
            },
        )
    }

    /// Continuation-style dispatch: enqueue on the destination actor
    /// and return immediately. If no span context has been stamped, the
    /// ambient trace (if any) is propagated; callers that want a
    /// per-call client span stamp one themselves (as `call` does).
    fn call_async(&self, from: NodeAddr, to: NodeAddr, mut req: RpcRequest) -> CallCompletion {
        if req.trace.is_none() {
            req.trace = trace::current().map(TraceHeader::from_ctx);
        }
        self.issue(from, to, req, false)
    }

    /// The trait's serial fan-out (every entry a blocking `call`, in
    /// batch order: served on this thread if its destination is idle,
    /// queued behind the owner and helped otherwise), plus the batch-size
    /// sample. Each entry's client span is the one `call` records, so a
    /// traced fan-out shows its RPCs one after another, as they ran.
    fn call_many(
        &self,
        from: NodeAddr,
        batch: Vec<(NodeAddr, RpcRequest)>,
    ) -> Vec<Result<RpcResponse, RpcError>> {
        #[cfg(feature = "lockcheck")]
        crate::lockcheck_gate::rpc_gate(
            &self.shared.metrics.obs(),
            self.shared.clock.now().0,
            from,
            "ThreadedNetwork::call_many",
        );
        self.shared.metrics.fanout_batch.record(batch.len() as u64);
        batch
            .into_iter()
            .map(|(to, req)| self.call(from, to, req))
            .collect()
    }

    fn clock(&self) -> Arc<dyn Clock> {
        Arc::clone(&self.shared.clock) as Arc<dyn Clock>
    }

    fn is_up(&self, addr: NodeAddr) -> bool {
        self.nodes.read().get(&addr).is_some_and(|node| node.up)
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
            let obs = self.shared.metrics.obs();
            let clock = Arc::clone(&self.shared.clock);
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
        self.shared.metrics.peer_latency(from, to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::RpcHandler;
    use crate::wire::WireRead;
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
            payload: None,
        }
    }

    /// `(events_total, inline_total)` of the reactor.
    fn served(net: &ThreadedNetwork) -> (u64, u64) {
        let reg = &net.obs().registry;
        (
            reg.counter("kosha_reactor_events_total").get(),
            reg.counter("kosha_reactor_inline_total").get(),
        )
    }

    /// Spins until `n` requests sit in actor queues: the only way to
    /// know that another thread's blocking call has been admitted.
    fn until_queued(net: &ThreadedNetwork, n: i64) {
        let depth = net.obs().registry.gauge("kosha_reactor_queue_depth");
        while depth.get() != n {
            std::thread::yield_now();
        }
    }

    /// Logs the `u64` id of every request it serves, in service order,
    /// and counts how many threads are inside it at once. Request 0
    /// parks: it reports on `entered` and waits for `release`.
    struct Logged {
        order: Mutex<Vec<u64>>,
        active: AtomicU64,
        max_active: AtomicU64,
        entered: SyncSender<()>,
        release: Mutex<Receiver<()>>,
    }

    impl Logged {
        /// The handler plus the test's ends of its two channels.
        fn new() -> (Arc<Self>, Receiver<()>, SyncSender<()>) {
            let (entered, has_entered) = sync_channel(1);
            let (do_release, release) = sync_channel(1);
            let handler = Arc::new(Logged {
                order: Mutex::new(Vec::new()),
                active: AtomicU64::new(0),
                max_active: AtomicU64::new(0),
                entered,
                release: Mutex::new(release),
            });
            (handler, has_entered, do_release)
        }
    }

    impl RpcHandler for Logged {
        fn handle(&self, _from: NodeAddr, body: &[u8]) -> Result<RpcResponse, RpcError> {
            let inside = self.active.fetch_add(1, Ordering::SeqCst) + 1;
            self.max_active.fetch_max(inside, Ordering::SeqCst);
            let id = u64::decode(body)?;
            if id == 0 {
                self.entered.send(()).expect("the test listens");
                self.release.lock().recv().expect("the test releases");
            }
            std::thread::yield_now();
            self.order.lock().push(id);
            self.active.fetch_sub(1, Ordering::SeqCst);
            Ok(RpcResponse::new(&id))
        }
    }

    fn numbered(id: u64) -> RpcRequest {
        RpcRequest::new(ServiceId::Kosha, &id)
    }

    #[test]
    fn blocking_chain_on_an_idle_transport_never_leaves_the_calling_thread() {
        // client → KoshaFs(1) → Kosha(2) → Nfs(2): each hop records the
        // thread it ran on and returns its depth in the chain.
        struct Hop {
            net: Weak<ThreadedNetwork>,
            me: NodeAddr,
            next: Option<(NodeAddr, ServiceId)>,
            ran_on: Arc<Mutex<Vec<std::thread::ThreadId>>>,
        }
        impl RpcHandler for Hop {
            fn handle(&self, _from: NodeAddr, _body: &[u8]) -> Result<RpcResponse, RpcError> {
                self.ran_on.lock().push(std::thread::current().id());
                let below = match self.next {
                    Some((to, service)) => {
                        let net = self.net.upgrade().expect("the caller holds the transport");
                        let request = RpcRequest::new(service, &0u8);
                        net.call(self.me, to, request)?.decode::<u64>()?
                    }
                    None => 0,
                };
                Ok(RpcResponse::new(&(below + 1)))
            }
        }
        let net = ThreadedNetwork::new(Duration::from_secs(5));
        let ran_on = Arc::new(Mutex::new(Vec::new()));
        let hop = |me, next| {
            Arc::new(Hop {
                net: Arc::downgrade(&net),
                me,
                next,
                ran_on: Arc::clone(&ran_on),
            })
        };
        let mux1 = Arc::new(ServiceMux::new());
        mux1.register(
            ServiceId::KoshaFs,
            hop(NodeAddr(1), Some((NodeAddr(2), ServiceId::Kosha))),
        );
        net.attach(NodeAddr(1), mux1);
        let mux2 = Arc::new(ServiceMux::new());
        mux2.register(
            ServiceId::Kosha,
            hop(NodeAddr(2), Some((NodeAddr(2), ServiceId::Nfs))),
        );
        mux2.register(ServiceId::Nfs, hop(NodeAddr(2), None));
        net.attach(NodeAddr(2), mux2);

        let depth = net
            .call(
                NodeAddr(9),
                NodeAddr(1),
                RpcRequest::new(ServiceId::KoshaFs, &0u8),
            )
            .unwrap()
            .decode::<u64>()
            .unwrap();
        assert_eq!(depth, 3);
        assert_eq!(*ran_on.lock(), vec![std::thread::current().id(); 3]);
        assert_eq!(served(&net), (3, 3));
        // Never queued: one zero dispatch-latency sample per request.
        let reg = &net.obs().registry;
        let dispatch = reg.histogram("kosha_reactor_dispatch_latency_nanos");
        assert_eq!((dispatch.count(), dispatch.max()), (3, 0));
        assert_eq!(reg.gauge("kosha_reactor_queue_depth").get(), 0);
    }

    #[test]
    fn callers_of_a_busy_actor_queue_behind_its_owner_in_order() {
        let net = ThreadedNetwork::new(Duration::from_secs(10));
        let (handler, has_entered, release) = Logged::new();
        let mux = Arc::new(ServiceMux::new());
        mux.register(ServiceId::Kosha, handler.clone());
        net.attach(NodeAddr(1), mux);

        std::thread::scope(|s| {
            // Request 0 claims the idle actor and parks in its handler.
            let owner = s.spawn(|| net.call(NodeAddr(8), NodeAddr(1), numbered(0)));
            has_entered.recv().expect("request 0 is being served");
            // A second blocking caller and an async one find it owned.
            let second = s.spawn(|| net.call(NodeAddr(9), NodeAddr(1), numbered(1)));
            until_queued(&net, 1);
            let third = net.call_async(NodeAddr(9), NodeAddr(1), numbered(2));
            until_queued(&net, 2);
            assert_eq!(*handler.order.lock(), Vec::<u64>::new());
            release.send(()).expect("request 0 is parked");
            for (id, result) in [
                (0, owner.join().expect("owner thread")),
                (1, second.join().expect("second thread")),
                (2, third.wait()),
            ] {
                assert_eq!(result.unwrap().decode::<u64>().unwrap(), id);
            }
        });
        assert_eq!(*handler.order.lock(), vec![0, 1, 2]);
        assert_eq!(handler.max_active.load(Ordering::SeqCst), 1);
        // Only request 0 found the actor idle.
        assert_eq!(served(&net), (3, 1));
    }

    #[test]
    fn an_actor_never_runs_on_two_threads_at_once() {
        let net = ThreadedNetwork::new(Duration::from_secs(30));
        let (handler, _has_entered, _release) = Logged::new();
        let mux = Arc::new(ServiceMux::new());
        mux.register(ServiceId::Kosha, handler.clone());
        net.attach(NodeAddr(1), mux);
        std::thread::scope(|s| {
            for caller in 0..8u64 {
                let net = &net;
                s.spawn(move || {
                    for i in 1..=200u64 {
                        let id = caller * 1000 + i;
                        let from = NodeAddr(100 + caller);
                        let result = if i % 2 == 0 {
                            net.call(from, NodeAddr(1), numbered(id))
                        } else {
                            net.call_async(from, NodeAddr(1), numbered(id)).wait()
                        };
                        assert_eq!(result.unwrap().decode::<u64>().unwrap(), id);
                    }
                });
            }
        });
        assert_eq!(handler.max_active.load(Ordering::SeqCst), 1);
        let order = handler.order.lock();
        assert_eq!(order.len(), 1600);
        // Per caller, service order is issue order.
        for caller in 0..8u64 {
            let mine: Vec<u64> = order
                .iter()
                .copied()
                .filter(|id| id / 1000 == caller)
                .collect();
            assert!(mine.windows(2).all(|w| w[0] < w[1]), "caller {caller}");
        }
        let (events, inline) = served(&net);
        assert_eq!(events, 1600);
        assert!(inline <= 800, "call_async is never served in place");
    }

    #[test]
    fn same_service_cycle_from_an_in_place_caller_times_out() {
        // KoshaFs(1) calls KoshaFs(1) while serving: the actor is owned
        // by the outer request (on the client's own thread), so the
        // inner one must queue and time out, not recurse.
        struct Reenter {
            net: Weak<ThreadedNetwork>,
            active: AtomicU64,
            max_active: AtomicU64,
        }
        impl RpcHandler for Reenter {
            fn handle(&self, _from: NodeAddr, body: &[u8]) -> Result<RpcResponse, RpcError> {
                let inside = self.active.fetch_add(1, Ordering::SeqCst) + 1;
                self.max_active.fetch_max(inside, Ordering::SeqCst);
                let outer = u8::decode(body)? == 0;
                let timed_out = outer && {
                    let net = self.net.upgrade().expect("the caller holds the transport");
                    let inner = net.call(
                        NodeAddr(1),
                        NodeAddr(1),
                        RpcRequest::new(ServiceId::KoshaFs, &1u8),
                    );
                    matches!(inner, Err(RpcError::Unreachable(NodeAddr(1))))
                };
                self.active.fetch_sub(1, Ordering::SeqCst);
                Ok(RpcResponse::new(&timed_out))
            }
        }
        let timeout = Duration::from_millis(200);
        let net = ThreadedNetwork::new(timeout);
        let handler = Arc::new(Reenter {
            net: Arc::downgrade(&net),
            active: AtomicU64::new(0),
            max_active: AtomicU64::new(0),
        });
        let mux = Arc::new(ServiceMux::new());
        mux.register(ServiceId::KoshaFs, handler.clone());
        net.attach(NodeAddr(1), mux);

        let started = std::time::Instant::now();
        let outer = net.call(
            NodeAddr(9),
            NodeAddr(1),
            RpcRequest::new(ServiceId::KoshaFs, &0u8),
        );
        assert!(outer.unwrap().decode::<bool>().unwrap(), "inner call");
        assert!(started.elapsed() >= timeout);
        assert_eq!(handler.max_active.load(Ordering::SeqCst), 1);
        // The abandoned inner request is served once its owner lets go,
        // and the actor is free again afterwards.
        let again = net.call(
            NodeAddr(9),
            NodeAddr(1),
            RpcRequest::new(ServiceId::KoshaFs, &1u8),
        );
        assert!(!again.unwrap().decode::<bool>().unwrap());
        assert_eq!(served(&net).0, 3);
    }

    #[test]
    fn panic_served_in_place_fails_the_call_and_releases_the_actor() {
        struct BoomOnce(AtomicBool);
        impl RpcHandler for BoomOnce {
            fn handle(&self, _from: NodeAddr, _body: &[u8]) -> Result<RpcResponse, RpcError> {
                assert!(self.0.swap(true, Ordering::SeqCst), "boom");
                Ok(RpcResponse::new(&1u8))
            }
        }
        let net = ThreadedNetwork::new(Duration::from_secs(2));
        let mux = Arc::new(ServiceMux::new());
        mux.register(ServiceId::Kosha, Arc::new(BoomOnce(AtomicBool::new(false))));
        net.attach(NodeAddr(1), mux);
        assert!(matches!(
            net.call(NodeAddr(2), NodeAddr(1), req()),
            Err(RpcError::Remote(_))
        ));
        // A leaked `running` flag would queue this call behind nobody.
        assert!(net.call(NodeAddr(2), NodeAddr(1), req()).is_ok());
        assert_eq!(served(&net), (2, 2));
        let failed = net
            .obs()
            .registry
            .counter("rpc_failed_calls_total{service=\"kosha\"}");
        assert_eq!(failed.get(), 1);
    }

    #[test]
    fn detach_during_an_in_place_request_lets_it_finish_and_clears_the_queue() {
        let net = ThreadedNetwork::new(Duration::from_secs(10));
        let (handler, has_entered, release) = Logged::new();
        let mux = Arc::new(ServiceMux::new());
        mux.register(ServiceId::Kosha, handler.clone());
        net.attach(NodeAddr(1), mux);
        std::thread::scope(|s| {
            let in_flight = s.spawn(|| net.call(NodeAddr(8), NodeAddr(1), numbered(0)));
            has_entered.recv().expect("request 0 is being served");
            let queued = net.call_async(NodeAddr(9), NodeAddr(1), numbered(1));
            net.detach(NodeAddr(1));
            assert!(matches!(
                queued.wait(),
                Err(RpcError::Unreachable(NodeAddr(1)))
            ));
            release.send(()).expect("request 0 is parked");
            let finished = in_flight.join().expect("caller thread");
            assert_eq!(finished.unwrap().decode::<u64>().unwrap(), 0);
        });
        assert!(matches!(
            net.call(NodeAddr(9), NodeAddr(1), numbered(2)),
            Err(RpcError::Unreachable(NodeAddr(1)))
        ));
        assert_eq!(*handler.order.lock(), vec![0]);
    }

    #[test]
    fn a_plain_thread_waiting_on_a_completion_helps() {
        // Every pool worker parks inside a gate handler; the request the
        // test thread then issues with `call_async` can only be served
        // by the test thread itself, while it waits.
        struct Gate {
            arrived: SyncSender<()>,
            open: Arc<std::sync::Barrier>,
        }
        impl RpcHandler for Gate {
            fn handle(&self, _from: NodeAddr, _body: &[u8]) -> Result<RpcResponse, RpcError> {
                self.arrived.send(()).expect("the test counts arrivals");
                self.open.wait();
                Ok(RpcResponse::new(&0u8))
            }
        }
        let net = ThreadedNetwork::new(Duration::from_secs(10));
        let pool = net.worker_threads();
        let (arrived, arrivals) = sync_channel(pool);
        let open = Arc::new(std::sync::Barrier::new(pool + 1));
        for gate in 0..pool as u64 {
            let mux = Arc::new(ServiceMux::new());
            mux.register(
                ServiceId::Kosha,
                Arc::new(Gate {
                    arrived: arrived.clone(),
                    open: Arc::clone(&open),
                }),
            );
            net.attach(NodeAddr(gate), mux);
        }
        let mux = Arc::new(ServiceMux::new());
        mux.register(ServiceId::Kosha, Arc::new(Counter(AtomicU64::new(41))));
        net.attach(NodeAddr(99), mux);

        let parked: Vec<_> = (0..pool as u64)
            .map(|gate| net.call_async(NodeAddr(100), NodeAddr(gate), req()))
            .collect();
        for _ in 0..pool {
            arrivals.recv().expect("a worker reached its gate");
        }
        let helped = net.call_async(NodeAddr(100), NodeAddr(99), req()).wait();
        assert_eq!(helped.unwrap().decode::<u64>().unwrap(), 41);
        open.wait();
        for completion in parked {
            completion.wait().unwrap();
        }
        assert_eq!(served(&net), (pool as u64 + 1, 0));
    }

    #[test]
    fn call_many_runs_on_its_caller_in_batch_order() {
        // The K = 2 mirror fan-out on an idle transport: both entries
        // are served in place, one after the other, and nothing is
        // queued for the pool.
        struct Stamp(u64, Arc<Mutex<Vec<(u64, std::thread::ThreadId)>>>);
        impl RpcHandler for Stamp {
            fn handle(&self, _from: NodeAddr, _body: &[u8]) -> Result<RpcResponse, RpcError> {
                self.1.lock().push((self.0, std::thread::current().id()));
                Ok(RpcResponse::new(&self.0))
            }
        }
        let net = ThreadedNetwork::new(Duration::from_secs(10));
        let ran = Arc::new(Mutex::new(Vec::new()));
        for a in [1, 2] {
            let mux = Arc::new(ServiceMux::new());
            let stamp = Arc::new(Stamp(a, Arc::clone(&ran)));
            mux.register(ServiceId::KoshaReplica, stamp);
            net.attach(NodeAddr(a), mux);
        }
        let batch = [2, 1]
            .into_iter()
            .map(|a| (NodeAddr(a), RpcRequest::new(ServiceId::KoshaReplica, &0u8)))
            .collect();
        let out: Vec<u64> = net
            .call_many(NodeAddr(9), batch)
            .into_iter()
            .map(|r| r.unwrap().decode().unwrap())
            .collect();
        assert_eq!(out, vec![2, 1]);
        let me = std::thread::current().id();
        assert_eq!(*ran.lock(), vec![(2, me), (1, me)]);
        assert_eq!(served(&net), (2, 2));
        let batches = net.obs().registry.histogram("rpc_fanout_batch_size");
        assert_eq!((batches.count(), batches.max()), (1, 2));
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
            released: Mutex<Receiver<()>>,
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
        let (release, released) = sync_channel(1);
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
        // service on the same node — the koshad loopback pattern. Both
        // actors end up owned by the calling thread, one above the other
        // on its stack.
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
                        payload: None,
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
                    payload: None,
                },
            )
            .unwrap();
        assert_eq!(resp.decode::<u64>().unwrap(), 7);
    }

    #[test]
    fn call_async_is_truly_concurrent() {
        // Each target's handler blocks on a shared barrier sized to the
        // three calls: they complete only if all three are in flight at
        // once. A serial dispatch would stall the first call forever
        // (surfacing as a timeout error here). This proves that distinct
        // actors really overlap on distinct pool workers.
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
        let in_flight: Vec<_> = [1, 2, 3]
            .into_iter()
            .map(|a| net.call_async(NodeAddr(9), NodeAddr(a), req()))
            .collect();
        assert!(in_flight.into_iter().all(|c| c.wait().is_ok()));
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
    fn fail_node_before_attach_is_forgotten_by_attach() {
        let net = ThreadedNetwork::new(Duration::from_secs(1));
        let counter = || {
            let mux = Arc::new(ServiceMux::new());
            mux.register(ServiceId::Kosha, Arc::new(Counter(AtomicU64::new(0))));
            mux
        };
        net.attach(NodeAddr(1), counter());
        // A crash report for an address nobody attached leaves it what
        // it was, not up; attaching brings the machine up.
        net.fail_node(NodeAddr(9));
        assert!(!net.is_up(NodeAddr(9)));
        assert_eq!(
            net.call(NodeAddr(1), NodeAddr(9), req()).unwrap_err(),
            RpcError::Unreachable(NodeAddr(9))
        );
        net.recover_node(NodeAddr(9));
        assert!(!net.is_up(NodeAddr(9)));
        net.attach(NodeAddr(9), counter());
        assert!(net.is_up(NodeAddr(9)));
        assert!(net.call(NodeAddr(1), NodeAddr(9), req()).is_ok());
        // Detaching a failed node forgets the crash with the node.
        net.fail_node(NodeAddr(9));
        net.detach(NodeAddr(9));
        net.recover_node(NodeAddr(9));
        assert!(!net.is_up(NodeAddr(9)));
        assert!(net.call(NodeAddr(1), NodeAddr(9), req()).is_err());
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
            // The cross-thread half: a pool worker picks the context up
            // from the wire header `call_async` stamps.
            let crossed = net.call_async(NodeAddr(0), NodeAddr(1), req()).wait();
            let crossed = crossed.unwrap().decode::<u64>().unwrap();
            assert_eq!(crossed, tid, "pool worker must see the caller's trace");
            (single == tid, many.len())
        });
        assert!(single, "a handler served in place sees the caller's trace");
        assert_eq!(many, 3);

        // Root + one rpc:kosha + three rpc:replica client spans, on the
        // wall clock, all in one trace (`call_async` propagates the
        // ambient context and records no client span of its own).
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
                    payload: None,
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
                payload: None,
            },
        );
        assert!(ok.is_ok());
    }
}
