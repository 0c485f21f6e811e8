//! Real-thread transport: every request runs on the thread that issued it.
//!
//! Used by the concurrency integration tests and the wall-clock
//! benchmark to exercise the same node logic as [`crate::SimNetwork`]
//! with genuine parallelism. Every `(node, service)` pair is an
//! *actor*: a handler behind a first-come, first-served lock. No thread
//! belongs to an actor or serves requests for others, so the one thread
//! a transport spawns is its timer, started by the first
//! [`Network::schedule_pump`].
//!
//! # Who serves an actor
//!
//! The caller. A blocking [`Network::call`] that finds its destination
//! idle owns it and runs the handler on its own stack: no queue, no
//! wake-up, no thread change. It nests: a handler's own calls own their
//! idle destinations the same way, so a whole `client → koshad →
//! control → replica` chain runs on the client's thread as it does
//! under `SimNetwork`.
//!
//! A caller that finds its actor owned joins the actor's line and
//! parks. When the owner's request is done it hands the actor straight
//! to the oldest waiter, so requests to one `(node, service)` run one at
//! a time and in arrival order, as behind one daemon's event loop (nfsd,
//! koshad, the overlay), and no newcomer overtakes the line. A waiter
//! whose `call_timeout` passes before its turn leaves the line and gets
//! `Unreachable`; its request never runs, so a caller that retries
//! cannot meet a late copy of it. [`ThreadedNetwork::detach`] wakes
//! every waiter with `Unreachable`.
//!
//! [`Network::call_many`] is the trait's serial fan-out: each entry is a
//! blocking `call`, in batch order.
//!
//! # Deadlock discipline
//!
//! A waiter waits only for the actor it calls. Nested calls may revisit
//! a node only on a *different* service — `client → koshad(A) →
//! control(B) → nfsd(A)` is fine, and the service discipline keeps such
//! chains acyclic. A same-service cycle such as `koshad(A) → … →
//! koshad(A)` waits for an actor owned lower on its own stack and ends
//! in `Unreachable` at `call_timeout`. A request being served is never
//! abandoned at `call_timeout`, because the thread that would give up is
//! the one running the handler; its nested calls still time out.
//!
//! Periodic maintenance ([`PumpHook`]s) shares one `kosha-timer` thread
//! for the whole transport; it doubles as the flight-recorder sampling
//! tick.

use crate::clock::{Clock, WallClock};
use crate::metrics::{CallAccount, NetMetrics};
use crate::network::{
    Network, NodeAddr, PumpHook, RpcError, RpcHandler, RpcRequest, RpcResponse, ServiceId,
    ServiceMux, TraceHeader,
};
use kosha_obs::{stripe, trace, Counter, Gauge, Histogram, Obs};
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::thread::Thread;
use std::time::Duration;

/// One `(node, service)` endpoint: the handler, and the lock that lets
/// one request at a time run it.
struct ServiceActor {
    handler: Arc<dyn RpcHandler>,
    line: Mutex<Line>,
}

/// An actor's lock. `owned` is true while some thread runs the handler
/// or has been handed the actor; `waiting` holds the parked callers in
/// arrival order. A caller leaves `waiting` in one of three ways: the
/// owner hands it the actor, `close` wakes it, or it gives up.
#[derive(Default)]
struct Line {
    owned: bool,
    closed: bool,
    waiting: VecDeque<Thread>,
}

/// How a caller's wait for its actor ended.
enum Turn {
    /// The caller owns the actor, after waiting this many nanoseconds
    /// (0 if it was idle).
    Owned(u64),
    /// The actor was closed first.
    Closed,
    /// `call_timeout` passed in line.
    TimedOut,
}

impl ServiceActor {
    /// Takes the actor for the calling thread: at once if it is idle,
    /// else once every earlier caller is done, parked in its line until
    /// the owner hands it over, the actor closes, or the transport clock
    /// reaches `deadline`.
    fn acquire(&self, net: &ThreadedNetwork, start: u64, deadline: u64) -> Turn {
        let mut line = self.line.lock();
        if line.closed {
            return Turn::Closed;
        }
        if !line.owned {
            line.owned = true;
            return Turn::Owned(0);
        }
        let me = std::thread::current();
        let id = me.id();
        line.waiting.push_back(me);
        net.queue_depth.add(1);
        let turn = loop {
            if line.closed {
                break Turn::Closed;
            }
            let now = net.clock.now().0;
            if !line.waiting.iter().any(|t| t.id() == id) {
                break Turn::Owned(now.saturating_sub(start));
            }
            if now >= deadline {
                line.waiting.retain(|t| t.id() != id);
                break Turn::TimedOut;
            }
            drop(line);
            std::thread::park_timeout(Duration::from_nanos(deadline - now));
            line = self.line.lock();
        };
        drop(line);
        net.queue_depth.add(-1);
        turn
    }

    /// Hands the actor to the oldest waiter, or leaves it idle.
    fn release(&self) {
        let next = {
            let mut line = self.line.lock();
            let next = line.waiting.pop_front();
            line.owned = next.is_some();
            next
        };
        if let Some(next) = next {
            next.unpark();
        }
    }

    /// Refuses every later caller and wakes every waiter, who return
    /// `Unreachable`. A request being served finishes.
    fn close(&self) {
        let waiting = {
            let mut line = self.line.lock();
            line.closed = true;
            std::mem::take(&mut line.waiting)
        };
        for waiter in waiting {
            waiter.unpark();
        }
    }
}

/// One attached address: its actors by [`ServiceId::index`], and whether
/// the machine is up. An address that is not attached is not up, and
/// `attach` brings a machine up, so a crash needs remembering only for
/// addresses in this table.
#[derive(Clone)]
struct Registered {
    actors: [Option<Arc<ServiceActor>>; ServiceId::ALL.len()],
    up: bool,
}

impl Registered {
    /// Closes every actor of a node that has left the table.
    fn close(self) {
        for actor in self.actors.into_iter().flatten() {
            actor.close();
        }
    }
}

/// The attached addresses, kept as one copy per thread stripe
/// ([`kosha_obs::stripe`]). A call reads its own thread's copy, so the
/// read lock it takes is on lines that no other thread's calls write;
/// attach, detach, fail and recover are rare, and change every copy in
/// turn.
struct NodeTable {
    copies: Box<[stripe::Padded<RwLock<Nodes>>]>,
}

type Nodes = HashMap<NodeAddr, Registered>;

impl NodeTable {
    fn new() -> Self {
        NodeTable {
            copies: (0..stripe::count())
                .map(|_| stripe::Padded::default())
                .collect(),
        }
    }

    /// The calling thread's copy.
    fn read(&self) -> parking_lot::RwLockReadGuard<'_, Nodes> {
        self.copies[stripe::index()].0.read()
    }

    /// Applies `change` to every copy; returns what it returned for the
    /// last one (every copy holds the same entries, so any would do).
    fn change<R>(&self, mut change: impl FnMut(&mut Nodes) -> R) -> R {
        let mut out = None;
        for copy in self.copies.iter() {
            out = Some(change(&mut copy.0.write()));
        }
        out.expect("at least one copy")
    }
}

/// A periodic hook registration on the shared timer thread.
struct TimerEntry {
    hook: Weak<dyn PumpHook>,
    interval: Duration,
    since: Duration,
}

/// Caller-runs transport. Nodes are attached with their [`ServiceMux`];
/// attaching allocates one actor per registered service (no threads),
/// served by their callers until the network is dropped or the node is
/// detached.
pub struct ThreadedNetwork {
    clock: Arc<WallClock>,
    metrics: Arc<NetMetrics>,
    /// Requests served (`kosha_reactor_events_total`).
    events_total: Arc<Counter>,
    /// How long each served request waited to own its actor, wall nanos;
    /// 0 when the actor was idle.
    dispatch_latency: Arc<Histogram>,
    /// Callers waiting in some actor's line.
    queue_depth: Arc<Gauge>,
    nodes: NodeTable,
    /// How long a caller waits in line before declaring the node dead.
    call_timeout: Duration,
    /// Every OS thread this transport has ever spawned
    /// (`kosha_reactor_threads_spawned_total`): the timer, or nothing.
    threads_spawned: Arc<Counter>,
    /// Raised on drop; the timer thread exits at its next tick.
    pump_stop: Arc<AtomicBool>,
    timers: Arc<Mutex<Vec<TimerEntry>>>,
    timer_thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl ThreadedNetwork {
    /// New threaded network with the given caller-side timeout. Spawns
    /// no thread.
    #[must_use]
    pub fn new(call_timeout: Duration) -> Arc<Self> {
        let metrics = Arc::new(NetMetrics::new());
        let obs = metrics.obs();
        let registry = &obs.registry;
        let net = Arc::new(ThreadedNetwork {
            clock: WallClock::new(),
            events_total: registry.striped_counter("kosha_reactor_events_total"),
            dispatch_latency: registry.histogram("kosha_reactor_dispatch_latency_nanos"),
            queue_depth: registry.gauge("kosha_reactor_queue_depth"),
            threads_spawned: registry.counter("kosha_reactor_threads_spawned_total"),
            metrics,
            nodes: NodeTable::new(),
            call_timeout,
            pump_stop: Arc::new(AtomicBool::new(false)),
            timers: Arc::new(Mutex::new(Vec::new())),
            timer_thread: Mutex::new(None),
        });
        #[cfg(feature = "lockcheck")]
        crate::lockcheck_gate::install_cycle_hook(Arc::downgrade(&net.obs()), {
            let clock = Arc::clone(&net.clock);
            move || clock.now().0
        });
        net
    }

    /// Transport-level observability: per-service call/byte counters and
    /// latency histograms (`rpc_*{service=...}`) plus the transport's own
    /// `kosha_reactor_*` series, timestamped on the monotonic wall clock.
    #[must_use]
    pub fn obs(&self) -> Arc<Obs> {
        self.metrics.obs()
    }

    /// Total OS threads this transport has spawned so far: 1 once a
    /// pump is scheduled (the shared timer), else 0.
    #[must_use]
    pub fn threads_spawned(&self) -> u64 {
        self.threads_spawned.get()
    }

    /// Attaches a node, allocating one actor per service registered in
    /// `mux` now (a service registered later is not served until the
    /// node is attached again). Re-attaching replaces the previous
    /// registration and closes its actors.
    pub fn attach(&self, addr: NodeAddr, mux: Arc<ServiceMux>) {
        let actors = mux.handlers().map(|handler| {
            handler.map(|handler| {
                Arc::new(ServiceActor {
                    handler,
                    line: Mutex::new(Line::default()),
                })
            })
        });
        let node = Registered { actors, up: true };
        let replaced = self.nodes.change(|nodes| nodes.insert(addr, node.clone()));
        if let Some(prev) = replaced {
            prev.close();
        }
    }

    /// Detaches a node, closing all of its actors: callers waiting in
    /// their lines observe `Unreachable`.
    pub fn detach(&self, addr: NodeAddr) {
        let removed = self.nodes.change(|nodes| nodes.remove(&addr));
        if let Some(node) = removed {
            node.close();
        }
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
        self.nodes.change(|nodes| {
            if let Some(node) = nodes.get_mut(&addr) {
                node.up = up;
            }
        });
    }

    /// The one way into the transport: validate the destination, own its
    /// actor, run the handler on this thread and account the result.
    /// `req.trace` is already stamped by `call`.
    fn issue(
        &self,
        from: NodeAddr,
        to: NodeAddr,
        req: RpcRequest,
    ) -> Result<RpcResponse, RpcError> {
        let service = req.service;
        let start = self.clock.now();
        let account = CallAccount::enter(&self.metrics, from, to, &req, start);
        let refuse = |err| {
            self.metrics.svc(service).failed.inc();
            Err(err)
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
        // No transport lock is held from here on: the handler runs on
        // this very stack.
        let actor = match actor {
            Ok(actor) => actor,
            Err(err) => return refuse(err),
        };
        let timeout = self.call_timeout.as_nanos().min(u128::from(u64::MAX)) as u64;
        let waited = match actor.acquire(self, start.0, start.0.saturating_add(timeout)) {
            Turn::Owned(waited) => waited,
            Turn::Closed => return refuse(RpcError::Unreachable(to)),
            Turn::TimedOut => {
                let result = Err(RpcError::Unreachable(to));
                return account.finish(&self.metrics, self.clock.now(), result);
            }
        };
        self.events_total.inc();
        self.dispatch_latency.record(waited);
        // Bridge the caller's trace onto the handler from the wire header
        // (and restore this thread's own context afterwards, panic or not).
        let result = trace::with_context(req.trace.map(TraceHeader::ctx), || {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                actor.handler.handle_frame(from, req.frame())
            }))
        })
        .unwrap_or_else(|_| Err(RpcError::Remote("handler panicked".to_string())));
        actor.release();
        account.finish(&self.metrics, self.clock.now(), result)
    }
}

impl Drop for ThreadedNetwork {
    fn drop(&mut self) {
        self.pump_stop.store(true, Ordering::SeqCst);
        // The last reference may be released on the timer thread, after
        // it upgraded a hook whose owner holds the transport. Joining
        // oneself fails with EDEADLK, so that handle is dropped instead:
        // the timer exits by itself at its next tick.
        if let Some(timer) = self.timer_thread.lock().take() {
            if timer.thread().id() != std::thread::current().id() {
                let _ = timer.join();
            }
        }
        let nodes = self.nodes.change(std::mem::take);
        for node in nodes.into_values() {
            node.close();
        }
    }
}

impl Network for ThreadedNetwork {
    /// Blocking RPC, served on this thread (see the module docs). When a
    /// trace is active on this thread, the RPC is wrapped in a client
    /// span (wall-clock timed) whose context is stamped into the wire
    /// header, from which the handler takes it.
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
                self.issue(from, to, req)
            },
        )
    }

    fn clock(&self) -> Arc<dyn Clock> {
        Arc::clone(&self.clock) as Arc<dyn Clock>
    }

    fn is_up(&self, addr: NodeAddr) -> bool {
        self.nodes.read().get(&addr).is_some_and(|node| node.up)
    }

    /// Registers the hook on the transport's shared timer thread
    /// (spawned lazily on the first registration, never per hook): on
    /// real threads the transport owns pump timing. The timer doubles as this transport's flight-recorder ticker
    /// (SimNetwork ticks in `run_pumps` instead).
    fn schedule_pump(&self, hook: Weak<dyn PumpHook>, interval: Duration) {
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
                    obs.recorder.sample_all(clock.now().0);
                })
                .expect("spawn timer thread");
            *timer = Some(handle);
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::WireRead;
    use bytes::Bytes;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::mpsc::{sync_channel, Receiver, SyncSender};

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

    /// `kosha_reactor_events_total`: requests served.
    fn served(net: &ThreadedNetwork) -> u64 {
        net.obs()
            .registry
            .counter("kosha_reactor_events_total")
            .get()
    }

    /// Spins until `n` callers wait in actor lines: the only way to know
    /// that another thread's call has found its actor owned.
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

    /// A transport with `handler` as node 1's Kosha service.
    fn serving(timeout: Duration, handler: Arc<dyn RpcHandler>) -> Arc<ThreadedNetwork> {
        let net = ThreadedNetwork::new(timeout);
        let mux = Arc::new(ServiceMux::new());
        mux.register(ServiceId::Kosha, handler);
        net.attach(NodeAddr(1), mux);
        net
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
        assert_eq!(served(&net), 3);
        // Nobody waited: one zero dispatch-latency sample per request.
        let reg = &net.obs().registry;
        let dispatch = reg.histogram("kosha_reactor_dispatch_latency_nanos");
        assert_eq!((dispatch.count(), dispatch.max()), (3, 0));
        assert_eq!(reg.gauge("kosha_reactor_queue_depth").get(), 0);
    }

    #[test]
    fn callers_of_a_busy_actor_queue_behind_its_owner_in_order() {
        let (handler, has_entered, release) = Logged::new();
        let net = serving(Duration::from_secs(10), handler.clone());
        std::thread::scope(|s| {
            let net = &net;
            // Request 0 claims the idle actor and parks in its handler.
            let owner = s.spawn(move || net.call(NodeAddr(8), NodeAddr(1), numbered(0)));
            has_entered.recv().expect("request 0 is being served");
            // Three more callers find it owned and line up one by one.
            let waiters: Vec<_> = (1..=3u64)
                .map(|id| {
                    let waiter = s.spawn(move || net.call(NodeAddr(9), NodeAddr(1), numbered(id)));
                    until_queued(net, id as i64);
                    waiter
                })
                .collect();
            assert!(handler.order.lock().is_empty());
            release.send(()).expect("request 0 is parked");
            let results = std::iter::once(owner).chain(waiters);
            for (id, caller) in (0..).zip(results) {
                let result = caller.join().expect("caller thread");
                assert_eq!(result.unwrap().decode::<u64>().unwrap(), id);
            }
        });
        assert_eq!(*handler.order.lock(), vec![0, 1, 2, 3]);
        assert_eq!(handler.max_active.load(Ordering::SeqCst), 1);
        assert_eq!(served(&net), 4);
        // The three that lined up waited for their turn.
        let reg = &net.obs().registry;
        let dispatch = reg.histogram("kosha_reactor_dispatch_latency_nanos");
        assert_eq!(dispatch.count(), 4);
        assert!(dispatch.max() > 0);
        assert_eq!(reg.gauge("kosha_reactor_queue_depth").get(), 0);
    }

    #[test]
    fn an_actor_never_runs_on_two_threads_at_once() {
        let (handler, _has_entered, _release) = Logged::new();
        let net = serving(Duration::from_secs(30), handler.clone());
        std::thread::scope(|s| {
            for caller in 0..8u64 {
                let net = &net;
                s.spawn(move || {
                    for i in 1..=200u64 {
                        let id = caller * 1000 + i;
                        let from = NodeAddr(100 + caller);
                        let result = net.call(from, NodeAddr(1), numbered(id));
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
        assert_eq!(served(&net), 1600);
    }

    #[test]
    fn same_service_cycle_from_an_in_place_caller_times_out() {
        // KoshaFs(1) calls KoshaFs(1) while serving request 0: the actor
        // is owned by the outer request (on the client's own thread), so
        // the inner request 1 waits in line, times out, and never runs.
        struct Reenter {
            net: Weak<ThreadedNetwork>,
            ran: Mutex<Vec<u8>>,
        }
        impl RpcHandler for Reenter {
            fn handle(&self, _from: NodeAddr, body: &[u8]) -> Result<RpcResponse, RpcError> {
                let id = u8::decode(body)?;
                self.ran.lock().push(id);
                let timed_out = id == 0 && {
                    let net = self.net.upgrade().expect("the caller holds the transport");
                    let inner = net.call(
                        NodeAddr(1),
                        NodeAddr(1),
                        RpcRequest::new(ServiceId::KoshaFs, &1u8),
                    );
                    matches!(inner, Err(RpcError::Unreachable(NodeAddr(1))))
                };
                Ok(RpcResponse::new(&timed_out))
            }
        }
        let timeout = Duration::from_millis(200);
        let net = ThreadedNetwork::new(timeout);
        let handler = Arc::new(Reenter {
            net: Arc::downgrade(&net),
            ran: Mutex::new(Vec::new()),
        });
        let mux = Arc::new(ServiceMux::new());
        mux.register(ServiceId::KoshaFs, handler.clone());
        net.attach(NodeAddr(1), mux);

        let call = |id: u8| {
            net.call(
                NodeAddr(9),
                NodeAddr(1),
                RpcRequest::new(ServiceId::KoshaFs, &id),
            )
        };
        let started = std::time::Instant::now();
        assert!(call(0).unwrap().decode::<bool>().unwrap(), "inner call");
        assert!(started.elapsed() >= timeout);
        // The actor is free again, and request 2 is the next to run: the
        // abandoned request 1 is not run late, when nobody waits for it.
        assert!(!call(2).unwrap().decode::<bool>().unwrap());
        assert_eq!(*handler.ran.lock(), vec![0, 2]);
        assert_eq!(served(&net), 2);
        let failed = net
            .obs()
            .registry
            .counter("rpc_failed_calls_total{service=\"koshafs\"}");
        assert_eq!(failed.get(), 1);
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
        let net = serving(
            Duration::from_secs(2),
            Arc::new(BoomOnce(AtomicBool::new(false))),
        );
        assert!(matches!(
            net.call(NodeAddr(2), NodeAddr(1), req()),
            Err(RpcError::Remote(_))
        ));
        // A leaked ownership would queue this call behind nobody.
        assert!(net.call(NodeAddr(2), NodeAddr(1), req()).is_ok());
        assert_eq!(served(&net), 2);
        let failed = net
            .obs()
            .registry
            .counter("rpc_failed_calls_total{service=\"kosha\"}");
        assert_eq!(failed.get(), 1);
    }

    #[test]
    fn detach_during_an_in_place_request_lets_it_finish_and_clears_the_queue() {
        let (handler, has_entered, release) = Logged::new();
        let net = serving(Duration::from_secs(10), handler.clone());
        std::thread::scope(|s| {
            let net = &net;
            let in_flight = s.spawn(move || net.call(NodeAddr(8), NodeAddr(1), numbered(0)));
            has_entered.recv().expect("request 0 is being served");
            let waiters: Vec<_> = (1..=2u64)
                .map(|id| {
                    let waiter = s.spawn(move || net.call(NodeAddr(9), NodeAddr(1), numbered(id)));
                    until_queued(net, id as i64);
                    waiter
                })
                .collect();
            // Every caller in line wakes with `Unreachable`, long before
            // its timeout, while request 0 is still being served.
            net.detach(NodeAddr(1));
            for waiter in waiters {
                assert!(matches!(
                    waiter.join().expect("waiter thread"),
                    Err(RpcError::Unreachable(NodeAddr(1)))
                ));
            }
            assert_eq!(*handler.order.lock(), Vec::<u64>::new());
            release.send(()).expect("request 0 is parked");
            let finished = in_flight.join().expect("caller thread");
            assert_eq!(finished.unwrap().decode::<u64>().unwrap(), 0);
        });
        assert!(matches!(
            net.call(NodeAddr(9), NodeAddr(1), numbered(3)),
            Err(RpcError::Unreachable(NodeAddr(1)))
        ));
        assert_eq!(*handler.order.lock(), vec![0]);
        let depth = net.obs().registry.gauge("kosha_reactor_queue_depth");
        assert_eq!(depth.get(), 0);
    }

    #[test]
    fn call_many_runs_on_its_caller_in_batch_order() {
        // The K = 2 mirror fan-out on an idle transport: both entries
        // are served in place, one after the other.
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
        assert_eq!(served(&net), 2);
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
    fn last_reference_dropped_on_the_timer_does_not_join_itself() {
        // A pump hook's owner holds the transport (as every KoshaNode
        // does). When the outside world lets go while the hook runs, the
        // timer releases the last reference and runs
        // `ThreadedNetwork::drop` on the timer thread itself.
        struct LastHolder {
            net: Mutex<Option<Arc<ThreadedNetwork>>>,
            released: Mutex<Receiver<()>>,
            dropped: SyncSender<()>,
        }
        impl PumpHook for LastHolder {
            fn pump(&self) {
                let Some(net) = self.net.lock().take() else {
                    return;
                };
                self.released
                    .lock()
                    .recv()
                    .expect("the test releases first");
                assert_eq!(Arc::strong_count(&net), 1);
                drop(net);
                self.dropped.send(()).expect("the test listens");
            }
        }
        let net = ThreadedNetwork::new(Duration::from_secs(5));
        let (release, released) = sync_channel(1);
        let (dropped, has_dropped) = sync_channel(1);
        let holder = Arc::new(LastHolder {
            net: Mutex::new(Some(Arc::clone(&net))),
            released: Mutex::new(released),
            dropped,
        });
        let hook = Arc::downgrade(&holder) as Weak<dyn PumpHook>;
        net.schedule_pump(hook, Duration::from_millis(2));
        drop(net);
        release.send(()).expect("the hook is waiting");
        // A self-join would panic the timer before it reports.
        has_dropped
            .recv_timeout(Duration::from_secs(30))
            .expect("the timer dropped the transport and went on");
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
    fn every_thread_sees_a_table_change_once_it_returns() {
        // Each caller thread reads the node table through a copy of its
        // own stripe; a change made on one thread must be in all of them
        // by the time it returns, whoever calls next.
        let net = ThreadedNetwork::new(Duration::from_secs(5));
        let mux = Arc::new(ServiceMux::new());
        mux.register(ServiceId::Kosha, Arc::new(Counter(AtomicU64::new(0))));
        net.attach(NodeAddr(3), mux);
        let callers = 2 * stripe::count();
        let (go, gate) = (
            std::sync::Barrier::new(callers + 1),
            std::sync::Barrier::new(callers + 1),
        );
        std::thread::scope(|s| {
            for c in 0..callers as u64 {
                let (net, go, gate) = (&net, &go, &gate);
                s.spawn(move || {
                    let call = || net.call(NodeAddr(100 + c), NodeAddr(3), req());
                    for expect_up in [true, false, true] {
                        go.wait();
                        assert_eq!(call().is_ok(), expect_up, "caller {c}");
                        assert_eq!(net.is_up(NodeAddr(3)), expect_up, "caller {c}");
                        gate.wait();
                    }
                });
            }
            for change in [None, Some(false), Some(true)] {
                match change {
                    Some(false) => net.fail_node(NodeAddr(3)),
                    Some(true) => net.recover_node(NodeAddr(3)),
                    None => {}
                }
                go.wait();
                gate.wait();
            }
        });
        // Requests served: the first and the last round, one per caller.
        assert_eq!(served(&net), 2 * callers as u64);
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
            (single == tid, many.len())
        });
        assert!(single, "a handler served in place sees the caller's trace");
        assert_eq!(many, 3);
        // Outside the root, the handler runs under no trace: the
        // caller's context was restored after each call.
        let after = net.call(NodeAddr(0), NodeAddr(1), req()).unwrap();
        assert_eq!(after.decode::<u64>().unwrap(), 0);

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
                    payload: None,
                }
            ),
            Err(RpcError::NoService(ServiceId::Nfs))
        ));
    }

    #[test]
    fn only_the_timer_thread_is_ever_spawned() {
        // Attaching nodes and serving calls from several client threads
        // spawns nothing; the first scheduled pump spawns the shared
        // timer, and later ones use it.
        struct Idle;
        impl PumpHook for Idle {
            fn pump(&self) {}
        }
        let net = ThreadedNetwork::new(Duration::from_secs(10));
        assert_eq!(net.threads_spawned(), 0);
        for a in 0..64u64 {
            let mux = Arc::new(ServiceMux::new());
            mux.register(ServiceId::Kosha, Arc::new(Counter(AtomicU64::new(0))));
            net.attach(NodeAddr(a), mux);
        }
        std::thread::scope(|s| {
            for c in 0..4u64 {
                let net = &net;
                s.spawn(move || {
                    for i in 0..500u64 {
                        let to = NodeAddr((c * 500 + i) % 64);
                        net.call(NodeAddr(100 + c), to, req()).unwrap();
                    }
                });
            }
        });
        assert_eq!(served(&net), 2000);
        assert_eq!(net.threads_spawned(), 0);
        let idle: Arc<dyn PumpHook> = Arc::new(Idle);
        for _ in 0..2 {
            net.schedule_pump(Arc::downgrade(&idle), Duration::from_millis(10));
            assert_eq!(net.threads_spawned(), 1);
        }
    }

    #[test]
    fn panicking_handler_fails_one_call_not_the_pool() {
        // A handler panic must surface as an RPC error to its caller
        // and leave the node's other services serving.
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
