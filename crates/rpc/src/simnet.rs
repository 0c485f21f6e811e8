//! Deterministic simulated transport with a calibrated latency model.
//!
//! This is the reproduction's stand-in for the paper's testbed: "Each node
//! has a 2.0 GHz Intel P4 with 512 MB RAM and a 40 GB 7200 RPM \[disk\], and
//! runs FreeBSD 4.6. The nodes are connected via a 100 Mb/s Ethernet
//! switch" (Section 6.1). The [`LatencyModel`] charges, per RPC:
//!
//! * a fixed per-message network latency (switch + stack traversal),
//! * a per-byte cost derived from link bandwidth (both directions),
//! * a fixed per-request server handling cost (RPC dispatch CPU), and
//! * **local-bypass**: a call from a node to itself skips the network
//!   charges and pays only a loopback cost. This asymmetry is what makes
//!   Kosha's overhead grow with the fraction `(N-1)/N` of remotely stored
//!   files, the effect Section 6.1.2 analyzes.
//!
//! Latency is charged to the shared [`VirtualClock`] along the caller's
//! (blocking, serial) call path; nested RPCs issued by a handler accumulate
//! naturally. Failure injection: a call to a failed node charges the
//! configured timeout and returns [`RpcError::Unreachable`].
//!
//! **Event-driven core.** Timers and pump ticks are events on a
//! binary-heap [`Scheduler`](crate::sched::Scheduler) keyed by
//! `(deadline, seq)`, and every modeled cost advances time through it:
//! a message-delivery leg whose deadline something queued is due at or
//! before becomes a waypoint event itself and drains the heap up to its
//! deadline in O(log n) per event, so legs, pump ticks, and timer wakeups
//! interleave in deadline order; a leg nothing is due before moves the
//! clock and schedules nothing. Determinism is preserved because ties
//! break on the insertion sequence number. Two driving styles coexist:
//!
//! * Legacy [`SimNetwork::run_pumps`] fires every registered pump once at
//!   the current instant (heap-routed, registration order via `seq`),
//!   leaving the clock untouched — existing benches are byte-identical.
//! * [`SimNetwork::run_until`] arms each pump as a *recurring* timer at
//!   its registered interval and advances the clock to a target instant,
//!   firing everything due on the way. This is the driver for
//!   million-event churn/scale experiments; one-shot wakeups can be
//!   planted with [`SimNetwork::schedule_after`].

use crate::clock::{Clock, SimTime, VirtualClock};
use crate::metrics::{CallAccount, NetMetrics, ERR_REPLY_BYTES};
use crate::network::{
    Network, NodeAddr, PumpHook, RpcError, RpcRequest, RpcResponse, ServiceMux, TraceHeader,
};
use crate::sched::Scheduler;
use kosha_obs::{trace, Obs};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::{Arc, Weak};
use std::time::Duration;

/// Cost parameters for the simulated cluster.
#[derive(Debug, Clone)]
pub struct LatencyModel {
    /// One-way network latency per message between distinct hosts. The
    /// paper's Section 6.1.2 uses "hc is under 1 ms \[...\] typical within an
    /// organization"; a switched 100 Mb/s LAN RTT is ~0.2–0.4 ms.
    pub hop_latency: Duration,
    /// Additional one-way latency per unit of coordinate-space distance
    /// between two hosts (see [`SimNetwork::set_coord`]). Zero (the
    /// default) keeps the network topology-flat; non-zero values model a
    /// multi-switch or multi-site LAN, the setting where Pastry's
    /// proximity-aware routing pays off.
    pub per_distance_unit: Duration,
    /// Link bandwidth in bytes/second (100 Mb/s ≈ 12.5 MB/s).
    pub bandwidth_bps: u64,
    /// Fixed server-side cost to dispatch and handle one RPC.
    pub server_op_cost: Duration,
    /// Cost of a loopback call (same host): syscall + local RPC dispatch.
    pub loopback_cost: Duration,
    /// Time a caller waits before declaring a dead node unreachable.
    pub timeout: Duration,
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel {
            hop_latency: Duration::from_micros(150),
            per_distance_unit: Duration::ZERO,
            bandwidth_bps: 12_500_000,
            server_op_cost: Duration::from_micros(60),
            loopback_cost: Duration::from_micros(25),
            timeout: Duration::from_millis(800),
        }
    }
}

impl LatencyModel {
    /// A zero-cost model, useful for logic-only tests.
    #[must_use]
    pub fn zero() -> Self {
        LatencyModel {
            hop_latency: Duration::ZERO,
            per_distance_unit: Duration::ZERO,
            bandwidth_bps: u64::MAX,
            server_op_cost: Duration::ZERO,
            loopback_cost: Duration::ZERO,
            timeout: Duration::ZERO,
        }
    }

    fn transfer_time(&self, bytes: usize) -> Duration {
        if self.bandwidth_bps == u64::MAX {
            return Duration::ZERO;
        }
        Duration::from_nanos((bytes as u64).saturating_mul(1_000_000_000) / self.bandwidth_bps)
    }

    /// Total modeled round-trip cost of a remote call with the given
    /// request/response sizes.
    #[must_use]
    pub fn remote_rtt(&self, req_bytes: usize, resp_bytes: usize) -> Duration {
        self.hop_latency * 2
            + self.transfer_time(req_bytes)
            + self.transfer_time(resp_bytes)
            + self.server_op_cost
    }
}

/// One attached address: its mux, and whether the machine is up. An
/// address that is not attached is not up, and `attach` brings a machine
/// up, so a crash needs remembering only for addresses in this table.
struct Registered {
    mux: Arc<ServiceMux>,
    up: bool,
}

/// Payload of one scheduler event.
enum SimEvent {
    /// A pure clock waypoint: the end of a modeled message-delivery leg
    /// or failure timeout that something else is due before. Dispatching
    /// it only moves the clock.
    Wakeup,
    /// One `run_pumps()`-style tick of pump-table entry `i` (one-shot).
    PumpOnce(usize),
    /// A recurring tick of pump-table entry `i`, armed by
    /// [`SimNetwork::run_until`]; reschedules itself at the entry's
    /// interval while its hook is alive.
    PumpTick(usize),
    /// A one-shot timer callback planted via
    /// [`SimNetwork::schedule_after`].
    Timer(Box<dyn FnOnce() + Send>),
}

/// One registered pump hook plus its requested cadence.
struct PumpEntry {
    hook: Weak<dyn PumpHook>,
    interval: Duration,
    /// True while a recurring [`SimEvent::PumpTick`] for this entry is
    /// in the heap (armed by `run_until`, disarmed when the hook dies).
    armed: bool,
}

/// Deterministic in-process transport. See the module docs.
///
/// ```
/// use kosha_rpc::{LatencyModel, Network, NodeAddr, ServiceMux, SimNetwork};
/// use std::sync::Arc;
/// let net = SimNetwork::new(LatencyModel::default());
/// net.attach(NodeAddr(1), Arc::new(ServiceMux::new()));
/// assert!(net.is_up(NodeAddr(1)));
/// net.fail_node(NodeAddr(1));
/// assert!(!net.is_up(NodeAddr(1)));
/// net.recover_node(NodeAddr(1));
/// assert!(net.is_up(NodeAddr(1)));
/// ```
pub struct SimNetwork {
    clock: Arc<VirtualClock>,
    model: LatencyModel,
    nodes: RwLock<HashMap<NodeAddr, Registered>>,
    /// Optional coordinates per host for distance-dependent latency.
    coords: RwLock<HashMap<NodeAddr, (f64, f64)>>,
    metrics: NetMetrics,
    /// The event heap driving all clock movement (see the module docs).
    sched: Scheduler<SimEvent>,
    /// Pumps registered via [`Network::schedule_pump`]. The simulation
    /// never drives them spontaneously (that would break determinism);
    /// callers either drain them explicitly with
    /// [`SimNetwork::run_pumps`] or arm them as recurring scheduler
    /// timers via [`SimNetwork::run_until`]. Entries are never removed
    /// (indices are baked into queued events); dead hooks simply stop
    /// upgrading.
    pumps: Mutex<Vec<PumpEntry>>,
}

impl SimNetwork {
    /// New network with the given latency model.
    #[must_use]
    pub fn new(model: LatencyModel) -> Arc<Self> {
        let metrics = NetMetrics::new();
        let sched = Scheduler::observed(&metrics.obs());
        let net = Arc::new(SimNetwork {
            clock: VirtualClock::new(),
            model,
            nodes: RwLock::new(HashMap::new()),
            coords: RwLock::new(HashMap::new()),
            metrics,
            sched,
            pumps: Mutex::new(Vec::new()),
        });
        #[cfg(feature = "lockcheck")]
        crate::lockcheck_gate::install_cycle_hook(std::sync::Arc::downgrade(&net.metrics.obs()), {
            let clock = Arc::clone(&net.clock);
            move || clock.now().0
        });
        net
    }

    /// New network with zero latency (logic-only tests).
    #[must_use]
    pub fn new_zero_latency() -> Arc<Self> {
        Self::new(LatencyModel::zero())
    }

    /// Attaches a node's service mux at `addr`. Re-attaching replaces the
    /// previous registration (a reinstalled machine).
    pub fn attach(&self, addr: NodeAddr, mux: Arc<ServiceMux>) {
        self.nodes
            .write()
            .insert(addr, Registered { mux, up: true });
    }

    /// Detaches a node entirely (permanent removal). The departed peer's
    /// latency gauge, recorder series, crash marker, and coordinates are
    /// pruned with it, so churn does not grow any per-peer state without
    /// bound.
    pub fn detach(&self, addr: NodeAddr) {
        self.nodes.write().remove(&addr);
        self.coords.write().remove(&addr);
        self.metrics.prune_peer(addr);
    }

    /// Marks a node as crashed: calls to it time out. Its state is
    /// preserved (a crashed machine's disk persists), matching the
    /// availability-trace semantics of Section 6.3.
    pub fn fail_node(&self, addr: NodeAddr) {
        self.set_up(addr, false);
    }

    /// Revives a previously failed node with its state intact.
    pub fn recover_node(&self, addr: NodeAddr) {
        self.set_up(addr, true);
    }

    fn set_up(&self, addr: NodeAddr, up: bool) {
        if let Some(r) = self.nodes.write().get_mut(&addr) {
            r.up = up;
        }
    }

    /// Places a host at coordinates `(x, y)` in the latency space. Pairs
    /// without coordinates (or with `per_distance_unit == 0`) pay only
    /// the flat [`LatencyModel::hop_latency`].
    pub fn set_coord(&self, addr: NodeAddr, x: f64, y: f64) {
        self.coords.write().insert(addr, (x, y));
    }

    /// One-way latency between two hosts under the model + topology.
    #[must_use]
    pub fn link_latency(&self, a: NodeAddr, b: NodeAddr) -> Duration {
        if self.model.per_distance_unit.is_zero() {
            return self.model.hop_latency;
        }
        let coords = self.coords.read();
        match (coords.get(&a), coords.get(&b)) {
            (Some(&(ax, ay)), Some(&(bx, by))) => {
                let d = ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt();
                self.model.hop_latency + self.model.per_distance_unit.mul_f64(d)
            }
            _ => self.model.hop_latency,
        }
    }

    /// Transport-level observability: per-service call/byte counters and
    /// latency histograms (`rpc_*{service=...}`), timestamped on the
    /// virtual clock so expositions are deterministic.
    #[must_use]
    pub fn obs(&self) -> Arc<Obs> {
        self.metrics.obs()
    }

    /// The latency model in force.
    #[must_use]
    pub fn model(&self) -> &LatencyModel {
        &self.model
    }

    /// The virtual clock (typed, for `reset`).
    #[must_use]
    pub fn virtual_clock(&self) -> Arc<VirtualClock> {
        Arc::clone(&self.clock)
    }

    /// All currently attached addresses (test/diagnostic helper).
    #[must_use]
    pub fn attached(&self) -> Vec<NodeAddr> {
        let mut addrs: Vec<NodeAddr> = self.nodes.read().keys().copied().collect();
        // Address order, not hash order: this is a deterministic
        // transport and callers iterate the result.
        addrs.sort();
        addrs
    }

    /// Runs every registered [`PumpHook`] once, at a deterministic point
    /// chosen by the caller — the simulation's replacement for the
    /// background pump worker a real-time transport runs. Each live hook
    /// is scheduled as a one-shot event at the *current* instant and the
    /// heap is drained, so firing order is `(deadline, seq)` — all
    /// deadlines equal "now", ties broken by registration sequence — and
    /// the clock does not move. Returns how many hooks ran.
    pub fn run_pumps(&self) -> usize {
        let now = self.clock.now().0;
        let live: Vec<usize> = {
            let pumps = self.pumps.lock();
            pumps
                .iter()
                .enumerate()
                .filter(|(_, p)| p.hook.strong_count() > 0)
                .map(|(i, _)| i)
                .collect()
        };
        for &i in &live {
            self.sched.schedule_at(now, now, SimEvent::PumpOnce(i));
        }
        self.dispatch_until(now);
        // One flight-recorder tick for the transport's own domain, at
        // the (deterministic) virtual time the pumps settled on. Node
        // domains tick themselves via their sampler hooks above.
        let obs = self.metrics.obs();
        obs.export_self_gauges();
        obs.recorder.sample_all(self.clock.now().0);
        live.len()
    }

    /// Advances virtual time to `target`, dispatching every due event in
    /// `(deadline, seq)` order along the way. Registered pumps are armed
    /// as *recurring* timers at their [`Network::schedule_pump`] interval
    /// (first tick one interval from now), so a long `run_until` fires
    /// them repeatedly at their cadence — the event-driven idle loop a
    /// real deployment's background workers provide. Once armed, a pump
    /// also fires when ordinary calls push the clock past its deadline,
    /// which is exactly the interleaving a real transport exhibits.
    pub fn run_until(&self, target: SimTime) {
        let now = self.clock.now().0;
        let to_arm: Vec<(usize, u64)> = {
            let mut pumps = self.pumps.lock();
            let mut arm = Vec::new();
            for (i, p) in pumps.iter_mut().enumerate() {
                if !p.armed && !p.interval.is_zero() && p.hook.strong_count() > 0 {
                    p.armed = true;
                    arm.push((i, now.saturating_add(p.interval.as_nanos() as u64)));
                }
            }
            arm
        };
        for (i, deadline) in to_arm {
            self.sched.schedule_at(deadline, now, SimEvent::PumpTick(i));
        }
        self.dispatch_until(target.0);
    }

    /// [`SimNetwork::run_until`], phrased as a span from the current
    /// instant.
    pub fn run_for(&self, d: Duration) {
        self.run_until(self.clock.now().plus(d));
    }

    /// Plants a one-shot timer `after` from now. It fires (in deadline
    /// order, interleaved with deliveries and pump ticks) during
    /// whichever [`SimNetwork::run_until`] or RPC leg first pushes the
    /// clock past its deadline.
    pub fn schedule_after(&self, after: Duration, f: impl FnOnce() + Send + 'static) {
        let now = self.clock.now().0;
        self.sched.schedule_at(
            now.saturating_add(after.as_nanos() as u64),
            now,
            SimEvent::Timer(Box::new(f)),
        );
    }

    /// Advances the clock by `d`, the modeled-cost primitive every RPC
    /// leg charges through. When something queued is due at or before
    /// `now + d` the leg is a waypoint in the heap and everything due
    /// before it is drained in `(deadline, seq)` order; when nothing is,
    /// the drain would pop the waypoint alone, so the clock moves and
    /// nothing is scheduled.
    fn step(&self, d: Duration) {
        let now = self.clock.now().0;
        let target = now.saturating_add(d.as_nanos() as u64);
        if self.sched.peek_deadline().is_some_and(|due| due <= target) {
            self.sched.schedule_at(target, now, SimEvent::Wakeup);
            self.dispatch_until(target);
        } else {
            self.clock.set(SimTime(target));
        }
    }

    /// Pops and dispatches every event with `deadline <= target`, moving
    /// the clock to each event's deadline (never backwards), then to
    /// `target`. Re-entrant: handlers fired from events issue nested
    /// calls that recurse into this loop; the heap lock is released
    /// around every dispatch.
    fn dispatch_until(&self, target: u64) {
        while let Some((deadline, ev)) = self.sched.pop_due(target) {
            if deadline > self.clock.now().0 {
                self.clock.set(SimTime(deadline));
            }
            match ev {
                SimEvent::Wakeup => {}
                SimEvent::PumpOnce(i) => self.fire_pump(i, None),
                SimEvent::PumpTick(i) => self.fire_pump(i, Some(deadline)),
                SimEvent::Timer(f) => f(),
            }
        }
        if target > self.clock.now().0 {
            self.clock.set(SimTime(target));
        }
    }

    /// Fires pump-table entry `i` if its hook is still alive. For
    /// recurring ticks (`rearm_from = Some(deadline)`) the next tick is
    /// scheduled one interval after the *deadline* (stable cadence even
    /// when the pump itself advances the clock); a dead hook disarms the
    /// entry instead.
    fn fire_pump(&self, i: usize, rearm_from: Option<u64>) {
        let (hook, interval) = {
            let pumps = self.pumps.lock();
            let Some(p) = pumps.get(i) else { return };
            (p.hook.clone(), p.interval)
        };
        let alive = match hook.upgrade() {
            Some(h) => {
                h.pump();
                true
            }
            None => false,
        };
        let Some(deadline) = rearm_from else { return };
        if alive {
            let next = deadline.saturating_add(interval.as_nanos() as u64);
            self.sched
                .schedule_at(next, self.clock.now().0, SimEvent::PumpTick(i));
            // A recurring tick also refreshes the transport-domain
            // recorder so long idle runs produce a time-series.
            let obs = self.metrics.obs();
            obs.export_self_gauges();
            obs.recorder.sample_all(self.clock.now().0);
        } else if let Some(p) = self.pumps.lock().get_mut(i) {
            p.armed = false;
        }
    }
}

impl SimNetwork {
    /// The untraced call path (also the body of every traced call).
    fn call_inner(
        &self,
        from: NodeAddr,
        to: NodeAddr,
        req: RpcRequest,
    ) -> Result<RpcResponse, RpcError> {
        let start = self.clock.now();
        let account = CallAccount::enter(&self.metrics, from, to, &req, start);

        let mux = self
            .nodes
            .read()
            .get(&to)
            .filter(|r| r.up)
            .map(|r| Arc::clone(&r.mux));

        let Some(mux) = mux else {
            self.step(self.model.timeout);
            let svc = self.metrics.svc(req.service);
            svc.failed.inc();
            let elapsed = self.clock.now().since_nanos(start);
            svc.latency.record(elapsed);
            // A full timeout feeds the EWMA too: dead or flaky targets
            // look slow, steering replica reads elsewhere.
            self.metrics.note_peer_latency(from, to, elapsed);
            return Err(RpcError::Unreachable(to));
        };
        // Install the request's trace header as the handler's ambient
        // context: on this same-thread transport the caller's context is
        // usually already in scope, but stamping from the header keeps
        // the semantics identical to a cross-thread transport.
        let dispatch =
            || trace::with_context(req.trace.map(TraceHeader::ctx), || mux.dispatch(from, &req));

        let result = if from == to {
            self.step(self.model.loopback_cost);
            dispatch()
        } else {
            let link = self.link_latency(from, to);
            // Charge request-direction costs before the handler runs so
            // that nested calls see a clock that already includes
            // delivery. Timers and armed pump ticks that come due before
            // the delivery leg ends fire first, in deadline order.
            let req_time = self.model.transfer_time(req.wire_size());
            self.step(link + req_time + self.model.server_op_cost);
            let result = dispatch();
            let resp_bytes = result
                .as_ref()
                .map_or(ERR_REPLY_BYTES, RpcResponse::wire_size);
            self.step(link + self.model.transfer_time(resp_bytes));
            result
        };
        account.finish(&self.metrics, self.clock.now(), result)
    }
}

impl Network for SimNetwork {
    fn call(
        &self,
        from: NodeAddr,
        to: NodeAddr,
        mut req: RpcRequest,
    ) -> Result<RpcResponse, RpcError> {
        // Gating `call` covers `call_many` too: the sim fans out by
        // invoking `call` per entry on this same thread.
        #[cfg(feature = "lockcheck")]
        crate::lockcheck_gate::rpc_gate(
            &self.metrics.obs(),
            self.clock.now().0,
            from,
            "SimNetwork::call",
        );
        // When a trace is active on the calling thread, wrap the RPC in
        // a client span (timed on the virtual clock, so it covers the
        // full modeled round trip) and stamp the child context into the
        // wire header. With no active trace this records nothing and
        // leaves the frame in the legacy layout.
        let span_name = req.service.rpc_span_name();
        self.metrics.tracer().child_with(
            || span_name.to_string(),
            from.0,
            || self.clock.now().0,
            |ctx| {
                req.trace = ctx.map(TraceHeader::from_ctx);
                self.call_inner(from, to, req)
            },
        )
    }

    /// Concurrent fan-out under virtual time: every call in the batch is
    /// executed from the same start instant and the clock ends at
    /// `start + max(per-call elapsed)`, so overlapping RPCs cost the
    /// slowest one rather than the sum. Each call still runs serially
    /// under the hood (handlers and their nested RPCs accumulate their
    /// own charges from the rewound start), which keeps the simulation
    /// deterministic: results and final time are independent of any
    /// real-world interleaving.
    fn call_many(
        &self,
        from: NodeAddr,
        batch: Vec<(NodeAddr, RpcRequest)>,
    ) -> Vec<Result<RpcResponse, RpcError>> {
        self.metrics.fanout_batch.record(batch.len() as u64);
        if batch.len() <= 1 {
            return batch
                .into_iter()
                .map(|(to, req)| self.call(from, to, req))
                .collect();
        }
        // Each entry's client span starts from the rewound `t0`, so a
        // traced fan-out records its per-target RPCs as overlapping
        // parallel siblings — exactly what the critical-path analyzer
        // charges as `max`, matching the clock accounting below.
        let t0 = self.clock.now();
        let mut max_elapsed = 0u64;
        let mut out = Vec::with_capacity(batch.len());
        for (to, req) in batch {
            self.clock.set(t0);
            let result = self.call(from, to, req);
            max_elapsed = max_elapsed.max(self.clock.now().since_nanos(t0));
            out.push(result);
        }
        self.clock.set(SimTime(t0.0.saturating_add(max_elapsed)));
        out
    }

    fn clock(&self) -> Arc<dyn Clock> {
        Arc::clone(&self.clock) as Arc<dyn Clock>
    }

    fn is_up(&self, addr: NodeAddr) -> bool {
        self.nodes.read().get(&addr).is_some_and(|r| r.up)
    }

    /// Records the hook (and its interval, the recurring-timer cadence
    /// [`SimNetwork::run_until`] arms) and returns `false`: under
    /// virtual time the *caller* decides when pumping happens, keeping
    /// runs deterministic.
    fn schedule_pump(&self, hook: Weak<dyn PumpHook>, interval: Duration) -> bool {
        self.pumps.lock().push(PumpEntry {
            hook,
            interval,
            armed: false,
        });
        false
    }

    fn peer_latency_nanos(&self, from: NodeAddr, to: NodeAddr) -> Option<u64> {
        self.metrics.peer_latency(from, to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{RpcHandler, ServiceId};
    use bytes::Bytes;

    struct Echo;
    impl RpcHandler for Echo {
        fn handle(&self, _from: NodeAddr, body: &[u8]) -> Result<RpcResponse, RpcError> {
            Ok(RpcResponse {
                body: Bytes::copy_from_slice(body),
                payload: None,
            })
        }
    }

    fn net_with_echo(model: LatencyModel) -> Arc<SimNetwork> {
        let net = SimNetwork::new(model);
        for a in [1, 2] {
            let mux = Arc::new(ServiceMux::new());
            mux.register(ServiceId::Nfs, Arc::new(Echo));
            net.attach(NodeAddr(a), mux);
        }
        net
    }

    #[test]
    fn detach_prunes_peer_latency_telemetry() {
        let net = net_with_echo(LatencyModel::default());
        // Generations of short-lived peers join, serve one call, leave.
        for gen in 0..40u64 {
            let addr = NodeAddr(100 + gen);
            let mux = Arc::new(ServiceMux::new());
            mux.register(ServiceId::Nfs, Arc::new(Echo));
            net.attach(addr, mux);
            net.call(NodeAddr(1), addr, RpcRequest::new(ServiceId::Nfs, &gen))
                .unwrap();
            net.obs().recorder.sample_all(gen);
            net.detach(addr);
            assert_eq!(net.peer_latency_nanos(NodeAddr(1), addr), None);
        }
        let obs = net.obs();
        let peers = |v: Vec<String>| {
            v.into_iter()
                .filter(|n| n.starts_with("rpc_peer_latency_ewma_nanos"))
                .count()
        };
        // Only the long-lived peer 2 may still hold a gauge (from the
        // net_with_echo warm-up path); every churned peer is gone from
        // registry and recorder alike, with nothing counted as dropped.
        assert!(peers(obs.registry.names()) <= 1, "registry grew");
        assert!(peers(obs.recorder.series_names()) <= 1, "recorder grew");
        assert_eq!(obs.recorder.dropped(), 0);
    }

    #[test]
    fn remote_call_echoes_and_charges_time() {
        let net = net_with_echo(LatencyModel::default());
        let req = RpcRequest::new(ServiceId::Nfs, &0xDEADu32);
        let resp = net.call(NodeAddr(1), NodeAddr(2), req).unwrap();
        assert_eq!(resp.decode::<u32>().unwrap(), 0xDEAD);
        let t = net.clock().now();
        // At least two hop latencies + server cost must have elapsed.
        assert!(t.as_duration() >= Duration::from_micros(2 * 150 + 60));
        let reg = &net.obs().registry;
        let nfs = |family: &str| reg.counter(&format!("{family}{{service=\"nfs\"}}")).get();
        assert_eq!(
            (
                nfs("rpc_calls_total"),
                nfs("rpc_local_calls_total"),
                nfs("rpc_failed_calls_total")
            ),
            (1, 0, 0)
        );
        assert!(nfs("rpc_bytes_total") > 0);
    }

    #[test]
    fn local_call_is_cheaper_than_remote() {
        let net = net_with_echo(LatencyModel::default());
        let req = RpcRequest::new(ServiceId::Nfs, &1u32);
        net.call(NodeAddr(1), NodeAddr(1), req.clone()).unwrap();
        let local_t = net.clock().now().as_duration();
        net.virtual_clock().reset();
        net.call(NodeAddr(1), NodeAddr(2), req).unwrap();
        let remote_t = net.clock().now().as_duration();
        assert!(local_t < remote_t, "{local_t:?} !< {remote_t:?}");
    }

    #[test]
    fn failed_node_times_out() {
        let net = net_with_echo(LatencyModel::default());
        net.fail_node(NodeAddr(2));
        assert!(!net.is_up(NodeAddr(2)));
        let req = RpcRequest::new(ServiceId::Nfs, &1u32);
        let before = net.clock().now();
        let err = net.call(NodeAddr(1), NodeAddr(2), req.clone()).unwrap_err();
        assert_eq!(err, RpcError::Unreachable(NodeAddr(2)));
        assert_eq!(
            net.clock().now().since(before),
            LatencyModel::default().timeout
        );
        // Recovery restores service with state intact.
        net.recover_node(NodeAddr(2));
        assert!(net.is_up(NodeAddr(2)));
        assert!(net.call(NodeAddr(1), NodeAddr(2), req).is_ok());
    }

    #[test]
    fn fail_node_before_attach_is_forgotten_by_attach() {
        let net = net_with_echo(LatencyModel::zero());
        let req = RpcRequest::new(ServiceId::Nfs, &1u32);
        // A crash report for an address nobody attached leaves it what
        // it was, not up; attaching brings the machine up.
        net.fail_node(NodeAddr(9));
        assert!(!net.is_up(NodeAddr(9)));
        assert_eq!(
            net.call(NodeAddr(1), NodeAddr(9), req.clone()).unwrap_err(),
            RpcError::Unreachable(NodeAddr(9))
        );
        net.recover_node(NodeAddr(9));
        assert!(!net.is_up(NodeAddr(9)));
        let mux = Arc::new(ServiceMux::new());
        mux.register(ServiceId::Nfs, Arc::new(Echo));
        net.attach(NodeAddr(9), mux);
        assert!(net.is_up(NodeAddr(9)));
        assert!(net.call(NodeAddr(1), NodeAddr(9), req.clone()).is_ok());
        // Detaching a failed node forgets the crash with the node.
        net.fail_node(NodeAddr(9));
        net.detach(NodeAddr(9));
        net.recover_node(NodeAddr(9));
        assert!(!net.is_up(NodeAddr(9)));
        assert!(net.call(NodeAddr(1), NodeAddr(9), req).is_err());
    }

    #[test]
    fn an_uncontended_call_schedules_nothing() {
        for model in [LatencyModel::zero(), LatencyModel::default()] {
            let net = net_with_echo(model.clone());
            net.fail_node(NodeAddr(2));
            let mux = Arc::new(ServiceMux::new());
            mux.register(ServiceId::Nfs, Arc::new(Echo));
            net.attach(NodeAddr(3), mux);
            let mut modelled = Duration::ZERO;
            for i in 0..1000u32 {
                let req = RpcRequest::new(ServiceId::Nfs, &vec![0u8; i as usize]);
                let req_bytes = req.wire_size();
                // Remote, loopback and timed-out calls in turn.
                let to = NodeAddr(u64::from(i % 3) + 1);
                modelled += match net.call(NodeAddr(1), to, req) {
                    Ok(_) if to == NodeAddr(1) => model.loopback_cost,
                    Ok(resp) => model.remote_rtt(req_bytes, resp.wire_size()),
                    Err(_) => model.timeout,
                };
            }
            assert_eq!(net.clock().now().as_duration(), modelled);
            let reg = &net.obs().registry;
            assert_eq!(reg.counter("kosha_sched_events_total").get(), 0);
            assert_eq!(reg.gauge("kosha_sched_heap_depth_hwm").get(), 0);
        }
    }

    #[test]
    fn unknown_address_is_unreachable() {
        let net = net_with_echo(LatencyModel::zero());
        let req = RpcRequest::new(ServiceId::Nfs, &1u32);
        assert!(matches!(
            net.call(NodeAddr(1), NodeAddr(99), req),
            Err(RpcError::Unreachable(NodeAddr(99)))
        ));
    }

    #[test]
    fn call_many_charges_max_not_sum() {
        let net = net_with_echo(LatencyModel::default());
        let mux = Arc::new(ServiceMux::new());
        mux.register(ServiceId::Nfs, Arc::new(Echo));
        net.attach(NodeAddr(3), mux);
        let req = RpcRequest::new(ServiceId::Nfs, &7u32);
        net.call(NodeAddr(1), NodeAddr(2), req.clone()).unwrap();
        let one = net.clock().now().as_duration();
        net.virtual_clock().reset();
        let out = net.call_many(
            NodeAddr(1),
            vec![(NodeAddr(2), req.clone()), (NodeAddr(3), req.clone())],
        );
        assert!(out.iter().all(Result::is_ok));
        // Two identical overlapped calls elapse exactly one call's time.
        assert_eq!(net.clock().now().as_duration(), one);
    }

    #[test]
    fn call_many_overlaps_timeout_with_successes() {
        let net = net_with_echo(LatencyModel::default());
        net.fail_node(NodeAddr(2));
        let req = RpcRequest::new(ServiceId::Nfs, &7u32);
        let out = net.call_many(
            NodeAddr(1),
            vec![(NodeAddr(2), req.clone()), (NodeAddr(1), req.clone())],
        );
        assert!(matches!(out[0], Err(RpcError::Unreachable(NodeAddr(2)))));
        assert!(out[1].is_ok());
        // The dead node's timeout dominates; the loopback rides along.
        assert_eq!(
            net.clock().now().as_duration(),
            LatencyModel::default().timeout
        );
    }

    #[test]
    fn bigger_payloads_cost_more_time() {
        let net = net_with_echo(LatencyModel::default());
        let small = RpcRequest::new(ServiceId::Nfs, &vec![0u8; 16]);
        let big = RpcRequest::new(ServiceId::Nfs, &vec![0u8; 1 << 20]);
        net.call(NodeAddr(1), NodeAddr(2), small).unwrap();
        let t_small = net.clock().now().as_duration();
        net.virtual_clock().reset();
        net.call(NodeAddr(1), NodeAddr(2), big).unwrap();
        let t_big = net.clock().now().as_duration();
        assert!(t_big > t_small * 10);
    }
}
