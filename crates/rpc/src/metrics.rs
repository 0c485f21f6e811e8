//! Per-service transport metrics, shared by [`crate::SimNetwork`] and
//! [`crate::ThreadedNetwork`].
//!
//! Both transports account every RPC to the same metric family, labeled
//! by destination [`ServiceId`]:
//!
//! * `rpc_calls_total{service=...}` — attempts, including failures,
//! * `rpc_local_calls_total{service=...}` — loopback (same-host) calls
//!   that reached their handler,
//! * `rpc_failed_calls_total{service=...}` — calls that returned an
//!   error (dead node, missing service, handler failure),
//! * `rpc_bytes_total{service=...}` — request + response wire bytes of
//!   remote calls (loopback moves none; a failed call's reply is a bare
//!   16-byte status),
//! * `rpc_latency_nanos{service=...}` — round-trip latency histogram,
//!   measured as a delta on the transport's own clock (virtual under
//!   `SimNetwork`, so values are deterministic).
//!
//! Handles are resolved once at construction; the per-call path is a few
//! relaxed atomic adds with no locking.
//!
//! The smoothed per-link latency map is additionally published through
//! the registry as `rpc_peer_latency_ewma_nanos{link="nFFFFFF>nTTTTTT"}`
//! gauges (addresses zero-padded so the registry's sorted render lists
//! links in source-then-destination order), and the per-service
//! inflight/latency/call series are registered with the domain's flight
//! recorder so samplers can capture their evolution over time.

use crate::clock::SimTime;
use crate::network::{NodeAddr, RpcError, RpcRequest, RpcResponse, ServiceId};
use kosha_obs::registry::labeled;
use kosha_obs::{Counter, Gauge, Histogram, Obs};
use parking_lot::RwLock;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Metric handles for one destination service.
pub(crate) struct SvcMetrics {
    pub calls: Arc<Counter>,
    pub local: Arc<Counter>,
    pub failed: Arc<Counter>,
    pub bytes: Arc<Counter>,
    pub latency: Arc<Histogram>,
    /// Calls currently in flight (`rpc_inflight{service=...}`): raised
    /// on entry to `call`, lowered on exit, so fan-out depth is visible
    /// live without tracing enabled.
    pub inflight: Arc<Gauge>,
}

/// RAII guard: decrements an inflight gauge on drop (early returns and
/// handler panics both lower it).
pub(crate) struct InflightGuard(Arc<Gauge>);

impl InflightGuard {
    pub fn enter(g: &Arc<Gauge>) -> Self {
        g.add(1);
        InflightGuard(Arc::clone(g))
    }
}

impl Drop for InflightGuard {
    fn drop(&mut self) {
        self.0.add(-1);
    }
}

/// Wire bytes charged for the reply of a call that failed: a bare
/// status, no body.
pub(crate) const ERR_REPLY_BYTES: usize = 16;

/// What is needed to account one admitted call when its result is in:
/// the same on both transports, and on `ThreadedNetwork` the same for a
/// call served in place, waited for inline, or redeemed later. The call
/// counts as in flight until then (or until it is abandoned: dropping
/// an unredeemed completion drops the guard too).
pub(crate) struct CallAccount {
    _inflight: InflightGuard,
    service: ServiceId,
    from: NodeAddr,
    to: NodeAddr,
    req_bytes: usize,
    start: SimTime,
}

impl CallAccount {
    /// Counts the attempt and raises the in-flight gauge.
    pub fn enter(
        metrics: &NetMetrics,
        from: NodeAddr,
        to: NodeAddr,
        req: &RpcRequest,
        start: SimTime,
    ) -> Self {
        let svc = metrics.svc(req.service);
        svc.calls.inc();
        CallAccount {
            _inflight: InflightGuard::enter(&svc.inflight),
            service: req.service,
            from,
            to,
            req_bytes: req.wire_size(),
            start,
        }
    }

    /// Accounts the result of a call that reached a live node at `now`.
    /// A loopback call moves no wire bytes; a remote one moves its
    /// request and its reply, which for an error is a bare status.
    pub fn finish(
        self,
        metrics: &NetMetrics,
        now: SimTime,
        result: Result<RpcResponse, RpcError>,
    ) -> Result<RpcResponse, RpcError> {
        let svc = metrics.svc(self.service);
        if self.from == self.to {
            svc.local.inc();
        } else {
            let resp_bytes = result
                .as_ref()
                .map_or(ERR_REPLY_BYTES, RpcResponse::wire_size);
            svc.bytes.add((self.req_bytes + resp_bytes) as u64);
        }
        if result.is_err() {
            svc.failed.inc();
        }
        let elapsed = now.since_nanos(self.start);
        svc.latency.record(elapsed);
        metrics.note_peer_latency(self.from, self.to, elapsed);
        result
    }
}

/// One link's smoothed latency plus its registry gauge (created on the
/// first sample, then updated in place with no registry lookup and no
/// exclusive lock, so samples of different links never serialise).
/// The update is a load and a store, not a read-modify-write: two
/// threads that finish a call on the *same* link at the same instant
/// may fold only one of the two samples, which an estimate smoothed
/// over eight does not notice, and a compare-exchange on every RPC of
/// every transport is not worth that sample.
struct PeerLat {
    ewma: AtomicU64,
    gauge: Arc<Gauge>,
}

impl PeerLat {
    fn note(&self, nanos: u64) {
        let ewma = (self.ewma.load(Ordering::Relaxed) * 7 + nanos) / 8;
        self.ewma.store(ewma, Ordering::Relaxed);
        self.gauge.set(ewma as i64);
    }
}

/// The `link="nFFFFFF>nTTTTTT"` gauge name for one directed link
/// (addresses zero-padded so the registry's sorted render lists links
/// in source-then-destination address order).
fn link_gauge_name(from: NodeAddr, to: NodeAddr) -> String {
    labeled(
        "rpc_peer_latency_ewma_nanos",
        &[("link", &format!("n{:06}>n{:06}", from.0, to.0))],
    )
}

/// All per-service handles plus the owning [`Obs`] domain.
pub(crate) struct NetMetrics {
    obs: Arc<Obs>,
    per_service: Vec<SvcMetrics>,
    /// Sizes of `call_many` batches (`rpc_fanout_batch_size`).
    pub fanout_batch: Arc<Histogram>,
    /// Smoothed round-trip latency per directed `(source, destination)`
    /// link (EWMA, α = 1/8 like TCP's SRTT), fed by every completed
    /// call. Keying by link rather than destination alone matters on
    /// non-uniform networks: node A's calls to C must not color node
    /// B's estimate of C, or background maintenance traffic from far
    /// peers would perturb every reader's nearest-replica choice. Backs
    /// [`crate::Network::peer_latency_nanos`] for latency-aware replica
    /// selection, and is mirrored into per-link registry gauges.
    peer_latency: RwLock<HashMap<(u64, u64), PeerLat>>,
}

impl NetMetrics {
    pub fn new() -> Self {
        let obs = Obs::new();
        let per_service = ServiceId::ALL
            .iter()
            .map(|s| {
                let l = s.name();
                SvcMetrics {
                    calls: obs
                        .registry
                        .counter(&format!("rpc_calls_total{{service=\"{l}\"}}")),
                    local: obs
                        .registry
                        .counter(&format!("rpc_local_calls_total{{service=\"{l}\"}}")),
                    failed: obs
                        .registry
                        .counter(&format!("rpc_failed_calls_total{{service=\"{l}\"}}")),
                    bytes: obs
                        .registry
                        .counter(&format!("rpc_bytes_total{{service=\"{l}\"}}")),
                    latency: obs
                        .registry
                        .histogram(&format!("rpc_latency_nanos{{service=\"{l}\"}}")),
                    inflight: obs
                        .registry
                        .gauge(&format!("rpc_inflight{{service=\"{l}\"}}")),
                }
            })
            .collect();
        let fanout_batch = obs.registry.histogram("rpc_fanout_batch_size");
        let m = NetMetrics {
            obs,
            per_service,
            fanout_batch,
            peer_latency: RwLock::new(HashMap::new()),
        };
        // Arm the flight recorder: in-flight depth, attempt counters,
        // and tail latency per service evolve into time-series on every
        // sampler tick (no-ops until something calls `sample_all`).
        let rec = &m.obs.recorder;
        for s in ServiceId::ALL {
            let svc = m.svc(s);
            let l = s.name();
            rec.watch_gauge(&labeled("rpc_inflight", &[("service", l)]), &svc.inflight);
            rec.watch_counter(&labeled("rpc_calls_total", &[("service", l)]), &svc.calls);
            rec.watch_histogram_pct(
                &format!("{}:p99", labeled("rpc_latency_nanos", &[("service", l)])),
                &svc.latency,
                99,
            );
        }
        m
    }

    /// Folds one completed round trip into the link's EWMA and mirrors
    /// the new estimate into the link's registry gauge. Every completed
    /// call of every client thread passes here, so the steady state
    /// takes the map's read lock only; the write lock is for the first
    /// sample of a link (and for `prune_peer`).
    pub fn note_peer_latency(&self, from: NodeAddr, to: NodeAddr, nanos: u64) {
        let link = (from.0, to.0);
        if let Some(p) = self.peer_latency.read().get(&link) {
            p.note(nanos);
            return;
        }
        match self.peer_latency.write().entry(link) {
            // Another thread saw the link first.
            Entry::Occupied(e) => e.get().note(nanos),
            Entry::Vacant(e) => {
                let name = link_gauge_name(from, to);
                let gauge = self.obs.registry.gauge(&name);
                gauge.set(nanos as i64);
                self.obs.recorder.watch_gauge(&name, &gauge);
                e.insert(PeerLat {
                    ewma: AtomicU64::new(nanos),
                    gauge,
                });
            }
        }
    }

    /// The link's smoothed latency as observed by `from`'s own
    /// completed calls, if it has made any.
    pub fn peer_latency(&self, from: NodeAddr, to: NodeAddr) -> Option<u64> {
        self.peer_latency
            .read()
            .get(&(from.0, to.0))
            .map(|p| p.ewma.load(Ordering::Relaxed))
    }

    /// Retires a departed peer's latency state: drops every link EWMA
    /// touching it (as source or destination), the matching
    /// `rpc_peer_latency_ewma_nanos{link=...}` registry gauges, and the
    /// flight-recorder sources/series. Called on transport `detach`;
    /// without it the per-link label set grows without bound under
    /// churn and exhausts the recorder's series budget.
    pub fn prune_peer(&self, addr: NodeAddr) {
        let mut removed = Vec::new();
        self.peer_latency.write().retain(|&(f, t), _| {
            let departed = f == addr.0 || t == addr.0;
            if departed {
                removed.push((f, t));
            }
            !departed
        });
        for (f, t) in removed {
            let name = link_gauge_name(NodeAddr(f), NodeAddr(t));
            self.obs.registry.remove(&name);
            self.obs.recorder.forget(&name);
        }
    }

    /// The observability domain (for exposition and tests).
    pub fn obs(&self) -> Arc<Obs> {
        Arc::clone(&self.obs)
    }

    /// The transport's span buffer (RPC client spans land here).
    pub fn tracer(&self) -> &kosha_obs::Tracer {
        &self.obs.tracer
    }

    /// Handles for one service.
    pub fn svc(&self, s: ServiceId) -> &SvcMetrics {
        &self.per_service[s.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_service_is_preregistered() {
        let m = NetMetrics::new();
        let names = m.obs().registry.names();
        for s in ServiceId::ALL {
            assert!(
                names
                    .iter()
                    .any(|n| n.starts_with("rpc_calls_total") && n.contains(s.name())),
                "missing calls metric for {s:?} in {names:?}"
            );
        }
        m.svc(ServiceId::Nfs).calls.inc();
        assert_eq!(
            m.obs()
                .registry
                .counter("rpc_calls_total{service=\"nfs\"}")
                .get(),
            1
        );
    }

    /// Echoes a `u32`; refuses zero.
    struct Picky;
    impl crate::RpcHandler for Picky {
        fn handle(&self, _from: NodeAddr, body: &[u8]) -> Result<RpcResponse, RpcError> {
            match <u32 as crate::WireRead>::decode(body).map_err(RpcError::Decode)? {
                0 => Err(RpcError::Remote("zero".into())),
                v => Ok(RpcResponse::new(&v)),
            }
        }
    }

    #[test]
    fn both_transports_count_one_script_alike() {
        use crate::{Network, ServiceMux, SimNetwork, ThreadedNetwork};
        fn script(
            net: &dyn Network,
            obs: &Obs,
            attach: &dyn Fn(NodeAddr, Arc<ServiceMux>),
        ) -> Vec<u64> {
            for a in [1, 2] {
                let mux = Arc::new(ServiceMux::new());
                mux.register(ServiceId::Nfs, Arc::new(Picky));
                attach(NodeAddr(a), mux);
            }
            let call = |to, v: u32| {
                net.call(
                    NodeAddr(1),
                    NodeAddr(to),
                    RpcRequest::new(ServiceId::Nfs, &v),
                )
            };
            assert!(call(2, 7).is_ok(), "remote");
            assert!(call(1, 7).is_ok(), "loopback");
            assert!(call(2, 0).is_err(), "handler refuses");
            ["calls", "local_calls", "failed_calls", "bytes"]
                .iter()
                .map(|f| {
                    obs.registry
                        .counter(&format!("rpc_{f}_total{{service=\"nfs\"}}"))
                        .get()
                })
                .collect()
        }
        let sim = SimNetwork::new_zero_latency();
        let thr = ThreadedNetwork::new(std::time::Duration::from_secs(5));
        let on_sim = script(sim.as_ref(), &sim.obs(), &|a, m| sim.attach(a, m));
        let on_thr = script(thr.as_ref(), &thr.obs(), &|a, m| thr.attach(a, m));
        assert_eq!(on_sim, on_thr, "calls, local, failed, bytes");
        // Remote ok: 4-byte request and reply; refused: request + 16.
        assert_eq!(on_sim[..3], [3, 1, 1]);
        assert!(on_sim[3] > ERR_REPLY_BYTES as u64);
    }

    #[test]
    fn inflight_gauge_tracks_guard_lifetime() {
        let m = NetMetrics::new();
        let g = &m.svc(ServiceId::KoshaReplica).inflight;
        assert_eq!(g.get(), 0);
        {
            let _a = InflightGuard::enter(g);
            let _b = InflightGuard::enter(g);
            assert_eq!(g.get(), 2);
        }
        assert_eq!(g.get(), 0);
        assert_eq!(
            m.obs()
                .registry
                .gauge("rpc_inflight{service=\"replica\"}")
                .get(),
            0
        );
    }

    #[test]
    fn peer_latency_ewma_smooths() {
        let m = NetMetrics::new();
        let from = NodeAddr(1);
        let to = NodeAddr(5);
        assert_eq!(m.peer_latency(from, to), None);
        m.note_peer_latency(from, to, 800);
        assert_eq!(m.peer_latency(from, to), Some(800));
        m.note_peer_latency(from, to, 0);
        // One zero sample drags the estimate down by 1/8th.
        assert_eq!(m.peer_latency(from, to), Some(700));
        assert_eq!(m.peer_latency(from, NodeAddr(6)), None);
        // The reverse direction is a distinct link.
        assert_eq!(m.peer_latency(to, from), None);
    }

    #[test]
    fn peer_latency_is_per_source_link() {
        let m = NetMetrics::new();
        let c = NodeAddr(3);
        // A sits next to C, B is far away: B's slow calls must not
        // disturb A's estimate of C, or background traffic would
        // corrupt every reader's nearest-replica pick.
        m.note_peer_latency(NodeAddr(1), c, 100);
        m.note_peer_latency(NodeAddr(2), c, 9_000);
        assert_eq!(m.peer_latency(NodeAddr(1), c), Some(100));
        assert_eq!(m.peer_latency(NodeAddr(2), c), Some(9_000));
    }

    #[test]
    fn peer_latency_is_exposed_as_sorted_gauges() {
        let m = NetMetrics::new();
        let from = NodeAddr(1);
        // Insert out of address order; the render must sort by address.
        m.note_peer_latency(from, NodeAddr(20), 900);
        m.note_peer_latency(from, NodeAddr(3), 500);
        m.note_peer_latency(from, NodeAddr(100), 700);
        m.note_peer_latency(from, NodeAddr(3), 500); // EWMA steady state
        let reg = &m.obs().registry;
        assert_eq!(
            reg.gauge("rpc_peer_latency_ewma_nanos{link=\"n000001>n000003\"}")
                .get(),
            500
        );
        let text = reg.render();
        let pos: Vec<usize> = ["n000003", "n000020", "n000100"]
            .iter()
            .map(|p| {
                text.find(&format!("link=\"n000001>{p}\""))
                    .expect("link gauge")
            })
            .collect();
        assert!(pos[0] < pos[1] && pos[1] < pos[2], "{text}");
        // The EWMA is also a recorder source: one tick → one point.
        m.obs().recorder.sample_all(42);
        assert_eq!(
            m.obs()
                .recorder
                .last("rpc_peer_latency_ewma_nanos{link=\"n000001>n000020\"}"),
            Some((42, 900))
        );
    }

    #[test]
    fn prune_peer_retires_gauge_ewma_and_recorder_series() {
        let m = NetMetrics::new();
        m.note_peer_latency(NodeAddr(1), NodeAddr(7), 400);
        m.note_peer_latency(NodeAddr(7), NodeAddr(8), 500);
        m.note_peer_latency(NodeAddr(1), NodeAddr(8), 600);
        m.obs().recorder.sample_all(1);
        let name7 = "rpc_peer_latency_ewma_nanos{link=\"n000001>n000007\"}";
        let name78 = "rpc_peer_latency_ewma_nanos{link=\"n000007>n000008\"}";
        assert!(m.obs().recorder.series(name7).is_some());

        // Pruning peer 7 drops links where it is source OR destination.
        m.prune_peer(NodeAddr(7));
        assert_eq!(m.peer_latency(NodeAddr(1), NodeAddr(7)), None);
        assert_eq!(m.peer_latency(NodeAddr(7), NodeAddr(8)), None);
        for name in [name7, name78] {
            assert!(
                !m.obs().registry.names().iter().any(|n| n == name),
                "gauge must leave the exposition"
            );
            assert!(m.obs().recorder.series(name).is_none());
        }
        // Ticking again must not resurrect the pruned series.
        m.obs().recorder.sample_all(2);
        assert!(m.obs().recorder.series(name7).is_none());
        // The surviving link is untouched, and pruning counts no drops.
        assert_eq!(m.peer_latency(NodeAddr(1), NodeAddr(8)), Some(600));
        assert_eq!(m.obs().recorder.dropped(), 0);
        // Pruning an unknown peer is a no-op.
        m.prune_peer(NodeAddr(99));
        // A returning peer re-registers cleanly from scratch.
        m.note_peer_latency(NodeAddr(1), NodeAddr(7), 1000);
        assert_eq!(m.peer_latency(NodeAddr(1), NodeAddr(7)), Some(1000));
        m.obs().recorder.sample_all(3);
        assert_eq!(m.obs().recorder.last(name7), Some((3, 1000)));
    }

    #[test]
    fn service_series_are_recorder_sources() {
        let m = NetMetrics::new();
        m.svc(ServiceId::Nfs).calls.inc();
        m.obs().recorder.sample_all(7);
        assert_eq!(
            m.obs().recorder.last("rpc_calls_total{service=\"nfs\"}"),
            Some((7, 1))
        );
        assert!(m
            .obs()
            .recorder
            .series_names()
            .iter()
            .any(|n| n == "rpc_latency_nanos{service=\"nfs\"}:p99"));
    }

    #[test]
    fn fanout_batch_histogram_is_registered() {
        let m = NetMetrics::new();
        m.fanout_batch.record(3);
        assert_eq!(
            m.obs().registry.histogram("rpc_fanout_batch_size").count(),
            1
        );
    }
}
