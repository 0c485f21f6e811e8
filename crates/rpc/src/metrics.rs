//! Per-service transport metrics, shared by [`crate::SimNetwork`] and
//! [`crate::ThreadedNetwork`].
//!
//! Both transports account every RPC to the same metric family, labeled
//! by destination [`ServiceId`]:
//!
//! * `rpc_calls_total{service=...}` — attempts, including failures,
//! * `rpc_failed_calls_total{service=...}` — calls that returned an
//!   error (dead node, missing service, handler failure),
//! * `rpc_bytes_total{service=...}` — request + response wire bytes of
//!   remote calls (loopback moves none; a failed call's reply is a bare
//!   16-byte status),
//! * `rpc_latency_nanos{service=...}` — round-trip latency histogram,
//!   measured as a delta on the transport's own clock (virtual under
//!   `SimNetwork`, so values are deterministic), whose p99 per service
//!   is the domain's one flight-recorder source (`kosha-top`'s SLO
//!   burn reads the `koshafs` series).
//!
//! Handles are resolved once at construction; the per-call path is a few
//! relaxed atomic adds with no locking. Every one of them is striped per
//! thread (`Counter::striped`, and every `Histogram` is), so two threads
//! making calls at once write no accounting line in common.
//!
//! The smoothed per-link latency map behind
//! [`crate::Network::peer_latency_nanos`] lives here too. It is not a
//! metric: nothing exports it, so its size follows the links in use
//! and `prune_peer` alone bounds it. It is split into shards by link, so
//! that calls on different links take different read locks.

use crate::clock::SimTime;
use crate::network::{NodeAddr, RpcError, RpcRequest, RpcResponse, ServiceId};
use kosha_obs::fxhash::FxBuild;
use kosha_obs::registry::labeled;
use kosha_obs::stripe::Padded;
use kosha_obs::{Counter, Histogram, Obs};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Metric handles for one destination service.
pub(crate) struct SvcMetrics {
    pub calls: Arc<Counter>,
    pub failed: Arc<Counter>,
    pub bytes: Arc<Counter>,
    pub latency: Arc<Histogram>,
}

/// Wire bytes charged for the reply of a call that failed: a bare
/// status, no body.
pub(crate) const ERR_REPLY_BYTES: usize = 16;

/// What is needed to account one admitted call when its result is in:
/// the same on both transports, and on `ThreadedNetwork` the same for a
/// call served in place, waited for inline, or redeemed later.
pub(crate) struct CallAccount {
    service: ServiceId,
    from: NodeAddr,
    to: NodeAddr,
    req_bytes: usize,
    start: SimTime,
}

impl CallAccount {
    /// Counts the attempt.
    pub fn enter(
        metrics: &NetMetrics,
        from: NodeAddr,
        to: NodeAddr,
        req: &RpcRequest,
        start: SimTime,
    ) -> Self {
        metrics.svc(req.service).calls.inc();
        CallAccount {
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
        if self.from != self.to {
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

/// All per-service handles plus the owning [`Obs`] domain.
pub(crate) struct NetMetrics {
    obs: Arc<Obs>,
    per_service: Vec<SvcMetrics>,
    /// Smoothed round-trip latency per directed `(source, destination)`
    /// link (EWMA, α = 1/8 like TCP's SRTT), fed by every completed
    /// call. Keying by link rather than destination alone matters on
    /// non-uniform networks: node A's calls to C must not color node
    /// B's estimate of C, or background maintenance traffic from far
    /// peers would perturb every reader's nearest-replica choice. Backs
    /// [`crate::Network::peer_latency_nanos`] for latency-aware replica
    /// selection.
    ///
    /// An update is a load and a store, not a read-modify-write: two
    /// threads that finish a call on the *same* link at the same instant
    /// may fold only one of the two samples, which an estimate smoothed
    /// over eight does not notice, and a compare-exchange on every RPC of
    /// every transport is not worth that sample. The read lock is a
    /// read-modify-write, so the map is [`LINK_SHARDS`] maps, by link.
    peer_latency: Box<[Padded<RwLock<Links>>]>,
}

/// Link EWMAs by `(source, destination)` address, with the Fx hash:
/// every completed call probes one.
type Links = HashMap<(u64, u64), AtomicU64, FxBuild>;

/// Shards of the link map: two threads on different links share a
/// shard's lock one time in this many.
const LINK_SHARDS: usize = 64;

impl NetMetrics {
    pub fn new() -> Self {
        let obs = Obs::new();
        let per_service = ServiceId::ALL
            .iter()
            .map(|s| {
                let l = s.name();
                let latency = obs
                    .registry
                    .histogram(&format!("rpc_latency_nanos{{service=\"{l}\"}}"));
                obs.recorder.watch_histogram_pct(
                    &format!("{}:p99", labeled("rpc_latency_nanos", &[("service", l)])),
                    &latency,
                    99,
                );
                let counter = |f: &str| {
                    obs.registry
                        .striped_counter(&format!("rpc_{f}{{service=\"{l}\"}}"))
                };
                SvcMetrics {
                    calls: counter("calls_total"),
                    failed: counter("failed_calls_total"),
                    bytes: counter("bytes_total"),
                    latency,
                }
            })
            .collect();
        NetMetrics {
            obs,
            per_service,
            peer_latency: (0..LINK_SHARDS).map(|_| Padded::default()).collect(),
        }
    }

    /// The shard holding `link`'s EWMA.
    fn links(&self, link: (u64, u64)) -> &RwLock<Links> {
        const MIX: u64 = 0x9E37_79B9_7F4A_7C15;
        let h = (link.0.wrapping_mul(MIX) ^ link.1).wrapping_mul(MIX);
        &self.peer_latency[(h >> 58) as usize % LINK_SHARDS].0
    }

    /// Folds one completed round trip into the link's EWMA. Every
    /// completed call of every client thread passes here, so the steady
    /// state takes the map's read lock only; the write lock is for the
    /// first sample of a link (and for `prune_peer`).
    pub fn note_peer_latency(&self, from: NodeAddr, to: NodeAddr, nanos: u64) {
        let link = (from.0, to.0);
        let fold = |ewma: &AtomicU64| {
            let v = (ewma.load(Ordering::Relaxed) * 7 + nanos) / 8;
            ewma.store(v, Ordering::Relaxed);
        };
        let links = self.links(link);
        if let Some(ewma) = links.read().get(&link) {
            fold(ewma);
            return;
        }
        // Another thread may have seen the link first.
        links
            .write()
            .entry(link)
            .and_modify(|ewma| fold(ewma))
            .or_insert_with(|| AtomicU64::new(nanos));
    }

    /// The link's smoothed latency as observed by `from`'s own
    /// completed calls, if it has made any.
    pub fn peer_latency(&self, from: NodeAddr, to: NodeAddr) -> Option<u64> {
        let link = (from.0, to.0);
        self.links(link)
            .read()
            .get(&link)
            .map(|ewma| ewma.load(Ordering::Relaxed))
    }

    /// Retires a departed peer's latency state: drops every link EWMA
    /// touching it, as source or destination. Called on transport
    /// `detach`; without it the map grows without bound under churn.
    pub fn prune_peer(&self, addr: NodeAddr) {
        for shard in self.peer_latency.iter() {
            shard
                .0
                .write()
                .retain(|&(f, t), _| f != addr.0 && t != addr.0);
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
            ["calls", "failed_calls", "bytes"]
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
        assert_eq!(on_sim, on_thr, "calls, failed, bytes");
        // Remote ok: 4-byte request and reply; refused: request + 16;
        // the loopback call moves no bytes.
        assert_eq!(on_sim[..2], [3, 1]);
        assert!(on_sim[2] > ERR_REPLY_BYTES as u64);
    }

    #[test]
    fn calls_from_many_threads_are_counted_exactly() {
        use crate::{Network, ServiceMux, ThreadedNetwork};
        let net = ThreadedNetwork::new(std::time::Duration::from_secs(5));
        for a in 0..4 {
            let mux = Arc::new(ServiceMux::new());
            mux.register(ServiceId::Nfs, Arc::new(Picky));
            net.attach(NodeAddr(a), mux);
        }
        let (threads, calls) = (11u64, 300u64);
        std::thread::scope(|s| {
            for t in 0..threads {
                let net = &net;
                s.spawn(move || {
                    for i in 0..calls {
                        let to = NodeAddr((t + i) % 4);
                        let v = u32::from(i % 10 != 0);
                        let _ = net.call(NodeAddr(10 + t), to, RpcRequest::new(ServiceId::Nfs, &v));
                    }
                });
            }
        });
        let reg = &net.obs().registry;
        let get = |f: &str| {
            reg.counter(&format!("rpc_{f}_total{{service=\"nfs\"}}"))
                .get()
        };
        assert_eq!(get("calls"), threads * calls);
        assert_eq!(get("failed_calls"), threads * calls / 10);
        // Every call is remote: a 4-byte request, then a 4-byte reply or
        // a bare status.
        let req = RpcRequest::new(ServiceId::Nfs, &0u32).wire_size() as u64;
        let ok = RpcResponse::new(&1u32).wire_size() as u64;
        let refused = threads * calls / 10;
        assert_eq!(
            get("bytes"),
            threads * calls * req
                + (threads * calls - refused) * ok
                + refused * ERR_REPLY_BYTES as u64
        );
        let latency = reg.histogram("rpc_latency_nanos{service=\"nfs\"}");
        assert_eq!(latency.count(), threads * calls);
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
    fn prune_peer_retires_every_link_of_the_peer() {
        let m = NetMetrics::new();
        let names = m.obs().registry.names();
        m.note_peer_latency(NodeAddr(1), NodeAddr(7), 400);
        m.note_peer_latency(NodeAddr(7), NodeAddr(8), 500);
        m.note_peer_latency(NodeAddr(1), NodeAddr(8), 600);
        // Links are not metrics: the registry holds what it held.
        assert_eq!(m.obs().registry.names(), names);

        // Pruning peer 7 drops links where it is source OR destination.
        m.prune_peer(NodeAddr(7));
        assert_eq!(m.peer_latency(NodeAddr(1), NodeAddr(7)), None);
        assert_eq!(m.peer_latency(NodeAddr(7), NodeAddr(8)), None);
        // The surviving link is untouched.
        assert_eq!(m.peer_latency(NodeAddr(1), NodeAddr(8)), Some(600));
        // Pruning an unknown peer is a no-op.
        m.prune_peer(NodeAddr(99));
        assert_eq!(m.peer_latency(NodeAddr(1), NodeAddr(8)), Some(600));
        // A returning peer starts over.
        m.note_peer_latency(NodeAddr(1), NodeAddr(7), 1000);
        assert_eq!(m.peer_latency(NodeAddr(1), NodeAddr(7)), Some(1000));
    }

    #[test]
    fn service_series_are_recorder_sources() {
        let m = NetMetrics::new();
        m.svc(ServiceId::KoshaFs).latency.record(5);
        m.obs().recorder.sample_all(7);
        let rec = &m.obs().recorder;
        assert_eq!(
            rec.series("rpc_latency_nanos{service=\"koshafs\"}:p99"),
            Some(vec![(7, 5)])
        );
        // One p99 series per service, and nothing else.
        assert_eq!(rec.series_count(), ServiceId::ALL.len());
        assert!(rec
            .series_names()
            .iter()
            .all(|n| n.starts_with("rpc_latency_nanos{service=") && n.ends_with(":p99")));
    }
}
