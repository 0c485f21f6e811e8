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

use crate::clock::SimTime;
use crate::network::{NodeAddr, RpcError, RpcRequest, RpcResponse, ServiceId};
use kosha_obs::registry::labeled;
use kosha_obs::{Counter, Histogram, Obs};
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
    remote: bool,
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
            remote: from != to,
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
        if self.remote {
            let resp_bytes = result
                .as_ref()
                .map_or(ERR_REPLY_BYTES, RpcResponse::wire_size);
            svc.bytes.add((self.req_bytes + resp_bytes) as u64);
        }
        if result.is_err() {
            svc.failed.inc();
        }
        svc.latency.record(now.since_nanos(self.start));
        result
    }
}

/// All per-service handles plus the owning [`Obs`] domain.
pub(crate) struct NetMetrics {
    obs: Arc<Obs>,
    per_service: Vec<SvcMetrics>,
}

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
        NetMetrics { obs, per_service }
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
