//! The node-to-node communication abstraction.
//!
//! Every interaction between machines in the system — Pastry overlay
//! messages, NFS RPCs, Kosha control traffic — is a blocking request/reply
//! [`Network::call`] carrying encoded bytes. Nodes register an
//! [`RpcHandler`] per [`ServiceId`] in a [`ServiceMux`]; the transport owns
//! delivery, latency, and failure semantics.

use crate::clock::Clock;
use crate::wire::{Frame, PayloadPart, Reader, WireError, WireRead, WireWrite, Writer};
use bytes::Bytes;
use parking_lot::RwLock;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Physical address of a machine (stable across its lifetime, unlike its
/// Pastry identifier, which changes if the node is reincarnated).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeAddr(pub u64);

impl fmt::Display for NodeAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl WireWrite for NodeAddr {
    fn write(&self, w: &mut Writer) {
        w.u64(self.0);
    }
}
impl WireRead for NodeAddr {
    fn read(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(NodeAddr(r.u64()?))
    }
}

crate::wire_enum! {
    /// Identifies which protocol layer a request is addressed to, mirroring the
    /// prototype's two-level messaging (Section 5.1). The labels name the
    /// per-service metrics, which are pre-registered from `ALL` so that
    /// expositions list every service even before traffic.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum ServiceId labelled(NAMES, index, name) {
        /// Pastry overlay maintenance and routing queries.
        Pastry = 1 => "pastry",
        /// NFS protocol operations against a node's local store.
        Nfs = 2 => "nfs",
        /// Kosha-to-Kosha control traffic (replication, migration).
        Kosha = 3 => "kosha",
        /// The `koshad` loopback NFS server exporting the virtual `/kosha`
        /// file system (virtual handles). Distinct from [`ServiceId::Nfs`],
        /// which is the node's *real* NFS export of its contributed disk.
        KoshaFs = 4 => "koshafs",
        /// Replica-maintenance traffic (mirror fan-out, batched anchor
        /// pushes). A *leaf* service: its handlers only touch the local
        /// replica area and never issue nested RPCs, so primaries may fan
        /// out to each other concurrently without forming the same-service
        /// call cycles the transports cannot serve (see the deadlock
        /// discipline in [`crate::ThreadedNetwork`]'s docs).
        KoshaReplica = 5 => "replica",
    }
}

impl ServiceId {
    /// Static span name for transport-level RPC spans (`rpc:<service>`),
    /// precomputed so the traced call path allocates nothing extra.
    #[must_use]
    pub fn rpc_span_name(self) -> &'static str {
        match self {
            ServiceId::Pastry => "rpc:pastry",
            ServiceId::Nfs => "rpc:nfs",
            ServiceId::Kosha => "rpc:kosha",
            ServiceId::KoshaFs => "rpc:koshafs",
            ServiceId::KoshaReplica => "rpc:replica",
        }
    }
}

crate::wire_struct! {
    /// Optional causal-trace identifiers carried on a request frame
    /// (Dapper-style propagation; see `kosha_obs::trace`). Absent on
    /// untraced requests and on frames from pre-trace peers.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct TraceHeader {
        /// Trace the request belongs to.
        pub trace_id: u64,
        /// The caller-side span that issued the request (the parent of any
        /// server-side spans).
        pub span_id: u64,
    }
}

impl TraceHeader {
    /// Converts to the obs-layer span context.
    #[must_use]
    pub fn ctx(self) -> kosha_obs::SpanContext {
        kosha_obs::SpanContext {
            trace_id: self.trace_id,
            span_id: self.span_id,
        }
    }

    /// Builds a header from a span context.
    #[must_use]
    pub fn from_ctx(ctx: kosha_obs::SpanContext) -> Self {
        TraceHeader {
            trace_id: ctx.trace_id,
            span_id: ctx.span_id,
        }
    }
}

/// Frame-format marker for requests carrying optional headers. Legacy
/// frames start with a raw service tag (1–5); the marker is outside
/// that range, so a decoder accepts both formats (see
/// [`RpcRequest::read`]'s docs).
const FRAME_V2: u8 = 0x7E;

/// A request frame: destination service plus an opaque encoded message,
/// optionally stamped with a [`TraceHeader`].
#[derive(Debug, Clone)]
pub struct RpcRequest {
    /// Which protocol layer should handle the message.
    pub service: ServiceId,
    /// Causal-trace header, stamped by the transport from the caller's
    /// ambient context (`None` when tracing is off / no trace active).
    pub trace: Option<TraceHeader>,
    /// Encoded request message (layer-specific type): all of it, or the
    /// head of it when `payload` is set.
    pub body: Bytes,
    /// The message's READ/WRITE data held beside `body` (see
    /// [`Frame`]); `None` for a flat request.
    pub payload: Option<PayloadPart>,
}

impl RpcRequest {
    /// Builds a flat request by encoding `msg` for `service`: `body` is
    /// the whole message, which a caller may pass to
    /// [`RpcHandler::handle`] as it is.
    pub fn new<T: WireWrite>(service: ServiceId, msg: &T) -> Self {
        RpcRequest {
            service,
            trace: None,
            body: msg.encode(),
            payload: None,
        }
    }

    /// Builds a request whose payload field, if `msg` has one, travels
    /// beside the head as a view instead of being copied into it. What
    /// every sender of a message that can carry READ/WRITE data uses.
    pub fn split<T: WireWrite>(service: ServiceId, msg: &T) -> Self {
        let (body, payload) = msg.encode_split();
        RpcRequest {
            service,
            trace: None,
            body,
            payload,
        }
    }

    /// The encoded message, in whichever holding the request has it.
    #[must_use]
    pub fn frame(&self) -> Frame<'_> {
        Frame {
            body: &self.body,
            payload: self.payload.as_ref(),
        }
    }

    /// Total frame size in bytes (header + message), used for byte
    /// accounting; the same in either holding. Untraced requests use the
    /// legacy frame layout, so enabling tracing does not change the
    /// modeled cost of untraced traffic.
    #[must_use]
    pub fn wire_size(&self) -> usize {
        match self.trace {
            // service tag + u32 length + message
            None => 1 + 4 + self.frame().len(),
            // marker + flags + service tag + trace ids + u32 length + message
            Some(_) => 1 + 1 + 1 + 16 + 4 + self.frame().len(),
        }
    }
}

/// Frame flag bit: a [`TraceHeader`] follows the service tag.
const FLAG_TRACE: u8 = 0x01;

impl WireWrite for RpcRequest {
    /// Encodes the frame. Untraced requests keep the legacy layout
    /// (`service tag, body`) byte-for-byte; traced requests use the v2
    /// layout (`FRAME_V2, flags, service tag, trace header, body`). The
    /// message goes in flat: a whole encoded frame exists only in tests
    /// (the transports pass the struct), so a held payload is copied.
    fn write(&self, w: &mut Writer) {
        if let Some(h) = self.trace {
            w.u8(FRAME_V2);
            w.u8(FLAG_TRACE);
            self.service.write(w);
            h.write(w);
        } else {
            self.service.write(w);
        }
        w.bytes(&self.frame().flatten());
    }
}

impl WireRead for RpcRequest {
    /// Decodes either frame format: a leading service tag (1–5) selects
    /// the legacy layout — frames from peers that predate the trace
    /// header decode with `trace: None` — while [`FRAME_V2`] selects
    /// the extended layout.
    fn read(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let first = r.u8()?;
        if first != FRAME_V2 {
            return Ok(RpcRequest {
                service: ServiceId::from_tag(first)?,
                trace: None,
                body: r.payload()?,
                payload: None,
            });
        }
        let flags = r.u8()?;
        let service = ServiceId::read(r)?;
        let trace = if flags & FLAG_TRACE != 0 {
            Some(TraceHeader::read(r)?)
        } else {
            None
        };
        Ok(RpcRequest {
            service,
            trace,
            body: r.payload()?,
            payload: None,
        })
    }
}

/// A reply frame: opaque encoded message.
#[derive(Debug, Clone)]
pub struct RpcResponse {
    /// Encoded response message: all of it, or the head of it when
    /// `payload` is set.
    pub body: Bytes,
    /// The message's READ data held beside `body` (see [`Frame`]);
    /// `None` for a flat response.
    pub payload: Option<PayloadPart>,
}

impl RpcResponse {
    /// Builds a flat response by encoding `msg`: `body` is the whole
    /// message.
    pub fn new<T: WireWrite>(msg: &T) -> Self {
        RpcResponse {
            body: msg.encode(),
            payload: None,
        }
    }

    /// Builds a response whose payload field, if `msg` has one, travels
    /// beside the head as a view (see [`RpcRequest::split`]).
    pub fn split<T: WireWrite>(msg: &T) -> Self {
        let (body, payload) = msg.encode_split();
        RpcResponse { body, payload }
    }

    /// The encoded message, in whichever holding the response has it.
    #[must_use]
    pub fn frame(&self) -> Frame<'_> {
        Frame {
            body: &self.body,
            payload: self.payload.as_ref(),
        }
    }

    /// Decodes the message as `T`. The response owns its frame, so
    /// payload fields of `T` come out as its part or as views of it.
    pub fn decode<T: WireRead>(&self) -> Result<T, RpcError> {
        T::decode_frame(self.frame()).map_err(RpcError::Decode)
    }

    /// Total frame size in bytes; the same in either holding.
    #[must_use]
    pub fn wire_size(&self) -> usize {
        4 + self.frame().len()
    }
}

/// Errors surfaced by [`Network::call`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RpcError {
    /// Destination is down, unknown, or unreachable; the caller observed a
    /// timeout. This is the error Kosha's fault handling reacts to
    /// (Section 4.4: "Kosha detects an RPC error and removes the mapping").
    Unreachable(NodeAddr),
    /// The destination had no handler for the addressed service.
    NoService(ServiceId),
    /// A payload failed to decode.
    Decode(WireError),
    /// The remote handler failed in a way that is not a protocol-level
    /// status (protocol statuses travel inside response bodies).
    Remote(String),
}

impl fmt::Display for RpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RpcError::Unreachable(a) => write!(f, "node {a} unreachable"),
            RpcError::NoService(s) => write!(f, "no handler for service {s:?}"),
            RpcError::Decode(e) => write!(f, "decode error: {e}"),
            RpcError::Remote(m) => write!(f, "remote error: {m}"),
        }
    }
}

impl std::error::Error for RpcError {}

impl From<WireError> for RpcError {
    fn from(e: WireError) -> Self {
        RpcError::Decode(e)
    }
}

/// A protocol layer's message handler. Handlers must be re-entrant with
/// respect to *other* nodes: while serving a request a handler may issue
/// nested [`Network::call`]s to third nodes, but must never call back into
/// the node currently being served (the transports do not guarantee
/// progress for such cycles, matching real blocking-RPC deployments).
pub trait RpcHandler: Send + Sync {
    /// Handles one request from `from`, returning an encoded response.
    fn handle(&self, from: NodeAddr, body: &[u8]) -> Result<RpcResponse, RpcError>;

    /// [`RpcHandler::handle`] for a caller that holds the request as a
    /// refcounted [`Frame`], flat or split, which is what the transports
    /// call. The handlers on the payload path override it to decode
    /// WRITE data as the frame's part or as views of its body
    /// ([`crate::WireRead::decode_frame`]). The default hands `handle`
    /// the flat bytes, flattening a split frame once; for a handler
    /// whose messages carry no payload that is free and the right thing.
    fn handle_frame(&self, from: NodeAddr, frame: Frame<'_>) -> Result<RpcResponse, RpcError> {
        match frame.payload {
            None => self.handle(from, frame.body),
            Some(_) => self.handle(from, &frame.flatten()),
        }
    }
}

/// Per-node table of service handlers, one slot per [`ServiceId`].
#[derive(Default)]
pub struct ServiceMux {
    handlers: RwLock<[Option<Arc<dyn RpcHandler>>; ServiceId::ALL.len()]>,
}

impl ServiceMux {
    /// New empty mux.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) the handler for `service`.
    pub fn register(&self, service: ServiceId, handler: Arc<dyn RpcHandler>) {
        self.handlers.write()[service.index()] = Some(handler);
    }

    /// Dispatches a request to the registered handler.
    pub fn dispatch(&self, from: NodeAddr, req: &RpcRequest) -> Result<RpcResponse, RpcError> {
        let handler = self
            .handler(req.service)
            .ok_or(RpcError::NoService(req.service))?;
        handler.handle_frame(from, req.frame())
    }

    /// Fetches one service's handler.
    #[must_use]
    pub fn handler(&self, service: ServiceId) -> Option<Arc<dyn RpcHandler>> {
        self.handlers.read()[service.index()].clone()
    }
}

/// A periodic maintenance hook a transport may drive on behalf of a
/// node — Kosha registers its write-behind replication pump here so
/// queued replica mutations are flushed even when the node is
/// otherwise idle. Implementations must be cheap when there is nothing
/// to do and must never call back into the registering node's own
/// services (the usual re-entrancy discipline).
pub trait PumpHook: Send + Sync {
    /// Drains whatever the owner has queued.
    fn pump(&self);
}

/// Completion handle for an RPC issued with [`Network::call_async`]:
/// either an already-finished result (synchronous transports — under
/// virtual time there is nothing to overlap with) or a deferred wait
/// the caller redeems when it needs the response. Between issue and
/// [`CallCompletion::wait`] the caller is free to issue more RPCs or do
/// local work — continuation-style dispatch without a thread per call.
pub struct CallCompletion {
    inner: CompletionInner,
}

enum CompletionInner {
    Ready(Result<RpcResponse, RpcError>),
    Deferred(Box<dyn FnOnce() -> Result<RpcResponse, RpcError> + Send>),
}

impl CallCompletion {
    /// A completion that already holds its result.
    #[must_use]
    pub fn ready(result: Result<RpcResponse, RpcError>) -> Self {
        CallCompletion {
            inner: CompletionInner::Ready(result),
        }
    }

    /// A completion redeemed by running `wait` (which may block).
    #[must_use]
    pub fn deferred(wait: Box<dyn FnOnce() -> Result<RpcResponse, RpcError> + Send>) -> Self {
        CallCompletion {
            inner: CompletionInner::Deferred(wait),
        }
    }

    /// Blocks until the RPC finishes (or times out at the transport's
    /// configured deadline) and returns its result.
    pub fn wait(self) -> Result<RpcResponse, RpcError> {
        match self.inner {
            CompletionInner::Ready(r) => r,
            CompletionInner::Deferred(f) => f(),
        }
    }
}

/// A transport connecting nodes. Implementations: [`crate::SimNetwork`]
/// (deterministic, virtual time) and [`crate::ThreadedNetwork`] (real
/// threads).
pub trait Network: Send + Sync {
    /// Performs a blocking RPC from `from` to `to`.
    fn call(&self, from: NodeAddr, to: NodeAddr, req: RpcRequest) -> Result<RpcResponse, RpcError>;

    /// Issues an RPC without blocking, returning a [`CallCompletion`]
    /// the caller redeems later. The default implementation is the
    /// blocking call wrapped in an already-ready completion — correct
    /// for synchronous transports ([`crate::SimNetwork`] resolves every
    /// call under virtual time with nothing real to overlap). The
    /// threaded transport overrides this with true reactor dispatch, so
    /// a caller can put hundreds of RPCs in flight from one thread.
    fn call_async(&self, from: NodeAddr, to: NodeAddr, req: RpcRequest) -> CallCompletion {
        CallCompletion::ready(self.call(from, to, req))
    }

    /// Performs a batch of RPCs from `from`, blocking until every one
    /// has completed. Results are returned in batch order, each carrying
    /// the same success/failure outcome [`Network::call`] would have
    /// produced for that entry.
    ///
    /// The provided method is serial: one blocking `call` per entry, in
    /// batch order. That is always semantically correct, so no handler
    /// may depend on its batch-mates being in flight, and it is what
    /// [`crate::ThreadedNetwork`] does (plus a batch-size sample): the
    /// handlers a fan-out reaches take microseconds, less than handing
    /// one to another thread costs. [`crate::SimNetwork`] overrides it to
    /// model the overlap of a real network, charging the virtual clock
    /// the `max` of the per-call latencies instead of their sum. A caller
    /// that wants overlap in real time uses [`Network::call_async`].
    fn call_many(
        &self,
        from: NodeAddr,
        batch: Vec<(NodeAddr, RpcRequest)>,
    ) -> Vec<Result<RpcResponse, RpcError>> {
        batch
            .into_iter()
            .map(|(to, req)| self.call(from, to, req))
            .collect()
    }

    /// The clock all participants share.
    fn clock(&self) -> Arc<dyn Clock>;

    /// Whether `addr` is currently reachable (used by liveness probes).
    fn is_up(&self, addr: NodeAddr) -> bool;

    /// Registers a [`PumpHook`] the transport should drive roughly every
    /// `interval`. Returns `true` when the transport runs the hook
    /// itself on a background worker ([`crate::ThreadedNetwork`]);
    /// `false` when the caller must drive pumping explicitly —
    /// [`crate::SimNetwork`] records the hook and exposes `run_pumps()`
    /// so virtual-time tests and benches stay deterministic. The hook is
    /// held weakly: it is dropped (and a worker exits) once the owner
    /// goes away. The default implementation ignores the registration.
    fn schedule_pump(&self, hook: std::sync::Weak<dyn PumpHook>, interval: Duration) -> bool {
        let _ = (hook, interval);
        false
    }

    /// Smoothed round-trip latency of the directed link `from → to` in
    /// nanoseconds (EWMA over calls `from` itself has completed), or
    /// `None` before that link has carried any traffic. Keyed by link
    /// rather than destination alone so one node's estimate is never
    /// colored by another node's vantage point — on a non-uniform
    /// network a far peer's slow calls to `to` say nothing about ours.
    /// Feeds latency-aware replica-read selection.
    fn peer_latency_nanos(&self, from: NodeAddr, to: NodeAddr) -> Option<u64> {
        let _ = (from, to);
        None
    }
}

/// Typed convenience wrapper: encode `msg`, call, decode the reply.
pub fn call_typed<Req: WireWrite, Resp: WireRead>(
    net: &dyn Network,
    from: NodeAddr,
    to: NodeAddr,
    service: ServiceId,
    msg: &Req,
) -> Result<Resp, RpcError> {
    let resp = net.call(from, to, RpcRequest::new(service, msg))?;
    resp.decode()
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Echo;
    impl RpcHandler for Echo {
        fn handle(&self, _from: NodeAddr, body: &[u8]) -> Result<RpcResponse, RpcError> {
            Ok(RpcResponse {
                body: Bytes::copy_from_slice(body),
                payload: None,
            })
        }
    }

    #[test]
    fn mux_dispatches_and_reports_missing() {
        let mux = ServiceMux::new();
        mux.register(ServiceId::Nfs, Arc::new(Echo));
        let req = RpcRequest::new(ServiceId::Nfs, &42u32);
        let resp = mux.dispatch(NodeAddr(1), &req).unwrap();
        assert_eq!(resp.decode::<u32>().unwrap(), 42);

        let req = RpcRequest::new(ServiceId::Pastry, &1u8);
        assert!(matches!(
            mux.dispatch(NodeAddr(1), &req),
            Err(RpcError::NoService(ServiceId::Pastry))
        ));
    }

    #[test]
    fn service_id_round_trips() {
        for s in ServiceId::ALL {
            let b = s.encode();
            assert_eq!(ServiceId::decode(&b).unwrap(), s);
        }
        assert!(ServiceId::decode(&[9]).is_err());
    }

    #[test]
    fn wire_size_accounts_header() {
        let req = RpcRequest::new(ServiceId::Nfs, &7u64);
        assert_eq!(req.wire_size(), 1 + 4 + 8);
        let resp = RpcResponse::new(&7u32);
        assert_eq!(resp.wire_size(), 4 + 4);
        let traced = RpcRequest {
            trace: Some(TraceHeader {
                trace_id: 1,
                span_id: 2,
            }),
            ..req
        };
        assert_eq!(traced.wire_size(), 3 + 16 + 4 + 8);
    }

    #[test]
    fn untraced_frame_keeps_legacy_layout() {
        // An untraced request encodes exactly as the pre-header codec
        // did: service tag, then length-prefixed body.
        let req = RpcRequest::new(ServiceId::Kosha, &0xBEEFu32);
        let frame = req.encode();
        let mut legacy = Writer::new();
        legacy.u8(3); // Kosha's service tag
        legacy.bytes(&req.body);
        assert_eq!(&frame[..], &legacy.finish()[..]);
        assert_eq!(frame.len(), req.wire_size());
    }

    #[test]
    fn legacy_frame_decodes_without_trace() {
        // A frame produced by a pre-trace peer (raw service tag first)
        // must decode against the new codec, with no trace header.
        let mut w = Writer::new();
        w.u8(2); // Nfs
        w.bytes(&42u64.encode());
        let decoded = RpcRequest::decode(&w.finish()).unwrap();
        assert_eq!(decoded.service, ServiceId::Nfs);
        assert_eq!(decoded.trace, None);
        assert_eq!(u64::decode(&decoded.body).unwrap(), 42);
    }

    #[test]
    fn traced_frame_round_trips() {
        let mut req = RpcRequest::new(ServiceId::KoshaReplica, &7u8);
        req.trace = Some(TraceHeader {
            trace_id: 0xDEAD_BEEF,
            span_id: 0xFEED,
        });
        let frame = req.encode();
        assert_eq!(frame.len(), req.wire_size());
        let back = RpcRequest::decode(&frame).unwrap();
        assert_eq!(back.service, req.service);
        assert_eq!(back.trace, req.trace);
        assert_eq!(back.body, req.body);
    }

    #[test]
    fn bad_frame_marker_is_rejected() {
        assert!(RpcRequest::decode(&[9, 0, 0, 0, 0]).is_err());
        assert!(RpcRequest::decode(&[]).is_err());
    }
}
