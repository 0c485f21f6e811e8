//! Span recording from outside the program: one span per timed op (the
//! root, layer `mount`) and one per RPC a node's service handler serves.
//!
//! Spans are kept in memory and summarised when the pass ends. Each
//! thread keeps a stack of its open spans, so a span's parent is the span
//! open on the same thread when it started. On the `*_sim` workloads the
//! whole op runs inline on one thread and the links are exact; on
//! `mix_thr` a handler usually runs on a reactor worker, where its span
//! has no parent, so only inclusive (busy) time is reported there.

use crate::alloc;
use kosha_rpc::{NodeAddr, RpcError, RpcHandler, RpcResponse, ServiceId};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// The layers a span can belong to, in reporting order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The op itself: `KoshaMount`, the client-side `NfsClient` and the
    /// transport's top-level dispatch.
    Mount,
    KoshadFs,
    /// Includes the primary's local `NfsServer::apply`.
    KoshadControl,
    KoshadReplica,
    NfsServer,
    Pastry,
}

impl Layer {
    pub const ALL: [Layer; 6] = [
        Layer::Mount,
        Layer::KoshadFs,
        Layer::KoshadControl,
        Layer::KoshadReplica,
        Layer::NfsServer,
        Layer::Pastry,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Mount => "mount",
            Layer::KoshadFs => "koshad_fs",
            Layer::KoshadControl => "koshad_control",
            Layer::KoshadReplica => "koshad_replica",
            Layer::NfsServer => "nfs_server",
            Layer::Pastry => "pastry",
        }
    }

    /// The layer whose handler serves `service` on a node's mux.
    pub fn of_service(service: ServiceId) -> Layer {
        match service {
            ServiceId::KoshaFs => Layer::KoshadFs,
            ServiceId::Kosha => Layer::KoshadControl,
            ServiceId::KoshaReplica => Layer::KoshadReplica,
            ServiceId::Nfs => Layer::NfsServer,
            ServiceId::Pastry => Layer::Pastry,
        }
    }
}

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    layer: Layer,
    /// Index of the causing span, or `NO_PARENT`.
    parent: u32,
    start_ns: u64,
    end_ns: u64,
    /// Allocator readings at start, replaced by the deltas at end.
    allocs: u64,
    alloc_bytes: u64,
    /// Request + reply body bytes (0 for a root span).
    wire_bytes: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
/// Bytes allocated inside [`untraced`] sections since [`start`].
static UNTRACED_ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static OPEN: RefCell<Vec<u32>> = RefCell::new(Vec::with_capacity(32));
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Starts recording into an empty buffer with room for `capacity` spans,
/// reserved now so that the buffer's growth is not charged to a span.
pub fn start(capacity: usize) {
    let mut spans = SPANS.lock().expect("no span holder panics");
    spans.clear();
    spans.reserve(capacity);
    UNTRACED_ALLOC_BYTES.store(0, SeqCst);
    now_ns();
    ENABLED.store(true, SeqCst);
}

/// Stops recording and summarises the spans per layer.
pub fn stop() -> Summary {
    ENABLED.store(false, SeqCst);
    let spans = std::mem::take(&mut *SPANS.lock().expect("no span holder panics"));
    let mut sum = Summary {
        untraced_alloc_bytes: UNTRACED_ALLOC_BYTES.load(SeqCst),
        ..Summary::default()
    };
    for s in &spans {
        // Still open when the pass ended (the clock never reads 0 again
        // after `start`): its readings are not deltas yet.
        if s.end_ns == 0 {
            continue;
        }
        let dur = s.end_ns - s.start_ns;
        let l = &mut sum.layers[s.layer as usize];
        l.calls += 1;
        l.busy_ns += dur;
        l.allocs += s.allocs;
        l.alloc_bytes += s.alloc_bytes;
        l.wire_bytes += s.wire_bytes;
        if s.parent != NO_PARENT {
            let p = &mut sum.layers[spans[s.parent as usize].layer as usize];
            p.child_ns += dur;
            p.child_allocs += s.allocs;
            p.child_alloc_bytes += s.alloc_bytes;
        }
    }
    sum
}

/// Per-layer totals over one traced pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerSum {
    pub calls: u64,
    /// Inclusive span time.
    pub busy_ns: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub wire_bytes: u64,
    child_ns: u64,
    child_allocs: u64,
    child_alloc_bytes: u64,
}

impl LayerSum {
    /// Span time minus the part its child spans cover.
    pub fn self_ns(&self) -> u64 {
        self.busy_ns - self.child_ns
    }
    pub fn self_allocs(&self) -> u64 {
        self.allocs - self.child_allocs
    }
    pub fn self_alloc_bytes(&self) -> u64 {
        self.alloc_bytes - self.child_alloc_bytes
    }
}

#[derive(Debug, Default)]
pub struct Summary {
    /// Indexed by `Layer as usize`.
    pub layers: [LayerSum; 6],
    /// Bytes allocated by the benchmark's own checks between ops.
    pub untraced_alloc_bytes: u64,
}

/// Runs a check the benchmark makes between ops (single-threaded
/// workloads only) without recording its RPCs as spans.
pub fn untraced<R>(check: impl FnOnce() -> R) -> R {
    let was = ENABLED.swap(false, SeqCst);
    let (_, before) = alloc::snapshot();
    let result = check();
    UNTRACED_ALLOC_BYTES.fetch_add(alloc::snapshot().1 - before, SeqCst);
    ENABLED.store(was, SeqCst);
    result
}

/// An open span; close it with [`exit`].
pub struct Open(u32);

/// Opens a span on this thread, or returns `None` while recording is off
/// (cluster set-up and warm-up run through the same handlers).
pub fn enter(layer: Layer) -> Option<Open> {
    if !ENABLED.load(SeqCst) {
        return None;
    }
    let parent = OPEN.with(|o| o.borrow().last().copied().unwrap_or(NO_PARENT));
    let (allocs, alloc_bytes) = alloc::snapshot();
    let idx = {
        let mut spans = SPANS.lock().expect("no span holder panics");
        spans.push(Span {
            layer,
            parent,
            start_ns: now_ns(),
            end_ns: 0,
            allocs,
            alloc_bytes,
            wire_bytes: 0,
        });
        spans.len() as u32 - 1
    };
    OPEN.with(|o| o.borrow_mut().push(idx));
    Some(Open(idx))
}

pub fn exit(open: Option<Open>, wire_bytes: u64) {
    let Some(Open(idx)) = open else { return };
    let end_ns = now_ns();
    let (allocs, alloc_bytes) = alloc::snapshot();
    OPEN.with(|o| o.borrow_mut().pop());
    let mut spans = SPANS.lock().expect("no span holder panics");
    // `stop` may have taken the buffer while this span was open.
    if let Some(s) = spans.get_mut(idx as usize) {
        s.end_ns = end_ns;
        s.allocs = allocs - s.allocs;
        s.alloc_bytes = alloc_bytes - s.alloc_bytes;
        s.wire_bytes = wire_bytes;
    }
}

/// Wraps a node's service handler in a span of the service's layer.
pub struct Timed {
    layer: Layer,
    inner: Arc<dyn RpcHandler>,
}

impl Timed {
    pub fn wrap(service: ServiceId, inner: Arc<dyn RpcHandler>) -> Arc<dyn RpcHandler> {
        Arc::new(Timed {
            layer: Layer::of_service(service),
            inner,
        })
    }
}

impl RpcHandler for Timed {
    fn handle(&self, from: NodeAddr, body: &[u8]) -> Result<RpcResponse, RpcError> {
        let open = enter(self.layer);
        let result = self.inner.handle(from, body);
        let reply_len = result.as_ref().map_or(0, |r| r.body.len());
        exit(open, (body.len() + reply_len) as u64);
        result
    }
}
