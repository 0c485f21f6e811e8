//! Isolated calls into single layers: fixed iteration counts, measured
//! once per invocation, with the counting allocator on.

use crate::alloc;
use crate::cluster::{Cluster, Transport};
use crate::workloads::{random_block, BLOCK};
use kosha_id::{dir_key, Sha1};
use kosha_nfs::{DiskModel, NfsClient, NfsReply, NfsRequest, NfsServer};
use kosha_obs::{Counter, Histogram};
use kosha_rpc::{
    LatencyModel, Network, NodeAddr, RpcError, RpcHandler, RpcRequest, RpcResponse, ServiceId,
    ServiceMux, SimNetwork, ThreadedNetwork, VirtualClock,
};
use kosha_vfs::Vfs;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Mean wall nanoseconds of one call of `f` over `iters` calls.
fn ns_per_call(iters: u64, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// `(allocations, bytes allocated)` by one call of `f`.
fn allocs_of(f: impl FnOnce()) -> (f64, f64) {
    let (a0, b0) = alloc::snapshot();
    f();
    let (a1, b1) = alloc::snapshot();
    ((a1 - a0) as f64, (b1 - b0) as f64)
}

/// Runs every isolated measurement, reporting `(metric, value)` pairs.
/// `scale` divides the iteration counts (`--quick`).
pub fn run(scale: u64, out: &mut Vec<(String, f64)>) {
    let mut put = |name: &str, value: f64| out.push((name.to_string(), value));
    let n = |iters: u64| (iters / scale).max(1);
    let data = random_block(0xB10C);

    // --- id: also the machine-speed canary.
    let chunk = &data[..64 * 1024];
    put(
        "id.sha1_ns_per_kib",
        ns_per_call(n(400), || {
            black_box(Sha1::digest(black_box(chunk)));
        }) / 64.0,
    );
    put(
        "id.dir_key_ns",
        ns_per_call(n(200_000), || {
            black_box(dir_key(black_box("home-directory-of-some-user")));
        }),
    );

    // --- a bare NFS server over one Vfs, for handles and the codec rows.
    let server = bare_server(&data);
    let NfsReply::Root { fh: root } = apply(&server, NfsRequest::Mount) else {
        panic!("mount reply")
    };
    let lookup = NfsRequest::Lookup {
        dir: root,
        name: "big".to_string(),
    };
    let handle = apply(&server, lookup.clone());
    let NfsReply::Handle { fh: big, .. } = handle else {
        panic!("lookup reply")
    };

    // --- wire: encode is what a client does to a request, decode what a
    // server does to its body; `RpcResponse` only carries the bytes.
    // `.into()` on the payload fields: ROADMAP plans to turn them from
    // `Vec<u8>` into views of the received frame, and later changes may not
    // edit this file.
    #[allow(clippy::useless_conversion)]
    let write = NfsRequest::Write {
        fh: big,
        offset: 0,
        data: data.clone().into(),
    };
    let write_frame = RpcResponse::new(&write);
    put(
        "wire.write128k_encode_ns",
        ns_per_call(n(2000), || {
            black_box(RpcRequest::new(ServiceId::Nfs, black_box(&write)));
        }),
    );
    put(
        "wire.write128k_decode_ns",
        ns_per_call(n(2000), || {
            black_box(write_frame.decode::<NfsRequest>().expect("decode write"));
        }),
    );
    let (_, bytes) = allocs_of(|| {
        let frame = RpcResponse::new(&write);
        black_box(frame.decode::<NfsRequest>().expect("decode write"));
    });
    put(
        "wire.write128k_alloc_bytes_per_payload_byte",
        bytes / BLOCK as f64,
    );
    #[allow(clippy::useless_conversion)]
    let reply = NfsReply::Data {
        data: data.clone().into(),
        eof: true,
    };
    let reply_frame = RpcResponse::new(&reply);
    put(
        "wire.readreply128k_encode_ns",
        ns_per_call(n(2000), || {
            black_box(RpcResponse::new(black_box(&reply)));
        }),
    );
    put(
        "wire.readreply128k_decode_ns",
        ns_per_call(n(2000), || {
            black_box(reply_frame.decode::<NfsReply>().expect("decode reply"));
        }),
    );
    let lookup_roundtrip = || {
        let req = RpcResponse::new(black_box(&lookup));
        black_box(req.decode::<NfsRequest>().expect("decode lookup"));
        let rep = RpcResponse::new(black_box(&handle));
        black_box(rep.decode::<NfsReply>().expect("decode handle"));
    };
    put(
        "wire.lookup_roundtrip_ns",
        ns_per_call(n(200_000), lookup_roundtrip),
    );
    put("wire.lookup_allocs", allocs_of(lookup_roundtrip).0);

    vfs(&data, &n, &mut put);

    // --- nfs_server: decode + apply + encode through `RpcHandler`.
    let handler: &dyn RpcHandler = &*server;
    let from = NodeAddr(0);
    let body_of = |req: &NfsRequest| RpcRequest::new(ServiceId::Nfs, req).body;
    let write_body = body_of(&write);
    let read_body = body_of(&NfsRequest::Read {
        fh: big,
        offset: 0,
        count: BLOCK as u32,
    });
    let getattr_body = body_of(&NfsRequest::Getattr { fh: big });
    let serve = |body: &[u8]| {
        black_box(handler.handle(from, black_box(body)).expect("served"));
    };
    put(
        "nfs_server.handle_write128k_ns",
        ns_per_call(n(2000), || serve(&write_body)),
    );
    put(
        "nfs_server.handle_read128k_ns",
        ns_per_call(n(2000), || serve(&read_body)),
    );
    put(
        "nfs_server.handle_read128k_alloc_bytes_per_payload_byte",
        allocs_of(|| serve(&read_body)).1 / BLOCK as f64,
    );
    put(
        "nfs_server.handle_getattr_ns",
        ns_per_call(n(200_000), || serve(&getattr_body)),
    );
    put(
        "nfs_server.handle_getattr_allocs",
        allocs_of(|| serve(&getattr_body)).0,
    );

    // --- nfs_client: typed client → transport → the bare server.
    let sim = SimNetwork::new(LatencyModel::zero());
    let mux = Arc::new(ServiceMux::new());
    mux.register(ServiceId::Nfs, server);
    sim.attach(NodeAddr(1), mux);
    let client = NfsClient::new(sim.clone(), NodeAddr(0));
    let getattr = || {
        black_box(client.getattr(NodeAddr(1), big).expect("getattr"));
    };
    put("nfs_client.getattr_ns", ns_per_call(n(200_000), getattr));
    put("nfs_client.getattr_allocs", allocs_of(getattr).0);
    sim.detach(NodeAddr(1));

    rpc(&n, &mut put);
    overlay(&n, &mut put);

    // --- obs
    let histogram = Histogram::new();
    let mut v = 1u64;
    put(
        "obs.histogram_record_ns",
        ns_per_call(n(2_000_000), || {
            v = v.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            histogram.record(black_box(v >> 40));
        }),
    );
    let counter = Counter::default();
    put(
        "obs.counter_inc_ns",
        ns_per_call(n(2_000_000), || black_box(&counter).inc()),
    );
}

fn bare_server(data: &[u8]) -> Arc<NfsServer> {
    let mut vfs = Vfs::new(1 << 30);
    let root = vfs.root();
    let (big, _) = vfs.create(root, "big", 0o644, 0, 0).expect("create");
    vfs.write(big, 0, data).expect("write");
    NfsServer::new(vfs, VirtualClock::new(), DiskModel::zero())
}

fn apply(server: &NfsServer, req: NfsRequest) -> NfsReply {
    server.apply(req).expect("bare server serves the request")
}

fn vfs(data: &[u8], n: &impl Fn(u64) -> u64, put: &mut impl FnMut(&str, f64)) {
    let mut vfs = Vfs::new(1 << 30);
    let root = vfs.root();
    let (big, _) = vfs.create(root, "big", 0o644, 0, 0).expect("create");
    put(
        "vfs.write128k_ns",
        ns_per_call(n(4000), || {
            black_box(vfs.write(big, 0, black_box(data)).expect("write"));
        }),
    );
    put(
        "vfs.read128k_ns",
        ns_per_call(n(4000), || {
            black_box(vfs.read(big, 0, BLOCK as u32).expect("read"));
        }),
    );
    put(
        "vfs.read128k_alloc_bytes_per_payload_byte",
        allocs_of(|| {
            black_box(vfs.read(big, 0, BLOCK as u32).expect("read"));
        })
        .1 / BLOCK as f64,
    );
    let dir = vfs.mkdir_p("/dir", 0o755).expect("mkdir");
    for i in 0..64 {
        vfs.create(dir, &format!("entry{i:02}"), 0o644, 0, 0)
            .expect("create");
    }
    put(
        "vfs.lookup_ns",
        ns_per_call(n(400_000), || {
            black_box(vfs.lookup(dir, black_box("entry31")).expect("lookup"));
        }),
    );
    put(
        "vfs.create_remove_ns",
        ns_per_call(n(200_000), || {
            vfs.create(dir, "fresh", 0o644, 0, 0).expect("create");
            vfs.remove(dir, "fresh").expect("remove");
        }),
    );
}

/// Answers every request with the same 16 bytes.
struct Echo(u128);

impl RpcHandler for Echo {
    fn handle(&self, _from: NodeAddr, _body: &[u8]) -> Result<RpcResponse, RpcError> {
        Ok(RpcResponse::new(&self.0))
    }
}

const ECHO: u128 = 0x0123_4567_89AB_CDEF_0011_2233_4455_6677;

fn echo_mux() -> Arc<ServiceMux> {
    let mux = Arc::new(ServiceMux::new());
    mux.register(ServiceId::Nfs, Arc::new(Echo(ECHO)));
    mux
}

/// One 16-byte request and its 16-byte reply between two addresses.
fn echo_call(net: &dyn Network) {
    let reply = net
        .call(
            NodeAddr(0),
            NodeAddr(1),
            RpcRequest::new(ServiceId::Nfs, &ECHO),
        )
        .expect("echo call");
    assert_eq!(reply.decode::<u128>().expect("echo reply"), ECHO);
}

fn rpc(n: &impl Fn(u64) -> u64, put: &mut impl FnMut(&str, f64)) {
    let sim = SimNetwork::new(LatencyModel::zero());
    sim.attach(NodeAddr(1), echo_mux());
    put(
        "rpc.sim_call_ns",
        ns_per_call(n(400_000), || echo_call(&*sim)),
    );
    put("rpc.sim_call_allocs", allocs_of(|| echo_call(&*sim)).0);
    sim.detach(NodeAddr(1));

    let thr = ThreadedNetwork::new(Duration::from_secs(30));
    thr.attach(NodeAddr(1), echo_mux());
    let calls = n(40_000);
    for _ in 0..calls / 10 {
        echo_call(&*thr);
    }
    let mut latencies: Vec<u64> = (0..calls)
        .map(|_| {
            let start = Instant::now();
            echo_call(&*thr);
            start.elapsed().as_nanos() as u64
        })
        .collect();
    latencies.sort_unstable();
    put("rpc.thr_call_p50_ns", percentile(&latencies, 50) as f64);
    put("rpc.thr_call_p99_ns", percentile(&latencies, 99) as f64);
    // Counted over many calls: the worker that serves a call allocates
    // concurrently with the caller.
    let (allocs, _) = allocs_of(|| {
        for _ in 0..calls / 10 {
            echo_call(&*thr);
        }
    });
    put("rpc.thr_call_allocs", allocs / (calls / 10) as f64);
    thr.detach(NodeAddr(1));
}

/// The `p`-th percentile of sorted samples: the smallest sample with at
/// least `p` % of the samples at or below it.
pub fn percentile(sorted: &[u64], p: usize) -> u64 {
    sorted[(sorted.len() * p).div_ceil(100).max(1) - 1]
}

/// A 64-node idle overlay: what a node costs to keep, and what routing a
/// key through it costs.
fn overlay(n: &impl Fn(u64) -> u64, put: &mut impl FnMut(&str, f64)) {
    const IDLE_NODES: usize = 64;
    let live_before = alloc::live_bytes();
    let cluster = Cluster::build(Transport::sim(), IDLE_NODES, false);
    let live = alloc::live_bytes() - live_before;
    put(
        "core.live_kib_per_idle_node",
        live as f64 / 1024.0 / IDLE_NODES as f64,
    );

    let keys: Vec<_> = (0..1024).map(|i| dir_key(&format!("dir-{i}"))).collect();
    let mut i = 0;
    let mut hops = 0;
    let routes = n(100_000);
    let ns = ns_per_call(routes, || {
        let node = &cluster.nodes[i % IDLE_NODES];
        let (_, h) = node
            .pastry()
            .route(keys[i % keys.len()])
            .expect("route in a healthy overlay");
        hops += h;
        i += 1;
    });
    put("pastry.route_ns", ns);
    put("pastry.route_hops_mean", hops as f64 / routes as f64);
}
