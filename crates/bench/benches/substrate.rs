//! Microbenchmarks of the substrates: SHA-1 keying, wire codec, the
//! in-memory store, and overlay routing — the building blocks whose cost
//! the Section 6.1.2 model abstracts as `I` and `hc`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kosha_id::{dir_key, node_id_from_seed, Sha1};
use kosha_nfs::{NfsReply, NfsRequest};
use kosha_pastry::{PastryConfig, PastryNode};
use kosha_rpc::{Frame, Network, NodeAddr, ServiceId, ServiceMux, SimNetwork, WireRead, WireWrite};
use kosha_vfs::Vfs;
use std::hint::black_box;
use std::sync::Arc;

fn bench_sha1(c: &mut Criterion) {
    let mut g = c.benchmark_group("sha1");
    for size in [16usize, 256, 4096] {
        let data = vec![0xABu8; size];
        g.bench_with_input(BenchmarkId::new("digest", size), &data, |b, d| {
            b.iter(|| black_box(Sha1::digest(d)))
        });
    }
    g.bench_function("dir_key", |b| b.iter(|| black_box(dir_key("homework"))));
    g.finish();
}

fn bench_wire(c: &mut Criterion) {
    let req = NfsRequest::Write {
        fh: kosha_nfs::Fh { ino: 42, gen: 1 },
        offset: 8192,
        data: vec![0x55u8; 32 * 1024].into(),
    };
    let encoded = req.encode();
    let mut g = c.benchmark_group("wire");
    g.bench_function("encode-write-32k", |b| b.iter(|| black_box(req.encode())));
    g.bench_function("decode-write-32k", |b| {
        b.iter(|| black_box(NfsRequest::decode(&encoded).unwrap()))
    });
    // The same message held as a head and a payload beside it: what a
    // hop on the payload path pays to re-frame it.
    let (head, part) = req.encode_split();
    g.bench_function("encode-write-32k-split", |b| {
        b.iter(|| black_box(req.encode_split()))
    });
    g.bench_function("decode-write-32k-split", |b| {
        let frame = Frame {
            body: &head,
            payload: part.as_ref(),
        };
        b.iter(|| black_box(NfsRequest::decode_frame(frame).unwrap()))
    });
    let reply = NfsReply::Entries {
        entries: (0..64)
            .map(|i| kosha_nfs::messages::WireDirEntry {
                name: format!("entry-{i}"),
                fh: kosha_nfs::Fh { ino: i, gen: 1 },
                ftype: kosha_vfs::FileType::Regular,
            })
            .collect(),
    };
    g.bench_function("encode-readdir-64", |b| {
        b.iter(|| black_box(reply.encode()))
    });
    g.finish();
}

fn bench_vfs(c: &mut Criterion) {
    let mut g = c.benchmark_group("vfs");
    g.bench_function("create-write-remove", |b| {
        let mut v = Vfs::new(1 << 30);
        let root = v.root();
        let mut i = 0u64;
        b.iter(|| {
            let name = format!("f{i}");
            i += 1;
            let (fh, _) = v.create(root, &name, 0o644, 0, 0).unwrap();
            v.write(fh, 0, &[1u8; 4096]).unwrap();
            v.remove(root, &name).unwrap();
        })
    });
    g.bench_function("path-resolve-depth-6", |b| {
        let mut v = Vfs::new(1 << 30);
        v.mkdir_p("/a/b/c/d/e/f", 0o755).unwrap();
        b.iter(|| black_box(v.resolve("/a/b/c/d/e/f").unwrap()))
    });
    g.finish();
}

fn bench_routing(c: &mut Criterion) {
    for n in [8usize, 32, 128] {
        let net = SimNetwork::new_zero_latency();
        let mut nodes = Vec::new();
        for i in 0..n {
            let node = PastryNode::new(
                PastryConfig::default(),
                node_id_from_seed(&format!("rb-{i}")),
                NodeAddr(i as u64),
                net.clone() as Arc<dyn Network>,
            );
            let mux = Arc::new(ServiceMux::new());
            mux.register(ServiceId::Pastry, node.clone());
            net.attach(node.addr(), mux);
            node.join(if i == 0 { None } else { Some(NodeAddr(0)) })
                .unwrap();
            nodes.push(node);
        }
        c.bench_with_input(BenchmarkId::new("pastry_route", n), &nodes, |b, nodes| {
            let mut k = 0u32;
            b.iter(|| {
                k = k.wrapping_add(1);
                let key = dir_key(&format!("key{k}"));
                black_box(nodes[0].route(key).unwrap())
            })
        });
    }
}

criterion_group!(benches, bench_sha1, bench_wire, bench_vfs, bench_routing);
criterion_main!(benches);
