//! Property tests for the Kosha control protocol (through both decoders,
//! the copying `Reader::new` and the frame-viewing `Reader::over`, and in
//! both holdings, flat and split into a head and a payload part) and the
//! end-to-end placement invariants of small clusters.

use kosha::control::{
    KoshaReply, KoshaReplyFrame, KoshaRequest, MigrateItem, MigrateKind, ReplicaOp,
};
use kosha::{KoshaConfig, KoshaMount, KoshaNode};
use kosha_id::node_id_from_seed;
use kosha_nfs::messages::{ReplyFrame, WireSetAttr};
use kosha_rpc::{
    Bytes, Frame, Network, NodeAddr, PayloadPart, SimNetwork, WireError, WireRead, WireWrite,
};
use kosha_vfs::SetAttr;
use proptest::prelude::*;
use std::sync::Arc;

fn arb_path() -> impl Strategy<Value = String> {
    proptest::collection::vec("[a-z0-9]{1,10}", 1..5)
        .prop_map(|comps| format!("/{}", comps.join("/")))
}

fn arb_item() -> impl Strategy<Value = MigrateItem> {
    (
        "[a-z/]{0,16}",
        prop_oneof![
            Just(MigrateKind::Dir),
            proptest::collection::vec(any::<u8>(), 0..128)
                .prop_map(|b| MigrateKind::Bytes(b.into())),
            any::<u64>().prop_map(MigrateKind::Sparse),
            "[a-z#0-9]{1,16}".prop_map(|target| MigrateKind::Symlink { target }),
        ],
        0u32..0o10000,
        any::<u32>(),
        any::<u32>(),
    )
        .prop_map(|(rel_path, kind, mode, uid, gid)| MigrateItem {
            rel_path,
            kind,
            mode,
            uid,
            gid,
        })
}

fn arb_replica_write() -> impl Strategy<Value = ReplicaOp> {
    (
        arb_path(),
        any::<u64>(),
        proptest::collection::vec(any::<u8>(), 0..128),
    )
        .prop_map(|(path, offset, data)| ReplicaOp::Write {
            path,
            offset,
            data: data.into(),
        })
}

fn op_payload(op: &ReplicaOp) -> Option<&Bytes> {
    match op {
        ReplicaOp::Write { data, .. } => Some(data),
        _ => None,
    }
}

/// Every payload field of a request, in encoding order.
fn payloads(req: &KoshaRequest) -> Vec<&Bytes> {
    match req {
        KoshaRequest::Write { data, .. } => vec![data],
        KoshaRequest::ReplicaApply { op } => op_payload(op).into_iter().collect(),
        KoshaRequest::ReplicaApplyBatch { ops } => ops.iter().filter_map(op_payload).collect(),
        _ => Vec::new(),
    }
}

/// Decodes `bytes` through `Reader::new` and through `Reader::over`,
/// checks that the two agree, and returns what they said.
fn decode_both<T: WireRead + PartialEq + std::fmt::Debug>(bytes: &[u8]) -> Result<T, WireError> {
    let copied = T::decode(bytes);
    let viewed = T::decode_frame(Frame::flat(&Bytes::copy_from_slice(bytes)));
    assert_eq!(copied, viewed);
    copied
}

fn arb_request() -> impl Strategy<Value = KoshaRequest> {
    prop_oneof![
        (
            arb_path(),
            0u32..0o10000,
            any::<u32>(),
            any::<u32>(),
            proptest::option::of(any::<u64>())
        )
            .prop_map(|(path, mode, uid, gid, size)| KoshaRequest::CreateFile {
                path,
                mode,
                uid,
                gid,
                size
            }),
        (arb_path(), 0u32..0o10000, any::<u32>(), any::<u32>()).prop_map(
            |(path, mode, uid, gid)| KoshaRequest::MkdirLocal {
                path,
                mode,
                uid,
                gid
            }
        ),
        (
            arb_path(),
            "[a-z#0-9]{1,16}",
            0u32..0o10000,
            any::<u32>(),
            any::<u32>()
        )
            .prop_map(
                |(path, routing_name, mode, uid, gid)| KoshaRequest::MkdirAnchor {
                    path,
                    routing_name,
                    mode,
                    uid,
                    gid
                }
            ),
        (arb_path(), "[a-z#0-9]{1,16}", any::<u32>(), any::<u32>()).prop_map(
            |(path, target, uid, gid)| KoshaRequest::PlaceLink {
                path,
                target,
                uid,
                gid
            }
        ),
        (
            arb_path(),
            any::<u64>(),
            proptest::collection::vec(any::<u8>(), 0..128)
        )
            .prop_map(|(path, offset, data)| KoshaRequest::Write {
                path,
                offset,
                data: data.into()
            }),
        arb_replica_write().prop_map(|op| KoshaRequest::ReplicaApply { op }),
        proptest::collection::vec(
            prop_oneof![
                arb_replica_write(),
                arb_path().prop_map(|path| ReplicaOp::Remove { path }),
                (arb_path(), any::<u64>())
                    .prop_map(|(anchor, bytes)| ReplicaOp::LagMark { anchor, bytes }),
            ],
            0..4
        )
        .prop_map(|ops| KoshaRequest::ReplicaApplyBatch { ops }),
        (arb_path(), proptest::option::of(any::<u64>())).prop_map(|(path, size)| {
            KoshaRequest::SetAttr {
                path,
                sattr: WireSetAttr(SetAttr {
                    size,
                    ..Default::default()
                }),
            }
        }),
        arb_path().prop_map(|path| KoshaRequest::Remove { path }),
        arb_path().prop_map(|path| KoshaRequest::Rmdir { path }),
        arb_path().prop_map(|path| KoshaRequest::RmdirAnchor { path }),
        arb_path().prop_map(|path| KoshaRequest::RemoveLink { path }),
        (arb_path(), arb_path()).prop_map(|(from, to)| KoshaRequest::RenameLocal { from, to }),
        (arb_path(), arb_path()).prop_map(|(from, to)| KoshaRequest::RenameAnchorDir { from, to }),
        (arb_path(), "[a-z#0-9]{1,16}")
            .prop_map(|(path, routing)| KoshaRequest::EnsureAnchor { path, routing }),
        Just(KoshaRequest::StoreStats),
        Just(KoshaRequest::ListAnchors),
        arb_path().prop_map(|path| KoshaRequest::BeginTransfer { path }),
        (arb_path(), arb_item()).prop_map(|(path, item)| KoshaRequest::TransferPut { path, item }),
        (arb_path(), "[a-z#0-9]{1,16}").prop_map(|(path, routing_name)| {
            KoshaRequest::CommitTransfer { path, routing_name }
        }),
        arb_path().prop_map(|path| KoshaRequest::ReplicaTargets { path }),
    ]
}

proptest! {
    #[test]
    fn control_requests_round_trip(req in arb_request()) {
        let bytes = req.encode();
        prop_assert_eq!(decode_both::<KoshaRequest>(&bytes).unwrap(), req.clone());
        // Over a frame every payload (nested ones too) is a view of it
        // with the bytes a copying decode returns.
        let viewed = KoshaRequest::decode_frame(Frame::flat(&bytes)).unwrap();
        let copied = KoshaRequest::decode(&bytes).unwrap();
        let views = payloads(&viewed);
        prop_assert_eq!(views.len(), payloads(&req).len());
        for (view, copy) in views.into_iter().zip(payloads(&copied)) {
            prop_assert_eq!(view, copy);
            if !view.is_empty() {
                prop_assert!(bytes.as_ptr_range().contains(&view.as_ptr()));
                prop_assert!(!bytes.as_ptr_range().contains(&copy.as_ptr()));
            }
        }
    }

    /// The two holdings of a request: the split encoding flattens to the
    /// flat one and decodes to the request; a frame gathers exactly the
    /// first payload (of a `ReplicaApplyBatch` with several WRITEs too,
    /// zero-length ones included) as the message's own buffer, decoding
    /// hands that part out as it is, and later payloads are views of the
    /// head.
    #[test]
    fn split_and_flat_holdings_agree(req in arb_request()) {
        let flat = req.encode();
        let (body, part) = req.encode_split();
        let frame = Frame { body: &body, payload: part.as_ref() };
        prop_assert_eq!(&frame.flatten(), &flat);
        prop_assert_eq!(frame.len(), flat.len());
        let decoded = KoshaRequest::decode_frame(frame).unwrap();
        prop_assert_eq!(&decoded, &req);

        let (sent, handed) = (payloads(&req), payloads(&decoded));
        prop_assert_eq!(part.is_some(), !sent.is_empty());
        if let Some(part) = &part {
            prop_assert_eq!(part.data.as_ptr(), sent[0].as_ptr());
            prop_assert_eq!(part.data.len(), sent[0].len());
            prop_assert_eq!(handed[0].as_ptr(), part.data.as_ptr());
            for inlined in handed[1..].iter().filter(|d| !d.is_empty()) {
                prop_assert!(body.as_ptr_range().contains(&inlined.as_ptr()));
            }
        }
    }

    /// Any head, offset and part decode to an error or to the message
    /// the frame's flat bytes spell: never a panic, and the payload is
    /// handed out, not allocated.
    #[test]
    fn arbitrary_two_piece_frames_never_panic(
        body in proptest::collection::vec(any::<u8>(), 0..96),
        at in 0usize..128,
        part in proptest::collection::vec(any::<u8>(), 0..64),
        seed in proptest::option::of(arb_request()),
    ) {
        let part = PayloadPart { at, data: part.into() };
        let mut heads = vec![Bytes::from(body)];
        // The head of a real message makes the deeper paths reachable.
        heads.extend(seed.map(|req| req.encode_split().0));
        for body in &heads {
            let frame = Frame { body, payload: Some(&part) };
            if let Ok(req) = KoshaRequest::decode_frame(frame) {
                prop_assert_eq!(KoshaRequest::decode(&frame.flatten()).unwrap(), req);
            }
            let _ = KoshaReplyFrame::decode_frame(frame);
        }
    }

    #[test]
    fn control_replies_round_trip(reply in prop_oneof![
        Just(KoshaReply::Done),
        any::<bool>().prop_map(KoshaReply::DoneBool),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(capacity, used, free)| KoshaReply::Stats { capacity, used, free }),
        proptest::collection::vec(("[a-z/]{1,12}", "[a-z#0-9]{1,12}"), 0..8)
            .prop_map(|v| KoshaReply::Anchors(v.into_iter().collect())),
        proptest::collection::vec(any::<u64>(), 0..8)
            .prop_map(|v| KoshaReply::Nodes(v.into_iter().map(NodeAddr).collect())),
    ]) {
        let frame = ReplyFrame(Ok(reply));
        let bytes = frame.encode();
        prop_assert_eq!(decode_both::<KoshaReplyFrame>(&bytes).unwrap(), frame);
    }

    /// A frame cut short anywhere is an error from both decoders, never
    /// a panic and never a shorter message.
    #[test]
    fn truncated_control_frames_are_rejected(req in arb_request(), cut in any::<usize>()) {
        let bytes = req.encode();
        prop_assert!(decode_both::<KoshaRequest>(&bytes[..cut % bytes.len()]).is_err());
    }

    /// A payload length prefix beyond the codec's limit is refused by
    /// both decoders before anything is allocated for it.
    #[test]
    fn oversized_payload_lengths_are_rejected(
        path in arb_path(),
        len in (64u32 << 20) + 1..=u32::MAX,
        nested in any::<bool>(),
    ) {
        let data = Bytes::new();
        let mut frame = if nested {
            KoshaRequest::ReplicaApply { op: ReplicaOp::Write { path, offset: 0, data } }.encode()
        } else {
            KoshaRequest::Write { path, offset: 0, data }.encode()
        }
        .to_vec();
        let at = frame.len() - 4;
        frame[at..].copy_from_slice(&len.to_le_bytes());
        prop_assert_eq!(
            decode_both::<KoshaRequest>(&frame),
            Err(WireError::BadLength(u64::from(len)))
        );
    }

    /// A reply that claims more anchors than a frame can hold and ends
    /// after the count is refused on the count, as every sequence is;
    /// the largest count the codec accepts runs out of bytes instead,
    /// with `Reader::seq`'s 4 096 slots reserved and not the 3 GiB the
    /// count asks for.
    #[test]
    fn hostile_anchor_counts_are_rejected(count in (64u32 << 20) + 1..=u32::MAX) {
        let claim = |count: u32| {
            let mut frame = ReplyFrame(Ok(KoshaReply::Anchors(Vec::new()))).encode().to_vec();
            let at = frame.len() - 4;
            frame[at..].copy_from_slice(&count.to_le_bytes());
            decode_both::<KoshaReplyFrame>(&frame)
        };
        for count in [count, u32::MAX] {
            prop_assert_eq!(claim(count), Err(WireError::BadLength(u64::from(count))));
        }
        prop_assert_eq!(claim(64 << 20), Err(WireError::Truncated));
    }

    #[test]
    fn control_decoder_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode_both::<KoshaRequest>(&bytes);
        let _ = decode_both::<KoshaReplyFrame>(&bytes);
    }
}

// End-to-end placement invariant: whatever tree of directories and
// files we create, every hosted anchor is recorded on exactly the node
// its routing name maps to, and every file remains readable with the
// bytes written.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn placement_invariants_hold(
        names in proptest::collection::vec("[a-z]{1,8}", 1..10),
        level in 1usize..3,
        nodes in 2usize..7,
    ) {
        let net = SimNetwork::new_zero_latency();
        let mut cfg = KoshaConfig::for_tests();
        cfg.distribution_level = level;
        cfg.replicas = 1;
        let mut cluster = Vec::new();
        for i in 0..nodes {
            let id = node_id_from_seed(&format!("prop-host-{i}"));
            let (node, mux) = KoshaNode::build(
                cfg.clone(),
                id,
                NodeAddr(i as u64),
                net.clone() as Arc<dyn Network>,
            );
            net.attach(node.addr(), mux);
            node.join(if i == 0 { None } else { Some(NodeAddr(0)) }).unwrap();
            cluster.push(node);
        }
        let m = KoshaMount::new(net.clone() as Arc<dyn Network>, NodeAddr(0), NodeAddr(0)).unwrap();
        let mut expected: Vec<(String, Vec<u8>)> = Vec::new();
        for (i, name) in names.iter().enumerate() {
            let dir = format!("/{name}{i}/sub");
            m.mkdir_p(&dir).unwrap();
            let path = format!("{dir}/f{i}");
            let data = vec![i as u8; 64 + i];
            m.write_file(&path, &data).unwrap();
            expected.push((path, data));
        }
        // Every file readable with correct content, from any gateway.
        let m2 = KoshaMount::new(net.clone() as Arc<dyn Network>, NodeAddr((nodes - 1) as u64), NodeAddr((nodes - 1) as u64)).unwrap();
        for (path, data) in &expected {
            prop_assert_eq!(&m2.read_file(path).unwrap(), data);
        }
        // Anchor/owner agreement.
        for node in &cluster {
            for (path, routing) in node.hosted_anchors() {
                let owner = node.pastry().route_owner(kosha_id::dir_key(&routing)).unwrap();
                prop_assert_eq!(owner.id, node.id(), "anchor {} misplaced", path);
            }
        }
    }
}

// ---- the virtual-handle table against a naive model -------------------
//
// `HandleTable` keeps `entries` (handle → entry) and `by_path` (path →
// handle) as a bijection; an exact `forget` relies on it. The model is one
// vector and linear scans, so it cannot get an index out of step.

use kosha::handles::{HandleTable, Location, VIRTUAL_GEN};
use kosha_nfs::Fh;
use kosha_vfs::FileType;

fn vfh(vh: u64) -> Fh {
    Fh {
        ino: vh,
        gen: VIRTUAL_GEN,
    }
}

fn below(p: &str, dir: &str) -> bool {
    p.starts_with(&format!("{dir}/"))
}

/// Every path of depth 1–3 over three names, one a prefix of another.
fn table_paths() -> Vec<String> {
    let names = ["a", "ab", "f"];
    let mut level: Vec<String> = vec![String::new()];
    let mut all = Vec::new();
    for _ in 0..3 {
        level = level
            .iter()
            .flat_map(|p| names.iter().map(move |n| format!("{p}/{n}")))
            .collect();
        all.extend(level.iter().cloned());
    }
    all
}

#[derive(Debug, Clone)]
enum TableOp {
    Mint(usize, bool),
    Forget(usize),
    ForgetSubtree(usize),
    Rename(usize, usize),
    /// The n-th handle ever minted (live or not) gets a location on a node.
    SetLocation(usize, u64),
    SetReplica(usize, u64),
}

fn arb_table_op() -> impl Strategy<Value = TableOp> {
    let path = 0usize..39;
    prop_oneof![
        (path.clone(), any::<bool>()).prop_map(|(p, dir)| TableOp::Mint(p, dir)),
        path.clone().prop_map(TableOp::Forget),
        path.clone().prop_map(TableOp::ForgetSubtree),
        (path.clone(), path.clone()).prop_map(|(a, b)| TableOp::Rename(a, b)),
        (0usize..64, 1u64..3).prop_map(|(h, n)| TableOp::SetLocation(h, n)),
        (path, 1u64..3).prop_map(|(p, n)| TableOp::SetReplica(p, n)),
    ]
}

struct ModelEntry {
    vh: u64,
    path: String,
    ftype: FileType,
    loc: Option<Location>,
}

struct TableModel {
    next: u64,
    live: Vec<ModelEntry>,
    replica: Vec<(String, NodeAddr, Fh)>,
}

impl TableModel {
    fn new() -> Self {
        let root = ModelEntry {
            vh: 1,
            path: "/".into(),
            ftype: FileType::Directory,
            loc: None,
        };
        TableModel {
            next: 2,
            live: vec![root],
            replica: Vec::new(),
        }
    }

    fn mint(&mut self, path: &str, ftype: FileType) -> u64 {
        if let Some(e) = self.live.iter_mut().find(|e| e.path == path) {
            e.ftype = ftype;
            return e.vh;
        }
        self.live.push(ModelEntry {
            vh: self.next,
            path: path.into(),
            ftype,
            loc: None,
        });
        self.next += 1;
        self.next - 1
    }

    fn forget_subtree(&mut self, path: &str) {
        self.live
            .retain(|e| e.path != path && !below(&e.path, path));
        self.replica.retain(|(p, ..)| p != path && !below(p, path));
    }

    fn forget(&mut self, path: &str) {
        let held_dir = |e: &ModelEntry| e.path == path && e.ftype == FileType::Directory;
        if self.live.iter().any(held_dir) {
            self.forget_subtree(path);
        } else {
            self.live.retain(|e| e.path != path);
            self.replica.retain(|(p, ..)| p != path);
        }
    }

    fn rename(&mut self, old: &str, new: &str) {
        self.forget_subtree(new);
        for e in &mut self.live {
            if e.path == old || below(&e.path, old) {
                e.path = format!("{new}{}", &e.path[old.len()..]);
                e.loc = None;
            }
        }
        self.replica.retain(|(p, ..)| p != old && !below(p, old));
    }

    /// The table holds what the model holds, handle for handle and path
    /// for path, and no path twice.
    fn check(&self, table: &mut HandleTable, paths: &[String]) {
        let mut seen = std::collections::BTreeSet::new();
        for vh in 1..self.next {
            let want = self.live.iter().find(|e| e.vh == vh);
            let got = table.get(vfh(vh));
            assert_eq!(
                got.map(|e| (e.path.as_str(), e.ftype, e.loc)),
                want.map(|e| (e.path.as_str(), e.ftype, e.loc)),
                "handle {vh}"
            );
            if let Some(e) = got {
                assert!(seen.insert(e.path.clone()), "two handles name {}", e.path);
            }
        }
        // `by_path` leads back to the same handle (a miss would mint, and
        // the length below would tell).
        for e in &self.live {
            assert_eq!(table.mint(&e.path, e.ftype), vfh(e.vh), "{}", e.path);
        }
        assert_eq!(table.len(), self.live.len());
        for p in paths {
            for addr in [NodeAddr(1), NodeAddr(2)] {
                let want = self.replica.iter().find(|(q, a, _)| q == p && *a == addr);
                assert_eq!(table.replica_location(addr, p), want.map(|r| r.2), "{p}");
            }
        }
    }
}

proptest! {
    #[test]
    fn handle_table_stays_a_bijection_and_agrees_with_a_naive_model(
        ops in proptest::collection::vec(arb_table_op(), 1..60),
    ) {
        let paths = table_paths();
        let mut table = HandleTable::new();
        let mut model = TableModel::new();
        let ftype = |dir| if dir { FileType::Directory } else { FileType::Regular };
        for op in ops {
            match op {
                TableOp::Mint(p, dir) => {
                    let got = table.mint(&paths[p], ftype(dir));
                    prop_assert_eq!(got, vfh(model.mint(&paths[p], ftype(dir))));
                }
                TableOp::Forget(p) => {
                    table.forget(&paths[p]);
                    model.forget(&paths[p]);
                }
                TableOp::ForgetSubtree(p) => {
                    table.forget_subtree(&paths[p]);
                    model.forget_subtree(&paths[p]);
                }
                TableOp::Rename(a, b) => {
                    let (old, new) = (&paths[a], &paths[b]);
                    // The renames a file system refuses never reach the table.
                    if old == new || below(old, new) || below(new, old) {
                        continue;
                    }
                    table.rename_subtree(old, new);
                    model.rename(old, new);
                }
                TableOp::SetLocation(h, node) => {
                    let vh = 1 + h as u64 % (model.next - 1);
                    let loc = Location { addr: NodeAddr(node), fh: Fh { ino: vh, gen: 7 } };
                    table.set_location(vfh(vh), loc);
                    if let Some(e) = model.live.iter_mut().find(|e| e.vh == vh) {
                        e.loc = Some(loc);
                    }
                }
                TableOp::SetReplica(p, node) => {
                    let (addr, fh) = (NodeAddr(node), Fh { ino: p as u64, gen: 9 });
                    table.set_replica_location(addr, &paths[p], fh);
                    model.replica.retain(|(q, a, _)| !(q == &paths[p] && *a == addr));
                    model.replica.push((paths[p].clone(), addr, fh));
                }
            }
            model.check(&mut table, &paths);
        }
        // No forgotten path left a key behind: each one mints afresh.
        for p in &paths {
            prop_assert_eq!(table.mint(p, FileType::Regular), vfh(model.mint(p, FileType::Regular)));
        }
        model.check(&mut table, &paths);
    }
}

#[test]
fn an_exact_forget_takes_one_path_and_a_held_directory_takes_its_subtree() {
    let mut t = HandleTable::new();
    let rfh = Fh { ino: 9, gen: 1 };
    let gone = t.mint("/a/f", FileType::Regular);
    let kept: Vec<Fh> = ["/a", "/a/f2", "/a/f.bak", "/a/fx", "/a/fx/y", "/a/f/stale"]
        .iter()
        .map(|p| t.mint(p, FileType::Regular))
        .collect();
    for p in ["/a/f", "/a/f2", "/a/f/stale"] {
        t.set_replica_location(NodeAddr(1), p, rfh);
    }
    t.forget("/a/f");
    assert!(t.get(gone).is_none());
    assert!(kept.iter().all(|&fh| t.get(fh).is_some()));
    assert_eq!(t.replica_location(NodeAddr(1), "/a/f"), None);
    assert_eq!(t.replica_location(NodeAddr(1), "/a/f2"), Some(rfh));
    assert_eq!(t.replica_location(NodeAddr(1), "/a/f/stale"), Some(rfh));
    // A fresh mint of the forgotten path is a new handle, not the old one.
    assert_ne!(t.mint("/a/f", FileType::Regular), gone);

    // Held as a directory (its type changed behind this koshad's back):
    // the subtree goes, the prefix traps stay.
    let dir = t.mint("/a/fx", FileType::Directory);
    t.set_replica_location(NodeAddr(1), "/a/fx/y", rfh);
    t.forget("/a/fx");
    assert!(t.get(dir).is_none());
    assert!(t.get(kept[4]).is_none(), "/a/fx/y outlived its directory");
    assert_eq!(t.replica_location(NodeAddr(1), "/a/fx/y"), None);
    assert!(t.get(kept[1]).is_some() && t.get(kept[2]).is_some());
}

#[test]
fn rename_over_an_existing_path_leaves_one_handle_for_it() {
    let mut t = HandleTable::new();
    let src = t.mint("/a/new", FileType::Regular);
    let dst = t.mint("/a/old", FileType::Regular);
    let rfh = Fh { ino: 9, gen: 1 };
    t.set_replica_location(NodeAddr(1), "/a/old/below", rfh);
    let before = t.len();
    t.rename_subtree("/a/new", "/a/old");
    assert_eq!(t.get(src).unwrap().path, "/a/old");
    assert!(
        t.get(dst).is_none(),
        "the overwritten file's handle aliases the new one"
    );
    assert_eq!(t.len(), before - 1);
    assert_eq!(t.mint("/a/old", FileType::Regular), src);
    assert_eq!(t.replica_location(NodeAddr(1), "/a/old/below"), None);
}
