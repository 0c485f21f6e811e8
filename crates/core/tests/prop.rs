//! Property tests for the Kosha control protocol (through both decoders,
//! the copying `Reader::new` and the frame-viewing `Reader::over`, and in
//! both holdings, flat and split into a head and a payload part) and the
//! end-to-end placement invariants of small clusters.

use kosha::control::{
    ControlRequest, KoshaReply, KoshaReplyFrame, MigrateItem, MigrateKind, ReplicaOp,
    ReplicaRequest,
};
use kosha::slots::SlotMeta;
use kosha::{KoshaConfig, KoshaMount, KoshaNode};
use kosha_id::node_id_from_seed;
use kosha_nfs::messages::{ReplyFrame, WireAttr, WireSetAttr};
use kosha_rpc::{
    Bytes, Frame, Network, NodeAddr, PayloadPart, SimNetwork, WireError, WireRead, WireWrite,
};
use kosha_vfs::{Attr, SetAttr};
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

/// A mode, uid and gid.
fn arb_owner() -> impl Strategy<Value = (u32, u32, u32)> {
    (0u32..0o10000, any::<u32>(), any::<u32>())
}

/// Any mutation, of every kind.
fn arb_replica_op() -> impl Strategy<Value = ReplicaOp> {
    prop_oneof![
        (arb_path(), arb_owner()).prop_map(|(path, (mode, uid, gid))| ReplicaOp::Mkdir {
            path,
            mode,
            uid,
            gid
        }),
        (arb_path(), arb_owner()).prop_map(|(path, (mode, uid, gid))| ReplicaOp::Create {
            path,
            mode,
            uid,
            gid
        }),
        (arb_path(), "[a-z#0-9]{1,16}", arb_owner()).prop_map(
            |(path, target, (mode, uid, gid))| ReplicaOp::Symlink {
                path,
                target,
                mode,
                uid,
                gid
            }
        ),
        arb_replica_write(),
        (arb_path(), proptest::option::of(any::<u64>())).prop_map(|(path, size)| {
            ReplicaOp::SetAttr {
                path,
                sattr: WireSetAttr(SetAttr {
                    size,
                    ..Default::default()
                }),
            }
        }),
        arb_path().prop_map(|path| ReplicaOp::Remove { path }),
        arb_path().prop_map(|path| ReplicaOp::Rmdir { path }),
        arb_path().prop_map(|anchor| ReplicaOp::RemoveSlot { anchor }),
        (arb_path(), arb_path()).prop_map(|(from, to)| ReplicaOp::Rename { from, to }),
        (arb_path(), arb_path()).prop_map(|(from, to)| ReplicaOp::RenameSlot { from, to }),
        (arb_path(), any::<u64>()).prop_map(|(anchor, bytes)| ReplicaOp::LagMark { anchor, bytes }),
        (arb_path(), "[a-z#0-9]{1,16}", arb_owner()).prop_map(
            |(anchor, routing, (mode, uid, gid))| ReplicaOp::MakeSlot {
                anchor,
                routing,
                mode,
                uid,
                gid
            }
        ),
    ]
}

fn op_payload(op: &ReplicaOp) -> Option<&Bytes> {
    match op {
        ReplicaOp::Write { data, .. } => Some(data),
        _ => None,
    }
}

fn item_payload(item: &MigrateItem) -> Option<&Bytes> {
    match &item.kind {
        MigrateKind::Bytes(data) => Some(data),
        _ => None,
    }
}

/// A request of one service, as the properties below take it.
trait Request: WireRead + WireWrite + PartialEq + Clone + std::fmt::Debug {
    /// Every payload field of the request, in encoding order.
    fn payloads(&self) -> Vec<&Bytes>;
}

impl Request for ControlRequest {
    fn payloads(&self) -> Vec<&Bytes> {
        match self {
            ControlRequest::Mutate { op } => op_payload(op).into_iter().collect(),
            ControlRequest::TransferAnchor { items, .. } => {
                items.iter().filter_map(item_payload).collect()
            }
            _ => Vec::new(),
        }
    }
}

impl Request for ReplicaRequest {
    fn payloads(&self) -> Vec<&Bytes> {
        match self {
            ReplicaRequest::ReplicaApply { op } => op_payload(op).into_iter().collect(),
            ReplicaRequest::ReplicaApplyBatch { ops } => {
                ops.iter().filter_map(op_payload).collect()
            }
            ReplicaRequest::MigrateBatch { items, .. } => {
                items.iter().filter_map(item_payload).collect()
            }
            ReplicaRequest::HotReplicaPush { item, .. } => item_payload(item).into_iter().collect(),
            _ => Vec::new(),
        }
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

fn arb_items() -> impl Strategy<Value = (String, String, Vec<MigrateItem>)> {
    (
        arb_path(),
        "[a-z#0-9]{1,16}",
        proptest::collection::vec(arb_item(), 0..4),
    )
}

fn arb_control() -> impl Strategy<Value = ControlRequest> {
    prop_oneof![
        arb_replica_op().prop_map(|op| ControlRequest::Mutate { op }),
        (arb_path(), "[a-z#0-9]{1,16}")
            .prop_map(|(path, routing)| ControlRequest::EnsureAnchor { path, routing }),
        Just(ControlRequest::AuditScan),
        arb_path().prop_map(|path| ControlRequest::ReplicaTargets { path }),
        arb_items().prop_map(|(path, routing, items)| ControlRequest::TransferAnchor {
            path,
            routing,
            items
        }),
    ]
}

fn arb_replica() -> impl Strategy<Value = ReplicaRequest> {
    prop_oneof![
        arb_replica_write().prop_map(|op| ReplicaRequest::ReplicaApply { op }),
        proptest::collection::vec(arb_replica_op(), 0..4)
            .prop_map(|ops| ReplicaRequest::ReplicaApplyBatch { ops }),
        arb_items().prop_map(|(path, routing, items)| ReplicaRequest::MigrateBatch {
            path,
            routing,
            items
        }),
        (arb_path(), "[a-z#0-9]{1,16}", arb_path(), arb_item()).prop_map(
            |(anchor, routing, path, item)| ReplicaRequest::HotReplicaPush {
                anchor,
                routing,
                path,
                item
            }
        ),
        (arb_path(), arb_path())
            .prop_map(|(anchor, path)| ReplicaRequest::HotReplicaDrop { anchor, path }),
        arb_path().prop_map(|anchor| ReplicaRequest::SlotRecord { anchor }),
    ]
}

fn arb_slot_meta() -> impl Strategy<Value = SlotMeta> {
    (
        proptest::option::of("[a-z#0-9]{1,16}"),
        any::<u64>(),
        any::<bool>(),
        proptest::collection::vec(arb_path(), 0..4),
    )
        .prop_map(|(routing, lag_bytes, migrating, hot)| SlotMeta {
            routing,
            lag_bytes,
            migrating,
            hot,
        })
}

/// A request decodes to itself through both decoders, and over a frame
/// every payload (nested ones too) is a view of it with the bytes a
/// copying decode returns.
fn round_trips<R: Request>(req: R) {
    let bytes = req.encode();
    prop_assert_eq!(decode_both::<R>(&bytes).unwrap(), req.clone());
    let viewed = R::decode_frame(Frame::flat(&bytes)).unwrap();
    let copied = R::decode(&bytes).unwrap();
    let views = viewed.payloads();
    prop_assert_eq!(views.len(), req.payloads().len());
    for (view, copy) in views.into_iter().zip(copied.payloads()) {
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
fn holdings_agree<R: Request>(req: R) {
    let flat = req.encode();
    let (body, part) = req.encode_split();
    let frame = Frame {
        body: &body,
        payload: part.as_ref(),
    };
    prop_assert_eq!(&frame.flatten(), &flat);
    prop_assert_eq!(frame.len(), flat.len());
    let decoded = R::decode_frame(frame).unwrap();
    prop_assert_eq!(&decoded, &req);

    let (sent, handed) = (req.payloads(), decoded.payloads());
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

/// A frame decodes as `R` to an error or to the message its flat bytes
/// spell.
fn frame_decodes_as_flat<R: Request>(frame: Frame<'_>) {
    if let Ok(req) = R::decode_frame(frame) {
        prop_assert_eq!(R::decode(&frame.flatten()).unwrap(), req);
    }
}

proptest! {
    #[test]
    fn control_requests_round_trip(control in arb_control(), replica in arb_replica()) {
        round_trips(control);
        round_trips(replica);
    }

    #[test]
    fn split_and_flat_holdings_agree(control in arb_control(), replica in arb_replica()) {
        holdings_agree(control);
        holdings_agree(replica);
    }

    /// Any head, offset and part decode, as a request of either service
    /// or as a reply, to an error or to the message the frame's flat
    /// bytes spell: never a panic, and the payload is handed out, not
    /// allocated.
    #[test]
    fn arbitrary_two_piece_frames_never_panic(
        body in proptest::collection::vec(any::<u8>(), 0..96),
        at in 0usize..128,
        part in proptest::collection::vec(any::<u8>(), 0..64),
        control in proptest::option::of(arb_control()),
        replica in proptest::option::of(arb_replica()),
    ) {
        let part = PayloadPart { at, data: part.into() };
        let mut heads = vec![Bytes::from(body)];
        // The head of a real message makes the deeper paths reachable.
        heads.extend(control.map(|req| req.encode_split().0));
        heads.extend(replica.map(|req| req.encode_split().0));
        for body in &heads {
            let frame = Frame { body, payload: Some(&part) };
            frame_decodes_as_flat::<ControlRequest>(frame);
            frame_decodes_as_flat::<ReplicaRequest>(frame);
            let _ = KoshaReplyFrame::decode_frame(frame);
        }
    }

    #[test]
    fn control_replies_round_trip(reply in prop_oneof![
        Just(KoshaReply::Done),
        (any::<u64>(), any::<u32>(), any::<u64>()).prop_map(|(ino, gen, size)| KoshaReply::Handle {
            fh: Fh { ino, gen },
            attr: WireAttr(Attr { ftype: FileType::Directory, mode: 0o755, uid: 1, gid: 2, size, nlink: 2, atime: 3, mtime: 4, ctime: 5 }),
        }),
        proptest::collection::vec(any::<u64>(), 0..8)
            .prop_map(|v| KoshaReply::Nodes(v.into_iter().map(NodeAddr).collect())),
        (arb_slot_meta(), proptest::collection::vec(arb_item(), 0..4))
            .prop_map(|(record, items)| KoshaReply::Slot { record, items }),
    ]) {
        let frame = ReplyFrame(Ok(reply));
        let bytes = frame.encode();
        prop_assert_eq!(decode_both::<KoshaReplyFrame>(&bytes).unwrap(), frame);
    }

    /// A frame cut short anywhere is an error from both decoders, never
    /// a panic and never a shorter message.
    #[test]
    fn truncated_control_frames_are_rejected(
        control in arb_control(),
        replica in arb_replica(),
        cut in any::<usize>(),
    ) {
        let bytes = control.encode();
        prop_assert!(decode_both::<ControlRequest>(&bytes[..cut % bytes.len()]).is_err());
        let bytes = replica.encode();
        prop_assert!(decode_both::<ReplicaRequest>(&bytes[..cut % bytes.len()]).is_err());
    }

    /// A payload length prefix beyond the codec's limit is refused by
    /// both decoders before anything is allocated for it.
    #[test]
    fn oversized_payload_lengths_are_rejected(
        path in arb_path(),
        len in (64u32 << 20) + 1..=u32::MAX,
        mirrored in any::<bool>(),
    ) {
        let data = Bytes::new();
        let op = ReplicaOp::Write { path, offset: 0, data };
        let claim = |frame: Bytes| {
            let mut frame = frame.to_vec();
            let at = frame.len() - 4;
            frame[at..].copy_from_slice(&len.to_le_bytes());
            frame
        };
        let refused = WireError::BadLength(u64::from(len));
        if mirrored {
            let frame = claim(ReplicaRequest::ReplicaApply { op }.encode());
            prop_assert_eq!(decode_both::<ReplicaRequest>(&frame), Err(refused));
        } else {
            let frame = claim(ControlRequest::Mutate { op }.encode());
            prop_assert_eq!(decode_both::<ControlRequest>(&frame), Err(refused));
        }
    }

    /// A reply that claims more holders than a frame can hold and ends
    /// after the count is refused on the count, as every sequence is;
    /// the largest count the codec accepts runs out of bytes instead,
    /// with `Reader::seq`'s 4 096 slots reserved and not the 3 GiB the
    /// count asks for.
    #[test]
    fn hostile_sequence_counts_are_rejected(count in (64u32 << 20) + 1..=u32::MAX) {
        let claim = |count: u32| {
            let mut frame = ReplyFrame(Ok(KoshaReply::Nodes(Vec::new()))).encode().to_vec();
            let at = frame.len() - 4;
            frame[at..].copy_from_slice(&count.to_le_bytes());
            decode_both::<KoshaReplyFrame>(&frame)
        };
        for count in [count, u32::MAX] {
            prop_assert_eq!(claim(count), Err(WireError::BadLength(u64::from(count))));
        }
        prop_assert_eq!(claim(64 << 20), Err(WireError::Truncated));
    }

    /// Any bytes, and the same bytes behind each request tag of either
    /// service, which arbitrary bytes rarely reach, decode as a request
    /// of either service to an error or a message.
    #[test]
    fn control_decoder_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode_both::<ControlRequest>(&bytes);
        let _ = decode_both::<ReplicaRequest>(&bytes);
        let _ = decode_both::<KoshaReplyFrame>(&bytes);
        for tag in 13u8..=30 {
            let tagged = [&[tag], &bytes[..]].concat();
            let _ = decode_both::<ControlRequest>(&tagged);
            let _ = decode_both::<ReplicaRequest>(&tagged);
        }
    }

    /// The same, behind the tags of the messages a slot travels in,
    /// which arbitrary bytes rarely reach: `MigrateBatch`, `SlotRecord`,
    /// `TransferAnchor` and an `Ok(Slot)` frame, each followed by
    /// anything.
    #[test]
    fn slot_record_decoders_are_total(tail in proptest::collection::vec(any::<u8>(), 0..256)) {
        for tag in [20u8, 28] {
            let _ = decode_both::<ReplicaRequest>(&[&[tag], &tail[..]].concat());
        }
        let _ = decode_both::<ControlRequest>(&[&[29u8], &tail[..]].concat());
        let _ = decode_both::<KoshaReplyFrame>(&[&[0u8, 8], &tail[..]].concat());
        let _ = decode_both::<SlotMeta>(&tail);
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
// `HandleTable` keeps `paths` (handle → path) and `by_path` (path →
// entry: handle, type, location, replica handles) with the handles a
// bijection, no empty entry, and a count of the entries below every
// directory; an exact `forget`, a scan-free `forget_subtree` and a
// chain clear that touches only the chain rely on them. The model is one
// vector and linear scans, so it cannot get an index or a count out of
// step.

use kosha::handles::{HandleTable, Location, PathEntry, VIRTUAL_GEN};
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
    /// A path, with a handle or not, gets a location on a node: a
    /// directory's listing (what a walk caches) or a file's object.
    SetLocation(usize, u64, bool),
    SetReplica(usize, u64),
    /// A `Stale` answer distrusts one path's chain.
    ClearChain(usize),
    /// A demoted anchor's subtree.
    ClearSubtree(usize),
    /// A node fails.
    ClearNode(u64),
    /// A stale handle flushes everything.
    ClearAll,
}

fn arb_table_op() -> impl Strategy<Value = TableOp> {
    let path = 0usize..39;
    prop_oneof![
        (path.clone(), any::<bool>()).prop_map(|(p, dir)| TableOp::Mint(p, dir)),
        path.clone().prop_map(TableOp::Forget),
        path.clone().prop_map(TableOp::ForgetSubtree),
        (path.clone(), path.clone()).prop_map(|(a, b)| TableOp::Rename(a, b)),
        (path.clone(), 1u64..3, any::<bool>()).prop_map(|(p, n, d)| TableOp::SetLocation(p, n, d)),
        (path.clone(), 1u64..3).prop_map(|(p, n)| TableOp::SetReplica(p, n)),
        path.clone().prop_map(TableOp::ClearChain),
        path.prop_map(TableOp::ClearSubtree),
        (1u64..3).prop_map(TableOp::ClearNode),
        Just(TableOp::ClearAll),
    ]
}

struct ModelEntry {
    path: String,
    entry: PathEntry,
}

struct TableModel {
    next: u64,
    entries: Vec<ModelEntry>,
}

fn model_entry(path: &str, vh: Option<u64>, ftype: FileType) -> ModelEntry {
    ModelEntry {
        path: path.into(),
        entry: PathEntry {
            vh,
            ftype,
            loc: None,
            replicas: Vec::new(),
        },
    }
}

/// True while an entry holds a handle or a location.
fn held(e: &PathEntry) -> bool {
    e.vh.is_some() || e.loc.is_some() || !e.replicas.is_empty()
}

impl TableModel {
    fn new() -> Self {
        TableModel {
            next: 2,
            entries: vec![model_entry("/", Some(1), FileType::Directory)],
        }
    }

    /// The entry for `path`, made with `ftype` if there is none.
    fn entry(&mut self, path: &str, ftype: FileType) -> &mut PathEntry {
        if !self.entries.iter().any(|e| e.path == path) {
            self.entries.push(model_entry(path, None, ftype));
        }
        &mut self
            .entries
            .iter_mut()
            .find(|e| e.path == path)
            .unwrap()
            .entry
    }

    /// The entry for `path` as a `ftype`: a changed type keeps only the
    /// handle.
    fn at(&mut self, path: &str, ftype: FileType) -> &mut PathEntry {
        let e = self.entry(path, ftype);
        if e.ftype != ftype {
            *e = PathEntry {
                vh: e.vh,
                ..model_entry(path, None, ftype).entry
            };
        }
        e
    }

    fn mint(&mut self, path: &str, ftype: FileType) -> u64 {
        let next = self.next;
        let vh = *self.at(path, ftype).vh.get_or_insert(next);
        if vh == next {
            self.next += 1;
        }
        vh
    }

    fn forget_subtree(&mut self, path: &str) {
        self.entries
            .retain(|e| e.path != path && !below(&e.path, path));
    }

    fn forget(&mut self, path: &str) {
        let Some(i) = self.entries.iter().position(|e| e.path == path) else {
            return;
        };
        if self.entries.remove(i).entry.ftype == FileType::Directory {
            self.forget_subtree(path);
        }
    }

    fn rename(&mut self, old: &str, new: &str) {
        self.forget_subtree(new);
        self.entries
            .retain(|e| e.entry.vh.is_some() || (e.path != old && !below(&e.path, old)));
        for e in &mut self.entries {
            if e.path == old || below(&e.path, old) {
                e.path = format!("{new}{}", &e.path[old.len()..]);
                e.entry = model_entry(&e.path, e.entry.vh, e.entry.ftype).entry;
            }
        }
    }

    /// Clears the locations of the entries `pick` names and drops those
    /// left empty.
    fn clear(&mut self, pick: impl Fn(&str) -> bool) {
        for e in &mut self.entries {
            if pick(&e.path) {
                e.entry.loc = None;
                e.entry.replicas.clear();
            }
        }
        self.entries.retain(|e| held(&e.entry));
    }

    /// The table holds what the model holds, handle for handle and path
    /// for path, and no path twice.
    fn check(&self, table: &mut HandleTable, paths: &[String]) {
        let mut seen = std::collections::BTreeSet::new();
        for vh in 1..self.next {
            let want = self.entries.iter().find(|e| e.entry.vh == Some(vh));
            let got = table.get(vfh(vh)).map(|(p, e)| (&**p, e));
            assert_eq!(
                got,
                want.map(|e| (e.path.as_str(), &e.entry)),
                "handle {vh}"
            );
            if let Some((p, _)) = got {
                assert!(seen.insert(p.to_string()), "two handles name {p}");
            }
        }
        // Every path's entry, handle or not, holds what the model's does.
        for p in paths {
            let want = self.entries.iter().find(|e| &e.path == p);
            assert_eq!(table.entry(p), want.map(|e| &e.entry), "{p}");
            let dir =
                want.and_then(|e| e.entry.loc.filter(|_| e.entry.ftype == FileType::Directory));
            assert_eq!(table.dir_location(p), dir, "{p}");
            for addr in [NodeAddr(1), NodeAddr(2)] {
                let want = want.and_then(|e| e.entry.replicas.iter().find(|r| r.0 == addr));
                assert_eq!(table.replica_location(addr, p), want.map(|r| r.1), "{p}");
            }
        }
        // The handles lead back to themselves (a miss would mint, and the
        // length below would tell).
        for e in &self.entries {
            if let Some(vh) = e.entry.vh {
                assert_eq!(table.mint(&e.path, e.entry.ftype), vfh(vh), "{}", e.path);
            }
        }
        let handles = self.entries.iter().filter(|e| e.entry.vh.is_some()).count();
        assert_eq!(table.len(), handles);
        // The descendant counts are a recount of the entries, every depth
        // below each directory, and keep no zero.
        let mut recount = std::collections::BTreeMap::new();
        for e in &self.entries {
            let mut p = e.path.clone();
            while let Some(cut) = p.rfind('/').filter(|_| p != "/") {
                p.truncate(cut.max(1));
                *recount.entry(p.clone()).or_insert(0) += 1;
            }
        }
        for (dir, n) in &recount {
            assert_eq!(table.descendants(dir), *n, "below {dir}");
        }
        assert_eq!(table.counted_dirs(), recount.len());
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
        let loc = |node, ino| Location { addr: NodeAddr(node), fh: Fh { ino, gen: 7 } };
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
                TableOp::SetLocation(p, node, dir) => {
                    let loc = loc(node, p as u64);
                    table.set_location(&paths[p], ftype(dir), loc);
                    model.at(&paths[p], ftype(dir)).loc = Some(loc);
                }
                TableOp::SetReplica(p, node) => {
                    let (addr, fh) = (NodeAddr(node), Fh { ino: p as u64, gen: 9 });
                    table.set_replica_location(addr, &paths[p], fh);
                    let e = model.entry(&paths[p], FileType::Regular);
                    match e.replicas.iter_mut().find(|r| r.0 == addr) {
                        Some(r) => r.1 = fh,
                        None => e.replicas.push((addr, fh)),
                    }
                }
                TableOp::ClearChain(p) => {
                    let path = &paths[p];
                    table.clear_chain(path);
                    model.clear(|q| q == "/" || q == path || below(q, path) || below(path, q));
                }
                TableOp::ClearSubtree(p) => {
                    let path = &paths[p];
                    table.clear_subtree(path);
                    model.clear(|q| q == path || below(q, path));
                }
                TableOp::ClearNode(node) => {
                    table.clear_node(NodeAddr(node));
                    for e in &mut model.entries {
                        let e = &mut e.entry;
                        if e.loc.is_some_and(|l| l.addr == NodeAddr(node)) {
                            e.loc = None;
                        }
                        e.replicas.retain(|r| r.0 != NodeAddr(node));
                    }
                    model.entries.retain(|e| held(&e.entry));
                }
                TableOp::ClearAll => {
                    table.clear_all();
                    model.clear(|_| true);
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
    assert_eq!(t.path(src), Some("/a/old"));
    assert!(
        t.get(dst).is_none(),
        "the overwritten file's handle aliases the new one"
    );
    assert_eq!(t.len(), before - 1);
    assert_eq!(t.mint("/a/old", FileType::Regular), src);
    assert_eq!(t.replica_location(NodeAddr(1), "/a/old/below"), None);
}
