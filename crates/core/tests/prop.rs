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
