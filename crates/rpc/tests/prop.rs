//! Property tests for the wire codec and the simulated transport.

use bytes::Bytes;
use kosha_rpc::{
    Frame, LatencyModel, Network, NodeAddr, PayloadPart, Reader, RpcError, RpcHandler, RpcRequest,
    RpcResponse, ServiceId, ServiceMux, SimNetwork, TraceHeader, WireError, WireRead, WireWrite,
    Writer,
};
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

proptest! {
    /// Any sequence of primitive writes reads back identically.
    #[test]
    fn primitive_sequences_round_trip(values in proptest::collection::vec(
        prop_oneof![
            any::<u8>().prop_map(|v| ("u8", v as u128)),
            any::<u16>().prop_map(|v| ("u16", v as u128)),
            any::<u32>().prop_map(|v| ("u32", v as u128)),
            any::<u64>().prop_map(|v| ("u64", v as u128)),
            any::<u128>().prop_map(|v| ("u128", v)),
            any::<bool>().prop_map(|v| ("bool", v as u128)),
        ],
        0..40,
    )) {
        let mut w = Writer::new();
        for (kind, v) in &values {
            match *kind {
                "u8" => w.u8(*v as u8),
                "u16" => w.u16(*v as u16),
                "u32" => w.u32(*v as u32),
                "u64" => w.u64(*v as u64),
                "u128" => w.u128(*v),
                _ => w.boolean(*v != 0),
            }
        }
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        for (kind, v) in &values {
            match *kind {
                "u8" => prop_assert_eq!(r.u8().unwrap() as u128, *v),
                "u16" => prop_assert_eq!(r.u16().unwrap() as u128, *v),
                "u32" => prop_assert_eq!(r.u32().unwrap() as u128, *v),
                "u64" => prop_assert_eq!(r.u64().unwrap() as u128, *v),
                "u128" => prop_assert_eq!(r.u128().unwrap(), *v),
                _ => prop_assert_eq!(r.boolean().unwrap(), *v != 0),
            }
        }
        r.expect_end().unwrap();
    }

    /// Strings and byte blobs survive together with options and
    /// sequences.
    #[test]
    fn composite_round_trip(
        s1 in "\\PC{0,40}",
        blob in proptest::collection::vec(any::<u8>(), 0..200),
        opt in proptest::option::of(any::<u64>()),
        seq in proptest::collection::vec(any::<u32>(), 0..20),
    ) {
        let mut w = Writer::new();
        w.string(&s1);
        w.bytes(&blob);
        w.option(&opt);
        w.seq(&seq);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        prop_assert_eq!(r.string().unwrap(), s1);
        prop_assert_eq!(r.bytes().unwrap(), blob);
        prop_assert_eq!(r.option::<u64>().unwrap(), opt);
        prop_assert_eq!(r.seq::<u32>().unwrap(), seq);
    }

    /// The codecs written by hand in `wire.rs` and `network.rs`, through
    /// the traits by which a declared message reaches them: every value
    /// reads back, a `Vec<u8>` is a byte string, and any other `Vec` is
    /// `Writer::seq`.
    #[test]
    fn trait_impls_round_trip(
        ints in (any::<u8>(), any::<u16>(), any::<u32>(), any::<u64>(), any::<u128>()),
        flag in any::<bool>(),
        s in "\\PC{0,20}",
        blob in proptest::collection::vec(any::<u8>(), 0..64),
        opt in proptest::option::of(any::<u64>()),
        pairs in proptest::collection::vec(("[a-z]{0,8}", any::<u32>()), 0..8),
        id in any::<u128>(),
        addr in any::<u64>(),
    ) {
        fn rt<T: WireWrite + WireRead + PartialEq + std::fmt::Debug>(v: T) -> Bytes {
            let bytes = v.encode();
            assert_eq!(T::decode(&bytes).unwrap(), v);
            bytes
        }
        rt(((ints.0, ints.1), (ints.2, (ints.3, ints.4))));
        rt((flag, s));
        rt(opt);
        rt(kosha_id::Id(id));
        rt(NodeAddr(addr));
        rt(Bytes::from(blob.clone()));
        let mut w = Writer::new();
        w.bytes(&blob);
        prop_assert_eq!(rt(blob), w.finish());
        let mut w = Writer::new();
        w.seq(&pairs);
        prop_assert_eq!(rt(pairs), w.finish());
    }

    /// Decoding random bytes never panics.
    #[test]
    fn reader_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        let mut r = Reader::new(&bytes);
        let _ = r.string();
        let mut r = Reader::new(&bytes);
        let _ = r.seq::<u64>();
        let mut r = Reader::new(&bytes);
        let _ = r.option::<u128>();
        let _ = ServiceId::decode(&bytes);
    }
}

fn service_strategy() -> impl Strategy<Value = ServiceId> {
    prop_oneof![
        Just(ServiceId::Pastry),
        Just(ServiceId::Nfs),
        Just(ServiceId::Kosha),
        Just(ServiceId::KoshaFs),
        Just(ServiceId::KoshaReplica),
    ]
}

proptest! {
    /// Request frames round-trip through the wire codec, traced or not,
    /// and the encoded length always matches `wire_size`.
    #[test]
    fn request_frames_round_trip(
        service in service_strategy(),
        body in proptest::collection::vec(any::<u8>(), 0..256),
        trace in proptest::option::of((1u64..=u64::MAX, 1u64..=u64::MAX)),
    ) {
        let req = RpcRequest {
            service,
            trace: trace.map(|(t, s)| TraceHeader {
                trace_id: t,
                span_id: s,
            }),
            body: Bytes::from(body),
            payload: None,
        };
        let frame = req.encode();
        prop_assert_eq!(frame.len(), req.wire_size());
        let back = RpcRequest::decode(&frame).unwrap();
        prop_assert_eq!(back.service, req.service);
        prop_assert_eq!(back.trace, req.trace);
        prop_assert_eq!(&back.body[..], &req.body[..]);
    }

    /// Old-format frames (raw service tag + body, no trace header) decode
    /// against the new codec: mixed-version clusters interoperate.
    #[test]
    fn legacy_frames_decode_against_new_codec(
        service in service_strategy(),
        body in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let mut w = Writer::new();
        service.write(&mut w);
        w.bytes(&body);
        let legacy = w.finish();
        let back = RpcRequest::decode(&legacy).unwrap();
        prop_assert_eq!(back.service, service);
        prop_assert_eq!(back.trace, None);
        prop_assert_eq!(&back.body[..], &body[..]);
        // And an untraced request re-encodes to the exact legacy bytes.
        prop_assert_eq!(back.encode(), legacy);
    }

    /// Decoding arbitrary request frames never panics.
    #[test]
    fn request_decode_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = RpcRequest::decode(&bytes);
    }
}

/// A message with fields on both sides of a payload and further
/// payloads after it, like a `ReplicaApplyBatch` of several WRITEs.
#[derive(Debug, Clone, PartialEq)]
struct Block {
    name: String,
    data: Bytes,
    eof: bool,
    more: Vec<Bytes>,
}

impl WireWrite for Block {
    fn write(&self, w: &mut Writer) {
        w.string(&self.name);
        w.payload(&self.data);
        w.boolean(self.eof);
        w.u32(self.more.len() as u32);
        for m in &self.more {
            w.payload(m);
        }
    }
}

impl WireRead for Block {
    fn read(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let name = r.string()?;
        let data = r.payload()?;
        let eof = r.boolean()?;
        let more = (0..r.u32()?)
            .map(|_| r.payload())
            .collect::<Result<_, _>>()?;
        Ok(Block {
            name,
            data,
            eof,
            more,
        })
    }
}

fn arb_block() -> impl Strategy<Value = Block> {
    let blob = || proptest::collection::vec(any::<u8>(), 0..200).prop_map(Bytes::from);
    (
        "[a-z]{0,12}",
        blob(),
        any::<bool>(),
        proptest::collection::vec(blob(), 0..3),
    )
        .prop_map(|(name, data, eof, more)| Block {
            name,
            data,
            eof,
            more,
        })
}

/// Records the body it was handed; implements `handle` only, like the
/// benchmark's wrappers.
#[derive(Default)]
struct Recorder(Mutex<Vec<u8>>);

impl RpcHandler for Recorder {
    fn handle(&self, _from: NodeAddr, body: &[u8]) -> Result<RpcResponse, RpcError> {
        *self.0.lock().unwrap() = body.to_vec();
        Ok(RpcResponse::new(&0u8))
    }
}

proptest! {
    /// The two holdings of one message: the split encoding flattens to
    /// the flat one, both decode to the message, a frame gathers exactly
    /// the first payload, and decoding a split frame hands that part out
    /// as it is while later payloads are views of the head.
    #[test]
    fn split_and_flat_holdings_agree(msg in arb_block()) {
        let flat = msg.encode();
        let (body, part) = msg.encode_split();
        let part = part.expect("a block has a payload field");
        prop_assert_eq!(part.data.as_ptr(), msg.data.as_ptr());
        prop_assert_eq!(part.data.len(), msg.data.len());
        let frame = Frame { body: &body, payload: Some(&part) };
        prop_assert_eq!(frame.len(), flat.len());
        prop_assert_eq!(&frame.flatten(), &flat);

        let from_split = Block::decode_frame(frame).unwrap();
        prop_assert_eq!(&from_split, &msg);
        prop_assert_eq!(&Block::decode_frame(Frame::flat(&flat)).unwrap(), &msg);
        prop_assert_eq!(&Block::decode(&flat).unwrap(), &msg);
        prop_assert_eq!(from_split.data.as_ptr(), part.data.as_ptr());
        for m in from_split.more.iter().filter(|m| !m.is_empty()) {
            prop_assert!(body.as_ptr_range().contains(&m.as_ptr()));
        }

        // Requests and responses built either way are the same bytes.
        let split = RpcRequest::split(ServiceId::Nfs, &msg);
        let whole = RpcRequest::new(ServiceId::Nfs, &msg);
        prop_assert!(split.payload.is_some() && whole.payload.is_none());
        prop_assert_eq!(split.wire_size(), whole.wire_size());
        prop_assert_eq!(split.encode(), whole.encode());
        prop_assert_eq!(&whole.body, &flat);
        let reply = RpcResponse::split(&msg);
        prop_assert_eq!(reply.wire_size(), RpcResponse::new(&msg).wire_size());
        prop_assert_eq!(reply.decode::<Block>().unwrap(), msg);
    }

    /// A message without a payload field has no part, split or not.
    #[test]
    fn a_message_without_a_payload_has_one_holding(v in any::<u64>(), s in "[a-z]{0,20}") {
        let msg = (v, s);
        let (body, part) = msg.encode_split();
        prop_assert!(part.is_none());
        prop_assert_eq!(body, msg.encode());
    }

    /// Any head, offset and part decode to an error or a value: no panic,
    /// and nothing is allocated for a payload (a part is handed out, not
    /// copied, and only under a prefix that is its length).
    #[test]
    fn arbitrary_two_piece_frames_never_panic(
        body in proptest::collection::vec(any::<u8>(), 0..96),
        at in 0usize..128,
        part in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let body = Bytes::from(body);
        let part = PayloadPart { at, data: Bytes::from(part) };
        let frame = Frame { body: &body, payload: Some(&part) };
        if let Ok(block) = Block::decode_frame(frame) {
            // The part was consumed, where it said it belonged.
            prop_assert_eq!(block.data.as_ptr(), part.data.as_ptr());
            prop_assert_eq!(&Block::decode(&frame.flatten()).unwrap(), &block);
        }
        let _ = frame.flatten();
    }

    /// A valid split frame with its part moved, resized or mislabelled
    /// does not decode to a message its bytes do not spell.
    #[test]
    fn a_misplaced_or_mislabelled_part_is_rejected(
        msg in arb_block(),
        shift in 1usize..64,
        grow in 1usize..8,
        huge in (64u32 << 20) + 1..=u32::MAX,
    ) {
        let (body, part) = msg.encode_split();
        let part = part.expect("a block has a payload field");
        let decode = |body: &Bytes, part: &PayloadPart| {
            Block::decode_frame(Frame { body, payload: Some(part) })
        };
        // Outside the head it can never be reached; elsewhere it is an
        // error unless it lands on another payload field of its length,
        // and then the value is that of the frame's own flattening.
        let outside = PayloadPart { at: body.len() + shift, data: part.data.clone() };
        prop_assert!(decode(&body, &outside).is_err());
        for at in [part.at + shift, part.at.saturating_sub(shift)] {
            let moved = PayloadPart { at, data: part.data.clone() };
            if let Ok(block) = decode(&body, &moved) {
                let flat = Frame { body: &body, payload: Some(&moved) }.flatten();
                prop_assert_eq!(Block::decode(&flat).unwrap(), block);
            }
        }
        let resized = PayloadPart {
            at: part.at,
            data: Bytes::from(vec![0u8; part.data.len() + grow]),
        };
        prop_assert_eq!(
            decode(&body, &resized),
            Err(WireError::BadLength(part.data.len() as u64))
        );
        // A prefix past the codec's limit is refused as in a flat frame.
        let mut head = body.to_vec();
        head[part.at - 4..part.at].copy_from_slice(&huge.to_le_bytes());
        prop_assert_eq!(
            decode(&Bytes::from(head), &part),
            Err(WireError::BadLength(u64::from(huge)))
        );
        // A head with no payload field leaves the part stray.
        let stray = PayloadPart { at: 4, data: part.data.clone() };
        prop_assert_eq!(
            u32::decode_frame(Frame { body: &7u32.encode(), payload: Some(&stray) }),
            Err(WireError::StrayPayload(4))
        );
    }

    /// A handler that implements only `handle(&[u8])` receives exactly
    /// the flat encoding behind `ServiceMux::dispatch`, whichever way the
    /// request holds it.
    #[test]
    fn a_handle_only_handler_receives_the_flat_bytes(msg in arb_block()) {
        let recorder = Arc::new(Recorder::default());
        let mux = ServiceMux::new();
        mux.register(ServiceId::Nfs, recorder.clone());
        for req in [
            RpcRequest::split(ServiceId::Nfs, &msg),
            RpcRequest::new(ServiceId::Nfs, &msg),
        ] {
            mux.dispatch(NodeAddr(1), &req).unwrap();
            prop_assert_eq!(&recorder.0.lock().unwrap()[..], &msg.encode()[..]);
        }
    }
}

struct Echo;
impl RpcHandler for Echo {
    fn handle(&self, _from: NodeAddr, body: &[u8]) -> Result<RpcResponse, RpcError> {
        Ok(RpcResponse {
            body: Bytes::copy_from_slice(body),
            payload: None,
        })
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Transport invariant: calls to live nodes always succeed, calls to
    /// failed/unknown nodes always fail, and recovery restores service —
    /// for arbitrary interleavings of failures and recoveries.
    #[test]
    fn simnet_failure_semantics(events in proptest::collection::vec(
        (0u64..6, any::<bool>()), // (node, fail?=true / recover?=false)
        0..30,
    )) {
        let net = SimNetwork::new(LatencyModel::zero());
        for a in 0..6u64 {
            let mux = Arc::new(ServiceMux::new());
            mux.register(ServiceId::Nfs, Arc::new(Echo));
            net.attach(NodeAddr(a), mux);
        }
        let mut down = [false; 6];
        for (node, fail) in events {
            if fail {
                net.fail_node(NodeAddr(node));
                down[node as usize] = true;
            } else {
                net.recover_node(NodeAddr(node));
                down[node as usize] = false;
            }
            // Probe every node after every event.
            for a in 0..6u64 {
                let req = RpcRequest::new(ServiceId::Nfs, &a);
                let result = net.call(NodeAddr(0), NodeAddr(a), req);
                if down[a as usize] {
                    prop_assert!(matches!(result, Err(RpcError::Unreachable(_))));
                } else {
                    prop_assert_eq!(result.unwrap().decode::<u64>().unwrap(), a);
                }
                prop_assert_eq!(net.is_up(NodeAddr(a)), !down[a as usize]);
            }
        }
    }
}
