//! Property tests: every NFS protocol message round-trips the wire
//! exactly, for arbitrary field values, through both decoders (the
//! copying `Reader::new` and the frame-viewing `Reader::over`) and in
//! both holdings (flat, and split into a head and a payload part), and
//! the decoders reject damaged frames without panicking.

use kosha_nfs::messages::{NfsReplyFrame, ReplyFrame, WireDirEntry, WireSetAttr};
use kosha_nfs::{Fh, NfsReply, NfsRequest, NfsStatus};
use kosha_rpc::{Bytes, Frame, PayloadPart, WireError, WireRead, WireWrite};
use kosha_vfs::{Attr, FileType, SetAttr};
use proptest::prelude::*;

fn arb_fh() -> impl Strategy<Value = Fh> {
    (any::<u64>(), any::<u32>()).prop_map(|(ino, gen)| Fh { ino, gen })
}

fn arb_name() -> impl Strategy<Value = String> {
    "[a-zA-Z0-9_.#-]{1,32}"
}

fn arb_ftype() -> impl Strategy<Value = FileType> {
    prop_oneof![
        Just(FileType::Regular),
        Just(FileType::Directory),
        Just(FileType::Symlink),
    ]
}

fn arb_attr() -> impl Strategy<Value = Attr> {
    (
        arb_ftype(),
        0u32..0o10000,
        any::<u32>(),
        any::<u32>(),
        any::<u64>(),
        any::<u32>(),
        (any::<u64>(), any::<u64>(), any::<u64>()),
    )
        .prop_map(|(ftype, mode, uid, gid, size, nlink, (a, m, c))| Attr {
            ftype,
            mode,
            uid,
            gid,
            size,
            nlink,
            atime: a,
            mtime: m,
            ctime: c,
        })
}

fn arb_sattr() -> impl Strategy<Value = SetAttr> {
    (
        proptest::option::of(0u32..0o10000),
        proptest::option::of(any::<u32>()),
        proptest::option::of(any::<u32>()),
        proptest::option::of(any::<u64>()),
        proptest::option::of(any::<u64>()),
        proptest::option::of(any::<u64>()),
    )
        .prop_map(|(mode, uid, gid, size, atime, mtime)| SetAttr {
            mode,
            uid,
            gid,
            size,
            atime,
            mtime,
        })
}

fn arb_request() -> impl Strategy<Value = NfsRequest> {
    prop_oneof![
        Just(NfsRequest::Null),
        Just(NfsRequest::Mount),
        Just(NfsRequest::Fsstat),
        arb_fh().prop_map(|fh| NfsRequest::Getattr { fh }),
        (arb_fh(), arb_sattr()).prop_map(|(fh, s)| NfsRequest::Setattr {
            fh,
            sattr: WireSetAttr(s)
        }),
        (arb_fh(), arb_name()).prop_map(|(dir, name)| NfsRequest::Lookup { dir, name }),
        arb_fh().prop_map(|fh| NfsRequest::Readlink { fh }),
        (arb_fh(), any::<u64>(), any::<u32>()).prop_map(|(fh, offset, count)| NfsRequest::Read {
            fh,
            offset,
            count
        }),
        (
            arb_fh(),
            any::<u64>(),
            proptest::collection::vec(any::<u8>(), 0..256)
        )
            .prop_map(|(fh, offset, data)| NfsRequest::Write {
                fh,
                offset,
                data: data.into(),
            }),
        (
            arb_fh(),
            arb_name(),
            0u32..0o10000,
            any::<u32>(),
            any::<u32>()
        )
            .prop_map(|(dir, name, mode, uid, gid)| NfsRequest::Create {
                dir,
                name,
                mode,
                uid,
                gid
            }),
        (
            arb_fh(),
            arb_name(),
            any::<u64>(),
            0u32..0o10000,
            any::<u32>(),
            any::<u32>()
        )
            .prop_map(
                |(dir, name, size, mode, uid, gid)| NfsRequest::CreateSized {
                    dir,
                    name,
                    size,
                    mode,
                    uid,
                    gid
                }
            ),
        (
            arb_fh(),
            arb_name(),
            0u32..0o10000,
            any::<u32>(),
            any::<u32>()
        )
            .prop_map(|(dir, name, mode, uid, gid)| NfsRequest::Mkdir {
                dir,
                name,
                mode,
                uid,
                gid
            }),
        (
            arb_fh(),
            arb_name(),
            arb_name(),
            0u32..0o10000,
            any::<u32>(),
            any::<u32>()
        )
            .prop_map(|(dir, name, target, mode, uid, gid)| NfsRequest::Symlink {
                dir,
                name,
                target,
                mode,
                uid,
                gid
            }),
        (arb_fh(), arb_name()).prop_map(|(dir, name)| NfsRequest::Remove { dir, name }),
        (arb_fh(), arb_name()).prop_map(|(dir, name)| NfsRequest::Rmdir { dir, name }),
        (arb_fh(), arb_name()).prop_map(|(dir, name)| NfsRequest::RemoveTree { dir, name }),
        (arb_fh(), arb_name(), arb_fh(), arb_name()).prop_map(|(sdir, sname, ddir, dname)| {
            NfsRequest::Rename {
                sdir,
                sname,
                ddir,
                dname,
            }
        }),
        arb_fh().prop_map(|dir| NfsRequest::Readdir { dir }),
        (arb_fh(), any::<u32>(), any::<u32>(), 0u32..8)
            .prop_map(|(fh, uid, gid, want)| NfsRequest::Access { fh, uid, gid, want }),
    ]
}

fn arb_reply() -> impl Strategy<Value = NfsReply> {
    prop_oneof![
        Just(NfsReply::Void),
        arb_fh().prop_map(|fh| NfsReply::Root { fh }),
        arb_attr().prop_map(|a| NfsReply::Attr {
            attr: kosha_nfs::WireAttr(a)
        }),
        (arb_fh(), arb_attr()).prop_map(|(fh, a)| NfsReply::Handle {
            fh,
            attr: kosha_nfs::WireAttr(a)
        }),
        arb_name().prop_map(|target| NfsReply::Target { target }),
        (
            proptest::collection::vec(any::<u8>(), 0..512),
            any::<bool>()
        )
            .prop_map(|(data, eof)| NfsReply::Data {
                data: data.into(),
                eof,
            }),
        any::<u32>().prop_map(|count| NfsReply::Written { count }),
        proptest::collection::vec((arb_name(), arb_fh(), arb_ftype()), 0..16).prop_map(|v| {
            NfsReply::Entries {
                entries: v
                    .into_iter()
                    .map(|(name, fh, ftype)| WireDirEntry { name, fh, ftype })
                    .collect(),
            }
        }),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(capacity, used, free)| {
            NfsReply::Stat {
                capacity,
                used,
                free,
            }
        }),
        (0u32..8).prop_map(|granted| NfsReply::Granted { granted }),
    ]
}

fn arb_status() -> impl Strategy<Value = NfsStatus> {
    prop_oneof![
        Just(NfsStatus::NoEnt),
        Just(NfsStatus::NotDir),
        Just(NfsStatus::IsDir),
        Just(NfsStatus::Exist),
        Just(NfsStatus::NotEmpty),
        Just(NfsStatus::NoSpc),
        Just(NfsStatus::Stale),
        Just(NfsStatus::Inval),
        Just(NfsStatus::NameTooLong),
        Just(NfsStatus::NotSupp),
        Just(NfsStatus::Io),
    ]
}

/// Decodes `bytes` through `Reader::new` and through `Reader::over`,
/// checks that the two agree, and returns what they said.
fn decode_both<T: WireRead + PartialEq + std::fmt::Debug>(bytes: &[u8]) -> Result<T, WireError> {
    let copied = T::decode(bytes);
    let viewed = T::decode_frame(Frame::flat(&Bytes::copy_from_slice(bytes)));
    assert_eq!(copied, viewed);
    copied
}

/// Checks the split holding of `msg` against its flat encoding `flat`:
/// the head and part flatten to `flat` and decode to `msg`, and the part
/// (present exactly when `payload` is) is the message's own buffer.
/// Returns the value decoded from the split frame and the part.
fn check_split<T: WireRead + WireWrite + PartialEq + std::fmt::Debug>(
    msg: &T,
    flat: &Bytes,
    payload: Option<&Bytes>,
) -> (T, Option<PayloadPart>) {
    let (body, part) = msg.encode_split();
    let frame = Frame {
        body: &body,
        payload: part.as_ref(),
    };
    assert_eq!(&frame.flatten(), flat);
    assert_eq!(frame.len(), flat.len());
    let decoded = T::decode_frame(frame).expect("a split frame decodes");
    assert_eq!(&decoded, msg);
    assert_eq!(
        part.as_ref().map(|p| (p.data.as_ptr(), p.data.len())),
        payload.map(|d| (d.as_ptr(), d.len()))
    );
    (decoded, part)
}

/// True if `view` lies inside `frame`'s buffer (or is empty).
fn is_view_of(view: &Bytes, frame: &Bytes) -> bool {
    view.is_empty() || frame.as_ptr_range().contains(&view.as_ptr())
}

proptest! {
    #[test]
    fn requests_round_trip(req in arb_request()) {
        let bytes = req.encode();
        prop_assert_eq!(decode_both::<NfsRequest>(&bytes).unwrap(), req.clone());
        let payload = match &req {
            NfsRequest::Write { data, .. } => Some(data),
            _ => None,
        };
        let (from_split, part) = check_split(&req, &bytes, payload);
        if let NfsRequest::Write { data: handed, .. } = &from_split {
            // Decoding a split frame hands the part out as it is.
            prop_assert_eq!(handed.as_ptr(), part.expect("a write has a part").data.as_ptr());
            let Ok(NfsRequest::Write { data: view, .. }) =
                NfsRequest::decode_frame(Frame::flat(&bytes))
            else {
                panic!("a write decodes to a write");
            };
            prop_assert!(is_view_of(&view, &bytes));
            let Ok(NfsRequest::Write { data: copy, .. }) = NfsRequest::decode(&bytes) else {
                panic!("a write decodes to a write");
            };
            prop_assert!(copy.is_empty() || !is_view_of(&copy, &bytes));
            prop_assert_eq!(view, copy);
        }
    }

    #[test]
    fn reply_frames_round_trip(frame in prop_oneof![
        arb_reply().prop_map(|r| ReplyFrame(Ok(r))),
        arb_status().prop_map(|s| ReplyFrame(Err(s))),
    ]) {
        let bytes = frame.encode();
        prop_assert_eq!(decode_both::<NfsReplyFrame>(&bytes).unwrap(), frame.clone());
        let payload = match &frame {
            ReplyFrame(Ok(NfsReply::Data { data, .. })) => Some(data),
            _ => None,
        };
        let (from_split, part) = check_split(&frame, &bytes, payload);
        if let ReplyFrame(Ok(NfsReply::Data { data, .. })) = &frame {
            let ReplyFrame(Ok(NfsReply::Data { data: handed, .. })) = &from_split else {
                panic!("a data reply decodes to a data reply");
            };
            prop_assert_eq!(handed.as_ptr(), part.expect("a data reply has a part").data.as_ptr());
            let Ok(ReplyFrame(Ok(NfsReply::Data { data: view, .. }))) =
                NfsReplyFrame::decode_frame(Frame::flat(&bytes))
            else {
                panic!("a data reply decodes to a data reply");
            };
            prop_assert!(is_view_of(&view, &bytes));
            prop_assert_eq!(&view, data);
        }
    }

    /// A frame cut short anywhere is an error from both decoders, never
    /// a panic and never a shorter message.
    #[test]
    fn truncated_frames_are_rejected(req in arb_request(), reply in arb_reply(), cut in any::<usize>()) {
        let bytes = req.encode();
        prop_assert!(decode_both::<NfsRequest>(&bytes[..cut % bytes.len()]).is_err());
        let bytes = ReplyFrame(Ok(reply)).encode();
        prop_assert!(decode_both::<NfsReplyFrame>(&bytes[..cut % bytes.len()]).is_err());
    }

    /// A payload length prefix beyond the codec's limit (or beyond the
    /// frame) is refused before anything is allocated for it.
    #[test]
    fn oversized_payload_lengths_are_rejected(fh in arb_fh(), len in (64u32 << 20) + 1..=u32::MAX, tail in 0usize..64) {
        let empty_write = NfsRequest::Write { fh, offset: 0, data: Bytes::new() };
        let mut frame = empty_write.encode().to_vec();
        let at = frame.len() - 4;
        frame[at..].copy_from_slice(&len.to_le_bytes());
        frame.resize(frame.len() + tail, 0xAA);
        prop_assert_eq!(
            decode_both::<NfsRequest>(&frame),
            Err(WireError::BadLength(u64::from(len)))
        );
        let empty_data = ReplyFrame(Ok(NfsReply::Data { data: Bytes::new(), eof: true }));
        let mut frame = empty_data.encode().to_vec();
        let at = frame.len() - 5;
        frame[at..at + 4].copy_from_slice(&len.to_le_bytes());
        prop_assert_eq!(
            decode_both::<NfsReplyFrame>(&frame),
            Err(WireError::BadLength(u64::from(len)))
        );
        // The same prefix in the head of a split frame: refused, whatever
        // the part beside it holds.
        let (head, part) = empty_data.encode_split();
        let part = part.expect("a data reply has a part");
        let mut head = head.to_vec();
        head[part.at - 4..part.at].copy_from_slice(&len.to_le_bytes());
        prop_assert_eq!(
            NfsReplyFrame::decode_frame(Frame { body: &head.into(), payload: Some(&part) }),
            Err(WireError::BadLength(u64::from(len)))
        );
    }

    /// Any head, offset and part decode to an error or to the message
    /// the frame's flat bytes spell: never a panic, and the payload is
    /// handed out, not allocated.
    #[test]
    fn arbitrary_two_piece_frames_never_panic(
        body in proptest::collection::vec(any::<u8>(), 0..96),
        at in 0usize..128,
        part in proptest::collection::vec(any::<u8>(), 0..64),
        seed in proptest::option::of((arb_request(), arb_reply())),
    ) {
        let part = PayloadPart { at, data: part.into() };
        let mut heads = vec![Bytes::from(body)];
        // Heads of real messages make the deeper paths reachable.
        if let Some((req, reply)) = seed {
            heads.push(req.encode_split().0);
            heads.push(ReplyFrame(Ok(reply)).encode_split().0);
        }
        for body in &heads {
            let frame = Frame { body, payload: Some(&part) };
            if let Ok(req) = NfsRequest::decode_frame(frame) {
                prop_assert_eq!(NfsRequest::decode(&frame.flatten()).unwrap(), req);
            }
            if let Ok(reply) = NfsReplyFrame::decode_frame(frame) {
                prop_assert_eq!(NfsReplyFrame::decode(&frame.flatten()).unwrap(), reply);
            }
        }
    }

    /// Decoding arbitrary garbage never panics — it returns an error or
    /// (rarely) parses as some valid message, the same from both decoders.
    #[test]
    fn decoder_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode_both::<NfsRequest>(&bytes);
        let _ = decode_both::<NfsReplyFrame>(&bytes);
    }
}
