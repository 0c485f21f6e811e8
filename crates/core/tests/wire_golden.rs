//! Golden bytes of the wire format.
//!
//! One fixed value of every variant of every message type, and of every
//! type whose codec is written by hand, is encoded with `encode()`; the
//! concatenation per type is pinned below as hex. The round-trip tests
//! elsewhere pass a change that moves a tag or swaps two fields on both
//! sides at once; this test does not. Same-typed neighbours carry
//! different values so that swapping them shows.
//!
//! `MigrateKind` and `NfsStatus` are pinned through the types that carry
//! them (`MigrateItem`, the reply frames).

use kosha::control::{
    AuditEntry, KoshaReply, KoshaReplyFrame, KoshaRequest, MigrateItem, MigrateKind, ReplicaOp,
};
use kosha_id::Id;
use kosha_nfs::messages::{NfsReplyFrame, WireAttr, WireDirEntry, WirePathNode, WireSetAttr};
use kosha_nfs::{Fh, NfsReply, NfsRequest, NfsStatus};
use kosha_pastry::{NodeInfo, PastryReply, PastryRequest};
use kosha_rpc::{Bytes, NodeAddr, RpcRequest, ServiceId, TraceHeader, WireWrite};
use kosha_vfs::{Attr, FileType, SetAttr};

/// Hex of the concatenated encodings of `values`.
fn cat<T: WireWrite>(values: &[T]) -> String {
    values
        .iter()
        .flat_map(|v| v.encode().to_vec())
        .map(|b| format!("{b:02x}"))
        .collect()
}

const FH: Fh = Fh {
    ino: 0x0102_0304_0506_0708,
    gen: 0x0a0b_0c0d,
};

fn attr(ftype: FileType) -> WireAttr {
    WireAttr(Attr {
        ftype,
        mode: 0o644,
        uid: 11,
        gid: 12,
        size: 13,
        nlink: 14,
        atime: 15,
        mtime: 16,
        ctime: 17,
    })
}

fn sattr() -> WireSetAttr {
    WireSetAttr(SetAttr {
        mode: Some(0o600),
        uid: None,
        gid: Some(22),
        size: Some(23),
        atime: None,
        mtime: Some(25),
    })
}

fn item(kind: MigrateKind) -> MigrateItem {
    MigrateItem {
        rel_path: "d/f".into(),
        kind,
        mode: 0o755,
        uid: 31,
        gid: 32,
    }
}

fn items() -> Vec<MigrateItem> {
    vec![
        item(MigrateKind::Dir),
        item(MigrateKind::Bytes(vec![1, 2, 3].into())),
        item(MigrateKind::Sparse(1 << 40)),
        item(MigrateKind::Symlink {
            target: "t#1".into(),
        }),
    ]
}

fn audit_entries() -> Vec<AuditEntry> {
    vec![
        AuditEntry {
            slot: "@00d4c05e3b0b08e1".into(),
            path: "/a".into(),
            replica: false,
            digest: "da39a3ee5e6b4b0d3255bfef95601890afd80709".into(),
            bytes: 4096,
            files: 12,
            lag_marker: true,
            migrating: false,
            hot: false,
        },
        AuditEntry {
            slot: "@1".into(),
            path: String::new(),
            replica: true,
            digest: "b6".into(),
            bytes: 1,
            files: 2,
            lag_marker: false,
            migrating: true,
            hot: true,
        },
    ]
}

fn replica_ops() -> Vec<ReplicaOp> {
    vec![
        ReplicaOp::Mkdir {
            path: "/a/d".into(),
        },
        ReplicaOp::Create {
            path: "/a/f".into(),
            mode: 0o644,
            uid: 1,
            gid: 2,
            size: Some(64),
        },
        ReplicaOp::Symlink {
            path: "/a/l".into(),
            target: "t#1".into(),
            mode: 0o1777,
            uid: 3,
            gid: 4,
        },
        ReplicaOp::Write {
            path: "/a/f".into(),
            offset: 5,
            data: Bytes::from(vec![9, 8, 7]),
        },
        ReplicaOp::SetAttr {
            path: "/a/f".into(),
            sattr: sattr(),
        },
        ReplicaOp::Remove {
            path: "/a/f".into(),
        },
        ReplicaOp::Rmdir {
            path: "/a/d".into(),
        },
        ReplicaOp::RemoveSlot {
            anchor: "/a".into(),
        },
        ReplicaOp::Rename {
            from: "/a/x".into(),
            to: "/a/y".into(),
        },
        ReplicaOp::RenameSlot {
            from: "/a".into(),
            to: "/b".into(),
        },
        ReplicaOp::LagMark {
            anchor: "/a".into(),
            bytes: 4096,
        },
    ]
}

fn kosha_requests() -> Vec<KoshaRequest> {
    vec![
        KoshaRequest::CreateFile {
            path: "/a/f".into(),
            mode: 0o644,
            uid: 1,
            gid: 2,
            size: Some(100),
        },
        KoshaRequest::MkdirLocal {
            path: "/a/b/c".into(),
            mode: 0o755,
            uid: 3,
            gid: 4,
        },
        KoshaRequest::MkdirAnchor {
            path: "/a".into(),
            routing_name: "a#77".into(),
            mode: 0o750,
            uid: 5,
            gid: 6,
        },
        KoshaRequest::PlaceLink {
            path: "/a".into(),
            target: "a#77".into(),
            uid: 7,
            gid: 8,
        },
        KoshaRequest::SymlinkFile {
            path: "/a/l".into(),
            target: "whatever".into(),
            uid: 9,
            gid: 10,
        },
        KoshaRequest::Write {
            path: "/a/f".into(),
            offset: 9,
            data: Bytes::from(vec![1, 2]),
        },
        KoshaRequest::SetAttr {
            path: "/a/f".into(),
            sattr: sattr(),
        },
        KoshaRequest::Remove {
            path: "/a/f".into(),
        },
        KoshaRequest::Rmdir {
            path: "/a/d".into(),
        },
        KoshaRequest::RmdirAnchor { path: "/a".into() },
        KoshaRequest::RemoveLink { path: "/b".into() },
        KoshaRequest::RenameLocal {
            from: "/a/x".into(),
            to: "/a/y".into(),
        },
        KoshaRequest::RenameAnchorDir {
            from: "/a".into(),
            to: "/b".into(),
        },
        KoshaRequest::EnsureAnchor {
            path: "/a".into(),
            routing: "a#3".into(),
        },
        KoshaRequest::StoreStats,
        KoshaRequest::BeginTransfer { path: "/a".into() },
        KoshaRequest::TransferPut {
            path: "/a".into(),
            item: item(MigrateKind::Bytes(vec![7; 4].into())),
        },
        KoshaRequest::CommitTransfer {
            path: "/a".into(),
            routing_name: "a".into(),
        },
        KoshaRequest::ListAnchors,
        KoshaRequest::ReplicaTargets { path: "/a".into() },
        KoshaRequest::MigrateBatch {
            path: "/a".into(),
            items: items(),
        },
        KoshaRequest::ReplicaApply {
            op: ReplicaOp::LagMark {
                anchor: "/a".into(),
                bytes: 0,
            },
        },
        KoshaRequest::ReplicaApplyBatch { ops: replica_ops() },
        KoshaRequest::Flush {
            path: "/a/f".into(),
        },
        KoshaRequest::AuditScan,
        KoshaRequest::ReplicaTargetsBySlot {
            slot: "@00c0ffee00c0ffee".into(),
            holder: 7,
        },
        KoshaRequest::HotReplicaPush {
            anchor: "/a".into(),
            routing: "a#2".into(),
            path: "/a/hot".into(),
            seq: 17,
            expires_nanos: 9_000_000_000,
            item: item(MigrateKind::Sparse(5)),
        },
        KoshaRequest::HotReplicaDrop {
            anchor: "/a".into(),
            path: "/a/hot".into(),
        },
    ]
}

fn kosha_replies() -> Vec<KoshaReply> {
    vec![
        KoshaReply::Done,
        KoshaReply::Handle {
            fh: FH,
            attr: attr(FileType::Directory),
        },
        KoshaReply::DoneBool(true),
        KoshaReply::Stats {
            capacity: 10,
            used: 3,
            free: 7,
        },
        KoshaReply::Anchors(vec![
            ("/a".into(), "a#1".into()),
            ("/b/c".into(), "c".into()),
        ]),
        KoshaReply::Nodes(vec![NodeAddr(3), NodeAddr(9)]),
        KoshaReply::Audit(audit_entries()),
    ]
}

const STATUSES: [NfsStatus; 11] = [
    NfsStatus::NoEnt,
    NfsStatus::NotDir,
    NfsStatus::IsDir,
    NfsStatus::Exist,
    NfsStatus::NotEmpty,
    NfsStatus::NoSpc,
    NfsStatus::Stale,
    NfsStatus::Inval,
    NfsStatus::NameTooLong,
    NfsStatus::NotSupp,
    NfsStatus::Io,
];

fn nfs_requests() -> Vec<NfsRequest> {
    let other = Fh { ino: 99, gen: 98 };
    vec![
        NfsRequest::Null,
        NfsRequest::Mount,
        NfsRequest::Getattr { fh: FH },
        NfsRequest::Setattr {
            fh: FH,
            sattr: sattr(),
        },
        NfsRequest::Lookup {
            dir: FH,
            name: "x".into(),
        },
        NfsRequest::Readlink { fh: FH },
        NfsRequest::Access {
            fh: FH,
            uid: 10,
            gid: 20,
            want: 0x7,
        },
        NfsRequest::Read {
            fh: FH,
            offset: 5,
            count: 100,
        },
        NfsRequest::Write {
            fh: FH,
            offset: 6,
            data: Bytes::from(vec![1, 2, 3]),
        },
        NfsRequest::Create {
            dir: FH,
            name: "f".into(),
            mode: 0o644,
            uid: 1,
            gid: 2,
        },
        NfsRequest::CreateSized {
            dir: FH,
            name: "s".into(),
            size: 1 << 30,
            mode: 0o640,
            uid: 3,
            gid: 4,
        },
        NfsRequest::Mkdir {
            dir: FH,
            name: "d".into(),
            mode: 0o755,
            uid: 5,
            gid: 6,
        },
        NfsRequest::Symlink {
            dir: FH,
            name: "l".into(),
            target: "t#9".into(),
            mode: 0o1777,
            uid: 7,
            gid: 8,
        },
        NfsRequest::Remove {
            dir: FH,
            name: "f".into(),
        },
        NfsRequest::Rmdir {
            dir: FH,
            name: "d".into(),
        },
        NfsRequest::RemoveTree {
            dir: FH,
            name: "t".into(),
        },
        NfsRequest::Rename {
            sdir: FH,
            sname: "a".into(),
            ddir: other,
            dname: "b".into(),
        },
        NfsRequest::Readdir { dir: FH },
        NfsRequest::Fsstat,
        NfsRequest::LookupPath {
            dir: FH,
            path: "a/b/c".into(),
        },
        NfsRequest::Commit { fh: FH },
    ]
}

fn path_nodes() -> Vec<WirePathNode> {
    vec![
        WirePathNode {
            fh: FH,
            attr: attr(FileType::Directory),
            link_target: None,
        },
        WirePathNode {
            fh: FH,
            attr: attr(FileType::Symlink),
            link_target: Some("@1234#5".into()),
        },
    ]
}

fn dir_entries() -> Vec<WireDirEntry> {
    [
        ("r", FileType::Regular),
        ("d", FileType::Directory),
        ("l", FileType::Symlink),
    ]
    .into_iter()
    .map(|(name, ftype)| WireDirEntry {
        name: name.into(),
        fh: FH,
        ftype,
    })
    .collect()
}

fn nfs_replies() -> Vec<NfsReply> {
    vec![
        NfsReply::Void,
        NfsReply::Root { fh: FH },
        NfsReply::Attr {
            attr: attr(FileType::Regular),
        },
        NfsReply::Handle {
            fh: FH,
            attr: attr(FileType::Symlink),
        },
        NfsReply::Target {
            target: "x#1".into(),
        },
        NfsReply::Data {
            data: Bytes::from(vec![9; 5]),
            eof: true,
        },
        NfsReply::Written { count: 10 },
        NfsReply::Entries {
            entries: dir_entries(),
        },
        NfsReply::Granted { granted: 0x5 },
        NfsReply::Stat {
            capacity: 100,
            used: 10,
            free: 90,
        },
        NfsReply::PathNodes {
            nodes: path_nodes(),
        },
    ]
}

fn node(id: u128, addr: u64) -> NodeInfo {
    NodeInfo {
        id: Id(id),
        addr: NodeAddr(addr),
    }
}

fn pastry_requests() -> Vec<PastryRequest> {
    vec![
        PastryRequest::NextHop {
            key: Id(42),
            exclude: vec![NodeAddr(1), NodeAddr(9)],
        },
        PastryRequest::GetRow { row: 7 },
        PastryRequest::GetLeafSet,
        PastryRequest::Announce { node: node(5, 3) },
        PastryRequest::Depart { node: node(6, 4) },
        PastryRequest::Ping,
    ]
}

fn pastry_replies() -> Vec<PastryReply> {
    vec![
        PastryReply::NextHop {
            next: Some(node(1, 2)),
            owner: false,
        },
        PastryReply::NextHop {
            next: None,
            owner: true,
        },
        PastryReply::Row {
            entries: vec![node(1, 2), node(3, 4)],
        },
        PastryReply::LeafSet {
            me: node(9, 9),
            members: vec![node(1, 2)],
        },
        PastryReply::Ack,
        PastryReply::Pong { node: node(8, 7) },
    ]
}

fn rpc_requests() -> Vec<RpcRequest> {
    let write = NfsRequest::Write {
        fh: FH,
        offset: 0,
        data: Bytes::from(vec![4, 5]),
    };
    let traced = |mut req: RpcRequest| {
        req.trace = Some(TraceHeader {
            trace_id: 0x1111,
            span_id: 0x2222,
        });
        req
    };
    vec![
        // The legacy layout, flat and split, and the traced layout.
        RpcRequest::new(ServiceId::Nfs, &write),
        RpcRequest::split(ServiceId::KoshaFs, &write),
        traced(RpcRequest::new(ServiceId::Pastry, &PastryRequest::Ping)),
        traced(RpcRequest::split(ServiceId::KoshaReplica, &write)),
    ]
}

/// The primitives, `Option`, tuple and `Id` impls of `wire.rs`.
fn primitives() -> String {
    [
        cat(&[0xa1u8]),
        cat(&[0xb1b2u16]),
        cat(&[0xc1c2_c3c4u32]),
        cat(&[0xd1d2_d3d4_d5d6_d7d8u64]),
        cat(&[0xe1e2_e3e4_e5e6_e7e8_e9ea_ebec_edee_eff0u128]),
        cat(&[false, true]),
        cat(&["héllo".to_string(), String::new()]),
        cat(&[vec![1u8, 2, 3], Vec::new()]),
        cat(&[Some(7u32), None]),
        cat(&[("k".to_string(), 9u64)]),
        cat(&[Id(0x0123_4567_89ab_cdef_0011_2233_4455_6677)]),
    ]
    .concat()
}

/// What the wire looked like before any message was declared: the
/// expectations below were generated from the hand-written codecs and
/// must not be edited by a change that claims to move no byte.
const GOLDEN: [(&str, &str); 22] = [
    ("primitives", "a1b2b1c4c3c2c1d8d7d6d5d4d3d2d1f0efeeedecebeae9e8e7e6e5e4e3e2e100010600000068c3a96c6c6f000000000300000001020300000000010700000000010000006b09000000000000007766554433221100efcdab8967452301"),
    ("NodeAddr", "0807060504030201"),
    ("ServiceId", "0102030405"),
    ("TraceHeader", "11110000000000002222000000000000"),
    ("RpcRequest", "021b0000000708070605040302010d0c0b0a0000000000000000020000000405041b0000000708070605040302010d0c0b0a00000000000000000200000004057e01011111000000000000222200000000000001000000057e0105111100000000000022220000000000001b0000000708070605040302010d0c0b0a0000000000000000020000000405"),
    ("Fh", "08070605040302010d0c0b0a"),
    ("WireAttr", "00a40100000b0000000c0000000d000000000000000e0000000f000000000000001000000000000000110000000000000001a40100000b0000000c0000000d000000000000000e0000000f000000000000001000000000000000110000000000000002a40100000b0000000c0000000d000000000000000e0000000f0000000000000010000000000000001100000000000000"),
    ("WireSetAttr", "018001000000011600000001170000000000000000011900000000000000000000000000"),
    ("WireDirEntry", "010000007208070605040302010d0c0b0a00010000006408070605040302010d0c0b0a01010000006c08070605040302010d0c0b0a02"),
    ("WirePathNode", "08070605040302010d0c0b0a01a40100000b0000000c0000000d000000000000000e0000000f00000000000000100000000000000011000000000000000008070605040302010d0c0b0a02a40100000b0000000c0000000d000000000000000e0000000f0000000000000010000000000000001100000000000000010700000040313233342335"),
    ("NfsRequest", "00010208070605040302010d0c0b0a0308070605040302010d0c0b0a0180010000000116000000011700000000000000000119000000000000000408070605040302010d0c0b0a01000000780508070605040302010d0c0b0a1208070605040302010d0c0b0a0a00000014000000070000000608070605040302010d0c0b0a0500000000000000640000000708070605040302010d0c0b0a0600000000000000030000000102030808070605040302010d0c0b0a0100000066a401000001000000020000000908070605040302010d0c0b0a01000000730000004000000000a001000003000000040000000a08070605040302010d0c0b0a0100000064ed01000005000000060000000b08070605040302010d0c0b0a010000006c03000000742339ff03000007000000080000000c08070605040302010d0c0b0a01000000660d08070605040302010d0c0b0a01000000640e08070605040302010d0c0b0a01000000740f08070605040302010d0c0b0a010000006163000000000000006200000001000000621008070605040302010d0c0b0a111308070605040302010d0c0b0a05000000612f622f631408070605040302010d0c0b0a"),
    ("NfsReply", "000108070605040302010d0c0b0a0200a40100000b0000000c0000000d000000000000000e0000000f00000000000000100000000000000011000000000000000308070605040302010d0c0b0a02a40100000b0000000c0000000d000000000000000e0000000f000000000000001000000000000000110000000000000004030000007823310505000000090909090901060a0000000703000000010000007208070605040302010d0c0b0a00010000006408070605040302010d0c0b0a01010000006c08070605040302010d0c0b0a0209050000000864000000000000000a000000000000005a000000000000000a0200000008070605040302010d0c0b0a01a40100000b0000000c0000000d000000000000000e0000000f00000000000000100000000000000011000000000000000008070605040302010d0c0b0a02a40100000b0000000c0000000d000000000000000e0000000f0000000000000010000000000000001100000000000000010700000040313233342335"),
    ("NfsReplyFrame", "0006030000000102030405060708090a0b"),
    ("NodeInfo", "cdab00000000000000000000000000003412000000000000"),
    ("PastryRequest", "002a0000000000000000000000000000000200000001000000000000000900000000000000010700000002030500000000000000000000000000000003000000000000000406000000000000000000000000000000040000000000000005"),
    ("PastryReply", "000101000000000000000000000000000000020000000000000000000001010200000001000000000000000000000000000000020000000000000003000000000000000000000000000000040000000000000002090000000000000000000000000000000900000000000000010000000100000000000000000000000000000002000000000000000304080000000000000000000000000000000700000000000000"),
    ("MigrateItem", "03000000642f6600ed0100001f0000002000000003000000642f660103000000010203ed0100001f0000002000000003000000642f66020000000000010000ed0100001f0000002000000003000000642f660303000000742331ed0100001f00000020000000"),
    ("AuditEntry", "110000004030306434633035653362306230386531020000002f6100280000006461333961336565356536623462306433323535626665663935363031383930616664383037303900100000000000000c00000000000000010000020000004031000000000102000000623601000000000000000200000000000000000101"),
    ("ReplicaOp", "00040000002f612f6401040000002f612f66a4010000010000000200000001400000000000000002040000002f612f6c03000000742331ff030000030000000400000003040000002f612f6605000000000000000300000009080704040000002f612f6601800100000001160000000117000000000000000001190000000000000005040000002f612f6606040000002f612f6407020000002f6108040000002f612f78040000002f612f7909020000002f61020000002f620a020000002f610010000000000000"),
    ("KoshaRequest", "00040000002f612f66a4010000010000000200000001640000000000000001060000002f612f622f63ed010000030000000400000002020000002f610400000061233737e8010000050000000600000003020000002f610400000061233737070000000800000004040000002f612f6c080000007768617465766572090000000a00000005040000002f612f66090000000000000002000000010206040000002f612f6601800100000001160000000117000000000000000001190000000000000007040000002f612f6608040000002f612f6409020000002f610a020000002f620b040000002f612f78040000002f612f790c020000002f61020000002f620d020000002f61030000006123330e0f020000002f6110020000002f6103000000642f66010400000007070707ed0100001f0000002000000011020000002f6101000000611213020000002f6114020000002f610400000003000000642f6600ed0100001f0000002000000003000000642f660103000000010203ed0100001f0000002000000003000000642f66020000000000010000ed0100001f0000002000000003000000642f660303000000742331ed0100001f00000020000000150a020000002f610000000000000000160b00000000040000002f612f6401040000002f612f66a4010000010000000200000001400000000000000002040000002f612f6c03000000742331ff030000030000000400000003040000002f612f6605000000000000000300000009080704040000002f612f6601800100000001160000000117000000000000000001190000000000000005040000002f612f6606040000002f612f6407020000002f6108040000002f612f78040000002f612f7909020000002f61020000002f620a020000002f61001000000000000017040000002f612f66181911000000403030633066666565303063306666656507000000000000001a020000002f6103000000612332060000002f612f686f741100000000000000001a71180200000003000000642f66020500000000000000ed0100001f000000200000001b020000002f61060000002f612f686f74"),
    ("KoshaReply", "000408070605040302010d0c0b0a01a40100000b0000000c0000000d000000000000000e0000000f00000000000000100000000000000011000000000000000101020a00000000000000030000000000000007000000000000000302000000020000002f6103000000612331040000002f622f6301000000630502000000030000000000000009000000000000000602000000110000004030306434633035653362306230386531020000002f6100280000006461333961336565356536623462306433323535626665663935363031383930616664383037303900100000000000000c00000000000000010000020000004031000000000102000000623601000000000000000200000000000000000101"),
    ("KoshaReplyFrame", "0001000102030405060708090a0b"),
];

#[test]
fn every_message_encodes_to_its_pinned_bytes() {
    // The frames are built with field syntax, which a tuple struct and
    // an alias of a generic one both accept.
    let nfs_frames: Vec<NfsReplyFrame> = [Ok(NfsReply::Written { count: 3 })]
        .into_iter()
        .chain(STATUSES.map(Err))
        .map(|result| NfsReplyFrame { 0: result })
        .collect();
    let kosha_frames: Vec<KoshaReplyFrame> = [Ok(KoshaReply::DoneBool(false))]
        .into_iter()
        .chain(STATUSES.map(Err))
        .map(|result| KoshaReplyFrame { 0: result })
        .collect();
    let actual = [
        ("primitives", primitives()),
        ("NodeAddr", cat(&[NodeAddr(0x0102_0304_0506_0708)])),
        ("ServiceId", cat(&ServiceId::ALL)),
        (
            "TraceHeader",
            cat(&[TraceHeader {
                trace_id: 0x1111,
                span_id: 0x2222,
            }]),
        ),
        ("RpcRequest", cat(&rpc_requests())),
        ("Fh", cat(&[FH])),
        (
            "WireAttr",
            cat(&[
                attr(FileType::Regular),
                attr(FileType::Directory),
                attr(FileType::Symlink),
            ]),
        ),
        (
            "WireSetAttr",
            cat(&[sattr(), WireSetAttr(SetAttr::default())]),
        ),
        ("WireDirEntry", cat(&dir_entries())),
        ("WirePathNode", cat(&path_nodes())),
        ("NfsRequest", cat(&nfs_requests())),
        ("NfsReply", cat(&nfs_replies())),
        ("NfsReplyFrame", cat(&nfs_frames)),
        ("NodeInfo", cat(&[node(0xabcd, 0x1234)])),
        ("PastryRequest", cat(&pastry_requests())),
        ("PastryReply", cat(&pastry_replies())),
        ("MigrateItem", cat(&items())),
        ("AuditEntry", cat(&audit_entries())),
        ("ReplicaOp", cat(&replica_ops())),
        ("KoshaRequest", cat(&kosha_requests())),
        ("KoshaReply", cat(&kosha_replies())),
        ("KoshaReplyFrame", cat(&kosha_frames)),
    ];
    let mut moved = Vec::new();
    for ((name, bytes), (golden_name, golden)) in actual.iter().zip(GOLDEN) {
        assert_eq!(*name, golden_name, "the two tables list the same types");
        if bytes != golden {
            moved.push(format!("    (\"{name}\", \"{bytes}\"),"));
        }
    }
    assert!(
        moved.is_empty(),
        "these types no longer encode to their pinned bytes; they now encode to:\n{}",
        moved.join("\n")
    );
}

/// One value per variant, in declaration order, and the label tables
/// (span names, metric registration order) as they were.
#[test]
fn every_variant_has_a_value_and_keeps_its_label() {
    assert_eq!(replica_ops().len(), 11);
    assert_eq!(kosha_replies().len(), 7);
    assert_eq!(nfs_replies().len(), 11);
    for (i, req) in nfs_requests().iter().enumerate() {
        assert_eq!(req.proc_index(), i, "{}", req.proc_name());
    }
    assert_eq!(
        NfsRequest::PROC_NAMES.join(" "),
        "null mount getattr setattr lookup readlink access read write create create_sized \
         mkdir symlink remove rmdir remove_tree rename readdir fsstat lookup_path commit"
    );
    let names: Vec<&str> = kosha_requests().iter().map(KoshaRequest::name).collect();
    assert_eq!(
        names.join(" "),
        "create_file mkdir_local mkdir_anchor place_link symlink_file write setattr remove \
         rmdir rmdir_anchor remove_link rename_local rename_anchor_dir ensure_anchor \
         store_stats begin_transfer transfer_put commit_transfer list_anchors replica_targets \
         migrate_batch replica_apply replica_apply_batch flush audit_scan \
         replica_targets_by_slot hot_replica_push hot_replica_drop"
    );
    assert_eq!(
        ServiceId::ALL.map(|s| s.name()).join(" "),
        "pastry nfs kosha koshafs replica"
    );
}
