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
    AuditEntry, ControlRequest, KoshaReply, KoshaReplyFrame, MigrateItem, MigrateKind, ReplicaOp,
    ReplicaRequest,
};
use kosha::slots::SlotMeta;
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

fn slot_metas() -> Vec<SlotMeta> {
    vec![
        SlotMeta {
            routing: Some("a#1".into()),
            lag_bytes: 4096,
            migrating: false,
            hot: vec!["/a/h".into(), "/a/i".into()],
        },
        SlotMeta {
            routing: None,
            lag_bytes: 0,
            migrating: true,
            hot: Vec::new(),
        },
    ]
}

fn replica_ops() -> Vec<ReplicaOp> {
    vec![
        ReplicaOp::Mkdir {
            path: "/a/d".into(),
            mode: 0o750,
            uid: 8,
            gid: 9,
        },
        ReplicaOp::Create {
            path: "/a/f".into(),
            mode: 0o644,
            uid: 1,
            gid: 2,
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
        ReplicaOp::MakeSlot {
            anchor: "/a".into(),
            routing: "a#5".into(),
            mode: 0o755,
            uid: 6,
            gid: 7,
        },
    ]
}

/// One `Mutate` per kind of op, then one value of every other variant.
fn control_requests() -> Vec<ControlRequest> {
    let mutations = replica_ops().into_iter();
    mutations
        .map(|op| ControlRequest::Mutate { op })
        .chain([
            ControlRequest::EnsureAnchor {
                path: "/a".into(),
                routing: "a#3".into(),
            },
            ControlRequest::ReplicaTargets { path: "/a".into() },
            ControlRequest::Flush {
                path: "/a/f".into(),
            },
            ControlRequest::AuditScan,
            ControlRequest::ReplicaTargetsBySlot {
                slot: "@00c0ffee00c0ffee".into(),
                holder: 7,
            },
            ControlRequest::TransferAnchor {
                path: "/a".into(),
                routing: "a#6".into(),
                items: vec![item(MigrateKind::Bytes(vec![7; 4].into()))],
            },
        ])
        .collect()
}

fn replica_requests() -> Vec<ReplicaRequest> {
    vec![
        ReplicaRequest::MigrateBatch {
            path: "/a".into(),
            routing: "a#4".into(),
            items: items(),
        },
        ReplicaRequest::ReplicaApply {
            op: ReplicaOp::LagMark {
                anchor: "/a".into(),
                bytes: 0,
            },
        },
        ReplicaRequest::ReplicaApplyBatch { ops: replica_ops() },
        ReplicaRequest::HotReplicaPush {
            anchor: "/a".into(),
            routing: "a#2".into(),
            path: "/a/hot".into(),
            item: item(MigrateKind::Bytes(vec![5].into())),
        },
        ReplicaRequest::HotReplicaDrop {
            anchor: "/a".into(),
            path: "/a/hot".into(),
        },
        ReplicaRequest::SlotRecord {
            anchor: "/a/b".into(),
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
        KoshaReply::Nodes(vec![NodeAddr(3), NodeAddr(9)]),
        KoshaReply::Audit(audit_entries()),
        KoshaReply::Slot {
            record: slot_metas().remove(0),
            items: vec![item(MigrateKind::Bytes(vec![9].into()))],
        },
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
const GOLDEN: [(&str, &str); 24] = [
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
    // The sized CREATE (procedure 9) is gone with sparse files; every
    // other procedure keeps its bytes.
    ("NfsRequest", "00010208070605040302010d0c0b0a0308070605040302010d0c0b0a0180010000000116000000011700000000000000000119000000000000000408070605040302010d0c0b0a01000000780508070605040302010d0c0b0a1208070605040302010d0c0b0a0a00000014000000070000000608070605040302010d0c0b0a0500000000000000640000000708070605040302010d0c0b0a0600000000000000030000000102030808070605040302010d0c0b0a0100000066a401000001000000020000000a08070605040302010d0c0b0a0100000064ed01000005000000060000000b08070605040302010d0c0b0a010000006c03000000742339ff03000007000000080000000c08070605040302010d0c0b0a01000000660d08070605040302010d0c0b0a01000000640e08070605040302010d0c0b0a01000000740f08070605040302010d0c0b0a010000006163000000000000006200000001000000621008070605040302010d0c0b0a111308070605040302010d0c0b0a05000000612f622f631408070605040302010d0c0b0a"),
    ("NfsReply", "000108070605040302010d0c0b0a0200a40100000b0000000c0000000d000000000000000e0000000f00000000000000100000000000000011000000000000000308070605040302010d0c0b0a02a40100000b0000000c0000000d000000000000000e0000000f000000000000001000000000000000110000000000000004030000007823310505000000090909090901060a0000000703000000010000007208070605040302010d0c0b0a00010000006408070605040302010d0c0b0a01010000006c08070605040302010d0c0b0a0209050000000864000000000000000a000000000000005a000000000000000a0200000008070605040302010d0c0b0a01a40100000b0000000c0000000d000000000000000e0000000f00000000000000100000000000000011000000000000000008070605040302010d0c0b0a02a40100000b0000000c0000000d000000000000000e0000000f0000000000000010000000000000001100000000000000010700000040313233342335"),
    ("NfsReplyFrame", "0006030000000102030405060708090a0b"),
    ("NodeInfo", "cdab00000000000000000000000000003412000000000000"),
    // The departure notice (tag 4) is gone: nothing sent it, and a
    // departed node is found failed. The other five keep their bytes.
    ("PastryRequest", "002a00000000000000000000000000000002000000010000000000000009000000000000000107000000020305000000000000000000000000000000030000000000000005"),
    ("PastryReply", "000101000000000000000000000000000000020000000000000000000001010200000001000000000000000000000000000000020000000000000003000000000000000000000000000000040000000000000002090000000000000000000000000000000900000000000000010000000100000000000000000000000000000002000000000000000304080000000000000000000000000000000700000000000000"),
    // The size-only item (`MigrateKind` 2) is gone with sparse files; the
    // other three keep their bytes.
    ("MigrateItem", "03000000642f6600ed0100001f0000002000000003000000642f660103000000010203ed0100001f0000002000000003000000642f660303000000742331ed0100001f00000020000000"),
    ("AuditEntry", "110000004030306434633035653362306230386531020000002f6100280000006461333961336565356536623462306433323535626665663935363031383930616664383037303900100000000000000c00000000000000010000020000004031000000000102000000623601000000000000000200000000000000000101"),
    // New: the per-slot record a `Record` reply carries.
    // `hot` lists paths: each entry lost its lease's `seq` and expiry
    // (two u64s), which only the primary keeps. No other byte moved.
    ("SlotMeta", "010300000061233100100000000000000002000000040000002f612f68040000002f612f690000000000000000000100000000"),
    // `MakeSlot` (tag 11) is new: a distributed mkdir mirrors the new anchor's
    // slot to its holders instead of pushing an empty tree. The older variants
    // keep their bytes; the row gains the new one at its end.
    // One mutation message: `Mkdir` carries the new directory's mode, uid and
    // gid (12 bytes after its path), as `MakeSlot` does; no other byte moved.
    // `Create` lost its optional sparse size: the nine bytes of the
    // `Some(64)` pinned here go (a real create sent `None`, one byte). No
    // other byte moved.
    ("ReplicaOp", "00040000002f612f64e8010000080000000900000001040000002f612f66a4010000010000000200000002040000002f612f6c03000000742331ff030000030000000400000003040000002f612f6605000000000000000300000009080704040000002f612f6601800100000001160000000117000000000000000001190000000000000005040000002f612f6606040000002f612f6407020000002f6108040000002f612f78040000002f612f7909020000002f61020000002f620a020000002f6100100000000000000b020000002f6103000000612335ed0100000600000007000000"),
    // `MigrateBatch` gained `routing` after `path` (its items lost the routing-name file);
    // `SlotRecord` (tag 28) is new. `StoreStats` (tag 14, one byte) is gone: the owner
    // of a new directory answers its `MakeSlot` with `NoSpc` itself when it is full.
    // `ReplicaApplyBatch` carries one of every `ReplicaOp`, so its count goes
    // 11 -> 12 and `MakeSlot`'s 26 bytes follow `LagMark`'s; no other byte moved.
    // One way to copy a slot: the three-step transfer's requests (tags 15-17) are
    // gone and `TransferAnchor` (tag 29: path, routing, items) is new at the end;
    // every other variant keeps its bytes.
    // One mutation message: the thirteen requests on tags 0-12 are gone, and
    // the row opens with one `Mutate` (tag 30) per `ReplicaOp` kind, each the
    // op's own bytes behind the tag. `ReplicaApplyBatch`'s `Mkdir` gains its
    // 12 bytes of mode, uid and gid; every other variant keeps its bytes.
    // One request enum per service: the one request row both services
    // decoded became these two, each variant on its service's row with the
    // bytes it had there, in the order it had there. The hosted-anchor
    // listing (tag 18, one byte) is gone.
    // `Create`'s `Mutate` lost its sparse size (`Some(64)`, nine bytes);
    // no other byte moved.
    ("ControlRequest", "1e00040000002f612f64e801000008000000090000001e01040000002f612f66a401000001000000020000001e02040000002f612f6c03000000742331ff03000003000000040000001e03040000002f612f660500000000000000030000000908071e04040000002f612f660180010000000116000000011700000000000000000119000000000000001e05040000002f612f661e06040000002f612f641e07020000002f611e08040000002f612f78040000002f612f791e09020000002f61020000002f621e0a020000002f6100100000000000001e0b020000002f6103000000612335ed01000006000000070000000d020000002f610300000061233313020000002f6117040000002f612f66181911000000403030633066666565303063306666656507000000000000001d020000002f61030000006123360100000003000000642f66010400000007070707ed0100001f00000020000000"),
    // The batch's `Create` lost its sparse size (`Some(64)`, nine bytes),
    // `MigrateBatch` its size-only item, and `HotReplicaPush` carries a one-byte file where it
    // carried a size-only one. No other byte moved.
    // `HotReplicaPush` lost its `seq` and `expires_nanos` (two u64s); no
    // other byte moved.
    ("ReplicaRequest", "14020000002f61030000006123340300000003000000642f6600ed0100001f0000002000000003000000642f660103000000010203ed0100001f0000002000000003000000642f660303000000742331ed0100001f00000020000000150a020000002f610000000000000000160c00000000040000002f612f64e8010000080000000900000001040000002f612f66a4010000010000000200000002040000002f612f6c03000000742331ff030000030000000400000003040000002f612f6605000000000000000300000009080704040000002f612f6601800100000001160000000117000000000000000001190000000000000005040000002f612f6606040000002f612f6407020000002f6108040000002f612f78040000002f612f7909020000002f61020000002f620a020000002f6100100000000000000b020000002f6103000000612335ed01000006000000070000001a020000002f6103000000612332060000002f612f686f7403000000642f66010100000005ed0100001f000000200000001b020000002f61060000002f612f686f741c040000002f612f62"),
    // `Stats` (tag 2, three u64s) is gone with `StoreStats`. `MakeSlot` replies
    // `Handle` for the slot root: the placing koshad caches it. `Record` (tag 7, the
    // record alone) is gone: `Slot` (tag 8) carries the record and the items, so a
    // pull is one `SlotRecord`. No other byte moved.
    // The promotion flag (tag 1) and the anchor listing (tag 3) are gone:
    // `EnsureAnchor` answers `Handle` for the slot root, and nothing asked
    // for the listing. No other byte moved.
    // `Slot` carries a one-byte file where it carried a size-only one; no
    // other byte moved.
    // `Slot`'s record lost the same two u64s per hot path as `SlotMeta`;
    // no other byte moved.
    ("KoshaReply", "000408070605040302010d0c0b0a01a40100000b0000000c0000000d000000000000000e0000000f00000000000000100000000000000011000000000000000502000000030000000000000009000000000000000602000000110000004030306434633035653362306230386531020000002f6100280000006461333961336565356536623462306433323535626665663935363031383930616664383037303900100000000000000c0000000000000001000002000000403100000000010200000062360100000000000000020000000000000000010108010300000061233100100000000000000002000000040000002f612f68040000002f612f690100000003000000642f66010100000009ed0100001f00000020000000"),
    // The `Ok` value is `Done` now that the promotion flag is gone; the
    // frame's bytes around it did not move.
    ("KoshaReplyFrame", "00000102030405060708090a0b"),
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
    let kosha_frames: Vec<KoshaReplyFrame> = [Ok(KoshaReply::Done)]
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
        ("SlotMeta", cat(&slot_metas())),
        ("ReplicaOp", cat(&replica_ops())),
        ("ControlRequest", cat(&control_requests())),
        ("ReplicaRequest", cat(&replica_requests())),
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
    for (i, op) in replica_ops().iter().enumerate() {
        assert_eq!(op.index(), i, "{}", op.name());
    }
    assert_eq!(kosha_replies().len(), 5);
    assert_eq!(pastry_requests().len(), 5);
    assert_eq!(nfs_replies().len(), 11);
    for (i, req) in nfs_requests().iter().enumerate() {
        assert_eq!(req.proc_index(), i, "{}", req.proc_name());
    }
    assert_eq!(
        NfsRequest::PROC_NAMES.join(" "),
        "null mount getattr setattr lookup readlink access read write create mkdir \
         symlink remove rmdir remove_tree rename readdir fsstat lookup_path commit"
    );
    assert_eq!(
        ReplicaOp::NAMES.join(" "),
        "mkdir create symlink write setattr remove rmdir remove_slot rename rename_slot \
         lag_mark make_slot"
    );
    let mut names: Vec<&str> = control_requests()
        .iter()
        .map(ControlRequest::name)
        .collect();
    names.dedup();
    assert_eq!(names, ControlRequest::NAMES);
    assert_eq!(
        ControlRequest::NAMES.join(" "),
        "mutate ensure_anchor replica_targets flush audit_scan replica_targets_by_slot \
         transfer_anchor"
    );
    let names: Vec<&str> = replica_requests()
        .iter()
        .map(ReplicaRequest::name)
        .collect();
    assert_eq!(names, ReplicaRequest::NAMES);
    assert_eq!(
        ReplicaRequest::NAMES.join(" "),
        "migrate_batch replica_apply replica_apply_batch hot_replica_push hot_replica_drop \
         slot_record"
    );
    assert_eq!(
        ServiceId::ALL.map(|s| s.name()).join(" "),
        "pastry nfs kosha koshafs replica"
    );
}

/// A retired tag is an unknown tag: the thirteen requests a kind of
/// mutation each had before `Mutate` (0–12), the three-step transfer's
/// requests (15–17), the hosted-anchor listing (18), and the replies
/// that carried a promotion flag (1), that listing (3) and a record
/// alone (7) decode to `BadTag`, whatever follows, as the long-retired
/// `StoreStats` (14) and `Stats` (2) do. Each service's requests are
/// unknown tags to the other's decoder. So are the sized CREATE (NFS
/// procedure 9) and the size-only file of a migrated tree (`MigrateKind`
/// 2), whose sparse files are gone, and the overlay's departure notice
/// (`PastryRequest` 4), which nothing sent.
#[test]
fn retired_tags_decode_as_unknown() {
    use kosha_rpc::{WireError, WireRead};
    let tail = ControlRequest::EnsureAnchor {
        path: "/a".into(),
        routing: "a".into(),
    }
    .encode();
    let with_tag = |tag: u8| [&[tag], &tail[1..]].concat();
    let tag = |bytes: Bytes| bytes[0];
    let control_tags: Vec<u8> = control_requests()
        .into_iter()
        .map(|r| tag(r.encode()))
        .collect();
    let replica_tags: Vec<u8> = replica_requests()
        .into_iter()
        .map(|r| tag(r.encode()))
        .collect();
    let retired = (0u8..=12).chain([14, 15, 16, 17, 18]);
    for t in retired.clone().chain(replica_tags) {
        assert_eq!(
            ControlRequest::decode(&with_tag(t)),
            Err(WireError::BadTag(t))
        );
    }
    for t in retired.chain(control_tags) {
        assert_eq!(
            ReplicaRequest::decode(&with_tag(t)),
            Err(WireError::BadTag(t))
        );
    }
    for tag in [1u8, 2, 3, 7] {
        let bytes = [0u8, tag, 0, 0, 0, 0];
        assert_eq!(KoshaReplyFrame::decode(&bytes), Err(WireError::BadTag(tag)));
    }
    let create = NfsRequest::Create {
        dir: FH,
        name: "s".into(),
        mode: 0o640,
        uid: 3,
        gid: 4,
    }
    .encode();
    let sized = [&[9], &create[1..], &(1u64 << 30).to_le_bytes()].concat();
    assert_eq!(NfsRequest::decode(&sized), Err(WireError::BadTag(9)));
    let mut sparse = item(MigrateKind::Dir).encode().to_vec();
    let kind_at = 4 + "d/f".len();
    sparse[kind_at] = 2;
    sparse.splice(kind_at + 1..kind_at + 1, 5u64.to_le_bytes());
    assert_eq!(MigrateItem::decode(&sparse), Err(WireError::BadTag(2)));
    let announce = PastryRequest::Announce { node: node(6, 4) }.encode();
    let depart = [&[4], &announce[1..]].concat();
    assert_eq!(PastryRequest::decode(&depart), Err(WireError::BadTag(4)));
}
