//! Write-behind replication: per-target outbound queues with op
//! coalescing, bounded backpressure, and flush barriers.
//!
//! Under [`crate::config::ReplicationMode::Sync`] the primary mirrors
//! every mutation to all K replica holders before acknowledging (§4.2),
//! putting a full replica fan-out on every WRITE's critical path. This
//! module implements the alternative: the primary acknowledges as soon
//! as its own store is updated and *enqueues* the mirrored op on one
//! bounded queue per replica target. A pump later drains each queue as
//! a single `ReplicaApplyBatch` RPC, after **coalescing** the queued
//! ops (overlapping writes merged, repeated setattrs collapsed, ops
//! against later-removed paths dropped).
//!
//! Three events force a synchronous flush so the consistency window
//! stays bounded:
//!
//! * an NFS **COMMIT** against the virtual mount (clients fsync),
//! * a queue reaching `queue_ops` entries (**backpressure** — the
//!   enqueue that hits the bound flushes that target before returning),
//! * a **leaf-set change** (failover/migration maintenance must not run
//!   against replicas that are behind the primary).
//!
//! While a queue window is open the primary stamps each affected
//! anchor's replica slot with a lag marker (`ReplicaOp::LagMark`, which
//! sets a lower bound of the queued payload bytes in the slot's record);
//! the flush batch clears it.
//! A node that later *promotes* a still-stamped slot knows the old
//! primary died with unflushed ops and journals `replica_lag` instead
//! of silently serving stale data.

use crate::config::ReplicationMode;
use crate::control::{Names, ReplicaOp, ReplicaRequest};
use crate::node::KoshaNode;
use kosha_nfs::messages::WireSetAttr;
use kosha_obs::{Gauge, Obs};
use kosha_rpc::{NodeAddr, PumpHook, RpcRequest, ServiceId};
use kosha_vfs::SetAttr;
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// One replica target's outbound queue.
#[derive(Default)]
struct TargetQueue {
    /// Queued ops, in primary apply order.
    ops: Vec<ReplicaOp>,
    /// Payload bytes queued (WRITE data only) — the lag lower bound.
    bytes: u64,
    /// Anchors whose replica slot carries a lag marker for this window.
    // lint: allow(L008) bounded by the flush cycle: the whole TargetQueue (marked included) is consumed on flush
    marked: HashSet<String>,
}

/// Per-node write-behind state: the per-target queues plus the depth
/// gauge they keep current.
pub(crate) struct WritebackState {
    queues: Mutex<HashMap<NodeAddr, TargetQueue>>,
    /// `kosha_writeback_queue_depth`: ops queued across all targets (the
    /// `kosha-top` WB.Q column).
    depth: Arc<Gauge>,
}

impl WritebackState {
    pub(crate) fn new(obs: &Obs) -> Self {
        WritebackState {
            queues: Mutex::new(HashMap::new()),
            depth: obs.registry.gauge("kosha_writeback_queue_depth"),
        }
    }

    /// Drops every queued op unsent (a crash).
    pub(crate) fn clear(&self) {
        self.queues.lock().clear();
        self.depth.set(0);
    }
}

/// The virtual path an op mutates, if it is a plain per-object op.
/// Barrier ops (renames, slot removal, lag markers) return `None` and
/// partition the coalescing windows.
fn op_path(op: &ReplicaOp) -> Option<&str> {
    match op.names() {
        Names::Entry(path, None) => Some(path),
        _ => None,
    }
}

/// Payload bytes an op would ship (the lag-marker lower bound).
fn payload_bytes(op: &ReplicaOp) -> u64 {
    match op {
        ReplicaOp::Write { data, .. } => data.len() as u64,
        _ => 0,
    }
}

/// Merges two write ranges when they overlap or touch. The later write
/// wins on overlap; `None` means the ranges are disjoint with a gap and
/// must stay separate ops.
fn merge_ranges(a_off: u64, a: &[u8], b_off: u64, b: &[u8]) -> Option<(u64, Vec<u8>)> {
    let a_end = a_off + a.len() as u64;
    let b_end = b_off + b.len() as u64;
    if b_off > a_end || a_off > b_end {
        return None;
    }
    let start = a_off.min(b_off);
    let end = a_end.max(b_end);
    let mut buf = vec![0u8; (end - start) as usize];
    buf[(a_off - start) as usize..(a_end - start) as usize].copy_from_slice(a);
    buf[(b_off - start) as usize..(b_end - start) as usize].copy_from_slice(b);
    Some((start, buf))
}

/// Whether two size-setting setattrs may collapse into the later one.
/// Truncate-then-*extend* must stay two ops: `size=a` then `size=b > a`
/// zeroes bytes `a..b`, while a single `size=b` would preserve whatever
/// the file held there. Shrinking (or touching size only once) is safe.
fn sattr_merge_safe(old: &SetAttr, new: &SetAttr) -> bool {
    match (old.size, new.size) {
        (Some(a), Some(b)) => b <= a,
        _ => true,
    }
}

/// Later-set fields override earlier ones; unset fields pass through.
fn merge_sattr(old: &SetAttr, new: &SetAttr) -> SetAttr {
    SetAttr {
        mode: new.mode.or(old.mode),
        uid: new.uid.or(old.uid),
        gid: new.gid.or(old.gid),
        size: new.size.or(old.size),
        atime: new.atime.or(old.atime),
        mtime: new.mtime.or(old.mtime),
    }
}

/// Index of the last queued op touching `path` in the current window.
fn last_on(out: &[ReplicaOp], window: usize, path: &str) -> Option<usize> {
    (window..out.len())
        .rev()
        .find(|&i| op_path(&out[i]) == Some(path))
}

/// Coalesces a queued op sequence without changing its effect on a
/// replica store. Barrier ops (renames, slot removal, lag markers) split
/// the sequence into windows; within a window:
///
/// * a `Remove`/`Rmdir` on a path drops every earlier op on that path
///   (the object's creation and mutations are dead — replicas absorb
///   `NoEnt` on the surviving remove),
/// * consecutive (per-path) `Write`s with overlapping or adjacent
///   ranges merge into one, later data winning,
/// * consecutive (per-path) `SetAttr`s collapse into one with later
///   fields overriding,
/// * an op identical to one already queued (re-created dirs, replayed
///   creates) is dropped — replica application is idempotent.
///
/// Merged ops move to the window's tail, which is safe exactly because
/// no later op on the same path intervenes (the merge conditions above
/// require it) and ops on distinct paths are independent within a
/// barrier-free window.
#[must_use]
pub fn coalesce(ops: Vec<ReplicaOp>) -> Vec<ReplicaOp> {
    let mut out: Vec<ReplicaOp> = Vec::with_capacity(ops.len());
    let mut window = 0usize;
    for op in ops {
        if op_path(&op).is_none() {
            out.push(op);
            window = out.len();
            continue;
        }
        match op {
            rm @ (ReplicaOp::Remove { .. } | ReplicaOp::Rmdir { .. }) => {
                let path = op_path(&rm).expect("remove ops carry a path").to_string();
                let mut i = window;
                while i < out.len() {
                    if op_path(&out[i]) == Some(path.as_str()) {
                        out.remove(i);
                    } else {
                        i += 1;
                    }
                }
                out.push(rm);
            }
            ReplicaOp::Write { path, offset, data } => {
                let merged = last_on(&out, window, &path).and_then(|i| {
                    if let ReplicaOp::Write {
                        offset: o0,
                        data: d0,
                        ..
                    } = &out[i]
                    {
                        merge_ranges(*o0, d0, offset, &data).map(|m| (i, m))
                    } else {
                        None
                    }
                });
                match merged {
                    Some((i, (off, buf))) => {
                        out.remove(i);
                        out.push(ReplicaOp::Write {
                            path,
                            offset: off,
                            data: buf.into(),
                        });
                    }
                    None => out.push(ReplicaOp::Write { path, offset, data }),
                }
            }
            ReplicaOp::SetAttr { path, sattr } => {
                let merged = last_on(&out, window, &path).and_then(|i| {
                    if let ReplicaOp::SetAttr { sattr: s0, .. } = &out[i] {
                        if sattr_merge_safe(&s0.0, &sattr.0) {
                            Some((i, merge_sattr(&s0.0, &sattr.0)))
                        } else {
                            None
                        }
                    } else {
                        None
                    }
                });
                match merged {
                    Some((i, s)) => {
                        out.remove(i);
                        out.push(ReplicaOp::SetAttr {
                            path,
                            sattr: WireSetAttr(s),
                        });
                    }
                    None => out.push(ReplicaOp::SetAttr { path, sattr }),
                }
            }
            other => {
                // Mkdir / Create / Symlink: drop exact duplicates (their
                // replica application absorbs `Exist` anyway).
                if !out[window..].contains(&other) {
                    out.push(other);
                }
            }
        }
    }
    out
}

impl KoshaNode {
    /// Write-behind enqueue: records `op` on every target's queue and
    /// returns without waiting for any replica RPC. Opening a new
    /// `(target, anchor)` window additionally sends one synchronous lag
    /// marker so a mid-window primary death is detectable; a queue
    /// reaching `queue_ops` flushes its target before returning
    /// (backpressure — the queue is bounded, not the lag).
    pub(crate) fn enqueue_replica_op(&self, op: ReplicaOp, targets: &[NodeAddr], queue_ops: usize) {
        let anchor = self.landing_anchor(&op);
        let bytes = payload_bytes(&op);
        let mut to_mark = Vec::new();
        let mut overflowed = Vec::new();
        {
            let mut qs = self.writeback.queues.lock();
            for &t in targets {
                let tq = qs.entry(t).or_default();
                if tq.marked.insert(anchor.clone()) {
                    to_mark.push(t);
                }
                tq.bytes += bytes;
                tq.ops.push(op.clone());
                if tq.ops.len() >= queue_ops.max(1) {
                    overflowed.push(t);
                }
            }
            self.writeback
                .depth
                .set(qs.values().map(|q| q.ops.len() as i64).sum());
        }
        self.stats.writeback_enqueued.add(targets.len() as u64);
        if !to_mark.is_empty() {
            // Stamp the slot on each newly lagging target, synchronously:
            // the one RPC a window's first op still pays. Marker bytes
            // are a lower bound and must be nonzero (zero is the clear
            // encoding) even for metadata-only windows.
            let bytes = bytes.max(1);
            self.fan_out(
                "kosha:lagmark",
                &to_mark,
                ReplicaOp::LagMark { anchor, bytes },
            );
        }
        if !overflowed.is_empty() {
            self.journal(
                "writeback_overflow",
                format!(
                    "queue reached {queue_ops} ops; flushing {} target(s)",
                    overflowed.len()
                ),
            );
            self.flush_writeback_targets(overflowed);
        }
    }

    /// Flush barrier: drains every write-behind queue synchronously.
    /// Called on NFS COMMIT, on leaf-set changes (promotion/migration
    /// must never run against lagging replicas), by the transport's
    /// pump, and by tests/benches that need a settled cluster. A no-op
    /// when nothing is queued (and under `Sync` replication, always).
    pub fn flush_replication(&self) {
        let mut targets: Vec<NodeAddr> = self.writeback.queues.lock().keys().copied().collect();
        // Flush in address order: queue-map iteration order must not
        // leak into the batch order `call_many` charges and traces.
        targets.sort();
        if !targets.is_empty() {
            self.flush_writeback_targets(targets);
        }
        // The barrier also settles hot-copy leases (DESIGN.md §16):
        // copies voided by a mutation are re-pushed with fresh payload
        // (or shed, if the object cooled) once the replicas are caught
        // up, so close-to-open semantics hold for hot reads too. A no-op
        // while no hot copies are tracked.
        self.hot_sweep(false);
    }

    /// Drains the given targets' queues: coalesce each, append the lag
    /// clears, ship one `ReplicaApplyBatch` per target concurrently. A
    /// target that fails the batch has its queue contents dropped — the
    /// divergence is journaled as `replica_lag` with the dropped byte
    /// count (and the slot keeps its marker, so a later promotion of
    /// that stale copy also reports the lag).
    pub(crate) fn flush_writeback_targets(&self, targets: Vec<NodeAddr>) {
        let mut batches: Vec<(NodeAddr, Vec<ReplicaOp>, u64)> = Vec::new();
        {
            let mut qs = self.writeback.queues.lock();
            for t in targets {
                let Some(tq) = qs.remove(&t) else { continue };
                if tq.ops.is_empty() && tq.marked.is_empty() {
                    continue;
                }
                let in_len = tq.ops.len();
                let mut ops = coalesce(tq.ops);
                self.stats
                    .writeback_coalesced_ops
                    .add((in_len - ops.len()) as u64);
                let mut marked: Vec<String> = tq.marked.into_iter().collect();
                marked.sort();
                for anchor in marked {
                    ops.push(ReplicaOp::LagMark { anchor, bytes: 0 });
                }
                batches.push((t, ops, tq.bytes));
            }
            self.writeback
                .depth
                .set(qs.values().map(|q| q.ops.len() as i64).sum());
        }
        if batches.is_empty() {
            return;
        }
        let shipped: u64 = batches.iter().map(|(_, ops, _)| ops.len() as u64).sum();
        self.stats.writeback_flushed_ops.add(shipped);
        self.stats.writeback_flushes.inc();
        self.obs.tracer.child(
            || "kosha:flush".to_string(),
            self.info.addr.0,
            || self.clock.now().0,
            || {
                let reqs = batches
                    .iter()
                    .map(|(t, ops, _)| {
                        (
                            *t,
                            RpcRequest::split(
                                ServiceId::KoshaReplica,
                                &ReplicaRequest::ReplicaApplyBatch { ops: ops.clone() },
                            ),
                        )
                    })
                    .collect();
                let results = self.net.call_many(self.info.addr, reqs);
                for ((t, _, bytes), result) in batches.iter().zip(results) {
                    if !crate::primary::mirror_succeeded(result) {
                        self.stats.replica_lag_events.inc();
                        self.journal(
                            "replica_lag",
                            format!(
                                "flush to node {} failed; {bytes} queued payload bytes dropped",
                                t.0
                            ),
                        );
                        self.note_mirror_result(*t, false);
                    }
                }
            },
        );
        self.journal(
            "writeback_flush",
            format!("flushed {shipped} op(s) to {} target(s)", batches.len()),
        );
    }

    /// Whether `target`'s write-behind window on `anchor` is open: its
    /// copy lacks acked writes until the window flushes.
    pub(crate) fn lags(&self, target: NodeAddr, anchor: &str) -> bool {
        let qs = self.writeback.queues.lock();
        qs.get(&target).is_some_and(|q| q.marked.contains(anchor))
    }

    /// Whether this node replicates in write-behind mode.
    pub(crate) fn write_behind_queue_ops(&self) -> Option<usize> {
        match self.cfg.replication_mode {
            ReplicationMode::Sync => None,
            ReplicationMode::WriteBehind { queue_ops, .. } => Some(queue_ops),
        }
    }
}

impl PumpHook for KoshaNode {
    // lint: allow(L005) timer-driven flush: runs on the pump thread outside any handler's actor; mirror/lease fan-out here is the write-behind design
    fn pump(&self) {
        self.flush_replication();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(path: &str, offset: u64, data: &[u8]) -> ReplicaOp {
        ReplicaOp::Write {
            path: path.into(),
            offset,
            data: data.into(),
        }
    }

    fn sa(path: &str, sattr: SetAttr) -> ReplicaOp {
        ReplicaOp::SetAttr {
            path: path.into(),
            sattr: WireSetAttr(sattr),
        }
    }

    #[test]
    fn sequential_writes_merge_into_one() {
        let ops = vec![
            w("/a/f", 0, b"aa"),
            w("/a/f", 2, b"bb"),
            w("/a/f", 4, b"cc"),
        ];
        let out = coalesce(ops);
        assert_eq!(out, vec![w("/a/f", 0, b"aabbcc")]);
    }

    #[test]
    fn overlapping_write_later_data_wins() {
        let out = coalesce(vec![w("/a/f", 0, b"xxxx"), w("/a/f", 2, b"YY")]);
        assert_eq!(out, vec![w("/a/f", 0, b"xxYY")]);
    }

    #[test]
    fn gapped_writes_stay_separate() {
        let ops = vec![w("/a/f", 0, b"aa"), w("/a/f", 10, b"bb")];
        assert_eq!(coalesce(ops.clone()), ops);
    }

    #[test]
    fn writes_to_distinct_files_do_not_merge() {
        let ops = vec![w("/a/f", 0, b"aa"), w("/a/g", 2, b"bb")];
        assert_eq!(coalesce(ops.clone()), ops);
    }

    #[test]
    fn setattrs_collapse_to_last_writer_per_field() {
        let out = coalesce(vec![
            sa(
                "/a/f",
                SetAttr {
                    mode: Some(0o600),
                    size: Some(4),
                    ..Default::default()
                },
            ),
            sa(
                "/a/f",
                SetAttr {
                    mode: Some(0o644),
                    ..Default::default()
                },
            ),
        ]);
        assert_eq!(
            out,
            vec![sa(
                "/a/f",
                SetAttr {
                    mode: Some(0o644),
                    size: Some(4),
                    ..Default::default()
                }
            )]
        );
    }

    #[test]
    fn truncate_then_extend_does_not_merge() {
        // size=2 then size=5 zeroes bytes 2..5; one size=5 would keep
        // stale data there. Shrinks may collapse, extends may not.
        let shrink = |n| {
            sa(
                "/a/f",
                SetAttr {
                    size: Some(n),
                    ..Default::default()
                },
            )
        };
        let ops = vec![shrink(2), shrink(5)];
        assert_eq!(coalesce(ops.clone()), ops);
        assert_eq!(coalesce(vec![shrink(5), shrink(2)]), vec![shrink(2)]);
    }

    #[test]
    fn setattr_does_not_merge_across_a_write() {
        // SetAttr{size} then Write then SetAttr: the truncate must stay
        // before the write, so no merge happens.
        let ops = vec![
            sa(
                "/a/f",
                SetAttr {
                    size: Some(0),
                    ..Default::default()
                },
            ),
            w("/a/f", 0, b"zz"),
            sa(
                "/a/f",
                SetAttr {
                    mode: Some(0o600),
                    ..Default::default()
                },
            ),
        ];
        assert_eq!(coalesce(ops.clone()), ops);
    }

    #[test]
    fn remove_drops_the_dead_objects_history() {
        let out = coalesce(vec![
            ReplicaOp::Create {
                path: "/a/f".into(),
                mode: 0o644,
                uid: 0,
                gid: 0,
            },
            w("/a/f", 0, b"doomed"),
            w("/a/g", 0, b"kept"),
            ReplicaOp::Remove {
                path: "/a/f".into(),
            },
        ]);
        assert_eq!(
            out,
            vec![
                w("/a/g", 0, b"kept"),
                ReplicaOp::Remove {
                    path: "/a/f".into()
                }
            ]
        );
    }

    #[test]
    fn rmdir_keeps_its_kind() {
        let mk = ReplicaOp::Mkdir {
            path: "/a/d".into(),
            mode: 0o755,
            uid: 0,
            gid: 0,
        };
        let rm = ReplicaOp::Rmdir {
            path: "/a/d".into(),
        };
        assert_eq!(coalesce(vec![mk, rm.clone()]), vec![rm]);
    }

    #[test]
    fn barriers_partition_windows() {
        // A rename between two writes to the same path prevents merging.
        let ops = vec![
            w("/a/f", 0, b"aa"),
            ReplicaOp::Rename {
                from: "/a/f".into(),
                to: "/a/f2".into(),
            },
            w("/a/f", 0, b"bb"),
        ];
        assert_eq!(coalesce(ops.clone()), ops);
    }

    #[test]
    fn duplicate_creates_dedup() {
        let mk = ReplicaOp::Mkdir {
            path: "/a/d".into(),
            mode: 0o755,
            uid: 0,
            gid: 0,
        };
        let out = coalesce(vec![mk.clone(), w("/a/f", 0, b"x"), mk.clone()]);
        assert_eq!(out, vec![mk, w("/a/f", 0, b"x")]);
    }

    #[test]
    fn create_plus_writes_fold_to_create_plus_one_write() {
        let c = ReplicaOp::Create {
            path: "/a/f".into(),
            mode: 0o644,
            uid: 1,
            gid: 1,
        };
        let out = coalesce(vec![c.clone(), w("/a/f", 0, b"ab"), w("/a/f", 2, b"cd")]);
        assert_eq!(out, vec![c, w("/a/f", 0, b"abcd")]);
    }
}
