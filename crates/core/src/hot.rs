//! Heat-driven read scaling (DESIGN.md §16): popularity-aware cached
//! replicas beyond K.
//!
//! The K durable replicas of §4.2 spread read load by a constant factor,
//! but a Zipf-popular object still funnels most of its reads through one
//! primary and K neighbors. This module lets a primary react to measured
//! demand: each primary feeds its [`kosha_obs::ReadHeat`] sketch from the
//! `ReplicaTargets` read-path RPC, and when an object's decayed heat
//! crosses [`HOT_THRESHOLD_MILLI`] it pushes up to
//! [`crate::ReadFrom::Replicas`]' `hot_copies` extra **read-only cached
//! copies** onto the next leaf-set neighbors past the K replica targets.
//!
//! A hot copy is not a durable replica: it never counts toward K, and it
//! is advertised to readers only while the primary's **lease** on it
//! holds — a `(mutation sequence, expiry)` pair the primary keeps in its
//! [`HotObject`]; the holder's slot record lists only the paths it keeps
//! copies of ([`crate::slots::SlotMeta::hot`]).
//! Any mutation of the object voids the lease at the primary *before the
//! mutation is acknowledged*, so a reader that re-fetches targets (every
//! `/kosha` read does) can never be steered to pre-write data
//! ([`KoshaNode::current`]); the next flush barrier or maintenance tick
//! re-pushes fresh payload under a new lease while the object stays hot,
//! and drops the copies once heat decays below half the spawn threshold
//! (hysteresis). Copies orphaned by a primary failure age out through the
//! regular replica-slot GC: the slot's record carries the routing name,
//! and the new owner's `ReplicaTargetsBySlot` answer will not list the
//! holder.
//!
//! A hot copy is served as the anchor only as a last resort: when its
//! primary has failed and no holder of a full copy answers, the node
//! asked to serve the anchor promotes its own hot copy, or pulls one
//! from a neighbor, rather than lose the anchor. The copy holds the hot
//! files alone, and adopting it journals `hot_only_copy` with their
//! number.

use crate::control::{MigrateItem, MigrateKind, ReplicaOp, ReplicaRequest};
use crate::node::KoshaNode;
use crate::paths::{check_vpath, slot_local_path, Area};
use crate::primary::settle;
use kosha_nfs::{NfsRequest, NfsStatus};
use kosha_rpc::{NodeAddr, RpcRequest, ServiceId};
use kosha_vfs::path::parent_and_name;
use std::collections::BTreeMap;

/// Read heat (milli-units, 1000 = one undecayed read) at which a primary
/// spawns hot copies of an object. Copies shed once decayed heat falls
/// below half this value (hysteresis, so an object oscillating at the
/// threshold does not thrash push/drop RPCs).
pub(crate) const HOT_THRESHOLD_MILLI: u64 = 6_000;

/// Heat below which a still-valid object's copies are dropped.
const HOT_SHED_MILLI: u64 = HOT_THRESHOLD_MILLI / 2;

/// Hot-copy lease in virtual nanoseconds (5 s). A copy is advertised to
/// readers only while its lease is valid; the primary renews leases when
/// it refreshes copies at flush barriers and maintenance ticks, and a
/// write invalidates them at once.
const HOT_LEASE_NANOS: u64 = 5_000_000_000;

/// Primary-side record of one object's outstanding hot copies.
#[derive(Debug, Clone)]
pub(crate) struct HotObject {
    /// Covering anchor of the object (hot state dies with the anchor).
    pub anchor: String,
    /// Nodes currently holding a pushed copy, in push order.
    pub holders: Vec<NodeAddr>,
    /// Primary mutation sequence the outstanding copies reflect; bumped
    /// on every mutation of the object.
    pub seq: u64,
    /// False after a mutation until the next refresh re-pushes fresh
    /// payload. Invalid copies are never advertised to readers.
    pub valid: bool,
    /// Lease expiry (virtual nanoseconds); expired copies are not
    /// advertised even if still valid.
    pub expires_nanos: u64,
}

/// Weight at which the rotor stops giving the primary data-read turns
/// entirely: the primary already pays a targets RPC per read, and a
/// scorching object's data path belongs on the copy holders.
pub(crate) const HOT_ROTOR_FULL_OFFLOAD: u64 = 5;

/// Deterministic heat-weighted read rotor: maps a monotonically
/// increasing turn counter to a read slot. Slot `0` is the primary;
/// slots `1..=targets` are the advertised copy holders, visited
/// round-robin. Each holder slot is repeated `weight` times per cycle,
/// so the primary serves `1/(1 + targets×weight)` of reads — with
/// `weight == 1` (cold object, or the feature off) this is exactly the
/// plain `turn % (targets + 1)` rotor the replica-read path always
/// used, and at [`HOT_ROTOR_FULL_OFFLOAD`] and above the primary serves
/// none at all (pure holder round-robin).
#[must_use]
pub(crate) fn heat_rotor_slot(turn: u64, targets: usize, weight: u64) -> usize {
    if targets == 0 {
        return 0;
    }
    let w = weight.max(1);
    if w >= HOT_ROTOR_FULL_OFFLOAD {
        return 1 + (turn % targets as u64) as usize;
    }
    let total = 1 + targets as u64 * w;
    let x = turn % total;
    if x == 0 {
        0
    } else {
        1 + ((x - 1) % targets as u64) as usize
    }
}

/// Path of `vpath` relative to its covering `anchor` (the
/// [`MigrateItem::rel_path`] convention).
fn anchor_rel(anchor: &str, vpath: &str) -> String {
    if anchor == "/" {
        vpath.strip_prefix('/').unwrap_or("").to_string()
    } else {
        vpath
            .strip_prefix(anchor)
            .map(|r| r.strip_prefix('/').unwrap_or(r))
            .unwrap_or("")
            .to_string()
    }
}

impl KoshaNode {
    fn hot_enabled(&self) -> bool {
        self.cfg.read_from.hot_copies() > 0
    }

    /// Sets the `kosha_hot_copies` gauge to the number of pushed copies
    /// this primary currently tracks (valid or awaiting refresh).
    fn hot_gauge_sync(&self, map: &BTreeMap<String, HotObject>) {
        let n: i64 = map.values().map(|o| o.holders.len() as i64).sum();
        self.obs.registry.gauge("kosha_hot_copies").set(n);
    }

    /// Candidate holders for hot copies: the leaf-set neighbors *past*
    /// the K replica targets, in leaf-set order — deterministic, and by
    /// construction disjoint from the durable replica set.
    fn hot_candidates(&self) -> Vec<NodeAddr> {
        self.pastry
            .replica_targets(self.cfg.replicas + self.cfg.read_from.hot_copies())
            .into_iter()
            .map(|n| n.addr)
            .skip(self.cfg.replicas)
            .collect()
    }

    /// Exports the object's current payload as a push item, or `None`
    /// when it is not (or no longer) a plain local file.
    fn hot_export(&self, anchor: &str, vpath: &str) -> Option<MigrateItem> {
        let store_path = slot_local_path(Area::Store, anchor, vpath);
        self.store.with_store(|v| {
            let (id, attr) = v.resolve(&store_path).ok()?;
            if attr.ftype != kosha_vfs::FileType::Regular {
                return None;
            }
            let (data, _) = v
                .read(id, 0, attr.size.min(u64::from(u32::MAX)) as u32)
                .ok()?;
            Some(MigrateItem {
                rel_path: anchor_rel(anchor, vpath),
                kind: MigrateKind::Bytes(data),
                mode: attr.mode,
                uid: attr.uid,
                gid: attr.gid,
            })
        })
    }

    /// Read-path hook, called from the primary's `ReplicaTargets`
    /// handler: records one unit of heat for `path`, spawns hot copies
    /// when it crosses the threshold, and returns every holder the
    /// primary tracks for it, lease valid or not.
    pub(crate) fn hot_read_extras(&self, path: &str, anchor: &str, now: u64) -> Vec<NodeAddr> {
        if !self.hot_enabled() {
            return Vec::new();
        }
        self.heat.touch(path, now);
        let tracked = self.hot.lock().contains_key(path);
        if !tracked
            && self
                .heat
                .heat_milli_of(path, now)
                .is_some_and(|h| h >= HOT_THRESHOLD_MILLI)
        {
            self.hot_spawn(path, anchor, now);
        }
        let holders = self.hot.lock().get(path).map(|o| o.holders.clone());
        holders.unwrap_or_default()
    }

    /// Pushes fresh copies of `path` to the candidate set and records
    /// the lease, which a spawn starts at `seq` 1.
    fn hot_spawn(&self, path: &str, anchor: &str, now: u64) {
        let Some(routing) = self.routing_of(anchor) else {
            return;
        };
        let Some(item) = self.hot_export(anchor, path) else {
            return;
        };
        let candidates = self.hot_candidates();
        if candidates.is_empty() {
            return;
        }
        let holders = self.hot_push_to(&candidates, anchor, &routing, path, item);
        if holders.is_empty() {
            return;
        }
        self.journal(
            "hot_push",
            format!(
                "spawned {} hot cop(ies) of {path} (lease seq 1)",
                holders.len()
            ),
        );
        let mut map = self.hot.lock();
        map.insert(
            path.to_string(),
            HotObject {
                anchor: anchor.to_string(),
                holders,
                seq: 1,
                valid: true,
                expires_nanos: now + HOT_LEASE_NANOS,
            },
        );
        self.hot_gauge_sync(&map);
    }

    /// Fans one `HotReplicaPush` out to `targets`, returning the subset
    /// that accepted the copy. Counts each success as a hot push.
    fn hot_push_to(
        &self,
        targets: &[NodeAddr],
        anchor: &str,
        routing: &str,
        path: &str,
        item: MigrateItem,
    ) -> Vec<NodeAddr> {
        let req = RpcRequest::new(
            ServiceId::KoshaReplica,
            &ReplicaRequest::HotReplicaPush {
                anchor: anchor.to_string(),
                routing: routing.to_string(),
                path: path.to_string(),
                item,
            },
        );
        let batch = targets.iter().map(|a| (*a, req.clone())).collect();
        let results = self.net.call_many(self.info.addr, batch);
        let mut ok = Vec::new();
        for (addr, result) in targets.iter().zip(results) {
            if crate::primary::mirror_succeeded(result) {
                self.stats.hot_pushes.inc();
                ok.push(*addr);
            }
        }
        ok
    }

    /// Revokes the copies on `holders` (best-effort; a holder that
    /// misses the drop converges through replica-slot GC).
    fn hot_drop_on(&self, holders: &[NodeAddr], anchor: &str, path: &str) {
        if holders.is_empty() {
            return;
        }
        let req = RpcRequest::new(
            ServiceId::KoshaReplica,
            &ReplicaRequest::HotReplicaDrop {
                anchor: anchor.to_string(),
                path: path.to_string(),
            },
        );
        let batch = holders.iter().map(|a| (*a, req.clone())).collect();
        let _ = self.net.call_many(self.info.addr, batch);
        self.stats.hot_drops.add(holders.len() as u64);
    }

    /// Mutation hook: voids `path`'s hot-copy leases *before* the
    /// mutation is acknowledged. From this moment `ReplicaTargets` stops
    /// advertising the holders, so no reader can be steered to pre-write
    /// data; the copies themselves are refreshed or dropped later.
    pub(crate) fn hot_invalidate(&self, path: &str) {
        if !self.hot_enabled() {
            return;
        }
        let mut map = self.hot.lock();
        if let Some(o) = map.get_mut(path) {
            o.seq += 1;
            if o.valid {
                o.valid = false;
                self.stats.hot_lease_invalidations.inc();
                drop(map);
                self.journal(
                    "hot_lease_invalidate",
                    format!("write to hot object {path} voided its copy leases"),
                );
            }
        }
    }

    /// Takes every tracked hot object `dead` picks out of the map,
    /// forgetting its heat and revoking its copies.
    fn hot_take(&self, dead: impl Fn(&str, &HotObject) -> bool) -> Vec<(String, HotObject)> {
        let victims: Vec<(String, HotObject)> =
            self.hot.lock().extract_if(.., |p, o| dead(p, o)).collect();
        for (path, o) in &victims {
            self.heat.forget(path);
            self.hot_drop_on(&o.holders, &o.anchor, path);
        }
        if !victims.is_empty() {
            self.hot_gauge_sync(&self.hot.lock());
        }
        victims
    }

    /// Removal hook: the name `path` stops meaning its object, and if
    /// that is a directory so does every name under it (a rename moves
    /// the whole subtree). Forgets their heat and revokes their hot
    /// copies; there is nothing left to refresh.
    pub(crate) fn hot_forget_object(&self, path: &str) {
        self.heat.forget(path);
        if !self.hot_enabled() {
            return;
        }
        let below = format!("{path}/");
        for (gone, o) in self.hot_take(|p, _| p == path || p.starts_with(&below)) {
            self.journal(
                "hot_drop",
                format!(
                    "removed object {gone}: revoked {} hot cop(ies)",
                    o.holders.len()
                ),
            );
        }
    }

    /// Anchor teardown hook (rmdir of an anchor, demotion, migration
    /// away): drops every hot object the anchor covers.
    pub(crate) fn hot_forget_anchor(&self, anchor: &str) {
        if !self.hot_enabled() {
            return;
        }
        let victims = self.hot_take(|_, o| o.anchor == anchor);
        if !victims.is_empty() {
            self.journal(
                "hot_drop",
                format!(
                    "anchor {anchor} left this node: revoked hot copies of {} object(s)",
                    victims.len()
                ),
            );
        }
    }

    /// Lease upkeep, piggybacked on [`KoshaNode::maintain`] (with
    /// `refresh_valid`) and on every write-behind flush barrier (without,
    /// so barriers only repair what a mutation invalidated):
    ///
    /// * heat below the shed threshold → revoke the copies and journal a
    ///   `hot_drop` (the decay path, mirroring `replica_gc`'s logging);
    /// * lease voided by a mutation → re-push fresh payload under a new
    ///   lease;
    /// * (`refresh_valid`) lease nearing expiry on a still-hot object →
    ///   renew it; holders that left the candidate set are revoked and
    ///   replaced.
    pub(crate) fn hot_sweep(&self, refresh_valid: bool) {
        if !self.hot_enabled() {
            return;
        }
        let snapshot: Vec<(String, HotObject)> = {
            let map = self.hot.lock();
            if map.is_empty() {
                return;
            }
            map.iter().map(|(p, o)| (p.clone(), o.clone())).collect()
        };
        let now = self.clock.now().0;
        for (path, o) in snapshot {
            let heat = self.heat.heat_milli_of(&path, now).unwrap_or(0);
            if heat < HOT_SHED_MILLI {
                let removed = self.hot.lock().remove(&path);
                if let Some(o) = removed {
                    self.hot_drop_on(&o.holders, &o.anchor, &path);
                    self.journal(
                        "hot_drop",
                        format!(
                            "heat of {path} decayed to {heat} (< {HOT_SHED_MILLI}): revoked {} hot cop(ies)",
                            o.holders.len()
                        ),
                    );
                    self.hot_gauge_sync(&self.hot.lock());
                }
                continue;
            }
            let lease_low = o.expires_nanos.saturating_sub(now) < HOT_LEASE_NANOS / 4;
            if !o.valid || (refresh_valid && lease_low) {
                self.hot_refresh(&path, &o, now);
            }
        }
    }

    /// Re-pushes fresh payload for a still-hot object under a new lease,
    /// re-aiming at the current candidate set (leaf churn may have moved
    /// it). Only commits the new lease if the tracked generation has not
    /// changed underneath the push (a concurrent write re-invalidates).
    fn hot_refresh(&self, path: &str, o: &HotObject, now: u64) {
        let Some(routing) = self.routing_of(&o.anchor) else {
            // No longer the primary for this anchor: forget the state;
            // holders converge through replica-slot GC.
            self.hot.lock().remove(path);
            self.hot_gauge_sync(&self.hot.lock());
            return;
        };
        let Some(item) = self.hot_export(&o.anchor, path) else {
            self.hot_forget_object(path);
            return;
        };
        let candidates = self.hot_candidates();
        let stale: Vec<NodeAddr> = o
            .holders
            .iter()
            .copied()
            .filter(|a| !candidates.contains(a))
            .collect();
        self.hot_drop_on(&stale, &o.anchor, path);
        if candidates.is_empty() {
            self.hot.lock().remove(path);
            self.hot_gauge_sync(&self.hot.lock());
            return;
        }
        let holders = self.hot_push_to(&candidates, &o.anchor, &routing, path, item);
        let mut map = self.hot.lock();
        match map.get_mut(path) {
            // A mutation may have raced the push fan-out; its seq bump
            // makes the entry visibly newer than the payload we shipped,
            // and the lease must then stay void until the next sweep.
            Some(cur) if cur.seq == o.seq => {
                cur.holders = holders;
                cur.seq += 1;
                cur.valid = true;
                cur.expires_nanos = now + HOT_LEASE_NANOS;
            }
            Some(cur) => {
                cur.holders = holders;
            }
            None => {}
        }
        self.hot_gauge_sync(&map);
    }

    /// Hot-copy holders the anchor's owner still vouches for, appended
    /// to `ReplicaTargetsBySlot` GC answers so active hot slots survive
    /// the replica-slot GC while orphaned ones (dead or demoted primary)
    /// are collected.
    pub(crate) fn hot_holders_for_anchor(&self, anchor: &str) -> Vec<NodeAddr> {
        if !self.hot_enabled() {
            return Vec::new();
        }
        let map = self.hot.lock();
        let mut out = Vec::new();
        for o in map.values() {
            if o.anchor == anchor {
                for a in &o.holders {
                    if !out.contains(a) {
                        out.push(*a);
                    }
                }
            }
        }
        out
    }

    // ---- the holder (replica-service) side --------------------------------

    /// `HotReplicaPush` handler: materializes the pushed copy in the
    /// local replica area and lists its path in the slot's record. The
    /// lease stays with the primary, which alone decides when the copy
    /// may be read. Local state only — the payload rides in the request —
    /// preserving the replica service's no-nested-RPC discipline.
    pub(crate) fn receive_hot_push(
        &self,
        anchor: &str,
        routing: &str,
        path: &str,
        item: &MigrateItem,
    ) -> Result<(), NfsStatus> {
        check_vpath(path)?;
        let MigrateKind::Bytes(data) = &item.kind else {
            return Err(NfsStatus::Inval); // only plain files go hot
        };
        // The copy lands exactly where a durable replica of the object
        // would live, so the client's replica-read path serves it with
        // no special casing.
        let (pp, name) = parent_and_name(path).ok_or(NfsStatus::Inval)?;
        let dir = self.slot_fh(Area::Replica, anchor, pp, true)?;
        self.replace_file(dir, name, (item.mode, item.uid, item.gid), data.clone())?;
        self.slot_update(Area::Replica, anchor, |m| {
            // The routing name lets replica-slot GC ask the owner about
            // this slot even though no full replica push ever named it.
            m.routing.get_or_insert_with(|| routing.to_string());
            if let Err(at) = m.hot.binary_search_by(|p| p.as_str().cmp(path)) {
                m.hot.insert(at, path.to_string());
            }
        });
        Ok(())
    }

    /// `HotReplicaDrop` handler: removes the hot copy and its path from
    /// the slot's record. A no-op when the record lists no copy at the
    /// path — in particular when this holder has since been promoted to a
    /// durable replica target (the full push's bracket replace reset the
    /// record, and the file now *is* the replica). When the last copy
    /// goes, the slot held nothing but hot copies, so the whole slot is
    /// removed.
    pub(crate) fn receive_hot_drop(&self, anchor: &str, path: &str) -> Result<(), NfsStatus> {
        check_vpath(path)?;
        let copies = self.slot_meta(Area::Replica, anchor).map(|m| m.hot);
        let mut copies = copies.unwrap_or_default();
        let before = copies.len();
        copies.retain(|p| p != path);
        if copies.len() == before {
            return Ok(()); // no copy at that path here
        }
        if copies.is_empty() {
            // Drop the entire slot; it existed only for hot copies.
            let drop_slot = ReplicaOp::RemoveSlot {
                anchor: anchor.to_string(),
            };
            return self.apply_op(Area::Replica, &drop_slot).map(|_| ());
        }
        let (pp, name) = parent_and_name(path).ok_or(NfsStatus::Inval)?;
        if let Ok(dir) = self.slot_fh(Area::Replica, anchor, pp, false) {
            let r = self.apply(NfsRequest::Remove {
                dir,
                name: name.to_string(),
            });
            settle(Area::Replica, r, NfsStatus::NoEnt)?;
        }
        self.slot_update(Area::Replica, anchor, |m| m.hot = copies);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotor_weight_one_is_the_plain_round_robin() {
        // weight 1 must reproduce `turn % (targets + 1)` exactly — the
        // selection the replica-read path shipped with before heat
        // weighting existed (bench baselines depend on it).
        for targets in 1..5usize {
            for turn in 0..50u64 {
                let want = (turn % (targets as u64 + 1)) as usize;
                assert_eq!(heat_rotor_slot(turn, targets, 1), want);
            }
        }
    }

    #[test]
    fn rotor_weight_shrinks_the_primary_share() {
        // 3 targets at weight 4: the primary serves 1 read in 13.
        let mut primary = 0;
        let mut per_target = [0u32; 3];
        for turn in 0..13_000u64 {
            match heat_rotor_slot(turn, 3, 4) {
                0 => primary += 1,
                s => per_target[s - 1] += 1,
            }
        }
        assert_eq!(primary, 1000);
        assert_eq!(per_target, [4000, 4000, 4000]);
    }

    #[test]
    fn rotor_is_deterministic_for_a_fixed_seed() {
        // Property: for any seeded sequence of (turn, targets, weight)
        // triples, two evaluations agree — the rotor is a pure function
        // of its inputs, so read spreading cannot depend on timing.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let sample = |seed: u64| -> Vec<usize> {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..512)
                .map(|_| {
                    let turn = rng.random_range(0..u64::MAX);
                    let targets = rng.random_range(0..8usize);
                    let weight = rng.random_range(0..6u64);
                    heat_rotor_slot(turn, targets, weight)
                })
                .collect()
        };
        assert_eq!(sample(42), sample(42));
        assert_eq!(sample(7), sample(7));
        // And every slot stays in range.
        for s in sample(42) {
            assert!(s <= 8);
        }
    }

    #[test]
    fn rotor_full_offload_never_picks_primary() {
        // At the weight cap the primary serves no data reads: the
        // holders take a pure round-robin.
        for turn in 0..30u64 {
            let slot = heat_rotor_slot(turn, 3, HOT_ROTOR_FULL_OFFLOAD);
            assert_eq!(slot, 1 + (turn % 3) as usize);
        }
        // ...unless there are no holders to offload to.
        assert_eq!(heat_rotor_slot(9, 0, HOT_ROTOR_FULL_OFFLOAD), 0);
    }

    #[test]
    fn rotor_no_targets_always_primary() {
        for turn in 0..10 {
            assert_eq!(heat_rotor_slot(turn, 0, 3), 0);
        }
    }

    #[test]
    fn anchor_rel_matches_slot_layout() {
        assert_eq!(anchor_rel("/", "/f.txt"), "f.txt");
        assert_eq!(anchor_rel("/a", "/a/b/c"), "b/c");
        assert_eq!(anchor_rel("/a", "/a"), "");
    }
}
