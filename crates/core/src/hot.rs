//! Heat-driven read scaling (DESIGN.md §16): popularity-aware cached
//! replicas beyond K.
//!
//! The K durable replicas of §4.2 spread read load by a constant factor,
//! but a Zipf-popular object still funnels most of its reads through one
//! primary and K neighbors. This module lets a primary react to measured
//! demand: each primary feeds its [`kosha_obs::ReadHeat`] sketch from the
//! `ReplicaTargets` read-path RPC, and when an object's decayed heat
//! crosses [`crate::KoshaConfig::hot_threshold_milli`] it pushes up to
//! [`crate::KoshaConfig::hot_replicas`] extra **read-only cached copies**
//! onto the next leaf-set neighbors past the K replica targets.
//!
//! A hot copy is not a durable replica: it never counts toward K, is
//! never promoted, and is advertised to readers only while it holds a
//! **lease** — a `(mutation sequence, expiry)` pair stamped into the
//! holding slot's `.kosha_hot` marker. Any mutation of the object voids
//! the lease at the primary *before the mutation is acknowledged*, so a
//! reader that re-fetches targets (every `/kosha` read does) can never be
//! steered to pre-write data; the next flush barrier or maintenance tick
//! re-pushes fresh payload under a new lease while the object stays hot,
//! and drops the copies once heat decays below half the spawn threshold
//! (hysteresis). Copies orphaned by a primary failure age out through the
//! regular replica-slot GC: the slot carries a `.kosha_anchor`, and the
//! new owner's `ReplicaTargetsBySlot` answer will not list the holder.

use crate::control::{KoshaRequest, MigrateItem, MigrateKind, ReplicaOp};
use crate::node::KoshaNode;
use crate::paths::{anchor_slot, check_vpath, slot_local_path, Area, ANCHOR_META, HOT_MARK};
use crate::primary::settle;
use kosha_nfs::{NfsReply, NfsRequest, NfsStatus};
use kosha_rpc::{NodeAddr, RpcRequest, ServiceId};
use kosha_vfs::path::parent_and_name;
use std::collections::BTreeMap;

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
        self.cfg.hot_replicas > 0
    }

    /// Heat a mutation-free read shed to cooled copies: below half the
    /// spawn threshold the copies are dropped (hysteresis).
    fn hot_shed_milli(&self) -> u64 {
        self.cfg.hot_threshold_milli / 2
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
            .replica_targets(self.cfg.replicas + self.cfg.hot_replicas)
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
    /// when it crosses the threshold, and returns the holders a reader
    /// may be steered to (valid, unexpired leases only).
    pub(crate) fn hot_read_extras(&self, path: &str, anchor: &str) -> Vec<NodeAddr> {
        if !self.hot_enabled() {
            return Vec::new();
        }
        let now = self.net.clock().now().0;
        self.heat.touch(path, now);
        let tracked = self.hot.lock().contains_key(path);
        if !tracked
            && self
                .heat
                .heat_milli_of(path, now)
                .is_some_and(|h| h >= self.cfg.hot_threshold_milli)
        {
            self.hot_spawn(path, anchor, now);
        }
        let map = self.hot.lock();
        match map.get(path) {
            Some(o) if o.valid && now < o.expires_nanos => o.holders.clone(),
            _ => Vec::new(),
        }
    }

    /// Pushes fresh copies of `path` to the candidate set and records
    /// the lease. `seq` continuity: a re-spawn after a drop starts a new
    /// lease generation, readers only ever see the latest.
    fn hot_spawn(&self, path: &str, anchor: &str, now: u64) {
        let Some(routing) = self.anchors.lock().get(anchor).cloned() else {
            return;
        };
        let Some(item) = self.hot_export(anchor, path) else {
            return;
        };
        let candidates = self.hot_candidates();
        if candidates.is_empty() {
            return;
        }
        let seq = self.hot.lock().get(path).map_or(1, |o| o.seq + 1);
        let expires = now + self.cfg.hot_lease_nanos;
        let holders = self.hot_push_to(&candidates, anchor, &routing, path, seq, expires, item);
        if holders.is_empty() {
            return;
        }
        self.journal(
            "hot_push",
            format!(
                "spawned {} hot cop(ies) of {path} (lease seq {seq})",
                holders.len()
            ),
        );
        let mut map = self.hot.lock();
        map.insert(
            path.to_string(),
            HotObject {
                anchor: anchor.to_string(),
                holders,
                seq,
                valid: true,
                expires_nanos: expires,
            },
        );
        self.hot_gauge_sync(&map);
    }

    /// Fans one `HotReplicaPush` out to `targets`, returning the subset
    /// that accepted the copy. Counts each success as a hot push.
    #[allow(clippy::too_many_arguments)]
    fn hot_push_to(
        &self,
        targets: &[NodeAddr],
        anchor: &str,
        routing: &str,
        path: &str,
        seq: u64,
        expires_nanos: u64,
        item: MigrateItem,
    ) -> Vec<NodeAddr> {
        let req = RpcRequest::new(
            ServiceId::KoshaReplica,
            &KoshaRequest::HotReplicaPush {
                anchor: anchor.to_string(),
                routing: routing.to_string(),
                path: path.to_string(),
                seq,
                expires_nanos,
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
            &KoshaRequest::HotReplicaDrop {
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
        let now = self.net.clock().now().0;
        for (path, o) in snapshot {
            let heat = self.heat.heat_milli_of(&path, now).unwrap_or(0);
            if heat < self.hot_shed_milli() {
                let removed = self.hot.lock().remove(&path);
                if let Some(o) = removed {
                    self.hot_drop_on(&o.holders, &o.anchor, &path);
                    self.journal(
                        "hot_drop",
                        format!(
                            "heat of {path} decayed to {heat} (< {}): revoked {} hot cop(ies)",
                            self.hot_shed_milli(),
                            o.holders.len()
                        ),
                    );
                    self.hot_gauge_sync(&self.hot.lock());
                }
                continue;
            }
            let lease_low = o.expires_nanos.saturating_sub(now) < self.cfg.hot_lease_nanos / 4;
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
        let Some(routing) = self.anchors.lock().get(&o.anchor).cloned() else {
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
        let seq = o.seq + 1;
        let expires = now + self.cfg.hot_lease_nanos;
        let holders = self.hot_push_to(&candidates, &o.anchor, &routing, path, seq, expires, item);
        let mut map = self.hot.lock();
        match map.get_mut(path) {
            // A mutation may have raced the push fan-out; its seq bump
            // makes the entry visibly newer than the payload we shipped,
            // and the lease must then stay void until the next sweep.
            Some(cur) if cur.seq == o.seq => {
                cur.holders = holders;
                cur.seq = seq;
                cur.valid = true;
                cur.expires_nanos = expires;
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
    pub(crate) fn hot_holders_for_slot(&self, slot: &str) -> Vec<NodeAddr> {
        if !self.hot_enabled() {
            return Vec::new();
        }
        let map = self.hot.lock();
        let mut out = Vec::new();
        for o in map.values() {
            if anchor_slot(&o.anchor) == slot {
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

    /// Parses the local slot's `.kosha_hot` marker:
    /// `(path, seq, expires)` per line, sorted by path.
    fn read_hot_mark(&self, anchor: &str) -> Vec<(String, u64, u64)> {
        let mark = format!(
            "{}/{}",
            slot_local_path(Area::Replica, anchor, anchor),
            HOT_MARK
        );
        let Some(text) = self.read_text(&mark) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for line in text.lines() {
            let mut it = line.rsplitn(3, ' ');
            let (Some(exp), Some(seq), Some(path)) = (it.next(), it.next(), it.next()) else {
                continue;
            };
            if let (Ok(seq), Ok(exp)) = (seq.parse(), exp.parse()) {
                out.push((path.to_string(), seq, exp));
            }
        }
        out
    }

    /// Rewrites the slot's `.kosha_hot` marker (sorted, one lease per
    /// line), or removes it when no leases remain.
    fn write_hot_mark(
        &self,
        anchor: &str,
        mut leases: Vec<(String, u64, u64)>,
    ) -> Result<(), NfsStatus> {
        let dir = self.slot_fh(Area::Replica, anchor, anchor)?;
        if leases.is_empty() {
            let r = self.apply(NfsRequest::Remove {
                dir,
                name: HOT_MARK.into(),
            });
            return settle(Area::Replica, r, NfsStatus::NoEnt).map(|_| ());
        }
        leases.sort();
        let mut text = String::new();
        for (path, seq, exp) in &leases {
            text.push_str(&format!("{path} {seq} {exp}\n"));
        }
        self.replace_file(dir, HOT_MARK, (0o600, 0, 0), text.into_bytes().into())
            .map(|_| ())
    }

    /// `HotReplicaPush` handler: materializes the pushed copy in the
    /// local replica area and stamps its lease into `.kosha_hot`. Local
    /// state only — the payload rides in the request — preserving the
    /// replica service's no-nested-RPC discipline.
    pub(crate) fn receive_hot_push(
        &self,
        anchor: &str,
        routing: &str,
        path: &str,
        seq: u64,
        expires_nanos: u64,
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
        let dir = self.slot_fh(Area::Replica, anchor, pp)?;
        self.replace_file(dir, name, (item.mode, item.uid, item.gid), data.clone())?;
        // Record the anchor's routing name so replica-slot GC can ask
        // the owner about this slot even though no full replica push
        // ever wrote the meta here.
        let root = self.slot_fh(Area::Replica, anchor, anchor)?;
        if let Err(NfsStatus::NoEnt) = self
            .apply(NfsRequest::Lookup {
                dir: root,
                name: ANCHOR_META.into(),
            })
            .map(|_| ())
        {
            if let NfsReply::Handle { fh, .. } = self.apply(NfsRequest::Create {
                dir: root,
                name: ANCHOR_META.into(),
                mode: 0o600,
                uid: 0,
                gid: 0,
            })? {
                self.apply(NfsRequest::Write {
                    fh,
                    offset: 0,
                    data: routing.as_bytes().into(),
                })?;
            }
        }
        let mut leases = self.read_hot_mark(anchor);
        leases.retain(|(p, _, _)| p != path);
        leases.push((path.to_string(), seq, expires_nanos));
        self.write_hot_mark(anchor, leases)
    }

    /// `HotReplicaDrop` handler: removes the leased copy and its marker
    /// line. A no-op when the slot carries no `.kosha_hot` lease for the
    /// path — in particular when this holder has since been promoted to
    /// a durable replica target (the full push's bracket replace cleared
    /// the marker, and the file now *is* the replica). When the last
    /// lease goes, the slot held nothing but hot copies, so the whole
    /// slot is removed.
    pub(crate) fn receive_hot_drop(&self, anchor: &str, path: &str) -> Result<(), NfsStatus> {
        check_vpath(path)?;
        let mut leases = self.read_hot_mark(anchor);
        let before = leases.len();
        leases.retain(|(p, _, _)| p != path);
        if leases.len() == before {
            return Ok(()); // nothing leased under that path here
        }
        if leases.is_empty() {
            // Drop the entire slot; it existed only for hot copies.
            let drop_slot = ReplicaOp::RemoveSlot {
                anchor: anchor.to_string(),
            };
            return self.apply_op(Area::Replica, &drop_slot, None).map(|_| ());
        }
        let (pp, name) = parent_and_name(path).ok_or(NfsStatus::Inval)?;
        let dirp = slot_local_path(Area::Replica, anchor, pp);
        if let Ok(dir) = self.fh_of(&dirp) {
            let r = self.apply(NfsRequest::Remove {
                dir,
                name: name.to_string(),
            });
            settle(Area::Replica, r, NfsStatus::NoEnt)?;
        }
        self.write_hot_mark(anchor, leases)
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
