//! Per-node overlay state: the prefix routing table and the leaf set.

use crate::messages::NodeInfo;
use kosha_id::{Id, DIGITS, DIGIT_BASE};
use kosha_rpc::NodeAddr;

/// Pastry routing table: `DIGITS` rows × `DIGIT_BASE` columns. The entry at
/// `(row, col)` is a node whose id shares the first `row` digits with this
/// node's id and whose digit `row` equals `col`.
#[derive(Debug, Clone)]
pub struct RoutingTable {
    me: Id,
    rows: Vec<[Option<NodeInfo>; DIGIT_BASE]>,
}

impl RoutingTable {
    /// Empty table for a node with id `me`.
    #[must_use]
    pub fn new(me: Id) -> Self {
        RoutingTable {
            me,
            rows: vec![[None; DIGIT_BASE]; DIGITS],
        }
    }

    /// The coordinates `node` would occupy, or `None` for our own id.
    fn slot(&self, id: Id) -> Option<(usize, usize)> {
        if id == self.me {
            return None;
        }
        let row = self.me.shared_prefix_digits(id);
        let col = id.digit(row) as usize;
        Some((row, col))
    }

    /// Inserts `node` if its slot is empty: the first-known node wins,
    /// and the same id refreshes its address in place. Returns true if
    /// inserted.
    pub fn insert(&mut self, node: NodeInfo) -> bool {
        let Some((row, col)) = self.slot(node.id) else {
            return false;
        };
        match &mut self.rows[row][col] {
            slot @ None => {
                *slot = Some(node);
                true
            }
            Some(e) => {
                if e.id == node.id {
                    *e = node;
                }
                false
            }
        }
    }

    /// Removes any entry with the given address, returning how many were
    /// removed (an address appears at most once, but a reincarnated node
    /// may briefly exist under two ids).
    pub fn remove_addr(&mut self, addr: NodeAddr) -> usize {
        let mut n = 0;
        for row in &mut self.rows {
            for e in row.iter_mut() {
                if e.map(|x| x.addr) == Some(addr) {
                    *e = None;
                    n += 1;
                }
            }
        }
        n
    }

    /// The routing entry for `key`: row = shared prefix length with our
    /// id, column = the key's digit at that row.
    #[must_use]
    pub fn entry_for(&self, key: Id) -> Option<NodeInfo> {
        let row = self.me.shared_prefix_digits(key);
        if row >= DIGITS {
            return None; // key == me
        }
        self.rows[row][key.digit(row) as usize]
    }

    /// All populated entries of row `row`.
    #[must_use]
    pub fn row_entries(&self, row: usize) -> Vec<NodeInfo> {
        if row >= DIGITS {
            return Vec::new();
        }
        self.rows[row].iter().flatten().copied().collect()
    }

    /// Every populated entry in the table.
    #[must_use]
    pub fn all_entries(&self) -> Vec<NodeInfo> {
        self.rows
            .iter()
            .flat_map(|r| r.iter().flatten().copied())
            .collect()
    }

    /// Number of populated entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.iter().flatten().flatten().count()
    }

    /// True if no entries are populated.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The leaf set: up to `l/2` nodes on each side of this node's id. With a
/// small ring the two sides may overlap (the same node can be both the
/// clockwise and counter-clockwise neighbor).
#[derive(Debug, Clone)]
pub struct LeafSet {
    me: Id,
    half: usize,
    /// Clockwise neighbors, ascending clockwise distance from `me`.
    cw: Vec<NodeInfo>,
    /// Counter-clockwise neighbors, ascending counter-clockwise distance.
    ccw: Vec<NodeInfo>,
}

impl LeafSet {
    /// Empty leaf set holding up to `l/2 = half` nodes per side.
    #[must_use]
    pub fn new(me: Id, half: usize) -> Self {
        assert!(half >= 1, "leaf set needs at least one node per side");
        LeafSet {
            me,
            half,
            cw: Vec::with_capacity(half + 1),
            ccw: Vec::with_capacity(half + 1),
        }
    }

    /// Inserts `node` into whichever side(s) it belongs to. Returns true
    /// if membership changed.
    pub fn insert(&mut self, node: NodeInfo) -> bool {
        if node.id == self.me {
            return false;
        }
        let mut changed = false;
        changed |= Self::insert_side(&mut self.cw, self.half, node, |n| self.me.cw_distance(n.id));
        changed |= Self::insert_side(&mut self.ccw, self.half, node, |n| {
            n.id.cw_distance(self.me)
        });
        changed
    }

    fn insert_side<F: Fn(&NodeInfo) -> u128>(
        side: &mut Vec<NodeInfo>,
        half: usize,
        node: NodeInfo,
        dist: F,
    ) -> bool {
        if side.iter().any(|n| n.id == node.id) {
            return false;
        }
        let d = dist(&node);
        let pos = side.partition_point(|n| dist(n) < d);
        if pos >= half {
            return false;
        }
        side.insert(pos, node);
        if side.len() > half {
            side.pop();
        }
        true
    }

    /// Removes the node at `addr`; returns the removed infos (possibly the
    /// same node from both sides, deduplicated).
    pub fn remove_addr(&mut self, addr: NodeAddr) -> Vec<NodeInfo> {
        let mut removed = Vec::new();
        for side in [&mut self.cw, &mut self.ccw] {
            if let Some(pos) = side.iter().position(|n| n.addr == addr) {
                let n = side.remove(pos);
                if !removed.iter().any(|r: &NodeInfo| r.id == n.id) {
                    removed.push(n);
                }
            }
        }
        removed
    }

    /// All distinct members, both sides.
    #[must_use]
    pub fn members(&self) -> Vec<NodeInfo> {
        let mut out: Vec<NodeInfo> = Vec::with_capacity(self.cw.len() + self.ccw.len());
        for n in self.cw.iter().chain(self.ccw.iter()) {
            if !out.iter().any(|m| m.id == n.id) {
                out.push(*n);
            }
        }
        out
    }

    /// True if `id` is currently a member.
    #[must_use]
    pub fn contains(&self, id: Id) -> bool {
        self.cw.iter().chain(self.ccw.iter()).any(|n| n.id == id)
    }

    /// Whether the leaf set's id range covers `key`, i.e. the owner of
    /// `key` is guaranteed to be this node or a member. When a side holds
    /// fewer than `half` nodes the set spans every node we have ever seen
    /// in that direction, so coverage is assumed (this makes tiny overlays
    /// route in one hop, matching Section 6.1.1's observation).
    #[must_use]
    pub fn covers(&self, key: Id) -> bool {
        if self.cw.len() < self.half || self.ccw.len() < self.half {
            return true;
        }
        // Overlapping sides mean the leaf set wraps the entire ring (the
        // overlay has at most `l` nodes): every key is covered.
        if self
            .cw
            .iter()
            .any(|n| self.ccw.iter().any(|m| m.id == n.id))
        {
            return true;
        }
        let lo = self.ccw.last().expect("non-empty").id;
        let hi = self.cw.last().expect("non-empty").id;
        // Arc from lo (inclusive) clockwise through me to hi (inclusive).
        key == lo || lo.cw_contains(key, hi)
    }

    /// The member (or `me`, represented by `None`) numerically closest to
    /// `key`, skipping excluded addresses. Returns `None` when this node
    /// itself is closest.
    #[must_use]
    pub fn closest_to(&self, key: Id, exclude: &[NodeAddr]) -> Option<NodeInfo> {
        let mut best: Option<NodeInfo> = None;
        let mut best_id = self.me;
        for n in self.members() {
            if exclude.contains(&n.addr) {
                continue;
            }
            let winner = key.closer_of(best_id, n.id);
            if winner == n.id && winner != best_id {
                best = Some(n);
                best_id = n.id;
            }
        }
        best
    }

    /// Replica placement: the `k` members nearest to this node, alternating
    /// sides (cw first), mirroring the paper's "K replicas of a file on the
    /// neighboring K nodes in the node-identifier space".
    #[must_use]
    pub fn replica_targets(&self, k: usize) -> Vec<NodeInfo> {
        let mut out: Vec<NodeInfo> = Vec::with_capacity(k);
        let mut i = 0;
        while out.len() < k && (i < self.cw.len() || i < self.ccw.len()) {
            for side in [&self.cw, &self.ccw] {
                if out.len() >= k {
                    break;
                }
                if let Some(n) = side.get(i) {
                    if !out.iter().any(|m| m.id == n.id) {
                        out.push(*n);
                    }
                }
            }
            i += 1;
        }
        out
    }

    /// The most distant member on each side (used to fetch fresh leaf sets
    /// during repair).
    #[must_use]
    pub fn extremes(&self) -> Vec<NodeInfo> {
        let mut out = Vec::new();
        if let Some(n) = self.cw.last() {
            out.push(*n);
        }
        if let Some(n) = self.ccw.last() {
            if !out.iter().any(|m: &NodeInfo| m.id == n.id) {
                out.push(*n);
            }
        }
        out
    }

    /// Number of distinct members.
    #[must_use]
    pub fn len(&self) -> usize {
        self.members().len()
    }

    /// True if the set has no members.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cw.is_empty() && self.ccw.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ni(id: u128, addr: u64) -> NodeInfo {
        NodeInfo {
            id: Id(id),
            addr: NodeAddr(addr),
        }
    }

    #[test]
    fn routing_table_slots() {
        let me = Id(0xAB00_0000_0000_0000_0000_0000_0000_0000);
        let mut rt = RoutingTable::new(me);
        // Shares 1 digit (A), differs at row 1 with digit C.
        let n = ni(0xAC00_0000_0000_0000_0000_0000_0000_0000, 1);
        assert!(rt.insert(n));
        assert!(!rt.insert(n));
        assert_eq!(rt.len(), 1);
        assert_eq!(rt.row_entries(1), vec![n]);
        // entry_for a key with the same prefix pattern finds it.
        let key = Id(0xAC12_3400_0000_0000_0000_0000_0000_0000);
        assert_eq!(rt.entry_for(key), Some(n));
        // Our own id can't be inserted.
        assert!(!rt.insert(ni(me.0, 9)));
        assert_eq!(rt.remove_addr(NodeAddr(1)), 1);
        assert!(rt.is_empty());
    }

    #[test]
    fn routing_table_first_wins_but_same_id_refreshes() {
        let me = Id(0);
        let mut rt = RoutingTable::new(me);
        let a = ni(0x1000_0000_0000_0000_0000_0000_0000_0000, 1);
        let b = ni(0x1000_0000_0000_0000_0000_0000_0000_0001, 2);
        assert!(rt.insert(a));
        // b maps to a different slot (longer shared prefix with... actually
        // b shares 0 digits with me and digit0=1, same slot as a): not inserted.
        assert!(!rt.insert(b));
        assert_eq!(rt.all_entries(), vec![a]);
        // Same id, new address: refreshed in place.
        let a2 = ni(a.id.0, 7);
        assert!(!rt.insert(a2));
        assert_eq!(rt.all_entries(), vec![a2]);
    }

    #[test]
    fn leafset_orders_and_caps() {
        let me = Id(100);
        let mut ls = LeafSet::new(me, 2);
        for (id, addr) in [(110u128, 1u64), (120, 2), (130, 3), (90, 4), (80, 5)] {
            ls.insert(ni(id, addr));
        }
        // cw side: 110, 120 (130 evicted); ccw side: 90, 80.
        let m: Vec<u128> = ls.members().iter().map(|n| n.id.0).collect();
        assert!(m.contains(&110) && m.contains(&120) && m.contains(&90) && m.contains(&80));
        assert!(!m.contains(&130));
        assert_eq!(ls.len(), 4);
    }

    #[test]
    fn leafset_small_ring_overlap() {
        let me = Id(100);
        let mut ls = LeafSet::new(me, 4);
        // Only two other nodes: both sides hold both.
        ls.insert(ni(200, 1));
        ls.insert(ni(50, 2));
        assert_eq!(ls.len(), 2);
        // Not full => covers everything.
        assert!(ls.covers(Id(0)));
        assert!(ls.covers(Id(u128::MAX)));
    }

    #[test]
    fn leafset_covers_range_when_full() {
        let me = Id(100);
        let mut ls = LeafSet::new(me, 1);
        ls.insert(ni(150, 1)); // cw
        ls.insert(ni(60, 2)); // ccw
        assert!(ls.covers(Id(100)));
        assert!(ls.covers(Id(120)));
        assert!(ls.covers(Id(60)));
        assert!(ls.covers(Id(150)));
        assert!(!ls.covers(Id(200)));
        assert!(!ls.covers(Id(10)));
    }

    #[test]
    fn closest_to_picks_owner_side() {
        let me = Id(100);
        let mut ls = LeafSet::new(me, 2);
        ls.insert(ni(150, 1));
        ls.insert(ni(60, 2));
        // Key 140: node 150 is closest.
        assert_eq!(ls.closest_to(Id(140), &[]).unwrap().id, Id(150));
        // Key 101: we are closest -> None.
        assert!(ls.closest_to(Id(101), &[]).is_none());
        // Excluding 150, key 140: me (dist 40) beats 60 (dist 80) -> None.
        assert!(ls.closest_to(Id(140), &[NodeAddr(1)]).is_none());
    }

    #[test]
    fn replica_targets_alternate_sides() {
        let me = Id(1000);
        let mut ls = LeafSet::new(me, 3);
        ls.insert(ni(1100, 1));
        ls.insert(ni(1200, 2));
        ls.insert(ni(900, 3));
        ls.insert(ni(800, 4));
        let t = ls.replica_targets(3);
        let ids: Vec<u128> = t.iter().map(|n| n.id.0).collect();
        assert_eq!(ids, vec![1100, 900, 1200]);
        // Request more than available: capped, distinct.
        let t = ls.replica_targets(10);
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn remove_addr_dedups_overlap() {
        let me = Id(100);
        let mut ls = LeafSet::new(me, 4);
        ls.insert(ni(200, 1)); // appears on both sides (small ring)
        let removed = ls.remove_addr(NodeAddr(1));
        assert_eq!(removed.len(), 1);
        assert!(ls.is_empty());
    }

    #[test]
    fn extremes_are_most_distant() {
        let me = Id(100);
        let mut ls = LeafSet::new(me, 2);
        for (id, addr) in [(110u128, 1u64), (120, 2), (90, 3), (80, 4)] {
            ls.insert(ni(id, addr));
        }
        let ex: Vec<u128> = ls.extremes().iter().map(|n| n.id.0).collect();
        assert_eq!(ex, vec![120, 80]);
    }
}
