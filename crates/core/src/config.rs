//! Kosha deployment parameters.

use std::time::Duration;

/// How a primary propagates mutations to its K replicas (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicationMode {
    /// Mirror every mutation to all replicas before replying — the
    /// prototype's behavior. The client's reply waits for the slowest
    /// replica round trip.
    Sync,
    /// Write-behind: mutations are queued per replica target, coalesced,
    /// and flushed in batches off the client's critical path. NFS
    /// `COMMIT`, queue overflow (backpressure), and leaf-set changes
    /// force synchronous flush barriers; a replica that may be behind
    /// carries a lag marker so promotion never silently serves stale
    /// data (DESIGN.md §11).
    WriteBehind {
        /// Per-target queue capacity in ops. An enqueue that fills a
        /// queue blocks on a synchronous flush of that target
        /// (backpressure low-water is an empty queue).
        queue_ops: usize,
    },
}

/// Where a READ may be served from (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadFrom {
    /// Every READ goes to the primary — the prototype's behavior.
    Primary,
    /// The optimization §4.2 leaves as future work ("We currently are
    /// exploring optimization techniques that allow at least read
    /// operations to be served from any one of the K replicas"): READs
    /// are round-robined over the primary and every holder it
    /// advertises as current, with transparent fallback to the primary.
    Replicas {
        /// Maximum extra read-only cached copies a primary may push for
        /// one hot object, beyond the K durable replicas (DESIGN.md
        /// §16). `0` disables heat-driven read scaling: no heat tracking
        /// at the primary, no leases, no extra copies.
        hot_copies: usize,
    },
}

impl ReadFrom {
    /// The most hot copies a primary may push for one object.
    pub(crate) fn hot_copies(self) -> usize {
        match self {
            ReadFrom::Primary => 0,
            ReadFrom::Replicas { hot_copies } => hot_copies,
        }
    }
}

/// Maximum redirection attempts when the mapped node is full (§3.3:
/// "the redirection process repeats till a node with enough disk space
/// is found, or a pre-specified number of retries is exhausted").
pub const REDIRECT_ATTEMPTS: usize = 4;

/// Utilization at or above which a node refuses to host *new*
/// directories, triggering redirection ("redirection is done for all
/// newly created directories when the local disk space has exceeded the
/// pre-specified utilization", §3.3).
pub(crate) const REDIRECT_UTILIZATION: f64 = 0.95;

/// System-wide parameters of a Kosha deployment. All nodes must agree on
/// `distribution_level` (the paper calls it "a system-wide parameter",
/// §3.2); the rest are per-node operational knobs.
#[derive(Debug, Clone)]
pub struct KoshaConfig {
    /// How many levels of subdirectories below `/kosha` are distributed
    /// to nodes by hashing their names (§3.2). Level 1 distributes only
    /// the top-level directories.
    pub distribution_level: usize,
    /// Number of additional replicas `K` the primary maintains on its
    /// leaf-set neighbors (§4.2). 0 disables replication.
    pub replicas: usize,
    /// Bytes of local disk contributed by this node.
    pub contributed_bytes: u64,
    /// READ/WRITE transfer chunk used by whole-file helpers (NFSv3
    /// implementations commonly use 32 KiB).
    pub io_chunk: u32,
    /// Disk model handed to the node's NFS server.
    pub disk_bandwidth_bps: u64,
    /// Metadata-operation disk cost.
    pub disk_meta_op: Duration,
    /// Where READs are served from: the primary alone, or the primary
    /// and its current replica and hot-copy holders.
    pub read_from: ReadFrom,
    /// Resolve paths with the compound LOOKUPPATH extension: one RPC per
    /// *server* along the walk instead of one per component. Disabling it
    /// restores the per-component NFSv3 walk of Section 4.1.3 (the
    /// benchmark baseline).
    pub compound_lookup: bool,
    /// Per-operation cost of the koshad user-level loopback server — the
    /// "constant overhead introduced by the interposition code" (`I` in
    /// the Section 6.1.2 model). The prototype's SFS-toolkit loopback
    /// server crossed the user/kernel boundary several times per RPC;
    /// this models that fixed cost.
    pub koshad_op_cost: Duration,
    /// How mutations reach the K replicas: synchronously on the write
    /// path (the default, matching the prototype) or write-behind
    /// through per-target coalescing queues (DESIGN.md §11).
    pub replication_mode: ReplicationMode,
}

impl Default for KoshaConfig {
    fn default() -> Self {
        KoshaConfig {
            distribution_level: 1,
            replicas: 0,
            contributed_bytes: 35 * 1_000_000_000, // paper: 35 GB per node
            io_chunk: 32 * 1024,
            disk_bandwidth_bps: 40_000_000,
            disk_meta_op: Duration::from_micros(120),
            read_from: ReadFrom::Primary,
            compound_lookup: true,
            koshad_op_cost: Duration::from_micros(350),
            replication_mode: ReplicationMode::Sync,
        }
    }
}

impl KoshaConfig {
    /// Config used by most unit tests: small, fast, deterministic.
    #[must_use]
    pub fn for_tests() -> Self {
        KoshaConfig {
            distribution_level: 2,
            replicas: 1,
            contributed_bytes: 1 << 22, // 4 MiB
            io_chunk: 4096,
            disk_bandwidth_bps: u64::MAX,
            disk_meta_op: Duration::ZERO,
            read_from: ReadFrom::Primary,
            compound_lookup: true,
            koshad_op_cost: Duration::ZERO,
            replication_mode: ReplicationMode::Sync,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_setup() {
        let c = KoshaConfig::default();
        assert_eq!(c.distribution_level, 1);
        assert_eq!(c.contributed_bytes, 35 * 1_000_000_000);
        // Synchronous replication is the default; write-behind is opt-in.
        assert_eq!(c.replication_mode, ReplicationMode::Sync);
        let t = KoshaConfig::for_tests();
        assert_eq!(t.replication_mode, ReplicationMode::Sync);
        // Replica reads, and with them hot copies, are opt-in everywhere.
        assert_eq!(c.read_from, ReadFrom::Primary);
        assert_eq!(t.read_from, ReadFrom::Primary);
    }
}
