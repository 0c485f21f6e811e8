//! The per-machine Kosha daemon (`koshad`) and its wiring.

use crate::config::KoshaConfig;
use crate::handles::HandleTable;
use crate::stats::{KoshaStats, StatsSnapshot};
use kosha_id::{node_id_from_seed, Id};
use kosha_nfs::{DiskModel, NfsClient, NfsServer};
use kosha_obs::Obs;
use kosha_pastry::{NodeInfo, OverlayError, OverlayObserver, PastryNode, LEAF_HALF};
use kosha_rpc::{Clock, Network, NodeAddr, ServiceId, ServiceMux};
use kosha_vfs::Vfs;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Weak};
use std::time::Duration;

/// Interval at which a write-behind node's background pump drains its
/// replica queues. [`kosha_rpc::ThreadedNetwork`] drives the pump with
/// its timer thread; [`kosha_rpc::SimNetwork`] leaves pumping to
/// explicit `run_pumps()` calls and flush barriers, for determinism.
const WRITE_BEHIND_PUMP_INTERVAL: Duration = Duration::from_millis(5);

/// Per-anchor memo of the last fully-acknowledged replica push: content
/// digest and the target set it was acked by.
pub(crate) type PushMemo = BTreeMap<String, ([u8; 20], Vec<NodeAddr>)>;

/// Client-side (interposition) state: the virtual handle table, which
/// holds every location koshad knows by path, and the export roots.
pub(crate) struct ClientState {
    /// Virtual handle table and path locations (§4.1.2).
    pub handles: HandleTable,
    /// Cache: node address → handle of its `/kosha_store` export root.
    pub root_cache: HashMap<NodeAddr, kosha_nfs::Fh>,
    /// Smoothed round trip of this node's replica READs per holder
    /// (EWMA, α = 1/8 like TCP's SRTT), which replica reads pick the
    /// fastest holders by. Only those READs feed it, failed ones too, so
    /// a holder that timed out looks slow.
    pub read_latency: HashMap<NodeAddr, u64>,
}

impl ClientState {
    fn new(handles: HandleTable) -> Self {
        ClientState {
            handles,
            root_cache: HashMap::new(),
            read_latency: HashMap::new(),
        }
    }

    /// Folds one replica READ's round trip into `holder`'s estimate.
    pub fn note_read_latency(&mut self, holder: NodeAddr, nanos: u64) {
        self.read_latency
            .entry(holder)
            .and_modify(|ewma| *ewma = (*ewma * 7 + nanos) / 8)
            .or_insert(nanos);
    }
}

/// One machine's Kosha instance: overlay endpoint, real NFS store, and
/// the koshad interposition layer. Create with [`KoshaNode::build`],
/// attach the returned mux to the transport, then call
/// [`KoshaNode::join`].
pub struct KoshaNode {
    pub(crate) cfg: KoshaConfig,
    pub(crate) info: NodeInfo,
    pub(crate) net: Arc<dyn Network>,
    /// The transport's clock, taken once: asking `net` clones an `Arc`
    /// that every thread's calls read, two read-modify-writes on a
    /// shared line per look at the time.
    pub(crate) clock: Arc<dyn Clock>,
    pub(crate) pastry: Arc<PastryNode>,
    pub(crate) store: Arc<NfsServer>,
    /// The record of every slot in `store` and the index from anchor to
    /// slot ([`crate::slots`]): store state, wiped with it.
    pub(crate) slot_table: Mutex<crate::slots::SlotTable>,
    pub(crate) nfs: NfsClient,
    pub(crate) client: Mutex<ClientState>,
    /// Salt source for capacity redirection (seeded from the node id for
    /// reproducible simulations).
    pub(crate) salt_rng: Mutex<StdRng>,
    /// Round-robin counter for read-from-replica selection (§4.2's
    /// future-work optimization, enabled by
    /// [`crate::ReadFrom::Replicas`]).
    pub(crate) read_rr: std::sync::atomic::AtomicU64,
    /// Operational counters (handles into `obs`'s registry).
    pub(crate) stats: KoshaStats,
    /// Per-node observability domain, shared by this koshad's overlay
    /// endpoint, NFS server/client, and interposition layer so their
    /// metrics and journal events correlate.
    pub(crate) obs: Arc<Obs>,
    /// Write-behind replication queues (one per replica target) and their
    /// depth gauge; idle under `ReplicationMode::Sync`.
    pub(crate) writeback: crate::writeback::WritebackState,
    /// Per-object read popularity (EWMA with half-life decay, capped by
    /// a space-saving sketch) fed by the `/kosha` read path — the input
    /// the ROADMAP's popularity-aware read scaling needs.
    pub(crate) heat: kosha_obs::ReadHeat,
    /// Primary-side hot-copy ledger (DESIGN.md §16): virtual path → the
    /// object's outstanding heat-driven cached copies and their lease.
    /// Empty unless [`crate::ReadFrom::Replicas`] asks for hot copies.
    pub(crate) hot: Mutex<BTreeMap<String, crate::hot::HotObject>>,
    /// Full-push memo: per hosted anchor, the content digest and target
    /// set of the last fully-acknowledged replica push, or of the empty
    /// slot a `MakeSlot` made on those targets. Maintenance
    /// skips the `MigrateBatch` fan-out while both still match — the
    /// bracket replace would churn holder file identities (and every
    /// reader's cached replica handles) for nothing. Any mirror/push
    /// failure clears the memo, so anti-entropy healing still converges.
    pub(crate) replica_push_memo: Mutex<PushMemo>,
}

/// Handler wrapper for the Kosha control service.
pub(crate) struct ControlService(pub Arc<KoshaNode>);
/// Handler wrapper for the replica-maintenance service (a leaf service:
/// it only mutates the local replica area, never issuing nested RPCs, so
/// primaries can fan out to each other concurrently without deadlock).
pub(crate) struct ReplicaService(pub Arc<KoshaNode>);
/// Handler wrapper for the koshad loopback (virtual `/kosha`) NFS server.
pub(crate) struct VirtualFs(pub Arc<KoshaNode>);

/// Overlay observer relaying leaf-set changes into replica/migration
/// maintenance (§4.3).
struct LeafWatcher(Weak<KoshaNode>);

impl OverlayObserver for LeafWatcher {
    fn on_leaf_joined(&self, node: NodeInfo) {
        if let Some(k) = self.0.upgrade() {
            k.on_leaf_change(Some(node));
        }
    }
    fn on_leaf_left(&self, node: NodeInfo) {
        if let Some(k) = self.0.upgrade() {
            let _ = node;
            k.on_leaf_change(None);
        }
    }
}

/// Stands up `nodes` machines on one transport, joining each through
/// the first: node `i` gets the id `node_id_from_seed("{host_prefix}{i}")`
/// and the address `first + i`. The one place outside tests where a
/// deployment is booted in a loop: the simulator, the benches,
/// `kosha-top` and the examples differ only in the arguments.
///
/// `net` is the handle the nodes call through (a decorator works);
/// `attach` registers a node's mux with the transport underneath it,
/// and runs before that node joins.
pub fn boot_cluster(
    net: &Arc<dyn Network>,
    attach: impl Fn(NodeAddr, Arc<ServiceMux>),
    cfg: &KoshaConfig,
    nodes: usize,
    host_prefix: &str,
    first: NodeAddr,
) -> Result<Vec<Arc<KoshaNode>>, OverlayError> {
    (0..nodes)
        .map(|i| {
            let id = node_id_from_seed(&format!("{host_prefix}{i}"));
            let addr = NodeAddr(first.0 + i as u64);
            let (node, mux) = KoshaNode::build(cfg.clone(), id, addr, Arc::clone(net));
            attach(addr, mux);
            node.join((i > 0).then_some(first))?;
            Ok(node)
        })
        .collect()
}

impl KoshaNode {
    /// Builds a node and its service mux. The caller attaches the mux to
    /// the transport at `addr` and then calls [`KoshaNode::join`].
    pub fn build(
        cfg: KoshaConfig,
        id: Id,
        addr: NodeAddr,
        net: Arc<dyn Network>,
    ) -> (Arc<Self>, Arc<ServiceMux>) {
        let obs = Obs::new();
        let clock = net.clock();
        let mut vfs = Vfs::new(cfg.contributed_bytes);
        vfs.mkdir_p("/kosha_store", 0o755).expect("store area");
        vfs.mkdir_p("/kosha_replica", 0o700).expect("replica area");
        let store = NfsServer::new_with_obs(
            vfs,
            Arc::clone(&clock),
            DiskModel {
                bandwidth_bps: cfg.disk_bandwidth_bps,
                meta_op_cost: cfg.disk_meta_op,
            },
            &obs,
            addr,
        );
        let pastry = PastryNode::new_with_obs(
            // The paper's overlay: `l = 16`, no proximity heuristics.
            LEAF_HALF,
            id,
            addr,
            Arc::clone(&net),
            Arc::clone(&obs),
        );
        // Heat-driven cached copies this primary has outstanding
        // (DESIGN.md §16, the `kosha-top` HOT column): registered now so
        // every node exposes it before its first push.
        obs.registry.gauge("kosha_hot_copies");
        let node = Arc::new(KoshaNode {
            info: pastry.info(),
            nfs: NfsClient::new(Arc::clone(&net), addr).observed(&obs),
            salt_rng: Mutex::new(StdRng::seed_from_u64(id.0 as u64)),
            read_rr: std::sync::atomic::AtomicU64::new(0),
            stats: KoshaStats::new(&obs),
            writeback: crate::writeback::WritebackState::new(&obs),
            heat: kosha_obs::ReadHeat::default(),
            hot: Mutex::new(BTreeMap::new()),
            replica_push_memo: Mutex::new(BTreeMap::new()),
            obs,
            cfg,
            clock,
            net,
            pastry: Arc::clone(&pastry),
            store,
            slot_table: Mutex::new(crate::slots::SlotTable::default()),
            client: Mutex::new(ClientState::new(HandleTable::new())),
        });
        pastry.add_observer(Arc::new(LeafWatcher(Arc::downgrade(&node))));
        if let crate::config::ReplicationMode::WriteBehind { .. } = node.cfg.replication_mode {
            // ThreadedNetwork drives the pump from its shared timer
            // thread; SimNetwork records the hook in its event heap and
            // leaves pumping to explicit `run_pumps()` / `run_for()`
            // calls so simulations stay deterministic.
            let hook = Arc::downgrade(&node) as Weak<dyn kosha_rpc::PumpHook>;
            node.net.schedule_pump(hook, WRITE_BEHIND_PUMP_INTERVAL);
        }

        let mux = Arc::new(ServiceMux::new());
        mux.register(ServiceId::Pastry, pastry);
        mux.register(ServiceId::Nfs, Arc::clone(&node.store) as _);
        mux.register(
            ServiceId::Kosha,
            Arc::new(ControlService(Arc::clone(&node))),
        );
        mux.register(ServiceId::KoshaFs, Arc::new(VirtualFs(Arc::clone(&node))));
        mux.register(
            ServiceId::KoshaReplica,
            Arc::new(ReplicaService(Arc::clone(&node))),
        );
        (node, mux)
    }

    /// Joins the overlay (pass `None` to start a new deployment).
    pub fn join(&self, bootstrap: Option<NodeAddr>) -> Result<(), OverlayError> {
        self.pastry.join(bootstrap)
    }

    /// This node's transport address.
    #[must_use]
    pub fn addr(&self) -> NodeAddr {
        self.info.addr
    }

    /// This node's Pastry identifier.
    #[must_use]
    pub fn id(&self) -> Id {
        self.info.id
    }

    /// The overlay endpoint (tests and experiments probe it directly).
    #[must_use]
    pub fn pastry(&self) -> &Arc<PastryNode> {
        &self.pastry
    }

    /// The deployment configuration.
    #[must_use]
    pub fn config(&self) -> &KoshaConfig {
        &self.cfg
    }

    /// Direct access to the node's local store (administration and test
    /// inspection; users go through the `/kosha` mount).
    pub fn with_store<R>(&self, f: impl FnOnce(&mut Vfs) -> R) -> R {
        self.store.with_store(f)
    }

    /// Runs periodic maintenance: overlay liveness probes, replica
    /// refresh for every hosted anchor, garbage collection of replica
    /// slots whose owner no longer counts us as a target, and hot-copy
    /// lease upkeep (refresh leases still-hot objects, shed cooled
    /// ones — DESIGN.md §16). Simulations call this after failure
    /// events, standing in for the paper's background daemon activity.
    pub fn maintain(&self) {
        self.pastry.maintain();
        self.on_leaf_change(None);
        self.gc_replica_slots();
        self.hot_sweep(true);
        // Drop cached export-root handles for peers the overlay no longer
        // knows. A departed node's handle is dead weight, and a revived
        // node purges its Kosha data (§4.3) and re-exports, so a stale
        // entry would dangle anyway — without this, churn grows the
        // per-peer cache without bound. A holder that is down loses its
        // read-latency estimate, so once back it is measured afresh.
        let known: std::collections::HashSet<NodeAddr> =
            self.pastry.known_nodes().iter().map(|n| n.addr).collect();
        let mut c = self.client.lock();
        c.root_cache.retain(|addr, _| known.contains(addr));
        c.read_latency.retain(|&addr, _| self.net.is_up(addr));
    }

    /// Point-in-time operational counters for this koshad.
    #[must_use]
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// This node's observability domain: the metric registry behind
    /// [`KoshaNode::stats`] plus the event journal recording failovers,
    /// promotions, migrations, and redirections. Shared with the node's
    /// overlay endpoint and NFS components.
    #[must_use]
    pub fn obs(&self) -> Arc<Obs> {
        Arc::clone(&self.obs)
    }

    /// Journals a node-scoped event stamped on the transport clock.
    pub(crate) fn journal(&self, kind: &'static str, detail: String) {
        let op = self.obs.next_op_id();
        self.obs
            .journal
            .record(self.clock.now().0, self.info.addr.0, kind, op, detail);
    }

    /// Models a koshad restart on an intact disk: the store and its slot
    /// table, the configuration, the identity, the counters and the
    /// observability domain stay; all else the process held is lost
    /// (DESIGN.md §2 lists each field and why losing it is safe). Which
    /// anchors the node serves is a fact of the store, so the restarted
    /// node serves them at once and rebuilds nothing.
    pub fn crash(&self) {
        let mut c = self.client.lock();
        *c = ClientState::new(c.handles.restarted());
        drop(c);
        self.writeback.clear();
        self.hot.lock().clear();
        self.obs.registry.gauge("kosha_hot_copies").set(0);
        self.replica_push_memo.lock().clear();
        self.heat.clear();
        self.read_rr.store(0, std::sync::atomic::Ordering::Relaxed);
        *self.salt_rng.lock() = StdRng::seed_from_u64(self.info.id.0 as u64);
    }

    /// Simulates this machine being reincarnated (§4.3: "all Kosha data
    /// on a revived node is purged"): a crash that loses the disk too.
    /// Rejoining the overlay under a new identity is left to the caller.
    pub fn purge(&self) {
        self.crash();
        self.slot_wipe();
    }
}
