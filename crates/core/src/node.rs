//! The per-machine Kosha daemon (`koshad`) and its wiring.

use crate::config::KoshaConfig;
use crate::handles::{HandleTable, Location};
use crate::stats::{KoshaStats, StatsSnapshot};
use kosha_id::{node_id_from_seed, Id};
use kosha_nfs::{DiskModel, NfsClient, NfsServer};
use kosha_obs::Obs;
use kosha_pastry::{NodeInfo, OverlayError, OverlayObserver, PastryConfig, PastryNode};
use kosha_rpc::{Network, NodeAddr, ServiceId, ServiceMux};
use kosha_vfs::Vfs;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Weak};
use std::time::Duration;

/// How often the node's sampler hook snapshots every flight-recorder
/// source into its time-series. Under `SimNetwork` the interval is
/// nominal (each `run_pumps()` call ticks every hook once); under
/// `ThreadedNetwork` the pump thread honors it in wall time.
const SAMPLE_INTERVAL: Duration = Duration::from_millis(50);

/// Per-anchor memo of the last fully-acknowledged replica push: content
/// digest and the target set it was acked by.
pub(crate) type PushMemo = BTreeMap<String, ([u8; 20], Vec<NodeAddr>)>;

/// Client-side (interposition) state: the virtual handle table and the
/// resolution caches.
pub(crate) struct ClientState {
    /// Virtual handle table (§4.1.2).
    pub handles: HandleTable,
    /// Cache: virtual directory path → real location of its listing.
    pub dir_cache: HashMap<String, Location>,
    /// Cache: node address → handle of its `/kosha_store` export root.
    pub root_cache: HashMap<NodeAddr, kosha_nfs::Fh>,
}

/// One machine's Kosha instance: overlay endpoint, real NFS store, and
/// the koshad interposition layer. Create with [`KoshaNode::build`],
/// attach the returned mux to the transport, then call
/// [`KoshaNode::join`].
pub struct KoshaNode {
    pub(crate) cfg: KoshaConfig,
    pub(crate) info: NodeInfo,
    pub(crate) net: Arc<dyn Network>,
    pub(crate) pastry: Arc<PastryNode>,
    pub(crate) store: Arc<NfsServer>,
    pub(crate) nfs: NfsClient,
    pub(crate) client: Mutex<ClientState>,
    /// Anchors this node hosts as primary: virtual path → routing name.
    pub(crate) anchors: Mutex<BTreeMap<String, String>>,
    /// Salt source for capacity redirection (seeded from the node id for
    /// reproducible simulations).
    pub(crate) salt_rng: Mutex<StdRng>,
    /// Round-robin counter for read-from-replica selection (§4.2's
    /// future-work optimization, enabled by
    /// [`KoshaConfig::read_from_replicas`]).
    pub(crate) read_rr: std::sync::atomic::AtomicU64,
    /// Operational counters (handles into `obs`'s registry).
    pub(crate) stats: KoshaStats,
    /// Counts requests arriving at the koshad loopback server without a
    /// caller trace, for [`KoshaConfig::trace_sampling`].
    pub(crate) trace_seq: std::sync::atomic::AtomicU64,
    /// Per-node observability domain, shared by this koshad's overlay
    /// endpoint, NFS server/client, and interposition layer so their
    /// metrics and journal events correlate.
    pub(crate) obs: Arc<Obs>,
    /// Write-behind replication queues (one per replica target) and the
    /// flush-path metric handles; idle under `ReplicationMode::Sync`.
    pub(crate) writeback: crate::writeback::WritebackState,
    /// Per-object read popularity (EWMA with half-life decay, capped by
    /// a space-saving sketch) fed by the `/kosha` read path — the input
    /// the ROADMAP's popularity-aware read scaling needs.
    pub(crate) heat: kosha_obs::ReadHeat,
    /// Primary-side hot-copy ledger (DESIGN.md §16): virtual path → the
    /// object's outstanding heat-driven cached copies and their lease.
    /// Empty unless [`KoshaConfig::hot_replicas`] is non-zero.
    pub(crate) hot: Mutex<BTreeMap<String, crate::hot::HotObject>>,
    /// Full-push memo: per hosted anchor, the content digest and target
    /// set of the last fully-acknowledged replica push. Maintenance
    /// skips the `MigrateBatch` fan-out while both still match — the
    /// bracket replace would churn holder file identities (and every
    /// reader's cached replica handles) for nothing. Any mirror/push
    /// failure clears the memo, so anti-entropy healing still converges.
    pub(crate) replica_push_memo: Mutex<PushMemo>,
    /// Keeps the flight-recorder sampler hook alive: the transport holds
    /// only a `Weak`, so the node owns the `Arc` (dropping the node
    /// silently unregisters the hook on both transports).
    _sampler: Arc<NodeSampler>,
}

/// Per-node flight-recorder ticker. Registered as a transport pump hook:
/// `SimNetwork` fires it through its event heap — one-shot per
/// `run_pumps()` call, or as a recurring scheduler timer under
/// `run_until`/`run_for` (deterministic virtual time either way) —
/// while `ThreadedNetwork` ticks it from its shared timer thread. Each
/// tick refreshes the self-observability gauges and snapshots every
/// recorder source at the transport clock's current time.
struct NodeSampler {
    obs: Arc<Obs>,
    clock: Arc<dyn kosha_rpc::Clock>,
    /// Back-reference to the owning node, filled in right after the node
    /// is built (the sampler must exist first — the node owns it). Weak,
    /// so the sampler never keeps a dropped node alive.
    node: Mutex<Weak<KoshaNode>>,
}

impl kosha_rpc::PumpHook for NodeSampler {
    fn pump(&self) {
        if let Some(node) = self.node.lock().upgrade() {
            // Scan-based, self-healing census of outstanding `.kosha_lag`
            // markers (the consistency observatory's per-node gauge).
            node.refresh_lag_marker_gauge();
        }
        self.obs.export_self_gauges();
        self.obs.recorder.sample_all(self.clock.now().0);
    }
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
        let mut vfs = Vfs::new(cfg.contributed_bytes);
        vfs.mkdir_p("/kosha_store", 0o755).expect("store area");
        vfs.mkdir_p("/kosha_replica", 0o700).expect("replica area");
        let store = NfsServer::new_with_obs(
            vfs,
            net.clock(),
            DiskModel {
                bandwidth_bps: cfg.disk_bandwidth_bps,
                meta_op_cost: cfg.disk_meta_op,
            },
            &obs,
            addr,
        );
        let pastry = PastryNode::new_with_obs(
            // The paper's overlay: `l = 16`, no proximity heuristics.
            PastryConfig::default(),
            id,
            addr,
            Arc::clone(&net),
            Arc::clone(&obs),
        );
        let sampler = Arc::new(NodeSampler {
            obs: Arc::clone(&obs),
            clock: net.clock(),
            node: Mutex::new(Weak::new()),
        });
        // The lag-marker gauge doubles as a flight-recorder series so
        // churn analysis can plot outstanding write-behind windows.
        let lag_gauge = obs.registry.gauge("kosha_replica_lag_markers");
        obs.recorder
            .watch_gauge("kosha_replica_lag_markers", &lag_gauge);
        // Outstanding heat-driven cached copies pushed by this primary
        // (DESIGN.md §16), also recorded so the hotspot bench can plot
        // spawn and decay over time.
        let hot_gauge = obs.registry.gauge("kosha_hot_copies");
        obs.recorder.watch_gauge("kosha_hot_copies", &hot_gauge);
        let node = Arc::new(KoshaNode {
            info: pastry.info(),
            nfs: NfsClient::new(Arc::clone(&net), addr).observed(&obs),
            salt_rng: Mutex::new(StdRng::seed_from_u64(id.0 as u64)),
            read_rr: std::sync::atomic::AtomicU64::new(0),
            stats: KoshaStats::new(&obs),
            trace_seq: std::sync::atomic::AtomicU64::new(0),
            writeback: crate::writeback::WritebackState::new(&obs),
            heat: kosha_obs::ReadHeat::default(),
            hot: Mutex::new(BTreeMap::new()),
            replica_push_memo: Mutex::new(BTreeMap::new()),
            _sampler: Arc::clone(&sampler),
            obs,
            cfg,
            net,
            pastry: Arc::clone(&pastry),
            store,
            client: Mutex::new(ClientState {
                handles: HandleTable::new(),
                dir_cache: HashMap::new(),
                root_cache: HashMap::new(),
            }),
            anchors: Mutex::new(BTreeMap::new()),
        });
        *sampler.node.lock() = Arc::downgrade(&node);
        pastry.add_observer(Arc::new(LeafWatcher(Arc::downgrade(&node))));
        if let crate::config::ReplicationMode::WriteBehind { flush_interval, .. } =
            node.cfg.replication_mode
        {
            // ThreadedNetwork drives the pump from its shared timer
            // thread; SimNetwork records the hook in its event heap and
            // leaves pumping to explicit `run_pumps()` / `run_for()`
            // calls so simulations stay deterministic.
            let hook = Arc::downgrade(&node) as Weak<dyn kosha_rpc::PumpHook>;
            let _ = node.net.schedule_pump(hook, flush_interval);
        }
        // The sampler is always armed (every replication mode): under
        // SimNetwork each `run_pumps()` call (or `run_for` timer tick)
        // takes one flight-recorder snapshot per node; under
        // ThreadedNetwork the shared timer ticks it on the sampling
        // interval.
        let _ = node.net.schedule_pump(
            Arc::downgrade(&sampler) as Weak<dyn kosha_rpc::PumpHook>,
            SAMPLE_INTERVAL,
        );

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
        // per-peer cache without bound.
        let known: std::collections::HashSet<NodeAddr> =
            self.pastry.known_nodes().iter().map(|n| n.addr).collect();
        self.client
            .lock()
            .root_cache
            .retain(|addr, _| known.contains(addr));
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

    /// The `n` hottest objects read through this node's `/kosha` mount,
    /// decayed to the transport clock's current time. Heat is an EWMA
    /// with half-life decay in milli-units (1000 ≈ one recent read);
    /// entries may carry an overestimate bound from sketch evictions.
    #[must_use]
    pub fn read_heat_top(&self, n: usize) -> Vec<kosha_obs::HeatEntry> {
        self.heat.top(n, self.net.clock().now().0)
    }

    /// Journals a node-scoped event stamped on the transport clock.
    pub(crate) fn journal(&self, kind: &'static str, detail: String) {
        let op = self.obs.next_op_id();
        self.obs
            .journal
            .record(self.net.clock().now().0, self.info.addr.0, kind, op, detail);
    }

    /// Anchors hosted on this node as primary: `(path, routing name)`.
    #[must_use]
    pub fn hosted_anchors(&self) -> Vec<(String, String)> {
        self.anchors
            .lock()
            .iter()
            .map(|(p, r)| (p.clone(), r.clone()))
            .collect()
    }

    /// Simulates this machine being reincarnated: wipes all Kosha data
    /// (§4.3: "all Kosha data on a revived node is purged") and rejoins
    /// the overlay under a new identity is left to the caller (purge only
    /// here).
    pub fn purge(&self) {
        self.store.with_store(|v| {
            v.purge();
            v.mkdir_p("/kosha_store", 0o755).expect("store area");
            v.mkdir_p("/kosha_replica", 0o700).expect("replica area");
        });
        self.anchors.lock().clear();
        let mut c = self.client.lock();
        c.dir_cache.clear();
        c.root_cache.clear();
    }
}
