//! Full-stack simulated Kosha cluster: N machines running koshad on a
//! modeled 100 Mb/s switched LAN — the substitute for the paper's
//! FreeBSD testbed (Section 6.1).

use kosha::{boot_cluster, KoshaConfig, KoshaMount, KoshaNode};
use kosha_nfs::{CacheConfig, NfsClient};
use kosha_rpc::{LatencyModel, Network, NodeAddr, ServiceId, SimNetwork, VirtualClock};
use std::sync::Arc;

/// Parameters of a simulated cluster.
#[derive(Debug, Clone)]
pub struct ClusterParams {
    /// Number of Kosha nodes.
    pub nodes: usize,
    /// Kosha deployment configuration (distribution level, replicas, …).
    pub kosha: KoshaConfig,
    /// Network cost model.
    pub latency: LatencyModel,
    /// Seed namespace so different experiments get different node ids.
    pub seed: u64,
}

impl Default for ClusterParams {
    fn default() -> Self {
        ClusterParams {
            nodes: 8,
            kosha: KoshaConfig::default(),
            latency: LatencyModel::default(),
            seed: 0,
        }
    }
}

/// A running cluster plus its transport and virtual clock.
pub struct SimCluster {
    /// The transport.
    pub net: Arc<SimNetwork>,
    /// All nodes, in join order.
    pub nodes: Vec<Arc<KoshaNode>>,
}

impl SimCluster {
    /// Boots `params.nodes` machines on a fresh transport, named
    /// `cluster{seed}-host-{i}` at addresses `0..`.
    #[must_use]
    pub fn build(params: &ClusterParams) -> Self {
        Self::on(
            SimNetwork::new(params.latency.clone()),
            &params.kosha,
            params.nodes,
            &format!("cluster{}-host-", params.seed),
            NodeAddr(0),
        )
    }

    /// Boots `nodes` machines on `net` (which may already carry
    /// coordinates), named `{host_prefix}{i}` at addresses `first + i`,
    /// joining them one at a time through the first.
    #[must_use]
    pub fn on(
        net: Arc<SimNetwork>,
        kosha: &KoshaConfig,
        nodes: usize,
        host_prefix: &str,
        first: NodeAddr,
    ) -> Self {
        let nodes = boot_cluster(
            &(net.clone() as Arc<dyn Network>),
            |addr, mux| net.attach(addr, mux),
            kosha,
            nodes,
            host_prefix,
            first,
        )
        .expect("join overlay");
        SimCluster { net, nodes }
    }

    /// Mounts `/kosha` through node `idx`'s koshad (no client cache).
    pub fn mount(&self, idx: usize) -> KoshaMount {
        KoshaMount::new(
            self.net.clone() as Arc<dyn Network>,
            self.nodes[idx].addr(),
            self.nodes[idx].addr(),
        )
        .expect("mount kosha")
    }

    /// [`SimCluster::mount`] with the kernel client's caches on (§4.1.1).
    pub fn cached_mount(&self, idx: usize, cache: CacheConfig) -> KoshaMount {
        let addr = self.nodes[idx].addr();
        let nfs = NfsClient::with_service(
            self.net.clone() as Arc<dyn Network>,
            addr,
            ServiceId::KoshaFs,
        );
        KoshaMount::cached(nfs, addr, cache).expect("mount kosha")
    }

    /// The shared virtual clock.
    #[must_use]
    pub fn clock(&self) -> Arc<VirtualClock> {
        self.net.virtual_clock()
    }

    /// Runs the cluster's event loop for `d` of virtual time: every
    /// registered pump (write-behind flushers, samplers) fires as a
    /// recurring scheduler timer at its own interval, in deterministic
    /// `(deadline, seq)` order, and the clock lands exactly `d` later.
    /// The event-driven counterpart of calling
    /// [`SimNetwork::run_pumps`] in a manual loop.
    pub fn run_for(&self, d: std::time::Duration) {
        self.net.run_for(d);
    }
}

impl Drop for SimCluster {
    /// Breaks the `SimNetwork → ServiceMux → services → KoshaNode → net`
    /// reference cycle so dropped clusters actually free their memory.
    /// Long-lived deployments never notice the cycle; benchmark loops
    /// that build thousands of clusters would otherwise leak each one.
    fn drop(&mut self) {
        for node in &self.nodes {
            self.net.detach(node.addr());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{mab_lan, table1_kosha_config};
    use crate::mab::{run_mab, MabParams};
    use kosha_rpc::Clock;

    #[test]
    fn cluster_boots_and_serves() {
        let p = ClusterParams {
            nodes: 4,
            kosha: KoshaConfig::for_tests(),
            latency: LatencyModel::zero(),
            ..Default::default()
        };
        let c = SimCluster::build(&p);
        let m = c.mount(0);
        m.mkdir_p("/boot").unwrap();
        m.write_file("/boot/ok", b"1").unwrap();
        assert_eq!(c.mount(3).read_file("/boot/ok").unwrap(), b"1");
    }

    #[test]
    fn latency_model_advances_clock() {
        let p = ClusterParams {
            nodes: 2,
            kosha: KoshaConfig::for_tests(),
            ..Default::default()
        };
        let c = SimCluster::build(&p);
        let before = c.clock().now();
        let m = c.mount(0);
        m.mkdir_p("/t").unwrap();
        m.write_file("/t/f", &[0u8; 100_000]).unwrap();
        assert!(c.clock().now() > before, "virtual time did not advance");
    }

    #[test]
    fn cached_mount_round_trips() {
        let c = SimCluster::build(&ClusterParams {
            nodes: 4,
            kosha: KoshaConfig::for_tests(),
            latency: LatencyModel::zero(),
            seed: 31,
        });
        let m = c.cached_mount(0, CacheConfig::default());
        m.mkdir_p("/cachetest/sub").unwrap();
        m.write_file("/cachetest/sub/f", b"cached bytes").unwrap();
        assert_eq!(m.read_file("/cachetest/sub/f").unwrap(), b"cached bytes");
        assert_eq!(m.read_file("/cachetest/sub/f").unwrap(), b"cached bytes");
        let (_, _, _, _, data_hits, _) = m.cache_stats().snapshot();
        assert!(data_hits >= 1, "repeat read missed the cache");
        assert_eq!(m.stat("/cachetest/sub/f").unwrap().1.size, 12);
        m.remove("/cachetest/sub/f").unwrap();
        assert!(m.read_file("/cachetest/sub/f").is_err());
    }

    #[test]
    fn client_caching_cuts_mab_time() {
        // §4.1.1: Kosha behaves the same under client caching — and the
        // caches absorb a large share of the interposition cost.
        let params = MabParams::small();
        let total = |cache: Option<CacheConfig>| {
            let c = SimCluster::build(&ClusterParams {
                nodes: 4,
                kosha: table1_kosha_config(),
                latency: mab_lan(),
                seed: 32,
            });
            let m = match cache {
                None => c.mount(0),
                Some(cache) => c.cached_mount(0, cache),
            };
            let clock = c.clock();
            clock.reset();
            run_mab(&params, &m, &clock).unwrap().total()
        };
        let (uncached, cached) = (total(None), total(Some(CacheConfig::default())));
        assert!(
            cached < uncached,
            "caching did not help: {cached:?} !< {uncached:?}"
        );
    }
}
