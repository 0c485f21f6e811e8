//! The unmodified-NFS baseline: one client machine, one central NFS
//! server, connected by the same modeled LAN (the paper's "NFS
//! configuration consists of two nodes with one running as a client, and
//! the other running as a server", Section 6.1.1).

use kosha::KoshaMount;
use kosha_nfs::{CacheConfig, DiskModel, NfsClient, NfsServer};
use kosha_rpc::{LatencyModel, Network, NodeAddr, ServiceId, ServiceMux, SimNetwork, VirtualClock};
use kosha_vfs::Vfs;
use std::sync::Arc;

/// Address of the central server in the baseline setup.
pub const SERVER: NodeAddr = NodeAddr(1);
/// Address of the client machine.
pub const CLIENT: NodeAddr = NodeAddr(2);

/// A plain NFS client/server pair over the simulated LAN, driven by the
/// same client code as Kosha: the paper pointed one FreeBSD NFS client
/// at `nfsd` and at the koshad loopback, and [`KoshaMount`] is that
/// client here, so both sides send the same RPCs for the same workload.
pub struct NfsBaseline {
    net: Arc<SimNetwork>,
    mount: KoshaMount,
}

impl NfsBaseline {
    /// Boots the two-machine baseline with the given cost models.
    #[must_use]
    pub fn build(latency: LatencyModel, disk: DiskModel, capacity: u64) -> Self {
        let net = SimNetwork::new(latency);
        let server = NfsServer::new(Vfs::new(capacity), net.clock(), disk);
        let mux = Arc::new(ServiceMux::new());
        mux.register(ServiceId::Nfs, server);
        net.attach(SERVER, mux);
        // The client machine needs no services; it only issues calls.
        net.attach(CLIENT, Arc::new(ServiceMux::new()));
        let mount = KoshaMount::over(Self::client(&net), SERVER).expect("mount baseline");
        NfsBaseline { net, mount }
    }

    fn client(net: &Arc<SimNetwork>) -> NfsClient {
        NfsClient::new(net.clone() as Arc<dyn Network>, CLIENT)
    }

    /// The client's view of the central server's export.
    #[must_use]
    pub fn mount(&self) -> &KoshaMount {
        &self.mount
    }

    /// The same export through a caching client on the same machine.
    #[must_use]
    pub fn cached_mount(&self, cache: CacheConfig) -> KoshaMount {
        KoshaMount::cached(Self::client(&self.net), SERVER, cache).expect("mount baseline")
    }

    /// The shared virtual clock.
    #[must_use]
    pub fn clock(&self) -> Arc<VirtualClock> {
        self.net.virtual_clock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kosha_rpc::Clock;
    use kosha_vfs::FileType;

    #[test]
    fn baseline_round_trip() {
        let nfs = NfsBaseline::build(LatencyModel::zero(), DiskModel::zero(), 1 << 24);
        let b = nfs.mount();
        b.mkdir_p("/a/b").unwrap();
        b.write_file("/a/b/f.txt", b"baseline").unwrap();
        assert_eq!(b.read_file("/a/b/f.txt").unwrap(), b"baseline");
        assert_eq!(b.stat("/a/b/f.txt").unwrap().1.size, 8);
        let listed = b.readdir("/a/b").unwrap();
        let listed: Vec<_> = listed.iter().map(|e| (&*e.name, e.ftype)).collect();
        assert_eq!(listed, [("f.txt", FileType::Regular)]);
    }

    #[test]
    fn baseline_pays_network_costs() {
        let b = NfsBaseline::build(LatencyModel::default(), DiskModel::default(), 1 << 24);
        let t0 = b.clock().now();
        b.mount().mkdir_p("/x").unwrap();
        b.mount().write_file("/x/big", &[0u8; 1 << 20]).unwrap();
        let dt = b.clock().now().since(t0);
        // 1 MiB at 12.5 MB/s is at least ~80 ms of wire time.
        assert!(dt.as_millis() >= 80, "{dt:?}");
    }
}
