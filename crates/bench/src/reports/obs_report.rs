//! Runs a small cluster scenario under the simulated transport and
//! prints everything the observability layer captured: the transport's
//! per-service RPC metrics, one node's metric registry (Prometheus text
//! and JSON), and the tail of its event journal.
//!
//! The scenario — build, populate, kill the primary of a replicated
//! directory, read through the failover — is fixed, and `SimNetwork`
//! stamps everything on the virtual clock, so two runs print identical
//! bytes. The JSON form is one object holding both registries,
//! `{"transport": …, "gateway": …}`.

use crate::{default_cluster, Report};
use kosha::KoshaConfig;
use kosha_obs::obj;

const NODES: usize = 6;

/// The fixed scenario, then both dumps.
pub fn run(_full: bool) -> Report {
    let mut cfg = KoshaConfig::for_tests();
    cfg.distribution_level = 1;
    cfg.replicas = 2;
    let cluster = default_cluster(&cfg, NODES);
    let (net, nodes) = (&cluster.net, &cluster.nodes);
    let m = cluster.mount(0);

    // Populate: a handful of distributed directories with files, then
    // read them all back (replica reads stay off: default config).
    for d in 0..4 {
        m.mkdir_p(&format!("/proj{d}/src")).expect("mkdir");
        for f in 0..3 {
            m.write_file(&format!("/proj{d}/src/file{f}.rs"), &[d as u8 + 1; 2048])
                .expect("write");
        }
    }
    for d in 0..4 {
        for f in 0..3 {
            m.read_file(&format!("/proj{d}/src/file{f}.rs"))
                .expect("read");
        }
    }

    // Kill the primary of one of the directories (the first hosted off
    // the gateway) and read through the failover so the journal has
    // something to say.
    'kill: for d in 0..4 {
        let anchor = format!("/proj{d}");
        for n in nodes {
            if n.addr() != nodes[0].addr() && n.hosted_anchors().iter().any(|(p, _)| p == &anchor) {
                net.fail_node(n.addr());
                m.read_file(&format!("{anchor}/src/file0.rs"))
                    .expect("failover read");
                break 'kill;
            }
        }
    }

    let (transport, gateway) = (&net.obs().registry, nodes[0].obs());
    let (transport_text, gateway_text) = (transport.render(), gateway.registry.render());
    let journal = gateway.journal.render_recent(20);
    let text = format!(
        "==== transport RPC metrics (cluster-wide) ====
{transport_text}
==== gateway node metrics (node 0) ====
{gateway_text}
==== gateway journal (last 20 events) ====
{journal}
"
    );
    let value = obj! {"transport": transport.json(), "gateway": gateway.registry.json()};
    Report {
        text,
        value: Some(value),
    }
}
