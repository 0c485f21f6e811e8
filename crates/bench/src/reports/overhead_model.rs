//! Evaluates the Section 6.1.2 analytical overhead model
//! `D = I + (H·hc)·(N−1)/N` out to the paper's 10⁴-node design point.

use crate::{outln, Report};
use kosha::KoshaMount;
use kosha_rpc::Clock;
use kosha_sim::baseline::NfsBaseline;
use kosha_sim::cluster::{ClusterParams, SimCluster};
use kosha_sim::experiments::{mab_disk, mab_lan, table1_kosha_config};
use kosha_sim::model::OverheadModel;

/// The model's table, then the measured per-op overhead beside it.
pub fn run(_full: bool) -> Report {
    let mut out = String::new();
    let m = OverheadModel::default();
    outln!(out, "Analytical overhead model D(N) = I + H*hc*(N-1)/N");
    outln!(
        out,
        "I = {:?}, hc = {:?}, digit base = {}",
        m.interposition,
        m.hop_latency,
        1u32 << m.digit_bits
    );
    outln!(out, "{:>8} {:>6} {:>10} {:>12}", "N", "H", "(N-1)/N", "D");
    for n in [1u64, 2, 4, 8, 16, 64, 256, 1024, 4096, 10_000, 65_536] {
        outln!(
            out,
            "{:>8} {:>6} {:>10.4} {:>12.3?}",
            n,
            m.hops(n),
            m.remote_fraction(n),
            m.overhead(n)
        );
    }
    outln!(
        out,
        "\nPaper reference: at N = 10^4, H <= 4 and hc < 1 ms, so D does not\n\
         exceed 4 ms plus the constant interposition factor."
    );

    // Validate the model against the measured full stack: the per-op
    // *overhead* of Kosha vs plain NFS for a metadata micro-workload
    // should follow D(N)'s saturating shape.
    let ops = 300usize;
    let run = |fs: &KoshaMount, clock: &dyn Fn() -> std::time::Duration| {
        for d in 0..10 {
            fs.mkdir_p(&format!("/m{d}")).unwrap();
        }
        for i in 0..ops {
            fs.write_file(&format!("/m{}/f{i}", i % 10), b"x").unwrap();
        }
        let t0 = clock();
        for i in 0..ops {
            fs.stat(&format!("/m{}/f{i}", i % 10)).unwrap();
        }
        (clock() - t0) / ops as u32
    };

    let nfs_per_op = {
        let b = NfsBaseline::build(mab_lan(), mab_disk(), 64 << 30);
        let c = b.clock();
        run(b.mount(), &|| c.now().as_duration())
    };
    outln!(out, "\nMeasured mean per-op latency (stat micro-workload):");
    outln!(
        out,
        "{:>8} {:>14} {:>14} {:>12}",
        "N",
        "per-op",
        "overhead",
        "model D(N)"
    );
    outln!(
        out,
        "{:>8} {:>14.3?} {:>14} {:>12}",
        "NFS",
        nfs_per_op,
        "-",
        "-"
    );
    let mm = OverheadModel {
        interposition: std::time::Duration::from_micros(520),
        hop_latency: std::time::Duration::from_micros(360),
        digit_bits: 4,
    };
    for n in [1usize, 2, 4, 8] {
        let cluster = SimCluster::build(&ClusterParams {
            nodes: n,
            kosha: table1_kosha_config(),
            latency: mab_lan(),
            seed: 500 + n as u64,
        });
        let m = cluster.mount(0);
        let c = cluster.clock();
        let per_op = run(&m, &|| c.now().as_duration());
        let overhead = per_op.saturating_sub(nfs_per_op);
        outln!(
            out,
            "{:>8} {:>14.3?} {:>14.3?} {:>12.3?}",
            n,
            per_op,
            overhead,
            mm.overhead(n as u64)
        );
    }
    outln!(
        out,
        "\nThe measured overhead column should follow the model's saturating\n\
         (N-1)/N shape, within a small constant (extra koshad round trips)."
    );
    Report::text(out)
}
