//! The paper's own tables and figures, one function each, over the
//! entry points of `kosha_sim::experiments`.

use crate::Report;
use kosha_sim::experiments::{Fig5, Fig6, Fig7, Table1, Table2};
use kosha_sim::AvailabilityParams;

fn with_reference(rendered: String, reference: &str) -> Report {
    Report::text(format!("{rendered}\n{reference}\n"))
}

/// Table 1: Modified Andrew Benchmark execution times for unmodified
/// NFS and for Kosha at 1, 2, 4, and 8 nodes (distribution level 1,
/// single stored instance).
pub fn table1(_full: bool) -> Report {
    with_reference(
        Table1::run(false).render(),
        "Paper reference: 4.1% fixed overhead, +1.5% additional from 1 to 8\n\
         nodes (5.6% total at 8 nodes); growth saturates with (N-1)/N.",
    )
}

/// Table 2: MAB execution time as the distribution level is increased
/// from 1 to 4 at a fixed cluster size of 4 nodes.
pub fn table2(_full: bool) -> Report {
    with_reference(
        Table2::run(false).render(),
        "Paper reference: overheads vs level 1 of ~5% (L2), ~9% (L3), ~10% (L4) total.",
    )
}

/// Figure 5: mean and standard deviation of the per-node share of file
/// count and bytes across 16 nodes, as the distribution level increases
/// from 1 to 10, against the per-file-hashing bound. The paper ran the
/// full 221 K-file trace and 50 nodeId assignments (`--full`); the
/// default is a quarter-scale trace and 10 assignments.
pub fn fig5(full: bool) -> Report {
    let (runs, scale) = if full { (50, 1.0) } else { (10, 0.25) };
    with_reference(
        Fig5::run(1..=10, runs, scale).render(),
        "Paper reference: std shrinks toward the per-file bound; level >= 4 is\n\
         \"comparable load balancing to that of individually hashing all files\".",
    )
}

/// Figure 6: cumulative insertion-failure ratio versus storage
/// utilization as the redirection-attempt budget grows (0/1/2/4/8/15
/// attempts; distribution level 4; 3 replicas; heterogeneous 8×3 GB +
/// 4×4 GB + 4×5 GB nodes).
pub fn fig6(full: bool) -> Report {
    let (runs, scale) = if full { (50, 1.0) } else { (10, 0.25) };
    with_reference(
        Fig6::run(&[0, 1, 2, 4, 8, 15], runs, scale).render(),
        "Paper reference: with 4 redirections the failure ratio stays near 0 up\n\
         to 60% utilization and stays under ~12% as utilization approaches 100%.",
    )
}

/// Figure 7: percentage of files available over the 840-hour
/// availability trace, for replica counts K = 0..4 at distribution
/// level 3, including the mass-failure spike at hour 615.
pub fn fig7(full: bool) -> Report {
    let (runs, machines, scale) = if full {
        (20, 4096, 0.25)
    } else {
        (5, 1024, 0.05)
    };
    let params = AvailabilityParams {
        machines,
        ..Default::default()
    };
    with_reference(
        Fig7::run(params, scale, runs).render(),
        "Paper reference: Kosha-3 averages 99.9968% availability; at the hour-615\n\
         spike over 12% of files are unavailable for Kosha-0 vs 0.16% for Kosha-3.",
    )
}
