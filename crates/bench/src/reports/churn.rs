//! Churn survival bench (`BENCH_churn.json`): a live 1k-node Kosha
//! cluster replayed through the synthetic availability trace's
//! correlated-failure window (the paper's hour-615 spike) while a
//! seeded mutation workload runs, with the consistency observatory
//! sampled on a fixed cadence.
//!
//! What it proves:
//!
//! * **Survival under churn** — acked mutations are read back after the
//!   run and classified survived/lost against the acked-write history;
//!   write-behind windows dropped with their primary are the loss
//!   mechanism the paper's model cannot see.
//! * **Divergence is bounded and repairable** — the audit series peaks
//!   during the spike and the final repair pass (recover + maintain +
//!   flush + settle) returns `objects_divergent` to a steady floor,
//!   with its RPC/bandwidth cost bracketed by the transport counters.
//!
//! Every figure derives from virtual time, seeded randomness, and
//! deterministic counters, so double runs are byte-identical — the CI
//! `scale-smoke` gate diffs exactly that.

use crate::{timed, Report};
use kosha_sim::{run_churn, ChurnParams};
use std::time::Duration;

/// The churn run, its assertions, and its report.
pub fn run(_full: bool) -> Report {
    let params = ChurnParams {
        nodes: 1_000,
        start_hour: 600,
        hours: 24,
        hour_virtual: Duration::from_millis(40),
        dirs: 12,
        files_per_dir: 4,
        writes_per_hour: 24,
        audit_every_hours: 4,
        purge_every_nth_recovery: 4,
        replicas: 2,
        seed: 7,
    };
    let (report, wall) = timed(|| run_churn(&params));

    // The gate's substance: churn really happened, mutations were
    // acked under it, the accounting is closed, and repair converged.
    assert_eq!(
        report.mutations_survived + report.mutations_lost,
        report.mutations_acked,
        "unclassified mutations"
    );
    assert!(report.mutations_acked > 0, "no mutations acked under churn");
    assert!(
        report.windows.iter().any(|w| w.up_nodes < report.nodes),
        "trace window produced no churn"
    );
    assert!(report.repair_rpc_calls > 0, "repair phase issued no RPCs");
    assert_eq!(
        report.final_objects_divergent, 0,
        "repair did not converge: {} objects still divergent",
        report.final_objects_divergent
    );
    assert_eq!(
        report.final_over_replicated, 0,
        "replica-slot GC left {} stale copies",
        report.final_over_replicated
    );

    let text = format!(
        "ran {} virtual hours in {:.1}s wall\n",
        report.hours,
        wall.as_secs_f64()
    );
    Report {
        text,
        value: Some(report.json()),
    }
}
