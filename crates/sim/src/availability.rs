//! Machine-availability trace and the Figure 7 availability study.
//!
//! The paper replays "an availability trace of machines in a large
//! corporation over a consecutive 35-day (840-hour) period" (Bolosky et
//! al.'s Microsoft desktop study) against the file placement, varying the
//! replica count 0–4. That trace is proprietary, so we synthesize one
//! with the same relevant structure (see DESIGN.md §2): hourly up/down
//! states, ~90% baseline availability with a diurnal dip, and one large
//! correlated failure event at hour 615 taking out ~12% of machines — the
//! spike at which the paper reports 12% of files unavailable for Kosha-0
//! versus 0.16% for Kosha-3.
//!
//! The replica-maintenance model follows Sections 4.2–4.4: every
//! placement unit (an anchor directory's subtree) keeps K+1 holders; each
//! hour, dead holders are replaced with the nearest live ring nodes *as
//! long as at least one holder is alive* to drive re-replication. If all
//! holders are down the unit is unavailable and its holder set freezes
//! until one returns (a failed machine's disk persists).

use crate::fstrace::FsTrace;
use kosha::paths::anchor_dir_of;
use kosha_id::{dir_key, node_id_from_seed, Id};
use kosha_vfs::path::parent_and_name;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap};

/// Trace-generation parameters.
#[derive(Debug, Clone)]
pub struct AvailabilityParams {
    /// Number of machines.
    pub machines: usize,
    /// Trace length in hours (paper: 840).
    pub hours: usize,
    /// Long-run availability of a typical machine.
    pub base_availability: f64,
    /// Amplitude of the diurnal dip (fraction of machines that go down
    /// off-hours).
    pub diurnal_amplitude: f64,
    /// Hour of the correlated mass failure (paper: 615).
    pub spike_hour: usize,
    /// Fraction of machines taken down by the spike (paper: ~12%).
    pub spike_fraction: f64,
    /// How many hours the spike outage lasts.
    pub spike_duration: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AvailabilityParams {
    fn default() -> Self {
        AvailabilityParams {
            machines: 1024,
            hours: 840,
            base_availability: 0.92,
            diurnal_amplitude: 0.05,
            spike_hour: 615,
            spike_fraction: 0.12,
            spike_duration: 2,
            seed: 7,
        }
    }
}

/// An hourly up/down trace: `up[h][m]` is machine `m`'s state at hour `h`.
pub struct AvailabilityTrace {
    /// Per-hour machine states.
    pub up: Vec<Vec<bool>>,
}

impl AvailabilityTrace {
    /// Generates a synthetic trace.
    #[must_use]
    pub fn generate(p: &AvailabilityParams) -> Self {
        let mut rng = StdRng::seed_from_u64(p.seed);
        // Two-state Markov chain per machine. Mean downtime ~4 hours:
        // P(recover) = 0.25/hour; choose P(fail) for the target
        // availability: avail = up_rate/(up_rate+down_rate).
        let p_recover = 0.25f64;
        let p_fail = p_recover * (1.0 - p.base_availability) / p.base_availability;
        let mut state: Vec<bool> = (0..p.machines)
            .map(|_| rng.random::<f64>() < p.base_availability)
            .collect();
        let spike_victims: Vec<bool> = (0..p.machines)
            .map(|_| rng.random::<f64>() < p.spike_fraction)
            .collect();
        let mut up = Vec::with_capacity(p.hours);
        for h in 0..p.hours {
            // Diurnal modulation: more failures around hour 0-6 of each day.
            let hour_of_day = h % 24;
            let night = (2..7).contains(&hour_of_day);
            let fail_rate = if night {
                p_fail + p.diurnal_amplitude * p_recover
            } else {
                p_fail
            };
            for s in state.iter_mut() {
                if *s {
                    if rng.random::<f64>() < fail_rate {
                        *s = false;
                    }
                } else if rng.random::<f64>() < p_recover {
                    *s = true;
                }
            }
            if h >= p.spike_hour && h < p.spike_hour + p.spike_duration {
                for (s, &v) in state.iter_mut().zip(&spike_victims) {
                    if v {
                        *s = false;
                    }
                }
            }
            up.push(state.clone());
        }
        AvailabilityTrace { up }
    }

    /// Mean machine availability over the whole trace.
    #[must_use]
    pub fn mean_availability(&self) -> f64 {
        let total: usize = self
            .up
            .iter()
            .map(|h| h.iter().filter(|&&b| b).count())
            .sum();
        total as f64 / (self.up.len() * self.up[0].len()) as f64
    }

    /// Number of machines down at `hour`.
    #[must_use]
    pub fn down_at(&self, hour: usize) -> usize {
        self.up[hour].iter().filter(|&&b| !b).count()
    }
}

/// One placement unit: an anchor subtree with its file population.
struct Unit {
    key: Id,
    files: u64,
    /// Current holder machines (primary + K replicas).
    holders: Vec<usize>,
}

/// Hourly availability series produced by [`simulate_availability`].
#[derive(Debug, Clone)]
pub struct AvailabilitySeries {
    /// Percentage of files available at each hour.
    pub pct_available: Vec<f64>,
    /// Mean over all hours.
    pub average: f64,
    /// Minimum (the dip at the failure spike).
    pub minimum: f64,
}

/// Replays the availability trace against the placed file system with
/// `k` replicas per file and the given distribution level.
#[must_use]
pub fn simulate_availability(
    trace: &FsTrace,
    avail: &AvailabilityTrace,
    level: usize,
    k: usize,
    seed: u64,
) -> AvailabilitySeries {
    let machines = avail.up[0].len();
    let ids: Vec<Id> = (0..machines)
        .map(|i| node_id_from_seed(&format!("avail{seed}-{i}")))
        .collect();
    // Ring index for nearest-live queries.
    let ring: BTreeMap<Id, usize> = ids.iter().enumerate().map(|(i, &id)| (id, i)).collect();

    // Group files into placement units by anchor directory.
    let mut unit_files: HashMap<String, u64> = HashMap::new();
    for f in &trace.files {
        let (dir, _) = parent_and_name(&f.path).unwrap_or(("/", ""));
        let anchor = anchor_dir_of(dir, level)
            .expect("trace paths are absolute")
            .into_owned();
        *unit_files.entry(anchor).or_insert(0) += 1;
    }
    let total_files: u64 = unit_files.values().sum();

    let nearest_live = |key: Id, exclude: &[usize], up: &[bool], want: usize| -> Vec<usize> {
        // Walk outward from the key in both ring directions.
        let mut out = Vec::with_capacity(want);
        let mut fwd = ring.range(key..).chain(ring.range(..key));
        let mut bwd = ring.range(..key).rev().chain(ring.range(key..).rev());
        let mut fcand = fwd.next();
        let mut bcand = bwd.next();
        let mut seen = vec![false; up.len()];
        for &e in exclude {
            seen[e] = true;
        }
        while out.len() < want {
            // Pick whichever candidate is ring-closer to the key.
            let pick = match (fcand, bcand) {
                (Some((&fi, &fm)), Some((&bi, &bm))) => {
                    if key.ring_distance(fi) <= key.ring_distance(bi) {
                        fcand = fwd.next();
                        Some((fi, fm))
                    } else {
                        bcand = bwd.next();
                        Some((bi, bm))
                    }
                }
                (Some((&fi, &fm)), None) => {
                    fcand = fwd.next();
                    Some((fi, fm))
                }
                (None, Some((&bi, &bm))) => {
                    bcand = bwd.next();
                    Some((bi, bm))
                }
                (None, None) => None,
            };
            let Some((_, m)) = pick else { break };
            if !seen[m] && up[m] {
                out.push(m);
            }
            seen[m] = true;
            if seen.iter().all(|&s| s) {
                break;
            }
        }
        out
    };

    // Initial placement: holders are the K+1 nearest machines that are
    // up at hour 0.
    let mut units: Vec<Unit> = unit_files
        .into_iter()
        .map(|(anchor, files)| {
            let name = if anchor == "/" {
                "/"
            } else {
                parent_and_name(&anchor).map(|(_, n)| n).unwrap_or("/")
            };
            let key = dir_key(name);
            let holders = nearest_live(key, &[], &avail.up[0], k + 1);
            Unit {
                key,
                files,
                holders,
            }
        })
        .collect();

    let mut pct = Vec::with_capacity(avail.up.len());
    for up in &avail.up {
        let mut available = 0u64;
        for u in &mut units {
            let live: Vec<usize> = u.holders.iter().copied().filter(|&m| up[m]).collect();
            if live.is_empty() {
                // All holders down: unavailable; holder set frozen (their
                // disks persist) until one returns.
                continue;
            }
            available += u.files;
            if live.len() < u.holders.len() || u.holders.len() < k + 1 {
                // A live holder re-replicates onto nearby live machines.
                let mut holders = live.clone();
                let extra = nearest_live(u.key, &holders, up, (k + 1) - holders.len());
                holders.extend(extra);
                u.holders = holders;
            }
        }
        pct.push(100.0 * available as f64 / total_files.max(1) as f64);
    }
    let average = pct.iter().sum::<f64>() / pct.len() as f64;
    let minimum = pct.iter().copied().fold(f64::INFINITY, f64::min);
    AvailabilitySeries {
        pct_available: pct,
        average,
        minimum,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fstrace::TraceParams;

    fn small_setup() -> (FsTrace, AvailabilityTrace, AvailabilityParams) {
        let trace = FsTrace::generate(&TraceParams::default().scaled(0.005));
        let p = AvailabilityParams {
            machines: 64,
            hours: 120,
            spike_hour: 80,
            ..Default::default()
        };
        let avail = AvailabilityTrace::generate(&p);
        (trace, avail, p)
    }

    #[test]
    fn trace_hits_target_availability() {
        let p = AvailabilityParams {
            machines: 256,
            hours: 400,
            spike_fraction: 0.0,
            ..Default::default()
        };
        let t = AvailabilityTrace::generate(&p);
        let avail = t.mean_availability();
        assert!(
            (avail - p.base_availability).abs() < 0.05,
            "availability {avail} far from target {}",
            p.base_availability
        );
    }

    #[test]
    fn spike_downs_requested_fraction() {
        let p = AvailabilityParams {
            machines: 500,
            hours: 700,
            ..Default::default()
        };
        let t = AvailabilityTrace::generate(&p);
        let before = t.down_at(p.spike_hour - 1);
        let during = t.down_at(p.spike_hour);
        assert!(
            during as f64 >= before as f64 + 0.8 * p.spike_fraction * 0.88 * p.machines as f64,
            "spike too small: {before} -> {during}"
        );
    }

    #[test]
    fn replicas_improve_availability() {
        let (trace, avail, _) = small_setup();
        let k0 = simulate_availability(&trace, &avail, 3, 0, 1);
        let k1 = simulate_availability(&trace, &avail, 3, 1, 1);
        let k3 = simulate_availability(&trace, &avail, 3, 3, 1);
        assert!(k1.average > k0.average, "{} !> {}", k1.average, k0.average);
        assert!(k3.average >= k1.average);
        assert!(k3.average > 99.5, "Kosha-3 average {}", k3.average);
        assert!(k3.minimum >= k0.minimum);
    }

    #[test]
    fn no_replica_availability_tracks_machine_availability() {
        let (trace, avail, _) = small_setup();
        let k0 = simulate_availability(&trace, &avail, 3, 0, 1);
        let machine_avail = avail.mean_availability() * 100.0;
        // With re-placement on failure (repair), Kosha-0 does somewhat
        // better than raw machine availability but in the same regime.
        assert!(k0.average > machine_avail - 10.0);
        assert!(k0.average <= 100.0);
    }
}
