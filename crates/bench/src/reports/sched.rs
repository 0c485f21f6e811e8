//! Scheduler-runtime scale bench (`BENCH_sched.json`): the event-heap
//! SimNetwork under a message-storm + pump-tick workload at 1k and 10k
//! nodes, plus a ThreadedNetwork phase proving the reactor's worker
//! pool stays fixed while thousands of `call_async` RPCs complete.
//!
//! What it proves:
//!
//! * **O(log n) dispatch** — the heap grows 10x between the two sim
//!   scales (one armed recurring timer per node) but the comparisons
//!   charged per event grow only by ~log(10k)/log(1k). A linear
//!   scan-for-minimum would grow 10x. Comparisons are counted inside
//!   `Ord for Entry` ([`kosha_rpc::heap_comparisons`]), so the evidence
//!   is exact and deterministic, not a wall-clock proxy.
//! * **Thread-count collapse** — attaching nodes to the reactor spawns
//!   zero threads; the pool is sized by the host CPU, not the cluster.
//!
//! Every figure in the JSON derives from virtual time, event counts,
//! and comparison counters, so double runs are byte-identical (the CI
//! `scale-smoke` gate). Wall-clock throughput goes to the text form
//! only and is never serialized.

use crate::{outln, timed, Report};
use kosha_rpc::{
    heap_comparisons, Clock, LatencyModel, Network, NodeAddr, PumpHook, RpcError, RpcHandler,
    RpcRequest, RpcResponse, ServiceId, ServiceMux, SimNetwork, ThreadedNetwork, WireRead,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Echoes the request body back — the cheapest possible handler, so the
/// bench measures the runtime, not application work.
struct Echo;

impl RpcHandler for Echo {
    fn handle(&self, _from: NodeAddr, body: &[u8]) -> Result<RpcResponse, RpcError> {
        let v = u32::decode(body).map_err(RpcError::Decode)?;
        Ok(RpcResponse::new(&v))
    }
}

/// Seeded LCG (atomic so hooks stay `Sync`; the simulation drives them
/// from one thread) — the storm's traffic pattern is identical on every
/// run.
struct Lcg(AtomicU64);

impl Lcg {
    fn next(&self) -> u64 {
        let v = self
            .0
            .load(Ordering::Relaxed)
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0.store(v, Ordering::Relaxed);
        v >> 16
    }
}

/// Passive per-node tick hook: its only job is to keep one recurring
/// timer per node armed in the heap (depth ~= cluster size) and count
/// its fires.
struct TickHook {
    fires: Arc<AtomicU64>,
}

impl PumpHook for TickHook {
    fn pump(&self) {
        self.fires.fetch_add(1, Ordering::Relaxed);
    }
}

/// Storm hook: on each fire, issues a couple of echo RPCs between
/// LCG-chosen nodes. Kept to a small fixed population so nested pump
/// firing stays shallow while the tick timers hold the heap deep.
struct StormHook {
    net: Arc<SimNetwork>,
    nodes: u64,
    rng: Lcg,
    calls: Arc<AtomicU64>,
}

impl PumpHook for StormHook {
    // lint: allow(L005) bench storm driver: issuing RPCs from the pump IS the workload being measured
    fn pump(&self) {
        for _ in 0..STORM_CALLS_PER_FIRE {
            let (from, to) = (self.rng.next() % self.nodes, self.rng.next() % self.nodes);
            let seq = self.calls.fetch_add(1, Ordering::Relaxed);
            let req = RpcRequest::new(ServiceId::Nfs, &(seq as u32));
            let _ = self.net.call(NodeAddr(from), NodeAddr(to), req);
        }
    }
}

const STORM_HOOKS: usize = 64;
const STORM_CALLS_PER_FIRE: usize = 2;
const STORM_INTERVAL_MS: u64 = 2;
const TICK_INTERVAL_SPREAD_MS: u64 = 16;
const SIM_HORIZON_MS: u64 = 100;
const THREADED_NODES: usize = 512;
const THREADED_ASYNC_CALLS: usize = 2000;

/// One sim-phase run: what the scaling evidence and the text need, and
/// the phase's JSON object (virtual time and counts only).
struct SimPhase {
    nodes: usize,
    events_total: u64,
    /// Comparisons charged per event, x100 (integer fixed-point so the
    /// JSON never carries float formatting).
    cmp_per_event_x100: u64,
    heap_hwm: u64,
    dispatch_p99_nanos: u64,
    json: String,
}

fn sim_phase(nodes: usize, out: &mut String) -> SimPhase {
    // Zero-cost latency model: storm calls must not advance the virtual
    // clock, or they would race it past every armed tick's rearm
    // deadline and the catch-up fires would never drain. With calls
    // instantaneous, ticks fire exactly on cadence and the workload is
    // a closed, exact function of the horizon.
    let net = SimNetwork::new(LatencyModel::zero());
    for i in 0..nodes {
        let mux = Arc::new(ServiceMux::new());
        mux.register(ServiceId::Nfs, Arc::new(Echo));
        net.attach(NodeAddr(i as u64), mux);
    }

    // One recurring timer per node, intervals staggered across
    // 1..=16 ms so fires spread instead of thundering.
    let tick_fires = Arc::new(AtomicU64::new(0));
    let mut hooks: Vec<Arc<dyn PumpHook>> = Vec::with_capacity(nodes + STORM_HOOKS);
    for i in 0..nodes {
        let hook: Arc<dyn PumpHook> = Arc::new(TickHook {
            fires: Arc::clone(&tick_fires),
        });
        net.schedule_pump(
            Arc::downgrade(&hook),
            Duration::from_millis(1 + (i as u64) % TICK_INTERVAL_SPREAD_MS),
        );
        hooks.push(hook);
    }

    // A small storm population drives echo RPCs through the same heap.
    let storm_calls = Arc::new(AtomicU64::new(0));
    for i in 0..STORM_HOOKS {
        let hook: Arc<dyn PumpHook> = Arc::new(StormHook {
            net: Arc::clone(&net),
            nodes: nodes as u64,
            rng: Lcg(AtomicU64::new(0x9E3779B97F4A7C15 ^ (i as u64))),
            calls: Arc::clone(&storm_calls),
        });
        net.schedule_pump(
            Arc::downgrade(&hook),
            Duration::from_millis(STORM_INTERVAL_MS),
        );
        hooks.push(hook);
    }

    let obs = net.obs();
    let cmp_before = heap_comparisons();
    let start = net.virtual_clock().now();
    let ((), wall) = timed(|| net.run_for(Duration::from_millis(SIM_HORIZON_MS)));
    let virtual_elapsed = net.virtual_clock().now().0 - start.0;

    let events_total = obs.registry.counter("kosha_sched_events_total").get();
    let comparisons = heap_comparisons() - cmp_before;
    let p99 = obs
        .registry
        .histogram("kosha_sched_dispatch_latency_nanos")
        .quantile(0.99);
    let hwm = obs.registry.gauge("kosha_sched_heap_depth_hwm").get() as u64;
    let wall_events_per_sec = if wall.as_nanos() == 0 {
        0
    } else {
        (u128::from(events_total) * 1_000_000_000 / wall.as_nanos()) as u64
    };
    outln!(
        out,
        "sim {nodes} nodes: {events_total} events in {:.1} ms wall ({wall_events_per_sec} events/s wall)",
        wall.as_secs_f64() * 1e3,
    );

    let cmp_per_event_x100 = (comparisons * 100).checked_div(events_total).unwrap_or(0);
    let (storm_calls, pump_fires) = (
        storm_calls.load(Ordering::Relaxed),
        tick_fires.load(Ordering::Relaxed),
    );
    // Events per *virtual* second: throughput in modeled time, which is
    // deterministic (wall-clock throughput goes to the text only).
    let events_per_virtual_sec = (u128::from(events_total) * 1_000_000_000)
        .checked_div(u128::from(virtual_elapsed))
        .unwrap_or(0);
    let json = format!(
        r#"    {{
      "nodes": {nodes},
      "events_total": {events_total},
      "heap_comparisons": {comparisons},
      "cmp_per_event_x100": {cmp_per_event_x100},
      "heap_depth_hwm": {hwm},
      "dispatch_p99_nanos": {p99},
      "virtual_elapsed_nanos": {virtual_elapsed},
      "events_per_virtual_sec": {events_per_virtual_sec},
      "storm_calls": {storm_calls},
      "pump_fires": {pump_fires}
    }}"#
    );
    SimPhase {
        nodes,
        events_total,
        cmp_per_event_x100,
        heap_hwm: hwm,
        dispatch_p99_nanos: p99,
        json,
    }
}

/// The reactor phase: its JSON object and its line of text. The pool is
/// sized by the host, so `check` masks what follows from the core count.
fn threaded_phase() -> (String, String) {
    let net = ThreadedNetwork::new(Duration::from_secs(10));
    let spawned_at_boot = net.threads_spawned();
    for i in 0..THREADED_NODES {
        let mux = Arc::new(ServiceMux::new());
        mux.register(ServiceId::Nfs, Arc::new(Echo));
        net.attach(NodeAddr(i as u64), mux);
    }
    // Issue every call before waiting on any: all of them are in flight
    // against a pool that never grows.
    let completions: Vec<_> = (0..THREADED_ASYNC_CALLS)
        .map(|k| {
            let from = NodeAddr((k % THREADED_NODES) as u64);
            let to = NodeAddr(((k * 7 + 1) % THREADED_NODES) as u64);
            net.call_async(from, to, RpcRequest::new(ServiceId::Nfs, &(k as u32)))
        })
        .collect();
    let ok = completions
        .into_iter()
        .map(kosha_rpc::CallCompletion::wait)
        .filter(Result::is_ok)
        .count();
    assert_eq!(ok, THREADED_ASYNC_CALLS, "async echo storm had failures");

    let cpu_cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let (workers, spawned) = (net.worker_threads(), net.threads_spawned());
    // True when attach + the whole async storm spawned zero threads
    // beyond the boot-time pool.
    let pool_fixed = spawned == spawned_at_boot;
    let workers_le_2x_cores = workers <= 2 * cpu_cores.max(2);
    let json = format!(
        r#"  "threaded": {{
    "attached_nodes": {THREADED_NODES},
    "async_calls": {THREADED_ASYNC_CALLS},
    "worker_threads": {workers},
    "cpu_cores": {cpu_cores},
    "threads_spawned_total": {spawned},
    "pool_fixed": {pool_fixed},
    "workers_le_2x_cores": {workers_le_2x_cores}
  }}"#
    );
    let text = format!(
        "  {THREADED_NODES} nodes attached, {THREADED_ASYNC_CALLS} async calls completed on {workers} workers ({cpu_cores} cores, {spawned} threads ever spawned, pool_fixed={pool_fixed})"
    );
    (json, text)
}

/// Both sim scales and the reactor phase, with the scaling evidence.
pub fn run(_full: bool) -> Report {
    let mut out = String::new();
    let small = sim_phase(1_000, &mut out);
    let large = sim_phase(10_000, &mut out);
    let (threaded_json, threaded_text) = threaded_phase();

    // O(log n) evidence: heap depth grew ~10x, comparisons-per-event by
    // ~log(10k)/log(1k) ~= 1.33x. Linear dispatch would be ~10x (1000
    // in x100 fixed-point).
    let cmp_ratio_x100 = (large.cmp_per_event_x100 * 100)
        .checked_div(small.cmp_per_event_x100)
        .unwrap_or(0);
    let hwm_ratio_x100 = (large.heap_hwm * 100)
        .checked_div(small.heap_hwm)
        .unwrap_or(0);

    let (small_json, large_json) = (&small.json, &large.json);
    let json = format!(
        r#"{{
  "workload": {{
    "sim_horizon_ms": {SIM_HORIZON_MS},
    "tick_interval_spread_ms": {TICK_INTERVAL_SPREAD_MS},
    "storm_hooks": {STORM_HOOKS},
    "storm_calls_per_fire": {STORM_CALLS_PER_FIRE}
  }},
  "sim": [
{small_json},
{large_json}
  ],
  "scaling": {{
    "heap_hwm_ratio_x100": {hwm_ratio_x100},
    "cmp_per_event_ratio_x100": {cmp_ratio_x100},
    "linear_dispatch_would_be_x100": 1000
  }},
{threaded_json}
}}"#
    );

    outln!(out);
    outln!(out, "scheduler runtime — event heap at scale");
    for p in [&small, &large] {
        outln!(
            out,
            "  {:>7} nodes: {:>8} events, {:>5.2} cmp/event, heap hwm {:>6}, p99 dispatch {:.1} ms",
            p.nodes,
            p.events_total,
            p.cmp_per_event_x100 as f64 / 100.0,
            p.heap_hwm,
            p.dispatch_p99_nanos as f64 / 1e6
        );
    }
    outln!(
        out,
        "  heap grew {:.1}x, comparisons/event grew {:.2}x (linear would be ~10x) => O(log n)",
        hwm_ratio_x100 as f64 / 100.0,
        cmp_ratio_x100 as f64 / 100.0,
    );
    outln!(out);
    outln!(out, "reactor — thread-count collapse");
    outln!(out, "{threaded_text}\n");
    Report {
        text: out,
        json: Some(json),
    }
}
