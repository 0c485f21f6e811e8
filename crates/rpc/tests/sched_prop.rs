//! Property tests for the event-heap scheduler (ISSUE 7 determinism
//! contract): pop order is exactly the stable `(deadline, seq)` sort of
//! the insert sequence, and identical insert sequences drain to
//! byte-identical event streams — the property the CI bench gates
//! (double-run `diff` on `BENCH_*.json`) ultimately rest on.

use kosha_rpc::{Clock, LatencyModel, Scheduler, SimNetwork, SimTime};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Drains a scheduler completely, rendering each event as bytes so two
/// drains can be compared for *byte* identity, not just logical
/// equality.
fn drain_bytes(s: &Scheduler<u64>) -> Vec<u8> {
    let mut out = Vec::new();
    while let Some((deadline, payload)) = s.pop_due(u64::MAX) {
        out.extend_from_slice(&deadline.to_le_bytes());
        out.extend_from_slice(&payload.to_le_bytes());
    }
    out
}

proptest! {
    /// Pop order matches the stable sort of `(deadline, insertion seq)`
    /// regardless of insert order, heap shape, or duplicate deadlines.
    #[test]
    fn pop_order_is_deadline_then_seq(deadlines in proptest::collection::vec(any::<u64>(), 0..200)) {
        let s: Scheduler<u64> = Scheduler::new();
        for (i, &d) in deadlines.iter().enumerate() {
            s.schedule_at(d, 0, i as u64);
        }
        let mut drained = Vec::new();
        while let Some((d, i)) = s.pop_due(u64::MAX) {
            drained.push((d, i));
        }
        let mut expected: Vec<(u64, u64)> = deadlines
            .iter()
            .enumerate()
            .map(|(i, &d)| (d, i as u64))
            .collect();
        // seq == insertion index, so a stable sort on deadline is the
        // (deadline, seq) order.
        expected.sort_by_key(|&(d, _)| d);
        prop_assert_eq!(drained, expected);
    }

    /// Same inserts ⇒ byte-identical drain: two schedulers fed the same
    /// sequence produce the same event stream down to the byte.
    #[test]
    fn identical_inserts_drain_byte_identically(
        deadlines in proptest::collection::vec(any::<u64>(), 0..200),
    ) {
        let a: Scheduler<u64> = Scheduler::new();
        let b: Scheduler<u64> = Scheduler::new();
        for (i, &d) in deadlines.iter().enumerate() {
            a.schedule_at(d, 0, i as u64);
            b.schedule_at(d, 0, i as u64);
        }
        prop_assert_eq!(drain_bytes(&a), drain_bytes(&b));
    }

    /// `pop_due` horizons partition the drain without reordering it:
    /// draining in two phases split at an arbitrary horizon yields the
    /// same stream as draining in one.
    #[test]
    fn horizon_split_preserves_order(
        deadlines in proptest::collection::vec(any::<u64>(), 0..200),
        split in any::<u64>(),
    ) {
        let whole: Scheduler<u64> = Scheduler::new();
        let phased: Scheduler<u64> = Scheduler::new();
        for (i, &d) in deadlines.iter().enumerate() {
            whole.schedule_at(d, 0, i as u64);
            phased.schedule_at(d, 0, i as u64);
        }
        let mut two_phase = Vec::new();
        while let Some(ev) = phased.pop_due(split) {
            two_phase.push(ev);
        }
        while let Some(ev) = phased.pop_due(u64::MAX) {
            two_phase.push(ev);
        }
        let mut one_phase = Vec::new();
        while let Some(ev) = whole.pop_due(u64::MAX) {
            one_phase.push(ev);
        }
        prop_assert_eq!(two_phase, one_phase);
    }
}

/// End-to-end through the transport: timers planted out of order fire
/// in deadline order under `run_for`, and the virtual clock lands
/// exactly on the run horizon.
#[test]
fn simnet_timers_fire_in_deadline_order() {
    let net = SimNetwork::new(LatencyModel::zero());
    let fired = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let order = Arc::new(AtomicUsize::new(0));
    for (label, after_ms) in [
        ("late", 30u64),
        ("early", 10),
        ("mid", 20),
        ("early-tie", 10),
    ] {
        let fired = Arc::clone(&fired);
        let order = Arc::clone(&order);
        net.schedule_after(Duration::from_millis(after_ms), move || {
            let n = order.fetch_add(1, Ordering::SeqCst);
            fired.lock().push((n, label));
        });
    }
    net.run_for(Duration::from_millis(25));
    assert_eq!(
        *fired.lock(),
        vec![(0, "early"), (1, "early-tie"), (2, "mid")]
    );
    assert_eq!(net.virtual_clock().now(), SimTime(25_000_000));
    // The horizon gated the last timer; a second run releases it.
    net.run_for(Duration::from_millis(25));
    assert_eq!(fired.lock().len(), 4);
    assert_eq!(fired.lock()[3], (3, "late"));
    assert_eq!(net.virtual_clock().now(), SimTime(50_000_000));
}

/// What the property below replays: timers, calls (loopback, remote with
/// a nested call from the handler, to a crashed node) and `run_for`
/// spans, against two recurring pumps of which one calls out.
#[derive(Debug, Clone)]
enum Step {
    Timer(u64),
    Call(u64),
    RunFor(u64),
}

/// One replay. `forced` plants an already-due no-op timer before every
/// delivery leg (ahead of each call, and as the last act of each
/// handler), so every leg finds something due and takes the heap path;
/// without it a leg queues only when a real event is due before it.
/// Returns the `(instant, who)` log of every real firing, ending with
/// the final clock.
fn replay(steps: &[Step], forced: bool) -> Vec<(u64, u32)> {
    use kosha_rpc::{
        Network, NodeAddr, PumpHook, RpcError, RpcHandler, RpcRequest, RpcResponse, ServiceId,
        ServiceMux,
    };
    use std::sync::Weak;

    struct World {
        net: Arc<SimNetwork>,
        log: parking_lot::Mutex<Vec<(u64, u32)>>,
        forced: bool,
        sentinels: AtomicUsize,
        legs: AtomicUsize,
    }
    impl World {
        fn note(&self, who: u32) {
            self.log
                .lock()
                .push((self.net.virtual_clock().now().0, who));
        }
        fn force_next_leg(self: &Arc<Self>) {
            if self.forced {
                let w = Arc::clone(self);
                self.net.schedule_after(Duration::ZERO, move || {
                    w.sentinels.fetch_add(1, Ordering::SeqCst);
                });
            }
        }
        fn call(self: &Arc<Self>, from: u64, to: u64) {
            self.force_next_leg();
            let local_or_dead = from == to || !self.net.is_up(NodeAddr(to));
            self.legs
                .fetch_add(if local_or_dead { 1 } else { 2 }, Ordering::SeqCst);
            let req = RpcRequest::new(ServiceId::Nfs, &vec![0u8; 100 * to as usize]);
            let _ = self.net.call(NodeAddr(from), NodeAddr(to), req);
        }
    }
    /// Handler of one node: logs its address; node 2 relays to node 1
    /// and logs again; replies.
    struct Node(Weak<World>, u64);
    impl RpcHandler for Node {
        fn handle(&self, _from: NodeAddr, _body: &[u8]) -> Result<RpcResponse, RpcError> {
            let w = self.0.upgrade().expect("world outlives its calls");
            w.note(100 + self.1 as u32);
            if self.1 == 2 {
                w.call(2, 1);
                w.note(112);
            }
            w.force_next_leg();
            Ok(RpcResponse::new(&0u8))
        }
    }
    /// Pump `id`: logs; pump 1 also calls node 2 (which relays).
    struct Pump(Weak<World>, u32);
    impl PumpHook for Pump {
        fn pump(&self) {
            let w = self.0.upgrade().expect("world outlives its pumps");
            w.note(200 + self.1);
            if self.1 == 1 {
                w.call(1, 2);
            }
        }
    }

    let world = Arc::new(World {
        // Every cost a multiple of 50 µs, like the timers and spans of
        // `arb_steps`, so events falling due exactly when a leg ends
        // are common; and a timeout of a few pump intervals.
        net: SimNetwork::new(LatencyModel {
            hop_latency: Duration::from_micros(100),
            server_op_cost: Duration::from_micros(50),
            loopback_cost: Duration::from_micros(50),
            timeout: Duration::from_millis(5),
            ..LatencyModel::zero()
        }),
        log: parking_lot::Mutex::new(Vec::new()),
        forced,
        sentinels: AtomicUsize::new(0),
        legs: AtomicUsize::new(0),
    });
    let net = &world.net;
    for a in 1..=3 {
        let mux = Arc::new(ServiceMux::new());
        mux.register(ServiceId::Nfs, Arc::new(Node(Arc::downgrade(&world), a)));
        net.attach(NodeAddr(a), mux);
    }
    net.fail_node(NodeAddr(3));
    let pumps: Vec<Arc<dyn PumpHook>> = vec![
        Arc::new(Pump(Arc::downgrade(&world), 0)),
        Arc::new(Pump(Arc::downgrade(&world), 1)),
    ];
    net.schedule_pump(Arc::downgrade(&pumps[0]), Duration::from_micros(700));
    net.schedule_pump(Arc::downgrade(&pumps[1]), Duration::from_micros(1900));

    for (i, step) in steps.iter().enumerate() {
        match *step {
            Step::Timer(after_us) => {
                let w = Arc::clone(&world);
                net.schedule_after(Duration::from_micros(after_us), move || {
                    w.note(300 + i as u32);
                });
            }
            Step::Call(to) => world.call(1, to),
            Step::RunFor(us) => net.run_for(Duration::from_micros(us)),
        }
    }
    let mut log = std::mem::take(&mut *world.log.lock());
    let fired = log.iter().filter(|&&(_, who)| who >= 200).count();
    let popped = net.obs().registry.counter("kosha_sched_events_total").get() as usize;
    let waypoints = popped - fired - world.sentinels.load(Ordering::SeqCst);
    if forced {
        assert_eq!(waypoints, world.legs.load(Ordering::SeqCst));
    } else {
        assert!(waypoints <= world.legs.load(Ordering::SeqCst));
    }
    log.push((net.virtual_clock().now().0, 0));
    log
}

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        prop_oneof![
            (0u64..60).prop_map(|n| Step::Timer(n * 50)),
            (1u64..4).prop_map(Step::Call),
            (0u64..50).prop_map(|n| Step::RunFor(n * 50)),
        ],
        0..40,
    )
}

proptest! {
    /// A delivery leg that skips the heap because nothing is due before
    /// it is the same leg: timers, pump ticks and handlers (nested calls
    /// included) fire in the same order at the same instants, and the
    /// clock ends where it would, as when every leg is a heap waypoint.
    #[test]
    fn skipping_the_heap_changes_no_instant_and_no_order(steps in arb_steps()) {
        let plain = replay(&steps, false);
        let forced = replay(&steps, true);
        prop_assert_eq!(plain, forced);
    }
}
