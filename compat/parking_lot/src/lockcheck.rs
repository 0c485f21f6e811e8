//! Runtime lock-order checking (the `lockcheck` feature).
//!
//! Every [`crate::Mutex`]/[`crate::RwLock`] acquisition is tagged with
//! its call site (`file:line:column`, via `#[track_caller]`). A
//! thread-local stack tracks the sites this thread currently holds;
//! each acquisition records *held → acquiring* edges in a global
//! lock-order graph. A new edge that closes a cycle means two code
//! paths acquire the same pair of acquisition sites in opposite orders
//! — a potential deadlock — and is reported once per edge pair with
//! both sites named.
//!
//! Granularity is per *site*, not per lock instance: two different
//! locks acquired through the same line share a site. That
//! over-approximates (a reported cycle may involve two instances that
//! are never contended together) but never under-approximates: any
//! real ABBA deadlock between tracked locks appears as a cycle here.
//! A site that nests under itself (`A@s` held while acquiring `B@s`)
//! is reported as a self-cycle, because nothing orders the two
//! instances across threads.
//!
//! The transports additionally call [`note_rpc_call`] on every
//! `Network::call`, so a lock held across a blocking RPC — the runtime
//! counterpart of kosha-lint's L001 — is caught even when the
//! acquisition and the call live in different functions.
//!
//! Violations invoke registered [`report hooks`](add_report_hook)
//! (kosha-rpc uses these to journal `lockcheck_cycle` events into the
//! transport's observability domain) and then, unless
//! [`set_panic_on_violation`]`(false)` was called, panic — which is
//! what makes `cargo test --features lockcheck` assert the whole suite
//! is cycle-free.
//!
//! Internal bookkeeping deliberately uses `std::sync` primitives so
//! the checker never traces itself.

use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;
use std::panic::Location;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex as StdMutex, OnceLock};

/// One acquisition site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Site {
    /// Source file of the acquisition.
    pub file: &'static str,
    /// Line of the `lock()`/`read()`/`write()` call.
    pub line: u32,
    /// Column of that call.
    pub column: u32,
    /// `"mutex"`, `"rwlock.read"`, or `"rwlock.write"`.
    pub kind: &'static str,
}

impl fmt::Display for Site {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{} ({})",
            self.file, self.line, self.column, self.kind
        )
    }
}

/// A detected lock-order cycle: acquiring `acquiring` while holding
/// `held` closes a cycle in the global order graph.
#[derive(Debug, Clone)]
pub struct CycleReport {
    /// The site already held by this thread.
    pub held: Site,
    /// The site being acquired when the cycle closed.
    pub acquiring: Site,
    /// The pre-existing path `acquiring → … → held` whose edges some
    /// other code path established (acquisition order chain).
    pub path: Vec<Site>,
}

impl fmt::Display for CycleReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "lock-order cycle: thread holds {} while acquiring {}; \
             elsewhere the order is {}",
            self.held,
            self.acquiring,
            self.path
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(" -> "),
        )
    }
}

/// A checker violation, passed to [report hooks](add_report_hook).
#[derive(Debug, Clone)]
pub enum Violation {
    /// A cycle in the lock-order graph (potential deadlock).
    Cycle(CycleReport),
    /// A blocking RPC issued while this thread holds locks.
    HeldAcrossRpc {
        /// Transport-provided description of the call.
        context: String,
        /// The sites held at the moment of the call.
        held: Vec<Site>,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Cycle(c) => c.fmt(f),
            Violation::HeldAcrossRpc { context, held } => write!(
                f,
                "blocking RPC ({context}) while holding {}",
                held.iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(", "),
            ),
        }
    }
}

struct State {
    sites: Vec<Site>,
    ids: HashMap<(usize, u32, u32), u32>,
    edges: HashMap<u32, BTreeSet<u32>>,
    reported: HashSet<(u32, u32)>,
    cycles: Vec<CycleReport>,
}

impl State {
    fn new() -> Self {
        State {
            sites: Vec::new(),
            ids: HashMap::new(),
            edges: HashMap::new(),
            reported: HashSet::new(),
            cycles: Vec::new(),
        }
    }

    fn intern(&mut self, loc: &'static Location<'static>, kind: &'static str) -> u32 {
        let key = (loc.file().as_ptr() as usize, loc.line(), loc.column());
        if let Some(&id) = self.ids.get(&key) {
            return id;
        }
        let id = self.sites.len() as u32;
        self.sites.push(Site {
            file: loc.file(),
            line: loc.line(),
            column: loc.column(),
            kind,
        });
        self.ids.insert(key, id);
        id
    }

    /// Shortest edge path `from → … → to`, if one exists (BFS).
    fn path(&self, from: u32, to: u32) -> Option<Vec<u32>> {
        let mut prev: HashMap<u32, u32> = HashMap::new();
        let mut queue = std::collections::VecDeque::from([from]);
        let mut seen = HashSet::from([from]);
        while let Some(n) = queue.pop_front() {
            if n == to {
                let mut chain = vec![to];
                let mut cur = to;
                while cur != from {
                    cur = prev[&cur];
                    chain.push(cur);
                }
                chain.reverse();
                return Some(chain);
            }
            if let Some(next) = self.edges.get(&n) {
                for &m in next {
                    if seen.insert(m) {
                        prev.insert(m, n);
                        queue.push_back(m);
                    }
                }
            }
        }
        None
    }
}

fn state() -> &'static StdMutex<State> {
    static STATE: OnceLock<StdMutex<State>> = OnceLock::new();
    STATE.get_or_init(|| StdMutex::new(State::new()))
}

type Hook = Box<dyn Fn(&Violation) -> bool + Send + Sync>;

fn hooks() -> &'static StdMutex<Vec<Hook>> {
    static HOOKS: OnceLock<StdMutex<Vec<Hook>>> = OnceLock::new();
    HOOKS.get_or_init(|| StdMutex::new(Vec::new()))
}

static PANIC_ON_VIOLATION: AtomicBool = AtomicBool::new(true);

thread_local! {
    static HELD: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

fn unpoisoned<T>(r: Result<T, std::sync::PoisonError<T>>) -> T {
    r.unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn dispatch(v: &Violation) {
    eprintln!("lockcheck: {v}");
    let mut hs = unpoisoned(hooks().lock());
    hs.retain(|h| h(v));
}

/// Token held by a guard; pops the site from the thread's held stack on
/// drop.
#[derive(Debug)]
pub(crate) struct HeldToken {
    id: u32,
}

impl Drop for HeldToken {
    fn drop(&mut self) {
        HELD.with(|h| {
            let mut h = h.borrow_mut();
            if let Some(i) = h.iter().rposition(|&s| s == self.id) {
                h.remove(i);
            }
        });
    }
}

/// Records an acquisition at `loc` by this thread: interns the site,
/// adds held→acquiring edges, reports any cycle they close, and pushes
/// the site onto the thread's held stack.
///
/// Non-blocking acquisitions (`try_lock`) join the held stack — locks
/// blocking-acquired while they are held still get edges *from* them —
/// but record no edge of their own and trigger no cycle check, because
/// an acquisition that cannot block cannot close a deadlock.
pub(crate) fn on_acquire(
    loc: &'static Location<'static>,
    kind: &'static str,
    blocking: bool,
) -> HeldToken {
    let mut new_cycles: Vec<CycleReport> = Vec::new();
    let id;
    {
        let mut st = unpoisoned(state().lock());
        id = st.intern(loc, kind);
        if blocking {
            // The held stack is read in place: cloning it would allocate
            // on every nested acquisition, inside the allocation counts
            // of the code under test.
            HELD.with(|held| {
                for &h in held.borrow().iter() {
                    let fresh = st.edges.entry(h).or_default().insert(id);
                    if !fresh || st.reported.contains(&(h, id)) {
                        continue;
                    }
                    // The new edge h→id closes a cycle iff id already reaches h.
                    let back = if h == id {
                        Some(vec![id])
                    } else {
                        st.path(id, h)
                    };
                    if let Some(back) = back {
                        st.reported.insert((h, id));
                        let report = CycleReport {
                            held: st.sites[h as usize].clone(),
                            acquiring: st.sites[id as usize].clone(),
                            path: back.iter().map(|&s| st.sites[s as usize].clone()).collect(),
                        };
                        st.cycles.push(report.clone());
                        new_cycles.push(report);
                    }
                }
            });
        }
    }
    HELD.with(|h| h.borrow_mut().push(id));
    if !new_cycles.is_empty() {
        for c in &new_cycles {
            dispatch(&Violation::Cycle(c.clone()));
        }
        if PANIC_ON_VIOLATION.load(Ordering::Relaxed) {
            panic!("lockcheck: {}", new_cycles[0]);
        }
    }
    HeldToken { id }
}

/// The acquisition sites this thread currently holds, oldest first.
#[must_use]
pub fn held_sites() -> Vec<Site> {
    let ids: Vec<u32> = HELD.with(|h| h.borrow().clone());
    if ids.is_empty() {
        return Vec::new();
    }
    let st = unpoisoned(state().lock());
    ids.iter().map(|&i| st.sites[i as usize].clone()).collect()
}

/// Number of locks this thread currently holds.
#[must_use]
pub fn held_count() -> usize {
    HELD.with(|h| h.borrow().len())
}

/// Called by transports on every blocking RPC. Returns the held sites
/// (and dispatches a [`Violation::HeldAcrossRpc`] to hooks) when the
/// calling thread holds any tracked lock; the transport journals the
/// violation and then asserts according to [`panic_on_violation`].
#[must_use]
pub fn note_rpc_call(context: &str) -> Option<Vec<Site>> {
    let held = held_sites();
    if held.is_empty() {
        return None;
    }
    dispatch(&Violation::HeldAcrossRpc {
        context: context.to_string(),
        held: held.clone(),
    });
    Some(held)
}

/// All cycles detected so far (process-wide).
#[must_use]
pub fn cycles() -> Vec<CycleReport> {
    unpoisoned(state().lock()).cycles.clone()
}

/// Whether violations panic (default `true`, which is what lets the
/// test suite assert "zero cycles" by simply passing). Provocation
/// tests flip this off and inspect [`cycles`]/hooks instead.
#[must_use]
pub fn panic_on_violation() -> bool {
    PANIC_ON_VIOLATION.load(Ordering::Relaxed)
}

/// Sets the panic-on-violation flag, returning the previous value.
pub fn set_panic_on_violation(on: bool) -> bool {
    PANIC_ON_VIOLATION.swap(on, Ordering::Relaxed)
}

/// Registers a violation hook. The hook returns `false` to deregister
/// itself (e.g. when its captured observability domain is gone).
pub fn add_report_hook(hook: impl Fn(&Violation) -> bool + Send + Sync + 'static) {
    let mut hs = unpoisoned(hooks().lock());
    hs.push(Box::new(hook));
}
