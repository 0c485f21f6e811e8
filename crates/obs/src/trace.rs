//! Dapper-style causal tracing: span trees with critical-path attribution.
//!
//! A *trace* is the tree of timed spans on one request's causal path —
//! the koshad procedure at the root, Pastry route hops, control calls,
//! replica fan-out, and local-store NFS work below it. Identifiers
//! propagate two ways:
//!
//! * **same thread** — a thread-local [`SpanContext`] installed by
//!   [`Tracer::child`] / [`with_context`], which nested spans pick up
//!   automatically (this covers `SimNetwork`, whose nested handler
//!   dispatch runs on the caller's thread), and
//! * **across threads/nodes** — an optional trace header on the RPC
//!   wire frame; the transport stamps outgoing requests from the ambient
//!   context and re-installs it around the server-side handler dispatch
//!   (the threaded transport bridges every request this way, though it
//!   runs each handler on its caller's thread).
//!
//! The module is clock-agnostic: every recording call takes the current
//! time as plain `u64` nanoseconds, so spans land on the virtual clock
//! under `SimNetwork` (deterministic) and the monotonic wall clock under
//! `ThreadedNetwork`. Span ids are allocated from a per-tracer counter
//! namespaced by a process-wide tracer sequence, so ids are unique
//! across the per-node buffers of one simulated cluster and stable from
//! run to run.
//!
//! Analysis reconstructs trees from the merged per-node buffers
//! ([`build_traces`]) and attributes the root's duration along the
//! *critical path*: overlapping children — `call_many` replica fan-out
//! records its per-target RPCs as parallel siblings — are charged the
//! `max` of the group, not the sum ([`TraceTree::critical_path`]).
//! [`folded_stacks`] and [`report`] emit deterministic text/JSON
//! renderings for benches and CI.

use crate::json::Value;
use crate::obj;
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The propagated identity of an in-flight span: which trace it belongs
/// to and which span is the parent of work started under it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanContext {
    /// Trace the current work belongs to (root span's id).
    pub trace_id: u64,
    /// Innermost active span (parent of any span started now).
    pub span_id: u64,
}

thread_local! {
    static CURRENT: Cell<Option<SpanContext>> = const { Cell::new(None) };
}

/// The ambient span context on this thread, if any.
#[must_use]
pub fn current() -> Option<SpanContext> {
    CURRENT.with(Cell::get)
}

/// Runs `f` with `ctx` installed as the ambient context (replacing —
/// including clearing, when `ctx` is `None` — whatever was active), then
/// restores the previous context. Transports use this to bridge a
/// request's wire header onto the handler's thread.
pub fn with_context<R>(ctx: Option<SpanContext>, f: impl FnOnce() -> R) -> R {
    let prev = CURRENT.with(|c| c.replace(ctx));
    let out = f();
    CURRENT.with(|c| c.set(prev));
    out
}

/// One completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Trace this span belongs to.
    pub trace_id: u64,
    /// This span's id (unique across all tracers in the process).
    pub span_id: u64,
    /// Parent span id, 0 for a trace root.
    pub parent_id: u64,
    /// Low-cardinality operation name, e.g. `"rpc:replica"`.
    pub name: String,
    /// Node the span executed on (transport address).
    pub node: u64,
    /// Start time, nanoseconds on the recording clock.
    pub start_nanos: u64,
    /// End time, nanoseconds on the recording clock.
    pub end_nanos: u64,
}

impl SpanRecord {
    /// Span duration in nanoseconds (0 if the clock did not advance).
    #[must_use]
    pub fn duration(&self) -> u64 {
        self.end_nanos.saturating_sub(self.start_nanos)
    }
}

/// Process-wide tracer sequence: namespaces each tracer's span ids so
/// the per-node buffers of one cluster never collide. Allocation order
/// is construction order, which is deterministic in simulations.
static TRACER_SEQ: AtomicU64 = AtomicU64::new(0);

/// Bits of a span id reserved for the per-tracer counter.
const LOCAL_BITS: u32 = 40;

/// A bounded buffer of completed spans plus a deterministic id
/// allocator. One per [`crate::Obs`] domain.
#[derive(Debug)]
pub struct Tracer {
    /// Namespace (tracer sequence number shifted above [`LOCAL_BITS`]).
    ns: u64,
    next: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
    capacity: usize,
    dropped: AtomicU64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::with_capacity(Tracer::DEFAULT_CAPACITY)
    }
}

impl Tracer {
    /// Default span-buffer capacity.
    pub const DEFAULT_CAPACITY: usize = 1 << 16;

    /// New tracer retaining up to `capacity` spans (min 1). Spans
    /// recorded beyond capacity are counted in [`Tracer::dropped`] and
    /// discarded — a full buffer must not distort the traced workload.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        let seq = TRACER_SEQ.fetch_add(1, Ordering::Relaxed) + 1;
        Tracer {
            ns: seq << LOCAL_BITS,
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            capacity: capacity.max(1),
            dropped: AtomicU64::new(0),
        }
    }

    fn next_id(&self) -> u64 {
        self.ns | self.next.fetch_add(1, Ordering::Relaxed)
    }

    fn push(&self, rec: SpanRecord) {
        let mut spans = self.spans.lock().expect("tracer lock");
        if spans.len() >= self.capacity {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        spans.push(rec);
    }

    /// Starts a new trace: runs `f` under a fresh root context and
    /// records the root span unconditionally. `now` is sampled once
    /// before and once after `f`.
    pub fn root<R>(
        &self,
        name: impl Into<String>,
        node: u64,
        now: impl Fn() -> u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let span_id = self.next_id();
        let ctx = SpanContext {
            trace_id: span_id,
            span_id,
        };
        let start = now();
        let out = with_context(Some(ctx), f);
        self.push(SpanRecord {
            trace_id: span_id,
            span_id,
            parent_id: 0,
            name: name.into(),
            node,
            start_nanos: start,
            end_nanos: now(),
        });
        out
    }

    /// Runs `f` in a child span of the ambient context — or plainly,
    /// with no recording and without calling `name`, when no trace is
    /// active. The lazy `name` keeps the untraced fast path free of
    /// string formatting.
    pub fn child<R>(
        &self,
        name: impl FnOnce() -> String,
        node: u64,
        now: impl Fn() -> u64,
        f: impl FnOnce() -> R,
    ) -> R {
        self.child_with(name, node, now, |_| f())
    }

    /// Like [`Tracer::child`], but hands `f` the child's own context
    /// (`None` when no trace is active) so transports can copy it into
    /// an outgoing wire header.
    pub fn child_with<R>(
        &self,
        name: impl FnOnce() -> String,
        node: u64,
        now: impl Fn() -> u64,
        f: impl FnOnce(Option<SpanContext>) -> R,
    ) -> R {
        let Some(parent) = current() else {
            return f(None);
        };
        let span_id = self.next_id();
        let ctx = SpanContext {
            trace_id: parent.trace_id,
            span_id,
        };
        let start = now();
        let out = with_context(Some(ctx), || f(Some(ctx)));
        self.push(SpanRecord {
            trace_id: parent.trace_id,
            span_id,
            parent_id: parent.span_id,
            name: name(),
            node,
            start_nanos: start,
            end_nanos: now(),
        });
        out
    }

    /// Number of buffered spans.
    #[must_use]
    pub fn len(&self) -> usize {
        self.spans.lock().expect("tracer lock").len()
    }

    /// True if no spans are buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Spans discarded because the buffer was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Drains and returns the buffered spans (collection step: the
    /// analyzer merges the drains of every node's tracer).
    #[must_use]
    pub fn take(&self) -> Vec<SpanRecord> {
        std::mem::take(&mut *self.spans.lock().expect("tracer lock"))
    }

    /// Clones the buffered spans without draining.
    #[must_use]
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        self.spans.lock().expect("tracer lock").clone()
    }
}

// ---- collection and analysis ------------------------------------------

/// One reconstructed trace: the root span and every descendant,
/// including spans whose parent never surfaced (*orphans* — e.g. the
/// parent was dropped by a full buffer), which are attached directly
/// under the root so their time is not lost.
#[derive(Debug)]
pub struct TraceTree {
    /// The trace id (== the root span's id when the root survived).
    pub trace_id: u64,
    spans: Vec<SpanRecord>,
    root: usize,
    children: HashMap<u64, Vec<usize>>,
}

/// Reconstructs trace trees from a merged pile of span records (any
/// order, any number of per-node buffers). Trees are ordered by root
/// start time (then trace id), spans within a tree by start time (then
/// span id) — deterministic given deterministic clocks and ids.
#[must_use]
pub fn build_traces(spans: Vec<SpanRecord>) -> Vec<TraceTree> {
    let mut by_trace: BTreeMap<u64, Vec<SpanRecord>> = BTreeMap::new();
    for s in spans {
        by_trace.entry(s.trace_id).or_default().push(s);
    }
    let mut trees: Vec<TraceTree> = by_trace
        .into_iter()
        .map(|(trace_id, mut spans)| {
            spans.sort_by_key(|s| (s.start_nanos, s.span_id));
            let root = spans
                .iter()
                .position(|s| s.parent_id == 0)
                .unwrap_or_default();
            let ids: HashSet<u64> = spans.iter().map(|s| s.span_id).collect();
            let root_id = spans[root].span_id;
            let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
            for (i, s) in spans.iter().enumerate() {
                if i == root {
                    continue;
                }
                // Orphans (missing or self-referential parent) hang off
                // the root so the tree stays connected.
                let parent = if ids.contains(&s.parent_id) && s.parent_id != s.span_id {
                    s.parent_id
                } else {
                    root_id
                };
                children.entry(parent).or_default().push(i);
            }
            TraceTree {
                trace_id,
                spans,
                root,
                children,
            }
        })
        .collect();
    trees.sort_by_key(|t| (t.spans[t.root].start_nanos, t.trace_id));
    trees
}

/// Coalesces sorted-by-start clipped intervals into maximal overlapping
/// groups; returns `(group_start, group_end, member_indices)`.
fn overlap_groups(kids: &[(usize, u64, u64)]) -> Vec<(u64, u64, Vec<usize>)> {
    let mut groups: Vec<(u64, u64, Vec<usize>)> = Vec::new();
    for &(idx, lo, hi) in kids {
        match groups.last_mut() {
            Some(g) if lo <= g.1 => {
                g.1 = g.1.max(hi);
                g.2.push(idx);
            }
            _ => groups.push((lo, hi, vec![idx])),
        }
    }
    groups
}

impl TraceTree {
    /// The root span.
    #[must_use]
    pub fn root_span(&self) -> &SpanRecord {
        &self.spans[self.root]
    }

    /// All spans of the trace, ordered by start time.
    #[must_use]
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// End-to-end duration: the root span's.
    #[must_use]
    pub fn total_nanos(&self) -> u64 {
        self.root_span().duration()
    }

    /// Children of span index `idx`, clipped to `[lo, hi)` and sorted by
    /// clipped start; zero-length results are dropped.
    fn clipped_children(&self, idx: usize, lo: u64, hi: u64) -> Vec<(usize, u64, u64)> {
        let mut kids: Vec<(usize, u64, u64)> = self
            .children
            .get(&self.spans[idx].span_id)
            .into_iter()
            .flatten()
            .filter_map(|&c| {
                let s = &self.spans[c];
                let clo = s.start_nanos.max(lo);
                let chi = s.end_nanos.min(hi);
                (clo < chi).then_some((c, clo, chi))
            })
            .collect();
        kids.sort_by_key(|&(c, clo, _)| (clo, self.spans[c].span_id));
        kids
    }

    /// Critical-path attribution of the root's duration, aggregated by
    /// span name and sorted by name. The entries sum exactly to
    /// [`TraceTree::total_nanos`]: each span on the path is charged its
    /// *self* time (duration not covered by children), and each group of
    /// overlapping children — parallel siblings, e.g. a replica fan-out
    /// — is charged as the chain that determined when the group ended
    /// (the `max`, not the sum).
    #[must_use]
    pub fn critical_path(&self) -> Vec<(String, u64)> {
        let mut out: BTreeMap<String, u64> = BTreeMap::new();
        let root = self.root_span();
        self.attribute(self.root, root.start_nanos, root.end_nanos, &mut out);
        out.into_iter().collect()
    }

    /// Charges `[lo, hi)` of span `idx`: self time to the span's name,
    /// each overlap group to its critical chain.
    fn attribute(&self, idx: usize, lo: u64, hi: u64, out: &mut BTreeMap<String, u64>) {
        let s = &self.spans[idx];
        let lo = lo.max(s.start_nanos);
        let hi = hi.min(s.end_nanos);
        let entry = out.entry(s.name.clone()).or_insert(0);
        if lo >= hi {
            return;
        }
        let kids = self.clipped_children(idx, lo, hi);
        let groups = overlap_groups(&kids);
        let covered: u64 = groups.iter().map(|g| g.1 - g.0).sum();
        *entry += (hi - lo) - covered;
        for (glo, ghi, members) in groups {
            self.attribute_group(&members, glo, ghi, out);
        }
    }

    /// Charges `[lo, hi)`, fully covered by `members`, to the chain that
    /// ends it: the latest-ending member owns its tail, and the interval
    /// before that member started is resolved recursively among the
    /// others.
    fn attribute_group(
        &self,
        members: &[usize],
        lo: u64,
        hi: u64,
        out: &mut BTreeMap<String, u64>,
    ) {
        let Some(&critical) = members.iter().min_by_key(|&&c| {
            let s = &self.spans[c];
            (
                std::cmp::Reverse(s.end_nanos.min(hi)),
                s.start_nanos,
                s.span_id,
            )
        }) else {
            return;
        };
        let cstart = self.spans[critical].start_nanos.max(lo);
        self.attribute(critical, cstart, hi, out);
        if cstart > lo {
            let rest: Vec<usize> = members
                .iter()
                .copied()
                .filter(|&c| c != critical && self.spans[c].start_nanos < cstart)
                .collect();
            if rest.is_empty() {
                // Defensive: a gap nothing covers is charged to the
                // critical member so totals still reconcile.
                *out.entry(self.spans[critical].name.clone()).or_insert(0) += cstart - lo;
            } else {
                self.attribute_group(&rest, lo, cstart, out);
            }
        }
    }

    /// Flamegraph self times: for every span, its duration minus the
    /// union of its children's (clipped) intervals, keyed by the
    /// `;`-joined name path from the root.
    fn fold_into(&self, out: &mut BTreeMap<String, u64>) {
        let mut stack = vec![(self.root, self.root_span().name.clone())];
        while let Some((idx, path)) = stack.pop() {
            let s = &self.spans[idx];
            let kids = self.clipped_children(idx, s.start_nanos, s.end_nanos);
            let covered: u64 = overlap_groups(&kids).iter().map(|g| g.1 - g.0).sum();
            *out.entry(path.clone()).or_insert(0) += s.duration() - covered;
            for (c, _, _) in kids {
                stack.push((c, format!("{path};{}", self.spans[c].name)));
            }
        }
    }
}

/// Renders trees in the folded-stacks format flamegraph tooling eats:
/// one `path;to;span <self_nanos>` line per distinct stack, aggregated
/// across traces and sorted by path.
#[must_use]
pub fn folded_stacks(trees: &[TraceTree]) -> String {
    let mut agg: BTreeMap<String, u64> = BTreeMap::new();
    for t in trees {
        t.fold_into(&mut agg);
    }
    let mut out = String::new();
    for (path, nanos) in agg {
        out.push_str(&path);
        out.push(' ');
        out.push_str(&nanos.to_string());
        out.push('\n');
    }
    out
}

/// Deterministic JSON report: traces grouped by root-span name, each
/// group carrying its count, summed end-to-end nanoseconds, and the
/// aggregated critical-path breakdown (share in basis points of the
/// group total, largest first; a span that kept no time on the critical
/// path has no row). No raw ids appear, so two identical runs emit
/// identical bytes even across processes.
#[must_use]
pub fn report(trees: &[TraceTree]) -> Value {
    struct Group {
        count: u64,
        total: u64,
        // lint: allow(L008) report-scoped accumulator: dropped when this function returns
        breakdown: BTreeMap<String, u64>,
    }
    let mut groups: BTreeMap<String, Group> = BTreeMap::new();
    for t in trees {
        let g = groups
            .entry(t.root_span().name.clone())
            .or_insert_with(|| Group {
                count: 0,
                total: 0,
                breakdown: BTreeMap::new(),
            });
        g.count += 1;
        g.total += t.total_nanos();
        for (name, nanos) in t.critical_path() {
            *g.breakdown.entry(name).or_insert(0) += nanos;
        }
    }
    let ops = groups.into_iter().map(|(op, g)| {
        let mut entries: Vec<(String, u64)> =
            g.breakdown.into_iter().filter(|&(_, n)| n > 0).collect();
        entries.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let critical_path = entries.into_iter().map(|(name, nanos)| {
            let bps = nanos
                .saturating_mul(10_000)
                .checked_div(g.total)
                .unwrap_or(0);
            obj! {"name": name, "nanos": nanos, "share_bps": bps}
        });
        obj! {
            "op": op,
            "traces": g.count,
            "total_nanos": g.total,
            "critical_path": Value::Array(critical_path.collect()),
        }
    });
    obj! {"ops": Value::Array(ops.collect())}
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace: u64, id: u64, parent: u64, name: &str, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            trace_id: trace,
            span_id: id,
            parent_id: parent,
            name: name.into(),
            node: 0,
            start_nanos: start,
            end_nanos: end,
        }
    }

    #[test]
    fn context_scoping_restores_previous() {
        assert_eq!(current(), None);
        let ctx = SpanContext {
            trace_id: 9,
            span_id: 9,
        };
        with_context(Some(ctx), || {
            assert_eq!(current(), Some(ctx));
            with_context(None, || assert_eq!(current(), None));
            assert_eq!(current(), Some(ctx));
        });
        assert_eq!(current(), None);
    }

    #[test]
    fn child_without_active_trace_records_nothing() {
        let t = Tracer::default();
        let ran = t.child(|| unreachable!("name must stay lazy"), 1, || 0, || true);
        assert!(ran);
        assert!(t.is_empty());
    }

    #[test]
    fn root_and_children_share_a_trace() {
        let t = Tracer::default();
        let clock = AtomicU64::new(0);
        let now = || clock.fetch_add(10, Ordering::Relaxed);
        t.root("op", 1, now, || {
            t.child(|| "inner".into(), 2, now, || {});
        });
        let spans = t.take();
        assert_eq!(spans.len(), 2);
        let root = spans.iter().find(|s| s.parent_id == 0).unwrap();
        let inner = spans.iter().find(|s| s.parent_id != 0).unwrap();
        assert_eq!(inner.trace_id, root.trace_id);
        assert_eq!(inner.parent_id, root.span_id);
        assert_eq!(current(), None);
    }

    #[test]
    fn span_ids_are_namespaced_per_tracer() {
        let a = Tracer::default();
        let b = Tracer::default();
        a.root("x", 0, || 0, || {});
        b.root("x", 0, || 0, || {});
        let ia = a.take()[0].span_id;
        let ib = b.take()[0].span_id;
        assert_ne!(ia, ib);
        assert_ne!(ia >> LOCAL_BITS, ib >> LOCAL_BITS);
    }

    #[test]
    fn full_buffer_drops_and_counts() {
        let t = Tracer::with_capacity(1);
        t.root("a", 0, || 0, || {});
        t.root("b", 0, || 0, || {});
        assert_eq!(t.len(), 1);
        assert_eq!(t.dropped(), 1);
    }

    #[test]
    fn parallel_fanout_charges_max_not_sum() {
        // root [0,100) with fan-out children [10,50) and [10,80):
        // overlapping siblings cost max (70), root keeps 30 self.
        let trees = build_traces(vec![
            span(1, 1, 0, "write", 0, 100),
            span(1, 2, 1, "rpc:replica", 10, 50),
            span(1, 3, 1, "rpc:replica", 10, 80),
        ]);
        assert_eq!(trees.len(), 1);
        let cp = trees[0].critical_path();
        assert_eq!(cp, vec![("rpc:replica".into(), 70), ("write".into(), 30)]);
        let total: u64 = cp.iter().map(|(_, n)| n).sum();
        assert_eq!(total, trees[0].total_nanos());
    }

    #[test]
    fn serial_children_sum_along_the_path() {
        let trees = build_traces(vec![
            span(1, 1, 0, "op", 0, 100),
            span(1, 2, 1, "a", 10, 30),
            span(1, 3, 1, "b", 40, 90),
        ]);
        let cp = trees[0].critical_path();
        assert_eq!(
            cp,
            vec![("a".into(), 20), ("b".into(), 50), ("op".into(), 30)]
        );
    }

    #[test]
    fn degenerate_single_child_gets_its_interval() {
        let trees = build_traces(vec![
            span(1, 1, 0, "op", 0, 50),
            span(1, 2, 1, "only", 5, 45),
        ]);
        let cp = trees[0].critical_path();
        assert_eq!(cp, vec![("only".into(), 40), ("op".into(), 10)]);
    }

    #[test]
    fn staggered_overlap_walks_the_critical_chain() {
        // a [0,10) then b [8,20): b owns [8,20), a owns [0,8).
        let trees = build_traces(vec![
            span(1, 1, 0, "op", 0, 20),
            span(1, 2, 1, "a", 0, 10),
            span(1, 3, 1, "b", 8, 20),
        ]);
        let cp = trees[0].critical_path();
        assert_eq!(
            cp,
            vec![("a".into(), 8), ("b".into(), 12), ("op".into(), 0)]
        );
    }

    #[test]
    fn orphaned_span_attaches_under_root() {
        // Parent id 99 never surfaced; the orphan still counts.
        let trees = build_traces(vec![
            span(1, 1, 0, "op", 0, 100),
            span(1, 2, 99, "lost", 20, 60),
        ]);
        let cp = trees[0].critical_path();
        assert_eq!(cp, vec![("lost".into(), 40), ("op".into(), 60)]);
        let total: u64 = cp.iter().map(|(_, n)| n).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn rootless_trace_promotes_earliest_span() {
        let trees = build_traces(vec![
            span(7, 3, 99, "late", 50, 60),
            span(7, 2, 99, "early", 10, 90),
        ]);
        assert_eq!(trees[0].root_span().name, "early");
        assert_eq!(trees[0].spans().len(), 2);
    }

    #[test]
    fn children_clip_to_parent_bounds() {
        // Child overruns the root; attribution clips so sums reconcile.
        let trees = build_traces(vec![
            span(1, 1, 0, "op", 10, 50),
            span(1, 2, 1, "runaway", 0, 80),
        ]);
        let cp = trees[0].critical_path();
        assert_eq!(cp, vec![("op".into(), 0), ("runaway".into(), 40)]);
    }

    #[test]
    fn folded_stacks_are_sorted_and_aggregated() {
        let trees = build_traces(vec![
            span(1, 1, 0, "op", 0, 100),
            span(1, 2, 1, "a", 0, 30),
            span(2, 5, 0, "op", 200, 260),
            span(2, 6, 5, "a", 200, 210),
        ]);
        let folded = folded_stacks(&trees);
        assert_eq!(folded, "op 120\nop;a 40\n");
    }

    #[test]
    fn report_json_is_deterministic_and_grouped() {
        let spans = vec![
            span(1, 1, 0, "write", 0, 100),
            span(1, 2, 1, "mirror", 10, 90),
            span(2, 5, 0, "write", 200, 280),
            span(3, 7, 0, "read", 300, 310),
        ];
        let a = report(&build_traces(spans.clone())).to_string();
        let b = report(&build_traces(spans)).to_string();
        assert_eq!(a, b);
        assert!(a.contains("\"op\": \"write\""));
        assert!(a.contains("\"traces\": 2"));
        assert!(a.contains("\"op\": \"read\""));
        // Shares are in basis points of the group total.
        assert!(a.contains("\"share_bps\""));
        // `read` is one leaf span: its whole time is its own row. A span
        // with no time of its own on the critical path has no row.
        assert!(a.contains("{\"name\": \"read\", \"nanos\": 10, \"share_bps\": 10000}\n"));
        let zero = report(&build_traces(vec![
            span(4, 1, 0, "op", 0, 50),
            span(4, 2, 1, "leaf", 0, 50),
        ]))
        .to_string();
        assert!(!zero.contains("\"name\": \"op\""), "{zero}");
        assert!(zero.contains("{\"name\": \"leaf\", \"nanos\": 50, \"share_bps\": 10000}\n"));
    }
}
