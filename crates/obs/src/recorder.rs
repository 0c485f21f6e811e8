//! Cluster flight recorder: fixed-memory metric time-series, read-heat
//! tracking, and cluster-level load analytics.
//!
//! The registry ([`crate::Registry`]) answers "what is the value now";
//! this module answers "how did it get there". Three pieces:
//!
//! * [`Series`] — a fixed-capacity ring of `(t_nanos, value)` points.
//!   When the ring is full it does not drop history: it halves its
//!   resolution by merging adjacent pairs (keeping the earlier timestamp
//!   and the `max` of the two values, which preserves peaks for gauges
//!   and is the last value for monotonic counters), so a series always
//!   spans its whole lifetime in bounded memory.
//! * [`Recorder`] — a named set of series plus their *sources*
//!   (a percentile of a live histogram). [`Recorder::sample_all`]
//!   snapshots every source at a caller-supplied timestamp; under
//!   `SimNetwork` that timestamp comes from the virtual clock, so two
//!   runs with the same seed produce byte-identical series.
//! * [`ReadHeat`] — per-object read popularity: an EWMA with half-life
//!   decay per key, capped by a space-saving sketch so the hottest N
//!   objects are tracked in O(N) memory with a bounded overestimate.
//!
//! Free functions compute cluster analytics over plain slices:
//! [`load_skew_x1000`] (max/mean and Gini across nodes) and
//! [`slo_burn_x1000`] (fraction of latency samples over an SLO).
//!
//! Like the rest of the crate there are zero dependencies and no clock:
//! time is plain `u64` nanoseconds injected by the caller, which is the
//! determinism contract (DESIGN.md §13).

use crate::fxhash::FxBuild;
use crate::histogram::Histogram;
use crate::json::Value;
use crate::obj;
use std::collections::VecDeque;
use std::hash::BuildHasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Default number of points a series holds before downsampling.
pub const DEFAULT_SERIES_CAPACITY: usize = 256;

/// Default maximum number of series one recorder will hold; beyond this
/// new series are dropped (and counted in [`Recorder::dropped`]).
pub const DEFAULT_MAX_SERIES: usize = 512;

/// One `(t_nanos, value)` point.
pub type Point = (u64, u64);

/// Fixed-capacity time-series ring with pair-merge downsampling.
#[derive(Debug)]
pub struct Series {
    points: VecDeque<Point>,
    capacity: usize,
    /// How many pair-merge passes this series has absorbed.
    downsamples: u64,
}

impl Series {
    /// New empty series holding at most `capacity` points (min 2).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Series {
            points: VecDeque::new(),
            capacity: capacity.max(2),
            downsamples: 0,
        }
    }

    /// Appends a point; merges adjacent pairs when full.
    pub fn push(&mut self, t_nanos: u64, value: u64) {
        if self.points.len() >= self.capacity {
            self.downsample();
        }
        self.points.push_back((t_nanos, value));
    }

    /// Halves resolution: adjacent pairs become one point keeping the
    /// earlier timestamp and the larger value.
    fn downsample(&mut self) {
        let mut merged = VecDeque::with_capacity(self.capacity);
        let mut it = self.points.drain(..);
        while let Some((t, v)) = it.next() {
            match it.next() {
                Some((_, v2)) => merged.push_back((t, v.max(v2))),
                None => merged.push_back((t, v)),
            }
        }
        drop(it);
        self.points = merged;
        self.downsamples += 1;
    }

    /// All points, oldest first.
    #[must_use]
    pub fn points(&self) -> Vec<Point> {
        self.points.iter().copied().collect()
    }

    /// Number of points currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no points were recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// How many pair-merge passes have happened.
    #[must_use]
    pub fn downsamples(&self) -> u64 {
        self.downsamples
    }

    /// Worst-case payload bytes for this series (capacity × point size);
    /// the memory ceiling reported by benches.
    #[must_use]
    pub fn memory_ceiling_bytes(&self) -> usize {
        self.capacity * std::mem::size_of::<Point>()
    }
}

/// One watched source and the series it feeds.
#[derive(Debug)]
struct Watched {
    name: String,
    hist: Arc<Histogram>,
    /// The percentile read on each tick, in parts per hundred (99 → p99).
    pct: u8,
    series: Series,
}

/// A series is live once a tick has given it a point.
fn is_live(w: &&Watched) -> bool {
    !w.series.is_empty()
}

/// Named time-series store plus the sources sampled into it.
///
/// All mutation goes through one `Mutex`; `sample_all` only reads
/// atomics under it, so it never blocks on I/O or RPC.
#[derive(Debug)]
pub struct Recorder {
    /// Watched sources in name order, at most `max_series` of them.
    watched: Mutex<Vec<Watched>>,
    series_capacity: usize,
    max_series: usize,
    dropped: AtomicU64,
    ticks: AtomicU64,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new(DEFAULT_SERIES_CAPACITY, DEFAULT_MAX_SERIES)
    }
}

impl Recorder {
    /// New recorder: each series holds `series_capacity` points, at most
    /// `max_series` series are kept.
    #[must_use]
    pub fn new(series_capacity: usize, max_series: usize) -> Self {
        Recorder {
            watched: Mutex::new(Vec::new()),
            series_capacity: series_capacity.max(2),
            max_series: max_series.max(1),
            dropped: AtomicU64::new(0),
            ticks: AtomicU64::new(0),
        }
    }

    /// Registers a histogram percentile (e.g. `pct = 99` for p99) to be
    /// sampled as series `name` on every tick; a name already watched
    /// keeps its points and samples the new source from then on. A new
    /// name past the series budget is refused and counted in
    /// [`Recorder::dropped`].
    pub fn watch_histogram_pct(&self, name: &str, h: &Arc<Histogram>, pct: u8) {
        let mut watched = self.lock();
        let (hist, pct) = (Arc::clone(h), pct.min(100));
        match watched.binary_search_by(|w| w.name.as_str().cmp(name)) {
            Ok(i) => (watched[i].hist, watched[i].pct) = (hist, pct),
            Err(_) if watched.len() >= self.max_series => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
            Err(i) => watched.insert(
                i,
                Watched {
                    name: name.to_string(),
                    hist,
                    pct,
                    series: Series::new(self.series_capacity),
                },
            ),
        }
    }

    /// One tick: snapshots every registered source at `t_nanos`, in
    /// sorted name order. Deterministic given deterministic sources and
    /// timestamps.
    pub fn sample_all(&self, t_nanos: u64) {
        for w in self.lock().iter_mut() {
            let v = w.hist.quantile(f64::from(w.pct) / 100.0);
            w.series.push(t_nanos, v);
        }
        self.ticks.fetch_add(1, Ordering::Relaxed);
    }

    fn lock(&self) -> MutexGuard<'_, Vec<Watched>> {
        self.watched.lock().expect("recorder lock")
    }

    /// Points of series `name`, oldest first.
    #[must_use]
    pub fn series(&self, name: &str) -> Option<Vec<Point>> {
        let watched = self.lock();
        let w = watched.iter().filter(is_live).find(|w| w.name == name)?;
        Some(w.series.points())
    }

    /// Names of all live series, sorted.
    #[must_use]
    pub fn series_names(&self) -> Vec<String> {
        let watched = self.lock();
        watched
            .iter()
            .filter(is_live)
            .map(|w| w.name.clone())
            .collect()
    }

    /// Number of live series.
    #[must_use]
    pub fn series_count(&self) -> usize {
        self.lock().iter().filter(is_live).count()
    }

    /// Worst-case payload bytes across all live series.
    #[must_use]
    pub fn memory_ceiling_bytes(&self) -> usize {
        let watched = self.lock();
        let live = watched.iter().filter(is_live);
        live.map(|w| w.series.memory_ceiling_bytes()).sum()
    }

    /// Total pair-merge passes across all series.
    #[must_use]
    pub fn downsamples(&self) -> u64 {
        self.lock().iter().map(|w| w.series.downsamples()).sum()
    }

    /// Sources refused because the series budget was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// How many [`Recorder::sample_all`] ticks have run.
    #[must_use]
    pub fn ticks(&self) -> u64 {
        self.ticks.load(Ordering::Relaxed)
    }
}

/// One entry reported by [`ReadHeat::top`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeatEntry {
    /// Object key (virtual path).
    pub key: String,
    /// Decayed heat in milli-units (1000 = one undecayed read).
    pub heat_milli: u64,
    /// Overestimate bound inherited from evicted entries, milli-units.
    pub err_milli: u64,
}

impl HeatEntry {
    /// The entry as `{"key", "heat_milli", "err_milli"}`.
    #[must_use]
    pub fn json(&self) -> Value {
        obj! {"key": self.key.as_str(), "heat_milli": self.heat_milli, "err_milli": self.err_milli}
    }
}

#[derive(Debug)]
struct HeatSlot {
    /// The key, in a buffer the slot's next occupant writes over.
    key: String,
    /// The key's hash, so that the index moves the slot without hashing
    /// the key again.
    hash: u64,
    heat: f64,
    err: f64,
    last_t: u64,
}

/// What the heat lock guards: the slots, an index of them by key, and
/// the same slots in eviction order.
#[derive(Debug, Default)]
struct Sketch {
    /// The slots, in no order; a forgotten slot's number goes to the last.
    slots: Vec<HeatSlot>,
    /// Open addressing with linear probing over the keys' hashes: per
    /// bucket, slot number + 1 (0 for an empty bucket) and the low half
    /// of the key's hash, so that a probe reads no slot but the one it
    /// finds; a power of two long, at most half full.
    index: Vec<(u32, u32)>,
    /// One entry per slot, as a binary heap whose root is the coldest
    /// slot, and among equally cold ones the greater key. What the order
    /// compares sits here, not in the slots, so that a move through the
    /// heap reads one array (and a key only when two prefixes tie).
    order: Vec<Ranked>,
    /// Each slot's place in `order`, by slot number.
    places: Vec<u32>,
    /// The latest instant any touch has shown the sketch.
    latest: u64,
    /// Telemetry, kept across [`ReadHeat::clear`]: reads observed, and
    /// newcomers that took a slot over.
    touches: u64,
    evictions: u64,
}

/// A slot's place in the eviction order.
#[derive(Debug, Clone, Copy)]
struct Ranked {
    rank: u64,
    /// [`key_prefix`] of the slot's key.
    prefix: (u64, u64),
    slot: u32,
}

/// A key's first 16 bytes, big-endian and zero-padded: two keys whose
/// prefixes differ compare as their prefixes do (a key that ends first
/// pads with zeros, below any byte the other can have there or equal to
/// it), so only equal prefixes need the keys.
fn key_prefix(key: &str) -> (u64, u64) {
    let mut b = [0u8; 16];
    let n = key.len().min(16);
    b[..n].copy_from_slice(&key.as_bytes()[..n]);
    let p = u128::from_be_bytes(b);
    ((p >> 64) as u64, p as u64)
}

/// Room a new slot's key buffer starts with, so that the keys of later
/// occupants, which write over it, seldom outgrow it.
const KEY_ROOM: usize = 64;

impl Sketch {
    fn mask(&self) -> usize {
        self.index.len() - 1
    }

    /// The slot holding `key`.
    fn find(&self, key: &str, hash: u64) -> Option<usize> {
        if self.index.is_empty() {
            return None;
        }
        let mut b = hash as usize & self.mask();
        loop {
            match self.index[b] {
                (0, _) => return None,
                (n, h) if h == hash as u32 && self.slots[n as usize - 1].key == key => {
                    return Some(n as usize - 1);
                }
                _ => b = (b + 1) & self.mask(),
            }
        }
    }

    /// The bucket that files slot number `n`, whose key hashes to `hash`.
    fn bucket_of(&self, hash: u64, n: usize) -> usize {
        let mut b = hash as usize & self.mask();
        while self.index[b].0 as usize != n + 1 {
            b = (b + 1) & self.mask();
        }
        b
    }

    /// Files slot `i` under its hash, first doubling the index if it
    /// would be more than half full.
    fn index_insert(&mut self, i: usize) {
        if 2 * self.slots.len() > self.index.len() {
            self.index = vec![(0, 0); (2 * self.index.len()).max(8)];
            for j in (0..self.slots.len()).filter(|&j| j != i) {
                self.file(j);
            }
        }
        self.file(i);
    }

    fn file(&mut self, i: usize) {
        let hash = self.slots[i].hash;
        let mut b = hash as usize & self.mask();
        while self.index[b].0 != 0 {
            b = (b + 1) & self.mask();
        }
        self.index[b] = (i as u32 + 1, hash as u32);
    }

    /// Takes slot `i` out of the index, shifting back the entries whose
    /// probe ran through its bucket.
    fn index_remove(&mut self, i: usize) {
        let mask = self.mask();
        let mut hole = self.bucket_of(self.slots[i].hash, i);
        let mut b = (hole + 1) & mask;
        while self.index[b].0 != 0 {
            let home = self.index[b].1 as usize & mask;
            if (b.wrapping_sub(home) & mask) >= (b.wrapping_sub(hole) & mask) {
                self.index[hole] = self.index[b];
                hole = b;
            }
            b = (b + 1) & mask;
        }
        self.index[hole] = (0, 0);
    }

    /// True if heap entry `a` is evicted before `b`: colder, or as cold
    /// with the greater key.
    fn colder(&self, a: Ranked, b: Ranked) -> bool {
        a.rank < b.rank
            || (a.rank == b.rank
                && (a.prefix > b.prefix
                    || (a.prefix == b.prefix
                        && self.slots[a.slot as usize].key > self.slots[b.slot as usize].key)))
    }

    fn place(&mut self, at: usize, e: Ranked) {
        self.order[at] = e;
        self.places[e.slot as usize] = at as u32;
    }

    /// Sets the rank at place `at` of the heap and restores the order
    /// around it. A rank that moves down the heap mostly moves far (a
    /// newcomer or a slot just read is usually the hottest), so the hole
    /// is first walked down to a leaf along the colder children, one
    /// comparison a level, and the entry then climbs back to its place.
    fn rerank(&mut self, at: usize, rank: u64) {
        self.order[at].rank = rank;
        let e = self.order[at];
        let mut hole = at;
        if at == 0 || !self.colder(e, self.order[(at - 1) / 2]) {
            loop {
                let mut child = 2 * hole + 1;
                if child >= self.order.len() {
                    break;
                }
                if child + 1 < self.order.len()
                    && self.colder(self.order[child + 1], self.order[child])
                {
                    child += 1;
                }
                self.place(hole, self.order[child]);
                hole = child;
            }
        }
        while hole > 0 && self.colder(e, self.order[(hole - 1) / 2]) {
            self.place(hole, self.order[(hole - 1) / 2]);
            hole = (hole - 1) / 2;
        }
        self.place(hole, e);
    }

    /// Drops slot `i`; the last slot takes its number.
    fn remove(&mut self, i: usize) {
        self.index_remove(i);
        let at = self.places[i] as usize;
        let last = self.order.pop().expect("a slot is in the order");
        if at < self.order.len() {
            self.place(at, last);
            self.rerank(at, last.rank);
        }
        self.slots.swap_remove(i);
        self.places.swap_remove(i);
        if i < self.slots.len() {
            let was = self.bucket_of(self.slots[i].hash, self.slots.len());
            self.index[was].0 = i as u32 + 1;
            self.order[self.places[i] as usize].slot = i as u32;
        }
    }
}

/// Per-object read popularity: EWMA with half-life decay per key, capped
/// by a space-saving sketch (on overflow the coldest entry is replaced
/// and its heat becomes the newcomer's overestimate bound).
///
/// A touch hashes its key once, probes an index for it and moves one
/// slot in a binary heap, whatever the capacity; nothing scans. A
/// newcomer to a full sketch takes the coldest slot over, writing its key
/// into the buffer the old key was in, so it allocates nothing unless
/// its key is longer than any that slot held. The order rests on two
/// facts. Every slot
/// decays at the one half-life, so between two slots the ratio of their
/// decayed heats is the same at every instant, and
/// `last_t / half_life + log2(heat)` (the *rank*: the slot's heat in
/// half-lives, as of time zero) orders them as their decayed heats do at
/// any instant that is not before either `last_t`. And the sketch's time
/// never runs backwards: a touch or a query at an instant earlier than
/// the latest touch seen counts as happening at that latest instant (a
/// caller's clock may be rewound, as `SimNetwork::call_many` rewinds its
/// own per entry), so no slot's `last_t` moves back, no interval is
/// decayed twice, and every comparison is made at an instant the rank is
/// good for. The rank is an `f64`, like the heats: two slots whose
/// decayed heats differ by less than the rank resolves (a part in 10^13
/// once `last_t / half_life` is in the thousands) may tie or swap where
/// comparing the decayed heats themselves would not, and the tie rule
/// then decides; in return the rank still tells slots apart after more
/// than a thousand half-lives of silence, where decayed heats all
/// underflow to zero.
#[derive(Debug)]
pub struct ReadHeat {
    half_life_nanos: u64,
    capacity: usize,
    sketch: Mutex<Sketch>,
}

/// Default heat half-life: 5 virtual seconds.
pub const DEFAULT_HEAT_HALF_LIFE_NANOS: u64 = 5_000_000_000;

/// Default number of objects tracked per node.
pub const DEFAULT_HEAT_CAPACITY: usize = 64;

impl Default for ReadHeat {
    fn default() -> Self {
        ReadHeat::new(DEFAULT_HEAT_HALF_LIFE_NANOS, DEFAULT_HEAT_CAPACITY)
    }
}

fn key_hash(key: &str) -> u64 {
    FxBuild::default().hash_one(key)
}

impl ReadHeat {
    /// New tracker: heat halves every `half_life_nanos`, at most
    /// `capacity` objects tracked.
    #[must_use]
    pub fn new(half_life_nanos: u64, capacity: usize) -> Self {
        ReadHeat {
            half_life_nanos: half_life_nanos.max(1),
            capacity: capacity.max(1),
            sketch: Mutex::new(Sketch::default()),
        }
    }

    fn decayed(&self, heat: f64, from_t: u64, to_t: u64) -> f64 {
        if to_t <= from_t {
            return heat;
        }
        let dt = (to_t - from_t) as f64 / self.half_life_nanos as f64;
        heat * (-dt).exp2()
    }

    /// The rank of a slot just touched (see the type's docs). A touch
    /// leaves `heat >= 1`, so the rank is a non-negative float and its
    /// bit pattern orders as it does.
    fn rank(&self, heat: f64, last_t: u64) -> u64 {
        let rank = last_t as f64 / self.half_life_nanos as f64 + heat.log2();
        debug_assert!(rank >= 0.0, "a touched slot holds at least one read");
        rank.to_bits()
    }

    /// Forgets every object (a restart). The touch and eviction counts
    /// are telemetry and keep counting.
    pub fn clear(&self) {
        let mut sketch = self.sketch.lock().expect("heat lock");
        *sketch = Sketch {
            touches: sketch.touches,
            evictions: sketch.evictions,
            ..Sketch::default()
        };
    }

    /// Records one read of `key` at time `t_nanos`.
    pub fn touch(&self, key: &str, t_nanos: u64) {
        let hash = key_hash(key);
        let mut guard = self.sketch.lock().expect("heat lock");
        let sketch = &mut *guard;
        sketch.touches += 1;
        let t = t_nanos.max(sketch.latest);
        sketch.latest = t;
        if let Some(i) = sketch.find(key, hash) {
            let s = &mut sketch.slots[i];
            s.heat = self.decayed(s.heat, s.last_t, t) + 1.0;
            s.err = self.decayed(s.err, s.last_t, t);
            s.last_t = t;
            let rank = self.rank(s.heat, t);
            sketch.rerank(sketch.places[i] as usize, rank);
            return;
        }
        if sketch.slots.len() >= self.capacity {
            // Space-saving: a newcomer to a full sketch takes over the
            // coldest slot, whose decayed heat becomes its overestimate
            // bound.
            sketch.evictions += 1;
            let victim = sketch.order[0].slot as usize;
            sketch.index_remove(victim);
            let s = &mut sketch.slots[victim];
            let err = self.decayed(s.heat, s.last_t, t);
            s.key.clear();
            s.key.push_str(key);
            s.hash = hash;
            s.heat = err + 1.0;
            s.err = err;
            s.last_t = t;
            let rank = self.rank(s.heat, t);
            sketch.index_insert(victim);
            sketch.order[0].prefix = key_prefix(key);
            sketch.rerank(0, rank);
            return;
        }
        let mut owned = String::with_capacity(key.len().max(KEY_ROOM));
        owned.push_str(key);
        let i = sketch.slots.len();
        sketch.slots.push(HeatSlot {
            key: owned,
            hash,
            heat: 1.0,
            err: 0.0,
            last_t: t,
        });
        sketch.index_insert(i);
        sketch.places.push(i as u32);
        sketch.order.push(Ranked {
            rank: 0,
            prefix: key_prefix(key),
            slot: i as u32,
        });
        sketch.rerank(i, self.rank(1.0, t));
    }

    /// The `n` hottest objects as of `now_nanos`, hottest first, ties
    /// broken by key. Heat is reported in milli-units.
    #[must_use]
    pub fn top(&self, n: usize, now_nanos: u64) -> Vec<HeatEntry> {
        let sketch = self.sketch.lock().expect("heat lock");
        let now = now_nanos.max(sketch.latest);
        let mut all: Vec<HeatEntry> = sketch
            .slots
            .iter()
            .map(|s| HeatEntry {
                key: s.key.clone(),
                heat_milli: (self.decayed(s.heat, s.last_t, now) * 1000.0).round() as u64,
                err_milli: (self.decayed(s.err, s.last_t, now) * 1000.0).round() as u64,
            })
            .collect();
        drop(sketch);
        all.sort_by(|a, b| {
            b.heat_milli
                .cmp(&a.heat_milli)
                .then_with(|| a.key.cmp(&b.key))
        });
        all.truncate(n);
        all
    }

    /// Decayed heat of one key in milli-units as of `now_nanos`, or
    /// `None` if the sketch does not track it. Threshold checks (did
    /// this object cross the hot-spawn line? has it cooled past the shed
    /// line?) want a point query, not a full sorted `top`.
    #[must_use]
    pub fn heat_milli_of(&self, key: &str, now_nanos: u64) -> Option<u64> {
        let hash = key_hash(key);
        let sketch = self.sketch.lock().expect("heat lock");
        let now = now_nanos.max(sketch.latest);
        let s = &sketch.slots[sketch.find(key, hash)?];
        Some((self.decayed(s.heat, s.last_t, now) * 1000.0).round() as u64)
    }

    /// Drops `key`'s slot, if tracked. Removal of the underlying object
    /// must not pin a space-saving slot (a deleted file would otherwise
    /// squat in the sketch until enough fresh heat evicts it), so
    /// unlink/rmdir paths call this alongside their cache invalidation.
    pub fn forget(&self, key: &str) {
        let hash = key_hash(key);
        let mut sketch = self.sketch.lock().expect("heat lock");
        if let Some(i) = sketch.find(key, hash) {
            sketch.remove(i);
        }
    }

    /// Total reads observed.
    #[must_use]
    pub fn touches(&self) -> u64 {
        self.sketch.lock().expect("heat lock").touches
    }

    /// Sketch evictions (non-zero means tail keys carry overestimates).
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.sketch.lock().expect("heat lock").evictions
    }
}

/// Load skew across nodes: `(max/mean × 1000, Gini × 1000)`.
///
/// A perfectly balanced cluster reports `(1000, 0)`; one node taking all
/// load in an `n`-node cluster reports `(n × 1000, (n-1)/n × 1000)`.
/// Pure integer math (`u128` intermediates), so deterministic.
#[must_use]
pub fn load_skew_x1000(loads: &[u64]) -> (u64, u64) {
    let n = loads.len() as u128;
    if n == 0 {
        return (1000, 0);
    }
    let sum: u128 = loads.iter().map(|&v| u128::from(v)).sum();
    if sum == 0 {
        return (1000, 0);
    }
    let max = u128::from(*loads.iter().max().expect("non-empty"));
    // max/mean = max * n / sum.
    let max_over_mean = (max * n * 1000 / sum) as u64;
    let mut diff: u128 = 0;
    for (i, &a) in loads.iter().enumerate() {
        for &b in &loads[i + 1..] {
            diff += u128::from(a.abs_diff(b));
        }
    }
    // Gini = Σij |xi−xj| / (2 n² mean) = 2·Σi<j |xi−xj| / (2 n sum).
    let gini = (diff * 1000 / (n * sum)) as u64;
    (max_over_mean, gini)
}

/// SLO burn over a latency series: the fraction (×1000) of points whose
/// value exceeds `slo_nanos`, plus the raw counts as `(burn_x1000,
/// over, total)`.
#[must_use]
pub fn slo_burn_x1000(points: &[Point], slo_nanos: u64) -> (u64, u64, u64) {
    let total = points.len() as u64;
    if total == 0 {
        return (0, 0, 0);
    }
    let over = points.iter().filter(|&&(_, v)| v > slo_nanos).count() as u64;
    (over * 1000 / total, over, total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_downsamples_instead_of_dropping() {
        let mut s = Series::new(8);
        for i in 0..8u64 {
            s.push(i * 10, i);
        }
        assert_eq!(s.len(), 8);
        assert_eq!(s.downsamples(), 0);
        s.push(80, 100);
        // 8 points merged to 4, then the new one appended.
        assert_eq!(s.len(), 5);
        assert_eq!(s.downsamples(), 1);
        let pts = s.points();
        // First merged pair keeps t=0 and max(0,1)=1.
        assert_eq!(pts[0], (0, 1));
        assert_eq!(pts[1], (20, 3));
        assert_eq!(*pts.last().unwrap(), (80, 100));
        // History still spans from the very first timestamp.
        assert_eq!(pts[0].0, 0);
    }

    #[test]
    fn series_memory_is_bounded_forever() {
        let mut s = Series::new(16);
        for i in 0..10_000u64 {
            s.push(i, i);
        }
        assert!(s.len() <= 16);
        assert!(s.downsamples() > 0);
        assert_eq!(s.memory_ceiling_bytes(), 16 * 16);
        // Oldest point survives all merges.
        assert_eq!(s.points()[0].0, 0);
    }

    /// A histogram holding one sample of `v`.
    fn one_sample(v: u64) -> Arc<Histogram> {
        let h = Arc::new(Histogram::new());
        h.record(v);
        h
    }

    #[test]
    fn recorder_samples_sources_deterministically() {
        let rec = Recorder::default();
        let h = Arc::new(Histogram::new());
        rec.watch_histogram_pct("lat:p99", &h, 99);
        rec.watch_histogram_pct("lat:p50", &h, 50);
        h.record(1000);
        rec.sample_all(100);
        for _ in 0..99 {
            h.record(10);
        }
        rec.sample_all(200);
        let p99 = rec.series("lat:p99").unwrap();
        assert_eq!(p99.iter().map(|p| p.0).collect::<Vec<_>>(), [100, 200]);
        assert!(p99[0].1 >= 1000 && p99[1].1 < 1000, "{p99:?}");
        assert!(rec.series("lat:p50").unwrap()[1].1 < 1000);
        assert_eq!(rec.ticks(), 2);
        assert_eq!(rec.series_names(), vec!["lat:p50", "lat:p99"]);
    }

    #[test]
    fn recorder_enforces_series_budget() {
        let rec = Recorder::new(4, 2);
        let h = one_sample(1);
        rec.watch_histogram_pct("a", &h, 99);
        rec.watch_histogram_pct("b", &h, 99);
        rec.watch_histogram_pct("c", &h, 99); // over budget → dropped
        rec.watch_histogram_pct("a", &h, 50); // a watched name re-registers
        rec.sample_all(1);
        assert_eq!(rec.series_count(), 2);
        assert_eq!(rec.dropped(), 1);
        assert!(rec.series("c").is_none());
        assert!(rec.memory_ceiling_bytes() <= 2 * 4 * 16);
    }

    #[test]
    fn recorder_at_default_ceiling_drops_new_series_loudly() {
        // 512 series exist, then new sources keep arriving. Every new
        // one past the ceiling must be refused with a `dropped`
        // increment — never a panic, never a silent eviction of an
        // existing series.
        let rec = Recorder::default();
        let h = one_sample(7);
        for i in 0..DEFAULT_MAX_SERIES {
            rec.watch_histogram_pct(&format!("s{i:04}"), &h, 99);
        }
        rec.sample_all(1);
        assert_eq!(rec.series_count(), DEFAULT_MAX_SERIES);
        assert_eq!(rec.dropped(), 0);
        for i in 0..32 {
            rec.watch_histogram_pct(&format!("late{i:04}"), &h, 99);
        }
        rec.sample_all(2);
        assert_eq!(rec.series_count(), DEFAULT_MAX_SERIES, "no eviction");
        assert_eq!(rec.dropped(), 32, "each refusal counted");
        assert!(rec.series("late0000").is_none());
        // Every pre-ceiling series survived and kept sampling.
        for name in [
            "s0000".to_string(),
            format!("s{:04}", DEFAULT_MAX_SERIES - 1),
        ] {
            assert_eq!(rec.series(&name).unwrap(), vec![(1, 7), (2, 7)]);
        }
    }

    #[test]
    fn recorder_at_ceiling_refuses_new_sources_on_watch_and_tick() {
        let rec = Recorder::new(4, DEFAULT_MAX_SERIES);
        rec.watch_histogram_pct("keeper", &one_sample(5), 99);
        for i in 1..DEFAULT_MAX_SERIES {
            rec.watch_histogram_pct(&format!("h{i:04}"), &Arc::new(Histogram::new()), 99);
        }
        assert_eq!(rec.dropped(), 0);
        // The 513th watch is refused and counted; ticking afterwards
        // must not panic and must still sample every accepted source.
        rec.watch_histogram_pct("overflow", &Arc::new(Histogram::new()), 99);
        assert_eq!(rec.dropped(), 1);
        rec.sample_all(10);
        assert_eq!(rec.series_count(), DEFAULT_MAX_SERIES);
        assert!(rec.series("overflow").is_none());
        assert_eq!(rec.series("keeper"), Some(vec![(10, 5)]));
    }

    #[test]
    fn heat_decays_with_half_life() {
        let hl = 1_000;
        let heat = ReadHeat::new(hl, 8);
        heat.touch("/a", 0);
        heat.touch("/a", 0);
        let top = heat.top(1, 0);
        assert_eq!(top[0].heat_milli, 2000);
        // One half-life later the heat halved.
        let top = heat.top(1, hl);
        assert_eq!(top[0].heat_milli, 1000);
        assert_eq!(heat.touches(), 2);
    }

    #[test]
    fn heat_space_saving_evicts_coldest() {
        let heat = ReadHeat::new(u64::MAX / 4, 2);
        heat.touch("/hot", 0);
        heat.touch("/hot", 1);
        heat.touch("/cold", 2);
        heat.touch("/new", 3); // evicts /cold (heat 1), inherits err
        assert_eq!(heat.evictions(), 1);
        let top = heat.top(2, 3);
        assert_eq!(top[0].key, "/hot");
        assert_eq!(top[1].key, "/new");
        // Newcomer carries the evicted heat as overestimate bound.
        assert!(top[1].err_milli >= 999);
        assert!(top[1].heat_milli >= top[1].err_milli + 999);
    }

    #[test]
    fn heat_top_order_is_deterministic_on_ties() {
        let heat = ReadHeat::new(u64::MAX / 4, 8);
        heat.touch("/b", 0);
        heat.touch("/a", 0);
        let top = heat.top(2, 0);
        assert_eq!(top[0].key, "/a");
        assert_eq!(top[1].key, "/b");
    }

    #[test]
    fn heat_top_ties_stable_across_insertion_orders() {
        // Any insertion order of equally-hot keys yields the same top-k:
        // the heat_milli tie breaks on the key, never on slot position.
        let keys = ["/m", "/z", "/a", "/q", "/c"];
        let mut orders: Vec<Vec<&str>> = vec![keys.to_vec()];
        orders.push(keys.iter().rev().copied().collect());
        orders.push(vec!["/q", "/a", "/z", "/c", "/m"]);
        let mut outputs = Vec::new();
        for order in orders {
            let heat = ReadHeat::new(u64::MAX / 4, 8);
            for k in order {
                heat.touch(k, 0);
            }
            outputs.push(heat.top(5, 0));
        }
        let mut sorted = keys.to_vec();
        sorted.sort_unstable();
        for out in &outputs {
            let got: Vec<&str> = out.iter().map(|e| e.key.as_str()).collect();
            assert_eq!(got, sorted, "tie order must be key order");
            assert_eq!(out, &outputs[0], "insertion order leaked into top-k");
        }
    }

    #[test]
    fn heat_top_ties_after_rounding_break_by_key() {
        // Distinct raw heats that round to the same milli value still
        // order by key: the comparison runs on the reported integers.
        let hl = 1_000_000;
        let heat = ReadHeat::new(hl, 8);
        heat.touch("/y", 0);
        heat.touch("/x", 0);
        // Tiny time skew: decayed heats differ in f64 but both round to
        // the same heat_milli at the query instant.
        let top = heat.top(2, 1);
        assert_eq!(top[0].heat_milli, top[1].heat_milli);
        assert_eq!(top[0].key, "/x");
        assert_eq!(top[1].key, "/y");
    }

    #[test]
    fn heat_forget_drops_slot_and_frees_capacity() {
        let heat = ReadHeat::new(u64::MAX / 4, 2);
        heat.touch("/dead", 0);
        heat.touch("/dead", 1);
        heat.touch("/live", 2);
        heat.forget("/dead");
        let top = heat.top(2, 2);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].key, "/live");
        // The freed slot is reusable without an eviction: a newcomer
        // enters cleanly (err = 0) instead of inheriting stale heat.
        heat.touch("/next", 3);
        assert_eq!(heat.evictions(), 0);
        let top = heat.top(2, 3);
        assert!(top.iter().any(|e| e.key == "/next" && e.err_milli == 0));
        // Forgetting an untracked key is a no-op.
        heat.forget("/ghost");
        assert_eq!(heat.top(8, 3).len(), 2);
    }

    #[test]
    fn heat_time_never_runs_backwards() {
        let hl = 1_000;
        let heat = ReadHeat::new(hl, 8);
        heat.touch("/a", 10 * hl);
        // A touch from a rewound clock counts at the latest instant seen:
        // `last_t` stays put, so the third touch decays nothing twice.
        heat.touch("/a", 0);
        heat.touch("/a", 10 * hl);
        assert_eq!(heat.heat_milli_of("/a", 10 * hl), Some(3000));
        // A newcomer from the rewound clock is as fresh as the latest
        // touch, and queries are held to the same clock.
        heat.touch("/b", 3 * hl);
        assert_eq!(heat.heat_milli_of("/b", 11 * hl), Some(500));
        assert_eq!(heat.heat_milli_of("/b", 0), Some(1000));
        assert_eq!(heat.top(1, 0)[0].heat_milli, 3000);
    }

    /// The sketch as it was before it kept an order: slots in a `Vec`,
    /// found by scanning for the key, the victim found by decaying every
    /// slot to the instant of the eviction and taking the least (on a
    /// tie the greater key). With the rule that its time never runs
    /// backwards, this is the definition [`ReadHeat`] is held to.
    struct ScanHeat {
        half_life_nanos: u64,
        capacity: usize,
        slots: Vec<ScanSlot>,
        latest: u64,
        evictions: u64,
    }

    struct ScanSlot {
        key: String,
        heat: f64,
        err: f64,
        last_t: u64,
    }

    impl ScanHeat {
        fn decayed(&self, heat: f64, from_t: u64, to_t: u64) -> f64 {
            if to_t <= from_t {
                return heat;
            }
            let dt = (to_t - from_t) as f64 / self.half_life_nanos as f64;
            heat * (-dt).exp2()
        }

        fn touch(&mut self, key: &str, t_nanos: u64) {
            let t = t_nanos.max(self.latest);
            self.latest = t;
            if let Some(i) = self.slots.iter().position(|s| s.key == key) {
                let (heat, err, last_t) = {
                    let s = &self.slots[i];
                    (s.heat, s.err, s.last_t)
                };
                self.slots[i].heat = self.decayed(heat, last_t, t) + 1.0;
                self.slots[i].err = self.decayed(err, last_t, t);
                self.slots[i].last_t = t;
                return;
            }
            let mut slot = ScanSlot {
                key: key.to_string(),
                heat: 1.0,
                err: 0.0,
                last_t: t,
            };
            if self.slots.len() < self.capacity {
                self.slots.push(slot);
                return;
            }
            self.evictions += 1;
            let (idx, min_heat) = self
                .slots
                .iter()
                .enumerate()
                .map(|(i, s)| (i, self.decayed(s.heat, s.last_t, t)))
                .min_by(|a, b| {
                    a.1.partial_cmp(&b.1)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then_with(|| self.slots[b.0].key.cmp(&self.slots[a.0].key))
                })
                .expect("capacity >= 1");
            slot.err = min_heat;
            slot.heat = min_heat + 1.0;
            self.slots[idx] = slot;
        }

        fn top(&self, n: usize, now_nanos: u64) -> Vec<HeatEntry> {
            let now = now_nanos.max(self.latest);
            let mut all: Vec<HeatEntry> = self
                .slots
                .iter()
                .map(|s| HeatEntry {
                    key: s.key.clone(),
                    heat_milli: (self.decayed(s.heat, s.last_t, now) * 1000.0).round() as u64,
                    err_milli: (self.decayed(s.err, s.last_t, now) * 1000.0).round() as u64,
                })
                .collect();
            all.sort_by(|a, b| {
                b.heat_milli
                    .cmp(&a.heat_milli)
                    .then_with(|| a.key.cmp(&b.key))
            });
            all.truncate(n);
            all
        }

        fn forget(&mut self, key: &str) {
            self.slots.retain(|s| s.key != key);
        }
    }

    /// Replays `ops` (`(kind, key, time step)`) on the sketch and on the
    /// scan and holds them to each other after every one. `step_scale`
    /// is 0 for a frozen clock. A step now and then goes backwards.
    fn replay_against_scan(capacity: usize, step_scale: u64, ops: &[(u8, u8, u32)]) {
        // Half-life and steps keep a whole replay within some twenty
        // half-lives, where `f64` tells any two histories apart both as
        // decayed heats and as ranks.
        let hl = 1_000_000_000;
        let heat = ReadHeat::new(hl, capacity);
        let mut scan = ScanHeat {
            half_life_nanos: hl,
            capacity,
            slots: Vec::new(),
            latest: 0,
            evictions: 0,
        };
        // Half the keys share their first 16 bytes, so that ties in rank
        // between them are broken by the keys, not by their prefixes.
        let keys: Vec<String> = (0..=capacity * 3)
            .map(|i| match i % 2 {
                0 => format!("/f{i}"),
                _ => format!("/sixteen/bytes/+/f{i}"),
            })
            .collect();
        let mut now = 5 * hl;
        for &(kind, key, step) in ops {
            let key = &keys[key as usize % keys.len()];
            let step = u64::from(step) * step_scale;
            let t = if kind % 16 == 15 {
                now.saturating_sub(step)
            } else {
                now += step;
                now
            };
            match kind % 8 {
                0 => {
                    heat.forget(key);
                    scan.forget(key);
                }
                1 => assert_eq!(heat.top(3, t), scan.top(3, t)),
                _ => {
                    heat.touch(key, t);
                    scan.touch(key, t);
                }
            }
            // Every slot's key, heat and bound after every op: the same
            // keys before a touch and after it is the same victim.
            let all = scan.top(usize::MAX, t);
            assert_eq!(heat.top(usize::MAX, t), all);
            assert_eq!(heat.evictions(), scan.evictions);
            assert_eq!(
                heat.heat_milli_of(key, t),
                all.iter().find(|e| &e.key == key).map(|e| e.heat_milli)
            );
        }
    }

    #[test]
    fn key_prefixes_order_as_their_keys_or_tie() {
        let keys = [
            "",
            "/",
            "/a",
            "/a/b",
            "/a\0",
            "/a\0\0",
            "/ab",
            "/b",
            "/sixteen/bytes/+",
            "/sixteen/bytes/+/f1",
            "/sixteen/bytes/+/f2",
            "/sixteen/bytes/-",
            "\u{ff}",
        ];
        for a in keys {
            for b in keys {
                let (pa, pb) = (key_prefix(a), key_prefix(b));
                if pa != pb {
                    assert_eq!(pa.cmp(&pb), a.cmp(b), "{a:?} against {b:?}");
                }
            }
        }
    }

    fn arb_heat_ops() -> impl proptest::strategy::Strategy<Value = Vec<(u8, u8, u32)>> {
        use proptest::prelude::*;
        proptest::collection::vec((any::<u8>(), any::<u8>(), 0u32..50_000), 0..400)
    }

    proptest::proptest! {
        #[test]
        fn sketch_agrees_with_the_scan_on_a_frozen_clock(ops in arb_heat_ops()) {
            for capacity in [1, 2, 64] {
                replay_against_scan(capacity, 0, &ops);
            }
        }

        #[test]
        fn sketch_agrees_with_the_scan_on_a_moving_clock(ops in arb_heat_ops()) {
            for capacity in [1, 2, 64] {
                // Steps of up to 50 µs (many near-ties in time) and of up
                // to 50 ms (a replay spans twenty half-lives).
                replay_against_scan(capacity, 1, &ops);
                replay_against_scan(capacity, 1_000, &ops);
            }
        }
    }

    fn time_missing_touches(capacity: usize) -> std::time::Duration {
        let heat = ReadHeat::new(DEFAULT_HEAT_HALF_LIFE_NANOS, capacity);
        let keys: Vec<String> = (0..capacity * 4).map(|i| format!("/bulk/f{i}")).collect();
        // Fill the sketch, then time touches that all miss and evict: a
        // key comes round again long after the sketch has let it go.
        for (t, key) in keys.iter().enumerate() {
            heat.touch(key, t as u64);
        }
        let start = std::time::Instant::now();
        for t in 0..100_000usize {
            heat.touch(&keys[t % keys.len()], (keys.len() + t) as u64 * 1_000);
        }
        let took = start.elapsed();
        assert!(heat.evictions() > 100_000);
        took
    }

    /// A touch finds its key by hash and its victim at the front of an
    /// order: its cost does not follow the number of slots. When it
    /// scanned them the ratio below was ≈ 60; 3 leaves room for the
    /// deeper tree and the colder cache. Each side is its fastest of five
    /// rounds, the two sizes timed in alternation, so that a load that
    /// comes and goes on the machine cannot fail it.
    #[test]
    fn touch_cost_does_not_grow_with_capacity() {
        let (small, large) = (0..5).fold(
            (std::time::Duration::MAX, std::time::Duration::MAX),
            |(small, large), _| {
                (
                    small.min(time_missing_touches(64)),
                    large.min(time_missing_touches(4_096)),
                )
            },
        );
        assert!(
            large < small * 3,
            "100 000 missing touches took {small:?} at capacity 64 and {large:?} at 4 096"
        );
    }

    #[test]
    fn load_skew_balanced_and_skewed() {
        assert_eq!(load_skew_x1000(&[]), (1000, 0));
        assert_eq!(load_skew_x1000(&[0, 0]), (1000, 0));
        assert_eq!(load_skew_x1000(&[5, 5, 5, 5]), (1000, 0));
        let (mom, gini) = load_skew_x1000(&[100, 0, 0, 0]);
        assert_eq!(mom, 4000);
        assert_eq!(gini, 750); // (n-1)/n = 3/4
        let (mom, gini) = load_skew_x1000(&[3, 1]);
        assert_eq!(mom, 1500);
        assert_eq!(gini, 250);
    }

    #[test]
    fn slo_burn_counts_violations() {
        assert_eq!(slo_burn_x1000(&[], 10), (0, 0, 0));
        let pts = vec![(0, 5), (1, 15), (2, 25), (3, 10)];
        let (burn, over, total) = slo_burn_x1000(&pts, 10);
        assert_eq!((over, total), (2, 4));
        assert_eq!(burn, 500);
    }
}
