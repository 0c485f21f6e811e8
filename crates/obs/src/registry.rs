//! Named-metric registry with Prometheus-style text exposition.
//!
//! Metric names follow Prometheus conventions: `snake_case` with a unit
//! suffix (`_total`, `_nanos`, `_bytes`), optionally followed by a
//! `{label="value",...}` set baked into the name (the registry treats the
//! full string as the key; [`Registry::render`] splits base name and
//! labels when emitting `# TYPE` headers). Handles returned by
//! [`Registry::counter`] / [`gauge`](Registry::gauge) /
//! [`histogram`](Registry::histogram) are cheap `Arc`s — fetch once, bump
//! forever, no lock on the hot path.

use crate::histogram::Histogram;
use crate::json::Value;
use crate::obj;
use crate::stripe::{Padded, Striped};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Monotonically increasing counter: one word, or with
/// [`Counter::striped`] one word per thread stripe ([`crate::stripe`]).
pub struct Counter(Words);

enum Words {
    One(AtomicU64),
    Striped(Box<Striped<Padded<AtomicU64>>>),
}

impl Default for Counter {
    fn default() -> Self {
        Counter(Words::One(AtomicU64::new(0)))
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Counter").field(&self.get()).finish()
    }
}

impl Counter {
    /// A counter that each thread adds to on lines of its own, for one
    /// that threads bump concurrently on every call. Reading sums the
    /// stripes.
    #[must_use]
    pub fn striped() -> Self {
        Counter(Words::Striped(Box::new(Striped::new())))
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        let word = match &self.0 {
            Words::One(word) => word,
            Words::Striped(lines) => &lines.local().0,
        };
        word.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        match &self.0 {
            Words::One(word) => word.load(Ordering::Relaxed),
            Words::Striped(lines) => lines.each().map(|l| l.0.load(Ordering::Relaxed)).sum(),
        }
    }
}

/// Instantaneous signed value.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `d` (may be negative).
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// Named counters, gauges, and histograms. Lookup/creation takes a lock;
/// returned handles do not.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// New empty registry.
    #[must_use]
    pub fn new() -> Self {
        Registry::default()
    }

    /// Gets or creates the counter named `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.counter_or(name, Counter::default)
    }

    /// Gets or creates the counter named `name`, striped per thread
    /// ([`Counter::striped`]) if this call creates it. Whoever registers
    /// a name first decides; [`Registry::counter`] finds either kind.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn striped_counter(&self, name: &str) -> Arc<Counter> {
        self.counter_or(name, Counter::striped)
    }

    fn counter_or(&self, name: &str, make: fn() -> Counter) -> Arc<Counter> {
        let mut m = self.metrics.lock().expect("registry lock");
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(make())))
        {
            Metric::Counter(c) => Arc::clone(c),
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// Gets or creates the gauge named `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut m = self.metrics.lock().expect("registry lock");
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::default())))
        {
            Metric::Gauge(g) => Arc::clone(g),
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// Gets or creates the histogram named `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut m = self.metrics.lock().expect("registry lock");
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new())))
        {
            Metric::Histogram(h) => Arc::clone(h),
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// Names of all registered metrics, sorted.
    #[must_use]
    pub fn names(&self) -> Vec<String> {
        self.metrics
            .lock()
            .expect("registry lock")
            .keys()
            .cloned()
            .collect()
    }

    /// Every metric by name, taken under the lock once.
    fn snapshot(&self) -> Vec<(String, Metric)> {
        let m = self.metrics.lock().expect("registry lock");
        m.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
    }

    /// Prometheus-style text exposition. Deterministic: metrics are
    /// emitted in sorted name order; histograms render as summaries
    /// (`{quantile="..."}` samples plus `_sum`/`_count`/`_max`).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut last_base = String::new();
        for (name, metric) in self.snapshot() {
            let (base, labels) = split_labels(&name);
            let kind = match metric {
                Metric::Counter(_) => "counter",
                Metric::Gauge(_) => "gauge",
                Metric::Histogram(_) => "summary",
            };
            if base != last_base {
                out.push_str(&format!("# TYPE {base} {kind}\n"));
                last_base = base.to_string();
            }
            match metric {
                Metric::Counter(c) => out.push_str(&format!("{name} {}\n", c.get())),
                Metric::Gauge(g) => out.push_str(&format!("{name} {}\n", g.get())),
                Metric::Histogram(h) => {
                    let (p50, p95, p99, max) = h.summary();
                    for (q, v) in [("0.5", p50), ("0.95", p95), ("0.99", p99)] {
                        out.push_str(&format!(
                            "{base}{} {v}\n",
                            with_label(labels, "quantile", q)
                        ));
                    }
                    out.push_str(&format!("{base}_sum{labels} {}\n", h.sum()));
                    out.push_str(&format!("{base}_count{labels} {}\n", h.count()));
                    out.push_str(&format!("{base}_max{labels} {max}\n"));
                }
            }
        }
        out
    }

    /// The registry as one JSON object, keys in sorted name order.
    /// Histograms are `{count, sum, max, p50, p95, p99}`.
    #[must_use]
    pub fn json(&self) -> Value {
        let members = self.snapshot().into_iter().map(|(name, metric)| {
            let value = match metric {
                Metric::Counter(c) => c.get().into(),
                Metric::Gauge(g) => g.get().into(),
                Metric::Histogram(h) => {
                    let (p50, p95, p99, max) = h.summary();
                    obj! {"count": h.count(), "sum": h.sum(), "max": max,
                    "p50": p50, "p95": p95, "p99": p99}
                }
            };
            (name, value)
        });
        Value::Object(members.collect())
    }
}

/// Splits `name{l="v"}` into (`name`, `{l="v"}`); no labels → empty set.
fn split_labels(name: &str) -> (&str, &str) {
    match name.find('{') {
        Some(i) => (&name[..i], &name[i..]),
        None => (name, ""),
    }
}

/// Inserts `key="value"` into an existing (possibly empty) label set.
fn with_label(labels: &str, key: &str, value: &str) -> String {
    if labels.is_empty() {
        format!("{{{key}=\"{value}\"}}")
    } else {
        format!("{{{},{key}=\"{value}\"}}", &labels[1..labels.len() - 1])
    }
}

/// Escapes a label value per the Prometheus text exposition format:
/// backslash, double-quote, and line-feed become `\\`, `\"`, `\n`.
#[must_use]
pub fn escape_label_value(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Builds a full metric key `base{k="v",...}` with label values escaped
/// per the exposition format. Callers with untrusted label values (file
/// paths, peer names) must use this instead of hand-formatting.
#[must_use]
pub fn labeled(base: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return base.to_string();
    }
    let mut out = String::from(base);
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(&escape_label_value(v));
        out.push('"');
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_shared() {
        let r = Registry::new();
        let a = r.counter("ops_total");
        let b = r.counter("ops_total");
        a.inc();
        b.add(2);
        assert_eq!(r.counter("ops_total").get(), 3);
    }

    #[test]
    fn a_striped_counter_sums_what_every_thread_added() {
        let r = Registry::new();
        let c = r.striped_counter("calls_total");
        std::thread::scope(|s| {
            for _ in 0..12 {
                s.spawn(|| (0..1000).for_each(|_| c.inc()));
            }
        });
        c.add(5);
        assert_eq!(r.counter("calls_total").get(), 12_005);
        assert!(r.render().contains("calls_total 12005"));
        // The first registration decides the kind: a plain counter stays
        // plain when asked for striped, and both handles are one counter.
        r.counter("plain_total").inc();
        r.striped_counter("plain_total").inc();
        assert_eq!(r.counter("plain_total").get(), 2);
    }

    #[test]
    fn render_is_sorted_and_typed() {
        let r = Registry::new();
        r.counter("b_total").add(2);
        r.gauge("a_now").set(-5);
        r.histogram("lat_nanos").record(100);
        let text = r.render();
        let a = text.find("a_now").unwrap();
        let b = text.find("b_total").unwrap();
        let l = text.find("lat_nanos").unwrap();
        assert!(a < b && b < l, "{text}");
        assert!(text.contains("# TYPE a_now gauge"));
        assert!(text.contains("# TYPE b_total counter"));
        assert!(text.contains("# TYPE lat_nanos summary"));
        assert!(text.contains("lat_nanos{quantile=\"0.5\"}"));
        assert!(text.contains("lat_nanos_count 1"));
    }

    #[test]
    fn labeled_histograms_merge_label_sets() {
        let r = Registry::new();
        r.histogram("rpc_nanos{service=\"nfs\"}").record(7);
        let text = r.render();
        assert!(
            text.contains("rpc_nanos{service=\"nfs\",quantile=\"0.5\"}"),
            "{text}"
        );
        assert!(text.contains("rpc_nanos_count{service=\"nfs\"} 1"));
    }

    #[test]
    fn hostile_label_values_round_trip_through_exposition() {
        let hostile = "pa\\th\"with\nnewline";
        let name = labeled("kosha_heat", &[("path", hostile)]);
        let r = Registry::new();
        r.counter(&name).add(7);
        let text = r.render();
        // The rendered sample line carries the escaped value and stays on
        // one physical line (no raw newline leaks into the exposition).
        let sample = text
            .lines()
            .find(|l| l.starts_with("kosha_heat{"))
            .expect("sample line");
        assert!(sample.contains("pa\\\\th\\\"with\\nnewline"), "{sample}");
        assert_eq!(sample.matches('\n').count(), 0);
        assert_eq!(sample, "kosha_heat{path=\"pa\\\\th\\\"with\\nnewline\"} 7");
        // JSON stays parseable too: the key re-escapes onto one line.
        let json = r.json().to_string();
        let key_line = json
            .lines()
            .find(|l| l.contains("kosha_heat"))
            .expect("json key");
        assert!(key_line.trim_end().ends_with(": 7}"), "{json}");
    }

    #[test]
    fn labeled_builds_plain_and_multi_label_names() {
        assert_eq!(labeled("m", &[]), "m");
        assert_eq!(
            labeled("m", &[("a", "1"), ("b", "x\"y")]),
            "m{a=\"1\",b=\"x\\\"y\"}"
        );
    }

    #[test]
    fn json_dump_is_stable() {
        let r = Registry::new();
        r.counter("z_total").inc();
        r.gauge("m_now").set(4);
        let j1 = r.json().to_string();
        let j2 = r.json().to_string();
        assert_eq!(j1, j2);
        assert!(j1.contains("\"m_now\": 4"));
        assert!(j1.contains("\"z_total\": 1"));
        assert!(j1.find("m_now").unwrap() < j1.find("z_total").unwrap());
    }
}
