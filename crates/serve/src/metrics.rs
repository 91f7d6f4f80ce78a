//! The serving loop's metrics registry.
//!
//! Counters, gauges and latency histograms, with summaries
//! (mean/p50/p95/p99/max) computed through the shared
//! [`exegpt_dist::stats::summary`] helper — the same percentile code the
//! offline runner reports use, so online and offline numbers agree by
//! construction.
//!
//! Names are interned: [`Metrics::register`] maps a name to a small
//! [`MetricId`] once, off the hot path, and every write goes by id into
//! flat slot vectors — no string compare, no allocation. The snapshot
//! renders the same name-sorted maps a string-keyed registry would.

use std::collections::BTreeMap;

use exegpt_dist::stats::{self, Summary};
use serde::Serialize;

/// An interned metric name: an index into the registry that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricId(usize);

/// In-memory metrics registry: monotonic counters, last-write-wins gauges
/// and raw-sample histograms, each addressed by a [`MetricId`].
///
/// One id names a counter, a gauge and a histogram at once; a kind shows
/// up in the [`snapshot`](Self::snapshot) only once it has been written.
/// Ids are only meaningful for the registry that issued them: using
/// another registry's id panics (out of range) or writes the wrong slot.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    /// Name → id, in name order (the snapshot's rendering order).
    ids: BTreeMap<String, MetricId>,
    /// Per-id slots; `None` until first written.
    counters: Vec<Option<u64>>,
    gauges: Vec<Option<f64>>,
    histograms: Vec<Vec<f64>>,
}

impl Metrics {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The id of metric `name`, interning it on first use. Registering
    /// writes nothing: the name stays out of the snapshot until one of
    /// its slots is written.
    pub fn register(&mut self, name: &str) -> MetricId {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = MetricId(self.counters.len());
        self.ids.insert(name.to_owned(), id);
        self.counters.push(None);
        self.gauges.push(None);
        self.histograms.push(Vec::new());
        id
    }

    /// Increments counter `id` by 1.
    pub fn inc(&mut self, id: MetricId) {
        self.add(id, 1);
    }

    /// Increments counter `id` by `n` (`n == 0` still creates it).
    pub fn add(&mut self, id: MetricId, n: u64) {
        let slot = &mut self.counters[id.0];
        *slot = Some(slot.unwrap_or(0) + n);
    }

    /// Sets gauge `id` to `value`.
    pub fn gauge(&mut self, id: MetricId, value: f64) {
        self.gauges[id.0] = Some(value);
    }

    /// Records one sample into histogram `id`.
    pub fn observe(&mut self, id: MetricId, value: f64) {
        self.histograms[id.0].push(value);
    }

    /// Current value of counter `id` (0 if never incremented).
    pub fn counter(&self, id: MetricId) -> u64 {
        self.counters[id.0].unwrap_or(0)
    }

    /// Current value of gauge `id`.
    pub fn gauge_value(&self, id: MetricId) -> Option<f64> {
        self.gauges[id.0]
    }

    /// Raw samples of histogram `id`.
    pub fn samples(&self, id: MetricId) -> &[f64] {
        &self.histograms[id.0]
    }

    /// Summary statistics of histogram `id` (`None` if empty).
    pub fn summary(&self, id: MetricId) -> Option<Summary> {
        stats::summary(self.samples(id))
    }

    /// An immutable, serializable snapshot: histograms are collapsed to
    /// their summaries. Map-backed, so the rendering order (and the JSON
    /// byte stream) is deterministic.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot {
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            summaries: BTreeMap::new(),
        };
        for (name, &MetricId(i)) in &self.ids {
            if let Some(v) = self.counters[i] {
                snap.counters.insert(name.clone(), v);
            }
            if let Some(v) = self.gauges[i] {
                snap.gauges.insert(name.clone(), v);
            }
            if let Some(s) = stats::summary(&self.histograms[i]) {
                snap.summaries.insert(name.clone(), s);
            }
        }
        snap
    }
}

/// Point-in-time view of a [`Metrics`] registry.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MetricsSnapshot {
    /// Counter values.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram summaries (count/mean/p50/p95/p99/max).
    pub summaries: BTreeMap<String, Summary>,
}

impl MetricsSnapshot {
    /// Renders a fixed-width text table (for CLI output).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            out.push_str(&format!("{k:<28} {v}\n"));
        }
        for (k, v) in &self.gauges {
            out.push_str(&format!("{k:<28} {v:.6}\n"));
        }
        for (k, s) in &self.summaries {
            out.push_str(&format!(
                "{k:<28} n={} mean={:.4}s p50={:.4}s p95={:.4}s p99={:.4}s max={:.4}s\n",
                s.count, s.mean, s.p50, s.p95, s.p99, s.max
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_histograms_round_trip() {
        let mut m = Metrics::new();
        let completions = m.register("completions");
        let queue_depth = m.register("queue_depth");
        let e2e = m.register("e2e");
        let missing = m.register("missing");
        assert_eq!(m.register("completions"), completions, "ids are interned");
        m.inc(completions);
        m.add(completions, 2);
        m.gauge(queue_depth, 7.0);
        for i in 1..=100 {
            m.observe(e2e, i as f64);
        }
        assert_eq!(m.counter(completions), 3);
        assert_eq!(m.counter(missing), 0);
        assert_eq!(m.gauge_value(queue_depth), Some(7.0));
        assert_eq!(m.gauge_value(missing), None);
        let s = m.summary(e2e).expect("non-empty");
        assert_eq!(s.count, 100);
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.p99, 99.0);
        assert!(m.summary(missing).is_none());
    }

    #[test]
    fn only_written_slots_reach_the_snapshot() {
        let mut m = Metrics::new();
        let unused = m.register("unused");
        let zero = m.register("zero");
        let both = m.register("both");
        m.add(zero, 0);
        m.inc(both);
        m.gauge(both, 1.5);
        let snap = m.snapshot();
        assert_eq!(snap.counters.keys().collect::<Vec<_>>(), ["both", "zero"]);
        assert_eq!(snap.counters["zero"], 0, "add(x, 0) still creates the key");
        assert_eq!(snap.gauges.keys().collect::<Vec<_>>(), ["both"]);
        assert!(snap.summaries.is_empty());
        assert_eq!(m.counter(unused), 0);
    }

    #[test]
    fn snapshot_is_deterministic_and_serializable() {
        let mut m = Metrics::new();
        // Registered out of name order: the snapshot still sorts by name.
        let b = m.register("b");
        let a = m.register("a");
        let lat = m.register("lat");
        m.inc(b);
        m.inc(a);
        m.observe(lat, 1.0);
        let snap = m.snapshot();
        let j1 = serde_json::to_string(&snap).expect("serializes");
        let j2 = serde_json::to_string(&m.snapshot()).expect("serializes");
        assert_eq!(j1, j2, "snapshot serialization is stable");
        // BTreeMap ordering: "a" before "b" in the rendered table.
        let table = snap.render();
        assert!(table.find("a ").unwrap() < table.find("b ").unwrap());
        assert!(table.contains("p99"));
    }
}
