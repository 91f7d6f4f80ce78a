//! Timing from outside the program: every call into a layer goes through
//! [`Probe::call`], which measures its wall time, allocations and peak
//! heap, and — in a traced run — records a span.
//!
//! Spans are kept in memory and written once, at the end of the run, as
//! Chrome trace-event JSON that Perfetto loads. A layer's self time is a
//! span's duration minus the time its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::alloc::{self, Totals};

/// One recorded span. Times are nanoseconds since the probe was created.
struct Span {
    name: &'static str,
    /// The cell, rung or pass the span belongs to.
    id: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// What the calls of one name cost, summed.
#[derive(Debug, Clone, Copy, Default)]
pub struct CallStats {
    pub calls: u64,
    pub allocs: u64,
    pub bytes: u64,
}

pub struct Probe {
    origin: Instant,
    record: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    stats: BTreeMap<&'static str, CallStats>,
    heap_peak: usize,
}

impl Probe {
    /// A probe that records spans only when `record` is set; timings,
    /// allocation counts and the heap peak are kept either way.
    pub fn new(record: bool) -> Self {
        Self {
            origin: Instant::now(),
            record,
            spans: Vec::new(),
            open: Vec::new(),
            stats: BTreeMap::new(),
            heap_peak: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn open(&mut self, name: &'static str, id: u64) -> Option<usize> {
        if !self.record {
            return None;
        }
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, id, parent, start_ns: self.now_ns(), end_ns: 0 });
        self.open.push(idx);
        Some(idx)
    }

    fn close(&mut self, idx: Option<usize>) {
        if let Some(idx) = idx {
            self.spans[idx].end_ns = self.now_ns();
            self.open.pop();
        }
    }

    /// A grouping span (a pass, a cell, a rung) around benchmark code that
    /// itself makes layer calls. Records nothing in an untraced run.
    pub fn span<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        let idx = self.open(name, id);
        let value = f(self);
        self.close(idx);
        value
    }

    /// One call into a layer: returns its value and wall seconds, and adds
    /// its allocations to the totals of `name` and its heap peak to the
    /// pass's peak.
    pub fn call<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let idx = self.open(name, id);
        let before = Totals::now();
        alloc::reset_peak();
        let start = Instant::now();
        let value = std::hint::black_box(f());
        let secs = start.elapsed().as_secs_f64();
        let used = before.until(Totals::now());
        self.heap_peak = self.heap_peak.max(alloc::peak());
        self.close(idx);
        let s = self.stats.entry(name).or_default();
        s.calls += 1;
        s.allocs += used.allocs as u64;
        s.bytes += used.bytes as u64;
        (value, secs)
    }

    /// Returns and clears the per-name totals and the heap peak.
    pub fn take_stats(&mut self) -> (BTreeMap<&'static str, CallStats>, usize) {
        (std::mem::take(&mut self.stats), std::mem::take(&mut self.heap_peak))
    }

    /// Self time in seconds per span name: each span's duration minus what
    /// its direct children cover.
    pub fn self_secs(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(covered);
            *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// The spans as Chrome trace-event JSON (complete events, one thread).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let parent = s.parent.map_or("", |p| self.spans[p].name);
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"{layer}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":\"{parent}\"}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.id,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}
