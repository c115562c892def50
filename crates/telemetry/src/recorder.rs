//! The metric registry and trace buffer.

use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
use crate::names;
use crate::trace::{current_tid, TraceEvent, TracePhase};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Cap on buffered trace events: a runaway run degrades to a truncated
/// trace (with the drop count surfaced as a counter) rather than
/// unbounded memory growth.
const MAX_TRACE_EVENTS: usize = 1 << 18;

/// A metric registry plus trace-event buffer.
///
/// Metric handles are get-or-registered by name — registration takes a
/// short `Mutex`, but instrumented code does it once per run and then
/// records through the returned `Arc`s lock-free. Names may carry one
/// Prometheus-style label, e.g. `buffy_phase_ns{phase="bounds"}`
/// (see [`labeled`](crate::labeled)); the exporters group such names
/// into one metric family.
///
/// `BTreeMap` registries make every export deterministic in *structure*
/// (ordering, set of names); the recorded values are as non-deterministic
/// as the wall clock they measure.
#[derive(Debug)]
pub struct Recorder {
    start: Instant,
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    /// Help text per metric *family* (name up to any `{`).
    help: Mutex<BTreeMap<String, String>>,
    trace: Mutex<Vec<TraceEvent>>,
    trace_dropped: AtomicU64,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// A fresh, empty recorder; its creation instant is the zero point
    /// of every trace timestamp.
    pub fn new() -> Self {
        Self {
            start: Instant::now(),
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            help: Mutex::new(BTreeMap::new()),
            trace: Mutex::new(Vec::new()),
            trace_dropped: AtomicU64::new(0),
        }
    }

    /// Microseconds elapsed since the recorder was created.
    pub fn elapsed_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    fn register_help(&self, name: &str, help: &str) {
        let family = name.split('{').next().unwrap_or(name);
        let mut map = self.help.lock().unwrap_or_else(|e| e.into_inner());
        map.entry(family.to_string())
            .or_insert_with(|| help.to_string());
    }

    /// Returns the counter registered under `name`, creating it if
    /// needed. Fetch once per run; record through the handle.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.register_help(name, help);
        let mut map = self.counters.lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// Returns the gauge registered under `name`, creating it if needed.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.register_help(name, help);
        let mut map = self.gauges.lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// Returns the histogram registered under `name`, creating it if
    /// needed.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        self.register_help(name, help);
        let mut map = self.histograms.lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    fn push_trace(&self, event: TraceEvent) {
        let mut buf = self.trace.lock().unwrap_or_else(|e| e.into_inner());
        if buf.len() >= MAX_TRACE_EVENTS {
            drop(buf);
            self.trace_dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        buf.push(event);
    }

    /// Records a completed span at an explicit start timestamp
    /// (microseconds since recorder creation).
    pub fn trace_complete_at(&self, name: &str, ts_us: u64, dur_us: u64) {
        self.push_trace(TraceEvent {
            name: name.to_string(),
            ph: TracePhase::Complete,
            ts_us,
            dur_us,
            tid: current_tid(),
        });
    }

    /// Records an instant event at an explicit timestamp.
    pub fn trace_instant_at(&self, name: &str, ts_us: u64) {
        self.push_trace(TraceEvent {
            name: name.to_string(),
            ph: TracePhase::Instant,
            ts_us,
            dur_us: 0,
            tid: current_tid(),
        });
    }

    /// Records an instant event timestamped "now".
    pub fn trace_instant(&self, name: &str) {
        self.trace_instant_at(name, self.elapsed_us());
    }

    /// A copy of the buffered trace events, in recording order.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.trace.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Number of trace events discarded after the buffer cap.
    pub fn dropped_trace_events(&self) -> u64 {
        self.trace_dropped.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of every registered metric. Taken after the
    /// instrumented run finishes it is exact; taken concurrently it is
    /// approximately consistent (each value individually atomic).
    pub fn snapshot(&self) -> Snapshot {
        let counters: BTreeMap<String, u64> = self
            .counters
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        let mut help: BTreeMap<String, String> =
            self.help.lock().unwrap_or_else(|e| e.into_inner()).clone();
        let mut snapshot = Snapshot {
            counters,
            gauges,
            histograms,
            help: BTreeMap::new(),
        };
        // Surface trace truncation as a metric so caps are never silent.
        let dropped = self.dropped_trace_events();
        if dropped > 0 {
            help.entry(names::TRACE_DROPPED.to_string())
                .or_insert_with(|| {
                    "Trace events discarded after the in-memory buffer cap.".to_string()
                });
            snapshot
                .counters
                .insert(names::TRACE_DROPPED.to_string(), dropped);
        }
        snapshot.help = help;
        snapshot
    }

    /// Snapshot-and-render in one step: the current metric values in
    /// Prometheus text exposition format.
    ///
    /// This is the live-scrape entry point: a `/metrics` handler on
    /// another thread calls it per request while the instrumented run is
    /// still writing. Each scrape pays one fresh [`Recorder::snapshot`] —
    /// the writers only ever contend on the short registry mutexes, never
    /// on the render.
    pub fn prometheus(&self) -> String {
        crate::render_prometheus(&self.snapshot())
    }
}

/// An immutable copy of a [`Recorder`]'s metrics, keyed by full metric
/// name (including any `{label="value"}` suffix).
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Counter values.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram snapshots.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Help text per metric family.
    pub help: BTreeMap<String, String>,
}

impl Snapshot {
    /// Collects the values of a labelled metric family from `map` as
    /// `(label-value, value)` pairs, in name order. E.g.
    /// `family_values(&s.counters, PHASE_NS)` yields one entry per
    /// phase.
    pub fn family_values<'a, V: Clone>(
        map: &'a BTreeMap<String, V>,
        family: &str,
    ) -> Vec<(&'a str, V)> {
        let prefix = format!("{family}{{");
        map.iter()
            .filter_map(|(name, v)| {
                let rest = name.strip_prefix(&prefix)?;
                let inner = rest.strip_suffix('}')?;
                // One label: key="value".
                let value = inner.split('=').nth(1)?.trim_matches('"');
                Some((value, v.clone()))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labeled;

    #[test]
    fn get_or_register_returns_the_same_handle() {
        let r = Recorder::new();
        let a = r.counter("x_total", "x");
        let b = r.counter("x_total", "ignored duplicate help");
        a.inc();
        b.add(2);
        assert_eq!(r.snapshot().counters["x_total"], 3);
        assert_eq!(r.snapshot().help["x_total"], "x");
    }

    #[test]
    fn family_values_extracts_labels_in_order() {
        let r = Recorder::new();
        for index in [2u64, 0, 11] {
            r.counter(&labeled(names::SIZES_PRUNED, "phase", index), "sizes")
                .add(index + 1);
        }
        let s = r.snapshot();
        let values = Snapshot::family_values(&s.counters, names::SIZES_PRUNED);
        // BTreeMap order is lexicographic on the full name.
        assert_eq!(values, vec![("0", 1), ("11", 12), ("2", 3)]);
    }

    #[test]
    fn trace_buffer_caps_and_counts_drops() {
        let r = Recorder::new();
        r.trace_instant_at("i", 1);
        assert_eq!(r.trace_events().len(), 1);
        assert_eq!(r.dropped_trace_events(), 0);
        assert!(!r.snapshot().counters.contains_key(names::TRACE_DROPPED));
    }

    #[test]
    fn help_is_per_family_not_per_label() {
        let r = Recorder::new();
        r.counter(&labeled("f_total", "shard", 0), "family help");
        r.counter(&labeled("f_total", "shard", 1), "other");
        let s = r.snapshot();
        assert_eq!(s.help["f_total"], "family help");
    }
}
