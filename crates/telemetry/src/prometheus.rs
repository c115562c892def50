//! Prometheus text-exposition exporter.
//!
//! Renders a [`Snapshot`] in the [text exposition format] suitable for
//! the node-exporter textfile collector: `# HELP` / `# TYPE` headers per
//! metric family, labelled samples, and cumulative `_bucket`/`_sum`/
//! `_count` series for histograms with power-of-two `le` boundaries.
//!
//! [text exposition format]:
//! https://prometheus.io/docs/instrumenting/exposition_formats/

use crate::metrics::{bucket_upper_edge, HistogramSnapshot};
use crate::recorder::Snapshot;
use std::fmt::Write as _;

/// Splits a full metric name into `(family, Some(labels))` where
/// `labels` is the `key="value"` part without braces.
fn split_name(name: &str) -> (&str, Option<&str>) {
    match name.split_once('{') {
        Some((family, rest)) => (family, rest.strip_suffix('}')),
        None => (name, None),
    }
}

/// Appends `# HELP` / `# TYPE` headers once per family.
fn header(out: &mut String, last_family: &mut String, family: &str, kind: &str, snap: &Snapshot) {
    if family == last_family {
        return;
    }
    last_family.clear();
    last_family.push_str(family);
    if let Some(help) = snap.help.get(family) {
        let _ = writeln!(out, "# HELP {family} {help}");
    }
    let _ = writeln!(out, "# TYPE {family} {kind}");
}

/// Formats a sample name with `extra` merged into any existing label set.
fn with_label(family: &str, suffix: &str, labels: Option<&str>, extra: Option<&str>) -> String {
    let mut inner = String::new();
    if let Some(l) = labels {
        inner.push_str(l);
    }
    if let Some(e) = extra {
        if !inner.is_empty() {
            inner.push(',');
        }
        inner.push_str(e);
    }
    if inner.is_empty() {
        format!("{family}{suffix}")
    } else {
        format!("{family}{suffix}{{{inner}}}")
    }
}

fn render_histogram(out: &mut String, family: &str, labels: Option<&str>, h: &HistogramSnapshot) {
    // Cumulative buckets up to the highest non-empty one; buckets above
    // it add no information (the +Inf bucket closes the series).
    let top = h.max_bucket().unwrap_or(0);
    let mut cumulative = 0u64;
    for k in 0..=top {
        cumulative += h.counts[k];
        let le = bucket_upper_edge(k);
        let name = with_label(family, "_bucket", labels, Some(&format!("le=\"{le}\"")));
        let _ = writeln!(out, "{name} {cumulative}");
    }
    let name = with_label(family, "_bucket", labels, Some("le=\"+Inf\""));
    let _ = writeln!(out, "{name} {}", h.count);
    let _ = writeln!(
        out,
        "{} {}",
        with_label(family, "_sum", labels, None),
        h.sum
    );
    let _ = writeln!(
        out,
        "{} {}",
        with_label(family, "_count", labels, None),
        h.count
    );
}

/// Renders `snapshot` as a Prometheus textfile. Deterministic in
/// structure: families and labelled samples appear in lexicographic
/// name order.
pub fn render_prometheus(snapshot: &Snapshot) -> String {
    let mut out = String::new();
    let mut last_family = String::new();
    for (name, value) in &snapshot.counters {
        let (family, labels) = split_name(name);
        header(&mut out, &mut last_family, family, "counter", snapshot);
        let _ = writeln!(out, "{} {value}", with_label(family, "", labels, None));
    }
    for (name, value) in &snapshot.gauges {
        let (family, labels) = split_name(name);
        header(&mut out, &mut last_family, family, "gauge", snapshot);
        let _ = writeln!(out, "{} {value}", with_label(family, "", labels, None));
    }
    for (name, h) in &snapshot.histograms {
        let (family, labels) = split_name(name);
        header(&mut out, &mut last_family, family, "histogram", snapshot);
        render_histogram(&mut out, family, labels, h);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;
    use crate::{labeled, names};

    #[test]
    fn families_get_one_header_and_labels_merge() {
        let r = Recorder::new();
        r.counter(
            &labeled(names::SIZES_PRUNED, "phase", "a"),
            "Sizes settled.",
        )
        .add(3);
        r.counter(
            &labeled(names::SIZES_PRUNED, "phase", "b"),
            "Sizes settled.",
        )
        .add(5);
        let text = render_prometheus(&r.snapshot());
        assert_eq!(
            text.matches("# TYPE buffy_sizes_pruned_total counter")
                .count(),
            1
        );
        assert!(text.contains("buffy_sizes_pruned_total{phase=\"a\"} 3\n"));
        assert!(text.contains("buffy_sizes_pruned_total{phase=\"b\"} 5\n"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_closed_by_inf() {
        let r = Recorder::new();
        let h = r.histogram("lat_ns", "Latency.");
        h.record(0);
        h.record(1);
        h.record(3);
        let text = render_prometheus(&r.snapshot());
        assert!(text.contains("# TYPE lat_ns histogram\n"));
        assert!(text.contains("lat_ns_bucket{le=\"0\"} 1\n"));
        assert!(text.contains("lat_ns_bucket{le=\"1\"} 2\n"));
        assert!(text.contains("lat_ns_bucket{le=\"3\"} 3\n"));
        assert!(text.contains("lat_ns_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("lat_ns_sum 4\n"));
        assert!(text.contains("lat_ns_count 3\n"));
    }

    #[test]
    fn labelled_histogram_merges_le_into_labels() {
        let r = Recorder::new();
        r.histogram(&labeled(names::PHASE_NS, "phase", "bounds"), "Phase time.")
            .record(2);
        let text = render_prometheus(&r.snapshot());
        assert!(text.contains("buffy_phase_ns_bucket{phase=\"bounds\",le=\"3\"} 1\n"));
        assert!(text.contains("buffy_phase_ns_sum{phase=\"bounds\"} 2\n"));
        assert!(text.contains("buffy_phase_ns_count{phase=\"bounds\"} 1\n"));
    }
}
