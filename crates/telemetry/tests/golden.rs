//! Golden-file tests: the exporters' output is locked byte-for-byte so
//! format drift is a deliberate, reviewed change.

use buffy_telemetry::{
    labeled, names, render_chrome_trace, render_prometheus, Recorder, TraceEvent, TracePhase,
};

#[test]
fn prometheus_rendering_matches_golden() {
    let r = Recorder::new();
    r.counter(
        "buffy_evals_short_circuited_total",
        "Per-size sweeps cut short by the monotonicity ceiling.",
    )
    .add(4);
    r.counter(
        &labeled(names::GUIDED_SKIPPED, "reason", "channel-cap"),
        "Guided-frontier children discarded without evaluation, by reason.",
    )
    .add(7);
    r.counter(
        &labeled(names::GUIDED_SKIPPED, "reason", "ub-size"),
        "Guided-frontier children discarded without evaluation, by reason.",
    )
    .add(2);
    r.gauge(
        names::INTERNER_OCCUPANCY_MAX,
        "Largest interner occupancy seen.",
    )
    .record_max(1000);
    let h = r.histogram(names::EVAL_LATENCY_NS, "Evaluation latency in nanoseconds.");
    h.record(0);
    h.record(1);
    h.record(5);
    h.record(1024);
    let rendered = render_prometheus(&r.snapshot());
    assert_eq!(rendered, include_str!("golden/prometheus.txt"));
}

#[test]
fn chrome_trace_rendering_matches_golden() {
    // Events are constructed directly (not via a live recorder) so the
    // timestamps and thread ids are fixed.
    let events = vec![
        TraceEvent {
            name: "phase:bounds".into(),
            ph: TracePhase::Complete,
            ts_us: 0,
            dur_us: 1500,
            tid: 1,
        },
        TraceEvent {
            name: "eval \"⟨4, 2⟩\"".into(),
            ph: TracePhase::Complete,
            ts_us: 1500,
            dur_us: 42,
            tid: 2,
        },
        TraceEvent {
            name: "pareto".into(),
            ph: TracePhase::Instant,
            ts_us: 1542,
            dur_us: 0,
            tid: 2,
        },
    ];
    let rendered = render_chrome_trace(&events);
    assert_eq!(rendered, include_str!("golden/chrome_trace.json"));
    // The golden document carries the track-naming metadata: one
    // process_name plus one thread_name per distinct tid (1 and 2).
    assert_eq!(rendered.matches("\"ph\":\"M\"").count(), 3);
}
