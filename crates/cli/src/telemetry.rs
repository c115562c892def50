//! CLI wiring of the metrics/profiling recorder.
//!
//! `--metrics FILE` writes a Prometheus textfile snapshot, `--chrome-trace
//! FILE` a Chrome trace-event JSON (loadable in chrome://tracing or
//! Perfetto), and `--json` embeds a `telemetry` section in the
//! machine-readable report. `--serve` needs the recorder live for its
//! `/metrics` scrape endpoint. Any of the four installs a fresh global
//! [`Recorder`] for the duration of the command; without them the
//! instrumented hot paths pay only a relaxed load and a branch.

use crate::args::ParsedArgs;
use buffy_telemetry::{
    names, render_chrome_trace, render_prometheus, HistogramSnapshot, Recorder, Snapshot,
};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};

/// The recorder slot is process-global; two concurrent commands in one
/// process (the test suite) would otherwise overwrite each other's
/// recorder mid-run. Real invocations run one command per process and
/// never contend.
static INSTALL_LOCK: Mutex<()> = Mutex::new(());

/// One command's telemetry scope: installs the recorder on construction
/// (when any consumer asked for it), uninstalls and exports on
/// [`finish`](TelemetrySession::finish) — or on drop, so error paths
/// never leave a stale recorder behind.
pub(crate) struct TelemetrySession {
    recorder: Option<Arc<Recorder>>,
    _guard: Option<MutexGuard<'static, ()>>,
    metrics: Option<PathBuf>,
    chrome: Option<PathBuf>,
}

impl TelemetrySession {
    /// Builds the session from `--metrics`, `--chrome-trace`, `--json`
    /// and `--serve`.
    pub(crate) fn from_options(parsed: &ParsedArgs) -> TelemetrySession {
        let metrics = parsed.options.get("metrics").map(PathBuf::from);
        let chrome = parsed.options.get("chrome-trace").map(PathBuf::from);
        let wanted = metrics.is_some()
            || chrome.is_some()
            || parsed.has_flag("json")
            || parsed.options.contains_key("serve");
        let mut guard = None;
        let recorder = wanted.then(|| {
            guard = Some(INSTALL_LOCK.lock().unwrap_or_else(|e| e.into_inner()));
            let r = Arc::new(Recorder::new());
            buffy_telemetry::install(Arc::clone(&r));
            r
        });
        TelemetrySession {
            recorder,
            _guard: guard,
            metrics,
            chrome,
        }
    }

    /// The installed recorder, when any consumer asked for one. The
    /// observability server holds this `Arc` across
    /// [`finish`](TelemetrySession::finish): `/metrics` keeps serving the
    /// final values during the `--serve-linger` window even though the
    /// global slot has been uninstalled.
    pub(crate) fn recorder(&self) -> Option<Arc<Recorder>> {
        self.recorder.clone()
    }

    /// Uninstalls the recorder, writes the export files and returns the
    /// snapshot for the `--json` report (`None` when telemetry was never
    /// requested).
    ///
    /// # Errors
    ///
    /// Returns a message when an export file cannot be written.
    pub(crate) fn finish(mut self) -> Result<Option<Snapshot>, String> {
        let Some(recorder) = self.recorder.take() else {
            return Ok(None);
        };
        buffy_telemetry::uninstall();
        let snapshot = recorder.snapshot();
        if let Some(path) = &self.metrics {
            std::fs::write(path, render_prometheus(&snapshot))
                .map_err(|e| format!("cannot write metrics file {}: {e}", path.display()))?;
        }
        if let Some(path) = &self.chrome {
            std::fs::write(path, render_chrome_trace(&recorder.trace_events()))
                .map_err(|e| format!("cannot write Chrome trace {}: {e}", path.display()))?;
        }
        Ok(Some(snapshot))
    }
}

impl Drop for TelemetrySession {
    fn drop(&mut self) {
        if self.recorder.take().is_some() {
            buffy_telemetry::uninstall();
        }
    }
}

/// Renders the `--json` `telemetry` section: evaluation-latency
/// percentiles.
pub(crate) fn telemetry_json(snapshot: &Snapshot) -> String {
    let latency = snapshot
        .histograms
        .get(names::EVAL_LATENCY_NS)
        .cloned()
        .unwrap_or_else(HistogramSnapshot::empty);
    format!(
        "{{\"eval_latency_ns\":{{\"count\":{},\"mean\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}}}",
        latency.count,
        latency.mean(),
        latency.p50(),
        latency.p90(),
        latency.p99(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn telemetry_json_renders_latency() {
        let r = Recorder::new();
        let h = r.histogram(names::EVAL_LATENCY_NS, "latency");
        h.record(1000);
        h.record(2000);
        let json = telemetry_json(&r.snapshot());
        assert!(json.contains("\"count\":2"), "{json}");
        assert!(json.contains("\"p50\":"), "{json}");
    }

    #[test]
    fn empty_snapshot_renders_cleanly() {
        let json = telemetry_json(&Snapshot::default());
        assert!(json.contains("\"count\":0"), "{json}");
        assert!(json.ends_with("}}"), "{json}");
    }
}
