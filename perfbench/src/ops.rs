//! One operation: a driver call on one graph, or one constraint query,
//! run through the public API with the observers its workload attaches.
//! Traced operations also run the estimate probes, after the timed call.

use crate::golden::{self, Point};
use crate::inputs::{Loaded, Model};
use crate::trace::{BenchObserver, OpTrace, Samples, Timed};
use buffy_analysis::{
    dependencies_from_run_for, throughput_for, Capacities, DataflowSemantics, ExplorationLimits,
    StaticBounds,
};
use buffy_core::{
    explore_dependency_guided_observed, explore_design_space_observed,
    lower_bound_distribution_for, min_storage_for_throughput_observed,
    upper_bound_distribution_for, CancelToken, ExploreObserver, ExploreOptions, LiveObserver,
    ParetoPoint, ParetoSet, TeeObserver,
};
use buffy_csdf::{csdf_explore_observed, CsdfExploreOptions};
use buffy_graph::{ActorId, Rational};
use buffy_telemetry::Recorder;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which public entry point an operation calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// `explore_design_space` (or `csdf_explore` on a CSDF graph).
    Exhaustive,
    /// `explore_dependency_guided`.
    Guided,
    /// `min_storage_for_throughput` with this target.
    Constraint(Rational),
}

/// How an operation runs. Drivers always get one worker thread.
#[derive(Debug, Clone, Copy)]
pub struct OpConfig {
    /// Attach the program's live stack, as `buffy --serve` does: a
    /// `LiveObserver` through a `TeeObserver` and an installed recorder.
    pub live: bool,
    /// Attach the benchmark's observer and run the estimate probes.
    pub trace: bool,
    /// The driver's own deadline (its cancel token).
    pub deadline: Duration,
}

/// What an operation returned.
#[derive(Debug, Clone)]
pub struct OpOutcome {
    /// The front, or the constraint's single witness.
    pub points: Vec<Point>,
    /// Whether the driver reported an exact, failure-free result.
    pub exact: bool,
    /// Error or panic message, if the call did not return a result.
    pub error: Option<String>,
    /// Wall time of the call.
    pub ns: u64,
    /// The trace, for traced operations.
    pub trace: Option<OpTrace>,
    /// What the estimate probes draw from, for [`probe`].
    samples: Option<Samples>,
}

/// The result parts the benchmark reads, whichever driver ran.
struct Returned {
    points: Vec<ParetoPoint>,
    exact: bool,
    warm_starts: u64,
}

/// Calls the driver for `op` on `loaded`, reporting to `observer`.
fn call(
    loaded: &Loaded,
    driver: Driver,
    cancel: Arc<CancelToken>,
    observer: &dyn ExploreObserver,
) -> Result<Returned, String> {
    let opts = ExploreOptions {
        observed: Some(loaded.observed),
        threads: 1,
        cancel: Some(cancel.clone()),
        ..ExploreOptions::default()
    };
    let from = |r: buffy_core::ExplorationResult| Returned {
        exact: r.completeness.exact && r.failures.is_empty(),
        warm_starts: r.stats.warm_starts,
        points: r.pareto.points().to_vec(),
    };
    match (&loaded.model, driver) {
        (Model::Sdf(g), Driver::Exhaustive) => explore_design_space_observed(g, &opts, observer)
            .map(from)
            .map_err(|e| e.to_string()),
        (Model::Sdf(g), Driver::Guided) => explore_dependency_guided_observed(g, &opts, observer)
            .map(from)
            .map_err(|e| e.to_string()),
        (Model::Sdf(g), Driver::Constraint(t)) => {
            min_storage_for_throughput_observed(g, t, &opts, observer)
                .map(|r| Returned {
                    exact: r.completeness.exact && r.failures.is_empty(),
                    warm_starts: r.stats.warm_starts,
                    points: vec![r.point],
                })
                .map_err(|e| e.to_string())
        }
        (Model::Csdf(g), Driver::Exhaustive) => {
            let copts = CsdfExploreOptions {
                observed: Some(loaded.observed),
                threads: 1,
                cancel: Some(cancel),
                ..CsdfExploreOptions::default()
            };
            csdf_explore_observed(g, &copts, observer)
                .map(|r| Returned {
                    exact: r.completeness.exact && r.failures.is_empty(),
                    warm_starts: r.stats.warm_starts,
                    points: r.pareto.points().to_vec(),
                })
                .map_err(|e| e.to_string())
        }
        (Model::Csdf(_), _) => Err("CSDF graphs run the exhaustive driver only".into()),
    }
}

/// Runs one operation.
pub fn run(loaded: &Loaded, driver: Driver, cfg: &OpConfig) -> OpOutcome {
    let recorder = (cfg.live || cfg.trace).then(|| {
        let r = Arc::new(Recorder::new());
        buffy_telemetry::install(r.clone());
        r
    });
    let cancel = Arc::new(CancelToken::new().with_deadline(cfg.deadline));
    let live = LiveObserver::new();
    let timed_live = Timed::new(&live);
    let bench = cfg.trace.then(BenchObserver::start);
    let mut tee = TeeObserver::new();
    match (cfg.live, cfg.trace) {
        (true, true) => tee.push(&timed_live),
        (true, false) => tee.push(&live),
        _ => {}
    }
    if let Some(b) = &bench {
        tee.push(b);
    }

    let start = Instant::now();
    let returned = catch_unwind(AssertUnwindSafe(|| call(loaded, driver, cancel, &tee)))
        .unwrap_or_else(|panic| Err(panic_message(panic.as_ref())));
    let ns = start.elapsed().as_nanos() as u64;
    live.finish("done");
    drop(tee);
    if recorder.is_some() {
        buffy_telemetry::uninstall();
    }

    let (points, exact, warm_starts, error) = match returned {
        Ok(r) => (golden::points(&r.points), r.exact, r.warm_starts, None),
        Err(e) => (Vec::new(), false, 0, Some(e)),
    };
    let mut samples = None;
    let trace = bench.map(|b| {
        let (mut t, s) = b.finish();
        samples = Some(s);
        // A graph can meet both front drivers in one pass; the guided
        // call is kept apart.
        t.graph = match driver {
            Driver::Guided => format!("{}-guided", loaded.source.name),
            _ => loaded.source.name.clone(),
        };
        t.warm_starts = warm_starts;
        (t.live_events, t.live_fanout_ns) = if cfg.live {
            timed_live.totals()
        } else {
            (0, 0)
        };
        if let Some(r) = &recorder {
            t.phases = phase_times(r);
        }
        t
    });
    OpOutcome {
        points,
        exact,
        error,
        ns,
        trace,
        samples,
    }
}

/// Runs the estimate probes of a traced operation, filling in its
/// trace. Kept apart from [`run`] so that no caller times them with the
/// operation.
pub fn probe(loaded: &Loaded, outcome: &mut OpOutcome) {
    let (Some(t), Some(samples)) = (&mut outcome.trace, &outcome.samples) else {
        return;
    };
    match &loaded.model {
        Model::Sdf(g) => probes(g, loaded.observed, samples, t),
        Model::Csdf(g) => probes(g, loaded.observed, samples, t),
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    let text = panic
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string payload".into());
    format!("panic: {text}")
}

/// Per-phase wall time from the recorder's `buffy_phase_ns{phase=…}`
/// histograms.
fn phase_times(recorder: &Recorder) -> Vec<(String, u64)> {
    let prefix = format!("{}{{phase=\"", buffy_telemetry::names::PHASE_NS);
    recorder
        .snapshot()
        .histograms
        .iter()
        .filter_map(|(name, h)| {
            let phase = name.strip_prefix(&prefix)?.strip_suffix("\"}")?;
            Some((phase.to_string(), h.sum))
        })
        .collect()
}

/// Up to `n` items spread evenly over `items`.
fn sample<T>(items: &[T], n: usize) -> impl Iterator<Item = &T> {
    let step = items.len().div_ceil(n).max(1);
    items.iter().step_by(step)
}

/// Median and mean of `v`; zeros when empty.
fn median_mean(mut v: Vec<u64>) -> (u64, u64) {
    if v.is_empty() {
        return (0, 0);
    }
    v.sort_unstable();
    (v[v.len() / 2], v.iter().sum::<u64>() / v.len() as u64)
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let t = Instant::now();
    let r = std::hint::black_box(f());
    (r, t.elapsed().as_nanos() as u64)
}

/// The estimate probes: the benchmark's own timed calls into the layers
/// the driver uses internally, on the inputs the observer reported.
fn probes<M: DataflowSemantics>(model: &M, observed: ActorId, samples: &Samples, t: &mut OpTrace) {
    let limits = ExplorationLimits::default();
    let (_, lb_ns) = timed(|| lower_bound_distribution_for(model));
    let (_, ub_ns) = timed(|| upper_bound_distribution_for(model, observed, limits));
    t.bounds_ns = lb_ns + ub_ns;

    let (bounds, build_ns) = timed(|| StaticBounds::new(model, observed));
    t.build_ns = build_ns;
    if let Ok(bounds) = bounds {
        let certs = sample(&samples.candidates, 24)
            .map(|d| timed(|| bounds.certificate(d)).1)
            .collect();
        (t.cert_ns, t.cert_mean_ns) = median_mean(certs);
    }

    let replays = sample(&samples.replayed, 8)
        .filter_map(|(d, deadlock)| {
            let (deadlocked, entry, period) = if *deadlock {
                (true, 0, 0)
            } else {
                let caps = Capacities::from_distribution(d);
                let r = throughput_for(model, caps, observed, limits).ok()?;
                (r.deadlocked, r.cycle_entry_time, r.period)
            };
            let (_, ns) = timed(|| dependencies_from_run_for(model, d, deadlocked, entry, period));
            Some(ns)
        })
        .collect();
    (t.replay_ns, t.replay_mean_ns) = median_mean(replays);

    let accepted = &samples.accepted;
    if !accepted.is_empty() {
        let mut set = ParetoSet::new();
        let (_, ns) = timed(|| {
            for p in accepted {
                set.insert(p.clone());
            }
        });
        t.insert_ns = ns / accepted.len() as u64;
    }
}
