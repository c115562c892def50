//! The evaluation pipeline shared by every exploration driver.
//!
//! Each candidate storage distribution takes one of two paths:
//!
//! 1. **Checkpoint replay** — a distribution restored from a checkpoint
//!    ([`ExploreOptions::warm_start`]) is replayed as a recorded
//!    evaluation, with its checkpointed state count and zero wall time;
//! 2. **Engine run** — otherwise the reduced-state-space analysis runs
//!    on a pooled [`AnalysisWorkspace`], panic-contained and
//!    cancellation-aware.
//!
//! There is no memo and no pruning: every request runs (or replays) one
//! analysis, exactly as the paper's exploration runs one state-space
//! analysis per candidate (§9). Telemetry, statistics, checkpoint replay
//! and failure containment are attached here exactly once; the drivers
//! (`explore`, `dependency`, `constraint`, and `buffy-csdf`'s wrappers)
//! are thin consumers.

use crate::error::ExploreError;
use crate::explore::{ExploreOptions, WarmStart};
use crate::fault::{FaultPlan, FaultSite};
use crate::objective::ObjectiveKind;
use crate::pareto::{ParetoPoint, ParetoSet};
use crate::runtime::{
    resolve_threads, AtomicStats, EvaluationFailure, ExplorationStats, ExploreObserver, PruneKind,
};
use buffy_analysis::{
    throughput_for_reusing, AnalysisWorkspace, CancelReason, CancelToken, Capacities,
    DataflowSemantics, EnergyModel, ExplorationLimits,
};
use buffy_graph::{ActorId, Rational, StorageDistribution};
use buffy_telemetry::names;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// The shared evaluation pipeline: checkpoint replay, engine runs and
/// statistics behind one interface, generic over the model class.
///
/// All counters are atomics ([`AtomicStats`]); the only mutex footprint
/// on the hot path is one pop/push on the workspace pool.
pub(crate) struct EvalPipeline<'a, M: DataflowSemantics + Sync> {
    model: &'a M,
    observed: ActorId,
    limits: ExplorationLimits,
    stats: AtomicStats,
    threads: usize,
    observer: &'a dyn ExploreObserver,
    cancel: Arc<CancelToken>,
    /// Checkpointed evaluations, replayed instead of re-run.
    checkpoint: Option<Arc<WarmStart>>,
    fail_distribution: Option<StorageDistribution>,
    /// Deterministic fault schedule ([`crate::fault`]); `None` in
    /// production, where every hook is a single untaken branch.
    faults: Option<Arc<FaultPlan>>,
    failures: Mutex<Vec<EvaluationFailure>>,
    telemetry: Option<EvalTelemetry>,
    /// Pool of reusable analysis arenas, one in flight per worker. A
    /// workspace that survives an analysis returns to the pool; one
    /// caught in a panic is dropped (a fresh one is created on demand).
    workspaces: Mutex<Vec<AnalysisWorkspace>>,
    /// Energy coefficients, present exactly when the declared objective
    /// space includes the energy axis: every [`ParetoPoint`] then carries
    /// the exact energy per iteration derived from the throughput through
    /// [`EnergyModel::energy_per_iteration`]. `None` keeps the factory on
    /// the paper's 2D fast path.
    energy: Option<EnergyModel>,
}

/// One evaluation's outcome: the throughput plus the run metadata that
/// lets the dependency-guided search replay the recorded execution
/// instead of re-running the state-space analysis.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EvalRecord {
    /// Throughput of the observed actor under the distribution.
    pub(crate) throughput: Rational,
    /// Whether the execution deadlocked.
    pub(crate) deadlocked: bool,
    /// Time at which the periodic phase was entered.
    pub(crate) cycle_entry_time: u64,
    /// Length of one period of the periodic phase.
    pub(crate) period: u64,
    /// Whether `deadlocked`/`cycle_entry_time`/`period` come from a real
    /// analysis and can seed a dependency replay (`false` for checkpoint
    /// replays and degraded failures).
    pub(crate) has_replay_meta: bool,
    /// Whether the analysis panicked and was degraded to zero throughput
    /// (such records are terminal: no replay, no children).
    pub(crate) failed: bool,
}

impl EvalRecord {
    /// The degraded record of an analysis that panicked.
    const FAILED: EvalRecord = EvalRecord {
        throughput: Rational::ZERO,
        deadlocked: true,
        cycle_entry_time: 0,
        period: 0,
        has_replay_meta: false,
        failed: true,
    };
}

/// Telemetry handles of one pipeline run, fetched once at construction:
/// when no recorder is installed the pipeline pays a single branch, and
/// when one is, the hot path records through these `Arc`s without any
/// registry lookup or lock.
pub(crate) struct EvalTelemetry {
    recorder: Arc<buffy_telemetry::Recorder>,
    latency: Arc<buffy_telemetry::Histogram>,
    short_circuits: Arc<buffy_telemetry::Counter>,
    dominance_prunes: Arc<buffy_telemetry::Counter>,
    energy_points: Arc<buffy_telemetry::Counter>,
}

impl EvalTelemetry {
    pub(crate) fn fetch() -> Option<EvalTelemetry> {
        buffy_telemetry::active().map(|recorder| EvalTelemetry {
            latency: recorder.histogram(
                names::EVAL_LATENCY_NS,
                "Evaluation wall latency per throughput analysis, in nanoseconds.",
            ),
            short_circuits: recorder.counter(
                names::EVALS_SHORT_CIRCUITED,
                "Per-size sweeps cut short because the monotonicity ceiling was reached.",
            ),
            dominance_prunes: recorder.counter(
                names::DOMINANCE_PRUNES,
                "Guided-frontier candidates drained once the front reached the maximal throughput.",
            ),
            energy_points: recorder.counter(
                names::ENERGY_POINTS,
                "Pareto candidate points whose energy objective was computed.",
            ),
            recorder,
        })
    }
}

/// States charged to the memory watchdog by one injected arena-pressure
/// spike ([`FaultSite::ArenaPressure`]): large enough that a handful of
/// spikes exhaust a chaos run's state budget, the way a pathological
/// distribution's state space would.
const ARENA_SPIKE_STATES: u64 = 1 << 20;

/// Renders a panic payload for failure reporting.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl<'a, M: DataflowSemantics + Sync> EvalPipeline<'a, M> {
    pub(crate) fn new(
        model: &'a M,
        observed: ActorId,
        options: &ExploreOptions,
        observer: &'a dyn ExploreObserver,
    ) -> Result<EvalPipeline<'a, M>, ExploreError> {
        // An inconsistent model has no repetition vector and therefore no
        // energy coefficients — but such a model fails the bounds phase
        // before any point is constructed, so degrading to `None` there is
        // unobservable. Adversarial annotations overflowing the exact
        // coefficient arithmetic are a different matter: the bounds phase
        // would *succeed* and silently chart an energy-free front, so
        // overflow is surfaced as the error it is.
        let energy = if options.objectives.has(ObjectiveKind::Energy) {
            use buffy_analysis::AnalysisError;
            use buffy_graph::GraphError;
            match EnergyModel::from_semantics(model, observed) {
                Ok(m) => Some(m),
                Err(e @ AnalysisError::Graph(GraphError::ArithmeticOverflow { .. })) => {
                    return Err(ExploreError::from(e))
                }
                Err(_) => None,
            }
        } else {
            None
        };
        Ok(EvalPipeline {
            model,
            observed,
            limits: options.limits,
            stats: AtomicStats::new(),
            threads: resolve_threads(options.threads),
            observer,
            cancel: options.cancel.clone().unwrap_or_default(),
            checkpoint: options.warm_start.clone(),
            fail_distribution: options.fail_distribution.clone(),
            faults: options.fault_plan.clone(),
            failures: Mutex::new(Vec::new()),
            telemetry: EvalTelemetry::fetch(),
            workspaces: Mutex::new(Vec::new()),
            energy,
        })
    }

    /// Builds the Pareto point of one evaluated distribution in the
    /// declared objective space: the paper's storage/throughput pair, plus
    /// the exact energy per iteration when the energy axis is declared.
    ///
    /// Energy is a pure function of the throughput through the precomputed
    /// model, so this costs no extra analysis and checkpoint replay
    /// reconstructs identical points for free.
    pub(crate) fn point(
        &self,
        distribution: StorageDistribution,
        throughput: Rational,
    ) -> ParetoPoint {
        match &self.energy {
            Some(m) => {
                if let Some(t) = &self.telemetry {
                    t.energy_points.inc();
                }
                // The checked path: point construction runs outside the
                // worker's panic containment, so an overflowing energy
                // (extreme but validated coefficients at an extreme
                // throughput) degrades to the worst representable energy
                // — deterministic, and dominated out of any honest front
                // — rather than aborting the run.
                let energy = m
                    .checked_energy_per_iteration(throughput)
                    .unwrap_or(Rational::from_integer(i128::MAX));
                ParetoPoint::with_energy(distribution, throughput, energy)
            }
            None => ParetoPoint::new(distribution, throughput),
        }
    }

    /// Throughput of one distribution.
    ///
    /// Checkpoint entries are replayed as recorded evaluations
    /// (checkpointed state count, zero wall time): a resumed run
    /// reproduces both the front and the statistics of an uninterrupted
    /// one. A panicking analysis is contained here: it is recorded as an
    /// [`EvaluationFailure`], degraded to zero throughput (and stays so on
    /// re-request, without another run), and the search continues.
    pub(crate) fn eval(&self, dist: &StorageDistribution) -> Result<Rational, ExploreError> {
        Ok(self.eval_full(dist)?.throughput)
    }

    fn pop_workspace(&self) -> AnalysisWorkspace {
        self.workspaces.lock().unwrap().pop().unwrap_or_default()
    }

    fn push_workspace(&self, ws: AnalysisWorkspace) {
        self.workspaces.lock().unwrap().push(ws);
    }

    /// [`EvalPipeline::eval`] plus the run metadata — what the
    /// dependency-guided search needs to answer storage-dependency
    /// queries without re-running the state-space analysis.
    pub(crate) fn eval_full(&self, dist: &StorageDistribution) -> Result<EvalRecord, ExploreError> {
        if let Some(&(t, states)) = self.checkpoint.as_ref().and_then(|c| c.get(dist)) {
            self.observer.evaluation_started(dist);
            self.stats.record_evaluation(states, 0);
            self.observer.evaluation_finished(dist, t, states, 0);
            self.cancel.note_states(states);
            self.cancel.note_evaluation();
            return Ok(EvalRecord {
                throughput: t,
                deadlocked: t.is_zero(),
                cycle_entry_time: 0,
                period: 0,
                has_replay_meta: false,
                failed: false,
            });
        }
        if self
            .failures
            .lock()
            .unwrap()
            .iter()
            .any(|f| &f.distribution == dist)
        {
            return Ok(EvalRecord::FAILED);
        }
        self.observer.evaluation_started(dist);
        if let Some(plan) = &self.faults {
            if plan.should_inject(FaultSite::SpuriousCancel) {
                self.cancel.cancel(CancelReason::Interrupt);
            }
        }
        let trace_ts = self
            .telemetry
            .as_ref()
            .map(|t| t.recorder.elapsed_us())
            .unwrap_or(0);
        let mut ws = self.pop_workspace();
        let start = Instant::now();
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            if self.fail_distribution.as_ref() == Some(dist) {
                panic!("injected evaluation failure (fail_distribution test hook)");
            }
            if let Some(plan) = &self.faults {
                if plan.should_inject(FaultSite::EvalPanic) {
                    panic!(
                        "injected evaluation failure (fault plan, seed {})",
                        plan.seed()
                    );
                }
            }
            throughput_for_reusing(
                self.model,
                Capacities::from_distribution(dist),
                self.observed,
                self.limits,
                &self.cancel,
                &mut ws,
                0,
            )
        }));
        match attempt {
            Ok(report) => {
                self.push_workspace(ws);
                let report = report?;
                let nanos = start.elapsed().as_nanos() as u64;
                let states = report.states_stored as u64;
                self.stats.record_evaluation(states, nanos);
                if let Some(t) = &self.telemetry {
                    t.latency.record(nanos);
                    t.recorder
                        .trace_complete_at("eval", trace_ts, nanos / 1_000);
                }
                self.observer
                    .evaluation_finished(dist, report.throughput, states, nanos);
                // An injected arena-pressure spike rides on the genuine
                // count: it models this evaluation's arena ballooning, so
                // it lands exactly where real states are accounted and the
                // watchdog degrades the run between candidates.
                let spike = match &self.faults {
                    Some(plan) if plan.should_inject(FaultSite::ArenaPressure) => {
                        ARENA_SPIKE_STATES
                    }
                    _ => 0,
                };
                self.cancel.note_states(states + spike);
                self.cancel.note_evaluation();
                Ok(EvalRecord {
                    throughput: report.throughput,
                    deadlocked: report.deadlocked,
                    cycle_entry_time: report.cycle_entry_time,
                    period: report.period,
                    has_replay_meta: true,
                    failed: false,
                })
            }
            Err(payload) => {
                // The workspace was mid-analysis when the panic unwound
                // through it: drop it rather than pooling a possibly
                // inconsistent arena.
                drop(ws);
                let message = panic_message(payload.as_ref());
                self.stats.record_failure();
                self.failures.lock().unwrap().push(EvaluationFailure {
                    distribution: dist.clone(),
                    message: message.clone(),
                });
                self.observer.evaluation_failed(dist, &message);
                self.cancel.note_evaluation();
                Ok(EvalRecord::FAILED)
            }
        }
    }

    /// Registers one guided-frontier candidate drained without analysis
    /// once the front reached the graph's maximal throughput.
    pub(crate) fn note_drained(&self, dist: &StorageDistribution) {
        self.stats.record_dominance_prune();
        self.observer
            .distribution_pruned(dist, PruneKind::Dominance);
        if let Some(t) = &self.telemetry {
            t.dominance_prunes.inc();
        }
    }

    /// Evaluates a batch of distributions, possibly in parallel. Results
    /// align with the input order.
    ///
    /// Work is handed out through an atomic index; results land in
    /// per-slot [`OnceLock`]s, so workers share no locks at all. Batches
    /// always contain distinct distributions (they come from one
    /// enumeration pass), so no two workers ever analyse the same
    /// distribution concurrently.
    pub(crate) fn eval_batch(
        &self,
        batch: &[StorageDistribution],
    ) -> Result<Vec<Rational>, ExploreError> {
        if self.threads <= 1 || batch.len() <= 1 {
            return batch.iter().map(|d| self.eval(d)).collect();
        }
        let results: Vec<OnceLock<Result<Rational, ExploreError>>> =
            batch.iter().map(|_| OnceLock::new()).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..self.threads.min(batch.len()) {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= batch.len() {
                        return;
                    }
                    let _ = results[i].set(self.eval(&batch[i]));
                });
            }
        });
        results
            .into_iter()
            .map(|slot| slot.into_inner().expect("every index evaluated"))
            .collect()
    }

    /// Records one per-size sweep cut short by the monotonicity ceiling.
    pub(crate) fn note_short_circuit(&self) {
        if let Some(t) = &self.telemetry {
            t.short_circuits.inc();
        }
    }

    /// Snapshot of the run's statistics.
    pub(crate) fn stats(&self) -> ExplorationStats {
        self.stats.snapshot()
    }

    /// Drains the recorded evaluation failures, sorted by distribution so
    /// the report is deterministic across thread counts.
    pub(crate) fn take_failures(&self) -> Vec<EvaluationFailure> {
        let mut v = std::mem::take(&mut *self.failures.lock().unwrap());
        v.sort_by(|a, b| a.distribution.as_slice().cmp(b.distribution.as_slice()));
        v
    }
}

/// Clips a front to the requested throughput window and thins it to one
/// point per quantization level (smallest size wins) — the shared
/// options-semantics tail of every driver. Returns the input unchanged
/// when no window or quantum is set.
pub(crate) fn clip_front(
    pareto: ParetoSet,
    options: &ExploreOptions,
    thr_max_graph: Rational,
) -> ParetoSet {
    if options.min_throughput.is_none()
        && options.max_throughput.is_none()
        && options.quantum.is_none()
    {
        return pareto;
    }
    let min_t = options.min_throughput.unwrap_or(Rational::ZERO);
    let max_t = options.max_throughput.unwrap_or(thr_max_graph);
    let mut thinned = ParetoSet::new();
    let mut last_level: Option<Rational> = None;
    for p in pareto.points() {
        if p.throughput < min_t || p.throughput > max_t {
            continue;
        }
        if let Some(quantum) = options.quantum {
            let level = p.throughput.quantize_down(quantum);
            if last_level == Some(level) {
                continue;
            }
            last_level = Some(level);
        }
        thinned.insert(p.clone());
    }
    thinned
}
