//! The exploration runtime: concurrency plumbing and observability for
//! the design-space drivers.
//!
//! The paper's exact method runs one timed state-space analysis per
//! candidate storage distribution, and those analyses are embarrassingly
//! parallel (§10). This module holds everything the drivers share to
//! exploit that without serializing on a single lock:
//!
//! - [`AtomicStats`]: contention-free evaluation counters, snapshotted
//!   into the [`ExplorationStats`] every driver reports;
//! - [`ExploreObserver`]: a structured event stream (evaluations,
//!   accepted Pareto points, search-phase transitions) that the CLI
//!   renders as progress or JSON-lines traces;
//! - [`resolve_threads`]: `threads: 0` → the machine's available
//!   parallelism.

use crate::pareto::ParetoPoint;
use buffy_analysis::CancelReason;
use buffy_graph::{Rational, StorageDistribution};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Batch size for chunked candidate evaluation.
///
/// Both the sequential and the parallel evaluation paths consume the
/// per-size enumeration in chunks of exactly this many distributions,
/// checking the early-exit condition only at chunk boundaries. The chunk
/// size being independent of the thread count is what makes the set of
/// evaluated distributions — and with it every statistic in
/// [`ExplorationStats`] — identical across thread counts.
pub(crate) const EVAL_CHUNK: usize = 32;

/// Unified statistics of one exploration run.
///
/// Every driver — the exhaustive and guided explorers, the CSDF wrappers
/// and the constraint search — reports this struct, and the bench and CLI
/// surfaces render it.
///
/// Equality ignores `eval_nanos`: wall time varies run to run. The
/// remaining counters are deterministic — identical across thread counts
/// by construction (fixed-size evaluation chunks), which the regression
/// tests assert with `==`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExplorationStats {
    /// Throughput analyses run (checkpoint replays included).
    pub evaluations: u64,
    /// Largest reduced state space stored in any single analysis (the
    /// paper's "maximum #states" of Table 2).
    pub max_states: u64,
    /// Total wall time spent inside throughput analyses, in nanoseconds
    /// (summed over workers, so it can exceed elapsed time when
    /// parallel). Ignored by `==`.
    pub eval_nanos: u64,
    /// Evaluations that panicked and were degraded to a recorded failure
    /// instead of aborting the run.
    pub failures: u64,
    /// Guided-frontier candidates skipped without analysis because the
    /// front had already reached the graph's maximal throughput, which
    /// dominates them (monotonicity, paper §9).
    pub dominance_prunes: u64,
    /// Retained for API compatibility: analyses no longer warm-start from
    /// a neighbouring distribution, so this always reads 0.
    pub warm_starts: u64,
}

impl PartialEq for ExplorationStats {
    /// Compares the deterministic counters only; `eval_nanos` (wall time)
    /// is excluded.
    fn eq(&self, other: &Self) -> bool {
        self.evaluations == other.evaluations
            && self.max_states == other.max_states
            && self.failures == other.failures
            && self.dominance_prunes == other.dominance_prunes
    }
}

impl Eq for ExplorationStats {}

impl fmt::Display for ExplorationStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} evaluations, max {} states",
            self.evaluations, self.max_states
        )?;
        if self.failures > 0 {
            write!(f, ", {} failed", self.failures)?;
        }
        if self.dominance_prunes > 0 {
            write!(f, ", {} pruned by dominance", self.dominance_prunes)?;
        }
        Ok(())
    }
}

/// Lock-free accumulator behind [`ExplorationStats`]: every counter is an
/// atomic, so workers never serialize on statistics bookkeeping.
#[derive(Debug, Default)]
pub(crate) struct AtomicStats {
    evaluations: AtomicU64,
    max_states: AtomicU64,
    eval_nanos: AtomicU64,
    failures: AtomicU64,
    dominance_prunes: AtomicU64,
}

impl AtomicStats {
    pub(crate) fn new() -> AtomicStats {
        AtomicStats::default()
    }

    /// Records one completed throughput analysis.
    pub(crate) fn record_evaluation(&self, states: u64, nanos: u64) {
        self.evaluations.fetch_add(1, Ordering::Relaxed);
        self.max_states.fetch_max(states, Ordering::Relaxed);
        self.eval_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Records one degraded (panicked) evaluation.
    pub(crate) fn record_failure(&self) {
        self.failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one candidate skipped without analysis.
    pub(crate) fn record_dominance_prune(&self) {
        self.dominance_prunes.fetch_add(1, Ordering::Relaxed);
    }

    /// A consistent snapshot (callers take it after all workers joined).
    pub(crate) fn snapshot(&self) -> ExplorationStats {
        ExplorationStats {
            evaluations: self.evaluations.load(Ordering::Relaxed),
            max_states: self.max_states.load(Ordering::Relaxed),
            eval_nanos: self.eval_nanos.load(Ordering::Relaxed),
            failures: self.failures.load(Ordering::Relaxed),
            dominance_prunes: self.dominance_prunes.load(Ordering::Relaxed),
            warm_starts: 0,
        }
    }
}

/// Why a driver skipped a candidate distribution without running its
/// state-space analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PruneKind {
    /// Retained for API compatibility: no driver consults a static
    /// certificate any more, so this kind is never reported.
    Static,
    /// An already accepted point dominates the candidate (throughput
    /// monotonicity): the guided search drains its frontier this way once
    /// the front reaches the graph's maximal throughput.
    Dominance,
}

impl PruneKind {
    /// Stable machine-readable name (used in JSON traces).
    pub fn name(&self) -> &'static str {
        match self {
            PruneKind::Static => "static-bound",
            PruneKind::Dominance => "dominance",
        }
    }
}

impl fmt::Display for PruneKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How complete a search result is: exact, or truncated by cancellation.
///
/// Every driver result carries one of these. An `exact` result is what an
/// unbudgeted, uninterrupted run produces. A truncated result is still
/// *sound* — every reported Pareto point is achievable — but may miss
/// points the full search would have found; those are accounted for by the
/// skipped-size annotations and `distributions_skipped`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completeness {
    /// `true` when the search ran to completion.
    pub exact: bool,
    /// Why the search stopped early, when it did.
    pub truncated_by: Option<CancelReason>,
    /// Number of enumerated candidate distributions whose evaluation was
    /// skipped (saturating; capped counting keeps huge spaces cheap).
    pub distributions_skipped: u64,
}

impl Completeness {
    /// The marker of a run that completed normally.
    pub fn exact() -> Completeness {
        Completeness {
            exact: true,
            truncated_by: None,
            distributions_skipped: 0,
        }
    }

    /// The marker of a run truncated by `reason` with `skipped` candidate
    /// distributions left unevaluated.
    pub fn truncated(reason: CancelReason, skipped: u64) -> Completeness {
        Completeness {
            exact: false,
            truncated_by: Some(reason),
            distributions_skipped: skipped,
        }
    }
}

impl fmt::Display for Completeness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.truncated_by {
            None => f.write_str("exact"),
            Some(reason) => write!(
                f,
                "partial (truncated by {}, {} distributions skipped)",
                reason.name(),
                self.distributions_skipped
            ),
        }
    }
}

/// A distribution size the truncated search never settled, annotated with
/// a *sound* conservative throughput bound: the bounds phase's maximal
/// achievable throughput of the graph (paper §8), which no storage
/// distribution of any size can exceed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SkippedSize {
    /// The total distribution size (sum of channel capacities).
    pub size: u64,
    /// Number of candidate distributions of this size (saturating; counted
    /// with a cap so huge spaces stay cheap to annotate).
    pub distributions: u64,
    /// Conservative upper bound on the maximal throughput achievable at
    /// this size.
    pub throughput_bound: Rational,
}

/// One evaluation that panicked and was degraded instead of aborting the
/// run: the distribution is recorded as yielding zero throughput and the
/// search continues deterministically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvaluationFailure {
    /// The distribution whose analysis panicked.
    pub distribution: StorageDistribution,
    /// The panic payload, when it was a string.
    pub message: String,
}

/// The phase a search driver is in; reported through
/// [`ExploreObserver::phase_started`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchPhase {
    /// Boxing the design space: bounds on size and throughput (paper §8).
    Bounds,
    /// Binary search for the smallest positive-throughput size.
    MinimalSize,
    /// Divide-and-conquer over the size dimension (paper §9).
    FrontSearch,
    /// Binary search for minimal storage under a throughput constraint.
    ConstraintSearch,
    /// Dependency-guided frontier search.
    GuidedSearch,
}

impl SearchPhase {
    /// Stable machine-readable name (used in JSON traces).
    pub fn name(&self) -> &'static str {
        match self {
            SearchPhase::Bounds => "bounds",
            SearchPhase::MinimalSize => "minimal-size",
            SearchPhase::FrontSearch => "front-search",
            SearchPhase::ConstraintSearch => "constraint-search",
            SearchPhase::GuidedSearch => "guided-search",
        }
    }
}

impl fmt::Display for SearchPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Structured observation of an exploration run.
///
/// All methods default to no-ops, so observers implement only what they
/// care about. Implementations must be `Sync`: with multi-threaded
/// evaluation, events arrive concurrently from worker threads. Event
/// *order* between workers is nondeterministic; the statistics totals are
/// not.
pub trait ExploreObserver: Sync {
    /// A search driver entered `phase`.
    fn phase_started(&self, phase: SearchPhase) {
        let _ = phase;
    }

    /// A throughput analysis of `dist` is about to run.
    fn evaluation_started(&self, dist: &StorageDistribution) {
        let _ = dist;
    }

    /// A throughput analysis finished: `dist` has `throughput`, storing
    /// `states` reduced states, in `nanos` wall time.
    fn evaluation_finished(
        &self,
        dist: &StorageDistribution,
        throughput: Rational,
        states: u64,
        nanos: u64,
    ) {
        let _ = (dist, throughput, states, nanos);
    }

    /// Retained for API compatibility: evaluations are no longer
    /// memoized, so no driver reports a cache hit.
    fn cache_hit(&self, dist: &StorageDistribution) {
        let _ = dist;
    }

    /// A throughput analysis of `dist` panicked and was degraded to a
    /// recorded failure (the run continues).
    fn evaluation_failed(&self, dist: &StorageDistribution, message: &str) {
        let _ = (dist, message);
    }

    /// `point` was accepted into the Pareto front under construction
    /// (it may later be evicted by a dominating point).
    fn pareto_accepted(&self, point: &ParetoPoint) {
        let _ = point;
    }

    /// A driver skipped `dist` without running its analysis.
    fn distribution_pruned(&self, dist: &StorageDistribution, kind: PruneKind) {
        let _ = (dist, kind);
    }
}

/// The do-nothing observer: the default for all non-`_observed` entry
/// points.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl ExploreObserver for NoopObserver {}

/// Resolves a thread-count option: `0` means "auto-detect", returning the
/// machine's [`std::thread::available_parallelism`] (1 if unknown); any
/// other value is returned unchanged.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_equality_ignores_wall_time() {
        let a = ExplorationStats {
            evaluations: 10,
            max_states: 42,
            eval_nanos: 1_000,
            ..ExplorationStats::default()
        };
        let b = ExplorationStats {
            eval_nanos: 999_999,
            ..a
        };
        assert_eq!(a, b);
        let c = ExplorationStats {
            evaluations: 11,
            ..a
        };
        assert_ne!(a, c);
        let d = ExplorationStats { failures: 1, ..a };
        assert_ne!(a, d);
        let f = ExplorationStats {
            dominance_prunes: 2,
            ..a
        };
        assert_ne!(a, f);
    }

    #[test]
    fn atomic_stats_accumulate_across_threads() {
        let stats = AtomicStats::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let stats = &stats;
                scope.spawn(move || {
                    for i in 0..100 {
                        stats.record_evaluation(i, 10);
                    }
                });
            }
        });
        let s = stats.snapshot();
        assert_eq!(s.evaluations, 400);
        assert_eq!(s.max_states, 99);
        assert_eq!(s.eval_nanos, 4_000);
        assert_eq!(s.warm_starts, 0);
    }

    #[test]
    fn resolve_threads_auto_detects() {
        assert_eq!(resolve_threads(3), 3);
        assert!(resolve_threads(0) >= 1);
    }

    #[test]
    fn completeness_markers_render() {
        let exact = Completeness::exact();
        assert!(exact.exact);
        assert_eq!(exact.to_string(), "exact");
        let partial = Completeness::truncated(CancelReason::Deadline, 12);
        assert!(!partial.exact);
        assert_eq!(partial.truncated_by, Some(CancelReason::Deadline));
        assert_eq!(
            partial.to_string(),
            "partial (truncated by deadline, 12 distributions skipped)"
        );
    }

    #[test]
    fn prune_kinds_are_recorded_and_named() {
        assert_eq!(PruneKind::Static.name(), "static-bound");
        assert_eq!(PruneKind::Dominance.to_string(), "dominance");
        let stats = AtomicStats::new();
        stats.record_dominance_prune();
        let s = stats.snapshot();
        assert_eq!(s.dominance_prunes, 1);
        assert!(s.to_string().contains("1 pruned by dominance"), "{s}");
    }

    #[test]
    fn phase_names_are_stable() {
        for (phase, name) in [
            (SearchPhase::Bounds, "bounds"),
            (SearchPhase::MinimalSize, "minimal-size"),
            (SearchPhase::FrontSearch, "front-search"),
            (SearchPhase::ConstraintSearch, "constraint-search"),
            (SearchPhase::GuidedSearch, "guided-search"),
        ] {
            assert_eq!(phase.name(), name);
            assert_eq!(phase.to_string(), name);
        }
    }
}
