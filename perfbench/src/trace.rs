//! Benchmark-side tracing: an [`ExploreObserver`] that turns a driver's
//! event stream into spans and counts on the benchmark's clock, a timing
//! wrapper for observers the workload attaches, and [`OpTrace`], the
//! per-operation record that a traced pass aggregates.
//!
//! Nothing here is compiled into the program: the spans sit at the
//! boundaries the public API exposes (driver calls, observer callbacks).

use buffy_core::{ExploreObserver, ParetoPoint, PruneKind, SearchPhase};
use buffy_graph::{Rational, StorageDistribution};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

/// One span: a named interval, relative to its operation's start, with
/// the index of the span that contains it.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name (`op`, `phase.<name>`, `engine`).
    pub name: String,
    /// Start, nanoseconds after the operation started.
    pub start: u64,
    /// End, nanoseconds after the operation started.
    pub end: u64,
    /// Index of the parent span within the same operation.
    pub parent: Option<usize>,
}

/// Everything one traced operation (a driver call or a query) reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpTrace {
    /// Graph the operation ran on.
    pub graph: String,
    /// Wall time of the operation.
    pub ns: u64,
    /// Engine runs started (memo misses).
    pub evals: u64,
    /// Engine runs that panicked.
    pub failures: u64,
    /// Requests answered from the memo.
    pub cache_hits: u64,
    /// Candidates skipped by a static certificate.
    pub static_prunes: u64,
    /// Candidates skipped by a dominance record.
    pub dominance_prunes: u64,
    /// Largest reduced state space of one engine run.
    pub states_max: u64,
    /// Reduced states stored over all engine runs.
    pub states_sum: u64,
    /// Time between `evaluation_started` and `evaluation_finished`,
    /// summed over workers.
    pub busy_ns: u64,
    /// The part of the operation during which at least one worker ran
    /// the engine.
    pub busy_union_ns: u64,
    /// Analyses whose arena was pre-sized from a neighbour.
    pub warm_starts: u64,
    /// Distinct distributions statically pruned or evaluated outside the
    /// bounds phase: the ones the prune oracle may have asked a
    /// certificate for.
    pub candidates: u64,
    /// Points accepted into the front under construction.
    pub accepted: u64,
    /// Events delivered to the live observer.
    pub live_events: u64,
    /// Time spent inside the live observer's callbacks.
    pub live_fanout_ns: u64,
    /// Dependency replays the guided driver performs: one per frontier
    /// candidate that is evaluated, answered from the memo or proved
    /// deadlocked, below the graph's maximal throughput and before the
    /// front reaches it. None for the other drivers.
    pub replays: u64,
    /// Benchmark-timed `lower_`/`upper_bound_distribution` calls.
    pub bounds_ns: u64,
    /// Benchmark-timed `StaticBounds::new`.
    pub build_ns: u64,
    /// Median benchmark-timed `StaticBounds::certificate` call.
    pub cert_ns: u64,
    /// Mean of the same calls: the per-candidate cost the estimate uses.
    pub cert_mean_ns: u64,
    /// Median benchmark-timed `dependencies_from_run_for` call.
    pub replay_ns: u64,
    /// Mean of the same calls: the per-replay cost the estimate uses.
    pub replay_mean_ns: u64,
    /// Mean benchmark-timed `ParetoSet::insert` of the accepted points.
    pub insert_ns: u64,
    /// Per-phase wall time from the installed recorder.
    pub phases: Vec<(String, u64)>,
    /// The operation's spans.
    pub spans: Vec<Span>,
}

/// Collects one operation's events. Shared by every worker thread of the
/// driver, hence the mutex; its cost is part of the tracing overhead.
#[derive(Debug)]
pub struct BenchObserver {
    origin: Instant,
    state: Mutex<ObserverState>,
}

#[derive(Debug, Default)]
struct ObserverState {
    phase: Option<usize>,
    running: HashMap<ThreadId, u64>,
    trace: OpTrace,
    candidates: HashSet<StorageDistribution>,
    /// The distinct candidates in event order (certificate samples are
    /// drawn from these).
    candidate_list: Vec<StorageDistribution>,
    /// Throughput of every evaluated distribution, for the memo hits.
    throughputs: HashMap<StorageDistribution, Rational>,
    /// The graph's maximal throughput: the largest one the bounds phase
    /// evaluated (its upper-bound distribution reaches it).
    thr_max: Rational,
    /// The largest throughput the guided search has met so far.
    best: Rational,
    /// Candidates the guided driver replays, in event order, each with
    /// whether it was proved deadlocked (replay samples are drawn from
    /// these).
    replayed: Vec<(StorageDistribution, bool)>,
    accepted: Vec<ParetoPoint>,
}

impl BenchObserver {
    /// An observer whose clock starts now, with the operation's root span
    /// open.
    pub fn start() -> BenchObserver {
        let mut state = ObserverState::default();
        state.trace.spans.push(Span {
            name: "op".into(),
            start: 0,
            end: 0,
            parent: None,
        });
        BenchObserver {
            origin: Instant::now(),
            state: Mutex::new(state),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn with<R>(&self, f: impl FnOnce(&mut ObserverState, u64) -> R) -> R {
        let now = self.now();
        let mut s = self.state.lock().expect("observer lock poisoned");
        f(&mut s, now)
    }

    /// Closes the root span and any open phase; returns the trace with the
    /// samples the estimate probes draw from.
    pub fn finish(self) -> (OpTrace, Samples) {
        let now = self.now();
        let mut s = self.state.into_inner().expect("observer lock poisoned");
        if let Some(p) = s.phase.take() {
            s.trace.spans[p].end = now;
        }
        s.trace.spans[0].end = now;
        s.trace.ns = now;
        s.trace.candidates = s.candidates.len() as u64;
        s.trace.accepted = s.accepted.len() as u64;
        s.trace.busy_union_ns = union_ns(&s.trace.spans, "engine");
        s.trace.replays = s.replayed.len() as u64;
        let samples = Samples {
            candidates: s.candidate_list,
            replayed: s.replayed,
            accepted: s.accepted,
        };
        (s.trace, samples)
    }

    fn candidate(s: &mut ObserverState, dist: &StorageDistribution) {
        if s.candidates.insert(dist.clone()) {
            s.candidate_list.push(dist.clone());
        }
    }
}

impl ObserverState {
    fn in_phase(&self, name: &str) -> bool {
        self.phase
            .is_some_and(|p| self.trace.spans[p].name.strip_prefix("phase.") == Some(name))
    }

    /// Follows the guided driver's loop (`core::dependency`) for one
    /// frontier candidate whose throughput is known: it is replayed unless
    /// it reaches the maximal throughput, and it raises the best.
    fn guided_candidate(&mut self, dist: &StorageDistribution, thr: Rational) {
        if !self.in_phase(SearchPhase::GuidedSearch.name()) {
            return;
        }
        if thr < self.thr_max {
            self.replayed.push((dist.clone(), false));
        }
        self.best = self.best.max(thr);
    }
}

/// What an operation's estimate probes draw from, in event order.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    /// Distinct distributions the prune oracle may have certified.
    pub candidates: Vec<StorageDistribution>,
    /// Distributions the guided driver replays, each with whether it was
    /// proved deadlocked.
    pub replayed: Vec<(StorageDistribution, bool)>,
    /// Points accepted into the front under construction.
    pub accepted: Vec<ParetoPoint>,
}

/// Total length of the union of the spans named `name`.
fn union_ns(spans: &[Span], name: &str) -> u64 {
    let mut iv: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.start, s.end))
        .collect();
    iv.sort_unstable();
    let (mut total, mut cur): (u64, Option<(u64, u64)>) = (0, None);
    for (a, b) in iv {
        cur = match cur {
            Some((s, e)) if a <= e => Some((s, e.max(b))),
            Some((s, e)) => {
                total += e - s;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

impl ExploreObserver for BenchObserver {
    fn phase_started(&self, phase: SearchPhase) {
        self.with(|s, now| {
            if let Some(p) = s.phase {
                s.trace.spans[p].end = now;
            }
            s.trace.spans.push(Span {
                name: format!("phase.{}", phase.name()),
                start: now,
                end: now,
                parent: Some(0),
            });
            s.phase = Some(s.trace.spans.len() - 1);
        });
    }

    fn evaluation_started(&self, _dist: &StorageDistribution) {
        let id = std::thread::current().id();
        self.with(|s, now| {
            s.running.insert(id, now);
        });
    }

    fn evaluation_finished(
        &self,
        dist: &StorageDistribution,
        throughput: Rational,
        states: u64,
        _nanos: u64,
    ) {
        let id = std::thread::current().id();
        self.with(|s, now| {
            let start = s.running.remove(&id).unwrap_or(now);
            s.trace.spans.push(Span {
                name: "engine".into(),
                start,
                end: now,
                parent: Some(s.phase.unwrap_or(0)),
            });
            s.trace.evals += 1;
            s.trace.busy_ns += now - start;
            s.trace.states_max = s.trace.states_max.max(states);
            s.trace.states_sum += states;
            s.throughputs.insert(dist.clone(), throughput);
            // Bound probes never consult the prune oracle.
            if s.in_phase(SearchPhase::Bounds.name()) {
                s.thr_max = s.thr_max.max(throughput);
            } else {
                BenchObserver::candidate(s, dist);
            }
            s.guided_candidate(dist, throughput);
        });
    }

    fn cache_hit(&self, dist: &StorageDistribution) {
        self.with(|s, _| {
            s.trace.cache_hits += 1;
            if let Some(&thr) = s.throughputs.get(dist) {
                s.guided_candidate(dist, thr);
            }
        });
    }

    fn evaluation_failed(&self, _dist: &StorageDistribution, _message: &str) {
        self.with(|s, _| s.trace.failures += 1);
    }

    fn pareto_accepted(&self, point: &ParetoPoint) {
        self.with(|s, _| s.accepted.push(point.clone()));
    }

    fn distribution_pruned(&self, dist: &StorageDistribution, kind: PruneKind) {
        self.with(|s, _| {
            match kind {
                PruneKind::Static => {
                    s.trace.static_prunes += 1;
                    BenchObserver::candidate(s, dist);
                }
                PruneKind::Dominance => s.trace.dominance_prunes += 1,
            }
            // In the guided search a prune is either the drain once the
            // front has reached the maximal throughput (no replay) or a
            // proved deadlock, whose children come from a deadlock replay.
            let draining = !s.best.is_zero() && s.best >= s.thr_max;
            if s.in_phase(SearchPhase::GuidedSearch.name()) && !draining {
                s.replayed.push((dist.clone(), true));
            }
        });
    }
}

/// Forwards every event to `inner`, counting the events and the time
/// spent inside `inner`'s callbacks.
pub struct Timed<'a> {
    inner: &'a dyn ExploreObserver,
    events: AtomicU64,
    nanos: AtomicU64,
}

impl<'a> Timed<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a dyn ExploreObserver) -> Timed<'a> {
        Timed {
            inner,
            events: AtomicU64::new(0),
            nanos: AtomicU64::new(0),
        }
    }

    /// Events forwarded and nanoseconds spent forwarding them.
    pub fn totals(&self) -> (u64, u64) {
        (
            self.events.load(Ordering::Relaxed),
            self.nanos.load(Ordering::Relaxed),
        )
    }

    fn time(&self, f: impl FnOnce()) {
        let t = Instant::now();
        f();
        self.nanos
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.events.fetch_add(1, Ordering::Relaxed);
    }
}

impl ExploreObserver for Timed<'_> {
    fn phase_started(&self, phase: SearchPhase) {
        self.time(|| self.inner.phase_started(phase));
    }
    fn evaluation_started(&self, dist: &StorageDistribution) {
        self.time(|| self.inner.evaluation_started(dist));
    }
    fn evaluation_finished(&self, d: &StorageDistribution, t: Rational, states: u64, ns: u64) {
        self.time(|| self.inner.evaluation_finished(d, t, states, ns));
    }
    fn cache_hit(&self, dist: &StorageDistribution) {
        self.time(|| self.inner.cache_hit(dist));
    }
    fn evaluation_failed(&self, dist: &StorageDistribution, message: &str) {
        self.time(|| self.inner.evaluation_failed(dist, message));
    }
    fn pareto_accepted(&self, point: &ParetoPoint) {
        self.time(|| self.inner.pareto_accepted(point));
    }
    fn distribution_pruned(&self, dist: &StorageDistribution, kind: PruneKind) {
        self.time(|| self.inner.distribution_pruned(dist, kind));
    }
}

impl OpTrace {
    /// One-line text form, for the query worker's pipe: `key=value`
    /// fields, then the phases and spans.
    pub fn encode(&self) -> String {
        let mut out = format!(
            "graph={} ns={} evals={} failures={} cache_hits={} static_prunes={} \
             dominance_prunes={} states_max={} states_sum={} busy_ns={} busy_union_ns={} \
             warm_starts={} candidates={} accepted={} live_events={} live_fanout_ns={} \
             replays={} bounds_ns={} build_ns={} cert_ns={} cert_mean_ns={} replay_ns={} \
             replay_mean_ns={} insert_ns={}",
            self.graph,
            self.ns,
            self.evals,
            self.failures,
            self.cache_hits,
            self.static_prunes,
            self.dominance_prunes,
            self.states_max,
            self.states_sum,
            self.busy_ns,
            self.busy_union_ns,
            self.warm_starts,
            self.candidates,
            self.accepted,
            self.live_events,
            self.live_fanout_ns,
            self.replays,
            self.bounds_ns,
            self.build_ns,
            self.cert_ns,
            self.cert_mean_ns,
            self.replay_ns,
            self.replay_mean_ns,
            self.insert_ns,
        );
        for (name, ns) in &self.phases {
            out.push_str(&format!(" phase:{name}={ns}"));
        }
        for s in &self.spans {
            let parent = s.parent.map_or(-1, |p| p as i64);
            out.push_str(&format!(
                " span:{}={},{},{}",
                s.name, s.start, s.end, parent
            ));
        }
        out
    }

    /// Parses [`OpTrace::encode`]'s output.
    pub fn decode(line: &str) -> Result<OpTrace, String> {
        let mut t = OpTrace::default();
        for field in line.split_whitespace() {
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| format!("bad trace field {field:?}"))?;
            let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{key}: {e}"));
            if let Some(name) = key.strip_prefix("phase:") {
                t.phases.push((name.to_string(), num(value)?));
                continue;
            }
            if let Some(name) = key.strip_prefix("span:") {
                let parts: Vec<&str> = value.split(',').collect();
                let [start, end, parent] = parts[..] else {
                    return Err(format!("bad span {field:?}"));
                };
                let parent: i64 = parent.parse().map_err(|e| format!("{key}: {e}"))?;
                t.spans.push(Span {
                    name: name.to_string(),
                    start: num(start)?,
                    end: num(end)?,
                    parent: usize::try_from(parent).ok(),
                });
                continue;
            }
            let slot = match key {
                "graph" => {
                    t.graph = value.to_string();
                    continue;
                }
                "ns" => &mut t.ns,
                "evals" => &mut t.evals,
                "failures" => &mut t.failures,
                "cache_hits" => &mut t.cache_hits,
                "static_prunes" => &mut t.static_prunes,
                "dominance_prunes" => &mut t.dominance_prunes,
                "states_max" => &mut t.states_max,
                "states_sum" => &mut t.states_sum,
                "busy_ns" => &mut t.busy_ns,
                "busy_union_ns" => &mut t.busy_union_ns,
                "warm_starts" => &mut t.warm_starts,
                "candidates" => &mut t.candidates,
                "accepted" => &mut t.accepted,
                "live_events" => &mut t.live_events,
                "live_fanout_ns" => &mut t.live_fanout_ns,
                "replays" => &mut t.replays,
                "bounds_ns" => &mut t.bounds_ns,
                "build_ns" => &mut t.build_ns,
                "cert_ns" => &mut t.cert_ns,
                "cert_mean_ns" => &mut t.cert_mean_ns,
                "replay_ns" => &mut t.replay_ns,
                "replay_mean_ns" => &mut t.replay_mean_ns,
                "insert_ns" => &mut t.insert_ns,
                _ => return Err(format!("unknown trace field {key:?}")),
            };
            *slot = num(value)?;
        }
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlapping_spans() {
        let span = |start, end| Span {
            name: "engine".into(),
            start,
            end,
            parent: None,
        };
        assert_eq!(
            union_ns(&[span(0, 10), span(5, 20), span(30, 35)], "engine"),
            25
        );
        assert_eq!(union_ns(&[], "engine"), 0);
    }

    #[test]
    fn guided_replays_follow_the_driver_loop() {
        let d = |c: u64| StorageDistribution::from_capacities(vec![c, 1]);
        let half = Rational::new(1, 2);
        let o = BenchObserver::start();
        o.phase_started(SearchPhase::Bounds);
        o.evaluation_finished(&d(9), half, 1, 0);
        o.phase_started(SearchPhase::GuidedSearch);
        o.evaluation_finished(&d(1), Rational::ZERO, 1, 0); // deadlocked: replayed
        o.distribution_pruned(&d(2), PruneKind::Static); // proved deadlocked: replayed
        o.evaluation_finished(&d(3), Rational::new(1, 4), 1, 0); // replayed
        o.cache_hit(&d(1)); // memo hit below the maximum: replayed
        o.evaluation_finished(&d(4), half, 1, 0); // reaches the maximum: not replayed
        o.distribution_pruned(&d(5), PruneKind::Dominance); // drained: not replayed
        let (t, samples) = o.finish();
        assert_eq!(t.replays, 4);
        let deadlocks: Vec<bool> = samples.replayed.iter().map(|r| r.1).collect();
        assert_eq!(deadlocks, [false, true, false, false]);
    }

    #[test]
    fn op_trace_round_trips_through_its_text_form() {
        let t = OpTrace {
            graph: "cd2dat".into(),
            ns: 12,
            evals: 3,
            insert_ns: 7,
            phases: vec![("front-search".into(), 9)],
            spans: vec![
                Span {
                    name: "op".into(),
                    start: 0,
                    end: 12,
                    parent: None,
                },
                Span {
                    name: "phase.bounds".into(),
                    start: 1,
                    end: 4,
                    parent: Some(0),
                },
            ],
            ..OpTrace::default()
        };
        assert_eq!(OpTrace::decode(&t.encode()), Ok(t));
    }
}
