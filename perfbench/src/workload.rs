//! The two workloads: what one pass runs, how it is checked, and the
//! run loop that times passes for the requested number of seconds.

use crate::golden::{self, Goldens};
use crate::inputs::{self, Loaded, Source};
use crate::ops::{self, Driver, OpConfig};
use crate::stats;
use crate::trace::OpTrace;
use crate::worker::{Answer, Worker};
use buffy_graph::Rational;
use std::path::Path;
use std::time::{Duration, Instant};

/// Set-up repetitions in one burst. A burst runs at the start of a run and
/// after every pass and keeps the fastest of its repetitions; `setup_s` is
/// the fastest burst. The minimum drops the repetitions a busy host
/// slowed, and spreading the bursts over the run gives this
/// sub-millisecond time many chances to meet the host undisturbed.
const SETUP_REPS: usize = 100;

/// Timed passes per run at least, whatever `--seconds` says.
const MIN_PASSES: usize = 3;

/// A constraint query's deadline, about three times the slowest query
/// that answers. A query that has not answered by then counts as failed
/// and is charged this time.
pub const QUERY_DEADLINE: Duration = Duration::from_millis(1000);

/// How long past the deadline the parent waits before killing the
/// child: the query's own cancel token fires at the deadline, so a query
/// that honours it answers (partially) within this grace.
const KILL_GRACE: Duration = Duration::from_millis(250);

/// Deadline of one in-process driver call, about five times the slowest
/// one (the generated graph's guided front, ~4 s). A call past it counts
/// as failed, and the run still ends within its time limit.
const DRIVER_DEADLINE: Duration = Duration::from_secs(20);

/// Constraint queries per pass, per graph. Targets are stratified: a
/// graph with `k` queries gets one target drawn uniformly from each of
/// the `k` equal slices of `(0, max]`, so each pass covers the whole
/// range. Two regions are hard today: satellite above 1/23 (its
/// lower-bound distribution's throughput; slices 21–23 of 23) and the
/// generated graph above 1/10 (slices 8–10 of 10). The slice counts put
/// those boundaries on slice edges, so every pass holds exactly six hard
/// queries out of 89. cd2dat gets the most slices because its query
/// latency varies most along its range (2–300 ms): fine slices keep the
/// tail of the latency distribution the same from seed to seed.
pub const MIX: [(&str, u64); 4] = [("modem", 8), ("cd2dat", 48), ("satellite", 23), ("gen", 10)];

/// The driver calls of one `fronts` pass, in order: the exhaustive sweep
/// on modem, cd2dat and the CSDF refinement, then the guided search on
/// satellite, cd2dat and the generated graph. The two groups share one
/// workload because the host's slow spells move both alike: as separate
/// workloads they doubled the ten-run sets a slow spell could spoil.
const FRONT_OPS: [(&str, Driver); 6] = [
    ("modem", Driver::Exhaustive),
    ("cd2dat", Driver::Exhaustive),
    ("csdf", Driver::Exhaustive),
    ("satellite", Driver::Guided),
    ("cd2dat", Driver::Guided),
    ("gen", Driver::Guided),
];

/// A workload's fixed description.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Exhaustive and guided fronts, one thread, the live stack attached to
    /// the guided calls (see [`FRONT_OPS`]).
    Fronts,
    /// Constraint queries, one thread, in a child process.
    Constraint,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Result<Workload, String> {
        match name {
            "fronts" => Ok(Workload::Fronts),
            "constraint" => Ok(Workload::Constraint),
            _ => Err(format!("unknown workload {name:?} (fronts, constraint)")),
        }
    }

    /// The graphs the workload reads.
    pub fn graphs(self) -> Vec<&'static str> {
        match self {
            Workload::Fronts => vec!["modem", "cd2dat", "csdf", "satellite", "gen"],
            Workload::Constraint => MIX.iter().map(|(g, _)| *g).collect(),
        }
    }
}

/// One pass's measurements.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Whether the benchmark's observer was attached.
    pub traced: bool,
    /// Wall time of the pass's operations.
    pub ns: u64,
    /// Latency of each operation. A failed one is charged its deadline,
    /// so that it counts as missing any latency limit.
    pub op_ns: Vec<u64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored, panicked, were partial, missed their
    /// deadline or disagreed with the golden front.
    pub failed: u64,
    /// Queries stopped at the deadline.
    pub stopped: u64,
    /// Wall time of the stopped queries, kill and restart included.
    pub stopped_ns: u64,
    /// Largest peak memory of a child killed at the deadline, kB.
    pub stopped_peak_kb: u64,
    /// Disagreements with the golden fronts (these fail the command).
    pub mismatches: Vec<String>,
    /// Traces of the operations (traced passes only), with each
    /// operation's start within the pass.
    pub traces: Vec<(u64, OpTrace)>,
}

/// Everything a run measured.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Set-up bursts: the fastest total, read and lint time of each.
    pub setup_ns: Vec<(u64, u64, u64)>,
    /// Timed passes in run order (warm-up excluded).
    pub passes: Vec<Pass>,
    /// Peak resident memory of the benchmark process, kB.
    pub self_peak_kb: u64,
    /// Largest peak resident memory of a query worker that answered, kB.
    pub child_peak_kb: u64,
    /// Largest peak resident memory of a query worker killed at the
    /// deadline, kB.
    pub stopped_peak_kb: u64,
    /// Disagreements with the golden fronts, warm-up included.
    pub mismatches: Vec<String>,
}

/// Sets up [`SETUP_REPS`] times, recording the fastest total, read and
/// lint time of the burst in `times`; returns the graphs of the last one.
fn timed_set_ups(
    sources: &[Source],
    times: &mut Vec<(u64, u64, u64)>,
) -> Result<Vec<Loaded>, String> {
    let mut loaded = Vec::new();
    let mut fastest = (u64::MAX, u64::MAX, u64::MAX);
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let (l, read_ns, lint_ns) = set_up(sources)?;
        let total = t.elapsed().as_nanos() as u64;
        fastest = (
            fastest.0.min(total),
            fastest.1.min(read_ns),
            fastest.2.min(lint_ns),
        );
        loaded = l;
    }
    times.push(fastest);
    Ok(loaded)
}

/// Reads and lints every source once; returns the graphs and the read
/// and lint times.
fn set_up(sources: &[Source]) -> Result<(Vec<Loaded>, u64, u64), String> {
    let (mut read_ns, mut lint_ns) = (0, 0);
    let mut loaded = Vec::new();
    for source in sources {
        let t = Instant::now();
        let (model, observed) = inputs::parse(source)?;
        let t2 = Instant::now();
        inputs::preflight(&source.name, &model, observed)?;
        read_ns += (t2 - t).as_nanos() as u64;
        lint_ns += t2.elapsed().as_nanos() as u64;
        loaded.push(Loaded {
            source: source.clone(),
            model,
            observed,
        });
    }
    Ok((loaded, read_ns, lint_ns))
}

/// The seeded constraint targets, in query order: `(graph, target)`.
pub fn constraint_targets(seed: u64, goldens: &Goldens) -> Result<Vec<(String, Rational)>, String> {
    let mut rng = inputs::target_rng(seed);
    let mut targets = Vec::new();
    const GRID: u64 = 1000;
    for (graph, k) in MIX {
        let golden = goldens
            .get(graph)
            .ok_or_else(|| format!("no golden front for {graph}"))?;
        let max = golden.last().ok_or("empty golden front")?.1;
        for i in 0..k {
            let u = rng.range_u64(1, GRID);
            let frac = Rational::new(i128::from(i * GRID + u), i128::from(k * GRID));
            targets.push((graph.to_string(), max * frac));
        }
    }
    for i in (1..targets.len()).rev() {
        targets.swap(i, rng.range_usize(0, i + 1));
    }
    Ok(targets)
}

/// Checks a front-producing operation; returns a mismatch message.
fn check_front(l: &Loaded, goldens: &Goldens, points: &[golden::Point]) -> Option<String> {
    match goldens.get(&l.source.golden) {
        Some(golden) => golden::check_front(&l.source.name, golden, points).err(),
        None => Some(format!("no golden front for {}", l.source.golden)),
    }
}

/// Runs one in-process pass of `ops`. The guided calls get the program's
/// live stack, as `buffy --serve` attaches it.
fn front_pass(
    ops: &[(&str, Driver)],
    loaded: &[Loaded],
    goldens: &Goldens,
    traced: bool,
) -> Result<Pass, String> {
    let mut pass = Pass {
        traced,
        ..Pass::default()
    };
    for &(graph, driver) in ops {
        let l = loaded
            .iter()
            .find(|l| l.source.name == graph)
            .ok_or_else(|| format!("{graph} is not loaded"))?;
        let cfg = OpConfig {
            live: driver == Driver::Guided,
            trace: traced,
            deadline: DRIVER_DEADLINE,
        };
        let mut outcome = ops::run(l, driver, &cfg);
        let start = pass.ns;
        pass.ns += outcome.ns;
        pass.attempted += 1;
        let mismatch = if outcome.error.is_none() {
            check_front(l, goldens, &outcome.points)
        } else {
            None
        };
        if outcome.error.is_some() || !outcome.exact || mismatch.is_some() {
            pass.failed += 1;
            pass.op_ns.push(DRIVER_DEADLINE.as_nanos() as u64);
        } else {
            pass.op_ns.push(outcome.ns);
        }
        pass.mismatches.extend(mismatch);
        ops::probe(l, &mut outcome);
        if let Some(t) = outcome.trace {
            pass.traces.push((start, t));
        }
    }
    Ok(pass)
}

/// Runs one pass of constraint queries through `worker`, replacing it
/// whenever a query is stopped. Returns the pass and the largest peak
/// memory of a child that answered (a stopped child's peak goes to
/// [`Pass::stopped_peak_kb`]: it reflects how far the runaway query got
/// before the kill, not a completed operation).
fn constraint_pass(
    seed: u64,
    worker: &mut Option<Worker>,
    targets: &[(String, Rational)],
    goldens: &Goldens,
    traced: bool,
) -> Result<(Pass, u64), String> {
    let mut pass = Pass {
        traced,
        ..Pass::default()
    };
    let mut child_peak = 0;
    let spawn = || Worker::spawn(seed, traced);
    for (graph, target) in targets {
        let w = match worker {
            Some(w) => w,
            None => worker.insert(spawn()?),
        };
        let start = pass.ns;
        let t = Instant::now();
        let answer = w.query(graph, *target, QUERY_DEADLINE + KILL_GRACE)?;
        pass.attempted += 1;
        let stopped = matches!(answer, Answer::Stopped);
        let (ok, charged) = match answer {
            Answer::Stopped => {
                eprintln!("perfbench: stopped {graph} >= {target} at the deadline");
                let w = worker.take().expect("worker present");
                pass.stopped_peak_kb = pass.stopped_peak_kb.max(w.end(true));
                *worker = Some(spawn()?);
                pass.stopped += 1;
                pass.stopped_ns += t.elapsed().as_nanos() as u64;
                (false, QUERY_DEADLINE.as_nanos() as u64)
            }
            Answer::Error(ns, e) => {
                eprintln!("perfbench: {graph} >= {target}: {e} (after {ns} ns)");
                (false, QUERY_DEADLINE.as_nanos() as u64)
            }
            Answer::Witness(ns, size, thr, exact, caps) => {
                let want = goldens
                    .get(graph.as_str())
                    .and_then(|g| golden::min_size(g, *target));
                let good = want == Some(size) && thr >= *target && caps.iter().sum::<u64>() == size;
                // A partial answer may be larger than the minimum; only an
                // exact one is held to the golden size.
                if exact && !good {
                    pass.mismatches.push(format!(
                        "{graph}: minimal storage for {target} is {want:?}, got {size} ({thr})"
                    ));
                }
                let ok = exact && good;
                let deadline = QUERY_DEADLINE.as_nanos() as u64;
                (ok, if ok { ns } else { deadline })
            }
        };
        pass.ns += t.elapsed().as_nanos() as u64;
        pass.op_ns.push(charged);
        if !ok {
            pass.failed += 1;
        }
        if !stopped {
            let w = worker.as_mut().expect("an answering worker is kept");
            child_peak = child_peak.max(w.peak_rss_kb());
            if let Some(t) = w.trace()? {
                pass.traces.push((start, t));
            }
        }
    }
    Ok((pass, child_peak))
}

/// Runs `workload` on `seed` for `seconds`, alternating untraced and
/// traced passes when `trace` is set.
pub fn run(
    dir: &Path,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
) -> Result<RunResult, String> {
    let sources = workload
        .graphs()
        .iter()
        .map(|g| inputs::source(g, seed))
        .collect::<Result<Vec<_>, _>>()?;
    let goldens = golden::load(dir)?;
    let mut result = RunResult::default();
    let mut setup_ns = Vec::new();
    let loaded = timed_set_ups(&sources, &mut setup_ns)?;

    let targets = match workload {
        Workload::Constraint => constraint_targets(seed, &goldens)?,
        _ => Vec::new(),
    };
    // One query worker per tracing mode: the child's mode is fixed.
    let mut workers = [None, None];
    // The warm-up pass runs only the operations on the workload's first
    // graph: it loads code, starts the query worker and fills allocator
    // pools. It is checked, not timed.
    let first = &sources[0].name;
    let warm_targets: Vec<_> = targets
        .iter()
        .filter(|(g, _)| g == first)
        .cloned()
        .collect();
    let mut one_pass = |traced: bool, warm: bool| -> Result<Pass, String> {
        match workload {
            Workload::Constraint => {
                let slot = &mut workers[usize::from(traced)];
                let targets = if warm { &warm_targets } else { &targets };
                let (pass, peak) = constraint_pass(seed, slot, targets, &goldens, traced)?;
                result.child_peak_kb = result.child_peak_kb.max(peak);
                result.stopped_peak_kb = result.stopped_peak_kb.max(pass.stopped_peak_kb);
                Ok(pass)
            }
            Workload::Fronts => {
                let ops = if warm {
                    &FRONT_OPS[..1]
                } else {
                    &FRONT_OPS[..]
                };
                front_pass(ops, &loaded, &goldens, traced)
            }
        }
    };
    let mut mismatches = one_pass(false, true)?.mismatches;
    timed_set_ups(&sources, &mut setup_ns)?;
    // A pass starts only when a typical one (the median so far, set-up
    // burst included) still ends within `seconds`, so a run lasts about
    // `seconds` whatever the workload's pass length.
    let mut passes = Vec::new();
    let mut rounds = Vec::new();
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let min_passes = MIN_PASSES * if trace { 2 } else { 1 };
    while passes.len() < min_passes
        || start.elapsed() + Duration::from_secs_f64(stats::median(&rounds)) <= budget
    {
        let t = Instant::now();
        let traced = trace && passes.len() % 2 == 1;
        let pass = one_pass(traced, false)?;
        mismatches.extend(pass.mismatches.iter().cloned());
        passes.push(pass);
        timed_set_ups(&sources, &mut setup_ns)?;
        rounds.push(t.elapsed().as_secs_f64());
    }
    for w in &mut workers {
        if let Some(w) = w.take() {
            result.child_peak_kb = result.child_peak_kb.max(w.end(false));
        }
    }
    result.passes = passes;
    result.setup_ns = setup_ns;
    result.self_peak_kb = stats::peak_rss_kb("/proc/self/status");
    result.mismatches = mismatches;
    Ok(result)
}
