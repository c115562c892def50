//! Turns a run into metrics, the layer table and the span file.

use crate::stats::{median, quantile};
use crate::workload::{Pass, RunResult};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Every graph a `driver.<graph>_s` metric is kept for; a guided call is
/// keyed `<graph>-guided`.
const GRAPHS: [&str; 8] = [
    "modem",
    "cd2dat",
    "csdf",
    "satellite",
    "gen",
    "satellite-guided",
    "cd2dat-guided",
    "gen-guided",
];

/// Every search phase a `telemetry.phase.<phase>_s` metric is kept for.
const PHASES: [&str; 5] = [
    "bounds",
    "minimal-size",
    "front-search",
    "constraint-search",
    "guided-search",
];

const S: f64 = 1e9;

fn untraced(run: &RunResult) -> impl Iterator<Item = &Pass> {
    run.passes.iter().filter(|p| !p.traced)
}

fn traced(run: &RunResult) -> impl Iterator<Item = &Pass> {
    run.passes.iter().filter(|p| p.traced)
}

fn median_of<'a>(passes: impl Iterator<Item = &'a Pass>, f: impl Fn(&Pass) -> f64) -> f64 {
    median(&passes.map(f).collect::<Vec<_>>())
}

/// Operations attempted and failed over every timed pass.
pub fn counts(run: &RunResult) -> (u64, u64) {
    run.passes
        .iter()
        .fold((0, 0), |(a, f), p| (a + p.attempted, f + p.failed))
}

/// The lower quartile of each operation's latency over the untraced
/// passes, in ms. A pass holds every operation of the workload once, in
/// the same order, so the figures do not depend on how many passes fitted
/// in the run.
fn op_low_ms(run: &RunResult) -> Vec<f64> {
    let mut ops: Vec<Vec<f64>> = Vec::new();
    for pass in untraced(run) {
        ops.resize(ops.len().max(pass.op_ns.len()), Vec::new());
        for (i, &ns) in pass.op_ns.iter().enumerate() {
            ops[i].push(ns as f64 / 1e6);
        }
    }
    ops.iter().map(|v| quantile(v, 0.25)).collect()
}

/// The end-to-end metrics, from the untraced passes. Times are lower
/// quartiles over the passes, and set-up is the fastest repetition: the
/// host slows this code by up to 1.6x in spells of seconds to minutes, so
/// a median reads how much of the run the slow spells covered, while the
/// lower quartile reads the program nearer the host's undisturbed speed.
/// Unlike the fastest pass, it does not hang on the one call that drew
/// the cheapest certificate edge order (see `NOTES.md`).
pub fn end_to_end(run: &RunResult) -> Vec<Metric> {
    let (attempted, failed) = counts(run);
    let passes: Vec<f64> = untraced(run).map(|p| p.ns as f64 / S).collect();
    let setup = run.setup_ns.iter().map(|s| s.0 as f64 / S);
    let ops = op_low_ms(run);
    vec![
        metric("pass_s", quantile(&passes, 0.25), "s"),
        metric("setup_s", setup.reduce(f64::min).unwrap_or(0.0), "s"),
        metric("query_p50_ms", quantile(&ops, 0.5), "ms"),
        metric("query_p90_ms", quantile(&ops, 0.9), "ms"),
        metric(
            "ok_frac",
            1.0 - failed as f64 / attempted.max(1) as f64,
            "frac",
        ),
        metric(
            "peak_rss_mb",
            (run.self_peak_kb + run.child_peak_kb) as f64 / 1024.0,
            "MB",
        ),
    ]
}

/// One traced pass, summed over its operations.
#[derive(Debug, Default)]
struct Layers {
    ns: f64,
    ops: f64,
    evals: f64,
    failures: f64,
    cache_hits: f64,
    static_prunes: f64,
    dominance_prunes: f64,
    states_max: f64,
    states_sum: f64,
    busy: f64,
    busy_union: f64,
    warm_starts: f64,
    candidates: f64,
    accepted: f64,
    live_events: f64,
    live_fanout: f64,
    replays: f64,
    bounds: f64,
    build: f64,
    cert_est: f64,
    replay_est: f64,
    insert_est: f64,
    stopped: f64,
    stopped_ns: f64,
    driver: BTreeMap<String, f64>,
    phases: BTreeMap<String, f64>,
}

impl Layers {
    fn of(pass: &Pass) -> Layers {
        let mut l = Layers {
            ns: pass.ns as f64,
            stopped: pass.stopped as f64,
            stopped_ns: pass.stopped_ns as f64,
            ..Layers::default()
        };
        for (_, t) in &pass.traces {
            let f = |v: u64| v as f64;
            l.ops += 1.0;
            l.evals += f(t.evals);
            l.failures += f(t.failures);
            l.cache_hits += f(t.cache_hits);
            l.static_prunes += f(t.static_prunes);
            l.dominance_prunes += f(t.dominance_prunes);
            l.states_max = l.states_max.max(f(t.states_max));
            l.states_sum += f(t.states_sum);
            l.busy += f(t.busy_ns);
            l.busy_union += f(t.busy_union_ns);
            l.warm_starts += f(t.warm_starts);
            l.candidates += f(t.candidates);
            l.accepted += f(t.accepted);
            l.live_events += f(t.live_events);
            l.live_fanout += f(t.live_fanout_ns);
            l.replays += f(t.replays);
            l.bounds += f(t.bounds_ns);
            l.build += f(t.build_ns);
            l.cert_est += f(t.cert_mean_ns) * f(t.candidates);
            l.replay_est += f(t.replay_mean_ns) * f(t.replays);
            l.insert_est += f(t.insert_ns) * f(t.accepted);
            *l.driver.entry(t.graph.clone()).or_default() += f(t.ns);
            for (phase, ns) in &t.phases {
                *l.phases.entry(phase.clone()).or_default() += f(*ns);
            }
        }
        l
    }
}

/// Median over the traced passes of `f`.
fn per_pass(layers: &[Layers], f: impl Fn(&Layers) -> f64) -> f64 {
    median(&layers.iter().map(f).collect::<Vec<_>>())
}

/// The layers that share out a traced pass, each with its time and calls
/// (medians over the traced passes). `bounds` is left out: the bound
/// probes run the engine, so that time is already in the engine's.
fn attribution(layers: &[Layers]) -> Vec<(&'static str, f64, f64)> {
    let p = |f: &dyn Fn(&Layers) -> f64| per_pass(layers, f);
    vec![
        (
            "analysis.engine (busy, wall)",
            p(&|l| l.busy_union),
            p(&|l| l.evals),
        ),
        (
            "analysis.static_bounds.certificate (estimate)",
            p(&|l| l.cert_est),
            p(&|l| l.candidates),
        ),
        (
            "analysis.static_bounds.build",
            p(&|l| l.build),
            p(&|l| l.ops),
        ),
        (
            "analysis.dependencies.replay (estimate)",
            p(&|l| l.replay_est),
            p(&|l| l.replays),
        ),
        (
            "core.pareto.insert (estimate)",
            p(&|l| l.insert_est),
            p(&|l| l.accepted),
        ),
        (
            "core.live.fanout",
            p(&|l| l.live_fanout),
            p(&|l| l.live_events),
        ),
        (
            "core.constraint.stopped",
            p(&|l| l.stopped_ns),
            p(&|l| l.stopped),
        ),
    ]
}

/// The part of the median traced pass that no layer of [`attribution`]
/// covers. Negative when the estimates overshoot.
fn unattributed_ns(layers: &[Layers]) -> f64 {
    per_pass(layers, |l| l.ns) - attribution(layers).iter().map(|r| r.1).sum::<f64>()
}

/// Median of a per-operation probe, over the operations that have one.
fn per_op(run: &RunResult, f: impl Fn(&crate::trace::OpTrace) -> u64) -> f64 {
    let v: Vec<f64> = traced(run)
        .flat_map(|p| p.traces.iter().map(|(_, t)| f(t)))
        .filter(|&v| v > 0)
        .map(|v| v as f64)
        .collect();
    median(&v)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics, from the traced passes.
pub fn per_layer(run: &RunResult, constraint: bool) -> Vec<Metric> {
    let layers: Vec<Layers> = traced(run).map(Layers::of).collect();
    let p = |f: &dyn Fn(&Layers) -> f64| per_pass(&layers, f);
    let setup_read: Vec<f64> = run.setup_ns.iter().map(|s| s.1 as f64 / S).collect();
    let setup_lint: Vec<f64> = run.setup_ns.iter().map(|s| s.2 as f64 / S).collect();
    let untraced_ns = median_of(untraced(run), |p| p.ns as f64);
    let traced_ns = p(&|l| l.ns);
    let prunes = |l: &Layers| l.static_prunes + l.dominance_prunes;
    let mut m = vec![
        metric("graph.read_s", median(&setup_read), "s"),
        metric("lint.preflight_s", median(&setup_lint), "s"),
        metric("core.bounds_s", p(&|l| l.bounds) / S, "s"),
        metric("analysis.engine.evals", p(&|l| l.evals), "count"),
        metric("analysis.engine.busy_s", p(&|l| l.busy) / S, "s"),
        metric("analysis.engine.states_max", p(&|l| l.states_max), "count"),
        metric("analysis.engine.states_sum", p(&|l| l.states_sum), "count"),
        metric(
            "analysis.engine.ns_per_state",
            p(&|l| ratio(l.busy, l.states_sum)),
            "ns",
        ),
        metric("analysis.engine.failures", p(&|l| l.failures), "count"),
        metric("core.prune.static_prunes", p(&|l| l.static_prunes), "count"),
        metric(
            "core.prune.dominance_prunes",
            p(&|l| l.dominance_prunes),
            "count",
        ),
        metric(
            "core.prune.useful_ratio",
            p(&|l| ratio(prunes(l), prunes(l) + l.evals)),
            "ratio",
        ),
        metric("analysis.static_bounds.build_s", p(&|l| l.build) / S, "s"),
        metric(
            "analysis.static_bounds.cert_ns",
            per_op(run, |t| t.cert_ns),
            "ns",
        ),
        metric("analysis.static_bounds.est_s", p(&|l| l.cert_est) / S, "s"),
        metric(
            "analysis.dependencies.replay_ns",
            per_op(run, |t| t.replay_ns),
            "ns",
        ),
        metric("analysis.dependencies.est_s", p(&|l| l.replay_est) / S, "s"),
        metric("core.runtime.cache_hits", p(&|l| l.cache_hits), "count"),
        metric(
            "core.runtime.cache_hit_ratio",
            p(&|l| ratio(l.cache_hits, l.cache_hits + l.evals)),
            "ratio",
        ),
        metric("core.pipeline.warm_starts", p(&|l| l.warm_starts), "count"),
        metric(
            "core.pipeline.warm_start_ratio",
            p(&|l| ratio(l.warm_starts, l.evals)),
            "ratio",
        ),
        metric("core.pareto.insert_ns", per_op(run, |t| t.insert_ns), "ns"),
        metric("core.live.events", p(&|l| l.live_events), "count"),
        metric("core.live.fanout_s", p(&|l| l.live_fanout) / S, "s"),
        metric(
            "core.constraint.evals_per_query",
            if constraint {
                p(&|l| ratio(l.evals, l.ops))
            } else {
                0.0
            },
            "count",
        ),
        metric("core.constraint.stopped_s", p(&|l| l.stopped_ns) / S, "s"),
        metric(
            "core.constraint.stopped_peak_mb",
            run.stopped_peak_kb as f64 / 1024.0,
            "MB",
        ),
    ];
    for g in GRAPHS {
        m.push(metric(
            format!("driver.{g}_s"),
            p(&|l| l.driver.get(g).copied().unwrap_or(0.0)) / S,
            "s",
        ));
    }
    for phase in PHASES {
        m.push(metric(
            format!("telemetry.phase.{phase}_s"),
            p(&|l| l.phases.get(phase).copied().unwrap_or(0.0)) / S,
            "s",
        ));
    }
    m.push(metric(
        "driver.unattributed_frac",
        ratio(unattributed_ns(&layers), traced_ns),
        "frac",
    ));
    m.push(metric(
        "trace.overhead_frac",
        ratio(traced_ns, untraced_ns) - 1.0,
        "frac",
    ));
    m
}

/// The layer table of a traced run: per layer, its time per pass, calls
/// per pass and share of the traced pass.
pub fn layer_table(workload: &str, seed: u64, graphs: usize, run: &RunResult) -> String {
    let layers: Vec<Layers> = traced(run).map(Layers::of).collect();
    let p = |f: &dyn Fn(&Layers) -> f64| per_pass(&layers, f);
    let pass = p(&|l| l.ns);
    let untraced_ns = median_of(untraced(run), |p| p.ns as f64);
    let setup = median(&run.setup_ns.iter().map(|s| s.0 as f64).collect::<Vec<_>>());
    let mut out = String::new();
    let _ = writeln!(
        out,
        "layer table: {workload}, seed {seed}, {} traced / {} untraced passes; \
         pass {:.4} s traced, {:.4} s untraced",
        layers.len(),
        run.passes.len() - layers.len(),
        pass / S,
        untraced_ns / S
    );
    let _ = writeln!(
        out,
        "  {:<44} {:>11} {:>11} {:>8}",
        "layer (self time)", "s/pass", "calls/pass", "share"
    );
    let mut row = |name: &str, ns: f64, calls: f64, base: f64| {
        let _ = writeln!(
            out,
            "  {name:<44} {:>11.4} {calls:>11.1} {:>7.1}%",
            ns / S,
            100.0 * ratio(ns, base)
        );
    };
    row(
        "graph.read (share of setup)",
        median(&run.setup_ns.iter().map(|s| s.1 as f64).collect::<Vec<_>>()),
        graphs as f64,
        setup,
    );
    row(
        "lint.preflight (share of setup)",
        median(&run.setup_ns.iter().map(|s| s.2 as f64).collect::<Vec<_>>()),
        graphs as f64,
        setup,
    );
    for g in GRAPHS {
        let ns = p(&|l| l.driver.get(g).copied().unwrap_or(0.0));
        if ns > 0.0 {
            row(&format!("driver.{g} (whole calls)"), ns, 0.0, pass);
        }
    }
    for (name, ns, calls) in attribution(&layers) {
        row(name, ns, calls, pass);
    }
    row("unattributed", unattributed_ns(&layers), 0.0, pass);
    row(
        "core.bounds (probe, inside the engine time)",
        p(&|l| l.bounds),
        p(&|l| l.ops),
        pass,
    );
    let _ = writeln!(
        out,
        "  trace overhead: traced pass / untraced pass - 1 = {:+.1}%",
        100.0 * (ratio(pass, untraced_ns) - 1.0)
    );
    out
}

/// The spans of every traced pass as JSON lines, times in nanoseconds
/// from the start of the pass.
pub fn spans_jsonl(run: &RunResult) -> String {
    let mut out = String::new();
    for (pass_no, pass) in run.passes.iter().enumerate().filter(|(_, p)| p.traced) {
        for (op_no, (start, t)) in pass.traces.iter().enumerate() {
            for (i, s) in t.spans.iter().enumerate() {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                let _ = writeln!(
                    out,
                    "{{\"pass\":{pass_no},\"op\":{op_no},\"graph\":\"{}\",\"id\":{i},\
                     \"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                    t.graph,
                    s.name,
                    start + s.start,
                    start + s.end
                );
            }
        }
    }
    out
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A finite JSON number with all its digits (`{:?}` prints the shortest
/// representation that round-trips).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(traced: bool, op_ms: &[u64]) -> Pass {
        let op_ns: Vec<u64> = op_ms.iter().map(|ms| ms * 1_000_000).collect();
        Pass {
            traced,
            ns: op_ns.iter().sum(),
            op_ns,
            ..Pass::default()
        }
    }

    #[test]
    fn end_to_end_reads_lower_quartiles_of_untraced_passes() {
        let run = RunResult {
            setup_ns: vec![(300, 0, 0), (200, 0, 0), (400, 0, 0)],
            passes: vec![
                pass(false, &[10, 100]),
                pass(true, &[1, 1]),
                pass(false, &[30, 200]),
                pass(false, &[20, 300]),
            ],
            ..RunResult::default()
        };
        let m: BTreeMap<String, f64> = end_to_end(&run)
            .into_iter()
            .map(|m| (m.name, m.value))
            .collect();
        // Pass times 0.11, 0.23, 0.32 s; the traced pass is left out.
        assert!((m["pass_s"] - 0.17).abs() < 1e-9);
        assert_eq!(m["setup_s"], 200e-9);
        // Per operation: 15 ms and 150 ms; then the quantiles over them.
        assert!((m["query_p50_ms"] - 82.5).abs() < 1e-9);
        assert!((m["query_p90_ms"] - 136.5).abs() < 1e-9);
    }
}
