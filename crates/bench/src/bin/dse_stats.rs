//! Exploration-runtime statistics bench: runs the exact design-space
//! exploration over the benchmark graphs at one thread and at the
//! auto-detected thread count (plus the dependency-guided search), and
//! writes the unified [`ExplorationStats`](buffy_core::ExplorationStats)
//! of every run — wall time, analyses, largest state space — to
//! `BENCH_dse.json` for machine consumption.
//!
//! The statistics of the 1-thread and N-thread runs must be identical
//! (the runtime's chunked evaluation makes them thread-count independent);
//! the bench asserts it, so a regression shows up here as well as in the
//! test suite.
//!
//! Schema v7. Each run record carries: `graph`, `algorithm`, `threads`,
//! `wall_secs`, `evaluations`, `dominance_prunes` (guided-frontier
//! candidates drained once the front reached the maximal throughput),
//! `max_states`, `eval_nanos`, `pareto_points`, the evaluation-latency
//! percentiles `eval_latency_ns` (captured through a per-run
//! [`buffy_telemetry::Recorder`]), `energy` (the exact rational energy per
//! iteration of the front's fastest point as a string, `null` in the
//! default 2D objective space) and `evals_per_sec` (`evaluations /
//! wall_secs`). The gallery covers example, bipartite, modem and cd2dat
//! under both drivers, plus guided energy-aware runs over the
//! power-annotated modem and cd2dat variants.

use buffy_bench::format_table;
use buffy_core::{
    explore_dependency_guided, explore_design_space, resolve_threads, ExplorationResult,
    ExploreOptions, ObjectiveSpace,
};
use buffy_gen::gallery;
use buffy_graph::SdfGraph;
use buffy_telemetry::{names, HistogramSnapshot, Recorder, Snapshot};
use std::sync::Arc;
use std::time::Instant;

struct Run {
    graph: String,
    algorithm: &'static str,
    threads: usize,
    wall_secs: f64,
    result: ExplorationResult,
    telemetry: Snapshot,
}

fn run(
    graph: &SdfGraph,
    algorithm: &'static str,
    threads: usize,
    f: impl Fn() -> ExplorationResult,
) -> Run {
    // A fresh recorder per run keeps the latency statistics attributable; the global slot is swapped around each measurement.
    let recorder = Arc::new(Recorder::new());
    buffy_telemetry::install(Arc::clone(&recorder));
    let t0 = Instant::now();
    let result = f();
    let wall_secs = t0.elapsed().as_secs_f64();
    buffy_telemetry::uninstall();
    Run {
        graph: graph.name().to_string(),
        algorithm,
        threads,
        wall_secs,
        result,
        telemetry: recorder.snapshot(),
    }
}

fn json_record(r: &Run) -> String {
    let s = &r.result.stats;
    let latency = r
        .telemetry
        .histograms
        .get(names::EVAL_LATENCY_NS)
        .cloned()
        .unwrap_or_else(HistogramSnapshot::empty);
    // The fastest front point's exact energy per iteration, present
    // exactly when the run declared the energy axis.
    let energy = r
        .result
        .pareto
        .maximal()
        .and_then(|p| p.energy())
        .map(|e| format!("\"{e}\""))
        .unwrap_or_else(|| "null".to_string());
    // Evaluation throughput: evaluations per wall-clock second.
    let evals_per_sec = if r.wall_secs > 0.0 {
        s.evaluations as f64 / r.wall_secs
    } else {
        0.0
    };
    format!(
        "{{\"graph\":\"{}\",\"algorithm\":\"{}\",\"threads\":{},\"wall_secs\":{:.6},\
         \"evaluations\":{},\"dominance_prunes\":{},\"max_states\":{},\
         \"eval_nanos\":{},\"pareto_points\":{},\
         \"eval_latency_ns\":{{\"p50\":{},\"p90\":{},\"p99\":{}}},\
         \"energy\":{energy},\"evals_per_sec\":{evals_per_sec:.2}}}",
        r.graph,
        r.algorithm,
        r.threads,
        r.wall_secs,
        s.evaluations,
        s.dominance_prunes,
        s.max_states,
        s.eval_nanos,
        r.result.pareto.len(),
        latency.p50(),
        latency.p90(),
        latency.p99(),
    )
}

fn main() {
    // The full gallery is exact but slow under the exhaustive search for
    // the biggest graphs; the fig-7-style subjects below chart in seconds.
    let graphs = [
        gallery::example(),
        gallery::bipartite(),
        gallery::modem(),
        gallery::cd2dat(),
    ];
    let auto = resolve_threads(0);

    let mut runs: Vec<Run> = Vec::new();
    for graph in &graphs {
        let seq = ExploreOptions::default();
        let par = ExploreOptions {
            threads: 0,
            ..ExploreOptions::default()
        };
        let one = run(graph, "exhaustive", 1, || {
            explore_design_space(graph, &seq).expect("exploration succeeds")
        });
        let many = run(graph, "exhaustive", auto, || {
            explore_design_space(graph, &par).expect("exploration succeeds")
        });
        assert_eq!(
            one.result.stats,
            many.result.stats,
            "{}: statistics must be identical across thread counts",
            graph.name()
        );
        let guided = run(graph, "guided", 1, || {
            explore_dependency_guided(graph, &seq).expect("exploration succeeds")
        });
        runs.extend([one, many, guided]);
    }

    // Guided energy-aware runs over the power-annotated subjects. The 3D space reuses the same evaluations — the energy
    // axis is derived from each recorded throughput — so these runs cost
    // what their 2D counterparts cost.
    for graph in &[gallery::modem_power(), gallery::cd2dat_power()] {
        let opts = ExploreOptions {
            objectives: ObjectiveSpace::with_energy(),
            ..ExploreOptions::default()
        };
        let guided = run(graph, "guided", 1, || {
            explore_dependency_guided(graph, &opts).expect("exploration succeeds")
        });
        assert!(
            guided
                .result
                .pareto
                .points()
                .iter()
                .all(|p| p.energy().is_some()),
            "{}: every front point must carry its exact energy",
            graph.name()
        );
        runs.push(guided);
    }

    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|r| {
            let s = &r.result.stats;
            vec![
                r.graph.clone(),
                r.algorithm.to_string(),
                r.threads.to_string(),
                format!("{:.3}s", r.wall_secs),
                s.evaluations.to_string(),
                s.dominance_prunes.to_string(),
                s.max_states.to_string(),
                r.result.pareto.len().to_string(),
            ]
        })
        .collect();
    print!(
        "{}",
        format_table(
            &[
                "graph",
                "algorithm",
                "threads",
                "wall",
                "analyses",
                "drained",
                "max states",
                "#Pareto",
            ],
            &rows
        )
    );

    let records: Vec<String> = runs.iter().map(json_record).collect();
    let json = format!(
        "{{\"bench\":\"dse_stats\",\"schema\":7,\"auto_threads\":{},\"runs\":[\n  {}\n]}}\n",
        auto,
        records.join(",\n  ")
    );
    std::fs::write("BENCH_dse.json", &json).expect("write BENCH_dse.json");
    println!("\nwrote BENCH_dse.json ({} runs)", runs.len());
}
