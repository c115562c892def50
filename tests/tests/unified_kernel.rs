//! Cross-model guarantees of the unified execution-and-exploration
//! kernel.
//!
//! Since PR 2 the timed engine, the reduced-state-space throughput
//! analysis, and the design-space exploration drivers are implemented
//! once against `buffy_analysis::DataflowSemantics`, with `SdfGraph` and
//! `CsdfGraph` as the two model implementations. Every SDF graph embeds
//! as a single-phase CSDF graph, and through the shared kernel the two
//! routes must agree *exactly* — same states, same reports, same fronts —
//! not merely up to throughput values.

use buffy_analysis::{throughput_for, Capacities, ExplorationLimits};
use buffy_core::{explore_design_space, explore_design_space_for, ExploreOptions};
use buffy_csdf::{csdf_explore, CsdfExploreOptions, CsdfGraph};
use buffy_gen::RandomGraphConfig;
use buffy_graph::{Rational, SdfGraph, StorageDistribution};

fn paper_example() -> SdfGraph {
    let mut b = SdfGraph::builder("example");
    let a = b.actor("a", 1);
    let bb = b.actor("b", 2);
    let c = b.actor("c", 2);
    b.channel("alpha", a, 2, bb, 3).unwrap();
    b.channel("beta", bb, 1, c, 2).unwrap();
    b.build().unwrap()
}

fn random_graph(seed: u64) -> SdfGraph {
    RandomGraphConfig {
        actors: 4,
        extra_channels: 1,
        max_repetition: 3,
        max_rate_factor: 2,
        max_execution_time: 3,
        seed,
    }
    .generate()
}

/// The same kernel analysis run through both trait implementations must
/// produce byte-identical reports: every field, not just the throughput.
#[test]
fn single_phase_reports_are_byte_identical() {
    for seed in 7000..7010u64 {
        let sdf = random_graph(seed);
        let csdf = CsdfGraph::from_sdf(&sdf);
        let obs = sdf.default_observed_actor();
        let mut caps: Vec<u64> = sdf
            .channels()
            .map(|(id, _)| buffy_core::channel_lower_bound(sdf.channel(id)))
            .collect();
        // Probe the lower-bound corner and two roomier distributions.
        for bump in 0..3u64 {
            let dist = StorageDistribution::from_capacities(caps.clone());
            let s = throughput_for(
                &sdf,
                Capacities::from_distribution(&dist),
                obs,
                ExplorationLimits::default(),
            );
            let c = throughput_for(
                &csdf,
                Capacities::from_distribution(&dist),
                obs,
                ExplorationLimits::default(),
            );
            match (s, c) {
                (Ok(s), Ok(c)) => {
                    assert_eq!(s, c, "seed {seed} bump {bump}: reports diverge");
                    assert_eq!(
                        format!("{s:?}"),
                        format!("{c:?}"),
                        "seed {seed} bump {bump}"
                    );
                }
                (Err(se), Err(ce)) => {
                    assert_eq!(se.to_string(), ce.to_string(), "seed {seed} bump {bump}");
                }
                (s, c) => panic!("seed {seed} bump {bump}: one route failed: {s:?} vs {c:?}"),
            }
            for cap in caps.iter_mut() {
                *cap += 1;
            }
        }
    }
}

/// The full exploration of a single-phase embedding must reproduce the
/// SDF Pareto set byte for byte — identical grids, identical fronts,
/// identical distributions at each point.
#[test]
fn single_phase_pareto_sets_are_byte_identical() {
    for seed in 7000..7006u64 {
        let sdf = random_graph(seed);
        let csdf = CsdfGraph::from_sdf(&sdf);
        let s = explore_design_space(&sdf, &ExploreOptions::default());
        let c = csdf_explore(&csdf, &CsdfExploreOptions::default());
        match (s, c) {
            (Ok(s), Ok(c)) => {
                assert_eq!(s.pareto, c.pareto, "seed {seed}: fronts diverge");
                assert_eq!(format!("{:?}", s.pareto), format!("{:?}", c.pareto));
                assert_eq!(s.max_throughput, c.max_throughput, "seed {seed}");
            }
            (Err(se), Err(ce)) => {
                assert_eq!(se.to_string(), ce.to_string(), "seed {seed}");
            }
            (s, c) => panic!("seed {seed}: one route failed: {s:?} vs {c:?}"),
        }
    }
}

/// The generic driver invoked directly on the CSDF embedding agrees with
/// both typed wrappers on the paper's running example.
#[test]
fn generic_driver_matches_typed_wrappers_on_the_paper_example() {
    let sdf = paper_example();
    let csdf = CsdfGraph::from_sdf(&sdf);
    let s = explore_design_space(&sdf, &ExploreOptions::default()).unwrap();
    let g = explore_design_space_for(&csdf, &ExploreOptions::default()).unwrap();
    let w = csdf_explore(&csdf, &CsdfExploreOptions::default()).unwrap();
    assert_eq!(s.pareto, g.pareto);
    assert_eq!(g.pareto, w.pareto);
    let front: Vec<(u64, Rational)> = s
        .pareto
        .points()
        .iter()
        .map(|p| (p.size, p.throughput))
        .collect();
    assert_eq!(
        front,
        vec![
            (6, Rational::new(1, 7)),
            (8, Rational::new(1, 6)),
            (9, Rational::new(1, 5)),
            (10, Rational::new(1, 4)),
        ]
    );
}
