//! Property tests for the static certificate pass behind `buffy bounds`
//! and lints B010/B011: the capacity-aware cycle-ratio bound must
//! upper-bound the exact (state-space) throughput on arbitrary graphs,
//! for SDF and CSDF models alike, and the exact engine must respect the
//! pointwise dominance order of capacities.

use buffy_analysis::{
    throughput_for, Capacities, DataflowSemantics, ExplorationLimits, StaticBounds,
};
use buffy_core::lower_bound_distribution_for;
use buffy_csdf::CsdfGraph;
use buffy_gen::{gallery, RandomGraphConfig};
use buffy_graph::{ActorId, ChannelId, Rational, SdfGraph, StorageDistribution};

fn random_graph(seed: u64) -> SdfGraph {
    RandomGraphConfig {
        actors: 4,
        extra_channels: 1,
        max_repetition: 2,
        max_rate_factor: 2,
        max_execution_time: 3,
        seed,
    }
    .generate()
}

/// A genuinely phased CSDF graph (not an embedded-SDF one).
fn burst_csdf() -> CsdfGraph {
    let mut b = CsdfGraph::builder("burst3");
    let p = b.actor("p", vec![1, 1, 1]);
    let c = b.actor("c", vec![2]);
    b.channel("d", p, vec![3, 0, 3], c, vec![2], 0).unwrap();
    b.build().unwrap()
}

/// The lower-bound distribution and two componentwise-larger variants.
fn sample_distributions<M: DataflowSemantics>(model: &M) -> Vec<StorageDistribution> {
    let lb = lower_bound_distribution_for(model);
    let plus: StorageDistribution = lb.as_slice().iter().map(|&c| c + 2).collect();
    let doubled: StorageDistribution = lb.as_slice().iter().map(|&c| c * 2).collect();
    vec![lb, plus, doubled]
}

fn exact_throughput<M: DataflowSemantics>(
    model: &M,
    dist: &StorageDistribution,
    observed: ActorId,
) -> Option<(Rational, bool)> {
    throughput_for(
        model,
        Capacities::from_distribution(dist),
        observed,
        ExplorationLimits::default(),
    )
    .ok()
    .map(|r| (r.throughput, r.deadlocked))
}

/// The certificate (and every relaxed per-channel certificate) never
/// under-bounds the exact throughput, and a statically proven deadlock is
/// a real one.
fn assert_sound_certificates<M: DataflowSemantics>(model: &M, observed: ActorId, label: &str) {
    let Ok(bounds) = StaticBounds::new(model, observed) else {
        return;
    };
    if !bounds.is_usable() {
        return;
    }
    for dist in sample_distributions(model) {
        let Some(cert) = bounds.certificate(&dist) else {
            continue;
        };
        let Some((exact, deadlocked)) = exact_throughput(model, &dist, observed) else {
            continue;
        };
        assert!(
            cert.bound >= exact,
            "{label} {dist}: static bound {} below exact {exact}",
            cert.bound
        );
        if cert.deadlocked {
            // The deadlock direction is exact, not just a bound.
            assert!(deadlocked, "{label} {dist}: static deadlock but live run");
            assert_eq!(exact, Rational::ZERO);
        }
        for i in 0..model.num_channels() {
            let id = ChannelId::new(i);
            if let Some(relaxed) = bounds.channel_bound(id, dist.get(id)) {
                assert!(
                    relaxed.bound >= cert.bound,
                    "{label} {dist}: relaxing to channel {i} tightened the bound \
                     ({} < {})",
                    relaxed.bound,
                    cert.bound
                );
            }
        }
    }
}

#[test]
fn static_certificate_upper_bounds_exact_throughput_on_random_sdf_graphs() {
    for seed in 0..20 {
        let g = random_graph(3000 + seed);
        let label = format!("seed {seed}");
        assert_sound_certificates(&g, g.default_observed_actor(), &label);
    }
}

#[test]
fn static_certificate_upper_bounds_exact_throughput_on_gallery_graphs() {
    for g in [
        gallery::example(),
        gallery::bipartite(),
        gallery::modem(),
        gallery::cd2dat(),
    ] {
        assert_sound_certificates(&g, g.default_observed_actor(), g.name());
    }
}

#[test]
fn static_certificate_upper_bounds_exact_throughput_on_csdf_graphs() {
    let burst = burst_csdf();
    assert_sound_certificates(&burst, burst.default_observed_actor(), "burst3");
    for seed in 0..10 {
        let g = CsdfGraph::from_sdf(&random_graph(3100 + seed));
        let label = format!("embedded seed {seed}");
        assert_sound_certificates(&g, g.default_observed_actor(), &label);
    }
}

/// Throughput is monotone in pointwise capacity (paper §9): a
/// distribution that dominates another (componentwise ≥ capacities)
/// never runs slower.
#[test]
fn exact_throughput_respects_the_dominance_order() {
    for seed in 0..12 {
        let g = random_graph(3200 + seed);
        let obs = g.default_observed_actor();
        let dists = sample_distributions(&g);
        let evaluated: Vec<(StorageDistribution, Rational)> = dists
            .into_iter()
            .filter_map(|d| exact_throughput(&g, &d, obs).map(|(t, _)| (d, t)))
            .collect();
        for (d1, t1) in &evaluated {
            for (d2, t2) in &evaluated {
                if d1.dominates(d2) {
                    assert!(t1 >= t2, "seed {seed}: {d1} dominates {d2} but {t1} < {t2}");
                }
            }
        }
    }
}
