//! Bounds on the storage/throughput design space (paper §8, Fig. 7).
//!
//! Three bounds box the space the exploration must search:
//!
//! - a **per-channel lower bound** on the capacity needed for any positive
//!   throughput (the classical BMLB bound of \[ALP97\]/\[Mur96\]):
//!   `p + c − gcd(p,c) + (d mod gcd(p,c))`, or `d` when the initial tokens
//!   alone exceed that;
//! - their sum, the **combined lower bound** `lb` on the distribution size;
//! - an **upper bound** `ub`: the size of a distribution realizing the
//!   maximal achievable throughput (the role \[GGD02\] plays in the paper).
//!   Larger distributions can never improve throughput further.
//!
//! Capacities only matter in steps of `gcd(p, c)` ([`channel_step`]): the
//! token count of a channel is always congruent to `d` modulo that gcd, so
//! intermediate capacities behave identically to the next-lower step.
//!
//! Both bounds are computed through the unified kernel: the generic forms
//! ([`lower_bound_distribution_for`], [`upper_bound_distribution_for`])
//! only ask a model the [`DataflowSemantics`] questions, so the same code
//! boxes the SDF and CSDF design spaces.

use crate::error::ExploreError;
use buffy_analysis::{
    bmlb, rate_step, throughput_for, Capacities, DataflowSemantics, ExplorationLimits,
};
use buffy_graph::{ActorId, Channel, ChannelId, Rational, SdfGraph, StorageDistribution};

/// Lower bound on the capacity of one channel for positive throughput
/// (BMLB, \[ALP97\]/\[Mur96\]).
///
/// ```
/// # use buffy_graph::SdfGraph;
/// # use buffy_core::channel_lower_bound;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = SdfGraph::builder("example");
/// let a = b.actor("a", 1);
/// let bb = b.actor("b", 2);
/// b.channel("alpha", a, 2, bb, 3)?;
/// let g = b.build()?;
/// // p + c − gcd = 2 + 3 − 1 = 4: the α capacity of the paper's smallest
/// // positive-throughput distribution ⟨4, 2⟩.
/// assert_eq!(channel_lower_bound(g.channel(g.channel_by_name("alpha").unwrap())), 4);
/// # Ok(())
/// # }
/// ```
pub fn channel_lower_bound(channel: &Channel) -> u64 {
    bmlb(
        channel.production(),
        channel.consumption(),
        channel.initial_tokens(),
    )
}

/// The quantum in which growing a channel's capacity can change behaviour:
/// `gcd(production, consumption)`.
pub fn channel_step(channel: &Channel) -> u64 {
    rate_step(channel.production(), channel.consumption())
}

/// The distribution assigning every channel its lower bound; its size is
/// the combined lower bound `lb` of Fig. 7.
pub fn lower_bound_distribution(graph: &SdfGraph) -> StorageDistribution {
    lower_bound_distribution_for(graph)
}

/// The generic form of [`lower_bound_distribution`]: every channel at the
/// model-declared bound ([`DataflowSemantics::channel_lower_bound`]).
pub fn lower_bound_distribution_for<M: DataflowSemantics>(model: &M) -> StorageDistribution {
    (0..model.num_channels())
        .map(|i| model.channel_lower_bound(ChannelId::new(i)))
        .collect()
}

/// A distribution realizing the maximal achievable throughput of
/// `observed`, found by growing from the lower bounds and then shrinking
/// channel-by-channel; its size is the `ub` of Fig. 7.
///
/// The result is per-channel minimal (no single channel can shrink further
/// without losing throughput) but not necessarily size-minimal — the exact
/// minimum is what the design-space exploration itself determines.
///
/// # Errors
///
/// Propagates analysis failures; [`ExploreError::NoPositiveThroughput`] if
/// growth never reaches the maximal throughput within a generous cap.
pub fn upper_bound_distribution(
    graph: &SdfGraph,
    observed: ActorId,
    limits: ExplorationLimits,
) -> Result<(StorageDistribution, Rational), ExploreError> {
    upper_bound_distribution_for(graph, observed, limits)
}

/// The generic form of [`upper_bound_distribution`]: works for any
/// [`DataflowSemantics`] model through the unified kernel.
///
/// # Errors
///
/// See [`upper_bound_distribution`].
pub fn upper_bound_distribution_for<M: DataflowSemantics>(
    model: &M,
    observed: ActorId,
    limits: ExplorationLimits,
) -> Result<(StorageDistribution, Rational), ExploreError> {
    upper_bound_distribution_with(model, observed, &|dist| {
        let r = throughput_for(model, Capacities::from_distribution(dist), observed, limits)?;
        Ok(r.throughput)
    })
}

/// [`upper_bound_distribution_for`] with the throughput probes routed
/// through a caller-supplied evaluation function — the exploration drivers
/// pass their evaluation pipeline so that bound probes are counted in the
/// [`crate::ExplorationStats`] and reported to the
/// [`crate::ExploreObserver`].
pub(crate) fn upper_bound_distribution_with<M: DataflowSemantics>(
    model: &M,
    observed: ActorId,
    eval: &dyn Fn(&StorageDistribution) -> Result<Rational, ExploreError>,
) -> Result<(StorageDistribution, Rational), ExploreError> {
    let q = model.repetition_cycles()?;
    let thr_max = model.maximal_throughput(observed)?;

    // Start from a heuristic: room for one full iteration of productions
    // and consumptions plus initial tokens, at least the lower bound.
    let mut dist: StorageDistribution = (0..model.num_channels())
        .map(|i| {
            let cid = ChannelId::new(i);
            let iter_room = model.initial_tokens(cid)
                + model.cycle_production(cid) * q[model.channel_source(cid).index()]
                + model.cycle_consumption(cid) * q[model.channel_target(cid).index()];
            iter_room.max(model.channel_lower_bound(cid))
        })
        .collect();

    // Grow until the maximal throughput is reached (monotonicity
    // guarantees this terminates at some finite size).
    let mut guard = 0;
    loop {
        if eval(&dist)? == thr_max {
            break;
        }
        dist = dist.as_slice().iter().map(|&c| c * 2).collect();
        guard += 1;
        if guard > 64 {
            return Err(ExploreError::NoPositiveThroughput);
        }
    }

    // Shrink each channel in turn to its per-channel minimum (binary
    // search over capacity steps, holding the other channels fixed).
    for i in 0..model.num_channels() {
        let cid = ChannelId::new(i);
        let step = model.channel_step(cid);
        let lo_cap = model.channel_lower_bound(cid);
        let mut lo = 0u64; // in steps above lo_cap — may lose throughput
                           // Round up to the step grid (monotonicity: rounding up keeps the
                           // maximal throughput).
        let mut hi = (dist.get(cid) - lo_cap).div_ceil(step);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let mut probe = dist.clone();
            probe.set(cid, lo_cap + mid * step);
            if eval(&probe)? == thr_max {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        dist.set(cid, lo_cap + hi * step);
    }

    Ok((dist, thr_max))
}

#[cfg(test)]
mod tests {
    use super::*;
    use buffy_analysis::throughput;

    fn example() -> SdfGraph {
        let mut b = SdfGraph::builder("example");
        let a = b.actor("a", 1);
        let bb = b.actor("b", 2);
        let c = b.actor("c", 2);
        b.channel("alpha", a, 2, bb, 3).unwrap();
        b.channel("beta", bb, 1, c, 2).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn example_lower_bounds() {
        let g = example();
        let lb = lower_bound_distribution(&g);
        // α: 2+3−1 = 4; β: 1+2−1 = 2 — the paper's ⟨4, 2⟩.
        assert_eq!(lb.as_slice(), &[4, 2]);
        assert_eq!(lb.size(), 6);
    }

    #[test]
    fn lower_bound_respects_initial_tokens() {
        let mut b = SdfGraph::builder("g");
        let x = b.actor("x", 1);
        let y = b.actor("y", 1);
        // gcd(4,6) = 2; d = 3 → bound 4+6−2 + (3 mod 2) = 9.
        b.channel_with_tokens("c1", x, 4, y, 6, 3).unwrap();
        // Initial tokens dominate: d = 50 > p+c−g.
        b.channel_with_tokens("c2", x, 4, y, 6, 50).unwrap();
        let g = b.build().unwrap();
        let lb = lower_bound_distribution(&g);
        assert_eq!(lb.as_slice(), &[9, 50]);
    }

    #[test]
    fn channel_steps() {
        let mut b = SdfGraph::builder("g");
        let x = b.actor("x", 1);
        let y = b.actor("y", 1);
        b.channel("c1", x, 4, y, 6).unwrap();
        b.channel("c2", x, 1, y, 5).unwrap();
        let g = b.build().unwrap();
        let steps: Vec<u64> = g.channels().map(|(_, c)| channel_step(c)).collect();
        assert_eq!(steps, vec![2, 1]);
    }

    #[test]
    fn capacities_between_steps_are_equivalent() {
        // With rates 4:6 every reachable token count is even; capacities 9
        // (= lb) and 10 must behave identically.
        let mut b = SdfGraph::builder("g");
        let x = b.actor("x", 1);
        let y = b.actor("y", 3);
        b.channel("c", x, 4, y, 6).unwrap();
        let g = b.build().unwrap();
        let y = g.actor_by_name("y").unwrap();
        let t9 = throughput(&g, &StorageDistribution::from_capacities(vec![10]), y).unwrap();
        let t10 = throughput(&g, &StorageDistribution::from_capacities(vec![11]), y).unwrap();
        assert_eq!(t9.throughput, t10.throughput);
    }

    #[test]
    fn upper_bound_reaches_maximal_throughput() {
        let g = example();
        let c = g.actor_by_name("c").unwrap();
        let (ub, thr_max) = upper_bound_distribution(&g, c, ExplorationLimits::default()).unwrap();
        assert_eq!(thr_max, Rational::new(1, 4));
        let r = throughput(&g, &ub, c).unwrap();
        assert_eq!(r.throughput, thr_max);
        // Per-channel minimal: shrinking any single channel by its step
        // loses the maximal throughput.
        for (cid, ch) in g.channels() {
            let step = channel_step(ch);
            if ub.get(cid) < channel_lower_bound(ch) + step {
                continue;
            }
            let mut probe = ub.clone();
            probe.set(cid, ub.get(cid) - step);
            let r = throughput(&g, &probe, c).unwrap();
            assert!(r.throughput < thr_max, "channel {} not minimal", ch.name());
        }
        // The paper: maximal throughput is reached at distribution size 10.
        // The per-channel-minimal ub may be slightly larger than the global
        // optimum, but never smaller.
        assert!(ub.size() >= 10);
    }

    #[test]
    fn lower_bound_distribution_of_example_is_live() {
        let g = example();
        let c = g.actor_by_name("c").unwrap();
        let lb = lower_bound_distribution(&g);
        let r = throughput(&g, &lb, c).unwrap();
        assert!(!r.deadlocked);
    }
}
