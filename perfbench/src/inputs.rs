//! The benchmark's inputs: which graphs each workload reads, and how the
//! seed derives the seed-dependent ones.
//!
//! The seed drives three things and nothing else:
//!
//! - the phase split of the CSDF refinement of cd2dat: `fir3` consumes its
//!   7 tokens in two phases `a, 7 − a` and produces its 8 tokens in two
//!   phases `b, 8 − b`;
//! - the relabelling of the generated graph: a random permutation of its
//!   actors (an isomorphic copy with the same front);
//! - the constraint targets (see `workloads::constraint_targets`).

use buffy_csdf::xml::{read_csdf_xml, write_csdf_xml};
use buffy_csdf::CsdfGraph;
use buffy_gen::{gallery, RandomGraphConfig, SplitMix64};
use buffy_graph::xml::{read_sdf_xml, write_sdf_xml};
use buffy_graph::{ActorId, SdfGraph};
use buffy_lint::{lint_csdf, lint_sdf, LintContext, Severity};

/// The graphs taken from the program's gallery.
pub const GALLERY: [&str; 3] = ["modem", "cd2dat", "satellite"];

/// The generator configuration of the base graph that `gen` relabels:
/// `buffy generate --seed 1 --actors 16 --channels 18 --max-repetition 3
/// --max-rate 2`.
pub fn gen_base_config() -> RandomGraphConfig {
    RandomGraphConfig {
        actors: 16,
        extra_channels: 3,
        max_repetition: 3,
        max_rate_factor: 2,
        max_execution_time: 4,
        seed: 1,
    }
}

/// Sub-seeds, one per seed-dependent input, so that adding a use of the
/// seed does not shift the others.
fn sub_rng(seed: u64, stream: u64) -> SplitMix64 {
    let mut mix = SplitMix64::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    SplitMix64::seed_from_u64(mix.next_u64())
}

/// The constraint targets' random stream.
pub fn target_rng(seed: u64) -> SplitMix64 {
    sub_rng(seed, 3)
}

/// The CSDF refinement's phase split `(a, b)`: fir3 consumes `a, 7 − a`
/// and produces `b, 8 − b`, drawn from [`csdf_family`].
pub fn csdf_split(seed: u64) -> (u64, u64) {
    let family = csdf_family();
    let mut rng = sub_rng(seed, 1);
    family[rng.range_usize(0, family.len())]
}

/// The six splits whose larger input phase is fir3's smaller output phase
/// and whose output phases are `6, 2` or `2, 6` (`a ≤ 3` with `b = 6`, or
/// `a ≥ 4` with `b = 2`). They do the same work: six-point fronts, 158
/// evaluations, 2,191 candidates of which 2,092 are statically pruned.
/// The other splits prune 1,353 or 3,070 candidates (output phases
/// `5, 3` or `7, 1`, about 6% cheaper or dearer) or have seven-point
/// fronts at about 1.6× the cost; mixing them would make the CSDF call,
/// and with it `query_p50_ms`, a property of the seed.
pub fn csdf_family() -> Vec<(u64, u64)> {
    (1..=6).map(|a| (a, if a <= 3 { 6 } else { 2 })).collect()
}

/// cd2dat with `fir3` refined into two phases of 3 time steps each (the
/// SDF actor's execution time), consuming `a, 7 − a` tokens and producing
/// `b, 8 − b` tokens.
pub fn csdf_refinement(a: u64, b: u64) -> CsdfGraph {
    let mut g = CsdfGraph::builder(format!("cd2dat-csdf-{a}-{b}"));
    let cd = g.actor("cd", vec![1]);
    let f1 = g.actor("fir1", vec![2]);
    let f2 = g.actor("fir2", vec![2]);
    let f3 = g.actor("fir3", vec![3, 3]);
    let f4 = g.actor("fir4", vec![2]);
    let dat = g.actor("dat", vec![1]);
    let ch = "static graph";
    g.channel("c1", cd, vec![1], f1, vec![1], 0).expect(ch);
    g.channel("c2", f1, vec![2], f2, vec![3], 0).expect(ch);
    g.channel("c3", f2, vec![2], f3, vec![a, 7 - a], 0)
        .expect(ch);
    g.channel("c4", f3, vec![b, 8 - b], f4, vec![7], 0)
        .expect(ch);
    g.channel("c5", f4, vec![5], dat, vec![1], 0).expect(ch);
    g.build().expect(ch)
}

/// A uniformly random permutation of `0..n`.
fn permutation(rng: &mut SplitMix64, n: usize) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.range_usize(0, i + 1));
    }
    p
}

/// The generated graph with its actors relabelled by `seed`: a random
/// permutation of the actor order, channels kept in the base order.
///
/// Channel order is kept because the drivers' work depends on it: on a
/// channel-permuted copy the guided front takes 7,236–8,307 evaluations
/// instead of 8,136, and the constraint driver can run past the deadline
/// on every target instead of on the top 30% of the range (see
/// `NOTES.md`), which would make a pass's length a property of the seed.
pub fn gen_relabelled(seed: u64) -> SdfGraph {
    let base = gen_base_config().generate();
    let mut rng = sub_rng(seed, 2);
    let actor_order = permutation(&mut rng, base.num_actors());
    let mut b = SdfGraph::builder(format!("gen-{seed}"));
    let mut new_id = vec![ActorId::new(0); base.num_actors()];
    for &old in &actor_order {
        let actor = base.actor(ActorId::new(old));
        new_id[old] = b.actor(actor.name(), actor.execution_time());
    }
    for (_, ch) in base.channels() {
        b.channel_with_tokens(
            ch.name(),
            new_id[ch.source().index()],
            ch.production(),
            new_id[ch.target().index()],
            ch.consumption(),
            ch.initial_tokens(),
        )
        .expect("copy of a valid channel");
    }
    b.build().expect("copy of a valid graph")
}

/// Name of the base generated graph's observed actor. Relabelling would
/// change which sink comes first, so every run observes this one by name.
pub fn gen_observed_name() -> String {
    let base = gen_base_config().generate();
    base.actor(base.default_observed_actor()).name().to_string()
}

/// One graph of a workload, as XML text: what the set-up phase reads.
#[derive(Debug, Clone)]
pub struct Source {
    /// Short name used in metric names and golden file names.
    pub name: String,
    /// Whether the text is the SDF3 CSDF dialect.
    pub csdf: bool,
    /// The document.
    pub xml: String,
    /// The observed actor's name.
    pub observed: String,
    /// Golden file stem (the gen graph's golden is its base graph's).
    pub golden: String,
}

/// A gallery graph as XML, as `buffy gallery` writes it.
fn gallery_source(name: &str) -> Result<Source, String> {
    let g = match name {
        "modem" => gallery::modem(),
        "cd2dat" => gallery::cd2dat(),
        "satellite" => gallery::satellite(),
        _ => return Err(format!("unknown graph {name:?}")),
    };
    Ok(Source {
        name: name.to_string(),
        csdf: false,
        xml: write_sdf_xml(&g),
        observed: g.actor(g.default_observed_actor()).name().to_string(),
        golden: name.to_string(),
    })
}

/// The source named `name` for `seed` (`modem`, `cd2dat`, `satellite`,
/// `gen` or `csdf`).
pub fn source(name: &str, seed: u64) -> Result<Source, String> {
    match name {
        "gen" => Ok(Source {
            name: "gen".into(),
            csdf: false,
            xml: write_sdf_xml(&gen_relabelled(seed)),
            observed: gen_observed_name(),
            golden: "gen".into(),
        }),
        "csdf" => {
            let (a, b) = csdf_split(seed);
            Ok(Source {
                name: "csdf".into(),
                csdf: true,
                xml: write_csdf_xml(&csdf_refinement(a, b)),
                observed: "dat".into(),
                golden: format!("csdf-{a}-{b}"),
            })
        }
        _ => gallery_source(name),
    }
}

/// A parsed graph of either dialect.
#[derive(Debug, Clone)]
pub enum Model {
    /// A synchronous dataflow graph.
    Sdf(SdfGraph),
    /// A cyclo-static dataflow graph.
    Csdf(CsdfGraph),
}

/// A parsed, linted graph ready for the drivers.
#[derive(Debug, Clone)]
pub struct Loaded {
    /// The source it came from.
    pub source: Source,
    /// The graph.
    pub model: Model,
    /// The observed actor.
    pub observed: ActorId,
}

/// Parses one source (the `graph` layer).
pub fn parse(source: &Source) -> Result<(Model, ActorId), String> {
    let (model, observed) = if source.csdf {
        let g = read_csdf_xml(&source.xml).map_err(|e| format!("{}: {e}", source.name))?;
        let obs = g.actor_by_name(&source.observed);
        (Model::Csdf(g), obs)
    } else {
        let g = read_sdf_xml(&source.xml).map_err(|e| format!("{}: {e}", source.name))?;
        let obs = g.actor_by_name(&source.observed);
        (Model::Sdf(g), obs)
    };
    let observed =
        observed.ok_or_else(|| format!("{}: no actor {}", source.name, source.observed))?;
    Ok((model, observed))
}

/// Runs the preflight lint, as the CLI does before a search (the `lint`
/// layer). Error-level findings refuse the graph.
pub fn preflight(name: &str, model: &Model, observed: ActorId) -> Result<(), String> {
    let ctx = LintContext {
        observed: Some(observed),
        ..LintContext::default()
    };
    let report = match model {
        Model::Sdf(g) => lint_sdf(g, &ctx),
        Model::Csdf(g) => lint_csdf(g, &ctx),
    };
    match report
        .diagnostics
        .iter()
        .find(|d| d.severity == Severity::Error)
    {
        Some(d) => Err(format!(
            "{name}: preflight refused: {} {}",
            d.code, d.message
        )),
        None => Ok(()),
    }
}
