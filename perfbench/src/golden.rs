//! Golden fronts: the exact front of every graph a workload can run,
//! committed in `golden/fronts.txt`, and the checks every timed run makes
//! against them.
//!
//! The file holds one section per graph, `[name]`, with one line per
//! front point: `size throughput c0,c1,…`. The `gen` section is the front
//! of the base generated graph, which its actor-relabelled copies share.

use crate::inputs::{self, Model};
use buffy_core::{ExploreOptions, ParetoPoint};
use buffy_csdf::CsdfExploreOptions;
use buffy_graph::{ActorId, Rational};
use std::collections::BTreeMap;
use std::path::Path;

/// One front point: size, throughput and distribution.
pub type Point = (u64, Rational, Vec<u64>);

/// Every golden front, by graph name.
pub type Goldens = BTreeMap<String, Vec<Point>>;

/// The golden file, relative to the benchmark's directory.
pub const FILE: &str = "golden/fronts.txt";

/// Converts a driver's front into golden points.
pub fn points(front: &[ParetoPoint]) -> Vec<Point> {
    front
        .iter()
        .map(|p| (p.size, p.throughput, p.distribution.as_slice().to_vec()))
        .collect()
}

/// Renders goldens in the file format.
pub fn render(goldens: &Goldens) -> String {
    let mut out = String::from(
        "# Exact storage/throughput fronts of the benchmark's graphs.\n\
         # Regenerate with: cargo run --release --manifest-path perfbench/Cargo.toml -- --regen-goldens\n",
    );
    for (name, front) in goldens {
        out.push_str(&format!("[{name}]\n"));
        for (size, thr, dist) in front {
            let caps: Vec<String> = dist.iter().map(u64::to_string).collect();
            out.push_str(&format!("{size} {thr} {}\n", caps.join(",")));
        }
    }
    out
}

/// Parses the file format.
pub fn parse(text: &str) -> Result<Goldens, String> {
    let mut goldens = Goldens::new();
    let mut current: Option<String> = None;
    for (no, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            goldens.insert(name.to_string(), Vec::new());
            current = Some(name.to_string());
            continue;
        }
        let bad = |what: &str| format!("{FILE}:{}: {what}", no + 1);
        let name = current
            .as_ref()
            .ok_or_else(|| bad("point outside a section"))?;
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [size, thr, dist] = fields[..] else {
            return Err(bad("expected `size throughput caps`"));
        };
        let size = size.parse().map_err(|_| bad("bad size"))?;
        let thr = thr.parse().map_err(|_| bad("bad throughput"))?;
        let dist = dist
            .split(',')
            .map(|c| c.parse().map_err(|_| bad("bad capacity")))
            .collect::<Result<Vec<u64>, String>>()?;
        goldens
            .get_mut(name)
            .expect("section inserted above")
            .push((size, thr, dist));
    }
    Ok(goldens)
}

/// Loads the committed goldens from the benchmark's directory.
pub fn load(dir: &Path) -> Result<Goldens, String> {
    let path = dir.join(FILE);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse(&text)
}

/// Checks a computed front against its golden, point by point.
pub fn check_front(name: &str, golden: &[Point], got: &[Point]) -> Result<(), String> {
    if got == golden {
        return Ok(());
    }
    let show = |f: &[Point]| {
        f.iter()
            .map(|(size, thr, _)| format!("{size}@{thr}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    Err(format!(
        "{name}: front [{}] differs from the golden [{}]",
        show(got),
        show(golden)
    ))
}

/// The golden answer to "minimal storage for throughput ≥ `target`": the
/// smallest front point reaching it, or `None` above the maximum.
pub fn min_size(golden: &[Point], target: Rational) -> Option<u64> {
    golden.iter().filter(|p| p.1 >= target).map(|p| p.0).min()
}

/// The unpruned reference options: no static certificates, no dominance
/// records, no neighbour warm starts, one thread.
fn reference_options(observed: ActorId) -> ExploreOptions {
    ExploreOptions {
        observed: Some(observed),
        static_prune: false,
        warm_start_neighbours: false,
        threads: 1,
        ..ExploreOptions::default()
    }
}

/// Computes the front of `name` through the unpruned reference path: the
/// exhaustive driver for modem, cd2dat and the CSDF refinements, the
/// guided driver for satellite and the generated graph (whose exhaustive
/// searches take minutes).
pub fn reference_front(name: &str) -> Result<Vec<Point>, String> {
    let source = match name.strip_prefix("csdf-") {
        Some(split) => {
            let (a, b) = split
                .split_once('-')
                .and_then(|(a, b)| Some((a.parse().ok()?, b.parse().ok()?)))
                .ok_or_else(|| format!("bad CSDF golden name {name}"))?;
            let g = inputs::csdf_refinement(a, b);
            let r = buffy_csdf::csdf_explore(
                &g,
                &CsdfExploreOptions {
                    static_prune: false,
                    warm_start_neighbours: false,
                    threads: 1,
                    ..CsdfExploreOptions::default()
                },
            )
            .map_err(|e| format!("{name}: {e}"))?;
            return Ok(points(r.pareto.points()));
        }
        None if name == "gen" => {
            let g = inputs::gen_base_config().generate();
            let obs = g
                .actor_by_name(&inputs::gen_observed_name())
                .expect("observed actor exists");
            let r = buffy_core::explore_dependency_guided(&g, &reference_options(obs))
                .map_err(|e| format!("{name}: {e}"))?;
            return Ok(points(r.pareto.points()));
        }
        None => inputs::source(name, 0)?,
    };
    let (model, observed) = inputs::parse(&source)?;
    let Model::Sdf(g) = model else {
        return Err(format!("{name}: expected an SDF graph"));
    };
    let opts = reference_options(observed);
    let r = if name == "satellite" {
        buffy_core::explore_dependency_guided(&g, &opts)
    } else {
        buffy_core::explore_design_space(&g, &opts)
    }
    .map_err(|e| format!("{name}: {e}"))?;
    Ok(points(r.pareto.points()))
}

/// Every graph a golden is kept for.
pub fn golden_names() -> Vec<String> {
    let mut names: Vec<String> = inputs::GALLERY.iter().map(|s| s.to_string()).collect();
    names.push("gen".into());
    names.extend(
        inputs::csdf_family()
            .into_iter()
            .map(|(a, b)| format!("csdf-{a}-{b}")),
    );
    names
}

/// Recomputes every golden through the reference path.
pub fn regenerate() -> Result<Goldens, String> {
    golden_names()
        .into_iter()
        .map(|name| Ok((name.clone(), reference_front(&name)?)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir() -> &'static Path {
        Path::new(env!("CARGO_MANIFEST_DIR"))
    }

    #[test]
    fn committed_goldens_match_the_unpruned_reference() {
        let committed = load(dir()).expect("golden file parses");
        let fresh = regenerate().expect("reference searches succeed");
        assert_eq!(render(&committed), render(&fresh));
    }

    #[test]
    fn exhaustive_and_guided_agree_on_cd2dat() {
        let source = inputs::source("cd2dat", 0).unwrap();
        let (model, observed) = inputs::parse(&source).unwrap();
        let Model::Sdf(g) = model else { unreachable!() };
        let opts = ExploreOptions {
            observed: Some(observed),
            ..ExploreOptions::default()
        };
        let exhaustive = buffy_core::explore_design_space(&g, &opts).unwrap();
        let guided = buffy_core::explore_dependency_guided(&g, &opts).unwrap();
        assert_eq!(
            points(exhaustive.pareto.points()),
            points(guided.pareto.points())
        );
        let golden = load(dir()).unwrap();
        check_front("cd2dat", &golden["cd2dat"], &points(guided.pareto.points())).unwrap();
    }

    #[test]
    fn file_format_round_trips() {
        let mut g = Goldens::new();
        g.insert(
            "x".into(),
            vec![
                (6, Rational::new(1, 7), vec![4, 2]),
                (10, Rational::new(1, 4), vec![6, 4]),
            ],
        );
        assert_eq!(parse(&render(&g)).unwrap(), g);
        assert_eq!(min_size(&g["x"], Rational::new(1, 5)), Some(10));
        assert_eq!(min_size(&g["x"], Rational::new(1, 3)), None);
    }
}
