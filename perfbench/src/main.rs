//! The buffy benchmark: one command runs a workload, checks every front
//! and answer against the committed goldens, and prints every metric by
//! name with its unit. See `NOTES.md` for the workloads and metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fronts|constraint --seed N --seconds S --trace 0|1
//! ```

mod golden;
mod inputs;
mod ops;
mod report;
mod stats;
mod trace;
mod worker;
mod workload;

use std::path::Path;
use std::process::ExitCode;
use workload::Workload;

/// The benchmark's own directory: goldens and the trace output.
fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// `--name value` pairs.
fn option<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn number(args: &[String], name: &str) -> Result<u64, String> {
    let v = option(args, name).ok_or_else(|| format!("missing {name}"))?;
    v.parse()
        .map_err(|_| format!("{name}: not a whole number: {v}"))
}

fn run(args: &[String]) -> Result<bool, String> {
    let dir = bench_dir();
    if args.iter().any(|a| a == "--regen-goldens") {
        let goldens = golden::regenerate()?;
        let path = dir.join(golden::FILE);
        std::fs::write(&path, golden::render(&goldens)).map_err(|e| e.to_string())?;
        println!("wrote {}", path.display());
        return Ok(true);
    }
    let seed = number(args, "--seed")?;
    let trace = number(args, "--trace")? == 1;
    if args.iter().any(|a| a == "--query-worker") {
        worker::serve(seed, trace)?;
        return Ok(true);
    }
    let name = option(args, "--workload").ok_or("missing --workload")?;
    let workload = Workload::parse(name)?;
    let seconds = number(args, "--seconds")?;

    let run = workload::run(dir, workload, seed, seconds, trace)?;
    let (attempted, failed) = report::counts(&run);
    let e2e = report::end_to_end(&run);
    let failed_frac = failed as f64 / attempted.max(1) as f64;
    println!(
        "{name}, seed {seed}: {} passes, {attempted} operations, {failed} failed, {} mismatches",
        run.passes.len(),
        run.mismatches.len()
    );
    let pass_s: Vec<String> = run
        .passes
        .iter()
        .map(|p| {
            let mark = if p.traced { "t" } else { "" };
            let ops: Vec<String> = p
                .op_ns
                .iter()
                .map(|ns| format!("{:.3}", *ns as f64 / 1e9))
                .collect();
            if ops.len() <= 6 {
                format!("{:.3}{mark}[{}]", p.ns as f64 / 1e9, ops.join(" "))
            } else {
                format!("{:.3}{mark}", p.ns as f64 / 1e9)
            }
        })
        .collect();
    println!("  passes, s (t: traced) [operations]: {}", pass_s.join(" "));
    let bursts: Vec<String> = run
        .setup_ns
        .iter()
        .map(|s| format!("{:.4}", s.0 as f64 / 1e6))
        .collect();
    println!(
        "  set-up bursts, fastest repetition, ms: {}",
        bursts.join(" ")
    );
    for m in &e2e {
        println!("  {:<16} {:>14.6} {}", m.name, m.value, m.unit);
    }
    println!("  {:<16} {:>14.6} frac", "failed_frac", failed_frac);
    for m in run.mismatches.iter().take(5) {
        println!("  MISMATCH {m}");
    }
    let metrics = if trace {
        print!(
            "{}",
            report::layer_table(name, seed, workload.graphs().len(), &run)
        );
        let out = dir.join("out");
        std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;
        let path = out.join(format!("trace-{name}-seed{seed}.jsonl"));
        std::fs::write(&path, report::spans_jsonl(&run)).map_err(|e| e.to_string())?;
        println!("  spans written to {}", path.display());
        report::per_layer(&run, workload == Workload::Constraint)
    } else {
        e2e
    };
    let correct = run.mismatches.is_empty();
    println!(
        "{}",
        report::result_json(correct, attempted, failed, &metrics)
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
