//! End-to-end and per-layer benchmark of the dpc simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <l1_hits|tlb_thrash|paper_campaign> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Each run sets its workload up, measures it for `--seconds`, checks
//! every simulation (see `gate.rs`), and prints as its last stdout line
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! they are the per-layer ones, and the spans are written under
//! `perfbench/out/`. `--bless` (reference seed only) rewrites the stored
//! digests instead of comparing against them. See `METRICS.md`.

mod campaign;
mod gate;
mod layers;
mod paper;
mod probe;
mod replay;
mod report;
mod trace;

use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage: dpc-perfbench --workload <l1_hits|tlb_thrash|paper_campaign> \
                     [--seed <n>] [--seconds <n>] [--trace <0|1>] [--bless]";

/// Parsed command line.
pub struct Args {
    workload: String,
    /// Input seed (default: the reference seed).
    pub seed: u64,
    /// Length of the measuring window.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Record the reference digests instead of comparing against them.
    pub bless: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: gate::REFERENCE_SEED,
            seconds: 10.0,
            trace: false,
            bless: false,
        };
        while let Some(flag) = argv.next() {
            if flag == "--bless" {
                args.bless = true;
                continue;
            }
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
            match flag.as_str() {
                "--workload" => args.workload.clone_from(&value),
                "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
                "--seconds" => {
                    args.seconds = value.parse().map_err(|e| bad(&e))?;
                    if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
                        return Err(bad(&"not a duration"));
                    }
                }
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"expected 0 or 1")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if args.bless && args.seed != gate::REFERENCE_SEED {
            return Err(format!("--bless stores digests of seed {} only", gate::REFERENCE_SEED));
        }
        Ok(args)
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Set-up sampling: repeats `once` (which returns its seconds) until
/// `samples` holds at least `min` values and either `max` values or
/// `budget_s` seconds' worth.
pub fn sample_setups(
    samples: &mut Vec<f64>,
    min: usize,
    max: usize,
    budget_s: f64,
    mut once: impl FnMut() -> f64,
) {
    while samples.len() < min || (samples.len() < max && samples.iter().sum::<f64>() < budget_s) {
        samples.push(once());
    }
}

/// Identifier shared by every span of one run.
pub fn run_id(workload: &str, args: &Args) -> String {
    format!("{workload}-seed{}-{}", args.seed, if args.trace { "traced" } else { "untraced" })
}

/// Writes the spans of a traced run and prints the self time per span.
pub fn write_trace(tr: &trace::Tracer, workload: &str, args: &Args) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{workload}-seed{}.jsonl", args.seed));
    match tr.write(&path) {
        Ok(()) => println!("# spans: {}", path.display()),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
    for (name, secs) in tr.self_times() {
        println!("# self {name}: {secs:.6} s");
    }
}

/// Ends a run: blesses the digests if asked, then prints the result.
fn finish(gate: &gate::Gate, metrics: &report::Metrics, args: &Args) -> bool {
    if args.bless {
        match gate.bless() {
            Ok(()) => println!("# blessed the reference digests"),
            Err(e) => eprintln!("perfbench: cannot store the reference digests: {e}"),
        }
    } else if gate.has_reference() {
        println!("# digests compared against the stored reference (seed {})", args.seed);
    } else {
        println!("# digests compared across repetitions (seed {})", args.seed);
    }
    report::finish(gate, metrics)
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut dpc_env: Vec<(String, String)> =
        std::env::vars().filter(|(key, _)| key.starts_with("DPC_")).collect();
    dpc_env.sort();
    println!("# fingerprint {}", report::fingerprint(args.seed, &dpc_env));
    if !dpc_env.is_empty() {
        eprintln!(
            "perfbench: refusing to run with DPC_* set: the benchmark measures defaults only"
        );
        return ExitCode::from(2);
    }
    let correct = match args.workload.as_str() {
        "l1_hits" => replay::run(&replay::L1_HITS, &args),
        "tlb_thrash" => replay::run(&replay::TLB_THRASH, &args),
        "paper_campaign" => paper::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
