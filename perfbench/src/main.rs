//! The repository's benchmark: rounds of the paper's sweeps, a two-session serving
//! block and a durable block against the public `Engine` / `Session` API, each
//! checked against the benchmark's own computation.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload skewed|uniform --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`. With `--trace 0` the metrics are the end-to-end
//! metrics; with `--trace 1` they are the per-layer metrics, and the spans are
//! written to `perfbench/out/trace-<workload>.jsonl`. See README.md.

mod check;
mod data;
mod durable;
mod figures;
mod layers;
mod measure;
mod rng;
mod run;
mod serving;
mod trace;

use std::path::Path;
use std::process::ExitCode;

use measure::{median, Report};
use trace::Tracer;

/// Settings of one run.
#[derive(Debug, Clone)]
pub struct Config {
    pub seed: u64,
    /// Length of the measured phase (set-up not included).
    pub seconds: f64,
    pub trace: bool,
    /// Set-ups per run; `setup_s` is their median, and the last one is measured.
    pub setups: usize,
}

const USAGE: &str = "usage: perfbench --workload skewed|uniform --seed N --seconds S --trace 0|1";

fn parse_args(args: &[String]) -> Result<(String, Config), String> {
    let mut workload = None;
    let mut cfg = Config {
        seed: 1,
        seconds: 10.0,
        trace: false,
        setups: 9,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => cfg.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                cfg.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds: {value}"))?;
                if !(cfg.seconds > 0.0 && cfg.seconds <= 600.0) {
                    return Err(format!("--seconds out of range: {value}"));
                }
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace: {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, cfg))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, cfg) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let keys = match workload.as_str() {
        "skewed" => run::Keys::Skewed,
        "uniform" => run::Keys::Uniform,
        other => {
            eprintln!("perfbench: unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let inputs = run::Inputs::generate(&run::SIZES, cfg.seed, keys);
    let report = run::run(&cfg, &run::SIZES, inputs, &workload);
    for (kind, n) in &report.tally.by_kind {
        eprintln!("perfbench: {n} failed {kind}");
    }
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}

/// Adds the traced run's common figures: the self time of each of `layers` as a
/// share of all traced time, and the tracing overhead (median traced unit of work
/// against the median untraced one, in percent). Writes the spans out.
pub fn finish_trace(
    report: &mut Report,
    tracer: &Tracer,
    workload: &str,
    layers: &[&str],
    traced: &mut [f64],
    untraced: &mut [f64],
) {
    report.metric(
        "trace.overhead_pct",
        100.0 * (median(traced) / median(untraced) - 1.0),
        "%",
    );
    let by_layer = tracer.self_time_by_layer();
    let total: u64 = by_layer.values().sum();
    for layer in layers {
        let ns = by_layer.get(layer).copied().unwrap_or(0);
        report.metric(
            format!("{layer}.self_pct"),
            100.0 * ns as f64 / total.max(1) as f64,
            "%",
        );
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{workload}.jsonl"));
    match tracer.write_jsonl(&path) {
        Ok(()) => eprintln!(
            "perfbench: {} spans written to {}",
            tracer.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
}
