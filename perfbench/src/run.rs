//! One run of a workload: the set-ups, then whole rounds until the run's time is
//! up.
//!
//! A round is always the same operations, in three parts: one sweep round (the
//! paper's Figures 10–12, `figures.rs`), one block of the two serving clients
//! (`serving.rs`) and one durable round (`durable.rs`). Every run therefore
//! measures every end-to-end metric, and fails the same share of its operations
//! (the two known faults) whatever its length. The workloads differ in how the
//! serving and durable parts draw their keys; the sweep does not depend on them.

use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::check::order_totals;
use crate::data::{self, generate, Tpch};
use crate::durable::{self, Durable, Model};
use crate::figures::{self, Figures, Point};
use crate::measure::{secs, timed, Report, Tally};
use crate::rng::Rng;
use crate::serving::{self, Serving};
use crate::trace::Tracer;
use crate::Config;

/// How the serving and durable parts draw the customer or account of an operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Keys {
    /// Log-uniform: a few keys are hot, and the tail reaches the whole domain.
    Skewed,
    /// Every key alike.
    Uniform,
}

impl Keys {
    pub fn draw(self, rng: &mut Rng, n: u64) -> u64 {
        match self {
            Keys::Skewed => rng.skewed(n),
            Keys::Uniform => rng.below(n),
        }
    }
}

/// The sizes of a run's parts.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub figures: data::Size,
    pub serving: data::Size,
    pub serving_mix: serving::Mix,
    pub durable: durable::Size,
}

pub const SIZES: Sizes = Sizes {
    figures: data::Size::PAPER,
    serving: serving::SIZE,
    serving_mix: serving::MIX,
    durable: durable::SIZE,
};

/// The inputs of a run, generated from its seed, and the benchmark's own expected
/// values.
pub struct Inputs {
    pub keys: Keys,
    pub figures_db: Tpch,
    pub points: Vec<Point>,
    pub serving_db: Tpch,
    /// Per-customer order totals of `serving_db` before any insert.
    pub serving_totals: Vec<Option<f64>>,
    pub model: Model,
}

impl Inputs {
    pub fn generate(sizes: &Sizes, seed: u64, keys: Keys) -> Inputs {
        let figures_db = generate(&sizes.figures, seed);
        let points = figures::sweep(&figures_db);
        let serving_db = generate(&sizes.serving, seed);
        let serving_totals = order_totals(&serving_db);
        Inputs {
            keys,
            figures_db,
            points,
            serving_db,
            serving_totals,
            model: Model::generate(&sizes.durable, seed, keys),
        }
    }
}

/// What a part of a round records into.
pub struct Ctx<'a> {
    pub tally: &'a mut Tally,
    pub tracer: &'a mut Tracer,
    pub traced: bool,
    /// The round's number, from 0.
    pub round: usize,
}

/// A directory of this process's own inside the benchmark's output directory.
pub fn scratch_dir(tag: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{tag}-{}", std::process::id()))
}

/// Runs `workload` on `inputs`. Its data directories live under a scratch
/// directory of its own, removed at the end.
pub fn run(cfg: &Config, sizes: &Sizes, inputs: Inputs, workload: &str) -> Report {
    let scratch = scratch_dir(&format!("run-{workload}"));
    let mut report = Report::default();
    let outcome = measure(cfg, sizes, inputs, workload, &scratch, &mut report);
    let _ = std::fs::remove_dir_all(&scratch);
    if let Err(e) = outcome {
        report.tally.wrong("run", &e);
    }
    report
}

/// The layers whose self time the traced run reports; `op` is the benchmark's own
/// work between calls and `engine` the `Session` call as a whole.
const LAYERS: &[&str] = &[
    "op",
    "engine",
    "parser",
    "optimizer",
    "exec",
    "storage",
    "stats",
    "persist",
];

fn measure(
    cfg: &Config,
    sizes: &Sizes,
    inputs: Inputs,
    workload: &str,
    scratch: &Path,
    report: &mut Report,
) -> Result<(), String> {
    // Each set-up builds all three engines, the durable one in a fresh directory;
    // the last set-up is measured. Turning the inputs into rows, and dropping the
    // previous set-up, are outside the timed part.
    let mut setups = data::SetupSamples::default();
    let mut built = None;
    for i in 0..cfg.setups.max(1) {
        if let Some((_, _, _, dir)) = built.take() {
            let _ = std::fs::remove_dir_all::<PathBuf>(dir);
        }
        let dir = scratch.join(format!("data-{i}"));
        let rows = (
            inputs.figures_db.tables(),
            serving::tables(&inputs.serving_db),
            inputs.model.input_rows(),
        );
        let (engines, took) = timed(|| -> Result<_, String> {
            let sweep = figures::set_up(rows.0, &inputs.points)?;
            let serve = serving::set_up(&inputs.serving_db, rows.1)?;
            let durable = durable::set_up(&dir, rows.2)?;
            Ok((sweep, serve, durable))
        });
        let (sweep, serve, durable) = engines?;
        setups.push(took, &[sweep.1, serve.1, durable.1]);
        built = Some((sweep.0, serve.0, durable.0, dir));
    }
    let (sweep, serve, durable, dir) = built.expect("at least one set-up ran");

    let origin = Instant::now();
    let mut tracer = Tracer::new(origin, 0);
    let mut figures = Figures::new(sweep, inputs.points);
    let mut serving = Serving::new(
        serve,
        &inputs.serving_db,
        &inputs.serving_totals,
        cfg.seed,
        inputs.keys,
        sizes.serving_mix,
        origin,
    );
    let mut durable = Durable::new(
        durable,
        dir,
        scratch.to_path_buf(),
        inputs.model,
        sizes.durable,
        cfg.seed,
    )?;
    let mut traced_round_s = vec![];
    let mut plain_round_s = vec![];
    let start = Instant::now();
    let mut round = 0usize;
    while round == 0 || secs(start.elapsed()) < cfg.seconds {
        // In the traced run every other round is traced; the untraced rounds give
        // the tracing overhead and the cost model's regret.
        let traced = cfg.trace && round % 2 == 1;
        tracer.set_enabled(traced);
        let mut ctx = Ctx {
            tally: &mut report.tally,
            tracer: &mut tracer,
            traced,
            round,
        };
        let (done, took) = timed(|| {
            figures.round(&mut ctx);
            serving.block(&mut ctx);
            durable.round(&mut ctx)
        });
        done?;
        if traced {
            traced_round_s.push(secs(took));
        } else {
            plain_round_s.push(secs(took));
        }
        round += 1;
    }
    eprintln!(
        "perfbench {workload}: {round} rounds, {} operations in {:.1} s",
        report.tally.attempted,
        secs(start.elapsed())
    );

    if !cfg.trace {
        setups.report_setup(report);
        figures.report(report);
        serving.report(report);
        durable.report(report);
        return Ok(());
    }
    figures.report_layers(report, &tracer);
    durable.report_layers(report, &tracer);
    serving.report_layers(report, &mut tracer);
    setups.report_layers(report);
    crate::finish_trace(
        report,
        &tracer,
        workload,
        LAYERS,
        &mut traced_round_s,
        &mut plain_round_s,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use decorr_common::Value;

    const TINY: Sizes = Sizes {
        figures: data::Size {
            customers: 30,
            orders_per_customer: 2,
            parts: 80,
            categories: 12,
            customer_categories: 5,
        },
        serving: data::Size {
            customers: 64,
            orders_per_customer: 2,
            parts: 0,
            categories: 0,
            customer_categories: 5,
        },
        serving_mix: serving::Mix {
            reads: 16,
            inserts: 4,
        },
        durable: durable::Size {
            accounts: 20,
            events: 100,
            stream_pairs: 3,
            batches: 1,
            cycles: 2,
        },
    };

    fn config(seconds: f64, trace: bool) -> Config {
        Config {
            seed: 3,
            seconds,
            trace,
            setups: 2,
        }
    }

    /// A tiny run; `name` keeps the scratch directories of tests running at the
    /// same time apart.
    fn tiny_run(name: &str, cfg: &Config, keys: Keys, corrupt: impl FnOnce(&mut Inputs)) -> Report {
        let mut inputs = Inputs::generate(&TINY, cfg.seed, keys);
        corrupt(&mut inputs);
        run(cfg, &TINY, inputs, &format!("test-{name}"))
    }

    /// The metric names a section of `BENCHMARK.json` lists.
    fn manifest_names(section: &str) -> Vec<String> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let start = text.find(&format!("\"{section}\"")).expect(section);
        let body = &text[start..];
        let body = &body[..body.find(']').expect("a list")];
        body.split("\"name\"")
            .skip(1)
            .map(|rest| rest.split('"').nth(1).expect("a name").to_string())
            .collect()
    }

    fn names(report: &Report) -> Vec<String> {
        let mut names: Vec<String> = report.metrics.iter().map(|m| m.0.clone()).collect();
        names.sort();
        names
    }

    #[test]
    fn one_tiny_round_fails_only_the_known_faults_and_reports_every_metric() {
        for keys in [Keys::Skewed, Keys::Uniform] {
            let report = tiny_run("round", &config(0.0, false), keys, |_| {});
            assert!(report.tally.correct(), "{:?}", report.tally.by_kind);
            // 5 sweep points, each 3 queries and 2 comparisons; 2 x 20 serving
            // operations and an ANALYZE; 2 durable cycles of 4 x 3 + 8.
            assert_eq!(report.tally.attempted, 5 * 5 + 2 * 20 + 1 + 2 * (4 * 3 + 8));
            assert_eq!(report.tally.by_kind["schema_agreement"], 5);
            assert_eq!(report.tally.by_kind["crash_reopen"], 2);
            assert_eq!(report.tally.failed, 7);
            let mut expected = manifest_names("end_to_end");
            expected.sort();
            assert_eq!(names(&report), expected);
            for (name, value, _) in &report.metrics {
                assert!(*value > 0.0, "{name} = {value}");
            }
        }
    }

    #[test]
    fn traced_run_reports_every_per_layer_metric_and_its_counts_repeat() {
        let counts = [
            "exec.iterative_rows_scanned",
            "exec.decorrelated_rows_scanned",
            "exec.udf_invocations",
            "persist.wal_bytes_per_row",
            "persist.snapshot_bytes",
            "persist.records_replayed",
        ];
        let first = tiny_run("traced", &config(0.3, true), Keys::Skewed, |_| {});
        let second = tiny_run("traced", &config(0.3, true), Keys::Skewed, |_| {});
        assert!(first.tally.correct(), "{:?}", first.tally.by_kind);
        let mut expected = manifest_names("per_layer");
        expected.sort();
        assert_eq!(names(&first), expected);
        for (name, value, _) in &first.metrics {
            assert!(value.is_finite(), "{name} = {value}");
        }
        for name in counts {
            assert!(first.get(name).unwrap() > 0.0, "{name}");
            assert_eq!(first.get(name), second.get(name), "{name}");
        }
        assert_eq!(
            first.get("exec.udf_invocations"),
            Some(10.0 + 50.0 + 10.0 + 5.0 + 10.0)
        );
    }

    #[test]
    fn a_corrupted_sweep_expectation_is_a_failed_operation() {
        let report = tiny_run("sweep", &config(0.0, false), Keys::Skewed, |inputs| {
            inputs.points[2].expected[0].values[1] = Value::str("Nobody");
        });
        assert!(!report.tally.correct());
        assert_eq!(report.tally.by_kind["figures.query"], 3, "one per strategy");
    }

    #[test]
    fn a_corrupted_serving_total_is_a_failed_operation() {
        // Every customer expected to be Platinum: the reads must disagree.
        let report = tiny_run("serving", &config(0.0, false), Keys::Uniform, |inputs| {
            for total in &mut inputs.serving_totals {
                *total = total.map(|t| t + 1e9);
            }
        });
        assert!(!report.tally.correct());
        assert!(report.tally.by_kind["serving.read"] > 0);
    }

    #[test]
    fn a_lost_acknowledged_write_is_a_failed_operation() {
        let report = tiny_run("durable", &config(0.0, false), Keys::Skewed, |inputs| {
            inputs.model.forget_last_event();
        });
        assert!(!report.tally.correct());
        assert!(report.tally.by_kind["durable.reopen"] >= 1);
    }
}
