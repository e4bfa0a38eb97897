//! The sweep part of a round: the Figure 10/11/12 sweeps. Nineteen sweep points
//! over the three experiment UDFs, each run under the iterative, decorrelated and
//! cost-based strategies from one session, with the cross-query UDF memo off so
//! every pass pays every invocation, as in the paper.

use std::time::Duration;

use decorr_common::{Row, Value};
use decorr_engine::{Engine, ExecutionStrategy, QueryOptions, QueryResult, Session};

use crate::check::{category_part_counts, discount, order_totals, same_rows, service_level};
use crate::data::{self, Tpch};
use crate::layers;
use crate::measure::{median, ms, quantile, secs, us, Report, Tally};
use crate::run::Ctx;
use crate::trace::Tracer;

const STRATEGIES: [ExecutionStrategy; 3] = [
    ExecutionStrategy::Iterative,
    ExecutionStrategy::Decorrelated,
    ExecutionStrategy::Auto,
];
const PASS_METRICS: [&str; 3] = ["iterative_pass_s", "decorrelated_pass_s", "auto_pass_s"];

/// One sweep point: a query and the rows it must return.
pub struct Point {
    /// 1, 2 or 3: the paper's experiment (Figure 10, 11 or 12).
    pub experiment: usize,
    pub sql: String,
    pub expected: Vec<Row>,
}

/// The paper's sweeps, limited to what the table sizes allow: invocations are
/// orders (Figure 10), customers (Figure 11) and categories (Figure 12) touched.
pub fn sweep(db: &Tpch) -> Vec<Point> {
    let mut points = vec![];
    for n in [10, 50, 100, 500, 1_000, 5_000, 10_000, 20_000] {
        if n <= db.orders.len() as i64 {
            points.push(Point {
                experiment: 1,
                sql: format!(
                    "select orderkey, discount(totalprice, custkey) as totaldiscount \
                     from orders where orderkey <= {n}"
                ),
                expected: db.orders[..n as usize]
                    .iter()
                    .map(|o| Row::new(vec![Value::Int(o.orderkey), Value::Float(discount(db, o))]))
                    .collect(),
            });
        }
    }
    let totals = order_totals(db);
    for n in [10, 50, 100, 500, 1_000, 2_000] {
        if n <= db.customers.len() as i64 {
            points.push(Point {
                experiment: 2,
                sql: format!(
                    "select custkey, service_level(custkey) as level \
                     from customer where custkey <= {n}"
                ),
                expected: (1..=n)
                    .map(|c| {
                        let level = service_level(totals[(c - 1) as usize]);
                        Row::new(vec![Value::Int(c), Value::str(level)])
                    })
                    .collect(),
            });
        }
    }
    let counts = category_part_counts(db);
    for n in [5, 10, 50, 100, 200] {
        if n <= db.categories {
            points.push(Point {
                experiment: 3,
                sql: format!(
                    "select categorykey, category_part_count(categorykey) as nparts \
                     from categories where categorykey < {n}"
                ),
                expected: (0..n)
                    .map(|c| Row::new(vec![Value::Int(c), Value::Int(counts[c as usize])]))
                    .collect(),
            });
        }
    }
    points
}

fn options(strategy: ExecutionStrategy) -> QueryOptions {
    QueryOptions {
        strategy,
        ..QueryOptions::default()
    }
}

/// Builds a ready engine: schema, rows, indexes, ANALYZE, the three UDFs, and one
/// warm-up query per experiment and strategy.
pub fn set_up(
    tables: Vec<(&'static str, Vec<Row>)>,
    points: &[Point],
) -> Result<(Session, data::SetupTimes), String> {
    let engine = Engine::builder().udf_memo_capacity(0).build();
    let session = engine.session();
    let times = data::install(
        &session,
        data::SCHEMA,
        tables,
        data::INDEXES,
        &[
            data::DISCOUNT,
            data::SERVICE_LEVEL,
            data::CATEGORY_PART_COUNT,
        ],
    )
    .map_err(|e| format!("set-up failed: {e}"))?;
    for (i, point) in points.iter().enumerate() {
        // The first point of each experiment is its smallest.
        if i == 0 || points[i - 1].experiment != point.experiment {
            for strategy in STRATEGIES {
                session
                    .query_with(&point.sql, &options(strategy))
                    .map_err(|e| format!("warm-up failed: {e}"))?;
            }
        }
    }
    Ok((session, times))
}

/// What one strategy's query at one point returned.
struct Answer {
    took: Duration,
    result: Option<QueryResult>,
}

/// What the engine reported over one pass.
#[derive(Default)]
struct PassCounts {
    rows_scanned: u64,
    udf_invocations: u64,
    /// Wall time and number of UDF calls whose body ran.
    udf_time: Duration,
    udf_evaluated: u64,
}

/// Per-layer figures of the traced rounds.
#[derive(Default)]
struct LayerSamples {
    iterative_execute_ms: Vec<f64>,
    decorrelated_execute_ms: Vec<f64>,
    udf_call_us: Vec<f64>,
    /// Exact per-pass counts: the same in every round.
    iterative_rows_scanned: u64,
    decorrelated_rows_scanned: u64,
    udf_invocations: u64,
}

/// The sweep part of a run: its session, its points and what its rounds measured.
pub struct Figures {
    session: Session,
    points: Vec<Point>,
    /// Wall time of each untraced pass, per strategy.
    pass_s: [Vec<f64>; 3],
    /// Wall time of each untraced query, per point and strategy.
    point_s: Vec<[Vec<f64>; 3]>,
    layers: LayerSamples,
}

impl Figures {
    pub fn new(session: Session, points: Vec<Point>) -> Figures {
        Figures {
            session,
            point_s: (0..points.len()).map(|_| Default::default()).collect(),
            points,
            pass_s: Default::default(),
            layers: LayerSamples::default(),
        }
    }

    /// One round: a pass over every point per strategy. The strategy order and the
    /// first point of a pass rotate with the round, so slow phases of the host do
    /// not always land on the same strategy or point.
    pub fn round(&mut self, ctx: &mut Ctx) {
        let mut answers: Vec<[Option<Answer>; 3]> =
            (0..self.points.len()).map(|_| Default::default()).collect();
        for k in 0..STRATEGIES.len() {
            let s = (k + ctx.round) % STRATEGIES.len();
            let strategy = STRATEGIES[s];
            let mut pass = Duration::ZERO;
            let mut counts = PassCounts::default();
            let mut execute_ms = 0.0;
            for j in 0..self.points.len() {
                let p = (j + ctx.round) % self.points.len();
                let point = &self.points[p];
                ctx.tracer.begin_op();
                let op = ctx.tracer.enter("op.query");
                let (result, took) = ctx.tracer.span("engine.query", || {
                    self.session.query_with(&point.sql, &options(strategy))
                });
                if ctx.traced {
                    match traced_layers(ctx.tracer, self.session.engine(), &point.sql, strategy) {
                        Ok(exec) => execute_ms += exec,
                        Err(e) => ctx.tally.wrong("figures.layers", &e),
                    }
                }
                ctx.tracer.exit(op);
                pass += took;
                let result = match result {
                    Ok(r) => r,
                    Err(e) => {
                        ctx.tally
                            .wrong("figures.query", &format!("{}: {e}", point.sql));
                        answers[p][s] = Some(Answer { took, result: None });
                        continue;
                    }
                };
                ctx.tally
                    .check("figures.query", check_answer(point, strategy, &result));
                counts.rows_scanned += result.exec_stats.rows_scanned;
                counts.udf_invocations += result.exec_stats.udf_invocations;
                for t in &result.udf_timings {
                    counts.udf_time += t.total;
                    counts.udf_evaluated += t.invocations;
                }
                answers[p][s] = Some(Answer {
                    took,
                    result: Some(result),
                });
            }
            if !ctx.traced {
                self.pass_s[s].push(secs(pass));
            }
            let layers = &mut self.layers;
            match strategy {
                ExecutionStrategy::Iterative => {
                    layers.iterative_rows_scanned = counts.rows_scanned;
                    layers.udf_invocations = counts.udf_invocations;
                    if counts.udf_evaluated > 0 {
                        layers
                            .udf_call_us
                            .push(us(counts.udf_time) / counts.udf_evaluated as f64);
                    }
                    if ctx.traced {
                        layers.iterative_execute_ms.push(execute_ms);
                    }
                }
                ExecutionStrategy::Decorrelated => {
                    layers.decorrelated_rows_scanned = counts.rows_scanned;
                    if ctx.traced {
                        layers.decorrelated_execute_ms.push(execute_ms);
                    }
                }
                ExecutionStrategy::Auto => {}
            }
        }
        for (p, answer) in answers.iter().enumerate() {
            compare_strategies(ctx.tally, &self.points[p].sql, answer);
            if !ctx.traced {
                for (s, a) in answer.iter().enumerate() {
                    if let Some(a) = a {
                        self.point_s[p][s].push(secs(a.took));
                    }
                }
            }
        }
    }

    /// The end-to-end metrics: the median pass per strategy.
    pub fn report(&mut self, report: &mut Report) {
        for (samples, metric) in self.pass_s.iter_mut().zip(PASS_METRICS) {
            // The spread of the passes within this run, against that between runs.
            let (lo, mid, hi) = (
                quantile(samples, 0.25),
                quantile(samples, 0.5),
                quantile(samples, 0.75),
            );
            eprintln!(
                "perfbench figures: {metric} quartiles {lo:.3} {mid:.3} {hi:.3} over {} passes",
                samples.len()
            );
            report.metric(metric, mid, "s");
        }
    }

    /// The per-layer metrics of the traced run.
    pub fn report_layers(&mut self, report: &mut Report, tracer: &Tracer) {
        let spans = |name: &str| tracer.durations_us(name);
        report.metric(
            "parser.sweep_parse_us",
            median(&mut spans("parser.parse_sweep")),
            "us",
        );
        report.metric(
            "optimizer.sweep_optimize_cold_us",
            median(&mut spans("optimizer.optimize_auto")),
            "us",
        );
        report.metric("optimizer.regret_ratio", regret(&mut self.point_s), "ratio");
        let layers = &mut self.layers;
        report.metric(
            "exec.iterative_execute_ms",
            median(&mut layers.iterative_execute_ms),
            "ms",
        );
        report.metric(
            "exec.iterative_rows_scanned",
            layers.iterative_rows_scanned as f64,
            "count",
        );
        report.metric(
            "exec.udf_invocations",
            layers.udf_invocations as f64,
            "count",
        );
        report.metric("exec.udf_call_us", median(&mut layers.udf_call_us), "us");
        report.metric(
            "exec.decorrelated_execute_ms",
            median(&mut layers.decorrelated_execute_ms),
            "ms",
        );
        report.metric(
            "exec.decorrelated_rows_scanned",
            layers.decorrelated_rows_scanned as f64,
            "count",
        );
    }
}

/// Parse, cold optimize and execute of one point, timed layer by layer. Returns the
/// execute time in ms.
fn traced_layers(
    t: &mut Tracer,
    engine: &Engine,
    sql: &str,
    strategy: ExecutionStrategy,
) -> Result<f64, String> {
    let (optimize_span, execute_span) = match strategy {
        ExecutionStrategy::Iterative => ("optimizer.optimize_iterative", "exec.execute_iterative"),
        ExecutionStrategy::Decorrelated => (
            "optimizer.optimize_decorrelated",
            "exec.execute_decorrelated",
        ),
        ExecutionStrategy::Auto => ("optimizer.optimize_auto", "exec.execute_auto"),
    };
    let (plan, _) = layers::parse(t, "parser.parse_sweep", sql).map_err(|e| e.to_string())?;
    let (outcome, _) =
        layers::optimize(t, optimize_span, engine, &plan, strategy).map_err(|e| e.to_string())?;
    let (took, _) =
        layers::execute(t, execute_span, engine, &outcome).map_err(|e| e.to_string())?;
    Ok(ms(took))
}

/// The result of one strategy at one point against the expected rows, plus the
/// property every decorrelated plan must have: no UDF is invoked.
fn check_answer(
    point: &Point,
    strategy: ExecutionStrategy,
    result: &QueryResult,
) -> Result<(), String> {
    same_rows(&result.rows, &point.expected).map_err(|e| format!("{}: {e}", point.sql))?;
    if strategy == ExecutionStrategy::Decorrelated && result.exec_stats.udf_invocations != 0 {
        return Err(format!(
            "{}: decorrelated plan invoked UDFs {} times",
            point.sql, result.exec_stats.udf_invocations
        ));
    }
    Ok(())
}

/// Two operations per point and round: the three strategies return the same
/// multiset of rows, and the iterative and decorrelated plans name their output
/// columns alike. The second fails today (`orders.orderkey` against `orderkey`);
/// that difference, and only that one, is counted as the known fault
/// `schema_agreement`.
fn compare_strategies(tally: &mut Tally, sql: &str, answers: &[Option<Answer>; 3]) {
    let results: Vec<&QueryResult> = answers
        .iter()
        .filter_map(|a| a.as_ref().and_then(|a| a.result.as_ref()))
        .collect();
    if results.len() < 3 {
        tally.wrong(
            "figures.strategy_agreement",
            &format!("{sql}: a strategy failed"),
        );
        tally.wrong(
            "figures.schema_agreement",
            &format!("{sql}: a strategy failed"),
        );
        return;
    }
    let agreement = same_rows(&results[1].rows, &results[0].rows)
        .and_then(|()| same_rows(&results[2].rows, &results[0].rows))
        .map_err(|e| format!("{sql}: strategies disagree: {e}"));
    tally.check("figures.strategy_agreement", agreement);
    let names = |r: &QueryResult| -> Vec<String> {
        r.schema.columns.iter().map(|c| c.to_string()).collect()
    };
    match judge_names(&names(results[0]), &names(results[1])) {
        Ok(true) => tally.ok(),
        Ok(false) => tally.known_fault("schema_agreement"),
        Err(e) => tally.wrong("figures.schema_agreement", &format!("{sql}: {e}")),
    }
}

/// Whether the iterative and decorrelated plans name their columns alike
/// (`Ok(true)`), or differ only as the known fault does (`Ok(false)`): an
/// iterative name that is the decorrelated one behind a table qualifier, as
/// `orders.orderkey` against `orderkey`. Any other difference is an error.
fn judge_names(iterative: &[String], decorrelated: &[String]) -> Result<bool, String> {
    if iterative == decorrelated {
        return Ok(true);
    }
    let qualified = |i: &String, d: &String| {
        i.strip_suffix(d.as_str())
            .and_then(|q| q.strip_suffix('.'))
            .is_some_and(|table| !table.is_empty() && !table.contains('.'))
    };
    if iterative.len() == decorrelated.len()
        && iterative
            .iter()
            .zip(decorrelated)
            .all(|(i, d)| i == d || qualified(i, d))
    {
        Ok(false)
    } else {
        Err(format!(
            "column names differ: {iterative:?} against {decorrelated:?}"
        ))
    }
}

/// The cost model's regret: the sum over points of the cost-based strategy's
/// median time over the sum of the faster forced strategy's median time.
fn regret(point_s: &mut [[Vec<f64>; 3]]) -> f64 {
    let (mut auto, mut best) = (0.0, 0.0);
    for [iterative, decorrelated, chosen] in point_s {
        auto += median(chosen);
        best += median(iterative).min(median(decorrelated));
    }
    auto / best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_a_table_qualifier_is_the_known_schema_fault() {
        let names = |ns: &[&str]| -> Vec<String> { ns.iter().map(|n| n.to_string()).collect() };
        let decorrelated = names(&["orderkey", "totaldiscount"]);
        assert_eq!(judge_names(&decorrelated, &decorrelated), Ok(true));
        assert_eq!(
            judge_names(&names(&["orders.orderkey", "totaldiscount"]), &decorrelated),
            Ok(false)
        );
        for other in [
            &["orders.custkey", "totaldiscount"][..],
            &["orderkey", "discount"],
            &["orders.orderkey"],
            &["xorderkey", "totaldiscount"],
            &[".orderkey", "totaldiscount"],
        ] {
            assert!(
                judge_names(&names(other), &decorrelated).is_err(),
                "{other:?}"
            );
        }
    }
}
