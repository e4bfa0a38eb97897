//! Direct, timed calls into the query layers for the traced run: the parser
//! (`parse_query` + `plan_select`), the optimizer (`PassManager::optimize`) and the
//! executor (`Executor::execute`), built the way a session builds them.

use std::sync::Arc;
use std::time::Duration;

use decorr_algebra::RelExpr;
use decorr_common::Result;
use decorr_engine::{Engine, ExecutionStrategy};
use decorr_exec::executor::ExecStats;
use decorr_exec::{CatalogProvider, Executor, UdfMemo};
use decorr_optimizer::{OptimizeMode, OptimizeOutcome, PassManager};

use crate::trace::Tracer;

pub fn parse(t: &mut Tracer, span: &'static str, sql: &str) -> Result<(RelExpr, Duration)> {
    let (plan, took) = t.span(span, || {
        decorr_parser::parse_query(sql).and_then(|select| decorr_parser::plan_select(&select))
    });
    Ok((plan?, took))
}

/// The per-query dedup cache a session attaches (the engine's own constant).
const DEDUP_CAPACITY: usize = 65_536;

/// The pipeline a session runs for `strategy`.
fn pipeline(strategy: ExecutionStrategy) -> PassManager {
    match strategy {
        ExecutionStrategy::Iterative => PassManager::cleanup_pipeline(),
        ExecutionStrategy::Decorrelated => {
            PassManager::decorrelation_pipeline().with_mode(OptimizeMode::ForceDecorrelated)
        }
        ExecutionStrategy::Auto => PassManager::decorrelation_pipeline(),
    }
}

/// Optimizes `plan` against the engine's current catalog, cold: without the
/// engine's plan cache and feedback store, so the call leaves both as they were.
pub fn optimize(
    t: &mut Tracer,
    span: &'static str,
    engine: &Engine,
    plan: &RelExpr,
    strategy: ExecutionStrategy,
) -> Result<(OptimizeOutcome, Duration)> {
    let catalog = engine.catalog();
    let registry = engine.registry();
    let manager = pipeline(strategy).with_parallelism(engine.parallelism());
    let provider = CatalogProvider::new(&catalog, &registry);
    let (outcome, took) = t.span(span, || {
        manager.optimize(plan, &registry, &provider, Some(catalog.as_ref()))
    });
    Ok((outcome?, took))
}

/// Executes an optimized plan with the engine's default executor configuration,
/// as a session does: auxiliary aggregates registered in a per-query registry
/// copy, a per-query dedup cache, and a UDF memo of the engine's capacity. The
/// memo is a fresh one, so repeats within the query hit it but results memoized by
/// earlier queries do not; the feedback-derived predicate-ordering hints are left
/// out. Returns the time and the executor's counters.
pub fn execute(
    t: &mut Tracer,
    span: &'static str,
    engine: &Engine,
    outcome: &OptimizeOutcome,
) -> Result<(Duration, ExecStats)> {
    let mut registry = engine.registry();
    if !outcome.aux_aggregates.is_empty() {
        let mut copy = (*registry).clone();
        for agg in &outcome.aux_aggregates {
            copy.register_aggregate(agg.clone());
        }
        registry = Arc::new(copy);
    }
    let config = engine.exec_config();
    let memo_capacity = engine.udf_memo_stats().capacity as usize;
    let mut executor = Executor::with_config(engine.catalog(), registry, config.clone());
    if config.udf_memoization && memo_capacity > 0 {
        executor = executor.with_udf_memo(Arc::new(UdfMemo::with_capacity(memo_capacity)));
    }
    if config.udf_batching {
        executor = executor.with_udf_dedup(Arc::new(UdfMemo::with_capacity(DEDUP_CAPACITY)));
    }
    let (result, took) = t.span(span, || executor.execute(&outcome.plan));
    result.map(|_| (took, executor.stats_snapshot()))
}

/// Optimizer pass names, in pipeline order, with the metric each one reports.
pub const PASSES: &[(&str, &str)] = &[
    ("normalize", "optimizer.normalize_us"),
    ("algebraize-merge", "optimizer.algebraize-merge_us"),
    ("apply-removal", "optimizer.apply-removal_us"),
    ("cleanup", "optimizer.cleanup_us"),
    ("strategy-choice", "optimizer.strategy-choice_us"),
];

/// Per-pass durations of one cold optimize, in microseconds, in `PASSES` order.
pub fn pass_us(outcome: &OptimizeOutcome) -> Vec<Option<f64>> {
    PASSES
        .iter()
        .map(|(pass, _)| {
            outcome
                .report
                .pass(pass)
                .map(|p| p.duration.as_secs_f64() * 1e6)
        })
        .collect()
}
