//! The serving part of a round: two client sessions, one thread each, on one
//! default-configured `Engine` without a data directory, in a closed loop.
//!
//! Each client draws a seeded stream over its own half of the customers: UDF-bearing
//! reads of one customer's few orders (`service_level` of each, which sums the
//! customer's orders), single-row inserts into `orders` (which invalidate the
//! memoized `service_level` results), and a rare `ANALYZE`. The key domain is
//! larger than the UDF memo and yields more distinct query texts than the plan
//! cache holds; the workload decides whether keys are skewed or uniform. Because a
//! client only reads and writes its own keys, its expected results follow from the
//! generated rows and its own insert log.

use std::collections::BTreeMap;
use std::time::Instant;

use decorr_common::{Row, Value};
use decorr_engine::{Engine, ExecutionStrategy, QueryResult, Session};

use crate::check::{same_rows, service_level};
use crate::data::{self, order_row, Order, Size, Tpch};
use crate::layers;
use crate::measure::{median, median_quantile, ms, secs, timed, us, Report, Tally};
use crate::rng::Rng;
use crate::run::{Ctx, Keys};
use crate::trace::Tracer;

pub const CLIENTS: usize = 2;
/// What a client runs per block: `reads` reads and `inserts` single-row inserts in
/// a random order, and client 0 one `ANALYZE` besides. The counts are exact, so
/// every block does the same work. The shares (4 reads to 1 insert, one `ANALYZE`
/// per 251 operations) are an assumption of this benchmark, a read-mostly stream
/// taken from no measured workload; the insert share sets much of the part's
/// operation rate.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    pub reads: usize,
    pub inserts: usize,
}

pub const MIX: Mix = Mix {
    reads: 100,
    inserts: 25,
};

#[derive(Clone, Copy)]
enum Op {
    Read,
    Insert,
    Analyze,
}

/// 16,384 customers: twice the engine's default UDF memo (8,192 entries).
pub const SIZE: Size = Size {
    customers: 16_384,
    orders_per_customer: 2,
    parts: 0,
    categories: 0,
    customer_categories: 25,
};

const TABLES: &[&str] = &["customer", "categorydiscount", "orders"];

/// The rows the set-up loads.
pub fn tables(db: &Tpch) -> Vec<(&'static str, Vec<Row>)> {
    db.tables()
        .into_iter()
        .filter(|(name, _)| TABLES.contains(name))
        .collect()
}

/// The customers a client owns: `lo..=hi`.
fn partition(client: usize, customers: i64) -> (i64, i64) {
    let share = customers / CLIENTS as i64;
    (client as i64 * share + 1, (client as i64 + 1) * share)
}

/// What a client knows about one of its customers: the order total and orderkeys.
struct Known {
    total: Option<f64>,
    orderkeys: Vec<i64>,
}

/// One client: its keys, its insert log, its stream and what it measured.
struct Client {
    lo: i64,
    hi: i64,
    known: BTreeMap<i64, Known>,
    rng: Rng,
    keys: Keys,
    /// Orderkeys above the generated ones, interleaved between the clients.
    next_orderkey: i64,
    tracer: Tracer,
    /// Latency of the untraced reads and single-row inserts of the block under
    /// way.
    read_ms: Vec<f64>,
    write_ms: Vec<f64>,
    plan_cache: (u64, u64),
    memo: (u64, u64),
    /// Per traced read that missed the plan cache and evaluated as many UDF calls
    /// as the direct execute: `Session::query` minus the parse timed separately,
    /// the session's own optimizer passes and the execute timed separately.
    overhead_us: Vec<f64>,
    pass_us: Vec<Vec<f64>>,
}

/// The serving part of a run.
pub struct Serving {
    session: Session,
    clients: Vec<Client>,
    mix: Mix,
    /// Operations per second of each untraced block.
    rate: Vec<f64>,
    /// Latency of the untraced reads and single-row inserts, a group per block.
    read_ms: Vec<Vec<f64>>,
    write_ms: Vec<Vec<f64>>,
}

impl Serving {
    /// `totals` are the expected per-customer order totals before any insert (the
    /// benchmark's own computation). Span times count from `origin`.
    pub fn new(
        session: Session,
        db: &Tpch,
        totals: &[Option<f64>],
        seed: u64,
        keys: Keys,
        mix: Mix,
        origin: Instant,
    ) -> Serving {
        let customers = db.customers.len() as i64;
        let mut rng = Rng::new(seed);
        let clients = (0..CLIENTS)
            .map(|client| {
                let (lo, hi) = partition(client, customers);
                let mut known: BTreeMap<i64, Known> = (lo..=hi)
                    .map(|c| {
                        let total = totals[(c - 1) as usize];
                        let orderkeys = vec![];
                        (c, Known { total, orderkeys })
                    })
                    .collect();
                for o in &db.orders {
                    if let Some(k) = known.get_mut(&o.custkey) {
                        k.orderkeys.push(o.orderkey);
                    }
                }
                Client {
                    lo,
                    hi,
                    known,
                    rng: rng.fork(100 + client as u64),
                    keys,
                    next_orderkey: db.orders.len() as i64 + 1 + client as i64,
                    tracer: Tracer::new(origin, 1 + client as u64),
                    read_ms: vec![],
                    write_ms: vec![],
                    plan_cache: (0, 0),
                    memo: (0, 0),
                    overhead_us: vec![],
                    pass_us: vec![vec![]; layers::PASSES.len()],
                }
            })
            .collect();
        Serving {
            session,
            clients,
            mix,
            rate: vec![],
            read_ms: vec![],
            write_ms: vec![],
        }
    }

    /// One round's block: every client runs its next block of operations, the
    /// clients at the same time, one thread each.
    pub fn block(&mut self, ctx: &mut Ctx) {
        let Serving {
            session, clients, ..
        } = self;
        let (mix, traced) = (self.mix, ctx.traced);
        let (tallies, took) = timed(|| {
            std::thread::scope(|scope| {
                let handles: Vec<_> = clients
                    .iter_mut()
                    .enumerate()
                    .map(|(i, client)| {
                        let session = session.clone();
                        scope.spawn(move || client.run(&session, mix, i == 0, traced))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|handle| handle.join().expect("a serving client panicked"))
                    .collect::<Vec<_>>()
            })
        });
        let ops: u64 = tallies.iter().map(|t| t.attempted).sum();
        for tally in tallies {
            ctx.tally.merge(tally);
        }
        if !traced {
            self.rate.push(ops as f64 / secs(took));
            let clients = &mut self.clients;
            self.read_ms.push(
                clients
                    .iter_mut()
                    .flat_map(|c| c.read_ms.drain(..))
                    .collect(),
            );
            self.write_ms.push(
                clients
                    .iter_mut()
                    .flat_map(|c| c.write_ms.drain(..))
                    .collect(),
            );
        }
    }

    /// The end-to-end metrics: the median block's operation rate, and the median
    /// over the blocks of each block's percentile of the untraced operations of
    /// its class. The write median is left out: single-row insert times spread
    /// evenly from about 5 to 60 ms (waits for the other client, and table copies
    /// while a reader holds the old version), so the median of a run's few
    /// hundred inserts moves too much between runs of the same code to bound.
    pub fn report(&mut self, report: &mut Report) {
        eprintln!(
            "perfbench serving: {} untraced reads, {} untraced writes in {} blocks",
            self.read_ms.iter().map(Vec::len).sum::<usize>(),
            self.write_ms.iter().map(Vec::len).sum::<usize>(),
            self.rate.len()
        );
        report.metric("serving_ops_per_s", median(&mut self.rate), "1/s");
        for (metric, groups, q) in [
            ("serving_read_p50_ms", &self.read_ms, 0.5),
            ("serving_read_p90_ms", &self.read_ms, 0.9),
            ("serving_write_p90_ms", &self.write_ms, 0.9),
        ] {
            report.metric(metric, median_quantile(groups, q), "ms");
        }
    }

    /// The per-layer metrics of the traced run. Moves the clients' spans into
    /// `tracer`.
    pub fn report_layers(&mut self, report: &mut Report, tracer: &mut Tracer) {
        let mut plan_cache = (0, 0);
        let mut memo = (0, 0);
        let mut overhead_us = vec![];
        let mut pass_us = vec![vec![]; layers::PASSES.len()];
        for client in &mut self.clients {
            let origin = client.tracer.origin();
            tracer.absorb(std::mem::replace(
                &mut client.tracer,
                Tracer::new(origin, 0),
            ));
            plan_cache = (
                plan_cache.0 + client.plan_cache.0,
                plan_cache.1 + client.plan_cache.1,
            );
            memo = (memo.0 + client.memo.0, memo.1 + client.memo.1);
            overhead_us.extend(&client.overhead_us);
            for (samples, more) in pass_us.iter_mut().zip(&client.pass_us) {
                samples.extend(more);
            }
        }
        let spans = |name: &str| tracer.durations_us(name);
        report.metric("parser.parse_us", median(&mut spans("parser.parse")), "us");
        report.metric(
            "optimizer.optimize_cold_us",
            median(&mut spans("optimizer.optimize_cold")),
            "us",
        );
        for ((_, metric), samples) in layers::PASSES.iter().zip(&mut pass_us) {
            report.metric(*metric, median(samples), "us");
        }
        let ratio = |(hits, total): (u64, u64)| hits as f64 / total.max(1) as f64;
        report.metric("optimizer.plan_cache_hit_ratio", ratio(plan_cache), "ratio");
        report.metric("exec.udf_memo_hit_ratio", ratio(memo), "ratio");
        report.metric("engine.overhead_us", median(&mut overhead_us), "us");
        report.metric(
            "storage.insert_rows_us",
            median(&mut spans("storage.insert_rows")),
            "us",
        );
    }
}

/// Builds a ready engine: schema, rows, indexes, ANALYZE, `service_level`, and one
/// warm-up read per client.
pub fn set_up(
    db: &Tpch,
    tables: Vec<(&'static str, Vec<Row>)>,
) -> Result<(Session, data::SetupTimes), String> {
    let session = Engine::new().session();
    let times = data::install(
        &session,
        data::SCHEMA,
        tables,
        data::INDEXES,
        &[data::SERVICE_LEVEL],
    )
    .map_err(|e| format!("set-up failed: {e}"))?;
    // Warm-up: one read per client at the start of its partition.
    for client in 0..CLIENTS {
        let (lo, _) = partition(client, db.customers.len() as i64);
        session
            .query(&read_sql(lo))
            .map_err(|e| format!("warm-up failed: {e}"))?;
    }
    Ok((session, times))
}

fn read_sql(custkey: i64) -> String {
    format!(
        "select orderkey, service_level(custkey) as level from orders where custkey = {custkey}"
    )
}

fn check_read(result: &QueryResult, custkey: i64, known: &Known) -> Result<(), String> {
    let level = Value::str(service_level(known.total));
    let expected: Vec<Row> = known
        .orderkeys
        .iter()
        .map(|&o| Row::new(vec![Value::Int(o), level.clone()]))
        .collect();
    same_rows(&result.rows, &expected).map_err(|e| format!("{}: {e}", read_sql(custkey)))
}

impl Client {
    /// The client's next block: `mix`, and an `ANALYZE` if `analyze`, in a random
    /// order. In a traced block every operation is traced.
    fn run(&mut self, session: &Session, mix: Mix, analyze: bool, traced: bool) -> Tally {
        let mut ops = vec![Op::Read; mix.reads];
        ops.extend(std::iter::repeat_n(Op::Insert, mix.inserts));
        if analyze {
            ops.push(Op::Analyze);
        }
        self.rng.shuffle(&mut ops);
        let mut tally = Tally::default();
        self.tracer.set_enabled(traced);
        for op in ops {
            self.tracer.begin_op();
            match op {
                Op::Read => self.read(session, traced, &mut tally),
                Op::Insert => self.insert(session, traced, &mut tally),
                Op::Analyze => self.analyze(session, traced, &mut tally),
            }
        }
        tally
    }

    fn key(&mut self) -> i64 {
        self.lo
            + self
                .keys
                .draw(&mut self.rng, (self.hi - self.lo + 1) as u64) as i64
    }

    fn analyze(&mut self, session: &Session, traced: bool, tally: &mut Tally) {
        let (done, _) = if traced {
            self.tracer.span("stats.analyze", || {
                session.engine().analyze();
                Ok(())
            })
        } else {
            timed(|| session.execute("analyze").map(|_| ()))
        };
        tally.check(
            "serving.analyze",
            done.map_err(|e: decorr_common::Error| e.to_string()),
        );
    }

    fn insert(&mut self, session: &Session, traced: bool, tally: &mut Tally) {
        let order = Order {
            orderkey: self.next_orderkey,
            custkey: self.key(),
            totalprice: self.rng.cents(10_000, 300_000),
            orderyear: 1999,
        };
        self.next_orderkey += CLIENTS as i64;
        let (done, took) = if traced {
            let row = order_row(&order);
            self.tracer.span("storage.insert_rows", || {
                session
                    .engine()
                    .insert_rows("orders", vec![row])
                    .map(|_| ())
            })
        } else {
            let sql = format!(
                "insert into orders values ({}, {}, {:?}, {})",
                order.orderkey, order.custkey, order.totalprice, order.orderyear
            );
            timed(|| session.execute(&sql).map(|_| ()))
        };
        match done {
            Ok(()) => {
                let k = self.known.get_mut(&order.custkey).expect("own partition");
                k.total = Some(k.total.unwrap_or(0.0) + order.totalprice);
                k.orderkeys.push(order.orderkey);
                if !traced {
                    self.write_ms.push(ms(took));
                }
                tally.ok();
            }
            Err(e) => tally.wrong("serving.insert", &e.to_string()),
        }
    }

    fn read(&mut self, session: &Session, traced: bool, tally: &mut Tally) {
        let custkey = self.key();
        let sql = read_sql(custkey);
        let op = self.tracer.enter("op.read");
        let (result, took) = self.tracer.span("engine.query", || session.query(&sql));
        let layered = traced.then(|| traced_layers(&mut self.tracer, session.engine(), &sql));
        self.tracer.exit(op);
        let result = match result {
            Ok(result) => result,
            Err(e) => return tally.wrong("serving.read", &format!("{sql}: {e}")),
        };
        tally.check(
            "serving.read",
            check_read(&result, custkey, &self.known[&custkey]),
        );
        let hit = result.rewrite_report.cache.as_ref().is_some_and(|c| c.hit);
        self.plan_cache.0 += hit as u64;
        self.plan_cache.1 += 1;
        let stats = &result.exec_stats;
        self.memo.0 += stats.udf_memo_hits;
        self.memo.1 += stats.udf_memo_hits + stats.udf_invocations;
        if !traced {
            self.read_ms.push(ms(took));
        }
        match layered {
            Some(Ok(l)) => {
                // Only where the session did the same work as the direct calls: its
                // whole pipeline (no plan-cache hit), and as many UDF evaluations
                // as the direct execute with its empty memo.
                if !hit && stats.udf_invocations == l.udf_invocations {
                    let optimize = us(result.rewrite_report.total_duration());
                    self.overhead_us
                        .push(us(took) - l.parse - optimize - l.execute);
                }
                for (samples, pass) in self.pass_us.iter_mut().zip(l.pass_us) {
                    samples.extend(pass);
                }
            }
            Some(Err(e)) => tally.wrong("serving.layers", &e),
            None => {}
        }
    }
}

struct Layered {
    parse: f64,
    execute: f64,
    udf_invocations: u64,
    pass_us: Vec<Option<f64>>,
}

/// The layers of one read, called directly after the session ran it: parse, cold
/// optimize (no plan cache, so the engine's cache is left as the session left it)
/// and execute.
fn traced_layers(t: &mut Tracer, engine: &Engine, sql: &str) -> Result<Layered, String> {
    let strategy = ExecutionStrategy::Auto;
    let (plan, parse) = layers::parse(t, "parser.parse", sql).map_err(|e| e.to_string())?;
    let (outcome, _) = layers::optimize(t, "optimizer.optimize_cold", engine, &plan, strategy)
        .map_err(|e| e.to_string())?;
    let (execute, stats) =
        layers::execute(t, "exec.execute", engine, &outcome).map_err(|e| e.to_string())?;
    Ok(Layered {
        parse: us(parse),
        udf_invocations: stats.udf_invocations,
        execute: us(execute),
        pass_us: layers::pass_us(&outcome),
    })
}
