//! The generated TPC-H-flavoured database of the paper's experiments, the three
//! experiment UDFs, and the set-up steps the parts of a run share.
//!
//! The benchmark generates its inputs itself from `--seed`; the engine only ever
//! sees SQL text and the rows handed to `Engine::insert_rows`.

use std::time::Duration;

use decorr_common::{Result, Row, Value};
use decorr_engine::Session;

use crate::measure::{median, secs, timed, Report};
use crate::rng::Rng;

/// Table sizes. `PAPER` is the reproduction scale of Figures 10–12 (2,000
/// customers), where the iterative/decorrelated crossovers show.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub customers: usize,
    pub orders_per_customer: usize,
    pub parts: usize,
    pub categories: usize,
    pub customer_categories: usize,
}

impl Size {
    pub const PAPER: Size = Size {
        customers: 2_000,
        orders_per_customer: 10,
        parts: 5_000,
        categories: 200,
        customer_categories: 25,
    };
}

pub struct Customer {
    pub custkey: i64,
    pub nationkey: i64,
    pub acctbal: f64,
    pub category: i64,
}

pub struct Order {
    pub orderkey: i64,
    pub custkey: i64,
    pub totalprice: f64,
    pub orderyear: i64,
}

pub struct Part {
    pub partkey: i64,
    pub category: i64,
    pub retailprice: f64,
}

/// The generated rows, kept by the benchmark for its own expected values.
pub struct Tpch {
    pub customers: Vec<Customer>,
    pub orders: Vec<Order>,
    pub parts: Vec<Part>,
    /// `frac_discount` per customer category.
    pub frac_discount: Vec<f64>,
    pub categories: i64,
    /// Categories `0..roots` are roots; category `c >= roots` has parent `c % roots`.
    pub roots: i64,
}

pub const SCHEMA: &str = "\
    create table customer(custkey int not null, name varchar(25), nationkey int, \
                          acctbal float, category int); \
    create table orders(orderkey int not null, custkey int, totalprice float, orderyear int); \
    create table parts(partkey int not null, category int, retailprice float); \
    create table categories(categorykey int not null, parentkey int, name varchar(30)); \
    create table category_ancestors(category int, ancestor int); \
    create table categorydiscount(category int not null, frac_discount float);";

/// The "default indices on primary and foreign keys" of the paper's set-up.
pub const INDEXES: &[(&str, &str)] = &[
    ("customer", "custkey"),
    ("customer", "category"),
    ("orders", "orderkey"),
    ("orders", "custkey"),
    ("parts", "partkey"),
    ("parts", "category"),
    ("categories", "categorykey"),
    ("category_ancestors", "category"),
    ("category_ancestors", "ancestor"),
    ("categorydiscount", "category"),
];

/// Experiment 1 (Figure 10): straight-line UDF with two scalar lookups.
pub const DISCOUNT: &str = "create function discount(float amt, int ckey) returns float as \
     begin \
       int custcat; float catdisct; float totaldiscount; \
       select category into :custcat from customer where custkey = :ckey; \
       select frac_discount into :catdisct from categorydiscount where category = :custcat; \
       totaldiscount = catdisct * amt; \
       return totaldiscount; \
     end";

/// Experiment 2 (Figure 11): assignments, branching and a scalar aggregate.
pub const SERVICE_LEVEL: &str = "create function service_level(int ckey) returns varchar(10) as \
     begin \
       float totalbusiness; string level; \
       select sum(totalprice) into :totalbusiness from orders where custkey = :ckey; \
       if (totalbusiness > 1000000) level = 'Platinum'; \
       else if (totalbusiness > 500000) level = 'Gold'; \
       else level = 'Regular'; \
       return level; \
     end";

/// Experiment 3 (Figure 12): the cursor-loop UDF of Guravannavar's thesis, counting
/// the parts in a category and all of its ancestor categories.
pub const CATEGORY_PART_COUNT: &str =
    "create function category_part_count(int ckey) returns int as \
     begin \
       int total = 0; \
       declare c cursor for \
         select p.partkey from parts p, category_ancestors a \
         where p.category = a.ancestor and a.category = :ckey; \
       open c; \
       fetch next from c into @pk; \
       while @@fetch_status = 0 \
         total = total + 1; \
         fetch next from c into @pk; \
       close c; deallocate c; \
       return total; \
     end";

pub fn generate(size: &Size, seed: u64) -> Tpch {
    let mut rng = Rng::new(seed);
    let mut crng = rng.fork(1);
    let customers = (1..=size.customers as i64)
        .map(|custkey| Customer {
            custkey,
            nationkey: crng.below(25) as i64,
            acctbal: crng.cents(0, 10_000) - 999.0,
            category: crng.below(size.customer_categories as u64) as i64,
        })
        .collect();
    let mut orng = rng.fork(2);
    let mut orders = Vec::with_capacity(size.customers * size.orders_per_customer);
    for custkey in 1..=size.customers as i64 {
        for _ in 0..size.orders_per_customer {
            let orderkey = orders.len() as i64 + 1;
            // Skewed by customer so all three service levels of Example 1 occur.
            let totalprice = orng.cents(100, 200_000) * (1 + custkey % 17) as f64;
            orders.push(Order {
                orderkey,
                custkey,
                totalprice,
                orderyear: 1992 + orderkey % 7,
            });
        }
    }
    let mut prng = rng.fork(3);
    let parts = (1..=size.parts as i64)
        .map(|partkey| Part {
            partkey,
            category: prng.below(size.categories as u64) as i64,
            retailprice: prng.cents(1, 2_000),
        })
        .collect();
    Tpch {
        customers,
        orders,
        parts,
        frac_discount: (0..size.customer_categories)
            .map(|c| 0.01 * (c % 20) as f64)
            .collect(),
        categories: size.categories as i64,
        roots: (size.categories as i64 / 10).max(1),
    }
}

impl Tpch {
    /// The parent of a category, if it is not a root.
    pub fn parent(&self, category: i64) -> Option<i64> {
        (category >= self.roots).then_some(category % self.roots)
    }

    /// The rows of every table, in load order.
    pub fn tables(&self) -> Vec<(&'static str, Vec<Row>)> {
        let customer = self
            .customers
            .iter()
            .map(|c| {
                Row::new(vec![
                    Value::Int(c.custkey),
                    Value::str(format!("Customer#{:06}", c.custkey)),
                    Value::Int(c.nationkey),
                    Value::Float(c.acctbal),
                    Value::Int(c.category),
                ])
            })
            .collect();
        let categorydiscount = self
            .frac_discount
            .iter()
            .enumerate()
            .map(|(c, &f)| Row::new(vec![Value::Int(c as i64), Value::Float(f)]))
            .collect();
        let orders = self.orders.iter().map(order_row).collect();
        let parts = self
            .parts
            .iter()
            .map(|p| {
                Row::new(vec![
                    Value::Int(p.partkey),
                    Value::Int(p.category),
                    Value::Float(p.retailprice),
                ])
            })
            .collect();
        let categories = (0..self.categories)
            .map(|c| {
                Row::new(vec![
                    Value::Int(c),
                    self.parent(c).map_or(Value::Null, Value::Int),
                    Value::str(format!("Category#{c}")),
                ])
            })
            .collect();
        // The reflexive-transitive closure of the parent relation.
        let mut ancestors = vec![];
        for c in 0..self.categories {
            ancestors.push(Row::new(vec![Value::Int(c), Value::Int(c)]));
            if let Some(p) = self.parent(c) {
                ancestors.push(Row::new(vec![Value::Int(c), Value::Int(p)]));
            }
        }
        vec![
            ("customer", customer),
            ("categorydiscount", categorydiscount),
            ("orders", orders),
            ("parts", parts),
            ("categories", categories),
            ("category_ancestors", ancestors),
        ]
    }
}

pub fn order_row(o: &Order) -> Row {
    Row::new(vec![
        Value::Int(o.orderkey),
        Value::Int(o.custkey),
        Value::Float(o.totalprice),
        Value::Int(o.orderyear),
    ])
}

/// What one set-up spent in the storage and statistics layers.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub load: Duration,
    pub analyze: Duration,
}

/// Timings of the repeated set-ups of one run.
#[derive(Debug, Default)]
pub struct SetupSamples {
    setup_s: Vec<f64>,
    load_s: Vec<f64>,
    analyze_s: Vec<f64>,
}

impl SetupSamples {
    /// Records one set-up of a run: its wall time and what its parts spent in the
    /// storage and statistics layers.
    pub fn push(&mut self, took: Duration, parts: &[SetupTimes]) {
        self.setup_s.push(secs(took));
        self.load_s
            .push(parts.iter().map(|t| secs(t.load)).sum::<f64>());
        self.analyze_s
            .push(parts.iter().map(|t| secs(t.analyze)).sum::<f64>());
    }

    /// `setup_s`: the median set-up.
    pub fn report_setup(&mut self, report: &mut Report) {
        report.metric("setup_s", median(&mut self.setup_s), "s");
    }

    /// The storage and statistics layers' share of the set-ups.
    pub fn report_layers(&mut self, report: &mut Report) {
        report.metric("storage.load_s", median(&mut self.load_s), "s");
        report.metric("stats.analyze_s", median(&mut self.analyze_s), "s");
    }
}

/// Creates the schema and indexes, loads the rows through `Engine::insert_rows`,
/// runs `ANALYZE` and registers the functions.
pub fn install(
    session: &Session,
    schema: &str,
    tables: Vec<(&'static str, Vec<Row>)>,
    indexes: &[(&str, &str)],
    functions: &[&str],
) -> Result<SetupTimes> {
    let engine = session.engine();
    session.execute(schema)?;
    let mut times = SetupTimes::default();
    for (table, rows) in tables {
        let (inserted, took) = timed(|| engine.insert_rows(table, rows));
        inserted?;
        times.load += took;
    }
    for (table, column) in indexes {
        session.execute(&format!("create index on {table}({column})"))?;
    }
    times.analyze = timed(|| engine.analyze()).1;
    for f in functions {
        session.execute(f)?;
    }
    Ok(times)
}
