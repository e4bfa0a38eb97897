//! The durable part of a round: one session on an `Engine` opened with a data
//! directory.
//!
//! A round is a fixed number of cycles, and every cycle runs the same sequence of
//! operations: a seeded stream of writes
//! (single-row and small-batch inserts), each followed by a read of the account it
//! wrote (read-your-writes); DDL (create a table and an index,
//! fill it, later drop it) and a `create function`; an explicit checkpoint; more
//! stream; a clean reopen (drop the engine, open the directory, answer the first
//! query), after which every acknowledged write must be present exactly once; and a
//! crash-image reopen.
//!
//! The crash image is the new snapshot placed next to the directory's other files as
//! they were before the checkpoint: a crash after the snapshot rename and before the
//! WAL reset. Its script is fixed and does not depend on the seed. Reopening it
//! replays the old WAL onto the new snapshot (the snapshot stores no WAL watermark),
//! so rows come back twice; only that outcome (or the `already exists` error it
//! gives when the WAL holds DDL) is counted as the known fault `crash_reopen`.
//!
//! The engine's flush policy is used as it is: it never calls fsync.

use std::path::{Path, PathBuf};
use std::time::Instant;

use decorr_common::{Row, Value};
use decorr_engine::{Engine, Session};
use decorr_persist::{Snapshot, WalRecord, WalWriter};

use crate::check::same_rows;
use crate::measure::{median, median_quantile, ms, secs, timed, Report, Tally};
use crate::rng::Rng;
use crate::run::{Ctx, Keys};
use crate::trace::Tracer;

#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub accounts: i64,
    pub events: i64,
    /// Write-then-read pairs of stream operations before and again after each
    /// cycle's checkpoint.
    pub stream_pairs: usize,
    /// How many of each run of `stream_pairs` writes insert a small batch of 2–8
    /// rows, at random places; the rest insert one row. The share (one write in
    /// four) is an assumption of this benchmark, taken from no measured workload.
    pub batches: usize,
    /// Checkpoint-and-reopen cycles per round.
    pub cycles: usize,
}

pub const SIZE: Size = Size {
    accounts: 1_000,
    events: 20_000,
    stream_pairs: 12,
    batches: 3,
    cycles: 2,
};

const SCHEMA: &str = "\
    create table accounts(id int not null, owner varchar(20), opened int); \
    create table events(id int not null, acct int, amount float, note varchar(16)); \
    create index on accounts(id); \
    create index on events(acct);";

const ACCT_TOTAL: &str = "create function acct_total(int a) returns float as \
     begin \
       float t; \
       select sum(amount) into :t from events where acct = :a; \
       return t; \
     end";

/// The generated inputs and the benchmark's record of every acknowledged write.
pub struct Model {
    accounts: i64,
    keys: Keys,
    /// The generated events the set-up loads.
    inputs: Vec<(i64, i64, f64, String)>,
    /// `(id, acct, amount, note)` of every acknowledged event, in id order.
    events: Vec<(i64, i64, f64, String)>,
    /// Sum of amounts per account (`None`: no events yet).
    sums: Vec<Option<f64>>,
}

impl Model {
    pub fn generate(size: &Size, seed: u64, keys: Keys) -> Model {
        let mut rng = Rng::new(seed).fork(7);
        let mut model = Model {
            accounts: size.accounts,
            keys,
            inputs: vec![],
            events: vec![],
            sums: vec![None; size.accounts as usize],
        };
        for _ in 0..size.events {
            let event = model.draw_event(&mut rng);
            model.acknowledge(&event);
        }
        model.inputs = model.events.clone();
        model
    }

    fn draw_event(&self, rng: &mut Rng) -> (i64, i64, f64, String) {
        let id = self.events.len() as i64 + 1;
        let acct = self.keys.draw(rng, self.accounts as u64) as i64;
        (
            id,
            acct,
            rng.cents(1, 5_000),
            format!("n{}", rng.below(1_000)),
        )
    }

    fn acknowledge(&mut self, event: &(i64, i64, f64, String)) {
        let sum = &mut self.sums[event.1 as usize];
        *sum = Some(sum.unwrap_or(0.0) + event.2);
        self.events.push(event.clone());
    }

    /// Corrupts the record of one acknowledged write (for the self-test).
    #[cfg(test)]
    pub fn forget_last_event(&mut self) {
        self.events.pop();
    }

    /// The rows the set-up loads: accounts and the generated events.
    pub fn input_rows(&self) -> (Vec<Row>, Vec<Row>) {
        let accounts = (0..self.accounts)
            .map(|id| {
                Row::new(vec![
                    Value::Int(id),
                    Value::str(format!("owner{id}")),
                    Value::Int(2000 + id % 20),
                ])
            })
            .collect();
        (accounts, self.rows(&self.inputs))
    }

    fn rows(&self, events: &[(i64, i64, f64, String)]) -> Vec<Row> {
        events
            .iter()
            .map(|(id, acct, amount, note)| {
                Row::new(vec![
                    Value::Int(*id),
                    Value::Int(*acct),
                    Value::Float(*amount),
                    Value::str(note.clone()),
                ])
            })
            .collect()
    }
}

fn values_sql(events: &[(i64, i64, f64, String)]) -> String {
    events
        .iter()
        .map(|(id, acct, amount, note)| format!("({id}, {acct}, {amount:?}, '{note}')"))
        .collect::<Vec<_>>()
        .join(", ")
}

fn read_sql(acct: i64) -> String {
    format!("select id, acct_total(id) as total from accounts where id = {acct}")
}

/// Opens (or creates) the engine on `dir`.
fn open(dir: &Path) -> Result<Session, String> {
    Engine::builder()
        .data_dir(dir)
        .try_build()
        .map(|e| e.session())
        .map_err(|e| format!("open {}: {e}", dir.display()))
}

/// From an empty directory to a checkpointed, analyzed engine with its function.
pub fn set_up(
    dir: &Path,
    (accounts, events): (Vec<Row>, Vec<Row>),
) -> Result<(Session, crate::data::SetupTimes), String> {
    let err = |e: decorr_common::Error| format!("set-up failed: {e}");
    let session = open(dir)?;
    let engine = session.engine();
    session.execute(SCHEMA).map_err(err)?;
    let mut times = crate::data::SetupTimes::default();
    let (loaded, load) = timed(|| {
        engine.insert_rows("accounts", accounts)?;
        engine.insert_rows("events", events)
    });
    loaded.map_err(err)?;
    times.load = load;
    times.analyze = timed(|| engine.analyze()).1;
    session.execute(ACCT_TOTAL).map_err(err)?;
    engine.checkpoint().map_err(err)?;
    session.query(&read_sql(0)).map_err(err)?;
    Ok((session, times))
}

/// What the run measured.
#[derive(Default)]
struct Samples {
    /// Latency of the untraced reads and single-row inserts, a group per round.
    read_ms: Vec<Vec<f64>>,
    write_ms: Vec<Vec<f64>>,
    checkpoint_ms: Vec<f64>,
    reopen_s: Vec<f64>,
    /// Operations per second of each untraced cycle.
    rate: Vec<f64>,
    wal_bytes: u64,
    wal_rows: u64,
    snapshot_bytes: Option<u64>,
    records_replayed: Option<u64>,
}

/// The durable part of a run: its engine's directory, the benchmark's record of
/// every acknowledged write, and what its rounds measured.
pub struct Durable {
    /// `None` only while a reopen is under way.
    session: Option<Session>,
    dir: PathBuf,
    /// Where the crash images and the side snapshot and WAL go.
    scratch: PathBuf,
    side_wal: WalWriter,
    rng: Rng,
    model: Model,
    size: Size,
    samples: Samples,
    /// Cycles run so far.
    cycles: usize,
}

impl Durable {
    /// Takes over the engine `session` has open on `dir`.
    pub fn new(
        session: Session,
        dir: PathBuf,
        scratch: PathBuf,
        model: Model,
        size: Size,
        seed: u64,
    ) -> Result<Durable, String> {
        let side_wal = WalWriter::open(&scratch.join("side"))
            .map_err(|e| e.to_string())?
            .0;
        Ok(Durable {
            session: Some(session),
            dir,
            scratch,
            side_wal,
            rng: Rng::new(seed).fork(8),
            model,
            size,
            samples: Samples::default(),
            cycles: 0,
        })
    }

    /// One round: `cycles` cycles, always the same `cycles * (4 * stream_pairs +
    /// 8)` operations. An error here leaves the part unusable and ends the run.
    pub fn round(&mut self, ctx: &mut Ctx) -> Result<(), String> {
        self.samples.read_ms.push(vec![]);
        self.samples.write_ms.push(vec![]);
        for _ in 0..self.size.cycles {
            self.cycle(ctx)?;
        }
        Ok(())
    }

    /// Stream, DDL, checkpoint, stream, clean reopen, drop, crash-image reopen.
    fn cycle(&mut self, ctx: &mut Ctx) -> Result<(), String> {
        let start = Instant::now();
        let attempted = ctx.tally.attempted;
        let cycle = self.cycles;
        self.cycles += 1;
        let side = self.scratch.join("side");
        let mut session = self.session.take().ok_or("no open engine")?;
        let mut r = Cycle {
            tally: ctx.tally,
            tracer: ctx.tracer,
            model: &mut self.model,
            samples: &mut self.samples,
            traced: ctx.traced,
            first: cycle == 0,
        };
        for batch in stream(&self.size, &mut self.rng) {
            r.stream_pair(&session, batch, &mut self.rng, &mut self.side_wal);
        }
        r.ddl(&session, cycle);
        r.checkpoint(&session, &self.dir, &side)?;
        self.side_wal.reset().map_err(|e| e.to_string())?;
        for batch in stream(&self.size, &mut self.rng) {
            r.stream_pair(&session, batch, &mut self.rng, &mut self.side_wal);
        }
        session = r.reopen(session, &self.dir, cycle)?;
        r.op(|| {
            session
                .execute(&format!("drop table note_{cycle}"))
                .map(|_| ())
        });
        r.crash_reopen(&self.scratch.join("crash"));
        self.session = Some(session);
        if !ctx.traced {
            let ops = ctx.tally.attempted - attempted;
            self.samples.rate.push(ops as f64 / secs(start.elapsed()));
        }
        Ok(())
    }

    /// The end-to-end metrics: the median cycle's operation rate, the median
    /// over the rounds of each round's percentile of the untraced operations of
    /// its class, and the median checkpoint and reopen.
    pub fn report(&mut self, report: &mut Report) {
        let s = &mut self.samples;
        eprintln!(
            "perfbench durable: {} untraced reads, {} untraced single-row writes in {} cycles",
            s.read_ms.iter().map(Vec::len).sum::<usize>(),
            s.write_ms.iter().map(Vec::len).sum::<usize>(),
            s.rate.len()
        );
        report.metric("durable_ops_per_s", median(&mut s.rate), "1/s");
        for (metric, groups, q) in [
            ("durable_read_p50_ms", &s.read_ms, 0.5),
            ("durable_read_p90_ms", &s.read_ms, 0.9),
            ("durable_write_p50_ms", &s.write_ms, 0.5),
            ("durable_write_p90_ms", &s.write_ms, 0.9),
        ] {
            report.metric(metric, median_quantile(groups, q), "ms");
        }
        report.metric("checkpoint_ms", median(&mut s.checkpoint_ms), "ms");
        report.metric("reopen_s", median(&mut s.reopen_s), "s");
    }

    /// The per-layer metrics of the traced run.
    pub fn report_layers(&mut self, report: &mut Report, tracer: &Tracer) {
        let s = &self.samples;
        let spans = |name: &str| tracer.durations_us(name);
        report.metric(
            "storage.durable_insert_rows_us",
            median(&mut spans("storage.insert_rows_durable")),
            "us",
        );
        report.metric(
            "persist.wal_append_us",
            median(&mut spans("persist.wal_append")),
            "us",
        );
        report.metric(
            "persist.wal_bytes_per_row",
            s.wal_bytes as f64 / s.wal_rows.max(1) as f64,
            "bytes",
        );
        report.metric(
            "persist.snapshot_bytes",
            s.snapshot_bytes.unwrap_or(0) as f64,
            "bytes",
        );
        report.metric(
            "persist.snapshot_save_ms",
            median(&mut spans("persist.snapshot_save")) / 1e3,
            "ms",
        );
        report.metric(
            "persist.snapshot_load_ms",
            median(&mut spans("persist.snapshot_load")) / 1e3,
            "ms",
        );
        report.metric(
            "persist.records_replayed",
            s.records_replayed.unwrap_or(0) as f64,
            "count",
        );
    }
}

/// Which writes of a run of stream pairs insert a batch: `size.batches` of them,
/// at random places.
fn stream(size: &Size, rng: &mut Rng) -> Vec<bool> {
    let mut batch = vec![false; size.stream_pairs];
    batch[..size.batches].fill(true);
    rng.shuffle(&mut batch);
    batch
}

/// One cycle's state, borrowed.
struct Cycle<'a> {
    tally: &'a mut Tally,
    tracer: &'a mut Tracer,
    model: &'a mut Model,
    samples: &'a mut Samples,
    traced: bool,
    /// The first cycle, whose exact counts the traced run reports.
    first: bool,
}

impl Cycle<'_> {
    /// A write or DDL operation that must succeed.
    fn op(&mut self, f: impl FnOnce() -> decorr_common::Result<()>) {
        self.tracer.begin_op();
        let done = f();
        self.tally
            .check("durable.statement", done.map_err(|e| e.to_string()));
    }

    /// A write (a batch if `batch`), then a read of the account it wrote.
    fn stream_pair(
        &mut self,
        session: &Session,
        batch: bool,
        rng: &mut Rng,
        side_wal: &mut WalWriter,
    ) {
        let acct = self.write(session, batch, rng, side_wal);
        self.read(session, acct);
    }

    fn read(&mut self, session: &Session, acct: i64) {
        self.tracer.begin_op();
        let sql = read_sql(acct);
        let (result, took) = self.tracer.span("engine.query", || session.query(&sql));
        let expected = vec![Row::new(vec![
            Value::Int(acct),
            self.model.sums[acct as usize].map_or(Value::Null, Value::Float),
        ])];
        let checked = result
            .map_err(|e| e.to_string())
            .and_then(|r| same_rows(&r.rows, &expected))
            .map_err(|e| format!("{sql}: {e}"));
        self.tally.check("durable.read", checked);
        if !self.traced {
            self.samples
                .read_ms
                .last_mut()
                .expect("a round")
                .push(ms(took));
        }
    }

    /// Inserts one event or a small batch; returns the account of the first one.
    fn write(
        &mut self,
        session: &Session,
        batch: bool,
        rng: &mut Rng,
        side_wal: &mut WalWriter,
    ) -> i64 {
        self.tracer.begin_op();
        let rows = if batch { 2 + rng.below(7) as usize } else { 1 };
        let mut events = vec![];
        for _ in 0..rows {
            let mut event = self.model.draw_event(rng);
            event.0 += events.len() as i64;
            events.push(event);
        }
        let wal_before = session.engine().persist_stats().wal_bytes_appended;
        let (done, took) = if self.traced {
            let rows = self.model.rows(&events);
            let record = WalRecord::Insert {
                table: "events".into(),
                rows: rows.clone(),
            };
            let (done, took) = self.tracer.span("storage.insert_rows_durable", || {
                session.engine().insert_rows("events", rows).map(|_| ())
            });
            let (appended, _) = self
                .tracer
                .span("persist.wal_append", || side_wal.append(&record));
            (done.and(appended.map(|_| ())), took)
        } else {
            let sql = format!("insert into events values {}", values_sql(&events));
            timed(|| session.execute(&sql).map(|_| ()))
        };
        match done {
            Ok(()) => {
                for event in &events {
                    self.model.acknowledge(event);
                }
                if self.first {
                    self.samples.wal_bytes +=
                        session.engine().persist_stats().wal_bytes_appended - wal_before;
                    self.samples.wal_rows += rows as u64;
                }
                if rows == 1 && !self.traced {
                    self.samples
                        .write_ms
                        .last_mut()
                        .expect("a round")
                        .push(ms(took));
                }
                self.tally.ok();
            }
            Err(e) => self.tally.wrong("durable.insert", &e.to_string()),
        }
        events[0].1
    }

    /// A table with an index and three rows, and the function re-created.
    fn ddl(&mut self, session: &Session, cycle: usize) {
        for sql in [
            format!("create table note_{cycle}(k int not null, v float)"),
            format!("create index on note_{cycle}(k)"),
            format!("insert into note_{cycle} values (1, 0.5), (2, 1.5), (3, 2.5)"),
            ACCT_TOTAL.to_string(),
        ] {
            self.op(|| session.execute(&sql).map(|_| ()));
        }
    }

    fn checkpoint(&mut self, session: &Session, dir: &Path, side: &Path) -> Result<(), String> {
        self.tracer.begin_op();
        let (done, took) = self
            .tracer
            .span("persist.checkpoint", || session.engine().checkpoint());
        match done {
            Ok(stats) => {
                self.tally.ok();
                if self.first {
                    self.samples.snapshot_bytes = Some(stats.snapshot_bytes);
                }
                if !self.traced {
                    self.samples.checkpoint_ms.push(ms(took));
                }
            }
            Err(e) => self.tally.wrong("durable.checkpoint", &e.to_string()),
        }
        if self.traced {
            // The persist layer on its own: read the snapshot just written, and
            // write it again to a side directory.
            let (loaded, _) = self
                .tracer
                .span("persist.snapshot_load", || Snapshot::load(dir));
            let snapshot = loaded
                .map_err(|e| e.to_string())?
                .ok_or("no snapshot after a checkpoint")?;
            let (saved, _) = self
                .tracer
                .span("persist.snapshot_save", || snapshot.save(side));
            saved.map_err(|e| e.to_string())?;
        }
        Ok(())
    }

    /// Drops the engine, opens the directory and answers the first query; then
    /// every acknowledged write must be present exactly once.
    fn reopen(&mut self, session: Session, dir: &Path, cycle: usize) -> Result<Session, String> {
        self.tracer.begin_op();
        drop(session);
        let (opened, took) = timed(|| {
            let session = open(dir)?;
            session
                .query(&read_sql(0))
                .map_err(|e| format!("first query after reopen: {e}"))?;
            Ok::<_, String>(session)
        });
        let session = opened?;
        if !self.traced {
            self.samples.reopen_s.push(secs(took));
        }
        if self.first {
            self.samples.records_replayed =
                Some(session.engine().persist_stats().wal_records_replayed);
        }
        let checked = all_writes_once(&session, self.model, cycle);
        self.tally.check("durable.reopen", checked);
        Ok(session)
    }

    /// The crash-image reopen (a fixed script in its own directory).
    fn crash_reopen(&mut self, dir: &Path) {
        self.tracer.begin_op();
        match build_crash_image(dir).map(|image| reopen_crash_image(&image)) {
            Ok(CrashOutcome::Recovered) => self.tally.ok(),
            Ok(CrashOutcome::KnownFault) => self.tally.known_fault("crash_reopen"),
            Ok(CrashOutcome::Wrong(e)) | Err(e) => self.tally.wrong("durable.crash_reopen", &e),
        }
    }
}

fn all_writes_once(session: &Session, model: &Model, cycle: usize) -> Result<(), String> {
    let events = session
        .query("select id, acct, amount, note from events")
        .map_err(|e| e.to_string())?;
    same_rows(&events.rows, &model.rows(&model.events))
        .map_err(|e| format!("events after reopen: {e}"))?;
    let notes = session
        .query(&format!("select k from note_{cycle}"))
        .map_err(|e| e.to_string())?;
    let expected: Vec<Row> = (1..=3).map(|k| Row::new(vec![Value::Int(k)])).collect();
    same_rows(&notes.rows, &expected).map_err(|e| format!("note_{cycle} after reopen: {e}"))
}

fn copy_files(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

/// Writes three acknowledged rows, checkpoints, and builds the crash image of that
/// checkpoint. Returns the image's directory.
fn build_crash_image(base: &Path) -> Result<PathBuf, String> {
    let dir = base.join("live");
    let image = base.join("image");
    let _ = std::fs::remove_dir_all(base);
    let io = |e: std::io::Error| e.to_string();
    let session = open(&dir)?;
    let run = |sql: &str| session.execute(sql).map(|_| ()).map_err(|e| e.to_string());
    run("create table crash_t(k int not null)")?;
    session.engine().checkpoint().map_err(|e| e.to_string())?;
    for k in 1..=3 {
        run(&format!("insert into crash_t values ({k})"))?;
    }
    copy_files(&dir, &image).map_err(io)?;
    session.engine().checkpoint().map_err(|e| e.to_string())?;
    std::fs::copy(
        dir.join(decorr_persist::SNAPSHOT_FILE),
        image.join(decorr_persist::SNAPSHOT_FILE),
    )
    .map_err(io)?;
    Ok(image)
}

/// How reopening a crash image ended.
#[derive(Debug, PartialEq)]
enum CrashOutcome {
    /// Each acknowledged row exactly once.
    Recovered,
    /// The known fault and nothing else: the old WAL replayed onto the new
    /// snapshot, so each of the three rows comes back exactly twice, or the open
    /// fails with `already exists` when that WAL holds the table's DDL.
    KnownFault,
    /// Anything else, such as a lost row or another error.
    Wrong(String),
}

/// Opens the crash image and judges what it holds.
fn reopen_crash_image(image: &Path) -> CrashOutcome {
    let session = match open(image) {
        Ok(session) => session,
        Err(e) => return judge_crash(Err(e)),
    };
    match session.query("select k from crash_t") {
        Ok(result) => judge_crash(Ok(result.rows)),
        Err(e) => CrashOutcome::Wrong(format!("crash image: {e}")),
    }
}

fn judge_crash(reopened: Result<Vec<Row>, String>) -> CrashOutcome {
    let rows = match reopened {
        Ok(rows) => rows,
        Err(e) if e.contains("already exists") => return CrashOutcome::KnownFault,
        Err(e) => return CrashOutcome::Wrong(format!("crash image: {e}")),
    };
    let once: Vec<Row> = (1..=3).map(|k| Row::new(vec![Value::Int(k)])).collect();
    let Err(differs) = same_rows(&rows, &once) else {
        return CrashOutcome::Recovered;
    };
    let twice: Vec<Row> = once.iter().chain(&once).cloned().collect();
    match same_rows(&rows, &twice) {
        Ok(()) => CrashOutcome::KnownFault,
        Err(_) => CrashOutcome::Wrong(format!("crash image: {differs}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_the_doubled_rows_or_already_exists_are_the_known_fault() {
        let rows = |ks: &[i64]| -> Vec<Row> {
            ks.iter().map(|&k| Row::new(vec![Value::Int(k)])).collect()
        };
        assert_eq!(judge_crash(Ok(rows(&[3, 1, 2]))), CrashOutcome::Recovered);
        assert_eq!(
            judge_crash(Ok(rows(&[1, 2, 3, 3, 2, 1]))),
            CrashOutcome::KnownFault
        );
        assert_eq!(
            judge_crash(Err("table crash_t already exists".into())),
            CrashOutcome::KnownFault
        );
        for lost in [&[1, 2][..], &[], &[1, 2, 3, 1, 2], &[1, 1, 2, 2, 3, 4]] {
            assert!(
                matches!(judge_crash(Ok(rows(lost))), CrashOutcome::Wrong(_)),
                "{lost:?}"
            );
        }
        assert!(matches!(
            judge_crash(Err("persist: bad magic".into())),
            CrashOutcome::Wrong(_)
        ));
    }

    #[test]
    fn a_crash_image_that_loses_a_logged_write_is_wrong() {
        let base = crate::run::scratch_dir("test-crash");
        let image = build_crash_image(&base).unwrap();
        assert_eq!(reopen_crash_image(&image), CrashOutcome::KnownFault);
        // Cut the WAL's last record: the image now replays two of the three
        // inserts, which is neither a clean recovery nor the known fault.
        let image = build_crash_image(&base).unwrap();
        let wal = image.join(decorr_persist::WAL_FILE);
        let len = std::fs::metadata(&wal).unwrap().len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&wal)
            .unwrap()
            .set_len(len - 1)
            .unwrap();
        let outcome = reopen_crash_image(&image);
        let _ = std::fs::remove_dir_all(&base);
        assert!(matches!(outcome, CrashOutcome::Wrong(_)), "{outcome:?}");
    }
}
