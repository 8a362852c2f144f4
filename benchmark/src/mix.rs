//! `customer_mix_durable` — Table 1 Test 2: two sessions run the customer
//! statement mix in the paper's proportions, in 8-statement transactions
//! retried on SQLSTATE 40001, on a durable `Database::open` over a fresh
//! directory with the default WAL sync policy and group-commit window.
//!
//! The only workload that exercises `core::txn` and `storage::wal`, and
//! the only one whose SELECTs run beside concurrent writers. It is built
//! so that every answer is known in advance:
//!
//! * each stream writes only its own rows — work tables under its own
//!   prefix, and `txn` rows in a key range at a per-stream offset drawn
//!   from the seed, dated after every SELECT window — so the SELECTs read
//!   the immutable base history and their reference answers hold;
//! * every committed unit bumps its stream's counter in `mix_audit`, and
//!   one unit in [`SHARED_EVERY`] also bumps a counter all streams share:
//!   that row is the designed contention, and after the run each counter
//!   must equal the commits that bumped it (the lost-update audit);
//! * a unit is replay-safe: DDL is non-transactional, so CREATE uses
//!   IF NOT EXISTS, DROP uses IF EXISTS, and DML targets a work table
//!   created in an earlier unit that no statement of this unit drops;
//! * the client keeps a model of what its committed units wrote; the
//!   database must match it before and after a restart.

use crate::check::{expected_answers, raw_bytes, reference_engine, verify, Checked};
use crate::harness::{per_layer_metrics, repeated_setup, Layers};
use crate::readonly::{e2e_metrics, stored_bytes, window_note, RunResult};
use crate::trace::Tracer;
use crate::util::{ms, percentile, watch_rss, Rng, Window};
use crate::Args;
use dash_common::{DashError, Datum, Result};
use dash_core::{Database, Session};
use dash_exec::stats::ExecStats;
use dash_storage::iodevice::DeviceModel;
use dash_workloads::concurrent::load_base_tables;
use dash_workloads::customer::{self, MIX};
use dash_workloads::gen::{history_start, CATEGORIES, HISTORY_DAYS, REGIONS};
use dash_workloads::spec::{Pred, QuerySpec};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rows in the `txn` fact table.
const SCALE: usize = 50_000;
const STREAMS: usize = 2;
/// Workload statements per transaction.
const BATCH: usize = 8;
/// Attempts before a unit is abandoned (and its statements fail).
const MAX_ATTEMPTS: usize = 1000;
/// Distinct SELECTs with reference answers.
const SELECT_POOL: usize = 24;
/// Keys per work table.
const WORK_KEYS: u64 = 64;
/// Width of each stream's `txn` key range.
const STREAM_KEY_SPAN: i64 = 1_000_000;
const AUDIT: &str = "mix_audit";
/// One unit in this many (drawn from the seed) bumps the shared audit
/// counter: the designed share of cross-stream write contention.
const SHARED_EVERY: u64 = 4;
const SHARED_AUDIT_ID: i64 = -1;

/// The statement kinds of the paper's mix that the streams run, with the
/// paper's counts as weights. WITH, EXPLAIN and TRUNCATE (29 of 261,761
/// statements) are left out.
const KINDS: [&str; 6] = ["INSERT", "UPDATE", "DROP", "SELECT", "CREATE", "DELETE"];

fn kind_weight(kind: &str) -> u64 {
    MIX.iter().find(|(k, _)| *k == kind).map_or(0, |(_, c)| *c)
}

fn span_name(kind: &str) -> &'static str {
    match kind {
        "INSERT" => "core.session.insert",
        "UPDATE" => "core.session.update",
        "DELETE" => "core.session.delete",
        "CREATE" => "core.session.create",
        "DROP" => "core.session.drop",
        "SELECT" => "core.session.select",
        "COMMIT" => "core.session.commit",
        _ => "core.session.begin",
    }
}

/// Windowed reads of the base history: they end before the first day any
/// stream writes, so concurrent writes never change their answers.
fn select_pool(rng: &mut Rng) -> Vec<QuerySpec> {
    let start = history_start();
    (0..SELECT_POOL)
        .map(|i| {
            let from = start + rng.below((HISTORY_DAYS - 400) as u64) as i32;
            let window =
                |days: i32| Pred::between("txn_date", Datum::Date(from), Datum::Date(from + days));
            match i % 3 {
                0 => QuerySpec::GroupAgg {
                    table: "txn".into(),
                    predicates: vec![window(90)],
                    key: "category".into(),
                    value: "amount".into(),
                },
                1 => QuerySpec::JoinAgg {
                    fact: "txn".into(),
                    dim: "acct".into(),
                    fact_key: "acct_id".into(),
                    dim_key: "acct_id".into(),
                    dim_label: "branch".into(),
                    value: "amount".into(),
                    predicates: vec![window(90)],
                },
                _ => QuerySpec::FilterScan {
                    table: "txn".into(),
                    predicates: vec![Pred::eq("category", *rng.pick(&CATEGORIES)), window(180)],
                    projection: vec!["txn_id".into(), "amount".into()],
                },
            }
        })
        .collect()
}

/// What a stream's committed units have written.
#[derive(Clone, Default)]
struct Model {
    /// Live work tables: key → (rows, sum of v).
    work: BTreeMap<String, BTreeMap<i64, (i64, f64)>>,
    /// The work table DML targets; created in an earlier unit.
    current: Option<String>,
    /// Live `txn` rows this stream inserted: id → status.
    txn: BTreeMap<i64, i64>,
    next_table: usize,
    next_txn: i64,
}

struct Stmt {
    kind: &'static str,
    sql: String,
    select: Option<usize>,
}

/// One transaction's statements and the model once it has committed.
struct Unit {
    stmts: Vec<Stmt>,
    /// Whether the unit also bumps the shared audit counter.
    shared: bool,
    after: Model,
}

struct StreamGen {
    stream: usize,
    rng: Rng,
    key_base: i64,
    model: Model,
    n_accts: u64,
}

impl StreamGen {
    fn table_name(&self, n: usize) -> String {
        format!("s{}w{n}", self.stream)
    }

    fn pick_kind(&mut self) -> &'static str {
        let total: u64 = KINDS.iter().map(|k| kind_weight(k)).sum();
        let mut ticket = self.rng.below(total);
        for k in KINDS {
            let w = kind_weight(k);
            if ticket < w {
                return k;
            }
            ticket -= w;
        }
        "SELECT"
    }

    fn insert_txn(&mut self, m: &mut Model) -> (&'static str, String) {
        let id = self.key_base + m.next_txn;
        m.next_txn += 1;
        let status = self.rng.below(5) as i64;
        m.txn.insert(id, status);
        // Dated after every SELECT window (the history's last day).
        let day = history_start() + HISTORY_DAYS - 1;
        (
            "INSERT",
            format!(
                "INSERT INTO txn VALUES ({id}, {}, DATE '{}', {}, '{}', '{}', {status})",
                self.rng.below(self.n_accts),
                dash_common::date::format_date(day),
                self.rng.below(100_000) as f64 / 4.0,
                self.rng.pick(&CATEGORIES),
                self.rng.pick(&REGIONS),
            ),
        )
    }

    fn next_unit(&mut self) -> Unit {
        let mut m = self.model.clone();
        let mut created_here: Vec<String> = Vec::new();
        let mut stmts = Vec::with_capacity(BATCH);
        while stmts.len() < BATCH {
            let kind = self.pick_kind();
            let on_work = m.current.is_some() && self.rng.below(4) != 0;
            let k = self.rng.below(WORK_KEYS) as i64;
            let (kind, sql) = match kind {
                "CREATE" => {
                    m.next_table += 1;
                    let name = self.table_name(m.next_table);
                    created_here.push(name.clone());
                    m.work.insert(name.clone(), BTreeMap::new());
                    (
                        kind,
                        format!("CREATE TABLE IF NOT EXISTS {name} (k BIGINT, v DOUBLE, note VARCHAR(20))"),
                    )
                }
                "DROP" => {
                    let victim = m
                        .work
                        .keys()
                        .find(|t| Some(*t) != m.current.as_ref() && !created_here.contains(t))
                        .cloned();
                    let name = match victim {
                        Some(t) => {
                            m.work.remove(&t);
                            t
                        }
                        None => format!("s{}none", self.stream),
                    };
                    (kind, format!("DROP TABLE IF EXISTS {name}"))
                }
                "SELECT" => {
                    let q = self.rng.below(SELECT_POOL as u64) as usize;
                    stmts.push(Stmt {
                        kind,
                        sql: String::new(),
                        select: Some(q),
                    });
                    continue;
                }
                "INSERT" if on_work => {
                    let t = m.current.clone().expect("on_work implies a current table");
                    let v = self.rng.below(4000) as f64 / 4.0;
                    let e = m
                        .work
                        .get_mut(&t)
                        .expect("current table is live")
                        .entry(k)
                        .or_default();
                    e.0 += 1;
                    e.1 += v;
                    (
                        kind,
                        format!("INSERT INTO {t} VALUES ({k}, {v}, 'n{}')", k % 10),
                    )
                }
                "UPDATE" if on_work => {
                    let t = m.current.clone().expect("on_work implies a current table");
                    if let Some(e) = m
                        .work
                        .get_mut(&t)
                        .expect("current table is live")
                        .get_mut(&k)
                    {
                        e.1 += e.0 as f64;
                    }
                    (kind, format!("UPDATE {t} SET v = v + 1 WHERE k = {k}"))
                }
                "DELETE" if on_work => {
                    let t = m.current.clone().expect("on_work implies a current table");
                    m.work
                        .get_mut(&t)
                        .expect("current table is live")
                        .remove(&k);
                    (kind, format!("DELETE FROM {t} WHERE k = {k}"))
                }
                "UPDATE" | "DELETE" if !m.txn.is_empty() => {
                    let nth = self.rng.below(m.txn.len() as u64) as usize;
                    let id = *m.txn.keys().nth(nth).expect("nth < len");
                    if kind == "UPDATE" {
                        let status = self.rng.below(5) as i64;
                        m.txn.insert(id, status);
                        (
                            kind,
                            format!("UPDATE txn SET status = {status} WHERE txn_id = {id}"),
                        )
                    } else {
                        m.txn.remove(&id);
                        (kind, format!("DELETE FROM txn WHERE txn_id = {id}"))
                    }
                }
                _ => self.insert_txn(&mut m),
            };
            stmts.push(Stmt {
                kind,
                sql,
                select: None,
            });
        }
        // Tables created in this unit become DML targets from the next one.
        if let Some(t) = created_here.last() {
            m.current = Some(t.clone());
        }
        let shared = self.rng.below(SHARED_EVERY) == 0;
        Unit {
            stmts,
            shared,
            after: m,
        }
    }
}

/// What one stream did in the window.
#[derive(Default)]
struct StreamOut {
    commits: u64,
    shared_commits: u64,
    attempts: u64,
    conflicts: u64,
    attempted: u64,
    failed: u64,
    failed_by_kind: BTreeMap<&'static str, u64>,
    errors: Vec<String>,
    wrong: Vec<String>,
    /// SELECT latencies and statements completed by committed units.
    window: Window,
    commit_ms: Vec<f64>,
    exec: ExecStats,
    modeled_io_s: f64,
    model: Model,
    key_base: i64,
}

fn is_conflict(e: &DashError) -> bool {
    e.class() == "40001"
}

/// Run one attempt of a unit. `Ok(true)` committed, `Ok(false)` hit a
/// 40001 and was rolled back by the engine; `Err` on a BEGIN/COMMIT
/// failure. Statement errors other than 40001 are recorded in
/// `stmt_failed` (the engine undid that statement) and the unit goes on.
#[allow(clippy::too_many_arguments)]
fn attempt(
    start: Instant,
    session: &mut Session,
    stream: usize,
    unit: &Unit,
    queries: &[Checked],
    tr: &mut Tracer,
    req: u64,
    out: &mut StreamOut,
    stmt_failed: &mut [Option<String>],
) -> Result<bool> {
    let root = tr.begin("bench.unit", None, req);
    let mut exec = |tr: &mut Tracer, kind: &'static str, sql: &str| {
        let t0 = Instant::now();
        let r = tr.span(span_name(kind), root, req, || session.execute(sql));
        (r, t0.elapsed())
    };
    if let (Err(e), _) = exec(tr, "BEGIN", "BEGIN") {
        tr.end(root);
        return Err(e);
    }
    for (i, st) in unit.stmts.iter().enumerate() {
        let sql = st
            .select
            .map_or(st.sql.as_str(), |q| queries[q].sql.as_str());
        let (r, took) = exec(tr, st.kind, sql);
        match r {
            Ok(res) => {
                stmt_failed[i] = None;
                if let Some(q) = st.select {
                    let at = (Instant::now() - start).as_secs_f64();
                    out.window.latencies.push((at, ms(took)));
                    out.modeled_io_s +=
                        DeviceModel::ssd().read_time_us(res.stats.pool_misses, true) / 1e6;
                    out.exec += res.stats;
                    if let Err(e) = verify(&queries[q], res.rows) {
                        out.wrong.push(e);
                    }
                }
            }
            Err(e) if is_conflict(&e) => {
                tr.end(root);
                return Ok(false);
            }
            Err(e) => stmt_failed[i] = Some(format!("{}: {e}", st.sql)),
        }
    }
    let ids = [SHARED_AUDIT_ID, stream as i64];
    for &id in &ids[usize::from(!unit.shared)..] {
        let sql = format!("UPDATE {AUDIT} SET hits = hits + 1 WHERE id = {id}");
        match exec(tr, "UPDATE", &sql).0 {
            Ok(_) => {}
            Err(e) if is_conflict(&e) => {
                tr.end(root);
                return Ok(false);
            }
            Err(e) => {
                tr.end(root);
                return Err(e);
            }
        }
    }
    let (r, took) = exec(tr, "COMMIT", "COMMIT");
    tr.end(root);
    match r {
        Ok(_) => {
            out.commit_ms.push(ms(took));
            Ok(true)
        }
        Err(e) if is_conflict(&e) => Ok(false),
        Err(e) => Err(e),
    }
}

fn run_stream(
    db: &Arc<Database>,
    mut gen: StreamGen,
    queries: &[Checked],
    start: Instant,
    deadline: Instant,
    tr: &mut Tracer,
) -> StreamOut {
    let mut session = db.connect();
    let mut out = StreamOut {
        key_base: gen.key_base,
        ..StreamOut::default()
    };
    let mut seq = 0u64;
    while Instant::now() < deadline {
        let unit = gen.next_unit();
        out.attempted += unit.stmts.len() as u64;
        let mut stmt_failed: Vec<Option<String>> = vec![None; unit.stmts.len()];
        let mut committed = false;
        for _ in 0..MAX_ATTEMPTS {
            out.attempts += 1;
            let req = ((gen.stream as u64) << 32) | seq;
            seq += 1;
            match attempt(
                start,
                &mut session,
                gen.stream,
                &unit,
                queries,
                tr,
                req,
                &mut out,
                &mut stmt_failed,
            ) {
                Ok(true) => {
                    committed = true;
                    break;
                }
                Ok(false) => out.conflicts += 1,
                Err(e) => {
                    if session.in_transaction() {
                        let _ = session.execute("ROLLBACK");
                    }
                    out.errors.push(format!("unit abandoned: {e}"));
                    break;
                }
            }
        }
        if committed {
            out.commits += 1;
            out.shared_commits += u64::from(unit.shared);
            gen.model = unit.after;
            let mut ok = unit.stmts.len() as u64;
            for (st, f) in unit.stmts.iter().zip(&stmt_failed) {
                if let Some(e) = f {
                    ok -= 1;
                    out.failed += 1;
                    *out.failed_by_kind.entry(st.kind).or_default() += 1;
                    out.errors.push(e.clone());
                }
            }
            out.window
                .done
                .push(((Instant::now() - start).as_secs_f64(), ok));
        } else {
            out.failed += unit.stmts.len() as u64;
            for st in &unit.stmts {
                *out.failed_by_kind.entry(st.kind).or_default() += 1;
            }
        }
    }
    session.close();
    out.model = gen.model;
    out
}

fn query_ints(
    session: &mut Session,
    sql: &str,
) -> std::result::Result<Vec<Vec<Option<i64>>>, String> {
    let rows = session.query(sql).map_err(|e| format!("{sql}: {e}"))?;
    Ok(rows
        .iter()
        .map(|r| r.0.iter().map(Datum::as_int).collect())
        .collect())
}

/// Check the database against what the streams committed: the lost-update
/// audit, each stream's `txn` rows and its live work tables.
fn verify_state(db: &Arc<Database>, outs: &[StreamOut]) -> std::result::Result<(), String> {
    let mut session = db.connect();
    let shared: u64 = outs.iter().map(|o| o.shared_commits).sum();
    let audit = query_ints(
        &mut session,
        &format!("SELECT id, hits FROM {AUDIT} ORDER BY id"),
    )?;
    let hits = |id: i64| audit.iter().find(|r| r[0] == Some(id)).and_then(|r| r[1]);
    if hits(SHARED_AUDIT_ID) != Some(shared as i64) {
        return Err(format!(
            "lost update: shared audit counter {:?}, {shared} committed bumps",
            hits(SHARED_AUDIT_ID)
        ));
    }
    let mut live_txn = 0usize;
    for (s, o) in outs.iter().enumerate() {
        if hits(s as i64) != Some(o.commits as i64) {
            return Err(format!(
                "stream {s} audit {:?}, {} commits",
                hits(s as i64),
                o.commits
            ));
        }
        let m = &o.model;
        live_txn += m.txn.len();
        let got = query_ints(
            &mut session,
            &format!(
                "SELECT COUNT(*), SUM(status) FROM txn WHERE txn_id BETWEEN {} AND {}",
                o.key_base,
                o.key_base + STREAM_KEY_SPAN - 1
            ),
        )?;
        let want_sum: i64 = m.txn.values().sum();
        let want = vec![
            Some(m.txn.len() as i64),
            (!m.txn.is_empty()).then_some(want_sum),
        ];
        if got.first() != Some(&want) {
            return Err(format!("stream {s} txn rows {got:?}, expected {want:?}"));
        }
        let prefix = format!("S{s}W");
        let mut tables: Vec<String> = db
            .catalog()
            .table_names()
            .into_iter()
            .filter(|t| t.to_ascii_uppercase().starts_with(&prefix))
            .map(|t| t.to_ascii_lowercase())
            .collect();
        tables.sort();
        let want_tables: Vec<String> = m.work.keys().cloned().collect();
        if tables != want_tables {
            return Err(format!(
                "stream {s} work tables {tables:?}, expected {want_tables:?}"
            ));
        }
        for (t, keys) in &m.work {
            let rows = session
                .query(&format!("SELECT COUNT(*), SUM(v) FROM {t}"))
                .map_err(|e| format!("{t}: {e}"))?;
            let count: i64 = keys.values().map(|(c, _)| c).sum();
            let sum: f64 = keys.values().map(|(_, v)| v).sum();
            let row = rows.first().ok_or(format!("{t}: no row"))?;
            let sum_ok = count == 0
                || row
                    .get(1)
                    .as_float()
                    .is_some_and(|v| (v - sum).abs() < 1e-6);
            if row.get(0).as_int() != Some(count) || !sum_ok {
                return Err(format!("{t}: {row:?}, expected count {count} sum {sum}"));
            }
        }
    }
    let total = query_ints(&mut session, "SELECT COUNT(*) FROM txn")?;
    let want = (SCALE + live_txn) as i64;
    if total.first().and_then(|r| r[0]) != Some(want) {
        return Err(format!("txn holds {total:?} rows, expected {want}"));
    }
    session.close();
    Ok(())
}

fn fresh_dir(path: &Path) -> Result<()> {
    if path.exists() {
        std::fs::remove_dir_all(path)
            .map_err(|e| DashError::Storage(format!("remove {}: {e}", path.display())))?;
    }
    Ok(())
}

pub fn run(args: &Args) -> Result<RunResult> {
    let mut rng = Rng::new(args.seed, 2);
    let w = customer::generate(SCALE, 0);
    let n_accts = w.tables[1].rows.len() as u64;
    let specs = select_pool(&mut rng);
    // Per-stream key offsets: distinct slots, drawn from the seed.
    let first_slot = rng.below(64) as i64;
    let gens: Vec<StreamGen> = (0..STREAMS)
        .map(|s| StreamGen {
            stream: s,
            rng: Rng::new(args.seed, 100 + s as u64),
            key_base: SCALE as i64 + STREAM_KEY_SPAN * (1 + first_slot + s as i64),
            model: Model::default(),
            n_accts,
        })
        .collect();
    let dir: PathBuf = args.out_dir.join(format!("mixdb-{}", std::process::id()));
    let sync = std::env::var("DASH_WAL_SYNC").unwrap_or_else(|_| "commit (default)".into());

    let (loaded, setup_s) = repeated_setup(
        || w.tables.clone(),
        |tables| {
            fresh_dir(&dir)?;
            let db = Database::open(&dir)?;
            // Loaded through SQL INSERT transactions, so the WAL holds every
            // base row (a catalog bulk load bypasses the log).
            let t0 = Instant::now();
            load_base_tables(&db, &tables)?;
            let load_s = t0.elapsed().as_secs_f64();
            let mut session = db.connect();
            session.execute(&format!(
                "CREATE TABLE {AUDIT} (id BIGINT NOT NULL, hits BIGINT NOT NULL)"
            ))?;
            session.execute("BEGIN")?;
            for id in std::iter::once(SHARED_AUDIT_ID).chain(0..STREAMS as i64) {
                session.execute(&format!("INSERT INTO {AUDIT} VALUES ({id}, 0)"))?;
            }
            session.execute("COMMIT")?;
            session.close();
            Ok((db, load_s))
        },
    )?;
    let (db, load_s) = loaded;
    let stored = stored_bytes(&db);
    let queries = expected_answers(&reference_engine(&w.tables)?, specs)?;
    let raw = raw_bytes(&w.tables);
    drop(w);
    let mut notes = vec![format!(
        "durable database at {}: WAL sync policy {sync}, group-commit window {:?}",
        dir.display(),
        db.group_commit_window()
    )];

    let txn_before = db.monitor().txn();
    let mut tracer = Tracer::new(args.trace, Instant::now());
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds);
    let mut window = Window::new(args.seconds);
    let results: Vec<(StreamOut, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = gens
            .into_iter()
            .map(|gen| {
                let mut tr = tracer.child();
                let (db, queries) = (&db, &queries);
                scope.spawn(move || {
                    let out = run_stream(db, gen, queries, start, deadline, &mut tr);
                    (out, tr)
                })
            })
            .collect();
        watch_rss(&mut window, start);
        handles
            .into_iter()
            .map(|h| h.join().expect("stream thread panicked"))
            .collect()
    });
    let mut outs = Vec::with_capacity(results.len());
    for (mut o, tr) in results {
        tracer.absorb(tr);
        window.absorb(std::mem::take(&mut o.window));
        outs.push(o);
    }
    let txn_after = db.monitor().txn();
    let commits_delta = txn_after.txn_commits - txn_before.txn_commits;
    let fsyncs = txn_after.wal_fsyncs - txn_before.wal_fsyncs;
    let batches = txn_after.group_commit_batches - txn_before.group_commit_batches;

    let mut wrong: Vec<String> = outs.iter().flat_map(|o| o.wrong.clone()).collect();
    if let Err(e) = verify_state(&db, &outs) {
        wrong.push(format!("before restart: {e}"));
    }
    let wlm_peak_queued = db.wlm().snapshot().3 as u64;
    drop(db);
    let reopen = Instant::now();
    let recovery = Database::open(&dir);
    let recovery_s = reopen.elapsed().as_secs_f64();
    match recovery {
        Ok(db) => {
            if let Err(e) = verify_state(&db, &outs) {
                wrong.push(format!("after restart: {e}"));
            }
        }
        Err(e) => wrong.push(format!("reopen failed: {e}")),
    }
    fresh_dir(&dir)?;

    let sum = |f: fn(&StreamOut) -> u64| outs.iter().map(f).sum::<u64>();
    let (attempted, failed) = (sum(|o| o.attempted), sum(|o| o.failed));
    let (attempts, conflicts, commits) = (
        sum(|o| o.attempts),
        sum(|o| o.conflicts),
        sum(|o| o.commits),
    );
    let commit_ms: Vec<f64> = outs.iter().flat_map(|o| o.commit_ms.clone()).collect();
    let e2e = e2e_metrics(
        setup_s,
        &window,
        attempted - failed,
        attempted,
        stored as f64 / raw.max(1) as f64,
    );
    notes.push(format!(
        "{commits} commits, {conflicts} conflicts (40001, retried) in {attempts} attempts, \
         {attempted} statements attempted, {failed} failed"
    ));
    notes.push(window_note(&window));
    notes.push(format!(
        "commit latency: p50 {:.4} ms, p99 {:.4} ms (n={})",
        percentile(&commit_ms, 50.0),
        percentile(&commit_ms, 99.0),
        commit_ms.len()
    ));
    let mut by_kind: BTreeMap<&str, u64> = BTreeMap::new();
    for o in &outs {
        for (k, n) in &o.failed_by_kind {
            *by_kind.entry(k).or_default() += n;
        }
    }
    notes.push(format!("failed statements by kind: {by_kind:?}"));
    notes.extend(
        outs.iter()
            .flat_map(|o| o.errors.iter().take(5))
            .map(|e| format!("error: {e}")),
    );
    notes.extend(wrong.iter().take(5).map(|e| format!("WRONG: {e}")));

    let mut exec = ExecStats::default();
    for o in &outs {
        exec += o.exec;
    }
    let layers = Layers {
        exec,
        modeled_io_s: outs.iter().map(|o| o.modeled_io_s).sum(),
        wlm_peak_queued,
        load_s,
        commit_p99_us: percentile(&commit_ms, 99.0) * 1e3,
        conflict_ratio: conflicts as f64 / attempts.max(1) as f64,
        fsyncs_per_commit: fsyncs as f64 / commits_delta.max(1) as f64,
        group_commit_size: commits_delta as f64 / batches.max(1) as f64,
        recovery_s,
        ..Layers::default()
    };
    Ok(RunResult {
        correct: wrong.is_empty(),
        attempted,
        failed,
        layers: per_layer_metrics(&tracer, &layers),
        e2e,
        notes,
        tracer,
    })
}
