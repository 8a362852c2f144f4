//! What the workloads share: the SELECT path (untraced through
//! `Session::execute`, traced as parse → admit → plan → execute in the
//! order `Session::execute` makes those calls), the closed-loop clients,
//! repeated set-up, and the per-layer metric table.

use crate::check::{verify, Checked};
use crate::trace::Tracer;
use crate::util::{median, metric, percentile, watch_rss, Metric, Window};
use dash_common::dialect::Dialect;
use dash_common::{DashError, Result, Row, StatementContext};
use dash_core::{Database, Session};
use dash_exec::functions::EvalContext;
use dash_exec::pipeline::PipelineConfig;
use dash_exec::stats::ExecStats;
use dash_sql::ast::Statement;
use dash_sql::parser::parse_statement;
use dash_sql::planner::plan_select;
use dash_storage::iodevice::DeviceModel;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Number of set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 7;

/// Run `setup` [`SETUP_REPS`] times on inputs from `prepare`, timing only
/// `setup`; return the last result and the median time. Earlier results
/// are dropped before the next set-up starts.
pub fn repeated_setup<I, T>(
    mut prepare: impl FnMut() -> I,
    mut setup: impl FnMut(I) -> Result<T>,
) -> Result<(T, f64)> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let input = prepare();
        let t0 = Instant::now();
        last = Some(setup(input)?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((last.expect("SETUP_REPS >= 1"), median(&times)))
}

/// Run one SELECT. Untraced it goes through `Session::execute`; traced,
/// the benchmark makes the calls `Session::execute` makes itself, each in
/// its own span, so their self times are the layers' times.
pub fn run_select(
    session: &mut Session,
    sql: &str,
    tr: &mut Tracer,
    req: u64,
) -> Result<(Vec<Row>, ExecStats)> {
    if !tr.enabled() {
        let r = session.execute(sql)?;
        return Ok((r.rows, r.stats));
    }
    let db: Arc<Database> = session.database().clone();
    let root = tr.begin("bench.select", None, req);
    let parsed = tr.span("sql.parser", root, req, || {
        parse_statement(sql, Dialect::Ansi)
    })?;
    let Statement::Select(select) = parsed else {
        return Err(DashError::analysis(format!("not a SELECT: {sql}")));
    };
    let ticket = tr.span("core.wlm.admit", root, req, || db.wlm().admit());
    let catalog = db.catalog();
    let ctx = EvalContext {
        now_micros: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_micros() as i64),
        sequences: Some(catalog.clone()),
        statement: StatementContext::with_limits(None, None),
        pipeline: PipelineConfig {
            enabled: catalog.pipeline_enabled(),
            inflight: catalog.pipeline_inflight(),
        },
    };
    let plan = tr.span("sql.planner", root, req, || {
        plan_select(&select, catalog.as_ref(), Dialect::Ansi, &ctx)
    })?;
    let (batch, stats) = tr.span("exec.plan", root, req, || {
        dash_exec::plan::execute(&plan, &ctx)
    })?;
    let rows = tr.span("core.result", root, req, || batch.to_rows());
    drop(ticket);
    tr.end(root);
    Ok((rows, stats))
}

/// One closed-loop client: runs a query and returns its rows (plus the
/// engine's statistics where the interface reports them).
pub trait Client: Send {
    fn query(&mut self, q: &Checked, tr: &mut Tracer, req: u64) -> Result<(Vec<Row>, ExecStats)>;

    /// Traced-run work done after a query's latency was taken.
    fn after(&mut self, _q: &Checked, _tr: &mut Tracer, _req: u64) -> Result<()> {
        Ok(())
    }
}

/// A session on a single-node database.
pub struct SessionClient(pub Session);

impl Client for SessionClient {
    fn query(&mut self, q: &Checked, tr: &mut Tracer, req: u64) -> Result<(Vec<Row>, ExecStats)> {
        run_select(&mut self.0, &q.sql, tr, req)
    }
}

/// What the clients of a closed-loop window did.
#[derive(Default)]
pub struct LoopOutcome {
    pub window: Window,
    /// The query index of each latency sample in `window`.
    pub sample_query: Vec<usize>,
    pub ok: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub wrong: Vec<String>,
    pub stats: ExecStats,
    pub modeled_io_s: f64,
}

/// Drive each client through its stream of query indices, round after
/// round, until `seconds` have passed. Closed loop: a client sends its
/// next query only when the previous one has returned.
pub fn closed_loop<C: Client>(
    clients: Vec<C>,
    streams: &[Vec<usize>],
    queries: &[Checked],
    seconds: f64,
    tracer: &mut Tracer,
) -> LoopOutcome {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let ssd = &DeviceModel::ssd();
    let mut window = Window::new(seconds);
    let results: Vec<(LoopOutcome, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(streams)
            .enumerate()
            .map(|(ci, (mut client, stream))| {
                let mut tr = tracer.child();
                scope.spawn(move || {
                    let mut out = LoopOutcome::default();
                    let mut seq = 0u64;
                    'window: loop {
                        for &qi in stream {
                            if Instant::now() >= deadline {
                                break 'window;
                            }
                            let q = &queries[qi];
                            let req = ((ci as u64) << 32) | seq;
                            seq += 1;
                            let t0 = Instant::now();
                            let res = client.query(q, &mut tr, req);
                            let elapsed = t0.elapsed();
                            let at = (t0 + elapsed - start).as_secs_f64();
                            match res {
                                Ok((rows, stats)) => {
                                    out.window.latencies.push((at, crate::util::ms(elapsed)));
                                    out.window.done.push((at, 1));
                                    out.sample_query.push(qi);
                                    out.ok += 1;
                                    if stats != ExecStats::default() {
                                        out.modeled_io_s +=
                                            ssd.read_time_us(stats.pool_misses, true) / 1e6;
                                        out.stats += stats;
                                    }
                                    if let Err(e) = verify(q, rows) {
                                        out.wrong.push(e);
                                    }
                                    if let Err(e) = client.after(q, &mut tr, req) {
                                        out.failed += 1;
                                        out.errors.push(format!("{}: {e}", q.sql));
                                    }
                                }
                                Err(e) => {
                                    out.failed += 1;
                                    out.errors.push(format!("{}: {e}", q.sql));
                                }
                            }
                        }
                    }
                    (out, tr)
                })
            })
            .collect();
        watch_rss(&mut window, start);
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut total = LoopOutcome::default();
    for (out, tr) in results {
        window.absorb(out.window);
        total.sample_query.extend(out.sample_query);
        total.ok += out.ok;
        total.failed += out.failed;
        total.errors.extend(out.errors);
        total.wrong.extend(out.wrong);
        total.stats += out.stats;
        total.modeled_io_s += out.modeled_io_s;
        tracer.absorb(tr);
    }
    total.window = window;
    total
}

/// Per-layer figures gathered besides the spans. Every field defaults to
/// zero: a layer a workload does not exercise reports 0.
#[derive(Default)]
pub struct Layers {
    pub exec: ExecStats,
    pub modeled_io_s: f64,
    pub wlm_peak_queued: u64,
    pub load_s: f64,
    pub commit_p99_us: f64,
    pub conflict_ratio: f64,
    pub fsyncs_per_commit: f64,
    pub group_commit_size: f64,
    pub recovery_s: f64,
    pub shard_max_us: Vec<f64>,
    pub coordinator_us: Vec<f64>,
    pub shard_retries: u64,
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Span name → per-layer metric stem; each stem is reported as the
/// median (`.p50`) and the total (`.total`) of the spans' self times.
const SPAN_METRICS: [(&str, &str); 13] = [
    ("sql.parser", "sql.parser.time_us"),
    ("sql.planner", "sql.planner.time_us"),
    ("core.wlm.admit", "core.wlm.wait_us"),
    ("exec.plan", "exec.plan.time_us"),
    ("core.result", "core.result.time_us"),
    ("core.session.insert", "core.session.insert_us"),
    ("core.session.update", "core.session.update_us"),
    ("core.session.delete", "core.session.delete_us"),
    ("core.session.create", "core.session.create_us"),
    ("core.session.drop", "core.session.drop_us"),
    ("core.session.select", "core.session.select_us"),
    ("core.session.commit", "core.session.commit_us"),
    ("mpp.cluster.query", "mpp.cluster.query_us"),
];

fn distribution(out: &mut Vec<Metric>, stem: &str, values_us: &[f64]) {
    out.push(metric(
        format!("{stem}.p50"),
        percentile(values_us, 50.0),
        "us",
    ));
    out.push(metric(
        format!("{stem}.total"),
        values_us.iter().fold(0.0, |a, b| a + b),
        "us",
    ));
}

/// Every per-layer metric, in a fixed order, from the spans and `layers`.
pub fn per_layer_metrics(tracer: &Tracer, l: &Layers) -> Vec<Metric> {
    let by_name = tracer.self_us_by_name();
    let mut out = Vec::new();
    for (span, stem) in SPAN_METRICS {
        distribution(
            &mut out,
            stem,
            by_name.get(span).map_or(&[], |v| v.as_slice()),
        );
    }
    distribution(&mut out, "mpp.cluster.shard_max_us", &l.shard_max_us);
    distribution(&mut out, "mpp.cluster.coordinator_us", &l.coordinator_us);
    let (select_ms, layers_ms) = select_span_sums(tracer);
    out.push(metric(
        "trace.select_ms.p50",
        percentile(&select_ms, 50.0),
        "ms",
    ));
    out.push(metric(
        "trace.select_layers_ms.p50",
        percentile(&layers_ms, 50.0),
        "ms",
    ));
    let e = &l.exec;
    out.extend([
        metric("core.session.commit_us.p99", l.commit_p99_us, "us"),
        metric("core.wlm.peak_queued", l.wlm_peak_queued as f64, "count"),
        metric("exec.rows_scanned", e.rows_scanned as f64, "count"),
        metric(
            "exec.key.encoded_ratio",
            ratio(e.encoded_key_rows, e.encoded_key_rows + e.datum_key_rows),
            "ratio",
        ),
        metric(
            "exec.scan.strides_skipped_ratio",
            ratio(e.strides_skipped, e.strides_total),
            "ratio",
        ),
        metric(
            "exec.morsels_dispatched",
            e.morsels_dispatched as f64,
            "count",
        ),
        metric(
            "exec.parallel_workers_used",
            e.parallel_workers_used as f64,
            "count",
        ),
        metric(
            "exec.peak_inflight_bytes",
            e.peak_inflight_bytes as f64,
            "bytes",
        ),
        metric(
            "exec.sort.runs_generated",
            e.sort_runs_generated as f64,
            "count",
        ),
        metric(
            "storage.bufferpool.hit_ratio",
            ratio(e.pool_hits, e.pool_hits + e.pool_misses),
            "ratio",
        ),
        metric("storage.bufferpool.misses", e.pool_misses as f64, "count"),
        metric("storage.bufferpool.modeled_io_s", l.modeled_io_s, "s"),
        metric("storage.table.load_s", l.load_s, "s"),
        metric("core.txn.conflict_ratio", l.conflict_ratio, "ratio"),
        metric(
            "storage.wal.fsyncs_per_commit",
            l.fsyncs_per_commit,
            "ratio",
        ),
        metric(
            "storage.wal.group_commit_size",
            l.group_commit_size,
            "count",
        ),
        metric("storage.wal.recovery_s", l.recovery_s, "s"),
        metric("mpp.cluster.shard_retries", l.shard_retries as f64, "count"),
    ]);
    out
}

/// Per traced SELECT: its whole duration, and the sum of its parse,
/// admit, plan and execute spans, in ms.
fn select_span_sums(tracer: &Tracer) -> (Vec<f64>, Vec<f64>) {
    let spans = tracer.spans();
    let mut layers: BTreeMap<usize, f64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            if matches!(
                s.name,
                "sql.parser" | "core.wlm.admit" | "sql.planner" | "exec.plan"
            ) {
                *layers.entry(p).or_default() += (s.end_ns - s.start_ns) as f64 / 1e6;
            }
        }
    }
    let mut total = Vec::new();
    let mut sums = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        if s.name == "bench.select" {
            total.push((s.end_ns - s.start_ns) as f64 / 1e6);
            sums.push(layers.get(&i).copied().unwrap_or(0.0));
        }
    }
    (total, sums)
}
