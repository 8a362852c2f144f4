//! What the workloads share around the timed window: loading, storage
//! size, the single-node read-only run, and turning a window into the
//! end-to-end and per-layer metrics.

use crate::check::{expected_answers, raw_bytes, reference_engine};
use crate::harness::{
    closed_loop, per_layer_metrics, repeated_setup, Layers, LoopOutcome, SessionClient,
};
use crate::trace::Tracer;
use crate::util::{median, metric, sampled, Metric, Window, PARTS};
use crate::Args;
use dash_common::Result;
use dash_core::Database;
use dash_workloads::{QuerySpec, TableDef};
use std::sync::Arc;
use std::time::Instant;

/// What one run produced.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub e2e: Vec<Metric>,
    pub layers: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// The run's spans (empty when untraced).
    pub tracer: Tracer,
}

/// Bulk-load generated rows through the catalog (the LOAD path, with full
/// encoding analysis). Returns the load time in seconds.
pub fn load_tables(db: &Arc<Database>, tables: Vec<TableDef>) -> Result<f64> {
    let mut load_s = 0.0;
    for t in tables {
        let handle = db.catalog().create_table(&t.name, t.schema, None)?;
        let t0 = Instant::now();
        handle.write().load_rows(t.rows)?;
        load_s += t0.elapsed().as_secs_f64();
    }
    Ok(load_s)
}

/// Compressed bytes of every table in the database.
pub fn stored_bytes(db: &Database) -> usize {
    let catalog = db.catalog();
    catalog
        .table_names()
        .iter()
        .filter_map(|n| catalog.table_handle(n).ok())
        .map(|h| h.table.read().compressed_bytes())
        .sum()
}

/// The end-to-end metrics every workload reports.
pub fn e2e_metrics(
    setup_s: f64,
    window: &Window,
    ok: u64,
    attempted: u64,
    stored_bytes_ratio: f64,
) -> Vec<Metric> {
    let n = window.latencies.len();
    vec![
        metric("setup_s", setup_s, "s"),
        metric("ops_per_s", window.ops_per_s(), "1/s"),
        sampled("latency_p50_ms", window.latency_ms(50.0), "ms", n),
        sampled("latency_p95_ms", window.latency_ms(95.0), "ms", n),
        metric("peak_rss_mb", median(&window.peak_rss_mb), "MB"),
        metric("stored_bytes_ratio", stored_bytes_ratio, "ratio"),
        metric("ops_ok_ratio", ok as f64 / attempted.max(1) as f64, "ratio"),
    ]
}

/// A note on the window: its parts, their smallest latency sample and
/// whether the peak-RSS mark could be reset.
pub fn window_note(w: &Window) -> String {
    format!(
        "figures are medians over {PARTS} parts of the {:.1} s window; fewest latency samples in a part: {}; peak-RSS reset {}",
        w.seconds,
        w.min_part_samples(),
        if w.rss_reset { "applied" } else { "unavailable" }
    )
}

/// Run a read-only workload on one database: set it up
/// [`SETUP_REPS`](crate::harness::SETUP_REPS) times with `make_db` and the
/// generated `tables`, compute the reference answers of `specs`, then drive
/// one session per stream through the timed window. `report` sees the
/// window's outcome before it becomes the result.
pub fn single_node(
    args: &Args,
    tables: Vec<TableDef>,
    make_db: impl Fn() -> Arc<Database>,
    specs: Vec<QuerySpec>,
    streams: &[Vec<usize>],
    report: impl FnOnce(&LoopOutcome),
) -> Result<RunResult> {
    let ((db, load_s), setup_s) = repeated_setup(
        || tables.clone(),
        |tables| {
            let db = make_db();
            let load_s = load_tables(&db, tables)?;
            Ok((db, load_s))
        },
    )?;
    let queries = expected_answers(&reference_engine(&tables)?, specs)?;
    let raw = raw_bytes(&tables);
    drop(tables);

    let mut tracer = Tracer::new(args.trace, Instant::now());
    let clients = streams
        .iter()
        .map(|_| SessionClient(db.connect()))
        .collect();
    let out = closed_loop(clients, streams, &queries, args.seconds, &mut tracer);
    report(&out);
    let layers = Layers {
        load_s,
        wlm_peak_queued: db.wlm().snapshot().3 as u64,
        ..Layers::default()
    };
    let stored = stored_bytes(&db);
    Ok(finish(out, tracer, layers, setup_s, stored, raw))
}

/// Turn a read-only closed-loop window into the run's result.
pub fn finish(
    out: LoopOutcome,
    tracer: Tracer,
    mut layers: Layers,
    setup_s: f64,
    stored: usize,
    raw: usize,
) -> RunResult {
    let attempted = out.ok + out.failed;
    let e2e = e2e_metrics(
        setup_s,
        &out.window,
        out.ok,
        attempted,
        stored as f64 / raw.max(1) as f64,
    );
    layers.exec = out.stats;
    layers.modeled_io_s = out.modeled_io_s;
    let mut notes = vec![
        format!("{} queries ok, {} failed", out.ok, out.failed),
        window_note(&out.window),
    ];
    notes.extend(out.errors.iter().take(5).map(|e| format!("error: {e}")));
    notes.extend(
        out.wrong
            .iter()
            .take(5)
            .map(|e| format!("WRONG ANSWER: {e}")),
    );
    RunResult {
        correct: out.wrong.is_empty(),
        attempted,
        failed: out.failed,
        layers: per_layer_metrics(&tracer, &layers),
        e2e,
        notes,
        tracer,
    }
}
