//! Pipelined query-wide morsel scheduling (§II.B: strides of data flow
//! through the whole operator chain, not operator-at-a-time).
//!
//! Runs the join+group repro query over 1.5M fact rows twice per worker
//! count — once on the materialized operator-at-a-time executor, once on
//! the pipeline scheduler — and records peak in-flight memory and the
//! scaling trajectory in `BENCH_pipeline.json`. A second query, a
//! single-key GROUP BY with no join, times the aggregate kernel itself on
//! both executors.
//!
//! The memory claim under test: the materialized executor's peak is
//! O(join output) because the aggregate's input batch is fully resident,
//! while the pipeline's peak is O(frozen build + morsels in flight), a
//! window bounded by `DASH_PIPELINE_INFLIGHT`. Both peaks are measured
//! the same way, through `peak_inflight_bytes` (budget-lease high-water
//! accounting on the statement).
//!
//! Timing model (the simulated-testbed convention shared by the repro
//! binaries, documented in the JSON): the harness is single-core, so a
//! w-worker run's measured wall time is the total CPU its threads
//! consumed; buffer-pool misses are simulated SSD random reads; modeled
//! elapsed is `(measured_cpu_wall + simulated_io) / fan-out`. cpu_wall_s
//! is the median of 3 measured runs.

use dash_bench::{report, section};
use dash_common::types::DataType;
use dash_common::{row, Field, Row, Schema};
use dash_core::{Database, HardwareSpec};
use dash_storage::iodevice::DeviceModel;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

const FACT_ROWS: usize = 1_500_000;
const WORKERS: [usize; 3] = [1, 2, 4];
/// 2 MB buffer pool against a ~50 MB working set: the data-larger-than-RAM
/// regime where holding a whole joined intermediate hurts most.
const POOL_PAGES: usize = 64;

struct Run {
    workers: usize,
    pipelined: bool,
    cpu_s: f64,
    sim_io_s: f64,
    total_s: f64,
    peak_inflight_bytes: u64,
    peak_inflight_morsels: u64,
    pipelines_run: u64,
    pipeline_breakers: u64,
    identical: bool,
}

fn build_db() -> Arc<Database> {
    let db = Database::with_pool_pages(HardwareSpec::laptop(), POOL_PAGES);
    let schema = Schema::new(vec![
        Field::not_null("id", DataType::Int64),
        Field::new("grp", DataType::Int64),
        Field::new("qty", DataType::Int64),
        Field::new("qty2", DataType::Int64),
        Field::new("label", DataType::Utf8),
    ])
    .unwrap();
    let handle = db.catalog().create_table("facts", schema, None).unwrap();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let rows: Vec<Row> = (0..FACT_ROWS)
        .map(|i| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            row![
                i as i64,
                ((x >> 17) % 17) as i64,
                ((x >> 7) % 1000) as i64 - 500,
                ((x >> 27) % 5000) as i64,
                format!("L{}", (x >> 41) % 23)
            ]
        })
        .collect();
    handle.write().load_rows(rows).unwrap();

    let dim_schema = Schema::new(vec![
        Field::not_null("g", DataType::Int64),
        Field::new("name", DataType::Utf8),
    ])
    .unwrap();
    let dim = db.catalog().create_table("dims", dim_schema, None).unwrap();
    let dim_rows: Vec<Row> = (0..12).map(|g| row![g as i64, format!("dim-{g}")]).collect();
    dim.write().load_rows(dim_rows).unwrap();
    db
}

/// Run `sql` at each worker count on both executors. Integer aggregates
/// make every result byte-identical up to group emit order, which the
/// ORDER BY pins — so each run asserts equality with the baseline.
fn scale_query(db: &Arc<Database>, sql: &str) -> Vec<Run> {
    let ssd = DeviceModel::ssd();
    let mut session = db.connect();
    let mut baseline: Option<Vec<Row>> = None;
    let mut runs = Vec::new();
    for &w in &WORKERS {
        for pipelined in [false, true] {
            db.catalog().set_parallelism(w);
            db.catalog().set_pipeline_enabled(pipelined);
            let _ = session.execute(sql).expect("query");
            let mut timed = Vec::new();
            for _ in 0..3 {
                let start = Instant::now();
                let result = session.execute(sql).expect("query");
                timed.push((start.elapsed().as_secs_f64(), result));
            }
            timed.sort_by(|a, b| a.0.total_cmp(&b.0));
            let (cpu_s, result) = timed.swap_remove(1);
            let stats = result.stats;
            let identical = match &baseline {
                None => {
                    baseline = Some(result.rows);
                    true
                }
                Some(b) => *b == result.rows,
            };
            assert!(identical, "results diverged at {w} workers (pipelined={pipelined}):\n{sql}");
            let sim_io_s = ssd.read_time_us(stats.pool_misses, false) / 1e6;
            let fanout = stats.parallel_workers_used.max(1) as f64;
            runs.push(Run {
                workers: w,
                pipelined,
                cpu_s,
                sim_io_s,
                total_s: (cpu_s + sim_io_s) / fanout,
                peak_inflight_bytes: stats.peak_inflight_bytes,
                peak_inflight_morsels: stats.peak_inflight_morsels,
                pipelines_run: stats.pipelines_run,
                pipeline_breakers: stats.pipeline_breakers,
                identical,
            });
        }
    }
    db.catalog().set_pipeline_enabled(true);
    runs
}

fn find(runs: &[Run], workers: usize, pipelined: bool) -> &Run {
    runs.iter()
        .find(|r| r.workers == workers && r.pipelined == pipelined)
        .expect("run present")
}

/// One JSON line per run; `wall_label` names the measured wall-time field.
fn runs_json(runs: &[Run], wall_label: &str) -> String {
    let mut json = String::new();
    for (i, r) in runs.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"workers\": {}, \"pipelined\": {}, \"{wall_label}\": {:.6}, \"sim_io_serial_s\": {:.6}, \
             \"modeled_elapsed_s\": {:.6}, \"peak_inflight_bytes\": {}, \"peak_inflight_morsels\": {}, \
             \"pipelines_run\": {}, \"pipeline_breakers\": {}, \"results_identical\": {}}}{}",
            r.workers,
            r.pipelined,
            r.cpu_s,
            r.sim_io_s,
            r.total_s,
            r.peak_inflight_bytes,
            r.peak_inflight_morsels,
            r.pipelines_run,
            r.pipeline_breakers,
            r.identical,
            if i + 1 == runs.len() { "" } else { "," },
        );
    }
    json
}

fn main() {
    println!("Pipelined execution reproduction — dashdb-local-rs");
    println!("building {FACT_ROWS} fact rows against a {POOL_PAGES}-page pool...");
    let db = build_db();

    // Two group columns keep the materialized executor off the fused
    // join-aggregate shortcut, so it genuinely materializes the join
    // output — the intermediate whose residency the pipeline eliminates.
    let sql = "SELECT d.name, f.label, COUNT(*), SUM(f.qty) FROM facts f \
               JOIN dims d ON f.grp = d.g GROUP BY d.name, f.label \
               ORDER BY d.name, f.label";

    section("join + group, materialized vs pipelined");
    let runs = scale_query(&db, sql);
    for r in &runs {
        report(
            &format!(
                "{} worker(s), {}",
                r.workers,
                if r.pipelined { "pipelined   " } else { "materialized" }
            ),
            format!(
                "(cpu {:>7.1} ms + sim io {:>7.1} ms) = {:>7.1} ms modeled, peak {:>12} B in flight ({} pipelines, {} breakers, {} morsels)",
                r.cpu_s * 1e3,
                r.sim_io_s * 1e3,
                r.total_s * 1e3,
                r.peak_inflight_bytes,
                r.pipelines_run,
                r.pipeline_breakers,
                r.peak_inflight_morsels,
            ),
        );
    }

    section("shape checks");
    let mat4 = find(&runs, 4, false);
    let pipe4 = find(&runs, 4, true);
    let mem_reduction = mat4.peak_inflight_bytes as f64 / pipe4.peak_inflight_bytes.max(1) as f64;
    report(
        "pipelined peak memory well under materialized at 4 workers (>= 2x less)",
        format!(
            "{} B vs {} B = {:.1}x reduction {}",
            pipe4.peak_inflight_bytes,
            mat4.peak_inflight_bytes,
            mem_reduction,
            if mem_reduction >= 2.0 { "PASS" } else { "FAIL" }
        ),
    );
    let throughput_ratio = mat4.total_s / pipe4.total_s;
    report(
        "pipelined throughput no worse at 4 workers (>= 0.9x materialized)",
        format!(
            "{:.1} ms vs {:.1} ms = {:.2}x {}",
            pipe4.total_s * 1e3,
            mat4.total_s * 1e3,
            throughput_ratio,
            if throughput_ratio >= 0.9 { "PASS" } else { "FAIL" }
        ),
    );
    report(
        "results byte-identical across executors and worker counts",
        if runs.iter().all(|r| r.identical) {
            "PASS"
        } else {
            "FAIL"
        },
    );

    // One int key, three typed aggregates, no join: both executors run the
    // same aggregate kernel, so the pipelined drive must not cost more.
    let single_sql = "SELECT grp, COUNT(*), SUM(qty), SUM(qty2) FROM facts GROUP BY grp";
    section("single-key group by, materialized vs pipelined (measured wall time)");
    let single = scale_query(&db, single_sql);
    for r in &single {
        report(
            &format!(
                "{} worker(s), {}",
                r.workers,
                if r.pipelined { "pipelined   " } else { "materialized" }
            ),
            format!(
                "measured {:>7.1} ms wall (modeled {:>7.1} ms)",
                r.cpu_s * 1e3,
                r.total_s * 1e3
            ),
        );
    }
    section("single-key shape checks");
    for w in [1, 2] {
        let (mat, pipe) = (find(&single, w, false), find(&single, w, true));
        report(
            &format!("pipelined measured wall at or below materialized at {w} worker(s)"),
            format!(
                "{:.1} ms vs {:.1} ms {}",
                pipe.cpu_s * 1e3,
                mat.cpu_s * 1e3,
                if pipe.cpu_s <= mat.cpu_s { "PASS" } else { "FAIL" }
            ),
        );
    }

    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"pipeline_scaling\",\n");
    let _ = write!(
        json,
        "  \"fact_rows\": {FACT_ROWS},\n  \"bufferpool_pages\": {POOL_PAGES},\n"
    );
    json.push_str(
        "  \"memory_model\": \"peak_inflight_bytes is the statement's budget-lease high-water: \
         the materialized executor charges the aggregate's fully-resident input batch \
         (O(join output)); the pipeline scheduler charges the frozen join build plus every \
         claimed-but-unfolded morsel (O(window * morsel bytes), window = parallelism * 4 \
         unless DASH_PIPELINE_INFLIGHT overrides it).\",\n",
    );
    json.push_str(
        "  \"timing_model\": \"modeled_elapsed_s = (cpu_wall_s + sim_io_serial_s) / \
         parallel_workers_used; single-core harness, SSD-modeled pool misses, \
         cpu_wall_s median of 3.\",\n",
    );
    let _ = write!(
        json,
        "  \"peak_memory_reduction_at_4_workers\": {mem_reduction:.3},\n  \
         \"throughput_ratio_pipelined_vs_materialized_at_4_workers\": {throughput_ratio:.3},\n"
    );
    let _ = writeln!(json, "  \"sql\": \"{sql}\",");
    json.push_str("  \"runs\": [\n");
    json.push_str(&runs_json(&runs, "cpu_wall_s"));
    json.push_str("  ],\n  \"single_key_group_by\": {\n");
    let _ = writeln!(json, "    \"sql\": \"{single_sql}\",");
    let _ = writeln!(
        json,
        "    \"host_cores\": {},",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    json.push_str(
        "    \"measured\": \"measured_wall_s is the median of 3 timed runs on the host; \
         modeled_elapsed_s follows timing_model above and is not a measurement.\",\n",
    );
    json.push_str("    \"runs\": [\n");
    json.push_str(&runs_json(&single, "measured_wall_s"));
    json.push_str("    ]\n  }\n}\n");
    std::fs::write("BENCH_pipeline.json", &json).expect("write BENCH_pipeline.json");
    println!("\nwrote BENCH_pipeline.json");
}
