//! `tpcds_mpp` — Table 1 Test 3's query shapes through a `dash-mpp`
//! cluster of 2 nodes × 2 shards: `store_sales` hash-distributed, the
//! dimensions replicated, node cores × nodes = the host's cores. One
//! client. The only workload through scatter, partial-aggregate merge and
//! coordinator sort/limit.

use crate::check::{expected_answers, reference_engine, Checked};
use crate::harness::{closed_loop, repeated_setup, Client, Layers};
use crate::readonly::{finish, stored_bytes, RunResult};
use crate::trace::Tracer;
use crate::util::Rng;
use crate::Args;
use dash_common::{Datum, Result, Row};
use dash_core::{HardwareSpec, Session};
use dash_exec::stats::ExecStats;
use dash_mpp::{Cluster, Distribution};
use dash_workloads::gen::{history_start, recent_window_start, HISTORY_DAYS};
use dash_workloads::spec::{Pred, QuerySpec};
use dash_workloads::tpcds;
use std::sync::Mutex;
use std::time::Instant;

/// Rows in the `store_sales` fact table.
const SCALE: usize = 200_000;
const NODES: usize = 2;
const SHARDS_PER_NODE: usize = 2;
/// The TPC-DS-like query shapes (Q1..Q9).
const SHAPES: usize = 9;
/// Variants of each shape with reference answers.
const VARIANTS: usize = 3;
/// Passes pre-drawn for the client; it repeats them in order.
const PASSES: usize = 8;

/// One TPC-DS-like query of the given shape (Q1..Q9 of
/// `dash_workloads::tpcds`). Windows start at a date drawn from the seed
/// but keep the shape's length, and thresholds keep their selectivity, so
/// a pass costs about the same under every seed.
pub fn tpcds_query(shape: usize, rng: &mut Rng) -> QuerySpec {
    let recent = recent_window_start() - rng.below(60) as i32;
    let quarter = Pred::between(
        "ss_sold_date",
        Datum::Date(recent),
        Datum::Date(recent + 89),
    );
    let last_year = history_start() + HISTORY_DAYS - 365 - rng.below(60) as i32;
    let ss = || "store_sales".to_string();
    let item_join = |value: &str, predicates: Vec<Pred>| QuerySpec::JoinAgg {
        fact: ss(),
        dim: "item".into(),
        fact_key: "ss_item_sk".into(),
        dim_key: "i_item_sk".into(),
        dim_label: "i_category".into(),
        value: value.into(),
        predicates,
    };
    match shape {
        0 => item_join("ss_sales_price", vec![quarter]),
        1 => QuerySpec::JoinAgg {
            fact: ss(),
            dim: "store".into(),
            fact_key: "ss_store_sk".into(),
            dim_key: "s_store_sk".into(),
            dim_label: "s_state".into(),
            value: "ss_net_profit".into(),
            predicates: vec![Pred::between(
                "ss_sold_date",
                Datum::Date(last_year),
                Datum::Date(last_year + 364),
            )],
        },
        2 => QuerySpec::GroupAgg {
            table: ss(),
            predicates: vec![],
            key: "ss_store_sk".into(),
            value: (*rng.pick(&["ss_sales_price", "ss_net_profit"])).into(),
        },
        3 => QuerySpec::FilterScan {
            table: ss(),
            predicates: vec![Pred::ge("ss_ext_discount", 10.0f64), quarter],
            projection: vec!["ss_ticket".into(), "ss_ext_discount".into()],
        },
        4 => {
            let month = last_year + rng.below(300) as i32;
            QuerySpec::GroupAgg {
                table: ss(),
                predicates: vec![Pred::between(
                    "ss_sold_date",
                    Datum::Date(month),
                    Datum::Date(month + 30),
                )],
                key: "ss_item_sk".into(),
                value: "ss_quantity".into(),
            }
        }
        5 => QuerySpec::FilterScan {
            table: ss(),
            predicates: vec![
                Pred::ge("ss_quantity", 18i64),
                Pred::ge(
                    "ss_sold_date",
                    Datum::Date(history_start() + rng.below(30) as i32),
                ),
            ],
            projection: vec!["ss_ticket".into(), "ss_quantity".into()],
        },
        6 => QuerySpec::GroupAgg {
            table: ss(),
            predicates: vec![quarter],
            key: "ss_store_sk".into(),
            value: "ss_net_profit".into(),
        },
        7 => {
            let value = *rng.pick(&["ss_net_profit", "ss_sales_price"]);
            item_join(value, vec![])
        }
        _ => QuerySpec::TopN {
            table: ss(),
            predicates: vec![quarter],
            projection: vec!["ss_ticket".into(), "ss_net_profit".into()],
            order_by: "ss_net_profit".into(),
            desc: true,
            n: 50,
        },
    }
}

/// Per-request shard and coordinator figures from the traced run.
#[derive(Default)]
struct ShardTimes {
    shard_max_us: Vec<f64>,
    coordinator_us: Vec<f64>,
}

struct MppClient<'a> {
    cluster: &'a Cluster,
    /// One session per shard database, for the traced per-shard replay.
    shard_sessions: Vec<Session>,
    last_query_us: f64,
    times: &'a Mutex<ShardTimes>,
}

impl Client for MppClient<'_> {
    fn query(&mut self, q: &Checked, tr: &mut Tracer, req: u64) -> Result<(Vec<Row>, ExecStats)> {
        let t0 = Instant::now();
        let rows = tr.span("mpp.cluster.query", None, req, || {
            self.cluster.query(&q.sql)
        })?;
        self.last_query_us = crate::util::us(t0.elapsed());
        Ok((rows, ExecStats::default()))
    }

    /// Traced runs replay the same SELECT on each shard's database; the
    /// slowest shard estimates the scatter's share of the cluster query and
    /// the rest is the coordinator's (an estimate: the cluster rewrites
    /// aggregates into partials before it scatters).
    fn after(&mut self, q: &Checked, tr: &mut Tracer, req: u64) -> Result<()> {
        if !tr.enabled() {
            return Ok(());
        }
        let mut slowest = 0.0f64;
        for session in &mut self.shard_sessions {
            let t0 = Instant::now();
            tr.span("mpp.shard.query", None, req, || session.execute(&q.sql))?;
            slowest = slowest.max(crate::util::us(t0.elapsed()));
        }
        let mut times = self.times.lock().expect("shard times lock poisoned");
        times.shard_max_us.push(slowest);
        times.coordinator_us.push(self.last_query_us - slowest);
        Ok(())
    }
}

fn build_cluster(
    hw: HardwareSpec,
    tables: Vec<dash_workloads::TableDef>,
) -> Result<(Cluster, f64)> {
    let cluster = Cluster::new(NODES, SHARDS_PER_NODE, hw)?;
    let mut load_s = 0.0;
    for t in tables {
        let dist = if t.name == "store_sales" {
            Distribution::Hash("ss_ticket".into())
        } else {
            Distribution::Replicated
        };
        cluster.create_table(&t.name, t.schema, dist)?;
        let t0 = Instant::now();
        cluster.load_rows(&t.name, t.rows)?;
        load_s += t0.elapsed().as_secs_f64();
    }
    Ok((cluster, load_s))
}

pub fn run(args: &Args) -> Result<RunResult> {
    let mut rng = Rng::new(args.seed, 3);
    let w = tpcds::generate(SCALE);
    let specs: Vec<QuerySpec> = (0..SHAPES)
        .flat_map(|shape| {
            (0..VARIANTS)
                .map(|_| tpcds_query(shape, &mut rng))
                .collect::<Vec<_>>()
        })
        .collect();
    let stream: Vec<usize> = (0..PASSES)
        .flat_map(|_| {
            let mut pass: Vec<usize> = (0..SHAPES)
                .map(|shape| shape * VARIANTS + rng.below(VARIANTS as u64) as usize)
                .collect();
            rng.shuffle(&mut pass);
            pass
        })
        .collect();

    let host = HardwareSpec::detect();
    let node_hw = HardwareSpec::new(
        (host.cores / NODES as u32).max(1),
        host.ram_mb / NODES as u64,
    );
    println!(
        "# cluster: {NODES} nodes x {SHARDS_PER_NODE} shards, node hardware cores={} ram_mb={}",
        node_hw.cores, node_hw.ram_mb
    );
    let ((cluster, load_s), setup_s) =
        repeated_setup(|| w.tables.clone(), |tables| build_cluster(node_hw, tables))?;
    let queries = expected_answers(&reference_engine(&w.tables)?, specs)?;
    let raw = crate::check::raw_bytes(&w.tables);
    drop(w);

    let fs = cluster.filesystem();
    let shard_dbs = fs
        .shards()
        .into_iter()
        .map(|s| Ok(fs.mount(s)?.db))
        .collect::<Result<Vec<_>>>()?;
    let stored: usize = shard_dbs.iter().map(|db| stored_bytes(db)).sum();
    let times = Mutex::new(ShardTimes::default());
    let client = MppClient {
        cluster: &cluster,
        shard_sessions: shard_dbs.iter().map(|db| db.connect()).collect(),
        last_query_us: 0.0,
        times: &times,
    };
    let mut tracer = Tracer::new(args.trace, Instant::now());
    let out = closed_loop(vec![client], &[stream], &queries, args.seconds, &mut tracer);
    let times = times.into_inner().expect("shard times lock poisoned");
    let layers = Layers {
        load_s,
        wlm_peak_queued: shard_dbs
            .iter()
            .map(|db| db.wlm().snapshot().3 as u64)
            .max()
            .unwrap_or(0),
        shard_max_us: times.shard_max_us,
        coordinator_us: times.coordinator_us,
        shard_retries: cluster.monitor().recovery().shard_retries,
        ..Layers::default()
    };
    Ok(finish(out, tracer, layers, setup_s, stored, raw))
}
