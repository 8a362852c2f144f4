//! `bdi_streams` — Table 1 Test 4: two sessions run rotated BD Insight
//! streams over the TPC-DS-like star, which fits in the buffer pool.
//! Short weekly-slice rollups are the clear majority of every pass; the
//! heavy star joins and the Top-N report are a fixed minority, large
//! enough that p95 falls inside the heavy class while p50 stays inside
//! the short one.

use crate::harness::LoopOutcome;
use crate::mpp::tpcds_query;
use crate::readonly::{single_node, RunResult};
use crate::util::{percentile, Rng};
use crate::Args;
use dash_common::{Datum, Result};
use dash_core::{Database, HardwareSpec};
use dash_workloads::gen::{history_start, HISTORY_DAYS};
use dash_workloads::spec::{Pred, QuerySpec};
use dash_workloads::tpcds;

/// Rows in the `store_sales` fact table.
const SCALE: usize = 300_000;
/// Client sessions (streams).
const STREAMS: usize = 2;
/// Short queries per pass of a stream.
const SHORT_PER_PASS: usize = 14;
/// Heavy queries per pass, by shape. The full-history join (shape 2) is
/// about a tenth of all queries, so p95 falls near its median rather than
/// on a class boundary.
const HEAVY_PER_PASS: [usize; 4] = [1, 1, 2, 1];
/// Distinct short queries with reference answers.
const SHORT_POOL: usize = 48;
/// Variants of each heavy query shape.
const HEAVY_VARIANTS: usize = 3;
/// Passes pre-drawn per stream; the stream repeats them in order.
const PASSES: usize = 8;

fn short_query(rng: &mut Rng) -> QuerySpec {
    let last_year = history_start() + HISTORY_DAYS - 365;
    let week = last_year + 7 * rng.below(51) as i32;
    QuerySpec::GroupAgg {
        table: "store_sales".into(),
        predicates: vec![Pred::between(
            "ss_sold_date",
            Datum::Date(week),
            Datum::Date(week + 6),
        )],
        key: "ss_store_sk".into(),
        value: (*rng.pick(&["ss_sales_price", "ss_net_profit", "ss_quantity"])).into(),
    }
}

/// The heavy shapes of the TPC-DS-like set: Q1 and Q2 (windowed star
/// joins), Q8 (full-history star join) and Q9 (the Top-N report).
const HEAVY_SHAPES_TPCDS: [usize; 4] = [0, 1, 7, 8];
const HEAVY_SHAPES: usize = HEAVY_PER_PASS.len();

pub fn run(args: &Args) -> Result<RunResult> {
    let mut rng = Rng::new(args.seed, 4);
    let w = tpcds::generate(SCALE);
    let mut specs: Vec<QuerySpec> = (0..SHORT_POOL).map(|_| short_query(&mut rng)).collect();
    for shape in HEAVY_SHAPES_TPCDS {
        specs.extend((0..HEAVY_VARIANTS).map(|_| tpcds_query(shape, &mut rng)));
    }
    // Each pass: SHORT_PER_PASS short queries drawn from the pool plus
    // HEAVY_PER_PASS variants of the heavy shapes, in a seeded order. The
    // streams run the same sequence, each rotated by its share of it.
    let sequence: Vec<usize> = (0..PASSES)
        .flat_map(|_| {
            let mut pass: Vec<usize> = (0..SHORT_PER_PASS)
                .map(|_| rng.below(SHORT_POOL as u64) as usize)
                .collect();
            for (shape, &n) in HEAVY_PER_PASS.iter().enumerate() {
                for _ in 0..n {
                    let variant = rng.below(HEAVY_VARIANTS as u64) as usize;
                    pass.push(SHORT_POOL + shape * HEAVY_VARIANTS + variant);
                }
            }
            rng.shuffle(&mut pass);
            pass
        })
        .collect();
    let streams: Vec<Vec<usize>> = (0..STREAMS)
        .map(|s| {
            let mut stream = sequence.clone();
            stream.rotate_left(s * sequence.len() / STREAMS);
            stream
        })
        .collect();

    let hw = HardwareSpec::detect();
    single_node(
        args,
        w.tables,
        || Database::with_hardware(hw),
        specs,
        &streams,
        print_classes,
    )
}

/// Print the latency of the short class and of each heavy shape, to show
/// where p50 and p95 fall.
fn print_classes(out: &LoopOutcome) {
    let class_ms = |range: std::ops::Range<usize>| -> Vec<f64> {
        out.window
            .latencies
            .iter()
            .zip(&out.sample_query)
            .filter(|(_, q)| range.contains(q))
            .map(|((_, ms), _)| *ms)
            .collect()
    };
    let short = class_ms(0..SHORT_POOL);
    println!(
        "# short class: n={} p50={:.3} ms p95={:.3} ms",
        short.len(),
        percentile(&short, 50.0),
        percentile(&short, 95.0)
    );
    for shape in 0..HEAVY_SHAPES {
        let lo = SHORT_POOL + shape * HEAVY_VARIANTS;
        let heavy = class_ms(lo..lo + HEAVY_VARIANTS);
        println!(
            "# heavy shape {shape}: n={} p50={:.3} ms max={:.3} ms",
            heavy.len(),
            percentile(&heavy, 50.0),
            percentile(&heavy, 100.0)
        );
    }
}
