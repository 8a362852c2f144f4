//! `customer_serial` — Table 1 Test 1: one session runs the customer
//! long-tail analytic set (single-key GROUP BY rollups, the `txn`⋈`acct`
//! star join, windowed filter scans) over a fact table about ten times the
//! buffer pool, as `repro_table1` Test 1 sizes it.

use crate::readonly::{single_node, RunResult};
use crate::util::Rng;
use crate::Args;
use dash_common::{Datum, Result};
use dash_core::{Database, HardwareSpec};
use dash_workloads::customer;
use dash_workloads::gen::{history_start, CATEGORIES, HISTORY_DAYS, REGIONS};
use dash_workloads::spec::{Pred, QuerySpec};

/// Rows in the `txn` fact table.
const SCALE: usize = 200_000;
/// Distinct queries in one pass, in the analytic set's class proportions.
const PASS: usize = 32;

/// One pass of the long-tail set, parameters drawn from the seed: per
/// eight queries two windowed rollups, two region rollups, one status
/// rollup, two star joins and one windowed filter scan.
// The stratum arithmetic below assumes four filter scans per pass.
const _: () = assert!(PASS == 32);
fn query_set(rng: &mut Rng) -> Vec<QuerySpec> {
    let start = history_start();
    (0..PASS)
        .map(|q| {
            let offset = rng.below((HISTORY_DAYS - 400) as u64) as i32;
            let status = rng.below(5) as i64;
            match q % 8 {
                0 | 1 => QuerySpec::GroupAgg {
                    table: "txn".into(),
                    predicates: vec![Pred::between(
                        "txn_date",
                        Datum::Date(start + offset),
                        Datum::Date(start + offset + 90),
                    )],
                    key: "category".into(),
                    value: "amount".into(),
                },
                2 | 3 => QuerySpec::GroupAgg {
                    table: "txn".into(),
                    predicates: vec![Pred::eq("region", *rng.pick(&REGIONS))],
                    key: "category".into(),
                    value: "amount".into(),
                },
                4 => QuerySpec::GroupAgg {
                    table: "txn".into(),
                    predicates: vec![Pred::eq("status", status)],
                    key: "region".into(),
                    value: "amount".into(),
                },
                5 | 6 => QuerySpec::JoinAgg {
                    fact: "txn".into(),
                    dim: "acct".into(),
                    fact_key: "acct_id".into(),
                    dim_key: "acct_id".into(),
                    dim_label: "branch".into(),
                    value: "amount".into(),
                    predicates: vec![Pred::eq("status", status)],
                },
                _ => QuerySpec::FilterScan {
                    table: "txn".into(),
                    predicates: vec![
                        // Category frequencies are Zipf-skewed: one draw per
                        // frequency stratum keeps a pass's cost seed-stable.
                        Pred::eq(
                            "category",
                            CATEGORIES[3 * (q / 8 % 4) + rng.below(3) as usize],
                        ),
                        Pred::between(
                            "txn_date",
                            Datum::Date(start + offset),
                            Datum::Date(start + offset + 180),
                        ),
                    ],
                    projection: vec!["txn_id".into(), "amount".into()],
                },
            }
        })
        .collect()
}

pub fn run(args: &Args) -> Result<RunResult> {
    let mut rng = Rng::new(args.seed, 1);
    let w = customer::generate(SCALE, 0);
    let mut specs = query_set(&mut rng);
    rng.shuffle(&mut specs);
    // Data >> RAM: the pool holds about a tenth of the row-organized
    // table pages, as in `repro_table1` Test 1.
    let row_bytes: usize = w.tables.iter().map(|t| t.rows.len() * 72).sum();
    let pool_pages = (row_bytes / (32 * 1024) / 10).max(16);
    let hw = HardwareSpec::detect();
    println!("# buffer pool: {pool_pages} pages of 32 KiB for {row_bytes} row-organized bytes");
    single_node(
        args,
        w.tables,
        || Database::with_pool_pages(hw, pool_pages),
        specs,
        &[(0..PASS).collect()],
        |_| {},
    )
}
