//! The aggregate kernel through SQL, on both executors: the pipelined
//! morsel drive and the materialized operator-at-a-time path (selected
//! through the catalog's pipeline setting).

use dashdb_local::common::types::DataType;
use dashdb_local::common::{row, Datum, Field, Row, Schema};
use dashdb_local::core::{Database, HardwareSpec};
use dashdb_local::workloads::tpcds;
use std::collections::BTreeMap;

/// Integer SUM overflow is an error on every path. The materialized
/// executor used to wrap silently here.
#[test]
fn int_sum_overflow_raises_on_both_executors() {
    let db = Database::with_hardware(HardwareSpec::laptop());
    let schema = Schema::new(vec![
        Field::new("g", DataType::Int64),
        Field::new("v", DataType::Int64),
    ])
    .unwrap();
    let t = db.catalog().create_table("t", schema, None).unwrap();
    const N: usize = 20_000;
    const HUGE: i64 = 9_223_372_036_854_775_000;
    // Two huge values per group: one pair in the first rows, one in the
    // last, so the overflow lands in the cross-morsel merge.
    let rows: Vec<Row> = (0..N)
        .map(|i| {
            let v = if (2..N - 2).contains(&i) { 1 } else { HUGE };
            row![(i % 2) as i64, v]
        })
        .collect();
    t.write().load_rows(rows).unwrap();
    let mut s = db.connect();
    for pipelined in [true, false] {
        db.catalog().set_pipeline_enabled(pipelined);
        for par in [1, 2] {
            db.catalog().set_parallelism(par);
            let err = s
                .execute("SELECT g, SUM(v) FROM t GROUP BY g")
                .expect_err("SUM must overflow");
            assert!(
                err.to_string().contains("SUM overflow"),
                "pipelined={pipelined} parallelism={par}: {err}"
            );
        }
    }
}

/// Strings inserted after the load live in the open stride, outside the
/// column dictionary; they group with the dictionary strings they equal.
#[test]
fn out_of_dictionary_strings_group_with_dictionary_strings() {
    let db = Database::with_hardware(HardwareSpec::laptop());
    let schema = Schema::new(vec![
        Field::new("label", DataType::Utf8),
        Field::new("qty", DataType::Int64),
    ])
    .unwrap();
    let t = db.catalog().create_table("labels", schema, None).unwrap();
    let mut expected: BTreeMap<String, (i64, i64)> = BTreeMap::new();
    let mut add = |label: &str, qty: i64| {
        let e = expected.entry(label.to_string()).or_default();
        e.0 += 1;
        e.1 += qty;
    };
    let rows: Vec<Row> = (0..5_000i64)
        .map(|i| {
            let label = format!("L{}", i % 7);
            add(&label, i);
            row![label, i]
        })
        .collect();
    t.write().load_rows(rows).unwrap();
    let mut s = db.connect();
    let mut values = Vec::new();
    for i in 0..40i64 {
        // Alternate a dictionary label and a label the load never saw.
        let label = if i % 2 == 0 {
            format!("L{}", i % 7)
        } else {
            format!("new{}", i % 3)
        };
        add(&label, i);
        values.push(format!("('{label}', {i})"));
    }
    s.execute(&format!("INSERT INTO labels VALUES {}", values.join(",")))
        .unwrap();
    let want: Vec<Vec<Datum>> = expected
        .iter()
        .map(|(l, (n, q))| vec![Datum::from(l.as_str()), Datum::Int(*n), Datum::Int(*q)])
        .collect();
    for pipelined in [true, false] {
        db.catalog().set_pipeline_enabled(pipelined);
        for par in [1, 2] {
            db.catalog().set_parallelism(par);
            let out = s
                .execute(
                    "SELECT label, COUNT(*), SUM(qty) FROM labels GROUP BY label ORDER BY label",
                )
                .unwrap();
            let got: Vec<Vec<Datum>> = out.rows.iter().map(|r| r.values().to_vec()).collect();
            assert_eq!(got, want, "pipelined={pipelined} parallelism={par}");
            assert_eq!(out.stats.agg_eval_rows, 0, "{:?}", out.stats);
        }
    }
}

/// The benchmark's heavy star join (category revenue over the full
/// history) and its single-key rollups run every aggregate through a
/// typed arm: no argument goes through `Expr::eval`.
#[test]
fn star_join_and_rollups_take_typed_arms() {
    let db = Database::with_hardware(HardwareSpec::laptop());
    for t in tpcds::generate(20_000).tables {
        let h = db.catalog().create_table(&t.name, t.schema, None).unwrap();
        h.write().load_rows(t.rows).unwrap();
    }
    let mut s = db.connect();
    let star = "SELECT item.i_category, COUNT(*), SUM(store_sales.ss_net_profit) \
                FROM store_sales JOIN item ON store_sales.ss_item_sk = item.i_item_sk \
                GROUP BY item.i_category";
    let rollups = [
        "SELECT ss_store_sk, COUNT(*), SUM(ss_quantity) FROM store_sales GROUP BY ss_store_sk",
        "SELECT ss_store_sk, COUNT(*), SUM(ss_sales_price) FROM store_sales \
         WHERE ss_quantity > 5 GROUP BY ss_store_sk",
        "SELECT ss_item_sk, AVG(ss_net_profit), MIN(ss_quantity), MAX(ss_sales_price) \
         FROM store_sales GROUP BY ss_item_sk",
    ];
    for par in [1, 2] {
        db.catalog().set_parallelism(par);
        db.catalog().set_pipeline_enabled(true);
        let out = s.execute(star).unwrap();
        assert!(out.stats.pipelines_run >= 1, "{:?}", out.stats);
        assert!(out.stats.agg_typed_rows > 0, "{:?}", out.stats);
        assert_eq!(out.stats.agg_eval_rows, 0, "{:?}", out.stats);
        for sql in rollups {
            let mut results = Vec::new();
            for pipelined in [true, false] {
                db.catalog().set_pipeline_enabled(pipelined);
                let out = s.execute(sql).unwrap();
                assert!(out.stats.agg_typed_rows > 0, "{sql}: {:?}", out.stats);
                assert_eq!(out.stats.agg_eval_rows, 0, "{sql}: {:?}", out.stats);
                results.push(out.rows);
            }
            assert_rows_close(&results[0], &results[1], sql);
        }
    }
    // A computed argument takes the generic arm.
    db.catalog().set_pipeline_enabled(true);
    let out = s
        .execute(
            "SELECT ss_store_sk, SUM(ss_sales_price * 2) FROM store_sales GROUP BY ss_store_sk",
        )
        .unwrap();
    assert!(out.stats.agg_eval_rows > 0, "{:?}", out.stats);
}

/// Row-for-row equality, except that float sums may differ in the last
/// bits: the two executors split the input at different row boundaries.
fn assert_rows_close(a: &[Row], b: &[Row], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}");
    for (ra, rb) in a.iter().zip(b) {
        for (x, y) in ra.values().iter().zip(rb.values()) {
            match (x, y) {
                (Datum::Float(x), Datum::Float(y)) => {
                    assert!(
                        (x - y).abs() <= 1e-9 * y.abs().max(1.0),
                        "{what}: {x} vs {y}"
                    )
                }
                _ => assert_eq!(x, y, "{what}"),
            }
        }
    }
}
