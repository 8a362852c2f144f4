//! Serial-vs-parallel equivalence for the morsel-driven operators.
//!
//! The worker pool must be invisible in results: for every operator and
//! every worker count, output is identical to the serial run — not just
//! set-equal but byte-identical, because morsel/partition-ordered merges
//! are part of the contract. Float sums are the one sanctioned exception
//! (re-association moves the last ulp), checked with an epsilon instead.

use dashdb_local::common::dialect::Dialect;
use dashdb_local::common::types::DataType;
use dashdb_local::common::{row, Datum, Field, Row, Schema, StatementContext};
use dashdb_local::core::{Database, HardwareSpec};
use dashdb_local::exec::agg::{hash_aggregate, AggExpr, AggFunc};
use dashdb_local::exec::expr::Expr;
use dashdb_local::exec::functions::EvalContext;
use dashdb_local::exec::join::{hash_join, JoinType};
use dashdb_local::exec::key::KeyMode;
use dashdb_local::exec::stats::ExecStats;
use dashdb_local::exec::Batch;

const PARALLELISMS: [usize; 3] = [2, 4, 8];

/// Enough rows that the aggregate kernel's 4096-row chunks and the row
/// morsels actually fan out.
const BIG: usize = 40_000;

fn agg(func: AggFunc, col: usize) -> AggExpr {
    AggExpr {
        func,
        args: vec![Expr::col(col)],
        distinct: false,
    }
}

fn count_star() -> AggExpr {
    AggExpr {
        func: AggFunc::CountStar,
        args: vec![],
        distinct: false,
    }
}

/// Deterministic pseudo-random fact batch: string + int group columns
/// (both with NULLs), an int measure, a float measure.
fn fact_batch(n: usize) -> Batch {
    let schema = Schema::new(vec![
        Field::new("region", DataType::Utf8),
        Field::new("grp", DataType::Int64),
        Field::new("qty", DataType::Int64),
        Field::new("weight", DataType::Float64),
    ])
    .unwrap();
    let mut rows = Vec::with_capacity(n);
    let mut x: u64 = 0x243F_6A88_85A3_08D3;
    for i in 0..n {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let region = match (x >> 33) % 7 {
            0 => Datum::Null,
            k => Datum::from(format!("r{k}")),
        };
        let grp = match (x >> 17) % 11 {
            0 => Datum::Null,
            k => Datum::from(k as i64),
        };
        let qty = Datum::from((x % 1000) as i64 - 500);
        let weight = if i % 13 == 0 {
            Datum::Null
        } else {
            Datum::from((x % 997) as f64 / 7.0)
        };
        rows.push(row![region, grp, qty, weight]);
    }
    Batch::from_rows(schema, &rows).unwrap()
}

fn out_schema(fields: &[(&str, DataType)]) -> Schema {
    Schema::new(
        fields
            .iter()
            .map(|(n, dt)| Field::new(*n, *dt))
            .collect::<Vec<_>>(),
    )
    .unwrap()
}

// ---------------------------------------------------------------------------
// Aggregate equivalence
// ---------------------------------------------------------------------------

#[test]
fn generic_aggregate_matches_serial_exactly() {
    // KeyMode::Datum forces the partitioned Datum scatter.
    let input = fact_batch(BIG);
    let schema = out_schema(&[
        ("region", DataType::Utf8),
        ("grp", DataType::Int64),
        ("cnt", DataType::Int64),
        ("total", DataType::Int64),
    ]);
    let aggs = [count_star(), agg(AggFunc::Sum, 2)];
    let groups = [Expr::col(0), Expr::col(1)];
    let mut serial_stats = ExecStats::default();
    let serial = hash_aggregate(
        &input,
        &groups,
        &aggs,
        schema.clone(),
        &EvalContext::default(),
        KeyMode::Datum,
        1,
        &mut serial_stats,
    )
    .unwrap();
    assert!(serial_stats.parallel_workers_used <= 1);
    for par in PARALLELISMS {
        let mut stats = ExecStats::default();
        let out = hash_aggregate(
            &input,
            &groups,
            &aggs,
            schema.clone(),
            &EvalContext::default(),
            KeyMode::Datum,
            par,
            &mut stats,
        )
        .unwrap();
        // Byte-identical including row order: partitions are merged in
        // partition order and each partition's insertion order is the
        // same hash-map order the serial run used.
        assert_eq!(out.to_rows(), serial.to_rows(), "parallelism {par}");
        assert!(
            stats.parallel_workers_used > 1,
            "parallelism {par}: expected fan-out, got {}",
            stats.parallel_workers_used
        );
        assert!(stats.morsels_dispatched > 1);
    }
}

#[test]
fn fast_path_aggregate_matches_serial_exactly() {
    // Single int group column + COUNT/SUM(int) rides the aggregate
    // kernel's typed arms, fanned out over fixed-size chunks.
    let input = fact_batch(BIG);
    let schema = out_schema(&[
        ("grp", DataType::Int64),
        ("cnt", DataType::Int64),
        ("total", DataType::Int64),
    ]);
    let aggs = [count_star(), agg(AggFunc::Sum, 2)];
    let groups = [Expr::col(1)];
    let mut serial_stats = ExecStats::default();
    let serial = hash_aggregate(
        &input,
        &groups,
        &aggs,
        schema.clone(),
        &EvalContext::default(),
        KeyMode::Encoded,
        1,
        &mut serial_stats,
    )
    .unwrap();
    for par in PARALLELISMS {
        let mut stats = ExecStats::default();
        let out = hash_aggregate(
            &input,
            &groups,
            &aggs,
            schema.clone(),
            &EvalContext::default(),
            KeyMode::Encoded,
            par,
            &mut stats,
        )
        .unwrap();
        // First-appearance group order is preserved by merging partials
        // in morsel order, so even row order matches the serial run.
        assert_eq!(out.to_rows(), serial.to_rows(), "parallelism {par}");
        assert!(stats.parallel_workers_used > 1, "parallelism {par}");
        assert_eq!(stats.agg_eval_rows, 0, "typed arms only: {stats:?}");
    }
    // The Datum scatter is a separate implementation: same groups, same
    // values, its own emit order.
    let mut datum = hash_aggregate(
        &input,
        &groups,
        &aggs,
        schema.clone(),
        &EvalContext::default(),
        KeyMode::Datum,
        2,
        &mut ExecStats::default(),
    )
    .unwrap()
    .to_rows();
    let mut kernel = serial.to_rows();
    datum.sort_by_key(|r| r.get(0).render());
    kernel.sort_by_key(|r| r.get(0).render());
    assert_eq!(kernel, datum);
}

#[test]
fn fast_path_float_sums_match_within_epsilon() {
    // Chunk boundaries are fixed, so float sums match exactly across
    // worker counts; the check allows 1e-9 relative all the same.
    let input = fact_batch(BIG);
    let schema = out_schema(&[("grp", DataType::Int64), ("w", DataType::Float64)]);
    let aggs = [agg(AggFunc::Sum, 3)];
    let groups = [Expr::col(1)];
    let run = |par: usize| {
        let mut stats = ExecStats::default();
        let mut rows = hash_aggregate(
            &input,
            &groups,
            &aggs,
            schema.clone(),
            &EvalContext::default(),
            KeyMode::Encoded,
            par,
            &mut stats,
        )
        .unwrap()
        .to_rows();
        rows.sort_by_key(|r| r.get(0).render());
        rows
    };
    let serial = run(1);
    for par in PARALLELISMS {
        let out = run(par);
        assert_eq!(out.len(), serial.len(), "parallelism {par}");
        for (a, b) in out.iter().zip(&serial) {
            assert_eq!(a.get(0), b.get(0));
            match (a.get(1), b.get(1)) {
                (Datum::Float(x), Datum::Float(y)) => {
                    assert!(
                        (x - y).abs() <= 1e-9 * y.abs().max(1.0),
                        "parallelism {par}: {x} vs {y}"
                    );
                }
                (x, y) => assert_eq!(x, y),
            }
        }
    }
}

#[test]
fn global_aggregate_matches_serial() {
    // Empty GROUP BY: one output row, including over empty input.
    let schema = out_schema(&[("cnt", DataType::Int64), ("total", DataType::Int64)]);
    let aggs = [count_star(), agg(AggFunc::Sum, 2)];
    for input in [fact_batch(BIG), fact_batch(0)] {
        let mut stats = ExecStats::default();
        let serial = hash_aggregate(
            &input,
            &[],
            &aggs,
            schema.clone(),
            &EvalContext::default(),
            KeyMode::Datum,
            1,
            &mut stats,
        )
        .unwrap();
        assert_eq!(serial.len(), 1);
        for par in PARALLELISMS {
            let mut stats = ExecStats::default();
            let out = hash_aggregate(
                &input,
                &[],
                &aggs,
                schema.clone(),
                &EvalContext::default(),
                KeyMode::Datum,
                par,
                &mut stats,
            )
            .unwrap();
            assert_eq!(out.to_rows(), serial.to_rows(), "parallelism {par}");
        }
    }
}

// ---------------------------------------------------------------------------
// Join equivalence
// ---------------------------------------------------------------------------

/// Build (probe side, build side) with duplicate keys, NULL keys, and
/// keys that dangle on each side.
fn join_sides(n: usize) -> (Batch, Batch) {
    let left_schema = Schema::new(vec![
        Field::not_null("o_id", DataType::Int64),
        Field::new("cust", DataType::Int64),
    ])
    .unwrap();
    let mut left = Vec::with_capacity(n);
    let mut x: u64 = 0xB7E1_5162_8AED_2A6B;
    for i in 0..n {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let cust = match (x >> 29) % 10 {
            0 => Datum::Null,
            // Key space 0..600 against a build side covering 0..400:
            // plenty of dup matches and plenty of dangling probes.
            _ => Datum::from((x % 600) as i64),
        };
        left.push(row![i as i64, cust]);
    }
    let right_schema = Schema::new(vec![
        Field::not_null("c_id", DataType::Int64),
        Field::new("name", DataType::Utf8),
    ])
    .unwrap();
    let mut right = Vec::new();
    for k in 0..400i64 {
        right.push(row![k, format!("cust-{k}")]);
        if k % 5 == 0 {
            // Duplicate build keys: each probe hit fans out.
            right.push(row![k, format!("cust-{k}-alt")]);
        }
    }
    (
        Batch::from_rows(left_schema, &left).unwrap(),
        Batch::from_rows(right_schema, &right).unwrap(),
    )
}

#[test]
fn joins_match_serial_exactly_for_all_types() {
    let (left, right) = join_sides(20_000);
    for join_type in [JoinType::Inner, JoinType::Left, JoinType::Semi, JoinType::Anti] {
        let mut per_mode = Vec::new();
        for key_mode in [KeyMode::Encoded, KeyMode::Datum] {
            let mut serial_stats = ExecStats::default();
            let serial = hash_join(&left, &right, &[(1, 0)], join_type, key_mode, 1, &StatementContext::unbounded(), &mut serial_stats).unwrap();
            assert!(serial_stats.parallel_workers_used <= 1);
            if key_mode == KeyMode::Encoded {
                assert!(serial_stats.encoded_key_rows > 0, "{join_type:?}");
            } else {
                assert_eq!(serial_stats.encoded_key_rows, 0, "{join_type:?}");
            }
            for par in PARALLELISMS {
                let mut stats = ExecStats::default();
                let out = hash_join(&left, &right, &[(1, 0)], join_type, key_mode, par, &StatementContext::unbounded(), &mut stats).unwrap();
                assert_eq!(
                    out.to_rows(),
                    serial.to_rows(),
                    "{join_type:?} {key_mode:?} at parallelism {par}"
                );
                assert!(
                    stats.parallel_workers_used > 1,
                    "{join_type:?} {key_mode:?} at parallelism {par}"
                );
                assert!(stats.morsels_dispatched > 1);
            }
            per_mode.push(serial.to_rows());
        }
        // The build side fits in one partition, so even row order matches
        // between the encoded and Datum key paths.
        assert_eq!(per_mode[0], per_mode[1], "{join_type:?}: paths must agree");
    }
}

#[test]
fn join_with_all_null_keys_matches_serial() {
    // Every probe key NULL: inner/semi empty, left/anti pass everything.
    let schema = Schema::new(vec![
        Field::not_null("id", DataType::Int64),
        Field::new("k", DataType::Int64),
    ])
    .unwrap();
    let rows: Vec<Row> = (0..10_000).map(|i| row![i as i64, Datum::Null]).collect();
    let left = Batch::from_rows(schema, &rows).unwrap();
    let (_, right) = join_sides(0);
    for join_type in [JoinType::Inner, JoinType::Left, JoinType::Semi, JoinType::Anti] {
        for key_mode in [KeyMode::Encoded, KeyMode::Datum] {
            let mut stats = ExecStats::default();
            let serial = hash_join(&left, &right, &[(1, 0)], join_type, key_mode, 1, &StatementContext::unbounded(), &mut stats).unwrap();
            for par in PARALLELISMS {
                let mut stats = ExecStats::default();
                let out = hash_join(&left, &right, &[(1, 0)], join_type, key_mode, par, &StatementContext::unbounded(), &mut stats).unwrap();
                assert_eq!(out.to_rows(), serial.to_rows(), "{join_type:?} {key_mode:?} par {par}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Operate-on-compressed equivalence
// ---------------------------------------------------------------------------

#[test]
fn encoded_aggregate_matches_datum_aggregate() {
    // Multi-key grouping (string + int, both with NULLs): the kernel
    // groups on code words, the Datum scatter hashes materialized
    // keys. Group sets and aggregates must agree exactly; emit order is
    // path-specific, so rows are compared sorted.
    let input = fact_batch(BIG);
    let schema = out_schema(&[
        ("region", DataType::Utf8),
        ("grp", DataType::Int64),
        ("cnt", DataType::Int64),
        ("total", DataType::Int64),
    ]);
    let aggs = [count_star(), agg(AggFunc::Sum, 2)];
    let groups = [Expr::col(0), Expr::col(1)];
    let run = |key_mode: KeyMode, par: usize| {
        let mut stats = ExecStats::default();
        let mut rows = hash_aggregate(
            &input,
            &groups,
            &aggs,
            schema.clone(),
            &EvalContext::default(),
            key_mode,
            par,
            &mut stats,
        )
        .unwrap()
        .to_rows();
        rows.sort_by_key(|r| (r.get(0).render(), r.get(1).render()));
        (rows, stats)
    };
    let (datum_rows, datum_stats) = run(KeyMode::Datum, 1);
    assert_eq!(datum_stats.encoded_key_rows, 0);
    assert_eq!(datum_stats.datum_key_rows, BIG as u64);
    for par in [1usize, 4] {
        let (enc_rows, enc_stats) = run(KeyMode::Encoded, par);
        assert_eq!(enc_rows, datum_rows, "parallelism {par}");
        assert_eq!(enc_stats.encoded_key_rows, BIG as u64, "parallelism {par}");
        assert_eq!(enc_stats.datum_key_rows, 0);
    }
}

#[test]
fn float_group_keys_agree_across_all_paths() {
    // -0.0 and +0.0 are one group, every NaN is one group — on the
    // aggregate kernel (single and multi-key) and the Datum scatter alike
    // (canonical_f64_bits unifies the key identity everywhere).
    let schema = Schema::new(vec![Field::new("k", DataType::Float64)]).unwrap();
    let rows: Vec<Row> = (0..4096)
        .map(|i| match i % 5 {
            0 => row![-0.0f64],
            1 => row![0.0f64],
            2 => row![f64::NAN],
            3 => row![-f64::NAN],
            _ => row![1.5f64],
        })
        .collect();
    let input = Batch::from_rows(schema, &rows).unwrap();
    let aggs = [count_star()];
    let run = |groups: &[Expr], out: &Schema, key_mode: KeyMode, par: usize| {
        let mut stats = ExecStats::default();
        let mut got = hash_aggregate(
            &input,
            groups,
            &aggs,
            out.clone(),
            &EvalContext::default(),
            key_mode,
            par,
            &mut stats,
        )
        .unwrap()
        .to_rows();
        got.sort_by_key(|r| {
            r.values().iter().map(|d| d.render()).collect::<Vec<_>>()
        });
        got
    };
    // Single bare float key: the kernel's word map (Encoded) vs the
    // Datum scatter. 3 groups: ±0.0 fold together, NaNs fold together.
    let out1 = out_schema(&[("k", DataType::Float64), ("cnt", DataType::Int64)]);
    let bare = [Expr::col(0)];
    let mut single = Vec::new();
    for key_mode in [KeyMode::Encoded, KeyMode::Datum] {
        for par in [1usize, 4] {
            let got = run(&bare, &out1, key_mode, par);
            assert_eq!(got.len(), 3, "{key_mode:?} par {par}");
            single.push(got);
        }
    }
    for other in &single[1..] {
        assert_eq!(&single[0], other, "single-key paths must agree on float identity");
    }
    // Doubled key (k, k): multi-key grouping rides the kernel's word
    // tuples under Encoded and the partitioned scatter under Datum.
    let out2 = out_schema(&[
        ("k", DataType::Float64),
        ("k2", DataType::Float64),
        ("cnt", DataType::Int64),
    ]);
    let double = [Expr::col(0), Expr::col(0)];
    let mut multi = Vec::new();
    for key_mode in [KeyMode::Encoded, KeyMode::Datum] {
        for par in [1usize, 4] {
            let got = run(&double, &out2, key_mode, par);
            assert_eq!(got.len(), 3, "{key_mode:?} par {par}");
            multi.push(got);
        }
    }
    for other in &multi[1..] {
        assert_eq!(&multi[0], other, "multi-key paths must agree on float identity");
    }
}

// ---------------------------------------------------------------------------
// End-to-end SQL: deletes, TSN visibility, and the parallelism knob
// ---------------------------------------------------------------------------

fn seeded_db(n: usize) -> std::sync::Arc<Database> {
    let db = Database::with_hardware(HardwareSpec::laptop());
    let schema = Schema::new(vec![
        Field::not_null("id", DataType::Int64),
        Field::new("grp", DataType::Int64),
        Field::new("qty", DataType::Int64),
        Field::new("label", DataType::Utf8),
    ])
    .unwrap();
    let handle = db.catalog().create_table("facts", schema, None).unwrap();
    let rows: Vec<Row> = (0..n)
        .map(|i| {
            let i = i as i64;
            row![i, i % 17, (i * 7) % 1000, format!("L{}", i % 23)]
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

#[test]
fn sql_results_identical_across_worker_counts_with_deletes() {
    let db = seeded_db(BIG);
    let mut s = db.connect();
    // Delete a slice mid-table so TSN visibility filtering runs inside
    // every parallel stride morsel, not just at the fringes.
    let deleted = s
        .execute("DELETE FROM facts WHERE qty >= 300 AND qty < 500")
        .unwrap()
        .affected;
    assert!(deleted > 0);

    let queries = [
        "SELECT grp, COUNT(*), SUM(qty) FROM facts GROUP BY grp ORDER BY grp",
        "SELECT id, qty FROM facts WHERE qty < 120 ORDER BY id",
        "SELECT d.name, f.label, COUNT(*) FROM facts f JOIN dims d ON f.grp = d.g \
         GROUP BY d.name, f.label ORDER BY d.name, f.label",
    ];
    for (qi, sql) in queries.iter().enumerate() {
        db.catalog().set_parallelism(1);
        let serial = s.execute(sql).unwrap();
        assert!(serial.stats.parallel_workers_used <= 1, "{sql}");
        if qi == 2 {
            // The int-keyed join hashes encoded key words even with MVCC
            // delete filtering in the scan underneath.
            assert!(serial.stats.encoded_key_rows > 0, "{:?}", serial.stats);
        }
        for par in [2usize, 4] {
            db.catalog().set_parallelism(par);
            let out = s.execute(sql).unwrap();
            assert_eq!(out.rows, serial.rows, "{sql} at parallelism {par}");
        }
    }
}

#[test]
fn sql_string_join_reencodes_build_side_codes() {
    // Both join sides are dictionary-backed strings with distinct
    // dictionaries: the smaller (build) side must be translated into the
    // probe side's code domain, never the reverse.
    let db = seeded_db(5_000);
    let mut s = db.connect();
    let schema = Schema::new(vec![
        Field::not_null("lab", DataType::Utf8),
        Field::new("boost", DataType::Int64),
    ])
    .unwrap();
    let t = db.catalog().create_table("labels", schema, None).unwrap();
    let rows: Vec<Row> = (0..23).map(|k| row![format!("L{k}"), k as i64]).collect();
    t.write().load_rows(rows).unwrap();

    let sql = "SELECT f.id, l.boost FROM facts f JOIN labels l ON f.label = l.lab \
               ORDER BY f.id";
    // This test pins the *materialized* re-encode rule (translate the 23
    // build rows into the probe dictionary). The pipeline scheduler instead
    // freezes the build dictionary and re-encodes probe rows per morsel, so
    // run it with the scheduler off and check equivalence separately below.
    db.catalog().set_pipeline_enabled(false);
    db.catalog().set_parallelism(1);
    let serial = s.execute(sql).unwrap();
    assert_eq!(serial.rows.len(), 5_000, "every fact label resolves");
    assert!(serial.stats.encoded_key_rows > 0, "{:?}", serial.stats);
    assert_eq!(serial.stats.datum_key_rows, 0, "{:?}", serial.stats);
    assert_eq!(
        serial.stats.keys_reencoded_rows, 23,
        "build side re-encoded into the probe dictionary: {:?}",
        serial.stats
    );
    for par in [2usize, 4] {
        db.catalog().set_parallelism(par);
        let out = s.execute(sql).unwrap();
        assert_eq!(out.rows, serial.rows, "parallelism {par}");
        assert!(out.stats.encoded_key_rows > 0);
    }
    // The statement counters land in the monitor's key-path store.
    let k = db.monitor().key_path();
    assert!(k.encoded_key_rows > 0);
    assert!(k.keys_reencoded_rows > 0);

    // Pipelined execution re-encodes per probe morsel against the frozen
    // build dictionary — different accounting, identical rows.
    db.catalog().set_pipeline_enabled(true);
    let piped = s.execute(sql).unwrap();
    assert_eq!(piped.rows, serial.rows, "pipelined run matches");
    assert!(piped.stats.pipelines_run >= 1, "{:?}", piped.stats);
    assert!(piped.stats.keys_reencoded_rows > 0, "{:?}", piped.stats);
}

#[test]
fn sql_cross_type_join_falls_back_to_datum_keys() {
    // Int joined against Float: code domains differ, so the planner keeps
    // the Datum key path — and 2 must still equal 2.0 there.
    let db = seeded_db(200);
    let mut s = db.connect();
    let schema = Schema::new(vec![
        Field::not_null("x", DataType::Float64),
        Field::new("tag", DataType::Utf8),
    ])
    .unwrap();
    let t = db.catalog().create_table("fvals", schema, None).unwrap();
    let rows: Vec<Row> = (0..50).map(|k| row![(k * 7) as f64, format!("t{k}")]).collect();
    t.write().load_rows(rows).unwrap();

    let sql = "SELECT f.id, v.tag FROM facts f JOIN fvals v ON f.qty = v.x ORDER BY f.id";
    db.catalog().set_parallelism(1);
    let serial = s.execute(sql).unwrap();
    assert!(!serial.rows.is_empty(), "int 7k == float 7k.0 must match");
    assert_eq!(serial.stats.encoded_key_rows, 0, "{:?}", serial.stats);
    assert!(serial.stats.datum_key_rows > 0, "{:?}", serial.stats);
    for par in [2usize, 4] {
        db.catalog().set_parallelism(par);
        let out = s.execute(sql).unwrap();
        assert_eq!(out.rows, serial.rows, "parallelism {par}");
    }
}

#[test]
fn sql_operators_report_parallel_workers() {
    let db = seeded_db(BIG);
    let mut s = db.connect();
    db.catalog().set_parallelism(4);

    // Scan fan-out: candidate strides outnumber workers by far.
    let scan = s.execute("SELECT id FROM facts WHERE qty < 900").unwrap();
    assert!(scan.stats.parallel_workers_used > 1, "scan: {:?}", scan.stats);
    assert!(scan.stats.morsels_dispatched > 1);

    // Grouped aggregate (single int key → typed kernel partials).
    let agg = s
        .execute("SELECT grp, COUNT(*), SUM(qty) FROM facts GROUP BY grp")
        .unwrap();
    assert!(agg.stats.parallel_workers_used > 1, "agg: {:?}", agg.stats);

    // Join: partition + build/probe morsels. Two group columns keep the
    // planner off the fused join-aggregate path.
    let join = s
        .execute(
            "SELECT d.name, f.label, COUNT(*) FROM facts f JOIN dims d ON f.grp = d.g \
             GROUP BY d.name, f.label",
        )
        .unwrap();
    assert!(join.stats.parallel_workers_used > 1, "join: {:?}", join.stats);

    // At parallelism 1 the pool runs inline: no fan-out reported.
    db.catalog().set_parallelism(1);
    let serial = s.execute("SELECT id FROM facts WHERE qty < 900").unwrap();
    assert!(serial.stats.parallel_workers_used <= 1);
}

// ---------------------------------------------------------------------------
// Sort equivalence
// ---------------------------------------------------------------------------

use dashdb_local::exec::sort::{
    merge_sorted_runs, sort_batch, SortKey, SortOptions, DEFAULT_SORT_RUN_ROWS, TOPK_FACTOR,
};

/// Run rows small enough that BIG rows split into many runs — the merge
/// actually merges, and run boundaries land mid-data.
const SMALL_RUN: usize = 4096;

fn sort_with(input: &Batch, keys: &[SortKey], o: &SortOptions) -> (Batch, ExecStats) {
    let mut stats = ExecStats::default();
    let out = sort_batch(input, keys, o, &EvalContext::default(), &mut stats).unwrap();
    (out, stats)
}

fn serial_opts(limit: Option<usize>, offset: usize) -> SortOptions {
    SortOptions {
        limit,
        offset,
        parallelism: 1,
        run_rows: DEFAULT_SORT_RUN_ROWS,
    }
}

#[test]
fn sort_matches_serial_exactly() {
    let input = fact_batch(BIG);
    // Multi-key, asc/desc, NULLs in every key column, and a
    // duplicate-heavy single key whose ties exercise stability.
    let key_sets: Vec<Vec<SortKey>> = vec![
        vec![SortKey::asc(0), SortKey::desc(2)],
        vec![SortKey::desc(1), SortKey::asc(3)],
        vec![SortKey {
            expr: Expr::col(1),
            asc: true,
            nulls_last: false,
        }],
        // 7 distinct region values over 40k rows: almost every comparison
        // is a tie resolved by input order.
        vec![SortKey::asc(0)],
    ];
    for keys in &key_sets {
        let (serial, serial_stats) = sort_with(&input, keys, &serial_opts(None, 0));
        assert!(serial_stats.parallel_workers_used <= 1);
        assert_eq!(serial_stats.sort_runs_generated, 1, "one run when serial");
        for par in PARALLELISMS {
            let o = SortOptions {
                limit: None,
                offset: 0,
                parallelism: par,
                run_rows: SMALL_RUN,
            };
            let (out, stats) = sort_with(&input, keys, &o);
            assert_eq!(out.to_rows(), serial.to_rows(), "parallelism {par}");
            assert!(stats.parallel_workers_used > 1, "parallelism {par}");
            let runs = (BIG.div_ceil(SMALL_RUN)) as u64;
            assert_eq!(stats.sort_runs_generated, runs);
            assert_eq!(stats.merge_fanin, runs, "merge fan-in == run count");
        }
    }
}

#[test]
fn sort_limit_offset_boundaries_match_serial() {
    let input = fact_batch(BIG);
    let keys = [SortKey::asc(2), SortKey::desc(0)];
    // Boundaries on run edges (SMALL_RUN ± 1), past-the-end offsets,
    // LIMIT 0, and a window straddling the last run.
    let windows: &[(Option<usize>, usize)] = &[
        (None, 0),
        (None, SMALL_RUN),
        (Some(0), 0),
        (Some(1), SMALL_RUN - 1),
        (Some(SMALL_RUN + 1), SMALL_RUN - 1),
        (Some(100), BIG - 50),
        (Some(100), BIG + 50),
        (Some(BIG * 2), 0),
    ];
    for &(limit, offset) in windows {
        let (serial, _) = sort_with(&input, &keys, &serial_opts(limit, offset));
        for par in PARALLELISMS {
            let o = SortOptions {
                limit,
                offset,
                parallelism: par,
                run_rows: SMALL_RUN,
            };
            let (out, _) = sort_with(&input, &keys, &o);
            assert_eq!(
                out.to_rows(),
                serial.to_rows(),
                "limit {limit:?} offset {offset} parallelism {par}"
            );
        }
    }
}

#[test]
fn top_k_path_matches_full_sort() {
    let input = fact_batch(BIG);
    let keys = [SortKey::desc(2), SortKey::asc(0)];
    // end * TOPK_FACTOR <= n → the bounded-heap path; the full-sort run
    // counter is the discriminator proving which path ran.
    let k = BIG / TOPK_FACTOR - 10;
    for (limit, offset) in [(Some(40), 0), (Some(25), 13), (Some(k - 20), 20)] {
        let (serial, _) = sort_with(&input, &keys, &serial_opts(limit, offset));
        for par in PARALLELISMS {
            let o = SortOptions {
                limit,
                offset,
                parallelism: par,
                run_rows: SMALL_RUN,
            };
            let (out, stats) = sort_with(&input, &keys, &o);
            assert_eq!(
                out.to_rows(),
                serial.to_rows(),
                "limit {limit:?} offset {offset} parallelism {par}"
            );
            assert_eq!(
                stats.sort_runs_generated, 0,
                "Top-K must not generate runs (limit {limit:?})"
            );
            assert!(stats.morsels_dispatched > 1, "Top-K still fans out");
        }
    }
}

#[test]
fn all_equal_keys_preserve_input_order_across_runs() {
    // Every key ties: the output must be the input, at any run size and
    // worker count — the strictest stability test there is.
    let schema = out_schema(&[("k", DataType::Int64), ("id", DataType::Int64)]);
    let rows: Vec<Row> = (0..10_000).map(|i| row![7i64, i as i64]).collect();
    let input = Batch::from_rows(schema, &rows).unwrap();
    for par in PARALLELISMS {
        for run_rows in [1, 37, 1000, 4096] {
            let o = SortOptions {
                limit: None,
                offset: 0,
                parallelism: par,
                run_rows,
            };
            let (out, _) = sort_with(&input, &[SortKey::asc(0)], &o);
            assert_eq!(out.to_rows(), rows, "par {par} run_rows {run_rows}");
        }
    }
}

#[test]
fn sql_order_by_identical_across_worker_counts() {
    let db = seeded_db(BIG);
    let mut s = db.connect();
    // LIMIT/OFFSET syntax is gated to the Netezza and PostgreSQL dialects;
    // the default ANSI session only accepts FETCH FIRST (no offset form).
    s.set_dialect(Dialect::Netezza);
    let queries = [
        "SELECT id, qty, label FROM facts ORDER BY qty, label LIMIT 500 OFFSET 250",
        "SELECT id, qty FROM facts ORDER BY qty DESC, id LIMIT 20",
        "SELECT label, qty FROM facts ORDER BY label DESC",
    ];
    for sql in queries {
        db.catalog().set_parallelism(1);
        let serial = s.execute(sql).unwrap();
        db.catalog().set_sort_run_rows(SMALL_RUN);
        for par in [2usize, 4] {
            db.catalog().set_parallelism(par);
            let out = s.execute(sql).unwrap();
            assert_eq!(out.rows, serial.rows, "{sql} at parallelism {par}");
        }
        db.catalog().set_sort_run_rows(DEFAULT_SORT_RUN_ROWS);
    }

    // Fan-out is visible in the statement stats: the full sort reports
    // its runs and merge width, the LIMIT 20 query takes Top-K.
    db.catalog().set_parallelism(4);
    db.catalog().set_sort_run_rows(SMALL_RUN);
    let full = s
        .execute("SELECT label, qty FROM facts ORDER BY label DESC")
        .unwrap();
    assert!(
        full.stats.sort_runs_generated > 1,
        "sort must fan out: {:?}",
        full.stats
    );
    assert_eq!(full.stats.merge_fanin, full.stats.sort_runs_generated);
    assert!(full.stats.parallel_workers_used > 1);
    let topk = s
        .execute("SELECT id, qty FROM facts ORDER BY qty DESC, id LIMIT 20")
        .unwrap();
    assert_eq!(topk.stats.sort_runs_generated, 0, "{:?}", topk.stats);
    db.catalog().set_sort_run_rows(DEFAULT_SORT_RUN_ROWS);
}

#[test]
fn generic_agg_scatter_reports_morsels() {
    // The radix scatter is the aggregate's first phase: its morsel count
    // is reported separately so "no serial O(rows) pass" is testable.
    let input = fact_batch(BIG);
    let schema = out_schema(&[
        ("region", DataType::Utf8),
        ("grp", DataType::Int64),
        ("cnt", DataType::Int64),
    ]);
    let aggs = [count_star()];
    let groups = [Expr::col(0), Expr::col(1)];
    for par in PARALLELISMS {
        let mut stats = ExecStats::default();
        hash_aggregate(
            &input,
            &groups,
            &aggs,
            schema.clone(),
            &EvalContext::default(),
            KeyMode::Datum,
            par,
            &mut stats,
        )
        .unwrap();
        assert!(
            stats.agg_scatter_morsels > 1,
            "parallelism {par}: scatter must be morselized, got {:?}",
            stats
        );
        assert!(stats.parallel_workers_used > 1);
    }
}

// ---------------------------------------------------------------------------
// K-way merge proptest
// ---------------------------------------------------------------------------

use proptest::prelude::*;

proptest! {
    /// Chunk 0..n into runs of a random width, sort each run, merge — the
    /// result must equal one reference stable sort of all indices, for
    /// any key distribution (few distinct values → massive tie pressure),
    /// any run width, and any truncation point.
    #[test]
    fn prop_merge_equals_stable_sort(
        keys in proptest::collection::vec(0i64..6, 0..300),
        run_rows in 1usize..64,
        take_frac in 0usize..110,
    ) {
        let n = keys.len();
        let runs: Vec<Vec<usize>> = (0..n.div_ceil(run_rows.max(1)))
            .map(|r| {
                let lo = r * run_rows;
                let hi = (lo + run_rows).min(n);
                let mut idx: Vec<usize> = (lo..hi).collect();
                idx.sort_by(|&a, &b| keys[a].cmp(&keys[b]));
                idx
            })
            .collect();
        let take = n * take_frac / 100;
        let cmp = |a: usize, b: usize| keys[a].cmp(&keys[b]);
        let merged = merge_sorted_runs(&runs, take, &StatementContext::unbounded(), &cmp).unwrap();
        let mut reference: Vec<usize> = (0..n).collect();
        reference.sort_by(|&a, &b| keys[a].cmp(&keys[b]));
        reference.truncate(take.min(n));
        prop_assert_eq!(merged, reference);
    }
}

// ---------------------------------------------------------------------------
// Pipelined execution equivalence
// ---------------------------------------------------------------------------

use dashdb_local::exec::expr::CmpOp;
use dashdb_local::exec::pipeline::PipelineConfig;
use dashdb_local::exec::plan::{execute, PhysicalPlan, SharedTable};
use dashdb_local::exec::scan::ScanConfig;

/// An EvalContext with the pipeline scheduler explicitly on or off and a
/// budget-tracking statement, so `budget_high_water` records the run's
/// peak reserved bytes.
fn pipe_ctx(enabled: bool) -> EvalContext {
    EvalContext {
        statement: StatementContext::with_limits(None, Some(1 << 30)),
        pipeline: PipelineConfig {
            enabled,
            inflight: 0,
        },
        ..EvalContext::default()
    }
}

/// Fact table for pipeline chains: nullable int join key with dangling
/// values, a measure, and a string group column with NULLs.
fn pipe_tables(n: usize) -> (SharedTable, SharedTable) {
    let db = Database::untracked();
    let fact_schema = Schema::new(vec![
        Field::not_null("id", DataType::Int64),
        Field::new("k", DataType::Int64),
        Field::new("qty", DataType::Int64),
        Field::new("grp", DataType::Utf8),
    ])
    .unwrap();
    let facts = db.catalog().create_table("PFACTS", fact_schema, None).unwrap();
    let mut rows = Vec::with_capacity(n);
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for i in 0..n {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let k = match (x >> 29) % 10 {
            0 => Datum::Null,
            _ => Datum::from((x % 600) as i64),
        };
        let grp = match (x >> 41) % 6 {
            0 => Datum::Null,
            g => Datum::from(format!("g{g}")),
        };
        rows.push(row![i as i64, k, (x % 1000) as i64 - 500, grp]);
    }
    facts.write().load_rows(rows).unwrap();

    let dim_schema = Schema::new(vec![
        Field::not_null("dk", DataType::Int64),
        Field::new("label", DataType::Utf8),
    ])
    .unwrap();
    let dims = db.catalog().create_table("PDIMS", dim_schema, None).unwrap();
    let mut dim_rows = Vec::new();
    for k in 0..400i64 {
        dim_rows.push(row![k, format!("d{k}")]);
        if k % 5 == 0 {
            dim_rows.push(row![k, format!("d{k}-alt")]);
        }
    }
    dims.write().load_rows(dim_rows).unwrap();
    (facts, dims)
}

/// scan(facts) → filter(qty > -400) → probe(dims) → agg → [sort]: the
/// full pipeline chain, parameterized over join type, key path, worker
/// count, and whether a sort seals the plan.
fn chain_plan(
    facts: &SharedTable,
    dims: &SharedTable,
    join_type: JoinType,
    key_mode: KeyMode,
    par: usize,
    with_sort: bool,
) -> PhysicalPlan {
    let scan = PhysicalPlan::ColumnScan {
        table: facts.clone(),
        config: ScanConfig::full(0, vec![0, 1, 2, 3]),
    };
    let filter = PhysicalPlan::Filter {
        input: Box::new(scan),
        predicate: Expr::Cmp(
            CmpOp::Gt,
            Box::new(Expr::col(2)),
            Box::new(Expr::lit(-400i64)),
        ),
    };
    let join = PhysicalPlan::HashJoin {
        left: Box::new(filter),
        right: Box::new(PhysicalPlan::ColumnScan {
            table: dims.clone(),
            config: ScanConfig::full(1, vec![0, 1]),
        }),
        on: vec![(1, 0)],
        join_type,
        key_mode,
        parallelism: par,
    };
    // Semi/Anti output only probe columns; group on a surviving column.
    let group_col = match join_type {
        JoinType::Inner | JoinType::Left => 5, // dim label
        JoinType::Semi | JoinType::Anti => 3,  // fact grp
    };
    let agg = PhysicalPlan::HashAggregate {
        input: Box::new(join),
        group: vec![Expr::col(group_col)],
        aggs: vec![count_star(), agg(AggFunc::Sum, 2)],
        schema: out_schema(&[
            ("g", DataType::Utf8),
            ("cnt", DataType::Int64),
            ("total", DataType::Int64),
        ]),
        key_mode: KeyMode::Datum,
        parallelism: par,
    };
    if !with_sort {
        return agg;
    }
    PhysicalPlan::Sort {
        input: Box::new(agg),
        keys: vec![SortKey::asc(0)],
        limit: None,
        offset: 0,
        parallelism: par,
        run_rows: DEFAULT_SORT_RUN_ROWS,
    }
}

#[test]
fn pipelined_chain_matches_materialized_for_all_join_types() {
    let (facts, dims) = pipe_tables(BIG);
    for join_type in [JoinType::Inner, JoinType::Left, JoinType::Semi, JoinType::Anti] {
        for key_mode in [KeyMode::Encoded, KeyMode::Datum] {
            // Sorted root: pipelined and materialized plans must agree
            // byte-for-byte, at every worker count.
            let mat_ctx = pipe_ctx(false);
            let plan = chain_plan(&facts, &dims, join_type, key_mode, 1, true);
            let (mat, mat_stats) = execute(&plan, &mat_ctx).unwrap();
            assert_eq!(
                mat_stats.pipelines_run, 0,
                "{join_type:?} {key_mode:?}: disabled scheduler must not run pipelines"
            );
            for par in [1usize, 4, 8] {
                let ctx = pipe_ctx(true);
                let plan = chain_plan(&facts, &dims, join_type, key_mode, par, true);
                let (out, stats) = execute(&plan, &ctx).unwrap();
                assert_eq!(
                    out.to_rows(),
                    mat.to_rows(),
                    "{join_type:?} {key_mode:?} parallelism {par}"
                );
                assert!(
                    stats.pipelines_run >= 1,
                    "{join_type:?} {key_mode:?} par {par}: {stats:?}"
                );
                assert!(
                    stats.pipeline_breakers >= 2,
                    "build + agg + sort breakers expected: {stats:?}"
                );
            }
        }
    }
}

#[test]
fn pipelined_results_identical_across_worker_counts() {
    // No sort at the root: the in-order morsel fold alone must make the
    // pipelined output byte-identical at any parallelism.
    let (facts, dims) = pipe_tables(BIG);
    for join_type in [JoinType::Inner, JoinType::Left, JoinType::Semi, JoinType::Anti] {
        for key_mode in [KeyMode::Encoded, KeyMode::Datum] {
            let serial_ctx = pipe_ctx(true);
            let plan = chain_plan(&facts, &dims, join_type, key_mode, 1, false);
            let (serial, serial_stats) = execute(&plan, &serial_ctx).unwrap();
            assert!(
                serial_stats.parallel_workers_used <= 1,
                "single worker drives the pipeline inline: {serial_stats:?}"
            );
            assert!(
                serial_stats.pipelines_run >= 1,
                "parallelism 1 still routes through the pipeline driver: {serial_stats:?}"
            );
            for par in [4usize, 8] {
                let ctx = pipe_ctx(true);
                let plan = chain_plan(&facts, &dims, join_type, key_mode, par, false);
                let (out, stats) = execute(&plan, &ctx).unwrap();
                assert_eq!(
                    out.to_rows(),
                    serial.to_rows(),
                    "{join_type:?} {key_mode:?} parallelism {par}"
                );
                assert!(stats.parallel_workers_used > 1, "{stats:?}");
            }
        }
    }
}

#[test]
fn pipelined_peak_memory_below_materialized_on_join_agg() {
    // The whole point of the tentpole: a scan→probe→agg chain holds only
    // the frozen build plus the in-flight morsel window, while the
    // materialized executor holds the entire joined intermediate. Both
    // peaks are observable through the statement budget high-water mark.
    // Two group keys keep the materialized path off the fused join+agg
    // shortcut, so it genuinely materializes (and charges) the join output.
    let (facts, dims) = pipe_tables(BIG);
    let join = PhysicalPlan::HashJoin {
        left: Box::new(PhysicalPlan::ColumnScan {
            table: facts.clone(),
            config: ScanConfig::full(0, vec![0, 1, 2, 3]),
        }),
        right: Box::new(PhysicalPlan::ColumnScan {
            table: dims.clone(),
            config: ScanConfig::full(1, vec![0, 1]),
        }),
        on: vec![(1, 0)],
        join_type: JoinType::Inner,
        key_mode: KeyMode::Encoded,
        parallelism: 4,
    };
    let plan = PhysicalPlan::HashAggregate {
        input: Box::new(join),
        group: vec![Expr::col(5), Expr::col(3)],
        aggs: vec![count_star(), agg(AggFunc::Sum, 2)],
        schema: out_schema(&[
            ("label", DataType::Utf8),
            ("grp", DataType::Utf8),
            ("cnt", DataType::Int64),
            ("total", DataType::Int64),
        ]),
        key_mode: KeyMode::Datum,
        parallelism: 4,
    };

    let mat_ctx = pipe_ctx(false);
    let (mat, mat_stats) = execute(&plan, &mat_ctx).unwrap();
    let mat_peak = mat_ctx.statement.budget_high_water();
    assert!(mat_peak > 0, "materialized agg input must be charged");
    assert!(mat_stats.peak_inflight_bytes > 0);

    let pipe_ctx_ = pipe_ctx(true);
    let (piped, pipe_stats) = execute(&plan, &pipe_ctx_).unwrap();
    let pipe_peak = pipe_ctx_.statement.budget_high_water();
    assert!(pipe_peak > 0);
    assert!(
        pipe_peak * 2 < mat_peak,
        "pipelined peak {pipe_peak} must be well under materialized peak {mat_peak}"
    );
    assert!(
        pipe_stats.peak_inflight_morsels >= 1
            && pipe_stats.peak_inflight_morsels <= 16,
        "in-flight morsels bounded by the window: {pipe_stats:?}"
    );

    // Same groups either way (emit order is path-specific without a sort).
    let mut a = piped.to_rows();
    let mut b = mat.to_rows();
    a.sort_by_key(|r| (r.get(0).render(), r.get(1).render()));
    b.sort_by_key(|r| (r.get(0).render(), r.get(1).render()));
    assert_eq!(a, b);

    // All leases released on both paths.
    assert_eq!(mat_ctx.statement.budget_used(), 0);
    assert_eq!(pipe_ctx_.statement.budget_used(), 0);
}

#[test]
fn sql_pipeline_knob_and_monitor_counters() {
    let db = seeded_db(BIG);
    let mut s = db.connect();
    db.catalog().set_parallelism(4);

    let sql = "SELECT d.name, COUNT(*), SUM(f.qty) FROM facts f JOIN dims d ON f.grp = d.g \
               GROUP BY d.name ORDER BY d.name";
    db.catalog().set_pipeline_enabled(true);
    let piped = s.execute(sql).unwrap();
    assert!(
        piped.stats.pipelines_run >= 1,
        "pipeline scheduler must drive this chain: {:?}",
        piped.stats
    );
    db.catalog().set_pipeline_enabled(false);
    let mat = s.execute(sql).unwrap();
    assert_eq!(mat.stats.pipelines_run, 0, "{:?}", mat.stats);
    assert_eq!(piped.rows, mat.rows, "knob must not change results");
    db.catalog().set_pipeline_enabled(true);

    // Statement counters landed in the monitor's pipeline store.
    let p = db.monitor().pipeline();
    assert!(p.pipelines_run >= 1, "{p:?}");
    assert!(p.pipeline_breakers >= 1, "{p:?}");

    // EXPLAIN shows the decomposition.
    let explain = s
        .execute(&format!("EXPLAIN {sql}"))
        .unwrap();
    let text: Vec<String> = explain
        .rows
        .iter()
        .map(|r| r.get(0).render())
        .collect();
    assert!(
        text.iter().any(|l| l.contains("pipeline") && l.contains("scan")),
        "EXPLAIN must render pipeline decomposition: {text:?}"
    );
}
