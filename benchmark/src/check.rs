//! The correctness gate: expected answers come from the row-store
//! reference engine (`dash-rowstore`, which shares no code with
//! `dash-exec`), computed before the timed window; every engine answer is
//! compared against them. Integers, strings, dates and ORDER BY order
//! compare exactly; floats to a relative tolerance, because the two
//! engines legitimately sum in different orders.

use dash_common::{Datum, Result, Row};
use dash_rowstore::engine::RowEngine;
use dash_workloads::{QuerySpec, TableDef};

/// Relative tolerance on floating-point results.
const FLOAT_REL_TOL: f64 = 1e-9;
/// Absolute slack on floats: the reference rounds SUMs to 1e-6.
const FLOAT_ABS_TOL: f64 = 1e-6;

/// A query with its expected answer.
pub struct Checked {
    pub spec: QuerySpec,
    pub sql: String,
    pub expected: Vec<Row>,
}

/// Load tables into the reference engine with their declared indexes.
pub fn reference_engine(tables: &[TableDef]) -> Result<RowEngine> {
    let mut engine = RowEngine::new(None);
    for t in tables {
        engine.create_table(&t.name, t.schema.clone())?;
        engine.load(&t.name, t.rows.clone())?;
        for &col in &t.indexed {
            engine.create_index(&t.name, col)?;
        }
    }
    Ok(engine)
}

/// Compute the expected answer of every spec on the reference engine.
pub fn expected_answers(engine: &RowEngine, specs: Vec<QuerySpec>) -> Result<Vec<Checked>> {
    specs
        .into_iter()
        .map(|spec| {
            let (expected, _) = spec.run_row(engine)?;
            Ok(Checked {
                sql: spec.to_sql(),
                spec,
                expected,
            })
        })
        .collect()
}

/// Bring an engine answer into the reference's shape: unordered results
/// sorted, grouped `[key, count, sum]` rows with count as an integer and
/// sum as a float. Top-N output keeps its order — that is the contract.
fn normalize(spec: &QuerySpec, rows: Vec<Row>) -> Vec<Row> {
    let mut rows = match spec {
        QuerySpec::TopN { .. } => return rows,
        QuerySpec::FilterScan { .. } => rows,
        QuerySpec::GroupAgg { .. } | QuerySpec::JoinAgg { .. } => rows
            .into_iter()
            .map(|r| {
                let mut v = r.0;
                let n = v.len();
                if n >= 2 {
                    if let Some(c) = v[n - 2].as_int() {
                        v[n - 2] = Datum::Int(c);
                    }
                    if let Some(s) = v[n - 1].as_float() {
                        v[n - 1] = Datum::Float(s);
                    }
                }
                Row::new(v)
            })
            .collect(),
    };
    rows.sort();
    rows
}

fn datum_matches(got: &Datum, want: &Datum) -> bool {
    match (got, want) {
        (Datum::Float(a), Datum::Float(b)) => {
            (a - b).abs() <= FLOAT_REL_TOL * a.abs().max(b.abs()) + FLOAT_ABS_TOL
        }
        _ => got == want,
    }
}

/// Compare an engine answer with the expected one; `Err` describes the
/// first difference.
pub fn verify(q: &Checked, got: Vec<Row>) -> std::result::Result<(), String> {
    let got = normalize(&q.spec, got);
    if got.len() != q.expected.len() {
        return Err(format!(
            "`{}`: {} rows, expected {}",
            q.sql,
            got.len(),
            q.expected.len()
        ));
    }
    for (i, (g, w)) in got.iter().zip(&q.expected).enumerate() {
        if g.0.len() != w.0.len() || !g.0.iter().zip(&w.0).all(|(a, b)| datum_matches(a, b)) {
            return Err(format!("`{}`: row {i} is {g:?}, expected {w:?}", q.sql));
        }
    }
    Ok(())
}

/// Raw input bytes of generated tables: fixed-width values at their type's
/// width, strings at their UTF-8 length. The base of `stored_bytes_ratio`.
pub fn raw_bytes(tables: &[TableDef]) -> usize {
    tables
        .iter()
        .flat_map(|t| t.rows.iter())
        .flat_map(|r| r.0.iter())
        .map(|d| match d {
            Datum::Null => 0,
            Datum::Bool(_) => 1,
            Datum::Date(_) => 4,
            Datum::Decimal(..) => 16,
            Datum::Str(s) => s.len(),
            Datum::Int(_) | Datum::Float(_) | Datum::Timestamp(_) => 8,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dash_workloads::spec::Pred;

    fn group_query(expected: Vec<Row>) -> Checked {
        let spec = QuerySpec::GroupAgg {
            table: "t".into(),
            predicates: vec![Pred::eq("a", 1i64)],
            key: "k".into(),
            value: "v".into(),
        };
        Checked {
            sql: spec.to_sql(),
            spec,
            expected,
        }
    }

    #[test]
    fn float_sums_compare_within_tolerance() {
        let q = group_query(vec![Row::new(vec![
            Datum::str("a"),
            Datum::Int(3),
            Datum::Float(46122227.178),
        ])]);
        let near = Row::new(vec![
            Datum::str("a"),
            Datum::Int(3),
            Datum::Float(46122227.178001),
        ]);
        assert!(verify(&q, vec![near]).is_ok());
        let far = Row::new(vec![
            Datum::str("a"),
            Datum::Int(3),
            Datum::Float(46122228.0),
        ]);
        assert!(verify(&q, vec![far]).is_err());
    }

    #[test]
    fn counts_and_keys_compare_exactly() {
        let q = group_query(vec![Row::new(vec![
            Datum::str("a"),
            Datum::Int(3),
            Datum::Float(1.0),
        ])]);
        let wrong_count = Row::new(vec![Datum::str("a"), Datum::Int(4), Datum::Float(1.0)]);
        assert!(verify(&q, vec![wrong_count]).is_err());
        let wrong_key = Row::new(vec![Datum::str("b"), Datum::Int(3), Datum::Float(1.0)]);
        assert!(verify(&q, vec![wrong_key]).is_err());
        assert!(verify(&q, vec![]).is_err());
    }
}
