//! Partitioned hash aggregation and the aggregate-function suite.
//!
//! Grouping follows the same cache-conscious recipe as the join (§II.B.7):
//! rows are hash-partitioned on the group key into cache-sized chunks, and
//! each chunk is aggregated with its own small hash table. Partitions hold
//! disjoint key sets, so results simply concatenate.
//!
//! The function suite covers the dialect aggregates the paper lists:
//! `MEDIAN`, `PERCENTILE_CONT`/`_DISC`, `VAR_POP`/`VAR_SAMP`,
//! `STDDEV_POP`/`STDDEV_SAMP`, `COVAR_POP`/`COVAR_SAMP` plus the ANSI core.

use crate::batch::Batch;
use crate::expr::Expr;
use crate::functions::EvalContext;
use crate::join::PARTITION_ROWS;
use crate::key::{self, KeyCol, KeyMode, StrInterner, STR_MISS};
use crate::pool;
use crate::stats::ExecStats;
use dash_common::fxhash::FxHashMap;
use dash_common::statement::approx_datum_bytes;
use dash_common::{canonical_f64_bits, BudgetLease, DashError, DataType, Datum, Result, Row, Schema};
use parking_lot::Mutex;
use std::collections::HashSet;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::ops::Range;

/// Aggregate functions.
#[derive(Debug, Clone, PartialEq)]
pub enum AggFunc {
    /// `COUNT(*)` — counts rows.
    CountStar,
    /// `COUNT(expr)` — counts non-null values.
    Count,
    /// `SUM(expr)`.
    Sum,
    /// `AVG(expr)`.
    Avg,
    /// `MIN(expr)`.
    Min,
    /// `MAX(expr)`.
    Max,
    /// `MEDIAN(expr)` (Oracle).
    Median,
    /// `PERCENTILE_CONT(q)` — continuous percentile (linear interpolation).
    PercentileCont(f64),
    /// `PERCENTILE_DISC(q)` — discrete percentile.
    PercentileDisc(f64),
    /// `VAR_POP` / `VARIANCE` (population variance).
    VarPop,
    /// `VAR_SAMP` / `VARIANCE_SAMP`.
    VarSamp,
    /// `STDDEV_POP` / `STDDEV`.
    StdDevPop,
    /// `STDDEV_SAMP`.
    StdDevSamp,
    /// `COVAR_POP` / `COVARIANCE` (two arguments).
    CovarPop,
    /// `COVAR_SAMP` / `COVARIANCE_SAMP`.
    CovarSamp,
}

impl AggFunc {
    /// Resolve an aggregate by (dialect-merged) name. `None` if unknown.
    pub fn from_name(name: &str) -> Option<AggFunc> {
        Some(match name.to_ascii_uppercase().as_str() {
            "COUNT" => AggFunc::Count,
            "SUM" => AggFunc::Sum,
            "AVG" | "MEAN" => AggFunc::Avg,
            "MIN" => AggFunc::Min,
            "MAX" => AggFunc::Max,
            "MEDIAN" => AggFunc::Median,
            "VAR_POP" | "VARIANCE" => AggFunc::VarPop,
            "VAR_SAMP" | "VARIANCE_SAMP" => AggFunc::VarSamp,
            "STDDEV_POP" | "STDDEV" => AggFunc::StdDevPop,
            "STDDEV_SAMP" => AggFunc::StdDevSamp,
            "COVAR_POP" | "COVARIANCE" => AggFunc::CovarPop,
            "COVAR_SAMP" | "COVARIANCE_SAMP" => AggFunc::CovarSamp,
            _ => return None,
        })
    }

    /// Number of argument expressions the function takes.
    pub fn arg_count(&self) -> usize {
        match self {
            AggFunc::CountStar => 0,
            AggFunc::CovarPop | AggFunc::CovarSamp => 2,
            _ => 1,
        }
    }

    /// Output type given the input type.
    pub fn output_type(&self, input: Option<DataType>) -> DataType {
        match self {
            AggFunc::CountStar | AggFunc::Count => DataType::Int64,
            AggFunc::Min | AggFunc::Max => input.unwrap_or(DataType::Float64),
            AggFunc::Sum => match input {
                Some(t) if t.is_integer() => DataType::Int64,
                Some(DataType::Decimal(p, s)) => DataType::Decimal(p, s),
                _ => DataType::Float64,
            },
            _ => DataType::Float64,
        }
    }
}

/// One aggregate expression in a GROUP BY plan node.
#[derive(Debug, Clone)]
pub struct AggExpr {
    /// The function.
    pub func: AggFunc,
    /// Argument expressions (empty for COUNT(*)).
    pub args: Vec<Expr>,
    /// DISTINCT modifier (COUNT(DISTINCT x), SUM(DISTINCT x)...).
    pub distinct: bool,
}

/// Running state for one aggregate of one group.
#[derive(Debug, Clone)]
enum AggState {
    Count(i64),
    SumInt { sum: i64, any: bool },
    SumFloat { sum: f64, any: bool },
    Avg { sum: f64, n: i64 },
    MinMax { current: Option<Datum>, min: bool },
    /// Holds all values (percentiles/median need the full set).
    Values(Vec<f64>),
    /// Welford-style moments for variance/stddev.
    Moments { n: i64, mean: f64, m2: f64 },
    /// Co-moments for covariance.
    CoMoments { n: i64, mx: f64, my: f64, cxy: f64 },
    Distinct(HashSet<Datum>, Box<AggState>),
}

fn new_state(agg: &AggExpr, input_is_int: bool) -> AggState {
    let base = match agg.func {
        AggFunc::CountStar | AggFunc::Count => AggState::Count(0),
        AggFunc::Sum if input_is_int => AggState::SumInt { sum: 0, any: false },
        AggFunc::Sum => AggState::SumFloat { sum: 0.0, any: false },
        AggFunc::Avg => AggState::Avg { sum: 0.0, n: 0 },
        AggFunc::Min => AggState::MinMax {
            current: None,
            min: true,
        },
        AggFunc::Max => AggState::MinMax {
            current: None,
            min: false,
        },
        AggFunc::Median | AggFunc::PercentileCont(_) | AggFunc::PercentileDisc(_) => {
            AggState::Values(Vec::new())
        }
        AggFunc::VarPop | AggFunc::VarSamp | AggFunc::StdDevPop | AggFunc::StdDevSamp => {
            AggState::Moments {
                n: 0,
                mean: 0.0,
                m2: 0.0,
            }
        }
        AggFunc::CovarPop | AggFunc::CovarSamp => AggState::CoMoments {
            n: 0,
            mx: 0.0,
            my: 0.0,
            cxy: 0.0,
        },
    };
    if agg.distinct {
        AggState::Distinct(HashSet::new(), Box::new(base))
    } else {
        base
    }
}

fn update(state: &mut AggState, values: &[Datum]) -> Result<()> {
    match state {
        AggState::Distinct(seen, inner) => {
            // Only single-argument distinct aggregates are supported.
            let v = values.first().cloned().unwrap_or(Datum::Null);
            if v.is_null() || !seen.insert(v) {
                return Ok(());
            }
            update(inner, values)
        }
        AggState::Count(c) => {
            if values.is_empty() || !values[0].is_null() {
                *c += 1;
            }
            Ok(())
        }
        AggState::SumInt { sum, any } => {
            if !values[0].is_null() {
                let v = values[0]
                    .as_int()
                    .ok_or_else(|| DashError::exec("SUM over non-numeric value"))?;
                *sum = sum
                    .checked_add(v)
                    .ok_or_else(|| DashError::exec("SUM overflow"))?;
                *any = true;
            }
            Ok(())
        }
        AggState::SumFloat { sum, any } => {
            if !values[0].is_null() {
                *sum += values[0]
                    .as_float()
                    .ok_or_else(|| DashError::exec("SUM over non-numeric value"))?;
                *any = true;
            }
            Ok(())
        }
        AggState::Avg { sum, n } => {
            if !values[0].is_null() {
                *sum += values[0]
                    .as_float()
                    .ok_or_else(|| DashError::exec("AVG over non-numeric value"))?;
                *n += 1;
            }
            Ok(())
        }
        AggState::MinMax { current, min } => {
            let v = &values[0];
            if !v.is_null() {
                let replace = match current {
                    None => true,
                    Some(c) => {
                        let ord = v.sql_cmp(c);
                        if *min {
                            ord == std::cmp::Ordering::Less
                        } else {
                            ord == std::cmp::Ordering::Greater
                        }
                    }
                };
                if replace {
                    *current = Some(v.clone());
                }
            }
            Ok(())
        }
        AggState::Values(vals) => {
            if !values[0].is_null() {
                vals.push(
                    values[0]
                        .as_float()
                        .ok_or_else(|| DashError::exec("percentile over non-numeric value"))?,
                );
            }
            Ok(())
        }
        AggState::Moments { n, mean, m2 } => {
            if !values[0].is_null() {
                let x = values[0]
                    .as_float()
                    .ok_or_else(|| DashError::exec("variance over non-numeric value"))?;
                *n += 1;
                let delta = x - *mean;
                *mean += delta / *n as f64;
                *m2 += delta * (x - *mean);
            }
            Ok(())
        }
        AggState::CoMoments { n, mx, my, cxy } => {
            if !values[0].is_null() && !values[1].is_null() {
                let x = values[0]
                    .as_float()
                    .ok_or_else(|| DashError::exec("covariance over non-numeric value"))?;
                let y = values[1]
                    .as_float()
                    .ok_or_else(|| DashError::exec("covariance over non-numeric value"))?;
                *n += 1;
                let dx = x - *mx;
                *mx += dx / *n as f64;
                *my += (y - *my) / *n as f64;
                *cxy += dx * (y - *my);
            }
            Ok(())
        }
    }
}

fn finish(state: AggState, func: &AggFunc) -> Datum {
    match state {
        AggState::Distinct(_, inner) => finish(*inner, func),
        AggState::Count(c) => Datum::Int(c),
        AggState::SumInt { sum, any } => {
            if any {
                Datum::Int(sum)
            } else {
                Datum::Null
            }
        }
        AggState::SumFloat { sum, any } => {
            if any {
                Datum::Float(sum)
            } else {
                Datum::Null
            }
        }
        AggState::Avg { sum, n } => {
            if n == 0 {
                Datum::Null
            } else {
                Datum::Float(sum / n as f64)
            }
        }
        AggState::MinMax { current, .. } => current.unwrap_or(Datum::Null),
        AggState::Values(mut vals) => {
            if vals.is_empty() {
                return Datum::Null;
            }
            vals.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            let q = match func {
                AggFunc::Median => 0.5,
                AggFunc::PercentileCont(q) | AggFunc::PercentileDisc(q) => *q,
                _ => 0.5,
            };
            match func {
                AggFunc::PercentileDisc(_) => {
                    // Smallest value whose cumulative distribution >= q.
                    let idx = ((q * vals.len() as f64).ceil() as usize).clamp(1, vals.len()) - 1;
                    Datum::Float(vals[idx])
                }
                _ => {
                    // Continuous interpolation (MEDIAN is PERCENTILE_CONT(0.5)).
                    let pos = q * (vals.len() - 1) as f64;
                    let lo = pos.floor() as usize;
                    let hi = pos.ceil() as usize;
                    let frac = pos - lo as f64;
                    Datum::Float(vals[lo] + (vals[hi] - vals[lo]) * frac)
                }
            }
        }
        AggState::Moments { n, m2, .. } => {
            let denom = match func {
                AggFunc::VarSamp | AggFunc::StdDevSamp => n - 1,
                _ => n,
            };
            if denom <= 0 {
                return Datum::Null;
            }
            let var = m2 / denom as f64;
            match func {
                AggFunc::StdDevPop | AggFunc::StdDevSamp => Datum::Float(var.sqrt()),
                _ => Datum::Float(var),
            }
        }
        AggState::CoMoments { n, cxy, .. } => {
            let denom = match func {
                AggFunc::CovarSamp => n - 1,
                _ => n,
            };
            if denom <= 0 {
                return Datum::Null;
            }
            Datum::Float(cxy / denom as f64)
        }
    }
}

fn group_hash(key: &[Datum]) -> u64 {
    let mut h = BuildHasherDefault::<dash_common::fxhash::FxHasher>::default().build_hasher();
    for v in key {
        v.hash(&mut h);
    }
    h.finish()
}

/// Fused star-join aggregation: `GROUP BY` over an inner equi-join,
/// accumulating directly while probing — no join output is ever
/// materialized. Used by the executor when the plan shape is
/// `HashAggregate(group=[col], fast aggs, HashJoin(inner, single key))`,
/// which is the dominant star-schema query shape.
///
/// Returns `None` when the shape does not qualify (caller falls back to
/// the generic join-then-aggregate pipeline).
pub fn try_fused_join_aggregate(
    left: &Batch,
    right: &Batch,
    on: &[(usize, usize)],
    group_exprs: &[Expr],
    aggs: &[AggExpr],
    out_schema: &Schema,
) -> Option<Result<Batch>> {
    let [(lk, rk)] = on else { return None };
    let g = match group_exprs {
        [Expr::Col(g)] => *g,
        _ => return None,
    };
    let lw = left.schema().len();
    // Validate aggregate shapes: CountStar or Count/Sum/Avg over one column.
    enum Acc {
        CountStar(Vec<i64>),
        Count(usize, Vec<i64>),
        Sum(usize, Vec<f64>, Vec<bool>, bool), // (col, sums, any, output_int)
        Avg(usize, Vec<f64>, Vec<i64>),
    }
    let mut accs: Vec<Acc> = Vec::with_capacity(aggs.len());
    for a in aggs {
        if a.distinct {
            return None;
        }
        match (&a.func, a.args.as_slice()) {
            (AggFunc::CountStar, []) => accs.push(Acc::CountStar(Vec::new())),
            (AggFunc::Count, [Expr::Col(c)]) => accs.push(Acc::Count(*c, Vec::new())),
            (AggFunc::Sum, [Expr::Col(c)]) => {
                let side = if *c < lw { left } else { right };
                let dt = side.schema().field(if *c < lw { *c } else { *c - lw }).data_type;
                if !dt.is_numeric() {
                    return None;
                }
                accs.push(Acc::Sum(*c, Vec::new(), Vec::new(), dt.is_integer()));
            }
            (AggFunc::Avg, [Expr::Col(c)]) => accs.push(Acc::Avg(*c, Vec::new(), Vec::new())),
            _ => return None,
        }
    }
    // Build the dim-side hash table.
    let mut rmap: FxHashMap<Datum, Vec<u32>> = FxHashMap::default();
    for ri in 0..right.len() {
        let k = right.value(ri, *rk);
        if !k.is_null() {
            rmap.entry(k).or_default().push(ri as u32);
        }
    }
    // Probe + accumulate.
    let mut gid_map: FxHashMap<Datum, u32> = FxHashMap::default();
    let mut keys: Vec<Datum> = Vec::new();
    let value_at = |li: usize, ri: usize, c: usize| -> Datum {
        if c < lw {
            left.value(li, c)
        } else {
            right.value(ri, c - lw)
        }
    };
    for li in 0..left.len() {
        let key = left.value(li, *lk);
        if key.is_null() {
            continue;
        }
        let Some(rids) = rmap.get(&key) else { continue };
        for &ri in rids {
            let ri = ri as usize;
            let gval = value_at(li, ri, g);
            let gid = *gid_map.entry(gval.clone()).or_insert_with(|| {
                keys.push(gval);
                keys.len() as u32 - 1
            }) as usize;
            for acc in &mut accs {
                match acc {
                    Acc::CountStar(counts) => {
                        if counts.len() <= gid {
                            counts.resize(gid + 1, 0);
                        }
                        counts[gid] += 1;
                    }
                    Acc::Count(c, counts) => {
                        if counts.len() <= gid {
                            counts.resize(gid + 1, 0);
                        }
                        if !value_at(li, ri, *c).is_null() {
                            counts[gid] += 1;
                        }
                    }
                    Acc::Sum(c, sums, any, _) => {
                        if sums.len() <= gid {
                            sums.resize(gid + 1, 0.0);
                            any.resize(gid + 1, false);
                        }
                        if let Some(f) = value_at(li, ri, *c).as_float() {
                            sums[gid] += f;
                            any[gid] = true;
                        }
                    }
                    Acc::Avg(c, sums, counts) => {
                        if sums.len() <= gid {
                            sums.resize(gid + 1, 0.0);
                            counts.resize(gid + 1, 0);
                        }
                        if let Some(f) = value_at(li, ri, *c).as_float() {
                            sums[gid] += f;
                            counts[gid] += 1;
                        }
                    }
                }
            }
        }
    }
    // Emit.
    let ng = keys.len();
    let mut rows = Vec::with_capacity(ng);
    for gid in 0..ng {
        let mut row = Vec::with_capacity(1 + accs.len());
        row.push(keys[gid].clone());
        for acc in &accs {
            row.push(match acc {
                Acc::CountStar(c) | Acc::Count(_, c) => {
                    Datum::Int(c.get(gid).copied().unwrap_or(0))
                }
                Acc::Sum(_, sums, any, as_int) => {
                    if any.get(gid).copied().unwrap_or(false) {
                        let v = sums[gid];
                        if *as_int {
                            Datum::Int(v as i64)
                        } else {
                            Datum::Float(v)
                        }
                    } else {
                        Datum::Null
                    }
                }
                Acc::Avg(_, sums, counts) => {
                    let c = counts.get(gid).copied().unwrap_or(0);
                    if c > 0 {
                        Datum::Float(sums[gid] / c as f64)
                    } else {
                        Datum::Null
                    }
                }
            });
        }
        rows.push(Row::new(row));
    }
    Some(Batch::from_rows(out_schema.clone(), &rows))
}

/// Rows per kernel chunk when the materialized executor aggregates a whole
/// batch. Fixed, so chunk boundaries — and with them every float sum — do
/// not depend on the worker count.
const AGG_CHUNK_ROWS: usize = 4096;

/// A materialized group key as a hash-map key. Floats compare by their
/// canonical bits — the identity `Datum`'s hash already uses — rather than
/// by [`Datum::sql_cmp`], under which NaN equals every number.
#[derive(Clone)]
struct GroupKey(Vec<Datum>);

impl Hash for GroupKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

impl PartialEq for GroupKey {
    fn eq(&self, other: &GroupKey) -> bool {
        self.0.len() == other.0.len()
            && self.0.iter().zip(&other.0).all(|(a, b)| match (a, b) {
                (Datum::Float(x), Datum::Float(y)) => {
                    canonical_f64_bits(*x) == canonical_f64_bits(*y)
                }
                _ => a == b,
            })
    }
}

impl Eq for GroupKey {}

/// Pass 1 of the aggregate kernel: one dense group id per row, assigned in
/// first-appearance order, plus each group's key values taken from its
/// first row.
struct Groups {
    ids: Vec<u32>,
    keys: Vec<Vec<Datum>>,
}

/// Register `row` as the representative of a new group; returns its id.
#[inline]
fn new_group(reps: &mut Vec<usize>, row: usize) -> u32 {
    reps.push(row);
    reps.len() as u32 - 1
}

/// Assign group ids to rows `[lo, hi)` of `input`.
///
/// - No group key: every row is group 0, so the global aggregate runs the
///   same kernel (and an empty range still yields its one group).
/// - One bare-column key: a map on the encoded key word plus a separate
///   NULL group. String keys first try a memo keyed by the `Arc<str>`
///   allocation — scan decode and the join's gather both hand out clones
///   of the dictionary's single `Arc` per value, and the range holds its
///   `Arc`s, so equal pointers mean equal strings. A pointer miss takes
///   the dictionary word, or interns the string when it is outside the
///   dictionary, so correctness never depends on the sharing.
/// - Several bare-column keys: `nk` words plus a NULL-mask word per row
///   (bit `c` set = column `c` NULL, its word zeroed), in a reused buffer.
/// - Computed keys: `Datum` keys.
fn group_rows(
    input: &Batch,
    lo: usize,
    hi: usize,
    group_exprs: &[Expr],
    ctx: &EvalContext,
    stats: &mut ExecStats,
) -> Result<Groups> {
    if group_exprs.is_empty() {
        return Ok(Groups {
            ids: vec![0; hi - lo],
            keys: vec![Vec::new()],
        });
    }
    let mut ids = Vec::with_capacity(hi - lo);
    let Some(cols) = key::group_key_cols(input, group_exprs) else {
        stats.datum_key_rows += (hi - lo) as u64;
        let mut gid_of: FxHashMap<GroupKey, u32> = FxHashMap::default();
        let mut keys: Vec<Vec<Datum>> = Vec::new();
        let mut key = GroupKey(Vec::with_capacity(group_exprs.len()));
        for row in lo..hi {
            key.0.clear();
            for g in group_exprs {
                key.0.push(g.eval(input, row, ctx)?);
            }
            let gid = match gid_of.get(&key) {
                Some(&g) => g,
                None => {
                    let g = keys.len() as u32;
                    gid_of.insert(key.clone(), g);
                    keys.push(key.0.clone());
                    g
                }
            };
            ids.push(gid);
        }
        return Ok(Groups { ids, keys });
    };
    stats.encoded_key_rows += (hi - lo) as u64;
    let mut reps: Vec<usize> = Vec::new();
    let mut null_gid: Option<u32> = None;
    match cols.as_slice() {
        [col @ KeyCol::Str { vals, .. }] => {
            let mut by_ptr: FxHashMap<usize, u32> = FxHashMap::default();
            let mut by_word: FxHashMap<u64, u32> = FxHashMap::default();
            let mut interner = StrInterner::default();
            for row in lo..hi {
                let gid = match &vals[row] {
                    None => *null_gid.get_or_insert_with(|| new_group(&mut reps, row)),
                    Some(s) => {
                        let ptr = std::sync::Arc::as_ptr(s) as *const u8 as usize;
                        match by_ptr.get(&ptr) {
                            Some(&g) => g,
                            None => {
                                let mut w = col.word(row).unwrap_or(STR_MISS);
                                if w == STR_MISS {
                                    w = interner.intern(s);
                                }
                                let g = *by_word
                                    .entry(w)
                                    .or_insert_with(|| new_group(&mut reps, row));
                                by_ptr.insert(ptr, g);
                                g
                            }
                        }
                    }
                };
                ids.push(gid);
            }
        }
        [col] => {
            // Int and float words need no sentinel check: `i64::MAX`
            // legitimately encodes to `u64::MAX`.
            let mut by_word: FxHashMap<u64, u32> = FxHashMap::default();
            for row in lo..hi {
                let gid = match col.word(row) {
                    None => *null_gid.get_or_insert_with(|| new_group(&mut reps, row)),
                    Some(w) => *by_word
                        .entry(w)
                        .or_insert_with(|| new_group(&mut reps, row)),
                };
                ids.push(gid);
            }
        }
        _ => {
            let nk = cols.len();
            let mut interners: Vec<StrInterner> = (0..nk).map(|_| StrInterner::default()).collect();
            let mut gid_of: FxHashMap<Vec<u64>, u32> = FxHashMap::default();
            let mut words = vec![0u64; nk + 1];
            for row in lo..hi {
                let mut nulls = 0u64;
                for (c, col) in cols.iter().enumerate() {
                    words[c] = match col.word(row) {
                        Some(w) if w == STR_MISS && col.is_str() => {
                            interners[c].intern(col.str_at(row))
                        }
                        Some(w) => w,
                        None => {
                            nulls |= 1 << c;
                            0
                        }
                    };
                }
                words[nk] = nulls;
                let gid = match gid_of.get(&words) {
                    Some(&g) => g,
                    None => {
                        let g = new_group(&mut reps, row);
                        gid_of.insert(words.clone(), g);
                        g
                    }
                };
                ids.push(gid);
            }
        }
    }
    // Late materialization: key values decode once per group, from the
    // group's first row.
    let keys = reps
        .iter()
        .map(|&rep| {
            group_exprs
                .iter()
                .map(|g| match g {
                    Expr::Col(c) => input.value(rep, *c),
                    _ => unreachable!("encoded grouping requires bare column keys"),
                })
                .collect()
        })
        .collect();
    Ok(Groups { ids, keys })
}

/// One aggregate's accumulator column, indexed by dense group id. The typed
/// arms are plain vectors the kernel's loops write directly; `Generic`
/// keeps one [`AggState`] per group for everything else (computed
/// arguments, string MIN/MAX, percentiles, moments).
enum Acc {
    /// `COUNT(*)` / `COUNT(col)`.
    Count(Vec<i64>),
    /// Integer `SUM`; `None` until the group sees a non-NULL value.
    SumInt(Vec<Option<i64>>),
    /// Float `SUM`; `None` until the group sees a non-NULL value.
    SumFloat(Vec<Option<f64>>),
    /// `AVG` as (sum, non-NULL count).
    Avg(Vec<(f64, i64)>),
    /// Integer `MIN` (`true`) or `MAX` (`false`).
    MinMaxInt(Vec<Option<i64>>, bool),
    /// Float `MIN` (`true`) or `MAX` (`false`).
    MinMaxFloat(Vec<Option<f64>>, bool),
    /// Every other aggregate, through [`update`] and [`merge_state`].
    Generic(Vec<AggState>),
}

#[inline]
fn add_int(slot: &mut Option<i64>, x: i64) -> Result<()> {
    *slot = Some(match *slot {
        None => x,
        Some(s) => s
            .checked_add(x)
            .ok_or_else(|| DashError::exec("SUM overflow"))?,
    });
    Ok(())
}

/// Fold `x` into a running MIN/MAX with [`Datum::sql_cmp`] semantics: only
/// a strictly smaller (larger) value replaces, so NaN never replaces and a
/// NaN that arrived first stays.
#[inline]
fn fold_extreme<T: PartialOrd + Copy>(slot: &mut Option<T>, x: T, min: bool) {
    match slot {
        None => *slot = Some(x),
        Some(c) => {
            if (min && x < *c) || (!min && x > *c) {
                *c = x;
            }
        }
    }
}

fn count_nonnull<T>(v: &[Option<T>], ids: &[u32], ng: usize) -> Vec<i64> {
    let mut counts = vec![0i64; ng];
    for (x, &g) in v.iter().zip(ids) {
        if x.is_some() {
            counts[g as usize] += 1;
        }
    }
    counts
}

fn avg<T: Copy>(v: &[Option<T>], ids: &[u32], ng: usize, f: impl Fn(T) -> f64) -> Vec<(f64, i64)> {
    let mut avgs = vec![(0.0, 0i64); ng];
    for (x, &g) in v.iter().zip(ids) {
        if let Some(x) = *x {
            let a = &mut avgs[g as usize];
            a.0 += f(x);
            a.1 += 1;
        }
    }
    avgs
}

fn min_max<T: PartialOrd + Copy>(
    v: &[Option<T>],
    ids: &[u32],
    ng: usize,
    min: bool,
) -> Vec<Option<T>> {
    let mut out = vec![None; ng];
    for (x, &g) in v.iter().zip(ids) {
        if let Some(x) = *x {
            fold_extreme(&mut out[g as usize], x, min);
        }
    }
    out
}

/// Pass 2, typed arms: one loop over the argument's column vector. `None`
/// when the aggregate needs the generic arm.
fn typed_acc(
    agg: &AggExpr,
    input: &Batch,
    lo: usize,
    hi: usize,
    ids: &[u32],
    ng: usize,
) -> Result<Option<Acc>> {
    use dash_encoding::column::ColumnValues as Cv;
    let col = match (&agg.func, agg.args.as_slice()) {
        (AggFunc::CountStar, []) => {
            let mut counts = vec![0i64; ng];
            for &g in ids {
                counts[g as usize] += 1;
            }
            return Ok(Some(Acc::Count(counts)));
        }
        (_, [Expr::Col(c)]) => *c,
        _ => return Ok(None),
    };
    let int_typed = input.schema().field(col).data_type.is_integer();
    let is_min = agg.func == AggFunc::Min;
    Ok(Some(match (&agg.func, input.column(col)) {
        (AggFunc::Count, Cv::Int(v)) => Acc::Count(count_nonnull(&v[lo..hi], ids, ng)),
        (AggFunc::Count, Cv::Float(v)) => Acc::Count(count_nonnull(&v[lo..hi], ids, ng)),
        (AggFunc::Count, Cv::Str(v)) => Acc::Count(count_nonnull(&v[lo..hi], ids, ng)),
        (AggFunc::Sum, Cv::Int(v)) if int_typed => {
            let mut sums = vec![None; ng];
            for (x, &g) in v[lo..hi].iter().zip(ids) {
                if let Some(x) = *x {
                    add_int(&mut sums[g as usize], x)?;
                }
            }
            Acc::SumInt(sums)
        }
        (AggFunc::Sum, Cv::Float(v)) => {
            let mut sums: Vec<Option<f64>> = vec![None; ng];
            for (x, &g) in v[lo..hi].iter().zip(ids) {
                if let Some(x) = *x {
                    let s = &mut sums[g as usize];
                    *s = Some(s.unwrap_or(0.0) + x);
                }
            }
            Acc::SumFloat(sums)
        }
        (AggFunc::Avg, Cv::Int(v)) if int_typed => Acc::Avg(avg(&v[lo..hi], ids, ng, |x| x as f64)),
        (AggFunc::Avg, Cv::Float(v)) => Acc::Avg(avg(&v[lo..hi], ids, ng, |x| x)),
        (AggFunc::Min | AggFunc::Max, Cv::Int(v)) if int_typed => {
            Acc::MinMaxInt(min_max(&v[lo..hi], ids, ng, is_min), is_min)
        }
        (AggFunc::Min | AggFunc::Max, Cv::Float(v)) => {
            Acc::MinMaxFloat(min_max(&v[lo..hi], ids, ng, is_min), is_min)
        }
        _ => return Ok(None),
    }))
}

impl Acc {
    fn approx_bytes(&self) -> u64 {
        fn bytes<T>(v: &[T]) -> u64 {
            std::mem::size_of_val(v) as u64
        }
        match self {
            Acc::Count(v) => bytes(v),
            Acc::SumInt(v) | Acc::MinMaxInt(v, _) => bytes(v),
            Acc::SumFloat(v) | Acc::MinMaxFloat(v, _) => bytes(v),
            Acc::Avg(v) => bytes(v),
            Acc::Generic(v) => v.iter().map(state_bytes).sum(),
        }
    }

    /// Merge a partial's column into this one, column-wise with
    /// [`merge_state`] semantics. `map[lg]` is local group `lg`'s global
    /// id; ids past the end are new groups, handed out in local order.
    fn merge(&mut self, src: Acc, map: &[u32]) -> Result<()> {
        fn fold<T>(
            dst: &mut Vec<T>,
            src: Vec<T>,
            map: &[u32],
            mut combine: impl FnMut(&mut T, T) -> Result<()>,
        ) -> Result<()> {
            for (v, &g) in src.into_iter().zip(map) {
                match dst.get_mut(g as usize) {
                    Some(d) => combine(d, v)?,
                    None => {
                        debug_assert_eq!(g as usize, dst.len(), "new groups arrive in order");
                        dst.push(v);
                    }
                }
            }
            Ok(())
        }
        match (self, src) {
            (Acc::Count(d), Acc::Count(s)) => fold(d, s, map, |a, b| {
                *a += b;
                Ok(())
            }),
            (Acc::SumInt(d), Acc::SumInt(s)) => fold(d, s, map, |a, b| match b {
                Some(b) => add_int(a, b),
                None => Ok(()),
            }),
            (Acc::SumFloat(d), Acc::SumFloat(s)) => fold(d, s, map, |a, b| {
                if let Some(b) = b {
                    *a = Some(a.unwrap_or(0.0) + b);
                }
                Ok(())
            }),
            (Acc::Avg(d), Acc::Avg(s)) => fold(d, s, map, |a, b| {
                a.0 += b.0;
                a.1 += b.1;
                Ok(())
            }),
            (Acc::MinMaxInt(d, min), Acc::MinMaxInt(s, _)) => fold(d, s, map, |a, b| {
                if let Some(b) = b {
                    fold_extreme(a, b, *min);
                }
                Ok(())
            }),
            (Acc::MinMaxFloat(d, min), Acc::MinMaxFloat(s, _)) => fold(d, s, map, |a, b| {
                if let Some(b) = b {
                    fold_extreme(a, b, *min);
                }
                Ok(())
            }),
            (Acc::Generic(d), Acc::Generic(s)) => fold(d, s, map, merge_state),
            _ => Err(DashError::internal(
                "mismatched aggregate partial columns at merge",
            )),
        }
    }

    /// Final values, one per group.
    fn finish(self, func: &AggFunc) -> Vec<Datum> {
        match self {
            Acc::Count(v) => v.into_iter().map(Datum::Int).collect(),
            Acc::SumInt(v) | Acc::MinMaxInt(v, _) => v
                .into_iter()
                .map(|x| x.map_or(Datum::Null, Datum::Int))
                .collect(),
            Acc::SumFloat(v) | Acc::MinMaxFloat(v, _) => v
                .into_iter()
                .map(|x| x.map_or(Datum::Null, Datum::Float))
                .collect(),
            Acc::Avg(v) => v
                .into_iter()
                .map(|(s, n)| {
                    if n == 0 {
                        Datum::Null
                    } else {
                        Datum::Float(s / n as f64)
                    }
                })
                .collect(),
            Acc::Generic(v) => v.into_iter().map(|s| finish(s, func)).collect(),
        }
    }
}

/// One row range's grouped aggregate state: group keys in first-appearance
/// order plus one accumulator column per aggregate. Produced on pool
/// workers by [`aggregate_morsel`] (and the materialized executor's
/// chunks), merged in morsel-index order by [`AggAccumulator::merge`].
pub(crate) struct AggPartial {
    keys: Vec<Vec<Datum>>,
    accs: Vec<Acc>,
    /// Key-path and typed-vs-eval row counters for this range.
    stats: ExecStats,
}

impl AggPartial {
    /// Rough heap footprint, for inflight accounting.
    pub(crate) fn approx_bytes(&self) -> u64 {
        let key_bytes: u64 = self
            .keys
            .iter()
            .map(|k| dash_common::statement::approx_row_bytes(k))
            .sum();
        key_bytes + self.accs.iter().map(Acc::approx_bytes).sum::<u64>()
    }
}

/// Pass 2, generic arm: [`AggState`]s fed through [`Expr::eval`], with one
/// reused argument buffer. `ids[i]` is the group of row `lo + i`.
fn generic_acc(
    agg: &AggExpr,
    input: &Batch,
    lo: usize,
    ids: &[u32],
    ng: usize,
    ctx: &EvalContext,
) -> Result<Acc> {
    let mut states = vec![init_state(agg, input.schema()); ng];
    let mut vals = Vec::with_capacity(agg.args.len());
    for (row, &g) in (lo..).zip(ids) {
        vals.clear();
        for a in &agg.args {
            vals.push(a.eval(input, row, ctx)?);
        }
        update(&mut states[g as usize], &vals)?;
    }
    Ok(Acc::Generic(states))
}

/// The aggregate kernel over `rows` of `input` — one pipeline morsel, or
/// one chunk of a materialized batch: dense group ids (pass 1), then one
/// loop per aggregate over its column (pass 2). Typed arms cover
/// `COUNT(*)`, `COUNT(col)`, integer and float `SUM`, `AVG`, and
/// `MIN`/`MAX` over int and float columns; every other aggregate runs the
/// generic arm, which evaluates its arguments through [`Expr::eval`] into
/// one reused buffer.
pub(crate) fn aggregate_morsel(
    input: &Batch,
    rows: Range<usize>,
    group_exprs: &[Expr],
    aggs: &[AggExpr],
    ctx: &EvalContext,
) -> Result<AggPartial> {
    // Cancellation/deadline observed once per range; a range is at most a
    // stride or a chunk of rows, so latency stays bounded.
    ctx.statement.check()?;
    let (lo, hi) = (rows.start, rows.end);
    let mut stats = ExecStats::default();
    let Groups { ids, keys } = group_rows(input, lo, hi, group_exprs, ctx, &mut stats)?;
    let ng = keys.len();
    let n = rows.len() as u64;
    let mut accs = Vec::with_capacity(aggs.len());
    for agg in aggs {
        accs.push(match typed_acc(agg, input, lo, hi, &ids, ng)? {
            Some(acc) => {
                stats.agg_typed_rows += n;
                acc
            }
            None => {
                stats.agg_eval_rows += n;
                generic_acc(agg, input, lo, &ids, ng, ctx)?
            }
        });
    }
    Ok(AggPartial { keys, accs, stats })
}

/// The materialized executor's arm of the kernel: fixed-size row chunks
/// run on the worker pool and fold in chunk order through the same
/// [`AggAccumulator`] the pipeline breaker uses, so results are
/// byte-identical across parallelism and to the pipelined path's group
/// order.
fn aggregate_chunks(
    input: &Batch,
    group_exprs: &[Expr],
    aggs: &[AggExpr],
    out_schema: Schema,
    ctx: &EvalContext,
    parallelism: usize,
    stats: &mut ExecStats,
) -> Result<Batch> {
    let n = input.len();
    let mut acc = AggAccumulator::new();
    let run = pool::run_morsels_fold(
        n.div_ceil(AGG_CHUNK_ROWS),
        parallelism,
        parallelism.max(1) * 4,
        &ctx.statement,
        |mi| {
            let lo = mi * AGG_CHUNK_ROWS;
            let chunk = lo..(lo + AGG_CHUNK_ROWS).min(n);
            let partial = aggregate_morsel(input, chunk, group_exprs, aggs, ctx)?;
            // Each waiting partial holds a lease until it folds.
            let mut lease = BudgetLease::new(&ctx.statement);
            lease.charge(partial.approx_bytes())?;
            Ok((partial, lease))
        },
        |(_, lease): &(AggPartial, BudgetLease)| lease.held().max(1),
        |_, (partial, _lease)| acc.merge(partial),
    )
    .inspect_err(|e| {
        if matches!(e, DashError::ResourceExhausted(_)) {
            stats.budget_rejections += 1;
        }
    })?;
    stats.note_parallel_phase(run.morsels_dispatched, run.workers_used);
    *stats += acc.stats;
    acc.finish(group_exprs, aggs, out_schema, input.schema())
}

/// The aggregate pipeline breaker's fold side: merges per-morsel
/// [`AggPartial`]s in morsel-index order, keeping groups in global
/// first-appearance order, then finishes into the output batch. Runs only
/// on the folding thread, so it needs no synchronization.
pub(crate) struct AggAccumulator {
    gid_of: FxHashMap<GroupKey, u32>,
    keys: Vec<Vec<Datum>>,
    key_bytes: u64,
    accs: Vec<Acc>,
    /// The merged partials' key-path and typed-vs-eval row counters.
    pub(crate) stats: ExecStats,
}

impl AggAccumulator {
    pub(crate) fn new() -> AggAccumulator {
        AggAccumulator {
            gid_of: FxHashMap::default(),
            keys: Vec::new(),
            key_bytes: 0,
            accs: Vec::new(),
            stats: ExecStats::default(),
        }
    }

    /// Fold one morsel's partial into the global state. Must be called in
    /// morsel-index order for deterministic group order. Local group ids
    /// map to global ids once per group, then each column merges whole.
    pub(crate) fn merge(&mut self, partial: AggPartial) -> Result<()> {
        self.stats += partial.stats;
        let mut map = Vec::with_capacity(partial.keys.len());
        for key in partial.keys {
            let key = GroupKey(key);
            let g = match self.gid_of.get(&key) {
                Some(&g) => g,
                None => {
                    let g = self.keys.len() as u32;
                    self.key_bytes += dash_common::statement::approx_row_bytes(&key.0);
                    self.keys.push(key.0.clone());
                    self.gid_of.insert(key, g);
                    g
                }
            };
            map.push(g);
        }
        if self.accs.is_empty() {
            // First partial: every group is new and ids map to themselves.
            self.accs = partial.accs;
            return Ok(());
        }
        for (dst, src) in self.accs.iter_mut().zip(partial.accs) {
            dst.merge(src, &map)?;
        }
        Ok(())
    }

    /// Rough heap footprint of the accumulated group state.
    pub(crate) fn approx_bytes(&self) -> u64 {
        self.key_bytes + self.accs.iter().map(Acc::approx_bytes).sum::<u64>()
    }

    /// Finish every group into the output batch. `input_schema` is the
    /// pre-aggregation schema (for typing a synthesized global group when
    /// zero morsels arrived).
    pub(crate) fn finish(
        self,
        group_exprs: &[Expr],
        aggs: &[AggExpr],
        out_schema: Schema,
        input_schema: &Schema,
    ) -> Result<Batch> {
        // A global aggregate yields exactly one row even with zero input.
        if group_exprs.is_empty() && self.keys.is_empty() {
            let row: Vec<Datum> = aggs
                .iter()
                .map(|agg| finish(init_state(agg, input_schema), &agg.func))
                .collect();
            return Batch::from_rows(out_schema, &[Row::new(row)]);
        }
        let mut cols: Vec<_> = self
            .accs
            .into_iter()
            .zip(aggs)
            .map(|(acc, agg)| acc.finish(&agg.func).into_iter())
            .collect();
        let mut out_rows: Vec<Row> = Vec::with_capacity(self.keys.len());
        for mut row in self.keys {
            row.extend(cols.iter_mut().map(|c| c.next().unwrap_or(Datum::Null)));
            out_rows.push(Row::new(row));
        }
        Batch::from_rows(out_schema, &out_rows)
    }
}

/// Hash-aggregate a batch.
///
/// `group_exprs` produce the key (empty = global aggregate, which always
/// yields exactly one row); `aggs` produce the aggregate columns. The
/// output schema is `group columns ⧺ aggregate columns` with the supplied
/// field definitions. `key_mode` is the planner's key-path decision.
///
/// Under `Encoded` (and for every global aggregate) the batch runs the
/// aggregate kernel in fixed-size chunks, the same kernel the pipeline
/// breaker runs per morsel. `Datum` group keys and `DISTINCT` aggregates,
/// whose per-chunk seen-sets cannot merge, take the partitioned `Datum`
/// scatter below.
#[allow(clippy::too_many_arguments)]
pub fn hash_aggregate(
    input: &Batch,
    group_exprs: &[Expr],
    aggs: &[AggExpr],
    out_schema: Schema,
    ctx: &EvalContext,
    key_mode: KeyMode,
    parallelism: usize,
    stats: &mut ExecStats,
) -> Result<Batch> {
    if supports_partial(aggs) && (group_exprs.is_empty() || key_mode == KeyMode::Encoded) {
        return aggregate_chunks(input, group_exprs, aggs, out_schema, ctx, parallelism, stats);
    }
    if !group_exprs.is_empty() {
        stats.datum_key_rows += input.len() as u64;
    }
    stats.agg_eval_rows += (input.len() * aggs.len()) as u64;
    // Phase 1+2 fused — each row-range morsel evaluates its group keys and
    // radix-scatters them into thread-local per-partition buckets, the
    // same recipe `hash_join::partition_side` uses. No serial pass over
    // all rows remains: the old "walk every key chunk and push it into the
    // shared partition vector" loop is replaced by handing each worker's
    // buckets to the partition owners wholesale (O(morsels · partitions)
    // pointer moves, not O(rows) copies). Each key is *moved* into its
    // bucket (and moved again into the group table below) — never cloned
    // per row.
    let n = input.len();
    let parts = if group_exprs.is_empty() {
        1
    } else {
        (n / PARTITION_ROWS + 1).next_power_of_two()
    };
    let mask = parts as u64 - 1;
    // (row index, owned group key) pairs, bucketed by key hash.
    type KeyedRows = Vec<(usize, Vec<Datum>)>;
    let ranges = pool::row_morsels(n, parallelism, 4096);
    let scatter_run = pool::run_morsels(ranges.len(), parallelism, &ctx.statement, |mi| {
        let (lo, hi) = ranges[mi];
        let mut local: Vec<KeyedRows> = (0..parts).map(|_| Vec::new()).collect();
        let mut bytes = 0u64;
        for row in lo..hi {
            let mut key = Vec::with_capacity(group_exprs.len());
            for g in group_exprs {
                key.push(g.eval(input, row, ctx)?);
            }
            let h = if parts == 1 { 0 } else { group_hash(&key) };
            bytes += std::mem::size_of::<(usize, Vec<Datum>)>() as u64
                + key.iter().map(approx_datum_bytes).sum::<u64>();
            local[(h & mask) as usize].push((row, key));
        }
        // The partition state is the aggregate's dominant allocation: each
        // worker leases its morsel's share against the statement's memory
        // budget, so a runaway grouping aborts with a classified error
        // instead of growing without bound. The lease rides with the
        // buckets in the morsel result; on a refused reservation (or any
        // sibling error) the pool drops claimed results, releasing every
        // lease by RAII.
        let mut lease = BudgetLease::new(&ctx.statement);
        lease.charge(bytes)?;
        Ok((local, lease))
    });
    let scatter_run = scatter_run.inspect_err(|e| {
        if matches!(e, DashError::ResourceExhausted(_)) {
            stats.budget_rejections += 1;
        }
    })?;
    stats.note_parallel_phase(scatter_run.morsels_dispatched, scatter_run.workers_used);
    stats.agg_scatter_morsels += scatter_run.morsels_dispatched;
    if parts > 1 {
        stats.rows_partitioned += n as u64;
    }
    // Hand each worker's buckets to the partition owners. Morsel results
    // arrive in morsel-index order and morsel ranges ascend, so partition
    // `p` sees its bucket list — and therefore its rows — in input order:
    // the group table's insertion sequence is byte-identical to the old
    // serial scatter's.
    let mut leases = Vec::with_capacity(scatter_run.results.len());
    let mut scattered: Vec<Vec<KeyedRows>> = (0..parts).map(|_| Vec::new()).collect();
    for (local, lease) in scatter_run.results {
        leases.push(lease);
        for (p, bucket) in local.into_iter().enumerate() {
            if !bucket.is_empty() {
                scattered[p].push(bucket);
            }
        }
    }

    // Phase 3 — aggregate each partition as its own morsel. Partitions
    // hold disjoint key sets and keep rows in input order, so per-partition
    // results concatenated in partition order match the serial pipeline.
    let scattered: Vec<Mutex<Vec<KeyedRows>>> = scattered.into_iter().map(Mutex::new).collect();
    let agg_run = pool::run_morsels(scattered.len(), parallelism, &ctx.statement, |p| {
        let part: Vec<(usize, Vec<Datum>)> = std::mem::take(&mut *scattered[p].lock())
            .into_iter()
            .flatten()
            .collect();
        let mut groups: FxHashMap<Vec<Datum>, Vec<AggState>> = FxHashMap::default();
        if group_exprs.is_empty() {
            // Global aggregate: one group, present even with zero rows.
            groups.insert(Vec::new(), init_states(aggs, input));
        }
        for (row, key) in part {
            let states = groups.entry(key).or_insert_with(|| init_states(aggs, input));
            for (agg, state) in aggs.iter().zip(states.iter_mut()) {
                let mut vals = Vec::with_capacity(agg.args.len());
                for a in &agg.args {
                    vals.push(a.eval(input, row, ctx)?);
                }
                update(state, &vals)?;
            }
        }
        let mut part_rows: Vec<Row> = Vec::with_capacity(groups.len());
        for (key, states) in groups {
            let mut row: Vec<Datum> = key;
            for (agg, state) in aggs.iter().zip(states) {
                row.push(finish(state, &agg.func));
            }
            part_rows.push(Row::new(row));
        }
        Ok(part_rows)
    })?;
    stats.note_parallel_phase(agg_run.morsels_dispatched, agg_run.workers_used);
    drop(leases); // partition state has been consumed — return its budget
    let mut out_rows: Vec<Row> = agg_run.results.into_iter().flatten().collect();
    // With zero input rows and a global aggregate there is one empty-key
    // group only if partitions[0] existed — ensure it.
    if group_exprs.is_empty() && out_rows.is_empty() {
        let states = init_states(aggs, input);
        let row: Vec<Datum> = aggs
            .iter()
            .zip(states)
            .map(|(agg, s)| finish(s, &agg.func))
            .collect();
        out_rows.push(Row::new(row));
    }
    Batch::from_rows(out_schema, &out_rows)
}

fn init_states(aggs: &[AggExpr], input: &Batch) -> Vec<AggState> {
    aggs.iter().map(|a| init_state(a, input.schema())).collect()
}

/// Fresh state for one aggregate over `schema`: SUM over an integer column
/// stays integer.
fn init_state(agg: &AggExpr, schema: &Schema) -> AggState {
    let is_int = match agg.args.first() {
        Some(Expr::Col(i)) => schema.field(*i).data_type.is_integer(),
        _ => false,
    };
    new_state(agg, is_int)
}

/// Merge a morsel-partial aggregate state into the running state for the
/// same group — the aggregate breaker's combine step. Counts and sums add,
/// min/max compare, percentile value sets concatenate (in fold order, so
/// the pre-sort layout is deterministic), and the moment states combine
/// with Chan et al.'s parallel update formulas. `DISTINCT` states cannot
/// merge (their per-partial seen-sets overlap); the pipeline planner gates
/// them to the materialized path, so reaching one here is an internal
/// error, not a user error.
fn merge_state(dst: &mut AggState, src: AggState) -> Result<()> {
    match (dst, src) {
        (AggState::Count(a), AggState::Count(b)) => {
            *a += b;
            Ok(())
        }
        (AggState::SumInt { sum, any }, AggState::SumInt { sum: s, any: a }) => {
            *sum = sum
                .checked_add(s)
                .ok_or_else(|| DashError::exec("SUM overflow"))?;
            *any |= a;
            Ok(())
        }
        (AggState::SumFloat { sum, any }, AggState::SumFloat { sum: s, any: a }) => {
            *sum += s;
            *any |= a;
            Ok(())
        }
        (AggState::Avg { sum, n }, AggState::Avg { sum: s, n: m }) => {
            *sum += s;
            *n += m;
            Ok(())
        }
        (AggState::MinMax { current, min }, AggState::MinMax { current: other, .. }) => {
            if let Some(v) = other {
                let replace = match current {
                    None => true,
                    Some(c) => {
                        let ord = v.sql_cmp(c);
                        if *min {
                            ord == std::cmp::Ordering::Less
                        } else {
                            ord == std::cmp::Ordering::Greater
                        }
                    }
                };
                if replace {
                    *current = Some(v);
                }
            }
            Ok(())
        }
        (AggState::Values(a), AggState::Values(b)) => {
            a.extend(b);
            Ok(())
        }
        (
            AggState::Moments { n, mean, m2 },
            AggState::Moments {
                n: n2,
                mean: mean2,
                m2: m22,
            },
        ) => {
            if n2 > 0 {
                if *n == 0 {
                    (*n, *mean, *m2) = (n2, mean2, m22);
                } else {
                    let total = *n + n2;
                    let delta = mean2 - *mean;
                    *m2 += m22 + delta * delta * (*n as f64) * (n2 as f64) / total as f64;
                    *mean += delta * (n2 as f64) / total as f64;
                    *n = total;
                }
            }
            Ok(())
        }
        (
            AggState::CoMoments { n, mx, my, cxy },
            AggState::CoMoments {
                n: n2,
                mx: mx2,
                my: my2,
                cxy: cxy2,
            },
        ) => {
            if n2 > 0 {
                if *n == 0 {
                    (*n, *mx, *my, *cxy) = (n2, mx2, my2, cxy2);
                } else {
                    let total = *n + n2;
                    let dx = mx2 - *mx;
                    let dy = my2 - *my;
                    *cxy += cxy2 + dx * dy * (*n as f64) * (n2 as f64) / total as f64;
                    *mx += dx * (n2 as f64) / total as f64;
                    *my += dy * (n2 as f64) / total as f64;
                    *n = total;
                }
            }
            Ok(())
        }
        (AggState::Distinct(..), _) => Err(DashError::internal(
            "DISTINCT aggregate reached the partial-merge path",
        )),
        _ => Err(DashError::internal(
            "mismatched aggregate partial states at merge",
        )),
    }
}

/// Can every aggregate in this list run as mergeable per-morsel partials?
/// `DISTINCT` cannot: its per-partial seen-sets overlap across morsels.
pub(crate) fn supports_partial(aggs: &[AggExpr]) -> bool {
    !aggs.iter().any(|a| a.distinct)
}

fn state_bytes(s: &AggState) -> u64 {
    let base = std::mem::size_of::<AggState>() as u64;
    match s {
        AggState::Values(v) => base + (v.len() * 8) as u64,
        AggState::Distinct(set, inner) => {
            base + set.iter().map(approx_datum_bytes).sum::<u64>() + state_bytes(inner)
        }
        _ => base,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dash_common::types::DataType;
    use dash_common::{row, Field};

    fn sales() -> Batch {
        let schema = Schema::new(vec![
            Field::new("region", DataType::Utf8),
            Field::new("amount", DataType::Int64),
            Field::new("qty", DataType::Float64),
        ])
        .unwrap();
        Batch::from_rows(
            schema,
            &[
                row!["east", 10i64, 1.0f64],
                row!["east", 20i64, 2.0f64],
                row!["west", 30i64, 3.0f64],
                row!["west", Datum::Null, 4.0f64],
                row!["west", 30i64, 5.0f64],
            ],
        )
        .unwrap()
    }

    fn ctx() -> EvalContext {
        EvalContext::default()
    }

    fn out_schema(n_groups: usize, n_aggs: usize) -> Schema {
        let mut fields = Vec::new();
        for i in 0..n_groups {
            fields.push(Field::new(format!("g{i}"), DataType::Utf8));
        }
        for i in 0..n_aggs {
            fields.push(Field::new(format!("a{i}"), DataType::Float64));
        }
        Schema::new(fields).unwrap()
    }

    fn agg1(func: AggFunc, col: usize) -> AggExpr {
        AggExpr {
            func,
            args: vec![Expr::col(col)],
            distinct: false,
        }
    }

    #[test]
    fn group_by_with_counts_and_sums() {
        let schema = Schema::new(vec![
            Field::new("region", DataType::Utf8),
            Field::new("cnt", DataType::Int64),
            Field::new("total", DataType::Int64),
        ])
        .unwrap();
        let mut stats = ExecStats::default();
        let out = hash_aggregate(
            &sales(),
            &[Expr::col(0)],
            &[
                AggExpr {
                    func: AggFunc::CountStar,
                    args: vec![],
                    distinct: false,
                },
                agg1(AggFunc::Sum, 1),
            ],
            schema,
            &ctx(),
            KeyMode::Encoded,
            1,
            &mut stats,
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        let mut rows = out.to_rows();
        rows.sort_by_key(|r| r.get(0).render());
        assert_eq!(rows[0], row!["east", 2i64, 30i64]);
        assert_eq!(rows[1], row!["west", 3i64, 60i64]);
    }

    #[test]
    fn count_ignores_nulls_count_star_does_not() {
        let mut stats = ExecStats::default();
        let out = hash_aggregate(
            &sales(),
            &[],
            &[
                AggExpr {
                    func: AggFunc::CountStar,
                    args: vec![],
                    distinct: false,
                },
                agg1(AggFunc::Count, 1),
            ],
            out_schema(0, 2),
            &ctx(),
            KeyMode::Encoded,
            1,
            &mut stats,
        )
        .unwrap();
        assert_eq!(out.row(0), row![5i64, 4i64]);
    }

    #[test]
    fn global_aggregate_on_empty_input() {
        let schema = Schema::new(vec![Field::new("x", DataType::Int64)]).unwrap();
        let empty = Batch::from_rows(schema, &[]).unwrap();
        let mut stats = ExecStats::default();
        let out = hash_aggregate(
            &empty,
            &[],
            &[
                AggExpr {
                    func: AggFunc::CountStar,
                    args: vec![],
                    distinct: false,
                },
                agg1(AggFunc::Sum, 0),
            ],
            out_schema(0, 2),
            &ctx(),
            KeyMode::Encoded,
            1,
            &mut stats,
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.row(0), row![0i64, Datum::Null]);
    }

    #[test]
    fn min_max_avg() {
        let mut stats = ExecStats::default();
        let out = hash_aggregate(
            &sales(),
            &[],
            &[agg1(AggFunc::Min, 1), agg1(AggFunc::Max, 1), agg1(AggFunc::Avg, 1)],
            out_schema(0, 3),
            &ctx(),
            KeyMode::Encoded,
            1,
            &mut stats,
        )
        .unwrap();
        let r = out.row(0);
        assert_eq!(r.get(0), &Datum::Int(10));
        assert_eq!(r.get(1), &Datum::Int(30));
        assert_eq!(r.get(2), &Datum::Float(22.5)); // (10+20+30+30)/4
    }

    #[test]
    fn distinct_aggregates() {
        let mut stats = ExecStats::default();
        let out = hash_aggregate(
            &sales(),
            &[],
            &[
                AggExpr {
                    func: AggFunc::Count,
                    args: vec![Expr::col(1)],
                    distinct: true,
                },
                AggExpr {
                    func: AggFunc::Sum,
                    args: vec![Expr::col(1)],
                    distinct: true,
                },
            ],
            out_schema(0, 2),
            &ctx(),
            KeyMode::Encoded,
            1,
            &mut stats,
        )
        .unwrap();
        assert_eq!(out.row(0), row![3i64, 60i64]); // 10, 20, 30
    }

    #[test]
    fn median_and_percentiles() {
        let mut stats = ExecStats::default();
        let out = hash_aggregate(
            &sales(),
            &[],
            &[
                agg1(AggFunc::Median, 2),
                AggExpr {
                    func: AggFunc::PercentileDisc(0.5),
                    args: vec![Expr::col(2)],
                    distinct: false,
                },
                AggExpr {
                    func: AggFunc::PercentileCont(0.25),
                    args: vec![Expr::col(2)],
                    distinct: false,
                },
            ],
            out_schema(0, 3),
            &ctx(),
            KeyMode::Encoded,
            1,
            &mut stats,
        )
        .unwrap();
        let r = out.row(0);
        assert_eq!(r.get(0), &Datum::Float(3.0)); // median of 1..5
        assert_eq!(r.get(1), &Datum::Float(3.0)); // disc 0.5 of 5 values
        assert_eq!(r.get(2), &Datum::Float(2.0)); // cont 0.25
    }

    #[test]
    fn variance_and_stddev() {
        let schema = Schema::new(vec![Field::new("x", DataType::Float64)]).unwrap();
        let b = Batch::from_rows(
            schema,
            &[row![2.0f64], row![4.0f64], row![4.0f64], row![4.0f64], row![5.0f64], row![5.0f64], row![7.0f64], row![9.0f64]],
        )
        .unwrap();
        let mut stats = ExecStats::default();
        let out = hash_aggregate(
            &b,
            &[],
            &[agg1(AggFunc::VarPop, 0), agg1(AggFunc::StdDevPop, 0), agg1(AggFunc::VarSamp, 0)],
            out_schema(0, 3),
            &ctx(),
            KeyMode::Encoded,
            1,
            &mut stats,
        )
        .unwrap();
        let r = out.row(0);
        assert!((r.get(0).as_float().unwrap() - 4.0).abs() < 1e-9);
        assert!((r.get(1).as_float().unwrap() - 2.0).abs() < 1e-9);
        assert!((r.get(2).as_float().unwrap() - 32.0 / 7.0).abs() < 1e-9);
    }

    #[test]
    fn covariance() {
        let schema = Schema::new(vec![
            Field::new("x", DataType::Float64),
            Field::new("y", DataType::Float64),
        ])
        .unwrap();
        let b = Batch::from_rows(
            schema,
            &[row![1.0f64, 2.0f64], row![2.0f64, 4.0f64], row![3.0f64, 6.0f64]],
        )
        .unwrap();
        let mut stats = ExecStats::default();
        let out = hash_aggregate(
            &b,
            &[],
            &[AggExpr {
                func: AggFunc::CovarPop,
                args: vec![Expr::col(0), Expr::col(1)],
                distinct: false,
            }],
            out_schema(0, 1),
            &ctx(),
            KeyMode::Encoded,
            1,
            &mut stats,
        )
        .unwrap();
        // cov_pop of perfectly linear y=2x over {1,2,3}: var_pop(x)*2 = (2/3)*2
        assert!((out.row(0).get(0).as_float().unwrap() - 4.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn null_group_keys_group_together() {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Utf8),
            Field::new("v", DataType::Int64),
        ])
        .unwrap();
        let b = Batch::from_rows(
            schema,
            &[row![Datum::Null, 1i64], row![Datum::Null, 2i64], row!["a", 3i64]],
        )
        .unwrap();
        let out_sch = Schema::new(vec![
            Field::new("k", DataType::Utf8),
            Field::new("s", DataType::Int64),
        ])
        .unwrap();
        let mut stats = ExecStats::default();
        let out = hash_aggregate(
            &b,
            &[Expr::col(0)],
            &[agg1(AggFunc::Sum, 1)],
            out_sch,
            &ctx(),
            KeyMode::Encoded,
            1,
            &mut stats,
        )
        .unwrap();
        assert_eq!(out.len(), 2, "NULL keys form one group");
        let null_group: Vec<Row> = out
            .to_rows()
            .into_iter()
            .filter(|r| r.get(0).is_null())
            .collect();
        assert_eq!(null_group[0].get(1), &Datum::Int(3));
    }

    #[test]
    fn name_resolution() {
        assert_eq!(AggFunc::from_name("stddev"), Some(AggFunc::StdDevPop));
        assert_eq!(AggFunc::from_name("COVARIANCE"), Some(AggFunc::CovarPop));
        assert_eq!(AggFunc::from_name("nope"), None);
        assert_eq!(AggFunc::CovarPop.arg_count(), 2);
    }

    /// Partial-aggregate `input` in `split`-row morsels, merge in order,
    /// finish — the pipeline breaker's code path in miniature.
    fn partial_pipeline(
        input: &Batch,
        split: usize,
        group_exprs: &[Expr],
        aggs: &[AggExpr],
        schema: Schema,
    ) -> Batch {
        let mut acc = AggAccumulator::new();
        let mut start = 0;
        let mut any = false;
        while start < input.len() || (!any && input.is_empty()) {
            let end = (start + split).min(input.len());
            let idx: Vec<usize> = (start..end).collect();
            let morsel = input.take(&idx);
            acc.merge(
                aggregate_morsel(&morsel, 0..morsel.len(), group_exprs, aggs, &ctx()).unwrap(),
            )
            .unwrap();
            start = end;
            any = true;
        }
        acc.finish(group_exprs, aggs, schema, input.schema())
            .unwrap()
    }

    #[test]
    fn partial_merge_matches_single_pass() {
        let input = sales();
        let aggs = vec![
            AggExpr {
                func: AggFunc::CountStar,
                args: vec![],
                distinct: false,
            },
            agg1(AggFunc::Sum, 1),
            agg1(AggFunc::Min, 1),
            agg1(AggFunc::Max, 2),
            agg1(AggFunc::Avg, 2),
        ];
        let schema = out_schema(1, 5);
        let mut stats = ExecStats::default();
        let whole = hash_aggregate(
            &input,
            &[Expr::col(0)],
            &aggs,
            schema.clone(),
            &ctx(),
            KeyMode::Encoded,
            1,
            &mut stats,
        )
        .unwrap();
        for split in [1, 2, 5] {
            let merged = partial_pipeline(&input, split, &[Expr::col(0)], &aggs, schema.clone());
            let mut a = whole.to_rows();
            let mut b = merged.to_rows();
            a.sort_by_key(|r| r.get(0).render());
            b.sort_by_key(|r| r.get(0).render());
            assert_eq!(a, b, "split={split}");
        }
    }

    #[test]
    fn partial_merge_moments_match_welford() {
        // Chan's merge formulas must reproduce the serial Welford result.
        let schema = Schema::new(vec![
            Field::new("x", DataType::Float64),
            Field::new("y", DataType::Float64),
        ])
        .unwrap();
        let rows: Vec<Row> = (0..97)
            .map(|i| {
                let x = (i as f64) * 0.37 - 11.0;
                row![x, x * 1.5 + ((i % 7) as f64)]
            })
            .collect();
        let input = Batch::from_rows(schema, &rows).unwrap();
        let aggs = vec![
            agg1(AggFunc::VarSamp, 0),
            agg1(AggFunc::StdDevPop, 0),
            AggExpr {
                func: AggFunc::CovarPop,
                args: vec![Expr::col(0), Expr::col(1)],
                distinct: false,
            },
            agg1(AggFunc::Median, 0),
        ];
        let schema = out_schema(0, 4);
        let mut stats = ExecStats::default();
        let whole = hash_aggregate(
            &input,
            &[],
            &aggs,
            schema.clone(),
            &ctx(),
            KeyMode::Encoded,
            1,
            &mut stats,
        )
        .unwrap();
        let merged = partial_pipeline(&input, 16, &[], &aggs, schema);
        for c in 0..4 {
            let (a, b) = (whole.row(0).get(c).clone(), merged.row(0).get(c).clone());
            match (a, b) {
                (Datum::Float(x), Datum::Float(y)) => {
                    assert!((x - y).abs() < 1e-9, "col {c}: {x} vs {y}")
                }
                (x, y) => assert_eq!(x, y, "col {c}"),
            }
        }
    }

    #[test]
    fn partial_global_aggregate_zero_morsels_yields_one_row() {
        let aggs = vec![
            AggExpr {
                func: AggFunc::CountStar,
                args: vec![],
                distinct: false,
            },
            agg1(AggFunc::Sum, 1),
        ];
        let acc = AggAccumulator::new();
        let input_schema = sales().schema().clone();
        let out = acc
            .finish(&[], &aggs, out_schema(0, 2), &input_schema)
            .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.row(0), row![0i64, Datum::Null]);
    }

    #[test]
    fn partial_merge_sum_overflow_is_exec_error() {
        let mut a = AggState::SumInt {
            sum: i64::MAX,
            any: true,
        };
        let err = merge_state(&mut a, AggState::SumInt { sum: 1, any: true }).unwrap_err();
        assert_eq!(err.class(), "22000");
        let mut d = new_state(&agg1(AggFunc::Sum, 0), true);
        // DISTINCT states refuse to merge: the planner must gate them out.
        let distinct = AggState::Distinct(
            HashSet::default(),
            Box::new(AggState::SumInt { sum: 0, any: false }),
        );
        assert!(matches!(
            merge_state(&mut d, distinct).unwrap_err(),
            DashError::Internal(_)
        ));
    }

    #[test]
    fn partial_keeps_first_appearance_group_order() {
        let input = sales();
        let aggs = vec![agg1(AggFunc::Sum, 1)];
        let merged = partial_pipeline(&input, 2, &[Expr::col(0)], &aggs, out_schema(1, 1));
        // east appears first in row order, then west — across morsels.
        assert_eq!(merged.row(0).get(0), &Datum::from("east"));
        assert_eq!(merged.row(1).get(0), &Datum::from("west"));
    }

    // ---- aggregate kernel: typed arms vs the generic arm, key edge cases ----

    use dash_encoding::column::ColumnValues;
    use std::sync::Arc;

    fn s(v: &str) -> Option<Arc<str>> {
        Some(Arc::from(v))
    }

    /// Key columns (str, int, float) and value columns (int, float, str)
    /// salted with NULL keys, ±0.0 and NaN, `i64::MAX`, and one group
    /// (`k_str = "nul"`) whose values are all NULL.
    fn edge_batch() -> Batch {
        let schema = Schema::new(vec![
            Field::new("k_str", DataType::Utf8),
            Field::new("k_int", DataType::Int64),
            Field::new("k_f", DataType::Float64),
            Field::new("v_int", DataType::Int64),
            Field::new("v_f", DataType::Float64),
            Field::new("v_s", DataType::Utf8),
        ])
        .unwrap();
        const N: Datum = Datum::Null;
        let (max, nan) = (i64::MAX, f64::NAN);
        let rows = [
            row!["b", max, -0.0f64, 5i64, -0.0f64, "x"],
            row![N, N, 0.0f64, -7i64, 2.5f64, N],
            row!["nul", 3i64, nan, N, N, N],
            row!["a", max, N, max, nan, "y"],
            row!["b", -1i64, -nan, 2i64, 1.0f64, "z"],
            row![N, 3i64, 1.5f64, N, -4.0f64, "w"],
            row!["nul", N, 0.0f64, N, N, N],
            row!["a", 0i64, N, -3i64, 0.5f64, N],
            row!["b", max, 1.5f64, N, 0.0f64, "x"],
        ];
        Batch::from_rows(schema, &rows).unwrap()
    }

    fn render(acc: Result<Acc>, func: &AggFunc) -> Result<Vec<String>> {
        acc.map(|a| a.finish(func).iter().map(|d| format!("{d:?}")).collect())
    }

    /// The typed arm's and the generic arm's finished columns for `agg`
    /// over `input` grouped by `group` (`{:?}`-rendered, so -0.0 and NaN
    /// differences show).
    fn both_arms(
        input: &Batch,
        group: &[Expr],
        agg: &AggExpr,
    ) -> (Result<Vec<String>>, Result<Vec<String>>) {
        let mut stats = ExecStats::default();
        let g = group_rows(input, 0, input.len(), group, &ctx(), &mut stats).unwrap();
        let ng = g.keys.len();
        let typed = typed_acc(agg, input, 0, input.len(), &g.ids, ng)
            .map(|a| a.unwrap_or_else(|| panic!("{agg:?} has no typed arm")));
        let generic = generic_acc(agg, input, 0, &g.ids, ng, &ctx());
        (render(typed, &agg.func), render(generic, &agg.func))
    }

    fn typed_aggs() -> Vec<AggExpr> {
        let mut aggs = vec![AggExpr {
            func: AggFunc::CountStar,
            args: vec![],
            distinct: false,
        }];
        for c in [3, 4, 5] {
            aggs.push(agg1(AggFunc::Count, c));
        }
        for c in [3, 4] {
            for f in [AggFunc::Sum, AggFunc::Avg, AggFunc::Min, AggFunc::Max] {
                aggs.push(agg1(f, c));
            }
        }
        aggs
    }

    #[test]
    fn typed_arms_match_generic_arm() {
        let full = edge_batch();
        // Drop the i64::MAX value row so integer SUM does not overflow.
        let input = full.take(&[0, 1, 2, 4, 5, 6, 7, 8]);
        let empty = full.take(&[]);
        let groups: Vec<Vec<Expr>> = vec![
            vec![],
            vec![Expr::col(0)],
            vec![Expr::col(1)],
            vec![Expr::col(2)],
            vec![Expr::col(0), Expr::col(1), Expr::col(2)],
        ];
        for batch in [&input, &empty] {
            for group in &groups {
                for agg in typed_aggs() {
                    let (typed, generic) = both_arms(batch, group, &agg);
                    assert_eq!(
                        typed.unwrap(),
                        generic.unwrap(),
                        "{agg:?} grouped by {group:?} over {} rows",
                        batch.len()
                    );
                }
            }
        }
        // Both arms raise the integer SUM overflow.
        let (typed, generic) = both_arms(&full, &[Expr::col(0)], &agg1(AggFunc::Sum, 3));
        assert!(
            typed.is_ok() && generic.is_ok(),
            "one i64::MAX per group fits"
        );
        let twice = full.take(&[3, 3]);
        let (typed, generic) = both_arms(&twice, &[], &agg1(AggFunc::Sum, 3));
        assert_eq!(typed.unwrap_err().class(), "22000");
        assert_eq!(generic.unwrap_err().class(), "22000");
    }

    #[test]
    fn all_null_groups_finish_null() {
        // Group "nul" (first seen at row 2) has only NULL values.
        let input = edge_batch();
        for func in [AggFunc::Sum, AggFunc::Avg, AggFunc::Min, AggFunc::Max] {
            for c in [3, 4] {
                let (typed, _) = both_arms(&input, &[Expr::col(0)], &agg1(func.clone(), c));
                assert_eq!(typed.unwrap()[2], "Null", "{func:?} over column {c}");
            }
        }
    }

    fn group_keys(input: &Batch, group: &[Expr]) -> (Vec<u32>, Vec<Vec<Datum>>) {
        let mut stats = ExecStats::default();
        let g = group_rows(input, 0, input.len(), group, &ctx(), &mut stats).unwrap();
        (g.ids, g.keys)
    }

    #[test]
    fn null_keys_group_at_first_appearance() {
        let input = edge_batch();
        let (ids, keys) = group_keys(&input, &[Expr::col(0)]);
        assert_eq!(ids, vec![0, 1, 2, 3, 0, 1, 2, 3, 0]);
        assert_eq!(keys[1], vec![Datum::Null]);
        let (ids, keys) = group_keys(&input, &[Expr::col(1)]);
        assert_eq!(ids, vec![0, 1, 2, 0, 3, 2, 1, 4, 0]);
        assert_eq!(keys[1], vec![Datum::Null]);
        let (ids, keys) = group_keys(&input, &[Expr::col(2)]);
        assert_eq!(ids[3], 2, "NULL float key is the third group");
        assert_eq!(keys[2], vec![Datum::Null]);
    }

    #[test]
    fn float_keys_fold_signed_zero_and_nan() {
        let input = edge_batch();
        let (ids, keys) = group_keys(&input, &[Expr::col(2)]);
        // -0.0/0.0 one group (first seen as -0.0), every NaN one group.
        assert_eq!(ids, vec![0, 0, 1, 2, 1, 3, 0, 2, 3]);
        assert_eq!(format!("{:?}", keys[0][0]), "Float(-0.0)");
        // The same identity holds when the groups meet in the merge.
        let aggs = [agg1(AggFunc::Count, 3)];
        let schema = Schema::new(vec![
            Field::new("k", DataType::Float64),
            Field::new("n", DataType::Int64),
        ])
        .unwrap();
        let merged = partial_pipeline(&input, 1, &[Expr::col(2)], &aggs, schema);
        assert_eq!(merged.len(), 4);
    }

    #[test]
    fn int_max_key_beside_string_miss() {
        // No dictionary: every string is a miss, whose sentinel word is
        // the word i64::MAX encodes to. They must stay apart.
        let input = edge_batch();
        let group = [Expr::col(1), Expr::col(5)];
        let (ids, keys) = group_keys(&input, &group);
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5, 1, 6, 0]);
        assert_eq!(keys[0], vec![Datum::Int(i64::MAX), Datum::from("x")]);
        let aggs = [agg1(AggFunc::Sum, 3)];
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("s", DataType::Utf8),
            Field::new("sum", DataType::Int64),
        ])
        .unwrap();
        let run = |mode| {
            let mut stats = ExecStats::default();
            let mut rows = hash_aggregate(
                &input,
                &group,
                &aggs,
                schema.clone(),
                &ctx(),
                mode,
                1,
                &mut stats,
            )
            .unwrap()
            .to_rows();
            rows.sort_by_key(|r| format!("{r:?}"));
            (rows, stats.encoded_key_rows)
        };
        let (encoded, encoded_rows) = run(KeyMode::Encoded);
        assert_eq!(encoded, run(KeyMode::Datum).0);
        assert_eq!(encoded.len(), 7);
        assert_eq!(encoded_rows, 9);
    }

    #[test]
    fn dictionary_and_out_of_dictionary_strings_group_apart() {
        let schema = Schema::new(vec![Field::new("k", DataType::Utf8)]).unwrap();
        let in_dict: Vec<Arc<str>> = vec![Arc::from("a"), Arc::from("b")];
        let dict = Arc::new(dash_encoding::FreqDict::build(
            &dash_encoding::histogram::Histogram::from_values(in_dict.iter().map(Some)),
        ));
        // Dictionary strings (shared Arcs, as scan decode hands them out),
        // fresh Arcs of dictionary strings, and strings outside it.
        let vals = vec![
            Some(in_dict[0].clone()),
            s("c"),
            Some(in_dict[1].clone()),
            s("a"),
            s("c"),
            Some(in_dict[0].clone()),
            None,
            s("d"),
        ];
        let mut input = Batch::new(schema, vec![ColumnValues::Str(vals)]).unwrap();
        input.set_str_dict(0, dict);
        let (ids, keys) = group_keys(&input, &[Expr::col(0)]);
        assert_eq!(ids, vec![0, 1, 2, 0, 1, 0, 3, 4]);
        assert_eq!(keys[1], vec![Datum::from("c")]);
    }

    #[test]
    fn distinct_arcs_of_one_string_share_a_group() {
        let schema = Schema::new(vec![Field::new("k", DataType::Utf8)]).unwrap();
        let a: Arc<str> = Arc::from("same");
        let vals = vec![Some(a.clone()), s("same"), Some(a), s("same"), s("other")];
        let input = Batch::new(schema, vec![ColumnValues::Str(vals)]).unwrap();
        let (ids, _) = group_keys(&input, &[Expr::col(0)]);
        assert_eq!(ids, vec![0, 0, 0, 0, 1]);
    }

    #[test]
    fn empty_morsel_and_zero_row_global_aggregate() {
        let empty = sales().take(&[]);
        let aggs = [
            AggExpr {
                func: AggFunc::CountStar,
                args: vec![],
                distinct: false,
            },
            agg1(AggFunc::Sum, 1),
            agg1(AggFunc::Max, 2),
        ];
        let grouped =
            aggregate_morsel(&empty, 0..empty.len(), &[Expr::col(0)], &aggs, &ctx()).unwrap();
        assert!(grouped.keys.is_empty());
        assert_eq!(grouped.stats.agg_typed_rows, 0);
        let global = aggregate_morsel(&empty, 0..empty.len(), &[], &aggs, &ctx()).unwrap();
        assert_eq!(
            global.keys,
            vec![Vec::<Datum>::new()],
            "a global morsel always has its group"
        );
        let out = partial_pipeline(&empty, 4, &[], &aggs, out_schema(0, 3));
        assert_eq!(out.to_rows(), vec![row![0i64, Datum::Null, Datum::Null]]);
        let out = partial_pipeline(&empty, 4, &[Expr::col(0)], &aggs, out_schema(1, 3));
        assert!(out.is_empty());
    }

    #[test]
    fn kernel_counts_typed_and_eval_rows() {
        let input = sales();
        let mut aggs = vec![agg1(AggFunc::Sum, 1), agg1(AggFunc::Avg, 2)];
        let p = aggregate_morsel(&input, 0..input.len(), &[Expr::col(0)], &aggs, &ctx()).unwrap();
        assert_eq!((p.stats.agg_typed_rows, p.stats.agg_eval_rows), (10, 0));
        // String MIN and percentiles take the generic arm.
        aggs.push(agg1(AggFunc::Min, 0));
        aggs.push(agg1(AggFunc::Median, 2));
        let p = aggregate_morsel(&input, 0..input.len(), &[Expr::col(0)], &aggs, &ctx()).unwrap();
        assert_eq!((p.stats.agg_typed_rows, p.stats.agg_eval_rows), (10, 10));
        assert_eq!(p.stats.encoded_key_rows, 5);
    }
}
