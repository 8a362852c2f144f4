//! Query-wide pipelined morsel scheduler.
//!
//! The materialized executor in [`crate::plan`] runs one operator at a
//! time: the scan materializes every surviving row, then the join consumes
//! that batch, then the aggregate consumes the join's output. Peak memory
//! is O(largest intermediate result) even though each row is only touched
//! once per operator.
//!
//! This module decomposes a plan into **pipelines** broken at pipeline
//! breakers — hash-join builds, the aggregate merge, and the sort seal —
//! and drives each non-breaker chain one *morsel* at a time: a scan stride
//! flows through filter → project → join-probe → aggregate-partial as one
//! unit of work while other strides are in other stages. Build sides
//! complete (materialized, via the ordinary executor) before their probe
//! pipeline starts; morsel results fold **in morsel-index order** at the
//! sink, so the output is byte-identical at any parallelism:
//!
//! * probe output is probe-row-major within each morsel ([`JoinBuild`]),
//! * aggregate groups surface in first-appearance order across the
//!   in-order fold — the serial scan's first-appearance order,
//! * partial states merge with order-insensitive combines (sums, min/max,
//!   Chan's moment formulas), so any morsel split yields the same finals.
//!
//! Peak memory drops to O(morsels in flight): the scheduler admits at most
//! `DASH_PIPELINE_INFLIGHT` unfolded morsels (default `parallelism * 4`),
//! each carrying a [`BudgetLease`] for its bytes, and the statement's
//! deadline/cancellation token is checked at every pipeline step.

use crate::agg::{self, AggAccumulator, AggExpr};
use crate::batch::Batch;
use crate::expr::Expr;
use crate::functions::EvalContext;
use crate::join::{JoinBuild, JoinType};
use crate::key::KeyMode;
use crate::plan::{self, PhysicalPlan, SharedTable};
use crate::pool;
use crate::scan::ScanConfig;
use crate::scan::ScanSource;
use crate::sort::{sort_batch, SortKey, SortOptions};
use crate::stats::ExecStats;
use dash_common::{BudgetLease, Result, Schema};

/// Pipeline-scheduler knobs, resolved from `DASH_PIPELINE` /
/// `DASH_PIPELINE_INFLIGHT` by autoconfiguration and carried on the
/// [`EvalContext`].
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// Run pipelineable plans through the morsel scheduler (`true` unless
    /// `DASH_PIPELINE=off`). Disabled plans use the materialized executor.
    pub enabled: bool,
    /// Max morsels simultaneously claimed-but-unfolded per pipeline drive;
    /// `0` = auto (`parallelism * 4`). This bounds the pipelined peak
    /// memory at O(window · morsel bytes).
    pub inflight: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            enabled: true,
            inflight: 0,
        }
    }
}

/// The structural decomposition of a pipelineable plan, borrowed from the
/// plan tree. Built without executing anything, so an unsupported shape
/// falls back to the materialized executor at zero cost.
struct ChainShape<'p> {
    table: &'p SharedTable,
    config: &'p ScanConfig,
    /// Non-breaker operators in source→sink order.
    raw_ops: Vec<RawOp<'p>>,
    agg: Option<AggShape<'p>>,
    /// Whole-result operators above the aggregate (projections mapping the
    /// agg output to the select list, the sealing sort), in top-down plan
    /// order; applied to the folded result bottom-up.
    post: Vec<PostOp<'p>>,
    /// Widest parallelism any node in the chain requested.
    parallelism: usize,
}

/// A whole-result operator applied after the morsel fold.
enum PostOp<'p> {
    Project {
        exprs: &'p [Expr],
        schema: &'p Schema,
    },
    Sort(SortShape<'p>),
}

enum RawOp<'p> {
    Filter(&'p Expr),
    Project {
        exprs: &'p [Expr],
        schema: &'p Schema,
    },
    /// Hash-join probe; `build` is the plan of the build (right) side,
    /// executed to completion before the probe pipeline is released.
    Probe {
        build: &'p PhysicalPlan,
        on: &'p [(usize, usize)],
        join_type: JoinType,
        key_mode: KeyMode,
        parallelism: usize,
    },
}

struct AggShape<'p> {
    group: &'p [Expr],
    aggs: &'p [AggExpr],
    schema: &'p Schema,
}

struct SortShape<'p> {
    keys: &'p [SortKey],
    opts: SortOptions,
}

/// Decompose `plan` into a pipeline chain, or `None` when any node cannot
/// stream (Values/Union/Distinct/RowNumber/CrossJoin/ConnectBy sources,
/// DISTINCT aggregates, or a Sort/Aggregate buried mid-chain). The planner
/// emits select-list projections *above* the aggregate; those (and the
/// sealing sort) become whole-result post ops rather than morsel stages.
fn decompose(plan: &PhysicalPlan) -> Option<ChainShape<'_>> {
    let mut node = plan;
    let mut parallelism = 1usize;
    // Collect the Sort/Project prefix above the aggregate, top-down. At
    // most one sort: a second one means a shape we don't stream.
    let mut post: Vec<PostOp<'_>> = Vec::new();
    loop {
        match node {
            PhysicalPlan::Sort {
                input,
                keys,
                limit,
                offset,
                parallelism: par,
                run_rows,
            } if !post.iter().any(|p| matches!(p, PostOp::Sort(_))) => {
                post.push(PostOp::Sort(SortShape {
                    keys,
                    opts: SortOptions {
                        limit: *limit,
                        offset: *offset,
                        parallelism: *par,
                        run_rows: *run_rows,
                    },
                }));
                parallelism = parallelism.max(*par);
                node = input;
            }
            PhysicalPlan::Project {
                input,
                exprs,
                schema,
            } => {
                post.push(PostOp::Project { exprs, schema });
                node = input;
            }
            _ => break,
        }
    }
    let mut aggshape = None;
    if let PhysicalPlan::HashAggregate {
        input,
        group,
        aggs,
        schema,
        parallelism: par,
        ..
    } = node
    {
        // DISTINCT aggregates cannot merge per-morsel partials (their
        // seen-sets overlap across morsels) — materialized path only.
        if !agg::supports_partial(aggs) {
            return None;
        }
        aggshape = Some(AggShape {
            group,
            aggs,
            schema,
        });
        parallelism = parallelism.max(*par);
        node = input;
    }
    let mut raw_ops = Vec::new();
    if aggshape.is_none() {
        // No aggregate under the prefix: projections below the sort feed it
        // row-at-a-time, so they stream per morsel instead of running as
        // whole-result post ops.
        let split = post
            .iter()
            .rposition(|p| matches!(p, PostOp::Sort(_)))
            .map_or(0, |i| i + 1);
        for p in post.drain(split..) {
            if let PostOp::Project { exprs, schema } = p {
                raw_ops.push(RawOp::Project { exprs, schema });
            }
        }
    }
    let (table, config) = loop {
        match node {
            PhysicalPlan::Filter { input, predicate } => {
                raw_ops.push(RawOp::Filter(predicate));
                node = input;
            }
            PhysicalPlan::Project {
                input,
                exprs,
                schema,
            } => {
                raw_ops.push(RawOp::Project { exprs, schema });
                node = input;
            }
            PhysicalPlan::HashJoin {
                left,
                right,
                on,
                join_type,
                key_mode,
                parallelism: par,
            } => {
                raw_ops.push(RawOp::Probe {
                    build: right,
                    on,
                    join_type: *join_type,
                    key_mode: *key_mode,
                    parallelism: *par,
                });
                parallelism = parallelism.max(*par);
                node = left;
            }
            PhysicalPlan::ColumnScan { table, config } => break (table, config),
            _ => return None,
        }
    };
    parallelism = parallelism.max(config.parallelism);
    raw_ops.reverse(); // source → sink
    Some(ChainShape {
        table,
        config,
        raw_ops,
        agg: aggshape,
        post,
        parallelism,
    })
}

/// A frozen per-morsel operator (build sides already executed).
enum Op<'p> {
    Filter(&'p Expr),
    Project {
        exprs: &'p [Expr],
        schema: &'p Schema,
    },
    Probe(Box<JoinBuild>),
}

/// What one morsel produced, plus its stats and the budget lease covering
/// its bytes while it waits for (or undergoes) the in-order fold.
struct MorselItem {
    payload: Payload,
    stats: ExecStats,
    lease: BudgetLease,
}

enum Payload {
    Batch(Batch),
    Partial(agg::AggPartial),
}

/// Try to run `plan` through the pipeline scheduler. `None` means the
/// shape is not pipelineable (or the scheduler is disabled) and the caller
/// should use the materialized executor. `Some(Err(..))` is a real
/// execution error — no silent fallback after work has started.
pub(crate) fn try_execute(
    plan: &PhysicalPlan,
    ctx: &EvalContext,
) -> Option<Result<(Batch, ExecStats)>> {
    if !ctx.pipeline.enabled {
        return None;
    }
    let shape = decompose(plan)?;
    Some(run_chain(shape, ctx))
}

fn run_chain(shape: ChainShape<'_>, ctx: &EvalContext) -> Result<(Batch, ExecStats)> {
    let mut stats = ExecStats::default();
    let parallelism = shape.parallelism.max(1);

    // Freeze the chain: execute every build side (a pipeline breaker each)
    // before its probe joins the per-morsel path. Build sides recurse
    // through `plan::execute`, so a pipelineable build side runs its own
    // pipeline.
    let guard = shape.table.read();
    let source = ScanSource::new(&guard, shape.config)?;
    stats += source.base_stats();
    let mut schema = source.out_schema().clone();
    let mut breakers = 0u64;
    let mut ops: Vec<Op<'_>> = Vec::with_capacity(shape.raw_ops.len());
    for raw in &shape.raw_ops {
        match raw {
            RawOp::Filter(p) => ops.push(Op::Filter(p)),
            RawOp::Project { exprs, schema: s } => {
                ops.push(Op::Project { exprs, schema: s });
                schema = (*s).clone();
            }
            RawOp::Probe {
                build,
                on,
                join_type,
                key_mode,
                parallelism: jp,
            } => {
                let (built, bstats) = plan::execute(build, ctx)?;
                stats += bstats;
                breakers += 1;
                let jb = JoinBuild::new(
                    built,
                    &schema,
                    on.to_vec(),
                    *join_type,
                    *key_mode,
                    *jp,
                    &ctx.statement,
                    &mut stats,
                )?;
                schema = jb.out_schema().clone();
                ops.push(Op::Probe(Box::new(jb)));
            }
        }
    }
    // The build-side recursion sets rows_out for its own root; the
    // pipeline's caller overwrites it with the final row count.
    stats.rows_out = 0;
    // Frozen build tables stay resident for the whole morsel drive, so
    // they are part of the pipelined peak alongside in-flight morsels.
    let build_held: u64 = ops
        .iter()
        .map(|op| match op {
            Op::Probe(jb) => jb.held_bytes(),
            _ => 0,
        })
        .sum();

    let window = if ctx.pipeline.inflight == 0 {
        parallelism * 4
    } else {
        ctx.pipeline.inflight
    };
    let n = source.morsel_count();

    let work = |mi: usize| -> Result<MorselItem> {
        let (mut batch, mut mstats) = source.morsel(mi, ctx)?;
        for op in &ops {
            // Deadline/cancel observed at every pipeline step, not just at
            // morsel boundaries.
            ctx.statement.check()?;
            batch = apply_op(op, batch, ctx, &mut mstats)?;
        }
        let mut lease = BudgetLease::new(&ctx.statement);
        let payload = match &shape.agg {
            Some(a) => {
                let partial =
                    agg::aggregate_morsel(&batch, 0..batch.len(), a.group, a.aggs, ctx)?;
                lease.charge(partial.approx_bytes()).inspect_err(|_| {
                    mstats.budget_rejections += 1;
                })?;
                Payload::Partial(partial)
            }
            None => {
                lease.charge(batch.approx_bytes()).inspect_err(|_| {
                    mstats.budget_rejections += 1;
                })?;
                Payload::Batch(batch)
            }
        };
        Ok(MorselItem {
            payload,
            stats: mstats,
            lease,
        })
    };
    let bytes_of = |item: &MorselItem| item.lease.held().max(1);

    let mut collected: Vec<Batch> = Vec::new();
    let mut leases: Vec<BudgetLease> = Vec::new();
    let mut acc = AggAccumulator::new();
    let mut fold_stats = ExecStats::default();
    let run = pool::run_morsels_fold(
        n,
        parallelism,
        window,
        &ctx.statement,
        work,
        bytes_of,
        |_mi, item: MorselItem| {
            fold_stats += item.stats;
            match item.payload {
                Payload::Batch(b) => {
                    collected.push(b);
                    // Collected output is still resident: its lease lives
                    // until the concat at pipeline end.
                    leases.push(item.lease);
                }
                // The partial merges into the accumulator and its lease
                // releases as the item drops here.
                Payload::Partial(p) => {
                    acc.merge(p)?;
                    fold_stats.peak_inflight_bytes =
                        fold_stats.peak_inflight_bytes.max(acc.approx_bytes());
                }
            }
            Ok(())
        },
    )?;
    stats += fold_stats;
    stats.note_parallel_phase(run.morsels_dispatched, run.workers_used);
    stats.peak_inflight_morsels = stats.peak_inflight_morsels.max(run.peak_inflight_morsels);
    stats.peak_inflight_bytes = stats
        .peak_inflight_bytes
        .max(run.peak_inflight_bytes + build_held);
    let post_sorts = shape
        .post
        .iter()
        .filter(|p| matches!(p, PostOp::Sort(_)))
        .count() as u64;
    stats.pipelines_run += 1;
    stats.pipeline_breakers += breakers + u64::from(shape.agg.is_some()) + post_sorts;

    let mut batch = match shape.agg {
        Some(a) => {
            stats += acc.stats;
            acc.finish(a.group, a.aggs, a.schema.clone(), &schema)?
        }
        None => Batch::concat_columnar(schema, collected)?,
    };
    drop(leases);
    // Whole-result operators above the fold, applied bottom-up: the
    // select-list projection over the agg output, then the sealing sort.
    for p in shape.post.iter().rev() {
        match p {
            PostOp::Project { exprs, schema } => {
                batch = project_batch(&batch, exprs, schema, ctx)?;
            }
            PostOp::Sort(s) => {
                batch = sort_batch(&batch, s.keys, &s.opts, ctx, &mut stats)?;
            }
        }
    }
    Ok((batch, stats))
}

/// Evaluate a projection over a whole batch (shared by the per-morsel
/// [`Op::Project`] stage and post-fold select-list projections).
fn project_batch(batch: &Batch, exprs: &[Expr], schema: &Schema, ctx: &EvalContext) -> Result<Batch> {
    let mut rows: Vec<dash_common::Row> = Vec::with_capacity(batch.len());
    for row in 0..batch.len() {
        let mut vals = Vec::with_capacity(exprs.len());
        for e in exprs {
            vals.push(e.eval(batch, row, ctx)?);
        }
        rows.push(dash_common::Row::new(vals));
    }
    let rows: Result<Vec<dash_common::Row>> = rows.into_iter().map(|r| r.coerce(schema)).collect();
    Batch::from_rows(schema.clone(), &rows?)
}

/// Apply one non-breaker operator to a morsel's batch (serial within the
/// morsel — the pipeline's parallelism is across morsels).
fn apply_op(
    op: &Op<'_>,
    batch: Batch,
    ctx: &EvalContext,
    mstats: &mut ExecStats,
) -> Result<Batch> {
    match op {
        Op::Filter(predicate) => {
            let mut keep = Vec::new();
            for row in 0..batch.len() {
                if predicate.eval_predicate(&batch, row, ctx)? {
                    keep.push(row);
                }
            }
            Ok(batch.take(&keep))
        }
        Op::Project { exprs, schema } => project_batch(&batch, exprs, schema, ctx),
        Op::Probe(build) => build.probe_morsel(&batch, &ctx.statement, mstats),
    }
}

/// Render the pipeline decomposition of `plan` for EXPLAIN, or `None`
/// when the plan would run on the materialized executor. One line per
/// pipeline, numbered in execution order (build sides first).
pub fn describe(plan: &PhysicalPlan) -> Option<Vec<String>> {
    decompose(plan)?;
    let mut lines = Vec::new();
    let mut next = 0usize;
    describe_into(plan, &mut lines, &mut next);
    Some(lines)
}

fn describe_into(plan: &PhysicalPlan, lines: &mut Vec<String>, next: &mut usize) {
    let Some(shape) = decompose(plan) else {
        let id = *next;
        *next += 1;
        lines.push(format!("pipeline {id}: materialize {}", node_label(plan)));
        return;
    };
    // Build sides run first, each as its own pipeline (or materialized
    // sub-plan).
    for raw in &shape.raw_ops {
        if let RawOp::Probe { build, .. } = raw {
            describe_into(build, lines, next);
        }
    }
    let id = *next;
    *next += 1;
    let mut stages = vec![format!("scan {}", shape.table.read().name())];
    for raw in &shape.raw_ops {
        stages.push(match raw {
            RawOp::Filter(_) => "filter".to_string(),
            RawOp::Project { .. } => "project".to_string(),
            RawOp::Probe { join_type, .. } => format!("probe[{join_type:?}]"),
        });
    }
    if shape.agg.is_some() {
        stages.push("agg-partial".to_string());
    }
    let mut line = format!("pipeline {id}: {}", stages.join("→"));
    let mut sinks = Vec::new();
    if shape.agg.is_some() {
        sinks.push("agg merge");
    }
    for p in shape.post.iter().rev() {
        sinks.push(match p {
            PostOp::Project { .. } => "project",
            PostOp::Sort(_) => "sort seal",
        });
    }
    if !sinks.is_empty() {
        line.push_str(&format!(" ⇒ {}", sinks.join(" ⇒ ")));
    }
    lines.push(line);
}

fn node_label(plan: &PhysicalPlan) -> &'static str {
    match plan {
        PhysicalPlan::ColumnScan { .. } => "ColumnScan",
        PhysicalPlan::Values { .. } => "Values",
        PhysicalPlan::Filter { .. } => "Filter",
        PhysicalPlan::Project { .. } => "Project",
        PhysicalPlan::HashJoin { .. } => "HashJoin",
        PhysicalPlan::HashAggregate { .. } => "HashAggregate",
        PhysicalPlan::Sort { .. } => "Sort",
        PhysicalPlan::UnionAll { .. } => "UnionAll",
        PhysicalPlan::Distinct { .. } => "Distinct",
        PhysicalPlan::RowNumber { .. } => "RowNumber",
        PhysicalPlan::CrossJoin { .. } => "CrossJoin",
        PhysicalPlan::ConnectBy { .. } => "ConnectBy",
    }
}
