//! Request routing and the batched predict/impute/check handlers.
//!
//! Every data-plane handler follows one shape: parse the JSON body, build
//! a request-local [`Table`] against the serving schema, open a
//! [`CompiledIndex`] over the pinned serving set's rules, its interval
//! plan (built once per set) and that table, then walk the batch under
//! the request's [`Budget`]/[`CancelToken`] — a tripped deadline or
//! cancellation stops the walk and the answered prefix is returned with
//! `complete: false`, so slow batches degrade instead of hanging.

use crate::http::{Request, Response};
use crate::store::{RuleStore, ServingSet, SwapError};
use crate::ServeError;
use crr_core::CompiledIndex;
use crr_data::{AttrType, Table, Value};
use crr_discovery::{Budget, CancelToken, DiscoveryOutcome};
use crr_obs::json::{self, Json};
use crr_obs::{Counter, MetricsSink};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many batch rows are answered between budget/cancellation checks.
const ROWS_PER_BUDGET_CHECK: usize = 32;

/// Everything one admitted request's handler needs.
pub(crate) struct RequestCtx<'a> {
    pub store: &'a RuleStore,
    pub metrics: &'a MetricsSink,
    /// Request-scoped token, fired by fault injection.
    pub cancel: CancelToken,
    /// Server-wide token, fired by shutdown so in-flight batches finish
    /// early as partial answers.
    pub server_cancel: CancelToken,
    /// When the request was admitted — the deadline measures from here,
    /// so handler stalls (including injected ones) count against it.
    pub started: Instant,
    /// Default per-request deadline; the body's `deadline_ms` may lower
    /// (never raise) the server cap.
    pub default_deadline: Duration,
    /// Hard cap any request-supplied deadline is clamped to.
    pub max_deadline: Duration,
}

/// Routes one parsed request to its handler.
pub(crate) fn route(req: &Request, ctx: &RequestCtx<'_>) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/health") => health(ctx),
        ("GET", "/metrics") => Response::json(200, ctx.metrics.snapshot().to_json(0)),
        ("POST", "/v1/predict") => batch(req, ctx, BatchKind::Predict),
        ("POST", "/v1/impute") => batch(req, ctx, BatchKind::Impute),
        ("POST", "/v1/check") => batch(req, ctx, BatchKind::Check),
        ("POST", "/admin/swap") => swap(req, ctx),
        ("GET" | "POST", _) => Response::error(404, &format!("no such endpoint: {}", req.path)),
        _ => Response::error(405, &format!("unsupported method: {}", req.method)),
    }
}

fn health(ctx: &RequestCtx<'_>) -> Response {
    let set = ctx.store.current();
    Response::json(
        200,
        format!(
            "{{\"status\": \"ok\", \"generation\": {}, \"rules\": {}}}",
            set.generation,
            set.artifact.rules.len()
        ),
    )
}

fn swap(req: &Request, ctx: &RequestCtx<'_>) -> Response {
    let Ok(text) = std::str::from_utf8(&req.body) else {
        ctx.metrics.incr(Counter::ServeSwapRejected);
        return Response::error(400, "swap body is not utf-8");
    };
    match ctx.store.try_swap_text(text) {
        Ok(set) => Response::json(
            200,
            format!(
                "{{\"swapped\": true, \"generation\": {}, \"rules\": {}}}",
                set.generation,
                set.artifact.rules.len()
            ),
        ),
        Err(ServeError::Swap(e)) => {
            let mut body = format!(
                "{{\"swapped\": false, \"error\": \"{}\"",
                json::esc(&e.reason())
            );
            if let SwapError::Unsound(report) = &e {
                body.push_str(", \"findings\": [");
                for (i, f) in report.findings.iter().enumerate() {
                    if i > 0 {
                        body.push_str(", ");
                    }
                    let _ = write!(
                        body,
                        "{{\"severity\": \"{}\", \"check\": \"{}\", \"message\": \"{}\"}}",
                        f.severity.label(),
                        f.check.label(),
                        json::esc(&f.message)
                    );
                }
                body.push(']');
            }
            body.push('}');
            Response::json(422, body)
        }
        Err(e) => Response::error(500, &e.to_string()),
    }
}

#[derive(Clone, Copy, PartialEq)]
enum BatchKind {
    Predict,
    Impute,
    Check,
}

/// The parsed common batch body.
struct BatchInput {
    table: Table,
    deadline: Duration,
}

fn parse_batch(
    req: &Request,
    ctx: &RequestCtx<'_>,
    set: &ServingSet,
) -> Result<BatchInput, String> {
    let text = std::str::from_utf8(&req.body).map_err(|_| "body is not utf-8".to_string())?;
    let doc = json::parse(text)?;
    let rows = doc
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or_else(|| "body lacks a \"rows\" array".to_string())?;
    let deadline = match doc.get("deadline_ms") {
        None => ctx.default_deadline,
        Some(v) => {
            let ms = v
                .as_num()
                .filter(|x| x.is_finite() && *x >= 0.0)
                .ok_or_else(|| "\"deadline_ms\" must be a non-negative number".to_string())?;
            Duration::from_millis(ms as u64).min(ctx.max_deadline)
        }
    };
    let schema = &set.artifact.schema;
    let mut table = Table::new(schema.clone());
    for (i, row) in rows.iter().enumerate() {
        let cells = row
            .as_arr()
            .ok_or_else(|| format!("row {i} is not an array"))?;
        if cells.len() != schema.len() {
            return Err(format!(
                "row {i} has {} cells, schema has {} attributes",
                cells.len(),
                schema.len()
            ));
        }
        let mut values = Vec::with_capacity(cells.len());
        for (cell, (id, attr)) in cells.iter().zip(schema.iter()) {
            values.push(
                decode_cell(cell, attr.ty())
                    .map_err(|e| format!("row {i}, attribute {} (#{}): {e}", attr.name(), id.0))?,
            );
        }
        table
            .push_row(values)
            .map_err(|e| format!("row {i}: {e}"))?;
    }
    Ok(BatchInput { table, deadline })
}

fn decode_cell(cell: &Json, ty: AttrType) -> Result<Value, String> {
    match (cell, ty) {
        (Json::Null, _) => Ok(Value::Null),
        (Json::Num(x), AttrType::Int) => {
            // i64 holds [-2^63, 2^63); `as` would saturate 2^63 silently.
            const TWO_63: f64 = 9_223_372_036_854_775_808.0;
            if x.fract() == 0.0 && (-TWO_63..TWO_63).contains(x) {
                Ok(Value::Int(*x as i64))
            } else {
                Err(format!("expected an integer, got {x}"))
            }
        }
        (Json::Num(x), AttrType::Float) => Ok(Value::Float(*x)),
        (Json::Str(s), AttrType::Str) => Ok(Value::str(s)),
        (got, want) => Err(format!("expected a {want} value, got {got:?}")),
    }
}

/// Walks the batch under the request budget. `answer` is called once per
/// row while the budget holds; returns how the walk stopped and how many
/// rows were answered.
fn budgeted_walk(
    n: usize,
    ctx: &RequestCtx<'_>,
    deadline: Duration,
    mut answer: impl FnMut(usize),
) -> (DiscoveryOutcome, usize) {
    let budget = Budget::unlimited().with_deadline(deadline);
    let started = ctx.started;
    for row in 0..n {
        if row % ROWS_PER_BUDGET_CHECK == 0 {
            if ctx.cancel.is_cancelled() || ctx.server_cancel.is_cancelled() {
                ctx.metrics.incr(Counter::ServeCancelled);
                return (DiscoveryOutcome::Cancelled, row);
            }
            if budget.check(started, 0, 0).is_some() {
                ctx.metrics.incr(Counter::ServeTimeouts);
                return (DiscoveryOutcome::DeadlineExceeded, row);
            }
        }
        answer(row);
    }
    (DiscoveryOutcome::Complete, n)
}

fn outcome_fields(outcome: DiscoveryOutcome, answered: usize, generation: u64) -> String {
    format!(
        "\"generation\": {generation}, \"complete\": {}, \"outcome\": \"{outcome}\", \"answered\": {answered}",
        outcome.is_complete()
    )
}

fn batch(req: &Request, ctx: &RequestCtx<'_>, kind: BatchKind) -> Response {
    // Pin the serving set once: the whole batch answers from one
    // generation, however many swaps land meanwhile.
    let set: Arc<ServingSet> = ctx.store.current();
    let input = match parse_batch(req, ctx, &set) {
        Ok(i) => i,
        Err(e) => {
            ctx.metrics.incr(Counter::ServeBadRequests);
            return Response::error(400, &e);
        }
    };
    let table = &input.table;
    let rules = &set.artifact.rules;
    let fast = CompiledIndex::new(rules, set.plan(), table);
    match kind {
        BatchKind::Predict => {
            let mut predictions: Vec<Option<f64>> = vec![None; table.num_rows()];
            let (outcome, answered) = budgeted_walk(table.num_rows(), ctx, input.deadline, |row| {
                predictions[row] = fast.predict(row);
            });
            ctx.metrics.add(Counter::ServePredictions, answered as u64);
            let mut body = format!("{{{}", outcome_fields(outcome, answered, set.generation));
            body.push_str(", \"predictions\": [");
            render_opt_nums(&mut body, &predictions);
            body.push_str("]}");
            Response::json(200, body)
        }
        BatchKind::Impute => {
            let target = rules.rules().first().map(crr_core::Crr::target);
            let Some(target) = target else {
                return Response::error(422, "serving set has no rules to impute with");
            };
            let mut values: Vec<Option<f64>> = vec![None; table.num_rows()];
            let mut imputed: Vec<bool> = vec![false; table.num_rows()];
            let (outcome, answered) = budgeted_walk(table.num_rows(), ctx, input.deadline, |row| {
                match table.value_f64(row, target) {
                    Some(actual) => values[row] = Some(actual),
                    None => {
                        values[row] = fast.predict(row);
                        imputed[row] = values[row].is_some();
                    }
                }
            });
            ctx.metrics.add(Counter::ServePredictions, answered as u64);
            let mut body = format!("{{{}", outcome_fields(outcome, answered, set.generation));
            body.push_str(", \"values\": [");
            render_opt_nums(&mut body, &values);
            body.push_str("], \"imputed\": [");
            for (i, f) in imputed.iter().enumerate() {
                if i > 0 {
                    body.push_str(", ");
                }
                body.push_str(if *f { "true" } else { "false" });
            }
            body.push_str("]}");
            Response::json(200, body)
        }
        BatchKind::Check => {
            // Violation checking holds each row to *every* covering rule,
            // the constraint semantics of crr_core::check, under the
            // budget; each rule predicts under the conjunct that covered.
            let mut x = Vec::new();
            let mut violations = String::new();
            let mut checked = 0usize;
            let mut uncovered = 0usize;
            let mut nviol = 0usize;
            let (outcome, answered) = budgeted_walk(table.num_rows(), ctx, input.deadline, |row| {
                let mut covered = false;
                fast.covering(row, |ri, ci| {
                    covered = true;
                    let rule = &rules.rules()[ri];
                    let conj = &rule.condition().conjuncts()[ci];
                    let (Some(predicted), Some(actual)) = (
                        rule.predict_at(conj, table, row, &mut x),
                        table.value_f64(row, rule.target()),
                    ) else {
                        return; // missing values are vacuously satisfied
                    };
                    let deviation = (actual - predicted).abs();
                    if deviation > rule.rho() + 1e-12 {
                        if nviol > 0 {
                            violations.push_str(", ");
                        }
                        let _ = write!(
                            violations,
                            "{{\"row\": {row}, \"rule\": {ri}, \"actual\": {}, \"predicted\": {}, \"deviation\": {}}}",
                            json::num(actual),
                            json::num(predicted),
                            json::num(deviation)
                        );
                        nviol += 1;
                    }
                });
                if covered {
                    checked += 1;
                } else {
                    uncovered += 1;
                }
            });
            ctx.metrics.add(Counter::ServeChecks, answered as u64);
            let body = format!(
                "{{{}, \"checked\": {checked}, \"uncovered\": {uncovered}, \"violations\": [{violations}]}}",
                outcome_fields(outcome, answered, set.generation)
            );
            Response::json(200, body)
        }
    }
}

pub(crate) fn render_opt_nums(out: &mut String, values: &[Option<f64>]) {
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        match v {
            Some(x) => out.push_str(&json::num(*x)),
            None => out.push_str("null"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_cells_must_fit_an_i64() {
        let int = |x: f64| decode_cell(&Json::Num(x), AttrType::Int);
        let two_63 = 2f64.powi(63);
        assert_eq!(
            int(two_63),
            Err(format!("expected an integer, got {two_63}")),
            "2^63 does not fit"
        );
        assert_eq!(int(-two_63), Ok(Value::Int(i64::MIN)));
        assert_eq!(int(2f64.powi(53)), Ok(Value::Int(1 << 53)));
        assert!(int(0.5).is_err());
    }
}
