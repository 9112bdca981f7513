//! One query through a plain `Mediator`, as a library user runs it.

use disco_common::Result;
use disco_mediator::analyze::analyze;
use disco_mediator::{parse_statement, Mediator, QueryResult};

use crate::spans::{Engine, QueryTrace};

/// Untraced: `Mediator::query`. Traced: the same work split into the
/// public calls `parse_statement`, `analyze`, `Mediator::plan` and
/// `Mediator::execute_plan`, one span each, with the execute span split
/// by the executor's measured fetch time.
pub fn query(
    m: &mut Mediator,
    sql: &str,
    engine: Engine,
    trace: Option<&mut Vec<QueryTrace>>,
) -> Result<QueryResult> {
    let Some(traces) = trace else {
        return m.query(sql);
    };
    let mut qt = QueryTrace::new();
    qt.begin("query");
    let result = traced(m, sql, engine, &mut qt);
    qt.finish();
    traces.push(qt);
    result
}

fn traced(m: &mut Mediator, sql: &str, engine: Engine, qt: &mut QueryTrace) -> Result<QueryResult> {
    let stmt = qt.time("parse", || parse_statement(sql))?;
    let mut query = stmt.branches.into_iter().next().expect("one branch");
    query.order_by = stmt.order_by;
    query.limit = stmt.limit;
    qt.time("analyze", || analyze(&query, m.catalog()))?;
    let plan = qt.time("plan", || m.plan(sql))?;
    qt.facts.optimizer = Some((
        plan.plans_considered,
        plan.estimator_nodes,
        plan.estimator_rules,
    ));
    let execute = qt.begin("execute");
    let result = m.execute_plan(plan);
    qt.end(execute);
    let result = result?;
    qt.split_execute(execute, engine, &result.trace);
    if m.transport().is_some() {
        qt.note_submits(&result.trace);
    }
    Ok(result)
}
