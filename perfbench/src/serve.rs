//! `serve_lookup` and `serve_history`: the `federation_server` path.
//!
//! The federation mirrors `disco_bench::serving::federation` (16
//! single-table wrappers of 2,000 rows over a channel transport) with
//! `sleep_scale = 0`, built here phase by phase so set-up time splits
//! into building the sources and connecting the wrappers. Each query
//! goes `SharedMediator::plan` → `AdmissionPolicy::classify` →
//! `AdmissionController::admit` → `SharedMediator::execute`, as the
//! server answers a line.

use std::sync::Arc;
use std::time::Instant;

use disco_bench::serving::{
    admission_policy, interactive_sql, table_name, tenant_name, warm_plan_cache, wrapper_name,
    KEY_MODULUS, ROWS_PER_TABLE, TABLES,
};
use disco_common::rng::{seeded, StdRng};
use disco_common::{AttributeDef, DataType, Result, Schema, Value};
use disco_mediator::analyze::analyze;
use disco_mediator::{
    parse_statement, AdmissionController, Mediator, MediatorOptions, ServedQuery, SharedMediator,
};
use disco_obs::Json;
use disco_sources::{CollectionBuilder, CostProfile, PagedStore};
use disco_transport::{ChannelTransport, FaultPlan, NetProfile, TransportClient};
use disco_wrapper::SourceWrapper;

use crate::spans::{Engine, QueryTrace};
use crate::workload::{num_obj, Built, Instance, Sample, SetupTimes, Spec, State, Window};

/// Largest `c` of an `id < c` lookup (`interactive_sql` clamps to it).
const MAX_LOOKUP: i64 = 50;
/// Queries answered during set-up, before any measurement.
const LOOKUP_WARMUP: u64 = 2_000;
/// `serve_history`: queries recorded before an episode's window, and
/// queries in the window. The history grows by one rule per answered
/// query and planning slows as it grows, so an episode is a fixed
/// number of queries on a fresh mediator, never a fixed duration.
const HISTORY_WARMUP: u64 = 500;
const HISTORY_QUERIES: u64 = 5_000;

pub fn lookup_spec() -> Spec {
    Spec {
        name: "serve_lookup",
        clients: 2,
        window: Window::Timed {
            instances: 5,
            slices: 3,
        },
        cycle: 1,
        tail_pct: 99.9,
        build: |seed| build(seed, false, LOOKUP_WARMUP),
        params: || params(false),
    }
}

pub fn history_spec() -> Spec {
    Spec {
        name: "serve_history",
        clients: 2,
        window: Window::Episodes {
            queries: HISTORY_QUERIES,
        },
        cycle: 1,
        tail_pct: 99.8,
        build: |seed| build(seed, true, HISTORY_WARMUP),
        params: || params(true),
    }
}

fn params(record_history: bool) -> Json {
    let mut p = vec![
        ("tables", TABLES as f64),
        ("rows_per_table", ROWS_PER_TABLE as f64),
        ("max_lookup", MAX_LOOKUP as f64),
        ("sleep_scale", 0.0),
        ("record_history", f64::from(u8::from(record_history))),
    ];
    if record_history {
        p.push(("episode_warmup_queries", HISTORY_WARMUP as f64));
        p.push(("episode_queries", HISTORY_QUERIES as f64));
    } else {
        p.push(("warmup_queries", LOOKUP_WARMUP as f64));
    }
    num_obj(&p)
}

struct Serve {
    shared: Arc<SharedMediator>,
    admission: AdmissionController,
}

fn sources() -> ChannelTransport {
    let mut t = ChannelTransport::new();
    for i in 0..TABLES {
        let schema = Schema::new(vec![
            AttributeDef::new("id", DataType::Long),
            AttributeDef::new("k", DataType::Long),
            AttributeDef::new("v", DataType::Long),
        ]);
        let mut store = PagedStore::new(wrapper_name(i), CostProfile::relational());
        store
            .add_collection(
                table_name(i),
                CollectionBuilder::new(schema)
                    .rows((0..ROWS_PER_TABLE).map(|id| {
                        vec![
                            Value::Long(id),
                            Value::Long(id % KEY_MODULUS),
                            Value::Long(v_of(id)),
                        ]
                    }))
                    .object_size(24)
                    .index("id"),
            )
            .expect("collection registers");
        t.add_wrapper_with(
            Box::new(SourceWrapper::new(wrapper_name(i), store)),
            NetProfile::lan().with_sleep_scale(0.0),
            FaultPlan::none(),
        );
    }
    t
}

fn v_of(id: i64) -> i64 {
    (id * 7) % 1000
}

fn build(seed: u64, record_history: bool, warmup: u64) -> std::result::Result<Built, String> {
    let t0 = Instant::now();
    let transport = sources();
    let t1 = Instant::now();
    let mut m = Mediator::new().with_options(MediatorOptions {
        parallel_submits: false,
        record_history,
        ..Default::default()
    });
    m.connect(TransportClient::new(Box::new(transport)))
        .map_err(|e| format!("connect: {e}"))?;
    let shared = Arc::new(SharedMediator::new(m));
    let t2 = Instant::now();
    let admission = AdmissionController::new(admission_policy(&shared));
    warm_plan_cache(&shared);
    let serve = Serve { shared, admission };
    let mut rng = seeded(seed, "serve-warmup");
    for seq in 0..warmup {
        if let Some(why) = serve.op(0, seq, &mut rng, None).failure {
            return Err(format!("warm-up query failed: {why}"));
        }
    }
    let t3 = Instant::now();
    Ok(Built {
        instance: Box::new(serve),
        setup: SetupTimes {
            build_s: (t1 - t0).as_secs_f64(),
            register_s: (t2 - t1).as_secs_f64(),
            warm_s: (t3 - t2).as_secs_f64(),
        },
    })
}

impl Serve {
    fn serve(&self, sql: &str, tenant: &str) -> Result<ServedQuery> {
        let (plan, _) = self.shared.plan(sql)?;
        let class = self.admission.policy().classify(plan.estimated.total_time);
        let _permit = self.admission.admit(tenant, class);
        self.shared.execute(plan)
    }

    fn serve_traced(&self, sql: &str, tenant: &str, qt: &mut QueryTrace) -> Result<ServedQuery> {
        let stmt = qt.time("parse", || parse_statement(sql))?;
        let mut query = stmt.branches.into_iter().next().expect("one branch");
        query.order_by = stmt.order_by;
        query.limit = stmt.limit;
        qt.time("analyze", || {
            self.shared.with_mediator(|m| analyze(&query, m.catalog()))
        })?;
        let (plan, source) = qt.time("plan", || self.shared.plan(sql))?;
        qt.facts.plan_source = Some(source);
        qt.facts.optimizer = Some((
            plan.plans_considered,
            plan.estimator_nodes,
            plan.estimator_rules,
        ));
        let permit = qt.time("admission", || {
            let class = self.admission.policy().classify(plan.estimated.total_time);
            self.admission.admit(tenant, class)
        });
        qt.facts.admission_wait_ms = Some(permit.waited_ms());
        let execute = qt.begin("execute");
        let served = self.shared.execute(plan);
        qt.end(execute);
        qt.time("admission", || drop(permit));
        let served = served?;
        qt.split_execute(execute, Engine::TwoPhase, &served.result.trace);
        qt.note_submits(&served.result.trace);
        Ok(served)
    }
}

/// `SELECT v FROM T WHERE id < c` must return exactly the `c` rows with
/// `id < c`, whose `v` values are known in closed form.
fn check(served: &ServedQuery, c: i64) -> std::result::Result<(), String> {
    let r = &served.result;
    if r.is_partial() {
        return Err(format!("partial answer, missing {:?}", r.trace.missing));
    }
    let mut got: Vec<i64> = r
        .tuples
        .iter()
        .map(|t| match t.values() {
            [Value::Long(v)] => Ok(*v),
            other => Err(format!("unexpected row {other:?}")),
        })
        .collect::<std::result::Result<_, _>>()?;
    got.sort_unstable();
    let mut want: Vec<i64> = (0..c).map(v_of).collect();
    want.sort_unstable();
    if got != want {
        return Err(format!("id < {c}: {} rows, want {c}", got.len()));
    }
    Ok(())
}

impl Instance for Serve {
    fn op(
        &self,
        client: usize,
        _seq: u64,
        rng: &mut StdRng,
        trace: Option<&mut Vec<QueryTrace>>,
    ) -> Sample {
        let c = rng.gen_range(1..MAX_LOOKUP + 1);
        let sql = interactive_sql(rng.gen_range(0..TABLES), c);
        let tenant = tenant_name(client);
        let start = Instant::now();
        let served = match trace {
            None => self.serve(&sql, &tenant),
            Some(traces) => {
                let mut qt = QueryTrace::new();
                qt.begin("query");
                let served = self.serve_traced(&sql, &tenant, &mut qt);
                qt.finish();
                traces.push(qt);
                served
            }
        };
        let mut sample = Sample {
            wall_ns: start.elapsed().as_nanos() as u64,
            ..Sample::default()
        };
        sample.add(
            served
                .map_err(|e| e.to_string())
                .and_then(|s| check(&s, c).map(|()| (s.predicted_ms, s.result.measured_ms))),
        );
        sample
    }

    fn state(&self) -> State {
        State {
            plan_cache: self.shared.cache_stats(),
            history: self.shared.with_mediator(|m| m.history_recorded()),
        }
    }
}
