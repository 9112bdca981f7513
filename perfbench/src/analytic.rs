//! `analytic_join`: a three-way join across three channel-transport
//! wrappers, answered by both engines.
//!
//! `A(id, tag, v) ⋈ B(aid, bid) ⋈ C(cid, w)` with `B.aid` and `C.cid`
//! seeded permutations, so every probe matches once and the join
//! returns exactly as many rows as its input (`executor_scaling`'s
//! join3). Two mediators hold identical data, one two-phase and one
//! streaming; every query runs on both and their answers must match.

use std::sync::Mutex;
use std::time::Instant;

use disco_common::rng::{permutation, seeded, StdRng};
use disco_common::{AttributeDef, DataType, Schema, Tuple, Value};
use disco_mediator::{Mediator, MediatorOptions, QueryResult};
use disco_sources::{CollectionBuilder, CostProfile, PagedStore};
use disco_transport::{ChannelTransport, FaultPlan, NetProfile, TransportClient};
use disco_wrapper::SourceWrapper;

use crate::plain;
use crate::spans::{Engine, QueryTrace};
use crate::workload::{num_obj, Built, Instance, Sample, SetupTimes, Spec, Window};

/// Rows per table. The hash-join build side (a hash table of 30k keys,
/// each with its own row-id list: over 2 MB) stays larger than a core's
/// L2 cache.
const ROWS: usize = 30_000;
/// Rows a `LIMIT` query asks for.
const LIMIT: usize = 10;

const JOIN: &str = "SELECT a.id, b.aid, b.bid, c.cid, c.w FROM A a, B b, C c \
                    WHERE a.id = b.aid AND b.bid = c.cid";

pub fn spec() -> Spec {
    Spec {
        name: "analytic_join",
        clients: 1,
        window: Window::Timed {
            instances: 3,
            slices: 1,
        },
        cycle: KINDS,
        tail_pct: 85.0,
        build,
        params: || {
            num_obj(&[
                ("rows_per_table", ROWS as f64),
                ("limit", LIMIT as f64),
                ("filter_share_min", 0.08),
                ("filter_share_max", 0.12),
                ("engines", 2.0),
                ("sleep_scale", 0.0),
            ])
        },
    }
}

struct Analytic {
    /// `(engine, mediator)`: two-phase first, then streaming.
    mediators: [(Engine, Mutex<Mediator>); 2],
}

fn tables(seed: u64) -> [(&'static str, Schema, Vec<Vec<Value>>); 3] {
    let mut rng = seeded(seed, "analytic-join");
    let long = |n: &str| AttributeDef::new(n, DataType::Long);
    let double = |n: &str| AttributeDef::new(n, DataType::Double);
    let a = (0..ROWS as i64)
        .map(|id| {
            vec![
                Value::Long(id),
                Value::Str(format!("t{}", rng.gen_range(0..50i64))),
                Value::Double(rng.gen_f64()),
            ]
        })
        .collect();
    let b = permutation(&mut rng, ROWS)
        .into_iter()
        .enumerate()
        .map(|(bid, aid)| vec![Value::Long(aid as i64), Value::Long(bid as i64)])
        .collect();
    let c = permutation(&mut rng, ROWS)
        .into_iter()
        .map(|cid| vec![Value::Long(cid as i64), Value::Double(rng.gen_f64())])
        .collect();
    [
        (
            "A",
            Schema::new(vec![
                long("id"),
                AttributeDef::new("tag", DataType::Str),
                double("v"),
            ]),
            a,
        ),
        ("B", Schema::new(vec![long("aid"), long("bid")]), b),
        ("C", Schema::new(vec![long("cid"), double("w")]), c),
    ]
}

fn transport(tables: &[(&'static str, Schema, Vec<Vec<Value>>); 3]) -> ChannelTransport {
    let mut t = ChannelTransport::new();
    for (name, schema, rows) in tables {
        let wrapper = format!("w{name}");
        let mut store = PagedStore::new(wrapper.clone(), CostProfile::relational());
        let mut collection = CollectionBuilder::new(schema.clone())
            .rows(rows.iter().cloned())
            .object_size(24);
        if *name == "A" {
            collection = collection.index("id");
        }
        store
            .add_collection(*name, collection)
            .expect("collection registers");
        t.add_wrapper_with(
            Box::new(SourceWrapper::new(wrapper, store)),
            NetProfile::lan().with_sleep_scale(0.0),
            FaultPlan::none(),
        );
    }
    t
}

fn build(seed: u64) -> Result<Built, String> {
    let t0 = Instant::now();
    let data = tables(seed);
    let transports = [transport(&data), transport(&data)];
    drop(data);
    let t1 = Instant::now();
    let mut mediators = Vec::new();
    for (engine, t) in [Engine::TwoPhase, Engine::Streaming]
        .into_iter()
        .zip(transports)
    {
        let mut m = Mediator::new().with_options(MediatorOptions {
            streaming: engine == Engine::Streaming,
            ..Default::default()
        });
        m.connect(TransportClient::new(Box::new(t)))
            .map_err(|e| format!("connect: {e}"))?;
        mediators.push((engine, Mutex::new(m)));
    }
    let t2 = Instant::now();
    let [two_phase, streaming]: [(Engine, Mutex<Mediator>); 2] = mediators
        .try_into()
        .map_err(|_| "two mediators".to_owned())?;
    let instance = Analytic {
        mediators: [two_phase, streaming],
    };
    let mut rng = seeded(seed, "analytic-warmup");
    for seq in 0..KINDS {
        if let Some(why) = instance.op(0, seq, &mut rng, None).failure {
            return Err(format!("warm-up query failed: {why}"));
        }
    }
    let t3 = Instant::now();
    Ok(Built {
        instance: Box::new(instance),
        setup: SetupTimes {
            build_s: (t1 - t0).as_secs_f64(),
            register_s: (t2 - t1).as_secs_f64(),
            warm_s: (t3 - t2).as_secs_f64(),
        },
    })
}

/// Query kinds, cycled in order: the full join, a pushed-down ~10 %
/// filter on `A.id`, and the full join under `LIMIT`. A query's latency
/// is the wall time of its answers on both engines; an odd number of
/// equally weighted kinds puts the median inside one kind's spread
/// rather than on the edge between two.
const KINDS: u64 = 3;

/// The SQL of operation `seq` and the `a.id` bound its answer covers
/// (`a.id < bound`), with the exact row count it must return.
fn query(seq: u64, rng: &mut StdRng) -> (String, usize, usize) {
    match seq % KINDS {
        0 => (JOIN.to_owned(), ROWS, ROWS),
        1 => {
            let bound = rng.gen_range(ROWS * 8 / 100..ROWS * 12 / 100);
            (format!("{JOIN} AND a.id < {bound}"), bound, bound)
        }
        _ => (format!("{JOIN} LIMIT {LIMIT}"), ROWS, LIMIT),
    }
}

/// Every row satisfies both join conditions, `a.id` values are distinct
/// and below `bound`, and there are exactly `rows` of them.
fn check(r: &QueryResult, bound: usize, rows: usize) -> Result<(), String> {
    if r.is_partial() {
        return Err(format!("partial answer, missing {:?}", r.trace.missing));
    }
    if r.tuples.len() != rows {
        return Err(format!("{} rows, want {rows}", r.tuples.len()));
    }
    let mut seen = vec![false; bound];
    for t in &r.tuples {
        let [Value::Long(a), Value::Long(aid), Value::Long(bid), Value::Long(cid), _] = t.values()
        else {
            return Err(format!("unexpected row {t:?}"));
        };
        if a != aid || bid != cid {
            return Err(format!("row {t:?} breaks a join condition"));
        }
        match usize::try_from(*a).ok().filter(|&a| a < bound) {
            Some(a) if !seen[a] => seen[a] = true,
            _ => return Err(format!("a.id {a} repeated or out of range")),
        }
    }
    Ok(())
}

impl Instance for Analytic {
    fn op(
        &self,
        _client: usize,
        seq: u64,
        rng: &mut StdRng,
        mut trace: Option<&mut Vec<QueryTrace>>,
    ) -> Sample {
        let (sql, bound, rows) = query(seq, rng);
        let mut sample = Sample::default();
        let mut answers: Vec<Vec<Tuple>> = Vec::with_capacity(2);
        // Alternate which engine goes first, so neither always runs
        // after the other has warmed the caches.
        let order = if seq.is_multiple_of(2) {
            [0, 1]
        } else {
            [1, 0]
        };
        for i in order {
            let (engine, m) = &self.mediators[i];
            let mut m = m.lock().expect("one client per mediator");
            let start = Instant::now();
            let result = plain::query(&mut m, &sql, *engine, trace.as_deref_mut());
            sample.wall_ns += start.elapsed().as_nanos() as u64;
            sample.add(result.map_err(|e| e.to_string()).and_then(|r| {
                check(&r, bound, rows)?;
                let answer = (r.estimated.total_time, r.measured_ms);
                answers.push(r.tuples);
                Ok(answer)
            }));
        }
        if answers.len() == 2 && answers[0] != answers[1] {
            sample.add(Err("the two engines' answers differ".to_owned()));
        }
        sample
    }
}
