//! `oo7_disk`: the paper's §5 database on the disk engine.
//!
//! `AtomicParts` at `Oo7Config::paper()` scale (70,000 objects of 56
//! bytes, 1,000 pages) and `CompositeParts` live in one `disco-store`
//! file behind a 250-frame buffer pool, smaller than the data. The
//! wrapper is in-process and exports the §5 Yao cost rules. One client
//! runs the OO7 query set through `Mediator::query`, so every query is
//! optimised cold and no transport is involved.

use std::sync::Mutex;
use std::time::Instant;

use disco_common::rng::{seeded, StdRng};
use disco_common::{AttributeDef, DataType, Schema, Value};
use disco_mediator::{Mediator, QueryResult};
use disco_oo7::{rules, Oo7Config};
use disco_sources::{CostProfile, StoreSource};
use disco_store::{DiskCollectionBuilder, DiskStoreBuilder};
use disco_wrapper::SourceWrapper;

use crate::plain;
use crate::spans::{Engine, QueryTrace};
use crate::workload::{num_obj, Built, Instance, Sample, SetupTimes, Spec, Window};

/// Buffer-pool frames: a quarter of `AtomicParts`' pages.
const FRAMES: usize = 250;

pub fn spec() -> Spec {
    Spec {
        name: "oo7_disk",
        clients: 1,
        window: Window::Timed {
            instances: 3,
            slices: 1,
        },
        cycle: KINDS,
        tail_pct: 98.5,
        build,
        params: || {
            let c = Oo7Config::paper();
            num_obj(&[
                ("atomic_parts", c.atomic_parts as f64),
                ("atomic_object_size", c.atomic_object_size as f64),
                ("atomic_pages", c.atomic_pages() as f64),
                ("composite_parts", c.composite_parts() as f64),
                ("buffer_frames", FRAMES as f64),
                ("build_dates", c.build_dates as f64),
            ])
        },
    }
}

struct Oo7 {
    mediator: Mutex<Mediator>,
    config: Oo7Config,
    /// `below[d]`: atomic parts with `BuildDate < d`.
    build_date_below: Vec<usize>,
}

fn build(seed: u64) -> Result<Built, String> {
    let config = Oo7Config::paper();
    let t0 = Instant::now();
    let mut rng = seeded(seed, "oo7-disk");
    let n = config.atomic_parts;
    let long = |n: &str| AttributeDef::new(n, DataType::Long);
    // Five long columns encode to 51 bytes with their slot entry, so a
    // record fits the modelled 56-byte object.
    let atomic: Vec<Vec<Value>> = (0..n)
        .map(|i| {
            vec![
                Value::Long(i as i64),
                Value::Long(rng.gen_range(0..config.build_dates as i64)),
                Value::Long(rng.gen_range(0..100_000i64)),
                Value::Long(rng.gen_range(0..100_000i64)),
                Value::Long((i / config.atomic_per_composite) as i64),
            ]
        })
        .collect();
    let mut build_date_below = vec![0usize; config.build_dates + 1];
    for row in &atomic {
        if let Value::Long(d) = row[1] {
            build_date_below[d as usize + 1] += 1;
        }
    }
    for d in 1..build_date_below.len() {
        build_date_below[d] += build_date_below[d - 1];
    }
    let composites = (0..config.composite_parts()).map(|i| {
        vec![
            Value::Long(i as i64),
            Value::Long(rng.gen_range(0..config.build_dates as i64)),
            Value::Long(i as i64),
        ]
    });
    let store = DiskStoreBuilder::new("oo7")
        .buffer_capacity(FRAMES)
        .seed(seed)
        .collection(
            "AtomicParts",
            DiskCollectionBuilder::new(Schema::new(vec![
                long("Id"),
                long("BuildDate"),
                long("X"),
                long("Y"),
                long("PartOf"),
            ]))
            .rows(atomic)
            .object_size(config.atomic_object_size)
            .page_size(config.page_size)
            .fill_factor(config.fill_factor)
            .index("Id"),
        )
        .collection(
            "CompositeParts",
            DiskCollectionBuilder::new(Schema::new(vec![
                long("Id"),
                long("BuildDate"),
                long("DocId"),
            ]))
            .rows(composites)
            .object_size(config.composite_object_size)
            .index("Id"),
        )
        .build()
        .map_err(|e| format!("disk store: {e}"))?;
    let source = StoreSource::new(store, CostProfile::object_store());
    let t1 = Instant::now();
    let mut m = Mediator::new();
    m.register(Box::new(
        SourceWrapper::new("oo7", source).with_cost_rules(rules::yao_rules()),
    ))
    .map_err(|e| format!("register: {e}"))?;
    let t2 = Instant::now();
    let instance = Oo7 {
        mediator: Mutex::new(m),
        config,
        build_date_below,
    };
    let mut rng = seeded(seed, "oo7-warmup");
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

/// The OO7 query set, cycled in order: two exact matches, `Id <` ranges
/// at 0.1 %, 1 % and 10 % selectivity, a build-date range and a join.
/// An odd number of kinds puts the median inside one kind's spread.
const KINDS: u64 = 7;

/// What an answer must look like.
enum Expect {
    /// Exactly the parts with `Id` in `0..k`, one row each.
    IdsBelow(usize),
    /// The single part `Id = x`.
    Id(usize),
    /// `count` parts, each with `BuildDate < d`.
    BuildDateBelow { d: i64, count: usize },
    /// The parts with `Id < k`, each joined to its composite part
    /// (whose `DocId` equals its `Id`).
    JoinBelow(usize),
}

impl Oo7 {
    fn query(&self, seq: u64, rng: &mut StdRng) -> (String, Expect) {
        let n = self.config.atomic_parts;
        // `Id <` ranges at 0.1 %, 1 % and 10 % selectivity, ±20 %.
        let range = |rng: &mut StdRng, share: f64| {
            let k = share * n as f64 * (0.8 + 0.4 * rng.gen_f64());
            (k as usize).max(1)
        };
        match seq % KINDS {
            0 | 1 => {
                let x = rng.gen_range(0..n);
                (
                    format!("SELECT Id, BuildDate FROM AtomicParts WHERE Id = {x}"),
                    Expect::Id(x),
                )
            }
            kind @ 2..=4 => {
                let k = range(rng, [0.001, 0.01, 0.1][kind as usize - 2]);
                (
                    format!("SELECT Id, X FROM AtomicParts WHERE Id < {k}"),
                    Expect::IdsBelow(k),
                )
            }
            5 => {
                let d = rng.gen_range(5..50i64);
                (
                    format!("SELECT Id, BuildDate FROM AtomicParts WHERE BuildDate < {d}"),
                    Expect::BuildDateBelow {
                        d,
                        count: self.build_date_below[d as usize],
                    },
                )
            }
            _ => {
                let k = range(rng, 0.01);
                (
                    format!(
                        "SELECT a.Id, c.DocId FROM AtomicParts a, CompositeParts c \
                         WHERE a.PartOf = c.Id AND a.Id < {k}"
                    ),
                    Expect::JoinBelow(k),
                )
            }
        }
    }

    fn check(&self, r: &QueryResult, expect: &Expect) -> Result<(), String> {
        let (rows, bound) = match *expect {
            Expect::IdsBelow(k) | Expect::JoinBelow(k) => (k, k),
            Expect::Id(x) => (1, x + 1),
            Expect::BuildDateBelow { count, .. } => (count, self.config.atomic_parts),
        };
        if r.tuples.len() != rows {
            return Err(format!("{} rows, want {rows}", r.tuples.len()));
        }
        let mut seen = vec![false; bound];
        for t in &r.tuples {
            let [Value::Long(id), Value::Long(other)] = t.values() else {
                return Err(format!("unexpected row {t:?}"));
            };
            let fits = match *expect {
                Expect::Id(x) => *id == x as i64,
                Expect::BuildDateBelow { d, .. } => *other < d,
                Expect::JoinBelow(_) => *other == id / self.config.atomic_per_composite as i64,
                Expect::IdsBelow(_) => true,
            };
            match usize::try_from(*id).ok().filter(|&i| i < bound) {
                Some(i) if fits && !seen[i] => seen[i] = true,
                _ => return Err(format!("row {t:?} is wrong, repeated or out of range")),
            }
        }
        Ok(())
    }
}

impl Instance for Oo7 {
    fn op(
        &self,
        _client: usize,
        seq: u64,
        rng: &mut StdRng,
        trace: Option<&mut Vec<QueryTrace>>,
    ) -> Sample {
        let (sql, expect) = self.query(seq, rng);
        let mut m = self.mediator.lock().expect("one client");
        let start = Instant::now();
        let result = plain::query(&mut m, &sql, Engine::TwoPhase, trace);
        let mut sample = Sample {
            wall_ns: start.elapsed().as_nanos() as u64,
            ..Sample::default()
        };
        sample.add(result.map_err(|e| e.to_string()).and_then(|r| {
            self.check(&r, &expect)?;
            Ok((r.estimated.total_time, r.measured_ms))
        }));
        sample
    }
}
