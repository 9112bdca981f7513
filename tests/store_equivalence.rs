//! Randomized differential suite: a disco-store-backed collection must
//! return *byte-identical* answers to the in-memory simulated source,
//! for the same seed, across sequential scans, index point lookups,
//! index range scans, non-indexed (scan + filter) selects, and
//! projections over selects.
//!
//! Both engines are built from identical rows, layout knobs, and
//! placement seed, so they hold the same objects on the same modelled
//! pages. Answers are compared through the store's own record codec —
//! tuple-for-tuple byte equality, not just `PartialEq` — and, cold, the
//! two pagers must report the *same fault count*: the disk engine
//! replicates the simulated placement number for number.
//!
//! Both engines also index the nullable `score` column, and every
//! index-served answer (selections, NULL bounds, an index join) is
//! checked against the row reference operators in `disco_sources::exec`
//! run over the full scan: NULL never matches through an index.

use disco_algebra::{CompareOp, JoinPredicate, LogicalPlan, PlanBuilder};
use disco_common::rng::{seeded, StdRng};
use disco_common::{AttributeDef, DataType, QualifiedName, Schema, Value};
use disco_sources::{exec, CollectionBuilder, CostProfile, DataSource, PagedStore, StoreSource};
use disco_store::codec::encode_tuple;
use disco_store::{DiskCollectionBuilder, DiskStoreBuilder};

const SEEDS: u64 = 15;

fn schema() -> Schema {
    Schema::new(vec![
        AttributeDef::new("id", DataType::Long),
        AttributeDef::new("grp", DataType::Long),
        AttributeDef::new("name", DataType::Str),
        AttributeDef::new("score", DataType::Double),
    ])
}

/// Random rows: unique uniform `id`, low-cardinality `grp`, strings of
/// varying length, doubles (some negative), occasional NULL score.
fn rows(rng: &mut StdRng, n: usize) -> Vec<Vec<Value>> {
    (0..n as i64)
        .map(|i| {
            let score = if rng.gen_range(0..10usize) == 0 {
                Value::Null
            } else {
                Value::Double(rng.gen_f64() * 200.0 - 100.0)
            };
            vec![
                Value::Long(i),
                Value::Long(rng.gen_range(0..7i64)),
                Value::Str(format!(
                    "row-{i:04}-{}",
                    "x".repeat(rng.gen_range(0..9usize))
                )),
                score,
            ]
        })
        .collect()
}

struct Pair {
    sim: PagedStore,
    disk: StoreSource,
    n: usize,
}

/// Build the simulated and disk-backed twins from one seed. Both use
/// store name `s`, collection `T`, and the same placement seed, so the
/// object→page map is identical.
fn build_pair(seed: u64) -> Pair {
    let mut rng = seeded(seed, "store-equivalence");
    let n = rng.gen_range(60..400usize);
    let clustered = seed.is_multiple_of(3);
    let data = rows(&mut rng, n);
    // The modelled object size must cover the largest encoded record
    // (plus its 4-byte slot entry), or the physical page fills before
    // the modelled per-page count and the build rejects the layout.
    let encoded_max = data
        .iter()
        .map(|r| encode_tuple(&disco_common::Tuple::new(r.clone())).len() as u64 + 4)
        .max()
        .unwrap_or(0);
    let object_size = rng.gen_range(24..120u64).max(encoded_max);

    let mut sim_builder = CollectionBuilder::new(schema())
        .rows(data.clone())
        .object_size(object_size)
        .index("id")
        .index("score");
    let mut disk_builder = DiskCollectionBuilder::new(schema())
        .rows(data)
        .object_size(object_size)
        .index("id")
        .index("score");
    if clustered {
        sim_builder = sim_builder.cluster_on("id");
        disk_builder = disk_builder.cluster_on("id");
    }

    let mut sim = PagedStore::new("s", CostProfile::object_store()).with_seed(seed);
    sim.add_collection("T", sim_builder).unwrap();
    let disk = DiskStoreBuilder::new("s")
        .seed(seed)
        .collection("T", disk_builder)
        .build()
        .unwrap();
    Pair {
        sim,
        disk: StoreSource::new(disk, CostProfile::object_store()),
        n,
    }
}

fn scan() -> PlanBuilder {
    PlanBuilder::scan(QualifiedName::new("s", "T"), schema())
}

/// The query mix for one seeded pair: full scan, every comparison the
/// index serves (point lookups and range scans, including empty and
/// total ranges), the `Ne` fallback, non-indexed selects on both a Long
/// and a Str column, and a projection over an index range.
fn queries(rng: &mut StdRng, n: usize) -> Vec<(String, LogicalPlan)> {
    let mut qs: Vec<(String, LogicalPlan)> = vec![("scan".into(), scan().build())];
    for op in [
        CompareOp::Eq,
        CompareOp::Ne,
        CompareOp::Lt,
        CompareOp::Le,
        CompareOp::Gt,
        CompareOp::Ge,
    ] {
        // In-domain, below-domain, and above-domain bounds.
        let bounds = [
            rng.gen_range(0..n as i64),
            -1,
            n as i64 + rng.gen_range(0..5i64),
        ];
        for v in bounds {
            qs.push((
                format!("id {} {v}", op.symbol()),
                scan().select("id", op, v).build(),
            ));
        }
    }
    qs.push((
        "grp = 3 (unindexed)".into(),
        scan().select("grp", CompareOp::Eq, 3i64).build(),
    ));
    qs.push((
        "name >= row-0100 (unindexed)".into(),
        scan()
            .select("name", CompareOp::Ge, Value::Str("row-0100".into()))
            .build(),
    ));
    qs.extend(score_selects(rng));
    let hi = rng.gen_range(1..n as i64);
    qs.push((
        format!("project(id<{hi})"),
        scan()
            .select("id", CompareOp::Lt, hi)
            .project_attrs(&["name", "score"])
            .build(),
    ));
    qs
}

/// Every comparison on the indexed, nullable `score` column: a random
/// in-range bound and a NULL bound for each operator.
fn score_selects(rng: &mut StdRng) -> Vec<(String, LogicalPlan)> {
    let mut qs = Vec::new();
    for op in [
        CompareOp::Eq,
        CompareOp::Ne,
        CompareOp::Lt,
        CompareOp::Le,
        CompareOp::Gt,
        CompareOp::Ge,
    ] {
        for v in [Value::Double(rng.gen_f64() * 200.0 - 100.0), Value::Null] {
            qs.push((
                format!("score {} {v}", op.symbol()),
                scan().select("score", op, v).build(),
            ));
        }
    }
    qs
}

fn tuple_bytes(tuples: &[disco_common::Tuple]) -> Vec<Vec<u8>> {
    tuples.iter().map(encode_tuple).collect()
}

fn multiset(tuples: &[disco_common::Tuple]) -> Vec<Vec<u8>> {
    let mut bytes = tuple_bytes(tuples);
    bytes.sort();
    bytes
}

#[test]
fn disk_engine_answers_are_byte_identical_to_the_simulated_engine() {
    for seed in 0..SEEDS {
        let pair = build_pair(seed);
        let mut rng = seeded(seed, "store-equivalence-queries");
        for (label, plan) in queries(&mut rng, pair.n) {
            pair.disk.clear_cache().unwrap();
            let sim = pair.sim.execute(&plan).unwrap();
            let disk = pair.disk.execute(&plan).unwrap();
            assert_eq!(
                sim.schema, disk.schema,
                "seed {seed}, query `{label}`: schemas diverge"
            );
            assert_eq!(
                tuple_bytes(&sim.tuples),
                tuple_bytes(&disk.tuples),
                "seed {seed}, query `{label}`: answers diverge"
            );
            // Identical placement, cold pools on both sides: the real
            // engine faults exactly the pages the simulation modelled.
            assert_eq!(
                sim.stats.pages_read, disk.stats.pages_read,
                "seed {seed}, query `{label}`: fault counts diverge"
            );
        }
    }
}

#[test]
fn warm_disk_answers_match_cold_answers() {
    let pair = build_pair(1);
    let plan = scan().select("id", CompareOp::Le, 50i64).build();
    pair.disk.clear_cache().unwrap();
    let cold = pair.disk.execute(&plan).unwrap();
    let warm = pair.disk.execute(&plan).unwrap();
    assert_eq!(tuple_bytes(&cold.tuples), tuple_bytes(&warm.tuples));
    assert!(cold.stats.pages_read > 0);
    assert_eq!(warm.stats.pages_read, 0, "everything resident second time");
    assert!(warm.stats.buffer_hits > 0);
}

#[test]
fn index_answers_match_the_row_reference_over_the_full_scan() {
    for seed in 0..SEEDS {
        let pair = build_pair(seed);
        let full = pair.sim.execute(&scan().build()).unwrap().tuples;
        let mut rng = seeded(seed, "store-equivalence-nulls");
        let id = rng.gen_range(0..pair.n as i64);
        let mut selects = score_selects(&mut rng);
        for op in [CompareOp::Eq, CompareOp::Lt, CompareOp::Ge] {
            selects.push((
                format!("id {} {id}", op.symbol()),
                scan().select("id", op, id).build(),
            ));
            selects.push((
                format!("id {} NULL", op.symbol()),
                scan().select("id", op, Value::Null).build(),
            ));
        }
        for (label, plan) in &selects {
            let LogicalPlan::Select { predicate, .. } = plan else {
                unreachable!("selections only")
            };
            let expect = multiset(&exec::filter(&schema(), &full, predicate).unwrap());
            let sim = pair.sim.execute(plan).unwrap();
            assert_eq!(
                multiset(&sim.tuples),
                expect,
                "seed {seed}, simulated `{label}`"
            );
            let disk = pair.disk.execute(plan).unwrap();
            assert_eq!(
                multiset(&disk.tuples),
                expect,
                "seed {seed}, disk `{label}`"
            );
        }
        // Index join on the nullable column: the inner side is served by
        // the `score` index, the outer side carries NULL keys.
        let pred = JoinPredicate::equi("score", "score");
        let join = scan().join(scan(), "score", "score").build();
        let expect = multiset(&exec::hash_join(&schema(), &full, &schema(), &full, &pred).unwrap());
        let sim = pair.sim.execute(&join).unwrap();
        assert_eq!(multiset(&sim.tuples), expect, "seed {seed}, simulated join");
        let disk = pair.disk.execute(&join).unwrap();
        assert_eq!(multiset(&disk.tuples), expect, "seed {seed}, disk join");
    }
}
