//! Golden per-source charges: for every operator the wrapper-side
//! interpreter executes, on every source that runs it, pin the exact
//! [`ExecStats`] (elapsed and first-tuple times to the bit, page
//! faults, buffer hits, objects scanned) together with a digest of the
//! answer (schema, tuples and their order).
//!
//! Sources: the simulated [`PagedStore`] under the object-store and the
//! relational profile, the disk-backed [`StoreSource`] run cold, and the
//! [`DocSource`]. The expected table is the recorded output of this
//! suite; any change to a charge, an access path or an answer shows up
//! as a line diff. Regenerate the table only for a deliberate change of
//! the cost model, and say so where the change is described.

use disco_algebra::{
    AggFunc, CompareOp, JoinKind, JoinPredicate, LogicalPlan, PlanBuilder, SelectPredicate,
};
use disco_common::{AttributeDef, DataType, QualifiedName, Schema, Value};
use disco_sources::{
    CollectionBuilder, CostProfile, DataSource, DocField, DocSource, DocValue, PagedStore,
    StoreSource, SubAnswer,
};
use disco_store::{DiskCollectionBuilder, DiskStoreBuilder};

const T_ROWS: i64 = 300;
const U_ROWS: i64 = 60;

fn t_schema() -> Schema {
    Schema::new(vec![
        AttributeDef::new("id", DataType::Long),
        AttributeDef::new("grp", DataType::Long),
        AttributeDef::new("name", DataType::Str),
        AttributeDef::new("score", DataType::Double),
    ])
}

fn u_schema() -> Schema {
    Schema::new(vec![
        AttributeDef::new("k", DataType::Long),
        AttributeDef::new("tag", DataType::Str),
    ])
}

/// `T`: unique `id` (indexed on the stores), seven groups, short names
/// and a score that is NULL on every seventh row.
fn t_rows() -> Vec<Vec<Value>> {
    (0..T_ROWS)
        .map(|i| {
            let score = if i % 7 == 3 {
                Value::Null
            } else {
                Value::Double(((i * 37) % 101) as f64 / 4.0 - 10.0)
            };
            vec![
                Value::Long(i),
                Value::Long(i % 7),
                Value::Str(format!("n{}", (i * 11) % 13)),
                score,
            ]
        })
        .collect()
}

/// `U`: join keys spread over (and past) `T`'s id range, with repeats.
fn u_rows() -> Vec<Vec<Value>> {
    (0..U_ROWS)
        .map(|i| {
            vec![
                Value::Long((i * 13) % (T_ROWS + 20)),
                Value::Str(format!("t{}", i % 4)),
            ]
        })
        .collect()
}

fn paged(name: &str, profile: CostProfile) -> PagedStore {
    let mut s = PagedStore::new(name, profile);
    s.add_collection(
        "T",
        CollectionBuilder::new(t_schema())
            .rows(t_rows())
            .object_size(64)
            .index("id"),
    )
    .unwrap();
    s.add_collection(
        "U",
        CollectionBuilder::new(u_schema())
            .rows(u_rows())
            .object_size(64),
    )
    .unwrap();
    s
}

fn disk() -> StoreSource {
    let store = DiskStoreBuilder::new("disk")
        .collection(
            "T",
            DiskCollectionBuilder::new(t_schema())
                .rows(t_rows())
                .object_size(64)
                .index("id"),
        )
        .collection(
            "U",
            DiskCollectionBuilder::new(u_schema())
                .rows(u_rows())
                .object_size(64),
        )
        .build()
        .unwrap();
    StoreSource::new(store, CostProfile::object_store())
}

fn scalar(v: &Value) -> DocValue {
    match v {
        Value::Long(n) => DocValue::Long(*n),
        Value::Double(d) => DocValue::Double(*d),
        Value::Str(s) => DocValue::Str(s.clone()),
        _ => DocValue::Null,
    }
}

/// The same rows as documents; `grp` sits one level down so the scan
/// pays a deeper navigation.
fn doc() -> DocSource {
    let mut s = DocSource::new("doc");
    let t_docs = t_rows()
        .iter()
        .map(|r| {
            DocValue::obj([
                ("id", scalar(&r[0])),
                ("meta", DocValue::obj([("grp", scalar(&r[1]))])),
                ("name", scalar(&r[2])),
                ("score", scalar(&r[3])),
            ])
        })
        .collect();
    s.add_collection(
        "T",
        vec![
            DocField::scalar("id", "id", DataType::Long),
            DocField::scalar("grp", "meta.grp", DataType::Long),
            DocField::scalar("name", "name", DataType::Str),
            DocField::scalar("score", "score", DataType::Double),
        ],
        t_docs,
    )
    .unwrap();
    let u_docs = u_rows()
        .iter()
        .map(|r| DocValue::obj([("k", scalar(&r[0])), ("tag", scalar(&r[1]))]))
        .collect();
    s.add_collection(
        "U",
        vec![
            DocField::scalar("k", "k", DataType::Long),
            DocField::scalar("tag", "tag", DataType::Str),
        ],
        u_docs,
    )
    .unwrap();
    s
}

fn t(source: &str) -> PlanBuilder {
    PlanBuilder::scan(QualifiedName::new(source, "T"), t_schema())
}

fn u(source: &str) -> PlanBuilder {
    PlanBuilder::scan(QualifiedName::new(source, "U"), u_schema())
}

/// One plan per operator (and per access path of the operators that
/// have more than one).
fn plans(s: &str) -> Vec<(&'static str, LogicalPlan)> {
    let nested_loop = LogicalPlan::Join {
        left: Box::new(t(s).select("id", CompareOp::Lt, 12i64).build()),
        right: Box::new(u(s).build()),
        predicate: JoinPredicate {
            left_attr: "id".into(),
            op: CompareOp::Gt,
            right_attr: "k".into(),
        },
        kind: JoinKind::Inner,
    };
    vec![
        ("scan", t(s).build()),
        (
            "index-select-eq",
            t(s).select("id", CompareOp::Eq, 17i64).build(),
        ),
        (
            "index-select-lt",
            t(s).select("id", CompareOp::Lt, 40i64).build(),
        ),
        (
            "select-unindexed",
            t(s).select("grp", CompareOp::Eq, 3i64).build(),
        ),
        (
            "select-two-conjuncts",
            t(s).select_pred(disco_algebra::Predicate {
                conjuncts: vec![
                    SelectPredicate::new("id", CompareOp::Ge, Value::Long(100)),
                    SelectPredicate::new("grp", CompareOp::Le, Value::Long(2)),
                ],
            })
            .build(),
        ),
        ("project", t(s).project_attrs(&["name", "score"]).build()),
        ("sort", t(s).sort_asc(&["grp", "name"]).build()),
        ("hash-join", t(s).join(u(s), "grp", "k").build()),
        ("index-join", u(s).join(t(s), "k", "id").build()),
        ("nested-loop-join", nested_loop),
        (
            "union",
            t(s).select("id", CompareOp::Lt, 20i64)
                .union(t(s).select("grp", CompareOp::Eq, 5i64))
                .build(),
        ),
        ("dedup", t(s).project_attrs(&["grp"]).dedup().build()),
        (
            "aggregate-grouped",
            t(s).aggregate(
                &["grp"],
                vec![
                    ("n", AggFunc::Count, None),
                    ("total", AggFunc::Sum, Some("score")),
                ],
            )
            .build(),
        ),
        (
            "aggregate-global",
            t(s).aggregate(
                &[],
                vec![
                    ("n", AggFunc::Count, None),
                    ("mean", AggFunc::Avg, Some("score")),
                ],
            )
            .build(),
        ),
    ]
}

/// FNV-1a over the debug rendering of schema and tuples: order,
/// values and value types all feed the digest.
fn digest(a: &SubAnswer) -> u64 {
    let text = format!("{:?}|{:?}", a.schema, a.tuples);
    text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn line(source: &str, op: &str, a: &SubAnswer) -> String {
    let s = &a.stats;
    format!(
        "{source} {op}: rows={} elapsed={:?} first={:?} pages={} hits={} scanned={} digest={:016x}",
        a.tuples.len(),
        s.elapsed_ms,
        s.time_first_ms,
        s.pages_read,
        s.buffer_hits,
        s.objects_scanned,
        digest(a)
    )
}

fn observed() -> Vec<String> {
    let mut out = Vec::new();
    for (label, source) in [
        ("paged-os", paged("paged-os", CostProfile::object_store())),
        ("paged-rel", paged("paged-rel", CostProfile::relational())),
    ] {
        for (op, plan) in plans(label) {
            out.push(line(label, op, &source.execute(&plan).unwrap()));
        }
    }
    let d = disk();
    for (op, plan) in plans("disk") {
        d.clear_cache().unwrap();
        out.push(line("disk-cold", op, &d.execute(&plan).unwrap()));
    }
    let docs = doc();
    for (op, plan) in plans("doc") {
        out.push(line("doc", op, &docs.execute(&plan).unwrap()));
    }
    out
}

const EXPECTED: &[&str] = &[
    "paged-os scan: rows=300 elapsed=2948.0 first=154.0 pages=5 hits=0 scanned=300 digest=626c35f1453b398c",
    "paged-os index-select-eq: rows=1 elapsed=156.01 first=154.0 pages=1 hits=0 scanned=1 digest=53529f0b75b59839",
    "paged-os index-select-lt: rows=40 elapsed=607.3999999999996 first=154.0 pages=5 hits=35 scanned=40 digest=7d5cae584d77a06c",
    "paged-os select-unindexed: rows=43 elapsed=650.0 first=154.0 pages=5 hits=0 scanned=300 digest=9c499fba4696a00a",
    "paged-os select-two-conjuncts: rows=85 elapsed=1043.0 first=154.0 pages=5 hits=0 scanned=300 digest=c2d5c9afdc29c875",
    "paged-os project: rows=300 elapsed=2951.0 first=154.0 pages=5 hits=0 scanned=300 digest=dec97a5300d8ca7d",
    "paged-os sort: rows=300 elapsed=2997.372912142975 first=306.3729121429753 pages=5 hits=0 scanned=300 digest=159ff00f1da184c6",
    "paged-os hash-join: rows=86 elapsed=1056.52 first=154.0 pages=6 hits=0 scanned=360 digest=ada6164bd09dbecf",
    "paged-os index-join: rows=57 elapsed=904.1699999999995 first=154.0 pages=6 hits=52 scanned=117 digest=7effbb2874ece44d",
    "paged-os nested-loop-join: rows=18 elapsed=470.7199999999999 first=154.0 pages=6 hits=7 scanned=72 digest=1f690dacef45b38e",
    "paged-os union: rows=63 elapsed=832.6299999999999 first=154.0 pages=5 hits=20 scanned=320 digest=268a9b4ac18112a0",
    "paged-os dedup: rows=7 elapsed=320.0 first=266.0 pages=5 hits=0 scanned=300 digest=4c1d7264af7c405f",
    "paged-os aggregate-grouped: rows=7 elapsed=317.0 first=263.0 pages=5 hits=0 scanned=300 digest=1a319961008e96a2",
    "paged-os aggregate-global: rows=1 elapsed=263.0 first=263.0 pages=5 hits=0 scanned=300 digest=df23dc74d5fae2a0",
    "paged-rel scan: rows=300 elapsed=241.5 first=50.5 pages=5 hits=0 scanned=300 digest=626c35f1453b398c",
    "paged-rel index-select-eq: rows=1 elapsed=51.505 first=50.5 pages=1 hits=0 scanned=1 digest=53529f0b75b59839",
    "paged-rel index-select-lt: rows=40 elapsed=111.19999999999983 first=50.5 pages=5 hits=35 scanned=40 digest=7d5cae584d77a06c",
    "paged-rel select-unindexed: rows=43 elapsed=119.0 first=50.5 pages=5 hits=0 scanned=300 digest=9c499fba4696a00a",
    "paged-rel select-two-conjuncts: rows=85 elapsed=146.0 first=50.5 pages=5 hits=0 scanned=300 digest=c2d5c9afdc29c875",
    "paged-rel project: rows=300 elapsed=243.0 first=50.5 pages=5 hits=0 scanned=300 digest=dec97a5300d8ca7d",
    "paged-rel sort: rows=300 elapsed=266.18645607148767 first=116.68645607148764 pages=5 hits=0 scanned=300 digest=159ff00f1da184c6",
    "paged-rel hash-join: rows=86 elapsed=149.26 first=50.5 pages=6 hits=0 scanned=360 digest=ada6164bd09dbecf",
    "paged-rel index-join: rows=57 elapsed=189.08499999999975 first=50.5 pages=6 hits=52 scanned=117 digest=7effbb2874ece44d",
    "paged-rel nested-loop-join: rows=18 elapsed=124.75999999999996 first=50.5 pages=6 hits=7 scanned=72 digest=1f690dacef45b38e",
    "paged-rel union: rows=63 elapsed=130.31499999999994 first=50.5 pages=5 hits=20 scanned=320 digest=268a9b4ac18112a0",
    "paged-rel dedup: rows=7 elapsed=99.5 first=96.5 pages=5 hits=0 scanned=300 digest=4c1d7264af7c405f",
    "paged-rel aggregate-grouped: rows=7 elapsed=98.0 first=95.0 pages=5 hits=0 scanned=300 digest=1a319961008e96a2",
    "paged-rel aggregate-global: rows=1 elapsed=95.0 first=95.0 pages=5 hits=0 scanned=300 digest=df23dc74d5fae2a0",
    "disk-cold scan: rows=300 elapsed=2948.0 first=154.0 pages=5 hits=0 scanned=300 digest=626c35f1453b398c",
    "disk-cold index-select-eq: rows=1 elapsed=156.01 first=154.0 pages=1 hits=0 scanned=1 digest=53529f0b75b59839",
    "disk-cold index-select-lt: rows=40 elapsed=607.4000000000002 first=154.0 pages=5 hits=35 scanned=40 digest=7d5cae584d77a06c",
    "disk-cold select-unindexed: rows=43 elapsed=650.0 first=154.0 pages=5 hits=0 scanned=300 digest=9c499fba4696a00a",
    "disk-cold select-two-conjuncts: rows=85 elapsed=1043.0 first=154.0 pages=5 hits=0 scanned=300 digest=c2d5c9afdc29c875",
    "disk-cold project: rows=300 elapsed=2951.0 first=154.0 pages=5 hits=0 scanned=300 digest=dec97a5300d8ca7d",
    "disk-cold sort: rows=300 elapsed=2997.372912142975 first=306.3729121429753 pages=5 hits=0 scanned=300 digest=159ff00f1da184c6",
    "disk-cold hash-join: rows=86 elapsed=1056.52 first=154.0 pages=6 hits=0 scanned=360 digest=ada6164bd09dbecf",
    "disk-cold index-join: rows=57 elapsed=904.1699999999995 first=154.0 pages=6 hits=168 scanned=117 digest=7effbb2874ece44d",
    "disk-cold nested-loop-join: rows=18 elapsed=470.72 first=154.0 pages=6 hits=7 scanned=72 digest=1f690dacef45b38e",
    "disk-cold union: rows=63 elapsed=832.6300000000001 first=154.0 pages=5 hits=20 scanned=320 digest=268a9b4ac18112a0",
    "disk-cold dedup: rows=7 elapsed=320.0 first=266.0 pages=5 hits=0 scanned=300 digest=4c1d7264af7c405f",
    "disk-cold aggregate-grouped: rows=7 elapsed=317.0 first=263.0 pages=5 hits=0 scanned=300 digest=1a319961008e96a2",
    "disk-cold aggregate-global: rows=1 elapsed=263.0 first=263.0 pages=5 hits=0 scanned=300 digest=df23dc74d5fae2a0",
    "doc scan: rows=300 elapsed=2810.0 first=89.0 pages=0 hits=0 scanned=300 digest=626c35f1453b398c",
    "doc index-select-eq: rows=1 elapsed=134.0 first=89.0 pages=0 hits=0 scanned=300 digest=53529f0b75b59839",
    "doc index-select-lt: rows=40 elapsed=485.0 first=89.0 pages=0 hits=0 scanned=300 digest=7d5cae584d77a06c",
    "doc select-unindexed: rows=43 elapsed=512.0 first=89.0 pages=0 hits=0 scanned=300 digest=9c499fba4696a00a",
    "doc select-two-conjuncts: rows=85 elapsed=905.0 first=89.0 pages=0 hits=0 scanned=300 digest=c2d5c9afdc29c875",
    "doc project: rows=300 elapsed=2816.0 first=89.0 pages=0 hits=0 scanned=300 digest=dec97a5300d8ca7d",
    "doc sort: rows=300 elapsed=2859.372912142975 first=168.37291214297528 pages=0 hits=0 scanned=300 digest=159ff00f1da184c6",
    "doc hash-join: rows=86 elapsed=973.6 first=89.0 pages=0 hits=0 scanned=360 digest=ada6164bd09dbecf",
    "doc index-join: rows=57 elapsed=712.6 first=89.0 pages=0 hits=0 scanned=360 digest=7effbb2874ece44d",
    "doc nested-loop-join: rows=18 elapsed=405.4 first=89.0 pages=0 hits=0 scanned=360 digest=1f690dacef45b38e",
    "doc union: rows=63 elapsed=817.0 first=89.0 pages=0 hits=0 scanned=600 digest=268a9b4ac18112a0",
    "doc dedup: rows=7 elapsed=185.0 first=131.0 pages=0 hits=0 scanned=300 digest=4c1d7264af7c405f",
    "doc aggregate-grouped: rows=7 elapsed=179.0 first=125.0 pages=0 hits=0 scanned=300 digest=1a319961008e96a2",
    "doc aggregate-global: rows=1 elapsed=125.0 first=125.0 pages=0 hits=0 scanned=300 digest=df23dc74d5fae2a0",
];

#[test]
fn per_source_charges_match_the_golden_table() {
    let got = observed();
    if got.len() != EXPECTED.len() {
        panic!("golden table out of date; observed:\n{}", got.join("\n"));
    }
    for (g, e) in got.iter().zip(EXPECTED) {
        assert_eq!(g, e);
    }
}
