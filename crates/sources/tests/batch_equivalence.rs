//! Randomized row/batch equivalence: every vectorized operator in
//! [`disco_sources::vexec`] must produce exactly the tuples — same
//! values, same order — as its row-at-a-time reference in
//! [`disco_sources::exec`], across random schemas, random data with
//! nulls and mixed types, and random operator parameters.
//!
//! Generated strings draw from a plain alphanumeric alphabet: the row
//! path's composite grouping keys join per-column strings with `|` and
//! encode nulls as `∅`, so strings containing those exact sequences can
//! collide there (a documented divergence — the columnar path uses
//! structured keys and is immune). The equivalence contract covers all
//! other inputs.

use disco_algebra::logical::AggExpr;
use disco_algebra::{AggFunc, CompareOp, JoinPredicate, Predicate, ScalarExpr, SelectPredicate};
use disco_common::rng::{seeded, StdRng};
use disco_common::wire::{WireDecode, WireEncode};
use disco_common::{AttributeDef, Batch, DataType, Schema, Tuple, Value};
use disco_sources::vstream::{self, BatchSource, HashJoinStream, Meter};
use disco_sources::{exec, vexec, BatchAnswer, ExecStats, SubAnswer};
use std::cell::Cell;
use std::rc::Rc;

const SEEDS: u64 = 25;

/// Column shapes: homogeneous columns exercise the typed fast paths,
/// `Mixed` forces the `Any` fallback.
#[derive(Clone, Copy)]
enum ColKind {
    Long,
    Double,
    Bool,
    Str,
    Mixed,
}

const KINDS: [ColKind; 5] = [
    ColKind::Long,
    ColKind::Double,
    ColKind::Bool,
    ColKind::Str,
    ColKind::Mixed,
];

fn random_value(rng: &mut StdRng, kind: ColKind) -> Value {
    if rng.gen_range(0..8i64) == 0 {
        return Value::Null;
    }
    match kind {
        ColKind::Long => Value::Long(rng.gen_range(-20..20i64)),
        ColKind::Double => {
            // Small integral range so cross-typed equality joins hit.
            Value::Double(rng.gen_range(-20..20i64) as f64 / 2.0)
        }
        ColKind::Bool => Value::Bool(rng.gen_range(0..2i64) == 1),
        ColKind::Str => Value::Str(format!("s{}", rng.gen_range(0..12i64))),
        ColKind::Mixed => {
            let k = KINDS[rng.gen_range(0..4usize)];
            random_value(rng, k)
        }
    }
}

struct Case {
    schema: Schema,
    kinds: Vec<ColKind>,
    tuples: Vec<Tuple>,
    batch: Batch,
}

fn random_case(rng: &mut StdRng, prefix: &str) -> Case {
    let cols = rng.gen_range(1..5usize);
    let rows = rng.gen_range(0..60usize);
    let kinds: Vec<ColKind> = (0..cols).map(|_| KINDS[rng.gen_range(0..5usize)]).collect();
    let schema = Schema::new(
        (0..cols)
            .map(|c| AttributeDef::new(format!("{prefix}{c}"), DataType::Str))
            .collect(),
    );
    let tuples: Vec<Tuple> = (0..rows)
        .map(|_| Tuple::new(kinds.iter().map(|&k| random_value(rng, k)).collect()))
        .collect();
    let batch = Batch::from_tuples(cols, &tuples);
    Case {
        schema,
        kinds,
        tuples,
        batch,
    }
}

fn attr(case: &Case, rng: &mut StdRng) -> (String, usize) {
    let i = rng.gen_range(0..case.schema.arity());
    (case.schema.attributes()[i].name.clone(), i)
}

fn random_op(rng: &mut StdRng) -> CompareOp {
    [
        CompareOp::Eq,
        CompareOp::Ne,
        CompareOp::Lt,
        CompareOp::Le,
        CompareOp::Gt,
        CompareOp::Ge,
    ][rng.gen_range(0..6usize)]
}

#[test]
fn tuple_batch_round_trip() {
    for seed in 0..SEEDS {
        let mut rng = seeded(seed, "batch-roundtrip");
        let case = random_case(&mut rng, "a");
        assert_eq!(case.batch.to_tuples(), case.tuples, "seed {seed}");
        assert_eq!(case.batch.len(), case.tuples.len());
    }
}

#[test]
fn wire_round_trip_matches_row_decode() {
    for seed in 0..SEEDS {
        let mut rng = seeded(seed, "batch-wire");
        let case = random_case(&mut rng, "a");
        let bytes = SubAnswer {
            schema: case.schema.clone(),
            tuples: case.tuples.clone(),
            stats: ExecStats::default(),
        }
        .to_wire_bytes();
        let rows = SubAnswer::from_wire_bytes(&bytes).unwrap();
        let batch = BatchAnswer::from_wire_bytes(&bytes).unwrap();
        assert_eq!(batch.batch.to_tuples(), rows.tuples, "seed {seed}");
        assert_eq!(batch.to_wire_bytes(), bytes, "seed {seed}");
    }
}

#[test]
fn filter_equivalence() {
    for seed in 0..SEEDS {
        let mut rng = seeded(seed, "batch-filter");
        let case = random_case(&mut rng, "a");
        let conjuncts = (0..rng.gen_range(1..3usize))
            .map(|_| {
                let (name, i) = attr(&case, &mut rng);
                SelectPredicate::new(
                    name,
                    random_op(&mut rng),
                    random_value(&mut rng, case.kinds[i]),
                )
            })
            .collect();
        let pred = Predicate::all(conjuncts);
        let rows = exec::filter(&case.schema, &case.tuples, &pred).unwrap();
        let batch = vexec::filter(&case.schema, &case.batch, &pred).unwrap();
        assert_eq!(batch.to_tuples(), rows, "seed {seed} pred {pred}");
    }
}

#[test]
fn project_equivalence() {
    for seed in 0..SEEDS {
        let mut rng = seeded(seed, "batch-project");
        let case = random_case(&mut rng, "a");
        let columns: Vec<(String, ScalarExpr)> = (0..rng.gen_range(1..4usize))
            .map(|o| {
                if rng.gen_range(0..4i64) == 0 {
                    (
                        format!("c{o}"),
                        ScalarExpr::Const(random_value(&mut rng, ColKind::Mixed)),
                    )
                } else {
                    let (name, _) = attr(&case, &mut rng);
                    (format!("c{o}"), ScalarExpr::attr(name))
                }
            })
            .collect();
        let (rs, rows) = exec::project(&case.schema, &case.tuples, &columns).unwrap();
        let (bs, batch) = vexec::project(&case.schema, &case.batch, &columns).unwrap();
        assert_eq!(bs, rs, "seed {seed}");
        assert_eq!(batch.to_tuples(), rows, "seed {seed}");
    }
}

#[test]
fn join_equivalence() {
    for seed in 0..SEEDS {
        let mut rng = seeded(seed, "batch-join");
        let left = random_case(&mut rng, "l");
        let right = random_case(&mut rng, "r");
        let (ln, _) = attr(&left, &mut rng);
        let (rn, _) = attr(&right, &mut rng);
        let pred = JoinPredicate::equi(ln.clone(), rn.clone());
        let rows = exec::hash_join(
            &left.schema,
            &left.tuples,
            &right.schema,
            &right.tuples,
            &pred,
        )
        .unwrap();
        let batch = vexec::hash_join(
            &left.schema,
            &left.batch,
            &right.schema,
            &right.batch,
            &pred,
        )
        .unwrap();
        assert_eq!(batch.to_tuples(), rows, "seed {seed} hash {pred}");

        // Nested loop with a random (possibly non-equality) operator.
        let pred = JoinPredicate {
            left_attr: ln,
            op: random_op(&mut rng),
            right_attr: rn,
        };
        let rows = exec::nested_loop_join(
            &left.schema,
            &left.tuples,
            &right.schema,
            &right.tuples,
            &pred,
        )
        .unwrap();
        let batch = vexec::nested_loop_join(
            &left.schema,
            &left.batch,
            &right.schema,
            &right.batch,
            &pred,
        )
        .unwrap();
        assert_eq!(batch.to_tuples(), rows, "seed {seed} nl {pred}");
    }
}

/// A join or grouping key cell drawn from few distinct values, so build
/// keys repeat. `shape` fixes the column's storage: 0 `Long`, 1 `Double`
/// (both zeroes), 2 dictionary strings, 3 a mixed `Any` column holding
/// all of those plus booleans. About one cell in five is `Null`.
fn key_value(rng: &mut StdRng, shape: usize) -> Value {
    if rng.gen_range(0..5i64) == 0 {
        return Value::Null;
    }
    let n = rng.gen_range(-3..4i64);
    let number = |rng: &mut StdRng| match (n, rng.gen_range(0..2i64)) {
        (0, 0) => Value::Double(-0.0),
        _ => Value::Double(n as f64),
    };
    match shape {
        0 => Value::Long(n),
        1 => number(rng),
        2 => Value::Str(format!("k{n}")),
        _ => match rng.gen_range(0..4i64) {
            0 => Value::Long(n),
            1 => number(rng),
            2 => Value::Str(format!("k{n}")),
            _ => Value::Bool(n > 0),
        },
    }
}

/// Up to 80 rows of (key, payload): the key from [`key_value`] with the
/// given shape, the payload a running row number.
fn keyed_side(rng: &mut StdRng, prefix: &str, shape: usize) -> (Schema, Vec<Tuple>) {
    let schema = Schema::new(vec![
        AttributeDef::new(format!("{prefix}k"), DataType::Str),
        AttributeDef::new(format!("{prefix}p"), DataType::Long),
    ]);
    let rows = rng.gen_range(0..80usize);
    let tuples = (0..rows)
        .map(|i| Tuple::new(vec![key_value(rng, shape), Value::Long(i as i64)]))
        .collect();
    (schema, tuples)
}

fn counting_meter() -> (Meter, Rc<Cell<f64>>) {
    let total = Rc::new(Cell::new(0.0));
    let t = Rc::clone(&total);
    (Rc::new(move |ms| t.set(t.get() + ms)), total)
}

#[test]
fn streamed_hash_join_equivalence() {
    const CPU_HASH: f64 = 0.02;
    for seed in 0..SEEDS {
        let mut rng = seeded(seed, "batch-stream-join");
        let (lshape, rshape) = (rng.gen_range(0..4usize), rng.gen_range(0..4usize));
        let (ls, lt) = keyed_side(&mut rng, "l", lshape);
        let (rs, rt) = keyed_side(&mut rng, "r", rshape);
        let (lb, rb) = (Batch::from_tuples(2, &lt), Batch::from_tuples(2, &rt));
        let pred = JoinPredicate::equi("lk", "rk");
        let rows = exec::hash_join(&ls, &lt, &rs, &rt, &pred).unwrap();
        let one_shot = vexec::hash_join(&ls, &lb, &rs, &rb, &pred).unwrap();
        assert_eq!(one_shot.to_tuples(), rows, "seed {seed} one-shot");
        let charge = (lt.len() + rt.len() + rows.len()) as f64 * CPU_HASH;
        for chunk in [1, 2, 7, 1024] {
            let (meter, total) = counting_meter();
            let mut s = HashJoinStream::new(
                Box::new(BatchSource::new(ls.clone(), lb.clone(), chunk)),
                Box::new(BatchSource::new(rs.clone(), rb.clone(), chunk)),
                pred.clone(),
                meter,
                CPU_HASH,
            );
            let streamed = vstream::drain(&mut s).unwrap();
            assert_eq!(streamed.to_tuples(), rows, "seed {seed} chunk {chunk}");
            assert!(
                (total.get() - charge).abs() < 1e-9,
                "seed {seed} chunk {chunk}: charged {} expected {charge}",
                total.get()
            );
        }
    }
}

#[test]
fn grouping_single_and_composite_keys_agree_with_row_path() {
    let count = AggExpr {
        name: "n".into(),
        func: AggFunc::Count,
        arg: None,
    };
    let sum = AggExpr {
        name: "s".into(),
        func: AggFunc::Sum,
        arg: Some("p".into()),
    };
    for seed in 0..SEEDS {
        let mut rng = seeded(seed, "batch-grouping-keys");
        let schema = Schema::new(vec![
            AttributeDef::new("a", DataType::Str),
            AttributeDef::new("b", DataType::Str),
            AttributeDef::new("p", DataType::Long),
        ]);
        let (sa, sb) = (rng.gen_range(0..4usize), rng.gen_range(0..4usize));
        let tuples: Vec<Tuple> = (0..rng.gen_range(0..80usize))
            .map(|i| {
                // Composite keys that are NULL in one column only
                // (besides both and neither).
                let (a, b) = (key_value(&mut rng, sa), key_value(&mut rng, sb));
                Tuple::new(vec![a, b, Value::Long(i as i64 % 5)])
            })
            .collect();
        let batch = Batch::from_tuples(3, &tuples);
        let aggs = [count.clone(), sum.clone()];
        for group_by in [vec!["a"], vec!["b"], vec!["a", "b"], vec!["b", "a"]] {
            let group_by: Vec<String> = group_by.into_iter().map(String::from).collect();
            let rows = exec::aggregate(&schema, &tuples, &group_by, &aggs).unwrap();
            let batch = vexec::aggregate(&schema, &batch, &group_by, &aggs).unwrap();
            assert_eq!(batch.to_tuples(), rows, "seed {seed} group_by {group_by:?}");
        }
        for cols in [vec![0], vec![1], vec![0, 1]] {
            let keys = batch.select_columns(&cols);
            assert_eq!(
                vexec::dedup(&keys).to_tuples(),
                exec::dedup(&keys.to_tuples()),
                "seed {seed} dedup on {cols:?}"
            );
        }
    }
}

#[test]
fn dedup_sort_union_equivalence() {
    for seed in 0..SEEDS {
        let mut rng = seeded(seed, "batch-misc");
        let case = random_case(&mut rng, "a");

        let rows = exec::dedup(&case.tuples);
        assert_eq!(vexec::dedup(&case.batch).to_tuples(), rows, "seed {seed}");

        let keys: Vec<(String, bool)> = (0..rng.gen_range(1..3usize))
            .map(|_| {
                let (name, _) = attr(&case, &mut rng);
                (name, rng.gen_range(0..2i64) == 0)
            })
            .collect();
        let mut rows = case.tuples.clone();
        exec::sort(&case.schema, &mut rows, &keys).unwrap();
        let batch = vexec::sort(&case.schema, &case.batch, &keys).unwrap();
        assert_eq!(batch.to_tuples(), rows, "seed {seed} keys {keys:?}");

        // Union with a second batch of the same arity.
        let mut other_rng = seeded(seed, "batch-misc-other");
        let mut other = random_case(&mut other_rng, "a");
        while other.schema.arity() != case.schema.arity() {
            other = random_case(&mut other_rng, "a");
        }
        let mut rows = case.tuples.clone();
        rows.extend(other.tuples.clone());
        let batch = vexec::union(&case.batch, &other.batch).unwrap();
        assert_eq!(batch.to_tuples(), rows, "seed {seed}");
    }
}

#[test]
fn aggregate_equivalence() {
    for seed in 0..SEEDS {
        let mut rng = seeded(seed, "batch-agg");
        let case = random_case(&mut rng, "a");
        let group_by: Vec<String> = if rng.gen_range(0..4i64) == 0 {
            Vec::new() // global aggregate, including the empty-input row
        } else {
            (0..rng.gen_range(1..3usize))
                .map(|_| attr(&case, &mut rng).0)
                .collect()
        };
        let funcs = [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Avg,
            AggFunc::Min,
            AggFunc::Max,
        ];
        let aggs: Vec<AggExpr> = (0..rng.gen_range(1..4usize))
            .map(|o| {
                let func = funcs[rng.gen_range(0..5usize)];
                let arg = (func != AggFunc::Count || rng.gen_range(0..2i64) == 0)
                    .then(|| attr(&case, &mut rng).0);
                AggExpr {
                    name: format!("g{o}"),
                    func,
                    arg,
                }
            })
            .collect();
        let rows = exec::aggregate(&case.schema, &case.tuples, &group_by, &aggs).unwrap();
        let batch = vexec::aggregate(&case.schema, &case.batch, &group_by, &aggs).unwrap();
        assert_eq!(
            batch.to_tuples(),
            rows,
            "seed {seed} group_by {group_by:?} aggs {aggs:?}"
        );
    }
}

// Gated: requires the `proptest` cargo feature (and the proptest
// dev-dependency, removed so offline builds succeed — see Cargo.toml).
#[cfg(feature = "proptest")]
mod prop {
    use super::*;
    use proptest::prelude::*;

    fn arb_value() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Bool),
            (-50i64..50).prop_map(Value::Long),
            (-50i64..50).prop_map(|n| Value::Double(n as f64 / 2.0)),
            (0u8..20).prop_map(|n| Value::Str(format!("s{n}"))),
        ]
    }

    proptest! {
        #[test]
        fn round_trip_and_filter(
            rows in prop::collection::vec(prop::collection::vec(arb_value(), 3), 0..80),
            op_i in 0usize..6,
            rhs in arb_value(),
        ) {
            let schema = Schema::new(
                (0..3).map(|c| AttributeDef::new(format!("a{c}"), DataType::Str)).collect(),
            );
            let tuples: Vec<Tuple> = rows.into_iter().map(Tuple::new).collect();
            let batch = Batch::from_tuples(3, &tuples);
            prop_assert_eq!(batch.to_tuples(), tuples.clone());

            let op = [CompareOp::Eq, CompareOp::Ne, CompareOp::Lt,
                      CompareOp::Le, CompareOp::Gt, CompareOp::Ge][op_i];
            let pred = Predicate::all(vec![SelectPredicate::new("a1", op, rhs)]);
            let expect = exec::filter(&schema, &tuples, &pred).unwrap();
            let got = vexec::filter(&schema, &batch, &pred).unwrap();
            prop_assert_eq!(got.to_tuples(), expect);
        }
    }
}
