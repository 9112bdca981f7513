//! E13 — combine-phase scaling: the vectorized columnar engine vs the
//! row-at-a-time reference operators.
//!
//! Both paths start from the same pre-encoded subanswer wire bytes —
//! exactly what the mediator holds after a fetch — so decoding is part
//! of the measurement: the row path decodes into `SubAnswer` tuples and
//! runs `exec::*`, the batch path decodes straight into `BatchAnswer`
//! columns and runs `vexec::*`, materializing tuples only at the final
//! answer boundary (`Batch::to_tuples`), mirroring the executor.
//!
//! Two workloads, swept from 1 k to 1 M rows:
//!
//! * **union** — eight subanswers, each filtered (~50 % selectivity) and
//!   projected, then concatenated;
//! * **join3** — a three-way hash join `A(id,tag,v) ⋈ B(aid,bid) ⋈
//!   C(cid,w)` with fan-out ≈ 1 (output cardinality equals the input).
//!   It also runs streamed: the same decoded inputs served in 1,024-row
//!   chunks through two `vstream::HashJoinStream`s, answer tuples
//!   extended chunk by chunk as the streaming executor does.
//!
//! At sizes up to 10 k every path's output is asserted exactly equal
//! (same tuples, same order); above that, lengths must match and an
//! evenly-strided positional sample of ~1 k tuples (plus both ends) is
//! compared. Gates: at 100 k the batch join is ≥ 3× faster than the row
//! join and the streamed join takes ≤ 1.5× the batch join (a streamed
//! join that re-hashed its build side per chunk would not); at 1 M the
//! batch join takes ≤ 400 ms. Besides the table it writes
//! `BENCH_executor.json` (machine-readable, consumed by CI as an
//! artifact).
//!
//! ```text
//! cargo run --release -p disco-bench --bin executor_scaling
//! ```

use std::fmt::Write as _;
use std::time::Instant;

use disco_algebra::{CompareOp, JoinPredicate, Predicate, ScalarExpr, SelectPredicate};
use disco_bench::Table;
use disco_common::rng::seeded;
use disco_common::wire::{WireDecode, WireEncode};
use disco_common::{AttributeDef, DataType, Schema, Tuple, Value};
use disco_sources::vstream::{no_meter, BatchSource, BatchStream, HashJoinStream};
use disco_sources::{exec, vexec, BatchAnswer, ExecStats, SubAnswer};

const SIZES: [usize; 4] = [1_000, 10_000, 100_000, 1_000_000];

/// Sizes at which the two paths' outputs are compared tuple-for-tuple.
const EQUIVALENCE_UP_TO: usize = 10_000;

/// The acceptance target: batch/row wall-clock ratio on the three-way
/// join at this input size.
const JOIN_TARGET_ROWS: usize = 100_000;
const JOIN_TARGET_SPEEDUP: f64 = 3.0;

/// Streamed/batch wall-clock ratio allowed on the three-way join at
/// `JOIN_TARGET_ROWS`.
const STREAM_RATIO_LIMIT: f64 = 1.5;
/// Chunk size of the streamed join's sources (the executor's default).
const STREAM_CHUNK_ROWS: usize = 1_024;

/// Wall-clock ceiling for the batch three-way join at 1 M rows.
const JOIN_1M_ROWS: usize = 1_000_000;
const JOIN_1M_LIMIT_MS: f64 = 400.0;

const UNION_PARTS: usize = 8;

/// Observability overhead guard: the per-batch metrics instrumentation
/// in `vexec` must cost less than this fraction of the three-way join's
/// wall clock at `OVERHEAD_ROWS`.
const OVERHEAD_ROWS: usize = 100_000;
const OVERHEAD_LIMIT: f64 = 0.05;
/// Interleaved (off, on) measurement pairs; the bound is asserted on
/// the medians so one noisy pair (scheduler preemption, page cache)
/// cannot flip the comparison either way.
const OVERHEAD_PAIRS: usize = 5;
const OVERHEAD_REPS: usize = 3;

/// Tuples compared per workload when the input is too large for the
/// full equality assert (an evenly-strided sample plus both ends).
const EQUIVALENCE_SAMPLE: usize = 1_000;

fn answer_bytes(schema: &Schema, tuples: Vec<Tuple>) -> Vec<u8> {
    SubAnswer {
        schema: schema.clone(),
        tuples,
        stats: ExecStats::default(),
    }
    .to_wire_bytes()
}

/// Eight subanswers of `n / 8` rows each: (x Long, tag Str, v Double).
fn union_parts(n: usize) -> (Schema, Vec<Vec<u8>>) {
    let schema = Schema::new(vec![
        AttributeDef::new("x", DataType::Long),
        AttributeDef::new("tag", DataType::Str),
        AttributeDef::new("v", DataType::Double),
    ]);
    let mut rng = seeded(n as u64, "executor-scaling-union");
    let per_part = n / UNION_PARTS;
    let parts = (0..UNION_PARTS)
        .map(|_| {
            let tuples = (0..per_part)
                .map(|_| {
                    Tuple::new(vec![
                        Value::Long(rng.gen_range(0..1000i64)),
                        Value::Str(format!("t{}", rng.gen_range(0..50i64))),
                        Value::Double(rng.gen_f64()),
                    ])
                })
                .collect();
            answer_bytes(&schema, tuples)
        })
        .collect();
    (schema, parts)
}

struct JoinInputs {
    a_schema: Schema,
    b_schema: Schema,
    c_schema: Schema,
    a: Vec<u8>,
    b: Vec<u8>,
    c: Vec<u8>,
}

/// Three tables of `n` rows whose join keys are permutations of 0..n,
/// so every probe matches exactly once and the output stays `n` rows.
fn join_inputs(n: usize) -> JoinInputs {
    let mut rng = seeded(n as u64, "executor-scaling-join");
    let permutation = |rng: &mut disco_common::rng::StdRng| {
        let mut ids: Vec<i64> = (0..n as i64).collect();
        for i in (1..ids.len()).rev() {
            ids.swap(i, rng.gen_range(0..(i + 1)));
        }
        ids
    };
    let a_schema = Schema::new(vec![
        AttributeDef::new("id", DataType::Long),
        AttributeDef::new("tag", DataType::Str),
        AttributeDef::new("v", DataType::Double),
    ]);
    let b_schema = Schema::new(vec![
        AttributeDef::new("aid", DataType::Long),
        AttributeDef::new("bid", DataType::Long),
    ]);
    let c_schema = Schema::new(vec![
        AttributeDef::new("cid", DataType::Long),
        AttributeDef::new("w", DataType::Double),
    ]);
    let a_tuples = (0..n as i64)
        .map(|id| {
            Tuple::new(vec![
                Value::Long(id),
                Value::Str(format!("t{}", rng.gen_range(0..50i64))),
                Value::Double(rng.gen_f64()),
            ])
        })
        .collect();
    let aid = permutation(&mut rng);
    let b_tuples = aid
        .iter()
        .enumerate()
        .map(|(bid, &aid)| Tuple::new(vec![Value::Long(aid), Value::Long(bid as i64)]))
        .collect();
    let cid = permutation(&mut rng);
    let c_tuples = cid
        .iter()
        .map(|&cid| Tuple::new(vec![Value::Long(cid), Value::Double(rng.gen_f64())]))
        .collect();
    JoinInputs {
        a: answer_bytes(&a_schema, a_tuples),
        b: answer_bytes(&b_schema, b_tuples),
        c: answer_bytes(&c_schema, c_tuples),
        a_schema,
        b_schema,
        c_schema,
    }
}

fn union_predicate() -> Predicate {
    Predicate::all(vec![SelectPredicate::new(
        "x",
        CompareOp::Lt,
        Value::Long(500),
    )])
}

fn union_columns() -> Vec<(String, ScalarExpr)> {
    vec![
        ("x".into(), ScalarExpr::attr("x")),
        ("tag".into(), ScalarExpr::attr("tag")),
    ]
}

/// Row path for the union workload: decode each part, filter, project,
/// append.
fn union_rows(schema: &Schema, parts: &[Vec<u8>]) -> Vec<Tuple> {
    let pred = union_predicate();
    let columns = union_columns();
    let mut out = Vec::new();
    for bytes in parts {
        let answer = SubAnswer::from_wire_bytes(bytes).expect("decodes");
        let kept = exec::filter(schema, &answer.tuples, &pred).expect("filters");
        let (_, projected) = exec::project(schema, &kept, &columns).expect("projects");
        out.extend(projected);
    }
    out
}

/// Batch path for the union workload: decode into columns, filter via
/// selection vectors, project by column re-slicing, concatenate, and
/// materialize once at the end.
fn union_batches(schema: &Schema, parts: &[Vec<u8>]) -> Vec<Tuple> {
    let pred = union_predicate();
    let columns = union_columns();
    let mut combined: Option<disco_common::Batch> = None;
    for bytes in parts {
        let answer = BatchAnswer::from_wire_bytes(bytes).expect("decodes");
        let kept = vexec::filter(schema, &answer.batch, &pred).expect("filters");
        let (_, projected) = vexec::project(schema, &kept, &columns).expect("projects");
        combined = Some(match combined {
            None => projected,
            Some(acc) => vexec::union(&acc, &projected).expect("unions"),
        });
    }
    combined.expect("at least one part").to_tuples()
}

/// Row path for the three-way join.
fn join_rows(inp: &JoinInputs) -> Vec<Tuple> {
    let a = SubAnswer::from_wire_bytes(&inp.a).expect("decodes");
    let b = SubAnswer::from_wire_bytes(&inp.b).expect("decodes");
    let c = SubAnswer::from_wire_bytes(&inp.c).expect("decodes");
    let ab = exec::hash_join(
        &inp.a_schema,
        &a.tuples,
        &inp.b_schema,
        &b.tuples,
        &JoinPredicate::equi("id", "aid"),
    )
    .expect("joins");
    let ab_schema = inp.a_schema.join(&inp.b_schema);
    exec::hash_join(
        &ab_schema,
        &ab,
        &inp.c_schema,
        &c.tuples,
        &JoinPredicate::equi("bid", "cid"),
    )
    .expect("joins")
}

/// Batch path for the three-way join: row-id gathers instead of tuple
/// concatenation, one materialization at the end.
fn join_batches(inp: &JoinInputs) -> Vec<Tuple> {
    let a = BatchAnswer::from_wire_bytes(&inp.a).expect("decodes");
    let b = BatchAnswer::from_wire_bytes(&inp.b).expect("decodes");
    let c = BatchAnswer::from_wire_bytes(&inp.c).expect("decodes");
    let ab = vexec::hash_join(
        &inp.a_schema,
        &a.batch,
        &inp.b_schema,
        &b.batch,
        &JoinPredicate::equi("id", "aid"),
    )
    .expect("joins");
    let ab_schema = inp.a_schema.join(&inp.b_schema);
    vexec::hash_join(
        &ab_schema,
        &ab,
        &inp.c_schema,
        &c.batch,
        &JoinPredicate::equi("bid", "cid"),
    )
    .expect("joins")
    .to_tuples()
}

/// Streamed path for the three-way join: both joins as
/// `HashJoinStream`s over 1,024-row chunks of the decoded inputs, the
/// answer extended chunk by chunk.
fn join_stream(inp: &JoinInputs) -> Vec<Tuple> {
    let source = |schema: &Schema, bytes: &[u8]| -> Box<dyn BatchStream> {
        let answer = BatchAnswer::from_wire_bytes(bytes).expect("decodes");
        Box::new(BatchSource::new(
            schema.clone(),
            answer.batch,
            STREAM_CHUNK_ROWS,
        ))
    };
    let ab = HashJoinStream::new(
        source(&inp.a_schema, &inp.a),
        source(&inp.b_schema, &inp.b),
        JoinPredicate::equi("id", "aid"),
        no_meter(),
        0.0,
    );
    let mut abc = HashJoinStream::new(
        Box::new(ab),
        source(&inp.c_schema, &inp.c),
        JoinPredicate::equi("bid", "cid"),
        no_meter(),
        0.0,
    );
    let mut out = Vec::new();
    while let Some(chunk) = abc.next_batch().expect("joins") {
        out.extend((0..chunk.len()).map(|row| chunk.tuple_at(row)));
    }
    out
}

/// Best-of-k wall time (ms) and the run's output. Never fewer than two
/// repetitions: best-of-1 at the large sizes is noise-prone enough to
/// flake the asserted speedup target on a loaded host.
fn measure(n: usize, mut f: impl FnMut() -> Vec<Tuple>) -> (f64, Vec<Tuple>) {
    let reps = (300_000 / n.max(1)).clamp(2, 5);
    let mut best = f64::INFINITY;
    let mut out = Vec::new();
    for _ in 0..reps {
        let start = Instant::now();
        out = f();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    (best, out)
}

/// Best-of-`reps` wall time (ms).
fn best_of(reps: usize, mut f: impl FnMut() -> Vec<Tuple>) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        let out = f();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(out);
    }
    best
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// Measure the three-way batch join with the metrics registry disabled
/// and enabled, in `OVERHEAD_PAIRS` interleaved pairs; returns the
/// medians (off_ms, on_ms). A single off/on pair is dominated by
/// machine noise (past runs reported −9.9 % "overhead"); interleaving
/// spreads both states across the run and the median discards outliers.
fn instrumentation_overhead() -> (f64, f64) {
    let inputs = join_inputs(OVERHEAD_ROWS);
    let mut off = Vec::with_capacity(OVERHEAD_PAIRS);
    let mut on = Vec::with_capacity(OVERHEAD_PAIRS);
    for _ in 0..OVERHEAD_PAIRS {
        disco_obs::set_enabled(false);
        off.push(best_of(OVERHEAD_REPS, || join_batches(&inputs)));
        disco_obs::set_enabled(true);
        on.push(best_of(OVERHEAD_REPS, || join_batches(&inputs)));
    }
    (median(&mut off), median(&mut on))
}

/// Equivalence check for outputs too large to compare in full: both
/// paths are deterministic and order-preserving, so after the length
/// check an evenly-strided sample (plus the first and last tuple) is
/// compared positionally.
fn assert_sampled_equal(workload: &str, n: usize, row_out: &[Tuple], batch_out: &[Tuple]) {
    assert_eq!(
        row_out.len(),
        batch_out.len(),
        "row and batch cardinality diverge: {workload} at {n} rows"
    );
    let len = row_out.len();
    if len == 0 {
        return;
    }
    let stride = (len / EQUIVALENCE_SAMPLE).max(1);
    for i in (0..len).step_by(stride).chain([0, len - 1]) {
        assert_eq!(
            row_out[i], batch_out[i],
            "row and batch outputs diverge at tuple {i}: {workload} at {n} rows"
        );
    }
}

fn main() {
    println!("E13 — combine-phase scaling: vectorized batches vs row-at-a-time\n");
    let mut t = Table::new(&[
        "workload",
        "rows",
        "out rows",
        "ms (row)",
        "ms (batch)",
        "ms (stream)",
        "speedup",
        "equal",
    ]);
    let mut json_rows = String::new();
    let mut join_target = None;
    let mut join_1m = None;
    for &n in &SIZES {
        for workload in ["union", "join3"] {
            let full = n <= EQUIVALENCE_UP_TO;
            let check = |path: &str, row_out: &[Tuple], out: &[Tuple]| {
                let what = format!("{workload} ({path})");
                if full {
                    assert_eq!(
                        row_out, out,
                        "row and {path} outputs diverge: {what} at {n} rows"
                    );
                } else {
                    // Full comparison would dwarf the measurement; a
                    // strided positional sample still catches real
                    // divergence anywhere in the output.
                    assert_sampled_equal(&what, n, row_out, out);
                }
            };
            let (row_ms, batch_ms, stream_ms, out_rows) = match workload {
                "union" => {
                    let (schema, parts) = union_parts(n);
                    let (row_ms, row_out) = measure(n, || union_rows(&schema, &parts));
                    let (batch_ms, batch_out) = measure(n, || union_batches(&schema, &parts));
                    check("batch", &row_out, &batch_out);
                    (row_ms, batch_ms, None, row_out.len())
                }
                _ => {
                    let inputs = join_inputs(n);
                    let (row_ms, row_out) = measure(n, || join_rows(&inputs));
                    let (batch_ms, batch_out) = measure(n, || join_batches(&inputs));
                    check("batch", &row_out, &batch_out);
                    drop(batch_out);
                    let (stream_ms, stream_out) = measure(n, || join_stream(&inputs));
                    check("stream", &row_out, &stream_out);
                    if n == JOIN_TARGET_ROWS {
                        join_target = Some((row_ms, batch_ms, stream_ms));
                    }
                    if n == JOIN_1M_ROWS {
                        join_1m = Some((batch_ms, stream_ms));
                    }
                    (row_ms, batch_ms, Some(stream_ms), row_out.len())
                }
            };
            let speedup = row_ms / batch_ms.max(1e-9);
            t.row(vec![
                workload.to_string(),
                n.to_string(),
                out_rows.to_string(),
                format!("{row_ms:.2}"),
                format!("{batch_ms:.2}"),
                stream_ms.map_or("-".into(), |ms| format!("{ms:.2}")),
                format!("{speedup:.1}x"),
                if full { "full" } else { "sampled" }.to_string(),
            ]);
            if !json_rows.is_empty() {
                json_rows.push(',');
            }
            let stream_field =
                stream_ms.map_or(String::new(), |ms| format!("\"stream_ms\": {ms:.3}, "));
            write!(
                json_rows,
                "\n    {{\"workload\": \"{workload}\", \"rows\": {n}, \
                 \"output_rows\": {out_rows}, \"row_ms\": {row_ms:.3}, \
                 \"batch_ms\": {batch_ms:.3}, {stream_field}\"speedup\": {speedup:.3}, \
                 \"equivalence\": \"{}\"}}",
                if full { "full" } else { "sampled" },
            )
            .expect("write json row");
        }
    }
    println!("{}", t.render());
    let (row_ms, batch_ms, stream_ms) = join_target.expect("join measured at the target size");
    let target = row_ms / batch_ms.max(1e-9);
    println!(
        "three-way join at {JOIN_TARGET_ROWS} rows: {target:.1}x \
         (target ≥ {JOIN_TARGET_SPEEDUP:.0}x)"
    );
    assert!(
        target >= JOIN_TARGET_SPEEDUP,
        "join speedup at {JOIN_TARGET_ROWS} rows fell below the target: {target:.2}x"
    );
    let stream_ratio = stream_ms / batch_ms.max(1e-9);
    println!(
        "streamed three-way join at {JOIN_TARGET_ROWS} rows: {stream_ratio:.2}x the batch time \
         (limit {STREAM_RATIO_LIMIT}x)"
    );
    assert!(
        stream_ratio <= STREAM_RATIO_LIMIT,
        "streamed join at {JOIN_TARGET_ROWS} rows took {stream_ratio:.2}x the batch join \
         (limit {STREAM_RATIO_LIMIT}x)"
    );
    let (batch_1m_ms, stream_1m_ms) = join_1m.expect("join measured at 1M rows");
    println!(
        "batch three-way join at {JOIN_1M_ROWS} rows: {batch_1m_ms:.1}ms \
         (limit {JOIN_1M_LIMIT_MS:.0}ms); streamed {stream_1m_ms:.1}ms"
    );
    assert!(
        batch_1m_ms <= JOIN_1M_LIMIT_MS,
        "batch join at {JOIN_1M_ROWS} rows took {batch_1m_ms:.1}ms (limit {JOIN_1M_LIMIT_MS:.0}ms)"
    );

    let (off_ms, on_ms) = instrumentation_overhead();
    let overhead = on_ms / off_ms.max(1e-9) - 1.0;
    println!(
        "instrumentation overhead on join3 at {OVERHEAD_ROWS} rows \
         (median of {OVERHEAD_PAIRS} interleaved pairs): \
         off={off_ms:.2}ms on={on_ms:.2}ms ({:+.1}%, limit {:.0}%)",
        overhead * 100.0,
        OVERHEAD_LIMIT * 100.0
    );
    assert!(
        overhead < OVERHEAD_LIMIT,
        "metrics instrumentation slowed the join by {:.1}% (limit {:.0}%)",
        overhead * 100.0,
        OVERHEAD_LIMIT * 100.0
    );

    let json = format!(
        "{{\n  \"bench\": \"executor_scaling\",\n  \
         \"workloads\": [\"union\", \"join3\"],\n  \
         \"rows\": [1000, 1000000],\n  \
         \"join_speedup_at_100k\": {target:.3},\n  \
         \"join_speedup_target\": {JOIN_TARGET_SPEEDUP},\n  \
         \"stream_chunk_rows\": {STREAM_CHUNK_ROWS},\n  \
         \"join_stream_ratio_at_100k\": {stream_ratio:.3},\n  \
         \"join_stream_ratio_limit\": {STREAM_RATIO_LIMIT},\n  \
         \"join3_1m_batch_ms\": {batch_1m_ms:.3},\n  \
         \"join3_1m_stream_ms\": {stream_1m_ms:.3},\n  \
         \"join3_1m_batch_limit_ms\": {JOIN_1M_LIMIT_MS},\n  \
         \"instrumentation_pairs\": {OVERHEAD_PAIRS},\n  \
         \"instrumentation_off_ms\": {off_ms:.3},\n  \
         \"instrumentation_on_ms\": {on_ms:.3},\n  \
         \"instrumentation_overhead\": {overhead:.4},\n  \
         \"instrumentation_overhead_limit\": {OVERHEAD_LIMIT},\n  \
         \"measurements\": [{json_rows}\n  ]\n}}\n"
    );
    std::fs::write("BENCH_executor.json", &json).expect("write BENCH_executor.json");
    println!("\nwrote BENCH_executor.json");
}
