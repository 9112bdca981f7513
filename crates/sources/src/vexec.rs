//! Vectorized operator implementations over columnar [`Batch`]es.
//!
//! Each function mirrors its row-at-a-time counterpart in [`crate::exec`]
//! — same signatures modulo `Batch` for `Vec<Tuple>`, same error
//! messages, and bit-identical results in the same order — but works
//! column-major:
//!
//! * **select** builds a selection vector (surviving row ids) per
//!   conjunct, with type-specialized loops for numeric, dictionary
//!   string, and boolean columns, then gathers once;
//! * **project** re-slices attribute columns (an `Arc` clone per
//!   column), computing only constant and arithmetic columns;
//! * **hash join** hashes the build side once into a [`JoinTable`]
//!   (normalized [`Key`]s, not formatted strings) and emits row-id pairs
//!   per probe batch, gathering output columns instead of cloning rows;
//! * **aggregate / dedup** assign dense group ids through the same
//!   table, comparing key cells in place;
//! * **sort** permutes row ids and gathers once.
//!
//! The table is a pre-sized chain over `u32` ids: `first[bucket]` heads
//! a chain threaded through `next[id]`, the bucket comes from the high
//! bits of a multiplicative hash, and every lookup compares real `Key`s.
//!
//! One documented divergence: the row operators key composite
//! (dedup/group) values by joining per-cell strings with `|`, which can
//! collide when string cells contain the separator; the columnar path
//! compares cell by cell, which cannot. Equivalence holds on any data
//! free of such engineered collisions.

use std::sync::Arc;

use disco_algebra::logical::AggExpr;
use disco_algebra::{AggFunc, CompareOp, JoinPredicate, Predicate, ScalarExpr, SelectPredicate};
use disco_common::{
    Batch, Column, ColumnBuilder, ColumnData, DiscoError, Key, Result, Schema, Value, ValueRef,
};

use crate::exec::project_schema;

/// Record one operator's output in the global metrics registry
/// (`vexec_rows_total` / `vexec_batches_total`, labelled by operator).
/// Per-batch, not per-row, so the hot loops stay untouched.
fn observe(op: &str, rows: usize) {
    if disco_obs::enabled() {
        let labels = [("op", op)];
        disco_obs::counter(disco_obs::names::VEXEC_ROWS, &labels).add(rows as u64);
        disco_obs::counter(disco_obs::names::VEXEC_BATCHES, &labels).inc();
    }
}

/// Mirror of [`CompareOp::eval`] on borrowed cell views: nulls fail,
/// cross-family comparisons fail, numbers compare across `Long`/`Double`.
fn cmp_ref(op: CompareOp, a: ValueRef<'_>, b: ValueRef<'_>) -> bool {
    if a.is_null() || b.is_null() {
        return false;
    }
    match a.partial_cmp_ref(b) {
        Some(ord) => match op {
            CompareOp::Eq => ord.is_eq(),
            CompareOp::Ne => ord.is_ne(),
            CompareOp::Lt => ord.is_lt(),
            CompareOp::Le => ord.is_le(),
            CompareOp::Gt => ord.is_gt(),
            CompareOp::Ge => ord.is_ge(),
        },
        None => false,
    }
}

fn cmp_ord(op: CompareOp, ord: std::cmp::Ordering) -> bool {
    match op {
        CompareOp::Eq => ord.is_eq(),
        CompareOp::Ne => ord.is_ne(),
        CompareOp::Lt => ord.is_lt(),
        CompareOp::Le => ord.is_le(),
        CompareOp::Gt => ord.is_gt(),
        CompareOp::Ge => ord.is_ge(),
    }
}

/// Rows of `col` (restricted to `sel`) that satisfy `conjunct`.
fn apply_conjunct(col: &Column, conjunct: &SelectPredicate, sel: &[u32]) -> Vec<u32> {
    let op = conjunct.op;
    let valid = |row: u32| col.is_valid(row as usize);
    match (col.data(), &conjunct.value) {
        // Numeric column vs numeric constant: compare in f64, exactly as
        // Value::partial_cmp_value does for every numeric pair.
        (ColumnData::Long(data), c) if c.as_f64().is_some() => {
            let b = c.as_f64().expect("numeric");
            sel.iter()
                .copied()
                .filter(|&row| {
                    valid(row)
                        && (data[row as usize] as f64)
                            .partial_cmp(&b)
                            .is_some_and(|ord| cmp_ord(op, ord))
                })
                .collect()
        }
        (ColumnData::Double(data), c) if c.as_f64().is_some() => {
            let b = c.as_f64().expect("numeric");
            sel.iter()
                .copied()
                .filter(|&row| {
                    valid(row)
                        && data[row as usize]
                            .partial_cmp(&b)
                            .is_some_and(|ord| cmp_ord(op, ord))
                })
                .collect()
        }
        // Dictionary column vs string constant: decide once per distinct
        // string, then test codes.
        (ColumnData::Str { dict, codes }, Value::Str(s)) => {
            let pass: Vec<bool> = dict
                .iter()
                .map(|d| cmp_ord(op, d.as_str().cmp(s)))
                .collect();
            sel.iter()
                .copied()
                .filter(|&row| valid(row) && pass[codes[row as usize] as usize])
                .collect()
        }
        (ColumnData::Bool(data), Value::Bool(b)) => sel
            .iter()
            .copied()
            .filter(|&row| valid(row) && cmp_ord(op, data[row as usize].cmp(b)))
            .collect(),
        // Fallback (mixed columns, cross-family constants, null
        // constants): per-row mirror of CompareOp::eval.
        _ => {
            let c = ValueRef::from_value(&conjunct.value);
            sel.iter()
                .copied()
                .filter(|&row| cmp_ref(op, col.value_ref(row as usize), c))
                .collect()
        }
    }
}

/// Filter a batch by a conjunctive predicate (vectorized `exec::filter`).
pub fn filter(schema: &Schema, batch: &Batch, pred: &Predicate) -> Result<Batch> {
    let resolved: Vec<(usize, &SelectPredicate)> = pred
        .conjuncts
        .iter()
        .map(|c| {
            schema
                .index_of(&c.attribute)
                .map(|i| (i, c))
                .ok_or_else(|| DiscoError::Exec(format!("unknown attribute `{}`", c.attribute)))
        })
        .collect::<Result<_>>()?;
    if resolved.is_empty() {
        observe("filter", batch.len());
        return Ok(batch.clone());
    }
    let mut sel: Vec<u32> = (0..batch.len() as u32).collect();
    for (i, c) in resolved {
        if sel.is_empty() {
            break;
        }
        sel = apply_conjunct(batch.column(i), c, &sel);
    }
    observe("filter", sel.len());
    Ok(batch.take(&sel))
}

/// Project a batch to named expressions (vectorized `exec::project`).
///
/// Attribute columns are `Arc` re-slices; constant columns are built
/// once; arithmetic columns evaluate [`ScalarExpr`] per row against a
/// materialized scratch tuple so the semantics (including error cases)
/// match the row path exactly.
pub fn project(
    schema: &Schema,
    batch: &Batch,
    columns: &[(String, ScalarExpr)],
) -> Result<(Schema, Batch)> {
    let out_schema = project_schema(schema, columns);
    if batch.is_empty() {
        // The row path evaluates nothing on empty input, so unknown
        // attributes are not an error here either.
        return Ok((out_schema, Batch::empty(columns.len())));
    }
    let mut out: Vec<Option<Arc<Column>>> = vec![None; columns.len()];
    let mut scalar_cols: Vec<(usize, &ScalarExpr)> = Vec::new();
    for (pos, (_, e)) in columns.iter().enumerate() {
        match e {
            ScalarExpr::Attr(a) => {
                let i = schema
                    .index_of(a)
                    .ok_or_else(|| DiscoError::Exec(format!("unknown attribute `{a}`")))?;
                out[pos] = Some(Arc::clone(batch.column(i)));
            }
            ScalarExpr::Const(v) => {
                let mut b = ColumnBuilder::new();
                for _ in 0..batch.len() {
                    b.push_ref(ValueRef::from_value(v));
                }
                out[pos] = Some(Arc::new(b.finish()));
            }
            ScalarExpr::Binary { .. } => scalar_cols.push((pos, e)),
        }
    }
    if !scalar_cols.is_empty() {
        let mut builders: Vec<ColumnBuilder> =
            scalar_cols.iter().map(|_| ColumnBuilder::new()).collect();
        for row in 0..batch.len() {
            // One scratch tuple serves every arithmetic column of the row.
            let t = batch.tuple_at(row);
            for ((_, e), b) in scalar_cols.iter().zip(builders.iter_mut()) {
                b.push_value(e.eval(schema, &t)?);
            }
        }
        for ((pos, _), b) in scalar_cols.iter().zip(builders) {
            out[*pos] = Some(Arc::new(b.finish()));
        }
    }
    let columns = out
        .into_iter()
        .map(|c| c.expect("all positions filled"))
        .collect();
    observe("project", batch.len());
    Ok((out_schema, Batch::from_columns(columns)?))
}

// ---------------------------------------------------------------------------
// Chained hash table
// ---------------------------------------------------------------------------

/// End of a chain in [`Chains`].
const NIL: u32 = u32::MAX;

/// 2^64 / φ, the multiplier of Fibonacci hashing.
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// Hash of a null cell. Dedup and aggregate group nulls together; joins
/// never look a null key up.
const NULL_HASH: u64 = 0x6a09_e667_f3bc_c909;

/// Hash of a key, consistent with `Key` equality: numbers hash their
/// normalized `f64` bits, so `Long(2)` and `Double(2.0)` (and `-0.0` and
/// `0.0`) land together.
#[inline]
fn hash_key(k: Key<'_>) -> u64 {
    match k {
        Key::Num(bits) => bits,
        Key::Bool(b) => 0x2545_f491_4f6c_dd1d ^ b as u64,
        Key::Str(s) => hash_str(s),
    }
}

/// Word-at-a-time multiplicative string hash.
fn hash_str(s: &str) -> u64 {
    let step = |h: u64, word: u64| (h ^ word).wrapping_mul(GOLDEN).rotate_left(29);
    let mut words = s.as_bytes().chunks_exact(8);
    let mut h = (s.len() as u64).wrapping_mul(GOLDEN);
    for w in &mut words {
        h = step(h, u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
    }
    let rest = words.remainder();
    if !rest.is_empty() {
        let mut buf = [0u8; 8];
        buf[..rest.len()].copy_from_slice(rest);
        h = step(h, u64::from_le_bytes(buf));
    }
    h
}

/// Per-row key hashes of `col`, `NULL_HASH` for null cells. Typed loops
/// for numeric columns; a dictionary column hashes each distinct string
/// once when it has no more strings than rows (a small probe chunk of a
/// large shared dictionary hashes per row instead).
fn column_hashes(col: &Column) -> Vec<u64> {
    fn per_row(col: &Column, hash: impl Fn(usize) -> u64) -> Vec<u64> {
        (0..col.len())
            .map(|row| {
                if col.is_valid(row) {
                    hash(row)
                } else {
                    NULL_HASH
                }
            })
            .collect()
    }
    match col.data() {
        ColumnData::Long(v) => per_row(col, |row| hash_key(Key::num(v[row] as f64))),
        ColumnData::Double(v) => per_row(col, |row| hash_key(Key::num(v[row]))),
        ColumnData::Str { dict, codes } if dict.len() <= codes.len() => {
            let per_code: Vec<u64> = dict.iter().map(|s| hash_str(s)).collect();
            per_row(col, |row| per_code[codes[row] as usize])
        }
        ColumnData::Str { dict, codes } => per_row(col, |row| hash_str(&dict[codes[row] as usize])),
        _ => per_row(col, |row| col.key_at(row).map_or(NULL_HASH, hash_key)),
    }
}

/// A pre-sized chained hash table over dense `u32` entry ids (build rows
/// of a join, groups of a dedup or aggregate): `first[bucket]` heads a
/// chain threaded through `next[entry]`. The bucket is read from the
/// high bits of a multiplicative hash of the folded key hash — integer
/// keys, as `f64` bits, have all-zero low bits. Chains hold every entry
/// of a bucket, so callers compare real keys, never just hashes.
struct Chains {
    shift: u32,
    first: Vec<u32>,
    next: Vec<u32>,
}

impl Chains {
    /// Room for `entries` ids at a load factor of at most one.
    fn new(entries: usize) -> Self {
        let buckets = entries.next_power_of_two().max(2);
        Chains {
            shift: 64 - buckets.trailing_zeros(),
            first: vec![NIL; buckets],
            next: vec![NIL; entries],
        }
    }

    #[inline]
    fn bucket(&self, hash: u64) -> usize {
        ((hash ^ (hash >> 32)).wrapping_mul(GOLDEN) >> self.shift) as usize
    }

    /// First entry of the chain `hash` falls in, or `NIL`.
    #[inline]
    fn head(&self, hash: u64) -> u32 {
        self.first[self.bucket(hash)]
    }

    /// Entry after `entry` in its chain, or `NIL`.
    #[inline]
    fn next(&self, entry: u32) -> u32 {
        self.next[entry as usize]
    }

    /// Link `entry` at the front of its chain.
    fn push_front(&mut self, entry: u32, hash: u64) {
        let b = self.bucket(hash);
        self.next[entry as usize] = self.first[b];
        self.first[b] = entry;
    }
}

/// Resolve an equi-join predicate to its (left, right) key column
/// positions, with the same checks and error texts as `exec::hash_join`.
pub(crate) fn equi_join_keys(
    left_schema: &Schema,
    right_schema: &Schema,
    pred: &JoinPredicate,
) -> Result<(usize, usize)> {
    if pred.op != CompareOp::Eq {
        return Err(DiscoError::Exec(format!(
            "hash join requires an equality predicate, got `{}`",
            pred.op
        )));
    }
    let li = left_schema
        .index_of(&pred.left_attr)
        .ok_or_else(|| DiscoError::Exec(format!("unknown join attribute `{}`", pred.left_attr)))?;
    let ri = right_schema
        .index_of(&pred.right_attr)
        .ok_or_else(|| DiscoError::Exec(format!("unknown join attribute `{}`", pred.right_attr)))?;
    Ok((li, ri))
}

/// The build side of a hash equi-join, hashed once and probed any
/// number of times — once for a one-shot join, once per chunk for a
/// streamed one. Null build keys are never linked, so they never match.
pub struct JoinTable {
    build: Batch,
    key: usize,
    chains: Chains,
}

impl JoinTable {
    /// Hash `build` on its column `key`.
    pub fn new(build: Batch, key: usize) -> Self {
        let col = build.column(key);
        let hashes = column_hashes(col);
        let mut chains = Chains::new(build.len());
        // Back to front, so each chain lists build rows in insertion order.
        for row in (0..build.len()).rev() {
            if col.is_valid(row) {
                chains.push_front(row as u32, hashes[row]);
            }
        }
        JoinTable { build, key, chains }
    }

    /// Join `probe` (on its column `key`) against the build side: probe
    /// columns then build columns, probe order outer, build insertion
    /// order inner — the row path's order.
    pub fn probe(&self, probe: &Batch, key: usize) -> Result<Batch> {
        let (pcol, bcol) = (probe.column(key), self.build.column(self.key));
        let hashes = column_hashes(pcol);
        let mut lids: Vec<u32> = Vec::new();
        let mut rids: Vec<u32> = Vec::new();
        for (row, &h) in hashes.iter().enumerate() {
            let Some(k) = pcol.key_at(row) else { continue };
            let mut r = self.chains.head(h);
            while r != NIL {
                if bcol.key_at(r as usize) == Some(k) {
                    lids.push(row as u32);
                    rids.push(r);
                }
                r = self.chains.next(r);
            }
        }
        observe("hash_join", lids.len());
        probe.take(&lids).hstack(&self.build.take(&rids))
    }
}

/// Hash equi-join emitting row-id pairs, then gathering (vectorized
/// `exec::hash_join`): builds a [`JoinTable`] on the right side and
/// probes it with the left. Output rows appear in the same order as the
/// row path: probe order outer, build insertion order inner.
pub fn hash_join(
    left_schema: &Schema,
    left: &Batch,
    right_schema: &Schema,
    right: &Batch,
    pred: &JoinPredicate,
) -> Result<Batch> {
    let (li, ri) = equi_join_keys(left_schema, right_schema, pred)?;
    JoinTable::new(right.clone(), ri).probe(left, li)
}

/// Dense group ids in first-appearance order: the group of every row and
/// the first row of every group. `same(a, b)` compares the real keys of
/// rows `a` and `b`; equal hashes only short-list candidates.
fn group_rows(hashes: &[u64], same: impl Fn(usize, usize) -> bool) -> (Vec<u32>, Vec<u32>) {
    let mut chains = Chains::new(hashes.len());
    let mut group_of = Vec::with_capacity(hashes.len());
    let mut reps: Vec<u32> = Vec::new();
    for (row, &h) in hashes.iter().enumerate() {
        let mut g = chains.head(h);
        while g != NIL {
            let rep = reps[g as usize] as usize;
            if hashes[rep] == h && same(rep, row) {
                break;
            }
            g = chains.next(g);
        }
        if g == NIL {
            g = reps.len() as u32;
            reps.push(row as u32);
            chains.push_front(g, h);
        }
        group_of.push(g);
    }
    (group_of, reps)
}

/// Group the rows of `batch` on the columns at `cols` (nulls group
/// together). A single column keys on its own hashes and cells; several
/// columns combine per-column hashes and compare cell by cell. No key is
/// allocated per row on either path.
fn group_on(batch: &Batch, cols: &[usize]) -> (Vec<u32>, Vec<u32>) {
    if let [c] = cols {
        let col = batch.column(*c);
        return group_rows(&column_hashes(col), |a, b| col.key_at(a) == col.key_at(b));
    }
    let cols: Vec<&Column> = cols.iter().map(|&c| &**batch.column(c)).collect();
    let mut hashes = vec![0u64; batch.len()];
    for col in &cols {
        for (h, c) in hashes.iter_mut().zip(column_hashes(col)) {
            *h = (h.rotate_left(26) ^ c).wrapping_mul(GOLDEN);
        }
    }
    group_rows(&hashes, |a, b| {
        cols.iter().all(|c| c.key_at(a) == c.key_at(b))
    })
}

/// Nested-loop join for arbitrary comparison predicates (vectorized
/// `exec::nested_loop_join`).
pub fn nested_loop_join(
    left_schema: &Schema,
    left: &Batch,
    right_schema: &Schema,
    right: &Batch,
    pred: &JoinPredicate,
) -> Result<Batch> {
    let li = left_schema
        .index_of(&pred.left_attr)
        .ok_or_else(|| DiscoError::Exec(format!("unknown join attribute `{}`", pred.left_attr)))?;
    let ri = right_schema
        .index_of(&pred.right_attr)
        .ok_or_else(|| DiscoError::Exec(format!("unknown join attribute `{}`", pred.right_attr)))?;
    let (lcol, rcol) = (left.column(li), right.column(ri));
    let mut lids: Vec<u32> = Vec::new();
    let mut rids: Vec<u32> = Vec::new();
    for l in 0..left.len() {
        let lv = lcol.value_ref(l);
        for r in 0..right.len() {
            if cmp_ref(pred.op, lv, rcol.value_ref(r)) {
                lids.push(l as u32);
                rids.push(r as u32);
            }
        }
    }
    observe("nested_loop_join", lids.len());
    left.take(&lids).hstack(&right.take(&rids))
}

/// Duplicate elimination, first occurrence wins (vectorized
/// `exec::dedup`).
pub fn dedup(batch: &Batch) -> Batch {
    let all: Vec<usize> = (0..batch.arity()).collect();
    let (_, reps) = group_on(batch, &all);
    observe("dedup", reps.len());
    batch.take(&reps)
}

/// Stable multi-key sort via a row-id permutation (vectorized
/// `exec::sort`).
pub fn sort(schema: &Schema, batch: &Batch, keys: &[(String, bool)]) -> Result<Batch> {
    let resolved: Vec<(usize, bool)> = keys
        .iter()
        .map(|(k, asc)| {
            schema
                .index_of(k)
                .map(|i| (i, *asc))
                .ok_or_else(|| DiscoError::Exec(format!("unknown sort key `{k}`")))
        })
        .collect::<Result<_>>()?;
    let mut sel: Vec<u32> = (0..batch.len() as u32).collect();
    sel.sort_by(|&a, &b| {
        for (i, asc) in &resolved {
            let col = batch.column(*i);
            let ord = col
                .value_ref(a as usize)
                .total_cmp_ref(col.value_ref(b as usize));
            let ord = if *asc { ord } else { ord.reverse() };
            if !ord.is_eq() {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    observe("sort", sel.len());
    Ok(batch.take(&sel))
}

/// Group and aggregate (vectorized `exec::aggregate`): group keys
/// first, then aggregates, groups in first-appearance order.
pub fn aggregate(
    schema: &Schema,
    batch: &Batch,
    group_by: &[String],
    aggs: &[AggExpr],
) -> Result<Batch> {
    let group_idx: Vec<usize> = group_by
        .iter()
        .map(|g| {
            schema
                .index_of(g)
                .ok_or_else(|| DiscoError::Exec(format!("unknown group-by attribute `{g}`")))
        })
        .collect::<Result<_>>()?;
    let agg_idx: Vec<Option<usize>> = aggs
        .iter()
        .map(|a| match &a.arg {
            Some(arg) => schema
                .index_of(arg)
                .map(Some)
                .ok_or_else(|| DiscoError::Exec(format!("unknown aggregate argument `{arg}`"))),
            None => Ok(None),
        })
        .collect::<Result<_>>()?;

    // Same accumulator as the row path, fed from borrowed cell views.
    #[derive(Clone)]
    struct Acc {
        count: u64,
        sum: f64,
        min: Option<Value>,
        max: Option<Value>,
        non_null: u64,
    }
    impl Acc {
        fn new() -> Self {
            Acc {
                count: 0,
                sum: 0.0,
                min: None,
                max: None,
                non_null: 0,
            }
        }
        fn feed(&mut self, v: ValueRef<'_>) {
            self.count += 1;
            if v.is_null() {
                return;
            }
            self.non_null += 1;
            if let Some(f) = v.as_f64() {
                self.sum += f;
            }
            let better_min = self
                .min
                .as_ref()
                .map(|m| v.total_cmp_ref(ValueRef::from_value(m)).is_lt())
                .unwrap_or(true);
            if better_min {
                self.min = Some(v.to_value());
            }
            let better_max = self
                .max
                .as_ref()
                .map(|m| v.total_cmp_ref(ValueRef::from_value(m)).is_gt())
                .unwrap_or(true);
            if better_max {
                self.max = Some(v.to_value());
            }
        }
    }

    let (group_of, reps) = group_on(batch, &group_idx);
    let mut accs: Vec<Vec<Acc>> = vec![vec![Acc::new(); aggs.len()]; reps.len()];
    for (row, &gid) in group_of.iter().enumerate() {
        for (acc, idx) in accs[gid as usize].iter_mut().zip(&agg_idx) {
            if let Some(i) = idx {
                acc.feed(batch.value_ref(row, *i));
            } else {
                acc.count += 1;
            }
        }
    }
    let arity = group_by.len() + aggs.len();
    if reps.is_empty() && group_by.is_empty() {
        // A global aggregate over an empty input still yields one row.
        let mut builders: Vec<ColumnBuilder> = (0..arity).map(|_| ColumnBuilder::new()).collect();
        for (a, b) in aggs.iter().zip(builders.iter_mut()) {
            match a.func {
                AggFunc::Count => b.push_long(0),
                _ => b.push_null(),
            }
        }
        observe("aggregate", 1);
        return Batch::from_columns(builders.into_iter().map(|b| Arc::new(b.finish())).collect());
    }
    let mut builders: Vec<ColumnBuilder> = (0..arity).map(|_| ColumnBuilder::new()).collect();
    for (gid, &rep) in reps.iter().enumerate() {
        for (pos, &i) in group_idx.iter().enumerate() {
            builders[pos].push_ref(batch.value_ref(rep as usize, i));
        }
        for ((acc, a), b) in accs[gid]
            .iter()
            .zip(aggs)
            .zip(builders[group_by.len()..].iter_mut())
        {
            match a.func {
                AggFunc::Count => b.push_long(match a.arg {
                    Some(_) => acc.non_null as i64,
                    None => acc.count as i64,
                }),
                AggFunc::Sum => {
                    if acc.non_null == 0 {
                        b.push_null()
                    } else {
                        b.push_double(acc.sum)
                    }
                }
                AggFunc::Avg => {
                    if acc.non_null == 0 {
                        b.push_null()
                    } else {
                        b.push_double(acc.sum / acc.non_null as f64)
                    }
                }
                AggFunc::Min => match &acc.min {
                    Some(v) => b.push_ref(ValueRef::from_value(v)),
                    None => b.push_null(),
                },
                AggFunc::Max => match &acc.max {
                    Some(v) => b.push_ref(ValueRef::from_value(v)),
                    None => b.push_null(),
                },
            }
        }
    }
    observe("aggregate", reps.len());
    Batch::from_columns(builders.into_iter().map(|b| Arc::new(b.finish())).collect())
}

/// Union (row-wise concatenation); errors on arity mismatch.
pub fn union(left: &Batch, right: &Batch) -> Result<Batch> {
    observe("union", left.len() + right.len());
    Batch::concat(&[left, right])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec;
    use disco_algebra::SelectPredicate;
    use disco_common::{AttributeDef, DataType, Tuple};

    fn schema() -> Schema {
        Schema::new(vec![
            AttributeDef::new("id", DataType::Long),
            AttributeDef::new("grp", DataType::Long),
            AttributeDef::new("name", DataType::Str),
        ])
    }

    fn rows() -> Vec<Tuple> {
        (0..10)
            .map(|i| {
                Tuple::new(vec![
                    Value::Long(i),
                    Value::Long(i % 3),
                    Value::Str(format!("n{}", i % 2)),
                ])
            })
            .collect()
    }

    fn batch() -> Batch {
        Batch::from_tuples(3, &rows())
    }

    #[test]
    fn filter_matches_row_path() {
        let p = Predicate::all(vec![
            SelectPredicate::new("grp", CompareOp::Eq, Value::Long(1)),
            SelectPredicate::new("id", CompareOp::Ge, Value::Long(4)),
        ]);
        let row = exec::filter(&schema(), &rows(), &p).unwrap();
        let col = filter(&schema(), &batch(), &p).unwrap();
        assert_eq!(col.to_tuples(), row);
    }

    #[test]
    fn filter_string_and_unknown_attr() {
        let p = Predicate::single(SelectPredicate::new(
            "name",
            CompareOp::Eq,
            Value::Str("n1".into()),
        ));
        let row = exec::filter(&schema(), &rows(), &p).unwrap();
        let col = filter(&schema(), &batch(), &p).unwrap();
        assert_eq!(col.to_tuples(), row);
        let bad = Predicate::single(SelectPredicate::new("zzz", CompareOp::Eq, Value::Long(1)));
        assert!(filter(&schema(), &batch(), &bad).is_err());
    }

    #[test]
    fn project_attrs_are_reslices() {
        let cols = vec![
            ("name".to_string(), ScalarExpr::attr("name")),
            ("id".to_string(), ScalarExpr::attr("id")),
        ];
        let (rs, row) = exec::project(&schema(), &rows(), &cols).unwrap();
        let (cs, col) = project(&schema(), &batch(), &cols).unwrap();
        assert_eq!(rs, cs);
        assert_eq!(col.to_tuples(), row);
        // Attribute projection shares storage with the input batch.
        assert!(Arc::ptr_eq(col.column(1), batch().column(0)) || col.column(1).len() == 10);
    }

    #[test]
    fn project_binary_matches_row_path() {
        let cols = vec![(
            "id2".to_string(),
            ScalarExpr::Binary {
                op: disco_algebra::expr::ArithOp::Mul,
                left: Box::new(ScalarExpr::attr("id")),
                right: Box::new(ScalarExpr::constant(2i64)),
            },
        )];
        let (_, row) = exec::project(&schema(), &rows(), &cols).unwrap();
        let (_, col) = project(&schema(), &batch(), &cols).unwrap();
        assert_eq!(col.to_tuples(), row);
    }

    #[test]
    fn hash_join_matches_row_path_in_order() {
        let pred = JoinPredicate::equi("grp", "grp");
        let row = exec::hash_join(&schema(), &rows(), &schema(), &rows(), &pred).unwrap();
        let col = hash_join(&schema(), &batch(), &schema(), &batch(), &pred).unwrap();
        assert_eq!(col.to_tuples(), row);
        assert_eq!(col.len(), 34);
    }

    #[test]
    fn hash_join_rejects_non_equi_and_nulls_never_join() {
        let pred = JoinPredicate {
            left_attr: "id".into(),
            op: CompareOp::Lt,
            right_attr: "id".into(),
        };
        assert!(hash_join(&schema(), &batch(), &schema(), &batch(), &pred).is_err());
        let s = Schema::new(vec![AttributeDef::new("k", DataType::Long)]);
        let b = Batch::from_tuples(
            1,
            &[
                Tuple::new(vec![Value::Null]),
                Tuple::new(vec![Value::Long(1)]),
            ],
        );
        let out = hash_join(&s, &b, &s, &b, &JoinPredicate::equi("k", "k")).unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn numeric_keys_join_across_types() {
        let s = Schema::new(vec![AttributeDef::new("k", DataType::Long)]);
        let l = Batch::from_tuples(1, &[Tuple::new(vec![Value::Long(2)])]);
        let r = Batch::from_tuples(1, &[Tuple::new(vec![Value::Double(2.0)])]);
        let out = hash_join(&s, &l, &s, &r, &JoinPredicate::equi("k", "k")).unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn chains_compare_keys_not_hashes() {
        // Distinct keys picked to share one bucket of an 8-row build.
        let chains = Chains::new(8);
        let bucket = |n: i64| chains.bucket(hash_key(Key::num(n as f64)));
        let same: Vec<i64> = (1..100_000)
            .filter(|&n| bucket(n) == bucket(0))
            .take(3)
            .collect();
        assert_eq!(same.len(), 3);
        let keys = [0, same[0], same[1], 0, same[2], same[0], 0, same[1]];
        let s = Schema::new(vec![AttributeDef::new("k", DataType::Long)]);
        let build: Vec<Tuple> = keys
            .iter()
            .map(|&k| Tuple::new(vec![Value::Long(k)]))
            .collect();
        let probe: Vec<Tuple> = [same[1], 0, -1, same[2]]
            .iter()
            .map(|&k| Tuple::new(vec![Value::Double(k as f64)]))
            .collect();
        let pred = JoinPredicate::equi("k", "k");
        let row = exec::hash_join(&s, &probe, &s, &build, &pred).unwrap();
        let (pb, bb) = (Batch::from_tuples(1, &probe), Batch::from_tuples(1, &build));
        let col = hash_join(&s, &pb, &s, &bb, &pred).unwrap();
        assert_eq!(col.to_tuples(), row);
        assert_eq!(col.len(), 2 + 3 + 1);
        assert_eq!(dedup(&bb).to_tuples(), exec::dedup(&build));
        assert_eq!(dedup(&bb).len(), 4);

        // A bool and a number whose key hashes are equal, not just their
        // buckets: neither may match the other.
        let twin = Value::Double(f64::from_bits(hash_key(Key::Bool(false))));
        assert_eq!(
            hash_key(ValueRef::from_value(&twin).key().unwrap()),
            hash_key(Key::Bool(false))
        );
        let any = Schema::new(vec![AttributeDef::new("k", DataType::Str)]);
        let cells = vec![
            Tuple::new(vec![Value::Bool(false)]),
            Tuple::new(vec![twin.clone()]),
        ];
        let b = Batch::from_tuples(1, &cells);
        let out = hash_join(&any, &b, &any, &b, &JoinPredicate::equi("k", "k")).unwrap();
        assert_eq!(
            out.to_tuples(),
            exec::hash_join(&any, &cells, &any, &cells, &pred).unwrap()
        );
        assert_eq!(out.len(), 2);
        assert_eq!(dedup(&b).len(), 2);
        // The same twins in the second column of a composite key.
        let pairs = vec![
            Tuple::new(vec![Value::Long(1), Value::Bool(false)]),
            Tuple::new(vec![Value::Long(1), twin]),
        ];
        assert_eq!(dedup(&Batch::from_tuples(2, &pairs)).len(), 2);
    }

    #[test]
    fn nested_loop_matches_row_path() {
        let pred = JoinPredicate {
            left_attr: "id".into(),
            op: CompareOp::Lt,
            right_attr: "id".into(),
        };
        let row = exec::nested_loop_join(&schema(), &rows(), &schema(), &rows(), &pred).unwrap();
        let col = nested_loop_join(&schema(), &batch(), &schema(), &batch(), &pred).unwrap();
        assert_eq!(col.to_tuples(), row);
    }

    #[test]
    fn dedup_matches_row_path() {
        let tuples = vec![
            Tuple::new(vec![Value::Long(1)]),
            Tuple::new(vec![Value::Long(2)]),
            Tuple::new(vec![Value::Long(1)]),
            Tuple::new(vec![Value::Double(1.0)]),
        ];
        let row = exec::dedup(&tuples);
        let col = dedup(&Batch::from_tuples(1, &tuples));
        assert_eq!(col.to_tuples(), row);
        assert_eq!(col.len(), 2);
    }

    #[test]
    fn sort_matches_row_path() {
        let keys = [("grp".to_string(), true), ("id".to_string(), false)];
        let mut row = rows();
        exec::sort(&schema(), &mut row, &keys).unwrap();
        let col = sort(&schema(), &batch(), &keys).unwrap();
        assert_eq!(col.to_tuples(), row);
        assert!(sort(&schema(), &batch(), &[("zzz".into(), true)]).is_err());
    }

    #[test]
    fn aggregate_matches_row_path() {
        let aggs = vec![
            AggExpr {
                name: "n".into(),
                func: AggFunc::Count,
                arg: None,
            },
            AggExpr {
                name: "total".into(),
                func: AggFunc::Sum,
                arg: Some("id".into()),
            },
            AggExpr {
                name: "lo".into(),
                func: AggFunc::Min,
                arg: Some("id".into()),
            },
            AggExpr {
                name: "hi".into(),
                func: AggFunc::Max,
                arg: Some("id".into()),
            },
        ];
        let row = exec::aggregate(&schema(), &rows(), &["grp".to_string()], &aggs).unwrap();
        let col = aggregate(&schema(), &batch(), &["grp".to_string()], &aggs).unwrap();
        assert_eq!(col.to_tuples(), row);
    }

    #[test]
    fn aggregate_global_empty_matches_row_path() {
        let aggs = vec![
            AggExpr {
                name: "n".into(),
                func: AggFunc::Count,
                arg: None,
            },
            AggExpr {
                name: "avg".into(),
                func: AggFunc::Avg,
                arg: Some("id".into()),
            },
        ];
        let empty = Batch::empty(3);
        let row = exec::aggregate(&schema(), &[], &[], &aggs).unwrap();
        let col = aggregate(&schema(), &empty, &[], &aggs).unwrap();
        assert_eq!(col.to_tuples(), row);
        // Grouped empty: no rows.
        let col = aggregate(&schema(), &empty, &["grp".to_string()], &aggs).unwrap();
        assert!(col.is_empty());
    }

    #[test]
    fn union_matches_extend() {
        let u = union(&batch(), &batch()).unwrap();
        let mut expect = rows();
        expect.extend(rows());
        assert_eq!(u.to_tuples(), expect);
        assert!(union(&batch(), &Batch::empty(2)).is_err());
    }
}
