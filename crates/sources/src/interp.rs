//! The wrapper-side plan interpreter shared by every executing source.
//!
//! A source supplies only its [`AccessPaths`]: a per-query session, the
//! scan, index-select and index-join leaves, a [`Charges`] table and a
//! finish hook. The operator walk over the row operators of [`exec`],
//! the [`SubAnswer`] envelope and the statistics exporter live here
//! once; each source gets its own statically dispatched copy. Charges
//! accrue on the [`VirtualClock`] in a fixed order, so elapsed figures
//! are bit-for-bit reproducible.

use std::collections::HashSet;

use disco_algebra::{CompareOp, LogicalPlan, SelectPredicate};
use disco_catalog::{AttributeStats, CollectionStats, ExtentStats, Histogram};
use disco_common::{DiscoError, Result, Schema, Tuple, Value};

use crate::clock::{CostProfile, VirtualClock};
use crate::exec;
use crate::source::{DataSource, ExecStats, SubAnswer};

/// A schema with its rows.
pub(crate) type Rows = (Schema, Vec<Tuple>);

/// Per-source operator charges (ms).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Charges {
    /// Per row and conjunct filtered; per pair a nested-loop join tests.
    pub pred: f64,
    /// Per projected row.
    pub project: f64,
    /// Per row hashed: hash-join inputs, dedup and aggregate input.
    pub hash: f64,
    /// Per hash-join output row.
    pub join_output: f64,
    /// Per row of a union's right input.
    pub union_row: f64,
    /// Sort coefficient: `sort_factor * n * log2 n`.
    pub sort_factor: f64,
    /// Per outer row of an index join.
    pub probe: f64,
    /// Per delivered result row.
    pub output: f64,
    /// Query start-up.
    pub overhead: f64,
}

impl Charges {
    /// The charges of the paged engines, simulated and on disk.
    pub fn from_profile(p: &CostProfile) -> Self {
        Charges {
            pred: p.cpu_pred_ms,
            project: p.cpu_scan_ms,
            hash: p.cpu_hash_ms,
            join_output: p.cpu_hash_ms,
            union_row: p.cpu_scan_ms,
            sort_factor: p.sort_factor_ms,
            probe: p.probe_ms,
            output: p.output_ms,
            overhead: p.overhead_ms,
        }
    }
}

/// One query in flight: the source's session and the running account.
pub(crate) struct Run<S> {
    pub session: S,
    pub clock: VirtualClock,
    /// Objects examined.
    pub scanned: u64,
}

impl<S> Run<S> {
    pub fn charge(&mut self, ms: f64) {
        self.clock.charge(ms);
    }
}

/// What a source reports when its query ends.
pub(crate) struct SessionEnd {
    pub pages_read: u64,
    pub buffer_hits: u64,
    /// First-tuple time of a pipelined root, before the first delivery.
    pub first_floor_ms: f64,
    /// `engine=` label and (faults, hits, evictions) for the store
    /// metrics; `None` without a buffer pool.
    pub pool: Option<(&'static str, [u64; 3])>,
}

/// How one source reaches its data. A source without indexes keeps the
/// default index leaves.
pub(crate) trait AccessPaths: DataSource {
    /// Per-query state: a cold buffer pool, a store session, or nothing.
    type Session<'a>
    where
        Self: 'a;
    /// The inner side of an index join, resolved once per join.
    type Inner<'a>
    where
        Self: 'a;

    fn charges(&self) -> Charges;

    fn open(&self) -> Self::Session<'_>;

    /// Every row of `coll`, in insertion order.
    fn scan(&self, r: &mut Run<Self::Session<'_>>, coll: &str) -> Result<Rows>;

    /// The rows of `coll` satisfying `cond`, read through an index in
    /// key order (probe included); `None` when no index serves `cond`.
    fn index_select(
        &self,
        _r: &mut Run<Self::Session<'_>>,
        _coll: &str,
        _cond: &SelectPredicate,
    ) -> Result<Option<Rows>> {
        Ok(None)
    }

    /// `coll` as the inner side of an index join on `attr`, with its
    /// schema; `None` when no index on `attr` exists.
    fn index_join<'a>(
        &'a self,
        _coll: &'a str,
        _attr: &'a str,
    ) -> Result<Option<(Schema, Self::Inner<'a>)>> {
        Ok(None)
    }

    /// Hand each inner row whose join key equals `key` to `emit`, in
    /// index order.
    fn lookup(
        &self,
        _r: &mut Run<Self::Session<'_>>,
        _inner: &Self::Inner<'_>,
        _key: &Value,
        _emit: impl FnMut(&Tuple),
    ) -> Result<()> {
        unreachable!("lookup without an index join")
    }

    /// Close the query, charging what the session accounts at the end.
    fn finish(&self, r: &mut Run<Self::Session<'_>>) -> SessionEnd;
}

/// [`DataSource::execute`] for every [`AccessPaths`] source.
pub(crate) fn execute<P: AccessPaths>(paths: &P, plan: &LogicalPlan) -> Result<SubAnswer> {
    let c = paths.charges();
    let mut r = Run {
        session: paths.open(),
        clock: VirtualClock::new(),
        scanned: 0,
    };
    r.charge(c.overhead);
    let (schema, tuples) = walk(paths, &mut r, &c, plan)?;
    let end = paths.finish(&mut r);
    let produced = r.clock.now();
    r.charge(tuples.len() as f64 * c.output);
    let elapsed = r.clock.now();
    let one = (!tuples.is_empty()) as u64 as f64;
    // A blocking root emits only after consuming all input.
    let time_first = if matches!(
        plan,
        LogicalPlan::Sort { .. } | LogicalPlan::Aggregate { .. } | LogicalPlan::Dedup { .. }
    ) {
        produced + one * c.output
    } else {
        end.first_floor_ms + one * c.output
    };
    if let Some((engine, [faults, hits, evictions])) = end.pool {
        if disco_obs::metrics::enabled() {
            let labels = &[("engine", engine), ("source", paths.name())][..];
            disco_obs::counter(disco_obs::names::STORE_PAGE_FAULTS, labels).add(faults);
            disco_obs::counter(disco_obs::names::STORE_BUFFER_HITS, labels).add(hits);
            disco_obs::counter(disco_obs::names::STORE_EVICTIONS, labels).add(evictions);
        }
    }
    Ok(SubAnswer {
        schema,
        tuples,
        stats: ExecStats {
            elapsed_ms: elapsed,
            time_first_ms: time_first.min(elapsed),
            pages_read: end.pages_read,
            buffer_hits: end.buffer_hits,
            objects_scanned: r.scanned,
        },
    })
}

fn walk<P: AccessPaths>(
    paths: &P,
    r: &mut Run<P::Session<'_>>,
    c: &Charges,
    plan: &LogicalPlan,
) -> Result<Rows> {
    match plan {
        LogicalPlan::Scan { collection, .. } => paths.scan(r, &collection.collection),
        LogicalPlan::Select { input, predicate } => {
            // Index access path: one conjunct straight over a collection.
            if let (LogicalPlan::Scan { collection, .. }, [cond]) =
                (input.as_ref(), predicate.conjuncts.as_slice())
            {
                if let Some(rows) = paths.index_select(r, &collection.collection, cond)? {
                    return Ok(rows);
                }
            }
            let (schema, tuples) = walk(paths, r, c, input)?;
            r.charge(tuples.len() as f64 * predicate.conjuncts.len() as f64 * c.pred);
            let out = exec::filter(&schema, &tuples, predicate)?;
            Ok((schema, out))
        }
        LogicalPlan::Project { input, columns } => {
            let (schema, tuples) = walk(paths, r, c, input)?;
            r.charge(tuples.len() as f64 * c.project);
            exec::project(&schema, &tuples, columns)
        }
        LogicalPlan::Sort { input, keys } => {
            let (schema, mut tuples) = walk(paths, r, c, input)?;
            let n = tuples.len() as f64;
            r.charge(c.sort_factor * n * n.max(2.0).log2());
            exec::sort(&schema, &mut tuples, keys)?;
            Ok((schema, tuples))
        }
        LogicalPlan::Join {
            left,
            right,
            predicate,
            ..
        } => {
            // Index join: the inner side is a collection indexed on the
            // join attribute.
            if let (CompareOp::Eq, LogicalPlan::Scan { collection, .. }) =
                (predicate.op, right.as_ref())
            {
                if let Some((rs, inner)) =
                    paths.index_join(&collection.collection, &predicate.right_attr)?
                {
                    let (ls, lt) = walk(paths, r, c, left)?;
                    let li = ls.index_of(&predicate.left_attr).ok_or_else(|| {
                        DiscoError::Exec(format!(
                            "unknown join attribute `{}`",
                            predicate.left_attr
                        ))
                    })?;
                    let mut out = Vec::new();
                    for l in &lt {
                        r.charge(c.probe);
                        let Some(v) = l.get(li) else { continue };
                        paths.lookup(r, &inner, v, |t| out.push(l.join(t)))?;
                    }
                    return Ok((ls.join(&rs), out));
                }
            }
            let (ls, lt) = walk(paths, r, c, left)?;
            let (rs, rt) = walk(paths, r, c, right)?;
            let out = if predicate.op == CompareOp::Eq {
                r.charge((lt.len() + rt.len()) as f64 * c.hash);
                let out = exec::hash_join(&ls, &lt, &rs, &rt, predicate)?;
                r.charge(out.len() as f64 * c.join_output);
                out
            } else {
                r.charge((lt.len() * rt.len()) as f64 * c.pred);
                exec::nested_loop_join(&ls, &lt, &rs, &rt, predicate)?
            };
            Ok((ls.join(&rs), out))
        }
        LogicalPlan::Union { left, right } => {
            let (ls, mut lt) = walk(paths, r, c, left)?;
            let (rs, rt) = walk(paths, r, c, right)?;
            if ls.arity() != rs.arity() {
                return Err(DiscoError::Exec("union arity mismatch".into()));
            }
            r.charge(rt.len() as f64 * c.union_row);
            lt.extend(rt);
            Ok((ls, lt))
        }
        LogicalPlan::Dedup { input } => {
            let (schema, tuples) = walk(paths, r, c, input)?;
            r.charge(tuples.len() as f64 * c.hash);
            Ok((schema, exec::dedup(&tuples)))
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let (schema, tuples) = walk(paths, r, c, input)?;
            r.charge(tuples.len() as f64 * c.hash);
            let out = exec::aggregate(&schema, &tuples, group_by, aggs)?;
            Ok((plan.output_schema()?, out))
        }
        LogicalPlan::Submit { .. } => Err(DiscoError::Source(
            "data sources do not execute `submit` operators".into(),
        )),
    }
}

/// Statistics computed from a collection's rows (the paper's
/// `cardinality` methods): per attribute the distinct count, min and
/// max of the non-null values, `indexed`, and an equi-depth histogram
/// of the numeric values when `histogram_buckets` is set. Clustering is
/// deliberately not exported: the generic model cannot see it (§5/§7).
pub(crate) fn statistics(
    schema: &Schema,
    tuples: &[Tuple],
    extent: ExtentStats,
    indexed: impl Fn(&str) -> bool,
    histogram_buckets: Option<usize>,
) -> CollectionStats {
    let mut stats = CollectionStats::new(extent);
    for (i, attr) in schema.attributes().iter().enumerate() {
        let (mut min, mut max): (Option<&Value>, Option<&Value>) = (None, None);
        let mut distinct = HashSet::new();
        for v in tuples.iter().filter_map(|t| t.get(i)) {
            if v.is_null() {
                continue;
            }
            distinct.insert(format!("{v}"));
            if min.is_none_or(|m| v.total_cmp_value(m).is_lt()) {
                min = Some(v);
            }
            if max.is_none_or(|m| v.total_cmp_value(m).is_gt()) {
                max = Some(v);
            }
        }
        let mut a = AttributeStats::new(
            distinct.len().max(1) as u64,
            min.cloned().unwrap_or(Value::Null),
            max.cloned().unwrap_or(Value::Null),
        );
        a.indexed = indexed(&attr.name);
        if let Some(buckets) = histogram_buckets {
            let values: Vec<f64> = tuples
                .iter()
                .filter_map(|t| t.get(i).and_then(Value::as_f64))
                .collect();
            if let Some(h) = Histogram::equi_depth(&values, buckets) {
                a = a.with_histogram(h);
            }
        }
        stats = stats.with_attribute(attr.name.clone(), a);
    }
    stats
}
