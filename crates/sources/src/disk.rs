//! A [`DataSource`] backed by the real disk engine in `disco-store`.
//!
//! [`StoreSource`] hands the wrapper-side interpreter the same access
//! paths as [`PagedStore`] (sequential scans, index selections, index
//! joins) but its page faults are *performed*, not simulated: every
//! heap or index page comes through `disco-store`'s buffer pool, and
//! [`ExecStats::pages_read`] reports the data-page faults that actually
//! happened. CPU and delivery time still accrue on the virtual clock
//! with the same constants as the simulated engine, and each fault
//! charges the same 25 ms, so elapsed figures stay comparable
//! across the two engines; index-page I/O is counted in the pool's
//! metrics but not charged (the simulated engine keeps its index in
//! memory, and the cost rules fold traversal into `Probe`).
//!
//! Unlike the simulated store, the pool is *shared across queries*: runs
//! warm unless [`StoreSource::clear_cache`] intervenes. Cold-cache
//! experiments (the Yao validation regime) clear between queries;
//! leaving the cache warm exercises the catalog's `CacheRegime::Warm`
//! scopes.
//!
//! [`PagedStore`]: crate::store::PagedStore
//! [`ExecStats::pages_read`]: crate::source::ExecStats::pages_read

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use disco_algebra::{LogicalPlan, SelectPredicate};
use disco_catalog::{CollectionStats, ExtentStats};
use disco_common::{Result, Schema, Tuple, Value};
use disco_store::{DiskStore, PoolCounters, Rid, StoreSession};

use crate::clock::CostProfile;
use crate::interp::{self, AccessPaths, Charges, Rows, Run, SessionEnd};
use crate::source::{DataSource, SubAnswer};

/// A disk-backed data source.
#[derive(Debug, Clone)]
pub struct StoreSource {
    store: DiskStore,
    profile: CostProfile,
    histogram_buckets: Option<usize>,
    stats_cache: Arc<Mutex<BTreeMap<String, CollectionStats>>>,
}

impl StoreSource {
    /// Wrap a loaded [`DiskStore`] with a cost profile.
    pub fn new(store: DiskStore, profile: CostProfile) -> Self {
        StoreSource {
            store,
            profile,
            histogram_buckets: None,
            stats_cache: Arc::new(Mutex::new(BTreeMap::new())),
        }
    }

    /// Export equi-depth histograms for numeric attributes, like
    /// [`PagedStore::with_histograms`].
    ///
    /// [`PagedStore::with_histograms`]: crate::store::PagedStore::with_histograms
    pub fn with_histograms(mut self, buckets: usize) -> Self {
        self.histogram_buckets = Some(buckets.max(1));
        self
    }

    /// The underlying store.
    pub fn store(&self) -> &DiskStore {
        &self.store
    }

    /// The store's cost profile.
    pub fn profile(&self) -> &CostProfile {
        &self.profile
    }

    /// Drop cached pages so the next query runs against a cold pool.
    pub fn clear_cache(&self) -> Result<()> {
        self.store.clear_cache()
    }

    /// Lifetime buffer-pool counters (across all queries so far).
    pub fn pool_counters(&self) -> PoolCounters {
        self.store.counters()
    }
}

impl AccessPaths for StoreSource {
    type Session<'a> = StoreSession<'a>;
    /// Collection name and indexed join attribute.
    type Inner<'a> = (&'a str, &'a str);

    fn charges(&self) -> Charges {
        Charges::from_profile(&self.profile)
    }

    fn open(&self) -> StoreSession<'_> {
        self.store.session()
    }

    fn scan(&self, r: &mut Run<StoreSession<'_>>, coll: &str) -> Result<Rows> {
        let schema = self.store.collection(coll)?.schema().clone();
        let tuples = r.session.scan(coll)?;
        r.charge(tuples.len() as f64 * self.profile.cpu_scan_ms);
        r.scanned += tuples.len() as u64;
        Ok((schema, tuples))
    }

    fn index_select(
        &self,
        r: &mut Run<StoreSession<'_>>,
        coll: &str,
        cond: &SelectPredicate,
    ) -> Result<Option<Rows>> {
        let c = self.store.collection(coll)?;
        let Some(rids) = r
            .session
            .index_rids(coll, &cond.attribute, cond.op, &cond.value)?
        else {
            return Ok(None);
        };
        r.charge(self.profile.probe_ms);
        let mut out = Vec::with_capacity(rids.len());
        for rid in rids {
            out.push(self.fetch(r, coll, rid)?);
        }
        Ok(Some((c.schema().clone(), out)))
    }

    fn index_join<'a>(
        &'a self,
        coll: &'a str,
        attr: &'a str,
    ) -> Result<Option<(Schema, Self::Inner<'a>)>> {
        let c = self.store.collection(coll)?;
        Ok(c.has_index(attr)
            .then(|| (c.schema().clone(), (coll, attr))))
    }

    fn lookup(
        &self,
        r: &mut Run<StoreSession<'_>>,
        &(coll, attr): &Self::Inner<'_>,
        key: &Value,
        mut emit: impl FnMut(&Tuple),
    ) -> Result<()> {
        for rid in r.session.lookup_rids(coll, attr, key)?.unwrap_or_default() {
            emit(&self.fetch(r, coll, rid)?);
        }
        Ok(())
    }

    fn finish(&self, r: &mut Run<StoreSession<'_>>) -> SessionEnd {
        let io = r.session.io();
        // Charge the fault I/O that physically happened (data pages; see
        // module docs for why index pages are uncharged).
        r.charge(io.data_faults as f64 * self.profile.io_ms);
        SessionEnd {
            pages_read: io.data_faults,
            buffer_hits: io.hits,
            first_floor_ms: self.profile.overhead_ms
                + (io.data_faults > 0) as u64 as f64 * self.profile.io_ms,
            pool: Some(("disk", [io.faults, io.hits, io.evictions])),
        }
    }
}

impl StoreSource {
    /// Read one row by rid through the pool, examine the object.
    fn fetch(&self, r: &mut Run<StoreSession<'_>>, coll: &str, rid: Rid) -> Result<Tuple> {
        let row = r.session.fetch(coll, rid)?;
        r.charge(self.profile.cpu_scan_ms);
        r.scanned += 1;
        Ok(row)
    }

    fn compute_statistics(&self, collection: &str) -> Option<CollectionStats> {
        let c = self.store.collection(collection).ok()?;
        let tuples = self.store.session().scan(collection).ok()?;
        let n = tuples.len() as u64;
        let extent = ExtentStats {
            count_object: n,
            total_size: n * c.object_size(),
            object_size: c.object_size(),
            count_page: None,
        }
        // Real engines know their page count — export it measured.
        .with_count_page(c.pages());
        Some(interp::statistics(
            c.schema(),
            &tuples,
            extent,
            |attr| c.has_index(attr),
            self.histogram_buckets,
        ))
    }
}

impl DataSource for StoreSource {
    fn name(&self) -> &str {
        self.store.name()
    }

    fn collections(&self) -> Vec<(String, Schema)> {
        self.store.collections()
    }

    fn statistics(&self, collection: &str) -> Option<CollectionStats> {
        if let Some(cached) = self
            .stats_cache
            .lock()
            .expect("stats cache")
            .get(collection)
        {
            return Some(cached.clone());
        }
        let stats = self.compute_statistics(collection)?;
        self.stats_cache
            .lock()
            .expect("stats cache")
            .insert(collection.to_string(), stats.clone());
        Some(stats)
    }

    fn execute(&self, plan: &LogicalPlan) -> Result<SubAnswer> {
        interp::execute(self, plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disco_algebra::{CompareOp, PlanBuilder};
    use disco_common::{AttributeDef, DataType, QualifiedName};
    use disco_store::{DiskCollectionBuilder, DiskStoreBuilder};

    fn schema() -> Schema {
        Schema::new(vec![
            AttributeDef::new("id", DataType::Long),
            AttributeDef::new("v", DataType::Long),
        ])
    }

    fn source(n: i64) -> StoreSource {
        let store = DiskStoreBuilder::new("disk")
            .collection(
                "T",
                DiskCollectionBuilder::new(schema())
                    .rows((0..n).map(|i| vec![Value::Long(i), Value::Long(i % 10)]))
                    .object_size(56)
                    .index("id"),
            )
            .build()
            .unwrap();
        StoreSource::new(store, CostProfile::object_store())
    }

    fn scan() -> PlanBuilder {
        PlanBuilder::scan(QualifiedName::new("disk", "T"), schema())
    }

    #[test]
    fn scan_executes_and_reports_real_faults() {
        let s = source(700);
        s.clear_cache().unwrap();
        let plan = scan().build();
        let a = s.execute(&plan).unwrap();
        assert_eq!(a.tuples.len(), 700);
        // 700 × 56 B at 96 % fill → 70 per page → 10 pages, all faulted.
        assert_eq!(a.stats.pages_read, 10);
        assert_eq!(a.stats.objects_scanned, 700);
        // Warm re-run: zero faults, all hits.
        let b = s.execute(&plan).unwrap();
        assert_eq!(b.stats.pages_read, 0);
        assert!(b.stats.buffer_hits >= 10);
        assert_eq!(b.tuples, a.tuples);
    }

    #[test]
    fn index_select_fetches_only_matching_pages() {
        let s = source(700);
        s.clear_cache().unwrap();
        let plan = scan().select("id", CompareOp::Eq, 123i64).build();
        let a = s.execute(&plan).unwrap();
        assert_eq!(a.tuples.len(), 1);
        assert_eq!(a.stats.pages_read, 1);
        assert_eq!(a.tuples[0].get(0), Some(&Value::Long(123)));
    }

    #[test]
    fn statistics_export_measured_pages() {
        let s = source(700);
        let stats = s.statistics("T").unwrap();
        assert_eq!(stats.extent.count_object, 700);
        assert_eq!(stats.extent.count_page, Some(10));
        assert_eq!(stats.extent.count_pages(4_096), 10);
        assert!(stats.attributes.get("id").unwrap().indexed);
        assert!(!stats.attributes.get("v").unwrap().indexed);
        // Cached second call.
        assert_eq!(s.statistics("T").unwrap(), stats);
        assert!(s.statistics("missing").is_none());
    }

    #[test]
    fn elapsed_matches_simulated_formula_for_cold_scan() {
        let s = source(700);
        s.clear_cache().unwrap();
        let plan = scan().build();
        let a = s.execute(&plan).unwrap();
        let p = CostProfile::object_store();
        let expect = p.overhead_ms + 10.0 * p.io_ms + 700.0 * p.cpu_scan_ms + 700.0 * p.output_ms;
        assert!((a.stats.elapsed_ms - expect).abs() < 1e-9);
    }
}
