//! An on-disk B+-tree over buffer-pool pages.
//!
//! Leaf cells hold `key · u16 rid-count · rids`; internal cells hold
//! `key · u64 child`, with the leftmost child in the page's `aux` field.
//! Keys order under [`Value::total_cmp_value`] — the same total order as
//! the in-memory tree in `disco-sources`, so both indexes answer every
//! comparison identically. Leaves chain through `next` for range scans.
//!
//! Inserts rewrite the touched page from a decoded copy (read cells,
//! splice, re-encode): pages stay compact without in-place slot surgery,
//! and splits pre-allocate the right sibling *before* mutating either
//! page — the buffer pool's lock is not reentrant. Like the in-memory
//! tree, deletion is out of scope: stores bulk-load at startup and the
//! workloads are read-only.
//!
//! One key's rid list must fit a single cell (~500 rids); indexing an
//! attribute with heavier duplication than that is rejected at build
//! time rather than silently mis-answered.

use std::cmp::Ordering;

use disco_algebra::CompareOp;
use disco_common::{DiscoError, Result, Value};

use crate::buffer::BufferPool;
use crate::codec::{decode_value, encode_key};
use crate::heap::Rid;
use crate::page::{Page, PageId, PageKind, HEADER_SIZE, PAGE_SIZE};

/// Per-slot directory overhead when sizing cells against a page.
const SLOT_COST: usize = 4;

fn cells_fit(cells: &[Vec<u8>]) -> bool {
    let used: usize = cells.iter().map(|c| SLOT_COST + c.len()).sum();
    HEADER_SIZE + used <= PAGE_SIZE
}

#[derive(Debug, Clone)]
struct LeafCell {
    key: Value,
    key_bytes: Vec<u8>,
    rids: Vec<Rid>,
}

impl LeafCell {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.key_bytes.len() + 2 + self.rids.len() * 8);
        out.extend_from_slice(&self.key_bytes);
        out.extend_from_slice(&(self.rids.len() as u16).to_le_bytes());
        for rid in &self.rids {
            out.extend_from_slice(&rid.to_bytes());
        }
        out
    }

    fn decode(bytes: &[u8]) -> Result<LeafCell> {
        let mut pos = 0;
        let key = decode_value(bytes, &mut pos)?;
        let key_bytes = bytes[..pos].to_vec();
        let n = bytes
            .get(pos..pos + 2)
            .map(|b| u16::from_le_bytes(b.try_into().expect("2 bytes")) as usize)
            .ok_or_else(|| DiscoError::Source("store: truncated leaf cell".into()))?;
        pos += 2;
        let mut rids = Vec::with_capacity(n);
        for _ in 0..n {
            let raw = bytes
                .get(pos..pos + 8)
                .ok_or_else(|| DiscoError::Source("store: truncated leaf cell rids".into()))?;
            rids.push(Rid::from_bytes(raw)?);
            pos += 8;
        }
        Ok(LeafCell {
            key,
            key_bytes,
            rids,
        })
    }
}

#[derive(Debug, Clone)]
struct InnerCell {
    key: Value,
    key_bytes: Vec<u8>,
    child: PageId,
}

impl InnerCell {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.key_bytes.len() + 8);
        out.extend_from_slice(&self.key_bytes);
        out.extend_from_slice(&self.child.to_le_bytes());
        out
    }

    fn decode(bytes: &[u8]) -> Result<InnerCell> {
        let mut pos = 0;
        let key = decode_value(bytes, &mut pos)?;
        let key_bytes = bytes[..pos].to_vec();
        let child = bytes
            .get(pos..pos + 8)
            .map(|b| PageId::from_le_bytes(b.try_into().expect("8 bytes")))
            .ok_or_else(|| DiscoError::Source("store: truncated inner cell".into()))?;
        Ok(InnerCell {
            key,
            key_bytes,
            child,
        })
    }
}

/// What an insert into a subtree reports upward.
type Split = Option<(Vec<u8>, PageId)>;

/// The on-disk B+-tree.
#[derive(Debug, Clone)]
pub struct DiskBTree {
    pool: BufferPool,
    root: PageId,
    height: usize,
    len: usize,
}

impl DiskBTree {
    /// Empty tree: a single leaf root.
    pub fn new(pool: BufferPool) -> Result<DiskBTree> {
        let root = pool.allocate(PageKind::BTreeLeaf)?;
        Ok(DiskBTree {
            pool,
            root,
            height: 1,
            len: 0,
        })
    }

    /// Build from `(value, rid)` pairs in iteration order (rid lists per
    /// key keep that order, matching the in-memory tree).
    pub fn build(
        pool: BufferPool,
        entries: impl IntoIterator<Item = (Value, Rid)>,
    ) -> Result<DiskBTree> {
        let mut t = DiskBTree::new(pool)?;
        for (v, r) in entries {
            t.insert(v, r)?;
        }
        Ok(t)
    }

    /// Number of (key, rid) entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tree height (1 = root is a leaf).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Insert one entry.
    pub fn insert(&mut self, value: Value, rid: Rid) -> Result<()> {
        if let Some((sep_bytes, right)) = self.insert_rec(self.root, self.height, &value, rid)? {
            let new_root = self.pool.allocate(PageKind::BTreeInternal)?;
            let old_root = self.root;
            let cell = InnerCell {
                key: Value::Null, // unused: encode() only reads key_bytes
                key_bytes: sep_bytes,
                child: right,
            }
            .encode();
            self.pool.with_page_mut(new_root, |pg| {
                pg.set_aux(old_root);
                assert!(pg.insert_at(0, &cell), "fresh root holds one cell");
            })?;
            self.root = new_root;
            self.height += 1;
        }
        self.len += 1;
        Ok(())
    }

    fn read_leaf(&self, pid: PageId) -> Result<(Vec<LeafCell>, Option<PageId>)> {
        let page = self.pool.pin(pid)?;
        let next = page.next();
        let cells = page
            .records()
            .map(|(_, bytes)| LeafCell::decode(bytes))
            .collect::<Result<Vec<_>>>()?;
        Ok((cells, next))
    }

    fn read_inner(&self, pid: PageId) -> Result<(PageId, Vec<InnerCell>)> {
        let page = self.pool.pin(pid)?;
        let leftmost = page.aux();
        let cells = page
            .records()
            .map(|(_, bytes)| InnerCell::decode(bytes))
            .collect::<Result<Vec<_>>>()?;
        Ok((leftmost, cells))
    }

    /// Rewrite `pid` from scratch with `cells` in order. Callers checked
    /// [`cells_fit`] first.
    fn rewrite(
        &self,
        pid: PageId,
        kind: PageKind,
        aux: u64,
        next: Option<PageId>,
        cells: &[Vec<u8>],
    ) -> Result<()> {
        self.pool.with_page_mut(pid, |pg: &mut Page| {
            pg.init(kind);
            pg.set_aux(aux);
            pg.set_next(next);
            for (i, cell) in cells.iter().enumerate() {
                assert!(pg.insert_at(i, cell), "cells pre-checked to fit");
            }
        })
    }

    fn insert_rec(&mut self, pid: PageId, level: usize, value: &Value, rid: Rid) -> Result<Split> {
        if level == 1 {
            return self.insert_leaf(pid, value, rid);
        }
        let (leftmost, mut cells) = self.read_inner(pid)?;
        // Route exactly like the in-memory tree: child i+1 covers
        // keys >= cells[i].key.
        let mut pos = 0;
        for (i, c) in cells.iter().enumerate() {
            if value.total_cmp_value(&c.key) != Ordering::Less {
                pos = i + 1;
            } else {
                break;
            }
        }
        let child = if pos == 0 {
            leftmost
        } else {
            cells[pos - 1].child
        };
        let Some((sep_bytes, new_right)) = self.insert_rec(child, level - 1, value, rid)? else {
            return Ok(None);
        };
        let sep_key = {
            let mut p = 0;
            decode_value(&sep_bytes, &mut p)?
        };
        let at = cells
            .binary_search_by(|c| c.key.total_cmp_value(&sep_key))
            .unwrap_or_else(|i| i);
        cells.insert(
            at,
            InnerCell {
                key: sep_key,
                key_bytes: sep_bytes,
                child: new_right,
            },
        );
        let encoded: Vec<Vec<u8>> = cells.iter().map(InnerCell::encode).collect();
        if cells_fit(&encoded) {
            self.rewrite(pid, PageKind::BTreeInternal, leftmost, None, &encoded)?;
            return Ok(None);
        }
        // Split: the middle cell's key moves up; its child becomes the
        // right sibling's leftmost. Allocate before touching either page.
        let right_pid = self.pool.allocate(PageKind::BTreeInternal)?;
        let mid = cells.len() / 2;
        let up = cells[mid].clone();
        let left_enc: Vec<Vec<u8>> = cells[..mid].iter().map(InnerCell::encode).collect();
        let right_enc: Vec<Vec<u8>> = cells[mid + 1..].iter().map(InnerCell::encode).collect();
        self.rewrite(pid, PageKind::BTreeInternal, leftmost, None, &left_enc)?;
        self.rewrite(
            right_pid,
            PageKind::BTreeInternal,
            up.child,
            None,
            &right_enc,
        )?;
        Ok(Some((up.key_bytes, right_pid)))
    }

    fn insert_leaf(&mut self, pid: PageId, value: &Value, rid: Rid) -> Result<Split> {
        let (mut cells, next) = self.read_leaf(pid)?;
        match cells.binary_search_by(|c| c.key.total_cmp_value(value)) {
            Ok(i) => cells[i].rids.push(rid),
            Err(i) => cells.insert(
                i,
                LeafCell {
                    key: value.clone(),
                    key_bytes: encode_key(value),
                    rids: vec![rid],
                },
            ),
        }
        let encoded: Vec<Vec<u8>> = cells.iter().map(LeafCell::encode).collect();
        if let Some(c) = encoded
            .iter()
            .find(|c| HEADER_SIZE + SLOT_COST + c.len() > PAGE_SIZE)
        {
            return Err(DiscoError::Source(format!(
                "store: index cell of {} bytes exceeds one page — too many \
                 duplicate rids for a single key",
                c.len()
            )));
        }
        if cells_fit(&encoded) {
            self.rewrite(pid, PageKind::BTreeLeaf, 0, next, &encoded)?;
            return Ok(None);
        }
        let right_pid = self.pool.allocate(PageKind::BTreeLeaf)?;
        let mid = cells.len() / 2;
        let sep_bytes = cells[mid].key_bytes.clone();
        let left_enc: Vec<Vec<u8>> = cells[..mid].iter().map(LeafCell::encode).collect();
        let right_enc: Vec<Vec<u8>> = cells[mid..].iter().map(LeafCell::encode).collect();
        self.rewrite(pid, PageKind::BTreeLeaf, 0, Some(right_pid), &left_enc)?;
        self.rewrite(right_pid, PageKind::BTreeLeaf, 0, next, &right_enc)?;
        Ok(Some((sep_bytes, right_pid)))
    }

    fn leaf_for(&self, value: &Value) -> Result<PageId> {
        let mut pid = self.root;
        for _ in 1..self.height {
            let (leftmost, cells) = self.read_inner(pid)?;
            let mut child = leftmost;
            for c in &cells {
                if value.total_cmp_value(&c.key) != Ordering::Less {
                    child = c.child;
                } else {
                    break;
                }
            }
            pid = child;
        }
        Ok(pid)
    }

    fn first_leaf(&self) -> Result<PageId> {
        let mut pid = self.root;
        for _ in 1..self.height {
            let (leftmost, _) = self.read_inner(pid)?;
            pid = leftmost;
        }
        Ok(pid)
    }

    /// Rids with exactly `value`, in insertion order.
    pub fn lookup(&self, value: &Value) -> Result<Vec<Rid>> {
        let leaf = self.leaf_for(value)?;
        let (cells, _) = self.read_leaf(leaf)?;
        Ok(cells
            .binary_search_by(|c| c.key.total_cmp_value(value))
            .map(|i| cells[i].rids.clone())
            .unwrap_or_default())
    }

    /// Rids matching `op value`, in key order — same contract as the
    /// in-memory tree: `Ne` returns `None` (an index gives no benefit).
    pub fn scan(&self, op: CompareOp, value: &Value) -> Result<Option<Vec<Rid>>> {
        let mut out = Vec::new();
        // A NULL bound compares false with every key.
        if value.is_null() && op != CompareOp::Ne {
            return Ok(Some(out));
        }
        match op {
            CompareOp::Eq => out.extend(self.lookup(value)?),
            CompareOp::Ne => return Ok(None),
            CompareOp::Lt | CompareOp::Le => {
                let mut leaf = Some(self.first_leaf()?);
                'walk: while let Some(pid) = leaf {
                    let (cells, next) = self.read_leaf(pid)?;
                    for c in &cells {
                        let ord = c.key.total_cmp_value(value);
                        let keep = match op {
                            CompareOp::Lt => ord == Ordering::Less,
                            _ => ord != Ordering::Greater,
                        };
                        if keep {
                            out.extend_from_slice(&c.rids);
                        } else {
                            break 'walk;
                        }
                    }
                    leaf = next;
                }
            }
            CompareOp::Gt | CompareOp::Ge => {
                let mut leaf = Some(self.leaf_for(value)?);
                while let Some(pid) = leaf {
                    let (cells, next) = self.read_leaf(pid)?;
                    for c in &cells {
                        let ord = c.key.total_cmp_value(value);
                        let keep = match op {
                            CompareOp::Gt => ord == Ordering::Greater,
                            _ => ord != Ordering::Less,
                        };
                        if keep {
                            out.extend_from_slice(&c.rids);
                        }
                    }
                    leaf = next;
                }
            }
        }
        Ok(Some(out))
    }

    /// Distinct keys, walking the leaf chain.
    pub fn distinct_keys(&self) -> Result<usize> {
        let mut count = 0;
        let mut leaf = Some(self.first_leaf()?);
        while let Some(pid) = leaf {
            let (cells, next) = self.read_leaf(pid)?;
            count += cells.len();
            leaf = next;
        }
        Ok(count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::PageFile;
    use disco_common::rng;

    fn pool() -> BufferPool {
        BufferPool::new(PageFile::create_temp("btree").unwrap(), 256)
    }

    fn rid(n: u32) -> Rid {
        Rid {
            page: n / 70,
            slot: (n % 70) as u16,
        }
    }

    #[test]
    fn single_leaf_lookup() {
        let mut t = DiskBTree::new(pool()).unwrap();
        for i in [5i64, 1, 9, 3] {
            t.insert(Value::Long(i), rid(i as u32)).unwrap();
        }
        assert_eq!(t.height(), 1);
        assert_eq!(t.lookup(&Value::Long(9)).unwrap(), vec![rid(9)]);
        assert!(t.lookup(&Value::Long(7)).unwrap().is_empty());
    }

    #[test]
    fn duplicate_keys_keep_insertion_order() {
        let mut t = DiskBTree::new(pool()).unwrap();
        for n in [3u32, 1, 2] {
            t.insert(Value::Str("dup".into()), rid(n)).unwrap();
        }
        assert_eq!(
            t.lookup(&Value::Str("dup".into())).unwrap(),
            vec![rid(3), rid(1), rid(2)]
        );
    }

    #[test]
    fn splits_grow_the_tree_and_preserve_answers() {
        let mut t = DiskBTree::new(pool()).unwrap();
        let mut order: Vec<u32> = (0..2000).collect();
        let perm = rng::permutation(&mut rng::seeded(rng::DEFAULT_SEED, "btree-shuffle"), 2000);
        order.sort_by_key(|&i| perm[i as usize]);
        for &i in &order {
            t.insert(Value::Long(i as i64), rid(i)).unwrap();
        }
        assert!(t.height() >= 2, "2000 distinct keys must split");
        assert_eq!(t.len(), 2000);
        for i in (0..2000).step_by(97) {
            assert_eq!(
                t.lookup(&Value::Long(i as i64)).unwrap(),
                vec![rid(i as u32)]
            );
        }
        assert_eq!(t.distinct_keys().unwrap(), 2000);
    }

    #[test]
    fn matches_in_memory_scan_semantics() {
        // Differential check against disco-sources' in-memory tree over
        // the same entries, for every comparison operator.
        let mut r = rng::seeded(rng::DEFAULT_SEED, "btree-diff");
        let values: Vec<i64> = (0..600).map(|_| (r.next_u64() % 97) as i64).collect();
        let mut disk = DiskBTree::new(pool()).unwrap();
        let mut rows: Vec<(i64, u32)> = Vec::new();
        for (n, &v) in values.iter().enumerate() {
            disk.insert(Value::Long(v), rid(n as u32)).unwrap();
            rows.push((v, n as u32));
        }
        let probe = Value::Long(48);
        for op in [
            CompareOp::Eq,
            CompareOp::Ne,
            CompareOp::Lt,
            CompareOp::Le,
            CompareOp::Gt,
            CompareOp::Ge,
        ] {
            let got = disk.scan(op, &probe).unwrap();
            // Reference: sort by (key, insertion) and filter.
            let expect: Option<Vec<Rid>> = match op {
                CompareOp::Ne => None,
                _ => {
                    let mut sorted = rows.clone();
                    sorted.sort_by_key(|&(v, n)| (v, n));
                    Some(
                        sorted
                            .iter()
                            .filter(|&&(v, _)| match op {
                                CompareOp::Eq => v == 48,
                                CompareOp::Lt => v < 48,
                                CompareOp::Le => v <= 48,
                                CompareOp::Gt => v > 48,
                                CompareOp::Ge => v >= 48,
                                CompareOp::Ne => unreachable!(),
                            })
                            .map(|&(_, n)| rid(n))
                            .collect(),
                    )
                }
            };
            assert_eq!(got, expect, "{op:?}");
        }
    }

    #[test]
    fn range_scan_across_leaves() {
        let mut t = DiskBTree::new(pool()).unwrap();
        for i in 0..3000i64 {
            t.insert(Value::Long(i), rid(i as u32)).unwrap();
        }
        let got = t.scan(CompareOp::Ge, &Value::Long(2990)).unwrap().unwrap();
        assert_eq!(got.len(), 10);
        assert_eq!(got[0], rid(2990));
        let low = t.scan(CompareOp::Lt, &Value::Long(5)).unwrap().unwrap();
        assert_eq!(low, (0..5).map(|i| rid(i as u32)).collect::<Vec<_>>());
    }

    #[test]
    fn mixed_type_keys_follow_total_order() {
        let mut t = DiskBTree::new(pool()).unwrap();
        t.insert(Value::Null, rid(0)).unwrap();
        t.insert(Value::Long(1), rid(1)).unwrap();
        t.insert(Value::Str("s".into()), rid(2)).unwrap();
        t.insert(Value::Bool(true), rid(3)).unwrap();
        t.insert(Value::Double(0.5), rid(4)).unwrap();
        assert_eq!(t.len(), 5);
        assert_eq!(t.distinct_keys().unwrap(), 5);
        assert_eq!(t.lookup(&Value::Str("s".into())).unwrap(), vec![rid(2)]);
    }

    #[test]
    fn oversized_rid_list_rejected() {
        let mut t = DiskBTree::new(pool()).unwrap();
        let mut hit_limit = false;
        for n in 0..2000u32 {
            match t.insert(Value::Long(7), rid(n)) {
                Ok(()) => {}
                Err(e) => {
                    assert!(e.to_string().contains("duplicate"), "{e}");
                    hit_limit = true;
                    break;
                }
            }
        }
        assert!(hit_limit, "a ~16 KB rid list cannot fit a 4 KB page");
    }
}
