//! Row storage with primary-key and secondary B-tree indexes.

use crate::error::{SqlError, SqlResult};
use crate::schema::TableSchema;
use crate::value::Value;
use std::collections::BTreeMap;
use std::ops::Bound;

/// Identifies a row slot within one table. Stable for the row's lifetime;
/// slots of deleted rows are reused.
pub type RowId = usize;

/// Sentinel for an unoccupied dense primary-key slot.
const PK_NONE: RowId = RowId::MAX;

/// The primary-key index.
///
/// Every benchmark table keys on a dense auto-increment integer, so the
/// default representation is a direct-map vector (`slots[key - base]` is
/// the row id): O(1) probes instead of a B-tree descent, and — what the
/// copy-on-write table fork cares about — a clone that is one `memcpy`
/// instead of a node-by-node tree rebuild. String keys, or integer keys
/// that go sparse (span > 4·len + 1024), demote the index to a `BTreeMap`
/// permanently.
///
/// Ordering-sensitive callers (`range`, `pairs`) see the exact sequence
/// the B-tree would produce: dense keys are all `Value::Int`, and
/// ascending offset IS ascending `Value::cmp` order; range bounds are
/// resolved by binary search with `Value::cmp` itself, so cross-type
/// bounds (floats, strings) behave identically in both representations.
#[derive(Debug, Clone)]
enum PkIndex {
    /// `slots[k - base]` holds the row id for integer key `k`.
    Dense {
        base: i64,
        slots: Vec<RowId>,
        len: usize,
    },
    Sparse(BTreeMap<Value, RowId>),
}

impl Default for PkIndex {
    fn default() -> Self {
        PkIndex::Dense { base: 0, slots: Vec::new(), len: 0 }
    }
}

impl PkIndex {
    fn len(&self) -> usize {
        match self {
            PkIndex::Dense { len, .. } => *len,
            PkIndex::Sparse(m) => m.len(),
        }
    }

    /// The row whose key equals `key` under `Value` equality.
    fn get(&self, key: &Value) -> Option<RowId> {
        match self {
            PkIndex::Dense { base, slots, .. } => {
                let k = Self::dense_key(key)?;
                let off = usize::try_from(k.checked_sub(*base)?).ok()?;
                match slots.get(off) {
                    Some(&rid) if rid != PK_NONE => Some(rid),
                    _ => None,
                }
            }
            PkIndex::Sparse(m) => m.get(key).copied(),
        }
    }

    /// The integer key a dense slot would hold for `key`: an `Int` itself,
    /// or an integral `Float` within ±2^53. `Value::cmp` compares an `Int`
    /// with a `Float` as `f64`, so in that range such a float equals exactly
    /// one `Int`; `-0.0` equals none, since `total_cmp` orders it below `0`.
    fn dense_key(key: &Value) -> Option<i64> {
        const EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
        match *key {
            Value::Int(k) => Some(k),
            Value::Float(f) if f.abs() <= EXACT => {
                let k = f as i64;
                (Value::Int(k) == *key).then_some(k)
            }
            _ => None,
        }
    }

    fn contains(&self, key: &Value) -> bool {
        self.get(key).is_some()
    }

    /// `true` when a dense vector spanning `span` slots for `n` keys is
    /// still an acceptable trade of memory for probe speed.
    fn density_ok(span: usize, n: usize) -> bool {
        span <= n.saturating_mul(4) + 1024
    }

    /// Inserts `key -> rid`. The caller has already rejected duplicates.
    fn insert(&mut self, key: Value, rid: RowId) {
        if let PkIndex::Dense { base, slots, len } = self {
            let Some(k) = key.as_int() else {
                self.demote().insert(key, rid);
                return;
            };
            if slots.is_empty() {
                *base = k;
                slots.push(rid);
                *len = 1;
                return;
            }
            match k.checked_sub(*base) {
                Some(off) if off >= 0 => {
                    let off = off as usize;
                    if off < slots.len() {
                        debug_assert_eq!(slots[off], PK_NONE, "duplicate pk slot");
                        slots[off] = rid;
                        *len += 1;
                    } else if Self::density_ok(off + 1, *len + 1) {
                        slots.resize(off + 1, PK_NONE);
                        slots[off] = rid;
                        *len += 1;
                    } else {
                        self.demote().insert(Value::Int(k), rid);
                    }
                }
                Some(neg_off) => {
                    // Key below the base: shift the map down (rare — keys
                    // from auto-increment only ever ascend).
                    let shift = neg_off.unsigned_abs() as usize;
                    if Self::density_ok(slots.len() + shift, *len + 1) {
                        slots.splice(0..0, std::iter::repeat_n(PK_NONE, shift));
                        slots[0] = rid;
                        *base = k;
                        *len += 1;
                    } else {
                        self.demote().insert(Value::Int(k), rid);
                    }
                }
                None => {
                    self.demote().insert(Value::Int(k), rid);
                }
            }
            return;
        }
        let PkIndex::Sparse(m) = self else { unreachable!() };
        m.insert(key, rid);
    }

    fn remove(&mut self, key: &Value) {
        match self {
            PkIndex::Dense { base, slots, len } => {
                let Some(off) = key
                    .as_int()
                    .and_then(|k| k.checked_sub(*base))
                    .and_then(|o| usize::try_from(o).ok())
                else {
                    return;
                };
                if let Some(slot) = slots.get_mut(off) {
                    if *slot != PK_NONE {
                        *slot = PK_NONE;
                        *len -= 1;
                    }
                }
            }
            PkIndex::Sparse(m) => {
                m.remove(key);
            }
        }
    }

    /// Rebuilds as a B-tree and returns it for the pending insert.
    fn demote(&mut self) -> &mut Self {
        if let PkIndex::Dense { base, slots, .. } = self {
            let map: BTreeMap<Value, RowId> = slots
                .iter()
                .enumerate()
                .filter(|(_, rid)| **rid != PK_NONE)
                .map(|(off, rid)| (Value::Int(*base + off as i64), *rid))
                .collect();
            *self = PkIndex::Sparse(map);
        }
        self
    }

    /// First dense offset whose key satisfies `keep` (a monotone predicate
    /// under `Value::cmp`, which ascending offsets follow).
    fn dense_boundary(base: i64, n: usize, keep: impl Fn(&Value) -> bool) -> usize {
        let (mut lo, mut hi) = (0usize, n);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if keep(&Value::Int(base + mid as i64)) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }

    /// Row ids with keys inside the bounds, in ascending key order —
    /// byte-identical to what `BTreeMap::range` over the same pairs yields.
    fn range(&self, lo: Bound<&Value>, hi: Bound<&Value>) -> Vec<RowId> {
        match self {
            PkIndex::Dense { base, slots, .. } => {
                let start = match lo {
                    Bound::Unbounded => 0,
                    Bound::Included(b) => {
                        Self::dense_boundary(*base, slots.len(), |k| k.cmp(b).is_ge())
                    }
                    Bound::Excluded(b) => {
                        Self::dense_boundary(*base, slots.len(), |k| k.cmp(b).is_gt())
                    }
                };
                let end = match hi {
                    Bound::Unbounded => slots.len(),
                    Bound::Included(b) => {
                        Self::dense_boundary(*base, slots.len(), |k| k.cmp(b).is_gt())
                    }
                    Bound::Excluded(b) => {
                        Self::dense_boundary(*base, slots.len(), |k| k.cmp(b).is_ge())
                    }
                };
                slots[start..end.max(start)].iter().copied().filter(|r| *r != PK_NONE).collect()
            }
            PkIndex::Sparse(m) => m.range((lo, hi)).map(|(_, r)| *r).collect(),
        }
    }

    /// `(key, rid)` pairs in ascending key order (equality and diagnostics;
    /// dense keys are synthesized, sparse keys cloned).
    fn pairs(&self) -> Box<dyn Iterator<Item = (Value, RowId)> + '_> {
        match self {
            PkIndex::Dense { base, slots, .. } => Box::new(
                slots
                    .iter()
                    .enumerate()
                    .filter(|(_, rid)| **rid != PK_NONE)
                    .map(move |(off, rid)| (Value::Int(*base + off as i64), *rid)),
            ),
            PkIndex::Sparse(m) => Box::new(m.iter().map(|(k, r)| (k.clone(), *r))),
        }
    }
}

/// Representation-independent equality: the same key→rid mapping compares
/// equal whether it lives in a dense vector or a demoted B-tree.
impl PartialEq for PkIndex {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.pairs().eq(other.pairs())
    }
}

/// A stored table: schema, row slots, and indexes.
///
/// Rows live in a single flat cell arena (`cells`, stride = column count)
/// with a parallel liveness mask, rather than one `Vec<Value>` allocation
/// per row. Inserting into a reused slot overwrites cells in place, and
/// reading a row is a slice borrow — no per-row boxing anywhere on the
/// scan, lookup, or undo paths.
///
/// ```
/// use dynamid_sqldb::{Table, TableSchema, ColumnType, Value};
/// let schema = TableSchema::builder("users")
///     .column("id", ColumnType::Int)
///     .column("nickname", ColumnType::Str)
///     .primary_key("id")
///     .auto_increment()
///     .index("nickname")
///     .build()
///     .unwrap();
/// let mut t = Table::new(schema);
/// let (rid, id) = t.insert(vec![Value::Null, Value::str("bob")]).unwrap();
/// assert_eq!(id, Some(1));
/// assert_eq!(t.get(rid).unwrap()[1], Value::str("bob"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    schema: TableSchema,
    /// Row cells, `width` per slot. Dead slots keep their last values
    /// (excluded from equality) until the slot is reused.
    cells: Vec<Value>,
    /// Cells per row (= number of schema columns).
    width: usize,
    /// Parallel to slots: `true` while the slot holds a live row.
    live_mask: Vec<bool>,
    live: usize,
    free: Vec<RowId>,
    pk_index: PkIndex,
    /// Parallel to `schema.indexes()`: one B-tree per secondary index.
    sec: Vec<BTreeMap<Value, Vec<RowId>>>,
    next_auto: i64,
}

/// Equality compares logical content: schema, slot layout, live rows,
/// free list, indexes, and the auto counter. The garbage cells of dead
/// slots are deliberately excluded — their contents depend on mutation
/// history, not on the data.
impl PartialEq for Table {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema
            && self.live == other.live
            && self.next_auto == other.next_auto
            && self.live_mask == other.live_mask
            && self.free == other.free
            && self.pk_index == other.pk_index
            && self.sec == other.sec
            && self
                .live_mask
                .iter()
                .enumerate()
                .filter(|(_, l)| **l)
                .all(|(rid, _)| self.get(rid) == other.get(rid))
    }
}

impl Table {
    /// Creates an empty table for the schema.
    pub fn new(schema: TableSchema) -> Self {
        let sec = schema.indexes().iter().map(|_| BTreeMap::new()).collect();
        let width = schema.columns().len();
        Table {
            schema,
            cells: Vec::new(),
            width,
            live_mask: Vec::new(),
            live: 0,
            free: Vec::new(),
            pk_index: PkIndex::default(),
            sec,
            next_auto: 1,
        }
    }

    /// The table's schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// Number of live rows.
    pub fn row_count(&self) -> usize {
        self.live
    }

    /// Pre-sizes the cell arena and liveness mask for `additional` upcoming
    /// inserts. Purely an allocation hint — bulk loaders (benchmark
    /// population) use it to skip doubling-growth copies of a
    /// multi-megabyte arena.
    pub fn reserve(&mut self, additional: usize) {
        self.cells.reserve(additional * self.width.max(1));
        self.live_mask.reserve(additional);
    }

    /// Inserts a row (values in schema column order). For an auto-increment
    /// table, pass `Value::Null` as the key to have one assigned. Returns
    /// the row id and the auto-assigned key, if any.
    ///
    /// # Errors
    ///
    /// Fails on arity/type/nullability violations or a duplicate primary
    /// key.
    pub fn insert(&mut self, row: Vec<Value>) -> SqlResult<(RowId, Option<i64>)> {
        let (rid, assigned) = self.store(row)?;
        self.sec_push(rid);
        Ok((rid, assigned))
    }

    /// [`insert`](Self::insert) with the secondary-index pushes deferred:
    /// each index's `(key, rid)` pair is appended to its run in `pending`
    /// (parallel to `schema.indexes()`) for
    /// [`build_deferred`](Self::build_deferred).
    pub(crate) fn insert_deferred(
        &mut self,
        row: Vec<Value>,
        pending: &mut [Vec<(Value, RowId)>],
    ) -> SqlResult<(RowId, Option<i64>)> {
        let (rid, assigned) = self.store(row)?;
        let row = &self.cells[rid * self.width..(rid + 1) * self.width];
        for (run, col) in pending.iter_mut().zip(self.schema.indexes()) {
            run.push((row[*col].clone(), rid));
        }
        Ok((rid, assigned))
    }

    /// Applies the pushes [`insert_deferred`](Self::insert_deferred)
    /// collected. A stable sort by key keeps equal keys in insertion
    /// order, which is the posting order per-row pushes produce. An empty
    /// index is then built in one pass from the sorted run; a non-empty
    /// one appends each key's ids to its entry.
    pub(crate) fn build_deferred(&mut self, pending: Vec<Vec<(Value, RowId)>>) {
        for (index, mut run) in self.sec.iter_mut().zip(pending) {
            run.sort_by(|a, b| a.0.cmp(&b.0));
            let postings = run
                .chunk_by(|a, b| a.0 == b.0)
                .map(|group| (group[0].0.clone(), group.iter().map(|(_, rid)| *rid).collect()));
            if index.is_empty() {
                *index = postings.collect();
            } else {
                for (key, rids) in postings {
                    index.entry(key).or_default().extend(rids);
                }
            }
        }
    }

    /// Everything [`insert`](Self::insert) does except the secondary-index
    /// pushes: auto-increment, row checks, the duplicate-key check, slot
    /// reuse and the primary-key index.
    fn store(&mut self, mut row: Vec<Value>) -> SqlResult<(RowId, Option<i64>)> {
        let mut assigned = None;
        if let Some(pk) = self.schema.primary_key() {
            if self.schema.is_auto_increment() && row.get(pk).is_some_and(Value::is_null) {
                let id = self.next_auto;
                self.next_auto += 1;
                row[pk] = Value::Int(id);
                assigned = Some(id);
            }
        }
        self.schema.check_row(&row)?;
        if let Some(pk) = self.schema.primary_key() {
            if self.pk_index.contains(&row[pk]) {
                return Err(SqlError::DuplicateKey(format!(
                    "{}={}",
                    self.schema.columns()[pk].name(),
                    row[pk]
                )));
            }
            // Keep the auto counter ahead of explicit keys.
            if self.schema.is_auto_increment() {
                if let Some(k) = row[pk].as_int() {
                    self.next_auto = self.next_auto.max(k + 1);
                }
            }
        }
        let rid = match self.free.pop() {
            Some(slot) => {
                for (cell, v) in self.cells[slot * self.width..].iter_mut().zip(row) {
                    *cell = v;
                }
                self.live_mask[slot] = true;
                slot
            }
            None => {
                self.cells.extend(row);
                self.live_mask.push(true);
                self.live_mask.len() - 1
            }
        };
        self.live += 1;
        self.pk_insert(rid);
        Ok((rid, assigned))
    }

    /// The row at `rid`, if live.
    pub fn get(&self, rid: RowId) -> Option<&[Value]> {
        if !self.live_mask.get(rid).copied().unwrap_or(false) {
            return None;
        }
        Some(&self.cells[rid * self.width..(rid + 1) * self.width])
    }

    /// Replaces the row at `rid`, maintaining all indexes.
    ///
    /// # Errors
    ///
    /// Fails if the row id is dead, the new row violates the schema, or the
    /// new primary key duplicates another row's.
    pub fn update(&mut self, rid: RowId, new_row: Vec<Value>) -> SqlResult<()> {
        self.schema.check_row(&new_row)?;
        let Some(old) = self.get(rid) else {
            return Err(SqlError::Constraint(format!("no row {rid}")));
        };
        if let Some(pk) = self.schema.primary_key() {
            if old[pk] != new_row[pk] && self.pk_index.contains(&new_row[pk]) {
                return Err(SqlError::DuplicateKey(format!(
                    "{}={}",
                    self.schema.columns()[pk].name(),
                    new_row[pk]
                )));
            }
        }
        self.index_remove(rid);
        for (cell, v) in self.cells[rid * self.width..].iter_mut().zip(new_row) {
            *cell = v;
        }
        self.index_insert(rid);
        Ok(())
    }

    /// Deletes the row at `rid`.
    ///
    /// # Errors
    ///
    /// Fails if the row id is dead.
    pub fn delete(&mut self, rid: RowId) -> SqlResult<Vec<Value>> {
        if self.get(rid).is_none() {
            return Err(SqlError::Constraint(format!("no row {rid}")));
        }
        self.index_remove(rid);
        let row = self.cells[rid * self.width..(rid + 1) * self.width]
            .iter_mut()
            .map(|cell| std::mem::replace(cell, Value::Null))
            .collect();
        self.live_mask[rid] = false;
        self.free.push(rid);
        self.live -= 1;
        Ok(row)
    }

    /// Iterates live rows in slot order.
    pub fn scan(&self) -> impl Iterator<Item = (RowId, &[Value])> + '_ {
        self.live_mask
            .iter()
            .enumerate()
            .filter(|(_, live)| **live)
            .map(move |(rid, _)| (rid, &self.cells[rid * self.width..(rid + 1) * self.width]))
    }

    /// Looks up a row by primary key.
    pub fn pk_lookup(&self, key: &Value) -> Option<RowId> {
        self.pk_index.get(key)
    }

    /// `true` when lookups on this column can use an index (primary or
    /// secondary).
    pub fn has_index_on(&self, col: usize) -> bool {
        self.schema.primary_key() == Some(col) || self.schema.indexes().contains(&col)
    }

    /// Row ids matching `key` on column `col`, using an index.
    ///
    /// # Panics
    ///
    /// Panics if the column is not indexed; callers check
    /// [`has_index_on`](Self::has_index_on) first (the planner does).
    pub fn index_lookup(&self, col: usize, key: &Value) -> Vec<RowId> {
        if self.schema.primary_key() == Some(col) {
            return self.pk_lookup(key).into_iter().collect();
        }
        let slot = self.secondary_slot(col);
        self.sec[slot].get(key).cloned().unwrap_or_default()
    }

    /// Row ids with column `col` in the given bounds, in key order, using an
    /// index. Bounds that cross, or meet with either one excluded, hold no
    /// key and return no rows.
    ///
    /// # Panics
    ///
    /// Panics if the column is not indexed.
    pub fn index_range(&self, col: usize, lo: Bound<&Value>, hi: Bound<&Value>) -> Vec<RowId> {
        // `BTreeMap::range` panics on crossing bounds.
        let empty = match (lo, hi) {
            (Bound::Included(l), Bound::Included(h)) => l > h,
            (Bound::Included(l) | Bound::Excluded(l), Bound::Included(h) | Bound::Excluded(h)) => {
                l >= h
            }
            _ => false,
        };
        if empty {
            return Vec::new();
        }
        if self.schema.primary_key() == Some(col) {
            return self.pk_index.range(lo, hi);
        }
        let slot = self.secondary_slot(col);
        self.sec[slot].range((lo, hi)).flat_map(|(_, rids)| rids.iter().copied()).collect()
    }

    /// Current auto-increment counter (undo-log bookkeeping).
    pub(crate) fn next_auto(&self) -> i64 {
        self.next_auto
    }

    /// Number of row slots, live or tombstoned (undo-log bookkeeping).
    pub(crate) fn slot_count(&self) -> usize {
        self.live_mask.len()
    }

    /// Position of `rid` within each secondary-index entry, parallel to
    /// `schema.indexes()`. Captured before an update/delete so undo can
    /// re-insert the id at the same position instead of appending.
    pub(crate) fn sec_positions(&self, rid: RowId) -> Vec<usize> {
        let row = self.get(rid).expect("live row");
        self.schema
            .indexes()
            .iter()
            .enumerate()
            .map(|(slot, col)| {
                self.sec[slot]
                    .get(&row[*col])
                    .and_then(|rids| rids.iter().position(|r| *r == rid))
                    .expect("indexed live row")
            })
            .collect()
    }

    /// Reverses an insert: removes the row and restores the slot arena,
    /// free list, and (if no later insert advanced it) the auto-increment
    /// counter to their pre-insert state.
    pub(crate) fn undo_insert(
        &mut self,
        rid: RowId,
        new_slot: bool,
        prev_next_auto: i64,
        post_next_auto: i64,
    ) {
        if self.live_mask.get(rid).copied().unwrap_or(false) {
            self.index_remove(rid);
            self.live_mask[rid] = false;
            self.live -= 1;
            if new_slot && rid + 1 == self.live_mask.len() {
                self.live_mask.pop();
                self.cells.truncate(rid * self.width);
            } else {
                // The slot came off the top of the free stack; put it back.
                self.free.push(rid);
            }
        }
        // Never reuse ids another (committed) insert may have observed:
        // only rewind when the counter is exactly where this insert left it.
        if self.next_auto == post_next_auto {
            self.next_auto = prev_next_auto;
        }
    }

    /// Reverses an update: restores the pre-image row and re-inserts its
    /// index entries at their original positions.
    ///
    /// Integer columns are compensated (`current + (old - new)`) instead of
    /// restored, so counter-style writes from transactions that committed
    /// after this one (`stock = stock - ?`) survive the unwind; with no
    /// interleaving `current == new` and the result is the exact pre-image.
    ///
    /// Concurrent in-flight transactions also unwind in abort order, not
    /// reverse begin order, so the slot may meanwhile have been tombstoned
    /// (or even popped) by another transaction's insert-undo; restoring the
    /// pre-image then resurrects it as a live row.
    pub(crate) fn undo_update(
        &mut self,
        rid: RowId,
        old_row: Vec<Value>,
        new_row: Vec<Value>,
        sec_pos: &[usize],
    ) {
        self.grow_to(rid);
        let restored: Vec<Value> = match self.get(rid) {
            Some(current) => old_row
                .into_iter()
                .zip(new_row)
                .zip(current.iter())
                .map(|((old, new), cur)| match (&old, &new, cur) {
                    (Value::Int(o), Value::Int(n), Value::Int(c)) => {
                        Value::Int(c.wrapping_add(o.wrapping_sub(*n)))
                    }
                    _ => old,
                })
                .collect(),
            None => old_row,
        };
        if self.live_mask[rid] {
            self.index_remove(rid);
        } else {
            if let Some(pos) = self.free.iter().rposition(|r| *r == rid) {
                self.free.remove(pos);
            }
            self.live += 1;
            self.live_mask[rid] = true;
        }
        for (cell, v) in self.cells[rid * self.width..].iter_mut().zip(restored) {
            *cell = v;
        }
        self.index_insert_at(rid, sec_pos);
    }

    /// Reverses a delete: un-tombstones the slot, removes it from the free
    /// list, and re-inserts its index entries at their original positions.
    /// Tolerates a slot already restored or popped by an interleaved
    /// rollback (see [`undo_update`](Self::undo_update)).
    pub(crate) fn undo_delete(&mut self, rid: RowId, old_row: Vec<Value>, sec_pos: &[usize]) {
        self.grow_to(rid);
        if let Some(pos) = self.free.iter().rposition(|r| *r == rid) {
            self.free.remove(pos);
        }
        if self.live_mask[rid] {
            self.index_remove(rid);
        } else {
            self.live += 1;
            self.live_mask[rid] = true;
        }
        for (cell, v) in self.cells[rid * self.width..].iter_mut().zip(old_row) {
            *cell = v;
        }
        self.index_insert_at(rid, sec_pos);
    }

    /// Ensures slot `rid` exists (as a dead slot) so an undo can restore a
    /// row whose slot was popped by an interleaved insert-undo.
    fn grow_to(&mut self, rid: RowId) {
        if rid >= self.live_mask.len() {
            self.live_mask.resize(rid + 1, false);
            self.cells.resize((rid + 1) * self.width, Value::Null);
        }
    }

    /// Like `index_insert`, but places the row id at a recorded position
    /// within each secondary-index entry instead of appending, so undo
    /// restores the exact pre-mutation index layout.
    fn index_insert_at(&mut self, rid: RowId, sec_pos: &[usize]) {
        let Table { schema, cells, width, pk_index, sec, .. } = self;
        let row = &cells[rid * *width..(rid + 1) * *width];
        if let Some(pk) = schema.primary_key() {
            pk_index.insert(row[pk].clone(), rid);
        }
        for (slot, col) in schema.indexes().iter().enumerate() {
            let rids = sec[slot].entry(row[*col].clone()).or_default();
            let pos = sec_pos.get(slot).copied().unwrap_or(rids.len()).min(rids.len());
            rids.insert(pos, rid);
        }
    }

    fn secondary_slot(&self, col: usize) -> usize {
        self.schema
            .indexes()
            .iter()
            .position(|c| *c == col)
            .unwrap_or_else(|| panic!("column {col} is not indexed"))
    }

    fn index_insert(&mut self, rid: RowId) {
        self.pk_insert(rid);
        self.sec_push(rid);
    }

    fn pk_insert(&mut self, rid: RowId) {
        if let Some(pk) = self.schema.primary_key() {
            self.pk_index.insert(self.cells[rid * self.width + pk].clone(), rid);
        }
    }

    /// Appends `rid` to its key's entry in every secondary index.
    fn sec_push(&mut self, rid: RowId) {
        let Table { schema, cells, width, sec, .. } = self;
        let row = &cells[rid * *width..(rid + 1) * *width];
        for (slot, col) in schema.indexes().iter().enumerate() {
            sec[slot].entry(row[*col].clone()).or_default().push(rid);
        }
    }

    fn index_remove(&mut self, rid: RowId) {
        let Table { schema, cells, width, pk_index, sec, .. } = self;
        let row = &cells[rid * *width..(rid + 1) * *width];
        if let Some(pk) = schema.primary_key() {
            pk_index.remove(&row[pk]);
        }
        for (slot, col) in schema.indexes().iter().enumerate() {
            if let Some(rids) = sec[slot].get_mut(&row[*col]) {
                rids.retain(|r| *r != rid);
                if rids.is_empty() {
                    sec[slot].remove(&row[*col]);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnType;

    fn users() -> Table {
        let schema = TableSchema::builder("users")
            .column("id", ColumnType::Int)
            .column("nickname", ColumnType::Str)
            .column("region", ColumnType::Int)
            .primary_key("id")
            .auto_increment()
            .index("nickname")
            .index("region")
            .build()
            .unwrap();
        Table::new(schema)
    }

    fn row(nick: &str, region: i64) -> Vec<Value> {
        vec![Value::Null, Value::str(nick), Value::Int(region)]
    }

    #[test]
    fn auto_increment_assigns_sequential_keys() {
        let mut t = users();
        let (_, a) = t.insert(row("ann", 1)).unwrap();
        let (_, b) = t.insert(row("bob", 2)).unwrap();
        assert_eq!((a, b), (Some(1), Some(2)));
        // Explicit key advances the counter.
        t.insert(vec![Value::Int(10), Value::str("cat"), Value::Int(1)]).unwrap();
        let (_, c) = t.insert(row("dee", 3)).unwrap();
        assert_eq!(c, Some(11));
        assert_eq!(t.row_count(), 4);
    }

    #[test]
    fn duplicate_pk_rejected() {
        let mut t = users();
        t.insert(vec![Value::Int(5), Value::str("a"), Value::Int(1)]).unwrap();
        let err = t.insert(vec![Value::Int(5), Value::str("b"), Value::Int(1)]).unwrap_err();
        assert!(matches!(err, SqlError::DuplicateKey(_)));
    }

    #[test]
    fn pk_and_secondary_lookup() {
        let mut t = users();
        let (r1, _) = t.insert(row("ann", 1)).unwrap();
        let (r2, _) = t.insert(row("bob", 1)).unwrap();
        let (r3, _) = t.insert(row("bob", 2)).unwrap();
        assert_eq!(t.pk_lookup(&Value::Int(1)), Some(r1));
        assert_eq!(t.pk_lookup(&Value::Int(99)), None);
        let mut bobs = t.index_lookup(1, &Value::str("bob"));
        bobs.sort_unstable();
        assert_eq!(bobs, vec![r2, r3]);
        assert_eq!(t.index_lookup(2, &Value::Int(1)).len(), 2);
        assert!(t.has_index_on(0));
        assert!(t.has_index_on(1));
        assert!(!t.has_index_on(999));
    }

    #[test]
    fn index_range_on_pk_and_secondary() {
        let mut t = users();
        for (n, r) in [("a", 1), ("b", 2), ("c", 3), ("d", 4)] {
            t.insert(row(n, r)).unwrap();
        }
        let ids =
            t.index_range(0, Bound::Included(&Value::Int(2)), Bound::Excluded(&Value::Int(4)));
        assert_eq!(ids.len(), 2);
        let regs = t.index_range(2, Bound::Excluded(&Value::Int(2)), Bound::Unbounded);
        assert_eq!(regs.len(), 2);
    }

    /// A users table whose primary key has gone sparse (a B-tree), holding
    /// the keys `ids` and one far-off key.
    fn sparse_users(ids: &[i64]) -> Table {
        let mut t = users();
        t.insert(vec![Value::Int(1 << 40), Value::str("far"), Value::Int(0)]).unwrap();
        for &id in ids {
            t.insert(vec![Value::Int(id), Value::str("s"), Value::Int(id)]).unwrap();
        }
        assert!(matches!(t.pk_index, PkIndex::Sparse(_)));
        t
    }

    #[test]
    fn crossing_range_bounds_return_no_rows() {
        let mut dense = users();
        for id in 1..=4 {
            dense.insert(vec![Value::Int(id), Value::str("d"), Value::Int(id)]).unwrap();
        }
        assert!(matches!(dense.pk_index, PkIndex::Dense { .. }));
        let sparse = sparse_users(&[1, 2, 3, 4]);
        let (inc, exc) = (Bound::Included, Bound::Excluded);
        let (one, three, four) = (Value::Int(1), Value::Int(3), Value::Int(4));
        // The primary key in both representations, then the secondary
        // index on `region`, whose keys are 1..=4 in both tables.
        for (t, col) in [(&dense, 0), (&sparse, 0), (&dense, 2), (&sparse, 2)] {
            for (lo, hi) in [
                (exc(&four), exc(&three)),
                (exc(&three), exc(&three)),
                (inc(&four), inc(&one)),
                (inc(&three), exc(&three)),
                (exc(&three), inc(&three)),
                (inc(&Value::Float(3.5)), inc(&three)),
            ] {
                assert!(t.index_range(col, lo, hi).is_empty(), "col {col}: {lo:?}..{hi:?}");
            }
            assert_eq!(t.index_range(col, inc(&three), inc(&three)).len(), 1);
        }
    }

    #[test]
    fn integral_float_keys_find_their_int_row_in_both_pk_representations() {
        let mut dense = users();
        for id in [0, 1, 3] {
            dense.insert(vec![Value::Int(id), Value::str("d"), Value::Int(id)]).unwrap();
        }
        assert!(matches!(dense.pk_index, PkIndex::Dense { .. }));
        let sparse = sparse_users(&[0, 1, 3]);
        for t in [&dense, &sparse] {
            let three = t.pk_lookup(&Value::Int(3));
            assert!(three.is_some());
            assert_eq!(t.pk_lookup(&Value::Float(3.0)), three);
            assert_eq!(t.index_lookup(0, &Value::Float(3.0)), t.index_lookup(0, &Value::Int(3)));
            for miss in [3.5, 2.0, -3.0, f64::NAN, f64::INFINITY, 1e300] {
                assert_eq!(t.pk_lookup(&Value::Float(miss)), None, "{miss}");
            }
            // `Value` tells -0.0 from the integer 0, and so does the index.
            assert_ne!(Value::Float(-0.0), Value::Int(0));
            assert_eq!(t.pk_lookup(&Value::Float(-0.0)), None);
            assert_eq!(t.pk_lookup(&Value::Float(0.0)), t.pk_lookup(&Value::Int(0)));
        }
        assert_eq!(
            sparse.pk_lookup(&Value::Float((1u64 << 40) as f64)),
            sparse.pk_lookup(&Value::Int(1 << 40))
        );
    }

    #[test]
    fn update_maintains_indexes() {
        let mut t = users();
        let (rid, _) = t.insert(row("ann", 1)).unwrap();
        t.update(rid, vec![Value::Int(1), Value::str("anna"), Value::Int(7)]).unwrap();
        assert!(t.index_lookup(1, &Value::str("ann")).is_empty());
        assert_eq!(t.index_lookup(1, &Value::str("anna")), vec![rid]);
        assert_eq!(t.index_lookup(2, &Value::Int(7)), vec![rid]);
        assert_eq!(t.get(rid).unwrap()[1], Value::str("anna"));
    }

    #[test]
    fn update_pk_change_checked_for_duplicates() {
        let mut t = users();
        let (r1, _) = t.insert(row("a", 1)).unwrap();
        t.insert(row("b", 2)).unwrap();
        let err = t.update(r1, vec![Value::Int(2), Value::str("a"), Value::Int(1)]).unwrap_err();
        assert!(matches!(err, SqlError::DuplicateKey(_)));
        // Changing to a fresh key works and remaps the pk index.
        t.update(r1, vec![Value::Int(9), Value::str("a"), Value::Int(1)]).unwrap();
        assert_eq!(t.pk_lookup(&Value::Int(9)), Some(r1));
        assert_eq!(t.pk_lookup(&Value::Int(1)), None);
    }

    #[test]
    fn delete_frees_slot_and_cleans_indexes() {
        let mut t = users();
        let (r1, _) = t.insert(row("ann", 1)).unwrap();
        let deleted = t.delete(r1).unwrap();
        assert_eq!(deleted[1], Value::str("ann"));
        assert_eq!(t.row_count(), 0);
        assert!(t.get(r1).is_none());
        assert!(t.pk_lookup(&Value::Int(1)).is_none());
        assert!(t.index_lookup(1, &Value::str("ann")).is_empty());
        assert!(t.delete(r1).is_err());
        // Slot reuse.
        let (r2, _) = t.insert(row("bob", 2)).unwrap();
        assert_eq!(r2, r1);
    }

    #[test]
    fn scan_skips_tombstones() {
        let mut t = users();
        let (r1, _) = t.insert(row("a", 1)).unwrap();
        t.insert(row("b", 2)).unwrap();
        t.delete(r1).unwrap();
        let names: Vec<&str> = t.scan().map(|(_, row)| row[1].as_str().unwrap()).collect();
        assert_eq!(names, vec!["b"]);
    }

    #[test]
    fn equality_ignores_dead_slot_history() {
        let mut a = users();
        let mut b = users();
        // Same logical content, different mutation history: each table
        // carries a dead slot whose stale cells the other never held.
        // Equality must look only at live data.
        let (dead_a, _) = a.insert(row("ghost", 9)).unwrap();
        a.insert(row("ann", 1)).unwrap();
        a.delete(dead_a).unwrap();
        let (dead_b, _) = b.insert(row("other", 3)).unwrap();
        b.insert(row("ann", 1)).unwrap();
        b.delete(dead_b).unwrap();
        assert_eq!(a, b);
    }
}
