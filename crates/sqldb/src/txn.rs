//! Per-transaction undo logging.
//!
//! While a transaction is open the database records one `UndoOp` per
//! successful row mutation. Rolling back applies the log in reverse, which
//! restores the pre-transaction state *exactly* — row slots, free-list
//! order, secondary-index entry positions, and (when no later insert
//! advanced it) the auto-increment counter — so a rolled-back database is
//! byte-equal to one that never ran the transaction at all.

use crate::table::RowId;
use crate::value::Value;

/// One reversible row mutation recorded while a transaction is open.
#[derive(Debug, Clone)]
pub(crate) enum UndoOp {
    /// A row was inserted at `rid`.
    Insert {
        /// Catalog id of the mutated table.
        table: usize,
        /// Slot the row landed in.
        rid: RowId,
        /// `true` when the insert grew the slot vector (vs. reusing a free
        /// slot); undo pops the vector instead of re-tombstoning.
        new_slot: bool,
        /// Auto-increment counter before the insert.
        prev_next_auto: i64,
        /// Auto-increment counter after the insert; undo only rewinds the
        /// counter when it still has this value (MySQL never reuses ids
        /// handed out before a crash, and neither do we across
        /// transactions).
        post_next_auto: i64,
    },
    /// The row at `rid` was replaced; `old_row` is the pre-image.
    Update {
        /// Catalog id of the mutated table.
        table: usize,
        /// Slot of the replaced row.
        rid: RowId,
        /// Full pre-image of the row.
        old_row: Vec<Value>,
        /// Full post-image of the row. Undo compensates integer columns by
        /// `current + (old - new)` rather than restoring `old` blindly, so
        /// counter-style updates (`stock = stock - ?`) from transactions
        /// that committed in between are not silently erased; for an
        /// uninterleaved transaction `current == new` and the result is the
        /// exact pre-image either way.
        new_row: Vec<Value>,
        /// Position of `rid` within each secondary-index entry before the
        /// update, so undo re-inserts it at the same position instead of
        /// appending.
        sec_pos: Vec<usize>,
    },
    /// The row at `rid` was deleted; `old_row` is the pre-image.
    Delete {
        /// Catalog id of the mutated table.
        table: usize,
        /// Slot the row occupied.
        rid: RowId,
        /// Full pre-image of the row.
        old_row: Vec<Value>,
        /// Secondary-index positions of `rid` before the delete.
        sec_pos: Vec<usize>,
    },
}

impl UndoOp {
    /// Catalog id of the mutated table.
    pub(crate) fn table(&self) -> usize {
        match self {
            UndoOp::Insert { table, .. }
            | UndoOp::Update { table, .. }
            | UndoOp::Delete { table, .. } => *table,
        }
    }
}

/// The undo log of one transaction: every successful row mutation since
/// `BEGIN`, in execution order.
///
/// A committed transaction's log is *kept* by the caller as its write
/// receipt — [`row_deltas`](TxnLog::row_deltas) summarizes the net row-count
/// effect per table, which the consistency auditor replays against the
/// final database. A rolled-back transaction's log is consumed by
/// `Database::apply_rollback`.
#[derive(Debug, Clone, Default)]
pub struct TxnLog {
    ops: Vec<UndoOp>,
}

impl TxnLog {
    /// `true` when the transaction performed no row mutations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of recorded row mutations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    pub(crate) fn record(&mut self, op: UndoOp) {
        self.ops.push(op);
    }

    /// Appends a copy of `other`'s ops, preserving their order. Used by the
    /// rewind journal to absorb a committed transaction's receipt.
    pub(crate) fn extend_cloned(&mut self, other: &TxnLog) {
        self.ops.extend(other.ops.iter().cloned());
    }

    pub(crate) fn into_ops(self) -> Vec<UndoOp> {
        self.ops
    }

    pub(crate) fn ops(&self) -> &[UndoOp] {
        &self.ops
    }

    /// `true` when the log mutated any of the given table ids. Drives the
    /// caches' bypass rule: a transaction that wrote a table must not be
    /// served cached (committed-state) values computed from it.
    pub(crate) fn touches(&self, tables: &[usize]) -> bool {
        self.ops.iter().any(|op| tables.contains(&op.table()))
    }

    /// Catalog ids of every table the transaction mutated, sorted and
    /// deduplicated. `Database::apply_rollback` purges the cache entries
    /// that depend on them when it unwinds the receipt.
    pub fn touched_tables(&self) -> Vec<usize> {
        let mut tables: Vec<usize> = self.ops.iter().map(UndoOp::table).collect();
        tables.sort_unstable();
        tables.dedup();
        tables
    }

    /// Net live-row delta per table id: inserts count +1, deletes −1,
    /// updates 0. Sorted by table id.
    pub fn row_deltas(&self) -> Vec<(usize, i64)> {
        let mut deltas: std::collections::BTreeMap<usize, i64> = std::collections::BTreeMap::new();
        for op in &self.ops {
            match op {
                UndoOp::Insert { table, .. } => *deltas.entry(*table).or_default() += 1,
                UndoOp::Delete { table, .. } => *deltas.entry(*table).or_default() -= 1,
                UndoOp::Update { .. } => {}
            }
        }
        deltas.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_deltas_net_out_per_table() {
        let mut log = TxnLog::default();
        assert!(log.is_empty());
        log.record(UndoOp::Insert {
            table: 0,
            rid: 0,
            new_slot: true,
            prev_next_auto: 1,
            post_next_auto: 2,
        });
        log.record(UndoOp::Update {
            table: 1,
            rid: 3,
            old_row: Vec::new(),
            new_row: Vec::new(),
            sec_pos: Vec::new(),
        });
        log.record(UndoOp::Delete { table: 0, rid: 0, old_row: Vec::new(), sec_pos: Vec::new() });
        log.record(UndoOp::Insert {
            table: 2,
            rid: 5,
            new_slot: false,
            prev_next_auto: 9,
            post_next_auto: 9,
        });
        assert_eq!(log.len(), 4);
        // Updates contribute no entry; insert + delete on table 0 net out.
        assert_eq!(log.row_deltas(), vec![(0, 0), (2, 1)]);
    }
}
