//! Analytic cost model: execution counters → CPU microseconds.
//!
//! The simulator charges the database machine's CPU for each statement. The
//! charge derives from what the executor *actually did* — rows examined,
//! index probes, rows sorted, bytes marshalled — so a `BestSellers` scan
//! over 10,000 items is organically ~three orders of magnitude more
//! expensive than a primary-key point read, exactly the asymmetry that makes
//! the bookstore benchmark database-bound in the paper.
//!
//! Constants are calibrated against MySQL 3.23 on the paper's 1.33 GHz
//! Athlon hardware (see EXPERIMENTS.md for the calibration procedure).

/// Counters accumulated while executing one statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueryCounters {
    /// Rows visited (scans, index probes, join lookups).
    pub rows_examined: u64,
    /// Rows in the result set.
    pub rows_returned: u64,
    /// Rows inserted, updated, or deleted.
    pub rows_written: u64,
    /// Index probes performed.
    pub index_lookups: u64,
    /// Rows that went through a sort.
    pub sort_rows: u64,
    /// Result-set payload bytes.
    pub bytes_returned: u64,
}

impl QueryCounters {
    /// Merges another statement's counters into this one (for per-request
    /// accounting in the middleware layer).
    pub fn absorb(&mut self, other: &QueryCounters) {
        self.rows_examined += other.rows_examined;
        self.rows_returned += other.rows_returned;
        self.rows_written += other.rows_written;
        self.index_lookups += other.index_lookups;
        self.sort_rows += other.sort_rows;
        self.bytes_returned += other.bytes_returned;
    }
}

/// Per-operation CPU charges, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DbCostModel {
    /// Fixed cost per statement (parse, dispatch, plan).
    pub per_statement: f64,
    /// Per row visited.
    pub per_row_examined: f64,
    /// Per row placed in the result set.
    pub per_row_returned: f64,
    /// Per result byte marshalled.
    pub per_byte_returned: f64,
    /// Per index probe.
    pub per_index_lookup: f64,
    /// Per row written (includes index maintenance).
    pub per_row_written: f64,
    /// Multiplier for `n * log2(n)` sorting work.
    pub sort_factor: f64,
    /// Flat charge for a read answered from the query cache: key hash and
    /// lookup only — no parse, no lock manager, no row access. Modeled on
    /// the MySQL query cache, which answers before the lock manager is
    /// consulted.
    pub result_cache_hit_micros: f64,
}

impl Default for DbCostModel {
    /// Values calibrated for a ~1.33 GHz single-core database server running
    /// an early-2000s MySQL/MyISAM: point reads land around 200–300 µs,
    /// full scans cost ~1.5 µs per row, writes ~500 µs.
    fn default() -> Self {
        DbCostModel {
            per_statement: 250.0,
            per_row_examined: 2.0,
            per_row_returned: 5.0,
            per_byte_returned: 0.02,
            per_index_lookup: 6.0,
            per_row_written: 300.0,
            sort_factor: 0.4,
            result_cache_hit_micros: 20.0,
        }
    }
}

impl DbCostModel {
    /// CPU microseconds for a statement with the given counters.
    pub fn cost_micros(&self, c: &QueryCounters) -> u64 {
        let sort = if c.sort_rows > 1 {
            self.sort_factor * c.sort_rows as f64 * (c.sort_rows as f64).log2()
        } else {
            0.0
        };
        let total = self.per_statement
            + self.per_row_examined * c.rows_examined as f64
            + self.per_row_returned * c.rows_returned as f64
            + self.per_byte_returned * c.bytes_returned as f64
            + self.per_index_lookup * c.index_lookups as f64
            + self.per_row_written * c.rows_written as f64
            + sort;
        total.max(1.0).round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_read_is_cheap_scan_is_expensive() {
        let m = DbCostModel::default();
        let point = QueryCounters {
            rows_examined: 1,
            rows_returned: 1,
            index_lookups: 1,
            bytes_returned: 100,
            ..Default::default()
        };
        let scan = QueryCounters {
            rows_examined: 10_000,
            rows_returned: 50,
            sort_rows: 10_000,
            bytes_returned: 5_000,
            ..Default::default()
        };
        let cp = m.cost_micros(&point);
        let cs = m.cost_micros(&scan);
        assert!(cp < 500, "point read too dear: {cp}");
        assert!(cs > 20 * cp, "scan not dear enough: {cs} vs {cp}");
    }

    #[test]
    fn write_costs_more_than_point_read() {
        let m = DbCostModel::default();
        let read = QueryCounters {
            rows_examined: 1,
            rows_returned: 1,
            index_lookups: 1,
            ..Default::default()
        };
        let write = QueryCounters {
            rows_examined: 1,
            rows_written: 1,
            index_lookups: 1,
            ..Default::default()
        };
        assert!(m.cost_micros(&write) > m.cost_micros(&read));
    }

    #[test]
    fn cost_is_at_least_one_microsecond() {
        let m = DbCostModel {
            per_statement: 0.0,
            per_row_examined: 0.0,
            per_row_returned: 0.0,
            per_byte_returned: 0.0,
            per_index_lookup: 0.0,
            per_row_written: 0.0,
            sort_factor: 0.0,
            result_cache_hit_micros: 0.0,
        };
        assert_eq!(m.cost_micros(&QueryCounters::default()), 1);
    }

    #[test]
    fn absorb_sums_fields() {
        let mut a = QueryCounters {
            rows_examined: 1,
            rows_returned: 2,
            rows_written: 3,
            index_lookups: 4,
            sort_rows: 5,
            bytes_returned: 6,
        };
        a.absorb(&a.clone());
        assert_eq!(a.rows_examined, 2);
        assert_eq!(a.bytes_returned, 12);
    }

    #[test]
    fn single_sort_row_is_free() {
        let m = DbCostModel::default();
        let one = QueryCounters { sort_rows: 1, ..Default::default() };
        let none = QueryCounters::default();
        assert_eq!(m.cost_micros(&one), m.cost_micros(&none));
    }
}
