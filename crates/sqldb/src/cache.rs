//! Transactional caching: one dependency-tracked cache, used twice.
//!
//! Modeled on the transactional method caching of Pfeifer & Lockemann
//! ("Theory and Practice of Transactional Method Caching"): entries are
//! keyed by *invocation* and invalidated by the write-sets of committing
//! transactions. [`Database`](crate::Database) owns two instances under one
//! [`CachePolicy`] and drives every coherence decision:
//!
//! * the **query** instance memoizes SELECT results, keyed by the compiled
//!   plan's id plus the bound parameter values;
//! * the **method** instance memoizes session-façade return values, keyed
//!   by façade name plus arguments. The middleware's `facade_cached` asks
//!   the database for them, and a hit skips the whole modeled RMI +
//!   container + CMP chain.
//!
//! Every entry records the catalog ids of the tables it was computed from.
//! The coherence protocol (host side — the engine executes strictly
//! sequentially, one transaction open at a time):
//!
//! * **Bypass**: inside a transaction that has written one of an entry's
//!   tables, a cached (committed-state) value would hide the transaction's
//!   own uncommitted writes, so it is neither served nor stored. The query
//!   instance checks the statement's read tables, known before the lookup;
//!   the method instance checks the stored entry's tables, since a façade's
//!   tables are known only after it ran. Reads of untouched tables still
//!   hit: their content equals the committed state.
//! * **Invalidation at COMMIT**: when a transaction commits (or an
//!   auto-commit statement writes), the write-set extracted from its undo
//!   log drops every dependent entry, counted. Single-table primary-key
//!   point reads are invalidated per row; everything else per table.
//! * **Rollback purge**: unwinding an already-committed receipt
//!   (`Database::apply_rollback`) silently drops dependent entries — the
//!   data they were computed from is being reverted. This is a coherence
//!   flush, not an invalidation: it is not counted, and it also runs under
//!   TTL invalidation.
//! * **Rewind**: `Database::rewind` reverts the data wholesale and empties
//!   both instances.
//!
//! Under [`CacheInvalidation::Transactional`] these rules make every cache
//! hit byte-identical to a fresh execution, so enabling the cache is
//! observable only through host wall-clock and the modeled cache-hit cost
//! paths. [`CacheInvalidation::Ttl`] replaces commit-driven invalidation
//! with simulated-time expiry and *may serve stale values* — that is the
//! point of the cache-ablation experiment, and the consistency auditor is
//! the staleness oracle. A TTL of zero expires every entry instantly and
//! is therefore equivalent to running with the cache off.

use crate::value::{Text, Value};
use std::collections::HashMap;
use std::hash::Hash;

/// How cached entries are invalidated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheInvalidation {
    /// Commit-driven: the write-set of every committing transaction drops
    /// the dependent entries. Hits are always coherent with the committed
    /// database state.
    Transactional,
    /// Time-to-live in simulated microseconds: entries older than the TTL
    /// (against the clock fed by [`Database::set_cache_clock`]) miss.
    /// Commits do *not* invalidate, so hits may be stale. `Ttl(0)` never
    /// hits — equivalent to the cache being off.
    ///
    /// [`Database::set_cache_clock`]: crate::Database::set_cache_clock
    Ttl(u64),
}

/// The caching policy shared by both cache instances, surfaced through
/// `ExperimentSpec::caching` in `dynamid-workload`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CachePolicy {
    /// Maximum number of entries per instance; least-recently-used entries
    /// are evicted beyond it.
    pub capacity: usize,
    /// Invalidation protocol.
    pub invalidation: CacheInvalidation,
}

/// Cumulative counters of one cache instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheCounters {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed (including TTL expiry).
    pub misses: u64,
    /// Entries dropped by commit-driven invalidation.
    pub invalidations: u64,
    /// Lookups skipped because the open transaction had written one of the
    /// tables the value depends on.
    pub bypasses: u64,
}

impl CacheCounters {
    /// Hits over hits plus misses (0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Counters of both cache instances, snapshot via
/// [`Database::cache_stats`](crate::Database::cache_stats).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// The query-result instance.
    pub query: CacheCounters,
    /// The session-façade method instance (all zero outside EJB
    /// configurations, whose handlers are the only ones that consult it).
    pub method: CacheCounters,
}

/// A hashable, equality-comparable key built from SQL parameter values.
///
/// [`Value`] itself is deliberately not `Hash`/`Eq` (floats), so cache keys
/// canonicalize: floats key by bit pattern, strings by the deterministic
/// FNV-1a hash of their bytes with byte equality as the tie-breaker.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey(Vec<KeyPart>);

#[derive(Debug, Clone)]
enum KeyPart {
    Null,
    Int(i64),
    Float(u64),
    Str(Text),
}

impl KeyPart {
    fn of(v: &Value) -> KeyPart {
        match v {
            Value::Null => KeyPart::Null,
            Value::Int(i) => KeyPart::Int(*i),
            Value::Float(f) => KeyPart::Float(f.to_bits()),
            Value::Str(s) => KeyPart::Str(s.clone()),
        }
    }
}

impl PartialEq for KeyPart {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (KeyPart::Null, KeyPart::Null) => true,
            (KeyPart::Int(a), KeyPart::Int(b)) => a == b,
            (KeyPart::Float(a), KeyPart::Float(b)) => a == b,
            (KeyPart::Str(a), KeyPart::Str(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for KeyPart {}

impl std::hash::Hash for KeyPart {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            KeyPart::Null => state.write_u8(0),
            KeyPart::Int(i) => {
                state.write_u8(1);
                state.write_i64(*i);
            }
            KeyPart::Float(bits) => {
                state.write_u8(2);
                state.write_u64(*bits);
            }
            KeyPart::Str(s) => {
                state.write_u8(3);
                state.write_u64(s.hash64());
            }
        }
    }
}

impl CacheKey {
    /// Builds a key from parameter values.
    pub fn from_values(values: &[Value]) -> CacheKey {
        CacheKey(values.iter().map(KeyPart::of).collect())
    }
}

/// One table's contribution to a committing transaction's write-set.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TableWrites {
    /// Catalog id of the written table.
    pub(crate) table: usize,
    /// Primary-key values of the touched rows, when every write to this
    /// table is attributable to a row key; `None` is a wildcard (no primary
    /// key, or unattributable writes) that invalidates every dependent
    /// entry.
    pub(crate) rows: Option<Vec<Value>>,
}

/// Outcome of a cache lookup.
#[derive(Debug)]
pub enum Lookup<V> {
    /// Serve this cached value (counted as a hit).
    Hit(V),
    /// Compute afresh and do not store: the open transaction wrote one of
    /// the entry's tables (counted as a bypass).
    Bypass,
    /// Compute afresh and store the result (counted as a miss).
    Miss,
}

#[derive(Debug, Clone)]
struct Entry<V> {
    value: V,
    /// Catalog ids of every table the value was computed from.
    tables: Vec<usize>,
    /// `Some((table, key))` when the entry is a single-table primary-key
    /// point read: only writes touching that exact row (or wildcard writes
    /// to the table) invalidate it.
    pk: Option<(usize, KeyPart)>,
    /// Cache-clock micros at store time (TTL freshness).
    stored_at: u64,
    /// Monotonic LRU tick, refreshed on every hit.
    tick: u64,
}

/// One cache instance: values `V` under invocation keys `K`, each entry
/// tagged with the tables it depends on, with LRU eviction, TTL expiry and
/// its own [`CacheCounters`]. The instance stores, looks up and drops
/// entries; [`Database`](crate::Database) decides when (see the module
/// docs).
#[derive(Debug, Clone)]
pub(crate) struct TxnCache<K, V> {
    policy: CachePolicy,
    map: HashMap<K, Entry<V>>,
    next_tick: u64,
    counters: CacheCounters,
}

impl<K: Eq + Hash + Clone, V: Clone> TxnCache<K, V> {
    pub(crate) fn new(policy: CachePolicy) -> Self {
        TxnCache { policy, map: HashMap::new(), next_tick: 0, counters: CacheCounters::default() }
    }

    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    pub(crate) fn counters(&self) -> CacheCounters {
        self.counters
    }

    /// Counts a lookup the caller skipped because the open transaction
    /// wrote one of the tables the value would depend on.
    pub(crate) fn count_bypass(&mut self) {
        self.counters.bypasses += 1;
    }

    /// Looks up `key` at cache-clock `now`, counting the outcome. A
    /// TTL-expired entry is dropped and misses; a fresh entry whose tables
    /// `written` reports as written by the open transaction is bypassed
    /// (and kept); otherwise the entry hits and its LRU tick is refreshed.
    pub(crate) fn lookup(
        &mut self,
        key: &K,
        now: u64,
        written: impl FnOnce(&[usize]) -> bool,
    ) -> Lookup<V> {
        let Some(e) = self.map.get_mut(key) else {
            self.counters.misses += 1;
            return Lookup::Miss;
        };
        if let CacheInvalidation::Ttl(ttl) = self.policy.invalidation {
            if now.saturating_sub(e.stored_at) >= ttl {
                self.map.remove(key);
                self.counters.misses += 1;
                return Lookup::Miss;
            }
        }
        if written(&e.tables) {
            self.counters.bypasses += 1;
            return Lookup::Bypass;
        }
        e.tick = self.next_tick;
        self.next_tick += 1;
        self.counters.hits += 1;
        Lookup::Hit(e.value.clone())
    }

    /// Stores `value`, computed from `tables` at cache-clock `now`, evicting
    /// the least-recently-used entry when over capacity. `pk` marks a
    /// single-table primary-key point read for per-row invalidation.
    pub(crate) fn store(
        &mut self,
        key: K,
        value: V,
        tables: Vec<usize>,
        pk: Option<(usize, Value)>,
        now: u64,
    ) {
        if self.policy.capacity == 0 {
            return;
        }
        let pk = pk.map(|(t, v)| (t, KeyPart::of(&v)));
        let tick = self.next_tick;
        self.next_tick += 1;
        self.map.insert(key, Entry { value, tables, pk, stored_at: now, tick });
        while self.map.len() > self.policy.capacity {
            // Ticks are unique, so the minimum is well defined and the
            // eviction deterministic regardless of hash-map iteration order.
            let victim = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.tick)
                .map(|(k, _)| k.clone())
                .expect("non-empty over-capacity cache");
            self.map.remove(&victim);
        }
    }

    /// Commit-driven invalidation: drops every entry dependent on the
    /// committed write-set and counts the removals. Under TTL invalidation
    /// commits do not invalidate — staleness is the experiment.
    pub(crate) fn invalidate(&mut self, writes: &[TableWrites]) {
        if self.policy.invalidation == CacheInvalidation::Transactional {
            let before = self.map.len();
            self.purge(writes);
            self.counters.invalidations += (before - self.map.len()) as u64;
        }
    }

    /// Drops every entry dependent on the write-set *without* counting:
    /// the write-set of a rolled-back receipt is a coherence flush, not a
    /// commit.
    pub(crate) fn purge(&mut self, writes: &[TableWrites]) {
        if writes.is_empty() || self.map.is_empty() {
            return;
        }
        let rows: Vec<Option<Vec<KeyPart>>> = writes
            .iter()
            .map(|w| w.rows.as_ref().map(|rows| rows.iter().map(KeyPart::of).collect()))
            .collect();
        self.map.retain(|_, e| {
            writes.iter().zip(&rows).all(|(w, rows)| {
                !e.tables.contains(&w.table)
                    || match (&e.pk, rows) {
                        // A point read survives writes to *other* rows of
                        // its own table.
                        (Some((t, key)), Some(rows)) if *t == w.table => !rows.contains(key),
                        // Any other dependent entry is dropped by any write
                        // to the table.
                        _ => false,
                    }
            })
        });
    }

    /// Empties the instance. Counters are untouched.
    pub(crate) fn clear(&mut self) {
        self.map.clear();
    }
}
