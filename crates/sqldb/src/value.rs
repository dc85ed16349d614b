//! SQL values and their ordering, arithmetic, and pattern semantics.

use crate::error::{SqlError, SqlResult};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The longest string, in bytes, a [`Text`] stores inline.
const INLINE_CAP: usize = 14;

/// The payload of [`Value::Str`]: UTF-8 text in one of two forms, chosen
/// by byte length alone so that equal strings always share a form.
///
/// * Up to 14 bytes sit inline in the value, zero-padded: building,
///   cloning and dropping one touches no heap. Most stored strings are
///   this short (names, codes, statuses, keys).
/// * A longer string lives in one shared reference-counted block that
///   also holds the deterministic FNV-1a hash of its bytes, computed once
///   at construction, so hash joins and map probes over long keys never
///   re-scan them. A clone bumps the count.
///
/// Equality and ordering compare bytes, and [`Value`]'s `Hash` writes the
/// FNV-1a of the bytes (computed on demand for the inline form), so
/// neither the form nor the sharing is ever observable.
#[derive(Clone)]
pub struct Text(Repr);

#[derive(Clone)]
enum Repr {
    /// `bytes[..len]` is the text; the rest stays zero.
    Inline {
        len: u8,
        bytes: [u8; INLINE_CAP],
    },
    Heap(Arc<HeapText>),
}

/// A heap-form string and its cached hash.
struct HeapText {
    hash: u64,
    s: Box<str>,
}

impl Text {
    /// Copies `s`; only a heap-form string allocates.
    fn new(s: &str) -> Text {
        if s.len() <= INLINE_CAP {
            let mut bytes = [0; INLINE_CAP];
            bytes[..s.len()].copy_from_slice(s.as_bytes());
            Text(Repr::Inline { len: s.len() as u8, bytes })
        } else {
            Text::heap(s.into())
        }
    }

    /// Takes ownership of a string longer than [`INLINE_CAP`] bytes.
    fn heap(s: Box<str>) -> Text {
        Text(Repr::Heap(Arc::new(HeapText { hash: fnv1a(s.as_bytes()), s })))
    }

    /// The string slice.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            // Inline bytes are always copied whole from a `&str`.
            Repr::Inline { .. } => {
                std::str::from_utf8(self.as_bytes()).expect("inline bytes are a whole UTF-8 string")
            }
            Repr::Heap(h) => &h.s,
        }
    }

    /// The string's bytes.
    pub(crate) fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..usize::from(*len)],
            Repr::Heap(h) => h.s.as_bytes(),
        }
    }

    /// The FNV-1a hash of the bytes: cached for the heap form, computed
    /// for the inline one.
    pub(crate) fn hash64(&self) -> u64 {
        match &self.0 {
            Repr::Inline { .. } => fnv1a(self.as_bytes()),
            Repr::Heap(h) => h.hash,
        }
    }
}

impl PartialEq for Text {
    fn eq(&self, other: &Self) -> bool {
        match (&self.0, &other.0) {
            (Repr::Inline { len: a, bytes: x }, Repr::Inline { len: b, bytes: y }) => {
                a == b && x == y
            }
            (Repr::Heap(a), Repr::Heap(b)) => Arc::ptr_eq(a, b) || (a.hash == b.hash && a.s == b.s),
            // The form follows the length, so different forms differ.
            _ => false,
        }
    }
}

impl Eq for Text {}

impl PartialOrd for Text {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Text {
    fn cmp(&self, other: &Self) -> Ordering {
        match (&self.0, &other.0) {
            // Zero padding sorts a proper prefix first unless the longer
            // string's tail is all NUL bytes; the length breaks that tie.
            (Repr::Inline { len: a, bytes: x }, Repr::Inline { len: b, bytes: y }) => {
                x.cmp(y).then(a.cmp(b))
            }
            (Repr::Heap(a), Repr::Heap(b)) if Arc::ptr_eq(a, b) => Ordering::Equal,
            _ => self.as_bytes().cmp(other.as_bytes()),
        }
    }
}

impl fmt::Debug for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Deterministic 64-bit FNV-1a. Chosen over the std `RandomState` hasher
/// because it participates in `Hash for Value` and must be identical
/// across processes and runs for reproducibility.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A single SQL value.
///
/// Strings of up to 14 bytes are stored inline and longer ones are shared
/// and hash-cached (see [`Text`]), so result rows and index keys clone
/// without copying bytes. The total order is
/// `NULL < numbers (Int and Float compared numerically) < strings`, which
/// is what the B-tree indexes use.
///
/// ```
/// use dynamid_sqldb::Value;
/// assert!(Value::Null < Value::Int(0));
/// assert!(Value::Int(2) < Value::Float(2.5));
/// assert!(Value::Float(9.0) < Value::str("a"));
/// ```
#[derive(Debug)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit signed integer (also used for dates as epoch seconds).
    Int(i64),
    /// Double-precision float (prices, rates).
    Float(f64),
    /// UTF-8 string.
    Str(Text),
}

/// One match over the shared tag byte, where a derived `Clone` would match
/// the variant and then the string form: cloning cells is the inner loop of
/// projections, index builds and a fork's first write to a table.
impl Clone for Value {
    #[inline]
    fn clone(&self) -> Value {
        match self {
            Value::Str(Text(Repr::Heap(h))) => Value::Str(Text(Repr::Heap(Arc::clone(h)))),
            Value::Str(Text(Repr::Inline { len, bytes })) => {
                Value::Str(Text(Repr::Inline { len: *len, bytes: *bytes }))
            }
            Value::Int(i) => Value::Int(*i),
            Value::Float(f) => Value::Float(*f),
            Value::Null => Value::Null,
        }
    }
}

impl Value {
    /// Creates a string value, copying the bytes. An owned `String` goes
    /// through [`Value::from`] instead, which keeps its buffer.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Text::new(s.as_ref()))
    }

    /// `true` if the value is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The integer inside, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The value as a float, converting integers.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The string inside, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The string inside, or a `TypeMismatch` error.
    pub fn expect_str(&self) -> SqlResult<&str> {
        self.as_str().ok_or_else(|| SqlError::TypeMismatch {
            expected: "string",
            found: self.type_name().to_string(),
        })
    }

    /// A short name for the value's runtime type.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "NULL",
            Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
        }
    }

    /// Approximate wire size in bytes, used by the cost model to charge for
    /// result marshalling.
    pub fn wire_size(&self) -> u64 {
        match self {
            Value::Null => 1,
            Value::Int(_) => 8,
            Value::Float(_) => 8,
            Value::Str(s) => s.as_bytes().len() as u64,
        }
    }

    /// SQL three-valued truthiness: NULL is false, numbers by non-zero,
    /// strings by non-empty.
    pub fn is_truthy(&self) -> bool {
        match self {
            Value::Null => false,
            Value::Int(i) => *i != 0,
            Value::Float(f) => *f != 0.0,
            Value::Str(s) => !s.as_bytes().is_empty(),
        }
    }

    /// Binary addition with numeric promotion.
    pub fn add(&self, rhs: &Value) -> SqlResult<Value> {
        numeric_op(self, rhs, "+", |a, b| a.checked_add(b), |a, b| a + b)
    }

    /// Binary subtraction with numeric promotion.
    pub fn sub(&self, rhs: &Value) -> SqlResult<Value> {
        numeric_op(self, rhs, "-", |a, b| a.checked_sub(b), |a, b| a - b)
    }

    /// Binary multiplication with numeric promotion.
    pub fn mul(&self, rhs: &Value) -> SqlResult<Value> {
        numeric_op(self, rhs, "*", |a, b| a.checked_mul(b), |a, b| a * b)
    }

    /// Binary division; integer division truncates, division by zero is an
    /// error.
    pub fn div(&self, rhs: &Value) -> SqlResult<Value> {
        if matches!(rhs, Value::Int(0)) || matches!(rhs, Value::Float(f) if *f == 0.0) {
            return Err(SqlError::Arithmetic("division by zero".into()));
        }
        numeric_op(self, rhs, "/", |a, b| a.checked_div(b), |a, b| a / b)
    }

    /// SQL `LIKE` with `%` (any run) and `_` (any single char), case
    /// sensitive, over this string value.
    pub fn like(&self, pattern: &Value) -> SqlResult<bool> {
        if self.is_null() || pattern.is_null() {
            return Ok(false);
        }
        let text = self.expect_str()?;
        Ok(LikePattern::new(pattern.expect_str()?).matches(text))
    }
}

fn numeric_op(
    lhs: &Value,
    rhs: &Value,
    op: &'static str,
    int_op: impl Fn(i64, i64) -> Option<i64>,
    float_op: impl Fn(f64, f64) -> f64,
) -> SqlResult<Value> {
    match (lhs, rhs) {
        (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
        (Value::Int(a), Value::Int(b)) => int_op(*a, *b)
            .map(Value::Int)
            .ok_or_else(|| SqlError::Arithmetic(format!("integer overflow in {op}"))),
        (a, b) => {
            let (Some(x), Some(y)) = (a.as_float(), b.as_float()) else {
                return Err(SqlError::TypeMismatch {
                    expected: "number",
                    found: format!("{} {op} {}", a.type_name(), b.type_name()),
                });
            };
            Ok(Value::Float(float_op(x, y)))
        }
    }
}

/// A `LIKE` pattern classified once, so that a parameter or literal
/// pattern tested against many rows is read only once. A pattern of the
/// form `lit%`, `%lit` or `%lit%`, with no other wildcard, is a prefix,
/// suffix or substring test; any other goes to the general matcher.
#[derive(Debug, Clone, Copy)]
pub(crate) enum LikePattern<'p> {
    /// `lit%`
    Prefix(&'p str),
    /// `%lit`
    Suffix(&'p str),
    /// `%lit%`
    Contains(&'p str),
    /// Any other pattern, kept whole.
    General(&'p str),
}

impl<'p> LikePattern<'p> {
    pub(crate) fn new(pattern: &'p str) -> LikePattern<'p> {
        let (lead, rest) = match pattern.strip_prefix('%') {
            Some(rest) => (true, rest),
            None => (false, pattern),
        };
        let (trail, lit) = match rest.strip_suffix('%') {
            Some(lit) => (true, lit),
            None => (false, rest),
        };
        match (lead, trail) {
            _ if lit.contains(['%', '_']) => LikePattern::General(pattern),
            (true, true) => LikePattern::Contains(lit),
            (false, true) => LikePattern::Prefix(lit),
            (true, false) => LikePattern::Suffix(lit),
            (false, false) => LikePattern::General(pattern),
        }
    }

    /// `true` when `text` matches the pattern.
    pub(crate) fn matches(&self, text: &str) -> bool {
        match *self {
            LikePattern::Prefix(lit) => text.starts_with(lit),
            LikePattern::Suffix(lit) => text.ends_with(lit),
            LikePattern::Contains(lit) => text.contains(lit),
            LikePattern::General(pattern) => like_match(text, pattern),
        }
    }
}

/// Iterative `LIKE` matcher: no recursion, no allocation. It steps over
/// bytes when that gives the same answer as stepping over characters — the
/// pattern has no `_`, or the text is ASCII — and over characters
/// otherwise, because `_` matches one character, not one byte. Without
/// `_`, literal runs of valid UTF-8 can only match at character
/// boundaries, so the bytes a `%` skips are always whole characters.
fn like_match(text: &str, pattern: &str) -> bool {
    if !pattern.contains('_') || text.is_ascii() {
        wildcard_match(text, pattern, |s, i| (u32::from(s.as_bytes()[i]), 1))
    } else {
        wildcard_match(text, pattern, |s, i| {
            let c = s[i..].chars().next().expect("the matcher stops at character boundaries");
            (u32::from(c), c.len_utf8())
        })
    }
}

/// The backtracking matcher over byte offsets; `unit(s, i)` reads the unit
/// (byte or character) at offset `i` of `s` as a number and its width.
fn wildcard_match(text: &str, pattern: &str, unit: impl Fn(&str, usize) -> (u32, usize)) -> bool {
    let (t, p) = (text.as_bytes(), pattern.as_bytes());
    let (mut ti, mut pi) = (0usize, 0usize);
    let (mut star_p, mut star_t) = (usize::MAX, 0usize);
    while ti < t.len() {
        // '%' must be tested first: it is a wildcard even when the text
        // itself contains a literal '%' character.
        if pi < p.len() && p[pi] == b'%' {
            star_p = pi;
            star_t = ti;
            pi += 1;
            continue;
        }
        if pi < p.len() {
            let ((pc, pw), (tc, tw)) = (unit(pattern, pi), unit(text, ti));
            if p[pi] == b'_' || pc == tc {
                ti += tw;
                pi += pw;
                continue;
            }
        }
        if star_p == usize::MAX {
            return false;
        }
        star_t += unit(text, star_t).1;
        ti = star_t;
        pi = star_p + 1;
    }
    p[pi..].iter().all(|&b| b == b'%')
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        // Equality agrees with `cmp`; the string arm is `Text`'s, which
        // short-circuits on the form, the shared block and the cached hash.
        match (self, other) {
            (Value::Str(a), Value::Str(b)) => a == b,
            _ => self.cmp(other) == Ordering::Equal,
        }
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Str(a), Str(b)) => a.cmp(b),
            (Str(_), _) => Ordering::Greater,
            (_, Str(_)) => Ordering::Less,
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            // Hash integers and integral floats identically so Int(2) and
            // Float(2.0), which compare equal, hash equal.
            Value::Int(i) => {
                1u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(f) => {
                1u8.hash(state);
                f.to_bits().hash(state);
            }
            Value::Str(s) => {
                // A long string's byte hash was computed once at
                // construction, so hash-join probes and GROUP BY keys over
                // long strings are O(1) in their length.
                2u8.hash(state);
                state.write_u64(s.hash64());
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Value {
        Value::Int(v as i64)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::str(v)
    }
}

/// A heap-form string's buffer becomes the value's storage: no byte copy,
/// at most a shrink of spare capacity. A short one is copied inline.
impl From<String> for Value {
    fn from(v: String) -> Value {
        if v.len() <= INLINE_CAP {
            Value::str(v)
        } else {
            Value::Str(Text::heap(v.into_boxed_str()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_across_types() {
        let mut vals = vec![
            Value::str("b"),
            Value::Int(10),
            Value::Null,
            Value::Float(3.5),
            Value::str("a"),
            Value::Int(2),
        ];
        vals.sort();
        assert_eq!(
            vals,
            vec![
                Value::Null,
                Value::Int(2),
                Value::Float(3.5),
                Value::Int(10),
                Value::str("a"),
                Value::str("b"),
            ]
        );
    }

    #[test]
    fn int_float_equality_and_hash() {
        assert_eq!(Value::Int(2), Value::Float(2.0));
        assert_eq!(default_hash(&Value::Int(2)), default_hash(&Value::Float(2.0)));
    }

    /// `DefaultHasher` of one value.
    fn default_hash(v: &Value) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        let mut s = DefaultHasher::new();
        v.hash(&mut s);
        s.finish()
    }

    fn is_inline(v: &Value) -> bool {
        matches!(v, Value::Str(Text(Repr::Inline { .. })))
    }

    #[test]
    fn short_strings_are_inline_and_long_clones_share_one_block() {
        let short = Value::str("CARD HOLDER 14");
        assert!(is_inline(&short), "a 14-byte string holds no heap block");
        assert!(is_inline(&short.clone()));
        let long = Value::str("PUBLISHER 15 by");
        let copy = long.clone();
        match (&long, &copy) {
            (Value::Str(Text(Repr::Heap(a))), Value::Str(Text(Repr::Heap(b)))) => {
                assert!(Arc::ptr_eq(a, b), "a 15-byte clone shares its block");
            }
            other => panic!("expected heap strings, got {other:?}"),
        }
        assert_eq!(long, copy);
        assert_eq!(long.cmp(&copy), Ordering::Equal);
        assert_eq!(
            format!("{short:?} {long:?}"),
            r#"Str("CARD HOLDER 14") Str("PUBLISHER 15 by")"#
        );
        assert_eq!(std::mem::size_of::<Value>(), 16);
    }

    /// `Hash for Value` writes `2u8` and the FNV-1a of the bytes in both
    /// forms; these are the values every earlier build produced.
    #[test]
    fn string_hashes_are_pinned() {
        for (text, hash) in [
            ("OK", 0x5fa9_6767_5932_3d94),
            ("CARD HOLDER 14", 0xdd79_6fec_8153_1268),
            ("PUBLISHER 15 by", 0x6920_6c17_1393_ab1b),
            ("the remarkably verbose catalog title 40b", 0x3054_b434_d963_3b2e),
        ] {
            assert_eq!(default_hash(&Value::str(text)), hash, "{text:?}");
            assert_eq!(default_hash(&Value::from(text.to_owned())), hash, "{text:?}");
        }
    }

    #[test]
    fn inline_ordering_breaks_ties_on_length() {
        let (a, a_nul, a_nul_b) = (Value::str("a"), Value::str("a\0"), Value::str("a\0b"));
        assert!(a < a_nul && a_nul < a_nul_b);
        assert_ne!(a, a_nul);
        assert!(Value::str("") < Value::str("\0"));
        // Across forms: a 14-byte prefix sorts before its 15-byte extension.
        assert!(Value::str("zzzzzzzzzzzzzz") < Value::str("zzzzzzzzzzzzzz\0"));
        assert!(Value::str("zzzzzzzzzzzzzz\0") < Value::str("zzzzzzzzzzzzzz\u{1}"));
        assert!(Value::str("b") > Value::str("abcdefghijklmnopq"));
    }

    #[test]
    fn arithmetic_promotion() {
        assert_eq!(Value::Int(2).add(&Value::Int(3)).unwrap(), Value::Int(5));
        assert_eq!(Value::Int(2).add(&Value::Float(0.5)).unwrap(), Value::Float(2.5));
        assert_eq!(Value::Int(7).div(&Value::Int(2)).unwrap(), Value::Int(3));
        assert_eq!(Value::Float(7.0).div(&Value::Int(2)).unwrap(), Value::Float(3.5));
        assert!(Value::Int(1).div(&Value::Int(0)).is_err());
        assert!(Value::str("x").add(&Value::Int(1)).is_err());
        assert_eq!(Value::Null.add(&Value::Int(1)).unwrap(), Value::Null);
    }

    #[test]
    fn overflow_is_an_error() {
        assert!(Value::Int(i64::MAX).add(&Value::Int(1)).is_err());
        assert!(Value::Int(i64::MIN).sub(&Value::Int(1)).is_err());
    }

    #[test]
    fn like_patterns() {
        let s = Value::str("the great gatsby");
        assert!(s.like(&Value::str("%great%")).unwrap());
        assert!(s.like(&Value::str("the%")).unwrap());
        assert!(s.like(&Value::str("%gatsby")).unwrap());
        assert!(s.like(&Value::str("the _reat gatsby")).unwrap());
        assert!(!s.like(&Value::str("great")).unwrap());
        assert!(s.like(&Value::str("%")).unwrap());
        assert!(!s.like(&Value::str("")).unwrap());
        assert!(!Value::Null.like(&Value::str("%")).unwrap());
        // Multiple wildcards with backtracking.
        assert!(Value::str("abcabc").like(&Value::str("%b%bc")).unwrap());
        assert!(!Value::str("abcabc").like(&Value::str("%b%bd")).unwrap());
        // `_` is one character, not one byte.
        assert!(Value::str("né").like(&Value::str("n_")).unwrap());
        assert!(!Value::str("né").like(&Value::str("n__")).unwrap());
        assert!(Value::str("éa").like(&Value::str("%a")).unwrap());
    }

    #[test]
    fn like_pattern_shapes() {
        assert!(matches!(LikePattern::new("%TITLE 120%"), LikePattern::Contains("TITLE 120")));
        assert!(matches!(LikePattern::new("%%"), LikePattern::Contains("")));
        assert!(matches!(LikePattern::new("AUTHOR1%"), LikePattern::Prefix("AUTHOR1")));
        assert!(matches!(LikePattern::new("%1"), LikePattern::Suffix("1")));
        assert!(matches!(LikePattern::new("%"), LikePattern::Suffix("")));
        for general in ["", "a", "a%b", "%a_%", "_%", "%%a%"] {
            assert!(matches!(LikePattern::new(general), LikePattern::General(p) if p == general));
        }
    }

    #[test]
    fn truthiness() {
        assert!(!Value::Null.is_truthy());
        assert!(!Value::Int(0).is_truthy());
        assert!(Value::Int(-1).is_truthy());
        assert!(!Value::str("").is_truthy());
        assert!(Value::str("x").is_truthy());
    }

    #[test]
    fn expect_helpers_report_types() {
        let e = Value::Int(3).expect_str().unwrap_err();
        assert!(e.to_string().contains("expected string"));
        assert_eq!(Value::str("ab").expect_str().unwrap(), "ab");
    }

    #[test]
    fn wire_sizes() {
        assert_eq!(Value::Null.wire_size(), 1);
        assert_eq!(Value::Int(1).wire_size(), 8);
        assert_eq!(Value::str("abcd").wire_size(), 4);
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3i32), Value::Int(3));
        assert_eq!(Value::from(3u32), Value::Int(3));
        assert_eq!(Value::from("s"), Value::str("s"));
        assert_eq!(Value::from(String::from("s")), Value::str("s"));
        assert_eq!(Value::from(2.5f64), Value::Float(2.5));
    }

    #[test]
    fn owned_string_conversion_matches_copy_and_keeps_the_buffer() {
        for text in ["", "OK", "CARD HOLDER", "héllo wörld", "c12345@example.com"] {
            // Spare capacity exercises the shrink path.
            let mut owned = String::with_capacity(text.len() + 7);
            owned.push_str(text);
            let (from, copied) = (Value::from(owned), Value::str(text));
            assert_eq!(is_inline(&from), text.len() <= 14);
            assert_eq!(is_inline(&copied), text.len() <= 14);
            assert_eq!(from.as_str(), Some(text));
            assert_eq!(from, copied);
            assert_eq!(from.cmp(&copied), Ordering::Equal);
            assert_eq!(from.cmp(&Value::str("P")), copied.cmp(&Value::str("P")));
            assert_eq!(default_hash(&from), default_hash(&copied));
        }
        let exact = String::from("a long string keeps its buffer");
        let ptr = exact.as_ptr();
        assert_eq!(Value::from(exact).as_str().map(str::as_ptr), Some(ptr));
    }
}
