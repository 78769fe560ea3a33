//! Subscription filters: the event algebra of the substrate.
//!
//! A [`Filter`] is a conjunction of [`Predicate`]s over event attributes.
//! This is the same expressiveness class as Siena's filters and covers the
//! two subscription styles the Reef paper generates automatically:
//! *topic-based* subscriptions (equality on the reserved `topic` attribute,
//! e.g. a feed URL) and *content-based* subscriptions (keyword containment
//! and comparisons over arbitrary attributes).

use crate::event::{Event, TOPIC_ATTR};
use crate::value::{Value, ValueKey, ValueType};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher, RandomState};
use std::sync::{Arc, OnceLock};

/// Comparison operator of a [`Predicate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Op {
    /// Attribute equals operand (numeric equality crosses int/float).
    Eq,
    /// Attribute differs from operand.
    Ne,
    /// Attribute is strictly less than operand.
    Lt,
    /// Attribute is less than or equal to operand.
    Le,
    /// Attribute is strictly greater than operand.
    Gt,
    /// Attribute is greater than or equal to operand.
    Ge,
    /// String attribute starts with the operand string.
    Prefix,
    /// String attribute ends with the operand string.
    Suffix,
    /// String attribute contains the operand substring (keyword match).
    Contains,
    /// Attribute exists, regardless of value (operand is ignored).
    Exists,
}

impl Op {
    /// All operators, in a stable order (useful for tests and generators).
    pub const ALL: [Op; 10] = [
        Op::Eq,
        Op::Ne,
        Op::Lt,
        Op::Le,
        Op::Gt,
        Op::Ge,
        Op::Prefix,
        Op::Suffix,
        Op::Contains,
        Op::Exists,
    ];

    /// `true` for operators whose operand must be a string.
    pub fn is_string_op(self) -> bool {
        matches!(self, Op::Prefix | Op::Suffix | Op::Contains)
    }

    /// `true` for the ordered comparison operators.
    pub fn is_ordering_op(self) -> bool {
        matches!(self, Op::Lt | Op::Le | Op::Gt | Op::Ge)
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Op::Eq => "=",
            Op::Ne => "!=",
            Op::Lt => "<",
            Op::Le => "<=",
            Op::Gt => ">",
            Op::Ge => ">=",
            Op::Prefix => "=^",
            Op::Suffix => "=$",
            Op::Contains => "=~",
            Op::Exists => "exists",
        };
        f.write_str(s)
    }
}

/// One constraint on one attribute: `attr op operand`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Predicate {
    /// Attribute name the predicate constrains.
    pub attr: String,
    /// Comparison operator.
    pub op: Op,
    /// Operand compared against the event's attribute value.
    pub operand: Value,
}

impl Predicate {
    /// Build a predicate.
    pub fn new(attr: impl Into<String>, op: Op, operand: impl Into<Value>) -> Self {
        Predicate {
            attr: attr.into(),
            op,
            operand: operand.into(),
        }
    }

    /// Evaluate the predicate against a single value.
    pub fn eval(&self, value: &Value) -> bool {
        match self.op {
            Op::Eq => value.eq_value(&self.operand),
            Op::Ne => !value.eq_value(&self.operand),
            Op::Lt => matches!(value.partial_cmp_value(&self.operand), Some(Ordering::Less)),
            Op::Le => matches!(
                value.partial_cmp_value(&self.operand),
                Some(Ordering::Less | Ordering::Equal)
            ),
            Op::Gt => matches!(
                value.partial_cmp_value(&self.operand),
                Some(Ordering::Greater)
            ),
            Op::Ge => matches!(
                value.partial_cmp_value(&self.operand),
                Some(Ordering::Greater | Ordering::Equal)
            ),
            Op::Prefix => match (value.as_str(), self.operand.as_str()) {
                (Some(v), Some(p)) => v.starts_with(p),
                _ => false,
            },
            Op::Suffix => match (value.as_str(), self.operand.as_str()) {
                (Some(v), Some(p)) => v.ends_with(p),
                _ => false,
            },
            Op::Contains => match (value.as_str(), self.operand.as_str()) {
                (Some(v), Some(p)) => v.contains(p),
                _ => false,
            },
            Op::Exists => true,
        }
    }

    /// Evaluate against an event: the attribute must be present and satisfy
    /// the operator.
    pub fn matches(&self, event: &Event) -> bool {
        match event.get(&self.attr) {
            Some(v) => self.eval(v),
            None => false,
        }
    }

    /// Conservative implication test: `true` means *every* value satisfying
    /// `self` also satisfies `other` (`self ⇒ other`). Used for
    /// covering-based routing-table compression in the broker overlay; a
    /// `false` result is always safe.
    pub fn implies(&self, other: &Predicate) -> bool {
        if self.attr != other.attr {
            return false;
        }
        if other.op == Op::Exists {
            return true;
        }
        if self == other {
            return true;
        }
        match (self.op, other.op) {
            // x = c implies anything c itself satisfies.
            (Op::Eq, _) => Predicate::new(other.attr.clone(), other.op, other.operand.clone())
                .eval(&self.operand),
            // Range-to-range implications on the same attribute.
            (Op::Lt, Op::Lt) | (Op::Le, Op::Le) | (Op::Le, Op::Lt) => {
                // x < a ⇒ x < b  iff a <= b; x <= a ⇒ x < b iff a < b.
                match self.operand.partial_cmp_value(&other.operand) {
                    Some(Ordering::Less) => true,
                    Some(Ordering::Equal) => self.op == other.op || other.op == Op::Le,
                    _ => false,
                }
            }
            (Op::Lt, Op::Le) => matches!(
                self.operand.partial_cmp_value(&other.operand),
                Some(Ordering::Less | Ordering::Equal)
            ),
            (Op::Gt, Op::Gt) | (Op::Ge, Op::Ge) | (Op::Ge, Op::Gt) => {
                match self.operand.partial_cmp_value(&other.operand) {
                    Some(Ordering::Greater) => true,
                    Some(Ordering::Equal) => self.op == other.op || other.op == Op::Ge,
                    _ => false,
                }
            }
            (Op::Gt, Op::Ge) => matches!(
                self.operand.partial_cmp_value(&other.operand),
                Some(Ordering::Greater | Ordering::Equal)
            ),
            // String structure implications.
            (Op::Prefix, Op::Prefix) => match (self.operand.as_str(), other.operand.as_str()) {
                (Some(a), Some(b)) => a.starts_with(b),
                _ => false,
            },
            (Op::Suffix, Op::Suffix) => match (self.operand.as_str(), other.operand.as_str()) {
                (Some(a), Some(b)) => a.ends_with(b),
                _ => false,
            },
            (Op::Contains, Op::Contains)
            | (Op::Prefix, Op::Contains)
            | (Op::Suffix, Op::Contains) => match (self.operand.as_str(), other.operand.as_str()) {
                (Some(a), Some(b)) => a.contains(b),
                _ => false,
            },
            _ => false,
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.op == Op::Exists {
            write!(f, "{} exists", self.attr)
        } else {
            write!(f, "{} {} {}", self.attr, self.op, self.operand)
        }
    }
}

/// A conjunction of predicates. An event matches when every predicate holds.
///
/// The empty filter matches every event (useful as a wildcard subscription).
///
/// # Examples
///
/// ```
/// use reef_pubsub::{Event, Filter, Op};
///
/// let f = Filter::new()
///     .and("symbol", Op::Eq, "ACME")
///     .and("price", Op::Gt, 10.0);
/// let ev = Event::builder().attr("symbol", "ACME").attr("price", 12.5).build();
/// assert!(f.matches(&ev));
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Filter {
    predicates: Vec<Predicate>,
}

impl Filter {
    /// The empty (match-all) filter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Convenience: a topic-based subscription (`topic = name`), the style
    /// Reef generates for Web feeds (the topic being the feed URL).
    pub fn topic(name: &str) -> Self {
        Filter::new().and(TOPIC_ATTR, Op::Eq, name)
    }

    /// Convenience: a keyword subscription (`attr =~ keyword`), the style
    /// Reef generates for content-based video-news queries.
    pub fn keyword(attr: &str, keyword: &str) -> Self {
        Filter::new().and(attr, Op::Contains, keyword)
    }

    /// Add a predicate (builder style).
    pub fn and(mut self, attr: impl Into<String>, op: Op, operand: impl Into<Value>) -> Self {
        self.predicates.push(Predicate::new(attr, op, operand));
        self
    }

    /// Add an existence predicate (builder style).
    pub fn and_exists(mut self, attr: impl Into<String>) -> Self {
        self.predicates
            .push(Predicate::new(attr, Op::Exists, Value::Bool(true)));
        self
    }

    /// Push an already-built predicate.
    pub fn push(&mut self, p: Predicate) {
        self.predicates.push(p);
    }

    /// The predicates of the conjunction.
    pub fn predicates(&self) -> &[Predicate] {
        &self.predicates
    }

    /// Number of predicates.
    pub fn len(&self) -> usize {
        self.predicates.len()
    }

    /// `true` for the match-all filter.
    pub fn is_empty(&self) -> bool {
        self.predicates.is_empty()
    }

    /// Evaluate the conjunction against an event.
    pub fn matches(&self, event: &Event) -> bool {
        self.predicates.iter().all(|p| p.matches(event))
    }

    /// Conservative covering test: `true` means every event matching `other`
    /// also matches `self` (`self` is the wider filter). Used by the broker
    /// overlay to avoid forwarding subscriptions that are already covered.
    ///
    /// `self` covers `other` when each predicate of `self` is implied by at
    /// least one predicate of `other`.
    pub fn covers(&self, other: &Filter) -> bool {
        self.predicates
            .iter()
            .all(|ps| other.predicates.iter().any(|po| po.implies(ps)))
    }

    /// Attributes with equality predicates, in filter order — the fast-path
    /// keys used by the index matcher.
    pub fn eq_attrs(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.predicates
            .iter()
            .filter(|p| p.op == Op::Eq)
            .map(|p| (p.attr.as_str(), &p.operand))
    }

    /// Approximate serialized size in bytes, for network accounting.
    pub fn wire_size(&self) -> usize {
        self.predicates
            .iter()
            .map(|p| p.attr.len() + p.operand.wire_size() + 3)
            .sum::<usize>()
            + 8
    }

    /// Check every operand for validity (no NaN, string ops have string
    /// operands). Returns the first offending predicate.
    pub fn validate_operands(&self) -> Result<(), &Predicate> {
        for p in &self.predicates {
            if !p.operand.is_valid() {
                return Err(p);
            }
            if p.op.is_string_op() && p.operand.as_str().is_none() {
                return Err(p);
            }
        }
        Ok(())
    }
}

impl fmt::Display for Filter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.predicates.is_empty() {
            return f.write_str("<match-all>");
        }
        for (i, p) in self.predicates.iter().enumerate() {
            if i > 0 {
                write!(f, " ∧ ")?;
            }
            write!(f, "{p}")?;
        }
        Ok(())
    }
}

impl FromIterator<Predicate> for Filter {
    fn from_iter<I: IntoIterator<Item = Predicate>>(iter: I) -> Self {
        Filter {
            predicates: iter.into_iter().collect(),
        }
    }
}

/// One predicate of a filter's canonical form: the attribute, the
/// operator and the operand's canonical [`ValueKey`], all borrowed from
/// the filter.
///
/// The operand is `None` where it cannot distinguish two predicates: for
/// `Exists`, which ignores it, and for `NaN`, which has no key — every
/// `NaN` compares alike (unequal to everything, unordered with
/// everything), whatever its bit pattern.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct PredicateKey<'a> {
    attr: &'a str,
    op: Op,
    operand: Option<ValueKey<'a>>,
}

/// The canonical form of `filter`: its predicate keys, sorted and
/// deduplicated (a conjunction is a set).
fn canonical(filter: &Filter) -> Vec<PredicateKey<'_>> {
    let mut predicates: Vec<PredicateKey<'_>> = filter
        .predicates
        .iter()
        .map(|p| PredicateKey {
            attr: &p.attr,
            op: p.op,
            operand: match p.op {
                Op::Exists => None,
                _ => ValueKey::of(&p.operand),
            },
        })
        .collect();
    predicates.sort_unstable();
    predicates.dedup();
    predicates
}

/// The hasher of canonical forms: keyed once per process, because filters
/// arrive from outside it.
fn canonical_hasher() -> &'static RandomState {
    static HASHER: OnceLock<RandomState> = OnceLock::new();
    HASHER.get_or_init(RandomState::new)
}

/// The canonical, hashable identity of a [`Filter`].
///
/// Two filters with equal keys match exactly the same events: predicates
/// are sorted and deduplicated (a conjunction is a set), and operands are
/// compared as the matchers compare them — `Int(3)` and `Float(3.0)`, or
/// `0.0` and `-0.0`, are one operand. The converse does not hold: `x > 3`
/// and `x > 3 ∧ x > 2` are equivalent filters with different keys.
///
/// A key is a handle, not a copy: the shared `Arc<Filter>` it was made
/// from plus the hash of the filter's canonical form, computed once.
/// Cloning it bumps a reference count. Two keys compare their filters'
/// canonical forms only when their hashes agree. Every table that files a
/// filter by its key — the index matcher's slots, the
/// automatic-subscription registry — therefore holds the one
/// `Arc<Filter>` the subscription was placed with.
///
/// The index matcher collapses subscriptions with equal keys into one
/// slot, and a federation advertises each slot to its peers once.
///
/// # Examples
///
/// ```
/// use reef_pubsub::{Filter, FilterKey, Op};
///
/// let a = Filter::new().and("sym", Op::Eq, "ACME").and("px", Op::Ge, 3);
/// let b = Filter::new().and("px", Op::Ge, 3.0).and("sym", Op::Eq, "ACME");
/// assert_eq!(FilterKey::of(&a), FilterKey::of(&b));
/// ```
#[derive(Clone)]
pub struct FilterKey {
    hash: u64,
    filter: Arc<Filter>,
}

impl FilterKey {
    /// The key of a shared filter; the key holds `filter` itself.
    pub fn new(filter: Arc<Filter>) -> FilterKey {
        let hash = canonical_hasher().hash_one(canonical(&filter));
        FilterKey { hash, filter }
    }

    /// The key of `filter`, over a copy of it. Use [`FilterKey::new`] to
    /// key a filter that is already shared.
    pub fn of(filter: &Filter) -> FilterKey {
        FilterKey::new(Arc::new(filter.clone()))
    }

    /// The filter the key was made from.
    pub fn filter(&self) -> &Arc<Filter> {
        &self.filter
    }
}

impl PartialEq for FilterKey {
    fn eq(&self, other: &FilterKey) -> bool {
        self.hash == other.hash
            && (Arc::ptr_eq(&self.filter, &other.filter)
                || canonical(&self.filter) == canonical(&other.filter))
    }
}

impl Eq for FilterKey {}

impl Hash for FilterKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl fmt::Debug for FilterKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("FilterKey").field(&*self.filter).finish()
    }
}

/// Expected type of the operand for predicates on an attribute of type `ty`
/// under operator `op`. Used by [`crate::Schema`] validation.
pub fn expected_operand_type(ty: ValueType, op: Op) -> ValueType {
    if op.is_string_op() {
        ValueType::Str
    } else {
        ty
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(pairs: &[(&str, Value)]) -> Event {
        pairs
            .iter()
            .map(|(k, v)| ((*k).to_owned(), v.clone()))
            .collect()
    }

    #[test]
    fn equality_and_ordering_predicates() {
        let e = ev(&[("price", Value::from(10)), ("sym", Value::from("ACME"))]);
        assert!(Predicate::new("price", Op::Eq, 10.0).matches(&e));
        assert!(Predicate::new("price", Op::Ge, 10).matches(&e));
        assert!(Predicate::new("price", Op::Lt, 11).matches(&e));
        assert!(!Predicate::new("price", Op::Gt, 10).matches(&e));
        assert!(Predicate::new("sym", Op::Ne, "X").matches(&e));
    }

    #[test]
    fn string_predicates() {
        let e = ev(&[("url", Value::from("http://news.example/rss"))]);
        assert!(Predicate::new("url", Op::Prefix, "http://").matches(&e));
        assert!(Predicate::new("url", Op::Suffix, "/rss").matches(&e));
        assert!(Predicate::new("url", Op::Contains, "news").matches(&e));
        assert!(!Predicate::new("url", Op::Contains, "sports").matches(&e));
    }

    #[test]
    fn exists_and_missing_attribute() {
        let e = ev(&[("a", Value::from(1))]);
        assert!(Predicate::new("a", Op::Exists, true).matches(&e));
        assert!(!Predicate::new("b", Op::Exists, true).matches(&e));
        assert!(!Predicate::new("b", Op::Eq, 1).matches(&e));
    }

    #[test]
    fn string_ops_against_non_string_values_do_not_match() {
        let e = ev(&[("n", Value::from(5))]);
        assert!(!Predicate::new("n", Op::Prefix, "5").matches(&e));
        assert!(!Predicate::new("n", Op::Contains, "5").matches(&e));
    }

    #[test]
    fn empty_filter_matches_everything() {
        assert!(Filter::new().matches(&Event::new()));
        assert!(Filter::new().matches(&ev(&[("x", Value::from(1))])));
    }

    #[test]
    fn conjunction_requires_all() {
        let f = Filter::new().and("a", Op::Eq, 1).and("b", Op::Gt, 2);
        assert!(f.matches(&ev(&[("a", Value::from(1)), ("b", Value::from(3))])));
        assert!(!f.matches(&ev(&[("a", Value::from(1)), ("b", Value::from(2))])));
        assert!(!f.matches(&ev(&[("a", Value::from(1))])));
    }

    #[test]
    fn topic_filter_matches_topical_event() {
        let f = Filter::topic("http://feed.example/rss");
        assert!(f.matches(&Event::topical("http://feed.example/rss", "item")));
        assert!(!f.matches(&Event::topical("http://other.example/rss", "item")));
    }

    #[test]
    fn predicate_implication_equality() {
        let p_eq5 = Predicate::new("x", Op::Eq, 5);
        assert!(p_eq5.implies(&Predicate::new("x", Op::Gt, 3)));
        assert!(p_eq5.implies(&Predicate::new("x", Op::Le, 5)));
        assert!(!p_eq5.implies(&Predicate::new("x", Op::Gt, 5)));
        assert!(!p_eq5.implies(&Predicate::new("y", Op::Gt, 3)));
    }

    #[test]
    fn predicate_implication_ranges() {
        assert!(Predicate::new("x", Op::Lt, 3).implies(&Predicate::new("x", Op::Lt, 5)));
        assert!(Predicate::new("x", Op::Lt, 5).implies(&Predicate::new("x", Op::Le, 5)));
        assert!(!Predicate::new("x", Op::Le, 5).implies(&Predicate::new("x", Op::Lt, 5)));
        assert!(Predicate::new("x", Op::Gt, 5).implies(&Predicate::new("x", Op::Ge, 5)));
        assert!(Predicate::new("x", Op::Ge, 6).implies(&Predicate::new("x", Op::Gt, 5)));
    }

    #[test]
    fn predicate_implication_strings() {
        assert!(
            Predicate::new("s", Op::Prefix, "abc").implies(&Predicate::new("s", Op::Prefix, "ab"))
        );
        assert!(
            Predicate::new("s", Op::Prefix, "abc").implies(&Predicate::new("s", Op::Contains, "b"))
        );
        assert!(
            !Predicate::new("s", Op::Prefix, "ab").implies(&Predicate::new("s", Op::Prefix, "abc"))
        );
        assert!(
            Predicate::new("s", Op::Contains, "xyz").implies(&Predicate::new(
                "s",
                Op::Contains,
                "y"
            ))
        );
    }

    #[test]
    fn everything_implies_exists() {
        assert!(Predicate::new("x", Op::Lt, 3).implies(&Predicate::new("x", Op::Exists, true)));
        assert!(!Predicate::new("x", Op::Lt, 3).implies(&Predicate::new("y", Op::Exists, true)));
    }

    #[test]
    fn filter_covering_basic() {
        let wide = Filter::new().and("price", Op::Gt, 5);
        let narrow = Filter::new()
            .and("price", Op::Gt, 10)
            .and("sym", Op::Eq, "A");
        assert!(wide.covers(&narrow));
        assert!(!narrow.covers(&wide));
        // Match-all covers everything.
        assert!(Filter::new().covers(&wide));
        assert!(!wide.covers(&Filter::new()));
    }

    #[test]
    fn covering_is_sound_on_samples() {
        // If covers() says yes, actual matching must agree on sample events.
        let wide = Filter::new().and("x", Op::Ge, 0);
        let narrow = Filter::new().and("x", Op::Gt, 3).and("y", Op::Eq, 1);
        assert!(wide.covers(&narrow));
        for xv in [-1, 0, 4, 100] {
            let e = ev(&[("x", Value::from(xv)), ("y", Value::from(1))]);
            if narrow.matches(&e) {
                assert!(wide.matches(&e));
            }
        }
    }

    #[test]
    fn validate_operands_rejects_nan_and_bad_string_ops() {
        let f = Filter::new().and("x", Op::Gt, f64::NAN);
        assert!(f.validate_operands().is_err());
        let f = Filter::new().and("x", Op::Prefix, 3);
        assert!(f.validate_operands().is_err());
        let f = Filter::new().and("x", Op::Prefix, "a").and("y", Op::Lt, 3);
        assert!(f.validate_operands().is_ok());
    }

    #[test]
    fn filter_key_ignores_order_duplicates_and_numeric_type() {
        let a = Filter::new()
            .and("sym", Op::Eq, "A")
            .and("px", Op::Lt, 5)
            .and("px", Op::Lt, 5.0)
            .and_exists("venue");
        let b = Filter::new()
            .and("venue", Op::Exists, "ignored")
            .and("px", Op::Lt, 5.0)
            .and("sym", Op::Eq, "A");
        assert_eq!(FilterKey::of(&a), FilterKey::of(&b));
        assert_eq!(
            FilterKey::of(&Filter::new().and("z", Op::Eq, 0.0)),
            FilterKey::of(&Filter::new().and("z", Op::Eq, -0.0))
        );
        assert_eq!(FilterKey::of(&Filter::new()), FilterKey::of(&Filter::new()));
    }

    #[test]
    fn filter_key_separates_what_matches_differently() {
        let base = Filter::new().and("px", Op::Lt, 5);
        for other in [
            Filter::new().and("px", Op::Le, 5),
            Filter::new().and("px", Op::Lt, 6),
            Filter::new().and("qx", Op::Lt, 5),
            Filter::new().and("px", Op::Lt, "5"),
            Filter::new().and("px", Op::Lt, 5).and_exists("sym"),
            Filter::new(),
        ] {
            assert_ne!(FilterKey::of(&base), FilterKey::of(&other), "{other}");
        }
    }

    #[test]
    fn filter_key_gives_every_nan_one_identity() {
        let quiet = Filter::new().and("x", Op::Ne, f64::NAN);
        let other_bits = Filter::new().and("x", Op::Ne, f64::from_bits(0x7ff8_0000_0000_0001));
        assert_eq!(FilterKey::of(&quiet), FilterKey::of(&other_bits));
        assert_ne!(
            FilterKey::of(&quiet),
            FilterKey::of(&Filter::new().and("x", Op::Eq, f64::NAN))
        );
        assert_ne!(
            FilterKey::of(&quiet),
            FilterKey::of(&Filter::new().and_exists("x"))
        );
    }

    #[test]
    fn display_formats() {
        let f = Filter::new().and("a", Op::Eq, 1).and_exists("b");
        assert_eq!(f.to_string(), "a = 1 ∧ b exists");
        assert_eq!(Filter::new().to_string(), "<match-all>");
    }
}
