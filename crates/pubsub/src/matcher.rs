//! Matching engines: deciding which subscriptions an event satisfies.
//!
//! [`IndexMatcher`] is the engine everything runs on — the broker, the
//! routing core ([`crate::BrokerNode`]) and through it the federation.
//! [`NaiveMatcher`] evaluates every filter against every event; it is the
//! oracle the tests and benchmarks hold the index against, and nothing at
//! run time can select it. Both implement [`MatchEngine`].
//!
//! # What the index stores
//!
//! The paper's loop turns every reader's clicks into subscriptions, so a
//! broker's population grows with users × interests and is heavily
//! duplicated. The index therefore keeps one **slot** per *distinct*
//! filter (distinct by [`FilterKey`]) with the list of subscriptions that
//! own it, and an event is matched against slots; a matching slot
//! contributes all of its owners. Each slot falls in one of three classes:
//!
//! 1. **Keyed** — the filter has an `Eq` predicate with a keyable operand
//!    (anything but `NaN`). The slot is posted *once*, under the access
//!    key `(attribute, value)` of one such predicate (the one whose bucket
//!    is smallest when the slot is created). An event probes one bucket
//!    per attribute it carries and verifies the slot's remaining
//!    predicates directly on the few candidates found there. Cost per
//!    event: O(attributes) hash probes + O(candidates × predicates);
//!    filters keyed on values the event does not carry are never looked
//!    at. Topic subscriptions and `sym = … ∧ px …` filters live here.
//! 2. **Counted** — no keyable equality. Every predicate is indexed under
//!    its attribute: `Lt`/`Le`/`Gt`/`Ge` with numeric operands in four
//!    arrays sorted by operand, where the predicates an event value
//!    satisfies form a prefix or suffix found by binary search; `Exists`
//!    in a list satisfied by presence; everything else (`Ne`, string
//!    operators, ordering against strings or booleans, `Eq NaN`) in a
//!    scan list evaluated one by one. Each satisfied predicate bumps its
//!    slot's counter in a per-thread, generation-stamped array, and the
//!    slot matches when the counter reaches its predicate count. Cost per
//!    event: O(log n + satisfied predicates + scan-list length) per
//!    attribute. Keyword subscriptions (`body =~ …`) live here.
//! 3. **Match-all** — the empty filter: one slot, contributed to every
//!    event.
//!
//! A match allocates nothing but its result: probes borrow the event's
//! strings ([`ValueKey`]) and the counters are reused across events.
//!
//! # Sharing
//!
//! Every table is a persistent map (see `pmap.rs`) or sits behind an
//! [`Arc`] inside one: the subscription table, the slot table, the
//! key-to-slot table, one shard per attribute holding its buckets and its
//! counted arrays, and each slot's owner list. Cloning an index — which is
//! how the broker publishes a snapshot after every write — copies a
//! handful of pointers. A write to an index whose clone is still alive
//! copies the tree paths it walks (O(log n)) plus the one bucket, owner
//! list or counted shard it changes: inserting or removing a keyed filter
//! costs O(log n + bucket), adding or removing a duplicate O(log n +
//! owners of that filter), and a counted filter O(counted predicates on
//! its attributes). No write is O(subscriptions).
//!
//! The filters themselves are never copied. [`IndexMatcher::insert`] takes
//! an `Arc<Filter>` (or wraps an owned filter in one), and the slot, its
//! [`FilterKey`] — a handle holding that same `Arc` plus a hash — and its
//! counted-scan entries all point at it. A subscription whose filter is an
//! exact duplicate of its slot's shares the slot's `Arc`, so a duplicate
//! costs an owner-list entry and a subscription-table entry. The broker and
//! the routing core pass in the `Arc` the daemon built when the
//! subscription arrived, so one filter is stored once however many tables
//! file it.
//!
//! Benchmark **B1** (`cargo bench -p reef-bench --bench matcher`) measures
//! match, insert, remove and clone against [`NaiveMatcher`].

use crate::event::Event;
use crate::filter::{Filter, FilterKey, Op, Predicate};
use crate::pmap::PMap;
use crate::value::{Value, ValueKey};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Identifier of a subscription within one matcher/broker.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SubscriptionId(pub u64);

impl fmt::Display for SubscriptionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sub#{}", self.0)
    }
}

/// A matching engine maps events to the set of subscription ids whose
/// filters they satisfy.
///
/// Engines are deterministic: [`MatchEngine::matches`] returns ids sorted
/// ascending, one per matching subscription.
pub trait MatchEngine: fmt::Debug + Send + Sync {
    /// Register a filter under an id. Ids must be unique; re-inserting an
    /// existing id replaces its filter.
    fn insert(&mut self, id: SubscriptionId, filter: Filter);

    /// Remove a subscription. Returns the removed filter, or `None` if the
    /// id was not registered.
    fn remove(&mut self, id: SubscriptionId) -> Option<Filter>;

    /// All subscription ids whose filters match `event`, sorted ascending.
    fn matches(&self, event: &Event) -> Vec<SubscriptionId>;

    /// Number of registered subscriptions.
    fn len(&self) -> usize;

    /// `true` when no subscriptions are registered.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Look up the filter registered under `id`.
    fn filter(&self, id: SubscriptionId) -> Option<&Filter>;

    /// Copy the engine behind a fresh box. For [`IndexMatcher`] the copy
    /// shares its tables with the original (see the module notes).
    fn clone_box(&self) -> Box<dyn MatchEngine>;
}

/// Linear-scan matcher: evaluates every filter per event.
///
/// This is the reference the index is tested and benchmarked against; the
/// broker and the routing core always run [`IndexMatcher`].
#[derive(Debug, Default, Clone)]
pub struct NaiveMatcher {
    filters: HashMap<SubscriptionId, Filter>,
}

impl NaiveMatcher {
    /// Create an empty matcher.
    pub fn new() -> Self {
        Self::default()
    }
}

impl MatchEngine for NaiveMatcher {
    fn insert(&mut self, id: SubscriptionId, filter: Filter) {
        self.filters.insert(id, filter);
    }

    fn remove(&mut self, id: SubscriptionId) -> Option<Filter> {
        self.filters.remove(&id)
    }

    fn matches(&self, event: &Event) -> Vec<SubscriptionId> {
        let mut out: Vec<SubscriptionId> = self
            .filters
            .iter()
            .filter(|(_, f)| f.matches(event))
            .map(|(id, _)| *id)
            .collect();
        out.sort_unstable();
        out
    }

    fn len(&self) -> usize {
        self.filters.len()
    }

    fn filter(&self, id: SubscriptionId) -> Option<&Filter> {
        self.filters.get(&id)
    }

    fn clone_box(&self) -> Box<dyn MatchEngine> {
        Box::new(self.clone())
    }
}

/// Dense id of a distinct filter; indexes the per-thread counters.
type SlotId = u32;

/// One subscription: the slot of its filter, and the filter as given —
/// the slot's own `Arc` when the two are identical.
#[derive(Clone)]
struct Sub {
    slot: SlotId,
    filter: Arc<Filter>,
}

/// How events reach a slot — its class in the module notes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Access {
    /// Posted in the bucket of this predicate (an index into the slot's
    /// filter); the other predicates are verified on the event.
    Keyed(usize),
    /// Every predicate is indexed and counted.
    Counted,
    /// The empty filter.
    All,
}

/// One distinct filter and the subscriptions that hold it.
#[derive(Clone)]
struct Slot {
    /// Holds the filter of the subscription that created the slot;
    /// predicates are evaluated through it.
    key: FilterKey,
    access: Access,
    /// Sorted ascending. Behind its own `Arc` so that copying a leaf of
    /// the slot table does not copy its neighbours' owner lists.
    owners: Arc<Vec<SubscriptionId>>,
}

/// An entry of the slot table. Freed ids are chained through the table
/// itself, so the free list is shared and copied like everything else.
#[derive(Clone)]
enum SlotEntry {
    Live(Slot),
    Free { next: Option<SlotId> },
}

/// The slot a counted predicate belongs to, and how many satisfied
/// predicates make that slot match.
#[derive(Debug, Clone, Copy)]
struct Target {
    slot: SlotId,
    need: u32,
}

/// A counted predicate that has to be evaluated: predicate `pred` of
/// `filter`.
#[derive(Clone)]
struct ScanEntry {
    target: Target,
    filter: Arc<Filter>,
    pred: usize,
}

/// The counted predicates on one attribute.
#[derive(Clone, Default)]
struct Counted {
    exists: Vec<Target>,
    /// `Lt`, `Le`, `Gt`, `Ge` with numeric operands, each sorted by
    /// operand.
    ordered: [Vec<(f64, Target)>; 4],
    scan: Vec<ScanEntry>,
}

/// Where a counted predicate is filed.
enum Place {
    Exists,
    /// Index into [`Counted::ordered`] and the operand (never `NaN`).
    Ordered(usize, f64),
    Scan,
}

impl Place {
    fn of(pred: &Predicate) -> Place {
        let which = match pred.op {
            Op::Exists => return Place::Exists,
            Op::Lt => 0,
            Op::Le => 1,
            Op::Gt => 2,
            Op::Ge => 3,
            _ => return Place::Scan,
        };
        match pred.operand.as_f64() {
            Some(operand) if !operand.is_nan() => Place::Ordered(which, operand),
            _ => Place::Scan,
        }
    }
}

/// Everything indexed under one attribute name.
#[derive(Clone, Default)]
struct AttrShard {
    /// Access keys: operand → the keyed slots posted under
    /// `attribute = operand`.
    buckets: PMap<ValueKey<'static>, Arc<Vec<SlotId>>>,
    counted: Arc<Counted>,
}

impl AttrShard {
    fn bucket(&self, value: &Value) -> &[SlotId] {
        if self.buckets.is_empty() {
            return &[];
        }
        let Some(probe) = ValueKey::of(value) else {
            return &[];
        };
        self.buckets
            .get_with(self.buckets.hash_of(&probe), |key| *key == probe)
            .map_or(&[], |bucket| bucket.as_slice())
    }

    fn is_empty(&self) -> bool {
        let counted = &self.counted;
        self.buckets.is_empty()
            && counted.exists.is_empty()
            && counted.scan.is_empty()
            && counted.ordered.iter().all(Vec::is_empty)
    }
}

/// Per-thread counters of the counted class, indexed by slot. A cell
/// belongs to the current event only if its stamp is the current
/// generation, so nothing is cleared between events.
#[derive(Default)]
struct Counters {
    generation: u32,
    cells: Vec<(u32, u32)>,
}

thread_local! {
    static COUNTERS: RefCell<Counters> = RefCell::default();
}

impl Counters {
    fn next_event(&mut self) {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.cells.fill((0, 0));
            self.generation = 1;
        }
    }

    /// Count one satisfied predicate; `true` when its slot now matches.
    fn bump(&mut self, target: Target) -> bool {
        let at = target.slot as usize;
        if at >= self.cells.len() {
            self.cells.resize(at + 1, (0, 0));
        }
        let cell = &mut self.cells[at];
        if cell.0 != self.generation {
            *cell = (self.generation, 0);
        }
        cell.1 += 1;
        cell.1 == target.need
    }
}

/// The subscription index: one slot per distinct filter, reached through
/// an equality access key where the filter has one and by counting where
/// it does not, with every table shared between clones. See the module
/// notes for the classes, the cost of an event in each, and the sharing
/// scheme.
#[derive(Clone, Default)]
pub struct IndexMatcher {
    subs: PMap<SubscriptionId, Sub>,
    /// Duplicate collapsing: canonical filter → its slot.
    by_key: PMap<FilterKey, SlotId>,
    slots: PMap<SlotId, SlotEntry>,
    /// Head of the chain of freed slot ids.
    free: Option<SlotId>,
    /// Slot ids handed out so far (live or freed).
    slot_count: SlotId,
    attrs: PMap<String, AttrShard>,
    /// The slot of the empty filter, if anyone holds it.
    match_all: Option<SlotId>,
}

impl fmt::Debug for IndexMatcher {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IndexMatcher")
            .field("subscriptions", &self.subs.len())
            .field("distinct_filters", &self.by_key.len())
            .finish()
    }
}

impl IndexMatcher {
    /// Create an empty matcher.
    pub fn new() -> Self {
        Self::default()
    }

    fn live(&self, slot: SlotId) -> &Slot {
        match self.slots.get(&slot) {
            Some(SlotEntry::Live(slot)) => slot,
            _ => unreachable!("slot {slot} is posted but not live"),
        }
    }

    fn shard_mut(&mut self, attr: &str) -> &mut AttrShard {
        if self.attrs.get(attr).is_none() {
            self.attrs.insert(attr.to_owned(), AttrShard::default());
        }
        self.attrs.get_mut(attr).expect("shard exists")
    }

    /// The class of a new slot. Of several keyable equalities the one with
    /// the smallest bucket becomes the access key, so that a population
    /// sharing one equality (`kind = quote ∧ sym = …`) is spread over the
    /// other.
    fn choose_access(&self, filter: &Filter) -> Access {
        if filter.is_empty() {
            return Access::All;
        }
        filter
            .predicates()
            .iter()
            .enumerate()
            .filter(|(_, pred)| pred.op == Op::Eq && ValueKey::of(&pred.operand).is_some())
            .min_by_key(|(_, pred)| {
                self.attrs
                    .get(pred.attr.as_str())
                    .map_or(0, |shard| shard.bucket(&pred.operand).len())
            })
            .map_or(Access::Counted, |(at, _)| Access::Keyed(at))
    }

    fn post(&mut self, slot: SlotId, filter: &Arc<Filter>, access: Access) {
        match access {
            Access::All => self.match_all = Some(slot),
            Access::Keyed(at) => {
                let pred = &filter.predicates()[at];
                let key = ValueKey::of(&pred.operand)
                    .expect("access predicate is keyable")
                    .into_owned();
                let shard = self.shard_mut(&pred.attr);
                match shard.buckets.get_mut(&key) {
                    Some(bucket) => Arc::make_mut(bucket).push(slot),
                    None => {
                        shard.buckets.insert(key, Arc::new(vec![slot]));
                    }
                }
            }
            Access::Counted => {
                let need = u32::try_from(filter.len()).expect("predicate count fits u32");
                let target = Target { slot, need };
                for (at, pred) in filter.predicates().iter().enumerate() {
                    let counted = Arc::make_mut(&mut self.shard_mut(&pred.attr).counted);
                    match Place::of(pred) {
                        Place::Exists => counted.exists.push(target),
                        Place::Ordered(which, operand) => {
                            let list = &mut counted.ordered[which];
                            let before = list.partition_point(|(o, _)| *o < operand);
                            list.insert(before, (operand, target));
                        }
                        Place::Scan => counted.scan.push(ScanEntry {
                            target,
                            filter: Arc::clone(filter),
                            pred: at,
                        }),
                    }
                }
            }
        }
    }

    /// Undo [`IndexMatcher::post`], dropping buckets and shards it leaves
    /// empty.
    fn unpost(&mut self, slot: SlotId, filter: &Filter, access: Access) {
        const POSTED: &str = "slot was posted here";
        match access {
            Access::All => self.match_all = None,
            Access::Keyed(at) => {
                let pred = &filter.predicates()[at];
                let key = ValueKey::of(&pred.operand)
                    .expect("access predicate is keyable")
                    .into_owned();
                let shard = self.attrs.get_mut(pred.attr.as_str()).expect(POSTED);
                let bucket = Arc::make_mut(shard.buckets.get_mut(&key).expect(POSTED));
                let at = bucket.iter().position(|s| *s == slot).expect(POSTED);
                bucket.swap_remove(at);
                if bucket.is_empty() {
                    shard.buckets.remove(&key);
                }
            }
            Access::Counted => {
                for (at, pred) in filter.predicates().iter().enumerate() {
                    let shard = self.attrs.get_mut(pred.attr.as_str()).expect(POSTED);
                    let counted = Arc::make_mut(&mut shard.counted);
                    match Place::of(pred) {
                        Place::Exists => {
                            let list = &mut counted.exists;
                            let at = list.iter().position(|t| t.slot == slot).expect(POSTED);
                            list.swap_remove(at);
                        }
                        Place::Ordered(which, operand) => {
                            let list = &mut counted.ordered[which];
                            let from = list.partition_point(|(o, _)| *o < operand);
                            let at = list[from..]
                                .iter()
                                .position(|(_, t)| t.slot == slot)
                                .expect(POSTED);
                            list.remove(from + at);
                        }
                        Place::Scan => {
                            let list = &mut counted.scan;
                            let at = list
                                .iter()
                                .position(|e| e.target.slot == slot && e.pred == at)
                                .expect(POSTED);
                            list.swap_remove(at);
                        }
                    }
                }
            }
        }
        for pred in filter.predicates() {
            if self
                .attrs
                .get(pred.attr.as_str())
                .is_some_and(AttrShard::is_empty)
            {
                self.attrs.remove(pred.attr.as_str());
            }
        }
    }

    /// File a new distinct filter under a fresh or recycled slot id.
    fn allocate(&mut self, slot: Slot) -> SlotId {
        let id = match self.free {
            Some(id) => {
                let Some(SlotEntry::Free { next }) = self.slots.get(&id) else {
                    unreachable!("slot {id} is on the free chain but live");
                };
                self.free = *next;
                id
            }
            None => {
                let id = self.slot_count;
                self.slot_count = id.checked_add(1).expect("fewer than 2^32 distinct filters");
                id
            }
        };
        self.slots.insert(id, SlotEntry::Live(slot));
        id
    }

    /// Register `filter` under `id`, replacing the filter `id` held
    /// before. The index keeps the `Arc` it is given (or, for an exact
    /// duplicate of a filter it already holds, that filter's `Arc`) and
    /// copies nothing of the filter.
    pub fn insert(&mut self, id: SubscriptionId, filter: impl Into<Arc<Filter>>) {
        if self.subs.get(&id).is_some() {
            self.remove(id);
        }
        let key = FilterKey::new(filter.into());
        let sub = match self.by_key.get(&key).copied() {
            Some(slot) => {
                let Some(SlotEntry::Live(held)) = self.slots.get_mut(&slot) else {
                    unreachable!("slot {slot} is keyed but not live");
                };
                let owners = Arc::make_mut(&mut held.owners);
                let before = owners.partition_point(|owner| *owner < id);
                owners.insert(before, id);
                // An exact duplicate shares the slot's copy of the filter.
                let (held, given) = (held.key.filter(), key.filter());
                let filter = if held == given {
                    Arc::clone(held)
                } else {
                    Arc::clone(given)
                };
                Sub { slot, filter }
            }
            None => {
                let filter = Arc::clone(key.filter());
                let access = self.choose_access(&filter);
                let slot = self.allocate(Slot {
                    key: key.clone(),
                    access,
                    owners: Arc::new(vec![id]),
                });
                self.post(slot, &filter, access);
                self.by_key.insert(key, slot);
                Sub { slot, filter }
            }
        };
        self.subs.insert(id, sub);
    }

    /// Remove the subscription `id`, returning the filter it was
    /// registered with, or `None` if the id was not registered.
    pub fn remove(&mut self, id: SubscriptionId) -> Option<Arc<Filter>> {
        let sub = self.subs.remove(&id)?;
        let entry = self
            .slots
            .get_mut(&sub.slot)
            .expect("a subscription's slot is in the table");
        match entry {
            SlotEntry::Live(held) if held.owners.len() > 1 => {
                let owners = Arc::make_mut(&mut held.owners);
                let at = owners
                    .binary_search(&id)
                    .expect("subscription owns its slot");
                owners.remove(at);
            }
            _ => {
                // The last owner: the filter leaves the index, and its
                // slot id goes onto the free chain.
                let freed = SlotEntry::Free { next: self.free };
                let SlotEntry::Live(held) = std::mem::replace(entry, freed) else {
                    unreachable!("slot {} has an owner but is not live", sub.slot);
                };
                self.free = Some(sub.slot);
                self.unpost(sub.slot, held.key.filter(), held.access);
                self.by_key.remove(&held.key);
            }
        }
        Some(sub.filter)
    }
}

impl MatchEngine for IndexMatcher {
    fn insert(&mut self, id: SubscriptionId, filter: Filter) {
        IndexMatcher::insert(self, id, filter);
    }

    fn remove(&mut self, id: SubscriptionId) -> Option<Filter> {
        IndexMatcher::remove(self, id).map(Arc::unwrap_or_clone)
    }

    fn matches(&self, event: &Event) -> Vec<SubscriptionId> {
        let mut out: Vec<SubscriptionId> = Vec::new();
        if let Some(slot) = self.match_all {
            out.extend_from_slice(&self.live(slot).owners);
        }
        COUNTERS.with_borrow_mut(|counters| {
            counters.next_event();
            for (attr, value) in event.iter() {
                let Some(shard) = self.attrs.get(attr) else {
                    continue;
                };
                for &candidate in shard.bucket(value) {
                    let slot = self.live(candidate);
                    let Access::Keyed(key) = slot.access else {
                        unreachable!("slot {candidate} is in a bucket but not keyed");
                    };
                    let rest_holds = slot
                        .key
                        .filter()
                        .predicates()
                        .iter()
                        .enumerate()
                        .all(|(at, pred)| at == key || pred.matches(event));
                    if rest_holds {
                        out.extend_from_slice(&slot.owners);
                    }
                }
                let counted = &*shard.counted;
                let mut satisfied = |target: Target| {
                    if counters.bump(target) {
                        out.extend_from_slice(&self.live(target.slot).owners);
                    }
                };
                counted.exists.iter().for_each(|t| satisfied(*t));
                if let Some(v) = value.as_f64().filter(|v| !v.is_nan()) {
                    // `attr < c` holds for the operands above v, `attr > c`
                    // for those below: a suffix and a prefix of each array.
                    let [lt, le, gt, ge] = &counted.ordered;
                    let ranges = [
                        &lt[lt.partition_point(|(c, _)| *c <= v)..],
                        &le[le.partition_point(|(c, _)| *c < v)..],
                        &gt[..gt.partition_point(|(c, _)| *c < v)],
                        &ge[..ge.partition_point(|(c, _)| *c <= v)],
                    ];
                    ranges
                        .into_iter()
                        .flatten()
                        .for_each(|(_, t)| satisfied(*t));
                }
                for entry in &counted.scan {
                    if entry.filter.predicates()[entry.pred].eval(value) {
                        satisfied(entry.target);
                    }
                }
            }
        });
        // A subscription sits in exactly one slot and a slot is reached at
        // most once per event, so there is nothing to deduplicate.
        out.sort_unstable();
        out
    }

    fn len(&self) -> usize {
        self.subs.len()
    }

    fn filter(&self, id: SubscriptionId) -> Option<&Filter> {
        self.subs.get(&id).map(|sub| &*sub.filter)
    }

    fn clone_box(&self) -> Box<dyn MatchEngine> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engines() -> Vec<Box<dyn MatchEngine>> {
        vec![Box::new(NaiveMatcher::new()), Box::new(IndexMatcher::new())]
    }

    fn ev(pairs: &[(&str, Value)]) -> Event {
        pairs
            .iter()
            .map(|(k, v)| ((*k).to_owned(), v.clone()))
            .collect()
    }

    fn ids(raw: &[u64]) -> Vec<SubscriptionId> {
        raw.iter().copied().map(SubscriptionId).collect()
    }

    #[test]
    fn both_engines_match_simple_equality() {
        for mut m in engines() {
            m.insert(SubscriptionId(1), Filter::new().and("a", Op::Eq, 1));
            m.insert(SubscriptionId(2), Filter::new().and("a", Op::Eq, 2));
            let got = m.matches(&ev(&[("a", Value::from(1))]));
            assert_eq!(got, vec![SubscriptionId(1)], "engine {m:?}");
        }
    }

    #[test]
    fn conjunction_counts_all_predicates() {
        for mut m in engines() {
            m.insert(
                SubscriptionId(1),
                Filter::new().and("a", Op::Eq, 1).and("b", Op::Gt, 5),
            );
            assert!(m.matches(&ev(&[("a", Value::from(1))])).is_empty());
            assert_eq!(
                m.matches(&ev(&[("a", Value::from(1)), ("b", Value::from(6))])),
                vec![SubscriptionId(1)]
            );
        }
    }

    #[test]
    fn range_filter_on_same_attribute() {
        for mut m in engines() {
            m.insert(
                SubscriptionId(7),
                Filter::new().and("x", Op::Gt, 3).and("x", Op::Lt, 7),
            );
            assert_eq!(
                m.matches(&ev(&[("x", Value::from(5))])),
                vec![SubscriptionId(7)]
            );
            assert!(m.matches(&ev(&[("x", Value::from(3))])).is_empty());
            assert!(m.matches(&ev(&[("x", Value::from(9))])).is_empty());
        }
    }

    #[test]
    fn match_all_filter_matches_everything() {
        for mut m in engines() {
            m.insert(SubscriptionId(1), Filter::new());
            assert_eq!(m.matches(&Event::new()), vec![SubscriptionId(1)]);
            assert_eq!(
                m.matches(&ev(&[("z", Value::from(1))])),
                vec![SubscriptionId(1)]
            );
        }
    }

    #[test]
    fn exists_and_string_predicates() {
        for mut m in engines() {
            m.insert(SubscriptionId(1), Filter::new().and_exists("tag"));
            m.insert(
                SubscriptionId(2),
                Filter::new().and("url", Op::Suffix, ".rss"),
            );
            let e = ev(&[
                ("tag", Value::from(true)),
                ("url", Value::from("http://x/.rss")),
            ]);
            assert_eq!(m.matches(&e), vec![SubscriptionId(1), SubscriptionId(2)]);
        }
    }

    #[test]
    fn remove_unregisters_all_predicates() {
        for mut m in engines() {
            let f = Filter::new()
                .and("a", Op::Eq, 1)
                .and("b", Op::Contains, "x");
            m.insert(SubscriptionId(1), f.clone());
            assert_eq!(m.remove(SubscriptionId(1)), Some(f));
            assert!(m.remove(SubscriptionId(1)).is_none());
            assert!(m
                .matches(&ev(&[("a", Value::from(1)), ("b", Value::from("x"))]))
                .is_empty());
            assert_eq!(m.len(), 0);
        }
    }

    #[test]
    fn reinsert_replaces_filter() {
        for mut m in engines() {
            m.insert(SubscriptionId(1), Filter::new().and("a", Op::Eq, 1));
            m.insert(SubscriptionId(1), Filter::new().and("a", Op::Eq, 2));
            assert!(m.matches(&ev(&[("a", Value::from(1))])).is_empty());
            assert_eq!(
                m.matches(&ev(&[("a", Value::from(2))])),
                vec![SubscriptionId(1)]
            );
            assert_eq!(m.len(), 1);
        }
    }

    #[test]
    fn numeric_equality_crosses_types_in_index() {
        let mut m = IndexMatcher::new();
        m.insert(SubscriptionId(1), Filter::new().and("n", Op::Eq, 3));
        assert_eq!(
            m.matches(&ev(&[("n", Value::from(3.0))])),
            vec![SubscriptionId(1)]
        );
    }

    #[test]
    fn filter_lookup() {
        for mut m in engines() {
            let f = Filter::topic("t");
            m.insert(SubscriptionId(9), f.clone());
            assert_eq!(m.filter(SubscriptionId(9)), Some(&f));
            assert_eq!(m.filter(SubscriptionId(8)), None);
        }
    }

    #[test]
    fn engines_agree_on_mixed_workload() {
        // Deterministic pseudo-random workload, no external RNG needed.
        let mut naive = NaiveMatcher::new();
        let mut index = IndexMatcher::new();
        let attrs = ["a", "b", "c", "d"];
        let mut x: u64 = 42;
        let mut next = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x >> 33
        };
        for i in 0..200u64 {
            let mut f = Filter::new();
            let n_preds = (next() % 3) + 1;
            for _ in 0..n_preds {
                let attr = attrs[(next() % 4) as usize];
                let val = (next() % 10) as i64;
                let op = match next() % 5 {
                    0 => Op::Eq,
                    1 => Op::Ne,
                    2 => Op::Lt,
                    3 => Op::Gt,
                    _ => Op::Exists,
                };
                f = f.and(attr, op, val);
            }
            naive.insert(SubscriptionId(i), f.clone());
            index.insert(SubscriptionId(i), f);
        }
        for _ in 0..300 {
            let mut e = Event::new();
            let n_attrs = (next() % 4) + 1;
            for _ in 0..n_attrs {
                let attr = attrs[(next() % 4) as usize];
                e.set(attr, (next() % 10) as i64);
            }
            assert_eq!(naive.matches(&e), index.matches(&e), "event {e}");
        }
    }

    #[test]
    fn duplicates_share_one_slot_and_expand_to_every_owner() {
        let mut m = IndexMatcher::new();
        let quote = || Filter::new().and("sym", Op::Eq, "A").and("px", Op::Ge, 3);
        m.insert(SubscriptionId(5), quote());
        m.insert(SubscriptionId(2), quote());
        // The same conjunction, written differently.
        m.insert(
            SubscriptionId(9),
            Filter::new().and("px", Op::Ge, 3.0).and("sym", Op::Eq, "A"),
        );
        assert_eq!(m.len(), 3);
        assert_eq!(m.by_key.len(), 1);
        assert_eq!(m.slot_count, 1);
        let e = ev(&[("sym", Value::from("A")), ("px", Value::from(4))]);
        assert_eq!(m.matches(&e), ids(&[2, 5, 9]));
        // Each subscription keeps the filter it was given.
        assert_eq!(
            m.remove(SubscriptionId(9)).unwrap().predicates()[0].attr,
            "px"
        );
        assert_eq!(m.matches(&e), ids(&[2, 5]));
        // The slot outlives the subscription that created it.
        assert_eq!(m.remove(SubscriptionId(5)).as_deref(), Some(&quote()));
        assert_eq!(m.matches(&e), ids(&[2]));
    }

    #[test]
    fn the_index_holds_the_filter_it_is_given_and_copies_nothing() {
        let mut m = IndexMatcher::new();
        let shared = Arc::new(Filter::new().and("sym", Op::Eq, "A").and("px", Op::Gt, 1));
        m.insert(SubscriptionId(1), Arc::clone(&shared));
        // An exact duplicate is filed under the slot's `Arc`; its own is
        // dropped.
        m.insert(
            SubscriptionId(2),
            Filter::new().and("sym", Op::Eq, "A").and("px", Op::Gt, 1),
        );
        // The same conjunction written differently keeps its own filter.
        let reordered = Arc::new(Filter::new().and("px", Op::Gt, 1.0).and("sym", Op::Eq, "A"));
        m.insert(SubscriptionId(3), Arc::clone(&reordered));
        assert_eq!(m.by_key.len(), 1);
        // The caller's handle, the slot's key, the key-to-slot table's
        // key and two subscriptions.
        assert_eq!(Arc::strong_count(&shared), 5);
        assert!(Arc::ptr_eq(
            &m.remove(SubscriptionId(3)).unwrap(),
            &reordered
        ));
        assert!(Arc::ptr_eq(&m.remove(SubscriptionId(1)).unwrap(), &shared));
        assert!(Arc::ptr_eq(&m.remove(SubscriptionId(2)).unwrap(), &shared));
        assert_eq!(Arc::strong_count(&shared), 1, "the emptied index lets go");
    }

    #[test]
    fn removing_the_last_owner_frees_the_slot_and_its_access_key() {
        let mut m = IndexMatcher::new();
        m.insert(SubscriptionId(1), Filter::topic("a"));
        m.insert(SubscriptionId(2), Filter::topic("a"));
        m.insert(SubscriptionId(3), Filter::topic("b"));
        assert_eq!(m.attrs.get("topic").unwrap().buckets.len(), 2);
        m.remove(SubscriptionId(1));
        assert_eq!(m.by_key.len(), 2, "another owner still holds topic a");
        assert_eq!(m.free, None);
        m.remove(SubscriptionId(2));
        assert_eq!(m.by_key.len(), 1);
        assert_eq!(m.attrs.get("topic").unwrap().buckets.len(), 1);
        assert_eq!(m.free, Some(0));
        assert!(m.matches(&Event::topical("a", "")).is_empty());
        // The freed id is the next one handed out.
        m.insert(SubscriptionId(4), Filter::topic("c"));
        assert_eq!(m.free, None);
        assert_eq!(m.slot_count, 2);
        assert_eq!(m.matches(&Event::topical("c", "")), ids(&[4]));
        for id in [3, 4] {
            m.remove(SubscriptionId(id));
        }
        assert!(m.attrs.is_empty(), "the emptied shard is dropped");
        assert!(m.by_key.is_empty() && m.subs.is_empty());
        assert_eq!(m.slot_count, 2, "ids are recycled, not forgotten");
    }

    #[test]
    fn counted_slots_are_unposted_from_every_list() {
        let mut m = IndexMatcher::new();
        let f = Filter::new()
            .and("px", Op::Gt, 1)
            .and("px", Op::Le, 9.5)
            .and("px", Op::Ne, 4)
            .and("venue", Op::Prefix, "ny")
            .and_exists("sym");
        m.insert(SubscriptionId(1), f.clone());
        m.insert(SubscriptionId(2), Filter::new().and("px", Op::Gt, 1));
        let e = ev(&[
            ("px", Value::from(5)),
            ("venue", Value::from("nyse")),
            ("sym", Value::from("A")),
        ]);
        assert_eq!(m.matches(&e), ids(&[1, 2]));
        assert_eq!(m.remove(SubscriptionId(1)).as_deref(), Some(&f));
        assert_eq!(m.matches(&e), ids(&[2]));
        assert!(m.attrs.get("venue").is_none() && m.attrs.get("sym").is_none());
        let px = &m.attrs.get("px").unwrap().counted;
        assert_eq!(px.ordered.iter().map(Vec::len).sum::<usize>(), 1);
        assert!(px.scan.is_empty());
        m.remove(SubscriptionId(2));
        assert!(m.attrs.is_empty());
    }

    #[test]
    fn ordered_arrays_respect_strict_and_inclusive_bounds() {
        let mut m = IndexMatcher::new();
        for (id, op) in [(1, Op::Lt), (2, Op::Le), (3, Op::Gt), (4, Op::Ge)] {
            m.insert(SubscriptionId(id), Filter::new().and("x", op, 5));
        }
        let at = |v: Value| m.matches(&ev(&[("x", v)]));
        assert_eq!(at(Value::from(4)), ids(&[1, 2]));
        assert_eq!(at(Value::from(5.0)), ids(&[2, 4]));
        assert_eq!(at(Value::from(6)), ids(&[3, 4]));
        assert!(at(Value::from("5")).is_empty(), "no order across types");
        assert!(at(Value::Float(f64::NAN)).is_empty());
    }

    #[test]
    fn the_access_key_is_the_equality_with_the_smallest_bucket() {
        let mut m = IndexMatcher::new();
        for (id, sym) in ["A", "B", "C"].into_iter().enumerate() {
            m.insert(
                SubscriptionId(id as u64),
                Filter::new()
                    .and("kind", Op::Eq, "quote")
                    .and("sym", Op::Eq, sym),
            );
        }
        // The first filter found both buckets empty and took `kind`; the
        // others avoid the bucket it sits in.
        assert_eq!(m.attrs.get("kind").unwrap().buckets.len(), 1);
        assert_eq!(m.attrs.get("sym").unwrap().buckets.len(), 2);
        let e = ev(&[("kind", Value::from("quote")), ("sym", Value::from("B"))]);
        assert_eq!(m.matches(&e), ids(&[1]));
    }

    #[test]
    fn equality_on_nan_is_counted_and_never_matches() {
        let mut m = IndexMatcher::new();
        m.insert(SubscriptionId(1), Filter::new().and("x", Op::Eq, f64::NAN));
        m.insert(SubscriptionId(2), Filter::new().and("x", Op::Ne, f64::NAN));
        assert!(m.attrs.get("x").unwrap().buckets.is_empty());
        for v in [Value::Float(f64::NAN), Value::from(1), Value::from("s")] {
            assert_eq!(m.matches(&ev(&[("x", v)])), ids(&[2]));
        }
    }

    #[test]
    fn a_clone_answers_from_its_own_contents() {
        let mut m = IndexMatcher::new();
        for id in 0..500u64 {
            m.insert(SubscriptionId(id), Filter::topic(&format!("t{}", id % 50)));
        }
        m.insert(SubscriptionId(500), Filter::new().and("n", Op::Gt, 0));
        let frozen = m.clone();
        for id in 0..500u64 {
            if id % 2 == 0 {
                m.remove(SubscriptionId(id));
            } else {
                m.insert(SubscriptionId(id), Filter::new().and("n", Op::Gt, 1));
            }
        }
        m.insert(SubscriptionId(501), Filter::topic("t0"));
        let on_t0: Vec<u64> = (0..500).filter(|id| id % 50 == 0).collect();
        assert_eq!(frozen.len(), 501);
        assert_eq!(frozen.matches(&Event::topical("t0", "")), ids(&on_t0));
        assert_eq!(frozen.matches(&ev(&[("n", Value::from(2))])), ids(&[500]));
        assert_eq!(m.matches(&Event::topical("t0", "")), ids(&[501]));
        assert_eq!(m.matches(&ev(&[("n", Value::from(2))])).len(), 251);
    }
}
