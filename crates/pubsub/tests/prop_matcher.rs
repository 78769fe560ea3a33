//! Property-based tests for the matching engines and the covering relation.
//!
//! The first block is the differential suite: [`IndexMatcher`] against the
//! [`NaiveMatcher`] oracle over interleaved writes, duplicates, snapshots
//! and threads. The second holds [`FilterKey`] to a by-value reference
//! model of filter identity. A failure prints the `REEF_TEST_SEED` that
//! replays it.

use proptest::prelude::*;
use reef_pubsub::{
    Event, Filter, FilterKey, IndexMatcher, MatchEngine, NaiveMatcher, Op, SubscriptionId, Value,
};
use std::hash::{BuildHasher, RandomState};
use std::sync::{Arc, Barrier};

/// Small attribute universe so filters and events actually collide.
const ATTRS: [&str; 4] = ["alpha", "beta", "gamma", "delta"];

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-5i64..5).prop_map(Value::from),
        (-5i64..5).prop_map(|i| Value::Float(i as f64 / 2.0)),
        "[a-c]{0,3}".prop_map(Value::from),
        any::<bool>().prop_map(Value::from),
        Just(Value::Float(-0.0)),
    ]
}

/// Operands may also be `NaN`, which no event value equals or orders with.
fn arb_operand() -> impl Strategy<Value = Value> {
    prop_oneof![
        arb_value(),
        arb_value(),
        arb_value(),
        Just(Value::Float(f64::NAN)),
    ]
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Eq),
        Just(Op::Eq),
        Just(Op::Ne),
        Just(Op::Lt),
        Just(Op::Le),
        Just(Op::Gt),
        Just(Op::Ge),
        Just(Op::Prefix),
        Just(Op::Suffix),
        Just(Op::Contains),
        Just(Op::Exists),
    ]
}

/// Anything the algebra allows: empty filters, several equalities, none,
/// the same attribute constrained twice.
fn filter_over(operands: impl Strategy<Value = Value>) -> impl Strategy<Value = Filter> {
    let predicate = (0usize..4, arb_op(), operands);
    prop::collection::vec(predicate, 0..4).prop_map(|preds| {
        let mut f = Filter::new();
        for (attr, op, operand) in preds {
            // String ops need string operands to be valid; coerce.
            let operand = if op.is_string_op() {
                Value::from(operand.to_string())
            } else {
                operand
            };
            f = f.and(ATTRS[attr], op, operand);
        }
        f
    })
}

/// Filters a schema would accept (no `NaN`: it breaks `Filter`'s `==`).
fn arb_filter() -> impl Strategy<Value = Filter> {
    filter_over(arb_value())
}

fn arb_event() -> impl Strategy<Value = Event> {
    prop::collection::vec((0usize..4, arb_value()), 0..5).prop_map(|pairs| {
        let mut e = Event::new();
        for (attr, value) in pairs {
            if value.is_valid() {
                e.set(ATTRS[attr], value);
            }
        }
        e
    })
}

const VENUES: [&str; 3] = ["nyse", "arca", "bats"];

/// The shapes of the ledger's `selective` population, on a grid coarse
/// enough that equal filters recur: an equality on `sym`, a `px` band or
/// floor, or a `venue` string operator with a `px` ceiling.
fn quote_filter() -> impl Strategy<Value = Filter> {
    (0u32..6, 0u32..5, 1u32..3, 0u32..3, 0usize..3, 0u32..3).prop_map(
        |(sym, low, width, shape, venue, string_op)| {
            let base = Filter::new().and("sym", Op::Eq, format!("S{sym}"));
            let low = f64::from(low * 100);
            match shape {
                0 => base
                    .and("px", Op::Ge, low)
                    .and("px", Op::Lt, low + f64::from(width * 100)),
                1 => base.and("px", Op::Gt, low),
                _ => {
                    let venue = VENUES[venue];
                    let (op, operand) = match string_op {
                        0 => (Op::Prefix, &venue[..2]),
                        1 => (Op::Suffix, &venue[2..]),
                        _ => (Op::Contains, &venue[1..3]),
                    };
                    base.and("venue", op, operand)
                        .and("px", Op::Lt, low + 100.0)
                }
            }
        },
    )
}

/// A quote; symbols `S6` and `S7` are ones no filter names.
fn quote_event() -> impl Strategy<Value = Event> {
    (0u32..8, 0u32..12, 0usize..3).prop_map(|(sym, px, venue)| {
        Event::builder()
            .attr("sym", format!("S{sym}"))
            .attr("px", f64::from(px * 50))
            .attr("venue", VENUES[venue])
            .build()
    })
}

fn any_filter() -> impl Strategy<Value = Filter> {
    prop_oneof![filter_over(arb_operand()), quote_filter()]
}

/// `Filter` equality that holds for `NaN` operands too.
fn shown(filter: Option<&Filter>) -> Option<String> {
    filter.map(|f| format!("{f:?}"))
}

fn any_event() -> impl Strategy<Value = Event> {
    prop_oneof![arb_event(), quote_event()]
}

/// One step of a write sequence. Ids and filters come from small ranges,
/// so the same id is inserted again and many ids hold the same filter.
#[derive(Debug, Clone)]
enum Step {
    Insert { id: u64, filter: usize },
    Remove { id: u64 },
    Snapshot,
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0u64..24, 0usize..64).prop_map(|(id, filter)| Step::Insert { id, filter }),
        (0u64..24, 0usize..64).prop_map(|(id, filter)| Step::Insert { id, filter }),
        (0u64..24).prop_map(|id| Step::Remove { id }),
        Just(Step::Snapshot),
    ]
}

/// Both engines under the same writes.
#[derive(Clone, Default)]
struct Pair {
    naive: NaiveMatcher,
    index: IndexMatcher,
}

impl Pair {
    fn apply(&mut self, step: &Step, pool: &[Filter]) -> Result<(), TestCaseError> {
        match step {
            Step::Insert { id, filter } => {
                let filter = &pool[filter % pool.len()];
                self.naive.insert(SubscriptionId(*id), filter.clone());
                self.index.insert(SubscriptionId(*id), filter.clone());
                prop_assert_eq!(
                    shown(self.index.filter(SubscriptionId(*id))),
                    shown(Some(filter))
                );
            }
            Step::Remove { id } => {
                prop_assert_eq!(
                    shown(self.naive.remove(SubscriptionId(*id)).as_ref()),
                    shown(
                        self.index
                            .remove(SubscriptionId(*id))
                            .map(|(f, _)| f)
                            .as_deref()
                    )
                );
                prop_assert_eq!(self.index.filter(SubscriptionId(*id)), None);
            }
            Step::Snapshot => {}
        }
        prop_assert_eq!(self.naive.len(), self.index.len());
        Ok(())
    }

    fn agree_on(&self, events: &[Event]) -> Result<(), TestCaseError> {
        for ev in events {
            prop_assert_eq!(
                self.naive.matches(ev),
                self.index.matches(ev),
                "event {}",
                ev
            );
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// The index matcher and the naive matcher agree on every workload.
    #[test]
    fn engines_are_equivalent(filters in prop::collection::vec(any_filter(), 0..25),
                              events in prop::collection::vec(any_event(), 0..25)) {
        let mut pair = Pair::default();
        for (i, f) in filters.iter().enumerate() {
            pair.naive.insert(SubscriptionId(i as u64), f.clone());
            pair.index.insert(SubscriptionId(i as u64), f.clone());
        }
        pair.agree_on(&events)?;
    }

    /// Interleaved insert / remove / re-insert under the same id, with a
    /// few filters shared by many ids: the engines agree after every
    /// write, and every snapshot taken along the way still answers from
    /// what it held when it was taken.
    #[test]
    fn engines_agree_through_interleaved_writes_and_snapshots(
        pool in prop::collection::vec(any_filter(), 1..8),
        steps in prop::collection::vec(arb_step(), 0..80),
        events in prop::collection::vec(any_event(), 1..12),
    ) {
        let mut pair = Pair::default();
        let mut snapshots: Vec<Pair> = Vec::new();
        for (n, step) in steps.iter().enumerate() {
            if matches!(step, Step::Snapshot) {
                snapshots.push(pair.clone());
            }
            pair.apply(step, &pool)?;
            pair.agree_on(&events[n % events.len()..][..1])?;
        }
        pair.agree_on(&events)?;
        for snapshot in &snapshots {
            prop_assert_eq!(snapshot.naive.len(), snapshot.index.len());
            snapshot.agree_on(&events)?;
        }
        // Emptied, the index has let go of everything and starts over.
        for id in 0..24 {
            pair.apply(&Step::Remove { id }, &pool)?;
        }
        prop_assert!(pair.index.is_empty());
        pair.agree_on(&events)?;
        pair.apply(&Step::Insert { id: 0, filter: 0 }, &pool)?;
        pair.agree_on(&events)?;
    }

    /// Several threads match on one shared snapshot while the matcher it
    /// was cloned from keeps changing: each thread's answers equal the
    /// oracle's for the snapshot (the counters are per thread, the shared
    /// tables are never written through).
    #[test]
    fn threads_sharing_a_snapshot_agree_with_the_oracle(
        pool in prop::collection::vec(any_filter(), 1..10),
        held in prop::collection::vec(0usize..64, 1..40),
        later in prop::collection::vec(arb_step(), 0..40),
        events in prop::collection::vec(any_event(), 1..16),
    ) {
        const THREADS: usize = 3;
        let mut pair = Pair::default();
        for (id, filter) in held.iter().enumerate() {
            pair.apply(&Step::Insert { id: id as u64, filter: *filter }, &pool)?;
        }
        let expected: Vec<Vec<SubscriptionId>> =
            events.iter().map(|ev| pair.naive.matches(ev)).collect();
        let snapshot = pair.index.clone();
        let start = Barrier::new(THREADS + 1);
        let answers: Vec<Vec<Vec<SubscriptionId>>> = std::thread::scope(|scope| {
            let readers: Vec<_> = (0..THREADS)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        (0..3)
                            .flat_map(|_| events.iter().map(|ev| snapshot.matches(ev)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            start.wait();
            let written = later.iter().try_for_each(|step| pair.apply(step, &pool));
            let answers = readers
                .into_iter()
                .map(|reader| reader.join().expect("reader thread"))
                .collect();
            written.map(|()| answers)
        })?;
        for answer in &answers {
            for (n, got) in answer.iter().enumerate() {
                prop_assert_eq!(got, &expected[n % events.len()]);
            }
        }
        pair.agree_on(&events)?;
    }
}

/// An operand of the reference model's canonical form.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
enum ModelOperand {
    Str(String),
    /// The bit pattern of the operand as an `f64`, `-0.0` folded into
    /// `0.0`.
    Num(u64),
    Bool(bool),
}

/// The reference model of filter identity: the by-value canonical form
/// `FilterKey` once stored. Every predicate becomes an owned
/// `(attribute, operator, operand)` triple; `Exists` drops its operand,
/// every `NaN` is one `None`, integers and floats meet on the real line.
/// The triples are sorted and deduplicated.
fn model_key(filter: &Filter) -> Vec<(String, Op, Option<ModelOperand>)> {
    let mut key: Vec<(String, Op, Option<ModelOperand>)> = filter
        .predicates()
        .iter()
        .map(|p| {
            let operand = match (p.op, &p.operand) {
                (Op::Exists, _) => None,
                (_, Value::Str(s)) => Some(ModelOperand::Str(s.clone())),
                (_, Value::Bool(b)) => Some(ModelOperand::Bool(*b)),
                (_, number) => {
                    let x = number.as_f64().expect("ints and floats are numbers");
                    let x = if x == 0.0 { 0.0 } else { x };
                    (!x.is_nan()).then(|| ModelOperand::Num(x.to_bits()))
                }
            };
            (p.attr.clone(), p.op, operand)
        })
        .collect();
    key.sort();
    key.dedup();
    key
}

/// Operands that look different and may be the same: `Int(3)` and
/// `Float(3.0)`, three zeros, three `NaN` bit patterns, a string that reads
/// like a number, booleans.
fn key_operand(at: usize) -> Value {
    const OPERANDS: usize = 13;
    match at % OPERANDS {
        0 => Value::Int(3),
        1 => Value::Float(3.0),
        2 => Value::Int(0),
        3 => Value::Float(0.0),
        4 => Value::Float(-0.0),
        5 => Value::Float(f64::NAN),
        6 => Value::Float(f64::from_bits(0x7ff8_0000_0000_0001)),
        7 => Value::Float(f64::from_bits(0xfff8_0000_0000_0000)),
        8 => Value::from("3"),
        9 => Value::from("a"),
        10 => Value::Bool(true),
        11 => Value::Bool(false),
        _ => Value::Float(3.5),
    }
}

/// Another operand the key must not tell apart from operand `at`, picked
/// by `pick`: the same number in another type or sign, another `NaN`.
fn twin_operand(at: usize, pick: u64) -> usize {
    let class: &[usize] = match at {
        0 | 1 => &[0, 1],
        2..=4 => &[2, 3, 4],
        5..=7 => &[5, 6, 7],
        _ => return at,
    };
    class[pick as usize % class.len()]
}

const KEY_OPS: [Op; 5] = [Op::Eq, Op::Ne, Op::Lt, Op::Contains, Op::Exists];

/// A predicate as indexes into the attribute, operator and operand pools.
type RawPredicate = (usize, usize, usize);

fn key_filter(raw: &[RawPredicate]) -> Filter {
    raw.iter()
        .map(|&(attr, op, operand)| {
            reef_pubsub::Predicate::new(["x", "y"][attr], KEY_OPS[op], key_operand(operand))
        })
        .collect()
}

/// A pair of filters that is often the same filter in disguise: the
/// second is the first permuted, with some predicates repeated, operands
/// swapped for twins and `Exists` operands replaced — and now and then
/// one predicate changed outright, or an unrelated filter altogether.
fn filter_pair() -> impl Strategy<Value = (Filter, Filter)> {
    let raw = || prop::collection::vec((0usize..2, 0usize..KEY_OPS.len(), 0usize..13), 0..5);
    (
        raw(),
        raw(),
        prop::collection::vec(any::<u64>(), 12),
        0u32..8,
    )
        .prop_map(|(base, unrelated, noise, how)| {
            let first = key_filter(&base);
            if how == 0 {
                return (first, key_filter(&unrelated));
            }
            let mut disguised: Vec<(u64, RawPredicate)> = base
                .iter()
                .enumerate()
                .map(|(i, &(attr, op, operand))| {
                    let pick = noise[i % noise.len()];
                    let operand = if KEY_OPS[op] == Op::Exists {
                        (pick % 13) as usize
                    } else {
                        twin_operand(operand, pick >> 8)
                    };
                    (pick >> 16, (attr, op, operand))
                })
                .collect();
            for (i, held) in base.iter().enumerate() {
                if noise[(i + 5) % noise.len()] % 3 == 0 {
                    disguised.push((noise[(i + 7) % noise.len()], *held));
                }
            }
            disguised.sort_by_key(|(order, _)| *order);
            let mut second: Vec<RawPredicate> = disguised.into_iter().map(|(_, p)| p).collect();
            if how == 1 && !second.is_empty() {
                let at = noise[11] as usize % second.len();
                let (attr, op, operand) = second[at];
                second[at] = match noise[10] % 3 {
                    0 => (1 - attr, op, operand),
                    1 => (attr, (op + 1) % KEY_OPS.len(), operand),
                    _ => (attr, op, (operand + 1) % 13),
                };
            }
            (first, key_filter(&second))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// `FilterKey` is a hash handle over a shared filter; two keys are
    /// equal exactly when the reference model's canonical forms are, and
    /// equal keys hash alike, whether they share the filter or not.
    #[test]
    fn filter_key_agrees_with_the_by_value_model(pair in filter_pair()) {
        let (a, b) = pair;
        let hasher = RandomState::new();
        let shared = Arc::new(a.clone());
        let keys = [
            FilterKey::of(&a),
            FilterKey::new(Arc::clone(&shared)),
            FilterKey::new(shared),
        ];
        let other = FilterKey::new(Arc::new(b.clone()));
        let same = model_key(&a) == model_key(&b);
        for key in &keys {
            prop_assert_eq!(key, &keys[0]);
            prop_assert_eq!(hasher.hash_one(key), hasher.hash_one(&keys[0]));
            prop_assert_eq!(key == &other, same, "{} vs {}", a, b);
            if same {
                prop_assert_eq!(hasher.hash_one(key), hasher.hash_one(&other));
            }
        }
    }
}

proptest! {
    /// Covering soundness: if `wide.covers(narrow)`, then every event
    /// matched by `narrow` is matched by `wide`.
    #[test]
    fn covering_is_sound(wide in arb_filter(), narrow in arb_filter(),
                         events in prop::collection::vec(arb_event(), 0..40)) {
        if wide.covers(&narrow) {
            for ev in &events {
                if narrow.matches(ev) {
                    prop_assert!(
                        wide.matches(ev),
                        "covering violated for event {} (wide: {}, narrow: {})",
                        ev, wide, narrow
                    );
                }
            }
        }
    }

    /// Covering is reflexive.
    #[test]
    fn covering_is_reflexive(f in arb_filter()) {
        prop_assert!(f.covers(&f));
    }

    /// Filter matching is deterministic (same event, same answer) and the
    /// empty filter matches everything.
    #[test]
    fn match_all_invariant(ev in arb_event()) {
        prop_assert!(Filter::new().matches(&ev));
        let f = Filter::new().and("alpha", Op::Exists, true);
        prop_assert_eq!(f.matches(&ev), ev.has("alpha"));
    }

    /// An event always matches the exact-equality filter built from its own
    /// attributes.
    #[test]
    fn event_matches_its_own_profile(ev in arb_event()) {
        let mut f = Filter::new();
        for (name, value) in ev.iter() {
            f = f.and(name, Op::Eq, value.clone());
        }
        prop_assert!(f.matches(&ev));
    }
}
