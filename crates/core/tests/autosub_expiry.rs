//! Differential property for the auto-subscription engine: observing on
//! every tick and observing only when clicks arrive or
//! [`AutoSubEngine::next_expiry`] passes derive the same filters at every
//! tick. This is what lets a daemon re-derive on uploads and decay
//! deadlines instead of polling every enrolled user.

use proptest::prelude::*;
use reef_attention::Click;
use reef_core::{AutoSubConfig, AutoSubEngine, AutoSubMode};
use reef_simweb::UserId;

const USER: UserId = UserId(7);

/// Half-lives including round ones, so score crossings land exactly on
/// millisecond ticks; 0 disables decay.
const HALF_LIVES: [f64; 6] = [0.0, 0.05, 0.2, 1.0, 2.5, 10.0];
const MIN_SCORES: [f64; 4] = [1.0, 2.0, 2.5, 3.0];
const WORDS: [&str; 5] = ["brokers", "routing", "attention", "feeds", "filters"];

/// One clock step: milliseconds since the previous tick, whether to land
/// instead exactly on (0) or one `f64` before (1) the event-driven
/// engine's deadline, and the clicks (`(host, word)` indices) uploaded at
/// this tick — none on most ticks.
type Step = (u64, u8, Vec<(usize, usize)>);

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    let clicks = prop_oneof![
        Just(Vec::new()),
        Just(Vec::new()),
        prop::collection::vec((0usize..5, 0usize..5), 1..7),
    ];
    // Dense runs of 1–3 ms ticks land on crossings exactly; long gaps
    // cross several half-lives at once.
    let gap = prop_oneof![1u64..4, 1u64..4, 1u64..200, 200u64..2500];
    prop::collection::vec((gap, 0u8..6, clicks), 1..120)
}

fn click(tick: u64, host: usize, word: usize) -> Click {
    Click {
        user: USER,
        day: 0,
        tick,
        url: format!("http://h{host}.example/{}/story-{tick}.html", WORDS[word]),
        referrer: None,
    }
}

fn filters(engine: &AutoSubEngine) -> Vec<String> {
    let mut out: Vec<String> = engine
        .active()
        .iter()
        .map(|d| format!("{:?}", d.filter))
        .collect();
    out.sort();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn deadline_driven_observes_match_observing_every_tick(
        content in any::<bool>(),
        max_filters in 1usize..5,
        min_index in 0usize..MIN_SCORES.len(),
        half_index in 0usize..HALF_LIVES.len(),
        steps in arb_steps(),
    ) {
        let config = AutoSubConfig {
            mode: if content { AutoSubMode::Content } else { AutoSubMode::Topic },
            max_filters,
            min_score: MIN_SCORES[min_index],
            half_life_secs: HALF_LIVES[half_index],
            ..AutoSubConfig::default()
        };
        let mut every_tick = AutoSubEngine::new(USER, config.clone());
        let mut on_events = AutoSubEngine::new(USER, config);
        let mut deadline: Option<f64> = None;
        let mut history: Vec<Click> = Vec::new();
        let mut now = 0.0f64;
        for (tick, (gap, snap, uploaded)) in steps.iter().enumerate() {
            let snapped = match (deadline, snap) {
                (Some(t), 0) => Some(t),
                (Some(t), 1) => Some(t.next_down()),
                _ => None,
            };
            now = match snapped {
                Some(t) if t > now => t,
                _ => ((now * 1000.0).floor() + *gap as f64) / 1000.0,
            };
            let upload = !uploaded.is_empty();
            history.extend(uploaded.iter().map(|&(h, w)| click(tick as u64, h, w)));

            every_tick.observe(&history, now);
            let expiry = every_tick.next_expiry();
            prop_assert!(expiry.is_none_or(|t| t > now), "expiry {expiry:?} at {now}");

            let due = deadline.is_some_and(|t| now >= t);
            if upload || due {
                let diff = on_events.observe(&history, now);
                if !upload {
                    prop_assert!(
                        !diff.retired.is_empty(),
                        "deadline {deadline:?} passed at {now} but nothing retired"
                    );
                }
                deadline = on_events.next_expiry();
                prop_assert!(deadline.is_none_or(|t| t > now), "deadline {deadline:?} at {now}");
            }
            prop_assert_eq!(
                filters(&every_tick),
                filters(&on_events),
                "tick {} at {}s (deadline {:?})",
                tick,
                now,
                deadline
            );
        }
    }
}

/// The exact boundary: a score sitting on `min_score` expires at the next
/// representable instant, and a round crossing at the float it lands on.
#[test]
fn expiry_is_the_first_instant_that_retires() {
    let config = AutoSubConfig {
        min_score: 2.0,
        half_life_secs: 10.0,
        ..AutoSubConfig::default()
    };
    let mut engine = AutoSubEngine::new(USER, config);
    let history: Vec<Click> = (0..4).map(|t| click(t, 0, 0)).collect();
    engine.observe(&history, 5.0);
    // 4 → 2 takes exactly one half-life.
    let expiry = engine.next_expiry().expect("installed and decaying");
    assert!((expiry - 15.0).abs() < 1e-9, "{expiry}");
    let mut early = AutoSubEngine::new(USER, engine.config().clone());
    early.observe(&history, 5.0);
    assert!(early.observe(&history, expiry.next_down()).is_empty());
    assert_eq!(engine.observe(&history, expiry).retired.len(), 1);
    assert_eq!(engine.next_expiry(), None);

    // Exactly on the threshold: the next observe at any later time retires.
    let mut sitting = AutoSubEngine::new(USER, engine.config().clone());
    sitting.observe(&history[..2], 1.0);
    let expiry = sitting.next_expiry().expect("installed");
    assert!(expiry > 1.0 && expiry - 1.0 < 1e-12, "{expiry}");
}

/// Policies come from clients: degenerate numbers end the search (with no
/// deadline, or one strictly ahead) instead of looping forever.
#[test]
fn degenerate_policies_have_a_deadline_or_none() {
    let history: Vec<Click> = (0..4).map(|t| click(t, 0, 0)).collect();
    for (half_life_secs, min_score) in [
        (f64::NAN, 2.0),
        (f64::INFINITY, 2.0),
        (1e-300, 2.0),
        (600.0, 1e-310),
        (600.0, f64::MIN_POSITIVE),
        (600.0, f64::NAN),
    ] {
        let mut engine = AutoSubEngine::new(
            USER,
            AutoSubConfig {
                half_life_secs,
                min_score,
                ..AutoSubConfig::default()
            },
        );
        engine.observe(&history, 1.0);
        let expiry = engine.next_expiry();
        assert!(
            expiry.is_none_or(|t| t > 1.0),
            "{half_life_secs} {min_score}: {expiry:?}"
        );
    }
}

/// A filter the caller could not place is offered again on the next
/// observe instead of being counted as installed forever.
#[test]
fn uninstalled_filter_is_offered_again() {
    let mut engine = AutoSubEngine::new(USER, AutoSubConfig::default());
    let history: Vec<Click> = (0..3).map(|t| click(t, 0, 0)).collect();
    let diff = engine.observe(&history, 0.0);
    assert_eq!(diff.installed.len(), 1);
    let filter = diff.installed[0].filter.clone();
    assert!(engine.uninstall(&filter));
    assert!(!engine.uninstall(&filter));
    assert!(engine.active().is_empty());
    assert_eq!(engine.next_expiry(), None);
    let again = engine.observe(&history, 1.0);
    assert_eq!(again.installed.len(), 1, "{again:?}");
    assert_eq!(again.installed[0].filter, filter);
}
