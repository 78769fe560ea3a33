//! Seeded input generation: events, filter populations and simulated
//! users. The same `(workload, seed)` always yields byte-identical inputs;
//! the daemon only ever sees what is generated here.

use crate::spec::{
    Workload, CHURN_BACKGROUND_FILTERS, CHURN_CLICKS_PER_READER, CHURN_DAYS, CHURN_MAX_COPIES,
    CHURN_READERS, CHURN_UPLOADERS, DUPLICATE_SHARE, EVENT_POOL, FANOUT_SUBSCRIBERS,
    FEDERATED_FEEDS, PROBE_CLICKS, SELECTIVE_FILTERS, SYMBOLS, UPLOAD_CLICKS,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reef_attention::{Click, ClickBatch};
use reef_core::{AutoSubConfig, AutoSubEngine};
use reef_pubsub::{Event, Filter, Op, TOPIC_ATTR};
use reef_simweb::browse::generate_history;
use reef_simweb::zipf::Zipf;
use reef_simweb::{BrowseConfig, UserId, WebConfig, WebUniverse};
use std::collections::BTreeMap;

/// Event attribute carrying the sender's sequence number. No generated
/// filter constrains it, so re-stamping it never changes what matches.
pub const SEQ_ATTR: &str = "seq";

/// First probe user id, far outside the simulated population.
pub const PROBE_USER_BASE: u32 = 990_000;

/// Which latency series a subscriber socket's deliveries feed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Series {
    /// The workload's `deliver_*` metrics (`federated`: the edge socket).
    Primary,
    /// The comparison series (`federated`: the hub socket, for `fed.hop_us`).
    Secondary,
}

/// One subscriber socket the harness opens.
#[derive(Debug, Clone, PartialEq)]
pub struct SocketPlan {
    /// Client name announced in `Hello`.
    pub name: String,
    /// Index of the daemon it connects to.
    pub daemon: usize,
    /// Filters subscribed during set-up.
    pub filters: Vec<Filter>,
    /// Which latency series its deliveries feed.
    pub series: Series,
}

/// One simulated user's click history.
#[derive(Debug, Clone, PartialEq)]
pub struct UserHistory {
    /// The user.
    pub user: UserId,
    /// All clicks, in tick order.
    pub clicks: Vec<Click>,
}

/// The extra inputs of the `churn` workload.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnInputs {
    /// Users uploaded and enrolled during set-up; their derived feeds are
    /// the subscriptions events are delivered through.
    pub readers: Vec<UserHistory>,
    /// Filters the `Subscribe`/`Unsubscribe` pairs cycle through.
    pub pair_filters: Vec<Filter>,
}

/// Everything one workload run feeds the daemon and the layer replays.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    /// The workload these inputs belong to.
    pub workload: Workload,
    /// Daemons to spawn; daemon `n > 0` peers with daemon 0.
    pub daemons: usize,
    /// Subscriber sockets.
    pub sockets: Vec<SocketPlan>,
    /// The publish pool (no sequence number yet).
    pub events: Vec<Event>,
    /// 100-click upload batches: sent during the run by `churn`, replayed
    /// through the codec, WAL and store layers by every workload.
    pub batches: Vec<ClickBatch>,
    /// One user's whole history, for the autosub replays.
    pub history: UserHistory,
    /// Present for `churn` only.
    pub churn: Option<ChurnInputs>,
}

impl Inputs {
    /// Generate the inputs of `workload` from `seed`.
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1ed9_e700 ^ (workload as u64) << 56);
        match workload {
            Workload::Fanout => fanout(seed),
            Workload::Selective => selective(seed, &mut rng),
            Workload::Churn => churn(seed, &mut rng),
            Workload::Federated => federated(seed, &mut rng),
        }
    }

    /// The probe upload of probe user `index`: a burst of clicks on a host
    /// nobody else visits, so the derived feed is new and never published.
    pub fn probe_batch(index: u32) -> ClickBatch {
        let user = UserId(PROBE_USER_BASE + index);
        ClickBatch {
            user,
            clicks: (0..PROBE_CLICKS as u64)
                .map(|tick| Click {
                    user,
                    day: 0,
                    tick,
                    url: format!("http://probe-{index}.example/article-{tick}"),
                    referrer: None,
                })
                .collect(),
        }
    }
}

/// Pad `event` with one filler attribute so `Event::wire_size` reaches
/// `target` (left as is when already within 5 bytes of it).
fn pad_to(mut event: Event, target: usize) -> Event {
    // A string attribute named "z" costs its length plus 5 bytes.
    let spare = target.saturating_sub(event.wire_size());
    if spare >= 5 {
        event.set("z", "x".repeat(spare - 5));
    }
    event
}

/// Small simulated population for the attention-layer replays of the
/// workloads that do not upload clicks themselves.
fn replay_attention(seed: u64) -> (Vec<ClickBatch>, UserHistory) {
    let web = WebConfig {
        content_servers: 80,
        ad_servers: 120,
        spam_servers: 4,
        multimedia_servers: 4,
        ..WebConfig::default()
    };
    let mut users = simulate_users(web, 2, CHURN_DAYS, seed);
    let mut history = users.remove(0);
    history.clicks.truncate(CHURN_CLICKS_PER_READER);
    let batches = batches_of(&users);
    (batches, history)
}

/// Generate `users` simulated users' click histories.
fn simulate_users(web: WebConfig, users: usize, days: u32, seed: u64) -> Vec<UserHistory> {
    let universe = WebUniverse::generate(web, seed);
    let browse = BrowseConfig {
        users,
        days,
        ..BrowseConfig::default()
    };
    let history = generate_history(&universe, &browse, seed);
    let mut per_user: BTreeMap<u32, Vec<Click>> = BTreeMap::new();
    for request in &history.requests {
        per_user
            .entry(request.user.0)
            .or_default()
            .push(Click::from_request(request));
    }
    per_user
        .into_iter()
        .map(|(user, clicks)| UserHistory {
            user: UserId(user),
            clicks,
        })
        .collect()
}

/// Cut users' histories into full `UPLOAD_CLICKS`-click batches.
fn batches_of(users: &[UserHistory]) -> Vec<ClickBatch> {
    users
        .iter()
        .flat_map(|history| {
            history
                .clicks
                .chunks_exact(UPLOAD_CLICKS)
                .map(|chunk| ClickBatch {
                    user: history.user,
                    clicks: chunk.to_vec(),
                })
        })
        .collect()
}

fn fanout(seed: u64) -> Inputs {
    let load = Workload::Fanout.load();
    let sockets = (0..FANOUT_SUBSCRIBERS)
        .map(|i| SocketPlan {
            name: format!("fanout-sub-{i}"),
            daemon: 0,
            filters: vec![Filter::topic("bench")],
            series: Series::Primary,
        })
        .collect();
    let events = (0..EVENT_POOL)
        .map(|_| {
            pad_to(
                Event::builder()
                    .attr(TOPIC_ATTR, "bench")
                    .attr(SEQ_ATTR, 0i64)
                    .build(),
                load.event_bytes,
            )
        })
        .collect();
    let (batches, history) = replay_attention(seed);
    Inputs {
        workload: Workload::Fanout,
        daemons: 1,
        sockets,
        events,
        batches,
        history,
        churn: None,
    }
}

const VENUES: [&str; 8] = [
    "nyse", "nysa", "arca", "bats", "iexg", "edgx", "nsdq", "nsdx",
];

fn symbol(rank: usize) -> String {
    format!("S{rank:04}")
}

/// A content-filter population: Zipf symbol equality joined with numeric
/// ranges and string operators, `DUPLICATE_SHARE` of it exact duplicates.
pub fn content_filters(count: usize, rng: &mut StdRng) -> Vec<Filter> {
    let symbols = Zipf::new(SYMBOLS, 0.7);
    let distinct = ((count as f64) * (1.0 - DUPLICATE_SHARE)).round() as usize;
    let mut filters: Vec<Filter> = (0..distinct)
        .map(|_| {
            let base = Filter::new().and("sym", Op::Eq, symbol(symbols.sample(rng)));
            let low = f64::from(rng.gen_range(0u32..900));
            match rng.gen_range(0u32..10) {
                0..=5 => {
                    let width = f64::from(rng.gen_range(100u32..300));
                    base.and("px", Op::Ge, low).and("px", Op::Lt, low + width)
                }
                6..=7 => base.and("px", Op::Gt, low),
                _ => {
                    let venue = VENUES[rng.gen_range(0..VENUES.len())];
                    let (op, operand) = match rng.gen_range(0u32..3) {
                        0 => (Op::Prefix, &venue[..2]),
                        1 => (Op::Suffix, &venue[2..]),
                        _ => (Op::Contains, &venue[1..3]),
                    };
                    base.and("venue", op, operand)
                        .and("px", Op::Lt, low + 100.0)
                }
            }
        })
        .collect();
    for _ in distinct..count {
        let copy = filters[rng.gen_range(0..distinct)].clone();
        filters.push(copy);
    }
    // Spread the duplicates through the population.
    for i in (1..filters.len()).rev() {
        filters.swap(i, rng.gen_range(0..=i));
    }
    filters
}

/// A quote-like event; `live` ones carry a symbol filters name, the
/// others one that no filter can match.
fn quote_event(live: bool, bytes: usize, rng: &mut StdRng) -> Event {
    let sym = if live {
        symbol(rng.gen_range(0..SYMBOLS))
    } else {
        format!("X{:04}", rng.gen_range(0..SYMBOLS))
    };
    pad_to(
        Event::builder()
            .attr("sym", sym)
            .attr("px", f64::from(rng.gen_range(0u32..100_000)) / 100.0)
            .attr("venue", VENUES[rng.gen_range(0..VENUES.len())])
            .attr(SEQ_ATTR, 0i64)
            .build(),
        bytes,
    )
}

/// The publish pool of `selective`: half the events match nothing; of the
/// other half, two in four match two filters, one matches one and one
/// three — two on average, with the same histogram on every seed and in
/// every run of eight events (`count` is a multiple of eight).
///
/// Candidates are drawn at random and kept by how many filters they match
/// (every content filter names a symbol, so only the filters on the
/// candidate's symbol are tried; the oracle's full scan checks the result).
/// What a seed changes is *which* filters and events meet, never how much
/// matching and delivering a pass through the pool asks of the daemon — so
/// runs on different seeds measure the same work.
fn quote_events(filters: &[Filter], count: usize, bytes: usize, rng: &mut StdRng) -> Vec<Event> {
    let mut by_symbol: BTreeMap<&str, Vec<&Filter>> = BTreeMap::new();
    for filter in filters {
        let symbol = filter
            .eq_attrs()
            .find(|(attr, _)| *attr == "sym")
            .and_then(|(_, value)| value.as_str())
            .expect("every content filter names a symbol");
        by_symbol.entry(symbol).or_default().push(filter);
    }
    let live = count / 2;
    let wanted = [live / 4, live / 2, live / 4];
    let mut kept: [Vec<Event>; 3] = Default::default();
    while kept
        .iter()
        .zip(wanted)
        .any(|(have, want)| have.len() < want)
    {
        let event = quote_event(true, bytes, rng);
        let matched = event
            .get("sym")
            .and_then(|value| value.as_str())
            .and_then(|symbol| by_symbol.get(symbol))
            .map_or(0, |held| held.iter().filter(|f| f.matches(&event)).count());
        if let Some(class) = matched.checked_sub(1).filter(|&class| class < 3) {
            if kept[class].len() < wanted[class] {
                kept[class].push(event);
            }
        }
    }
    // Blocks of eight — four that match nothing, then one, two, two and
    // three copies — each shuffled on its own: every window of a phase
    // carries the same mix, wherever in the pool it starts.
    let [mut ones, mut twos, mut threes] = kept;
    let mut events = Vec::with_capacity(count);
    while let (Some(one), Some(two), Some(three)) = (ones.pop(), twos.pop(), threes.pop()) {
        let mut block = vec![one, two, twos.pop().expect("twice as many"), three];
        block.extend((0..4).map(|_| quote_event(false, bytes, rng)));
        for i in (1..block.len()).rev() {
            block.swap(i, rng.gen_range(0..=i));
        }
        events.append(&mut block);
    }
    events
}

fn selective(seed: u64, rng: &mut StdRng) -> Inputs {
    let load = Workload::Selective.load();
    let filters = content_filters(SELECTIVE_FILTERS, rng);
    let events = quote_events(&filters, EVENT_POOL, load.event_bytes, rng);
    let sockets = vec![SocketPlan {
        name: "selective-sub".to_owned(),
        daemon: 0,
        filters,
        series: Series::Primary,
    }];
    let (batches, history) = replay_attention(seed);
    Inputs {
        workload: Workload::Selective,
        daemons: 1,
        sockets,
        events,
        batches,
        history,
        churn: None,
    }
}

/// The feeds the daemon's default engine keeps installed for `history`
/// once the first refresh has applied decay: derived in-process, on the
/// same clicks, by the same `AutoSubEngine` the daemon runs.
pub fn steady_feeds(history: &UserHistory) -> Vec<Filter> {
    let mut engine = AutoSubEngine::new(history.user, AutoSubConfig::default());
    engine.observe(&history.clicks, 0.0);
    // Any later refresh: scores sitting exactly on the install threshold
    // decay below it and retire; everything else is stable for minutes.
    engine.observe(&history.clicks, 1.0);
    engine.active().into_iter().map(|d| d.filter).collect()
}

/// The topic a derived filter subscribes to.
pub fn topic_of(filter: &Filter) -> Option<&str> {
    filter
        .eq_attrs()
        .find(|(attr, _)| *attr == TOPIC_ATTR)
        .and_then(|(_, value)| value.as_str())
}

/// Feed-update events for `churn`: one in four on a feed nobody derives,
/// the rest in turn on a feed one, two and three readers derive — so a
/// matching event is delivered twice on average (each reader holds its
/// own subscription to a derived feed), with the same histogram on every
/// seed. Feeds more readers share stay subscribed but are not published
/// on: a single event on one of those is a fan-out of dozens.
fn feed_events(readers: &[UserHistory], bytes: usize, rng: &mut StdRng) -> Vec<Event> {
    let mut holders: BTreeMap<String, usize> = BTreeMap::new();
    for filter in readers.iter().flat_map(steady_feeds) {
        if let Some(topic) = topic_of(&filter) {
            *holders.entry(topic.to_owned()).or_default() += 1;
        }
    }
    let mut by_copies: BTreeMap<usize, Vec<String>> = BTreeMap::new();
    for (topic, held) in holders {
        if held <= CHURN_MAX_COPIES {
            by_copies.entry(held).or_default().push(topic);
        }
    }
    assert!(
        !by_copies.is_empty(),
        "no reader derives a publishable feed"
    );
    // Copies delivered so far, and what the rotation 1, 2, 3, 1, … would
    // have delivered: on a seed where no feed is held by, say, exactly
    // three readers, the nearest class stands in and the next picks make
    // up the difference, so a pass through the pool delivers the same
    // number of copies on every seed.
    let (mut live, mut copies, mut ideal) = (0, 0, 0);
    (0..EVENT_POOL)
        .map(|i| {
            let topic = if i % 4 == 3 {
                format!("http://quiet-{}.example/feed.xml", rng.gen_range(0..500))
            } else {
                ideal += live % CHURN_MAX_COPIES + 1;
                live += 1;
                let (&held, feeds) = by_copies
                    .iter()
                    .min_by_key(|(&held, _)| (copies + held).abs_diff(ideal))
                    .expect("at least one class");
                copies += held;
                feeds[rng.gen_range(0..feeds.len())].clone()
            };
            pad_to(
                Event::builder()
                    .attr(TOPIC_ATTR, topic)
                    .attr("title", format!("item {i}"))
                    .attr(SEQ_ATTR, 0i64)
                    .build(),
                bytes,
            )
        })
        .collect()
}

fn churn(seed: u64, rng: &mut StdRng) -> Inputs {
    let load = Workload::Churn.load();
    // Every user keeps the same number of clicks on every seed, so set-up
    // installs the same volume whatever the simulated users did; the odd
    // user who browsed less is replaced by a spare one.
    const SPARE_USERS: usize = 16;
    let mut users = simulate_users(
        WebConfig::default(),
        CHURN_READERS + CHURN_UPLOADERS + SPARE_USERS,
        CHURN_DAYS,
        seed,
    );
    users.retain(|user| user.clicks.len() >= CHURN_CLICKS_PER_READER);
    assert!(
        users.len() >= CHURN_READERS + CHURN_UPLOADERS,
        "seed {seed}: only {} users browsed enough",
        users.len()
    );
    users.truncate(CHURN_READERS + CHURN_UPLOADERS);
    for user in &mut users {
        user.clicks.truncate(CHURN_CLICKS_PER_READER);
    }
    let uploaders = users.split_off(CHURN_READERS);
    let readers = users;
    let batches = batches_of(&uploaders);
    let history = readers[0].clone();
    let events = feed_events(&readers, load.event_bytes, rng);
    let sockets = vec![SocketPlan {
        name: "browser-fleet".to_owned(),
        daemon: 0,
        filters: content_filters(CHURN_BACKGROUND_FILTERS, rng),
        series: Series::Primary,
    }];
    let pair_filters = content_filters(1_024, rng);
    Inputs {
        workload: Workload::Churn,
        daemons: 1,
        sockets,
        events,
        batches,
        history,
        churn: Some(ChurnInputs {
            readers,
            pair_filters,
        }),
    }
}

fn federated(seed: u64, rng: &mut StdRng) -> Inputs {
    let load = Workload::Federated.load();
    let feeds: Vec<Filter> = (0..FEDERATED_FEEDS)
        .map(|n| Filter::topic(&format!("feed/{n}")))
        .collect();
    let sockets = vec![
        SocketPlan {
            name: "edge-sub".to_owned(),
            daemon: 1,
            filters: feeds.clone(),
            series: Series::Primary,
        },
        SocketPlan {
            name: "hub-sub".to_owned(),
            daemon: 0,
            filters: feeds,
            series: Series::Secondary,
        },
    ];
    let events = (0..EVENT_POOL)
        .map(|i| {
            pad_to(
                Event::builder()
                    .attr(
                        TOPIC_ATTR,
                        format!("feed/{}", rng.gen_range(0..FEDERATED_FEEDS)),
                    )
                    .attr("title", format!("feed item {i}"))
                    .attr(SEQ_ATTR, 0i64)
                    .build(),
                load.event_bytes,
            )
        })
        .collect();
    let (batches, history) = replay_attention(seed);
    Inputs {
        workload: Workload::Federated,
        daemons: 2,
        sockets,
        events,
        batches,
        history,
        churn: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reef_wire::{ClientFrame, CodecKind, Request};

    /// Encode everything a workload would put on the wire.
    fn wire_bytes(inputs: &Inputs) -> Vec<u8> {
        let codec = CodecKind::default().codec();
        let mut bytes = Vec::new();
        let mut put = |request: Request| {
            let frame = codec
                .encode_client(&ClientFrame { corr: 1, request })
                .expect("encode");
            frame.write_to(&mut bytes).expect("write to vec");
        };
        for socket in &inputs.sockets {
            for filter in &socket.filters {
                put(Request::Subscribe {
                    filter: filter.clone(),
                });
            }
        }
        for event in &inputs.events {
            put(Request::Publish {
                event: event.clone(),
            });
        }
        for batch in &inputs.batches {
            put(Request::UploadClicks {
                batch: batch.clone(),
            });
        }
        bytes
    }

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        for workload in [Workload::Fanout, Workload::Selective, Workload::Federated] {
            let a = Inputs::generate(workload, 11);
            let b = Inputs::generate(workload, 11);
            assert_eq!(wire_bytes(&a), wire_bytes(&b), "{}", workload.name());
            assert_eq!(a, b);
        }
        let other = Inputs::generate(Workload::Selective, 12);
        assert_ne!(
            wire_bytes(&Inputs::generate(Workload::Selective, 11)),
            wire_bytes(&other)
        );
    }

    #[test]
    fn events_have_the_advertised_size() {
        for workload in [Workload::Fanout, Workload::Selective, Workload::Federated] {
            let inputs = Inputs::generate(workload, 3);
            let want = workload.load().event_bytes;
            for event in &inputs.events {
                let size = event.wire_size();
                assert!(
                    size.abs_diff(want) <= 8,
                    "{}: {size} vs {want}",
                    workload.name()
                );
            }
        }
    }

    #[test]
    fn every_seed_asks_the_same_work_of_the_daemon() {
        use crate::deploy::settled_filters;
        use crate::oracle::Expected;
        // Seed 6 is one whose readers share no feed exactly three ways.
        for seed in [2, 6] {
            let selective = Inputs::generate(Workload::Selective, seed);
            let expected = Expected::scan(&selective.events, &settled_filters(&selective));
            let copies: Vec<u32> = (0..EVENT_POOL as u64).map(|s| expected.total(s)).collect();
            assert_eq!(copies.iter().filter(|&&c| c == 0).count(), EVENT_POOL / 2);
            assert_eq!(copies.iter().sum::<u32>() as usize, EVENT_POOL);

            let churn = Inputs::generate(Workload::Churn, seed);
            let expected = Expected::scan(&churn.events, &settled_filters(&churn));
            let copies: u32 = (0..EVENT_POOL as u64).map(|s| expected.total(s)).sum();
            // 768 live events, in turn delivered once, twice, three times.
            assert!(
                copies.abs_diff(256 * (1 + 2 + 3)) <= 1,
                "seed {seed}: {copies}"
            );
            let readers = &churn.churn.as_ref().expect("churn inputs").readers;
            assert!(readers
                .iter()
                .all(|r| r.clicks.len() == CHURN_CLICKS_PER_READER));
            assert!(
                churn.batches.len() >= 100,
                "{} batches",
                churn.batches.len()
            );
        }
    }

    #[test]
    fn content_population_has_the_duplicate_share() {
        let mut rng = StdRng::seed_from_u64(5);
        let filters = content_filters(2_000, &mut rng);
        let mut keys: Vec<String> = filters.iter().map(|f| format!("{f:?}")).collect();
        keys.sort();
        keys.dedup();
        let duplicate_share = 1.0 - keys.len() as f64 / filters.len() as f64;
        assert!(
            (0.28..0.40).contains(&duplicate_share),
            "duplicate share {duplicate_share}"
        );
    }

    #[test]
    fn probe_batches_are_private_to_their_user() {
        let batch = Inputs::probe_batch(7);
        assert_eq!(batch.user, UserId(PROBE_USER_BASE + 7));
        assert_eq!(batch.clicks.len(), PROBE_CLICKS);
        assert!(batch.clicks.iter().all(|c| c.user == batch.user));
        assert_ne!(
            batch.clicks[0].host(),
            Inputs::probe_batch(8).clicks[0].host()
        );
    }
}
