//! **E5** — automatic subscriptions over live daemons: the §4
//! centralized-vs-distributed comparison re-run against real `reefd`
//! processes with the derive→install→deliver loop running *server-side*.
//!
//! Five users' ten-week click histories (the §3.2 workload) are uploaded
//! over real sockets; each user enrolls with `AutoSubscribe` and the
//! daemon derives and installs broker subscriptions on their behalf.
//! The centralized deployment (Fig 1) holds every user's attention data
//! on one daemon; the distributed deployment (Fig 2) splits the users
//! across a 2-daemon federation, so derived interests must advertise
//! over the peer link before a publish at the hub can reach them.
//!
//! Measured: derive latency (the `AutoSubscribe` round trip over a full
//! uploaded history), refresh-cycle latency (upload after enrollment →
//! unsolicited `FeedChanged` install notice), delivery completeness to
//! auto-derived subscriptions, attention locality, and peer-link bytes.

use reef_attention::{Click, ClickBatch};
use reef_bench::{e1_setup, emit_json, print_table, seed_from_env, Row};
use reef_pubsub::{Event, TOPIC_ATTR};
use reef_simweb::UserId;
use reef_wire::{AutosubOptions, BrokerServer, Client};
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

const WAIT: Duration = Duration::from_secs(10);
const REFRESH: Duration = Duration::from_millis(25);
const UPLOAD_CHUNK: usize = 2000;
/// A user id far outside the simulated population, used to probe the
/// refresh cycle with a clean (empty) click history.
const PROBE_USER: u32 = 990_001;

#[derive(Serialize)]
struct Deployment {
    daemons: usize,
    users: usize,
    clicks_uploaded: u64,
    clicks_at_hub: u64,
    feeds_derived: usize,
    derive_ms_mean: f64,
    derive_ms_max: f64,
    refresh_cycle_ms: f64,
    deliveries_expected: u64,
    deliveries: u64,
    peer_link_bytes: u64,
    last_refresh_us_max: u64,
}

#[derive(Serialize)]
struct E5Result {
    seed: u64,
    centralized: Deployment,
    distributed: Deployment,
}

/// Poll `probe` until it returns true or the deadline passes.
fn wait_for(what: &str, mut probe: impl FnMut() -> bool) {
    let deadline = Instant::now() + WAIT;
    while !probe() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The topic attribute value of a derived filter, if it has one.
fn feed_of(filter: &reef_pubsub::Filter) -> Option<String> {
    filter
        .eq_attrs()
        .find(|(attr, _)| *attr == TOPIC_ATTR)
        .and_then(|(_, value)| value.as_str().map(str::to_owned))
}

fn run_deployment(daemon_count: usize, per_user: &BTreeMap<u32, Vec<Click>>) -> Deployment {
    let hub = BrokerServer::builder()
        .name("autosub-hub")
        .autosub(AutosubOptions::default().refresh_interval(REFRESH))
        .bind("127.0.0.1:0")
        .expect("bind hub");
    let spokes: Vec<BrokerServer> = (1..daemon_count)
        .map(|i| {
            BrokerServer::builder()
                .name(format!("autosub-spoke-{i}"))
                .autosub(AutosubOptions::default().refresh_interval(REFRESH))
                .peer(hub.local_addr().to_string())
                .bind("127.0.0.1:0")
                .expect("bind spoke")
        })
        .collect();
    let servers: Vec<&BrokerServer> = std::iter::once(&hub).chain(spokes.iter()).collect();
    if daemon_count > 1 {
        wait_for("peer links to register", || {
            hub.federation_stats().peers as usize == daemon_count - 1
        });
    }

    // Upload each user's history to their home daemon (round-robin) and
    // enroll; the AutoSubscribe round trip IS the derive latency, since
    // the daemon observes the full history before replying.
    let mut readers = Vec::new();
    let mut derive_ms = Vec::new();
    let mut feeds_of_user: BTreeMap<u32, BTreeSet<String>> = BTreeMap::new();
    let mut clicks_uploaded = 0u64;
    let mut clicks_at_hub = 0u64;
    for (slot, (&user, clicks)) in per_user.iter().enumerate() {
        let home = servers[slot % daemon_count];
        let client =
            Client::connect_as(home.local_addr(), &format!("reader-{user}")).expect("connect");
        for chunk in clicks.chunks(UPLOAD_CHUNK) {
            client
                .upload_clicks(ClickBatch {
                    user: UserId(user),
                    clicks: chunk.to_vec(),
                })
                .expect("upload");
        }
        clicks_uploaded += clicks.len() as u64;
        if slot % daemon_count == 0 {
            clicks_at_hub += clicks.len() as u64;
        }
        let started = Instant::now();
        let receipt = client
            .auto_subscribe(UserId(user), None)
            .expect("auto-subscribe");
        derive_ms.push(started.elapsed().as_secs_f64() * 1e3);
        feeds_of_user.insert(
            user,
            receipt
                .entries
                .iter()
                .filter_map(|entry| feed_of(&entry.filter))
                .collect(),
        );
        readers.push(client);
    }

    // Refresh-cycle probe: a fresh user enrolls with an empty history,
    // then uploads a burst of clicks; the elapsed time until the daemon's
    // unsolicited FeedChanged install notice is click → feed (the upload
    // itself triggers the re-derive, so no refresh interval is waited).
    let probe = Client::connect_as(hub.local_addr(), "probe").expect("connect probe");
    let receipt = probe
        .auto_subscribe(UserId(PROBE_USER), None)
        .expect("probe enroll");
    assert!(receipt.entries.is_empty(), "probe starts with no history");
    let burst: Vec<Click> = (0..5)
        .map(|i| Click {
            user: UserId(PROBE_USER),
            day: 0,
            tick: i,
            url: format!("http://probe.example/article-{i}"),
            referrer: None,
        })
        .collect();
    let started = Instant::now();
    probe
        .upload_clicks(ClickBatch {
            user: UserId(PROBE_USER),
            clicks: burst,
        })
        .expect("probe upload");
    let change = probe
        .recv_feed_change(WAIT)
        .expect("refresh installs the probe interest");
    let refresh_cycle_ms = started.elapsed().as_secs_f64() * 1e3;
    assert!(!change.installed.is_empty(), "probe interest installed");

    // Interests derived behind a spoke must be advertised at the hub
    // before a publish there can route across the peer link.
    let remote_feeds: BTreeSet<&String> = per_user
        .keys()
        .enumerate()
        .filter(|(slot, _)| slot % daemon_count != 0)
        .filter_map(|(_, user)| feeds_of_user.get(user))
        .flatten()
        .collect();
    wait_for("remote interests to advertise at the hub", || {
        hub.federation_stats().routing_entries as usize >= remote_feeds.len()
    });

    // Publish one fresh item per derived feed at the hub and wait for
    // every enrolled reader's copy to land, wherever their daemon is.
    let publisher = Client::connect_as(hub.local_addr(), "publisher").expect("connect publisher");
    let all_feeds: BTreeSet<&String> = feeds_of_user.values().flatten().collect();
    let deliveries_expected: u64 = feeds_of_user.values().map(|f| f.len() as u64).sum();
    let before: u64 = servers.iter().map(|s| s.stats().deliveries).sum();
    for feed in &all_feeds {
        publisher
            .publish(Event::topical(feed.as_str(), "fresh item"))
            .expect("publish");
    }
    let deadline = Instant::now() + WAIT;
    let mut deliveries = 0u64;
    while Instant::now() < deadline {
        deliveries = servers.iter().map(|s| s.stats().deliveries).sum::<u64>() - before;
        if deliveries >= deliveries_expected {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }

    let peer_link_bytes = {
        let f = hub.federation_stats();
        f.json.bytes_in + f.json.bytes_out + f.binary.bytes_in + f.binary.bytes_out
    };
    let last_refresh_us_max = servers
        .iter()
        .map(|s| s.stats().autosub_last_refresh_us)
        .max()
        .unwrap_or(0);

    let report = Deployment {
        daemons: daemon_count,
        users: per_user.len(),
        clicks_uploaded,
        clicks_at_hub,
        feeds_derived: all_feeds.len(),
        derive_ms_mean: derive_ms.iter().sum::<f64>() / derive_ms.len().max(1) as f64,
        derive_ms_max: derive_ms.iter().cloned().fold(0.0, f64::max),
        refresh_cycle_ms,
        deliveries_expected,
        deliveries,
        peer_link_bytes,
        last_refresh_us_max,
    };

    for client in readers {
        client.close().expect("close reader");
    }
    probe.close().expect("close probe");
    publisher.close().expect("close publisher");
    for spoke in spokes {
        spoke.shutdown();
    }
    hub.shutdown();
    report
}

fn main() {
    let seed = seed_from_env();
    let (_universe, history) = e1_setup(seed);
    let mut per_user: BTreeMap<u32, Vec<Click>> = BTreeMap::new();
    for request in &history.requests {
        per_user
            .entry(request.user.0)
            .or_default()
            .push(Click::from_request(request));
    }

    let centralized = run_deployment(1, &per_user);
    let distributed = run_deployment(2, &per_user);

    print_table(
        "E5: server-side auto-subscription, centralized (Fig 1) vs 2-daemon federation (Fig 2)",
        &[
            Row::new(
                "attention held at the hub",
                format!("central {} clicks", centralized.clicks_at_hub),
                format!("distributed {} clicks", distributed.clicks_at_hub),
            ),
            Row::new(
                "feeds auto-derived",
                format!("central {}", centralized.feeds_derived),
                format!("distributed {}", distributed.feeds_derived),
            ),
            Row::new(
                "derive latency (mean)",
                format!("central {:.2} ms", centralized.derive_ms_mean),
                format!("distributed {:.2} ms", distributed.derive_ms_mean),
            ),
            Row::new(
                "derive latency (max)",
                format!("central {:.2} ms", centralized.derive_ms_max),
                format!("distributed {:.2} ms", distributed.derive_ms_max),
            ),
            Row::new(
                "refresh cycle",
                format!("central {:.1} ms", centralized.refresh_cycle_ms),
                format!("distributed {:.1} ms", distributed.refresh_cycle_ms),
            ),
            Row::new(
                "auto-sub deliveries",
                format!(
                    "central {}/{}",
                    centralized.deliveries, centralized.deliveries_expected
                ),
                format!(
                    "distributed {}/{}",
                    distributed.deliveries, distributed.deliveries_expected
                ),
            ),
            Row::new(
                "peer-link bytes",
                format!("central {}", centralized.peer_link_bytes),
                format!("distributed {}", distributed.peer_link_bytes),
            ),
        ],
    );
    println!(
        "\nattention locality: the federation keeps {:.0}% of clicks off the hub; \
         deliveries to auto-derived subscriptions stay complete ({}/{}).",
        100.0 * (1.0 - distributed.clicks_at_hub as f64 / distributed.clicks_uploaded as f64),
        distributed.deliveries,
        distributed.deliveries_expected,
    );

    let result = E5Result {
        seed,
        centralized,
        distributed,
    };
    if let Some(path) = emit_json("BENCH_autosub", &result) {
        println!("result written to {}", path.display());
    }
}
