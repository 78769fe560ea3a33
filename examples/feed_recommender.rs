//! The §3.2 case study over real sockets: automatic topic-based
//! subscriptions served by a live broker daemon.
//!
//! Earlier revisions ran the recommenders in-process; this example
//! drives the whole loop through the wire surface instead. Browsing
//! histories are uploaded with `UploadClicks`, each user enrolls with
//! `AutoSubscribe`, and the *daemon* derives feed subscriptions,
//! installs them on the broker, delivers matching items with no manual
//! `Subscribe`, and — as the un-reinforced interests decay — retires
//! them again, announcing every change with an unsolicited
//! `FeedChanged` notice. This is the closed feedback loop of the paper
//! running server-side.
//!
//! Run with: `cargo run --example feed_recommender`

use reef::attention::{Click, ClickBatch};
use reef::pubsub::{Event, TOPIC_ATTR};
use reef::simweb::browse::generate_history;
use reef::simweb::{browsing_stats, BrowseConfig, UserId, WebConfig, WebUniverse};
use reef::wire::{AutoSubPolicy, AutosubOptions, BrokerServer, Client};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

fn main() {
    let seed = 2006;
    let universe = WebUniverse::generate(WebConfig::default(), seed);
    let browse = BrowseConfig {
        users: 3,
        days: 21,
        mean_page_views_per_day: 50.0,
        favourites_per_user: 60,
        ..BrowseConfig::default()
    };
    let history = generate_history(&universe, &browse, seed);
    let stats = browsing_stats(&universe, &history);
    println!("three weeks of browsing by three users:\n{stats}\n");

    // A reefd-style daemon with the auto-subscription subsystem enabled.
    // Uploads derive at once and decay retires on its deadline, so the
    // aggressive half-life makes the decay half of the loop watchable in
    // seconds.
    let server = BrokerServer::builder()
        .name("feed-recommender")
        .autosub(AutosubOptions::default())
        .bind("127.0.0.1:0")
        .expect("bind daemon");
    println!("daemon listening on {} (autosub on)\n", server.local_addr());
    let policy = AutoSubPolicy {
        half_life_secs: 0.4,
        ..AutoSubPolicy::default()
    };

    // Each user uploads their clicks and enrolls; the receipt lists what
    // the daemon derived and why.
    let mut per_user: BTreeMap<u32, Vec<Click>> = BTreeMap::new();
    for request in &history.requests {
        per_user
            .entry(request.user.0)
            .or_default()
            .push(Click::from_request(request));
    }
    let mut readers = Vec::new();
    for (&user, clicks) in &per_user {
        let client =
            Client::connect_as(server.local_addr(), &format!("user-{user}")).expect("connect");
        for chunk in clicks.chunks(2000) {
            client
                .upload_clicks(ClickBatch {
                    user: UserId(user),
                    clicks: chunk.to_vec(),
                })
                .expect("upload clicks");
        }
        let receipt = client
            .auto_subscribe(UserId(user), Some(policy.clone()))
            .expect("auto-subscribe");
        println!(
            "user {user}: {} clicks uploaded, {} feeds derived",
            clicks.len(),
            receipt.entries.len()
        );
        for entry in &receipt.entries {
            println!("    {:5.0}  {}", entry.score, entry.reason);
        }
        readers.push((user, client, receipt));
    }

    // The derived filters are real broker subscriptions: a feed item
    // published by anyone reaches the interested users although none of
    // them ever sent a Subscribe.
    let publisher = Client::connect_as(server.local_addr(), "feed-proxy").expect("connect proxy");
    let mut published = 0;
    for (_, _, receipt) in &readers {
        for entry in &receipt.entries {
            if let Some((_, topic)) = entry.filter.eq_attrs().find(|(a, _)| *a == TOPIC_ATTR) {
                if let Some(feed) = topic.as_str() {
                    publisher
                        .publish(Event::topical(feed, "fresh item"))
                        .expect("publish");
                    published += 1;
                }
            }
        }
    }
    let mut delivered = 0;
    for (user, client, _) in &readers {
        let mut n = 0;
        while client.recv_delivery(Duration::from_millis(300)).is_some() {
            n += 1;
        }
        println!("user {user}: {n} feed items delivered without a manual Subscribe");
        delivered += n;
    }
    println!("published {published} items, delivered {delivered}\n");

    // No new clicks arrive, so every interest decays below the score
    // floor; the daemon retires the subscriptions and pushes FeedChanged
    // notices — the paper's automatic unsubscription, unprompted.
    println!("waiting for the un-reinforced interests to decay...");
    let deadline = Instant::now() + Duration::from_secs(15);
    let mut retired = 0;
    let total: usize = readers.iter().map(|(_, _, r)| r.entries.len()).sum();
    while retired < total && Instant::now() < deadline {
        for (user, client, _) in &readers {
            while let Some(change) = client.try_feed_change() {
                for entry in &change.retired {
                    println!("user {user}: retired  {}", entry.reason);
                    retired += 1;
                }
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    let gauges = server.stats();
    println!(
        "\nautosub gauges: {} users enrolled, {} active, {} derived, {} retired",
        gauges.autosub_users, gauges.autosub_active, gauges.autosub_derived, gauges.autosub_retired
    );

    for (_, client, _) in readers {
        client.close().expect("close");
    }
    publisher.close().expect("close");
    server.shutdown();
}
