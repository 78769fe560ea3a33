//! End-to-end automatic subscriptions over real sockets: a client
//! uploads attention data, enrolls with `AutoSubscribe`, and the daemon
//! derives, installs, decays and retires broker subscriptions on its
//! behalf — the paper's central loop (§2) running inside `reefd`.

use reef::attention::{Click, ClickBatch};
use reef::pubsub::{Broker, Event, Filter};
use reef::simweb::UserId;
use reef::wire::{
    AutoSubPolicy, AutosubOptions, BrokerServer, Client, ClientFrame, CodecKind, Frame, Request,
    WireError,
};
use std::sync::Arc;
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(5);

/// The feed URL the topic recommender derives for clicks on
/// `news.example` articles.
const DERIVED_FEED: &str = "http://news.example/feed.xml";

fn news_batch(user: u32, clicks: u64) -> ClickBatch {
    ClickBatch {
        user: UserId(user),
        clicks: (0..clicks)
            .map(|i| Click {
                user: UserId(user),
                day: 1,
                tick: i,
                url: format!("http://news.example/article-{i}"),
                referrer: None,
            })
            .collect(),
    }
}

/// The acceptance scenario: upload clicks, enroll, have a matching
/// publish delivered *without any manual Subscribe*, then watch the
/// interest decay until the engine retires the subscription and pushes
/// the `FeedChanged` notice.
#[test]
fn derive_deliver_decay_retire_epoll() {
    let server = BrokerServer::builder()
        .autosub(AutosubOptions::default().refresh_interval(Duration::from_millis(50)))
        .bind("127.0.0.1:0")
        .expect("bind");
    let reader = Client::connect_as(server.local_addr(), "reader").expect("connect reader");
    let publisher = Client::connect_as(server.local_addr(), "publisher").expect("connect pub");

    reader.upload_clicks(news_batch(7, 5)).expect("upload");

    // Short half-life so the un-reinforced interest decays below the
    // score floor (5 clicks → score 5, floor 2) within a few refreshes.
    let policy = AutoSubPolicy {
        half_life_secs: 0.2,
        ..AutoSubPolicy::default()
    };
    let receipt = reader
        .auto_subscribe(UserId(7), Some(policy))
        .expect("auto-subscribe");
    assert_eq!(receipt.user, UserId(7));
    assert_eq!(receipt.entries.len(), 1, "one feed derived: {receipt:?}");
    assert_eq!(receipt.entries[0].filter, Filter::topic(DERIVED_FEED));
    assert!(
        receipt.entries[0].reason.contains("news.example"),
        "reason names the host: {:?}",
        receipt.entries[0].reason
    );

    // The derived filter is a real broker subscription owned by the
    // reader's connection: a matching publish from another socket is
    // delivered although the reader never sent a Subscribe.
    let outcome = publisher
        .publish(Event::topical(DERIVED_FEED, "fresh item"))
        .expect("publish");
    assert_eq!(outcome.delivered, 1, "auto-derived subscription matched");
    let delivery = reader
        .recv_delivery(WAIT)
        .expect("delivered without Subscribe");
    assert_eq!(
        delivery
            .event
            .get(reef::pubsub::TOPIC_ATTR)
            .unwrap()
            .as_str(),
        Some(DERIVED_FEED)
    );

    // No new clicks arrive, so the refresh task decays the interest to
    // zero and retires the subscription, announcing it unsolicited.
    let change = reader.recv_feed_change(WAIT).expect("retire notice pushed");
    assert_eq!(change.user, UserId(7));
    assert!(change.installed.is_empty(), "{change:?}");
    assert_eq!(change.retired.len(), 1, "{change:?}");
    assert_eq!(change.retired[0].filter, Filter::topic(DERIVED_FEED));

    // Retired means retired from the *broker*: the same publish no
    // longer reaches the reader.
    let outcome = publisher
        .publish(Event::topical(DERIVED_FEED, "later item"))
        .expect("publish after retire");
    assert_eq!(outcome.delivered, 0, "subscription was retired");
    assert!(reader.recv_delivery(Duration::from_millis(200)).is_none());

    // The gauges saw the cycle.
    let stats = server.stats();
    assert_eq!(stats.autosub_users, 1, "{stats:?}");
    assert_eq!(stats.autosub_active, 0, "{stats:?}");
    assert!(stats.autosub_derived >= 1, "{stats:?}");
    assert!(stats.autosub_retired >= 1, "{stats:?}");

    reader.close().expect("close reader");
    publisher.close().expect("close publisher");
    server.shutdown();
}

/// New clicks uploaded *after* enrollment are picked up by the refresh
/// task, which installs the new interest and pushes a `FeedChanged`
/// notice with the install.
#[test]
fn clicks_after_enrollment_install_new_feeds() {
    let server = BrokerServer::builder()
        .autosub(AutosubOptions::default().refresh_interval(Duration::from_millis(50)))
        .bind("127.0.0.1:0")
        .expect("bind");
    let reader = Client::connect_as(server.local_addr(), "reader").expect("connect");

    // Enroll with an empty history: nothing derived yet.
    let receipt = reader.auto_subscribe(UserId(3), None).expect("enroll");
    assert!(receipt.entries.is_empty(), "{receipt:?}");

    reader.upload_clicks(news_batch(3, 4)).expect("upload");
    let change = reader.recv_feed_change(WAIT).expect("install notice");
    assert_eq!(change.user, UserId(3));
    assert_eq!(change.installed.len(), 1, "{change:?}");
    assert_eq!(change.installed[0].filter, Filter::topic(DERIVED_FEED));
    assert!(change.retired.is_empty(), "{change:?}");

    // And the installed filter delivers.
    let publisher = Client::connect_as(server.local_addr(), "pub").expect("connect");
    publisher
        .publish(Event::topical(DERIVED_FEED, "item"))
        .expect("publish");
    assert!(reader.recv_delivery(WAIT).is_some());

    reader.close().expect("close");
    publisher.close().expect("close");
    server.shutdown();
}

/// Derivation is driven by the upload itself, not by the refresh
/// cadence: with an hour between refreshes, an enrolled user's upload
/// still yields its `FeedChanged` notice within a second.
#[test]
fn upload_derives_without_waiting_for_a_refresh() {
    let server = BrokerServer::builder()
        .autosub(AutosubOptions::default().refresh_interval(Duration::from_secs(3600)))
        .bind("127.0.0.1:0")
        .expect("bind");
    let reader = Client::connect_as(server.local_addr(), "reader").expect("connect");
    let receipt = reader.auto_subscribe(UserId(4), None).expect("enroll");
    assert!(receipt.entries.is_empty(), "{receipt:?}");

    reader.upload_clicks(news_batch(4, 4)).expect("upload");
    let change = reader
        .recv_feed_change(Duration::from_secs(1))
        .expect("install notice within a second of the upload");
    assert_eq!(change.user, UserId(4));
    assert_eq!(change.installed.len(), 1, "{change:?}");
    assert_eq!(change.installed[0].filter, Filter::topic(DERIVED_FEED));
    assert!(change.retired.is_empty(), "{change:?}");

    reader.close().expect("close");
    server.shutdown();
}

/// `AutoUnsubscribe` retires everything at once and reports what was
/// active; v1 JSON clients drive the same surface.
#[test]
fn auto_unsubscribe_retires_immediately_on_json_codec() {
    let server = BrokerServer::builder()
        // Slow refresh: retirement below must come from AutoUnsubscribe,
        // not decay.
        .autosub(AutosubOptions::default().refresh_interval(Duration::from_secs(3600)))
        .bind("127.0.0.1:0")
        .expect("bind");
    let reader = Client::builder()
        .name("v1-reader")
        .codec(CodecKind::Json)
        .connect(server.local_addr())
        .expect("connect json");

    reader.upload_clicks(news_batch(9, 6)).expect("upload");
    let receipt = reader.auto_subscribe(UserId(9), None).expect("enroll");
    assert_eq!(receipt.entries.len(), 1);

    let retired = reader.auto_unsubscribe(UserId(9)).expect("unenroll");
    assert_eq!(retired.entries.len(), 1, "{retired:?}");
    assert_eq!(retired.entries[0].filter, Filter::topic(DERIVED_FEED));

    let publisher = Client::connect_as(server.local_addr(), "pub").expect("connect");
    let outcome = publisher
        .publish(Event::topical(DERIVED_FEED, "item"))
        .expect("publish");
    assert_eq!(outcome.delivered, 0, "nothing left installed");

    // Unenrolling an unknown user is an empty no-op, not an error.
    let empty = reader.auto_unsubscribe(UserId(42)).expect("idempotent");
    assert!(empty.entries.is_empty());

    reader.close().expect("close");
    publisher.close().expect("close");
    server.shutdown();
}

/// A daemon with the subsystem disabled refuses enrollment with an error
/// reply (the `reefd` default without `--autosub`).
#[test]
fn disabled_daemon_refuses_autosubscribe() {
    let server = BrokerServer::builder()
        .autosub(AutosubOptions::default().enabled(false))
        .bind("127.0.0.1:0")
        .expect("bind");
    let client = Client::connect(server.local_addr()).expect("connect");
    match client.auto_subscribe(UserId(1), None) {
        Err(WireError::Remote(message)) => {
            assert!(message.contains("disabled"), "{message}");
        }
        other => panic!("expected a remote error, got {other:?}"),
    }
    client.close().expect("close");
    server.shutdown();
}

/// A *shard eviction* — not a client goodbye — must retire the evicted
/// connection's engine-installed subscriptions. An enrolled raw socket
/// stops reading; deliveries back up past the outbound watermark, the
/// owning event-loop shard's stall sweep evicts it after the write
/// timeout, and the per-shard teardown path has to run the same autosub
/// retirement a clean disconnect does.
#[cfg(target_os = "linux")]
#[test]
fn shard_eviction_retires_auto_subscriptions() {
    let server = BrokerServer::builder()
        .loop_threads(4)
        .broker(Arc::new(Broker::builder().queue_capacity(8).build()))
        .write_timeout(Duration::from_millis(50))
        .autosub(AutosubOptions::default().refresh_interval(Duration::from_secs(3600)))
        .bind("127.0.0.1:0")
        .expect("bind");

    // Enroll over a raw socket so we control (and can stop) the reads.
    let codec = CodecKind::Binary.codec();
    let mut stalled = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    for (corr, request) in [
        (
            1,
            Request::Hello {
                version: 2,
                client: "stalling-reader".into(),
            },
        ),
        (
            2,
            Request::UploadClicks {
                batch: news_batch(11, 5),
            },
        ),
        (
            3,
            Request::AutoSubscribe {
                user: UserId(11),
                policy: None,
            },
        ),
    ] {
        codec
            .encode_client(&ClientFrame { corr, request })
            .expect("encode")
            .write_to(&mut stalled)
            .expect("write");
        Frame::read_from(&mut stalled)
            .expect("read reply")
            .expect("reply");
    }

    // The derived subscription is live; now the socket goes silent while
    // a publisher floods it with payloads big enough to fill the kernel
    // buffers and trip the shard's stall sweep.
    let publisher = Client::connect_as(server.local_addr(), "pub").expect("connect");
    let payload = "x".repeat(64 * 1024);
    let deadline = std::time::Instant::now() + 2 * WAIT;
    loop {
        let outcome = publisher
            .publish(Event::topical(DERIVED_FEED, &payload))
            .expect("publish");
        if outcome.delivered == 0 {
            break; // evicted and deregistered: nothing matches any more
        }
        assert!(
            std::time::Instant::now() < deadline,
            "shard never evicted the stalled connection"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // Retirement was complete: no enrolled user, no active derived
    // subscription left behind by the evicting shard.
    let stats = server.stats();
    assert_eq!(stats.autosub_users, 0, "{stats:?}");
    assert_eq!(stats.autosub_active, 0, "{stats:?}");
    assert!(stats.delivery_drops >= 1, "{stats:?}");
    drop(stalled);
    publisher.close().expect("close");
    server.shutdown();
}

/// Tearing down the enrolled connection retires its engine-installed
/// subscriptions: a publish after the disconnect reaches nobody.
#[test]
fn disconnect_retires_auto_subscriptions() {
    let server = BrokerServer::builder()
        .autosub(AutosubOptions::default().refresh_interval(Duration::from_secs(3600)))
        .bind("127.0.0.1:0")
        .expect("bind");
    let reader = Client::connect_as(server.local_addr(), "reader").expect("connect");
    reader.upload_clicks(news_batch(5, 5)).expect("upload");
    let receipt = reader.auto_subscribe(UserId(5), None).expect("enroll");
    assert_eq!(receipt.entries.len(), 1);
    reader.close().expect("close");

    // The connection is gone; the broker must not hold its derived
    // subscription (a dangling one would count a delivery).
    let publisher = Client::connect_as(server.local_addr(), "pub").expect("connect");
    let deadline = std::time::Instant::now() + WAIT;
    loop {
        let outcome = publisher
            .publish(Event::topical(DERIVED_FEED, "item"))
            .expect("publish");
        if outcome.delivered == 0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "auto subscription still live after disconnect"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let stats = server.stats();
    assert_eq!(stats.autosub_users, 0, "{stats:?}");
    assert_eq!(stats.autosub_active, 0, "{stats:?}");
    publisher.close().expect("close");
    server.shutdown();
}
