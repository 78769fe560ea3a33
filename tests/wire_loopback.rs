//! End-to-end wire protocol test: a real `BrokerServer` on an ephemeral
//! loopback port, driven by OS-socket clients exchanging frames — the
//! networked counterpart of `tests/end_to_end.rs`.

mod common;

use reef::attention::{Click, ClickBatch};
use reef::pubsub::{Event, Filter, Op};
use reef::simweb::UserId;
use reef::wire::{BrokerServer, Client, CodecKind, WireError};
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(5);

/// The acceptance scenario: two socket clients, a `price > 10` filter,
/// exactly the matching events delivered, and wire stats accounting for
/// the traffic.
#[test]
fn two_clients_exchange_matching_events() {
    let server = BrokerServer::bind("127.0.0.1:0").expect("bind ephemeral port");
    let subscriber = Client::connect_as(server.local_addr(), "subscriber").expect("connect");
    let publisher = Client::connect_as(server.local_addr(), "publisher").expect("connect");

    let sub = subscriber
        .subscribe(Filter::new().and("price", Op::Gt, 10.0))
        .expect("subscribe");

    // Publish a mix of matching and non-matching events from the *other*
    // connection.
    let quotes = [4.0, 12.5, 9.99, 10.01, 250.0, 10.0];
    let mut expected = Vec::new();
    for (i, price) in quotes.into_iter().enumerate() {
        let outcome = publisher
            .publish(
                Event::builder()
                    .attr("price", price)
                    .attr("seq", i as i64)
                    .build(),
            )
            .expect("publish");
        if price > 10.0 {
            expected.push(i as i64);
            assert_eq!(
                outcome.delivered, 1,
                "price {price} should match the filter"
            );
        } else {
            assert_eq!(outcome.delivered, 0, "price {price} should not match");
        }
    }

    // The subscriber receives exactly the matching events, in order.
    let mut got = Vec::new();
    for _ in 0..expected.len() {
        let event = subscriber.recv_delivery(WAIT).expect("delivery arrives");
        got.push(event.event.get("seq").unwrap().as_f64().unwrap() as i64);
    }
    assert_eq!(got, expected);
    assert!(
        subscriber
            .recv_delivery(Duration::from_millis(100))
            .is_none(),
        "no extra deliveries"
    );
    // The publisher connection has no subscriptions: nothing leaked to it.
    assert!(publisher.try_delivery().is_none());

    // After unsubscribe, further matches stop flowing.
    let filter = subscriber.unsubscribe(sub).expect("unsubscribe");
    assert_eq!(filter, Filter::new().and("price", Op::Gt, 10.0));
    publisher
        .publish(Event::builder().attr("price", 99.0).build())
        .expect("publish after unsubscribe");
    assert!(subscriber
        .recv_delivery(Duration::from_millis(200))
        .is_none());

    // Wire stats saw the traffic: frames and bytes in both directions.
    let wire = server.stats();
    assert!(wire.frames_in >= 10, "server read our frames: {wire:?}");
    assert!(
        wire.frames_out >= 10,
        "server wrote replies + deliveries: {wire:?}"
    );
    assert!(
        wire.bytes_in > 0 && wire.bytes_out > 0,
        "bytes accounted: {wire:?}"
    );
    assert_eq!(wire.deliveries, expected.len() as u64, "{wire:?}");
    assert_eq!(wire.connections_opened, 2, "{wire:?}");

    // Per-connection stats break the same traffic down by peer.
    let per_conn = server.connection_stats();
    assert_eq!(per_conn.len(), 2);
    let by_name = |name: &str| {
        per_conn
            .iter()
            .find(|c| c.client == name)
            .unwrap_or_else(|| panic!("connection {name} listed"))
    };
    assert_eq!(by_name("subscriber").wire.deliveries, expected.len() as u64);
    assert_eq!(by_name("publisher").wire.deliveries, 0);
    assert!(by_name("publisher").wire.frames_in >= quotes.len() as u64);

    // Client-visible stats agree on the broker side.
    let stats = subscriber.stats().expect("stats request");
    assert_eq!(stats.broker.events_published, quotes.len() as u64 + 1);

    subscriber.close().expect("clean close");
    publisher.close().expect("clean close");
    server.shutdown();
}

/// Multiple subscriptions on one connection each yield their own copy, and
/// a third client's traffic is isolated.
#[test]
fn overlapping_subscriptions_and_isolation() {
    let server = BrokerServer::bind("127.0.0.1:0").expect("bind");
    let all_news = Client::connect_as(server.local_addr(), "all-news").expect("connect");
    let keyword = Client::connect_as(server.local_addr(), "keyword").expect("connect");
    let publisher = Client::connect_as(server.local_addr(), "pub").expect("connect");

    all_news
        .subscribe(Filter::topic("news"))
        .expect("subscribe");
    all_news
        .subscribe(Filter::new().and("body", Op::Contains, "reef"))
        .expect("subscribe");
    keyword
        .subscribe(Filter::new().and("body", Op::Contains, "coral"))
        .expect("subscribe");

    let outcome = publisher
        .publish(Event::topical("news", "the reef report"))
        .expect("publish");
    // Both of all_news's subscriptions match: one copy per subscription.
    assert_eq!(outcome.delivered, 2);

    assert!(all_news.recv_delivery(WAIT).is_some());
    assert!(all_news.recv_delivery(WAIT).is_some());
    assert!(keyword.recv_delivery(Duration::from_millis(200)).is_none());

    server.shutdown();
}

/// The §3.1 upload path: a client ships a click batch; the server's click
/// store ingests and indexes it.
#[test]
fn click_uploads_land_in_the_server_store() {
    let server = BrokerServer::bind("127.0.0.1:0").expect("bind");
    let extension = Client::connect_as(server.local_addr(), "extension").expect("connect");

    let batch = ClickBatch {
        user: UserId(7),
        clicks: vec![
            Click {
                user: UserId(7),
                day: 1,
                tick: 10,
                url: "http://news.example/a".into(),
                referrer: None,
            },
            Click {
                user: UserId(7),
                day: 1,
                tick: 11,
                url: "http://news.example/b".into(),
                referrer: Some("http://news.example/a".into()),
            },
            // Forged cookie: must be rejected server-side.
            Click {
                user: UserId(9),
                day: 1,
                tick: 12,
                url: "http://evil.example/".into(),
                referrer: None,
            },
        ],
    };
    let json_bytes = batch.wire_size() as u64;
    let receipt = extension.upload_clicks(batch).expect("upload");
    assert_eq!(receipt.user, UserId(7));
    assert_eq!(receipt.accepted, 2);
    assert_eq!(receipt.rejected, 1);
    // The receipt accounts the actual frame bytes; the default client
    // codec is compressed v2 binary, far below the JSON rendering.
    // (Exact frame-size equality is covered in serde_wire.rs, where the
    // test controls the correlation id.)
    assert!(
        receipt.wire_bytes > 0 && receipt.wire_bytes < json_bytes,
        "receipt reports frame bytes ({}) not JSON size ({json_bytes})",
        receipt.wire_bytes
    );
    assert_eq!(receipt.total_stored, 2);

    let store = server.click_store();
    let store = store.lock();
    assert_eq!(store.len(), 2);
    assert_eq!(store.clicks_of(UserId(7)).len(), 2);
    assert!(store.clicks_of(UserId(9)).is_empty());

    server.shutdown();
}

/// Durable click store end to end: upload over the wire, stop the
/// daemon, restart it on the same `--data-dir`, and the recovered totals
/// show up in `Response::Stats` while a fresh upload continues the
/// `total_stored` count where the previous process left off.
#[test]
fn restart_recovers_click_store_and_continues_counting() {
    let dir = common::TempDir::new("restart");
    let batch = |user: u32, base_tick: u64| ClickBatch {
        user: UserId(user),
        clicks: (0..5)
            .map(|i| Click {
                user: UserId(user),
                day: 1,
                tick: base_tick + i,
                url: format!("http://host{user}.example/p{}", base_tick + i),
                referrer: None,
            })
            .collect(),
    };

    // First daemon lifetime: 3 acknowledged uploads.
    {
        let server = BrokerServer::builder()
            .data_dir(dir.path())
            .bind("127.0.0.1:0")
            .expect("bind with data dir");
        let extension = Client::connect_as(server.local_addr(), "ext").expect("connect");
        for (user, base) in [(1u32, 0u64), (2, 100), (1, 200)] {
            let receipt = extension.upload_clicks(batch(user, base)).expect("upload");
            assert_eq!(receipt.accepted, 5);
        }
        let stats = extension.stats().expect("stats");
        assert_eq!(
            stats.wire.recovered_clicks, 0,
            "fresh dir: nothing recovered"
        );
        assert!(stats.wire.wal_bytes > 0, "uploads landed in the WAL");
        server.shutdown();
    }

    // Second lifetime on the same directory: everything is back.
    let server = BrokerServer::builder()
        .data_dir(dir.path())
        .bind("127.0.0.1:0")
        .expect("rebind with data dir");
    {
        let store = server.click_store();
        let store = store.lock();
        assert_eq!(store.len(), 15);
        assert_eq!(store.clicks_of(UserId(1)).len(), 10);
        assert_eq!(store.clicks_of(UserId(2)).len(), 5);
    }
    let extension = Client::connect_as(server.local_addr(), "ext").expect("reconnect");
    let stats = extension.stats().expect("stats after restart");
    assert_eq!(stats.wire.recovered_clicks, 15, "{:?}", stats.wire);
    assert_eq!(
        stats.wire.wal_truncated_bytes, 0,
        "clean shutdown, no torn tail"
    );

    // A fresh upload continues the recovered count.
    let receipt = extension.upload_clicks(batch(3, 300)).expect("upload");
    assert_eq!(receipt.total_stored, 20, "continues the recovered total");
    server.shutdown();
}

/// Error paths travel the wire without poisoning the connection, and a
/// connection cannot unsubscribe someone else's subscription.
#[test]
fn remote_errors_are_reported_and_survivable() {
    let server = BrokerServer::bind("127.0.0.1:0").expect("bind");
    let a = Client::connect_as(server.local_addr(), "a").expect("connect");
    let b = Client::connect_as(server.local_addr(), "b").expect("connect");

    let sub = a.subscribe(Filter::topic("x")).expect("subscribe");

    // b does not own a's subscription.
    match b.unsubscribe(sub) {
        Err(WireError::Remote(message)) => {
            assert!(message.contains("not owned"), "got: {message}")
        }
        other => panic!("expected remote error, got {other:?}"),
    }

    // The failed request did not corrupt b's connection.
    b.ping().expect("connection still usable");
    b.publish(Event::topical("x", "still flowing"))
        .expect("publish");
    assert!(a.recv_delivery(WAIT).is_some());

    assert!(server.stats().errors >= 1);
    server.shutdown();
}

/// The acceptance scenario for wire protocol v2: a v1 (JSON) client and
/// a v2 (binary) client interoperate against one daemon, the server's
/// per-codec counters see both codecs, and the binary encoding of the
/// same publish is strictly smaller than the JSON one.
#[test]
fn v1_and_v2_clients_interoperate_on_one_daemon() {
    let server = BrokerServer::bind("127.0.0.1:0").expect("bind");
    let legacy = Client::builder()
        .name("legacy-v1")
        .codec(CodecKind::Json)
        .connect(server.local_addr())
        .expect("connect v1");
    let modern = Client::builder()
        .name("modern-v2")
        .codec(CodecKind::Binary)
        .connect(server.local_addr())
        .expect("connect v2");
    assert_eq!(legacy.codec(), CodecKind::Json);
    assert_eq!(modern.codec(), CodecKind::Binary);

    // Both directions across the codec boundary.
    legacy.subscribe(Filter::topic("mixed")).expect("v1 sub");
    modern.subscribe(Filter::topic("mixed")).expect("v2 sub");
    let out = modern
        .publish(Event::topical("mixed", "from-v2"))
        .expect("v2 publish");
    assert_eq!(out.delivered, 2);
    let out = legacy
        .publish(Event::topical("mixed", "from-v1"))
        .expect("v1 publish");
    assert_eq!(out.delivered, 2);
    for client in [&legacy, &modern] {
        let mut bodies: Vec<String> = (0..2)
            .map(|_| {
                client
                    .recv_delivery(WAIT)
                    .expect("delivery")
                    .event
                    .get("body")
                    .and_then(|v| v.as_str())
                    .expect("body attr")
                    .to_owned()
            })
            .collect();
        bodies.sort();
        assert_eq!(bodies, ["from-v1", "from-v2"]);
    }

    // The server labels each connection with its negotiated codec.
    let conns = server.connection_stats();
    let by_name = |name: &str| {
        conns
            .iter()
            .find(|c| c.client == name)
            .unwrap_or_else(|| panic!("connection {name} listed"))
    };
    assert_eq!(by_name("legacy-v1").codec, "json");
    assert_eq!(by_name("modern-v2").codec, "binary");

    // Byte accounting: publish the identical event once per codec and
    // compare the per-connection ingress deltas — exactly one frame each.
    let event = Event::builder()
        .attr("topic", "mixed")
        .attr("price", 12.5)
        .attr("volume", 90_000)
        .build();
    let ingress = |name: &str| {
        let conn = server.connection_stats();
        let snap = &conn
            .iter()
            .find(|c| c.client == name)
            .expect("connection listed")
            .wire;
        (snap.frames_in, snap.bytes_in)
    };
    let before_v1 = ingress("legacy-v1");
    legacy.publish(event.clone()).expect("v1 publish");
    let after_v1 = ingress("legacy-v1");
    let before_v2 = ingress("modern-v2");
    modern.publish(event).expect("v2 publish");
    let after_v2 = ingress("modern-v2");
    assert_eq!(after_v1.0 - before_v1.0, 1, "one v1 frame");
    assert_eq!(after_v2.0 - before_v2.0, 1, "one v2 frame");
    let json_bytes = after_v1.1 - before_v1.1;
    let binary_bytes = after_v2.1 - before_v2.1;
    assert!(
        binary_bytes < json_bytes,
        "binary publish frame ({binary_bytes} B) must be strictly smaller than JSON ({json_bytes} B)"
    );

    // `Response::Stats` surfaces the per-codec split to any client.
    let stats = modern.stats().expect("stats over v2");
    assert!(stats.wire.json.frames_in >= 4, "{:?}", stats.wire.json);
    assert!(stats.wire.binary.frames_in >= 4, "{:?}", stats.wire.binary);
    assert!(stats.wire.json.bytes_in > 0 && stats.wire.binary.bytes_in > 0);
    assert_eq!(
        stats.wire.frames_in,
        stats.wire.json.frames_in + stats.wire.binary.frames_in,
        "codec split accounts for every frame"
    );

    legacy.close().expect("clean v1 close");
    modern.close().expect("clean v2 close");
    server.shutdown();
}

/// The pipelined client: a window of `publish_nowait` calls is on the
/// wire before any outcome is awaited, outcomes resolve by correlation
/// id, and interleaved blocking requests stay correctly paired.
#[test]
fn pipelined_publishes_resolve_out_of_band() {
    let server = BrokerServer::bind("127.0.0.1:0").expect("bind");
    let subscriber = Client::connect_as(server.local_addr(), "sub").expect("connect");
    subscriber
        .subscribe(Filter::new().and("i", Op::Ge, 0))
        .expect("subscribe");
    let publisher = Client::connect_as(server.local_addr(), "pipeline").expect("connect");

    const WINDOW: i64 = 50;
    let mut pending = Vec::new();
    for i in 0..WINDOW {
        pending.push(
            publisher
                .publish_nowait(Event::builder().attr("i", i).build())
                .expect("publish_nowait"),
        );
    }
    // A blocking request issued mid-window must get *its* reply, not one
    // of the fifty publish outcomes.
    publisher.ping().expect("interleaved ping");
    let mut ids = Vec::new();
    for handle in pending {
        let outcome = handle.wait().expect("outcome");
        assert_eq!(outcome.delivered, 1);
        ids.push(outcome.id);
    }
    ids.sort();
    ids.dedup();
    assert_eq!(ids.len(), WINDOW as usize, "every publish got its own id");
    assert_eq!(publisher.in_flight(), 0, "window fully drained");

    // Every event arrived, in publish order.
    for i in 0..WINDOW {
        let got = subscriber.recv_delivery(WAIT).expect("delivery");
        assert_eq!(got.event.get("i").unwrap().as_i64(), Some(i));
    }
    server.shutdown();
}

/// Disconnecting a subscriber mid-stream deregisters it: publishes keep
/// succeeding and the server stays healthy.
#[test]
fn abrupt_disconnect_cleans_up() {
    let server = BrokerServer::bind("127.0.0.1:0").expect("bind");
    let ghost = Client::connect_as(server.local_addr(), "ghost").expect("connect");
    ghost.subscribe(Filter::new()).expect("subscribe");
    assert_eq!(server.broker().subscriber_count(), 1);
    drop(ghost); // no Bye: socket just closes

    let publisher = Client::connect_as(server.local_addr(), "pub").expect("connect");
    // Wait for the server to reap the ghost connection.
    let deadline = std::time::Instant::now() + WAIT;
    while server.broker().subscriber_count() > 1 {
        assert!(
            std::time::Instant::now() < deadline,
            "ghost subscriber reaped"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let outcome = publisher
        .publish(Event::topical("x", "y"))
        .expect("publish");
    assert_eq!(outcome.delivered, 0);
    server.shutdown();
}

// --------------------------------------------------------------------------
// Slow-consumer eviction: the event loop's own
// outbound buffers make a stalled subscriber deterministic without OS
// send-buffer tricks — once the socket and the loop's buffer are full,
// backpressure reaches the bounded broker queue and `--overflow` applies.

mod slow_consumer {
    use super::*;
    use reef::pubsub::{Broker, OverflowPolicy};
    use reef::wire::{ClientFrame, CodecKind, Frame, Request};
    use std::net::TcpStream;
    use std::sync::Arc;
    use std::time::Instant;

    /// A raw socket that handshakes, subscribes to everything, and then
    /// never reads again — a genuinely stalled consumer ([`Client`] would
    /// keep draining the socket from its reader thread).
    fn stalled_subscriber(addr: std::net::SocketAddr) -> TcpStream {
        let mut stream = TcpStream::connect(addr).expect("connect stalled subscriber");
        let codec = CodecKind::Binary.codec();
        for (corr, request) in [
            (
                1,
                Request::Hello {
                    version: 2,
                    client: "stalled".to_owned(),
                },
            ),
            (
                2,
                Request::Subscribe {
                    filter: Filter::new(),
                },
            ),
        ] {
            codec
                .encode_client(&ClientFrame { corr, request })
                .expect("encode")
                .write_to(&mut stream)
                .expect("write");
            Frame::read_from(&mut stream)
                .expect("read reply")
                .expect("reply frame");
        }
        stream
    }

    /// Event payload used to saturate the delivery path quickly: 64 KiB
    /// per event means a handful of frames fill the kernel socket
    /// buffers, the loop's outbound buffer, and the broker queue.
    const PAD: usize = 64 * 1024;

    fn pad_event() -> Event {
        Event::builder().attr("pad", "x".repeat(PAD)).build()
    }

    /// Publish big events until `consecutive` publishes in a row report a
    /// drop — the point where socket buffer, loop outbound buffer and
    /// broker queue are all full and stay full. Returns how many
    /// publishes it took.
    fn flood_until_saturated(publisher: &Client, consecutive: u64) -> usize {
        let mut streak = 0;
        for i in 0..2000 {
            let out = publisher.publish(pad_event()).expect("publish");
            streak = if out.dropped > 0 { streak + 1 } else { 0 };
            if streak >= consecutive {
                return i + 1;
            }
        }
        panic!("no sustained drops after 2000 publishes");
    }

    /// drop-new: a stalled subscriber fills socket buffer → loop outbound
    /// buffer → bounded broker queue, then publishes report drops — and
    /// once nothing moves for the write timeout, the connection is
    /// evicted and counted.
    #[test]
    fn stalled_subscriber_drops_new_then_is_evicted() {
        let server = BrokerServer::builder()
            .queue_capacity(4)
            .overflow(OverflowPolicy::DropAndCount)
            .write_timeout(Duration::from_millis(500))
            .bind("127.0.0.1:0")
            .expect("bind");
        let stalled = stalled_subscriber(server.local_addr());
        let publisher = Client::connect_as(server.local_addr(), "flooder").expect("connect");

        flood_until_saturated(&publisher, 5);
        assert!(
            server.broker().stats().drops > 0,
            "queue overflow surfaced in broker stats"
        );

        // Keep a trickle of publishes flowing so the outbound buffer
        // stays pending; with the consumer stalled, those bytes make no
        // progress and the write-timeout sweep evicts the connection.
        let deadline = Instant::now() + Duration::from_secs(15);
        while server.connection_count() > 1 {
            assert!(Instant::now() < deadline, "stalled connection evicted");
            let _ = publisher.publish(pad_event());
            std::thread::sleep(Duration::from_millis(20));
        }
        let wire = server.stats();
        assert!(
            wire.delivery_drops >= 1,
            "eviction counted as a delivery drop: {wire:?}"
        );
        assert!(wire.loop_wakeups > 0, "event loop accounted wakeups");
        drop(stalled);
        server.shutdown();
    }

    /// A pipelined burst of small publishes lands several deliveries on
    /// the subscriber's queue within one loop iteration; the loop encodes
    /// them into one outbound buffer and flushes them together, counted
    /// as a coalesced write.
    #[test]
    fn pipelined_fanout_coalesces_writes() {
        let server = BrokerServer::bind("127.0.0.1:0").expect("bind");
        let subscriber = Client::connect_as(server.local_addr(), "sub").expect("connect");
        subscriber.subscribe(Filter::new()).expect("subscribe");
        let publisher = Client::connect_as(server.local_addr(), "burst").expect("connect");

        let mut received = 0usize;
        for _round in 0..10 {
            let pending: Vec<_> = (0..50)
                .map(|i| {
                    publisher
                        .publish_nowait(Event::builder().attr("i", i).build())
                        .expect("publish_nowait")
                })
                .collect();
            for handle in pending {
                handle.wait().expect("outcome");
            }
            while subscriber.recv_delivery(WAIT).is_some() {
                received += 1;
                if received.is_multiple_of(50) {
                    break;
                }
            }
            if server.stats().writes_coalesced > 0 {
                break;
            }
        }
        assert!(
            server.stats().writes_coalesced > 0,
            "no burst coalesced: {:?}",
            server.stats()
        );
        server.shutdown();
    }

    /// drop-old: the eviction policy keeps the queue at capacity while
    /// counting one drop per displaced event; the connection survives
    /// while its socket still makes progress.
    #[test]
    fn stalled_subscriber_drop_old_counts_evictions() {
        let server = BrokerServer::builder()
            .queue_capacity(4)
            .overflow(OverflowPolicy::DropOldest)
            .write_timeout(Duration::from_secs(30))
            .bind("127.0.0.1:0")
            .expect("bind");
        let stalled = stalled_subscriber(server.local_addr());
        let publisher = Client::connect_as(server.local_addr(), "flooder").expect("connect");

        flood_until_saturated(&publisher, 5);
        let broker = server.broker().stats();
        assert!(broker.drops > 0, "evictions counted: {broker:?}");
        // Under drop-old every publish still lands on the queue.
        assert!(
            broker.deliveries > broker.drops,
            "newest events kept: {broker:?}"
        );
        assert_eq!(server.connection_count(), 2, "no eviction yet");
        drop(stalled);
        server.shutdown();
    }

    /// block: with the queue full and the consumer stalled, a publish
    /// waits out the broker's block timeout on a real socket and then
    /// reports the drop.
    #[test]
    fn stalled_subscriber_block_policy_times_out() {
        let block_timeout = Duration::from_millis(150);
        let broker = Arc::new(
            Broker::builder()
                .queue_capacity(1)
                .overflow(OverflowPolicy::Block)
                .block_timeout(block_timeout)
                .build(),
        );
        let server = BrokerServer::builder()
            .broker(broker)
            .write_timeout(Duration::from_secs(30))
            .bind("127.0.0.1:0")
            .expect("bind");
        let stalled = stalled_subscriber(server.local_addr());
        let publisher = Client::connect_as(server.local_addr(), "flooder").expect("connect");

        flood_until_saturated(&publisher, 5);
        // Saturated: a publish that finds the queue still full must wait
        // out the block timeout before giving the event up. (TCP window
        // autotuning can open a slot between publishes, letting one
        // through instantly; retry until one actually blocks.)
        let deadline = Instant::now() + Duration::from_secs(10);
        let elapsed = loop {
            let start = Instant::now();
            let out = publisher.publish(pad_event()).expect("publish");
            if out.dropped == 1 {
                break start.elapsed();
            }
            assert!(Instant::now() < deadline, "saturation never re-reached");
        };
        assert!(
            elapsed >= block_timeout - Duration::from_millis(30),
            "publish waited out the block timeout, took {elapsed:?}"
        );
        drop(stalled);
        server.shutdown();
    }
}
