//! End-to-end federation tests: multiple `reefd`-style broker daemons on
//! ephemeral loopback ports, peered over real OS sockets, routing
//! subscriptions (with covering pruning) and events between each other —
//! the socket-backed counterpart of the simulated `Overlay`.

use reef::pubsub::{Event, Filter, NodeId, Op, TOPIC_ATTR};
use reef::wire::{BrokerServer, Client, CodecKind};
use std::time::{Duration, Instant};

const WAIT: Duration = Duration::from_secs(10);

/// Poll `probe` until it returns true or the deadline passes.
fn wait_for(what: &str, mut probe: impl FnMut() -> bool) {
    let deadline = Instant::now() + WAIT;
    while !probe() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Build the chain a — b — c the way three `reefd` daemons would:
/// `reefd --name a`, `reefd --name b --peer A`, `reefd --name c --peer B`.
fn chain(covering: bool) -> (BrokerServer, BrokerServer, BrokerServer) {
    let a = BrokerServer::builder()
        .name("chain-a")
        .covering(covering)
        .bind("127.0.0.1:0")
        .expect("bind a");
    let b = BrokerServer::builder()
        .name("chain-b")
        .covering(covering)
        .peer(a.local_addr().to_string())
        .bind("127.0.0.1:0")
        .expect("bind b");
    let c = BrokerServer::builder()
        .name("chain-c")
        .covering(covering)
        .peer(b.local_addr().to_string())
        .bind("127.0.0.1:0")
        .expect("bind c");
    (a, b, c)
}

/// The acceptance scenario: subscribe at one end of a 3-broker TCP
/// chain, publish at the other, and watch the event hop across two peer
/// links into the subscriber's socket.
#[test]
fn three_broker_chain_delivers_across_two_hops() {
    let (a, b, c) = chain(true);
    // Dialed links register before bind() returns; accepted links
    // register on the acceptor's connection thread, so poll.
    wait_for("all peer links to register", || {
        a.federation_stats().peers == 1
            && b.federation_stats().peers == 2
            && c.federation_stats().peers == 1
    });

    let subscriber = Client::connect_as(a.local_addr(), "edge-sub").expect("connect to a");
    subscriber
        .subscribe(Filter::topic("chain"))
        .expect("subscribe at a");

    // The advertisement must travel a -> b -> c before a publish at c can
    // route back.
    wait_for("advertisement to reach c", || {
        c.federation_stats().routing_entries >= 1
    });

    let publisher = Client::connect_as(c.local_addr(), "edge-pub").expect("connect to c");
    publisher
        .publish(Event::topical("chain", "end-to-end"))
        .expect("publish at c");

    let got = subscriber
        .recv_delivery(WAIT)
        .expect("cross-broker delivery");
    assert_eq!(got.event.get(TOPIC_ATTR).unwrap().as_str(), Some("chain"));
    assert_eq!(got.event.get("body").unwrap().as_str(), Some("end-to-end"));

    // Non-matching traffic published at c must not reach the subscriber.
    publisher
        .publish(Event::topical("other", "noise"))
        .expect("publish noise");
    assert!(
        subscriber
            .recv_delivery(Duration::from_millis(300))
            .is_none(),
        "non-matching event must not cross the federation"
    );

    // Hop accounting: c forwarded toward b, b relayed toward a.
    let stats_c = c.federation_stats();
    assert!(stats_c.events_forwarded >= 1, "c forwarded the event");
    let stats_b = b.federation_stats();
    assert!(stats_b.events_received >= 1, "b received the event");
    assert!(stats_b.events_forwarded >= 1, "b relayed the event");

    drop(subscriber);
    drop(publisher);
    c.shutdown();
    b.shutdown();
    a.shutdown();
}

/// Covering pruning must be observable in federation routing stats: a
/// wide filter plus many narrow filters it covers produce far fewer
/// routing entries on remote brokers than the same workload with pruning
/// disabled.
#[test]
fn covering_pruning_shrinks_remote_routing_tables() {
    let run = |covering: bool| -> u64 {
        let (a, b, c) = chain(covering);
        let client = Client::connect_as(a.local_addr(), "coverer").expect("connect to a");
        // One wide filter plus narrow ones it strictly covers.
        client
            .subscribe(Filter::new().and("x", Op::Gt, 0))
            .expect("wide");
        for i in 1..10i64 {
            client
                .subscribe(Filter::new().and("x", Op::Gt, 0).and("y", Op::Eq, i))
                .expect("narrow");
        }
        // Settle: wait until c has as many entries as it is ever going to
        // get for this workload (1 with covering, 10 without), then read
        // the remote table sizes.
        let expected_at_c = if covering { 1 } else { 10 };
        let deadline = Instant::now() + WAIT;
        while c.federation_stats().routing_entries < expected_at_c {
            assert!(
                Instant::now() < deadline,
                "timed out waiting for routing entries at c (covering={covering})"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        let remote_entries =
            b.federation_stats().routing_entries + c.federation_stats().routing_entries;
        drop(client);
        c.shutdown();
        b.shutdown();
        a.shutdown();
        remote_entries
    };
    let pruned = run(true);
    let flooded = run(false);
    assert_eq!(pruned, 2, "one covering entry at b and at c");
    assert_eq!(flooded, 20, "all ten filters at b and at c");
    assert!(
        pruned < flooded,
        "covering pruning keeps routing tables below the no-pruning count"
    );
}

/// Covering must not lose deliveries across the federation: a covered
/// subscriber behind the same broker still receives events forwarded for
/// the covering filter.
#[test]
fn covered_subscription_still_delivers_across_federation() {
    let (a, b, c) = chain(true);
    let wide = Client::connect_as(a.local_addr(), "wide").expect("connect wide");
    let narrow = Client::connect_as(a.local_addr(), "narrow").expect("connect narrow");
    wide.subscribe(Filter::new().and("x", Op::Gt, 0))
        .expect("wide sub");
    narrow
        .subscribe(Filter::new().and("x", Op::Gt, 5))
        .expect("narrow sub");
    wait_for("advertisement to reach c", || {
        c.federation_stats().routing_entries >= 1
    });
    // Only the wide filter is advertised remotely.
    assert_eq!(c.federation_stats().routing_entries, 1);

    let publisher = Client::connect_as(c.local_addr(), "pub").expect("connect pub");
    publisher
        .publish(Event::builder().attr("x", 10).build())
        .expect("publish");
    assert!(
        wide.recv_delivery(WAIT).is_some(),
        "wide subscriber delivered"
    );
    assert!(
        narrow.recv_delivery(WAIT).is_some(),
        "narrow subscriber delivered"
    );

    drop(wide);
    drop(narrow);
    drop(publisher);
    c.shutdown();
    b.shutdown();
    a.shutdown();
}

/// Unsubscribing (here: dropping the subscriber's connection) must
/// withdraw the advertisement across the federation.
#[test]
fn disconnecting_subscriber_withdraws_remote_interest() {
    let (a, b, c) = chain(true);
    let subscriber = Client::connect_as(a.local_addr(), "sub").expect("connect sub");
    subscriber
        .subscribe(Filter::topic("gone"))
        .expect("subscribe");
    wait_for("advertisement to reach c", || {
        c.federation_stats().routing_entries >= 1
    });
    subscriber.close().expect("orderly goodbye");
    wait_for("withdrawal to reach c", || {
        c.federation_stats().routing_entries == 0
    });
    assert_eq!(b.federation_stats().routing_entries, 0);

    c.shutdown();
    b.shutdown();
    a.shutdown();
}

/// Count-based duplicate-subscription aggregation: identical filters
/// from many clients forward ONE advertisement over the peer link, the
/// withdrawal happens only when the count returns to zero, and remote
/// events still fan out to every member.
#[test]
fn duplicate_filters_aggregate_on_peer_links() {
    let a = BrokerServer::builder()
        .name("agg-a")
        .bind("127.0.0.1:0")
        .expect("bind a");
    let b = BrokerServer::builder()
        .name("agg-b")
        .peer(a.local_addr().to_string())
        .bind("127.0.0.1:0")
        .expect("bind b");
    wait_for("peer link", || a.federation_stats().peers == 1);

    // Five clients at b place the *identical* filter.
    let clients: Vec<Client> = (0..5)
        .map(|i| Client::connect_as(b.local_addr(), &format!("dup-{i}")).expect("connect"))
        .collect();
    let subs: Vec<_> = clients
        .iter()
        .map(|c| c.subscribe(Filter::topic("agg")).expect("subscribe"))
        .collect();

    // Routing-stats assertion: exactly one advertisement crossed, the
    // other four merged into the refcount.
    wait_for("advertisement at a", || {
        a.federation_stats().routing_entries == 1
    });
    let stats_b = b.federation_stats();
    assert_eq!(stats_b.subs_forwarded, 1, "identical filters forward once");
    assert_eq!(stats_b.subs_aggregated, 4, "four joined the group");
    assert_eq!(stats_b.routing_entries, 1, "one shared routing entry at b");

    // A remote event fans out to every member of the group.
    let publisher = Client::connect_as(a.local_addr(), "pub").expect("connect pub");
    publisher
        .publish(Event::topical("agg", "fan-out"))
        .expect("publish");
    for client in &clients {
        let got = client.recv_delivery(WAIT).expect("member delivered");
        assert_eq!(got.event.get(TOPIC_ATTR).unwrap().as_str(), Some("agg"));
    }

    // Withdrawing four of five must NOT withdraw the advertisement...
    for (client, sub) in clients.iter().zip(&subs).take(4) {
        client.unsubscribe(*sub).expect("unsubscribe");
    }
    publisher
        .publish(Event::topical("agg", "still-routed"))
        .expect("publish after partial unsubscribe");
    let got = clients[4].recv_delivery(WAIT).expect("survivor delivered");
    assert_eq!(
        got.event.get("body").unwrap().as_str(),
        Some("still-routed")
    );
    assert_eq!(
        a.federation_stats().routing_entries,
        1,
        "advertisement survives while the count is nonzero"
    );

    // ...but the last unsubscribe drops the count to zero and withdraws.
    clients[4].unsubscribe(subs[4]).expect("last unsubscribe");
    wait_for("withdrawal at a", || {
        a.federation_stats().routing_entries == 0
    });

    drop(publisher);
    drop(clients);
    b.shutdown();
    a.shutdown();
}

/// Peer-link reconnect: when a dialed link dies, `--peer-retry` re-dials
/// with backoff, re-runs the `PeerHello` handshake, and routing resyncs.
#[test]
fn dead_peer_link_redials_and_resyncs() {
    let hub = BrokerServer::builder()
        .name("redial-hub")
        .bind("127.0.0.1:0")
        .expect("bind hub");
    let dialer = BrokerServer::builder()
        .name("redial-dialer")
        .peer(hub.local_addr().to_string())
        .peer_retry(true)
        .bind("127.0.0.1:0")
        .expect("bind dialer");
    wait_for("initial link", || {
        hub.federation_stats().peers == 1 && dialer.federation_stats().peers == 1
    });

    // Kill the link from the hub's side (its listener stays up); the
    // dialer must notice the dead socket and re-dial on its own.
    let link = hub.federation().peer_stats()[0].link;
    hub.federation().peer_disconnected(NodeId(link));
    wait_for("link re-established", || {
        hub.federation_stats().peers == 1 && dialer.federation_stats().peers == 1
    });

    // The re-run handshake must leave a fully working federation: a
    // subscription placed after the reconnect routes events across.
    let subscriber = Client::connect_as(dialer.local_addr(), "sub").expect("connect sub");
    subscriber
        .subscribe(Filter::topic("redial"))
        .expect("subscribe");
    wait_for("advertisement crosses the new link", || {
        hub.federation_stats().routing_entries >= 1
    });
    let publisher = Client::connect_as(hub.local_addr(), "pub").expect("connect pub");
    publisher
        .publish(Event::topical("redial", "after-reconnect"))
        .expect("publish");
    let got = subscriber.recv_delivery(WAIT).expect("delivery");
    assert_eq!(
        got.event.get("body").unwrap().as_str(),
        Some("after-reconnect")
    );

    drop(subscriber);
    drop(publisher);
    dialer.shutdown();
    hub.shutdown();
}

/// Codec negotiation on peer links: a JSON-dialing broker federates with
/// a binary-default one, each link keeping the dialer's codec, and the
/// per-codec federation counters attribute the traffic.
#[test]
fn json_and_binary_peer_links_coexist() {
    let hub = BrokerServer::builder()
        .name("codec-hub")
        .bind("127.0.0.1:0")
        .expect("bind hub");
    let json_peer = BrokerServer::builder()
        .name("codec-json")
        .codec(CodecKind::Json)
        .peer(hub.local_addr().to_string())
        .bind("127.0.0.1:0")
        .expect("bind json peer");
    let binary_peer = BrokerServer::builder()
        .name("codec-binary")
        .peer(hub.local_addr().to_string())
        .bind("127.0.0.1:0")
        .expect("bind binary peer");
    wait_for("both links", || hub.federation_stats().peers == 2);

    // The hub adopted each link under the dialer's codec.
    let mut codecs: Vec<String> = hub.peer_stats().into_iter().map(|p| p.codec).collect();
    codecs.sort();
    assert_eq!(codecs, ["binary", "json"]);

    // Subscribe behind each spoke; the hub's advertisements go out once
    // per link, one in each codec.
    let json_sub = Client::connect_as(json_peer.local_addr(), "jsub").expect("connect");
    json_sub.subscribe(Filter::topic("codecs")).expect("sub");
    let binary_sub = Client::connect_as(binary_peer.local_addr(), "bsub").expect("connect");
    binary_sub.subscribe(Filter::topic("codecs")).expect("sub");
    wait_for("advertisements at hub", || {
        hub.federation_stats().routing_entries == 2
    });

    let publisher = Client::connect_as(hub.local_addr(), "pub").expect("connect pub");
    publisher
        .publish(Event::topical("codecs", "both"))
        .expect("publish");
    assert!(
        json_sub.recv_delivery(WAIT).is_some(),
        "json spoke delivered"
    );
    assert!(
        binary_sub.recv_delivery(WAIT).is_some(),
        "binary spoke delivered"
    );

    // Per-codec federation counters saw traffic on both codecs.
    let stats = hub.federation_stats();
    assert!(stats.json.frames_out >= 1, "json link carried frames");
    assert!(stats.binary.frames_out >= 1, "binary link carried frames");
    assert!(stats.json.bytes_in > 0, "json link ingress counted");
    assert!(stats.binary.bytes_in > 0, "binary link ingress counted");

    drop(json_sub);
    drop(binary_sub);
    drop(publisher);
    binary_peer.shutdown();
    json_peer.shutdown();
    hub.shutdown();
}

/// Build the 3-broker mesh ring a — b — c — a the way three
/// `reefd --mesh` daemons would. The third dial (c → a) closes the
/// cycle a tree overlay must never contain.
fn mesh_ring() -> (BrokerServer, BrokerServer, BrokerServer) {
    let a = BrokerServer::builder()
        .name("mesh-a")
        .mesh(true)
        .bind("127.0.0.1:0")
        .expect("bind a");
    let b = BrokerServer::builder()
        .name("mesh-b")
        .mesh(true)
        .peer(a.local_addr().to_string())
        .bind("127.0.0.1:0")
        .expect("bind b");
    let c = BrokerServer::builder()
        .name("mesh-c")
        .mesh(true)
        .peer(a.local_addr().to_string())
        .peer(b.local_addr().to_string())
        .bind("127.0.0.1:0")
        .expect("bind c");
    wait_for("ring links to register", || {
        a.federation_stats().peers == 2
            && b.federation_stats().peers == 2
            && c.federation_stats().peers == 2
    });
    (a, b, c)
}

/// The mesh acceptance scenario: a subscription at one broker of a
/// 3-broker ring is reachable over two distinct paths, events arrive
/// exactly once while both are up (the seen-cache eats the ring's
/// duplicate), and killing the direct link mid-run fails over onto the
/// surviving two-hop path without losing an event.
#[test]
fn mesh_ring_fails_over_on_epoll_transport() {
    let (a, b, c) = mesh_ring();

    let subscriber = Client::connect_as(a.local_addr(), "mesh-sub").expect("connect to a");
    subscriber
        .subscribe(Filter::topic("mesh"))
        .expect("subscribe at a");

    // The path-vector advertisement floods the ring: everyone learns the
    // route, and the publisher-side broker holds a failover alternate
    // (direct [a] plus two-hop [a, b]).
    wait_for("advertisement to flood the ring", || {
        b.federation_stats().routing_entries >= 1 && c.federation_stats().routing_entries >= 1
    });
    wait_for("alternate path at c", || {
        c.federation_stats().mesh_alternates >= 1
    });

    let publisher = Client::connect_as(c.local_addr(), "mesh-pub").expect("connect to c");
    publisher
        .publish(Event::topical("mesh", "both-paths-up"))
        .expect("publish at c");
    let got = subscriber.recv_delivery(WAIT).expect("ring delivery");
    assert_eq!(
        got.event.get("body").unwrap().as_str(),
        Some("both-paths-up")
    );
    // The event travelled both arms of the ring; the subscriber-side
    // seen-cache must have eaten the copy relayed through b.
    wait_for("duplicate suppressed at a", || {
        a.federation_stats().mesh_duplicates_suppressed >= 1
    });
    assert!(
        subscriber
            .recv_delivery(Duration::from_millis(300))
            .is_none(),
        "the ring's duplicate copy must not reach the subscriber"
    );

    // Kill the direct a — c link mid-run (a's side; the socket shutdown
    // propagates to c). No redial is configured: delivery now depends on
    // self-stabilization promoting c's alternate route through b.
    let direct = a
        .federation()
        .peer_stats()
        .into_iter()
        .find(|p| p.broker == "mesh-c")
        .expect("a knows its link to c")
        .link;
    a.federation().peer_disconnected(NodeId(direct));
    wait_for(
        "c to notice the dead link and promote the alternate",
        || {
            let stats = c.federation_stats();
            stats.peers == 1 && stats.mesh_reroutes >= 1
        },
    );

    publisher
        .publish(Event::topical("mesh", "around-the-ring"))
        .expect("publish after link kill");
    let got = subscriber.recv_delivery(WAIT).expect("failover delivery");
    assert_eq!(
        got.event.get("body").unwrap().as_str(),
        Some("around-the-ring")
    );
    assert!(
        subscriber
            .recv_delivery(Duration::from_millis(300))
            .is_none(),
        "failover must stay exactly-once"
    );

    drop(subscriber);
    drop(publisher);
    c.shutdown();
    b.shutdown();
    a.shutdown();
}

/// Keepalive: an idle peer link outlives many multiples of the peer
/// timeout because pings flow and pongs answer — and it still routes
/// events afterwards. (A broken ping/pong path would tear the link down
/// as dead within one timeout.)
#[test]
fn keepalive_holds_an_idle_peer_link_open() {
    let timeout = Duration::from_millis(400);
    let a = BrokerServer::builder()
        .name("ka-a")
        .peer_timeout(Some(timeout))
        .bind("127.0.0.1:0")
        .expect("bind a");
    let b = BrokerServer::builder()
        .name("ka-b")
        .peer_timeout(Some(timeout))
        .peer(a.local_addr().to_string())
        .bind("127.0.0.1:0")
        .expect("bind b");
    wait_for("peer link", || {
        a.federation_stats().peers == 1 && b.federation_stats().peers == 1
    });

    // Idle the link until keepalive traffic proves silence outlasted the
    // deadline: probes fire at a third of the timeout, so three inbound
    // frames on each side mean a full timeout of idleness passed with
    // only ping/pong crossing — no blind multi-timeout sleep needed.
    let peer_frames_in =
        |s: &reef_wire::FederationStatsSnapshot| s.json.frames_in + s.binary.frames_in;
    let (base_a, base_b) = (
        peer_frames_in(&a.federation_stats()),
        peer_frames_in(&b.federation_stats()),
    );
    wait_for("keepalives cross the idle link", || {
        peer_frames_in(&a.federation_stats()) >= base_a + 3
            && peer_frames_in(&b.federation_stats()) >= base_b + 3
    });
    assert_eq!(a.federation_stats().peers, 1, "link survived idling at a");
    assert_eq!(b.federation_stats().peers, 1, "link survived idling at b");

    // The probed link still routes.
    let subscriber = Client::connect_as(a.local_addr(), "ka-sub").expect("connect sub");
    subscriber
        .subscribe(Filter::topic("keepalive"))
        .expect("subscribe");
    wait_for("advertisement crosses", || {
        b.federation_stats().routing_entries >= 1
    });
    let publisher = Client::connect_as(b.local_addr(), "ka-pub").expect("connect pub");
    publisher
        .publish(Event::topical("keepalive", "still-here"))
        .expect("publish");
    assert!(
        subscriber.recv_delivery(WAIT).is_some(),
        "delivery after idle period"
    );

    drop(subscriber);
    drop(publisher);
    b.shutdown();
    a.shutdown();
}

/// The `Stats` request surfaces federation state to remote clients, and
/// delivery drops appear in the wire snapshot when a bounded-queue broker
/// overflows.
#[test]
fn stats_request_reports_federation_and_backpressure() {
    let a = BrokerServer::builder()
        .name("stats-a")
        .queue_capacity(1)
        .bind("127.0.0.1:0")
        .expect("bind a");
    let b = BrokerServer::builder()
        .name("stats-b")
        .peer(a.local_addr().to_string())
        .bind("127.0.0.1:0")
        .expect("bind b");

    let client = Client::connect_as(a.local_addr(), "stats-client").expect("connect");
    // a is the accepting side of the peer link; poll until its
    // connection thread has registered it.
    wait_for("peer link visible in stats", || {
        client.stats().expect("stats").federation.peers == 1
    });
    let stats = client.stats().expect("stats");
    assert_ne!(stats.federation.broker_id, 0);

    // Overflow the 1-slot queue deterministically: register a subscriber
    // directly on the broker (no delivery pump drains it) and flood it
    // from a wire client.
    let (slow, slow_handle) = a.broker().register();
    a.broker()
        .subscribe(slow, Filter::new())
        .expect("subscribe slow consumer");
    let publisher = Client::connect_as(a.local_addr(), "flooder").expect("connect flooder");
    let mut dropped = 0;
    for i in 0..5i64 {
        let out = publisher
            .publish(Event::builder().attr("i", i).build())
            .expect("publish");
        dropped += out.dropped;
    }
    assert_eq!(dropped, 4, "everything past the first event was dropped");
    let stats = client.stats().expect("stats after flood");
    assert_eq!(stats.broker.drops, 4, "drops surfaced in broker stats");
    assert_eq!(slow_handle.pending(), 1, "the queue held exactly its bound");

    drop(client);
    drop(publisher);
    b.shutdown();
    a.shutdown();
}
