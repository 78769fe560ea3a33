//! Transport-equivalence property: the sans-io `BrokerNode` routing core
//! must behave identically no matter what carries its `PeerMsg`s. For the
//! same scripted workload on the same 3-broker topology, a simulated
//! `reef_sim::Cluster` (virtual time, in-process) and a federation of
//! real `BrokerServer`s over TCP must converge to the same routing-table
//! sizes and deliver the same event sets to the same clients. A single daemon, sharded or not, must deliver exactly what a
//! linear matching model predicts.

use proptest::prelude::*;
use reef::pubsub::{ClientId, Event, Filter, Op, Value};
use reef::wire::{BrokerServer, Client};
use reef_sim::{Cluster, LinkFaults};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

const WAIT: Duration = Duration::from_secs(10);
const ATTRS: [&str; 3] = ["x", "y", "z"];

fn arb_filter() -> impl Strategy<Value = Filter> {
    prop::collection::vec((0usize..3, 0usize..4, -2i64..3), 0..3).prop_map(|preds| {
        let mut f = Filter::new();
        for (attr, op, val) in preds {
            let op = [Op::Eq, Op::Ne, Op::Lt, Op::Gt][op];
            f = f.and(ATTRS[attr], op, val);
        }
        f
    })
}

fn arb_event() -> impl Strategy<Value = Event> {
    prop::collection::vec((0usize..3, -2i64..3), 1..4).prop_map(|pairs| {
        let mut e = Event::new();
        for (attr, val) in pairs {
            e.set(ATTRS[attr], Value::from(val));
        }
        e
    })
}

type Multiset = BTreeMap<String, usize>;

fn into_multiset(events: impl IntoIterator<Item = Event>) -> Multiset {
    let mut out = Multiset::new();
    for event in events {
        *out.entry(event.to_string()).or_insert(0) += 1;
    }
    out
}

/// Clients of [`run_single_daemon`]; script indices are taken modulo this.
const CLIENTS: usize = 4;

/// Run one scripted workload — 4 clients, arbitrary subscriptions,
/// arbitrary publishes — against a single daemon with `loop_threads`
/// shards. Returns each client's delivered event multiset and the sum of
/// the publish replies' `delivered` counts.
fn run_single_daemon(
    loop_threads: usize,
    subs: &[(usize, Filter)],
    events: &[(usize, Event)],
) -> (Vec<Multiset>, usize) {
    let server = BrokerServer::builder()
        .loop_threads(loop_threads)
        .bind("127.0.0.1:0")
        .expect("bind");
    let clients: Vec<Client> = (0..CLIENTS)
        .map(|i| {
            Client::connect_as(server.local_addr(), &format!("shard-eq-{i}")).expect("connect")
        })
        .collect();
    for (client, filter) in subs {
        clients[*client % CLIENTS]
            .subscribe(filter.clone())
            .expect("subscribe");
    }
    // The publish reply carries how many subscriber queues matched, so the
    // exact total delivery count is known up front — no settle heuristics.
    let mut expected_total = 0usize;
    for (publisher, event) in events {
        let outcome = clients[*publisher % CLIENTS]
            .publish(event.clone())
            .expect("publish");
        expected_total += outcome.delivered as usize;
    }
    let mut got: Vec<Vec<Event>> = vec![Vec::new(); CLIENTS];
    let deadline = Instant::now() + WAIT;
    while got.iter().map(Vec::len).sum::<usize>() < expected_total && Instant::now() < deadline {
        for (i, client) in clients.iter().enumerate() {
            while let Some(delivery) = client.recv_delivery(Duration::from_millis(5)) {
                got[i].push(delivery.event);
            }
        }
    }
    // Grace pass: a delivery-path bug that over-delivers shows up as
    // extras.
    for (i, client) in clients.iter().enumerate() {
        if let Some(extra) = client.recv_delivery(Duration::from_millis(25)) {
            got[i].push(extra.event);
        }
    }
    drop(clients);
    server.shutdown();
    (got.into_iter().map(into_multiset).collect(), expected_total)
}

/// The linear delivery model: every event goes to every client once per
/// subscription of that client whose filter matches it — one delivery per
/// matching subscription, as `Broker::publish` counts them.
fn linear_oracle(subs: &[(usize, Filter)], events: &[(usize, Event)]) -> Vec<Multiset> {
    let mut want: Vec<Vec<Event>> = vec![Vec::new(); CLIENTS];
    for (_, event) in events {
        for (client, filter) in subs {
            if filter.matches(event) {
                want[*client % CLIENTS].push(event.clone());
            }
        }
    }
    want.into_iter().map(into_multiset).collect()
}

/// Run the workload on a linked simulated cluster with one client per
/// broker. Returns each client's delivered event multiset and each
/// broker's routing-table size once subscriptions settled.
fn run_sim(
    cluster: &mut Cluster,
    brokers: &[usize],
    subs: &[(usize, Filter)],
    events: &[(usize, Event)],
) -> (Vec<Multiset>, Vec<usize>) {
    let clients: Vec<ClientId> = brokers.iter().map(|&b| cluster.attach(b)).collect();
    for (client, filter) in subs {
        cluster.subscribe(clients[*client], filter.clone());
    }
    cluster.run_until_idle().expect("subscriptions settle");
    let entries = brokers
        .iter()
        .map(|&b| cluster.routing_entries_at(b))
        .collect();
    for (publisher, event) in events {
        cluster.publish(clients[*publisher], event.clone());
    }
    cluster.run_until_idle().expect("events settle");
    let delivered = clients
        .iter()
        .map(|&c| into_multiset(cluster.take_delivered(c).into_iter().map(|p| p.event)))
        .collect();
    (delivered, entries)
}

proptest! {
    // Each case spins up two or three real TCP daemons; keep the case
    // count low enough that the suite stays fast.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Sharding must be invisible to delivery semantics: the same
    /// workload through a 1-shard and a 4-shard daemon must hand every
    /// client exactly the event multiset the linear model predicts,
    /// regardless of which shard each socket hashed to, and the publish
    /// replies' `delivered` counts must add up to the model's total.
    #[test]
    fn sharded_epoll_delivers_linear_oracle_sets(
        subs in prop::collection::vec((0usize..4, arb_filter()), 1..8),
        events in prop::collection::vec((0usize..4, arb_event()), 1..8),
    ) {
        let want = linear_oracle(&subs, &events);
        let want_total: usize = want.iter().flat_map(|m| m.values()).sum();
        for shards in [1, 4] {
            let (got, delivered) = run_single_daemon(shards, &subs, &events);
            prop_assert_eq!(
                delivered, want_total,
                "publish replies' delivered counts disagree with the linear model ({} shards)",
                shards
            );
            prop_assert_eq!(
                &got, &want,
                "per-client deliveries diverge from the linear model ({} shards)",
                shards
            );
        }
    }

    #[test]
    fn sim_and_tcp_transports_deliver_identical_event_sets(
        covering in any::<bool>(),
        subs in prop::collection::vec((0usize..3, arb_filter()), 1..6),
        events in prop::collection::vec((0usize..3, arb_event()), 1..8),
    ) {
        // --- Oracle: a simulated tree cluster on a 3-chain. ---
        let mut cluster = Cluster::tree(covering, 0);
        let sim_brokers: Vec<usize> = (0..3).map(|_| cluster.add_broker()).collect();
        cluster.link(sim_brokers[0], sim_brokers[1], LinkFaults::default()).expect("link");
        cluster.link(sim_brokers[1], sim_brokers[2], LinkFaults::default()).expect("link");
        let (expected, sim_entries) = run_sim(&mut cluster, &sim_brokers, &subs, &events);

        // --- Same workload over TCP: three federated daemons. ---
        let a = BrokerServer::builder().name("eq-a").covering(covering)
            .bind("127.0.0.1:0").expect("bind a");
        let b = BrokerServer::builder().name("eq-b").covering(covering)
            .peer(a.local_addr().to_string()).bind("127.0.0.1:0").expect("bind b");
        let c = BrokerServer::builder().name("eq-c").covering(covering)
            .peer(b.local_addr().to_string()).bind("127.0.0.1:0").expect("bind c");
        let servers = [&a, &b, &c];
        let clients: Vec<Client> = servers
            .iter()
            .enumerate()
            .map(|(i, s)| Client::connect_as(s.local_addr(), &format!("eq-client-{i}")).expect("connect"))
            .collect();
        for (client, filter) in &subs {
            clients[*client].subscribe(filter.clone()).expect("subscribe");
        }
        // Settle: routing-entry counts must reach the sim's final state
        // AND the federation must be quiescent. Matching counts alone are
        // not enough: a covering replacement (SubFwd + UnsubFwd) keeps a
        // downstream broker's entry count constant while its *content* is
        // still in flight, and an event published in that window is
        // (correctly) not forwarded — so wait until advertisement
        // traffic stops moving too.
        let deadline = Instant::now() + WAIT;
        let fingerprint = || -> Vec<u64> {
            servers
                .iter()
                .flat_map(|s| {
                    let fed = s.federation_stats();
                    [
                        fed.routing_entries,
                        fed.advertisements,
                        fed.subs_forwarded,
                        fed.json.frames_in,
                        fed.json.frames_out,
                        fed.binary.frames_in,
                        fed.binary.frames_out,
                    ]
                })
                .collect()
        };
        let mut last = fingerprint();
        let mut stable = 0u32;
        loop {
            std::thread::sleep(Duration::from_millis(5));
            let now = fingerprint();
            let entries: Vec<usize> = now.iter().step_by(7).map(|&e| e as usize).collect();
            if entries == sim_entries && now == last {
                stable += 1;
                // ~50 ms with no advertisement traffic: quiesced.
                if stable >= 10 {
                    break;
                }
            } else {
                stable = 0;
            }
            last = now;
            prop_assert!(
                Instant::now() < deadline,
                "routing tables never converged: tcp {entries:?} vs sim {sim_entries:?} (covering={covering})"
            );
        }
        for (publisher, event) in &events {
            clients[*publisher].publish(event.clone()).expect("publish");
        }
        // Collect deliveries until each client saw what the oracle
        // predicts (or the deadline passes).
        for (i, client) in clients.iter().enumerate() {
            let want = &expected[i];
            let want_total: usize = want.values().sum();
            let mut got = Vec::new();
            let deadline = Instant::now() + WAIT;
            while got.len() < want_total && Instant::now() < deadline {
                if let Some(delivery) = client.recv_delivery(Duration::from_millis(50)) {
                    got.push(delivery.event);
                }
            }
            // A short grace period catches spurious extra deliveries.
            if let Some(extra) = client.recv_delivery(Duration::from_millis(50)) {
                got.push(extra.event);
            }
            let got = into_multiset(got);
            prop_assert_eq!(
                &got, want,
                "client {} deliveries diverge between transports (covering={})",
                i, covering
            );
        }
        drop(clients);
        c.shutdown();
        b.shutdown();
        a.shutdown();
    }

    /// The same equivalence on a *cyclic* topology: a 3-broker mesh ring
    /// (path-vector routing, duplicate suppression, redundant paths)
    /// must deliver the same event multisets in the simulator and over TCP.
    #[test]
    fn sim_and_tcp_mesh_rings_deliver_identical_event_sets(
        subs in prop::collection::vec((0usize..3, arb_filter()), 1..6),
        events in prop::collection::vec((0usize..3, arb_event()), 1..8),
    ) {
        // Both transports advertise identical filters placed through one
        // broker once, so duplicates in the workload keep routing-entry
        // counts comparable.
        // --- Oracle: a simulated mesh cluster on a ring. ---
        let mut cluster = Cluster::mesh(0);
        let sim_brokers: Vec<usize> = (0..3).map(|_| cluster.add_broker()).collect();
        for (x, y) in [(0, 1), (1, 2), (2, 0)] {
            cluster.link(sim_brokers[x], sim_brokers[y], LinkFaults::default()).expect("link");
        }
        let (expected, sim_entries) = run_sim(&mut cluster, &sim_brokers, &subs, &events);

        // --- Same workload over TCP: a ring of --mesh daemons. ---
        let a = BrokerServer::builder().name("meq-a").mesh(true)
            .bind("127.0.0.1:0").expect("bind a");
        let b = BrokerServer::builder().name("meq-b").mesh(true)
            .peer(a.local_addr().to_string()).bind("127.0.0.1:0").expect("bind b");
        let c = BrokerServer::builder().name("meq-c").mesh(true)
            .peer(a.local_addr().to_string())
            .peer(b.local_addr().to_string())
            .bind("127.0.0.1:0").expect("bind c");
        let servers = [&a, &b, &c];
        let clients: Vec<Client> = servers
            .iter()
            .enumerate()
            .map(|(i, s)| Client::connect_as(s.local_addr(), &format!("meq-client-{i}")).expect("connect"))
            .collect();
        for (client, filter) in &subs {
            clients[*client].subscribe(filter.clone()).expect("subscribe");
        }
        // Settle exactly like the chain variant: counts match the sim AND
        // advertisement traffic has stopped moving.
        let deadline = Instant::now() + WAIT;
        let fingerprint = || -> Vec<u64> {
            servers
                .iter()
                .flat_map(|s| {
                    let fed = s.federation_stats();
                    [
                        fed.routing_entries,
                        fed.advertisements,
                        fed.subs_forwarded,
                        fed.json.frames_in,
                        fed.json.frames_out,
                        fed.binary.frames_in,
                        fed.binary.frames_out,
                    ]
                })
                .collect()
        };
        let mut last = fingerprint();
        let mut stable = 0u32;
        loop {
            std::thread::sleep(Duration::from_millis(5));
            let now = fingerprint();
            let entries: Vec<usize> = now.iter().step_by(7).map(|&e| e as usize).collect();
            if entries == sim_entries && now == last {
                stable += 1;
                if stable >= 10 {
                    break;
                }
            } else {
                stable = 0;
            }
            last = now;
            prop_assert!(
                Instant::now() < deadline,
                "mesh routing tables never converged: tcp {entries:?} vs sim {sim_entries:?}"
            );
        }
        for (publisher, event) in &events {
            clients[*publisher].publish(event.clone()).expect("publish");
        }
        for (i, client) in clients.iter().enumerate() {
            let want = &expected[i];
            let want_total: usize = want.values().sum();
            let mut got = Vec::new();
            let deadline = Instant::now() + WAIT;
            while got.len() < want_total && Instant::now() < deadline {
                if let Some(delivery) = client.recv_delivery(Duration::from_millis(50)) {
                    got.push(delivery.event);
                }
            }
            // The grace period is where a duplicate-suppression bug would
            // surface: the ring's second copy arriving as an extra event.
            if let Some(extra) = client.recv_delivery(Duration::from_millis(50)) {
                got.push(extra.event);
            }
            let got = into_multiset(got);
            prop_assert_eq!(
                &got, want,
                "client {} deliveries diverge between mesh transports",
                i
            );
        }
        drop(clients);
        c.shutdown();
        b.shutdown();
        a.shutdown();
    }
}
