//! Oracle property: a federation of tree-mode brokers (a simulated
//! `reef_sim::Cluster`) must deliver exactly the same events as a single
//! flat broker, for any workload and any tree topology — covering
//! optimization on or off.

use proptest::prelude::*;
use reef::pubsub::{Broker, ClientId, Event, Filter, Op, Value};
use reef_sim::{Cluster, LinkFaults};
use std::collections::BTreeMap;

const ATTRS: [&str; 3] = ["x", "y", "z"];

#[derive(Debug, Clone)]
struct WorkloadSub {
    client: usize,
    filter: Filter,
}

fn arb_filter() -> impl Strategy<Value = Filter> {
    prop::collection::vec((0usize..3, 0usize..4, -3i64..4), 0..3).prop_map(|preds| {
        let mut f = Filter::new();
        for (attr, op, val) in preds {
            let op = [Op::Eq, Op::Ne, Op::Lt, Op::Gt][op];
            f = f.and(ATTRS[attr], op, val);
        }
        f
    })
}

fn arb_event() -> impl Strategy<Value = Event> {
    prop::collection::vec((0usize..3, -3i64..4), 1..4).prop_map(|pairs| {
        let mut e = Event::new();
        for (attr, val) in pairs {
            e.set(ATTRS[attr], Value::from(val));
        }
        e
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn overlay_matches_flat_broker(
        n_brokers in 2usize..6,
        covering in any::<bool>(),
        subs in prop::collection::vec((0usize..6, arb_filter()), 1..10),
        events in prop::collection::vec((0usize..6, arb_event()), 1..12),
        topology_seed in 0u64..1000,
    ) {
        let subs: Vec<WorkloadSub> = subs
            .into_iter()
            .map(|(client, filter)| WorkloadSub { client, filter })
            .collect();
        let n_clients = 6usize;

        // --- Federation under test: random tree over n_brokers. ---
        let mut cluster = Cluster::tree(covering, topology_seed);
        let brokers: Vec<usize> = (0..n_brokers).map(|_| cluster.add_broker()).collect();
        // Random tree: parent of node i is some j < i.
        let mut state = topology_seed.wrapping_add(7);
        for i in 1..n_brokers {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let parent = (state >> 33) as usize % i;
            let latency = 1 + (i as u64 % 3);
            let faults = LinkFaults { delay_min: latency, delay_max: latency, ..LinkFaults::default() };
            cluster.link(brokers[parent], brokers[i], faults).expect("tree link");
        }
        let clients: Vec<ClientId> = (0..n_clients)
            .map(|i| cluster.attach(brokers[i % n_brokers]))
            .collect();
        for sub in &subs {
            cluster.subscribe(clients[sub.client], sub.filter.clone());
        }
        cluster.run_until_idle().expect("subscriptions settle");
        for (publisher, event) in &events {
            cluster.publish(clients[*publisher], event.clone());
        }
        cluster.run_until_idle().expect("events settle");

        // --- Oracle: one flat broker with the same subscriptions. ---
        let flat = Broker::new();
        let flat_clients: Vec<_> = (0..n_clients).map(|_| flat.register()).collect();
        for sub in &subs {
            flat.subscribe(flat_clients[sub.client].0, sub.filter.clone()).expect("subscribe");
        }
        for (_, event) in &events {
            flat.publish(event.clone()).expect("publish");
        }

        // Compare delivery multisets per client (event payloads, order-free).
        for (i, client) in clients.iter().enumerate() {
            let mut got: BTreeMap<String, usize> = BTreeMap::new();
            for delivery in cluster.take_delivered(*client) {
                *got.entry(delivery.event.to_string()).or_insert(0) += 1;
            }
            let mut want: BTreeMap<String, usize> = BTreeMap::new();
            for delivery in flat_clients[i].1.drain() {
                *want.entry(delivery.event.to_string()).or_insert(0) += 1;
            }
            prop_assert_eq!(
                &got, &want,
                "client {} deliveries diverge (covering={}, brokers={})",
                i, covering, n_brokers
            );
        }
    }
}
