//! Deterministic-simulation scenarios: the seeded smoke sweep, virtual-time
//! ports of the flakiest wall-clock integration suites (ring failover,
//! crash-recovery kill points, mesh churn), and `reefd`'s default tree
//! routing under faults.
//!
//! Every run here is a pure function of a `u64` seed. On failure the
//! harness prints the seed and a minimized step trace; replay it with
//! `REEF_SIM_SEED=<seed> cargo test --test sim_scenarios seeded`.

use reef::pubsub::{ClientId, Event, Filter, Op};
use reef_sim::{run_seed, Cluster, LinkFaults, SimPlan, SimStep};
use std::collections::BTreeSet;

/// How many seeds the smoke sweep covers. Each seed derives its own
/// topology (3–5 brokers), per-link fault profiles (drop, duplicate,
/// delay), and 10–15 perturbation steps (partitions, kills with torn
/// WAL tails, restarts, uploads), with all four oracles checked at
/// every quiescent point.
const SMOKE_SEEDS: u64 = 200;

#[test]
fn seeded_smoke_sweep() {
    // A single failing seed can be replayed alone via the env override.
    if let Ok(seed) = std::env::var("REEF_SIM_SEED") {
        let seed: u64 = seed.parse().expect("REEF_SIM_SEED must be a u64");
        if let Err(failure) = run_seed(seed) {
            panic!("{failure}");
        }
        return;
    }
    let mut probes = 0;
    let mut restarts = 0;
    let mut resets = 0;
    let mut dropped = 0;
    let mut duplicated = 0;
    for seed in 0..SMOKE_SEEDS {
        match run_seed(seed) {
            Ok(stats) => {
                probes += stats.probes;
                restarts += stats.restarts;
                resets += stats.link_resets;
                dropped += stats.net.dropped;
                duplicated += stats.net.duplicated;
            }
            Err(failure) => panic!("{failure}"),
        }
    }
    // The sweep must actually exercise the fault space, not tiptoe
    // around it — otherwise green means nothing.
    assert!(probes >= 2 * SMOKE_SEEDS, "probes: {probes}");
    assert!(restarts > 0, "no broker was ever kill/restarted");
    assert!(resets > 0, "no link was ever reset by a drop fault");
    assert!(dropped > 0, "no message was ever dropped");
    assert!(duplicated > 0, "no message was ever duplicated");
}

#[test]
fn replaying_a_seed_reproduces_the_exact_run() {
    for seed in [2, 77, 123] {
        let first = run_seed(seed).unwrap_or_else(|f| panic!("{f}"));
        let second = run_seed(seed).unwrap_or_else(|f| panic!("{f}"));
        assert_eq!(
            first, second,
            "seed {seed}: replay diverged — determinism is broken"
        );
    }
}

fn clean() -> LinkFaults {
    LinkFaults::default()
}

fn ring(brokers: usize) -> Vec<(usize, usize, LinkFaults)> {
    (0..brokers)
        .map(|a| {
            let b = (a + 1) % brokers;
            (a.min(b), a.max(b), clean())
        })
        .collect()
}

/// Port of the `wire_federation` ring-failover scenario: a 4-broker
/// ring loses one link, traffic must converge onto the long way round
/// (3 hops between the severed neighbors), then heal back to 1 hop.
/// The sim's convergence oracle checks the shortest-path lengths at
/// both quiescent points, which the TCP variant could only approximate
/// with sleeps.
#[test]
fn ring_failover_reroutes_the_long_way_round() {
    let plan = SimPlan {
        seed: 0,
        brokers: 4,
        links: ring(4),
        steps: vec![
            SimStep::LinkDown { a: 0, b: 1 },
            SimStep::LinkUp {
                a: 0,
                b: 1,
                faults: clean(),
            },
        ],
    };
    let stats = reef_sim::execute_plan(&plan).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(stats.steps, 2);
}

/// Port of the `crash_recovery` kill-point scenario: a broker ingests
/// acked uploads, dies with a torn WAL tail at several different byte
/// offsets, and each recovery must yield a batch-boundary prefix of
/// exactly what was acked — while the surviving brokers keep routing.
#[test]
fn crash_recovery_kill_points_preserve_acked_prefix() {
    for torn in [0u16, 1, 7, 24, 64] {
        let plan = SimPlan {
            seed: u64::from(torn),
            brokers: 3,
            links: ring(3),
            steps: vec![
                SimStep::ClickUpload {
                    broker: 1,
                    forged: false,
                },
                SimStep::ClickUpload {
                    broker: 1,
                    forged: true,
                },
                SimStep::ClickUpload {
                    broker: 1,
                    forged: false,
                },
                SimStep::Kill { broker: 1, torn },
                SimStep::Restart { broker: 1 },
                SimStep::ClickUpload {
                    broker: 1,
                    forged: false,
                },
            ],
        };
        let stats =
            reef_sim::execute_plan(&plan).unwrap_or_else(|e| panic!("kill point torn={torn}: {e}"));
        assert_eq!(stats.restarts, 1, "torn={torn}");
    }
}

/// Port of the `prop_mesh_churn` reachability property: relentless
/// link churn and a partition over a chorded 5-broker mesh, with lossy
/// links throughout. After every step the convergence and delivery
/// oracles prove reachability — the property the wall-clock suite
/// could only sample.
#[test]
fn mesh_churn_keeps_survivors_connected() {
    let lossy = LinkFaults {
        drop_p: 0.2,
        dup_p: 0.2,
        delay_min: 0,
        delay_max: 3,
    };
    let mut links = ring(5);
    links.push((0, 2, lossy));
    links.push((1, 3, lossy));
    links.sort_by_key(|&(a, b, _)| (a, b));
    let group: BTreeSet<usize> = [4].into_iter().collect();
    let plan = SimPlan {
        seed: 99,
        brokers: 5,
        links,
        steps: vec![
            SimStep::LinkDown { a: 0, b: 1 },
            SimStep::LinkDown { a: 2, b: 3 },
            SimStep::Partition { group },
            SimStep::LinkUp {
                a: 0,
                b: 1,
                faults: lossy,
            },
            SimStep::Heal,
            SimStep::Kill { broker: 2, torn: 9 },
            SimStep::LinkUp {
                a: 2,
                b: 3,
                faults: lossy,
            },
            SimStep::Restart { broker: 2 },
        ],
    };
    let stats = reef_sim::execute_plan(&plan).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(stats.steps, 8);
}

/// Each broker's subscribers in the tree scenario: a wide filter and a
/// narrow one it covers, so covering pruning is on the path.
fn tree_subscribers(cluster: &mut Cluster, broker: usize) -> Vec<(ClientId, Filter)> {
    [
        Filter::new().and("x", Op::Gt, 0),
        Filter::new().and("x", Op::Gt, 5),
    ]
    .into_iter()
    .map(|filter| {
        let client = cluster.attach(broker);
        cluster.subscribe(client, filter.clone());
        (client, filter)
    })
    .collect()
}

/// Quiesce, then publish from every live broker and demand that each
/// event reaches every matching subscriber on a reachable broker exactly
/// once, and no one else.
fn check_tree_exactly_once(
    cluster: &mut Cluster,
    subscribers: &[Vec<(ClientId, Filter)>],
    ctx: &str,
) {
    cluster.quiesce().unwrap_or_else(|e| panic!("{ctx}: {e}"));
    let live: Vec<usize> = (0..subscribers.len())
        .filter(|&b| cluster.alive(b))
        .collect();
    for publisher in live {
        let reachable = cluster.distances(publisher);
        for x in [3, 10] {
            let event = Event::builder().attr("x", x).build();
            let (sender, _) = subscribers[publisher][0];
            let id = cluster.publish(sender, event.clone());
            cluster
                .run_until_idle()
                .unwrap_or_else(|e| panic!("{ctx}: {e}"));
            for (broker, clients) in subscribers.iter().enumerate() {
                for (client, filter) in clients {
                    let got: Vec<_> = cluster
                        .take_delivered(*client)
                        .into_iter()
                        .map(|p| p.id)
                        .collect();
                    let want = if reachable.contains_key(&broker) && filter.matches(&event) {
                        vec![id]
                    } else {
                        Vec::new()
                    };
                    assert_eq!(
                        got, want,
                        "{ctx}: x={x} from broker {publisher} to {client} on broker {broker}"
                    );
                }
            }
        }
    }
}

/// `reefd`'s default routing mode — tree brokers with covering pruning,
/// no seen-cache — under drop and delay faults (no duplicates: TCP never
/// duplicates). A 4-broker chain loses and regains a link, then its
/// middle broker crashes and rejoins; after every step each event must
/// reach every reachable matching subscriber exactly once.
#[test]
fn tree_chain_with_covering_stays_exactly_once_under_faults() {
    let faults = LinkFaults {
        drop_p: 0.2,
        dup_p: 0.0,
        delay_min: 0,
        delay_max: 3,
    };
    let mut resets = 0;
    for seed in 0..32 {
        let mut cluster = Cluster::tree(true, seed);
        let brokers: Vec<usize> = (0..4).map(|_| cluster.add_broker()).collect();
        for w in brokers.windows(2) {
            cluster.link(w[0], w[1], faults).expect("chain link");
        }
        let mut subscribers: Vec<Vec<(ClientId, Filter)>> = brokers
            .iter()
            .map(|&b| tree_subscribers(&mut cluster, b))
            .collect();
        let ctx = |step: &str| format!("seed {seed}, {step}");
        check_tree_exactly_once(&mut cluster, &subscribers, &ctx("initial"));

        cluster.set_lossy(true);
        cluster.unlink(1, 2);
        check_tree_exactly_once(&mut cluster, &subscribers, &ctx("link 1-2 down"));

        cluster.set_lossy(true);
        cluster.link(1, 2, faults).expect("re-up a tree link");
        check_tree_exactly_once(&mut cluster, &subscribers, &ctx("link 1-2 up"));

        cluster.set_lossy(true);
        cluster.crash(1);
        subscribers[1].clear();
        check_tree_exactly_once(&mut cluster, &subscribers, &ctx("broker 1 crashed"));

        cluster.set_lossy(true);
        cluster.restart(1);
        subscribers[1] = tree_subscribers(&mut cluster, 1);
        check_tree_exactly_once(&mut cluster, &subscribers, &ctx("broker 1 rejoined"));
        assert_eq!(cluster.fault_stats().duplicated, 0);
        resets += cluster.link_resets();
    }
    // Drops must actually have broken links, or green means nothing.
    assert!(resets > 0, "no link was ever reset by a drop fault");
}
