//! Mesh self-stabilization under churn: a mesh federation whose links are
//! killed and re-joined at random must, after every churn step, deliver
//! events **exactly once** to every subscriber whose broker is reachable
//! from the publisher in the *current* link graph and to no one else,
//! route every subscription along a shortest live path, and retain no
//! route through a dead link. Each case is a `reef_sim` plan of
//! `LinkDown`/`LinkUp` steps; `execute_plan` checks those oracles at
//! every quiescent point, and a failure names the seed that replays it.

use proptest::prelude::*;
use reef_sim::{execute_plan, LinkFaults, SimPlan, SimStep};
use std::collections::BTreeSet;

const BROKERS: usize = 4;

/// All distinct unordered broker pairs, the edge universe churn picks from.
fn edge_universe() -> Vec<(usize, usize)> {
    let mut pairs = Vec::new();
    for a in 0..BROKERS {
        for b in (a + 1)..BROKERS {
            pairs.push((a, b));
        }
    }
    pairs
}

/// Fault profile of a re-joined link: delay always, sometimes
/// duplicates and drops.
fn arb_faults() -> impl Strategy<Value = LinkFaults> {
    (0u64..2, 0u64..3, any::<bool>(), any::<bool>()).prop_map(|(lo, spread, dup, drop)| {
        LinkFaults {
            drop_p: if drop { 0.1 } else { 0.0 },
            dup_p: if dup { 0.2 } else { 0.0 },
            delay_min: lo,
            delay_max: lo + spread,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn mesh_survives_link_churn_with_exactly_once_delivery(
        churn in prop::collection::vec((0..BROKERS * (BROKERS - 1) / 2, arb_faults()), 1..12),
        seed in any::<u64>(),
    ) {
        let universe = edge_universe();
        // Start from a ring: every broker reachable, every route redundant.
        let links: Vec<(usize, usize, LinkFaults)> = (0..BROKERS)
            .map(|i| {
                let j = (i + 1) % BROKERS;
                (i.min(j), i.max(j), LinkFaults::default())
            })
            .collect();
        let mut up: BTreeSet<(usize, usize)> = links.iter().map(|&(a, b, _)| (a, b)).collect();
        // Churn: kill the edge if it is up, join it if it is down.
        let steps: Vec<SimStep> = churn
            .iter()
            .map(|&(edge, faults)| {
                let (a, b) = universe[edge];
                if up.remove(&(a, b)) {
                    SimStep::LinkDown { a, b }
                } else {
                    up.insert((a, b));
                    SimStep::LinkUp { a, b, faults }
                }
            })
            .collect();
        let plan = SimPlan { seed, brokers: BROKERS, links, steps };
        let stats = execute_plan(&plan).map_err(|e| {
            TestCaseError::fail(format!("seed {seed}: {e}\nsteps: {:?}", plan.steps))
        })?;
        prop_assert_eq!(stats.steps, plan.steps.len() as u64);
        // Two probe topics per quiescent point: the initial one and one
        // after every step.
        prop_assert_eq!(stats.probes, 2 * (stats.steps + 1));
    }
}
