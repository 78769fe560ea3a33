//! Plan execution: a mesh [`Cluster`] plus one click store per broker,
//! four oracles, and a trace minimizer.
//!
//! Each simulated broker is a real `Broker` with its `BrokerNode` in mesh
//! mode, driven by the [`Cluster`], plus a real [`DurableClickStore`]
//! persisting to its own on-disk directory — the exact state machines the
//! TCP federation drives, with every ambient effect (time, randomness,
//! sockets) replaced by the harness.
//! Killing a broker drops its in-memory state and optionally shears
//! bytes off its last WAL segment; restarting replays the WAL bytes
//! through the real recovery path and checks the result against the
//! acknowledged upload history.
//!
//! # Oracles
//!
//! Checked at every quiescent point (after each plan step settles and
//! stabilizes):
//!
//! 1. **exactly-once delivery** — a probe event published at a random
//!    live broker reaches every matching subscription on every live,
//!    reachable broker exactly once, and no one else, with duplication
//!    faults still active;
//! 2. **convergence** — every broker's fast path to every reachable
//!    subscription has exactly the graph's shortest-path length;
//! 3. **no dead state** — no retained route (fast path or alternate)
//!    crosses a dead link, names a dead broker, or targets an id no live
//!    broker advertises (a withdrawn filter's);
//! 4. **acknowledged prefix** — a restarted broker's recovered store is
//!    a batch-boundary prefix of its acknowledged uploads, and the whole
//!    history when the kill was clean.
//!
//! On failure, [`run_seed`] re-executes subsets of the plan's step list
//! (ddmin-style — every step is a tolerant no-op when its precondition
//! is gone, so any subset is a valid plan) and reports the seed plus the
//! minimized trace.

use crate::cluster::Cluster;
use crate::net::{LinkFaults, NetFaultStats};
use crate::plan::{SimPlan, SimStep};
use reef_attention::{Click, ClickBatch, DurableClickStore, PersistConfig};
use reef_pubsub::{ClientId, Event, Filter};
use reef_simweb::UserId;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// User id reserved for forged-cookie clicks; it must never appear in
/// any recovered store.
const FORGED_USER: UserId = UserId(u32::MAX);

/// WAL segment rotation threshold — tiny, so every run exercises
/// multi-segment recovery.
const SEGMENT_BYTES: u64 = 512;

/// Snapshot cadence in batches — small, so compaction runs too.
const SNAPSHOT_EVERY: u64 = 3;

/// Counters summarizing one successful simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Plan steps executed.
    pub steps: u64,
    /// Probe events published and verified exactly-once.
    pub probes: u64,
    /// Click batches acknowledged across all brokers.
    pub uploads: u64,
    /// Broker restarts that passed WAL recovery checks.
    pub restarts: u64,
    /// Link resets forced by drop faults (broken-connection model).
    pub link_resets: u64,
    /// What the fault injector did at the network layer.
    pub net: NetFaultStats,
}

/// A failed run: the seed to replay it and the minimized step trace
/// that still reproduces a failure.
#[derive(Debug, Clone)]
pub struct SimFailure {
    /// Seed that produced the failing plan.
    pub seed: u64,
    /// The first oracle violation, with step context.
    pub reason: String,
    /// ddmin-reduced step list that still fails under this seed.
    pub minimized: Vec<SimStep>,
}

impl std::fmt::Display for SimFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "simulation failed for seed {}", self.seed)?;
        writeln!(f, "  reason: {}", self.reason)?;
        writeln!(f, "  minimized trace ({} steps):", self.minimized.len())?;
        for step in &self.minimized {
            writeln!(f, "    {step:?}")?;
        }
        write!(
            f,
            "  replay: reef_sim::run_seed({}) or REEF_SIM_SEED={} cargo test -p reef-sim",
            self.seed, self.seed
        )
    }
}

/// Run the full derived plan for `seed`; on oracle failure, minimize
/// the step trace and return it with the seed.
///
/// # Errors
///
/// Returns [`SimFailure`] when any oracle is violated; the same seed
/// deterministically reproduces the identical failure.
pub fn run_seed(seed: u64) -> Result<SimStats, SimFailure> {
    let plan = SimPlan::from_seed(seed);
    match execute_plan(&plan) {
        Ok(stats) => Ok(stats),
        Err(reason) => Err(SimFailure {
            seed,
            reason,
            minimized: minimize(&plan),
        }),
    }
}

/// Execute one plan to completion, checking every oracle at every
/// quiescent point.
///
/// # Errors
///
/// Returns a human-readable description of the first oracle violation
/// (or I/O failure in the persistence layer), prefixed with the step
/// that triggered it.
pub fn execute_plan(plan: &SimPlan) -> Result<SimStats, String> {
    let mut world = World::new(plan)?;
    world.quiesce_and_check("initial convergence")?;
    for (idx, step) in plan.steps.iter().enumerate() {
        let ctx = format!("step {idx} {step:?}");
        world.cluster.set_lossy(true);
        world.apply(step).map_err(|e| format!("{ctx}: {e}"))?;
        world
            .quiesce_and_check(&ctx)
            .map_err(|e| format!("{ctx}: {e}"))?;
        world.stats.steps += 1;
    }
    world.stats.link_resets = world.cluster.link_resets();
    world.stats.net = world.cluster.fault_stats();
    Ok(world.stats)
}

/// ddmin-style reduction: repeatedly drop chunks of the step list as
/// long as some subset still fails. Any failure counts — the goal is
/// the smallest trace worth reading, not the identical symptom.
fn minimize(plan: &SimPlan) -> Vec<SimStep> {
    let fails = |steps: &[SimStep]| {
        let candidate = SimPlan {
            steps: steps.to_vec(),
            ..plan.clone()
        };
        execute_plan(&candidate).is_err()
    };
    let mut steps = plan.steps.clone();
    if fails(&[]) {
        return Vec::new();
    }
    let mut n = 2usize;
    while steps.len() >= 2 {
        let chunk = steps.len().div_ceil(n);
        let mut reduced = false;
        let mut start = 0;
        while start < steps.len() {
            let end = (start + chunk).min(steps.len());
            let mut candidate = steps[..start].to_vec();
            candidate.extend_from_slice(&steps[end..]);
            if fails(&candidate) {
                steps = candidate;
                n = n.saturating_sub(1).max(2);
                reduced = true;
                break;
            }
            start = end;
        }
        if !reduced {
            if chunk <= 1 {
                break;
            }
            n = (n * 2).min(steps.len());
        }
    }
    steps
}

/// One simulated host's durable half: the real click store and the
/// bookkeeping the oracles need. Its routing half lives in the
/// [`Cluster`].
struct Host {
    /// Live local subscribers: `(client, topic)`.
    subs: Vec<(ClientId, &'static str)>,
    /// The durable click store; `None` while crashed.
    store: Option<DurableClickStore>,
    /// Data directory holding this broker's WAL across kills.
    data_dir: PathBuf,
    /// Acknowledged upload batches (accepted clicks only), in order.
    acked: Vec<Vec<Click>>,
    /// Monotonic click tick, unique across this broker's uploads.
    next_tick: u64,
    /// Bytes sheared off the WAL tail by the last kill (0 = clean).
    last_kill_torn: u16,
}

/// The whole simulated federation: a mesh [`Cluster`] plus one
/// durable store per broker.
struct World {
    cluster: Cluster,
    hosts: Vec<Host>,
    stats: SimStats,
    base_dir: PathBuf,
}

impl Drop for World {
    fn drop(&mut self) {
        // Stores hold open files in `base_dir`; close them first.
        for host in &mut self.hosts {
            host.store = None;
        }
        let _ = fs::remove_dir_all(&self.base_dir);
    }
}

impl World {
    fn new(plan: &SimPlan) -> Result<World, String> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT_DIR: AtomicU64 = AtomicU64::new(0);
        let base_dir = std::env::temp_dir().join(format!(
            "reef-sim-{}-{}",
            std::process::id(),
            NEXT_DIR.fetch_add(1, Ordering::Relaxed)
        ));
        let mut world = World {
            cluster: Cluster::mesh(plan.seed),
            hosts: Vec::new(),
            stats: SimStats::default(),
            base_dir,
        };
        for i in 0..plan.brokers {
            let data_dir = world.base_dir.join(format!("broker-{i}"));
            let store = DurableClickStore::open(persist_config(&data_dir))
                .map_err(|e| format!("broker {i}: open store: {e}"))?;
            world.cluster.add_broker();
            world.hosts.push(Host {
                subs: Vec::new(),
                store: Some(store),
                data_dir,
                acked: Vec::new(),
                next_tick: 0,
                last_kill_torn: 0,
            });
            world.subscribe_locals(i);
        }
        let links: BTreeMap<(usize, usize), LinkFaults> = plan
            .links
            .iter()
            .map(|&(a, b, faults)| ((a.min(b), a.max(b)), faults))
            .collect();
        for ((a, b), faults) in links {
            world
                .cluster
                .link(a, b, faults)
                .map_err(|e| format!("plan names an {e}"))?;
        }
        Ok(world)
    }

    /// Issue this broker's standing subscriptions: every broker follows
    /// `probe`, even-indexed brokers also follow `alt` (so the two probe
    /// topics exercise full and partial fan-out).
    fn subscribe_locals(&mut self, i: usize) {
        let mut wanted: Vec<&'static str> = vec!["probe"];
        if i.is_multiple_of(2) {
            wanted.push("alt");
        }
        self.hosts[i].subs.clear();
        for topic in wanted {
            let client = self.cluster.attach(i);
            self.cluster.subscribe(client, Filter::topic(topic));
            self.hosts[i].subs.push((client, topic));
        }
    }

    /// Quiesce the cluster, then run the routing and delivery oracles —
    /// the full quiescent-point check.
    fn quiesce_and_check(&mut self, ctx: &str) -> Result<(), String> {
        self.cluster.quiesce()?;
        self.check_routing()
            .map_err(|e| format!("routing oracle after {ctx}: {e}"))?;
        self.probe()
            .map_err(|e| format!("delivery oracle after {ctx}: {e}"))
    }

    /// Oracles 2 and 3: every retained route is structurally live, and
    /// every fast path is exactly as long as the graph's shortest path
    /// to the subscription's owner — no more, no less, and complete.
    fn check_routing(&self) -> Result<(), String> {
        self.cluster.check_routes()
    }

    /// Oracle 1: publish one probe per topic from a random live broker
    /// and demand exactly-once delivery on every reachable matching
    /// subscription, zero everywhere else — with duplication and delay
    /// faults still live.
    fn probe(&mut self) -> Result<(), String> {
        let live: Vec<usize> = (0..self.hosts.len())
            .filter(|&i| self.cluster.alive(i))
            .collect();
        let Some(&publisher) = live
            .get(self.cluster.rng.below(live.len()))
            .or(live.first())
        else {
            return Ok(());
        };
        let reachable = self.cluster.distances(publisher);
        // Every live broker holds a `probe` subscriber; it publishes.
        let (sender, _) = self.hosts[publisher].subs[0];
        for topic in ["probe", "alt"] {
            let id = self
                .cluster
                .publish(sender, Event::topical(topic, "sim probe"));
            self.cluster.run_until_idle()?;
            // `(broker, client, event id) → count`, delivered vs expected.
            let mut delivered: BTreeMap<(usize, u64, u64), u64> = BTreeMap::new();
            let mut expected: BTreeMap<(usize, u64, u64), u64> = BTreeMap::new();
            for &i in &live {
                for &(client, sub_topic) in &self.hosts[i].subs {
                    for event in self.cluster.take_delivered(client) {
                        *delivered.entry((i, client.0, event.id.0)).or_insert(0) += 1;
                    }
                    if sub_topic == topic && reachable.contains_key(&i) {
                        expected.insert((i, client.0, id.0), 1);
                    }
                }
            }
            if delivered != expected {
                return Err(format!(
                    "probe {id:?} on topic {topic:?} from broker {publisher}: \
                     deliveries {delivered:?} != expected {expected:?}"
                ));
            }
            self.stats.probes += 1;
        }
        Ok(())
    }

    /// Apply one plan step. Every step tolerates a world where its
    /// precondition is gone (restart of a live broker, downing a dead
    /// link…) so the minimizer can replay arbitrary subsets.
    fn apply(&mut self, step: &SimStep) -> Result<(), String> {
        match step {
            SimStep::LinkDown { a, b } => self.cluster.unlink(*a, *b),
            SimStep::LinkUp { a, b, faults } => self.cluster.link(*a, *b, *faults)?,
            SimStep::Partition { group } => self.cluster.partition(group.clone()),
            SimStep::Heal => self.cluster.heal(),
            SimStep::Kill { broker, torn } => self.kill(*broker, *torn)?,
            SimStep::Restart { broker } => self.restart(*broker)?,
            SimStep::ClickUpload { broker, forged } => self.upload(*broker, *forged)?,
        }
        Ok(())
    }

    /// Crash a broker: neighbors observe the links die, volatile state
    /// vanishes, and `torn` bytes are sheared off the WAL tail (a crash
    /// mid-write, past what the flush-then-ack discipline covers).
    fn kill(&mut self, broker: usize, torn: u16) -> Result<(), String> {
        if !self.cluster.alive(broker) {
            return Ok(());
        }
        self.cluster.crash(broker);
        let host = &mut self.hosts[broker];
        host.store = None; // closes the WAL file handles
        host.subs.clear();
        host.last_kill_torn = torn;
        if torn > 0 {
            tear_wal_tail(&host.data_dir, torn)
                .map_err(|e| format!("broker {broker}: tearing WAL tail: {e}"))?;
        }
        Ok(())
    }

    /// Restart a crashed broker: run real WAL recovery over whatever
    /// bytes the kill left, check oracle 4, rejoin the mesh, and
    /// re-issue local subscriptions under fresh ids.
    fn restart(&mut self, broker: usize) -> Result<(), String> {
        if self.cluster.alive(broker) {
            return Ok(());
        }
        let host = &mut self.hosts[broker];
        let store = DurableClickStore::open(persist_config(&host.data_dir))
            .map_err(|e| format!("broker {broker}: recovery: {e}"))?;
        let recovered = store.clicks_of(UserId(broker as u32));
        if !store.clicks_of(FORGED_USER).is_empty() {
            return Err(format!(
                "broker {broker}: recovery resurrected forged-cookie clicks"
            ));
        }
        let mut consumed = 0usize;
        let mut batches_kept = 0usize;
        for batch in &host.acked {
            let end = consumed + batch.len();
            if recovered.len() >= end && recovered[consumed..end] == batch[..] {
                consumed = end;
                batches_kept += 1;
            } else {
                break;
            }
        }
        if consumed != recovered.len() {
            return Err(format!(
                "broker {broker}: recovered store is not a batch prefix of the acked history \
                 ({} recovered clicks, {} match acked batches)",
                recovered.len(),
                consumed
            ));
        }
        if host.last_kill_torn == 0 && batches_kept != host.acked.len() {
            return Err(format!(
                "broker {broker}: clean kill lost acked batches ({batches_kept} of {} recovered)",
                host.acked.len()
            ));
        }
        host.acked.truncate(batches_kept);
        host.store = Some(store);
        self.stats.restarts += 1;
        self.cluster.restart(broker);
        self.subscribe_locals(broker);
        Ok(())
    }

    /// Upload one click batch to a broker's durable store; when
    /// `forged` is set the batch carries one wrong-cookie click the
    /// store must reject without poisoning the rest.
    fn upload(&mut self, broker: usize, forged: bool) -> Result<(), String> {
        if self.hosts[broker].store.is_none() {
            return Ok(());
        }
        let count = 1 + self.cluster.rng.below(3);
        let host = &mut self.hosts[broker];
        let user = UserId(broker as u32);
        let valid: Vec<Click> = (0..count)
            .map(|_| {
                let tick = host.next_tick;
                host.next_tick += 1;
                Click {
                    user,
                    day: (tick / 10) as u32,
                    tick,
                    url: format!("http://site{broker}.example/p{tick}"),
                    referrer: tick
                        .is_multiple_of(2)
                        .then(|| format!("http://ref{broker}.example/")),
                }
            })
            .collect();
        let mut clicks = valid.clone();
        if forged {
            clicks.push(Click {
                user: FORGED_USER,
                day: 0,
                tick: host.next_tick,
                url: "http://forged.example/".into(),
                referrer: None,
            });
        }
        let receipt = host
            .store
            .as_mut()
            .expect("checked above")
            .ingest_upload(ClickBatch { user, clicks })
            .map_err(|e| format!("broker {broker}: upload: {e}"))?;
        if receipt.accepted != valid.len() as u64 || receipt.rejected != u64::from(forged) {
            return Err(format!(
                "broker {broker}: upload receipt {receipt:?} does not match the batch \
                 ({} valid, forged={forged})",
                valid.len()
            ));
        }
        host.acked.push(valid);
        self.stats.uploads += 1;
        Ok(())
    }
}

fn persist_config(dir: &Path) -> PersistConfig {
    PersistConfig {
        dir: dir.to_path_buf(),
        segment_bytes: SEGMENT_BYTES,
        snapshot_every: SNAPSHOT_EVERY,
    }
}

/// Shear `torn` bytes off the end of the newest WAL segment, simulating
/// a crash that outran the OS flush.
fn tear_wal_tail(dir: &Path, torn: u16) -> std::io::Result<()> {
    let mut segments: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "log"))
        .collect();
    segments.sort();
    if let Some(path) = segments.pop() {
        let len = fs::metadata(&path)?.len();
        fs::OpenOptions::new()
            .write(true)
            .open(&path)?
            .set_len(len.saturating_sub(u64::from(torn)))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_ring_converges_and_delivers() {
        let plan = SimPlan {
            seed: 0,
            brokers: 3,
            links: vec![
                (0, 1, LinkFaults::default()),
                (1, 2, LinkFaults::default()),
                (0, 2, LinkFaults::default()),
            ],
            steps: vec![
                SimStep::ClickUpload {
                    broker: 1,
                    forged: false,
                },
                SimStep::LinkDown { a: 0, b: 1 },
                SimStep::LinkUp {
                    a: 0,
                    b: 1,
                    faults: LinkFaults::default(),
                },
            ],
        };
        let stats = execute_plan(&plan).expect("clean plan passes all oracles");
        assert_eq!(stats.steps, 3);
        assert_eq!(stats.uploads, 1);
        assert!(stats.probes >= 8, "initial + one per step, two topics");
    }

    #[test]
    fn kill_restart_recovers_acked_uploads() {
        let plan = SimPlan {
            seed: 0,
            brokers: 3,
            links: vec![(0, 1, LinkFaults::default()), (1, 2, LinkFaults::default())],
            steps: vec![
                SimStep::ClickUpload {
                    broker: 2,
                    forged: true,
                },
                SimStep::ClickUpload {
                    broker: 2,
                    forged: false,
                },
                SimStep::Kill { broker: 2, torn: 0 },
                SimStep::Restart { broker: 2 },
                SimStep::ClickUpload {
                    broker: 2,
                    forged: false,
                },
            ],
        };
        let stats = execute_plan(&plan).expect("kill/restart passes oracles");
        assert_eq!(stats.restarts, 1);
        assert_eq!(stats.uploads, 3);
    }

    #[test]
    fn seeded_runs_are_replayable() {
        for seed in [3, 17] {
            let a = run_seed(seed).expect("seed passes");
            let b = run_seed(seed).expect("same seed still passes");
            assert_eq!(a, b, "seed {seed} must replay identically");
        }
    }
}
