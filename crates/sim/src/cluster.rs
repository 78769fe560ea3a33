//! The step-driven federation: real brokers and [`BrokerNode`]s over a
//! [`FaultyNet`].
//!
//! A [`Cluster`] is the routing half of a simulated federation and the
//! only in-process driver of the routing core. Each simulated broker is a
//! [`Broker`] paired with its routing core by [`RoutedBroker`] — the
//! composition `reefd` runs — so subscriptions live in the broker's index,
//! the core advertises its distinct filters, and clients receive events
//! on their broker subscriber handles. The cluster owns the brokers, the
//! link topology with its connection epochs, the simulated network, and
//! the clients attached to each broker; every call is one step — link,
//! unlink, crash, restart, subscribe, publish — and
//! [`Cluster::run_until_idle`] carries the messages that step caused
//! until the network is quiet. Proptests and scenarios drive it
//! directly; [`crate::execute_plan`]'s `World` drives it from a
//! [`crate::SimPlan`] and adds click stores and oracles on top.
//!
//! Brokers are either **tree** nodes ([`BrokerNode::new`], the daemon's
//! default, optionally covering-pruned), where [`Cluster::link`] refuses
//! a link that would close a cycle, or **mesh** nodes
//! ([`BrokerNode::new_mesh`]) that route by path vector and accept any
//! topology. Each link carries a [`LinkFaults`] profile: a clean link is
//! [`LinkFaults::default`], and a fixed latency is a profile with
//! `delay_min == delay_max`.
//!
//! A dropped message is a broken connection ([`FaultyNet::take_tripped`]):
//! [`Cluster::quiesce`] resets each tripped link through the real
//! `remove_neighbor` / `add_neighbor` path, the way the TCP federation
//! redials, then refreshes until routing tables stop moving.

use crate::net::{FaultyNet, LinkFaults, NetFaultStats};
use crate::rng::SimRng;
use reef_pubsub::{
    Broker, BrokerNode, ClientId, Event, EventId, Filter, GlobalSubId, NodeId, PeerMsg, PeerSink,
    PublishedEvent, RoutedBroker, SubscriberHandle, SubscriberId, SubscriptionId,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

/// Delivered-message budget per settle phase; exceeding it means the
/// protocol is flooding (itself an oracle failure, not a hang).
const SETTLE_BUDGET: u64 = 200_000;

/// How the cluster's brokers route.
#[derive(Debug, Clone, Copy)]
enum Mode {
    /// Reverse-path routing over a tree, optionally covering-pruned.
    Tree { covering: bool },
    /// Path-vector routing; cycles allowed.
    Mesh,
}

/// A link's administrative and connection state.
#[derive(Debug)]
struct LinkState {
    /// Administratively up ([`Cluster::unlink`] flips this off).
    up: bool,
    /// Fault profile, latency included.
    faults: LinkFaults,
    /// Live connection epoch: `(handle at a for b, handle at b for a)`
    /// for the normalized key `(a, b)`; `None` while disconnected.
    conn: Option<(NodeId, NodeId)>,
}

/// Messages a broker's routing core produced during the current step,
/// carried into the network when the step ends.
#[derive(Debug, Default)]
struct Outbox(Mutex<Vec<(NodeId, PeerMsg)>>);

impl PeerSink for Outbox {
    fn send(&self, messages: Vec<(NodeId, PeerMsg)>) {
        self.0.lock().expect("outbox lock").extend(messages);
    }
}

/// One broker: the broker with its routing core, and its link handles.
#[derive(Debug)]
struct Node {
    /// The broker and its routing core; `None` while crashed.
    core: Option<RoutedBroker>,
    outbox: Arc<Outbox>,
    /// This broker's link handles → peer broker index.
    peer_of: BTreeMap<NodeId, usize>,
}

/// A client attached to one broker: a subscriber of its broker.
#[derive(Debug)]
struct Client {
    broker: usize,
    subscriber: SubscriberId,
    inbox: SubscriberHandle,
}

/// A simulated federation of broker cores, driven one step at a time.
///
/// Brokers are indices `0..n` in the order [`Cluster::add_broker`]
/// returned them; a mesh broker's federation-wide id is its index. Each
/// broker incarnation — a restart is a new one — advertises and publishes
/// under its own id range, as a restarted daemon does.
///
/// # Examples
///
/// ```
/// use reef_pubsub::{Event, Filter};
/// use reef_sim::{Cluster, LinkFaults};
///
/// let mut cluster = Cluster::tree(true, 0);
/// let (b0, b1) = (cluster.add_broker(), cluster.add_broker());
/// cluster.link(b0, b1, LinkFaults::default())?;
/// let alice = cluster.attach(b0);
/// let bob = cluster.attach(b1);
/// cluster.subscribe(bob, Filter::topic("news"));
/// cluster.run_until_idle()?;
/// cluster.publish(alice, Event::topical("news", "hi"));
/// cluster.run_until_idle()?;
/// assert_eq!(cluster.take_delivered(bob).len(), 1);
/// # Ok::<(), String>(())
/// ```
#[derive(Debug)]
pub struct Cluster {
    /// The run's one randomness source: fault draws here, and whatever
    /// the driver on top draws.
    pub(crate) rng: SimRng,
    net: FaultyNet,
    mode: Mode,
    nodes: Vec<Node>,
    /// Normalized `(a, b)` with `a < b` → link state.
    topo: BTreeMap<(usize, usize), LinkState>,
    clients: BTreeMap<ClientId, Client>,
    next_handle: u32,
    next_client: u64,
    /// Broker incarnations started so far: the high bits of their
    /// advertisement and event ids.
    incarnations: u64,
    link_resets: u64,
}

impl Cluster {
    /// An empty cluster of tree-mode brokers; `covering` enables
    /// covering-based advertisement pruning. `seed` drives the fault
    /// draws.
    pub fn tree(covering: bool, seed: u64) -> Cluster {
        Cluster::new(Mode::Tree { covering }, seed)
    }

    /// An empty cluster of mesh-mode brokers. `seed` drives the fault
    /// draws.
    pub fn mesh(seed: u64) -> Cluster {
        Cluster::new(Mode::Mesh, seed)
    }

    fn new(mode: Mode, seed: u64) -> Cluster {
        Cluster {
            rng: SimRng::new(seed),
            net: FaultyNet::new(),
            mode,
            nodes: Vec::new(),
            topo: BTreeMap::new(),
            clients: BTreeMap::new(),
            next_handle: 0,
            next_client: 0,
            incarnations: 0,
            link_resets: 0,
        }
    }

    /// A new incarnation of `broker`: an empty broker whose routing core
    /// sends into `outbox`.
    fn fresh_core(&mut self, broker: usize, outbox: &Arc<Outbox>) -> RoutedBroker {
        let node = match self.mode {
            Mode::Tree { covering } => BrokerNode::new(covering),
            Mode::Mesh => BrokerNode::new_mesh(broker as u32),
        };
        let ids = self.incarnations << 32;
        self.incarnations += 1;
        let local = Arc::new(Broker::new());
        local.namespace_event_ids(ids);
        RoutedBroker::new(local, node, ids, Arc::clone(outbox) as Arc<dyn PeerSink>)
    }

    /// Add a live broker with no links and return its index.
    pub fn add_broker(&mut self) -> usize {
        let broker = self.nodes.len();
        let outbox = Arc::new(Outbox::default());
        let core = self.fresh_core(broker, &outbox);
        self.nodes.push(Node {
            core: Some(core),
            outbox,
            peer_of: BTreeMap::new(),
        });
        broker
    }

    /// Number of brokers ever added, crashed ones included.
    pub fn broker_count(&self) -> usize {
        self.nodes.len()
    }

    /// Whether `broker` is running (not crashed).
    pub fn alive(&self, broker: usize) -> bool {
        self.nodes[broker].core.is_some()
    }

    /// Read the routing core of `broker`; `None` while it is crashed.
    pub fn inspect<R>(&self, broker: usize, f: impl FnOnce(&BrokerNode) -> R) -> Option<R> {
        self.nodes[broker].core.as_ref().map(|core| core.inspect(f))
    }

    /// Add the link `a`–`b` with fault profile `faults`, or bring an
    /// existing one back up under that profile, and connect it unless a
    /// partition or a crashed end prevents it. The handshake's
    /// advertisements are queued; [`Cluster::run_until_idle`] carries
    /// them.
    ///
    /// # Errors
    ///
    /// When `a` or `b` is not a broker, when `a == b`, or, in tree mode,
    /// when the new link would close a cycle (reverse-path routing must
    /// stay duplicate-free).
    pub fn link(&mut self, a: usize, b: usize, faults: LinkFaults) -> Result<(), String> {
        if a == b || a.max(b) >= self.nodes.len() {
            return Err(format!("invalid link ({a}, {b})"));
        }
        let key = (a.min(b), a.max(b));
        if matches!(self.mode, Mode::Tree { .. })
            && !self.topo.contains_key(&key)
            && self.tree_path_exists(a, b)
        {
            return Err(format!("link ({a}, {b}) would close a cycle in the tree"));
        }
        let link = self.topo.entry(key).or_insert(LinkState {
            up: true,
            faults,
            conn: None,
        });
        link.up = true;
        link.faults = faults;
        self.connect(a, b);
        Ok(())
    }

    /// Whether `a` and `b` are already joined by declared links, up or
    /// down: a downed tree link comes back, so it still counts.
    fn tree_path_exists(&self, a: usize, b: usize) -> bool {
        let mut seen = BTreeSet::from([a]);
        let mut frontier = vec![a];
        while let Some(n) = frontier.pop() {
            for &(x, y) in self.topo.keys() {
                let next = if x == n {
                    y
                } else if y == n {
                    x
                } else {
                    continue;
                };
                if next == b {
                    return true;
                }
                if seen.insert(next) {
                    frontier.push(next);
                }
            }
        }
        false
    }

    /// Take the link `a`–`b` down (a keepalive teardown: both ends
    /// withdraw the routes learned through it at once, and messages in
    /// flight on it are lost). A no-op when there is no such link.
    pub fn unlink(&mut self, a: usize, b: usize) {
        if let Some(link) = self.topo.get_mut(&(a.min(b), a.max(b))) {
            link.up = false;
        }
        self.disconnect(a, b, None);
    }

    /// Partition the network: `group` vs everyone else. Links crossing
    /// the boundary are torn down as keepalives would tear them down.
    pub(crate) fn partition(&mut self, group: BTreeSet<usize>) {
        self.net.partition(group);
        let keys: Vec<(usize, usize)> = self.topo.keys().copied().collect();
        for (a, b) in keys {
            if self.net.partitioned(a, b) {
                self.disconnect(a, b, None);
            }
        }
    }

    /// Heal the partition and reconnect every link that is up.
    pub(crate) fn heal(&mut self) {
        self.net.heal();
        let keys: Vec<(usize, usize)> = self.topo.keys().copied().collect();
        for (a, b) in keys {
            self.connect(a, b);
        }
    }

    /// Crash `broker`: its neighbors see its links die, its routing
    /// state is gone, and its clients (with their subscriptions and
    /// mailboxes) vanish with it. A no-op on a crashed broker.
    pub fn crash(&mut self, broker: usize) {
        if !self.alive(broker) {
            return;
        }
        let keys: Vec<(usize, usize)> = self.topo.keys().copied().collect();
        for (a, b) in keys {
            if a == broker || b == broker {
                self.disconnect(a, b, Some(broker));
            }
        }
        self.nodes[broker].core = None;
        self.clients.retain(|_, c| c.broker != broker);
    }

    /// Restart a crashed `broker` empty and rejoin it over every link
    /// that is up. A no-op on a live broker.
    pub fn restart(&mut self, broker: usize) {
        if self.alive(broker) {
            return;
        }
        let outbox = Arc::clone(&self.nodes[broker].outbox);
        self.nodes[broker].core = Some(self.fresh_core(broker, &outbox));
        let keys: Vec<(usize, usize)> = self.topo.keys().copied().collect();
        for (a, b) in keys {
            if a == broker || b == broker {
                self.connect(a, b);
            }
        }
    }

    /// Attach a new client to a live `broker`.
    ///
    /// # Panics
    ///
    /// When `broker` is crashed.
    pub fn attach(&mut self, broker: usize) -> ClientId {
        assert!(self.alive(broker), "attach to crashed broker {broker}");
        let (subscriber, inbox) = self.routed(broker).broker().register();
        let id = ClientId(self.next_client);
        self.next_client += 1;
        self.clients.insert(
            id,
            Client {
                broker,
                subscriber,
                inbox,
            },
        );
        id
    }

    fn client(&self, client: ClientId) -> &Client {
        self.clients
            .get(&client)
            .unwrap_or_else(|| panic!("{client} is not attached"))
    }

    /// Place a subscription for `client` at its broker; the routing core
    /// queues an advertisement if the filter is new there.
    ///
    /// # Panics
    ///
    /// When `client` is not attached (never was, or its broker crashed).
    pub fn subscribe(
        &mut self,
        client: ClientId,
        filter: impl Into<Arc<Filter>>,
    ) -> SubscriptionId {
        let Client {
            broker, subscriber, ..
        } = *self.client(client);
        let sub = self
            .routed(broker)
            .broker()
            .subscribe(subscriber, filter)
            .expect("attached clients are registered");
        self.flush(broker);
        sub
    }

    /// Withdraw `client`'s subscription `sub`; the routing core queues a
    /// withdrawal if it held the filter's last owner. A no-op when the
    /// client is gone or does not hold `sub`.
    pub fn unsubscribe(&mut self, client: ClientId, sub: SubscriptionId) {
        let Some(&Client { broker, .. }) = self.clients.get(&client) else {
            return;
        };
        let _ = self.routed(broker).broker().unsubscribe(sub);
        self.flush(broker);
    }

    /// Publish `event` from `client`. Subscribers on the client's own
    /// broker receive it at once; remote ones after
    /// [`Cluster::run_until_idle`].
    ///
    /// # Panics
    ///
    /// When `client` is not attached.
    pub fn publish(&mut self, client: ClientId, event: Event) -> EventId {
        let broker = self.client(client).broker;
        let outcome = self.routed(broker).publish(event).expect("publish");
        self.flush(broker);
        outcome.id
    }

    /// Take every event delivered to `client` so far: one entry per
    /// matching subscription, as the broker counts them. Empty for a
    /// client that is not attached.
    pub fn take_delivered(&mut self, client: ClientId) -> Vec<PublishedEvent> {
        self.clients.get(&client).map_or_else(Vec::new, |c| {
            c.inbox
                .drain()
                .into_iter()
                .map(Arc::unwrap_or_clone)
                .collect()
        })
    }

    fn routed(&self, broker: usize) -> &RoutedBroker {
        self.nodes[broker]
            .core
            .as_ref()
            .expect("clients live on live brokers")
    }

    /// Carry what `broker`'s routing core produced into the network.
    fn flush(&mut self, broker: usize) {
        let messages =
            std::mem::take(&mut *self.nodes[broker].outbox.0.lock().expect("outbox lock"));
        self.route(broker, messages);
    }

    /// Feed a broker's outgoing messages into the network, resolving
    /// each link handle to the peer, the link's fault profile, and the
    /// receiver-side handle of the current connection epoch.
    fn route(&mut self, src: usize, msgs: Vec<(NodeId, PeerMsg)>) {
        for (handle, msg) in msgs {
            let Some(&dst) = self.nodes[src].peer_of.get(&handle) else {
                continue;
            };
            let key = (src.min(dst), src.max(dst));
            let Some(link) = self.topo.get(&key) else {
                continue;
            };
            let Some((ha, hb)) = link.conn else {
                continue;
            };
            let recv_handle = if src == key.0 { hb } else { ha };
            self.net
                .send(src, dst, recv_handle, msg, link.faults, &mut self.rng);
        }
    }

    /// Deliver queued messages through the real `BrokerNode::handle`,
    /// routing every follow-up, until the network is idle. Returns the
    /// number of messages handled.
    ///
    /// # Errors
    ///
    /// When more messages are handled than a settle phase's budget
    /// allows: the protocol is flooding.
    pub fn run_until_idle(&mut self) -> Result<u64, String> {
        for handled in 0..SETTLE_BUDGET {
            let Some(d) = self.net.pop() else {
                return Ok(handled);
            };
            let node = &self.nodes[d.dst];
            let Some(core) = node.core.as_ref() else {
                continue; // delivered to a crashed broker: lost, as on a dead socket
            };
            if node.peer_of.get(&d.handle) != Some(&d.src) {
                continue; // stale connection epoch: the link was reset in flight
            }
            core.handle(d.handle, d.msg);
            self.flush(d.dst);
        }
        Err(format!(
            "settle exceeded {SETTLE_BUDGET} deliveries: the protocol is flooding"
        ))
    }

    /// Queue one periodic refresh round: every live broker re-sends its
    /// advertisements (a no-op on tree brokers, whose diffs are
    /// lossless by construction).
    pub fn refresh_all(&mut self) {
        for i in 0..self.nodes.len() {
            self.step(i, BrokerNode::refresh);
        }
    }

    /// Run one routing-core step at `broker`, if it is alive, and carry
    /// its messages into the network.
    fn step(&mut self, broker: usize, f: impl FnOnce(&mut BrokerNode) -> Vec<(NodeId, PeerMsg)>) {
        if let Some(core) = &self.nodes[broker].core {
            core.step(f);
            self.flush(broker);
        }
    }

    /// Enable or disable drop faults. Duplication and delay always
    /// apply. [`Cluster::quiesce`] turns drops off.
    pub fn set_lossy(&mut self, lossy: bool) {
        self.net.set_lossy(lossy);
    }

    /// Bring the cluster to a quiescent, converged state: settle, reset
    /// every link a drop broke, then refresh until routing tables reach
    /// a fixpoint. Leaves drops off — the fairness assumption under
    /// which the oracles check the legal state.
    ///
    /// # Errors
    ///
    /// When the protocol floods, the reset cascade does not end, or the
    /// tables never stop moving.
    pub fn quiesce(&mut self) -> Result<(), String> {
        self.run_until_idle()?;
        self.reset_tripped()?;
        self.stabilize()
    }

    /// Establish the connection on link `(a, b)` if it is up, both ends
    /// are alive, and no partition separates them. Idempotent.
    fn connect(&mut self, a: usize, b: usize) {
        let key = (a.min(b), a.max(b));
        if self.net.partitioned(key.0, key.1) || !self.alive(key.0) || !self.alive(key.1) {
            return;
        }
        let Some(link) = self.topo.get_mut(&key) else {
            return;
        };
        if !link.up || link.conn.is_some() {
            return;
        }
        let ha = NodeId(self.next_handle);
        let hb = NodeId(self.next_handle + 1);
        self.next_handle += 2;
        link.conn = Some((ha, hb));
        self.nodes[key.0].peer_of.insert(ha, key.1);
        self.nodes[key.1].peer_of.insert(hb, key.0);
        let mode = self.mode;
        for (idx, handle, peer) in [(key.0, ha, key.1), (key.1, hb, key.0)] {
            self.step(idx, |core| match mode {
                Mode::Tree { .. } => core.add_neighbor(handle),
                Mode::Mesh => core.add_mesh_neighbor(handle, peer as u32),
            });
        }
    }

    /// Tear down the connection on link `(a, b)`, if any. Both
    /// surviving ends run the real `remove_neighbor` teardown (route
    /// withdrawal + re-advertisement); a broker named in `dying` is
    /// crashing and sends nothing.
    fn disconnect(&mut self, a: usize, b: usize, dying: Option<usize>) {
        let key = (a.min(b), a.max(b));
        let Some(link) = self.topo.get_mut(&key) else {
            return;
        };
        let Some((ha, hb)) = link.conn.take() else {
            return;
        };
        self.nodes[key.0].peer_of.remove(&ha);
        self.nodes[key.1].peer_of.remove(&hb);
        for (idx, handle) in [(key.0, ha), (key.1, hb)] {
            if dying != Some(idx) {
                self.step(idx, |core| core.remove_neighbor(handle));
            }
        }
    }

    /// Reset every link that dropped a message — the broken-connection
    /// model: a drop is a dead TCP connection, and reconnecting through
    /// the real teardown/handshake path regenerates the state the drop
    /// destroyed. Resets can trip further links while drops stay
    /// enabled, so after a bounded number of lossy rounds the cascade is
    /// finished loss-free (the fairness assumption).
    fn reset_tripped(&mut self) -> Result<(), String> {
        for round in 0..16 {
            if round == 12 {
                self.net.set_lossy(false);
            }
            let tripped = self.net.take_tripped();
            if tripped.is_empty() {
                return Ok(());
            }
            for (a, b) in tripped {
                self.link_resets += 1;
                self.disconnect(a, b, None);
                self.connect(a, b);
            }
            self.run_until_idle()?;
        }
        Err("link-reset cascade failed to terminate".into())
    }

    /// Drive refresh rounds until routing tables reach a fixpoint (two
    /// identical consecutive quiescent snapshots), loss-free.
    /// Duplication and delay faults stay on.
    fn stabilize(&mut self) -> Result<(), String> {
        self.net.set_lossy(false);
        type RouteSnapshot = Vec<Vec<(GlobalSubId, NodeId, Vec<u32>)>>;
        let mut prev: Option<RouteSnapshot> = None;
        for _ in 0..(2 * self.nodes.len() + 4) {
            self.refresh_all();
            self.run_until_idle()?;
            let snap: RouteSnapshot = self
                .nodes
                .iter()
                .map(|n| {
                    n.core
                        .as_ref()
                        .map_or_else(Vec::new, |core| core.inspect(BrokerNode::mesh_route_table))
                })
                .collect();
            if prev.as_ref() == Some(&snap) {
                return Ok(());
            }
            prev = Some(snap);
        }
        Err("routing tables did not reach a fixpoint within the refresh bound".into())
    }

    /// Hop distances from `start` over live, connected links; empty when
    /// `start` is crashed. Its keys are the brokers `start` can reach.
    pub fn distances(&self, start: usize) -> BTreeMap<usize, usize> {
        let mut dist = BTreeMap::new();
        if !self.alive(start) {
            return dist;
        }
        dist.insert(start, 0);
        let mut frontier = vec![start];
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for &n in &frontier {
                for (&(a, b), link) in &self.topo {
                    if link.conn.is_none() || (a != n && b != n) {
                        continue;
                    }
                    let other = if a == n { b } else { a };
                    if self.alive(other) && !dist.contains_key(&other) {
                        dist.insert(other, dist[&n] + 1);
                        next.push(other);
                    }
                }
            }
            frontier = next;
        }
        dist
    }

    /// Current virtual time in milliseconds.
    pub fn now(&self) -> u64 {
        self.net.now()
    }

    /// What the fault injector did so far.
    pub fn fault_stats(&self) -> NetFaultStats {
        self.net.stats()
    }

    /// Links reset because a drop broke them.
    pub fn link_resets(&self) -> u64 {
        self.link_resets
    }

    /// Routing-table entries held by `broker` (distinct local filters
    /// plus neighbor advertisements); 0 while it is crashed.
    pub fn routing_entries_at(&self, broker: usize) -> usize {
        self.inspect(broker, BrokerNode::routing_entries)
            .unwrap_or(0)
    }

    /// The routing oracles of a mesh cluster at a quiescent point (a tree
    /// cluster holds no path-vector routes and passes): every
    /// retained route (fast path or alternate) arrives on a live link,
    /// crosses only live brokers and names an id its origin broker still
    /// advertises; and every broker's fast path to each advertised id of
    /// another broker is exactly as long as the graph's shortest path to
    /// it — no more, no less, and present whenever that broker is
    /// reachable.
    ///
    /// # Errors
    ///
    /// The first violation found.
    pub fn check_routes(&self) -> Result<(), String> {
        if !matches!(self.mode, Mode::Mesh) {
            return Ok(());
        }
        let mut owners: BTreeMap<GlobalSubId, usize> = BTreeMap::new();
        for b in 0..self.nodes.len() {
            let subs: Vec<GlobalSubId> = self
                .inspect(b, |n| n.local_subs().collect())
                .unwrap_or_default();
            owners.extend(subs.into_iter().map(|sub| (sub, b)));
        }
        for i in 0..self.nodes.len() {
            let Some((table, best)) =
                self.inspect(i, |n| (n.mesh_route_table(), n.mesh_best_routes()))
            else {
                continue;
            };
            let dist = self.distances(i);
            for (sub, link, path) in table {
                if !self.nodes[i].peer_of.contains_key(&link) {
                    return Err(format!(
                        "broker {i} retains a route for {sub:?} via dead link {link:?}"
                    ));
                }
                let Some(&owner) = owners.get(&sub) else {
                    return Err(format!(
                        "broker {i} retains a route for withdrawn subscription {sub:?} (path {path:?})"
                    ));
                };
                if path.first() != Some(&(owner as u32)) {
                    return Err(format!(
                        "broker {i}: route for {sub:?} has path {path:?}, expected origin {owner}"
                    ));
                }
                let dead =
                    |&&hop: &&u32| hop as usize >= self.nodes.len() || !self.alive(hop as usize);
                if let Some(hop) = path.iter().find(dead) {
                    return Err(format!(
                        "broker {i}: route for {sub:?} crosses dead broker {hop} (path {path:?})"
                    ));
                }
            }
            let best: BTreeMap<GlobalSubId, Vec<u32>> =
                best.into_iter().map(|(sub, _, path)| (sub, path)).collect();
            for (&sub, &owner) in owners.iter().filter(|(_, &owner)| owner != i) {
                match (best.get(&sub), dist.get(&owner)) {
                    (Some(path), Some(&d)) if path.len() != d => {
                        return Err(format!(
                            "broker {i}: fast path to {sub:?} (owner {owner}) is {path:?}, \
                             expected length {d}"
                        ));
                    }
                    (Some(path), None) => {
                        return Err(format!(
                            "broker {i}: retains fast path {path:?} to {sub:?} on unreachable \
                             broker {owner}"
                        ));
                    }
                    (None, Some(_)) => {
                        return Err(format!(
                            "broker {i}: no route to {sub:?} on reachable broker {owner}"
                        ));
                    }
                    _ => {}
                }
            }
        }
        Ok(())
    }

    /// `gauge` summed across live brokers' routing cores.
    fn sum_over_cores(&self, gauge: fn(&BrokerNode) -> usize) -> usize {
        (0..self.nodes.len())
            .filter_map(|b| self.inspect(b, gauge))
            .sum()
    }

    /// Advertisements held toward neighbors, summed across live brokers.
    pub fn advertisement_count(&self) -> usize {
        self.sum_over_cores(BrokerNode::advertisement_count)
    }

    /// Failover routes held beyond fast paths, summed across live
    /// brokers (always 0 in tree mode).
    pub fn mesh_alternates(&self) -> usize {
        self.sum_over_cores(BrokerNode::mesh_alternates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reef_pubsub::Op;

    /// A link with a fixed one-way latency and no faults.
    fn latency(ms: u64) -> LinkFaults {
        LinkFaults {
            delay_min: ms,
            delay_max: ms,
            ..LinkFaults::default()
        }
    }

    fn settle(cl: &mut Cluster) -> u64 {
        cl.run_until_idle().expect("settles")
    }

    fn routing_entries(cl: &Cluster) -> usize {
        (0..cl.broker_count())
            .map(|b| cl.routing_entries_at(b))
            .sum()
    }

    /// A 3-broker tree chain b0 - b1 - b2 with one client per broker.
    fn chain() -> (Cluster, Vec<ClientId>) {
        let mut cl = Cluster::tree(true, 0);
        let b: Vec<usize> = (0..3).map(|_| cl.add_broker()).collect();
        cl.link(b[0], b[1], latency(5)).unwrap();
        cl.link(b[1], b[2], latency(5)).unwrap();
        let clients = b.iter().map(|&b| cl.attach(b)).collect();
        (cl, clients)
    }

    #[test]
    fn event_crosses_the_tree_to_remote_subscriber() {
        let (mut cl, c) = chain();
        cl.subscribe(c[2], Filter::topic("t"));
        settle(&mut cl);
        cl.publish(c[0], Event::topical("t", "x"));
        settle(&mut cl);
        assert_eq!(cl.take_delivered(c[2]).len(), 1);
        assert!(cl.take_delivered(c[0]).is_empty());
        assert!(cl.take_delivered(c[1]).is_empty());
    }

    #[test]
    fn local_delivery_is_immediate() {
        let (mut cl, c) = chain();
        cl.subscribe(c[0], Filter::topic("t"));
        cl.publish(c[0], Event::topical("t", "x"));
        // No run_until_idle needed for same-broker delivery.
        assert_eq!(cl.take_delivered(c[0]).len(), 1);
    }

    #[test]
    fn non_matching_events_are_not_forwarded() {
        let (mut cl, c) = chain();
        cl.subscribe(c[2], Filter::topic("t"));
        settle(&mut cl);
        cl.publish(c[0], Event::topical("other", "x"));
        assert_eq!(settle(&mut cl), 0, "nothing crossed a link");
        assert!(cl.take_delivered(c[2]).is_empty());
    }

    #[test]
    fn unsubscribe_withdraws_interest() {
        let (mut cl, c) = chain();
        let sub = cl.subscribe(c[2], Filter::topic("t"));
        settle(&mut cl);
        cl.unsubscribe(c[2], sub);
        settle(&mut cl);
        cl.publish(c[0], Event::topical("t", "x"));
        settle(&mut cl);
        assert!(cl.take_delivered(c[2]).is_empty());
        assert_eq!(routing_entries(&cl), 0);
    }

    #[test]
    fn identical_filters_at_one_broker_are_advertised_once() {
        let (mut cl, c) = chain();
        let subscriber = cl.attach(2);
        let first = cl.subscribe(c[2], Filter::topic("t"));
        cl.subscribe(subscriber, Filter::topic("t"));
        cl.subscribe(subscriber, Filter::topic("t"));
        settle(&mut cl);
        assert_eq!(
            (0..3).map(|b| cl.routing_entries_at(b)).collect::<Vec<_>>(),
            vec![1, 1, 1],
            "one entry per broker for one distinct filter"
        );
        cl.publish(c[0], Event::topical("t", "x"));
        settle(&mut cl);
        assert_eq!(cl.take_delivered(c[2]).len(), 1);
        assert_eq!(cl.take_delivered(subscriber).len(), 2);
        // The advertisement outlives its first owner.
        cl.unsubscribe(c[2], first);
        assert_eq!(settle(&mut cl), 0, "no withdrawal while owners remain");
        cl.publish(c[0], Event::topical("t", "y"));
        settle(&mut cl);
        assert_eq!(cl.take_delivered(subscriber).len(), 2);
    }

    #[test]
    fn an_event_forwarded_after_its_last_local_owner_left_vanishes_cleanly() {
        // Race (a): the forward is in flight on the 0 → 1 link when the
        // only subscriber at broker 1 unsubscribes.
        let mut cl = Cluster::tree(true, 0);
        let (b0, b1) = (cl.add_broker(), cl.add_broker());
        cl.link(b0, b1, latency(5)).unwrap();
        let publisher = cl.attach(b0);
        let subscriber = cl.attach(b1);
        let sub = cl.subscribe(subscriber, Filter::topic("t"));
        settle(&mut cl);
        cl.publish(publisher, Event::topical("t", "x"));
        cl.unsubscribe(subscriber, sub);
        settle(&mut cl);
        assert!(cl.take_delivered(subscriber).is_empty());
        assert_eq!(routing_entries(&cl), 0, "nothing left in either table");
        assert_eq!(cl.advertisement_count(), 0);
        // The same race while another local filter keeps broker 1
        // interested: the event reaches its broker and matches nothing.
        let other = cl.attach(b1);
        cl.subscribe(other, Filter::topic("u"));
        let sub = cl.subscribe(subscriber, Filter::topic("t"));
        settle(&mut cl);
        cl.publish(publisher, Event::topical("t", "x"));
        cl.unsubscribe(subscriber, sub);
        settle(&mut cl);
        assert!(cl.take_delivered(subscriber).is_empty());
        assert!(cl.take_delivered(other).is_empty());
        assert_eq!(cl.routing_entries_at(b1), 1);
        assert_eq!(cl.routing_entries_at(b0), 1);
    }

    #[test]
    fn mesh_slot_reuse_under_link_flaps_keeps_routes_and_delivery_exact() {
        // Race (b): distinct filters come and go at every broker of a
        // triangle while one of its links flaps, so freed slots are
        // recycled for new filters while withdrawals are still in flight
        // on the other path.
        let faults = LinkFaults {
            drop_p: 0.0,
            dup_p: 0.2,
            delay_min: 0,
            delay_max: 4,
        };
        for seed in 0..8 {
            let mut cl = Cluster::mesh(seed);
            let b: Vec<usize> = (0..3).map(|_| cl.add_broker()).collect();
            for (x, y) in [(0, 1), (1, 2), (2, 0)] {
                cl.link(b[x], b[y], faults).unwrap();
            }
            let clients: Vec<ClientId> = b.iter().map(|&b| cl.attach(b)).collect();
            let mut held: Vec<(ClientId, SubscriptionId, i64)> = Vec::new();
            for round in 0..12i64 {
                for (i, &client) in clients.iter().enumerate() {
                    let x = round * 3 + i as i64;
                    let sub = cl.subscribe(client, Filter::new().and("x", Op::Eq, x));
                    held.push((client, sub, x));
                    if round % 2 == 1 {
                        // Drop an older filter: its slot is the next one
                        // handed out at that broker.
                        let at = held.iter().position(|(c, ..)| *c == client).unwrap();
                        let (c, gone, _) = held.remove(at);
                        cl.unsubscribe(c, gone);
                    }
                }
                if round % 3 == 0 {
                    cl.unlink(b[0], b[1]);
                } else {
                    cl.link(b[0], b[1], faults).unwrap();
                }
                cl.run_until_idle().unwrap();
            }
            cl.quiesce().unwrap();
            cl.check_routes()
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            for round in 0..12i64 {
                for i in 0..3 {
                    let x = round * 3 + i as i64;
                    cl.publish(clients[(i + 1) % 3], Event::builder().attr("x", x).build());
                    cl.run_until_idle().unwrap();
                    for &client in &clients {
                        let want = held.iter().filter(|h| h.0 == client && h.2 == x).count();
                        let got = cl.take_delivered(client).len();
                        assert_eq!(got, want, "seed {seed}: x = {x} at {client}");
                    }
                }
            }
        }
    }

    #[test]
    fn covering_prunes_advertisements() {
        let run = |covering: bool| -> (usize, u64) {
            let mut cl = Cluster::tree(covering, 0);
            let (b0, b1) = (cl.add_broker(), cl.add_broker());
            cl.link(b0, b1, latency(1)).unwrap();
            let c = cl.attach(b0);
            // One wide filter plus many narrow ones it covers.
            cl.subscribe(c, Filter::new().and("x", Op::Gt, 0));
            for i in 1..20 {
                cl.subscribe(
                    c,
                    Filter::new().and("x", Op::Gt, 0).and("y", Op::Eq, i as i64),
                );
            }
            let messages = settle(&mut cl);
            (cl.advertisement_count(), messages)
        };
        let (ads_cov, msgs_cov) = run(true);
        let (ads_flood, msgs_flood) = run(false);
        assert_eq!(ads_cov, 1, "only the covering filter is advertised");
        assert_eq!(ads_flood, 20);
        assert!(msgs_cov < msgs_flood);
    }

    #[test]
    fn covered_subscriber_still_receives_events() {
        // Covering must not lose deliveries: the covered subscription's
        // events still flow because the covering one forwards them.
        let mut cl = Cluster::tree(true, 0);
        let (b0, b1) = (cl.add_broker(), cl.add_broker());
        cl.link(b0, b1, latency(1)).unwrap();
        let wide = cl.attach(b0);
        let narrow = cl.attach(b0);
        let publisher = cl.attach(b1);
        cl.subscribe(wide, Filter::new().and("x", Op::Gt, 0));
        cl.subscribe(narrow, Filter::new().and("x", Op::Gt, 5));
        settle(&mut cl);
        cl.publish(publisher, Event::builder().attr("x", 10).build());
        settle(&mut cl);
        assert_eq!(cl.take_delivered(wide).len(), 1);
        assert_eq!(cl.take_delivered(narrow).len(), 1);
    }

    #[test]
    fn unsubscribing_covering_filter_readvertises_covered() {
        let mut cl = Cluster::tree(true, 0);
        let (b0, b1) = (cl.add_broker(), cl.add_broker());
        cl.link(b0, b1, latency(1)).unwrap();
        let c0 = cl.attach(b0);
        let c1 = cl.attach(b1);
        let wide = cl.subscribe(c0, Filter::new().and("x", Op::Gt, 0));
        cl.subscribe(c0, Filter::new().and("x", Op::Gt, 5));
        settle(&mut cl);
        assert_eq!(cl.advertisement_count(), 1);
        cl.unsubscribe(c0, wide);
        settle(&mut cl);
        // The narrow filter must now be advertised and still routable.
        assert_eq!(cl.advertisement_count(), 1);
        cl.publish(c1, Event::builder().attr("x", 10).build());
        settle(&mut cl);
        assert_eq!(cl.take_delivered(c0).len(), 1);
    }

    #[test]
    fn cycle_links_are_rejected() {
        let mut cl = Cluster::tree(true, 0);
        let (a, b, c) = (cl.add_broker(), cl.add_broker(), cl.add_broker());
        cl.link(a, b, latency(1)).unwrap();
        cl.link(b, c, latency(1)).unwrap();
        assert!(cl.link(a, c, latency(1)).is_err());
        // A downed tree link still closes the cycle: it comes back.
        cl.unlink(a, b);
        assert!(cl.link(a, c, latency(1)).is_err());
        cl.link(a, b, latency(1))
            .expect("re-upping a tree link is no cycle");
    }

    #[test]
    fn identical_filters_from_different_clients_both_deliver() {
        let (mut cl, c) = chain();
        cl.subscribe(c[0], Filter::topic("t"));
        cl.subscribe(c[2], Filter::topic("t"));
        settle(&mut cl);
        cl.publish(c[1], Event::topical("t", "x"));
        settle(&mut cl);
        assert_eq!(cl.take_delivered(c[0]).len(), 1);
        assert_eq!(cl.take_delivered(c[2]).len(), 1);
    }

    #[test]
    fn star_topology_fanout() {
        let mut cl = Cluster::tree(true, 0);
        let hub = cl.add_broker();
        let mut leaf_clients = Vec::new();
        for _ in 0..5 {
            let leaf = cl.add_broker();
            cl.link(hub, leaf, latency(2)).unwrap();
            let c = cl.attach(leaf);
            cl.subscribe(c, Filter::topic("t"));
            leaf_clients.push(c);
        }
        let publisher = cl.attach(hub);
        settle(&mut cl);
        cl.publish(publisher, Event::topical("t", "x"));
        settle(&mut cl);
        for c in leaf_clients {
            assert_eq!(cl.take_delivered(c).len(), 1);
        }
    }

    #[test]
    fn deep_chain_propagation() {
        let mut cl = Cluster::tree(true, 0);
        let b: Vec<usize> = (0..8).map(|_| cl.add_broker()).collect();
        for w in b.windows(2) {
            cl.link(w[0], w[1], latency(3)).unwrap();
        }
        let first = cl.attach(b[0]);
        let last = cl.attach(b[7]);
        cl.subscribe(last, Filter::topic("deep"));
        settle(&mut cl);
        let published = cl.now();
        cl.publish(first, Event::topical("deep", "x"));
        settle(&mut cl);
        assert_eq!(cl.take_delivered(last).len(), 1);
        // 7 hops * 3 latency each, at minimum.
        assert!(cl.now() - published >= 21);
    }

    /// 3-broker mesh ring b0 - b1 - b2 - b0 with one client per broker.
    fn mesh_ring() -> (Cluster, Vec<ClientId>) {
        let mut cl = Cluster::mesh(0);
        let b: Vec<usize> = (0..3).map(|_| cl.add_broker()).collect();
        cl.link(b[0], b[1], latency(5)).unwrap();
        cl.link(b[1], b[2], latency(5)).unwrap();
        cl.link(b[2], b[0], latency(5)).unwrap();
        let clients = b.iter().map(|&b| cl.attach(b)).collect();
        (cl, clients)
    }

    fn mesh_gauge(cl: &Cluster, gauge: fn(&BrokerNode) -> u64) -> u64 {
        (0..cl.broker_count())
            .filter_map(|b| cl.inspect(b, gauge))
            .sum()
    }

    #[test]
    fn mesh_accepts_cyclic_links() {
        let (cl, _c) = mesh_ring();
        assert!((0..3).all(|b| cl.inspect(b, BrokerNode::is_mesh) == Some(true)));
    }

    #[test]
    fn mesh_ring_delivers_exactly_once_and_suppresses_duplicates() {
        let (mut cl, c) = mesh_ring();
        cl.subscribe(c[2], Filter::topic("t"));
        settle(&mut cl);
        // The subscriber's broker holds an alternate route somewhere in
        // the ring (two disjoint paths from any publisher).
        assert!(cl.mesh_alternates() > 0, "ring yields redundant routes");
        cl.publish(c[0], Event::topical("t", "x"));
        settle(&mut cl);
        assert_eq!(cl.take_delivered(c[2]).len(), 1, "exactly once");
        assert!(
            mesh_gauge(&cl, BrokerNode::mesh_duplicates_suppressed) > 0,
            "the redundant copy was suppressed, not delivered"
        );
    }

    #[test]
    fn mesh_link_kill_fails_over_to_alternate_path() {
        let (mut cl, c) = mesh_ring();
        cl.subscribe(c[2], Filter::topic("t"));
        settle(&mut cl);
        // Kill the direct b0-b2 link; the b0-b1-b2 path must take over.
        cl.unlink(0, 2);
        settle(&mut cl);
        cl.publish(c[0], Event::topical("t", "x"));
        settle(&mut cl);
        assert_eq!(cl.take_delivered(c[2]).len(), 1);
        assert!(
            mesh_gauge(&cl, BrokerNode::mesh_reroutes) > 0,
            "losing the fast path is a reroute"
        );
    }

    #[test]
    fn mesh_unsubscribe_withdraws_all_routes() {
        let (mut cl, c) = mesh_ring();
        let sub = cl.subscribe(c[2], Filter::topic("t"));
        settle(&mut cl);
        assert!(routing_entries(&cl) > 0);
        cl.unsubscribe(c[2], sub);
        settle(&mut cl);
        assert_eq!(routing_entries(&cl), 0);
        cl.publish(c[0], Event::topical("t", "x"));
        settle(&mut cl);
        assert!(cl.take_delivered(c[2]).is_empty());
    }

    #[test]
    fn mesh_crash_reroutes_around_dead_broker() {
        // Diamond: 0-1, 0-2, 1-3, 2-3. Subscriber at 3, publisher at 0.
        let mut cl = Cluster::mesh(0);
        let b: Vec<usize> = (0..4).map(|_| cl.add_broker()).collect();
        for (x, y) in [(0, 1), (0, 2), (1, 3), (2, 3)] {
            cl.link(b[x], b[y], latency(1)).unwrap();
        }
        let publisher = cl.attach(b[0]);
        let subscriber = cl.attach(b[3]);
        cl.subscribe(subscriber, Filter::topic("t"));
        settle(&mut cl);
        cl.crash(b[1]);
        settle(&mut cl);
        cl.publish(publisher, Event::topical("t", "x"));
        settle(&mut cl);
        assert_eq!(
            cl.take_delivered(subscriber).len(),
            1,
            "delivery survives the crash via 0-2-3"
        );
        assert!(!cl.alive(b[1]));
    }

    #[test]
    fn mesh_refresh_is_idempotent_when_converged() {
        let (mut cl, c) = mesh_ring();
        cl.subscribe(c[2], Filter::topic("t"));
        settle(&mut cl);
        let entries = routing_entries(&cl);
        let ads = cl.advertisement_count();
        cl.refresh_all();
        settle(&mut cl);
        assert_eq!(routing_entries(&cl), entries);
        assert_eq!(cl.advertisement_count(), ads);
    }
}
