//! The broker routing core: content-based routing as a sans-io state
//! machine.
//!
//! The Reef paper's substrate box (Figures 1 and 2) is a wide-area
//! publish-subscribe system in the tradition of Siena and Gryphon (§5.3).
//! [`BrokerNode`] is one broker's routing brain in that substrate. It owns
//! the routing table, advertisement state and covering logic, and
//! communicates exclusively through values: every entry point returns the
//! [`PeerMsg`]s that must be sent to neighboring brokers, and
//! [`BrokerNode::handle`] consumes one incoming message and returns the
//! follow-up messages it caused, plus the event when it reached local
//! interest. The node performs no I/O and reads no clock. Local filters
//! and subscribers are not its business: the local [`crate::Broker`]'s
//! index is the only table of them, and [`crate::RoutedBroker`] joins
//! broker and node — the composition `reef-wire`'s TCP federation and
//! `reef-sim`'s deterministic simulated one both drive.
//!
//! The routing protocol itself is the classic design:
//!
//! * **subscription forwarding** — a subscription placed at one broker is
//!   advertised through the tree so events published anywhere reach it;
//! * **covering-based pruning** — a broker does not advertise a
//!   subscription to a neighbor when an already-advertised subscription
//!   covers it ([`Filter::covers`]), shrinking routing tables and control
//!   traffic;
//! * **reverse-path event routing** — an event is forwarded only on links
//!   from which a matching interest was advertised.
//!
//! [`BrokerNode::new_mesh`] swaps the tree for path-vector routing over an
//! arbitrary mesh ([`crate::routing`]).

use crate::event::PublishedEvent;
use crate::filter::Filter;
use crate::matcher::{IndexMatcher, MatchEngine, SubscriptionId};
use crate::routing::{MeshRouter, RouteRemoval};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;

/// A broker's handle for one of its links: opaque to the routing core,
/// minted by whatever drives it.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node#{}", self.0)
    }
}

/// Identifier of a client attached to some broker of the overlay.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct ClientId(pub u64);

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "client#{}", self.0)
    }
}

/// Overlay-wide subscription identifier.
///
/// The sans-io core does not mint these itself: the driver supplies them,
/// so a simulation can use a dense global counter while a federation of
/// independent daemons namespaces ids by broker to keep them unique.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct GlobalSubId(pub u64);

impl fmt::Display for GlobalSubId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "gsub#{}", self.0)
    }
}

/// Ceiling on [`PeerMsg::EventFwd`] hop counts. A correctly configured
/// overlay is a tree and never approaches this; the limit stops an
/// accidentally cyclic federation from forwarding an event forever.
pub const MAX_HOPS: u32 = 32;

/// Messages exchanged between brokers.
///
/// This is the complete broker-to-broker vocabulary of the routing
/// protocol. The enum is serde-serializable so transports can ship it
/// as-is — the simulation passes it by value, `reef-wire` JSON-encodes it
/// into peer frames.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PeerMsg {
    /// Advertise a subscription to a neighbor (covering-pruned: only
    /// maximal filters are advertised when pruning is on).
    SubFwd {
        /// Overlay-wide id of the advertised subscription.
        sub: GlobalSubId,
        /// The subscription's filter.
        filter: Filter,
    },
    /// Withdraw a previously advertised subscription.
    UnsubFwd {
        /// Id of the subscription being withdrawn.
        sub: GlobalSubId,
    },
    /// Forward a published event along the tree.
    EventFwd {
        /// The event, with origin-broker id and timestamp.
        event: PublishedEvent,
        /// Broker-to-broker hops travelled so far (0 = first link).
        hops: u32,
    },
    /// Path-vector advertisement of a subscription (mesh mode): the
    /// filter plus the broker-id path the advertisement travelled,
    /// sender last. A receiver whose id is already on the path drops it
    /// — that is what lets mesh overlays contain cycles.
    SubAdv {
        /// Overlay-wide id of the advertised subscription.
        sub: GlobalSubId,
        /// The subscription's filter.
        filter: Filter,
        /// Broker ids traversed so far, the advertising broker last.
        path: Vec<u32>,
    },
    /// Keepalive probe on an idle peer link; the receiver echoes the
    /// nonce back as [`PeerMsg::Pong`]. Carried as a control message so
    /// it is never dropped by event backpressure.
    Ping {
        /// Opaque value echoed back unchanged.
        nonce: u64,
    },
    /// Keepalive reply; any traffic (this included) proves the link is
    /// alive.
    Pong {
        /// The probed nonce, returned unchanged.
        nonce: u64,
    },
}

/// What a [`BrokerNode`] wants done after processing one peer message:
/// the event to hand to the local broker, and messages to send to
/// neighbors.
///
/// The node never performs these effects itself — the driver (simulated
/// or socket-backed) owns delivery and transmission.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeOutput {
    /// A forwarded event that reached this broker while it advertises
    /// local interest. The node keeps no table of local subscribers: the
    /// driver matches the event against the local broker's index
    /// ([`crate::Broker::publish_remote`]), which delivers one copy per
    /// matching subscription.
    pub local: Option<PublishedEvent>,
    /// Messages to transmit, in order, to the named neighbors.
    pub messages: Vec<(NodeId, PeerMsg)>,
}

impl NodeOutput {
    fn from_messages(messages: Vec<(NodeId, PeerMsg)>) -> Self {
        NodeOutput {
            local: None,
            messages,
        }
    }
}

/// One broker's routing core: a transport-agnostic, clock-free state
/// machine.
///
/// A `BrokerNode` knows its neighbors only as opaque [`NodeId`] link
/// handles; what those handles mean (a simulated link, a TCP connection)
/// is the driver's business. It holds what neighbors advertised plus one
/// entry per distinct filter of this broker's own, which it advertises.
/// It neither matches events against local filters nor knows local
/// subscribers: those live in the local broker's index, and
/// [`crate::RoutedBroker`] joins the two. Every entry point returns the
/// messages the driver must send.
///
/// # Examples
///
/// Two nodes wired back-to-back by hand, no transport at all:
///
/// ```
/// use reef_pubsub::{
///     BrokerNode, ClientId, Event, EventId, Filter, GlobalSubId, NodeId, PublishedEvent,
/// };
///
/// let (a, b) = (NodeId(0), NodeId(1));
/// let mut node_a = BrokerNode::new(true);
/// let mut node_b = BrokerNode::new(true);
/// node_a.add_neighbor(b);
/// node_b.add_neighbor(a);
///
/// // B's local interest is advertised to A...
/// let ads = node_b.subscribe_local(GlobalSubId(0), ClientId(0), Filter::topic("t"));
/// for (_, msg) in ads {
///     node_a.handle(b, msg);
/// }
/// // ...so a publish at A is forwarded to B, which hands it to its
/// // local broker.
/// let event = PublishedEvent { id: EventId(0), published_at: 0, event: Event::topical("t", "x") };
/// let (dst, fwd) = node_a.publish_local(event.clone()).into_iter().next().unwrap();
/// assert_eq!(dst, b);
/// assert_eq!(node_b.handle(a, fwd).local, Some(event));
/// ```
pub struct BrokerNode {
    covering: bool,
    neighbors: Vec<NodeId>,
    /// This broker's own filters, one per distinct local filter: the
    /// `Arc` the local broker's index holds.
    locals: HashMap<GlobalSubId, Arc<Filter>>,
    /// What neighbors advertised, with the link each arrived on.
    remote: HashMap<GlobalSubId, (NodeId, Arc<Filter>)>,
    /// Index over the remote filters: the links an event goes out on.
    matcher: IndexMatcher,
    /// What this broker has advertised to each neighbor.
    advertised: HashMap<NodeId, BTreeMap<GlobalSubId, Arc<Filter>>>,
    /// Path-vector routing state; `Some` makes this a mesh-mode node
    /// that tolerates cycles and redundant links.
    mesh: Option<MeshRouter>,
}

impl fmt::Debug for BrokerNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BrokerNode")
            .field("neighbors", &self.neighbors.len())
            .field("routing_entries", &self.routing_entries())
            .field("covering", &self.covering)
            .field("mesh", &self.mesh.is_some())
            .finish()
    }
}

impl BrokerNode {
    /// An isolated node with no neighbors. `covering` enables
    /// covering-based advertisement pruning.
    pub fn new(covering: bool) -> Self {
        BrokerNode {
            covering,
            neighbors: Vec::new(),
            locals: HashMap::new(),
            remote: HashMap::new(),
            matcher: IndexMatcher::new(),
            advertised: HashMap::new(),
            mesh: None,
        }
    }

    /// An isolated **mesh-mode** node: subscriptions travel as
    /// path-vector advertisements ([`PeerMsg::SubAdv`]), cycles and
    /// redundant links are tolerated (shortest live path is the fast
    /// path, the rest failover alternates), and duplicate events are
    /// suppressed by a bounded seen-cache instead of relying on
    /// [`MAX_HOPS`]. `broker_id` must be unique across the federation —
    /// it is the id rejected in incoming advertisement paths. Mesh mode
    /// advertises every known subscription (no covering pruning: a
    /// covering filter and its coveree may route along different paths).
    pub fn new_mesh(broker_id: u32) -> Self {
        BrokerNode {
            mesh: Some(MeshRouter::new(broker_id)),
            ..BrokerNode::new(false)
        }
    }

    /// Whether covering-based pruning is enabled.
    pub fn covering(&self) -> bool {
        self.covering
    }

    /// Whether this node routes in mesh (path-vector) mode.
    pub fn is_mesh(&self) -> bool {
        self.mesh.is_some()
    }

    /// The node's current neighbor links.
    pub fn neighbors(&self) -> &[NodeId] {
        &self.neighbors
    }

    /// Register a new neighbor link and return the advertisements that
    /// must be sent to bring it up to date with this node's current
    /// knowledge (empty when the node knows no subscriptions yet).
    ///
    /// Tree mode only; mesh nodes must use
    /// [`BrokerNode::add_mesh_neighbor`], which also records the remote
    /// broker id the path vectors need.
    pub fn add_neighbor(&mut self, neighbor: NodeId) -> Vec<(NodeId, PeerMsg)> {
        debug_assert!(self.mesh.is_none(), "mesh nodes use add_mesh_neighbor");
        if !self.neighbors.contains(&neighbor) {
            self.neighbors.push(neighbor);
        }
        self.sync_advertisements()
    }

    /// Mesh-mode counterpart of [`BrokerNode::add_neighbor`]: registers
    /// the link together with the remote end's federation-wide broker
    /// id (learned at handshake) and returns the path-vector
    /// advertisements bringing the new neighbor up to date.
    pub fn add_mesh_neighbor(&mut self, neighbor: NodeId, broker: u32) -> Vec<(NodeId, PeerMsg)> {
        let router = self.mesh.as_mut().expect("add_mesh_neighbor on mesh node");
        router.add_neighbor(neighbor, broker);
        if !self.neighbors.contains(&neighbor) {
            self.neighbors.push(neighbor);
        }
        self.sync()
    }

    /// Drop a neighbor link: forget everything it advertised and
    /// re-advertise to the remaining neighbors (filters that were pruned
    /// because the departed neighbor covered them may need to resurface).
    ///
    /// In mesh mode this is the self-stabilization step: routes learned
    /// through the lost link are torn down *immediately*, surviving
    /// alternates are promoted to fast path, subscriptions with no
    /// remaining route are withdrawn from the remaining neighbors, and
    /// changed fast paths are re-advertised — the routing diff of the
    /// link's death, pushed without waiting for any timer.
    pub fn remove_neighbor(&mut self, neighbor: NodeId) -> Vec<(NodeId, PeerMsg)> {
        self.neighbors.retain(|n| *n != neighbor);
        let gone: Vec<GlobalSubId> = match self.mesh.as_mut() {
            Some(router) => router.remove_neighbor(neighbor),
            None => {
                self.advertised.remove(&neighbor);
                self.remote
                    .iter()
                    .filter(|(_, (n, _))| *n == neighbor)
                    .map(|(sub, _)| *sub)
                    .collect()
            }
        };
        for sub in gone {
            self.remove_remote(sub);
        }
        self.sync()
    }

    /// Re-send every current advertisement (mesh mode): the periodic
    /// refresh that lets routing tables converge after arbitrary
    /// join/leave/crash churn even if a peer missed a diff. No-op on
    /// tree nodes, whose diffs are lossless by construction.
    pub fn refresh(&mut self) -> Vec<(NodeId, PeerMsg)> {
        match self.mesh.as_mut() {
            Some(router) => {
                router.clear_advertised();
                self.sync()
            }
            None => Vec::new(),
        }
    }

    /// Advertise one distinct filter of this broker's own and return the
    /// advertisements to propagate.
    ///
    /// The caller mints `sub`; it must be unique across the whole overlay
    /// (a federation of daemons namespaces the id space per broker). The
    /// node keeps the `Arc` it is given; only the advertisements it
    /// returns carry copies. `client` is not filed: local delivery is the
    /// local broker's business.
    pub fn subscribe_local(
        &mut self,
        sub: GlobalSubId,
        _client: ClientId,
        filter: impl Into<Arc<Filter>>,
    ) -> Vec<(NodeId, PeerMsg)> {
        self.update_local([(sub, filter.into())], [])
    }

    /// Advertise the local filters in `opened`, withdraw the local ids in
    /// `withdrawn`, and return the control messages for the whole batch.
    /// Unknown withdrawn ids are ignored.
    pub fn update_local(
        &mut self,
        opened: impl IntoIterator<Item = (GlobalSubId, Arc<Filter>)>,
        withdrawn: impl IntoIterator<Item = GlobalSubId>,
    ) -> Vec<(NodeId, PeerMsg)> {
        let mut changed = false;
        for sub in withdrawn {
            changed |= self.locals.remove(&sub).is_some();
        }
        for (sub, filter) in opened {
            self.locals.insert(sub, filter);
            changed = true;
        }
        if changed {
            self.sync()
        } else {
            Vec::new()
        }
    }

    /// Route an event published at this broker: the forwards toward
    /// interested neighbors, with hop count 0. Local subscribers are the
    /// local broker's to serve.
    pub fn publish_local(&mut self, event: PublishedEvent) -> Vec<(NodeId, PeerMsg)> {
        if let Some(router) = self.mesh.as_mut() {
            // Mark the id seen so a copy echoed back over a cycle is
            // suppressed (and counted) instead of re-delivered.
            let _ = router.first_sight(event.id);
        }
        self.forward(None, &event, 0)
    }

    /// Process one message received from neighbor `from` and return the
    /// effects: an event for the local broker, and follow-up messages.
    ///
    /// Tree advertisements ([`PeerMsg::SubFwd`]) are ignored by mesh
    /// nodes and path-vector ones ([`PeerMsg::SubAdv`]) by tree nodes: a
    /// mixed-mode federation must not corrupt either routing table.
    pub fn handle(&mut self, from: NodeId, msg: PeerMsg) -> NodeOutput {
        match msg {
            PeerMsg::SubFwd { sub, filter } => {
                // A SubFwd for a subscription this node already knows from
                // elsewhere is a cycle echo (the overlay is supposed to be
                // a tree, but a misconfigured federation is not). Adopting
                // it would overwrite the true origin — shadowing a local
                // filter or flipping a reverse path — so drop it; only a
                // re-advertisement from the same neighbor (a link re-sync)
                // updates the filter.
                if self.mesh.is_some()
                    || self.locals.contains_key(&sub)
                    || matches!(self.remote.get(&sub), Some((n, _)) if *n != from)
                {
                    return NodeOutput::default();
                }
                self.insert_remote(sub, from, Arc::new(filter));
                NodeOutput::from_messages(self.sync_advertisements())
            }
            PeerMsg::SubAdv { sub, filter, path } => {
                // A SubAdv for a local subscription can only be a forged
                // or corrupted echo — the path check would catch the
                // honest case, but never risk shadowing a local filter.
                if self.locals.contains_key(&sub) {
                    return NodeOutput::default();
                }
                let Some(router) = self.mesh.as_mut() else {
                    return NodeOutput::default();
                };
                let filter = Arc::new(filter);
                if !router.insert_route(from, sub, Arc::clone(&filter), path) {
                    return NodeOutput::default();
                }
                self.insert_remote(sub, from, filter);
                NodeOutput::from_messages(self.sync())
            }
            PeerMsg::UnsubFwd { sub } => {
                if let Some(router) = self.mesh.as_mut() {
                    match router.remove_route(from, sub) {
                        RouteRemoval::NotFound => return NodeOutput::default(),
                        RouteRemoval::Changed => {}
                        RouteRemoval::Gone => {
                            self.remove_remote(sub);
                        }
                    }
                } else if !self.remove_remote(sub) {
                    return NodeOutput::default();
                }
                NodeOutput::from_messages(self.sync())
            }
            PeerMsg::EventFwd { event, hops } => {
                if hops >= MAX_HOPS {
                    return NodeOutput::default();
                }
                if let Some(router) = self.mesh.as_mut() {
                    if !router.first_sight(event.id) {
                        return NodeOutput::default();
                    }
                }
                let messages = self.forward(Some(from), &event, hops + 1);
                NodeOutput {
                    local: (!self.locals.is_empty()).then_some(event),
                    messages,
                }
            }
            PeerMsg::Ping { nonce } => {
                NodeOutput::from_messages(vec![(from, PeerMsg::Pong { nonce })])
            }
            PeerMsg::Pong { .. } => NodeOutput::default(),
        }
    }

    /// Routing-table entries this node holds: its distinct local filters
    /// plus neighbor advertisements.
    pub fn routing_entries(&self) -> usize {
        self.locals.len() + self.remote.len()
    }

    /// Advertisements currently held toward neighbors.
    pub fn advertisement_count(&self) -> usize {
        match &self.mesh {
            Some(router) => router.advertisement_count(),
            None => self.advertised.values().map(BTreeMap::len).sum(),
        }
    }

    /// Failover routes held beyond each subscription's fast path.
    /// Always 0 on tree nodes.
    pub fn mesh_alternates(&self) -> usize {
        self.mesh.as_ref().map_or(0, MeshRouter::alternates)
    }

    /// Times a dead fast path was replaced by a surviving alternate.
    /// Always 0 on tree nodes.
    pub fn mesh_reroutes(&self) -> u64 {
        self.mesh.as_ref().map_or(0, MeshRouter::reroutes)
    }

    /// Duplicate event copies dropped by the mesh seen-cache. Always 0
    /// on tree nodes.
    pub fn mesh_duplicates_suppressed(&self) -> u64 {
        self.mesh
            .as_ref()
            .map_or(0, MeshRouter::duplicates_suppressed)
    }

    /// Every live mesh route as `(subscription, incoming link, path)`
    /// triples — fast paths and alternates alike, sorted. Empty on tree
    /// nodes. See [`MeshRouter::route_table`].
    pub fn mesh_route_table(&self) -> Vec<(GlobalSubId, NodeId, Vec<u32>)> {
        self.mesh
            .as_ref()
            .map_or_else(Vec::new, MeshRouter::route_table)
    }

    /// The fast path per remote mesh subscription, sorted. Empty on tree
    /// nodes. See [`MeshRouter::best_routes`].
    pub fn mesh_best_routes(&self) -> Vec<(GlobalSubId, NodeId, Vec<u32>)> {
        self.mesh
            .as_ref()
            .map_or_else(Vec::new, MeshRouter::best_routes)
    }

    /// The ids this node advertises for its own filters.
    pub fn local_subs(&self) -> impl Iterator<Item = GlobalSubId> + '_ {
        self.locals.keys().copied()
    }

    fn insert_remote(&mut self, sub: GlobalSubId, from: NodeId, filter: Arc<Filter>) {
        self.matcher
            .insert(SubscriptionId(sub.0), Arc::clone(&filter));
        self.remote.insert(sub, (from, filter));
    }

    fn remove_remote(&mut self, sub: GlobalSubId) -> bool {
        self.matcher.remove(SubscriptionId(sub.0));
        self.remote.remove(&sub).is_some()
    }

    /// Bring every neighbor's advertisements up to date, in whichever
    /// mode this node routes.
    fn sync(&mut self) -> Vec<(NodeId, PeerMsg)> {
        match self.mesh.as_mut() {
            // The router diffs what each neighbor should see (fast paths
            // plus split horizon) against what was already sent.
            Some(router) => router.sync(&self.neighbors, &self.locals),
            None => self.sync_advertisements(),
        }
    }

    /// The set of subscriptions this broker *should* be advertising to
    /// `neighbor`, given its current knowledge.
    ///
    /// Without covering: every known subscription not originating at that
    /// neighbor. With covering: only the maximal ones — a subscription is
    /// dropped when another candidate strictly covers it, or when an
    /// equivalent candidate with a smaller id exists (canonical
    /// representative of an equivalence class).
    fn desired_ads(&self, neighbor: NodeId) -> BTreeMap<GlobalSubId, Arc<Filter>> {
        let remote = self
            .remote
            .iter()
            .filter(|(_, (n, _))| *n != neighbor)
            .map(|(sub, (_, f))| (*sub, f));
        let candidates: BTreeMap<GlobalSubId, &Arc<Filter>> = self
            .locals
            .iter()
            .map(|(sub, f)| (*sub, f))
            .chain(remote)
            .collect();
        if !self.covering {
            return candidates
                .into_iter()
                .map(|(s, f)| (s, Arc::clone(f)))
                .collect();
        }
        let mut out = BTreeMap::new();
        'outer: for (&sub, &filter) in &candidates {
            for (&other_sub, &other_filter) in &candidates {
                if other_sub == sub {
                    continue;
                }
                if other_filter.covers(filter) {
                    let equivalent = filter.covers(other_filter);
                    // Strictly covered, or covered by an equivalent filter
                    // with a smaller id (the canonical representative).
                    if !equivalent || other_sub < sub {
                        continue 'outer;
                    }
                }
            }
            out.insert(sub, Arc::clone(filter));
        }
        out
    }

    /// Diff desired vs actual advertisements toward each neighbor and
    /// return the control messages closing the gap.
    fn sync_advertisements(&mut self) -> Vec<(NodeId, PeerMsg)> {
        let mut to_send: Vec<(NodeId, PeerMsg)> = Vec::new();
        let neighbors = self.neighbors.clone();
        for n in neighbors {
            let desired = self.desired_ads(n);
            let current = self.advertised.entry(n).or_default();
            let mut removals: Vec<GlobalSubId> = Vec::new();
            for sub in current.keys() {
                if !desired.contains_key(sub) {
                    removals.push(*sub);
                }
            }
            for sub in removals {
                current.remove(&sub);
                to_send.push((n, PeerMsg::UnsubFwd { sub }));
            }
            for (sub, filter) in &desired {
                // Re-send when the id is new to this neighbor *or* the
                // filter changed: a same-neighbor re-advertisement (a
                // link re-sync) may update a subscription's filter, and
                // that update must travel onward, not stop one hop in.
                if current.get(sub) != Some(filter) {
                    current.insert(*sub, Arc::clone(filter));
                    to_send.push((
                        n,
                        PeerMsg::SubFwd {
                            sub: *sub,
                            filter: Filter::clone(filter),
                        },
                    ));
                }
            }
        }
        to_send
    }

    /// The forwards of an event: one copy per link on which a matching
    /// remote interest was advertised, except the link it came in on. A
    /// mesh node forwards over **every** live route of a matching
    /// subscription: the fast path delivers first, and the receivers'
    /// seen-caches suppress the redundant copies, which is what lets
    /// delivery survive a link dying mid-event.
    fn forward(
        &self,
        from: Option<NodeId>,
        event: &PublishedEvent,
        hops: u32,
    ) -> Vec<(NodeId, PeerMsg)> {
        let mut links: Vec<NodeId> = Vec::new();
        for m in self.matcher.matches(&event.event) {
            let sub = GlobalSubId(m.0);
            match &self.mesh {
                Some(router) => links.extend(router.via_links(sub)),
                None => links.extend(self.remote.get(&sub).map(|(n, _)| *n)),
            }
        }
        links.retain(|n| Some(*n) != from);
        links.sort_unstable();
        links.dedup();
        links
            .into_iter()
            .map(|n| {
                (
                    n,
                    PeerMsg::EventFwd {
                        event: event.clone(),
                        hops,
                    },
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, EventId};
    use crate::filter::Op;

    // The core driven entirely by hand, with no transport at all.

    fn published(event: Event) -> PublishedEvent {
        PublishedEvent {
            id: EventId(0),
            published_at: 0,
            event,
        }
    }

    #[test]
    fn node_forwards_events_only_toward_advertised_interest() {
        let (a, b, c) = (NodeId(0), NodeId(1), NodeId(2));
        let mut hub = BrokerNode::new(true);
        hub.add_neighbor(b);
        hub.add_neighbor(c);
        // Neighbor b advertises interest in topic t; c stays silent.
        let out = hub.handle(
            b,
            PeerMsg::SubFwd {
                sub: GlobalSubId(1),
                filter: Filter::topic("t"),
            },
        );
        // The advertisement is re-advertised to c (not back to b).
        assert!(out
            .messages
            .iter()
            .all(|(dst, msg)| *dst == c && matches!(msg, PeerMsg::SubFwd { .. })));
        let out = hub.publish_local(published(Event::topical("t", "x")));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, b);
        let _ = a;
    }

    #[test]
    fn late_neighbor_receives_existing_advertisements() {
        let b = NodeId(7);
        let mut node = BrokerNode::new(true);
        node.subscribe_local(GlobalSubId(0), ClientId(0), Filter::topic("t"));
        // No neighbors yet, so nothing was advertised. Linking later must
        // bring the new neighbor up to date (a TCP peer can join at any
        // time).
        let sync = node.add_neighbor(b);
        assert_eq!(sync.len(), 1);
        assert!(matches!(sync[0], (n, PeerMsg::SubFwd { .. }) if n == b));
    }

    #[test]
    fn removing_neighbor_forgets_its_subscriptions() {
        let (b, c) = (NodeId(1), NodeId(2));
        let mut node = BrokerNode::new(true);
        node.add_neighbor(b);
        node.add_neighbor(c);
        node.handle(
            b,
            PeerMsg::SubFwd {
                sub: GlobalSubId(5),
                filter: Filter::topic("t"),
            },
        );
        assert_eq!(node.routing_entries(), 1);
        let msgs = node.remove_neighbor(b);
        assert_eq!(node.routing_entries(), 0);
        assert_eq!(node.neighbors(), &[c]);
        // The withdrawn interest is un-advertised toward c.
        assert!(msgs
            .iter()
            .any(|(dst, msg)| *dst == c && matches!(msg, PeerMsg::UnsubFwd { .. })));
    }

    #[test]
    fn hop_limit_stops_runaway_events() {
        let b = NodeId(1);
        let mut node = BrokerNode::new(true);
        node.add_neighbor(b);
        node.subscribe_local(GlobalSubId(0), ClientId(0), Filter::topic("t"));
        let msg = PeerMsg::EventFwd {
            event: published(Event::topical("t", "x")),
            hops: MAX_HOPS,
        };
        let out = node.handle(b, msg);
        assert_eq!(out, NodeOutput::default(), "event at hop limit is dropped");
    }

    #[test]
    fn cycle_echoed_subscription_does_not_hijack_origin() {
        // In a (misconfigured) cyclic federation, a node's own SubFwd can
        // loop back to it. Adopting it would overwrite the Local origin
        // and later withdraw the client's live subscription.
        let b = NodeId(1);
        let mut node = BrokerNode::new(true);
        node.add_neighbor(b);
        node.subscribe_local(GlobalSubId(7), ClientId(0), Filter::topic("t"));
        let out = node.handle(
            b,
            PeerMsg::SubFwd {
                sub: GlobalSubId(7),
                filter: Filter::topic("t"),
            },
        );
        assert!(out.messages.is_empty(), "cycle echo is dropped");
        assert_eq!(node.routing_entries(), 1);
        // The local interest still draws the event, and the echo did not
        // turn it into a forward back toward b.
        let event = published(Event::topical("t", "x"));
        let out = node.handle(
            b,
            PeerMsg::EventFwd {
                event: event.clone(),
                hops: 0,
            },
        );
        assert_eq!(out.local, Some(event));
        assert!(out.messages.is_empty());
    }

    #[test]
    fn local_interest_is_advertised_once_and_never_matched_here() {
        let (b, c) = (NodeId(1), NodeId(2));
        let mut node = BrokerNode::new(false);
        node.add_neighbor(b);
        node.add_neighbor(c);
        let ads = node.subscribe_local(GlobalSubId(1), ClientId(0), Filter::topic("t"));
        assert_eq!(ads.len(), 2, "one advertisement per neighbor");
        // A local publish is forwarded only where remote interest lies:
        // nowhere yet.
        assert!(node
            .publish_local(published(Event::topical("t", "x")))
            .is_empty());
        node.handle(
            c,
            PeerMsg::SubFwd {
                sub: GlobalSubId(9),
                filter: Filter::topic("t"),
            },
        );
        assert_eq!(node.routing_entries(), 2);
        // An event from b goes on to c and, since local interest exists,
        // to the local broker; withdrawing the last local filter stops
        // the latter.
        let event = || PeerMsg::EventFwd {
            event: published(Event::topical("other", "x")),
            hops: 0,
        };
        let out = node.handle(b, event());
        assert!(out.local.is_some() && out.messages.is_empty());
        let withdrawals = node.update_local([], [GlobalSubId(1), GlobalSubId(5)]);
        assert!(withdrawals.iter().all(|(_, msg)| *msg
            == PeerMsg::UnsubFwd {
                sub: GlobalSubId(1)
            }));
        assert_eq!(withdrawals.len(), 2);
        assert_eq!(node.handle(b, event()).local, None);
        assert_eq!(node.local_subs().count(), 0);
        assert_eq!(node.routing_entries(), 1);
    }

    #[test]
    fn same_neighbor_filter_update_propagates_onward() {
        // A link re-sync may re-advertise a subscription with a changed
        // filter; the update must be forwarded to other neighbors, not
        // absorbed (the advertisement diff is keyed by id *and* filter).
        let (a, b) = (NodeId(1), NodeId(2));
        let mut node = BrokerNode::new(true);
        node.add_neighbor(a);
        node.add_neighbor(b);
        node.handle(
            a,
            PeerMsg::SubFwd {
                sub: GlobalSubId(4),
                filter: Filter::topic("v1"),
            },
        );
        let out = node.handle(
            a,
            PeerMsg::SubFwd {
                sub: GlobalSubId(4),
                filter: Filter::topic("v2"),
            },
        );
        assert!(
            out.messages.iter().any(|(dst, msg)| *dst == b
                && matches!(msg, PeerMsg::SubFwd { sub, filter }
                    if *sub == GlobalSubId(4) && *filter == Filter::topic("v2"))),
            "updated filter re-advertised toward b: {:?}",
            out.messages
        );
    }

    #[test]
    fn hop_count_increments_on_forward() {
        let (b, c) = (NodeId(1), NodeId(2));
        let mut node = BrokerNode::new(true);
        node.add_neighbor(b);
        node.add_neighbor(c);
        node.handle(
            c,
            PeerMsg::SubFwd {
                sub: GlobalSubId(9),
                filter: Filter::topic("t"),
            },
        );
        let out = node.handle(
            b,
            PeerMsg::EventFwd {
                event: published(Event::topical("t", "x")),
                hops: 3,
            },
        );
        assert!(matches!(
            out.messages.as_slice(),
            [(n, PeerMsg::EventFwd { hops: 4, .. })] if *n == c
        ));
    }

    #[test]
    fn node_answers_ping_with_pong() {
        let b = NodeId(1);
        let mut node = BrokerNode::new(true);
        node.add_neighbor(b);
        let out = node.handle(b, PeerMsg::Ping { nonce: 42 });
        assert!(matches!(
            out.messages.as_slice(),
            [(n, PeerMsg::Pong { nonce: 42 })] if *n == b
        ));
        assert!(node
            .handle(b, PeerMsg::Pong { nonce: 42 })
            .messages
            .is_empty());
    }

    #[test]
    fn peer_msg_round_trips_through_serde() {
        for msg in [
            PeerMsg::SubFwd {
                sub: GlobalSubId(3),
                filter: Filter::new().and("x", Op::Gt, 1),
            },
            PeerMsg::UnsubFwd {
                sub: GlobalSubId(3),
            },
            PeerMsg::EventFwd {
                event: published(Event::topical("t", "x")),
                hops: 2,
            },
            PeerMsg::SubAdv {
                sub: GlobalSubId(4),
                filter: Filter::topic("t"),
                path: vec![3, 1, 2],
            },
            PeerMsg::Ping { nonce: 7 },
            PeerMsg::Pong { nonce: 7 },
        ] {
            let json = serde_json::to_string(&msg).unwrap();
            let back: PeerMsg = serde_json::from_str(&json).unwrap();
            assert_eq!(back, msg);
        }
    }
}
