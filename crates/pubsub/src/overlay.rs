//! A distributed broker overlay with content-based routing.
//!
//! The Reef paper's substrate box (Figures 1 and 2) is a wide-area
//! publish-subscribe system in the tradition of Siena and Gryphon (§5.3).
//! This module implements that substrate as a **sans-io state machine**
//! plus a simulation driver:
//!
//! * [`BrokerNode`] — one broker's routing brain. It owns the routing
//!   table, advertisement state and covering logic, and communicates
//!   exclusively through values: every entry point returns the
//!   [`PeerMsg`]s that must be sent to neighboring brokers, and
//!   [`BrokerNode::handle`] consumes one incoming message and returns the
//!   local deliveries plus follow-up messages it caused. The node performs
//!   no I/O and reads no clock, so the same core can be driven by the
//!   deterministic [`crate::net::SimNet`] simulation *or* by real sockets
//!   (see `reef-wire`'s TCP federation).
//! * [`Overlay`] — the deterministic multi-broker driver: a *tree* of
//!   [`BrokerNode`]s over a [`crate::net::SimTransport`], with client
//!   attachment, mailboxes and virtual-time message delivery.
//!
//! The routing protocol itself is unchanged from the classic design:
//!
//! * **subscription forwarding** — a subscription placed at one broker is
//!   advertised through the tree so events published anywhere reach it;
//! * **covering-based pruning** — a broker does not advertise a
//!   subscription to a neighbor when an already-advertised subscription
//!   covers it ([`Filter::covers`]), shrinking routing tables and control
//!   traffic (ablation in bench **B2**);
//! * **reverse-path event routing** — an event is forwarded only on links
//!   from which a matching interest was advertised.

use crate::error::OverlayError;
use crate::event::{Event, EventId, PublishedEvent};
use crate::filter::Filter;
use crate::matcher::{IndexMatcher, MatchEngine, SubscriptionId};
use crate::net::{NetStats, NodeId, SimTransport};
use crate::routing::{MeshRouter, RouteRemoval};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

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

/// Where a broker learned about a subscription.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SubOrigin {
    /// Placed by a client attached to this broker.
    Local(ClientId),
    /// Advertised by a neighboring broker.
    Neighbor(NodeId),
}

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

impl PeerMsg {
    /// Accounted size of this message on a byte-counting transport.
    pub fn wire_size(&self) -> usize {
        match self {
            PeerMsg::SubFwd { filter, .. } => filter.wire_size() + 16,
            PeerMsg::UnsubFwd { .. } => 16,
            PeerMsg::EventFwd { event, .. } => event.event.wire_size() + 24,
            PeerMsg::SubAdv { filter, path, .. } => filter.wire_size() + 24 + 4 * path.len(),
            PeerMsg::Ping { .. } | PeerMsg::Pong { .. } => 16,
        }
    }
}

/// What a [`BrokerNode`] wants done after processing one input: events to
/// hand to locally attached clients, and messages to send to neighbors.
///
/// The node never performs these effects itself — the driver (simulated
/// or socket-backed) owns delivery and transmission.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeOutput {
    /// Events to deliver to local clients, one entry per matching local
    /// subscription (a client with two matching subscriptions appears
    /// twice, mirroring the flat broker's per-subscription delivery).
    pub deliveries: Vec<(ClientId, PublishedEvent)>,
    /// Messages to transmit, in order, to the named neighbors.
    pub messages: Vec<(NodeId, PeerMsg)>,
}

impl NodeOutput {
    fn from_messages(messages: Vec<(NodeId, PeerMsg)>) -> Self {
        NodeOutput {
            deliveries: Vec::new(),
            messages,
        }
    }
}

/// One broker's routing core: a transport-agnostic, clock-free state
/// machine.
///
/// A `BrokerNode` knows its neighbors only as opaque [`NodeId`] link
/// handles; what those handles mean (a simulated link, a TCP connection)
/// is the driver's business. All mutation happens through four entry
/// points — [`subscribe_local`](Self::subscribe_local),
/// [`unsubscribe_local`](Self::unsubscribe_local),
/// [`publish_local`](Self::publish_local) and [`handle`](Self::handle) —
/// each returning the messages (and, for events, local deliveries) the
/// driver must carry out.
///
/// # Examples
///
/// Two nodes wired back-to-back by hand, no transport at all:
///
/// ```
/// use reef_pubsub::net::NodeId;
/// use reef_pubsub::{BrokerNode, ClientId, Event, EventId, Filter, GlobalSubId, PublishedEvent};
///
/// let (a, b) = (NodeId(0), NodeId(1));
/// let mut node_a = BrokerNode::new(true);
/// let mut node_b = BrokerNode::new(true);
/// node_a.add_neighbor(b);
/// node_b.add_neighbor(a);
///
/// // A subscription at B is advertised to A...
/// let ads = node_b.subscribe_local(GlobalSubId(0), ClientId(0), Filter::topic("t"));
/// for (_, msg) in ads {
///     node_a.handle(b, msg);
/// }
/// // ...so a publish at A is forwarded to B and delivered there.
/// let event = PublishedEvent { id: EventId(0), published_at: 0, event: Event::topical("t", "x") };
/// let out = node_a.publish_local(event);
/// let (dst, fwd) = out.messages.into_iter().next().unwrap();
/// assert_eq!(dst, b);
/// let delivered = node_b.handle(a, fwd);
/// assert_eq!(delivered.deliveries.len(), 1);
/// ```
pub struct BrokerNode {
    covering: bool,
    neighbors: Vec<NodeId>,
    /// Everything this broker knows: local subs and neighbor advertisements.
    matcher: IndexMatcher,
    origin: HashMap<GlobalSubId, SubOrigin>,
    /// The filter of every known subscription: the same `Arc` the matcher
    /// and the advertisement tables hold.
    filters: HashMap<GlobalSubId, Arc<Filter>>,
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
            .field("routing_entries", &self.matcher.len())
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
            matcher: IndexMatcher::new(),
            origin: HashMap::new(),
            filters: HashMap::new(),
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
            covering: false,
            neighbors: Vec::new(),
            matcher: IndexMatcher::new(),
            origin: HashMap::new(),
            filters: HashMap::new(),
            advertised: HashMap::new(),
            mesh: Some(MeshRouter::new(broker_id)),
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
        self.mesh_sync()
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
        if let Some(router) = self.mesh.as_mut() {
            for sub in router.remove_neighbor(neighbor) {
                self.remove_sub(sub);
            }
            return self.mesh_sync();
        }
        self.advertised.remove(&neighbor);
        let gone: Vec<GlobalSubId> = self
            .origin
            .iter()
            .filter(|(_, o)| matches!(o, SubOrigin::Neighbor(n) if *n == neighbor))
            .map(|(s, _)| *s)
            .collect();
        for sub in gone {
            self.remove_sub(sub);
        }
        self.sync_advertisements()
    }

    /// Re-send every current advertisement (mesh mode): the periodic
    /// refresh that lets routing tables converge after arbitrary
    /// join/leave/crash churn even if a peer missed a diff. No-op on
    /// tree nodes, whose diffs are lossless by construction.
    pub fn refresh(&mut self) -> Vec<(NodeId, PeerMsg)> {
        match self.mesh.as_mut() {
            Some(router) => {
                router.clear_advertised();
                self.mesh_sync()
            }
            None => Vec::new(),
        }
    }

    /// Place a subscription for a locally attached client. Returns the
    /// advertisements to propagate.
    ///
    /// The caller mints `sub`; it must be unique across the whole overlay
    /// (a federation of daemons namespaces the id space per broker). The
    /// node files the `Arc` it is given in every table it keeps; only the
    /// advertisements it returns carry copies.
    pub fn subscribe_local(
        &mut self,
        sub: GlobalSubId,
        client: ClientId,
        filter: impl Into<Arc<Filter>>,
    ) -> Vec<(NodeId, PeerMsg)> {
        self.insert_sub(sub, SubOrigin::Local(client), filter.into());
        if self.mesh.is_some() {
            self.mesh_sync()
        } else {
            self.sync_advertisements()
        }
    }

    /// Withdraw a locally placed subscription. Returns the control
    /// messages to propagate. `false` means the id was unknown (no
    /// messages are produced).
    pub fn unsubscribe_local(&mut self, sub: GlobalSubId) -> Vec<(NodeId, PeerMsg)> {
        if self.remove_sub(sub) {
            if self.mesh.is_some() {
                self.mesh_sync()
            } else {
                self.sync_advertisements()
            }
        } else {
            Vec::new()
        }
    }

    /// Route an event published by a locally attached client.
    ///
    /// The returned output contains the local deliveries (the publisher's
    /// own broker may host matching subscribers) and the forwards toward
    /// interested neighbors, with hop count 0.
    pub fn publish_local(&mut self, event: PublishedEvent) -> NodeOutput {
        if let Some(router) = self.mesh.as_mut() {
            // Mark the id seen so a copy echoed back over a cycle is
            // suppressed (and counted) instead of re-delivered.
            let _ = router.first_sight(event.id);
            return self.route_event_mesh(None, event, 0);
        }
        self.route_event(None, event, 0)
    }

    /// Process one message received from neighbor `from` and return the
    /// effects: local deliveries and follow-up messages.
    ///
    /// Tree advertisements ([`PeerMsg::SubFwd`]) are ignored by mesh
    /// nodes and path-vector ones ([`PeerMsg::SubAdv`]) by tree nodes: a
    /// mixed-mode federation must not corrupt either routing table.
    pub fn handle(&mut self, from: NodeId, msg: PeerMsg) -> NodeOutput {
        match msg {
            PeerMsg::SubFwd { sub, filter } => {
                if self.mesh.is_some() {
                    return NodeOutput::default();
                }
                // A SubFwd for a subscription this node already knows from
                // elsewhere is a cycle echo (the overlay is supposed to be
                // a tree, but a misconfigured federation is not). Adopting
                // it would overwrite the true origin — destroying a local
                // subscription or flipping a reverse path — so drop it;
                // only a re-advertisement from the same neighbor (a link
                // re-sync) updates the filter.
                match self.origin.get(&sub) {
                    Some(SubOrigin::Local(_)) => return NodeOutput::default(),
                    Some(SubOrigin::Neighbor(n)) if *n != from => {
                        return NodeOutput::default();
                    }
                    _ => {}
                }
                self.insert_sub(sub, SubOrigin::Neighbor(from), Arc::new(filter));
                NodeOutput::from_messages(self.sync_advertisements())
            }
            PeerMsg::SubAdv { sub, filter, path } => {
                // A SubAdv for a local subscription can only be a forged
                // or corrupted echo — the path check would catch the
                // honest case, but never risk hijacking a local origin.
                if matches!(self.origin.get(&sub), Some(SubOrigin::Local(_))) {
                    return NodeOutput::default();
                }
                let Some(router) = self.mesh.as_mut() else {
                    return NodeOutput::default();
                };
                let filter = Arc::new(filter);
                if !router.insert_route(from, sub, Arc::clone(&filter), path) {
                    return NodeOutput::default();
                }
                self.insert_sub(sub, SubOrigin::Neighbor(from), filter);
                NodeOutput::from_messages(self.mesh_sync())
            }
            PeerMsg::UnsubFwd { sub } => {
                if let Some(router) = self.mesh.as_mut() {
                    return match router.remove_route(from, sub) {
                        RouteRemoval::NotFound => NodeOutput::default(),
                        RouteRemoval::Changed => NodeOutput::from_messages(self.mesh_sync()),
                        RouteRemoval::Gone => {
                            self.remove_sub(sub);
                            NodeOutput::from_messages(self.mesh_sync())
                        }
                    };
                }
                if self.remove_sub(sub) {
                    NodeOutput::from_messages(self.sync_advertisements())
                } else {
                    NodeOutput::default()
                }
            }
            PeerMsg::EventFwd { event, hops } => {
                if hops >= MAX_HOPS {
                    return NodeOutput::default();
                }
                if let Some(router) = self.mesh.as_mut() {
                    if !router.first_sight(event.id) {
                        return NodeOutput::default();
                    }
                    return self.route_event_mesh(Some(from), event, hops + 1);
                }
                self.route_event(Some(from), event, hops + 1)
            }
            PeerMsg::Ping { nonce } => {
                NodeOutput::from_messages(vec![(from, PeerMsg::Pong { nonce })])
            }
            PeerMsg::Pong { .. } => NodeOutput::default(),
        }
    }

    /// Routing-table entries this node holds (local subscriptions plus
    /// neighbor advertisements).
    pub fn routing_entries(&self) -> usize {
        self.matcher.len()
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

    /// Everything this node currently knows: each subscription id with
    /// its filter, local and neighbor-advertised alike.
    pub fn knowledge(&self) -> impl Iterator<Item = (GlobalSubId, &Filter)> {
        self.filters.iter().map(|(sub, f)| (*sub, &**f))
    }

    fn insert_sub(&mut self, sub: GlobalSubId, origin: SubOrigin, filter: Arc<Filter>) {
        self.matcher
            .insert(SubscriptionId(sub.0), Arc::clone(&filter));
        self.origin.insert(sub, origin);
        self.filters.insert(sub, filter);
    }

    fn remove_sub(&mut self, sub: GlobalSubId) -> bool {
        let existed = self.matcher.remove(SubscriptionId(sub.0)).is_some();
        self.origin.remove(&sub);
        self.filters.remove(&sub);
        existed
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
        let candidates: BTreeMap<GlobalSubId, &Arc<Filter>> = self
            .filters
            .iter()
            .filter(|(sub, _)| match self.origin.get(sub) {
                Some(SubOrigin::Neighbor(n)) => *n != neighbor,
                Some(SubOrigin::Local(_)) => true,
                None => false,
            })
            .map(|(sub, f)| (*sub, f))
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

    /// Mesh counterpart of [`BrokerNode::sync_advertisements`]: hand the
    /// router the current locals and neighbors and let it diff what each
    /// neighbor should see (fast paths + split horizon) against what was
    /// already sent.
    fn mesh_sync(&mut self) -> Vec<(NodeId, PeerMsg)> {
        let locals: Vec<(GlobalSubId, Arc<Filter>)> = self
            .filters
            .iter()
            .filter(|(sub, _)| matches!(self.origin.get(*sub), Some(SubOrigin::Local(_))))
            .map(|(sub, filter)| (*sub, Arc::clone(filter)))
            .collect();
        let neighbors = self.neighbors.clone();
        self.mesh
            .as_mut()
            .expect("mesh_sync on mesh node")
            .sync(&neighbors, &locals)
    }

    /// Mesh event routing: deliver locally, then forward over **every**
    /// live route of each matching remote subscription (except the link
    /// the event came in on). The fast path delivers first; redundant
    /// copies are suppressed by the receivers' seen-caches, which is
    /// what lets delivery survive a link dying mid-event.
    fn route_event_mesh(
        &mut self,
        from: Option<NodeId>,
        event: PublishedEvent,
        hops: u32,
    ) -> NodeOutput {
        let router = self.mesh.as_ref().expect("mesh routing on mesh node");
        let matched = self.matcher.matches(&event.event);
        let mut local: Vec<ClientId> = Vec::new();
        let mut forward: Vec<NodeId> = Vec::new();
        for m in matched {
            let sub = GlobalSubId(m.0);
            match self.origin.get(&sub) {
                Some(SubOrigin::Local(c)) => local.push(*c),
                Some(SubOrigin::Neighbor(_)) => {
                    for link in router.via_links(sub) {
                        if Some(link) != from && !forward.contains(&link) {
                            forward.push(link);
                        }
                    }
                }
                None => {}
            }
        }
        forward.sort_unstable_by_key(|n| n.0);
        let deliveries = local.into_iter().map(|c| (c, event.clone())).collect();
        let messages = forward
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
            .collect();
        NodeOutput {
            deliveries,
            messages,
        }
    }

    /// Deliver locally and forward along interested links.
    fn route_event(
        &mut self,
        from: Option<NodeId>,
        event: PublishedEvent,
        hops: u32,
    ) -> NodeOutput {
        let matched = self.matcher.matches(&event.event);
        let mut local: Vec<ClientId> = Vec::new();
        let mut forward: Vec<NodeId> = Vec::new();
        for m in matched {
            match self.origin.get(&GlobalSubId(m.0)) {
                Some(SubOrigin::Local(c)) => local.push(*c),
                Some(SubOrigin::Neighbor(n)) if Some(*n) != from && !forward.contains(n) => {
                    forward.push(*n);
                }
                Some(SubOrigin::Neighbor(_)) | None => {}
            }
        }
        forward.sort_unstable_by_key(|n| n.0);
        let deliveries = local.into_iter().map(|c| (c, event.clone())).collect();
        let messages = forward
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
            .collect();
        NodeOutput {
            deliveries,
            messages,
        }
    }
}

/// Per-client state: attachment point and mailbox.
struct ClientState {
    broker: NodeId,
    mailbox: Vec<PublishedEvent>,
    /// Live subscriptions owned by this client.
    subs: HashSet<GlobalSubId>,
}

/// A deterministic multi-broker publish-subscribe overlay.
///
/// `Overlay` is a thin driver: it holds one [`BrokerNode`] per broker and
/// shuttles [`PeerMsg`]s between them over a [`SimTransport`] in
/// virtual-time order. All routing decisions live in the nodes; all
/// delivery and transmission lives here.
///
/// # Examples
///
/// ```
/// use reef_pubsub::{Overlay, Event, Filter};
///
/// let mut overlay = Overlay::new(true);
/// let b1 = overlay.add_broker();
/// let b2 = overlay.add_broker();
/// overlay.link(b1, b2, 10)?;
/// let alice = overlay.attach_client(b1)?;
/// let bob = overlay.attach_client(b2)?;
/// overlay.subscribe(bob, Filter::topic("news"))?;
/// overlay.run_until_idle();
/// overlay.publish(alice, Event::topical("news", "hi"))?;
/// overlay.run_until_idle();
/// assert_eq!(overlay.take_delivered(bob)?.len(), 1);
/// # Ok::<(), reef_pubsub::OverlayError>(())
/// ```
pub struct Overlay {
    transport: SimTransport,
    brokers: HashMap<NodeId, BrokerNode>,
    clients: HashMap<ClientId, ClientState>,
    covering: bool,
    /// Mesh overlays route by path vector and accept cyclic links.
    mesh: bool,
    next_client: u64,
    next_sub: u64,
    next_event: u64,
    /// Union-find over broker ids for cycle prevention (tree mode only).
    parent: HashMap<NodeId, NodeId>,
}

impl fmt::Debug for Overlay {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Overlay")
            .field("brokers", &self.brokers.len())
            .field("clients", &self.clients.len())
            .field("covering", &self.covering)
            .finish()
    }
}

impl Overlay {
    /// Create an empty overlay. `covering` enables covering-based
    /// advertisement pruning.
    pub fn new(covering: bool) -> Self {
        Overlay {
            transport: SimTransport::new(),
            brokers: HashMap::new(),
            clients: HashMap::new(),
            covering,
            mesh: false,
            next_client: 0,
            next_sub: 0,
            next_event: 0,
            parent: HashMap::new(),
        }
    }

    /// Create an empty **mesh** overlay: links may form cycles and
    /// redundant paths, brokers route by path-vector advertisement
    /// ([`BrokerNode::new_mesh`]), and [`Overlay::unlink`] /
    /// [`Overlay::crash_broker`] model churn the routing layer must
    /// survive. In the simulation a broker's federation-wide id is its
    /// [`NodeId`] value.
    pub fn new_mesh() -> Self {
        Overlay {
            transport: SimTransport::new(),
            brokers: HashMap::new(),
            clients: HashMap::new(),
            covering: false,
            mesh: true,
            next_client: 0,
            next_sub: 0,
            next_event: 0,
            parent: HashMap::new(),
        }
    }

    /// Whether this overlay routes in mesh (path-vector) mode.
    pub fn is_mesh(&self) -> bool {
        self.mesh
    }

    /// Add a broker node.
    pub fn add_broker(&mut self) -> NodeId {
        let id = self.transport.add_node();
        let node = if self.mesh {
            BrokerNode::new_mesh(id.0)
        } else {
            BrokerNode::new(self.covering)
        };
        self.brokers.insert(id, node);
        self.parent.insert(id, id);
        id
    }

    fn find_root(&mut self, mut x: NodeId) -> NodeId {
        while self.parent[&x] != x {
            let grand = self.parent[&self.parent[&x]];
            self.parent.insert(x, grand);
            x = grand;
        }
        x
    }

    /// Connect two brokers with the given one-way latency.
    ///
    /// # Errors
    ///
    /// * [`OverlayError::UnknownBroker`] if either endpoint does not exist.
    /// * [`OverlayError::WouldCreateCycle`] if the link would close a loop
    ///   in a **tree** overlay (reverse-path routing must stay
    ///   duplicate-free). Mesh overlays accept cyclic links — that is
    ///   their point.
    pub fn link(&mut self, a: NodeId, b: NodeId, latency: u64) -> Result<(), OverlayError> {
        if !self.brokers.contains_key(&a) {
            return Err(OverlayError::UnknownBroker(a));
        }
        if !self.brokers.contains_key(&b) {
            return Err(OverlayError::UnknownBroker(b));
        }
        if self.mesh {
            self.transport.connect(a, b, latency);
            let sync_a = self
                .brokers
                .get_mut(&a)
                .expect("checked")
                .add_mesh_neighbor(b, b.0);
            self.send_all(a, sync_a);
            let sync_b = self
                .brokers
                .get_mut(&b)
                .expect("checked")
                .add_mesh_neighbor(a, a.0);
            self.send_all(b, sync_b);
            return Ok(());
        }
        let (ra, rb) = (self.find_root(a), self.find_root(b));
        if ra == rb {
            return Err(OverlayError::WouldCreateCycle(a, b));
        }
        self.parent.insert(ra, rb);
        self.transport.connect(a, b, latency);
        let sync_a = self.brokers.get_mut(&a).expect("checked").add_neighbor(b);
        self.send_all(a, sync_a);
        let sync_b = self.brokers.get_mut(&b).expect("checked").add_neighbor(a);
        self.send_all(b, sync_b);
        Ok(())
    }

    /// Kill the link between two brokers (mesh only): in-flight messages
    /// on the link are lost, both ends tear down routes learned through
    /// it and push the routing diff to their surviving neighbors.
    ///
    /// # Errors
    ///
    /// [`OverlayError::RequiresMesh`] on a tree overlay,
    /// [`OverlayError::UnknownBroker`] / [`OverlayError::NoSuchLink`] for
    /// bad endpoints.
    pub fn unlink(&mut self, a: NodeId, b: NodeId) -> Result<(), OverlayError> {
        if !self.mesh {
            return Err(OverlayError::RequiresMesh);
        }
        if !self.brokers.contains_key(&a) {
            return Err(OverlayError::UnknownBroker(a));
        }
        if !self.brokers.contains_key(&b) {
            return Err(OverlayError::UnknownBroker(b));
        }
        if !self.transport.disconnect(a, b) {
            return Err(OverlayError::NoSuchLink(a, b));
        }
        let out_a = self
            .brokers
            .get_mut(&a)
            .expect("checked")
            .remove_neighbor(b);
        self.send_all(a, out_a);
        let out_b = self
            .brokers
            .get_mut(&b)
            .expect("checked")
            .remove_neighbor(a);
        self.send_all(b, out_b);
        Ok(())
    }

    /// Crash a broker (mesh only): every link it held dies as in
    /// [`Overlay::unlink`], its clients (and their subscriptions) vanish
    /// with it, and the surviving brokers converge on routes that avoid
    /// it.
    ///
    /// # Errors
    ///
    /// [`OverlayError::RequiresMesh`] on a tree overlay,
    /// [`OverlayError::UnknownBroker`] if the broker does not exist.
    pub fn crash_broker(&mut self, broker: NodeId) -> Result<(), OverlayError> {
        if !self.mesh {
            return Err(OverlayError::RequiresMesh);
        }
        if !self.brokers.contains_key(&broker) {
            return Err(OverlayError::UnknownBroker(broker));
        }
        let peers: Vec<NodeId> = self
            .brokers
            .iter()
            .filter(|(id, node)| **id != broker && node.neighbors().contains(&broker))
            .map(|(id, _)| *id)
            .collect();
        for peer in peers {
            self.transport.disconnect(peer, broker);
            let out = self
                .brokers
                .get_mut(&peer)
                .expect("peer exists")
                .remove_neighbor(broker);
            self.send_all(peer, out);
        }
        self.brokers.remove(&broker);
        self.clients.retain(|_, state| state.broker != broker);
        Ok(())
    }

    /// Drive one periodic refresh round: every broker re-sends its
    /// current advertisements (no-op per node on tree overlays). Call
    /// [`Overlay::run_until_idle`] afterwards to let tables converge.
    pub fn refresh_all(&mut self) {
        let mut ids: Vec<NodeId> = self.brokers.keys().copied().collect();
        ids.sort_unstable_by_key(|n| n.0);
        for id in ids {
            let messages = self
                .brokers
                .get_mut(&id)
                .expect("listed broker exists")
                .refresh();
            self.send_all(id, messages);
        }
    }

    /// Attach a client to a broker.
    ///
    /// # Errors
    ///
    /// Returns [`OverlayError::UnknownBroker`] if the broker does not exist.
    pub fn attach_client(&mut self, broker: NodeId) -> Result<ClientId, OverlayError> {
        if !self.brokers.contains_key(&broker) {
            return Err(OverlayError::UnknownBroker(broker));
        }
        let id = ClientId(self.next_client);
        self.next_client += 1;
        self.clients.insert(
            id,
            ClientState {
                broker,
                mailbox: Vec::new(),
                subs: HashSet::new(),
            },
        );
        Ok(id)
    }

    /// Place a subscription for `client`. Propagation messages are queued;
    /// call [`Overlay::run_until_idle`] to flush them through the tree.
    ///
    /// # Errors
    ///
    /// Returns [`OverlayError::UnknownClient`] if the client is not
    /// attached.
    pub fn subscribe(
        &mut self,
        client: ClientId,
        filter: Filter,
    ) -> Result<GlobalSubId, OverlayError> {
        let broker_id = self
            .clients
            .get(&client)
            .ok_or(OverlayError::UnknownClient(client))?
            .broker;
        let sub = GlobalSubId(self.next_sub);
        self.next_sub += 1;
        let broker = self
            .brokers
            .get_mut(&broker_id)
            .expect("client broker exists");
        let messages = broker.subscribe_local(sub, client, filter);
        self.clients
            .get_mut(&client)
            .expect("checked")
            .subs
            .insert(sub);
        self.send_all(broker_id, messages);
        Ok(sub)
    }

    /// Withdraw a subscription.
    ///
    /// # Errors
    ///
    /// Returns [`OverlayError::UnknownClient`] if no client owns `sub`.
    pub fn unsubscribe(&mut self, sub: GlobalSubId) -> Result<(), OverlayError> {
        let owner = self
            .clients
            .iter()
            .find(|(_, c)| c.subs.contains(&sub))
            .map(|(id, c)| (*id, c.broker));
        let (client, broker_id) = owner.ok_or(OverlayError::UnknownClient(ClientId(u64::MAX)))?;
        self.clients
            .get_mut(&client)
            .expect("checked")
            .subs
            .remove(&sub);
        let broker = self
            .brokers
            .get_mut(&broker_id)
            .expect("client broker exists");
        let messages = broker.unsubscribe_local(sub);
        self.send_all(broker_id, messages);
        Ok(())
    }

    /// Publish an event from `client`. Local deliveries happen immediately;
    /// remote deliveries after [`Overlay::run_until_idle`].
    ///
    /// # Errors
    ///
    /// Returns [`OverlayError::UnknownClient`] if the client is not
    /// attached.
    pub fn publish(&mut self, client: ClientId, event: Event) -> Result<EventId, OverlayError> {
        let broker_id = self
            .clients
            .get(&client)
            .ok_or(OverlayError::UnknownClient(client))?
            .broker;
        let id = EventId(self.next_event);
        self.next_event += 1;
        let published = PublishedEvent {
            id,
            published_at: self.transport.now(),
            event,
        };
        let output = self
            .brokers
            .get_mut(&broker_id)
            .expect("client broker exists")
            .publish_local(published);
        self.apply(broker_id, output);
        Ok(id)
    }

    /// Hand a node's requested effects to the mailboxes and the transport.
    fn apply(&mut self, at: NodeId, output: NodeOutput) {
        for (client, event) in output.deliveries {
            if let Some(state) = self.clients.get_mut(&client) {
                state.mailbox.push(event);
            }
        }
        self.send_all(at, output.messages);
    }

    fn send_all(&mut self, from: NodeId, messages: Vec<(NodeId, PeerMsg)>) {
        for (to, msg) in messages {
            self.transport.send(from, to, msg).expect("linked neighbor");
        }
    }

    /// Process queued messages until the network is idle. Returns the number
    /// of messages processed.
    pub fn run_until_idle(&mut self) -> usize {
        let mut processed = 0;
        while let Some(delivery) = self.transport.recv() {
            processed += 1;
            let output = self
                .brokers
                .get_mut(&delivery.dst)
                .expect("broker exists")
                .handle(delivery.src, delivery.msg);
            self.apply(delivery.dst, output);
        }
        processed
    }

    /// Take all events delivered to `client` so far.
    ///
    /// # Errors
    ///
    /// Returns [`OverlayError::UnknownClient`] if the client is not
    /// attached.
    pub fn take_delivered(
        &mut self,
        client: ClientId,
    ) -> Result<Vec<PublishedEvent>, OverlayError> {
        let state = self
            .clients
            .get_mut(&client)
            .ok_or(OverlayError::UnknownClient(client))?;
        Ok(std::mem::take(&mut state.mailbox))
    }

    /// Aggregate network statistics (messages, bytes, in-flight).
    pub fn net_stats(&self) -> NetStats {
        self.transport.stats()
    }

    /// Total routing-table entries across all brokers (known subscriptions,
    /// local + remote). The covering ablation compares this with covering
    /// on and off.
    pub fn routing_entries(&self) -> usize {
        self.brokers.values().map(BrokerNode::routing_entries).sum()
    }

    /// Routing-table entries held by one broker.
    ///
    /// # Errors
    ///
    /// Returns [`OverlayError::UnknownBroker`] if the broker does not exist.
    pub fn routing_entries_at(&self, broker: NodeId) -> Result<usize, OverlayError> {
        self.brokers
            .get(&broker)
            .map(BrokerNode::routing_entries)
            .ok_or(OverlayError::UnknownBroker(broker))
    }

    /// Total advertisements currently held toward neighbors.
    pub fn advertisement_count(&self) -> usize {
        self.brokers
            .values()
            .map(BrokerNode::advertisement_count)
            .sum()
    }

    /// Failover routes held beyond fast paths, summed across brokers
    /// (mesh overlays; always 0 on trees).
    pub fn mesh_alternates(&self) -> usize {
        self.brokers.values().map(BrokerNode::mesh_alternates).sum()
    }

    /// Fast-path promotions after route loss, summed across brokers.
    pub fn mesh_reroutes(&self) -> u64 {
        self.brokers.values().map(BrokerNode::mesh_reroutes).sum()
    }

    /// Duplicate event copies suppressed, summed across brokers.
    pub fn mesh_duplicates_suppressed(&self) -> u64 {
        self.brokers
            .values()
            .map(BrokerNode::mesh_duplicates_suppressed)
            .sum()
    }

    /// Current virtual time of the underlying network.
    pub fn now(&self) -> u64 {
        self.transport.now()
    }

    /// Number of brokers.
    pub fn broker_count(&self) -> usize {
        self.brokers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::Op;

    /// Build a 3-broker chain b0 - b1 - b2 with one client per broker.
    fn chain() -> (Overlay, Vec<NodeId>, Vec<ClientId>) {
        let mut ov = Overlay::new(true);
        let brokers: Vec<NodeId> = (0..3).map(|_| ov.add_broker()).collect();
        ov.link(brokers[0], brokers[1], 5).unwrap();
        ov.link(brokers[1], brokers[2], 5).unwrap();
        let clients: Vec<ClientId> = brokers
            .iter()
            .map(|b| ov.attach_client(*b).unwrap())
            .collect();
        (ov, brokers, clients)
    }

    #[test]
    fn event_crosses_the_tree_to_remote_subscriber() {
        let (mut ov, _b, c) = chain();
        ov.subscribe(c[2], Filter::topic("t")).unwrap();
        ov.run_until_idle();
        ov.publish(c[0], Event::topical("t", "x")).unwrap();
        ov.run_until_idle();
        assert_eq!(ov.take_delivered(c[2]).unwrap().len(), 1);
        assert!(ov.take_delivered(c[0]).unwrap().is_empty());
        assert!(ov.take_delivered(c[1]).unwrap().is_empty());
    }

    #[test]
    fn local_delivery_is_immediate() {
        let (mut ov, _b, c) = chain();
        ov.subscribe(c[0], Filter::topic("t")).unwrap();
        ov.publish(c[0], Event::topical("t", "x")).unwrap();
        // No run_until_idle needed for same-broker delivery.
        assert_eq!(ov.take_delivered(c[0]).unwrap().len(), 1);
    }

    #[test]
    fn non_matching_events_are_not_forwarded() {
        let (mut ov, _b, c) = chain();
        ov.subscribe(c[2], Filter::topic("t")).unwrap();
        ov.run_until_idle();
        let before = ov.net_stats().messages;
        ov.publish(c[0], Event::topical("other", "x")).unwrap();
        ov.run_until_idle();
        assert_eq!(ov.net_stats().messages, before);
        assert!(ov.take_delivered(c[2]).unwrap().is_empty());
    }

    #[test]
    fn unsubscribe_withdraws_interest() {
        let (mut ov, _b, c) = chain();
        let sub = ov.subscribe(c[2], Filter::topic("t")).unwrap();
        ov.run_until_idle();
        ov.unsubscribe(sub).unwrap();
        ov.run_until_idle();
        ov.publish(c[0], Event::topical("t", "x")).unwrap();
        ov.run_until_idle();
        assert!(ov.take_delivered(c[2]).unwrap().is_empty());
        assert_eq!(ov.routing_entries(), 0);
    }

    #[test]
    fn covering_prunes_advertisements() {
        let run = |covering: bool| -> (usize, u64) {
            let mut ov = Overlay::new(covering);
            let b0 = ov.add_broker();
            let b1 = ov.add_broker();
            ov.link(b0, b1, 1).unwrap();
            let c = ov.attach_client(b0).unwrap();
            // One wide filter plus many narrow ones it covers.
            ov.subscribe(c, Filter::new().and("x", Op::Gt, 0)).unwrap();
            for i in 1..20 {
                ov.subscribe(
                    c,
                    Filter::new().and("x", Op::Gt, 0).and("y", Op::Eq, i as i64),
                )
                .unwrap();
            }
            ov.run_until_idle();
            (ov.advertisement_count(), ov.net_stats().messages)
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
        let mut ov = Overlay::new(true);
        let b0 = ov.add_broker();
        let b1 = ov.add_broker();
        ov.link(b0, b1, 1).unwrap();
        let wide = ov.attach_client(b0).unwrap();
        let narrow = ov.attach_client(b0).unwrap();
        let publisher = ov.attach_client(b1).unwrap();
        ov.subscribe(wide, Filter::new().and("x", Op::Gt, 0))
            .unwrap();
        ov.subscribe(narrow, Filter::new().and("x", Op::Gt, 5))
            .unwrap();
        ov.run_until_idle();
        ov.publish(publisher, Event::builder().attr("x", 10).build())
            .unwrap();
        ov.run_until_idle();
        assert_eq!(ov.take_delivered(wide).unwrap().len(), 1);
        assert_eq!(ov.take_delivered(narrow).unwrap().len(), 1);
    }

    #[test]
    fn unsubscribing_covering_filter_readvertises_covered() {
        let mut ov = Overlay::new(true);
        let b0 = ov.add_broker();
        let b1 = ov.add_broker();
        ov.link(b0, b1, 1).unwrap();
        let c0 = ov.attach_client(b0).unwrap();
        let c1 = ov.attach_client(b1).unwrap();
        let wide = ov.subscribe(c0, Filter::new().and("x", Op::Gt, 0)).unwrap();
        ov.subscribe(c0, Filter::new().and("x", Op::Gt, 5)).unwrap();
        ov.run_until_idle();
        assert_eq!(ov.advertisement_count(), 1);
        ov.unsubscribe(wide).unwrap();
        ov.run_until_idle();
        // The narrow filter must now be advertised and still routable.
        assert_eq!(ov.advertisement_count(), 1);
        ov.publish(c1, Event::builder().attr("x", 10).build())
            .unwrap();
        ov.run_until_idle();
        assert_eq!(ov.take_delivered(c0).unwrap().len(), 1);
    }

    #[test]
    fn cycle_links_are_rejected() {
        let mut ov = Overlay::new(true);
        let a = ov.add_broker();
        let b = ov.add_broker();
        let c = ov.add_broker();
        ov.link(a, b, 1).unwrap();
        ov.link(b, c, 1).unwrap();
        assert!(matches!(
            ov.link(a, c, 1),
            Err(OverlayError::WouldCreateCycle(_, _))
        ));
    }

    #[test]
    fn identical_filters_from_different_clients_both_deliver() {
        let (mut ov, _b, c) = chain();
        ov.subscribe(c[0], Filter::topic("t")).unwrap();
        ov.subscribe(c[2], Filter::topic("t")).unwrap();
        ov.run_until_idle();
        ov.publish(c[1], Event::topical("t", "x")).unwrap();
        ov.run_until_idle();
        assert_eq!(ov.take_delivered(c[0]).unwrap().len(), 1);
        assert_eq!(ov.take_delivered(c[2]).unwrap().len(), 1);
    }

    #[test]
    fn star_topology_fanout() {
        let mut ov = Overlay::new(true);
        let hub = ov.add_broker();
        let mut leaf_clients = Vec::new();
        for _ in 0..5 {
            let leaf = ov.add_broker();
            ov.link(hub, leaf, 2).unwrap();
            let c = ov.attach_client(leaf).unwrap();
            ov.subscribe(c, Filter::topic("t")).unwrap();
            leaf_clients.push(c);
        }
        let publisher = ov.attach_client(hub).unwrap();
        ov.run_until_idle();
        ov.publish(publisher, Event::topical("t", "x")).unwrap();
        ov.run_until_idle();
        for c in leaf_clients {
            assert_eq!(ov.take_delivered(c).unwrap().len(), 1);
        }
    }

    #[test]
    fn unknown_ids_error() {
        let mut ov = Overlay::new(true);
        assert!(matches!(
            ov.attach_client(NodeId(9)),
            Err(OverlayError::UnknownBroker(_))
        ));
        assert!(matches!(
            ov.subscribe(ClientId(9), Filter::new()),
            Err(OverlayError::UnknownClient(_))
        ));
        assert!(matches!(
            ov.publish(ClientId(9), Event::new()),
            Err(OverlayError::UnknownClient(_))
        ));
        assert!(matches!(
            ov.unsubscribe(GlobalSubId(9)),
            Err(OverlayError::UnknownClient(_))
        ));
    }

    #[test]
    fn deep_chain_propagation() {
        let mut ov = Overlay::new(true);
        let brokers: Vec<NodeId> = (0..8).map(|_| ov.add_broker()).collect();
        for w in brokers.windows(2) {
            ov.link(w[0], w[1], 3).unwrap();
        }
        let first = ov.attach_client(brokers[0]).unwrap();
        let last = ov.attach_client(brokers[7]).unwrap();
        ov.subscribe(last, Filter::topic("deep")).unwrap();
        ov.run_until_idle();
        ov.publish(first, Event::topical("deep", "x")).unwrap();
        ov.run_until_idle();
        let got = ov.take_delivered(last).unwrap();
        assert_eq!(got.len(), 1);
        // 7 hops * 3 latency each, at minimum.
        assert!(ov.now() >= 21);
    }

    // ------------------------------------------------------------------
    // Sans-io BrokerNode unit tests: the core driven entirely by hand,
    // with no transport at all.
    // ------------------------------------------------------------------

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
        assert_eq!(out.deliveries.len(), 0);
        assert_eq!(out.messages.len(), 1);
        assert_eq!(out.messages[0].0, b);
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
        assert!(out.deliveries.is_empty(), "event at hop limit is dropped");
        assert!(out.messages.is_empty());
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
        // The local subscription still routes.
        let delivered = node.handle(
            b,
            PeerMsg::EventFwd {
                event: published(Event::topical("t", "x")),
                hops: 0,
            },
        );
        assert_eq!(delivered.deliveries.len(), 1);
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

    // ------------------------------------------------------------------
    // Mesh overlay: cyclic topologies, link loss, failover.
    // ------------------------------------------------------------------

    /// 3-broker ring b0 - b1 - b2 - b0 with one client per broker.
    fn mesh_ring() -> (Overlay, Vec<NodeId>, Vec<ClientId>) {
        let mut ov = Overlay::new_mesh();
        let brokers: Vec<NodeId> = (0..3).map(|_| ov.add_broker()).collect();
        ov.link(brokers[0], brokers[1], 5).unwrap();
        ov.link(brokers[1], brokers[2], 5).unwrap();
        ov.link(brokers[2], brokers[0], 5).unwrap();
        let clients: Vec<ClientId> = brokers
            .iter()
            .map(|b| ov.attach_client(*b).unwrap())
            .collect();
        (ov, brokers, clients)
    }

    #[test]
    fn mesh_accepts_cyclic_links() {
        let (ov, _b, _c) = mesh_ring();
        assert!(ov.is_mesh());
    }

    #[test]
    fn mesh_ring_delivers_exactly_once_and_suppresses_duplicates() {
        let (mut ov, _b, c) = mesh_ring();
        ov.subscribe(c[2], Filter::topic("t")).unwrap();
        ov.run_until_idle();
        // The subscriber's broker holds an alternate route somewhere in
        // the ring (two disjoint paths from any publisher).
        assert!(ov.mesh_alternates() > 0, "ring yields redundant routes");
        ov.publish(c[0], Event::topical("t", "x")).unwrap();
        ov.run_until_idle();
        assert_eq!(ov.take_delivered(c[2]).unwrap().len(), 1, "exactly once");
        assert!(
            ov.mesh_duplicates_suppressed() > 0,
            "the redundant copy was suppressed, not delivered"
        );
    }

    #[test]
    fn mesh_link_kill_fails_over_to_alternate_path() {
        let (mut ov, b, c) = mesh_ring();
        ov.subscribe(c[2], Filter::topic("t")).unwrap();
        ov.run_until_idle();
        // Kill the direct b0-b2 link; the b0-b1-b2 path must take over.
        ov.unlink(b[0], b[2]).unwrap();
        ov.run_until_idle();
        ov.publish(c[0], Event::topical("t", "x")).unwrap();
        ov.run_until_idle();
        assert_eq!(ov.take_delivered(c[2]).unwrap().len(), 1);
        assert!(ov.mesh_reroutes() > 0, "losing the fast path is a reroute");
    }

    #[test]
    fn mesh_unsubscribe_withdraws_all_routes() {
        let (mut ov, _b, c) = mesh_ring();
        let sub = ov.subscribe(c[2], Filter::topic("t")).unwrap();
        ov.run_until_idle();
        assert!(ov.routing_entries() > 0);
        ov.unsubscribe(sub).unwrap();
        ov.run_until_idle();
        assert_eq!(ov.routing_entries(), 0);
        ov.publish(c[0], Event::topical("t", "x")).unwrap();
        ov.run_until_idle();
        assert!(ov.take_delivered(c[2]).unwrap().is_empty());
    }

    #[test]
    fn mesh_crash_reroutes_around_dead_broker() {
        // Diamond: 0-1, 0-2, 1-3, 2-3. Subscriber at 3, publisher at 0.
        let mut ov = Overlay::new_mesh();
        let b: Vec<NodeId> = (0..4).map(|_| ov.add_broker()).collect();
        ov.link(b[0], b[1], 1).unwrap();
        ov.link(b[0], b[2], 1).unwrap();
        ov.link(b[1], b[3], 1).unwrap();
        ov.link(b[2], b[3], 1).unwrap();
        let publisher = ov.attach_client(b[0]).unwrap();
        let subscriber = ov.attach_client(b[3]).unwrap();
        ov.subscribe(subscriber, Filter::topic("t")).unwrap();
        ov.run_until_idle();
        ov.crash_broker(b[1]).unwrap();
        ov.run_until_idle();
        ov.publish(publisher, Event::topical("t", "x")).unwrap();
        ov.run_until_idle();
        assert_eq!(
            ov.take_delivered(subscriber).unwrap().len(),
            1,
            "delivery survives the crash via 0-2-3"
        );
        assert_eq!(ov.broker_count(), 3);
    }

    #[test]
    fn mesh_refresh_is_idempotent_when_converged() {
        let (mut ov, _b, c) = mesh_ring();
        ov.subscribe(c[2], Filter::topic("t")).unwrap();
        ov.run_until_idle();
        let entries = ov.routing_entries();
        let ads = ov.advertisement_count();
        ov.refresh_all();
        ov.run_until_idle();
        assert_eq!(ov.routing_entries(), entries);
        assert_eq!(ov.advertisement_count(), ads);
    }

    #[test]
    fn tree_overlay_rejects_mesh_churn_operations() {
        let (mut ov, b, _c) = chain();
        assert!(matches!(
            ov.unlink(b[0], b[1]),
            Err(OverlayError::RequiresMesh)
        ));
        assert!(matches!(
            ov.crash_broker(b[0]),
            Err(OverlayError::RequiresMesh)
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
