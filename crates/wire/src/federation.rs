//! Broker federation: the sans-io routing core driven over TCP.
//!
//! `reef-pubsub` ships the routing brain — [`BrokerNode`], a state machine
//! that consumes and emits [`PeerMsg`]s but performs no I/O — and drives
//! it over a simulated network in `Overlay`. This module is the other
//! driver: the same core, the same messages, but carried between daemons
//! on OS sockets.
//!
//! [`Federation`] owns the [`BrokerNode`], the registry of peer links and
//! the queues between them; the server's event loop moves the bytes.
//! Shard 0 of the loop owns every peer socket: it reads `PeerMsg` frames
//! into [`Federation::incoming`], routes them through the core
//! (`drain_incoming` — `Overlay::run_until_idle` in continuous,
//! wall-clock form), encodes each link's outgoing queue into the socket's
//! outbound buffer, and runs `tick` for keepalive and mesh refresh. The
//! federation reaches the loop through one hook, registered once: dialed
//! sockets are handed to it, and every enqueue on a link wakes it.
//!
//! # Backpressure
//!
//! Each peer link bounds its outgoing *event* queue (control messages —
//! subscription forwards and cancels — are never dropped, routing state
//! must stay coherent). A full event queue counts a drop in the link's
//! [`WireStats`] and the federation totals. The loop stops encoding a
//! link's queue at its outbound-buffer watermark, and evicts a peer whose
//! pending output makes no progress for the server's write timeout; the
//! link is then torn down.
//!
//! # Identity
//!
//! Peers identify themselves at handshake with a broker name and a
//! federation-wide `broker_id`; subscription ids are namespaced as
//! `broker_id << 32 | counter` so independently minted ids never collide.
//! Link endpoints ([`NodeId`]) are purely local handles: `0` is this
//! broker, `1..` its peer links, exactly as `BrokerNode` expects.
//!
//! # Codecs
//!
//! Each peer link negotiates its codec like any other connection: the
//! dialing broker's `PeerHello` frame carries its configured codec's
//! version byte ([`FederationConfig::codec`], default binary), the
//! acceptor adopts it, and every `PeerMsg` frame on the link uses it
//! from then on. Per-codec frame/byte counters aggregate across links
//! into [`FederationStatsSnapshot`].
//!
//! # Duplicate-subscription aggregation
//!
//! Identical filters from many local clients — identical by
//! [`FilterKey`], so whatever the order of their predicates or the numeric
//! type of their operands — collapse into **one** routing-core entry with
//! a reference count: the first subscription
//! advertises the filter to peers, later identical ones only bump the
//! count (counted as `subs_aggregated`), and the advertisement is
//! withdrawn only when the count returns to zero. Remote events matching
//! the shared entry fan out to every member subscription on delivery, so
//! aggregation is invisible to subscribers — it only shrinks peer-link
//! churn.
//!
//! The group's [`FilterKey`] and the routing core's tables all hold the
//! `Arc<Filter>` the server built when the subscription arrived, the same
//! one the local [`Broker`]'s index holds: a federated filter is stored
//! once, not once per table.

use crate::codec::CodecKind;
use crate::error::WireError;
use crate::frame::Frame;
use crate::protocol::{ClientFrame, Request, Response, ServerFrame};
use crate::stats::{FederationStatsSnapshot, PeerStatsSnapshot, WireStats};
use crossbeam::channel::{self, Receiver, Sender};
use parking_lot::Mutex;
use reef_pubsub::net::TransportDelivery;
use reef_pubsub::{
    Broker, BrokerNode, ClientId, Clock, Event, Filter, FilterKey, GlobalSubId, NodeId, PeerMsg,
    PublishOutcome, PublishedEvent, SubscriptionId, SystemClock,
};
use std::collections::HashMap;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// Link id of the local broker in its own routing core.
pub const LOCAL_NODE: NodeId = NodeId(0);

/// Read timeout applied during the peer handshake only.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(10);

/// First redial delay after a dialed peer link dies (doubles per failed
/// attempt).
const REDIAL_INITIAL: Duration = Duration::from_millis(100);

/// Cap on the exponential redial backoff.
const REDIAL_CAP: Duration = Duration::from_secs(5);

/// Slice length for interruptible backoff sleeps, so shutdown never
/// waits out a full backoff period.
const REDIAL_SLICE: Duration = Duration::from_millis(25);

/// Tunables for a broker's federation layer.
#[derive(Debug, Clone)]
pub struct FederationConfig {
    /// Broker name announced to peers.
    pub name: String,
    /// Enable covering-based advertisement pruning (default `true`).
    pub covering: bool,
    /// Bound on each peer link's outgoing event queue (default 1024).
    pub peer_queue_capacity: usize,
    /// Codec used when dialing peers (default binary). Accepted peers
    /// negotiate their own codec per link.
    pub codec: CodecKind,
    /// Re-dial dead dialed links with capped exponential backoff
    /// (default `false`).
    pub peer_retry: bool,
    /// Route in mesh (path-vector) mode: the overlay may contain cycles
    /// and redundant links, advertisements carry broker-id paths, and
    /// duplicate events are suppressed by a bounded seen-cache. All
    /// federated brokers must agree on this flag. Default `false`
    /// (tree).
    pub mesh: bool,
    /// Interval between periodic full re-advertisements in mesh mode,
    /// so routing tables converge after arbitrary churn even if a peer
    /// missed a diff. `Duration::ZERO` disables the refresh. Ignored in
    /// tree mode. Default 5 s.
    pub route_refresh: Duration,
    /// Keepalive deadline on peer links: a link idle for a third of
    /// this is pinged, and one silent past the full deadline is
    /// declared dead and torn down (failover then promotes alternate
    /// routes in mesh mode). `None` disables keepalive. Default 10 s.
    pub peer_timeout: Option<Duration>,
    /// Clock driving keepalive and refresh timers. Defaults to
    /// [`SystemClock`]; deterministic tests inject a
    /// [`reef_pubsub::ManualClock`] and advance virtual time explicitly.
    pub clock: Arc<dyn Clock>,
    /// Largest frame accepted off a peer link before the connection is
    /// torn down (default [`crate::frame::MAX_FRAME_LEN`]). Checked
    /// against the length prefix *before* any buffer is reserved, so a
    /// hostile length cannot force a huge allocation.
    pub max_frame: usize,
}

impl Default for FederationConfig {
    fn default() -> Self {
        FederationConfig {
            name: "reefd".to_owned(),
            covering: true,
            peer_queue_capacity: 1024,
            codec: CodecKind::default(),
            peer_retry: false,
            mesh: false,
            route_refresh: Duration::from_secs(5),
            peer_timeout: Some(Duration::from_secs(10)),
            clock: SystemClock::shared(),
            max_frame: crate::frame::MAX_FRAME_LEN,
        }
    }
}

/// Hook the server's event loop registers with
/// [`Federation::set_loop_hook`] so peer links reach it: freshly dialed
/// sockets are adopted onto the loop, and every enqueue on a link's
/// outgoing queue wakes it.
pub(crate) trait PeerLoopHook: Send + Sync {
    /// Take ownership of a dialed peer socket for link `node`.
    fn adopt_socket(&self, node: NodeId, stream: TcpStream);
    /// Wake the loop: link queues or the inbound routing queue have work.
    fn wake(&self);
}

/// One live broker-to-broker connection.
pub(crate) struct PeerLink {
    pub(crate) node: NodeId,
    broker_name: String,
    peer_addr: String,
    /// Codec negotiated at handshake; every frame on the link uses it.
    pub(crate) codec: CodecKind,
    /// `Some(addr)` when this end dialed the link — the address a redial
    /// loop re-targets when the link dies and `peer_retry` is on.
    dialed_addr: Option<String>,
    /// Clone of the loop's socket, used only for `shutdown`: closing it
    /// from any thread (keepalive deadline, federation shutdown) makes the
    /// loop see the hangup and drop the connection.
    control: TcpStream,
    out_tx: Sender<PeerMsg>,
    /// Receiving side of the outgoing queue, drained by the event loop
    /// into the socket's outbound buffer.
    pub(crate) out_rx: Receiver<PeerMsg>,
    /// Events currently queued on `out_tx` (control messages are exempt
    /// from the bound).
    pub(crate) queued_events: AtomicUsize,
    pub(crate) stats: WireStats,
    /// Milliseconds (on the federation's clock) a frame was last read
    /// off this link — any inbound traffic counts as proof of life.
    last_rx: AtomicU64,
    /// When the last keepalive probe went out, so an idle link is pinged
    /// once per probe window rather than once per tick.
    last_ping: AtomicU64,
}

impl PeerLink {
    fn close_socket(&self) {
        let _ = self.control.shutdown(Shutdown::Both);
    }
}

/// Registry of live peer links plus the inbound message queue they feed.
pub(crate) struct Links {
    map: Mutex<HashMap<NodeId, Arc<PeerLink>>>,
    incoming_tx: Sender<TransportDelivery>,
    event_cap: usize,
    subs_forwarded: AtomicU64,
    pub(crate) events_forwarded: AtomicU64,
    pub(crate) events_dropped: AtomicU64,
    /// Aggregate transport counters across all peer links, live and
    /// dead (per-link stats die with their link; these persist and feed
    /// the per-codec federation totals).
    pub(crate) wire: WireStats,
    /// The event loop's hook, set once when the loop starts.
    hook: OnceLock<Arc<dyn PeerLoopHook>>,
}

impl Links {
    /// Queue one outgoing message toward `dst`. Control messages always
    /// queue; events are dropped (and counted) when the link's event
    /// queue is at capacity or the link is gone.
    fn enqueue(&self, dst: NodeId, msg: PeerMsg) {
        let link = self.map.lock().get(&dst).cloned();
        let Some(link) = link else {
            if matches!(msg, PeerMsg::EventFwd { .. }) {
                self.events_dropped.fetch_add(1, Ordering::Relaxed);
            }
            return;
        };
        match msg {
            PeerMsg::EventFwd { .. } => {
                if link.queued_events.load(Ordering::Relaxed) >= self.event_cap {
                    self.events_dropped.fetch_add(1, Ordering::Relaxed);
                    link.stats.record_delivery_drop();
                    return;
                }
                link.queued_events.fetch_add(1, Ordering::Relaxed);
                if link.out_tx.try_send(msg).is_err() {
                    link.queued_events.fetch_sub(1, Ordering::Relaxed);
                    self.events_dropped.fetch_add(1, Ordering::Relaxed);
                    link.stats.record_delivery_drop();
                } else {
                    self.events_forwarded.fetch_add(1, Ordering::Relaxed);
                }
            }
            ctrl => {
                if matches!(ctrl, PeerMsg::SubFwd { .. }) {
                    self.subs_forwarded.fetch_add(1, Ordering::Relaxed);
                }
                let _ = link.out_tx.try_send(ctrl);
            }
        }
        // Poke the loop so it drains what was just enqueued.
        if let Some(hook) = self.hook.get() {
            hook.wake();
        }
    }
}

/// A broker's federation layer: the sans-io [`BrokerNode`] routing core
/// and its TCP peer links, driven by the server's event loop.
///
/// The [`crate::BrokerServer`] owns one `Federation` and forwards every
/// local subscribe / unsubscribe / publish into it; the federation takes
/// care of advertising subscriptions to peers (covering-pruned), routing
/// remote events into the local [`Broker`]'s subscriber queues, and
/// forwarding local events toward interested peers.
pub struct Federation {
    name: String,
    broker_id: u32,
    broker: Arc<Broker>,
    node: Mutex<BrokerNode>,
    pub(crate) links: Links,
    /// Receiving side of the inbound routing queue, drained by
    /// `Federation::drain_incoming`.
    incoming_rx: Receiver<TransportDelivery>,
    /// Count-based aggregation of identical local filters (never locked
    /// while `node` is held).
    agg: Mutex<SubAggregation>,
    subs_aggregated: AtomicU64,
    next_sub: AtomicU64,
    next_link: AtomicU32,
    events_received: AtomicU64,
    shutdown: AtomicBool,
    /// Redial threads of dead dialed links (`peer_retry`).
    threads: Mutex<Vec<JoinHandle<()>>>,
    config: FederationConfig,
    /// Milliseconds (on `config.clock`) of the last mesh route refresh.
    last_refresh: AtomicU64,
}

/// One advertised filter shared by every local subscription with an
/// identical filter.
struct AggGroup {
    /// The filter's canonical identity (the aggregation key), holding the
    /// `Arc` of the first member's filter — the one the routing core files.
    key: FilterKey,
    /// Local wire subscriptions sharing the filter; remote deliveries
    /// fan out to each.
    members: Vec<SubscriptionId>,
}

/// Count-based duplicate-subscription aggregation: identical filters map
/// to one [`GlobalSubId`], advertised once and withdrawn only when the
/// last member unsubscribes.
#[derive(Default)]
struct SubAggregation {
    by_filter: HashMap<FilterKey, GlobalSubId>,
    groups: HashMap<GlobalSubId, AggGroup>,
    by_sub: HashMap<SubscriptionId, GlobalSubId>,
}

impl std::fmt::Debug for Federation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Federation")
            .field("name", &self.name)
            .field("broker_id", &self.broker_id)
            .field("peers", &self.links.map.lock().len())
            .finish()
    }
}

impl Federation {
    /// Create a federation layer around `broker`. `broker_id` must be
    /// unique across the federation.
    ///
    /// The federation moves no bytes itself: the event loop of the
    /// [`crate::BrokerServer`] that owns it registers a hook and drives
    /// every peer link. It must be torn down with
    /// [`Federation::shutdown`], which also stops any redial thread.
    pub fn start(broker: Arc<Broker>, broker_id: u32, config: FederationConfig) -> Arc<Federation> {
        let (incoming_tx, incoming_rx) = channel::unbounded();
        let links = Links {
            map: Mutex::new(HashMap::new()),
            incoming_tx,
            event_cap: config.peer_queue_capacity.max(1),
            subs_forwarded: AtomicU64::new(0),
            events_forwarded: AtomicU64::new(0),
            events_dropped: AtomicU64::new(0),
            wire: WireStats::new(),
            hook: OnceLock::new(),
        };
        let node = if config.mesh {
            BrokerNode::new_mesh(broker_id)
        } else {
            BrokerNode::new(config.covering)
        };
        Arc::new(Federation {
            name: config.name.clone(),
            broker_id,
            broker,
            node: Mutex::new(node),
            links,
            incoming_rx,
            agg: Mutex::new(SubAggregation::default()),
            subs_aggregated: AtomicU64::new(0),
            next_sub: AtomicU64::new(0),
            next_link: AtomicU32::new(LOCAL_NODE.0 + 1),
            events_received: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            threads: Mutex::new(Vec::new()),
            config,
            last_refresh: AtomicU64::new(0),
        })
    }

    /// Register the event loop's hook: dialed peer sockets are adopted
    /// onto the loop and every link-queue enqueue wakes it. Set once,
    /// before any peer is dialed; later calls are ignored.
    pub(crate) fn set_loop_hook(&self, hook: Arc<dyn PeerLoopHook>) {
        let _ = self.links.hook.set(hook);
    }

    /// The live link registered under `node`, if any.
    pub(crate) fn link(&self, node: NodeId) -> Option<Arc<PeerLink>> {
        self.links.map.lock().get(&node).cloned()
    }

    /// The broker name announced to peers.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// This broker's federation-wide id.
    pub fn broker_id(&self) -> u32 {
        self.broker_id
    }

    /// Number of live peer links.
    pub fn peer_count(&self) -> usize {
        self.links.map.lock().len()
    }

    /// Routing and peer-link counters.
    pub fn snapshot(&self) -> FederationStatsSnapshot {
        let (routing_entries, advertisements, alternates, reroutes, duplicates) = {
            let node = self.node.lock();
            (
                node.routing_entries(),
                node.advertisement_count(),
                node.mesh_alternates(),
                node.mesh_reroutes(),
                node.mesh_duplicates_suppressed(),
            )
        };
        let wire = self.links.wire.snapshot();
        FederationStatsSnapshot {
            broker_id: self.broker_id,
            peers: self.links.map.lock().len() as u64,
            routing_entries: routing_entries as u64,
            advertisements: advertisements as u64,
            subs_forwarded: self.links.subs_forwarded.load(Ordering::Relaxed),
            subs_aggregated: self.subs_aggregated.load(Ordering::Relaxed),
            events_forwarded: self.links.events_forwarded.load(Ordering::Relaxed),
            events_received: self.events_received.load(Ordering::Relaxed),
            events_dropped: self.links.events_dropped.load(Ordering::Relaxed),
            mesh_alternates: alternates as u64,
            mesh_reroutes: reroutes,
            mesh_duplicates_suppressed: duplicates,
            json: wire.json,
            binary: wire.binary,
        }
    }

    /// The routing core's current knowledge: subscription ids and their
    /// filters, rendered for diagnostics.
    pub fn routing_knowledge(&self) -> Vec<(GlobalSubId, String)> {
        self.node
            .lock()
            .knowledge()
            .map(|(sub, filter)| (sub, filter.to_string()))
            .collect()
    }

    /// Transport counters per live peer link.
    pub fn peer_stats(&self) -> Vec<PeerStatsSnapshot> {
        self.links
            .map
            .lock()
            .values()
            .map(|link| PeerStatsSnapshot {
                broker: link.broker_name.clone(),
                addr: link.peer_addr.clone(),
                link: link.node.0,
                codec: link.codec.name().to_owned(),
                wire: link.stats.snapshot(),
            })
            .collect()
    }

    /// Dial `addr`, perform the `PeerHello`/`PeerWelcome` handshake and
    /// register the resulting peer link on the event loop.
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] when the peer is unreachable, or a protocol /
    /// version error when the remote end is not a compatible broker or no
    /// event loop drives this federation.
    pub fn connect_peer(self: &Arc<Self>, addr: &str) -> Result<NodeId, WireError> {
        if self.shutdown.load(Ordering::SeqCst) {
            return Err(WireError::Closed);
        }
        let Some(hook) = self.links.hook.get() else {
            return Err(WireError::Protocol(
                "no event loop drives this federation's peer links".into(),
            ));
        };
        let codec = self.config.codec.codec();
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
        // The version byte of this frame is what the acceptor negotiates
        // the link's codec from.
        codec
            .encode_client(&ClientFrame {
                corr: 0,
                request: Request::PeerHello {
                    version: codec.version(),
                    broker: self.name.clone(),
                    broker_id: self.broker_id,
                },
            })?
            .write_to(&mut &stream)?;
        // Read the welcome straight off the socket, unbuffered: any bytes
        // the peer sends right after it (advertisement sync) must stay in
        // the kernel buffer so the adopting event loop sees them too.
        let frame = Frame::read_from_capped(&mut &stream, self.config.max_frame)?
            .ok_or(WireError::Closed)?;
        let (peer_name, peer_broker_id) = match codec.decode_server(&frame)? {
            ServerFrame::Reply {
                response:
                    Response::PeerWelcome {
                        version,
                        broker,
                        broker_id,
                    },
                ..
            } => {
                if version != codec.version() {
                    return Err(WireError::VersionMismatch {
                        ours: codec.version(),
                        theirs: version,
                    });
                }
                (broker, broker_id)
            }
            ServerFrame::Reply {
                response: Response::Error { message },
                ..
            } => {
                return Err(WireError::Remote(message));
            }
            other => {
                return Err(WireError::Protocol(format!(
                    "unexpected PeerHello reply: {other:?}"
                )));
            }
        };
        stream.set_read_timeout(None)?;
        let control = stream.try_clone()?;
        let link = self.register_link(
            control,
            peer_name,
            peer_broker_id,
            addr.to_owned(),
            self.config.codec,
            Some(addr.to_owned()),
        );
        // The loop owns the socket from here and reads it on readiness.
        hook.adopt_socket(link.node, stream);
        // A shutdown that raced this dial has already taken the link map
        // snapshot it will close; close the newcomer ourselves.
        if self.shutdown.load(Ordering::SeqCst) {
            self.peer_disconnected(link.node);
            return Err(WireError::Closed);
        }
        Ok(link.node)
    }

    /// Like [`Federation::connect_peer`], retrying while the peer refuses
    /// connections (it may still be starting up).
    ///
    /// # Errors
    ///
    /// The last dial error once `attempts` are exhausted.
    pub fn connect_peer_with_retry(
        self: &Arc<Self>,
        addr: &str,
        attempts: u32,
        delay: Duration,
    ) -> Result<NodeId, WireError> {
        let mut last = None;
        for attempt in 0..attempts.max(1) {
            if attempt > 0 {
                std::thread::sleep(delay);
            }
            match self.connect_peer(addr) {
                Ok(node) => return Ok(node),
                Err(WireError::Io(e)) => last = Some(WireError::Io(e)),
                // Protocol-level failures will not fix themselves.
                Err(e) => return Err(e),
            }
        }
        Err(last.unwrap_or(WireError::Closed))
    }

    /// Feed one message read off peer link `from` into the inbound
    /// routing queue. Any inbound frame also refreshes the link's
    /// keepalive clock.
    pub fn incoming(&self, from: NodeId, msg: PeerMsg) {
        if let Some(link) = self.links.map.lock().get(&from) {
            link.last_rx.store(self.now_ms(), Ordering::Relaxed);
        }
        let _ = self.links.incoming_tx.send(TransportDelivery {
            src: from,
            dst: LOCAL_NODE,
            msg,
        });
    }

    /// Milliseconds on the federation's injected clock.
    fn now_ms(&self) -> u64 {
        self.config.clock.now_ms()
    }

    /// Periodic maintenance, called by the event loop's shard 0 on every
    /// pass: keepalive probes and dead-link detection on every peer link,
    /// plus the mesh route refresh. Cheap when nothing is due.
    pub(crate) fn tick(self: &Arc<Self>) {
        self.maybe_refresh();
        let Some(timeout) = self.config.peer_timeout else {
            return;
        };
        let timeout_ms = (timeout.as_millis() as u64).max(1);
        // Probe at a third of the deadline: a live peer gets two more
        // chances to answer before the link is declared dead.
        let probe_ms = (timeout_ms / 3).max(1);
        let now = self.now_ms();
        let links: Vec<Arc<PeerLink>> = self.links.map.lock().values().cloned().collect();
        for link in links {
            let idle = now.saturating_sub(link.last_rx.load(Ordering::Relaxed));
            if idle >= timeout_ms {
                // Silent past the deadline: dead. Tear it down now —
                // this is what promotes failover routes in bounded time
                // instead of waiting for a write error.
                link.stats.record_error();
                self.peer_disconnected(link.node);
            } else if idle >= probe_ms {
                let last_ping = link.last_ping.load(Ordering::Relaxed);
                if now.saturating_sub(last_ping) >= probe_ms {
                    link.last_ping.store(now, Ordering::Relaxed);
                    self.links.enqueue(link.node, PeerMsg::Ping { nonce: now });
                }
            }
        }
    }

    /// Re-send the full advertisement set when the mesh refresh interval
    /// elapsed (self-stabilization against missed diffs).
    fn maybe_refresh(&self) {
        if !self.config.mesh {
            return;
        }
        let interval = self.config.route_refresh.as_millis() as u64;
        if interval == 0 {
            return;
        }
        let now = self.now_ms();
        let last = self.last_refresh.load(Ordering::Relaxed);
        if now.saturating_sub(last) < interval {
            return;
        }
        if self
            .last_refresh
            .compare_exchange(last, now, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            return;
        }
        let messages = self.node.lock().refresh();
        self.dispatch(messages);
    }

    /// Record a local wire subscription in the routing core and advertise
    /// it to peers.
    ///
    /// Identical filters aggregate: only the first subscription with a
    /// given filter enters the routing core (and is advertised); later
    /// ones join its group and merely bump the reference count. The group
    /// and the routing core keep the `Arc` they are given, so a caller
    /// that passes the one it gave [`Broker::subscribe`] stores the filter
    /// once.
    pub fn local_subscribe(&self, sub: SubscriptionId, filter: Arc<Filter>) {
        let key = FilterKey::new(filter);
        let mut agg = self.agg.lock();
        if let Some(&gsub) = agg.by_filter.get(&key) {
            let group = agg.groups.get_mut(&gsub).expect("group exists for key");
            group.members.push(sub);
            agg.by_sub.insert(sub, gsub);
            self.subs_aggregated.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let gsub = GlobalSubId(
            ((self.broker_id as u64) << 32) | (self.next_sub.fetch_add(1, Ordering::Relaxed)),
        );
        let filter = Arc::clone(key.filter());
        agg.by_filter.insert(key.clone(), gsub);
        agg.groups.insert(
            gsub,
            AggGroup {
                key,
                members: vec![sub],
            },
        );
        agg.by_sub.insert(sub, gsub);
        // Release `agg` first: the routing core is never locked while the
        // aggregation table is held.
        drop(agg);
        let messages = self
            .node
            .lock()
            .subscribe_local(gsub, ClientId(gsub.0), filter);
        self.dispatch(messages);
    }

    /// Withdraw a local wire subscription. The shared advertisement is
    /// cancelled only when the last subscription of its group goes.
    pub fn local_unsubscribe(&self, sub: SubscriptionId) {
        let gsub = {
            let mut agg = self.agg.lock();
            let Some(gsub) = agg.by_sub.remove(&sub) else {
                return;
            };
            let Some(group) = agg.groups.get_mut(&gsub) else {
                return;
            };
            group.members.retain(|member| *member != sub);
            if !group.members.is_empty() {
                return;
            }
            if let Some(group) = agg.groups.remove(&gsub) {
                agg.by_filter.remove(&group.key);
            }
            gsub
        };
        let messages = self.node.lock().unsubscribe_local(gsub);
        self.dispatch(messages);
    }

    /// Forward a locally published event toward interested peers. Local
    /// delivery has already happened inside [`Broker::publish`]; only the
    /// peer forwards computed by the routing core are acted on.
    pub fn local_publish(&self, event: Event, outcome: &PublishOutcome) {
        if self.links.map.lock().is_empty() {
            return;
        }
        let published = PublishedEvent {
            id: outcome.id,
            published_at: outcome.published_at,
            event,
        };
        let output = self.node.lock().publish_local(published);
        self.dispatch(output.messages);
    }

    /// Tear down a dead peer link: forget its advertisements and
    /// re-advertise to the remaining peers. When the link was dialed and
    /// [`FederationConfig::peer_retry`] is on, a redial loop with capped
    /// exponential backoff takes over (re-running the full `PeerHello`
    /// handshake, codec negotiation included, on success).
    pub fn peer_disconnected(self: &Arc<Self>, node: NodeId) {
        let Some(link) = self.links.map.lock().remove(&node) else {
            return;
        };
        link.close_socket();
        link.stats.record_close();
        self.links.wire.record_close();
        let messages = self.node.lock().remove_neighbor(node);
        self.dispatch(messages);
        if self.config.peer_retry && !self.shutdown.load(Ordering::SeqCst) {
            if let Some(addr) = &link.dialed_addr {
                self.spawn_redial(addr.clone());
            }
        }
    }

    /// Keep redialing `addr` until the link is back or the federation
    /// shuts down. Backoff doubles from [`REDIAL_INITIAL`] up to
    /// [`REDIAL_CAP`], sleeping in slices so shutdown stays prompt.
    fn spawn_redial(self: &Arc<Self>, addr: String) {
        let federation = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name(format!("reefd-peer-redial-{addr}"))
            .spawn(move || {
                let mut backoff = REDIAL_INITIAL;
                loop {
                    let mut slept = Duration::ZERO;
                    while slept < backoff {
                        if federation.shutdown.load(Ordering::SeqCst) {
                            return;
                        }
                        let slice = REDIAL_SLICE.min(backoff - slept);
                        std::thread::sleep(slice);
                        slept += slice;
                    }
                    if federation.shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    match federation.connect_peer(&addr) {
                        Ok(_) => return,
                        Err(_) => backoff = (backoff * 2).min(REDIAL_CAP),
                    }
                }
            })
            .expect("spawn peer redial thread");
        self.track_thread(handle);
    }

    /// Close every peer link and join the redial threads.
    pub fn shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        for link in self.links.map.lock().values() {
            link.close_socket();
        }
        let threads: Vec<JoinHandle<()>> = std::mem::take(&mut *self.threads.lock());
        for handle in threads {
            let _ = handle.join();
        }
    }

    /// Keep `handle` for the shutdown join, first dropping handles of
    /// threads that already finished — a flapping `--peer-retry` link
    /// spawns a redial thread per disconnect, and a long-lived daemon
    /// must not hoard one handle per historical link.
    fn track_thread(&self, handle: JoinHandle<()>) {
        let mut threads = self.threads.lock();
        threads.retain(|h| !h.is_finished());
        threads.push(handle);
    }

    /// Register a peer link whose socket the event loop owns. `control` is
    /// a clone of that socket, kept only to close the link; `dialed_addr`
    /// is `Some` when this end dialed. The event loop calls this directly
    /// when it upgrades a client connection that sent `PeerHello`, after
    /// queueing the `PeerWelcome`.
    pub(crate) fn register_link(
        &self,
        control: TcpStream,
        peer_broker: String,
        peer_broker_id: u32,
        peer_addr: String,
        codec: CodecKind,
        dialed_addr: Option<String>,
    ) -> Arc<PeerLink> {
        let (out_tx, out_rx) = channel::unbounded();
        let node = NodeId(self.next_link.fetch_add(1, Ordering::Relaxed));
        let now = self.now_ms();
        let link = Arc::new(PeerLink {
            node,
            broker_name: peer_broker,
            peer_addr,
            codec,
            dialed_addr,
            control,
            out_tx,
            out_rx,
            queued_events: AtomicUsize::new(0),
            stats: WireStats::new(),
            last_rx: AtomicU64::new(now),
            last_ping: AtomicU64::new(now),
        });
        link.stats.record_open();
        self.links.wire.record_open();
        self.links.map.lock().insert(node, Arc::clone(&link));
        // Bring the new peer up to date with everything already known.
        let sync = {
            let mut routing = self.node.lock();
            if self.config.mesh {
                routing.add_mesh_neighbor(node, peer_broker_id)
            } else {
                routing.add_neighbor(node)
            }
        };
        self.dispatch(sync);
        link
    }

    /// Drain the inbound routing queue inline. The event loop's shard 0
    /// calls it after feeding freshly read peer frames through
    /// [`Federation::incoming`].
    pub(crate) fn drain_incoming(&self) {
        while let Ok(delivery) = self.incoming_rx.try_recv() {
            self.process_delivery(delivery);
        }
    }

    /// Route one inbound peer message: through [`BrokerNode::handle`],
    /// then local subscriber queues and outgoing link queues.
    fn process_delivery(&self, delivery: TransportDelivery) {
        if matches!(delivery.msg, PeerMsg::EventFwd { .. }) {
            self.events_received.fetch_add(1, Ordering::Relaxed);
        }
        let output = self.node.lock().handle(delivery.src, delivery.msg);
        for (client, event) in output.deliveries {
            // ClientId in the routing core is the GlobalSubId of an
            // aggregation group; fan the event out to every member
            // subscription — clones of one shared `Arc`, the event is
            // stored once however many members there are.
            let members = {
                let agg = self.agg.lock();
                agg.groups
                    .get(&GlobalSubId(client.0))
                    .map(|group| group.members.clone())
            };
            // A `None` here raced an unsubscribe: the group is gone
            // and the event has nowhere local to go.
            if let Some(members) = members {
                let event = Arc::new(event);
                for sub in members {
                    let _ = self.broker.deliver(sub, Arc::clone(&event));
                }
            }
        }
        self.dispatch(output.messages);
    }

    fn dispatch(&self, messages: Vec<(NodeId, PeerMsg)>) {
        for (to, msg) in messages {
            self.links.enqueue(to, msg);
        }
    }
}

/// Mint a federation-wide broker id from the broker's identity and the
/// current time. Collisions are possible in principle but vanishingly
/// unlikely for realistic federation sizes.
pub fn mint_broker_id(name: &str, salt: u64) -> u32 {
    use std::hash::{Hash, Hasher};
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    name.hash(&mut hasher);
    salt.hash(&mut hasher);
    std::process::id().hash(&mut hasher);
    if let Ok(elapsed) = std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH) {
        elapsed.subsec_nanos().hash(&mut hasher);
        elapsed.as_secs().hash(&mut hasher);
    }
    hasher.finish() as u32
}
