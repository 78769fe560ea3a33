//! `BrokerServer`: the TCP face of a [`reef_pubsub::Broker`].
//!
//! One core serves every socket: a handoff accept loop plus N sharded
//! epoll readiness loops ([`BrokerServerBuilder::loop_threads`], default
//! = available cores), each owning a slice of the sockets: nonblocking
//! I/O, incremental frame reassembly, per-connection outbound buffers
//! that coalesce delivery bursts into single writes. Federation peer
//! links are pinned to shard 0, which also drives the [`Federation`].
//! See the `event_loop` module for the full design. The loop executes
//! every request through one shared request handler; the thread
//! count is fixed however many connections are live. Linux only: on
//! other targets [`BrokerServerBuilder::bind`] returns an error.
//!
//! # Federation
//!
//! The server also speaks broker-to-broker: a connection whose first
//! request is [`Request::PeerHello`] is *upgraded* into a peer link of the
//! server's [`Federation`] — the sans-io [`reef_pubsub::BrokerNode`]
//! routing core driven over TCP. Outbound peer links are dialed at startup
//! from [`BrokerServerBuilder::peer`] addresses. Local subscriptions are
//! advertised to peers (covering-pruned), and events forwarded both ways.
//!
//! # Backpressure
//!
//! The delivery path is bounded end to end: the broker's per-subscriber
//! queues can be capped ([`BrokerServerBuilder::queue_capacity`]) with a
//! selectable overflow policy, each connection's outbound buffer stops
//! filling at a high watermark, and a connection whose pending output
//! makes no progress for the write timeout
//! ([`BrokerServerBuilder::write_timeout`]) is evicted. Deliveries lost
//! to a dead or evicted socket are counted per connection and in the
//! aggregate [`WireStats`].
//!
//! Shutdown is cooperative: [`BrokerServer::shutdown`] raises a flag,
//! wakes every loop through its eventfd, joins the loops (which close
//! their sockets on the way out) and closes the peer links.

use crate::autosub::{AutosubOptions, AutosubRuntime};
use crate::codec::{CodecKind, WireCodec};
use crate::error::WireError;
use crate::federation::{Federation, FederationConfig};
use crate::protocol::{Request, Response};
use crate::stats::{
    ConnectionStatsSnapshot, FederationStatsSnapshot, PeerStatsSnapshot, WireStats,
    WireStatsSnapshot,
};
use parking_lot::Mutex;
use reef_attention::{DurableClickStore, PersistConfig};
use reef_pubsub::{
    Broker, Clock, NodeId, OverflowPolicy, SubscriberId, SubscriptionId, SystemClock,
};
use std::collections::HashSet;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Default stall bound on client and peer output.
const DEFAULT_WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// How often and how long startup retries dialing a configured peer that
/// is not accepting connections yet.
const PEER_DIAL_ATTEMPTS: u32 = 25;
const PEER_DIAL_DELAY: Duration = Duration::from_millis(100);

/// Configures and builds a [`BrokerServer`].
#[derive(Debug, Default)]
pub struct BrokerServerBuilder {
    broker: Option<Arc<Broker>>,
    name: Option<String>,
    queue_capacity: Option<usize>,
    overflow: Option<OverflowPolicy>,
    peers: Vec<String>,
    covering: Option<bool>,
    peer_queue_capacity: Option<usize>,
    write_timeout: Option<Duration>,
    codec: Option<CodecKind>,
    peer_retry: Option<bool>,
    mesh: Option<bool>,
    route_refresh: Option<Duration>,
    peer_timeout: Option<Option<Duration>>,
    loop_threads: Option<usize>,
    data_dir: Option<PathBuf>,
    wal_segment_bytes: Option<u64>,
    snapshot_every: Option<u64>,
    autosub: Option<AutosubOptions>,
    max_frame_bytes: Option<usize>,
    clock: Option<Arc<dyn Clock>>,
}

impl BrokerServerBuilder {
    /// Serve an existing (possibly schema-validating, bounded-queue)
    /// broker instead of a fresh default one. Overrides
    /// [`BrokerServerBuilder::queue_capacity`] and
    /// [`BrokerServerBuilder::overflow`].
    pub fn broker(mut self, broker: Arc<Broker>) -> Self {
        self.broker = Some(broker);
        self
    }

    /// Server name reported in `Hello` responses and peer handshakes.
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// Bound each subscriber's delivery queue to `capacity` events
    /// (ignored when an explicit broker is supplied).
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = Some(capacity);
        self
    }

    /// Policy applied when a bounded delivery queue overflows (ignored
    /// when an explicit broker is supplied).
    pub fn overflow(mut self, policy: OverflowPolicy) -> Self {
        self.overflow = Some(policy);
        self
    }

    /// Federate with the broker at `addr` (repeatable). The address is
    /// dialed at startup, with retries while the peer comes up.
    pub fn peer(mut self, addr: impl Into<String>) -> Self {
        self.peers.push(addr.into());
        self
    }

    /// Enable or disable covering-based advertisement pruning toward
    /// peers (default on).
    pub fn covering(mut self, covering: bool) -> Self {
        self.covering = Some(covering);
        self
    }

    /// Bound each peer link's outgoing event queue (default 1024).
    pub fn peer_queue_capacity(mut self, capacity: usize) -> Self {
        self.peer_queue_capacity = Some(capacity);
        self
    }

    /// Evict a client or peer connection whose pending output made no
    /// progress for this long (default 5 s).
    pub fn write_timeout(mut self, timeout: Duration) -> Self {
        self.write_timeout = Some(timeout);
        self
    }

    /// Codec spoken when *dialing* peers (default binary/v2). Inbound
    /// connections — clients and peers alike — always negotiate their
    /// own codec via the first frame's version byte.
    pub fn codec(mut self, codec: CodecKind) -> Self {
        self.codec = Some(codec);
        self
    }

    /// Re-dial dead *dialed* peer links with capped exponential backoff
    /// (default off). The `PeerHello` handshake — codec negotiation
    /// included — is re-run on every reconnect.
    pub fn peer_retry(mut self, retry: bool) -> Self {
        self.peer_retry = Some(retry);
        self
    }

    /// Route in mesh (path-vector) mode instead of tree mode (default
    /// off). A mesh overlay may contain cycles and redundant links:
    /// advertisements carry broker-id paths, duplicate events are
    /// suppressed by a bounded seen-cache, and a dead link fails over
    /// to the best surviving alternate path. Every federated broker
    /// must agree on this flag; covering-based pruning is disabled in
    /// mesh mode.
    pub fn mesh(mut self, mesh: bool) -> Self {
        self.mesh = Some(mesh);
        self
    }

    /// Interval between periodic full route re-advertisements in mesh
    /// mode (default 5 s); `Duration::ZERO` disables the refresh.
    /// Ignored in tree mode.
    pub fn route_refresh(mut self, interval: Duration) -> Self {
        self.route_refresh = Some(interval);
        self
    }

    /// Keepalive deadline on peer links (default 10 s): an idle link is
    /// pinged at a third of this, and one silent past the full deadline
    /// is torn down (mesh mode then promotes alternate routes). `None`
    /// disables keepalive.
    pub fn peer_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.peer_timeout = Some(timeout);
        self
    }

    /// Number of sharded epoll readiness loops (default: available
    /// cores). Accepted connections are spread across the shards by fd
    /// hash; federation peer links always live on shard 0. Clamped to at
    /// least 1.
    pub fn loop_threads(mut self, threads: usize) -> Self {
        self.loop_threads = Some(threads);
        self
    }

    /// Persist the click store under `dir`: uploads are appended to a
    /// segmented, checksummed WAL before they are acknowledged, and a
    /// restart on the same directory recovers them. Without a data dir
    /// the store is in-memory and a restart starts empty.
    pub fn data_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.data_dir = Some(dir.into());
        self
    }

    /// Rotate WAL segments past this many bytes (default 8 MiB; only
    /// meaningful with [`BrokerServerBuilder::data_dir`]).
    pub fn wal_segment_bytes(mut self, bytes: u64) -> Self {
        self.wal_segment_bytes = Some(bytes);
        self
    }

    /// Snapshot + compact the click store every `batches` ingested
    /// upload batches; `0` disables snapshots (default 256; only
    /// meaningful with [`BrokerServerBuilder::data_dir`]).
    ///
    /// The snapshot is written synchronously inside the triggering
    /// upload request, so at very large store sizes a low cadence
    /// briefly stalls request handling; see ROADMAP for the
    /// background-snapshot follow-on.
    pub fn snapshot_every(mut self, batches: u64) -> Self {
        self.snapshot_every = Some(batches);
        self
    }

    /// Configure the automatic-subscription subsystem (default: enabled
    /// with [`AutosubOptions::default`]). The `reefd` binary flips the
    /// default off and re-enables it with `--autosub`.
    pub fn autosub(mut self, options: AutosubOptions) -> Self {
        self.autosub = Some(options);
        self
    }

    /// Largest frame accepted from any connection — client or peer —
    /// before the connection is dropped (default 16 MiB, the protocol
    /// ceiling). The length prefix is checked against this cap *before*
    /// any buffer is reserved, so a hostile 4 GiB length costs nothing.
    /// Values above the protocol ceiling are clamped to it.
    pub fn max_frame_bytes(mut self, bytes: usize) -> Self {
        self.max_frame_bytes = Some(bytes);
        self
    }

    /// Clock driving peer keepalive, mesh route refresh and autosub
    /// decay (default: wall time). Deterministic tests inject a
    /// [`reef_pubsub::ManualClock`] and advance virtual time explicitly.
    pub fn clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Bind `addr` and start serving.
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] when the address cannot be bound or a configured
    /// peer stays unreachable; [`WireError::Protocol`] on a target without
    /// epoll (anything but Linux).
    pub fn bind(self, addr: impl ToSocketAddrs) -> Result<BrokerServer, WireError> {
        let broker = match self.broker {
            Some(broker) => broker,
            None => {
                let mut builder = Broker::builder();
                if let Some(capacity) = self.queue_capacity {
                    builder = builder.queue_capacity(capacity);
                }
                builder = builder.overflow(self.overflow.unwrap_or_default());
                Arc::new(builder.build())
            }
        };
        let clicks = match self.data_dir {
            Some(dir) => {
                let mut cfg = PersistConfig::new(dir);
                if let Some(bytes) = self.wal_segment_bytes {
                    cfg.segment_bytes = bytes;
                }
                if let Some(batches) = self.snapshot_every {
                    cfg.snapshot_every = batches;
                }
                DurableClickStore::open(cfg)?
            }
            None => DurableClickStore::in_memory(),
        };
        BrokerServer::start(
            addr,
            broker,
            clicks,
            self.name
                .unwrap_or_else(|| format!("reefd/{}", env!("CARGO_PKG_VERSION"))),
            self.peers,
            self.covering.unwrap_or(true),
            self.peer_queue_capacity.unwrap_or(1024),
            self.write_timeout.unwrap_or(DEFAULT_WRITE_TIMEOUT),
            self.codec.unwrap_or_default(),
            self.peer_retry.unwrap_or(false),
            self.mesh.unwrap_or(false),
            self.route_refresh.unwrap_or(Duration::from_secs(5)),
            self.peer_timeout.unwrap_or(Some(Duration::from_secs(10))),
            self.loop_threads,
            self.autosub.unwrap_or_default(),
            self.max_frame_bytes
                .unwrap_or(crate::frame::MAX_FRAME_LEN)
                .min(crate::frame::MAX_FRAME_LEN),
            self.clock.unwrap_or_else(SystemClock::shared),
        )
    }
}

/// State the event loop shares with the rest of the server for one client
/// connection: identity and counters live here so
/// [`BrokerServer::connection_stats`] can read them while the shard that
/// owns the socket moves the bytes.
pub(crate) struct Connection {
    pub(crate) peer: SocketAddr,
    pub(crate) client_name: Mutex<String>,
    pub(crate) subscriber: SubscriberId,
    pub(crate) stats: WireStats,
    /// Frame version byte of the codec negotiated by the connection's
    /// first frame; 0 until then.
    pub(crate) codec_version: AtomicU8,
    /// Id of the event-loop shard serving this connection.
    pub(crate) loop_id: u32,
}

impl Connection {
    /// Create the shared state for one accepted socket on shard `loop_id`.
    pub(crate) fn new(peer: SocketAddr, subscriber: SubscriberId, loop_id: u32) -> Connection {
        Connection {
            peer,
            client_name: Mutex::new(String::new()),
            subscriber,
            stats: WireStats::new(),
            codec_version: AtomicU8::new(0),
            loop_id,
        }
    }

    /// The negotiated codec. Before negotiation (no frame seen yet — so
    /// nothing has been sent either) this defaults to JSON, the one
    /// encoding every client generation can read.
    pub(crate) fn codec(&self) -> &'static dyn WireCodec {
        CodecKind::for_version(self.codec_version.load(Ordering::SeqCst))
            .unwrap_or(CodecKind::Json)
            .codec()
    }

    /// Human-readable name of the negotiated codec, `-` before the first
    /// frame.
    fn codec_name(&self) -> &'static str {
        match CodecKind::for_version(self.codec_version.load(Ordering::SeqCst)) {
            Some(kind) => kind.name(),
            None => "-",
        }
    }
}

/// A TCP publish-subscribe broker daemon.
///
/// # Examples
///
/// ```
/// use reef_pubsub::{Event, Filter, Op};
/// use reef_wire::{BrokerServer, Client};
///
/// let server = BrokerServer::bind("127.0.0.1:0").unwrap();
/// let subscriber = Client::connect(server.local_addr()).unwrap();
/// subscriber.subscribe(Filter::new().and("n", Op::Gt, 1)).unwrap();
/// let publisher = Client::connect(server.local_addr()).unwrap();
/// publisher.publish(Event::builder().attr("n", 2).build()).unwrap();
/// let delivery = subscriber.recv_delivery(std::time::Duration::from_secs(5));
/// assert!(delivery.is_some());
/// server.shutdown();
/// ```
pub struct BrokerServer {
    core: Arc<ServerCore>,
    local_addr: SocketAddr,
    /// The accept loop and the shard threads.
    main_threads: Vec<JoinHandle<()>>,
    /// Wakes the event loop so it observes the shutdown flag.
    loop_control: Option<Arc<dyn LoopControl>>,
    /// The autosub refresh thread; `None` when the subsystem is disabled.
    autosub_thread: Option<JoinHandle<()>>,
}

/// Handle the server keeps to its event loop: enough to wake it at
/// shutdown. Implemented by the loop's shared state.
pub(crate) trait LoopControl: Send + Sync {
    /// Force the loop out of `epoll_wait` so it re-checks its flags.
    fn wake_loop(&self);
}

/// Everything the event loop's shards share: the broker, the federation
/// layer, the click store, the connection registry, the aggregate
/// counters and the request semantics ([`ServerCore::handle_request`]).
pub(crate) struct ServerCore {
    pub(crate) broker: Arc<Broker>,
    pub(crate) federation: Arc<Federation>,
    pub(crate) clicks: Arc<Mutex<DurableClickStore>>,
    pub(crate) connections: Mutex<Vec<Arc<Connection>>>,
    pub(crate) stats: WireStats,
    pub(crate) shutdown: AtomicBool,
    pub(crate) name: String,
    pub(crate) write_timeout: Duration,
    pub(crate) autosub: AutosubRuntime,
    /// Largest frame accepted from any connection; length prefixes past
    /// this drop the connection before a buffer is reserved.
    pub(crate) max_frame: usize,
}

impl ServerCore {
    /// Execute one non-`PeerHello` request against the broker and
    /// federation. The caller owns framing, codec negotiation and reply
    /// delivery. `request_wire_len` is the size of
    /// the request frame as it crossed the wire (header included), which
    /// upload receipts report back to the client.
    pub(crate) fn handle_request(
        &self,
        conn: &Connection,
        owned: &mut HashSet<SubscriptionId>,
        request: Request,
        request_wire_len: usize,
    ) -> Response {
        match request {
            Request::Hello { version, client } => {
                let negotiated = conn.codec_version.load(Ordering::SeqCst);
                if version != negotiated {
                    return Response::Error {
                        message: format!(
                            "Hello version field v{version} disagrees with the frame codec v{negotiated}"
                        ),
                    };
                }
                *conn.client_name.lock() = client;
                Response::Hello {
                    version: negotiated,
                    server: self.name.clone(),
                    subscriber: conn.subscriber.0,
                }
            }
            Request::Subscribe { filter } => {
                // One copy of the filter, shared by the broker's index and
                // the routing core.
                let filter = Arc::new(filter);
                match self.broker.subscribe(conn.subscriber, Arc::clone(&filter)) {
                    Ok(subscription) => {
                        owned.insert(subscription);
                        // Mirror into the routing core so the filter is
                        // advertised to (current and future) peers.
                        self.federation.local_subscribe(subscription, filter);
                        Response::Subscribed { subscription }
                    }
                    Err(e) => Response::Error {
                        message: e.to_string(),
                    },
                }
            }
            Request::Unsubscribe { subscription } => {
                if !owned.contains(&subscription) {
                    return Response::Error {
                        message: format!(
                            "subscription {subscription} is not owned by this connection"
                        ),
                    };
                }
                match self.broker.unsubscribe(subscription) {
                    Ok(filter) => {
                        owned.remove(&subscription);
                        self.federation.local_unsubscribe(subscription);
                        Response::Unsubscribed {
                            filter: Arc::unwrap_or_clone(filter),
                        }
                    }
                    Err(e) => Response::Error {
                        message: e.to_string(),
                    },
                }
            }
            Request::Publish { event } => {
                // Clone only when there are peers to forward to.
                let forward = if self.federation.peer_count() > 0 {
                    Some(event.clone())
                } else {
                    None
                };
                match self.broker.publish(event) {
                    Ok(outcome) => {
                        if let Some(event) = forward {
                            self.federation.local_publish(event, &outcome);
                        }
                        Response::Published {
                            id: outcome.id,
                            delivered: outcome.delivered as u64,
                            dropped: outcome.dropped as u64,
                        }
                    }
                    Err(e) => Response::Error {
                        message: e.to_string(),
                    },
                }
            }
            Request::UploadClicks { batch } => {
                let mut clicks = self.clicks.lock();
                // The WAL append happens (and is flushed) before the
                // receipt exists: an acknowledged upload is a durable
                // upload. A persistence failure refuses the batch.
                match clicks.ingest_upload_sized(batch, request_wire_len as u64) {
                    Ok(receipt) => {
                        self.stats.record_persist(&clicks.persist_stats());
                        drop(clicks);
                        if receipt.accepted > 0 {
                            // The user's enrolments re-derive now, not on
                            // a poll.
                            self.autosub.clicks_changed(receipt.user);
                        }
                        Response::ClicksAccepted { receipt }
                    }
                    Err(e) => Response::Error {
                        message: format!("click store persistence failed: {e}"),
                    },
                }
            }
            Request::AutoSubscribe { user, policy } => {
                match self.autosub.enroll(self, conn.subscriber, user, policy) {
                    Ok(receipt) => Response::AutoSubscribed { receipt },
                    Err(message) => Response::Error { message },
                }
            }
            Request::AutoUnsubscribe { user } => {
                match self.autosub.unenroll(self, conn.subscriber, user) {
                    Ok(receipt) => Response::AutoUnsubscribed { receipt },
                    Err(message) => Response::Error { message },
                }
            }
            Request::Stats => {
                // Fold the broker-side snapshot-swap gauge into the wire
                // counters before the snapshot is taken.
                self.stats
                    .record_matcher_swaps(self.broker.snapshot_swaps());
                Response::Stats {
                    broker: self.broker.stats(),
                    wire: self.stats.snapshot(),
                    federation: self.federation.snapshot(),
                }
            }
            Request::Ping => Response::Pong,
            Request::Bye => Response::Bye,
            Request::PeerHello { .. } => unreachable!("intercepted by the event loop"),
        }
    }

    /// Deregister a finished client connection (its socket is already
    /// closed): withdraw its subscriptions from the routing core, drop its
    /// broker subscriber and remove it from the registry.
    pub(crate) fn finish_connection(
        &self,
        conn: &Arc<Connection>,
        owned: &HashSet<SubscriptionId>,
    ) {
        // Engine-installed subscriptions first: each needs its own
        // routing-core withdrawal, and the broker deregistration below
        // would otherwise leave the autosub registry pointing at dead
        // subscription ids.
        self.autosub.drop_subscriber(self, conn.subscriber);
        for sub in owned {
            self.federation.local_unsubscribe(*sub);
        }
        let _ = self.broker.deregister(conn.subscriber);
        conn.stats.record_close();
        self.stats.record_close();
        self.connections.lock().retain(|c| !Arc::ptr_eq(c, conn));
    }
}

#[cfg(test)]
impl ServerCore {
    /// A core with no sockets and no threads, so a test drives the
    /// request semantics and the autosub runtime's passes by hand.
    pub(crate) fn detached(broker: Arc<Broker>, autosub: AutosubOptions) -> ServerCore {
        ServerCore {
            federation: Federation::start(Arc::clone(&broker), 1, FederationConfig::default()),
            broker,
            clicks: Arc::new(Mutex::new(DurableClickStore::in_memory())),
            connections: Mutex::new(Vec::new()),
            stats: WireStats::new(),
            shutdown: AtomicBool::new(false),
            name: "detached".into(),
            write_timeout: Duration::from_secs(1),
            autosub: AutosubRuntime::new(autosub),
            max_frame: crate::frame::MAX_FRAME_LEN,
        }
    }
}

impl std::fmt::Debug for BrokerServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BrokerServer")
            .field("local_addr", &self.local_addr)
            .field("connections", &self.core.connections.lock().len())
            .field("peers", &self.core.federation.peer_count())
            .finish()
    }
}

impl BrokerServer {
    /// Bind `addr` (use port 0 for an ephemeral port) and serve a fresh
    /// default broker.
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] when the address cannot be bound;
    /// [`WireError::Protocol`] on a target without epoll.
    pub fn bind(addr: impl ToSocketAddrs) -> Result<BrokerServer, WireError> {
        BrokerServerBuilder::default().bind(addr)
    }

    /// Start configuring a server.
    pub fn builder() -> BrokerServerBuilder {
        BrokerServerBuilder::default()
    }

    #[allow(clippy::too_many_arguments)]
    fn start(
        addr: impl ToSocketAddrs,
        broker: Arc<Broker>,
        clicks: DurableClickStore,
        name: String,
        peers: Vec<String>,
        covering: bool,
        peer_queue_capacity: usize,
        write_timeout: Duration,
        codec: CodecKind,
        peer_retry: bool,
        mesh: bool,
        route_refresh: Duration,
        peer_timeout: Option<Duration>,
        loop_threads: Option<usize>,
        autosub: AutosubOptions,
        max_frame: usize,
        clock: Arc<dyn Clock>,
    ) -> Result<BrokerServer, WireError> {
        if !cfg!(target_os = "linux") {
            return Err(WireError::Protocol(
                "the epoll event loop requires Linux".into(),
            ));
        }
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let broker_id = crate::federation::mint_broker_id(&name, local_addr.port() as u64);
        // Namespace event ids like subscription ids, so events forwarded
        // between federated daemons never collide on `EventId`. A
        // pre-used broker keeps its counter (the rebase only applies to
        // a fresh one).
        broker.namespace_event_ids((broker_id as u64) << 32);
        let federation = Federation::start(
            Arc::clone(&broker),
            broker_id,
            FederationConfig {
                name: name.clone(),
                covering,
                peer_queue_capacity,
                codec,
                peer_retry,
                mesh,
                route_refresh,
                peer_timeout,
                clock: Arc::clone(&clock),
                max_frame,
            },
        );
        let stats = WireStats::new();
        // Surface what recovery found (clicks restored, torn bytes
        // truncated) from the first stats snapshot on.
        stats.record_persist(&clicks.persist_stats());
        let core = Arc::new(ServerCore {
            broker,
            federation,
            clicks: Arc::new(Mutex::new(clicks)),
            connections: Mutex::new(Vec::new()),
            stats,
            shutdown: AtomicBool::new(false),
            name,
            write_timeout,
            autosub: AutosubRuntime::new(autosub),
            max_frame,
        });
        let mut server = BrokerServer {
            core: Arc::clone(&core),
            local_addr,
            main_threads: Vec::new(),
            loop_control: None,
            autosub_thread: spawn_autosub_refresh(&core),
        };
        #[cfg(target_os = "linux")]
        {
            let shards = loop_threads.unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
            let (threads, control) = crate::event_loop::spawn(listener, core, shards)?;
            server.main_threads = threads;
            server.loop_control = Some(control);
        }
        #[cfg(not(target_os = "linux"))]
        let _ = (listener, loop_threads);
        for peer in &peers {
            server.core.federation.connect_peer_with_retry(
                peer,
                PEER_DIAL_ATTEMPTS,
                PEER_DIAL_DELAY,
            )?;
        }
        Ok(server)
    }

    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The broker being served.
    pub fn broker(&self) -> &Arc<Broker> {
        &self.core.broker
    }

    /// The federation layer: peer links and the sans-io routing core.
    pub fn federation(&self) -> &Arc<Federation> {
        &self.core.federation
    }

    /// Dial `addr` and add it as a federation peer at runtime.
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] when the peer is unreachable, or a protocol
    /// error when it is not a compatible broker.
    pub fn add_peer(&self, addr: &str) -> Result<NodeId, WireError> {
        self.core.federation.connect_peer(addr)
    }

    /// The server-side click store fed by `UploadClicks` requests. Read
    /// queries deref to the in-memory [`reef_attention::ClickStore`];
    /// with [`BrokerServerBuilder::data_dir`] configured the store is
    /// WAL-backed and survives restarts.
    pub fn click_store(&self) -> Arc<Mutex<DurableClickStore>> {
        Arc::clone(&self.core.clicks)
    }

    /// Aggregate transport counters.
    pub fn stats(&self) -> WireStatsSnapshot {
        self.core
            .stats
            .record_matcher_swaps(self.core.broker.snapshot_swaps());
        self.core.stats.snapshot()
    }

    /// Federation routing and peer-link counters.
    pub fn federation_stats(&self) -> FederationStatsSnapshot {
        self.core.federation.snapshot()
    }

    /// Transport counters per live peer link.
    pub fn peer_stats(&self) -> Vec<PeerStatsSnapshot> {
        self.core.federation.peer_stats()
    }

    /// Transport counters per live connection.
    pub fn connection_stats(&self) -> Vec<ConnectionStatsSnapshot> {
        self.core
            .connections
            .lock()
            .iter()
            .map(|conn| ConnectionStatsSnapshot {
                peer: conn.peer.to_string(),
                client: conn.client_name.lock().clone(),
                codec: conn.codec_name().to_owned(),
                subscriber: conn.subscriber.0,
                loop_id: Some(conn.loop_id),
                wire: conn.stats.snapshot(),
            })
            .collect()
    }

    /// Number of live client connections (upgraded peer links excluded).
    pub fn connection_count(&self) -> usize {
        self.core.connections.lock().len()
    }

    /// Stop accepting, close every connection and peer link, and join all
    /// threads.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        if self.core.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // The broker may outlive the server; stop routing delivery
        // notifications at a loop that is about to exit.
        self.core.broker.clear_delivery_notifier();
        if let Some(control) = &self.loop_control {
            control.wake_loop();
        }
        // The shards close every socket they own on the way out.
        for handle in std::mem::take(&mut self.main_threads) {
            let _ = handle.join();
        }
        if let Some(handle) = self.autosub_thread.take() {
            self.core.autosub.wake();
            let _ = handle.join();
        }
        self.core.federation.shutdown();
    }
}

impl Drop for BrokerServer {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

/// Spawn the background refresh thread of the autosub subsystem. It
/// sleeps until an upload marks a user dirty, the earliest decay deadline
/// passes or `refresh_interval` elapses, then re-derives only what is due
/// (see [`AutosubRuntime::refresh`]). Returns `None` (no thread) when the
/// subsystem is disabled.
fn spawn_autosub_refresh(core: &Arc<ServerCore>) -> Option<JoinHandle<()>> {
    if !core.autosub.enabled() {
        return None;
    }
    let core = Arc::clone(core);
    let handle = std::thread::Builder::new()
        .name("reefd-autosub".into())
        .spawn(move || {
            while !core.shutdown.load(Ordering::SeqCst) {
                core.autosub.refresh(&core);
                core.autosub.wait_for_work();
            }
        })
        .expect("spawn autosub refresh thread");
    Some(handle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;

    #[test]
    fn shutdown_returns_even_on_a_wildcard_bind() {
        let server = BrokerServer::bind("0.0.0.0:0").expect("bind wildcard");
        let port = server.local_addr().port();
        let client = Client::connect(("127.0.0.1", port)).expect("connect");
        client.ping().expect("ping");
        drop(client);
        // Must not hang: shutdown wakes the loops through their eventfds,
        // so it never needs to connect to the (unconnectable on some
        // platforms) wildcard address.
        let done = std::sync::Arc::new(AtomicBool::new(false));
        let flag = std::sync::Arc::clone(&done);
        let handle = std::thread::spawn(move || {
            server.shutdown();
            flag.store(true, Ordering::SeqCst);
        });
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !done.load(Ordering::SeqCst) {
            assert!(std::time::Instant::now() < deadline, "shutdown hung");
            std::thread::sleep(Duration::from_millis(10));
        }
        handle.join().unwrap();
    }

    #[test]
    fn two_servers_federate_and_cross_deliver() {
        let a = BrokerServer::builder()
            .name("fed-a")
            .bind("127.0.0.1:0")
            .expect("bind a");
        let b = BrokerServer::builder()
            .name("fed-b")
            .peer(a.local_addr().to_string())
            .bind("127.0.0.1:0")
            .expect("bind b");
        // The dialer registers its link before bind() returns; the
        // acceptor registers when its event loop reads the PeerHello, so
        // poll.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while a.federation_stats().peers < 1 {
            assert!(std::time::Instant::now() < deadline, "peer link adopted");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(b.federation_stats().peers, 1);

        let sub = Client::connect_as(a.local_addr(), "sub").expect("connect sub");
        sub.subscribe(reef_pubsub::Filter::topic("fed"))
            .expect("subscribe");
        let publisher = Client::connect_as(b.local_addr(), "pub").expect("connect pub");
        // The subscription needs a moment to be advertised across.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while b.federation_stats().routing_entries == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "advertisement arrived"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        publisher
            .publish(reef_pubsub::Event::topical("fed", "hello"))
            .expect("publish");
        let got = sub.recv_delivery(Duration::from_secs(5)).expect("delivery");
        assert_eq!(
            got.event.get(reef_pubsub::TOPIC_ATTR).unwrap().as_str(),
            Some("fed")
        );
        let stats = b.federation_stats();
        assert_eq!(stats.events_forwarded, 1);
        drop(sub);
        drop(publisher);
        b.shutdown();
        a.shutdown();
    }
}
