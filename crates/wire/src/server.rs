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
//! queues can be capped, dropping the new or the oldest event when full
//! (set on the [`reef_pubsub::BrokerBuilder`] handed to
//! [`BrokerServerBuilder::broker`]; a publish never waits on a slow
//! subscriber), each connection's outbound buffer stops filling at a high
//! watermark, and a connection whose pending output makes no progress
//! for the write timeout ([`BrokerServerBuilder::write_timeout`]) is
//! evicted. Deliveries lost to a full queue or to a dead or evicted
//! socket are counted per connection and in the aggregate [`WireStats`].
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
use reef_attention::{
    DurableClickStore, PersistConfig, DEFAULT_SEGMENT_BYTES, DEFAULT_SNAPSHOT_EVERY,
};
use reef_pubsub::{Broker, NodeId, SubscriberId, SubscriptionId};
use std::collections::HashSet;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How often and how long startup retries dialing a configured peer that
/// is not accepting connections yet.
const PEER_DIAL_ATTEMPTS: u32 = 25;
const PEER_DIAL_DELAY: Duration = Duration::from_millis(100);

/// Configures and builds a [`BrokerServer`]: the one declaration of a
/// server's options. Its [`Default`] impl is the only place each default
/// is written; `reefd --help` prints them from there, through the
/// `get_*` accessors.
#[derive(Debug)]
pub struct BrokerServerBuilder {
    broker: Arc<Broker>,
    name: String,
    peers: Vec<String>,
    covering: bool,
    write_timeout: Duration,
    codec: CodecKind,
    peer_retry: bool,
    mesh: bool,
    peer_timeout: Option<Duration>,
    /// `None`: one loop per available core, counted at bind time.
    loop_threads: Option<usize>,
    /// `None`: an in-memory click store.
    data_dir: Option<PathBuf>,
    wal_segment_bytes: u64,
    snapshot_every: u64,
    autosub: AutosubOptions,
    max_frame_bytes: usize,
}

impl Default for BrokerServerBuilder {
    fn default() -> Self {
        BrokerServerBuilder {
            broker: Arc::default(),
            name: "reefd".to_owned(),
            peers: Vec::new(),
            covering: true,
            write_timeout: Duration::from_secs(5),
            codec: CodecKind::default(),
            peer_retry: false,
            mesh: false,
            peer_timeout: Some(Duration::from_secs(10)),
            loop_threads: None,
            data_dir: None,
            wal_segment_bytes: DEFAULT_SEGMENT_BYTES,
            snapshot_every: DEFAULT_SNAPSHOT_EVERY,
            autosub: AutosubOptions::default(),
            max_frame_bytes: crate::frame::MAX_FRAME_LEN,
        }
    }
}

impl BrokerServerBuilder {
    /// Serve an existing broker instead of a fresh default one: this is
    /// how a server gets a schema or bounded delivery queues
    /// ([`reef_pubsub::BrokerBuilder`]).
    pub fn broker(mut self, broker: Arc<Broker>) -> Self {
        self.broker = broker;
        self
    }

    /// Server name reported in `Hello` responses and peer handshakes.
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
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
        self.covering = covering;
        self
    }

    /// Evict a client or peer connection whose pending output made no
    /// progress for this long.
    pub fn write_timeout(mut self, timeout: Duration) -> Self {
        self.write_timeout = timeout;
        self
    }

    /// Codec spoken when *dialing* peers. Inbound connections — clients
    /// and peers alike — always negotiate their own codec via the first
    /// frame's version byte.
    pub fn codec(mut self, codec: CodecKind) -> Self {
        self.codec = codec;
        self
    }

    /// Re-dial dead *dialed* peer links with capped exponential backoff
    /// (default off). The `PeerHello` handshake — codec negotiation
    /// included — is re-run on every reconnect.
    pub fn peer_retry(mut self, retry: bool) -> Self {
        self.peer_retry = retry;
        self
    }

    /// Route in mesh (path-vector) mode instead of tree mode (default
    /// off). A mesh overlay may contain cycles and redundant links:
    /// advertisements carry broker-id paths, duplicate events are
    /// suppressed by a bounded seen-cache, a dead link fails over to the
    /// best surviving alternate path, and the full route set is
    /// re-advertised every 5 s. Every federated broker must agree on
    /// this flag; covering-based pruning is disabled in mesh mode.
    pub fn mesh(mut self, mesh: bool) -> Self {
        self.mesh = mesh;
        self
    }

    /// Keepalive deadline on peer links: an idle link is pinged at a
    /// third of this, and one silent past the full deadline is torn down
    /// (mesh mode then promotes alternate routes). `None` disables
    /// keepalive.
    pub fn peer_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.peer_timeout = timeout;
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

    /// Rotate WAL segments past this many bytes (only meaningful with
    /// [`BrokerServerBuilder::data_dir`]).
    pub fn wal_segment_bytes(mut self, bytes: u64) -> Self {
        self.wal_segment_bytes = bytes;
        self
    }

    /// Snapshot + compact the click store every `batches` ingested
    /// upload batches; `0` disables snapshots (only meaningful with
    /// [`BrokerServerBuilder::data_dir`]).
    ///
    /// The snapshot is written synchronously inside the triggering
    /// upload request, so at very large store sizes a low cadence
    /// briefly stalls request handling; see ROADMAP for the
    /// background-snapshot follow-on.
    pub fn snapshot_every(mut self, batches: u64) -> Self {
        self.snapshot_every = batches;
        self
    }

    /// Configure the automatic-subscription subsystem (default: enabled
    /// with [`AutosubOptions::default`]). The `reefd` binary flips the
    /// default off and re-enables it with `--autosub`.
    pub fn autosub(mut self, options: AutosubOptions) -> Self {
        self.autosub = options;
        self
    }

    /// Largest frame accepted from any connection — client or peer —
    /// before the connection is dropped (default: the protocol ceiling,
    /// [`crate::frame::MAX_FRAME_LEN`]). The length prefix is checked
    /// against this cap *before* any buffer is reserved, so a hostile
    /// 4 GiB length costs nothing. Values above the protocol ceiling are
    /// clamped to it.
    pub fn max_frame_bytes(mut self, bytes: usize) -> Self {
        self.max_frame_bytes = bytes.min(crate::frame::MAX_FRAME_LEN);
        self
    }

    /// The server name.
    pub fn get_name(&self) -> &str {
        &self.name
    }

    /// The stall bound on client and peer output.
    pub fn get_write_timeout(&self) -> Duration {
        self.write_timeout
    }

    /// The codec spoken when dialing peers.
    pub fn get_codec(&self) -> CodecKind {
        self.codec
    }

    /// The keepalive deadline on peer links.
    pub fn get_peer_timeout(&self) -> Option<Duration> {
        self.peer_timeout
    }

    /// The WAL segment size.
    pub fn get_wal_segment_bytes(&self) -> u64 {
        self.wal_segment_bytes
    }

    /// The snapshot cadence in upload batches.
    pub fn get_snapshot_every(&self) -> u64 {
        self.snapshot_every
    }

    /// The largest frame accepted from any connection.
    pub fn get_max_frame_bytes(&self) -> usize {
        self.max_frame_bytes
    }

    /// The federation's view of these options.
    pub(crate) fn federation_config(&self) -> FederationConfig {
        FederationConfig {
            name: self.name.clone(),
            covering: self.covering,
            codec: self.codec,
            peer_retry: self.peer_retry,
            mesh: self.mesh,
            peer_timeout: self.peer_timeout,
            max_frame: self.max_frame_bytes,
        }
    }

    /// Bind `addr` and start serving.
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] when the address cannot be bound or a configured
    /// peer stays unreachable; [`WireError::Protocol`] on a target without
    /// epoll (anything but Linux).
    pub fn bind(self, addr: impl ToSocketAddrs) -> Result<BrokerServer, WireError> {
        let clicks = match &self.data_dir {
            Some(dir) => DurableClickStore::open(PersistConfig {
                dir: dir.clone(),
                segment_bytes: self.wal_segment_bytes,
                snapshot_every: self.snapshot_every,
            })?,
            None => DurableClickStore::in_memory(),
        };
        if !cfg!(target_os = "linux") {
            return Err(WireError::Protocol(
                "the epoll event loop requires Linux".into(),
            ));
        }
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let broker_id = crate::federation::mint_broker_id(&self.name, local_addr.port() as u64);
        // Namespace event ids like subscription ids, so events forwarded
        // between federated daemons never collide on `EventId`. A
        // pre-used broker keeps its counter (the rebase only applies to
        // a fresh one).
        self.broker.namespace_event_ids((broker_id as u64) << 32);
        let federation = Federation::start(
            Arc::clone(&self.broker),
            broker_id,
            self.federation_config(),
        );
        let stats = WireStats::new();
        // Surface what recovery found (clicks restored, torn bytes
        // truncated) from the first stats snapshot on.
        stats.record_persist(&clicks.persist_stats());
        let core = Arc::new(ServerCore {
            broker: self.broker,
            federation,
            clicks: Arc::new(Mutex::new(clicks)),
            connections: Mutex::new(Vec::new()),
            stats,
            shutdown: AtomicBool::new(false),
            name: self.name,
            write_timeout: self.write_timeout,
            autosub: AutosubRuntime::new(self.autosub),
            max_frame: self.max_frame_bytes,
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
            let shards = self.loop_threads.unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
            let (threads, control) = crate::event_loop::spawn(listener, core, shards)?;
            server.main_threads = threads;
            server.loop_control = Some(control);
        }
        #[cfg(not(target_os = "linux"))]
        let _ = listener;
        for peer in &self.peers {
            server.core.federation.connect_peer_with_retry(
                peer,
                PEER_DIAL_ATTEMPTS,
                PEER_DIAL_DELAY,
            )?;
        }
        Ok(server)
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
                // The federation advertises the filter if it is new to the
                // broker's index.
                match self.broker.subscribe(conn.subscriber, filter) {
                    Ok(subscription) => {
                        owned.insert(subscription);
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
                        Response::Unsubscribed {
                            filter: Arc::unwrap_or_clone(filter),
                        }
                    }
                    Err(e) => Response::Error {
                        message: e.to_string(),
                    },
                }
            }
            Request::Publish { event } => match self.federation.publish(event) {
                Ok(outcome) => Response::Published {
                    id: outcome.id,
                    delivered: outcome.delivered as u64,
                    dropped: outcome.dropped as u64,
                },
                Err(e) => Response::Error {
                    message: e.to_string(),
                },
            },
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
    /// closed, or it became a peer link): drop its broker subscriber —
    /// which withdraws one advertisement per filter slot it emptied — and
    /// remove it from the registry.
    pub(crate) fn finish_connection(&self, conn: &Arc<Connection>) {
        // Engine-installed subscriptions first: the broker deregistration
        // below would otherwise leave the autosub registry pointing at
        // dead subscription ids.
        self.autosub.drop_subscriber(self, conn.subscriber);
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
            federation: Federation::start(
                Arc::clone(&broker),
                1,
                BrokerServerBuilder::default().federation_config(),
            ),
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
