//! The server's one core, an epoll event loop, sharded: a handoff accept
//! loop plus N readiness loops (`--loop-threads`, default = available
//! cores), each owning a slice of the daemon's sockets.
//!
//! # Shape
//!
//! A dedicated **accept loop** owns the listener: it accepts until
//! `EWOULDBLOCK` and hands each socket to the shard chosen by the
//! accepted fd (`fd % N`), waking that shard's eventfd. Each **shard**
//! parks in its own `epoll_wait` and owns its connections outright —
//! read/write buffers, frame reassembly, watermarks, write-timeout
//! eviction sweeps — and reacts to three kinds of readiness:
//!
//! * **wakeup eventfd** — another thread has work for this shard: the
//!   broker queued deliveries ([`reef_pubsub::DeliveryNotifier`]), the
//!   accept loop handed over a socket, the federation enqueued peer
//!   messages or dialed a socket to adopt, or the server wants to shut
//!   down;
//! * **connection readable** — drain the socket into the connection's
//!   [`FrameDecoder`] (partial reads split frames at arbitrary byte
//!   boundaries) and execute every complete frame;
//! * **connection writable** — flush the connection's outbound buffer.
//!
//! The broker reaches the shards through [`ShardSet`], the shard-aware
//! delivery notifier: a publish's fan-out is grouped by target shard and
//! costs **at most one wake per shard**, not one per subscriber. A shard
//! never wakes itself: a publish its own loop thread runs (a client's
//! `Publish` read on that shard, or a forwarded event on shard 0) only
//! adds its subscribers to the shard's dirty set, and the loop drains
//! that set as the last step of every pass, before it parks. Only
//! publishes from other threads — another shard, the auto-subscription
//! runtime, embedding code — write the eventfd, once per publish and
//! shard. The wire counter `loop_wakeups` therefore reads about one per
//! publish on a one-shard daemon, not two.
//!
//! The shard's tables are keyed by ids this process mints sequentially
//! (connection tokens, subscriber ids), so their lookups, several per
//! delivery, hash with `IdHasher` (one multiply) instead of SipHash.
//!
//! # Outbound buffers and backpressure
//!
//! Every connection owns an outbound byte buffer. Replies and deliveries
//! are *encoded into* the buffer and flushed with as few `write` calls
//! as the socket accepts — a fan-out burst of deliveries coalesces into
//! one syscall (counted as `writes_coalesced`). The buffer is bounded by
//! a high watermark: when a consumer stops reading, the buffer fills,
//! the shard stops draining that subscriber's broker queue, the bounded
//! queue fills, and the broker's `--overflow` policy (drop-new or
//! drop-old) counts the loss. Neither policy waits, so a publish run on
//! a shard never stalls that shard's other connections. A connection —
//! client or peer — whose pending bytes make no progress for
//! `--write-timeout-ms` is evicted by its shard's sweep.
//!
//! # Federation on shard 0
//!
//! Peer links are pinned to shard 0 so federation and mesh message
//! ordering is untouched by sharding: shard 0 alone adopts dialed peer
//! sockets, routes what they read (`Federation::incoming`), pumps the
//! link queues and ticks keepalive, so the federation needs no thread of
//! its own. An inbound client connection that sends `PeerHello` on
//! another shard upgrades there and then *migrates* — socket, decoder and
//! outbound buffer move to shard 0 wholesale, so no byte is reordered or
//! lost across the handover.

use crate::codec::CodecKind;
use crate::error::WireError;
use crate::federation::{PeerLink, PeerLoopHook};
use crate::frame::{Frame, FrameDecoder, PROTOCOL_V1_JSON};
use crate::poll::{Epoll, EpollEvent, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use crate::protocol::{Request, Response, ServerFrame};
use crate::server::{Connection, LoopControl, ServerCore};
use crate::stats::LoopStats;
use parking_lot::Mutex;
use reef_pubsub::{
    DeliveryNotifier, NodeId, PeerMsg, SubscriberHandle, SubscriberId, SubscriptionId,
};
use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Token of the listening socket (accept loop's epoll only).
const TOKEN_LISTENER: u64 = 0;
/// Token of a wakeup eventfd.
const TOKEN_WAKE: u64 = 1;
/// First token handed to a connection.
const TOKEN_FIRST_CONN: u64 = 2;

/// How much is read per `read` call on a readable socket.
const READ_CHUNK: usize = 16 * 1024;

/// Upper bound on bytes read from one connection per readiness event,
/// so a firehose sender cannot starve the rest of its shard.
const READ_BUDGET: usize = 256 * 1024;

/// Outbound buffer high watermark: past this many pending bytes the loop
/// stops moving deliveries/peer messages into the buffer, letting
/// backpressure reach the bounded broker queues.
const OUTBUF_HIGH_WATER: usize = 64 * 1024;

/// Upper bound on one `epoll_wait` park, so shutdown checks and
/// write-timeout sweeps stay prompt even on an idle daemon.
const LOOP_PARK_MS: i32 = 50;

/// Hasher for ids this process mints sequentially — connection tokens
/// and subscriber ids. Nobody outside the daemon picks them, so there is
/// no collision flood to resist, and a Fibonacci multiply spreads
/// consecutive ids over both the low bits (the bucket) and the high bits
/// (the table's tag byte) at a fraction of SipHash's cost.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for byte in bytes {
            self.write_u64(u64::from(*byte));
        }
    }

    fn write_u64(&mut self, id: u64) {
        self.0 = (self.0 ^ id).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

/// A map keyed by a sequential id, hashed by [`IdHasher`].
type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A set of sequential ids, hashed by [`IdHasher`].
type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

thread_local! {
    /// The shard whose loop runs on this thread (its [`LoopShared`]'s
    /// address), 0 on every other thread: how a notifier tells a publish
    /// run by the shard itself from one that must wake it.
    static CURRENT_SHARD: Cell<usize> = const { Cell::new(0) };
}

/// A peer connection in flight between shards: a client socket that sent
/// `PeerHello` on a non-zero shard moves to shard 0 with every byte of
/// in-progress state, so the peer stream is never reordered.
struct MigratedPeer {
    stream: TcpStream,
    peer: SocketAddr,
    decoder: FrameDecoder,
    out: OutBuf,
    buffered_deliveries: usize,
    close_after_flush: bool,
    link: Arc<PeerLink>,
}

/// One shard's cross-thread mailbox: its wakeup eventfd plus the inboxes
/// other threads fill for it.
pub(crate) struct LoopShared {
    loop_id: usize,
    wakeup: EventFd,
    /// Set while a wake is already pending, so a 1000-subscriber fan-out
    /// costs one eventfd syscall instead of one per delivery. The shard
    /// clears it right after draining the eventfd.
    wake_pending: AtomicBool,
    /// Subscribers on this shard whose broker queues received deliveries
    /// since the shard last drained them, each listed once however many
    /// publishes reach it before the drain.
    dirty: Mutex<IdSet<SubscriberId>>,
    /// Accepted client sockets handed over by the accept loop.
    handoff: Mutex<Vec<(TcpStream, SocketAddr)>>,
    /// Dialed peer sockets waiting to be registered (shard 0 only).
    adopted: Mutex<Vec<(NodeId, TcpStream)>>,
    /// Peer connections migrating in from other shards (shard 0 only).
    migrated: Mutex<Vec<MigratedPeer>>,
    /// This shard's counters, registered into the server aggregate.
    stats: Arc<LoopStats>,
}

impl LoopShared {
    /// Wake the shard unless a wake is already pending.
    fn wake_once(&self) {
        if !self.wake_pending.swap(true, Ordering::SeqCst) {
            self.wakeup.wake();
        }
    }

    /// Add `subscribers` to the dirty set and wake the shard — unless
    /// this is the shard's own loop thread, which drains the set before
    /// it next parks.
    fn mark_dirty(&self, subscribers: impl IntoIterator<Item = SubscriberId>) {
        self.dirty.lock().extend(subscribers);
        if CURRENT_SHARD.get() != self as *const LoopShared as usize {
            self.wake_once();
        }
    }
}

impl std::fmt::Debug for LoopShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LoopShared")
            .field("loop_id", &self.loop_id)
            .field("dirty", &self.dirty.lock().len())
            .field("handoff", &self.handoff.lock().len())
            .finish()
    }
}

/// The shard-aware face of the event-loop transport: every hook the rest
/// of the system signals the loops through. Delivery notifications are
/// routed (and batched) to the shard owning each subscriber, federation
/// hooks go to shard 0, and shutdown wakes everything.
pub(crate) struct ShardSet {
    shards: Vec<Arc<LoopShared>>,
    /// Wakes the accept loop out of its `epoll_wait` at shutdown.
    accept_wake: EventFd,
    /// Which shard serves each live wire subscriber — the routing table
    /// of the shard-aware delivery notifier. Written by the shard that
    /// registers/closes the connection, read on every publish fan-out.
    by_subscriber: Mutex<IdMap<SubscriberId, usize>>,
}

impl std::fmt::Debug for ShardSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardSet")
            .field("shards", &self.shards.len())
            .field("subscribers", &self.by_subscriber.lock().len())
            .finish()
    }
}

impl DeliveryNotifier for ShardSet {
    fn notify(&self, subscriber: SubscriberId) {
        // Subscribers with no shard are registered directly on the
        // broker (embedding code, tests): not the loops' to serve.
        let Some(&shard) = self.by_subscriber.lock().get(&subscriber) else {
            return;
        };
        self.shards[shard].mark_dirty([subscriber]);
    }

    fn notify_batch(&self, subscribers: &[SubscriberId]) {
        // One publish = at most one wake per shard, however many of its
        // subscribers matched.
        let mut per_shard: Vec<Vec<SubscriberId>> = vec![Vec::new(); self.shards.len()];
        {
            let map = self.by_subscriber.lock();
            for subscriber in subscribers {
                if let Some(&shard) = map.get(subscriber) {
                    per_shard[shard].push(*subscriber);
                }
            }
        }
        for (idx, batch) in per_shard.into_iter().enumerate() {
            if !batch.is_empty() {
                self.shards[idx].mark_dirty(batch);
            }
        }
    }
}

impl PeerLoopHook for ShardSet {
    fn adopt_socket(&self, node: NodeId, stream: TcpStream) {
        // Peer links are pinned to shard 0.
        self.shards[0].adopted.lock().push((node, stream));
        self.shards[0].wake_once();
    }

    fn wake(&self) {
        self.shards[0].wake_once();
    }
}

impl LoopControl for ShardSet {
    fn wake_loop(&self) {
        // Shutdown must always get through, pending flags or not.
        for shard in &self.shards {
            shard.wake_pending.store(true, Ordering::SeqCst);
            shard.wakeup.wake();
        }
        self.accept_wake.wake();
    }
}

/// Outbound byte buffer with a consumed-prefix cursor, so partial writes
/// never shift remaining bytes.
#[derive(Default)]
struct OutBuf {
    buf: Vec<u8>,
    pos: usize,
}

impl OutBuf {
    fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Append one encoded frame; returns its wire length.
    fn push_frame(&mut self, frame: &Frame) -> usize {
        // Writing into a Vec cannot fail.
        frame.write_to(&mut self.buf).expect("write frame to Vec")
    }

    fn unsent(&self) -> &[u8] {
        &self.buf[self.pos..]
    }

    fn consume(&mut self, n: usize) {
        self.pos += n;
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos >= OUTBUF_HIGH_WATER {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }
}

/// What a registered socket is.
enum ConnRole {
    /// A client connection: requests in, replies and deliveries out.
    Client {
        /// Identity and counters shared with `connection_stats`.
        shared: Arc<Connection>,
        /// The broker-side delivery queue backing this connection.
        inbox: SubscriberHandle,
        /// Subscriptions placed by this connection.
        owned: HashSet<SubscriptionId>,
        /// `true` while the broker queue may hold deliveries the
        /// watermark kept out of the outbound buffer.
        hungry: bool,
    },
    /// A federation peer link: `PeerMsg` frames both ways.
    Peer { link: Arc<PeerLink> },
}

/// One socket registered on a shard.
struct LoopConn {
    stream: TcpStream,
    token: u64,
    peer: SocketAddr,
    decoder: FrameDecoder,
    out: OutBuf,
    role: ConnRole,
    /// Whether the epoll registration currently includes `EPOLLOUT`.
    want_write: bool,
    /// Set when a flush made no progress with bytes pending; cleared on
    /// progress. Drives write-timeout eviction.
    stalled_since: Option<Instant>,
    /// Event deliveries (client Deliver frames / peer EventFwd frames)
    /// somewhere in the unflushed buffer — a write failure loses data,
    /// not just replies or control traffic, only while this is nonzero.
    buffered_deliveries: usize,
    /// Close once the outbound buffer drains (orderly `Bye`, fatal
    /// protocol error after the error reply).
    close_after_flush: bool,
}

/// The threads a [`spawn`] call starts, paired with the control handle
/// the server uses to reach them.
pub(crate) type SpawnedLoops = (Vec<JoinHandle<()>>, Arc<dyn LoopControl>);

/// Start the sharded event loop: one accept thread plus `loop_threads`
/// shard threads.
///
/// Registers the shard set as the broker's delivery notifier and the
/// federation's peer hook before any thread starts, so nothing published
/// or dialed in the startup window is missed.
pub(crate) fn spawn(
    listener: TcpListener,
    core: Arc<ServerCore>,
    loop_threads: usize,
) -> Result<SpawnedLoops, WireError> {
    let shard_count = loop_threads.max(1);
    listener.set_nonblocking(true)?;
    let mut shards = Vec::with_capacity(shard_count);
    for loop_id in 0..shard_count {
        let stats = Arc::new(LoopStats::new(loop_id as u64));
        core.stats.register_loop(Arc::clone(&stats));
        shards.push(Arc::new(LoopShared {
            loop_id,
            wakeup: EventFd::new()?,
            wake_pending: AtomicBool::new(false),
            dirty: Mutex::new(IdSet::default()),
            handoff: Mutex::new(Vec::new()),
            adopted: Mutex::new(Vec::new()),
            migrated: Mutex::new(Vec::new()),
            stats,
        }));
    }
    let set = Arc::new(ShardSet {
        shards: shards.clone(),
        accept_wake: EventFd::new()?,
        by_subscriber: Mutex::new(IdMap::default()),
    });
    core.broker
        .set_delivery_notifier(Arc::clone(&set) as Arc<dyn DeliveryNotifier>);
    core.federation
        .set_loop_hook(Arc::clone(&set) as Arc<dyn PeerLoopHook>);
    let mut threads = Vec::with_capacity(shard_count + 1);
    for shard in &shards {
        let epoll = Epoll::new()?;
        epoll.add(shard.wakeup.raw_fd(), EPOLLIN, TOKEN_WAKE)?;
        let event_loop = EventLoop {
            core: Arc::clone(&core),
            set: Arc::clone(&set),
            shared: Arc::clone(shard),
            epoll,
            conns: IdMap::default(),
            by_subscriber: IdMap::default(),
            by_node: HashMap::new(),
            next_token: TOKEN_FIRST_CONN,
            deliver_cache: None,
            draining: IdSet::default(),
            read_buf: vec![0; READ_CHUNK].into_boxed_slice(),
        };
        threads.push(
            std::thread::Builder::new()
                .name(format!("reefd-loop-{}", shard.loop_id))
                .spawn(move || event_loop.run())
                .expect("spawn event loop shard"),
        );
    }
    let accept_epoll = Epoll::new()?;
    accept_epoll.add(listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)?;
    accept_epoll.add(set.accept_wake.raw_fd(), EPOLLIN, TOKEN_WAKE)?;
    let accept = AcceptLoop {
        core,
        set: Arc::clone(&set),
        epoll: accept_epoll,
        listener,
    };
    threads.push(
        std::thread::Builder::new()
            .name("reefd-accept-loop".into())
            .spawn(move || accept.run())
            .expect("spawn accept loop"),
    );
    Ok((threads, set as Arc<dyn LoopControl>))
}

/// The handoff accept loop: owns the listener, assigns each accepted
/// socket to a shard by fd, never touches a payload byte.
struct AcceptLoop {
    core: Arc<ServerCore>,
    set: Arc<ShardSet>,
    epoll: Epoll,
    listener: TcpListener,
}

impl AcceptLoop {
    fn run(self) {
        let mut events = [EpollEvent::default(); 8];
        loop {
            if self.core.shutdown.load(Ordering::SeqCst) {
                return;
            }
            let n = match self.epoll.wait(&mut events, LOOP_PARK_MS) {
                Ok(n) => n,
                Err(_) => {
                    self.core.stats.record_error();
                    std::thread::sleep(Duration::from_millis(10));
                    continue;
                }
            };
            if self.core.shutdown.load(Ordering::SeqCst) {
                return;
            }
            if events
                .iter()
                .take(n)
                .any(|event| event.data() == TOKEN_WAKE)
            {
                self.set.accept_wake.drain();
            }
            if events
                .iter()
                .take(n)
                .any(|event| event.data() == TOKEN_LISTENER)
            {
                self.accept_until_blocked();
            }
        }
    }

    fn accept_until_blocked(&self) {
        loop {
            match self.listener.accept() {
                Ok((stream, peer)) => {
                    if self.core.shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    // Shard assignment by accepted-fd hash: descriptor
                    // numbers recycle evenly, so modulo spreads even
                    // short-lived churn across the shards.
                    let idx = stream.as_raw_fd() as usize % self.set.shards.len();
                    let shard = &self.set.shards[idx];
                    shard.handoff.lock().push((stream, peer));
                    shard.wake_once();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(_) => {
                    // Persistent accept failure (e.g. fd exhaustion):
                    // level-triggered epoll would re-report the pending
                    // connection immediately and spin this thread at
                    // 100% CPU, so back off briefly.
                    self.core.stats.record_error();
                    std::thread::sleep(Duration::from_millis(50));
                    return;
                }
            }
        }
    }
}

/// One shard: an epoll instance and the connections it owns.
struct EventLoop {
    core: Arc<ServerCore>,
    set: Arc<ShardSet>,
    shared: Arc<LoopShared>,
    epoll: Epoll,
    conns: IdMap<u64, LoopConn>,
    by_subscriber: IdMap<SubscriberId, u64>,
    by_node: HashMap<NodeId, u64>,
    next_token: u64,
    /// Last `Deliver` frame encoded, keyed by event identity and codec
    /// version. A publish fans one event out to every subscriber on the
    /// shard in a row, so this single entry turns N identical encodes
    /// into one encode plus N-1 clones of the bytes. Holding the `Arc`
    /// pins the event so pointer identity cannot be recycled under us.
    deliver_cache: Option<(Arc<reef_pubsub::PublishedEvent>, u8, Frame)>,
    /// The dirty set being drained, swapped with the shared one so both
    /// keep their capacity.
    draining: IdSet<SubscriberId>,
    /// Every socket read of this shard lands here before the decoder
    /// copies it out: allocated (and zeroed) once, not per readiness.
    read_buf: Box<[u8]>,
}

impl EventLoop {
    fn run(mut self) {
        // Shard 0 alone runs federation duties: peer links are pinned
        // there so sharding cannot reorder the peer message streams.
        let primary = self.shared.loop_id == 0;
        CURRENT_SHARD.set(Arc::as_ptr(&self.shared) as usize);
        let mut events = vec![EpollEvent::default(); 1024];
        loop {
            if self.core.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let n = match self.epoll.wait(&mut events, LOOP_PARK_MS) {
                Ok(n) => n,
                Err(_) => {
                    self.core.stats.record_error();
                    std::thread::sleep(Duration::from_millis(10));
                    continue;
                }
            };
            if self.core.shutdown.load(Ordering::SeqCst) {
                break;
            }
            if n > 0 {
                self.core.stats.record_loop_wakeup();
                self.shared.stats.record_wakeup();
            }
            for event in events.iter().take(n) {
                let token = event.data();
                let ready = event.readiness();
                match token {
                    TOKEN_WAKE => {
                        self.shared.wakeup.drain();
                        // Re-arm before the tail processing: a notify
                        // landing after this point wakes the next
                        // iteration, one landing before it is covered by
                        // the drain below either way.
                        self.shared.wake_pending.store(false, Ordering::SeqCst);
                    }
                    token => self.conn_ready(token, ready),
                }
            }
            self.adopt_handoffs();
            if primary {
                self.adopt_dialed_peers();
                self.adopt_migrated_peers();
            }
            self.push_feed_notices();
            if primary {
                self.pump_all_peer_queues();
                self.core.federation.tick();
            }
            self.sweep_stalled_writers();
            // Last before parking: every publish this pass ran on this
            // thread marked its subscribers dirty without waking the shard.
            self.drain_dirty_subscribers();
        }
        // Orderly teardown: deregister every client like a normal
        // disconnect would, so a broker outliving the server is clean.
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            self.close_conn(token);
        }
    }

    // -- accepted-socket handoff -----------------------------------------

    /// Register every client socket the accept loop handed this shard.
    fn adopt_handoffs(&mut self) {
        let handoff: Vec<(TcpStream, SocketAddr)> =
            std::mem::take(&mut *self.shared.handoff.lock());
        for (stream, peer) in handoff {
            if self.core.shutdown.load(Ordering::SeqCst) {
                return;
            }
            if self.register_client(stream, peer).is_err() {
                self.core.stats.record_error();
            }
        }
    }

    fn register_client(&mut self, stream: TcpStream, peer: SocketAddr) -> Result<(), WireError> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        let (subscriber, inbox) = self.core.broker.register();
        // No fd-clones at all: the loop owns the socket, writes through its
        // outbound buffers and shuts the stream down itself, so each
        // connection costs exactly one descriptor.
        let shared = Arc::new(Connection::new(
            peer,
            subscriber,
            self.shared.loop_id as u32,
        ));
        self.core.stats.record_open();
        shared.stats.record_open();
        self.core.connections.lock().push(Arc::clone(&shared));
        let token = self.next_token;
        self.next_token += 1;
        self.epoll
            .add(stream.as_raw_fd(), EPOLLIN | EPOLLRDHUP, token)?;
        self.by_subscriber.insert(subscriber, token);
        // Route future delivery notifications for this subscriber here.
        self.set
            .by_subscriber
            .lock()
            .insert(subscriber, self.shared.loop_id);
        self.shared.stats.conn_added();
        self.conns.insert(
            token,
            LoopConn {
                stream,
                token,
                peer,
                decoder: FrameDecoder::with_max_frame(self.core.max_frame),
                out: OutBuf::default(),
                role: ConnRole::Client {
                    shared,
                    inbox,
                    owned: HashSet::new(),
                    hungry: false,
                },
                want_write: false,
                stalled_since: None,
                buffered_deliveries: 0,
                close_after_flush: false,
            },
        );
        Ok(())
    }

    // -- readiness dispatch ----------------------------------------------

    fn conn_ready(&mut self, token: u64, ready: u32) {
        if !self.conns.contains_key(&token) {
            // Closed earlier in this same event batch.
            return;
        }
        if ready & (EPOLLIN | EPOLLRDHUP) != 0 {
            self.core.stats.record_loop_read_events(1);
            self.shared.stats.record_read_events(1);
            self.read_ready(token);
        }
        if self.conns.contains_key(&token) && ready & EPOLLOUT != 0 {
            self.core.stats.record_loop_write_events(1);
            self.shared.stats.record_write_events(1);
            self.flush(token);
        }
        // A pure error/hangup with nothing readable: tear down. (If data
        // was readable, the read path already saw the EOF or error.)
        if ready & (EPOLLERR | EPOLLHUP) != 0
            && ready & EPOLLIN == 0
            && self.conns.contains_key(&token)
        {
            self.close_conn(token);
        }
    }

    fn read_ready(&mut self, token: u64) {
        // Per-readiness read budget: one endless sender must not pin the
        // shard inside this function and starve every other connection,
        // the delivery pumps and the stall sweep. Level-triggered epoll
        // re-reports whatever is left for the next iteration.
        let mut budget = READ_BUDGET;
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            match conn.stream.read(&mut self.read_buf) {
                Ok(0) => {
                    self.close_conn(token);
                    return;
                }
                Ok(n) => {
                    // A closing conversation ignores further input:
                    // discard the bytes (still draining the socket so
                    // level-triggered readiness goes quiet) instead of
                    // buffering them without bound while the error reply
                    // waits to flush.
                    if !conn.close_after_flush {
                        conn.decoder.extend(&self.read_buf[..n]);
                        // Frames are executed as soon as they are
                        // complete, so one endless sender cannot buffer
                        // unboundedly.
                        if !self.process_frames(token) {
                            return;
                        }
                    }
                    budget = budget.saturating_sub(n);
                    // Read on past a short read, to `EAGAIN`: frames that
                    // arrived while these executed join this pass and its
                    // drain's batch, which is worth more than the one
                    // `read` a stop at the short read would save.
                    if budget == 0 {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.record_conn_error(token);
                    self.close_conn(token);
                    return;
                }
            }
        }
        self.flush(token);
    }

    /// Execute every complete frame buffered on `token`. Returns `false`
    /// when the connection was closed or left this shard.
    fn process_frames(&mut self, token: u64) -> bool {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return false;
            };
            if conn.close_after_flush {
                // The conversation is over; anything further is ignored.
                return true;
            }
            let frame = match conn.decoder.next_frame() {
                Ok(Some(frame)) => frame,
                Ok(None) => return true,
                Err(_) => {
                    self.record_conn_error(token);
                    self.close_conn(token);
                    return false;
                }
            };
            let wire_len = frame.wire_len();
            match &conn.role {
                ConnRole::Client { shared, .. } => {
                    shared.stats.record_frame_in(frame.version, wire_len);
                    self.core.stats.record_frame_in(frame.version, wire_len);
                    if !self.handle_client_frame(token, frame) {
                        return false;
                    }
                }
                ConnRole::Peer { link } => {
                    link.stats.record_frame_in(frame.version, wire_len);
                    self.core
                        .federation
                        .links
                        .wire
                        .record_frame_in(frame.version, wire_len);
                    if !self.handle_peer_frame(token, frame) {
                        return false;
                    }
                }
            }
        }
    }

    // -- client protocol -------------------------------------------------

    /// Handle one frame on a client connection. Returns `false` when the
    /// connection was closed.
    fn handle_client_frame(&mut self, token: u64, frame: Frame) -> bool {
        let frame_wire_len = frame.wire_len();
        let conn = self.conns.get_mut(&token).expect("caller checked");
        let ConnRole::Client { shared, .. } = &conn.role else {
            unreachable!("caller matched Client");
        };
        let shared = Arc::clone(shared);
        // Codec negotiation: the first frame's version byte picks the
        // codec for the connection's lifetime; later frames must not
        // switch.
        let negotiated = shared.codec_version.load(Ordering::SeqCst);
        if negotiated == 0 {
            if CodecKind::for_version(frame.version).is_none() {
                self.record_conn_error(token);
                // Answer in JSON, the one encoding any client can read,
                // then give up on the stream (unknown-version payloads
                // cannot be framed reliably).
                let message = format!(
                    "unsupported protocol version {}; this server speaks v1 (json) and v2 (binary)",
                    frame.version
                );
                self.queue_reply(token, 0, Response::Error { message });
                if let Some(c) = self.conns.get_mut(&token) {
                    c.close_after_flush = true;
                }
                self.flush(token);
                return self.conns.contains_key(&token);
            }
            shared.codec_version.store(frame.version, Ordering::SeqCst);
        } else if frame.version != negotiated {
            self.record_conn_error(token);
            let message = format!(
                "codec switched mid-stream: connection negotiated v{negotiated}, frame carries v{}",
                frame.version
            );
            self.queue_reply(token, 0, Response::Error { message });
            if let Some(c) = self.conns.get_mut(&token) {
                c.close_after_flush = true;
            }
            self.flush(token);
            return self.conns.contains_key(&token);
        }
        let client_frame = match shared.codec().decode_client(&frame) {
            Ok(client_frame) => client_frame,
            Err(e) => {
                self.record_conn_error(token);
                self.queue_reply(
                    token,
                    0,
                    Response::Error {
                        message: e.to_string(),
                    },
                );
                // On v1 the error reply pairs by order, so the
                // conversation can continue. On v2 the real correlation
                // id is unrecoverable — close instead.
                if frame.version != PROTOCOL_V1_JSON {
                    if let Some(c) = self.conns.get_mut(&token) {
                        c.close_after_flush = true;
                    }
                    self.flush(token);
                    return self.conns.contains_key(&token);
                }
                return true;
            }
        };
        shared.stats.record_request();
        self.core.stats.record_request();

        if let Request::PeerHello {
            version,
            broker,
            broker_id,
        } = client_frame.request
        {
            return self.upgrade_to_peer(token, client_frame.corr, version, broker, broker_id);
        }

        let is_bye = matches!(client_frame.request, Request::Bye);
        let response = {
            let conn = self.conns.get_mut(&token).expect("conn still live");
            let ConnRole::Client { owned, .. } = &mut conn.role else {
                unreachable!("still a client");
            };
            // `owned` borrows the connection while the broker executes
            // the request; the core never reaches back into the loop.
            let mut owned_taken = std::mem::take(owned);
            let response = self.core.handle_request(
                &shared,
                &mut owned_taken,
                client_frame.request,
                frame_wire_len,
            );
            if let Some(conn) = self.conns.get_mut(&token) {
                if let ConnRole::Client { owned, .. } = &mut conn.role {
                    *owned = owned_taken;
                }
            }
            response
        };
        if matches!(response, Response::Error { .. }) {
            self.record_conn_error(token);
        }
        self.queue_reply(token, client_frame.corr, response);
        if is_bye {
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.close_after_flush = true;
            }
            self.flush(token);
        }
        // Ordinary replies stay buffered: the read path flushes once per
        // readiness batch, so a pipelined request burst answers with one
        // coalesced write instead of one syscall per request.
        self.conns.contains_key(&token)
    }

    /// Append one correlated reply to the connection's outbound buffer.
    fn queue_reply(&mut self, token: u64, corr: u64, response: Response) {
        self.queue_server_frame(token, ServerFrame::Reply { corr, response });
    }

    /// Append one server frame (reply or unsolicited notice) to a client
    /// connection's outbound buffer.
    fn queue_server_frame(&mut self, token: u64, message: ServerFrame) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let ConnRole::Client { shared, .. } = &conn.role else {
            return;
        };
        match shared.codec().encode_server(&message) {
            Ok(frame) => {
                let written = conn.out.push_frame(&frame);
                shared.stats.record_frame_out(frame.version, written);
                self.core.stats.record_frame_out(frame.version, written);
            }
            Err(_) => {
                shared.stats.record_error();
                self.core.stats.record_error();
            }
        }
    }

    /// Turn a client connection into a federation peer link: the role
    /// swaps in place, and — when this is not shard 0 — the connection
    /// then migrates to shard 0, where every peer link lives.
    fn upgrade_to_peer(
        &mut self,
        token: u64,
        corr: u64,
        version: u8,
        peer_broker: String,
        peer_broker_id: u32,
    ) -> bool {
        let Some(conn) = self.conns.get_mut(&token) else {
            return false;
        };
        let ConnRole::Client { shared, .. } = &conn.role else {
            return true;
        };
        let shared = Arc::clone(shared);
        let negotiated = shared.codec_version.load(Ordering::SeqCst);
        if version != negotiated {
            let message = format!(
                "PeerHello version field v{version} disagrees with the frame codec v{negotiated}"
            );
            self.queue_reply(token, corr, Response::Error { message });
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.close_after_flush = true;
            }
            self.flush(token);
            return self.conns.contains_key(&token);
        }
        let welcome = Response::PeerWelcome {
            version: negotiated,
            broker: self.core.federation.name().to_owned(),
            broker_id: self.core.federation.broker_id(),
        };
        self.queue_reply(token, corr, welcome);
        // No longer a client: torn down like a closed one.
        self.by_subscriber.remove(&shared.subscriber);
        self.set.by_subscriber.lock().remove(&shared.subscriber);
        self.core.finish_connection(&shared);
        let codec = CodecKind::for_version(negotiated).unwrap_or(CodecKind::Json);
        let conn = self.conns.get_mut(&token).expect("conn still live");
        let control = match conn.stream.try_clone() {
            Ok(control) => control,
            Err(_) => {
                self.core.stats.record_error();
                self.drop_conn_raw(token);
                return false;
            }
        };
        let peer_addr = conn.peer.to_string();
        let link = self.core.federation.register_link(
            control,
            peer_broker,
            peer_broker_id,
            peer_addr,
            codec,
            None,
        );
        if self.shared.loop_id == 0 {
            let conn = self.conns.get_mut(&token).expect("conn still live");
            let node = link.node;
            conn.role = ConnRole::Peer { link };
            self.by_node.insert(node, token);
            // Advertisement sync for the new neighbor is already on the
            // link queue; move it behind the PeerWelcome bytes.
            self.pump_peer_queue(token);
            return true;
        }
        // Peer links are pinned to shard 0 so federation/mesh ordering is
        // untouched by sharding: hand the socket over wholesale — decoder
        // (frames that followed PeerHello in the same read), outbound
        // buffer (PeerWelcome bytes), flags and all.
        let conn = self.conns.remove(&token).expect("conn still live");
        let _ = self.epoll.delete(conn.stream.as_raw_fd());
        self.shared.stats.conn_removed();
        let primary = &self.set.shards[0];
        primary.migrated.lock().push(MigratedPeer {
            stream: conn.stream,
            peer: conn.peer,
            decoder: conn.decoder,
            out: conn.out,
            buffered_deliveries: conn.buffered_deliveries,
            close_after_flush: conn.close_after_flush,
            link,
        });
        primary.wake_once();
        false
    }

    /// Tear down a half-upgraded connection whose client-side
    /// bookkeeping (deregistration, close accounting) already ran —
    /// going through [`EventLoop::close_conn`] would count the close a
    /// second time.
    fn drop_conn_raw(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.epoll.delete(conn.stream.as_raw_fd());
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
            self.shared.stats.conn_removed();
        }
    }

    // -- peer protocol ---------------------------------------------------

    /// Handle one frame on a peer link. Returns `false` when the
    /// connection was closed.
    fn handle_peer_frame(&mut self, token: u64, frame: Frame) -> bool {
        let Some(conn) = self.conns.get_mut(&token) else {
            return false;
        };
        let ConnRole::Peer { link } = &conn.role else {
            return true;
        };
        // The link's codec was fixed at handshake; `decode_peer` rejects
        // any frame whose version byte disagrees.
        match link.codec.codec().decode_peer(&frame) {
            Ok(msg) => {
                self.core.federation.incoming(link.node, msg);
                true
            }
            Err(_) => {
                link.stats.record_error();
                self.core.stats.record_error();
                self.close_conn(token);
                false
            }
        }
    }

    /// Register a freshly dialed peer socket handed over by the
    /// federation (startup dial, `add_peer`, redial). Shard 0 only.
    fn adopt_dialed_peers(&mut self) {
        let adopted: Vec<(NodeId, TcpStream)> = std::mem::take(&mut *self.shared.adopted.lock());
        for (node, stream) in adopted {
            let Some(link) = self.core.federation.link(node) else {
                // The link died before the loop saw it.
                continue;
            };
            let peer = match stream.peer_addr() {
                Ok(peer) => peer,
                Err(_) => {
                    self.core.federation.peer_disconnected(node);
                    continue;
                }
            };
            if stream.set_nonblocking(true).is_err() {
                self.core.federation.peer_disconnected(node);
                continue;
            }
            let token = self.next_token;
            self.next_token += 1;
            if self
                .epoll
                .add(stream.as_raw_fd(), EPOLLIN | EPOLLRDHUP, token)
                .is_err()
            {
                self.core.federation.peer_disconnected(node);
                continue;
            }
            self.by_node.insert(node, token);
            self.shared.stats.conn_added();
            self.conns.insert(
                token,
                LoopConn {
                    stream,
                    token,
                    peer,
                    decoder: FrameDecoder::with_max_frame(self.core.max_frame),
                    out: OutBuf::default(),
                    role: ConnRole::Peer { link },
                    want_write: false,
                    stalled_since: None,
                    buffered_deliveries: 0,
                    close_after_flush: false,
                },
            );
            // Neighbor sync enqueued at registration is waiting.
            self.pump_peer_queue(token);
        }
    }

    /// Adopt peer connections that upgraded on another shard and
    /// migrated here. Shard 0 only.
    fn adopt_migrated_peers(&mut self) {
        let migrated: Vec<MigratedPeer> = std::mem::take(&mut *self.shared.migrated.lock());
        for m in migrated {
            let token = self.next_token;
            self.next_token += 1;
            if self
                .epoll
                .add(m.stream.as_raw_fd(), EPOLLIN | EPOLLRDHUP, token)
                .is_err()
            {
                self.core.stats.record_error();
                self.core.federation.peer_disconnected(m.link.node);
                continue;
            }
            self.by_node.insert(m.link.node, token);
            self.shared.stats.conn_added();
            self.conns.insert(
                token,
                LoopConn {
                    stream: m.stream,
                    token,
                    peer: m.peer,
                    decoder: m.decoder,
                    out: m.out,
                    role: ConnRole::Peer { link: m.link },
                    want_write: false,
                    stalled_since: None,
                    buffered_deliveries: m.buffered_deliveries,
                    close_after_flush: m.close_after_flush,
                },
            );
            // Frames that followed PeerHello in the same read burst are
            // already sitting in the migrated decoder; no readiness
            // event will re-announce them, so execute them now, then
            // flush the PeerWelcome and pump the advertisement sync.
            if self.process_frames(token) {
                self.flush(token);
                self.pump_peer_queue(token);
            }
        }
    }

    /// Move queued `PeerMsg`s from every link queue into the owning
    /// connection's outbound buffer.
    fn pump_all_peer_queues(&mut self) {
        let tokens: Vec<u64> = self.by_node.values().copied().collect();
        for token in tokens {
            self.pump_peer_queue(token);
        }
    }

    fn pump_peer_queue(&mut self, token: u64) {
        loop {
            let mut moved = 0usize;
            loop {
                let Some(conn) = self.conns.get_mut(&token) else {
                    return;
                };
                let ConnRole::Peer { link } = &conn.role else {
                    return;
                };
                if conn.out.pending() >= OUTBUF_HIGH_WATER {
                    break;
                }
                let Ok(msg) = link.out_rx.try_recv() else {
                    break;
                };
                let is_event = matches!(msg, PeerMsg::EventFwd { .. });
                if is_event {
                    link.queued_events.fetch_sub(1, Ordering::Relaxed);
                }
                match link.codec.codec().encode_peer(&msg) {
                    Ok(frame) => {
                        let written = conn.out.push_frame(&frame);
                        if is_event {
                            conn.buffered_deliveries += 1;
                        }
                        link.stats.record_frame_out(frame.version, written);
                        self.core
                            .federation
                            .links
                            .wire
                            .record_frame_out(frame.version, written);
                        moved += 1;
                    }
                    Err(_) => {
                        link.stats.record_error();
                    }
                }
            }
            if moved > 1 {
                self.core.stats.record_write_coalesced();
                self.shared.stats.record_write_coalesced();
            }
            if moved == 0 {
                return;
            }
            self.write_out(token);
            // Keep going only if the socket drained the watermark away
            // and the queue may still hold messages.
            let Some(conn) = self.conns.get(&token) else {
                return;
            };
            if conn.out.pending() >= OUTBUF_HIGH_WATER {
                return;
            }
        }
    }

    // -- deliveries ------------------------------------------------------

    /// Push queued autosub `FeedChanged` notices into their owning
    /// connections' outbound buffers. The runtime wakes the owning shard
    /// through the delivery notifier after queueing one.
    fn push_feed_notices(&mut self) {
        if !self.core.autosub.has_notices() {
            return;
        }
        let targets: Vec<(SubscriberId, u64)> = self
            .by_subscriber
            .iter()
            .map(|(subscriber, token)| (*subscriber, *token))
            .collect();
        for (subscriber, token) in targets {
            let changes = self.core.autosub.take_notices(subscriber);
            if changes.is_empty() {
                continue;
            }
            for change in changes {
                self.queue_server_frame(token, ServerFrame::FeedChanged(change));
            }
            self.flush(token);
        }
    }

    /// Drain the broker queues of every subscriber the notifier flagged
    /// onto this shard.
    fn drain_dirty_subscribers(&mut self) {
        let mut dirty = std::mem::take(&mut self.draining);
        std::mem::swap(&mut *self.shared.dirty.lock(), &mut dirty);
        for subscriber in dirty.drain() {
            // An id without a token closed between notify and drain.
            if let Some(&token) = self.by_subscriber.get(&subscriber) {
                self.pump_deliveries(token);
            }
        }
        self.draining = dirty;
    }

    /// Encode queued deliveries for one connection into its outbound
    /// buffer, up to the watermark, and flush with as few writes as the
    /// socket accepts — the coalescing path.
    fn pump_deliveries(&mut self, token: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let ConnRole::Client {
                shared,
                inbox,
                hungry,
                ..
            } = &mut conn.role
            else {
                return;
            };
            let codec = shared.codec();
            let (mut frames, mut bytes) = (0usize, 0usize);
            loop {
                if conn.out.pending() >= OUTBUF_HIGH_WATER {
                    // Watermark: leave the rest on the bounded broker
                    // queue and come back when the socket drains.
                    *hungry = true;
                    break;
                }
                let Some(event) = inbox.try_recv() else {
                    *hungry = false;
                    break;
                };
                // Fan-out reuse: every subscriber of this shard gets the
                // same event, so encode it once per (event, codec) and
                // replay the bytes for the rest of the shard.
                let hit = matches!(
                    &self.deliver_cache,
                    Some((cached, version, _))
                        if Arc::ptr_eq(cached, &event) && *version == codec.version()
                );
                if !hit {
                    match codec.encode_deliver(&event) {
                        Ok(frame) => {
                            self.deliver_cache = Some((event, codec.version(), frame));
                        }
                        Err(_) => {
                            self.deliver_cache = None;
                            shared.stats.record_error();
                            self.core.stats.record_error();
                            continue;
                        }
                    }
                }
                let Some((_, _, frame)) = &self.deliver_cache else {
                    unreachable!("deliver cache filled above");
                };
                bytes += conn.out.push_frame(frame);
                frames += 1;
            }
            if frames == 0 {
                return;
            }
            // Counted once per batch, before the write that lets the
            // client see the deliveries.
            conn.buffered_deliveries += frames;
            shared
                .stats
                .record_deliveries(codec.version(), frames, bytes);
            self.core
                .stats
                .record_deliveries(codec.version(), frames, bytes);
            if frames > 1 {
                self.core.stats.record_write_coalesced();
                self.shared.stats.record_write_coalesced();
            }
            self.write_out(token);
            // Another round only when the socket drained the buffer and
            // the broker queue may still be holding events back.
            let Some(conn) = self.conns.get(&token) else {
                return;
            };
            let still_hungry = matches!(conn.role, ConnRole::Client { hungry: true, .. });
            if !still_hungry || conn.out.pending() >= OUTBUF_HIGH_WATER {
                return;
            }
        }
    }

    // -- writes ----------------------------------------------------------

    /// Write as much pending output as the socket accepts, then top the
    /// buffer back up from whatever the watermark held back.
    fn flush(&mut self, token: u64) {
        self.write_out(token);
        let Some(conn) = self.conns.get(&token) else {
            return;
        };
        let is_hungry_client = matches!(conn.role, ConnRole::Client { hungry: true, .. });
        let is_peer = matches!(conn.role, ConnRole::Peer { .. });
        if conn.out.pending() < OUTBUF_HIGH_WATER {
            if is_hungry_client {
                self.pump_deliveries(token);
            } else if is_peer {
                self.pump_peer_queue(token);
            }
        }
    }

    /// The raw write half of [`EventLoop::flush`]: drain pending bytes,
    /// manage `EPOLLOUT` interest and the stall clock, never re-pump.
    fn write_out(&mut self, token: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.out.pending() == 0 {
                break;
            }
            match conn.stream.write(conn.out.unsent()) {
                Ok(0) => {
                    self.record_conn_error(token);
                    self.close_conn(token);
                    return;
                }
                Ok(n) => {
                    conn.out.consume(n);
                    conn.stalled_since = None;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if conn.stalled_since.is_none() {
                        conn.stalled_since = Some(Instant::now());
                    }
                    if !conn.want_write {
                        conn.want_write = true;
                        let fd = conn.stream.as_raw_fd();
                        let _ = self
                            .epoll
                            .modify(fd, EPOLLIN | EPOLLRDHUP | EPOLLOUT, token);
                    }
                    return;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.record_delivery_drop(token);
                    self.close_conn(token);
                    return;
                }
            }
        }
        // Fully flushed.
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        conn.stalled_since = None;
        conn.buffered_deliveries = 0;
        if conn.want_write {
            conn.want_write = false;
            let fd = conn.stream.as_raw_fd();
            let _ = self.epoll.modify(fd, EPOLLIN | EPOLLRDHUP, token);
        }
        if conn.close_after_flush {
            self.close_conn(token);
        }
    }

    /// Evict connections whose pending bytes made no progress for the
    /// configured write timeout — the slow-consumer bound, swept per
    /// shard.
    fn sweep_stalled_writers(&mut self) {
        let timeout = self.core.write_timeout;
        let stalled: Vec<u64> = self
            .conns
            .values()
            .filter(|conn| {
                conn.stalled_since
                    .is_some_and(|since| since.elapsed() >= timeout)
            })
            .map(|conn| conn.token)
            .collect();
        for token in stalled {
            self.record_delivery_drop(token);
            self.close_conn(token);
        }
    }

    // -- teardown and accounting -----------------------------------------

    fn record_conn_error(&self, token: u64) {
        self.core.stats.record_error();
        if let Some(conn) = self.conns.get(&token) {
            match &conn.role {
                ConnRole::Client { shared, .. } => shared.stats.record_error(),
                ConnRole::Peer { link } => link.stats.record_error(),
            }
        }
    }

    /// Count undeliverable pending output against the right counters.
    fn record_delivery_drop(&self, token: u64) {
        self.core.stats.record_error();
        let Some(conn) = self.conns.get(&token) else {
            return;
        };
        // Only charge a delivery drop when the doomed buffer actually
        // held deliveries — a stalled Stats reply or advertisement sync
        // is an error, not lost event data.
        let lost_deliveries = conn.buffered_deliveries > 0;
        if lost_deliveries {
            self.core.stats.record_delivery_drop();
        }
        match &conn.role {
            ConnRole::Client { shared, .. } => {
                shared.stats.record_error();
                if lost_deliveries {
                    shared.stats.record_delivery_drop();
                }
            }
            ConnRole::Peer { link } => {
                link.stats.record_error();
                if lost_deliveries {
                    link.stats.record_delivery_drop();
                }
            }
        }
    }

    fn close_conn(&mut self, token: u64) {
        let Some(conn) = self.conns.remove(&token) else {
            return;
        };
        let _ = self.epoll.delete(conn.stream.as_raw_fd());
        let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        self.shared.stats.conn_removed();
        match conn.role {
            ConnRole::Client { shared, .. } => {
                self.by_subscriber.remove(&shared.subscriber);
                self.set.by_subscriber.lock().remove(&shared.subscriber);
                self.core.finish_connection(&shared);
            }
            ConnRole::Peer { link } => {
                let node = link.node;
                self.by_node.remove(&node);
                drop(link);
                // Withdraw the peer's advertisements, re-advertise to the
                // remaining links, maybe kick off a redial.
                self.core.federation.peer_disconnected(node);
            }
        }
    }
}
