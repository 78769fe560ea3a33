//! Transport counters, kept per connection and aggregated per server.
//!
//! Each counter set is declared once, as its snapshot struct inside a
//! `counters!` table. The table generates the lock-free live struct (one
//! `AtomicU64` per counter), its `snapshot()`, the [`Counters`] visitor
//! and a `Display` that prints `name=value` pairs in declaration order;
//! `#[derive(Wire)]` on the snapshot gives its v2 layout. Adding a
//! counter is one field line here plus the `record_*` call that feeds it.

use std::borrow::Cow;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use serde_derive::Wire;

use crate::frame::{PROTOCOL_V1_JSON, PROTOCOL_V2_BINARY};

/// A stats snapshot walked counter by counter, in declaration order.
pub trait Counters {
    /// Call `visit(name, value)` for every counter under `path` (empty at
    /// the top). Nested sets name their counters `json.frames_in`, lists
    /// `loops.0.wakeups`.
    fn visit(&self, path: &str, visit: &mut dyn FnMut(&str, u64));

    /// Overwrite every counter, in the same order, with successive values
    /// of `next` (a test fixture gives each counter a distinct value).
    fn fill(&mut self, next: &mut dyn FnMut() -> u64);
}

impl Counters for u64 {
    fn visit(&self, path: &str, visit: &mut dyn FnMut(&str, u64)) {
        visit(path, *self);
    }

    fn fill(&mut self, next: &mut dyn FnMut() -> u64) {
        *self = next();
    }
}

impl Counters for u32 {
    fn visit(&self, path: &str, visit: &mut dyn FnMut(&str, u64)) {
        visit(path, u64::from(*self));
    }

    /// Keeps the low 32 bits of the next value.
    fn fill(&mut self, next: &mut dyn FnMut() -> u64) {
        *self = next() as u32;
    }
}

impl<T: Counters> Counters for Vec<T> {
    fn visit(&self, path: &str, visit: &mut dyn FnMut(&str, u64)) {
        for (i, item) in self.iter().enumerate() {
            item.visit(&join(path, &i.to_string()), visit);
        }
    }

    fn fill(&mut self, next: &mut dyn FnMut() -> u64) {
        for item in self {
            item.fill(next);
        }
    }
}

/// The path of `name` inside `path`.
fn join<'a>(path: &str, name: &'a str) -> Cow<'a, str> {
    if path.is_empty() {
        Cow::Borrowed(name)
    } else {
        Cow::Owned(format!("{path}.{name}"))
    }
}

/// `name=value` for every counter of `set`, space-separated.
fn write_counters(set: &dyn Counters, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    let mut out = Ok(());
    let mut sep = "";
    set.visit("", &mut |name, value| {
        if out.is_ok() {
            out = write!(f, "{sep}{name}={value}");
            sep = " ";
        }
    });
    out
}

/// The live side of one snapshot field: what `snapshot()` reads it with.
trait Live {
    type Snapshot;

    fn read(&self) -> Self::Snapshot;
}

impl Live for AtomicU64 {
    type Snapshot = u64;

    fn read(&self) -> u64 {
        self.load(Ordering::Relaxed)
    }
}

impl Live for Mutex<Vec<Arc<LoopStats>>> {
    type Snapshot = Vec<LoopStatsSnapshot>;

    fn read(&self) -> Vec<LoopStatsSnapshot> {
        self.lock().iter().map(|l| l.snapshot()).collect()
    }
}

/// Declares one counter set: the snapshot struct as written, its
/// [`Counters`] impl and `Display`, and, when a live struct is named
/// first, that struct with a `snapshot()` reading every field. A field's
/// live side is an `AtomicU64` unless `= Type` names another [`Live`].
macro_rules! counters {
    (
        $(#[$live_meta:meta])*
        $live_vis:vis struct $live:ident;
        $(#[$meta:meta])*
        pub struct $snap:ident {
            $($(#[$field_meta:meta])* pub $field:ident: $ty:ty $(= $live_ty:ty)?,)*
        }
    ) => {
        $(#[$live_meta])*
        #[derive(Debug, Default)]
        $live_vis struct $live {
            $($field: counters!(@live $($live_ty)?),)*
        }

        impl $live {
            /// Point-in-time copy of every counter.
            $live_vis fn snapshot(&self) -> $snap {
                $snap { $($field: Live::read(&self.$field),)* }
            }
        }

        impl Live for $live {
            type Snapshot = $snap;

            fn read(&self) -> $snap {
                self.snapshot()
            }
        }

        counters! {
            $(#[$meta])*
            pub struct $snap { $($(#[$field_meta])* pub $field: $ty,)* }
        }
    };
    (@live) => { AtomicU64 };
    (@live $ty:ty) => { $ty };
    (
        $(#[$meta:meta])*
        pub struct $snap:ident {
            $($(#[$field_meta:meta])* pub $field:ident: $ty:ty,)*
        }
    ) => {
        $(#[$meta])*
        pub struct $snap { $($(#[$field_meta])* pub $field: $ty,)* }

        impl Counters for $snap {
            fn visit(&self, path: &str, visit: &mut dyn FnMut(&str, u64)) {
                $(self.$field.visit(&join(path, stringify!($field)), visit);)*
            }

            fn fill(&mut self, next: &mut dyn FnMut() -> u64) {
                $(self.$field.fill(next);)*
            }
        }

        impl fmt::Display for $snap {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write_counters(self, f)
            }
        }
    };
}

counters! {
    /// Frame and byte counters for one codec (one protocol version).
    pub struct CodecStats;

    /// Point-in-time copy of [`CodecStats`]: the traffic one codec carried.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize, Wire)]
    pub struct CodecStatsSnapshot {
        /// Frames read under this codec.
        pub frames_in: u64,
        /// Frames written under this codec.
        pub frames_out: u64,
        /// Bytes read under this codec (headers included).
        pub bytes_in: u64,
        /// Bytes written under this codec (headers included).
        pub bytes_out: u64,
    }
}

impl CodecStats {
    fn record_in(&self, bytes: usize) {
        self.frames_in.fetch_add(1, Ordering::Relaxed);
        self.bytes_in.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    fn record_out(&self, bytes: usize) {
        self.frames_out.fetch_add(1, Ordering::Relaxed);
        self.bytes_out.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

impl CodecStatsSnapshot {
    /// Average wire bytes per written frame, 0 when no frames were
    /// counted.
    pub fn bytes_per_frame_out(&self) -> u64 {
        self.bytes_out.checked_div(self.frames_out).unwrap_or(0)
    }
}

counters! {
    /// Lock-free transport counters. The server keeps one aggregate instance
    /// plus one per live connection; every record call updates both. Frame
    /// and byte totals are additionally broken down per codec so the JSON
    /// vs binary trade is measurable from `Response::Stats`, and the
    /// aggregate carries the per-shard event-loop counters the event loop
    /// registers when its shards spawn.
    pub struct WireStats;

    /// Point-in-time copy of [`WireStats`], also used inside
    /// [`crate::protocol::Response::Stats`]. (Not `Copy` since the per-shard
    /// breakdown joined: `loops` owns a heap allocation.)
    #[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize, Wire)]
    pub struct WireStatsSnapshot {
        /// Connections accepted since the server started.
        pub connections_opened: u64,
        /// Connections that have finished.
        pub connections_closed: u64,
        /// Frames read off sockets.
        pub frames_in: u64,
        /// Frames written to sockets.
        pub frames_out: u64,
        /// Total bytes read (headers included).
        pub bytes_in: u64,
        /// Total bytes written (headers included).
        pub bytes_out: u64,
        /// Requests handled.
        pub requests: u64,
        /// Deliveries pushed.
        pub deliveries: u64,
        /// Deliveries lost on the wire path (socket write failures/timeouts
        /// and full peer-link queues).
        pub delivery_drops: u64,
        /// Errors returned or suffered.
        pub errors: u64,
        /// Event-loop wakeups.
        pub loop_wakeups: u64,
        /// Read-readiness events the event loop handled.
        pub loop_read_events: u64,
        /// Write-readiness events the event loop handled.
        pub loop_write_events: u64,
        /// Socket flushes that carried more than one frame (delivery
        /// coalescing).
        pub writes_coalesced: u64,
        /// Bytes currently held across the click store's live WAL segments
        /// (zero without `--data-dir`).
        pub wal_bytes: u64,
        /// Live WAL segment files of the click store.
        pub wal_segments: u64,
        /// Click-store snapshots written since the daemon started.
        pub wal_snapshots: u64,
        /// Clicks recovered from disk when the daemon started.
        pub recovered_clicks: u64,
        /// Bytes discarded at startup as a torn or corrupt WAL tail.
        pub wal_truncated_bytes: u64,
        /// Users currently enrolled in automatic subscriptions.
        pub autosub_users: u64,
        /// Derived filters currently installed as broker subscriptions.
        pub autosub_active: u64,
        /// Filters the auto-subscription engine installed since start.
        pub autosub_derived: u64,
        /// Filters the auto-subscription engine retired since start.
        pub autosub_retired: u64,
        /// Duration of the engine's last refresh pass that re-derived an
        /// enrolment, in microseconds.
        pub autosub_last_refresh_us: u64,
        /// Matcher snapshots the broker published (one per subscribe,
        /// unsubscribe, deregistration of a subscriber with subscriptions, or
        /// notifier change; the read-mostly index's swap-on-write counter).
        pub matcher_swaps: u64,
        /// The subset of frame/byte traffic carried by the v1 JSON codec.
        pub json: CodecStatsSnapshot = CodecStats,
        /// The subset of frame/byte traffic carried by the v2 binary codec.
        pub binary: CodecStatsSnapshot = CodecStats,
        /// Per-shard event-loop counters (empty on per-connection
        /// snapshots).
        pub loops: Vec<LoopStatsSnapshot> = Mutex<Vec<Arc<LoopStats>>>,
    }
}

impl WireStats {
    /// A zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Count a connection opening.
    pub fn record_open(&self) {
        self.connections_opened.fetch_add(1, Ordering::Relaxed);
    }

    /// Count a connection closing.
    pub fn record_close(&self) {
        self.connections_closed.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one received frame of `bytes` total wire bytes, sent under
    /// protocol `version` (which attributes it to a codec).
    pub fn record_frame_in(&self, version: u8, bytes: usize) {
        self.frames_in.fetch_add(1, Ordering::Relaxed);
        self.bytes_in.fetch_add(bytes as u64, Ordering::Relaxed);
        match version {
            PROTOCOL_V1_JSON => self.json.record_in(bytes),
            PROTOCOL_V2_BINARY => self.binary.record_in(bytes),
            _ => {}
        }
    }

    /// Count one written frame of `bytes` total wire bytes under
    /// protocol `version`.
    pub fn record_frame_out(&self, version: u8, bytes: usize) {
        self.frames_out.fetch_add(1, Ordering::Relaxed);
        self.bytes_out.fetch_add(bytes as u64, Ordering::Relaxed);
        match version {
            PROTOCOL_V1_JSON => self.json.record_out(bytes),
            PROTOCOL_V2_BINARY => self.binary.record_out(bytes),
            _ => {}
        }
    }

    /// Count one handled request.
    pub fn record_request(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one pushed delivery.
    pub fn record_delivery(&self) {
        self.deliveries.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one delivery lost on the wire path (write failure or
    /// timeout on a backpressured socket, or a full peer-link queue).
    pub fn record_delivery_drop(&self) {
        self.delivery_drops.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one error response or protocol failure.
    pub fn record_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one event-loop wakeup (an `epoll_wait` return that reported
    /// at least one readiness event or a pending wake signal).
    pub fn record_loop_wakeup(&self) {
        self.loop_wakeups.fetch_add(1, Ordering::Relaxed);
    }

    /// Count read-readiness events handed to the event loop.
    pub fn record_loop_read_events(&self, n: u64) {
        self.loop_read_events.fetch_add(n, Ordering::Relaxed);
    }

    /// Count write-readiness events handed to the event loop.
    pub fn record_loop_write_events(&self, n: u64) {
        self.loop_write_events.fetch_add(n, Ordering::Relaxed);
    }

    /// Count one coalesced write: a single socket flush that carried more
    /// than one frame.
    pub fn record_write_coalesced(&self) {
        self.writes_coalesced.fetch_add(1, Ordering::Relaxed);
    }

    /// Publish the click store's persistence gauges (WAL size, segment
    /// and snapshot counts, recovery numbers). Unlike the counters above
    /// these are set, not incremented — the persistence layer owns the
    /// running totals.
    pub fn record_persist(&self, persist: &reef_attention::PersistStats) {
        self.wal_bytes.store(persist.wal_bytes, Ordering::Relaxed);
        self.wal_segments.store(persist.segments, Ordering::Relaxed);
        self.wal_snapshots
            .store(persist.snapshots, Ordering::Relaxed);
        self.recovered_clicks
            .store(persist.recovered_clicks, Ordering::Relaxed);
        self.wal_truncated_bytes
            .store(persist.truncated_bytes, Ordering::Relaxed);
    }

    /// Publish the auto-subscription engine's gauges after a refresh
    /// pass. Like [`WireStats::record_persist`] these are set, not
    /// incremented — the engine owns the running totals.
    pub fn record_autosub(&self, gauges: &AutosubGauges) {
        self.autosub_users.store(gauges.users, Ordering::Relaxed);
        self.autosub_active.store(gauges.active, Ordering::Relaxed);
        self.autosub_derived
            .store(gauges.derived, Ordering::Relaxed);
        self.autosub_retired
            .store(gauges.retired, Ordering::Relaxed);
        self.autosub_last_refresh_us
            .store(gauges.last_refresh_us, Ordering::Relaxed);
    }

    /// Publish the broker's matcher snapshot-swap count. A gauge like
    /// the persistence numbers: the broker owns the running total, the
    /// stats paths copy it in when a snapshot is taken.
    pub fn record_matcher_swaps(&self, swaps: u64) {
        self.matcher_swaps.store(swaps, Ordering::Relaxed);
    }

    /// Register one event-loop shard's counter set, so aggregate
    /// snapshots carry the per-shard breakdown.
    pub(crate) fn register_loop(&self, stats: Arc<LoopStats>) {
        self.loops.lock().push(stats);
    }
}

counters! {
    /// Counters one event-loop shard owns: its wakeups, readiness events,
    /// coalesced writes, and a live-connection gauge. The shard records into
    /// these *and* the server aggregate, so totals stay comparable with the
    /// single-loop numbers of older builds.
    pub(crate) struct LoopStats;

    /// Point-in-time copy of one event-loop shard's counters
    /// ([`WireStatsSnapshot::loops`]).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize, Wire)]
    pub struct LoopStatsSnapshot {
        /// Which shard (0-based; federation peer links are pinned to 0).
        pub loop_id: u64,
        /// `epoll_wait` returns that reported readiness on this shard.
        pub wakeups: u64,
        /// Read-readiness events this shard handled.
        pub read_events: u64,
        /// Write-readiness events this shard handled.
        pub write_events: u64,
        /// Socket flushes on this shard that carried more than one frame.
        pub writes_coalesced: u64,
        /// Connections currently owned by this shard.
        pub connections: u64,
    }
}

impl LoopStats {
    /// A zeroed counter set for shard `loop_id`.
    pub(crate) fn new(loop_id: u64) -> Self {
        LoopStats {
            loop_id: AtomicU64::new(loop_id),
            ..Default::default()
        }
    }

    /// Count one `epoll_wait` return that reported readiness.
    pub(crate) fn record_wakeup(&self) {
        self.wakeups.fetch_add(1, Ordering::Relaxed);
    }

    /// Count read-readiness events this shard handled.
    pub(crate) fn record_read_events(&self, n: u64) {
        self.read_events.fetch_add(n, Ordering::Relaxed);
    }

    /// Count write-readiness events this shard handled.
    pub(crate) fn record_write_events(&self, n: u64) {
        self.write_events.fetch_add(n, Ordering::Relaxed);
    }

    /// Count one socket flush that carried more than one frame.
    pub(crate) fn record_write_coalesced(&self) {
        self.writes_coalesced.fetch_add(1, Ordering::Relaxed);
    }

    /// A connection joined this shard.
    pub(crate) fn conn_added(&self) {
        self.connections.fetch_add(1, Ordering::Relaxed);
    }

    /// A connection left this shard (close or migration).
    pub(crate) fn conn_removed(&self) {
        self.connections.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Gauge values published by the auto-subscription engine after each
/// refresh pass (see [`WireStats::record_autosub`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AutosubGauges {
    /// Users currently enrolled.
    pub users: u64,
    /// Derived filters currently installed as broker subscriptions.
    pub active: u64,
    /// Filters derived and installed since the server started.
    pub derived: u64,
    /// Filters retired (decay or displacement) since the server started.
    pub retired: u64,
    /// Wall-clock duration of the last refresh pass that re-derived an
    /// enrolment, in microseconds.
    pub last_refresh_us: u64,
}

/// Per-connection stats snapshot, labelled with who the connection is.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConnectionStatsSnapshot {
    /// Peer address as reported by the OS.
    pub peer: String,
    /// Client name from the `Hello` request, if one was sent.
    pub client: String,
    /// Codec the connection negotiated (`json`, `binary`, or `-` before
    /// the first frame).
    pub codec: String,
    /// Broker subscriber id backing this connection.
    pub subscriber: u64,
    /// Which event-loop shard owns the socket. Always `Some` (the wire
    /// form keeps the option for compatibility).
    pub loop_id: Option<u32>,
    /// The connection's transport counters.
    pub wire: WireStatsSnapshot,
}

counters! {
    /// Point-in-time view of a broker's federation state: peer links and the
    /// sans-io routing core's table sizes.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize, Wire)]
    pub struct FederationStatsSnapshot {
        /// This broker's federation-wide id (namespaces its subscription ids).
        pub broker_id: u32,
        /// Live peer links.
        pub peers: u64,
        /// Routing-table entries in the sans-io core (local wire
        /// subscriptions plus covering-pruned peer advertisements).
        pub routing_entries: u64,
        /// Advertisements currently held toward peers.
        pub advertisements: u64,
        /// Subscription advertisements sent to peers.
        pub subs_forwarded: u64,
        /// Local subscriptions whose filter the broker's index already held,
        /// so they joined its slot and its advertisement instead of being
        /// forwarded again.
        pub subs_aggregated: u64,
        /// Events forwarded to peers.
        pub events_forwarded: u64,
        /// Events received from peers.
        pub events_received: u64,
        /// Events lost because a peer link's bounded queue was full.
        pub events_dropped: u64,
        /// Failover routes held beyond each subscription's fast path
        /// (mesh routing; 0 on tree federations).
        pub mesh_alternates: u64,
        /// Times a dead fast path was replaced by a surviving alternate
        /// (mesh routing; 0 on tree federations).
        pub mesh_reroutes: u64,
        /// Duplicate event copies dropped by the mesh seen-cache
        /// (mesh routing; 0 on tree federations).
        pub mesh_duplicates_suppressed: u64,
        /// Peer-link frame/byte traffic carried by the v1 JSON codec.
        pub json: CodecStatsSnapshot,
        /// Peer-link frame/byte traffic carried by the v2 binary codec.
        pub binary: CodecStatsSnapshot,
    }
}

/// Per-peer-link stats snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PeerStatsSnapshot {
    /// The remote broker's announced name.
    pub broker: String,
    /// Peer address as reported by the OS.
    pub addr: String,
    /// Local link id of this peer in the routing core.
    pub link: u32,
    /// Codec the link negotiated at handshake.
    pub codec: String,
    /// The link's transport counters.
    pub wire: WireStatsSnapshot,
}
