//! # reef-wire — the networked face of the Reef broker
//!
//! The paper's deployed Reef ran over the real Internet: a browser
//! extension uploaded attention data to a server, and notifications flowed
//! back (§3). This crate gives the reproduction that missing half — real
//! processes exchanging real bytes over TCP — where the rest of the
//! workspace simulates everything in-process:
//!
//! * [`frame`] — a versioned, length-prefixed framing layer ([`Frame`]);
//!   the frame version byte doubles as the **codec negotiation** channel;
//! * [`codec`] — the [`WireCodec`] trait with two implementations:
//!   [`codec::JsonCodec`] (protocol v1, byte-compatible with old
//!   clients) and [`codec::BinaryCodec`] (protocol v2, compact
//!   hand-rolled tag/varint encoding with correlation ids);
//! * [`protocol`] — the message vocabulary ([`Request`], [`Response`],
//!   [`Deliver`], correlation-carrying [`ClientFrame`]/[`ServerFrame`]),
//!   reusing the serde impls already on [`reef_pubsub::Event`],
//!   [`reef_pubsub::Filter`], [`reef_pubsub::PublishedEvent`] and
//!   [`reef_attention::ClickBatch`];
//! * [`server`] — [`BrokerServer`], a TCP daemon around a shared
//!   [`reef_pubsub::Broker`], served by one core: a sharded **epoll
//!   event loop** (Linux) — a fixed set of readiness threads owning every
//!   socket, incremental frame decoding via [`FrameDecoder`],
//!   per-connection outbound buffers that coalesce delivery bursts;
//!   graceful shutdown, per-connection and aggregate [`WireStats`] with
//!   per-codec frame/byte and event-loop counters;
//! * [`poll`] — the minimal Linux `epoll`/`eventfd` bindings the event
//!   loop stands on (no `libc` in the offline build, so the handful of
//!   syscalls are declared directly);
//! * [`federation`] — broker-to-broker links: [`Federation`] runs the
//!   sans-io [`reef_pubsub::BrokerNode`] routing core (subscription
//!   forwarding, covering pruning, reverse-path event routing) unchanged
//!   over OS sockets, driven by the event loop's shard 0; daemons peer
//!   via `reefd --peer ADDR`, re-dial dead links with `--peer-retry`, and
//!   aggregate identical local filters into one refcounted advertisement;
//! * [`client`] — [`Client`], a pipelined client with the familiar
//!   blocking subscribe / unsubscribe / publish / upload-clicks surface,
//!   a batch-friendly [`Client::publish_nowait`], and an iterator over
//!   deliveries;
//! * [`autosub`] — the server-side **automatic subscription** engine
//!   (the paper's headline loop, §2.2): clients enroll users with
//!   [`Request::AutoSubscribe`], the daemon runs the `reef-core`
//!   recommenders over uploaded clicks as they arrive (and again when an
//!   interest's decay deadline passes) and installs/retires the derived
//!   filters as real broker subscriptions, pushing
//!   [`protocol::FeedChange`] notices as the set changes;
//! * the `reefd` binary — the standalone daemon (`cargo run --bin reefd`).
//!
//! # Quickstart
//!
//! ```
//! use reef_pubsub::{Event, Filter, Op};
//! use reef_wire::{BrokerServer, Client};
//! use std::time::Duration;
//!
//! // A daemon on an ephemeral port, and two real socket clients.
//! let server = BrokerServer::bind("127.0.0.1:0").unwrap();
//! let alice = Client::connect_as(server.local_addr(), "alice").unwrap();
//! let bob = Client::connect_as(server.local_addr(), "bob").unwrap();
//!
//! alice.subscribe(Filter::new().and("price", Op::Gt, 10.0)).unwrap();
//! bob.publish(Event::builder().attr("price", 12.5).build()).unwrap();
//!
//! let delivery = alice.recv_delivery(Duration::from_secs(5)).unwrap();
//! assert_eq!(delivery.event.get("price").unwrap().as_f64(), Some(12.5));
//! server.shutdown();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod autosub;
pub mod client;
pub mod codec;
pub mod error;
#[cfg(target_os = "linux")]
mod event_loop;
pub mod federation;
pub mod frame;
#[cfg(target_os = "linux")]
pub mod poll;
pub mod protocol;
pub mod server;
pub mod stats;

pub use autosub::AutosubOptions;
pub use client::{
    Client, ClientBuilder, Deliveries, PendingPublish, RemotePublishOutcome, ServerStats,
};
pub use codec::{CodecKind, WireCodec};
pub use error::WireError;
pub use federation::{Federation, FederationConfig, LOCAL_NODE};
pub use frame::{
    Frame, FrameDecoder, MAX_FRAME_LEN, PROTOCOL_V1_JSON, PROTOCOL_V2_BINARY, PROTOCOL_VERSION,
};
pub use protocol::{
    AutoSubEntry, AutoSubPolicy, AutoSubReceipt, ClientFrame, Deliver, FeedChange, Request,
    Response, ServerFrame, ServerMessage,
};
pub use server::{BrokerServer, BrokerServerBuilder};
pub use stats::{
    AutosubGauges, CodecStatsSnapshot, ConnectionStatsSnapshot, FederationStatsSnapshot,
    LoopStatsSnapshot, PeerStatsSnapshot, WireStats, WireStatsSnapshot,
};
