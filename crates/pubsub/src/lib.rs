//! # reef-pubsub — content-based publish-subscribe substrate
//!
//! This crate is the publish-subscribe substrate that the Reef architecture
//! (Brenna et al., *Automatic Subscriptions In Publish-Subscribe Systems*,
//! ICDCSW'06) places subscriptions into. It provides, from scratch:
//!
//! * typed **events** as name-value pairs ([`Event`], [`Value`]);
//! * a **filter algebra** — conjunctions of predicates with equality,
//!   ordering, string and existence operators ([`Filter`], [`Op`]) plus a
//!   covering relation used for routing optimization;
//! * **schemas** describing "valid name-value pairs" of a pub/sub
//!   interface ([`Schema`]), the contract the attention parser matches
//!   tokens against (paper §2.1);
//! * the **matching index** ([`IndexMatcher`]): one posting per distinct
//!   filter, reached through an equality access key or by counting, with
//!   structural sharing between snapshots — the one engine the broker and
//!   the routing core run. [`NaiveMatcher`], a linear scan behind the same
//!   [`MatchEngine`] trait, is kept only as the oracle tests and
//!   benchmarks compare it with; nothing at run time can select it;
//! * a thread-safe single-node **broker** ([`Broker`]) with per-subscriber
//!   delivery queues;
//! * a sans-io **broker routing core** ([`BrokerNode`]) — subscription
//!   forwarding, covering-based pruning and reverse-path event routing as
//!   a pure message-in/message-out state machine ([`PeerMsg`]), with no
//!   I/O and no clock. `reef-wire` drives it over TCP, `reef-sim` over a
//!   deterministic simulated network.
//!
//! # Quickstart
//!
//! ```
//! use reef_pubsub::{Broker, Event, Filter, Op};
//!
//! let broker = Broker::new();
//! let (me, inbox) = broker.register();
//! broker.subscribe(me, Filter::new().and("price", Op::Gt, 10.0))?;
//! broker.publish(Event::builder().attr("price", 12.5).build())?;
//! assert_eq!(inbox.drain().len(), 1);
//! # Ok::<(), reef_pubsub::BrokerError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod broker;
pub mod clock;
pub mod error;
pub mod event;
pub mod filter;
pub mod matcher;
pub mod overlay;
pub mod parse;
mod pmap;
pub mod routed;
pub mod routing;
pub mod schema;
pub mod stats;
pub mod value;

pub use broker::{
    Broker, BrokerBuilder, DeliveryNotifier, InterestEdge, InterestObserver, OverflowPolicy,
    PublishOutcome, SubscriberHandle, SubscriberId,
};
pub use clock::{Clock, ManualClock, SystemClock};
pub use error::{BrokerError, SchemaError};
pub use event::{Event, EventBuilder, EventId, PublishedEvent, TOPIC_ATTR};
pub use filter::{Filter, FilterKey, Op, Predicate};
pub use matcher::{IndexMatcher, MatchEngine, NaiveMatcher, SlotId, SubscriptionId};
pub use overlay::{BrokerNode, ClientId, GlobalSubId, NodeId, NodeOutput, PeerMsg, MAX_HOPS};
pub use parse::{parse_filter, parse_filters, ParseFilterError};
pub use routed::{PeerSink, RoutedBroker};
pub use routing::MeshRouter;
pub use schema::{feed_events_schema, stock_quote_schema, AttrSpec, Schema, SchemaBuilder};
pub use stats::BrokerStatsSnapshot;
pub use value::{Value, ValueType};
