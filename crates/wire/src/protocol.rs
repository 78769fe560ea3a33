//! The request/response/delivery vocabulary of the wire protocol.
//!
//! Three enums cross the socket, encoded by the connection's negotiated
//! [`crate::codec::WireCodec`] inside [`crate::frame::Frame`]s:
//!
//! * [`Request`] — client → server;
//! * [`Response`] — server → client, exactly one per request;
//! * [`Deliver`] — server → client, pushed asynchronously whenever a
//!   published event matches one of the connection's subscriptions.
//!
//! On the wire, requests travel as [`ClientFrame`]s (a client-assigned
//! correlation id plus the request) and everything the server sends as
//! [`ServerFrame`]s (a reply echoing its request's correlation id, or a
//! delivery), so responses are decoupled from deliveries *and* from
//! request order. The v1 JSON codec is the exception, for byte
//! compatibility with old clients: it strips the correlation id
//! (requests go out as bare [`Request`] JSON, server traffic as
//! [`ServerMessage`] JSON) and pairing falls back to request order.
//! The payload types ([`Event`], [`Filter`], [`PublishedEvent`],
//! [`ClickBatch`]) are the workspace's own — the wire reuses their serde
//! impls rather than inventing parallel DTOs.
//!
//! The v2 binary layout is declared here too: every type derives `Wire`
//! (fields in declaration order), and the `#[wire(tag = N)]` on each
//! enum variant is its tag byte. Tags are append-only; see
//! [`crate::codec`] for the rules and the table.
//!
//! # Peer links
//!
//! Brokers federate over the same port clients connect to. A dialing
//! broker's first frame is [`Request::PeerHello`] instead of
//! [`Request::Hello`]; the server answers [`Response::PeerWelcome`] and
//! both sides *upgrade* the connection: every subsequent frame in either
//! direction is one [`reef_pubsub::PeerMsg`] — the exact message type the
//! sans-io [`reef_pubsub::BrokerNode`] routing core consumes and emits
//! (subscription forward/cancel with covering-pruned advertisements,
//! event forward with hop count). Versioning rides on the frame header
//! plus the version field both `PeerHello` and `PeerWelcome` carry.

use reef_attention::{ClickBatch, UploadReceipt};
use reef_core::AutoSubMode;
use reef_pubsub::{BrokerStatsSnapshot, Event, EventId, Filter, PublishedEvent, SubscriptionId};
use reef_simweb::UserId;
use serde::{Deserialize, Serialize};
use serde_derive::Wire;

use crate::stats::{FederationStatsSnapshot, WireStatsSnapshot};

/// How the server-side auto-subscription engine should treat one user,
/// sent with [`Request::AutoSubscribe`].
///
/// `None` in the request means "use the daemon's defaults" (the
/// `reefd --autosub-*` flags); an explicit policy overrides them per
/// enrollment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Wire)]
pub struct AutoSubPolicy {
    /// Recommender deriving the filters.
    pub recommender: AutoSubMode,
    /// At most this many derived filters at once.
    pub max_filters: u32,
    /// Interest half-life in seconds (non-positive disables decay).
    pub half_life_secs: f64,
    /// Install/retire score threshold.
    pub min_score: f64,
}

impl Default for AutoSubPolicy {
    fn default() -> Self {
        let c = reef_core::AutoSubConfig::default();
        AutoSubPolicy {
            recommender: c.mode,
            max_filters: c.max_filters as u32,
            half_life_secs: c.half_life_secs,
            min_score: c.min_score,
        }
    }
}

/// One filter the engine currently derives for a user, with the reason
/// shown in receipts and [`FeedChange`] notices.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Wire)]
pub struct AutoSubEntry {
    /// The derived filter.
    pub filter: Filter,
    /// Human-readable derivation reason.
    pub reason: String,
    /// Interest score at derivation time.
    pub score: f64,
}

/// Answer payload for [`Request::AutoSubscribe`] /
/// [`Request::AutoUnsubscribe`]: the filters currently derived for the
/// user (after enrollment: what is installed; after unenrollment: what
/// was just retired).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Wire)]
pub struct AutoSubReceipt {
    /// The enrolled user.
    pub user: UserId,
    /// Derived filters with reasons, strongest first.
    pub entries: Vec<AutoSubEntry>,
}

/// Unsolicited notice pushed when the engine installs or retires derived
/// filters for a user enrolled on this connection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Wire)]
pub struct FeedChange {
    /// The user whose derived feed set changed.
    pub user: UserId,
    /// Filters the engine just installed.
    pub installed: Vec<AutoSubEntry>,
    /// Filters the engine just retired.
    pub retired: Vec<AutoSubEntry>,
}

/// Client → server messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Wire)]
pub enum Request {
    /// First message on every connection: announce the client's protocol
    /// version and a display name for diagnostics.
    #[wire(tag = 0)]
    Hello {
        /// Protocol version the client speaks.
        version: u8,
        /// Free-form client name (shows up in server-side diagnostics).
        client: String,
    },
    /// Place a subscription owned by this connection.
    #[wire(tag = 1)]
    Subscribe {
        /// The subscription's filter.
        filter: Filter,
    },
    /// Remove a subscription owned by this connection.
    #[wire(tag = 2)]
    Unsubscribe {
        /// Id returned by a previous `Subscribed` response.
        subscription: SubscriptionId,
    },
    /// Publish an event into the broker.
    #[wire(tag = 3)]
    Publish {
        /// The event payload.
        event: Event,
    },
    /// Upload a batch of attention data (the §3.1 extension → server path).
    #[wire(tag = 4)]
    UploadClicks {
        /// The batch to ingest.
        batch: ClickBatch,
    },
    /// Enroll a user in server-side automatic subscriptions: the engine
    /// derives filters from the user's uploaded clicks and installs them
    /// as subscriptions owned by this connection.
    #[wire(tag = 9)]
    AutoSubscribe {
        /// The user whose clicks drive the derivation.
        user: UserId,
        /// Per-enrollment policy; `None` uses the daemon's defaults.
        policy: Option<AutoSubPolicy>,
    },
    /// Unenroll a user: every derived filter is retired from the broker.
    #[wire(tag = 10)]
    AutoUnsubscribe {
        /// The user to unenroll.
        user: UserId,
    },
    /// Ask for broker + wire statistics.
    #[wire(tag = 5)]
    Stats,
    /// Liveness probe.
    #[wire(tag = 6)]
    Ping,
    /// Orderly goodbye; the server replies `Bye` and closes.
    #[wire(tag = 7)]
    Bye,
    /// First frame of a broker-to-broker connection: the dialing broker
    /// announces itself and asks to upgrade the connection to a peer
    /// link carrying [`reef_pubsub::PeerMsg`] frames.
    #[wire(tag = 8)]
    PeerHello {
        /// Protocol version the dialing broker speaks.
        version: u8,
        /// The dialing broker's name.
        broker: String,
        /// The dialing broker's federation-wide id (namespaces its
        /// subscription ids).
        broker_id: u32,
    },
}

/// Server → client replies, one per [`Request`].
// The `Stats` variant dwarfs the others (three full counter snapshots),
// but responses are transient stack values encoded straight onto the
// wire — boxing would only add an allocation per reply.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Wire)]
pub enum Response {
    /// Answer to `Hello`.
    #[wire(tag = 0)]
    Hello {
        /// Protocol version the server speaks.
        version: u8,
        /// Server build name.
        server: String,
        /// Subscriber id assigned to this connection.
        subscriber: u64,
    },
    /// Answer to `Subscribe`.
    #[wire(tag = 1)]
    Subscribed {
        /// Id of the new subscription.
        subscription: SubscriptionId,
    },
    /// Answer to `Unsubscribe`.
    #[wire(tag = 2)]
    Unsubscribed {
        /// The removed subscription's filter.
        filter: Filter,
    },
    /// Answer to `Publish`.
    #[wire(tag = 3)]
    Published {
        /// Id the broker assigned to the event.
        id: EventId,
        /// Copies placed on subscriber queues.
        delivered: u64,
        /// Copies dropped to queue overflow.
        dropped: u64,
    },
    /// Answer to `UploadClicks`.
    #[wire(tag = 4)]
    ClicksAccepted {
        /// Ingestion receipt from the server's click store.
        receipt: UploadReceipt,
    },
    /// Answer to `Stats`.
    #[wire(tag = 5)]
    Stats {
        /// Broker-side operation counters.
        broker: BrokerStatsSnapshot,
        /// Transport-side aggregate counters.
        wire: WireStatsSnapshot,
        /// Federation-side routing and peer-link counters.
        federation: FederationStatsSnapshot,
    },
    /// Answer to `AutoSubscribe`: what the engine currently derives.
    #[wire(tag = 10)]
    AutoSubscribed {
        /// Enrollment receipt listing the derived filters with reasons.
        receipt: AutoSubReceipt,
    },
    /// Answer to `AutoUnsubscribe`: what was just retired.
    #[wire(tag = 11)]
    AutoUnsubscribed {
        /// Unenrollment receipt listing the retired filters.
        receipt: AutoSubReceipt,
    },
    /// Answer to `Ping`.
    #[wire(tag = 6)]
    Pong,
    /// Answer to `Bye`; the server closes the connection after sending it.
    #[wire(tag = 7)]
    Bye,
    /// Answer to `PeerHello`: the connection is now a peer link. After
    /// this reply both directions carry [`reef_pubsub::PeerMsg`] frames.
    #[wire(tag = 8)]
    PeerWelcome {
        /// Protocol version the accepting broker speaks.
        version: u8,
        /// The accepting broker's name.
        broker: String,
        /// The accepting broker's federation-wide id.
        broker_id: u32,
    },
    /// The request failed; the connection stays usable.
    #[wire(tag = 9)]
    Error {
        /// Human-readable failure description.
        message: String,
    },
}

/// An asynchronous event delivery pushed by the server.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Wire)]
pub struct Deliver {
    /// The matched event, with broker id and timestamp.
    pub event: PublishedEvent,
}

/// Everything the server writes on a **v1 (JSON)** connection. Replies
/// carry no correlation id; they answer the connection's oldest
/// unanswered request.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ServerMessage {
    /// A reply to the connection's oldest unanswered request.
    Reply(Response),
    /// An asynchronous delivery.
    Deliver(Deliver),
    /// An asynchronous auto-subscription change notice. Only sent to
    /// connections that issued [`Request::AutoSubscribe`], so pre-autosub
    /// v1 clients never see the (new) variant.
    FeedChanged(FeedChange),
}

/// One client → server frame: a request plus the correlation id its
/// reply will echo.
///
/// The client assigns `corr` (any value; the stock [`crate::Client`]
/// uses a per-connection counter) and the server treats it as opaque.
/// The v1 JSON codec drops it on encode and synthesizes `0` on decode —
/// v1 pairing is by request order.
#[derive(Debug, Clone, PartialEq, Wire)]
pub struct ClientFrame {
    /// Client-assigned correlation id, echoed by the reply.
    pub corr: u64,
    /// The request itself.
    pub request: Request,
}

/// One server → client frame: a correlated reply or an asynchronous
/// delivery.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Wire)]
pub enum ServerFrame {
    /// A reply to the request that carried `corr`.
    #[wire(tag = 0)]
    Reply {
        /// Correlation id copied from the request's [`ClientFrame`].
        corr: u64,
        /// The response payload.
        response: Response,
    },
    /// An asynchronous delivery (never correlated).
    #[wire(tag = 1)]
    Deliver(Deliver),
    /// An asynchronous auto-subscription change notice (never
    /// correlated; only sent after an `AutoSubscribe` on the
    /// connection).
    #[wire(tag = 2)]
    FeedChanged(FeedChange),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Frame;
    use reef_pubsub::Op;

    fn round_trip_request(req: &Request) {
        let frame = Frame::encode(req).unwrap();
        let back: Request = frame.decode().unwrap();
        assert_eq!(&back, req);
    }

    fn round_trip_server(msg: &ServerMessage) {
        let frame = Frame::encode(msg).unwrap();
        let back: ServerMessage = frame.decode().unwrap();
        assert_eq!(&back, msg);
    }

    #[test]
    fn every_request_variant_round_trips() {
        round_trip_request(&Request::Hello {
            version: 1,
            client: "t".into(),
        });
        round_trip_request(&Request::Subscribe {
            filter: Filter::new().and("price", Op::Gt, 10.0),
        });
        round_trip_request(&Request::Unsubscribe {
            subscription: SubscriptionId(7),
        });
        round_trip_request(&Request::Publish {
            event: Event::builder()
                .attr("price", 12.5)
                .attr("sym", "ACME")
                .build(),
        });
        round_trip_request(&Request::UploadClicks {
            batch: ClickBatch {
                user: reef_simweb_user(3),
                clicks: vec![],
            },
        });
        round_trip_request(&Request::AutoSubscribe {
            user: reef_simweb_user(4),
            policy: None,
        });
        round_trip_request(&Request::AutoSubscribe {
            user: reef_simweb_user(4),
            policy: Some(AutoSubPolicy {
                recommender: AutoSubMode::Content,
                max_filters: 3,
                half_life_secs: 90.0,
                min_score: 1.5,
            }),
        });
        round_trip_request(&Request::AutoUnsubscribe {
            user: reef_simweb_user(4),
        });
        round_trip_request(&Request::Stats);
        round_trip_request(&Request::Ping);
        round_trip_request(&Request::Bye);
        round_trip_request(&Request::PeerHello {
            version: 1,
            broker: "reefd-b".into(),
            broker_id: 42,
        });
    }

    fn reef_simweb_user(id: u32) -> reef_simweb::UserId {
        reef_simweb::UserId(id)
    }

    #[test]
    fn every_response_variant_round_trips() {
        for response in [
            Response::Hello {
                version: 1,
                server: "reefd".into(),
                subscriber: 4,
            },
            Response::Subscribed {
                subscription: SubscriptionId(1),
            },
            Response::Unsubscribed {
                filter: Filter::new(),
            },
            Response::Published {
                id: EventId(9),
                delivered: 3,
                dropped: 1,
            },
            Response::ClicksAccepted {
                receipt: UploadReceipt {
                    user: reef_simweb_user(1),
                    accepted: 5,
                    rejected: 0,
                    wire_bytes: 120,
                    total_stored: 5,
                },
            },
            Response::Stats {
                broker: BrokerStatsSnapshot::default(),
                wire: WireStatsSnapshot::default(),
                federation: FederationStatsSnapshot::default(),
            },
            Response::AutoSubscribed {
                receipt: AutoSubReceipt {
                    user: reef_simweb_user(2),
                    entries: vec![AutoSubEntry {
                        filter: Filter::topic("http://news.example/feed.xml"),
                        reason: "topic: 5 clicks on news.example".into(),
                        score: 5.0,
                    }],
                },
            },
            Response::AutoUnsubscribed {
                receipt: AutoSubReceipt {
                    user: reef_simweb_user(2),
                    entries: vec![],
                },
            },
            Response::Pong,
            Response::Bye,
            Response::PeerWelcome {
                version: 1,
                broker: "reefd-a".into(),
                broker_id: 7,
            },
            Response::Error {
                message: "no".into(),
            },
        ] {
            round_trip_server(&ServerMessage::Reply(response));
        }
    }

    #[test]
    fn peer_msg_frames_round_trip() {
        use reef_pubsub::{GlobalSubId, PeerMsg};
        for msg in [
            PeerMsg::SubFwd {
                sub: GlobalSubId(3),
                filter: Filter::new().and("price", Op::Gt, 10.0),
            },
            PeerMsg::UnsubFwd {
                sub: GlobalSubId(3),
            },
            PeerMsg::EventFwd {
                event: PublishedEvent {
                    id: EventId(4),
                    published_at: 77,
                    event: Event::topical("news", "hello"),
                },
                hops: 2,
            },
        ] {
            let frame = Frame::encode(&msg).unwrap();
            let back: PeerMsg = frame.decode().unwrap();
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn feed_change_notices_round_trip() {
        round_trip_server(&ServerMessage::FeedChanged(FeedChange {
            user: reef_simweb_user(9),
            installed: vec![AutoSubEntry {
                filter: Filter::keyword("body", "broker"),
                reason: "content: 3 clicks on broker".into(),
                score: 3.0,
            }],
            retired: vec![AutoSubEntry {
                filter: Filter::topic("http://old.example/feed.xml"),
                reason: "topic: 2 clicks on old.example".into(),
                score: 0.1,
            }],
        }));
    }

    #[test]
    fn deliveries_round_trip() {
        round_trip_server(&ServerMessage::Deliver(Deliver {
            event: PublishedEvent {
                id: EventId(4),
                published_at: 77,
                event: Event::topical("news", "hello"),
            },
        }));
    }
}
