//! Wire-format round trips: the types that cross process boundaries in a
//! real deployment (click uploads, events, filters, recommendations) must
//! survive JSON serialization, since that is the upload format the
//! paper's browser-extension → LAMP-server path used.

use reef::attention::{Click, ClickBatch};
use reef::pubsub::{Event, Filter, Op, PublishedEvent, Value};
use reef::simweb::UserId;

#[test]
fn large_u64_ids_round_trip_exactly() {
    // Federation subscription ids are namespaced `broker_id << 32 |
    // counter`, which lands above 2^53 (and above i64::MAX for half of
    // all broker ids). A JSON layer that routes big integers through f64
    // silently merges adjacent ids — which is exactly the corruption the
    // routing tables would see, so every bit must survive.
    use reef::pubsub::GlobalSubId;
    for id in [
        (u32::MAX as u64) << 32,
        ((u32::MAX as u64) << 32) | 1,
        u64::MAX,
        u64::MAX - 1,
        i64::MAX as u64 + 1,
        (1u64 << 53) + 1,
    ] {
        let json = serde_json::to_string(&GlobalSubId(id)).expect("serialize");
        let back: GlobalSubId = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back.0, id, "u64 id {id} must round-trip bit-exactly");
    }
}

#[test]
fn click_batch_round_trips() {
    let batch = ClickBatch {
        user: UserId(3),
        clicks: vec![
            Click {
                user: UserId(3),
                day: 12,
                tick: 99,
                url: "http://site.example/page?q=1#frag".to_owned(),
                referrer: Some("http://other.example/".to_owned()),
            },
            Click {
                user: UserId(3),
                day: 12,
                tick: 100,
                url: "http://site.example/ünïcode".to_owned(),
                referrer: None,
            },
        ],
    };
    let json = serde_json::to_string(&batch).expect("serialize");
    let back: ClickBatch = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back, batch);
    assert_eq!(batch.wire_size(), json.len());
}

#[test]
fn events_round_trip_with_all_value_types() {
    let event = Event::builder()
        .attr("s", "text with \"quotes\" & <markup>")
        .attr("i", -42)
        .attr("f", 2.75)
        .attr("b", true)
        .build();
    let json = serde_json::to_string(&event).expect("serialize");
    let back: Event = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back, event);
    assert_eq!(back.get("i"), Some(&Value::Int(-42)));
}

#[test]
fn published_events_round_trip() {
    let published = PublishedEvent {
        id: reef::pubsub::EventId(7),
        published_at: 123,
        event: Event::topical("http://f.example/feed.rss", "body"),
    };
    let json = serde_json::to_string(&published).expect("serialize");
    let back: PublishedEvent = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back, published);
}

#[test]
fn filters_round_trip_and_still_match() {
    let filter = Filter::new()
        .and("symbol", Op::Eq, "ACME")
        .and("price", Op::Gt, 10.5)
        .and("note", Op::Contains, "earn")
        .and_exists("volume");
    let json = serde_json::to_string(&filter).expect("serialize");
    let back: Filter = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back, filter);
    let event = Event::builder()
        .attr("symbol", "ACME")
        .attr("price", 11.0)
        .attr("note", "q3 earnings call")
        .attr("volume", 9_000)
        .build();
    assert!(back.matches(&event));
}

#[test]
fn parsed_filter_text_equals_constructed_filter_after_round_trip() {
    let parsed = reef::pubsub::parse_filter(r#"symbol = "ACME" && price > 10.5"#).expect("parse");
    let json = serde_json::to_string(&parsed).expect("serialize");
    let back: Filter = serde_json::from_str(&json).expect("deserialize");
    let constructed = Filter::new()
        .and("symbol", Op::Eq, "ACME")
        .and("price", Op::Gt, 10.5);
    assert_eq!(back, constructed);
}

// --------------------------------------------------------------------------
// reef-wire frames: the same types framed as they actually travel over TCP.

mod wire_frames {
    use super::*;
    use reef::attention::UploadReceipt;
    use reef::pubsub::{BrokerStatsSnapshot, EventId, SubscriptionId};
    use reef::wire::{
        AutoSubEntry, AutoSubPolicy, AutoSubReceipt, Deliver, FederationStatsSnapshot, FeedChange,
        Frame, Request, Response, ServerMessage, WireStatsSnapshot,
    };

    fn frame_round_trip_request(request: Request) {
        let frame = Frame::encode(&request).expect("encode");
        let mut bytes = Vec::new();
        frame.write_to(&mut bytes).expect("write");
        let back = Frame::read_from(&mut bytes.as_slice())
            .expect("read")
            .expect("one frame present");
        assert_eq!(back.decode::<Request>().expect("decode"), request);
    }

    fn frame_round_trip_server(message: ServerMessage) {
        let frame = Frame::encode(&message).expect("encode");
        let mut bytes = Vec::new();
        frame.write_to(&mut bytes).expect("write");
        let back = Frame::read_from(&mut bytes.as_slice())
            .expect("read")
            .expect("one frame present");
        assert_eq!(back.decode::<ServerMessage>().expect("decode"), message);
    }

    #[test]
    fn every_request_variant_survives_framing() {
        for request in [
            Request::Hello {
                version: 1,
                client: "ext".into(),
            },
            Request::Subscribe {
                filter: Filter::new()
                    .and("price", Op::Gt, 10.0)
                    .and("symbol", Op::Eq, "ACME"),
            },
            Request::Unsubscribe {
                subscription: SubscriptionId(42),
            },
            Request::Publish {
                event: Event::builder()
                    .attr("price", 12.5)
                    .attr("note", "quotes \"and\" unicode: ünïcode")
                    .attr("up", true)
                    .attr("volume", -3)
                    .build(),
            },
            Request::UploadClicks {
                batch: ClickBatch {
                    user: UserId(3),
                    clicks: vec![Click {
                        user: UserId(3),
                        day: 2,
                        tick: 17,
                        url: "http://site.example/p".into(),
                        referrer: None,
                    }],
                },
            },
            Request::AutoSubscribe {
                user: UserId(7),
                policy: None,
            },
            Request::AutoSubscribe {
                user: UserId(7),
                policy: Some(AutoSubPolicy {
                    recommender: reef::core::AutoSubMode::Content,
                    max_filters: 2,
                    half_life_secs: 30.0,
                    min_score: 1.5,
                }),
            },
            Request::AutoUnsubscribe { user: UserId(7) },
            Request::Stats,
            Request::Ping,
            Request::Bye,
        ] {
            frame_round_trip_request(request);
        }
    }

    #[test]
    fn every_response_variant_survives_framing() {
        for response in [
            Response::Hello {
                version: 1,
                server: "reefd".into(),
                subscriber: 9,
            },
            Response::Subscribed {
                subscription: SubscriptionId(1),
            },
            Response::Unsubscribed {
                filter: Filter::topic("news"),
            },
            Response::Published {
                id: EventId(5),
                delivered: 2,
                dropped: 0,
            },
            Response::ClicksAccepted {
                receipt: UploadReceipt {
                    user: UserId(3),
                    accepted: 1,
                    rejected: 0,
                    wire_bytes: 200,
                    total_stored: 11,
                },
            },
            Response::Stats {
                broker: BrokerStatsSnapshot::default(),
                wire: WireStatsSnapshot::default(),
                federation: FederationStatsSnapshot::default(),
            },
            Response::AutoSubscribed {
                receipt: AutoSubReceipt {
                    user: UserId(7),
                    entries: vec![AutoSubEntry {
                        filter: Filter::topic("http://news.example/feed.xml"),
                        reason: "topic: 5 clicks on news.example".into(),
                        score: 5.0,
                    }],
                },
            },
            Response::AutoUnsubscribed {
                receipt: AutoSubReceipt {
                    user: UserId(7),
                    entries: Vec::new(),
                },
            },
            Response::Pong,
            Response::Bye,
            Response::Error {
                message: "schema violation".into(),
            },
        ] {
            frame_round_trip_server(ServerMessage::Reply(response));
        }
    }

    #[test]
    fn feed_changes_survive_framing() {
        frame_round_trip_server(ServerMessage::FeedChanged(FeedChange {
            user: UserId(11),
            installed: vec![AutoSubEntry {
                filter: Filter::topic("http://a.example/feed.rss"),
                reason: "topic: 3 clicks on a.example".into(),
                score: 3.0,
            }],
            retired: vec![AutoSubEntry {
                filter: Filter::keyword("body", "broker"),
                reason: "content: 4 clicks on broker".into(),
                score: 0.5,
            }],
        }));
    }

    #[test]
    fn deliveries_survive_framing() {
        frame_round_trip_server(ServerMessage::Deliver(Deliver {
            event: PublishedEvent {
                id: EventId(8),
                published_at: 44,
                event: Event::builder().attr("price", 10.01).build(),
            },
        }));
    }
}

// --------------------------------------------------------------------------
// Codec equivalence: random protocol values must decode identically from
// both the v1 JSON codec and the v2 binary codec.

mod codec_equivalence {
    use super::*;
    use proptest::prelude::*;
    use reef::attention::UploadReceipt;
    use reef::core::AutoSubMode;
    use reef::pubsub::{
        BrokerStatsSnapshot, EventId, GlobalSubId, Op, PeerMsg, Predicate, SubscriptionId,
    };
    use reef::wire::{
        AutoSubEntry, AutoSubPolicy, AutoSubReceipt, ClientFrame, CodecKind, Counters, Deliver,
        FederationStatsSnapshot, FeedChange, LoopStatsSnapshot, Request, Response, ServerFrame,
        WireStatsSnapshot,
    };

    const BOTH: [CodecKind; 2] = [CodecKind::Json, CodecKind::Binary];

    fn arb_value() -> impl Strategy<Value = Value> {
        prop_oneof![
            "[ -~]{0,16}".prop_map(Value::Str),
            any::<i64>().prop_map(Value::Int),
            any::<f64>().prop_map(Value::Float),
            any::<bool>().prop_map(Value::Bool),
        ]
    }

    fn arb_filter() -> impl Strategy<Value = Filter> {
        prop::collection::vec(("[a-z]{1,8}", 0usize..Op::ALL.len(), arb_value()), 0..4).prop_map(
            |predicates| {
                predicates
                    .into_iter()
                    .map(|(attr, op, operand)| Predicate::new(attr, Op::ALL[op], operand))
                    .collect()
            },
        )
    }

    fn arb_event() -> impl Strategy<Value = Event> {
        prop::collection::vec(("[a-z]{1,8}", arb_value()), 0..5)
            .prop_map(|attrs| attrs.into_iter().collect())
    }

    fn arb_published() -> impl Strategy<Value = PublishedEvent> {
        (any::<u64>(), any::<u64>(), arb_event()).prop_map(|(id, published_at, event)| {
            PublishedEvent {
                id: EventId(id),
                published_at,
                event,
            }
        })
    }

    fn arb_batch() -> impl Strategy<Value = ClickBatch> {
        (
            any::<u32>(),
            prop::collection::vec(
                (
                    any::<u32>(),
                    any::<u32>(),
                    any::<u64>(),
                    "[ -~]{0,24}",
                    proptest::option::of("[ -~]{0,12}"),
                ),
                0..4,
            ),
        )
            .prop_map(|(user, clicks)| ClickBatch {
                user: UserId(user),
                clicks: clicks
                    .into_iter()
                    .map(|(user, day, tick, url, referrer)| Click {
                        user: UserId(user),
                        day,
                        tick,
                        url,
                        referrer,
                    })
                    .collect(),
            })
    }

    fn arb_policy() -> impl Strategy<Value = AutoSubPolicy> {
        (any::<bool>(), any::<u32>(), any::<f64>(), any::<f64>()).prop_map(
            |(content, max_filters, half_life_secs, min_score)| AutoSubPolicy {
                recommender: if content {
                    AutoSubMode::Content
                } else {
                    AutoSubMode::Topic
                },
                max_filters,
                half_life_secs,
                min_score,
            },
        )
    }

    fn arb_autosub_entries() -> impl Strategy<Value = Vec<AutoSubEntry>> {
        prop::collection::vec(
            (arb_filter(), "[ -~]{0,24}", any::<f64>()).prop_map(|(filter, reason, score)| {
                AutoSubEntry {
                    filter,
                    reason,
                    score,
                }
            }),
            0..3,
        )
    }

    fn arb_receipt() -> impl Strategy<Value = AutoSubReceipt> {
        (any::<u32>(), arb_autosub_entries()).prop_map(|(user, entries)| AutoSubReceipt {
            user: UserId(user),
            entries,
        })
    }

    fn arb_feed_change() -> impl Strategy<Value = FeedChange> {
        (any::<u32>(), arb_autosub_entries(), arb_autosub_entries()).prop_map(
            |(user, installed, retired)| FeedChange {
                user: UserId(user),
                installed,
                retired,
            },
        )
    }

    fn arb_request() -> impl Strategy<Value = Request> {
        prop_oneof![
            (any::<u8>(), "[ -~]{0,12}")
                .prop_map(|(version, client)| Request::Hello { version, client }),
            (any::<u32>(), proptest::option::of(arb_policy())).prop_map(|(user, policy)| {
                Request::AutoSubscribe {
                    user: UserId(user),
                    policy,
                }
            }),
            any::<u32>().prop_map(|user| Request::AutoUnsubscribe { user: UserId(user) }),
            arb_filter().prop_map(|filter| Request::Subscribe { filter }),
            any::<u64>().prop_map(|id| Request::Unsubscribe {
                subscription: SubscriptionId(id),
            }),
            arb_event().prop_map(|event| Request::Publish { event }),
            arb_batch().prop_map(|batch| Request::UploadClicks { batch }),
            Just(Request::Stats),
            Just(Request::Ping),
            Just(Request::Bye),
            (any::<u8>(), "[ -~]{0,12}", any::<u32>()).prop_map(|(version, broker, broker_id)| {
                Request::PeerHello {
                    version,
                    broker,
                    broker_id,
                }
            }),
        ]
    }

    /// Derive full stats snapshots from one seed: every field gets a
    /// distinct mixed value, which exercises all varint widths without a
    /// 20-arity tuple strategy.
    fn mixed(seed: u64, lane: u64) -> u64 {
        seed.wrapping_mul(0x9e3779b97f4a7c15)
            .wrapping_add(lane.wrapping_mul(0xd1342543de82ef95))
    }

    fn arb_response() -> impl Strategy<Value = Response> {
        prop_oneof![
            (any::<u8>(), "[ -~]{0,12}", any::<u64>()).prop_map(|(version, server, subscriber)| {
                Response::Hello {
                    version,
                    server,
                    subscriber,
                }
            }),
            any::<u64>().prop_map(|id| Response::Subscribed {
                subscription: SubscriptionId(id),
            }),
            arb_filter().prop_map(|filter| Response::Unsubscribed { filter }),
            (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(id, delivered, dropped)| {
                Response::Published {
                    id: EventId(id),
                    delivered,
                    dropped,
                }
            }),
            (any::<u32>(), any::<u64>(), any::<u64>()).prop_map(|(user, accepted, rejected)| {
                Response::ClicksAccepted {
                    receipt: UploadReceipt {
                        user: UserId(user),
                        accepted,
                        rejected,
                        wire_bytes: accepted ^ rejected,
                        total_stored: accepted.wrapping_add(rejected),
                    },
                }
            }),
            (any::<u64>(), any::<u32>()).prop_map(|(seed, broker_id)| {
                let mut lane = 0;
                let mut next = || {
                    lane += 1;
                    mixed(seed, lane)
                };
                let broker = BrokerStatsSnapshot {
                    events_published: next(),
                    deliveries: next(),
                    drops: next(),
                    subscribes: next(),
                    unsubscribes: next(),
                };
                let mut wire = WireStatsSnapshot {
                    loops: vec![LoopStatsSnapshot::default(); (seed % 3) as usize],
                    ..Default::default()
                };
                wire.fill(&mut next);
                let mut federation = FederationStatsSnapshot::default();
                federation.fill(&mut next);
                federation.broker_id = broker_id;
                Response::Stats {
                    broker,
                    wire,
                    federation,
                }
            }),
            arb_receipt().prop_map(|receipt| Response::AutoSubscribed { receipt }),
            arb_receipt().prop_map(|receipt| Response::AutoUnsubscribed { receipt }),
            Just(Response::Pong),
            Just(Response::Bye),
            (any::<u8>(), "[ -~]{0,12}", any::<u32>()).prop_map(|(version, broker, broker_id)| {
                Response::PeerWelcome {
                    version,
                    broker,
                    broker_id,
                }
            }),
            "[ -~]{0,40}".prop_map(|message| Response::Error { message }),
        ]
    }

    fn arb_peer_msg() -> impl Strategy<Value = PeerMsg> {
        prop_oneof![
            (any::<u64>(), arb_filter()).prop_map(|(sub, filter)| PeerMsg::SubFwd {
                sub: GlobalSubId(sub),
                filter,
            }),
            any::<u64>().prop_map(|sub| PeerMsg::UnsubFwd {
                sub: GlobalSubId(sub),
            }),
            (arb_published(), any::<u32>())
                .prop_map(|(event, hops)| PeerMsg::EventFwd { event, hops }),
            (
                any::<u64>(),
                arb_filter(),
                prop::collection::vec(any::<u32>(), 0..6)
            )
                .prop_map(|(sub, filter, path)| PeerMsg::SubAdv {
                    sub: GlobalSubId(sub),
                    filter,
                    path,
                }),
            any::<u64>().prop_map(|nonce| PeerMsg::Ping { nonce }),
            any::<u64>().prop_map(|nonce| PeerMsg::Pong { nonce }),
        ]
    }

    fn fail(e: impl std::fmt::Display) -> TestCaseError {
        TestCaseError::fail(e.to_string())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Any request decodes to the same value from both codecs; the
        /// binary codec additionally preserves the correlation id.
        #[test]
        fn requests_decode_identically_from_both_codecs(
            corr in any::<u64>(),
            request in arb_request(),
        ) {
            let frame = ClientFrame { corr, request };
            for kind in BOTH {
                let codec = kind.codec();
                let encoded = codec.encode_client(&frame).map_err(fail)?;
                prop_assert_eq!(encoded.version, kind.version());
                let back = codec.decode_client(&encoded).map_err(fail)?;
                prop_assert_eq!(&back.request, &frame.request);
                if kind == CodecKind::Binary {
                    prop_assert_eq!(back.corr, frame.corr);
                }
            }
        }

        /// Any reply and any delivery decode to the same value from both
        /// codecs.
        #[test]
        fn server_frames_decode_identically_from_both_codecs(
            corr in any::<u64>(),
            response in arb_response(),
            delivery in arb_published(),
            change in arb_feed_change(),
        ) {
            let reply = ServerFrame::Reply { corr, response };
            let deliver = ServerFrame::Deliver(Deliver { event: delivery });
            let feed = ServerFrame::FeedChanged(change);
            for kind in BOTH {
                let codec = kind.codec();
                for frame in [&reply, &deliver, &feed] {
                    let encoded = codec.encode_server(frame).map_err(fail)?;
                    let back = codec.decode_server(&encoded).map_err(fail)?;
                    match (&back, frame) {
                        (
                            ServerFrame::Reply { corr: got_corr, response: got },
                            ServerFrame::Reply { corr: want_corr, response: want },
                        ) => {
                            prop_assert_eq!(got, want);
                            if kind == CodecKind::Binary {
                                prop_assert_eq!(got_corr, want_corr);
                            }
                        }
                        (ServerFrame::Deliver(got), ServerFrame::Deliver(want)) => {
                            prop_assert_eq!(got, want);
                        }
                        (ServerFrame::FeedChanged(got), ServerFrame::FeedChanged(want)) => {
                            prop_assert_eq!(got, want);
                        }
                        _ => return Err(TestCaseError::fail("frame kind changed in transit")),
                    }
                }
            }
        }

        /// Any routing message decodes to the same value from both codecs
        /// — this is what keeps mixed-codec federations coherent.
        #[test]
        fn peer_msgs_decode_identically_from_both_codecs(msg in arb_peer_msg()) {
            for kind in BOTH {
                let codec = kind.codec();
                let encoded = codec.encode_peer(&msg).map_err(fail)?;
                prop_assert_eq!(encoded.version, kind.version());
                let back = codec.decode_peer(&encoded).map_err(fail)?;
                prop_assert_eq!(&back, &msg);
            }
        }

        /// Binary publish frames are never larger than their JSON
        /// equivalents on realistic (topical, stock-quote-like) events.
        #[test]
        fn binary_publish_frames_beat_json_on_realistic_events(
            topic in "[a-z]{3,12}",
            body in "[ -~]{0,60}",
            price in 0.0f64..10_000.0,
            volume in any::<u32>(),
        ) {
            let frame = ClientFrame {
                corr: 1,
                request: Request::Publish {
                    event: Event::builder()
                        .attr("topic", topic)
                        .attr("body", body)
                        .attr("price", price)
                        .attr("volume", i64::from(volume))
                        .build(),
                },
            };
            let json = CodecKind::Json.codec().encode_client(&frame).map_err(fail)?;
            let binary = CodecKind::Binary.codec().encode_client(&frame).map_err(fail)?;
            prop_assert!(
                binary.wire_len() < json.wire_len(),
                "binary {} >= json {}",
                binary.wire_len(),
                json.wire_len()
            );
        }
    }
}

// --------------------------------------------------------------------------
// Upload accounting: the receipt's `wire_bytes` must report what actually
// crossed the wire — the encoded frame's size under the connection's
// negotiated codec — not the batch's JSON rendering.

mod upload_accounting {
    use super::*;
    use reef::wire::{BrokerServer, ClientFrame, CodecKind, Frame, Request, Response, ServerFrame};
    use std::net::TcpStream;

    fn roundtrip(
        stream: &mut TcpStream,
        codec: &dyn reef::wire::WireCodec,
        corr: u64,
        request: Request,
    ) -> (usize, Response) {
        let frame = codec
            .encode_client(&ClientFrame { corr, request })
            .expect("encode");
        let sent = frame.write_to(stream).expect("write");
        let reply = Frame::read_from(stream)
            .expect("read")
            .expect("reply frame");
        match codec.decode_server(&reply).expect("decode reply") {
            ServerFrame::Reply {
                corr: got,
                response,
            } => {
                // v1 carries no correlation ids on the wire (pairing is
                // by order); v2 must echo ours.
                if codec.kind() == CodecKind::Binary {
                    assert_eq!(got, corr, "reply pairs by correlation id");
                }
                (sent, response)
            }
            other => panic!("expected a reply, got {other:?}"),
        }
    }

    /// On a binary (v2, compressed) connection the receipt accounts the
    /// actual frame bytes, which are far fewer than the JSON size the
    /// receipt used to report.
    #[test]
    fn receipt_wire_bytes_reports_actual_frame_size() {
        let server = BrokerServer::bind("127.0.0.1:0").expect("bind");
        let codec = CodecKind::Binary.codec();
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");

        let (_, hello) = roundtrip(
            &mut stream,
            codec,
            1,
            Request::Hello {
                version: 2,
                client: "accounting".into(),
            },
        );
        assert!(matches!(hello, Response::Hello { .. }), "got {hello:?}");

        let batch = ClickBatch {
            user: UserId(5),
            clicks: (0..10)
                .map(|i| Click {
                    user: UserId(5),
                    day: 2,
                    tick: 100 + i,
                    url: format!("http://site.example/page-{i}.html"),
                    referrer: (i > 0).then(|| format!("http://site.example/page-{}.html", i - 1)),
                })
                .collect(),
        };
        let json_size = batch.wire_size() as u64;
        let (sent, response) = roundtrip(
            &mut stream,
            codec,
            2,
            Request::UploadClicks {
                batch: batch.clone(),
            },
        );
        let Response::ClicksAccepted { receipt } = response else {
            panic!("expected ClicksAccepted, got {response:?}");
        };
        assert_eq!(receipt.accepted, 10);
        assert_eq!(
            receipt.wire_bytes, sent as u64,
            "receipt must account the frame bytes the codec produced"
        );
        assert!(
            receipt.wire_bytes < json_size,
            "compressed v2 upload ({} B) must undercut the JSON size ({json_size} B) \
             the receipt used to report",
            receipt.wire_bytes
        );
        server.shutdown();
    }

    /// A v1 JSON connection reports the JSON frame size — which includes
    /// the frame header, so it too differs from the bare batch JSON.
    #[test]
    fn receipt_wire_bytes_reports_v1_frame_size_too() {
        let server = BrokerServer::bind("127.0.0.1:0").expect("bind");
        let codec = CodecKind::Json.codec();
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        let (_, hello) = roundtrip(
            &mut stream,
            codec,
            1,
            Request::Hello {
                version: 1,
                client: "legacy".into(),
            },
        );
        assert!(matches!(hello, Response::Hello { .. }), "got {hello:?}");
        let batch = ClickBatch {
            user: UserId(1),
            clicks: vec![Click {
                user: UserId(1),
                day: 0,
                tick: 1,
                url: "http://a.example/".into(),
                referrer: None,
            }],
        };
        let (sent, response) = roundtrip(&mut stream, codec, 2, Request::UploadClicks { batch });
        let Response::ClicksAccepted { receipt } = response else {
            panic!("expected ClicksAccepted, got {response:?}");
        };
        assert_eq!(receipt.wire_bytes, sent as u64);
        server.shutdown();
    }
}

// --------------------------------------------------------------------------
// Incremental decoding: the event loop's partial-frame reader must produce
// exactly the frames a whole-buffer reader would, no matter where the
// network splits the byte stream.

mod incremental_decode {
    use super::*;
    use proptest::prelude::*;
    use reef::wire::{ClientFrame, CodecKind, Frame, FrameDecoder, Request};

    /// Small but structurally varied requests; payload content is
    /// irrelevant to framing, boundary coverage is what matters.
    fn arb_request() -> impl Strategy<Value = Request> {
        prop_oneof![
            (any::<u8>(), "[ -~]{0,24}")
                .prop_map(|(version, client)| Request::Hello { version, client }),
            Just(Request::Ping),
            Just(Request::Stats),
            prop::collection::vec(("[a-z]{1,6}", any::<i64>()), 0..6).prop_map(|attrs| {
                let mut builder = Event::builder();
                for (name, value) in attrs {
                    builder = builder.attr(name, value);
                }
                Request::Publish {
                    event: builder.build(),
                }
            }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Mixed v1/v2 frame streams split at arbitrary byte boundaries
        /// reassemble into exactly the whole-buffer decode.
        #[test]
        fn split_streams_decode_identically(
            frames in prop::collection::vec((any::<bool>(), any::<u64>(), arb_request()), 1..8),
            cuts in prop::collection::vec(any::<u32>(), 0..24),
        ) {
            // Encode the conversation the way real connections do.
            let mut encoded: Vec<Frame> = Vec::new();
            let mut stream: Vec<u8> = Vec::new();
            for (binary, corr, request) in &frames {
                let kind = if *binary { CodecKind::Binary } else { CodecKind::Json };
                let frame = kind
                    .codec()
                    .encode_client(&ClientFrame { corr: *corr, request: request.clone() })
                    .map_err(|e| TestCaseError::fail(e.to_string()))?;
                frame
                    .write_to(&mut stream)
                    .map_err(|e| TestCaseError::fail(e.to_string()))?;
                encoded.push(frame);
            }

            // The oracle: the blocking whole-buffer reader.
            let mut whole = Vec::new();
            let mut cursor: &[u8] = &stream;
            while let Some(frame) = Frame::read_from(&mut cursor)
                .map_err(|e| TestCaseError::fail(e.to_string()))?
            {
                whole.push(frame);
            }
            prop_assert_eq!(&whole, &encoded);

            // Split the identical bytes at random boundaries and feed the
            // chunks through the incremental decoder.
            let mut boundaries: Vec<usize> = cuts
                .into_iter()
                .map(|c| c as usize % (stream.len() + 1))
                .collect();
            boundaries.push(0);
            boundaries.push(stream.len());
            boundaries.sort_unstable();
            boundaries.dedup();
            let mut decoder = FrameDecoder::new();
            let mut incremental = Vec::new();
            for window in boundaries.windows(2) {
                decoder.extend(&stream[window[0]..window[1]]);
                while let Some(frame) = decoder
                    .next_frame()
                    .map_err(|e| TestCaseError::fail(e.to_string()))?
                {
                    incremental.push(frame);
                }
            }
            prop_assert_eq!(&incremental, &encoded);
            prop_assert_eq!(decoder.buffered(), 0);

            // Each reassembled frame still decodes under its codec.
            for (frame, (_, corr, request)) in incremental.iter().zip(&frames) {
                let kind = CodecKind::for_version(frame.version)
                    .ok_or_else(|| TestCaseError::fail("unknown version"))?;
                let back = kind
                    .codec()
                    .decode_client(frame)
                    .map_err(|e| TestCaseError::fail(e.to_string()))?;
                prop_assert_eq!(&back.request, request);
                if kind == CodecKind::Binary {
                    prop_assert_eq!(back.corr, *corr);
                }
            }
        }
    }
}
