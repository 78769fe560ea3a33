//! Seed corpora built from the real encoders.
//!
//! Every seed starts life as valid bytes produced by the workspace's
//! own encoders, covering each enum variant, both codecs, every
//! [`Op`], every [`reef_pubsub::Value`] kind, the click-batch delta
//! flags, and real
//! WAL segment/snapshot images. The mutation engine then perturbs them;
//! mutants of valid inputs probe far deeper than random bytes because
//! they keep most framing intact while breaking one invariant at a
//! time.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use reef_attention::{Click, ClickBatch, DurableClickStore, PersistConfig, UploadReceipt};
use reef_core::AutoSubMode;
use reef_pubsub::{
    BrokerStatsSnapshot, Event, EventId, Filter, GlobalSubId, Op, PeerMsg, PublishedEvent,
    SubscriptionId,
};
use reef_simweb::UserId;
use reef_wire::codec::BinaryCodec;
use reef_wire::{
    AutoSubEntry, AutoSubPolicy, AutoSubReceipt, ClientFrame, CodecKind, Counters, Deliver,
    FederationStatsSnapshot, FeedChange, Frame, LoopStatsSnapshot, Request, Response, ServerFrame,
    WireCodec, WireStatsSnapshot,
};

/// A fresh scratch directory unique to this process and call.
pub fn scratch_dir(label: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "reef-fuzz-{label}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn sample_events() -> Vec<Event> {
    vec![
        Event::builder().build(),
        Event::builder()
            .attr("topic", "news/reef")
            .attr("price", 12.5)
            .attr("volume", 42i64)
            .attr("halted", false)
            .build(),
        Event::builder()
            .attr("sym", "ACME")
            .attr("delta", -3.25)
            .attr("count", i64::MIN)
            .attr("live", true)
            .build(),
        Event::builder()
            .attr("unicode", "päperclip ☂ 日本語")
            .attr("tiny", f64::MIN_POSITIVE)
            .attr("huge", f64::MAX)
            .build(),
    ]
}

fn sample_filters() -> Vec<Filter> {
    let mut filters = vec![
        Filter::new(),
        Filter::topic("news/reef"),
        Filter::keyword("title", "federation"),
        Filter::new().and_exists("price"),
    ];
    // One predicate per operator, cycling through the value kinds so
    // every (Op, Value) pairing the codec can express shows up.
    let mut all_ops = Filter::new();
    for (i, op) in Op::ALL.into_iter().enumerate() {
        all_ops = match i % 4 {
            0 => all_ops.and(format!("s{i}"), op, "needle"),
            1 => all_ops.and(format!("i{i}"), op, -7i64),
            2 => all_ops.and(format!("f{i}"), op, 2.5f64),
            _ => all_ops.and(format!("b{i}"), op, true),
        };
    }
    filters.push(all_ops);
    filters
}

/// Click batches exercising the v2 delta coder's whole flag surface:
/// referrer present/absent, user differing from the batch user,
/// referrer equal to the previous click's referrer, shared URL
/// prefixes, and non-monotonic tick deltas (zigzag-negative).
pub fn sample_click_batches() -> Vec<ClickBatch> {
    let click = |user: u32, day: u32, tick: u64, url: &str, referrer: Option<&str>| Click {
        user: UserId(user),
        day,
        tick,
        url: url.to_string(),
        referrer: referrer.map(str::to_string),
    };
    vec![
        ClickBatch {
            user: UserId(1),
            clicks: vec![],
        },
        ClickBatch {
            user: UserId(1),
            clicks: vec![click(1, 0, 10, "https://reef.example/a", None)],
        },
        ClickBatch {
            user: UserId(2),
            clicks: vec![
                click(2, 3, 100, "https://reef.example/feed/alpha", None),
                // Shared prefix with the previous URL, referrer appears.
                click(
                    2,
                    3,
                    90, // tick goes backwards: negative zigzag delta
                    "https://reef.example/feed/beta",
                    Some("https://reef.example/feed/alpha"),
                ),
                // Referrer identical to the previous click's referrer.
                click(
                    7, // user differs from the batch user
                    4,
                    90,
                    "https://reef.example/feed/beta/2",
                    Some("https://reef.example/feed/alpha"),
                ),
                click(2, u32::MAX, u64::MAX, "short", Some("")),
            ],
        },
    ]
}

/// One client frame per `Request` variant, plus every sample filter,
/// event and click batch.
pub fn sample_client_frames() -> Vec<ClientFrame> {
    let mut frames = vec![
        ClientFrame {
            corr: 0,
            request: Request::Hello {
                version: 2,
                client: "fuzz-corpus".into(),
            },
        },
        ClientFrame {
            corr: u64::MAX,
            request: Request::Unsubscribe {
                subscription: SubscriptionId(7),
            },
        },
        ClientFrame {
            corr: 3,
            request: Request::AutoSubscribe {
                user: UserId(9),
                policy: None,
            },
        },
        ClientFrame {
            corr: 4,
            request: Request::AutoSubscribe {
                user: UserId(9),
                policy: Some(AutoSubPolicy {
                    recommender: AutoSubMode::Content,
                    max_filters: 5,
                    half_life_secs: 60.0,
                    min_score: 0.25,
                }),
            },
        },
        ClientFrame {
            corr: 5,
            request: Request::AutoUnsubscribe { user: UserId(9) },
        },
        ClientFrame {
            corr: 6,
            request: Request::Stats,
        },
        ClientFrame {
            corr: 7,
            request: Request::Ping,
        },
        ClientFrame {
            corr: 8,
            request: Request::Bye,
        },
        ClientFrame {
            corr: 9,
            request: Request::PeerHello {
                version: 2,
                broker: "reefd-peer".into(),
                broker_id: 42,
            },
        },
    ];
    for filter in sample_filters() {
        frames.push(ClientFrame {
            corr: 10,
            request: Request::Subscribe { filter },
        });
    }
    for event in sample_events() {
        frames.push(ClientFrame {
            corr: 11,
            request: Request::Publish { event },
        });
    }
    for batch in sample_click_batches() {
        frames.push(ClientFrame {
            corr: 12,
            request: Request::UploadClicks { batch },
        });
    }
    frames
}

/// A `Stats` reply whose every counter holds a distinct value (101,
/// 102, ... in wire order) and whose wire block has two event-loop
/// shards, so two reordered fields cannot encode the same bytes.
fn sample_stats() -> Response {
    let mut n = 100;
    let mut next = || {
        n += 1;
        n
    };
    let broker = BrokerStatsSnapshot {
        events_published: next(),
        deliveries: next(),
        drops: next(),
        subscribes: next(),
        unsubscribes: next(),
    };
    let mut wire = WireStatsSnapshot {
        loops: vec![LoopStatsSnapshot::default(); 2],
        ..Default::default()
    };
    wire.fill(&mut next);
    let mut federation = FederationStatsSnapshot::default();
    federation.fill(&mut next);
    Response::Stats {
        broker,
        wire,
        federation,
    }
}

/// One server frame per `Response` and `ServerFrame` variant, plus a
/// delivery of every sample event.
pub fn sample_server_frames() -> Vec<ServerFrame> {
    let receipt = AutoSubReceipt {
        user: UserId(9),
        entries: vec![AutoSubEntry {
            filter: Filter::topic("news/reef"),
            reason: "topic affinity".into(),
            score: 0.75,
        }],
    };
    let mut frames = vec![
        ServerFrame::Reply {
            corr: 1,
            response: Response::Hello {
                version: 2,
                server: "reefd".into(),
                subscriber: 4,
            },
        },
        ServerFrame::Reply {
            corr: 2,
            response: Response::Subscribed {
                subscription: SubscriptionId(1),
            },
        },
        ServerFrame::Reply {
            corr: 3,
            response: Response::Unsubscribed {
                filter: Filter::topic("news/reef"),
            },
        },
        ServerFrame::Reply {
            corr: 4,
            response: Response::Published {
                id: EventId(9),
                delivered: 3,
                dropped: 1,
            },
        },
        ServerFrame::Reply {
            corr: 5,
            response: Response::ClicksAccepted {
                receipt: UploadReceipt {
                    user: UserId(1),
                    accepted: 5,
                    rejected: 1,
                    wire_bytes: 120,
                    total_stored: 5,
                },
            },
        },
        ServerFrame::Reply {
            corr: 6,
            response: sample_stats(),
        },
        ServerFrame::Reply {
            corr: 7,
            response: Response::AutoSubscribed {
                receipt: receipt.clone(),
            },
        },
        ServerFrame::Reply {
            corr: 8,
            response: Response::AutoUnsubscribed {
                receipt: receipt.clone(),
            },
        },
        ServerFrame::Reply {
            corr: 9,
            response: Response::Pong,
        },
        ServerFrame::Reply {
            corr: 10,
            response: Response::Bye,
        },
        ServerFrame::Reply {
            corr: 11,
            response: Response::PeerWelcome {
                version: 2,
                broker: "reefd-b".into(),
                broker_id: 7,
            },
        },
        ServerFrame::Reply {
            corr: 12,
            response: Response::Error {
                message: "no such subscription".into(),
            },
        },
        ServerFrame::FeedChanged(FeedChange {
            user: UserId(9),
            installed: receipt.entries.clone(),
            retired: vec![],
        }),
    ];
    for event in sample_events() {
        frames.push(ServerFrame::Deliver(Deliver {
            event: PublishedEvent {
                id: EventId(77),
                published_at: 123,
                event,
            },
        }));
    }
    frames
}

/// One peer message per `PeerMsg` variant, over every sample filter
/// and event.
pub fn sample_peer_msgs() -> Vec<PeerMsg> {
    let mut msgs = vec![
        PeerMsg::UnsubFwd {
            sub: GlobalSubId(3),
        },
        PeerMsg::Ping { nonce: u64::MAX },
        PeerMsg::Pong { nonce: 0 },
    ];
    for (i, filter) in sample_filters().into_iter().enumerate() {
        msgs.push(PeerMsg::SubFwd {
            sub: GlobalSubId(i as u64),
            filter: filter.clone(),
        });
        msgs.push(PeerMsg::SubAdv {
            sub: GlobalSubId(i as u64),
            filter,
            path: vec![1, 2, 3],
        });
    }
    for event in sample_events() {
        msgs.push(PeerMsg::EventFwd {
            event: PublishedEvent {
                id: EventId(5),
                published_at: 9,
                event,
            },
            hops: 2,
        });
    }
    msgs
}

/// Payload seeds for the codec-surface target: every client, server,
/// and peer message encoded by both codecs.
pub fn codec_payloads() -> Vec<Vec<u8>> {
    let mut payloads = Vec::new();
    for kind in [CodecKind::Json, CodecKind::Binary] {
        let codec = kind.codec();
        for cf in sample_client_frames() {
            payloads.push(codec.encode_client(&cf).expect("encode client").payload);
        }
        for sf in sample_server_frames() {
            payloads.push(codec.encode_server(&sf).expect("encode server").payload);
        }
        for pm in sample_peer_msgs() {
            payloads.push(codec.encode_peer(&pm).expect("encode peer").payload);
        }
    }
    payloads
}

/// Payload seeds for the v2 click-upload target: the compressed
/// encoding of each sample batch.
pub fn click_upload_payloads() -> Vec<Vec<u8>> {
    sample_click_batches()
        .into_iter()
        .map(|batch| {
            let cf = ClientFrame {
                corr: 1,
                request: Request::UploadClicks { batch },
            };
            BinaryCodec
                .encode_client(&cf)
                .expect("encode upload")
                .payload
        })
        .collect()
}

/// Byte-stream seeds for the frame-decoder target: concatenations of
/// real frames (both versions), a lone header, and a split frame.
pub fn frame_streams() -> Vec<Vec<u8>> {
    let mut frames: Vec<Frame> = Vec::new();
    for payload in codec_payloads().into_iter().take(8) {
        frames.push(Frame {
            version: if frames.len().is_multiple_of(2) { 1 } else { 2 },
            payload,
        });
    }
    let mut streams = Vec::new();
    // Each frame alone.
    for f in &frames {
        let mut buf = Vec::new();
        f.write_to(&mut buf).expect("write frame");
        streams.push(buf);
    }
    // All frames back to back.
    let mut all = Vec::new();
    for f in &frames {
        f.write_to(&mut all).expect("write frame");
    }
    streams.push(all.clone());
    // A torn stream: everything minus the last few bytes.
    all.truncate(all.len().saturating_sub(3));
    streams.push(all);
    // A bare header claiming more payload than follows.
    streams.push(vec![0x00, 0x00, 0x00, 0x10, 0x01]);
    streams
}

/// File-image seeds for the WAL-recovery target: real segment and
/// snapshot bytes written by a live [`DurableClickStore`].
pub fn wal_images() -> Vec<Vec<u8>> {
    let dir = scratch_dir("corpus-wal");
    let mut images = Vec::new();
    {
        let mut cfg = PersistConfig::new(&dir);
        cfg.segment_bytes = 256; // force several segments
        cfg.snapshot_every = 2; // force a snapshot + post-snapshot segment
        let mut store = DurableClickStore::open(cfg).expect("open corpus store");
        for batch in sample_click_batches() {
            if batch.clicks.is_empty() {
                continue;
            }
            store.ingest_upload(batch).expect("ingest corpus batch");
        }
        store.snapshot_now().expect("corpus snapshot");
    }
    let mut paths: Vec<PathBuf> = fs::read_dir(&dir)
        .expect("read corpus dir")
        .map(|e| e.expect("dir entry").path())
        .collect();
    paths.sort();
    for path in paths {
        images.push(fs::read(&path).expect("read corpus image"));
    }
    fs::remove_dir_all(&dir).ok();
    assert!(
        images.len() >= 2,
        "corpus store should leave at least one segment and one snapshot"
    );
    images
}
