//! **B2** — broker publish/deliver throughput, the sans-io `BrokerNode`
//! routing core in isolation (the per-message routing cost a transport
//! driver pays), and the wire codecs (JSON v1 vs binary v2 encode/decode throughput and
//! bytes per frame on publish and click-upload payloads).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use reef_pubsub::{
    Broker, BrokerNode, ClientId, Event, EventId, Filter, GlobalSubId, NodeId, PeerMsg,
    PublishedEvent,
};
use std::hint::black_box;

fn bench_local_broker(c: &mut Criterion) {
    let mut group = c.benchmark_group("broker_publish");
    for &n_subs in &[100usize, 1_000] {
        let broker = Broker::new();
        let (id, handle) = broker.register();
        for i in 0..n_subs {
            broker
                .subscribe(id, Filter::topic(&format!("t{i}")))
                .expect("subscribe");
        }
        group.bench_with_input(BenchmarkId::new("topical", n_subs), &n_subs, |b, _| {
            let mut i = 0u64;
            b.iter(|| {
                i += 1;
                let ev = Event::topical(&format!("t{}", i % n_subs as u64), "body");
                black_box(broker.publish(ev).expect("publish"));
                handle.drain();
            })
        });
    }
    group.finish();
}

/// The sans-io core alone: one `BrokerNode` with two neighbors and a
/// populated routing table, fed `EventFwd` messages by hand. This is the
/// pure routing cost per message — what both the simulator and the TCP
/// federation pay before any I/O.
fn bench_broker_node_handle(c: &mut Criterion) {
    let mut group = c.benchmark_group("broker_node_handle");
    for &n_subs in &[32usize, 256] {
        let (upstream, downstream) = (NodeId(1), NodeId(2));
        let mut node = BrokerNode::new(true);
        node.add_neighbor(upstream);
        node.add_neighbor(downstream);
        for s in 0..n_subs {
            // Half local, half advertised by the downstream neighbor.
            let filter = Filter::new().and("x", reef_pubsub::Op::Gt, (s % 40) as i64);
            if s % 2 == 0 {
                node.subscribe_local(GlobalSubId(s as u64), ClientId(s as u64), filter);
            } else {
                node.handle(
                    downstream,
                    PeerMsg::SubFwd {
                        sub: GlobalSubId(s as u64),
                        filter,
                    },
                );
            }
        }
        group.bench_with_input(BenchmarkId::new("event_fwd", n_subs), &n_subs, |b, _| {
            let mut i = 0i64;
            b.iter(|| {
                i += 1;
                let msg = PeerMsg::EventFwd {
                    event: PublishedEvent {
                        id: EventId(i as u64),
                        published_at: i as u64,
                        event: Event::builder().attr("x", i % 45).build(),
                    },
                    hops: 1,
                };
                black_box(node.handle(upstream, msg))
            })
        });
    }
    group.finish();
}

/// The wire codecs head to head: encode and decode throughput for the
/// two frame payloads that dominate real traffic — publishes (the
/// high-volume broker path) and click uploads (the paper's §3.1
/// extension → server path) — plus a bytes-per-frame report, which is
/// the number that caps broker-to-broker link scale.
fn bench_wire_codecs(c: &mut Criterion) {
    use reef_wire::{ClientFrame, CodecKind, Request};

    let publish = ClientFrame {
        corr: 7,
        request: Request::Publish {
            event: Event::builder()
                .attr("topic", "http://feed.example/markets.rss")
                .attr("body", "ACME beats estimates; shares jump in late trading")
                .attr("price", 127.42)
                .attr("volume", 1_250_000)
                .attr("halted", false)
                .build(),
        },
    };
    let upload = ClientFrame {
        corr: 8,
        request: Request::UploadClicks {
            batch: reef_attention::ClickBatch {
                user: reef_simweb::UserId(42),
                clicks: (0..20)
                    .map(|i| reef_attention::Click {
                        user: reef_simweb::UserId(42),
                        day: 3,
                        tick: 1_000 + i,
                        url: format!("http://news.example/story-{i}.html"),
                        referrer: (i % 2 == 0).then(|| "http://portal.example/".to_owned()),
                    })
                    .collect(),
            },
        },
    };

    let mut group = c.benchmark_group("wire_codec");
    for (payload_name, frame) in [("publish", &publish), ("click_upload", &upload)] {
        for kind in [CodecKind::Json, CodecKind::Binary] {
            let codec = kind.codec();
            let encoded = codec.encode_client(frame).expect("encode");
            // The headline number: wire bytes per frame, per codec.
            eprintln!(
                "wire_codec/{payload_name}/{}: {} bytes/frame",
                kind.name(),
                encoded.wire_len()
            );
            group.bench_with_input(
                BenchmarkId::new(format!("encode_{payload_name}"), kind.name()),
                &kind,
                |b, _| b.iter(|| black_box(codec.encode_client(black_box(frame)).expect("encode"))),
            );
            group.bench_with_input(
                BenchmarkId::new(format!("decode_{payload_name}"), kind.name()),
                &kind,
                |b, _| {
                    b.iter(|| black_box(codec.decode_client(black_box(&encoded)).expect("decode")))
                },
            );
        }
    }

    group.finish();
}

/// The durable click store's disk path: WAL append cost per upload batch
/// (what every acknowledged upload now pays) and full recovery cost
/// (snapshot + segment replay at daemon startup).
fn bench_click_wal(c: &mut Criterion) {
    use reef_attention::{Click, ClickBatch, DurableClickStore, PersistConfig};
    use reef_simweb::UserId;

    let dir = std::env::temp_dir().join(format!("reef-bench-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = PersistConfig {
        dir: dir.clone(),
        segment_bytes: 1 << 20,
        snapshot_every: 256,
    };
    let batch = |base: u64| ClickBatch {
        user: UserId(7),
        clicks: (0..20)
            .map(|i| Click {
                user: UserId(7),
                day: (base / 100) as u32,
                tick: base + i,
                url: format!("http://news.example/story-{}.html", base + i),
                referrer: (i % 2 == 0).then(|| "http://portal.example/".to_owned()),
            })
            .collect(),
    };

    let mut group = c.benchmark_group("click_wal");
    group.bench_function("append_20_click_batch", |b| {
        let mut store = DurableClickStore::open(cfg.clone()).expect("open");
        let mut base = 0u64;
        b.iter(|| {
            base += 100;
            black_box(store.ingest_upload(batch(base)).expect("ingest"));
        })
    });

    // Recovery: replay a store of 200 batches (snapshots disabled so the
    // whole log replays — the worst case).
    let recover_dir = dir.join("recover");
    let recover_cfg = PersistConfig {
        dir: recover_dir,
        segment_bytes: 1 << 20,
        snapshot_every: 0,
    };
    {
        let mut store = DurableClickStore::open(recover_cfg.clone()).expect("open");
        for i in 0..200u64 {
            store.ingest_upload(batch(i * 100)).expect("ingest");
        }
    }
    group.bench_function("recover_200_batches", |b| {
        b.iter(|| {
            let store = DurableClickStore::open(recover_cfg.clone()).expect("recover");
            black_box(store.len())
        })
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Connection scaling: one daemon holding many idle subscribers, measured
/// as the wall-clock cost of one publish fanning out to every one of
/// them, with every socket on the sharded epoll loops. Subscribers are
/// raw sockets (handshake + subscribe, then just read), so the daemon
/// under test is the only thread-heavy side.
fn bench_wire_connections(c: &mut Criterion) {
    use reef_wire::{BrokerServer, Client, ClientFrame, CodecKind, Frame, Request};
    use std::io::BufReader;
    use std::net::TcpStream;
    use std::time::Instant;

    const SUBSCRIBERS: usize = 1000;

    let mut group = c.benchmark_group("wire_connections");
    // Set-up lives inside the benchmark closure, so a `cargo bench`
    // filter that skips this benchmark skips the 1 000 connections too.
    group.bench_function("publish_fanout_1k", |b| {
        let server = BrokerServer::bind("127.0.0.1:0").expect("bind");
        let codec = CodecKind::Binary.codec();
        let mut subscribers: Vec<BufReader<TcpStream>> = Vec::with_capacity(SUBSCRIBERS);
        let setup_started = Instant::now();
        for i in 0..SUBSCRIBERS {
            let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
            stream.set_nodelay(true).expect("nodelay");
            for (corr, request) in [
                (
                    1,
                    Request::Hello {
                        version: 2,
                        client: format!("sub-{i}"),
                    },
                ),
                (
                    2,
                    Request::Subscribe {
                        filter: Filter::topic("bench"),
                    },
                ),
            ] {
                codec
                    .encode_client(&ClientFrame { corr, request })
                    .expect("encode")
                    .write_to(&mut stream)
                    .expect("write");
                Frame::read_from(&mut stream)
                    .expect("read reply")
                    .expect("reply");
            }
            subscribers.push(BufReader::new(stream));
        }
        let publisher =
            Client::connect_as(server.local_addr(), "bench-publisher").expect("connect publisher");

        // Headline numbers: connection setup and one full fan-out.
        let setup = setup_started.elapsed();
        let fanout_started = Instant::now();
        let outcome = publisher
            .publish(Event::topical("bench", "warmup"))
            .expect("publish");
        assert_eq!(outcome.delivered as usize, SUBSCRIBERS);
        for reader in subscribers.iter_mut() {
            Frame::read_from(reader).expect("read").expect("deliver");
        }
        eprintln!(
            "wire_connections: {SUBSCRIBERS} subscribers up in {setup:.2?}, one fan-out {:.2?}",
            fanout_started.elapsed()
        );

        b.iter(|| {
            publisher
                .publish(Event::topical("bench", "tick"))
                .expect("publish");
            // Fan-out completes when every subscriber socket has its
            // Deliver frame; reads are serial but the frames arrive
            // concurrently.
            for reader in subscribers.iter_mut() {
                black_box(Frame::read_from(reader).expect("read").expect("deliver"));
            }
        });
        drop(publisher);
        drop(subscribers);
        server.shutdown();
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_local_broker, bench_broker_node_handle, bench_wire_codecs, bench_click_wal,
        bench_wire_connections
}
criterion_main!(benches);
