//! Layer replay: every layer's public functions, called in-process and
//! timed from outside, on the exact frames, filters, batches and histories
//! the workload generated.
//!
//! A replayed figure is the median of `WINDOWS` timed batches. Nothing
//! here reaches into a layer: when a later change deletes or rewrites one,
//! only the call sites below (and, for the paths ROADMAP plans to delete,
//! those in `alt_paths.rs`) have to follow.

use crate::conn::codec;
use crate::daemon::scratch_root;
use crate::gen::{Inputs, SEQ_ATTR};
use crate::measure::Metrics;
use crate::spec::{UPLOAD_CLICKS, WINDOWS};
use crate::stats::{median, Summary};
use crate::trace::Span;
use crate::Res;
use reef_attention::persist::{DurableClickStore, PersistConfig};
use reef_attention::{ClickBatch, ClickStore};
use reef_core::{AutoSubConfig, AutoSubEngine};
use reef_pubsub::{
    Broker, BrokerNode, ClientId, Event, EventId, Filter, GlobalSubId, IndexMatcher, MatchEngine,
    NodeId, PeerMsg, PublishedEvent, SubscriptionId,
};
use reef_wire::{ClientFrame, Frame, FrameDecoder, Request};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A timed batch runs at least this long, so clock granularity and loop
/// overhead stay far below what is measured.
const MIN_BATCH: Duration = Duration::from_millis(6);

/// Chunk size frames are fed to the decoder in: one Ethernet MSS.
const CHUNK: usize = 1460;

/// Filters timed through `insert`/`remove`/`subscribe`/`unsubscribe` on
/// top of the workload's population. Spans four snapshot
/// materialisations of the broker (one every 256 writes).
const WRITE_OPS: usize = 1_024;

/// Subscriptions the routing cores are loaded with. Covering pruning
/// compares every advertisement with every other on each change, so the
/// full `selective` population would take minutes per operation.
pub const ROUTING_POPULATION: usize = 256;

/// Upload batches replayed through the codec, WAL and store. Kept under
/// the store's snapshot cadence (256) so a timed append never contains a
/// snapshot; `persist.snapshot_ms` times that separately.
const REPLAY_BATCHES: usize = 48;

/// Runs timed batches and records a `replay.<layer>` span around each.
pub struct Replayer<'a> {
    epoch: Instant,
    spans: &'a mut Vec<Span>,
    batches: u64,
}

impl<'a> Replayer<'a> {
    /// A replayer whose spans share `epoch` with the live run's.
    pub fn new(epoch: Instant, spans: &'a mut Vec<Span>) -> Replayer<'a> {
        Replayer {
            epoch,
            spans,
            batches: 0,
        }
    }

    /// Time `WINDOWS` batches. `batch` does its work once, timing only
    /// the part that belongs to the layer, and returns operations done and
    /// time taken; it is repeated until a batch has lasted [`MIN_BATCH`].
    /// The summary is `unit_ns` per operation.
    pub fn sample(
        &mut self,
        layer: &'static str,
        unit_ns: f64,
        mut batch: impl FnMut() -> (u64, Duration),
    ) -> Summary {
        let mut per_window = Vec::with_capacity(WINDOWS);
        let mut samples = 0;
        for _ in 0..WINDOWS {
            let start_ns = self.epoch.elapsed().as_nanos() as u64;
            let (mut ops, mut busy) = (0u64, Duration::ZERO);
            while busy < MIN_BATCH {
                let (n, took) = batch();
                ops += n.max(1);
                busy += took;
            }
            self.spans.push(Span {
                name: layer,
                parent: "",
                id: self.batches,
                start_ns,
                end_ns: self.epoch.elapsed().as_nanos() as u64,
            });
            self.batches += 1;
            samples += ops;
            per_window.push(busy.as_nanos() as f64 / ops as f64 / unit_ns);
        }
        Summary::of_windows(&per_window, samples)
    }

    /// [`Replayer::sample`] for work that is timed as a whole.
    pub fn time(
        &mut self,
        layer: &'static str,
        unit_ns: f64,
        mut work: impl FnMut() -> u64,
    ) -> Summary {
        self.sample(layer, unit_ns, || {
            let started = Instant::now();
            let ops = work();
            (ops, started.elapsed())
        })
    }
}

/// The workload's wire traffic, encoded once.
pub struct Encoded {
    /// `Publish` requests as the sender builds them.
    pub publishes: Vec<ClientFrame>,
    /// The pool as the broker stamps it.
    pub published: Vec<PublishedEvent>,
    /// `Publish` frames.
    pub publish_frames: Vec<Frame>,
    /// `Deliver` frames.
    pub deliver_frames: Vec<Frame>,
    /// `EventFwd` peer messages.
    pub peer_msgs: Vec<PeerMsg>,
    /// `UploadClicks` frames, compressed as the client sends them.
    pub upload_frames: Vec<Frame>,
    /// The batches behind `upload_frames`.
    pub batches: Vec<ClickBatch>,
}

impl Encoded {
    /// Encode the workload's events and batches with the default codec.
    pub fn of(inputs: &Inputs) -> Res<Encoded> {
        let events: Vec<Event> = inputs
            .events
            .iter()
            .enumerate()
            .map(|(seq, event)| {
                let mut event = event.clone();
                event.set(SEQ_ATTR, seq as i64);
                event
            })
            .collect();
        let publishes: Vec<ClientFrame> = events
            .iter()
            .enumerate()
            .map(|(seq, event)| ClientFrame {
                corr: seq as u64,
                request: Request::Publish {
                    event: event.clone(),
                },
            })
            .collect();
        let published: Vec<PublishedEvent> = events
            .into_iter()
            .enumerate()
            .map(|(seq, event)| PublishedEvent {
                id: EventId(seq as u64),
                published_at: seq as u64,
                event,
            })
            .collect();
        let batches: Vec<ClickBatch> = inputs
            .batches
            .iter()
            .take(REPLAY_BATCHES)
            .cloned()
            .collect();
        if batches.is_empty() {
            return Err("the workload generated no full upload batch".into());
        }
        let mut upload_frames = Vec::with_capacity(batches.len());
        for (corr, batch) in batches.iter().enumerate() {
            upload_frames.push(codec().encode_client(&ClientFrame {
                corr: corr as u64,
                request: Request::UploadClicks {
                    batch: batch.clone(),
                },
            })?);
        }
        Ok(Encoded {
            publish_frames: publishes
                .iter()
                .map(|f| codec().encode_client(f))
                .collect::<Result<_, _>>()?,
            deliver_frames: published
                .iter()
                .map(|e| codec().encode_deliver(e))
                .collect::<Result<_, _>>()?,
            peer_msgs: published
                .iter()
                .map(|event| PeerMsg::EventFwd {
                    event: event.clone(),
                    hops: 0,
                })
                .collect(),
            publishes,
            published,
            upload_frames,
            batches,
        })
    }
}

fn mean_wire_len(frames: &[Frame]) -> f64 {
    frames.iter().map(|f| f.wire_len() as f64).sum::<f64>() / frames.len().max(1) as f64
}

/// `wire::frame` and `wire::codec` (v2) and `wire::client` encode.
pub fn wire_layers(
    replayer: &mut Replayer<'_>,
    encoded: &Encoded,
    metrics: &mut Metrics,
) -> Res<()> {
    let mut stream = Vec::new();
    for frame in &encoded.publish_frames {
        frame.write_to(&mut stream)?;
    }
    metrics.insert(
        "frame.decode_ns",
        replayer.time("replay.frame", 1.0, || {
            let mut decoder = FrameDecoder::new();
            let mut frames = 0;
            for chunk in stream.chunks(CHUNK) {
                decoder.extend(chunk);
                while let Ok(Some(frame)) = decoder.next_frame() {
                    black_box(frame);
                    frames += 1;
                }
            }
            frames
        }),
    );
    metrics.insert(
        "frame.bytes_per_frame",
        Summary::exact(
            stream.len() as f64 / encoded.publish_frames.len() as f64,
            encoded.publish_frames.len() as u64,
        ),
    );

    let codec = codec();
    metrics.insert(
        "client.encode_publish_ns",
        replayer.time("replay.client", 1.0, || {
            for frame in &encoded.publishes {
                black_box(codec.encode_client(frame).expect("encode publish"));
            }
            encoded.publishes.len() as u64
        }),
    );
    metrics.insert(
        "codec.v2.decode_publish_ns",
        replayer.time("replay.codec", 1.0, || {
            for frame in &encoded.publish_frames {
                black_box(codec.decode_client(frame).expect("decode publish"));
            }
            encoded.publish_frames.len() as u64
        }),
    );
    metrics.insert(
        "codec.v2.encode_deliver_ns",
        replayer.time("replay.codec", 1.0, || {
            for event in &encoded.published {
                black_box(codec.encode_deliver(event).expect("encode deliver"));
            }
            encoded.published.len() as u64
        }),
    );
    metrics.insert(
        "codec.v2.decode_deliver_ns",
        replayer.time("replay.codec", 1.0, || {
            for frame in &encoded.deliver_frames {
                black_box(codec.decode_server(frame).expect("decode deliver"));
            }
            encoded.deliver_frames.len() as u64
        }),
    );
    metrics.insert(
        "codec.v2.deliver_bytes",
        Summary::exact(
            mean_wire_len(&encoded.deliver_frames),
            encoded.deliver_frames.len() as u64,
        ),
    );
    let peer_frames: Vec<Frame> = encoded
        .peer_msgs
        .iter()
        .map(|m| codec.encode_peer(m))
        .collect::<Result<_, _>>()?;
    metrics.insert(
        "codec.v2.encode_peer_ns",
        replayer.time("replay.codec", 1.0, || {
            for msg in &encoded.peer_msgs {
                black_box(codec.encode_peer(msg).expect("encode peer"));
            }
            encoded.peer_msgs.len() as u64
        }),
    );
    metrics.insert(
        "codec.v2.decode_peer_ns",
        replayer.time("replay.codec", 1.0, || {
            for frame in &peer_frames {
                black_box(codec.decode_peer(frame).expect("decode peer"));
            }
            peer_frames.len() as u64
        }),
    );
    metrics.insert(
        "codec.v2.decode_upload_ns",
        replayer.time("replay.codec", 1.0, || {
            for frame in &encoded.upload_frames {
                black_box(codec.decode_client(frame).expect("decode upload"));
            }
            encoded.upload_frames.len() as u64
        }),
    );
    let upload_bytes: usize = encoded.upload_frames.iter().map(Frame::wire_len).sum();
    let clicks: usize = encoded.batches.iter().map(|b| b.clicks.len()).sum();
    metrics.insert(
        "codec.v2.upload_bytes_per_click",
        Summary::exact(upload_bytes as f64 / clicks as f64, clicks as u64),
    );
    Ok(())
}

/// Time `ops` single calls one by one: per-window medians, and the worst.
fn each_call(
    replayer: &mut Replayer<'_>,
    layer: &'static str,
    ops: usize,
    mut call: impl FnMut(usize),
) -> (Summary, f64) {
    let mut nanos = Vec::with_capacity(ops);
    let start_ns = replayer.epoch.elapsed().as_nanos() as u64;
    for i in 0..ops {
        let started = Instant::now();
        call(i);
        nanos.push(started.elapsed().as_nanos() as f64);
    }
    replayer.spans.push(Span {
        name: layer,
        parent: "",
        id: replayer.batches,
        start_ns,
        end_ns: replayer.epoch.elapsed().as_nanos() as u64,
    });
    replayer.batches += 1;
    let per_window: Vec<f64> = nanos
        .chunks(ops.div_ceil(WINDOWS).max(1))
        .map(median)
        .collect();
    let worst = nanos.iter().copied().fold(0.0, f64::max);
    (Summary::of_windows(&per_window, ops as u64), worst)
}

/// `pubsub::matcher` and `pubsub::broker` at the workload's population.
/// `population` is every filter every socket holds, with its socket.
pub fn pubsub_layers(
    replayer: &mut Replayer<'_>,
    encoded: &Encoded,
    population: &[(usize, Filter)],
    extra: &[Filter],
    metrics: &mut Metrics,
) {
    let events: Vec<&Event> = encoded.published.iter().map(|e| &e.event).collect();
    let mut matcher = IndexMatcher::new();
    for (id, (_, filter)) in population.iter().enumerate() {
        matcher.insert(SubscriptionId(id as u64), filter.clone());
    }
    let mut matched = 0usize;
    let match_ns = replayer.time("replay.matcher", 1.0, || {
        matched = events.iter().map(|e| matcher.matches(e).len()).sum();
        events.len() as u64
    });
    let matched_per_event = matched as f64 / events.len() as f64;
    metrics.insert("matcher.match_ns", match_ns);
    metrics.insert(
        "matcher.matched_per_event",
        Summary::exact(matched_per_event, events.len() as u64),
    );
    let writes: Vec<Filter> = extra.iter().cycle().take(WRITE_OPS).cloned().collect();
    let base = population.len() as u64;
    let mut remove_took = Vec::with_capacity(WINDOWS);
    let insert_ns = replayer.sample("replay.matcher", 1.0, || {
        let batch = writes.clone();
        let started = Instant::now();
        for (i, filter) in batch.into_iter().enumerate() {
            matcher.insert(SubscriptionId(base + i as u64), filter);
        }
        let inserted = started.elapsed();
        let started = Instant::now();
        for i in 0..WRITE_OPS as u64 {
            black_box(matcher.remove(SubscriptionId(base + i)));
        }
        remove_took.push(started.elapsed().as_nanos() as f64 / WRITE_OPS as f64);
        (WRITE_OPS as u64, inserted)
    });
    metrics.insert("matcher.insert_ns", insert_ns);
    let remove_windows: Vec<f64> = remove_took
        .chunks(remove_took.len().div_ceil(WINDOWS).max(1))
        .map(median)
        .collect();
    metrics.insert(
        "matcher.remove_ns",
        Summary::of_windows(&remove_windows, (remove_took.len() * WRITE_OPS) as u64),
    );
    metrics.insert(
        "matcher.clone_ms",
        replayer.time("replay.matcher", 1e6, || {
            black_box(matcher.clone_box());
            1
        }),
    );
    drop(matcher);

    // The broker: one subscriber per socket, the same population.
    let broker = Broker::new();
    let sockets = population.iter().map(|(s, _)| *s + 1).max().unwrap_or(1);
    let handles: Vec<_> = (0..sockets).map(|_| broker.register()).collect();
    let mut any_sub = None;
    for (socket, filter) in population {
        any_sub = broker.subscribe(handles[*socket].0, filter.clone()).ok();
    }
    let publish_ns = replayer.sample("replay.broker", 1.0, || {
        let batch: Vec<Event> = events.iter().map(|e| (*e).clone()).collect();
        let started = Instant::now();
        for event in batch {
            black_box(broker.publish(event).expect("publish"));
        }
        let took = started.elapsed();
        for (_, handle) in &handles {
            black_box(handle.drain());
        }
        (events.len() as u64, took)
    });
    metrics.insert("broker.publish_ns", publish_ns);
    // What publish costs beyond matching, per queue it offers to.
    let offer = (publish_ns.value - match_ns.value).max(0.0) / matched_per_event.max(1.0);
    metrics.insert(
        "broker.offer_ns_per_target",
        Summary::exact(offer, publish_ns.samples),
    );
    if let Some(sub) = any_sub {
        let shared: Vec<Arc<PublishedEvent>> =
            encoded.published.iter().cloned().map(Arc::new).collect();
        let deliver_ns = replayer.sample("replay.broker", 1.0, || {
            let started = Instant::now();
            for event in &shared {
                black_box(broker.deliver(sub, Arc::clone(event)).expect("deliver"));
            }
            let took = started.elapsed();
            for (_, handle) in &handles {
                black_box(handle.drain());
            }
            (shared.len() as u64, took)
        });
        metrics.insert("broker.deliver_ns", deliver_ns);
    }
    let owner = handles[0].0;
    let mut ids = Vec::with_capacity(WRITE_OPS);
    let (subscribe_ns, worst) = each_call(replayer, "replay.broker", WRITE_OPS, |i| {
        ids.push(
            broker
                .subscribe(owner, writes[i].clone())
                .expect("subscribe"),
        );
    });
    metrics.insert("broker.subscribe_ns", subscribe_ns);
    metrics.insert(
        "broker.subscribe_max_us",
        Summary::exact(worst / 1e3, WRITE_OPS as u64),
    );
    let (unsubscribe_ns, _) = each_call(replayer, "replay.broker", WRITE_OPS, |i| {
        black_box(broker.unsubscribe(ids[i]).expect("unsubscribe"));
    });
    metrics.insert("broker.unsubscribe_ns", unsubscribe_ns);
}

/// A routing core in the daemon's default mode, loaded with (a capped
/// share of) the workload's subscriptions as local ones.
fn default_node(population: &[(usize, Filter)]) -> BrokerNode {
    let mut node = BrokerNode::new(true);
    node.add_neighbor(NodeId(1));
    for (id, (socket, filter)) in population.iter().take(ROUTING_POPULATION).enumerate() {
        node.subscribe_local(
            GlobalSubId(id as u64),
            ClientId(*socket as u64),
            filter.clone(),
        );
    }
    node
}

/// `pubsub::overlay`: the routing core the federation drives.
pub fn overlay_layer(
    replayer: &mut Replayer<'_>,
    encoded: &Encoded,
    population: &[(usize, Filter)],
    metrics: &mut Metrics,
) {
    let mut node = default_node(population);
    metrics.insert(
        "overlay.handle_event_ns",
        replayer.sample("replay.overlay", 1.0, || {
            let batch = encoded.peer_msgs.clone();
            let started = Instant::now();
            for msg in batch {
                black_box(node.handle(NodeId(1), msg));
            }
            (encoded.peer_msgs.len() as u64, started.elapsed())
        }),
    );
    let adverts: Vec<PeerMsg> = population
        .iter()
        .take(ROUTING_POPULATION)
        .enumerate()
        .map(|(id, (_, filter))| PeerMsg::SubFwd {
            sub: GlobalSubId(1_000_000 + id as u64),
            filter: filter.clone(),
        })
        .collect();
    metrics.insert(
        "overlay.handle_sub_ns",
        replayer.sample("replay.overlay", 1.0, || {
            // A node between two neighbours: every advertisement from one
            // is considered for forwarding to the other.
            let mut node = BrokerNode::new(true);
            node.add_neighbor(NodeId(1));
            node.add_neighbor(NodeId(2));
            let batch = adverts.clone();
            let started = Instant::now();
            for msg in batch {
                black_box(node.handle(NodeId(1), msg));
            }
            (adverts.len() as u64, started.elapsed())
        }),
    );
}

/// `attention::persist` and `attention::store`. `run_dir` is the data
/// directory a durable daemon left behind (`churn`); the other workloads
/// recover the directory this replay wrote.
pub fn attention_layers(
    replayer: &mut Replayer<'_>,
    encoded: &Encoded,
    run_dir: Option<&Path>,
    metrics: &mut Metrics,
) -> Res<()> {
    let root = scratch_root()?.join(format!("replay-{}", std::process::id()));
    let sized: Vec<(ClickBatch, u64)> = encoded
        .batches
        .iter()
        .zip(&encoded.upload_frames)
        .map(|(batch, frame)| (batch.clone(), frame.wire_len() as u64))
        .collect();
    let mut generation = 0;
    let mut fresh_dir = || {
        generation += 1;
        root.join(format!("wal-{generation}"))
    };
    let mut last_dir = fresh_dir();
    let mut wal_bytes_per_click = 0.0;
    metrics.insert(
        "persist.append_us",
        replayer.sample("replay.persist", 1e3, || {
            last_dir = fresh_dir();
            let mut store =
                DurableClickStore::open(PersistConfig::new(&last_dir)).expect("open replay store");
            let batch = sized.clone();
            let started = Instant::now();
            for (clicks, wire_bytes) in batch {
                black_box(
                    store
                        .ingest_upload_sized(clicks, wire_bytes)
                        .expect("append"),
                );
            }
            let took = started.elapsed();
            wal_bytes_per_click =
                store.persist_stats().wal_bytes as f64 / (sized.len() * UPLOAD_CLICKS) as f64;
            (sized.len() as u64, took)
        }),
    );
    metrics.insert(
        "persist.wal_bytes_per_click",
        Summary::exact(wal_bytes_per_click, (sized.len() * UPLOAD_CLICKS) as u64),
    );
    metrics.insert(
        "store.ingest_us",
        replayer.sample("replay.store", 1e3, || {
            let mut store = ClickStore::new();
            let batch = sized.clone();
            let started = Instant::now();
            for (clicks, wire_bytes) in batch {
                black_box(store.ingest_upload_sized(clicks, wire_bytes));
            }
            (sized.len() as u64, started.elapsed())
        }),
    );
    let mut store = DurableClickStore::open(PersistConfig::new(&last_dir))?;
    metrics.insert(
        "persist.snapshot_ms",
        replayer.time("replay.persist", 1e6, || {
            store.snapshot_now().expect("snapshot");
            1
        }),
    );
    drop(store);
    let recover_dir = run_dir.unwrap_or(&last_dir);
    metrics.insert(
        "persist.recover_ms",
        replayer.time("replay.persist", 1e6, || {
            black_box(DurableClickStore::open(PersistConfig::new(recover_dir)).expect("recover"));
            1
        }),
    );
    let _ = std::fs::remove_dir_all(&root);
    Ok(())
}

/// `core::recommend::autosub` over one user's history.
pub fn autosub_layer(replayer: &mut Replayer<'_>, inputs: &Inputs, metrics: &mut Metrics) {
    let history = &inputs.history;
    metrics.insert(
        "autosub.observe_full_us",
        replayer.sample("replay.autosub", 1e3, || {
            let mut engine = AutoSubEngine::new(history.user, AutoSubConfig::default());
            let started = Instant::now();
            black_box(engine.observe(&history.clicks, 0.0));
            (1, started.elapsed())
        }),
    );
    let seen = history.clicks.len().saturating_sub(UPLOAD_CLICKS);
    let mut diff_ops = Vec::new();
    metrics.insert(
        "autosub.observe_incr_us",
        replayer.sample("replay.autosub", 1e3, || {
            let mut engine = AutoSubEngine::new(history.user, AutoSubConfig::default());
            engine.observe(&history.clicks[..seen], 0.0);
            let started = Instant::now();
            let diff = engine.observe(&history.clicks, 1.0);
            let took = started.elapsed();
            diff_ops.push((diff.installed.len() + diff.retired.len()) as f64);
            (1, took)
        }),
    );
    metrics.insert(
        "autosub.diff_ops",
        Summary::exact(median(&diff_ops), diff_ops.len() as u64),
    );
}
