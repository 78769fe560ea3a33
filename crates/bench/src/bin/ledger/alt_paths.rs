//! Replays of the parallel paths ROADMAP plans to delete: the v1 JSON
//! codec and path-vector mesh routing.
//!
//! They live here, and only here, so that the change which deletes
//! `JsonCodec` or `BrokerNode::new_mesh` also deletes this file's use of
//! it (reporting the metric as 0) and touches nothing else in the ledger.

use crate::measure::Metrics;
use crate::replay::{Encoded, Replayer, ROUTING_POPULATION};
use crate::stats::Summary;
use crate::Res;
use reef_pubsub::{BrokerNode, ClientId, Filter, GlobalSubId, NodeId};
use reef_wire::codec::JsonCodec;
use reef_wire::{Frame, WireCodec};
use std::hint::black_box;
use std::time::Instant;

/// `wire::codec` v1: what the same traffic costs in JSON.
pub fn json_codec(
    replayer: &mut Replayer<'_>,
    encoded: &Encoded,
    metrics: &mut Metrics,
) -> Res<()> {
    let codec = JsonCodec;
    let publish_frames: Vec<Frame> = encoded
        .publishes
        .iter()
        .map(|f| codec.encode_client(f))
        .collect::<Result<_, _>>()?;
    metrics.insert(
        "codec.v1.decode_publish_ns",
        replayer.time("replay.codec", 1.0, || {
            for frame in &publish_frames {
                black_box(codec.decode_client(frame).expect("decode v1 publish"));
            }
            publish_frames.len() as u64
        }),
    );
    let mut bytes = 0usize;
    metrics.insert(
        "codec.v1.encode_deliver_ns",
        replayer.time("replay.codec", 1.0, || {
            bytes = 0;
            for event in &encoded.published {
                bytes +=
                    black_box(codec.encode_deliver(event).expect("encode v1 deliver")).wire_len();
            }
            encoded.published.len() as u64
        }),
    );
    metrics.insert(
        "codec.v1.deliver_bytes",
        Summary::exact(
            bytes as f64 / encoded.published.len() as f64,
            encoded.published.len() as u64,
        ),
    );
    Ok(())
}

/// `pubsub::routing`: the mesh router on the inputs the default routing
/// core was replayed on.
pub fn mesh_routing(
    replayer: &mut Replayer<'_>,
    encoded: &Encoded,
    population: &[(usize, Filter)],
    metrics: &mut Metrics,
) {
    let mut node = BrokerNode::new_mesh(1);
    node.add_mesh_neighbor(NodeId(1), 2);
    for (id, (socket, filter)) in population.iter().take(ROUTING_POPULATION).enumerate() {
        node.subscribe_local(
            GlobalSubId(id as u64),
            ClientId(*socket as u64),
            filter.clone(),
        );
    }
    // The mesh suppresses event ids it has already seen: every replayed
    // batch has to carry fresh ones.
    let mut next_id = 1u64 << 40;
    metrics.insert(
        "routing.handle_event_ns",
        replayer.sample("replay.routing", 1.0, || {
            let mut batch = encoded.peer_msgs.clone();
            for msg in &mut batch {
                if let reef_pubsub::PeerMsg::EventFwd { event, .. } = msg {
                    event.id = reef_pubsub::EventId(next_id);
                    next_id += 1;
                }
            }
            let started = Instant::now();
            for msg in batch {
                black_box(node.handle(NodeId(1), msg));
            }
            (encoded.peer_msgs.len() as u64, started.elapsed())
        }),
    );
    metrics.insert(
        "routing.refresh_ns",
        replayer.time("replay.routing", 1.0, || {
            black_box(node.refresh());
            1
        }),
    );
}
