//! A broker and its routing core, composed: the one way `reef-wire`'s
//! federation and `reef-sim`'s cluster pair a [`Broker`] with a
//! [`BrokerNode`].
//!
//! The broker's index is the only table of local filters. The broker
//! reports when a slot — a distinct filter — gains its first owner or
//! loses its last ([`InterestEdge`]), and [`RoutedBroker`] advertises and
//! withdraws on exactly those edges: every path that subscribes at the
//! broker is federated, once per distinct filter, by construction. An
//! event a peer forwards that reaches local interest goes to
//! [`Broker::publish_remote`], the same match and fan-out as a local
//! publish.
//!
//! Lock order: edges arrive under the broker's write lock, and the
//! routing core's mutex is only ever taken inside it — nothing holds the
//! routing core while it calls into the broker. Messages reach the
//! [`PeerSink`] before the routing core is released, so every link sees
//! them in the order the core produced them.

use crate::broker::{Broker, InterestEdge, InterestObserver, PublishOutcome};
use crate::error::BrokerError;
use crate::event::{Event, PublishedEvent};
use crate::overlay::{BrokerNode, GlobalSubId, NodeId, PeerMsg};
use parking_lot::Mutex;
use std::fmt;
use std::sync::Arc;

/// Where a routing core's outgoing messages go: the daemon's peer-link
/// queues, or a simulator's network.
pub trait PeerSink: Send + Sync {
    /// Queue `messages` for their links, in order.
    fn send(&self, messages: Vec<(NodeId, PeerMsg)>);
}

/// A [`Broker`] federated through a [`BrokerNode`]: the broker serves
/// local subscribers, and the node advertises the broker's distinct
/// filters and forwards events between peers.
pub struct RoutedBroker {
    broker: Arc<Broker>,
    routing: Arc<Routing>,
}

/// The broker's interest observer: the routing core and the ids it
/// advertises the broker's slots under.
struct Routing {
    core: Mutex<Core>,
    sink: Arc<dyn PeerSink>,
    /// High bits of every id this broker advertises.
    id_base: u64,
}

struct Core {
    node: BrokerNode,
    /// The advertised id of each open slot of the broker's index, indexed
    /// by slot.
    ids: Vec<GlobalSubId>,
    /// Ids minted so far: one per first-owner edge.
    minted: u64,
}

impl InterestObserver for Routing {
    fn interest_changed(&self, edges: &[InterestEdge]) {
        let mut core = self.core.lock();
        let Core { node, ids, minted } = &mut *core;
        let mut opened = Vec::new();
        let mut withdrawn = Vec::new();
        for edge in edges {
            match edge {
                InterestEdge::First(slot, filter) => {
                    // Minted from a counter, never from the slot: a
                    // recycled slot must not re-advertise an id whose
                    // withdrawal may still be in flight on another path.
                    let id = GlobalSubId(self.id_base | *minted);
                    *minted += 1;
                    let at = *slot as usize;
                    if ids.len() <= at {
                        ids.resize(at + 1, GlobalSubId::default());
                    }
                    ids[at] = id;
                    opened.push((id, Arc::clone(filter)));
                }
                InterestEdge::Last(slot) => withdrawn.push(ids[*slot as usize]),
            }
        }
        self.sink.send(node.update_local(opened, withdrawn));
    }
}

impl fmt::Debug for RoutedBroker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RoutedBroker")
            .field("broker", &self.broker)
            .field("node", &self.routing.core.lock().node)
            .finish()
    }
}

impl RoutedBroker {
    /// Federate `broker` through `node`, whose messages go to `sink`.
    /// Every slot the broker's index holds now, or opens later, is
    /// advertised under an id `id_base | n`, `n` counting from 0; the
    /// driver picks `id_base` so ids are unique across the federation
    /// (the daemon uses `broker_id << 32`). Takes over the broker's
    /// [`InterestObserver`].
    pub fn new(
        broker: Arc<Broker>,
        node: BrokerNode,
        id_base: u64,
        sink: Arc<dyn PeerSink>,
    ) -> RoutedBroker {
        let routing = Arc::new(Routing {
            core: Mutex::new(Core {
                node,
                ids: Vec::new(),
                minted: 0,
            }),
            sink,
            id_base,
        });
        broker.set_interest_observer(Arc::clone(&routing) as Arc<dyn InterestObserver>);
        RoutedBroker { broker, routing }
    }

    /// The broker serving local subscribers.
    pub fn broker(&self) -> &Arc<Broker> {
        &self.broker
    }

    /// Read the routing core.
    pub fn inspect<R>(&self, f: impl FnOnce(&BrokerNode) -> R) -> R {
        f(&self.routing.core.lock().node)
    }

    /// Run one step of the routing core — a link joining or leaving, a
    /// refresh — and send the messages it returns.
    pub fn step(&self, f: impl FnOnce(&mut BrokerNode) -> Vec<(NodeId, PeerMsg)>) {
        let mut core = self.routing.core.lock();
        let messages = f(&mut core.node);
        self.routing.sink.send(messages);
    }

    /// Distinct filters advertised so far: one per first-owner edge.
    pub fn filters_advertised(&self) -> u64 {
        self.routing.core.lock().minted
    }

    /// Publish an event from a local client: the broker delivers it to
    /// local subscribers, and the routing core forwards it toward
    /// interested peers under the broker's event id and timestamp.
    ///
    /// # Errors
    ///
    /// Whatever [`Broker::publish`] refuses; nothing is forwarded then.
    pub fn publish(&self, event: Event) -> Result<PublishOutcome, BrokerError> {
        // Clone only when there are peers to forward to.
        let forward = self
            .inspect(|node| !node.neighbors().is_empty())
            .then(|| event.clone());
        let outcome = self.broker.publish(event)?;
        if let Some(event) = forward {
            let published = PublishedEvent {
                id: outcome.id,
                published_at: outcome.published_at,
                event,
            };
            self.step(|node| node.publish_local(published));
        }
        Ok(outcome)
    }

    /// Route one message from peer link `from`. An event that reaches
    /// local interest goes to the broker in one call, once the routing
    /// core is released; a queue overflow there is the broker's to count.
    pub fn handle(&self, from: NodeId, msg: PeerMsg) {
        let local = {
            let mut core = self.routing.core.lock();
            let out = core.node.handle(from, msg);
            self.routing.sink.send(out.messages);
            out.local
        };
        if let Some(event) = local {
            self.broker.publish_remote(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventId;
    use crate::filter::Filter;

    #[derive(Default)]
    struct Outbox(Mutex<Vec<(NodeId, PeerMsg)>>);

    impl PeerSink for Outbox {
        fn send(&self, messages: Vec<(NodeId, PeerMsg)>) {
            self.0.lock().extend(messages);
        }
    }

    #[test]
    fn one_advertisement_per_distinct_filter_and_one_broker_call_per_event() {
        let outbox = Arc::new(Outbox::default());
        let broker = Arc::new(Broker::new());
        let (early, early_inbox) = broker.register();
        broker.subscribe(early, Filter::topic("early")).unwrap();
        let routed = RoutedBroker::new(
            Arc::clone(&broker),
            BrokerNode::new(true),
            7 << 32,
            Arc::clone(&outbox) as Arc<dyn PeerSink>,
        );
        // A filter the broker held before the pairing is advertised too.
        routed.step(|node| node.add_neighbor(NodeId(1)));
        let ads = std::mem::take(&mut *outbox.0.lock());
        assert!(matches!(ads.as_slice(), [(_, PeerMsg::SubFwd { sub, .. })] if sub.0 == 7 << 32));
        // Two owners of one filter: one advertisement, one withdrawal.
        let (me, inbox) = broker.register();
        let first = broker.subscribe(me, Filter::topic("t")).unwrap();
        broker.subscribe(me, Filter::topic("t")).unwrap();
        assert_eq!(outbox.0.lock().drain(..).count(), 1);
        assert_eq!(routed.filters_advertised(), 2);
        // A forwarded event reaches both owners through the index.
        let event = |topic: &str| PeerMsg::EventFwd {
            event: PublishedEvent {
                id: EventId(9),
                published_at: 3,
                event: Event::topical(topic, "x"),
            },
            hops: 0,
        };
        routed.handle(NodeId(1), event("t"));
        let got = inbox.drain();
        assert_eq!(got.len(), 2);
        assert_eq!((got[0].id, got[0].published_at), (EventId(9), 3));
        broker.unsubscribe(first).unwrap();
        assert!(outbox.0.lock().is_empty(), "an owner remains");
        broker.deregister(me).unwrap();
        assert!(matches!(
            outbox.0.lock().as_slice(),
            [(_, PeerMsg::UnsubFwd { .. })]
        ));
        routed.handle(NodeId(1), event("early"));
        assert_eq!(early_inbox.drain().len(), 1);
    }
}
