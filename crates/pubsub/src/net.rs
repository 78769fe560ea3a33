//! Deterministic simulated network and the broker message plane.
//!
//! The paper's evaluation ran over the real Internet; we substitute a
//! virtual-time message-passing network so experiments are reproducible and
//! so the centralized-vs-distributed comparison (experiment **E4**) can
//! account every byte that crosses the wire. Messages are delivered in
//! timestamp order with FIFO tie-breaking, so a simulation driven through
//! [`SimNet::recv_next`] is fully deterministic.
//!
//! On top of the raw [`SimNet`] sits [`SimTransport`]: the message plane
//! [`crate::Overlay`] moves [`crate::PeerMsg`]s through between its
//! [`crate::BrokerNode`]s, byte-accounted and in virtual-time order.
//! `reef-wire` drives the same routing core over OS sockets between
//! daemons, from its event loop.

use crate::overlay::PeerMsg;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::error::Error;
use std::fmt;

/// Identifier of a node attached to a [`SimNet`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node#{}", self.0)
    }
}

/// Errors produced by [`SimNet`] operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetError {
    /// The referenced node was never added to the network.
    UnknownNode(NodeId),
    /// There is no link between the two nodes.
    NoLink(NodeId, NodeId),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::UnknownNode(n) => write!(f, "unknown network node {n}"),
            NetError::NoLink(a, b) => write!(f, "no link between {a} and {b}"),
        }
    }
}

impl Error for NetError {}

/// A message in flight, as handed to the receiver.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope<M> {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Virtual time at which the message arrives.
    pub arrive_at: u64,
    /// Accounted size of the message in bytes.
    pub size: usize,
    /// Application payload.
    pub payload: M,
}

#[derive(Debug)]
struct Scheduled<M> {
    arrive_at: u64,
    seq: u64,
    envelope: Envelope<M>,
}

impl<M> PartialEq for Scheduled<M> {
    fn eq(&self, other: &Self) -> bool {
        self.arrive_at == other.arrive_at && self.seq == other.seq
    }
}
impl<M> Eq for Scheduled<M> {}
impl<M> PartialOrd for Scheduled<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Scheduled<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.arrive_at, self.seq).cmp(&(other.arrive_at, other.seq))
    }
}

/// Aggregate traffic statistics for a [`SimNet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct NetStats {
    /// Messages sent.
    pub messages: u64,
    /// Total accounted bytes.
    pub bytes: u64,
    /// Messages still queued (not yet received).
    pub in_flight: u64,
}

impl fmt::Display for NetStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} msgs, {} bytes, {} in flight",
            self.messages, self.bytes, self.in_flight
        )
    }
}

/// A deterministic virtual-time network carrying messages of type `M`.
///
/// # Examples
///
/// ```
/// use reef_pubsub::net::SimNet;
///
/// let mut net: SimNet<&'static str> = SimNet::new();
/// let a = net.add_node();
/// let b = net.add_node();
/// net.connect(a, b, 10);
/// net.send(a, b, "hello", 5).unwrap();
/// let env = net.recv_next().unwrap();
/// assert_eq!(env.payload, "hello");
/// assert_eq!(env.arrive_at, 10);
/// ```
#[derive(Debug)]
pub struct SimNet<M> {
    next_node: u32,
    links: HashMap<(NodeId, NodeId), u64>,
    queue: BinaryHeap<Reverse<Scheduled<M>>>,
    clock: u64,
    seq: u64,
    messages: u64,
    bytes: u64,
    /// Bytes per directed (src, dst) pair, for experiment accounting.
    link_bytes: HashMap<(NodeId, NodeId), u64>,
}

impl<M> Default for SimNet<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> SimNet<M> {
    /// An empty network.
    pub fn new() -> Self {
        SimNet {
            next_node: 0,
            links: HashMap::new(),
            queue: BinaryHeap::new(),
            clock: 0,
            seq: 0,
            messages: 0,
            bytes: 0,
            link_bytes: HashMap::new(),
        }
    }

    /// Add a node and return its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(self.next_node);
        self.next_node += 1;
        id
    }

    /// `true` when the id refers to an existing node.
    pub fn has_node(&self, id: NodeId) -> bool {
        id.0 < self.next_node
    }

    /// Create a bidirectional link with the given one-way latency (virtual
    /// time units). Re-connecting replaces the latency.
    pub fn connect(&mut self, a: NodeId, b: NodeId, latency: u64) {
        self.links.insert((a, b), latency);
        self.links.insert((b, a), latency);
    }

    /// One-way latency of the link from `a` to `b`, if connected.
    pub fn latency(&self, a: NodeId, b: NodeId) -> Option<u64> {
        self.links.get(&(a, b)).copied()
    }

    /// Kill the link between `a` and `b`. Messages already in flight on
    /// the link are **lost**, in both directions — a dead wire delivers
    /// nothing, which is exactly the failure a mesh overlay's routing
    /// layer must survive. Returns `false` when no such link existed.
    pub fn disconnect(&mut self, a: NodeId, b: NodeId) -> bool {
        let existed = self.links.remove(&(a, b)).is_some();
        self.links.remove(&(b, a));
        if existed {
            let survivors: BinaryHeap<Reverse<Scheduled<M>>> = std::mem::take(&mut self.queue)
                .into_iter()
                .filter(|Reverse(s)| {
                    let (src, dst) = (s.envelope.src, s.envelope.dst);
                    !((src == a && dst == b) || (src == b && dst == a))
                })
                .collect();
            self.queue = survivors;
        }
        existed
    }

    /// Current virtual time (advanced by [`SimNet::recv_next`]).
    pub fn now(&self) -> u64 {
        self.clock
    }

    /// Schedule a message. The message arrives `latency(src, dst)` after the
    /// current virtual time.
    ///
    /// # Errors
    ///
    /// * [`NetError::UnknownNode`] if either endpoint does not exist.
    /// * [`NetError::NoLink`] if the endpoints are not connected.
    pub fn send(
        &mut self,
        src: NodeId,
        dst: NodeId,
        payload: M,
        size: usize,
    ) -> Result<u64, NetError> {
        if !self.has_node(src) {
            return Err(NetError::UnknownNode(src));
        }
        if !self.has_node(dst) {
            return Err(NetError::UnknownNode(dst));
        }
        let latency = self
            .links
            .get(&(src, dst))
            .copied()
            .ok_or(NetError::NoLink(src, dst))?;
        let arrive_at = self.clock + latency;
        let seq = self.seq;
        self.seq += 1;
        self.messages += 1;
        self.bytes += size as u64;
        *self.link_bytes.entry((src, dst)).or_insert(0) += size as u64;
        self.queue.push(Reverse(Scheduled {
            arrive_at,
            seq,
            envelope: Envelope {
                src,
                dst,
                arrive_at,
                size,
                payload,
            },
        }));
        Ok(arrive_at)
    }

    /// Deliver the earliest in-flight message, advancing the clock to its
    /// arrival time. Returns `None` when the network is idle.
    pub fn recv_next(&mut self) -> Option<Envelope<M>> {
        let Reverse(scheduled) = self.queue.pop()?;
        self.clock = self.clock.max(scheduled.arrive_at);
        Some(scheduled.envelope)
    }

    /// Number of messages not yet delivered.
    pub fn in_flight(&self) -> usize {
        self.queue.len()
    }

    /// Aggregate traffic statistics.
    pub fn stats(&self) -> NetStats {
        NetStats {
            messages: self.messages,
            bytes: self.bytes,
            in_flight: self.queue.len() as u64,
        }
    }

    /// Bytes sent on the directed link `src -> dst` so far.
    pub fn bytes_on_link(&self, src: NodeId, dst: NodeId) -> u64 {
        self.link_bytes.get(&(src, dst)).copied().unwrap_or(0)
    }
}

/// One routed broker-to-broker message, as handed to a transport driver.
#[derive(Debug, Clone, PartialEq)]
pub struct TransportDelivery {
    /// Sending broker link.
    pub src: NodeId,
    /// Receiving broker link.
    pub dst: NodeId,
    /// The routing message.
    pub msg: PeerMsg,
}

/// The deterministic in-process message plane between
/// [`crate::BrokerNode`]s: a thin wrapper around [`SimNet`] that
/// byte-accounts every [`PeerMsg`] and delivers in virtual-time order.
/// A transport is dumb on purpose: it carries messages between link
/// endpoints and surfaces what arrived; every routing decision stays in
/// the sans-io core.
///
/// # Examples
///
/// ```
/// use reef_pubsub::net::SimTransport;
/// use reef_pubsub::{GlobalSubId, PeerMsg};
///
/// let mut t = SimTransport::new();
/// let a = t.add_node();
/// let b = t.add_node();
/// t.connect(a, b, 3);
/// t.send(a, b, PeerMsg::UnsubFwd { sub: GlobalSubId(1) }).unwrap();
/// let d = t.recv().unwrap();
/// assert_eq!((d.src, d.dst), (a, b));
/// assert_eq!(t.now(), 3);
/// ```
#[derive(Debug, Default)]
pub struct SimTransport {
    net: SimNet<PeerMsg>,
}

impl SimTransport {
    /// An empty transport with no nodes.
    pub fn new() -> Self {
        SimTransport { net: SimNet::new() }
    }

    /// Add a link endpoint and return its id.
    pub fn add_node(&mut self) -> NodeId {
        self.net.add_node()
    }

    /// Create a bidirectional link with the given one-way latency.
    pub fn connect(&mut self, a: NodeId, b: NodeId, latency: u64) {
        self.net.connect(a, b, latency);
    }

    /// Kill the link between `a` and `b`, losing in-flight messages on
    /// it (see [`SimNet::disconnect`]). Returns `false` when no such
    /// link existed.
    pub fn disconnect(&mut self, a: NodeId, b: NodeId) -> bool {
        self.net.disconnect(a, b)
    }

    /// Current virtual time.
    pub fn now(&self) -> u64 {
        self.net.now()
    }

    /// Aggregate traffic statistics.
    pub fn stats(&self) -> NetStats {
        self.net.stats()
    }

    /// Bytes sent on the directed link `src -> dst` so far.
    pub fn bytes_on_link(&self, src: NodeId, dst: NodeId) -> u64 {
        self.net.bytes_on_link(src, dst)
    }

    /// Queue `msg` from link endpoint `src` toward `dst`.
    ///
    /// # Errors
    ///
    /// [`NetError`] when either endpoint is unknown or the two are not
    /// connected.
    pub fn send(&mut self, src: NodeId, dst: NodeId, msg: PeerMsg) -> Result<(), NetError> {
        let size = msg.wire_size();
        self.net.send(src, dst, msg, size)?;
        Ok(())
    }

    /// The next message in virtual-time order, if any. `None` means the
    /// network is idle.
    pub fn recv(&mut self) -> Option<TransportDelivery> {
        self.net.recv_next().map(|env| TransportDelivery {
            src: env.src,
            dst: env.dst,
            msg: env.payload,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_arrive_in_time_order() {
        let mut net: SimNet<u32> = SimNet::new();
        let a = net.add_node();
        let b = net.add_node();
        let c = net.add_node();
        net.connect(a, b, 10);
        net.connect(a, c, 3);
        net.send(a, b, 1, 8).unwrap();
        net.send(a, c, 2, 8).unwrap();
        assert_eq!(net.recv_next().unwrap().payload, 2);
        assert_eq!(net.recv_next().unwrap().payload, 1);
        assert!(net.recv_next().is_none());
        assert_eq!(net.now(), 10);
    }

    #[test]
    fn fifo_tie_breaking_at_equal_latency() {
        let mut net: SimNet<u32> = SimNet::new();
        let a = net.add_node();
        let b = net.add_node();
        net.connect(a, b, 5);
        for i in 0..10 {
            net.send(a, b, i, 1).unwrap();
        }
        let got: Vec<u32> = std::iter::from_fn(|| net.recv_next().map(|e| e.payload)).collect();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn send_requires_link_and_nodes() {
        let mut net: SimNet<()> = SimNet::new();
        let a = net.add_node();
        let b = net.add_node();
        assert_eq!(net.send(a, b, (), 1), Err(NetError::NoLink(a, b)));
        assert_eq!(
            net.send(a, NodeId(99), (), 1),
            Err(NetError::UnknownNode(NodeId(99)))
        );
    }

    #[test]
    fn byte_accounting_per_link_and_total() {
        let mut net: SimNet<()> = SimNet::new();
        let a = net.add_node();
        let b = net.add_node();
        net.connect(a, b, 1);
        net.send(a, b, (), 100).unwrap();
        net.send(b, a, (), 50).unwrap();
        assert_eq!(net.bytes_on_link(a, b), 100);
        assert_eq!(net.bytes_on_link(b, a), 50);
        let stats = net.stats();
        assert_eq!(stats.bytes, 150);
        assert_eq!(stats.messages, 2);
        assert_eq!(stats.in_flight, 2);
    }

    #[test]
    fn clock_advances_monotonically_with_chained_sends() {
        let mut net: SimNet<u32> = SimNet::new();
        let a = net.add_node();
        let b = net.add_node();
        net.connect(a, b, 7);
        net.send(a, b, 0, 1).unwrap();
        let env = net.recv_next().unwrap();
        assert_eq!(env.arrive_at, 7);
        // A reply sent after receipt arrives at 14.
        net.send(b, a, 1, 1).unwrap();
        assert_eq!(net.recv_next().unwrap().arrive_at, 14);
    }
}
