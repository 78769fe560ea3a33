//! The simulated network: virtual time, per-link fault distributions,
//! deterministic delivery order.
//!
//! Messages between brokers travel through a priority queue keyed by
//! `(arrival_time, sequence)` — the sequence number breaks ties FIFO, so
//! delivery order is a pure function of the sends and the RNG draws that
//! delayed them. Faults are drawn per message from the link's
//! [`LinkFaults`]: drop, duplicate (the copy gets its own delay, so it
//! may arrive before the original — reordering falls out for free), and
//! uniform delay. Partitions drop everything crossing the boundary.
//!
//! Fault application is *phase-gated*: the driver disables drops during
//! stabilization and delivery probes ([`FaultyNet::set_lossy`]), the
//! standard fairness assumption of self-stabilizing protocols — every
//! message is delivered eventually, and the oracle checks the legal
//! state that fairness must produce. Duplicates and delays stay on
//! throughout, so the seen-cache and path-vector defenses are exercised
//! even at quiescent points.
//!
//! Two properties mirror the real transport, where peer links are TCP
//! connections:
//!
//! * **per-link FIFO** — arrival times on one directed link never go
//!   backwards relative to send order (a connection delivers in order);
//!   reordering happens *across* links, which is the kind a distributed
//!   protocol actually observes.
//! * **a drop is a broken connection** — the federation's only loss mode
//!   is a connection dying, upon which both sides tear down and
//!   reconnect. Every message drop therefore *trips* its link
//!   ([`FaultyNet::take_tripped`]); the driver responds by resetting the
//!   link through the real `remove_neighbor`/`add_mesh_neighbor` path,
//!   which regenerates the withdrawals and advertisements the drop
//!   destroyed. Packets also carry the receiver-side link handle of the
//!   connection *epoch* they were sent on, so anything still in flight
//!   across a reset or restart dies exactly as it would on a real RST.

use crate::rng::SimRng;
use reef_pubsub::{NodeId, PeerMsg};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

/// Per-link fault distribution, drawn once at plan time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFaults {
    /// Probability a message crossing the link is silently dropped
    /// (only while the net is lossy).
    pub drop_p: f64,
    /// Probability a message is duplicated; the copy draws its own
    /// delay, so it can overtake the original (reordering).
    pub dup_p: f64,
    /// Uniform per-message delay bounds, in virtual milliseconds.
    pub delay_min: u64,
    /// Upper delay bound (inclusive).
    pub delay_max: u64,
}

impl Default for LinkFaults {
    /// A clean link: no drops, no duplicates, 1 ms fixed delay.
    fn default() -> Self {
        LinkFaults {
            drop_p: 0.0,
            dup_p: 0.0,
            delay_min: 1,
            delay_max: 1,
        }
    }
}

/// One routed message in flight between two brokers. Ordered by
/// `(arrive_at, seq)` only — `seq` is unique per packet, so the order
/// is total even though [`PeerMsg`] itself has no ordering.
#[derive(Debug, Clone)]
struct Packet {
    arrive_at: u64,
    seq: u64,
    src: usize,
    dst: usize,
    /// The link handle the *receiver* knew the sender by when this was
    /// sent — the connection epoch. Stale epochs are dropped at
    /// delivery.
    handle: NodeId,
    msg: PeerMsg,
}

impl PartialEq for Packet {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}

impl Eq for Packet {}

impl PartialOrd for Packet {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Packet {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.arrive_at, self.seq).cmp(&(other.arrive_at, other.seq))
    }
}

/// One delivered message: who sent it, who receives it, and the
/// receiver-side link handle of the connection epoch it was sent on.
#[derive(Debug, Clone, PartialEq)]
pub struct Delivery {
    /// Sending broker index.
    pub src: usize,
    /// Receiving broker index.
    pub dst: usize,
    /// The receiver's link handle for the sender at send time; if the
    /// receiver's current handle differs, the connection this packet
    /// travelled on is gone and the packet must be discarded.
    pub handle: NodeId,
    /// The routed protocol message.
    pub msg: PeerMsg,
}

/// Counters of what the fault injector actually did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetFaultStats {
    /// Messages silently dropped by link loss.
    pub dropped: u64,
    /// Extra copies injected by duplication faults.
    pub duplicated: u64,
    /// Messages dropped at a partition boundary or a dead link.
    pub cut: u64,
}

/// The simulated message plane between brokers.
#[derive(Debug)]
pub struct FaultyNet {
    /// In-flight packets, smallest `(arrive_at, seq)` first.
    heap: BinaryHeap<Reverse<Packet>>,
    now: u64,
    seq: u64,
    /// Brokers on one side of the active partition (`None` = healed).
    partition: Option<BTreeSet<usize>>,
    /// Whether drop faults apply; duplication and delay always do.
    lossy: bool,
    /// Links (normalized pairs) that dropped a message and must be
    /// reset by the driver, like the broken TCP connections they model.
    tripped: BTreeSet<(usize, usize)>,
    /// Latest scheduled arrival per directed link: TCP delivers each
    /// connection's bytes in order, so later sends never overtake.
    last_arrival: BTreeMap<(usize, usize), u64>,
    stats: NetFaultStats,
}

impl FaultyNet {
    /// An empty network at virtual time zero.
    pub fn new() -> FaultyNet {
        FaultyNet {
            heap: BinaryHeap::new(),
            now: 0,
            seq: 0,
            partition: None,
            lossy: true,
            tripped: BTreeSet::new(),
            last_arrival: BTreeMap::new(),
            stats: NetFaultStats::default(),
        }
    }

    /// Current virtual time in milliseconds.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Fault counters so far.
    pub fn stats(&self) -> NetFaultStats {
        self.stats
    }

    /// Enable or disable drop faults (stabilization and probes run
    /// drop-free; duplication and delay stay on regardless).
    pub fn set_lossy(&mut self, lossy: bool) {
        self.lossy = lossy;
    }

    /// Impose a partition: messages between `group` and its complement
    /// are dropped until [`FaultyNet::heal`].
    pub fn partition(&mut self, group: BTreeSet<usize>) {
        self.partition = Some(group);
    }

    /// Remove the active partition.
    pub fn heal(&mut self) {
        self.partition = None;
    }

    /// Whether the active partition separates `a` from `b`.
    pub fn partitioned(&self, a: usize, b: usize) -> bool {
        match &self.partition {
            Some(group) => group.contains(&a) != group.contains(&b),
            None => false,
        }
    }

    /// Links that dropped a message since the last call; the driver
    /// must reset each one (teardown + reconnect), the way the real
    /// federation recovers from a dead TCP connection.
    pub fn take_tripped(&mut self) -> BTreeSet<(usize, usize)> {
        std::mem::take(&mut self.tripped)
    }

    /// Queue `msg` from broker `src` to broker `dst` across a link with
    /// fault profile `faults`, drawing fault decisions from `rng`.
    /// `handle` is the receiver's current link handle for the sender —
    /// the connection epoch the packet belongs to.
    pub fn send(
        &mut self,
        src: usize,
        dst: usize,
        handle: NodeId,
        msg: PeerMsg,
        faults: LinkFaults,
        rng: &mut SimRng,
    ) {
        if self.partitioned(src, dst) {
            self.stats.cut += 1;
            return;
        }
        if self.lossy && rng.chance(faults.drop_p) {
            self.stats.dropped += 1;
            self.tripped.insert((src.min(dst), src.max(dst)));
            return;
        }
        let copies = if rng.chance(faults.dup_p) {
            self.stats.duplicated += 1;
            2
        } else {
            1
        };
        for _ in 0..copies {
            let delay = rng.range(faults.delay_min, faults.delay_max);
            let floor = self.last_arrival.get(&(src, dst)).copied().unwrap_or(0);
            let arrive_at = (self.now + 1 + delay).max(floor);
            self.last_arrival.insert((src, dst), arrive_at);
            let packet = Packet {
                arrive_at,
                seq: self.seq,
                src,
                dst,
                handle,
                msg: msg.clone(),
            };
            self.seq += 1;
            self.heap.push(Reverse(packet));
        }
    }

    /// Deliver the next in-flight packet, advancing virtual time to its
    /// arrival. Packets that would cross the active partition when they
    /// *arrive* are dropped — a partition cuts in-flight traffic too.
    pub fn pop(&mut self) -> Option<Delivery> {
        while let Some(Reverse(packet)) = self.heap.pop() {
            self.now = self.now.max(packet.arrive_at);
            if self.partitioned(packet.src, packet.dst) {
                self.stats.cut += 1;
                continue;
            }
            return Some(Delivery {
                src: packet.src,
                dst: packet.dst,
                handle: packet.handle,
                msg: packet.msg,
            });
        }
        None
    }

    /// Whether any packet is still in flight.
    pub fn is_idle(&self) -> bool {
        self.heap.is_empty()
    }
}

impl Default for FaultyNet {
    fn default() -> Self {
        FaultyNet::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reef_pubsub::GlobalSubId;

    fn msg(n: u64) -> PeerMsg {
        PeerMsg::UnsubFwd {
            sub: GlobalSubId(n),
        }
    }

    const H: NodeId = NodeId(0);

    #[test]
    fn reordering_happens_across_links_never_within_one() {
        let mut net = FaultyNet::new();
        let mut rng = SimRng::new(1);
        let slow = LinkFaults {
            delay_min: 10,
            delay_max: 10,
            ..LinkFaults::default()
        };
        // Directed link 0→1 is FIFO even when an early message drew a
        // long delay...
        net.send(0, 1, H, msg(1), slow, &mut rng);
        net.send(0, 1, H, msg(2), LinkFaults::default(), &mut rng);
        // ...but a message on another link overtakes freely.
        net.send(2, 1, H, msg(3), LinkFaults::default(), &mut rng);
        let got: Vec<PeerMsg> = std::iter::from_fn(|| net.pop().map(|d| d.msg)).collect();
        assert_eq!(got, vec![msg(3), msg(1), msg(2)]);
        assert!(net.is_idle());

        // Equal delays on one link tie-break FIFO.
        let mut net = FaultyNet::new();
        let fixed = LinkFaults {
            delay_min: 5,
            delay_max: 5,
            ..LinkFaults::default()
        };
        for i in 0..10 {
            net.send(0, 1, H, msg(i), fixed, &mut rng);
        }
        let got: Vec<PeerMsg> = std::iter::from_fn(|| net.pop().map(|d| d.msg)).collect();
        assert_eq!(got, (0..10).map(msg).collect::<Vec<_>>());

        // The clock advances to each arrival (send time + 1 + delay), and
        // a reply sent after receipt is scheduled from the new time.
        let mut net = FaultyNet::new();
        let seven = LinkFaults {
            delay_min: 7,
            delay_max: 7,
            ..LinkFaults::default()
        };
        net.send(0, 1, H, msg(1), seven, &mut rng);
        assert_eq!(net.pop().map(|d| d.msg), Some(msg(1)));
        assert_eq!(net.now(), 8);
        net.send(1, 0, H, msg(2), seven, &mut rng);
        assert_eq!(net.now(), 8, "sending does not move the clock");
        assert_eq!(net.pop().map(|d| d.msg), Some(msg(2)));
        assert_eq!(net.now(), 16);
    }

    #[test]
    fn partition_cuts_in_flight_packets() {
        let mut net = FaultyNet::new();
        let mut rng = SimRng::new(1);
        net.send(0, 1, H, msg(1), LinkFaults::default(), &mut rng);
        net.partition([0].into_iter().collect());
        assert!(net.pop().is_none());
        assert_eq!(net.stats().cut, 1);
        net.heal();
        net.send(0, 1, H, msg(2), LinkFaults::default(), &mut rng);
        assert!(net.pop().is_some());
    }

    #[test]
    fn drops_only_apply_while_lossy_and_trip_the_link() {
        let always_drop = LinkFaults {
            drop_p: 1.0,
            ..LinkFaults::default()
        };
        let mut net = FaultyNet::new();
        let mut rng = SimRng::new(1);
        net.send(1, 0, H, msg(1), always_drop, &mut rng);
        assert!(net.pop().is_none());
        assert_eq!(
            net.take_tripped().into_iter().collect::<Vec<_>>(),
            vec![(0, 1)]
        );
        assert!(net.take_tripped().is_empty());
        net.set_lossy(false);
        net.send(1, 0, H, msg(2), always_drop, &mut rng);
        assert!(net.pop().is_some());
        assert!(net.take_tripped().is_empty());
    }
}
