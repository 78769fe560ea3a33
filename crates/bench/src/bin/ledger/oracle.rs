//! The harness's own oracle: a linear `Filter::matches` scan over every
//! filter every socket holds, and a checker that holds the daemon's
//! deliveries against it as they arrive.
//!
//! The oracle deliberately shares nothing with the daemon's matchers — it
//! is a double loop over `reef_pubsub::Filter::matches` — so a change to
//! the index, or the removal of `NaiveMatcher`, is judged by code it did
//! not touch.

use reef_pubsub::{Event, Filter};

/// How many copies of each pool event each subscriber socket must receive
/// (one per matching subscription: delivery is per subscription).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    sockets: usize,
    /// `pool × sockets` copy counts, row-major by pool entry.
    copies: Vec<u16>,
    /// Copies across all sockets, per pool entry.
    totals: Vec<u32>,
}

impl Expected {
    /// Scan every event of the pool against every filter of every socket.
    pub fn scan(events: &[Event], socket_filters: &[Vec<Filter>]) -> Expected {
        let sockets = socket_filters.len();
        let mut copies = Vec::with_capacity(events.len() * sockets);
        let mut totals = Vec::with_capacity(events.len());
        for event in events {
            let mut total = 0u32;
            for filters in socket_filters {
                let n = filters.iter().filter(|f| f.matches(event)).count();
                let n = u16::try_from(n).expect("fewer than 65536 copies per socket");
                total += u32::from(n);
                copies.push(n);
            }
            totals.push(total);
        }
        Expected {
            sockets,
            copies,
            totals,
        }
    }

    /// Events in the pool.
    pub fn pool(&self) -> usize {
        self.totals.len()
    }

    /// Copies of the event sent as `seq` that `socket` must receive.
    pub fn copies(&self, seq: u64, socket: usize) -> u16 {
        self.copies[(seq as usize % self.pool()) * self.sockets + socket]
    }

    /// Copies of the event sent as `seq` across all sockets.
    pub fn total(&self, seq: u64) -> u32 {
        self.totals[seq as usize % self.pool()]
    }
}

/// What went wrong with deliveries, by kind. A clean run is all zeros.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeliveryFaults {
    /// Expected copies that never arrived.
    pub missing: u64,
    /// Copies beyond the expected count for an event that does match.
    pub duplicate: u64,
    /// Deliveries of an event that matches nothing on that socket.
    pub spurious: u64,
    /// Deliveries that arrived after a later event of the same publisher.
    pub out_of_order: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct SocketCursor {
    /// Every sequence number below this has been settled.
    next_unsettled: u64,
    /// Copies of `next_unsettled` seen so far.
    copies: u16,
}

/// Checks each subscriber socket's delivery stream against [`Expected`]:
/// exactly once per matching subscription, in the publisher's order, and
/// nothing for events that do not match.
#[derive(Debug)]
pub struct DeliveryCheck {
    expected: Expected,
    cursors: Vec<SocketCursor>,
    /// Deliveries that were expected and in order.
    pub correct: u64,
    /// Everything else.
    pub faults: DeliveryFaults,
}

impl DeliveryCheck {
    /// A checker for `expected`, with every socket at sequence 0.
    pub fn new(expected: Expected) -> DeliveryCheck {
        DeliveryCheck {
            cursors: vec![SocketCursor::default(); expected.sockets],
            expected,
            correct: 0,
            faults: DeliveryFaults::default(),
        }
    }

    /// The expectations being checked against.
    pub fn expected(&self) -> &Expected {
        &self.expected
    }

    /// Settle every sequence number of `socket` below `upto`: whatever is
    /// still owed is missing.
    fn settle(&mut self, socket: usize, upto: u64) {
        let cursor = &mut self.cursors[socket];
        while cursor.next_unsettled < upto {
            let owed = self.expected.copies(cursor.next_unsettled, socket);
            self.faults.missing += u64::from(owed.saturating_sub(cursor.copies));
            cursor.next_unsettled += 1;
            cursor.copies = 0;
        }
    }

    /// Account for one delivery of sequence `seq` on `socket`. Returns
    /// whether it was an expected, in-order copy (whose latency counts).
    pub fn observe(&mut self, socket: usize, seq: u64) -> bool {
        if seq < self.cursors[socket].next_unsettled {
            self.faults.out_of_order += 1;
            return false;
        }
        self.settle(socket, seq);
        let owed = self.expected.copies(seq, socket);
        let cursor = &mut self.cursors[socket];
        cursor.copies = cursor.copies.saturating_add(1);
        if owed == 0 {
            self.faults.spurious += 1;
            false
        } else if cursor.copies > owed {
            self.faults.duplicate += 1;
            false
        } else {
            self.correct += 1;
            true
        }
    }

    /// The run is over and `sent` events were published: settle every
    /// socket up to there.
    pub fn finish(&mut self, sent: u64) {
        for socket in 0..self.cursors.len() {
            self.settle(socket, sent);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::content_filters;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use reef_pubsub::{IndexMatcher, MatchEngine, SubscriptionId};

    #[test]
    fn oracle_agrees_with_the_index_matcher_on_seeded_pairs() {
        let mut rng = StdRng::seed_from_u64(99);
        let filters = content_filters(1_000, &mut rng);
        let mut index = IndexMatcher::new();
        for (i, filter) in filters.iter().enumerate() {
            index.insert(SubscriptionId(i as u64), filter.clone());
        }
        let events: Vec<Event> = (0..1_000)
            .map(|_| {
                Event::builder()
                    .attr("sym", format!("S{:04}", rng.gen_range(0..40)))
                    .attr("px", f64::from(rng.gen_range(0u32..1000)))
                    .attr("venue", ["nyse", "arca", "bats"][rng.gen_range(0..3usize)])
                    .build()
            })
            .collect();
        let expected = Expected::scan(&events, std::slice::from_ref(&filters));
        let mut matched = 0;
        for (seq, event) in events.iter().enumerate() {
            let by_index = index.matches(event).len();
            assert_eq!(usize::from(expected.copies(seq as u64, 0)), by_index);
            matched += by_index;
        }
        assert!(matched > 100, "the pairs must actually exercise matching");
    }

    fn two_socket_expectation() -> Expected {
        // Pool of 3: event 0 -> socket 0 once; event 1 -> socket 0 twice and
        // socket 1 once; event 2 -> nobody.
        let events = vec![
            Event::topical("a", ""),
            Event::topical("b", ""),
            Event::topical("c", ""),
        ];
        let filters = vec![
            vec![Filter::topic("a"), Filter::topic("b"), Filter::topic("b")],
            vec![Filter::topic("b")],
        ];
        Expected::scan(&events, &filters)
    }

    #[test]
    fn clean_stream_has_no_faults() {
        let mut check = DeliveryCheck::new(two_socket_expectation());
        assert_eq!(check.expected().total(1), 3);
        assert_eq!(check.expected().total(4), 3, "the pool cycles");
        for (socket, seq) in [
            (0, 0),
            (0, 1),
            (1, 1),
            (0, 1),
            (0, 3),
            (0, 4),
            (0, 4),
            (1, 4),
        ] {
            assert!(check.observe(socket, seq), "socket {socket} seq {seq}");
        }
        check.finish(6);
        assert_eq!(check.faults, DeliveryFaults::default());
        assert_eq!(check.correct, 8);
    }

    #[test]
    fn every_fault_kind_is_caught() {
        let mut check = DeliveryCheck::new(two_socket_expectation());
        assert!(check.observe(0, 0));
        assert!(!check.observe(0, 0), "second copy of a single match");
        assert!(!check.observe(1, 2), "event 2 matches nothing");
        assert!(!check.observe(1, 1), "seq 1 after seq 2 on the same socket");
        assert!(check.observe(0, 4), "skips seq 1 (two copies) and seq 3");
        check.finish(6);
        assert_eq!(
            check.faults,
            DeliveryFaults {
                // socket 0: two copies of seq 1, one of seq 3, one of seq 4;
                // socket 1: seq 1 (settled by the time it arrived) and seq 4.
                missing: 6,
                duplicate: 1,
                spurious: 1,
                out_of_order: 1,
            }
        );
    }
}
