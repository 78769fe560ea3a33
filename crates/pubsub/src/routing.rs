//! Path-vector mesh routing: redundant links as failover, not faults.
//!
//! A tree-mode [`crate::BrokerNode`] forbids cycles because classic
//! reverse-path forwarding duplicates events on redundant links. This
//! module supplies the opposite trade, in the tradition of PSVR-style
//! self-stabilizing pub/sub routing: cycles are *allowed*, redundancy is
//! *used*, and two mechanisms keep routing correct anyway:
//!
//! * **path-vector advertisements** — every advertised subscription
//!   carries the list of broker ids it traversed ([`PeerMsg::SubAdv`]).
//!   A broker rejects any advertisement whose path already contains its
//!   own id, so advertisement loops die at the first revisit; among the
//!   live paths for a subscription the shortest (ties broken by
//!   lexicographic path) is the *fast path* that gets re-advertised,
//!   while the rest are retained as failover alternates;
//! * **duplicate suppression** — events fan out over every live route,
//!   and each broker admits an event id only once through a bounded
//!   seen-cache. The shortest path delivers first; redundant copies are
//!   counted and dropped. The hop ceiling [`crate::MAX_HOPS`] remains
//!   only as a backstop.
//!
//! Self-stabilization: when a link dies, routes learned through it are
//! torn down immediately, surviving alternates are promoted (counted as
//! `reroutes`) and the resulting advertisement diff is pushed to the
//! remaining neighbors, so tables converge without waiting for timers.
//! A periodic full re-advertisement (`MeshRouter::clear_advertised` +
//! re-sync, driven by the simulator's or daemon's refresh timer) heals any
//! state a lossy or crashed peer missed.
//!
//! [`MeshRouter`] holds only the *remote* route state; the owning
//! [`crate::BrokerNode`] keeps the local filters it advertises and the
//! index over remote ones, and delegates here when constructed in mesh mode
//! ([`crate::BrokerNode::new_mesh`]).
//!
//! [`PeerMsg::SubAdv`]: crate::PeerMsg::SubAdv

use crate::event::EventId;
use crate::filter::Filter;
use crate::overlay::{GlobalSubId, NodeId, PeerMsg};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// Default bound on the duplicate-suppression seen-cache.
pub const DEFAULT_SEEN_CAPACITY: usize = 4096;

/// All live routes this broker holds for one remote subscription: the
/// advertised filter plus, per incoming link, the broker-id path the
/// advertisement travelled (excluding this broker).
#[derive(Debug, Clone)]
struct RouteSet {
    filter: Arc<Filter>,
    via: BTreeMap<NodeId, Vec<u32>>,
}

impl RouteSet {
    /// The fast path: shortest, ties broken by lexicographic path then
    /// link id — a total order, so every broker (and both transports)
    /// picks the same winner.
    fn best(&self) -> Option<(NodeId, &[u32])> {
        self.via
            .iter()
            .min_by(|(la, pa), (lb, pb)| {
                (pa.len(), pa.as_slice(), la.0).cmp(&(pb.len(), pb.as_slice(), lb.0))
            })
            .map(|(link, path)| (*link, path.as_slice()))
    }
}

/// One path-vector advertisement: the filter and the full broker-id path.
type Advertisement = (Arc<Filter>, Vec<u32>);

/// Bounded insert-order-evicting event-id cache: the primary loop and
/// duplicate defense of mesh routing.
#[derive(Debug)]
struct SeenCache {
    cap: usize,
    set: HashSet<EventId>,
    order: VecDeque<EventId>,
}

impl SeenCache {
    fn new(cap: usize) -> Self {
        SeenCache {
            cap: cap.max(1),
            set: HashSet::new(),
            order: VecDeque::new(),
        }
    }

    /// `true` the first time `id` is offered, `false` on every repeat
    /// still inside the window.
    fn first_sight(&mut self, id: EventId) -> bool {
        if !self.set.insert(id) {
            return false;
        }
        self.order.push_back(id);
        if self.order.len() > self.cap {
            if let Some(evicted) = self.order.pop_front() {
                self.set.remove(&evicted);
            }
        }
        true
    }
}

/// Outcome of withdrawing one route of a subscription.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RouteRemoval {
    /// The (link, sub) pair held no route; nothing changed.
    NotFound,
    /// Other routes remain; the best may have been promoted.
    Changed,
    /// That was the last route — the subscription is unreachable and
    /// must leave the match index too.
    Gone,
}

/// The path-vector routing table of one mesh-mode broker.
#[derive(Debug)]
pub struct MeshRouter {
    broker_id: u32,
    /// Remote broker id per neighbor link, learned at handshake.
    neighbor_brokers: HashMap<NodeId, u32>,
    routes: HashMap<GlobalSubId, RouteSet>,
    /// What has been advertised per neighbor: filter and full path (this
    /// broker included), diffed by [`MeshRouter::sync`].
    advertised: HashMap<NodeId, BTreeMap<GlobalSubId, Advertisement>>,
    seen: SeenCache,
    reroutes: u64,
    duplicates_suppressed: u64,
}

impl MeshRouter {
    /// An empty routing table for the broker with federation-wide id
    /// `broker_id`.
    pub fn new(broker_id: u32) -> Self {
        MeshRouter {
            broker_id,
            neighbor_brokers: HashMap::new(),
            routes: HashMap::new(),
            advertised: HashMap::new(),
            seen: SeenCache::new(DEFAULT_SEEN_CAPACITY),
            reroutes: 0,
            duplicates_suppressed: 0,
        }
    }

    /// This broker's own id (the one rejected in incoming paths).
    pub fn broker_id(&self) -> u32 {
        self.broker_id
    }

    pub(crate) fn add_neighbor(&mut self, link: NodeId, broker: u32) {
        self.neighbor_brokers.insert(link, broker);
    }

    /// Tear down every route learned through `link` and return the
    /// subscriptions left with no route at all. Surviving subscriptions
    /// whose fast path died have an alternate promoted (counted).
    pub(crate) fn remove_neighbor(&mut self, link: NodeId) -> Vec<GlobalSubId> {
        self.neighbor_brokers.remove(&link);
        self.advertised.remove(&link);
        let mut gone = Vec::new();
        self.routes.retain(|sub, set| {
            let was_best = set.best().map(|(l, _)| l) == Some(link);
            if set.via.remove(&link).is_none() {
                return true;
            }
            if set.via.is_empty() {
                gone.push(*sub);
                false
            } else {
                if was_best {
                    self.reroutes += 1;
                }
                true
            }
        });
        gone.sort_unstable();
        gone
    }

    /// Record an advertisement received on `link`. Returns `false` when
    /// the path already contains this broker (a cycle echo, dropped).
    pub(crate) fn insert_route(
        &mut self,
        link: NodeId,
        sub: GlobalSubId,
        filter: Arc<Filter>,
        path: Vec<u32>,
    ) -> bool {
        if path.contains(&self.broker_id) {
            return false;
        }
        let set = self.routes.entry(sub).or_insert_with(|| RouteSet {
            filter: Arc::clone(&filter),
            via: BTreeMap::new(),
        });
        set.filter = filter;
        set.via.insert(link, path);
        true
    }

    /// Withdraw the route for `sub` learned via `link`.
    pub(crate) fn remove_route(&mut self, link: NodeId, sub: GlobalSubId) -> RouteRemoval {
        let Some(set) = self.routes.get_mut(&sub) else {
            return RouteRemoval::NotFound;
        };
        let was_best = set.best().map(|(l, _)| l) == Some(link);
        if set.via.remove(&link).is_none() {
            return RouteRemoval::NotFound;
        }
        if set.via.is_empty() {
            self.routes.remove(&sub);
            RouteRemoval::Gone
        } else {
            if was_best {
                self.reroutes += 1;
            }
            RouteRemoval::Changed
        }
    }

    /// Admit an event id once: `true` on first sight, `false` (and a
    /// bump of the suppression gauge) on a duplicate.
    pub(crate) fn first_sight(&mut self, id: EventId) -> bool {
        if self.seen.first_sight(id) {
            true
        } else {
            self.duplicates_suppressed += 1;
            false
        }
    }

    /// Every link holding a live route for `sub`, in link order.
    pub(crate) fn via_links(&self, sub: GlobalSubId) -> impl Iterator<Item = NodeId> + '_ {
        self.routes
            .get(&sub)
            .into_iter()
            .flat_map(|set| set.via.keys().copied())
    }

    /// Diff desired vs already-sent advertisements toward each neighbor
    /// and return the messages closing the gap. `locals` are this
    /// broker's own subscriptions (advertised with path `[broker_id]`);
    /// remote subscriptions are advertised along their fast path with
    /// this broker appended, skipping any neighbor already on that path
    /// (split horizon — it would reject the advertisement anyway).
    pub(crate) fn sync(
        &mut self,
        neighbors: &[NodeId],
        locals: &HashMap<GlobalSubId, Arc<Filter>>,
    ) -> Vec<(NodeId, PeerMsg)> {
        let mut out = Vec::new();
        for &n in neighbors {
            let Some(&remote_broker) = self.neighbor_brokers.get(&n) else {
                continue;
            };
            let mut desired: BTreeMap<GlobalSubId, Advertisement> = BTreeMap::new();
            for (sub, filter) in locals {
                desired.insert(*sub, (Arc::clone(filter), vec![self.broker_id]));
            }
            for (sub, set) in &self.routes {
                let Some((_, best_path)) = set.best() else {
                    continue;
                };
                let mut path = Vec::with_capacity(best_path.len() + 1);
                path.extend_from_slice(best_path);
                path.push(self.broker_id);
                if path.contains(&remote_broker) {
                    continue;
                }
                desired.insert(*sub, (Arc::clone(&set.filter), path));
            }
            let current = self.advertised.entry(n).or_default();
            let removals: Vec<GlobalSubId> = current
                .keys()
                .filter(|sub| !desired.contains_key(sub))
                .copied()
                .collect();
            for sub in removals {
                current.remove(&sub);
                out.push((n, PeerMsg::UnsubFwd { sub }));
            }
            for (sub, (filter, path)) in desired {
                let unchanged = current
                    .get(&sub)
                    .is_some_and(|(held, held_path)| *held == filter && *held_path == path);
                if !unchanged {
                    let msg = PeerMsg::SubAdv {
                        sub,
                        filter: Filter::clone(&filter),
                        path: path.clone(),
                    };
                    current.insert(sub, (filter, path));
                    out.push((n, msg));
                }
            }
        }
        out
    }

    /// Forget what was advertised, so the next [`MeshRouter::sync`]
    /// re-sends everything — the periodic refresh that re-converges
    /// tables after arbitrary churn.
    pub(crate) fn clear_advertised(&mut self) {
        self.advertised.clear();
    }

    /// Number of remote subscriptions with at least one live route.
    pub fn route_count(&self) -> usize {
        self.routes.len()
    }

    /// Non-fast-path routes currently held as failover.
    pub fn alternates(&self) -> usize {
        self.routes
            .values()
            .map(|set| set.via.len().saturating_sub(1))
            .sum()
    }

    /// Times a dead fast path was replaced by a surviving alternate.
    pub fn reroutes(&self) -> u64 {
        self.reroutes
    }

    /// Duplicate event copies dropped by the seen-cache.
    pub fn duplicates_suppressed(&self) -> u64 {
        self.duplicates_suppressed
    }

    /// Advertisements currently held toward neighbors.
    pub(crate) fn advertisement_count(&self) -> usize {
        self.advertised.values().map(BTreeMap::len).sum()
    }

    /// Every live route: `(subscription, incoming link, broker-id path)`
    /// triples, sorted, fast path and alternates alike. This is the raw
    /// table a convergence oracle checks — e.g. that no retained path
    /// crosses a dead link or broker.
    pub fn route_table(&self) -> Vec<(GlobalSubId, NodeId, Vec<u32>)> {
        let mut out: Vec<(GlobalSubId, NodeId, Vec<u32>)> = self
            .routes
            .iter()
            .flat_map(|(sub, set)| {
                set.via
                    .iter()
                    .map(move |(link, path)| (*sub, *link, path.clone()))
            })
            .collect();
        out.sort_unstable();
        out
    }

    /// The fast path per subscription: `(subscription, link, path)`,
    /// sorted by subscription. A convergence oracle compares these
    /// against the graph's true shortest live paths.
    pub fn best_routes(&self) -> Vec<(GlobalSubId, NodeId, Vec<u32>)> {
        let mut out: Vec<(GlobalSubId, NodeId, Vec<u32>)> = self
            .routes
            .iter()
            .filter_map(|(sub, set)| set.best().map(|(link, path)| (*sub, link, path.to_vec())))
            .collect();
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adv(router: &mut MeshRouter, link: u32, sub: u64, path: &[u32]) -> bool {
        router.insert_route(
            NodeId(link),
            GlobalSubId(sub),
            Arc::new(Filter::topic("t")),
            path.to_vec(),
        )
    }

    #[test]
    fn own_id_in_path_is_rejected() {
        let mut r = MeshRouter::new(7);
        assert!(!adv(&mut r, 1, 0, &[3, 7]));
        assert_eq!(r.route_count(), 0);
        assert!(adv(&mut r, 1, 0, &[3, 4]));
        assert_eq!(r.route_count(), 1);
    }

    #[test]
    fn best_prefers_shortest_then_lexicographic_path() {
        let mut r = MeshRouter::new(0);
        assert!(adv(&mut r, 1, 5, &[9, 8, 7]));
        assert!(adv(&mut r, 2, 5, &[9, 8]));
        assert!(adv(&mut r, 3, 5, &[9, 2]));
        let set = r.routes.get(&GlobalSubId(5)).unwrap();
        // Two 2-hop paths: [9, 2] < [9, 8] lexicographically.
        assert_eq!(set.best().unwrap(), (NodeId(3), &[9, 2][..]));
        assert_eq!(r.alternates(), 2);
    }

    #[test]
    fn losing_the_fast_path_promotes_an_alternate() {
        let mut r = MeshRouter::new(0);
        assert!(adv(&mut r, 1, 5, &[9]));
        assert!(adv(&mut r, 2, 5, &[9, 8]));
        assert_eq!(
            r.remove_route(NodeId(1), GlobalSubId(5)),
            RouteRemoval::Changed
        );
        assert_eq!(r.reroutes(), 1);
        let set = r.routes.get(&GlobalSubId(5)).unwrap();
        assert_eq!(set.best().unwrap().0, NodeId(2));
        // Losing an alternate is not a reroute.
        let mut r2 = MeshRouter::new(0);
        assert!(adv(&mut r2, 1, 5, &[9]));
        assert!(adv(&mut r2, 2, 5, &[9, 8]));
        assert_eq!(
            r2.remove_route(NodeId(2), GlobalSubId(5)),
            RouteRemoval::Changed
        );
        assert_eq!(r2.reroutes(), 0);
    }

    #[test]
    fn last_route_removal_reports_gone() {
        let mut r = MeshRouter::new(0);
        assert!(adv(&mut r, 1, 5, &[9]));
        assert_eq!(
            r.remove_route(NodeId(1), GlobalSubId(5)),
            RouteRemoval::Gone
        );
        assert_eq!(r.route_count(), 0);
        assert_eq!(
            r.remove_route(NodeId(1), GlobalSubId(5)),
            RouteRemoval::NotFound
        );
    }

    #[test]
    fn neighbor_removal_tears_down_its_routes() {
        let mut r = MeshRouter::new(0);
        r.add_neighbor(NodeId(1), 10);
        r.add_neighbor(NodeId(2), 20);
        assert!(adv(&mut r, 1, 5, &[10]));
        assert!(adv(&mut r, 1, 6, &[10]));
        assert!(adv(&mut r, 2, 6, &[20, 10]));
        let gone = r.remove_neighbor(NodeId(1));
        assert_eq!(gone, vec![GlobalSubId(5)]);
        assert_eq!(r.route_count(), 1);
        assert_eq!(r.reroutes(), 1, "sub 6 promoted its alternate");
    }

    #[test]
    fn seen_cache_suppresses_duplicates_within_window() {
        let mut r = MeshRouter::new(0);
        assert!(r.first_sight(EventId(1)));
        assert!(!r.first_sight(EventId(1)));
        assert_eq!(r.duplicates_suppressed(), 1);
    }

    #[test]
    fn seen_cache_is_bounded() {
        let mut cache = SeenCache::new(2);
        assert!(cache.first_sight(EventId(1)));
        assert!(cache.first_sight(EventId(2)));
        assert!(cache.first_sight(EventId(3)));
        // Id 1 was evicted, so it is "new" again; 3 is still inside.
        assert!(cache.first_sight(EventId(1)));
        assert!(!cache.first_sight(EventId(3)));
    }

    #[test]
    fn sync_split_horizon_skips_neighbors_on_the_path() {
        let mut r = MeshRouter::new(0);
        r.add_neighbor(NodeId(1), 10);
        r.add_neighbor(NodeId(2), 20);
        assert!(adv(&mut r, 1, 5, &[10]));
        let msgs = r.sync(&[NodeId(1), NodeId(2)], &HashMap::new());
        // Advertised toward broker 20 with path [10, 0]; not back toward
        // broker 10, which is already on the path.
        assert_eq!(msgs.len(), 1);
        assert!(matches!(
            &msgs[0],
            (n, PeerMsg::SubAdv { sub, path, .. })
                if *n == NodeId(2) && *sub == GlobalSubId(5) && path == &vec![10, 0]
        ));
        // Syncing again sends nothing: the diff is empty.
        assert!(r.sync(&[NodeId(1), NodeId(2)], &HashMap::new()).is_empty());
        // After a refresh the same advertisement is re-sent.
        r.clear_advertised();
        assert_eq!(r.sync(&[NodeId(1), NodeId(2)], &HashMap::new()).len(), 1);
    }

    #[test]
    fn sync_withdraws_routes_that_disappeared() {
        let mut r = MeshRouter::new(0);
        r.add_neighbor(NodeId(1), 10);
        r.add_neighbor(NodeId(2), 20);
        assert!(adv(&mut r, 1, 5, &[10]));
        r.sync(&[NodeId(1), NodeId(2)], &HashMap::new());
        assert_eq!(
            r.remove_route(NodeId(1), GlobalSubId(5)),
            RouteRemoval::Gone
        );
        let msgs = r.sync(&[NodeId(1), NodeId(2)], &HashMap::new());
        assert!(matches!(
            msgs.as_slice(),
            [(n, PeerMsg::UnsubFwd { sub })] if *n == NodeId(2) && *sub == GlobalSubId(5)
        ));
    }

    #[test]
    fn locals_are_advertised_with_own_id_as_path() {
        let mut r = MeshRouter::new(3);
        r.add_neighbor(NodeId(1), 10);
        let locals = HashMap::from([(GlobalSubId(9), Arc::new(Filter::topic("t")))]);
        let msgs = r.sync(&[NodeId(1)], &locals);
        assert!(matches!(
            msgs.as_slice(),
            [(_, PeerMsg::SubAdv { path, .. })] if path == &vec![3]
        ));
    }
}
