//! A single-node publish-subscribe broker.
//!
//! The broker is the "publish-subscribe substrate" box of the paper's
//! Figures 1 and 2, in its local form: subscribers register, place
//! subscriptions (step 3 in Figure 1), and receive matching events on their
//! delivery queues (step 4). The multi-broker form lives in
//! [`crate::overlay`], composed with this broker by [`crate::routed`].
//!
//! The broker is thread-safe: `publish` takes `&self`, so producers on
//! multiple threads can publish concurrently while subscribers drain their
//! queues through [`SubscriberHandle`]s (crossbeam channels).
//!
//! # Zero-copy fan-out
//!
//! A published event is wrapped in one [`Arc`] and every matching
//! subscriber queue receives a clone of the *pointer*, not of the event:
//! fan-out to a thousand subscribers costs a thousand reference-count
//! bumps instead of a thousand deep copies of the attribute map.
//! Networked delivery pumps encode frames straight from the shared
//! borrow.
//!
//! # Read-mostly subscription index
//!
//! Matching never takes the broker's write lock. Writers change the
//! master index under `inner`'s write lock and then *publish* a copy of it
//! (swap-on-write, epoch-style) as one `Arc`; `publish`/`deliver` clone
//! that `Arc` out of a momentary read lock and match against it, so a
//! publish storm proceeds at full speed while subscribe/unsubscribe churn
//! swaps snapshots underneath it. The index is structurally shared (see
//! [`crate::matcher`]): the copy is a handful of pointers, and the next
//! write copies only the tree paths and the one bucket it changes, so no
//! write costs O(subscriptions) however often snapshots are taken.

use crate::error::BrokerError;
use crate::event::{Event, EventId, PublishedEvent};
use crate::filter::Filter;
use crate::matcher::{IndexMatcher, MatchEngine, SlotId, SubscriptionId};
use crate::pmap::PMap;
use crate::schema::Schema;
use crate::stats::{BrokerStats, BrokerStatsSnapshot};
use crossbeam::channel::{self, Receiver, Sender, TrySendError};
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Observer of successful deliveries, registered with
/// [`Broker::set_delivery_notifier`].
///
/// Readiness-driven transports (e.g. `reef-wire`'s epoll event loop)
/// register one so a publish executed on *any* thread can wake the I/O
/// loop that drains the target subscriber's queue. The hook is called
/// after the event is on the queue, outside the broker's lock, at most
/// once per subscriber per publish.
pub trait DeliveryNotifier: Send + Sync {
    /// One or more events were queued for `subscriber`.
    fn notify(&self, subscriber: SubscriberId);

    /// One publish queued events for every subscriber in `subscribers`
    /// (each listed at most once). Sharded transports override this to
    /// group the wakeups per event loop — one eventfd write per shard
    /// instead of one per subscriber.
    fn notify_batch(&self, subscribers: &[SubscriberId]) {
        for subscriber in subscribers {
            self.notify(*subscriber);
        }
    }
}

/// A change to a broker's set of distinct filters: one slot of its
/// [`IndexMatcher`] gaining its first owner or losing its last.
#[derive(Debug, Clone)]
pub enum InterestEdge {
    /// A subscribe opened the slot for a filter no live subscription
    /// held: the slot and the `Arc` the index files.
    First(SlotId, Arc<Filter>),
    /// An unsubscribe or deregister freed the slot of a filter's last
    /// owner; a later [`InterestEdge::First`] may reuse it.
    Last(SlotId),
}

/// Observer of a broker's distinct filters, registered with
/// [`Broker::set_interest_observer`]: the hook a federation advertises
/// through.
pub trait InterestObserver: Send + Sync {
    /// One write opened or freed the slots in `edges`. Called under the
    /// broker's write lock, so edges arrive in the order the writes
    /// happened; the observer must not call back into the broker.
    fn interest_changed(&self, edges: &[InterestEdge]);
}

/// Identifier of a subscriber registered with a [`Broker`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SubscriberId(pub u64);

impl fmt::Display for SubscriberId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "subr#{}", self.0)
    }
}

/// What to do when a bounded delivery queue is full. Either way a publish
/// never waits and never fails because one subscriber is slow: the loss
/// is counted and the publisher goes on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverflowPolicy {
    /// Drop the new event for that subscriber and count it in the stats
    /// (`drop-new`).
    #[default]
    DropAndCount,
    /// Evict the oldest queued event to make room for the new one
    /// (`drop-old`). The eviction is counted as a drop. Under this policy
    /// the broker keeps a handle on each queue's receiving side, so a
    /// subscriber that silently drops its [`SubscriberHandle`] is not
    /// detected until it deregisters.
    DropOldest,
}

impl OverflowPolicy {
    /// Parse the CLI spelling used by `reefd --overflow`
    /// (`drop-new` | `drop-old`), the inverse of `Display`.
    pub fn parse(s: &str) -> Option<OverflowPolicy> {
        match s {
            "drop-new" => Some(OverflowPolicy::DropAndCount),
            "drop-old" => Some(OverflowPolicy::DropOldest),
            _ => None,
        }
    }
}

impl fmt::Display for OverflowPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            OverflowPolicy::DropAndCount => "drop-new",
            OverflowPolicy::DropOldest => "drop-old",
        })
    }
}

/// Outcome of a successful publish.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PublishOutcome {
    /// Identifier assigned to the event.
    pub id: EventId,
    /// Broker-local logical timestamp assigned to the event.
    pub published_at: u64,
    /// Number of subscribers the event was delivered to.
    pub delivered: usize,
    /// Number of subscribers that lost the event to queue overflow.
    pub dropped: usize,
}

/// The master record of one subscriber.
struct SubscriberEntry {
    queue: QueueHandle,
    /// The subscriptions it holds, so that deregistering it retires them
    /// without searching the index for them.
    subscriptions: HashSet<SubscriptionId>,
}

/// The channel endpoints of one live subscriber.
struct QueueEndpoints {
    sender: Sender<Arc<PublishedEvent>>,
    /// Receiving side, held only under [`OverflowPolicy::DropOldest`] so
    /// the broker can evict the oldest queued event.
    evictor: Option<Receiver<Arc<PublishedEvent>>>,
}

/// One subscriber's queue slot, shared between the master state and
/// every published index snapshot. Deregistration *empties* the slot
/// instead of waiting for stale snapshots to forget it, so the sender is
/// dropped — and the subscriber's receiving handle observes
/// disconnection — immediately, however many index snapshots still point
/// at the slot.
struct QueueSlot {
    endpoints: RwLock<Option<QueueEndpoints>>,
}

/// A snapshot of one subscriber's queue slot, detached from the broker's
/// locked state.
#[derive(Clone)]
struct QueueHandle {
    slot: Arc<QueueSlot>,
}

/// Where a matching subscription's events go.
#[derive(Clone)]
struct Route {
    owner: SubscriberId,
    queue: QueueHandle,
}

/// The read-mostly subscription index: the matcher plus each
/// subscription's route. The master copy lives in [`BrokerInner`]; after
/// every write a clone of it is published as one `Arc` that the hot paths
/// (`publish`, `deliver`) take out of a momentary read lock. Both tables
/// are structurally shared, so the clone is shallow and the master's next
/// write leaves every published snapshot as it was.
#[derive(Clone, Default)]
struct IndexSnapshot {
    matcher: IndexMatcher,
    routes: PMap<SubscriptionId, Route>,
    /// Delivery observer, carried in the snapshot so the publish path
    /// reads exactly one lock for index *and* notifier.
    notifier: Option<Arc<dyn DeliveryNotifier>>,
}

impl IndexSnapshot {
    /// Every `(owner, queue)` the event must be offered to, one per
    /// matching subscription.
    fn targets(&self, event: &Event) -> impl Iterator<Item = &Route> {
        self.matcher
            .matches(event)
            .into_iter()
            .filter_map(|sub| self.routes.get(&sub))
    }
}

/// What happened when one event was offered to one subscriber queue.
enum Offer {
    /// Placed on the queue.
    Delivered,
    /// Placed on the queue after evicting the oldest queued event.
    DeliveredEvicting,
    /// Lost: the queue was full and stayed full.
    DroppedFull,
    /// Lost: the subscriber's receiving handle is gone.
    DroppedGone,
}

struct BrokerInner {
    /// The master index; every published snapshot is a clone of it.
    index: IndexSnapshot,
    subscribers: HashMap<SubscriberId, SubscriberEntry>,
    /// Told about every slot the index opens or frees.
    observer: Option<Arc<dyn InterestObserver>>,
}

impl BrokerInner {
    fn report(&self, edges: &[InterestEdge]) {
        if let (Some(observer), false) = (&self.observer, edges.is_empty()) {
            observer.interest_changed(edges);
        }
    }
}

/// A local publish-subscribe broker.
///
/// # Examples
///
/// ```
/// use reef_pubsub::{Broker, Event, Filter};
///
/// let broker = Broker::new();
/// let (id, handle) = broker.register();
/// broker.subscribe(id, Filter::topic("news")).unwrap();
/// broker.publish(Event::topical("news", "hello")).unwrap();
/// assert_eq!(handle.drain().len(), 1);
/// ```
pub struct Broker {
    inner: RwLock<BrokerInner>,
    schema: Option<Schema>,
    queue_capacity: Option<usize>,
    overflow: OverflowPolicy,
    stats: BrokerStats,
    /// The published read-mostly index. Hot paths clone the `Arc` out of
    /// a momentary read lock; writers (already serialized by `inner`'s
    /// write lock) swap in a whole new snapshot.
    snapshot: RwLock<Arc<IndexSnapshot>>,
    /// How many snapshots have been published.
    snapshot_swaps: AtomicU64,
    next_subscriber: AtomicU64,
    next_subscription: AtomicU64,
    next_event: AtomicU64,
    clock: AtomicU64,
}

impl fmt::Debug for Broker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Broker")
            .field("subscribers", &self.inner.read().subscribers.len())
            .field("subscriptions", &self.inner.read().index.matcher.len())
            .field("schema", &self.schema.as_ref().map(Schema::name))
            .finish()
    }
}

impl Default for Broker {
    fn default() -> Self {
        Self::new()
    }
}

impl Broker {
    /// A broker with an [`IndexMatcher`], unbounded queues and no schema.
    pub fn new() -> Self {
        BrokerBuilder::default().build()
    }

    /// Start configuring a broker.
    pub fn builder() -> BrokerBuilder {
        BrokerBuilder::default()
    }

    /// The schema events and filters are validated against, if any.
    pub fn schema(&self) -> Option<&Schema> {
        self.schema.as_ref()
    }

    /// Register a new subscriber; returns its id and the handle used to
    /// receive events.
    pub fn register(&self) -> (SubscriberId, SubscriberHandle) {
        let id = SubscriberId(self.next_subscriber.fetch_add(1, Ordering::Relaxed));
        let (tx, rx) = match self.queue_capacity {
            Some(cap) => channel::bounded(cap),
            None => channel::unbounded(),
        };
        let evictor = match self.overflow {
            OverflowPolicy::DropOldest => Some(rx.clone()),
            _ => None,
        };
        let entry = SubscriberEntry {
            queue: QueueHandle {
                slot: Arc::new(QueueSlot {
                    endpoints: RwLock::new(Some(QueueEndpoints {
                        sender: tx,
                        evictor,
                    })),
                }),
            },
            subscriptions: HashSet::new(),
        };
        // Nothing routes to a subscriber without subscriptions, so the
        // published index is still current.
        self.inner.write().subscribers.insert(id, entry);
        (id, SubscriberHandle { id, receiver: rx })
    }

    /// Remove a subscriber and all of its subscriptions, in one index
    /// write and one snapshot swap. Returns how many subscriptions were
    /// removed.
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError::UnknownSubscriber`] if the id is not
    /// registered.
    pub fn deregister(&self, id: SubscriberId) -> Result<usize, BrokerError> {
        let mut inner = self.inner.write();
        let Some(entry) = inner.subscribers.remove(&id) else {
            return Err(BrokerError::UnknownSubscriber(id));
        };
        // Empty the shared slot now rather than waiting for published
        // snapshots to age out: dropping the sender disconnects the
        // channel, so a receiver parked on the queue wakes immediately.
        *entry.queue.slot.endpoints.write() = None;
        let mut freed = Vec::new();
        for sub in &entry.subscriptions {
            if let Some((_, Some(slot))) = inner.index.matcher.remove(*sub) {
                freed.push(InterestEdge::Last(slot));
            }
            inner.index.routes.remove(sub);
            self.stats.record_unsubscribe();
        }
        if !entry.subscriptions.is_empty() {
            self.swap_snapshot(&inner);
        }
        inner.report(&freed);
        Ok(entry.subscriptions.len())
    }

    /// Place a subscription on behalf of `subscriber`.
    ///
    /// The index keeps the `Arc` it is given, so a caller that files the
    /// same filter elsewhere (a federation's routing core) passes a clone
    /// of one `Arc` to both and the filter is stored once.
    ///
    /// # Errors
    ///
    /// * [`BrokerError::UnknownSubscriber`] if the subscriber is not
    ///   registered.
    /// * [`BrokerError::Schema`] if the broker has a schema and the filter
    ///   fails validation.
    pub fn subscribe(
        &self,
        subscriber: SubscriberId,
        filter: impl Into<Arc<Filter>>,
    ) -> Result<SubscriptionId, BrokerError> {
        let filter = filter.into();
        if let Some(schema) = &self.schema {
            schema.validate_filter(&filter)?;
        }
        let mut inner = self.inner.write();
        let Some(entry) = inner.subscribers.get_mut(&subscriber) else {
            return Err(BrokerError::UnknownSubscriber(subscriber));
        };
        let sub = SubscriptionId(self.next_subscription.fetch_add(1, Ordering::Relaxed));
        entry.subscriptions.insert(sub);
        let route = Route {
            owner: subscriber,
            queue: entry.queue.clone(),
        };
        let opened = inner.index.matcher.insert(sub, Arc::clone(&filter));
        inner.index.routes.insert(sub, route);
        self.stats.record_subscribe();
        self.swap_snapshot(&inner);
        if let Some(slot) = opened {
            inner.report(&[InterestEdge::First(slot, filter)]);
        }
        Ok(sub)
    }

    /// Remove a subscription, returning its filter.
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError::UnknownSubscription`] if the id does not
    /// exist.
    pub fn unsubscribe(&self, sub: SubscriptionId) -> Result<Arc<Filter>, BrokerError> {
        let mut inner = self.inner.write();
        let (filter, freed) = inner
            .index
            .matcher
            .remove(sub)
            .ok_or(BrokerError::UnknownSubscription(sub))?;
        if let Some(route) = inner.index.routes.remove(&sub) {
            if let Some(entry) = inner.subscribers.get_mut(&route.owner) {
                entry.subscriptions.remove(&sub);
            }
        }
        self.stats.record_unsubscribe();
        self.swap_snapshot(&inner);
        if let Some(slot) = freed {
            inner.report(&[InterestEdge::Last(slot)]);
        }
        Ok(filter)
    }

    /// Publish the master index as the next snapshot. Must be called with
    /// the master write lock held (`inner`), which serializes swaps.
    fn swap_snapshot(&self, inner: &BrokerInner) {
        let next = Arc::new(inner.index.clone());
        let previous = std::mem::replace(&mut *self.snapshot.write(), next);
        self.snapshot_swaps.fetch_add(1, Ordering::Relaxed);
        // Dropped here, outside the snapshot lock: if no publish still
        // holds it, this frees the nodes only it referenced.
        drop(previous);
    }

    /// Swap a snapshot that differs from the current one only in its
    /// notifier.
    fn swap_notifier(&self, notifier: Option<Arc<dyn DeliveryNotifier>>) {
        let mut inner = self.inner.write();
        inner.index.notifier = notifier;
        self.swap_snapshot(&inner);
    }

    /// Register an observer called (outside any broker lock) whenever a
    /// delivery lands on a subscriber queue. Replaces any previous
    /// notifier; pass this before wiring the broker into a
    /// readiness-driven transport.
    pub fn set_delivery_notifier(&self, notifier: Arc<dyn DeliveryNotifier>) {
        self.swap_notifier(Some(notifier));
    }

    /// Register the observer told, under the write lock, about every slot
    /// the index opens or frees from now on. The slots already open are
    /// reported to it at once, as first-owner edges. Replaces any previous
    /// observer.
    pub fn set_interest_observer(&self, observer: Arc<dyn InterestObserver>) {
        let mut inner = self.inner.write();
        let open: Vec<InterestEdge> = inner
            .index
            .matcher
            .slots()
            .map(|(slot, filter)| InterestEdge::First(slot, Arc::clone(filter)))
            .collect();
        inner.observer = Some(observer);
        inner.report(&open);
    }

    /// Remove the delivery observer, if one was registered.
    pub fn clear_delivery_notifier(&self) {
        self.swap_notifier(None);
    }

    /// Fire the delivery notifier for `subscriber` although nothing was
    /// queued, so a transport that also carries frames of its own (the
    /// daemon's auto-subscription notices) wakes whatever serves it.
    pub fn wake_subscriber(&self, subscriber: SubscriberId) {
        let snap = self.snapshot.read().clone();
        if let Some(notifier) = &snap.notifier {
            notifier.notify(subscriber);
        }
    }

    /// How many index snapshots have been published since the broker was
    /// built. Transports surface this as the matcher snapshot-swap gauge.
    pub fn snapshot_swaps(&self) -> u64 {
        self.snapshot_swaps.load(Ordering::Relaxed)
    }

    /// Publish an event: match it against all subscriptions and place a
    /// shared handle to it on each matching subscriber's queue (the event
    /// itself is stored once; see the module notes on zero-copy fan-out).
    ///
    /// # Errors
    ///
    /// [`BrokerError::Schema`] if the broker has a schema and the event
    /// fails validation.
    pub fn publish(&self, event: Event) -> Result<PublishOutcome, BrokerError> {
        if let Some(schema) = &self.schema {
            schema.validate_event(&event)?;
        }
        let id = EventId(self.next_event.fetch_add(1, Ordering::Relaxed));
        let published_at = self.clock.fetch_add(1, Ordering::Relaxed);
        self.stats.record_publish();
        Ok(self.publish_remote(PublishedEvent {
            id,
            published_at,
            event,
        }))
    }

    /// Deliver an event published at another broker: the same match and
    /// fan-out as [`Broker::publish`], keeping the origin's event id and
    /// timestamp, without schema validation or a publish count.
    pub fn publish_remote(&self, event: impl Into<Arc<PublishedEvent>>) -> PublishOutcome {
        let published = event.into();
        let (id, published_at) = (published.id, published.published_at);
        // Matching runs against the published snapshot — an immutable
        // `Arc` cloned out of a momentary read lock — so a publish storm
        // never contends with subscribe/unsubscribe churn on the master
        // write lock.
        let snap = self.snapshot.read().clone();
        let targets = snap.targets(&published.event);
        let notifier = &snap.notifier;
        let mut delivered = 0usize;
        let mut dropped = 0usize;
        // Each subscriber that received something, listed once for the
        // notifier: pushed per delivery, sorted and deduplicated once.
        let mut touched: Vec<SubscriberId> = Vec::new();
        // One subscriber may hold several matching subscriptions; deliver
        // one copy per matching *subscription*, as real brokers do (the
        // frontend can dedup if it wants to).
        for Route { owner, queue } in targets {
            match self.offer(queue, Arc::clone(&published)) {
                Offer::Delivered => delivered += 1,
                Offer::DeliveredEvicting => {
                    delivered += 1;
                    dropped += 1;
                }
                // Queue full, or the receiver handle dropped (an implicit
                // deregister).
                Offer::DroppedFull | Offer::DroppedGone => {
                    dropped += 1;
                    continue;
                }
            }
            if notifier.is_some() {
                touched.push(*owner);
            }
        }
        self.stats.record_delivery(delivered as u64);
        self.stats.record_drop(dropped as u64);
        Self::notify_all(notifier, touched);
        PublishOutcome {
            id,
            published_at,
            delivered,
            dropped,
        }
    }

    /// Fire the delivery notifier once for the whole publish, listing
    /// each subscriber that received something at most once. Batched so a
    /// shard-aware notifier can coalesce the wakeups per event loop.
    fn notify_all(notifier: &Option<Arc<dyn DeliveryNotifier>>, mut touched: Vec<SubscriberId>) {
        if let Some(notifier) = notifier {
            if !touched.is_empty() {
                touched.sort_unstable();
                touched.dedup();
                notifier.notify_batch(&touched);
            }
        }
    }

    /// Place an already-published event directly on the queue of the
    /// subscriber owning `sub`, bypassing matching.
    ///
    /// The event keeps its id and timestamp. Returns `true` if the event
    /// was queued, `false` if it was dropped (queue overflow or a vanished
    /// subscriber handle); drops are counted in the broker stats either
    /// way.
    ///
    /// # Errors
    ///
    /// [`BrokerError::UnknownSubscription`] if `sub` does not exist.
    ///
    /// Accepts either an owned [`PublishedEvent`] or an
    /// `Arc<PublishedEvent>`; a caller offering one event to several
    /// subscriptions passes clones of one `Arc`.
    pub fn deliver(
        &self,
        sub: SubscriptionId,
        event: impl Into<Arc<PublishedEvent>>,
    ) -> Result<bool, BrokerError> {
        // Resolve against the published snapshot, offer outside any lock
        // (see `publish` for why).
        let snap = self.snapshot.read().clone();
        let Route { owner, queue } = snap
            .routes
            .get(&sub)
            .ok_or(BrokerError::UnknownSubscription(sub))?;
        let owner = *owner;
        let notify = |_: &Broker| {
            if let Some(notifier) = &snap.notifier {
                notifier.notify(owner);
            }
        };
        match self.offer(queue, event.into()) {
            Offer::Delivered => {
                self.stats.record_delivery(1);
                notify(self);
                Ok(true)
            }
            Offer::DeliveredEvicting => {
                self.stats.record_delivery(1);
                self.stats.record_drop(1);
                notify(self);
                Ok(true)
            }
            Offer::DroppedFull | Offer::DroppedGone => {
                self.stats.record_drop(1);
                Ok(false)
            }
        }
    }

    /// Offer one event to one subscriber queue under the broker's
    /// overflow policy. Never waits: called without the broker lock held.
    fn offer(&self, queue: &QueueHandle, event: Arc<PublishedEvent>) -> Offer {
        // Send under the slot's read guard: deregister empties the slot
        // under its write lock, so it waits at most for a non-blocking
        // send.
        let endpoints = queue.slot.endpoints.read();
        let Some(QueueEndpoints { sender, evictor }) = endpoints.as_ref() else {
            return Offer::DroppedGone;
        };
        match sender.try_send(event) {
            Ok(()) => Offer::Delivered,
            Err(TrySendError::Full(event)) => match self.overflow {
                OverflowPolicy::DropAndCount => Offer::DroppedFull,
                OverflowPolicy::DropOldest => {
                    let evicted = evictor.as_ref().is_some_and(|rx| rx.try_recv().is_ok());
                    match sender.try_send(event) {
                        Ok(()) if evicted => Offer::DeliveredEvicting,
                        Ok(()) => Offer::Delivered,
                        Err(_) => Offer::DroppedFull,
                    }
                }
            },
            Err(TrySendError::Disconnected(_)) => Offer::DroppedGone,
        }
    }

    /// Start minting event ids from `base` instead of 0, provided no
    /// event has been published yet. Returns whether the rebase applied.
    ///
    /// Federation drivers use this to namespace event ids per broker
    /// (e.g. `broker_id << 32`), so events forwarded between daemons
    /// never collide on [`EventId`]. `published_at` timestamps remain
    /// each broker's private logical clock either way.
    pub fn namespace_event_ids(&self, base: u64) -> bool {
        self.next_event
            .compare_exchange(0, base, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    /// Number of live subscriptions.
    pub fn subscription_count(&self) -> usize {
        self.inner.read().index.matcher.len()
    }

    /// Number of registered subscribers.
    pub fn subscriber_count(&self) -> usize {
        self.inner.read().subscribers.len()
    }

    /// The filter of a live subscription.
    pub fn subscription_filter(&self, sub: SubscriptionId) -> Option<Filter> {
        self.inner.read().index.matcher.filter(sub).cloned()
    }

    /// Operation counters.
    pub fn stats(&self) -> BrokerStatsSnapshot {
        self.stats.snapshot()
    }
}

/// Configures and builds a [`Broker`].
#[derive(Default)]
pub struct BrokerBuilder {
    schema: Option<Schema>,
    queue_capacity: Option<usize>,
    overflow: OverflowPolicy,
}

impl fmt::Debug for BrokerBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BrokerBuilder")
            .field("schema", &self.schema.as_ref().map(Schema::name))
            .field("queue_capacity", &self.queue_capacity)
            .field("overflow", &self.overflow)
            .finish()
    }
}

impl BrokerBuilder {
    /// Validate events and filters against `schema`.
    pub fn schema(mut self, schema: Schema) -> Self {
        self.schema = Some(schema);
        self
    }

    /// Bound each subscriber's delivery queue to `capacity` events.
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = Some(capacity);
        self
    }

    /// Set the policy applied when a bounded queue overflows.
    pub fn overflow(mut self, policy: OverflowPolicy) -> Self {
        self.overflow = policy;
        self
    }

    /// Build the broker.
    pub fn build(self) -> Broker {
        Broker {
            inner: RwLock::new(BrokerInner {
                index: IndexSnapshot::default(),
                subscribers: HashMap::new(),
                observer: None,
            }),
            schema: self.schema,
            queue_capacity: self.queue_capacity,
            overflow: self.overflow,
            stats: BrokerStats::default(),
            snapshot: RwLock::new(Arc::new(IndexSnapshot::default())),
            snapshot_swaps: AtomicU64::new(0),
            next_subscriber: AtomicU64::new(0),
            next_subscription: AtomicU64::new(0),
            next_event: AtomicU64::new(0),
            clock: AtomicU64::new(0),
        }
    }
}

/// Receiving side of a subscriber's delivery queue.
///
/// Deliveries arrive as `Arc<PublishedEvent>` — shared handles onto the
/// single event stored at publish time. Consumers that need an owned
/// event can `Arc::try_unwrap` (free when this subscriber was the only
/// recipient) or deep-clone explicitly.
#[derive(Debug, Clone)]
pub struct SubscriberHandle {
    id: SubscriberId,
    receiver: Receiver<Arc<PublishedEvent>>,
}

impl SubscriberHandle {
    /// The subscriber this handle belongs to.
    pub fn id(&self) -> SubscriberId {
        self.id
    }

    /// Non-blocking receive of the next delivered event.
    pub fn try_recv(&self) -> Option<Arc<PublishedEvent>> {
        self.receiver.try_recv().ok()
    }

    /// Blocking receive with a deadline: waits up to `timeout` for the next
    /// delivered event.
    ///
    /// This is the drain hook used by networked delivery pumps (e.g.
    /// `reef-wire`'s per-connection writer threads), which need to park
    /// until traffic arrives instead of spinning on [`Self::try_recv`].
    /// Returns `None` on timeout or if the broker side of the queue is gone.
    pub fn recv_timeout(&self, timeout: std::time::Duration) -> Option<Arc<PublishedEvent>> {
        self.receiver.recv_timeout(timeout).ok()
    }

    /// Drain everything currently queued.
    pub fn drain(&self) -> Vec<Arc<PublishedEvent>> {
        let mut out = Vec::new();
        while let Ok(ev) = self.receiver.try_recv() {
            out.push(ev);
        }
        out
    }

    /// Number of events currently queued.
    pub fn pending(&self) -> usize {
        self.receiver.len()
    }
}

/// Convenience alias: a broker shared between threads.
pub type SharedBroker = Arc<Broker>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::Op;
    use crate::schema::stock_quote_schema;
    use std::time::Duration;

    #[test]
    fn publish_delivers_to_matching_subscriber_only() {
        let broker = Broker::new();
        let (a, ha) = broker.register();
        let (b, hb) = broker.register();
        broker.subscribe(a, Filter::topic("x")).unwrap();
        broker.subscribe(b, Filter::topic("y")).unwrap();
        let out = broker.publish(Event::topical("x", "m")).unwrap();
        assert_eq!(out.delivered, 1);
        assert_eq!(ha.drain().len(), 1);
        assert!(hb.drain().is_empty());
    }

    #[test]
    fn wake_subscriber_reaches_the_notifier_only_while_set() {
        #[derive(Default)]
        struct Woken(parking_lot::Mutex<Vec<SubscriberId>>);
        impl DeliveryNotifier for Woken {
            fn notify(&self, subscriber: SubscriberId) {
                self.0.lock().push(subscriber);
            }
        }
        let broker = Broker::new();
        let (a, _ha) = broker.register();
        broker.wake_subscriber(a);
        let woken = Arc::new(Woken::default());
        broker.set_delivery_notifier(Arc::clone(&woken) as Arc<dyn DeliveryNotifier>);
        broker.wake_subscriber(a);
        broker.clear_delivery_notifier();
        broker.wake_subscriber(a);
        assert_eq!(*woken.0.lock(), vec![a]);
    }

    #[test]
    fn event_ids_are_monotonic() {
        let broker = Broker::new();
        let a = broker.publish(Event::new()).unwrap().id;
        let b = broker.publish(Event::new()).unwrap().id;
        assert!(b > a);
    }

    #[test]
    fn unsubscribe_stops_delivery() {
        let broker = Broker::new();
        let (a, ha) = broker.register();
        let sub = broker.subscribe(a, Filter::topic("x")).unwrap();
        broker.publish(Event::topical("x", "1")).unwrap();
        broker.unsubscribe(sub).unwrap();
        broker.publish(Event::topical("x", "2")).unwrap();
        assert_eq!(ha.drain().len(), 1);
        assert!(matches!(
            broker.unsubscribe(sub),
            Err(BrokerError::UnknownSubscription(_))
        ));
    }

    #[test]
    fn deregister_removes_all_subscriptions() {
        let broker = Broker::new();
        let (a, _ha) = broker.register();
        broker.subscribe(a, Filter::topic("x")).unwrap();
        broker.subscribe(a, Filter::topic("y")).unwrap();
        assert_eq!(broker.deregister(a).unwrap(), 2);
        assert_eq!(broker.subscription_count(), 0);
        assert!(matches!(
            broker.subscribe(a, Filter::new()),
            Err(BrokerError::UnknownSubscriber(_))
        ));
    }

    #[test]
    fn one_copy_per_matching_subscription() {
        let broker = Broker::new();
        let (a, ha) = broker.register();
        broker.subscribe(a, Filter::topic("x")).unwrap();
        broker
            .subscribe(a, Filter::new().and("body", Op::Contains, "m"))
            .unwrap();
        let out = broker.publish(Event::topical("x", "m")).unwrap();
        assert_eq!(out.delivered, 2);
        assert_eq!(ha.drain().len(), 2);
    }

    #[test]
    fn schema_validation_on_publish_and_subscribe() {
        let broker = Broker::builder()
            .schema(stock_quote_schema(["ACME"]))
            .build();
        let (a, _h) = broker.register();
        assert!(broker
            .subscribe(a, Filter::new().and("symbol", Op::Eq, "ACME"))
            .is_ok());
        assert!(matches!(
            broker.subscribe(a, Filter::new().and("symbol", Op::Eq, "NOPE")),
            Err(BrokerError::Schema(_))
        ));
        let bad = Event::builder().attr("symbol", "ACME").build();
        assert!(matches!(broker.publish(bad), Err(BrokerError::Schema(_))));
    }

    #[test]
    fn bounded_queue_drops_and_counts() {
        let broker = Broker::builder().queue_capacity(2).build();
        let (a, ha) = broker.register();
        broker.subscribe(a, Filter::new()).unwrap();
        for _ in 0..5 {
            broker.publish(Event::new()).unwrap();
        }
        assert_eq!(ha.pending(), 2);
        let stats = broker.stats();
        assert_eq!(stats.deliveries, 2);
        assert_eq!(stats.drops, 3);
    }

    #[test]
    fn drop_oldest_policy_keeps_newest_events() {
        let broker = Broker::builder()
            .queue_capacity(2)
            .overflow(OverflowPolicy::DropOldest)
            .build();
        let (a, ha) = broker.register();
        broker.subscribe(a, Filter::new()).unwrap();
        for i in 0..5i64 {
            broker
                .publish(Event::builder().attr("i", i).build())
                .unwrap();
        }
        let got: Vec<i64> = ha
            .drain()
            .iter()
            .map(|e| e.event.get("i").unwrap().as_i64().unwrap())
            .collect();
        assert_eq!(got, vec![3, 4], "oldest events were evicted");
        let stats = broker.stats();
        assert_eq!(stats.deliveries, 5, "every publish was enqueued");
        assert_eq!(stats.drops, 3, "three evictions counted as drops");
    }

    #[test]
    fn deliver_bypasses_matching_and_keeps_event_identity() {
        let broker = Broker::new();
        let (a, ha) = broker.register();
        // The filter would never match this event; deliver ignores it.
        let sub = broker.subscribe(a, Filter::topic("nope")).unwrap();
        let remote = PublishedEvent {
            id: EventId(77),
            published_at: 123,
            event: Event::topical("t", "x"),
        };
        assert!(broker.deliver(sub, remote.clone()).unwrap());
        let got = ha.drain();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].id, EventId(77));
        assert_eq!(got[0].published_at, 123);
        assert!(matches!(
            broker.deliver(SubscriptionId(99), remote),
            Err(BrokerError::UnknownSubscription(_))
        ));
    }

    #[test]
    fn publish_outcome_reports_timestamp() {
        let broker = Broker::new();
        let a = broker.publish(Event::new()).unwrap();
        let b = broker.publish(Event::new()).unwrap();
        assert!(b.published_at > a.published_at);
    }

    #[test]
    fn overflow_policy_parses_cli_spellings() {
        assert_eq!(
            OverflowPolicy::parse("drop-new"),
            Some(OverflowPolicy::DropAndCount)
        );
        assert_eq!(
            OverflowPolicy::parse("drop-old"),
            Some(OverflowPolicy::DropOldest)
        );
        assert_eq!(OverflowPolicy::parse("yolo"), None);
    }

    #[test]
    fn dropped_handle_counts_as_drop() {
        let broker = Broker::new();
        let (a, ha) = broker.register();
        broker.subscribe(a, Filter::new()).unwrap();
        drop(ha);
        let out = broker.publish(Event::new()).unwrap();
        assert_eq!(out.delivered, 0);
        assert_eq!(out.dropped, 1);
    }

    #[test]
    fn concurrent_publishers() {
        let broker: SharedBroker = Arc::new(Broker::new());
        let (a, ha) = broker.register();
        broker.subscribe(a, Filter::new()).unwrap();
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let b = Arc::clone(&broker);
                std::thread::spawn(move || {
                    for i in 0..100 {
                        b.publish(Event::builder().attr("t", t).attr("i", i).build())
                            .unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(ha.drain().len(), 400);
        assert_eq!(broker.stats().events_published, 400);
    }

    #[test]
    fn a_published_snapshot_is_untouched_by_later_writes() {
        // The index is shared structurally between the master and every
        // snapshot; a publish that took its snapshot before a write must
        // keep seeing exactly what was subscribed then.
        let broker = Broker::new();
        let (a, ha) = broker.register();
        let subs: Vec<SubscriptionId> = (0..600i64)
            .map(|i| {
                broker
                    .subscribe(a, Filter::new().and("i", Op::Eq, i % 300))
                    .unwrap()
            })
            .collect();
        assert_eq!(broker.snapshot_swaps(), 600, "one swap per write");
        let before = broker.snapshot.read().clone();
        let event = |i: i64| Event::builder().attr("i", i).build();
        for sub in subs.iter().step_by(2) {
            broker.unsubscribe(*sub).unwrap();
        }
        let late = broker
            .subscribe(a, Filter::new().and("i", Op::Eq, 4i64))
            .unwrap();
        assert_eq!(broker.snapshot_swaps(), 901);
        for i in [4, 5, 299] {
            assert_eq!(
                before.targets(&event(i)).count(),
                2,
                "old snapshot, i = {i}"
            );
        }
        assert!(before.routes.get(&late).is_none());
        // Even-numbered subscriptions held even `i`: 4 lost both copies
        // and gained the late one, 5 kept both.
        assert_eq!(broker.publish(event(4)).unwrap().delivered, 1);
        assert_eq!(broker.publish(event(5)).unwrap().delivered, 2);
        assert_eq!(ha.drain().len(), 3);
    }

    #[test]
    fn deregister_retires_every_subscription_in_one_swap() {
        let broker = Broker::new();
        let (big, big_handle) = broker.register();
        let (other, other_handle) = broker.register();
        let (idle, _idle_handle) = broker.register();
        assert_eq!(broker.snapshot_swaps(), 0, "registering changes no index");
        // 3000 subscriptions over 1000 distinct filters, each of which
        // the other subscriber holds too.
        let mut held = Vec::new();
        for i in 0..3000i64 {
            held.push(
                broker
                    .subscribe(big, Filter::new().and("i", Op::Eq, i % 1000))
                    .unwrap(),
            );
        }
        for i in 0..1000i64 {
            broker
                .subscribe(other, Filter::new().and("i", Op::Eq, i))
                .unwrap();
        }
        broker.unsubscribe(held[0]).unwrap();
        let swaps = broker.snapshot_swaps();
        assert_eq!(broker.deregister(big).unwrap(), 2999);
        assert_eq!(broker.snapshot_swaps(), swaps + 1);
        assert_eq!(broker.subscription_count(), 1000);
        assert_eq!(broker.subscriber_count(), 2);
        assert_eq!(broker.stats().unsubscribes, 3000);
        assert!(big_handle.recv_timeout(Duration::from_millis(1)).is_none());
        for sub in [held[0], held[1], held[2999]] {
            assert!(matches!(
                broker.unsubscribe(sub),
                Err(BrokerError::UnknownSubscription(_))
            ));
            assert!(broker.subscription_filter(sub).is_none());
        }
        assert!(matches!(
            broker.deregister(big),
            Err(BrokerError::UnknownSubscriber(_))
        ));
        // The filters the two shared are still live for the survivor.
        let out = broker
            .publish(Event::builder().attr("i", 7i64).build())
            .unwrap();
        assert_eq!((out.delivered, out.dropped), (1, 0));
        assert_eq!(other_handle.drain().len(), 1);
        // A subscriber without subscriptions leaves the index alone.
        let swaps = broker.snapshot_swaps();
        assert_eq!(broker.deregister(idle).unwrap(), 0);
        assert_eq!(broker.snapshot_swaps(), swaps);
    }

    #[test]
    fn publish_storm_survives_subscription_churn() {
        // The acceptance property of the read-mostly index: a publish
        // storm concurrent with subscribe/unsubscribe churn never stalls
        // on the writers (matching takes no write lock) and every publish
        // still reaches the stable subscriber.
        let broker: SharedBroker = Arc::new(Broker::new());
        let (stable, handle) = broker.register();
        broker.subscribe(stable, Filter::topic("storm")).unwrap();
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let churners: Vec<_> = (0..2)
            .map(|_| {
                let b = Arc::clone(&broker);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let (churn, _h) = b.register();
                    while !stop.load(Ordering::Relaxed) {
                        let sub = b.subscribe(churn, Filter::topic("churn")).unwrap();
                        b.unsubscribe(sub).unwrap();
                    }
                })
            })
            .collect();
        const STORM: usize = 2000;
        for i in 0..STORM {
            let out = broker
                .publish(Event::topical("storm", &i.to_string()))
                .unwrap();
            assert_eq!(out.delivered, 1, "publish {i} missed the stable subscriber");
        }
        stop.store(true, Ordering::Relaxed);
        for t in churners {
            t.join().unwrap();
        }
        assert_eq!(handle.drain().len(), STORM);
        assert!(broker.snapshot_swaps() > 0, "churn published snapshots");
    }

    #[test]
    fn debug_impl_is_informative() {
        let broker = Broker::new();
        let s = format!("{broker:?}");
        assert!(s.contains("Broker"));
        assert!(s.contains("subscribers"));
    }
}
