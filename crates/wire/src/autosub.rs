//! The server-side automatic-subscription engine — the paper's headline
//! loop run inside the daemon.
//!
//! A client enrolls a user with [`Request::AutoSubscribe`]; from then on
//! the daemon mines that user's uploaded clicks (the same
//! `DurableClickStore` that serves `UploadClicks`) with a
//! [`reef_core::AutoSubEngine`] and installs the derived filters as
//! *real broker subscriptions owned by the enrolling connection* — the
//! user starts receiving matching events without ever sending a
//! `Subscribe`. Derivation is event-driven: an `UploadClicks` marks its
//! user dirty and wakes a background refresh thread, which re-derives
//! that user's enrolments at once. Decay needs no poll either — each
//! enrolment files the engine's next expiry on a deadline heap, and the
//! thread sleeps until the earliest one, so interests that stop being
//! reinforced are retired from the broker on time instead of
//! accumulating forever. Every installed/retired delta is pushed to the
//! owning connection as an unsolicited [`ServerFrame::FeedChanged`]
//! notice, and its shard is woken to send it.
//!
//! The module splits in two:
//!
//! * [`AutosubOptions`] — the public knob set, configured through
//!   [`crate::server::BrokerServerBuilder::autosub`] and the matching
//!   `reefd --autosub*` flags;
//! * `AutosubRuntime` — the crate-private engine registry:
//!   `handle_request` enrolls/unenrolls through it, the refresh thread
//!   drives it, and the event loop drains its pending `FeedChange`
//!   notices.
//!
//! [`Request::AutoSubscribe`]: crate::protocol::Request::AutoSubscribe
//! [`ServerFrame::FeedChanged`]: crate::protocol::ServerFrame::FeedChanged

use crate::protocol::{AutoSubEntry, AutoSubPolicy, AutoSubReceipt, FeedChange};
use crate::server::ServerCore;
use crate::stats::AutosubGauges;
use parking_lot::Mutex;
use reef_core::{AutoSubConfig, AutoSubEngine, DerivedFilter};
use reef_pubsub::{Clock, FilterKey, SubscriberId, SubscriptionId, SystemClock};
use reef_simweb::UserId;
use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
// The condvar pairs with a std mutex: the parking_lot shim has none.
use std::sync::{Arc, Condvar, Mutex as StdMutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Default bound on how late a due decay retirement may run.
const DEFAULT_REFRESH_INTERVAL: Duration = Duration::from_millis(1000);

/// Configuration of the daemon's automatic-subscription engine.
///
/// The library default is *enabled* with the engine defaults, so
/// embedded servers and tests get working auto-subscriptions out of the
/// box; the `reefd` binary keeps the feature behind an explicit
/// `--autosub` flag.
#[derive(Debug, Clone)]
pub struct AutosubOptions {
    enabled: bool,
    default_policy: AutoSubPolicy,
    refresh_interval: Duration,
    clock: Arc<dyn Clock>,
}

impl Default for AutosubOptions {
    fn default() -> Self {
        AutosubOptions {
            enabled: true,
            default_policy: AutoSubPolicy::default(),
            refresh_interval: DEFAULT_REFRESH_INTERVAL,
            clock: SystemClock::shared(),
        }
    }
}

impl AutosubOptions {
    /// Enable or disable the subsystem. When disabled, `AutoSubscribe`
    /// requests are refused with an error reply and no refresh thread is
    /// spawned.
    pub fn enabled(mut self, enabled: bool) -> Self {
        self.enabled = enabled;
        self
    }

    /// Policy applied to enrollments whose `AutoSubscribe` carried no
    /// explicit policy (recommender mode, filter cap, decay half-life,
    /// score floor).
    pub fn default_policy(mut self, policy: AutoSubPolicy) -> Self {
        self.default_policy = policy;
        self
    }

    /// The longest a due decay retirement may wait (default 1 s). Uploads
    /// derive immediately and decay deadlines wake the refresh thread on
    /// the clock, so with the default [`SystemClock`] this bound is
    /// rarely reached; it is how often the thread re-reads an injected
    /// clock that time was moved on without a wake.
    pub fn refresh_interval(mut self, interval: Duration) -> Self {
        self.refresh_interval = interval;
        self
    }

    /// Whether the subsystem is enabled.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The configured bound on decay lateness.
    pub fn interval(&self) -> Duration {
        self.refresh_interval
    }

    /// The policy applied to enrollments that carry none.
    pub fn policy(&self) -> &AutoSubPolicy {
        &self.default_policy
    }

    /// Clock the engine's decay math reads "now" from. Defaults to
    /// [`SystemClock`]; deterministic tests inject a
    /// [`reef_pubsub::ManualClock`] so interest decay is a pure function
    /// of the schedule driving it.
    pub fn clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }
}

/// One enrolled `(connection, user)` pair: the per-user engine plus the
/// broker subscription ids backing its currently-installed filters.
struct Enrollment {
    user: UserId,
    subscriber: SubscriberId,
    engine: AutoSubEngine,
    /// Derived filter → the broker subscription realizing it. The key
    /// holds the filter the broker and the routing core share.
    installed: HashMap<FilterKey, SubscriptionId>,
    /// Clock millisecond at which decay alone next retires one of the
    /// installed filters. Of this enrolment's entries on the deadline
    /// heap, only the one carrying this value is live.
    deadline: Option<u64>,
}

/// Every enrolment, and when each next needs a decay-only re-derive.
#[derive(Default)]
struct Registry {
    /// Enrolments by user, then by owning connection.
    users: HashMap<u32, HashMap<SubscriberId, Enrollment>>,
    /// `(deadline ms, user, connection)`, earliest on top. Entries are
    /// left behind when an enrolment moves its deadline or leaves; a
    /// popped entry counts only if it matches its enrolment's `deadline`.
    deadlines: BinaryHeap<Reverse<(u64, u32, SubscriberId)>>,
    /// Enrolments, and derived filters installed, across all users.
    enrolled: u64,
    active: u64,
}

impl Registry {
    fn get_mut(&mut self, user: u32, subscriber: SubscriberId) -> Option<&mut Enrollment> {
        self.users.get_mut(&user)?.get_mut(&subscriber)
    }

    fn insert(&mut self, enrollment: Enrollment) {
        self.enrolled += 1;
        self.active += enrollment.installed.len() as u64;
        let (user, subscriber) = (enrollment.user.0, enrollment.subscriber);
        self.schedule(user, subscriber, enrollment.deadline);
        self.users
            .entry(user)
            .or_default()
            .insert(subscriber, enrollment);
    }

    fn remove(&mut self, user: u32, subscriber: SubscriberId) -> Option<Enrollment> {
        let by_owner = self.users.get_mut(&user)?;
        let enrollment = by_owner.remove(&subscriber)?;
        if by_owner.is_empty() {
            self.users.remove(&user);
        }
        self.enrolled -= 1;
        self.active -= enrollment.installed.len() as u64;
        Some(enrollment)
    }

    /// File a new deadline. The heap is rebuilt from the live deadlines
    /// once dead entries outnumber them.
    fn schedule(&mut self, user: u32, subscriber: SubscriberId, deadline: Option<u64>) {
        let Some(deadline) = deadline else {
            return;
        };
        self.deadlines.push(Reverse((deadline, user, subscriber)));
        if self.deadlines.len() as u64 > 2 * self.enrolled + 64 {
            self.deadlines = self
                .users
                .iter()
                .flat_map(|(user, by_owner)| {
                    by_owner.iter().filter_map(|(subscriber, enrollment)| {
                        Some(Reverse((enrollment.deadline?, *user, *subscriber)))
                    })
                })
                .collect();
        }
    }

    /// Pop every live deadline at or before `now_ms`.
    fn pop_due(&mut self, now_ms: u64) -> Vec<(u32, SubscriberId)> {
        let mut due = Vec::new();
        while let Some(&Reverse((deadline, user, subscriber))) = self.deadlines.peek() {
            if deadline > now_ms {
                break;
            }
            self.deadlines.pop();
            if self
                .get_mut(user, subscriber)
                .is_some_and(|e| e.deadline == Some(deadline))
            {
                due.push((user, subscriber));
            }
        }
        due
    }

    /// The earliest deadline on the heap (`u64::MAX` when none).
    fn earliest(&self) -> u64 {
        self.deadlines.peek().map_or(u64::MAX, |Reverse(e)| e.0)
    }
}

/// What the refresh thread has been asked to do since it last looked.
#[derive(Default)]
struct Pending {
    /// Enrolments per user, counted before `enroll` observes and after an
    /// enrolment leaves the registry. An upload for a user absent here
    /// needs no mark: an enrolment starting later observes its clicks.
    enrolments: HashMap<UserId, usize>,
    /// Enrolled users whose clicks changed.
    dirty: HashSet<UserId>,
    /// Re-check the deadlines or the shutdown flag.
    woken: bool,
}

/// The shared registry of enrollments, driven by request handlers, the
/// refresh thread and connection teardown.
pub(crate) struct AutosubRuntime {
    options: AutosubOptions,
    state: Mutex<Registry>,
    /// `FeedChange` notices queued per connection, drained by the event
    /// loop.
    notices: Mutex<HashMap<SubscriberId, Vec<FeedChange>>>,
    /// Work for the refresh thread, signalled through `wake`.
    pending: StdMutex<Pending>,
    wake: Condvar,
    /// `Registry::earliest`, readable without the registry lock: how long
    /// the refresh thread may sleep. A hint only (`Relaxed`): whoever
    /// moves it closer also calls `wake`, whose `pending` lock orders it.
    next_deadline: AtomicU64,
    derived_total: AtomicU64,
    retired_total: AtomicU64,
    last_refresh_us: AtomicU64,
    /// Engine observes run so far: what a pass costs, in the count tests
    /// pin.
    pub(crate) observes: AtomicU64,
}

impl std::fmt::Debug for AutosubRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AutosubRuntime")
            .field("enabled", &self.options.enabled)
            .field("enrollments", &self.state.lock().enrolled)
            .finish()
    }
}

/// Map a wire policy onto the engine configuration it asks for.
fn config_of(policy: &AutoSubPolicy) -> AutoSubConfig {
    AutoSubConfig {
        mode: policy.recommender,
        max_filters: policy.max_filters as usize,
        half_life_secs: policy.half_life_secs,
        min_score: policy.min_score,
        ..AutoSubConfig::default()
    }
}

fn entry_of(derived: &DerivedFilter) -> AutoSubEntry {
    AutoSubEntry {
        filter: derived.filter.clone(),
        reason: derived.reason.clone(),
        score: derived.score,
    }
}

/// The engine's "now" for a clock reading.
fn secs_of(ms: u64) -> f64 {
    ms as f64 / 1000.0
}

/// The first clock millisecond whose reading is at or past `secs`.
fn deadline_ms(secs: f64) -> u64 {
    let mut ms = (secs * 1000.0).ceil() as u64;
    while secs_of(ms) < secs && ms < u64::MAX {
        ms += 1;
    }
    ms
}

impl AutosubRuntime {
    pub(crate) fn new(options: AutosubOptions) -> AutosubRuntime {
        AutosubRuntime {
            options,
            state: Mutex::new(Registry::default()),
            notices: Mutex::new(HashMap::new()),
            pending: StdMutex::new(Pending::default()),
            wake: Condvar::new(),
            next_deadline: AtomicU64::new(u64::MAX),
            derived_total: AtomicU64::new(0),
            retired_total: AtomicU64::new(0),
            last_refresh_us: AtomicU64::new(0),
            observes: AtomicU64::new(0),
        }
    }

    pub(crate) fn enabled(&self) -> bool {
        self.options.enabled
    }

    /// Every update of `Pending` leaves it valid, so a panic elsewhere
    /// while it was held loses nothing; shutdown (in `Drop`) must not
    /// panic on it either.
    fn pending(&self) -> MutexGuard<'_, Pending> {
        self.pending.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enroll `user` on behalf of `subscriber`'s connection, observing
    /// the already-uploaded click history immediately so the receipt
    /// reflects what the engine derives right now. Re-enrolling replaces
    /// the previous enrollment (its installed filters are retired first,
    /// then re-derived from scratch under the new policy).
    pub(crate) fn enroll(
        &self,
        core: &ServerCore,
        subscriber: SubscriberId,
        user: UserId,
        policy: Option<AutoSubPolicy>,
    ) -> Result<AutoSubReceipt, String> {
        if !self.options.enabled {
            return Err("automatic subscriptions are disabled on this daemon".into());
        }
        let policy = policy.unwrap_or_else(|| self.options.default_policy.clone());
        *self.pending().enrolments.entry(user).or_default() += 1;
        let mut state = self.state.lock();
        let _ = self.leave(core, &mut state, user, subscriber);
        let mut enrollment = Enrollment {
            user,
            subscriber,
            engine: AutoSubEngine::new(user, config_of(&policy)),
            installed: HashMap::new(),
            deadline: None,
        };
        // The receipt itself carries the initial state, so enrollment
        // queues no FeedChange notice.
        let _ = self.observe(core, &mut enrollment, self.options.clock.now_ms());
        let entries: Vec<AutoSubEntry> = enrollment.engine.active().iter().map(entry_of).collect();
        state.insert(enrollment);
        let earliest = state.earliest();
        let sooner = earliest < self.next_deadline.swap(earliest, Ordering::Relaxed);
        let gauges = (state.enrolled, state.active);
        drop(state);
        // A deadline sooner than the refresh thread's sleep shortens it.
        if sooner {
            self.wake();
        }
        self.record_gauges(core, gauges);
        Ok(AutoSubReceipt { user, entries })
    }

    /// Drop `user`'s enrollment on `subscriber`'s connection, retiring
    /// every engine-installed subscription from the broker. Idempotent:
    /// unenrolling an unknown user answers with an empty receipt.
    pub(crate) fn unenroll(
        &self,
        core: &ServerCore,
        subscriber: SubscriberId,
        user: UserId,
    ) -> Result<AutoSubReceipt, String> {
        if !self.options.enabled {
            return Err("automatic subscriptions are disabled on this daemon".into());
        }
        let mut state = self.state.lock();
        let entries = self
            .leave(core, &mut state, user, subscriber)
            .unwrap_or_default();
        let gauges = (state.enrolled, state.active);
        drop(state);
        self.record_gauges(core, gauges);
        Ok(AutoSubReceipt { user, entries })
    }

    /// Connection teardown: drop every enrollment owned by `subscriber`
    /// and its undelivered notices. Runs before the broker subscriber is
    /// deregistered, so the routing core sees a withdrawal for each
    /// engine-installed subscription just like manually-placed ones.
    pub(crate) fn drop_subscriber(&self, core: &ServerCore, subscriber: SubscriberId) {
        self.notices.lock().remove(&subscriber);
        let mut state = self.state.lock();
        let users: Vec<u32> = state
            .users
            .iter()
            .filter(|(_, by_owner)| by_owner.contains_key(&subscriber))
            .map(|(user, _)| *user)
            .collect();
        if users.is_empty() {
            return;
        }
        for user in users {
            let _ = self.leave(core, &mut state, UserId(user), subscriber);
        }
        let gauges = (state.enrolled, state.active);
        drop(state);
        self.record_gauges(core, gauges);
    }

    /// An upload for `user` was stored: its enrolments re-derive on the
    /// refresh thread's next pass, which this wakes.
    pub(crate) fn clicks_changed(&self, user: UserId) {
        if !self.options.enabled {
            return;
        }
        let mut pending = self.pending();
        if !pending.enrolments.contains_key(&user) {
            return;
        }
        if pending.dirty.insert(user) && pending.dirty.len() == 1 {
            self.wake.notify_one();
        }
    }

    /// Wake the refresh thread: a deadline moved closer, or shutdown.
    pub(crate) fn wake(&self) {
        self.pending().woken = true;
        self.wake.notify_one();
    }

    /// The refresh thread's sleep: until an upload or [`Self::wake`], the
    /// earliest deadline, or `refresh_interval`, whichever comes first.
    /// The interval bound lets an injected clock that jumps past a
    /// deadline be noticed without a wake.
    pub(crate) fn wait_for_work(&self) {
        let mut pending = self.pending();
        if std::mem::take(&mut pending.woken) || !pending.dirty.is_empty() {
            return;
        }
        let now = self.options.clock.now_ms();
        let deadline = self.next_deadline.load(Ordering::Relaxed);
        if deadline <= now {
            return;
        }
        let timeout = self
            .options
            .refresh_interval
            .min(Duration::from_millis(deadline - now));
        let (mut pending, _) = self
            .wake
            .wait_timeout(pending, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        pending.woken = false;
    }

    /// One refresh pass: re-observe the enrolments of users whose clicks
    /// changed and those whose decay deadline has passed, install/retire
    /// broker subscriptions, queue `FeedChange` notices and wake the
    /// shards owning them. A pass with nothing due costs a heap peek.
    pub(crate) fn refresh(&self, core: &ServerCore) {
        if !self.options.enabled {
            return;
        }
        // Marks are taken before the registry lock: an upload racing an
        // enrolment is seen either by `enroll`'s own observe or by the
        // pass after this one. Marks of users whose enrolments left drop.
        let dirty = std::mem::take(&mut self.pending().dirty);
        let started = Instant::now();
        let now_ms = self.options.clock.now_ms();
        let mut state = self.state.lock();
        let mut due = state.pop_due(now_ms);
        for user in dirty {
            if let Some(by_owner) = state.users.get(&user.0) {
                due.extend(by_owner.keys().map(|subscriber| (user.0, *subscriber)));
            }
        }
        if due.is_empty() {
            self.next_deadline
                .store(state.earliest(), Ordering::Relaxed);
            return;
        }
        due.sort_unstable();
        due.dedup();
        let mut changes: Vec<(SubscriberId, FeedChange)> = Vec::new();
        for (user, subscriber) in due {
            let Some(enrollment) = state.get_mut(user, subscriber) else {
                continue;
            };
            let (before, deadline) = (enrollment.installed.len(), enrollment.deadline);
            let change = self.observe(core, enrollment, now_ms);
            let after = enrollment.installed.len();
            let moved = (enrollment.deadline != deadline).then_some(enrollment.deadline);
            state.active = state.active + after as u64 - before as u64;
            if let Some(deadline) = moved {
                state.schedule(user, subscriber, deadline);
            }
            if let Some(change) = change {
                changes.push((subscriber, change));
            }
        }
        self.next_deadline
            .store(state.earliest(), Ordering::Relaxed);
        let gauges = (state.enrolled, state.active);
        drop(state);
        let owners: Vec<SubscriberId> = changes.iter().map(|(owner, _)| *owner).collect();
        if !changes.is_empty() {
            let mut notices = self.notices.lock();
            for (owner, change) in changes {
                notices.entry(owner).or_default().push(change);
            }
        }
        // Without a wake the notices would wait for a quiet shard's park
        // timeout.
        for owner in owners {
            core.broker.wake_subscriber(owner);
        }
        self.last_refresh_us
            .store(started.elapsed().as_micros() as u64, Ordering::Relaxed);
        self.record_gauges(core, gauges);
    }

    /// Drain the queued `FeedChange` notices for one connection (called
    /// from the event loop).
    pub(crate) fn take_notices(&self, subscriber: SubscriberId) -> Vec<FeedChange> {
        self.notices.lock().remove(&subscriber).unwrap_or_default()
    }

    /// Cheap emptiness probe so the epoll loop skips the per-connection
    /// drain on quiet iterations.
    #[cfg(target_os = "linux")]
    pub(crate) fn has_notices(&self) -> bool {
        !self.notices.lock().is_empty()
    }

    /// Re-derive one enrolment at clock `now_ms`: observe its user's
    /// clicks, apply the diff to the broker and recompute its deadline.
    fn observe(
        &self,
        core: &ServerCore,
        enrollment: &mut Enrollment,
        now_ms: u64,
    ) -> Option<FeedChange> {
        self.observes.fetch_add(1, Ordering::Relaxed);
        let diff = {
            let clicks = core.clicks.lock();
            enrollment
                .engine
                .observe(clicks.clicks_of(enrollment.user), secs_of(now_ms))
        };
        let change = self.apply_diff(core, enrollment, &diff);
        enrollment.deadline = enrollment.engine.next_expiry().map(deadline_ms);
        change
    }

    /// Install `diff.installed` as broker subscriptions and retire
    /// `diff.retired` from the broker, returning the notice describing
    /// what actually changed (None when nothing did).
    fn apply_diff(
        &self,
        core: &ServerCore,
        enrollment: &mut Enrollment,
        diff: &reef_core::AutoSubDiff,
    ) -> Option<FeedChange> {
        if diff.is_empty() {
            return None;
        }
        let mut installed = Vec::new();
        for derived in &diff.installed {
            // One copy of the filter for the broker (and through it the
            // routing core) and this registry.
            let filter = Arc::new(derived.filter.clone());
            match core
                .broker
                .subscribe(enrollment.subscriber, Arc::clone(&filter))
            {
                Ok(id) => {
                    enrollment.installed.insert(FilterKey::new(filter), id);
                    self.derived_total.fetch_add(1, Ordering::Relaxed);
                    installed.push(entry_of(derived));
                }
                Err(_) => {
                    // The subscriber is gone (connection raced away) or
                    // the broker refused the filter: count it, and keep
                    // the engine in step with the registry so the next
                    // observe offers the filter again.
                    enrollment.engine.uninstall(&derived.filter);
                    core.stats.record_error();
                }
            }
        }
        let mut retired = Vec::new();
        for derived in &diff.retired {
            if let Some(id) = enrollment.installed.remove(&FilterKey::of(&derived.filter)) {
                let _ = core.broker.unsubscribe(id);
                self.retired_total.fetch_add(1, Ordering::Relaxed);
                retired.push(entry_of(derived));
            }
        }
        if installed.is_empty() && retired.is_empty() {
            None
        } else {
            Some(FeedChange {
                user: enrollment.user,
                installed,
                retired,
            })
        }
    }

    /// Take one enrollment out of the registry and retire every installed
    /// subscription of it, reporting what was active (strongest first,
    /// the engine's ordering). `None` when there was no such enrollment.
    fn leave(
        &self,
        core: &ServerCore,
        state: &mut Registry,
        user: UserId,
        subscriber: SubscriberId,
    ) -> Option<Vec<AutoSubEntry>> {
        let mut enrollment = state.remove(user.0, subscriber)?;
        let entries: Vec<AutoSubEntry> = enrollment
            .engine
            .retire_all()
            .iter()
            .map(entry_of)
            .collect();
        for (_, id) in enrollment.installed.drain() {
            let _ = core.broker.unsubscribe(id);
            self.retired_total.fetch_add(1, Ordering::Relaxed);
        }
        let mut pending = self.pending();
        if let Entry::Occupied(mut count) = pending.enrolments.entry(user) {
            *count.get_mut() -= 1;
            if *count.get() == 0 {
                count.remove();
            }
        }
        Some(entries)
    }

    /// Publish the gauges; `(enrolments, installed filters)` come from the
    /// registry.
    fn record_gauges(&self, core: &ServerCore, (users, active): (u64, u64)) {
        core.stats.record_autosub(&AutosubGauges {
            users,
            active,
            derived: self.derived_total.load(Ordering::Relaxed),
            retired: self.retired_total.load(Ordering::Relaxed),
            last_refresh_us: self.last_refresh_us.load(Ordering::Relaxed),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Request, Response};
    use crate::server::Connection;
    use reef_attention::{Click, ClickBatch};
    use reef_pubsub::{AttrSpec, Broker, ManualClock, Schema, ValueType, TOPIC_ATTR};

    /// `clicks` clicks of `user` on `host`'s articles.
    fn batch(user: u32, host: &str, clicks: u64) -> ClickBatch {
        ClickBatch {
            user: UserId(user),
            clicks: (0..clicks)
                .map(|tick| Click {
                    user: UserId(user),
                    day: 1,
                    tick,
                    url: format!("http://{host}/article-{tick}"),
                    referrer: None,
                })
                .collect(),
        }
    }

    /// Upload through the request path, as a connection would.
    fn upload(core: &ServerCore, conn: &Connection, batch: ClickBatch) {
        let reply = core.handle_request(
            conn,
            &mut Default::default(),
            Request::UploadClicks { batch },
            0,
        );
        assert!(
            matches!(reply, Response::ClicksAccepted { .. }),
            "{reply:?}"
        );
    }

    fn observes(core: &ServerCore) -> u64 {
        core.autosub.observes.load(Ordering::Relaxed)
    }

    /// The pinned cost of a pass, in engine observes: nothing when
    /// nothing is due, one per enrolment of an uploading user, one per
    /// enrolment whose deadline passed — never one per enrolled user.
    #[test]
    fn a_pass_observes_only_dirty_and_due_enrolments() {
        let clock = Arc::new(ManualClock::new());
        let core = ServerCore::detached(
            Arc::new(Broker::new()),
            AutosubOptions::default().clock(Arc::clone(&clock) as Arc<dyn Clock>),
        );
        let (reader, _reader_queue) = core.broker.register();
        let (second, _second_queue) = core.broker.register();
        let conn = Connection::new("127.0.0.1:1".parse().unwrap(), reader, 0);
        // 200 users; every third sits exactly on the install threshold
        // (2 clicks, min score 2) and expires on the next millisecond.
        for user in 0..200 {
            upload(
                &core,
                &conn,
                batch(user, "news.example", 2 + u64::from(user % 3)),
            );
            core.autosub
                .enroll(&core, reader, UserId(user), None)
                .unwrap();
        }
        core.autosub.enroll(&core, second, UserId(7), None).unwrap();
        // History uploaded before its user enrolled marks nothing: the
        // enrolment observed it.
        let enrolled = observes(&core);
        assert_eq!(enrolled, 201);

        for _ in 0..20 {
            core.autosub.refresh(&core);
        }
        assert_eq!(observes(&core), enrolled, "idle passes observe nothing");

        // User 7 holds two enrolments: one upload, two observes, and a
        // notice for each owner.
        upload(&core, &conn, batch(7, "sport.example", 4));
        core.autosub.refresh(&core);
        assert_eq!(observes(&core), enrolled + 2);
        for owner in [reader, second] {
            let notices = core.autosub.take_notices(owner);
            assert_eq!(notices.len(), 1, "{notices:?}");
            assert_eq!(notices[0].installed.len(), 1, "{notices:?}");
        }
        core.autosub.refresh(&core);
        assert_eq!(observes(&core), enrolled + 2, "the mark is consumed");

        // An upload for a user with no enrolment derives nothing.
        upload(&core, &conn, batch(500, "news.example", 5));
        core.autosub.refresh(&core);
        assert_eq!(observes(&core), enrolled + 2);

        // The threshold-sitting enrolments are due a millisecond later,
        // and only they re-derive.
        clock.set(1);
        core.autosub.refresh(&core);
        assert_eq!(observes(&core), enrolled + 2 + 67);
        let retired = core.autosub.take_notices(reader);
        assert_eq!(retired.len(), 67);
        assert!(retired
            .iter()
            .all(|c| c.retired.len() == 1 && c.installed.is_empty()));
        let stats = core.stats.snapshot();
        assert_eq!(stats.autosub_users, 201, "{stats:?}");
        assert_eq!(stats.autosub_active, 200 - 67 + 2 + 1, "{stats:?}");
        for _ in 0..20 {
            core.autosub.refresh(&core);
        }
        assert_eq!(observes(&core), enrolled + 2 + 67);
    }

    /// A filter the broker refuses is not left counted as installed in
    /// the engine: the next observe offers it again.
    #[test]
    fn a_refused_filter_is_offered_again() {
        let schema = Schema::builder("feeds")
            .attr(
                TOPIC_ATTR,
                AttrSpec::of(ValueType::Str).with_domain(["http://other.example/feed.xml"]),
            )
            .build();
        let core = ServerCore::detached(
            Arc::new(Broker::builder().schema(schema).build()),
            AutosubOptions::default(),
        );
        let (reader, _queue) = core.broker.register();
        let conn = Connection::new("127.0.0.1:1".parse().unwrap(), reader, 0);
        upload(&core, &conn, batch(3, "news.example", 5));
        let receipt = core.autosub.enroll(&core, reader, UserId(3), None).unwrap();
        assert!(receipt.entries.is_empty(), "{receipt:?}");
        assert_eq!(core.stats.snapshot().errors, 1);

        upload(&core, &conn, batch(3, "news.example", 1));
        core.autosub.refresh(&core);
        assert_eq!(core.stats.snapshot().errors, 2, "offered again");
        assert!(core.autosub.take_notices(reader).is_empty());
        assert_eq!(core.stats.snapshot().autosub_active, 0);
    }
}
