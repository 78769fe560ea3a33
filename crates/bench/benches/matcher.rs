//! **B1** — the matching index against the naive scan.
//!
//! The standard content-based pub/sub scalability result (cf. Gryphon,
//! Siena): indexed matching stays near-flat as subscriptions grow while
//! the naive scan degrades linearly; `NaiveMatcher` is here as that
//! yardstick only. `quotes_50k` is the population of the ledger's
//! `selective` workload, so this bench reproduces the ledger's
//! `matcher.*` layer figures without a daemon.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reef_pubsub::{Event, Filter, IndexMatcher, MatchEngine, NaiveMatcher, Op, SubscriptionId};
use reef_simweb::zipf::Zipf;
use std::hint::black_box;
use std::time::Instant;

const ATTRS: [&str; 8] = [
    "alpha", "beta", "gamma", "delta", "eps", "zeta", "eta", "theta",
];

fn random_filter(rng: &mut StdRng) -> Filter {
    let mut f = Filter::new();
    for _ in 0..rng.gen_range(1..=3) {
        let attr = ATTRS[rng.gen_range(0..ATTRS.len())];
        let val = rng.gen_range(0..50i64);
        let op = match rng.gen_range(0..4) {
            0 => Op::Eq,
            1 => Op::Lt,
            2 => Op::Gt,
            _ => Op::Ne,
        };
        f = f.and(attr, op, val);
    }
    f
}

fn random_event(rng: &mut StdRng) -> Event {
    let mut e = Event::new();
    for _ in 0..rng.gen_range(2..=5) {
        e.set(
            ATTRS[rng.gen_range(0..ATTRS.len())],
            rng.gen_range(0..50i64),
        );
    }
    e
}

fn bench_matchers(c: &mut Criterion) {
    let mut group = c.benchmark_group("match_throughput");
    for &n_subs in &[100usize, 1_000, 10_000] {
        let mut rng = StdRng::seed_from_u64(42);
        let filters: Vec<Filter> = (0..n_subs).map(|_| random_filter(&mut rng)).collect();
        let events: Vec<Event> = (0..64).map(|_| random_event(&mut rng)).collect();

        let mut naive = NaiveMatcher::new();
        let mut index = IndexMatcher::new();
        for (i, f) in filters.iter().enumerate() {
            naive.insert(SubscriptionId(i as u64), f.clone());
            index.insert(SubscriptionId(i as u64), f.clone());
        }

        group.bench_with_input(BenchmarkId::new("naive", n_subs), &n_subs, |b, _| {
            let mut i = 0;
            b.iter(|| {
                i = (i + 1) % events.len();
                black_box(naive.matches(&events[i]))
            })
        });
        group.bench_with_input(BenchmarkId::new("index", n_subs), &n_subs, |b, _| {
            let mut i = 0;
            b.iter(|| {
                i = (i + 1) % events.len();
                black_box(index.matches(&events[i]))
            })
        });
    }
    group.finish();
}

fn bench_insert_remove(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(7);
    let filters: Vec<Filter> = (0..1000).map(|_| random_filter(&mut rng)).collect();
    c.bench_function("index_insert_remove_1k", |b| {
        b.iter(|| {
            let mut m = IndexMatcher::new();
            for (i, f) in filters.iter().enumerate() {
                m.insert(SubscriptionId(i as u64), f.clone());
            }
            for i in 0..filters.len() {
                m.remove(SubscriptionId(i as u64));
            }
            black_box(m.len())
        })
    });
}

const QUOTE_FILTERS: usize = 50_000;
const QUOTE_SYMBOLS: usize = 2_000;
const VENUES: [&str; 8] = [
    "nyse", "nysa", "arca", "bats", "iexg", "edgx", "nsdq", "nsdx",
];

/// One filter of the ledger's content population (`gen.rs`,
/// `content_filters`): an equality on a Zipf-chosen symbol joined with a
/// `px` band, a `px` floor, or a `venue` string operator and a `px`
/// ceiling.
fn quote_filter(symbols: &Zipf, rng: &mut StdRng) -> Filter {
    let symbol = format!("S{:04}", symbols.sample(rng));
    let base = Filter::new().and("sym", Op::Eq, symbol);
    let low = f64::from(rng.gen_range(0u32..900));
    match rng.gen_range(0u32..10) {
        0..=5 => {
            let width = f64::from(rng.gen_range(100u32..300));
            base.and("px", Op::Ge, low).and("px", Op::Lt, low + width)
        }
        6..=7 => base.and("px", Op::Gt, low),
        _ => {
            let venue = VENUES[rng.gen_range(0..VENUES.len())];
            let (op, operand) = match rng.gen_range(0u32..3) {
                0 => (Op::Prefix, &venue[..2]),
                1 => (Op::Suffix, &venue[2..]),
                _ => (Op::Contains, &venue[1..3]),
            };
            base.and("venue", op, operand)
                .and("px", Op::Lt, low + 100.0)
        }
    }
}

/// `count` filters, 30 % of them copies of one of the others, shuffled.
fn quote_filters(count: usize, rng: &mut StdRng) -> Vec<Filter> {
    let symbols = Zipf::new(QUOTE_SYMBOLS, 0.7);
    let distinct = count * 7 / 10;
    let mut filters: Vec<Filter> = (0..distinct).map(|_| quote_filter(&symbols, rng)).collect();
    for _ in distinct..count {
        let copy = filters[rng.gen_range(0..distinct)].clone();
        filters.push(copy);
    }
    for i in (1..filters.len()).rev() {
        filters.swap(i, rng.gen_range(0..=i));
    }
    filters
}

/// Quotes, every other one on a symbol no filter names.
fn quote_events(count: usize, rng: &mut StdRng) -> Vec<Event> {
    (0..count)
        .map(|n| {
            let prefix = if n % 2 == 0 { 'S' } else { 'X' };
            Event::builder()
                .attr(
                    "sym",
                    format!("{prefix}{:04}", rng.gen_range(0..QUOTE_SYMBOLS)),
                )
                .attr("px", f64::from(rng.gen_range(0u32..100_000)) / 100.0)
                .attr("venue", VENUES[rng.gen_range(0..VENUES.len())])
                .attr("seq", n as i64)
                .build()
        })
        .collect()
}

/// The ledger's `selective` population: match, insert, remove and clone,
/// plus the write the broker really pays — one made while a snapshot
/// taken just before still shares every table.
fn bench_quote_population(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(11);
    let filters = quote_filters(QUOTE_FILTERS, &mut rng);
    let events = quote_events(1_024, &mut rng);
    let extra = quote_filters(1_024, &mut rng);
    let mut naive = NaiveMatcher::new();
    let mut index = IndexMatcher::new();
    for (i, f) in filters.iter().enumerate() {
        naive.insert(SubscriptionId(i as u64), f.clone());
        index.insert(SubscriptionId(i as u64), f.clone());
    }
    let fresh = |n: u64| SubscriptionId(QUOTE_FILTERS as u64 + n);

    let mut group = c.benchmark_group("quotes_50k");
    group.bench_function("match/naive", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % events.len();
            black_box(naive.matches(&events[i]))
        })
    });
    group.bench_function("match/index", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % events.len();
            black_box(index.matches(&events[i]))
        })
    });
    group.bench_function("insert", |b| {
        b.iter_custom(|iters| {
            let batch: Vec<Filter> = extra.iter().cycle().take(iters as usize).cloned().collect();
            let start = Instant::now();
            for (n, filter) in batch.into_iter().enumerate() {
                index.insert(fresh(n as u64), filter);
            }
            let took = start.elapsed();
            for n in 0..iters {
                index.remove(fresh(n));
            }
            took
        })
    });
    group.bench_function("remove", |b| {
        b.iter_custom(|iters| {
            for (n, filter) in extra.iter().cycle().take(iters as usize).enumerate() {
                index.insert(fresh(n as u64), filter.clone());
            }
            let start = Instant::now();
            for n in 0..iters {
                black_box(index.remove(fresh(n)));
            }
            start.elapsed()
        })
    });
    group.bench_function("clone", |b| b.iter(|| black_box(index.clone())));
    group.bench_function("insert_remove_beside_a_snapshot", |b| {
        let mut n = 0;
        b.iter(|| {
            n = (n + 1) % extra.len();
            let before = index.clone();
            index.insert(fresh(0), extra[n].clone());
            let after = index.clone();
            index.remove(fresh(0));
            black_box((before, after))
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_matchers, bench_insert_remove, bench_quote_population
}
criterion_main!(benches);
