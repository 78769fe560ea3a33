//! What one subscription costs a running daemon, in live heap bytes and
//! live allocations, pinned.
//!
//! An in-process `BrokerServer` on the library defaults takes 10 000
//! content filters of the ledger's `selective` shape from one client over
//! the wire: an equality on `sym` over 2 000 symbols, joined with a `px`
//! range or floor or with a `venue` string operator, 30 % of them exact
//! duplicates. The growth of the process's live heap, divided by the
//! filter count, is what a subscription costs across every table that
//! files it: the connection's bookkeeping, the broker's index, and one
//! routing-core entry per distinct filter.
//!
//! The counting allocator is process-wide, so this file holds exactly one
//! test.

use reef_fuzz::alloc_track;
use reef_pubsub::{Filter, Op};
use reef_sim::SimRng;
use reef_wire::{BrokerServer, Client};

const FILTERS: usize = 10_000;
const SYMBOLS: usize = 2_000;
const DUPLICATE_SHARE: f64 = 0.3;
const VENUES: [&str; 8] = [
    "nyse", "nysa", "arca", "bats", "iexg", "edgx", "nsdq", "nsdx",
];

/// Ceilings per subscription: live heap bytes and live allocations, a
/// few percent above the measured 580 B and 9.4 allocations.
const MAX_BYTES: usize = 600;
const MAX_ALLOCATIONS: usize = 9;

fn content_filters(rng: &mut SimRng) -> Vec<Filter> {
    let distinct = (FILTERS as f64 * (1.0 - DUPLICATE_SHARE)).round() as usize;
    let mut filters: Vec<Filter> = (0..distinct)
        .map(|_| {
            let base = Filter::new().and("sym", Op::Eq, format!("S{:04}", rng.below(SYMBOLS)));
            let low = rng.below(900) as f64;
            match rng.below(10) {
                0..=5 => {
                    let width = rng.range(100, 299) as f64;
                    base.and("px", Op::Ge, low).and("px", Op::Lt, low + width)
                }
                6..=7 => base.and("px", Op::Gt, low),
                _ => {
                    let venue = VENUES[rng.below(VENUES.len())];
                    let (op, operand) = match rng.below(3) {
                        0 => (Op::Prefix, &venue[..2]),
                        1 => (Op::Suffix, &venue[2..]),
                        _ => (Op::Contains, &venue[1..3]),
                    };
                    base.and("venue", op, operand)
                        .and("px", Op::Lt, low + 100.0)
                }
            }
        })
        .collect();
    for _ in distinct..FILTERS {
        let copy = filters[rng.below(distinct)].clone();
        filters.push(copy);
    }
    // Spread the duplicates through the population.
    for i in (1..filters.len()).rev() {
        filters.swap(i, rng.below(i + 1));
    }
    filters
}

#[test]
fn a_subscription_costs_at_most_its_pinned_bytes_and_allocations() {
    let filters = content_filters(&mut SimRng::new(0x5E1E_C71F));
    let server = BrokerServer::bind("127.0.0.1:0").expect("bind");
    let client = Client::connect(server.local_addr()).expect("connect");
    // Warm the connection's buffers, then take the baseline.
    let warm = client.subscribe(filters[0].clone()).expect("subscribe");
    client.unsubscribe(warm).expect("unsubscribe");
    let (bytes_before, allocations_before) = (alloc_track::live(), alloc_track::live_allocations());
    for filter in &filters {
        client.subscribe(filter.clone()).expect("subscribe");
    }
    let bytes = alloc_track::live().saturating_sub(bytes_before) / FILTERS;
    let allocations = alloc_track::live_allocations().saturating_sub(allocations_before) / FILTERS;
    println!("{FILTERS} subscriptions: {bytes} live bytes and {allocations} live allocations each");
    assert!(
        bytes <= MAX_BYTES,
        "{bytes} live bytes per subscription, ceiling {MAX_BYTES}"
    );
    assert!(
        allocations <= MAX_ALLOCATIONS,
        "{allocations} live allocations per subscription, ceiling {MAX_ALLOCATIONS}"
    );
    drop(client);
    server.shutdown();
}
