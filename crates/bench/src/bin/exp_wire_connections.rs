//! Connection-scaling experiment: publish-to-deliver latency with tens of
//! thousands of live subscribers on the sharded epoll loops.
//!
//! The daemon runs in a child process (this binary re-executed with
//! `--serve N`) so each side gets its own file-descriptor budget: one
//! descriptor per connection on the server (the loop owns the socket
//! outright), one per raw subscriber socket here. Subscribers handshake
//! over the v2 binary codec and then just read; a pool of reader threads
//! stamps every `Deliver` frame as it lands, giving the publish-to-deliver
//! distribution of a full fan-out.
//!
//! Two phases run back to back:
//!
//! 1. **baseline** — one event loop, `REEF_WIRE_BASELINE` (default 1000)
//!    subscribers: the pre-sharding configuration.
//! 2. **sharded** — `REEF_WIRE_LOOPS` loops (default `max(4, cores)`),
//!    `REEF_WIRE_CONNS` subscribers (default 10000).
//!
//! The headline comparison is per-subscriber p95 (p95 divided by the
//! subscriber count): sharding holds the per-subscriber cost at 10k
//! connections to no worse than the single loop pays at 1k.
//!
//! Knobs: `REEF_WIRE_CONNS`, `REEF_WIRE_LOOPS`, `REEF_WIRE_ROUNDS`
//! (default 20), `REEF_WIRE_BASELINE`, `REEF_WIRE_READERS` (default 8).
//! Writes `results/BENCH_wire.json`.

use reef_bench::{emit_json, print_table, Row};
use reef_pubsub::{Event, Filter};
use reef_wire::{BrokerServer, Client, ClientFrame, CodecKind, Frame, Request};
use serde::Serialize;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}

/// One measured configuration.
#[derive(Debug, Serialize)]
struct PhaseResult {
    phase: String,
    loop_threads: usize,
    connections: usize,
    rounds: usize,
    setup_ms: f64,
    deliveries: u64,
    mean_us: f64,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
    /// p95 divided by the subscriber count — the scale-free number the
    /// two phases are compared on.
    per_sub_p95_ns: f64,
}

#[derive(Debug, Serialize)]
struct WireScaleResult {
    baseline: PhaseResult,
    sharded: PhaseResult,
    /// sharded per-subscriber p95 over baseline per-subscriber p95;
    /// <= 1.0 means sharding holds the line at scale.
    p95_per_sub_ratio: f64,
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[((sorted.len() - 1) as f64 * p).round() as usize]
}

/// Child-process mode: run the daemon, print the bound port, hold until
/// the parent closes our stdin.
fn serve(loop_threads: usize) {
    let server = BrokerServer::builder()
        .loop_threads(loop_threads)
        .bind("127.0.0.1:0")
        .expect("bind daemon");
    println!("PORT {}", server.local_addr().port());
    std::io::stdout().flush().expect("flush port line");
    let mut sink = String::new();
    let _ = std::io::stdin().read_to_string(&mut sink);
    server.shutdown();
}

fn spawn_server(loop_threads: usize) -> (Child, SocketAddr) {
    let exe = std::env::current_exe().expect("current exe");
    let mut child = Command::new(exe)
        .args(["--serve", &loop_threads.to_string()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn daemon process");
    let stdout = child.stdout.take().expect("daemon stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read port line");
    let port: u16 = line
        .trim()
        .strip_prefix("PORT ")
        .and_then(|p| p.parse().ok())
        .expect("daemon announced its port");
    (child, SocketAddr::from(([127, 0, 0, 1], port)))
}

/// Connect one raw subscriber: v2-binary handshake, subscribe to the
/// bench topic, hand back the read half. Connects are retried briefly so
/// a momentarily full accept backlog doesn't kill a 10k-socket ramp-up.
fn connect_subscriber(addr: SocketAddr, name: &str) -> BufReader<TcpStream> {
    let codec = CodecKind::Binary.codec();
    let mut attempts = 0;
    let mut stream = loop {
        match TcpStream::connect(addr) {
            Ok(stream) => break stream,
            Err(err) => {
                attempts += 1;
                assert!(attempts < 50, "connect {name}: {err}");
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    };
    stream.set_nodelay(true).expect("nodelay");
    for (corr, request) in [
        (
            1,
            Request::Hello {
                version: 2,
                client: name.to_string(),
            },
        ),
        (
            2,
            Request::Subscribe {
                filter: Filter::topic("bench"),
            },
        ),
    ] {
        codec
            .encode_client(&ClientFrame { corr, request })
            .expect("encode")
            .write_to(&mut stream)
            .expect("handshake write");
        Frame::read_from(&mut stream)
            .expect("handshake read")
            .expect("handshake reply");
    }
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    // Small read buffers: 10k sockets at BufReader's 8 KiB default is
    // 80 MB of cold buffer memory, which turns the client side into a
    // cache benchmark instead of a wire benchmark.
    BufReader::with_capacity(512, stream)
}

/// Bring up a daemon with `loop_threads` loops, attach `connections`
/// subscribers, run `rounds` publishes and return the latency
/// distribution.
fn run_phase(phase: &str, loop_threads: usize, connections: usize, rounds: usize) -> PhaseResult {
    let readers = env_usize("REEF_WIRE_READERS", 8).min(connections);
    let (mut daemon, addr) = spawn_server(loop_threads);
    eprintln!(
        "[{phase}] daemon up on {addr} with {loop_threads} loop(s); \
         connecting {connections} subscribers with {readers} threads"
    );

    let setup_started = Instant::now();
    // Reader threads own their slice of sockets end to end: they connect
    // them (spreading the ramp-up), then stamp every delivery.
    let start = Arc::new(Barrier::new(readers + 1));
    let done = Arc::new(Barrier::new(readers + 1));
    let t0 = Arc::new(Mutex::new(Instant::now()));
    let mut slice_sizes = vec![connections / readers; readers];
    for extra in slice_sizes.iter_mut().take(connections % readers) {
        *extra += 1;
    }
    let threads: Vec<std::thread::JoinHandle<Vec<u64>>> = slice_sizes
        .iter()
        .enumerate()
        .map(|(reader_id, &slice)| {
            let start = Arc::clone(&start);
            let done = Arc::clone(&done);
            let t0 = Arc::clone(&t0);
            std::thread::spawn(move || {
                let mut sockets: Vec<BufReader<TcpStream>> = (0..slice)
                    .map(|i| connect_subscriber(addr, &format!("sub-{reader_id}-{i}")))
                    .collect();
                let mut latencies = Vec::with_capacity(slice * rounds);
                start.wait(); // sockets ready
                for _ in 0..rounds {
                    start.wait(); // round open: t0 is set, publish follows
                    for socket in sockets.iter_mut() {
                        Frame::read_from(socket).expect("read").expect("deliver");
                        let elapsed = t0.lock().expect("t0").elapsed();
                        latencies.push(elapsed.as_micros() as u64);
                    }
                    done.wait(); // every socket drained
                }
                latencies
            })
        })
        .collect();

    start.wait(); // all subscribers connected
    let setup_ms = setup_started.elapsed().as_secs_f64() * 1e3;
    let publisher = Client::connect_as(addr, "wire-scale-publisher").expect("connect publisher");
    for round in 0..rounds {
        *t0.lock().expect("t0") = Instant::now();
        start.wait();
        let outcome = publisher
            .publish(Event::topical("bench", &format!("round-{round}")))
            .expect("publish");
        assert_eq!(
            outcome.delivered as usize, connections,
            "every subscriber matched"
        );
        done.wait();
    }

    let mut latencies: Vec<u64> = Vec::with_capacity(connections * rounds);
    for handle in threads {
        latencies.extend(handle.join().expect("reader thread"));
    }
    drop(publisher);
    drop(daemon.stdin.take()); // EOF tells the daemon to shut down
    let _ = daemon.wait();

    latencies.sort_unstable();
    let deliveries = latencies.len() as u64;
    let mean_us = latencies.iter().sum::<u64>() as f64 / deliveries.max(1) as f64;
    let p95_us = percentile(&latencies, 0.95) as f64;
    PhaseResult {
        phase: phase.to_string(),
        loop_threads,
        connections,
        rounds,
        setup_ms,
        deliveries,
        mean_us,
        p50_us: percentile(&latencies, 0.50) as f64,
        p95_us,
        p99_us: percentile(&latencies, 0.99) as f64,
        per_sub_p95_ns: p95_us * 1e3 / connections as f64,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.len() >= 3 && args[1] == "--serve" {
        serve(args[2].parse().expect("--serve LOOPS"));
        return;
    }

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let connections = env_usize("REEF_WIRE_CONNS", 10_000);
    let loops = env_usize("REEF_WIRE_LOOPS", cores.max(4));
    let rounds = env_usize("REEF_WIRE_ROUNDS", 20);
    let baseline_conns = env_usize("REEF_WIRE_BASELINE", 1000).min(connections);

    // Equal sample counts: the baseline has 10x fewer subscribers, so give
    // it proportionally more rounds or its p95 is all sampling noise.
    let baseline_rounds = (rounds * connections / baseline_conns).min(rounds * 10);
    let baseline = run_phase("baseline", 1, baseline_conns, baseline_rounds);
    let sharded = run_phase("sharded", loops, connections, rounds);
    let ratio = sharded.per_sub_p95_ns / baseline.per_sub_p95_ns.max(f64::MIN_POSITIVE);

    let rows = vec![
        Row::new(
            format!("baseline p50/p95/p99 us ({baseline_conns} conns, 1 loop)"),
            "",
            format!(
                "{:.0}/{:.0}/{:.0}",
                baseline.p50_us, baseline.p95_us, baseline.p99_us
            ),
        ),
        Row::new(
            format!("sharded p50/p95/p99 us ({connections} conns, {loops} loops)"),
            "",
            format!(
                "{:.0}/{:.0}/{:.0}",
                sharded.p50_us, sharded.p95_us, sharded.p99_us
            ),
        ),
        Row::new(
            "baseline per-sub p95 ns",
            "",
            format!("{:.0}", baseline.per_sub_p95_ns),
        ),
        Row::new(
            "sharded per-sub p95 ns",
            "",
            format!("{:.0}", sharded.per_sub_p95_ns),
        ),
        Row::new(
            "per-sub p95 ratio (<=1 holds the line)",
            "",
            format!("{ratio:.3}"),
        ),
    ];
    print_table("wire connection scaling", &rows);
    if ratio > 1.0 {
        eprintln!("WARN: sharded per-subscriber p95 regressed {ratio:.3}x vs the 1-loop baseline");
    }

    let result = WireScaleResult {
        baseline,
        sharded,
        p95_per_sub_ratio: ratio,
    };
    if let Some(path) = emit_json("BENCH_wire", &result) {
        println!("result written to {}", path.display());
    }
}
