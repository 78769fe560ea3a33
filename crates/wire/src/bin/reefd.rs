//! `reefd` — the reef broker daemon.
//!
//! Serves a content-based publish-subscribe broker over TCP using the
//! reef-wire protocol, ingests uploaded attention data into a click
//! store (durable under `--data-dir`: segmented WAL + snapshot
//! compaction, recovered on restart), and federates with other `reefd`
//! instances over the same port (`--peer`): subscriptions are forwarded
//! with covering-based pruning and events routed along the broker tree,
//! or — with `--mesh` — advertised as path vectors over an arbitrary
//! mesh that survives link loss and cycles.

use reef_core::AutoSubMode;
use reef_pubsub::OverflowPolicy;
use reef_wire::{AutoSubPolicy, AutosubOptions, BrokerServer, CodecKind};
use std::path::PathBuf;
use std::time::Duration;

const DEFAULT_ADDR: &str = "127.0.0.1:7474";

const USAGE: &str = "\
reefd — reef publish-subscribe broker daemon

USAGE:
    reefd [OPTIONS] [ADDR]

ARGS:
    ADDR                     listen address (default 127.0.0.1:7474;
                             env REEF_LISTEN)

OPTIONS:
    -l, --listen ADDR        listen address (same as the positional ADDR)
        --name NAME          broker name announced to clients and peers
                             (default \"reefd\")
        --loop-threads N     number of sharded epoll readiness loops;
                             connections are spread across shards by fd
                             hash, peer links stay on shard 0 (default:
                             available cores)
        --peer ADDR          federate with the reefd at ADDR; repeat the
                             flag to peer with several brokers. Without
                             --mesh the overlay must stay a tree; with
                             --mesh cycles and redundant links are fine
        --peer-retry         re-dial dead peer links with capped
                             exponential backoff (handshake and codec
                             negotiation re-run on reconnect)
        --mesh               path-vector mesh routing: advertisements
                             carry broker-id paths, duplicate events are
                             suppressed by a seen-cache, and a dead link
                             fails over to the best alternate path. All
                             federated brokers must agree on this flag;
                             implies --no-covering
        --route-refresh-ms N milliseconds between periodic full route
                             re-advertisements in mesh mode; 0 disables
                             (default 5000)
        --peer-timeout-ms N  declare a peer link dead after N ms of
                             silence (pinged at N/3); 0 disables
                             keepalive (default 10000)
        --codec CODEC        wire codec used when dialing peers:
                             json (v1) | binary (v2, default). Inbound
                             clients and peers always negotiate their
                             own codec per connection
        --data-dir DIR       persist the click store under DIR (segmented
                             WAL + snapshots); a restart on the same DIR
                             recovers every acknowledged upload. Default:
                             in-memory, nothing survives a restart
        --wal-segment-bytes N
                             rotate WAL segments past N bytes
                             (default 8388608; needs --data-dir)
        --snapshot-every N   write a click-store snapshot and compact old
                             segments every N upload batches; 0 disables
                             (default 256; needs --data-dir)
        --no-covering        disable covering-based advertisement pruning
                             toward peers
        --queue-capacity N   bound each subscriber's delivery queue to N
                             events (default: unbounded)
        --overflow POLICY    what to do when a bounded queue is full:
                             drop-new | drop-old | block | error
                             (default drop-new; `error` aborts the
                             publish with an error reply)
        --peer-queue N       bound each peer link's outgoing event queue
                             (default 1024)
        --write-timeout-ms N evict a client or peer connection whose
                             pending output made no progress for N ms
                             (default 5000)
        --max-frame-bytes N  drop any connection (client or peer) that
                             announces a frame longer than N bytes; the
                             length prefix is checked before any buffer
                             is reserved (default 16777216, also the
                             protocol ceiling)
        --autosub            enable automatic subscriptions: clients
                             enroll users with AutoSubscribe, the daemon
                             mines their uploaded clicks and installs /
                             retires the derived filters as live broker
                             subscriptions, pushing FeedChanged notices
        --autosub-recommender KIND
                             recommender deriving the filters:
                             topic (feed-URL voting, default) | content
                             (keyword mining over clicked URLs)
        --autosub-refresh-ms N
                             longest a due decay retirement may wait, in
                             milliseconds (default 1000); uploads derive
                             at once and decay deadlines wake on time
        --autosub-half-life S
                             interest decay half-life in seconds; 0
                             disables decay (default 600)
        --stats-interval S   seconds between stats lines, 0 disables
                             (default 10; env REEF_STATS_INTERVAL)
    -h, --help               print this help and exit
";

/// Everything the flags configure.
struct Config {
    listen: String,
    name: String,
    loop_threads: Option<usize>,
    peers: Vec<String>,
    peer_retry: bool,
    mesh: bool,
    route_refresh: Duration,
    peer_timeout: Option<Duration>,
    codec: CodecKind,
    covering: bool,
    queue_capacity: Option<usize>,
    overflow: OverflowPolicy,
    peer_queue: usize,
    write_timeout: Duration,
    max_frame_bytes: Option<usize>,
    stats_interval: u64,
    data_dir: Option<PathBuf>,
    wal_segment_bytes: Option<u64>,
    snapshot_every: Option<u64>,
    autosub: bool,
    autosub_recommender: AutoSubMode,
    autosub_refresh: Duration,
    autosub_half_life: f64,
}

impl Config {
    fn default_from_env() -> Config {
        Config {
            listen: std::env::var("REEF_LISTEN").unwrap_or_else(|_| DEFAULT_ADDR.to_owned()),
            name: "reefd".to_owned(),
            loop_threads: None,
            peers: Vec::new(),
            peer_retry: false,
            mesh: false,
            route_refresh: Duration::from_millis(5000),
            peer_timeout: Some(Duration::from_millis(10_000)),
            codec: CodecKind::default(),
            covering: true,
            queue_capacity: None,
            overflow: OverflowPolicy::DropAndCount,
            peer_queue: 1024,
            write_timeout: Duration::from_secs(5),
            max_frame_bytes: None,
            stats_interval: std::env::var("REEF_STATS_INTERVAL")
                .ok()
                .and_then(|s| s.parse().ok())
                .unwrap_or(10),
            data_dir: None,
            wal_segment_bytes: None,
            snapshot_every: None,
            autosub: false,
            autosub_recommender: AutoSubMode::default(),
            autosub_refresh: Duration::from_millis(1000),
            autosub_half_life: 600.0,
        }
    }
}

fn bail(message: &str) -> ! {
    eprintln!("reefd: {message}");
    eprintln!("run `reefd --help` for usage");
    std::process::exit(2);
}

fn parse_args(args: impl Iterator<Item = String>) -> Config {
    let mut config = Config::default_from_env();
    let mut args = args.peekable();
    let mut positional_seen = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            "-l" | "--listen" => {
                config.listen = args
                    .next()
                    .unwrap_or_else(|| bail("--listen needs an address"));
            }
            "--name" => {
                config.name = args.next().unwrap_or_else(|| bail("--name needs a value"));
            }
            "--loop-threads" => {
                let raw = args
                    .next()
                    .unwrap_or_else(|| bail("--loop-threads needs a number"));
                match raw.parse::<usize>() {
                    Ok(n) if n > 0 => config.loop_threads = Some(n),
                    _ => bail("--loop-threads must be a positive integer"),
                }
            }
            "--peer" => {
                config.peers.push(
                    args.next()
                        .unwrap_or_else(|| bail("--peer needs an address")),
                );
            }
            "--peer-retry" => config.peer_retry = true,
            "--mesh" => config.mesh = true,
            "--route-refresh-ms" => {
                let raw = args
                    .next()
                    .unwrap_or_else(|| bail("--route-refresh-ms needs a number"));
                match raw.parse::<u64>() {
                    Ok(ms) => config.route_refresh = Duration::from_millis(ms),
                    Err(_) => bail("--route-refresh-ms must be an integer (0 disables)"),
                }
            }
            "--peer-timeout-ms" => {
                let raw = args
                    .next()
                    .unwrap_or_else(|| bail("--peer-timeout-ms needs a number"));
                match raw.parse::<u64>() {
                    Ok(0) => config.peer_timeout = None,
                    Ok(ms) => config.peer_timeout = Some(Duration::from_millis(ms)),
                    Err(_) => bail("--peer-timeout-ms must be an integer (0 disables)"),
                }
            }
            "--codec" => {
                let raw = args.next().unwrap_or_else(|| bail("--codec needs a value"));
                config.codec = CodecKind::parse(&raw)
                    .unwrap_or_else(|| bail("--codec must be one of: json, binary"));
            }
            "--data-dir" => {
                config.data_dir = Some(PathBuf::from(
                    args.next()
                        .unwrap_or_else(|| bail("--data-dir needs a directory")),
                ));
            }
            "--wal-segment-bytes" => {
                let raw = args
                    .next()
                    .unwrap_or_else(|| bail("--wal-segment-bytes needs a number"));
                match raw.parse::<u64>() {
                    Ok(n) if n > 0 => config.wal_segment_bytes = Some(n),
                    _ => bail("--wal-segment-bytes must be a positive integer"),
                }
            }
            "--snapshot-every" => {
                let raw = args
                    .next()
                    .unwrap_or_else(|| bail("--snapshot-every needs a number"));
                match raw.parse::<u64>() {
                    Ok(n) => config.snapshot_every = Some(n),
                    Err(_) => bail("--snapshot-every must be an integer (0 disables)"),
                }
            }
            "--no-covering" => config.covering = false,
            "--queue-capacity" => {
                let raw = args
                    .next()
                    .unwrap_or_else(|| bail("--queue-capacity needs a number"));
                match raw.parse::<usize>() {
                    Ok(n) if n > 0 => config.queue_capacity = Some(n),
                    _ => bail("--queue-capacity must be a positive integer"),
                }
            }
            "--overflow" => {
                let raw = args
                    .next()
                    .unwrap_or_else(|| bail("--overflow needs a policy"));
                config.overflow = OverflowPolicy::parse(&raw).unwrap_or_else(|| {
                    bail("--overflow must be one of: drop-new, drop-old, block, error")
                });
            }
            "--peer-queue" => {
                let raw = args
                    .next()
                    .unwrap_or_else(|| bail("--peer-queue needs a number"));
                match raw.parse::<usize>() {
                    Ok(n) if n > 0 => config.peer_queue = n,
                    _ => bail("--peer-queue must be a positive integer"),
                }
            }
            "--write-timeout-ms" => {
                let raw = args
                    .next()
                    .unwrap_or_else(|| bail("--write-timeout-ms needs a number"));
                match raw.parse::<u64>() {
                    Ok(ms) if ms > 0 => config.write_timeout = Duration::from_millis(ms),
                    _ => bail("--write-timeout-ms must be a positive integer"),
                }
            }
            "--max-frame-bytes" => {
                let raw = args
                    .next()
                    .unwrap_or_else(|| bail("--max-frame-bytes needs a number"));
                match raw.parse::<usize>() {
                    // 5 = frame header version byte + the smallest
                    // payload any codec emits; anything lower refuses
                    // every frame.
                    Ok(n) if n >= 5 => config.max_frame_bytes = Some(n),
                    _ => bail("--max-frame-bytes must be an integer of at least 5"),
                }
            }
            "--autosub" => config.autosub = true,
            "--autosub-recommender" => {
                let raw = args
                    .next()
                    .unwrap_or_else(|| bail("--autosub-recommender needs a value"));
                config.autosub_recommender = AutoSubMode::parse(&raw).unwrap_or_else(|| {
                    bail("--autosub-recommender must be one of: topic, content")
                });
            }
            "--autosub-refresh-ms" => {
                let raw = args
                    .next()
                    .unwrap_or_else(|| bail("--autosub-refresh-ms needs a number"));
                match raw.parse::<u64>() {
                    Ok(ms) if ms > 0 => config.autosub_refresh = Duration::from_millis(ms),
                    _ => bail("--autosub-refresh-ms must be a positive integer"),
                }
            }
            "--autosub-half-life" => {
                let raw = args
                    .next()
                    .unwrap_or_else(|| bail("--autosub-half-life needs a number"));
                match raw.parse::<f64>() {
                    Ok(secs) if secs >= 0.0 => config.autosub_half_life = secs,
                    _ => bail("--autosub-half-life must be a non-negative number of seconds"),
                }
            }
            "--stats-interval" => {
                let raw = args
                    .next()
                    .unwrap_or_else(|| bail("--stats-interval needs a number"));
                match raw.parse::<u64>() {
                    Ok(secs) => config.stats_interval = secs,
                    Err(_) => bail("--stats-interval must be an integer"),
                }
            }
            flag if flag.starts_with('-') => {
                bail(&format!("unknown flag `{flag}`"));
            }
            addr => {
                if positional_seen {
                    bail("at most one positional ADDR is accepted");
                }
                positional_seen = true;
                config.listen = addr.to_owned();
            }
        }
    }
    config
}

fn main() {
    let config = parse_args(std::env::args().skip(1));

    let mut builder = BrokerServer::builder()
        .name(config.name.clone())
        .covering(config.covering)
        .overflow(config.overflow)
        .peer_queue_capacity(config.peer_queue)
        .write_timeout(config.write_timeout)
        .codec(config.codec)
        .peer_retry(config.peer_retry)
        .mesh(config.mesh)
        .route_refresh(config.route_refresh)
        .peer_timeout(config.peer_timeout);
    if let Some(threads) = config.loop_threads {
        builder = builder.loop_threads(threads);
    }
    if let Some(capacity) = config.queue_capacity {
        builder = builder.queue_capacity(capacity);
    }
    if let Some(dir) = &config.data_dir {
        builder = builder.data_dir(dir.clone());
    }
    if let Some(bytes) = config.wal_segment_bytes {
        builder = builder.wal_segment_bytes(bytes);
    }
    if let Some(batches) = config.snapshot_every {
        builder = builder.snapshot_every(batches);
    }
    if let Some(bytes) = config.max_frame_bytes {
        builder = builder.max_frame_bytes(bytes);
    }
    for peer in &config.peers {
        builder = builder.peer(peer.clone());
    }
    builder = builder.autosub(
        AutosubOptions::default()
            .enabled(config.autosub)
            .default_policy(AutoSubPolicy {
                recommender: config.autosub_recommender,
                half_life_secs: config.autosub_half_life,
                ..AutoSubPolicy::default()
            })
            .refresh_interval(config.autosub_refresh),
    );
    let server = match builder.bind(&config.listen) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("reefd: cannot start on {}: {e}", config.listen);
            std::process::exit(1);
        }
    };
    println!(
        "reefd `{}` listening on {} (broker id {:#010x})",
        config.name,
        server.local_addr(),
        server.federation_stats().broker_id,
    );
    if config.mesh {
        println!(
            "reefd: mesh routing on (path-vector advertisements, {} route refresh, {} peer timeout)",
            match config.route_refresh.as_millis() {
                0 => "no".to_owned(),
                ms => format!("{ms}ms"),
            },
            match config.peer_timeout {
                None => "no".to_owned(),
                Some(t) => format!("{}ms", t.as_millis()),
            },
        );
    }
    if let Some(dir) = &config.data_dir {
        let wire = server.stats();
        println!(
            "reefd: durable click store at {} — recovered {} clicks from {} segment(s){}",
            dir.display(),
            wire.recovered_clicks,
            wire.wal_segments,
            if wire.wal_truncated_bytes > 0 {
                format!(", truncated {} torn bytes", wire.wal_truncated_bytes)
            } else {
                String::new()
            },
        );
    }
    if config.autosub {
        println!(
            "reefd: automatic subscriptions on ({} recommender, decay at most {}ms late, {}s half-life)",
            config.autosub_recommender,
            config.autosub_refresh.as_millis(),
            config.autosub_half_life,
        );
    }
    for peer in server.peer_stats() {
        println!(
            "reefd: federated with `{}` at {} ({} codec)",
            peer.broker, peer.addr, peer.codec
        );
    }

    // Serve until killed; periodically report transport and broker health.
    loop {
        std::thread::sleep(Duration::from_secs(config.stats_interval.max(1)));
        if config.stats_interval > 0 {
            println!(
                "reefd: {} conns | wire {} | broker {} | federation {}",
                server.connection_count(),
                server.stats(),
                server.broker().stats(),
                server.federation_stats(),
            );
        }
    }
}
