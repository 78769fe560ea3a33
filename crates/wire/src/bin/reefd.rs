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
//!
//! Each flag is one row of [`FLAGS`]: its spellings, the name of its
//! value, one line of help and the builder setter it calls. The parser
//! and `--help` both read the rows, and `--help` prints every default
//! from the builders' own `Default` impls, so no default is written here
//! twice.

use reef_core::AutoSubMode;
use reef_pubsub::{Broker, BrokerBuilder, OverflowPolicy};
use reef_wire::{AutoSubPolicy, AutosubOptions, BrokerServer, BrokerServerBuilder, CodecKind};
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

/// What the command line configures: the server, the broker and the
/// autosub engine the server is handed whole, and the daemon's own
/// listen address and stats cadence.
#[derive(Debug)]
struct Options {
    listen: String,
    /// Seconds between stats lines; 0 prints none.
    stats_interval: u64,
    server: BrokerServerBuilder,
    broker: BrokerBuilder,
    autosub: AutosubOptions,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            listen: "127.0.0.1:7474".to_owned(),
            stats_interval: 10,
            server: BrokerServer::builder(),
            broker: Broker::builder(),
            // The library enables autosub by default; the daemon keeps it
            // behind `--autosub`.
            autosub: AutosubOptions::default().enabled(false),
        }
    }
}

/// One command-line flag.
struct Flag {
    /// Its spellings, short one first.
    names: &'static [&'static str],
    /// The name of its value; `None` for a switch.
    value: Option<&'static str>,
    help: &'static str,
    /// The default `--help` shows, read from [`Options::default`].
    default: Option<fn(&Options) -> String>,
    /// Apply the flag (a switch gets an empty value).
    set: fn(&mut Options, &str) -> Result<(), String>,
}

/// Spellings of the one flag that is not an option.
const HELP: &[&str] = &["-h", "--help"];

/// Every option `reefd` takes.
static FLAGS: &[Flag] = &[
    Flag {
        names: &["-l", "--listen"],
        value: Some("ADDR"),
        help: "listen address, or give it as ADDR",
        default: Some(|o| o.listen.clone()),
        set: |o, v| {
            o.listen = v.to_owned();
            Ok(())
        },
    },
    Flag {
        names: &["--name"],
        value: Some("NAME"),
        help: "broker name announced to clients and peers",
        default: Some(|o| o.server.get_name().to_owned()),
        set: |o, v| update(&mut o.server, |b| b.name(v)),
    },
    Flag {
        names: &["--loop-threads"],
        value: Some("N"),
        help: "epoll loops, one per core if unset; peer links use loop 0",
        default: None,
        set: |o, v| {
            let n = positive(v)?;
            update(&mut o.server, |b| b.loop_threads(n))
        },
    },
    Flag {
        names: &["--peer"],
        value: Some("ADDR"),
        help: "federate with the reefd at ADDR; repeatable",
        default: None,
        set: |o, v| update(&mut o.server, |b| b.peer(v)),
    },
    Flag {
        names: &["--peer-retry"],
        value: None,
        help: "re-dial dead peer links with capped exponential backoff",
        default: None,
        set: |o, _| update(&mut o.server, |b| b.peer_retry(true)),
    },
    Flag {
        names: &["--mesh"],
        value: None,
        help: "path-vector mesh routing (cycles ok, no covering); peers must agree",
        default: None,
        set: |o, _| update(&mut o.server, |b| b.mesh(true)),
    },
    Flag {
        names: &["--peer-timeout-ms"],
        value: Some("N"),
        help: "drop a peer link silent for N ms, pinged at N/3; 0 never",
        default: Some(|o| millis_shown(o.server.get_peer_timeout())),
        set: |o, v| {
            let ms: u64 = number(v)?;
            let timeout = (ms > 0).then(|| Duration::from_millis(ms));
            update(&mut o.server, |b| b.peer_timeout(timeout))
        },
    },
    Flag {
        names: &["--codec"],
        value: Some("CODEC"),
        help: "json | binary, spoken when dialing peers",
        default: Some(|o| o.server.get_codec().name().to_owned()),
        set: |o, v| {
            let codec = CodecKind::parse(v).ok_or(format!("`{v}` is not json or binary"))?;
            update(&mut o.server, |b| b.codec(codec))
        },
    },
    Flag {
        names: &["--data-dir"],
        value: Some("DIR"),
        help: "persist the click store (WAL + snapshots) under DIR",
        default: None,
        set: |o, v| update(&mut o.server, |b| b.data_dir(v)),
    },
    Flag {
        names: &["--wal-segment-bytes"],
        value: Some("N"),
        help: "rotate WAL segments past N bytes",
        default: Some(|o| o.server.get_wal_segment_bytes().to_string()),
        set: |o, v| {
            let bytes = positive(v)?;
            update(&mut o.server, |b| b.wal_segment_bytes(bytes))
        },
    },
    Flag {
        names: &["--snapshot-every"],
        value: Some("N"),
        help: "snapshot the click store every N uploads; 0 never",
        default: Some(|o| o.server.get_snapshot_every().to_string()),
        set: |o, v| {
            let batches = number(v)?;
            update(&mut o.server, |b| b.snapshot_every(batches))
        },
    },
    Flag {
        names: &["--no-covering"],
        value: None,
        help: "do not prune advertisements toward peers by covering",
        default: None,
        set: |o, _| update(&mut o.server, |b| b.covering(false)),
    },
    Flag {
        names: &["--queue-capacity"],
        value: Some("N"),
        help: "bound each subscriber's delivery queue to N events",
        default: None,
        set: |o, v| {
            let capacity = positive(v)?;
            update(&mut o.broker, |b| b.queue_capacity(capacity))
        },
    },
    Flag {
        names: &["--overflow"],
        value: Some("POLICY"),
        help: "drop-new | drop-old, when a bounded queue is full",
        default: Some(|_| OverflowPolicy::default().to_string()),
        set: |o, v| {
            let policy =
                OverflowPolicy::parse(v).ok_or(format!("`{v}` is not drop-new or drop-old"))?;
            update(&mut o.broker, |b| b.overflow(policy))
        },
    },
    Flag {
        names: &["--write-timeout-ms"],
        value: Some("N"),
        help: "evict a connection whose output stalls for N ms",
        default: Some(|o| millis_shown(Some(o.server.get_write_timeout()))),
        set: |o, v| {
            let timeout = Duration::from_millis(positive(v)?);
            update(&mut o.server, |b| b.write_timeout(timeout))
        },
    },
    Flag {
        names: &["--max-frame-bytes"],
        value: Some("N"),
        help: "drop a connection that announces a longer frame",
        default: Some(|o| o.server.get_max_frame_bytes().to_string()),
        set: |o, v| {
            let bytes: usize = number(v)?;
            // 5 = frame header version byte + the smallest payload any
            // codec emits; anything lower refuses every frame.
            if bytes < 5 {
                return Err(format!("`{v}` is below 5, which refuses every frame"));
            }
            update(&mut o.server, |b| b.max_frame_bytes(bytes))
        },
    },
    Flag {
        names: &["--autosub"],
        value: None,
        help: "derive subscriptions from uploaded clicks (AutoSubscribe)",
        default: None,
        set: |o, _| update(&mut o.autosub, |a| a.enabled(true)),
    },
    Flag {
        names: &["--autosub-recommender"],
        value: Some("KIND"),
        help: "topic | content: feed-URL voting or keyword mining",
        default: Some(|o| o.autosub.policy().recommender.to_string()),
        set: |o, v| {
            let recommender =
                AutoSubMode::parse(v).ok_or(format!("`{v}` is not topic or content"))?;
            let policy = AutoSubPolicy {
                recommender,
                ..o.autosub.policy().clone()
            };
            update(&mut o.autosub, |a| a.default_policy(policy))
        },
    },
    Flag {
        names: &["--autosub-refresh-ms"],
        value: Some("N"),
        help: "longest a due decay retirement may wait",
        default: Some(|o| millis_shown(Some(o.autosub.interval()))),
        set: |o, v| {
            let interval = Duration::from_millis(positive(v)?);
            update(&mut o.autosub, |a| a.refresh_interval(interval))
        },
    },
    Flag {
        names: &["--autosub-half-life"],
        value: Some("S"),
        help: "interest decay half-life in seconds; 0 never decays",
        default: Some(|o| o.autosub.policy().half_life_secs.to_string()),
        set: |o, v| {
            let half_life_secs: f64 = number(v)?;
            if half_life_secs.is_nan() || half_life_secs < 0.0 {
                return Err(format!("`{v}` is not a non-negative number"));
            }
            let policy = AutoSubPolicy {
                half_life_secs,
                ..o.autosub.policy().clone()
            };
            update(&mut o.autosub, |a| a.default_policy(policy))
        },
    },
    Flag {
        names: &["--stats-interval"],
        value: Some("S"),
        help: "seconds between stats lines; 0 never",
        default: Some(|o| o.stats_interval.to_string()),
        set: |o, v| {
            o.stats_interval = number(v)?;
            Ok(())
        },
    },
];

/// Replace `slot` by what the builder setter `set` makes of it.
fn update<T: Default>(slot: &mut T, set: impl FnOnce(T) -> T) -> Result<(), String> {
    *slot = set(std::mem::take(slot));
    Ok(())
}

fn number<T: FromStr>(value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("`{value}` is not a valid number"))
}

fn positive<T: FromStr + PartialEq + Default>(value: &str) -> Result<T, String> {
    let n = number(value)?;
    if n == T::default() {
        return Err(format!("`{value}` is not a positive integer"));
    }
    Ok(n)
}

/// A duration as its flag takes it: whole milliseconds, 0 for none.
fn millis_shown(duration: Option<Duration>) -> String {
    duration.map_or(0, |d| d.as_millis()).to_string()
}

/// The `--help` text, one line per flag.
fn usage() -> String {
    let defaults = Options::default();
    let left = |names: &[&str], value: Option<&str>| {
        let pad = if names[0].starts_with("--") {
            "    "
        } else {
            ""
        };
        let value = value.map(|v| format!(" {v}")).unwrap_or_default();
        format!("{pad}{}{value}", names.join(", "))
    };
    let mut rows: Vec<(String, String)> = FLAGS
        .iter()
        .map(|flag| {
            let help = match flag.default {
                Some(default) => format!("{} (default {})", flag.help, default(&defaults)),
                None => flag.help.to_owned(),
            };
            (left(flag.names, flag.value), help)
        })
        .collect();
    rows.push((left(HELP, None), "print this help and exit".to_owned()));
    let width = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0) + 2;
    let mut text = "reefd — reef publish-subscribe broker daemon\n\n\
                    usage: reefd [OPTIONS] [ADDR]\n\noptions:\n"
        .to_owned();
    for (l, help) in rows {
        text.push_str(&format!("  {l:width$}{help}\n"));
    }
    text
}

/// Parse the arguments after the program name. `Ok(None)` asks for help.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Option<Options>, String> {
    let mut options = Options::default();
    let mut positional = false;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if HELP.contains(&arg.as_str()) {
            return Ok(None);
        }
        if !arg.starts_with('-') {
            if std::mem::replace(&mut positional, true) {
                return Err(format!("a second positional ADDR `{arg}`"));
            }
            options.listen = arg;
            continue;
        }
        let flag = FLAGS
            .iter()
            .find(|flag| flag.names.contains(&arg.as_str()))
            .ok_or(format!("unknown flag `{arg}`"))?;
        let value = match flag.value {
            Some(name) => args.next().ok_or(format!("{arg} needs a value {name}"))?,
            None => String::new(),
        };
        (flag.set)(&mut options, &value).map_err(|e| format!("{arg}: {e}"))?;
    }
    Ok(Some(options))
}

fn main() {
    let options = match parse_args(std::env::args().skip(1)) {
        Ok(Some(options)) => options,
        Ok(None) => {
            print!("{}", usage());
            return;
        }
        Err(message) => {
            eprintln!("reefd: {message}");
            eprintln!("run `reefd --help` for usage");
            std::process::exit(2);
        }
    };
    let Options {
        listen,
        stats_interval,
        server,
        broker,
        autosub,
    } = options;
    let autosub_line = autosub.is_enabled().then(|| {
        format!(
            "reefd: automatic subscriptions on ({} recommender, decay at most {}ms late, {}s half-life)",
            autosub.policy().recommender,
            autosub.interval().as_millis(),
            autosub.policy().half_life_secs,
        )
    });
    let server = match server
        .broker(Arc::new(broker.build()))
        .autosub(autosub)
        .bind(&listen)
    {
        Ok(server) => server,
        Err(e) => {
            eprintln!("reefd: cannot start on {listen}: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "reefd `{}` listening on {} (broker id {:#010x})",
        server.federation().name(),
        server.local_addr(),
        server.federation_stats().broker_id,
    );
    let wire = server.stats();
    if wire.wal_segments > 0 {
        println!(
            "reefd: durable click store — recovered {} clicks from {} segment(s){}",
            wire.recovered_clicks,
            wire.wal_segments,
            if wire.wal_truncated_bytes > 0 {
                format!(", truncated {} torn bytes", wire.wal_truncated_bytes)
            } else {
                String::new()
            },
        );
    }
    if let Some(line) = autosub_line {
        println!("{line}");
    }
    for peer in server.peer_stats() {
        println!(
            "reefd: federated with `{}` at {} ({} codec)",
            peer.broker, peer.addr, peer.codec
        );
    }

    // Serve until killed; periodically report transport and broker health.
    loop {
        std::thread::sleep(Duration::from_secs(stats_interval.max(1)));
        if stats_interval > 0 {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Option<Options>, String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    fn server(o: &Options) -> String {
        format!("{:?}", o.server)
    }
    fn broker(o: &Options) -> String {
        format!("{:?}", o.broker)
    }
    fn autosub(o: &Options) -> String {
        format!("{:?}", o.autosub)
    }
    fn daemon(o: &Options) -> String {
        format!(
            "listen: {:?}, stats_interval: {}",
            o.listen, o.stats_interval
        )
    }

    /// The `Debug` text of one part of [`Options`].
    type Part = fn(&Options) -> String;

    /// One non-default value per row: the flag, its value, the part of
    /// [`Options`] it lands in and that part's `Debug` fragment after.
    const EVERY_ROW: &[(&str, &str, Part, &str)] = &[
        ("--listen", "10.0.0.1:1", daemon, "listen: \"10.0.0.1:1\""),
        ("--name", "t", server, "name: \"t\""),
        ("--loop-threads", "3", server, "loop_threads: Some(3)"),
        ("--peer", "10.0.0.2:2", server, "peers: [\"10.0.0.2:2\"]"),
        ("--peer-retry", "", server, "peer_retry: true"),
        ("--mesh", "", server, "mesh: true"),
        ("--peer-timeout-ms", "0", server, "peer_timeout: None"),
        ("--codec", "json", server, "codec: Json"),
        ("--data-dir", "/d", server, "data_dir: Some(\"/d\")"),
        ("--wal-segment-bytes", "7", server, "wal_segment_bytes: 7,"),
        ("--snapshot-every", "0", server, "snapshot_every: 0,"),
        ("--no-covering", "", server, "covering: false"),
        ("--queue-capacity", "4", broker, "queue_capacity: Some(4)"),
        ("--overflow", "drop-old", broker, "overflow: DropOldest"),
        ("--write-timeout-ms", "7", server, "write_timeout: 7ms"),
        ("--max-frame-bytes", "64", server, "max_frame_bytes: 64 "),
        ("--autosub", "", autosub, "enabled: true"),
        (
            "--autosub-recommender",
            "content",
            autosub,
            "recommender: Content",
        ),
        (
            "--autosub-refresh-ms",
            "7",
            autosub,
            "refresh_interval: 7ms",
        ),
        ("--autosub-half-life", "5", autosub, "half_life_secs: 5.0"),
        ("--stats-interval", "0", daemon, "stats_interval: 0"),
    ];

    #[test]
    fn every_row_lands_in_its_field() {
        let long = |flag: &Flag| *flag.names.last().unwrap();
        let rows: Vec<&str> = EVERY_ROW.iter().map(|row| row.0).collect();
        let flags: Vec<&str> = FLAGS.iter().map(long).collect();
        assert_eq!(rows, flags, "one case per row, in table order");
        let defaults = Options::default();
        for (flag, value, part, fragment) in EVERY_ROW {
            assert!(
                !part(&defaults).contains(fragment),
                "{flag} {value} is the default already"
            );
            let args: Vec<&str> = match FLAGS.iter().find(|f| long(f) == *flag).unwrap().value {
                Some(_) => vec![flag, value],
                None => vec![flag],
            };
            let options = parse(&args).unwrap().unwrap();
            let landed = part(&options);
            assert!(landed.contains(fragment), "{flag} {value}: {landed}");
        }
    }

    #[test]
    fn a_bad_value_names_its_flag() {
        let bad = [
            ("--loop-threads", "0"),
            ("--peer-timeout-ms", "-1"),
            ("--codec", "xml"),
            ("--wal-segment-bytes", "0"),
            ("--snapshot-every", "x"),
            ("--queue-capacity", "0"),
            ("--overflow", "block"),
            ("--overflow", "error"),
            ("--write-timeout-ms", "0"),
            ("--max-frame-bytes", "4"),
            ("--autosub-recommender", "x"),
            ("--autosub-refresh-ms", "0"),
            ("--autosub-half-life", "-1"),
            ("--stats-interval", "x"),
        ];
        for (flag, value) in bad {
            let err = parse(&[flag, value]).expect_err(flag);
            assert!(err.contains(flag), "{flag} {value}: {err}");
        }
        // A value-taking flag with no value; for the free-text ones
        // (addresses, names, paths) this is the only bad value.
        for flag in FLAGS.iter().filter(|f| f.value.is_some()) {
            let name = *flag.names.last().unwrap();
            let err = parse(&[name]).expect_err(name);
            assert!(err.contains(name), "{name}: {err}");
            assert!(
                bad.iter().any(|(f, _)| *f == name)
                    || ["--listen", "--name", "--peer", "--data-dir"].contains(&name),
                "{name} needs a bad-value case"
            );
        }
    }

    #[test]
    fn unknown_flags_and_a_second_address_are_refused() {
        assert!(parse(&["--bogus"]).unwrap_err().contains("--bogus"));
        assert!(parse(&["--peer-queue", "8"]).is_err());
        assert!(parse(&["--route-refresh-ms", "8"]).is_err());
        let options = parse(&["10.0.0.1:1"]).unwrap().unwrap();
        assert_eq!(options.listen, "10.0.0.1:1");
        let err = parse(&["10.0.0.1:1", "10.0.0.1:2"]).unwrap_err();
        assert!(err.contains("10.0.0.1:2"), "{err}");
    }

    #[test]
    fn help_is_asked_for_and_lists_each_row_once() {
        assert!(parse(&["--name", "x", "--help"]).unwrap().is_none());
        assert!(parse(&["-h"]).unwrap().is_none());
        let text = usage();
        for flag in FLAGS {
            let name = *flag.names.last().unwrap();
            assert_eq!(text.matches(&format!("{name} ")).count(), 1, "{name}");
        }
    }
}
