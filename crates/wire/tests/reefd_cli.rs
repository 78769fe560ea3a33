//! `reefd`'s command line, run as the real binary: `--help`, a refused
//! flag, and a daemon that serves what its flags asked for.

use reef_wire::Client;
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};

const REEFD: &str = env!("CARGO_BIN_EXE_reefd");

/// The daemon's whole option surface: `--help` lists each of these once
/// and nothing else.
const FLAGS: &[&str] = &[
    "-l",
    "--listen",
    "--name",
    "--loop-threads",
    "--peer",
    "--peer-retry",
    "--mesh",
    "--peer-timeout-ms",
    "--codec",
    "--data-dir",
    "--wal-segment-bytes",
    "--snapshot-every",
    "--no-covering",
    "--queue-capacity",
    "--overflow",
    "--write-timeout-ms",
    "--max-frame-bytes",
    "--autosub",
    "--autosub-recommender",
    "--autosub-refresh-ms",
    "--autosub-half-life",
    "--stats-interval",
    "-h",
    "--help",
];

/// Ceiling on `reefd --help`'s length in lines.
const HELP_LINES: usize = 60;

/// A running daemon, killed however the test ends.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn help_lists_each_flag_once_within_the_ceiling() {
    let out = Command::new(REEFD)
        .arg("--help")
        .output()
        .expect("run reefd");
    assert!(out.status.success(), "{:?}", out.status);
    let text = String::from_utf8(out.stdout).expect("utf-8 help");
    let lines = text.lines().count();
    assert!(lines <= HELP_LINES, "{lines} lines of help");
    let mut listed: Vec<&str> = text
        .split(|c: char| c.is_whitespace() || c == ',')
        .filter(|word| word.starts_with('-') && word.len() > 1)
        .collect();
    listed.sort_unstable();
    let mut expected = FLAGS.to_vec();
    expected.sort_unstable();
    assert_eq!(listed, expected);
}

#[test]
fn an_unknown_flag_exits_2() {
    let out = Command::new(REEFD)
        .args(["127.0.0.1:0", "--bogus"])
        .output()
        .expect("run reefd");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--bogus"), "{stderr}");
}

#[test]
fn the_daemon_serves_what_its_flags_ask_for() {
    let mut daemon = Daemon(
        Command::new(REEFD)
            .args(["127.0.0.1:0", "--stats-interval", "0"])
            .args(["--loop-threads", "2", "--name", "t"])
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn reefd"),
    );
    let mut banner = String::new();
    BufReader::new(daemon.0.stdout.take().expect("stdout"))
        .read_line(&mut banner)
        .expect("read banner");
    // "reefd `t` listening on 127.0.0.1:PORT (broker id ...)"
    let addr = banner
        .split_whitespace()
        .skip_while(|word| *word != "on")
        .nth(1)
        .unwrap_or_else(|| panic!("no address in banner {banner:?}"));
    let client = Client::connect(addr).expect("connect");
    assert_eq!(client.server_name(), "t");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.wire.loops.len(), 2);
}
