//! Daemons as child processes, and what `/proc` says about them.
//!
//! The ledger re-executes itself with `--serve` (as `exp_wire_connections`
//! does), so the daemon under test is the workspace's `BrokerServer` built
//! from the same checkout, in its own process with its own CPU and memory
//! accounting. The child runs on the library **defaults**: only deployment
//! values — bind address, peer, data directory, autosub refresh cadence,
//! the CPUs it may run on — are ever set here.

use crate::sched::{format_cpu_list, parse_cpu_list, pin_to};
use crate::Res;
use reef_wire::{AutosubOptions, BrokerServer};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Deployment values of one daemon.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DaemonOpts {
    /// Federate with the daemon at this address.
    pub peer: Option<SocketAddr>,
    /// Persist the click store under a fresh temp directory.
    pub durable: bool,
    /// Autosub refresh cadence in milliseconds (`None`: the default).
    pub autosub_refresh_ms: Option<u64>,
    /// CPUs to confine the daemon to (empty: wherever the harness runs).
    pub cpus: Vec<usize>,
}

/// Child-process mode (`ledger --serve ...`): run a daemon, announce its
/// port, hold until the parent closes our stdin.
pub fn serve(args: &[String]) -> Res<()> {
    let mut builder = BrokerServer::builder();
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            // Before the server exists: its default `loop_threads` follows
            // the CPUs the process may run on.
            "--cpus" => {
                let cpus = parse_cpu_list(value()?).ok_or("--cpus needs a CPU list")?;
                if !pin_to(&cpus) {
                    return Err(format!("cannot run on CPUs {cpus:?}").into());
                }
            }
            "--peer" => builder = builder.peer(value()?.clone()),
            "--data-dir" => builder = builder.data_dir(PathBuf::from(value()?)),
            "--autosub-refresh-ms" => {
                let interval = Duration::from_millis(value()?.parse()?);
                builder = builder.autosub(AutosubOptions::default().refresh_interval(interval));
            }
            other => return Err(format!("unknown --serve flag {other}").into()),
        }
    }
    let server = builder.bind("127.0.0.1:0")?;
    println!("PORT {}", server.local_addr().port());
    std::io::stdout().flush()?;
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    server.shutdown();
    Ok(())
}

/// Where daemons keep their data directories and traces land by default:
/// next to the running executable, which is inside the build directory of
/// whichever checkout built it.
pub fn scratch_root() -> Res<PathBuf> {
    let exe = std::env::current_exe()?;
    let dir = exe
        .parent()
        .ok_or("executable has no parent directory")?
        .join("ledger-scratch");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

static NEXT_DATA_DIR: AtomicU64 = AtomicU64::new(0);

/// One running daemon process.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    /// Address it listens on.
    pub addr: SocketAddr,
    data_dir: Option<PathBuf>,
}

impl Daemon {
    /// Spawn a daemon and wait for it to announce its port.
    pub fn spawn(opts: &DaemonOpts) -> Res<Daemon> {
        let mut command = Command::new(std::env::current_exe()?);
        command.arg("--serve");
        if !opts.cpus.is_empty() {
            command.args(["--cpus", &format_cpu_list(&opts.cpus)]);
        }
        if let Some(peer) = opts.peer {
            command.args(["--peer", &peer.to_string()]);
        }
        let data_dir = if opts.durable {
            let dir = scratch_root()?.join(format!(
                "data-{}-{}",
                std::process::id(),
                NEXT_DATA_DIR.fetch_add(1, Ordering::Relaxed)
            ));
            command.arg("--data-dir").arg(&dir);
            Some(dir)
        } else {
            None
        };
        if let Some(ms) = opts.autosub_refresh_ms {
            command.args(["--autosub-refresh-ms", &ms.to_string()]);
        }
        let mut child = command
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdout = child.stdout.take().ok_or("daemon stdout not captured")?;
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line)?;
        let port: u16 = match line.trim().strip_prefix("PORT ").map(str::parse) {
            Some(Ok(port)) => port,
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("daemon did not announce its port (said {line:?})").into());
            }
        };
        Ok(Daemon {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], port)),
            data_dir,
        })
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Ask the daemon to shut down (stdin EOF), wait for it to exit, and
    /// hand back its data directory for the caller to inspect and remove.
    pub fn stop(mut self) -> Option<PathBuf> {
        drop(self.child.stdin.take());
        let _ = self.child.wait();
        self.data_dir.take()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Reached with the child still running only when a run is bailing
        // out on an error: make sure no process outlives the harness.
        if self.child.stdin.is_some() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(dir) = &self.data_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// CPU time of a process, summed over its threads.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProcSample {
    /// Nanoseconds on a CPU (`/proc/<pid>/task/*/schedstat`).
    pub cpu_ns: u64,
    /// User-mode clock ticks (`/proc/<pid>/stat`), for the user/sys split.
    pub user_ticks: u64,
    /// Kernel-mode clock ticks.
    pub sys_ticks: u64,
}

impl ProcSample {
    /// Sample `pid` (`None`: this process). Unreadable files read zero.
    pub fn take(pid: Option<u32>) -> ProcSample {
        let root = proc_root(pid);
        let mut cpu_ns = 0u64;
        if let Ok(tasks) = std::fs::read_dir(root.join("task")) {
            for task in tasks.flatten() {
                if let Ok(text) = std::fs::read_to_string(task.path().join("schedstat")) {
                    cpu_ns += first_number(&text);
                }
            }
        }
        let (user_ticks, sys_ticks) = std::fs::read_to_string(root.join("stat"))
            .ok()
            .and_then(|text| {
                // Fields after the parenthesised command name; utime and
                // stime are fields 14 and 15 of the whole line.
                let rest = &text[text.rfind(')')? + 1..];
                let mut fields = rest.split_whitespace().skip(11);
                Some((fields.next()?.parse().ok()?, fields.next()?.parse().ok()?))
            })
            .unwrap_or((0, 0));
        ProcSample {
            cpu_ns,
            user_ticks,
            sys_ticks,
        }
    }

    /// CPU seconds between `earlier` and `self`, split into user and
    /// kernel time by the tick counters' ratio over the same interval.
    pub fn user_sys_secs_since(&self, earlier: &ProcSample) -> (f64, f64) {
        let total = self.cpu_ns.saturating_sub(earlier.cpu_ns) as f64 / 1e9;
        let user = self.user_ticks.saturating_sub(earlier.user_ticks) as f64;
        let sys = self.sys_ticks.saturating_sub(earlier.sys_ticks) as f64;
        if user + sys == 0.0 {
            return (total, 0.0);
        }
        (total * user / (user + sys), total * sys / (user + sys))
    }
}

fn proc_root(pid: Option<u32>) -> PathBuf {
    match pid {
        Some(pid) => PathBuf::from(format!("/proc/{pid}")),
        None => PathBuf::from("/proc/self"),
    }
}

fn first_number(text: &str) -> u64 {
    text.split_whitespace()
        .next()
        .and_then(|field| field.parse().ok())
        .unwrap_or(0)
}

/// The number after `key` in a `/proc/<pid>/status`-style text.
fn status_field(text: &str, key: &str) -> u64 {
    text.lines()
        .find_map(|line| line.strip_prefix(key))
        .map(|rest| first_number(rest.trim_start_matches(':')))
        .unwrap_or(0)
}

/// Peak resident set (`VmHWM`) of `pid` in kilobytes.
pub fn rss_hwm_kb(pid: u32) -> u64 {
    std::fs::read_to_string(proc_root(Some(pid)).join("status"))
        .map(|text| status_field(&text, "VmHWM"))
        .unwrap_or(0)
}

/// Voluntary plus involuntary context switches of `pid`, over its threads.
pub fn ctx_switches(pid: u32) -> u64 {
    let mut total = 0;
    if let Ok(tasks) = std::fs::read_dir(proc_root(Some(pid)).join("task")) {
        for task in tasks.flatten() {
            if let Ok(text) = std::fs::read_to_string(task.path().join("status")) {
                total += status_field(&text, "voluntary_ctxt_switches")
                    + status_field(&text, "nonvoluntary_ctxt_switches");
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_fields_parse() {
        let text = "Name:\tledger\nVmHWM:\t    1784 kB\nvoluntary_ctxt_switches:\t12\nnonvoluntary_ctxt_switches:\t3\n";
        assert_eq!(status_field(text, "VmHWM"), 1784);
        assert_eq!(status_field(text, "voluntary_ctxt_switches"), 12);
        assert_eq!(status_field(text, "nonvoluntary_ctxt_switches"), 3);
        assert_eq!(status_field(text, "Missing"), 0);
    }

    #[test]
    fn own_process_sample_advances() {
        let before = ProcSample::take(None);
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        let after = ProcSample::take(None);
        assert!(after.cpu_ns > before.cpu_ns, "{before:?} -> {after:?}");
        let (user, sys) = after.user_sys_secs_since(&before);
        assert!(user + sys > 0.0);
    }

    #[test]
    fn user_sys_split_follows_the_tick_ratio() {
        let a = ProcSample::default();
        let b = ProcSample {
            cpu_ns: 2_000_000_000,
            user_ticks: 30,
            sys_ticks: 10,
        };
        assert_eq!(b.user_sys_secs_since(&a), (1.5, 0.5));
    }
}
