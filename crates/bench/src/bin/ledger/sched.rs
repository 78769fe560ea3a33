//! The two scheduler calls the generator makes, declared directly against
//! the C library (as `reef_wire::poll` declares `epoll`: the offline build
//! has no `libc` crate), and the split of the machine's CPUs between the
//! daemons and the generator.
//!
//! A load generator that shares cores with the system under test measures
//! the scheduler as much as the system: on the 2-core reference machine
//! (a VM, where a cross-CPU wake-up costs a hypervisor exit) the same
//! `federated` run read 63 us or 130 us depending on where the scheduler
//! happened to put eight threads. So the CPUs this process may use are
//! split in two: the daemons are confined to the first half, the
//! generator's two threads to the second. `loop_threads` and everything
//! else about the daemon stays on its defaults — which follow the CPUs it
//! is given, exactly as under `taskset`.

use std::os::raw::{c_int, c_ulong};

const SCHED_FIFO: c_int = 1;
const SCHED_RESET_ON_FORK: c_int = 0x4000_0000;

/// Words in the affinity mask handed to the kernel: room for 1024 CPUs.
const MASK_WORDS: usize = 16;

#[repr(C)]
struct SchedParam {
    priority: c_int,
}

extern "C" {
    fn sched_setscheduler(pid: c_int, policy: c_int, param: *const SchedParam) -> c_int;
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const c_ulong) -> c_int;
}

/// Put the calling thread — the sender — into the real-time FIFO class, so
/// that a due operation gets a CPU at once even while the receiver keeps
/// the generator's CPU busy. In the default class a sleeping sender waits
/// out the running thread's slice (milliseconds), and every operation that
/// fell due meanwhile is charged that wait. Threads and processes created
/// afterwards start in the default class again. Returns whether the kernel
/// allowed it (it needs `CAP_SYS_NICE`).
pub fn prefer_this_thread() -> bool {
    let param = SchedParam { priority: 1 };
    // SAFETY: plain syscall wrapper; `param` outlives the call and pid 0
    // names the calling thread.
    unsafe { sched_setscheduler(0, SCHED_FIFO | SCHED_RESET_ON_FORK, &param) == 0 }
}

/// Confine the calling thread (and every thread or process it creates
/// from now on) to `cpus`. Returns whether the kernel accepted the set.
pub fn pin_to(cpus: &[usize]) -> bool {
    let mut mask = [0 as c_ulong; MASK_WORDS];
    let bits = c_ulong::BITS as usize;
    for &cpu in cpus {
        match mask.get_mut(cpu / bits) {
            Some(word) => *word |= 1 << (cpu % bits),
            None => return false,
        }
    }
    // SAFETY: the kernel reads `size_of_val(&mask)` bytes from `mask`,
    // which lives until the call returns; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Parse a kernel CPU list such as `0-3,8,10-11`.
pub fn parse_cpu_list(list: &str) -> Option<Vec<usize>> {
    let mut cpus = Vec::new();
    for part in list.trim().split(',').filter(|p| !p.is_empty()) {
        let (first, last) = match part.split_once('-') {
            Some((first, last)) => (first.parse().ok()?, last.parse().ok()?),
            None => {
                let cpu: usize = part.parse().ok()?;
                (cpu, cpu)
            }
        };
        cpus.extend(first..=last);
    }
    Some(cpus)
}

/// Render CPUs as a comma-separated list (`--serve --cpus` reads it back).
pub fn format_cpu_list(cpus: &[usize]) -> String {
    let parts: Vec<String> = cpus.iter().map(usize::to_string).collect();
    parts.join(",")
}

/// Which CPUs the daemons and which the generator runs on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CpuPlan {
    /// CPUs every daemon process is confined to.
    pub daemons: Vec<usize>,
    /// CPUs the generator's two threads are confined to.
    pub generator: Vec<usize>,
}

impl CpuPlan {
    /// Split `allowed` in two: the first half for the daemons, the rest
    /// for the generator. With a single CPU there is nothing to split.
    pub fn split(allowed: &[usize]) -> Option<CpuPlan> {
        if allowed.len() < 2 {
            return None;
        }
        let (daemons, generator) = allowed.split_at(allowed.len() / 2);
        Some(CpuPlan {
            daemons: daemons.to_vec(),
            generator: generator.to_vec(),
        })
    }

    /// The plan for the CPUs this process is allowed to run on
    /// (`Cpus_allowed_list` in `/proc/self/status`).
    pub fn for_this_machine() -> Option<CpuPlan> {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let list = status
            .lines()
            .find_map(|line| line.strip_prefix("Cpus_allowed_list:"))?;
        CpuPlan::split(&parse_cpu_list(list)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_round_trip() {
        assert_eq!(parse_cpu_list("0-1\n"), Some(vec![0, 1]));
        assert_eq!(
            parse_cpu_list("0-3,8,10-11"),
            Some(vec![0, 1, 2, 3, 8, 10, 11])
        );
        assert_eq!(parse_cpu_list("x"), None);
        assert_eq!(format_cpu_list(&[0, 1, 5]), "0,1,5");
        assert_eq!(parse_cpu_list(&format_cpu_list(&[2, 3])), Some(vec![2, 3]));
    }

    #[test]
    fn the_machine_is_split_between_daemons_and_generator() {
        assert_eq!(CpuPlan::split(&[0]), None);
        assert_eq!(
            CpuPlan::split(&[0, 1]),
            Some(CpuPlan {
                daemons: vec![0],
                generator: vec![1]
            })
        );
        let plan = CpuPlan::split(&[0, 1, 2, 3, 4]).expect("five CPUs split");
        assert_eq!((plan.daemons, plan.generator), (vec![0, 1], vec![2, 3, 4]));
    }

    #[test]
    fn pinning_to_the_allowed_cpus_is_accepted() {
        let status = std::fs::read_to_string("/proc/self/status").expect("status");
        let list = status
            .lines()
            .find_map(|line| line.strip_prefix("Cpus_allowed_list:"))
            .expect("Cpus_allowed_list");
        let allowed = parse_cpu_list(list).expect("a CPU list");
        // Runs on a test thread of its own: narrows nothing for others.
        std::thread::spawn(move || assert!(pin_to(&allowed)))
            .join()
            .expect("pinning thread");
        assert!(!pin_to(&[100_000]), "beyond the mask");
    }
}
