//! Per-thread CPU, run-queue wait and wakeups, read from outside the
//! program through `/proc/self/task/<tid>/{schedstat,status,comm}` and
//! grouped by the thread names the program already sets.
//!
//! `comm` is truncated by the kernel to 15 bytes, so groups match on
//! prefixes that survive the cut (`theta-worker-1-0` reads back as
//! `theta-worker-1-`). Threads nobody recognises land in [`Group::Other`],
//! so the groups always partition the process.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

/// The layer a thread belongs to, by its `comm` name.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Group {
    /// `theta-router-<id>`: one event loop per node (theta-orchestration).
    Router,
    /// `theta-worker-<id>-<i>`: the crypto worker pool (theta-orchestration).
    Worker,
    /// `theta-net-scheduler`: the in-memory hub's delivery thread.
    InMemory,
    /// `theta-tcp-reader-*` / `theta-tcp-demux-*`: the TCP mesh.
    Tcp,
    /// `theta-rpc-frontend`: the RPC event loop (theta-service).
    Frontend,
    /// The benchmark's own threads (`bench-*` and the main thread).
    Client,
    /// Anything else.
    Other,
}

impl Group {
    /// Every group, in report order.
    pub const ALL: [Group; 7] = [
        Group::Router,
        Group::Worker,
        Group::InMemory,
        Group::Tcp,
        Group::Frontend,
        Group::Client,
        Group::Other,
    ];

    /// The metric prefix of the group.
    pub fn name(self) -> &'static str {
        match self {
            Group::Router => "orchestration.router",
            Group::Worker => "orchestration.worker",
            Group::InMemory => "network.inmemory",
            Group::Tcp => "network.tcp",
            Group::Frontend => "service.frontend",
            Group::Client => "bench.client",
            Group::Other => "other",
        }
    }

    /// Classifies a thread by its (possibly truncated) `comm`.
    pub fn of(comm: &str, is_main_thread: bool) -> Group {
        if is_main_thread || comm.starts_with("bench-") {
            Group::Client
        } else if comm.starts_with("theta-router-") {
            Group::Router
        } else if comm.starts_with("theta-worker-") {
            Group::Worker
        } else if comm.starts_with("theta-net-sched") {
            Group::InMemory
        } else if comm.starts_with("theta-tcp-") {
            Group::Tcp
        } else if comm.starts_with("theta-rpc-front") {
            Group::Frontend
        } else {
            Group::Other
        }
    }

    /// True for threads of the system under test (everything but the
    /// benchmark's own client).
    pub fn is_node(self) -> bool {
        self != Group::Client
    }
}

/// Parses `/proc/<tid>/schedstat`: on-CPU ns, run-queue wait ns, slices.
pub fn parse_schedstat(text: &str) -> Option<(u64, u64, u64)> {
    let mut fields = text.split_whitespace().map(|f| f.parse::<u64>().ok());
    Some((fields.next()??, fields.next()??, fields.next()??))
}

/// Reads one `Key:\t<number>` line of `/proc/<tid>/status` (the number's
/// unit, such as `kB`, is dropped).
pub fn parse_status_field(text: &str, key: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// Parses `/proc/<tid>/comm` (the name plus a trailing newline).
pub fn parse_comm(text: &str) -> &str {
    text.trim_end_matches('\n')
}

/// Parses `/proc/self/stat`: `utime + stime` in clock ticks. The command
/// name in field 2 may hold spaces and parentheses, so fields are counted
/// from the last `)`.
pub fn parse_stat_cpu_ticks(text: &str) -> Option<u64> {
    let after = &text[text.rfind(')')? + 1..];
    // After the name: state is field 3, utime field 14, stime field 15.
    let mut fields = after.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `USER_HZ`, the unit of `/proc/<pid>/stat` times; fixed at 100 by the
/// Linux ABI on every architecture this benchmark runs on.
const USER_HZ: u64 = 100;

/// One thread's cumulative counters at one instant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ThreadSample {
    /// Kernel thread id.
    pub tid: u32,
    /// The layer the thread belongs to.
    pub group: Group,
    /// Nanoseconds on CPU.
    pub cpu_ns: u64,
    /// Nanoseconds runnable but waiting for a CPU.
    pub runq_ns: u64,
    /// Times the thread blocked and was woken again
    /// (`voluntary_ctxt_switches`).
    pub wakeups: u64,
}

/// Reads one thread's counters from its `/proc` task directory; `None`
/// if the thread exited while being read.
fn sample_task(dir: &Path, tid: u32) -> Option<ThreadSample> {
    let read = |file: &str| fs::read_to_string(dir.join(file)).ok();
    let (cpu_ns, runq_ns, _) = parse_schedstat(&read("schedstat")?)?;
    let wakeups = parse_status_field(&read("status")?, "voluntary_ctxt_switches")?;
    Some(ThreadSample {
        tid,
        group: Group::of(parse_comm(&read("comm")?), tid == std::process::id()),
        cpu_ns,
        runq_ns,
        wakeups,
    })
}

/// Samples every live thread of this process. Threads that exit while
/// being read are skipped.
pub fn sample_threads() -> Vec<ThreadSample> {
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    dir.flatten()
        .filter_map(|entry| {
            let tid = entry.file_name().to_str()?.parse().ok()?;
            sample_task(&entry.path(), tid)
        })
        .collect()
}

/// Samples the calling thread (`/proc/thread-self`). A thread that ends
/// inside a measured window takes this just before it returns and hands
/// it to whoever takes the closing snapshot, so its CPU still counts
/// once it is gone from `/proc/self/task`.
pub fn sample_self() -> Option<ThreadSample> {
    let dir = fs::read_link("/proc/thread-self").ok()?;
    let tid = dir.file_name()?.to_str()?.parse().ok()?;
    sample_task(Path::new("/proc/thread-self"), tid)
}

/// What a group of threads did between two samples.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GroupDelta {
    /// Nanoseconds on CPU.
    pub cpu_ns: u64,
    /// Nanoseconds waiting on a run queue.
    pub runq_ns: u64,
    /// Wakeups.
    pub wakeups: u64,
}

/// Per-group differences between two samples. A thread born in between
/// counts from zero. A thread that died in between is lost unless
/// `after` holds its [`sample_self`] from just before it ended; the
/// comparison with [`process_cpu_ns`] exposes any that are lost.
pub fn delta(before: &[ThreadSample], after: &[ThreadSample]) -> BTreeMap<Group, GroupDelta> {
    let old: BTreeMap<u32, &ThreadSample> = before.iter().map(|s| (s.tid, s)).collect();
    let mut out: BTreeMap<Group, GroupDelta> = Group::ALL
        .iter()
        .map(|g| (*g, GroupDelta::default()))
        .collect();
    for s in after {
        let base = old.get(&s.tid);
        let d = out.entry(s.group).or_default();
        d.cpu_ns += s.cpu_ns.saturating_sub(base.map_or(0, |b| b.cpu_ns));
        d.runq_ns += s.runq_ns.saturating_sub(base.map_or(0, |b| b.runq_ns));
        d.wakeups += s.wakeups.saturating_sub(base.map_or(0, |b| b.wakeups));
    }
    out
}

/// CPU time of the whole process, dead threads included, in ns
/// (10 ms resolution).
pub fn process_cpu_ns() -> u64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu_ticks(&s))
        .map_or(0, |ticks| ticks * (1_000_000_000 / USER_HZ))
}

/// Peak resident set size (`VmHWM`) in kB.
pub fn peak_rss_kb() -> u64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_field(&s, "VmHWM"))
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_fields() {
        assert_eq!(
            parse_schedstat("123456 7890 42\n"),
            Some((123456, 7890, 42))
        );
        assert_eq!(parse_schedstat("1 2\n"), None);
        assert_eq!(parse_schedstat("x 2 3\n"), None);
    }

    #[test]
    fn status_fields() {
        let status = "Name:\ttheta-router-1\nVmHWM:\t   51234 kB\n\
                      voluntary_ctxt_switches:\t1042\nnonvoluntary_ctxt_switches:\t7\n";
        assert_eq!(parse_status_field(status, "VmHWM"), Some(51234));
        assert_eq!(
            parse_status_field(status, "voluntary_ctxt_switches"),
            Some(1042)
        );
        assert_eq!(
            parse_status_field(status, "nonvoluntary_ctxt_switches"),
            Some(7)
        );
        assert_eq!(parse_status_field(status, "VmRSS"), None);
    }

    #[test]
    fn comm_and_groups() {
        assert_eq!(parse_comm("theta-worker-1-\n"), "theta-worker-1-");
        let cases = [
            ("theta-router-7", Group::Router),
            ("theta-worker-1-", Group::Worker),
            ("theta-net-sched", Group::InMemory),
            ("theta-tcp-reade", Group::Tcp),
            ("theta-tcp-demux", Group::Tcp),
            ("theta-rpc-front", Group::Frontend),
            ("bench-client", Group::Client),
            ("theta-keygen", Group::Other),
            ("theta-trace-fan", Group::Other),
        ];
        for (comm, group) in cases {
            assert_eq!(Group::of(comm, false), group, "{comm}");
        }
        assert_eq!(Group::of("perfbench", true), Group::Client);
        assert!(!Group::Client.is_node() && Group::Other.is_node());
    }

    #[test]
    fn stat_cpu_ticks_survive_odd_names() {
        let stat = "4242 (a) b (c)) S 1 4242 4242 0 -1 4194560 100 0 0 0 250 31 0 0 20 0 9 0";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(281));
        assert_eq!(parse_stat_cpu_ticks("4242 (x) S 1"), None);
    }

    #[test]
    fn delta_counts_new_threads_from_zero_and_groups_them() {
        let s = |tid, group, cpu| ThreadSample {
            tid,
            group,
            cpu_ns: cpu,
            runq_ns: cpu / 10,
            wakeups: cpu / 100,
        };
        let before = [
            s(1, Group::Router, 1000),
            s(2, Group::Worker, 500),
            s(3, Group::Worker, 900),
        ];
        let after = [
            s(1, Group::Router, 3000),
            s(2, Group::Worker, 800),
            s(4, Group::Worker, 200),
        ];
        let d = delta(&before, &after);
        assert_eq!(
            d[&Group::Router],
            GroupDelta {
                cpu_ns: 2000,
                runq_ns: 200,
                wakeups: 20
            }
        );
        assert_eq!(d[&Group::Worker].cpu_ns, 300 + 200);
        assert_eq!(d[&Group::Tcp], GroupDelta::default());
        assert_eq!(d.len(), Group::ALL.len());
    }

    #[test]
    fn self_sample_is_this_thread() {
        let other = std::thread::Builder::new()
            .name("bench-self".into())
            .spawn(|| sample_self().expect("thread-self readable"))
            .unwrap()
            .join()
            .unwrap();
        assert_eq!(other.group, Group::Client);
        assert_ne!(other.tid, std::process::id());
        let here = sample_self().expect("thread-self readable");
        assert!(sample_threads().iter().any(|t| t.tid == here.tid));
    }

    #[test]
    fn live_process_is_readable() {
        let threads = sample_threads();
        let me = std::process::id();
        assert!(threads
            .iter()
            .any(|t| t.tid == me && t.group == Group::Client));
        assert!(peak_rss_kb() > 0);
        let spin = std::time::Instant::now();
        while spin.elapsed() < std::time::Duration::from_millis(30) {
            std::hint::black_box(0u64);
        }
        assert!(process_cpu_ns() > 0);
    }
}
