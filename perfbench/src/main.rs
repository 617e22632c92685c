//! The repository's benchmark: runs one workload through the public RPC
//! API, checks every output, and prints its metrics.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` runs the same
//! workload, records spans around the benchmark's own calls into each
//! layer, and prints the per-layer metrics instead; its span journal is
//! written to `perfbench/results/`. The last line of standard output is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! The process exits nonzero when any output is wrong.
//!
//! Every layer is measured from outside the program: spans around calls
//! into its public functions, per-thread `/proc` counters grouped by the
//! threads' names, and counters the nodes expose through getters.

mod cluster;
mod load;
mod procstat;
mod replay;
mod spans;
mod stats;
mod workload;

use cluster::{set_up, Cluster, Counters};
use load::{Outcome, Record};
use procstat::{Group, GroupDelta, ThreadSample};
use spans::Journal;
use stats::{median, quantile, tail_quantile};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use workload::{make_op, poisson_schedule, stream, Op, Workload, OPEN_RATE_OPS};

/// Closed-loop warm-up before the idle window.
const WARMUP: Duration = Duration::from_secs(2);
/// Pause after warm-up so its last batch flushes and replies finish.
const IDLE_SETTLE: Duration = Duration::from_millis(500);
/// The idle window between warm-up and load, measured in slices.
const IDLE: Duration = Duration::from_secs(2);
const IDLE_SLICES: u32 = 8;
/// Length of the slices the timed window is sampled in.
const SLICE: Duration = Duration::from_secs(5);
/// The latency a completion must meet to count towards `goodput_ops`.
const GOODPUT_LIMIT_MS: f64 = 250.0;
/// Where result files and span journals go, relative to the checkout.
const RESULTS_DIR: &str = "perfbench/results";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 40.0f64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("seconds {seconds} outside (0, 600]"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// A metric as printed: name, value, unit.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

#[derive(Default)]
struct Report {
    lines: Vec<String>,
    metrics: Vec<Metric>,
    attempted: usize,
    failed: usize,
    correct: bool,
}

impl Report {
    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    fn line(&mut self, line: String) {
        self.lines.push(line);
    }

    fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

fn host_fingerprint() -> String {
    let read = |p: &str| std::fs::read_to_string(p).unwrap_or_default();
    let cpu = read("/proc/cpuinfo")
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "host nproc={nproc} cpu=\"{cpu}\" kernel={} rustc=\"{}\" profile={}",
        read("/proc/sys/kernel/osrelease").trim(),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE"),
    )
}

/// Thread and process CPU at one instant.
struct CpuSnapshot {
    threads: Vec<procstat::ThreadSample>,
    process_ns: u64,
    at: Instant,
}

impl CpuSnapshot {
    fn take() -> CpuSnapshot {
        CpuSnapshot {
            threads: procstat::sample_threads(),
            process_ns: procstat::process_cpu_ns(),
            at: Instant::now(),
        }
    }
}

/// What the threads did between two snapshots.
struct CpuDelta {
    groups: BTreeMap<Group, GroupDelta>,
    process_ns: u64,
    seconds: f64,
}

impl CpuDelta {
    fn between(a: &CpuSnapshot, b: &CpuSnapshot) -> CpuDelta {
        CpuDelta {
            groups: procstat::delta(&a.threads, &b.threads),
            process_ns: b.process_ns.saturating_sub(a.process_ns),
            seconds: (b.at - a.at).as_secs_f64(),
        }
    }

    fn node_cpu_ns(&self) -> u64 {
        self.groups
            .iter()
            .filter(|(g, _)| g.is_node())
            .map(|(_, d)| d.cpu_ns)
            .sum()
    }

    /// How far the thread groups miss the process total, in percent.
    fn accounting_gap_pct(&self) -> f64 {
        let groups: u64 = self.groups.values().map(|d| d.cpu_ns).sum();
        (groups as f64 - self.process_ns as f64).abs() / (self.process_ns.max(1) as f64) * 100.0
    }
}

/// Everything the timed window produced.
struct Window {
    records: Vec<Record>,
    ops: Vec<Op>,
    lateness: Vec<Duration>,
    cpu: CpuDelta,
    /// CPU per [`SLICE`] of the window.
    slices: Vec<CpuDelta>,
    start: Instant,
    counters: Counters,
    seconds: f64,
}

/// Runs `load` on a thread named `name` while this thread snapshots the
/// threads' CPU every [`SLICE`]; returns the load's result and the
/// snapshots, the first taken just before the load starts and the last
/// just after it ends. The load thread, and every helper thread whose
/// last sample `load` pushes onto its argument, ends inside the window,
/// so their last samples join the closing snapshot.
fn sampled<T: Send>(
    name: &str,
    load: impl FnOnce(&mut Vec<ThreadSample>) -> T + Send,
) -> (T, Vec<CpuSnapshot>) {
    let mut snapshots = vec![CpuSnapshot::take()];
    let start = snapshots[0].at;
    let (out, exited) = std::thread::scope(|scope| {
        let handle = std::thread::Builder::new()
            .name(name.into())
            .spawn_scoped(scope, || {
                let mut exited = Vec::new();
                let out = load(&mut exited);
                exited.extend(procstat::sample_self());
                (out, exited)
            })
            .expect("spawn the load thread");
        let mut next = start + SLICE;
        while !handle.is_finished() {
            let now = Instant::now();
            if now >= next {
                snapshots.push(CpuSnapshot::take());
                next += SLICE;
            } else {
                std::thread::sleep((next - now).min(Duration::from_millis(20)));
            }
        }
        handle.join().expect("load thread panicked")
    });
    let mut last = CpuSnapshot::take();
    last.threads.extend(exited);
    snapshots.push(last);
    (out, snapshots)
}

fn run_window(args: &Args, cluster: &Cluster, warm_rate: f64) -> Window {
    let workload = args.workload;
    let keys = &cluster.keys;
    let op = |i: usize| make_op(workload, keys, args.seed, stream::LOAD, i as u64);
    let counters_before = cluster.counters();
    let (mut ops, records, lateness, snapshots);
    if workload.is_closed_loop() {
        // Make the inputs a generous run needs before the clock starts;
        // any beyond are made on demand.
        let expected = (warm_rate * args.seconds * 1.5) as usize + 2;
        ops = (0..expected).map(op).collect::<Vec<Op>>();
        let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
        let ops = &mut ops;
        (records, snapshots) = sampled("bench-client", |_| {
            load::closed_loop(cluster.rpc, deadline, &mut |i| {
                while ops.len() <= i {
                    ops.push(op(ops.len()));
                }
                ops[i].clone()
            })
        });
        lateness = Vec::new();
    } else {
        let schedule = poisson_schedule(args.seed, OPEN_RATE_OPS, args.seconds);
        ops = (0..schedule.len()).map(op).collect();
        let start = Instant::now();
        ((records, lateness), snapshots) = sampled("bench-send", |exited| {
            load::open_loop(cluster.rpc, start, &schedule, &ops, exited)
        });
    }
    let (first, last) = (&snapshots[0], &snapshots[snapshots.len() - 1]);
    Window {
        records,
        ops,
        lateness,
        cpu: CpuDelta::between(first, last),
        slices: snapshots
            .windows(2)
            .map(|p| CpuDelta::between(&p[0], &p[1]))
            .collect(),
        start: first.at,
        counters: cluster.counters().since(&counters_before),
        seconds: (last.at - first.at).as_secs_f64(),
    }
}

fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let w = args.workload;
    report.line(format!(
        "perfbench workload={} seed={} seconds={} trace={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    ));
    report.line(host_fingerprint());

    // Set-up, several times; the last cluster serves the run.
    let (mut setups, mut first_replies) = (Vec::new(), Vec::new());
    let mut cluster = None;
    for attempt in 0..w.setups() {
        drop(cluster.take());
        let (c, time) = set_up(w, args.seed, attempt)?;
        setups.push(time.ready_s);
        first_replies.push(time.first_reply_ms);
        cluster = Some(c);
    }
    let cluster = cluster.expect("at least one set-up");

    // Warm-up: caches fill and lazy set-up finishes before timing.
    let warm_start = Instant::now();
    let warm = load::closed_loop(cluster.rpc, warm_start + WARMUP, &mut |i| {
        make_op(w, &cluster.keys, args.seed, stream::WARMUP, i as u64)
    });
    let warm_ok = warm
        .iter()
        .filter(|r| matches!(r.outcome, Outcome::Reply { .. }))
        .count();
    if warm_ok == 0 {
        return Err("no warm-up request succeeded".into());
    }
    let warm_rate = warm_ok as f64 / warm_start.elapsed().as_secs_f64();

    // The idle window: what the nodes burn with no load.
    std::thread::sleep(IDLE_SETTLE);
    let mut idle = Vec::new();
    let mut prev = CpuSnapshot::take();
    for _ in 0..IDLE_SLICES {
        std::thread::sleep(IDLE / IDLE_SLICES);
        let now = CpuSnapshot::take();
        idle.push(CpuDelta::between(&prev, &now));
        prev = now;
    }
    // Medians over the slices, so a burst elsewhere on the host moves
    // one slice, not the figure.
    let idle_rate = |f: &dyn Fn(&CpuDelta) -> f64| {
        median(&idle.iter().map(|d| f(d) / d.seconds).collect::<Vec<_>>()).expect("idle slices")
    };
    let router = |d: &CpuDelta| d.groups.get(&Group::Router).copied().unwrap_or_default();
    let idle_node_ms_per_s = idle_rate(&|d| d.node_cpu_ns() as f64 / 1e6);
    let idle_router_ms_per_s = idle_rate(&|d| router(d).cpu_ns as f64 / 1e6);
    let idle_router_wakeups_per_s = idle_rate(&|d| router(d).wakeups as f64);

    let window = run_window(args, &cluster, warm_rate);

    // Check every reply, outside the timed window.
    let replies: Vec<(&Record, &[u8], u64)> = window
        .records
        .iter()
        .filter_map(|r| match &r.outcome {
            Outcome::Reply { output, server_us } => Some((r, output.as_slice(), *server_us)),
            _ => None,
        })
        .collect();
    let mut second = theta_service::RpcClient::connect(cluster.rpc_second, cluster::RPC_TIMEOUT)
        .map_err(|e| format!("connect for checks: {e}"))?;
    let verdicts = workload::check_outputs(
        &cluster.keys,
        &replies
            .iter()
            .map(|(r, _, _)| &window.ops[r.op])
            .collect::<Vec<_>>(),
        &replies.iter().map(|(_, out, _)| *out).collect::<Vec<_>>(),
        &mut second,
    );
    drop(second);
    // Stop the cluster, so its idle threads cannot disturb what follows.
    drop(cluster);
    let good: Vec<(&Record, u64)> = replies
        .iter()
        .zip(&verdicts)
        .filter(|(_, ok)| **ok)
        .map(|((r, _, us), _)| (*r, *us))
        .collect();
    let refused = window
        .records
        .iter()
        .filter(|r| matches!(r.outcome, Outcome::Refused))
        .count();
    let errored = window
        .records
        .iter()
        .filter(|r| matches!(r.outcome, Outcome::Failed(_)))
        .count();
    let wrong = verdicts.iter().filter(|ok| !**ok).count();
    report.attempted = window.records.len();
    report.failed = refused + errored + wrong;
    report.correct = wrong == 0;
    if let Some(Outcome::Failed(why)) = window
        .records
        .iter()
        .map(|r| &r.outcome)
        .find(|o| matches!(o, Outcome::Failed(_)))
    {
        report.line(format!("first failure: {why}"));
    }
    if good.is_empty() {
        return Err("no request completed correctly".into());
    }
    let ok = good.len() as f64;
    let latencies: Vec<f64> = good.iter().map(|(r, _)| r.latency_ms()).collect();
    let gap = window.cpu.accounting_gap_pct();
    report.line(format!(
        "samples attempted={} ok={} refused={refused} errored={errored} wrong={wrong} fail_ratio={} \
         window_s={:.3} cpu_accounting_gap_pct={gap:.2}",
        report.attempted,
        good.len(),
        report.failed as f64 / report.attempted.max(1) as f64,
        window.seconds
    ));
    report.line(format!("setups_s {setups:?}"));
    report.line(format!("setup_first_reply_ms {first_replies:?}"));
    // Per-slice rates of the closed loops: (throughput, goodput, node
    // CPU per op) of every full slice.
    let limit = GOODPUT_LIMIT_MS;
    let mut slice_rates = Vec::new();
    let mut slice_start = window.start;
    for (k, d) in window.slices.iter().enumerate() {
        let end = slice_start + Duration::from_secs_f64(d.seconds);
        let done: Vec<f64> = good
            .iter()
            .filter(|(r, _)| r.done >= slice_start && r.done < end)
            .map(|(r, _)| r.latency_ms())
            .collect();
        let n = done.len() as f64;
        let rates = (
            n / d.seconds,
            done.iter().filter(|l| **l <= limit).count() as f64 / d.seconds,
            d.node_cpu_ns() as f64 / 1e6 / n.max(1.0),
        );
        report.line(format!(
            "slice {k} s={:.2} ops={n} ops_per_s={:.2} node_cpu_ms_per_op={:.2}",
            d.seconds, rates.0, rates.2
        ));
        if d.seconds >= 0.9 * SLICE.as_secs_f64() && n > 0.0 {
            slice_rates.push(rates);
        }
        slice_start = end;
    }
    let mut by_scheme: Vec<(String, Vec<f64>)> = vec![("all".into(), latencies.clone())];
    if w.schemes().len() > 1 {
        for &scheme in w.schemes() {
            let own = good
                .iter()
                .filter(|(r, _)| window.ops[r.op].scheme == scheme);
            by_scheme.push((
                scheme.to_string(),
                own.map(|(r, _)| r.latency_ms()).collect(),
            ));
        }
    }
    for (label, values) in &by_scheme {
        let mut line = format!("latency {label} n={}", values.len());
        for (name, q) in [("p50", 0.5), ("p95", 0.95), ("p99", 0.99)] {
            let shown = tail_quantile(values, q).map_or("missing".into(), |v| format!("{v:.3}ms"));
            let _ = write!(line, " {name}={shown}");
        }
        report.line(line);
    }
    if gap > 5.0 {
        report.correct = false;
        report.line(format!(
            "thread groups miss the process CPU by {gap:.2}% (> 5%)"
        ));
    }

    let p50 = median(&latencies).expect("non-empty");
    let p95 = tail_quantile(&latencies, 0.95);
    // A closed loop's rates are the median of its full slices, so a burst
    // elsewhere on the host moves one slice, not the figure. The open
    // loop's arrivals per slice vary by design, so it uses the totals.
    let within = latencies.iter().filter(|l| **l <= limit).count() as f64;
    let totals = (
        ok / window.seconds,
        within / window.seconds,
        window.cpu.node_cpu_ns() as f64 / 1e6 / ok,
    );
    let (throughput, goodput, cpu_per_op) = if w.is_closed_loop() && !slice_rates.is_empty() {
        let pick = |f: fn(&(f64, f64, f64)) -> f64| {
            median(&slice_rates.iter().map(f).collect::<Vec<_>>()).expect("full slices")
        };
        (pick(|r| r.0), pick(|r| r.1), pick(|r| r.2))
    } else {
        totals
    };

    let mut e2e = Report::default();
    e2e.metric("setup_s", median(&setups).expect("set-ups ran"), "s");
    e2e.metric("p50_ms", p50, "ms");
    if let Some(p95) = p95 {
        e2e.metric("p95_ms", p95, "ms");
    }
    e2e.metric("throughput_ops", throughput, "1/s");
    e2e.metric("goodput_ops", goodput, "1/s");
    e2e.metric("cpu_ms_per_op", cpu_per_op, "ms");
    e2e.metric("peak_rss_mb", procstat::peak_rss_kb() as f64 / 1024.0, "MB");
    for m in &e2e.metrics {
        report.line(format!("metric {} {} {}", m.name, m.value, m.unit));
    }

    if !args.trace {
        report.metrics = e2e.metrics;
        return Ok(report);
    }

    // The traced run: per-layer metrics.
    let mut journal = Journal::new(
        window
            .records
            .iter()
            .map(|r| r.due)
            .min()
            .unwrap_or_else(Instant::now),
    );
    let mut overhead = Vec::new();
    let mut server = Vec::new();
    for (i, (r, server_us)) in good.iter().enumerate() {
        let req = i as u64;
        let root = journal.record("bench.request", r.due, r.done, None, req);
        let rpc = journal.record("service.rpc", r.sent, r.done, Some(root), req);
        journal.record_derived(
            "orchestration.server",
            r.done,
            server_us * 1000,
            Some(rpc),
            req,
        );
        let client_ms = (r.done - r.sent).as_secs_f64() * 1e3;
        overhead.push(client_ms - *server_us as f64 / 1e3);
        server.push(*server_us as f64 / 1e3);
    }
    let per_op = |v: u64| v as f64 / ok;
    let group = |g: Group| window.cpu.groups.get(&g).copied().unwrap_or_default();
    for g in [Group::Router, Group::Worker] {
        let d = group(g);
        report.metric(
            format!("{}.cpu_ms_per_op", g.name()),
            per_op(d.cpu_ns) / 1e6,
            "ms",
        );
        report.metric(
            format!("{}.runq_ms_per_op", g.name()),
            per_op(d.runq_ns) / 1e6,
            "ms",
        );
        report.metric(
            format!("{}.wakeups_per_op", g.name()),
            per_op(d.wakeups),
            "count",
        );
    }
    for g in [Group::InMemory, Group::Tcp, Group::Frontend] {
        let d = group(g);
        report.metric(
            format!("{}.cpu_ms_per_op", g.name()),
            per_op(d.cpu_ns) / 1e6,
            "ms",
        );
        report.metric(
            format!("{}.wakeups_per_op", g.name()),
            per_op(d.wakeups),
            "count",
        );
    }
    for g in [Group::Client, Group::Other] {
        report.metric(
            format!("{}.cpu_ms_per_op", g.name()),
            per_op(group(g).cpu_ns) / 1e6,
            "ms",
        );
    }
    // Idle CPU of all node threads is a per-layer figure: run to run it
    // spreads wider than any end-to-end bound allows on a shared host.
    report.metric("idle_cpu_ms_per_s", idle_node_ms_per_s, "ms/s");
    report.metric(
        "orchestration.router.idle_wakeups_per_s",
        idle_router_wakeups_per_s,
        "1/s",
    );
    report.metric(
        "orchestration.router.idle_cpu_ms_per_s",
        idle_router_ms_per_s,
        "ms/s",
    );
    let server_ms = median(&server).expect("non-empty");
    report.metric(
        "service.overhead_ms",
        median(&overhead).expect("non-empty"),
        "ms",
    );
    report.metric("orchestration.server_ms", server_ms, "ms");
    report.metric(
        "setup.first_reply_ms",
        median(&first_replies).expect("set-ups ran"),
        "ms",
    );

    let crypto = replay::replay_crypto(
        w,
        args.seed,
        &good
            .iter()
            .map(|(r, _)| &window.ops[r.op])
            .collect::<Vec<_>>(),
        &mut journal,
    );
    report.metric("schemes.create_share_ms", crypto.create_ms, "ms");
    report.metric("schemes.verify_share_ms", crypto.verify_ms, "ms");
    report.metric("schemes.verify_batch_ms", crypto.verify_batch_ms, "ms");
    report.metric("schemes.combine_ms", crypto.combine_ms, "ms");
    report.metric("schemes.critical_path_ms", crypto.critical_path_ms, "ms");
    report.metric(
        "math.bn254_pairing_ms",
        replay::pairing_ms(&mut journal),
        "ms",
    );
    let sim_l50 = replay::sim_l50_ms(w, args.seed);
    report.metric(
        "model.overhead_ratio",
        server_ms / crypto.critical_path_ms,
        "ratio",
    );
    report.metric("sim.l50_ms", sim_l50, "ms");
    report.metric("sim.ratio", p50 / sim_l50, "ratio");

    // Each workload probes the transport it runs on; the other reads 0.
    let probe = replay::network_probe(w == Workload::MixedTcp4Open, args.seed, &mut journal)?;
    report.metric("network.inmemory.hop_us", probe.inmemory_hop_us, "us");
    report.metric(
        "network.tcp.hop_us.to_acceptor",
        probe.tcp_to_acceptor_us,
        "us",
    );
    report.metric("network.tcp.hop_us.to_dialer", probe.tcp_to_dialer_us, "us");
    report.metric("network.tcp.handshake_ms", probe.tcp_handshake_ms, "ms");

    let c = window.counters;
    report.metric("network.msgs_per_op", per_op(c.msgs), "count");
    report.metric("network.bytes_per_op", per_op(c.bytes), "B");
    report.metric(
        "orchestration.batch.flushes_per_op",
        per_op(c.flushes),
        "count",
    );
    report.metric(
        "orchestration.batch.checks_per_flush",
        c.checks as f64 / c.flushes.max(1) as f64,
        "count",
    );
    report.metric("orchestration.retries_per_op", per_op(c.retries), "count");
    report.metric(
        "orchestration.mailbox_dropped_per_op",
        per_op(c.mailbox_dropped),
        "count",
    );
    let late_ms: Vec<f64> = window
        .lateness
        .iter()
        .map(|d| d.as_secs_f64() * 1e3)
        .collect();
    report.metric(
        "bench.generator_late_ms",
        quantile(&late_ms, 0.95).unwrap_or(0.0),
        "ms",
    );
    report.metric("bench.cpu_accounting_gap_pct", gap, "%");

    let self_times = journal.self_times_ms();
    for (name, values) in &self_times {
        report.line(format!(
            "span {name} n={} self_p50_ms={:.4}",
            values.len(),
            median(values).unwrap_or(0.0)
        ));
    }
    let journal_path = results_path(w, args.seed, "spans.jsonl");
    match journal.write_jsonl(&journal_path) {
        Ok(()) => report.line(format!("span journal {}", journal_path.display())),
        Err(e) => report.line(format!("span journal not written: {e}")),
    }
    report_overhead(&mut report, w, args.seed, &e2e.metrics);
    Ok(report)
}

fn results_path(w: Workload, seed: u64, suffix: &str) -> PathBuf {
    let _ = std::fs::create_dir_all(RESULTS_DIR);
    PathBuf::from(RESULTS_DIR).join(format!("{}-seed{seed}-{suffix}", w.name()))
}

/// Tracing overhead: this traced run's end-to-end metrics minus those of
/// the last untraced run of the same workload and seed, when there is one.
fn report_overhead(report: &mut Report, w: Workload, seed: u64, traced: &[Metric]) {
    let Ok(untraced) = std::fs::read_to_string(results_path(w, seed, "trace0.txt")) else {
        report.line("trace overhead: no untraced run of this workload and seed to compare".into());
        return;
    };
    let base: BTreeMap<&str, f64> = untraced
        .lines()
        .filter_map(|l| {
            let mut f = l.strip_prefix("metric ")?.split(' ');
            Some((f.next()?, f.next()?.parse().ok()?))
        })
        .collect();
    for m in traced {
        if let Some(b) = base.get(m.name.as_str()) {
            report.line(format!(
                "trace overhead {} {:+} {} (traced {} vs untraced {b})",
                m.name,
                m.value - b,
                m.unit,
                m.value
            ));
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            if let Some(m) = report.metrics.iter().find(|m| !m.value.is_finite()) {
                eprintln!("perfbench: metric {} is {}", m.name, m.value);
                std::process::exit(1);
            }
            let mut text = String::new();
            for line in &report.lines {
                text.push_str(line);
                text.push('\n');
            }
            if args.trace {
                for m in &report.metrics {
                    let _ = writeln!(text, "layer {} {} {}", m.name, m.value, m.unit);
                }
            }
            text.push_str(&report.json());
            text.push('\n');
            print!("{text}");
            let suffix = if args.trace {
                "trace1.txt"
            } else {
                "trace0.txt"
            };
            let _ = std::fs::write(results_path(args.workload, args.seed, suffix), &text);
            std::process::exit(if report.correct { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Spins until the calling thread has spent `ms` more on CPU.
    fn burn(ms: u64) {
        let cpu = || {
            procstat::sample_self()
                .expect("thread-self readable")
                .cpu_ns
        };
        let until = cpu() + ms * 1_000_000;
        while cpu() < until {
            std::hint::black_box(0u64);
        }
    }

    #[test]
    fn client_threads_that_end_inside_the_window_still_count() {
        let ((), snapshots) = sampled("bench-spin", |exited| {
            std::thread::scope(|scope| {
                let helper = std::thread::Builder::new()
                    .name("bench-helper".into())
                    .spawn_scoped(scope, || {
                        burn(50);
                        procstat::sample_self()
                    })
                    .expect("spawn the helper");
                exited.extend(helper.join().expect("helper panicked"));
            });
            burn(50);
        });
        let last = snapshots.last().expect("closing snapshot");
        let live = procstat::sample_threads();
        let gone = |t: &ThreadSample| !live.iter().any(|l| l.tid == t.tid);
        assert_eq!(
            last.threads
                .iter()
                .filter(|t| t.group == Group::Client && gone(t))
                .count(),
            2,
            "both ended threads are in the closing snapshot"
        );
        let d = CpuDelta::between(&snapshots[0], last);
        assert!(
            d.groups[&Group::Client].cpu_ns >= 100_000_000,
            "client CPU {} ns",
            d.groups[&Group::Client].cpu_ns
        );
    }
}
