//! End-to-end and per-layer benchmark of the agreement workspace.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one of four closed-loop batch-campaign workloads for `S` seconds,
//! checks every repetition's output with the independent checks of
//! [`checker`], and prints a human-readable report followed by one JSON
//! line. With `--trace 0` the JSON carries the end-to-end metrics; with
//! `--trace 1` it carries the per-layer metrics, timed from outside around
//! calls into the workspace's public functions, plus the tracing overhead.
//! See `README.md` for the workloads, the metrics and reference figures.

mod checker;
mod layers;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use agreement_analysis::JsonValue;

/// Every per-layer metric the traced run reports, with its unit. The same
/// list, with directions, is in `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.us_per_trial", "us"),
    ("sim.ns_per_delivery", "ns"),
    ("sim.deliveries_per_trial", "count"),
    ("sim.messages_per_trial", "count"),
    ("sim.time_units_per_trial", "count"),
    ("workspace.reinit_us", "us"),
    ("workspace.first_trial_ms", "ms"),
    ("record.distill_ns_per_trial", "ns"),
    ("render.jsonl_ns_per_trial", "ns"),
    ("render.report_ms", "ms"),
    ("render.jsonl_bytes_per_trial", "bytes"),
    ("block.encode_ns_per_record", "ns"),
    ("block.decode_ns_per_record", "ns"),
    ("block.bytes_per_record", "bytes"),
    ("transport.block_frame_us", "us"),
    ("transport.wire_bytes_per_trial", "bytes"),
    ("orchestrate.spawn_ms", "ms"),
    ("orchestrate.range_ms_p50", "ms"),
    ("orchestrate.range_ms_p90", "ms"),
    ("orchestrate.dispatch_gap_ms", "ms"),
    ("orchestrate.merge_tail_ms", "ms"),
    ("orchestrate.shutdown_ms", "ms"),
    ("checkpoint.append_us", "us"),
    ("orchestrate.ranges", "count"),
    ("orchestrate.redispatched", "count"),
    ("orchestrate.coordinator_cpu_ms_per_trial", "ms"),
    ("orchestrate.worker_cpu_ms_per_trial", "ms"),
    ("orchestrate.worker_peak_rss_mb", "MB"),
    ("search.eval_us_per_trial", "us"),
    ("search.adversary_build_ns", "ns"),
    ("search.fold_ns_per_trial", "ns"),
    ("search.corpus_size", "count"),
    ("search.best_decision_time", "windows"),
    ("trace.untraced_trials_per_s", "trials/s"),
    ("trace.traced_trials_per_s", "trials/s"),
    ("trace.overhead_pct", "%"),
    ("host.calibration_ms", "ms"),
];

/// The command line of one run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// One timed repetition: a whole closed-loop batch campaign, from its first
/// trial to its merged, rendered output.
#[derive(Debug, Clone, Copy)]
pub struct Rep {
    pub trials: u64,
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// What a workload hands back to be reported.
#[derive(Debug, Default)]
pub struct Outcome {
    pub reps: Vec<Rep>,
    /// Fresh set-up times, seconds.
    pub setups: Vec<f64>,
    pub peak_rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Per-layer values (traced runs only), keyed by [`PER_LAYER`] name.
    pub layers: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Runs `rep` for repetition 0, 1, 2, … until `seconds` have passed
    /// (always at least `min_reps`), counting each repetition as one
    /// operation: an `Err` is a failed operation and its timing is dropped.
    ///
    /// `setups` fresh set-ups are taken between repetitions, spread evenly
    /// over the run, so that `setup_s` samples the whole run rather than
    /// the host's state at its start. Each is one operation too.
    pub fn measure(
        &mut self,
        seconds: f64,
        min_reps: u64,
        setups: usize,
        mut setup: impl FnMut() -> Result<f64, String>,
        mut rep: impl FnMut(u64) -> Result<Rep, String>,
    ) {
        let start = Instant::now();
        let mut taken = 0;
        let mut index = 0;
        loop {
            let elapsed = start.elapsed().as_secs_f64();
            let done = index >= min_reps && elapsed >= seconds;
            while taken < setups && (done || elapsed >= seconds * taken as f64 / setups as f64) {
                self.attempted += 1;
                match setup() {
                    Ok(s) => self.setups.push(s),
                    Err(err) => self.fail(format!("set-up {taken}: {err}")),
                }
                taken += 1;
            }
            if done {
                break;
            }
            self.attempted += 1;
            match rep(index) {
                Ok(rep) => self.reps.push(rep),
                Err(err) => self.fail(format!("repetition {index}: {err}")),
            }
            index += 1;
        }
    }

    /// Records a failed operation.
    pub fn fail(&mut self, err: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(err);
        }
    }

    /// Counts one post-timing check as an operation.
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(err) = result {
            self.fail(format!("{what}: {err}"));
        }
    }

    /// Per-repetition trial rates.
    pub fn rates(&self) -> Vec<f64> {
        self.reps
            .iter()
            .map(|r| r.trials as f64 / r.wall_s)
            .collect()
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.layers.insert(name, value);
    }
}

/// Median and quartiles as Python's `statistics.quantiles(n=4)` (the
/// default "exclusive" method) computes them.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (f64::NAN, f64::NAN, f64::NAN);
    }
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let at = |q: f64| {
        let pos = q * (n + 1) as f64;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta.clamp(0.0, 1.0)
    };
    (at(0.25), at(0.5), at(0.75))
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// Mean of the non-empty `values`; `NaN` marks a missing measurement.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Reads under `/proc` for the process itself and the worker processes it
/// started.
pub mod procfs {
    /// CPU seconds of this process: the sum over its live threads of the
    /// nanosecond run time in `/proc/self/task/*/schedstat`.
    pub fn own_cpu_seconds() -> f64 {
        let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
            return 0.0;
        };
        let ns: u64 = tasks
            .flatten()
            .filter_map(|task| std::fs::read_to_string(task.path().join("schedstat")).ok())
            .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
            .sum();
        ns as f64 / 1e9
    }

    /// User plus system CPU seconds of process `pid`, including threads
    /// that already exited (clock ticks of 1/100 s).
    pub fn cpu_seconds(pid: u64) -> f64 {
        let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
            return 0.0;
        };
        // Fields after the parenthesised command name: state is field 3,
        // utime 14 and stime 15.
        let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| {
            fields
                .get(i)
                .and_then(|f| f.parse::<u64>().ok())
                .unwrap_or(0)
        };
        (ticks(11) + ticks(12)) as f64 / 100.0
    }

    /// Bytes sent over the loopback interface. `/proc/<pid>/io` counts no
    /// `send(2)` on sockets, which is how the transport writes, so the
    /// interface counter of `/proc/net/dev` is the source of wire bytes.
    pub fn loopback_bytes() -> u64 {
        std::fs::read_to_string("/proc/net/dev")
            .ok()
            .and_then(|t| {
                let line = t.lines().find(|l| l.trim_start().starts_with("lo:"))?;
                let fields: Vec<&str> = line.split_once(':')?.1.split_whitespace().collect();
                fields.get(8)?.parse().ok()
            })
            .unwrap_or(0)
    }

    fn field(path: &str, key: &str) -> Option<u64> {
        let text = std::fs::read_to_string(path).ok()?;
        let line = text.lines().find(|l| l.starts_with(key))?;
        line[key.len()..].split_whitespace().next()?.parse().ok()
    }

    /// Peak resident set of `pid` (`None` = this process), MB.
    pub fn peak_rss_mb(pid: Option<u64>) -> f64 {
        let path = match pid {
            Some(pid) => format!("/proc/{pid}/status"),
            None => "/proc/self/status".to_string(),
        };
        field(&path, "VmHWM:").unwrap_or(0) as f64 / 1024.0
    }

    /// The CPU model line of `/proc/cpuinfo`.
    pub fn cpu_model() -> String {
        std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|t| {
                t.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, m)| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string())
    }
}

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u8) -> i32;
}

/// Restricts this process, and every thread and child process it starts
/// afterwards, to the CPU it is running on.
///
/// # Errors
///
/// Returns the operating system's refusal.
pub fn pin_to_current_cpu() -> Result<usize, String> {
    // SAFETY: `sched_getcpu` takes no arguments and only reports the CPU the
    // calling thread runs on.
    let cpu = unsafe { sched_getcpu() };
    let cpu = usize::try_from(cpu).map_err(|_| std::io::Error::last_os_error().to_string())?;
    // A `cpu_set_t` of 1024 bits, as glibc defines it.
    let mut mask = [0u8; 128];
    *mask
        .get_mut(cpu / 8)
        .ok_or(format!("CPU {cpu} is beyond a 1024-bit CPU set"))? |= 1 << (cpu % 8);
    // SAFETY: `mask` is a live, initialised buffer of exactly the length
    // passed, which the call only reads; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, mask.len(), mask.as_ptr()) };
    if rc != 0 {
        return Err(format!(
            "pinning to CPU {cpu}: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

/// A fixed integer loop that is no part of the program: its time shows
/// whether a run was taken during a slow phase of the host.
fn calibration_ms() -> f64 {
    let start = Instant::now();
    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..20_000_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

/// Directory for the files a run writes (checkpoints), inside the
/// directory the benchmark is run from.
pub fn work_dir() -> PathBuf {
    PathBuf::from(".perfbench_work")
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or(format!(
        "--workload is required: one of {}",
        workloads::NAMES.join(", ")
    ))?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}: one of {}",
            workloads::NAMES.join(", ")
        ));
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn spread_line(name: &str, unit: &str, values: &[f64]) {
    let (q1, q2, q3) = quartiles(values);
    println!(
        "  {name:<22} median {q2:>12.4} {unit:<9} q1 {q1:.4} q3 {q3:.4} over {} samples",
        values.len()
    );
}

fn main() -> ExitCode {
    let mut raw = std::env::args().skip(1);
    // The sharded workload's worker processes are this same binary.
    if raw.next().as_deref() == Some("--worker") {
        let addr = match (raw.next().as_deref(), raw.next()) {
            (Some("--connect"), Some(addr)) => addr,
            _ => {
                eprintln!("usage: perfbench --worker --connect ADDR");
                return ExitCode::FAILURE;
            }
        };
        return match agreement_core::orchestrate::worker::serve(&addr) {
            Ok(()) => ExitCode::SUCCESS,
            Err(err) => {
                eprintln!("perfbench worker: {err}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::FAILURE;
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    // Every workload runs on the CPU the run starts on, and so do the
    // sharded workload's coordinator and worker (children inherit the mask,
    // so the worker's campaign runs one thread). Left to the scheduler,
    // three or more runnable threads on two cores moved the sharded rate up
    // to ±18% and its set-up time up to ±30% between runs, against ±11% and
    // ±2% pinned at about the same median rate; the search's rate moved
    // ±12% free and ±5% pinned. On one CPU the sharded run's per-record
    // layers run back to back, so each layer's cost shows in the rate.
    let cpu = match pin_to_current_cpu() {
        Ok(cpu) => cpu,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::FAILURE;
        }
    };
    let calibration = calibration_ms();
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "host nproc={nproc} cpu=\"{}\" pinned to CPU {cpu}",
        procfs::cpu_model()
    );
    println!("calibration loop {calibration:.3} ms (fixed work, no part of the program)");

    let result = workloads::run(&args);
    let _ = std::fs::remove_dir_all(work_dir());
    let mut outcome = match result {
        Ok(outcome) => outcome,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::FAILURE;
        }
    };

    let rates = outcome.rates();
    let trials: u64 = outcome.reps.iter().map(|r| r.trials).sum();
    let cpu: f64 = outcome.reps.iter().map(|r| r.cpu_s).sum();
    let cpu_ms_per_trial = cpu * 1e3 / trials as f64;
    println!(
        "end to end ({} repetitions, {trials} trials):",
        outcome.reps.len()
    );
    spread_line("trials_per_s", "trials/s", &rates);
    spread_line(
        "cpu_ms_per_trial",
        "ms",
        &outcome
            .reps
            .iter()
            .map(|r| r.cpu_s * 1e3 / r.trials as f64)
            .collect::<Vec<_>>(),
    );
    println!("  cpu_ms_per_trial over the whole run {cpu_ms_per_trial:.6} ms");
    spread_line("setup_s", "s", &outcome.setups);
    println!("  peak_rss_mb            {:.3} MB", outcome.peak_rss_mb);
    println!(
        "operations attempted {} failed {}",
        outcome.attempted, outcome.failed
    );
    for failure in &outcome.failures {
        println!("  FAILED {failure}");
    }

    let mut metrics = JsonValue::object();
    let mut put = |name: &str, value: f64, unit: &str| {
        let mut m = JsonValue::object();
        m.push("value", value).push("unit", unit);
        metrics.push(name, m);
    };
    let mut complete = true;
    if args.trace {
        outcome.set("host.calibration_ms", calibration);
        println!("per layer:");
        for &(name, unit) in PER_LAYER {
            match outcome.layers.get(name) {
                Some(&value) if value.is_finite() => {
                    println!("  {name:<42} {value:>14.4} {unit}");
                    put(name, value, unit);
                }
                _ => {
                    println!("  {name:<42} missing");
                    complete = false;
                }
            }
        }
    } else {
        put("trials_per_s", median(&rates), "trials/s");
        put("cpu_ms_per_trial", cpu_ms_per_trial, "ms");
        put("setup_s", median(&outcome.setups), "s");
        put("peak_rss_mb", outcome.peak_rss_mb, "MB");
    }
    let mut line = JsonValue::object();
    line.push(
        "correct",
        outcome.failed == 0 && complete && !rates.is_empty(),
    )
    .push("attempted", outcome.attempted)
    .push("failed", outcome.failed)
    .push("metrics", metrics);
    println!("{line}");
    ExitCode::SUCCESS
}
