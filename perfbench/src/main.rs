//! End-to-end and per-layer benchmark of the spawn-merge stack.
//!
//! ```text
//! perfbench --workload <fanout_merge|session_commit|crash_recover>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run sets its workload up [`SETUP_REPS`] times (reporting the
//! median as `setup_s`) and measures for `--seconds` in all.
//! `--trace 0` measures an untraced share of the window on each set-up
//! and reports the end-to-end metrics over all of them. `--trace 1`
//! measures the last set-up only, interleaving untraced and traced
//! one-second blocks (an `sm_obs::Metrics` recorder installed during the
//! traced ones), and reports the per-layer metrics, taken from the
//! benchmark's own spans around calls into each crate plus the program's
//! existing counters and phase histograms. The last stdout line is the result object; the line
//! before it is a report with the host stamp and the details behind the
//! figures. See `NOTES.md` for the workloads and their metrics.

mod fanout;
mod procstat;
mod recover;
mod session;
mod stats;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sm_obs::{Metrics, MetricsSnapshot, Phase};

/// Full set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 10;

/// Length of one untraced or traced block in a `--trace 1` run.
const TRACE_BLOCK: Duration = Duration::from_secs(1);

/// Where the workloads keep their files, relative to the working
/// directory (the root of the checkout).
const WORK_DIR: &str = ".perfbench_work";

/// Every per-layer metric with its unit. A workload that bypasses a
/// layer reports 0 for that layer's metrics.
const LAYER_METRICS: &[(&str, &str)] = &[
    ("core.spawn_us", "us"),
    ("core.children_wait_ms", "ms"),
    ("core.merge_all_ms", "ms"),
    ("core.pool_threads_peak", "count"),
    ("core.pool_threads_created", "count"),
    ("core.pool_queue_wait_us", "us"),
    ("mergeable.staged_share", "ratio"),
    ("mergeable.merge_parallel_ms", "ms"),
    ("mergeable.state_apply_us", "us"),
    ("mergeable.commit_path_us", "us"),
    ("ot.rebase_delta_us", "us"),
    ("ot.rebase_grid_us", "us"),
    ("ot.grid_cells_per_child", "count"),
    ("ot.screen_rejects", "count"),
    ("ot.rebased_share", "ratio"),
    ("server.dispatch_us", "us"),
    ("server.handoff_us", "us"),
    ("store.wal_append_us", "us"),
    ("store.fsync_us", "us"),
    ("store.fsyncs_per_commit", "count"),
    ("store.wal_bytes_per_commit", "bytes"),
    ("store.open_ms", "ms"),
    ("store.recover_ms", "ms"),
    ("store.recovery_decode_ms", "ms"),
    ("store.recovery_apply_ms", "ms"),
    ("store.segments", "count"),
    ("store.replayed_ops", "count"),
    ("codec.encode_ns", "ns"),
    ("codec.decode_ns", "ns"),
    ("net.ping_rtt_us", "us"),
    ("process.sys_share", "ratio"),
    ("obs.overhead_pct", "%"),
    ("trace.coverage", "ratio"),
    ("trace.unattributed_us", "us"),
];

/// What one measured block of a workload produced.
#[derive(Debug, Default)]
pub struct Block {
    /// End-to-end operations completed (children merged, commits acked,
    /// or journal operations replayed).
    pub ops: u64,
    /// Operations attempted; `attempted - ops` of them failed.
    pub attempted: u64,
    /// Latency of each timed unit (a round, a commit, a recovery), ns.
    pub samples_ns: Vec<u64>,
}

impl Block {
    fn absorb(&mut self, other: Block) {
        self.ops += other.ops;
        self.attempted += other.attempted;
        self.samples_ns.extend(other.samples_ns);
    }
}

/// Per-layer figures a workload derives from its traced blocks.
#[derive(Debug, Default)]
pub struct Layers {
    /// Named per-layer values (names from [`LAYER_METRICS`]).
    pub values: Vec<(&'static str, f64)>,
    /// The non-overlapping layer spans inside the traced timed units,
    /// total ns each; their sum is the attributed time.
    pub attributed: Vec<(&'static str, f64)>,
}

/// A benchmark workload: set up in `setup`, then measured in blocks.
pub trait Workload: Sized {
    /// The percentile reported as `tail_ms`: the highest that would still
    /// leave [`stats::TAIL_MIN_ABOVE`] samples above it in a run half as
    /// fast as usual. It is fixed, so the metric keeps its meaning when a
    /// run makes more or fewer samples (a slower host, a faster program);
    /// a run too short for it falls back to [`stats::tail`]'s ladder.
    const TAIL_PERCENTILE: f64;
    /// Build inputs from `seed` and warm the program up. `rep`
    /// distinguishes concurrent set-up repetitions' files.
    fn setup(seed: u64, work: &Path, rep: usize) -> Self;
    /// Run the workload's load for `dur`; record layer spans when `traced`.
    fn block(&mut self, dur: Duration, traced: bool) -> Block;
    /// Per-layer figures of the traced blocks, given the program's
    /// metrics over them.
    fn layers(&mut self, metrics: &MetricsSnapshot) -> Layers;
    /// Verify the outputs, stop everything and delete the files.
    /// Returns the check failures (empty when all outputs are correct).
    fn finish(self) -> Vec<String>;
    /// Configuration to stamp into the report: `(key, value)` pairs.
    fn stamp(&self) -> Vec<(&'static str, String)>;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|&s| s > 0)
            .ok_or("--seconds must be positive")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let out = match args.workload.as_str() {
        "fanout_merge" => run::<fanout::FanoutMerge>(&args),
        "session_commit" => run::<session::SessionCommit>(&args),
        "crash_recover" => run::<recover::CrashRecover>(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    println!("{}", out.report);
    println!("{}", out.result);
}

struct Output {
    report: String,
    result: String,
}

/// Set up, measure, verify and render one run of workload `W`.
fn run<W: Workload>(args: &Args) -> Output {
    let work = PathBuf::from(WORK_DIR).join(&args.workload);
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).expect("create the work directory");
    let fs = procstat::fs_type(&work);
    // Read before set-up: a workload may confine the process to fewer CPUs.
    let nproc = procstat::nproc();

    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut failures = Vec::new();
    let seconds = Duration::from_secs(args.seconds);
    let mut untraced = Block::default();
    let mut traced = Block::default();
    let (mut untraced_wall, mut traced_wall) = (0.0f64, 0.0f64);
    let mut untraced_cpu = procstat::Cpu::default();
    let mut window_cpu = procstat::Cpu::default();
    let mut layers = None;
    let mut stamp = Vec::new();
    if args.trace {
        // Earlier set-ups are verified and torn down before the next
        // starts; the last one is measured.
        for rep in 1..SETUP_REPS {
            let t = Instant::now();
            let w = W::setup(args.seed, &work, rep);
            setup_s.push(t.elapsed().as_secs_f64());
            failures.extend(w.finish());
        }
        let t = Instant::now();
        let mut w = W::setup(args.seed, &work, 0);
        setup_s.push(t.elapsed().as_secs_f64());
        let metrics = Arc::new(Metrics::new());
        let window_cpu0 = procstat::cpu();
        let window_t0 = Instant::now();
        // Blocks follow the Thue–Morse order (untraced, traced, traced,
        // untraced, traced, untraced, untraced, traced, …) in whole
        // groups of eight, so a linear or quadratic drift over the window
        // weighs on both sides alike.
        let mut blocks = 0u32;
        while !blocks.is_multiple_of(8) || blocks == 0 || window_t0.elapsed() < seconds {
            let on = blocks.count_ones() % 2 == 1;
            if on {
                sm_obs::install(metrics.clone());
            }
            let (cpu0, t0) = (procstat::cpu(), Instant::now());
            let b = w.block(TRACE_BLOCK, on);
            let wall = t0.elapsed().as_secs_f64();
            if on {
                sm_obs::uninstall();
                traced.absorb(b);
                traced_wall += wall;
            } else {
                untraced_cpu = untraced_cpu.plus(procstat::cpu().since(cpu0));
                untraced.absorb(b);
                untraced_wall += wall;
            }
            blocks += 1;
        }
        window_cpu = procstat::cpu().since(window_cpu0);
        layers = Some(w.layers(&metrics.snapshot()));
        stamp = w.stamp();
        failures.extend(w.finish());
    } else {
        // The window is split evenly over the set-ups: each is measured
        // for its share, then verified and torn down. A fresh set-up's
        // state (where its data lands in memory, how its threads
        // interleave) moves a whole window's latency by up to 30%, so a
        // run pools several independent ones.
        for rep in 0..SETUP_REPS {
            let t = Instant::now();
            let mut w = W::setup(args.seed, &work, rep);
            setup_s.push(t.elapsed().as_secs_f64());
            let (cpu0, t0) = (procstat::cpu(), Instant::now());
            untraced.absorb(w.block(seconds / SETUP_REPS as u32, false));
            untraced_wall += t0.elapsed().as_secs_f64();
            untraced_cpu = untraced_cpu.plus(procstat::cpu().since(cpu0));
            stamp = w.stamp();
            failures.extend(w.finish());
        }
    }
    let peak_rss_mb = procstat::peak_rss_mb();
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(WORK_DIR);

    let attempted = untraced.attempted + traced.attempted;
    let failed = attempted.saturating_sub(untraced.ops + traced.ops);
    let mut sorted = untraced.samples_ns.clone();
    sorted.sort_unstable();

    let mut metrics_out: Vec<(&str, f64, &str)> = Vec::new();
    let mut report = Json::object();
    report.str("workload", &args.workload);
    let mut host = Json::object();
    host.num("nproc", nproc as f64);
    host.str("kernel", &procstat::kernel());
    host.str("store_fs", &fs);
    host.num("seed", args.seed as f64);
    host.num("seconds", args.seconds as f64);
    host.bool("traced", args.trace);
    for (k, v) in &stamp {
        host.str(k, v);
    }
    report.raw("stamp", &host.finish());
    report.raw("setup_s", &Json::array(&setup_s));
    report.num("samples", sorted.len() as f64);
    report.num("window_s", untraced_wall + traced_wall);
    report.raw(
        "failures",
        &format!(
            "[{}]",
            failures
                .iter()
                .map(|f| format!("\"{}\"", escape(f)))
                .collect::<Vec<_>>()
                .join(",")
        ),
    );

    if let Some(layers) = layers {
        let traced_units = traced.samples_ns.len().max(1) as f64;
        let e2e_ns: f64 = traced.samples_ns.iter().map(|&n| n as f64).sum();
        let attributed_ns: f64 = layers.attributed.iter().map(|(_, ns)| ns).sum();
        let unattributed_us = (e2e_ns - attributed_ns) / traced_units / 1e3;
        let rate = |b: &Block, wall: f64| b.ops as f64 / wall.max(1e-9);
        let overhead =
            (rate(&untraced, untraced_wall) / rate(&traced, traced_wall).max(1e-9) - 1.0) * 100.0;
        let mut values: BTreeMap<&str, f64> = layers.values.iter().copied().collect();
        values.insert(
            "process.sys_share",
            window_cpu.sys_s / window_cpu.total_s().max(1e-9),
        );
        values.insert("obs.overhead_pct", overhead);
        values.insert("trace.coverage", attributed_ns / e2e_ns.max(1.0));
        values.insert("trace.unattributed_us", unattributed_us);
        for (name, unit) in LAYER_METRICS {
            metrics_out.push((name, values.get(name).copied().unwrap_or(0.0), unit));
        }
        let mut breakdown = Json::object();
        for (name, ns) in &layers.attributed {
            breakdown.num(name, ns / traced_units / 1e3);
        }
        breakdown.num("unattributed", unattributed_us);
        report.raw("attribution_us_per_unit", &breakdown.finish());
        report.num("traced_ops_per_s", rate(&traced, traced_wall));
        report.num("untraced_ops_per_s", rate(&untraced, untraced_wall));
    } else {
        // Under 20 samples no ladder step leaves 10 above: report the max.
        let (tail_p, tail_ns) = stats::tail(&sorted, W::TAIL_PERCENTILE)
            .unwrap_or((100.0, sorted.last().copied().unwrap_or(0)));
        let ms = |ns: u64| ns as f64 / 1e6;
        metrics_out.push(("setup_s", stats::median(&setup_s), "s"));
        metrics_out.push(("ops_per_s", untraced.ops as f64 / untraced_wall, "1/s"));
        metrics_out.push(("p50_ms", ms(stats::percentile(&sorted, 50.0)), "ms"));
        metrics_out.push(("tail_ms", ms(tail_ns), "ms"));
        metrics_out.push(("peak_rss_mb", peak_rss_mb, "MiB"));
        metrics_out.push((
            "cpu_us_per_op",
            untraced_cpu.total_s() * 1e6 / untraced.ops.max(1) as f64,
            "us",
        ));
        report.num("tail_percentile", tail_p);
        report.num(
            "tail_samples_above",
            stats::samples_above(tail_p, sorted.len()) as f64,
        );
        report.num(
            "sys_share",
            untraced_cpu.sys_s / untraced_cpu.total_s().max(1e-9),
        );
    }

    let mut m = Json::object();
    let mut plain = Json::object();
    for (name, value, unit) in &metrics_out {
        let mut v = Json::object();
        v.num("value", *value);
        v.str("unit", unit);
        m.raw(name, &v.finish());
        plain.num(name, *value);
    }
    report.raw("metrics", &plain.finish());
    let mut result = Json::object();
    result.bool("correct", failures.is_empty());
    result.num("attempted", attempted.max(1) as f64);
    result.num("failed", failed as f64);
    result.raw("metrics", &m.finish());
    let mut wrapped = Json::object();
    wrapped.raw("report", &report.finish());
    Output {
        report: wrapped.finish(),
        result: result.finish(),
    }
}

/// Sum and count of a phase histogram.
pub fn phase(m: &MetricsSnapshot, p: Phase) -> (f64, u64) {
    let h = m.phase_nanos.get(p);
    (h.sum() as f64, h.count())
}

/// `num / den`, or 0 when nothing was counted.
pub fn per(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// A SplitMix64 stream: the benchmark's only source of input values.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated per `stream` label.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Order-sensitive digest of a `u64` sequence (a multiply-rotate fold:
/// cheap enough to check a million-element state on every operation).
pub fn digest_u64s(values: impl IntoIterator<Item = u64>) -> u64 {
    values.into_iter().fold(0x243F_6A88_85A3_08D3, |h, v| {
        (h ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29)
    })
}

/// Minimal JSON object writer for the benchmark's output lines.
struct Json(String);

impl Json {
    fn object() -> Self {
        Json(String::from("{"))
    }

    fn key(&mut self, k: &str) {
        if self.0.len() > 1 {
            self.0.push_str(", ");
        }
        let _ = write!(self.0, "\"{}\": ", escape(k));
    }

    fn num(&mut self, k: &str, v: f64) {
        self.key(k);
        self.0.push_str(&number(v));
    }

    fn str(&mut self, k: &str, v: &str) {
        self.key(k);
        let _ = write!(self.0, "\"{}\"", escape(v));
    }

    fn bool(&mut self, k: &str, v: bool) {
        self.key(k);
        let _ = write!(self.0, "{v}");
    }

    fn raw(&mut self, k: &str, v: &str) {
        self.key(k);
        self.0.push_str(v);
    }

    fn array(values: &[f64]) -> String {
        let items: Vec<String> = values.iter().map(|&v| number(v)).collect();
        format!("[{}]", items.join(", "))
    }

    fn finish(mut self) -> String {
        self.0.push('}');
        self.0
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives; non-finite values (never expected) become 0.
fn number(v: f64) -> String {
    if !v.is_finite() {
        return "0".into();
    }
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}
