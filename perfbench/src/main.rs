//! `perfbench`: the seculator serving benchmark.
//!
//! One run executes one workload for a fixed time and prints, as its last
//! stdout line, `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` they
//! are the per-layer ones from a traced pass (plus tracing overhead). See
//! `perfbench/NOTES.md` for every definition.
//!
//! ```text
//! perfbench --seculator <daemon binary> --work-dir <dir> \
//!     --workload <tcp|fanin-64|infer-mid> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! The secure datapath runs on one thread in this process (see
//! `NOTES.md`); `--shipped-datapath` runs a short untraced pass with the
//! datapath at its shipped thread count instead, which a traced run
//! starts as a child to compare the two.

mod fanin;
mod host;
mod infer;
mod shapes;
mod stats;
mod tcp;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use stats::{chunk_count, chunks, median, percentile, sorted, tail_supported, Sample};

/// The workloads, in the order a traced run visits them.
pub const WORKLOADS: [&str; 3] = ["tcp", "fanin-64", "infer-mid"];

/// Settings of one pass over one workload.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Workload seed: every input, weight, arrival gap and daemon seed
    /// derives from it.
    pub seed: u64,
    /// Measured time of the pass.
    pub seconds: f64,
    /// Record spans and per-layer figures.
    pub traced: bool,
    /// Set-ups made; `setup_s` is their median.
    pub setups: usize,
    /// The release `seculator` binary (daemon under test).
    pub seculator: PathBuf,
    /// Scratch directory inside the checkout.
    pub work: PathBuf,
}

impl Cfg {
    /// Deadline of the measured phase, counted from now.
    #[must_use]
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// A seeded splitmix64 stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Derives an independent stream from a seed and a label.
    #[must_use]
    pub fn derive(seed: u64, label: u64) -> Self {
        let mut r = Self(seed ^ label.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// One named figure with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Shorthand constructor for [`Metric`].
#[must_use]
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The end-to-end figures of one pass.
#[derive(Debug, Clone)]
pub struct E2e {
    pub setup_s: f64,
    pub throughput_rps: f64,
    pub latency_p50_ms: f64,
    pub latency_p90_ms: f64,
    /// Reported, not gated: too unsteady on a shared host (see NOTES.md).
    /// `None` when the run is too short to support it.
    pub latency_p99_ms: Option<f64>,
    pub latency_samples: usize,
    pub cpu_ms_per_req: f64,
    pub peak_rss_mb: f64,
    /// Per-chunk throughput, p50 and p90, in run order.
    pub chunks: [Vec<f64>; 3],
}

/// Raw measurements a workload hands back; [`Self::e2e`] condenses them.
#[derive(Debug, Default)]
pub struct Raw {
    pub setup_s: Vec<f64>,
    /// `(serving clock in s at completion, latency in ms)` of every
    /// completed, timed request. The serving clock runs only while
    /// requests are being served (checks between bursts are excluded).
    pub samples: Vec<Sample>,
    /// CPU time (benchmark + serving process) spent serving them.
    pub cpu_s: f64,
    pub peak_rss_kb: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Wrong outputs, pad collisions, collapsed activations, failed
    /// reconciliations: any entry fails the run.
    pub errors: Vec<String>,
    /// Per-layer figures (traced passes only).
    pub layers: Vec<Metric>,
    /// Extra lines for the information record.
    pub notes: Vec<(String, String)>,
}

impl Raw {
    /// Condenses the raw samples. Throughput and latency percentiles are
    /// medians over equal-count chunks of the run (see `NOTES.md`), so a
    /// few seconds of interference from outside move them less. With
    /// `enforce`, a run too short to support p90 is an error.
    #[must_use]
    pub fn e2e(&mut self, enforce: bool) -> E2e {
        let mut s = std::mem::take(&mut self.samples);
        s.sort_by(|a, b| a.0.total_cmp(&b.0));
        let n = s.len();
        if enforce && !tail_supported(n, 90.0) {
            self.errors.push(format!(
                "{n} latency samples cannot support p90 (need 10 beyond it)"
            ));
        }
        let chunk_stat = |p: f64, f: &dyn Fn(f64, &[Sample]) -> f64| -> Vec<f64> {
            chunks(&s, chunk_count(n, p))
                .into_iter()
                .map(|(start, c)| f(start, c))
                .collect()
        };
        let lat_pct = |p: f64| {
            move |_: f64, c: &[Sample]| percentile(&sorted(c.iter().map(|x| x.1).collect()), p)
        };
        let mid = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
        let chunk_rps = chunk_stat(50.0, &|start, c| {
            c.len() as f64 / (c[c.len() - 1].0 - start).max(1e-9)
        });
        let chunk_p50 = chunk_stat(50.0, &lat_pct(50.0));
        let chunk_p90 = chunk_stat(90.0, &lat_pct(90.0));
        E2e {
            setup_s: mid(&self.setup_s),
            throughput_rps: mid(&chunk_rps),
            latency_p50_ms: mid(&chunk_p50),
            latency_p90_ms: mid(&chunk_p90),
            latency_p99_ms: tail_supported(n, 99.0).then(|| mid(&chunk_stat(99.0, &lat_pct(99.0)))),
            latency_samples: n,
            cpu_ms_per_req: self.cpu_s * 1e3 / n.max(1) as f64,
            peak_rss_mb: self.peak_rss_kb / 1024.0,
            chunks: [chunk_rps, chunk_p50, chunk_p90],
        }
    }
}

impl E2e {
    /// The end-to-end metrics, in `BENCHMARK.json` order.
    #[must_use]
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            metric("setup_s", self.setup_s, "s"),
            metric("throughput_rps", self.throughput_rps, "1/s"),
            metric("latency_p50_ms", self.latency_p50_ms, "ms"),
            metric("latency_p90_ms", self.latency_p90_ms, "ms"),
            metric("cpu_ms_per_req", self.cpu_ms_per_req, "ms"),
            metric("peak_rss_mb", self.peak_rss_mb, "MB"),
        ]
    }
}

/// Set-ups per untraced pass; `setup_s` is their median, because single
/// set-ups vary by tens of percent. Each takes 10–100 ms.
const SETUPS: usize = 15;

fn run_workload(workload: &str, cfg: &Cfg) -> Result<Raw, String> {
    match workload {
        "tcp" => tcp::run(cfg),
        "fanin-64" => fanin::run(cfg),
        "infer-mid" => infer::run(cfg),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// JSON string literal.
#[must_use]
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number: finite values as Rust prints them (every digit kept);
/// a non-finite value is a bug in the benchmark.
fn json_num(v: f64) -> Result<String, String> {
    if v.is_finite() {
        Ok(format!("{v}"))
    } else {
        Err(format!("non-finite metric value {v}"))
    }
}

fn metrics_json(ms: &[Metric]) -> Result<String, String> {
    let mut parts = Vec::with_capacity(ms.len());
    for m in ms {
        parts.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(&m.name),
            json_num(m.value)?,
            json_str(m.unit)
        ));
    }
    Ok(format!("{{{}}}", parts.join(", ")))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    seculator: PathBuf,
    work: PathBuf,
    /// Keep the datapath's shipped thread count: one set-up, no p90
    /// floor, for the child pass of a traced run.
    shipped_datapath: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .cloned()
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = get("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (expected one of {WORKLOADS:?})"
        ));
    }
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    Ok(Args {
        workload,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace,
        seculator: PathBuf::from(get("--seculator")?),
        work: PathBuf::from(get("--work-dir")?),
        shipped_datapath: argv.iter().any(|a| a == "--shipped-datapath"),
    })
}

fn info_line(args: &Args, passes: &[(String, E2e, Raw)], steal_share: f64) -> String {
    let mut p = Vec::new();
    for (label, e, raw) in passes {
        let notes: Vec<String> = raw
            .notes
            .iter()
            .map(|(k, v)| format!("{}: {v}", json_str(k)))
            .collect();
        let p99 = e
            .latency_p99_ms
            .map_or("null".to_string(), |v| v.to_string());
        p.push(format!(
            "{{\"pass\": {}, \"attempted\": {}, \"failed\": {}, \"latency_samples\": {}, \
             \"latency_p99_ms\": {p99}, \"setup_samples_s\": {:?}, \"chunks\": \
             {{\"throughput_rps\": {:?}, \"latency_p50_ms\": {:?}, \"latency_p90_ms\": {:?}}}, \
             \"notes\": {{{}}}}}",
            json_str(label),
            raw.attempted,
            raw.failed,
            e.latency_samples,
            raw.setup_s,
            e.chunks[0],
            e.chunks[1],
            e.chunks[2],
            notes.join(", ")
        ));
    }
    format!(
        "{{\"perfbench\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"host\": {}, \"host_steal_share\": {steal_share}, \"passes\": [{}]}}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host::fingerprint(),
        p.join(", ")
    )
}

/// p50 latency of a short untraced `infer-mid` pass with the secure
/// datapath at its shipped thread count, run as a child process (the
/// thread count is fixed once per process). The child is waited for.
fn shipped_datapath_p50_ms(args: &Args, seconds: f64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", "infer-mid", "--trace", "0", "--shipped-datapath"])
        .arg("--seed")
        .arg(args.seed.to_string())
        .arg("--seconds")
        .arg(seconds.to_string())
        .arg("--seculator")
        .arg(&args.seculator)
        .arg("--work-dir")
        .arg(&args.work)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("shipped-datapath pass: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    if !out.status.success() || !last.starts_with("{\"correct\": true") {
        return Err(format!("shipped-datapath pass failed ({})", out.status));
    }
    let key = "\"latency_p50_ms\": {\"value\": ";
    last.split_once(key)
        .and_then(|(_, rest)| rest.split(',').next())
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| "shipped-datapath pass printed no latency_p50_ms".into())
}

/// The secure datapath's worker threads in this process. The shipped
/// default (`nproc`) spawns scoped threads for every parallel sweep; on a
/// shared 2-vCPU host that made a lone inference 8–50% slower in
/// interleaved runs, and its latency swung run to run with the
/// neighbours' load (see `NOTES.md`).
/// One thread keeps the process within `nproc` threads (the `fanin-64`
/// step workers) and compares a serial secure inference with the serial
/// `infer_plain`.
const DATAPATH_THREADS: usize = 1;

fn real_main() -> Result<bool, String> {
    let args = parse_args()?;
    std::fs::create_dir_all(&args.work).map_err(|e| format!("work dir: {e}"))?;
    if !args.shipped_datapath {
        rayon::ThreadPoolBuilder::new()
            .num_threads(DATAPATH_THREADS)
            .build_global()
            .map_err(|e| format!("datapath threads: {e}"))?;
    }
    let base = Cfg {
        seed: args.seed,
        seconds: args.seconds,
        traced: false,
        setups: if args.shipped_datapath { 1 } else { SETUPS },
        seculator: args.seculator.clone(),
        work: args.work.clone(),
    };
    let w = args.workload.as_str();
    let ticks0 = host::cpu_ticks();
    let mut passes: Vec<(String, E2e, Raw)> = Vec::new();
    let metrics = if args.trace {
        // Untraced and traced halves of the same workload give the
        // tracing overhead; short traced passes of the other workloads
        // and a shipped-datapath `infer-mid` pass complete the per-layer
        // set.
        let half = Cfg {
            seconds: args.seconds * 0.35,
            setups: 1,
            ..base.clone()
        };
        let mut plain = run_workload(w, &half)?;
        let plain_e = plain.e2e(false);
        let traced_cfg = Cfg {
            traced: true,
            ..half.clone()
        };
        let mut traced = run_workload(w, &traced_cfg)?;
        let traced_e = traced.e2e(false);
        let mut ms = Vec::new();
        for (a, b) in traced_e.metrics().iter().zip(plain_e.metrics()) {
            ms.push(metric(
                format!("trace_overhead.{}", a.name),
                a.value - b.value,
                a.unit,
            ));
        }
        passes.push((format!("{w} untraced"), plain_e, plain));
        ms.append(&mut traced.layers);
        passes.push((format!("{w} traced"), traced_e, traced));
        for other in WORKLOADS.iter().filter(|o| **o != w) {
            let cfg = Cfg {
                seconds: args.seconds * 0.1,
                ..traced_cfg.clone()
            };
            let mut raw = run_workload(other, &cfg)?;
            let e = raw.e2e(false);
            ms.append(&mut raw.layers);
            passes.push((format!("{other} traced"), e, raw));
        }
        let one_thread_p50 = passes
            .iter()
            .find(|(label, _, _)| label.starts_with("infer-mid"))
            .map_or(f64::NAN, |(_, e, _)| e.latency_p50_ms);
        let shipped_p50 = shipped_datapath_p50_ms(&args, args.seconds * 0.1)?;
        ms.extend([
            metric("datapath.shipped_threads_p50_ms", shipped_p50, "ms"),
            metric(
                "datapath.shipped_over_one_thread",
                shipped_p50 / one_thread_p50,
                "ratio",
            ),
        ]);
        ms
    } else {
        let mut raw = run_workload(w, &base)?;
        let e = raw.e2e(!args.shipped_datapath);
        let ms = e.metrics();
        passes.push((w.to_string(), e, raw));
        ms
    };
    let attempted: u64 = passes.iter().map(|(_, _, r)| r.attempted).sum();
    let failed: u64 = passes.iter().map(|(_, _, r)| r.failed).sum();
    let errors: Vec<&String> = passes.iter().flat_map(|(_, _, r)| &r.errors).collect();
    for e in &errors {
        eprintln!("perfbench: check failed: {e}");
    }
    let steal_share = match (ticks0, host::cpu_ticks()) {
        (Some((a0, s0)), Some((a1, s1))) if a1 > a0 => (s1 - s0) as f64 / (a1 - a0) as f64,
        _ => 0.0,
    };
    println!("{}", info_line(&args, &passes, steal_share));
    let correct = errors.is_empty() && failed == 0 && attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(&metrics)?
    );
    Ok(correct)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
