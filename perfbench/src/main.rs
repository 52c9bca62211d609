//! perfbench: end-to-end and per-layer benchmark of the BSTC stack.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload train-wide --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Each workload runs in this process against the public APIs of the
//! repository's crates, checks every output, and prints as its last
//! stdout line one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! runs the same workload with spans around every layer call and
//! reports the per-layer metrics instead. See `perfbench/README.md`.

mod client;
mod host;
mod serving;
mod stats;
mod trace;
mod training;

use serde_json::{json, Value};
use stats::{median, Tally};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// How many times a run sets its workload up; `setup_s` is the median.
pub const SETUPS: usize = 3;

/// A run keeps measuring past `--seconds` until it has this many ops,
/// so a tail percentile (ten samples beyond it) always exists.
pub const MIN_OPS: usize = 11;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["train-wide", "train-tall", "serve-classify", "serve-reload"];

/// Per-layer metrics every traced run reports, with their units. A
/// layer a workload never calls reads 0.
pub const LAYER_METRICS: [(&str, &str); 40] = [
    ("io.tsv_parse_ms", "ms"),
    ("bmx.open_ms", "ms"),
    ("discretize.fit_ms", "ms"),
    ("discretize.transform_ms", "ms"),
    ("discretize.n_items", "count"),
    ("discretize.row_us", "us"),
    ("bst.build_ms", "ms"),
    ("bst.ns_per_pair", "ns"),
    ("bst.write_ms", "ms"),
    ("bst.model_json_bytes", "bytes"),
    ("bst.pairs", "count"),
    ("bst.distinct_lists", "count"),
    ("bst.arena_bytes", "bytes"),
    ("classify.resub_ms", "ms"),
    ("compiled.compile_ms", "ms"),
    ("compiled.mask_bytes", "bytes"),
    ("compiled.query_us", "us"),
    ("compiled.ns_per_mask_byte_query", "ns"),
    ("bundle.save_ms", "ms"),
    ("bundle.bytes", "bytes"),
    ("bundle.load_ms", "ms"),
    ("bundle.load_ns_per_byte", "ns"),
    ("bundle.load_size_exponent", "ratio"),
    ("json.request_decode_us", "us"),
    ("server.request_p50_us", "us"),
    ("server.request_p99_us", "us"),
    ("server.handoff_us", "us"),
    ("batcher.batch_size_mean", "count"),
    ("batcher.wait_us_mean", "us"),
    ("server.errors", "count"),
    ("server.shed", "count"),
    ("server.threads", "count"),
    ("registry.reload_ms", "ms"),
    ("registry.first_classify_ms", "ms"),
    ("stage.mdl_cuts_ms", "ms"),
    ("stage.binarize_ms", "ms"),
    ("stage.bst_build_ms", "ms"),
    ("stage.compile_ms", "ms"),
    ("stage.classify_batch_ms", "ms"),
    ("unattributed_ms", "ms"),
];

/// The per-workload trace metric reported beside the layers.
pub const TRACE_OVERHEAD: (&str, &str) = ("trace_overhead_pct", "%");

/// End-to-end metrics of an untraced run, with their units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed '{value}'"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad --seconds '{value}'"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got '{value}'")),
                })
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload '{workload}'"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// A scratch directory inside the working directory, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    fn create(workload: &str) -> std::io::Result<WorkDir> {
        let dir = Path::new(".bench_work").join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves `.bench_work` itself only if another run still uses it.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// One closed-loop measurement window.
#[derive(Default)]
pub struct Window {
    /// `(completion time in s since the window began, latency in ms)` of
    /// every op that completed correctly, in completion order.
    pub samples: Vec<(f64, f64)>,
    pub tally: Tally,
    pub elapsed_s: f64,
    /// The first few failure messages, for the record.
    pub errors: Vec<String>,
}

impl Window {
    /// Counts one op that finished `done_s` into the window.
    pub fn record(&mut self, done_s: f64, lat_ms: f64, result: Result<(), String>) {
        self.tally.record(result.is_ok());
        match result {
            Ok(()) => self.samples.push((done_s, lat_ms)),
            Err(e) if self.errors.len() < 5 => self.errors.push(e),
            Err(_) => {}
        }
    }

    /// Folds a concurrent client's window into this one.
    pub fn merge(&mut self, other: Window) {
        self.samples.extend(other.samples);
        self.samples.sort_by(|a, b| a.0.total_cmp(&b.0));
        self.tally.merge(other.tally);
        self.elapsed_s = self.elapsed_s.max(other.elapsed_s);
        for e in other.errors {
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
    }

    /// Latencies in completion order, in ms.
    pub fn lat_ms(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.1).collect()
    }

    pub fn p50_ms(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            median(&self.lat_ms())
        }
    }
}

/// Length and minimum op count of each measured phase: a traced run
/// splits `--seconds` between an untraced baseline and the traced phase,
/// and needs no tail percentile.
pub fn phase(args: &Args) -> (f64, usize) {
    if args.trace {
        (args.seconds / 2.0, 3)
    } else {
        (args.seconds, MIN_OPS)
    }
}

/// Runs `op` back to back for `seconds` (and at least `min_ops` times).
/// `op(i)` returns its own latency in ms — so replay work done after the
/// timed part stays out of it — and whether it was correct.
pub fn closed_loop(
    seconds: f64,
    min_ops: usize,
    mut op: impl FnMut(u64) -> (f64, Result<(), String>),
) -> Window {
    let mut w = Window::default();
    let start = Instant::now();
    let mut i = 0u64;
    while start.elapsed().as_secs_f64() < seconds || (i as usize) < min_ops {
        let (lat_ms, result) = op(i);
        w.record(start.elapsed().as_secs_f64(), lat_ms, result);
        i += 1;
    }
    w.elapsed_s = start.elapsed().as_secs_f64();
    w
}

/// What a workload hands back to the reporter.
#[derive(Default)]
pub struct Outcome {
    /// Duration of each setup, in seconds.
    pub setups_s: Vec<f64>,
    /// The untraced window (in a traced run: the baseline phase).
    pub window: Window,
    /// The traced phase of a traced run.
    pub traced: Option<Window>,
    pub peak_rss_mb: f64,
    /// Named once-per-run correctness checks.
    pub checks: Vec<(String, bool)>,
    /// Per-layer metrics (traced runs).
    pub layers: Vec<(&'static str, f64)>,
    /// Anything else worth keeping in the record.
    pub details: Vec<(String, Value)>,
}

impl Outcome {
    /// Adds a field to the record's `details`.
    pub fn detail(&mut self, key: &str, value: Value) {
        self.details.push((key.to_string(), value));
    }
}

fn metric(value: f64, unit: &str) -> Value {
    json!({"value": value, "unit": unit})
}

fn report(args: &Args, log_sink: &str, steal_pct: Option<f64>, out: Outcome) -> Result<(), String> {
    let mut tally = out.window.tally;
    if let Some(t) = &out.traced {
        tally.merge(t.tally);
    }
    let checks_ok = out.checks.iter().all(|(_, ok)| *ok);
    let correct = tally.failed == 0 && checks_ok && tally.attempted > 0;
    let lat = out.window.lat_ms();
    let tail = stats::blocked_tail(&lat, stats::TAIL_BLOCK);

    let mut metrics: Vec<(String, Value)> = Vec::new();
    if args.trace {
        let traced = out.traced.as_ref().ok_or("traced run without a traced phase")?;
        let base = out.window.p50_ms();
        let overhead = if base > 0.0 { 100.0 * (traced.p50_ms() / base - 1.0) } else { 0.0 };
        for (name, unit) in LAYER_METRICS {
            let value = out.layers.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, v)| *v);
            metrics.push((name.to_string(), metric(value, unit)));
        }
        metrics.push((TRACE_OVERHEAD.0.to_string(), metric(overhead, TRACE_OVERHEAD.1)));
    } else {
        let w = &out.window;
        let tail = tail.ok_or("fewer than 11 measured ops: no tail percentile")?;
        let values = [
            median(&out.setups_s),
            w.tally.succeeded() as f64 / w.elapsed_s,
            w.p50_ms(),
            tail.value,
            out.peak_rss_mb,
        ];
        for ((name, unit), value) in END_TO_END.iter().zip(values) {
            metrics.push((name.to_string(), metric(value, unit)));
        }
    }
    for (name, value) in &metrics {
        let unit = value.get("unit").and_then(Value::as_str).unwrap_or("");
        assert!(
            stats::valid_name(name) && stats::valid_unit(unit),
            "metric '{name}' [{unit}] is malformed"
        );
    }

    let record = json!({
        "record": "perfbench",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host::fingerprint(log_sink),
        // Outside load on this VM while the run lasted: a noisy run shows here.
        "steal_pct": steal_pct,
        "setups_s": out.setups_s,
        "window_s": out.window.elapsed_s,
        "ops": out.window.tally.attempted,
        "tail": tail.map(|t| json!({
            "percentile": t.percentile,
            "samples_per_block": t.samples,
            "blocks": t.blocks,
        })),
        // The same rule over the whole window, unblocked, for comparison.
        "whole_window_tail": stats::tail(&lat).map(|t| json!({
            "percentile": t.percentile,
            "value_ms": t.value,
        })),
        "checks": out.checks.iter().map(|(n, ok)| json!({"check": n, "ok": ok})).collect::<Vec<_>>(),
        "errors": out.window.errors.iter().chain(out.traced.iter().flat_map(|t| &t.errors)).cloned().collect::<Vec<String>>(),
        "details": Value::Map(out.details),
    });
    let result = json!({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": Value::Map(metrics),
    });
    let mut stdout = std::io::stdout().lock();
    for line in [record, result] {
        let text = serde_json::to_string(&line).map_err(|e| e.to_string())?;
        writeln!(stdout, "{text}").map_err(|e| format!("stdout: {e}"))?;
    }
    Ok(())
}

fn run(args: &Args) -> Result<(), String> {
    let work = WorkDir::create(&args.workload).map_err(|e| format!("work directory: {e}"))?;
    // Per-request info logs go to a file in the work directory, never to
    // the captured stderr; the default rate limit stays on.
    let log_path = work.path("serve.log");
    obs::log::set_file_sink(&log_path, 1 << 20, 1).map_err(|e| format!("log sink: {e}"))?;
    let log_sink = "file .bench_work/<run>/serve.log (rotate 1 MiB, keep 1, default rate limit)";
    let jiffies = host::cpu_jiffies();
    let outcome = match args.workload.as_str() {
        "train-wide" => training::train_wide(args, &work),
        "train-tall" => training::train_tall(args, &work),
        "serve-classify" => serving::serve_classify(args, &work),
        "serve-reload" => serving::serve_reload(args, &work),
        other => Err(format!("unknown workload '{other}'")),
    };
    obs::log::use_stderr();
    let steal = jiffies.zip(host::cpu_jiffies()).and_then(|(b, a)| host::steal_pct(&b, &a));
    report(args, log_sink, steal, outcome?)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_reported_name_and_unit_is_valid() {
        let all = LAYER_METRICS.iter().chain(END_TO_END.iter()).chain([&TRACE_OVERHEAD]);
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in all {
            assert!(stats::valid_name(name), "{name}");
            assert!(stats::valid_unit(unit), "{unit}");
            assert!(seen.insert(*name), "{name} listed twice");
        }
        for w in WORKLOADS {
            assert!(stats::valid_name(w), "{w}");
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_what_runs_report() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let spec: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            let entries = spec.get(key).and_then(Value::as_array).expect("a metric list");
            entries
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(listed("end_to_end"), owned(&END_TO_END));
        let mut layers = owned(&LAYER_METRICS);
        layers.push((TRACE_OVERHEAD.0.to_string(), TRACE_OVERHEAD.1.to_string()));
        assert_eq!(listed("per_layer"), layers);
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn failed_ops_count_as_attempted_and_keep_no_latency() {
        let mut n = 0;
        let w = closed_loop(0.0, MIN_OPS, |i| {
            n += 1;
            (i as f64, if i % 4 == 3 { Err(format!("op {i} wrong")) } else { Ok(()) })
        });
        assert_eq!(n, MIN_OPS);
        assert_eq!(w.tally.attempted, MIN_OPS as u64);
        assert_eq!(w.tally.failed, 2);
        assert_eq!(w.lat_ms(), vec![0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 8.0, 9.0, 10.0]);
        assert_eq!(w.errors, vec!["op 3 wrong".to_string(), "op 7 wrong".to_string()]);
    }

    #[test]
    fn merged_windows_stay_in_completion_order() {
        let mut a = Window::default();
        a.record(0.1, 1.0, Ok(()));
        a.record(0.3, 3.0, Ok(()));
        let mut b = Window::default();
        b.record(0.2, 2.0, Ok(()));
        b.record(0.4, 4.0, Err("wrong label".into()));
        a.merge(b);
        assert_eq!(a.lat_ms(), vec![1.0, 2.0, 3.0]);
        assert_eq!(a.tally, Tally { attempted: 4, failed: 1 });
        assert_eq!(a.errors, vec!["wrong label".to_string()]);
    }

    #[test]
    fn args_are_strict() {
        let ok: Vec<String> = "--workload serve-reload --seed 3 --seconds 2.5 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let a = parse_args(&ok).unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (3, 2.5, true));
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload train-wide --seed 1 --seconds 0 --trace 0",
            "--workload train-wide --seed x --seconds 1 --trace 0",
            "--workload train-wide --seed 1 --seconds 1 --trace 2",
            "--workload train-wide --seed 1 --seconds 1",
        ] {
            let v: Vec<String> = bad.split(' ').map(String::from).collect();
            assert!(parse_args(&v).is_err(), "{bad}");
        }
    }
}
