//! `bstc-cli` — command-line access to the whole pipeline, for using the
//! library on your own data without writing Rust:
//!
//! ```text
//! bstc-cli synth --preset oc --seed 7 --out expr.tsv     # or your own data
//! bstc-cli discretize --train expr.tsv --out items.tsv --cuts cuts.json
//! bstc-cli train --data items.tsv --model model.json
//! bstc-cli train --data expr.tsv --save bundle.json      # servable artifact
//! bstc-cli classify --model model.json --data items.tsv
//! bstc-cli mine --data items.tsv --class 1 -k 5
//! bstc-cli serve --model bundle.json --addr 127.0.0.1:8642
//! ```
//!
//! Continuous data uses the `#cont-microarray v1` TSV format, boolean data
//! `#bool-microarray v1` (see `microarray::io`).
//!
//! Exit codes: `0` success, `1` runtime failure (bad file, bad data),
//! `2` usage error (unknown command, unknown, missing or malformed flags).

use bstc::BstcModel;
use discretize::Discretizer;
use eval::SplitSpec;
use microarray::{io, BmxDataset, ColumnSource, ContinuousDataset};
use serve::{ModelBundle, Provenance, ServerConfig};
use std::fmt;
use std::fs::File;
use std::io::Write as _;
use std::path::Path;
use std::process::ExitCode;

/// The single CLI error type: every subcommand returns it, `main` maps it
/// to an exit code and a `error: ...` line on stderr.
#[derive(Debug)]
enum CliError {
    /// The invocation itself is wrong (exit code 2).
    Usage(String),
    /// The invocation was fine but running it failed (exit code 1).
    Run(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) | CliError::Run(msg) => f.write_str(msg),
        }
    }
}

/// Maps any displayable failure into a runtime error.
fn err<E: fmt::Display>(e: E) -> CliError {
    CliError::Run(e.to_string())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("--help") | Some("-h") | None => {
            eprintln!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(cmd) => check_flags(cmd, &args[1..])
            .and_then(|()| apply_log_flags(&args[1..]))
            .and_then(|()| match cmd {
                "synth" => cmd_synth(&args[1..]),
                "discretize" => cmd_discretize(&args[1..]),
                "train" => cmd_train(&args[1..]),
                "classify" => cmd_classify(&args[1..]),
                "mine" => cmd_mine(&args[1..]),
                "cv" => cmd_cv(&args[1..]),
                "cv-shard" => cmd_cv_shard(&args[1..]),
                "serve" => cmd_serve(&args[1..]),
                other => Err(CliError::Usage(format!("unknown command '{other}'\n{USAGE}"))),
            }),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            match e {
                CliError::Usage(_) => ExitCode::from(2),
                CliError::Run(_) => ExitCode::FAILURE,
            }
        }
    }
}

const USAGE: &str = "bstc-cli — Boolean Structure Table Classification

commands:
  synth      --preset all|lc|pc|oc|three|sample-scale [--seed N] [--scale K]
             [--genes N] [--class-sizes A,B,..] --out FILE.tsv|FILE.bmx
             (a .bmx target streams columns to disk — any sample count, flat RSS;
              sample-scale is the 2,600-sample BST-construction stress)
  discretize --train FILE.tsv [--apply FILE.tsv] --out FILE.tsv [--cuts FILE.json]
  train      --data FILE.tsv --model FILE.json [--bench-out FILE.json]
  train      --data FILE.bmx --model FILE.json [--chunk-bytes N]
             [--assert-peak-rss-mb MB]   (out-of-core: mmap + chunked streaming)
  train      --data FILE.tsv --save BUNDLE.json [--dataset NAME] [--seed N]
             [--bench-out FILE.json]   (stage breakdown -> BENCH_train.json)
  classify   --model FILE.json --data FILE.tsv
  mine       --data FILE.tsv --class N [-k K]
  cv         --data FILE.tsv|FILE.bmx [--spec 0.6|8,10] [--reps N] [--seed N]
             [--chunk-bytes N] [--shards K] [--out FILE.json]
             (sharded runs merge bit-identically to --shards 1; a .bmx source
              is checksum-verified once by the parent, not once per shard)
  cv-shard   --data FILE --spec SPEC --rep-start A --rep-end B --seed N
             [--chunk-bytes N] [--skip-checksum FNVHEX]
             (worker: one JSON document on stdout; --skip-checksum trusts the
              parent's verification and checks the .bmx header token only)
  serve      --model BUNDLE.json | --models-dir DIR [--addr HOST:PORT] [--threads N]
             [--queue-depth N] [--request-timeout SECS]  (0 disables the deadline)
             [--max-batch N]  (queued requests one compute thread batches; 1 = none)
             [--max-connections N]  (over-cap arrivals shed with 503)
             [--chunk-threshold BYTES]  (0 disables chunked responses)
             [--default-model NAME] [--max-resident N]  (0 = no residency cap)
             [--shadow PRIMARY=CANDIDATE[:PCT]]...  [--shadow-seed N]

every command also accepts the logging flags:
  [--log-format text|json] [--log-level debug|info|warn|error]
  [--log-file PATH [--log-rotate-bytes N] [--log-rotate-keep K]]";

/// The logging flags every command accepts (see [`apply_log_flags`]).
const LOG_FLAGS: &str = "--log-format --log-level --log-file --log-rotate-bytes --log-rotate-keep";

/// The flags `cmd` takes besides [`LOG_FLAGS`], space-separated; each
/// takes a value. `None` for an unknown command.
fn command_flags(cmd: &str) -> Option<&'static str> {
    Some(match cmd {
        "synth" => "--preset --out --seed --scale --genes --class-sizes",
        "discretize" => "--train --apply --out --cuts",
        "train" => {
            "--data --model --save --bench-out --chunk-bytes --assert-peak-rss-mb --dataset --seed"
        }
        "classify" => "--model --data",
        "mine" => "--data --class -k",
        "cv" => "--data --spec --reps --seed --chunk-bytes --shards --out",
        "cv-shard" => "--data --spec --rep-start --rep-end --seed --chunk-bytes --skip-checksum",
        "serve" => {
            "--model --models-dir --addr --threads --queue-depth --request-timeout --max-batch \
             --max-connections --chunk-threshold --default-model --max-resident --shadow \
             --shadow-seed"
        }
        _ => return None,
    })
}

/// Refuses any `-x`/`--x` that `cmd` does not take, so a misspelt or
/// removed flag is a usage error instead of being silently ignored.
/// Each known flag's value is skipped, so a value may start with `-`.
fn check_flags(cmd: &str, args: &[String]) -> Result<(), CliError> {
    let Some(flags) = command_flags(cmd) else { return Ok(()) };
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if !arg.starts_with('-') {
            continue;
        }
        if !flags.split_whitespace().chain(LOG_FLAGS.split_whitespace()).any(|f| f == arg) {
            return Err(CliError::Usage(format!(
                "unknown flag {arg} for {cmd} (bstc-cli --help lists each command's flags)"
            )));
        }
        rest.next();
    }
    Ok(())
}

/// Pulls `--flag value` pairs out of an argument list.
fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned())
}

/// Pulls *every* `--flag value` occurrence, for repeatable flags.
fn flags(args: &[String], name: &str) -> Vec<String> {
    args.iter()
        .enumerate()
        .filter(|(_, a)| *a == name)
        .filter_map(|(i, _)| args.get(i + 1).cloned())
        .collect()
}

fn require(args: &[String], name: &str) -> Result<String, CliError> {
    flag(args, name).ok_or_else(|| CliError::Usage(format!("missing {name} <value>")))
}

/// Parses an optional numeric flag, treating malformed values as usage
/// errors (`--seed banana` is the caller's typo, not a runtime failure).
fn parse_flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, CliError> {
    match flag(args, name) {
        None => Ok(None),
        Some(raw) => raw
            .parse()
            .map(Some)
            .map_err(|_| CliError::Usage(format!("bad value '{raw}' for {name}"))),
    }
}

/// Applies the logging flags every command shares: `--log-format`,
/// `--log-level`, and `--log-file PATH` with its rotation knobs
/// (`--log-rotate-bytes`, default 10 MiB; `--log-rotate-keep`, default
/// 3 rotated files). Runs before command dispatch so workers spawned by
/// `cv` inherit explicit flags rather than ambient state.
fn apply_log_flags(args: &[String]) -> Result<(), CliError> {
    if let Some(raw) = flag(args, "--log-format") {
        obs::log::set_format(raw.parse::<obs::LogFormat>().map_err(CliError::Usage)?);
    }
    if let Some(raw) = flag(args, "--log-level") {
        obs::log::set_level(raw.parse::<obs::Level>().map_err(CliError::Usage)?);
    }
    if let Some(path) = flag(args, "--log-file") {
        let max_bytes: u64 = parse_flag(args, "--log-rotate-bytes")?.unwrap_or(10 << 20);
        let keep: usize = parse_flag(args, "--log-rotate-keep")?.unwrap_or(3);
        obs::log::set_file_sink(Path::new(&path), max_bytes, keep)
            .map_err(|e| CliError::Run(format!("cannot open log file {path}: {e}")))?;
    }
    Ok(())
}

/// Peak resident set size of this process in MiB (`VmHWM` from
/// `/proc/self/status`); `None` off Linux.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Parses `--spec`: a fraction like `0.6`, or per-class training counts
/// like `8,10` (class 0 first — the paper's 1-x/0-y tests).
fn parse_spec(raw: &str) -> Result<SplitSpec, CliError> {
    if raw.contains(',') {
        let counts = raw
            .split(',')
            .map(|p| {
                p.trim()
                    .parse::<usize>()
                    .map_err(|_| CliError::Usage(format!("bad count '{p}' in --spec")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(SplitSpec::FixedCounts(counts))
    } else {
        let f: f64 = raw.parse().map_err(|_| {
            CliError::Usage(format!("bad --spec '{raw}' (fraction like 0.6, or counts like 8,10)"))
        })?;
        if !(f > 0.0 && f < 1.0) {
            return Err(CliError::Usage("--spec fraction must be in (0, 1)".into()));
        }
        Ok(SplitSpec::Fraction(f))
    }
}

/// The CV data argument, dispatched on extension: `.bmx` opens the
/// mmap-backed columnar reader (out-of-core), anything else reads the
/// continuous TSV into memory. Both stream through [`ColumnSource`].
enum CvSource {
    Mem(ContinuousDataset),
    Bmx(BmxDataset),
}

/// `trusted` carries a parent-verified `.bmx` checksum (the `cv`
/// parent's `--skip-checksum` handoff): when present, the worker opens
/// with [`BmxDataset::open_trusted`] — header token comparison only —
/// instead of re-streaming the whole file per shard. Ignored for TSV
/// sources, which have no checksum to skip.
fn open_source(path: &str, trusted: Option<u64>) -> Result<CvSource, CliError> {
    if path.ends_with(".bmx") {
        let data = match trusted {
            Some(token) => BmxDataset::open_trusted(Path::new(path), token),
            None => BmxDataset::open(Path::new(path)),
        };
        Ok(CvSource::Bmx(data.map_err(err)?))
    } else {
        Ok(CvSource::Mem(io::read_cont_tsv(File::open(path).map_err(err)?).map_err(err)?))
    }
}

impl ColumnSource for CvSource {
    fn n_genes(&self) -> usize {
        match self {
            CvSource::Mem(d) => ColumnSource::n_genes(d),
            CvSource::Bmx(d) => ColumnSource::n_genes(d),
        }
    }

    fn n_samples(&self) -> usize {
        match self {
            CvSource::Mem(d) => ColumnSource::n_samples(d),
            CvSource::Bmx(d) => ColumnSource::n_samples(d),
        }
    }

    fn n_classes(&self) -> usize {
        match self {
            CvSource::Mem(d) => ColumnSource::n_classes(d),
            CvSource::Bmx(d) => ColumnSource::n_classes(d),
        }
    }

    fn gene_names(&self) -> &[String] {
        match self {
            CvSource::Mem(d) => ColumnSource::gene_names(d),
            CvSource::Bmx(d) => ColumnSource::gene_names(d),
        }
    }

    fn class_names(&self) -> &[String] {
        match self {
            CvSource::Mem(d) => ColumnSource::class_names(d),
            CvSource::Bmx(d) => ColumnSource::class_names(d),
        }
    }

    fn labels(&self) -> &[microarray::ClassId] {
        match self {
            CvSource::Mem(d) => ColumnSource::labels(d),
            CvSource::Bmx(d) => ColumnSource::labels(d),
        }
    }

    fn column_into(&self, g: usize, out: &mut Vec<f64>) {
        match self {
            CvSource::Mem(d) => d.column_into(g, out),
            CvSource::Bmx(d) => d.column_into(g, out),
        }
    }

    fn evict_hint(&self, genes: std::ops::Range<usize>) {
        match self {
            CvSource::Mem(d) => d.evict_hint(genes),
            CvSource::Bmx(d) => d.evict_hint(genes),
        }
    }
}

fn cmd_synth(args: &[String]) -> Result<(), CliError> {
    let preset = require(args, "--preset")?;
    let out = require(args, "--out")?;
    let seed: u64 = parse_flag(args, "--seed")?.unwrap_or(42);
    let scale: usize = parse_flag(args, "--scale")?.unwrap_or(10);
    let mut cfg = match preset.as_str() {
        "all" => microarray::synth::presets::all_aml(seed),
        "lc" => microarray::synth::presets::lung(seed),
        "pc" => microarray::synth::presets::prostate(seed),
        "oc" => microarray::synth::presets::ovarian(seed),
        "three" => microarray::synth::presets::three_class(seed),
        "sample-scale" => microarray::synth::presets::sample_scale(seed),
        other => {
            return Err(CliError::Usage(format!(
                "unknown preset '{other}' (all|lc|pc|oc|three|sample-scale)"
            )))
        }
    }
    .scaled_down(scale.max(1));
    // Dimension overrides, mainly for growing a preset far beyond the
    // paper's sizes (the .bmx path below handles millions of samples).
    if let Some(n) = parse_flag::<usize>(args, "--genes")? {
        cfg.n_genes = n;
    }
    if let Some(raw) = flag(args, "--class-sizes") {
        let sizes = raw
            .split(',')
            .map(|p| {
                p.trim()
                    .parse::<usize>()
                    .map_err(|_| CliError::Usage(format!("bad count '{p}' in --class-sizes")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        if sizes.len() != cfg.class_sizes.len() {
            return Err(CliError::Usage(format!(
                "--class-sizes needs {} comma-separated counts for preset '{preset}'",
                cfg.class_sizes.len()
            )));
        }
        cfg.class_sizes = sizes;
    }
    if out.ends_with(".bmx") {
        // Columnar streaming: each (sample, gene) value is computed from
        // a counter-based hash, so columns are written one at a time and
        // RSS stays flat no matter how many samples are requested.
        let synth = microarray::synth::StreamingSynth::new(cfg).map_err(CliError::Usage)?;
        synth.write_bmx(Path::new(&out)).map_err(err)?;
        eprintln!(
            "wrote {} ({} genes x {} samples, streamed columnar)",
            out,
            synth.config().n_genes,
            synth.n_samples()
        );
        return Ok(());
    }
    let data = cfg.generate();
    io::write_cont_tsv(&data, File::create(&out).map_err(err)?).map_err(err)?;
    eprintln!(
        "wrote {} ({} genes x {} samples, classes {:?})",
        out,
        data.n_genes(),
        data.n_samples(),
        data.class_names()
    );
    Ok(())
}

fn cmd_discretize(args: &[String]) -> Result<(), CliError> {
    let train_path = require(args, "--train")?;
    let out = require(args, "--out")?;
    let train = io::read_cont_tsv(File::open(&train_path).map_err(err)?).map_err(err)?;
    let disc = Discretizer::fit(&train);
    let target = match flag(args, "--apply") {
        Some(p) => io::read_cont_tsv(File::open(&p).map_err(err)?).map_err(err)?,
        None => train.clone(),
    };
    let boolean = disc.transform(&target).map_err(err)?;
    io::write_bool_tsv(&boolean, File::create(&out).map_err(err)?).map_err(err)?;
    eprintln!(
        "selected {} of {} genes -> {} items; wrote {}",
        disc.selected_genes().len(),
        train.n_genes(),
        boolean.n_items(),
        out
    );
    if let Some(cuts_path) = flag(args, "--cuts") {
        std::fs::write(&cuts_path, serde_json::to_string_pretty(&disc).map_err(err)?)
            .map_err(err)?;
        eprintln!("wrote fitted discretizer to {cuts_path}");
    }
    Ok(())
}

/// One pipeline stage of the training breakdown, as recorded by the
/// `obs` global registry.
#[derive(serde::Serialize)]
struct StageEntry {
    stage: String,
    count: u64,
    total_secs: f64,
}

/// The `BENCH_train.json` report: per-stage decomposition of one
/// `train` invocation (the paper's Tables 4–7 are exactly such
/// per-stage cost claims). Streamed runs additionally record the chunk
/// budget, the on-disk matrix size, and the observed peak RSS — the
/// out-of-core claim is `peak_rss_mb` ≪ `matrix_bytes`.
#[derive(serde::Serialize)]
struct TrainReport {
    data: String,
    mode: &'static str,
    total_secs: f64,
    peak_rss_mb: Option<f64>,
    chunk_bytes: Option<usize>,
    matrix_bytes: Option<usize>,
    /// (c, h) pairs swept by BST construction across all columns.
    bst_pairs: u64,
    /// Exclusion lists that survived interning (arena entries).
    bst_distinct_lists: u64,
    /// Bytes held by the exclusion-list arenas after interning.
    bst_arena_bytes: u64,
    stages: Vec<StageEntry>,
}

/// Prints the per-stage breakdown and writes it to `--bench-out`
/// (default `BENCH_train.json`). `stream` carries a chunked run's
/// `(chunk_bytes, matrix_bytes)`. A failed report write is a warning,
/// not an error: the model artifact was already written.
fn report_train_stages(
    args: &[String],
    data_path: &str,
    mode: &'static str,
    total_secs: f64,
    stream: Option<(usize, usize)>,
) {
    let stages: Vec<StageEntry> = obs::global()
        .totals()
        .into_iter()
        .map(|t| StageEntry { stage: t.name, count: t.count, total_secs: t.sum_us as f64 / 1e6 })
        .collect();
    eprintln!("stage breakdown ({total_secs:.3}s total):");
    for s in &stages {
        eprintln!("  {:<12} {:>4} span(s)  {:.4}s", s.stage, s.count, s.total_secs);
    }
    let out = flag(args, "--bench-out").unwrap_or_else(|| "BENCH_train.json".into());
    let counters = obs::counters();
    let report = TrainReport {
        data: data_path.to_string(),
        mode,
        total_secs,
        peak_rss_mb: peak_rss_mb(),
        chunk_bytes: stream.map(|(c, _)| c),
        matrix_bytes: stream.map(|(_, m)| m),
        bst_pairs: counters.get("bstc_bst_pairs_total"),
        bst_distinct_lists: counters.get("bstc_bst_distinct_lists_total"),
        bst_arena_bytes: counters.get("bstc_bst_arena_bytes_total"),
        stages,
    };
    match serde_json::to_string_pretty(&report) {
        Ok(json) => match std::fs::write(&out, json + "\n") {
            Ok(()) => eprintln!("wrote stage report to {out}"),
            Err(e) => eprintln!("warning: cannot write {out}: {e}"),
        },
        Err(e) => eprintln!("warning: cannot serialize stage report: {e}"),
    }
}

/// Writes a trained model's JSON straight from the arena to disk via
/// [`BstcModel::write_json_to`] — byte-identical to `serde_json::
/// to_string` but without materializing the value tree or the string,
/// which at sample scale would briefly double the training peak RSS.
/// The writer encodes without `core::fmt` and hands the file bounded
/// ~64 KiB chunks. On the CI 600 + 700-sample tall shape (a 70 MB model,
/// 2-vCPU host) `train --model` went from ~1.0 s to ~0.54 s wall, and
/// the write now takes ~0.1 s against ~0.4 s of BST build. Timed as the
/// `model_write` stage of the `--bench-out` report.
fn write_model_json(model: &BstcModel, path: &str) -> Result<(), CliError> {
    let _stage = obs::Stage::enter("model_write");
    let mut w = std::io::BufWriter::new(File::create(path).map_err(err)?);
    model.write_json_to(&mut w).map_err(err)?;
    std::io::Write::flush(&mut w).map_err(err)?;
    Ok(())
}

fn cmd_train(args: &[String]) -> Result<(), CliError> {
    let data_path = require(args, "--data")?;
    if data_path.ends_with(".bmx") {
        if flag(args, "--save").is_some() {
            return Err(CliError::Usage(
                "--save trains a bundle from continuous TSV; a .bmx input trains \
                 an out-of-core --model instead"
                    .into(),
            ));
        }
        return train_bmx(args, &data_path);
    }
    if let Some(bundle_path) = flag(args, "--save") {
        return train_bundle(args, &data_path, &bundle_path);
    }
    let model_path = require(args, "--model")?;
    let data = io::read_bool_tsv(File::open(&data_path).map_err(err)?).map_err(err)?;
    if let Some(c) = data.first_empty_class() {
        return Err(CliError::Run(format!(
            "class {c} ('{}') has no samples",
            data.class_names()[c]
        )));
    }
    let t0 = std::time::Instant::now();
    let model = BstcModel::train(&data);
    write_model_json(&model, &model_path)?;
    let total_secs = t0.elapsed().as_secs_f64();
    eprintln!(
        "trained BSTC on {} samples / {} items / {} classes; wrote {}",
        data.n_samples(),
        data.n_items(),
        data.n_classes(),
        model_path
    );
    report_train_stages(args, &data_path, "model", total_secs, None);
    Ok(())
}

/// `train` on a `.bmx` input: mmap the columnar file and stream the
/// discretizer fit + binarization in gene chunks under `--chunk-bytes`,
/// so the expression matrix is never resident — training works on files
/// (much) larger than memory. `--assert-peak-rss-mb` turns the claim
/// into a hard check against `VmHWM` (how CI pins the bounded-RSS
/// smoke).
fn train_bmx(args: &[String], data_path: &str) -> Result<(), CliError> {
    let model_path = require(args, "--model")?;
    let chunk_bytes: usize = parse_flag(args, "--chunk-bytes")?.unwrap_or(64 << 20);
    if chunk_bytes == 0 {
        return Err(CliError::Usage("--chunk-bytes must be at least 1".into()));
    }
    let data = BmxDataset::open(Path::new(data_path)).map_err(err)?;
    let matrix_bytes = data.n_genes() * data.n_samples() * 8;
    let t0 = std::time::Instant::now();
    let disc = Discretizer::fit_source(&data, chunk_bytes);
    let boolean = disc.transform_source(&data, chunk_bytes).map_err(err)?;
    if let Some(c) = boolean.first_empty_class() {
        return Err(CliError::Run(format!(
            "class {c} ('{}') has no samples",
            boolean.class_names()[c]
        )));
    }
    let model = BstcModel::train(&boolean);
    write_model_json(&model, &model_path)?;
    let total_secs = t0.elapsed().as_secs_f64();
    eprintln!(
        "trained BSTC out-of-core on {} samples / {} genes -> {} items / {} classes \
         ({} MiB matrix, {} MiB chunk budget); wrote {}",
        data.n_samples(),
        data.n_genes(),
        boolean.n_items(),
        boolean.n_classes(),
        matrix_bytes >> 20,
        chunk_bytes >> 20,
        model_path
    );
    report_train_stages(
        args,
        data_path,
        "bmx-stream",
        total_secs,
        Some((chunk_bytes, matrix_bytes)),
    );
    if let Some(budget_mb) = parse_flag::<f64>(args, "--assert-peak-rss-mb")? {
        let peak = peak_rss_mb()
            .ok_or_else(|| CliError::Run("cannot read VmHWM from /proc/self/status".into()))?;
        if peak > budget_mb {
            return Err(CliError::Run(format!(
                "peak RSS {peak:.1} MiB exceeds the {budget_mb} MiB budget"
            )));
        }
        eprintln!("peak RSS {peak:.1} MiB within the {budget_mb} MiB budget");
    }
    Ok(())
}

/// `train --save`: fit the discretizer + train BSTC on a *continuous* TSV
/// and write a servable, checksummed [`ModelBundle`].
fn train_bundle(args: &[String], data_path: &str, bundle_path: &str) -> Result<(), CliError> {
    let data = io::read_cont_tsv(File::open(data_path).map_err(err)?).map_err(|e| {
        CliError::Run(format!(
            "{e}\n(--save trains from raw continuous data — '#cont-microarray v1', \
             the `synth` output — because the bundle embeds the fitted cut points)"
        ))
    })?;
    let dataset = flag(args, "--dataset").unwrap_or_else(|| data_path.to_string());
    let seed: Option<u64> = parse_flag(args, "--seed")?;
    let t0 = std::time::Instant::now();
    // Training lowers the model to measure resubstitution accuracy, so
    // the `compile` stage appears in the breakdown.
    let bundle = ModelBundle::train(&data, Provenance::new(dataset, seed)).map_err(err)?;
    let total_secs = t0.elapsed().as_secs_f64();
    bundle.save(bundle_path).map_err(err)?;
    eprintln!(
        "trained BSTC on {} samples / {} genes -> {} items / {} classes \
         (train accuracy {:.1}%); wrote bundle {}",
        data.n_samples(),
        bundle.n_genes(),
        bundle.item_names.len(),
        bundle.n_classes(),
        100.0 * bundle.provenance.train_accuracy.unwrap_or(0.0),
        bundle_path
    );
    report_train_stages(args, data_path, "bundle", total_secs, None);
    Ok(())
}

fn cmd_classify(args: &[String]) -> Result<(), CliError> {
    let model_path = require(args, "--model")?;
    let data_path = require(args, "--data")?;
    let model: BstcModel =
        serde_json::from_str(&std::fs::read_to_string(&model_path).map_err(err)?).map_err(err)?;
    let data = io::read_bool_tsv(File::open(&data_path).map_err(err)?).map_err(err)?;
    // A model from another discretization would panic in the kernel.
    model.check_structure(data.n_items()).map_err(|e| {
        CliError::Run(format!(
            "model {model_path} does not fit {data_path} ({} items): {e}",
            data.n_items()
        ))
    })?;
    // One batch pass of the compiled kernel over every row (bit-identical
    // to Algorithm 5); Algorithm 6 selects from each row's values.
    let mut scratch = bstc::Scratch::new();
    model.compile().class_values_batch_into(data.samples(), bstc::pool::global(), &mut scratch);
    let mut correct = 0usize;
    // A closed pipe (e.g. `| head`) is a normal way to consume CLI output:
    // ignore write errors instead of panicking.
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    for s in 0..data.n_samples() {
        let values = scratch.values_of(s);
        let pred = bstc::select_class(values);
        let _ = writeln!(
            out,
            "sample {s}: {} (values {:?})",
            data.class_names().get(pred).cloned().unwrap_or_else(|| pred.to_string()),
            values.iter().map(|v| (v * 1000.0).round() / 1000.0).collect::<Vec<_>>()
        );
        if pred == data.label(s) {
            correct += 1;
        }
    }
    let _ = out.flush();
    eprintln!(
        "accuracy vs file labels: {}/{} = {:.2}%",
        correct,
        data.n_samples(),
        100.0 * correct as f64 / data.n_samples() as f64
    );
    Ok(())
}

fn cmd_mine(args: &[String]) -> Result<(), CliError> {
    let data_path = require(args, "--data")?;
    let class: usize = require(args, "--class")?
        .parse()
        .map_err(|_| CliError::Usage("bad value for --class (expected an index)".into()))?;
    let k: usize = parse_flag(args, "-k")?.unwrap_or(5);
    let data = io::read_bool_tsv(File::open(&data_path).map_err(err)?).map_err(err)?;
    if class >= data.n_classes() {
        return Err(CliError::Run(format!("class {class} out of range (0..{})", data.n_classes())));
    }
    let bst = bstc::Bst::build(&data, class);
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    for rule in bstc::mine_topk(&bst, k) {
        if rule.car_items.is_empty() {
            continue;
        }
        let _ = writeln!(
            out,
            "support {:>3}  car-confidence {:.2}  {}",
            rule.support_len(),
            rule.car_confidence(),
            bstc::display_bar(&rule.to_bar(&bst), &data)
        );
    }
    let _ = out.flush();
    Ok(())
}

/// One completed replicate on the wire between `cv-shard` and its
/// parent. Accuracy crosses as the hex of its `f64` bits — JSON float
/// round-trips would blur the bit-identity the shard merge guarantees —
/// and `pred_hash` witnesses the actual prediction sequence. `secs` is
/// informational and excluded from equivalence.
#[derive(serde::Serialize, serde::Deserialize)]
struct RepJson {
    rep: usize,
    accuracy_bits: String,
    pred_hash: String,
    secs: f64,
}

impl RepJson {
    fn from_result(rep: usize, r: &eval::ReplicateResult) -> RepJson {
        RepJson {
            rep,
            accuracy_bits: format!("{:016x}", r.accuracy.to_bits()),
            pred_hash: format!("{:016x}", r.pred_hash),
            secs: r.secs,
        }
    }

    fn accuracy(&self) -> Option<f64> {
        u64::from_str_radix(&self.accuracy_bits, 16).ok().map(f64::from_bits)
    }
}

/// Serde mirror of [`obs::SpanRecord`] (obs stays std-only, so the
/// conversion lives here with the shard protocol).
#[derive(serde::Serialize, serde::Deserialize)]
struct SpanJson {
    id: u64,
    parent: Option<u64>,
    name: String,
    fields: Vec<(String, String)>,
    start_us: u64,
    dur_us: u64,
}

impl From<&obs::SpanRecord> for SpanJson {
    fn from(s: &obs::SpanRecord) -> SpanJson {
        SpanJson {
            id: s.id,
            parent: s.parent,
            name: s.name.clone(),
            fields: s.fields.clone(),
            start_us: s.start_us,
            dur_us: s.dur_us,
        }
    }
}

impl SpanJson {
    fn into_record(self) -> obs::SpanRecord {
        obs::SpanRecord {
            id: self.id,
            parent: self.parent,
            name: self.name,
            fields: self.fields,
            start_us: self.start_us,
            dur_us: self.dur_us,
        }
    }
}

/// What a `cv-shard` worker prints on stdout: its replicate range, the
/// completed replicates (skipped ones are simply absent), and its span
/// records for the parent to graft into the joined trace tree.
#[derive(serde::Serialize, serde::Deserialize)]
struct ShardOutput {
    rep_start: usize,
    rep_end: usize,
    replicates: Vec<RepJson>,
    trace: Vec<SpanJson>,
}

/// The merged result `cv --out` writes: one entry per completed
/// replicate in replicate order, identical whether the run was
/// single-process or sharded.
#[derive(serde::Serialize)]
struct CvOutput {
    spec: String,
    reps: usize,
    seed: u64,
    chunk_bytes: usize,
    shards: usize,
    mean_accuracy: Option<f64>,
    replicates: Vec<RepJson>,
}

/// Runs replicates `rep_start..rep_end`, one `replicate` span each
/// (parented under `parent`, or as roots for a worker whose spans the
/// parent will graft). Replicate `r` seeds its split with
/// `base_seed + 1000*r` — the [`eval::draw_splits`] schedule — which is
/// the whole shard-merge determinism story.
#[allow(clippy::too_many_arguments)]
fn run_rep_range<S: ColumnSource>(
    source: &S,
    spec: &SplitSpec,
    rep_start: usize,
    rep_end: usize,
    base_seed: u64,
    chunk_bytes: usize,
    trace: &obs::Trace,
    parent: Option<u64>,
) -> Vec<RepJson> {
    let mut out = Vec::new();
    for r in rep_start..rep_end {
        let span = trace.span("replicate", parent);
        span.add_field("rep", &r.to_string());
        let seed = base_seed.wrapping_add(1000 * r as u64);
        match eval::run_replicate_streamed(source, spec, seed, chunk_bytes) {
            Some(res) => {
                let acc = format!("{:.4}", res.accuracy);
                span.add_field("accuracy", &acc);
                obs::log::info("replicate", &[("rep", r.to_string().as_str()), ("accuracy", &acc)]);
                out.push(RepJson::from_result(r, &res));
            }
            None => {
                span.add_field("skipped", "no_informative_genes");
                obs::log::warn("replicate_skipped", &[("rep", r.to_string().as_str())]);
            }
        }
    }
    out
}

/// `cv`: the 25-replicate streaming CV driver. Single-process by
/// default; `--shards K` fans contiguous replicate ranges out to
/// `cv-shard` child processes and merges their results — bit-identical
/// to the single-process run because each replicate's split seed
/// depends only on its index. Prints the joined shard → replicate trace
/// tree and a summary to stderr; `--out` writes the merged JSON.
fn cmd_cv(args: &[String]) -> Result<(), CliError> {
    let data_path = require(args, "--data")?;
    let spec_raw = flag(args, "--spec").unwrap_or_else(|| "0.6".into());
    let spec = parse_spec(&spec_raw)?;
    let reps: usize = parse_flag(args, "--reps")?.unwrap_or(25);
    let seed: u64 = parse_flag(args, "--seed")?.unwrap_or(42);
    let chunk_bytes: usize = parse_flag(args, "--chunk-bytes")?.unwrap_or(64 << 20);
    let shards: usize = parse_flag(args, "--shards")?.unwrap_or(1).max(1);
    if reps == 0 {
        return Err(CliError::Usage("--reps must be at least 1".into()));
    }
    let trace = obs::Trace::new();
    let cv_span = trace.begin("cv", None);
    let mut replicates: Vec<RepJson>;
    if shards == 1 {
        let source = open_source(&data_path, None)?;
        let shard_span = trace.begin("shard", Some(cv_span));
        trace.add_field(shard_span, "shard_id", "0");
        replicates =
            run_rep_range(&source, &spec, 0, reps, seed, chunk_bytes, &trace, Some(shard_span));
        trace.end(shard_span);
    } else {
        let exe = std::env::current_exe().map_err(err)?;
        // Verify a .bmx source once in the parent — full checksum +
        // finiteness stream — then hand the checksum to every worker so
        // K shards cost one verification pass instead of K. The open
        // is dropped immediately: the parent only needs the token.
        let trusted_token = if data_path.ends_with(".bmx") {
            let verified = BmxDataset::open(Path::new(&data_path)).map_err(err)?;
            obs::log::info(
                "cv_checksum_verified",
                &[("data", data_path.as_str()), ("fnv", &format!("{:016x}", verified.checksum()))],
            );
            Some(verified.checksum())
        } else {
            None
        };
        let mut children = Vec::new();
        for k in 0..shards {
            let (lo, hi) = (reps * k / shards, reps * (k + 1) / shards);
            if lo == hi {
                continue;
            }
            let mut shard_args = vec![
                "cv-shard".to_string(),
                "--data".to_string(),
                data_path.clone(),
                "--spec".to_string(),
                spec_raw.clone(),
                "--rep-start".to_string(),
                lo.to_string(),
                "--rep-end".to_string(),
                hi.to_string(),
                "--seed".to_string(),
                seed.to_string(),
                "--chunk-bytes".to_string(),
                chunk_bytes.to_string(),
            ];
            if let Some(token) = trusted_token {
                shard_args.push("--skip-checksum".to_string());
                shard_args.push(format!("{token:016x}"));
            }
            let child = std::process::Command::new(&exe)
                .args(&shard_args)
                .stdout(std::process::Stdio::piped())
                .spawn()
                .map_err(|e| CliError::Run(format!("cannot spawn cv-shard worker: {e}")))?;
            children.push((k, child));
        }
        replicates = Vec::new();
        for (k, child) in children {
            let output = child.wait_with_output().map_err(err)?;
            if !output.status.success() {
                return Err(CliError::Run(format!(
                    "cv-shard worker {k} failed with {}",
                    output.status
                )));
            }
            let raw = String::from_utf8(output.stdout)
                .map_err(|_| CliError::Run(format!("cv-shard worker {k} wrote invalid UTF-8")))?;
            let shard: ShardOutput = serde_json::from_str(&raw).map_err(|e| {
                CliError::Run(format!("cv-shard worker {k} wrote unparseable output: {e}"))
            })?;
            let shard_span = trace.begin("shard", Some(cv_span));
            trace.add_field(shard_span, "shard_id", &k.to_string());
            trace.add_field(shard_span, "reps", &format!("{}..{}", shard.rep_start, shard.rep_end));
            let records: Vec<obs::SpanRecord> =
                shard.trace.into_iter().map(SpanJson::into_record).collect();
            trace.adopt(shard_span, &records);
            trace.end(shard_span);
            obs::log::info(
                "shard_done",
                &[
                    ("shard", k.to_string().as_str()),
                    ("reps", &format!("{}..{}", shard.rep_start, shard.rep_end)),
                    ("completed", &shard.replicates.len().to_string()),
                ],
            );
            replicates.extend(shard.replicates);
        }
        replicates.sort_by_key(|r| r.rep);
    }
    trace.end(cv_span);
    let accs: Vec<f64> = replicates.iter().filter_map(RepJson::accuracy).collect();
    let mean = (!accs.is_empty()).then(|| accs.iter().sum::<f64>() / accs.len() as f64);
    eprintln!(
        "cv: {}/{} replicates completed, spec {}, mean accuracy {}",
        replicates.len(),
        reps,
        spec.label(),
        mean.map_or_else(|| "n/a".into(), |m| format!("{:.4}", m)),
    );
    eprint!("{}", trace.render_tree());
    if let Some(out_path) = flag(args, "--out") {
        let report = CvOutput {
            spec: spec_raw,
            reps,
            seed,
            chunk_bytes,
            shards,
            mean_accuracy: mean,
            replicates,
        };
        std::fs::write(&out_path, serde_json::to_string_pretty(&report).map_err(err)? + "\n")
            .map_err(err)?;
        eprintln!("wrote merged results to {out_path}");
    }
    Ok(())
}

/// `cv-shard`: one worker of a sharded `cv` run. Runs its replicate
/// range and prints a [`ShardOutput`] JSON document on stdout for the
/// parent to merge; logs go to stderr (or the file sink) as usual.
fn cmd_cv_shard(args: &[String]) -> Result<(), CliError> {
    let data_path = require(args, "--data")?;
    let spec = parse_spec(&require(args, "--spec")?)?;
    let rep_start: usize = parse_flag(args, "--rep-start")?
        .ok_or_else(|| CliError::Usage("missing --rep-start <value>".into()))?;
    let rep_end: usize = parse_flag(args, "--rep-end")?
        .ok_or_else(|| CliError::Usage("missing --rep-end <value>".into()))?;
    if rep_end < rep_start {
        return Err(CliError::Usage("--rep-end must be >= --rep-start".into()));
    }
    let seed: u64 = parse_flag(args, "--seed")?.unwrap_or(42);
    let chunk_bytes: usize = parse_flag(args, "--chunk-bytes")?.unwrap_or(64 << 20);
    let trusted = match flag(args, "--skip-checksum") {
        Some(hex) => Some(u64::from_str_radix(&hex, 16).map_err(|_| {
            CliError::Usage(format!("--skip-checksum wants 16 hex digits, got '{hex}'"))
        })?),
        None => None,
    };
    let source = open_source(&data_path, trusted)?;
    let trace = obs::Trace::new();
    let replicates =
        run_rep_range(&source, &spec, rep_start, rep_end, seed, chunk_bytes, &trace, None);
    let out = ShardOutput {
        rep_start,
        rep_end,
        replicates,
        trace: trace.records().iter().map(SpanJson::from).collect(),
    };
    println!("{}", serde_json::to_string(&out).map_err(err)?);
    Ok(())
}

/// `serve`: run the inference server until killed — either a single
/// bundle (`--model`) or a whole fleet loaded from `--models-dir`, one
/// model per `NAME.json`, routed at `/v1/models/{NAME}/classify`.
/// `POST /reload` (or `/v1/models/{NAME}/reload`) re-reads the model's
/// artifact, so retraining + reload needs no restart.
fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    let bundle_path = flag(args, "--model");
    let models_dir = flag(args, "--models-dir");
    if bundle_path.is_none() && models_dir.is_none() {
        return Err(CliError::Usage("serve needs --model BUNDLE.json or --models-dir DIR".into()));
    }
    if bundle_path.is_some() && models_dir.is_some() {
        return Err(CliError::Usage("--model and --models-dir are mutually exclusive".into()));
    }
    let addr = flag(args, "--addr").unwrap_or_else(|| "127.0.0.1:8642".to_string());
    let threads: usize = parse_flag(args, "--threads")?.unwrap_or(0);
    let defaults = ServerConfig::default();
    let queue_depth: usize = parse_flag(args, "--queue-depth")?.unwrap_or(defaults.queue_depth);
    // Wall-clock budget per request in (possibly fractional) seconds;
    // `--request-timeout 0` switches the deadline off entirely.
    let request_timeout = match parse_flag::<f64>(args, "--request-timeout")? {
        None => defaults.request_timeout,
        Some(secs) if secs <= 0.0 => None,
        Some(secs) if secs.is_finite() => Some(std::time::Duration::from_secs_f64(secs)),
        Some(_) => return Err(CliError::Usage("bad value for --request-timeout".into())),
    };
    // Most already-queued requests one compute thread drains into a
    // batch; 1 turns coalescing off.
    let max_batch: usize = parse_flag(args, "--max-batch")?.unwrap_or(defaults.max_batch);
    if max_batch == 0 {
        return Err(CliError::Usage("--max-batch must be at least 1".into()));
    }
    // Concurrent-connection cap: arrivals beyond it get an immediate
    // `503` + `Retry-After`. Idle keep-alive connections count, so this
    // also bounds the fd footprint; the soft fd limit is raised to
    // match (best effort — a low hard limit just shrinks the headroom).
    let max_connections: usize =
        parse_flag::<usize>(args, "--max-connections")?.unwrap_or(defaults.max_connections).max(1);
    if let Ok(limit) = serve::sys::raise_nofile_limit(max_connections as u64 + 128) {
        if limit < max_connections as u64 + 16 {
            eprintln!(
                "warning: RLIMIT_NOFILE {limit} is below --max-connections {max_connections}; \
                 accepts will fail before the admission cap sheds"
            );
        }
    }
    // Response bodies above this many bytes stream to HTTP/1.1 clients
    // with chunked transfer-encoding; `--chunk-threshold 0` disables
    // chunked responses entirely.
    let chunk_threshold: usize =
        parse_flag(args, "--chunk-threshold")?.unwrap_or(defaults.chunk_threshold);
    // Registry knobs: residency cap on compiled models, shadow routes
    // (repeatable `--shadow primary=candidate:pct`), and the seed that
    // makes the shadow sample reproducible.
    let default_model = flag(args, "--default-model");
    let max_resident: usize = parse_flag(args, "--max-resident")?.unwrap_or(0);
    let shadows = flags(args, "--shadow")
        .iter()
        .map(|raw| serve::ShadowSpec::parse(raw).map_err(CliError::Usage))
        .collect::<Result<Vec<_>, _>>()?;
    let shadow_seed: u64 = parse_flag(args, "--shadow-seed")?.unwrap_or(defaults.shadow_seed);
    let config = ServerConfig {
        addr,
        threads,
        queue_depth,
        request_timeout,
        max_batch,
        max_connections,
        chunk_threshold,
        bundle_path: bundle_path.as_ref().map(std::path::PathBuf::from),
        models_dir: models_dir.as_ref().map(std::path::PathBuf::from),
        default_model,
        max_resident,
        shadows,
        shadow_seed,
        ..defaults
    };
    let handle = match bundle_path {
        Some(ref path) => {
            let bundle = ModelBundle::load(path).map_err(err)?;
            eprintln!(
                "loaded bundle {} (dataset '{}', {} genes, {} classes: {:?})",
                path,
                bundle.provenance.dataset,
                bundle.n_genes(),
                bundle.n_classes(),
                bundle.class_names
            );
            serve::serve(config, bundle).map_err(err)?
        }
        None => {
            let handle = serve::serve_models(config).map_err(err)?;
            eprintln!("loaded model fleet from {}", models_dir.unwrap());
            handle
        }
    };
    eprintln!(
        "serving on http://{} (POST /classify, GET /health|/model|/metrics, /v1/models/*)",
        handle.addr()
    );
    handle.wait();
    Ok(())
}
