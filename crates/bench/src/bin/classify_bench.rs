//! Benchmarks the word-parallel compiled BSTCE kernels against the
//! reference scalar path on an ovarian-scale synthetic dataset and writes
//! the numbers to a JSON report.
//!
//! ```text
//! classify_bench [--preset quick|ovarian|l2-spill|llc-spill]
//!                [--scale K] [--samples N] [--seed S] [--queries N]
//!                [--kernel-block-bytes B] [--quick] [--out PATH]
//!                [--assert-speedup X] [--assert-kernel-speedup X]
//! ```
//!
//! `--preset ovarian` (the default) is the true ovarian shape: 15154
//! genes, 91 + 162 samples. `--preset quick` (alias `--quick`) is the CI
//! smoke mode (heavily scaled down, few queries). The spill presets keep
//! the ovarian sample split but grow the *gene* dimension so the
//! compiled mask table overflows a cache level: `l2-spill` pushes
//! `mask_working_set_bytes` past a 2 MiB L2, `llc-spill` well past it
//! (tens of MiB), which is where the cache-blocked sweep earns its keep.
//! Genes — not samples — are the right axis to spill on: the mask
//! stride and hence the popcount work per (column, query) pair scale
//! with genes, while extra samples mostly grow the per-column sort that
//! the SIMD kernels never touch. `--scale`, `--samples`, and
//! `--queries` override whatever the preset chose.
//!
//! The run trains once, lowers the model with [`BstcModel::compile`],
//! measures batch throughput for both paths plus the compiled per-query
//! latency distribution, and additionally re-times the batch sweep in its
//! pre-SIMD, pre-blocking form (portable dispatch forced, the frozen
//! legacy per-column kernels, one-column blocks — the exact passes and
//! loop order of the previous kernel) to report `kernel_speedup`, the
//! speedup attributable to this PR's kernel work alone. It **verifies all paths predict identically** (exits nonzero
//! otherwise) and writes `BENCH_classify.json` (or `--out`).
//! `--assert-speedup X` / `--assert-kernel-speedup X` exit nonzero when
//! the corresponding ratio lands under `X` (CI regression guards).

use bstc::{pool, Arithmetization, BstcModel, Scratch};
use discretize::Discretizer;
use microarray::simd;
use microarray::synth::presets;
use microarray::BitSet;
use serde::Serialize;
use std::time::Instant;

/// The JSON report, one file per run.
#[derive(Serialize)]
struct Report {
    dataset: String,
    preset: String,
    n_genes_raw: usize,
    n_items: usize,
    n_train: usize,
    n_queries: usize,
    /// Bytes of compiled mask data one full batch sweep streams through
    /// cache (all classes: satisfaction masks + class-expression rows).
    mask_working_set_bytes: usize,
    /// Which satisfaction-kernel dispatch the run used
    /// (`avx512` / `avx2` / `neon` / `portable`).
    simd_path: String,
    /// Column-block byte budget of the blocked sweep (the resolved
    /// value, never 0).
    kernel_block_bytes: usize,
    /// Lanes of the process-wide worker pool (1 = single-core host).
    pool_lanes: usize,
    train_secs: f64,
    compile_secs: f64,
    reference_batch_secs: f64,
    compiled_batch_secs: f64,
    reference_queries_per_sec: f64,
    compiled_queries_per_sec: f64,
    batch_speedup: f64,
    /// The same batch on the previous PR's kernel, frozen verbatim
    /// (`class_values_batch_into_legacy`): portable scalar dispatch,
    /// separate assign/count/difference passes, float-keyed sort,
    /// one-column blocks, single lane.
    kernel_baseline_secs: f64,
    /// The same batch on this PR's kernel: SIMD dispatch, fused
    /// single-pass set ops, cache-blocked columns, pooled lanes.
    kernel_secs: f64,
    /// `kernel_baseline_secs / kernel_secs` — speedup from the kernel
    /// work alone, independent of the compiled-vs-reference gap.
    kernel_speedup: f64,
    compiled_p50_us: f64,
    compiled_p99_us: f64,
    reference_p50_us: f64,
    reference_p99_us: f64,
    /// Per-stage pipeline breakdown from the `obs` global registry
    /// (`mdl_cuts`, `binarize`, `bst_build` ×classes, `compile`).
    stages: Vec<StageEntry>,
}

/// One pipeline stage in the report.
#[derive(Serialize)]
struct StageEntry {
    stage: String,
    count: u64,
    total_secs: f64,
}

/// Snapshot of the global stage registry as report entries.
fn stage_entries() -> Vec<StageEntry> {
    obs::global()
        .totals()
        .into_iter()
        .map(|t| StageEntry { stage: t.name, count: t.count, total_secs: t.sum_us as f64 / 1e6 })
        .collect()
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned())
}

fn parse_flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    parse_opt_flag(args, name).unwrap_or(default)
}

fn parse_opt_flag<T: std::str::FromStr>(args: &[String], name: &str) -> Option<T> {
    flag(args, name).map(|raw| {
        raw.parse().unwrap_or_else(|_| {
            eprintln!("error: bad value '{raw}' for {name}");
            std::process::exit(2);
        })
    })
}

/// What a `--preset` pre-selects; individual flags still override.
struct Preset {
    name: &'static str,
    /// Divisor for the ovarian gene count (`--scale`).
    scale: usize,
    /// Total training samples (`--samples`); `None` keeps the ovarian
    /// 91 + 162.
    samples: Option<usize>,
    /// Query-stream length (`--queries`).
    queries: usize,
}

/// The gene dimension is what makes a run popcount-bound (mask stride
/// scales with items ≈ genes), so the spill presets keep the ovarian
/// sample split and back off the gene divisor until the mask table
/// overflows the target cache level.
const PRESETS: &[Preset] = &[
    Preset { name: "quick", scale: 40, samples: None, queries: 256 },
    Preset { name: "ovarian", scale: 1, samples: None, queries: 1024 },
    Preset { name: "l2-spill", scale: 2, samples: None, queries: 512 },
    Preset { name: "llc-spill", scale: 1, samples: None, queries: 512 },
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let preset_name = flag(&args, "--preset")
        .unwrap_or_else(|| (if quick { "quick" } else { "ovarian" }).to_string());
    let preset = PRESETS.iter().find(|p| p.name == preset_name).unwrap_or_else(|| {
        eprintln!("error: unknown preset '{preset_name}' (quick|ovarian|l2-spill|llc-spill)");
        std::process::exit(2);
    });
    let scale: usize = parse_flag(&args, "--scale", preset.scale).max(1);
    let samples: Option<usize> = parse_opt_flag(&args, "--samples").or(preset.samples);
    let seed: u64 = parse_flag(&args, "--seed", 7);
    let n_queries: usize = parse_flag(&args, "--queries", preset.queries).max(1);
    let block_bytes: usize = parse_flag(&args, "--kernel-block-bytes", 0);
    let assert_speedup: Option<f64> = parse_opt_flag(&args, "--assert-speedup");
    let assert_kernel_speedup: Option<f64> = parse_opt_flag(&args, "--assert-kernel-speedup");
    let out = flag(&args, "--out").unwrap_or_else(|| "BENCH_classify.json".into());

    let mut config = presets::ovarian(seed).scaled_down(scale);
    if let Some(samples) = samples {
        // Same 2:1 split the ovarian preset uses, at the requested size.
        config.class_sizes = vec![(samples * 2).div_ceil(3), samples / 3];
    }
    eprintln!(
        "classify_bench[{}]: {} — {} genes, {:?} samples, {n_queries} queries",
        preset.name, config.name, config.n_genes, config.class_sizes
    );
    let cont = config.generate();
    let disc = Discretizer::fit(&cont);
    let data = disc.transform(&cont).unwrap_or_else(|e| {
        eprintln!("error: discretization produced no usable genes: {e}");
        std::process::exit(1);
    });
    eprintln!("discretized to {} items over {} samples", data.n_items(), data.n_samples());

    // Query stream: the training distribution, cycled to the requested
    // volume. Throughput is shape-bound (masks × queries), not
    // novelty-bound, so recycling rows is representative.
    let queries: Vec<BitSet> =
        (0..n_queries).map(|i| data.samples()[i % data.n_samples()].clone()).collect();

    let t0 = Instant::now();
    let model = BstcModel::train_with(&data, Arithmetization::Min);
    let train_secs = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let compiled = model.compile();
    let compile_secs = t0.elapsed().as_secs_f64();
    let mask_bytes = compiled.mask_bytes();
    eprintln!(
        "train {train_secs:.3}s, compile {compile_secs:.4}s, mask working set {:.2} MiB",
        mask_bytes as f64 / (1024.0 * 1024.0)
    );

    // Batch throughput, both paths parallel over the query set.
    let t0 = Instant::now();
    let reference_preds = model.classify_all(&queries);
    let reference_batch_secs = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let compiled_preds = compiled.classify_all(&queries);
    let compiled_batch_secs = t0.elapsed().as_secs_f64();

    if reference_preds != compiled_preds {
        let diverging = reference_preds
            .iter()
            .zip(&compiled_preds)
            .position(|(a, b)| a != b)
            .expect("lengths match");
        eprintln!("error: compiled path diverges from reference at query {diverging}");
        std::process::exit(1);
    }

    // Kernel-vs-kernel: the same batch sweep in its pre-SIMD shape —
    // portable dispatch, the frozen legacy per-column kernels (separate
    // assign/count/difference passes, float-keyed sort), one-column
    // blocks (the previous kernel's exact c-outer/q-inner traversal),
    // one lane — against this PR's SIMD + fused + cache-blocked + pooled
    // form. Both warmed so neither pays its first-call buffer growth
    // inside the timed region.
    simd::force_portable(true);
    let mut baseline_scratch = Scratch::new();
    baseline_scratch.set_block_bytes(1);
    compiled.class_values_batch_into_legacy(&queries, &mut baseline_scratch);
    let t0 = Instant::now();
    compiled.class_values_batch_into_legacy(&queries, &mut baseline_scratch);
    let kernel_baseline_secs = t0.elapsed().as_secs_f64();
    simd::force_portable(false);

    let mut scratch = Scratch::new();
    scratch.set_block_bytes(block_bytes);
    compiled.class_values_batch_into(&queries, pool::global(), &mut scratch);
    let t0 = Instant::now();
    compiled.class_values_batch_into(&queries, pool::global(), &mut scratch);
    let kernel_secs = t0.elapsed().as_secs_f64();

    // Bit-identity across kernels is a hard invariant, not a tolerance.
    for q in 0..n_queries {
        if baseline_scratch.values_of(q) != scratch.values_of(q) {
            eprintln!("error: blocked/SIMD kernel diverges from scalar baseline at query {q}");
            std::process::exit(1);
        }
    }

    // Per-query latency, sequential (the serving-path shape: one scratch,
    // one query at a time). Sampled, so the slow reference path doesn't
    // dominate the run at full scale.
    let latency_samples = n_queries.min(256);
    let per_query = |classify: &mut dyn FnMut(&BitSet) -> usize| -> Vec<u64> {
        let mut ns: Vec<u64> = queries[..latency_samples]
            .iter()
            .map(|q| {
                let t0 = Instant::now();
                std::hint::black_box(classify(q));
                t0.elapsed().as_nanos() as u64
            })
            .collect();
        ns.sort_unstable();
        ns
    };
    let compiled_ns = per_query(&mut |q| compiled.classify(q, &mut scratch));
    let reference_ns = per_query(&mut |q| model.classify(q));
    // Shared nearest-rank helper: the old truncating index under-reported
    // p99 on the 256-sample latency runs (read index 252, not 253).
    let pct = |sorted: &[u64], p: f64| obs::percentile_of_sorted(sorted, p) as f64 / 1e3;

    let report = Report {
        dataset: config.name.clone(),
        preset: preset.name.to_string(),
        n_genes_raw: config.n_genes,
        n_items: data.n_items(),
        n_train: data.n_samples(),
        n_queries,
        mask_working_set_bytes: mask_bytes,
        simd_path: simd::active_path().to_string(),
        kernel_block_bytes: if block_bytes == 0 {
            bstc::compiled::DEFAULT_KERNEL_BLOCK_BYTES
        } else {
            block_bytes
        },
        pool_lanes: pool::global().lanes(),
        train_secs,
        compile_secs,
        reference_batch_secs,
        compiled_batch_secs,
        reference_queries_per_sec: n_queries as f64 / reference_batch_secs,
        compiled_queries_per_sec: n_queries as f64 / compiled_batch_secs,
        batch_speedup: reference_batch_secs / compiled_batch_secs,
        kernel_baseline_secs,
        kernel_secs,
        kernel_speedup: kernel_baseline_secs / kernel_secs,
        compiled_p50_us: pct(&compiled_ns, 0.50),
        compiled_p99_us: pct(&compiled_ns, 0.99),
        reference_p50_us: pct(&reference_ns, 0.50),
        reference_p99_us: pct(&reference_ns, 0.99),
        stages: stage_entries(),
    };

    for s in &report.stages {
        println!("stage {}: {} span(s), {:.4}s total", s.stage, s.count, s.total_secs);
    }

    println!(
        "batch: reference {:.1} q/s, compiled {:.1} q/s — {:.1}x",
        report.reference_queries_per_sec, report.compiled_queries_per_sec, report.batch_speedup
    );
    println!(
        "kernel: scalar/unblocked {:.4}s, {}-blocked {:.4}s — {:.2}x \
         (masks {:.2} MiB, block {} KiB, {} lane(s))",
        report.kernel_baseline_secs,
        report.simd_path,
        report.kernel_secs,
        report.kernel_speedup,
        report.mask_working_set_bytes as f64 / (1024.0 * 1024.0),
        report.kernel_block_bytes / 1024,
        report.pool_lanes,
    );
    println!(
        "per-query: compiled p50 {:.1} us p99 {:.1} us, reference p50 {:.1} us p99 {:.1} us",
        report.compiled_p50_us,
        report.compiled_p99_us,
        report.reference_p50_us,
        report.reference_p99_us
    );

    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out, json + "\n").unwrap_or_else(|e| {
        eprintln!("error: cannot write {out}: {e}");
        std::process::exit(1);
    });
    eprintln!("wrote {out}");

    if let Some(min) = assert_speedup {
        if report.batch_speedup < min {
            eprintln!("error: batch_speedup {:.2} < required {min}", report.batch_speedup);
            std::process::exit(1);
        }
    }
    if let Some(min) = assert_kernel_speedup {
        if report.kernel_speedup < min {
            eprintln!("error: kernel_speedup {:.2} < required {min}", report.kernel_speedup);
            std::process::exit(1);
        }
    }
}
