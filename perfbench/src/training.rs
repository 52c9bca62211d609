//! The two training workloads.
//!
//! * `train-wide` — the `train --save` path on the paper's ALL/AML shape
//!   (7,129 genes × 72 samples): `ModelBundle::train` + `compiled()` +
//!   `save_to_writer` into memory.
//! * `train-tall` — the `.bmx` `train --model` path on a tall cohort
//!   (600 + 700 samples × 48 genes): streaming discretizer fit and
//!   transform, `BstcModel::train`, and `write_json_to` through a
//!   buffered writer into a sink that counts and digests the bytes.

use crate::stats::median;
use crate::trace::{ObsMeter, Summary, Tracer};
use crate::{closed_loop, Args, Outcome, Window, WorkDir, SETUPS};
use bstc::{BstcModel, Scratch};
use discretize::Discretizer;
use microarray::synth::{presets, StreamingSynth, SynthConfig};
use microarray::{io, BitSet, BmxDataset, ClassId, ContinuousDataset};
use serde_json::json;
use serve::{ModelBundle, Provenance};
use std::io::{BufWriter, Write};
use std::time::Instant;

/// Held-out samples per class for the compiled-vs-reference check.
const HELD_OUT_PER_CLASS: usize = 8;

/// `--chunk-bytes` of the `.bmx` training path (the CLI's default).
const CHUNK_BYTES: usize = 64 << 20;

/// Discarded warm-up ops per setup.
const WARMUP_OPS: usize = 1;

pub fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// A cohort drawn from `cfg` with `held_out_per_class` extra samples per
/// class, split into the training samples (`cfg`'s class sizes) and the
/// held-out rows with their labels.
pub fn cohort(
    cfg: &SynthConfig,
    held_out_per_class: usize,
) -> (ContinuousDataset, Vec<(Vec<f64>, ClassId)>) {
    let mut big = cfg.clone();
    big.class_sizes = cfg.class_sizes.iter().map(|s| s + held_out_per_class).collect();
    let synth = StreamingSynth::new(big).expect("preset configs are valid");
    let all = synth.generate();
    let mut train_ids = Vec::new();
    let mut held_out = Vec::new();
    let mut start = 0;
    for (c, &size) in cfg.class_sizes.iter().enumerate() {
        train_ids.extend(start..start + size);
        for s in start + size..start + size + held_out_per_class {
            held_out.push((all.row(s).to_vec(), c));
        }
        start += size + held_out_per_class;
    }
    (all.subset(&train_ids), held_out)
}

/// Compiled predictions on `queries` must equal the reference path's.
fn compiled_matches_reference(model: &BstcModel, queries: &[BitSet]) -> bool {
    let compiled = model.compile();
    let mut scratch = Scratch::for_model(&compiled);
    queries.iter().all(|q| compiled.classify(q, &mut scratch) == model.classify(q))
}

/// Per-op mean of a span's self time, in ms.
fn self_ms(s: &Summary, name: &str) -> f64 {
    s.self_per_op_ns(name) / 1e6
}

/// The op's wall time not covered by the reported layers, in ms.
fn unattributed_ms(s: &Summary, layers: &[(&'static str, f64)], spans: &[(&str, &str)]) -> f64 {
    let op_ms = crate::stats::mean(&s.op_ns) / 1e6;
    let covered: f64 = spans
        .iter()
        .filter_map(|(metric, _)| layers.iter().find(|(n, _)| n == metric).map(|(_, v)| v))
        .sum();
    op_ms - covered
}

/// Cohorts `train-wide` draws from one seed. Ops cycle through them, so
/// a run's figures average over several datasets rather than one draw.
const WIDE_COHORTS: usize = 3;

/// The `k`-th dataset seed derived from a run's `--seed`.
pub fn sub_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(k as u64)
}

pub fn train_wide(args: &Args, _work: &WorkDir) -> Result<Outcome, String> {
    let mut tsvs = Vec::new();
    let mut held_out = Vec::new();
    let mut provenance = Vec::new();
    for k in 0..WIDE_COHORTS {
        let seed = sub_seed(args.seed, k);
        let (train, rows) = cohort(&presets::all_aml(seed), HELD_OUT_PER_CLASS);
        let mut tsv = Vec::new();
        io::write_cont_tsv(&train, &mut tsv).map_err(|e| e.to_string())?;
        tsvs.push(tsv);
        held_out.push(rows);
        provenance.push(Provenance::new("ALL/AML (synthetic)", Some(seed)));
    }

    let mut out = Outcome::default();
    let mut reference: Vec<Option<(u64, u64)>> = vec![None; WIDE_COHORTS];
    let mut bytes = vec![0u64; WIDE_COHORTS];
    let mut n_items = vec![0usize; WIDE_COHORTS];
    let mut mask_bytes = [0usize; WIDE_COHORTS];
    let mut held_out_ok = [false; WIDE_COHORTS];
    let mut buf: Vec<u8> = Vec::new();
    let mut meter = ObsMeter::new();

    // Op `i` trains cohort `i % WIDE_COHORTS`; it returns its latency and
    // whether its bundle bytes match the first bundle of that cohort.
    // With tracing on, it also replays the layers inside
    // `ModelBundle::train` after the op. `check` adds the held-out check
    // (untimed) for a cohort not yet checked.
    let mut op = |cohorts: &[ContinuousDataset],
                  tr: &mut Tracer,
                  meter: &mut ObsMeter,
                  i: u64,
                  check: bool| {
        let k = i as usize % WIDE_COHORTS;
        let data = &cohorts[k];
        let t0 = Instant::now();
        let root = tr.begin_op(i);
        if tr.on() {
            meter.start();
        }
        let span = tr.enter("bundle.train");
        let bundle = match ModelBundle::train(data, provenance[k].clone()) {
            Ok(b) => b,
            Err(e) => {
                tr.exit(span);
                tr.exit(root);
                return (ms(t0), Err(format!("train: {e}")));
            }
        };
        tr.exit(span);
        let compiled = tr.time("compiled.compile", || bundle.compiled());
        buf.clear();
        let saved = tr.time("bundle.save", || bundle.save_to_writer(&mut buf));
        if tr.on() {
            meter.stop();
        }
        tr.exit(root);
        let lat = ms(t0);
        if tr.on() {
            let fit = tr.replay(span, "discretize.fit", || Discretizer::fit(data));
            let boolean = fit.and_then(|d| {
                tr.replay(span, "discretize.transform", || d.transform(data).ok()).flatten()
            });
            if let Some(b) = boolean {
                if let Some(m) = tr.replay(span, "bst.build", || BstcModel::train(&b)) {
                    tr.replay(span, "classify.resub", || {
                        (0..b.n_samples())
                            .filter(|&s| m.classify(b.sample(s)) == b.label(s))
                            .count()
                    });
                }
            }
        }
        if check && !held_out_ok[k] {
            held_out_ok[k] = held_out[k].iter().all(|(row, _)| {
                bundle.query_for_row(row).is_ok_and(|q| {
                    let mut scratch = Scratch::for_model(&compiled);
                    compiled.classify(&q, &mut scratch) == bundle.model.classify(&q)
                })
            });
        }
        let digest = digest(&buf);
        let result = match saved {
            Err(e) => Err(format!("save: {e}")),
            Ok(()) => match reference[k] {
                None => {
                    reference[k] = Some(digest);
                    Ok(())
                }
                Some(r) if r == digest => Ok(()),
                Some(_) => Err(format!("op {i}: bundle digest differs from cohort {k}'s first")),
            },
        };
        bytes[k] = digest.0;
        n_items[k] = bundle.discretizer.n_items();
        mask_bytes[k] = compiled.mask_bytes();
        (lat, result)
    };

    let mut quiet = Tracer::new(false);
    let mut parse_ms = Vec::new();
    let mut cohorts = Vec::new();
    let mut warmup = Window::default();
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        cohorts.clear();
        for tsv in &tsvs {
            let t = Instant::now();
            cohorts.push(io::read_cont_tsv(&tsv[..]).map_err(|e| format!("parse: {e}"))?);
            parse_ms.push(ms(t));
        }
        for _ in 0..WARMUP_OPS {
            let (lat, r) = op(&cohorts, &mut quiet, &mut meter, 0, false);
            warmup.record(0.0, lat, r);
        }
        out.setups_s.push(t0.elapsed().as_secs_f64());
    }
    out.checks.push(("warm-up ops correct".into(), warmup.tally.failed == 0));

    // Every cohort's compiled predictions on its held-out samples must
    // match the reference path (checked once per cohort, untimed).
    let (phase, min_ops) = crate::phase(args);
    out.window = closed_loop(phase, min_ops, |i| op(&cohorts, &mut quiet, &mut meter, i + 1, true));
    let mut tracer = Tracer::new(true);
    if args.trace {
        out.traced = Some(closed_loop(phase, min_ops, |i| {
            op(&cohorts, &mut tracer, &mut meter, i + 1, false)
        }));
    }
    out.peak_rss_mb = crate::host::peak_rss_mb().ok_or("cannot read VmHWM")?;
    out.checks.push(("held-out compiled == reference".into(), held_out_ok.iter().all(|&ok| ok)));
    let avg = |v: &[f64]| crate::stats::mean(v);
    let mean_bytes = avg(&bytes.iter().map(|&b| b as f64).collect::<Vec<_>>());
    out.detail("bundle_bytes", json!(bytes));
    out.detail("n_items", json!(n_items));

    if args.trace {
        let s = tracer.summary();
        let ops = s.ops as f64;
        let spans = [
            ("discretize.fit_ms", "discretize.fit"),
            ("discretize.transform_ms", "discretize.transform"),
            ("bst.build_ms", "bst.build"),
            ("classify.resub_ms", "classify.resub"),
            ("compiled.compile_ms", "compiled.compile"),
            ("bundle.save_ms", "bundle.save"),
        ];
        let mut layers: Vec<(&'static str, f64)> =
            spans.iter().map(|(metric, span)| (*metric, self_ms(&s, span))).collect();
        layers.extend(meter.layers(ops));
        let pairs = meter.counter("bstc_bst_pairs_total") as f64 / ops;
        layers.push(("bst.ns_per_pair", s.self_per_op_ns("bst.build") / pairs));
        layers.push(("io.tsv_parse_ms", median(&parse_ms)));
        layers.push((
            "discretize.n_items",
            avg(&n_items.iter().map(|&n| n as f64).collect::<Vec<_>>()),
        ));
        layers.push((
            "compiled.mask_bytes",
            avg(&mask_bytes.iter().map(|&n| n as f64).collect::<Vec<_>>()),
        ));
        layers.push(("bundle.bytes", mean_bytes));
        layers.push(("unattributed_ms", unattributed_ms(&s, &layers, &spans)));
        out.detail("traced_ops", json!(s.ops));
        out.layers = layers;
    }
    Ok(out)
}

/// A `Write` sink that keeps only a byte count and a running digest.
struct DigestSink {
    bytes: u64,
    hash: u64,
}

impl DigestSink {
    fn new() -> DigestSink {
        DigestSink { bytes: 0, hash: 0xcbf2_9ce4_8422_2325 }
    }
}

/// `(length, digest)` of a byte string, as [`DigestSink`] computes it.
fn digest(bytes: &[u8]) -> (u64, u64) {
    let mut sink = DigestSink::new();
    sink.write_all(bytes).expect("the digest sink never fails");
    (sink.bytes, sink.hash)
}

impl Write for DigestSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        // Word-at-a-time multiply-rotate: cheap next to the JSON it
        // digests, and sensitive to every byte and its position.
        let mut h = self.hash ^ self.bytes;
        let mut words = buf.chunks_exact(8);
        for w in &mut words {
            let v = u64::from_le_bytes(w.try_into().expect("chunks of 8"));
            h = (h ^ v).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(29);
        }
        for &b in words.remainder() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.hash = h;
        self.bytes += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The tall cohort: the sample-scale preset cut to 600 + 700 samples.
fn tall_config(seed: u64) -> SynthConfig {
    let mut cfg = presets::sample_scale(seed);
    cfg.class_sizes = vec![600, 700];
    cfg
}

pub fn train_tall(args: &Args, work: &WorkDir) -> Result<Outcome, String> {
    let path = work.path("tall.bmx");
    let (train, held_out) = cohort(&tall_config(args.seed), HELD_OUT_PER_CLASS);
    microarray::write_bmx(&train, &path).map_err(|e| e.to_string())?;
    drop(train);

    let mut out = Outcome::default();
    let mut reference: Option<(u64, u64)> = None;
    let mut n_items = 0;
    let mut json_bytes = 0u64;
    let mut meter = ObsMeter::new();

    let mut op = |data: &BmxDataset, tr: &mut Tracer, meter: &mut ObsMeter, i: u64| {
        let t0 = Instant::now();
        let root = tr.begin_op(i);
        if tr.on() {
            meter.start();
        }
        let disc = tr.time("discretize.fit", || Discretizer::fit_source(data, CHUNK_BYTES));
        let boolean = tr.time("discretize.transform", || disc.transform_source(data, CHUNK_BYTES));
        let boolean = match boolean {
            Ok(b) => b,
            Err(e) => {
                tr.exit(root);
                return (ms(t0), Err(format!("transform: {e}")));
            }
        };
        let model = tr.time("bst.build", || BstcModel::train(&boolean));
        drop(boolean);
        let written = tr.time("bst.write", || {
            let mut w = BufWriter::new(DigestSink::new());
            model.write_json_to(&mut w)?;
            w.flush()?;
            let sink = w.into_inner().map_err(|e| e.into_error())?;
            Ok::<_, std::io::Error>((sink.bytes, sink.hash))
        });
        if tr.on() {
            meter.stop();
        }
        tr.exit(root);
        let lat = ms(t0);
        let result = match written {
            Err(e) => Err(format!("write: {e}")),
            Ok(digest) => {
                json_bytes = digest.0;
                match reference {
                    None => {
                        reference = Some(digest);
                        Ok(())
                    }
                    Some(r) if r == digest => Ok(()),
                    Some(_) => {
                        Err(format!("op {i}: model JSON digest differs from the first op's"))
                    }
                }
            }
        };
        n_items = disc.n_items();
        (lat, result)
    };

    let mut quiet = Tracer::new(false);
    let mut open_ms = Vec::new();
    let mut data = None;
    let mut warmup = Window::default();
    for _ in 0..SETUPS {
        // Drop the previous handle first: each setup opens (and verifies)
        // the file from scratch.
        drop(data.take());
        let t0 = Instant::now();
        let d = BmxDataset::open(&path).map_err(|e| format!("open: {e}"))?;
        open_ms.push(ms(t0));
        for _ in 0..WARMUP_OPS {
            let (lat, r) = op(&d, &mut quiet, &mut meter, 0);
            warmup.record(0.0, lat, r);
        }
        out.setups_s.push(t0.elapsed().as_secs_f64());
        data = Some(d);
    }
    let data = data.expect("at least one setup");
    out.checks.push(("warm-up ops correct".into(), warmup.tally.failed == 0));

    let (phase, min_ops) = crate::phase(args);
    out.window = closed_loop(phase, min_ops, |i| op(&data, &mut quiet, &mut meter, i + 1));
    let mut tracer = Tracer::new(true);
    if args.trace {
        out.traced =
            Some(closed_loop(phase, min_ops, |i| op(&data, &mut tracer, &mut meter, i + 1)));
    }
    out.peak_rss_mb = crate::host::peak_rss_mb().ok_or("cannot read VmHWM")?;

    // Untimed, after the peak is read: one more model from the same file
    // (ops are deterministic), whose compiled predictions on held-out
    // samples must match the reference path. Keeping an op's model alive
    // for this instead would double the workload's peak.
    let disc = Discretizer::fit_source(&data, CHUNK_BYTES);
    let boolean = disc.transform_source(&data, CHUNK_BYTES).map_err(|e| e.to_string())?;
    let model = BstcModel::train(&boolean);
    drop(boolean);
    let queries: Vec<BitSet> = held_out
        .iter()
        .map(|(row, _)| disc.transform_row(row).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    out.checks.push((
        "held-out compiled == reference".into(),
        compiled_matches_reference(&model, &queries),
    ));
    out.detail("model_json_bytes", json!(json_bytes));
    out.detail("n_items", json!(n_items));

    if args.trace {
        let s = tracer.summary();
        let ops = s.ops as f64;
        let spans = [
            ("discretize.fit_ms", "discretize.fit"),
            ("discretize.transform_ms", "discretize.transform"),
            ("bst.build_ms", "bst.build"),
            ("bst.write_ms", "bst.write"),
        ];
        let mut layers: Vec<(&'static str, f64)> =
            spans.iter().map(|(metric, span)| (*metric, self_ms(&s, span))).collect();
        layers.extend(meter.layers(ops));
        let pairs = meter.counter("bstc_bst_pairs_total") as f64 / ops;
        layers.push(("bst.ns_per_pair", s.self_per_op_ns("bst.build") / pairs));
        layers.push(("bst.model_json_bytes", json_bytes as f64));
        layers.push(("bmx.open_ms", median(&open_ms)));
        layers.push(("discretize.n_items", n_items as f64));
        layers.push(("unattributed_ms", unattributed_ms(&s, &layers, &spans)));
        out.detail("traced_ops", json!(s.ops));
        out.layers = layers;
    }
    Ok(out)
}
