//! Golden digests: fixed-seed fingerprints of the training and CV paths.
//!
//! Refactors of the build, classify or parallel machinery must leave
//! these constants unchanged. A bundle checksum pins the whole trained
//! artifact (discretizer cuts, BST exclusion lists, provenance); a
//! prediction hash plus accuracy bits per replicate pins what a CV run
//! actually predicted, not merely how often it was right.

use bstc::BstcModel;
use eval::{run_cell, CvCell, SplitSpec};
use microarray::synth::{presets, BoolSynthConfig, SynthConfig};
use serve::{ModelBundle, Provenance};

/// FNV-1a over class ids as little-endian `u64`s — the construction
/// behind `eval::ReplicateResult::pred_hash`.
fn pred_hash(preds: &[usize]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &p in preds {
        for byte in (p as u64).to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

fn aml() -> SynthConfig {
    presets::all_aml(11).scaled_down(2)
}

fn lung() -> SynthConfig {
    presets::lung(12).scaled_down(4)
}

fn bundle_checksum(cfg: SynthConfig, seed: u64) -> String {
    let data = cfg.generate();
    let bundle = ModelBundle::train(&data, Provenance::new("golden", Some(seed))).expect("train");
    bundle.content_checksum().expect("checksum")
}

#[test]
fn bundle_checksums_are_pinned() {
    assert_eq!(bundle_checksum(aml(), 11), "fnv1a64:c23f57e9681ca395");
    assert_eq!(bundle_checksum(lung(), 12), "fnv1a64:07b341639c496a16");
}

/// `(accuracy bits, pred_hash)` per replicate of a 4-replicate CV cell,
/// classifying with both the reference path and the compiled kernel.
fn cv_digest(cfg: SynthConfig, base_seed: u64) -> Vec<String> {
    let data = cfg.generate();
    let cell = CvCell { spec: SplitSpec::Fraction(0.4), reps: 4, base_seed };
    let runs = run_cell(&data, &cell, |_, p| {
        let model = BstcModel::train(&p.bool_train);
        let reference = model.classify_all(p.bool_test.samples());
        let compiled = model.compile().classify_all(p.bool_test.samples());
        assert_eq!(reference, compiled, "compiled kernel diverged from the reference path");
        let acc = eval::accuracy(&compiled, p.bool_test.labels());
        format!("{:016x}:{:016x}", acc.to_bits(), pred_hash(&compiled))
    });
    runs.into_iter().map(|r| r.unwrap_or_else(|| "skipped".into())).collect()
}

#[test]
fn cv_prediction_hashes_are_pinned() {
    assert_eq!(
        cv_digest(aml(), 42),
        [
            "3fde79e79e79e79e:35da762063936645",
            "3fecf3cf3cf3cf3d:b145221d66bc8f24",
            "3ff0000000000000:e95bd96604baab24",
            "3fe2492492492492:a549e095a390fee4",
        ]
    );
    assert_eq!(
        cv_digest(lung(), 43),
        [
            "3fed89d89d89d89e:fb8f560d59f1ab25",
            "3fe9d89d89d89d8a:b1e9f32be9d2d365",
            "3ff0000000000000:a3359ac1fc20af25",
            "3fec4ec4ec4ec4ec:ac91404546dc92e4",
        ]
    );
}

/// An `io::Write` sink keeping the length and FNV-1a of what it is fed.
struct FnvSink {
    len: u64,
    hash: u64,
}

impl std::io::Write for FnvSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        for &b in buf {
            self.hash ^= b as u64;
            self.hash = self.hash.wrapping_mul(0x100000001b3);
        }
        self.len += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Pins the model JSON writer's bytes at a shape that reaches every
/// encoder path: 300 items and 260 samples give multi-digit hex gaps, a
/// first item id of 0, `excl_idx` entries of three digits, zero words and
/// 20-digit bitset words, in a 4.8 MB model. The value was taken from the
/// `core::fmt` writer this encoder replaced.
#[test]
fn model_json_bytes_are_pinned() {
    let data = BoolSynthConfig {
        name: "model-bytes".into(),
        n_items: 300,
        class_sizes: vec![110, 150],
        class_names: vec!["a".into(), "b".into()],
        markers_per_class: 30,
        marker_on: 0.9,
        background_on: 0.15,
        seed: 25,
    }
    .generate();
    let model = BstcModel::train(&data);
    let mut sink = FnvSink { len: 0, hash: 0xcbf29ce484222325 };
    model.write_json_to(&mut sink).expect("write to an infallible sink");
    assert_eq!(
        (sink.len, format!("{:016x}", sink.hash)),
        (4767647, "94c168cfdc56c645".to_string()),
        "the model JSON bytes changed: this pins the wire form, so a new value means \
         every model and bundle file written from now on differs from the old ones"
    );
}
