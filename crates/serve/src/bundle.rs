//! Versioned, checksummed model artifacts.
//!
//! A [`ModelBundle`] packages everything needed to serve BSTC predictions
//! on **raw continuous expression vectors**: the trained [`BstcModel`],
//! the fitted [`Discretizer`] (cut points + item layout), the item/gene
//! vocabulary, the class labels, and provenance (dataset name, seed,
//! training accuracy, producing tool).
//!
//! On disk a bundle is a JSON envelope
//!
//! ```json
//! { "format_version": 2,
//!   "checksum": "fnv1a64:<16 hex digits>",
//!   "bundle": { ... } }
//! ```
//!
//! where `checksum` is FNV-1a (64-bit) over the *compact* serialization
//! of the `bundle` value. [`ModelBundle::from_json`] refuses unknown
//! format versions and corrupted payloads before deserializing, so a
//! serving process can never hot-swap in a half-written file.

use bstc::{BstcModel, CompiledModel, Scratch};
use discretize::Discretizer;
use microarray::ContinuousDataset;
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::fmt;
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};

/// The bundle format this build writes and accepts. v2 switched the
/// model's exclusion-list items to the compact gap-hex string encoding;
/// v1 bundles are refused rather than silently misread.
pub const FORMAT_VERSION: u64 = 2;

/// Where a bundle came from — carried verbatim, surfaced by `GET /model`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Provenance {
    /// Name of the training dataset (free-form, e.g. `"ALL/AML"`).
    pub dataset: String,
    /// RNG seed used to produce the training data, when synthetic.
    #[serde(default)]
    pub seed: Option<u64>,
    /// Resubstitution accuracy on the training split, in `[0, 1]`.
    #[serde(default)]
    pub train_accuracy: Option<f64>,
    /// The producing tool and version.
    pub tool: String,
}

impl Provenance {
    /// Provenance for a locally trained bundle.
    pub fn new(dataset: impl Into<String>, seed: Option<u64>) -> Provenance {
        Provenance {
            dataset: dataset.into(),
            seed,
            train_accuracy: None,
            tool: concat!("bstc-repro ", env!("CARGO_PKG_VERSION")).to_string(),
        }
    }
}

/// A self-contained, servable BSTC model artifact.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ModelBundle {
    /// Provenance metadata.
    pub provenance: Provenance,
    /// Class labels, indexed by `ClassId`.
    pub class_names: Vec<String>,
    /// Boolean item vocabulary (`gene@[lo,hi)`), indexed by item id.
    pub item_names: Vec<String>,
    /// Fitted cut points: maps raw gene vectors to boolean items.
    pub discretizer: Discretizer,
    /// The trained classifier (the serialized reference form).
    pub model: BstcModel,
    /// The word-parallel evaluation form of `model`, lowered lazily on
    /// first use and never serialized (it is derived state).
    #[serde(skip)]
    compiled: CompiledSlot,
}

/// An evictable cache slot for the bundle's [`CompiledModel`].
///
/// PR 2 cached the compiled form in a `OnceLock`, which is
/// fill-once-forever — fine for a single served model, wrong for a
/// registry that caps how many *compiled* models stay resident. This
/// slot hands out `Arc<CompiledModel>` clones, so the registry's LRU can
/// [`ModelBundle::evict_compiled`] the cache while every in-flight
/// request keeps classifying against the handle it already holds; the
/// next request simply re-lowers the model.
#[derive(Debug, Default)]
pub struct CompiledSlot(Mutex<Option<Arc<CompiledModel>>>);

impl Clone for CompiledSlot {
    /// Cloning a bundle shares the already-compiled form (it is pure
    /// derived state; recompiling would produce an identical model).
    fn clone(&self) -> CompiledSlot {
        CompiledSlot(Mutex::new(self.0.lock().unwrap_or_else(PoisonError::into_inner).clone()))
    }
}

/// One classification result.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Prediction {
    /// Predicted class index.
    pub class: usize,
    /// Predicted class label.
    pub label: String,
    /// BSTCE classification value per class, indexed by class id.
    pub values: Vec<f64>,
    /// Normalized gap between the two best class values (§8 heuristic).
    pub confidence: f64,
}

/// Everything that can go wrong while loading or saving a bundle.
#[derive(Debug)]
pub enum BundleError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The file is not valid JSON, or the payload does not deserialize.
    Json(String),
    /// The envelope is JSON but not shaped like a bundle.
    Envelope(String),
    /// The file was written by an incompatible format version.
    FormatVersion {
        /// Version found in the file.
        found: u64,
        /// Version this build understands.
        expected: u64,
    },
    /// The payload does not hash to the declared checksum.
    ChecksumMismatch {
        /// Checksum declared in the envelope.
        declared: String,
        /// Checksum computed over the payload.
        computed: String,
    },
    /// The payload deserialized but is internally inconsistent.
    Invalid(String),
}

impl fmt::Display for BundleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BundleError::Io(e) => write!(f, "bundle i/o error: {e}"),
            BundleError::Json(e) => write!(f, "bundle is not valid JSON: {e}"),
            BundleError::Envelope(e) => write!(f, "bad bundle envelope: {e}"),
            BundleError::FormatVersion { found, expected } => write!(
                f,
                "unsupported bundle format version {found} (this build reads version {expected})"
            ),
            BundleError::ChecksumMismatch { declared, computed } => write!(
                f,
                "bundle checksum mismatch: file declares {declared} but payload hashes to \
                 {computed} — the file is corrupt or was edited by hand"
            ),
            BundleError::Invalid(e) => write!(f, "bundle is internally inconsistent: {e}"),
        }
    }
}

impl BundleError {
    /// The HTTP status a failed `POST /reload` should answer with: a
    /// filesystem failure is the server's problem (500), while a file
    /// that exists but cannot be accepted — bad JSON, wrong version,
    /// checksum mismatch, inconsistent payload — conflicts with the
    /// serving state the caller tried to replace (409). Either way the
    /// old model keeps serving.
    pub fn http_status(&self) -> u16 {
        match self {
            BundleError::Io(_) => 500,
            BundleError::Json(_)
            | BundleError::Envelope(_)
            | BundleError::FormatVersion { .. }
            | BundleError::ChecksumMismatch { .. }
            | BundleError::Invalid(_) => 409,
        }
    }
}

impl std::error::Error for BundleError {}

impl From<std::io::Error> for BundleError {
    fn from(e: std::io::Error) -> Self {
        BundleError::Io(e)
    }
}

/// A classify request whose input does not fit the bundle's gene universe.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WrongVectorLength {
    /// Length of the offending input vector.
    pub got: usize,
    /// Gene count the discretizer was fitted on.
    pub expected: usize,
}

impl fmt::Display for WrongVectorLength {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "expression vector has {} values but the model expects {} genes",
            self.got, self.expected
        )
    }
}

impl std::error::Error for WrongVectorLength {}

impl ModelBundle {
    /// Fits a discretizer on `data`, trains BSTC on the binarized result,
    /// measures resubstitution accuracy, and packages it all up.
    ///
    /// # Errors
    /// Returns [`BundleError::Invalid`] when the dataset has an empty
    /// class or no gene survives MDL discretization.
    pub fn train(
        data: &ContinuousDataset,
        provenance: Provenance,
    ) -> Result<ModelBundle, BundleError> {
        if let Some(c) = data.first_empty_class() {
            return Err(BundleError::Invalid(format!(
                "class {c} ('{}') has no training samples",
                data.class_names()[c]
            )));
        }
        let (discretizer, boolean) =
            Discretizer::fit_transform(data).map_err(|e| BundleError::Invalid(e.to_string()))?;
        let model = BstcModel::train(&boolean);
        let correct = (0..boolean.n_samples())
            .filter(|&s| model.classify(boolean.sample(s)) == boolean.label(s))
            .count();
        let mut provenance = provenance;
        provenance.train_accuracy = Some(correct as f64 / boolean.n_samples() as f64);
        Ok(ModelBundle {
            provenance,
            class_names: data.class_names().to_vec(),
            item_names: discretizer.item_names(),
            discretizer,
            model,
            compiled: CompiledSlot::default(),
        })
    }

    /// The compiled (word-parallel, scratch-driven) form of the model,
    /// lowered on first call and cached until [`Self::evict_compiled`].
    ///
    /// Concurrent first calls for the *same* bundle serialize on the slot
    /// lock (they all need the same result anyway); callers of distinct
    /// bundles never contend.
    pub fn compiled(&self) -> Arc<CompiledModel> {
        let mut slot = self.compiled.0.lock().unwrap_or_else(PoisonError::into_inner);
        match &*slot {
            Some(compiled) => Arc::clone(compiled),
            None => {
                let compiled = Arc::new(self.model.compile());
                *slot = Some(Arc::clone(&compiled));
                compiled
            }
        }
    }

    /// Drops the cached compiled form (the registry's LRU calls this when
    /// the resident cap is exceeded). Returns whether a compiled form was
    /// actually resident. In-flight classifications keep the `Arc` they
    /// already cloned; the next [`Self::compiled`] call re-lowers.
    pub fn evict_compiled(&self) -> bool {
        self.compiled.0.lock().unwrap_or_else(PoisonError::into_inner).take().is_some()
    }

    /// Whether a compiled form is currently cached (resident) without
    /// forcing compilation.
    pub fn compiled_resident(&self) -> bool {
        self.compiled.0.lock().unwrap_or_else(PoisonError::into_inner).is_some()
    }

    /// Number of raw gene values a classify input must supply.
    pub fn n_genes(&self) -> usize {
        self.discretizer.n_genes()
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.class_names.len()
    }

    /// Classifies one raw expression vector: applies the fitted cut
    /// points, binarizes, and runs the compiled BSTCE kernels over every
    /// class BST (bit-identical to the reference path).
    ///
    /// # Errors
    /// Returns [`WrongVectorLength`] when `row` does not match the fitted
    /// gene count.
    pub fn classify_row(&self, row: &[f64]) -> Result<Prediction, WrongVectorLength> {
        self.classify_row_with(row, &mut Scratch::new())
    }

    /// [`ModelBundle::classify_row`] with caller-owned scratch memory —
    /// the shadow executor keeps one [`Scratch`] per thread so the
    /// BSTCE evaluation underneath each replay allocates nothing.
    pub fn classify_row_with(
        &self,
        row: &[f64],
        scratch: &mut Scratch,
    ) -> Result<Prediction, WrongVectorLength> {
        let query = self.query_for_row(row)?;
        self.compiled().class_values_into(&query, scratch);
        Ok(self.prediction_from_values(scratch.values()))
    }

    /// Validates and binarizes one raw expression vector into its boolean
    /// item set — the parse half of [`ModelBundle::classify_row_with`],
    /// split out so compute threads can binarize each request and
    /// hand ready-made queries to the shared batch kernel.
    ///
    /// # Errors
    /// Returns [`WrongVectorLength`] when `row` does not match the fitted
    /// gene count.
    pub fn query_for_row(&self, row: &[f64]) -> Result<microarray::BitSet, WrongVectorLength> {
        if row.len() != self.n_genes() {
            return Err(WrongVectorLength { got: row.len(), expected: self.n_genes() });
        }
        Ok(self.discretizer.transform_row(row).expect("a validated bundle has at least one item"))
    }

    /// Builds a [`Prediction`] from already-computed BSTCE class values
    /// (argmax ties break to the smallest class index, matching the
    /// reference classifier).
    pub fn prediction_from_values(&self, values: &[f64]) -> Prediction {
        let class = bstc::select_class(values);
        Prediction {
            class,
            label: self.class_names[class].clone(),
            // One BSTCE pass serves both outputs: the §8 confidence gap is
            // a single top-2 scan over the values just computed.
            confidence: bstc::confidence_gap_of(values),
            values: values.to_vec(),
        }
    }

    /// Streams this bundle's canonical payload JSON (the `bundle` value
    /// of the envelope) into `w`, byte-identical to
    /// `serde_json::to_string(&serde_json::to_value(self))`. The small
    /// leaves (provenance, names, discretizer) go through the ordinary
    /// tree serializer; the model — which dominates any bundle — streams
    /// via [`BstcModel::write_json_to`], so no model-sized intermediate
    /// tree or string ever exists.
    fn write_payload<W: std::io::Write>(&self, w: &mut W) -> Result<(), BundleError> {
        fn leaf<T: Serialize>(v: &T) -> Result<String, BundleError> {
            serde_json::to_string(v).map_err(|e| BundleError::Json(e.to_string()))
        }
        w.write_all(b"{\"provenance\":")?;
        w.write_all(leaf(&self.provenance)?.as_bytes())?;
        w.write_all(b",\"class_names\":")?;
        w.write_all(leaf(&self.class_names)?.as_bytes())?;
        w.write_all(b",\"item_names\":")?;
        w.write_all(leaf(&self.item_names)?.as_bytes())?;
        w.write_all(b",\"discretizer\":")?;
        w.write_all(leaf(&self.discretizer)?.as_bytes())?;
        w.write_all(b",\"model\":")?;
        self.model.write_json_to(w)?;
        w.write_all(b"}")?;
        Ok(())
    }

    /// Streams the versioned, checksummed envelope into `w`.
    ///
    /// Two payload passes: the first runs the byte stream through the
    /// FNV-1a hasher only (no buffering), the second writes the envelope
    /// around the payload. Peak memory is the largest *leaf*
    /// serialization, not the whole artifact — [`Self::save`] and
    /// [`Self::to_json`] both ride this.
    ///
    /// # Errors
    /// Propagates serialization failures and `w`'s I/O errors.
    pub fn save_to_writer<W: std::io::Write>(&self, w: &mut W) -> Result<(), BundleError> {
        let mut fnv = FnvWriter::new();
        self.write_payload(&mut fnv)?;
        write!(
            w,
            "{{\"format_version\":{FORMAT_VERSION},\"checksum\":\"{}\",\"bundle\":",
            fnv.finish()
        )?;
        self.write_payload(w)?;
        w.write_all(b"}")?;
        Ok(())
    }

    /// The checksum of this bundle's canonical payload serialization —
    /// bit-identical to the `checksum` field [`Self::save`] writes.
    /// Computed on demand (one hashing pass over the streamed payload, no
    /// payload text) and never cached, since the fields are public. The
    /// registry calls it only for bundles built in memory; a bundle read
    /// from disk reports the checksum verified at load
    /// ([`Self::load_verified`]), which is the same value for any file
    /// this crate wrote.
    pub fn content_checksum(&self) -> Result<String, BundleError> {
        let mut fnv = FnvWriter::new();
        self.write_payload(&mut fnv)?;
        Ok(fnv.finish())
    }

    /// Serializes to the versioned, checksummed JSON envelope as one
    /// string ([`Self::save_to_writer`] into a buffer — callers that can
    /// write to a sink directly should prefer the writer form).
    pub fn to_json(&self) -> Result<String, BundleError> {
        let mut buf = Vec::new();
        self.save_to_writer(&mut buf)?;
        String::from_utf8(buf).map_err(|e| BundleError::Json(e.to_string()))
    }

    /// Parses and fully verifies a JSON envelope: format version first,
    /// then checksum, then payload shape, then internal consistency.
    ///
    /// # Errors
    /// See [`BundleError`] — each failure mode maps to one variant.
    pub fn from_json(text: &str) -> Result<ModelBundle, BundleError> {
        Self::from_json_verified(text).map(|(bundle, _)| bundle)
    }

    /// [`Self::from_json`], also returning the envelope checksum it just
    /// verified.
    fn from_json_verified(text: &str) -> Result<(ModelBundle, String), BundleError> {
        let root: Value =
            serde_json::from_str(text).map_err(|e| BundleError::Json(e.to_string()))?;
        let version = root
            .get("format_version")
            .and_then(Value::as_u64)
            .ok_or_else(|| BundleError::Envelope("missing integer 'format_version'".into()))?;
        if version != FORMAT_VERSION {
            return Err(BundleError::FormatVersion { found: version, expected: FORMAT_VERSION });
        }
        let declared = root
            .get("checksum")
            .and_then(Value::as_str)
            .ok_or_else(|| BundleError::Envelope("missing string 'checksum'".into()))?
            .to_string();
        // Move the payload out of the root (the first `bundle` entry,
        // as `Value::get` would find) instead of cloning it.
        let payload = match root {
            Value::Map(entries) => {
                entries.into_iter().find_map(|(k, v)| (k == "bundle").then_some(v))
            }
            _ => None,
        }
        .ok_or_else(|| BundleError::Envelope("missing object 'bundle'".into()))?;
        // Hash the canonical re-serialization as a byte stream instead of
        // materializing a second payload-sized string next to the parse
        // tree.
        let mut fnv = FnvWriter::new();
        write_value_json(&payload, &mut fnv).expect("hashing is infallible");
        let computed = fnv.finish();
        if declared != computed {
            return Err(BundleError::ChecksumMismatch { declared, computed });
        }
        let bundle: ModelBundle =
            serde_json::from_value(payload).map_err(|e| BundleError::Json(e.to_string()))?;
        bundle.validate()?;
        Ok((bundle, computed))
    }

    /// Writes the envelope to a file, streaming through a buffered
    /// writer — the artifact never exists as one in-memory string.
    ///
    /// # Errors
    /// Propagates serialization and filesystem failures.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), BundleError> {
        let file = std::fs::File::create(path)?;
        let mut w = std::io::BufWriter::new(file);
        self.save_to_writer(&mut w)?;
        std::io::Write::flush(&mut w)?;
        Ok(())
    }

    /// Reads and verifies an envelope from a file.
    ///
    /// # Errors
    /// See [`BundleError`].
    pub fn load(path: impl AsRef<Path>) -> Result<ModelBundle, BundleError> {
        Self::from_json(&std::fs::read_to_string(path)?)
    }

    /// [`Self::load`], also returning the envelope checksum it just
    /// verified, so a caller that records which artifact it loaded (the
    /// registry) does not hash the payload a second time.
    ///
    /// # Errors
    /// See [`BundleError`].
    pub fn load_verified(path: impl AsRef<Path>) -> Result<(ModelBundle, String), BundleError> {
        Self::from_json_verified(&std::fs::read_to_string(path)?)
    }

    /// Cross-field consistency checks run after deserialization: class
    /// and item counts agree across the parts, and every class BST is
    /// structurally sound over the discretizer's items
    /// ([`BstcModel::check_structure`]), so a hand-edited payload with a
    /// recomputed checksum is refused here rather than panicking in
    /// lazy compilation or classify.
    fn validate(&self) -> Result<(), BundleError> {
        if self.class_names.is_empty() {
            return Err(BundleError::Invalid("bundle has zero classes".into()));
        }
        if self.model.n_classes() != self.class_names.len() {
            return Err(BundleError::Invalid(format!(
                "model has {} class BSTs but {} class names",
                self.model.n_classes(),
                self.class_names.len()
            )));
        }
        if self.discretizer.n_items() == 0 {
            return Err(BundleError::Invalid("discretizer has zero items".into()));
        }
        if self.discretizer.n_items() != self.item_names.len() {
            return Err(BundleError::Invalid(format!(
                "discretizer produces {} items but the vocabulary lists {}",
                self.discretizer.n_items(),
                self.item_names.len()
            )));
        }
        self.model.check_structure(self.discretizer.n_items()).map_err(BundleError::Invalid)
    }
}

/// Incremental FNV-1a 64-bit over a byte stream, usable as an
/// `io::Write` sink — the checksum pass of the streaming saver runs the
/// payload bytes through this without buffering them.
struct FnvWriter {
    hash: u64,
}

impl FnvWriter {
    fn new() -> FnvWriter {
        FnvWriter { hash: 0xcbf2_9ce4_8422_2325 }
    }

    /// The digest so far, rendered as `fnv1a64:<16 hex digits>`.
    fn finish(&self) -> String {
        format!("fnv1a64:{:016x}", self.hash)
    }
}

impl std::io::Write for FnvWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        for &b in buf {
            self.hash ^= b as u64;
            self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Streams `value`'s compact JSON — byte-identical to
/// `serde_json::to_string(value)` — into `w`. Used by
/// [`ModelBundle::from_json`] to checksum a parsed payload without
/// materializing its canonical text a second time.
fn write_value_json<W: std::io::Write>(value: &Value, w: &mut W) -> std::io::Result<()> {
    match value {
        Value::Null => w.write_all(b"null"),
        Value::Bool(true) => w.write_all(b"true"),
        Value::Bool(false) => w.write_all(b"false"),
        Value::I64(v) => write!(w, "{v}"),
        Value::U64(v) => write!(w, "{v}"),
        Value::F64(v) => {
            if v.is_finite() {
                // `{}` on f64 is the shortest round-trippable form, the
                // same bytes the tree writer emits.
                write!(w, "{v}")
            } else {
                w.write_all(b"null")
            }
        }
        Value::Str(s) => write_escaped_json(s, w),
        Value::Seq(items) => {
            w.write_all(b"[")?;
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    w.write_all(b",")?;
                }
                write_value_json(item, w)?;
            }
            w.write_all(b"]")
        }
        Value::Map(entries) => {
            w.write_all(b"{")?;
            for (i, (k, v)) in entries.iter().enumerate() {
                if i > 0 {
                    w.write_all(b",")?;
                }
                write_escaped_json(k, w)?;
                w.write_all(b":")?;
                write_value_json(v, w)?;
            }
            w.write_all(b"}")
        }
    }
}

/// JSON string escaping, matching the tree writer's escape table exactly.
fn write_escaped_json<W: std::io::Write>(s: &str, w: &mut W) -> std::io::Result<()> {
    w.write_all(b"\"")?;
    let mut buf = [0u8; 4];
    for ch in s.chars() {
        match ch {
            '"' => w.write_all(b"\\\"")?,
            '\\' => w.write_all(b"\\\\")?,
            '\n' => w.write_all(b"\\n")?,
            '\r' => w.write_all(b"\\r")?,
            '\t' => w.write_all(b"\\t")?,
            '\u{08}' => w.write_all(b"\\b")?,
            '\u{0c}' => w.write_all(b"\\f")?,
            c if (c as u32) < 0x20 => write!(w, "\\u{:04x}", c as u32)?,
            c => w.write_all(c.encode_utf8(&mut buf).as_bytes())?,
        }
    }
    w.write_all(b"\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> ContinuousDataset {
        ContinuousDataset::new(
            vec!["gA".into(), "gB".into()],
            vec!["neg".into(), "pos".into()],
            vec![
                vec![1.0, 5.0],
                vec![1.2, 3.0],
                vec![0.8, 5.5],
                vec![1.1, 2.9],
                vec![9.0, 5.1],
                vec![9.2, 3.2],
                vec![8.9, 5.2],
                vec![9.1, 3.1],
            ],
            vec![0, 0, 0, 0, 1, 1, 1, 1],
        )
        .unwrap()
    }

    #[test]
    fn train_fills_provenance_and_classifies() {
        let b = ModelBundle::train(&toy(), Provenance::new("toy", Some(7))).unwrap();
        assert_eq!(b.n_classes(), 2);
        assert_eq!(b.n_genes(), 2);
        assert_eq!(b.provenance.train_accuracy, Some(1.0));
        assert_eq!(b.provenance.seed, Some(7));
        let p = b.classify_row(&[0.9, 4.0]).unwrap();
        assert_eq!((p.class, p.label.as_str()), (0, "neg"));
        let p = b.classify_row(&[9.0, 4.0]).unwrap();
        assert_eq!((p.class, p.label.as_str()), (1, "pos"));
        assert!(p.confidence > 0.0);
        assert_eq!(p.values.len(), 2);
    }

    #[test]
    fn classify_rejects_wrong_length() {
        let b = ModelBundle::train(&toy(), Provenance::new("toy", None)).unwrap();
        let e = b.classify_row(&[1.0]).unwrap_err();
        assert_eq!(e, WrongVectorLength { got: 1, expected: 2 });
        assert!(e.to_string().contains("expects 2 genes"));
    }

    #[test]
    fn json_round_trip_preserves_predictions() {
        let b = ModelBundle::train(&toy(), Provenance::new("toy", Some(1))).unwrap();
        let back = ModelBundle::from_json(&b.to_json().unwrap()).unwrap();
        for row in [[1.0, 5.0], [9.0, 3.0], [5.0, 4.0]] {
            let x = b.classify_row(&row).unwrap();
            let y = back.classify_row(&row).unwrap();
            assert_eq!(x.class, y.class);
            assert_eq!(x.values, y.values);
        }
        assert_eq!(back.provenance, b.provenance);
    }

    #[test]
    fn wrong_format_version_is_refused() {
        let b = ModelBundle::train(&toy(), Provenance::new("toy", None)).unwrap();
        let text = b
            .to_json()
            .unwrap()
            .replace(&format!("\"format_version\":{FORMAT_VERSION}"), "\"format_version\":99");
        match ModelBundle::from_json(&text) {
            Err(BundleError::FormatVersion { found: 99, expected: FORMAT_VERSION }) => {}
            other => panic!("expected FormatVersion error, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_payload_is_refused() {
        let b = ModelBundle::train(&toy(), Provenance::new("toy", None)).unwrap();
        let text = b.to_json().unwrap().replace("\"dataset\":\"toy\"", "\"dataset\":\"tam\"");
        assert!(matches!(ModelBundle::from_json(&text), Err(BundleError::ChecksumMismatch { .. })));
    }

    #[test]
    fn garbage_and_bad_envelopes_are_refused() {
        assert!(matches!(ModelBundle::from_json("not json"), Err(BundleError::Json(_))));
        assert!(matches!(ModelBundle::from_json("{}"), Err(BundleError::Envelope(_))));
        assert!(matches!(
            ModelBundle::from_json(&format!("{{\"format_version\":{FORMAT_VERSION}}}")),
            Err(BundleError::Envelope(_))
        ));
    }

    #[test]
    fn reload_errors_map_to_conflict_or_server_fault() {
        let io = BundleError::Io(std::io::Error::new(std::io::ErrorKind::NotFound, "gone"));
        assert_eq!(io.http_status(), 500);
        assert_eq!(BundleError::Json("nope".into()).http_status(), 409);
        assert_eq!(BundleError::FormatVersion { found: 9, expected: 1 }.http_status(), 409);
        let mismatch = BundleError::ChecksumMismatch { declared: "a".into(), computed: "b".into() };
        assert_eq!(mismatch.http_status(), 409);
    }

    #[test]
    fn compiled_slot_evicts_and_relowers() {
        let b = ModelBundle::train(&toy(), Provenance::new("toy", None)).unwrap();
        assert!(!b.compiled_resident(), "fresh bundle holds no compiled form");
        let held = b.compiled();
        assert!(b.compiled_resident());
        assert!(b.evict_compiled(), "eviction drops a resident form");
        assert!(!b.compiled_resident());
        assert!(!b.evict_compiled(), "double eviction is a no-op");
        // The held handle still classifies after eviction, and a fresh
        // compile produces identical answers.
        let query = b.query_for_row(&[1.0, 4.0]).unwrap();
        let mut scratch = Scratch::new();
        held.class_values_into(&query, &mut scratch);
        let old_values = scratch.values().to_vec();
        b.compiled().class_values_into(&query, &mut scratch);
        assert_eq!(old_values, scratch.values());
        assert!(b.compiled_resident(), "re-lowered form is cached again");
    }

    #[test]
    fn streaming_envelope_is_byte_identical_to_the_tree_serializer() {
        // The streaming saver must emit exactly what the historical
        // to_value → to_string → json! path emitted, or existing
        // artifacts' checksums (and FORMAT_VERSION 2 compatibility)
        // break.
        let b = ModelBundle::train(&toy(), Provenance::new("toy", Some(11))).unwrap();
        let payload = serde_json::to_value(&b).unwrap();
        let canonical = serde_json::to_string(&payload).unwrap();
        let mut hashed = FnvWriter::new();
        std::io::Write::write_all(&mut hashed, canonical.as_bytes()).unwrap();
        let envelope = serde_json::json!({
            "format_version": FORMAT_VERSION,
            "checksum": hashed.finish(),
            "bundle": payload
        });
        let tree = serde_json::to_string(&envelope).unwrap();
        assert_eq!(b.to_json().unwrap(), tree);
        // And the streamed canonical-value hash matches the text hash.
        let mut via_value = FnvWriter::new();
        write_value_json(&serde_json::to_value(&b).unwrap(), &mut via_value).unwrap();
        assert_eq!(via_value.finish(), b.content_checksum().unwrap());
    }

    #[test]
    fn content_checksum_matches_saved_envelope() {
        let b = ModelBundle::train(&toy(), Provenance::new("toy", Some(3))).unwrap();
        let envelope = b.to_json().unwrap();
        let declared: serde_json::Value = serde_json::from_str(&envelope).unwrap();
        assert_eq!(
            declared.get("checksum").unwrap().as_str().unwrap(),
            b.content_checksum().unwrap()
        );
    }

    /// Wraps an edited payload in a fresh envelope whose checksum
    /// matches it — what a hand edit that recomputes the hash produces.
    fn reseal(payload: &str) -> String {
        let mut fnv = FnvWriter::new();
        std::io::Write::write_all(&mut fnv, payload.as_bytes()).unwrap();
        format!(
            "{{\"format_version\":{FORMAT_VERSION},\"checksum\":\"{}\",\"bundle\":{payload}}}",
            fnv.finish()
        )
    }

    #[test]
    fn resealed_payload_with_an_out_of_range_item_id_is_invalid() {
        let b = ModelBundle::train(&toy(), Provenance::new("toy", None)).unwrap();
        let mut payload = Vec::new();
        b.write_payload(&mut payload).unwrap();
        let payload = String::from_utf8(payload).unwrap();
        // The untouched payload resealed is the saved envelope itself.
        let (_, checksum) = ModelBundle::from_json_verified(&reseal(&payload)).unwrap();
        assert_eq!(checksum, b.content_checksum().unwrap());
        // Prefix the first exclusion list's gap-hex with a huge id.
        let tampered = payload.replacen("\"items\":\"", "\"items\":\"fffff", 1);
        assert_ne!(tampered, payload);
        match ModelBundle::from_json(&reseal(&tampered)) {
            Err(BundleError::Invalid(msg)) => assert!(msg.contains("out of range"), "{msg}"),
            other => panic!("expected Invalid, got {other:?}"),
        }
    }

    #[test]
    fn save_load_round_trips_through_disk() {
        let b = ModelBundle::train(&toy(), Provenance::new("toy", None)).unwrap();
        let path = std::env::temp_dir().join(format!("bstc_bundle_{}.json", std::process::id()));
        b.save(&path).unwrap();
        let back = ModelBundle::load(&path).unwrap();
        assert_eq!(back.class_names, b.class_names);
        assert_eq!(back.item_names, b.item_names);
        std::fs::remove_file(&path).ok();
    }
}
