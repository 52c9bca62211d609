//! The multi-model registry: named, versioned [`ModelBundle`]s behind
//! atomic per-model swaps, with an LRU cap on *compiled* residency.
//!
//! ## Versioned models
//!
//! Every named model is a `ModelState` holding the current
//! [`ModelVersion`] behind `RwLock<Arc<...>>` — the same hot-swap shape
//! PR 2 used for the single served bundle, now one lock per model so a
//! `/v1/models/{a}/reload` never contends with traffic on model `b`.
//! Versions are monotone per name: the first load is `v1` and every
//! successful swap bumps it. A swap does *all* fallible work first —
//! read the file, verify the checksum, validate the payload (and pass
//! the `registry` chaos site) — and only then stores the new `Arc`, so
//! a failed or panicking swap leaves the old version serving: rollback
//! is the absence of the store, never a restore.
//!
//! ## LRU-capped compiled residency
//!
//! Bundle JSON stays resident for every registered model (it is the
//! source of truth for swaps and metadata), but the *compiled*
//! word-parallel form is derived state that costs real memory per
//! model. [`ModelRegistry::touch`] lowers it lazily on first use and
//! maintains an LRU over bundles whose compiled form is resident; past
//! `ModelRegistry::max_resident`, the coldest bundle's cache is
//! evicted ([`ModelBundle::evict_compiled`]) — in-flight requests keep
//! the `Arc<CompiledModel>` they already cloned, and the next request
//! for the evicted model simply re-lowers. `bstc_models_resident` and
//! `bstc_model_compile_evictions_total` expose the cache behavior.

use crate::bundle::{BundleError, ModelBundle};
use crate::chaos;
use crate::metrics::Metrics;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError, RwLock, Weak};

/// One immutable served version of a named model. Swaps replace the
/// whole `Arc`, so a request that resolved a version keeps a consistent
/// (bundle, version, checksum) triple for its entire lifetime.
#[derive(Debug)]
pub struct ModelVersion {
    /// The model name this version serves under.
    pub name: String,
    /// Monotone per-name version number (`v1` on first load).
    pub version: u64,
    /// The envelope checksum of the bundle payload (`fnv1a64:<16hex>`),
    /// identifying exactly which artifact this version was loaded from:
    /// for a bundle read from disk, the checksum verified at load; for
    /// one registered from memory, [`ModelBundle::content_checksum`].
    /// The two agree for every file [`ModelBundle::save`] writes.
    pub checksum: String,
    /// Where the artifact came from; per-model `/reload` re-reads it.
    pub source: Option<PathBuf>,
    /// The served bundle.
    pub bundle: Arc<ModelBundle>,
}

/// The mutable slot one model name points at.
#[derive(Debug)]
struct ModelState {
    current: RwLock<Arc<ModelVersion>>,
}

impl ModelState {
    fn current(&self) -> Arc<ModelVersion> {
        self.current.read().unwrap_or_else(PoisonError::into_inner).clone()
    }
}

/// Why a registry operation failed.
#[derive(Debug)]
pub enum RegistryError {
    /// No model is registered under the requested name.
    UnknownModel(String),
    /// The model name is not servable (empty, too long, or containing
    /// characters that would be unsafe in a path segment or an
    /// unbounded-cardinality metric label).
    BadName(String),
    /// Loading or validating the new artifact failed; the old version
    /// (if any) keeps serving.
    Load(BundleError),
    /// The registry was asked to load a directory with no bundles.
    Empty(PathBuf),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::UnknownModel(name) => write!(f, "no model named '{name}'"),
            RegistryError::BadName(name) => write!(
                f,
                "'{name}' is not a servable model name (1-64 chars of [A-Za-z0-9._-], \
                 not starting with '.')"
            ),
            RegistryError::Load(e) => write!(f, "{e}"),
            RegistryError::Empty(dir) => {
                write!(f, "no .json bundles found in '{}'", dir.display())
            }
        }
    }
}

impl std::error::Error for RegistryError {}

impl RegistryError {
    /// The HTTP status a failed registry operation maps to.
    pub fn http_status(&self) -> u16 {
        match self {
            RegistryError::UnknownModel(_) => 404,
            RegistryError::BadName(_) => 400,
            RegistryError::Load(e) => e.http_status(),
            RegistryError::Empty(_) => 500,
        }
    }

    /// The machine-readable error code for the structured JSON body.
    pub fn code(&self) -> &'static str {
        match self {
            RegistryError::UnknownModel(_) => "unknown_model",
            RegistryError::BadName(_) => "bad_model_name",
            RegistryError::Load(_) => "reload_failed",
            RegistryError::Empty(_) => "no_models",
        }
    }
}

/// A model name that is safe as a path segment and a metric label:
/// 1–64 chars of `[A-Za-z0-9._-]`, not starting with `.`. Bounding the
/// alphabet and length here is what keeps `{model}`-labeled metric
/// families from growing unbounded cardinality.
pub fn valid_model_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && !name.starts_with('.')
        && name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'.')
}

/// The LRU bookkeeping over compiled residency. Entries hold `Weak`
/// bundle references keyed by pointer identity, so a swapped-out
/// version's stale entry prunes itself instead of pinning the bundle.
#[derive(Debug, Default)]
struct ResidencyLru {
    /// Most-recently-used last.
    order: Vec<(usize, Weak<ModelBundle>)>,
}

/// The registry: a name → `ModelState` map plus the residency LRU.
#[derive(Debug)]
pub struct ModelRegistry {
    models: RwLock<BTreeMap<String, Arc<ModelState>>>,
    /// Name the legacy single-model routes (`/classify`, `/model`,
    /// `/reload`) alias to.
    default_name: String,
    /// Most compiled models kept resident at once (0 = unlimited).
    max_resident: usize,
    lru: Mutex<ResidencyLru>,
    metrics: Arc<Metrics>,
}

impl ModelRegistry {
    /// An empty registry. `max_resident` caps how many *compiled*
    /// models stay cached (0 = no cap); `default_name` is what the
    /// legacy unnamed routes resolve to.
    pub fn new(
        default_name: impl Into<String>,
        max_resident: usize,
        metrics: Arc<Metrics>,
    ) -> ModelRegistry {
        ModelRegistry {
            models: RwLock::new(BTreeMap::new()),
            default_name: default_name.into(),
            max_resident,
            lru: Mutex::new(ResidencyLru::default()),
            metrics,
        }
    }

    /// Builds a registry from a directory of `*.json` bundle envelopes:
    /// each file registers under its stem (`tumor.json` → `tumor`) at
    /// version 1. The default model is `default_name` when given and
    /// present, otherwise the lexicographically first name.
    ///
    /// # Errors
    /// Fails when the directory is unreadable, holds no bundles, any
    /// bundle fails verification, or a stem is not a valid model name —
    /// a fleet that cannot load *completely* should not boot at all.
    pub fn load_dir(
        dir: &Path,
        default_name: Option<String>,
        max_resident: usize,
        metrics: Arc<Metrics>,
    ) -> Result<ModelRegistry, RegistryError> {
        let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
            .map_err(|e| RegistryError::Load(BundleError::Io(e)))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|e| e == "json"))
            .collect();
        paths.sort();
        if paths.is_empty() {
            return Err(RegistryError::Empty(dir.to_path_buf()));
        }
        let mut names = Vec::with_capacity(paths.len());
        for path in &paths {
            let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or_default().to_string();
            if !valid_model_name(&stem) {
                return Err(RegistryError::BadName(stem));
            }
            names.push(stem);
        }
        let default_name = match default_name {
            Some(name) => {
                if !names.contains(&name) {
                    return Err(RegistryError::UnknownModel(name));
                }
                name
            }
            None => names[0].clone(),
        };
        let registry = ModelRegistry::new(default_name, max_resident, metrics);
        for (name, path) in names.into_iter().zip(paths) {
            let (bundle, checksum) =
                ModelBundle::load_verified(&path).map_err(RegistryError::Load)?;
            registry.register(&name, bundle, checksum, Some(path));
        }
        Ok(registry)
    }

    /// Registers `bundle` under `name` at version 1 (replacing any
    /// existing registration wholesale — use [`Self::swap`] for the
    /// version-bumping path).
    ///
    /// # Errors
    /// Rejects invalid names and bundles whose checksum cannot be
    /// computed.
    pub fn insert(
        &self,
        name: &str,
        bundle: ModelBundle,
        source: Option<PathBuf>,
    ) -> Result<Arc<ModelVersion>, RegistryError> {
        if !valid_model_name(name) {
            return Err(RegistryError::BadName(name.to_string()));
        }
        let checksum = bundle.content_checksum().map_err(RegistryError::Load)?;
        Ok(self.register(name, bundle, checksum, source))
    }

    /// Stores `bundle` under an already-validated `name` at version 1,
    /// with its already-known checksum.
    fn register(
        &self,
        name: &str,
        bundle: ModelBundle,
        checksum: String,
        source: Option<PathBuf>,
    ) -> Arc<ModelVersion> {
        let version = Arc::new(ModelVersion {
            name: name.to_string(),
            version: 1,
            checksum,
            source,
            bundle: Arc::new(bundle),
        });
        self.models.write().unwrap_or_else(PoisonError::into_inner).insert(
            name.to_string(),
            Arc::new(ModelState { current: RwLock::new(Arc::clone(&version)) }),
        );
        version
    }

    /// The name the legacy unnamed routes serve.
    pub fn default_name(&self) -> &str {
        &self.default_name
    }

    /// Resolves a name to its current version.
    ///
    /// # Errors
    /// [`RegistryError::UnknownModel`] when nothing is registered under
    /// `name`.
    pub fn get(&self, name: &str) -> Result<Arc<ModelVersion>, RegistryError> {
        let state = self
            .models
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
            .cloned()
            .ok_or_else(|| RegistryError::UnknownModel(name.to_string()))?;
        Ok(state.current())
    }

    /// The current version of the default model.
    ///
    /// # Errors
    /// [`RegistryError::UnknownModel`] when the default was never
    /// registered (a construction bug; `serve` registers it up front).
    pub fn default_version(&self) -> Result<Arc<ModelVersion>, RegistryError> {
        self.get(&self.default_name)
    }

    /// Every registered model's current version, in name order.
    pub fn list(&self) -> Vec<Arc<ModelVersion>> {
        self.models
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
            .map(|state| state.current())
            .collect()
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.models.read().unwrap_or_else(PoisonError::into_inner).len()
    }

    /// Whether the registry holds no models.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Atomically swaps `name` to the artifact at `path` (or its
    /// recorded source when `path` is `None`), bumping the version.
    ///
    /// All fallible work — the `registry` chaos site, reading the file,
    /// checksum verification, payload validation — happens on a local
    /// value *before* the store, so any failure (including an injected
    /// panic) leaves the old version serving untouched. The store
    /// itself is a single `Arc` assignment under the model's write
    /// lock: a concurrent request observes entirely the old version or
    /// entirely the new one, never a mix.
    ///
    /// # Errors
    /// [`RegistryError::UnknownModel`] for unregistered names, a
    /// [`RegistryError::Load`] when the artifact cannot be loaded or
    /// verified (the old version keeps serving either way).
    pub fn swap(
        &self,
        name: &str,
        path: Option<PathBuf>,
    ) -> Result<Arc<ModelVersion>, RegistryError> {
        let state = self
            .models
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
            .cloned()
            .ok_or_else(|| RegistryError::UnknownModel(name.to_string()))?;
        // Chaos site: a panic, stall, or injected i/o error lands here,
        // strictly before the swap is committed.
        chaos::io_point("registry").map_err(|e| RegistryError::Load(BundleError::Io(e)))?;
        let current = state.current();
        let path = match path.or_else(|| current.source.clone()) {
            Some(p) => p,
            None => {
                return Err(RegistryError::Load(BundleError::Io(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!("model '{name}' has no recorded source; pass {{\"path\": ...}}"),
                ))))
            }
        };
        // The loader hands back the envelope checksum it just verified;
        // hashing the deserialized bundle again would cost more than the
        // parse.
        let (bundle, checksum) = ModelBundle::load_verified(&path).map_err(RegistryError::Load)?;
        let next = Arc::new(ModelVersion {
            name: name.to_string(),
            version: current.version + 1,
            checksum,
            source: Some(path),
            bundle: Arc::new(bundle),
        });
        *state.current.write().unwrap_or_else(PoisonError::into_inner) = Arc::clone(&next);
        Ok(next)
    }

    /// Marks `version`'s bundle as just-used and ensures its compiled
    /// form is resident, evicting the coldest bundles past the
    /// residency cap. Called once per routed request; the actual
    /// classification then reuses the bundle's cached slot for free.
    pub fn touch(&self, version: &ModelVersion) {
        // Chaos site shared with `swap`: a panic injected here fires
        // during lazy compilation, inside the handler's catch_unwind.
        chaos::point("registry");
        let bundle = &version.bundle;
        bundle.compiled();
        let key = Arc::as_ptr(bundle) as usize;
        let mut lru = self.lru.lock().unwrap_or_else(PoisonError::into_inner);
        // Prune entries whose bundle was dropped (swapped-out versions)
        // or evicted behind our back, then move `key` to the MRU end.
        lru.order
            .retain(|(k, weak)| *k != key && weak.upgrade().is_some_and(|b| b.compiled_resident()));
        lru.order.push((key, Arc::downgrade(bundle)));
        if self.max_resident > 0 {
            while lru.order.len() > self.max_resident {
                let (_, coldest) = lru.order.remove(0);
                if let Some(cold) = coldest.upgrade() {
                    if cold.evict_compiled() {
                        self.metrics.compile_evictions.inc();
                    }
                }
            }
        }
        self.metrics.models_resident.set(lru.order.len() as u64);
    }

    /// How many compiled models the LRU currently tracks as resident.
    pub fn resident(&self) -> usize {
        let mut lru = self.lru.lock().unwrap_or_else(PoisonError::into_inner);
        lru.order.retain(|(_, weak)| weak.upgrade().is_some_and(|b| b.compiled_resident()));
        lru.order.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::Provenance;
    use microarray::ContinuousDataset;

    fn toy(flip: bool) -> ContinuousDataset {
        let labels = if flip { vec![1, 1, 1, 1, 0, 0, 0, 0] } else { vec![0, 0, 0, 0, 1, 1, 1, 1] };
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
            labels,
        )
        .unwrap()
    }

    fn bundle(name: &str, flip: bool) -> ModelBundle {
        ModelBundle::train(&toy(flip), Provenance::new(name, None)).unwrap()
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("bstc_registry_test_{}_{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn names_are_validated() {
        for good in ["a", "tumor", "all-aml_v2", "m.2024", "x".repeat(64).as_str()] {
            assert!(valid_model_name(good), "{good}");
        }
        for bad in ["", ".hidden", "a/b", "a b", "x".repeat(65).as_str(), "ümlaut"] {
            assert!(!valid_model_name(bad), "{bad:?}");
        }
    }

    #[test]
    fn insert_get_list_and_default() {
        let r = ModelRegistry::new("beta", 0, Arc::new(Metrics::new()));
        r.insert("beta", bundle("ds-b", false), None).unwrap();
        r.insert("alpha", bundle("ds-a", false), None).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.default_name(), "beta");
        assert_eq!(r.default_version().unwrap().bundle.provenance.dataset, "ds-b");
        let listed: Vec<String> = r.list().iter().map(|v| v.name.clone()).collect();
        assert_eq!(listed, ["alpha", "beta"], "listing is name-ordered");
        assert!(matches!(r.get("gamma"), Err(RegistryError::UnknownModel(_))));
        assert!(matches!(
            r.insert("no/slash", bundle("x", false), None),
            Err(RegistryError::BadName(_))
        ));
        let v = r.get("alpha").unwrap();
        assert_eq!(v.version, 1);
        assert!(v.checksum.starts_with("fnv1a64:"));
    }

    #[test]
    fn load_dir_registers_by_stem_and_rejects_unknown_default() {
        let dir = tmp_dir("load_dir");
        bundle("ds-a", false).save(dir.join("alpha.json")).unwrap();
        bundle("ds-b", false).save(dir.join("beta.json")).unwrap();
        let r = ModelRegistry::load_dir(&dir, None, 0, Arc::new(Metrics::new())).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.default_name(), "alpha", "lexicographic default");
        let beta = r.get("beta").unwrap();
        assert_eq!(beta.bundle.provenance.dataset, "ds-b");
        assert_eq!(beta.checksum, beta.bundle.content_checksum().unwrap());
        let r = ModelRegistry::load_dir(&dir, Some("beta".into()), 0, Arc::new(Metrics::new()))
            .unwrap();
        assert_eq!(r.default_name(), "beta");
        assert!(matches!(
            ModelRegistry::load_dir(&dir, Some("nope".into()), 0, Arc::new(Metrics::new())),
            Err(RegistryError::UnknownModel(_))
        ));
        let empty = tmp_dir("load_dir_empty");
        assert!(matches!(
            ModelRegistry::load_dir(&empty, None, 0, Arc::new(Metrics::new())),
            Err(RegistryError::Empty(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&empty).ok();
    }

    #[test]
    fn swap_bumps_version_and_failure_rolls_back() {
        let dir = tmp_dir("swap");
        let path = dir.join("m.json");
        bundle("gen-1", false).save(&path).unwrap();
        let r = ModelRegistry::new("m", 0, Arc::new(Metrics::new()));
        r.insert("m", ModelBundle::load(&path).unwrap(), Some(path.clone())).unwrap();
        let v1 = r.get("m").unwrap();
        assert_eq!((v1.version, v1.bundle.provenance.dataset.as_str()), (1, "gen-1"));

        bundle("gen-2", false).save(&path).unwrap();
        let v2 = r.swap("m", None).unwrap();
        assert_eq!((v2.version, v2.bundle.provenance.dataset.as_str()), (2, "gen-2"));
        assert_ne!(v1.checksum, v2.checksum);
        assert_eq!(v2.checksum, v2.bundle.content_checksum().unwrap(), "load-verified checksum");

        // A corrupt artifact fails the swap and the old version serves on.
        std::fs::write(&path, "{ not a bundle").unwrap();
        assert!(matches!(r.swap("m", None), Err(RegistryError::Load(_))));
        let still = r.get("m").unwrap();
        assert_eq!((still.version, still.bundle.provenance.dataset.as_str()), (2, "gen-2"));

        assert!(matches!(r.swap("ghost", None), Err(RegistryError::UnknownModel(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lru_caps_compiled_residency_and_counts_evictions() {
        let metrics = Arc::new(Metrics::new());
        let r = ModelRegistry::new("m0", 2, Arc::clone(&metrics));
        for i in 0..3 {
            r.insert(format!("m{i}").as_str(), bundle(&format!("ds{i}"), false), None).unwrap();
        }
        let v0 = r.get("m0").unwrap();
        let v1 = r.get("m1").unwrap();
        let v2 = r.get("m2").unwrap();
        r.touch(&v0);
        r.touch(&v1);
        assert_eq!(r.resident(), 2);
        assert!(v0.bundle.compiled_resident() && v1.bundle.compiled_resident());
        // Third model compiles; m0 (coldest) is evicted.
        r.touch(&v2);
        assert_eq!(r.resident(), 2);
        assert!(!v0.bundle.compiled_resident(), "coldest bundle evicted");
        assert!(v1.bundle.compiled_resident() && v2.bundle.compiled_resident());
        // Touching m1 keeps it warm, so re-touching m0 evicts m2... no:
        // after the touch order m1, m0 the coldest is m2.
        r.touch(&v1);
        r.touch(&v0);
        assert!(!v2.bundle.compiled_resident(), "LRU order, not FIFO");
        assert!(v1.bundle.compiled_resident() && v0.bundle.compiled_resident());
        let snap = metrics.snapshot();
        assert_eq!(snap.compile_evictions, 2);
        assert_eq!(snap.models_resident, 2);
        // Evicted-and-retouched models still classify correctly.
        let p = v0.bundle.classify_row(&[1.0, 4.0]).unwrap();
        assert_eq!(p.label, "neg");
    }

    #[test]
    fn unlimited_residency_never_evicts() {
        let metrics = Arc::new(Metrics::new());
        let r = ModelRegistry::new("m0", 0, Arc::clone(&metrics));
        let versions: Vec<_> = (0..4)
            .map(|i| {
                r.insert(format!("m{i}").as_str(), bundle(&format!("ds{i}"), false), None).unwrap()
            })
            .collect();
        for v in &versions {
            r.touch(v);
        }
        assert_eq!(r.resident(), 4);
        assert_eq!(metrics.snapshot().compile_evictions, 0);
    }

    #[test]
    fn swapped_out_versions_fall_off_the_lru() {
        let dir = tmp_dir("lru_swap");
        let path = dir.join("m.json");
        bundle("gen-1", false).save(&path).unwrap();
        let r = ModelRegistry::new("m", 2, Arc::new(Metrics::new()));
        r.insert("m", ModelBundle::load(&path).unwrap(), Some(path.clone())).unwrap();
        let v1 = r.get("m").unwrap();
        r.touch(&v1);
        assert_eq!(r.resident(), 1);
        bundle("gen-2", false).save(&path).unwrap();
        let v2 = r.swap("m", None).unwrap();
        r.touch(&v2);
        drop(v1); // last strong ref to the old version's bundle
        assert_eq!(r.resident(), 1, "stale weak entries prune themselves");
        std::fs::remove_dir_all(&dir).ok();
    }
}
