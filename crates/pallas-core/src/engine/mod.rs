//! The staged analysis engine.
//!
//! [`Engine`] runs the pipeline as five explicit stages —
//! **Merge → Parse → Spec → Extract → Check** — each producing a typed
//! artifact plus a [`StageTiming`]. A unit's finished analysis — the
//! artifacts of the first four stages (the *frontend*) together with
//! the Check stage's warnings — is memoized in a content-addressed
//! cache keyed by an FNV-1a fingerprint over the unit's name, files,
//! spec text, extraction configuration and rule selection
//! ([`fingerprint`]). The checkers are a pure function of those
//! inputs, so re-checking the same unit — as the `repro` harness does
//! when Tables 1, 7, and 8 all evaluate the same corpus — runs every
//! stage exactly once; a repeat is a lookup.
//!
//! Batches go through a range-splitting scheduler ([`schedule`]) that
//! keeps skewed workloads balanced, and every unit is panic-isolated:
//! an internal panic while checking one unit becomes
//! [`PallasErrorKind::Internal`](crate::PallasErrorKind) for that unit
//! instead of tearing down the batch.
//!
//! [`Pallas`](crate::Pallas) remains the stateless one-shot facade; it
//! delegates to a fresh `Engine` per call. Hold an `Engine` (or clone
//! its handle — clones share the cache) whenever the same units may be
//! checked more than once.
//!
//! ```
//! use pallas_core::{Engine, SourceUnit};
//!
//! # fn main() -> Result<(), pallas_core::PallasError> {
//! let engine = Engine::new();
//! let unit = SourceUnit::new("demo")
//!     .with_file("demo.c", "int f(void) { return 0; }")
//!     .with_spec("fastpath f;");
//! engine.check_unit(&unit)?;
//! let again = engine.check_unit(&unit)?; // served from cache
//! assert!(again.stage_timings.iter().all(|t| t.cached));
//! assert_eq!((engine.stats().parses, engine.stats().checks), (1, 1));
//! # Ok(())
//! # }
//! ```

pub mod cache;
mod codec;
pub mod fingerprint;
pub mod schedule;
mod store_layer;

pub use store_layer::STORE_FORMAT_VERSION;

use crate::pipeline::{AnalyzedUnit, PallasError, PallasErrorKind};
use crate::unit::{MergeMap, SourceUnit};
use cache::BoundedCache;
use pallas_checkers::{run_rules_timed, CheckContext, CheckerTiming, RuleSet, Warning};
use pallas_lang::{parse, Ast};
use pallas_spec::{parse_pragma, parse_spec, FastPathSpec, LintIssue};
use pallas_sym::{ExtractConfig, FunctionExtractor, PathDb};
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use store_layer::StoreLayer;

/// The five pipeline stages, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// Concatenate the unit's files into one buffer.
    Merge,
    /// Parse the merged buffer into an AST.
    Parse,
    /// Parse the spec document and fold in inline pragmas.
    Spec,
    /// Extract the symbolic path database.
    Extract,
    /// Run the checker families over the artifacts.
    Check,
}

impl Stage {
    /// All stages in execution order.
    pub const ALL: [Stage; 5] =
        [Stage::Merge, Stage::Parse, Stage::Spec, Stage::Extract, Stage::Check];

    /// Lower-case stage name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Merge => "merge",
            Stage::Parse => "parse",
            Stage::Spec => "spec",
            Stage::Extract => "extract",
            Stage::Check => "check",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Wall-clock record of one stage over one unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageTiming {
    /// Which stage.
    pub stage: Stage,
    /// Time spent (zero when served from cache).
    pub elapsed: Duration,
    /// Whether the artifact came from the frontend cache.
    pub cached: bool,
}

/// Engine-level configuration: the extraction limits, the enabled
/// rule set, and the frontend cache bound. The extraction config and
/// the rule set participate in every cache key; the cache bound only
/// controls memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineConfig {
    /// Extraction limits (part of the frontend cache key).
    pub extract: ExtractConfig,
    /// The registry rules the Check stage runs (part of the frontend
    /// cache key, so selections never share cached artifacts with
    /// differently-scoped runs). Defaults to every registered rule.
    pub rules: RuleSet,
    /// Maximum cached frontends; `0` disables the cache. Long-lived
    /// holders (the `pallas-service` daemon) must keep this bounded
    /// or distinct units grow the process without limit.
    pub cache_capacity: usize,
    /// Path of the persistent analysis store, layered *under* the
    /// in-memory cache: memory hit → disk hit → compute-and-persist.
    /// `None` (the default) disables persistence. The store is keyed
    /// by the same content fingerprints as the memory cache (extended
    /// with [`STORE_FORMAT_VERSION`] and per-function content hashes),
    /// so persisted results are exactly the ones a fresh computation
    /// would produce; a store that fails to open or turns out corrupt
    /// degrades to recomputation with a warning on stderr, never an
    /// error or a wrong answer.
    pub store_path: Option<PathBuf>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            extract: ExtractConfig::default(),
            rules: RuleSet::all(),
            cache_capacity: DEFAULT_CACHE_CAPACITY,
            store_path: None,
        }
    }
}

/// Default frontend cache bound. Sized for corpus-scale batches: the
/// full evaluation corpus is ~100 units, so one order of magnitude
/// above that keeps every workload in this repo hit-for-hit identical
/// to the old unbounded cache while capping daemon memory.
pub const DEFAULT_CACHE_CAPACITY: usize = 1024;

/// Snapshot of an engine's cumulative counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Units checked (cache hits included).
    pub units_checked: u64,
    /// Frontend cache hits.
    pub cache_hits: u64,
    /// Frontend cache misses (frontends built).
    pub cache_misses: u64,
    /// Frontends evicted by the cache bound.
    pub cache_evictions: u64,
    /// Frontends currently resident in the cache.
    pub cached_frontends: u64,
    /// The cache bound (`0` = caching disabled).
    pub cache_capacity: u64,
    /// Merge stage invocations.
    pub merges: u64,
    /// Parse stage invocations.
    pub parses: u64,
    /// Spec stage invocations.
    pub spec_parses: u64,
    /// Extract stage invocations.
    pub extracts: u64,
    /// Check stage invocations (cache and store hits excluded — they
    /// re-serve the warnings of an earlier Check).
    pub checks: u64,
    /// Paths extracted across all Extract stage invocations (cache
    /// hits excluded — they re-serve previously extracted paths).
    pub paths_enumerated: u64,
    /// Decision arms the feasibility oracle pruned as contradictory
    /// across all Extract stage invocations.
    pub paths_pruned: u64,
    /// Natural loops given effect summaries across all Extract stage
    /// invocations (0 with `loop_summaries` disabled).
    pub loops_summarized: u64,
    /// Environment bindings havocked at loop exits across all
    /// extracted paths (0 with `loop_summaries` disabled).
    pub vars_havocked: u64,
    /// Cumulative nanoseconds per stage, in [`Stage::ALL`] order.
    pub stage_nanos: [u64; 5],
    /// Cumulative warnings emitted per registry rule, in
    /// [`pallas_checkers::Rule::ALL`] order (post-dedup counts).
    pub rule_warnings: [u64; pallas_checkers::Rule::ALL.len()],
    /// Whether a persistent store is configured
    /// ([`EngineConfig::store_path`]). All `store_*` counters stay 0
    /// when it is not.
    pub store_enabled: bool,
    /// Unit outcomes served from the persistent store (memory-cache
    /// misses answered from disk with zero Extract/Check work).
    pub store_unit_hits: u64,
    /// Memory-cache misses the store had never seen (unknown unit
    /// name).
    pub store_unit_misses: u64,
    /// Memory-cache misses where the store knew the unit name but its
    /// content fingerprint had changed — the incremental-recheck case.
    pub store_unit_stale: u64,
    /// Functions reused from per-function store records during Extract
    /// (only changed functions re-extract on a stale unit).
    pub store_func_hits: u64,
    /// Functions extracted because the store had never seen them.
    pub store_func_misses: u64,
    /// Functions re-extracted because their content hash changed.
    pub store_func_stale: u64,
    /// Unit records currently live in the store.
    pub store_units_resident: u64,
    /// Function records currently live in the store.
    pub store_functions_resident: u64,
    /// Store log size in bytes.
    pub store_file_bytes: u64,
    /// Store compactions performed by this process.
    pub store_compactions: u64,
}

impl EngineStats {
    /// Cumulative warnings emitted for one rule.
    pub fn warnings_for(&self, rule: pallas_checkers::Rule) -> u64 {
        let idx = pallas_checkers::Rule::ALL
            .iter()
            .position(|&r| r == rule)
            .expect("every rule is in Rule::ALL");
        self.rule_warnings[idx]
    }

    /// Invocation count for one stage.
    pub fn stage_runs(&self, stage: Stage) -> u64 {
        match stage {
            Stage::Merge => self.merges,
            Stage::Parse => self.parses,
            Stage::Spec => self.spec_parses,
            Stage::Extract => self.extracts,
            Stage::Check => self.checks,
        }
    }

    /// Cumulative time spent in one stage.
    pub fn stage_total(&self, stage: Stage) -> Duration {
        Duration::from_nanos(self.stage_nanos[stage.index()])
    }

    /// Frontend (merge + parse + spec + extract) invocation total —
    /// the quantity a warm cache drives down.
    pub fn frontend_runs(&self) -> u64 {
        self.merges + self.parses + self.spec_parses + self.extracts
    }
}

/// The finished analysis of one unit under one fingerprint, shared
/// between repeated checks: the frontend artifacts plus the Check
/// stage's output for the key's rule selection.
#[derive(Debug)]
struct Frontend {
    merged_src: String,
    merge_map: MergeMap,
    // Arc so a warm check shares the parsed AST and extracted path
    // database with every AnalyzedUnit it hands out instead of
    // deep-cloning both per hit.
    ast: Arc<Ast>,
    spec: FastPathSpec,
    db: Arc<PathDb>,
    // Exact-size slices: entries stay resident for the cache's
    // lifetime, so no spare capacity is kept.
    warnings: Box<[Warning]>,
    lint: Box<[LintIssue]>,
}

#[derive(Debug, Default)]
struct Counters {
    units_checked: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    merges: AtomicU64,
    parses: AtomicU64,
    spec_parses: AtomicU64,
    extracts: AtomicU64,
    checks: AtomicU64,
    paths_enumerated: AtomicU64,
    paths_pruned: AtomicU64,
    loops_summarized: AtomicU64,
    vars_havocked: AtomicU64,
    store_unit_hits: AtomicU64,
    store_unit_misses: AtomicU64,
    store_unit_stale: AtomicU64,
    store_func_hits: AtomicU64,
    store_func_misses: AtomicU64,
    store_func_stale: AtomicU64,
    stage_nanos: [AtomicU64; 5],
    rule_warnings: [AtomicU64; pallas_checkers::Rule::ALL.len()],
}

#[derive(Debug)]
struct EngineInner {
    config: EngineConfig,
    cache: Mutex<BoundedCache<u64, Arc<Frontend>>>,
    store: Option<Mutex<StoreLayer>>,
    counters: Counters,
}

/// The staged, caching analysis engine. Cloning is cheap and clones
/// share one cache and one set of counters.
#[derive(Debug, Clone)]
pub struct Engine {
    inner: Arc<EngineInner>,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    /// An engine with the default extraction configuration.
    pub fn new() -> Self {
        Engine::with_config(ExtractConfig::default())
    }

    /// An engine with an explicit extraction configuration (and the
    /// default cache bound). The configuration is part of every cache
    /// key, so engines never serve artifacts extracted under
    /// different limits.
    pub fn with_config(config: ExtractConfig) -> Self {
        Engine::with_engine_config(EngineConfig { extract: config, ..EngineConfig::default() })
    }

    /// An engine with full engine-level configuration, including the
    /// frontend cache bound and the optional persistent store. A store
    /// that cannot be opened (or had to be salvaged) is reported on
    /// stderr and the engine degrades to recomputation — construction
    /// never fails over persistence.
    pub fn with_engine_config(config: EngineConfig) -> Self {
        let store = config.store_path.as_ref().and_then(|path| {
            match StoreLayer::open(path) {
                Ok((layer, report)) => {
                    if let Some(recovery) = &report.recovery {
                        eprintln!(
                            "pallas: warning: analysis store {}: {} — dropped {} byte(s){}; \
                             affected results will be recomputed",
                            path.display(),
                            recovery.reason,
                            recovery.dropped_bytes,
                            if recovery.reset { " (store reset)" } else { "" },
                        );
                    }
                    Some(Mutex::new(layer))
                }
                Err(err) => {
                    eprintln!(
                        "pallas: warning: cannot open analysis store {}: {err}; \
                         continuing without persistence",
                        path.display(),
                    );
                    None
                }
            }
        });
        Engine {
            inner: Arc::new(EngineInner {
                cache: Mutex::new(BoundedCache::new(config.cache_capacity)),
                store,
                config,
                counters: Counters::default(),
            }),
        }
    }

    /// An engine running only the given rules (default extraction
    /// configuration and cache bound).
    pub fn with_rules(rules: RuleSet) -> Self {
        Engine::with_engine_config(EngineConfig { rules, ..EngineConfig::default() })
    }

    /// The engine's extraction configuration.
    pub fn config(&self) -> &ExtractConfig {
        &self.inner.config.extract
    }

    /// The rules this engine's Check stage runs.
    pub fn rules(&self) -> &RuleSet {
        &self.inner.config.rules
    }

    /// The engine-level configuration (extraction + cache bound).
    pub fn engine_config(&self) -> &EngineConfig {
        &self.inner.config
    }

    /// A snapshot of the cumulative counters.
    pub fn stats(&self) -> EngineStats {
        let c = &self.inner.counters;
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let (evictions, resident) = {
            let cache = self.inner.cache.lock().expect("engine cache");
            (cache.evictions(), cache.len() as u64)
        };
        let (store_units, store_functions, store_bytes, store_compactions) =
            match self.inner.store.as_ref().and_then(|s| s.lock().ok()) {
                Some(store) => (
                    store.units_resident(),
                    store.functions_resident(),
                    store.file_bytes(),
                    store.compactions(),
                ),
                None => (0, 0, 0, 0),
            };
        EngineStats {
            units_checked: load(&c.units_checked),
            cache_hits: load(&c.cache_hits),
            cache_misses: load(&c.cache_misses),
            cache_evictions: evictions,
            cached_frontends: resident,
            cache_capacity: self.inner.config.cache_capacity as u64,
            merges: load(&c.merges),
            parses: load(&c.parses),
            spec_parses: load(&c.spec_parses),
            extracts: load(&c.extracts),
            checks: load(&c.checks),
            paths_enumerated: load(&c.paths_enumerated),
            paths_pruned: load(&c.paths_pruned),
            loops_summarized: load(&c.loops_summarized),
            vars_havocked: load(&c.vars_havocked),
            stage_nanos: [
                load(&c.stage_nanos[0]),
                load(&c.stage_nanos[1]),
                load(&c.stage_nanos[2]),
                load(&c.stage_nanos[3]),
                load(&c.stage_nanos[4]),
            ],
            rule_warnings: std::array::from_fn(|i| load(&c.rule_warnings[i])),
            store_enabled: self.inner.store.is_some(),
            store_unit_hits: load(&c.store_unit_hits),
            store_unit_misses: load(&c.store_unit_misses),
            store_unit_stale: load(&c.store_unit_stale),
            store_func_hits: load(&c.store_func_hits),
            store_func_misses: load(&c.store_func_misses),
            store_func_stale: load(&c.store_func_stale),
            store_units_resident: store_units,
            store_functions_resident: store_functions,
            store_file_bytes: store_bytes,
            store_compactions,
        }
    }

    /// Fsyncs the persistent store, if one is configured. Called on
    /// graceful shutdown (daemon drain, end of a CLI run); appends are
    /// already written through, this makes them crash-durable.
    pub fn flush_store(&self) -> std::io::Result<()> {
        if let Some(store) = &self.inner.store {
            let guard = store
                .lock()
                .map_err(|_| std::io::Error::other("store poisoned"))?;
            if pallas_trace::enabled() {
                pallas_trace::instant(pallas_trace::Layer::Store, "store-flush", vec![]);
            }
            guard.flush()?;
        }
        Ok(())
    }

    /// Number of frontends currently cached.
    pub fn cached_frontends(&self) -> usize {
        self.inner.cache.lock().expect("engine cache").len()
    }

    /// Drops every cached frontend (counters are kept).
    pub fn clear_cache(&self) {
        self.inner.cache.lock().expect("engine cache").clear();
    }

    /// Runs the staged pipeline on one unit. When this engine has
    /// checked an identical unit (same name, files, spec,
    /// configuration and rules) before, the finished analysis is
    /// served from the cache and no stage runs.
    ///
    /// # Errors
    ///
    /// Returns [`PallasError`] if the merged source or the spec fails
    /// to parse. Errors are never cached: a failing unit is re-tried
    /// from scratch on every call.
    pub fn check_unit(&self, unit: &SourceUnit) -> Result<AnalyzedUnit, PallasError> {
        self.check_unit_with_rules(unit, &self.inner.config.rules)
    }

    /// Like [`Engine::check_unit`], but runs the given rule set
    /// instead of the engine's configured one. The selection
    /// participates in the frontend cache key, so scoped and default
    /// requests share one cache without ever sharing artifacts across
    /// selections — this is how the daemon honors per-request
    /// `--only-rule` / `--disable-rule` without a second engine.
    pub fn check_unit_with_rules(
        &self,
        unit: &SourceUnit,
        rules: &RuleSet,
    ) -> Result<AnalyzedUnit, PallasError> {
        let started = Instant::now();
        let mut unit_span = pallas_trace::span(pallas_trace::Layer::Unit, &unit.name);
        let counters = &self.inner.counters;
        let mut timings = Vec::with_capacity(Stage::ALL.len());
        let key =
            fingerprint::fingerprint_unit_with_rules(unit, &self.inner.config.extract, rules);
        let cached = self.inner.cache.lock().expect("engine cache").get(&key);
        let hit = cached.is_some();
        if pallas_trace::enabled() {
            pallas_trace::instant(
                pallas_trace::Layer::Cache,
                if hit { "cache-hit" } else { "cache-miss" },
                vec![("fingerprint", pallas_trace::AttrValue::U64(key))],
            );
        }
        let (entry, checker_timings) = match cached {
            Some(entry) => {
                counters.cache_hits.fetch_add(1, Ordering::Relaxed);
                timings.extend(Stage::ALL.map(|stage| StageTiming {
                    stage,
                    elapsed: Duration::ZERO,
                    cached: true,
                }));
                (entry, Vec::new())
            }
            None => {
                counters.cache_misses.fetch_add(1, Ordering::Relaxed);
                let (entry, checker_timings) = self.analyze(unit, key, rules, &mut timings)?;
                let entry = Arc::new(entry);
                self.cache_frontend(key, &entry);
                (entry, checker_timings)
            }
        };
        // Memory hits, store hits and fresh computations all return
        // their unit from one finished entry.
        for w in entry.warnings.iter() {
            if let Some(idx) =
                pallas_checkers::Rule::ALL.iter().position(|&r| r == w.rule)
            {
                counters.rule_warnings[idx].fetch_add(1, Ordering::Relaxed);
            }
        }
        unit_span.attr_bool("cached", hit);
        unit_span.attr_u64("warnings", entry.warnings.len() as u64);
        for t in timings.iter().filter(|t| !t.cached) {
            counters.stage_nanos[t.stage.index()]
                .fetch_add(t.elapsed.as_nanos() as u64, Ordering::Relaxed);
        }
        counters.units_checked.fetch_add(1, Ordering::Relaxed);
        Ok(AnalyzedUnit {
            name: unit.name.clone(),
            merged_src: entry.merged_src.clone(),
            merge_map: entry.merge_map.clone(),
            ast: entry.ast.clone(),
            db: entry.db.clone(),
            spec: entry.spec.clone(),
            warnings: entry.warnings.to_vec(),
            lint: entry.lint.to_vec(),
            elapsed: started.elapsed(),
            stage_timings: timings,
            checker_timings,
        })
    }

    /// Convenience wrapper: a single in-memory source plus spec text.
    pub fn check_source(
        &self,
        name: &str,
        src: &str,
        spec_text: &str,
    ) -> Result<AnalyzedUnit, PallasError> {
        self.check_unit(
            &SourceUnit::new(name).with_file(format!("{name}.c"), src).with_spec(spec_text),
        )
    }

    /// Checks many units in parallel across the host's available
    /// cores through the range-splitting scheduler, preserving input
    /// order.
    pub fn check_many(&self, units: &[SourceUnit]) -> Vec<Result<AnalyzedUnit, PallasError>> {
        self.check_many_jobs(units, default_jobs())
    }

    /// Like [`check_many`](Engine::check_many) with an explicit worker
    /// count. `jobs == 1` runs inline on the calling thread; results
    /// are byte-identical across worker counts.
    pub fn check_many_jobs(
        &self,
        units: &[SourceUnit],
        jobs: usize,
    ) -> Vec<Result<AnalyzedUnit, PallasError>> {
        self.check_many_with(units, jobs, Engine::check_unit)
    }

    /// The scheduling core of [`check_many_jobs`](Engine::check_many_jobs)
    /// with the per-unit work function exposed — instrumentation and
    /// fault-injection tests substitute their own `f`. A panic in `f`
    /// is confined to its unit and surfaces as
    /// [`PallasErrorKind::Internal`].
    pub fn check_many_with<F>(
        &self,
        units: &[SourceUnit],
        jobs: usize,
        f: F,
    ) -> Vec<Result<AnalyzedUnit, PallasError>>
    where
        F: Fn(&Engine, &SourceUnit) -> Result<AnalyzedUnit, PallasError> + Sync,
    {
        schedule::run_tasks(units, jobs, |unit| f(self, unit))
            .into_iter()
            .zip(units)
            .map(|(outcome, unit)| match outcome {
                Ok(result) => result,
                Err(panic_msg) => Err(PallasError {
                    unit: unit.name.clone(),
                    kind: PallasErrorKind::Internal(panic_msg),
                }),
            })
            .collect()
    }

    /// Inserts a finished (computed or disk-restored) analysis into
    /// the memory cache, reporting evictions to the tracer.
    fn cache_frontend(&self, key: u64, frontend: &Arc<Frontend>) {
        let mut cache = self.inner.cache.lock().expect("engine cache");
        let evictions_before = cache.evictions();
        cache.insert(key, Arc::clone(frontend));
        let evicted = cache.evictions() - evictions_before;
        drop(cache);
        if evicted > 0 && pallas_trace::enabled() {
            pallas_trace::instant(
                pallas_trace::Layer::Cache,
                "cache-evict",
                vec![("evicted", pallas_trace::AttrValue::U64(evicted))],
            );
        }
    }

    /// Consults the persistent store for a complete unit outcome,
    /// classifying the miss (never seen vs stale content) for the
    /// counters. Returns the unit's function path sets (source order)
    /// plus its warnings on a hit.
    fn store_unit_lookup(
        &self,
        unit: &SourceUnit,
        fingerprint: u64,
    ) -> Option<(Vec<pallas_sym::FunctionPaths>, Vec<Warning>)> {
        let store = self.inner.store.as_ref()?;
        let counters = &self.inner.counters;
        let guard = store.lock().ok()?;
        let outcome = guard.get_unit(store_layer::unit_key(fingerprint)).and_then(
            |(func_keys, warnings)| {
                let mut functions = Vec::with_capacity(func_keys.len());
                for k in func_keys {
                    functions.push(guard.get_function_record(k)?);
                }
                Some((functions, warnings))
            },
        );
        let event = match &outcome {
            Some(_) => {
                counters.store_unit_hits.fetch_add(1, Ordering::Relaxed);
                "store-hit"
            }
            None => match guard.last_unit_fingerprint(&unit.name) {
                Some(last) if last != fingerprint => {
                    counters.store_unit_stale.fetch_add(1, Ordering::Relaxed);
                    "store-stale"
                }
                _ => {
                    counters.store_unit_misses.fetch_add(1, Ordering::Relaxed);
                    "store-miss"
                }
            },
        };
        drop(guard);
        if pallas_trace::enabled() {
            pallas_trace::instant(
                pallas_trace::Layer::Store,
                event,
                vec![("fingerprint", pallas_trace::AttrValue::U64(fingerprint))],
            );
        }
        outcome
    }

    /// Builds the finished analysis for a memory-cache miss, recording
    /// a timing per stage. The store layer sits under the memory
    /// cache: on a disk hit only the cheap base stages re-run (reports
    /// need the AST and spec) and the stored path database and
    /// warnings are spliced in, so Extract and Check are served from
    /// disk; on a disk miss all five stages run and the result is
    /// persisted.
    fn analyze(
        &self,
        unit: &SourceUnit,
        key: u64,
        rules: &RuleSet,
        timings: &mut Vec<StageTiming>,
    ) -> Result<(Frontend, Vec<CheckerTiming>), PallasError> {
        let stored = self.store_unit_lookup(unit, key);
        let (merged_src, merge_map, ast, spec) = self.build_base(unit, timings)?;
        let (db, warnings, lint, checker_timings) = match stored {
            Some((functions, warnings)) => {
                let mut db = PathDb::new(unit.name.clone());
                for fp in functions {
                    db.insert(fp);
                }
                timings.extend([Stage::Extract, Stage::Check].map(|stage| StageTiming {
                    stage,
                    elapsed: Duration::ZERO,
                    cached: true,
                }));
                (db, warnings, spec.lint(), Vec::new())
            }
            None => {
                let (db, func_keys) = self.extract(unit, &ast, &merged_src, timings);
                let span = pallas_trace::span(pallas_trace::Layer::Stage, Stage::Check.name());
                let t = Instant::now();
                let (warnings, checker_timings) =
                    run_rules_timed(&CheckContext { db: &db, spec: &spec, ast: &ast }, rules);
                let lint = spec.lint();
                drop(span);
                self.inner.counters.checks.fetch_add(1, Ordering::Relaxed);
                timings.push(StageTiming {
                    stage: Stage::Check,
                    elapsed: t.elapsed(),
                    cached: false,
                });
                if let (Some(func_keys), Some(store)) = (&func_keys, &self.inner.store) {
                    if let Ok(mut guard) = store.lock() {
                        let unit_key = store_layer::unit_key(key);
                        guard.put_unit(unit_key, &unit.name, key, func_keys, &warnings);
                    }
                }
                (db, warnings, lint, checker_timings)
            }
        };
        let frontend = Frontend {
            merged_src,
            merge_map,
            ast: Arc::new(ast),
            spec,
            db: Arc::new(db),
            warnings: warnings.into_boxed_slice(),
            lint: lint.into_boxed_slice(),
        };
        Ok((frontend, checker_timings))
    }

    /// Runs the Extract stage, recording its timing. With a store
    /// configured, it reuses per-function records whose content hash
    /// is unchanged, re-extracting (and persisting) only the rest; the
    /// returned keys (one per function, source order) feed the unit
    /// record persisted after Check.
    fn extract(
        &self,
        unit: &SourceUnit,
        ast: &Ast,
        merged_src: &str,
        timings: &mut Vec<StageTiming>,
    ) -> (PathDb, Option<Vec<u64>>) {
        let counters = &self.inner.counters;
        let mut span = pallas_trace::span(pallas_trace::Layer::Stage, Stage::Extract.name());
        let t = Instant::now();
        counters.extracts.fetch_add(1, Ordering::Relaxed);
        let (db, func_keys) = match &self.inner.store {
            Some(store) => {
                let keys =
                    store_layer::function_content_keys(ast, merged_src, &self.inner.config.extract);
                let mut fx = FunctionExtractor::new(ast, merged_src, &self.inner.config.extract);
                let mut db = PathDb::new(unit.name.clone());
                for (name, fkey) in &keys {
                    let reused =
                        store.lock().ok().and_then(|g| g.get_function(*fkey, name));
                    match reused {
                        Some(fp) => {
                            counters.store_func_hits.fetch_add(1, Ordering::Relaxed);
                            if pallas_trace::enabled() {
                                pallas_trace::instant(
                                    pallas_trace::Layer::Store,
                                    "store-func-hit",
                                    vec![(
                                        "function",
                                        pallas_trace::AttrValue::Str(name.clone()),
                                    )],
                                );
                            }
                            db.insert(fp);
                        }
                        None => {
                            let stale = store
                                .lock()
                                .ok()
                                .and_then(|g| g.last_function_key(&unit.name, name))
                                .is_some_and(|last| last != *fkey);
                            let counter = if stale {
                                &counters.store_func_stale
                            } else {
                                &counters.store_func_misses
                            };
                            counter.fetch_add(1, Ordering::Relaxed);
                            if pallas_trace::enabled() {
                                pallas_trace::instant(
                                    pallas_trace::Layer::Store,
                                    if stale { "store-func-stale" } else { "store-func-miss" },
                                    vec![(
                                        "function",
                                        pallas_trace::AttrValue::Str(name.clone()),
                                    )],
                                );
                            }
                            let fp = fx.extract_function(name);
                            counters
                                .paths_enumerated
                                .fetch_add(fp.records.len() as u64, Ordering::Relaxed);
                            counters
                                .paths_pruned
                                .fetch_add(fp.pruned as u64, Ordering::Relaxed);
                            if let Ok(mut guard) = store.lock() {
                                guard.put_function(*fkey, &fp, &unit.name);
                            }
                            db.insert(fp);
                        }
                    }
                }
                let (loops, havocs) = fx.loop_summary_stats();
                counters.loops_summarized.fetch_add(loops, Ordering::Relaxed);
                counters.vars_havocked.fetch_add(havocs, Ordering::Relaxed);
                (db, Some(keys.into_iter().map(|(_, k)| k).collect()))
            }
            None => {
                // Same extraction as `pallas_sym::extract`, but through
                // the incremental entry point so the loop-summary
                // counters are observable.
                let mut fx = FunctionExtractor::new(ast, merged_src, &self.inner.config.extract);
                let mut db = PathDb::new(unit.name.clone());
                for func in ast.functions() {
                    db.insert(fx.extract_function(&func.sig.name));
                }
                counters
                    .paths_enumerated
                    .fetch_add(db.path_count() as u64, Ordering::Relaxed);
                counters.paths_pruned.fetch_add(db.pruned_paths() as u64, Ordering::Relaxed);
                let (loops, havocs) = fx.loop_summary_stats();
                counters.loops_summarized.fetch_add(loops, Ordering::Relaxed);
                counters.vars_havocked.fetch_add(havocs, Ordering::Relaxed);
                (db, None)
            }
        };
        timings.push(StageTiming { stage: Stage::Extract, elapsed: t.elapsed(), cached: false });
        span.attr_u64("functions", db.functions.len() as u64);
        span.attr_u64("paths", db.path_count() as u64);
        span.attr_u64("pruned", db.pruned_paths() as u64);
        drop(span);
        (db, func_keys)
    }

    /// Runs the Merge, Parse, and Spec stages — the cheap part of the
    /// frontend that re-runs even on a persistent-store hit (reports
    /// need the AST and spec; only Extract and Check are persisted).
    fn build_base(
        &self,
        unit: &SourceUnit,
        timings: &mut Vec<StageTiming>,
    ) -> Result<(String, MergeMap, Ast, FastPathSpec), PallasError> {
        let counters = &self.inner.counters;
        let stage = |s: Stage, timings: &mut Vec<StageTiming>, elapsed: Duration| {
            timings.push(StageTiming { stage: s, elapsed, cached: false });
        };

        let span = pallas_trace::span(pallas_trace::Layer::Stage, Stage::Merge.name());
        let t = Instant::now();
        let (merged_src, merge_map) = unit.merge();
        counters.merges.fetch_add(1, Ordering::Relaxed);
        stage(Stage::Merge, timings, t.elapsed());
        drop(span);

        let mut span = pallas_trace::span(pallas_trace::Layer::Stage, Stage::Parse.name());
        let t = Instant::now();
        counters.parses.fetch_add(1, Ordering::Relaxed);
        let ast = parse(&merged_src).map_err(|e| PallasError {
            unit: unit.name.clone(),
            kind: PallasErrorKind::Parse(e),
        })?;
        stage(Stage::Parse, timings, t.elapsed());
        span.attr_u64("bytes", merged_src.len() as u64);
        drop(span);

        let span = pallas_trace::span(pallas_trace::Layer::Stage, Stage::Spec.name());
        let t = Instant::now();
        counters.spec_parses.fetch_add(1, Ordering::Relaxed);
        let mut spec = parse_spec(&unit.spec_text).map_err(|e| PallasError {
            unit: unit.name.clone(),
            kind: PallasErrorKind::Spec(e),
        })?;
        for pragma in ast.pragmas() {
            let fragment = parse_pragma(pragma).map_err(|e| PallasError {
                unit: unit.name.clone(),
                kind: PallasErrorKind::Spec(e),
            })?;
            spec.merge(fragment);
        }
        if spec.unit.is_empty() {
            spec.unit = unit.name.clone();
        }
        stage(Stage::Spec, timings, t.elapsed());
        drop(span);

        Ok((merged_src, merge_map, ast, spec))
    }
}

/// Default worker count: the host's available parallelism.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map(usize::from).unwrap_or(4)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(i: usize) -> SourceUnit {
        SourceUnit::new(format!("u{i}"))
            .with_file("f.c", format!("int f{i}(int x) {{ return x + {i}; }}"))
            .with_spec(format!("fastpath f{i};"))
    }

    #[test]
    fn stage_timings_cover_all_stages_in_order() {
        let engine = Engine::new();
        let report = engine.check_unit(&unit(0)).unwrap();
        let stages: Vec<Stage> = report.stage_timings.iter().map(|t| t.stage).collect();
        assert_eq!(stages, Stage::ALL);
        assert!(report.stage_timings.iter().all(|t| !t.cached));
        assert_eq!(report.checker_timings.len(), pallas_checkers::Rule::ALL.len());
    }

    #[test]
    fn scoped_engine_runs_only_selected_rules() {
        use pallas_checkers::Rule;
        // Two findable bugs (1.2 overwrite + 4.1 fault); a scoped
        // engine sees only the enabled rule and times only it.
        let unit = SourceUnit::new("scoped")
            .with_file("s.c", "int f(int m) { m = 1; return 0; }")
            .with_spec("fastpath f; immutable m; fault dead;");
        let full = Engine::new().check_unit(&unit).unwrap();
        assert_eq!(full.warnings.len(), 2, "{:#?}", full.warnings);
        let scoped = Engine::with_rules(RuleSet::only([Rule::ImmutableOverwrite]));
        let report = scoped.check_unit(&unit).unwrap();
        assert_eq!(report.warnings.len(), 1, "{:#?}", report.warnings);
        assert_eq!(report.warnings[0].rule, Rule::ImmutableOverwrite);
        assert_eq!(report.checker_timings.len(), 1);
        assert_eq!(scoped.stats().warnings_for(Rule::ImmutableOverwrite), 1);
        assert_eq!(scoped.stats().warnings_for(Rule::FaultMissing), 0);
    }

    #[test]
    fn second_check_hits_the_cache() {
        let engine = Engine::new();
        engine.check_unit(&unit(0)).unwrap();
        let warm = engine.check_unit(&unit(0)).unwrap();
        let stats = engine.stats();
        assert_eq!(stats.units_checked, 2);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.parses, 1);
        assert_eq!(stats.extracts, 1);
        assert_eq!(stats.checks, 1, "a hit re-serves the stored warnings");
        let stages: Vec<Stage> = warm.stage_timings.iter().map(|t| t.stage).collect();
        assert_eq!(stages, Stage::ALL);
        assert!(warm.stage_timings.iter().all(|t| t.cached && t.elapsed.is_zero()));
        assert!(warm.checker_timings.is_empty());
    }

    #[test]
    fn hits_under_interleaved_rule_selections_match_fresh_engines() {
        use pallas_checkers::Rule;
        // `expensive` makes rule 7.1 fire; the repeated `immutable`
        // gives the unit a spec lint note.
        let mut unit = buggy_unit();
        unit.spec_text.push_str(" expensive helper; immutable m;");
        let selections = [
            RuleSet::all(),
            RuleSet::only([Rule::FastPathExpensive]),
            RuleSet::all().without(Rule::ImmutableOverwrite),
        ];
        let fresh: Vec<AnalyzedUnit> = selections
            .iter()
            .map(|rules| Engine::new().check_unit_with_rules(&unit, rules).unwrap())
            .collect();
        assert!(fresh[1].warnings.iter().all(|w| w.rule == Rule::FastPathExpensive));
        assert!(!fresh[1].warnings.is_empty() && fresh[0].warnings.len() > fresh[2].warnings.len());
        assert!(!fresh[0].lint.is_empty());
        let engine = Engine::new();
        for round in 0..3 {
            for (rules, expected) in selections.iter().zip(&fresh) {
                let got = engine.check_unit_with_rules(&unit, rules).unwrap();
                assert_eq!(got.from_cache(), round > 0);
                assert_eq!(got.warnings, expected.warnings, "{rules:?} round {round}");
                assert_eq!(got.lint, expected.lint);
            }
        }
        let stats = engine.stats();
        assert_eq!(stats.checks, selections.len() as u64, "one Check per selection");
        assert_eq!(stats.cache_hits, 2 * selections.len() as u64);
    }

    #[test]
    fn cache_is_keyed_by_configuration() {
        let unit = unit(0);
        let engine = Engine::new();
        engine.check_unit(&unit).unwrap();
        // A differently-configured engine shares nothing.
        let shallow = Engine::with_config(ExtractConfig {
            inline_depth: 0,
            ..ExtractConfig::default()
        });
        shallow.check_unit(&unit).unwrap();
        assert_eq!(shallow.stats().cache_misses, 1);
    }

    #[test]
    fn clones_share_cache_and_counters() {
        let engine = Engine::new();
        let clone = engine.clone();
        engine.check_unit(&unit(0)).unwrap();
        clone.check_unit(&unit(0)).unwrap();
        assert_eq!(engine.stats().cache_hits, 1);
        assert_eq!(engine.cached_frontends(), 1);
    }

    #[test]
    fn errors_are_not_cached() {
        let engine = Engine::new();
        let bad = SourceUnit::new("bad").with_file("b.c", "int f( {").with_spec("");
        assert!(engine.check_unit(&bad).is_err());
        assert!(engine.check_unit(&bad).is_err());
        assert_eq!(engine.cached_frontends(), 0);
        assert_eq!(engine.stats().parses, 2, "failed units re-run from scratch");
    }

    #[test]
    fn check_many_matches_sequential_results() {
        let units: Vec<SourceUnit> = (0..12).map(unit).collect();
        let engine = Engine::new();
        let parallel = engine.check_many_jobs(&units, 4);
        let sequential: Vec<_> = units.iter().map(|u| Engine::new().check_unit(u)).collect();
        for (p, s) in parallel.iter().zip(&sequential) {
            let (p, s) = (p.as_ref().unwrap(), s.as_ref().unwrap());
            assert_eq!(p.name, s.name);
            assert_eq!(p.warnings, s.warnings);
        }
    }

    #[test]
    fn panicking_unit_yields_internal_error_for_that_unit_only() {
        let units: Vec<SourceUnit> = (0..6).map(unit).collect();
        let engine = Engine::new();
        let results = engine.check_many_with(&units, 3, |engine, unit| {
            assert!(unit.name != "u3", "injected fault in u3");
            engine.check_unit(unit)
        });
        for (i, r) in results.iter().enumerate() {
            if i == 3 {
                let err = r.as_ref().unwrap_err();
                assert_eq!(err.unit, "u3");
                match &err.kind {
                    PallasErrorKind::Internal(msg) => {
                        assert!(msg.contains("injected fault"), "{msg}")
                    }
                    other => panic!("expected Internal, got {other:?}"),
                }
            } else {
                assert_eq!(r.as_ref().unwrap().name, format!("u{i}"));
            }
        }
    }

    #[test]
    fn clear_cache_forces_rebuild() {
        let engine = Engine::new();
        engine.check_unit(&unit(0)).unwrap();
        engine.clear_cache();
        engine.check_unit(&unit(0)).unwrap();
        assert_eq!(engine.stats().cache_misses, 2);
    }

    #[test]
    fn cache_stays_within_its_bound_across_many_distinct_units() {
        let capacity = 4;
        let engine = Engine::with_engine_config(EngineConfig {
            cache_capacity: capacity,
            ..EngineConfig::default()
        });
        // 3× capacity distinct units: residency must stay flat at the
        // bound while evictions absorb the difference.
        for i in 0..capacity * 3 {
            engine.check_unit(&unit(i)).unwrap();
            assert!(engine.cached_frontends() <= capacity);
        }
        let stats = engine.stats();
        assert_eq!(stats.cached_frontends, capacity as u64);
        assert_eq!(stats.cache_capacity, capacity as u64);
        assert_eq!(stats.cache_evictions, (capacity * 2) as u64);
        assert_eq!(stats.cache_misses, (capacity * 3) as u64);
    }

    #[test]
    fn recently_checked_unit_survives_eviction_pressure() {
        let engine = Engine::with_engine_config(EngineConfig {
            cache_capacity: 3,
            ..EngineConfig::default()
        });
        for wave in 0..4 {
            engine.check_unit(&unit(0)).unwrap(); // keep u0 hot
            engine.check_unit(&unit(100 + wave)).unwrap(); // one-off
        }
        let stats = engine.stats();
        assert!(stats.cache_hits >= 3, "hot unit should keep hitting: {stats:?}");
    }

    #[test]
    fn zero_capacity_engine_rebuilds_every_time() {
        let engine = Engine::with_engine_config(EngineConfig {
            cache_capacity: 0,
            ..EngineConfig::default()
        });
        engine.check_unit(&unit(0)).unwrap();
        engine.check_unit(&unit(0)).unwrap();
        let stats = engine.stats();
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(stats.cache_misses, 2);
        assert_eq!(stats.cached_frontends, 0);
    }

    /// A scratch store path under the system temp dir; the returned
    /// guard removes the directory on drop.
    fn store_path(tag: &str) -> (PathBuf, impl Drop) {
        struct Cleanup(PathBuf);
        impl Drop for Cleanup {
            fn drop(&mut self) {
                let _ = std::fs::remove_dir_all(&self.0);
            }
        }
        let dir = std::env::temp_dir()
            .join(format!("pallas-engine-store-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        (dir.join("analysis.store"), Cleanup(dir))
    }

    fn store_engine(path: &std::path::Path) -> Engine {
        Engine::with_engine_config(EngineConfig {
            store_path: Some(path.to_path_buf()),
            ..EngineConfig::default()
        })
    }

    fn buggy_unit() -> SourceUnit {
        SourceUnit::new("persist")
            .with_file(
                "p.c",
                "int helper(int x) { return x + 1; }\n\
                 int lone(int m) { return m * 2; }\n\
                 int fast(int m) { m = helper(m); return 0; }\n",
            )
            .with_spec("fastpath fast; immutable m; fault dead;")
    }

    #[test]
    fn persistent_store_serves_a_fresh_engine_from_disk() {
        let (path, _cleanup) = store_path("warm");
        let unit = buggy_unit();
        let cold = {
            let engine = store_engine(&path);
            let analyzed = engine.check_unit(&unit).unwrap();
            let stats = engine.stats();
            assert_eq!(stats.store_unit_hits, 0);
            assert_eq!(stats.store_unit_misses, 1);
            assert_eq!(stats.store_func_misses, 3);
            assert!(stats.store_units_resident == 1 && stats.store_functions_resident == 3);
            engine.flush_store().unwrap();
            analyzed
        };
        // A brand-new engine (fresh process state) on the same store:
        // the whole unit comes back from disk with zero Extract/Check
        // stage work.
        let engine = store_engine(&path);
        let warm = engine.check_unit(&unit).unwrap();
        let stats = engine.stats();
        assert_eq!(stats.store_unit_hits, 1, "{stats:?}");
        assert_eq!(stats.extracts, 0, "extract must not run on a store hit");
        assert_eq!(stats.checks, 0, "check must not run on a store hit");
        assert_eq!(stats.paths_enumerated, 0);
        assert_eq!(stats.merges, 1, "base stages still run");
        let by_stage = |a: &AnalyzedUnit, s: Stage| {
            a.stage_timings.iter().find(|t| t.stage == s).copied().unwrap()
        };
        assert!(by_stage(&warm, Stage::Extract).cached);
        assert!(by_stage(&warm, Stage::Check).cached);
        assert!(!by_stage(&warm, Stage::Parse).cached);
        // Persisted results are the computed results, exactly.
        assert_eq!(warm.warnings, cold.warnings);
        assert_eq!(warm.db, cold.db);
        assert_eq!(crate::report::render_ndjson(&warm), crate::report::render_ndjson(&cold));
        assert_eq!(
            crate::report::render_unit_report(&warm),
            crate::report::render_unit_report(&cold)
        );
        // And the warm engine's memory cache was seeded from disk.
        engine.check_unit(&unit).unwrap();
        assert_eq!(engine.stats().cache_hits, 1);
        assert_eq!(engine.stats().store_unit_hits, 1, "memory hit skips the store");
    }

    #[test]
    fn memory_hit_after_a_store_hit_serves_the_stored_result() {
        let (path, _cleanup) = store_path("memo");
        let unit = buggy_unit();
        store_engine(&path).check_unit(&unit).unwrap();
        let engine = store_engine(&path);
        let from_disk = engine.check_unit(&unit).unwrap();
        let from_memory = engine.check_unit(&unit).unwrap();
        let fresh = Engine::new().check_unit(&unit).unwrap();
        assert!(!fresh.warnings.is_empty());
        assert_eq!(from_disk.warnings, fresh.warnings);
        assert_eq!(from_memory.warnings, from_disk.warnings);
        assert_eq!(from_memory.lint, from_disk.lint);
        assert!(from_memory.stage_timings.iter().all(|t| t.cached));
        let stats = engine.stats();
        assert_eq!((stats.store_unit_hits, stats.cache_hits), (1, 1), "{stats:?}");
        assert_eq!(stats.checks, 0, "neither hit runs Check: {stats:?}");
    }

    #[test]
    fn mutating_one_function_recomputes_only_that_function() {
        let (path, _cleanup) = store_path("mutate");
        store_engine(&path).check_unit(&buggy_unit()).unwrap();

        // Edit `lone`, which no other function references: the unit is
        // stale (fingerprint changed) but only `lone` re-extracts.
        let mut edited = buggy_unit();
        edited.files[0].1 = edited.files[0].1.replace("m * 2", "m * 3");
        let engine = store_engine(&path);
        let analyzed = engine.check_unit(&edited).unwrap();
        let stats = engine.stats();
        assert_eq!(stats.store_unit_hits, 0);
        assert_eq!(stats.store_unit_stale, 1, "known unit, changed content: {stats:?}");
        assert_eq!(stats.store_func_hits, 2, "helper and fast are unchanged");
        assert_eq!(stats.store_func_stale, 1, "only lone re-extracts");
        assert_eq!(stats.store_func_misses, 0);
        assert_eq!(stats.checks, 1, "warnings re-run over the reassembled db");

        // The incremental result is exactly what a from-scratch engine
        // computes.
        let scratch = Engine::new().check_unit(&edited).unwrap();
        assert_eq!(analyzed.warnings, scratch.warnings);
        assert_eq!(analyzed.db, scratch.db);
        assert_eq!(
            crate::report::render_ndjson(&analyzed),
            crate::report::render_ndjson(&scratch)
        );
    }

    #[test]
    fn spec_only_change_reuses_every_function() {
        let (path, _cleanup) = store_path("spec");
        store_engine(&path).check_unit(&buggy_unit()).unwrap();
        let mut respecced = buggy_unit();
        respecced.spec_text = "fastpath fast; immutable m;".into();
        let engine = store_engine(&path);
        engine.check_unit(&respecced).unwrap();
        let stats = engine.stats();
        assert_eq!(stats.store_unit_stale, 1);
        assert_eq!(stats.store_func_hits, 3, "extraction is spec-independent: {stats:?}");
        assert_eq!(stats.paths_enumerated, 0);
    }

    #[test]
    fn corrupted_store_degrades_to_recompute_with_identical_results() {
        let (path, _cleanup) = store_path("corrupt");
        let unit = buggy_unit();
        store_engine(&path).check_unit(&unit).unwrap();
        // Flip a byte in the middle of the log: the salvage scan drops
        // the corrupt suffix and the engine recomputes it.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();
        let engine = store_engine(&path);
        let recovered = engine.check_unit(&unit).unwrap();
        let scratch = Engine::new().check_unit(&unit).unwrap();
        assert_eq!(recovered.warnings, scratch.warnings);
        assert_eq!(
            crate::report::render_ndjson(&recovered),
            crate::report::render_ndjson(&scratch)
        );
        assert_eq!(engine.stats().store_unit_hits, 0, "corrupt records never serve hits");
        // The recompute re-persisted everything: a third engine is warm.
        let warm = store_engine(&path);
        warm.check_unit(&unit).unwrap();
        assert_eq!(warm.stats().store_unit_hits, 1);
    }

    #[test]
    fn unopenable_store_path_disables_persistence_without_failing() {
        let engine = Engine::with_engine_config(EngineConfig {
            store_path: Some(PathBuf::from("/nonexistent-dir/analysis.store")),
            ..EngineConfig::default()
        });
        let analyzed = engine.check_unit(&buggy_unit()).unwrap();
        assert!(!analyzed.warnings.is_empty());
        assert!(!engine.stats().store_enabled);
    }

    #[test]
    fn rule_selection_keys_store_records_apart() {
        use pallas_checkers::Rule;
        let (path, _cleanup) = store_path("rules");
        let unit = buggy_unit();
        store_engine(&path).check_unit(&unit).unwrap();
        // A scoped engine must not reuse the full-rule unit record.
        let scoped = Engine::with_engine_config(EngineConfig {
            store_path: Some(path.clone()),
            rules: RuleSet::only([Rule::ImmutableOverwrite]),
            ..EngineConfig::default()
        });
        let analyzed = scoped.check_unit(&unit).unwrap();
        assert_eq!(scoped.stats().store_unit_hits, 0);
        assert!(analyzed.warnings.iter().all(|w| w.rule == Rule::ImmutableOverwrite));
        // But per-function records are selection-independent.
        assert_eq!(scoped.stats().store_func_hits, 3);
    }
}
