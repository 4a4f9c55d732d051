//! `recheck`: re-checking mostly unchanged code with the persistent
//! store, as a patch gate or an editor does after an edit or a
//! restart. The memory cache, fingerprinting, the Check stage and the
//! store do the work; extraction is nearly bypassed.
//!
//! Set-up fills a store-backed engine with the labelled corpora and
//! keeps a copy of that store file. The measured loop mixes, from a
//! seeded stream:
//!
//! * re-checks of unchanged units on the warm engine (three in four);
//! * re-checks of units with one function body edited, drawn in turn
//!   from a fixed seeded set of edits: per-function records are reused,
//!   the edited function is extracted and appended to the store;
//! * every `CYCLE_OPS` operations, a restart: the engine is dropped,
//!   the store file is put back to its set-up copy (untimed), and the
//!   engine is reopened on it and re-checks the whole corpus.
//!
//! Putting the store back each cycle keeps its size, and so the
//! restart cost, from drifting as edits append, and makes every edit
//! in a cycle new to both the memory cache and the store.

use crate::inputs::{edit_unit, labelled, sub_seed, Rng};
use crate::replay::{add_family_times, FAMILIES};
use crate::spans::Tracer;
use crate::stats::{median, ms, ratio, rss_mb, us, Windowed};
use crate::{repeated_setup, Args, Outcome};
use pallas_core::{
    render_ndjson, render_unit_report, AnalyzedUnit, Engine, EngineConfig, EngineStats,
    PallasError, SourceUnit, Stage,
};
use pallas_store::Store;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Worker threads for the whole-corpus re-check after a restart.
const JOBS: usize = 2;
/// Operations between restarts.
const CYCLE_OPS: u64 = 500;
/// One operation in `EDIT_EVERY` is an edit.
const EDIT_EVERY: usize = 4;
/// Size of the fixed edit set; larger than the edits in one cycle, so
/// no edit repeats between two restarts.
const EDITS: usize = 512;
/// Unchanged-unit re-checks run during set-up, untimed.
const WARMUP_OPS: usize = 500;
/// `rss_mb` is read after this many operations (or at the end).
const RSS_AFTER_OPS: u64 = 60_000;

struct Setup {
    corpus: Vec<SourceUnit>,
    /// Cold-engine NDJSON of every corpus unit.
    refs: Vec<String>,
    edits: Vec<SourceUnit>,
    /// Cold-engine NDJSON of every edited unit.
    edit_refs: Vec<String>,
    config: EngineConfig,
    working: PathBuf,
    snapshot: PathBuf,
    engine: Engine,
}

fn ndjson(result: &Result<AnalyzedUnit, PallasError>) -> Result<String, String> {
    result
        .as_ref()
        .map(render_ndjson)
        .map_err(|e| e.to_string())
}

fn setup(args: &Args) -> Result<Setup, String> {
    let corpus = labelled().units;
    let cold = Engine::new();
    let refs = corpus
        .iter()
        .map(|u| ndjson(&cold.check_unit(u)))
        .collect::<Result<Vec<_>, _>>()?;
    let mut rng = Rng::new(sub_seed(args.seed, 1));
    let mut edits = Vec::with_capacity(EDITS);
    for tag in 0..EDITS as u64 {
        let base = &corpus[rng.below(corpus.len())];
        edits.push(edit_unit(base, rng.next_u64(), tag)?);
    }
    let edit_refs = edits
        .iter()
        .map(|u| ndjson(&cold.check_unit(u)))
        .collect::<Result<Vec<_>, _>>()?;

    let working = args.run_dir.join("recheck.store");
    let snapshot = args.run_dir.join("recheck.store.setup");
    for f in [&working, &snapshot] {
        let _ = std::fs::remove_file(f);
    }
    let config = EngineConfig {
        store_path: Some(working.clone()),
        ..EngineConfig::default()
    };
    let fill = Engine::with_engine_config(config.clone());
    for u in &corpus {
        fill.check_unit(u).map_err(|e| format!("store fill: {e}"))?;
    }
    fill.flush_store()
        .map_err(|e| format!("store flush: {e}"))?;
    drop(fill);
    std::fs::copy(&working, &snapshot).map_err(|e| format!("store copy: {e}"))?;

    let engine = Engine::with_engine_config(config.clone());
    for (r, want) in engine.check_many_jobs(&corpus, JOBS).iter().zip(&refs) {
        if ndjson(r)? != *want {
            return Err("warm-up restart output differs from a cold engine's".into());
        }
    }
    for _ in 0..WARMUP_OPS {
        engine
            .check_unit(&corpus[rng.below(corpus.len())])
            .map_err(|e| e.to_string())?;
    }
    Ok(Setup {
        corpus,
        refs,
        edits,
        edit_refs,
        config,
        working,
        snapshot,
        engine,
    })
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let (st, setup_s) = repeated_setup(|| setup(args), drop)?;
    let mut out = Outcome::default();
    measure(args, st, &mut out)?;
    if !args.trace {
        out.set("setup_s", setup_s);
    }
    Ok(out)
}

/// Engine counters summed over every engine the run opened.
#[derive(Default)]
struct Sums {
    hits: u64,
    misses: u64,
    evictions: u64,
    unit_hits: u64,
    unit_lookups: u64,
    func_hits: u64,
    func_lookups: u64,
    paths: u64,
    pruned: u64,
    loops: u64,
    havocs: u64,
}

impl Sums {
    fn add(&mut self, s: &EngineStats) {
        self.hits += s.cache_hits;
        self.misses += s.cache_misses;
        self.evictions += s.cache_evictions;
        self.unit_hits += s.store_unit_hits;
        self.unit_lookups += s.store_unit_hits + s.store_unit_misses + s.store_unit_stale;
        self.func_hits += s.store_func_hits;
        self.func_lookups += s.store_func_hits + s.store_func_misses + s.store_func_stale;
        self.paths += s.paths_enumerated;
        self.pruned += s.paths_pruned;
        self.loops += s.loops_summarized;
        self.havocs += s.vars_havocked;
    }
}

/// Span names for the engine's stage timings.
fn stage_span(stage: Stage) -> &'static str {
    match stage {
        Stage::Merge => "core.merge",
        Stage::Parse => "lang.parse",
        Stage::Spec => "spec.parse",
        Stage::Extract => "sym.extract",
        Stage::Check => "checkers",
    }
}

/// Attributes a result's non-cached stage timings to `tr`'s open span.
fn attribute(
    tr: &mut Tracer,
    key: u64,
    result: &Result<AnalyzedUnit, PallasError>,
    families: &mut [Duration; 7],
) {
    if let Ok(a) = result {
        for t in a.stage_timings.iter().filter(|t| !t.cached) {
            tr.attribute(stage_span(t.stage), key, t.elapsed);
        }
        add_family_times(families, &a.checker_timings);
    }
}

fn measure(args: &Args, st: Setup, out: &mut Outcome) -> Result<(), String> {
    let Setup {
        corpus,
        refs,
        edits,
        edit_refs,
        config,
        working,
        snapshot,
        engine,
    } = st;
    let mut engine = Some(engine);
    let mut tr = Tracer::new(args.trace);
    let mut rng = Rng::new(sub_seed(args.seed, 2));
    let mut sums = Sums::default();
    let mut families = [Duration::ZERO; 7];
    let (mut warm, mut edited) = (Windowed::default(), Windowed::default());
    let mut restarts = Vec::new();
    let (mut busy, mut ops, mut warnings) = (Duration::ZERO, 0u64, 0u64);
    let (mut opens, mut compactions) = (Vec::new(), Vec::new());
    let (mut file_bytes, mut dead) = (Vec::new(), Vec::new());
    let mut rss = None;
    let (mut next_edit, mut in_cycle) = (0usize, 0u64);
    let arena_before = pallas_sym::arena_node_count();
    let started = Instant::now();
    while started.elapsed() < args.seconds {
        let key = ops;
        if in_cycle == CYCLE_OPS {
            let old = engine.take().expect("engine is open between restarts");
            sums.add(&old.stats());
            drop(old);
            if args.trace {
                let mut store = Store::open(&working)
                    .map_err(|e| format!("store reopen: {e}"))?
                    .0;
                file_bytes.push(store.file_bytes() as f64);
                dead.push(store.dead_records() as f64);
                let t = Instant::now();
                tr.scope("store.compact", key, |_| store.compact())
                    .map_err(|e| format!("compact: {e}"))?;
                compactions.push(ms(t.elapsed()));
            }
            std::fs::copy(&snapshot, &working).map_err(|e| format!("store reset: {e}"))?;
            let t = Instant::now();
            let reopened = tr.scope("store.open", key, |_| {
                Engine::with_engine_config(config.clone())
            });
            let open_time = t.elapsed();
            let results = tr.scope("restart.check", key, |tr| {
                let results = reopened.check_many_jobs(&corpus, JOBS);
                for r in &results {
                    attribute(tr, key, r, &mut families);
                }
                results
            });
            let elapsed = t.elapsed();
            opens.push(ms(open_time));
            restarts.push(ms(elapsed));
            busy += elapsed;
            ops += corpus.len() as u64;
            out.attempted += corpus.len() as u64;
            for (i, r) in results.iter().enumerate() {
                match ndjson(r) {
                    Ok(got) if got == refs[i] => {}
                    Ok(_) => out.mismatch(format!(
                        "{}: restart output differs from a cold engine's",
                        corpus[i].name
                    )),
                    Err(e) => out.mismatch(format!("restart: {e}")),
                }
            }
            engine = Some(reopened);
            in_cycle = 0;
            continue;
        }
        in_cycle += 1;
        let is_edit = rng.below(EDIT_EVERY) == 0;
        let (unit, want) = if is_edit {
            let i = next_edit % EDITS;
            next_edit += 1;
            (&edits[i], &edit_refs[i])
        } else {
            let i = rng.below(corpus.len());
            (&corpus[i], &refs[i])
        };
        let e = engine.as_ref().expect("engine is open between restarts");
        if args.trace {
            tr.scope("engine.fingerprint", key, |_| {
                std::hint::black_box(
                    pallas_core::engine::fingerprint::fingerprint_unit_with_rules(
                        unit,
                        e.config(),
                        e.rules(),
                    ),
                )
            });
        }
        let t = Instant::now();
        let result = tr.scope("engine.check", key, |tr| {
            let r = e.check_unit(unit);
            attribute(tr, key, &r, &mut families);
            r
        });
        let elapsed = t.elapsed();
        busy += elapsed;
        ops += 1;
        out.attempted += 1;
        if is_edit { &mut edited } else { &mut warm }.push(us(elapsed));
        let got = tr.scope("report.ndjson", key, |_| ndjson(&result));
        if let Ok(a) = &result {
            warnings += a.warnings.len() as u64;
            if args.trace {
                tr.scope("report.text", key, |_| {
                    std::hint::black_box(render_unit_report(a))
                });
            }
        }
        match got {
            Ok(got) if got == *want => {}
            Ok(_) => out.mismatch(format!(
                "{}: re-check output differs from a cold engine's",
                unit.name
            )),
            Err(e) => out.mismatch(format!("re-check: {e}")),
        }
        if rss.is_none() && ops >= RSS_AFTER_OPS {
            rss = Some(rss_mb()?);
        }
    }
    if let Some(e) = engine.take() {
        sums.add(&e.stats());
    }
    eprintln!(
        "recheck: {} ops in {:.2}s busy: {} unchanged, {} edited, {} restarts of {} units",
        ops,
        busy.as_secs_f64(),
        warm.count(),
        edited.count(),
        restarts.len(),
        corpus.len()
    );
    if !args.trace {
        out.set("ops_per_s", ops as f64 / busy.as_secs_f64());
        out.set("p50_us", warm.quantile(0.5));
        crate::print_tail("recheck", &mut warm);
        out.set("miss_p50_us", edited.quantile(0.5));
        out.set("tree_ms", median(&mut restarts));
        out.set(
            "rss_mb",
            match rss {
                Some(v) => v,
                None => rss_mb()?,
            },
        );
        return Ok(());
    }
    let n = ops as f64;
    for (metric, span) in [
        ("merge.us", "core.merge"),
        ("lang.parse_us", "lang.parse"),
        ("spec.parse_us", "spec.parse"),
        ("sym.extract_us", "sym.extract"),
        ("checkers.total_us", "checkers"),
        ("report.ndjson_us", "report.ndjson"),
        ("report.text_us", "report.text"),
        ("engine.fingerprint_us", "engine.fingerprint"),
    ] {
        out.set(metric, tr.self_us(span) / n);
    }
    for (name, total) in FAMILIES.iter().zip(families) {
        out.set(name, us(total) / n);
    }
    out.set("checkers.warnings", warnings as f64 / n);
    out.set("engine.check_us", us(busy) / n);
    out.set(
        "engine.cache_hit_ratio",
        ratio(sums.hits as f64, (sums.hits + sums.misses) as f64),
    );
    out.set("engine.cache_evictions", sums.evictions as f64);
    out.set(
        "sym.pruned_ratio",
        ratio(sums.pruned as f64, (sums.paths + sums.pruned) as f64),
    );
    out.set("sym.loops_summarized", sums.loops as f64 / n);
    out.set("sym.vars_havocked", sums.havocs as f64 / n);
    out.set(
        "sym.arena_nodes_per_unit",
        (pallas_sym::arena_node_count() - arena_before) as f64 / n,
    );
    out.set(
        "sym.interned_strings",
        pallas_sym::Istr::interned_count() as f64,
    );
    out.set("store.open_ms", median(&mut opens));
    out.set("store.compact_ms", median(&mut compactions));
    out.set("store.file_bytes", median(&mut file_bytes));
    out.set("store.dead_records", median(&mut dead));
    out.set(
        "store.unit_hit_ratio",
        ratio(sums.unit_hits as f64, sums.unit_lookups as f64),
    );
    out.set(
        "store.func_hit_ratio",
        ratio(sums.func_hits as f64, sums.func_lookups as f64),
    );
    crate::write_spans(args, &tr)
}
