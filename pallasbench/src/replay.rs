//! The layered replay: one unit taken through the same public calls
//! the engine's cold path makes, one span per layer.
//!
//! Merge, fingerprint, parse, spec (document and pragmas), extraction
//! (`FunctionExtractor::extract_function` per function) and the Check
//! stage (`run_rules_timed`) are exactly the engine's work for a cold
//! unit without a store. Rendering (NDJSON and text report) is what
//! every CLI and daemon response adds. Under a separate `split` span,
//! each function's CFG is then rebuilt, its loops summarized and its
//! paths enumerated both without and with the feasibility oracle, to
//! divide extraction into its parts; that work is extra and is not
//! counted in the replay's coverage of the engine.

use crate::spans::Tracer;
use pallas_checkers::{run_rules_timed, CheckContext, Warning};
use pallas_core::engine::fingerprint::fingerprint_unit_with_rules;
use pallas_core::{render_ndjson_into, render_unit_report, AnalyzedUnit, EngineConfig, SourceUnit};
use pallas_spec::{parse_pragma, parse_spec, FastPathSpec};
use pallas_sym::{FeasibilityOracle, FunctionExtractor, PathDb};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

/// Span names whose self time the engine's cold `check_unit` also
/// spends; their sum over the engine's time is the replay's coverage.
pub const ENGINE_LAYERS: [&str; 6] = [
    "core.merge",
    "engine.fingerprint",
    "lang.parse",
    "spec.parse",
    "sym.extract",
    "checkers",
];

/// Checker family spans' names, in `pallas_checkers::all_checkers` order.
pub const FAMILIES: [&str; 7] = [
    "checkers.path_state_us",
    "checkers.trigger_condition_us",
    "checkers.path_output_us",
    "checkers.fault_handling_us",
    "checkers.assist_struct_us",
    "checkers.resource_release_us",
    "checkers.work_amplification_us",
];

/// Counts summed over replayed units.
#[derive(Debug, Default)]
pub struct Counts {
    /// Units replayed.
    pub units: u64,
    /// Merged source bytes parsed.
    pub bytes: u64,
    /// Functions defined.
    pub functions: u64,
    /// Paths from plain (oracle-free) enumeration.
    pub cfg_paths: u64,
    /// Functions whose plain enumeration hit a limit.
    pub cfg_truncated: u64,
    /// Paths in the extracted databases.
    pub sym_paths: u64,
    /// Decision arms the oracle pruned during extraction.
    pub sym_pruned: u64,
    /// Callee-summary memo hits and misses.
    pub summary_hits: u64,
    /// See `summary_hits`.
    pub summary_misses: u64,
    /// Loops summarized during extraction.
    pub loops: u64,
    /// Bindings havocked at loop exits.
    pub havocs: u64,
    /// Warnings found.
    pub warnings: u64,
    /// Rule time per checker family ([`FAMILIES`] order).
    pub families: [Duration; 7],
}

/// Adds `timings` (one Check stage's per-rule costs) to per-family sums.
pub fn add_family_times(families: &mut [Duration; 7], timings: &[pallas_checkers::CheckerTiming]) {
    for t in timings {
        if let Some(i) = pallas_checkers::all_checkers()
            .iter()
            .position(|(c, _)| *c == t.class)
        {
            families[i] += t.elapsed;
        }
    }
}

/// Replays `unit` layer by layer under `tr`, returning its warnings.
pub fn replay_unit(
    tr: &mut Tracer,
    key: u64,
    unit: &SourceUnit,
    config: &EngineConfig,
    counts: &mut Counts,
) -> Result<Vec<Warning>, String> {
    tr.scope("unit", key, |tr| {
        let (merged, merge_map) = tr.scope("core.merge", key, |_| unit.merge());
        tr.scope("engine.fingerprint", key, |_| {
            black_box(fingerprint_unit_with_rules(
                unit,
                &config.extract,
                &config.rules,
            ))
        });
        let ast = tr
            .scope("lang.parse", key, |_| pallas_lang::parse(&merged))
            .map_err(|e| format!("{}: {e}", unit.name))?;
        let spec = tr
            .scope(
                "spec.parse",
                key,
                |_| -> Result<FastPathSpec, pallas_spec::SpecError> {
                    let mut spec = parse_spec(&unit.spec_text)?;
                    for pragma in ast.pragmas() {
                        spec.merge(parse_pragma(pragma)?);
                    }
                    if spec.unit.is_empty() {
                        spec.unit = unit.name.clone();
                    }
                    Ok(spec)
                },
            )
            .map_err(|e| format!("{}: {e}", unit.name))?;
        let db = tr.scope("sym.extract", key, |_| {
            let mut fx = FunctionExtractor::new(&ast, &merged, &config.extract);
            let mut db = PathDb::new(unit.name.clone());
            for func in ast.functions() {
                db.insert(fx.extract_function(&func.sig.name));
            }
            let (hits, misses) = fx.summary_cache_stats();
            let (loops, havocs) = fx.loop_summary_stats();
            counts.summary_hits += hits;
            counts.summary_misses += misses;
            counts.loops += loops;
            counts.havocs += havocs;
            db
        });
        let (warnings, timings) = tr.scope("checkers", key, |_| {
            run_rules_timed(
                &CheckContext {
                    db: &db,
                    spec: &spec,
                    ast: &ast,
                },
                &config.rules,
            )
        });
        add_family_times(&mut counts.families, &timings);
        let lint = spec.lint();

        let paths = &config.extract.paths;
        tr.scope("split", key, |tr| {
            for func in ast.functions() {
                let cfg = tr.scope("cfg.build", key, |_| pallas_cfg::build_cfg(&ast, func));
                if config.extract.loop_summaries {
                    tr.scope("cfg.loop_summary", key, |_| {
                        black_box(pallas_cfg::summarize_loops(&ast, &cfg))
                    });
                }
                let plain = tr.scope("cfg.enumerate", key, |_| {
                    pallas_cfg::enumerate_paths(&cfg, paths)
                });
                if config.extract.prune_infeasible {
                    tr.scope("sym.oracle_enumerate", key, |_| {
                        let mut oracle = FeasibilityOracle::new(&ast);
                        if !config.extract.loop_summaries {
                            oracle = oracle.without_loop_summaries();
                        }
                        black_box(pallas_cfg::enumerate_paths_with(&cfg, paths, &mut oracle))
                    });
                }
                counts.cfg_paths += plain.paths.len() as u64;
                counts.cfg_truncated += u64::from(plain.truncated);
            }
        });

        counts.units += 1;
        counts.bytes += merged.len() as u64;
        counts.functions += db.functions.len() as u64;
        counts.sym_paths += db.path_count() as u64;
        counts.sym_pruned += db.pruned_paths() as u64;
        counts.warnings += warnings.len() as u64;
        let analyzed = AnalyzedUnit {
            name: unit.name.clone(),
            merged_src: merged,
            merge_map,
            ast: Arc::new(ast),
            db: Arc::new(db),
            spec,
            warnings,
            lint,
            elapsed: Duration::ZERO,
            stage_timings: Vec::new(),
            checker_timings: timings,
        };
        let mut ndjson = String::new();
        tr.scope("report.ndjson", key, |_| {
            render_ndjson_into(&mut ndjson, &analyzed)
        });
        tr.scope("report.text", key, |_| {
            black_box(render_unit_report(&analyzed))
        });
        black_box(ndjson);
        Ok(analyzed.warnings)
    })
}
