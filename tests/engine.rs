//! Tier-1 integration tests for the staged analysis engine: frontend
//! caching, scheduler determinism, panic isolation, and the warm-cache
//! guarantee the `repro` harness relies on.

use pallas_core::{render_tsv, Engine, PallasErrorKind, SourceUnit, Stage};
use pallas_corpus::{new_paths, skewed_units, synthetic_unit};
use pallas_sym::ExtractConfig;

fn unit(i: usize) -> SourceUnit {
    SourceUnit::new(format!("unit{i}"))
        .with_file("u.c", format!("int f{i}(int x) {{ if (x > {i}) return 1; return 0; }}"))
        .with_spec(format!("fastpath f{i};"))
}

#[test]
fn engine_reports_all_five_stages() {
    let engine = Engine::new();
    let report = engine.check_unit(&unit(0)).unwrap();
    let stages: Vec<Stage> = report.stage_timings.iter().map(|t| t.stage).collect();
    assert_eq!(stages, Stage::ALL);
    assert!(!report.from_cache());
    assert!(!report.checker_timings.is_empty());
}

#[test]
fn cache_hits_skip_the_frontend_and_misses_rebuild_it() {
    let engine = Engine::new();
    let cold = engine.check_unit(&unit(1)).unwrap();
    let warm = engine.check_unit(&unit(1)).unwrap();
    assert!(!cold.from_cache());
    assert!(warm.from_cache());
    assert_eq!(cold.warnings, warm.warnings, "cache must not change verdicts");
    let stats = engine.stats();
    assert_eq!((stats.cache_hits, stats.cache_misses), (1, 1));
    assert_eq!(stats.parses, 1);
    assert_eq!(stats.extracts, 1);
    assert_eq!(stats.checks, 1, "a hit re-serves the first check's warnings");

    // Any change to the spec is a different key: full rebuild.
    let respecced = unit(1).with_spec("fastpath f1; immutable x;");
    let rebuilt = engine.check_unit(&respecced).unwrap();
    assert!(!rebuilt.from_cache());
    assert_eq!(engine.stats().parses, 2);
}

#[test]
fn cache_is_configuration_sensitive() {
    let unit = synthetic_unit(1, 6, 3);
    let wide = Engine::new();
    let narrow = Engine::with_config(ExtractConfig {
        paths: pallas_cfg::PathConfig { max_paths: 2, ..pallas_cfg::PathConfig::default() },
        ..ExtractConfig::default()
    });
    let full = wide.check_unit(&unit).unwrap();
    let capped = narrow.check_unit(&unit).unwrap();
    assert!(capped.db.path_count() < full.db.path_count());
}

#[test]
fn jobs_1_and_jobs_n_produce_byte_identical_reports() {
    let units = skewed_units(24, 11);
    let serial = Engine::new();
    let parallel = Engine::new();
    let a = serial.check_many_jobs(&units, 1);
    let b = parallel.check_many_jobs(&units, 8);
    assert_eq!(a.len(), b.len());
    let render = |results: &[Result<pallas_core::AnalyzedUnit, pallas_core::PallasError>]| {
        results
            .iter()
            .map(|r| render_tsv(r.as_ref().expect("synthetic units check")))
            .collect::<String>()
    };
    assert_eq!(render(&a), render(&b), "worker count must not change output");
}

#[test]
fn panicking_unit_fails_alone() {
    let units: Vec<SourceUnit> = (0..8).map(unit).collect();
    let engine = Engine::new();
    let results = engine.check_many_with(&units, 4, |engine, u| {
        assert!(u.name != "unit5", "synthetic fault");
        engine.check_unit(u)
    });
    let failed: Vec<usize> =
        (0..8).filter(|&i| results[i].is_err()).collect();
    assert_eq!(failed, [5], "exactly the faulted unit fails");
    match &results[5].as_ref().unwrap_err().kind {
        PallasErrorKind::Internal(msg) => assert!(msg.contains("synthetic fault"), "{msg}"),
        other => panic!("expected Internal, got {other:?}"),
    }
}

#[test]
fn warm_repro_runs_strictly_fewer_frontend_stages() {
    // Tables 1, 7, and the accuracy summary all re-score the same
    // corpus; a shared engine must pay the frontend exactly once.
    let engine = Engine::new();
    let cold = bench::table_text_in(&engine, 1).unwrap();
    let cold_stats = engine.stats();
    assert_eq!(cold_stats.parses, new_paths().len() as u64);

    let warm = bench::table_text_in(&engine, 1).unwrap();
    let warm_stats = engine.stats();
    assert_eq!(cold, warm, "tables must be byte-identical across passes");
    assert_eq!(
        warm_stats.frontend_runs(),
        cold_stats.frontend_runs(),
        "warm pass may not re-run any frontend stage"
    );
    assert_eq!(warm_stats.checks, cold_stats.checks, "warm pass may not re-run Check");
    assert!(warm_stats.cache_hits >= new_paths().len() as u64);
}

#[test]
fn warm_pass_renders_byte_identical_to_a_cold_engine_over_the_labelled_corpora() {
    use pallas_core::{render_ndjson, render_unit_report};
    let units: Vec<SourceUnit> = new_paths()
        .into_iter()
        .chain(pallas_corpus::studied())
        .chain(pallas_corpus::known_bugs())
        .chain(pallas_corpus::mined_rules())
        .chain(pallas_corpus::infeasible())
        .chain(pallas_corpus::new_bug_examples())
        .map(|cu| cu.unit)
        .collect();
    assert_eq!(units.len(), 174);
    let engine = Engine::new();
    for unit in &units {
        engine.check_unit(unit).unwrap();
    }
    let checks = engine.stats().checks;
    for unit in &units {
        let warm = engine.check_unit(unit).unwrap();
        let cold = Engine::new().check_unit(unit).unwrap();
        assert!(warm.from_cache(), "{}", unit.name);
        assert_eq!(render_ndjson(&warm), render_ndjson(&cold), "{}", unit.name);
        assert_eq!(render_unit_report(&warm), render_unit_report(&cold), "{}", unit.name);
    }
    assert_eq!(engine.stats().checks, checks, "the warm pass runs no Check");
}

#[test]
fn fingerprints_separate_every_cache_dimension() {
    use pallas_core::engine::fingerprint::fingerprint_unit;
    let config = ExtractConfig::default();
    let base = fingerprint_unit(&unit(0), &config);
    assert_eq!(base, fingerprint_unit(&unit(0), &config));
    assert_ne!(base, fingerprint_unit(&unit(1), &config));
    assert_ne!(
        base,
        fingerprint_unit(&unit(0), &ExtractConfig { inline_depth: 0, ..config })
    );
}
