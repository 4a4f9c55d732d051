//! Acceptance test for the persistent analysis store: over the full
//! golden corpus, a cold engine and a persistent-warm engine (a fresh
//! process-state engine answering from the store file the cold run
//! wrote) must produce byte-identical NDJSON, and the warm run must do
//! zero Extract/Check stage work.

use pallas::core::{render_ndjson, EngineConfig};
use pallas::corpus::CorpusUnit;
use std::path::PathBuf;

fn scratch_store(tag: &str) -> (PathBuf, impl Drop) {
    struct Cleanup(PathBuf);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
    let dir =
        std::env::temp_dir().join(format!("pallas-roundtrip-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    (dir.join("corpus.store"), Cleanup(dir))
}

fn engine_on(store: &std::path::Path) -> pallas::core::Engine {
    pallas::core::Engine::with_engine_config(EngineConfig {
        store_path: Some(store.to_path_buf()),
        ..EngineConfig::default()
    })
}

fn full_corpus() -> Vec<CorpusUnit> {
    let mut all = pallas::corpus::new_paths();
    all.extend(pallas::corpus::known_bugs());
    all.extend(pallas::corpus::examples());
    all.extend(pallas::corpus::studied());
    all.extend(pallas::corpus::new_bug_examples());
    all.extend(pallas::corpus::infeasible());
    all.extend(pallas::corpus::mined_rules());
    all
}

fn render_all(engine: &pallas::core::Engine, corpus: &[CorpusUnit]) -> String {
    let mut out = String::new();
    for cu in corpus {
        let analyzed = engine
            .check_unit(&cu.unit)
            .unwrap_or_else(|e| panic!("corpus unit `{}` failed to check: {e}", cu.name()));
        out.push_str(&render_ndjson(&analyzed));
    }
    out
}

#[test]
fn cold_and_persistent_warm_ndjson_are_byte_identical_over_the_corpus() {
    let (store, _cleanup) = scratch_store("corpus");
    let corpus = full_corpus();

    let cold_ndjson = {
        let engine = engine_on(&store);
        let out = render_all(&engine, &corpus);
        let stats = engine.stats();
        assert!(stats.store_unit_misses > 0, "first run must compute units: {stats:?}");
        engine.flush_store().expect("flush");
        out
    };

    // Fresh engine, fresh memory cache: disk only.
    let engine = engine_on(&store);
    let warm_ndjson = render_all(&engine, &corpus);
    assert_eq!(
        warm_ndjson, cold_ndjson,
        "persistent-warm NDJSON must be byte-identical to the cold run"
    );
    let stats = engine.stats();
    // Every unit that missed the memory cache came off disk (corpus
    // sets overlap, so repeats are memory hits)...
    assert!(stats.store_unit_hits > 0, "{stats:?}");
    assert_eq!(stats.store_unit_misses, 0, "{stats:?}");
    assert_eq!(stats.store_unit_stale, 0, "{stats:?}");
    // ...with zero Extract or Check work anywhere and zero paths
    // enumerated: memory hits re-serve what the store hits restored.
    assert_eq!(stats.extracts, 0, "{stats:?}");
    assert_eq!(stats.paths_enumerated, 0, "{stats:?}");
    assert_eq!(stats.checks, 0, "{stats:?}");
}

/// Flipping a byte anywhere in the store file must never panic an
/// engine reading it: the CRC layer (or the symbolic-value decoder
/// behind it) rejects the damaged record, the engine recomputes that
/// unit, and the final NDJSON stays byte-identical to the cold run.
#[test]
fn corrupted_store_bytes_decode_or_miss_cleanly() {
    let (store, _cleanup) = scratch_store("corrupt");
    let corpus = pallas::corpus::examples();

    let engine = engine_on(&store);
    let cold = render_all(&engine, &corpus);
    engine.flush_store().expect("flush");
    drop(engine);
    let pristine = std::fs::read(&store).expect("read store");
    assert!(pristine.len() > 64, "store too small to corrupt meaningfully");

    // Offsets spread over the file: header region, early / middle /
    // late records. Each variant gets its own copy so damage does not
    // accumulate.
    let offsets =
        [4, 12, pristine.len() / 4, pristine.len() / 2, (pristine.len() * 3) / 4, pristine.len() - 2];
    for (i, &off) in offsets.iter().enumerate() {
        let damaged_path = store.with_extension(format!("corrupt{i}"));
        let mut bytes = pristine.clone();
        bytes[off] ^= 0xa5;
        std::fs::write(&damaged_path, &bytes).expect("write damaged copy");

        // Offline inspection must hold its no-panic contract too —
        // either a clean report flagging corruption or an I/O error.
        if let Ok(report) = pallas::store::Store::inspect(&damaged_path) {
            let _ = report.corruption;
        }

        let engine = engine_on(&damaged_path);
        let out = render_all(&engine, &corpus);
        assert_eq!(
            out, cold,
            "byte {off} flipped: damaged store changed results instead of degrading"
        );
        // Whatever survived decoding was used; everything else was
        // recomputed — but nothing may be served stale.
        assert_eq!(engine.stats().store_unit_stale, 0, "offset {off}: {:?}", engine.stats());
    }
}

/// A store cut off mid-record (crash during flush, full disk) must
/// behave like a shorter store: salvage what parses, recompute the
/// rest, byte-identical output, no panic.
#[test]
fn truncated_store_decodes_or_misses_cleanly() {
    let (store, _cleanup) = scratch_store("truncate");
    let corpus = pallas::corpus::examples();

    let engine = engine_on(&store);
    let cold = render_all(&engine, &corpus);
    engine.flush_store().expect("flush");
    drop(engine);
    let pristine = std::fs::read(&store).expect("read store");

    let lengths = [0, 1, 7, pristine.len() / 2, pristine.len() - 1];
    for (i, &len) in lengths.iter().enumerate() {
        let cut_path = store.with_extension(format!("cut{i}"));
        std::fs::write(&cut_path, &pristine[..len]).expect("write truncated copy");

        let engine = engine_on(&cut_path);
        let out = render_all(&engine, &corpus);
        assert_eq!(
            out, cold,
            "truncation to {len} bytes changed results instead of degrading"
        );
        assert_eq!(engine.stats().store_unit_stale, 0, "length {len}: {:?}", engine.stats());
    }
}

/// The hash-consing migration changed how decoded symbolic values are
/// materialized (arena handles via the raw constructors) but not the
/// byte format. This pins the full migration contract over the whole
/// corpus: records written cold re-read into a fresh engine —
/// including after a verify + compact pass rewrote the file — with
/// byte-identical NDJSON, and a second warm pass over the compacted
/// store is pure read traffic (no re-encodes, no recomputes).
#[test]
fn persistent_warm_is_byte_identical_after_migration_and_compaction() {
    let (store, _cleanup) = scratch_store("migrate");
    let corpus = full_corpus();

    let cold = {
        let engine = engine_on(&store);
        let out = render_all(&engine, &corpus);
        engine.flush_store().expect("flush");
        out
    };

    // Maintenance rewrite: every record is decoded and re-appended by
    // compaction, so a decode/encode asymmetry would corrupt here.
    let report = pallas::store::Store::inspect(&store).expect("inspect");
    assert!(report.corruption.is_none(), "fresh store corrupt: {report:?}");
    let (mut raw, open) = pallas::store::Store::open(&store).expect("open");
    assert!(open.recovery.is_none(), "clean store needed salvage: {open:?}");
    raw.compact().expect("compact");
    drop(raw);
    let compacted_len = std::fs::metadata(&store).expect("metadata").len();

    let engine = engine_on(&store);
    let warm = render_all(&engine, &corpus);
    assert_eq!(warm, cold, "persistent-warm NDJSON diverged after compaction");
    let stats = engine.stats();
    assert_eq!(stats.store_unit_misses, 0, "{stats:?}");
    assert_eq!(stats.store_unit_stale, 0, "{stats:?}");
    assert_eq!(stats.extracts, 0, "{stats:?}");
    engine.flush_store().expect("flush");
    drop(engine);

    // Pure read traffic: serving every unit from disk appended nothing.
    let after_len = std::fs::metadata(&store).expect("metadata").len();
    assert_eq!(after_len, compacted_len, "a warm run re-wrote store records");
}

#[test]
fn store_survives_a_verify_and_compact_cycle_between_runs() {
    let (store, _cleanup) = scratch_store("compact");
    let corpus = pallas::corpus::examples();

    let engine = engine_on(&store);
    let cold = render_all(&engine, &corpus);
    engine.flush_store().expect("flush");
    drop(engine);

    // Offline maintenance between the two runs must not perturb the
    // stored results.
    let report = pallas::store::Store::inspect(&store).expect("inspect");
    assert!(report.corruption.is_none(), "store fails verification: {report:?}");
    assert!(report.live_records > 0);
    let (mut raw, open) = pallas::store::Store::open(&store).expect("open");
    assert!(open.recovery.is_none(), "clean file must open without salvage: {open:?}");
    raw.compact().expect("compact");
    drop(raw);

    let engine = engine_on(&store);
    let warm = render_all(&engine, &corpus);
    assert_eq!(warm, cold, "compaction changed stored results");
    assert_eq!(engine.stats().store_unit_misses, 0);
}
