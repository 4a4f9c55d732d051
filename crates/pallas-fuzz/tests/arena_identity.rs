//! End-to-end arena identity: generated units must render byte-identical
//! NDJSON whichever construction path their symbolic values took.
//!
//! The hash-consing arena and the string interner are process-global
//! and shared across the facade, every engine, the persistent store's
//! decoder, and the daemon's worker threads. These tests drive seeded
//! generator units through several of those consumers at once and
//! assert the observable output is byte-for-byte identical — the
//! fuzz-oracle counterpart to `pallas-sym`'s construction-level
//! differential battery (`tests/hashcons_diff.rs`).

use pallas_core::engine::fingerprint::Fnv1a;
use pallas_core::{render_ndjson, render_ndjson_into, Engine, Pallas};
use pallas_fuzz::{generate, iteration_seed, run_fuzz, FuzzConfig};
use pallas_sym::{Event, Sym, SymNode};

/// Rebuilds a symbolic value from its node structure through the raw
/// constructors and asserts it lands on the *same* arena node.
fn assert_reinterns_identically(s: Sym) {
    let back = match s.node() {
        SymNode::Input(n) => Sym::input(n.as_str()),
        SymNode::Int(v) => Sym::int(*v),
        SymNode::Str(t) => Sym::str_lit(t.as_str()),
        SymNode::Temp(n) => Sym::temp(*n),
        SymNode::Call { callee, args } => {
            args.iter().for_each(|a| assert_reinterns_identically(*a));
            Sym::call(callee.as_str(), args.clone())
        }
        SymNode::Unary(op, a) => {
            assert_reinterns_identically(*a);
            Sym::unary_raw(*op, *a)
        }
        SymNode::Binary(op, a, b) => {
            assert_reinterns_identically(*a);
            assert_reinterns_identically(*b);
            Sym::binary_raw(*op, *a, *b)
        }
        SymNode::Unknown => Sym::unknown(),
    };
    assert!(
        std::ptr::eq(s.node(), back.node()),
        "`{s}` re-interned to a different arena node"
    );
}

#[test]
fn generated_units_render_byte_identical_across_consumers() {
    // Facade, cold engine, warm engine, and the reused-buffer renderer
    // must all produce the same bytes; every Sym in the analyzed path
    // database must be canonical in the arena.
    let mut digest = Fnv1a::new();
    let mut buf = String::new();
    for i in 0..48u64 {
        let seed = iteration_seed(42, i);
        let gu = generate(seed);
        let facade = Pallas::new()
            .check_unit(&gu.unit)
            .unwrap_or_else(|e| panic!("seed {seed}: facade failed: {e}"));
        let engine = Engine::new();
        let cold = engine.check_unit(&gu.unit).unwrap();
        let warm = engine.check_unit(&gu.unit).unwrap();

        let base = render_ndjson(&facade);
        assert_eq!(base, render_ndjson(&cold), "seed {seed}: cold engine diverged");
        assert_eq!(base, render_ndjson(&warm), "seed {seed}: warm engine diverged");

        // The reused-buffer renderer is the daemon's hot path; it must
        // append the identical bytes.
        buf.clear();
        render_ndjson_into(&mut buf, &facade);
        assert_eq!(base, buf, "seed {seed}: reused-buffer rendering diverged");

        for f in &facade.db.functions {
            for rec in &f.records {
                for ev in &rec.events {
                    if let Event::State { value, .. } = ev {
                        assert_reinterns_identically(*value);
                    }
                }
                if let Some(v) = rec.output.value {
                    assert_reinterns_identically(v);
                }
            }
        }
        digest.write(base.as_bytes());
    }
    // Fold-in sanity: 48 clean units must contribute real bytes.
    assert_ne!(digest.finish(), Fnv1a::new().finish(), "no NDJSON was digested");
}

#[test]
fn fuzz_digest_is_deterministic_and_clean() {
    // Two complete in-process fuzz runs (generator + full oracle
    // battery, daemon excluded for test-runtime reasons; the CI smoke
    // covers the daemon matrix) must agree bit-for-bit on the digest —
    // the strongest end-to-end statement that hash-consing introduced
    // no cross-unit state leakage: iteration N's NDJSON is unaffected
    // by the arena population left behind by iterations 0..N.
    let cfg = FuzzConfig {
        seed: 42,
        iters: 24,
        daemon: false,
        reduce: false,
        found_dir: None,
        ..FuzzConfig::default()
    };
    let mut sink = |_: &str| {};
    let a = run_fuzz(&cfg, &mut sink);
    let b = run_fuzz(&cfg, &mut sink);
    assert!(
        a.failures.is_empty(),
        "oracle failures: {:?}",
        a.failures.iter().map(|f| &f.signature).collect::<Vec<_>>()
    );
    assert!(b.failures.is_empty());
    assert_eq!(a.digest, b.digest, "digest must be deterministic under a warm arena");
    assert_eq!(a.iters, 24);
}
