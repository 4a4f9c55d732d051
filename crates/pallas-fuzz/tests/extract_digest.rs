//! Pins the symbolic extractor's output across its whole configuration
//! space.
//!
//! Every unit below is extracted function by function through
//! [`FunctionExtractor`] under fourteen configurations. Per
//! configuration, an FNV-1a digest is folded over each unit's
//! `Debug`-rendered path database (`db.functions`: every record,
//! event, symbolic value and output) plus the extractor's loop-summary
//! counters. The expected values were computed on the replay-per-path
//! extractor that the prefix-sharing walk replaced; any change to
//! records, their order or indices, call assignment targets, havocs or
//! truncation flags moves a digest.
//!
//! Inputs: the six labelled corpora, skewed synthetic batches (heavy
//! 10-branch units), default generated units and loop-dense deep
//! generated units. Configurations: `inline_depth` 0/1/2 ×
//! `prune_infeasible` × `loop_summaries`, plus two tight path limits
//! that hit every truncation cause (`max_paths`, `max_visits`,
//! `max_len`, `max_steps`).

use pallas_cfg::PathConfig;
use pallas_core::engine::fingerprint::Fnv1a;
use pallas_core::SourceUnit;
use pallas_fuzz::{generate, generate_with, GenConfig};
use pallas_lang::Ast;
use pallas_sym::{ExtractConfig, FunctionExtractor, PathDb};
use std::fmt::Write;
use std::ops::Range;
use std::sync::OnceLock;

/// Per-configuration digests of the extractor's output over [`units`],
/// in [`configs`] order.
const EXPECTED: [u64; 14] = [
    0xa03c_f63a_fbc7_d8df,
    0xf63f_422c_7554_9628,
    0xd990_32cb_c087_b17a,
    0x6930_8fe4_33ca_af7e,
    0x8fa4_0464_5d4c_66e0,
    0x8eca_137b_4b8d_6380,
    0x348f_de4b_b888_7007,
    0x64a6_7729_31ee_8cae,
    0x8dad_09ab_d013_bff7,
    0xa567_78fe_4e61_c71d,
    0x8435_c2e9_6f4c_2016,
    0x96f7_1f36_1af1_eb51,
    0x1161_c2dc_903a_1f78,
    0x97b2_b769_81e6_0908,
];

/// Streams formatted text into an FNV-1a accumulator, so a large
/// `Debug` rendering is hashed without being materialized.
struct Fnv(Fnv1a);

impl Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0.write(s.as_bytes());
        Ok(())
    }
}

fn units() -> Vec<SourceUnit> {
    let mut units: Vec<SourceUnit> = pallas_corpus::new_paths()
        .into_iter()
        .chain(pallas_corpus::studied())
        .chain(pallas_corpus::known_bugs())
        .chain(pallas_corpus::mined_rules())
        .chain(pallas_corpus::infeasible())
        .chain(pallas_corpus::new_bug_examples())
        .map(|cu| cu.unit)
        .collect();
    for seed in 0..10 {
        units.extend(pallas_corpus::skewed_units(18, seed));
    }
    units.extend((0..300).map(|seed| generate(seed).unit));
    let deep = GenConfig { loop_density: 40, max_depth: 4, ..GenConfig::default() };
    units.extend((0..200).map(|seed| generate_with(seed, &deep).unit));
    units
}

fn configs() -> Vec<ExtractConfig> {
    let mut out = Vec::new();
    for inline_depth in 0..=2 {
        for prune_infeasible in [false, true] {
            for loop_summaries in [false, true] {
                out.push(ExtractConfig {
                    inline_depth,
                    prune_infeasible,
                    loop_summaries,
                    ..ExtractConfig::default()
                });
            }
        }
    }
    for (max_paths, max_visits, max_len, max_steps) in [(7, 3, 40, 300), (50, 3, 512, 2000)] {
        out.push(ExtractConfig {
            paths: PathConfig { max_paths, max_visits, max_len, max_steps },
            ..ExtractConfig::default()
        });
    }
    out
}

/// Every unit merged and parsed once, shared by the tests below.
fn parsed() -> &'static [(String, String, Ast)] {
    static PARSED: OnceLock<Vec<(String, String, Ast)>> = OnceLock::new();
    PARSED.get_or_init(|| {
        let units = units();
        assert_eq!(units.len(), 854);
        units
            .iter()
            .map(|u| {
                let (src, _) = u.merge();
                let ast = pallas_lang::parse(&src)
                    .unwrap_or_else(|e| panic!("unit `{}` failed to parse: {e}", u.name));
                (u.name.clone(), src, ast)
            })
            .collect()
    })
}

/// Checks the digests of `configs()[range]` against [`EXPECTED`].
fn assert_digests(range: Range<usize>) {
    let configs = configs();
    for i in range {
        let config = &configs[i];
        let mut h = Fnv(Fnv1a::new());
        for (name, src, ast) in parsed() {
            let mut fx = FunctionExtractor::new(ast, src, config);
            let mut db = PathDb::new(name.clone());
            for func in ast.functions() {
                db.insert(fx.extract_function(&func.sig.name));
            }
            write!(h, "{:?}{:?}", db.functions, fx.loop_summary_stats()).unwrap();
        }
        let digest = h.0.finish();
        assert_eq!(
            digest, EXPECTED[i],
            "extractor output digest moved under {config:?}: {digest:#018x}"
        );
    }
}

// One test per group of configurations, so the harness runs them in
// parallel.

#[test]
fn digest_is_pinned_without_inlining() {
    assert_digests(0..4);
}

#[test]
fn digest_is_pinned_with_inline_depth_1() {
    assert_digests(4..8);
}

#[test]
fn digest_is_pinned_with_inline_depth_2() {
    assert_digests(8..12);
}

#[test]
fn digest_is_pinned_under_tight_path_limits() {
    assert_digests(12..14);
}
