//! Seeded synthetic workload generator for benchmarks and stress
//! tests: units of configurable size (functions, branches, statements)
//! with optional injected bugs.

use crate::builder::compose_unit;
use crate::types::{Component, CorpusUnit};
use pallas_checkers::Rule;
use pallas_core::SourceUnit;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

/// Generates one synthetic unit with `functions` functions, each with
/// roughly `branches` two-way branches (so up to `2^branches` paths
/// before capping). Deterministic for a given seed.
pub fn synthetic_unit(functions: usize, branches: usize, seed: u64) -> SourceUnit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut src = String::new();
    let _ = writeln!(src, "int sink(int v);");
    for f in 0..functions {
        let _ = writeln!(src, "int synth_fn_{f}(int a, int b, int c) {{");
        let _ = writeln!(src, "  int acc = a;");
        for i in 0..branches {
            let var = ["a", "b", "c", "acc"][rng.gen_range(0..4)];
            let lit = rng.gen_range(0..100);
            let op = ["==", "!=", "<", ">"][rng.gen_range(0..4)];
            let _ = writeln!(src, "  if ({var} {op} {lit}) {{");
            match rng.gen_range(0..3) {
                0 => {
                    let _ = writeln!(src, "    acc = acc + {i};");
                }
                1 => {
                    let _ = writeln!(src, "    sink(acc);");
                }
                _ => {
                    let _ = writeln!(src, "    acc = acc | {};", 1 << (i % 16));
                }
            }
            let _ = writeln!(src, "  }}");
        }
        let _ = writeln!(src, "  return acc;");
        let _ = writeln!(src, "}}");
    }
    let spec = "unit synth/generated;\nfastpath synth_fn_0;\nimmutable a;\ncond trig: b;\n";
    SourceUnit::new(format!("synth/f{functions}_b{branches}_s{seed}"))
        .with_file("synth.c", src)
        .with_spec(spec)
}

/// Generates a corpus of `n_units` synthetic units, each with a random
/// (seeded) plan of injected bug patterns — used by throughput benches
/// that need many distinct findable bugs.
pub fn synthetic_corpus(n_units: usize, seed: u64) -> Vec<CorpusUnit> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n_units)
        .map(|i| {
            let component = Component::ALL[rng.gen_range(0..Component::ALL.len())];
            let mut rules: Vec<Rule> = Rule::ALL.to_vec();
            let plan_len = rng.gen_range(1..=4);
            let mut plan = Vec::with_capacity(plan_len);
            for _ in 0..plan_len {
                let idx = rng.gen_range(0..rules.len());
                let rule = rules.remove(idx);
                plan.push((rule, rng.gen_bool(0.3)));
            }
            let name = format!("{}/synth_{i}", component.prefix());
            let fast_fn = format!("synth_{i}_fast");
            compose_unit(component, &name, &fast_fn, &plan)
        })
        .collect()
}

/// Generates a batch whose cost is deliberately skewed: the first
/// sixth of the units are heavy (10 branches ≈ 1024 paths before
/// capping), the rest light (2 branches). A fixed contiguous split
/// would put the heavy cluster on one worker and serialize the batch;
/// the range-splitting batch scheduler has to move it to idle workers,
/// which `pallasbench --workload batch` exercises.
pub fn skewed_units(n_units: usize, seed: u64) -> Vec<SourceUnit> {
    let heavy = (n_units / 6).max(1).min(n_units);
    (0..n_units)
        .map(|i| {
            let branches = if i < heavy { 10 } else { 2 };
            synthetic_unit(2, branches, seed.wrapping_add(i as u64))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pallas_core::Pallas;

    #[test]
    fn synthetic_unit_is_deterministic_and_parses() {
        let a = synthetic_unit(3, 6, 42);
        let b = synthetic_unit(3, 6, 42);
        assert_eq!(a, b);
        let analyzed = Pallas::new().check_unit(&a).unwrap();
        assert_eq!(analyzed.db.functions.len(), 3);
        assert!(analyzed.db.path_count() > 0);
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(synthetic_unit(2, 4, 1), synthetic_unit(2, 4, 2));
    }

    #[test]
    fn branch_count_scales_paths() {
        let small = Pallas::new().check_unit(&synthetic_unit(1, 2, 7)).unwrap();
        let large = Pallas::new().check_unit(&synthetic_unit(1, 8, 7)).unwrap();
        assert!(large.db.path_count() > small.db.path_count());
    }

    #[test]
    fn skewed_units_front_load_the_cost() {
        let units = skewed_units(12, 5);
        assert_eq!(units.len(), 12);
        let paths = |u: &SourceUnit| Pallas::new().check_unit(u).unwrap().db.path_count();
        assert!(paths(&units[0]) > 10 * paths(&units[11]), "front units must dominate");
        // Deterministic for a given seed.
        assert_eq!(units, skewed_units(12, 5));
    }

    #[test]
    fn synthetic_corpus_checks_to_expected_counts() {
        let corpus = synthetic_corpus(10, 99);
        assert_eq!(corpus.len(), 10);
        for cu in &corpus {
            let analyzed = Pallas::new()
                .check_unit(&cu.unit)
                .unwrap_or_else(|e| panic!("{}: {e}", cu.name()));
            let s = pallas_core::score(&analyzed.warnings, &cu.bugs);
            assert_eq!(s.bug_count(), cu.bugs.len(), "{}", cu.name());
            assert_eq!(s.false_positives.len(), cu.expected_false_positives, "{}", cu.name());
        }
    }
}
