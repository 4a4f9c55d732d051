//! Workload inputs, all derived from the workload seed: the labelled
//! corpora, freshly generated units, and one-function edits.

use pallas_checkers::Rule;
use pallas_core::{KnownBug, SourceUnit};
use pallas_corpus::Component;

/// SplitMix64: a small seeded generator, so inputs repeat exactly for
/// a seed without depending on any external generator's stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Mixes a workload seed with a stream index into a sub-seed.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    Rng::new(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

/// The repository's labelled corpora with their ground truth. The
/// Table 1 corpus comes first.
pub struct Labelled {
    /// Every unit, Table 1 first.
    pub units: Vec<SourceUnit>,
    /// Known bugs per unit (same order).
    pub truth: Vec<Vec<KnownBug>>,
    /// Number of leading units that form the Table 1 corpus.
    pub table1: usize,
}

/// Warnings and validated bugs the paper's Table 1 reports, which the
/// Table 1 corpus reproduces.
pub const TABLE1_WARNINGS: usize = 224;
/// See [`TABLE1_WARNINGS`].
pub const TABLE1_BUGS: usize = 155;

/// Loads the labelled corpora: `new_paths` (Table 1), `studied`,
/// `known_bugs`, `mined_rules`, `infeasible` and `new_bug_examples`.
pub fn labelled() -> Labelled {
    let table1 = pallas_corpus::new_paths();
    let n_table1 = table1.len();
    let (units, truth) = table1
        .into_iter()
        .chain(pallas_corpus::studied())
        .chain(pallas_corpus::known_bugs())
        .chain(pallas_corpus::mined_rules())
        .chain(pallas_corpus::infeasible())
        .chain(pallas_corpus::new_bug_examples())
        .map(|cu| (cu.unit, cu.bugs))
        .unzip();
    Labelled {
        units,
        truth,
        table1: n_table1,
    }
}

/// A unit no earlier request carried: a corpus-style fast path with a
/// seeded plan of rule segments, whose function, parameter and helper
/// names all embed a tag unique to `(seed, n)`, so analysing it interns
/// new symbols and strings.
pub fn unique_unit(seed: u64, n: u64) -> SourceUnit {
    let mut rng = Rng::new(sub_seed(seed, n));
    let component = Component::ALL[rng.below(Component::ALL.len())];
    let mut rules = Rule::ALL.to_vec();
    let mut plan = Vec::new();
    for _ in 0..1 + rng.below(4) {
        plan.push((rules.remove(rng.below(rules.len())), rng.below(10) < 3));
    }
    let tag = format!("g{:x}", rng.next_u64() >> 16);
    let name = format!("{}/{tag}", component.prefix());
    pallas_corpus::compose_unit(component, &name, &format!("{tag}_fast"), &plan).unit
}

/// `unit` with one function body edited: a declaration `int
/// bench_edit_<tag> = <tag>;` is inserted right after the opening
/// brace of the function `pick` selects. The edit stays on the brace's
/// line, so every other function keeps its text and line numbers.
pub fn edit_unit(unit: &SourceUnit, pick: u64, tag: u64) -> Result<SourceUnit, String> {
    let (merged, _) = unit.merge();
    let ast = pallas_lang::parse(&merged).map_err(|e| format!("{}: {e}", unit.name))?;
    let bodies: Vec<usize> = ast
        .functions()
        .map(|f| ast.stmt(f.body).span.start as usize)
        .collect();
    if bodies.is_empty() {
        return Err(format!("{}: no function to edit", unit.name));
    }
    let at = bodies[(pick % bodies.len() as u64) as usize];
    if merged.as_bytes().get(at) != Some(&b'{') {
        return Err(format!(
            "{}: function body does not start with a brace",
            unit.name
        ));
    }
    // Find the file holding merged offset `at`; merging appends a
    // newline to a file that lacks one.
    let mut edited = unit.clone();
    let mut base = 0usize;
    for (_, contents) in &mut edited.files {
        let len = contents.len() + usize::from(!contents.ends_with('\n'));
        if at < base + contents.len() {
            contents.insert_str(at - base + 1, &format!(" int bench_edit_{tag} = {tag};"));
            return Ok(edited);
        }
        base += len;
    }
    Err(format!(
        "{}: edit offset outside the unit's files",
        unit.name
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_inputs_repeat_for_a_seed() {
        assert_eq!(unique_unit(7, 3), unique_unit(7, 3));
        assert_ne!(unique_unit(7, 3).name, unique_unit(7, 4).name);
        assert_ne!(unique_unit(7, 3).name, unique_unit(8, 3).name);
    }

    #[test]
    fn edit_touches_one_function_and_still_parses() {
        let unit = &labelled().units[0];
        let edited = edit_unit(unit, 1, 42).unwrap();
        let (src, _) = edited.merge();
        assert_eq!(src.matches("bench_edit_42").count(), 1);
        assert_eq!(src.lines().count(), unit.merge().0.lines().count());
        pallas_lang::parse(&src).unwrap();
    }
}
