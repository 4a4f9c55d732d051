//! Bounded enumeration of execution paths through a CFG.
//!
//! A *path* runs from the entry block to a `return`. Loops are unrolled
//! a bounded number of times and the total number of paths is capped —
//! the paper's guard against the path-explosion problem (§4: "PALLAS
//! inlines a limited number of callee functions to prevent the path
//! explosion problem"; the same bound applies to loop back-edges here).

use crate::graph::{BlockId, Cfg, Terminator};
use pallas_lang::ExprId;

/// A branch decision recorded along a path.
#[derive(Debug, Clone, PartialEq)]
pub enum Decision {
    /// A two-way branch: `cond` evaluated in `block`, `taken` tells
    /// which arm the path followed.
    Branch {
        /// The condition expression.
        cond: ExprId,
        /// `true` if the then-arm was taken.
        taken: bool,
        /// Block whose terminator made the decision.
        block: BlockId,
    },
    /// A switch dispatch: `case` is the matched case value expression,
    /// or `None` for the default arm.
    Switch {
        /// The switched-on expression.
        scrutinee: ExprId,
        /// Matched case value (`None` = default).
        case: Option<ExprId>,
        /// Block whose terminator made the decision.
        block: BlockId,
    },
}

impl Decision {
    /// The expression evaluated at this decision point.
    pub fn condition(&self) -> ExprId {
        match self {
            Decision::Branch { cond, .. } => *cond,
            Decision::Switch { scrutinee, .. } => *scrutinee,
        }
    }

    /// The block whose terminator made this decision.
    pub fn block(&self) -> BlockId {
        match self {
            Decision::Branch { block, .. } | Decision::Switch { block, .. } => *block,
        }
    }
}

/// One enumerated execution path.
#[derive(Debug, Clone, PartialEq)]
pub struct CfgPath {
    /// Blocks visited, entry first.
    pub blocks: Vec<BlockId>,
    /// Branch decisions in evaluation order.
    pub decisions: Vec<Decision>,
    /// The returned expression at the path's exit (`None` for a bare or
    /// implicit `return;`).
    pub ret: Option<ExprId>,
}

/// Enumeration limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathConfig {
    /// Maximum number of complete paths to produce.
    pub max_paths: usize,
    /// Maximum times any single block may appear on one path
    /// (`unroll + 1` for loop heads; 2 means "unroll loops once").
    pub max_visits: usize,
    /// Maximum path length in blocks.
    pub max_len: usize,
    /// Total budget of blocks the walk may visit across *all* prefixes,
    /// complete or not. `max_paths` only counts completed paths, so on
    /// a deeply nested function whose prefixes mostly die at the visit
    /// or length caps the walk would otherwise explore an exponential
    /// tree of doomed prefixes without ever producing a path (found by
    /// the fuzzer at depth 5: a ~400-line generated function hung the
    /// enumeration). Exceeding the budget marks the set truncated.
    pub max_steps: usize,
}

impl Default for PathConfig {
    fn default() -> Self {
        PathConfig { max_paths: 4096, max_visits: 2, max_len: 512, max_steps: 500_000 }
    }
}

/// Result of an enumeration: the paths plus a truncation flag.
#[derive(Debug, Clone, PartialEq)]
pub struct PathSet {
    /// Complete entry-to-return paths.
    pub paths: Vec<CfgPath>,
    /// True if any limit in [`PathConfig`] was hit, meaning the set is
    /// an under-approximation.
    pub truncated: bool,
    /// Number of decision arms a [`PathOracle`] proved infeasible —
    /// each one a whole doomed subtree the walk never entered.
    pub pruned: usize,
}

/// A semantic observer of the path DFS that can veto provably
/// infeasible decision arms before the walk descends into them.
///
/// The enumeration drives the oracle in lockstep with the walk:
/// [`enter_block`](PathOracle::enter_block) as a block joins the
/// current prefix (its statements conceptually execute),
/// [`push_decision`](PathOracle::push_decision) before descending into
/// a branch or switch arm, [`pop_decision`](PathOracle::pop_decision)
/// when that arm's subtree is exhausted, and
/// [`leave_block`](PathOracle::leave_block) when the walk backtracks
/// out of the block. Returning `false` from `push_decision` prunes the
/// arm: the walk never descends, `pop_decision` is *not* called, and
/// the oracle must leave its own state exactly as it was before the
/// call.
///
/// Pruning must be *sound*: an arm may only be vetoed when the
/// accumulated conditions can provably never hold together, otherwise
/// real paths (and the warnings on them) silently disappear. The
/// `pallas-sym` feasibility engine is the production implementation;
/// this crate only defines the hook so the DFS can cut doomed
/// prefixes before the `max_steps` / `max_paths` budgets bite.
///
/// An oracle may also just observe: `pallas-sym`'s extractor rides
/// these hooks to interpret each prefix once, relying on every
/// [`enter_block`](PathOracle::enter_block) of a `Return` block being
/// exactly one completed path (the limits are checked before a block
/// is entered).
pub trait PathOracle {
    /// The walk extended the current prefix with `bb`.
    fn enter_block(&mut self, cfg: &Cfg, bb: BlockId);
    /// A decision arm is about to be explored; `false` vetoes it.
    fn push_decision(&mut self, cfg: &Cfg, d: &Decision) -> bool;
    /// The most recent non-vetoed decision arm is exhausted.
    fn pop_decision(&mut self);
    /// The walk backtracked out of `bb`.
    fn leave_block(&mut self, cfg: &Cfg, bb: BlockId);
}

/// The trivial oracle: observes nothing, vetoes nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoOracle;

impl PathOracle for NoOracle {
    fn enter_block(&mut self, _cfg: &Cfg, _bb: BlockId) {}
    fn push_decision(&mut self, _cfg: &Cfg, _d: &Decision) -> bool {
        true
    }
    fn pop_decision(&mut self) {}
    fn leave_block(&mut self, _cfg: &Cfg, _bb: BlockId) {}
}

/// Enumerates entry-to-return paths under the given limits.
pub fn enumerate_paths(cfg: &Cfg, config: &PathConfig) -> PathSet {
    enumerate_paths_with(cfg, config, &mut NoOracle)
}

/// Like [`enumerate_paths`], with a [`PathOracle`] pruning provably
/// infeasible decision arms as the walk goes.
pub fn enumerate_paths_with(
    cfg: &Cfg,
    config: &PathConfig,
    oracle: &mut dyn PathOracle,
) -> PathSet {
    enumerate_paths_reusing(cfg, config, oracle, &mut PathScratch::default())
}

/// Like [`enumerate_paths_with`], reusing the DFS working buffers in
/// `scratch`. A caller enumerating many functions (the extractor walks
/// every function of a unit, plus every inlined callee) holds one
/// [`PathScratch`] and amortizes the per-call `visits`/`blocks`/
/// `decisions` allocations across the whole unit. Results are
/// identical to the non-reusing entry points.
pub fn enumerate_paths_reusing(
    cfg: &Cfg,
    config: &PathConfig,
    oracle: &mut dyn PathOracle,
    scratch: &mut PathScratch,
) -> PathSet {
    let mut span = pallas_trace::span(pallas_trace::Layer::Paths, "enumerate");
    let mut out = PathSet { paths: Vec::new(), truncated: false, pruned: 0 };
    scratch.reset(cfg.block_count());
    walk(cfg, config, cfg.entry, scratch, &mut out, oracle);
    span.attr_u64("blocks", cfg.block_count() as u64);
    span.attr_u64("paths", out.paths.len() as u64);
    span.attr_u64("steps", scratch.steps as u64);
    span.attr_u64("step_budget", config.max_steps as u64);
    span.attr_bool("truncated", out.truncated);
    span.attr_u64("pruned", out.pruned as u64);
    out
}

/// Marks the path set truncated, emitting one trace event the first
/// time a limit fires (the same limit then fires on every doomed
/// prefix, which would flood the ring).
fn truncate(out: &mut PathSet, st: &PathScratch, cause: &'static str) {
    if !out.truncated && pallas_trace::enabled() {
        pallas_trace::instant(
            pallas_trace::Layer::Paths,
            "truncated",
            vec![
                ("cause", pallas_trace::AttrValue::Str(cause.to_string())),
                ("steps", pallas_trace::AttrValue::U64(st.steps as u64)),
                ("paths", pallas_trace::AttrValue::U64(out.paths.len() as u64)),
            ],
        );
    }
    out.truncated = true;
}

/// Mutable DFS state threaded through [`walk`], reusable across
/// enumerations via [`enumerate_paths_reusing`]. The walk restores the
/// stacks as it backtracks, so after a completed enumeration the
/// buffers are empty-but-warm; [`PathScratch::reset`] re-zeroes them
/// defensively and sizes `visits` for the next CFG.
#[derive(Default)]
pub struct PathScratch {
    visits: Vec<usize>,
    blocks: Vec<BlockId>,
    decisions: Vec<Decision>,
    steps: usize,
}

impl PathScratch {
    fn reset(&mut self, block_count: usize) {
        self.visits.clear();
        self.visits.resize(block_count, 0);
        self.blocks.clear();
        self.decisions.clear();
        self.steps = 0;
    }
}

/// Counts one pruned decision arm, emitting one trace event the first
/// time (like [`truncate`], every subsequent prune would flood the
/// ring).
fn prune(out: &mut PathSet, st: &PathScratch) {
    if out.pruned == 0 && pallas_trace::enabled() {
        pallas_trace::instant(
            pallas_trace::Layer::Paths,
            "pruned",
            vec![
                ("steps", pallas_trace::AttrValue::U64(st.steps as u64)),
                ("paths", pallas_trace::AttrValue::U64(out.paths.len() as u64)),
            ],
        );
    }
    out.pruned += 1;
}

fn walk(
    cfg: &Cfg,
    config: &PathConfig,
    bb: BlockId,
    st: &mut PathScratch,
    out: &mut PathSet,
    oracle: &mut dyn PathOracle,
) {
    if out.paths.len() >= config.max_paths {
        truncate(out, st, "max_paths");
        return;
    }
    if st.steps >= config.max_steps {
        truncate(out, st, "max_steps");
        return;
    }
    st.steps += 1;
    if st.visits[bb.0 as usize] >= config.max_visits {
        truncate(out, st, "max_visits");
        return;
    }
    if st.blocks.len() >= config.max_len {
        truncate(out, st, "max_len");
        return;
    }
    st.visits[bb.0 as usize] += 1;
    st.blocks.push(bb);
    oracle.enter_block(cfg, bb);

    match &cfg.block(bb).term {
        Terminator::Return(ret) => {
            out.paths.push(CfgPath {
                blocks: st.blocks.clone(),
                decisions: st.decisions.clone(),
                ret: *ret,
            });
        }
        Terminator::Jump(t) => {
            walk(cfg, config, *t, st, out, oracle);
        }
        Terminator::Branch { cond, then_bb, else_bb } => {
            let (cond, then_bb, else_bb) = (*cond, *then_bb, *else_bb);
            for (taken, target) in [(true, then_bb), (false, else_bb)] {
                let d = Decision::Branch { cond, taken, block: bb };
                if oracle.push_decision(cfg, &d) {
                    st.decisions.push(d);
                    walk(cfg, config, target, st, out, oracle);
                    st.decisions.pop();
                    oracle.pop_decision();
                } else {
                    prune(out, st);
                }
            }
        }
        Terminator::Switch { scrutinee, cases, default } => {
            let mut arms: Vec<(Option<ExprId>, BlockId)> =
                cases.iter().map(|&(value, target)| (Some(value), target)).collect();
            arms.push((None, *default));
            for (case, target) in arms {
                let d = Decision::Switch { scrutinee: *scrutinee, case, block: bb };
                if oracle.push_decision(cfg, &d) {
                    st.decisions.push(d);
                    walk(cfg, config, target, st, out, oracle);
                    st.decisions.pop();
                    oracle.pop_decision();
                } else {
                    prune(out, st);
                }
            }
        }
        Terminator::Unreachable => {
            // Dead end: not a completed path; drop silently.
        }
    }

    oracle.leave_block(cfg, bb);
    st.blocks.pop();
    st.visits[bb.0 as usize] -= 1;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_cfg;
    use pallas_lang::parse;

    fn paths_of(src: &str) -> PathSet {
        let ast = parse(src).unwrap();
        let f = ast.functions().next().unwrap();
        let cfg = build_cfg(&ast, f);
        enumerate_paths(&cfg, &PathConfig::default())
    }

    #[test]
    fn straight_line_has_one_path() {
        let ps = paths_of("int f(int x) { x = 1; return x; }");
        assert_eq!(ps.paths.len(), 1);
        assert!(!ps.truncated);
        assert!(ps.paths[0].ret.is_some());
        assert!(ps.paths[0].decisions.is_empty());
    }

    #[test]
    fn if_else_has_two_paths() {
        let ps = paths_of("int f(int x) { int r; if (x) r = 1; else r = 2; return r; }");
        assert_eq!(ps.paths.len(), 2);
        let takens: Vec<bool> = ps
            .paths
            .iter()
            .map(|p| match p.decisions[0] {
                Decision::Branch { taken, .. } => taken,
                _ => panic!("expected branch"),
            })
            .collect();
        assert_eq!(takens, vec![true, false]);
    }

    #[test]
    fn nested_ifs_multiply_paths() {
        let ps = paths_of(
            "int f(int a, int b) { int r = 0; if (a) r += 1; if (b) r += 2; return r; }",
        );
        assert_eq!(ps.paths.len(), 4);
    }

    #[test]
    fn early_return_prunes_paths() {
        let ps = paths_of("int f(int x) { if (x < 0) return -1; return x; }");
        assert_eq!(ps.paths.len(), 2);
        // One path has one decision, the other also one.
        assert!(ps.paths.iter().all(|p| p.decisions.len() == 1));
    }

    #[test]
    fn loop_unrolled_once_by_default() {
        let ps = paths_of("int f(int x) { while (x) { x--; } return x; }");
        // Paths: skip loop; one iteration then exit. Deeper unrollings
        // are cut by max_visits=2.
        assert_eq!(ps.paths.len(), 2);
        assert!(ps.truncated, "the infinite family of unrollings is truncated");
    }

    #[test]
    fn switch_produces_path_per_case_plus_default() {
        let ps = paths_of(
            "int f(int x) {\n\
               int r = 0;\n\
               switch (x) { case 1: r = 1; break; case 2: r = 2; break; default: r = 9; }\n\
               return r;\n\
             }",
        );
        assert_eq!(ps.paths.len(), 3);
        let cases: Vec<bool> = ps
            .paths
            .iter()
            .map(|p| matches!(p.decisions[0], Decision::Switch { case: Some(_), .. }))
            .collect();
        assert_eq!(cases, vec![true, true, false]);
    }

    #[test]
    fn max_paths_cap_respected() {
        // 2^12 paths from 12 sequential ifs; cap at 100.
        let mut body = String::new();
        for i in 0..12 {
            body.push_str(&format!("if (x == {i}) r += 1;\n"));
        }
        let src = format!("int f(int x) {{ int r = 0; {body} return r; }}");
        let ast = parse(&src).unwrap();
        let f = ast.functions().next().unwrap();
        let cfg = build_cfg(&ast, f);
        let ps = enumerate_paths(
            &cfg,
            &PathConfig { max_paths: 100, ..PathConfig::default() },
        );
        assert_eq!(ps.paths.len(), 100);
        assert!(ps.truncated);
    }

    #[test]
    fn unlimited_enough_config_not_truncated() {
        let ps = paths_of("int f(int a) { if (a) return 1; return 0; }");
        assert!(!ps.truncated);
    }

    #[test]
    fn decision_accessors() {
        let ps = paths_of("int f(int x) { if (x) return 1; return 0; }");
        let d = &ps.paths[0].decisions[0];
        assert_eq!(d.block(), BlockId(0));
        let _ = d.condition();
    }

    #[test]
    fn step_budget_bounds_doomed_prefix_exploration() {
        // A loop over a long chain of branches: almost every prefix
        // dies at the visit cap instead of completing, so max_paths
        // alone never triggers and the walk visits an exponential
        // number of prefixes. The step budget must cut it off.
        let mut body = String::new();
        for i in 0..24 {
            body.push_str(&format!("if (x == {i}) r += 1;\n"));
        }
        let src = format!(
            "int f(int x) {{ int r = 0; while (x) {{ {body} x--; }} return r; }}"
        );
        let ast = parse(&src).unwrap();
        let f = ast.functions().next().unwrap();
        let cfg = build_cfg(&ast, f);
        let ps = enumerate_paths(
            &cfg,
            &PathConfig { max_paths: 1_000_000, max_steps: 10_000, ..PathConfig::default() },
        );
        assert!(ps.truncated, "budget exhaustion must be reported");
        // The walk stopped: without the budget this enumeration visits
        // on the order of 2^24 prefixes per unrolling.
    }

    /// Vetoes every else-arm: a stand-in for a feasibility oracle that
    /// exercises the pruning plumbing without semantic knowledge.
    struct ThenOnly {
        depth: usize,
        max_depth: usize,
    }

    impl PathOracle for ThenOnly {
        fn enter_block(&mut self, _cfg: &Cfg, _bb: BlockId) {}
        fn push_decision(&mut self, _cfg: &Cfg, d: &Decision) -> bool {
            let keep = matches!(d, Decision::Branch { taken: true, .. });
            if keep {
                self.depth += 1;
                self.max_depth = self.max_depth.max(self.depth);
            }
            keep
        }
        fn pop_decision(&mut self) {
            self.depth -= 1;
        }
        fn leave_block(&mut self, _cfg: &Cfg, _bb: BlockId) {}
    }

    #[test]
    fn oracle_prunes_vetoed_arms_and_counts_them() {
        let src = "int f(int a, int b) { int r = 0; if (a) r += 1; if (b) r += 2; return r; }";
        let ast = parse(src).unwrap();
        let f = ast.functions().next().unwrap();
        let cfg = build_cfg(&ast, f);
        let mut oracle = ThenOnly { depth: 0, max_depth: 0 };
        let ps = enumerate_paths_with(&cfg, &PathConfig::default(), &mut oracle);
        // Of the 4 unpruned paths only the taken/taken one survives;
        // each vetoed else-arm counts once (first `if`'s else subtree
        // is cut whole, then the second's on the surviving prefix).
        assert_eq!(ps.paths.len(), 1);
        assert_eq!(ps.pruned, 2);
        assert!(!ps.truncated);
        assert!(ps.paths[0]
            .decisions
            .iter()
            .all(|d| matches!(d, Decision::Branch { taken: true, .. })));
        assert_eq!(oracle.depth, 0, "push/pop must balance");
        assert_eq!(oracle.max_depth, 2);
    }

    #[test]
    fn no_oracle_enumeration_matches_plain_enumeration() {
        let src = "int f(int x) { int r; if (x) r = 1; else r = 2; return r; }";
        let ast = parse(src).unwrap();
        let f = ast.functions().next().unwrap();
        let cfg = build_cfg(&ast, f);
        let plain = enumerate_paths(&cfg, &PathConfig::default());
        let with = enumerate_paths_with(&cfg, &PathConfig::default(), &mut NoOracle);
        assert_eq!(plain, with);
        assert_eq!(plain.pruned, 0);
    }

    #[test]
    fn reused_scratch_matches_fresh_enumeration() {
        // One scratch across CFGs of different sizes (bigger, then
        // smaller, then looping) must give exactly the results of a
        // fresh walk each time — stale visit counts or leftover stack
        // entries would change path sets.
        let sources = [
            "int f(int a, int b) { int r = 0; if (a) r += 1; if (b) r += 2; return r; }",
            "int f(int x) { return x; }",
            "int f(int x) { while (x) { x--; } return x; }",
        ];
        let mut scratch = PathScratch::default();
        for src in sources {
            let ast = parse(src).unwrap();
            let f = ast.functions().next().unwrap();
            let cfg = build_cfg(&ast, f);
            let fresh = enumerate_paths(&cfg, &PathConfig::default());
            let reused = enumerate_paths_reusing(
                &cfg,
                &PathConfig::default(),
                &mut NoOracle,
                &mut scratch,
            );
            assert_eq!(fresh, reused, "scratch reuse changed results for {src}");
        }
    }

    #[test]
    fn goto_loop_respects_visit_cap() {
        let ps = paths_of("int f(int x) { again: x--; if (x) goto again; return x; }");
        assert!(!ps.paths.is_empty());
        assert!(ps.truncated);
        for p in &ps.paths {
            // No block appears more than twice.
            let mut counts = std::collections::HashMap::new();
            for b in &p.blocks {
                *counts.entry(b).or_insert(0) += 1;
            }
            assert!(counts.values().all(|&c| c <= 2));
        }
    }
}
