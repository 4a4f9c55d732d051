//! Symbolic path extraction: CFG paths → [`PathDb`] event timelines.
//!
//! For every function the extractor enumerates bounded CFG paths and
//! interprets each path's statements over symbolic values, producing
//! the ordered [`Event`] timeline the checkers consume. Calls to
//! functions defined in the same (merged) unit can be *summary-inlined*
//! up to a configurable depth — the union of the callee's own events is
//! appended at `depth + 1` — mirroring the paper's "inlines a limited
//! number of callee functions" design (§4).
//!
//! The interpreter rides the enumeration DFS as a [`PathOracle`]
//! instead of replaying every finished path from the entry block. The
//! DFS prefix (block entries and accepted decision arms) is kept as a
//! stack of steps; when the walk enters a `Return` block, the steps no
//! earlier path has evaluated are evaluated in order, each in an undo
//! frame (environment bindings it changed, event-stack length,
//! temporary counter, havoc count), and
//! one [`PathRecord`] is materialized from the shared event stack.
//! Backtracking pops the step and unwinds its frame. Paths that share
//! a prefix therefore share its evaluation, and prefixes no path
//! completes (unrollings cut by the visit cap, dead ends) are never
//! evaluated. The [`FeasibilityOracle`], when pruning is on, is
//! consulted first, so a vetoed arm never touches the interpreter.
//!
//! Allocation discipline: the walk's buffers (environment, undo
//! trail, DFS stacks) are pooled in unit-scoped caches and stay warm
//! across functions; expression renderings / atom sets / lvalue keys
//! are memoized per [`ExprId`]; environment keys are interned
//! [`Istr`]s. A completed path's record takes the event stack itself,
//! and the walk copies back only the prefix it resumes from — the
//! per-path cost is that copy, not re-deriving the events.

use crate::event::{Event, FunctionPaths, OutputRecord, PathDb, PathRecord};
use crate::feasible::FeasibilityOracle;
use crate::intern::Istr;
use crate::sym::{Sym, SymNode};
use pallas_cfg::{
    build_cfg, enumerate_paths_reusing, summarize_loops, BlockId, Cfg, Decision, LoopSummary,
    PathConfig, PathOracle, PathScratch, Terminator,
};
use pallas_lang::ast::{AssignOp, Ast, ExprId, ExprKind, StmtKind, UnOp};
use pallas_lang::{expr_to_string, LineMap};
use std::collections::{HashMap, HashSet};

/// Extraction configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtractConfig {
    /// CFG path-enumeration limits.
    pub paths: PathConfig,
    /// How many levels of same-unit callees to summary-inline
    /// (0 disables inlining).
    pub inline_depth: u8,
    /// Whether to prune provably infeasible decision arms during path
    /// enumeration (the [`crate::feasible`] engine). Pruning is sound —
    /// only contradictory condition sets are cut — so on an
    /// untruncated enumeration it can only remove paths no execution
    /// takes; under truncation it additionally frees budget for
    /// feasible paths the limits would otherwise have cut.
    pub prune_infeasible: bool,
    /// Whether to compute per-loop effect summaries
    /// ([`pallas_cfg::summarize_loops`]) and use them in two places:
    /// the extractor havocs exactly the may-written variable set when
    /// a path leaves a loop body (instead of trusting the bounded
    /// unroll's final bindings), and the feasibility oracle asserts
    /// loop-invariant conditions inside loop bodies instead of
    /// treating every in-loop decision as transparent.
    pub loop_summaries: bool,
}

impl Default for ExtractConfig {
    fn default() -> Self {
        ExtractConfig {
            paths: PathConfig::default(),
            inline_depth: 1,
            prune_infeasible: true,
            loop_summaries: true,
        }
    }
}

impl ExtractConfig {
    /// A stable byte encoding of every field that influences
    /// extraction output. Content-addressed caches (the staged
    /// engine's frontend cache) must include these bytes in their
    /// keys: two configurations with different encodings can produce
    /// different path databases for the same source.
    pub fn cache_key_bytes(&self) -> [u8; 35] {
        let mut out = [0u8; 35];
        out[0..8].copy_from_slice(&(self.paths.max_paths as u64).to_le_bytes());
        out[8..16].copy_from_slice(&(self.paths.max_visits as u64).to_le_bytes());
        out[16..24].copy_from_slice(&(self.paths.max_len as u64).to_le_bytes());
        out[24..32].copy_from_slice(&(self.paths.max_steps as u64).to_le_bytes());
        out[32] = self.inline_depth;
        out[33] = self.prune_infeasible as u8;
        out[34] = self.loop_summaries as u8;
        out
    }
}

/// Extracts the path database for a parsed unit.
///
/// `src` must be the exact text the unit was parsed from (line numbers
/// are derived from it).
pub fn extract(unit: &str, ast: &Ast, src: &str, config: &ExtractConfig) -> PathDb {
    let mut fx = FunctionExtractor::new(ast, src, config);
    let mut db = PathDb::new(unit);
    for func in ast.functions() {
        db.insert(fx.extract_function(&func.sig.name));
    }
    db
}

/// Per-function extraction over one parsed unit, sharing the callee
/// summary memo across calls. This is the incremental re-analysis
/// entry point: a caller that can prove some functions' content
/// unchanged (the persistent store's per-function hashes) reuses their
/// stored [`FunctionPaths`] and extracts only the rest. Extracting
/// every function in [`Ast::functions`] order is exactly [`extract`].
pub struct FunctionExtractor<'a> {
    ast: &'a Ast,
    lm: LineMap,
    config: ExtractConfig,
    caches: ExtractCaches,
}

impl<'a> FunctionExtractor<'a> {
    /// Prepares extraction for `ast`, which must have been parsed from
    /// exactly `src` (line numbers are derived from it).
    pub fn new(ast: &'a Ast, src: &str, config: &ExtractConfig) -> Self {
        FunctionExtractor {
            ast,
            lm: LineMap::new(src),
            config: *config,
            caches: ExtractCaches::default(),
        }
    }

    /// Extracts the paths of one function defined in the unit.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a function defined in the AST.
    pub fn extract_function(&mut self, name: &str) -> FunctionPaths {
        let mut span = pallas_trace::span(pallas_trace::Layer::Paths, name);
        let fp = extract_function(self.ast, &self.lm, name, &self.config, &mut self.caches);
        span.attr_u64("paths", fp.records.len() as u64);
        span.attr_bool("truncated", fp.truncated);
        span.attr_u64("pruned", fp.pruned as u64);
        fp
    }

    /// `(hits, misses)` of the callee summary memo so far. A hit means
    /// a call site reused an already-computed `(callee, depth)` summary
    /// (including the empty placeholder that breaks recursion cycles)
    /// instead of re-extracting the callee. Call sites are evaluated
    /// once per DFS edge, not once per path, so a call on a prefix
    /// shared by many paths counts once.
    pub fn summary_cache_stats(&self) -> (u64, u64) {
        (self.caches.summary_hits, self.caches.summary_misses)
    }

    /// `(loops summarized, variables havocked)` so far: how many
    /// natural loops got effect summaries and how many environment
    /// bindings were havocked at loop exits across all extracted
    /// paths. Both stay zero with `loop_summaries` off.
    pub fn loop_summary_stats(&self) -> (u64, u64) {
        (self.caches.loops_summarized, self.caches.vars_havocked)
    }
}

/// Unit-scoped memo state shared by every function extracted from one
/// AST: callee summaries plus per-[`ExprId`] derived-string caches
/// (all pure functions of the AST, so they never need invalidation).
#[derive(Default)]
struct ExtractCaches {
    /// Callee summaries keyed by `(function, remaining depth)`.
    summaries: HashMap<(Istr, u8), Vec<Event>>,
    summary_hits: u64,
    summary_misses: u64,
    /// Rendered expression text (event `text` fields, callee names).
    texts: HashMap<ExprId, String>,
    /// Canonical lvalue key, `None` for non-lvalues.
    lvalues: HashMap<ExprId, Option<Istr>>,
    /// Name atoms mentioned by an expression.
    atoms: HashMap<ExprId, Vec<String>>,
    /// Reused walk buffers, one per live extraction: a callee summary
    /// is extracted in the middle of its caller's walk, so each
    /// nesting level takes its own entry and puts it back when done.
    scratch: Vec<WalkScratch>,
    /// Natural loops summarized across every extraction in the unit
    /// (including inlined callees).
    loops_summarized: u64,
    /// Variable bindings havocked at loop exits across every path.
    vars_havocked: u64,
}

fn extract_function(
    ast: &Ast,
    lm: &LineMap,
    name: &str,
    config: &ExtractConfig,
    caches: &mut ExtractCaches,
) -> FunctionPaths {
    let func = ast.function(name).expect("function exists");
    let cfg = build_cfg(ast, func);
    // One summary pass per function, shared by the loop-exit havocs
    // and the oracle (which needs the loop bodies for its blanket
    // in-loop transparency even with summaries off).
    let loops = if config.loop_summaries || config.prune_infeasible {
        summarize_loops(ast, &cfg)
    } else {
        Vec::new()
    };
    let oracle = config.prune_infeasible.then(|| {
        let oracle = FeasibilityOracle::with_loops(ast, &loops);
        if config.loop_summaries {
            oracle
        } else {
            oracle.without_loop_summaries()
        }
    });
    let havoc_loops: &[LoopSummary] = if config.loop_summaries {
        caches.loops_summarized += loops.len() as u64;
        &loops
    } else {
        &[]
    };
    let mut scratch = caches.scratch.pop().unwrap_or_default();
    let mut paths_scratch = std::mem::take(&mut scratch.paths);
    let mut ev = Evaluator {
        ast,
        lm,
        config,
        loops: havoc_loops,
        oracle,
        s: scratch,
        temp_counter: 0,
        in_condition: 0,
        havocs: 0,
        records: Vec::new(),
        lent: None,
        caches,
    };
    let paths = enumerate_paths_reusing(&cfg, &config.paths, &mut ev, &mut paths_scratch);
    let (records, mut scratch) = ev.finish();
    scratch.paths = paths_scratch;
    caches.scratch.push(scratch);
    debug_assert_eq!(records.len(), paths.paths.len(), "one record per enumerated path");
    FunctionPaths {
        name: func.sig.name.clone(),
        signature: func.sig.to_string(),
        params: func.sig.params.iter().map(|p| p.name.clone()).collect(),
        line: lm.line(func.span.start),
        records,
        truncated: paths.truncated,
        pruned: paths.pruned,
    }
}

/// Computes (and memoizes) the summary event set of a callee: the union
/// of events over all of its extracted paths, deduplicated. `remaining`
/// is the inlining budget left at the *call site*: the callee's own
/// extraction gets `remaining - 1`, so a budget of 2 surfaces the
/// callee's callees' conditions at cumulative depth 2, and so on.
///
/// Returns a borrow of the memoized entry: the caller clones events
/// only as it splices them, and the union vector itself is inserted
/// exactly once (no insert-empty-then-overwrite double write of the
/// final value, no defensive clone of the whole union).
fn callee_summary<'c>(
    ast: &Ast,
    lm: &LineMap,
    name: Istr,
    remaining: u8,
    base: &ExtractConfig,
    caches: &'c mut ExtractCaches,
) -> &'c [Event] {
    const EMPTY: &[Event] = &[];
    if remaining == 0 {
        return EMPTY;
    }
    let key = (name, remaining);
    if caches.summaries.contains_key(&key) {
        caches.summary_hits += 1;
        return &caches.summaries[&key];
    }
    caches.summary_misses += 1;
    // Insert a placeholder first to break recursion cycles.
    caches.summaries.insert(key, Vec::new());
    let sub_config = ExtractConfig {
        paths: PathConfig { max_paths: 64, ..base.paths },
        inline_depth: remaining - 1,
        ..*base
    };
    let fp = extract_function(ast, lm, name.as_str(), &sub_config, caches);
    let mut seen = HashSet::new();
    let mut union = Vec::new();
    for rec in &fp.records {
        for e in &rec.events {
            if seen.insert(e) {
                union.push(e.clone());
            }
        }
    }
    caches.summaries.insert(key, union);
    &caches.summaries[&key]
}

/// Working buffers of one extraction walk, reused across functions
/// (see [`ExtractCaches::scratch`]). A finished walk leaves every
/// stack empty; only capacity carries over.
#[derive(Default)]
struct WalkScratch {
    paths: PathScratch,
    env: HashMap<Istr, Sym>,
    /// The current prefix's events (see [`Evaluator::lent`]).
    events: Vec<Event>,
    /// Environment undo trail: each binding's key and previous value.
    env_trail: Vec<(Istr, Option<Sym>)>,
    /// One frame per evaluated step: `steps[..frames.len()]` have
    /// been evaluated, the rest await a completed path.
    frames: Vec<Frame>,
    /// The DFS prefix: block entries and accepted decision arms.
    steps: Vec<Step>,
}

/// One element of the DFS prefix.
#[derive(Clone)]
enum Step {
    /// A block entry; `prev` is the block entered before it, for
    /// loop-exit detection.
    Block { bb: BlockId, prev: Option<BlockId> },
    /// An accepted decision arm.
    Decision(Decision),
}

/// What backtracking out of one block entry or decision arm restores:
/// the environment trail and event-stack lengths (truncating the
/// events also drops the `Call.assigned_to` patches made in the frame)
/// plus the scalar walk state.
struct Frame {
    env_trail: usize,
    events: usize,
    temp_counter: u32,
    havocs: u64,
}

/// The symbolic interpreter, driven by the enumeration DFS as a
/// [`PathOracle`] (see the module docs).
struct Evaluator<'a> {
    ast: &'a Ast,
    lm: &'a LineMap,
    config: &'a ExtractConfig,
    /// Loops whose exits havoc their may-written keys (empty with
    /// loop summaries off).
    loops: &'a [LoopSummary],
    /// The feasibility oracle, asked first about every decision arm.
    oracle: Option<FeasibilityOracle<'a>>,
    s: WalkScratch,
    temp_counter: u32,
    in_condition: u32,
    /// Bindings havocked at loop exits along the current prefix.
    havocs: u64,
    records: Vec<PathRecord>,
    /// `Some(len)` after a path completes: its record took the event
    /// stack, whose first `len` events are the current prefix's. The
    /// walk copies them back only if it evaluates another step, so the
    /// last path, and each path's suffix past the point where the walk
    /// resumes, are moved rather than cloned.
    lent: Option<usize>,
    caches: &'a mut ExtractCaches,
}

impl<'a> Evaluator<'a> {
    /// The records of every completed path, in DFS order, plus the
    /// (empty, warm) buffers for the next walk.
    fn finish(self) -> (Vec<PathRecord>, WalkScratch) {
        debug_assert!(self.s.steps.is_empty() && self.s.frames.is_empty());
        (self.records, self.s)
    }

    fn open_frame(&mut self) {
        if let Some(len) = self.lent.take() {
            let last = self.records.last().expect("a lent stack belongs to a record");
            self.s.events.extend_from_slice(&last.events[..len]);
        }
        self.s.frames.push(Frame {
            env_trail: self.s.env_trail.len(),
            events: self.s.events.len(),
            temp_counter: self.temp_counter,
            havocs: self.havocs,
        });
    }

    fn close_frame(&mut self) {
        let WalkScratch { env, events, env_trail, frames, .. } = &mut self.s;
        let frame = frames.pop().expect("balanced frame stack");
        for (key, prev) in env_trail.drain(frame.env_trail..).rev() {
            match prev {
                Some(v) => env.insert(key, v),
                None => env.remove(&key),
            };
        }
        match &mut self.lent {
            Some(len) => *len = frame.events.min(*len),
            None => events.truncate(frame.events),
        }
        self.temp_counter = frame.temp_counter;
        self.havocs = frame.havocs;
    }

    /// Evaluates the steps of the current prefix that no earlier
    /// completed path went through, each in its own frame.
    fn catch_up(&mut self, cfg: &Cfg) {
        while self.s.frames.len() < self.s.steps.len() {
            let step = self.s.steps[self.s.frames.len()].clone();
            self.open_frame();
            match step {
                Step::Block { bb, prev } => self.exec_block(cfg, bb, prev),
                Step::Decision(d) => self.record_decision(&d),
            }
        }
    }

    /// Drops the last step of the prefix, unwinding its frame if it
    /// was evaluated.
    fn backtrack(&mut self) {
        self.s.steps.pop();
        if self.s.frames.len() > self.s.steps.len() {
            self.close_frame();
        }
    }

    fn exec_block(&mut self, cfg: &Cfg, bb: BlockId, prev: Option<BlockId>) {
        // A loop-exit stand-in path ran the body a bounded number of
        // times; the real execution may have run it arbitrarily often.
        // Havoc exactly the may-written set so post-loop events never
        // see the k-th iteration's bindings. (Loops are in
        // deterministic `find_loops` order and `may_write` is a
        // BTreeSet, so havoc order is stable.)
        if let Some(prev) = prev {
            let loops = self.loops;
            for l in loops.iter().filter(|l| l.contains(prev) && !l.contains(bb)) {
                for key in &l.may_write {
                    self.bind(Istr::new(key), Sym::unknown());
                    self.havocs += 1;
                }
            }
        }
        for &stmt in &cfg.block(bb).stmts {
            self.exec_stmt(stmt);
        }
        for &(b, step) in &cfg.step_exprs {
            if b == bb {
                self.eval(step);
            }
        }
    }

    fn bind(&mut self, key: Istr, value: Sym) {
        let prev = self.s.env.insert(key, value);
        self.s.env_trail.push((key, prev));
    }

    /// Records the path ending in `Return` block `bb`: evaluates the
    /// returned expression (inside `bb`'s frame) and hands the event
    /// stack to the record.
    fn complete_path(&mut self, cfg: &Cfg, bb: BlockId, ret: Option<ExprId>) {
        let output = match ret {
            Some(e) => {
                let value = self.eval(e);
                OutputRecord {
                    line: self.line_of(e),
                    text: self.text_of(e),
                    value: Some(value),
                    vars: self.atoms_of(e),
                }
            }
            None => OutputRecord {
                line: self.lm.line(cfg.block(bb).span.start),
                text: String::new(),
                value: None,
                vars: Vec::new(),
            },
        };
        self.caches.vars_havocked += self.havocs;
        let index = self.records.len();
        let mut events = std::mem::take(&mut self.s.events);
        // The stack grew by doubling; a record keeps only what it uses.
        events.shrink_to_fit();
        self.lent = Some(events.len());
        self.records.push(PathRecord { index, events, output });
    }

    fn line_of(&self, e: ExprId) -> u32 {
        self.lm.line(self.ast.expr(e).span.start)
    }

    /// Memoized `expr_to_string`.
    fn text_of(&mut self, e: ExprId) -> String {
        if let Some(t) = self.caches.texts.get(&e) {
            return t.clone();
        }
        let t = expr_to_string(self.ast, e);
        self.caches.texts.insert(e, t.clone());
        t
    }

    fn exec_stmt(&mut self, id: pallas_lang::StmtId) {
        let ast = self.ast;
        let stmt = ast.stmt(id);
        match &stmt.kind {
            StmtKind::Decl { name, init, .. } => {
                let line = self.lm.line(stmt.span.start);
                self.s.events.push(Event::Decl {
                    line,
                    name: name.clone(),
                    has_init: init.is_some(),
                    depth: 0,
                });
                match init {
                    Some(e) => {
                        let value = self.eval(*e);
                        let value = self.detemporalize_call(value, name);
                        let text = format!("{name} = {}", self.text_of(*e));
                        let reads = self.atoms_of(*e);
                        self.s.events.push(Event::State {
                            line,
                            lvalue: name.clone(),
                            value,
                            text,
                            reads,
                            depth: 0,
                        });
                        self.bind(Istr::new(name), value);
                    }
                    None => {
                        // Declared but uninitialized: poison so reads
                        // can be recognized by the init checker.
                        self.bind(Istr::new(name), Sym::unknown());
                    }
                }
            }
            StmtKind::Expr(e) => {
                self.eval(*e);
            }
            _ => {}
        }
    }

    fn record_decision(&mut self, d: &Decision) {
        match d {
            Decision::Branch { cond, taken, .. } => {
                self.in_condition += 1;
                let sym = self.eval(*cond);
                self.in_condition -= 1;
                let text = self.text_of(*cond);
                let vars = self.atoms_of(*cond);
                self.s.events.push(Event::Cond {
                    line: self.line_of(*cond),
                    text,
                    symbolic: sym.to_string(),
                    vars,
                    taken: Some(*taken),
                    depth: 0,
                });
            }
            Decision::Switch { scrutinee, case, .. } => {
                self.in_condition += 1;
                let sym = self.eval(*scrutinee);
                self.in_condition -= 1;
                let case_text = case
                    .map(|c| format!(" == case {}", self.text_of(c)))
                    .unwrap_or_else(|| " == default".to_string());
                let mut vars = self.atoms_of(*scrutinee);
                if let Some(c) = case {
                    for atom in self.atoms_of(*c) {
                        if !vars.contains(&atom) {
                            vars.push(atom);
                        }
                    }
                }
                let text = format!("{}{case_text}", self.text_of(*scrutinee));
                self.s.events.push(Event::Cond {
                    line: self.line_of(*scrutinee),
                    text,
                    symbolic: format!("{sym}{case_text}"),
                    vars,
                    taken: None,
                    depth: 0,
                });
            }
        }
    }

    /// If the value is a raw call result, rewrite it as a `V#` temp (the
    /// Table 5 convention) and point the most recent Call event at the
    /// assigned lvalue. A raw call result only exists inside the
    /// expression that made the call, so the patched event was pushed
    /// in the current frame and unwinding it also drops the patch.
    fn detemporalize_call(&mut self, value: Sym, lvalue: &str) -> Sym {
        if let SymNode::Call { .. } = value.node() {
            // Only the function's own call events qualify — summary
            // events spliced from callees sit at depth > 0 and must not
            // absorb the assignment.
            let target = self
                .s
                .events
                .iter()
                .rposition(|e| matches!(e, Event::Call { assigned_to: None, depth: 0, .. }));
            if let Some(i) = target {
                debug_assert!(self.s.frames.last().is_some_and(|f| i >= f.events));
                if let Event::Call { assigned_to, .. } = &mut self.s.events[i] {
                    *assigned_to = Some(lvalue.to_string());
                }
            }
            self.temp_counter += 1;
            return Sym::temp(self.temp_counter);
        }
        value
    }

    /// Canonical (interned) lvalue key for identifier / member / index
    /// / deref chains; `None` for non-lvalue expressions. Memoized per
    /// expression.
    fn lvalue_key(&mut self, e: ExprId) -> Option<Istr> {
        if let Some(k) = self.caches.lvalues.get(&e) {
            return *k;
        }
        let key = match &self.ast.expr(e).kind {
            ExprKind::Ident(_) | ExprKind::Member { .. } | ExprKind::Index(..) => {
                Some(Istr::new(&expr_to_string(self.ast, e)))
            }
            ExprKind::Unary(UnOp::Deref, inner) => {
                self.lvalue_key(*inner).map(|k| Istr::new(&format!("*{k}")))
            }
            _ => None,
        };
        self.caches.lvalues.insert(e, key);
        key
    }

    /// Name atoms mentioned by an expression: identifiers, full member
    /// paths, and bare field names. Memoized per expression.
    fn atoms_of(&mut self, e: ExprId) -> Vec<String> {
        if let Some(v) = self.caches.atoms.get(&e) {
            return v.clone();
        }
        let mut set = Vec::new();
        let mut push = |s: String| {
            if !set.contains(&s) {
                set.push(s);
            }
        };
        self.ast.walk_expr(e, &mut |id| match &self.ast.expr(id).kind {
            ExprKind::Ident(n) => push(n.clone()),
            ExprKind::Member { field, .. } => {
                push(field.clone());
                push(expr_to_string(self.ast, id));
            }
            _ => {}
        });
        self.caches.atoms.insert(e, set.clone());
        set
    }

    /// Environment lookup falling back to a symbolic input of the key's
    /// own spelling.
    fn env_value(&self, key: Istr) -> Sym {
        self.s.env.get(&key).copied().unwrap_or_else(|| Sym::input(key))
    }

    fn eval(&mut self, e: ExprId) -> Sym {
        let ast = self.ast;
        match &ast.expr(e).kind {
            ExprKind::Int(v) => Sym::int(*v),
            ExprKind::Str(s) => Sym::str_lit(s.as_str()),
            ExprKind::Ident(_) => {
                let key = self.lvalue_key(e).expect("identifiers are lvalues");
                self.env_value(key)
            }
            ExprKind::Unary(op, inner) => {
                let (op, inner) = (*op, *inner);
                if op.mutates() {
                    let value = self.eval(inner);
                    if let Some(key) = self.lvalue_key(inner) {
                        let delta = if matches!(op, UnOp::PreInc | UnOp::PostInc) { 1 } else { -1 };
                        let new = Sym::binary(
                            pallas_lang::ast::BinOp::Add,
                            value,
                            Sym::int(delta),
                        );
                        let text = self.text_of(e);
                        let reads = self.atoms_of(inner);
                        self.s.events.push(Event::State {
                            line: self.line_of(e),
                            lvalue: key.to_string(),
                            value: new,
                            text,
                            reads,
                            depth: 0,
                        });
                        self.bind(key, new);
                        return match op {
                            UnOp::PostInc | UnOp::PostDec => value,
                            _ => new,
                        };
                    }
                    return Sym::unknown();
                }
                if matches!(op, UnOp::Addr) {
                    // Taking an address counts as a read; value unknown.
                    self.eval(inner);
                    return Sym::unknown();
                }
                let v = self.eval(inner);
                if matches!(op, UnOp::Deref) {
                    return match self.lvalue_key(e) {
                        Some(key) => self.env_value(key),
                        None => Sym::unknown(),
                    };
                }
                Sym::unary(op, v)
            }
            ExprKind::Binary(op, a, b) => {
                let (op, a, b) = (*op, *a, *b);
                let va = self.eval(a);
                let vb = self.eval(b);
                Sym::binary(op, va, vb)
            }
            ExprKind::Assign(op, lhs, rhs) => {
                let (op, lhs, rhs) = (*op, *lhs, *rhs);
                let rhs_value = self.eval(rhs);
                let key = match self.lvalue_key(lhs) {
                    Some(k) => k,
                    None => return Sym::unknown(),
                };
                let mut value = match op {
                    AssignOp::Assign => rhs_value,
                    AssignOp::Compound(bin) => {
                        let cur = self.env_value(key);
                        Sym::binary(bin, cur, rhs_value)
                    }
                };
                value = self.detemporalize_call(value, key.as_str());
                let mut reads = self.atoms_of(rhs);
                if matches!(op, AssignOp::Compound(_)) {
                    for a in self.atoms_of(lhs) {
                        if !reads.contains(&a) {
                            reads.push(a);
                        }
                    }
                }
                let text = self.text_of(e);
                self.s.events.push(Event::State {
                    line: self.line_of(e),
                    lvalue: key.to_string(),
                    value,
                    text,
                    reads,
                    depth: 0,
                });
                self.bind(key, value);
                value
            }
            ExprKind::Ternary(c, t, el) => {
                let (c, t, el) = (*c, *t, *el);
                self.in_condition += 1;
                let sym = self.eval(c);
                self.in_condition -= 1;
                let text = self.text_of(c);
                let vars = self.atoms_of(c);
                self.s.events.push(Event::Cond {
                    line: self.line_of(c),
                    text,
                    symbolic: sym.to_string(),
                    vars,
                    taken: None,
                    depth: 0,
                });
                let tv = self.eval(t);
                let ev = self.eval(el);
                if tv == ev {
                    tv
                } else {
                    Sym::unknown()
                }
            }
            ExprKind::Call { callee, args } => {
                let callee_name = Istr::new(&self.text_of(*callee));
                let mut arg_syms = Vec::with_capacity(args.len());
                let mut arg_vars = Vec::new();
                for &a in args {
                    arg_syms.push(self.eval(a));
                    for atom in self.atoms_of(a) {
                        if !arg_vars.contains(&atom) {
                            arg_vars.push(atom);
                        }
                    }
                }
                self.s.events.push(Event::Call {
                    line: self.line_of(e),
                    callee: callee_name.to_string(),
                    arg_vars,
                    assigned_to: None,
                    in_condition: self.in_condition > 0,
                    depth: 0,
                });
                // Summary-inline same-unit callees.
                if self.config.inline_depth > 0 && ast.function(callee_name.as_str()).is_some() {
                    let summary = callee_summary(
                        ast,
                        self.lm,
                        callee_name,
                        self.config.inline_depth,
                        self.config,
                        self.caches,
                    );
                    for ev in summary {
                        let mut ev = ev.clone();
                        match &mut ev {
                            Event::Cond { depth, .. }
                            | Event::State { depth, .. }
                            | Event::Call { depth, .. }
                            | Event::Decl { depth, .. } => *depth += 1,
                        }
                        self.s.events.push(ev);
                    }
                }
                Sym::call(callee_name, arg_syms)
            }
            ExprKind::Member { base, .. } => {
                let base = *base;
                self.eval(base);
                match self.lvalue_key(e) {
                    Some(key) => self.env_value(key),
                    None => Sym::unknown(),
                }
            }
            ExprKind::Index(b, i) => {
                let (b, i) = (*b, *i);
                self.eval(b);
                self.eval(i);
                match self.lvalue_key(e) {
                    Some(key) => self.env_value(key),
                    None => Sym::unknown(),
                }
            }
            ExprKind::Cast(_, inner) => self.eval(*inner),
            ExprKind::SizeofType(ty) => Sym::input(format!("sizeof({ty})")),
            ExprKind::SizeofExpr(inner) => {
                self.eval(*inner);
                Sym::unknown()
            }
            ExprKind::Comma(a, b) => {
                let (a, b) = (*a, *b);
                self.eval(a);
                self.eval(b)
            }
        }
    }
}

impl PathOracle for Evaluator<'_> {
    fn enter_block(&mut self, cfg: &Cfg, bb: BlockId) {
        if let Some(oracle) = &mut self.oracle {
            oracle.enter_block(cfg, bb);
        }
        let prev = self.s.steps.iter().rev().find_map(|step| match step {
            Step::Block { bb, .. } => Some(*bb),
            Step::Decision(_) => None,
        });
        self.s.steps.push(Step::Block { bb, prev });
        if let Terminator::Return(ret) = cfg.block(bb).term {
            self.catch_up(cfg);
            self.complete_path(cfg, bb, ret);
        }
    }

    fn push_decision(&mut self, cfg: &Cfg, d: &Decision) -> bool {
        if let Some(oracle) = &mut self.oracle {
            if !oracle.push_decision(cfg, d) {
                return false;
            }
        }
        self.s.steps.push(Step::Decision(d.clone()));
        true
    }

    fn pop_decision(&mut self) {
        self.backtrack();
        if let Some(oracle) = &mut self.oracle {
            oracle.pop_decision();
        }
    }

    fn leave_block(&mut self, cfg: &Cfg, bb: BlockId) {
        self.backtrack();
        if let Some(oracle) = &mut self.oracle {
            oracle.leave_block(cfg, bb);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pallas_lang::parse;

    fn db_of(src: &str) -> PathDb {
        let ast = parse(src).unwrap();
        extract("test", &ast, src, &ExtractConfig::default())
    }

    #[test]
    fn straight_line_states_recorded() {
        let db = db_of("int f(int x) {\n  int y = x + 1;\n  y = y * 2;\n  return y;\n}");
        let f = db.function("f").unwrap();
        assert_eq!(f.records.len(), 1);
        let rec = &f.records[0];
        let states: Vec<_> = rec.states().collect();
        assert_eq!(states.len(), 2);
        match &states[1] {
            Event::State { lvalue, line, .. } => {
                assert_eq!(lvalue, "y");
                assert_eq!(*line, 3);
            }
            _ => unreachable!(),
        }
        // y = (x+1)*2 stays symbolic in x.
        assert!(rec.output.value.unwrap().mentions("x"));
    }

    #[test]
    fn constant_propagation_to_return() {
        let db = db_of("int f(void) { int a = 2; int b = a + 3; return b * 2; }");
        let f = db.function("f").unwrap();
        assert_eq!(f.records[0].output.value, Some(Sym::int(10)));
        assert_eq!(f.literal_returns(), vec![10]);
    }

    #[test]
    fn branch_conditions_recorded_per_path() {
        let db = db_of("int f(int x) {\n  if (x > 0)\n    return 1;\n  return 0;\n}");
        let f = db.function("f").unwrap();
        assert_eq!(f.records.len(), 2);
        for rec in &f.records {
            assert!(rec.checks_atom("x"));
            assert_eq!(rec.conditions().count(), 1);
        }
        assert_eq!(f.literal_returns(), vec![0, 1]);
    }

    #[test]
    fn member_lvalues_tracked() {
        let db = db_of(
            "struct page { int private; };\n\
             int f(struct page *page, int migratetype) {\n\
               page->private = migratetype;\n\
               page->private = 0;\n\
               return page->private;\n\
             }",
        );
        let f = db.function("f").unwrap();
        let rec = &f.records[0];
        let lvalues: Vec<&str> = rec
            .states()
            .map(|e| match e {
                Event::State { lvalue, .. } => lvalue.as_str(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(lvalues, vec!["page->private", "page->private"]);
        assert_eq!(rec.output.value, Some(Sym::int(0)));
    }

    #[test]
    fn calls_recorded_with_assignment_target() {
        let db = db_of(
            "int g(int a);\n\
             int f(int x) {\n\
               int r = g(x);\n\
               if (r < 0)\n\
                 return -1;\n\
               return 0;\n\
             }",
        );
        let f = db.function("f").unwrap();
        let rec = &f.records[0];
        let call = rec.calls().next().unwrap();
        match call {
            Event::Call { callee, assigned_to, in_condition, arg_vars, .. } => {
                assert_eq!(callee, "g");
                assert_eq!(assigned_to.as_deref(), Some("r"));
                assert!(!in_condition);
                assert_eq!(arg_vars, &vec!["x".to_string()]);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn call_assignment_patch_survives_backtracking_into_later_branches() {
        // The `assigned_to` patch lands in the entry block's frame,
        // which every path shares; unwinding the branch arms must not
        // undo it, and each record must carry its own patched copy.
        let db = db_of(
            "int g(int a);\n\
             int f(int x, int y) {\n\
               int r = g(x);\n\
               if (r)\n\
                 r = 1;\n\
               else\n\
                 r = 2;\n\
               if (y)\n\
                 return r;\n\
               return 0;\n\
             }",
        );
        let f = db.function("f").unwrap();
        assert_eq!(f.records.len(), 4);
        for rec in &f.records {
            let calls: Vec<_> = rec.calls().collect();
            assert_eq!(calls.len(), 1);
            assert!(
                matches!(calls[0], Event::Call { assigned_to: Some(r), .. } if r == "r"),
                "path {} lost the assignment target: {:?}",
                rec.index,
                calls[0]
            );
        }
        let indices: Vec<usize> = f.records.iter().map(|r| r.index).collect();
        assert_eq!(indices, vec![0, 1, 2, 3]);
    }

    #[test]
    fn loop_exit_havocs_count_once_per_completed_path() {
        // One loop exit edge on the prefix, shared by the four paths
        // the two branches after it fan out into: the havoc count is
        // per completed path (2 keys × 8 paths), not per DFS edge.
        let src = "int f(int a, int b, int n) {\n\
               int s = 0;\n\
               while (n) { s = s + 1; n--; }\n\
               if (a) s = 1;\n\
               if (b) s = 2;\n\
               return s;\n\
             }";
        let ast = parse(src).unwrap();
        let mut fx = FunctionExtractor::new(&ast, src, &ExtractConfig::default());
        let f = fx.extract_function("f");
        // 0 or 1 iterations (the visit cap) × 4 branch combinations.
        assert_eq!(f.records.len(), 8);
        assert_eq!(fx.loop_summary_stats(), (1, 2 * 8));
        // The two paths that assign nothing after the loop return the
        // havocked `s`, whatever the loop ran.
        let havocked = f.records.iter().filter(|r| r.output.value == Some(Sym::unknown())).count();
        assert_eq!(havocked, 2);
    }

    #[test]
    fn call_inside_condition_flagged() {
        let db = db_of(
            "int ok(int a);\n\
             int f(int x) { if (ok(x)) return 1; return 0; }",
        );
        let f = db.function("f").unwrap();
        let call = f.records[0].calls().next().unwrap();
        assert!(matches!(call, Event::Call { in_condition: true, .. }));
    }

    #[test]
    fn compound_assignment_reads_lhs() {
        let db = db_of("int f(int x) { x |= 4; return x; }");
        let f = db.function("f").unwrap();
        let st = f.records[0].states().next().unwrap();
        match st {
            Event::State { lvalue, reads, .. } => {
                assert_eq!(lvalue, "x");
                assert!(reads.contains(&"x".to_string()));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn increment_is_a_state_update() {
        let db = db_of("int f(int i) { i++; return i; }");
        let f = db.function("f").unwrap();
        assert_eq!(f.records[0].states().count(), 1);
    }

    #[test]
    fn ternary_condition_recorded() {
        let db = db_of("int f(int flag) { return flag ? 1 : 0; }");
        let f = db.function("f").unwrap();
        assert!(f.records[0].checks_atom("flag"));
    }

    #[test]
    fn summary_inlining_surfaces_callee_conditions() {
        let src = "int handle_fault(int err) {\n\
               if (err == -5)\n\
                 return 1;\n\
               return 0;\n\
             }\n\
             int f(int err) {\n\
               handle_fault(err);\n\
               return 0;\n\
             }";
        let db = db_of(src);
        let f = db.function("f").unwrap();
        // The callee's `err == -5` check appears at depth 1.
        let has_inlined_cond = f.records[0]
            .conditions()
            .any(|e| matches!(e, Event::Cond { depth: 1, vars, .. } if vars.iter().any(|v| v == "err")));
        assert!(has_inlined_cond);
        // With inlining disabled it does not.
        let ast = parse(src).unwrap();
        let db0 = extract(
            "test",
            &ast,
            src,
            &ExtractConfig { inline_depth: 0, ..ExtractConfig::default() },
        );
        let f0 = db0.function("f").unwrap();
        assert_eq!(f0.records[0].conditions().count(), 0);
    }

    #[test]
    fn recursive_functions_do_not_hang() {
        let db = db_of("int f(int x) { if (x) return f(x - 1); return 0; }");
        assert!(db.function("f").is_some());
    }

    #[test]
    fn switch_scrutinee_recorded() {
        let db = db_of(
            "int f(int mode) { switch (mode) { case 1: return 1; default: return 0; } }",
        );
        let f = db.function("f").unwrap();
        assert!(f.records.iter().all(|r| r.checks_atom("mode")));
        assert_eq!(f.records.len(), 2);
    }

    #[test]
    fn member_path_atoms_include_field_names() {
        let db = db_of(
            "struct q { struct t *rps_flow_table; };\n\
             int f(struct q *rxq) {\n\
               if (!rxq->rps_flow_table)\n\
                 return 1;\n\
               return 0;\n\
             }",
        );
        let f = db.function("f").unwrap();
        let rec = &f.records[0];
        assert!(rec.checks_atom("rps_flow_table"));
        assert!(rec.checks_atom("rxq->rps_flow_table"));
        assert!(rec.checks_atom("rxq"));
    }

    #[test]
    fn globals_default_to_symbolic_inputs() {
        let db = db_of(
            "int total_pages = 100;\n\
             int f(void) { return total_pages; }",
        );
        let f = db.function("f").unwrap();
        assert_eq!(f.records[0].output.value, Some(Sym::input("total_pages")));
    }

    #[test]
    fn for_loop_step_event_present() {
        let db = db_of("int f(void) { int s = 0; for (int i = 0; i < 2; i++) s += i; return s; }");
        let f = db.function("f").unwrap();
        // At least one path iterates and thus records the i++ state.
        let any_step = f
            .records
            .iter()
            .any(|r| r.states().any(|e| matches!(e, Event::State { lvalue, .. } if lvalue == "i")));
        assert!(any_step);
    }

    #[test]
    fn summary_cache_hit_counts_are_stable() {
        // Three call sites of the same callee at the same depth: the
        // first misses (and extracts `callee` once), the remaining two
        // hit the memo. The counts pin the insert-once protocol — a
        // regression that re-extracts per call site shows up as extra
        // misses, one that drops the placeholder shows up as a hang on
        // the recursive case below.
        let src = "int callee(int x) { if (x) return 1; return 0; }\n\
             int f(int a) {\n\
               callee(a);\n\
               callee(a);\n\
               callee(a);\n\
               return 0;\n\
             }";
        let ast = parse(src).unwrap();
        let mut fx = FunctionExtractor::new(&ast, src, &ExtractConfig::default());
        let _ = fx.extract_function("callee");
        let _ = fx.extract_function("f");
        assert_eq!(fx.summary_cache_stats(), (2, 1));

        // A self-recursive function: extracting `r` computes its own
        // summary once (the recursive call site inside sits at
        // remaining depth 0, where inlining is gated off, so it never
        // queries the cache), and `g`'s call site then reuses it.
        let src = "int r(int x) { if (x) return r(x - 1); return 0; }\n\
             int g(int a) { return r(a); }";
        let ast = parse(src).unwrap();
        let mut fx = FunctionExtractor::new(&ast, src, &ExtractConfig::default());
        let _ = fx.extract_function("r");
        let _ = fx.extract_function("g");
        let (hits, misses) = fx.summary_cache_stats();
        assert_eq!(misses, 1, "r's summary must be computed exactly once");
        assert_eq!(hits, 1, "g's call site must reuse r's cached summary");
    }
}
