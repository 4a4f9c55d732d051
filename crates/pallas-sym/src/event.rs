//! The path database: per-path timelines of semantic events.
//!
//! Each enumerated execution path becomes a [`PathRecord`] — an ordered
//! list of [`Event`]s (condition checks, state updates, calls,
//! declarations) plus the path's output. The twelve rule checkers run
//! entirely over this representation; they never look at the AST again.

use crate::sym::Sym;
use std::collections::HashMap;
use std::fmt;

/// One semantic event on a path's timeline.
///
/// `Hash`/`Eq` are structural: the extractor's summary-union dedup
/// keys on whole events (hashing a [`Sym`] is O(1) on its arena id).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Event {
    /// A flow-control condition was evaluated (branch, switch, or
    /// ternary).
    Cond {
        /// 1-based source line.
        line: u32,
        /// Rendered condition text.
        text: String,
        /// Symbolic rendering of the evaluated condition (Table 5's
        /// `S#/I#/V#/E#` notation).
        symbolic: String,
        /// Name atoms mentioned by the condition (identifiers, member
        /// paths, and field names).
        vars: Vec<String>,
        /// For branches: which arm the path took.
        taken: Option<bool>,
        /// Inlining depth (0 = the function's own code).
        depth: u8,
    },
    /// An lvalue was written.
    State {
        /// 1-based source line.
        line: u32,
        /// Canonical lvalue text (`gfp_mask`, `page->private`).
        lvalue: String,
        /// Symbolic value written.
        value: Sym,
        /// Rendered statement text.
        text: String,
        /// Name atoms read while computing the value.
        reads: Vec<String>,
        /// Inlining depth.
        depth: u8,
    },
    /// A function was called.
    Call {
        /// 1-based source line.
        line: u32,
        /// Callee name (or rendered callee expression).
        callee: String,
        /// Name atoms mentioned by the arguments.
        arg_vars: Vec<String>,
        /// Lvalue the result was assigned to, if any.
        assigned_to: Option<String>,
        /// Whether the call occurred inside a flow-control condition.
        in_condition: bool,
        /// Inlining depth.
        depth: u8,
    },
    /// A local variable was declared.
    Decl {
        /// 1-based source line.
        line: u32,
        /// Variable name.
        name: String,
        /// Whether the declaration had an initializer.
        has_init: bool,
        /// Inlining depth.
        depth: u8,
    },
}

impl Event {
    /// The source line of the event.
    pub fn line(&self) -> u32 {
        match self {
            Event::Cond { line, .. }
            | Event::State { line, .. }
            | Event::Call { line, .. }
            | Event::Decl { line, .. } => *line,
        }
    }

    /// The inlining depth of the event (0 = own code).
    pub fn depth(&self) -> u8 {
        match self {
            Event::Cond { depth, .. }
            | Event::State { depth, .. }
            | Event::Call { depth, .. }
            | Event::Decl { depth, .. } => *depth,
        }
    }

    /// All name atoms the event mentions (reads and writes).
    pub fn atoms(&self) -> Vec<&str> {
        match self {
            Event::Cond { vars, .. } => vars.iter().map(String::as_str).collect(),
            Event::State { lvalue, reads, .. } => {
                let mut v: Vec<&str> = reads.iter().map(String::as_str).collect();
                v.push(lvalue.as_str());
                v
            }
            Event::Call { arg_vars, callee, .. } => {
                let mut v: Vec<&str> = arg_vars.iter().map(String::as_str).collect();
                v.push(callee.as_str());
                v
            }
            Event::Decl { name, .. } => vec![name.as_str()],
        }
    }
}

/// The output of one path.
#[derive(Debug, Clone, PartialEq)]
pub struct OutputRecord {
    /// 1-based source line of the `return` (or end of function).
    pub line: u32,
    /// Rendered return expression (`""` for a bare return).
    pub text: String,
    /// Symbolic return value (`None` for a bare return).
    pub value: Option<Sym>,
    /// Name atoms mentioned by the return expression.
    pub vars: Vec<String>,
}

/// One extracted execution path.
#[derive(Debug, Clone, PartialEq)]
pub struct PathRecord {
    /// Index of this path within its function (enumeration order).
    pub index: usize,
    /// Ordered event timeline.
    pub events: Vec<Event>,
    /// Path output.
    pub output: OutputRecord,
}

impl PathRecord {
    /// Iterates over condition events at any depth.
    pub fn conditions(&self) -> impl Iterator<Item = &Event> {
        self.events.iter().filter(|e| matches!(e, Event::Cond { .. }))
    }

    /// Iterates over state-update events.
    pub fn states(&self) -> impl Iterator<Item = &Event> {
        self.events.iter().filter(|e| matches!(e, Event::State { .. }))
    }

    /// Iterates over call events.
    pub fn calls(&self) -> impl Iterator<Item = &Event> {
        self.events.iter().filter(|e| matches!(e, Event::Call { .. }))
    }

    /// Whether any condition event (at any depth) mentions `atom`.
    pub fn checks_atom(&self, atom: &str) -> bool {
        self.conditions().any(|e| match e {
            Event::Cond { vars, .. } => vars.iter().any(|v| v == atom),
            _ => false,
        })
    }

    /// The first event index whose atoms mention `atom`, if any.
    pub fn first_mention(&self, atom: &str) -> Option<usize> {
        self.events.iter().position(|e| e.atoms().contains(&atom))
    }
}

/// All extracted paths of one function.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionPaths {
    /// Function name.
    pub name: String,
    /// Rendered signature (Table 5's `Signature` row).
    pub signature: String,
    /// Parameter names.
    pub params: Vec<String>,
    /// 1-based line of the function definition.
    pub line: u32,
    /// Extracted paths.
    pub records: Vec<PathRecord>,
    /// Whether enumeration hit a limit (the set under-approximates).
    pub truncated: bool,
    /// Decision arms the feasibility oracle proved contradictory — each
    /// one a doomed subtree path enumeration never entered. Always 0
    /// when pruning is disabled.
    pub pruned: usize,
}

impl FunctionPaths {
    /// Set of distinct constant return values across all paths.
    pub fn literal_returns(&self) -> Vec<i64> {
        let mut v: Vec<i64> = self
            .records
            .iter()
            .filter_map(|r| r.output.value.and_then(|s| s.as_int()))
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Set of distinct symbolic (named) return values across paths.
    pub fn named_returns(&self) -> Vec<String> {
        let mut v: Vec<String> = self
            .records
            .iter()
            .filter_map(|r| r.output.value.and_then(|s| s.as_input().map(str::to_string)))
            .collect();
        v.sort();
        v.dedup();
        v
    }
}

/// The path database for one merged translation unit.
#[derive(Clone, Default, PartialEq)]
pub struct PathDb {
    /// Unit name (for reports).
    pub unit: String,
    /// Per-function path sets, in source order.
    pub functions: Vec<FunctionPaths>,
    by_name: HashMap<String, usize>,
}

/// Prints `unit` and `functions` only: the name index is derived from
/// `functions`, and as a `HashMap` it would print in a different order
/// on every run.
impl fmt::Debug for PathDb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PathDb")
            .field("unit", &self.unit)
            .field("functions", &self.functions)
            .finish_non_exhaustive()
    }
}

impl PathDb {
    /// Creates an empty database for the named unit.
    pub fn new(unit: impl Into<String>) -> Self {
        PathDb { unit: unit.into(), functions: Vec::new(), by_name: HashMap::new() }
    }

    /// Adds a function's paths, indexing it by name.
    pub fn insert(&mut self, fp: FunctionPaths) {
        self.by_name.insert(fp.name.clone(), self.functions.len());
        self.functions.push(fp);
    }

    /// Looks up a function's paths by name.
    pub fn function(&self, name: &str) -> Option<&FunctionPaths> {
        self.by_name.get(name).map(|&i| &self.functions[i])
    }

    /// Total number of extracted paths across all functions.
    pub fn path_count(&self) -> usize {
        self.functions.iter().map(|f| f.records.len()).sum()
    }

    /// True if any function's enumeration hit a [`PathConfig`] limit,
    /// i.e. the database under-approximates the path set.
    ///
    /// [`PathConfig`]: pallas_cfg::PathConfig
    pub fn any_truncated(&self) -> bool {
        self.functions.iter().any(|f| f.truncated)
    }

    /// Total number of decision arms pruned as infeasible across all
    /// functions.
    pub fn pruned_paths(&self) -> usize {
        self.functions.iter().map(|f| f.pruned).sum()
    }

    /// Functions whose paths contain a call to `callee` at depth 0.
    pub fn callers_of(&self, callee: &str) -> Vec<&FunctionPaths> {
        self.functions
            .iter()
            .filter(|f| {
                f.name != callee
                    && f.records.iter().any(|r| {
                        r.calls().any(|c| {
                            matches!(c, Event::Call { callee: c2, depth: 0, .. } if c2 == callee)
                        })
                    })
            })
            .collect()
    }
}

impl fmt::Display for PathDb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "path database for unit `{}`:", self.unit)?;
        for func in &self.functions {
            writeln!(
                f,
                "  {} — {} path(s){}",
                func.signature,
                func.records.len(),
                if func.truncated { " (truncated)" } else { "" }
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(line: u32, lvalue: &str) -> Event {
        Event::State {
            line,
            lvalue: lvalue.into(),
            value: Sym::int(0),
            text: format!("{lvalue} = 0"),
            reads: vec![],
            depth: 0,
        }
    }

    #[test]
    fn path_record_queries() {
        let rec = PathRecord {
            index: 0,
            events: vec![
                Event::Cond {
                    line: 3,
                    text: "order == 0".into(),
                    symbolic: "(S#order) == (I#0)".into(),
                    vars: vec!["order".into()],
                    taken: Some(true),
                    depth: 0,
                },
                state(4, "page"),
            ],
            output: OutputRecord { line: 5, text: "page".into(), value: None, vars: vec![] },
        };
        assert!(rec.checks_atom("order"));
        assert!(!rec.checks_atom("page"));
        assert_eq!(rec.first_mention("page"), Some(1));
        assert_eq!(rec.conditions().count(), 1);
        assert_eq!(rec.states().count(), 1);
    }

    #[test]
    fn db_lookup_and_callers() {
        let mut db = PathDb::new("u");
        db.insert(FunctionPaths {
            name: "callee".into(),
            signature: "int callee()".into(),
            params: vec![],
            line: 1,
            records: vec![],
            truncated: false,
            pruned: 0,
        });
        db.insert(FunctionPaths {
            name: "caller".into(),
            signature: "int caller()".into(),
            params: vec![],
            line: 10,
            records: vec![PathRecord {
                index: 0,
                events: vec![Event::Call {
                    line: 11,
                    callee: "callee".into(),
                    arg_vars: vec![],
                    assigned_to: None,
                    in_condition: false,
                    depth: 0,
                }],
                output: OutputRecord { line: 12, text: String::new(), value: None, vars: vec![] },
            }],
            truncated: false,
            pruned: 0,
        });
        assert!(db.function("callee").is_some());
        assert!(db.function("nope").is_none());
        let callers = db.callers_of("callee");
        assert_eq!(callers.len(), 1);
        assert_eq!(callers[0].name, "caller");
        assert_eq!(db.path_count(), 1);
        assert!(!db.any_truncated());
    }

    #[test]
    fn any_truncated_reflects_function_records() {
        let mut db = PathDb::new("u");
        db.insert(FunctionPaths {
            name: "full".into(),
            signature: "int full()".into(),
            params: vec![],
            line: 1,
            records: vec![],
            truncated: false,
            pruned: 0,
        });
        assert!(!db.any_truncated());
        db.insert(FunctionPaths {
            name: "capped".into(),
            signature: "int capped()".into(),
            params: vec![],
            line: 9,
            records: vec![],
            truncated: true,
            pruned: 0,
        });
        assert!(db.any_truncated());
    }

    #[test]
    fn literal_and_named_returns() {
        let fp = FunctionPaths {
            name: "f".into(),
            signature: "int f()".into(),
            params: vec![],
            line: 1,
            records: vec![
                PathRecord {
                    index: 0,
                    events: vec![],
                    output: OutputRecord {
                        line: 2,
                        text: "0".into(),
                        value: Some(Sym::int(0)),
                        vars: vec![],
                    },
                },
                PathRecord {
                    index: 1,
                    events: vec![],
                    output: OutputRecord {
                        line: 3,
                        text: "err".into(),
                        value: Some(Sym::input("err")),
                        vars: vec!["err".into()],
                    },
                },
            ],
            truncated: false,
            pruned: 0,
        };
        assert_eq!(fp.literal_returns(), vec![0]);
        assert_eq!(fp.named_returns(), vec!["err"]);
    }

    #[test]
    fn event_accessors() {
        let e = state(7, "x");
        assert_eq!(e.line(), 7);
        assert_eq!(e.depth(), 0);
        assert!(e.atoms().contains(&"x"));
    }

    #[test]
    fn path_db_debug_is_deterministic_and_omits_the_name_index() {
        let fp = |name: &str| FunctionPaths {
            name: name.into(),
            signature: format!("int {name}(void)"),
            params: vec![],
            line: 1,
            records: vec![],
            truncated: false,
            pruned: 0,
        };
        let build = || {
            let mut db = PathDb::new("u");
            for name in ["a", "b", "c", "d", "e", "f", "g", "h"] {
                db.insert(fp(name));
            }
            db
        };
        let text = format!("{:?}", build());
        assert!(!text.contains("by_name"), "{text}");
        assert!(text.starts_with("PathDb { unit: \"u\", functions: ["), "{text}");
        // Fresh `HashMap`s get fresh random seeds: the rendering must not
        // depend on them.
        for _ in 0..8 {
            assert_eq!(format!("{:?}", build()), text);
        }
    }
}
