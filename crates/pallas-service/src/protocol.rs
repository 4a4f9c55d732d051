//! The daemon's newline-delimited JSON protocol.
//!
//! One request per line, one response line per request, in order.
//!
//! Requests:
//!
//! ```text
//! {"op":"check","unit":UNIT}                 check one unit
//! {"op":"batch","units":[UNIT,...]}          check many in parallel
//! {"op":"stats"}                             metrics + engine counters
//! {"op":"trace"}                             drain the trace collector
//! {"op":"shutdown"}                          drain in-flight work and exit
//! ```
//!
//! where `UNIT` is
//! `{"name":s,"files":[{"name":s,"contents":s},...],"spec":s}`.
//! A check/batch request may carry `"delay_ms":n`, an artificial
//! pre-analysis stall used by the timeout/overload tests and benches
//! to make a unit deliberately slow. It may also carry a rule
//! selection — `"only_rules":[s,...]` and/or `"disable_rules":[s,...]`
//! with paper numbers or titles — which scopes the Check stage for
//! that request exactly like `pallas check --only-rule/--disable-rule`
//! does locally; the selection participates in the engine's cache key,
//! so scoped and default requests share one daemon cache safely.
//!
//! Responses always carry `"ok"`. A successful check response is
//!
//! ```text
//! {"ok":true,"unit":s,"cached":b,"report":s,"ndjson":s}
//! ```
//!
//! `report` is byte-identical to `pallas check`'s human output for the
//! same unit and `ndjson` to `pallas check --json` — both are rendered
//! by the same `pallas-core` serializers the CLI uses. Failures are
//! `{"ok":false,...,"error":s}` with an optional `"kind"` of
//! `"overload"`, `"timeout"`, or `"analysis"`.

use crate::json::{self, n, obj, s, Value};
use pallas_core::{render_ndjson, render_unit_report, AnalyzedUnit, PallasError, SourceUnit};
use std::time::Duration;

/// Per-request rule scoping carried by check/batch requests. Rule
/// names are paper numbers (`"4.1"`) or registry titles; an empty
/// selection means "the daemon's configured rule set".
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RuleSelection {
    /// Run only these rules (empty = every configured rule).
    pub only: Vec<String>,
    /// Drop these rules from the set.
    pub disable: Vec<String>,
}

impl RuleSelection {
    /// True when the request does not scope rules at all.
    pub fn is_default(&self) -> bool {
        self.only.is_empty() && self.disable.is_empty()
    }

    /// Resolves the selection against the full registry.
    ///
    /// # Errors
    ///
    /// Returns the unknown rule name if one does not resolve.
    pub fn resolve(&self) -> Result<pallas_checkers::RuleSet, String> {
        pallas_checkers::RuleSet::from_selection(&self.only, &self.disable)
    }
}

/// A parsed protocol request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Check one unit.
    Check {
        /// The unit to analyze.
        unit: SourceUnit,
        /// Artificial pre-analysis stall (test/bench aid).
        delay: Option<Duration>,
        /// Rule scoping for this request.
        rules: RuleSelection,
    },
    /// Check a batch of units through the engine's batch scheduler.
    Batch {
        /// The units to analyze, response order = request order.
        units: Vec<SourceUnit>,
        /// Artificial pre-analysis stall applied once for the batch.
        delay: Option<Duration>,
        /// Rule scoping applied to every unit in the batch.
        rules: RuleSelection,
    },
    /// Sample the metrics registry.
    Stats,
    /// Drain the trace collector: the response carries the Chrome
    /// trace-event export and the flame summary of every span recorded
    /// since the previous `trace` request (draining resets the
    /// collector). Useful output needs the daemon started with tracing
    /// on (`ServiceConfig::trace` / `pallas serve --trace`).
    Trace,
    /// Graceful shutdown: drain, log metrics, exit.
    Shutdown,
}

impl Request {
    /// Parses one request line.
    pub fn parse(line: &str) -> Result<Request, String> {
        let value = json::parse(line).map_err(|e| format!("malformed request: {e}"))?;
        let op = value
            .get("op")
            .and_then(Value::as_str)
            .ok_or("request needs a string `op` field")?;
        let delay = value
            .get("delay_ms")
            .map(|d| d.as_u64().ok_or("`delay_ms` must be a non-negative integer"))
            .transpose()?
            .map(Duration::from_millis);
        let rules = RuleSelection {
            only: decode_rule_names(&value, "only_rules")?,
            disable: decode_rule_names(&value, "disable_rules")?,
        };
        match op {
            "check" => {
                let unit = decode_unit(value.get("unit").ok_or("check needs a `unit` field")?)?;
                Ok(Request::Check { unit, delay, rules })
            }
            "batch" => {
                let items = value
                    .get("units")
                    .and_then(Value::as_arr)
                    .ok_or("batch needs a `units` array")?;
                let units = items.iter().map(decode_unit).collect::<Result<Vec<_>, _>>()?;
                Ok(Request::Batch { units, delay, rules })
            }
            "stats" => Ok(Request::Stats),
            "trace" => Ok(Request::Trace),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown op `{other}`")),
        }
    }

    /// Renders the request as one protocol line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut fields: Vec<(&str, Value)> = Vec::new();
        let push_scoping = |delay: &Option<Duration>,
                                rules: &RuleSelection,
                                fields: &mut Vec<(&'static str, Value)>| {
            if let Some(d) = delay {
                fields.push(("delay_ms", n(d.as_millis() as u64)));
            }
            if !rules.only.is_empty() {
                fields.push(("only_rules", Value::Arr(rules.only.iter().map(s).collect())));
            }
            if !rules.disable.is_empty() {
                fields
                    .push(("disable_rules", Value::Arr(rules.disable.iter().map(s).collect())));
            }
        };
        match self {
            Request::Check { unit, delay, rules } => {
                fields.push(("op", s("check")));
                fields.push(("unit", encode_unit(unit)));
                push_scoping(delay, rules, &mut fields);
            }
            Request::Batch { units, delay, rules } => {
                fields.push(("op", s("batch")));
                fields.push(("units", Value::Arr(units.iter().map(encode_unit).collect())));
                push_scoping(delay, rules, &mut fields);
            }
            Request::Stats => fields.push(("op", s("stats"))),
            Request::Trace => fields.push(("op", s("trace"))),
            Request::Shutdown => fields.push(("op", s("shutdown"))),
        }
        obj(fields).to_string()
    }
}

/// Decodes an optional array-of-strings rule-name field.
fn decode_rule_names(value: &Value, field: &str) -> Result<Vec<String>, String> {
    match value.get(field) {
        None => Ok(Vec::new()),
        Some(v) => v
            .as_arr()
            .ok_or(format!("`{field}` must be an array of rule names"))?
            .iter()
            .map(|entry| {
                entry
                    .as_str()
                    .map(str::to_string)
                    .ok_or(format!("`{field}` entries must be strings"))
            })
            .collect(),
    }
}

/// Encodes a [`SourceUnit`] as its protocol object.
pub fn encode_unit(unit: &SourceUnit) -> Value {
    obj(vec![
        ("name", s(&unit.name)),
        (
            "files",
            Value::Arr(
                unit.files
                    .iter()
                    .map(|(name, contents)| {
                        obj(vec![("name", s(name)), ("contents", s(contents))])
                    })
                    .collect(),
            ),
        ),
        ("spec", s(&unit.spec_text)),
    ])
}

/// Decodes a protocol unit object back into a [`SourceUnit`].
pub fn decode_unit(value: &Value) -> Result<SourceUnit, String> {
    let name = value
        .get("name")
        .and_then(Value::as_str)
        .ok_or("unit needs a string `name`")?;
    let mut unit = SourceUnit::new(name);
    for file in value.get("files").and_then(Value::as_arr).unwrap_or(&[]) {
        let file_name = file
            .get("name")
            .and_then(Value::as_str)
            .ok_or("unit file needs a string `name`")?;
        let contents = file
            .get("contents")
            .and_then(Value::as_str)
            .ok_or("unit file needs string `contents`")?;
        unit = unit.with_file(file_name, contents);
    }
    if let Some(spec) = value.get("spec") {
        unit = unit.with_spec(spec.as_str().ok_or("unit `spec` must be a string")?);
    }
    Ok(unit)
}

/// Builds the success response for one analyzed unit. The embedded
/// `report` and `ndjson` strings come from the exact serializers the
/// CLI's `check` command uses, so daemon and one-shot output never
/// diverge.
pub fn check_response(analyzed: &AnalyzedUnit) -> String {
    obj(vec![
        ("ok", Value::Bool(true)),
        ("unit", s(&analyzed.name)),
        ("cached", Value::Bool(analyzed.from_cache())),
        ("report", s(render_unit_report(analyzed))),
        ("ndjson", s(render_ndjson(analyzed))),
    ])
    .to_string()
}

/// Builds the failure response for a unit whose analysis errored.
pub fn analysis_error_response(err: &PallasError) -> String {
    obj(vec![
        ("ok", Value::Bool(false)),
        ("unit", s(&err.unit)),
        ("kind", s("analysis")),
        ("error", s(err.to_string())),
    ])
    .to_string()
}

/// Builds a generic failure response (protocol errors and the like).
pub fn error_response(message: &str) -> String {
    obj(vec![("ok", Value::Bool(false)), ("error", s(message))]).to_string()
}

/// Builds a kinded failure response (`overload`, `timeout`).
pub fn kinded_error_response(kind: &str, message: &str) -> String {
    obj(vec![("ok", Value::Bool(false)), ("kind", s(kind)), ("error", s(message))]).to_string()
}

/// Builds the batch response: per-unit response objects in request
/// order, each identical to what a lone `check` would have returned.
/// The per-unit lines are spliced in as they are, never re-parsed.
pub fn batch_response(results: &[Result<AnalyzedUnit, PallasError>]) -> String {
    let mut out = String::from("{\"ok\":true,\"results\":[");
    for (i, result) in results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&match result {
            Ok(analyzed) => check_response(analyzed),
            Err(err) => analysis_error_response(err),
        });
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pallas_core::Pallas;

    fn unit() -> SourceUnit {
        SourceUnit::new("mm/demo")
            .with_file("demo.h", "typedef unsigned int gfp_t;\nint noio(gfp_t m);\n")
            .with_file(
                "demo.c",
                "int alloc_fast(gfp_t gfp_mask) {\n  gfp_mask = noio(gfp_mask);\n  return 0;\n}\n",
            )
            .with_spec("fastpath alloc_fast; immutable gfp_mask;")
    }

    #[test]
    fn check_request_roundtrips() {
        let request = Request::Check {
            unit: unit(),
            delay: Some(Duration::from_millis(250)),
            rules: RuleSelection::default(),
        };
        let line = request.to_line();
        assert_eq!(Request::parse(&line).unwrap(), request);
    }

    #[test]
    fn batch_request_roundtrips() {
        let request = Request::Batch {
            units: vec![unit(), unit()],
            delay: None,
            rules: RuleSelection::default(),
        };
        assert_eq!(Request::parse(&request.to_line()).unwrap(), request);
    }

    #[test]
    fn rule_scoped_request_roundtrips() {
        let request = Request::Check {
            unit: unit(),
            delay: None,
            rules: RuleSelection {
                only: vec!["1.2".into(), "4.1".into()],
                disable: vec!["4.1".into()],
            },
        };
        let line = request.to_line();
        assert!(line.contains("only_rules"));
        assert!(line.contains("disable_rules"));
        assert_eq!(Request::parse(&line).unwrap(), request);
    }

    #[test]
    fn default_rule_selection_stays_off_the_wire() {
        let request =
            Request::Check { unit: unit(), delay: None, rules: RuleSelection::default() };
        let line = request.to_line();
        assert!(!line.contains("only_rules"));
        assert!(!line.contains("disable_rules"));
    }

    #[test]
    fn rule_selection_resolves_against_the_registry() {
        let scoped = RuleSelection { only: vec!["1.2".into()], disable: vec![] };
        let set = scoped.resolve().unwrap();
        assert_eq!(set.len(), 1);
        assert!(set.is_enabled(pallas_checkers::Rule::ImmutableOverwrite));
        let bogus = RuleSelection { only: vec!["9.9".into()], disable: vec![] };
        assert!(bogus.resolve().is_err());
        assert!(RuleSelection::default().is_default());
        assert_eq!(RuleSelection::default().resolve().unwrap().len(), 15);
    }

    #[test]
    fn control_requests_roundtrip() {
        for request in [Request::Stats, Request::Trace, Request::Shutdown] {
            assert_eq!(Request::parse(&request.to_line()).unwrap(), request);
        }
    }

    #[test]
    fn parse_rejects_malformed_requests() {
        for bad in [
            "",
            "not json",
            "{}",
            r#"{"op":"teleport"}"#,
            r#"{"op":"check"}"#,
            r#"{"op":"check","unit":{"files":[]}}"#,
            r#"{"op":"batch"}"#,
            r#"{"op":"check","unit":{"name":"u"},"delay_ms":"soon"}"#,
            r#"{"op":"check","unit":{"name":"u"},"only_rules":"1.2"}"#,
            r#"{"op":"check","unit":{"name":"u"},"disable_rules":[42]}"#,
        ] {
            assert!(Request::parse(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn check_response_embeds_cli_serializer_output() {
        let analyzed = Pallas::new().check_unit(&unit()).unwrap();
        let line = check_response(&analyzed);
        let value = json::parse(&line).unwrap();
        assert_eq!(value.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(
            value.get("report").and_then(Value::as_str),
            Some(render_unit_report(&analyzed).as_str())
        );
        assert_eq!(
            value.get("ndjson").and_then(Value::as_str),
            Some(render_ndjson(&analyzed).as_str())
        );
        // Single line: embeddable in the newline-delimited stream.
        assert!(!line.contains('\n'));
    }

    #[test]
    fn batch_response_preserves_order_and_errors() {
        let bad = SourceUnit::new("bad").with_file("b.c", "int f( {").with_spec("");
        let driver = Pallas::new();
        let results = vec![driver.check_unit(&unit()), driver.check_unit(&bad)];
        let line = batch_response(&results);
        let value = json::parse(&line).unwrap();
        let items = value.get("results").and_then(Value::as_arr).unwrap();
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].get("unit").and_then(Value::as_str), Some("mm/demo"));
        assert_eq!(items[1].get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(items[1].get("kind").and_then(Value::as_str), Some("analysis"));

        // The spliced line is byte-identical to parsing every per-unit
        // line into a `Value` and rendering the whole object again.
        let reparsed: Vec<Value> = results
            .iter()
            .map(|r| {
                json::parse(&match r {
                    Ok(analyzed) => check_response(analyzed),
                    Err(err) => analysis_error_response(err),
                })
                .unwrap()
            })
            .collect();
        let rerendered =
            obj(vec![("ok", Value::Bool(true)), ("results", Value::Arr(reparsed))]).to_string();
        assert_eq!(line, rerendered);
        assert_eq!(batch_response(&[]), r#"{"ok":true,"results":[]}"#);
    }

    #[test]
    fn whole_corpus_batch_request_roundtrips() {
        let units: Vec<SourceUnit> = pallas_corpus::new_paths()
            .into_iter()
            .chain(pallas_corpus::studied())
            .chain(pallas_corpus::known_bugs())
            .chain(pallas_corpus::mined_rules())
            .chain(pallas_corpus::infeasible())
            .chain(pallas_corpus::new_bug_examples())
            .map(|cu| cu.unit)
            .collect();
        let request = Request::Batch { units, delay: None, rules: RuleSelection::default() };
        let line = request.to_line();
        assert!(line.len() > 50_000, "corpus line is only {} bytes", line.len());
        assert_eq!(Request::parse(&line).unwrap(), request);
    }
}
