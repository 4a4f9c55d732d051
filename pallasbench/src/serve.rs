//! `serve`: the analysis daemon as CI bots and editors use it, each
//! waiting for every reply. The service layer (poll loop, line framing,
//! JSON, admission, coalescing) and cache eviction do the work; the
//! store is bypassed.
//!
//! The daemon runs in this process (`Server::start_with` on a Unix
//! socket) with two workers and a frontend cache smaller than the
//! working set. One client connection runs a closed loop that keeps
//! `WINDOW` pipelined `check` requests in flight: about four in five
//! repeat a labelled corpus unit, the rest carry a unit generated from
//! the seed that no earlier request carried, so the symbol arena grows
//! as it would under real traffic. Every `TREE_EVERY` requests the
//! client drains its window and sends the whole corpus as one `batch`
//! request, as a CI bot checking a tree does.
//!
//! Every response is checked field by field (`ok`, `unit`, `report`,
//! `ndjson`; `cached` may differ) against a local engine's rendering of
//! the same unit: repeats during the loop, generated units after it.
//! The client decodes every response with `json::parse`, as
//! `Client::request` does, and compares the fields in their escaped
//! form, found by a linear scan of the response line.

use crate::inputs::{labelled, sub_seed, unique_unit, Rng};
use crate::spans::Tracer;
use crate::stats::{median, ratio, rss_mb, us, Windowed};
use crate::{repeated_setup, Args, Outcome};
use pallas_core::engine::fingerprint::Fnv1a;
use pallas_core::{
    json_escape, render_ndjson, render_unit_report, AnalyzedUnit, Engine, EngineConfig, SourceUnit,
};
use pallas_service::json::{self, Value};
use pallas_service::protocol::check_response;
use pallas_service::{Bind, Client, Request, RuleSelection, Server, ServerHandle, ServiceConfig};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Daemon worker threads, one per core of the two-core reference host.
const WORKERS: usize = 2;
/// Frontend cache bound, below the unique working set.
const CACHE: usize = 256;
/// Requests kept in flight on the connection.
const WINDOW: usize = 8;
/// One request in `UNIQUE_EVERY` carries a generated unit.
const UNIQUE_EVERY: usize = 5;
/// Single requests between two whole-corpus `batch` requests.
const TREE_EVERY: u64 = 4000;
/// Requests run during set-up, untimed.
const WARMUP: u64 = 1000;
/// `rss_mb` is read after this many requests (or at the end), so
/// it reflects a fixed volume of generated units.
const RSS_AFTER_REQUESTS: u64 = 40_000;

struct Setup {
    corpus: Vec<SourceUnit>,
    /// Escaped `(unit, report, ndjson)` fields of a local check of
    /// every corpus unit.
    refs: Vec<(String, String, String)>,
    /// The whole corpus as one `batch` request line.
    tree_line: String,
    /// The reply a fresh local engine's results give for `tree_line`.
    tree_reply: String,
    handle: ServerHandle,
    client: Client,
}

/// The escaped `unit`, `report` and `ndjson` fields of the daemon's
/// response for an analysed unit.
fn expected_fields(a: &AnalyzedUnit) -> (String, String, String) {
    (
        json_escape(&a.name),
        json_escape(&render_unit_report(a)),
        json_escape(&render_ndjson(a)),
    )
}

/// The daemon's reply to a `batch` request whose units analyse to `results`.
fn batch_reply(results: &[AnalyzedUnit]) -> String {
    let items: Vec<String> = results.iter().map(check_response).collect();
    format!("{{\"ok\":true,\"results\":[{}]}}", items.join(","))
}

fn digest(name: &str, report: &str, ndjson: &str) -> u64 {
    let mut h = Fnv1a::new();
    for field in [name, report, ndjson] {
        h.write_field(field.as_bytes());
    }
    h.finish()
}

fn setup(args: &Args) -> Result<Setup, String> {
    let corpus = labelled().units;
    let local = Engine::new();
    let analyzed = corpus
        .iter()
        .map(|u| local.check_unit(u))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let refs = analyzed.iter().map(expected_fields).collect();
    let tree_reply = batch_reply(&analyzed);
    let tree_line = Request::Batch {
        units: corpus.clone(),
        delay: None,
        rules: RuleSelection::default(),
    }
    .to_line();
    let socket = args.run_dir.join("serve.sock");
    let config = ServiceConfig {
        workers: WORKERS,
        engine: EngineConfig {
            cache_capacity: CACHE,
            ..EngineConfig::default()
        },
        ..ServiceConfig::default()
    };
    let handle = Server::start_with(Bind::unix(&socket), config)
        .map_err(|e| format!("daemon start: {e}"))?;
    let client = Client::connect(&socket).map_err(|e| format!("connect: {e}"))?;
    let mut st = Setup {
        corpus,
        refs,
        tree_line,
        tree_reply,
        handle,
        client,
    };
    let mut warm = Outcome::default();
    let mut quiet = Tracer::new(false);
    drive(
        &mut st,
        &mut quiet,
        sub_seed(args.seed, 3),
        Until::Requests(WARMUP),
        &mut warm,
    )?;
    tree(&mut st, &mut Measured::default(), &mut warm)?;
    if warm.failed > 0 {
        return Err("warm-up requests failed".into());
    }
    Ok(st)
}

fn teardown(st: Setup) {
    drop(st.client);
    st.handle.stop();
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let (mut st, setup_s) = repeated_setup(|| setup(args), teardown)?;
    let mut out = Outcome::default();
    let mut tr = Tracer::new(args.trace);
    let engine_before = st.handle.engine().stats();
    let service_before = ServiceSnapshot::take(&st.handle);
    let arena_before = pallas_sym::arena_node_count();
    let m = drive(
        &mut st,
        &mut tr,
        sub_seed(args.seed, 4),
        Until::Elapsed(args.seconds),
        &mut out,
    )?;
    let engine_after = st.handle.engine().stats();
    let service = ServiceSnapshot::take(&st.handle).minus(&service_before);
    let arena_grown = pallas_sym::arena_node_count() - arena_before;
    teardown(st);
    verify_unique(args.seed, &m.unique_digests, &mut out);
    // A finished computation no client was waiting for lost a response.
    out.failed += service.dropped;
    eprintln!(
        "serve: {} requests ({} generated) in {:.2}s, {} batch requests; {} coalesced, {} rejected",
        m.latencies.count(),
        m.unique_latencies.count(),
        m.wall.as_secs_f64(),
        m.trees.len(),
        service.coalesced,
        service.rejected
    );
    let (mut lat, mut uniq, mut trees) = (m.latencies, m.unique_latencies, m.trees);
    let singles = lat.count() as f64;
    if !args.trace {
        out.set("ops_per_s", singles / m.wall.as_secs_f64());
        out.set("p50_us", lat.quantile(0.5));
        crate::print_tail("serve", &mut lat);
        out.set("miss_p50_us", uniq.quantile(0.5));
        out.set("tree_ms", median(&mut trees));
        out.set("rss_mb", m.rss);
        out.set("setup_s", setup_s);
        return Ok(out);
    }
    let checks = (engine_after.units_checked - engine_before.units_checked) as f64;
    let stage_us = |i: usize| {
        (engine_after.stage_nanos[i] - engine_before.stage_nanos[i]) as f64 / 1e3 / checks
    };
    out.set("merge.us", stage_us(0));
    out.set("lang.parse_us", stage_us(1));
    out.set("spec.parse_us", stage_us(2));
    out.set("sym.extract_us", stage_us(3));
    out.set("checkers.total_us", stage_us(4));
    let warnings = |s: &pallas_core::EngineStats| s.rule_warnings.iter().sum::<u64>();
    out.set(
        "checkers.warnings",
        (warnings(&engine_after) - warnings(&engine_before)) as f64 / checks,
    );
    let hits = (engine_after.cache_hits - engine_before.cache_hits) as f64;
    let misses = (engine_after.cache_misses - engine_before.cache_misses) as f64;
    out.set("engine.cache_hit_ratio", ratio(hits, hits + misses));
    out.set(
        "engine.cache_evictions",
        (engine_after.cache_evictions - engine_before.cache_evictions) as f64,
    );
    out.set("sym.arena_nodes_per_unit", arena_grown as f64 / checks);
    out.set(
        "sym.interned_strings",
        pallas_sym::Istr::interned_count() as f64,
    );
    let latency = lat.mean();
    let execute = ratio(service.execute_sum_us, service.execute_count);
    out.set("service.encode_us", tr.self_us("service.encode") / singles);
    out.set("service.decode_us", tr.self_us("service.decode") / singles);
    out.set("service.latency_us", latency);
    out.set(
        "service.queue_wait_us",
        ratio(service.queue_sum_us, service.queue_count),
    );
    out.set("service.execute_us", execute);
    out.set("service.overhead_us", latency - execute);
    out.set("service.coalesced", service.coalesced as f64);
    out.set("service.rejected", service.rejected as f64);
    out.set("service.timed_out", service.timed_out as f64);
    out.set("service.dropped", service.dropped as f64);
    crate::write_spans(args, &tr)?;
    Ok(out)
}

/// Daemon counters and histogram sums at one instant.
#[derive(Default)]
struct ServiceSnapshot {
    coalesced: u64,
    rejected: u64,
    timed_out: u64,
    dropped: u64,
    queue_count: f64,
    queue_sum_us: f64,
    execute_count: f64,
    execute_sum_us: f64,
}

impl ServiceSnapshot {
    fn take(handle: &ServerHandle) -> ServiceSnapshot {
        use std::sync::atomic::Ordering::Relaxed;
        let m = handle.metrics();
        let sum = |h: &pallas_service::Histogram| {
            h.to_json()
                .get("sum_us")
                .and_then(Value::as_u64)
                .unwrap_or(0) as f64
        };
        ServiceSnapshot {
            coalesced: m.coalesced_hits.load(Relaxed),
            rejected: m.rejected_overload.load(Relaxed),
            timed_out: m.timed_out.load(Relaxed),
            dropped: m.dropped_completions.load(Relaxed),
            queue_count: m.queue_wait.count() as f64,
            queue_sum_us: sum(&m.queue_wait),
            execute_count: m.execute_latency.count() as f64,
            execute_sum_us: sum(&m.execute_latency),
        }
    }

    fn minus(&self, before: &ServiceSnapshot) -> ServiceSnapshot {
        ServiceSnapshot {
            coalesced: self.coalesced - before.coalesced,
            rejected: self.rejected - before.rejected,
            timed_out: self.timed_out - before.timed_out,
            dropped: self.dropped - before.dropped,
            queue_count: self.queue_count - before.queue_count,
            queue_sum_us: self.queue_sum_us - before.queue_sum_us,
            execute_count: self.execute_count - before.execute_count,
            execute_sum_us: self.execute_sum_us - before.execute_sum_us,
        }
    }
}

enum Until {
    Requests(u64),
    Elapsed(Duration),
}

/// What the closed loop measured.
#[derive(Default)]
struct Measured {
    /// Send-to-response latency of every single request, in µs.
    latencies: Windowed,
    /// The same, for requests carrying a generated unit.
    unique_latencies: Windowed,
    /// `(n, digest of report and ndjson)` per generated-unit response.
    unique_digests: Vec<(u64, u64)>,
    /// Latency of every whole-corpus `batch` request, in ms.
    trees: Vec<f64>,
    /// Wall time spent on single requests (batch requests excluded).
    wall: Duration,
    /// `rss_mb` after `RSS_AFTER_REQUESTS` requests, or at the end.
    rss: f64,
}

enum Kind {
    Repeat(usize),
    Unique(u64),
}

/// Runs the closed request loop on `st.client` until `until`.
fn drive(
    st: &mut Setup,
    tr: &mut Tracer,
    seed: u64,
    until: Until,
    out: &mut Outcome,
) -> Result<Measured, String> {
    let io = |e: std::io::Error| format!("daemon connection: {e}");
    let mut rng = Rng::new(seed);
    let mut m = Measured::default();
    let mut inflight: VecDeque<(Instant, Kind, u64)> = VecDeque::with_capacity(WINDOW);
    let (mut sent, mut next_unique, mut since_tree) = (0u64, 0u64, 0u64);
    let started = Instant::now();
    let mut segment = started;
    loop {
        let stop = match until {
            Until::Requests(n) => sent >= n,
            Until::Elapsed(d) => started.elapsed() >= d,
        };
        while !stop && since_tree < TREE_EVERY && inflight.len() < WINDOW {
            let kind = if rng.below(UNIQUE_EVERY) == 0 {
                next_unique += 1;
                Kind::Unique(next_unique - 1)
            } else {
                Kind::Repeat(rng.below(st.corpus.len()))
            };
            let unit = match kind {
                Kind::Repeat(i) => st.corpus[i].clone(),
                Kind::Unique(n) => unique_unit(seed, n),
            };
            let request = Request::Check {
                unit,
                delay: None,
                rules: RuleSelection::default(),
            };
            let line = tr.scope("service.encode", sent, |_| request.to_line());
            let at = Instant::now();
            st.client.send_line(&line).map_err(io)?;
            inflight.push_back((at, kind, sent));
            sent += 1;
            since_tree += 1;
        }
        let Some((at, kind, id)) = inflight.pop_front() else {
            if stop {
                break;
            }
            // The window is drained: time for a whole-corpus request.
            m.wall += segment.elapsed();
            tree(st, &mut m, out)?;
            since_tree = 0;
            segment = Instant::now();
            continue;
        };
        let response = st.client.read_response().map_err(io)?;
        let done = Instant::now();
        tr.record("request", id, at, done);
        let latency = us(done - at);
        m.latencies.push(latency);
        out.attempted += 1;
        // Decode every response, as `Client::request` does; the fields
        // are then checked in their escaped form.
        tr.scope("service.decode", id, |_| {
            std::hint::black_box(json::parse(&response))
        })
        .map_err(|e| format!("malformed response: {e}"))?;
        let Some((name, report, ndjson)) = checked_fields(&response, out) else {
            continue;
        };
        match kind {
            Kind::Repeat(i) => {
                let (want_name, want_report, want_ndjson) = &st.refs[i];
                if (name, report, ndjson) != (want_name, want_report, want_ndjson) {
                    out.mismatch(format!(
                        "{}: daemon response differs from a local check",
                        st.corpus[i].name
                    ));
                }
            }
            Kind::Unique(n) => {
                m.unique_latencies.push(latency);
                m.unique_digests.push((n, digest(name, report, ndjson)));
            }
        }
        if m.rss == 0.0 && m.latencies.count() >= RSS_AFTER_REQUESTS {
            m.rss = rss_mb()?;
        }
    }
    m.wall += segment.elapsed();
    if m.rss == 0.0 {
        m.rss = rss_mb()?;
    }
    Ok(m)
}

/// Checks a response's status. Returns its escaped `unit`, `report`
/// and `ndjson` fields when it succeeded; counts it as failed otherwise
/// (overload and timeout as failures, anything else as a wrong output).
fn checked_fields<'a>(line: &'a str, out: &mut Outcome) -> Option<(&'a str, &'a str, &'a str)> {
    if !line.contains("\"ok\":true") {
        match raw_field(line, "kind") {
            Some("overload" | "timeout") => out.failed += 1,
            _ => out.mismatch(format!("daemon error: {line}")),
        }
        return None;
    }
    match (
        raw_field(line, "unit"),
        raw_field(line, "report"),
        raw_field(line, "ndjson"),
    ) {
        (Some(u), Some(r), Some(n)) => Some((u, r, n)),
        _ => {
            out.mismatch(format!("response lacks unit/report/ndjson: {line}"));
            None
        }
    }
}

/// The escaped text of top-level string field `key` in the one-line
/// JSON object `line`. Quotes inside string values are escaped, so the
/// `"key":"` pattern only matches a key, and the value ends at the first
/// unescaped quote.
fn raw_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pattern = format!("\"{key}\":\"");
    let start = line.find(&pattern)? + pattern.len();
    let bytes = line.as_bytes();
    let mut i = start;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return Some(&line[start..i]),
            _ => i += 1,
        }
    }
    None
}

/// Sends the whole corpus as one `batch` request and checks the reply
/// against the local rendering of every unit. The reply is compared as
/// one line with each `cached` flag normalized rather than parsed: the
/// quoted report and NDJSON strings escape their quotes, so the flag
/// pattern can only match the flags themselves.
fn tree(st: &mut Setup, m: &mut Measured, out: &mut Outcome) -> Result<(), String> {
    let at = Instant::now();
    let response = st
        .client
        .request_line(&st.tree_line)
        .map_err(|e| format!("batch request: {e}"))?;
    m.trees.push(us(at.elapsed()) / 1e3);
    out.attempted += 1;
    if response.replace(CACHED, UNCACHED) != st.tree_reply {
        out.mismatch("whole-corpus batch reply differs from a local check of every unit");
    }
    Ok(())
}

const CACHED: &str = "\"cached\":true";
const UNCACHED: &str = "\"cached\":false";

/// Re-checks every generated unit locally after the loop and compares
/// the digests of its report and NDJSON with the daemon's.
fn verify_unique(seed: u64, digests: &[(u64, u64)], out: &mut Outcome) {
    let local = Engine::with_engine_config(EngineConfig {
        cache_capacity: 0,
        ..EngineConfig::default()
    });
    let stream = sub_seed(seed, 4);
    for &(n, got) in digests {
        match local.check_unit(&unique_unit(stream, n)) {
            Ok(a)
                if {
                    let (name, report, ndjson) = expected_fields(&a);
                    digest(&name, &report, &ndjson) == got
                } => {}
            _ => out.mismatch(format!(
                "generated unit {n}: daemon response differs from a local check"
            )),
        }
    }
}
