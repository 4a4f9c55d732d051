//! End-to-end tests: a real daemon on temp sockets (Unix and TCP),
//! driven through real protocol clients — the transport matrix,
//! request coalescing, pipelined ordering, and protocol-robustness
//! batteries all live here.

use pallas_core::{render_ndjson, render_unit_report, EngineConfig, Pallas, SourceUnit};
use pallas_service::{
    Bind, Client, Request, RuleSelection, Server, ServiceConfig, Value,
};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// A unique socket path per test (parallel test threads must not
/// collide, and UDS paths must stay short).
fn socket_path(tag: &str) -> std::path::PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("pallas-{}-{tag}-{n}.sock", std::process::id()))
}

fn demo_unit(i: usize) -> SourceUnit {
    SourceUnit::new(format!("mm/demo{i}"))
        .with_file("demo.h", "typedef unsigned int gfp_t;\nint noio(gfp_t m);\n")
        .with_file(
            "demo.c",
            format!(
                "int alloc_fast{i}(gfp_t gfp_mask) {{\n  gfp_mask = noio(gfp_mask);\n  return 0;\n}}\n"
            ),
        )
        .with_spec(format!("fastpath alloc_fast{i}; immutable gfp_mask;"))
}

fn ok(v: &Value) -> bool {
    v.get("ok").and_then(Value::as_bool) == Some(true)
}

fn stat(v: &Value, section: &str, field: &str) -> u64 {
    v.get("stats")
        .and_then(|s| s.get(section))
        .and_then(|s| s.get(field))
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("missing stats.{section}.{field} in {v}"))
}

#[test]
fn warm_requests_hit_the_shared_cache_and_match_one_shot_output() {
    let path = socket_path("warm");
    let handle = Server::start(&path, ServiceConfig::default()).unwrap();
    let unit = demo_unit(0);
    // What the one-shot CLI path produces for this unit.
    let one_shot = Pallas::new().check_unit(&unit).unwrap();
    let expected_report = render_unit_report(&one_shot);
    let expected_ndjson = render_ndjson(&one_shot);

    let mut client = Client::connect(&path).unwrap();
    let cold = client.check(&unit).unwrap();
    assert!(ok(&cold), "{cold}");
    assert_eq!(cold.get("cached").and_then(Value::as_bool), Some(false));
    assert_eq!(cold.get("report").and_then(Value::as_str), Some(expected_report.as_str()));
    assert_eq!(cold.get("ndjson").and_then(Value::as_str), Some(expected_ndjson.as_str()));

    // Second wave, new connection: same engine, warm cache.
    let mut second = Client::connect(&path).unwrap();
    let warm = second.check(&unit).unwrap();
    assert_eq!(warm.get("cached").and_then(Value::as_bool), Some(true));
    assert_eq!(warm.get("report"), cold.get("report"), "warm report must be byte-identical");
    assert_eq!(warm.get("ndjson"), cold.get("ndjson"));

    let stats = second.stats().unwrap();
    assert!(ok(&stats), "{stats}");
    assert_eq!(stat(&stats, "engine", "cache_hits"), 1, "{stats}");
    let check_runs = stats
        .get("stats")
        .and_then(|s| s.get("engine"))
        .and_then(|s| s.get("stage_runs"))
        .and_then(|s| s.get("check"))
        .and_then(Value::as_u64);
    assert_eq!(check_runs, Some(1), "the warm request runs no Check: {stats}");
    assert_eq!(stat(&stats, "service", "completed"), 2);
    assert!(stat(&stats, "request_latency", "count") >= 2);

    assert!(ok(&second.shutdown().unwrap()));
    let summary = handle.wait();
    assert!(summary.contains("hit(s)"), "{summary}");
}

#[test]
fn concurrent_clients_all_get_correct_ordered_responses() {
    let path = socket_path("conc");
    let handle = Server::start(
        &path,
        ServiceConfig { workers: 4, ..ServiceConfig::default() },
    )
    .unwrap();
    let threads: Vec<_> = (0..6)
        .map(|i| {
            let path = path.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&path).unwrap();
                // Each client issues two rounds over its own units.
                for _round in 0..2 {
                    for j in 0..3 {
                        let unit = demo_unit(i * 10 + j);
                        let response = client.check(&unit).unwrap();
                        assert!(ok(&response), "{response}");
                        assert_eq!(
                            response.get("unit").and_then(Value::as_str),
                            Some(unit.name.as_str()),
                            "responses must pair with their requests in order"
                        );
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let stats = handle.engine().stats();
    assert_eq!(stats.units_checked, 36);
    assert_eq!(stats.cache_misses, 18, "18 distinct units");
    assert_eq!(stats.cache_hits, 18, "second round fully cached");
    handle.stop();
}

#[test]
fn batch_requests_flow_through_the_work_stealing_pool() {
    let path = socket_path("batch");
    let handle = Server::start(
        &path,
        ServiceConfig { workers: 3, ..ServiceConfig::default() },
    )
    .unwrap();
    let units: Vec<SourceUnit> = (0..8).map(demo_unit).collect();
    let mut client = Client::connect(&path).unwrap();
    let response = client.batch(&units).unwrap();
    assert!(ok(&response), "{response}");
    let results = response.get("results").and_then(Value::as_arr).unwrap();
    assert_eq!(results.len(), 8);
    for (i, item) in results.iter().enumerate() {
        assert_eq!(
            item.get("unit").and_then(Value::as_str),
            Some(units[i].name.as_str()),
            "batch results preserve request order"
        );
    }
    handle.stop();
}

#[test]
fn over_queue_depth_burst_gets_explicit_overload_rejections() {
    let path = socket_path("load");
    // One worker, queue of one: a burst of slow requests must shed
    // load instead of hanging.
    let handle = Server::start(
        &path,
        ServiceConfig {
            workers: 1,
            queue_depth: 1,
            timeout: Duration::from_secs(10),
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    // Distinct units per request: identical ones would coalesce into
    // a single computation and never pressure the queue.
    let burst = 6;
    let threads: Vec<_> = (0..burst)
        .map(|i| {
            let path = path.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&path).unwrap();
                client.check_delayed(&demo_unit(i), Duration::from_millis(300)).unwrap()
            })
        })
        .collect();
    let responses: Vec<Value> = threads.into_iter().map(|t| t.join().unwrap()).collect();
    let overloaded = responses
        .iter()
        .filter(|r| r.get("kind").and_then(Value::as_str) == Some("overload"))
        .count();
    let succeeded = responses.iter().filter(|r| ok(r)).count();
    assert!(succeeded >= 1, "at least the running request completes: {responses:?}");
    assert!(overloaded >= 1, "the burst must overflow the 1-deep queue: {responses:?}");
    assert_eq!(succeeded + overloaded, burst, "every request got an explicit answer");
    for r in &responses {
        if !ok(r) {
            let msg = r.get("error").and_then(Value::as_str).unwrap();
            assert!(msg.contains("overloaded"), "{msg}");
        }
    }
    let mut client = Client::connect(&path).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stat(&stats, "service", "rejected_overload") as usize, overloaded);
    handle.stop();
}

#[test]
fn timed_out_request_errors_while_daemon_keeps_serving() {
    let path = socket_path("timeout");
    let handle = Server::start(
        &path,
        ServiceConfig {
            workers: 1,
            timeout: Duration::from_millis(100),
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(&path).unwrap();
    // Deliberately slow: stalls well past the 100ms budget.
    let slow = client.check_delayed(&demo_unit(0), Duration::from_millis(600)).unwrap();
    assert_eq!(slow.get("ok").and_then(Value::as_bool), Some(false), "{slow}");
    assert_eq!(slow.get("kind").and_then(Value::as_str), Some("timeout"), "{slow}");
    assert!(
        slow.get("error").and_then(Value::as_str).unwrap().contains("100ms"),
        "{slow}"
    );
    // The engine call itself cannot be interrupted, so the lone
    // worker stays busy until the stalled job finishes; once it
    // drains, the daemon serves the next request normally.
    std::thread::sleep(Duration::from_millis(600));
    let fine = client.check(&demo_unit(1)).unwrap();
    assert!(ok(&fine), "{fine}");
    let stats = client.stats().unwrap();
    assert_eq!(stat(&stats, "service", "timed_out"), 1);
    handle.stop();
}

#[test]
fn bounded_cache_keeps_daemon_memory_flat_across_many_distinct_units() {
    let path = socket_path("bound");
    let capacity = 8;
    let handle = Server::start(
        &path,
        ServiceConfig {
            engine: EngineConfig { cache_capacity: capacity, ..EngineConfig::default() },
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(&path).unwrap();
    for i in 0..capacity * 3 {
        assert!(ok(&client.check(&demo_unit(i)).unwrap()));
        assert!(handle.engine().cached_frontends() <= capacity);
    }
    let stats = client.stats().unwrap();
    assert_eq!(stat(&stats, "engine", "cached_frontends"), capacity as u64);
    assert_eq!(stat(&stats, "engine", "cache_evictions"), (capacity * 2) as u64);
    handle.stop();
}

#[test]
fn malformed_and_failing_requests_answer_without_killing_the_connection() {
    let path = socket_path("err");
    let handle = Server::start(&path, ServiceConfig::default()).unwrap();
    let mut client = Client::connect(&path).unwrap();

    let garbage = client.request_line("this is not json").unwrap();
    assert!(garbage.contains("\"ok\":false"), "{garbage}");
    assert!(garbage.contains("malformed request"), "{garbage}");

    let unknown = client.request_line(r#"{"op":"teleport"}"#).unwrap();
    assert!(unknown.contains("unknown op"), "{unknown}");

    // A unit whose source fails to parse: an analysis error, not a
    // dead daemon.
    let bad = SourceUnit::new("bad").with_file("b.c", "int f( {").with_spec("");
    let response = client.check(&bad).unwrap();
    assert_eq!(response.get("ok").and_then(Value::as_bool), Some(false));
    assert_eq!(response.get("kind").and_then(Value::as_str), Some("analysis"));

    // Connection still works afterwards.
    assert!(ok(&client.check(&demo_unit(0)).unwrap()));
    let stats = client.stats().unwrap();
    assert_eq!(stat(&stats, "service", "protocol_errors"), 2);
    assert_eq!(stat(&stats, "service", "failed"), 1);
    handle.stop();
}

#[test]
fn rule_scoped_requests_share_the_daemon_without_leaking_across_scopes() {
    let path = socket_path("rules");
    let handle = Server::start(&path, ServiceConfig::default()).unwrap();
    let mut client = Client::connect(&path).unwrap();
    let unit = demo_unit(0);

    // Full run: the demo unit violates Rule 1.2 (immutable overwrite).
    let full = client.check(&unit).unwrap();
    assert!(ok(&full));
    let full_report = full.get("report").and_then(Value::as_str).unwrap().to_string();
    assert!(full_report.contains("Rule 1.2"), "{full_report}");

    // Disabling 1.2 for one request removes its warning...
    let scoped = client
        .check_with_rules(
            &unit,
            pallas_service::RuleSelection { only: vec![], disable: vec!["1.2".into()] },
        )
        .unwrap();
    assert!(ok(&scoped));
    let scoped_report = scoped.get("report").and_then(Value::as_str).unwrap();
    assert!(!scoped_report.contains("Rule 1.2"), "{scoped_report}");
    // ...and the scoped request built its own frontend entry (the
    // selection is part of the cache key), so it was not served the
    // full-run artifacts.
    assert_eq!(scoped.get("cached").and_then(Value::as_bool), Some(false));

    // The default scope is untouched: a repeat full check still warns
    // and hits the warm cache.
    let again = client.check(&unit).unwrap();
    assert!(ok(&again));
    assert_eq!(again.get("report").and_then(Value::as_str), Some(full_report.as_str()));
    assert_eq!(again.get("cached").and_then(Value::as_bool), Some(true));

    // An unknown rule name is a protocol-level error, not a crash.
    let bad = client
        .check_with_rules(
            &unit,
            pallas_service::RuleSelection { only: vec!["9.9".into()], disable: vec![] },
        )
        .unwrap();
    assert!(!ok(&bad));
    assert!(
        bad.get("error").and_then(Value::as_str).unwrap().contains("unknown rule"),
        "{bad}"
    );
    handle.stop();
}

#[test]
fn shutdown_request_drains_and_wait_returns_summary() {
    let path = socket_path("drain");
    let handle = Server::start(
        &path,
        ServiceConfig { workers: 2, ..ServiceConfig::default() },
    )
    .unwrap();
    let mut client = Client::connect(&path).unwrap();
    assert!(ok(&client.check(&demo_unit(0)).unwrap()));
    assert!(ok(&client.shutdown().unwrap()));
    let summary = handle.wait();
    assert!(summary.contains("served"), "{summary}");
    assert!(!path.exists(), "socket file removed on shutdown");
    // New connections are refused after shutdown.
    assert!(Client::connect(&path).is_err());
}

fn check_line(unit: &SourceUnit, delay: Option<Duration>) -> String {
    Request::Check { unit: unit.clone(), delay, rules: RuleSelection::default() }.to_line()
}

#[test]
fn tcp_and_unix_transports_return_byte_identical_responses() {
    let path = socket_path("tcp");
    let handle = Server::start_with(
        Bind::unix(&path).with_tcp("127.0.0.1:0"),
        ServiceConfig::default(),
    )
    .unwrap();
    let addr = handle.tcp_addr().expect("tcp listener bound");
    let unit = demo_unit(0);
    // Local one-shot analysis is the ground truth for both transports.
    let one_shot = Pallas::new().check_unit(&unit).unwrap();
    let expected_report = render_unit_report(&one_shot);
    let expected_ndjson = render_ndjson(&one_shot);

    let mut unix = Client::connect(&path).unwrap();
    let mut tcp = Client::connect_tcp(addr).unwrap();
    let via_unix = unix.check(&unit).unwrap();
    let via_tcp = tcp.check(&unit).unwrap();
    assert!(ok(&via_unix), "{via_unix}");
    assert!(ok(&via_tcp), "{via_tcp}");
    assert_eq!(
        via_unix.get("report").and_then(Value::as_str),
        Some(expected_report.as_str()),
        "unix response matches local check"
    );
    assert_eq!(
        via_unix.get("ndjson").and_then(Value::as_str),
        Some(expected_ndjson.as_str())
    );
    assert_eq!(via_tcp.get("report"), via_unix.get("report"), "transports agree byte-for-byte");
    assert_eq!(via_tcp.get("ndjson"), via_unix.get("ndjson"));

    let stats = tcp.stats().unwrap();
    assert_eq!(stat(&stats, "service", "unix_connections"), 1, "{stats}");
    assert_eq!(stat(&stats, "service", "tcp_connections"), 1, "{stats}");
    handle.stop();
}

#[test]
fn concurrent_identical_checks_coalesce_into_one_compute() {
    let path = socket_path("coal");
    let handle = Server::start(
        &path,
        ServiceConfig { workers: 4, ..ServiceConfig::default() },
    )
    .unwrap();
    // Eight clients fire the same fingerprint at the same instant;
    // the artificial delay keeps the leader's computation in flight
    // long enough that every other request must ride it.
    let clients = 8;
    let barrier = Arc::new(Barrier::new(clients));
    let threads: Vec<_> = (0..clients)
        .map(|_| {
            let path = path.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = Client::connect(&path).unwrap();
                barrier.wait();
                client
                    .request_line(&check_line(&demo_unit(0), Some(Duration::from_millis(500))))
                    .unwrap()
            })
        })
        .collect();
    let responses: Vec<String> = threads.into_iter().map(|t| t.join().unwrap()).collect();
    for response in &responses {
        assert!(
            response.contains("\"ok\":true"),
            "every coalesced waiter succeeds: {response}"
        );
        assert_eq!(
            response, &responses[0],
            "all coalesced responses are byte-identical"
        );
    }
    let engine = handle.engine().stats();
    assert_eq!(engine.units_checked, 1, "exactly one engine compute for the burst");
    assert_eq!(engine.cache_misses, 1);
    let mut client = Client::connect(&path).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(
        stat(&stats, "service", "coalesced_hits") as usize,
        clients - 1,
        "{stats}"
    );
    assert_eq!(stat(&stats, "service", "completed"), 1, "{stats}");
    assert_eq!(
        stat(&stats, "request_latency", "count") as usize,
        clients,
        "every waiter's latency is recorded: {stats}"
    );
    handle.stop();
}

#[test]
fn pipelined_mixed_burst_preserves_request_order() {
    let path = socket_path("order");
    let handle = Server::start(
        &path,
        ServiceConfig { workers: 4, ..ServiceConfig::default() },
    )
    .unwrap();
    let mut client = Client::connect(&path).unwrap();
    // A slow unique check, a fast unique one, a duplicate of the slow
    // one (coalesces with request 0), an inline stats, and another
    // fast unique. Requests 1/3/4 finish long before 0 and 2, but the
    // responses must come back in request order.
    let slow = demo_unit(50);
    let delay = Some(Duration::from_millis(400));
    let lines = vec![
        check_line(&slow, delay),
        check_line(&demo_unit(51), None),
        check_line(&slow, delay),
        Request::Stats.to_line(),
        check_line(&demo_unit(52), None),
    ];
    let responses = client.pipeline(&lines).unwrap();
    assert_eq!(responses.len(), lines.len());
    let unit_of = |r: &str| {
        pallas_service::json::parse(r)
            .unwrap()
            .get("unit")
            .and_then(Value::as_str)
            .map(str::to_string)
    };
    assert_eq!(unit_of(&responses[0]).as_deref(), Some("mm/demo50"));
    assert_eq!(unit_of(&responses[1]).as_deref(), Some("mm/demo51"));
    assert_eq!(unit_of(&responses[2]).as_deref(), Some("mm/demo50"));
    assert!(responses[3].contains("\"stats\""), "slot 3 is the stats response");
    assert_eq!(unit_of(&responses[4]).as_deref(), Some("mm/demo52"));
    assert_eq!(
        responses[0], responses[2],
        "the duplicate rides the same computation and gets the same bytes"
    );
    let stats = client.stats().unwrap();
    assert_eq!(stat(&stats, "service", "coalesced_hits"), 1, "{stats}");
    handle.stop();
}

#[test]
fn slow_loris_partial_line_does_not_block_other_clients() {
    let path = socket_path("loris");
    let handle = Server::start(&path, ServiceConfig::default()).unwrap();
    // The loris dribbles half a request and stalls mid-line.
    let mut loris = UnixStream::connect(&path).unwrap();
    let line = check_line(&demo_unit(0), None);
    let (head, tail) = line.as_bytes().split_at(line.len() / 2);
    loris.write_all(head).unwrap();
    loris.flush().unwrap();

    // Other connections are served normally while the loris stalls.
    let mut client = Client::connect(&path).unwrap();
    for i in 1..4 {
        let response = client.check(&demo_unit(i)).unwrap();
        assert!(ok(&response), "{response}");
    }

    // The loris eventually completes its line and still gets the
    // right answer — a stalled frame is patience, not an error.
    std::thread::sleep(Duration::from_millis(50));
    loris.write_all(tail).unwrap();
    loris.write_all(b"\n").unwrap();
    loris.flush().unwrap();
    let mut reader = BufReader::new(loris);
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    let parsed = pallas_service::json::parse(response.trim_end()).unwrap();
    assert!(ok(&parsed), "{parsed}");
    assert_eq!(parsed.get("unit").and_then(Value::as_str), Some("mm/demo0"));
    let stats = client.stats().unwrap();
    assert_eq!(stat(&stats, "service", "protocol_errors"), 0, "{stats}");
    handle.stop();
}

#[test]
fn oversized_request_line_gets_clean_error_and_connection_survives() {
    let path = socket_path("oversz");
    let handle = Server::start(
        &path,
        ServiceConfig { max_line_bytes: 4096, ..ServiceConfig::default() },
    )
    .unwrap();
    let mut client = Client::connect(&path).unwrap();
    let huge = format!(r#"{{"op":"check","pad":"{}"}}"#, "x".repeat(64 * 1024));
    let response = client.request_line(&huge).unwrap();
    let parsed = pallas_service::json::parse(&response).unwrap();
    assert!(!ok(&parsed), "{parsed}");
    assert_eq!(parsed.get("kind").and_then(Value::as_str), Some("protocol"), "{parsed}");
    assert!(
        parsed.get("error").and_then(Value::as_str).unwrap().contains("4096"),
        "the error names the limit: {parsed}"
    );
    // Framing recovered: the same connection serves normal requests.
    let fine = client.check(&demo_unit(0)).unwrap();
    assert!(ok(&fine), "{fine}");
    let stats = client.stats().unwrap();
    assert_eq!(stat(&stats, "service", "protocol_errors"), 1, "{stats}");
    handle.stop();
}

#[test]
fn hostile_json_lines_get_clean_errors_and_connection_survives() {
    let path = socket_path("hostile");
    let handle = Server::start(&path, ServiceConfig::default()).unwrap();
    let mut client = Client::connect(&path).unwrap();
    // Far deeper than the parser's recursion could survive unbounded.
    let deep = client.request_line(&"[".repeat(200_000)).unwrap();
    let parsed = pallas_service::json::parse(&deep).unwrap();
    assert!(!ok(&parsed), "{parsed}");
    assert!(deep.contains("nesting deeper than"), "{deep}");
    // A high surrogate followed by an escape that is not a low one.
    let surrogate = client.request_line(r#"{"op":"\ud83d\u0041"}"#).unwrap();
    assert!(surrogate.contains("unknown op `\u{FFFD}A`"), "{surrogate}");
    let fine = client.check(&demo_unit(0)).unwrap();
    assert!(ok(&fine), "{fine}");
    let stats = client.stats().unwrap();
    assert_eq!(stat(&stats, "service", "protocol_errors"), 2, "{stats}");
    handle.stop();
}

#[test]
fn mid_request_disconnect_leaves_daemon_serving_others() {
    let path = socket_path("discon");
    let handle = Server::start(
        &path,
        ServiceConfig { workers: 2, ..ServiceConfig::default() },
    )
    .unwrap();
    // A connection that dies mid-line: no newline ever arrives, so no
    // request exists — the fragment is discarded silently.
    {
        let mut dropper = UnixStream::connect(&path).unwrap();
        dropper.write_all(br#"{"op":"check","uni"#).unwrap();
        dropper.flush().unwrap();
    }
    // A connection that submits a slow request, then vanishes before
    // the answer: the computation's result has nowhere to go, and the
    // daemon must shrug it off.
    {
        let mut dropper = UnixStream::connect(&path).unwrap();
        let line = check_line(&demo_unit(90), Some(Duration::from_millis(200)));
        dropper.write_all(line.as_bytes()).unwrap();
        dropper.write_all(b"\n").unwrap();
        dropper.flush().unwrap();
        std::thread::sleep(Duration::from_millis(50)); // let it get admitted
    }
    // Every other connection keeps working through it all.
    let mut client = Client::connect(&path).unwrap();
    for i in 0..3 {
        let response = client.check(&demo_unit(i)).unwrap();
        assert!(ok(&response), "{response}");
    }
    std::thread::sleep(Duration::from_millis(300)); // orphan job finishes into the void
    let stats = client.stats().unwrap();
    assert_eq!(
        stat(&stats, "service", "protocol_errors"),
        0,
        "a partial line at EOF is not a protocol error: {stats}"
    );
    assert!(ok(&client.check(&demo_unit(4)).unwrap()));
    handle.stop();
}

#[test]
fn restarted_daemon_answers_from_the_persistent_store() {
    let store_dir =
        std::env::temp_dir().join(format!("pallas-daemon-store-{}", std::process::id()));
    std::fs::create_dir_all(&store_dir).unwrap();
    let store = store_dir.join("daemon.store");
    let _ = std::fs::remove_file(&store);
    let config = || ServiceConfig {
        engine: EngineConfig {
            store_path: Some(store.clone()),
            ..EngineConfig::default()
        },
        ..ServiceConfig::default()
    };
    let unit = demo_unit(7);

    // First daemon lifetime: analyze cold, shut down gracefully (the
    // shutdown path flushes the store).
    let path = socket_path("store1");
    let handle = Server::start(&path, config()).unwrap();
    let mut client = Client::connect(&path).unwrap();
    let cold = client.check(&unit).unwrap();
    assert!(ok(&cold), "{cold}");
    assert_eq!(cold.get("cached").and_then(Value::as_bool), Some(false));
    assert!(ok(&client.shutdown().unwrap()));
    let summary = handle.wait();
    assert!(summary.contains("store:"), "store residency in summary: {summary}");

    // Second daemon, fresh process-level state, same store file: the
    // unit comes back from disk with zero Extract/Check stage work.
    let path = socket_path("store2");
    let handle = Server::start(&path, config()).unwrap();
    let mut client = Client::connect(&path).unwrap();
    let warm = client.check(&unit).unwrap();
    assert!(ok(&warm), "{warm}");
    assert_eq!(
        warm.get("cached").and_then(Value::as_bool),
        Some(true),
        "disk hits count as cached results: {warm}"
    );
    assert_eq!(warm.get("report"), cold.get("report"), "warm report must be byte-identical");
    assert_eq!(warm.get("ndjson"), cold.get("ndjson"));
    let stats = client.stats().unwrap();
    let store_stat = |f: &str| {
        stats
            .get("stats")
            .and_then(|s| s.get("engine"))
            .and_then(|s| s.get("store"))
            .and_then(|s| s.get(f))
            .and_then(Value::as_u64)
            .unwrap_or_else(|| panic!("missing stats.engine.store.{f} in {stats}"))
    };
    assert_eq!(store_stat("unit_hits"), 1, "{stats}");
    assert_eq!(stat(&stats, "engine", "cache_hits"), 0, "memory cache starts cold");
    // Proof of zero Extract/Check work: those stage counters never moved.
    assert_eq!(
        stats
            .get("stats")
            .and_then(|s| s.get("engine"))
            .and_then(|s| s.get("stage_runs"))
            .and_then(|s| s.get("extract"))
            .and_then(Value::as_u64),
        Some(0),
        "{stats}"
    );
    assert!(ok(&client.shutdown().unwrap()));
    handle.wait();
    let _ = std::fs::remove_dir_all(&store_dir);
}
