//! End-to-end and per-layer benchmark of the Pallas workspace.
//!
//! ```text
//! pallasbench --workload <batch|recheck|serve> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Builds every input from `--seed`, sets the workload up several
//! times (reporting the median as `setup_s`), measures for `--seconds`,
//! checks every output, and prints one JSON object as the last line of
//! standard output: `correct`, `attempted`, `failed` and `metrics`.
//! With `--trace 0` the metrics are the end-to-end ones, measured with
//! no span recording; with `--trace 1` they are the per-layer ones,
//! taken from the benchmark's own spans around its calls into each
//! layer (written to `pallasbench/.out/`). The program's own tracing
//! stays off in both. A failed output check exits with code 1; bad
//! arguments or a failed set-up exit with code 2 and print no result.
//! See `pallasbench/README.md` for the workloads and metrics.

mod batch;
mod inputs;
mod recheck;
mod replay;
mod serve;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// End-to-end metrics (`--trace 0`): name and unit. Every workload
/// reports each one; `README.md` gives the per-workload definitions.
/// The 99th percentile of the same latencies goes to standard error
/// (`print_tail`) instead: on a shared two-core host it roughly
/// doubled between identical runs, more than any bound can allow.
pub const END_TO_END: [(&str, &str); 6] = [
    ("ops_per_s", "1/s"),
    ("p50_us", "us"),
    ("miss_p50_us", "us"),
    ("tree_ms", "ms"),
    ("setup_s", "s"),
    ("rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`): name and unit. A workload that
/// bypasses a layer, or cannot observe it from outside, reports 0.
pub const PER_LAYER: [(&str, &str); 55] = [
    ("merge.us", "us"),
    ("lang.parse_us", "us"),
    ("lang.parse_mb_per_s", "MB/s"),
    ("lang.functions", "count"),
    ("spec.parse_us", "us"),
    ("cfg.build_us", "us"),
    ("cfg.loop_summary_us", "us"),
    ("cfg.enumerate_us", "us"),
    ("cfg.paths", "count"),
    ("cfg.truncated", "count"),
    ("sym.extract_us", "us"),
    ("sym.oracle_us", "us"),
    ("sym.evaluate_us", "us"),
    ("sym.pruned_ratio", "ratio"),
    ("sym.summary_hits", "count"),
    ("sym.summary_misses", "count"),
    ("sym.loops_summarized", "count"),
    ("sym.vars_havocked", "count"),
    ("sym.arena_nodes_per_unit", "count"),
    ("sym.interned_strings", "count"),
    ("checkers.path_state_us", "us"),
    ("checkers.trigger_condition_us", "us"),
    ("checkers.path_output_us", "us"),
    ("checkers.fault_handling_us", "us"),
    ("checkers.assist_struct_us", "us"),
    ("checkers.resource_release_us", "us"),
    ("checkers.work_amplification_us", "us"),
    ("checkers.total_us", "us"),
    ("checkers.warnings", "count"),
    ("report.ndjson_us", "us"),
    ("report.text_us", "us"),
    ("engine.fingerprint_us", "us"),
    ("engine.check_us", "us"),
    ("engine.cache_hit_ratio", "ratio"),
    ("engine.cache_evictions", "count"),
    ("sched.idle_share", "ratio"),
    ("sched.batch_wall_ms", "ms"),
    ("store.open_ms", "ms"),
    ("store.compact_ms", "ms"),
    ("store.file_bytes", "bytes"),
    ("store.unit_hit_ratio", "ratio"),
    ("store.func_hit_ratio", "ratio"),
    ("store.dead_records", "count"),
    ("service.encode_us", "us"),
    ("service.decode_us", "us"),
    ("service.latency_us", "us"),
    ("service.queue_wait_us", "us"),
    ("service.execute_us", "us"),
    ("service.overhead_us", "us"),
    ("service.coalesced", "count"),
    ("service.rejected", "count"),
    ("service.timed_out", "count"),
    ("service.dropped", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_share", "ratio"),
];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;

/// A run is stopped, with exit code 3 and no result, if it has not
/// finished this long after it started.
const DEADLINE: Duration = Duration::from_secs(170);

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every input derives from.
    pub seed: u64,
    /// Length of the measured loop.
    pub seconds: Duration,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Scratch directory for sockets and store files, removed at exit.
    pub run_dir: PathBuf,
    /// Directory the traced run writes its spans to.
    pub out_dir: PathBuf,
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured loop.
    pub attempted: u64,
    /// Attempted operations that failed (analysis or protocol error,
    /// overload, timeout, dropped completion or output mismatch).
    pub failed: u64,
    /// Failed output checks alone; any makes the run incorrect.
    pub mismatches: u64,
    metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Sets metric `name`, which must be listed in [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER.iter())
                .any(|(n, _)| *n == name),
            "unlisted metric {name}"
        );
        self.metrics
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// Records one failed output check.
    pub fn mismatch(&mut self, what: impl std::fmt::Display) {
        if self.mismatches < 5 {
            eprintln!("pallasbench: output check failed: {what}");
        }
        self.mismatches += 1;
        self.failed += 1;
    }

    fn result_line(&self, trace: bool) -> String {
        let list: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let metrics: Vec<String> = list
            .iter()
            .map(|(name, unit)| {
                let value = match self.metrics.get(name) {
                    Some(v) => *v,
                    None if trace => 0.0,
                    None => panic!("end-to-end metric {name} was not measured"),
                };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.mismatches == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Runs `setup` [`SETUPS`] times, handing all but the last state to
/// `discard`, and returns the last state with the median set-up time
/// in seconds.
pub fn repeated_setup<S>(
    mut setup: impl FnMut() -> Result<S, String>,
    mut discard: impl FnMut(S),
) -> Result<(S, f64), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        if let Some(state) = last.take() {
            discard(state);
        }
        let started = Instant::now();
        last = Some(setup()?);
        times.push(started.elapsed().as_secs_f64());
    }
    Ok((
        last.expect("at least one set-up"),
        stats::median(&mut times),
    ))
}

/// Prints the 99th percentile of a workload's main latency on standard
/// error, with its sample count.
pub fn print_tail(workload: &str, samples: &mut stats::Windowed) {
    eprintln!(
        "{workload}: p99_us {:.1} us (median over one-second windows of {} samples)",
        samples.quantile(0.99),
        samples.count()
    );
}

/// Writes a traced run's spans to `<out_dir>/<workload>-seed<n>.spans.json`.
pub fn write_spans(args: &Args, tr: &spans::Tracer) -> Result<(), String> {
    let path = args
        .out_dir
        .join(format!("{}-seed{}.spans.json", args.workload, args.seed));
    std::fs::create_dir_all(&args.out_dir)
        .and_then(|()| tr.write(&path))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn parse_args() -> Result<(String, u64, u64, bool), String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10u64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !(1..=120).contains(&seconds) {
        return Err(format!("--seconds must be 1..=120, not {seconds}"));
    }
    Ok((workload, seed, seconds, trace))
}

fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "batch" => batch::run(args),
        "recheck" => recheck::run(args),
        "serve" => serve::run(args),
        other => Err(format!("unknown workload {other} (batch, recheck, serve)")),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some("--one-pass") {
        let number = |i: usize| argv.get(i).and_then(|v| v.parse::<u64>().ok());
        let line = match (number(2), number(3)) {
            (Some(seed), Some(pass)) => batch::child(seed, pass),
            _ => Err("--one-pass takes a seed and a pass number".into()),
        };
        match line {
            Ok(line) => println!("{line}"),
            Err(e) => {
                eprintln!("pallasbench: pass: {e}");
                std::process::exit(2);
            }
        }
        return;
    }
    let (workload, seed, seconds, trace) = parse_args().unwrap_or_else(|e| {
        eprintln!("pallasbench: {e}");
        std::process::exit(2);
    });
    std::thread::spawn(|| {
        std::thread::sleep(DEADLINE);
        eprintln!(
            "pallasbench: run exceeded {}s, stopping",
            DEADLINE.as_secs()
        );
        std::process::exit(3);
    });
    let args = Args {
        run_dir: PathBuf::from(format!(
            "pallasbench/.run/{workload}-{}",
            std::process::id()
        )),
        out_dir: PathBuf::from("pallasbench/.out"),
        workload,
        seed,
        seconds: Duration::from_secs(seconds),
        trace,
    };
    let outcome = std::fs::create_dir_all(&args.run_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.run_dir.display()))
        .and_then(|()| run(&args));
    let _ = std::fs::remove_dir_all(&args.run_dir);
    match outcome {
        Ok(outcome) => {
            println!("{}", outcome.result_line(args.trace));
            if outcome.mismatches > 0 {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("pallasbench: {}: {e}", args.workload);
            std::process::exit(2);
        }
    }
}
