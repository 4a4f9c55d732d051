//! `batch`: cold analysis of a whole tree, as `pallas check --jobs 2`
//! does it. The frontend layers do nearly all the work; the cache,
//! the store and the service are bypassed.
//!
//! Each pass runs in a fresh process, as every `pallas check` does: the
//! benchmark starts itself with `--one-pass`, and the child builds the
//! labelled corpora plus a `skewed_units` batch whose seed advances
//! every pass, runs `check_many_with(units, 2, ..)` on a fresh `Engine`
//! with no store, and reports its timings on one line. A fresh process
//! starts with an empty symbol arena, so symbol construction stays in
//! every pass; in one long process the arena only grows, and passes
//! slowed by a third over 40 s as it did. The heavy sixth of the skewed
//! units makes scheduler balance matter.
//!
//! The traced run stays in one process and adds a layered replay of the
//! same kind of units.

use crate::inputs::{labelled, sub_seed, Labelled, TABLE1_BUGS, TABLE1_WARNINGS};
use crate::replay::{replay_unit, Counts, ENGINE_LAYERS, FAMILIES};
use crate::spans::Tracer;
use crate::stats::{median, ms, ratio, us, vm_kb, Windowed};
use crate::{repeated_setup, Args, Outcome};
use pallas_core::engine::fingerprint::Fnv1a;
use pallas_core::{score, AnalyzedUnit, Engine, EngineConfig, PallasError, SourceUnit};
use std::fmt::Write as _;
use std::process::{Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Worker threads per pass, one per core of the two-core reference host.
const JOBS: usize = 2;
/// Skewed units per pass: somewhat more than the corpus share's wall
/// time, and three heavy units, so the 99th percentile falls inside the
/// heavy units' distribution rather than on its edge.
const SKEWED: usize = 18;
/// Untimed passes in each set-up.
const WARMUP_PASSES: u64 = 3;
/// `skewed_units` names every unit `synth/...`; corpus units never are.
const SKEWED_PREFIX: &str = "synth/";

struct Setup {
    corpus: Labelled,
    /// Digest of every corpus unit's warnings, from the warm-up passes.
    digest: u64,
}

fn skewed(seed: u64, pass: u64) -> Vec<SourceUnit> {
    pallas_corpus::skewed_units(SKEWED, sub_seed(seed, pass))
}

/// What one pass measured and found.
#[derive(Debug, Default)]
struct PassReport {
    wall: Duration,
    /// Per-unit `check_unit` time, tagged true for skewed units.
    samples: Vec<(bool, Duration)>,
    /// Units whose analysis failed.
    errors: usize,
    /// Table 1 warnings and validated bugs.
    table1: (usize, usize),
    /// Digest of the corpus units' warnings.
    digest: u64,
    /// Peak resident memory of the process that ran the pass, in kB.
    hwm_kb: u64,
}

impl PassReport {
    fn to_line(&self) -> String {
        let mut line = format!(
            "pass {} {} {} {} {} {}",
            self.wall.as_nanos(),
            self.errors,
            self.table1.0,
            self.table1.1,
            self.digest,
            self.hwm_kb
        );
        for (is_skewed, d) in &self.samples {
            let _ = write!(
                line,
                " {}{}",
                if *is_skewed { 's' } else { 'c' },
                d.as_nanos()
            );
        }
        line
    }

    fn from_line(line: &str) -> Option<PassReport> {
        let mut it = line.strip_prefix("pass ")?.split(' ');
        let mut num = || it.next()?.parse::<u64>().ok();
        let wall = Duration::from_nanos(num()?);
        let errors = num()? as usize;
        let table1 = (num()? as usize, num()? as usize);
        let (digest, hwm_kb) = (num()?, num()?);
        let samples = it
            .map(|s| {
                let ns = s.get(1..)?.parse().ok()?;
                Some((s.starts_with('s'), Duration::from_nanos(ns)))
            })
            .collect::<Option<Vec<_>>>()?;
        Some(PassReport {
            wall,
            samples,
            errors,
            table1,
            digest,
            hwm_kb,
        })
    }
}

/// Runs one pass over `units` (the corpus first) on a fresh engine.
fn pass(corpus: &Labelled, units: &[SourceUnit]) -> PassReport {
    let engine = Engine::new();
    let samples = Mutex::new(Vec::with_capacity(units.len()));
    let started = Instant::now();
    let results = engine.check_many_with(units, JOBS, |e, u| {
        let t = Instant::now();
        let r = e.check_unit(u);
        let elapsed = t.elapsed();
        samples
            .lock()
            .expect("sample lock")
            .push((u.name.starts_with(SKEWED_PREFIX), elapsed));
        r
    });
    let wall = started.elapsed();
    let corpus_results = &results[..corpus.units.len()];
    PassReport {
        wall,
        samples: samples.into_inner().expect("sample lock"),
        errors: results.iter().filter(|r| r.is_err()).count(),
        table1: table1_score(corpus, corpus_results),
        digest: digest(corpus_results),
        hwm_kb: 0,
    }
}

/// Sums Table 1 warnings and validated bugs over the corpus results.
fn table1_score(
    corpus: &Labelled,
    results: &[Result<AnalyzedUnit, PallasError>],
) -> (usize, usize) {
    let warnings = results
        .iter()
        .map(|r| r.as_ref().map_or(&[][..], |a| a.warnings.as_slice()));
    warnings
        .zip(&corpus.truth)
        .take(corpus.table1)
        .fold((0, 0), |(w, b), (ws, truth)| {
            let s = score(ws, truth);
            (w + s.warning_count(), b + s.bug_count())
        })
}

fn digest(results: &[Result<AnalyzedUnit, PallasError>]) -> u64 {
    let mut h = Fnv1a::new();
    for r in results {
        let text = match r {
            Ok(a) => format!("{:?}", a.warnings),
            Err(e) => format!("error {e}"),
        };
        h.write_field(text.as_bytes());
    }
    h.finish()
}

/// The `--one-pass <seed> <pass>` child: one pass in this fresh
/// process, reported as one line on standard output.
pub fn child(seed: u64, index: u64) -> Result<String, String> {
    let corpus = labelled();
    let mut units = corpus.units.clone();
    units.extend(skewed(seed, index));
    let mut report = pass(&corpus, &units);
    report.hwm_kb = vm_kb("VmHWM")?;
    Ok(report.to_line())
}

/// Runs pass `index` in a child process and waits for it.
fn pass_in_child(seed: u64, index: u64) -> Result<PassReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--one-pass", &seed.to_string(), &index.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run a pass: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    match stdout.lines().last().and_then(PassReport::from_line) {
        Some(report) if output.status.success() => Ok(report),
        _ => Err(format!("pass {index} failed: {}", output.status)),
    }
}

/// Counts a pass's units as attempted and checks them: every unit
/// analysed, the corpus warnings equal to the warm-up's (by digest),
/// and the Table 1 score intact.
fn verify(st: &Setup, report: &PassReport, out: &mut Outcome) {
    out.attempted += report.samples.len() as u64;
    out.failed += report.errors as u64;
    if report.errors > 0 {
        out.mismatch(format!("{} unit(s) failed to analyse", report.errors));
    }
    if report.digest != st.digest {
        out.mismatch("corpus warnings differ from the warm-up passes");
    }
    if report.table1 != (TABLE1_WARNINGS, TABLE1_BUGS) {
        let (w, b) = report.table1;
        out.mismatch(format!(
            "Table 1 scores {w} warnings / {b} bugs, not 224 / 155"
        ));
    }
}

/// Loads the corpora and runs untimed warm-up passes in child
/// processes, which fix the reference digest and check the Table 1
/// score.
fn setup() -> Result<Setup, String> {
    let corpus = labelled();
    let mut digest = None;
    for warmup in 0..WARMUP_PASSES {
        // The same warm-up units for every seed, so the heavy units'
        // seed-dependent cost stays out of `setup_s`.
        let report = pass_in_child(0, u64::MAX - warmup)?;
        if report.errors > 0 || report.table1 != (TABLE1_WARNINGS, TABLE1_BUGS) {
            let (w, b) = report.table1;
            return Err(format!(
                "warm-up: {} error(s), Table 1 scores {w} warnings / {b} bugs, not 224 / 155",
                report.errors
            ));
        }
        if *digest.get_or_insert(report.digest) != report.digest {
            return Err("warm-up passes disagree on the corpus warnings".into());
        }
    }
    Ok(Setup {
        corpus,
        digest: digest.expect("at least one warm-up pass"),
    })
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let (st, setup_s) = repeated_setup(setup, drop)?;
    let mut out = Outcome::default();
    if args.trace {
        traced(args, &st, &mut out)?;
    } else {
        untraced(args, &st, &mut out)?;
        out.set("setup_s", setup_s);
    }
    Ok(out)
}

fn untraced(args: &Args, st: &Setup, out: &mut Outcome) -> Result<(), String> {
    let (mut all, mut miss) = (Windowed::default(), Windowed::default());
    let (mut rates, mut walls, mut hwm) = (Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    let mut p = 1u64;
    while started.elapsed() < args.seconds {
        let report = pass_in_child(args.seed, p)?;
        walls.push(ms(report.wall));
        rates.push(report.samples.len() as f64 / report.wall.as_secs_f64());
        hwm.push(report.hwm_kb as f64 * 1024.0 / 1e6);
        for (is_skewed, d) in &report.samples {
            all.push(us(*d));
            if *is_skewed {
                miss.push(us(*d));
            }
        }
        verify(st, &report, out);
        p += 1;
    }
    eprintln!(
        "batch: {} passes of {} units, {} unit samples ({} skewed)",
        p - 1,
        st.corpus.units.len() + SKEWED,
        all.count(),
        miss.count()
    );
    out.set("ops_per_s", median(&mut rates));
    out.set("p50_us", all.quantile(0.5));
    crate::print_tail("batch", &mut all);
    out.set("miss_p50_us", miss.quantile(0.5));
    out.set("tree_ms", median(&mut walls));
    out.set("rss_mb", median(&mut hwm));
    Ok(())
}

/// The traced run. Every pass takes two fresh unit sets (corpus plus a
/// new skewed batch each):
///
/// * set A goes through a two-job engine pass for the scheduler numbers;
/// * set B goes through a single-threaded cold engine (the coverage
///   base), the layered replay with spans, and the same replay with
///   spans off (the tracing overhead base). The three rotate their
///   order each pass so each meets fresh symbols equally often.
fn traced(args: &Args, st: &Setup, out: &mut Outcome) -> Result<(), String> {
    let config = EngineConfig::default();
    let mut tr = Tracer::new(true);
    let mut quiet = Tracer::new(false);
    let (mut counts, mut quiet_counts) = (Counts::default(), Counts::default());
    let (mut engine_cold, mut traced_wall, mut quiet_wall) =
        (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let (mut busy, mut sched_wall) = (Duration::ZERO, Duration::ZERO);
    let (mut engine_units, mut hits, mut misses, mut evictions, mut distinct) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let arena_before = pallas_sym::arena_node_count();
    let started = Instant::now();
    let mut p = 1u64;
    while started.elapsed() < args.seconds {
        let mut units_a = st.corpus.units.clone();
        units_a.extend(skewed(args.seed, 2 * p));
        let a = pass(&st.corpus, &units_a);
        busy += a.samples.iter().map(|(_, d)| *d).sum::<Duration>();
        sched_wall += a.wall;
        verify(st, &a, out);

        let mut units_b = st.corpus.units.clone();
        units_b.extend(skewed(args.seed, 2 * p + 1));
        distinct += (units_a.len() + units_b.len()) as u64;
        let mut engine_warnings = Vec::new();
        let mut replayed = Vec::new();
        let mut quiet_replayed = Vec::new();
        for step in 0..3 {
            match (step + p) % 3 {
                0 => {
                    let engine = Engine::with_engine_config(config.clone());
                    for u in &units_b {
                        let t = Instant::now();
                        let r = engine.check_unit(u);
                        engine_cold += t.elapsed();
                        engine_warnings.push(r.map(|a| a.warnings).map_err(|e| e.to_string()));
                    }
                    let s = engine.stats();
                    engine_units += units_b.len() as u64;
                    hits += s.cache_hits;
                    misses += s.cache_misses;
                    evictions += s.cache_evictions;
                }
                1 => {
                    let t = Instant::now();
                    for (i, u) in units_b.iter().enumerate() {
                        replayed.push(replay_unit(
                            &mut tr,
                            p * 1000 + i as u64,
                            u,
                            &config,
                            &mut counts,
                        ));
                    }
                    traced_wall += t.elapsed();
                }
                _ => {
                    let t = Instant::now();
                    for (i, u) in units_b.iter().enumerate() {
                        quiet_replayed.push(replay_unit(
                            &mut quiet,
                            i as u64,
                            u,
                            &config,
                            &mut quiet_counts,
                        ));
                    }
                    quiet_wall += t.elapsed();
                }
            }
        }
        out.attempted += 2 * units_b.len() as u64;
        for (i, e) in engine_warnings.iter().enumerate() {
            for r in [&replayed[i], &quiet_replayed[i]] {
                match (e, r) {
                    (Ok(e), Ok(r)) if e == r => {}
                    _ => out.mismatch(format!(
                        "{}: replay warnings differ from the engine's",
                        units_b[i].name
                    )),
                }
            }
        }
        p += 1;
    }
    let n = counts.units as f64;
    let per = |name: &str| tr.self_us(name) / n;
    for (metric, span) in [
        ("merge.us", "core.merge"),
        ("lang.parse_us", "lang.parse"),
        ("spec.parse_us", "spec.parse"),
        ("cfg.build_us", "cfg.build"),
        ("cfg.loop_summary_us", "cfg.loop_summary"),
        ("cfg.enumerate_us", "cfg.enumerate"),
        ("checkers.total_us", "checkers"),
        ("report.ndjson_us", "report.ndjson"),
        ("report.text_us", "report.text"),
        ("engine.fingerprint_us", "engine.fingerprint"),
    ] {
        out.set(metric, per(span));
    }
    let parse_s = tr.totals("lang.parse").self_time.as_secs_f64();
    out.set(
        "lang.parse_mb_per_s",
        ratio(counts.bytes as f64 / 1e6, parse_s),
    );
    out.set("lang.functions", counts.functions as f64 / n);
    out.set("cfg.paths", counts.cfg_paths as f64 / n);
    out.set("cfg.truncated", counts.cfg_truncated as f64 / n);
    let (extract, oracle) = (per("sym.extract"), per("sym.oracle_enumerate"));
    out.set("sym.extract_us", extract);
    out.set("sym.oracle_us", oracle - per("cfg.enumerate"));
    out.set(
        "sym.evaluate_us",
        extract - per("cfg.build") - per("cfg.loop_summary") - oracle,
    );
    out.set(
        "sym.pruned_ratio",
        ratio(
            counts.sym_pruned as f64,
            (counts.sym_paths + counts.sym_pruned) as f64,
        ),
    );
    out.set("sym.summary_hits", counts.summary_hits as f64 / n);
    out.set("sym.summary_misses", counts.summary_misses as f64 / n);
    out.set("sym.loops_summarized", counts.loops as f64 / n);
    out.set("sym.vars_havocked", counts.havocs as f64 / n);
    out.set(
        "sym.arena_nodes_per_unit",
        ratio(
            (pallas_sym::arena_node_count() - arena_before) as f64,
            distinct as f64,
        ),
    );
    out.set(
        "sym.interned_strings",
        pallas_sym::Istr::interned_count() as f64,
    );
    for (name, total) in FAMILIES.iter().zip(counts.families) {
        out.set(name, us(total) / n);
    }
    out.set("checkers.warnings", counts.warnings as f64 / n);
    out.set("engine.check_us", us(engine_cold) / engine_units as f64);
    out.set(
        "engine.cache_hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
    );
    out.set("engine.cache_evictions", evictions as f64);
    out.set(
        "sched.idle_share",
        1.0 - ratio(busy.as_secs_f64(), JOBS as f64 * sched_wall.as_secs_f64()),
    );
    out.set("sched.batch_wall_ms", ms(sched_wall) / (p - 1) as f64);
    let covered: f64 = ENGINE_LAYERS.iter().map(|l| tr.self_us(l)).sum();
    let coverage = ratio(covered / n, us(engine_cold) / engine_units as f64);
    let overhead = ratio(
        traced_wall.as_secs_f64() - quiet_wall.as_secs_f64(),
        quiet_wall.as_secs_f64(),
    );
    out.set("trace.coverage", coverage);
    out.set("trace.overhead_share", overhead);
    eprintln!(
        "batch traced: {} passes, {} replayed units; coverage {:.3} of {:.1} us/unit cold engine; \
         tracing overhead {:.4}",
        p - 1,
        counts.units,
        coverage,
        us(engine_cold) / engine_units as f64,
        overhead
    );
    crate::write_spans(args, &tr)
}
