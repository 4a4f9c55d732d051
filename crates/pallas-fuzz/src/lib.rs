//! # pallas-fuzz
//!
//! Differential fuzzing for the Pallas pipeline. Three pieces:
//!
//! * [`gen`] — a seeded, deterministic generator of C-subset
//!   workflow units *plus matching spec annotations*, with size and
//!   depth knobs ([`gen::GenConfig`]).
//! * [`oracle`] — metamorphic and differential cross-checks: the
//!   facade, a cold and a warm engine, and (optionally) the daemon —
//!   over its Unix and TCP transports and through its request
//!   coalescing path — must produce byte-identical NDJSON,
//!   malformed daemon frames must get clean errors, and
//!   semantics-preserving rewrites ([`rewrite`]) must leave the
//!   finding set invariant.
//! * [`reduce`] — a delta-debugging reducer that shrinks any
//!   crashing or diverging unit to a minimal repro while its failure
//!   signature is preserved.
//!
//! [`run_fuzz`] ties them together: it iterates derived seeds,
//! accumulates an FNV-1a digest over the baseline NDJSON of clean
//! iterations (so two runs with the same seed must print the same
//! digest), and collects failures — minimizing them and writing
//! repro files to a `found/` directory when asked.

pub mod gen;
pub mod oracle;
pub mod reduce;
pub mod rewrite;

pub use gen::{generate, generate_with, GenConfig, GenUnit};
pub use oracle::{run_oracles, DaemonClients, Oracle, OracleFailure};
pub use reduce::{reduce_unit, signature};

use pallas_core::engine::fingerprint::Fnv1a;
use pallas_core::SourceUnit;
use pallas_service::{Bind, Client, Server, ServiceConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

/// Derives the generator seed for iteration `i` of a run (SplitMix64
/// over the base seed and index, so runs are replayable per
/// iteration via `--unit-seed`).
pub fn iteration_seed(base: u64, i: u64) -> u64 {
    let mut z = base ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Configuration for a fuzz run.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Base seed; each iteration derives its own generator seed.
    pub seed: u64,
    /// Number of iterations.
    pub iters: u64,
    /// Run exactly this generator seed (once) instead of deriving
    /// seeds from `seed` — the replay knob for found failures.
    pub unit_seed: Option<u64>,
    /// Generator knobs.
    pub gen: GenConfig,
    /// Cross-check every unit against an in-process daemon.
    pub daemon: bool,
    /// Minimize failures with the reducer.
    pub reduce: bool,
    /// Where to write minimized repros (`None` disables writing).
    pub found_dir: Option<PathBuf>,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 42,
            iters: 200,
            unit_seed: None,
            gen: GenConfig::default(),
            daemon: true,
            reduce: false,
            found_dir: None,
        }
    }
}

/// One failing iteration.
#[derive(Debug, Clone)]
pub struct FoundFailure {
    /// Generator seed of the failing unit (replay with `--unit-seed`).
    pub unit_seed: u64,
    /// Failure signature: an oracle tag or `panic:<message>`.
    pub signature: String,
    /// Human-readable detail.
    pub detail: String,
    /// The failing unit as generated.
    pub unit: SourceUnit,
    /// The minimized unit, when reduction ran.
    pub minimized: Option<SourceUnit>,
    /// Files written under `found/`, if any.
    pub written: Vec<PathBuf>,
}

/// The outcome of a fuzz run.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Iterations executed.
    pub iters: u64,
    /// FNV-1a digest over the baseline NDJSON of clean iterations.
    /// Deterministic for a given (seed, iters, knobs, daemon) tuple.
    pub digest: u64,
    /// All failures, in iteration order.
    pub failures: Vec<FoundFailure>,
}

/// Runs the fuzz loop. `progress` receives one short line per failure
/// (and nothing else), so callers can stream findings.
pub fn run_fuzz(cfg: &FuzzConfig, progress: &mut dyn FnMut(&str)) -> FuzzReport {
    // Silence the default panic hook for the duration of the run:
    // caught panics are failures to triage, not noise to print.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    let daemon = if cfg.daemon { DaemonGuard::start() } else { None };
    let mut clients = daemon.as_ref().and_then(DaemonGuard::clients);

    let mut digest = Fnv1a::new();
    let mut failures = Vec::new();
    let iters = if cfg.unit_seed.is_some() { 1 } else { cfg.iters };

    for i in 0..iters {
        let unit_seed = cfg.unit_seed.unwrap_or_else(|| iteration_seed(cfg.seed, i));
        let g = generate_with(unit_seed, &cfg.gen);
        let unit = g.unit.clone();
        let outcome = catch_unwind(AssertUnwindSafe(|| run_oracles(&unit, clients.as_mut())));
        let (sig, detail) = match outcome {
            Ok(Ok(ndjson)) => {
                digest.write(ndjson.as_bytes());
                continue;
            }
            Ok(Err(f)) => (f.oracle.tag().to_string(), f.detail),
            Err(payload) => {
                let msg = reduce::normalize_panic(&payload);
                (format!("panic:{msg}"), msg)
            }
        };
        progress(&format!("seed {unit_seed}: {sig}: {detail}"));
        let minimized = if cfg.reduce { Some(reduce_unit(&g.unit, &sig)) } else { None };
        let written = match &cfg.found_dir {
            Some(dir) => {
                write_found(dir, unit_seed, &sig, minimized.as_ref().unwrap_or(&g.unit), &detail)
            }
            None => Vec::new(),
        };
        failures.push(FoundFailure {
            unit_seed,
            signature: sig,
            detail,
            unit: g.unit,
            minimized,
            written,
        });
    }

    if let Some(mut c) = clients.take() {
        let _ = c.unix.shutdown();
    }
    if let Some(d) = daemon {
        d.finish();
    }
    std::panic::set_hook(prev_hook);

    FuzzReport { iters, digest: digest.finish(), failures }
}

/// Writes a minimized repro (source, spec, and a note with the replay
/// command) under `dir`. Best-effort: IO errors are swallowed — the
/// failure is still reported in the [`FuzzReport`].
fn write_found(
    dir: &std::path::Path,
    unit_seed: u64,
    sig: &str,
    unit: &SourceUnit,
    detail: &str,
) -> Vec<PathBuf> {
    let tag: String = sig
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '-' { c } else { '_' })
        .take(40)
        .collect();
    let stem = format!("seed-{unit_seed}-{tag}");
    if std::fs::create_dir_all(dir).is_err() {
        return Vec::new();
    }
    let mut written = Vec::new();
    let src = unit.files.first().map(|(_, s)| s.as_str()).unwrap_or("");
    let c_path = dir.join(format!("{stem}.c"));
    if std::fs::write(&c_path, src).is_ok() {
        written.push(c_path);
    }
    let spec_path = dir.join(format!("{stem}.spec"));
    if std::fs::write(&spec_path, &unit.spec_text).is_ok() {
        written.push(spec_path);
    }
    let note = format!(
        "signature: {sig}\ndetail: {detail}\nreplay: pallas fuzz --unit-seed {unit_seed}\n"
    );
    let note_path = dir.join(format!("{stem}.txt"));
    if std::fs::write(&note_path, note).is_ok() {
        written.push(note_path);
    }
    written
}

/// An in-process daemon on a private temp socket plus a loopback TCP
/// listener, so the daemon oracle can compare both transports.
struct DaemonGuard {
    socket: PathBuf,
    handle: pallas_service::ServerHandle,
}

impl DaemonGuard {
    fn start() -> Option<DaemonGuard> {
        let socket = std::env::temp_dir().join(format!(
            "pallas-fuzz-{}-{:x}.sock",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.subsec_nanos())
                .unwrap_or(0)
        ));
        let _ = std::fs::remove_file(&socket);
        let bind = Bind::unix(&socket).with_tcp("127.0.0.1:0");
        match Server::start_with(bind, ServiceConfig::default()) {
            Ok(handle) => Some(DaemonGuard { socket, handle }),
            Err(_) => None,
        }
    }

    /// Connects one client per bound transport. TCP is best-effort
    /// (the oracle degrades to Unix-only if loopback is unavailable),
    /// but without the Unix connection the daemon battery is skipped
    /// entirely.
    fn clients(&self) -> Option<DaemonClients> {
        let unix = Client::connect(&self.socket).ok()?;
        let tcp = self.handle.tcp_addr().and_then(|addr| Client::connect_tcp(addr).ok());
        Some(DaemonClients { unix, tcp })
    }

    fn finish(self) {
        let _ = self.handle.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_deterministic_across_runs() {
        let cfg = FuzzConfig {
            seed: 5,
            iters: 6,
            daemon: false,
            ..FuzzConfig::default()
        };
        let a = run_fuzz(&cfg, &mut |_| {});
        let b = run_fuzz(&cfg, &mut |_| {});
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.failures.len(), 0, "{:?}", a.failures);
        assert_eq!(b.iters, 6);
    }

    #[test]
    fn daemon_battery_covers_transports_coalescing_and_malformed_frames() {
        // With the daemon on (the default), every iteration checks
        // NDJSON identity over Unix and TCP, rides the coalescing
        // path, and fires malformed frames derived from its own
        // request line at the framing layer.
        let cfg = FuzzConfig { seed: 9, iters: 3, ..FuzzConfig::default() };
        let r = run_fuzz(&cfg, &mut |_| {});
        assert_eq!(r.iters, 3);
        assert_eq!(r.failures.len(), 0, "{:?}", r.failures);
    }

    #[test]
    fn unit_seed_replays_one_iteration() {
        let cfg = FuzzConfig {
            unit_seed: Some(17),
            iters: 100, // ignored under unit_seed
            daemon: false,
            ..FuzzConfig::default()
        };
        let r = run_fuzz(&cfg, &mut |_| {});
        assert_eq!(r.iters, 1);
    }

    #[test]
    fn iteration_seed_spreads() {
        let a = iteration_seed(42, 0);
        let b = iteration_seed(42, 1);
        let c = iteration_seed(43, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }
}
