//! Metrics registry: atomic counters plus fixed-bucket latency
//! histograms.
//!
//! Everything here is lock-free on the hot path (relaxed atomics —
//! counters tolerate torn reads across fields, a snapshot is advisory)
//! and sampled on demand by the `stats` protocol request. The same
//! snapshot is logged when the daemon shuts down.

use crate::json::{n, obj, Value};
use pallas_core::{EngineStats, Stage, StageTiming};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Default histogram bucket upper bounds, in microseconds. The last
/// implicit bucket is `+inf`. Spans 50µs (a warm cache hit over the
/// socket) to 1s (a path-explosion outlier). Deployments watching a
/// different latency regime override these through
/// [`ServiceConfig::bucket_bounds_us`](crate::ServiceConfig).
pub const BUCKET_BOUNDS_US: [u64; 12] =
    [50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 100_000, 250_000, 1_000_000];

/// A fixed-bucket latency histogram with total count and sum.
#[derive(Debug)]
pub struct Histogram {
    /// Bucket upper bounds, sorted ascending, each inclusive.
    bounds_us: Vec<u64>,
    /// One count per bound, plus the overflow bucket at the end.
    counts: Vec<AtomicU64>,
    total: AtomicU64,
    sum_us: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new(&BUCKET_BOUNDS_US)
    }
}

impl Histogram {
    /// A histogram with explicit bucket upper bounds (microseconds,
    /// each inclusive). Bounds are sorted and deduplicated; an empty
    /// slice leaves only the overflow bucket.
    pub fn new(bounds_us: &[u64]) -> Histogram {
        let mut bounds_us = bounds_us.to_vec();
        bounds_us.sort_unstable();
        bounds_us.dedup();
        let counts = (0..bounds_us.len() + 1).map(|_| AtomicU64::new(0)).collect();
        Histogram { bounds_us, counts, total: AtomicU64::new(0), sum_us: AtomicU64::new(0) }
    }

    /// The bucket upper bounds this histogram was built with.
    pub fn bounds_us(&self) -> &[u64] {
        &self.bounds_us
    }

    /// Records one observation. An observation exactly on a bound
    /// lands in that bound's bucket (bounds are inclusive); anything
    /// above the top bound lands in the overflow bucket.
    pub fn record(&self, elapsed: Duration) {
        let us = elapsed.as_micros().min(u64::MAX as u128) as u64;
        let bucket = self
            .bounds_us
            .iter()
            .position(|&bound| us <= bound)
            .unwrap_or(self.bounds_us.len());
        self.counts[bucket].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Mean observation in microseconds (0 when empty).
    pub fn mean_us(&self) -> u64 {
        self.sum_us.load(Ordering::Relaxed).checked_div(self.count()).unwrap_or(0)
    }

    /// Snapshot as a JSON object: bounds, per-bucket counts, count, sum.
    pub fn to_json(&self) -> Value {
        obj(vec![
            ("bounds_us", Value::Arr(self.bounds_us.iter().map(|&b| n(b)).collect())),
            (
                "counts",
                Value::Arr(self.counts.iter().map(|c| n(c.load(Ordering::Relaxed))).collect()),
            ),
            ("count", n(self.count())),
            ("sum_us", n(self.sum_us.load(Ordering::Relaxed))),
        ])
    }
}

/// The daemon's counters and histograms.
#[derive(Debug, Default)]
pub struct ServiceMetrics {
    /// Requests read off a connection (any op).
    pub received: AtomicU64,
    /// Check/batch requests admitted to the queue.
    pub accepted: AtomicU64,
    /// Check/batch requests rejected because the queue was full.
    pub rejected_overload: AtomicU64,
    /// Requests that hit the per-request wall-clock timeout.
    pub timed_out: AtomicU64,
    /// Units whose analysis returned an error.
    pub failed: AtomicU64,
    /// Units analyzed successfully.
    pub completed: AtomicU64,
    /// Malformed request lines.
    pub protocol_errors: AtomicU64,
    /// Check requests served by riding an identical in-flight
    /// computation instead of running their own (request coalescing).
    pub coalesced_hits: AtomicU64,
    /// Connections accepted on the Unix-domain listener.
    pub unix_connections: AtomicU64,
    /// Connections accepted on the TCP listener.
    pub tcp_connections: AtomicU64,
    /// Finished responses with nobody left to read them (the request
    /// timed out or its connection closed before the worker was
    /// done). Stays zero under healthy load.
    pub dropped_completions: AtomicU64,
    /// End-to-end request latency (admission + analysis).
    pub request_latency: Histogram,
    /// Time jobs sat in the admission queue before a worker picked
    /// them up.
    pub queue_wait: Histogram,
    /// Time workers spent executing jobs (the end-to-end latency
    /// minus queue wait and socket overhead).
    pub execute_latency: Histogram,
    /// Per-pipeline-stage latency, in [`Stage::ALL`] order, fed from
    /// each analyzed unit's stage timings. Only stages that ran are
    /// recorded; cached stages are counted by the engine's
    /// `cache_hits`, not as 0 µs samples here.
    pub stage_latency: [Histogram; 5],
}

impl ServiceMetrics {
    /// A registry whose histograms all use the given bucket bounds
    /// (microseconds) instead of [`BUCKET_BOUNDS_US`].
    pub fn with_bounds(bounds_us: &[u64]) -> ServiceMetrics {
        ServiceMetrics {
            request_latency: Histogram::new(bounds_us),
            queue_wait: Histogram::new(bounds_us),
            execute_latency: Histogram::new(bounds_us),
            stage_latency: std::array::from_fn(|_| Histogram::new(bounds_us)),
            ..ServiceMetrics::default()
        }
    }

    /// Bumps a counter by one.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one completed unit's stage timings, skipping stages
    /// served from cache.
    pub fn record_stages(&self, timings: &[StageTiming]) {
        for t in timings.iter().filter(|t| !t.cached) {
            self.stage_latency[t.stage as usize].record(t.elapsed);
        }
    }

    /// Snapshot of the full registry (service counters, latency
    /// histograms, and the shared engine's counters) as JSON.
    pub fn to_json(&self, engine: &EngineStats, queue_depth: usize, workers: usize) -> Value {
        let load = |c: &AtomicU64| n(c.load(Ordering::Relaxed));
        let stage_latency: Vec<(String, Value)> = Stage::ALL
            .iter()
            .map(|&stage| (stage.name().to_string(), self.stage_latency[stage as usize].to_json()))
            .collect();
        obj(vec![
            (
                "service",
                obj(vec![
                    ("received", load(&self.received)),
                    ("accepted", load(&self.accepted)),
                    ("completed", load(&self.completed)),
                    ("failed", load(&self.failed)),
                    ("rejected_overload", load(&self.rejected_overload)),
                    ("timed_out", load(&self.timed_out)),
                    ("protocol_errors", load(&self.protocol_errors)),
                    ("coalesced_hits", load(&self.coalesced_hits)),
                    ("unix_connections", load(&self.unix_connections)),
                    ("tcp_connections", load(&self.tcp_connections)),
                    ("dropped_completions", load(&self.dropped_completions)),
                    ("queue_depth", n(queue_depth as u64)),
                    ("workers", n(workers as u64)),
                ]),
            ),
            (
                "engine",
                obj(vec![
                    ("units_checked", n(engine.units_checked)),
                    ("cache_hits", n(engine.cache_hits)),
                    ("cache_misses", n(engine.cache_misses)),
                    ("cache_evictions", n(engine.cache_evictions)),
                    ("cached_frontends", n(engine.cached_frontends)),
                    ("cache_capacity", n(engine.cache_capacity)),
                    (
                        "stage_runs",
                        obj(Stage::ALL
                            .iter()
                            .map(|&stage| {
                                (stage.name(), n(engine.stage_runs(stage)))
                            })
                            .collect()),
                    ),
                    (
                        "stage_nanos",
                        obj(Stage::ALL
                            .iter()
                            .map(|&stage| {
                                (stage.name(), n(engine.stage_total(stage).as_nanos() as u64))
                            })
                            .collect()),
                    ),
                    (
                        "store",
                        obj(vec![
                            ("enabled", Value::Bool(engine.store_enabled)),
                            ("unit_hits", n(engine.store_unit_hits)),
                            ("unit_misses", n(engine.store_unit_misses)),
                            ("unit_stale", n(engine.store_unit_stale)),
                            ("func_hits", n(engine.store_func_hits)),
                            ("func_misses", n(engine.store_func_misses)),
                            ("func_stale", n(engine.store_func_stale)),
                            ("units_resident", n(engine.store_units_resident)),
                            ("functions_resident", n(engine.store_functions_resident)),
                            ("file_bytes", n(engine.store_file_bytes)),
                            ("compactions", n(engine.store_compactions)),
                        ]),
                    ),
                ]),
            ),
            ("request_latency", self.request_latency.to_json()),
            ("queue_wait", self.queue_wait.to_json()),
            ("execute_latency", self.execute_latency.to_json()),
            ("stage_latency", Value::Obj(stage_latency)),
        ])
    }

    /// A short human-readable summary, logged on shutdown.
    pub fn render_summary(&self, engine: &EngineStats) -> String {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let store = if engine.store_enabled {
            format!(
                "; store: {} hit(s) / {} miss(es) / {} stale, \
                 {} unit(s) + {} function(s) resident ({} byte(s))",
                engine.store_unit_hits,
                engine.store_unit_misses,
                engine.store_unit_stale,
                engine.store_units_resident,
                engine.store_functions_resident,
                engine.store_file_bytes,
            )
        } else {
            String::new()
        };
        format!(
            "served {} request(s): {} completed, {} coalesced, {} failed, {} overloaded, \
             {} timed out (mean latency {}µs); engine: {} hit(s) / {} miss(es) / {} eviction(s), \
             {}/{} frontend(s) resident{store}\n",
            load(&self.received),
            load(&self.completed),
            load(&self.coalesced_hits),
            load(&self.failed),
            load(&self.rejected_overload),
            load(&self.timed_out),
            self.request_latency.mean_us(),
            engine.cache_hits,
            engine.cache_misses,
            engine.cache_evictions,
            engine.cached_frontends,
            engine.cache_capacity,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_bound() {
        let h = Histogram::default();
        h.record(Duration::from_micros(10)); // bucket 0 (≤50µs)
        h.record(Duration::from_micros(50)); // bucket 0 (inclusive bound)
        h.record(Duration::from_micros(700)); // ≤1000µs bucket
        h.record(Duration::from_secs(5)); // overflow
        assert_eq!(h.count(), 4);
        let snap = h.to_json();
        let counts = snap.get("counts").and_then(Value::as_arr).unwrap();
        assert_eq!(counts.len(), BUCKET_BOUNDS_US.len() + 1);
        assert_eq!(counts[0].as_u64(), Some(2));
        assert_eq!(counts[4].as_u64(), Some(1));
        assert_eq!(counts.last().unwrap().as_u64(), Some(1));
    }

    #[test]
    fn mean_is_zero_when_empty() {
        assert_eq!(Histogram::default().mean_us(), 0);
    }

    /// Regression: an observation exactly on the top bound must land
    /// in the last finite bucket, and one microsecond above it in the
    /// overflow bucket — the boundary where `<` vs `<=` bucketing
    /// silently misfiles the slowest real requests.
    #[test]
    fn top_bound_is_inclusive_and_overflow_starts_just_above_it() {
        let h = Histogram::default();
        let top = *BUCKET_BOUNDS_US.last().unwrap();
        h.record(Duration::from_micros(top));
        h.record(Duration::from_micros(top + 1));
        let snap = h.to_json();
        let counts = snap.get("counts").and_then(Value::as_arr).unwrap();
        assert_eq!(counts[BUCKET_BOUNDS_US.len() - 1].as_u64(), Some(1), "on-bound");
        assert_eq!(counts[BUCKET_BOUNDS_US.len()].as_u64(), Some(1), "just above");
    }

    #[test]
    fn custom_bounds_are_sorted_deduped_and_used_verbatim() {
        let h = Histogram::new(&[500, 100, 100, 1_000]);
        assert_eq!(h.bounds_us(), &[100, 500, 1_000]);
        h.record(Duration::from_micros(100)); // bucket 0 (inclusive)
        h.record(Duration::from_micros(101)); // bucket 1
        h.record(Duration::from_micros(2_000)); // overflow
        let counts_json = h.to_json();
        let counts = counts_json.get("counts").and_then(Value::as_arr).unwrap();
        assert_eq!(counts.len(), 4);
        assert_eq!(counts[0].as_u64(), Some(1));
        assert_eq!(counts[1].as_u64(), Some(1));
        assert_eq!(counts[3].as_u64(), Some(1));
    }

    #[test]
    fn empty_bounds_leave_only_the_overflow_bucket() {
        let h = Histogram::new(&[]);
        h.record(Duration::from_micros(1));
        let snap = h.to_json();
        let counts = snap.get("counts").and_then(Value::as_arr).unwrap();
        assert_eq!(counts.len(), 1);
        assert_eq!(counts[0].as_u64(), Some(1));
    }

    #[test]
    fn with_bounds_applies_to_every_histogram() {
        let metrics = ServiceMetrics::with_bounds(&[10, 20]);
        assert_eq!(metrics.request_latency.bounds_us(), &[10, 20]);
        assert_eq!(metrics.queue_wait.bounds_us(), &[10, 20]);
        assert_eq!(metrics.execute_latency.bounds_us(), &[10, 20]);
        for h in &metrics.stage_latency {
            assert_eq!(h.bounds_us(), &[10, 20]);
        }
    }

    #[test]
    fn stage_histograms_count_only_stages_that_ran() {
        let metrics = ServiceMetrics::default();
        let timing = |stage, cached| StageTiming {
            stage,
            elapsed: if cached { Duration::ZERO } else { Duration::from_micros(40) },
            cached,
        };
        let counts = |m: &ServiceMetrics| m.stage_latency.each_ref().map(Histogram::count);
        metrics.record_stages(&Stage::ALL.map(|s| timing(s, false)));
        assert_eq!(counts(&metrics), [1; 5]);
        // A memory hit: every stage cached, no histogram moves.
        metrics.record_stages(&Stage::ALL.map(|s| timing(s, true)));
        assert_eq!(counts(&metrics), [1; 5]);
        // A store hit: only Merge, Parse and Spec ran.
        metrics.record_stages(&Stage::ALL.map(|s| timing(s, s >= Stage::Extract)));
        assert_eq!(counts(&metrics), [2, 2, 2, 1, 1]);
    }

    #[test]
    fn registry_snapshot_has_service_and_engine_sections() {
        let metrics = ServiceMetrics::default();
        ServiceMetrics::bump(&metrics.received);
        ServiceMetrics::bump(&metrics.completed);
        metrics.request_latency.record(Duration::from_millis(2));
        let engine = EngineStats { cache_hits: 3, ..EngineStats::default() };
        let snap = metrics.to_json(&engine, 8, 2);
        let service = snap.get("service").unwrap();
        assert_eq!(service.get("received").and_then(Value::as_u64), Some(1));
        assert_eq!(service.get("workers").and_then(Value::as_u64), Some(2));
        let engine_section = snap.get("engine").unwrap();
        assert_eq!(engine_section.get("cache_hits").and_then(Value::as_u64), Some(3));
        assert!(snap.get("stage_latency").unwrap().get("extract").is_some());
        // The snapshot renders to a single protocol-safe line.
        assert!(!snap.to_string().contains('\n'));
    }
}
