//! Staged-engine costs: cold versus warm frontend cache over the
//! Table 1 corpus. Batch scheduling is measured end to end by
//! `pallasbench --workload batch`; its core-count-independent balance
//! check is `pallas_core::engine::schedule`'s blocking-workload test.

use criterion::{criterion_group, criterion_main, Criterion};
use pallas_core::{Engine, SourceUnit};

fn bench_cache(c: &mut Criterion) {
    let corpus = pallas_corpus::new_paths();
    let units: Vec<SourceUnit> = corpus.iter().map(|cu| cu.unit.clone()).collect();
    let mut group = c.benchmark_group("engine-cache");
    group.sample_size(10);
    group.bench_function("table1-corpus-cold", |b| {
        b.iter(|| {
            let engine = Engine::new();
            for unit in &units {
                engine.check_unit(unit).expect("checks");
            }
        })
    });
    let warm = Engine::new();
    for unit in &units {
        warm.check_unit(unit).expect("checks");
    }
    group.bench_function("table1-corpus-warm", |b| {
        b.iter(|| {
            for unit in &units {
                warm.check_unit(unit).expect("checks");
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_cache);
criterion_main!(benches);
