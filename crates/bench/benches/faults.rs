//! Criterion bench: failpoint overhead on the serve hot path.
//!
//! The ISSUE-level budget: with no failpoint armed, a cached compile
//! (the daemon's hot path) must be within bench noise of a build with
//! the sites never compiled in — the disabled check is one relaxed
//! atomic load. `cached_hit_armed_elsewhere` shows the cost when *some*
//! site is armed (the registry read happens, but the site misses), and
//! the raw primitives give per-check numbers.

use criterion::{criterion_group, criterion_main, Criterion};
use schedcache::{CachedTuner, ScheduleCache};
use std::sync::Arc;

fn faults_overhead(c: &mut Criterion) {
    let spec = hardware::GpuSpec::rtx4090();
    let op = tensor_expr::OpSpec::gemm(1024, 512, 1024);
    let gensor = gensor::Gensor::single_chain(7);
    let cache = Arc::new(ScheduleCache::in_memory());
    let tuner = CachedTuner::new(&gensor, cache);
    // Warm the key once so every iteration below is a pure cache hit —
    // the path the serve daemon answers most requests from.
    let _ = tuner.compile_verified(&op, &spec);

    let mut group = c.benchmark_group("faults");
    group.sample_size(30);

    faults::disarm_all();
    group.bench_function("cached_hit_disabled", |b| {
        b.iter(|| tuner.compile_verified(&op, &spec))
    });

    // Armed, but on a site the hit path never passes: the fast-path gate
    // opens, the registry lookup runs and misses.
    faults::arm("bench.unrelated", faults::Policy::ErrNth(u64::MAX));
    group.bench_function("cached_hit_armed_elsewhere", |b| {
        b.iter(|| tuner.compile_verified(&op, &spec))
    });
    faults::disarm_all();

    // The primitive itself: one relaxed load when disarmed, a registry
    // read when armed.
    group.bench_function("check_disabled", |b| b.iter(|| faults::check("bench.site")));
    faults::arm("bench.other", faults::Policy::ErrNth(u64::MAX));
    group.bench_function("check_armed_other_site", |b| {
        b.iter(|| faults::check("bench.site"))
    });
    faults::disarm_all();

    group.finish();
}

criterion_group!(benches, faults_overhead);
criterion_main!(benches);
