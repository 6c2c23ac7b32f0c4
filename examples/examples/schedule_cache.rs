//! Persistent schedule cache walkthrough: compile a model cold, warm a
//! second model into the same cache, then show that a "restarted
//! deployment" (a reopened cache file) answers everything from disk with
//! zero tuning.
//!
//! Run with: `cargo run --release -p gensor-examples --example schedule_cache`

use models::compile_model;
use schedcache::{CachedTuner, ScheduleCache};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let gpu = hardware::GpuSpec::rtx4090();
    let bert = models::zoo::bert_small(8, 128);
    let resnet = models::zoo::resnet50(32);
    let gensor = gensor::Gensor::default();
    let path = std::env::temp_dir().join("gensor-schedule-cache-example.jsonl");
    let _ = std::fs::remove_file(&path);

    // --- first "deployment": cold compiles fill the cache ---
    {
        let cache = Arc::new(ScheduleCache::open(&path).expect("open cache"));
        let tuner = CachedTuner::for_gensor(&gensor, cache.clone());

        let t0 = Instant::now();
        let cm = compile_model(&tuner, &bert, &gpu);
        println!(
            "cold  : {} compiled in {:.3}s ({:.1}k samples/s)",
            cm.model,
            t0.elapsed().as_secs_f64(),
            cm.throughput / 1000.0
        );

        // A second model's operators fan out over the same cache:
        // duplicates single-flight, neighbours of BERT's GEMMs warm-start.
        let t1 = Instant::now();
        let cm = compile_model(&tuner, &resnet, &gpu);
        println!(
            "second: {} compiled in {:.3}s",
            cm.model,
            t1.elapsed().as_secs_f64()
        );

        let s = cache.stats();
        println!(
            "stats : {} misses ({} warm-started), {} hits, p50 compile {:.4}s\n",
            s.misses, s.warm_starts, s.hits, s.compile_p50_s
        );
    }

    // --- "restart": a fresh process reopens the file ---
    let cache = Arc::new(ScheduleCache::open(&path).expect("reopen cache"));
    let s = cache.stats();
    println!(
        "reopen: {} schedules loaded from {}",
        s.loaded_from_disk,
        path.display()
    );
    let tuner = CachedTuner::for_gensor(&gensor, cache.clone());
    let t0 = Instant::now();
    let bert_again = compile_model(&tuner, &bert, &gpu);
    let t_bert = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let resnet_again = compile_model(&tuner, &resnet, &gpu);
    let t_resnet = t1.elapsed().as_secs_f64();
    let s = cache.stats();
    println!(
        "warm  : {} in {:.4}s, {} in {:.4}s — {} hits, {} misses, {:.2}s of tuning avoided",
        bert_again.model, t_bert, resnet_again.model, t_resnet, s.hits, s.misses, s.saved_tuning_s
    );
    assert_eq!(bert_again.tuning_s, 0.0, "hits carry zero tuning cost");
}
