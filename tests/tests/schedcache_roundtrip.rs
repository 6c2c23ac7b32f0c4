//! Integration properties of the persistent schedule cache: on-disk
//! round-trips are exact (bit-identical floats), corruption is survivable,
//! warm caches make whole-model recompiles effectively free, and
//! concurrent identical requests collapse to one construction.

use etir::{Action, Etir};
use gensor::{Gensor, GensorConfig};
use hardware::GpuSpec;
use models::pipeline::compile_model;
use proptest::prelude::*;
use schedcache::{CacheKey, CachedTuner, Outcome, ScheduleCache, Store};
use simgpu::{CompiledKernel, Tuner};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tensor_expr::OpSpec;

fn tmpfile(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("schedcache-integration-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{tag}-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// Structural equality that is *stricter* than `PartialEq` on floats:
/// every number must round-trip to the same bits (`-0.0` ≠ `0.0`,
/// and integer/float JSON flavors must not drift).
fn bits_equal(a: &serde_json::Value, b: &serde_json::Value) -> bool {
    use serde_json::Value::*;
    match (a, b) {
        (Null, Null) => true,
        (Bool(x), Bool(y)) => x == y,
        (U64(x), U64(y)) => x == y,
        (I64(x), I64(y)) => x == y,
        (F64(x), F64(y)) => x.to_bits() == y.to_bits(),
        (Str(x), Str(y)) => x == y,
        (Array(x), Array(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| bits_equal(p, q))
        }
        (Object(x), Object(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|((ka, va), (kb, vb))| ka == kb && bits_equal(va, vb))
        }
        _ => false,
    }
}

fn arb_op() -> impl Strategy<Value = OpSpec> {
    prop_oneof![
        (8u64..512, 8u64..256, 8u64..512).prop_map(|(m, k, n)| OpSpec::gemm(m, k, n)),
        (16u64..1024, 8u64..256).prop_map(|(m, n)| OpSpec::gemv(m, n)),
        (
            1u64..4,
            1u64..16,
            7u64..30,
            7u64..30,
            1u64..16,
            1u64..4,
            1u64..3,
            0u64..2
        )
            .prop_map(|(n, ci, h, w, co, k, s, p)| {
                let k = k.min(h).min(w);
                OpSpec::conv2d(n, ci, h, w, co, k, k, s, p)
            }),
    ]
}

/// An arbitrary feasible schedule: a pseudo-random walk from the initial
/// state, keeping only launchable intermediate states.
fn arb_schedule(op: &OpSpec, spec: &GpuSpec, choices: &[u8]) -> Etir {
    let mut e = Etir::initial(op.clone(), spec);
    for &c in choices {
        let acts = Action::enumerate(&e);
        if acts.is_empty() {
            break;
        }
        let next = e.apply(&acts[c as usize % acts.len()]);
        if etir::analytics::MemCheck::check(&next, spec).fits() {
            e = next;
        }
    }
    e
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Any schedule persisted to the store reloads as the identical `Etir`
    /// with a bit-identical `KernelReport`.
    #[test]
    fn store_round_trip_is_bit_identical(
        op in arb_op(),
        choices in proptest::collection::vec(any::<u8>(), 0..24),
        case in 0u64..u64::MAX,
    ) {
        let spec = GpuSpec::rtx4090();
        let e = arb_schedule(&op, &spec, &choices);
        let report = simgpu::simulate(&e, &spec).expect("walk kept feasibility");
        let kernel = CompiledKernel {
            etir: e.clone(),
            report,
            wall_time_s: 0.037,
            simulated_tuning_s: 0.0,
            candidates_evaluated: 9,
        };
        let key = CacheKey::new(&op, &spec, "Gensor");
        let rec = schedcache::store::record(key, op.label(), "Gensor", &kernel);

        let store = Store::open(tmpfile(&format!("prop-{case}")));
        store.append(&rec).unwrap();
        let (loaded, rep) = store.load().unwrap();
        let _ = std::fs::remove_file(store.path());
        prop_assert_eq!(rep.loaded, 1);
        prop_assert_eq!(rep.corrupt, 0);
        prop_assert_eq!(&loaded[0].etir, &e);
        prop_assert_eq!(loaded[0].key, key);
        let before = serde_json::to_value(&kernel.report).unwrap();
        let after = serde_json::to_value(&loaded[0].report).unwrap();
        prop_assert!(bits_equal(&before, &after), "report floats drifted:\n{before:?}\nvs\n{after:?}");
    }
}

#[test]
fn corrupt_lines_survive_and_are_counted() {
    let store = Store::open(tmpfile("corrupt"));
    let spec = GpuSpec::rtx4090();
    let op = OpSpec::gemm(256, 128, 256);
    let e = Etir::initial(op.clone(), &spec);
    let kernel = CompiledKernel {
        etir: e,
        report: simgpu::simulate(&Etir::initial(op.clone(), &spec), &spec).unwrap(),
        wall_time_s: 0.01,
        simulated_tuning_s: 0.0,
        candidates_evaluated: 1,
    };
    let rec = schedcache::store::record(
        CacheKey::new(&op, &spec, "Gensor"),
        op.label(),
        "Gensor",
        &kernel,
    );
    store.append(&rec).unwrap();
    // A crash-truncated tail after a good record.
    let mut text = std::fs::read_to_string(store.path()).unwrap();
    text.push_str(&text.clone()[..40]);
    std::fs::write(store.path(), &text).unwrap();
    let (loaded, rep) = store.load().unwrap();
    assert_eq!(loaded.len(), 1);
    assert_eq!(rep.loaded, 1);
    assert_eq!(rep.corrupt, 0, "a torn tail is recovery, not corruption");
    assert_eq!(
        rep.recovered_truncated, 1,
        "truncated tail counted, not fatal"
    );
}

/// A store written by an earlier build: its one line is the C1 record
/// `format_pins` pins (`ci/store_v1.jsonl`, which CI also feeds to
/// `gensor cache stats`). This build derives the same key for it, so the
/// record loads and answers the request as a hit.
#[test]
fn a_store_written_by_an_earlier_build_still_answers_hits() {
    let path = tmpfile("store-v1");
    std::fs::write(&path, include_str!("../../ci/store_v1.jsonl")).unwrap();
    let cache = ScheduleCache::open(&path).unwrap();
    let stats = cache.stats();
    assert_eq!((stats.loaded_from_disk, stats.version_skipped), (1, 0));
    let op = OpSpec::conv2d(128, 256, 30, 30, 256, 3, 3, 2, 0);
    let (kernel, outcome) = cache
        .get_or_compile(&op, &GpuSpec::rtx4090(), "Gensor", |_| {
            panic!("a banked key was rebuilt")
        })
        .unwrap();
    assert_eq!(outcome, Outcome::Hit);
    assert_eq!(kernel.etir.fingerprint(), 0xd128_38c6_04ec_e408);
}

/// A tuner that counts constructions and is slow enough that concurrent
/// requests genuinely race.
struct CountingTuner {
    builds: AtomicU64,
}

impl Tuner for CountingTuner {
    fn name(&self) -> &'static str {
        "Counting"
    }

    fn compile(&self, op: &OpSpec, spec: &GpuSpec) -> CompiledKernel {
        self.builds.fetch_add(1, Ordering::SeqCst);
        std::thread::sleep(std::time::Duration::from_millis(40));
        let e = Etir::initial(op.clone(), spec);
        let report = simgpu::simulate(&e, spec).unwrap();
        CompiledKernel {
            etir: e,
            report,
            wall_time_s: 0.04,
            simulated_tuning_s: 0.0,
            candidates_evaluated: 1,
        }
    }
}

#[test]
fn n_concurrent_identical_requests_run_one_construction() {
    let spec = GpuSpec::rtx4090();
    let op = OpSpec::gemm(1024, 512, 512);
    let inner = CountingTuner {
        builds: AtomicU64::new(0),
    };
    let cache = Arc::new(ScheduleCache::in_memory());
    let tuner = CachedTuner::new(&inner, cache.clone());

    let outcomes = crossbeam::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let tuner = &tuner;
                let op = &op;
                let spec = &spec;
                s.spawn(move |_| tuner.compile_verified(op, spec).unwrap().1)
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect::<Vec<_>>()
    })
    .unwrap();

    assert_eq!(
        inner.builds.load(Ordering::SeqCst),
        1,
        "exactly one construction across 8 concurrent identical requests"
    );
    assert_eq!(outcomes.iter().filter(|o| **o == Outcome::Built).count(), 1);
    let s = cache.stats();
    assert_eq!(s.misses, 1);
    assert_eq!(s.hits + s.coalesced, 7);
}

/// A model's schedules are a function of the model: compiled again and
/// again, each time through a fresh warm-starting cache, every layer gets
/// the same schedule. Layers warm-start from earlier layers' schedules, so this
/// holds only while the layers compile in one fixed order.
#[test]
fn a_model_compiles_to_the_same_schedules_through_a_fresh_cache() {
    let spec = GpuSpec::rtx4090();
    let graph = models::zoo::bert_small(1, 64);
    let gensor = Gensor::with_config(GensorConfig {
        chains: 2,
        ..GensorConfig::default()
    });
    let fingerprints = || {
        let cache = Arc::new(ScheduleCache::in_memory());
        let tuner = CachedTuner::for_gensor(&gensor, cache.clone());
        let cm = compile_model(&tuner, &graph, &spec);
        assert!(cache.stats().warm_starts > 0, "no layer warm-started");
        cm.kernels
            .iter()
            .map(|(name, k, _)| (name.clone(), k.etir.fingerprint()))
            .collect::<Vec<_>>()
    };
    let first = fingerprints();
    for run in 1..8 {
        assert_eq!(fingerprints(), first, "run {run} compiled other schedules");
    }
}

#[test]
fn warm_model_recompile_is_ten_times_faster_and_fully_cached() {
    let spec = GpuSpec::rtx4090();
    let graph = models::zoo::bert_small(4, 128);
    let gensor = Gensor::default();
    let cache = Arc::new(ScheduleCache::in_memory());
    let tuner = CachedTuner::for_gensor(&gensor, cache.clone());
    let unique = graph.fused_layers().count() as u64;

    let t0 = std::time::Instant::now();
    let cold = compile_model(&tuner, &graph, &spec);
    let cold_s = t0.elapsed().as_secs_f64();
    let after_cold = cache.stats();
    assert_eq!(
        after_cold.misses, unique,
        "every layer was constructed once"
    );
    assert_eq!(after_cold.hits, 0);

    let t1 = std::time::Instant::now();
    let warm = compile_model(&tuner, &graph, &spec);
    let warm_s = t1.elapsed().as_secs_f64();
    let after_warm = cache.stats();
    assert_eq!(
        after_warm.misses, unique,
        "no new constructions on re-compile"
    );
    assert_eq!(after_warm.hits, unique, "every layer answered from cache");

    assert_eq!(warm.pass_time_us, cold.pass_time_us, "identical schedules");
    assert_eq!(warm.tuning_s, 0.0, "hits carry zero tuning cost");
    assert!(
        cold_s >= warm_s * 10.0,
        "warm path must be ≥10× faster: cold {cold_s:.4}s vs warm {warm_s:.4}s"
    );
}

#[test]
fn cache_persists_schedules_across_reopen() {
    let path = tmpfile("reopen");
    let spec = GpuSpec::rtx4090();
    let op = OpSpec::gemm(768, 384, 768);
    let first_etir;
    {
        let inner = CountingTuner {
            builds: AtomicU64::new(0),
        };
        let cache = Arc::new(ScheduleCache::open(&path).unwrap());
        let tuner = CachedTuner::new(&inner, cache);
        let (k, o) = tuner.compile_verified(&op, &spec).unwrap();
        assert_eq!(o, Outcome::Built);
        first_etir = k.etir;
    }
    // "New process": reopen the same file; the schedule must come back
    // without any construction.
    let inner = CountingTuner {
        builds: AtomicU64::new(0),
    };
    let cache = Arc::new(ScheduleCache::open(&path).unwrap());
    assert_eq!(cache.stats().loaded_from_disk, 1);
    let tuner = CachedTuner::new(&inner, cache);
    let (k, o) = tuner.compile_verified(&op, &spec).unwrap();
    assert_eq!(o, Outcome::Hit);
    assert_eq!(k.etir, first_etir);
    assert_eq!(inner.builds.load(Ordering::SeqCst), 0);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn bit_flipped_record_is_rejected_at_load_and_never_served() {
    let path = tmpfile("verify-reject");
    let spec = GpuSpec::rtx4090();
    let op = OpSpec::gemm(768, 384, 768);
    {
        let inner = CountingTuner {
            builds: AtomicU64::new(0),
        };
        let cache = Arc::new(ScheduleCache::open(&path).unwrap());
        let tuner = CachedTuner::new(&inner, cache);
        let (_, o) = tuner.compile_verified(&op, &spec).unwrap();
        assert_eq!(o, Outcome::Built);
    }
    // Damage the banked record's *payload* in place: the line still parses
    // as a CacheRecord, but the schedule inside is illegal (an unroll
    // factor that is not a power of two).
    let line = std::fs::read_to_string(&path).unwrap();
    // Strip the `F1 <len> <crc>` frame to reach the JSON payload.
    let payload = line.trim().splitn(4, ' ').nth(3).unwrap();
    let mut rec: schedcache::CacheRecord = serde_json::from_str(payload).unwrap();
    rec.etir.unroll = 3;
    std::fs::write(
        &path,
        faults::framed::frame_line(&serde_json::to_string(&rec).unwrap()),
    )
    .unwrap();

    // "New process": the verifier refuses the record at load — counted,
    // not resident — and the request reruns the construction instead of
    // serving the damaged schedule.
    let inner = CountingTuner {
        builds: AtomicU64::new(0),
    };
    let cache = Arc::new(ScheduleCache::open(&path).unwrap());
    let stats = cache.stats();
    assert_eq!(stats.verifier_rejected, 1, "reject must be counted");
    assert_eq!(stats.corrupt_lines, 0, "the line itself parsed fine");
    assert_eq!(cache.len(), 0, "damaged record must not become resident");
    let tuner = CachedTuner::new(&inner, cache.clone());
    let (k, o) = tuner
        .compile_verified(&op, &spec)
        .expect("rebuilt schedule is legal");
    assert_eq!(o, Outcome::Built);
    assert_ne!(k.etir.unroll, 3);
    assert_eq!(
        inner.builds.load(Ordering::SeqCst),
        1,
        "rebuilt, not served"
    );
    let _ = std::fs::remove_file(&path);
}
