//! The persisted and wire bytes of a schedule are pinned.
//!
//! The two literals below are one store record (the JSON inside an `F1`
//! line frame) and one `Response::Compiled` frame body, both written by an
//! earlier build of this repository: the suite's C1 and M1 winners on the
//! RTX 4090 (`chains: 2`, seed `0xC0FFEE`, the rows `suite_golden` pins).
//! Each must decode, encode back to the same bytes, and keep its schedule's
//! `Etir::fingerprint`. As long as that holds, a change to how a schedule is
//! held in memory is invisible on disk and on the wire, so the store's
//! `FORMAT_VERSION`, the wire's `PROTO_VERSION` and the cache and verdict
//! epochs stay where they are. The record's key must also be the one this
//! build derives for its operator on the RTX 4090: every store and daemon
//! already deployed holds keys made that way.

use hardware::GpuSpec;
use schedcache::{CacheKey, CacheRecord, FORMAT_VERSION, POLICY_EPOCH};
use served::{Response, PROTO_VERSION};
use verify::VERIFIER_EPOCH;

const RECORD: &str = r#"{"v":1,"key":{"op_fp":9597200593419129377,"gpu_fp":1794868219910572335,"policy_fp":5325399439373068304},"op_label":"Conv2d[I=128x256x30x30,K=256x256x3x3,S=2]","method":"Gensor","etir":{"op":{"Conv2d":{"n":128,"c_in":256,"h":30,"w":30,"c_out":256,"kh":3,"kw":3,"stride":2,"pad":0}},"num_levels":2,"cur_level":1,"smem_tile":[4,16,16,8],"reg_tile":[1,4,4,1],"vthreads":[1,2,1,2],"reduce_tile":[8,4,4],"unroll":4},"report":{"time_us":1834.1381035181637,"gflops":16135.64920069658,"sm_occupancy":0.08333333333333333,"mem_busy":0.9692619199062151,"compute_throughput":0.22786490210671698,"l2_hit_rate":0.24574933576903085,"bank_conflict_degree":1.0,"dram_efficiency":0.9447069943289225,"grid_blocks":1024,"threads_per_block":128,"regs_per_thread":43,"smem_bytes_per_block":67712,"waves":8.0,"t_compute_us":417.9356994083659,"t_memory_us":1777.7602195891598,"t_latency_us":26.88},"candidates_evaluated":1160,"tuning_s":0.125}"#;
const RECORD_FINGERPRINT: u64 = 0xd12838c604ece408;

const COMPILED: &str = r#"{"Compiled":{"outcome":"Built","kernel":{"etir":{"op":{"Gemm":{"m":8192,"k":8192,"n":8192}},"num_levels":2,"cur_level":0,"smem_tile":[8,8],"reg_tile":[1,1],"vthreads":[1,1],"reduce_tile":[32],"unroll":8},"report":{"time_us":111839.2352526898,"gflops":9831.179775968256,"sm_occupancy":1.0,"mem_busy":0.983598015671824,"compute_throughput":0.12147997212311445,"l2_hit_rate":0.9486822840409955,"bank_conflict_degree":1.0,"dram_efficiency":0.75,"grid_blocks":1048576,"threads_per_block":64,"regs_per_thread":19,"smem_bytes_per_block":2048,"waves":341.3333333333333,"t_compute_us":13586.227180767197,"t_memory_us":110004.8498688,"t_latency_us":766.0799999999999},"wall_time_s":0.0625,"simulated_tuning_s":0.0,"candidates_evaluated":200}}}"#;
const COMPILED_FINGERPRINT: u64 = 0x2a9707f79bda1a91;

#[test]
fn a_store_record_round_trips_byte_for_byte() {
    let rec: CacheRecord = serde_json::from_str(RECORD).unwrap();
    assert_eq!(serde_json::to_string(&rec).unwrap(), RECORD);
    assert_eq!(rec.etir.fingerprint(), RECORD_FINGERPRINT);
    assert_eq!(rec.v, FORMAT_VERSION);
    let key = CacheKey::new(&rec.etir.op, &GpuSpec::rtx4090(), &rec.method);
    assert_eq!(rec.key, key, "a banked record's key moved");
}

#[test]
fn a_compiled_frame_round_trips_byte_for_byte() {
    let resp: Response = serde_json::from_str(COMPILED).unwrap();
    let mut frame = Vec::new();
    served::proto::write_frame(&mut frame, &resp).unwrap();
    let (header, body) = frame.split_at(4);
    assert_eq!(header, (COMPILED.len() as u32).to_be_bytes());
    assert_eq!(std::str::from_utf8(body).unwrap(), COMPILED);
    let Response::Compiled { kernel, .. } = resp else {
        panic!("not a Compiled frame: {resp:?}");
    };
    assert_eq!(kernel.etir.fingerprint(), COMPILED_FINGERPRINT);
}

#[test]
fn format_and_epoch_constants_hold() {
    assert_eq!(
        (PROTO_VERSION, FORMAT_VERSION, POLICY_EPOCH, VERIFIER_EPOCH),
        (11, 1, 1, 4)
    );
}
