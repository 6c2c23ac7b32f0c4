//! Golden schedules: the Gensor winner of every Table IV row on both
//! evaluation devices, pinned by `Etir::fingerprint()`.
//!
//! The walk is deterministic in its seed, so any change that is meant to be
//! a pure refactor or speed-up of the walk must leave this table untouched.
//! On a mismatch the test prints the whole table as it is now, ready to
//! paste back in when a change of schedules is intended.

use gensor::{Gensor, GensorConfig};
use hardware::GpuSpec;
use simgpu::Tuner;

/// `(row label, device name, winner fingerprint)`.
const GOLDEN: &[(&str, &str, u64)] = &[
    ("C1", "NVIDIA RTX 4090", 0xd12838c604ece408),
    ("C2", "NVIDIA RTX 4090", 0x56ab36a7a588a2c6),
    ("C3", "NVIDIA RTX 4090", 0x7dbb04a0d847afcf),
    ("C4", "NVIDIA RTX 4090", 0x8866851b41f41d8e),
    ("C5", "NVIDIA RTX 4090", 0xc2672314f2ec8ff4),
    ("C6", "NVIDIA RTX 4090", 0xc141599cda6c1497),
    ("C7", "NVIDIA RTX 4090", 0x19d734e18c4c05c4),
    ("C8", "NVIDIA RTX 4090", 0xfdc9a6cd32ec28f9),
    ("M1", "NVIDIA RTX 4090", 0x2a9707f79bda1a91),
    ("M2", "NVIDIA RTX 4090", 0xf139cceea8975b15),
    ("M3", "NVIDIA RTX 4090", 0xe9aed1732b44fc65),
    ("M4", "NVIDIA RTX 4090", 0xf69278a6dcda942d),
    ("M5", "NVIDIA RTX 4090", 0xc529a190a68d3d2d),
    ("M6", "NVIDIA RTX 4090", 0x38e69c080d5d4c1b),
    ("M7", "NVIDIA RTX 4090", 0xb63f8e015ab3653e),
    ("M8", "NVIDIA RTX 4090", 0x7cd1ca3b63292508),
    ("V1", "NVIDIA RTX 4090", 0xb48dea5c13a745f0),
    ("V2", "NVIDIA RTX 4090", 0x6a7b0d8399a61812),
    ("V3", "NVIDIA RTX 4090", 0x0206e1f9ac9ad555),
    ("V4", "NVIDIA RTX 4090", 0xe868ffd65d99e50d),
    ("V5", "NVIDIA RTX 4090", 0x64caaa2d3d6c3f3f),
    ("V6", "NVIDIA RTX 4090", 0xcc8668a0252c7091),
    ("V7", "NVIDIA RTX 4090", 0xbf77e9dcd7c9210a),
    ("V8", "NVIDIA RTX 4090", 0xd7b6916040e67303),
    ("P1", "NVIDIA RTX 4090", 0xf7f279fe8a85f323),
    ("P2", "NVIDIA RTX 4090", 0xc8f3d0b81b6e45e2),
    ("P3", "NVIDIA RTX 4090", 0x2498ccb663d19a6e),
    ("P4", "NVIDIA RTX 4090", 0xa278b029a86f4846),
    ("P5", "NVIDIA RTX 4090", 0x4ab410aeb000cc6b),
    ("P6", "NVIDIA RTX 4090", 0xa4b17d3a6fd0767b),
    ("P7", "NVIDIA RTX 4090", 0x70bd54e7110e0052),
    ("P8", "NVIDIA RTX 4090", 0xfc9289c84de6ff0f),
    ("C1", "NVIDIA Orin Nano", 0x7447b62fe6875872),
    ("C2", "NVIDIA Orin Nano", 0x86582de2a49f93ee),
    ("C3", "NVIDIA Orin Nano", 0xffd399cde567fca8),
    ("C4", "NVIDIA Orin Nano", 0x22c06a3d4f64a796),
    ("C5", "NVIDIA Orin Nano", 0xc6ffe277c6b72322),
    ("C6", "NVIDIA Orin Nano", 0x62088920ad2ed937),
    ("C7", "NVIDIA Orin Nano", 0xbc50203891f21d9b),
    ("C8", "NVIDIA Orin Nano", 0x3995e0148c8a95da),
    ("M1", "NVIDIA Orin Nano", 0x3787785b19827b79),
    ("M2", "NVIDIA Orin Nano", 0xb611d3f3fbddc155),
    ("M3", "NVIDIA Orin Nano", 0x2dd25798808320c4),
    ("M4", "NVIDIA Orin Nano", 0xd972bf8c54dfb4c7),
    ("M5", "NVIDIA Orin Nano", 0x0e4fd2195db60494),
    ("M6", "NVIDIA Orin Nano", 0x8668d4567cb6097c),
    ("M7", "NVIDIA Orin Nano", 0xe548b698ceba0bfb),
    ("M8", "NVIDIA Orin Nano", 0xc66223364ed2c1cb),
    ("V1", "NVIDIA Orin Nano", 0x9efffdf1e0a114be),
    ("V2", "NVIDIA Orin Nano", 0x5c97608e9f0f9a12),
    ("V3", "NVIDIA Orin Nano", 0x0fea8eeea7315355),
    ("V4", "NVIDIA Orin Nano", 0x30bd2550845ba10d),
    ("V5", "NVIDIA Orin Nano", 0x009bbba7d78fff3f),
    ("V6", "NVIDIA Orin Nano", 0xd1668bebbf416c01),
    ("V7", "NVIDIA Orin Nano", 0xb1943ce7dd32a30a),
    ("V8", "NVIDIA Orin Nano", 0xc9d2e46b464ff503),
    ("P1", "NVIDIA Orin Nano", 0x974a03e90883757f),
    ("P2", "NVIDIA Orin Nano", 0xc76a63ef666aad55),
    ("P3", "NVIDIA Orin Nano", 0x2498ccb663d19a6e),
    ("P4", "NVIDIA Orin Nano", 0xf431eac2efc569f1),
    ("P5", "NVIDIA Orin Nano", 0x4ab410aeb000cc6b),
    ("P6", "NVIDIA Orin Nano", 0xd712d616298dfb32),
    ("P7", "NVIDIA Orin Nano", 0x4b45c88c5c3a3ac6),
    ("P8", "NVIDIA Orin Nano", 0xecc1a7beea29aa3c),
];

#[test]
fn suite_winners_match_the_golden_fingerprints() {
    let gensor = Gensor::with_config(GensorConfig {
        chains: 2,
        seed: 0xC0FFEE,
        ..GensorConfig::default()
    });
    let mut actual = Vec::new();
    for spec in [GpuSpec::rtx4090(), GpuSpec::orin_nano()] {
        for cfg in tensor_expr::benchmark_suite() {
            let fp = gensor.compile(&cfg.op, &spec).etir.fingerprint();
            actual.push((cfg.label, spec.name.clone(), fp));
        }
    }
    let got: Vec<(&str, &str, u64)> = actual
        .iter()
        .map(|(l, d, fp)| (l.as_str(), d.as_str(), *fp))
        .collect();
    if got != GOLDEN {
        let table: String = got
            .iter()
            .map(|(l, d, fp)| format!("    ({l:?}, {d:?}, {fp:#018x}),\n"))
            .collect();
        panic!("suite winners changed; the table is now:\n{table}");
    }
}
