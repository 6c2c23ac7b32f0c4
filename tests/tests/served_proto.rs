//! Property tests for the serve daemon's wire protocol: every frame
//! round-trips bit-exactly through the length-prefixed encoding, frames
//! stream back-to-back without desync, and damaged input is rejected
//! with a typed error instead of garbage data.

use etir::{Action, Etir};
use hardware::GpuSpec;
use proptest::prelude::*;
use served::proto::{read_frame, write_frame, FrameError};
use served::{ErrKind, Request, Response, WireKernel, WireOutcome, PROTO_VERSION};
use std::io::Cursor;
use tensor_expr::OpSpec;

fn arb_op() -> impl Strategy<Value = OpSpec> {
    prop_oneof![
        (8u64..512, 8u64..256, 8u64..512).prop_map(|(m, k, n)| OpSpec::gemm(m, k, n)),
        (16u64..1024, 8u64..256).prop_map(|(m, n)| OpSpec::gemv(m, n)),
        (1u64..4, 1u64..16, 7u64..30, 1u64..16).prop_map(|(n, ci, hw, co)| {
            OpSpec::conv2d(n, ci, hw, hw, co, 3.min(hw), 3.min(hw), 1, 1)
        }),
    ]
}

fn arb_gpu() -> impl Strategy<Value = GpuSpec> {
    (0usize..3).prop_map(|i| match i {
        0 => GpuSpec::rtx4090(),
        1 => GpuSpec::a100(),
        _ => GpuSpec::orin_nano(),
    })
}

fn arb_method() -> impl Strategy<Value = String> {
    (0usize..5).prop_map(|i| ["gensor", "roller", "ansor", "cublas", "pytorch"][i].to_string())
}

/// A feasible schedule: a pseudo-random action walk from the initial
/// state, keeping only states that still fit the memory hierarchy.
fn arb_kernel(op: &OpSpec, spec: &GpuSpec, choices: &[u8]) -> WireKernel {
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
    let report = simgpu::simulate(&e, spec).expect("walk kept feasibility");
    WireKernel {
        etir: e,
        report,
        wall_time_s: 0.125,
        simulated_tuning_s: 3.5,
        candidates_evaluated: choices.len() as u64,
    }
}

fn round_trip_request(req: &Request) -> Request {
    let mut buf = Vec::new();
    write_frame(&mut buf, req).unwrap();
    read_frame(&mut Cursor::new(buf)).unwrap()
}

fn round_trip_response(resp: &Response) -> Response {
    let mut buf = Vec::new();
    write_frame(&mut buf, resp).unwrap();
    read_frame(&mut Cursor::new(buf)).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Compile requests survive the wire bit-for-bit, whatever the
    /// operator, device, method, or budget.
    #[test]
    fn compile_requests_round_trip(
        op in arb_op(),
        gpu in arb_gpu(),
        method in arb_method(),
        budget_raw in 0u32..2000,
    ) {
        let budget = (budget_raw > 0).then_some(budget_raw);
        let req = Request::Compile { op, gpu, method, budget };
        prop_assert_eq!(round_trip_request(&req), req);
    }

    /// Compiled responses round-trip: the schedule and its simulated
    /// profile come back identical to what the server sent.
    #[test]
    fn compiled_responses_round_trip(
        op in arb_op(),
        gpu in arb_gpu(),
        choices in proptest::collection::vec(any::<u8>(), 0..20),
        outcome_raw in 0usize..3,
    ) {
        let outcome = [WireOutcome::Built, WireOutcome::Hit, WireOutcome::Coalesced][outcome_raw];
        let kernel = arb_kernel(&op, &gpu, &choices);
        let resp = Response::Compiled { outcome, kernel };
        prop_assert_eq!(round_trip_response(&resp), resp);
    }

    /// Many frames written back-to-back into one stream read back in
    /// order — no desync, no bleed between frames.
    #[test]
    fn frame_streams_never_desync(
        ops in proptest::collection::vec(arb_op(), 1..8),
        gpu in arb_gpu(),
        method in arb_method(),
    ) {
        let reqs: Vec<Request> = ops
            .into_iter()
            .map(|op| Request::Compile {
                op,
                gpu: gpu.clone(),
                method: method.clone(),
                budget: None,
            })
            .collect();
        let mut buf = Vec::new();
        for r in &reqs {
            write_frame(&mut buf, r).unwrap();
        }
        let mut cur = Cursor::new(buf);
        for want in &reqs {
            let got: Request = read_frame(&mut cur).unwrap();
            prop_assert_eq!(&got, want);
        }
        prop_assert!(matches!(
            read_frame::<_, Request>(&mut cur),
            Err(FrameError::Closed)
        ));
    }

    /// Truncating an encoded frame anywhere — header or payload — yields
    /// a typed error, never a mis-decoded value.
    #[test]
    fn truncated_frames_are_rejected(
        op in arb_op(),
        gpu in arb_gpu(),
        cut_raw in 0u64..u64::MAX,
    ) {
        let req = Request::Compile { op, gpu, method: "gensor".into(), budget: Some(7) };
        let mut buf = Vec::new();
        write_frame(&mut buf, &req).unwrap();
        let cut = 1 + (cut_raw as usize) % (buf.len() - 1);
        buf.truncate(cut);
        let err = read_frame::<_, Request>(&mut Cursor::new(buf)).unwrap_err();
        prop_assert!(
            matches!(err, FrameError::Truncated),
            "cut at {cut} gave {err:?}"
        );
    }

    /// Flipping bytes inside the payload never yields a silently wrong
    /// frame: either it decodes to exactly the original (the flip hit
    /// redundant JSON whitespace — impossible here — or was a no-op) or
    /// it errors.
    #[test]
    fn corrupted_payloads_error_or_decode_exactly(
        op in arb_op(),
        gpu in arb_gpu(),
        pos_raw in 0u64..u64::MAX,
        flip in 1u8..=255,
    ) {
        let req = Request::Compile { op, gpu, method: "roller".into(), budget: None };
        let mut buf = Vec::new();
        write_frame(&mut buf, &req).unwrap();
        let pos = 4 + (pos_raw as usize) % (buf.len() - 4);
        buf[pos] ^= flip;
        match read_frame::<_, Request>(&mut Cursor::new(buf)) {
            Err(FrameError::Malformed(_) | FrameError::Truncated | FrameError::TooLarge(_)) => {}
            Err(other) => prop_assert!(false, "unexpected error class: {other:?}"),
            Ok(decoded) => {
                // A byte flip that still parses must have produced a
                // *different* value (e.g. a digit change) — never the
                // original by accident, and never a panic downstream.
                prop_assert!(decoded != req, "flip at {pos} was invisible");
            }
        }
    }
}

/// The version constant is wired into `Hello` both ways.
#[test]
fn hello_frames_carry_the_version() {
    let req = round_trip_request(&Request::Hello {
        proto: PROTO_VERSION,
        token: None,
    });
    assert_eq!(
        req,
        Request::Hello {
            proto: 11,
            token: None
        }
    );
    let resp = round_trip_response(&Response::Error {
        kind: ErrKind::UnsupportedProto,
        message: "server speaks proto 7".into(),
    });
    assert!(matches!(
        resp,
        Response::Error {
            kind: ErrKind::UnsupportedProto,
            ..
        }
    ));
}
