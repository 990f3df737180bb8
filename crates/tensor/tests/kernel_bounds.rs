//! A short operand panics at every kernel entry.
//!
//! The kernels are safe Rust over slices: each cuts its panels to
//! exactly the length the call needs and walks them as fixed-size
//! rows, merges into C rows sliced to the live corner, and pairs codec
//! and bias slices by length. So an operand one element too short is a
//! panic at the entry, never a read or write past its end. The
//! `#[should_panic]` tests call the entries of the backend this
//! process dispatches (`PDNN_BACKEND` picks it, and `scripts/verify.sh`
//! runs this crate's tests under scalar, avx2 and auto dispatch);
//! [`every_entry_on_every_isa_rejects_each_short_operand`] sweeps every
//! ISA and instantiation the host has in one process.

use std::panic::{catch_unwind, AssertUnwindSafe};

use pdnn_tensor::codec::{self, CodecFn, CodecPass};
use pdnn_tensor::gemm::backend::{AccFn, BtFn, Merge, TileFn};
use pdnn_tensor::gemm::{available_isas, backend_for, default_backend, BT_COLS, MR, NR};
use pdnn_tensor::vmath::{self, RowOp, RowOpFn};
use pdnn_tensor::Scalar;

/// Panel depth of every call.
const KC: usize = 5;

/// `len` ones, less `short` when `this` operand is the one cut.
fn ones<T: Scalar>(len: usize, this: Operand, cut: Operand, short: usize) -> Vec<T> {
    vec![T::ONE; len - if this == cut { short } else { 0 }]
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Operand {
    /// The A panel.
    A,
    /// The B panel, or one row of the streamed B^T.
    B,
    /// The C tile, or a codec pass's output.
    C,
}
use Operand::{A, B, C};

/// A ragged-corner tile call with operand `cut` `short` elements
/// shorter than the call needs.
fn tile_call<T: Scalar>(tile: TileFn<T>, cut: Operand, short: usize) {
    let (mr_eff, nr_eff, ldc) = (MR - 1, NR - 3, NR + 2);
    let ap = ones::<T>(KC * MR, A, cut, short);
    let bp = ones::<T>(KC * NR, B, cut, short);
    let mut c = ones::<T>((mr_eff - 1) * ldc + nr_eff, C, cut, short);
    tile(
        KC,
        &ap,
        &bp,
        T::ONE,
        Merge::Accumulate,
        &mut c,
        ldc,
        mr_eff,
        nr_eff,
    );
}

/// A whole-tile overwrite call (the accumulator is a fixed-size array,
/// so only the panels can be short).
fn acc_call(acc: AccFn<f32>, cut: Operand, short: usize) {
    let ap = ones::<f32>(KC * MR, A, cut, short);
    let bp = ones::<f32>(KC * NR, B, cut, short);
    acc(KC, &ap, &bp, &mut [[0.0; NR]; MR]);
}

/// A streamed-B^T call whose last B row is the one `B` cuts (the
/// accumulator is a fixed-size array).
fn bt_call<T: Scalar>(bt: BtFn<T>, cut: Operand, short: usize) {
    let ap = ones::<T>(KC * MR, A, cut, short);
    let full = vec![T::ONE; KC];
    let last = ones::<T>(KC, B, cut, short);
    bt(
        KC,
        &ap,
        [&full, &full, &full, &last],
        &mut [[T::ZERO; MR]; BT_COLS],
    );
}

/// Both bias passes over a row, with the bias `short` elements short.
fn row_call<T: Scalar>(row_op: RowOpFn<T>, short: usize) {
    for op in [RowOp::BiasSigmoid, RowOp::BiasTanh] {
        let bias = vec![T::ONE; 9 - short];
        row_op(op, &mut [T::ONE; 9], &bias);
    }
}

/// Every element-wise codec pass with `src` (cut `A`) or `out` (cut
/// `C`) `short` elements short.
fn codec_calls(pass: CodecFn, cut: Operand, short: usize) {
    let n = 9;
    let len = |this| n - if this == cut { short } else { 0 };
    let (x, h, q) = (vec![1.0f32; len(A)], vec![0u16; len(A)], vec![1i8; len(A)]);
    pass(CodecPass::F16Encode {
        src: &x,
        out: &mut vec![0; len(C)],
    });
    pass(CodecPass::F16Decode {
        src: &h,
        out: &mut vec![0.0; len(C)],
    });
    pass(CodecPass::I8Quantize {
        src: &x,
        scale: 0.5,
        out: &mut vec![0; len(C)],
    });
    pass(CodecPass::I8Decode {
        src: &q,
        scale: 0.5,
        out: &mut vec![0.0; len(C)],
    });
}

#[test]
#[should_panic(expected = "out of range for slice")]
fn tile_rejects_a_short_a_panel() {
    tile_call(default_backend().tile_f32(), A, 1);
}

#[test]
#[should_panic(expected = "out of range for slice")]
fn tile_rejects_a_short_b_panel() {
    tile_call(default_backend().tile_f64(), B, 1);
}

#[test]
#[should_panic(expected = "out of range for slice")]
fn tile_rejects_a_short_c_tile() {
    tile_call(default_backend().tile_f32(), C, 1);
}

#[test]
#[should_panic(expected = "out of range for slice")]
fn acc_rejects_a_short_b_panel() {
    acc_call(default_backend().acc_f32(), B, 1);
}

#[test]
#[should_panic(expected = "out of range for slice")]
fn bt_rejects_a_short_a_panel() {
    bt_call(default_backend().bt_f32(), A, 1);
}

#[test]
#[should_panic(expected = "out of range for slice")]
fn bt_rejects_a_short_b_row() {
    bt_call(default_backend().bt_f64(), B, 1);
}

#[test]
#[should_panic(expected = "out of range for slice")]
fn row_op_rejects_a_short_bias() {
    row_call(f32::row_op_kernel(), 1);
}

#[test]
#[should_panic(expected = "src and out lengths differ")]
fn codec_rejects_a_short_output() {
    codec_calls(codec::selected(), C, 1);
}

#[test]
#[should_panic(expected = "src and out lengths differ")]
fn codec_rejects_a_short_source() {
    codec_calls(codec::selected(), A, 1);
}

/// `call(0)` runs and `call(1)` panics.
fn exact_runs_short_panics(what: &str, call: impl Fn(usize)) {
    call(0);
    let short = catch_unwind(AssertUnwindSafe(|| call(1)));
    assert!(short.is_err(), "{what}: a short operand did not panic");
}

#[test]
fn every_entry_on_every_isa_rejects_each_short_operand() {
    for isa in available_isas() {
        let b = backend_for(isa).expect("listed as available");
        for cut in [A, B, C] {
            exact_runs_short_panics(&format!("{isa} tile_f32 {cut:?}"), |s| {
                tile_call(b.tile_f32(), cut, s)
            });
            exact_runs_short_panics(&format!("{isa} tile_f64 {cut:?}"), |s| {
                tile_call(b.tile_f64(), cut, s)
            });
        }
        for cut in [A, B] {
            exact_runs_short_panics(&format!("{isa} acc_f32 {cut:?}"), |s| {
                acc_call(b.acc_f32(), cut, s)
            });
            exact_runs_short_panics(&format!("{isa} bt_f32 {cut:?}"), |s| {
                bt_call(b.bt_f32(), cut, s)
            });
            exact_runs_short_panics(&format!("{isa} bt_f64 {cut:?}"), |s| {
                bt_call(b.bt_f64(), cut, s)
            });
        }
    }
    for (name, row_op) in vmath::instantiations::<f32>() {
        exact_runs_short_panics(&format!("{name} row op f32"), |s| row_call(row_op, s));
    }
    for (name, row_op) in vmath::instantiations::<f64>() {
        exact_runs_short_panics(&format!("{name} row op f64"), |s| row_call(row_op, s));
    }
    for (name, pass) in codec::instantiations() {
        for cut in [A, C] {
            exact_runs_short_panics(&format!("{name} codec {cut:?}"), |s| {
                codec_calls(pass, cut, s)
            });
        }
    }
}
