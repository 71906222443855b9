//! Property tests on the kernel IR's data plane: reduction-operator
//! algebra, buffer range copies, and interpreter determinism.

use acc_kernel_ir::interp::{rmw_apply, rmw_apply_slice, rmw_identity};
use acc_kernel_ir::{
    run_kernel_range, BufAccess, BufId, BufParam, Buffer, BufSlot, ExecCtx, Expr, Kernel,
    RmwOp, Stmt, Ty, Value,
};
use proptest::prelude::*;

fn arb_op() -> impl Strategy<Value = RmwOp> {
    prop_oneof![
        Just(RmwOp::Add),
        Just(RmwOp::Mul),
        Just(RmwOp::Min),
        Just(RmwOp::Max)
    ]
}

/// Lanes where wrapping `+` / `*` overflow.
const I32_EDGES: [i32; 6] = [i32::MIN, i32::MIN + 1, -1, 0, 1, i32::MAX];

/// Bit patterns a float lane must carry exactly: quiet and signalling
/// NaNs with payloads (both signs), ±0, ±inf, the smallest and largest
/// subnormals (both signs) and the finite extremes.
const F32_EDGES: [u32; 13] = [
    0x7fc0_0000,
    0x7fc1_2345,
    0xffc0_0001,
    0x7f80_0001,
    0xffa5_a5a5,
    0x0000_0000,
    0x8000_0000,
    0x7f80_0000,
    0xff80_0000,
    0x0000_0001,
    0x807f_ffff,
    0x7f7f_ffff,
    0xff7f_ffff,
];
const F64_EDGES: [u64; 13] = [
    0x7ff8_0000_0000_0000,
    0x7ff8_0000_dead_beef,
    0xfff8_0000_0000_0001,
    0x7ff0_0000_0000_0001,
    0xfff5_a5a5_a5a5_a5a5,
    0x0000_0000_0000_0000,
    0x8000_0000_0000_0000,
    0x7ff0_0000_0000_0000,
    0xfff0_0000_0000_0000,
    0x0000_0000_0000_0001,
    0x800f_ffff_ffff_ffff,
    0x7fef_ffff_ffff_ffff,
    0xffef_ffff_ffff_ffff,
];

fn arb_i32() -> impl Strategy<Value = i32> {
    prop_oneof![
        -1000i32..1000,
        i32::MIN..=i32::MAX,
        (0..I32_EDGES.len()).prop_map(|i| I32_EDGES[i]),
    ]
}

fn arb_f32() -> impl Strategy<Value = f32> {
    prop_oneof![
        -1e6f32..1e6,
        (0..=u32::MAX).prop_map(f32::from_bits),
        (0..F32_EDGES.len()).prop_map(|i| f32::from_bits(F32_EDGES[i])),
    ]
}

fn arb_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        -1e6f64..1e6,
        (0..=u64::MAX).prop_map(f64::from_bits),
        (0..F64_EDGES.len()).prop_map(|i| f64::from_bits(F64_EDGES[i])),
    ]
}

fn is_nan(v: Value) -> bool {
    match v {
        Value::F32(x) => x.is_nan(),
        Value::F64(x) => x.is_nan(),
        _ => false,
    }
}

/// Fold `src` into `dst` with the typed-slice pass and with one
/// `rmw_apply` per element, and compare the two results bit for bit —
/// `Value`'s `PartialEq` would report every NaN lane as a mismatch.
/// The one exception is a lane whose inputs are both NaN: Rust leaves
/// the payload of such a result open (either input's, or the preferred
/// NaN — and codegen may commute `+` / `*`), so it only has to be NaN.
fn slice_fold_matches(op: RmwOp, mut dst: Buffer, src: &Buffer) -> Result<(), TestCaseError> {
    let before = dst.clone();
    let mut expect = dst.clone();
    for i in 0..dst.len() {
        expect.set(i, rmw_apply(op, dst.get(i), src.get(i)).unwrap());
    }
    rmw_apply_slice(op, dst.ty(), dst.bytes_mut(), src.bytes());
    let lane = dst.ty().size_bytes();
    let lanes = dst.bytes().chunks(lane).zip(expect.bytes().chunks(lane));
    for (i, (got, want)) in lanes.enumerate() {
        let (x, y) = (before.get(i), src.get(i));
        if is_nan(x) && is_nan(y) {
            prop_assert!(
                is_nan(dst.get(i)),
                "{:?} lane {}: {:?} with {:?}",
                op,
                i,
                x,
                y
            );
        } else {
            prop_assert_eq!(got, want, "{:?} lane {}: {:?} with {:?}", op, i, x, y);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Integer reductions are associative and commutative (the property
    /// the multi-GPU tree merge relies on), and the identity is neutral.
    #[test]
    fn int_rmw_is_a_commutative_monoid(
        op in arb_op(),
        a in -1000i32..1000,
        b in -1000i32..1000,
        c in -1000i32..1000,
    ) {
        let v = |x| Value::I32(x);
        let ap = |x, y| rmw_apply(op, x, y).unwrap();
        prop_assert_eq!(ap(v(a), v(b)), ap(v(b), v(a)));
        prop_assert_eq!(ap(ap(v(a), v(b)), v(c)), ap(v(a), ap(v(b), v(c))));
        let id = rmw_identity(op, Ty::I32);
        prop_assert_eq!(ap(id, v(a)), v(a));
        prop_assert_eq!(ap(v(a), id), v(a));
    }

    /// Range copies move exactly the requested window and nothing else.
    #[test]
    fn buffer_range_copy_is_exact(
        n in 1usize..200,
        src_vals in prop::collection::vec(-100i32..100, 1..200),
        dst_start in 0usize..200,
        src_start in 0usize..200,
        len in 0usize..200,
    ) {
        let n = n.max(src_vals.len());
        let mut src_data = src_vals.clone();
        src_data.resize(n, 0);
        let src = Buffer::from_i32(&src_data);
        let mut dst = Buffer::from_i32(&vec![7i32; n]);
        let dst_start = dst_start % n;
        let src_start = src_start % n;
        let len = len.min(n - dst_start).min(n - src_start);
        let moved = dst.copy_range_from(dst_start, &src, src_start, len);
        prop_assert_eq!(moved, len * 4);
        let out = dst.to_i32_vec();
        for i in 0..n {
            if i >= dst_start && i < dst_start + len {
                prop_assert_eq!(out[i], src_data[src_start + i - dst_start]);
            } else {
                prop_assert_eq!(out[i], 7);
            }
        }
    }

    /// The typed-slice reduction merge — the runtime's only fold —
    /// computes bit for bit what the per-element scalar path computes,
    /// for every operator and storable type, edge values included.
    #[test]
    fn rmw_slice_equals_per_element(
        op in arb_op(),
        ints in prop::collection::vec((arb_i32(), arb_i32()), 1..64),
        f32s in prop::collection::vec((arb_f32(), arb_f32()), 1..64),
        f64s in prop::collection::vec((arb_f64(), arb_f64()), 1..64),
    ) {
        let (d, s): (Vec<i32>, Vec<i32>) = ints.into_iter().unzip();
        slice_fold_matches(op, Buffer::from_i32(&d), &Buffer::from_i32(&s))?;
        let (d, s): (Vec<f32>, Vec<f32>) = f32s.into_iter().unzip();
        slice_fold_matches(op, Buffer::from_f32(&d), &Buffer::from_f32(&s))?;
        let (d, s): (Vec<f64>, Vec<f64>) = f64s.into_iter().unzip();
        slice_fold_matches(op, Buffer::from_f64(&d), &Buffer::from_f64(&s))?;
    }

    /// Splitting an iteration space across "GPUs" in any way produces the
    /// same buffer contents and the same total counted work as one pass
    /// (the BSP foundation: iterations are independent).
    #[test]
    fn split_execution_equals_whole_execution(
        n in 1i64..120,
        cut in 0i64..120,
        data in prop::collection::vec(-50i32..50, 1..120),
    ) {
        let n = n.min(data.len() as i64);
        let cut = cut.clamp(0, n);
        // Kernel: out[i] = a[i] * 3 - 1
        let k = Kernel {
            name: "t".into(),
            params: vec![],
            bufs: vec![
                BufParam { name: "a".into(), ty: Ty::I32, access: BufAccess::Read },
                BufParam { name: "out".into(), ty: Ty::I32, access: BufAccess::Write },
            ],
            locals: vec![],
            reductions: vec![],
            body: vec![Stmt::Store {
                buf: BufId(1),
                idx: Expr::ThreadIdx,
                value: Expr::sub(
                    Expr::mul(Expr::load(BufId(0), Expr::ThreadIdx), Expr::imm_i32(3)),
                    Expr::imm_i32(1),
                ),
                dirty: false,
                checked: false,
            }],
        };
        let run_split = |ranges: &[(i64, i64)]| {
            let mut a = Buffer::from_i32(&data[..n as usize]);
            let mut out = Buffer::zeroed(Ty::I32, n as usize);
            let mut total_threads = 0;
            for &(lo, hi) in ranges {
                let mut ctx = ExecCtx::new(
                    &k,
                    vec![],
                    vec![BufSlot::whole(&mut a), BufSlot::whole(&mut out)],
                );
                run_kernel_range(&k, &mut ctx, lo, hi).unwrap();
                total_threads += ctx.counters.threads;
            }
            (out.to_i32_vec(), total_threads)
        };
        let (whole, t1) = run_split(&[(0, n)]);
        let (split, t2) = run_split(&[(0, cut), (cut, n)]);
        prop_assert_eq!(whole, split);
        prop_assert_eq!(t1, t2);
        prop_assert_eq!(t1, n as u64);
    }
}
