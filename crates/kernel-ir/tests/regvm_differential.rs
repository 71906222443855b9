//! Differential tests: the statically typed register tier against the
//! AST walker reference.
//!
//! `regvm::compile` types a kernel's statement tree bottom-up and emits
//! one type-specialised three-address op per interior node on an untagged
//! `u64` frame, or refuses a kernel it cannot statically type;
//! `regvm::run_compiled` runs the code. Nothing observable may differ
//! from the tree walk: buffer bytes, dirty bits,
//! miss records (with their *uncast* values), reduction partials,
//! `OpCounters`, per-buffer byte tallies, the sanitizer log, and the exact
//! `ExecError` — with the counters of the half-finished thread — on
//! failure. The risks of this design are what the curated kernels target:
//! a destination that occurs in its own value, temps that must outlive a
//! sibling's evaluation, raw-bit representations at the edges of each
//! type, and the typing rules themselves — every rejection rule has a
//! negative test asserting that `compile(..)` is `Err` where the walker
//! raises a `TypeError` (or runs clean), and the random sweep asserts a
//! floor on the share of kernels that compile, so the equalities cannot
//! go vacuous. Walker-vs-bytecode parity on the kernels refused here is
//! `bytecode_differential.rs`'s.

use acc_kernel_ir::kernel::ValidationError;
use acc_kernel_ir::regvm;
use acc_kernel_ir::{
    run_kernel_range_ast, BinOp, BufAccess, BufId, BufParam, BufSanitize, BufSlot, Buffer, Builtin,
    DirtyMap, ExecCtx, ExecError, Expr, Kernel, LocalId, MissRecord, OpCounters, ParamId, RmwOp,
    SanitizeRecord, ScalarParam, ScalarReduction, Stmt, Ty, UnOp, Value,
};
use proptest::prelude::*;

/// Everything observable after a launch, for equality assertions,
/// including the sanitizer log: its records are order-sensitive.
#[derive(Debug, PartialEq)]
struct Outcome {
    result: Result<(), ExecError>,
    bufs: Vec<Vec<u8>>,
    dirty_bits: Vec<Option<Vec<bool>>>,
    counters: OpCounters,
    per_buf_bytes: Vec<(u64, u64)>,
    misses: Vec<(u32, i64, Bits)>,
    reductions: Vec<Bits>,
    sanitize_log: Vec<SanitizeRecord>,
    sanitize_hits: u64,
}

/// A value as its type and bit pattern: `Value`'s own equality would
/// call a NaN unequal to itself.
type Bits = (Ty, u64);

fn raw(v: Value) -> Bits {
    let mut word = [0u8; 8];
    v.write_le(&mut word);
    (v.ty(), u64::from_le_bytes(word))
}

/// The `i32`s a buffer's bytes hold.
fn i32s(bytes: &[u8]) -> Vec<i32> {
    bytes
        .chunks(4)
        .map(|c| i32::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

/// Per-buffer launch binding: the resident window and owned range.
#[derive(Debug, Clone, Copy)]
struct Binding {
    window_lo: i64,
    own: (i64, i64),
    dirty: bool,
}

impl Binding {
    fn whole(n: usize) -> Binding {
        Binding {
            window_lo: 0,
            own: (0, n as i64),
            dirty: false,
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn run_one(
    k: &Kernel,
    params: &[Value],
    init: &[Buffer],
    bindings: &[Binding],
    sanitize: &[BufSanitize],
    miss_capacity: usize,
    lo: i64,
    hi: i64,
    ast: bool,
) -> Result<Outcome, ValidationError> {
    let reg = if ast { None } else { Some(regvm::compile(k)?) };
    let mut bufs: Vec<Buffer> = init.to_vec();
    let mut dirty: Vec<Option<DirtyMap>> = bufs
        .iter()
        .zip(bindings)
        .map(|(b, bind)| {
            bind.dirty
                .then(|| DirtyMap::new(b.len(), b.ty().size_bytes(), 64))
        })
        .collect();
    let slots: Vec<BufSlot<'_>> = bufs
        .iter_mut()
        .zip(dirty.iter_mut())
        .zip(bindings)
        .map(|((data, dm), bind)| BufSlot {
            data,
            window_lo: bind.window_lo,
            own: bind.own,
            dirty: dm.as_mut(),
        })
        .collect();
    let mut ctx = ExecCtx::new(k, params.to_vec(), slots);
    ctx.miss_capacity = miss_capacity;
    ctx.sanitize = sanitize.to_vec();
    let result = match &reg {
        None => run_kernel_range_ast(k, &mut ctx, lo, hi),
        Some(rc) => {
            assert!(
                regvm::launch_types_match(k, &ctx),
                "`{}`: launch types",
                k.name
            );
            regvm::run_compiled(rc, &mut ctx, lo, hi)
        }
    };
    let counters = ctx.counters;
    let per_buf_bytes = ctx.per_buf_bytes.clone();
    let record = |m: &MissRecord| (m.buf, m.idx, raw(m.value));
    let misses = ctx.miss_buf.iter().map(record).collect();
    let reductions = ctx.reduction_partials.iter().copied().map(raw).collect();
    let sanitize_log = ctx.sanitize_log.clone();
    let sanitize_hits = ctx.sanitize_hits;
    drop(ctx);
    Ok(Outcome {
        result,
        bufs: bufs.iter().map(|b| b.bytes().to_vec()).collect(),
        dirty_bits: dirty
            .iter()
            .map(|dm| {
                dm.as_ref()
                    .map(|d| (0..d.len()).map(|i| d.is_dirty(i)).collect())
            })
            .collect(),
        counters,
        per_buf_bytes,
        misses,
        reductions,
        sanitize_log,
        sanitize_hits,
    })
}

/// Walker against register tier on one launch; the kernel must compile.
#[allow(clippy::too_many_arguments)]
fn assert_regvm_agrees(
    k: &Kernel,
    params: &[Value],
    init: &[Buffer],
    bindings: &[Binding],
    sanitize: &[BufSanitize],
    miss_capacity: usize,
    lo: i64,
    hi: i64,
) -> Outcome {
    let walker = run_one(
        k,
        params,
        init,
        bindings,
        sanitize,
        miss_capacity,
        lo,
        hi,
        true,
    )
    .expect("the walker compiles nothing");
    let reg = run_one(
        k,
        params,
        init,
        bindings,
        sanitize,
        miss_capacity,
        lo,
        hi,
        false,
    )
    .unwrap_or_else(|e| panic!("`{}` must take the register tier: {e}", k.name));
    assert_eq!(
        walker, reg,
        "register VM diverged from walker on `{}`",
        k.name
    );
    reg
}

fn i32_param(name: &str) -> ScalarParam {
    ScalarParam {
        name: name.into(),
        ty: Ty::I32,
    }
}

fn buf(name: &str, ty: Ty, access: BufAccess) -> BufParam {
    BufParam {
        name: name.into(),
        ty,
        access,
    }
}

fn local(i: u32) -> Expr {
    Expr::Local(LocalId(i))
}
fn param(i: u32) -> Expr {
    Expr::Param(ParamId(i))
}
fn imm(v: i32) -> Expr {
    Expr::imm_i32(v)
}

/// The BFS edge-scan shape: loads, a nested frontier test, a dirty store
/// to a replicated array, and a scalar reduction.
fn bfs_like_kernel() -> Kernel {
    Kernel {
        name: "bfs_like".into(),
        params: vec![i32_param("level"), i32_param("n"), i32_param("pad")],
        bufs: vec![
            buf("src", Ty::I32, BufAccess::Read),
            buf("dst", Ty::I32, BufAccess::Read),
            buf("levels", Ty::I32, BufAccess::ReadWrite),
        ],
        locals: vec![Ty::I32, Ty::I32, Ty::I32],
        reductions: vec![ScalarReduction {
            var: "changed".into(),
            ty: Ty::I32,
            op: RmwOp::Add,
        }],
        body: vec![
            Stmt::Assign {
                local: LocalId(0),
                value: param(0),
            },
            Stmt::Assign {
                local: LocalId(1),
                value: param(1),
            },
            Stmt::Assign {
                local: LocalId(2),
                value: param(2),
            },
            Stmt::Assign {
                local: LocalId(1),
                value: Expr::load(BufId(0), Expr::ThreadIdx),
            },
            Stmt::If {
                cond: Expr::bin(BinOp::Eq, Expr::load(BufId(2), local(1)), local(0)),
                then_: vec![
                    Stmt::Assign {
                        local: LocalId(2),
                        value: Expr::load(BufId(1), Expr::ThreadIdx),
                    },
                    Stmt::If {
                        cond: Expr::bin(BinOp::Lt, Expr::load(BufId(2), local(2)), imm(0)),
                        then_: vec![
                            Stmt::Store {
                                buf: BufId(2),
                                idx: local(2),
                                value: Expr::add(local(0), imm(1)),
                                dirty: true,
                                checked: false,
                            },
                            Stmt::ReduceScalar {
                                slot: 0,
                                op: RmwOp::Add,
                                value: imm(1),
                            },
                        ],
                        else_: vec![],
                    },
                ],
                else_: vec![],
            },
        ],
    }
}

/// A kernel touching every construct at once:
/// while/break/continue, ternary select, short-circuit logic, casts,
/// builtin calls, division, unary ops, atomic RMW, and checked
/// (write-miss) stores.
fn kitchen_sink_kernel() -> Kernel {
    Kernel {
        name: "kitchen_sink".into(),
        params: vec![i32_param("limit"), i32_param("divisor")],
        bufs: vec![
            buf("a", Ty::I32, BufAccess::Read),
            buf("out", Ty::I32, BufAccess::Write),
            buf("acc", Ty::F64, BufAccess::Reduction(RmwOp::Add)),
        ],
        locals: vec![Ty::I32, Ty::I32],
        reductions: vec![],
        body: vec![
            Stmt::Assign {
                local: LocalId(0),
                value: imm(0),
            },
            Stmt::Assign {
                local: LocalId(1),
                value: Expr::load(BufId(0), Expr::ThreadIdx),
            },
            Stmt::While {
                cond: Expr::bin(BinOp::Lt, local(0), param(0)),
                body: vec![
                    Stmt::Assign {
                        local: LocalId(0),
                        value: Expr::add(local(0), imm(1)),
                    },
                    Stmt::If {
                        cond: Expr::bin(BinOp::Eq, local(0), imm(2)),
                        then_: vec![Stmt::Continue],
                        else_: vec![],
                    },
                    Stmt::If {
                        cond: Expr::bin(BinOp::Gt, local(0), imm(5)),
                        then_: vec![Stmt::Break],
                        else_: vec![],
                    },
                ],
            },
            Stmt::Assign {
                local: LocalId(1),
                value: Expr::Select {
                    c: Box::new(Expr::bin(
                        BinOp::LAnd,
                        Expr::bin(BinOp::Ne, local(1), imm(0)),
                        Expr::bin(BinOp::Gt, Expr::bin(BinOp::Div, local(1), param(1)), imm(0)),
                    )),
                    t: Box::new(Expr::Unary {
                        op: UnOp::Neg,
                        a: Box::new(local(1)),
                    }),
                    f: Box::new(Expr::bin(BinOp::Rem, local(1), imm(7))),
                },
            },
            Stmt::Store {
                buf: BufId(1),
                idx: Expr::ThreadIdx,
                value: Expr::bin(
                    BinOp::Xor,
                    local(1),
                    Expr::bin(BinOp::Shl, local(0), imm(1)),
                ),
                dirty: false,
                checked: true,
            },
            Stmt::AtomicRmw {
                buf: BufId(2),
                idx: Expr::bin(BinOp::Rem, Expr::ThreadIdx, imm(4)),
                op: RmwOp::Add,
                value: Expr::Call {
                    f: Builtin::Fabs,
                    args: vec![Expr::Cast {
                        ty: Ty::F64,
                        a: Box::new(local(1)),
                    }],
                },
            },
        ],
    }
}

/// A kernel full of work an optimizer would remove: the same load issued
/// four times, multiplications by powers of two, additions of zero, a
/// redundant expression computed twice, and a dead local assignment.
/// The tier executes (and prices) every one of them, like the walker.
fn optimizer_bait_kernel() -> Kernel {
    let x = || Expr::load(BufId(0), Expr::ThreadIdx);
    Kernel {
        name: "optimizer_bait".into(),
        params: vec![i32_param("c")],
        bufs: vec![
            buf("a", Ty::I32, BufAccess::Read),
            buf("out", Ty::I32, BufAccess::Write),
        ],
        locals: vec![Ty::I32, Ty::I32, Ty::I32],
        reductions: vec![],
        body: vec![
            // l0 = a[t] * 8
            Stmt::Assign {
                local: LocalId(0),
                value: Expr::bin(BinOp::Mul, x(), imm(8)),
            },
            // l1 = a[t] + 0
            Stmt::Assign {
                local: LocalId(1),
                value: Expr::add(x(), imm(0)),
            },
            // l2 = c * 1 (dead: overwritten before any use)
            Stmt::Assign {
                local: LocalId(2),
                value: Expr::bin(BinOp::Mul, param(0), imm(1)),
            },
            // l2 = (a[t] ^ c) + (a[t] ^ c)
            Stmt::Assign {
                local: LocalId(2),
                value: Expr::add(
                    Expr::bin(BinOp::Xor, x(), param(0)),
                    Expr::bin(BinOp::Xor, x(), param(0)),
                ),
            },
            Stmt::Store {
                buf: BufId(1),
                idx: Expr::ThreadIdx,
                value: Expr::add(local(0), Expr::add(local(1), local(2))),
                dirty: false,
                checked: false,
            },
        ],
    }
}

fn bfs_world(n: usize, seed: &[i32]) -> (Vec<Buffer>, Vec<Binding>) {
    let src: Vec<i32> = (0..n)
        .map(|i| seed[i % seed.len()].rem_euclid(n as i32))
        .collect();
    let dst: Vec<i32> = (0..n)
        .map(|i| seed[(i * 7 + 3) % seed.len()].rem_euclid(n as i32))
        .collect();
    let levels: Vec<i32> = (0..n)
        .map(|i| seed[(i * 13 + 1) % seed.len()] % 3 - 1)
        .collect();
    let bufs = vec![
        Buffer::from_i32(&src),
        Buffer::from_i32(&dst),
        Buffer::from_i32(&levels),
    ];
    let bindings = vec![
        Binding::whole(n),
        Binding::whole(n),
        Binding {
            dirty: true,
            ..Binding::whole(n)
        },
    ];
    (bufs, bindings)
}

#[test]
fn curated_kernels_compile_to_register_vm() {
    // The equality tests below need the curated kernels to type. Pin
    // that they take the register tier.
    for k in [
        bfs_like_kernel(),
        kitchen_sink_kernel(),
        optimizer_bait_kernel(),
    ] {
        assert!(
            regvm::compile(&k).is_ok(),
            "kernel `{}` failed to compile to the register VM",
            k.name
        );
    }
}

#[test]
fn bfs_shape_matches_walker() {
    let k = bfs_like_kernel();
    let (bufs, bindings) = bfs_world(64, &[3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5]);
    let mut total = OpCounters::default();
    for level in -1..=1 {
        let params = [Value::I32(level), Value::I32(64), Value::I32(0)];
        let out = assert_regvm_agrees(&k, &params, &bufs, &bindings, &[], usize::MAX, 0, 64);
        assert!(out.result.is_ok());
        total.dirty_marks += out.counters.dirty_marks;
        total.branches += out.counters.branches;
    }
    assert!(total.dirty_marks > 0, "no dirty store ever executed");
    assert!(total.branches > total.dirty_marks);
}

#[test]
fn kitchen_sink_matches_walker() {
    let k = kitchen_sink_kernel();
    let n = 48usize;
    let a: Vec<i32> = (0..n as i32).map(|i| i * 17 - 80).collect();
    let bufs = vec![
        Buffer::from_i32(&a),
        Buffer::from_i32(&vec![0; n]),
        Buffer::zeroed(Ty::F64, 4),
    ];
    let bindings = vec![
        Binding::whole(n),
        Binding {
            window_lo: 0,
            own: (16, 32),
            dirty: false,
        },
        Binding::whole(4),
    ];
    let params = [Value::I32(8), Value::I32(3)];
    let out = assert_regvm_agrees(&k, &params, &bufs, &bindings, &[], usize::MAX, 0, n as i64);
    assert!(out.result.is_ok());
    assert_eq!(out.misses.len() as u64, out.counters.misses);
    assert_eq!(out.counters.misses, 32);
    assert!(out.counters.atomics > 0 && out.counters.special_ops > 0);
}

#[test]
fn optimizer_bait_matches_walker_counters_exactly() {
    let k = optimizer_bait_kernel();
    let n = 32usize;
    let a: Vec<i32> = (0..n as i32).map(|i| i * 31 - 100).collect();
    let bufs = vec![Buffer::from_i32(&a), Buffer::from_i32(&vec![0; n])];
    let bindings = vec![Binding::whole(n), Binding::whole(n)];
    let out = assert_regvm_agrees(
        &k,
        &[Value::I32(19)],
        &bufs,
        &bindings,
        &[],
        usize::MAX,
        0,
        n as i64,
    );
    assert!(out.result.is_ok());
    // The walker issues 4 loads per thread; so does the register tier.
    assert_eq!(out.counters.loads, 4 * n as u64);
}

#[test]
fn sanitizer_log_survives_load_forwarding() {
    // Named for what once threatened it. Every load in `optimizer_bait`
    // reads a[t]; declare a window of exactly one element to the *left*
    // so each of the 4 loads per thread is flagged: a tier that served a
    // repeated load from a register would drop audits. The log and hit
    // count must match the walker record for record.
    let k = optimizer_bait_kernel();
    let n = 8usize;
    let a: Vec<i32> = (0..n as i32).collect();
    let bufs = vec![Buffer::from_i32(&a), Buffer::from_i32(&vec![0; n])];
    let bindings = vec![Binding::whole(n), Binding::whole(n)];
    let sanitize = vec![
        BufSanitize {
            // Thread t may only read [t-1, t): its own element at t is a
            // violation, so all 4 loads per thread hit.
            load_window: Some((1, 1, -1)),
            carried_window: None,
            check_stores: false,
        },
        BufSanitize {
            load_window: None,
            carried_window: None,
            check_stores: true,
        },
    ];
    let out = assert_regvm_agrees(
        &k,
        &[Value::I32(3)],
        &bufs,
        &bindings,
        &sanitize,
        usize::MAX,
        0,
        n as i64,
    );
    assert!(out.result.is_ok());
    assert_eq!(
        out.sanitize_hits,
        4 * n as u64,
        "expected every load flagged"
    );
    assert_eq!(out.sanitize_log.len(), (4 * n).min(64));
}

#[test]
fn sanitizer_audits_a_store_before_its_bounds_fault() {
    // out[t + 6] = a[t] on 8 elements: threads 0 and 1 store outside the
    // owned [0, 6) but inside the window, thread 2 outside both — its
    // audit record is logged before the fault ends the launch.
    let k = kernel(
        "store_audit",
        vec![
            buf("a", Ty::I32, BufAccess::Read),
            buf("o", Ty::I32, BufAccess::Write),
        ],
        vec![],
        vec![store(
            1,
            Expr::add(Expr::ThreadIdx, imm(6)),
            Expr::load(BufId(0), Expr::ThreadIdx),
        )],
    );
    assert!(regvm::compile(&k).is_ok());
    let bufs = vec![
        Buffer::from_i32(&[1, 2, 3, 4, 5, 6, 7, 8]),
        Buffer::zeroed(Ty::I32, 8),
    ];
    let bind = vec![
        Binding::whole(8),
        Binding {
            window_lo: 0,
            own: (0, 6),
            dirty: false,
        },
    ];
    let audit = BufSanitize {
        load_window: None,
        carried_window: None,
        check_stores: true,
    };
    let sanitize = vec![BufSanitize::default(), audit];
    let out = assert_regvm_agrees(&k, &[], &bufs, &bind, &sanitize, usize::MAX, 0, 8);
    assert!(matches!(
        out.result,
        Err(ExecError::OutOfBounds { idx: 8, .. })
    ));
    assert_eq!(out.sanitize_hits, 3);
    assert_eq!(out.counters.stores, 2);
}

#[test]
fn error_paths_match_walker() {
    // Out-of-bounds load: same error, same partial state, and the
    // counters of a thread that stopped half way through a statement.
    let k = Kernel {
        name: "oob".into(),
        params: vec![],
        bufs: vec![
            buf("a", Ty::I32, BufAccess::Read),
            buf("o", Ty::I32, BufAccess::Write),
        ],
        locals: vec![],
        reductions: vec![],
        body: vec![Stmt::Store {
            buf: BufId(1),
            idx: Expr::ThreadIdx,
            value: Expr::load(BufId(0), Expr::add(Expr::ThreadIdx, imm(5))),
            dirty: false,
            checked: false,
        }],
    };
    assert!(regvm::compile(&k).is_ok());
    let bufs = vec![
        Buffer::from_i32(&[1, 2, 3, 4, 5, 6, 7, 8]),
        Buffer::zeroed(Ty::I32, 8),
    ];
    let bind = vec![Binding::whole(8), Binding::whole(8)];
    let out = assert_regvm_agrees(&k, &[], &bufs, &bind, &[], usize::MAX, 0, 8);
    assert!(matches!(out.result, Err(ExecError::OutOfBounds { .. })));

    // Division by zero: the div's special_op is charged before the
    // fault.
    let k = Kernel {
        name: "div0".into(),
        params: vec![i32_param("d")],
        bufs: vec![buf("o", Ty::I32, BufAccess::Write)],
        locals: vec![],
        reductions: vec![],
        body: vec![Stmt::Store {
            buf: BufId(0),
            idx: Expr::ThreadIdx,
            value: Expr::bin(BinOp::Div, imm(10), param(0)),
            dirty: false,
            checked: false,
        }],
    };
    assert!(regvm::compile(&k).is_ok());
    let bufs = vec![Buffer::zeroed(Ty::I32, 4)];
    let bind = vec![Binding::whole(4)];
    let out = assert_regvm_agrees(&k, &[Value::I32(0)], &bufs, &bind, &[], usize::MAX, 0, 4);
    assert_eq!(out.result, Err(ExecError::DivByZero));
    assert_eq!(out.counters.special_ops, 1);

    // Miss-buffer overflow at an exact capacity boundary: the partial
    // miss state and counters line up with the walker.
    let out = {
        let k = kitchen_sink_kernel();
        let n = 48usize;
        let a: Vec<i32> = (0..n as i32).collect();
        let bufs = vec![
            Buffer::from_i32(&a),
            Buffer::from_i32(&vec![0; n]),
            Buffer::zeroed(Ty::F64, 4),
        ];
        let bindings = vec![
            Binding::whole(n),
            Binding {
                window_lo: 0,
                own: (16, 32),
                dirty: false,
            },
            Binding::whole(4),
        ];
        assert_regvm_agrees(
            &k,
            &[Value::I32(8), Value::I32(3)],
            &bufs,
            &bindings,
            &[],
            7,
            0,
            n as i64,
        )
    };
    assert_eq!(
        out.result,
        Err(ExecError::MissBufferOverflow { capacity: 7 })
    );
    assert_eq!(out.misses.len(), 7);
}

#[test]
fn untypeable_kernel_is_rejected() {
    // A non-integer buffer index is a runtime TypeError in the walker;
    // `compile` refuses the kernel, naming it and the rule.
    let k = Kernel {
        name: "badidx".into(),
        params: vec![],
        bufs: vec![
            buf("a", Ty::I32, BufAccess::Read),
            buf("o", Ty::I32, BufAccess::Write),
        ],
        locals: vec![],
        reductions: vec![],
        body: vec![Stmt::Store {
            buf: BufId(0),
            idx: Expr::imm_f64(1.5),
            value: imm(0),
            dirty: false,
            checked: false,
        }],
    };
    let err = regvm::compile(&k).expect_err("typing must reject `badidx`");
    assert_eq!(err.0, "kernel `badidx`: index of type f64");
    let bufs = vec![Buffer::from_i32(&[1, 2]), Buffer::zeroed(Ty::I32, 2)];
    let bind = vec![Binding::whole(2), Binding::whole(2)];
    let out = walk(&k, &bufs, &bind);
    assert!(matches!(out.result, Err(ExecError::TypeError(_))));
}

/// The walker alone over threads `[0, n)`, for kernels the register
/// tier refuses.
fn walk(k: &Kernel, bufs: &[Buffer], bind: &[Binding]) -> Outcome {
    let n = bind[0].own.1;
    run_one(k, &[], bufs, bind, &[], usize::MAX, 0, n, true).expect("the walker compiles nothing")
}

// ---------------------------------------------------------------------------
// Curated kernels for the risks of a tree-to-register design.
// ---------------------------------------------------------------------------

fn tid() -> Expr {
    Expr::ThreadIdx
}
fn cmp(op: BinOp, a: Expr, b: Expr) -> Expr {
    Expr::bin(op, a, b)
}
fn cast(ty: Ty, a: Expr) -> Expr {
    Expr::Cast { ty, a: Box::new(a) }
}
fn not(a: Expr) -> Expr {
    Expr::Unary {
        op: UnOp::Not,
        a: Box::new(a),
    }
}
fn select(c: Expr, t: Expr, f: Expr) -> Expr {
    Expr::Select {
        c: Box::new(c),
        t: Box::new(t),
        f: Box::new(f),
    }
}
fn call(f: Builtin, args: Vec<Expr>) -> Expr {
    Expr::Call { f, args }
}
fn assign(l: u32, value: Expr) -> Stmt {
    Stmt::Assign {
        local: LocalId(l),
        value,
    }
}
/// An unchecked, non-dirty store.
fn store(b: u32, idx: Expr, value: Expr) -> Stmt {
    Stmt::Store {
        buf: BufId(b),
        idx,
        value,
        dirty: false,
        checked: false,
    }
}
/// `tid * stride + k`: the `k`-th output cell of a thread.
fn cell(stride: i32, k: i32) -> Expr {
    Expr::add(Expr::mul(tid(), imm(stride)), imm(k))
}

fn kernel(name: &str, bufs: Vec<BufParam>, locals: Vec<Ty>, body: Vec<Stmt>) -> Kernel {
    Kernel {
        name: name.into(),
        params: vec![],
        bufs,
        locals,
        reductions: vec![],
        body,
    }
}

/// Walker against register tier over threads `[0, n)` on whole-array
/// bindings with no sanitizer; the kernel must have compiled.
fn agree(k: &Kernel, bufs: &[Buffer], n: usize) -> Outcome {
    assert!(
        regvm::compile(k).is_ok(),
        "`{}` must take the register tier",
        k.name
    );
    let bind: Vec<Binding> = bufs.iter().map(|b| Binding::whole(b.len())).collect();
    assert_regvm_agrees(k, &[], bufs, &bind, &[], usize::MAX, 0, n as i64)
}

#[test]
fn destination_aliasing_matches_walker() {
    // Each assignment's destination occurs in its own value; the fused
    // root op (or the last op of the taken arm) writes it directly.
    let a = || Expr::load(BufId(0), tid());
    let even = || cmp(BinOp::Eq, Expr::bin(BinOp::And, tid(), imm(1)), imm(0));
    let k = kernel(
        "aliasing",
        vec![
            buf("a", Ty::I32, BufAccess::Read),
            buf("out", Ty::I32, BufAccess::Write),
        ],
        vec![Ty::I32, Ty::I32, Ty::Bool, Ty::I32],
        vec![
            // x = x * 2 + x
            assign(0, a()),
            assign(0, Expr::add(Expr::mul(local(0), imm(2)), local(0))),
            store(1, cell(8, 0), local(0)),
            // x = c ? x : x + 1, and with the arms swapped
            assign(1, tid()),
            assign(1, select(even(), local(1), Expr::add(local(1), imm(1)))),
            store(1, cell(8, 1), local(1)),
            assign(1, select(even(), Expr::mul(local(1), local(1)), local(1))),
            store(1, cell(8, 2), local(1)),
            // x = a && x, x = x || a, with Bool and I32 operands
            assign(2, cmp(BinOp::Gt, a(), imm(3))),
            assign(
                2,
                Expr::bin(BinOp::LAnd, cmp(BinOp::Gt, tid(), imm(1)), local(2)),
            ),
            store(1, cell(8, 3), local(2)),
            assign(2, Expr::bin(BinOp::LOr, local(2), even())),
            store(1, cell(8, 4), local(2)),
            // (an I32 rhs must come out as exactly `true`, not as nonzero)
            assign(
                2,
                Expr::bin(BinOp::LAnd, local(2), Expr::bin(BinOp::And, tid(), imm(2))),
            ),
            store(
                1,
                cell(8, 5),
                cmp(BinOp::Eq, local(2), Expr::Imm(Value::Bool(true))),
            ),
            assign(
                2,
                Expr::bin(BinOp::LOr, Expr::bin(BinOp::And, a(), imm(4)), local(2)),
            ),
            store(1, cell(8, 6), local(2)),
            // x = a[x]
            assign(3, Expr::bin(BinOp::And, tid(), imm(7))),
            assign(3, Expr::load(BufId(0), local(3))),
            store(1, cell(8, 7), local(3)),
        ],
    );
    let n = 8;
    let data: Vec<i32> = (0..n as i32).map(|i| (i * 5) % 8).collect();
    let out = agree(
        &k,
        &[Buffer::from_i32(&data), Buffer::zeroed(Ty::I32, 8 * n)],
        n,
    );
    assert!(out.result.is_ok());
    // Thread 3: a = 7, so x = 21; 3 is odd, so y = 3 + 1.
    let cells = i32s(&out.bufs[1][3 * 32..4 * 32]);
    assert_eq!(cells[..3], [21, 4, 4]);
    assert_eq!(cells[7], data[3]);
}

#[test]
fn temps_survive_sibling_evaluation() {
    // The index of a store / atomic is an interior node, so it sits in a
    // temp while the (deeper) value is evaluated; a nested `Select`
    // inside an index takes temps of its own.
    let a = |i: Expr| Expr::load(BufId(0), Expr::bin(BinOp::And, i, imm(7)));
    let idx = || Expr::bin(BinOp::And, Expr::add(a(tid()), tid()), imm(7));
    let deep = || {
        Expr::mul(
            Expr::add(
                Expr::mul(a(tid()), imm(3)),
                Expr::bin(BinOp::Xor, a(Expr::add(tid(), imm(1))), imm(5)),
            ),
            Expr::add(tid(), imm(1)),
        )
    };
    let nested = select(
        cmp(BinOp::Eq, Expr::bin(BinOp::And, tid(), imm(1)), imm(0)),
        select(
            cmp(BinOp::Gt, tid(), imm(3)),
            Expr::sub(tid(), imm(1)),
            Expr::add(tid(), imm(1)),
        ),
        tid(),
    );
    let k = kernel(
        "temps",
        vec![
            buf("a", Ty::I32, BufAccess::Read),
            buf("out", Ty::I32, BufAccess::ReadWrite),
            buf("d", Ty::I32, BufAccess::ReadWrite),
        ],
        vec![],
        vec![
            store(1, idx(), deep()),
            Stmt::AtomicRmw {
                buf: BufId(1),
                idx: idx(),
                op: RmwOp::Add,
                value: deep(),
            },
            Stmt::Store {
                buf: BufId(2),
                idx: idx(),
                value: deep(),
                dirty: true,
                checked: true,
            },
            store(1, Expr::add(tid(), imm(8)), a(nested)),
        ],
    );
    assert!(regvm::compile(&k).is_ok());
    let data: Vec<i32> = (0..8).map(|i| (i * 3 + 1) % 8).collect();
    let bufs = [
        Buffer::from_i32(&data),
        Buffer::zeroed(Ty::I32, 16),
        Buffer::zeroed(Ty::I32, 8),
    ];
    let bind = [
        Binding::whole(8),
        Binding::whole(16),
        Binding {
            window_lo: 0,
            own: (2, 6),
            dirty: true,
        },
    ];
    let out = assert_regvm_agrees(&k, &[], &bufs, &bind, &[], usize::MAX, 0, 8);
    assert!(out.result.is_ok());
    assert!(out.counters.misses > 0 && out.counters.dirty_marks > 0);
}

#[test]
fn bool_locals_and_integer_truthiness_match_walker() {
    // `Bool` locals live in the frame as 0/1; an `I32` is accepted as a
    // condition and by `!`, which yields a `Bool` for either.
    let k = kernel(
        "truthiness",
        vec![buf("out", Ty::I32, BufAccess::Write)],
        vec![Ty::Bool, Ty::Bool, Ty::I32],
        vec![
            assign(0, not(cmp(BinOp::Gt, tid(), imm(2)))),
            assign(1, not(Expr::sub(tid(), imm(3)))), // !i32: true only at tid 3
            assign(0, not(local(0))),
            store(0, cell(8, 0), local(0)),
            store(0, cell(8, 1), local(1)),
            store(0, cell(8, 2), cmp(BinOp::Lt, local(0), local(1))), // false < true
            Stmt::If {
                cond: not(local(1)),
                then_: vec![store(0, cell(8, 3), imm(1))],
                else_: vec![store(0, cell(8, 3), imm(2))],
            },
            // Integer conditions: if (i), while (i), i ? .. : ..
            assign(2, Expr::bin(BinOp::And, tid(), imm(3))),
            Stmt::If {
                cond: local(2),
                then_: vec![store(0, cell(8, 4), imm(7))],
                else_: vec![],
            },
            store(0, cell(8, 5), select(local(2), imm(10), imm(20))),
            Stmt::While {
                cond: local(2),
                body: vec![
                    assign(2, Expr::sub(local(2), imm(1))),
                    Stmt::AtomicRmw {
                        buf: BufId(0),
                        idx: cell(8, 6),
                        op: RmwOp::Add,
                        value: imm(1),
                    },
                ],
            },
            store(0, cell(8, 7), cast(Ty::I32, Expr::Imm(Value::Bool(true)))),
        ],
    );
    let out = agree(&k, &[Buffer::zeroed(Ty::I32, 64)], 8);
    assert!(out.result.is_ok());
    assert!(out.counters.branches > 0);
}

/// Values at the edges of each representation.
const EDGE_F64: [f64; 8] = [0.0, -0.0, 1.5, -2.75, 1e20, -1e20, f64::NAN, f64::INFINITY];
const EDGE_I32: [i32; 8] = [0, 1, -1, 7, i32::MAX, i32::MIN, 1 << 24, -(1 << 24) - 1];

#[test]
fn every_cast_pair_matches_walker() {
    let tys = [Ty::I32, Ty::F32, Ty::F64, Ty::Bool];
    // Locals 0..4 hold one value of each type; out buffers 3..6 take the
    // casts to I32, F32, F64, and (stored through a cast to I32) Bool.
    let mut body = vec![
        assign(0, Expr::load(BufId(0), tid())),
        assign(1, Expr::load(BufId(1), tid())),
        assign(2, Expr::load(BufId(2), tid())),
        assign(3, cmp(BinOp::Gt, Expr::load(BufId(0), tid()), imm(0))),
    ];
    for (t, to) in tys.into_iter().enumerate() {
        for from in 0..4 {
            body.push(store(
                3 + t as u32,
                cell(4, from),
                cast(to, local(from as u32)),
            ));
        }
    }
    let k = kernel(
        "casts",
        vec![
            buf("i", Ty::I32, BufAccess::Read),
            buf("s", Ty::F32, BufAccess::Read),
            buf("d", Ty::F64, BufAccess::Read),
            buf("oi", Ty::I32, BufAccess::Write),
            buf("os", Ty::F32, BufAccess::Write),
            buf("od", Ty::F64, BufAccess::Write),
            buf("ob", Ty::I32, BufAccess::Write),
        ],
        tys.to_vec(),
        body,
    );
    let n = EDGE_F64.len();
    let bufs = [
        Buffer::from_i32(&EDGE_I32),
        Buffer::from_f32(&EDGE_F64.map(|v| v as f32)),
        Buffer::from_f64(&EDGE_F64),
        Buffer::zeroed(Ty::I32, 4 * n),
        Buffer::zeroed(Ty::F32, 4 * n),
        Buffer::zeroed(Ty::F64, 4 * n),
        Buffer::zeroed(Ty::I32, 4 * n),
    ];
    let out = agree(&k, &bufs, n);
    assert!(out.result.is_ok());
    // 16 casts per thread at one int_op each, beside loads/stores/assigns.
    assert_eq!(out.counters.stores, 16 * n as u64);
}

#[test]
fn every_builtin_at_every_type_matches_walker() {
    use Builtin::*;
    let bufs = [
        Buffer::from_i32(&EDGE_I32),
        Buffer::from_f32(&EDGE_F64.map(|v| v as f32)),
        Buffer::from_f64(&EDGE_F64),
        Buffer::zeroed(Ty::F64, 8),
    ];
    let bind: Vec<Binding> = bufs.iter().map(|b| Binding::whole(b.len())).collect();
    let params = [
        buf("i", Ty::I32, BufAccess::Read),
        buf("s", Ty::F32, BufAccess::Read),
        buf("d", Ty::F64, BufAccess::Read),
        buf("out", Ty::F64, BufAccess::Write),
    ];
    let arg = |b: u32, shift: i32| {
        Expr::load(
            BufId(b),
            Expr::bin(BinOp::And, Expr::add(tid(), imm(shift)), imm(7)),
        )
    };
    for f in [
        Sqrt, Fabs, Exp, Log, Sin, Cos, Floor, Ceil, Pow, Min, Max, Abs,
    ] {
        for a in 0..3u32 {
            // Binary builtins take every mix of argument types.
            for b in if f.arity() == 2 { 0..3u32 } else { 0..1 } {
                let mut args = vec![arg(a, 0)];
                if f.arity() == 2 {
                    args.push(arg(b, 3));
                }
                let k = kernel(
                    &format!("{f:?}/{a}/{b}"),
                    params.to_vec(),
                    vec![],
                    vec![store(3, tid(), call(f, args))],
                );
                // Only `abs` of a float is a (dynamic, hence static) error.
                let typed = f != Abs || a == 0;
                assert_eq!(regvm::compile(&k).is_ok(), typed, "{}", k.name);
                let out = if typed {
                    assert_regvm_agrees(&k, &[], &bufs, &bind, &[], usize::MAX, 0, 8)
                } else {
                    walk(&k, &bufs, &bind)
                };
                assert_eq!(out.result.is_ok(), typed, "{}", k.name);
            }
        }
    }
}

#[test]
fn integer_edge_cases_match_walker() {
    // Shifts by >= 32 wrap the count; MIN / -1 and MIN % -1 wrap.
    let ops = [
        BinOp::Shl,
        BinOp::Shr,
        BinOp::Div,
        BinOp::Rem,
        BinOp::Mul,
        BinOp::Sub,
    ];
    let body = (ops.iter().zip(0..))
        .map(|(&op, k)| {
            store(
                2,
                cell(ops.len() as i32, k),
                Expr::bin(op, Expr::load(BufId(0), tid()), Expr::load(BufId(1), tid())),
            )
        })
        .collect();
    let k = kernel(
        "int_edges",
        vec![
            buf("a", Ty::I32, BufAccess::Read),
            buf("b", Ty::I32, BufAccess::Read),
            buf("out", Ty::I32, BufAccess::Write),
        ],
        vec![],
        body,
    );
    let a = [i32::MIN, i32::MIN, -5, 7, 1, -1, i32::MAX, 12345];
    let b = [-1, 32, 33, 63, 31, -1, 2, 64];
    let bufs = [
        Buffer::from_i32(&a),
        Buffer::from_i32(&b),
        Buffer::zeroed(Ty::I32, 6 * 8),
    ];
    let out = agree(&k, &bufs, 8);
    assert!(out.result.is_ok());
    let first = i32s(&out.bufs[2][..24]);
    // MIN << -1 (count 31), MIN >> 31, MIN / -1, MIN % -1.
    assert_eq!(first[..4], [0, -1, i32::MIN, 0]);
}

#[test]
fn nan_through_all_comparisons_matches_walker() {
    // As a value, as a fused compare-and-branch, and as a Select
    // condition, at both float widths: only `!=` holds on a NaN.
    let cmps = [
        BinOp::Lt,
        BinOp::Le,
        BinOp::Gt,
        BinOp::Ge,
        BinOp::Eq,
        BinOp::Ne,
    ];
    let x = [f64::NAN, 1.0, f64::NAN, 1.0, 2.0, 1.0, -0.0, f64::INFINITY];
    let y = [1.0, f64::NAN, f64::NAN, 2.0, 1.0, 1.0, 0.0, f64::NAN];
    for (ty, bx, by) in [
        (Ty::F64, Buffer::from_f64(&x), Buffer::from_f64(&y)),
        (
            Ty::F32,
            Buffer::from_f32(&x.map(|v| v as f32)),
            Buffer::from_f32(&y.map(|v| v as f32)),
        ),
    ] {
        let mut body = Vec::new();
        for (&op, k) in cmps.iter().zip(0..) {
            let c = || cmp(op, Expr::load(BufId(0), tid()), Expr::load(BufId(1), tid()));
            body.push(store(2, cell(18, 3 * k), c()));
            body.push(Stmt::If {
                cond: c(),
                then_: vec![store(2, cell(18, 3 * k + 1), imm(1))],
                else_: vec![store(2, cell(18, 3 * k + 1), imm(2))],
            });
            body.push(store(2, cell(18, 3 * k + 2), select(c(), imm(1), imm(2))));
        }
        let k = kernel(
            "nan",
            vec![
                buf("x", ty, BufAccess::Read),
                buf("y", ty, BufAccess::Read),
                buf("out", Ty::I32, BufAccess::Write),
            ],
            vec![],
            body,
        );
        let out = agree(&k, &[bx, by, Buffer::zeroed(Ty::I32, 18 * 8)], 8);
        assert!(out.result.is_ok());
        // Thread 0 compares NaN with 1: every triple reads (0, 2, 2) but `!=`'s.
        let t0 = i32s(&out.bufs[2][..18 * 4]);
        assert_eq!(t0[..15], [0, 2, 2].repeat(5));
        assert_eq!(t0[15..], [1, 1, 1]);
    }
}

#[test]
fn casting_stores_keep_the_uncast_value_in_miss_records() {
    // An f64 (and a Bool) value stored into f32 / i32 buffers: the hit
    // path casts to the buffer's type, the miss path stages the value as
    // evaluated and prices the record by *its* size.
    let v = || Expr::mul(Expr::load(BufId(0), tid()), Expr::imm_f64(1.5));
    let checked = |b: u32, value: Expr| Stmt::Store {
        buf: BufId(b),
        idx: tid(),
        value,
        dirty: true,
        checked: true,
    };
    let k = kernel(
        "casting_store",
        vec![
            buf("d", Ty::F64, BufAccess::Read),
            buf("os", Ty::F32, BufAccess::Write),
            buf("oi", Ty::I32, BufAccess::Write),
        ],
        vec![],
        vec![
            checked(1, v()),
            checked(2, v()),
            checked(2, cmp(BinOp::Gt, v(), Expr::imm_f64(0.0))),
            store(1, tid(), v()),
        ],
    );
    assert!(regvm::compile(&k).is_ok());
    let bufs = [
        Buffer::from_f64(&EDGE_F64),
        Buffer::zeroed(Ty::F32, 8),
        Buffer::zeroed(Ty::I32, 8),
    ];
    let half = |dirty| Binding {
        window_lo: 0,
        own: (0, 4),
        dirty,
    };
    let bind = [Binding::whole(8), half(false), half(true)];
    let out = assert_regvm_agrees(&k, &[], &bufs, &bind, &[], usize::MAX, 0, 8);
    assert!(out.result.is_ok());
    assert_eq!(out.misses.len(), 12);
    assert_eq!(out.misses[0].2 .0, Ty::F64);
    assert_eq!(out.misses[2].2 .0, Ty::Bool);
    // Four missing threads stage (8+8) + (8+8) + (8+1) bytes each, four
    // hitting ones write 4+4+4, and all eight do the unchecked 4.
    assert_eq!(out.counters.store_bytes, 4 * 41 + 4 * 12 + 8 * 4);
}

// ---------------------------------------------------------------------------
// Lane batches. An unsanitized launch of a kernel that may batch runs
// `regvm::LANES` threads per dispatch until their branches disagree or a
// lane could fault, then finishes each lane alone, in tid order. Every
// kernel here must batch and runs over three full batches and a tail, so
// the equalities reach that path: buffers, counters, per-buffer bytes and
// miss records at a fault as well as at the end.
// ---------------------------------------------------------------------------

const LANES: usize = regvm::LANES;
/// Three full batches and a tail.
const BATCHED: usize = 3 * LANES + 5;
/// The thread in lane 5 of the second batch.
const LANE5: usize = LANES + 5;

/// Walker against register tier over threads `[0, BATCHED)`, unsanitized,
/// for a kernel that must batch.
fn agree_batched(k: &Kernel, bufs: &[Buffer], bind: &[Binding]) -> Outcome {
    let rc = regvm::compile(k).unwrap_or_else(|e| panic!("{e}"));
    assert!(rc.may_batch(), "`{}` must batch", k.name);
    assert_regvm_agrees(k, &[], bufs, bind, &[], usize::MAX, 0, BATCHED as i64)
}

fn whole(bufs: &[Buffer]) -> Vec<Binding> {
    bufs.iter().map(|b| Binding::whole(b.len())).collect()
}

fn when(cond: Expr, then_: Vec<Stmt>) -> Stmt {
    Stmt::If {
        cond,
        then_,
        else_: vec![],
    }
}

#[test]
fn a_uniform_stencil_batches_like_the_walker() {
    // A heat2d-shaped row per thread: the cell's neighbours, branches on
    // the column (uniform across a batch) and on the row (divergent in
    // the first and last rows only), and a dirty f64 store per column.
    const COLS: i32 = 6;
    let at = |row: Expr, col: Expr| Expr::load(BufId(0), Expr::add(Expr::mul(row, imm(COLS)), col));
    let (j, c, up, dn, lf) = (0, 1, 2, 3, 4);
    let laplace = Expr::sub(
        Expr::add(Expr::add(local(up), local(dn)), local(lf)),
        Expr::mul(Expr::imm_f64(3.0), local(c)),
    );
    let k = kernel(
        "stencil",
        vec![
            buf("a", Ty::F64, BufAccess::Read),
            buf("b", Ty::F64, BufAccess::Write),
        ],
        vec![Ty::I32, Ty::F64, Ty::F64, Ty::F64, Ty::F64],
        vec![Stmt::While {
            cond: cmp(BinOp::Lt, local(j), imm(COLS)),
            body: vec![
                assign(c, at(tid(), local(j))),
                assign(up, local(c)),
                assign(dn, local(c)),
                assign(lf, local(c)),
                when(
                    cmp(BinOp::Gt, tid(), imm(0)),
                    vec![assign(up, at(Expr::sub(tid(), imm(1)), local(j)))],
                ),
                when(
                    cmp(BinOp::Lt, tid(), imm(BATCHED as i32 - 1)),
                    vec![assign(dn, at(Expr::add(tid(), imm(1)), local(j)))],
                ),
                when(
                    cmp(BinOp::Gt, local(j), imm(0)),
                    vec![assign(lf, at(tid(), Expr::sub(local(j), imm(1))))],
                ),
                Stmt::Store {
                    buf: BufId(1),
                    idx: Expr::add(Expr::mul(tid(), imm(COLS)), local(j)),
                    value: Expr::add(local(c), Expr::mul(Expr::imm_f64(0.2), laplace.clone())),
                    dirty: true,
                    checked: false,
                },
                assign(j, Expr::add(local(j), imm(1))),
            ],
        }],
    );
    let n = BATCHED * COLS as usize;
    let a: Vec<f64> = (0..n).map(|i| (i * 7 % 13) as f64 * 0.5).collect();
    let bufs = [Buffer::from_f64(&a), Buffer::zeroed(Ty::F64, n)];
    let mut bind = whole(&bufs);
    bind[1].dirty = true;
    let out = agree_batched(&k, &bufs, &bind);
    assert!(out.result.is_ok());
    assert_eq!(out.counters.threads, BATCHED as u64);
    assert_eq!(out.counters.dirty_marks, n as u64);
    assert_eq!(out.dirty_bits[1], Some(vec![true; n]));
}

#[test]
fn a_branch_that_diverges_mid_batch_splits_like_the_walker() {
    // Every thread stores, then branches on its data, then stores again:
    // the first batch and the tail agree, the second diverges from lane
    // 7 on and the third in every other lane, so those split at the
    // branch with a store queued per lane.
    let k = kernel(
        "diverge",
        vec![
            buf("a", Ty::I32, BufAccess::Read),
            buf("out", Ty::I32, BufAccess::Write),
        ],
        vec![Ty::I32],
        vec![
            store(1, cell(2, 0), Expr::mul(tid(), imm(3))),
            Stmt::If {
                cond: cmp(BinOp::Gt, Expr::load(BufId(0), tid()), imm(0)),
                then_: vec![assign(0, Expr::add(Expr::load(BufId(0), tid()), imm(100)))],
                else_: vec![assign(0, Expr::sub(imm(0), tid()))],
            },
            store(1, cell(2, 1), local(0)),
        ],
    );
    let a: Vec<i32> = (0..BATCHED)
        .map(|t| match t / LANES {
            1 if t % LANES >= 7 => -1,
            2 if t % 2 == 1 => -1,
            _ => 1,
        })
        .collect();
    let bufs = [Buffer::from_i32(&a), Buffer::zeroed(Ty::I32, 2 * BATCHED)];
    let out = agree_batched(&k, &bufs, &whole(&bufs));
    assert!(out.result.is_ok());
    let cells = i32s(&out.bufs[1]);
    assert_eq!(
        cells[2 * (LANES + 6)..2 * (LANES + 8)],
        [
            18 + 3 * LANES as i32,
            101,
            21 + 3 * LANES as i32,
            -(LANES as i32 + 7)
        ]
    );
}

/// Thread `t` stores `3t`, then computes `value` (which faults in thread
/// `LANE5` alone), then stores it.
fn faulting_in_lane5(name: &str, value: Expr, src: Vec<i32>) -> Outcome {
    let k = kernel(
        name,
        vec![
            buf("src", Ty::I32, BufAccess::Read),
            buf("out", Ty::I32, BufAccess::Write),
        ],
        vec![Ty::I32],
        vec![
            store(1, tid(), Expr::mul(tid(), imm(3))),
            assign(0, value),
            store(1, Expr::add(tid(), imm(BATCHED as i32)), local(0)),
        ],
    );
    let bufs = [Buffer::from_i32(&src), Buffer::zeroed(Ty::I32, 2 * BATCHED)];
    let out = agree_batched(&k, &bufs, &whole(&bufs));
    // Lanes 0-4 finished, lane 5 stored once, lanes 6.. never ran.
    assert_eq!(out.counters.threads, LANE5 as u64, "{name}");
    assert_eq!(out.counters.stores, 2 * LANE5 as u64 + 1, "{name}");
    assert_eq!(out.per_buf_bytes[1].1, 4 * (2 * LANE5 as u64 + 1), "{name}");
    let cells = i32s(&out.bufs[1]);
    assert_eq!(
        cells[LANE5 - 1..LANE5 + 2],
        [3 * LANE5 as i32 - 3, 3 * LANE5 as i32, 0]
    );
    assert_ne!(cells[BATCHED + LANE5 - 1], 0, "{name}");
    assert_eq!(cells[BATCHED + LANE5], 0, "{name}");
    out
}

#[test]
fn lane5_faulting_after_lanes_0_to_4_stored_settles_like_the_walker() {
    // Out of window: `src[src[t]]` with `src[LANE5]` far outside.
    let mut src: Vec<i32> = (0..BATCHED as i32).collect();
    src[LANE5] = 10_000;
    let inner = Expr::load(BufId(0), tid());
    let out = faulting_in_lane5("window", Expr::load(BufId(0), inner), src);
    assert!(matches!(
        out.result,
        Err(ExecError::OutOfBounds { idx: 10_000, .. })
    ));
    // Division by zero: `1000 / src[t]` with `src[LANE5] = 0`.
    let mut src: Vec<i32> = (1..=BATCHED as i32).collect();
    src[LANE5] = 0;
    let quotient = Expr::bin(BinOp::Div, imm(1000), Expr::load(BufId(0), tid()));
    let out = faulting_in_lane5("div", quotient, src);
    assert_eq!(out.result, Err(ExecError::DivByZero));
}

#[test]
fn the_higher_tid_wins_an_element_stored_by_several_lanes() {
    // Four threads store to each element of the first half; in the
    // second, a thread's two stores land on elements its neighbours
    // store too, so the winner depends on committing whole lanes in tid
    // order, not stores op by op.
    let half = BATCHED as i32;
    let k = kernel(
        "waw",
        vec![buf("out", Ty::I32, BufAccess::Write)],
        vec![],
        vec![
            store(0, Expr::bin(BinOp::Div, tid(), imm(4)), tid()),
            store(
                0,
                Expr::add(Expr::bin(BinOp::Div, tid(), imm(2)), imm(half)),
                tid(),
            ),
            store(
                0,
                Expr::add(
                    Expr::bin(BinOp::Div, Expr::add(tid(), imm(1)), imm(2)),
                    imm(half),
                ),
                Expr::sub(imm(0), tid()),
            ),
        ],
    );
    let bufs = [Buffer::zeroed(Ty::I32, 2 * BATCHED)];
    let out = agree_batched(&k, &bufs, &whole(&bufs));
    assert!(out.result.is_ok());
    let cells = i32s(&out.bufs[0]);
    assert_eq!(cells[..4], [3, 7, 11, 15]);
    // Element `half + e` is stored by threads `2e - 1` (third store), `2e`
    // (second and third) and `2e + 1` (second): the walker ends it at
    // `2e + 1`, where store-by-store order would end it at `-2e`.
    assert_eq!(cells[BATCHED + 3], 7);
}

#[test]
fn a_checked_store_missing_in_one_lane_records_misses_in_tid_order() {
    // The store's index is data: a few threads, in two batches and the
    // tail, land outside the owned range, so those batches split at the
    // store and every lane stages its own record.
    let k = kernel(
        "miss",
        vec![
            buf("ix", Ty::I32, BufAccess::Read),
            buf("out", Ty::I32, BufAccess::Write),
        ],
        vec![],
        vec![Stmt::Store {
            buf: BufId(1),
            idx: Expr::load(BufId(0), tid()),
            value: tid(),
            dirty: false,
            checked: true,
        }],
    );
    let n = BATCHED as i32;
    let mut ix: Vec<i32> = (0..n).collect();
    let strays = [
        (LANE5, -3),
        (LANE5 + 2, n + 4),
        (2 * LANES + 1, -1),
        (BATCHED - 1, n + 9),
    ];
    for (t, i) in strays {
        ix[t] = i;
    }
    let bufs = [Buffer::from_i32(&ix), Buffer::zeroed(Ty::I32, BATCHED)];
    let out = agree_batched(&k, &bufs, &whole(&bufs));
    assert!(out.result.is_ok());
    let want: Vec<(i64, i32)> = strays
        .iter()
        .map(|&(t, i)| (i64::from(i), t as i32))
        .collect();
    let got: Vec<(i64, i32)> = out.misses.iter().map(|m| (m.1, m.2 .1 as i32)).collect();
    assert_eq!(got, want);
}

#[test]
fn a_full_store_buffer_splits_the_batch() {
    // More stores per thread than a lane may queue: each batch splits at
    // the first store past the bound and its lanes finish alone.
    const PER: i32 = 1100;
    let k = kernel(
        "many_stores",
        vec![buf("out", Ty::I32, BufAccess::Write)],
        vec![Ty::I32],
        vec![Stmt::While {
            cond: cmp(BinOp::Lt, local(0), imm(PER)),
            body: vec![
                store(
                    0,
                    Expr::add(Expr::mul(tid(), imm(PER)), local(0)),
                    Expr::add(local(0), tid()),
                ),
                assign(0, Expr::add(local(0), imm(1))),
            ],
        }],
    );
    let bufs = [Buffer::zeroed(Ty::I32, BATCHED * PER as usize)];
    let out = agree_batched(&k, &bufs, &whole(&bufs));
    assert!(out.result.is_ok());
    assert_eq!(i32s(&out.bufs[0])[PER as usize * 20 + 1099], 1119);
}

// Masked arms: lanes that disagree at an `If` whose arms hold only pure
// ops run both arms and keep each lane's own result; any other `If` splits.

fn rem(a: Expr, b: i32) -> Expr {
    Expr::bin(BinOp::Rem, a, imm(b))
}

#[test]
fn a_kmeans_arg_min_diverging_in_every_batch_matches_the_walker() {
    // `kmeans_k0`'s shape: the nearest of K centroids to a 2-feature f32
    // point. Thread `t`'s point lies near centroid `t % K`, so at every
    // cluster past the first the lanes of every batch disagree on
    // `d < bestd`.
    const K: i32 = 4;
    const D: i32 = 2;
    let (best, bestd, c, d, f, diff) = (0, 1, 2, 3, 4, 5);
    let k = kernel(
        "arg_min",
        vec![
            buf("points", Ty::F32, BufAccess::Read),
            buf("centroids", Ty::F32, BufAccess::Read),
            buf("membership", Ty::I32, BufAccess::Write),
        ],
        vec![Ty::I32, Ty::F32, Ty::I32, Ty::F32, Ty::I32, Ty::F32],
        vec![
            assign(bestd, Expr::Imm(Value::F32(3.0e38))),
            Stmt::While {
                cond: cmp(BinOp::Lt, local(c), imm(K)),
                body: vec![
                    assign(d, Expr::Imm(Value::F32(0.0))),
                    assign(f, imm(0)),
                    Stmt::While {
                        cond: cmp(BinOp::Lt, local(f), imm(D)),
                        body: vec![
                            assign(
                                diff,
                                Expr::sub(
                                    Expr::load(
                                        BufId(0),
                                        Expr::add(Expr::mul(tid(), imm(D)), local(f)),
                                    ),
                                    Expr::load(
                                        BufId(1),
                                        Expr::add(Expr::mul(local(c), imm(D)), local(f)),
                                    ),
                                ),
                            ),
                            assign(d, Expr::add(local(d), Expr::mul(local(diff), local(diff)))),
                            assign(f, Expr::add(local(f), imm(1))),
                        ],
                    },
                    when(
                        cmp(BinOp::Lt, local(d), local(bestd)),
                        vec![assign(bestd, local(d)), assign(best, local(c))],
                    ),
                    assign(c, Expr::add(local(c), imm(1))),
                ],
            },
            store(2, tid(), local(best)),
        ],
    );
    let points: Vec<f32> = (0..BATCHED * D as usize)
        .map(|i| (10 * ((i / D as usize) % K as usize)) as f32 + 0.25 * (i % 3) as f32)
        .collect();
    let centroids: Vec<f32> = (0..K * D).map(|i| (10 * (i / D)) as f32).collect();
    let bufs = [
        Buffer::from_f32(&points),
        Buffer::from_f32(&centroids),
        Buffer::zeroed(Ty::I32, BATCHED),
    ];
    let out = agree_batched(&k, &bufs, &whole(&bufs));
    assert!(out.result.is_ok());
    let want: Vec<i32> = (0..BATCHED as i32).map(|t| t % K).collect();
    assert_eq!(i32s(&out.bufs[2]), want);
    assert_eq!(
        out.counters.branches,
        BATCHED as u64 * (K as u64 * (D as u64 + 3) + 1)
    );
}

#[test]
fn if_else_arms_writing_one_local_match_the_walker() {
    // Both arms write `x` and `y`; only the then-arm writes `z` (an f64),
    // so the else lanes must keep the `z` they had before the `If`.
    let (v, x, y, z) = (0, 1, 2, 3);
    let k = kernel(
        "both_arms",
        vec![
            buf("a", Ty::I32, BufAccess::Read),
            buf("out", Ty::I32, BufAccess::Write),
            buf("zs", Ty::F64, BufAccess::Write),
        ],
        vec![Ty::I32, Ty::I32, Ty::I32, Ty::F64],
        vec![
            assign(v, Expr::load(BufId(0), tid())),
            assign(z, cast(Ty::F64, tid())),
            Stmt::If {
                cond: cmp(BinOp::Eq, rem(local(v), 3), imm(0)),
                then_: vec![
                    assign(x, Expr::mul(local(v), imm(2))),
                    assign(y, Expr::add(local(x), imm(1))),
                    assign(z, Expr::mul(local(z), Expr::imm_f64(0.5))),
                ],
                else_: vec![
                    assign(x, Expr::sub(imm(0), local(v))),
                    assign(y, Expr::add(local(x), imm(20))),
                ],
            },
            store(1, cell(2, 0), local(x)),
            store(1, cell(2, 1), local(y)),
            Stmt::Store {
                buf: BufId(2),
                idx: tid(),
                value: local(z),
                dirty: false,
                checked: false,
            },
        ],
    );
    let a: Vec<i32> = (0..BATCHED as i32).map(|t| t * 7 % 11).collect();
    let bufs = [
        Buffer::from_i32(&a),
        Buffer::zeroed(Ty::I32, 2 * BATCHED),
        Buffer::zeroed(Ty::F64, BATCHED),
    ];
    let out = agree_batched(&k, &bufs, &whole(&bufs));
    assert!(out.result.is_ok());
    let cells = i32s(&out.bufs[1]);
    for (t, &v) in a.iter().enumerate() {
        let (x, y) = if v % 3 == 0 {
            (2 * v, 2 * v + 1)
        } else {
            (-v, 20 - v)
        };
        assert_eq!(cells[2 * t..2 * t + 2], [x, y], "thread {t}");
    }
}

#[test]
fn lane5_faulting_after_a_masked_arm_settles_like_the_walker() {
    // Lanes 0-2 of each batch take an arm that charges int, f64 and cast
    // ops; then `1000 / src[t]` faults in thread `LANE5` alone. The lanes
    // before it must have been charged exactly their own arms.
    let (x, g, q) = (0, 1, 2);
    let k = kernel(
        "masked_then_fault",
        vec![
            buf("src", Ty::I32, BufAccess::Read),
            buf("out", Ty::I32, BufAccess::Write),
        ],
        vec![Ty::I32, Ty::F64, Ty::I32],
        vec![
            store(1, tid(), Expr::mul(tid(), imm(3))),
            when(
                cmp(BinOp::Lt, rem(tid(), LANES as i32), imm(3)),
                vec![
                    assign(x, Expr::add(Expr::mul(tid(), imm(7)), imm(1))),
                    assign(g, Expr::mul(cast(Ty::F64, local(x)), Expr::imm_f64(0.5))),
                    assign(x, Expr::add(local(x), cast(Ty::I32, local(g)))),
                ],
            ),
            assign(
                q,
                Expr::bin(BinOp::Div, imm(1000), Expr::load(BufId(0), tid())),
            ),
            store(
                1,
                Expr::add(tid(), imm(BATCHED as i32)),
                Expr::add(local(x), local(q)),
            ),
        ],
    );
    let mut src: Vec<i32> = (1..=BATCHED as i32).collect();
    src[LANE5] = 0;
    let bufs = [Buffer::from_i32(&src), Buffer::zeroed(Ty::I32, 2 * BATCHED)];
    let out = agree_batched(&k, &bufs, &whole(&bufs));
    assert_eq!(out.result, Err(ExecError::DivByZero));
    assert_eq!(out.counters.threads, LANE5 as u64);
    // Two batches' lanes 0-2 took the arm before the fault: 6 of them.
    assert_eq!(out.counters.f64_ops, 6);
    // Thread `LANES + 1` took the arm; thread `LANES + 3` did not.
    let (t, cells) = (LANES as i32 + 1, i32s(&out.bufs[1]));
    let x = 7 * t + 1;
    assert_eq!(cells[BATCHED + LANES + 1], x + x / 2 + 1000 / (t + 1));
    assert_eq!(cells[BATCHED + LANES + 3], 1000 / (t + 3));
    assert_eq!(cells[BATCHED + LANE5], 0);
}

#[test]
fn arms_that_could_fault_touch_memory_or_branch_split_like_the_walker() {
    // Each kernel diverges on `t % 3 == 0` into an arm the batch may not
    // run masked: a load, a store, an integer `/`, and an `If` nested in
    // another (the inner one alone is maskable).
    let diverge = || cmp(BinOp::Eq, rem(tid(), 3), imm(0));
    let x = || local(0);
    let arms: [(&str, Vec<Stmt>); 4] = [
        ("load_arm", vec![assign(0, Expr::load(BufId(0), tid()))]),
        (
            "store_arm",
            vec![store(1, cell(2, 1), tid()), assign(0, imm(5))],
        ),
        (
            "div_arm",
            vec![assign(
                0,
                Expr::bin(BinOp::Div, imm(1000), Expr::add(rem(tid(), 7), imm(1))),
            )],
        ),
        (
            "nested_arm",
            vec![Stmt::If {
                cond: cmp(BinOp::Eq, rem(tid(), 2), imm(0)),
                then_: vec![assign(0, imm(1))],
                else_: vec![assign(0, imm(2))],
            }],
        ),
    ];
    for (name, then_) in arms {
        let k = kernel(
            name,
            vec![
                buf("a", Ty::I32, BufAccess::Read),
                buf("out", Ty::I32, BufAccess::Write),
            ],
            vec![Ty::I32],
            vec![
                when(cmp(BinOp::Ge, tid(), imm(0)), vec![when(diverge(), then_)]),
                store(1, cell(2, 0), Expr::add(x(), imm(100))),
            ],
        );
        let a: Vec<i32> = (0..BATCHED as i32).map(|t| t * 5 - 40).collect();
        let bufs = [Buffer::from_i32(&a), Buffer::zeroed(Ty::I32, 2 * BATCHED)];
        let out = agree_batched(&k, &bufs, &whole(&bufs));
        assert!(out.result.is_ok(), "{name}");
        assert_eq!(out.counters.threads, BATCHED as u64, "{name}");
    }
}

// ---------------------------------------------------------------------------
// One negative test per rejection rule: `compile` refuses the kernel, and
// the walker (usually) raises a `TypeError` on it — the typer refuses
// what the reference semantics refuses.
// ---------------------------------------------------------------------------

/// A small world for ill-typed kernels: an i32 and an f64 input, an i32
/// output, locals of three types and one i32 reduction.
fn rejected(name: &str, body: Vec<Stmt>) -> Outcome {
    let k = Kernel {
        reductions: vec![ScalarReduction {
            var: "s".into(),
            ty: Ty::I32,
            op: RmwOp::Add,
        }],
        ..kernel(
            name,
            vec![
                buf("i", Ty::I32, BufAccess::Read),
                buf("d", Ty::F64, BufAccess::ReadWrite),
                buf("out", Ty::I32, BufAccess::Write),
            ],
            vec![Ty::I32, Ty::F64, Ty::Bool],
            body,
        )
    };
    let err = regvm::compile(&k).expect_err("typing must reject the kernel");
    assert!(err.0.starts_with(&format!("kernel `{name}`: ")), "{err}");
    let bufs = [
        Buffer::from_i32(&EDGE_I32),
        Buffer::from_f64(&EDGE_F64),
        Buffer::zeroed(Ty::I32, 8),
    ];
    walk(&k, &bufs, &[Binding::whole(8); 3])
}

fn is_type_error(o: &Outcome) -> bool {
    matches!(o.result, Err(ExecError::TypeError(_)))
}

#[test]
fn each_typing_rule_rejects() {
    let i = || Expr::load(BufId(0), tid());
    let d = || Expr::load(BufId(1), tid());
    let b = || cmp(BinOp::Gt, i(), imm(0));
    let out = |v: Expr| store(2, tid(), v);
    let unary = |op, a: Expr| Expr::Unary { op, a: Box::new(a) };

    // Operand types differ — arithmetic and comparison.
    assert!(is_type_error(&rejected(
        "add_i32_f64",
        vec![out(Expr::add(i(), d()))]
    )));
    assert!(is_type_error(&rejected(
        "lt_f64_i32",
        vec![out(cmp(BinOp::Lt, d(), i()))]
    )));
    // Arithmetic on Bool.
    assert!(is_type_error(&rejected(
        "add_bool",
        vec![out(Expr::add(b(), b()))]
    )));
    // Non-`I32` index: load, store (see `untypeable_kernel_...`), atomic.
    assert!(is_type_error(&rejected(
        "load_idx",
        vec![out(Expr::load(BufId(0), d()))]
    )));
    assert!(is_type_error(&rejected(
        "atomic_idx",
        vec![Stmt::AtomicRmw {
            buf: BufId(2),
            idx: b(),
            op: RmwOp::Add,
            value: imm(1)
        }],
    )));
    // `Assign` whose value is not of the local's declared type. The
    // walker has no such rule — the local just changes type — so this
    // one runs clean on both sides.
    assert!(rejected(
        "assign_ty",
        vec![assign(0, d()), out(cast(Ty::I32, local(0)))]
    )
    .result
    .is_ok());
    // ... and where the drifted local later meets its declared type.
    assert!(is_type_error(&rejected(
        "assign_ty_then_use",
        vec![assign(0, d()), out(Expr::add(local(0), imm(1)))],
    )));
    // `Select` arms of different types: legal dynamically, either arm.
    assert!(rejected("select_arms", vec![out(select(b(), i(), d()))])
        .result
        .is_ok());
    // `AtomicRmw` value that is not of the buffer's type.
    assert!(is_type_error(&rejected(
        "atomic_val",
        vec![Stmt::AtomicRmw {
            buf: BufId(1),
            idx: tid(),
            op: RmwOp::Add,
            value: imm(1)
        }],
    )));
    // `ReduceScalar` value that is not of the reduction's type, or Bool.
    let reduce = |value| Stmt::ReduceScalar {
        slot: 0,
        op: RmwOp::Add,
        value,
    };
    assert!(is_type_error(&rejected("reduce_f64", vec![reduce(d())])));
    assert!(is_type_error(&rejected("reduce_bool", vec![reduce(b())])));
    // Float `Rem` and bitwise ops.
    for op in [
        BinOp::Rem,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
        BinOp::Shl,
        BinOp::Shr,
    ] {
        let o = rejected(
            &format!("f64_{op:?}"),
            vec![out(cast(Ty::I32, Expr::bin(op, d(), d())))],
        );
        assert!(is_type_error(&o), "{op:?}");
    }
    // `Neg` on Bool, `BitNot` and `Not` on a float.
    assert!(is_type_error(&rejected(
        "neg_bool",
        vec![out(unary(UnOp::Neg, b()))]
    )));
    assert!(is_type_error(&rejected(
        "bitnot_f64",
        vec![out(unary(UnOp::BitNot, d()))]
    )));
    assert!(is_type_error(&rejected("not_f64", vec![out(not(d()))])));
    // `Abs` on a non-`I32`; a Bool builtin argument.
    assert!(is_type_error(&rejected(
        "abs_f64",
        vec![out(call(Builtin::Abs, vec![d()]))]
    )));
    assert!(is_type_error(&rejected(
        "sqrt_bool",
        vec![out(call(Builtin::Sqrt, vec![b()]))]
    )));
    assert!(is_type_error(&rejected(
        "pow_bool",
        vec![out(call(Builtin::Pow, vec![d(), b()]))]
    )));
    // A condition that is neither Bool nor I32, in each context.
    let then_ = || vec![out(imm(1))];
    assert!(is_type_error(&rejected(
        "if_f64",
        vec![Stmt::If {
            cond: d(),
            then_: then_(),
            else_: vec![]
        }]
    )));
    assert!(is_type_error(&rejected(
        "while_f64",
        vec![Stmt::While {
            cond: d(),
            body: then_()
        }]
    )));
    assert!(is_type_error(&rejected(
        "select_f64",
        vec![out(select(d(), imm(1), imm(2)))]
    )));
    assert!(is_type_error(&rejected(
        "land_f64",
        vec![out(Expr::bin(BinOp::LAnd, d(), b()))]
    )));
    // An rhs is only reached when the lhs does not decide.
    assert!(is_type_error(&rejected(
        "lor_rhs_f64",
        vec![out(Expr::bin(BinOp::LOr, b(), d()))]
    )));
    // Ill-typed code no thread reaches is still rejected; nothing fails.
    let dead = Stmt::If {
        cond: cmp(BinOp::Lt, tid(), imm(0)),
        then_: vec![out(Expr::add(i(), d()))],
        else_: vec![out(i())],
    };
    assert!(rejected("dead_branch", vec![dead]).result.is_ok());
}

#[test]
fn frames_wider_than_u16_and_invalid_kernels_are_rejected() {
    // 70 000 locals do not fit 16-bit slot operands; the walker runs it.
    let wide = kernel(
        "wide",
        vec![buf("out", Ty::I32, BufAccess::Write)],
        vec![Ty::I32; 70_000],
        vec![assign(69_999, tid()), store(0, tid(), local(69_999))],
    );
    let err = regvm::compile(&wide).expect_err("too wide for u16 slots");
    assert_eq!(err.0, "kernel `wide`: 70003 frame slots exceed u16");
    let bufs = [Buffer::zeroed(Ty::I32, 4)];
    assert!(walk(&wide, &bufs, &[Binding::whole(4)]).result.is_ok());
    // ... while one that just fits compiles.
    let fits = Kernel {
        locals: vec![Ty::I32; 65_000],
        body: vec![assign(64_999, tid()), store(0, tid(), local(64_999))],
        ..wide.clone()
    };
    agree(&fits, &bufs, 4);

    // Kernels that fail `Kernel::validate` never reach the tree walk of
    // `compile` (nor, behind `accrt`'s door, any interpreter).
    let bad_bodies = [
        vec![Stmt::Break],
        vec![Stmt::Continue],
        vec![assign(70_000, imm(0))],
        vec![store(0, tid(), Expr::Param(ParamId(0)))],
        vec![store(1, tid(), imm(0))],
        vec![store(0, tid(), Expr::load(BufId(9), tid()))],
        vec![Stmt::ReduceScalar {
            slot: 0,
            op: RmwOp::Add,
            value: imm(1),
        }],
        vec![store(
            0,
            tid(),
            call(Builtin::Pow, vec![Expr::imm_f64(2.0)]),
        )],
    ];
    for body in bad_bodies {
        let k = Kernel {
            body,
            ..wide.clone()
        };
        let invalid = k.validate().expect_err("the body is malformed");
        let err = regvm::compile(&k).expect_err("a malformed kernel is refused");
        assert_eq!(err.0, format!("kernel `wide`: {}", invalid.0));
    }
    // A Bool-typed reduction validates but has no identity to run from.
    let bool_reduction = Kernel {
        reductions: vec![ScalarReduction {
            var: "b".into(),
            ty: Ty::Bool,
            op: RmwOp::Max,
        }],
        body: vec![Stmt::ReduceScalar {
            slot: 0,
            op: RmwOp::Max,
            value: cmp(BinOp::Gt, tid(), imm(1)),
        }],
        locals: vec![],
        ..wide
    };
    assert!(bool_reduction.validate().is_ok());
    let err = regvm::compile(&bool_reduction).expect_err("no bool reductions");
    assert_eq!(err.0, "kernel `wide`: bool reduction");
}

// ---------------------------------------------------------------------------
// Random kernel generation: a byte stream drives a small structured,
// *typed* generator over a fixed world — an i32, an f32 and an f64 read
// buffer, a distributed (checked-store) and a replicated (dirty-store) i32
// buffer, an f64 read-write buffer; locals of all four types; i32, f32
// and f64 parameters; an i32 and an f64 scalar reduction. About one kernel
// in twenty is deliberately ill-typed (a float assigned to an i32 local),
// which exercises the rejection.
// ---------------------------------------------------------------------------

const RAND_N: usize = 64;
/// Buffer indices of the random world.
const A: u32 = 0;
const DIST: u32 = 1;
const REPL: u32 = 2;
const FA: u32 = 3;
const DA: u32 = 4;
const DRW: u32 = 5;
/// The `I32` loop counter, and the `F32`, `F64` and `Bool` locals;
/// locals 0 and 1 are general `I32`s.
const LOOP: u32 = 2;
const LS: u32 = 3;
const LD: u32 = 4;
const LB: u32 = 5;

struct Gen<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Gen<'a> {
    fn new(bytes: &'a [u8]) -> Gen<'a> {
        Gen { bytes, pos: 0 }
    }
    fn next(&mut self) -> u8 {
        let b = self.bytes[self.pos % self.bytes.len()];
        self.pos = self.pos.wrapping_add(1);
        b
    }
    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[usize::from(self.next()) % from.len()]
    }
    /// A small float: quarter steps in [-32, 32).
    fn small(&mut self) -> f64 {
        (f64::from(self.next()) - 128.0) * 0.25
    }
    /// An in-bounds index into any buffer of the world.
    fn masked(&mut self, depth: u32) -> Expr {
        Expr::bin(
            BinOp::And,
            self.expr(Ty::I32, depth),
            imm(RAND_N as i32 - 1),
        )
    }

    fn leaf(&mut self, ty: Ty) -> Expr {
        match (ty, self.next() % 4) {
            (Ty::I32, 0) => Expr::ThreadIdx,
            (Ty::I32, 1) => param(u32::from(self.next()) % 2),
            (Ty::I32, 2) => local(u32::from(self.next()) % 3),
            (Ty::I32, _) => imm(i32::from(self.next()) - 128),
            (Ty::F32, 0) => param(2),
            (Ty::F32, 1) => Expr::Imm(Value::F32(self.small() as f32)),
            (Ty::F32, _) => local(LS),
            (Ty::F64, 0) => param(3),
            (Ty::F64, 1) => Expr::imm_f64(self.small()),
            (Ty::F64, _) => local(LD),
            (Ty::Bool, 0) => Expr::Imm(Value::Bool(self.next().is_multiple_of(2))),
            (Ty::Bool, _) => local(LB),
        }
    }

    /// A statically typed expression of type `ty`. Integer division and
    /// remainder are included on purpose: random data drives both paths
    /// into `DivByZero` faults in the middle of a thread.
    fn expr(&mut self, ty: Ty, depth: u32) -> Expr {
        if depth == 0 {
            return self.leaf(ty);
        }
        let d = depth - 1;
        let other = |g: &mut Gen<'_>| {
            let from = g.pick(&[Ty::I32, Ty::F32, Ty::F64, Ty::Bool]);
            cast(ty, g.expr(from, d))
        };
        match (ty, self.next() % 8) {
            (Ty::Bool, _) => self.cond(depth),
            (_, 0 | 1) => self.leaf(ty),
            (Ty::I32, 2) => Expr::load(BufId(A), self.masked(d)),
            (Ty::F32, 2) => Expr::load(BufId(FA), self.masked(d)),
            (_, 2) => Expr::load(BufId(self.pick(&[DA, DRW])), self.masked(d)),
            (Ty::I32, 3) => Expr::Unary {
                op: self.pick(&[UnOp::Neg, UnOp::BitNot]),
                a: Box::new(self.expr(ty, d)),
            },
            (_, 3) => Expr::Unary {
                op: UnOp::Neg,
                a: Box::new(self.expr(ty, d)),
            },
            (_, 4) => select(self.cond(d), self.expr(ty, d), self.expr(ty, d)),
            (_, 5) => other(self),
            (Ty::I32, 6) => match self.next() % 3 {
                0 => call(Builtin::Abs, vec![self.expr(ty, d)]),
                _ => call(
                    self.pick(&[Builtin::Min, Builtin::Max]),
                    vec![self.expr(ty, d), self.expr(ty, d)],
                ),
            },
            (_, 6) => {
                use Builtin::*;
                // The result takes the first argument's precision (an
                // i32 counts as f64); the second may be any number.
                let first = if ty == Ty::F64 {
                    self.pick(&[Ty::F64, Ty::I32])
                } else {
                    ty
                };
                let f = self.pick(&[Sqrt, Fabs, Exp, Log, Sin, Cos, Floor, Ceil, Pow, Min, Max]);
                let mut args = vec![self.expr(first, d)];
                if f.arity() == 2 {
                    let second = self.pick(&[Ty::I32, Ty::F32, Ty::F64]);
                    args.push(self.expr(second, d));
                }
                call(f, args)
            }
            (Ty::I32, _) => {
                let op = self.pick(&[
                    BinOp::Add,
                    BinOp::Sub,
                    BinOp::Mul,
                    BinOp::Xor,
                    BinOp::And,
                    BinOp::Or,
                    BinOp::Shl,
                    BinOp::Shr,
                    BinOp::Div,
                    BinOp::Rem,
                ]);
                Expr::bin(op, self.expr(ty, d), self.expr(ty, d))
            }
            _ => {
                let op = self.pick(&[BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div]);
                Expr::bin(op, self.expr(ty, d), self.expr(ty, d))
            }
        }
    }

    /// A Bool-typed condition; operands of `&&` / `||` / `!` are
    /// sometimes `I32`s, which count as conditions too.
    fn cond(&mut self, depth: u32) -> Expr {
        let compare = |g: &mut Gen<'_>, d: u32| {
            let op = g.pick(&[
                BinOp::Lt,
                BinOp::Le,
                BinOp::Gt,
                BinOp::Ge,
                BinOp::Eq,
                BinOp::Ne,
            ]);
            let ty = g.pick(&[Ty::I32, Ty::I32, Ty::F32, Ty::F64, Ty::Bool]);
            Expr::bin(op, g.expr(ty, d), g.expr(ty, d))
        };
        if depth == 0 {
            return compare(self, 0);
        }
        let d = depth - 1;
        let truthy = |g: &mut Gen<'_>| {
            if g.next().is_multiple_of(4) {
                g.expr(Ty::I32, d)
            } else {
                g.cond(d)
            }
        };
        match self.next() % 5 {
            0 => Expr::bin(BinOp::LAnd, truthy(self), truthy(self)),
            1 => Expr::bin(BinOp::LOr, truthy(self), truthy(self)),
            2 => not(truthy(self)),
            3 => self.leaf(Ty::Bool),
            _ => compare(self, d),
        }
    }

    /// A value of any type, for stores (which cast to the buffer's type).
    fn any(&mut self, depth: u32) -> Expr {
        let ty = self.pick(&[Ty::I32, Ty::I32, Ty::F32, Ty::F64, Ty::Bool]);
        self.expr(ty, depth)
    }

    /// Statements. `LOOP` is reserved as the loop counter so the single
    /// allowed `while` per nesting level always terminates; loop bodies
    /// may not contain further loops or assignments to it.
    fn stmts(&mut self, count: u32, depth: u32, allow_loop: bool) -> Vec<Stmt> {
        let mut out = Vec::new();
        for _ in 0..count {
            let choice = self.next() % if allow_loop { 10 } else { 9 };
            let stmt = match choice {
                0 => assign(u32::from(self.next()) % 2, self.expr(Ty::I32, 2)),
                // Checked store to the distributed buffer: any index is
                // legal, out-of-own indices become miss records.
                1 => Stmt::Store {
                    buf: BufId(DIST),
                    idx: self.expr(Ty::I32, 2),
                    value: self.any(1),
                    dirty: false,
                    checked: true,
                },
                // Dirty store to the replicated buffer, always in bounds.
                2 => Stmt::Store {
                    buf: BufId(REPL),
                    idx: self.masked(1),
                    value: self.any(1),
                    dirty: true,
                    checked: false,
                },
                3 => {
                    let (buf, ty) = self.pick(&[(REPL, Ty::I32), (DRW, Ty::F64)]);
                    Stmt::AtomicRmw {
                        buf: BufId(buf),
                        idx: self.masked(1),
                        op: self.pick(&[RmwOp::Add, RmwOp::Mul, RmwOp::Min, RmwOp::Max]),
                        value: self.expr(ty, 1),
                    }
                }
                4 => {
                    let (slot, ty) = self.pick(&[(0, Ty::I32), (1, Ty::F64)]);
                    Stmt::ReduceScalar {
                        slot,
                        op: self.pick(&[RmwOp::Add, RmwOp::Min, RmwOp::Max]),
                        value: self.expr(ty, 1),
                    }
                }
                5 if depth > 0 => {
                    let cond = if self.next().is_multiple_of(8) {
                        self.expr(Ty::I32, 1)
                    } else {
                        self.cond(1)
                    };
                    let nt = u32::from(self.next()) % 3;
                    let then_ = self.stmts(nt, depth - 1, allow_loop);
                    let ne = u32::from(self.next()) % 2;
                    let else_ = self.stmts(ne, depth - 1, allow_loop);
                    Stmt::If { cond, then_, else_ }
                }
                5 => assign(u32::from(self.next()) % 2, self.expr(Ty::I32, 1)),
                6 => {
                    let (l, ty) = self.pick(&[(LS, Ty::F32), (LD, Ty::F64), (LB, Ty::Bool)]);
                    assign(l, self.expr(ty, 2))
                }
                7 => store(DRW, self.masked(1), self.any(2)),
                // Rarely, an ill-typed assignment: a float into an i32 local.
                8 if self.next().is_multiple_of(20) => assign(0, self.expr(Ty::F64, 1)),
                8 => assign(LD, cast(Ty::F64, self.any(1))),
                _ => {
                    let trips = i32::from(self.next()) % 5;
                    let nb = u32::from(self.next()) % 3;
                    let mut body = self.stmts(nb, depth.min(1), false);
                    body.push(assign(LOOP, Expr::add(local(LOOP), imm(1))));
                    out.push(assign(LOOP, imm(0)));
                    Stmt::While {
                        cond: Expr::bin(BinOp::Lt, local(LOOP), imm(trips)),
                        body,
                    }
                }
            };
            out.push(stmt);
        }
        out
    }
}

fn random_kernel(bytes: &[u8]) -> Kernel {
    let mut g = Gen::new(bytes);
    let count = 2 + u32::from(g.next()) % 5;
    let body = g.stmts(count, 2, true);
    let scalar = |name: &str, ty| ScalarParam {
        name: name.into(),
        ty,
    };
    let reduction = |var: &str, ty| ScalarReduction {
        var: var.into(),
        ty,
        op: RmwOp::Add,
    };
    Kernel {
        name: "random".into(),
        params: vec![
            i32_param("p0"),
            i32_param("p1"),
            scalar("ps", Ty::F32),
            scalar("pd", Ty::F64),
        ],
        bufs: vec![
            buf("a", Ty::I32, BufAccess::Read),
            buf("d", Ty::I32, BufAccess::ReadWrite),
            buf("r", Ty::I32, BufAccess::ReadWrite),
            buf("fa", Ty::F32, BufAccess::Read),
            buf("da", Ty::F64, BufAccess::Read),
            buf("drw", Ty::F64, BufAccess::ReadWrite),
        ],
        locals: vec![Ty::I32, Ty::I32, Ty::I32, Ty::F32, Ty::F64, Ty::Bool],
        reductions: vec![reduction("sum", Ty::I32), reduction("fsum", Ty::F64)],
        body,
    }
}

/// Full-sanitizer world for a random kernel: distributed `d` with a
/// partial owned range, replicated `r` with a dirty map, load-window and
/// store auditing on (the moral equivalent of `SanitizeLevel::Full`).
fn random_world(
    data: &[i32],
    own_lo: usize,
    own_len: usize,
) -> (Vec<Buffer>, Vec<Binding>, Vec<BufSanitize>) {
    let n = RAND_N;
    let at = |i: usize| data[i % data.len()];
    let a: Vec<i32> = (0..n).map(at).collect();
    let d: Vec<i32> = (0..n).map(|i| at(i * 5 + 2).wrapping_mul(3)).collect();
    let r: Vec<i32> = (0..n).map(|i| at(i * 11 + 7).wrapping_sub(9)).collect();
    // Floats with fractions, both signs, and the odd NaN and infinity.
    let float = |i: usize| match at(i * 3 + 1) {
        97 => f64::NAN,
        -97 => f64::INFINITY,
        v => f64::from(v) * 0.375,
    };
    let fa: Vec<f32> = (0..n).map(|i| float(i) as f32).collect();
    let da: Vec<f64> = (0..n).map(|i| float(i * 7 + 5)).collect();
    let own_lo = own_lo % n;
    let own_hi = (own_lo + own_len % n).min(n);
    let bufs = vec![
        Buffer::from_i32(&a),
        Buffer::from_i32(&d),
        Buffer::from_i32(&r),
        Buffer::from_f32(&fa),
        Buffer::from_f64(&da),
        Buffer::from_f64(&da),
    ];
    let bindings = vec![
        Binding::whole(n),
        Binding {
            window_lo: 0,
            own: (own_lo as i64, own_hi as i64),
            dirty: false,
        },
        // Unchecked stores land anywhere in the window; only the audit
        // of `check_stores` looks at what this GPU owns.
        Binding {
            window_lo: 0,
            own: (8, 40),
            dirty: true,
        },
        Binding::whole(n),
        Binding::whole(n),
        Binding::whole(n),
    ];
    // Tight declared windows so random access patterns produce
    // sanitizer records that must replay identically.
    let window = |load: i64, carried: Option<i64>, check_stores| BufSanitize {
        load_window: Some((1, load, load)),
        carried_window: carried.map(|c| (1, c, c)),
        check_stores,
    };
    let sanitize = vec![
        window(2, Some(1), false),
        BufSanitize {
            load_window: None,
            carried_window: None,
            check_stores: true,
        },
        window(4, None, true),
        window(3, None, false),
        window(8, Some(2), false),
        window(4, None, true),
    ];
    (bufs, bindings, sanitize)
}

/// One random launch, sanitized and again unsanitized; `None` when the
/// kernel was refused, else whether it may run in lane batches.
fn fuzz_case(
    prog: &[u8],
    data: &[i32],
    p0: i32,
    p1: i32,
    own_lo: usize,
    own_len: usize,
    cap: usize,
) -> Option<bool> {
    let k = random_kernel(prog);
    let (bufs, bindings, sanitize) = random_world(data, own_lo, own_len);
    let params = [
        Value::I32(p0),
        Value::I32(p1),
        Value::F32(p0 as f32 * 0.5),
        Value::F64(f64::from(p1) - 0.25),
    ];
    let rc = match regvm::compile(&k) {
        Ok(rc) => rc,
        Err(e) => {
            // Only an assignment's type is ever off: the deliberate slip,
            // or a `Min` / `Max` of two ints where a float was asked for.
            assert!(e.0.contains(" value assigned to "), "{e}");
            return None;
        }
    };
    assert_regvm_agrees(
        &k,
        &params,
        &bufs,
        &bindings,
        &sanitize,
        cap,
        0,
        RAND_N as i64,
    );
    // Unsanitized, a kernel that may batch runs its lane batches.
    assert_regvm_agrees(&k, &params, &bufs, &bindings, &[], cap, 0, RAND_N as i64);
    Some(rc.may_batch())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// Random structured kernels (control flow, all four types, casts,
    /// builtins, RMW atomics, distributed checked stores, replicated
    /// dirty stores, reductions) under full sanitizing: walker and
    /// register tier stay bit-identical on every observable, including
    /// mid-thread faults.
    #[test]
    fn regvm_equals_walker_on_random_kernels(
        prog in prop::collection::vec(0u8..=255, 8..96),
        data in prop::collection::vec(-100i32..100, 4..32),
        p0 in -8i32..64,
        p1 in -4i32..8,
        own_lo in 0usize..64,
        own_len in 0usize..64,
        cap in 0usize..96,
    ) {
        fuzz_case(&prog, &data, p0, p1, own_lo, own_len, cap);
    }

    /// Randomized BFS-shaped launches over arbitrary graph data and
    /// iteration sub-ranges.
    #[test]
    fn regvm_equals_walker_on_random_bfs(
        seed in prop::collection::vec(-10i32..10, 4..32),
        n in 8usize..96,
        level in -2i32..3,
        lo in 0usize..96,
        hi in 0usize..96,
    ) {
        let k = bfs_like_kernel();
        let (bufs, bindings) = bfs_world(n, &seed);
        let params = [Value::I32(level), Value::I32(n as i32), Value::I32(7)];
        let lo = (lo % n) as i64;
        let hi = (hi % n) as i64;
        let (lo, hi) = (lo.min(hi), lo.max(hi));
        assert_regvm_agrees(&k, &params, &bufs, &bindings, &[], usize::MAX, lo, hi);
    }
}

/// 600 deterministic random launches, with floors on the shares of
/// kernels that compiled and that may batch: were the typing rules (or
/// the generator) to drift until most kernels were refused, or none
/// batched, the equalities above would hold vacuously.
#[test]
fn regvm_fuzz_smoke() {
    // Deterministic xorshift stream; no RNG dependency needed.
    let mut s = 0x9e3779b97f4a7c15u64;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let (cases, mut compiled, mut batched) = (600, 0, 0);
    for case in 0..cases {
        let prog: Vec<u8> = (0..32 + (next() % 64) as usize)
            .map(|_| next() as u8)
            .collect();
        let data: Vec<i32> = (0..8 + (next() % 24) as usize)
            .map(|_| (next() as i32) % 100)
            .collect();
        let p0 = (next() % 64) as i32 - 8;
        let p1 = (next() % 12) as i32 - 4;
        let own_lo = (next() % 64) as usize;
        let own_len = (next() % 64) as usize;
        let cap = if case % 3 == 0 {
            (next() % 96) as usize
        } else {
            usize::MAX
        };
        let ran = fuzz_case(&prog, &data, p0, p1, own_lo, own_len, cap);
        compiled += usize::from(ran.is_some());
        batched += usize::from(ran == Some(true));
    }
    assert!(
        compiled * 10 >= cases * 9,
        "only {compiled}/{cases} kernels compiled"
    );
    assert!(
        compiled < cases,
        "the ill-typed share of the generator is gone"
    );
    assert!(
        batched * 5 >= cases,
        "only {batched}/{cases} kernels may batch"
    );
}
