//! Differential tests: the stack bytecode against the AST walker
//! reference.
//!
//! `run_kernel_range` compiles kernel bodies to the plain stack bytecode;
//! `run_kernel_range_ast` keeps the original tree walk. The timing model
//! prices launches from the `OpCounters` these produce, so the two paths
//! must agree on *everything* observable — buffer bytes, dirty bits,
//! miss records, reduction partials, counters, per-buffer byte tallies,
//! and the exact `ExecError` on failure — or simulated results would
//! silently drift.

use acc_kernel_ir::{
    run_kernel_range, run_kernel_range_ast, BinOp, BufAccess, BufId, BufParam, Buffer, BufSlot,
    Builtin, DirtyMap, ExecCtx, ExecError, Expr, Kernel, LocalId, MissRecord, OpCounters, ParamId,
    RmwOp, ScalarParam, ScalarReduction, Stmt, Ty, UnOp, Value,
};
use proptest::prelude::*;

/// Everything observable after a launch, for equality assertions.
#[derive(Debug, PartialEq)]
struct Outcome {
    result: Result<(), ExecError>,
    bufs: Vec<Vec<u8>>,
    dirty_bits: Vec<Option<Vec<bool>>>,
    counters: OpCounters,
    per_buf_bytes: Vec<(u64, u64)>,
    misses: Vec<MissRecord>,
    reductions: Vec<Value>,
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
    miss_capacity: usize,
    lo: i64,
    hi: i64,
    ast: bool,
) -> Outcome {
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
    let result = if ast {
        run_kernel_range_ast(k, &mut ctx, lo, hi)
    } else {
        run_kernel_range(k, &mut ctx, lo, hi)
    };
    let counters = ctx.counters;
    let per_buf_bytes = ctx.per_buf_bytes.clone();
    let misses = ctx.miss_buf.clone();
    let reductions = ctx.reduction_partials.clone();
    drop(ctx);
    Outcome {
        result,
        bufs: bufs.iter().map(|b| b.bytes().to_vec()).collect(),
        dirty_bits: dirty
            .iter()
            .map(|dm| dm.as_ref().map(|d| (0..d.len()).map(|i| d.is_dirty(i)).collect()))
            .collect(),
        counters,
        per_buf_bytes,
        misses,
        reductions,
    }
}

fn assert_paths_agree(
    k: &Kernel,
    params: &[Value],
    init: &[Buffer],
    bindings: &[Binding],
    miss_capacity: usize,
    lo: i64,
    hi: i64,
) -> Outcome {
    let walker = run_one(k, params, init, bindings, miss_capacity, lo, hi, true);
    let bytecode = run_one(k, params, init, bindings, miss_capacity, lo, hi, false);
    assert_eq!(walker, bytecode, "bytecode diverged from walker on `{}`", k.name);
    bytecode
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

/// The BFS edge-scan shape: parameters copied into locals, loads at the
/// thread index, load-compare-branches, a dirty store and a scalar
/// reduction.
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
                        cond: Expr::bin(BinOp::Lt, Expr::load(BufId(2), local(2)), Expr::imm_i32(0)),
                        then_: vec![
                            Stmt::Store {
                                buf: BufId(2),
                                idx: local(2),
                                value: Expr::add(local(0), Expr::imm_i32(1)),
                                dirty: true,
                                checked: false,
                            },
                            Stmt::ReduceScalar {
                                slot: 0,
                                op: RmwOp::Add,
                                value: Expr::imm_i32(1),
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

/// A kernel touching every remaining construct: while/break/continue,
/// ternary select, short-circuit logic, casts, builtin calls, division,
/// unary ops, atomic RMW, and checked (write-miss) stores.
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
                value: Expr::imm_i32(0),
            },
            Stmt::Assign {
                local: LocalId(1),
                value: Expr::load(BufId(0), Expr::ThreadIdx),
            },
            // while (l0 < limit) { l0++; if (l0 == 2) continue; if (l0 > 5) break; }
            Stmt::While {
                cond: Expr::bin(BinOp::Lt, local(0), param(0)),
                body: vec![
                    Stmt::Assign {
                        local: LocalId(0),
                        value: Expr::add(local(0), Expr::imm_i32(1)),
                    },
                    Stmt::If {
                        cond: Expr::bin(BinOp::Eq, local(0), Expr::imm_i32(2)),
                        then_: vec![Stmt::Continue],
                        else_: vec![],
                    },
                    Stmt::If {
                        cond: Expr::bin(BinOp::Gt, local(0), Expr::imm_i32(5)),
                        then_: vec![Stmt::Break],
                        else_: vec![],
                    },
                ],
            },
            // l1 = (l1 != 0 && l1 / divisor > 0) ? -l1 : l1 % 7 (division and
            // remainder count as special ops; `!=`/`>` comparisons as int ops).
            Stmt::Assign {
                local: LocalId(1),
                value: Expr::Select {
                    c: Box::new(Expr::bin(
                        BinOp::LAnd,
                        Expr::bin(BinOp::Ne, local(1), Expr::imm_i32(0)),
                        Expr::bin(
                            BinOp::Gt,
                            Expr::bin(BinOp::Div, local(1), param(1)),
                            Expr::imm_i32(0),
                        ),
                    )),
                    t: Box::new(Expr::Unary {
                        op: UnOp::Neg,
                        a: Box::new(local(1)),
                    }),
                    f: Box::new(Expr::bin(BinOp::Rem, local(1), Expr::imm_i32(7))),
                },
            },
            // Checked store: lands locally inside `own`, records a miss
            // outside it.
            Stmt::Store {
                buf: BufId(1),
                idx: Expr::ThreadIdx,
                value: Expr::bin(
                    BinOp::Xor,
                    local(1),
                    Expr::bin(BinOp::Shl, local(0), Expr::imm_i32(1)),
                ),
                dirty: false,
                checked: true,
            },
            // Atomic f64 accumulation through a cast and a builtin call.
            Stmt::AtomicRmw {
                buf: BufId(2),
                idx: Expr::bin(BinOp::Rem, Expr::ThreadIdx, Expr::imm_i32(4)),
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

fn bfs_world(n: usize, seed: &[i32]) -> (Vec<Buffer>, Vec<Binding>) {
    let src: Vec<i32> = (0..n).map(|i| seed[i % seed.len()].rem_euclid(n as i32)).collect();
    let dst: Vec<i32> = (0..n)
        .map(|i| seed[(i * 7 + 3) % seed.len()].rem_euclid(n as i32))
        .collect();
    let levels: Vec<i32> = (0..n).map(|i| seed[(i * 13 + 1) % seed.len()] % 3 - 1).collect();
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
fn bfs_shape_matches_walker() {
    let k = bfs_like_kernel();
    let (bufs, bindings) = bfs_world(64, &[3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5]);
    // Sweep every frontier level the synthetic `levels` array contains so
    // the frontier-hit path (dirty store + reduction) runs at least once.
    let mut total = OpCounters::default();
    for level in -1..=1 {
        let params = [Value::I32(level), Value::I32(64), Value::I32(0)];
        let out = assert_paths_agree(&k, &params, &bufs, &bindings, usize::MAX, 0, 64);
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
    // `out` owns only the middle third, so the checked stores at both
    // ends become miss records.
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
    let out = assert_paths_agree(&k, &params, &bufs, &bindings, usize::MAX, 0, n as i64);
    assert!(out.result.is_ok());
    assert_eq!(out.misses.len() as u64, out.counters.misses);
    assert_eq!(out.counters.misses, 32); // both thirds outside `own`
    assert!(out.counters.atomics > 0 && out.counters.special_ops > 0);
}

#[test]
fn error_paths_match_walker() {
    // Out-of-bounds load: same error, same partial state.
    let k = Kernel {
        name: "oob".into(),
        params: vec![],
        bufs: vec![buf("a", Ty::I32, BufAccess::Read), buf("o", Ty::I32, BufAccess::Write)],
        locals: vec![],
        reductions: vec![],
        body: vec![Stmt::Store {
            buf: BufId(1),
            idx: Expr::ThreadIdx,
            value: Expr::load(BufId(0), Expr::add(Expr::ThreadIdx, Expr::imm_i32(5))),
            dirty: false,
            checked: false,
        }],
    };
    let bufs = vec![Buffer::from_i32(&[1, 2, 3, 4, 5, 6, 7, 8]), Buffer::zeroed(Ty::I32, 8)];
    let bind = vec![Binding::whole(8), Binding::whole(8)];
    let out = assert_paths_agree(&k, &[], &bufs, &bind, usize::MAX, 0, 8);
    assert!(matches!(out.result, Err(ExecError::OutOfBounds { .. })));

    // Division by zero via a parameter (defeats constant folding and the
    // compile-time `ImmIndex` fusion guard).
    let k = Kernel {
        name: "div0".into(),
        params: vec![i32_param("d")],
        bufs: vec![buf("o", Ty::I32, BufAccess::Write)],
        locals: vec![],
        reductions: vec![],
        body: vec![Stmt::Store {
            buf: BufId(0),
            idx: Expr::ThreadIdx,
            value: Expr::bin(BinOp::Div, Expr::imm_i32(10), param(0)),
            dirty: false,
            checked: false,
        }],
    };
    let bufs = vec![Buffer::zeroed(Ty::I32, 4)];
    let bind = vec![Binding::whole(4)];
    let out = assert_paths_agree(&k, &[Value::I32(0)], &bufs, &bind, usize::MAX, 0, 4);
    assert_eq!(out.result, Err(ExecError::DivByZero));

    // Non-integer buffer index: an immediate index is coerced by
    // `ToIndex` at run time, so the walker's `TypeError` survives.
    let k = Kernel {
        name: "badidx".into(),
        params: vec![],
        bufs: vec![buf("a", Ty::I32, BufAccess::Read), buf("o", Ty::I32, BufAccess::Write)],
        locals: vec![],
        reductions: vec![],
        body: vec![Stmt::Store {
            buf: BufId(0),
            idx: Expr::imm_f64(1.5),
            value: Expr::imm_i32(0),
            dirty: false,
            checked: false,
        }],
    };
    let bufs = vec![Buffer::from_i32(&[1, 2]), Buffer::zeroed(Ty::I32, 2)];
    let bind = vec![Binding::whole(2), Binding::whole(2)];
    let out = assert_paths_agree(&k, &[], &bufs, &bind, usize::MAX, 0, 2);
    assert!(matches!(out.result, Err(ExecError::TypeError(_))));

    // Miss-buffer overflow at an exact capacity boundary.
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
        assert_paths_agree(&k, &[Value::I32(8), Value::I32(3)], &bufs, &bindings, 7, 0, n as i64)
    };
    assert_eq!(out.result, Err(ExecError::MissBufferOverflow { capacity: 7 }));
    assert_eq!(out.misses.len(), 7);
}

/// Every boolean-context coercion failure must report the *same message*
/// from both paths, including when a short-circuit operator is nested
/// inside another boolean context (the inner `&& / ||` message wins over
/// the enclosing if/while/ternary one, because the operand fails first).
#[test]
fn bool_context_error_messages_match_walker() {
    let run = |name: &str, body: Vec<Stmt>, lo: i64, hi: i64, want: &str| {
        let k = Kernel {
            name: name.into(),
            params: vec![],
            bufs: vec![buf("o", Ty::I32, BufAccess::Write)],
            locals: vec![Ty::I32],
            reductions: vec![],
            body,
        };
        let bufs = vec![Buffer::zeroed(Ty::I32, 8)];
        let bind = vec![Binding::whole(8)];
        let out = assert_paths_agree(&k, &[], &bufs, &bind, usize::MAX, lo, hi);
        assert_eq!(
            out.result,
            Err(ExecError::TypeError(want.into())),
            "wrong message for `{name}`"
        );
    };

    let bad = || Expr::imm_f64(1.5);
    let store = |value: Expr| Stmt::Store {
        buf: BufId(0),
        idx: Expr::ThreadIdx,
        value,
        dirty: false,
        checked: false,
    };

    // Direct non-bool conditions in each context.
    run(
        "bad_if",
        vec![Stmt::If { cond: bad(), then_: vec![], else_: vec![] }],
        0,
        1,
        "non-bool if condition",
    );
    run(
        "bad_while",
        vec![Stmt::While { cond: bad(), body: vec![] }],
        0,
        1,
        "non-bool while condition",
    );
    run(
        "bad_ternary",
        vec![store(Expr::Select {
            c: Box::new(bad()),
            t: Box::new(Expr::imm_i32(1)),
            f: Box::new(Expr::imm_i32(2)),
        })],
        0,
        1,
        "non-bool ternary condition",
    );
    run(
        "bad_logic",
        vec![store(Expr::bin(BinOp::LAnd, bad(), Expr::imm_i32(1)))],
        0,
        1,
        "non-bool in && / ||",
    );

    // Nested: a short-circuit operator inside an if / while / ternary
    // condition. The rhs only trips for threads where the lhs does not
    // short-circuit, and the *logic* message must surface, not the
    // enclosing context's.
    run(
        "logic_rhs_in_if",
        vec![Stmt::If {
            cond: Expr::bin(BinOp::LAnd, Expr::bin(BinOp::Ne, Expr::ThreadIdx, Expr::imm_i32(0)), bad()),
            then_: vec![],
            else_: vec![],
        }],
        1,
        2,
        "non-bool in && / ||",
    );
    run(
        "logic_rhs_in_while",
        vec![Stmt::While {
            cond: Expr::bin(BinOp::LOr, Expr::bin(BinOp::Eq, Expr::ThreadIdx, Expr::imm_i32(-1)), bad()),
            body: vec![],
        }],
        0,
        1,
        "non-bool in && / ||",
    );
    run(
        "logic_lhs_in_ternary",
        vec![store(Expr::Select {
            c: Box::new(Expr::bin(BinOp::LOr, bad(), Expr::imm_i32(1))),
            t: Box::new(Expr::imm_i32(1)),
            f: Box::new(Expr::imm_i32(2)),
        })],
        0,
        1,
        "non-bool in && / ||",
    );

    // But a ternary whose *own* condition is a well-typed comparison of a
    // short-circuit result still reports the ternary message when the
    // select result itself is non-bool... i.e. nesting the other way:
    // `(x && y) ? bad_cond_if : _` — the inner if sees the float.
    run(
        "bad_if_behind_logic",
        vec![Stmt::If {
            cond: Expr::bin(BinOp::LAnd, Expr::imm_i32(1), Expr::imm_i32(1)),
            then_: vec![Stmt::If { cond: bad(), then_: vec![], else_: vec![] }],
            else_: vec![],
        }],
        0,
        1,
        "non-bool if condition",
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Randomized BFS-shaped launches: any graph data, any frontier
    /// level, any iteration sub-range, the two paths stay identical.
    #[test]
    fn bytecode_equals_walker_on_random_bfs(
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
        assert_paths_agree(&k, &params, &bufs, &bindings, usize::MAX, lo, hi);
    }

    /// Randomized kitchen-sink launches, including tight miss capacities
    /// that abort mid-range.
    #[test]
    fn bytecode_equals_walker_on_random_control_flow(
        vals in prop::collection::vec(-200i32..200, 8..64),
        limit in 0i32..12,
        divisor in -3i32..4,
        own_lo in 0usize..64,
        own_len in 0usize..64,
        cap in 0usize..40,
    ) {
        let k = kitchen_sink_kernel();
        let n = vals.len();
        let bufs = vec![
            Buffer::from_i32(&vals),
            Buffer::from_i32(&vec![0; n]),
            Buffer::zeroed(Ty::F64, 4),
        ];
        let own_lo = own_lo % n;
        let own_hi = (own_lo + own_len).min(n);
        let bindings = vec![
            Binding::whole(n),
            Binding { window_lo: 0, own: (own_lo as i64, own_hi as i64), dirty: false },
            Binding::whole(4),
        ];
        let params = [Value::I32(limit), Value::I32(divisor)];
        assert_paths_agree(&k, &params, &bufs, &bindings, cap, 0, n as i64);
    }
}
