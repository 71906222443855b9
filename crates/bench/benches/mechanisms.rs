//! Criterion benches for the runtime mechanisms the paper's design hinges
//! on: the kernel interpreter, the two-level dirty-bit map, the range-set
//! coherence bookkeeping, and the PCIe bus scheduler.

use acc_kernel_ir::dirty::DirtyMap;
use acc_kernel_ir::{
    run_kernel_range, BufAccess, BufId, BufParam, Buffer, ExecCtx, Expr, Kernel, LocalId,
    ScalarParam, Stmt, Ty, Value,
};
use acc_runtime::RangeSet;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

/// The saxpy kernel in IR form.
fn saxpy_kernel() -> Kernel {
    let k = Kernel {
        name: "saxpy".into(),
        params: vec![ScalarParam {
            name: "a".into(),
            ty: Ty::F64,
        }],
        bufs: vec![
            BufParam {
                name: "x".into(),
                ty: Ty::F64,
                access: BufAccess::Read,
            },
            BufParam {
                name: "y".into(),
                ty: Ty::F64,
                access: BufAccess::ReadWrite,
            },
        ],
        locals: vec![Ty::F64],
        reductions: vec![],
        body: vec![
            Stmt::Assign {
                local: LocalId(0),
                value: Expr::add(
                    Expr::mul(
                        Expr::Param(acc_kernel_ir::ParamId(0)),
                        Expr::load(BufId(0), Expr::ThreadIdx),
                    ),
                    Expr::load(BufId(1), Expr::ThreadIdx),
                ),
            },
            Stmt::Store {
                buf: BufId(1),
                idx: Expr::ThreadIdx,
                value: Expr::Local(LocalId(0)),
                dirty: false,
                checked: false,
            },
        ],
    };
    k.validate().unwrap();
    k
}

fn bench_interpreter(c: &mut Criterion) {
    let mut g = c.benchmark_group("interp/saxpy");
    let k = saxpy_kernel();
    for n in [1_000usize, 100_000] {
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut x = Buffer::zeroed(Ty::F64, n);
            let mut y = Buffer::zeroed(Ty::F64, n);
            b.iter(|| {
                let mut ctx = ExecCtx::new(
                    &k,
                    vec![Value::F64(2.0)],
                    vec![
                        acc_kernel_ir::BufSlot::whole(&mut x),
                        acc_kernel_ir::BufSlot::whole(&mut y),
                    ],
                );
                run_kernel_range(&k, &mut ctx, 0, n as i64).unwrap();
                black_box(ctx.counters.threads)
            })
        });
    }
    g.finish();
}

fn bench_dirty_marks(c: &mut Criterion) {
    let mut g = c.benchmark_group("dirty/mark");
    let n = 1 << 20;
    g.throughput(Throughput::Elements(n as u64 / 16));
    g.bench_function("scattered", |b| {
        b.iter(|| {
            let mut dm = DirtyMap::with_default_chunks(n, 4);
            let mut i = 7usize;
            for _ in 0..n / 16 {
                dm.mark(i % n);
                i = i.wrapping_mul(2654435761) % n;
            }
            black_box(dm.dirty_count())
        })
    });
    g.finish();
}

fn bench_dirty_scan(c: &mut Criterion) {
    let mut g = c.benchmark_group("dirty/scan");
    for chunk_kb in [64usize, 1024] {
        let n = 1 << 20;
        let mut dm = DirtyMap::new(n, 4, chunk_kb * 1024);
        // 1% scattered dirty.
        let mut i = 3usize;
        for _ in 0..n / 100 {
            dm.mark(i % n);
            i = i.wrapping_mul(2654435761) % n;
        }
        g.bench_with_input(
            BenchmarkId::from_parameter(chunk_kb),
            &dm,
            |b, dm| {
                b.iter(|| {
                    let mut total = 0usize;
                    for c in dm.dirty_chunks() {
                        total += dm.dirty_runs_in_chunk(c).len();
                    }
                    black_box(total)
                })
            },
        );
    }
    g.finish();
}

fn bench_rangeset(c: &mut Criterion) {
    let mut g = c.benchmark_group("rangeset");
    g.bench_function("insert_fragmented", |b| {
        b.iter(|| {
            let mut rs = RangeSet::new();
            for i in 0..500i64 {
                rs.insert(i * 4, i * 4 + 2);
            }
            black_box(rs.len())
        })
    });
    g.bench_function("missing_in", |b| {
        let mut rs = RangeSet::new();
        for i in 0..500i64 {
            rs.insert(i * 4, i * 4 + 2);
        }
        b.iter(|| black_box(rs.missing_in(0, 2000).len()))
    });
    g.finish();
}

fn bench_bus(c: &mut Criterion) {
    use acc_gpusim::{Endpoint, Topology};
    let mut g = c.benchmark_group("bus/schedule");
    g.bench_function("1000_transfers", |b| {
        b.iter(|| {
            let mut bus = Topology::desktop();
            let mut t = 0.0;
            for i in 0..1000u64 {
                let (_, e) = bus.transfer(
                    Endpoint::Host,
                    Endpoint::Gpu((i % 2) as usize),
                    1 << 20,
                    t,
                );
                t = e;
            }
            black_box(t)
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_interpreter,
    bench_dirty_marks,
    bench_dirty_scan,
    bench_rangeset,
    bench_bus
);
criterion_main!(benches);
