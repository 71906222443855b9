//! Criterion benches for the two runtime mechanisms `accbench` has no
//! metric for: the two-level dirty-bit map and the range-set coherence
//! bookkeeping. Everything else that reads the host clock — frontend,
//! translator, kernel tier, interconnect pricing, whole-app runs — is
//! measured by `accbench` (`benchmarks/`), not here.

use acc_kernel_ir::dirty::DirtyMap;
use acc_runtime::RangeSet;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

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

criterion_group!(benches, bench_dirty_marks, bench_dirty_scan, bench_rangeset);
criterion_main!(benches);
