//! The reusable, `Send`-shareable runtime engine.
//!
//! [`run_program`](crate::run_program) is one-shot: compile elsewhere,
//! run once, throw the runtime state away. A serving workload (the
//! `acc-serve` daemon) instead wants **compile-once / run-many** across
//! many concurrent tenants. [`Engine`] is that handle:
//!
//! * **compilation cache** — [`Engine::compile`] is keyed first on the
//!   `(source, function, options)` request and then on the hash of the
//!   compiled IR, so textually different requests that lower to the same
//!   program still share one [`CompiledKernel`] (and its mapper
//!   history). Repeat requests return the same `Arc` without invoking
//!   the compiler, and concurrent first requests for one key are
//!   single-flight — one of them compiles, the rest wait for its
//!   outcome — so the hit and compile counts depend on which requests
//!   were made, not on how they interleaved;
//! * **compiled kernel bodies** — each cached program carries the
//!   executable forms of its kernels (bytecode, and register-VM code
//!   when a job asks for it), compiled by the first launch that needs
//!   them and shared by every GPU of every later launch and job;
//! * **shared mapper history** — each cached program carries one
//!   `TaskMapper` behind a lock. Under
//!   [`Schedule::CostModel`](crate::Schedule) the per-GPU costs one
//!   job measures feed the split of the next job running the same
//!   program — StarPU-style history that only pays off when it is
//!   shared. Under the default [`Schedule::Equal`](crate::Schedule) the
//!   mapper is never consulted, so sharing cannot change results and
//!   every launch stays bit-identical to [`run_program`](crate::run_program);
//! * **allocation pooling** — the per-run scratch
//!   (`comm::StagingPool`: replica staging, loader scratch, write-miss
//!   buffers) is checked out per job and back in afterwards, so a warm
//!   engine stops allocating;
//! * **machine-per-job** — [`Engine::launch`] builds a fresh simulated
//!   [`Machine`] for each job, which is what makes `&self` launches
//!   safe to run from many threads at once.
//!
//! `Engine` is `Send + Sync`; wrap it in an `Arc` and launch from as
//! many threads as you like.

use std::collections::HashMap;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use acc_compiler::{compile_source, CompileOptions, CompiledProgram};
use acc_gpusim::{Machine, MachineKind};

use crate::comm::StagingPool;
use crate::program::ProgramState;
use crate::{run_with, ExecConfig, RunError, RunReport};

/// 64-bit FNV-1a — the repo's no-dependency stable hash.
fn fnv1a64(parts: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for &b in *part {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Separator so ("ab","c") and ("a","bc") hash apart.
        h ^= 0xff;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Request-cache key of one `(source, function, options)` request.
fn request_key(source: &str, function: &str, options: &CompileOptions) -> u64 {
    fnv1a64(&[
        source.as_bytes(),
        function.as_bytes(),
        format!("{options:?}").as_bytes(),
    ])
}

/// A cached compiled program plus the cross-request state that rides
/// with it: its IR hash (the cache identity), its shared mapper history
/// and the executable forms of its kernels.
///
/// Dereferences to [`CompiledProgram`], so anything that inspects a
/// program (`localaccess_ratio()`, `kernels`, …) works on a
/// `CompiledKernel` unchanged.
#[derive(Debug)]
pub struct CompiledKernel {
    prog: CompiledProgram,
    ir_hash: u64,
    shared: ProgramState,
}

impl CompiledKernel {
    /// Wrap an already-compiled program (no engine involved — useful
    /// for tests and for adopting programs compiled elsewhere).
    pub fn from_program(prog: CompiledProgram) -> CompiledKernel {
        let ir_hash = ir_hash_of(&prog);
        CompiledKernel::with_hash(prog, ir_hash)
    }

    fn with_hash(prog: CompiledProgram, ir_hash: u64) -> CompiledKernel {
        CompiledKernel {
            shared: ProgramState::new(prog.kernels.len()),
            ir_hash,
            prog,
        }
    }

    /// Hash of the compiled IR — the compilation-cache identity. Two
    /// requests whose sources lower to the same program get the same
    /// hash (and, through an [`Engine`], the same `Arc`).
    pub fn ir_hash(&self) -> u64 {
        self.ir_hash
    }

    /// The compiled program.
    pub fn program(&self) -> &CompiledProgram {
        &self.prog
    }
}

impl Deref for CompiledKernel {
    type Target = CompiledProgram;
    fn deref(&self) -> &CompiledProgram {
        &self.prog
    }
}

/// Stable hash of a compiled program's IR. The IR types don't implement
/// `Hash`, but they all derive `Debug` with full structural detail, and
/// the `Debug` rendering is deterministic — hash that.
fn ir_hash_of(prog: &CompiledProgram) -> u64 {
    fnv1a64(&[format!("{prog:?}").as_bytes()])
}

/// One cached kernel plus its recency stamp for LRU eviction.
struct CacheEntry {
    kernel: Arc<CompiledKernel>,
    last_used: u64,
}

/// What a request-cache miss produced: the kernel, or the compiler's
/// message (the payload of [`RunError::Compile`]).
type Compiled = Result<Arc<CompiledKernel>, String>;

/// A request-cache miss being compiled. The first requester of a key
/// runs the compiler; every later requester of the same key waits here
/// for that one outcome instead of compiling again.
#[derive(Default)]
struct Flight {
    outcome: Mutex<Option<Compiled>>,
    done: Condvar,
}

impl Flight {
    fn wait(&self) -> Compiled {
        let mut slot = self.outcome.lock().expect("flight lock poisoned");
        loop {
            match &*slot {
                Some(outcome) => return outcome.clone(),
                None => slot = self.done.wait(slot).expect("flight lock poisoned"),
            }
        }
    }
}

/// Held by the requester that compiles. Dropping it takes the key out
/// of `in_flight` and wakes the waiters with `outcome` — on every exit,
/// so a compiler panic unwinding through the owner cannot leave them
/// blocked.
struct FlightOwner<'a> {
    inner: &'a Mutex<EngineInner>,
    key: u64,
    flight: Arc<Flight>,
    outcome: Compiled,
}

impl Drop for FlightOwner<'_> {
    fn drop(&mut self) {
        // `Drop` must not panic: a poisoned lock is skipped, not unwrapped.
        if let Ok(mut inner) = self.inner.lock() {
            inner.in_flight.remove(&self.key);
        }
        if let Ok(mut slot) = self.flight.outcome.lock() {
            *slot = Some(self.outcome.clone());
        }
        self.flight.done.notify_all();
    }
}

/// Cache + pool state behind the engine's lock.
#[derive(Default)]
struct EngineInner {
    /// Request cache: `(source, function, options)` hash → kernel. The
    /// options are part of the key, so e.g. an `infer_localaccess`
    /// recompile of the same source gets its own entry.
    by_request: HashMap<u64, CacheEntry>,
    /// Request keys whose first requester is still compiling.
    in_flight: HashMap<u64, Arc<Flight>>,
    /// IR cache: compiled-IR hash → kernel (dedups textually different
    /// requests that lower identically).
    by_ir: HashMap<u64, CacheEntry>,
    /// Monotonic recency clock shared by both maps.
    tick: u64,
    /// Idle scratch pools, checked out one per in-flight launch.
    pools: Vec<StagingPool>,
}

impl EngineInner {
    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }
}

/// Insert into a bounded cache map, evicting the least-recently-used
/// entry first when at capacity. Eviction only drops the map's `Arc`:
/// tenants still holding the kernel keep using it, and its shared
/// mapper history dies only when the last holder lets go.
fn insert_bounded(
    map: &mut HashMap<u64, CacheEntry>,
    key: u64,
    kernel: Arc<CompiledKernel>,
    tick: u64,
    cap: usize,
    evictions: &AtomicU64,
) {
    if !map.contains_key(&key) && map.len() >= cap.max(1) {
        // O(n) min-scan; the capacity is small (default 256) and
        // insertions only happen on compile misses.
        if let Some((&oldest, _)) = map.iter().min_by_key(|(_, e)| e.last_used) {
            map.remove(&oldest);
            evictions.fetch_add(1, Ordering::Relaxed);
        }
    }
    map.insert(
        key,
        CacheEntry {
            kernel,
            last_used: tick,
        },
    );
}

/// Counters for cache effectiveness and pool behaviour.
///
/// `cache_hit_rate()` is hits over lookups; a serving workload running
/// repeated jobs should sit well above 0.9.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineStats {
    /// `compile` calls that invoked the compiler (failed compiles
    /// included; those are not cached).
    pub compiles: u64,
    /// `compile` calls answered from the request cache, or by waiting
    /// for another thread's compile of the same request.
    pub cache_hits: u64,
    /// Compiler invocations whose output deduplicated against an
    /// already-cached identical IR (a textually different request).
    pub ir_dedups: u64,
    /// Completed `launch` calls (success or failure).
    pub launches: u64,
    /// Launches that reused a warm scratch pool instead of creating one.
    pub pool_reuses: u64,
    /// Cache entries dropped by the bounded LRU (request and IR maps
    /// together). A steadily climbing value under a steady tenant set
    /// means the capacity ([`Engine::with_cache_capacity`]) is too small
    /// and compiles are being redone.
    pub evictions: u64,
}

impl EngineStats {
    /// Fraction of `compile` lookups served from the cache.
    pub fn cache_hit_rate(&self) -> f64 {
        let lookups = self.cache_hits + self.compiles;
        if lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / lookups as f64
        }
    }
}

/// The long-lived, thread-shareable runtime handle (see the module
/// docs). Construct once, share behind an `Arc`, and call
/// [`Engine::compile`] / [`Engine::launch`] from any thread.
pub struct Engine {
    kind: MachineKind,
    cfg: ExecConfig,
    cache_capacity: usize,
    inner: Mutex<EngineInner>,
    compiles: AtomicU64,
    cache_hits: AtomicU64,
    ir_dedups: AtomicU64,
    launches: AtomicU64,
    pool_reuses: AtomicU64,
    evictions: AtomicU64,
}

/// Default bound on each compilation-cache map (requests and IRs are
/// capped independently).
pub const DEFAULT_CACHE_CAPACITY: usize = 256;

impl Engine {
    /// An engine whose jobs run on fresh machines of `kind` with the
    /// given default configuration (overridable per launch with
    /// [`Engine::launch_with`]).
    pub fn new(kind: MachineKind, cfg: ExecConfig) -> Engine {
        Engine {
            kind,
            cfg,
            cache_capacity: DEFAULT_CACHE_CAPACITY,
            inner: Mutex::new(EngineInner::default()),
            compiles: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            ir_dedups: AtomicU64::new(0),
            launches: AtomicU64::new(0),
            pool_reuses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Bound each compilation-cache map at `cap` entries (least
    /// recently used evicted first; clamped to at least 1). The default
    /// is [`DEFAULT_CACHE_CAPACITY`].
    pub fn with_cache_capacity(mut self, cap: usize) -> Engine {
        self.cache_capacity = cap.max(1);
        self
    }

    /// The machine kind each [`Engine::launch`] job runs on.
    pub fn machine_kind(&self) -> MachineKind {
        self.kind
    }

    /// The default launch configuration.
    pub fn config(&self) -> &ExecConfig {
        &self.cfg
    }

    /// Compile `source`, or return the cached kernel if this request
    /// (or any request lowering to the same IR) was compiled before.
    /// The hit path returns the same `Arc`, so pointer equality holds
    /// across tenants.
    pub fn compile(
        &self,
        source: &str,
        function: &str,
        options: &CompileOptions,
    ) -> Result<Arc<CompiledKernel>, RunError> {
        self.compile_entry(source, function, options).map(|(ck, _)| ck)
    }

    /// [`Engine::compile`] plus a flag saying whether this exact
    /// request was served from the cache (`true`, including a wait on
    /// another thread's compile of it) or had to run the compiler
    /// (`false`, including the IR-dedup case). `acc-serve` uses the flag
    /// for per-job cache-hit accounting.
    pub fn compile_entry(
        &self,
        source: &str,
        function: &str,
        options: &CompileOptions,
    ) -> Result<(Arc<CompiledKernel>, bool), RunError> {
        let key = request_key(source, function, options);
        let flight = {
            let mut inner = self.inner.lock().expect("engine lock poisoned");
            let tick = inner.next_tick();
            if let Some(e) = inner.by_request.get_mut(&key) {
                e.last_used = tick;
                self.cache_hits.fetch_add(1, Ordering::Relaxed);
                return Ok((Arc::clone(&e.kernel), true));
            }
            if let Some(flight) = inner.in_flight.get(&key).cloned() {
                // Someone else is compiling this request: its outcome
                // is ours. A failed compile is not cached, so every
                // waiter reports the owner's error.
                drop(inner);
                let ck = flight.wait().map_err(RunError::Compile)?;
                self.cache_hits.fetch_add(1, Ordering::Relaxed);
                return Ok((ck, true));
            }
            let flight = Arc::new(Flight::default());
            inner.in_flight.insert(key, Arc::clone(&flight));
            flight
        };
        let mut owner = FlightOwner {
            inner: &self.inner,
            key,
            flight,
            outcome: Err("the compiler panicked".to_string()),
        };
        // Compile outside the lock: concurrent misses on different
        // sources shouldn't serialise on the compiler.
        self.compiles.fetch_add(1, Ordering::Relaxed);
        owner.outcome = compile_source(source, function, options).map(|prog| {
            let ir_hash = ir_hash_of(&prog);
            let mut inner = self.inner.lock().expect("engine lock poisoned");
            let ck = self.intern(&mut inner, ir_hash, prog);
            let tick = inner.tick;
            // Cached before `owner` drops: a requester sees the key in
            // `in_flight` or in `by_request`, never in neither.
            insert_bounded(
                &mut inner.by_request,
                key,
                Arc::clone(&ck),
                tick,
                self.cache_capacity,
                &self.evictions,
            );
            ck
        });
        owner.outcome.clone().map(|ck| (ck, false)).map_err(RunError::Compile)
    }

    /// Adopt an already-compiled program into the cache (deduplicated
    /// by IR hash) — the path for callers that drive the compiler
    /// themselves but still want shared launches.
    pub fn insert(&self, prog: CompiledProgram) -> Arc<CompiledKernel> {
        let ir_hash = ir_hash_of(&prog);
        let mut inner = self.inner.lock().expect("engine lock poisoned");
        self.intern(&mut inner, ir_hash, prog)
    }

    /// The cached kernel for `prog`'s IR (`ir_hash`, computed by the
    /// caller outside the lock), adopting `prog` as that kernel when the
    /// IR map has none. A textually different request may have lowered
    /// to the same IR first; the map keeps exactly one kernel per
    /// distinct program either way.
    fn intern(
        &self,
        inner: &mut EngineInner,
        ir_hash: u64,
        prog: CompiledProgram,
    ) -> Arc<CompiledKernel> {
        let tick = inner.next_tick();
        if let Some(existing) = inner.by_ir.get_mut(&ir_hash) {
            existing.last_used = tick;
            self.ir_dedups.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(&existing.kernel);
        }
        let ck = Arc::new(CompiledKernel::with_hash(prog, ir_hash));
        insert_bounded(
            &mut inner.by_ir,
            ir_hash,
            Arc::clone(&ck),
            tick,
            self.cache_capacity,
            &self.evictions,
        );
        ck
    }

    /// Run one job on a fresh machine with the engine's default
    /// configuration. Takes `&self`: any number of launches may be in
    /// flight concurrently.
    pub fn launch(
        &self,
        kernel: &CompiledKernel,
        scalars: Vec<acc_kernel_ir::Value>,
        arrays: Vec<acc_kernel_ir::Buffer>,
    ) -> Result<RunReport, RunError> {
        let cfg = self.cfg.clone();
        self.launch_with(kernel, &cfg, scalars, arrays)
    }

    /// [`Engine::launch`] with a per-job configuration override (GPU
    /// count, schedule, tracing, …).
    pub fn launch_with(
        &self,
        kernel: &CompiledKernel,
        cfg: &ExecConfig,
        scalars: Vec<acc_kernel_ir::Value>,
        arrays: Vec<acc_kernel_ir::Buffer>,
    ) -> Result<RunReport, RunError> {
        let mut machine = Machine::with_kind(self.kind);
        self.launch_on(kernel, &mut machine, cfg, scalars, arrays)
    }

    /// [`Engine::launch`] on a caller-provided machine (reset first).
    /// Still draws scratch from the engine's pools and feeds the
    /// kernel's shared mapper history.
    pub fn launch_on(
        &self,
        kernel: &CompiledKernel,
        machine: &mut Machine,
        cfg: &ExecConfig,
        scalars: Vec<acc_kernel_ir::Value>,
        arrays: Vec<acc_kernel_ir::Buffer>,
    ) -> Result<RunReport, RunError> {
        let mut pool = {
            let mut inner = self.inner.lock().expect("engine lock poisoned");
            inner.pools.pop()
        }
        .inspect(|_| {
            self.pool_reuses.fetch_add(1, Ordering::Relaxed);
        })
        .unwrap_or_default();
        let result = run_with(
            machine,
            cfg,
            &kernel.prog,
            scalars,
            arrays,
            &kernel.shared,
            &mut pool,
        );
        self.inner
            .lock()
            .expect("engine lock poisoned")
            .pools
            .push(pool);
        self.launches.fetch_add(1, Ordering::Relaxed);
        result
    }

    /// Snapshot the cache/pool counters.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            compiles: self.compiles.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            ir_dedups: self.ir_dedups.load(Ordering::Relaxed),
            launches: self.launches.load(Ordering::Relaxed),
            pool_reuses: self.pool_reuses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"
void scale(int n, double *a) {
    #pragma acc data copy(a[0:n])
    {
        #pragma acc parallel loop
        for (int i = 0; i < n; i++) {
            a[i] = a[i] * 2.0;
        }
    }
}
"#;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn engine_is_send_and_sync() {
        assert_send_sync::<Engine>();
        assert_send_sync::<CompiledKernel>();
    }

    #[test]
    fn compile_cache_returns_the_same_arc() {
        let eng = Engine::new(MachineKind::Desktop, ExecConfig::gpus(2));
        let opts = CompileOptions::proposal();
        let a = eng.compile(SRC, "scale", &opts).unwrap();
        let b = eng.compile(SRC, "scale", &opts).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.ir_hash(), b.ir_hash());
        let s = eng.stats();
        assert_eq!(s.compiles, 1);
        assert_eq!(s.cache_hits, 1);
        assert!((s.cache_hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn textually_different_requests_dedup_on_ir() {
        let eng = Engine::new(MachineKind::Desktop, ExecConfig::gpus(2));
        let opts = CompileOptions::proposal();
        let a = eng.compile(SRC, "scale", &opts).unwrap();
        // A trailing comment changes the request key but not the IR.
        let src2 = format!("{SRC}\n// cosmetic change\n");
        let b = eng.compile(&src2, "scale", &opts).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same IR must share one kernel");
        assert_eq!(eng.stats().ir_dedups, 1);
    }

    #[test]
    fn launches_reuse_the_compiled_bodies_cached_with_the_program() -> Result<(), RunError> {
        use acc_kernel_ir::{Buffer, Value};
        let input = || (vec![Value::I32(4)], vec![Buffer::from_f64(&[1.0, 2.0, 3.0, 4.0])]);
        let forms_of = |ck: &CompiledKernel| {
            let (reg, body) = ck.shared.forms(0);
            (reg.map(std::ptr::from_ref), body.map(std::ptr::from_ref))
        };
        let eng = Engine::new(MachineKind::Desktop, ExecConfig::gpus(2));
        let ck = eng.compile(SRC, "scale", &CompileOptions::proposal())?;
        assert_eq!(forms_of(&ck), (None, None), "compiled by the first launch, not before");
        let (scalars, arrays) = input();
        let first = eng.launch(&ck, scalars, arrays)?;
        let (reg, body) = forms_of(&ck);
        assert!(reg.is_some(), "the first launch fills the program's cache");
        assert!(body.is_none(), "no launch of a well-typed kernel fell back to the bytecode");
        let (scalars, arrays) = input();
        let second = eng.launch(&ck, scalars, arrays)?;
        // A later request gets the same kernel, hence the same form.
        let again = eng.compile(SRC, "scale", &CompileOptions::proposal())?;
        assert_eq!(forms_of(&again), (reg, None));
        // The bytecode is built by the first run that asks for it.
        let (scalars, arrays) = input();
        let cfg = ExecConfig::gpus(2).kernel_vm(crate::KernelVm::Bytecode);
        let stack = eng.launch_with(&ck, &cfg, scalars, arrays)?;
        assert!(forms_of(&ck).1.is_some());
        assert_eq!(stack.arrays[0].bytes(), first.arrays[0].bytes());
        assert_eq!(stack.profile.time, first.profile.time);
        assert_eq!(first.arrays[0].to_f64_vec(), [2.0, 4.0, 6.0, 8.0]);
        assert_eq!(first.arrays[0].bytes(), second.arrays[0].bytes());

        // Without an engine every call compiles its own forms and agrees.
        let (scalars, arrays) = input();
        let mut machine = Machine::with_kind(MachineKind::Desktop);
        let cfg = ExecConfig::gpus(2);
        let one_shot = crate::run_program(&mut machine, &cfg, ck.program(), scalars, arrays)?;
        assert_eq!(one_shot.arrays[0].bytes(), first.arrays[0].bytes());
        assert_eq!(one_shot.profile.time, first.profile.time);
        Ok(())
    }

    /// `scale` source specialised per `i` so each request compiles to a
    /// distinct IR (the constant lands in the kernel body).
    fn variant(i: usize) -> String {
        format!(
            "void scale(int n, double *a) {{\n\
             #pragma acc data copy(a[0:n])\n\
             {{\n\
             #pragma acc parallel loop\n\
             for (int j = 0; j < n; j++) a[j] = a[j] * {i}.0;\n\
             }}\n\
             }}"
        )
    }

    #[test]
    fn lru_evicts_oldest_beyond_capacity() {
        let eng =
            Engine::new(MachineKind::Desktop, ExecConfig::gpus(1)).with_cache_capacity(2);
        let opts = CompileOptions::proposal();
        let a = eng.compile(&variant(2), "scale", &opts).unwrap();
        eng.compile(&variant(3), "scale", &opts).unwrap();
        // Touch the oldest so the middle one becomes LRU.
        eng.compile(&variant(2), "scale", &opts).unwrap();
        // Third distinct program: evicts variant(3) from both maps.
        eng.compile(&variant(4), "scale", &opts).unwrap();
        let s = eng.stats();
        assert_eq!(s.compiles, 3);
        assert_eq!(s.evictions, 2, "one request entry + one IR entry");
        // The touched program is still cached (same Arc)...
        let a2 = eng.compile(&variant(2), "scale", &opts).unwrap();
        assert!(Arc::ptr_eq(&a, &a2));
        // ...and the evicted one recompiles from scratch.
        let before = eng.stats().compiles;
        eng.compile(&variant(3), "scale", &opts).unwrap();
        assert_eq!(eng.stats().compiles, before + 1, "evicted entry must recompile");
    }

    #[test]
    fn compile_options_split_the_request_cache() {
        let eng = Engine::new(MachineKind::Desktop, ExecConfig::gpus(1));
        let plain = CompileOptions::proposal();
        let opt = CompileOptions {
            infer_localaccess: true,
            ..CompileOptions::proposal()
        };
        let a = eng.compile(SRC, "scale", &plain).unwrap();
        let b = eng.compile(SRC, "scale", &opt).unwrap();
        // Different options → different request entries and different
        // programs (the option is carried on the compiled program, so
        // the IRs differ too).
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(!a.options.infer_localaccess && b.options.infer_localaccess);
        assert_eq!(eng.stats().compiles, 2);
        assert_eq!(eng.stats().ir_dedups, 0);
    }

    #[test]
    fn waiters_on_a_failed_compile_get_its_error_and_nothing_is_cached() {
        const BROKEN: &str = "void broken(";
        let eng = Arc::new(Engine::new(MachineKind::Desktop, ExecConfig::gpus(1)));
        let opts = CompileOptions::proposal();
        // Own the flight by hand, so that all seven requesters are
        // waiting on it before it fails.
        let key = request_key(BROKEN, "broken", &opts);
        let flight = Arc::new(Flight::default());
        eng.inner.lock().unwrap().in_flight.insert(key, Arc::clone(&flight));
        let waiters: Vec<_> = (0..7)
            .map(|_| {
                let eng = Arc::clone(&eng);
                std::thread::spawn(move || {
                    eng.compile(BROKEN, "broken", &CompileOptions::proposal()).unwrap_err()
                })
            })
            .collect();
        // The map, this test and each requester that found the flight
        // hold one reference.
        while Arc::strong_count(&flight) < 2 + waiters.len() {
            std::thread::yield_now();
        }
        drop(FlightOwner {
            inner: &eng.inner,
            key,
            flight,
            outcome: Err("owner's diagnostic".to_string()),
        });
        for w in waiters {
            let err = w.join().unwrap();
            assert_eq!(err.code(), "ACC-R010");
            assert!(matches!(err, RunError::Compile(m) if m == "owner's diagnostic"));
        }
        assert!(eng.inner.lock().unwrap().in_flight.is_empty());
        let s = eng.stats();
        assert_eq!((s.compiles, s.cache_hits), (0, 0), "no waiter compiled or hit");
        // The failure was not cached: the next request runs the compiler.
        assert!(eng.compile(BROKEN, "broken", &opts).is_err());
        assert_eq!(eng.stats().compiles, 1);
    }

    #[test]
    fn compile_errors_are_typed() {
        let eng = Engine::new(MachineKind::Desktop, ExecConfig::gpus(1));
        let err = eng
            .compile("void broken(", "broken", &CompileOptions::proposal())
            .unwrap_err();
        assert!(matches!(err, RunError::Compile(_)));
        assert_eq!(err.code(), "ACC-R010");
    }
}
