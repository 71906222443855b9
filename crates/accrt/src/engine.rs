//! The reusable, `Send`-shareable runtime engine.
//!
//! [`run_program`](crate::run_program) is one-shot: compile elsewhere,
//! run once, throw the runtime state away. A serving workload (the
//! `acc-serve` daemon) instead wants **compile-once / run-many** across
//! many concurrent tenants. [`Engine`] is that handle:
//!
//! * **compilation cache** — one bounded LRU map, keyed by the exact
//!   `(source, function, options)` request and compared in full, so two
//!   requests share a [`CompiledKernel`] (and its mapper history) only
//!   when they are the same request; a cosmetic edit to a source is a
//!   new entry. Repeat requests return the same `Arc` without invoking
//!   the compiler, and concurrent first requests for one key are
//!   single-flight — one of them compiles, the rest wait for its
//!   outcome — so the hit and compile counts depend on which requests
//!   were made, not on how they interleaved;
//! * **compiled kernel bodies** — each cached program carries the
//!   register-tier code of its kernels, typed and compiled once when the
//!   first job admits the program and shared by every GPU of every
//!   later launch and job;
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

/// One compile request, the cache key: `(source, function, options)`.
type Request = (String, String, CompileOptions);

/// A cached compiled program plus the cross-request state that rides
/// with it: its shared mapper history and the executable forms of its
/// kernels.
///
/// Dereferences to [`CompiledProgram`], so anything that inspects a
/// program (`localaccess_ratio()`, `kernels`, …) works on a
/// `CompiledKernel` unchanged.
#[derive(Debug)]
pub struct CompiledKernel {
    prog: CompiledProgram,
    shared: ProgramState,
}

impl CompiledKernel {
    /// Wrap an already-compiled program (no engine involved — useful
    /// for tests and for adopting programs compiled elsewhere).
    pub fn from_program(prog: CompiledProgram) -> CompiledKernel {
        CompiledKernel {
            shared: ProgramState::new(prog.kernels.len()),
            prog,
        }
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

/// One cached kernel plus its recency stamp for LRU eviction.
struct CacheEntry {
    kernel: Arc<CompiledKernel>,
    last_used: u64,
}

/// What a cache miss produced: the kernel, or the compiler's
/// message (the payload of [`RunError::Compile`]).
type Compiled = Result<Arc<CompiledKernel>, String>;

/// A cache miss being compiled. The first requester of a key
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
    key: Request,
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
    /// The compilation cache: request → kernel. The options are part of
    /// the key, so e.g. an `infer_localaccess` recompile of the same
    /// source gets its own entry.
    by_request: HashMap<Request, CacheEntry>,
    /// Requests whose first requester is still compiling.
    in_flight: HashMap<Request, Arc<Flight>>,
    /// Monotonic recency clock of the cache entries.
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

/// Insert into the bounded cache map, evicting the least-recently-used
/// entry first when at capacity. Eviction only drops the map's `Arc`:
/// tenants still holding the kernel keep using it, and its shared
/// mapper history dies only when the last holder lets go.
fn insert_bounded(
    map: &mut HashMap<Request, CacheEntry>,
    key: Request,
    kernel: Arc<CompiledKernel>,
    tick: u64,
    cap: usize,
    evictions: &AtomicU64,
) {
    if !map.contains_key(&key) && map.len() >= cap.max(1) {
        // O(n) min-scan; the capacity is small (default 256) and
        // insertions only happen on compile misses.
        let oldest = map
            .iter()
            .min_by_key(|(_, e)| e.last_used)
            .map(|(k, _)| k.clone());
        if let Some(oldest) = oldest {
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
    /// `compile` calls answered from the cache, or by waiting for
    /// another thread's compile of the same request.
    pub cache_hits: u64,
    /// Completed `launch` calls (success or failure).
    pub launches: u64,
    /// Launches that reused a warm scratch pool instead of creating one.
    pub pool_reuses: u64,
    /// Cache entries dropped by the bounded LRU. A steadily climbing
    /// value under a steady tenant set means the capacity
    /// ([`Engine::with_cache_capacity`]) is too small and compiles are
    /// being redone.
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
    launches: AtomicU64,
    pool_reuses: AtomicU64,
    evictions: AtomicU64,
}

/// Default bound on the number of compilation-cache entries.
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
            launches: AtomicU64::new(0),
            pool_reuses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Bound the compilation cache at `cap` entries (least recently used
    /// evicted first; clamped to at least 1). The default is
    /// [`DEFAULT_CACHE_CAPACITY`].
    pub fn with_cache_capacity(mut self, cap: usize) -> Engine {
        self.cache_capacity = cap.max(1);
        self
    }

    /// The default launch configuration.
    pub fn config(&self) -> &ExecConfig {
        &self.cfg
    }

    /// Compile `source`, or return the cached kernel if this exact
    /// request was compiled before. The hit path returns the same `Arc`,
    /// so pointer equality holds across tenants.
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
    /// (`false`). `acc-serve` uses the flag for per-job cache-hit
    /// accounting.
    pub fn compile_entry(
        &self,
        source: &str,
        function: &str,
        options: &CompileOptions,
    ) -> Result<(Arc<CompiledKernel>, bool), RunError> {
        let key: Request = (source.to_owned(), function.to_owned(), options.clone());
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
            inner.in_flight.insert(key.clone(), Arc::clone(&flight));
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
            let ck = Arc::new(CompiledKernel::from_program(prog));
            let mut inner = self.inner.lock().expect("engine lock poisoned");
            let tick = inner.next_tick();
            // Cached before `owner` drops: a requester sees the key in
            // `in_flight` or in `by_request`, never in neither.
            insert_bounded(
                &mut inner.by_request,
                owner.key.clone(),
                Arc::clone(&ck),
                tick,
                self.cache_capacity,
                &self.evictions,
            );
            ck
        });
        owner.outcome.clone().map(|ck| (ck, false)).map_err(RunError::Compile)
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
        let s = eng.stats();
        assert_eq!(s.compiles, 1);
        assert_eq!(s.cache_hits, 1);
        assert!((s.cache_hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cosmetic_variants_get_their_own_entry() -> Result<(), RunError> {
        let eng = Engine::new(MachineKind::Desktop, ExecConfig::gpus(2));
        let opts = CompileOptions::proposal();
        let a = eng.compile(SRC, "scale", &opts)?;
        // A trailing comment is a different request, though it lowers to
        // the same program.
        let src2 = format!("{SRC}\n// cosmetic change\n");
        let b = eng.compile(&src2, "scale", &opts)?;
        assert!(
            !Arc::ptr_eq(&a, &b),
            "a different request is a different entry"
        );
        assert_eq!(format!("{:?}", a.program()), format!("{:?}", b.program()));
        let s = eng.stats();
        assert_eq!((s.compiles, s.cache_hits), (2, 0));
        // Each variant is now a hit on its own entry.
        assert!(Arc::ptr_eq(&b, &eng.compile(&src2, "scale", &opts)?));
        assert!(Arc::ptr_eq(&a, &eng.compile(SRC, "scale", &opts)?));
        assert_eq!(eng.stats().cache_hits, 2);
        Ok(())
    }

    #[test]
    fn kernels_are_compiled_once_at_admission_and_shared_by_later_runs() -> Result<(), RunError> {
        use acc_kernel_ir::{Buffer, Value};
        let input = || (vec![Value::I32(4)], vec![Buffer::from_f64(&[1.0, 2.0, 3.0, 4.0])]);
        let code_of = |ck: &CompiledKernel| {
            let compiled = ck.shared.compiled.get();
            compiled.map(|c| c.as_ref().map(|v| v.as_ptr()).map_err(Clone::clone))
        };
        let eng = Engine::new(MachineKind::Desktop, ExecConfig::gpus(2));
        let ck = eng.compile(SRC, "scale", &CompileOptions::proposal())?;
        assert_eq!(code_of(&ck), None, "admitted by the first run, not before");
        let (scalars, arrays) = input();
        let first = eng.launch(&ck, scalars, arrays)?;
        let code = code_of(&ck);
        assert!(matches!(code, Some(Ok(_))), "the first run admitted the program");
        let (scalars, arrays) = input();
        let second = eng.launch(&ck, scalars, arrays)?;
        // A later request gets the same program, hence the same code.
        let again = eng.compile(SRC, "scale", &CompileOptions::proposal())?;
        assert_eq!(code_of(&again), code.clone());
        // A run on the comparison tier is admitted by the same code.
        let (scalars, arrays) = input();
        let cfg = ExecConfig::gpus(2).kernel_vm(crate::KernelVm::Bytecode);
        let stack = eng.launch_with(&ck, &cfg, scalars, arrays)?;
        assert_eq!(code_of(&ck), code);
        assert_eq!(stack.arrays[0].bytes(), first.arrays[0].bytes());
        assert_eq!(stack.profile.time, first.profile.time);
        assert_eq!(first.arrays[0].to_f64_vec(), [2.0, 4.0, 6.0, 8.0]);
        assert_eq!(first.arrays[0].bytes(), second.arrays[0].bytes());

        // Without an engine every call compiles its own code and agrees.
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
        // Third distinct request: evicts variant(3).
        eng.compile(&variant(4), "scale", &opts).unwrap();
        let s = eng.stats();
        assert_eq!(s.compiles, 3);
        assert_eq!(s.evictions, 1);
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
    }

    #[test]
    fn waiters_on_a_failed_compile_get_its_error_and_nothing_is_cached() {
        const BROKEN: &str = "void broken(";
        let eng = Arc::new(Engine::new(MachineKind::Desktop, ExecConfig::gpus(1)));
        let opts = CompileOptions::proposal();
        // Own the flight by hand, so that all seven requesters are
        // waiting on it before it fails.
        let key: Request = (BROKEN.to_owned(), "broken".to_owned(), opts.clone());
        let flight = Arc::new(Flight::default());
        eng.inner.lock().unwrap().in_flight.insert(key.clone(), Arc::clone(&flight));
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
