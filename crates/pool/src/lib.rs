//! # graphh-pool
//!
//! A small, self-owned work-chunking thread pool: ordered fork-join over index
//! ranges on plain `std::thread`s.
//!
//! GraphH (SunWDX17) runs `T` compute threads *inside* every server for
//! tile-level parallel gather. This crate supplies the data-parallel
//! substrate the engine's tile phase needs — without pulling in any external
//! dependency.
//!
//! [`WorkerPool`] is a **persistent** pool: worker threads are spawned once
//! (per server, in the engine) and reused for every fork-join, so short
//! supersteps pay a condvar wake instead of a thread spawn per phase. The
//! engine and the SPE both use it.
//!
//! ## Determinism
//!
//! [`WorkerPool::fork_join_ordered`] maps a function over `0..num_items` and
//! returns the results **in index order**:
//!
//! * work is *chunked* dynamically: workers claim contiguous index chunks from
//!   a shared atomic cursor, so an unlucky thread stuck on one expensive item
//!   does not serialize the rest (tiles have very uneven edge counts),
//! * every item's result is tagged with its index and the tagged results are
//!   sorted after the join, so the output order — and therefore any reduction
//!   the caller performs over it — is independent of thread count and
//!   scheduling. This is what lets the engine keep `threads_per_server`-way
//!   parallel tile phases bit-identical to the sequential reference,
//! * a panic on any worker is re-raised on the calling thread after every
//!   worker has finished the phase, matching what a plain sequential loop
//!   would do,
//! * one thread (or fewer than two items) runs inline on the calling thread
//!   with no cross-thread traffic at all, so the sequential path has zero
//!   overhead.

use graphh_obs::Tracer;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// Chunk of indices a worker claims per cursor fetch: small enough to balance
/// uneven per-item work, large enough to amortise the atomic traffic.
fn chunk_size(num_items: usize, workers: usize) -> usize {
    (num_items / (workers * 4)).max(1)
}

/// Upper bound on workers per fork-join: the host's available parallelism
/// (floored at 2 so the concurrent path still runs — and stays tested — on
/// single-core hosts). Spawning more threads than cores cannot speed a
/// CPU-bound tile phase up; it only multiplies spawn/join overhead when a
/// large `threads_per_server` meets a small machine.
fn worker_cap() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(2)
        .max(2)
}

/// Lock that shrugs off poisoning: pool state is only mutated outside user
/// code, but a panicking `f` must not wedge every later phase.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The claim loop both substrates run: grab contiguous chunks off the shared
/// cursor, run `f` on each index, tag results with their index.
fn claim_chunks<T, F>(
    cursor: &AtomicUsize,
    chunk: usize,
    num_items: usize,
    f: &F,
) -> Vec<(usize, T)>
where
    F: Fn(usize) -> T,
{
    let mut local = Vec::new();
    loop {
        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
        if start >= num_items {
            return local;
        }
        let end = (start + chunk).min(num_items);
        for i in start..end {
            local.push((i, f(i)));
        }
    }
}

/// Sort tagged results back into index order and strip the tags.
fn untag<T>(mut tagged: Vec<(usize, T)>) -> Vec<T> {
    tagged.sort_unstable_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, v)| v).collect()
}

// ---------------------------------------------------------------------------
// Persistent pool
// ---------------------------------------------------------------------------

/// A phase job as seen by the resident workers: a borrowed closure whose
/// lifetime has been erased. Soundness rests on [`WorkerPool::fork_join_ordered`]
/// not returning until every worker has finished running it.
type Job = &'static (dyn Fn() + Sync);

struct PoolState {
    /// Monotonic phase counter; a bump signals workers to run `job` once.
    epoch: u64,
    /// The current phase's job, present while `active > 0`.
    job: Option<Job>,
    /// Span name the current phase's job spans are recorded under.
    job_name: &'static str,
    /// Resident workers still running the current job.
    active: usize,
    /// Set on drop; workers exit their loop.
    shutdown: bool,
    /// Span destination for per-phase job spans ([`Tracer::off`] by default:
    /// workers then run jobs with zero observability overhead).
    tracer: Tracer,
    /// First span lane for this pool's workers (worker `i` records on lane
    /// `tid_base + i`); set together with the tracer so several pools can
    /// occupy disjoint lanes in one trace.
    tid_base: u32,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Workers park here between phases.
    work: Condvar,
    /// The caller parks here until `active` drains to zero.
    done: Condvar,
    /// Serializes whole phases: the pool is `Sync`, and two concurrent
    /// `fork_join_ordered` calls must not interleave their borrowed jobs
    /// (soundness of the lifetime erasure depends on one phase at a time).
    phase: Mutex<()>,
}

/// A persistent fork-join pool: `threads - 1` resident worker threads plus the
/// calling thread cooperate on each [`WorkerPool::fork_join_ordered`] phase.
///
/// Created once (the engine builds one per simulated server, sized to the
/// paper's `T`), reused for every tile phase of every superstep and for SPE
/// partitioning — no thread is ever spawned inside the superstep loop. Between
/// phases the workers park on a condvar; an idle pool costs nothing but
/// memory.
///
/// The resident worker count is capped at the host's available parallelism.
///
/// ```
/// use graphh_pool::WorkerPool;
///
/// let pool = WorkerPool::new(4);
/// // Results come back in item order no matter which worker ran what.
/// let squares = pool.fork_join_ordered(8, |i| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// drop(pool); // resident workers are joined here
/// ```
pub struct WorkerPool {
    shared: std::sync::Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
    /// Worker threads cooperating per phase, including the caller.
    threads: usize,
}

impl WorkerPool {
    /// A pool running phases on up to `threads` cooperating threads (the
    /// calling thread plus `min(threads, available_parallelism) - 1` resident
    /// workers). `threads <= 1` builds an inline pool with no resident
    /// workers: every phase runs sequentially on the caller.
    pub fn new(threads: usize) -> Self {
        let threads = threads.clamp(1, worker_cap());
        let shared = std::sync::Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                epoch: 0,
                job: None,
                job_name: "pool-job",
                active: 0,
                shutdown: false,
                tracer: Tracer::off(),
                tid_base: 0,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            phase: Mutex::new(()),
        });
        let handles = (1..threads)
            .map(|i| {
                let shared = std::sync::Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("graphh-pool-{i}"))
                    .spawn(move || Self::worker_loop(&shared, i as u32))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            handles,
            threads,
        }
    }

    /// A pool sized to the host's available parallelism — what callers
    /// without a configured thread count (e.g. SPE pre-processing outside any
    /// simulated server) should use.
    pub fn with_host_parallelism() -> Self {
        Self::new(worker_cap())
    }

    /// Threads cooperating on each phase (resident workers + the caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Record one `pool-job` span per resident worker per phase into
    /// `tracer`, on lanes `tid_base + 1 ..`. Pass [`Tracer::off`] to stop
    /// recording; that is also the state every pool starts in.
    pub fn set_tracer(&self, tracer: Tracer, tid_base: u32) {
        let mut state = lock(&self.shared.state);
        state.tracer = tracer;
        state.tid_base = tid_base;
    }

    fn worker_loop(shared: &PoolShared, worker_index: u32) {
        let mut seen_epoch = 0u64;
        loop {
            let (job, job_name, tracer, tid_base) = {
                let mut state = lock(&shared.state);
                loop {
                    if state.shutdown {
                        return;
                    }
                    if state.epoch != seen_epoch {
                        seen_epoch = state.epoch;
                        break (
                            state.job.expect("job set whenever the epoch bumps"),
                            state.job_name,
                            state.tracer.clone(),
                            state.tid_base,
                        );
                    }
                    state = shared.work.wait(state).unwrap_or_else(|e| e.into_inner());
                }
            };
            if tracer.is_enabled() {
                let mut rec = tracer.thread(tid_base + worker_index);
                let start = rec.begin();
                job();
                rec.end(start, job_name, "pool");
            } else {
                job();
            }
            let mut state = lock(&shared.state);
            state.active -= 1;
            if state.active == 0 {
                shared.done.notify_all();
            }
        }
    }

    /// Map `f` over `0..num_items` on the pool's threads and return the
    /// results in index order. `f` runs exactly once per index; the result is
    /// independent of the thread count by construction. A panic inside `f` is
    /// re-raised on the caller after the phase has fully drained (the pool
    /// stays usable afterwards).
    pub fn fork_join_ordered<T, F>(&self, num_items: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.fork_join_ordered_named(num_items, "pool-job", f)
    }

    /// [`WorkerPool::fork_join_ordered`] with an explicit span name: when a
    /// tracer is attached (see [`WorkerPool::set_tracer`]) each resident
    /// worker records one span per phase under `name` instead of the generic
    /// `pool-job`, so distinct phase kinds sharing one pool (tile compute vs.
    /// encode-compress) stay distinguishable in the trace and the phase
    /// breakdown.
    pub fn fork_join_ordered_named<T, F>(
        &self,
        num_items: usize,
        name: &'static str,
        f: F,
    ) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if self.handles.is_empty() || num_items <= 1 {
            return (0..num_items).map(f).collect();
        }
        let _phase = lock(&self.shared.phase);
        let chunk = chunk_size(num_items, self.threads);
        let cursor = AtomicUsize::new(0);
        let results: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(num_items));
        let panic_slot: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);

        let run = || {
            // Every participant catches its own panic: a worker must never
            // unwind through `worker_loop` (it would stop decrementing
            // `active`), and the caller must not unwind before the phase has
            // drained (workers would still hold the borrowed closure).
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                claim_chunks(&cursor, chunk, num_items, &f)
            }));
            match outcome {
                Ok(local) => lock(&results).extend(local),
                Err(payload) => {
                    let mut slot = lock(&panic_slot);
                    if slot.is_none() {
                        *slot = Some(payload);
                    }
                    // Mark the cursor exhausted so peers stop claiming doomed
                    // work promptly; the phase aborts either way.
                    cursor.store(num_items, Ordering::Relaxed);
                }
            }
        };
        let job: &(dyn Fn() + Sync) = &run;
        // SAFETY: the job borrows `run`/`f`/locals on this stack frame. The
        // wait loop below does not return until `active == 0`, i.e. every
        // resident worker has finished executing the job, so the erased
        // lifetime never outlives the borrow.
        let job: Job =
            unsafe { std::mem::transmute::<&(dyn Fn() + Sync), &'static (dyn Fn() + Sync)>(job) };

        {
            let mut state = lock(&self.shared.state);
            state.job = Some(job);
            state.job_name = name;
            state.epoch += 1;
            state.active = self.handles.len();
            self.shared.work.notify_all();
        }
        // The caller is a full participant, not just a coordinator.
        run();
        {
            let mut state = lock(&self.shared.state);
            while state.active > 0 {
                state = self
                    .shared
                    .done
                    .wait(state)
                    .unwrap_or_else(|e| e.into_inner());
            }
            state.job = None;
        }

        if let Some(payload) = lock(&panic_slot).take() {
            std::panic::resume_unwind(payload);
        }
        let tagged = std::mem::take(&mut *lock(&results));
        debug_assert_eq!(tagged.len(), num_items, "every index runs exactly once");
        untag(tagged)
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut state = lock(&self.shared.state);
            state.shutdown = true;
            self.shared.work.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .field("resident_workers", &self.handles.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn chunk_size_is_sane() {
        assert_eq!(chunk_size(0, 4), 1);
        assert_eq!(chunk_size(3, 4), 1);
        assert_eq!(chunk_size(1000, 4), 62);
    }

    #[test]
    fn pool_results_come_back_in_index_order() {
        for threads in [1usize, 2, 3, 8] {
            let pool = WorkerPool::new(threads);
            for n in [0usize, 1, 2, 7, 100, 1000] {
                let out = pool.fork_join_ordered(n, |i| i * i);
                assert_eq!(out, (0..n).map(|i| i * i).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn pool_is_reused_across_many_phases_without_respawning() {
        let pool = WorkerPool::new(4);
        let calls = AtomicU64::new(0);
        for phase in 0..200 {
            let out = pool.fork_join_ordered(17, |i| {
                calls.fetch_add(1, Ordering::Relaxed);
                phase * 17 + i
            });
            assert_eq!(out, (0..17).map(|i| phase * 17 + i).collect::<Vec<_>>());
        }
        assert_eq!(calls.load(Ordering::Relaxed), 200 * 17);
    }

    #[test]
    fn pool_matches_a_sequential_map_bit_for_bit() {
        let pool = WorkerPool::new(3);
        let f = |i: usize| (i as f64).sqrt() * 1.5 + i as f64;
        let a = pool.fork_join_ordered(333, f);
        let b: Vec<f64> = (0..333).map(f).collect();
        assert_eq!(a.len(), b.len());
        assert!(a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    fn pool_with_one_thread_runs_inline() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.threads(), 1);
        let caller = std::thread::current().id();
        let out = pool.fork_join_ordered(10, |i| {
            assert_eq!(std::thread::current().id(), caller);
            i
        });
        assert_eq!(out.len(), 10);
    }

    #[test]
    fn pool_uneven_work_is_balanced_not_lost() {
        let pool = WorkerPool::new(4);
        let out = pool.fork_join_ordered(64, |i| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            i + 1
        });
        assert_eq!(out, (1..=64).collect::<Vec<_>>());
    }

    #[test]
    fn pool_panic_propagates_and_pool_survives() {
        let pool = WorkerPool::new(4);
        let boom = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.fork_join_ordered(64, |i| {
                if i == 33 {
                    panic!("item 33 exploded");
                }
                i
            })
        }));
        let payload = boom.expect_err("panic must propagate");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_owned)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(message.contains("item 33 exploded"), "{message}");
        // The pool keeps working after a panicked phase.
        let out = pool.fork_join_ordered(100, |i| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn pool_drop_joins_workers_cleanly() {
        for _ in 0..20 {
            let pool = WorkerPool::new(4);
            let _ = pool.fork_join_ordered(8, |i| i);
            drop(pool); // must not hang or leak
        }
    }

    #[test]
    fn pool_job_spans_land_on_worker_lanes() {
        let pool = WorkerPool::new(3);
        if pool.threads() < 2 {
            return; // single-core host: no resident workers, no job spans
        }
        let tracer = Tracer::new();
        pool.set_tracer(tracer.clone(), 100);
        let _ = pool.fork_join_ordered(64, |i| i);
        let _ = pool.fork_join_ordered(64, |i| i);
        // Recorders flush at the end of each phase, before the join releases
        // the caller, so the spans are visible as soon as fork-join returns.
        let spans = tracer.drain();
        assert!(!spans.is_empty(), "resident workers must record job spans");
        assert!(spans
            .iter()
            .all(|s| s.name == "pool-job" && s.cat == "pool"));
        assert!(spans.iter().all(|s| s.tid > 100 && s.tid < 100 + 3));
    }

    #[test]
    fn named_phases_record_spans_under_their_own_name() {
        let pool = WorkerPool::new(3);
        if pool.threads() < 2 {
            return; // single-core host: no resident workers, no job spans
        }
        let tracer = Tracer::new();
        pool.set_tracer(tracer.clone(), 200);
        let _ = pool.fork_join_ordered_named(64, "encode-compress", |i| i);
        let _ = pool.fork_join_ordered(64, |i| i);
        let spans = tracer.drain();
        assert!(spans.iter().any(|s| s.name == "encode-compress"));
        assert!(spans.iter().any(|s| s.name == "pool-job"));
        assert!(spans.iter().all(|s| s.cat == "pool"));
    }

    #[test]
    fn zero_threads_clamps_to_inline_pool() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.threads(), 1);
        assert_eq!(pool.fork_join_ordered(5, |i| i), vec![0, 1, 2, 3, 4]);
    }
}
