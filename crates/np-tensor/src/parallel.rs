//! Scoped worker-pool execution context for the compute kernels.
//!
//! Every parallel kernel in the workspace takes an explicit [`Pool`] (the
//! `*_with` entry points) instead of spawning ambient threads; the plain
//! entry points delegate to a process-wide [`Pool::global`] sized from
//! `NP_THREADS` or the machine's available parallelism. A `Pool` is just a
//! thread *count* plus a work-distribution strategy: teams are spawned per
//! parallel region with `std::thread::scope`, so borrowed data flows into
//! workers without `'static` bounds, no channels, and no shutdown protocol.
//!
//! # Determinism
//!
//! Parallel float kernels in this workspace are bitwise-deterministic
//! across pool sizes. Two rules make that hold and `Pool` is designed
//! around them:
//!
//! 1. **Independent outputs, shared kernel.** Work items own disjoint
//!    output slices, and the per-item arithmetic is the *same code path*
//!    regardless of which worker runs it or how items are partitioned.
//!    [`Pool::for_each_chunk`] and [`Pool::for_each_mut`] only decide *who*
//!    computes an item, never *how*.
//! 2. **Fixed-shape reductions.** When results must be summed (e.g. weight
//!    gradients across a batch), callers reduce over fixed-size chunks
//!    whose boundaries depend only on the problem size — never on the
//!    thread count — and the final accumulation happens on the calling
//!    thread in chunk order.
//!
//! Integer kernels (the quantized path) are exact, so their parallel
//! parity is unconditional.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// An explicit execution context: how many threads parallel regions may use.
///
/// Cheap to copy; holds no OS resources. `threads == 1` means every
/// operation runs inline on the calling thread with zero overhead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool that fans out to at most `threads` workers (minimum 1).
    pub fn new(threads: usize) -> Self {
        Pool {
            threads: threads.max(1),
        }
    }

    /// The single-threaded pool: all work runs on the calling thread.
    pub fn serial() -> Self {
        Pool { threads: 1 }
    }

    /// The process-wide default pool.
    ///
    /// Sized from the `NP_THREADS` environment variable when set to a
    /// positive integer, otherwise from `std::thread::available_parallelism`
    /// capped at 8 (the kernels here saturate memory bandwidth quickly;
    /// more workers than that just adds scheduling noise).
    pub fn global() -> Pool {
        static GLOBAL: OnceLock<Pool> = OnceLock::new();
        *GLOBAL.get_or_init(|| {
            let raw = std::env::var("NP_THREADS").ok();
            let threads = match parse_np_threads(raw.as_deref()) {
                Ok(Some(n)) => n,
                Ok(None) => default_threads(),
                Err(raw) => {
                    np_trace::warn!(
                        "ignoring NP_THREADS={raw:?}: expected a positive integer, \
                         using {} threads",
                        default_threads()
                    );
                    default_threads()
                }
            };
            Pool::new(threads)
        })
    }

    /// The worker count this pool fans out to.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Scalar operations (e.g. multiply-adds) each worker must have
    /// before fanning out pays for the per-region thread spawns.
    ///
    /// Measured on the kernel bench: below roughly this many MACs per
    /// worker, `std::thread::scope` setup dominates and threads=2/4 run
    /// *slower* than serial (see `BENCH_kernels.json`).
    pub const MIN_WORK_PER_THREAD: usize = 1 << 15;

    /// Clamps the pool for a kernel invocation totalling `work` scalar
    /// operations: runs serial when the machine only has one CPU (fanning
    /// out can never win — the workers time-slice one core) and otherwise
    /// caps the worker count so each has at least
    /// [`Pool::MIN_WORK_PER_THREAD`] operations.
    ///
    /// Determinism is unaffected: the clamp is a pure function of the
    /// problem size and the machine, never of the thread count, and the
    /// kernels' chunk partitions don't depend on pool width anyway.
    pub fn for_work(self, work: usize) -> Pool {
        if self.threads == 1 {
            return self;
        }
        if cpus_available() == 1 {
            return Pool::serial();
        }
        let max_useful = (work / Self::MIN_WORK_PER_THREAD).max(1);
        Pool::new(self.threads.min(max_useful))
    }

    /// Chunk length (in elements) for [`Pool::for_each_chunk`] over
    /// `n_items` work items of `item_len` elements each: always a whole
    /// number of items, aiming for about two chunks per worker so the
    /// shared queue can balance uneven chunk costs without paying a lock
    /// round-trip per item.
    ///
    /// Grouping items into chunks never changes results here: every
    /// kernel using this helper computes each item with the same code
    /// path regardless of which chunk it lands in, so outputs stay
    /// bitwise-identical across pool widths.
    pub fn chunk_len_for(&self, n_items: usize, item_len: usize) -> usize {
        let target_chunks = (2 * self.threads).clamp(1, n_items.max(1));
        item_len.max(1) * n_items.div_ceil(target_chunks).max(1)
    }
}

/// Bumps the pool-utilization counters for one parallel region.
///
/// A no-op unless the `trace` feature is compiled in *and* a recorder is
/// enabled; the hot path then pays one relaxed atomic load plus a few
/// relaxed adds — no locks, no allocation.
#[inline]
fn record_region(workers: usize, items: usize) {
    use np_trace::Counter;
    np_trace::counter_add(Counter::PoolRegions, 1);
    if workers <= 1 {
        np_trace::counter_add(Counter::PoolInlineRegions, 1);
    } else {
        np_trace::counter_add(Counter::PoolWorkerSpawns, workers as u64 - 1);
    }
    np_trace::counter_add(Counter::PoolItems, items as u64);
}

/// Default worker count when `NP_THREADS` is absent: available
/// parallelism capped at 8 (the kernels here saturate memory bandwidth
/// quickly; more workers than that just adds scheduling noise).
fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(8))
}

/// Parses an `NP_THREADS` environment value.
///
/// `Ok(None)` — variable unset; `Ok(Some(n))` — a positive integer
/// (surrounding whitespace tolerated); `Err(raw)` — set but not a
/// positive integer (`0`, `abc`, `-2`, empty, …), which [`Pool::global`]
/// reports once through the log facade instead of silently ignoring.
fn parse_np_threads(raw: Option<&str>) -> Result<Option<usize>, String> {
    let Some(raw) = raw else { return Ok(None) };
    match raw.trim().parse::<usize>() {
        Ok(n) if n > 0 => Ok(Some(n)),
        _ => Err(raw.to_string()),
    }
}

/// CPUs actually available to the process, cached once.
///
/// Distinct from [`Pool::global`]'s size: `NP_THREADS` can request more
/// workers than cores, and kernels still want to know when the machine
/// is genuinely single-core so they can skip fan-out entirely.
pub fn cpus_available() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

impl Pool {
    /// Splits `data` into consecutive chunks of `chunk_len` elements (the
    /// last may be shorter) and runs `body(chunk_index, chunk)` for each,
    /// distributed across the pool. Chunk boundaries depend only on
    /// `data.len()` and `chunk_len`, never on the thread count.
    pub fn for_each_chunk<T: Send>(
        &self,
        data: &mut [T],
        chunk_len: usize,
        body: impl Fn(usize, &mut [T]) + Sync,
    ) {
        let chunk_len = chunk_len.max(1);
        let n_chunks = data.len().div_ceil(chunk_len);
        let workers = self.threads.min(n_chunks);
        record_region(workers, n_chunks);
        if workers <= 1 {
            for (idx, chunk) in data.chunks_mut(chunk_len).enumerate() {
                body(idx, chunk);
            }
            return;
        }
        let queue = Mutex::new(data.chunks_mut(chunk_len).enumerate());
        let work = || {
            loop {
                // Hold the lock only to pop the next chunk, not to run it.
                let item = queue.lock().expect("chunk queue poisoned").next();
                match item {
                    Some((idx, chunk)) => body(idx, chunk),
                    None => break,
                }
            }
        };
        std::thread::scope(|scope| {
            for _ in 1..workers {
                scope.spawn(work);
            }
            work();
        });
    }

    /// Runs `body(i, &mut data[i])` for every element, distributing
    /// indices across the pool with an atomic work-stealing counter.
    /// Unlike [`Pool::for_each_chunk`] with a chunk length of one item,
    /// claiming an element costs a single relaxed `fetch_add` instead of
    /// a mutex round-trip — the shape a serving tick wants when thousands
    /// of per-session slots each carry an unpredictable amount of work
    /// (empty, little-only, or escalated).
    ///
    /// Element boundaries are fixed by the slice itself, so which worker
    /// runs an element can never change results; a 1-thread pool runs
    /// everything inline in index order.
    pub fn for_each_mut<T: Send>(&self, data: &mut [T], body: impl Fn(usize, &mut T) + Sync) {
        let n = data.len();
        let workers = self.threads.min(n);
        record_region(workers, n);
        if workers <= 1 {
            for (i, item) in data.iter_mut().enumerate() {
                body(i, item);
            }
            return;
        }
        // Disjoint-index access: every index is claimed exactly once via
        // the atomic counter, so no two workers ever hold a reference to
        // the same element.
        struct SharedSlice<T>(*mut T);
        unsafe impl<T: Send> Sync for SharedSlice<T> {}
        let base = SharedSlice(data.as_mut_ptr());
        let next = AtomicUsize::new(0);
        let work = || {
            let base = &base;
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                // SAFETY: `i < n` indexes into the borrowed slice, and the
                // fetch_add hands each index to exactly one worker, so the
                // mutable references are disjoint. The scope below joins
                // all workers before `data`'s borrow ends.
                let item = unsafe { &mut *base.0.add(i) };
                body(i, item);
            }
        };
        std::thread::scope(|scope| {
            for _ in 1..workers {
                scope.spawn(work);
            }
            work();
        });
    }

    /// Maps `f` over `0..n` in parallel, returning results in index order.
    pub fn map<T: Send>(&self, n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
        let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        self.for_each_chunk(&mut slots, 1, |idx, chunk| {
            chunk[0] = Some(f(idx));
        });
        slots
            .into_iter()
            .map(|slot| slot.expect("map task did not run"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_each_chunk_boundaries_are_thread_independent() {
        for threads in [1, 2, 5] {
            let pool = Pool::new(threads);
            let mut data = vec![0u32; 23];
            pool.for_each_chunk(&mut data, 5, |idx, chunk| {
                for v in chunk.iter_mut() {
                    *v = idx as u32 + 1;
                }
            });
            let expect: Vec<u32> = (0..23).map(|i| i / 5 + 1).collect();
            assert_eq!(data, expect);
        }
    }

    #[test]
    fn for_each_mut_visits_every_element_exactly_once() {
        for threads in [1, 2, 5, 8] {
            let pool = Pool::new(threads);
            for n in [0usize, 1, 7, 129] {
                let mut data = vec![0u32; n];
                pool.for_each_mut(&mut data, |i, v| {
                    *v += i as u32 + 1;
                });
                let expect: Vec<u32> = (0..n).map(|i| i as u32 + 1).collect();
                assert_eq!(data, expect, "threads {threads}, n {n}");
            }
        }
    }

    #[test]
    fn for_each_mut_allows_uneven_per_item_work() {
        // Items deliberately carry wildly different costs; the stealing
        // counter must still hand out each exactly once.
        let pool = Pool::new(4);
        let mut data: Vec<u64> = (0..64).collect();
        pool.for_each_mut(&mut data, |i, v| {
            let spin = if i % 7 == 0 { 1000 } else { 1 };
            for _ in 0..spin {
                *v = std::hint::black_box(*v);
            }
            *v *= 2;
        });
        let expect: Vec<u64> = (0..64).map(|i| i * 2).collect();
        assert_eq!(data, expect);
    }

    #[test]
    fn map_preserves_index_order() {
        for threads in [1, 4] {
            let out = Pool::new(threads).map(17, |i| i * i);
            assert_eq!(out, (0..17).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_thread_request_clamps_to_one() {
        assert_eq!(Pool::new(0).threads(), 1);
        assert_eq!(Pool::serial().threads(), 1);
    }

    #[test]
    fn for_work_keeps_serial_serial() {
        assert_eq!(Pool::serial().for_work(usize::MAX).threads(), 1);
    }

    #[test]
    fn for_work_clamps_by_machine_and_size() {
        let wide = Pool::new(8);
        if cpus_available() == 1 {
            // Single-CPU machine: every clamp lands on serial.
            assert_eq!(wide.for_work(usize::MAX).threads(), 1);
        } else {
            // Tiny problems run inline, huge ones keep the full pool.
            assert_eq!(wide.for_work(Pool::MIN_WORK_PER_THREAD - 1).threads(), 1);
            assert_eq!(wide.for_work(usize::MAX).threads(), 8);
            // Mid-size problems get proportionally fewer workers.
            let two = wide.for_work(2 * Pool::MIN_WORK_PER_THREAD).threads();
            assert_eq!(two, 2);
        }
    }

    #[test]
    fn chunk_len_is_whole_items_and_covers_all() {
        for threads in [1usize, 2, 4, 8] {
            let pool = Pool::new(threads);
            for n_items in [1usize, 3, 7, 16, 33] {
                for item_len in [1usize, 5, 240] {
                    let len = pool.chunk_len_for(n_items, item_len);
                    assert_eq!(len % item_len, 0, "chunks must hold whole items");
                    assert!(len >= item_len);
                    // At most ~2 chunks per worker.
                    let n_chunks = (n_items * item_len).div_ceil(len);
                    assert!(n_chunks <= 2 * threads.max(1));
                }
            }
        }
        // Degenerate inputs stay positive.
        assert!(Pool::serial().chunk_len_for(0, 0) >= 1);
    }

    #[test]
    fn global_pool_is_stable() {
        assert_eq!(Pool::global(), Pool::global());
        assert!(Pool::global().threads() >= 1);
    }

    #[test]
    fn np_threads_parse_accepts_positive_integers() {
        assert_eq!(parse_np_threads(None), Ok(None));
        assert_eq!(parse_np_threads(Some("1")), Ok(Some(1)));
        assert_eq!(parse_np_threads(Some("8")), Ok(Some(8)));
        assert_eq!(parse_np_threads(Some("  4\n")), Ok(Some(4)));
    }

    #[test]
    fn np_threads_parse_rejects_garbage_with_original_value() {
        // These all used to fall through *silently* to the default; the
        // parser now surfaces the rejected value so global() can warn.
        for bad in ["abc", "", "0", "-2", "4.5", "2 cores"] {
            assert_eq!(parse_np_threads(Some(bad)), Err(bad.to_string()));
        }
    }
}
