//! Offline shim of `rayon`.
//!
//! Implements the subset the workspace calls — `vec.into_par_iter()`,
//! `.map(f).collect()`, `ThreadPoolBuilder` / `ThreadPool::install` and
//! `current_num_threads()` — with genuine data parallelism: items are split
//! into one contiguous batch per available core and mapped on scoped OS
//! threads spawned for each operation, preserving input order in the
//! collected output.
//!
//! There is no work stealing, and the closures it runs are not uniform.
//! The paper's screening fan-out costs what its shard's unique pixels cost:
//! on `smp_speedup`'s cube at 8 shards, shard 0 (the river rows) makes 91 %
//! of step 1's comparisons.  The batch holding it finishes last while the
//! other cores idle, so static batching leaves them underused.

use std::cell::Cell;
use std::num::NonZeroUsize;

thread_local! {
    /// Per-thread override installed by [`ThreadPool::install`].
    static POOL_THREADS: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Number of threads parallel operations will use: the installed pool size
/// when called inside [`ThreadPool::install`], otherwise the logical CPU
/// count.
pub fn current_num_threads() -> usize {
    POOL_THREADS.with(Cell::get).unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Error from [`ThreadPoolBuilder::build`] (never produced by this shim,
/// present for API compatibility).
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("failed to build thread pool")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder for a sized [`ThreadPool`].
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// Creates a builder with the default (CPU-count) sizing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the pool size; `0` means the logical CPU count, as in rayon.
    pub fn num_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = num_threads;
        self
    }

    /// Builds the pool. Infallible in this shim.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let threads = if self.num_threads == 0 {
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            self.num_threads
        };
        Ok(ThreadPool { threads })
    }
}

/// A sized scope for parallel operations. The shim spawns fresh scoped
/// threads per operation rather than keeping a worker pool; `install` simply
/// bounds how many threads those operations may use.
#[derive(Debug)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// Runs `op` with this pool's thread count governing any parallel
    /// operations it performs.
    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        let previous = POOL_THREADS.with(|c| c.replace(Some(self.threads)));
        let result = op();
        POOL_THREADS.with(|c| c.set(previous));
        result
    }

    /// The pool's thread count.
    pub fn current_num_threads(&self) -> usize {
        self.threads
    }
}

/// Import surface mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::iter::IntoParallelIterator;
}

pub mod iter {
    //! Minimal parallel-iterator pipeline: source -> map -> collect.

    /// Conversion into a parallel iterator that owns its items.
    pub trait IntoParallelIterator {
        /// The items the iterator yields.
        type Item: Send;

        /// A parallel iterator over the items, consuming `self`.
        fn into_par_iter(self) -> ParIter<Self::Item>;
    }

    impl<T: Send> IntoParallelIterator for Vec<T> {
        type Item = T;

        fn into_par_iter(self) -> ParIter<T> {
            ParIter { items: self }
        }
    }

    /// A parallel iterator over an eagerly materialised item list.
    pub struct ParIter<I> {
        items: Vec<I>,
    }

    impl<I: Send> ParIter<I> {
        /// Maps every item through `f` in parallel.
        pub fn map<F, R>(self, f: F) -> ParMap<I, F>
        where
            F: Fn(I) -> R + Sync,
            R: Send,
        {
            ParMap {
                items: self.items,
                f,
            }
        }
    }

    /// A mapped parallel iterator; terminal `collect` runs the map on
    /// scoped threads.
    pub struct ParMap<I, F> {
        items: Vec<I>,
        f: F,
    }

    impl<I: Send, F> ParMap<I, F> {
        /// Runs the map in parallel and collects the results in input order.
        pub fn collect<C, R>(self) -> C
        where
            F: Fn(I) -> R + Sync,
            R: Send,
            C: FromIterator<R>,
        {
            parallel_map(self.items, &self.f).into_iter().collect()
        }
    }

    fn parallel_map<I, R, F>(items: Vec<I>, f: &F) -> Vec<R>
    where
        I: Send,
        R: Send,
        F: Fn(I) -> R + Sync,
    {
        let n = items.len();
        let threads = super::current_num_threads().min(n.max(1));
        if threads <= 1 {
            return items.into_iter().map(f).collect();
        }
        let batch_len = n.div_ceil(threads);
        let mut batches: Vec<Vec<I>> = Vec::with_capacity(threads);
        let mut source = items.into_iter();
        loop {
            let batch: Vec<I> = source.by_ref().take(batch_len).collect();
            if batch.is_empty() {
                break;
            }
            batches.push(batch);
        }
        std::thread::scope(|scope| {
            let handles: Vec<_> = batches
                .into_iter()
                .map(|batch| scope.spawn(move || batch.into_iter().map(f).collect::<Vec<R>>()))
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("rayon-shim worker panicked"))
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn par_iter_preserves_order() {
        let input: Vec<u64> = (0..10_000).collect();
        let doubled: Vec<u64> = input.clone().into_par_iter().map(|x| x * 2).collect();
        assert_eq!(doubled.len(), input.len());
        for (i, v) in doubled.iter().enumerate() {
            assert_eq!(*v, 2 * i as u64);
        }
    }

    #[test]
    fn into_par_iter_moves_each_item_once_in_order() {
        let input: Vec<String> = (0..100).map(|i| i.to_string()).collect();
        let moved: Vec<String> = input.into_par_iter().map(|s| s + "!").collect();
        assert_eq!(moved.len(), 100);
        for (i, s) in moved.iter().enumerate() {
            assert_eq!(*s, format!("{i}!"));
        }
    }

    #[test]
    fn empty_input_collects_empty() {
        let input: Vec<u8> = Vec::new();
        let out: Vec<u8> = input.into_par_iter().map(|x| x).collect();
        assert!(out.is_empty());
    }

    #[test]
    fn current_num_threads_is_positive() {
        assert!(super::current_num_threads() >= 1);
    }

    #[test]
    fn install_scopes_the_thread_count_override() {
        let pool = super::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .unwrap();
        assert_eq!(pool.current_num_threads(), 2);
        assert_eq!(pool.install(super::current_num_threads), 2);
        // The override does not leak out of install().
        let ambient = super::current_num_threads();
        assert!(ambient >= 1);
        let nested: Vec<usize> = (0..4u8)
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|_| super::current_num_threads())
            .collect();
        assert_eq!(nested.len(), 4);
    }
}
