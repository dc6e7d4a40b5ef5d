//! Offline stand-in for the `rayon` crate.
//!
//! Covers the surface this workspace uses: `par_iter()` on slices with
//! `map`/`enumerate`/`fold`/`reduce`/`sum`/`collect` chains, `par_chunks`,
//! `in_place_scope` with `Scope::spawn`, and
//! `ThreadPoolBuilder`/`ThreadPool::install`. Adapters execute eagerly
//! at the terminal operation by splitting the input into contiguous chunks
//! and running them on `std::thread::scope` workers; results are always
//! concatenated in input order, so `collect` is order-identical to the
//! sequential iterator (as real rayon's indexed collect is).
//!
//! The worker count comes from [`current_num_threads`]: a thread-local
//! override installed by [`ThreadPool::install`], defaulting to
//! `std::thread::available_parallelism()`.

use std::cell::Cell;
use std::fmt;
use std::iter::Sum;

thread_local! {
    static POOL_THREADS: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Number of worker threads the calling context would use.
pub fn current_num_threads() -> usize {
    POOL_THREADS.with(|c| c.get()).unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Error from [`ThreadPoolBuilder::build`] (infallible here, kept for API
/// compatibility).
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder mirroring `rayon::ThreadPoolBuilder`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    pub fn new() -> Self {
        ThreadPoolBuilder::default()
    }

    /// `0` means "use the default parallelism".
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let n = if self.num_threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.num_threads
        };
        Ok(ThreadPool { threads: n })
    }
}

/// A handle fixing the worker count for closures run under [`install`].
///
/// [`install`]: ThreadPool::install
#[derive(Debug)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// Run `f` with this pool's thread count as the ambient parallelism.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        let prev = POOL_THREADS.with(|c| c.replace(Some(self.threads)));
        struct Restore(Option<usize>);
        impl Drop for Restore {
            fn drop(&mut self) {
                POOL_THREADS.with(|c| c.set(self.0));
            }
        }
        let _restore = Restore(prev);
        f()
    }

    pub fn current_num_threads(&self) -> usize {
        self.threads
    }
}

/// Split `[0, len)` into at most `workers` contiguous spans.
fn spans(len: usize, workers: usize) -> Vec<(usize, usize)> {
    let workers = workers.clamp(1, len.max(1));
    let base = len / workers;
    let extra = len % workers;
    let mut out = Vec::with_capacity(workers);
    let mut start = 0;
    for w in 0..workers {
        let sz = base + usize::from(w < extra);
        if sz == 0 {
            break;
        }
        out.push((start, start + sz));
        start += sz;
    }
    out
}

/// Run `f(start, end)` over the spans of `len` items on scoped worker
/// threads, returning the per-span outputs in span order.
fn run_spans<U, F>(len: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize, usize) -> U + Sync,
{
    let workers = current_num_threads();
    let spans = spans(len, workers);
    if spans.len() <= 1 {
        return spans.into_iter().map(|(s, e)| f(s, e)).collect();
    }
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = spans
            .iter()
            .skip(1)
            .map(|&(s, e)| scope.spawn(move || f(s, e)))
            .collect();
        let (s0, e0) = spans[0];
        let mut out = Vec::with_capacity(spans.len());
        out.push(f(s0, e0));
        for h in handles {
            out.push(h.join().expect("rayon shim worker panicked"));
        }
        out
    })
}

/// A scope whose spawned jobs all finish before [`in_place_scope`]
/// returns, mirroring `rayon::Scope`. Each job runs on its own scoped
/// thread.
pub struct Scope<'scope, 'env: 'scope> {
    inner: &'scope std::thread::Scope<'scope, 'env>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Run `body` on another thread; it may borrow anything that outlives
    /// the scope.
    pub fn spawn<BODY>(&self, body: BODY)
    where
        BODY: FnOnce(&Scope<'scope, 'env>) + Send + 'scope,
    {
        let inner = self.inner;
        inner.spawn(move || body(&Scope { inner }));
    }
}

/// Run `op` on the calling thread with a [`Scope`] to spawn jobs into,
/// and return once `op` and every spawned job have finished, as
/// `rayon::in_place_scope` does. `op` itself needs no `Send` bound. A
/// panicking job panics the caller once all jobs have joined.
pub fn in_place_scope<'env, OP, R>(op: OP) -> R
where
    OP: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
{
    std::thread::scope(|s| op(&Scope { inner: s }))
}

/// Parallel iterator over `&[T]`, produced by [`par_iter`].
///
/// [`par_iter`]: IntoParallelRefIterator::par_iter
pub struct ParIter<'a, T> {
    items: &'a [T],
}

/// Parallel iterator over contiguous chunks, produced by
/// [`ParallelSlice::par_chunks`].
pub struct ParChunks<'a, T> {
    items: &'a [T],
    chunk: usize,
}

/// `.map(f)` over [`ParIter`].
pub struct ParMap<'a, T, F> {
    items: &'a [T],
    f: F,
}

/// `.enumerate()` over [`ParIter`].
pub struct ParEnumerate<'a, T> {
    items: &'a [T],
}

/// `.map(f)` over [`ParEnumerate`].
pub struct ParEnumMap<'a, T, F> {
    items: &'a [T],
    f: F,
}

/// `.map(f)` over [`ParChunks`].
pub struct ParChunksMap<'a, T, F> {
    items: &'a [T],
    chunk: usize,
    f: F,
}

/// Chunk accumulators from `.fold(id, f)`, awaiting `.reduce`.
pub struct ParFold<A> {
    accs: Vec<A>,
}

impl<'a, T: Sync> ParIter<'a, T> {
    pub fn map<U, F>(self, f: F) -> ParMap<'a, T, F>
    where
        U: Send,
        F: Fn(&'a T) -> U + Sync,
    {
        ParMap {
            items: self.items,
            f,
        }
    }

    pub fn enumerate(self) -> ParEnumerate<'a, T> {
        ParEnumerate { items: self.items }
    }

    /// Eager chunked fold: each worker folds its contiguous span into an
    /// accumulator seeded by `identity`.
    pub fn fold<A, ID, F>(self, identity: ID, fold_op: F) -> ParFold<A>
    where
        A: Send,
        ID: Fn() -> A + Sync,
        F: Fn(A, &'a T) -> A + Sync,
    {
        let items = self.items;
        let accs = run_spans(items.len(), |s, e| {
            items[s..e].iter().fold(identity(), &fold_op)
        });
        ParFold { accs }
    }
}

impl<'a, T, U, F> ParMap<'a, T, F>
where
    T: Sync,
    U: Send,
    F: Fn(&'a T) -> U + Sync,
{
    pub fn collect<C: FromIterator<U>>(self) -> C {
        let (items, f) = (self.items, &self.f);
        run_spans(items.len(), |s, e| {
            items[s..e].iter().map(f).collect::<Vec<U>>()
        })
        .into_iter()
        .flatten()
        .collect()
    }

    pub fn sum<S>(self) -> S
    where
        S: Sum<U> + Sum<S> + Send,
    {
        let (items, f) = (self.items, &self.f);
        run_spans(items.len(), |s, e| items[s..e].iter().map(f).sum::<S>())
            .into_iter()
            .sum()
    }
}

impl<'a, T: Sync> ParEnumerate<'a, T> {
    pub fn map<U, F>(self, f: F) -> ParEnumMap<'a, T, F>
    where
        U: Send,
        F: Fn((usize, &'a T)) -> U + Sync,
    {
        ParEnumMap {
            items: self.items,
            f,
        }
    }
}

impl<'a, T, U, F> ParEnumMap<'a, T, F>
where
    T: Sync,
    U: Send,
    F: Fn((usize, &'a T)) -> U + Sync,
{
    pub fn collect<C: FromIterator<U>>(self) -> C {
        let (items, f) = (self.items, &self.f);
        run_spans(items.len(), |s, e| {
            items[s..e]
                .iter()
                .enumerate()
                .map(|(i, t)| f((s + i, t)))
                .collect::<Vec<U>>()
        })
        .into_iter()
        .flatten()
        .collect()
    }
}

impl<'a, T: Sync> ParChunks<'a, T> {
    pub fn map<U, F>(self, f: F) -> ParChunksMap<'a, T, F>
    where
        U: Send,
        F: Fn(&'a [T]) -> U + Sync,
    {
        ParChunksMap {
            items: self.items,
            chunk: self.chunk,
            f,
        }
    }

    pub fn enumerate(self) -> ParChunksEnumerate<'a, T> {
        ParChunksEnumerate {
            items: self.items,
            chunk: self.chunk,
        }
    }
}

impl<'a, T, U, F> ParChunksMap<'a, T, F>
where
    T: Sync,
    U: Send,
    F: Fn(&'a [T]) -> U + Sync,
{
    pub fn collect<C: FromIterator<U>>(self) -> C {
        let (items, chunk, f) = (self.items, self.chunk, &self.f);
        let n_chunks = items.len().div_ceil(chunk.max(1));
        run_spans(n_chunks, |s, e| {
            (s..e)
                .map(|ci| f(&items[ci * chunk..((ci + 1) * chunk).min(items.len())]))
                .collect::<Vec<U>>()
        })
        .into_iter()
        .flatten()
        .collect()
    }
}

/// `.enumerate()` over [`ParChunks`]: items are `(chunk_index, chunk)`.
pub struct ParChunksEnumerate<'a, T> {
    items: &'a [T],
    chunk: usize,
}

/// `.map(f)` over [`ParChunksEnumerate`].
pub struct ParChunksEnumMap<'a, T, F> {
    items: &'a [T],
    chunk: usize,
    f: F,
}

impl<'a, T: Sync> ParChunksEnumerate<'a, T> {
    pub fn map<U, F>(self, f: F) -> ParChunksEnumMap<'a, T, F>
    where
        U: Send,
        F: Fn((usize, &'a [T])) -> U + Sync,
    {
        ParChunksEnumMap {
            items: self.items,
            chunk: self.chunk,
            f,
        }
    }
}

impl<'a, T, U, F> ParChunksEnumMap<'a, T, F>
where
    T: Sync,
    U: Send,
    F: Fn((usize, &'a [T])) -> U + Sync,
{
    pub fn collect<C: FromIterator<U>>(self) -> C {
        let (items, chunk, f) = (self.items, self.chunk, &self.f);
        let n_chunks = items.len().div_ceil(chunk.max(1));
        run_spans(n_chunks, |s, e| {
            (s..e)
                .map(|ci| f((ci, &items[ci * chunk..((ci + 1) * chunk).min(items.len())])))
                .collect::<Vec<U>>()
        })
        .into_iter()
        .flatten()
        .collect()
    }
}

impl<A: Send> ParFold<A> {
    /// Merge the chunk accumulators left-to-right.
    pub fn reduce<ID, F>(self, identity: ID, reduce_op: F) -> A
    where
        ID: Fn() -> A,
        F: Fn(A, A) -> A,
    {
        self.accs.into_iter().fold(identity(), reduce_op)
    }
}

/// `par_iter()` entry point for shared slices.
pub trait IntoParallelRefIterator<'data> {
    type Item: Sync + 'data;
    fn par_iter(&'data self) -> ParIter<'data, Self::Item>;
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for [T] {
    type Item = T;
    fn par_iter(&'data self) -> ParIter<'data, T> {
        ParIter { items: self }
    }
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for Vec<T> {
    type Item = T;
    fn par_iter(&'data self) -> ParIter<'data, T> {
        ParIter { items: self }
    }
}

/// `par_chunks()` entry point for shared slices.
pub trait ParallelSlice<T: Sync> {
    fn par_chunks(&self, chunk_size: usize) -> ParChunks<'_, T>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_chunks(&self, chunk_size: usize) -> ParChunks<'_, T> {
        assert!(chunk_size > 0, "chunk size must be non-zero");
        ParChunks {
            items: self,
            chunk: chunk_size,
        }
    }
}

pub mod prelude {
    pub use crate::{IntoParallelRefIterator, ParallelSlice};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<u32> = (0..1000).collect();
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let doubled: Vec<u32> = pool.install(|| v.par_iter().map(|x| x * 2).collect());
        assert_eq!(doubled, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn enumerate_map_indices_are_global() {
        let v = vec!["a"; 97];
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let idx: Vec<usize> = pool.install(|| v.par_iter().enumerate().map(|(i, _)| i).collect());
        assert_eq!(idx, (0..97).collect::<Vec<_>>());
    }

    #[test]
    fn fold_reduce_matches_sequential_sum() {
        let v: Vec<u64> = (1..=10_000).collect();
        let pool = ThreadPoolBuilder::new().num_threads(8).build().unwrap();
        let total = pool.install(|| {
            v.par_iter()
                .fold(|| 0u64, |acc, &x| acc + x)
                .reduce(|| 0u64, |a, b| a + b)
        });
        assert_eq!(total, 10_000 * 10_001 / 2);
    }

    #[test]
    fn sum_matches_sequential() {
        let v: Vec<f64> = (0..5000).map(|x| x as f64).collect();
        let got: f64 = v.par_iter().map(|&x| x * 0.5).sum();
        let want: f64 = v.iter().map(|&x| x * 0.5).sum();
        assert!((got - want).abs() < 1e-6);
    }

    #[test]
    fn par_chunks_covers_everything_in_order() {
        let v: Vec<u32> = (0..103).collect();
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let sums: Vec<u32> =
            pool.install(|| v.par_chunks(10).map(|c| c.iter().sum::<u32>()).collect());
        let want: Vec<u32> = v.chunks(10).map(|c| c.iter().sum()).collect();
        assert_eq!(sums, want);
    }

    #[test]
    fn install_scopes_thread_count() {
        let pool = ThreadPoolBuilder::new().num_threads(5).build().unwrap();
        let outside = current_num_threads();
        let inside = pool.install(current_num_threads);
        assert_eq!(inside, 5);
        assert_eq!(current_num_threads(), outside);
    }

    #[test]
    fn in_place_scope_joins_spawned_jobs_before_returning() {
        let mut spawned = 0u64;
        let local = std::rc::Rc::new(7u64);
        let here = in_place_scope(|s| {
            s.spawn(|_| spawned = (1..=100).sum());
            // The scope body runs on the calling thread, so it may use
            // what is not `Send`.
            *local + 1
        });
        assert_eq!((spawned, here), (5050, 8));
    }

    #[test]
    fn empty_inputs_are_fine() {
        let v: Vec<u32> = Vec::new();
        let out: Vec<u32> = v.par_iter().map(|x| *x).collect();
        assert!(out.is_empty());
        let folded = v
            .par_iter()
            .fold(|| 1u32, |a, b| a + b)
            .reduce(|| 0, |a, b| a + b);
        assert_eq!(folded, 0);
    }
}
