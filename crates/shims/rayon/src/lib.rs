//! Offline stand-in for the subset of `rayon` this workspace uses.
//!
//! Implements `par_chunks_mut(..).enumerate().for_each(..)` over slices
//! and `(a..b).into_par_iter().map(..)/.flat_map_iter(..).collect()` over
//! `usize` ranges with **real threads** (`std::thread::scope`), splitting
//! work into contiguous blocks and concatenating results in input order —
//! so, like rayon, output is identical at any thread count.
//!
//! Unlike rayon there is no persistent pool: **every call spawns fresh
//! OS threads** and joins them before returning. That suits coarse work
//! (a granule's projections, a compaction's tiles) but not per-chunk hot
//! paths: a kernel that runs in microseconds pays more for the spawns
//! than it gains. The `sanity` rule `hot_alloc` flags dispatch inside
//! the `_into`/`_ws`/`_inplace` kernels of `crates/nn` and `crates/core`.

use std::ops::Range;

/// Worker threads to use (cores, capped to keep thread churn sane on very
/// wide hosts).
fn n_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(16)
}

pub mod prelude {
    pub use crate::{IntoParallelIterator, ParallelSliceMut};
}

// ---------------------------------------------------------------------------
// Mutable slice chunks.
// ---------------------------------------------------------------------------

/// `par_chunks_mut` provider for slices.
pub trait ParallelSliceMut<T: Send> {
    /// Parallel iterator over non-overlapping mutable chunks of `size`.
    fn par_chunks_mut(&mut self, size: usize) -> ParChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, size: usize) -> ParChunksMut<'_, T> {
        assert!(size > 0, "chunk size must be positive");
        ParChunksMut {
            chunks: self.chunks_mut(size).collect(),
        }
    }
}

/// Parallel mutable-chunk iterator (chunks are pre-split, so the only
/// parallel step is dispatching them).
pub struct ParChunksMut<'a, T> {
    chunks: Vec<&'a mut [T]>,
}

impl<'a, T: Send> ParChunksMut<'a, T> {
    /// Pairs each chunk with its index.
    pub fn enumerate(self) -> ParEnumerateChunksMut<'a, T> {
        ParEnumerateChunksMut {
            chunks: self.chunks.into_iter().enumerate().collect(),
        }
    }

    /// Runs `f` on every chunk across the worker threads.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&'a mut [T]) + Send + Sync,
    {
        run_items(self.chunks, &f);
    }
}

/// Enumerated variant of [`ParChunksMut`].
pub struct ParEnumerateChunksMut<'a, T> {
    chunks: Vec<(usize, &'a mut [T])>,
}

impl<'a, T: Send> ParEnumerateChunksMut<'a, T> {
    /// Runs `f` on every `(index, chunk)` pair across the worker threads.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn((usize, &'a mut [T])) + Send + Sync,
    {
        run_items(self.chunks, &f);
    }
}

/// Distributes owned work items over scoped threads in contiguous blocks.
fn run_items<I, F>(mut items: Vec<I>, f: &F)
where
    I: Send,
    F: Fn(I) + Send + Sync,
{
    let nt = n_threads();
    if nt <= 1 || items.len() <= 1 {
        for it in items {
            f(it);
        }
        return;
    }
    let block = items.len().div_ceil(nt);
    std::thread::scope(|scope| {
        while !items.is_empty() {
            let tail = items.split_off(items.len().saturating_sub(block));
            scope.spawn(move || {
                for it in tail {
                    f(it);
                }
            });
        }
    });
}

// ---------------------------------------------------------------------------
// Index ranges.
// ---------------------------------------------------------------------------

/// Conversion into a parallel iterator (only `Range<usize>` is needed in
/// this workspace).
pub trait IntoParallelIterator {
    /// The parallel iterator type.
    type Iter;
    /// Converts `self`.
    fn into_par_iter(self) -> Self::Iter;
}

impl IntoParallelIterator for Range<usize> {
    type Iter = ParRange;
    fn into_par_iter(self) -> ParRange {
        ParRange { range: self }
    }
}

/// Parallel `usize` range.
pub struct ParRange {
    range: Range<usize>,
}

impl ParRange {
    /// Lazily maps each index through `f`.
    pub fn map<T, F>(self, f: F) -> ParRangeMap<F>
    where
        T: Send,
        F: Fn(usize) -> T + Send + Sync,
    {
        ParRangeMap {
            range: self.range,
            f,
        }
    }

    /// Lazily expands each index into a serial iterator (rayon's
    /// `flat_map_iter`: the produced iterators run serially within one
    /// index, indices run in parallel).
    pub fn flat_map_iter<I, F>(self, f: F) -> ParRangeFlatMap<F>
    where
        I: IntoIterator,
        F: Fn(usize) -> I + Send + Sync,
    {
        ParRangeFlatMap {
            range: self.range,
            f,
        }
    }
}

/// Splits `range` into at most `nt` contiguous sub-ranges.
fn split_range(range: Range<usize>, nt: usize) -> Vec<Range<usize>> {
    let len = range.end.saturating_sub(range.start);
    if len == 0 {
        return Vec::new();
    }
    let block = len.div_ceil(nt);
    let mut out = Vec::new();
    let mut s = range.start;
    while s < range.end {
        let e = (s + block).min(range.end);
        out.push(s..e);
        s = e;
    }
    out
}

/// Runs one `Vec`-producing job per sub-range and concatenates in order.
fn run_blocks<T, F>(range: Range<usize>, per_block: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> Vec<T> + Send + Sync,
{
    let nt = n_threads();
    let len = range.end.saturating_sub(range.start);
    if nt <= 1 || len <= 1 {
        return per_block(range);
    }
    let blocks = split_range(range, nt);
    let mut slots: Vec<Option<Vec<T>>> = Vec::new();
    slots.resize_with(blocks.len(), || None);
    std::thread::scope(|scope| {
        let per_block = &per_block;
        for (slot, block) in slots.iter_mut().zip(blocks) {
            scope.spawn(move || {
                *slot = Some(per_block(block));
            });
        }
    });
    let mut out = Vec::with_capacity(len);
    for slot in slots {
        out.extend(slot.expect("worker did not run"));
    }
    out
}

/// Mapped parallel range.
pub struct ParRangeMap<F> {
    range: Range<usize>,
    f: F,
}

impl<F> ParRangeMap<F> {
    /// Executes the map and collects results in index order.
    pub fn collect<T, C>(self) -> C
    where
        T: Send,
        F: Fn(usize) -> T + Send + Sync,
        C: From<Vec<T>>,
    {
        let f = self.f;
        C::from(run_blocks(self.range, |block| block.map(&f).collect()))
    }
}

/// Flat-mapped parallel range.
pub struct ParRangeFlatMap<F> {
    range: Range<usize>,
    f: F,
}

impl<F> ParRangeFlatMap<F> {
    /// Executes the expansion and collects results in index order.
    pub fn collect<T, I, C>(self) -> C
    where
        T: Send,
        I: IntoIterator<Item = T>,
        F: Fn(usize) -> I + Send + Sync,
        C: From<Vec<T>>,
    {
        let f = self.f;
        C::from(run_blocks(self.range, |block| block.flat_map(&f).collect()))
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn par_map_preserves_order() {
        let out: Vec<usize> = (0..10_000).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(out, (0..10_000).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_flat_map_iter_preserves_order() {
        let out: Vec<usize> = (0..1_000)
            .into_par_iter()
            .flat_map_iter(|i| (0..i % 3).map(move |k| i * 10 + k))
            .collect();
        let expect: Vec<usize> = (0..1_000)
            .flat_map(|i| (0..i % 3).map(move |k| i * 10 + k))
            .collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn par_chunks_mut_touches_every_chunk_once() {
        let mut v = vec![0u32; 1003];
        v.par_chunks_mut(10).enumerate().for_each(|(i, chunk)| {
            for x in chunk.iter_mut() {
                *x += i as u32 + 1;
            }
        });
        let mut expect = vec![0u32; 1003];
        for (i, chunk) in expect.chunks_mut(10).enumerate() {
            for x in chunk.iter_mut() {
                *x += i as u32 + 1;
            }
        }
        assert_eq!(v, expect);
    }

    #[test]
    fn empty_range_collects_empty() {
        let out: Vec<usize> = (5..5).into_par_iter().map(|i| i).collect();
        assert!(out.is_empty());
    }
}
