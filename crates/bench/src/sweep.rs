//! The parallel fan-out under every experiment row.
//!
//! Paper figures are *grids* — platforms × jobs × algorithms, or
//! scenarios × policies — and every cell is an independent simulation:
//! `Simulator` and `DynPlatform` are `Send + Clone`, so a whole sweep is
//! embarrassingly parallel. [`parallel_map`] fans the cells out over a
//! small thread pool and reassembles the results **in cell order**, so
//! the output (tables, CSV, aggregated JSON) is byte-for-byte identical
//! whatever `--threads` says — parallelism changes wall-clock time,
//! never results. `tests/determinism.rs` holds the property test.
//!
//! ```
//! use stargemm_bench::parallel_map;
//!
//! let squares = parallel_map(4, &[1u64, 2, 3], |_, &n| n * n);
//! assert_eq!(squares, vec![1, 4, 9]);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};

/// Applies `f` to every item on a pool of `threads` workers and returns
/// the results in item order (`f` also receives the item index).
///
/// Work is distributed by an atomic cursor, so threads pick up the next
/// unstarted item as they finish — uneven per-item costs balance out.
/// With `threads <= 1` (or one item) everything runs on the calling
/// thread with no pool at all.
///
/// # Panics
/// Propagates a panic from any worker thread.
pub fn parallel_map<S, R, F>(threads: usize, items: &[S], f: F) -> Vec<R>
where
    S: Sync,
    R: Send,
    F: Fn(usize, &S) -> R + Sync,
{
    let threads = threads.max(1).min(items.len().max(1));
    if threads == 1 {
        return items.iter().enumerate().map(|(i, s)| f(i, s)).collect();
    }

    let cursor = AtomicUsize::new(0);
    let mut indexed: Vec<(usize, R)> = Vec::with_capacity(items.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        local.push((i, f(i, item)));
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            indexed.extend(h.join().expect("sweep worker panicked"));
        }
    });
    indexed.sort_unstable_by_key(|&(i, _)| i);
    debug_assert_eq!(indexed.len(), items.len());
    indexed.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_grid_order() {
        let items: Vec<u64> = (0..100).collect();
        for threads in [1, 2, 7] {
            let out = parallel_map(threads, &items, |i, &n| {
                assert_eq!(i as u64, n);
                n * n
            });
            let expect: Vec<u64> = items.iter().map(|n| n * n).collect();
            assert_eq!(out, expect, "threads = {threads}");
        }
        assert!(parallel_map(8, &[] as &[u32], |_, &x| x).is_empty());
    }

    #[test]
    #[should_panic(expected = "sweep worker panicked")]
    fn worker_panics_propagate() {
        parallel_map(2, &[1, 2, 3, 4], |_, &n: &i32| {
            assert!(n < 3, "boom");
            n
        });
    }
}
