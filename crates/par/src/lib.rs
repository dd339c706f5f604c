//! Deterministic fork-join parallelism for sweep workloads, with no
//! dependencies beyond `std`.
//!
//! The exploration and measurement layers all share one shape of work: a
//! corpus of independent items (topologies, walkers, environment shards)
//! each needing the same pure function applied, with the results
//! combined afterwards. [`par_map`] runs that shape across threads using
//! a scoped work-stealing scheme over [`std::thread::scope`]: every
//! worker repeatedly steals the next unclaimed item from a shared
//! queue-head counter, so load balances itself even when item costs are
//! wildly uneven (a deep random netlist next to a two-node chain), and
//! no worker ever idles while work remains.
//!
//! # Determinism contract
//!
//! `par_map(items, f)` returns exactly `items.iter().map(f).collect()`
//! — results land in input order, and as long as `f` is a pure function
//! of its arguments the output is **byte-identical for every worker
//! count**, including `LIP_JOBS=1`. Scheduling only decides *which
//! thread* computes an item, never *what* is computed or *where* the
//! result goes. The test suite pins this by comparing serial and
//! 8-worker runs bit for bit (including emitted report JSON).
//!
//! Worker count: explicit via the `*_jobs` variants, or ambient via
//! [`jobs`] — the `LIP_JOBS` environment variable when set (and
//! non-zero), otherwise [`std::thread::available_parallelism`].
//!
//! Panics in `f` are propagated to the caller with the original payload
//! after all workers have unwound (the scope joins them), so a failing
//! sweep item fails the sweep loudly instead of being dropped.
//!
//! # Observability
//!
//! When an ambient [`lip_obs::FlightRecorder`] is installed
//! ([`lip_obs::flight::install`]), every spawned worker records a
//! `par`-category `worker` span covering its whole steal loop and each
//! executed item bumps the `par.items` counter — so a sweep's runtime
//! report shows how wall-clock spread across workers. With no recorder
//! installed the cost is one relaxed atomic load per worker plus one
//! per item.

#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};

/// Ambient worker count: `LIP_JOBS` when set to a positive integer,
/// otherwise [`std::thread::available_parallelism`] (1 when even that
/// is unknown).
#[must_use]
pub fn jobs() -> usize {
    match std::env::var("LIP_JOBS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => default_jobs(),
        },
        Err(_) => default_jobs(),
    }
}

fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// [`par_map`] with an explicit worker count (used by the determinism
/// suite; sweeps normally take the ambient [`jobs`]).
pub fn par_map_jobs<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_indexed_jobs(workers, items, |_, t| f(t))
}

/// Apply `f` to every item of `items` across the ambient [`jobs`]
/// worker count, returning results in input order (see the
/// [module docs](self) for the determinism contract).
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_jobs(jobs(), items, f)
}

/// [`par_map`] whose function also receives the item index — the hook
/// for deterministic per-item seeding (walker `i` derives its RNG from
/// `i`, never from claim order).
pub fn par_map_indexed<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_indexed_jobs(jobs(), items, f)
}

/// [`par_map_indexed`] with an explicit worker count.
///
/// # Panics
///
/// Re-raises the first worker panic (after every worker has unwound).
pub fn par_map_indexed_jobs<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let workers = workers.clamp(1, n.max(1));
    if workers <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let r = f(i, t);
                lip_obs::flight::global_add("par.items", 1);
                r
            })
            .collect();
    }
    // Shared queue head: claiming an index is the steal. Each worker
    // keeps its results tagged with their indices; the scatter below
    // restores input order regardless of which worker computed what.
    let head = AtomicUsize::new(0);
    let f = &f;
    let head = &head;
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(n).collect();
    let worker_results: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    let _worker_span = lip_obs::flight::global_span("par", "worker");
                    let mut out = Vec::new();
                    loop {
                        let i = head.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        out.push((i, f(i, &items[i])));
                        lip_obs::flight::global_add("par.items", 1);
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(v) => v,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    for (i, r) in worker_results.into_iter().flatten() {
        debug_assert!(slots[i].is_none(), "index {i} claimed twice");
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index claimed exactly once"))
        .collect()
}

/// Fold `items` in parallel: map with `f` across workers, then reduce
/// the per-item results **in input order** with `merge` — the shape
/// that keeps merged counters (metrics registries, reports) identical
/// for every worker count.
pub fn par_fold<T, R, F, M>(items: &[T], f: F, init: R, mut merge: M) -> R
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
    M: FnMut(R, R) -> R,
{
    par_map(items, f).into_iter().fold(init, &mut merge)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<u64> = (0..257).collect();
        for workers in [1, 2, 8, 16] {
            let out = par_map_jobs(workers, &items, |&x| x * x);
            let expected: Vec<u64> = items.iter().map(|&x| x * x).collect();
            assert_eq!(out, expected, "workers = {workers}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let none: Vec<u32> = Vec::new();
        assert!(par_map_jobs(8, &none, |&x| x).is_empty());
        assert_eq!(par_map_jobs(8, &[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn indexed_variant_passes_stable_indices() {
        let items = vec!["a", "b", "c", "d"];
        let out = par_map_indexed_jobs(3, &items, |i, s| format!("{i}:{s}"));
        assert_eq!(out, vec!["0:a", "1:b", "2:c", "3:d"]);
    }

    #[test]
    fn uneven_work_is_balanced_and_ordered() {
        // Early items cost far more than late ones; order must hold.
        let items: Vec<u64> = (0..64).collect();
        let out = par_map_jobs(4, &items, |&x| {
            let spin = if x < 4 { 200_000 } else { 10 };
            let mut acc = x;
            for _ in 0..spin {
                acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            }
            std::hint::black_box(acc);
            x
        });
        assert_eq!(out, items);
    }

    #[test]
    fn fold_merges_in_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let concat = par_fold(
            &items,
            |&x| vec![x],
            Vec::new(),
            |mut acc: Vec<u64>, mut r| {
                acc.append(&mut r);
                acc
            },
        );
        assert_eq!(concat, items);
    }

    #[test]
    #[should_panic(expected = "sweep item 13 failed")]
    fn worker_panics_propagate() {
        let items: Vec<u64> = (0..64).collect();
        let _ = par_map_jobs(4, &items, |&x| {
            assert!(x != 13, "sweep item {x} failed");
            x
        });
    }

    #[test]
    fn jobs_is_at_least_one() {
        assert!(jobs() >= 1);
    }
}
