//! Data-parallel mapping helpers.
//!
//! The paper pipeline fans out over *populations* of circuits, not over
//! individual amplitudes, so the only primitive the workspace needs is an
//! order-preserving parallel map. It runs over `std::thread::scope`, so the
//! workspace needs no dependency for it.
//! Results are identical at every thread count: each result lands in its own
//! index's slot, whichever worker computed it.
//!
//! ## Scheduling
//!
//! A `par_map*` call with `workers` threads spawns `workers - 1` of them; the
//! calling thread is the last worker, so its thread-local state (the
//! synthesis instantiation workspace, for one) stays warm across waves.
//! Workers claim items one index at a time from a shared counter instead of
//! owning fixed contiguous chunks: waves mix items that cost nothing (memo
//! hits, duplicates) with full optimizer runs, and a fixed chunk of cheap
//! items would leave its worker idle. With a budget of 1, or a single item,
//! the call is a plain loop on the calling thread and spawns nothing.
//!
//! ## Capping parallelism
//!
//! The default worker count is `std::thread::available_parallelism()` (the
//! full machine). On shared machines — or inside the `qaprox serve` worker
//! pool, where several jobs already run side by side — cap it with either:
//!
//! * the `QAPROX_JOBS` environment variable (`QAPROX_JOBS=2`; the legacy
//!   `QAPROX_THREADS` spelling is still honoured when `QAPROX_JOBS` is
//!   absent), or
//! * [`set_max_threads`] (what the CLI's global `--jobs N` flag calls).
//!
//! Precedence: `--jobs` / [`set_max_threads`] > `QAPROX_JOBS` >
//! `QAPROX_THREADS` > `available_parallelism`. `set_max_threads(0)` restores
//! the env-then-auto default.
//!
//! ## Nested parallelism
//!
//! `par_map*` calls may nest (the synthesis search parallelizes candidate
//! waves, and each candidate's multistart optimizer may parallelize again).
//! To keep the total thread count at the cap instead of multiplying, each
//! worker — the calling thread included, for the duration of the wave —
//! runs under a *budget*: an equal share of the budget the wave was issued
//! with. [`thread_budget`] reports the budget of the calling thread; a nested
//! `par_map*` uses at most that many workers. The top level's budget is
//! [`max_threads`] itself. Budgets are restored by drop guards, so a panic
//! that unwinds out of a wave or a [`with_thread_budget`] scope leaves the
//! caller's budget as it was.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Process-wide thread cap: 0 = no override (env, then auto).
static MAX_THREADS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Per-thread nested-parallelism budget; 0 = top level (use [`max_threads`]).
    static THREAD_BUDGET: Cell<usize> = const { Cell::new(0) };
}

/// Caps the number of worker threads every subsequent `par_map*` call may
/// spawn. `0` removes the cap (falling back to `QAPROX_JOBS`, then
/// `QAPROX_THREADS`, then `available_parallelism`).
pub fn set_max_threads(n: usize) {
    MAX_THREADS.store(n, Ordering::Relaxed);
}

/// The effective worker-thread budget: the [`set_max_threads`] override if
/// set, else `QAPROX_JOBS` / `QAPROX_THREADS` if parseable and nonzero, else
/// `available_parallelism` (minimum 1).
pub fn max_threads() -> usize {
    let forced = MAX_THREADS.load(Ordering::Relaxed);
    if forced != 0 {
        return forced;
    }
    for var in ["QAPROX_JOBS", "QAPROX_THREADS"] {
        if let Ok(raw) = std::env::var(var) {
            if let Ok(n) = raw.trim().parse::<usize>() {
                if n >= 1 {
                    return n;
                }
            }
        }
    }
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// The number of worker threads a `par_map*` call issued from the *current*
/// thread may use: [`max_threads`] at the top level, or the remaining share
/// of that cap inside a worker of an enclosing `par_map*` wave.
/// Layers that would parallelize redundantly (e.g. multistart optimization
/// under an already-saturating search wave) consult this to stay serial.
pub fn thread_budget() -> usize {
    match THREAD_BUDGET.with(Cell::get) {
        0 => max_threads(),
        local => local,
    }
}

/// Sets the calling thread's budget and puts the previous one back when
/// dropped, on return and on unwind alike.
struct BudgetGuard(usize);

impl BudgetGuard {
    fn set(n: usize) -> BudgetGuard {
        BudgetGuard(THREAD_BUDGET.with(|b| b.replace(n.max(1))))
    }
}

impl Drop for BudgetGuard {
    fn drop(&mut self) {
        THREAD_BUDGET.with(|b| b.set(self.0));
    }
}

/// Runs `f` with the calling thread's budget set to `n` (minimum 1),
/// restoring the previous budget afterwards, also when `f` panics. Thread-pool
/// hosts (the serve scheduler's worker loop) wrap each job in this so
/// `workers` concurrent jobs share [`max_threads`] instead of each claiming
/// the whole cap.
pub fn with_thread_budget<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let _guard = BudgetGuard::set(n);
    f()
}

/// Maps `f` over `items`, preserving order.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_indexed(items, |_, item| f(item))
}

/// Maps `f(index, item)` over `items`, preserving order.
pub fn par_map_indexed<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    par_map_range(items.len(), |i| f(i, &items[i]))
}

/// Maps `f` over `0..n` across up to [`thread_budget`] workers (the calling
/// thread among them), preserving order. A panic in any item propagates to
/// the caller once every worker has stopped.
pub fn par_map_range<U, F>(n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let budget = thread_budget();
    let workers = budget.min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    // Each worker runs under an equal share of the budget so nested
    // par_map* calls divide the cap instead of multiplying it.
    let inner_budget = budget / workers;
    // `Relaxed` suffices: the counter publishes no data (the atomic
    // `fetch_add` alone makes every claim unique), and results reach the
    // caller through the thread joins.
    let next = AtomicUsize::new(0);
    let claim = || {
        with_thread_budget(inner_budget, || {
            let mut done = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    return done;
                }
                done.push((i, f(i)));
            }
        })
    };
    let mut out: Vec<Option<U>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..workers).map(|_| scope.spawn(claim)).collect();
        let mut place = |done: Vec<(usize, U)>| {
            for (i, u) in done {
                out[i] = Some(u);
            }
        };
        place(claim());
        for handle in spawned {
            place(
                handle
                    .join()
                    .unwrap_or_else(|p| std::panic::resume_unwind(p)),
            );
        }
    });
    out.into_iter()
        .map(|s| s.expect("workers claimed every index"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<usize> = (0..97).collect();
        let squares = par_map(&items, |&x| x * x);
        for (i, s) in squares.iter().enumerate() {
            assert_eq!(*s, i * i);
        }
    }

    #[test]
    fn par_map_indexed_passes_matching_index() {
        let items = vec!["a", "b", "c"];
        let tagged = par_map_indexed(&items, |i, s| format!("{i}{s}"));
        assert_eq!(tagged, vec!["0a", "1b", "2c"]);
    }

    #[test]
    fn par_map_range_handles_empty_and_single() {
        assert!(par_map_range(0, |i| i).is_empty());
        assert_eq!(par_map_range(1, |i| i + 10), vec![10]);
    }

    #[test]
    fn thread_budget_is_positive_and_capped() {
        assert!(thread_budget() >= 1);
        with_thread_budget(4, || {
            assert_eq!(thread_budget(), 4);
            // inside a wave, each worker sees an equal share of the budget
            assert_eq!(par_map_range(4, |_| thread_budget()), vec![1; 4]);
            assert_eq!(par_map_range(2, |_| thread_budget()), vec![2; 2]);
            // and the calling thread gets its own budget back afterwards
            assert_eq!(thread_budget(), 4);
            with_thread_budget(0, || assert_eq!(thread_budget(), 1));
            assert_eq!(thread_budget(), 4);
        });
    }

    #[test]
    fn max_threads_override_wins_and_resets() {
        // NOTE: MAX_THREADS is process-global; this is the only test in the
        // crate that writes it, and it restores it. Every other test sets
        // its budget with the thread-local `with_thread_budget`.
        set_max_threads(3);
        assert_eq!(max_threads(), 3);
        // results stay correct under a 1-thread cap
        set_max_threads(1);
        let items: Vec<usize> = (0..31).collect();
        let doubled = par_map(&items, |&x| 2 * x);
        assert_eq!(doubled, items.iter().map(|&x| 2 * x).collect::<Vec<_>>());
        set_max_threads(0);
        assert!(max_threads() >= 1);
    }

    /// A cost with a heavy tail: most items are nearly free, a few are
    /// orders of magnitude dearer (like memo hits next to L-BFGS runs).
    fn heavy_tailed_cost(i: usize) -> std::time::Duration {
        let micros = match i % 16 {
            0 => 3000,
            5 | 11 => 400,
            _ => 5,
        };
        std::time::Duration::from_micros(micros)
    }

    #[test]
    fn heavy_tailed_items_come_back_in_order() {
        for budget in [1, 2, 3, 8] {
            let got = with_thread_budget(budget, || {
                par_map_range(48, |i| {
                    std::thread::sleep(heavy_tailed_cost(i));
                    i * 7 + 1
                })
            });
            let want: Vec<usize> = (0..48).map(|i| i * 7 + 1).collect();
            assert_eq!(got, want, "budget {budget}");
        }
    }

    #[test]
    fn concurrent_workers_never_exceed_the_budget() {
        let running = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        // leaf work: counts the items in flight at once
        let leaf = |i: usize| {
            let now = running.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(heavy_tailed_cost(i) / 4);
            running.fetch_sub(1, Ordering::SeqCst);
            i
        };
        for budget in [1, 2, 3, 4, 6] {
            peak.store(0, Ordering::SeqCst);
            with_thread_budget(budget, || {
                // flat wave
                assert_eq!(par_map_range(24, leaf), (0..24).collect::<Vec<_>>());
                // nested waves: only the innermost items do work
                let nested = par_map_range(3, |o| par_map_range(5, |i| leaf(o * 5 + i)));
                assert_eq!(nested.concat(), (0..15).collect::<Vec<_>>());
            });
            let seen = peak.load(Ordering::SeqCst);
            assert!(
                (1..=budget).contains(&seen),
                "{seen} items ran at once under budget {budget}"
            );
        }
    }

    #[test]
    fn panicking_item_propagates_and_restores_the_budget() {
        with_thread_budget(3, || {
            for bad in [0, 7, 15] {
                let caught = std::panic::catch_unwind(|| {
                    par_map_range(16, |i| {
                        assert_ne!(i, bad, "item {bad} failed");
                        i
                    })
                });
                let payload = caught.expect_err("the item's panic reaches the caller");
                let msg = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .unwrap_or_default();
                assert!(msg.contains(&format!("item {bad} failed")), "{msg:?}");
                assert_eq!(thread_budget(), 3);
            }
            // a panic out of a nested budget scope restores the outer one too
            let caught = std::panic::catch_unwind(|| with_thread_budget(7, || panic!("boom")));
            assert!(caught.is_err());
            assert_eq!(thread_budget(), 3);
        });
    }
}
