//! Deterministic index-ordered parallel execution.
//!
//! [`execute_indexed`] runs a pure per-item function on a small
//! work-stealing pool and returns the results in item order. Its users
//! are the flat MIS engine's per-round sweeps, the read-k Monte-Carlo
//! driver, and the experiment cell scheduler. Their shared determinism
//! contract: for fixed inputs, results are *bit-identical* at every
//! thread count, because
//!
//! 1. randomness is counter-based ([`crate::rng`]): a draw depends only
//!    on `(seed, node or trial, round, tag)`, never on scheduling;
//! 2. each item's result depends only on its index, and items are
//!    claimed whole;
//! 3. results are assembled and merged in item-index order.
//!
//! Thread count therefore affects wall-clock only, never results. The
//! CONGEST simulator itself is single-threaded.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Thread-count policy for [`execute_indexed`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Parallelism {
    /// Single-threaded: items run inline in index order.
    Serial,
    /// One worker per available hardware thread.
    #[default]
    Auto,
    /// Exactly this many worker threads (0 is treated as 1).
    Threads(usize),
}

impl Parallelism {
    /// Resolves the policy to a concrete worker count for `n` items.
    /// Never returns 0; never exceeds `n`.
    pub fn effective_threads(self, n: usize) -> usize {
        let raw = match self {
            Parallelism::Serial => 1,
            Parallelism::Auto => std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1),
            Parallelism::Threads(t) => t.max(1),
        };
        raw.min(n.max(1))
    }
}

/// Runs `f` over the item indices `0..items` on a work-stealing crossbeam
/// pool sized by `parallelism`, returning the results **in item-index
/// order** regardless of which worker ran what.
///
/// Workers claim the next unclaimed item off a shared atomic counter
/// (whole-item stealing), so load imbalance between items self-corrects,
/// while the result vector is assembled purely by index — scheduling can
/// never leak into output order. `f` receives `(worker_index,
/// item_index)`; it must be a pure function of the item index for the
/// determinism contract to carry over (worker index is for timing-class
/// bookkeeping only).
///
/// With one effective thread (or ≤ 1 item) no pool is spun up and `f`
/// runs inline in index order, with `worker_index = 0`.
pub fn execute_indexed<T, F>(items: usize, parallelism: Parallelism, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, usize) -> T + Sync,
{
    let threads = parallelism.effective_threads(items);
    if threads <= 1 || items <= 1 {
        return (0..items).map(|i| f(0, i)).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = (0..items).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    crossbeam::scope(|scope| {
        for w in 0..threads {
            let (slots, next, f) = (&slots, &next, &f);
            scope.spawn(move |_| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items {
                    break;
                }
                *slots[i].lock() = Some(f(w, i));
            });
        }
    })
    .expect("execute_indexed worker panicked");
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("claimed item left no result"))
        .collect()
}

/// Process-wide default [`Parallelism`], encoded as:
/// 0 = `Auto`, 1 = `Serial`, `t + 1` = `Threads(t)`.
static DEFAULT_PARALLELISM: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-wide default parallelism. The read-k Monte-Carlo
/// driver is its only reader; the experiment scheduler sets it to serial
/// inside cells so the pool is not oversubscribed.
pub fn set_default_parallelism(p: Parallelism) {
    let enc = match p {
        Parallelism::Auto => 0,
        Parallelism::Serial => 1,
        Parallelism::Threads(t) => t.saturating_add(1).max(2),
    };
    DEFAULT_PARALLELISM.store(enc, Ordering::Relaxed);
}

/// The current process-wide default parallelism (initially
/// [`Parallelism::Auto`]).
pub fn default_parallelism() -> Parallelism {
    match DEFAULT_PARALLELISM.load(Ordering::Relaxed) {
        0 => Parallelism::Auto,
        1 => Parallelism::Serial,
        t => Parallelism::Threads(t - 1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_threads_never_zero() {
        assert_eq!(Parallelism::Serial.effective_threads(100), 1);
        assert_eq!(Parallelism::Threads(0).effective_threads(100), 1);
        assert_eq!(Parallelism::Threads(4).effective_threads(100), 4);
        assert_eq!(Parallelism::Threads(64).effective_threads(3), 3);
        assert!(Parallelism::Auto.effective_threads(1_000_000) >= 1);
        assert_eq!(Parallelism::Auto.effective_threads(0), 1);
    }

    #[test]
    fn execute_indexed_preserves_item_order() {
        for threads in [1, 2, 4, 8] {
            let out = execute_indexed(100, Parallelism::Threads(threads), |_w, i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
        assert!(execute_indexed(0, Parallelism::Auto, |_, i| i).is_empty());
        assert_eq!(
            execute_indexed(1, Parallelism::Auto, |w, i| (w, i)),
            [(0, 0)]
        );
    }

    #[test]
    fn execute_indexed_runs_every_item_once() {
        use std::sync::atomic::AtomicU64;
        let calls = AtomicU64::new(0);
        let out = execute_indexed(257, Parallelism::Threads(4), |_w, i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(calls.load(Ordering::Relaxed), 257);
        assert_eq!(out.len(), 257);
    }

    #[test]
    fn parallelism_encoding_roundtrips() {
        for p in [
            Parallelism::Auto,
            Parallelism::Serial,
            Parallelism::Threads(1),
            Parallelism::Threads(8),
        ] {
            set_default_parallelism(p);
            assert_eq!(default_parallelism(), p);
        }
        // Restore the documented initial default for other tests.
        set_default_parallelism(Parallelism::Auto);
    }
}
