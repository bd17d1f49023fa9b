//! Seed-parallel Monte-Carlo estimation with Wilson confidence intervals.
//!
//! Thread counts route through [`arbmis_congest::Parallelism`]: the
//! plain entry points follow the process-wide default
//! (`set_default_parallelism`), and the `*_with_threads` variants take an
//! explicit policy. Estimates are trial-index-counter based and therefore
//! identical at every thread count.

use arbmis_congest::Parallelism;
use serde::{Deserialize, Serialize};

/// Hard cap on Monte-Carlo worker threads (diminishing returns beyond).
const MAX_MC_THREADS: usize = 16;

/// A binomial estimate: `successes` out of `trials`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Estimate {
    /// Number of trials performed.
    pub trials: u64,
    /// Number of successful trials.
    pub successes: u64,
}

impl Estimate {
    /// Point estimate `successes / trials` (0.0 when `trials == 0`).
    pub fn p_hat(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.successes as f64 / self.trials as f64
        }
    }

    /// Wilson score interval at `z` standard deviations (use `z = 1.96`
    /// for 95%). Returns `(lo, hi) ⊆ [0, 1]`.
    pub fn wilson_ci(&self, z: f64) -> (f64, f64) {
        if self.trials == 0 {
            return (0.0, 1.0);
        }
        let n = self.trials as f64;
        let p = self.p_hat();
        let z2 = z * z;
        let denom = 1.0 + z2 / n;
        let center = (p + z2 / (2.0 * n)) / denom;
        let half = (z / denom) * ((p * (1.0 - p) / n) + z2 / (4.0 * n * n)).sqrt();
        ((center - half).max(0.0), (center + half).min(1.0))
    }

    /// Merges two independent estimates.
    pub fn merge(self, other: Estimate) -> Estimate {
        Estimate {
            trials: self.trials + other.trials,
            successes: self.successes + other.successes,
        }
    }

    /// Whether `p` lies within the Wilson interval at `z`.
    pub fn consistent_with(&self, p: f64, z: f64) -> bool {
        let (lo, hi) = self.wilson_ci(z);
        (lo..=hi).contains(&p)
    }
}

/// Runs `trials` evaluations of `event(trial_index)` in parallel across
/// threads (the shared work-stealing executor,
/// [`arbmis_congest::execute_indexed`]), returning the pooled [`Estimate`].
///
/// The event closure receives the global trial index, so implementations
/// should derive randomness from it counter-style (see
/// [`arbmis_congest::rng::draw`]) to stay reproducible regardless of the
/// thread schedule.
pub fn estimate<F>(trials: u64, event: F) -> Estimate
where
    F: Fn(u64) -> bool + Sync,
{
    estimate_with_threads(trials, arbmis_congest::default_parallelism(), event)
}

/// [`estimate`] with an explicit thread-count policy. The result is
/// identical at every setting; only wall-clock changes.
pub fn estimate_with_threads<F>(trials: u64, parallelism: Parallelism, event: F) -> Estimate
where
    F: Fn(u64) -> bool + Sync,
{
    record_batch(trials);
    let threads = mc_threads(trials, parallelism);
    if trials < 256 || threads == 1 {
        let successes = (0..trials).filter(|&t| event(t)).count() as u64;
        return Estimate { trials, successes };
    }
    // One item per worker-sized trial range on the shared work-stealing
    // executor; per-range counts are summed in range order (u64 sums are
    // order-invariant anyway).
    let chunk = trials.div_ceil(threads as u64);
    let ranges = trials.div_ceil(chunk) as usize;
    let counts = arbmis_congest::execute_indexed(ranges, parallelism, |_w, r| {
        let lo = r as u64 * chunk;
        let hi = (lo + chunk).min(trials);
        (lo..hi).filter(|&t| event(t)).count() as u64
    });
    Estimate {
        trials,
        successes: counts.iter().sum(),
    }
}

/// Runs `trials` evaluations of a real-valued statistic in parallel and
/// returns `(mean, sample standard deviation)`.
pub fn estimate_mean<F>(trials: u64, stat: F) -> (f64, f64)
where
    F: Fn(u64) -> f64 + Sync,
{
    estimate_mean_with_threads(trials, arbmis_congest::default_parallelism(), stat)
}

/// [`estimate_mean`] with an explicit thread-count policy. The result is
/// identical at every setting; only wall-clock changes.
pub fn estimate_mean_with_threads<F>(trials: u64, parallelism: Parallelism, stat: F) -> (f64, f64)
where
    F: Fn(u64) -> f64 + Sync,
{
    assert!(trials > 0, "need at least one trial");
    record_batch(trials);
    let threads = mc_threads(trials, parallelism);
    let chunk = trials.div_ceil(threads as u64);
    let results = collect_parallel(trials, threads as u64, chunk, &stat);
    let n = trials as f64;
    let mean = results.iter().sum::<f64>() / n;
    let var = if trials > 1 {
        results.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0)
    } else {
        0.0
    };
    (mean, var.sqrt())
}

/// Trial-batch progress for the process-wide recorder: one point event
/// per batch plus a running trial counter and a batch-size histogram.
fn record_batch(trials: u64) {
    let rec = arbmis_obs::global();
    if rec.enabled() {
        rec.add("readk_mc_trials", trials);
        rec.point("readk_mc_batch", trials);
        rec.observe("readk_mc_batch_trials", trials);
    }
}

/// Resolves a [`Parallelism`] policy to a Monte-Carlo worker count.
fn mc_threads(trials: u64, parallelism: Parallelism) -> usize {
    let cap = usize::try_from(trials).unwrap_or(usize::MAX).max(1);
    parallelism.effective_threads(cap).min(MAX_MC_THREADS)
}

fn collect_parallel<F>(trials: u64, threads: u64, chunk: u64, stat: &F) -> Vec<f64>
where
    F: Fn(u64) -> f64 + Sync,
{
    if trials < 256 || threads == 1 {
        return (0..trials).map(stat).collect();
    }
    // Per-range slabs computed on the shared work-stealing executor and
    // concatenated in range order: the flattened vector is identical to
    // the serial `(0..trials).map(stat)` sequence.
    let ranges = trials.div_ceil(chunk) as usize;
    let slabs = arbmis_congest::execute_indexed(
        ranges,
        arbmis_congest::Parallelism::Threads(threads as usize),
        |_w, r| {
            let lo = r as u64 * chunk;
            let hi = (lo + chunk).min(trials);
            (lo..hi).map(stat).collect::<Vec<f64>>()
        },
    );
    slabs.concat()
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbmis_congest::rng;

    #[test]
    fn p_hat_and_merge() {
        let a = Estimate {
            trials: 10,
            successes: 4,
        };
        let b = Estimate {
            trials: 30,
            successes: 6,
        };
        assert!((a.p_hat() - 0.4).abs() < 1e-12);
        let m = a.merge(b);
        assert_eq!(m.trials, 40);
        assert!((m.p_hat() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn wilson_interval_contains_p_hat() {
        let e = Estimate {
            trials: 500,
            successes: 100,
        };
        let (lo, hi) = e.wilson_ci(1.96);
        assert!(lo < e.p_hat() && e.p_hat() < hi);
        assert!(lo > 0.15 && hi < 0.25);
        assert!(e.consistent_with(0.2, 1.96));
        assert!(!e.consistent_with(0.5, 1.96));
    }

    #[test]
    fn wilson_degenerate_cases() {
        let empty = Estimate::default();
        assert_eq!(empty.wilson_ci(1.96), (0.0, 1.0));
        let all = Estimate {
            trials: 100,
            successes: 100,
        };
        let (lo, hi) = all.wilson_ci(1.96);
        assert!(lo > 0.9);
        assert!((hi - 1.0).abs() < 1e-12);
    }

    #[test]
    fn estimate_fair_coin() {
        let e = estimate(20_000, |t| rng::draw(3, 0, t, 0).is_multiple_of(2));
        assert!(e.consistent_with(0.5, 4.0), "p_hat {}", e.p_hat());
        assert_eq!(e.trials, 20_000);
    }

    #[test]
    fn estimate_deterministic_across_schedules() {
        let f = |t: u64| rng::draw(7, 1, t, 0).is_multiple_of(10);
        let a = estimate(5_000, f);
        let b = estimate(5_000, f);
        assert_eq!(a, b);
    }

    #[test]
    fn estimate_identical_at_every_thread_count() {
        let f = |t: u64| rng::draw(5, 2, t, 0).is_multiple_of(7);
        let baseline = estimate_with_threads(4_096, Parallelism::Serial, f);
        for threads in [1, 2, 4, 8] {
            let e = estimate_with_threads(4_096, Parallelism::Threads(threads), f);
            assert_eq!(e, baseline, "threads={threads}");
        }
        let auto = estimate_with_threads(4_096, Parallelism::Auto, f);
        assert_eq!(auto, baseline);
    }

    #[test]
    fn estimate_mean_identical_at_every_thread_count() {
        let f = |t: u64| rng::draw_unit(13, 0, t, 0);
        let (mean0, sd0) = estimate_mean_with_threads(2_048, Parallelism::Serial, f);
        for threads in [2, 4, 8] {
            let (mean, sd) = estimate_mean_with_threads(2_048, Parallelism::Threads(threads), f);
            assert_eq!(mean.to_bits(), mean0.to_bits(), "threads={threads}");
            assert_eq!(sd.to_bits(), sd0.to_bits(), "threads={threads}");
        }
    }

    #[test]
    fn estimate_small_trial_counts() {
        let e = estimate(10, |t| t < 3);
        assert_eq!(e.successes, 3);
    }

    #[test]
    fn mean_of_uniform() {
        let (mean, sd) = estimate_mean(20_000, |t| rng::draw_unit(11, 0, t, 0));
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
        assert!((sd - (1.0f64 / 12.0).sqrt()).abs() < 0.02, "sd {sd}");
    }

    #[test]
    #[should_panic]
    fn mean_rejects_zero_trials() {
        let _ = estimate_mean(0, |_| 0.0);
    }
}
