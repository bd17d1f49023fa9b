//! Parameter schedules for `BoundedArbIndependentSet` (Algorithm 1).
//!
//! The paper fixes three parameters as functions of the arboricity `α` and
//! the maximum degree `Δ`:
//!
//! * the number of scales `Θ = ⌊log(Δ / (1176·16·α¹⁰·ln²Δ))⌋`,
//! * the iterations per scale
//!   `Λ = ⌈p·8α²(32α⁶+1)·ln(260·α⁴·ln²Δ)⌉` (`p` a large-enough constant),
//! * the per-scale competitiveness cutoff `ρ_k = 8 lnΔ · Δ/2^{k+1}`.
//!
//! [`ParamMode::Faithful`] implements these formulas verbatim. They are
//! astronomically conservative — for `α = 2`, `Λ ≈ 7·10⁴·p` iterations
//! *per scale* — which is fine for a proof but means a faithful run only
//! terminates on inputs whose `Θ` is zero or tiny. [`ParamMode::Practical`]
//! keeps the *functional shape* (geometric degree scales, `α²·log log Δ`
//! iterations, the same `ρ_k`) while dropping the proof-slack constants,
//! so shape-level claims (invariant decay, shattering, who-wins
//! comparisons) are measurable. Every experiment records which mode it
//! ran; see DESIGN.md §3.

use serde::{Deserialize, Serialize};

/// Which constant regime to instantiate the schedule with.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum ParamMode {
    /// The paper's formulas verbatim, with the proof constant `p`.
    Faithful {
        /// The "large enough constant" `p` in `Λ` (the paper leaves it
        /// unnamed; 1 is already enormous).
        p: u32,
    },
    /// Same shapes, proof-slack constants dropped.
    Practical {
        /// Multiplier on the practical `Λ` (1.0 = default).
        lambda_scale: f64,
    },
}

impl Default for ParamMode {
    fn default() -> Self {
        ParamMode::Practical { lambda_scale: 1.0 }
    }
}

/// The fully-instantiated schedule for one run.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ArbParams {
    /// Arboricity bound `α ≥ 1` supplied by the caller.
    pub alpha: usize,
    /// Maximum degree `Δ` of the input graph.
    pub delta: usize,
    /// Number of scales `Θ` (0 means step 2 is skipped entirely).
    pub theta: u32,
    /// Iterations per scale `Λ`.
    pub lambda: u64,
    /// The mode the schedule was derived under.
    pub mode: ParamMode,
}

impl ArbParams {
    /// Derives the schedule for a graph with maximum degree `delta` and
    /// arboricity bound `alpha`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha == 0`.
    pub fn new(alpha: usize, delta: usize, mode: ParamMode) -> Self {
        assert!(alpha >= 1, "arboricity bound must be >= 1");
        let a = alpha as f64;
        let d = delta.max(2) as f64;
        let ln_d = d.ln();
        let (theta, lambda) = match mode {
            ParamMode::Faithful { p } => {
                let denom = 1176.0 * 16.0 * a.powi(10) * ln_d * ln_d;
                let theta = (d / denom).log2().floor().max(0.0) as u32;
                let lambda = (f64::from(p)
                    * 8.0
                    * a.powi(2)
                    * (32.0 * a.powi(6) + 1.0)
                    * (260.0 * a.powi(4) * ln_d * ln_d).ln())
                .ceil() as u64;
                (theta, lambda.max(1))
            }
            ParamMode::Practical { lambda_scale } => {
                // Keep scales until the bad threshold Δ/2^{k+2} reaches 1.
                let theta = if delta >= 4 {
                    ((d).log2().floor() as u32).saturating_sub(2).max(1)
                } else {
                    0
                };
                let lambda = (lambda_scale
                    * 8.0
                    * a.powi(2)
                    * (260.0 * a.powi(4) * ln_d * ln_d).ln().max(1.0))
                .ceil() as u64;
                (theta, lambda.max(1))
            }
        };
        ArbParams {
            alpha,
            delta,
            theta,
            lambda,
            mode,
        }
    }

    /// The competitiveness cutoff `ρ_k = 8 lnΔ · Δ/2^{k+1}` for scale
    /// `k ∈ 1..=Θ`. Nodes with active degree above this set priority 0.
    pub fn rho(&self, k: u32) -> f64 {
        let d = self.delta.max(2) as f64;
        8.0 * d.ln() * d / 2f64.powi(k as i32 + 1)
    }

    /// The scale-k high-degree threshold `Δ/2^k + α`: nodes with active
    /// degree above this count as "high degree" in the Invariant.
    pub fn high_degree_threshold(&self, k: u32) -> f64 {
        self.delta as f64 / 2f64.powi(k as i32) + self.alpha as f64
    }

    /// The scale-k bad threshold `Δ/2^{k+2}`: a node with more
    /// high-degree neighbors than this at scale end is marked bad.
    pub fn bad_threshold(&self, k: u32) -> f64 {
        self.delta as f64 / 2f64.powi(k as i32 + 2)
    }

    /// Total inner iterations `Θ·Λ`.
    pub fn total_iterations(&self) -> u64 {
        u64::from(self.theta) * self.lambda
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faithful_lambda_matches_formula() {
        let p = ArbParams::new(2, 1 << 20, ParamMode::Faithful { p: 1 });
        let a = 2f64;
        let ln_d = ((1u64 << 20) as f64).ln();
        let expect = (8.0
            * a
            * a
            * (32.0 * a.powi(6) + 1.0)
            * (260.0 * a.powi(4) * ln_d * ln_d).ln())
        .ceil() as u64;
        assert_eq!(p.lambda, expect);
        assert!(p.lambda > 50_000, "faithful Λ is enormous by design");
    }

    #[test]
    fn faithful_theta_zero_for_small_delta() {
        // Δ = 100 with α = 2: denominator dwarfs Δ, so Θ = 0.
        let p = ArbParams::new(2, 100, ParamMode::Faithful { p: 1 });
        assert_eq!(p.theta, 0);
        assert_eq!(p.total_iterations(), 0);
        // Just below the crossover, Δ/denominator < 2: α = 1 crosses at
        // Δ ≈ 9.75·10⁶, α = 2 at Δ ≈ 2.18·10¹⁰.
        for (alpha, delta) in [(1, 9_000_000), (2, 20_000_000_000)] {
            let p = ArbParams::new(alpha, delta, ParamMode::Faithful { p: 1 });
            assert_eq!(p.theta, 0, "alpha {alpha}, delta {delta}");
        }
    }

    #[test]
    fn faithful_theta_positive_for_huge_delta() {
        // α = 1: denominator = 1176·16·ln²Δ; Δ = 2^40 clears it.
        let p = ArbParams::new(1, 1 << 40, ParamMode::Faithful { p: 1 });
        assert!(p.theta >= 1, "theta {}", p.theta);
        // Just past the α = 1 crossover.
        let p = ArbParams::new(1, 10_000_000, ParamMode::Faithful { p: 1 });
        assert_eq!(p.theta, 1);
    }

    #[test]
    fn practical_theta_tracks_log_delta() {
        let p8 = ArbParams::new(2, 256, ParamMode::default());
        assert_eq!(p8.theta, 6); // log2(256) − 2
        let p4 = ArbParams::new(2, 16, ParamMode::default());
        assert_eq!(p4.theta, 2);
        let tiny = ArbParams::new(2, 3, ParamMode::default());
        assert_eq!(tiny.theta, 0);
    }

    #[test]
    fn practical_lambda_scales_with_alpha_squared() {
        let l1 = ArbParams::new(1, 1024, ParamMode::default()).lambda;
        let l3 = ArbParams::new(3, 1024, ParamMode::default()).lambda;
        // α² factor: ratio should be roughly 9 (log factor shifts slightly).
        let ratio = l3 as f64 / l1 as f64;
        assert!((7.0..14.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn rho_halves_per_scale() {
        let p = ArbParams::new(2, 1024, ParamMode::default());
        let r1 = p.rho(1);
        let r2 = p.rho(2);
        assert!((r1 / r2 - 2.0).abs() < 1e-9);
        // ρ_1 = 8 lnΔ · Δ/4.
        let expect = 8.0 * (1024f64).ln() * 1024.0 / 4.0;
        assert!((r1 - expect).abs() < 1e-6);
    }

    #[test]
    fn thresholds_consistent() {
        let p = ArbParams::new(3, 512, ParamMode::default());
        for k in 1..=p.theta {
            assert!(p.high_degree_threshold(k) > p.bad_threshold(k));
            assert!(p.bad_threshold(k) >= p.bad_threshold(k + 1));
        }
        // hd threshold at scale k is Δ/2^k + α.
        assert!((p.high_degree_threshold(1) - (256.0 + 3.0)).abs() < 1e-9);
        assert!((p.bad_threshold(1) - 64.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn zero_alpha_rejected() {
        let _ = ArbParams::new(0, 10, ParamMode::default());
    }

    #[test]
    fn lambda_scale_multiplier() {
        let base = ArbParams::new(2, 256, ParamMode::Practical { lambda_scale: 1.0 }).lambda;
        let double = ArbParams::new(2, 256, ParamMode::Practical { lambda_scale: 2.0 }).lambda;
        assert!(double >= 2 * base - 2);
    }
}
