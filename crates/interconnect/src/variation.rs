//! Random within-die parameter variation.
//!
//! Process corners ([`crate::corner`]) shift every element together;
//! real dies additionally show *local* mismatch: each segment's R and C
//! lands a few percent off nominal, independently. This module jitters
//! a built [`Bus`] with the workspace's deterministic PRNG
//! ([`sint_runtime::rng::Rng64`], SplitMix64) so Monte-Carlo studies
//! are reproducible from a seed.

use crate::error::InterconnectError;
use crate::params::Bus;

/// The workspace RNG, re-exported at its historical home: the
/// SplitMix64 that started here was promoted to `sint-runtime` so every
/// crate shares one stream-splittable generator.
pub use sint_runtime::rng::Rng64;

/// Backwards-compatible alias for the promoted generator.
pub use sint_runtime::rng::Rng64 as SplitMix64;

/// Relative (1-sigma) mismatch magnitudes per element class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariationSigma {
    /// Segment-resistance sigma (fraction of nominal).
    pub resistance: f64,
    /// Ground-capacitance sigma.
    pub capacitance: f64,
    /// Coupling-capacitance sigma.
    pub coupling: f64,
    /// Driver-resistance sigma.
    pub driver: f64,
}

impl VariationSigma {
    /// A typical mismatch budget: 3 % on wires and grounds, 5 % on
    /// coupling (spacing-sensitive), 4 % on drivers.
    #[must_use]
    pub fn typical() -> VariationSigma {
        VariationSigma { resistance: 0.03, capacitance: 0.03, coupling: 0.05, driver: 0.04 }
    }

    /// Uniformly scaled mismatch budget.
    #[must_use]
    pub fn uniform(sigma: f64) -> VariationSigma {
        VariationSigma { resistance: sigma, capacitance: sigma, coupling: sigma, driver: sigma }
    }
}

/// Applies per-element Gaussian jitter to a built bus; deterministic in
/// `seed`. Samples are clamped to ±3σ so extreme tails cannot produce
/// non-physical (negative) element values.
///
/// # Errors
///
/// [`InterconnectError::BadGeometry`] when a sigma is negative or at
/// least `1/3` (the clamp could then reach zero).
pub fn apply_variation(
    bus: &mut Bus,
    sigma: VariationSigma,
    seed: u64,
) -> Result<(), InterconnectError> {
    for (name, s) in [
        ("resistance", sigma.resistance),
        ("capacitance", sigma.capacitance),
        ("coupling", sigma.coupling),
        ("driver", sigma.driver),
    ] {
        if !(0.0..1.0 / 3.0).contains(&s) {
            return Err(InterconnectError::geometry(format!(
                "{name} sigma must be in [0, 1/3), got {s}"
            )));
        }
    }
    let mut rng = Rng64::new(seed);
    let mut jitter = |sigma: f64| 1.0 + sigma * rng.gen_gaussian().clamp(-3.0, 3.0);
    for wire in bus.r_seg.iter_mut() {
        for r in wire.iter_mut() {
            *r *= jitter(sigma.resistance);
        }
    }
    for wire in bus.cg_node.iter_mut() {
        for c in wire.iter_mut() {
            *c *= jitter(sigma.capacitance);
        }
    }
    for pair in bus.cc_node.iter_mut() {
        for c in pair.iter_mut() {
            *c *= jitter(sigma.coupling);
        }
    }
    for r in bus.driver_r.iter_mut() {
        *r *= jitter(sigma.driver);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::BusParams;

    #[test]
    fn splitmix_is_deterministic_and_spread() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64::new(43);
        assert_ne!(a.next_u64(), c.next_u64());
        // Uniform samples stay in range.
        let mut r = SplitMix64::new(7);
        for _ in 0..1000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn variation_is_seed_deterministic() {
        let mut a = BusParams::dsm_bus(3).build().unwrap();
        let mut b = BusParams::dsm_bus(3).build().unwrap();
        apply_variation(&mut a, VariationSigma::typical(), 99).unwrap();
        apply_variation(&mut b, VariationSigma::typical(), 99).unwrap();
        assert_eq!(a, b);
        let mut c = BusParams::dsm_bus(3).build().unwrap();
        apply_variation(&mut c, VariationSigma::typical(), 100).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn jitter_stays_near_nominal() {
        let nominal = BusParams::dsm_bus(4).build().unwrap();
        let mut varied = nominal.clone();
        apply_variation(&mut varied, VariationSigma::typical(), 5).unwrap();
        for w in 0..4 {
            let r0 = nominal.wire_resistance(w).unwrap();
            let r1 = varied.wire_resistance(w).unwrap();
            assert!((r1 / r0 - 1.0).abs() < 0.1, "wire {w}: {r0} vs {r1}");
            assert!(r1 > 0.0);
        }
    }

    #[test]
    fn zero_sigma_is_identity() {
        let nominal = BusParams::dsm_bus(3).build().unwrap();
        let mut varied = nominal.clone();
        apply_variation(&mut varied, VariationSigma::uniform(0.0), 7).unwrap();
        assert_eq!(nominal, varied);
    }

    #[test]
    fn excessive_sigma_rejected() {
        let mut bus = BusParams::dsm_bus(2).build().unwrap();
        assert!(apply_variation(&mut bus, VariationSigma::uniform(0.4), 0).is_err());
        assert!(apply_variation(&mut bus, VariationSigma::uniform(-0.1), 0).is_err());
    }

    #[test]
    fn varied_bus_still_simulates() {
        use crate::drive::VectorPair;
        use crate::solver::{PanelScratch, TransientSim};
        let mut bus = BusParams::dsm_bus(3).segments(4).build().unwrap();
        apply_variation(&mut bus, VariationSigma::typical(), 21).unwrap();
        let sim = TransientSim::new(&bus, 2e-12).unwrap();
        let pair = VectorPair::from_strs("000", "111").unwrap();
        let waves =
            sim.run_pairs_cancellable(&[pair], 2e-9, &mut PanelScratch::new(), None).unwrap();
        for w in 0..3 {
            let last = *waves.wire(0, w).last().unwrap();
            assert!((last - bus.vdd()).abs() < 0.02, "wire {w} settles: {last}");
        }
    }
}
