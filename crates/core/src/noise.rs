//! Traffic-noise injection for Seculator+ (paper §1 contribution 6 /
//! §7.5): interspersing the execution with dummy memory traffic so an
//! address-bus observer cannot cleanly measure per-layer volumes.
//!
//! Unlike [`crate::widening`] (which pads the *data*), noise injection
//! pads the *trace*: with probability proportional to `ratio`, extra
//! dummy tile transfers are added to the observable stream. The defender
//! pays bandwidth; the attacker's volume estimates inflate and blur.

use crate::mea::LayerObservation;
use seculator_arch::trace::LayerSchedule;

/// Noise configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseConfig {
    /// Dummy bytes added per real byte, on average (0.0 = off).
    pub ratio: f64,
    /// Deterministic seed for the injection pattern (the real hardware
    /// would use its RNG; determinism keeps simulations reproducible).
    pub seed: u64,
}

impl NoiseConfig {
    /// No noise.
    #[must_use]
    pub fn off() -> Self {
        Self {
            ratio: 0.0,
            seed: 0,
        }
    }
}

/// What the bus observer sees for one layer once noise is injected, and
/// what it cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoisyObservation {
    /// The observation including dummy traffic.
    pub observed: LayerObservation,
    /// Dummy bytes added (the defender's bandwidth cost).
    pub dummy_bytes: u64,
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Injects dummy traffic into a layer's observable trace: every real
/// tile transfer has a chance (scaled by `ratio`) of being shadowed by a
/// dummy transfer of the same size to a decoy region, and the dummy
/// writes land in the same "final-write-looking" class the attacker keys
/// on.
///
/// # Examples
///
/// ```
/// use seculator_core::noise::{observe_with_noise, NoiseConfig};
/// use seculator_core::TimingNpu;
/// use seculator_models::zoo::tiny_cnn;
///
/// let schedules = TimingNpu::default().map(&tiny_cnn())?;
/// let noisy = observe_with_noise(&schedules[0], &NoiseConfig { ratio: 1.0, seed: 1 });
/// assert!(noisy.dummy_bytes > 0, "the observer sees inflated volumes");
/// # Ok::<(), seculator_arch::mapper::MapperError>(())
/// ```
#[must_use]
pub fn observe_with_noise(schedule: &LayerSchedule, cfg: &NoiseConfig) -> NoisyObservation {
    use seculator_arch::trace::{AccessOp, TensorClass};
    let mut state = cfg.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    let threshold = (cfg.ratio.clamp(0.0, 4.0) * 1024.0) as u64;
    let mut obs = LayerObservation::default();
    let mut dummy = 0u64;
    schedule.for_each_step(|step| {
        for a in &step.accesses {
            obs.bursts += 1;
            let inject = (xorshift(&mut state) % 4096) < threshold;
            match (a.tensor, a.op) {
                (TensorClass::Ifmap, AccessOp::Read) => {
                    obs.ifmap_read_bytes += a.bytes;
                    if inject {
                        obs.ifmap_read_bytes += a.bytes;
                        dummy += a.bytes;
                    }
                }
                (TensorClass::Weight, AccessOp::Read) => {
                    obs.weight_read_bytes += a.bytes;
                    if inject {
                        obs.weight_read_bytes += a.bytes;
                        dummy += a.bytes;
                    }
                }
                (TensorClass::Ofmap, AccessOp::Write) => {
                    obs.total_write_bytes += a.bytes;
                    if a.last_write {
                        obs.final_write_bytes += a.bytes;
                    }
                    if inject {
                        obs.total_write_bytes += a.bytes;
                        // Dummy writes are indistinguishable from final
                        // writes to the observer.
                        obs.final_write_bytes += a.bytes;
                        dummy += a.bytes;
                    }
                }
                (TensorClass::Ofmap, AccessOp::Read) => {}
                _ => {}
            }
        }
    });
    NoisyObservation {
        observed: obs,
        dummy_bytes: dummy,
    }
}

/// Observes a whole network with noise.
#[must_use]
pub fn observe_network_with_noise(
    schedules: &[LayerSchedule],
    cfg: &NoiseConfig,
) -> Vec<NoisyObservation> {
    schedules
        .iter()
        .enumerate()
        .map(|(i, s)| {
            observe_with_noise(
                s,
                &NoiseConfig {
                    seed: cfg.seed.wrapping_add(i as u64),
                    ..*cfg
                },
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mea::{extraction_error, infer_layer_dims, AddressTraceObserver};
    use seculator_arch::mapper::{map_network, MapperConfig};
    use seculator_models::zoo::tiny_cnn;

    fn schedules() -> Vec<LayerSchedule> {
        map_network(&tiny_cnn().layers, &MapperConfig::default()).expect("maps")
    }

    #[test]
    fn zero_ratio_is_transparent() {
        for s in schedules() {
            let noisy = observe_with_noise(&s, &NoiseConfig::off());
            let clean = AddressTraceObserver::observe(&s);
            assert_eq!(noisy.observed, clean);
            assert_eq!(noisy.dummy_bytes, 0);
        }
    }

    #[test]
    fn noise_inflates_attacker_estimates() {
        let net = tiny_cnn();
        let schedules = schedules();
        let real: Vec<u64> = net.layers.iter().map(|l| l.ofmap_bytes() / 4).collect();
        let cfg = NoiseConfig {
            ratio: 1.0,
            seed: 7,
        };
        let noisy: Vec<_> = observe_network_with_noise(&schedules, &cfg)
            .into_iter()
            .map(|n| n.observed)
            .collect();
        let err_clean = extraction_error(
            &infer_layer_dims(&AddressTraceObserver::observe_network(&schedules)),
            &real,
        );
        let err_noisy = extraction_error(&infer_layer_dims(&noisy), &real);
        assert!(
            err_noisy > err_clean + 0.2,
            "noise must blur extraction: {err_noisy}"
        );
    }

    #[test]
    fn defender_cost_scales_with_ratio() {
        // Sum over the whole network so the law of large numbers applies.
        let schedules = schedules();
        let cost = |ratio: f64| -> u64 {
            observe_network_with_noise(&schedules, &NoiseConfig { ratio, seed: 3 })
                .iter()
                .map(|n| n.dummy_bytes)
                .sum()
        };
        let low = cost(0.25);
        let high = cost(1.0);
        assert!(
            high > 2 * low,
            "4x the injection probability: {high} vs {low}"
        );
        assert!(low > 0);
    }

    #[test]
    fn injection_is_deterministic_per_seed() {
        let s = &schedules()[0];
        let cfg = NoiseConfig {
            ratio: 0.5,
            seed: 9,
        };
        assert_eq!(observe_with_noise(s, &cfg), observe_with_noise(s, &cfg));
        let other = observe_with_noise(
            s,
            &NoiseConfig {
                ratio: 0.5,
                seed: 10,
            },
        );
        assert_ne!(observe_with_noise(s, &cfg).dummy_bytes, other.dummy_bytes);
    }
}
