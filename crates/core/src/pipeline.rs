//! Multi-inference execution: running a stream of inputs through the
//! secure NPU back to back, the deployment mode the paper's motivation
//! (edge serving, autonomous driving) implies.
//!
//! Two effects distinguish steady state from a cold single inference:
//!
//! 1. **Weights stay resident/encrypted once** — provisioning cost
//!    amortizes across the batch.
//! 2. **Per-execution re-keying** (paper §6.3: the key "changes with each
//!    execution") — Seculator re-derives the session key per inference, a
//!    fixed cost the other designs share.
//!
//! The module reports per-inference latency, steady-state throughput, and
//! the amortization curve.

use crate::engine::SchemeKind;
use crate::npu::TimingNpu;
use seculator_models::Network;
use seculator_sim::config::NpuConfig;

/// Cost constants for batch execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// Cycles to re-derive the session key and reset the MAC registers
    /// between inferences.
    pub rekey_cycles: u64,
    /// One-time cycles to provision (encrypt + MAC) the weight image at
    /// model-load time, per byte of weights.
    pub provision_cycles_per_byte: f64,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            rekey_cycles: 2_000,
            provision_cycles_per_byte: 0.5,
        }
    }
}

/// Result of a batched run.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchStats {
    /// Scheme used.
    pub scheme: String,
    /// Inferences executed.
    pub batch: u32,
    /// One-time model provisioning cycles.
    pub provision_cycles: u64,
    /// Cycles for one inference (excluding provisioning and re-keying).
    pub inference_cycles: u64,
    /// Total cycles including provisioning and per-inference re-keying.
    pub total_cycles: u64,
}

impl BatchStats {
    /// Average cycles per inference at this batch size.
    #[must_use]
    pub fn cycles_per_inference(&self) -> f64 {
        self.total_cycles as f64 / f64::from(self.batch.max(1))
    }

    /// Throughput in inferences per second at `freq_ghz`.
    #[must_use]
    pub fn throughput_per_second(&self, freq_ghz: f64) -> f64 {
        freq_ghz * 1e9 / self.cycles_per_inference()
    }
}

/// Runs `batch` inferences of `network` under `scheme`.
///
/// # Examples
///
/// ```
/// use seculator_core::pipeline::{run_batch, PipelineConfig};
/// use seculator_core::{SchemeKind, TimingNpu};
/// use seculator_models::zoo::tiny_cnn;
///
/// let npu = TimingNpu::default();
/// let stats = run_batch(&npu, &tiny_cnn(), SchemeKind::Seculator, 8, &PipelineConfig::default())?;
/// assert!(stats.throughput_per_second(2.75) > 0.0);
/// # Ok::<(), seculator_arch::mapper::MapperError>(())
/// ```
///
/// # Errors
///
/// Propagates mapping failures from the timing NPU.
pub fn run_batch(
    npu: &TimingNpu,
    network: &Network,
    scheme: SchemeKind,
    batch: u32,
    cfg: &PipelineConfig,
) -> Result<BatchStats, seculator_arch::mapper::MapperError> {
    let run = npu.run(network, scheme)?;
    let inference_cycles = run.total_cycles();
    let provision_cycles = if scheme == SchemeKind::Baseline {
        0
    } else {
        (network.weight_bytes() as f64 * cfg.provision_cycles_per_byte) as u64
    };
    let rekey = if scheme == SchemeKind::Baseline {
        0
    } else {
        cfg.rekey_cycles
    };
    let total_cycles = provision_cycles + u64::from(batch) * (inference_cycles + rekey);
    Ok(BatchStats {
        scheme: scheme.name().to_string(),
        batch,
        provision_cycles,
        inference_cycles,
        total_cycles,
    })
}

/// The amortization curve: per-inference cycles at several batch sizes,
/// normalized to the steady-state (infinite-batch) cost.
///
/// # Errors
///
/// Propagates mapping failures.
pub fn amortization_curve(
    npu: &TimingNpu,
    network: &Network,
    scheme: SchemeKind,
    batches: &[u32],
    cfg: &PipelineConfig,
) -> Result<Vec<(u32, f64)>, seculator_arch::mapper::MapperError> {
    let mut out = Vec::with_capacity(batches.len());
    let steady = {
        let one = run_batch(npu, network, scheme, 1, cfg)?;
        (one.inference_cycles
            + if scheme == SchemeKind::Baseline {
                0
            } else {
                cfg.rekey_cycles
            }) as f64
    };
    for &b in batches {
        let stats = run_batch(npu, network, scheme, b, cfg)?;
        out.push((b, stats.cycles_per_inference() / steady));
    }
    Ok(out)
}

/// Convenience constructor matching the paper's machine.
#[must_use]
pub fn paper_npu() -> TimingNpu {
    TimingNpu::new(NpuConfig::paper())
}

/// Batch statistics under an active adversary: each inference attempt is
/// independently attacked with some probability, detection fires after
/// the scheme's detection window, and the NPU reboots and retries
/// ([`RecoveryModel`]).
#[derive(Debug, Clone, PartialEq)]
pub struct HostileBatchStats {
    /// The quiet-conditions stats the hostile run degrades from.
    pub quiet: BatchStats,
    /// Probability that one inference attempt is attacked.
    pub attack_probability: f64,
    /// Expected cycles per inference including detection + reboot +
    /// retry overhead.
    pub expected_cycles_per_inference: f64,
    /// Expected total cycles for the batch.
    pub expected_total_cycles: f64,
}

impl HostileBatchStats {
    /// Throughput degradation factor versus quiet conditions (≥ 1).
    #[must_use]
    pub fn slowdown(&self) -> f64 {
        self.expected_total_cycles / self.quiet.total_cycles as f64
    }
}

/// Runs `batch` inferences while each attempt is attacked independently
/// with probability `attack_probability`, modeling detection latency and
/// detect-and-reboot recovery on top of [`run_batch`]'s amortization.
///
/// # Errors
///
/// Propagates mapping failures from the timing NPU.
///
/// # Panics
///
/// Panics if `attack_probability` is not in `[0, 1)` (a certain attack
/// never completes).
pub fn run_batch_under_attack(
    npu: &TimingNpu,
    network: &Network,
    scheme: SchemeKind,
    batch: u32,
    cfg: &PipelineConfig,
    model: &crate::detection::RecoveryModel,
    attack_probability: f64,
) -> Result<HostileBatchStats, seculator_arch::mapper::MapperError> {
    let quiet = run_batch(npu, network, scheme, batch, cfg)?;
    let run = npu.run(network, scheme)?;
    let window = crate::detection::detection_latency(scheme, &run);
    let rekey = if scheme == SchemeKind::Baseline {
        0
    } else {
        cfg.rekey_cycles
    };
    let per_inference = if scheme == SchemeKind::Baseline {
        // No integrity means no detection and no recovery: the attack
        // silently corrupts the output and costs no extra cycles — the
        // hostile "throughput" is unchanged, the results worthless.
        quiet.inference_cycles as f64
    } else {
        model.expected_completion_cycles(quiet.inference_cycles, window, attack_probability)
    };
    let expected_cycles_per_inference = per_inference + rekey as f64;
    let expected_total_cycles =
        quiet.provision_cycles as f64 + f64::from(batch) * expected_cycles_per_inference;
    Ok(HostileBatchStats {
        quiet,
        attack_probability,
        expected_cycles_per_inference,
        expected_total_cycles,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use seculator_models::zoo::tiny_cnn;

    #[test]
    fn provisioning_amortizes_with_batch_size() {
        let npu = paper_npu();
        let cfg = PipelineConfig::default();
        let net = tiny_cnn();
        let one = run_batch(&npu, &net, SchemeKind::Seculator, 1, &cfg).unwrap();
        let many = run_batch(&npu, &net, SchemeKind::Seculator, 64, &cfg).unwrap();
        assert!(many.cycles_per_inference() < one.cycles_per_inference());
        assert_eq!(
            one.provision_cycles, many.provision_cycles,
            "provisioning is one-time"
        );
    }

    #[test]
    fn baseline_has_no_security_fixed_costs() {
        let npu = paper_npu();
        let cfg = PipelineConfig::default();
        let b = run_batch(&npu, &tiny_cnn(), SchemeKind::Baseline, 8, &cfg).unwrap();
        assert_eq!(b.provision_cycles, 0);
        assert_eq!(b.total_cycles, 8 * b.inference_cycles);
    }

    #[test]
    fn amortization_curve_approaches_one() {
        let npu = paper_npu();
        let cfg = PipelineConfig::default();
        let curve = amortization_curve(
            &npu,
            &tiny_cnn(),
            SchemeKind::Seculator,
            &[1, 4, 16, 256],
            &cfg,
        )
        .unwrap();
        assert!(
            curve[0].1 > curve[3].1,
            "per-inference cost must fall with batch"
        );
        assert!(
            (curve[3].1 - 1.0).abs() < 0.05,
            "large batches approach steady state"
        );
        for w in curve.windows(2) {
            assert!(w[0].1 >= w[1].1, "curve must be monotone");
        }
    }

    #[test]
    fn hostile_batches_degrade_gracefully() {
        let npu = paper_npu();
        let cfg = PipelineConfig::default();
        let model = crate::detection::RecoveryModel::default();
        let net = tiny_cnn();
        let quiet = run_batch_under_attack(&npu, &net, SchemeKind::Seculator, 8, &cfg, &model, 0.0)
            .unwrap();
        assert!(
            (quiet.slowdown() - 1.0).abs() < 1e-9,
            "no attack, no overhead"
        );
        let hostile =
            run_batch_under_attack(&npu, &net, SchemeKind::Seculator, 8, &cfg, &model, 0.3)
                .unwrap();
        assert!(hostile.slowdown() > 1.0);
        let worse = run_batch_under_attack(&npu, &net, SchemeKind::Seculator, 8, &cfg, &model, 0.6)
            .unwrap();
        assert!(
            worse.slowdown() > hostile.slowdown(),
            "more attacks, more retries"
        );
        // Block-level detection (shorter window) recovers cheaper per
        // incident than Seculator's layer-level detection.
        let tnpu =
            run_batch_under_attack(&npu, &net, SchemeKind::Tnpu, 8, &cfg, &model, 0.3).unwrap();
        let tnpu_overhead = tnpu.expected_cycles_per_inference - tnpu.quiet.inference_cycles as f64;
        let seculator_overhead =
            hostile.expected_cycles_per_inference - hostile.quiet.inference_cycles as f64;
        assert!(
            tnpu_overhead < seculator_overhead,
            "earlier detection must waste fewer cycles per attack \
             ({tnpu_overhead} vs {seculator_overhead})"
        );
    }

    #[test]
    fn throughput_is_consistent_with_cycles() {
        let npu = paper_npu();
        let cfg = PipelineConfig::default();
        let b = run_batch(&npu, &tiny_cnn(), SchemeKind::Seculator, 16, &cfg).unwrap();
        let tput = b.throughput_per_second(2.75);
        assert!((tput * b.cycles_per_inference() - 2.75e9).abs() / 2.75e9 < 1e-9);
    }
}
