//! Detection-latency analysis: the cost Seculator pays for dropping
//! per-block MACs.
//!
//! Block-level schemes (Secure / TNPU / GuardNN) verify each block as it
//! is fetched, so a tampered block is caught *at the access*. Seculator
//! verifies a layer's write-set one layer later (`MAC_W = MAC_FR ⊕ MAC_R`
//! closes when layer `i+1` finishes its first reads), so corrupted data
//! may be *consumed* before the breach is flagged and the system reboots
//! (paper §6.1: "In the case of a security breach, a system reboot is
//! performed"). Nothing secret leaks — outputs stay in protected memory
//! until verification — but the reboot happens later and re-execution
//! costs more.
//!
//! This module quantifies that window from a run's per-layer cycle
//! statistics, plus the expected re-execution cost of the
//! detect-and-reboot recovery strategy.

use crate::engine::SchemeKind;
use seculator_sim::stats::RunStats;

/// Detection latency statistics for one (scheme, workload) pair, in
/// cycles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectionLatency {
    /// Expected cycles between a tamper of layer-`i` output data and its
    /// detection, averaged over a tamper uniformly distributed over the
    /// execution.
    pub expected_cycles: f64,
    /// Worst-case cycles (tamper right after the first write of the
    /// longest adjacent layer pair).
    pub worst_case_cycles: u64,
}

/// Computes the detection window for a scheme from a run's layer timings.
///
/// # Examples
///
/// ```
/// use seculator_core::detection::detection_latency;
/// use seculator_core::{SchemeKind, TimingNpu};
/// use seculator_models::zoo::tiny_cnn;
///
/// let run = TimingNpu::default().run(&tiny_cnn(), SchemeKind::Seculator)?;
/// let window = detection_latency(SchemeKind::Seculator, &run);
/// assert!(window.worst_case_cycles > 0, "layer-level checks detect later");
/// let immediate = detection_latency(SchemeKind::Tnpu, &run);
/// assert_eq!(immediate.worst_case_cycles, 0, "per-block checks detect at the access");
/// # Ok::<(), seculator_arch::mapper::MapperError>(())
/// ```
///
/// Block-level schemes detect at the next access of the tampered block —
/// bounded by one tile round trip, modeled here as 0 relative to layer
/// timescales. Seculator detects when the *consumer* layer's boundary
/// check fires: a tamper of layer `i`'s output lands, in the worst case,
/// right after the block's final write early in layer `i`, and is caught
/// at the end of layer `i+1`.
#[must_use]
pub fn detection_latency(scheme: SchemeKind, run: &RunStats) -> DetectionLatency {
    match scheme {
        SchemeKind::Baseline => {
            // No integrity: never detected.
            DetectionLatency {
                expected_cycles: f64::INFINITY,
                worst_case_cycles: u64::MAX,
            }
        }
        SchemeKind::Secure | SchemeKind::Tnpu | SchemeKind::GuardNn => DetectionLatency {
            expected_cycles: 0.0,
            worst_case_cycles: 0,
        },
        SchemeKind::Seculator | SchemeKind::SeculatorPlus => {
            let cycles: Vec<u64> = run.layers.iter().map(|l| l.cycles).collect();
            if cycles.len() < 2 {
                let total = cycles.first().copied().unwrap_or(0);
                return DetectionLatency {
                    expected_cycles: total as f64 / 2.0,
                    worst_case_cycles: total,
                };
            }
            // For a tamper uniformly distributed in time within layer i,
            // detection waits for the remainder of layer i plus all of
            // layer i+1 (on average half of layer i plus layer i+1).
            let mut weighted = 0.0;
            let mut worst = 0u64;
            let total: u64 = cycles.iter().sum();
            for i in 0..cycles.len() - 1 {
                let window_avg = cycles[i] as f64 / 2.0 + cycles[i + 1] as f64;
                weighted += cycles[i] as f64 / total as f64 * window_avg;
                worst = worst.max(cycles[i] + cycles[i + 1]);
            }
            // A tamper during the last layer is caught at the output
            // drain (end of that layer).
            let last = cycles.last().copied().unwrap_or(0);
            weighted += last as f64 / total as f64 * (last as f64 / 2.0);
            DetectionLatency {
                expected_cycles: weighted,
                worst_case_cycles: worst,
            }
        }
    }
}

/// Recovery-cost model for the detect-and-reboot strategy: on a breach
/// the NPU reboots (fixed penalty) and re-executes from the start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryModel {
    /// Fixed reboot penalty in cycles (re-attestation, key refresh).
    pub reboot_cycles: u64,
}

impl Default for RecoveryModel {
    fn default() -> Self {
        // ~100 µs at 2.75 GHz.
        Self {
            reboot_cycles: 275_000,
        }
    }
}

impl RecoveryModel {
    /// Expected total cycles to complete one inference when each
    /// execution attempt is independently attacked with probability
    /// `attack_probability` (attack ⇒ detection ⇒ reboot ⇒ retry; the
    /// attacker gives up after the first failed attempt... repeated
    /// attacks form the geometric series below).
    ///
    /// # Panics
    ///
    /// Panics if `attack_probability` is not in `[0, 1)`.
    #[must_use]
    pub fn expected_completion_cycles(
        &self,
        run_cycles: u64,
        detection: DetectionLatency,
        attack_probability: f64,
    ) -> f64 {
        assert!(
            (0.0..1.0).contains(&attack_probability),
            "attack probability must be in [0, 1)"
        );
        // Each failed attempt costs: cycles until the tamper (~half the
        // run on average) + the detection window + the reboot.
        let failed_attempt = run_cycles as f64 / 2.0
            + detection.expected_cycles.min(run_cycles as f64)
            + self.reboot_cycles as f64;
        let p = attack_probability;
        // E[attempts before success] = p / (1 - p).
        run_cycles as f64 + p / (1.0 - p) * failed_attempt
    }
}

/// Cycle-cost model of the *local* recovery actions taken by the
/// detect-and-recover driver ([`crate::secure_infer::infer_resilient`]),
/// as opposed to the paper's full system reboot
/// ([`RecoveryModel::reboot_cycles`]). A re-fetch streams the producer's
/// output tensor through the crypto pipeline once more; a re-execution
/// additionally recomputes the layer and rewrites both tensor versions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryCost {
    /// Cycles per 64-byte block to re-fetch + decrypt + re-MAC.
    pub refetch_cycles_per_block: u64,
    /// Cycles per block to re-execute the layer (recompute + two write
    /// passes + read-back + consume pass).
    pub reexecute_cycles_per_block: u64,
}

impl Default for RecoveryCost {
    fn default() -> Self {
        // A block is one DRAM burst (~4 cycles pipelined) plus the AES
        // pipeline fill; re-execution moves each block ~4× and recomputes.
        Self {
            refetch_cycles_per_block: 8,
            reexecute_cycles_per_block: 96,
        }
    }
}

impl RecoveryCost {
    /// Latency of the re-fetch rung alone (feeds the per-rung breakdown
    /// of [`crate::audit::LadderSummary`]).
    #[must_use]
    pub fn refetch_cycles(&self, refetches: u32, tensor_blocks: u64) -> u64 {
        u64::from(refetches) * tensor_blocks * self.refetch_cycles_per_block
    }

    /// Latency of the re-execution rung alone.
    #[must_use]
    pub fn reexecution_cycles(&self, reexecutions: u32, tensor_blocks: u64) -> u64 {
        u64::from(reexecutions) * tensor_blocks * self.reexecute_cycles_per_block
    }

    /// Total recovery latency for a run that spent `refetches` re-fetch
    /// passes and `reexecutions` layer re-executions over a tensor of
    /// `tensor_blocks` blocks.
    #[must_use]
    pub fn cycles(&self, refetches: u32, reexecutions: u32, tensor_blocks: u64) -> u64 {
        self.refetch_cycles(refetches, tensor_blocks)
            + self.reexecution_cycles(reexecutions, tensor_blocks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::npu::TimingNpu;
    use seculator_models::zoo::tiny_cnn;
    use seculator_sim::config::NpuConfig;

    fn seculator_run() -> RunStats {
        TimingNpu::new(NpuConfig::paper())
            .run(&tiny_cnn(), SchemeKind::Seculator)
            .unwrap()
    }

    #[test]
    fn block_level_schemes_detect_immediately() {
        let run = seculator_run();
        for s in [SchemeKind::Secure, SchemeKind::Tnpu, SchemeKind::GuardNn] {
            let d = detection_latency(s, &run);
            assert_eq!(d.worst_case_cycles, 0);
        }
    }

    #[test]
    fn seculator_detection_window_is_bounded_by_two_layers() {
        let run = seculator_run();
        let d = detection_latency(SchemeKind::Seculator, &run);
        let max_pair = run
            .layers
            .windows(2)
            .map(|w| w[0].cycles + w[1].cycles)
            .max()
            .unwrap();
        assert_eq!(d.worst_case_cycles, max_pair);
        assert!(d.expected_cycles > 0.0);
        assert!(d.expected_cycles < run.total_cycles() as f64);
    }

    #[test]
    fn baseline_never_detects() {
        let run = seculator_run();
        let d = detection_latency(SchemeKind::Baseline, &run);
        assert!(d.expected_cycles.is_infinite());
    }

    #[test]
    fn recovery_cost_grows_with_attack_probability() {
        let run = seculator_run();
        let d = detection_latency(SchemeKind::Seculator, &run);
        let m = RecoveryModel::default();
        let quiet = m.expected_completion_cycles(run.total_cycles(), d, 0.0);
        let hostile = m.expected_completion_cycles(run.total_cycles(), d, 0.5);
        assert!((quiet - run.total_cycles() as f64).abs() < 1e-6);
        assert!(hostile > quiet);
    }

    #[test]
    fn local_recovery_is_cheaper_than_reboot() {
        let cost = RecoveryCost::default();
        // One refetch of a 64-block tensor, one re-execution of same.
        let local = cost.cycles(1, 1, 64);
        assert!(local > 0);
        assert!(
            local < RecoveryModel::default().reboot_cycles,
            "local recovery ({local}) must undercut a full reboot"
        );
        assert_eq!(cost.cycles(0, 0, 64), 0, "no actions, no cost");
        assert!(
            cost.cycles(0, 1, 64) > cost.cycles(1, 0, 64),
            "re-execution costs more"
        );
    }

    #[test]
    #[should_panic(expected = "attack probability")]
    fn certain_attack_is_rejected() {
        let run = seculator_run();
        let d = detection_latency(SchemeKind::Seculator, &run);
        let _ = RecoveryModel::default().expected_completion_cycles(1000, d, 1.0);
    }
}
