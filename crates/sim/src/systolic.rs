//! Systolic-array compute-time model (SCALE-Sim-style analytical timing
//! for an output-stationary array — the substrate the paper's in-house
//! simulator was validated against).

use crate::config::NpuConfig;

/// Compute-cycle accounting for a layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ComputeStats {
    /// Cycles the PE array was busy.
    pub busy_cycles: u64,
    /// Total multiply-accumulates performed.
    pub macs: u64,
}

/// Analytical timing model for an `rows × cols` systolic array.
#[derive(Debug, Clone, Copy)]
pub struct SystolicArray {
    rows: u32,
    cols: u32,
}

impl SystolicArray {
    /// Creates the array model from a configuration.
    #[must_use]
    pub fn new(cfg: &NpuConfig) -> Self {
        Self {
            rows: cfg.pe_rows,
            cols: cfg.pe_cols,
        }
    }

    /// Number of processing elements.
    #[must_use]
    pub fn pes(&self) -> u64 {
        u64::from(self.rows) * u64::from(self.cols)
    }

    /// Cycles to process one schedule step performing `macs`
    /// multiply-accumulates: a pipeline fill/drain term (`rows + cols`)
    /// plus the streaming term at one MAC per PE per cycle.
    #[must_use]
    pub fn step_cycles(&self, macs: u64) -> u64 {
        if macs == 0 {
            return 0;
        }
        let fill_drain = u64::from(self.rows) + u64::from(self.cols);
        let stream = macs.div_ceil(self.pes());
        fill_drain + stream
    }

    /// Cycles for an explicit GEMM tile of `m × k × n` mapped onto the
    /// array (used by the matmul examples): `2·rows + k` per `rows×cols`
    /// output patch, patches processed back to back.
    #[must_use]
    pub fn gemm_cycles(&self, m: u64, k: u64, n: u64) -> u64 {
        let row_patches = m.div_ceil(u64::from(self.rows));
        let col_patches = n.div_ceil(u64::from(self.cols));
        let per_patch = 2 * u64::from(self.rows) + k;
        row_patches * col_patches * per_patch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn array() -> SystolicArray {
        SystolicArray::new(&NpuConfig::paper())
    }

    #[test]
    fn step_cycles_scale_with_macs() {
        let a = array();
        assert_eq!(a.step_cycles(0), 0);
        let small = a.step_cycles(1024);
        assert_eq!(small, 64 + 1);
        let big = a.step_cycles(1024 * 10_000);
        assert_eq!(
            big,
            64 + 10_000,
            "streaming term must dominate for large steps"
        );
    }

    #[test]
    fn gemm_patches_tile_the_output() {
        let a = array();
        // Exactly one 32x32 patch with k=100.
        assert_eq!(a.gemm_cycles(32, 100, 32), 64 + 100);
        // 2x2 patches.
        assert_eq!(a.gemm_cycles(64, 100, 64), 4 * (64 + 100));
    }

    #[test]
    fn utilization_is_bounded_by_pe_count() {
        let a = array();
        let macs = 10_000_000u64;
        let cycles = a.step_cycles(macs);
        let macs_per_cycle = macs as f64 / cycles as f64;
        assert!(macs_per_cycle <= a.pes() as f64 + 1e-9);
        assert!(
            macs_per_cycle > 0.95 * a.pes() as f64,
            "large steps should nearly saturate"
        );
    }
}
