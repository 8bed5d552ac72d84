//! Execution statistics: the quantities the paper's evaluation plots
//! (cycles → Figures 4/7/9, DRAM traffic → Figure 8, metadata-cache miss
//! rates → Figure 5).

use crate::cache::CacheStats;
use crate::dram::DramStats;

/// Statistics for one layer's execution under one security scheme.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerStats {
    /// Layer id.
    pub layer_id: u32,
    /// Total cycles charged to the layer.
    pub cycles: u64,
    /// Cycles the PE array was busy.
    pub compute_cycles: u64,
    /// Cycles spent waiting on DRAM (data + metadata).
    pub memory_cycles: u64,
    /// Cycles of security overhead that could not be hidden
    /// (crypto pipelines, host round trips, Merkle walks).
    pub security_cycles: u64,
    /// DRAM traffic attributable to this layer.
    pub dram: DramStats,
}

/// Statistics for one full network inference.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunStats {
    /// Scheme name ("baseline", "seculator", …).
    pub scheme: String,
    /// Workload name ("VGG16", …).
    pub workload: String,
    /// Per-layer breakdown.
    pub layers: Vec<LayerStats>,
    /// Counter-cache statistics (schemes that have one).
    pub counter_cache: Option<CacheStats>,
    /// MAC-cache statistics (schemes that have one).
    pub mac_cache: Option<CacheStats>,
}

impl RunStats {
    /// Total execution cycles.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.layers.iter().map(|l| l.cycles).sum()
    }

    /// Total DRAM bytes moved.
    #[must_use]
    pub fn total_dram_bytes(&self) -> u64 {
        self.layers.iter().map(|l| l.dram.total_bytes()).sum()
    }

    /// Aggregated DRAM statistics.
    #[must_use]
    pub fn dram_totals(&self) -> DramStats {
        let mut out = DramStats::default();
        for l in &self.layers {
            out.data_read_bytes += l.dram.data_read_bytes;
            out.data_write_bytes += l.dram.data_write_bytes;
            out.meta_read_bytes += l.dram.meta_read_bytes;
            out.meta_write_bytes += l.dram.meta_write_bytes;
            out.bursts += l.dram.bursts;
        }
        out
    }

    /// Performance relative to `baseline` (the paper's normalization:
    /// performance = 1 / execution time).
    ///
    /// # Panics
    ///
    /// Panics if either run has zero cycles.
    #[must_use]
    pub fn performance_vs(&self, baseline: &RunStats) -> f64 {
        let own = self.total_cycles();
        let base = baseline.total_cycles();
        assert!(own > 0 && base > 0, "runs must have non-zero cycles");
        base as f64 / own as f64
    }

    /// DRAM traffic relative to `baseline`.
    #[must_use]
    pub fn traffic_vs(&self, baseline: &RunStats) -> f64 {
        self.total_dram_bytes() as f64 / baseline.total_dram_bytes().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(scheme: &str, cycles: u64, bytes: u64) -> RunStats {
        RunStats {
            scheme: scheme.into(),
            workload: "test".into(),
            layers: vec![LayerStats {
                layer_id: 0,
                cycles,
                compute_cycles: cycles / 2,
                memory_cycles: cycles / 2,
                security_cycles: 0,
                dram: DramStats {
                    data_read_bytes: bytes,
                    ..DramStats::default()
                },
            }],
            counter_cache: None,
            mac_cache: None,
        }
    }

    #[test]
    fn normalization_matches_paper_convention() {
        let base = run("baseline", 1000, 100);
        let slow = run("secure", 1500, 150);
        assert!((slow.performance_vs(&base) - 2.0 / 3.0).abs() < 1e-12);
        assert!((slow.traffic_vs(&base) - 1.5).abs() < 1e-12);
        assert!((base.performance_vs(&base) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn totals_sum_layers() {
        let mut r = run("x", 10, 20);
        r.layers.push(r.layers[0]);
        assert_eq!(r.total_cycles(), 20);
        assert_eq!(r.total_dram_bytes(), 40);
        assert_eq!(r.dram_totals().data_read_bytes, 40);
    }
}
