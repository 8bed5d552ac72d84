//! Simulated NPU configuration — paper Table 1 plus the latency constants
//! the cycle model uses. Every constant that influences the relative
//! results is gathered here and documented so EXPERIMENTS.md can point at
//! a single calibration surface.

/// DRAM timing/bandwidth parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramConfig {
    /// Access latency in NPU cycles for the first beat of a burst
    /// (Table 1: "Dual-channel DRAM DDR 4, 100 cyc (lat)").
    pub latency_cycles: u64,
    /// Sustained bandwidth in bytes per NPU cycle across both channels.
    /// Dual-channel DDR4-2400 ≈ 38.4 GB/s at 2.75 GHz ≈ 14 B/cycle.
    pub bytes_per_cycle: f64,
}

impl Default for DramConfig {
    fn default() -> Self {
        Self {
            latency_cycles: 100,
            bytes_per_cycle: 14.0,
        }
    }
}

/// Full NPU configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NpuConfig {
    /// Systolic array rows (Table 1: 32).
    pub pe_rows: u32,
    /// Systolic array columns (Table 1: 32).
    pub pe_cols: u32,
    /// Global buffer capacity (Table 1: 240 KB).
    pub global_buffer_bytes: u64,
    /// Clock frequency in GHz (Table 1: 2.75) — used only to convert
    /// cycles to wall time for reporting; all comparisons are in cycles.
    pub frequency_ghz: f64,
    /// DRAM parameters.
    pub dram: DramConfig,
    /// Memory block size (Table 1: 64 B).
    pub block_bytes: u64,
    /// Counter cache capacity for the SGX-like design (Table 1: 4 KB).
    pub counter_cache_bytes: u64,
    /// MAC cache capacity for the Secure/TNPU designs (Table 1: 8 KB).
    pub mac_cache_bytes: u64,
    /// Cache associativity for both metadata caches.
    pub cache_associativity: usize,
    /// Pipelined AES engine latency in cycles for one 64-byte block
    /// (four parallel AES-128 lanes, §6.3). Mostly hidden under DRAM
    /// latency; charged when a block cannot overlap.
    pub aes_block_cycles: u64,
    /// Pipelined SHA-256 latency in cycles for one 64-byte block MAC.
    pub sha_block_cycles: u64,
    /// Round-trip to the host CPU's scheduler for GuardNN's read-VN
    /// exchange, in NPU cycles.
    pub host_roundtrip_cycles: u64,
    /// Access latency of TNPU's Tensor Table in the host's secure memory
    /// region, in NPU cycles (per tile-level VN lookup/update).
    pub tensor_table_cycles: u64,
    /// Levels of the counter-integrity Merkle tree that miss on-chip and
    /// must be fetched from DRAM on a counter-cache miss (Secure design).
    pub merkle_levels_in_dram: u32,
}

impl Default for NpuConfig {
    fn default() -> Self {
        Self::paper()
    }
}

impl NpuConfig {
    /// The configuration of paper Table 1.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            pe_rows: 32,
            pe_cols: 32,
            global_buffer_bytes: 240 * 1024,
            frequency_ghz: 2.75,
            dram: DramConfig::default(),
            block_bytes: 64,
            counter_cache_bytes: 4 * 1024,
            mac_cache_bytes: 8 * 1024,
            cache_associativity: 4,
            aes_block_cycles: 40,
            sha_block_cycles: 64,
            host_roundtrip_cycles: 150,
            tensor_table_cycles: 100,
            merkle_levels_in_dram: 3,
        }
    }

    /// A small configuration for unit tests (tiny buffer, fast caches).
    #[must_use]
    pub fn tiny() -> Self {
        Self {
            global_buffer_bytes: 16 * 1024,
            counter_cache_bytes: 512,
            mac_cache_bytes: 1024,
            ..Self::paper()
        }
    }

    /// Converts cycles to seconds at the configured frequency.
    #[must_use]
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.frequency_ghz * 1e9)
    }

    /// Number of 64-byte blocks in `bytes`, rounded up.
    #[must_use]
    pub fn blocks(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.block_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_table1() {
        let c = NpuConfig::paper();
        assert_eq!(c.pe_rows * c.pe_cols, 1024);
        assert_eq!(c.global_buffer_bytes, 245_760);
        assert_eq!(c.counter_cache_bytes, 4096);
        assert_eq!(c.mac_cache_bytes, 8192);
        assert_eq!(c.dram.latency_cycles, 100);
        assert_eq!(c.block_bytes, 64);
    }

    #[test]
    fn block_rounding() {
        let c = NpuConfig::paper();
        assert_eq!(c.blocks(0), 0);
        assert_eq!(c.blocks(1), 1);
        assert_eq!(c.blocks(64), 1);
        assert_eq!(c.blocks(65), 2);
    }

    #[test]
    fn cycle_time_conversion() {
        let c = NpuConfig::paper();
        let s = c.cycles_to_seconds(2_750_000_000);
        assert!((s - 1.0).abs() < 1e-9);
    }
}
