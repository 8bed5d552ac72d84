//! Security-metadata *storage* comparison — paper Table 7's space column
//! made concrete. For a given network, how many bytes of version numbers
//! and MACs does each design have to keep (on chip, in host secure
//! memory, or in DRAM)?
//!
//! Symbols from the paper's Table 7: `T` = total tiles, `B` = blocks per
//! tile, `V` = VN size, `H` = MAC size, `m`/`M` = minor/major counter
//! sizes. Seculator's row is `V` (a register) and `O(H)` (a handful of
//! registers) — independent of model size, which is the point.

use seculator_arch::trace::LayerSchedule;

/// Metadata footprint of one design for one workload, in bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageFootprint {
    /// Version-number / counter state.
    pub vn_bytes: u64,
    /// MAC state.
    pub mac_bytes: u64,
    /// Integrity-tree state (Merkle nodes), if any.
    pub tree_bytes: u64,
}

impl StorageFootprint {
    /// Total metadata bytes.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.vn_bytes + self.mac_bytes + self.tree_bytes
    }
}

/// Sizes used by the accounting (paper's constants).
const VN_BYTES: u64 = 4; // 32-bit version numbers
const MAC_BYTES: u64 = 8; // stored per-block MACs are 8 B (paper §4.1.1)
const MINOR_CTR_BITS: u64 = 6;
const MAJOR_CTR_BYTES: u64 = 8;
const BLOCK_BYTES: u64 = 64;
const PAGE_BLOCKS: u64 = 64;

fn total_data_bytes(schedules: &[LayerSchedule]) -> u64 {
    // Every tensor that lives in protected memory at some point: inputs,
    // weights, and each layer's ofmap.
    let mut bytes = 0;
    if let Some(first) = schedules.first() {
        bytes += first.ifmap_tiles() * first.ifmap_tile_bytes();
    }
    for s in schedules {
        bytes += u64::from(s.spec().alphas.alpha_c)
            * u64::from(s.spec().alphas.alpha_k)
            * s.weight_tile_bytes();
        bytes += s.ofmap_tiles() * s.ofmap_tile_bytes();
    }
    bytes
}

fn total_tiles(schedules: &[LayerSchedule]) -> u64 {
    let mut tiles = 0;
    if let Some(first) = schedules.first() {
        tiles += first.ifmap_tiles();
    }
    for s in schedules {
        tiles += u64::from(s.spec().alphas.alpha_c) * u64::from(s.spec().alphas.alpha_k);
        tiles += s.ofmap_tiles();
    }
    tiles
}

/// SGX-Client-style design: per-block split counters (minor per block,
/// major per page) + per-block MACs + a Merkle tree over counter blocks.
#[must_use]
pub fn secure_footprint(schedules: &[LayerSchedule]) -> StorageFootprint {
    let data = total_data_bytes(schedules);
    let blocks = data / BLOCK_BYTES;
    let pages = blocks.div_ceil(PAGE_BLOCKS);
    let counter_bytes = blocks * MINOR_CTR_BITS / 8 + pages * MAJOR_CTR_BYTES;
    // Binary hash tree over counter blocks: ~2x the leaf digests.
    let counter_blocks = counter_bytes.div_ceil(BLOCK_BYTES);
    StorageFootprint {
        vn_bytes: counter_bytes,
        mac_bytes: blocks * MAC_BYTES,
        tree_bytes: 2 * counter_blocks * 32,
    }
}

/// TNPU: one VN per tile in the Tensor Table + per-block MACs.
#[must_use]
pub fn tnpu_footprint(schedules: &[LayerSchedule]) -> StorageFootprint {
    let data = total_data_bytes(schedules);
    StorageFootprint {
        vn_bytes: total_tiles(schedules) * VN_BYTES,
        mac_bytes: (data / BLOCK_BYTES) * MAC_BYTES,
        tree_bytes: 0,
    }
}

/// GuardNN: one VN per tile (host-managed) + per-block MACs in DRAM.
#[must_use]
pub fn guardnn_footprint(schedules: &[LayerSchedule]) -> StorageFootprint {
    tnpu_footprint(schedules) // same asymptotics; management differs
}

/// Seculator: the triplet registers and four 256-bit MAC registers —
/// constant, independent of the model.
#[must_use]
pub fn seculator_footprint(_schedules: &[LayerSchedule]) -> StorageFootprint {
    StorageFootprint {
        // ⟨η, κ, ρ⟩ + position counters: ~6 registers of 8 B.
        vn_bytes: 6 * 8,
        // Two alternating banks of (MAC_W, MAC_R, MAC_FR) + MAC_IR.
        mac_bytes: 7 * 32,
        tree_bytes: 0,
    }
}

/// One row of the concrete Table 7: design name + footprint.
///
/// # Examples
///
/// ```
/// use seculator_core::storage::table7_rows;
/// use seculator_core::TimingNpu;
/// use seculator_models::zoo::tiny_cnn;
///
/// let schedules = TimingNpu::default().map(&tiny_cnn())?;
/// let rows = table7_rows(&schedules);
/// let seculator = rows.iter().find(|(n, _)| *n == "seculator").unwrap().1;
/// assert!(seculator.total() < 512, "a handful of registers");
/// # Ok::<(), seculator_arch::mapper::MapperError>(())
/// ```
#[must_use]
pub fn table7_rows(schedules: &[LayerSchedule]) -> Vec<(&'static str, StorageFootprint)> {
    vec![
        ("secure (SGX-like)", secure_footprint(schedules)),
        ("tnpu", tnpu_footprint(schedules)),
        ("guardnn", guardnn_footprint(schedules)),
        ("seculator", seculator_footprint(schedules)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use seculator_arch::mapper::{map_network, MapperConfig};
    use seculator_models::zoo;

    fn schedules() -> Vec<LayerSchedule> {
        map_network(&zoo::resnet18().layers, &MapperConfig::default()).expect("maps")
    }

    #[test]
    fn seculator_footprint_is_constant_and_tiny() {
        let s = schedules();
        let f = seculator_footprint(&s);
        assert!(f.total() < 512, "a few registers only, got {}", f.total());
        // Independent of workload.
        let small = map_network(&zoo::tiny_cnn().layers, &MapperConfig::default()).unwrap();
        assert_eq!(f, seculator_footprint(&small));
    }

    #[test]
    fn per_block_designs_scale_with_model_size() {
        let s = schedules();
        let tnpu = tnpu_footprint(&s);
        let secure = secure_footprint(&s);
        let secu = seculator_footprint(&s);
        // ResNet-18 data is tens of MB ⇒ MBs of MACs for per-block designs.
        assert!(tnpu.mac_bytes > 1_000_000, "{tnpu:?}");
        assert!(secure.total() > tnpu.vn_bytes);
        // The headline: orders of magnitude.
        assert!(
            tnpu.total() / secu.total() > 10_000,
            "{} / {}",
            tnpu.total(),
            secu.total()
        );
    }

    #[test]
    fn secure_design_also_pays_tree_storage() {
        let s = schedules();
        let f = secure_footprint(&s);
        assert!(f.tree_bytes > 0);
        assert!(f.vn_bytes > 0);
    }

    #[test]
    fn table7_has_all_rows() {
        let rows = table7_rows(&schedules());
        assert_eq!(rows.len(), 4);
        let secu = rows.iter().find(|(n, _)| *n == "seculator").unwrap().1;
        for (name, f) in &rows {
            if *name != "seculator" {
                assert!(f.total() > secu.total(), "{name} must exceed seculator");
            }
        }
    }
}
