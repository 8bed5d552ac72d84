//! Roofline-style layer analysis: arithmetic intensity and the
//! compute/memory balance point, which determine where security overhead
//! can hide (compute-bound layers absorb metadata traffic under the
//! double-buffer bound; memory-bound layers expose every extra byte).

use crate::trace::LayerSchedule;

/// Whether a layer is limited by the PE array or by DRAM bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// Compute time exceeds transfer time: extra memory traffic hides.
    Compute,
    /// Transfer time exceeds compute time: extra traffic is exposed.
    Memory,
}

/// Roofline summary of one layer under a machine balance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerRoofline {
    /// Layer id.
    pub layer_id: u32,
    /// MACs per DRAM byte moved (arithmetic intensity of the *schedule*,
    /// i.e. including any re-fetch the dataflow causes).
    pub intensity: f64,
    /// Which resource bounds the layer.
    pub bound: Bound,
    /// Fraction of peak PE utilization the layer can reach
    /// (1.0 when compute-bound, `intensity / balance` when memory-bound).
    pub utilization_bound: f64,
}

/// The machine balance: MACs the array can retire per byte the memory
/// system can deliver per cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineBalance {
    /// Peak MACs per cycle (PE count).
    pub macs_per_cycle: f64,
    /// Sustained DRAM bytes per cycle.
    pub bytes_per_cycle: f64,
}

impl MachineBalance {
    /// MACs per byte at the roofline ridge point.
    #[must_use]
    pub fn ridge(&self) -> f64 {
        self.macs_per_cycle / self.bytes_per_cycle
    }
}

/// Analyzes one scheduled layer against a machine balance.
#[must_use]
pub fn roofline(schedule: &LayerSchedule, machine: &MachineBalance) -> LayerRoofline {
    let macs = schedule.layer().macs() as f64;
    let bytes = schedule.traffic().total().max(1) as f64;
    let intensity = macs / bytes;
    let ridge = machine.ridge();
    let bound = if intensity >= ridge {
        Bound::Compute
    } else {
        Bound::Memory
    };
    LayerRoofline {
        layer_id: schedule.layer().id,
        intensity,
        bound,
        utilization_bound: (intensity / ridge).min(1.0),
    }
}

/// Analyzes a whole network; returns per-layer rooflines plus the
/// fraction of total MACs that live in compute-bound layers (the share
/// of the network where security overhead hides for free).
#[must_use]
pub fn network_roofline(
    schedules: &[LayerSchedule],
    machine: &MachineBalance,
) -> (Vec<LayerRoofline>, f64) {
    let rooflines: Vec<LayerRoofline> = schedules.iter().map(|s| roofline(s, machine)).collect();
    let total_macs: u64 = schedules.iter().map(|s| s.layer().macs()).sum();
    let compute_macs: u64 = schedules
        .iter()
        .zip(&rooflines)
        .filter(|(_, r)| r.bound == Bound::Compute)
        .map(|(s, _)| s.layer().macs())
        .sum();
    let share = if total_macs == 0 {
        0.0
    } else {
        compute_macs as f64 / total_macs as f64
    };
    (rooflines, share)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::{ConvDataflow, Dataflow};
    use crate::layer::{ConvShape, LayerDesc, LayerKind, MatmulShape};
    use crate::mapper::{map_layer, MapperConfig};
    use crate::tiling::TileConfig;

    fn paper_machine() -> MachineBalance {
        MachineBalance {
            macs_per_cycle: 1024.0,
            bytes_per_cycle: 14.0,
        }
    }

    #[test]
    fn paper_machine_is_memory_bound_even_on_deep_convolutions() {
        // The paper machine's ridge is 1024/14 ≈ 73 MACs/byte; with a
        // 240 KB buffer no legal mapping of a real conv layer keeps both
        // weights and outputs resident, so everything lands below the
        // ridge — which is exactly why security metadata traffic shows up
        // in Figure 7 at all.
        let layer = LayerDesc::new(0, LayerKind::Conv(ConvShape::simple(256, 256, 56, 3)));
        let s = map_layer(&layer, &MapperConfig::default()).unwrap();
        let r = roofline(&s, &paper_machine());
        assert_eq!(r.bound, Bound::Memory, "intensity {}", r.intensity);
        assert!(r.intensity > 30.0, "deep convs still sit near the ridge");
        // On a machine with 4x the bandwidth (ridge ≈ 18) the same layer
        // becomes compute-bound.
        let fat_memory = MachineBalance {
            macs_per_cycle: 1024.0,
            bytes_per_cycle: 56.0,
        };
        assert_eq!(roofline(&s, &fat_memory).bound, Bound::Compute);
    }

    #[test]
    fn fully_connected_layers_are_memory_bound() {
        // FC layers read each weight exactly once: intensity ≈ 1/4.
        let layer = LayerDesc::new(
            1,
            LayerKind::FullyConnected(MatmulShape::new(1, 4096, 4096)),
        );
        let s = map_layer(&layer, &MapperConfig::default()).unwrap();
        let r = roofline(&s, &paper_machine());
        assert_eq!(r.bound, Bound::Memory, "intensity {}", r.intensity);
        assert!(r.utilization_bound < 0.05);
    }

    #[test]
    fn wasteful_dataflows_lower_intensity() {
        let layer = LayerDesc::new(2, LayerKind::Conv(ConvShape::simple(32, 32, 32, 3)));
        let tiling = TileConfig {
            kt: 8,
            ct: 8,
            ht: 16,
            wt: 16,
        };
        let good =
            LayerSchedule::new(layer, Dataflow::Conv(ConvDataflow::IrFullChannel), tiling).unwrap();
        let wasteful = LayerSchedule::new(
            layer,
            Dataflow::Conv(ConvDataflow::OrPartialChannel),
            tiling,
        )
        .unwrap();
        let m = paper_machine();
        assert!(
            roofline(&good, &m).intensity > roofline(&wasteful, &m).intensity,
            "re-fetching inputs per output group must lower intensity"
        );
    }

    #[test]
    fn network_share_is_a_fraction() {
        let layers = [
            LayerDesc::new(0, LayerKind::Conv(ConvShape::simple(64, 64, 28, 3))),
            LayerDesc::new(
                1,
                LayerKind::FullyConnected(MatmulShape::new(1, 1024, 1024)),
            ),
        ];
        let schedules: Vec<_> = layers
            .iter()
            .map(|l| map_layer(l, &MapperConfig::default()).unwrap())
            .collect();
        let (rooflines, share) = network_roofline(&schedules, &paper_machine());
        assert_eq!(rooflines.len(), 2);
        assert!((0.0..=1.0).contains(&share));
    }
}
