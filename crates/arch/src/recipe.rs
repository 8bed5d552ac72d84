//! Serializable schedule recipes: the minimal description from which a
//! [`LayerSchedule`] can be reconstructed (layer + dataflow + tiling),
//! so mappings can be saved, shipped, and replayed across runs — the
//! Timeloop-equivalent artifact a real deployment would pin.

use crate::dataflow::{Dataflow, DataflowError};
use crate::layer::LayerDesc;
use crate::tiling::TileConfig;
use crate::trace::LayerSchedule;

/// The persistent form of one layer's mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleRecipe {
    /// The layer being scheduled.
    pub layer: LayerDesc,
    /// Dataflow choice.
    pub dataflow: Dataflow,
    /// The *requested* tiling (normalization re-applies on load).
    pub tiling: TileConfig,
}

impl ScheduleRecipe {
    /// Captures a schedule's recipe.
    #[must_use]
    pub fn of(schedule: &LayerSchedule) -> Self {
        Self {
            layer: *schedule.layer(),
            dataflow: schedule.dataflow(),
            tiling: schedule.spec().tiling,
        }
    }

    /// Reconstructs the schedule.
    ///
    /// # Errors
    ///
    /// Propagates [`DataflowError`] if the recipe is inconsistent (e.g.
    /// hand-edited to an illegal tiling).
    pub fn instantiate(&self) -> Result<LayerSchedule, DataflowError> {
        LayerSchedule::new(self.layer, self.dataflow, self.tiling)
    }
}

/// A whole network's mapping.
#[derive(Debug, Clone, PartialEq)]
pub struct MappingRecipe {
    /// One recipe per layer, in execution order.
    pub layers: Vec<ScheduleRecipe>,
}

impl MappingRecipe {
    /// Captures a mapped network.
    #[must_use]
    pub fn of(schedules: &[LayerSchedule]) -> Self {
        Self {
            layers: schedules.iter().map(ScheduleRecipe::of).collect(),
        }
    }

    /// Reconstructs all schedules.
    ///
    /// # Errors
    ///
    /// Propagates the first [`DataflowError`].
    pub fn instantiate(&self) -> Result<Vec<LayerSchedule>, DataflowError> {
        self.layers
            .iter()
            .map(ScheduleRecipe::instantiate)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{ConvShape, LayerKind};
    use crate::mapper::{map_network, MapperConfig};

    #[test]
    fn roundtrip_preserves_patterns_and_traffic() {
        let layers = vec![
            LayerDesc::new(0, LayerKind::Conv(ConvShape::simple(16, 8, 32, 3))),
            LayerDesc::new(1, LayerKind::Conv(ConvShape::simple(8, 16, 32, 3))),
        ];
        let schedules = map_network(&layers, &MapperConfig::default()).unwrap();
        let recipe = MappingRecipe::of(&schedules);
        let restored = recipe.instantiate().unwrap();
        for (a, b) in schedules.iter().zip(&restored) {
            assert_eq!(a.write_pattern(), b.write_pattern());
            assert_eq!(a.read_pattern(), b.read_pattern());
            assert_eq!(a.traffic(), b.traffic());
            assert_eq!(a.spec(), b.spec());
        }
    }

    #[test]
    fn recipes_are_plain_data() {
        // A recipe is plain `Copy` data: copying it preserves equality
        // and the copy still instantiates a schedule.
        let layer = LayerDesc::new(0, LayerKind::Conv(ConvShape::simple(4, 2, 8, 3)));
        let recipe = ScheduleRecipe {
            layer,
            dataflow: Dataflow::Conv(crate::dataflow::ConvDataflow::IrFullChannel),
            tiling: TileConfig {
                kt: 2,
                ct: 2,
                ht: 4,
                wt: 4,
            },
        };
        let clone = recipe;
        assert_eq!(recipe, clone);
        assert!(recipe.instantiate().is_ok());
    }

    #[test]
    fn corrupt_recipe_fails_to_instantiate() {
        let layer = LayerDesc::new(0, LayerKind::Conv(ConvShape::simple(4, 2, 8, 3)));
        let recipe = ScheduleRecipe {
            layer,
            dataflow: Dataflow::Conv(crate::dataflow::ConvDataflow::IrFullChannel),
            tiling: TileConfig {
                kt: 0,
                ct: 2,
                ht: 4,
                wt: 4,
            },
        };
        assert!(recipe.instantiate().is_err());
    }
}
