//! The dataflow (tiling-style × loop-order × reuse) taxonomy of paper
//! §5 / Tables 2, 3 and 4.
//!
//! Every dataflow the paper characterizes reduces, for version-number
//! purposes, to one of three *schedule shapes*:
//!
//! - [`ScheduleShape::AccumAlongChannel`] — output tiles are revisited
//!   once per input-channel group, cycling through all output groups
//!   before moving to the next channel group, spatial tile outermost.
//!   VN write pattern `[1^η, 2^η, …, κ^η]^ρ`.
//! - [`ScheduleShape::AccumAlongSpace`] — the channel loop is outermost,
//!   so *every* output tile reaches version `v` before any reaches
//!   `v + 1`. VN write pattern `1^η, 2^η, …, κ^η` with `η = α_K·α_HW`.
//! - [`ScheduleShape::SingleWrite`] — output tiles are fully accumulated
//!   on-chip and written exactly once. VN write pattern `1^η`.
//!
//! The triplet `⟨η, κ, ρ⟩` of the paper's master equation
//! `(1^η, 2^η, …, κ^η)^ρ` is derived in [`crate::pattern`].

use crate::layer::{LayerDesc, LayerKind, PreprocStyle};
use crate::tiling::{Alphas, TileConfig};

/// The canonical shape of a tile schedule, determining the VN pattern
/// family (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScheduleShape {
    /// Spatial tile outermost, channel groups next, output groups
    /// innermost (paper patterns P1 *Multi-step* / P4 *Sawtooth*).
    AccumAlongChannel,
    /// Channel group outermost (paper patterns P2 *Step* / P3 *Linear*).
    AccumAlongSpace,
    /// Every output tile written once (paper pattern P5 *Line*).
    SingleWrite,
}

/// How many times input tiles are fetched from DRAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReadFactor {
    /// Fetched once over the whole layer (the reused operand).
    Once,
    /// Re-fetched for every output group (`× α_K`).
    PerOutputGroup,
    /// Re-fetched for every spatial tile (`× α_HW`).
    PerSpatialTile,
}

/// Convolution dataflows — the rows of paper Tables 2 and 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConvDataflow {
    /// Input reuse, partial channel, tile movement along the channel
    /// (Table 2 row 1): `h_T ▷ w_T ▷ c ▷ k_T`.
    IrPartialChannelAlongChannel,
    /// Input reuse, partial multi-channel, movement along the channel
    /// (Table 2 row 2): `h_T ▷ w_T ▷ c_T ▷ k_T`.
    IrMultiChannelAlongChannel,
    /// Input reuse, partial channel, movement along width/height
    /// (Table 2 row 3): `c ▷ h_T ▷ w_T ▷ k_T`.
    IrPartialChannelAlongSpace,
    /// Input reuse, partial multi-channel, movement along width/height
    /// (Table 2 row 4): `c_T ▷ h_T ▷ w_T ▷ k_T`.
    IrMultiChannelAlongSpace,
    /// Input reuse, channel-wise (Table 2 row 5): `c_T ▷ k_T`, the tile
    /// is a whole `H × W` channel group.
    IrChannelWise,
    /// Input reuse, full channel (Table 2 row 6): `h_T ▷ w_T ▷ k_T`, all
    /// input channels for a spatial tile are resident.
    IrFullChannel,
    /// Output reuse, partial (multi-)channel (Table 2 rows 1–2, OR
    /// columns): `h_T ▷ w_T ▷ k_T ▷ c_T`.
    OrPartialChannel,
    /// Output reuse, channel-wise (Table 2 row 5, OR): `k_T ▷ c_T`.
    OrChannelWise,
    /// Output reuse, full channel (Table 2 row 6): `h_T ▷ w_T ▷ k_T`
    /// with all channels resident.
    OrFullChannel,
    /// Weight reuse, multi-channel-wise (Table 3 row 1): `c_T ▷ k_T`.
    WrMultiChannelWise,
    /// Weight reuse, channel-wise (Table 3 row 2): `k_T ▷ c`.
    WrChannelWise,
    /// Weight reuse, full filter (Table 3 row 3): `k_T`.
    WrFullFilter,
}

impl ConvDataflow {
    /// Every convolution dataflow, in table order.
    pub const ALL: [Self; 12] = [
        Self::IrPartialChannelAlongChannel,
        Self::IrMultiChannelAlongChannel,
        Self::IrPartialChannelAlongSpace,
        Self::IrMultiChannelAlongSpace,
        Self::IrChannelWise,
        Self::IrFullChannel,
        Self::OrPartialChannel,
        Self::OrChannelWise,
        Self::OrFullChannel,
        Self::WrMultiChannelWise,
        Self::WrChannelWise,
        Self::WrFullFilter,
    ];

    /// The loop-order notation used in the paper's tables.
    #[must_use]
    pub fn loop_order(&self) -> &'static str {
        match self {
            Self::IrPartialChannelAlongChannel => "hT ▷ wT ▷ c ▷ kT",
            Self::IrMultiChannelAlongChannel => "hT ▷ wT ▷ cT ▷ kT",
            Self::IrPartialChannelAlongSpace => "c ▷ hT ▷ wT ▷ kT",
            Self::IrMultiChannelAlongSpace => "cT ▷ hT ▷ wT ▷ kT",
            Self::IrChannelWise => "cT ▷ kT",
            Self::IrFullChannel => "hT ▷ wT ▷ kT",
            Self::OrPartialChannel => "hT ▷ wT ▷ kT ▷ cT",
            Self::OrChannelWise => "kT ▷ cT",
            Self::OrFullChannel => "hT ▷ wT ▷ kT",
            Self::WrMultiChannelWise => "cT ▷ kT",
            Self::WrChannelWise => "kT ▷ c",
            Self::WrFullFilter => "kT",
        }
    }

    /// Human-readable tiling-style name from the tables.
    #[must_use]
    pub fn style_name(&self) -> &'static str {
        match self {
            Self::IrPartialChannelAlongChannel => "IR partial channel (along channel)",
            Self::IrMultiChannelAlongChannel => "IR partial-multi-channel (along channel)",
            Self::IrPartialChannelAlongSpace => "IR partial channel (along width/height)",
            Self::IrMultiChannelAlongSpace => "IR partial-multi-channel (along width/height)",
            Self::IrChannelWise => "IR channel-wise",
            Self::IrFullChannel => "IR full-channel",
            Self::OrPartialChannel => "OR partial (multi) channel",
            Self::OrChannelWise => "OR channel-wise",
            Self::OrFullChannel => "OR full-channel",
            Self::WrMultiChannelWise => "WR multi-channel-wise",
            Self::WrChannelWise => "WR channel-wise",
            Self::WrFullFilter => "WR full-filter",
        }
    }
}

/// Matrix-multiplication dataflows — paper Table 4 (`R = P × Q`,
/// `P: H×C`, `Q: C×W`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MatmulDataflow {
    /// Row 1 — `P`-tile stationary: `h_T ▷ c_T ▷ w_T`.
    FixP,
    /// Row 2 — `Q`-tile stationary: `w_T ▷ c_T ▷ h_T` (ordered so each
    /// `Q` tile is fully reused before moving on; yields the table's
    /// `(1^{α_H}, …, α_C^{α_H})^{α_W}` pattern).
    FixQ,
    /// Row 3 — `R`-tile (output) stationary: `w_T ▷ h_T ▷ c_T`.
    FixR,
}

impl MatmulDataflow {
    /// Every matmul dataflow, in table order.
    pub const ALL: [Self; 3] = [Self::FixP, Self::FixQ, Self::FixR];

    /// Loop-order notation.
    #[must_use]
    pub fn loop_order(&self) -> &'static str {
        match self {
            Self::FixP => "hT ▷ cT ▷ wT",
            Self::FixQ => "wT ▷ cT ▷ hT",
            Self::FixR => "wT ▷ hT ▷ cT",
        }
    }
}

/// Pre-processing / pooling dataflows — paper Tables 8, 9, 10.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PreprocDataflow {
    /// One whole channel (or channel group) per tile.
    ChannelWise,
    /// Spatial tiles, movement along the channel (`h_T ▷ w_T ▷ c_T`).
    TileAlongChannel,
    /// Spatial tiles, movement along width/height (`c_T ▷ h_T ▷ w_T`).
    TileAlongSpace,
    /// All channels of a spatial tile resident (`h_T ▷ w_T`).
    FullChannel,
}

impl PreprocDataflow {
    /// Every pre-processing dataflow.
    pub const ALL: [Self; 4] = [
        Self::ChannelWise,
        Self::TileAlongChannel,
        Self::TileAlongSpace,
        Self::FullChannel,
    ];
}

/// A dataflow choice for any layer kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataflow {
    /// Convolution / deconvolution / pooling-as-conv dataflow.
    Conv(ConvDataflow),
    /// Matrix-multiplication dataflow.
    Matmul(MatmulDataflow),
    /// Image pre-processing dataflow.
    Preproc(PreprocDataflow),
}

/// Normalized generator parameters: everything the trace generator and
/// pattern deriver need, independent of layer kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GeneratorSpec {
    /// Schedule shape (pattern family).
    pub shape: ScheduleShape,
    /// How often input tiles are fetched.
    pub ifmap_factor: ReadFactor,
    /// How often weight tiles are fetched.
    pub weight_factor: ReadFactor,
    /// Tile-count ratios after dataflow constraints are applied.
    pub alphas: Alphas,
    /// The tiling after dataflow constraints (e.g. channel-wise forces a
    /// full-spatial tile) are applied.
    pub tiling: TileConfig,
}

/// Errors when resolving a dataflow against a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataflowError {
    /// The dataflow does not apply to this layer kind (e.g. a matmul
    /// dataflow on a convolution).
    KindMismatch {
        /// The offending dataflow.
        dataflow: Dataflow,
    },
    /// The tile configuration is invalid for the layer.
    BadTiling(crate::tiling::TileError),
}

impl std::fmt::Display for DataflowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::KindMismatch { dataflow } => {
                write!(f, "dataflow {dataflow:?} does not apply to this layer kind")
            }
            Self::BadTiling(e) => write!(f, "invalid tiling: {e}"),
        }
    }
}

impl std::error::Error for DataflowError {}

impl From<crate::tiling::TileError> for DataflowError {
    fn from(e: crate::tiling::TileError) -> Self {
        Self::BadTiling(e)
    }
}

impl Dataflow {
    /// Resolves this dataflow against a layer and requested tiling,
    /// normalizing the tiling per the dataflow's structural constraints
    /// (channel-wise ⇒ full-spatial tiles, partial-channel ⇒ `C_T = 1`,
    /// full-channel ⇒ `C_T = C`, …).
    ///
    /// # Errors
    ///
    /// Returns [`DataflowError::KindMismatch`] if the dataflow family
    /// does not match the layer kind, or [`DataflowError::BadTiling`] if
    /// the normalized tiling fails validation.
    pub fn resolve(
        &self,
        layer: &LayerDesc,
        requested: TileConfig,
    ) -> Result<GeneratorSpec, DataflowError> {
        let d = layer.dims();
        let applies = matches!(
            (self, layer.kind),
            (
                Dataflow::Conv(_),
                LayerKind::Conv(_)
                    | LayerKind::Deconv(_)
                    | LayerKind::DepthwiseConv(_)
                    | LayerKind::Pool { .. },
            ) | (
                Dataflow::Matmul(_),
                LayerKind::Matmul(_) | LayerKind::FullyConnected(_)
            ) | (
                Dataflow::Preproc(_),
                LayerKind::Preproc { .. } | LayerKind::Pool { .. }
            )
        );
        if !applies {
            return Err(DataflowError::KindMismatch { dataflow: *self });
        }

        let mut t = requested;
        let (shape, ifmap_factor, weight_factor) = match self {
            Dataflow::Conv(c) => {
                use ConvDataflow as Cd;
                match c {
                    Cd::IrPartialChannelAlongChannel => {
                        t.ct = 1;
                        (
                            ScheduleShape::AccumAlongChannel,
                            ReadFactor::Once,
                            ReadFactor::PerSpatialTile,
                        )
                    }
                    Cd::IrMultiChannelAlongChannel => (
                        ScheduleShape::AccumAlongChannel,
                        ReadFactor::Once,
                        ReadFactor::PerSpatialTile,
                    ),
                    Cd::IrPartialChannelAlongSpace => {
                        t.ct = 1;
                        (
                            ScheduleShape::AccumAlongSpace,
                            ReadFactor::Once,
                            ReadFactor::PerSpatialTile,
                        )
                    }
                    Cd::IrMultiChannelAlongSpace => (
                        ScheduleShape::AccumAlongSpace,
                        ReadFactor::Once,
                        ReadFactor::PerSpatialTile,
                    ),
                    Cd::IrChannelWise => {
                        t.ht = d.h;
                        t.wt = d.w;
                        (
                            ScheduleShape::AccumAlongChannel,
                            ReadFactor::Once,
                            ReadFactor::Once,
                        )
                    }
                    Cd::IrFullChannel => {
                        t.ct = d.c;
                        (
                            ScheduleShape::SingleWrite,
                            ReadFactor::Once,
                            ReadFactor::PerSpatialTile,
                        )
                    }
                    Cd::OrPartialChannel => (
                        ScheduleShape::SingleWrite,
                        ReadFactor::PerOutputGroup,
                        ReadFactor::PerSpatialTile,
                    ),
                    Cd::OrChannelWise => {
                        t.ht = d.h;
                        t.wt = d.w;
                        (
                            ScheduleShape::SingleWrite,
                            ReadFactor::PerOutputGroup,
                            ReadFactor::Once,
                        )
                    }
                    Cd::OrFullChannel => {
                        t.ct = d.c;
                        (
                            ScheduleShape::SingleWrite,
                            ReadFactor::Once,
                            ReadFactor::PerSpatialTile,
                        )
                    }
                    Cd::WrMultiChannelWise => {
                        t.ht = d.h;
                        t.wt = d.w;
                        (
                            ScheduleShape::AccumAlongChannel,
                            ReadFactor::PerOutputGroup,
                            ReadFactor::Once,
                        )
                    }
                    Cd::WrChannelWise => {
                        t.ht = d.h;
                        t.wt = d.w;
                        t.ct = 1;
                        (
                            ScheduleShape::SingleWrite,
                            ReadFactor::PerOutputGroup,
                            ReadFactor::Once,
                        )
                    }
                    Cd::WrFullFilter => {
                        t.ht = d.h;
                        t.wt = d.w;
                        t.ct = d.c;
                        (
                            ScheduleShape::SingleWrite,
                            ReadFactor::PerOutputGroup,
                            ReadFactor::Once,
                        )
                    }
                }
            }
            Dataflow::Matmul(m) => {
                use MatmulDataflow as Md;
                match m {
                    // The generic generator's (spatial, accum, group)
                    // axes map to (hT, cT, wT) for FixP and (wT, cT, hT)
                    // for FixQ; the trace module performs that mapping.
                    Md::FixP | Md::FixQ => (
                        ScheduleShape::AccumAlongChannel,
                        ReadFactor::Once,
                        ReadFactor::PerSpatialTile,
                    ),
                    Md::FixR => (
                        ScheduleShape::SingleWrite,
                        ReadFactor::PerOutputGroup,
                        ReadFactor::PerSpatialTile,
                    ),
                }
            }
            Dataflow::Preproc(p) => {
                use PreprocDataflow as Pd;
                let style = match layer.kind {
                    LayerKind::Preproc { style, .. } => style,
                    _ => PreprocStyle::Style1,
                };
                let accumulates = style == PreprocStyle::Style2 || style == PreprocStyle::Style3;
                match p {
                    Pd::ChannelWise => {
                        t.ht = d.h;
                        t.wt = d.w;
                        if accumulates {
                            // All channels merge; with full-spatial tiles the
                            // output is produced in one shot per group.
                            t.ct = d.c;
                        }
                        (
                            ScheduleShape::SingleWrite,
                            ReadFactor::Once,
                            ReadFactor::Once,
                        )
                    }
                    Pd::TileAlongChannel => {
                        if accumulates {
                            t.ct = d.c;
                        }
                        (
                            ScheduleShape::SingleWrite,
                            ReadFactor::Once,
                            ReadFactor::Once,
                        )
                    }
                    Pd::TileAlongSpace => {
                        if accumulates {
                            (
                                ScheduleShape::AccumAlongSpace,
                                ReadFactor::Once,
                                ReadFactor::Once,
                            )
                        } else {
                            (
                                ScheduleShape::SingleWrite,
                                ReadFactor::Once,
                                ReadFactor::Once,
                            )
                        }
                    }
                    Pd::FullChannel => {
                        t.ct = d.c;
                        (
                            ScheduleShape::SingleWrite,
                            ReadFactor::Once,
                            ReadFactor::Once,
                        )
                    }
                }
            }
        };

        t.validate(layer)?;
        let alphas = self.alphas_for(layer, t);
        Ok(GeneratorSpec {
            shape,
            ifmap_factor,
            weight_factor,
            alphas,
            tiling: t,
        })
    }

    /// Computes the (possibly axis-remapped) alphas. Matmul dataflows map
    /// the generic `(group, accum, spatial)` axes onto `(w, c, h)` for
    /// `FixP`, `(h, c, w)` for `FixQ` and a pure spatial sweep for `FixR`.
    fn alphas_for(&self, layer: &LayerDesc, t: TileConfig) -> Alphas {
        let raw = t.alphas(layer);
        match self {
            Dataflow::Matmul(MatmulDataflow::FixP) => Alphas {
                // group axis = wT columns; spatial axis = hT rows.
                alpha_k: raw.alpha_hw_cols(layer, t),
                alpha_c: raw.alpha_c,
                alpha_hw: raw.alpha_hw_rows(layer, t),
            },
            Dataflow::Matmul(MatmulDataflow::FixQ) => Alphas {
                alpha_k: raw.alpha_hw_rows(layer, t),
                alpha_c: raw.alpha_c,
                alpha_hw: raw.alpha_hw_cols(layer, t),
            },
            Dataflow::Matmul(MatmulDataflow::FixR) => Alphas {
                alpha_k: 1,
                alpha_c: raw.alpha_c,
                alpha_hw: raw.alpha_hw,
            },
            _ => raw,
        }
    }
}

/// Row/column tile-count helpers used by the matmul axis remapping.
trait AlphaAxes {
    fn alpha_hw_rows(&self, layer: &LayerDesc, t: TileConfig) -> u32;
    fn alpha_hw_cols(&self, layer: &LayerDesc, t: TileConfig) -> u32;
}

impl AlphaAxes for Alphas {
    fn alpha_hw_rows(&self, layer: &LayerDesc, t: TileConfig) -> u32 {
        let d = layer.dims();
        d.h.div_ceil(t.ht)
    }
    fn alpha_hw_cols(&self, layer: &LayerDesc, t: TileConfig) -> u32 {
        let d = layer.dims();
        d.w.div_ceil(t.wt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{ConvShape, LayerKind, MatmulShape};

    fn conv_layer() -> LayerDesc {
        LayerDesc::new(0, LayerKind::Conv(ConvShape::simple(32, 16, 32, 3)))
    }

    fn tiling() -> TileConfig {
        TileConfig {
            kt: 8,
            ct: 4,
            ht: 16,
            wt: 16,
        }
    }

    #[test]
    fn partial_channel_forces_single_channel_tiles() {
        let spec = Dataflow::Conv(ConvDataflow::IrPartialChannelAlongChannel)
            .resolve(&conv_layer(), tiling())
            .unwrap();
        assert_eq!(spec.tiling.ct, 1);
        assert_eq!(spec.alphas.alpha_c, 16);
        assert_eq!(spec.shape, ScheduleShape::AccumAlongChannel);
    }

    #[test]
    fn channel_wise_forces_full_spatial_tiles() {
        let spec = Dataflow::Conv(ConvDataflow::IrChannelWise)
            .resolve(&conv_layer(), tiling())
            .unwrap();
        assert_eq!(spec.alphas.alpha_hw, 1);
        assert_eq!(spec.tiling.ht, 32);
        assert_eq!(spec.tiling.wt, 32);
    }

    #[test]
    fn full_channel_is_single_write() {
        let spec = Dataflow::Conv(ConvDataflow::IrFullChannel)
            .resolve(&conv_layer(), tiling())
            .unwrap();
        assert_eq!(spec.shape, ScheduleShape::SingleWrite);
        assert_eq!(spec.alphas.alpha_c, 1);
    }

    #[test]
    fn kind_mismatch_is_rejected() {
        let err = Dataflow::Matmul(MatmulDataflow::FixP).resolve(&conv_layer(), tiling());
        assert!(matches!(err, Err(DataflowError::KindMismatch { .. })));
    }

    #[test]
    fn matmul_fixp_remaps_axes() {
        let layer = LayerDesc::new(1, LayerKind::Matmul(MatmulShape::new(64, 128, 32)));
        let t = TileConfig {
            kt: 1,
            ct: 32,
            ht: 16,
            wt: 8,
        };
        let spec = Dataflow::Matmul(MatmulDataflow::FixP)
            .resolve(&layer, t)
            .unwrap();
        assert_eq!(spec.alphas.alpha_k, 4, "group axis = W/WT = 32/8");
        assert_eq!(spec.alphas.alpha_c, 4, "accum axis = C/CT = 128/32");
        assert_eq!(spec.alphas.alpha_hw, 4, "spatial axis = H/HT = 64/16");
    }

    #[test]
    fn matmul_fixr_is_output_stationary() {
        let layer = LayerDesc::new(1, LayerKind::Matmul(MatmulShape::new(64, 128, 32)));
        let t = TileConfig {
            kt: 1,
            ct: 32,
            ht: 16,
            wt: 8,
        };
        let spec = Dataflow::Matmul(MatmulDataflow::FixR)
            .resolve(&layer, t)
            .unwrap();
        assert_eq!(spec.shape, ScheduleShape::SingleWrite);
        assert_eq!(spec.alphas.alpha_k, 1);
        assert_eq!(spec.alphas.alpha_hw, 4 * 4);
    }

    #[test]
    fn all_conv_dataflows_resolve_on_a_generic_layer() {
        for df in ConvDataflow::ALL {
            let spec = Dataflow::Conv(df).resolve(&conv_layer(), tiling());
            assert!(spec.is_ok(), "{df:?} failed: {spec:?}");
        }
    }
}
