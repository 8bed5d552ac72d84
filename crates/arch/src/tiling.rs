//! Tile configuration: how a layer's `K / C / H / W` dimensions are cut
//! into global-buffer-resident tiles, and the `α` ratios that drive the
//! VN patterns (paper Table 2's `α_K = K/K_T`, `α_C = C/C_T`,
//! `α_HW = H·W / (H_T·W_T)`).

use crate::layer::{LayerDesc, PIXEL_BYTES};

/// Tile sizes along each dimension. A value of the full dimension means
/// "untiled".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TileConfig {
    /// Output channels per tile (`K_T`).
    pub kt: u32,
    /// Input channels per tile (`C_T`).
    pub ct: u32,
    /// Rows per tile (`H_T`).
    pub ht: u32,
    /// Columns per tile (`W_T`).
    pub wt: u32,
}

/// Errors produced when validating a tile configuration against a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TileError {
    /// A tile dimension was zero.
    ZeroDimension,
    /// A tile dimension exceeds the layer dimension.
    TileLargerThanLayer {
        /// Which dimension ("kt", "ct", "ht", "wt").
        dim: &'static str,
    },
}

impl std::fmt::Display for TileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ZeroDimension => write!(f, "tile dimensions must be non-zero"),
            Self::TileLargerThanLayer { dim } => {
                write!(f, "tile dimension `{dim}` exceeds the layer dimension")
            }
        }
    }
}

impl std::error::Error for TileError {}

/// The tile-count ratios of the paper's pattern tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Alphas {
    /// `α_K = ⌈K / K_T⌉` — number of output-channel groups.
    pub alpha_k: u32,
    /// `α_C = ⌈C / C_T⌉` — number of input-channel groups.
    pub alpha_c: u32,
    /// `α_HW = ⌈H/H_T⌉·⌈W/W_T⌉` — number of spatial tiles.
    pub alpha_hw: u32,
}

impl Alphas {
    /// Total number of output tiles in the layer.
    #[must_use]
    pub fn output_tiles(&self) -> u64 {
        u64::from(self.alpha_k) * u64::from(self.alpha_hw)
    }
}

#[inline]
fn ceil_div(a: u32, b: u32) -> u32 {
    debug_assert!(b > 0);
    a.div_ceil(b)
}

impl TileConfig {
    /// A configuration that keeps the whole layer in one tile.
    #[must_use]
    pub fn untiled(layer: &LayerDesc) -> Self {
        let d = layer.dims();
        Self {
            kt: d.k,
            ct: d.c,
            ht: d.h,
            wt: d.w,
        }
    }

    /// Validates the configuration against `layer`.
    ///
    /// # Errors
    ///
    /// Returns [`TileError`] if any dimension is zero or exceeds the
    /// layer's corresponding dimension.
    pub fn validate(&self, layer: &LayerDesc) -> Result<(), TileError> {
        if self.kt == 0 || self.ct == 0 || self.ht == 0 || self.wt == 0 {
            return Err(TileError::ZeroDimension);
        }
        let d = layer.dims();
        for (dim, tile, full) in [
            ("kt", self.kt, d.k),
            ("ct", self.ct, d.c),
            ("ht", self.ht, d.h),
            ("wt", self.wt, d.w),
        ] {
            if tile > full {
                return Err(TileError::TileLargerThanLayer { dim });
            }
        }
        Ok(())
    }

    /// Computes the `α` ratios for `layer` under this tiling.
    #[must_use]
    pub fn alphas(&self, layer: &LayerDesc) -> Alphas {
        let d = layer.dims();
        Alphas {
            alpha_k: ceil_div(d.k, self.kt),
            alpha_c: ceil_div(d.c, self.ct),
            alpha_hw: ceil_div(d.h, self.ht) * ceil_div(d.w, self.wt),
        }
    }

    /// Bytes of one input tile (`C_T × H_T × W_T` pixels, plus filter halo
    /// ignored — the paper's model does the same).
    #[must_use]
    pub fn ifmap_tile_bytes(&self) -> u64 {
        u64::from(self.ct) * u64::from(self.ht) * u64::from(self.wt) * PIXEL_BYTES
    }

    /// Bytes of one output tile (`K_T × H_T × W_T` pixels).
    #[must_use]
    pub fn ofmap_tile_bytes(&self) -> u64 {
        u64::from(self.kt) * u64::from(self.ht) * u64::from(self.wt) * PIXEL_BYTES
    }

    /// Bytes of one weight tile (`K_T × C_T × R × S`).
    #[must_use]
    pub fn weight_tile_bytes(&self, layer: &LayerDesc) -> u64 {
        let d = layer.dims();
        u64::from(self.kt) * u64::from(self.ct) * u64::from(d.r) * u64::from(d.s) * PIXEL_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{ConvShape, LayerKind};

    fn layer() -> LayerDesc {
        LayerDesc::new(0, LayerKind::Conv(ConvShape::simple(64, 32, 56, 3)))
    }

    #[test]
    fn alphas_match_paper_definitions() {
        let t = TileConfig {
            kt: 16,
            ct: 8,
            ht: 14,
            wt: 28,
        };
        let a = t.alphas(&layer());
        assert_eq!(a.alpha_k, 4);
        assert_eq!(a.alpha_c, 4);
        assert_eq!(a.alpha_hw, 4 * 2);
        assert_eq!(a.output_tiles(), 32);
    }

    #[test]
    fn ceil_division_handles_non_divisible_tiles() {
        let t = TileConfig {
            kt: 48,
            ct: 30,
            ht: 50,
            wt: 56,
        };
        let a = t.alphas(&layer());
        assert_eq!(a.alpha_k, 2);
        assert_eq!(a.alpha_c, 2);
        assert_eq!(a.alpha_hw, 2);
    }

    #[test]
    fn validation_rejects_bad_tiles() {
        assert_eq!(
            TileConfig {
                kt: 0,
                ct: 1,
                ht: 1,
                wt: 1
            }
            .validate(&layer()),
            Err(TileError::ZeroDimension)
        );
        assert_eq!(
            TileConfig {
                kt: 128,
                ct: 1,
                ht: 1,
                wt: 1
            }
            .validate(&layer()),
            Err(TileError::TileLargerThanLayer { dim: "kt" })
        );
        assert!(TileConfig::untiled(&layer()).validate(&layer()).is_ok());
    }

    #[test]
    fn tile_byte_sizes() {
        let t = TileConfig {
            kt: 16,
            ct: 8,
            ht: 14,
            wt: 28,
        };
        assert_eq!(t.ifmap_tile_bytes(), 8 * 14 * 28 * 4);
        assert_eq!(t.ofmap_tile_bytes(), 16 * 14 * 28 * 4);
        assert_eq!(t.weight_tile_bytes(&layer()), 16 * 8 * 9 * 4);
    }
}
