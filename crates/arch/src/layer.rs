//! Layer descriptors for the workloads the paper characterizes:
//! convolution (and its variants), fully-connected, matrix multiplication,
//! pooling, and the three image pre-processing computation styles
//! (paper §2.2, §5.2, Tables 8–10).

/// Bytes per feature-map element (the paper assumes 4-byte pixels:
/// "Each 64-byte data block can store 16 four-byte pixels", §4.1.1).
pub const PIXEL_BYTES: u64 = 4;

/// Bytes per memory block (the encryption/MAC granularity).
pub const BLOCK_BYTES: u64 = 64;

/// Shape of a (possibly strided, padded) convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConvShape {
    /// Number of output feature maps (`K`).
    pub k: u32,
    /// Number of input feature maps / channels (`C`).
    pub c: u32,
    /// Feature-map rows (`H`). The paper's simplification `ofmap size ==
    /// ifmap size` is kept for pattern analysis; strides shrink the ofmap.
    pub h: u32,
    /// Feature-map columns (`W`).
    pub w: u32,
    /// Filter rows (`R`).
    pub r: u32,
    /// Filter columns (`S`).
    pub s: u32,
    /// Convolution stride (same in both spatial dimensions).
    pub stride: u32,
}

impl ConvShape {
    /// A square convolution with stride 1.
    #[must_use]
    pub fn simple(k: u32, c: u32, hw: u32, rs: u32) -> Self {
        Self {
            k,
            c,
            h: hw,
            w: hw,
            r: rs,
            s: rs,
            stride: 1,
        }
    }

    /// Output feature-map height.
    #[must_use]
    pub fn out_h(&self) -> u32 {
        self.h.div_ceil(self.stride)
    }

    /// Output feature-map width.
    #[must_use]
    pub fn out_w(&self) -> u32 {
        self.w.div_ceil(self.stride)
    }

    /// Number of tunable parameters (weights, no bias).
    #[must_use]
    pub fn params(&self) -> u64 {
        u64::from(self.k) * u64::from(self.c) * u64::from(self.r) * u64::from(self.s)
    }

    /// Multiply-accumulate operations for one inference pass.
    #[must_use]
    pub fn macs(&self) -> u64 {
        u64::from(self.out_h()) * u64::from(self.out_w()) * self.params()
    }
}

/// Shape of a tiled matrix multiplication `R = P × Q` with
/// `P: H×C`, `Q: C×W`, `R: H×W` (paper Table 4's naming).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MatmulShape {
    /// Rows of `P` and `R`.
    pub h: u32,
    /// Inner (contraction) dimension.
    pub c: u32,
    /// Columns of `Q` and `R`.
    pub w: u32,
}

impl MatmulShape {
    /// Creates a matmul shape.
    #[must_use]
    pub fn new(h: u32, c: u32, w: u32) -> Self {
        Self { h, c, w }
    }

    /// Multiply-accumulate operations.
    #[must_use]
    pub fn macs(&self) -> u64 {
        u64::from(self.h) * u64::from(self.c) * u64::from(self.w)
    }
}

/// The image pre-processing computation styles of paper §5.2.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PreprocStyle {
    /// `S_x = T_x(X)`: each output channel depends on exactly one input
    /// channel (also covers pooling — Table 8).
    Style1,
    /// `S = T(R,G,B)`: all input channels merge into one output channel
    /// (Table 9).
    Style2,
    /// `S_i = T_i(R,G,B)`: all input channels merge, via different
    /// transformations, into multiple output channels (Table 10).
    Style3,
}

/// What a layer computes. Every kind reduces, for traffic and VN-pattern
/// purposes, to "read inputs (+weights), accumulate, write outputs".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// Standard convolution.
    Conv(ConvShape),
    /// Transposed/dilated convolution as used by GAN generators. The
    /// pattern machinery treats it as a convolution over the upsampled
    /// input (paper §5.2: "pattern generation approaches for general
    /// convolution will work for any kind of convolution").
    Deconv(ConvShape),
    /// Depthwise convolution (MobileNet): each output channel is produced
    /// from exactly one input channel, so there is no cross-channel
    /// accumulation. `shape.k == shape.c` is the channel count; parameter
    /// and MAC counts scale with `K·R·S` rather than `K·C·R·S`.
    DepthwiseConv(ConvShape),
    /// Fully-connected layer = matmul with H=1 batch rows.
    FullyConnected(MatmulShape),
    /// General matrix multiplication (transformer kernels, Table 4).
    Matmul(MatmulShape),
    /// Pooling with a `window × window` kernel (Table 8's pattern family).
    Pool {
        /// Channels (input == output for pooling).
        c: u32,
        /// Input rows.
        h: u32,
        /// Input columns.
        w: u32,
        /// Pooling window edge (also the stride).
        window: u32,
    },
    /// Image pre-processing of the given style over a `c × h × w` image
    /// producing `k_out` output channels.
    Preproc {
        /// Computation style (1, 2 or 3).
        style: PreprocStyle,
        /// Input channels.
        c: u32,
        /// Output channels (style-2 forces 1).
        k_out: u32,
        /// Image rows.
        h: u32,
        /// Image columns.
        w: u32,
    },
}

/// A layer instance inside a network, with stable tensor identities used
/// by the security machinery (MACs bind to `(fmap id, block index)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LayerDesc {
    /// Layer id (`L` in the MAC formula). Unique within a network.
    pub id: u32,
    /// What the layer computes.
    pub kind: LayerKind,
}

impl LayerDesc {
    /// Creates a layer descriptor.
    #[must_use]
    pub fn new(id: u32, kind: LayerKind) -> Self {
        Self { id, kind }
    }

    /// Logical `K / C / H / W` dimensions used by the tiling machinery
    /// (output channels, input channels, spatial rows, spatial cols).
    /// For matmul, `H×W` maps to the output matrix and `C` to the
    /// contraction dimension; `K` is 1.
    #[must_use]
    pub fn dims(&self) -> LayerDims {
        match self.kind {
            LayerKind::Conv(s) | LayerKind::Deconv(s) | LayerKind::DepthwiseConv(s) => LayerDims {
                k: s.k,
                c: s.c,
                h: s.out_h(),
                w: s.out_w(),
                in_h: s.h,
                in_w: s.w,
                r: s.r,
                s: s.s,
            },
            LayerKind::FullyConnected(m) | LayerKind::Matmul(m) => LayerDims {
                k: 1,
                c: m.c,
                h: m.h,
                w: m.w,
                in_h: m.h,
                in_w: m.c,
                r: 1,
                s: 1,
            },
            LayerKind::Pool { c, h, w, window } => LayerDims {
                k: c,
                c,
                h: h / window.max(1),
                w: w / window.max(1),
                in_h: h,
                in_w: w,
                r: window,
                s: window,
            },
            LayerKind::Preproc {
                style,
                c,
                k_out,
                h,
                w,
            } => {
                let k = match style {
                    PreprocStyle::Style2 => 1,
                    _ => k_out,
                };
                LayerDims {
                    k,
                    c,
                    h,
                    w,
                    in_h: h,
                    in_w: w,
                    r: 1,
                    s: 1,
                }
            }
        }
    }

    /// Bytes of input feature-map data read at least once.
    #[must_use]
    pub fn ifmap_bytes(&self) -> u64 {
        let d = self.dims();
        u64::from(d.c) * u64::from(d.in_h) * u64::from(d.in_w) * PIXEL_BYTES
    }

    /// Bytes of output feature-map data.
    #[must_use]
    pub fn ofmap_bytes(&self) -> u64 {
        let d = self.dims();
        u64::from(d.k) * u64::from(d.h) * u64::from(d.w) * PIXEL_BYTES
    }

    /// Bytes of filter weights.
    #[must_use]
    pub fn weight_bytes(&self) -> u64 {
        self.params() * PIXEL_BYTES
    }

    /// Tunable parameter count.
    #[must_use]
    pub fn params(&self) -> u64 {
        match self.kind {
            LayerKind::Conv(s) | LayerKind::Deconv(s) => s.params(),
            LayerKind::DepthwiseConv(s) => u64::from(s.k) * u64::from(s.r) * u64::from(s.s),
            LayerKind::FullyConnected(m) | LayerKind::Matmul(m) => u64::from(m.c) * u64::from(m.w),
            LayerKind::Pool { .. } => 0,
            LayerKind::Preproc { .. } => 0,
        }
    }

    /// Multiply-accumulate operations for one inference pass.
    #[must_use]
    pub fn macs(&self) -> u64 {
        match self.kind {
            LayerKind::Conv(s) | LayerKind::Deconv(s) => s.macs(),
            LayerKind::DepthwiseConv(s) => {
                u64::from(s.out_h())
                    * u64::from(s.out_w())
                    * u64::from(s.k)
                    * u64::from(s.r)
                    * u64::from(s.s)
            }
            LayerKind::FullyConnected(m) | LayerKind::Matmul(m) => m.macs(),
            LayerKind::Pool { c, h, w, window } => {
                u64::from(c) * u64::from(h) * u64::from(w) / u64::from(window.max(1))
            }
            LayerKind::Preproc { c, h, w, .. } => u64::from(c) * u64::from(h) * u64::from(w),
        }
    }
}

/// Normalized dimensions every layer kind exposes to the tiler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LayerDims {
    /// Output channels (or output groups).
    pub k: u32,
    /// Input channels (accumulation depth).
    pub c: u32,
    /// Output rows.
    pub h: u32,
    /// Output columns.
    pub w: u32,
    /// Input rows.
    pub in_h: u32,
    /// Input columns.
    pub in_w: u32,
    /// Filter rows.
    pub r: u32,
    /// Filter columns.
    pub s: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_derived_quantities() {
        let s = ConvShape::simple(64, 3, 224, 3);
        assert_eq!(s.params(), 64 * 3 * 9);
        assert_eq!(s.macs(), 224 * 224 * 64 * 3 * 9);
        let layer = LayerDesc::new(0, LayerKind::Conv(s));
        assert_eq!(layer.ifmap_bytes(), 3 * 224 * 224 * 4);
        assert_eq!(layer.ofmap_bytes(), 64 * 224 * 224 * 4);
        assert_eq!(layer.weight_bytes(), 64 * 3 * 9 * 4);
    }

    #[test]
    fn strided_conv_shrinks_ofmap() {
        let s = ConvShape {
            k: 64,
            c: 3,
            h: 224,
            w: 224,
            r: 7,
            s: 7,
            stride: 2,
        };
        assert_eq!(s.out_h(), 112);
        assert_eq!(s.out_w(), 112);
    }

    #[test]
    fn matmul_maps_contraction_to_c() {
        let layer = LayerDesc::new(1, LayerKind::Matmul(MatmulShape::new(128, 512, 64)));
        let d = layer.dims();
        assert_eq!((d.h, d.c, d.w), (128, 512, 64));
        assert_eq!(layer.macs(), 128 * 512 * 64);
        assert_eq!(layer.params(), 512 * 64);
    }

    #[test]
    fn pool_has_no_params_and_shrinks() {
        let layer = LayerDesc::new(
            2,
            LayerKind::Pool {
                c: 64,
                h: 112,
                w: 112,
                window: 2,
            },
        );
        assert_eq!(layer.params(), 0);
        let d = layer.dims();
        assert_eq!((d.h, d.w), (56, 56));
        assert_eq!(d.k, 64);
    }

    #[test]
    fn preproc_style2_has_single_output_channel() {
        let layer = LayerDesc::new(
            3,
            LayerKind::Preproc {
                style: PreprocStyle::Style2,
                c: 3,
                k_out: 3,
                h: 32,
                w: 32,
            },
        );
        assert_eq!(layer.dims().k, 1);
    }
}
