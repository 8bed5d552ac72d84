//! Work counts derived from layer shapes alone: output size, MACs, and
//! the 64-byte blocks the secure datapath seals per layer tile.

use seculator_core::QConvLayer;

/// `(channels, rows, cols)` of a feature map.
pub type Shape = (usize, usize, usize);

/// Bytes per sealed block; one block holds 16 `i32` accumulators.
pub const BLOCK_BYTES: usize = 64;

/// Output shape of a "same"-padded convolution.
#[must_use]
pub fn conv_out(layer: &QConvLayer, input: Shape) -> Shape {
    let (_, h, w) = input;
    (
        layer.weights.k,
        h.div_ceil(layer.stride),
        w.div_ceil(layer.stride),
    )
}

/// Multiply-accumulates of one layer: every output element sums
/// `c × r × s` products, however the channels are grouped.
#[must_use]
pub fn macs(layer: &QConvLayer, input: Shape) -> u64 {
    let (k, oh, ow) = conv_out(layer, input);
    let wt = &layer.weights;
    (k * oh * ow * wt.c * wt.r * wt.s) as u64
}

/// Blocks in one sealed accumulator tile of the layer (`i32` outputs,
/// zero-padded to whole blocks).
#[must_use]
pub fn tile_blocks(layer: &QConvLayer, input: Shape) -> u64 {
    let (k, oh, ow) = conv_out(layer, input);
    (k * oh * ow * 4).div_ceil(BLOCK_BYTES) as u64
}

/// Per-layer input shapes of a network, starting from `input`.
#[must_use]
pub fn input_shapes(layers: &[QConvLayer], input: Shape) -> Vec<Shape> {
    let mut shapes = Vec::with_capacity(layers.len());
    let mut cur = input;
    for l in layers {
        shapes.push(cur);
        cur = conv_out(l, cur);
    }
    shapes
}

#[cfg(test)]
mod tests {
    use super::*;
    use seculator_compute::quant::{qconv2d, QTensor3, QTensor4};

    #[test]
    fn counts_from_shapes() {
        let l = QConvLayer {
            weights: QTensor4::seeded(16, 3, 3, 3, 1),
            stride: 1,
            channel_groups: vec![0..1, 1..3],
        };
        assert_eq!(conv_out(&l, (3, 32, 32)), (16, 32, 32));
        assert_eq!(macs(&l, (3, 32, 32)), 16 * 32 * 32 * 27);
        assert_eq!(tile_blocks(&l, (3, 32, 32)), 16 * 32 * 32 / 16);
        let s2 = QConvLayer::simple(QTensor4::seeded(3, 2, 3, 3, 2), 2);
        assert_eq!(conv_out(&s2, (2, 5, 5)), (3, 3, 3));
        // 27 accumulators = 108 bytes: two blocks, the second padded.
        assert_eq!(tile_blocks(&s2, (2, 5, 5)), 2);
        assert_eq!(macs(&s2, (2, 5, 5)), 27 * 18);
    }

    #[test]
    fn shapes_match_the_real_convolution() {
        let l = QConvLayer::simple(QTensor4::seeded(5, 4, 3, 3, 3), 2);
        let x = QTensor3::seeded(4, 9, 7, 4);
        let y = qconv2d(&x, &l.weights, l.stride);
        assert_eq!(conv_out(&l, (4, 9, 7)), (y.k, y.h, y.w));
    }

    #[test]
    fn blocks_match_a_sealed_run() {
        let layers = crate::infer::network(7);
        let shapes = input_shapes(&layers, crate::infer::INPUT);
        let max_blocks = layers
            .iter()
            .zip(&shapes)
            .map(|(l, s)| tile_blocks(l, *s))
            .max()
            .unwrap();
        let input = QTensor3::seeded(3, 32, 32, 8);
        let session = seculator_core::SecureSession {
            secret: seculator_crypto::keys::DeviceSecret::from_seed(9),
            nonce: 10,
            shift: crate::infer::SHIFT,
            policy: seculator_core::RecoveryPolicy::default(),
        };
        let mut durable = seculator_core::DurableState::default();
        let mut tracker = seculator_core::PadTracker::new();
        let run = seculator_core::infer_journaled(
            &layers,
            &input,
            &session,
            &mut durable,
            &mut seculator_core::Instruments {
                tracker: &mut tracker,
                injector: None,
                clock: None,
            },
        )
        .unwrap();
        assert_eq!(run.max_layer_blocks, max_blocks);
        assert_eq!(run.commits as usize, layers.len());
        let macs_total: u64 = layers.iter().zip(&shapes).map(|(l, s)| macs(l, *s)).sum();
        assert_eq!(macs_total, crate::infer::macs_per_infer(&layers));
    }
}
