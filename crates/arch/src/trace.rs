//! Tile-level memory-access trace generation.
//!
//! A [`LayerSchedule`] binds a layer, a dataflow, and a tiling, and can
//! replay the exact sequence of global-buffer ⇄ DRAM tile transfers the
//! NPU performs (the paper's "read-observer / write-observer" view, §5).
//! The security engines in `seculator-core` consume these events to drive
//! encryption, MAC aggregation, and VN generation; `seculator-sim`
//! consumes them to charge DRAM/cache/crypto cycles.

use crate::dataflow::{
    Dataflow, DataflowError, GeneratorSpec, MatmulDataflow, ReadFactor, ScheduleShape,
};
use crate::layer::{LayerDesc, PIXEL_BYTES};
use crate::pattern::{read_pattern, write_pattern, PatternSpec};
use crate::tiling::TileConfig;

/// Which tensor of the layer an access touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TensorClass {
    /// Input feature maps (the previous layer's outputs, or the image).
    Ifmap,
    /// Filter weights / the stationary matmul operand.
    Weight,
    /// Output feature maps.
    Ofmap,
}

/// Direction of a tile transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessOp {
    /// DRAM → global buffer.
    Read,
    /// Global buffer → DRAM (eviction).
    Write,
}

/// One tile transfer between the global buffer and DRAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TileAccess {
    /// Tensor touched.
    pub tensor: TensorClass,
    /// Read or write.
    pub op: AccessOp,
    /// Dense tile index within this layer's tile space for the tensor.
    pub tile: u64,
    /// Transfer size in bytes.
    pub bytes: u64,
    /// Version number the transfer is performed under. For ofmap writes
    /// this is the *new* VN; for ofmap reads the VN it was last written
    /// with; for ifmap reads the producer layer's final VN.
    pub vn: u32,
    /// For reads: whether this is the first read of the tile within this
    /// layer (feeds the `MAC_FR` register). Always `false` for writes.
    pub first_read: bool,
    /// For ofmap writes: whether this is the tile's final version (never
    /// read back within this layer; read by the next layer instead).
    pub last_write: bool,
}

/// One schedule step: the tile transfers for one inner-loop iteration
/// plus the compute work the PE array performs for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Step {
    /// Transfers, in issue order (reads precede the write).
    pub accesses: Vec<TileAccess>,
    /// Multiply-accumulate operations in this step.
    pub macs: u64,
}

/// Aggregate DRAM traffic for a layer under a schedule, in bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficSummary {
    /// Ifmap bytes read.
    pub ifmap_read: u64,
    /// Weight bytes read.
    pub weight_read: u64,
    /// Partially-computed ofmap bytes read back.
    pub ofmap_read: u64,
    /// Ofmap bytes written (including intermediate versions).
    pub ofmap_write: u64,
}

impl TrafficSummary {
    /// Total bytes moved.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.ifmap_read + self.weight_read + self.ofmap_read + self.ofmap_write
    }

    /// Total read bytes.
    #[must_use]
    pub fn reads(&self) -> u64 {
        self.ifmap_read + self.weight_read + self.ofmap_read
    }
}

/// A fully-resolved execution schedule for one layer.
#[derive(Debug, Clone)]
pub struct LayerSchedule {
    layer: LayerDesc,
    dataflow: Dataflow,
    spec: GeneratorSpec,
}

impl LayerSchedule {
    /// Resolves `dataflow` against `layer` and `tiling`.
    ///
    /// # Errors
    ///
    /// Propagates [`DataflowError`] from [`Dataflow::resolve`].
    pub fn new(
        layer: LayerDesc,
        dataflow: Dataflow,
        tiling: TileConfig,
    ) -> Result<Self, DataflowError> {
        let spec = dataflow.resolve(&layer, tiling)?;
        Ok(Self {
            layer,
            dataflow,
            spec,
        })
    }

    /// The layer this schedule executes.
    #[must_use]
    pub fn layer(&self) -> &LayerDesc {
        &self.layer
    }

    /// The dataflow in use.
    #[must_use]
    pub fn dataflow(&self) -> Dataflow {
        self.dataflow
    }

    /// The resolved generator parameters (normalized tiling + alphas).
    #[must_use]
    pub fn spec(&self) -> &GeneratorSpec {
        &self.spec
    }

    /// The master-equation triplet for ofmap *writes* — what the host
    /// ships to Seculator's VN generator for this layer.
    #[must_use]
    pub fn write_pattern(&self) -> PatternSpec {
        write_pattern(self.spec.shape, self.spec.alphas)
    }

    /// The master-equation triplet for partial-ofmap *reads*, if any.
    #[must_use]
    pub fn read_pattern(&self) -> Option<PatternSpec> {
        read_pattern(self.spec.shape, self.spec.alphas)
    }

    /// Bytes of one ifmap tile under this schedule.
    #[must_use]
    pub fn ifmap_tile_bytes(&self) -> u64 {
        let t = self.spec.tiling;
        match self.dataflow {
            Dataflow::Matmul(MatmulDataflow::FixQ) => {
                u64::from(t.ct) * u64::from(t.wt) * PIXEL_BYTES
            }
            Dataflow::Matmul(_) => u64::from(t.ht) * u64::from(t.ct) * PIXEL_BYTES,
            _ => t.ifmap_tile_bytes(),
        }
    }

    /// Bytes of one weight tile under this schedule (0 for layers with no
    /// weights, e.g. pooling and pre-processing).
    #[must_use]
    pub fn weight_tile_bytes(&self) -> u64 {
        let t = self.spec.tiling;
        match self.dataflow {
            Dataflow::Matmul(MatmulDataflow::FixQ) => {
                u64::from(t.ht) * u64::from(t.ct) * PIXEL_BYTES
            }
            Dataflow::Matmul(_) => u64::from(t.ct) * u64::from(t.wt) * PIXEL_BYTES,
            Dataflow::Preproc(_) => 0,
            Dataflow::Conv(_) => {
                if self.layer.params() == 0 {
                    0
                } else {
                    t.weight_tile_bytes(&self.layer)
                }
            }
        }
    }

    /// Bytes of one ofmap tile under this schedule.
    #[must_use]
    pub fn ofmap_tile_bytes(&self) -> u64 {
        let t = self.spec.tiling;
        match self.dataflow {
            Dataflow::Matmul(_) => u64::from(t.ht) * u64::from(t.wt) * PIXEL_BYTES,
            _ => t.ofmap_tile_bytes(),
        }
    }

    /// Global-buffer bytes the schedule keeps resident at a time
    /// (one tile of each operand, double-buffered).
    #[must_use]
    pub fn resident_bytes(&self) -> u64 {
        2 * (self.ifmap_tile_bytes() + self.weight_tile_bytes() + self.ofmap_tile_bytes())
    }

    /// Number of ofmap tiles (`α_K · α_HW`).
    #[must_use]
    pub fn ofmap_tiles(&self) -> u64 {
        self.spec.alphas.output_tiles()
    }

    /// Number of ifmap tiles (`α_C · α_HW` for conv; operand tiles for
    /// matmul).
    #[must_use]
    pub fn ifmap_tiles(&self) -> u64 {
        let a = self.spec.alphas;
        u64::from(a.alpha_c) * u64::from(a.alpha_hw)
    }

    /// Visits every step of the schedule in execution order.
    ///
    /// This is the streaming interface: a VGG-scale layer can have tens
    /// of thousands of steps, so consumers that only need aggregate
    /// statistics should not collect them.
    pub fn for_each_step<F: FnMut(&Step)>(&self, mut f: F) {
        let a = self.spec.alphas;
        let (ak, ac, ahw) = (
            u64::from(a.alpha_k),
            u64::from(a.alpha_c),
            u64::from(a.alpha_hw),
        );
        let ifmap_b = self.ifmap_tile_bytes();
        let weight_b = self.weight_tile_bytes();
        let ofmap_b = self.ofmap_tile_bytes();
        let total_macs = self.layer.macs();

        let mut step = Step {
            accesses: Vec::with_capacity(4),
            macs: 0,
        };
        match self.spec.shape {
            ScheduleShape::AccumAlongChannel => {
                let macs_per = total_macs / (ahw * ac * ak).max(1);
                for st in 0..ahw {
                    for ct in 0..ac {
                        for kt in 0..ak {
                            step.accesses.clear();
                            step.macs = macs_per;
                            let read_ifmap = match self.spec.ifmap_factor {
                                ReadFactor::Once => kt == 0,
                                ReadFactor::PerOutputGroup => true,
                                ReadFactor::PerSpatialTile => kt == 0,
                            };
                            if read_ifmap && ifmap_b > 0 {
                                step.accesses.push(TileAccess {
                                    tensor: TensorClass::Ifmap,
                                    op: AccessOp::Read,
                                    tile: st * ac + ct,
                                    bytes: ifmap_b,
                                    vn: 0,
                                    first_read: matches!(
                                        self.spec.ifmap_factor,
                                        ReadFactor::Once | ReadFactor::PerSpatialTile
                                    ) || kt == 0,
                                    last_write: false,
                                });
                            }
                            let read_weight = match self.spec.weight_factor {
                                ReadFactor::Once => st == 0,
                                _ => true,
                            };
                            if read_weight && weight_b > 0 {
                                step.accesses.push(TileAccess {
                                    tensor: TensorClass::Weight,
                                    op: AccessOp::Read,
                                    tile: ct * ak + kt,
                                    bytes: weight_b,
                                    vn: 0,
                                    first_read: st == 0,
                                    last_write: false,
                                });
                            }
                            if ct > 0 {
                                step.accesses.push(TileAccess {
                                    tensor: TensorClass::Ofmap,
                                    op: AccessOp::Read,
                                    tile: st * ak + kt,
                                    bytes: ofmap_b,
                                    vn: ct as u32,
                                    first_read: false,
                                    last_write: false,
                                });
                            }
                            step.accesses.push(TileAccess {
                                tensor: TensorClass::Ofmap,
                                op: AccessOp::Write,
                                tile: st * ak + kt,
                                bytes: ofmap_b,
                                vn: ct as u32 + 1,
                                first_read: false,
                                last_write: ct == ac - 1,
                            });
                            f(&step);
                        }
                    }
                }
            }
            ScheduleShape::AccumAlongSpace => {
                let macs_per = total_macs / (ahw * ac * ak).max(1);
                for ct in 0..ac {
                    for st in 0..ahw {
                        for kt in 0..ak {
                            step.accesses.clear();
                            step.macs = macs_per;
                            if kt == 0 && ifmap_b > 0 {
                                step.accesses.push(TileAccess {
                                    tensor: TensorClass::Ifmap,
                                    op: AccessOp::Read,
                                    tile: st * ac + ct,
                                    bytes: ifmap_b,
                                    vn: 0,
                                    first_read: true,
                                    last_write: false,
                                });
                            }
                            let read_weight = match self.spec.weight_factor {
                                ReadFactor::Once => st == 0,
                                _ => true,
                            };
                            if read_weight && weight_b > 0 {
                                step.accesses.push(TileAccess {
                                    tensor: TensorClass::Weight,
                                    op: AccessOp::Read,
                                    tile: ct * ak + kt,
                                    bytes: weight_b,
                                    vn: 0,
                                    first_read: st == 0,
                                    last_write: false,
                                });
                            }
                            if ct > 0 {
                                step.accesses.push(TileAccess {
                                    tensor: TensorClass::Ofmap,
                                    op: AccessOp::Read,
                                    tile: st * ak + kt,
                                    bytes: ofmap_b,
                                    vn: ct as u32,
                                    first_read: false,
                                    last_write: false,
                                });
                            }
                            step.accesses.push(TileAccess {
                                tensor: TensorClass::Ofmap,
                                op: AccessOp::Write,
                                tile: st * ak + kt,
                                bytes: ofmap_b,
                                vn: ct as u32 + 1,
                                first_read: false,
                                last_write: ct == ac - 1,
                            });
                            f(&step);
                        }
                    }
                }
            }
            ScheduleShape::SingleWrite => {
                let macs_per = total_macs / (ahw * ak).max(1);
                for st in 0..ahw {
                    for kt in 0..ak {
                        step.accesses.clear();
                        step.macs = macs_per;
                        for ct in 0..ac {
                            let read_ifmap = match self.spec.ifmap_factor {
                                ReadFactor::Once => kt == 0,
                                ReadFactor::PerOutputGroup => true,
                                ReadFactor::PerSpatialTile => kt == 0,
                            };
                            if read_ifmap && ifmap_b > 0 {
                                step.accesses.push(TileAccess {
                                    tensor: TensorClass::Ifmap,
                                    op: AccessOp::Read,
                                    tile: st * ac + ct,
                                    bytes: ifmap_b,
                                    vn: 0,
                                    first_read: kt == 0,
                                    last_write: false,
                                });
                            }
                            let read_weight = match self.spec.weight_factor {
                                ReadFactor::Once => st == 0,
                                _ => true,
                            };
                            if read_weight && weight_b > 0 {
                                step.accesses.push(TileAccess {
                                    tensor: TensorClass::Weight,
                                    op: AccessOp::Read,
                                    tile: ct * ak + kt,
                                    bytes: weight_b,
                                    vn: 0,
                                    first_read: st == 0,
                                    last_write: false,
                                });
                            }
                        }
                        step.accesses.push(TileAccess {
                            tensor: TensorClass::Ofmap,
                            op: AccessOp::Write,
                            tile: st * ak + kt,
                            bytes: ofmap_b,
                            vn: 1,
                            first_read: false,
                            last_write: true,
                        });
                        f(&step);
                    }
                }
            }
        }
    }

    /// Collects the full step list (use only for small layers / tests).
    #[must_use]
    pub fn steps(&self) -> Vec<Step> {
        let mut out = Vec::new();
        self.for_each_step(|s| out.push(s.clone()));
        out
    }

    /// Analytic DRAM traffic totals (must agree with summing the trace —
    /// property-tested).
    #[must_use]
    pub fn traffic(&self) -> TrafficSummary {
        let a = self.spec.alphas;
        let (ak, ac, ahw) = (
            u64::from(a.alpha_k),
            u64::from(a.alpha_c),
            u64::from(a.alpha_hw),
        );
        let ifmap_tiles = ac * ahw;
        let ifmap_factor = match self.spec.ifmap_factor {
            ReadFactor::Once | ReadFactor::PerSpatialTile => 1,
            ReadFactor::PerOutputGroup => ak,
        };
        let weight_tiles = ac * ak;
        let weight_factor = match self.spec.weight_factor {
            ReadFactor::Once => 1,
            _ => ahw,
        };
        let (ofmap_writes, ofmap_reads) = match self.spec.shape {
            ScheduleShape::SingleWrite => (1, 0),
            _ => (ac, ac - 1),
        };
        TrafficSummary {
            ifmap_read: ifmap_tiles * ifmap_factor * self.ifmap_tile_bytes(),
            weight_read: weight_tiles * weight_factor * self.weight_tile_bytes(),
            ofmap_read: ak * ahw * ofmap_reads * self.ofmap_tile_bytes(),
            ofmap_write: ak * ahw * ofmap_writes * self.ofmap_tile_bytes(),
        }
    }

    /// Renders the schedule as an annotated loop nest — the form the
    /// paper's tables describe mappings in.
    #[must_use]
    pub fn describe(&self) -> String {
        let a = self.spec.alphas;
        let t = self.spec.tiling;
        let (outer, mid, inner) = match self.spec.shape {
            crate::dataflow::ScheduleShape::AccumAlongChannel => (
                format!("for st in 0..{} (spatial tiles)", a.alpha_hw),
                format!("for ct in 0..{} (channel groups)", a.alpha_c),
                format!("for kt in 0..{} (output groups)", a.alpha_k),
            ),
            crate::dataflow::ScheduleShape::AccumAlongSpace => (
                format!("for ct in 0..{} (channel groups)", a.alpha_c),
                format!("for st in 0..{} (spatial tiles)", a.alpha_hw),
                format!("for kt in 0..{} (output groups)", a.alpha_k),
            ),
            crate::dataflow::ScheduleShape::SingleWrite => (
                format!("for st in 0..{} (spatial tiles)", a.alpha_hw),
                format!("for kt in 0..{} (output groups)", a.alpha_k),
                format!("for ct in 0..{} (channel groups, on-chip)", a.alpha_c),
            ),
        };
        format!(
            "layer {} — {:?}\n{outer}\n  {mid}\n    {inner}\n      \
             tile: KT={} CT={} HT={} WT={} ({} B in / {} B w / {} B out)\n\
             write pattern: {}  read pattern: {}",
            self.layer.id,
            self.dataflow,
            t.kt,
            t.ct,
            t.ht,
            t.wt,
            self.ifmap_tile_bytes(),
            self.weight_tile_bytes(),
            self.ofmap_tile_bytes(),
            self.write_pattern().notation(),
            self.read_pattern()
                .map_or_else(|| "–".to_string(), |p| p.notation()),
        )
    }

    /// The VN sequence the write-observer sees, extracted from the trace
    /// (for validating the pattern formula against the actual schedule).
    #[must_use]
    pub fn observed_write_vns(&self) -> Vec<u32> {
        let mut vns = Vec::new();
        self.for_each_step(|s| {
            for a in &s.accesses {
                if a.tensor == TensorClass::Ofmap && a.op == AccessOp::Write {
                    vns.push(a.vn);
                }
            }
        });
        vns
    }

    /// The VN sequence the read-observer sees for partial ofmap reads.
    #[must_use]
    pub fn observed_read_vns(&self) -> Vec<u32> {
        let mut vns = Vec::new();
        self.for_each_step(|s| {
            for a in &s.accesses {
                if a.tensor == TensorClass::Ofmap && a.op == AccessOp::Read {
                    vns.push(a.vn);
                }
            }
        });
        vns
    }
}

/// Reference model for validating the hardware VN generator: an explicit
/// per-tile version table, bumped on every eviction — exactly what TNPU's
/// Tensor Table stores and what Seculator replaces with a formula.
#[derive(Debug, Clone, Default)]
pub struct ReferenceVnTable {
    versions: std::collections::HashMap<u64, u32>,
    write_log: Vec<u32>,
}

impl ReferenceVnTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an ofmap tile eviction: bumps the tile's VN and logs it.
    pub fn record_write(&mut self, tile: u64) -> u32 {
        let vn = self.versions.entry(tile).or_insert(0);
        *vn += 1;
        self.write_log.push(*vn);
        *vn
    }

    /// Current VN of a tile (0 if never written).
    #[must_use]
    pub fn current(&self, tile: u64) -> u32 {
        self.versions.get(&tile).copied().unwrap_or(0)
    }

    /// The logged write-VN sequence.
    #[must_use]
    pub fn write_log(&self) -> &[u32] {
        &self.write_log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::ConvDataflow;
    use crate::layer::{ConvShape, LayerKind};

    fn schedule(df: ConvDataflow) -> LayerSchedule {
        let layer = LayerDesc::new(0, LayerKind::Conv(ConvShape::simple(8, 4, 16, 3)));
        let tiling = TileConfig {
            kt: 4,
            ct: 2,
            ht: 8,
            wt: 8,
        };
        LayerSchedule::new(layer, Dataflow::Conv(df), tiling).unwrap()
    }

    #[test]
    fn write_vns_match_pattern_formula_for_all_dataflows() {
        for df in ConvDataflow::ALL {
            let s = schedule(df);
            let observed = s.observed_write_vns();
            let predicted: Vec<u32> = s.write_pattern().iter().collect();
            assert_eq!(observed, predicted, "write pattern mismatch for {df:?}");
        }
    }

    #[test]
    fn read_vns_match_pattern_formula_for_all_dataflows() {
        for df in ConvDataflow::ALL {
            let s = schedule(df);
            let observed = s.observed_read_vns();
            let predicted: Vec<u32> = s
                .read_pattern()
                .map(|p| p.iter().collect())
                .unwrap_or_default();
            assert_eq!(observed, predicted, "read pattern mismatch for {df:?}");
        }
    }

    #[test]
    fn reference_table_agrees_with_generator() {
        for df in ConvDataflow::ALL {
            let s = schedule(df);
            let mut table = ReferenceVnTable::new();
            s.for_each_step(|step| {
                for a in &step.accesses {
                    if a.tensor == TensorClass::Ofmap && a.op == AccessOp::Write {
                        let vn = table.record_write(a.tile);
                        assert_eq!(vn, a.vn, "table VN diverges from formula for {df:?}");
                    }
                }
            });
            assert_eq!(
                table.write_log(),
                &s.write_pattern().iter().collect::<Vec<_>>()[..]
            );
        }
    }

    #[test]
    fn traffic_summary_matches_trace_totals() {
        for df in ConvDataflow::ALL {
            let s = schedule(df);
            let mut actual = TrafficSummary::default();
            s.for_each_step(|step| {
                for a in &step.accesses {
                    match (a.tensor, a.op) {
                        (TensorClass::Ifmap, AccessOp::Read) => actual.ifmap_read += a.bytes,
                        (TensorClass::Weight, AccessOp::Read) => actual.weight_read += a.bytes,
                        (TensorClass::Ofmap, AccessOp::Read) => actual.ofmap_read += a.bytes,
                        (TensorClass::Ofmap, AccessOp::Write) => actual.ofmap_write += a.bytes,
                        _ => panic!("unexpected access combination"),
                    }
                }
            });
            assert_eq!(actual, s.traffic(), "traffic mismatch for {df:?}");
        }
    }

    #[test]
    fn partial_reads_precede_rewrites_and_final_write_is_marked() {
        let s = schedule(ConvDataflow::IrMultiChannelAlongChannel);
        let mut last_writes = 0;
        let mut total_writes = 0;
        s.for_each_step(|step| {
            for a in &step.accesses {
                if a.tensor == TensorClass::Ofmap && a.op == AccessOp::Write {
                    total_writes += 1;
                    if a.last_write {
                        last_writes += 1;
                        assert_eq!(a.vn, s.spec().alphas.alpha_c, "final VN must be κ");
                    }
                }
            }
        });
        assert_eq!(last_writes as u64, s.ofmap_tiles());
        assert_eq!(total_writes as u64, s.write_pattern().len());
    }

    #[test]
    fn every_ifmap_tile_is_first_read_exactly_once() {
        for df in ConvDataflow::ALL {
            let s = schedule(df);
            let mut first_reads = std::collections::HashSet::new();
            let mut seen = std::collections::HashSet::new();
            s.for_each_step(|step| {
                for a in &step.accesses {
                    if a.tensor == TensorClass::Ifmap && a.op == AccessOp::Read {
                        if a.first_read {
                            assert!(
                                first_reads.insert(a.tile),
                                "tile {} first-read twice under {df:?}",
                                a.tile
                            );
                            assert!(
                                !seen.contains(&a.tile),
                                "non-first read happened before first read under {df:?}"
                            );
                        }
                        seen.insert(a.tile);
                    }
                }
            });
            assert_eq!(
                first_reads.len() as u64,
                s.ifmap_tiles(),
                "every ifmap tile must be first-read once under {df:?}"
            );
            assert_eq!(
                first_reads, seen,
                "reads of never-first-read tiles under {df:?}"
            );
        }
    }

    #[test]
    fn describe_renders_loop_nest_with_key_parameters() {
        let s = schedule(ConvDataflow::IrMultiChannelAlongChannel);
        let d = s.describe();
        assert!(d.contains("for st"), "{d}");
        assert!(d.contains("channel groups"), "{d}");
        assert!(d.contains("write pattern"), "{d}");
        assert!(d.contains("KT=4"), "{d}");
    }

    #[test]
    fn pooling_layers_emit_no_weight_traffic() {
        let layer = LayerDesc::new(
            3,
            LayerKind::Pool {
                c: 8,
                h: 16,
                w: 16,
                window: 2,
            },
        );
        let s = LayerSchedule::new(
            layer,
            Dataflow::Conv(ConvDataflow::IrFullChannel),
            TileConfig {
                kt: 8,
                ct: 8,
                ht: 4,
                wt: 4,
            },
        )
        .unwrap();
        assert_eq!(s.traffic().weight_read, 0);
    }
}
