//! Global-buffer occupancy model: a double-buffered scratchpad that
//! tracks how many bytes each operand class holds, detects capacity
//! violations, and reports utilization — the constraint the mapper's
//! `resident_bytes` check enforces statically, validated dynamically
//! here.

/// Operand classes with separate buffer partitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BufferClass {
    /// Input feature-map tiles.
    Ifmap,
    /// Weight tiles.
    Weight,
    /// Output feature-map tiles (accumulators).
    Ofmap,
}

/// Occupancy statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Peak bytes resident at any instant.
    pub peak_bytes: u64,
    /// Number of tile allocations.
    pub allocations: u64,
    /// Number of allocation attempts that exceeded capacity.
    pub overflows: u64,
}

/// A double-buffered global scratchpad.
///
/// Each operand class owns two slots (working + prefetch); `alloc`
/// installs a tile into the prefetch slot and `rotate` promotes prefetch
/// to working — the standard double-buffer discipline that lets DMA
/// overlap compute.
#[derive(Debug, Clone)]
pub struct GlobalBuffer {
    capacity: u64,
    working: [u64; 3],
    prefetch: [u64; 3],
    stats: BufferStats,
}

impl GlobalBuffer {
    /// Creates a buffer of `capacity` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: u64) -> Self {
        assert!(capacity > 0, "buffer capacity must be non-zero");
        Self {
            capacity,
            working: [0; 3],
            prefetch: [0; 3],
            stats: BufferStats::default(),
        }
    }

    fn idx(class: BufferClass) -> usize {
        match class {
            BufferClass::Ifmap => 0,
            BufferClass::Weight => 1,
            BufferClass::Ofmap => 2,
        }
    }

    /// Bytes currently resident (both buffers, all classes).
    #[must_use]
    pub fn resident_bytes(&self) -> u64 {
        self.working.iter().sum::<u64>() + self.prefetch.iter().sum::<u64>()
    }

    /// Fraction of capacity in use.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        self.resident_bytes() as f64 / self.capacity as f64
    }

    /// Installs a tile of `bytes` into the prefetch slot for `class`.
    /// Returns `false` (and counts an overflow) if it does not fit.
    pub fn alloc(&mut self, class: BufferClass, bytes: u64) -> bool {
        let i = Self::idx(class);
        let new_resident = self.resident_bytes() - self.prefetch[i] + bytes;
        if new_resident > self.capacity {
            self.stats.overflows += 1;
            return false;
        }
        self.prefetch[i] = bytes;
        self.stats.allocations += 1;
        self.stats.peak_bytes = self.stats.peak_bytes.max(self.resident_bytes());
        true
    }

    /// Promotes the prefetch slots to working slots (the step boundary).
    pub fn rotate(&mut self) {
        self.working = self.prefetch;
        self.prefetch = [0; 3];
    }

    /// Drops everything (layer boundary).
    pub fn clear(&mut self) {
        self.working = [0; 3];
        self.prefetch = [0; 3];
    }

    /// Statistics so far.
    #[must_use]
    pub fn stats(&self) -> BufferStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_rotate_lifecycle() {
        let mut gb = GlobalBuffer::new(1000);
        assert!(gb.alloc(BufferClass::Ifmap, 300));
        assert!(gb.alloc(BufferClass::Weight, 100));
        assert!(gb.alloc(BufferClass::Ofmap, 200));
        assert_eq!(gb.resident_bytes(), 600);
        gb.rotate();
        assert_eq!(
            gb.resident_bytes(),
            600,
            "working set persists across rotation"
        );
        // Next tiles double-buffer alongside the working set.
        assert!(gb.alloc(BufferClass::Ifmap, 300));
        assert_eq!(gb.resident_bytes(), 900);
    }

    #[test]
    fn overflow_is_detected_and_counted() {
        let mut gb = GlobalBuffer::new(500);
        assert!(gb.alloc(BufferClass::Ifmap, 400));
        gb.rotate();
        assert!(
            !gb.alloc(BufferClass::Ifmap, 200),
            "400 working + 200 prefetch > 500"
        );
        assert_eq!(gb.stats().overflows, 1);
    }

    #[test]
    fn realloc_replaces_prefetch_slot() {
        let mut gb = GlobalBuffer::new(500);
        assert!(gb.alloc(BufferClass::Weight, 100));
        assert!(gb.alloc(BufferClass::Weight, 450), "replacing, not adding");
        assert_eq!(gb.resident_bytes(), 450);
    }

    #[test]
    fn peak_tracks_maximum() {
        let mut gb = GlobalBuffer::new(1000);
        gb.alloc(BufferClass::Ifmap, 700);
        gb.rotate();
        gb.clear();
        gb.alloc(BufferClass::Ifmap, 100);
        assert_eq!(gb.stats().peak_bytes, 700);
        assert!(gb.utilization() < 0.2);
    }

    #[test]
    fn mapper_schedules_fit_dynamically() {
        // Replay a mapped layer's tile sizes through the buffer and
        // confirm the static `resident_bytes` bound holds dynamically.
        use seculator_arch::layer::{ConvShape, LayerDesc, LayerKind};
        use seculator_arch::mapper::{map_layer, MapperConfig};
        let layer = LayerDesc::new(0, LayerKind::Conv(ConvShape::simple(64, 32, 56, 3)));
        let cfg = MapperConfig::default();
        let s = map_layer(&layer, &cfg).unwrap();
        let mut gb = GlobalBuffer::new(cfg.global_buffer_bytes);
        for _ in 0..8 {
            assert!(gb.alloc(BufferClass::Ifmap, s.ifmap_tile_bytes()));
            assert!(gb.alloc(BufferClass::Weight, s.weight_tile_bytes()));
            assert!(gb.alloc(BufferClass::Ofmap, s.ofmap_tile_bytes()));
            gb.rotate();
        }
        assert_eq!(gb.stats().overflows, 0);
        assert!(gb.stats().peak_bytes <= cfg.global_buffer_bytes);
    }
}
