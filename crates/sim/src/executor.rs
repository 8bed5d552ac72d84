//! Step-level execution timing: double-buffered overlap of PE-array
//! compute with DRAM transfers, plus non-hideable security overhead.
//!
//! The security engines in `seculator-core` decide *what* extra work each
//! step incurs (metadata bursts, host round trips, crypto latency); this
//! module decides *when* it costs cycles: per-step time is
//! `max(compute, memory) + exposed_security`, the classic double-buffer
//! bound, summed over steps.

/// The cycle cost components of one schedule step.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepCost {
    /// PE-array busy cycles.
    pub compute: u64,
    /// DRAM cycles for data and metadata transfers that stream alongside
    /// compute (hidden when shorter than `compute`).
    pub memory: u64,
    /// Security cycles that cannot be overlapped (synchronous host round
    /// trips, Merkle verification on the critical path, pipeline flushes
    /// at layer boundaries).
    pub exposed_security: u64,
}

impl StepCost {
    /// Total cycles this step occupies under double buffering.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.compute.max(self.memory) + self.exposed_security
    }

    /// Merges another cost into this one (used to accumulate the several
    /// transfers of one step before applying the overlap rule).
    pub fn absorb(&mut self, other: StepCost) {
        self.compute += other.compute;
        self.memory += other.memory;
        self.exposed_security += other.exposed_security;
    }
}

/// Accumulates step costs into a layer total.
///
/// # Examples
///
/// ```
/// use seculator_sim::executor::{LayerTimer, StepCost};
///
/// let mut t = LayerTimer::new();
/// t.charge(StepCost { compute: 100, memory: 60, exposed_security: 5 });
/// assert_eq!(t.total_cycles(), 105, "max(compute, memory) + exposed");
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTimer {
    total_cycles: u64,
    compute_cycles: u64,
    memory_cycles: u64,
    security_cycles: u64,
}

impl LayerTimer {
    /// Creates a zeroed timer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Charges one step.
    pub fn charge(&mut self, cost: StepCost) {
        self.total_cycles += cost.cycles();
        self.compute_cycles += cost.compute;
        self.memory_cycles += cost.memory;
        self.security_cycles += cost.exposed_security;
    }

    /// Charges cycles that serialize with everything (e.g. layer-boundary
    /// MAC verification).
    pub fn charge_serial(&mut self, cycles: u64) {
        self.total_cycles += cycles;
        self.security_cycles += cycles;
    }

    /// Total cycles so far.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.total_cycles
    }

    /// PE busy cycles so far.
    #[must_use]
    pub fn compute_cycles(&self) -> u64 {
        self.compute_cycles
    }

    /// Memory cycles so far (not all of them exposed).
    #[must_use]
    pub fn memory_cycles(&self) -> u64 {
        self.memory_cycles
    }

    /// Non-hideable security cycles so far.
    #[must_use]
    pub fn security_cycles(&self) -> u64 {
        self.security_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_takes_the_max() {
        let c = StepCost {
            compute: 100,
            memory: 60,
            exposed_security: 0,
        };
        assert_eq!(c.cycles(), 100);
        let m = StepCost {
            compute: 60,
            memory: 100,
            exposed_security: 5,
        };
        assert_eq!(m.cycles(), 105);
    }

    #[test]
    fn compute_bound_layers_hide_memory_overhead() {
        // If compute dominates, adding memory below the bound is free.
        let mut t1 = LayerTimer::new();
        t1.charge(StepCost {
            compute: 1000,
            memory: 400,
            exposed_security: 0,
        });
        let mut t2 = LayerTimer::new();
        t2.charge(StepCost {
            compute: 1000,
            memory: 900,
            exposed_security: 0,
        });
        assert_eq!(t1.total_cycles(), t2.total_cycles());
    }

    #[test]
    fn memory_bound_layers_expose_extra_traffic() {
        let mut base = LayerTimer::new();
        base.charge(StepCost {
            compute: 100,
            memory: 400,
            exposed_security: 0,
        });
        let mut secure = LayerTimer::new();
        secure.charge(StepCost {
            compute: 100,
            memory: 500,
            exposed_security: 0,
        });
        assert_eq!(secure.total_cycles() - base.total_cycles(), 100);
    }

    #[test]
    fn serial_charges_add_directly() {
        let mut t = LayerTimer::new();
        t.charge(StepCost {
            compute: 10,
            memory: 20,
            exposed_security: 0,
        });
        t.charge_serial(7);
        assert_eq!(t.total_cycles(), 27);
        assert_eq!(t.security_cycles(), 7);
    }

    #[test]
    fn absorb_accumulates_components() {
        let mut a = StepCost {
            compute: 1,
            memory: 2,
            exposed_security: 3,
        };
        a.absorb(StepCost {
            compute: 10,
            memory: 20,
            exposed_security: 30,
        });
        assert_eq!(
            a,
            StepCost {
                compute: 11,
                memory: 22,
                exposed_security: 33
            }
        );
    }
}
