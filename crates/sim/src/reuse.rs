//! Reuse-distance (stack-distance) analysis of a memory access stream —
//! the first-principles explanation of paper Figure 5: a cache of `L`
//! lines hits exactly the accesses whose LRU stack distance is below `L`
//! (for a fully-associative cache), so the distance histogram *predicts*
//! cache behaviour before any cache is simulated.
//!
//! Distances are tracked exactly up to a configurable cap (big enough to
//! cover realistic metadata caches) and lumped beyond it, keeping the
//! analysis linear-ish on streaming traces whose reuse is mostly cold.

/// Histogram of LRU stack distances.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReuseHistogram {
    /// `buckets[d]` = number of accesses with stack distance exactly `d`
    /// (0 = re-access of the most recently used line).
    pub buckets: Vec<u64>,
    /// Accesses whose distance exceeded the cap.
    pub beyond_cap: u64,
    /// First-ever touches (compulsory misses in any cache).
    pub cold: u64,
}

impl ReuseHistogram {
    /// Total accesses recorded.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum::<u64>() + self.beyond_cap + self.cold
    }

    /// Predicted miss rate of a fully-associative LRU cache of
    /// `lines` lines: cold misses + distances ≥ `lines`.
    #[must_use]
    pub fn predicted_miss_rate(&self, lines: usize) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let hits: u64 = self.buckets.iter().take(lines).sum();
        (total - hits) as f64 / total as f64
    }
}

/// Bounded-depth LRU stack for distance measurement.
///
/// # Examples
///
/// ```
/// use seculator_sim::reuse::StackDistance;
///
/// let mut sd = StackDistance::new(16);
/// for line in [1u64, 2, 1, 3, 2] {
///     sd.access(line);
/// }
/// let hist = sd.finish();
/// assert_eq!(hist.cold, 3);
/// // A 2-line cache would hit the distance-1 re-accesses.
/// assert!(hist.predicted_miss_rate(16) < 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct StackDistance {
    stack: Vec<u64>,
    cap: usize,
    buckets: Vec<u64>,
    beyond_cap: u64,
    cold: u64,
    /// Lines that fell off the bounded stack: a re-access counts as
    /// `beyond_cap` rather than `cold`.
    seen: std::collections::HashSet<u64>,
}

impl StackDistance {
    /// Creates an analyzer tracking exact distances up to `cap`.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    #[must_use]
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "cap must be positive");
        Self {
            stack: Vec::with_capacity(cap),
            cap,
            buckets: vec![0; cap],
            beyond_cap: 0,
            cold: 0,
            seen: std::collections::HashSet::new(),
        }
    }

    /// Records an access to `line`.
    pub fn access(&mut self, line: u64) {
        if let Some(pos) = self.stack.iter().position(|&l| l == line) {
            self.buckets[pos] += 1;
            self.stack.remove(pos);
            self.stack.insert(0, line);
            return;
        }
        if self.seen.insert(line) {
            self.cold += 1;
        } else {
            self.beyond_cap += 1;
        }
        self.stack.insert(0, line);
        if self.stack.len() > self.cap {
            self.stack.pop();
        }
    }

    /// Finishes the analysis.
    #[must_use]
    pub fn finish(self) -> ReuseHistogram {
        ReuseHistogram {
            buckets: self.buckets,
            beyond_cap: self.beyond_cap,
            cold: self.cold,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_line_has_distance_zero() {
        let mut sd = StackDistance::new(16);
        sd.access(1);
        sd.access(1);
        sd.access(1);
        let h = sd.finish();
        assert_eq!(h.cold, 1);
        assert_eq!(h.buckets[0], 2);
    }

    #[test]
    fn round_robin_has_distance_n_minus_one() {
        let mut sd = StackDistance::new(16);
        for _ in 0..3 {
            for line in 0..4u64 {
                sd.access(line);
            }
        }
        let h = sd.finish();
        assert_eq!(h.cold, 4);
        assert_eq!(
            h.buckets[3], 8,
            "each revisit sees 3 other lines in between"
        );
    }

    #[test]
    fn prediction_matches_an_actual_lru_cache() {
        // Drive the same pseudo-random trace through the analyzer and a
        // fully-associative LRU cache; the predicted and measured miss
        // rates must agree exactly.
        let mut sd = StackDistance::new(64);
        let mut cache = crate::cache::Cache::new(16 * 64, 64, 16); // 16 lines, 1 set
        let mut state = 12345u64;
        for _ in 0..5000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let line = state % 40; // working set of 40 > 16 lines
            sd.access(line);
            let _ = cache.access(line, false);
        }
        let predicted = sd.finish().predicted_miss_rate(16);
        let measured = cache.stats().miss_rate();
        assert!(
            (predicted - measured).abs() < 1e-12,
            "stack theory: predicted {predicted} vs measured {measured}"
        );
    }

    #[test]
    fn streaming_trace_is_all_cold() {
        let mut sd = StackDistance::new(8);
        for line in 0..1000u64 {
            sd.access(line);
        }
        let h = sd.finish();
        assert_eq!(h.cold, 1000);
        assert!((h.predicted_miss_rate(8) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn beyond_cap_reaccesses_are_not_cold() {
        let mut sd = StackDistance::new(4);
        for line in 0..10u64 {
            sd.access(line);
        }
        sd.access(0); // far beyond the 4-deep stack
        let h = sd.finish();
        assert_eq!(h.cold, 10);
        assert_eq!(h.beyond_cap, 1);
    }
}
