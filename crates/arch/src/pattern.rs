//! The paper's *master equation* for version-number sequences
//! (§5, boxed insight):
//!
//! > All of the patterns can be expressed using a single master equation:
//! > `(1^η, 2^η, …, κ^η)^ρ`, characterized by the triplet `⟨η, κ, ρ⟩`.
//!
//! [`PatternSpec`] is that triplet. [`PatternSpec::vn_at`] is the O(1)
//! "formula processor" the Seculator hardware implements instead of a
//! version-number table; [`VnSequence`] iterates the full sequence for
//! validation and display.

use crate::dataflow::ScheduleShape;
use crate::tiling::Alphas;

/// The master-equation triplet `⟨η, κ, ρ⟩` describing the VN sequence
/// `(1^η, 2^η, …, κ^η)^ρ`.
///
/// # Examples
///
/// ```
/// use seculator_arch::pattern::PatternSpec;
///
/// // 1,1,2,2,3,3 repeated twice
/// let p = PatternSpec::new(2, 3, 2);
/// let seq: Vec<u32> = p.iter().collect();
/// assert_eq!(seq, [1, 1, 2, 2, 3, 3, 1, 1, 2, 2, 3, 3]);
/// assert_eq!(p.vn_at(4), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PatternSpec {
    /// Run length `η` — how many consecutive accesses share a VN.
    pub eta: u64,
    /// Number of distinct VN values `κ` — the accumulation depth.
    pub kappa: u32,
    /// Repetition count `ρ` — how many times the staircase repeats.
    pub rho: u64,
}

impl PatternSpec {
    /// Creates a pattern triplet.
    ///
    /// # Panics
    ///
    /// Panics if any component is zero (the empty pattern is represented
    /// by `Option::<PatternSpec>::None` throughout this crate).
    #[must_use]
    pub fn new(eta: u64, kappa: u32, rho: u64) -> Self {
        assert!(
            eta > 0 && kappa > 0 && rho > 0,
            "pattern components must be non-zero"
        );
        Self { eta, kappa, rho }
    }

    /// Total number of VNs in the sequence: `η · κ · ρ`.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.eta * u64::from(self.kappa) * self.rho
    }

    /// Always false — a valid pattern has at least one element.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The VN at position `n` (0-based) of the sequence — this is the
    /// entire "VN generator" hardware circuit: one divide, one modulo,
    /// one increment.
    ///
    /// # Panics
    ///
    /// Panics if `n >= self.len()`.
    #[must_use]
    pub fn vn_at(&self, n: u64) -> u32 {
        assert!(n < self.len(), "sequence index out of range");
        ((n / self.eta) % u64::from(self.kappa)) as u32 + 1
    }

    /// The final (maximum) VN the pattern reaches: `κ`.
    #[must_use]
    pub fn final_vn(&self) -> u32 {
        self.kappa
    }

    /// Iterates the full VN sequence.
    #[must_use]
    pub fn iter(&self) -> VnSequence {
        VnSequence {
            spec: *self,
            next: 0,
        }
    }

    /// Renders the pattern in the paper's notation, e.g.
    /// `[1^4, 2^4, …, 3^4]^2`.
    #[must_use]
    pub fn notation(&self) -> String {
        let body = if self.kappa == 1 {
            format!("1^{}", self.eta)
        } else if self.kappa == 2 {
            format!("1^{}, 2^{}", self.eta, self.eta)
        } else {
            format!(
                "1^{}, 2^{}, …, {}^{}",
                self.eta, self.eta, self.kappa, self.eta
            )
        };
        if self.rho == 1 {
            body
        } else {
            format!("[{body}]^{}", self.rho)
        }
    }

    /// Renders a small ASCII plot of the VN sequence (VN on the y axis,
    /// access index on the x axis), the textual analogue of the pattern
    /// sketches in the paper's tables. Long sequences are downsampled to
    /// `width` columns.
    #[must_use]
    pub fn ascii_plot(&self, width: usize) -> String {
        let width = width.max(1);
        let len = self.len();
        let height = self.kappa.min(8) as usize;
        let mut grid = vec![vec![' '; width]; height];
        let cols = width.min(len as usize);
        // Indexing `grid[row][col]` is clearer than zipping row iterators
        // for this 2-D scatter.
        #[allow(clippy::needless_range_loop)]
        for col in 0..cols {
            let n = col as u64 * len / cols as u64;
            let vn = self.vn_at(n);
            // Scale VN to the plot height.
            let row = ((u64::from(vn) - 1) * height as u64 / u64::from(self.kappa)) as usize;
            let row = row.min(height - 1);
            grid[height - 1 - row][col] = '▪';
        }
        grid.into_iter()
            .map(|r| r.into_iter().collect::<String>())
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Classifies the pattern into the paper's five named families
    /// (P1 Multi-step, P2 Step, P3 Linear, P4 Sawtooth, P5 Line).
    #[must_use]
    pub fn family(&self) -> PatternFamily {
        match (self.eta, self.kappa, self.rho) {
            (_, 1, _) => PatternFamily::Line,
            (1, _, 1) => PatternFamily::Linear,
            (_, _, 1) => PatternFamily::Step,
            (1, _, _) => PatternFamily::Sawtooth,
            _ => PatternFamily::MultiStep,
        }
    }
}

impl IntoIterator for PatternSpec {
    type Item = u32;
    type IntoIter = VnSequence;
    fn into_iter(self) -> VnSequence {
        self.iter()
    }
}

/// The paper's five named pattern shapes (§5, pattern-table header).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PatternFamily {
    /// P1: staircase repeated several times.
    MultiStep,
    /// P2: one staircase with runs longer than 1.
    Step,
    /// P3: strictly increasing (`η = 1, ρ = 1`).
    Linear,
    /// P4: `η = 1` staircase repeated (`α_K = 1` in the paper).
    Sawtooth,
    /// P5: constant (`κ = 1`).
    Line,
}

impl std::fmt::Display for PatternFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Self::MultiStep => "P1:Multi-step",
            Self::Step => "P2:Step",
            Self::Linear => "P3:Linear",
            Self::Sawtooth => "P4:Sawtooth",
            Self::Line => "P5:Line",
        };
        f.write_str(name)
    }
}

/// Iterator over a [`PatternSpec`]'s VN sequence.
#[derive(Debug, Clone)]
pub struct VnSequence {
    spec: PatternSpec,
    next: u64,
}

impl Iterator for VnSequence {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        if self.next >= self.spec.len() {
            return None;
        }
        let vn = self.spec.vn_at(self.next);
        self.next += 1;
        Some(vn)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = (self.spec.len() - self.next) as usize;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for VnSequence {}

/// Derives the *write* pattern triplet for a schedule shape and tile
/// counts — the encoding the host CPU ships to the accelerator
/// (paper §6.2).
#[must_use]
pub fn write_pattern(shape: ScheduleShape, a: Alphas) -> PatternSpec {
    match shape {
        ScheduleShape::AccumAlongChannel => {
            PatternSpec::new(u64::from(a.alpha_k), a.alpha_c, u64::from(a.alpha_hw))
        }
        ScheduleShape::AccumAlongSpace => {
            PatternSpec::new(u64::from(a.alpha_k) * u64::from(a.alpha_hw), a.alpha_c, 1)
        }
        ScheduleShape::SingleWrite => {
            PatternSpec::new(u64::from(a.alpha_k) * u64::from(a.alpha_hw), 1, 1)
        }
    }
}

/// Derives the *read* pattern for partially-computed output tiles: the
/// write pattern with one fewer staircase level (`κ − 1`), or `None` when
/// outputs are never read back (paper's "RP: –").
#[must_use]
pub fn read_pattern(shape: ScheduleShape, a: Alphas) -> Option<PatternSpec> {
    match shape {
        ScheduleShape::SingleWrite => None,
        _ if a.alpha_c <= 1 => None,
        ScheduleShape::AccumAlongChannel => Some(PatternSpec::new(
            u64::from(a.alpha_k),
            a.alpha_c - 1,
            u64::from(a.alpha_hw),
        )),
        ScheduleShape::AccumAlongSpace => Some(PatternSpec::new(
            u64::from(a.alpha_k) * u64::from(a.alpha_hw),
            a.alpha_c - 1,
            1,
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alphas(k: u32, c: u32, hw: u32) -> Alphas {
        Alphas {
            alpha_k: k,
            alpha_c: c,
            alpha_hw: hw,
        }
    }

    #[test]
    fn master_equation_sequence() {
        let p = PatternSpec::new(3, 2, 2);
        assert_eq!(p.len(), 12);
        let seq: Vec<u32> = p.iter().collect();
        assert_eq!(seq, [1, 1, 1, 2, 2, 2, 1, 1, 1, 2, 2, 2]);
        for (i, vn) in seq.iter().enumerate() {
            assert_eq!(p.vn_at(i as u64), *vn);
        }
    }

    #[test]
    fn table2_row1_write_pattern() {
        // [1^{α_K}, 2^{α_K}, …, α_C^{α_K}]^{α_HW}
        let p = write_pattern(ScheduleShape::AccumAlongChannel, alphas(3, 2, 4));
        assert_eq!((p.eta, p.kappa, p.rho), (3, 2, 4));
        assert_eq!(p.family(), PatternFamily::MultiStep);
    }

    #[test]
    fn table2_row3_write_pattern() {
        // 1^{α_K α_HW}, 2^{α_K α_HW}, …, α_C^{α_K α_HW}
        let p = write_pattern(ScheduleShape::AccumAlongSpace, alphas(3, 2, 4));
        assert_eq!((p.eta, p.kappa, p.rho), (12, 2, 1));
        assert_eq!(p.family(), PatternFamily::Step);
    }

    #[test]
    fn table2_row6_write_pattern_is_line() {
        let p = write_pattern(ScheduleShape::SingleWrite, alphas(3, 2, 4));
        assert_eq!((p.eta, p.kappa, p.rho), (12, 1, 1));
        assert_eq!(p.family(), PatternFamily::Line);
    }

    #[test]
    fn read_pattern_drops_last_staircase_level() {
        let rp = read_pattern(ScheduleShape::AccumAlongChannel, alphas(3, 4, 2)).unwrap();
        assert_eq!((rp.eta, rp.kappa, rp.rho), (3, 3, 2));
        assert!(read_pattern(ScheduleShape::AccumAlongChannel, alphas(3, 1, 2)).is_none());
        assert!(read_pattern(ScheduleShape::SingleWrite, alphas(3, 4, 2)).is_none());
    }

    #[test]
    fn families_match_paper_special_cases() {
        // P3 Linear: α_K·α_HW = 1
        assert_eq!(
            write_pattern(ScheduleShape::AccumAlongSpace, alphas(1, 5, 1)).family(),
            PatternFamily::Linear
        );
        // P4 Sawtooth: α_K = 1 with repetition
        assert_eq!(
            write_pattern(ScheduleShape::AccumAlongChannel, alphas(1, 5, 2)).family(),
            PatternFamily::Sawtooth
        );
        // P2 Step
        assert_eq!(
            write_pattern(ScheduleShape::AccumAlongChannel, alphas(4, 5, 1)).family(),
            PatternFamily::Step
        );
    }

    #[test]
    fn notation_renders_paper_style() {
        assert_eq!(PatternSpec::new(4, 3, 2).notation(), "[1^4, 2^4, …, 3^4]^2");
        assert_eq!(PatternSpec::new(6, 1, 1).notation(), "1^6");
        assert_eq!(PatternSpec::new(2, 2, 1).notation(), "1^2, 2^2");
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_component_panics() {
        let _ = PatternSpec::new(0, 1, 1);
    }

    #[test]
    fn ascii_plot_shows_staircases_and_lines() {
        let stair = PatternSpec::new(2, 4, 1).ascii_plot(8);
        let lines: Vec<&str> = stair.lines().collect();
        assert_eq!(lines.len(), 4);
        // The top row must only be reached at the end, the bottom at the start.
        assert!(lines[3].starts_with('▪'));
        assert!(lines[0].trim_start().starts_with('▪'));

        let flat = PatternSpec::new(8, 1, 1).ascii_plot(8);
        assert_eq!(flat.lines().count(), 1, "κ = 1 plots as a single line");
        assert_eq!(flat.matches('▪').count(), 8);
    }

    #[test]
    fn iterator_is_exact_size() {
        let p = PatternSpec::new(2, 3, 4);
        let it = p.iter();
        assert_eq!(it.len(), 24);
        assert_eq!(it.count(), 24);
    }
}
