//! Sample statistics, the span recorder of the traced run, and the
//! reconciliation check between a parent span and its children.

use std::time::Instant;

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` percent of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Whether `n` samples leave at least ten samples beyond percentile `p`,
/// the least that makes a tail percentile more than one unlucky sample.
#[must_use]
pub fn tail_supported(n: usize, p: f64) -> bool {
    let beyond = n as f64 * (1.0 - p / 100.0);
    beyond + 1e-9 >= 10.0
}

/// `(clock in s, value)`: one completed request, stamped with the
/// serving clock at its completion.
pub type Sample = (f64, f64);

/// Most chunks a run is split into for its chunk medians.
pub const MAX_CHUNKS: usize = 10;

/// Chunks of a run that each support percentile `p` by the ten-beyond
/// rule: as many as `n` samples allow, at most [`MAX_CHUNKS`], at least 1.
#[must_use]
pub fn chunk_count(n: usize, p: f64) -> usize {
    let per_chunk = (10.0 / (1.0 - p / 100.0)).ceil() as usize;
    (n / per_chunk.max(1)).clamp(1, MAX_CHUNKS)
}

/// Splits `(clock_s, value)` samples, ordered by clock, into `k` runs
/// of (nearly) equal count. Each chunk comes with the clock it started
/// at: 0 for the first, the previous chunk's last sample after that.
#[must_use]
pub fn chunks(samples: &[Sample], k: usize) -> Vec<(f64, &[Sample])> {
    let k = k.clamp(1, samples.len().max(1));
    let mut out = Vec::with_capacity(k);
    let mut start = 0.0;
    let mut lo = 0;
    for i in 1..=k {
        let hi = samples.len() * i / k;
        let c = &samples[lo..hi];
        if let Some(last) = c.last() {
            out.push((start, c));
            start = last.0;
        }
        lo = hi;
    }
    out
}

/// Sorts a sample vector ascending (NaN-free by construction).
#[must_use]
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of an unsorted sample vector.
///
/// # Panics
///
/// Panics on an empty vector.
#[must_use]
pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 50.0)
}

/// One timed interval of the traced run: a name, its parent span (if
/// any; the spans of one request hang off its root span), and start/end
/// nanoseconds from the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder. One per thread; spans are read out after
/// the run ends, never while it is timed. A recorder made with `on =
/// false` records nothing, so untraced passes share the traced code.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    on: bool,
    pub spans: Vec<Span>,
}

/// Id returned by a recorder that is off.
const NO_SPAN: usize = usize::MAX;

impl Trace {
    #[must_use]
    pub fn new(epoch: Instant, on: bool) -> Self {
        Self {
            epoch,
            on,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span and returns its id; close it with [`Self::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        if !self.on {
            return NO_SPAN;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        if id != NO_SPAN {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Moves another recorder's spans (same epoch) into this one.
    pub fn absorb(&mut self, other: Trace) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Durations in milliseconds of every span called `name`.
    #[must_use]
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Direct children of every span, indexed by parent id.
    #[must_use]
    pub fn children_index(&self) -> Vec<Vec<usize>> {
        let mut kids = vec![Vec::new(); self.spans.len()];
        for (id, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                kids[p].push(id);
            }
        }
        kids
    }

    /// A span's self time: its duration minus the part of its interval
    /// that its direct children (`kids`, from [`Self::children_index`])
    /// cover; overlapping children count once.
    #[must_use]
    pub fn self_ns(&self, id: usize, kids: &[usize]) -> u64 {
        let me = &self.spans[id];
        let mut iv: Vec<(u64, u64)> = kids
            .iter()
            .map(|&c| {
                let s = &self.spans[c];
                (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns))
            })
            .filter(|(a, b)| b > a)
            .collect();
        iv.sort_unstable();
        let mut covered = 0u64;
        let mut cur: Option<(u64, u64)> = None;
        for (a, b) in iv {
            cur = match cur {
                Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                Some((ca, cb)) => {
                    covered += cb - ca;
                    Some((a, b))
                }
                None => Some((a, b)),
            };
        }
        if let Some((ca, cb)) = cur {
            covered += cb - ca;
        }
        me.dur_ns() - covered
    }
}

/// Reconciliation of one parent span name against its children, summed
/// over every parent: the children's share of the parents' total time.
#[derive(Debug, Clone, Copy)]
pub struct Reconciliation {
    pub parent_ms: f64,
    pub children_ms: f64,
}

impl Reconciliation {
    /// Sums the durations of every span called `parent` and of their
    /// direct children.
    #[must_use]
    pub fn of(trace: &Trace, parent: &str) -> Self {
        let kids = trace.children_index();
        let mut parent_ns = 0u64;
        let mut children_ns = 0u64;
        for (id, s) in trace.spans.iter().enumerate() {
            if s.name == parent {
                parent_ns += s.dur_ns();
                children_ns += s.dur_ns() - trace.self_ns(id, &kids[id]);
            }
        }
        Self {
            parent_ms: parent_ns as f64 / 1e6,
            children_ms: children_ns as f64 / 1e6,
        }
    }

    /// Children's time over parents' time.
    #[must_use]
    pub fn ratio(&self) -> f64 {
        if self.parent_ms > 0.0 {
            self.children_ms / self.parent_ms
        } else {
            0.0
        }
    }

    /// True when the children account for the parents' time within
    /// `tolerance` (a share, e.g. 0.05).
    #[must_use]
    pub fn holds(&self, tolerance: f64) -> bool {
        self.parent_ms > 0.0 && (1.0 - self.ratio()).abs() <= tolerance
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    fn trace_of(spans: Vec<Span>) -> Trace {
        Trace {
            epoch: Instant::now(),
            on: true,
            spans,
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert!(!tail_supported(999, 99.0));
        assert!(tail_supported(1000, 99.0));
        assert!(!tail_supported(99, 90.0));
        assert!(tail_supported(100, 90.0));
        assert!(tail_supported(10_000, 99.9));
        assert!(!tail_supported(19, 50.0));
        assert!(tail_supported(20, 50.0));
    }

    #[test]
    fn chunks_split_by_count_and_carry_their_start() {
        let s: Vec<Sample> = (1..=10).map(|i| (f64::from(i), 0.0)).collect();
        let c = chunks(&s, 3);
        let lens: Vec<usize> = c.iter().map(|(_, x)| x.len()).collect();
        assert_eq!(lens, vec![3, 3, 4]);
        let starts: Vec<f64> = c.iter().map(|(t, _)| *t).collect();
        assert_eq!(starts, vec![0.0, 3.0, 6.0]);
        assert_eq!(chunks(&s, 50).len(), 10);
        assert!(chunks(&[], 4).is_empty());
        // p99 needs 1000 samples per chunk, p50 needs 20.
        assert_eq!(chunk_count(999, 99.0), 1);
        assert_eq!(chunk_count(2500, 99.0), 2);
        assert_eq!(chunk_count(50_000, 99.0), MAX_CHUNKS);
        assert_eq!(chunk_count(190, 50.0), 9);
        assert_eq!(chunk_count(190, 90.0), 1);
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // parent [0,100); children [10,30), [20,50) overlap, [60,70).
        let t = trace_of(vec![
            span("req", None, 0, 100),
            span("a", Some(0), 10, 30),
            span("b", Some(0), 20, 50),
            span("c", Some(0), 60, 70),
            // A grandchild does not count against the root's self time.
            span("d", Some(3), 61, 69),
        ]);
        let kids = t.children_index();
        assert_eq!(kids[0], vec![1, 2, 3]);
        assert_eq!(t.self_ns(0, &kids[0]), 100 - 40 - 10);
        assert_eq!(t.self_ns(3, &kids[3]), 10 - 8);
        assert_eq!(t.self_ns(4, &kids[4]), 8);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let t = trace_of(vec![span("req", None, 10, 20), span("a", Some(0), 0, 15)]);
        assert_eq!(t.self_ns(0, &t.children_index()[0]), 5);
    }

    #[test]
    fn reconciliation_sums_over_parents() {
        let t = trace_of(vec![
            span("req", None, 0, 1000),
            span("submit", Some(0), 0, 400),
            span("poll", Some(0), 400, 990),
            span("req", None, 2000, 3000),
            span("submit", Some(3), 2000, 2500),
            span("poll", Some(3), 2600, 3000),
        ]);
        let r = Reconciliation::of(&t, "req");
        assert!((r.parent_ms - 2000.0 / 1e6).abs() < 1e-12);
        assert!((r.children_ms - 1890.0 / 1e6).abs() < 1e-12);
        assert!(!r.holds(0.05), "5.5% uncovered must fail a 5% check");
        assert!(r.holds(0.06));
        let empty = Reconciliation::of(&t, "missing");
        assert!(!empty.holds(0.05), "no parent time is not a pass");
    }
}
