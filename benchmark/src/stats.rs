//! Order statistics over latency samples.
//!
//! A timing is reported as a median plus the highest percentile that still
//! has ten samples beyond it (`choosing-metrics` §1); every reported timing
//! states its sample count in the environment line.

/// Median of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &mut [f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    xs.sort_unstable_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

/// The fastest of several timings of the same work: interference from
/// outside only ever adds time. NaN without timings, which marks the run
/// incorrect.
pub fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NAN, f64::min)
}

/// Latency samples in nanoseconds.
#[derive(Default)]
pub struct Samples(Vec<u64>);

impl Samples {
    pub fn push(&mut self, ns: u64) {
        self.0.push(ns);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank percentile `p` (0–100) in nanoseconds.
    ///
    /// # Panics
    /// Panics without samples — a workload that measured nothing is a
    /// harness bug, not a result.
    fn percentile_ns(&mut self, p: f64) -> u64 {
        assert!(!self.0.is_empty(), "percentile of no samples");
        self.0.sort_unstable();
        let rank = ((p / 100.0) * self.0.len() as f64).ceil() as usize;
        self.0[rank.clamp(1, self.0.len()) - 1]
    }

    pub fn p50_us(&mut self) -> f64 {
        self.percentile_ns(50.0) as f64 / 1e3
    }

    /// The 99th percentile, or — when fewer than ten samples lie beyond it —
    /// the highest percentile that does have ten beyond it.
    pub fn p99_us(&mut self) -> f64 {
        let n = self.0.len();
        let p = if n >= 1000 {
            99.0
        } else {
            100.0 * n.saturating_sub(10).max(1) as f64 / n.max(1) as f64
        };
        self.percentile_ns(p) as f64 / 1e3
    }

    pub fn max_ms(&self) -> f64 {
        self.0.iter().copied().max().unwrap_or(0) as f64 / 1e6
    }
}

/// How much slower (p50, in percent) the requests timed with spans on were
/// than those with spans off; 0 when either set is empty.
pub fn overhead_pct(plain: &mut Samples, traced: &mut Samples) -> f64 {
    if plain.len() == 0 || traced.len() == 0 {
        return 0.0;
    }
    let (plain, traced) = (plain.p50_us(), traced.p50_us());
    100.0 * (traced - plain) / plain
}

/// Per-slice summaries of one stream of requests, and the run's figures
/// drawn from them: the **median over slices** of the slice rate, the slice
/// p50 and the slice tail. A slice that a neighbour's burst (or a single
/// stall, which makes every paced request behind it late) slowed down moves
/// the median by one rank at most; README.md has the spreads of the
/// alternatives on the same runs.
#[derive(Default)]
pub struct Slices {
    rate: Vec<f64>,
    p50_us: Vec<f64>,
    p99_us: Vec<f64>,
    pub requests: usize,
}

impl Slices {
    /// Summarise one slice's latencies (each request carrying `ops`
    /// operations) and empty `lat` for the next slice.
    pub fn close(&mut self, lat: &mut Samples, ops: usize) {
        if lat.len() == 0 {
            return;
        }
        let busy_s = lat.0.iter().sum::<u64>() as f64 / 1e9;
        self.rate.push((lat.len() * ops) as f64 / busy_s);
        self.p50_us.push(lat.p50_us());
        self.p99_us.push(lat.p99_us());
        self.requests += lat.len();
        lat.0.clear();
    }

    pub fn len(&self) -> usize {
        self.rate.len()
    }

    /// The per-slice series, for the environment line: what a run's own
    /// noise looked like.
    pub fn series(&self) -> String {
        let row = |xs: &[f64]| {
            let cells: Vec<String> = xs.iter().map(|x| format!("{x:.4e}")).collect();
            cells.join(" ")
        };
        format!(
            "rate {} | p50 {} | p99 {}",
            row(&self.rate),
            row(&self.p50_us),
            row(&self.p99_us)
        )
    }

    /// Operations per second of time spent inside requests.
    pub fn ops_per_s(&self) -> f64 {
        median(&mut self.rate.clone())
    }

    pub fn p50_us(&self) -> f64 {
        median(&mut self.p50_us.clone())
    }

    pub fn p99_us(&self) -> f64 {
        median(&mut self.p99_us.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_report_the_median_over_slices() {
        let mut slices = Slices::default();
        for k in 1..=9u64 {
            // Slice k: 100 requests of k µs, 64 ops each.
            let mut lat = Samples::default();
            (0..100).for_each(|_| lat.push(k * 1000));
            slices.close(&mut lat, 64);
            assert_eq!(lat.len(), 0);
        }
        assert_eq!((slices.len(), slices.requests), (9, 900));
        assert_eq!(slices.p50_us(), 5.0);
        assert_eq!(slices.p99_us(), 5.0);
        assert!((slices.ops_per_s() - 64e6 / 5.0).abs() < 1.0);
    }

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        let mut s = Samples::default();
        for ns in 1..=2000u64 {
            s.push(ns * 1000);
        }
        assert_eq!(s.p50_us(), 1000.0);
        assert_eq!(s.p99_us(), 1980.0);
        // 100 samples: p99 would leave one sample beyond it; fall back to p90.
        let mut s = Samples::default();
        for ns in 1..=100u64 {
            s.push(ns * 1000);
        }
        assert_eq!(s.p99_us(), 90.0);
    }
}
