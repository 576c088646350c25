//! Order statistics over timing samples.

/// The `q`-quantile of `xs` by linear interpolation between order
/// statistics (the same rule as Python's `statistics.quantiles` with
/// `method="inclusive"`). `NaN` for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// A latency distribution as reported: the median and the highest
/// standard percentile that still has at least ten samples beyond it.
pub struct Dist {
    pub n: usize,
    pub p50: f64,
    /// `(percentile, value)`, e.g. `(99, 3.1)`; `None` below 100 samples.
    pub tail: Option<(u32, f64)>,
}

impl Dist {
    pub fn of(xs: &[f64]) -> Dist {
        let n = xs.len();
        let tail = [99u32, 90]
            .into_iter()
            .find(|&p| n * (100 - p as usize) >= 1000)
            .map(|p| (p, quantile(xs, f64::from(p) / 100.0)));
        Dist {
            n,
            p50: median(xs),
            tail,
        }
    }

    pub fn describe(&self, unit: &str) -> String {
        let mut s = format!("p50 {:.4} {unit}", self.p50);
        if let Some((p, v)) = self.tail {
            s.push_str(&format!(", p{p} {v:.4} {unit}"));
        }
        format!("{s} (n={})", self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(Dist::of(&xs).tail.map(|t| t.0), Some(99));
        assert_eq!(Dist::of(&xs[..100]).tail.map(|t| t.0), Some(90));
        assert_eq!(Dist::of(&xs[..99]).tail.map(|t| t.0), None);
    }
}
