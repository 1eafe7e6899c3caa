//! Order statistics used by every metric.

/// Median of `xs` (mean of the two middle values for even lengths); NaN
/// for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Nearest-rank percentile of `xs`, with `q` in tenths of a percent
/// (`990` is p99); NaN for an empty slice.
pub fn percentile(xs: &[f64], q: usize) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), q).clamp(1, v.len()) - 1]
}

/// 1-based nearest rank of percentile `q` (tenths of a percent) among `n`.
fn rank(n: usize, q: usize) -> usize {
    (q * n).div_ceil(1000)
}

/// Candidate tail percentiles in tenths of a percent, highest first: the
/// usual "nines", so a step's tail stays the same percentile while its
/// sample count varies within a decade.
const TAILS: [usize; 4] = [999, 990, 900, 750];

/// A tail latency: the highest percentile of [`TAILS`] with at least ten
/// samples beyond it, as `(percentile in percent, value)`. Falls back to
/// the median for samples too small for any tail.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    for q in TAILS {
        if xs.len() - rank(xs.len(), q) >= 10 {
            return (q as f64 / 10.0, percentile(xs, q));
        }
    }
    (50.0, median(xs))
}
