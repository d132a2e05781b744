//! Order statistics used by the benchmark: medians, quartiles and the
//! tail-percentile rule.

/// Median of `values` (mean of the middle pair for an even count), or
/// `None` when empty. The order of `values` does not matter.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// First and third quartiles by the "exclusive" method, the default of
/// Python's `statistics.quantiles(values, n=4)`: the data are placed at
/// ranks `1..=n` of `n + 1` and the cut points interpolated between
/// neighbours. `None` when empty.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let sorted = sorted(values);
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    if n == 1 {
        return Some((sorted[0], sorted[0]));
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median: the run-to-run
/// spread compared against a metric's bound.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// The highest whole percentile that still has at least ten of `n`
/// samples beyond it (nearest-rank), or `None` below eleven samples.
/// Tails are reported at this percentile and no further: 600 control
/// calls support p98, 2,280 plain steps support p99.
pub fn tail_percentile(n: usize) -> Option<u32> {
    (1..=99u32)
        .rev()
        .find(|&p| n.saturating_sub(nearest_rank(p, n)) >= 10)
}

/// The `p`-th percentile of `values` by nearest rank, or `None` when
/// empty.
pub fn percentile(values: &[f64], p: u32) -> Option<f64> {
    let sorted = sorted(values);
    (!sorted.is_empty()).then(|| sorted[nearest_rank(p, sorted.len()) - 1])
}

/// One-based nearest rank of percentile `p` among `n` samples:
/// `ceil(p·n/100)`, clamped to `1..=n`.
fn nearest_rank(p: u32, n: usize) -> usize {
    (p as usize * n).div_ceil(100).clamp(1, n.max(1))
}

/// The fastest of `values`, or NaN when empty: a run's estimate of a
/// time. Noise on a shared host only ever adds time, so the fastest
/// repeat moves less between runs than the median repeat does.
pub fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NAN, f64::min)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}
