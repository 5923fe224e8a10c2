//! Small statistics helpers and the host memory high-water mark.

/// Median (mean of the middle pair for an even count); 0 when empty.
pub fn median(xs: &mut [f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q ∈ [0, 1]`; 0 when empty.
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let pos = q * (xs.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

/// Peak resident set size of this process in MiB (`VmHWM`), if the
/// platform reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&mut [0.0, 10.0], 0.9), 9.0);
        assert_eq!(median(&mut []), 0.0);
    }
}
