//! The arithmetic behind every reported number, plus `VmHWM`.

/// Median of the samples (mean of the two middle ones for an even count).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The highest percentile of the ladder that still has at least ten
/// samples beyond it, with its nearest-rank value; `None` below 20 samples.
/// A tail read off fewer than ten samples is one outlier, not a percentile.
pub fn tail_percentile(samples: &[f64]) -> Option<(f64, f64)> {
    // per mille, so that the rank is exact integer arithmetic
    const LADDER: [usize; 6] = [999, 990, 950, 900, 750, 500];
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    LADDER.iter().find_map(|&p| {
        let rank = (p * n).div_ceil(1000); // 1-based
        (rank >= 1 && n - rank >= 10).then(|| (p as f64 / 10.0, v[rank - 1]))
    })
}

/// Geometric mean of positive values: every factor weighs the same, so a
/// 2× change of a 0.1 ms statement moves it as much as one of a 30 ms one.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty() && values.iter().all(|v| *v > 0.0), "geomean needs positives");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method) gives them: what the driver's spread check uses.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Peak resident set size of this process in kB, from `/proc/self/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    rest.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// `VmHWM` of this process in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = parse_vm_hwm_kb(&status).ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let samples = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail_percentile(&samples(19)), None);
        // p50 of 20 samples is rank 10: ten samples lie beyond it
        assert_eq!(tail_percentile(&samples(20)), Some((50.0, 10.0)));
        assert_eq!(tail_percentile(&samples(21)), Some((50.0, 11.0)));
        assert_eq!(tail_percentile(&samples(40)), Some((75.0, 30.0)));
        assert_eq!(tail_percentile(&samples(100)), Some((90.0, 90.0)));
        // p95 of 200 is rank 190 (10 beyond); p99 would leave only 2
        assert_eq!(tail_percentile(&samples(200)), Some((95.0, 190.0)));
        assert_eq!(tail_percentile(&samples(1000)), Some((99.0, 990.0)));
        assert_eq!(tail_percentile(&samples(10_000)), Some((99.9, 9990.0)));
    }

    #[test]
    fn geomean_weighs_factors_equally() {
        assert!((geomean(&[0.1, 10.0]) - 1.0).abs() < 1e-12);
        let base = geomean(&[0.1, 30.0]);
        assert!((geomean(&[0.05, 30.0]) / base - geomean(&[0.1, 15.0]) / base).abs() < 1e-12);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        // statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5]
        assert_eq!(quartiles(&[3.0, 5.0]), (2.5, 5.5));
    }

    #[test]
    fn vm_hwm_parsing() {
        let status = "Name:\tbench\nVmPeak:\t  300000 kB\nVmHWM:\t  123456 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(123_456));
        assert_eq!(parse_vm_hwm_kb("Name:\tbench\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t12 MB\n"), None);
        assert!(peak_rss_mb().expect("linux procfs") > 0.0);
    }
}
