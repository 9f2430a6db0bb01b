//! Order statistics: the percentile rule of the metrics guide and the
//! quartile spread the acceptance driver computes.

/// Percentiles a timing may be reported at, lowest first.
const LADDER: [f64; 6] = [0.5, 0.8, 0.9, 0.95, 0.99, 0.999];

/// 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// The `q`-quantile (nearest rank) of ascending `sorted`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), q) - 1]
}

/// The highest rung of [`LADDER`] that still has at least ten samples
/// beyond it, or `None` when even the median has fewer.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER.iter().copied().rfind(|&q| n > 0 && n - rank(n, q) >= 10)
}

/// Ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median with the midpoint rule for even counts.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of no samples");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Share of the repetitions of a piece of work that must be undisturbed for
/// [`quiet`] to read a quiet machine.
pub const QUIET_SHARE: f64 = 0.05;

/// The value the timing of a piece of work takes while the host leaves this
/// container alone, from `repeats` of the *same* work: the mean of the
/// fastest [`QUIET_SHARE`] of them (the fastest one of up to twenty; a mean,
/// so that the clock's whole nanoseconds average out over many). The host
/// disturbs a single-threaded phase in spikes (one sample in ten to a
/// hundred) and slows it by about 1.6x in bursts of a tenth of a second to
/// minutes that cover anything from none to most of a run. Interference only
/// ever adds time, so the fast end of the repetitions of identical work reads
/// the same whether a twentieth or nine tenths of them were undisturbed. (A
/// tenth was not little enough: the repetitions of an ALARM query are bimodal,
/// 0.47 us or 0.68 and more, and in a bad quarter of an hour the fast mode
/// held a fifth to a third of them, in one run of ten under a tenth.)
pub fn quiet(repeats: &[f64]) -> f64 {
    let fastest = &sorted(repeats)[..rank(repeats.len(), QUIET_SHARE)];
    fastest.iter().sum::<f64>() / fastest.len() as f64
}

/// `samples` holds `groups` series interleaved: sample `i` repeats piece of
/// work `i % groups`. Per piece, its [`quiet`] value; what is left across
/// pieces is the program's own spread (measured on six runs of the quiescent
/// ALARM query phase: the plain p99 of all samples read 0.96 to 1.80 us, the
/// p99 across queries of the queries' quiet values 0.585 to 0.593).
pub fn quiet_per_group(samples: &[f64], groups: usize) -> Vec<f64> {
    let groups = groups.min(samples.len());
    (0..groups)
        .map(|g| quiet(&samples.iter().skip(g).step_by(groups).copied().collect::<Vec<_>>()))
        .collect()
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method,
/// which extrapolates past the ends of a short sample), so `--agree`
/// computes the number the acceptance driver computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let m = v.len();
    assert!(m >= 2, "quartiles need two samples");
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// How far apart runs of the same code read, as a share of their median:
/// the interquartile distance, which is what the acceptance driver takes of
/// its ten runs — or the whole range when there are fewer than four values,
/// where the exclusive quartiles would lie outside the data.
pub fn spread(values: &[f64]) -> f64 {
    let (low, high) = if values.len() < 4 {
        let v = sorted(values);
        (v[0], v[v.len() - 1])
    } else {
        quartiles(values)
    };
    (high - low) / median(values).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(highest_supported(0), None);
        assert_eq!(highest_supported(19), None);
        // 20 samples: rank(p50) = 10, ten samples lie beyond it.
        assert_eq!(highest_supported(20), Some(0.5));
        // 62 settlements: p80 leaves 12 beyond, p90 only 6.
        assert_eq!(highest_supported(62), Some(0.8));
        assert_eq!(highest_supported(1_000), Some(0.99));
        assert_eq!(highest_supported(60_000), Some(0.999));
        for n in 1..2_000 {
            if let Some(q) = highest_supported(n) {
                assert!(n - rank(n, q) >= 10, "n={n} q={q}");
            }
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 0.999), 100.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
    }

    #[test]
    fn quiet_reads_the_same_however_much_of_the_run_was_slowed() {
        // Four pieces of work costing 1, 2, 3 and 4, repeated 100 times; the
        // first `slow` repetitions of every piece 1.5x slower, and every
        // seventh sample a spike.
        let run = |slow: usize| -> Vec<f64> {
            (0..400)
                .map(|i| {
                    let cost = (i % 4 + 1) as f64;
                    let burst = if i / 4 < slow { 1.5 } else { 1.0 };
                    cost * burst + if i % 7 == 0 { 5.0 } else { 0.0 }
                })
                .collect()
        };
        for slow in [0, 20, 50, 70, 90] {
            assert_eq!(quiet_per_group(&run(slow), 4), vec![1.0, 2.0, 3.0, 4.0], "{slow} slow");
        }
        assert_eq!(quiet_per_group(&run(100), 4), vec![1.5, 3.0, 4.5, 6.0]);
        // Fewer samples than groups: every sample is its own group.
        assert_eq!(quiet_per_group(&[3.0, 1.0], 4), vec![3.0, 1.0]);
        // Up to twenty repetitions: the fastest. Forty: the mean of the two
        // fastest.
        assert_eq!(quiet(&[5.0, 3.0, 4.0]), 3.0);
        let forty: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        assert_eq!(quiet(&forty), 1.5);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([10, 12], n=4) == [9.5, 11.0, 12.5]
        assert_eq!(quartiles(&[12.0, 10.0]), (9.5, 12.5));
        // Two or three values: the range. Four or more: the quartiles.
        assert!((spread(&[12.0, 10.0]) - 2.0 / 11.0).abs() < 1e-12);
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }
}
