//! Order statistics for the reported metrics.

/// Median of `xs` (mean of the two middle values for an even count), or
/// `None` for an empty sample.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The `q`-quantile of `xs` (`0 < q < 1`) by the nearest-rank rule, but
/// only when at least `min_beyond` samples lie strictly above its rank:
/// a tail percentile estimated from fewer samples than that is noise, so
/// the caller gets `None` and must run longer.
pub fn quantile_with_tail(xs: &[f64], q: f64, min_beyond: usize) -> Option<f64> {
    assert!(q > 0.0 && q < 1.0, "quantile must lie in (0, 1)");
    let v = sorted(xs);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= min_beyond).then(|| v[rank - 1])
}

/// Samples a run needs so that [`quantile_with_tail`] answers for `q`.
pub fn samples_for_tail(q: f64, min_beyond: usize) -> usize {
    (min_beyond as f64 / (1.0 - q)).round() as usize
}

/// Consecutive windows of `xs`, each ending as soon as its sum reaches
/// `min_sum`. A short remainder joins the last window; a sample whose
/// whole sum falls short is one window.
pub fn windows_by_sum(xs: &[f64], min_sum: f64) -> Vec<&[f64]> {
    let mut out: Vec<&[f64]> = Vec::new();
    let (mut start, mut acc) = (0, 0.0);
    for (i, x) in xs.iter().enumerate() {
        acc += x;
        if acc >= min_sum {
            out.push(&xs[start..=i]);
            (start, acc) = (i + 1, 0.0);
        }
    }
    if start < xs.len() {
        let from = out.pop().map_or(0, |last| start - last.len());
        out.push(&xs[from..]);
    }
    out
}

/// Consecutive windows of `len` samples; a remainder shorter than `len`
/// joins the last window.
pub fn windows_by_count(xs: &[f64], len: usize) -> Vec<&[f64]> {
    assert!(len > 0, "window length must be positive");
    let n = xs.len() / len;
    (0..n)
        .map(|i| {
            let end = if i + 1 == n { xs.len() } else { (i + 1) * len };
            &xs[i * len..end]
        })
        .collect()
}

/// The median over windows of `len` consecutive samples of each window's
/// `q`-quantile, each with at least `min_beyond` samples beyond it.
/// `len` must leave that many: see [`samples_for_tail`]. A burst of host
/// load that slows a tenth of the samples moves a whole-sample p90 to the
/// slow mode; here it moves only the windows it falls in.
pub fn windowed_quantile(xs: &[f64], len: usize, q: f64, min_beyond: usize) -> Option<f64> {
    let per: Vec<f64> = windows_by_count(xs, len)
        .into_iter()
        .map(|w| quantile_with_tail(w, q, min_beyond))
        .collect::<Option<_>>()?;
    median(&per)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.5]), Some(7.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        assert_eq!(samples_for_tail(0.9, 10), 100);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        // Rank 90 of 100: ten samples (91..=100) lie beyond it.
        assert_eq!(quantile_with_tail(&hundred, 0.9, 10), Some(90.0));
        // 99 samples leave only nine beyond rank 90.
        assert_eq!(quantile_with_tail(&hundred[..99], 0.9, 10), None);
        assert_eq!(quantile_with_tail(&[], 0.9, 10), None);
        // Order of the input does not matter.
        let mut shuffled = hundred.clone();
        shuffled.reverse();
        assert_eq!(quantile_with_tail(&shuffled, 0.9, 10), Some(90.0));
    }

    #[test]
    fn windows_by_sum_close_at_the_sum_and_fold_the_remainder() {
        let xs = [1.0, 2.0, 3.0, 1.0, 1.0, 1.0, 0.5];
        let w = windows_by_sum(&xs, 3.0);
        assert_eq!(w, vec![&xs[0..2], &xs[2..3], &xs[3..7]]);
        assert_eq!(
            windows_by_sum(&xs[..6], 3.0),
            vec![&xs[0..2], &xs[2..3], &xs[3..6]]
        );
        assert_eq!(windows_by_sum(&xs[..1], 3.0), vec![&xs[..1]]);
        assert!(windows_by_sum(&[], 3.0).is_empty());
    }

    #[test]
    fn windows_by_count_fold_the_remainder() {
        let xs: Vec<f64> = (0..7).map(f64::from).collect();
        assert_eq!(windows_by_count(&xs, 3), vec![&xs[0..3], &xs[3..7]]);
        assert_eq!(windows_by_count(&xs, 7), vec![&xs[..]]);
        assert!(windows_by_count(&xs, 8).is_empty());
    }

    #[test]
    fn windowed_p90_ignores_a_burst_inside_one_window() {
        // Three windows of 100 rounds at 10 ms; a burst slows 40 rounds of
        // the middle one to 20 ms: more than a tenth of all rounds.
        let mut xs = vec![10.0; 300];
        for x in &mut xs[130..170] {
            *x = 20.0;
        }
        assert_eq!(quantile_with_tail(&xs, 0.9, 10), Some(20.0));
        assert_eq!(windowed_quantile(&xs, 100, 0.9, 10), Some(10.0));
        // Too few samples for even one window: no answer.
        assert_eq!(windowed_quantile(&xs[..99], 100, 0.9, 10), None);
    }

    #[test]
    fn nearest_rank_without_a_tail_rule() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(quantile_with_tail(&xs, 0.5, 0), Some(3.0));
        assert_eq!(quantile_with_tail(&xs, 0.9, 0), Some(5.0));
        assert_eq!(quantile_with_tail(&xs, 0.9, 1), None);
    }
}
