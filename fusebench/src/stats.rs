//! Order statistics used by every metric: nearest-rank percentiles with the
//! "at least ten samples beyond" rule, their median over blocks of rounds,
//! medians, and the quartiles the A/A check compares.

/// Samples a percentile needs beyond it before it is reported: with fewer,
/// the value is set by a handful of outliers and does not repeat.
pub const MIN_SAMPLES_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// 1-based nearest rank of percentile `p` (0 < p <= 100) among `n` samples.
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile: the smallest sample with at least `p` percent of
/// the samples at or below it.  `None` for an empty set.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    Some(sorted(values)[nearest_rank(values.len(), p) - 1])
}

/// How many of `n` samples lie strictly beyond the nearest rank of `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - nearest_rank(n, p)
    }
}

/// Whether `p` is resolved by `n` samples ([`MIN_SAMPLES_BEYOND`] rule).
pub fn resolved(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= MIN_SAMPLES_BEYOND
}

/// Samples a block of consecutive rounds must hold before its percentiles
/// are taken: the fewest that resolve p90.
pub const BLOCK_SAMPLES: usize = 100;

/// Groups the rounds' samples, in time order, into blocks of at least `min`
/// samples; a remainder smaller than that joins the last block, so a run
/// with fewer than `2 * min` samples is one block.
pub fn blocks(rounds: &[Vec<f64>], min: usize) -> Vec<Vec<f64>> {
    let mut out: Vec<Vec<f64>> = Vec::new();
    let mut open: Vec<f64> = Vec::new();
    for round in rounds {
        open.extend_from_slice(round);
        if open.len() >= min {
            out.push(std::mem::take(&mut open));
        }
    }
    match out.last_mut() {
        Some(last) => last.extend(open),
        None if !open.is_empty() => out.push(open),
        None => {}
    }
    out
}

/// Median over blocks of each block's percentile `p`.  A host hiccup of tens
/// of milliseconds lands in one block; pooled over a run, the hiccups of a
/// busy hour decide where a tail percentile falls.
pub fn blocked_percentile(blocks: &[Vec<f64>], p: f64) -> f64 {
    let each: Vec<f64> = blocks.iter().filter_map(|b| percentile(b, p)).collect();
    median(&each)
}

/// Median (mean of the two middle samples for an even count); 0 when empty,
/// which only a layer that did not run reports.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The three quartile cut points as Python's
/// `statistics.quantiles(values, n=4)` gives them (the "exclusive" method),
/// so the A/A check here and the driver's agree.  Needs two samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile distance as a share of the median — the spread the
/// benchmark contract bounds.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_pick_actual_samples() {
        let values: Vec<f64> = (1..=10).map(f64::from).rev().collect();
        assert_eq!(percentile(&values, 50.0), Some(5.0));
        assert_eq!(percentile(&values, 90.0), Some(9.0));
        assert_eq!(percentile(&values, 91.0), Some(10.0));
        assert_eq!(percentile(&values, 100.0), Some(10.0));
        assert_eq!(percentile(&values, 0.001), Some(1.0));
        assert_eq!(percentile(&[7.5], 99.0), Some(7.5));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn ten_samples_beyond_rule_selects_p90_at_120_jobs() {
        // The smallest workload measures 120 jobs: p90 leaves 12 samples
        // beyond it, p95 only 6 — so p90 is the tail the benchmark reports.
        assert_eq!(samples_beyond(120, 90.0), 12);
        assert!(resolved(120, 90.0));
        assert_eq!(samples_beyond(120, 95.0), 6);
        assert!(!resolved(120, 95.0));
        // p99 needs a thousand samples.
        assert!(!resolved(999, 99.0));
        assert!(resolved(1000, 99.0));
        assert!(!resolved(99, 90.0));
        assert_eq!(samples_beyond(0, 50.0), 0);
    }

    #[test]
    fn blocks_hold_at_least_the_minimum_and_isolate_a_disturbed_round() {
        // Rounds of 40 samples, blocks of at least 100: 3 + 3 + (3 + 1 left over).
        let calm: Vec<f64> = (1..=40).map(f64::from).collect();
        let mut rounds = vec![calm.clone(); 10];
        let sizes: Vec<usize> = blocks(&rounds, 100).iter().map(Vec::len).collect();
        assert_eq!(sizes, [120, 120, 160]);
        assert_eq!(blocks(&rounds[..2], 100).len(), 1, "fewer than the minimum");
        assert!(blocks(&[], 100).is_empty());
        let before = blocked_percentile(&blocks(&rounds, 100), 90.0);
        assert_eq!(before, 36.0);
        // A hiccup slows a whole round tenfold: the pooled p90 moves, the
        // median over blocks does not.
        rounds[4] = calm.iter().map(|v| v * 10.0).collect();
        assert_eq!(blocked_percentile(&blocks(&rounds, 100), 90.0), before);
        let pooled: Vec<f64> = rounds.concat();
        assert!(percentile(&pooled, 90.0).unwrap() > before);
    }

    #[test]
    fn median_handles_both_parities() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   -> [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) -> [15.0, 40.0, 120.0]
        assert_eq!(
            quartiles(&[160.0, 10.0, 80.0, 20.0, 40.0]),
            Some([15.0, 40.0, 120.0])
        );
        // statistics.quantiles([1, 2], n=4) -> [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(iqr_share(&ten), Some(1.0));
    }
}
