//! Numerically robust reductions.
//!
//! The covariance and mean-vector steps of the PCT fold hundreds of thousands
//! of floating-point products per matrix entry.  Naive summation loses
//! precision when partial sums grow large; the paper's original C code used
//! double accumulation, and this module goes one step further with
//! compensated (Neumaier) summation.

/// Compensated (Neumaier/Kahan–Babuška) summation over an iterator.
///
/// Errors are bounded by `O(eps)` independent of the number of terms instead
/// of the `O(n * eps)` of naive summation.
pub fn neumaier_sum<I: IntoIterator<Item = f64>>(values: I) -> f64 {
    let mut sum = 0.0_f64;
    let mut compensation = 0.0_f64;
    for value in values {
        let t = sum + value;
        if sum.abs() >= value.abs() {
            compensation += (sum - t) + value;
        } else {
            compensation += (value - t) + sum;
        }
        sum = t;
    }
    sum + compensation
}

/// Arithmetic mean using compensated summation. Returns `None` for empty input.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(neumaier_sum(values.iter().copied()) / values.len() as f64)
    }
}

/// Population variance using the two-pass algorithm with compensated sums.
/// Returns `None` for empty input.
pub fn variance(values: &[f64]) -> Option<f64> {
    let m = mean(values)?;
    Some(neumaier_sum(values.iter().map(|x| (x - m) * (x - m))) / values.len() as f64)
}

/// A running compensated accumulator that can be merged, mirroring how the
/// distributed workers each hold a partial sum that the manager later merges.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunningSum {
    sum: f64,
    compensation: f64,
    count: u64,
}

impl RunningSum {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one value.
    pub fn add(&mut self, value: f64) {
        let t = self.sum + value;
        if self.sum.abs() >= value.abs() {
            self.compensation += (self.sum - t) + value;
        } else {
            self.compensation += (value - t) + self.sum;
        }
        self.sum = t;
        self.count += 1;
    }

    /// Merges another accumulator into this one (order independent up to
    /// round-off), as the manager does with worker partial sums.
    pub fn merge(&mut self, other: &RunningSum) {
        let t = self.sum + other.sum;
        if self.sum.abs() >= other.sum.abs() {
            self.compensation += (self.sum - t) + other.sum;
        } else {
            self.compensation += (other.sum - t) + self.sum;
        }
        self.sum = t;
        self.compensation += other.compensation;
        self.count += other.count;
    }

    /// Final compensated total.
    pub fn total(&self) -> f64 {
        self.sum + self.compensation
    }

    /// Number of values accumulated.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the accumulated values, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.total() / self.count as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neumaier_handles_catastrophic_cancellation() {
        // 1.0 + 1e100 - 1e100 == 1.0 with compensation, 0.0 naively.
        let values = [1.0, 1e100, 1.0, -1e100];
        assert_eq!(neumaier_sum(values.iter().copied()), 2.0);
    }

    #[test]
    fn mean_and_variance_of_constants() {
        let values = vec![4.0; 1000];
        assert_eq!(mean(&values), Some(4.0));
        assert_eq!(variance(&values), Some(0.0));
    }

    #[test]
    fn mean_of_empty_is_none() {
        assert_eq!(mean(&[]), None);
        assert_eq!(variance(&[]), None);
    }

    #[test]
    fn variance_of_simple_sequence() {
        // Population variance of [1, 2, 3, 4] is 1.25.
        let values = [1.0, 2.0, 3.0, 4.0];
        assert!((variance(&values).unwrap() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn running_sum_merge_equals_single_accumulator() {
        let values: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.37).cos()).collect();
        let mut whole = RunningSum::new();
        for v in &values {
            whole.add(*v);
        }
        let mut left = RunningSum::new();
        let mut right = RunningSum::new();
        for v in &values[..500] {
            left.add(*v);
        }
        for v in &values[500..] {
            right.add(*v);
        }
        left.merge(&right);
        assert!((whole.total() - left.total()).abs() < 1e-12);
        assert_eq!(whole.count(), left.count());
    }

    #[test]
    fn running_sum_mean_of_empty_is_none() {
        assert_eq!(RunningSum::new().mean(), None);
    }

    #[test]
    fn running_sum_mean_matches_slice_mean() {
        let values: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let mut acc = RunningSum::new();
        for v in &values {
            acc.add(*v);
        }
        assert!((acc.mean().unwrap() - 49.5).abs() < 1e-12);
    }
}
